"""Figure 8: sensitivity of MetaDPA to the ME weight β2 on CDs.

Expected shape (paper Sec. V-F): β2 is *less* sensitive than β1 — MDI
affects both domain adaptation and generation, ME only the latter.  Compare
the ``spread`` numbers this sweep and ``bench_fig7_beta1.py`` record; README
("Reproducing the paper") lists the ``fig7``/``fig8`` commands behind both.
"""

from repro.experiments import run_hyperparam_sweep


def test_fig8_beta2_sweep(benchmark, dataset):
    result = benchmark.pedantic(
        run_hyperparam_sweep,
        args=(dataset, "beta2"),
        kwargs=dict(target="CDs", grid=(1e-2, 1e-1, 1.0, 1e1), seeds=(0,), profile="fast"),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.format_table())
    for scenario, curve in result.curves.items():
        assert all(v >= 0.0 for v in curve)
        benchmark.extra_info[f"spread_{scenario.name}"] = round(
            result.sensitivity_range(scenario), 4
        )
