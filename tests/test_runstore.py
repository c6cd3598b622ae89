"""Grid runner semantics: specs, RunStore durability, resume, corruption.

The contract under test: a relaunched grid recomputes nothing that is
already stored, anything less than a fully valid cell file is re-run rather
than trusted, and concurrent writers can never produce a torn cell.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.data.splits import Scenario
from repro.eval.metrics import MetricSet
from repro.runner import (
    DatasetSpec,
    GridSpec,
    GridSpecMismatch,
    IncompleteGridError,
    RunStore,
    ablation_from_store,
    evaluation_results,
    grid_status,
    load_cells,
    run_grid,
    table3_from_store,
)

TINY_DATASET = DatasetSpec(user_base=120, item_base=80, seed=3)


def tiny_spec(**overrides) -> GridSpec:
    kwargs = dict(
        methods=["Popularity"],
        targets=["Books"],
        scenarios=["warm-start", "user cold-start"],
        seeds=[0],
        profile="fast",
        dataset=TINY_DATASET,
    )
    kwargs.update(overrides)
    return GridSpec(**kwargs)


class TestGridSpec:
    def test_normalizes_methods_and_scenarios(self):
        spec = tiny_spec(methods=["Popularity", {"name": "NeuMF", "epochs": 3}])
        assert spec.methods[0] == {"name": "Popularity"}
        assert spec.scenarios == [Scenario.WARM, Scenario.C_U]
        assert spec.method_labels == ["Popularity", "NeuMF"]

    def test_scenario_accepts_enum_name_and_value(self):
        spec = tiny_spec(scenarios=["WARM", "user cold-start", Scenario.C_UI])
        assert spec.scenarios == [Scenario.WARM, Scenario.C_U, Scenario.C_UI]
        with pytest.raises(ValueError, match="unknown scenario"):
            tiny_spec(scenarios=["lukewarm"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate method label"):
            tiny_spec(methods=["Popularity", {"name": "Popularity", "label": "Popularity"}])

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("seeds", [0, 0]),
            ("targets", ["Books", "Books"]),
            ("scenarios", ["WARM", "warm-start"]),
        ],
    )
    def test_duplicate_axis_entries_rejected(self, axis, values):
        # A repeated seed used to compute one cell twice and count it as
        # two seeds ("mean of 2 seeds" over one split).
        with pytest.raises(ValueError, match=f"duplicate {axis[:-1]}"):
            tiny_spec(**{axis: values})

    def test_distinct_labels_allow_config_variants(self):
        spec = tiny_spec(
            methods=[
                {"name": "NeuMF", "label": "NeuMF-8", "embed_dim": 8},
                {"name": "NeuMF", "label": "NeuMF-16", "embed_dim": 16},
            ]
        )
        keys = {cell.method_label: cell.key for cell in spec.expand()
                if cell.scenario is Scenario.WARM}
        assert keys["NeuMF-8"] != keys["NeuMF-16"]

    def test_unknown_method_and_key_fail_loudly(self):
        with pytest.raises(KeyError, match="unknown method"):
            tiny_spec(methods=["NoSuchMethod"]).expand()
        with pytest.raises(ValueError, match="unknown config key"):
            tiny_spec(methods=[{"name": "NeuMF", "epcohs": 3}]).expand()

    def test_json_round_trip_preserves_cell_keys(self):
        spec = tiny_spec(methods=[{"name": "NeuMF", "epochs": 3}], seeds=[0, 1])
        clone = GridSpec.from_json(spec.to_json())
        assert [c.key for c in clone.expand()] == [c.key for c in spec.expand()]
        assert clone.canonical() == spec.canonical()

    def test_cell_key_tracks_content(self):
        base = tiny_spec().expand()[0]
        changed_seed = tiny_spec(seeds=[1]).expand()[0]
        changed_data = tiny_spec(dataset=DatasetSpec(100, 80, 3)).expand()[0]
        assert len({base.key, changed_seed.key, changed_data.key}) == 3
        # Profile is folded into concrete fields: an explicit override that
        # matches the preset hashes identically.
        preset = tiny_spec(methods=["NeuMF"]).expand()[0]
        explicit = tiny_spec(methods=[{"name": "NeuMF", "epochs": 5}]).expand()[0]
        assert preset.key == explicit.key


class TestRunStoreDurability:
    def _cell(self, spec=None):
        return (spec or tiny_spec()).expand()[0]

    def _metrics(self, n=3):
        return MetricSet(hr=0.5, mrr=0.25, ndcg=0.3, auc=0.6, n_trials=n, k=10)

    def test_round_trip_with_ragged_score_lists(self, tmp_path):
        store = RunStore(tmp_path)
        cell = self._cell()
        lists = [np.array([1.0]), np.array([0.1, 0.9, 0.5]), np.array([0.3, 0.3])]
        store.save_cell(cell, self._metrics(), lists, extras={"diversity": 1.5})
        loaded = store.load_cell(cell.key)
        assert loaded is not None
        assert loaded.metrics == self._metrics()
        assert loaded.extras == {"diversity": 1.5}
        assert len(loaded.score_lists) == 3
        for original, restored in zip(lists, loaded.score_lists):
            np.testing.assert_array_equal(original, restored)

    def test_zero_trial_cell_round_trips(self, tmp_path):
        store = RunStore(tmp_path)
        cell = self._cell()
        store.save_cell(cell, MetricSet(0.0, 0.0, 0.0, 0.0, n_trials=0, k=10), [])
        loaded = store.load_cell(cell.key)
        assert loaded is not None and loaded.score_lists == []

    def test_missing_cell_is_incomplete(self, tmp_path):
        assert RunStore(tmp_path).load_cell("deadbeef") is None

    @pytest.mark.parametrize(
        "corruption",
        ["truncate_json", "garbage_json", "truncate_npz", "delete_npz", "wrong_key"],
    )
    def test_corrupted_cell_not_trusted(self, tmp_path, corruption):
        store = RunStore(tmp_path)
        cell = self._cell()
        store.save_cell(cell, self._metrics(), [np.array([1.0, 0.0, 0.5])] * 3)
        json_path = store.cells_dir / f"{cell.key}.json"
        npz_path = store.cells_dir / f"{cell.key}.npz"
        if corruption == "truncate_json":
            json_path.write_bytes(json_path.read_bytes()[:20])
        elif corruption == "garbage_json":
            json_path.write_text('{"format": 1, "key": "%s"}' % cell.key)
        elif corruption == "truncate_npz":
            npz_path.write_bytes(npz_path.read_bytes()[:30])
        elif corruption == "delete_npz":
            npz_path.unlink()
        elif corruption == "wrong_key":
            payload = json.loads(json_path.read_text())
            payload["key"] = "0" * 20
            json_path.write_text(json.dumps(payload))
        assert store.load_cell(cell.key) is None
        assert not store.is_complete(cell.key)

    def test_concurrent_writers_never_tear_a_cell(self, tmp_path):
        store = RunStore(tmp_path)
        cell = self._cell()
        lists = [np.linspace(0, 1, 25) for _ in range(10)]
        errors: list[Exception] = []

        def writer():
            try:
                for _ in range(15):
                    store.save_cell(cell, self._metrics(n=10), lists)
                    assert store.load_cell(cell.key) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = store.load_cell(cell.key)
        assert loaded is not None and loaded.metrics.n_trials == 10

    def test_failure_record_round_trips(self, tmp_path):
        store = RunStore(tmp_path)
        cell = self._cell()
        store.record_failure(cell, "ValueError: boom", traceback_text="tb line")
        payload = store.load_failure(cell.key)
        assert payload is not None
        assert payload["error"] == "ValueError: boom"
        assert payload["traceback"] == "tb line"
        assert payload["key"] == cell.key
        assert store.failed_keys() == {cell.key}
        # A failure record never makes the cell count as complete.
        assert not store.is_complete(cell.key)

    def test_successful_save_clears_the_failure(self, tmp_path):
        store = RunStore(tmp_path)
        cell = self._cell()
        store.record_failure(cell, "transient crash")
        store.save_cell(
            cell, self._metrics(), [np.array([1.0]) for _ in range(3)]
        )
        assert store.load_failure(cell.key) is None
        assert store.failed_keys() == set()
        assert store.is_complete(cell.key)

    def test_mismatched_or_corrupt_failure_not_trusted(self, tmp_path):
        store = RunStore(tmp_path)
        cell = self._cell()
        store.record_failure(cell, "boom")
        # Key mismatch (file renamed / copied between runs) is rejected.
        assert store.load_failure("0" * 16) is None
        (store.cells_dir / f"{cell.key}.error.json").write_text("{not json")
        assert store.load_failure(cell.key) is None
        store.clear_failure(cell.key)  # corrupt record still removable
        store.clear_failure(cell.key)  # and clearing twice is a no-op
        assert store.failed_keys() == set()

    def test_spec_binding_rejects_mismatch(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_spec(tiny_spec())
        store.write_spec(tiny_spec())  # idempotent for the same spec
        with pytest.raises(GridSpecMismatch):
            store.write_spec(tiny_spec(seeds=[0, 1]))
        store.write_spec(tiny_spec(seeds=[0, 1]), force=True)
        assert store.load_spec().seeds == [0, 1]


class TestEngineResume:
    def test_relaunch_recomputes_nothing(self, tmp_path, bench_dataset):
        spec = tiny_spec()
        first = run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        assert first.ok and first.n_computed == 2 and first.n_skipped == 0
        second = run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        assert second.ok and second.n_computed == 0
        assert second.n_skipped == len(spec.expand())

    def test_corrupted_cell_is_recomputed(self, tmp_path, bench_dataset):
        spec = tiny_spec()
        run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        store = RunStore(tmp_path)
        victim = spec.expand()[0]
        (store.cells_dir / f"{victim.key}.json").write_text("{not json")
        report = run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        assert report.ok
        assert report.n_computed == 1  # only the corrupted cell
        assert store.is_complete(victim.key)
        # ...and the recomputed cell matches a clean run bit-for-bit.
        table = table3_from_store(tmp_path)
        fresh = run_grid(spec, tmp_path / "fresh", workers=1, dataset=bench_dataset)
        assert fresh.ok
        clean = table3_from_store(tmp_path / "fresh")
        assert table.cells == clean.cells

    def test_unit_failure_is_isolated(self, tmp_path, bench_dataset):
        spec = tiny_spec(targets=["Books", "NoSuchDomain"])
        report = run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        assert not report.ok and len(report.failures) == 1
        assert "NoSuchDomain" in report.failures[0][0]
        # The healthy target still completed and is resumable.
        status = grid_status(tmp_path)
        assert status.n_complete == 2 and len(status.missing) == 2
        with pytest.raises(IncompleteGridError):
            load_cells(tmp_path)
        # The crash was persisted with its traceback on every missing cell,
        # so `grid status` explains the failure without re-running.
        assert len(status.failures) == 2
        for cell, payload in status.failures:
            assert cell.target == "NoSuchDomain"
            assert payload["error"] == status.failures[0][1]["error"]
            assert payload["traceback"]  # full traceback text rides along
        rendered = status.format_table()
        assert "FAILED Popularity on NoSuchDomain seed=0" in rendered
        # Re-running after the cause is fixed clears the records.
        store = RunStore(tmp_path)
        assert store.failed_keys() == {
            cell.key for cell, _ in status.failures
        }

    def test_status_and_summary_render(self, tmp_path, bench_dataset):
        spec = tiny_spec()
        report = run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        assert "2 computed" in report.format_summary()
        status = grid_status(tmp_path)
        assert status.complete and "2/2 cells complete" in status.format_table()

    def test_injected_dataset_mismatch_fails_loudly(self, tmp_path, bench_dataset):
        # Cells computed from one dataset must never silently mix with
        # cells computed from another in the same run directory.
        spec = tiny_spec()
        run_grid(spec, tmp_path, workers=1, dataset=bench_dataset)
        from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark
        from repro.runner import prepared

        other = make_amazon_like_benchmark(
            scale=BenchmarkScale(user_base=120, item_base=80), seed=99
        )
        prepared.clear_memos()
        report = run_grid(spec, tmp_path, workers=1, dataset=other, resume=False)
        assert not report.ok
        assert "dataset mismatch" in report.failures[0][1]


class TestPreparedBundles:
    def test_runs_on_other_datasets_are_never_served_stale_bundles(
        self, tmp_path, bench_dataset
    ):
        # The prepared-bundle memo used to be process-wide and keyed by the
        # spec, not the data: a second run on another dataset (or a
        # spec-built run after an injected one) scored the first run's
        # prepared experiment.
        from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark
        from repro.data.experiment import prepare_experiment
        from repro.eval.protocol import evaluate_prepared

        other = make_amazon_like_benchmark(
            scale=BenchmarkScale(user_base=120, item_base=80), seed=99
        )
        spec = tiny_spec(scenarios=["warm-start"])
        expected = {}
        for name, data in (("other", other), ("bench", bench_dataset)):
            experiment = prepare_experiment(
                data, "Books", seed=0, scenarios=[Scenario.WARM]
            )
            results = evaluate_prepared("Popularity", experiment)
            expected[name] = results[Scenario.WARM].metrics.ndcg
        assert expected["other"] != expected["bench"]

        def stored_ndcg(run_dir):
            table = table3_from_store(run_dir)
            return table.mean("Books", Scenario.WARM, "Popularity", "ndcg")

        for name, data in (("other", other), ("bench", bench_dataset)):
            assert run_grid(spec, tmp_path / name, workers=1, dataset=data).ok
            assert stored_ndcg(tmp_path / name) == expected[name]
        # spec.dataset names the bench dataset; built from the spec after a
        # run on the other one, it must still score its own data.
        assert run_grid(spec, tmp_path / "from-spec", workers=1).ok
        assert stored_ndcg(tmp_path / "from-spec") == expected["bench"]


class TestAggregation:
    def test_evaluation_results_match_table3(self, tmp_path, bench_dataset):
        spec = tiny_spec(methods=["Popularity", "NeuMF"])
        assert run_grid(spec, tmp_path, workers=1, dataset=bench_dataset).ok
        table = table3_from_store(tmp_path)
        per_method = evaluation_results(tmp_path)
        assert set(per_method) == {"Popularity", "NeuMF"}
        for label, per_scenario in per_method.items():
            for scenario, results in per_scenario.items():
                assert len(results) == 1  # one target × one seed
                res = results[0]
                assert res.method == label and res.scenario is scenario
                assert res.score_lists, "stored per-instance scores survive"
                assert res.metrics.ndcg == pytest.approx(
                    table.mean("Books", scenario, label, "ndcg")
                )

    def test_subset_scenario_tables_render(self, tmp_path, bench_dataset):
        # Grids covering a scenario subset must aggregate and format
        # without touching the scenarios they never evaluated.
        spec = tiny_spec(scenarios=["warm-start"])
        assert run_grid(spec, tmp_path, workers=1, dataset=bench_dataset).ok
        table = table3_from_store(tmp_path)
        assert "warm-start" in table.format_table()
        assert "item cold-start" not in table.format_table()
        ablation = ablation_from_store(tmp_path, ks=(5, 10))
        rendered = ablation.format_table()
        assert "warm-start" in rendered and "item cold-start" not in rendered
        from repro.eval.reports import ablation_to_markdown, table3_to_csv

        assert "C_I" not in table3_to_csv(table)
        assert "item cold-start" not in ablation_to_markdown(ablation)
