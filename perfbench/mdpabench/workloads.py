"""The four workloads.

Each workload has a ``prepare`` step that builds its inputs from the seed
(untimed: data and artifacts the measured program receives) and a ``run``
step that measures.  ``run`` takes a :class:`~mdpabench.tracing.Tracer`
in the traced run and ``None`` otherwise; it returns a :class:`PassResult`
holding the end-to-end metrics and, when traced, the per-layer ones.

``train-eval``
    The researcher's loop: data generation and ``prepare_experiment``
    (set-up), then MetaDPA ``fast`` fits over both targets and distinct
    seeds, each followed by ``evaluate_prepared(fit=False)``.
``serve-read``
    A tiny MetaDPA artifact served by a 2-worker ``ShardedService``; a
    read-only Zipf(1.1) open loop at the reference rate, then a ladder of
    fixed rates up to above capacity, then a saturation rung.
``serve-mixed``
    The same service with ``refresh_every`` armed; Zipf(1.1) reads with
    15% ``observe`` writes at the reference rate.
``recommend-wide``
    ``RecommenderService.recommend_many(k=10)`` closed-loop over every
    user of a 16k-item catalogue, in batches, in-process.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mdpabench.checks import (
    CheckFailed,
    check_finite,
    check_sharded_answers,
    check_stream_accounting,
    check_topk,
)
from mdpabench.openloop import (
    READ,
    WRITE,
    Phase,
    max_rate,
    rung_margin,
    run_open_loop,
    zipf_stream,
)
from mdpabench.tracing import Tracer, diff_snapshot, hist_summary

from repro.core.interface import Recommender
from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark
from repro.data.experiment import prepare_experiment
from repro.data.negative_sampling import EvalInstance
from repro.data.splits import Scenario
from repro.eval.protocol import evaluate_prepared
from repro.registry import build_method

#: the small training budget of the artifacts the serving workloads use.
ARTIFACT_SPEC = {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 4, "meta_epochs": 1}


@dataclass
class PassResult:
    """What one measured pass of a workload produced."""

    e2e: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    phases: list[dict] = field(default_factory=list)
    #: largest peak RSS among the serving worker processes, in MB.
    child_rss_mb: float = 0.0
    #: workload-specific figures, reported but not gated (see
    #: :data:`mdpabench.spec.END_TO_END`).
    info: dict[str, float] = field(default_factory=dict)


def _span(tracer: Tracer | None, name: str):
    """The tracer's span, or a no-op when untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# ----------------------------------------------------------------------
# train-eval
# ----------------------------------------------------------------------
class TrainEval:
    """Fit and evaluate MetaDPA on the default-scale benchmark."""

    name = "train-eval"
    targets = ("Books", "CDs")
    #: fit pairs (one per target) every run makes; the reported ``ndcg10``
    #: averages exactly these, so it is a deterministic function of the seed.
    min_pairs = 6
    #: how many times each run repeats its set-up; ``setup_s`` is the median.
    setup_repeats = 3

    def prepare(self, seed: int, work: Path) -> int:
        return seed

    def run(self, seed: int, seconds: float, tracer: Tracer | None) -> PassResult:
        setup_times = []
        for _ in range(self.setup_repeats):
            t0 = perf_counter()
            with _span(tracer, "data.generate"):
                dataset = make_amazon_like_benchmark(seed=seed)
            experiments = {}
            for target in self.targets:
                with _span(tracer, "data.prepare"):
                    experiments[target] = prepare_experiment(dataset, target, seed=seed)
            setup_times.append(perf_counter() - t0)

        if tracer is not None:
            _patch_training(tracer)
            from repro.obs import metrics

            metrics().clear()
        fit_times, eval_times, ndcgs = [], [], []
        start = perf_counter()
        pairs = 0
        while True:
            elapsed = perf_counter() - start
            if pairs >= self.min_pairs and elapsed + elapsed / pairs > seconds:
                break
            for index, target in enumerate(self.targets):
                experiment = experiments[target]
                method = build_method(
                    {"name": "MetaDPA", "profile": "fast"},
                    seed=seed * 1009 + pairs * len(self.targets) + index,
                )
                t0 = perf_counter()
                method.fit(experiment.ctx)
                fit_times.append(perf_counter() - t0)
                t0 = perf_counter()
                results = evaluate_prepared(method, experiment, fit=False)
                eval_times.append(perf_counter() - t0)
                ndcg = float(results[Scenario.C_U].metrics.ndcg)
                check_finite("ndcg10", ndcg)
                if pairs < self.min_pairs:
                    ndcgs.append(ndcg)
            pairs += 1

        def per_pair(times: list[float]) -> float:
            # Books fits take ~40% longer than CDs fits; the median of the
            # pair means does not flip between the two as the median of
            # single fits does.
            return _median(np.reshape(times, (-1, len(self.targets))).mean(axis=1))

        result = PassResult(
            e2e={
                "setup_s": _median(setup_times),
                # One fit and its evaluation, the researcher's unit of work.
                # The evaluation alone (a tenth of it) swung between 0.21 s
                # and 0.32 s per pair in runs minutes apart on a shared host.
                "p50_ms": per_pair(np.add(fit_times, eval_times)) * 1e3,
            },
            info={
                "fit_s": per_pair(fit_times),
                "eval_s": per_pair(eval_times),
                "ndcg10": float(np.mean(ndcgs)),
            },
            attempted=len(fit_times),
            failed=0,
            phases=[
                {"phase": "setup", "setup_s": setup_times},
                {
                    "phase": "fits",
                    "sent": len(fit_times),
                    "ok": len(fit_times),
                    "failed": 0,
                    "fit_s": fit_times,
                    "eval_s": eval_times,
                    "ndcg10": ndcgs,
                }
            ],
        )
        if tracer is not None:
            result.layers = _training_layers(tracer, len(fit_times), len(eval_times))
        return result


def _patch_training(tracer: Tracer) -> None:
    from repro.cvae.augment import DiversePreferenceAugmenter
    from repro.eval.metrics import MetricSet
    from repro.meta.corpus import TaskCorpusBuilder
    from repro.meta.maml import MAML
    from repro.meta.trainer import MetaDPA

    tracer.patch(DiversePreferenceAugmenter, "fit_generate", "cvae.fit_generate")
    tracer.patch(TaskCorpusBuilder, "build", "meta.corpus_build")
    tracer.patch(MAML, "fit", "meta.maml_fit")
    tracer.patch(MetaDPA, "score_batch", "eval.score_batch")
    tracer.patch(MetricSet, "from_score_lists", "eval.metrics")


def _training_layers(tracer: Tracer, n_fits: int, n_evals: int) -> dict:
    from repro.obs import metrics

    snap = metrics().snapshot()
    cvae_step = hist_summary(snap, "cvae.step.seconds")
    meta_step = hist_summary(snap, "meta.step.seconds")
    meta_gather = hist_summary(snap, "meta.gather.seconds")
    return {
        "data.generate_s": tracer.median("data.generate"),
        "data.prepare_s": tracer.median("data.prepare"),
        "cvae.fit_generate_s": tracer.median("cvae.fit_generate"),
        "cvae.step_count": _ratio(cvae_step["count"], n_fits),
        "cvae.step_busy_s": _ratio(cvae_step["sum"], n_fits),
        "meta.corpus_build_s": tracer.median("meta.corpus_build"),
        "meta.maml_fit_s": tracer.median("meta.maml_fit"),
        "meta.step_count": _ratio(meta_step["count"], n_fits),
        "meta.step_busy_s": _ratio(meta_step["sum"], n_fits),
        "meta.gather_busy_s": _ratio(meta_gather["sum"], n_fits),
        "eval.score_batch_s": _ratio(tracer.total("eval.score_batch"), n_evals),
        "eval.metrics_s": _ratio(tracer.total("eval.metrics"), n_evals),
    }


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def _in_child(fn, *args):
    """``fn(*args)`` computed in a child process; returns its result.

    Input preparation trains a model.  Doing it in a child keeps that
    memory peak out of the process that then serves, and out of the
    serving workers forked from it, so ``peak_rss_mb`` measures serving.
    """
    import multiprocessing as mp

    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    pool = mp.get_context(method).Pool(1)
    try:
        return pool.apply(fn, args)
    finally:
        pool.close()
        pool.join()


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class ServingInputs:
    """A saved tiny artifact plus the cold users that will be served."""

    seed: int
    artifact: Path
    tasks: list
    #: C-U user rows in Zipf rank order (``pool[0]`` is the hottest).
    pool: np.ndarray
    n_items: int


def _build_serving_inputs(seed: int, work: Path, n_workers: int) -> ServingInputs:
    dataset = make_amazon_like_benchmark(
        BenchmarkScale(user_base=160, item_base=110), seed=seed
    )
    experiment = prepare_experiment(dataset, "Books", seed=seed)
    method = build_method(ARTIFACT_SPEC, seed=seed)
    method.fit(experiment.ctx)
    path = method.save(work / "serve.npz")
    tasks = list(experiment.task_sets[Scenario.C_U])
    users = np.array([t.user_row for t in tasks], dtype=int)
    rng = np.random.default_rng([seed, 17])
    pool = _rank_users(users, n_workers, rng)
    return ServingInputs(seed, path, tasks, pool, experiment.domain.n_items)


def _rank_users(users: np.ndarray, n_workers: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf rank order: shuffled, with consecutive ranks on different shards.

    Requests route by ``user % n_workers``; interleaving the ranks splits
    the hot head evenly between the workers, so capacity does not hinge on
    which worker the seed happens to give the hottest user.
    """
    per_shard = [rng.permutation(users[users % n_workers == s]) for s in range(n_workers)]
    order = []
    for rank in range(max(len(p) for p in per_shard)):
        order.extend(int(p[rank]) for p in per_shard if rank < len(p))
    return np.array(order, dtype=int)


class _Serving:
    """Shared set-up of ``serve-read`` and ``serve-mixed``."""

    n_workers = 2
    max_wait_ms = 2.0
    ref_rate = 300.0
    zipf_alpha = 1.1
    refresh_every = 0
    #: ``p99_ms`` is the median over ``p99_window``-second slices of the
    #: measured phase of each slice's p99: this shared machine has stalls
    #: lasting a second or two, which shift a pooled p99 from run to run.
    p99_window = 1.0
    #: a set-up takes well under a second and a stall of the shared machine
    #: easily doubles one, so the median is taken over many.
    setup_repeats = 9

    def prepare(self, seed: int, work: Path) -> ServingInputs:
        return _in_child(_build_serving_inputs, seed, work, self.n_workers)

    def _start(self, inputs: ServingInputs):
        """One set-up: start, ``wait_ready``, register histories, warm up."""
        from repro.serve import ShardedService
        from repro.serve.resilience import ResilienceConfig

        t0 = perf_counter()
        service = ShardedService(
            inputs.artifact,
            n_workers=self.n_workers,
            cache_size=max(2, inputs.pool.size // 4),
            max_wait_ms=self.max_wait_ms,
            refresh_every=self.refresh_every,
            # No deadline, shedding or fallback: every read is answered by
            # the model, and the outcome counters reconcile per request.
            resilience=ResilienceConfig(fallback=False),
        )
        try:
            if not service.wait_ready(timeout=120.0):
                raise RuntimeError("serving workers did not become ready")
            ready = perf_counter() - t0
            pins = _pin_workers([s["worker"]["pid"] for s in service.stats()["shards"]])
            for task in inputs.tasks:
                service.register_user_history(task)
            for shard in range(self.n_workers):
                owned = inputs.pool[inputs.pool % self.n_workers == shard]
                if owned.size:
                    service.recommend(int(owned[0]))
        except BaseException:
            service.close()
            raise
        return service, ready, perf_counter() - t0, pins

    def _setup(self, inputs: ServingInputs):
        """Repeat the set-up; keep the last service running.

        Returns the service, the median ready and set-up times, and the
        set-up report line (which names the kept service's worker pids).
        """
        readys, setups = [], []
        for i in range(self.setup_repeats):
            service, ready, setup, pins = self._start(inputs)
            readys.append(ready)
            setups.append(setup)
            if i < self.setup_repeats - 1:
                service.close()
        report = {"phase": "setup", "setup_s": setups, "worker_cpus": pins}
        return service, _median(readys), _median(setups), report

    @staticmethod
    def _workers_peak_mb(service) -> float:
        """Largest peak RSS among the live service's workers."""
        pids = [s["worker"]["pid"] for s in service.stats()["shards"]]
        return max((_peak_rss_mb(pid) for pid in pids), default=0.0)

    @staticmethod
    def _stats_after(service, predicate, timeout: float = 2.0) -> dict:
        """Merged metrics once ``predicate(snapshot)`` holds (or at timeout).

        Outcome counters are bumped just after a request's future resolves,
        so the last few increments may land a moment after the load
        generator saw every answer.
        """
        deadline = time.monotonic() + timeout
        while True:
            snap = service.stats()["metrics"]
            if predicate(snap) or time.monotonic() >= deadline:
                return snap
            time.sleep(0.01)

    def _serving_layers(self, window: dict, total: dict, ready_s: float, late: Phase) -> dict:
        counters = window.get("counters", {})
        hits = counters.get("serve.cache.hits", 0)
        lookups = hits + counters.get("serve.cache.misses", 0)
        queue_wait = hist_summary(window, "serve.queue_wait.seconds")
        rpc = hist_summary(window, "serve.rpc.seconds")
        adapt_size = hist_summary(window, "serve.adapt.size")
        return {
            "serve.ready_s": ready_s,
            "serve.queue_wait_p50_ms": queue_wait["p50"] * 1e3,
            "serve.queue_wait_p99_ms": queue_wait["p99"] * 1e3,
            "serve.rpc_count": rpc["count"],
            "serve.rpc_p99_ms": rpc["p99"] * 1e3,
            "serve.batch_size_mean": hist_summary(window, "serve.batch.size")["mean"],
            "serve.restarts": total.get("counters", {}).get("serve.restarts", 0),
            "serve.responses_error": total.get("counters", {}).get(
                "serve.responses.error", 0
            ),
            "service.adapt_busy_s": hist_summary(window, "serve.adapt.seconds")["sum"],
            "service.adapt_users_per_batch": adapt_size["mean"],
            "service.cache_hit_ratio": _ratio(hits, lookups),
            "service.cache_lookups": lookups,
            "service.refresh_count": counters.get("serve.stream.refreshes", 0),
            "service.refresh_busy_s": hist_summary(window, "serve.refresh.seconds")["sum"],
            "service.score_busy_s": hist_summary(window, "serve.score.seconds")["sum"],
            "bench.gen_late_p99_ms": float(np.percentile(late.late(), 99) * 1e3),
        }


def _pin_workers(pids: list[int]) -> dict[int, int]:
    """Give each serving worker a core of its own, as the BLAS pin does threads.

    Left to the scheduler, the workers, woken over pipes by the same
    front-end, are often placed on one core for seconds at a time, and the
    same run at 1000 req/s shows a p90 of 11 ms or of 30 ms depending on
    where they landed.  The front-end process stays unpinned.  Returns
    ``{pid: cpu}``.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {}
    pinned = {}
    for index, pid in enumerate(pids):
        pinned[pid] = cpus[index % len(cpus)]
        os.sched_setaffinity(pid, {pinned[pid]})
    return pinned


def _reads_done(expected: int):
    def done(snap: dict) -> bool:
        counters = snap.get("counters", {})
        return expected <= sum(
            counters.get(f"serve.responses.{k}", 0) for k in ("ok", "degraded", "error")
        )

    return done


class ServeRead(_Serving):
    """Read-only open loop: reference rate, rate ladder, saturation."""

    name = "serve-read"
    #: ladder rungs (req/s), ascending; it stops at the first failing rung.
    ladder = (1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0)
    #: a rung passes when the median over ``rung_window``-second slices of
    #: the slice's ``rung_percentile`` read latency is within the limit,
    #: nothing failed, and completions reach ``pace`` of the offered rate.
    #: On a shared 2-core machine a p99 <= 25 ms limit sits inside the
    #: run-to-run noise (max_rate spread 0.3-1.0 of its median over six
    #: seeds) and so does p90 <= 25 ms (0.45-0.99); p90 <= 50 ms, where
    #: latency climbs steeply towards capacity, gave 0.10.
    latency_limit_s = 0.050
    rung_percentile = 90.0
    rung_window = 0.5
    pace = 0.95
    #: fixed offered rate of the saturation rung, above capacity.
    sat_rate = 4500.0
    #: shares of ``--seconds`` given to each part of the run.
    ref_share, rung_share, sat_share = 0.5, 0.08, 0.12

    def run(self, inputs: ServingInputs, seconds: float, tracer: Tracer | None) -> PassResult:
        rng = np.random.default_rng([inputs.seed, 23])
        service, ready_s, setup_s, setup_report = self._setup(inputs)
        phases: list[Phase] = []
        with service:
            def read_phase(name: str, rate: float, duration: float) -> Phase:
                users = zipf_stream(
                    inputs.pool, max(int(rate * duration), 50), self.zipf_alpha, rng
                )
                phase = run_open_loop(
                    lambda i: service.submit(int(users[i])), users.size, rate, name=name
                )
                phases.append(phase)
                return phase

            before = service.stats()["metrics"]
            ref = read_phase("reference", self.ref_rate, seconds * self.ref_share)
            after_ref = self._stats_after(service, _reads_done(ref.n))
            rates, margins = [], []
            for rate in self.ladder:
                time.sleep(0.05)
                rung = read_phase(f"rung-{int(rate)}", rate, seconds * self.rung_share)
                rates.append(rate)
                margins.append(
                    rung_margin(
                        rung,
                        self.latency_limit_s,
                        self.pace,
                        q=self.rung_percentile,
                        window=self.rung_window,
                    )
                )
                if margins[-1] < 0:
                    break
            time.sleep(0.05)
            sat = read_phase("saturation", self.sat_rate, seconds * self.sat_share)
            total = self._stats_after(service, _reads_done(sum(p.n for p in phases)))
            workers_mb = self._workers_peak_mb(service)

        expected = _reference_answers(inputs, tracer)
        answers = [r for p in phases for r, ok in zip(p.results, p.ok) if ok]
        check_sharded_answers(answers, expected)

        sent = sum(p.n for p in phases)
        failed = sum(p.counts()["failed"] for p in phases)
        result = PassResult(
            e2e={
                "setup_s": setup_s,
                "p50_ms": float(np.percentile(ref.latencies(READ), 50) * 1e3),
            },
            info={
                "p99_ms": ref.windowed_percentile(99, self.p99_window, READ) * 1e3,
                "max_rate": max_rate(rates, margins),
                "sat_qps": sat.completion_rate(),
                "error_frac": failed / sent,
            },
            attempted=sent,
            failed=failed,
            phases=[setup_report] + [p.summary() for p in phases],
            child_rss_mb=workers_mb,
        )
        if tracer is not None:
            result.layers = self._serving_layers(
                diff_snapshot(after_ref, before), total, ready_s, ref
            )
            # The reference service's load: the same artifact and mmap mode
            # every worker loads at start-up.
            result.layers["core.artifact_load_s"] = tracer.median("core.artifact_load")
            result.layers["bench.error_frac"] = failed / sent
        return result


def _reference_answers(inputs: ServingInputs, tracer: Tracer | None) -> dict:
    """In-process ``RecommenderService.recommend`` answer for every pool user."""
    from repro.service import RecommenderService

    if tracer is not None:
        tracer.patch(Recommender, "load", "core.artifact_load")
    try:
        reference = RecommenderService.from_artifact(
            inputs.artifact, cache_size=inputs.pool.size
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    for task in inputs.tasks:
        reference.register_user_history(task)
    return {int(u): reference.recommend(int(u), k=10) for u in inputs.pool}


class ServeMixed(_Serving):
    """Reads plus ``observe`` writes, with periodic meta-refresh armed."""

    name = "serve-mixed"
    write_frac = 0.15
    #: writes are 45/s, so ``write_p99_ms`` takes its slices longer than the
    #: reads' to hold about 90 writes each.
    write_p99_window = 2.0
    #: shard-local events per meta-refresh.  Frequent enough that reads
    #: stalled behind a refresh (about 30 ms each) are well over 1% of all
    #: reads, so ``p99_ms`` measures the refresh path instead of flipping
    #: between it and the ordinary tail from run to run.
    refresh_every = 10

    def run(self, inputs: ServingInputs, seconds: float, tracer: Tracer | None) -> PassResult:
        rng = np.random.default_rng([inputs.seed, 29])
        n = int(self.ref_rate * seconds)
        users = zipf_stream(inputs.pool, n, self.zipf_alpha, rng)
        kinds = np.where(rng.random(n) < self.write_frac, WRITE, READ).astype(np.int8)
        items = rng.integers(0, inputs.n_items, size=n)
        ratings = rng.random(n)
        reads_sent = int((kinds == READ).sum())
        writes_sent = n - reads_sent

        service, ready_s, setup_s, setup_report = self._setup(inputs)
        with service:
            def submit(i: int):
                if kinds[i] == WRITE:
                    return service.observe_async(
                        int(users[i]), int(items[i]), float(ratings[i])
                    )
                return service.submit(int(users[i]))

            before = service.stats()["metrics"]
            phase = run_open_loop(submit, n, self.ref_rate, name="mixed", kinds=kinds)

            def accounted(snap: dict) -> bool:
                window = diff_snapshot(snap, before)["counters"]
                return _reads_done(reads_sent)(
                    {"counters": window}
                ) and window.get("serve.stream.events", 0) >= writes_sent

            after = self._stats_after(service, accounted)
            workers_mb = self._workers_peak_mb(service)
        window = diff_snapshot(after, before)
        check_stream_accounting(window["counters"], writes_sent, reads_sent)

        failed = phase.counts()["failed"]
        result = PassResult(
            e2e={
                "setup_s": setup_s,
                "p50_ms": float(np.percentile(phase.latencies(READ), 50) * 1e3),
            },
            info={
                "p99_ms": phase.windowed_percentile(99, self.p99_window, READ) * 1e3,
                "write_p99_ms": phase.windowed_percentile(99, self.write_p99_window, WRITE)
                * 1e3,
                "error_frac": failed / n,
            },
            attempted=n,
            failed=failed,
            phases=[
                setup_report,
                {**phase.summary(), "reads": phase.counts(READ), "writes": phase.counts(WRITE)},
            ],
            child_rss_mb=workers_mb,
        )
        if tracer is not None:
            result.layers = self._serving_layers(window, after, ready_s, phase)
            result.layers["bench.error_frac"] = failed / n
        return result


# ----------------------------------------------------------------------
# recommend-wide
# ----------------------------------------------------------------------
@dataclass
class WideInputs:
    seed: int
    artifact: Path
    tasks: list
    n_users: int


def _build_wide_inputs(seed: int, work: Path) -> WideInputs:
    dataset = make_amazon_like_benchmark(RecommendWide.scale, seed=seed)
    experiment = prepare_experiment(dataset, "Books", seed=seed)
    method = build_method(ARTIFACT_SPEC, seed=seed)
    method.fit(experiment.ctx)
    path = method.save(work / "wide.npz")
    tasks = list(experiment.task_sets[Scenario.C_U]) + list(
        experiment.task_sets[Scenario.WARM]
    )
    # The C-U and warm users number 100-120 of 160 depending on the seed,
    # and a registered user costs more than a prior-only one to adapt and
    # to score; a fixed-size seeded sample keeps the work per run equal.
    n_registered = RecommendWide.registered
    if len(tasks) < n_registered:
        raise RuntimeError(f"only {len(tasks)} users with history, need {n_registered}")
    pick = np.random.default_rng([seed, 37]).permutation(len(tasks))[:n_registered]
    tasks = [tasks[i] for i in sorted(pick)]
    return WideInputs(seed, path, tasks, experiment.domain.n_users)


class RecommendWide:
    """Closed-loop batched top-10 over a 16k-item catalogue, in-process."""

    name = "recommend-wide"
    scale = BenchmarkScale(user_base=160, item_base=16000)
    batch = 32
    k = 10
    #: users registered with their C-U or warm history (half of the 160).
    registered = 80
    #: a set-up takes about a tenth of a second; the median is over many.
    setup_repeats = 9

    def prepare(self, seed: int, work: Path) -> WideInputs:
        return _in_child(_build_wide_inputs, seed, work)

    @staticmethod
    def _balanced_order(inputs: WideInputs, rng: np.random.Generator) -> np.ndarray:
        """Every user once, with registered users spread evenly over the batches.

        A registered user's adapted towers are scored through the full
        forward pass, the others through the frozen-tower tables at a
        fraction of the time and memory.  In a plain shuffle the batch
        that draws the most registered users sets the peak RSS; with an
        even spread every batch does the same work.
        """
        registered = np.zeros(inputs.n_users, dtype=bool)
        registered[[task.user_row for task in inputs.tasks]] = True
        key = np.empty(inputs.n_users)
        for group in (registered, ~registered):
            members = rng.permutation(np.flatnonzero(group))
            key[members] = (np.arange(members.size) + 0.5) / members.size
        return np.argsort(key, kind="stable")

    def _start(self, inputs: WideInputs):
        """Load, register histories, adapt every user once (the cache fill)."""
        from repro.service import RecommenderService

        service = RecommenderService.from_artifact(
            inputs.artifact, cache_size=inputs.n_users
        )
        for task in inputs.tasks:
            service.register_user_history(task)
        # Two-candidate instances: the pass pays every user's adaptation and
        # almost no scoring, and leaves each adapted state in the cache.
        service.score_instances(
            [
                EvalInstance(user_row=u, pos_item=0, neg_items=np.array([1]))
                for u in range(inputs.n_users)
            ]
        )
        return service

    def run(self, inputs: WideInputs, seconds: float, tracer: Tracer | None) -> PassResult:
        if tracer is not None:
            from repro.meta.trainer import MetaDPA
            from repro.service import service as service_module

            tracer.patch(Recommender, "load", "core.artifact_load")
            tracer.patch(
                MetaDPA,
                "score_with_state_batch",
                "meta.score",
                size=lambda _self, _states, instances: sum(
                    inst.candidates.size for inst in instances
                ),
            )
            tracer.patch(service_module, "top_k_order", "topk")
        setup_times = []
        for _ in range(self.setup_repeats):
            t0 = perf_counter()
            service = self._start(inputs)
            setup_times.append(perf_counter() - t0)

        order = self._balanced_order(inputs, np.random.default_rng([inputs.seed, 31]))
        batches = [order[i : i + self.batch] for i in range(0, order.size, self.batch)]
        before = service.metrics.snapshot()
        if tracer is not None:
            score_before = (tracer.total("meta.score"), tracer.size_total("meta.score"))
            topk_before = tracer.total("topk")
        first = None
        served = 0
        batch_times = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            for users in batches:
                t0 = perf_counter()
                recs = service.recommend_many([int(u) for u in users], k=self.k)
                if len(users) == self.batch:
                    batch_times.append(perf_counter() - t0)
                served += len(recs)
                if first is None:
                    first = (users, recs)
                if perf_counter() - start >= seconds:
                    break
        elapsed = perf_counter() - start
        window = diff_snapshot(service.metrics.snapshot(), before)
        if tracer is not None:
            score_busy = tracer.total("meta.score") - score_before[0]
            candidates = tracer.size_total("meta.score") - score_before[1]
            topk_busy = tracer.total("topk") - topk_before
            tracer.uninstall()

        self._check_first_batch(service, *first)
        result = PassResult(
            e2e={"setup_s": _median(setup_times), "p50_ms": _median(batch_times) * 1e3},
            info={"recs_per_s": served / elapsed},
            attempted=served,
            failed=0,
            phases=[
                {"phase": "setup", "setup_s": setup_times},
                {"phase": "closed-loop", "sent": served, "ok": served, "failed": 0},
            ],
        )
        if tracer is not None:
            counters = window["counters"]
            hits = counters.get("serve.cache.hits", 0)
            lookups = hits + counters.get("serve.cache.misses", 0)
            result.layers = {
                "core.artifact_load_s": tracer.median("core.artifact_load"),
                "meta.score_busy_s": score_busy,
                "meta.candidates_per_s": _ratio(candidates, score_busy),
                "topk.busy_s": topk_busy,
                "service.adapt_busy_s": hist_summary(window, "serve.adapt.seconds")["sum"],
                "service.adapt_users_per_batch": hist_summary(window, "serve.adapt.size")[
                    "mean"
                ],
                "service.cache_hit_ratio": _ratio(hits, lookups),
                "service.cache_lookups": lookups,
                "service.score_busy_s": hist_summary(window, "serve.score.seconds")["sum"],
            }
        return result

    def _check_first_batch(self, service, users, recs) -> None:
        """Re-score the first batch and check each answer is its stable top-k.

        ``score_instances`` over the same cached states and candidate pools
        repeats the batch's scoring call exactly, so its full score vectors
        are the ones ``recommend_many`` ranked.
        """
        seen = service.method.serving.seen
        pools = [np.flatnonzero(~seen[int(u)]) for u in users]
        instances = [
            EvalInstance(user_row=int(u), pos_item=int(pool[0]), neg_items=pool[1:])
            for u, pool in zip(users, pools)
        ]
        full = service.score_instances(instances)
        if len(recs) != len(users):
            raise CheckFailed(f"{len(recs)} answers for {len(users)} users")
        for rec, pool, scores in zip(recs, pools, full):
            check_topk(rec.items, rec.scores, pool, scores, self.k)


WORKLOADS = {w.name: w for w in (TrainEval(), ServeRead(), ServeMixed(), RecommendWide())}
