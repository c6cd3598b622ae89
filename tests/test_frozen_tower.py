"""Frozen-tower precompute: fast-path scoring must be bitwise-faithful.

The serving table (:mod:`repro.meta.serving`) replaces the item-tower GEMM
with a row gather whenever the per-user fast weights provably alias the
tower arrays the table was baked from.  Everything here pins the
*exactness* contract: fast == full forward bit for bit for decision-only
adaptation, unadapted users and mixed batches; full-adaptation states fall
back; ``meta_refresh`` invalidates the table only when it actually rewrote
the tower; format-2 artifacts round-trip (format-1 artifacts and earlier
format-2 artifacts with a user-tower table still load); a memory-mapped
load materializes no table copy; every batch entry point of the
service answers bitwise like sequential solo serving; and the blocked
scoring pass equals the unblocked full forward at every block edge, on one
lane or several, with a peak allocation far below one pool-sized content
gather.
"""

from __future__ import annotations

import json
import multiprocessing
import tracemalloc
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import predict
from repro.core.interface import ARTIFACT_FORMAT, Recommender
from repro.data.negative_sampling import EvalInstance
from repro.data.splits import Scenario
from repro.meta import model as model_module
from repro.meta.corpus import PackedContent
from repro.meta.maml import MAML, MAMLConfig
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.meta.serving import build_frozen_tower_tables, score_candidates
from repro.registry import build_method
from repro.service import RecommenderService, ServeRequest
from repro.utils import blas
from repro.utils.topk import top_k_order


@pytest.fixture(scope="module")
def fitted_melu(bench_experiment):
    """Decision-only adaptation: tower weights stay aliased in fast states."""
    method = build_method({"name": "MeLU", "meta_epochs": 1}, seed=0)
    return method.fit(bench_experiment.ctx)


@pytest.fixture(scope="module")
def fitted_full_adapt(bench_experiment):
    """Full-adaptation MetaDPA: fast states rewrite the towers."""
    method = build_method(
        {"name": "MetaDPA", "use_augmentation": False, "meta_epochs": 1},
        seed=0,
    )
    return method.fit(bench_experiment.ctx)


@pytest.fixture(scope="module")
def cold_tasks(bench_experiment):
    return list(bench_experiment.task_sets[Scenario.C_U])


def full_solo(method, state, instance):
    """The table-free oracle: the full forward of one request.

    It feeds the same ``(1, C)`` user row the scoring kernel embeds, so the
    user side is one GEMV in both and only the item side differs: the
    item-tower GEMM here against the table gather there.
    """
    content = method._packed_content()
    params = state if state is not None else method.maml.params
    return predict(
        method.maml.model,
        params,
        content.user[instance.user_row][None, :],
        content.item[instance.candidates],
    )


def make_instance(rng, n_users, n_items, n_candidates):
    user = int(rng.integers(0, n_users))
    cands = rng.choice(n_items, size=n_candidates, replace=False)
    return EvalInstance(
        user_row=user, pos_item=int(cands[0]), neg_items=np.asarray(cands[1:])
    )


class TestFastPathBitwise:
    def test_unadapted_solo_matches_full(self, fitted_melu):
        method = fitted_melu
        rng = np.random.default_rng(0)
        serving = method.serving
        for n_cands in (2, 3, 17, serving.n_items):
            inst = make_instance(rng, serving.n_users, serving.n_items, n_cands)
            fast = method.score_with_state(None, inst)
            full = full_solo(method, None, inst)
            assert np.array_equal(fast, full)

    def test_adapted_solo_matches_full(self, fitted_melu, cold_tasks):
        method = fitted_melu
        rng = np.random.default_rng(1)
        serving = method.serving
        states = method.adapt_users(cold_tasks[:3])
        for state in states:
            inst = make_instance(rng, serving.n_users, serving.n_items, 50)
            fast = method.score_with_state(state, inst)
            full = full_solo(method, state, inst)
            assert np.array_equal(fast, full)

    def test_single_candidate_uses_full_forward(self, fitted_melu):
        method = fitted_melu
        inst = EvalInstance(user_row=0, pos_item=3, neg_items=np.array([], dtype=int))
        fast = method.score_with_state(None, inst)
        full = full_solo(method, None, inst)
        assert np.array_equal(fast, full)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mixed_batches_match_full_bitwise(
        self, fitted_melu, cold_tasks, data
    ):
        """Batched fast scoring == the table-free solo forward, bit for bit.

        Batches mix unadapted users (shared meta-params group), several
        distinct adapted users, duplicated states, and candidate lists of
        varying sizes (including single-candidate instances).
        """
        method = fitted_melu
        serving = method.serving
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        adapted = method.adapt_users(cold_tasks[:4])
        n = data.draw(st.integers(min_value=1, max_value=10))
        states = []
        instances = []
        for _ in range(n):
            choice = rng.integers(0, len(adapted) + 1)
            states.append(None if choice == len(adapted) else adapted[choice])
            n_cands = int(rng.integers(1, 40))
            instances.append(
                make_instance(rng, serving.n_users, serving.n_items, n_cands)
            )
        fast = method.score_with_state_batch(states, instances)
        for f, state, inst in zip(fast, states, instances):
            assert np.array_equal(f, full_solo(method, state, inst))


class TestFallbackAndInvalidation:
    def test_full_adaptation_states_fall_back(self, fitted_full_adapt, cold_tasks):
        method = fitted_full_adapt
        rng = np.random.default_rng(2)
        serving = method.serving
        states = method.adapt_users(cold_tasks[:2])
        tables = method._scoring_tables()
        for state in states:
            assert state is not None
            # Full adaptation rewrote the towers: not fast-path eligible.
            assert not tables.item_current(state)
            inst = make_instance(rng, serving.n_users, serving.n_items, 30)
            fast = method.score_with_state(state, inst)
            full = full_solo(method, state, inst)
            assert np.array_equal(fast, full)
        batch_insts = [
            make_instance(rng, serving.n_users, serving.n_items, 25)
            for _ in range(len(states) + 1)
        ]
        batch_states = [*states, None]
        fast = method.score_with_state_batch(batch_states, batch_insts)
        for f, state, inst in zip(fast, batch_states, batch_insts):
            assert np.array_equal(f, full_solo(method, state, inst))

    def test_meta_refresh_invalidates_when_towers_move(
        self, fitted_full_adapt, cold_tasks
    ):
        method = fitted_full_adapt
        before = method._scoring_tables()
        method.meta_refresh(cold_tasks[:2], meta_lr=0.05)
        # Full adaptation: refresh rewrote the tower arrays, tables dropped.
        assert method._tables is None
        after = method._scoring_tables()
        assert after is not before
        assert after.item_current(method.maml.params)
        rng = np.random.default_rng(3)
        serving = method.serving
        inst = make_instance(rng, serving.n_users, serving.n_items, 40)
        fast = method.score_with_state(None, inst)
        full = full_solo(method, None, inst)
        assert np.array_equal(fast, full)

    def test_meta_refresh_keeps_tables_when_towers_frozen(
        self, fitted_melu, cold_tasks
    ):
        method = fitted_melu
        before = method._scoring_tables()
        method.meta_refresh(cold_tasks[:2], meta_lr=0.05)
        # Decision-only refresh moves only mlp.* keys: the bake is intact.
        assert method._scoring_tables() is before

    def test_stale_tables_never_served(self, fitted_melu):
        """A table baked from older meta-params must be ignored."""
        method = fitted_melu
        content = method._packed_content()
        stale = build_frozen_tower_tables(method.maml, content)
        # Simulate a tower rewrite after the bake.
        key = next(k for k in method.maml.params if k.startswith("item_embed."))
        old = method.maml.params[key]
        method.maml.params[key] = old.copy()
        try:
            rng = np.random.default_rng(4)
            serving = method.serving
            inst = make_instance(rng, serving.n_users, serving.n_items, 10)
            got = score_candidates(
                method.maml, content, method.maml.params, inst, stale
            )
            assert np.array_equal(got, full_solo(method, None, inst))
        finally:
            method.maml.params[key] = old
            method._tables = None


class TestInPlaceTowerWrites:
    def test_in_place_tower_write_stops_the_table(self, fitted_melu):
        """An optimizer-style in-place write keeps the array's identity;
        the write count still takes the table out of service."""
        method = fitted_melu
        params = method.maml.params
        tables = method._scoring_tables()
        key = next(k for k in params if k.startswith("item_embed."))
        saved = params[key].copy()
        try:
            params[key] += 0.01  # same array object, new values
            assert not tables.item_current(params)
            rng = np.random.default_rng(5)
            serving = method.serving
            inst = make_instance(rng, serving.n_users, serving.n_items, 12)
            got = score_candidates(
                method.maml, method._packed_content(), params, inst, tables
            )
            assert np.array_equal(got, full_solo(method, None, inst))
        finally:
            params[key] = saved
            method._tables = None


class TestArtifactTables:
    def test_format_2_artifact_bakes_tables(self, fitted_melu, tmp_path):
        path = fitted_melu.save(tmp_path / "melu.npz")
        with zipfile.ZipFile(path) as zf:
            names = set(zf.namelist())
            header = json.loads(
                np.load(zf.open("__config_json__.npy")).tobytes().decode()
            )
        assert ARTIFACT_FORMAT == 2
        assert header["format"] == 2
        assert "serving.table.item_embeddings.npy" in names
        assert "serving.table.user_embeddings.npy" not in names

    def test_mmap_load_shares_tables_without_copy(self, fitted_melu, tmp_path):
        path = fitted_melu.save(tmp_path / "melu.npz")
        loaded = Recommender.load(path, mmap_mode="r")
        # Worker startup must not materialize the bake: the attached
        # table is a memmap view straight into the artifact.
        assert isinstance(loaded._tables.item, np.memmap)
        first = fitted_melu.recommend(0, k=10)
        second = loaded.recommend(0, k=10)
        assert np.array_equal(first.items, second.items)
        assert np.array_equal(first.scores, second.scores)

    def test_format_1_artifact_still_loads(self, fitted_melu, tmp_path):
        """Stripping the table members reproduces a pre-format-2 artifact."""
        from repro.nn.serialization import load_params, save_params

        path = fitted_melu.save(tmp_path / "melu.npz")
        arrays, header = load_params(path)
        stripped = {
            name: np.asarray(value)
            for name, value in arrays.items()
            if not name.startswith("serving.table.")
        }
        header["format"] = 1
        old_path = save_params(tmp_path / "melu_v1.npz", stripped, config=header)
        loaded = Recommender.load(old_path, mmap_mode="r")
        assert loaded._tables is None  # nothing baked at load time
        first = fitted_melu.recommend(1, k=10)
        second = loaded.recommend(1, k=10)
        assert np.array_equal(first.items, second.items)
        assert np.array_equal(first.scores, second.scores)
        assert loaded._tables is not None  # computed once, on first use

    def test_legacy_user_table_member_is_ignored(self, fitted_melu, tmp_path):
        """Earlier format-2 artifacts also baked a user-tower table.

        Loading ignores that member: the item table still attaches as a
        memmap, and serving is bitwise identical to the in-memory model.
        The legacy member holds noise, so any use of it would show.
        """
        from repro.nn.serialization import load_params, save_params

        path = fitted_melu.save(tmp_path / "melu.npz")
        arrays, header = load_params(path)
        legacy = {name: np.asarray(value) for name, value in arrays.items()}
        serving = fitted_melu.serving
        embed_dim = fitted_melu.maml.model.config.embed_dim
        legacy["serving.table.user_embeddings"] = np.random.default_rng(0).random(
            (serving.n_users, embed_dim), dtype=np.float32
        )
        old_path = save_params(tmp_path / "melu_legacy.npz", legacy, config=header)
        loaded = Recommender.load(old_path, mmap_mode="r")
        assert isinstance(loaded._tables.item, np.memmap)
        users = [0, 1, 2, serving.n_users - 1]
        want = RecommenderService(fitted_melu).recommend_many(users, k=10)
        got = RecommenderService(loaded).recommend_many(users, k=10)
        for user, w, g in zip(users, want, got):
            assert np.array_equal(w.items, g.items)
            assert np.array_equal(w.scores, g.scores)
            solo = loaded.recommend(user, k=10)
            assert np.array_equal(solo.items, g.items)
            assert np.array_equal(solo.scores, g.scores)


    def test_mapped_members_are_64_byte_aligned(self, fitted_full_adapt, tmp_path):
        from repro.nn.serialization import mapped_arrays

        path = fitted_full_adapt.save(tmp_path / "metadpa.npz")
        arrays = mapped_arrays(path)
        assert all(isinstance(array, np.memmap) for array in arrays.values())
        offsets = {name: array.ctypes.data % 64 for name, array in arrays.items()}
        assert offsets == dict.fromkeys(arrays, 0)

    def test_savez_artifact_serves_the_same_answers(
        self, fitted_full_adapt, cold_tasks, tmp_path
    ):
        """An artifact written by ``np.savez`` maps its members unaligned;
        it still loads, and serves bitwise what the aligned one does."""
        from repro.nn.serialization import mapped_arrays

        path = fitted_full_adapt.save(tmp_path / "metadpa.npz")
        old_path = tmp_path / "metadpa_savez.npz"
        np.savez(old_path, **{k: np.asarray(v) for k, v in mapped_arrays(path).items()})
        assert any(a.ctypes.data % 64 for a in mapped_arrays(old_path).values())
        tasks = cold_tasks[:2]
        users = [task.user_row for task in tasks] + [0, 1, 2]
        answers = []
        for artifact in (path, old_path):
            service = RecommenderService.from_artifact(artifact)
            for task in tasks:
                service.register_user_history(task)
            answers.append(service.recommend_many(users, k=10))
        for want, got in zip(*answers):
            assert np.array_equal(want.items, got.items)
            assert np.array_equal(want.scores, got.scores)


class TestServiceIntegration:
    def test_candidates_histogram_recorded(self, fitted_melu):
        service = RecommenderService(fitted_melu, cache_size=4)
        service.recommend(0, k=5)
        service.recommend_many([1, 2, 3], k=5)
        snap = service.metrics.snapshot()
        hist = snap["histograms"].get("serve.score.candidates")
        assert hist is not None
        assert hist["count"] == 4

    def test_service_results_unchanged_by_tables(self, fitted_melu, cold_tasks):
        """End-to-end: served rankings equal the table-free scoring path."""
        service = RecommenderService(fitted_melu, cache_size=8)
        task = cold_tasks[0]
        service.register_user_history(task)
        rec = service.recommend(task.user_row, k=10)
        pool = service._candidates_for(task.user_row, True)
        state = fitted_melu.adapt_users([task])[0]
        inst = EvalInstance(
            user_row=task.user_row,
            pos_item=int(pool[0]),
            neg_items=pool[1:],
        )
        scores = np.asarray(full_solo(fitted_melu, state, inst), float)
        order = np.argsort(-scores, kind="stable")[:10]
        assert np.array_equal(rec.items, pool[order])
        assert np.array_equal(rec.scores, scores[order])


@pytest.fixture(scope="module", params=["fitted_melu", "fitted_full_adapt"])
def fitted_method(request):
    """Both adaptation regimes: decision-only (table gather) and full."""
    return request.getfixturevalue(request.param)


class TestBatchedEqualsSolo:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_batch_entry_points_equal_sequential_serving(
        self, fitted_method, cold_tasks, data
    ):
        """Every entry point of the request core answers bitwise like solo
        scoring.

        Sequential ``recommend``, ``recommend_many``, concurrent
        ``recommend`` calls coalesced by the micro-batcher, ``recommend_batch``
        over ``ServeRequest``s and ``score_instances`` all run the service's
        one core, so the reference is built from the method alone:
        ``adapt_user`` + ``score_with_state`` + ``top_k_order`` over the
        service's sorted pool.  Batches mix un-adapted users, distinct
        adapted users and repeated users; the ``recommend_batch`` flush also
        repeats a user and re-sends one user's history as an equal-value
        ``task=``; pools run from a single candidate upwards.
        """
        method = fitted_method
        serving = method.serving
        registered = cold_tasks[:4]
        tasks = {int(t.user_row): t for t in registered}
        unregistered = [u for u in range(serving.n_users) if u not in tasks][:4]
        users = data.draw(
            st.lists(st.sampled_from(sorted(tasks) + unregistered), min_size=1, max_size=8)
        )
        n_pool = data.draw(st.integers(min_value=1, max_value=30))
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        pool = np.random.default_rng(seed).choice(serving.n_items, n_pool, replace=False)
        k = n_pool  # rank the whole pool: every score is compared
        ranked = np.unique(pool)

        def reference(user):
            state = method.adapt_user(tasks.get(user))
            inst = EvalInstance(user_row=user, pos_item=int(ranked[0]), neg_items=ranked[1:])
            scores = np.asarray(method.score_with_state(state, inst), dtype=float)
            order = top_k_order(scores, k)
            return ranked[order], scores[order]

        def service(**kwargs):
            svc = RecommenderService(method, candidate_pool=pool, cache_size=32, **kwargs)
            for task in registered:
                svc.register_user_history(task)
            return svc

        sequential = service()
        solo = [sequential.recommend(u, k=k, exclude_seen=False) for u in users]
        many = service().recommend_many(users, k=k, exclude_seen=False)
        with service(batching=True) as batching:
            with ThreadPoolExecutor(max_workers=len(users)) as executor:
                coalesced = list(
                    executor.map(
                        lambda u: batching.recommend(u, k=k, exclude_seen=False), users
                    )
                )
        for user, *answers in zip(users, solo, many, coalesced):
            items, scores = reference(user)
            for got in answers:
                assert np.array_equal(got.items, items)
                assert np.array_equal(got.scores, scores)

        resent = registered[data.draw(st.integers(0, len(registered) - 1))]
        requests = [ServeRequest(u, k=k, exclude_seen=False) for u in users]
        requests.append(ServeRequest(users[0], k=k, exclude_seen=False))
        requests.append(
            ServeRequest(
                int(resent.user_row), k=k, task=replace(resent), exclude_seen=False
            )
        )
        batched = service().recommend_batch(requests)
        for request, got in zip(requests, batched, strict=True):
            items, scores = reference(request.user_row)
            assert np.array_equal(got.items, items)
            assert np.array_equal(got.scores, scores)

        instances = [
            EvalInstance(user_row=u, pos_item=int(pool[0]), neg_items=pool[1:])
            for u in users
        ]
        scored = service().score_instances(instances)
        for user, inst, got in zip(users, instances, scored):
            state = method.adapt_user(tasks.get(user))
            assert np.array_equal(got, method.score_with_state(state, inst))


def _synthetic(n_items, content_dim=24, seed=0):
    """A decision-only MAML over a random catalogue, and its item table."""
    model = PreferenceModel(PreferenceModelConfig(content_dim=content_dim))
    maml = MAML(model, MAMLConfig(local_only_decision=True), seed=seed)
    rng = np.random.default_rng(seed)
    content = PackedContent(
        user=rng.random((16, content_dim), dtype=np.float32),
        item=rng.random((n_items, content_dim), dtype=np.float32),
    )
    return maml, content, build_frozen_tower_tables(maml, content)


def _check_pass(maml, content, tables, instance):
    """Both paths of ``score_candidates`` == the unblocked full forward."""
    params = maml.params
    expected = predict(
        maml.model,
        params,
        content.user[instance.user_row][None, :],
        content.item[instance.candidates],
    )
    assert np.array_equal(score_candidates(maml, content, params, instance), expected)
    assert np.array_equal(
        score_candidates(maml, content, params, instance, tables), expected
    )


def _check_block_edges(fitted_melu, fitted_full_adapt, cold_tasks, monkeypatch, regime):
    """Pools of 1 to 2 blocks + 1 rows, at a block of 8, equal the full forward."""
    block = 8
    monkeypatch.setattr(model_module, "SCORE_BLOCK", block)
    if regime == "table":
        # Un-adapted decision-only serving gathers from the item table.
        method, state = fitted_melu, None
        assert method._scoring_tables().item_current(method.maml.params)
    else:
        # Full adaptation rewrote the towers: the item tower runs live.
        method = fitted_full_adapt
        state = method.adapt_users(cold_tasks[:1])[0]
        assert not method._scoring_tables().item_current(state)
    serving = method.serving
    rng = np.random.default_rng(11)
    for n in (1, 2, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1):
        inst = make_instance(rng, serving.n_users, serving.n_items, n)
        got = method.score_with_state(state, inst)
        assert got.shape == (n,)
        assert np.array_equal(got, full_solo(method, state, inst))


@pytest.fixture(scope="module")
def small_catalogue():
    return _synthetic(150, seed=1)


class TestBlockedPass:
    """``PreferenceModel.score_pool`` walks the pool in blocks of
    ``SCORE_BLOCK`` rows; every block edge is pinned bitwise to the
    unblocked full forward."""

    @pytest.mark.parametrize("regime", ["table", "live"])
    def test_block_edges(self, fitted_melu, fitted_full_adapt, cold_tasks, monkeypatch, regime):
        _check_block_edges(fitted_melu, fitted_full_adapt, cold_tasks, monkeypatch, regime)

    @pytest.mark.parametrize("regime", ["table", "live"])
    def test_block_edges_at_two_lanes(
        self, fitted_melu, fitted_full_adapt, cold_tasks, monkeypatch, regime
    ):
        monkeypatch.setattr(blas, "score_lanes", lambda: 2)
        _check_block_edges(fitted_melu, fitted_full_adapt, cold_tasks, monkeypatch, regime)

    def test_real_block_size_on_a_wide_catalogue(self):
        block = model_module.SCORE_BLOCK
        assert block % 4 == 0  # see the property test below
        maml, content, tables = _synthetic(5000)
        rng = np.random.default_rng(12)
        for n in (2, block - 1, block, block + 1, block + 2, 2 * block + 1, 5000):
            _check_pass(maml, content, tables, make_instance(rng, 16, 5000, n))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=150),
        quads=st.integers(min_value=1, max_value=12),
        lanes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_any_pool_and_block_size_matches_the_full_forward(
        self, small_catalogue, n, quads, lanes, seed
    ):
        """Random pools against random block sizes and lane counts.

        Block sizes are multiples of 4, like ``SCORE_BLOCK``: the head's
        one-column last layer runs as a GEMV, whose rows this BLAS computes
        four at a time, and the leftover rows another way, so a block
        starting off a multiple of 4 could change the last bits.  Lanes
        take whole blocks, so they cannot move a block edge.
        """
        maml, content, tables = small_catalogue
        rng = np.random.default_rng(seed)
        with (
            mock.patch.object(model_module, "SCORE_BLOCK", 4 * quads),
            mock.patch.object(blas, "score_lanes", lambda: lanes),
        ):
            _check_pass(maml, content, tables, make_instance(rng, 16, 150, n))

    def test_peak_allocation_stays_below_one_content_gather(self):
        """A 16k-candidate live-tower call allocates a few blocks, not the pool.

        Gathering the pool's content in one piece takes 16000 x 300 floats
        (19.2 MB); the blocked pass keeps well under a third of that.
        """
        _check_peak_allocation()

    def test_peak_allocation_at_two_lanes(self, monkeypatch):
        """Two lanes hold two lanes' scratch, still under the same bound."""
        monkeypatch.setattr(blas, "score_lanes", lambda: 2)
        _check_peak_allocation()

    def test_one_block_never_reads_lanes_or_starts_helpers(self, small_catalogue):
        """A pool of one block (one-row tail included) is the caller's alone."""
        maml, content, tables = small_catalogue

        def untouchable():
            raise AssertionError("a one-block pool reached the lane machinery")

        rng = np.random.default_rng(14)
        with (
            mock.patch.object(model_module, "SCORE_BLOCK", 8),
            mock.patch.object(blas, "score_lanes", untouchable),
            mock.patch.object(blas, "_helper_pool", untouchable),
        ):
            for n in (1, 2, 8, 9):
                _check_pass(maml, content, tables, make_instance(rng, 16, 150, n))

    def test_forked_child_scores_a_wide_pool(self, small_catalogue, monkeypatch):
        """A child forked after the parent used its helper threads scores too.

        The child inherits the pool object but none of its threads; without
        the reset at fork, its first multi-block pass would wait forever on
        work no thread takes.
        """
        maml, content, tables = small_catalogue
        monkeypatch.setattr(model_module, "SCORE_BLOCK", 8)
        monkeypatch.setattr(blas, "score_lanes", lambda: 2)
        inst = make_instance(np.random.default_rng(15), 16, 150, 150)
        want = score_candidates(maml, content, maml.params, inst)
        assert blas._helpers is not None  # the parent's pool is live
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            send.send(score_candidates(maml, content, maml.params, inst))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert recv.poll(60), "the forked child hung on a multi-block pool"
            got = recv.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join(10)
        assert proc.exitcode == 0
        assert np.array_equal(got, want)

    def test_concurrent_callers_share_the_helper_pool(self, small_catalogue, monkeypatch):
        """Callers on several threads, each splitting its pools across lanes
        from the one helper pool, each get the full forward's bits."""
        maml, content, tables = small_catalogue
        monkeypatch.setattr(model_module, "SCORE_BLOCK", 8)
        monkeypatch.setattr(blas, "score_lanes", lambda: 3)
        rng = np.random.default_rng(16)
        instances = [make_instance(rng, 16, 150, n) for n in (20, 77, 150)]
        expected = [
            predict(
                maml.model,
                maml.params,
                content.user[inst.user_row][None, :],
                content.item[inst.candidates],
            )
            for inst in instances
        ]
        mismatches = []

        def caller():
            for _ in range(10):
                for inst, want in zip(instances, expected):
                    for table in (None, tables):
                        got = score_candidates(maml, content, maml.params, inst, table)
                        if not np.array_equal(got, want):
                            mismatches.append(inst.candidates.size)

        with ThreadPoolExecutor(max_workers=3) as pool:
            for future in [pool.submit(caller) for _ in range(3)]:
                future.result(timeout=120)
        assert mismatches == []


def _check_peak_allocation():
    n_items, content_dim = 16_000, 300
    maml, content, _ = _synthetic(n_items, content_dim=content_dim)
    rng = np.random.default_rng(13)
    inst = make_instance(rng, 16, n_items, n_items)
    score_candidates(maml, content, maml.params, inst)  # warm the weight views
    gather_bytes = n_items * content_dim * 4
    tracemalloc.start()
    try:
        scores = score_candidates(maml, content, maml.params, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (n_items,)
    assert peak < gather_bytes / 3

