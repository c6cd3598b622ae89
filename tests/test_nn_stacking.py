"""Stacked-parameter helpers, the flat parameter layout, dense TaskBatch padding,
and artifact round-trips.

The dense padded ``TaskBatch`` is the reference layout in ``tests/oracles.py``
that the packed corpus batches are checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import load_params, save_params, stack_params
from repro.nn.stacking import FlatParams, ParamLayout

from nn_extras import tile_params, tree_map
from oracles import TaskBatch, TaskBatchItem, unstack_params

RNG = np.random.default_rng(0)


def _params(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"W": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}


class TestTreeMap:
    def test_applies_leafwise(self):
        doubled = tree_map(lambda v: 2 * v, _params(0))
        np.testing.assert_allclose(doubled["W"], 2 * _params(0)["W"])

    def test_zips_multiple_trees(self):
        a, b = _params(0), _params(1)
        summed = tree_map(np.add, a, b)
        np.testing.assert_allclose(summed["b"], a["b"] + b["b"])

    def test_rejects_mismatched_keys(self):
        with pytest.raises(ValueError, match="identical keys"):
            tree_map(np.add, {"W": np.ones(2)}, {"V": np.ones(2)})


class TestStackUnstack:
    def test_round_trip(self):
        originals = [_params(s) for s in range(4)]
        stacked = stack_params(originals)
        assert stacked["W"].shape == (4, 3, 2)
        for original, restored in zip(originals, unstack_params(stacked, 4)):
            for name in original:
                np.testing.assert_array_equal(original[name], restored[name])

    def test_unstack_shares_unstacked_keys(self):
        stacked = {"W": RNG.normal(size=(3, 3, 2)), "b": RNG.normal(size=(2,))}
        parts = unstack_params(stacked, 3, stacked_keys=["W"])
        assert all(part["b"] is stacked["b"] for part in parts)
        np.testing.assert_array_equal(parts[1]["W"], stacked["W"][1])

    def test_unstack_validates_leading_dim(self):
        with pytest.raises(ValueError, match="leading dim"):
            unstack_params({"W": np.zeros((2, 3))}, 4)

    def test_unstack_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="not present"):
            unstack_params({"W": np.zeros((2, 3))}, 2, stacked_keys=["V"])

    def test_stack_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            stack_params([])
        with pytest.raises(ValueError, match="identical keys"):
            stack_params([{"W": np.ones(2)}, {"V": np.ones(2)}])


class TestTileParams:
    def test_tiles_writable_copies(self):
        base = _params(0)
        tiled = tile_params(base, 5)
        assert tiled["W"].shape == (5, 3, 2)
        tiled["W"][0] += 1.0  # must not write through to the base weights
        np.testing.assert_array_equal(base["W"], _params(0)["W"])

    def test_keys_subset_stays_shared(self):
        base = _params(0)
        tiled = tile_params(base, 5, keys=["W"])
        assert tiled["b"] is base["b"]
        assert tiled["W"].shape == (5, 3, 2)


class TestParamLayout:
    def test_views_alias_one_buffer_per_copy(self):
        layout = ParamLayout([("W", (3, 2)), ("b", (2,))])
        assert layout.size == 8
        flat = np.arange(2 * layout.size, dtype=float).reshape(2, layout.size)
        views = layout.views(flat)
        assert views["W"].shape == (2, 3, 2) and views["b"].shape == (2, 2)
        views["b"][1] = -1.0  # a write through a view lands in the buffer
        np.testing.assert_array_equal(flat[1, 6:], [-1.0, -1.0])
        np.testing.assert_array_equal(views["W"][0], np.arange(6.0).reshape(3, 2))

    def test_pack_validates_names_and_shapes(self):
        layout = ParamLayout([("W", (3, 2)), ("b", (2,))])
        params = _params(0)
        np.testing.assert_array_equal(layout.views(layout.pack(params))["W"], params["W"])
        with pytest.raises(ValueError, match="do not match"):
            layout.pack({"W": params["W"]})
        with pytest.raises(ValueError, match="shape"):
            layout.pack({"W": params["W"].T, "b": params["b"]})

    def test_sub_is_a_contiguous_run(self):
        layout = ParamLayout([("a", (2,)), ("b", (3,)), ("c", (4,))])
        tail = layout.sub(["b", "c"])
        assert (tail.start, tail.size, tail.names) == (2, 7, ("b", "c"))
        with pytest.raises(ValueError, match="contiguous"):
            layout.sub(["a", "c"])
        with pytest.raises(ValueError, match="unknown"):
            layout.sub(["z"])


class TestFlatParams:
    def test_assignment_copies_into_the_buffer(self):
        layout = ParamLayout([("W", (3, 2)), ("b", (2,))])
        params = FlatParams(layout, layout.pack(_params(0)))
        view = params["W"]
        params["W"] = np.ones((3, 2))
        assert params["W"] is view and params.versions["W"] == 1
        params.update(b=np.zeros(2))
        np.testing.assert_array_equal(params.flat, [1.0] * 6 + [0.0] * 2)
        params["b"] -= 1.0  # the optimizers' in-place update
        assert params.versions["b"] == 2 and params.flat[-1] == -1.0

    def test_adopted_read_only_arrays_are_never_written(self):
        arrays = _params(0)
        for value in arrays.values():
            value.flags.writeable = False
        layout = ParamLayout([("W", (3, 2)), ("b", (2,))])
        params = FlatParams.adopt(layout, arrays)
        assert params["W"] is arrays["W"]
        params.flat[:6] += 1.0  # W's slot, written in place
        params.mark_written(["W"])
        np.testing.assert_array_equal(params["W"], _params(0)["W"] + 1.0)
        np.testing.assert_array_equal(arrays["W"], _params(0)["W"])
        assert params["b"] is arrays["b"] and params.versions == {"W": 1, "b": 0}


class TestStackedSerialization:
    def test_stacked_params_round_trip(self, tmp_path):
        """Stacked fast weights survive save/load bit-exactly."""
        stacked = stack_params([_params(s) for s in range(3)])
        stacked["shared"] = RNG.normal(size=(4,))
        path = tmp_path / "stacked.npz"
        save_params(path, stacked, config={"tasks": 3})
        loaded, header = load_params(path)
        assert header == {"tasks": 3}
        assert set(loaded) == set(stacked)
        for name in stacked:
            np.testing.assert_array_equal(loaded[name], stacked[name])
        for part in unstack_params(loaded, 3, stacked_keys=["W", "b"]):
            assert part["W"].shape == (3, 2)


def _item(seed: int, n_support: int, n_query: int, dim: int = 4) -> TaskBatchItem:
    rng = np.random.default_rng(seed)
    return TaskBatchItem(
        support_user=rng.random((n_support, dim)),
        support_item=rng.random((n_support, dim)),
        support_labels=(rng.random(n_support) < 0.5).astype(float),
        query_user=rng.random((n_query, dim)),
        query_item=rng.random((n_query, dim)),
        query_labels=(rng.random(n_query) < 0.5).astype(float),
    )


class TestTaskBatch:
    def test_pads_ragged_tasks_to_widest(self):
        batch = TaskBatch.from_items([_item(0, 3, 2), _item(1, 5, 4)])
        assert len(batch) == 2
        assert batch.support_user.shape == (2, 5, 4)
        assert batch.query_labels.shape == (2, 4)
        np.testing.assert_array_equal(batch.support_mask[0], [1, 1, 1, 0, 0])
        np.testing.assert_array_equal(batch.query_mask[1], [1, 1, 1, 1])

    def test_real_rows_preserved_padding_zero(self):
        items = [_item(0, 2, 1), _item(1, 4, 3)]
        batch = TaskBatch.from_items(items)
        np.testing.assert_array_equal(batch.support_user[0, :2], items[0].support_user)
        np.testing.assert_array_equal(batch.support_user[0, 2:], 0.0)
        np.testing.assert_array_equal(batch.support_labels[1], items[1].support_labels)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TaskBatch.from_items([])
