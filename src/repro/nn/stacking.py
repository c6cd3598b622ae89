"""Stacked-parameter helpers: one ``Params`` dict, a leading task axis.

The stacked contract extends the functional :class:`~repro.nn.module.Module`
API: any parameter array may carry an extra leading axis ``[T, ...]`` holding
``T`` independent copies of the weight (one per task).  Layers broadcast
cleanly between stacked and unstacked weights, so a parameter dict may mix
both — e.g. MAML with the MeLU-style restriction keeps embedding weights
global (unstacked, shared by every task) while the decision layers are
stacked and adapted per task.

:func:`stack_params` turns a list of ordinary per-model parameter dicts
into one dict of ``[T, ...]`` arrays, and :func:`pad_axis` widens weights
whose sizes differ along one axis so they can be stacked.

:class:`ParamLayout` and :class:`FlatParams` are the flat form of the same
contract: a static ``(name, offset, shape)`` table packs a parameter dict
into the trailing axis of one buffer — ``(P,)`` for one model, ``(T, P)``
for ``T`` stacked copies — and the dict's arrays are views into it.  A
whole-model update is then one vector op over the buffer, tiling ``T``
copies is one broadcast copy, and one task's weights are one row.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.nn.module import Params


def stack_params(params_list: Sequence[Params]) -> Params:
    """Stack ``T`` aligned parameter dicts into one ``[T, ...]`` dict."""
    if not params_list:
        raise ValueError("stack_params needs at least one parameter dict")
    keys = set(params_list[0])
    for params in params_list[1:]:
        if set(params) != keys:
            raise ValueError("stack_params requires dicts with identical keys")
    return {name: np.stack([p[name] for p in params_list]) for name in params_list[0]}


def pad_axis(
    value: np.ndarray, axis: int, new_size: int, offset: int = 0
) -> np.ndarray:
    """Zero-pad ``value`` along ``axis`` to ``new_size``, placed at ``offset``.

    The glue for stacking same-architecture models whose widths differ along
    one axis (e.g. per-domain item counts): each model's weight is dropped
    into a zero block of the common width, so :func:`stack_params` can stack
    them and a batched op runs all models at once.  Zero padding is exact —
    padded rows/columns contribute nothing to forward passes and receive
    zero gradients when inputs/masks are zero-padded consistently.
    """
    size = value.shape[axis]
    if offset < 0 or offset + size > new_size:
        raise ValueError(
            f"cannot pad axis {axis} of size {size} to {new_size} at offset {offset}"
        )
    if size == new_size and offset == 0:
        return value.copy()
    shape = list(value.shape)
    shape[axis] = new_size
    out = np.zeros(shape, dtype=value.dtype)
    index = [slice(None)] * value.ndim
    index[axis] = slice(offset, offset + size)
    out[tuple(index)] = value
    return out


class ParamLayout:
    """A static ``(name, offset, shape)`` table for one flat parameter buffer.

    Entries are packed back to back along the trailing axis of a buffer:
    ``(P,)`` holds one model, ``(T, P)`` holds ``T`` stacked copies.
    :meth:`views` maps a buffer to its named arrays; each is a view of one
    C-contiguous block per copy, so a GEMM on it sees the operand layout of
    a standalone array, and a write through either side is seen by the
    other.  :meth:`sub` narrows the table to a contiguous run of names,
    re-based to offset 0, with :attr:`start` recording where the run begins
    in the parent — so a partial update (MeLU's decision layers) works on
    one slice of the parent's buffer.
    """

    def __init__(
        self, shapes: Iterable[tuple[str, Sequence[int]]], start: int = 0
    ):
        entries = []
        offset = 0
        for name, shape in shapes:
            shape = tuple(int(d) for d in shape)
            size = math.prod(shape)
            entries.append((name, offset, size, shape))
            offset += size
        self.entries = tuple(entries)
        self.index = {entry[0]: entry for entry in entries}
        self.names = tuple(self.index)
        self.size = offset
        self.start = start

    def views(self, flat: np.ndarray) -> Params:
        """Every entry's view of ``flat`` (leading axes kept)."""
        lead = flat.shape[:-1]
        return {
            name: flat[..., off : off + size].reshape(lead + shape)
            for name, off, size, shape in self.entries
        }

    def pack(self, params: Mapping[str, np.ndarray]) -> np.ndarray:
        """A fresh ``(P,)`` buffer holding ``params`` at this layout."""
        if set(params) != set(self.names):
            raise ValueError(
                f"parameters {sorted(params)} do not match the layout "
                f"{sorted(self.names)}"
            )
        values = [np.asarray(params[name]) for name in self.names]
        for value, (name, _, _, shape) in zip(values, self.entries):
            if value.shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {value.shape}, expected {shape}"
                )
        flat = np.empty(self.size, dtype=np.result_type(*values))
        for value, (_, off, size, _) in zip(values, self.entries):
            flat[off : off + size] = value.reshape(-1)
        return flat

    def sub(self, names: Iterable[str]) -> "ParamLayout":
        """The table of ``names``, which must be a contiguous run of entries."""
        chosen = set(names)
        entries = [entry for entry in self.entries if entry[0] in chosen]
        if len(entries) != len(chosen):
            raise ValueError(f"unknown names: {sorted(chosen - set(self.names))}")
        first = entries[0][1]
        last = entries[-1][1] + entries[-1][2]
        if last - first != sum(entry[2] for entry in entries):
            raise ValueError("a sub-layout must be a contiguous run of entries")
        return ParamLayout(
            ((name, shape) for name, _, _, shape in entries), start=self.start + first
        )


class FlatParams(dict):
    """A ``Params`` dict whose arrays are views into one flat buffer.

    Each name of ``layout`` maps to its view of ``flat``; entries of
    ``shared`` outside the layout ride along by reference (MeLU's frozen
    embeddings next to decision-only fast weights).  ``flat`` always holds
    every layout entry's current value:

    - an in-place update of a view (``params[name] -= step``, as the
      optimizers do) writes the buffer itself;
    - assigning an array to a name (``params[name] = value`` or
      :meth:`update`; other dict mutators bypass the buffer and are not
      supported) copies it into the name's slot and keeps the view;
    - :meth:`adopt` keeps read-only arrays (a memory-mapped artifact) as
      the entries, over a copy in ``flat``.  They cannot change under it,
      and :meth:`mark_written` swaps such an entry for its view once
      ``flat`` has been written, so nothing is written through.

    ``versions`` counts writes per layout name (assignments and
    :meth:`mark_written`), so a cache derived from some arrays can tell
    that they changed in place.  ``layer_cache`` holds per-layer views a
    model builds once per object; rebinding an entry clears it.
    """

    def __init__(
        self,
        layout: ParamLayout,
        flat: np.ndarray,
        shared: Mapping[str, np.ndarray] | None = None,
    ):
        super().__init__()
        if shared is not None:
            for name, value in shared.items():
                if name not in layout.index:
                    dict.__setitem__(self, name, value)
        dict.update(self, layout.views(flat))
        self.layout = layout
        self.flat = flat
        self.versions = dict.fromkeys(layout.names, 0)
        self.layer_cache: dict = {}
        self._foreign: set[str] = set()

    @classmethod
    def adopt(cls, layout: ParamLayout, arrays: Mapping[str, np.ndarray]) -> "FlatParams":
        """Pack ``arrays``, keeping the read-only ones as the entries."""
        params = cls(layout, layout.pack(arrays))
        for name in layout.names:
            value = np.asarray(arrays[name])
            if not value.flags.writeable:
                dict.__setitem__(params, name, value)
                params._foreign.add(name)
        return params

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self.layout.index:
            dict.__setitem__(self, name, value)
            self.layer_cache.clear()
            return
        current = dict.__getitem__(self, name)
        if value is not current:
            if np.shape(value) != current.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {current.shape}, "
                    f"got {np.shape(value)}"
                )
            if name in self._foreign:
                self._rebind(name)
                current = dict.__getitem__(self, name)
            current[...] = value
        self.versions[name] += 1

    def update(self, *args, **kwargs) -> None:
        """Assign every given entry through :meth:`__setitem__`."""
        for name, value in dict(*args, **kwargs).items():
            self[name] = value

    def mark_written(self, names: Iterable[str]) -> None:
        """Record that ``flat`` was written in place under ``names``."""
        for name in names:
            self.versions[name] += 1
            if name in self._foreign:
                self._rebind(name)

    def _rebind(self, name: str) -> None:
        dict.__setitem__(self, name, self.layout.views(self.flat)[name])
        self._foreign.discard(name)
        self.layer_cache.clear()
