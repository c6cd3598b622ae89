"""Saving and loading parameter dictionaries.

Parameters are plain ``dict[str, ndarray]`` objects, so persistence is an
uncompressed ``.npz`` (the archive ``numpy.savez`` writes): the archive's
keys are the parameter names (dots are legal in npz keys).  A small JSON
header can carry model configuration alongside the weights.

Saves are crash-safe: the archive is assembled in memory and published with
:func:`repro.utils.persist.atomic_write_bytes`, so readers never observe a
truncated file.  Loads optionally memory-map: members are stored
uncompressed, which means every ``.npy`` payload lives at a fixed byte
offset inside the zip container and can be mapped with ``np.memmap``
directly — ``np.load(mmap_mode=...)`` silently ignores the flag for
``.npz`` archives, so :func:`load_params` parses the zip local headers
itself.  A memory-mapped load is O(open): worker processes serving the same
artifact share a single page-cache copy of the weights.  :func:`save_params`
pads each member's zip header so its payload starts at a multiple of 64
bytes, and the ``.npy`` header keeps the array data there, so every mapped
array is as aligned as a fresh allocation; archives written by
``np.savez`` still load, their arrays mapped at arbitrary offsets.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.nn.module import Params
from repro.utils.persist import atomic_write_bytes

_CONFIG_KEY = "__config_json__"

# Read-only modes only: artifacts are shared between worker processes, so a
# writable map ("r+") would let one worker corrupt everyone's weights.
_MMAP_MODES = ("r", "c")

_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"

#: Every saved member's payload starts at a multiple of this many bytes.
_ALIGN = 64
#: Zip extra-field id of the padding block that aligns a member (an id the
#: zip specification leaves unassigned; readers skip unknown fields).
_PAD_FIELD_ID = 0xA11C
#: The Zip64 extra field ``zipfile`` adds to a member opened with
#: ``force_zip64`` (id, size, two 8-byte sizes), as ``np.savez`` opens them.
_ZIP64_FIELD_SIZE = 20


def resolve_archive_path(path: str | Path) -> Path:
    """The on-disk name ``save_params`` uses (numpy's suffix convention)."""
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_name(target.name + ".npz")
    return target


def save_params(
    path: str | Path, params: Params, config: dict | None = None
) -> Path:
    """Write a parameter dict (and optional JSON-able config) to ``path``.

    The suffix ``.npz`` is appended when missing (matching ``np.savez``).
    The write is atomic — a crash mid-save leaves the previous artifact, or
    no file, never a truncated archive.  Returns the resolved path.
    """
    payload: dict[str, np.ndarray] = dict(params)
    if config is not None:
        payload[_CONFIG_KEY] = np.frombuffer(
            json.dumps(config, sort_keys=True).encode(), dtype=np.uint8
        )
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, mode="w", compression=zipfile.ZIP_STORED) as archive:
        for key, value in payload.items():
            member = zipfile.ZipInfo(key + ".npy")
            member.extra = _padding(
                buffer.tell(), len(member.filename.encode()) + _ZIP64_FIELD_SIZE
            )
            with archive.open(member, mode="w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.asanyarray(value), allow_pickle=False)
    target = resolve_archive_path(path)
    atomic_write_bytes(target, buffer.getvalue())
    return target


def _padding(header_offset: int, variable_size: int) -> bytes:
    """An extra field that ends a local header on an :data:`_ALIGN` boundary.

    ``variable_size`` is the header's other variable-length bytes (name and
    Zip64 field).  The ``.npy`` header that starts the payload is itself a
    multiple of 64 bytes long, so the array data is aligned too.
    """
    end = header_offset + _LOCAL_HEADER_SIZE + variable_size + 4
    fill = -end % _ALIGN
    return struct.pack("<HH", _PAD_FIELD_ID, fill) + bytes(fill)


def _member_data_offset(raw: io.BufferedReader, header_offset: int) -> int | None:
    """Byte offset of a zip member's payload, or None if the header is odd.

    The local file header is 30 fixed bytes followed by the variable-length
    name and extra fields; the stored payload starts immediately after.
    """
    raw.seek(header_offset)
    header = raw.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE or header[:4] != _LOCAL_HEADER_MAGIC:
        return None
    name_len, extra_len = struct.unpack("<HH", header[26:30])
    return header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len


def _memmap_member(
    raw: io.BufferedReader, path: Path, data_offset: int, mmap_mode: str
) -> np.ndarray | None:
    """Map one stored ``.npy`` member, or None when it cannot be mapped."""
    raw.seek(data_offset)
    try:
        version = np.lib.format.read_magic(raw)
    except ValueError:
        return None
    readers = {
        (1, 0): np.lib.format.read_array_header_1_0,
        (2, 0): np.lib.format.read_array_header_2_0,
    }
    read_header = readers.get(version)
    if read_header is None:
        return None
    shape, fortran_order, dtype = read_header(raw)
    if dtype.hasobject:
        return None
    return np.memmap(
        path,
        dtype=dtype,
        mode=mmap_mode,
        offset=raw.tell(),
        shape=shape,
        order="F" if fortran_order else "C",
    )


def mapped_arrays(path: str | Path, mmap_mode: str = "r") -> dict[str, np.ndarray]:
    """All arrays of an uncompressed ``.npz``, memory-mapped in place.

    Members that cannot be mapped (compressed or object-dtype) fall back to
    an eager read, so the result is always complete.
    """
    if mmap_mode not in _MMAP_MODES:
        raise ValueError(
            f"mmap_mode must be one of {_MMAP_MODES}, got {mmap_mode!r}"
        )
    target = Path(path)
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(target) as archive, open(target, "rb") as raw:
        for info in archive.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            array = None
            if info.compress_type == zipfile.ZIP_STORED:
                data_offset = _member_data_offset(raw, info.header_offset)
                if data_offset is not None:
                    array = _memmap_member(raw, target, data_offset, mmap_mode)
            if array is None:
                with archive.open(info) as member:
                    array = np.lib.format.read_array(member, allow_pickle=False)
            arrays[name] = array
    return arrays


def load_params(
    path: str | Path, mmap_mode: str | None = None
) -> tuple[Params, dict | None]:
    """Read back ``(params, config)`` written by :func:`save_params`.

    With ``mmap_mode`` (``"r"`` or ``"c"``) every array is an ``np.memmap``
    view into the archive — nothing is materialized until touched.
    """
    if mmap_mode is not None:
        arrays = mapped_arrays(path, mmap_mode)
    else:
        with np.load(Path(path)) as archive:
            arrays = {name: archive[name] for name in archive.files}
    config = None
    config_raw = arrays.pop(_CONFIG_KEY, None)
    if config_raw is not None:
        config = json.loads(config_raw.tobytes().decode())
    return arrays, config
