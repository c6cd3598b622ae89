"""ShardedService reader thread: a pipe closed under ``recv`` is end of pipe.

``_revive`` and ``close`` close a shard's pipe from other threads.  If that
lands between ``Connection.recv``'s closed-check and its read, CPython reads
from file descriptor ``None`` and raises ``TypeError``.  The reader must
treat that as end of pipe — and only that: a ``TypeError`` on a pipe that is
still open is a bug and must propagate.
"""

from __future__ import annotations

import pytest

from repro.serve.sharded import ShardedService, _Shard


class _RacedConn:
    """A pipe end whose ``recv`` lost the race with a concurrent close."""

    def __init__(self, closed: bool):
        self.closed = closed

    def recv(self):
        raise TypeError("'NoneType' object cannot be interpreted as an integer")


def _service(closing: bool) -> tuple[ShardedService, list]:
    """A front-end with no workers whose revivals are recorded, not run."""
    service = ShardedService.__new__(ShardedService)
    service._closing = closing
    revived: list = []
    service._revive = lambda shard, generation: revived.append((shard, generation))
    return service, revived


def test_closed_pipe_ends_the_reader_and_requests_revival():
    service, revived = _service(closing=False)
    shard = _Shard(index=0)
    service._read_shard(shard, 3, _RacedConn(closed=True))
    assert revived == [(shard, 3)]


def test_closed_pipe_during_close_does_not_revive():
    service, revived = _service(closing=True)
    service._read_shard(_Shard(index=0), 0, _RacedConn(closed=True))
    assert revived == []


def test_type_error_on_an_open_pipe_propagates():
    service, revived = _service(closing=False)
    with pytest.raises(TypeError):
        service._read_shard(_Shard(index=0), 0, _RacedConn(closed=False))
    assert revived == []
