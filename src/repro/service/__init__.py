"""Serving layer: fitted-model artifacts answered as top-k requests.

The lifecycle this package completes::

    method = build_method({"name": "MetaDPA", "profile": "fast"})
    method.fit(experiment.ctx)
    method.save("metadpa.npz")                       # artifact
    ...
    service = RecommenderService.from_artifact("metadpa.npz")
    service.recommend(user_row=0, k=10)              # fast, cached, batched

See :class:`RecommenderService` for the cache/batching behaviour and the
CLI's ``train`` / ``serve`` / ``recommend`` subcommands for the same flow
from a shell.
"""

from repro.service.cache import LRUCache
from repro.service.service import RecommenderService, ServeRequest

__all__ = ["LRUCache", "RecommenderService", "ServeRequest"]
