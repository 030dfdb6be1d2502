"""The service layer: a long-running batched query front-end.

``repro serve`` turns the platform into a network service: an asyncio
HTTP/JSON server (:mod:`repro.serve.server`) with admission control
and request batching (:mod:`repro.serve.batching`) over a
content-addressed compiled-artifact cache (:mod:`repro.serve.cache`).
All probability computation dispatches through
:mod:`repro.engine.registry`, so every registered scheme is servable.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".batching": ("BatchingExecutor", "QueryJob"),
        ".cache": ("Artifact", "ArtifactCache", "DEFAULT_CACHE_BYTES"),
        ".client": ("ServeClient", "ServeClientError"),
        ".server": ("ReproServer", "ServeError", "ServerThread"),
    },
)
