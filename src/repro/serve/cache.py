"""Content-addressed artifact cache for the service layer.

The cache follows the dbt materialization idiom: compiled products are
*first-class cached relations* with explicit drop/rename hooks, not
ad-hoc memo dicts.  Two artifact kinds are materialized:

* ``compiled`` — a deserialised network (the engines' per-network
  caches — flat IR, masked program, kernel arrays — accrete on the
  network object, so holding it *is* holding the compiled form).  It
  is keyed and tagged by the *structure hash*, the hash of the
  document's network section alone: documents that differ only in
  their marginals share it;
* ``result`` — the decision-tree products of one engine pass: bounds
  per target plus the run's instrumentation, keyed by the request and
  tagged with the hash of the whole document (network plus pool).

Every key derives from a content hash (see
:func:`repro.network.serialize.content_hash`) and every artifact is
*tagged* with the hash it derives from, so invalidation is exact:
editing a network drops precisely the artifacts tagged with its old
hashes (``cache_dropped``), while renaming it touches nothing — names
live in the server's catalog, artifacts are content-addressed
(``cache_renamed`` is a catalog-only operation).

Residency is bounded by an LRU byte cap: a result artifact is charged
the length of its JSON encoding (the wire's codec), a compiled one the
length of its canonical network bytes, and storing past the cap evicts
least-recently-used artifacts (of either kind) until the total fits.
``hits`` / ``misses`` / ``evictions`` / ``invalidations`` counters are
exact and surfaced through the server's ``/stats`` endpoint and
per-response ``extra``.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

DEFAULT_CACHE_BYTES = 64 << 20


@dataclass
class Artifact:
    """One materialized relation: a payload plus its accounting."""

    key: str
    kind: str  # "compiled" | "result"
    payload: object
    nbytes: int
    network_hash: str


def payload_nbytes(payload: object) -> int:
    """Byte charge for a payload: the length of its JSON encoding.

    Network objects are not JSON, so callers materializing ``compiled``
    artifacts pass an explicit size (the canonical network length).
    """
    return len(json.dumps(payload))


class ArtifactCache:
    """LRU byte-capped store of content-addressed artifacts."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Artifact]" = OrderedDict()
        self._by_network: Dict[str, Set[str]] = {}
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Optional[Artifact]:
        """The artifact under ``key`` (refreshing its recency), or None."""
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return artifact

    def contains(self, key: str) -> bool:
        """Presence probe that moves no counters and no LRU state."""
        with self._lock:
            return key in self._entries

    def store(
        self,
        key: str,
        kind: str,
        payload: object,
        network_hash: str,
        nbytes: Optional[int] = None,
    ) -> Artifact:
        """Materialize an artifact (replacing any previous entry)."""
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        artifact = Artifact(key, kind, payload, size, network_hash)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._untag(previous)
                self.total_bytes -= previous.nbytes
            self._entries[key] = artifact
            self._by_network.setdefault(network_hash, set()).add(key)
            self.total_bytes += size
            self._evict_over_cap()
        return artifact

    def _untag(self, artifact: Artifact) -> None:
        keys = self._by_network.get(artifact.network_hash)
        if keys is not None:
            keys.discard(artifact.key)
            if not keys:
                del self._by_network[artifact.network_hash]

    def _evict_over_cap(self) -> None:
        # Never evict the artifact just stored (it is most-recent); a
        # payload larger than the whole cap leaves exactly that one
        # entry resident until something displaces it.
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            _, artifact = self._entries.popitem(last=False)
            self._untag(artifact)
            self.total_bytes -= artifact.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------
    # Explicit invalidation (the dbt cache_dropped / cache_renamed hooks)
    # ------------------------------------------------------------------

    def drop_network(self, network_hash: str) -> int:
        """Drop every artifact derived from ``network_hash``.

        The ``cache_dropped`` hook: called when a catalog entry is
        deleted or *edited* (an edit rebinds the name to a new content
        hash, so the old hash's artifacts can never be reached again)
        with a document hash, a structure hash, or both.
        Returns the number of artifacts dropped; each counts as one
        invalidation.
        """
        with self._lock:
            keys = self._by_network.pop(network_hash, set())
            for key in keys:
                artifact = self._entries.pop(key, None)
                if artifact is not None:
                    self.total_bytes -= artifact.nbytes
                    self.invalidations += 1
            return len(keys)

    def rename_network(self, old_name: str, new_name: str) -> int:
        """The ``cache_renamed`` hook: content-addressed artifacts are
        name-independent, so a catalog rename invalidates nothing.
        Exists so the server's rename path states its cache contract
        explicitly (and so tests can assert the zero).  Returns 0.
        """
        return 0

    def network_keys(self, network_hash: str) -> Iterable[str]:
        with self._lock:
            return tuple(self._by_network.get(network_hash, ()))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            kinds: Dict[str, int] = {}
            for artifact in self._entries.values():
                kinds[artifact.kind] = kinds.get(artifact.kind, 0) + 1
            return {
                "entries": len(self._entries),
                "by_hash": {
                    content_hash: len(keys)
                    for content_hash, keys in sorted(self._by_network.items())
                },
                "compiled_entries": kinds.get("compiled", 0),
                "result_entries": kinds.get("result", 0),
                "bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
