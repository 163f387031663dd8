"""Stable request fingerprints: the service's cache / dedup key.

A counting request is fully determined by ``(dataset, query structure,
resolved execution parameters)`` — same fingerprint, bit-identical
:class:`~repro.engine.result.RunResult` payload (the engine draws every
coloring deterministically from the seed).  :func:`request_fingerprint`
hashes a canonical JSON rendering of exactly those inputs, so the
fingerprint is stable across processes, Python versions and dict
orderings — unlike ``hash()``, which is salted per interpreter.

The canonical forms are plain JSON-safe dicts (useful on their own for
logging/replay); the fingerprint is the SHA-256 of their sorted-key JSON
encoding.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from ..query.query import QueryGraph
from .config import CountRequest, EngineConfig

__all__ = ["canonical_query", "canonical_request", "request_fingerprint"]


def canonical_query(query: QueryGraph) -> Dict[str, object]:
    """JSON-safe canonical form of a query's *structure* (and labels).

    Node names are mapped to ``0..k-1`` in the query's deterministic
    node order (sorted by ``repr``), so two structurally identical
    queries built with different name spellings canonicalise the same
    way.  The name rides along: it is part of the cached
    :class:`~repro.engine.result.RunResult` payload (``query_name``), so
    requests that differ only in name must not share a cache entry.
    Vertex labels — which change the counts — are rendered in the same
    canonical node order (``None`` for unlabeled queries), so a labeled
    query can never collide with its unlabeled twin.
    """
    relabeled, _ = query.relabel_to_ints()
    edges = sorted(tuple(sorted(e)) for e in relabeled.edges())
    labels = (
        [relabeled.labels[i] for i in range(relabeled.k)]
        if relabeled.labels is not None
        else None
    )
    return {
        "name": query.name,
        "k": query.k,
        "edges": [list(e) for e in edges],
        "labels": labels,
    }


#: resolved request fields that determine the RunResult payload
_FINGERPRINT_FIELDS = (
    "method",
    "trials",
    "seed",
    "num_colors",
    "workers",
    "coloring_strategy",
)


def canonical_request(
    dataset: str,
    request: CountRequest,
    config: Optional[EngineConfig] = None,
) -> Dict[str, object]:
    """JSON-safe canonical form of one resolved counting request.

    ``request`` is resolved against ``config`` (default
    :class:`EngineConfig`) first, so a request that *inherits* ``seed=0``
    and one that *states* ``seed=0`` canonicalise identically.

    The trial policy canonicalises through
    :meth:`~repro.engine.config.CountRequest.effective_precision`:
    a non-adaptive policy collapses onto the legacy ``trials`` key (so a
    bare ``trials=N`` request and the equivalent
    ``PrecisionSpec(min_trials=N, max_trials=N)`` share a fingerprint,
    and every pre-precision cache key is unchanged), while an adaptive
    policy adds a ``precision`` sub-document — adaptive and fixed
    requests can therefore never collide in the cache even when their
    realised trial counts coincide.
    """
    cfg = config if config is not None else EngineConfig()
    resolved = request.resolved(cfg)
    doc: Dict[str, object] = {
        "dataset": dataset,
        # request-level labels are folded into the canonical query — the
        # engine executes exactly this effective query
        "query": canonical_query(resolved.effective_query()),
    }
    for field in _FINGERPRINT_FIELDS:
        doc[field] = getattr(resolved, field)
    spec = resolved.effective_precision()
    if spec.is_adaptive:
        # trials is pinned to the cap so the irrelevant bare knob can
        # never split (or alias) adaptive cache entries
        doc["trials"] = spec.max_trials
        doc["precision"] = spec.to_dict()
    else:
        doc["trials"] = spec.max_trials
    return doc


def request_fingerprint(
    dataset: str,
    request: CountRequest,
    config: Optional[EngineConfig] = None,
) -> str:
    """Hex SHA-256 fingerprint of one resolved counting request.

    Stable across processes and runs: equal fingerprints guarantee
    bit-identical result *payloads* — counts, provenance and the
    ``query_name`` label alike (same dataset contents assumed) — so the
    service's :class:`~repro.service.cache.ResultCache` and in-flight
    dedup key on it directly.
    """
    doc = canonical_request(dataset, request, config)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
