"""Immutable configuration objects for the counting engine.

Two frozen dataclasses replace the long positional signatures of the
legacy free functions:

* :class:`EngineConfig` — per-engine defaults, fixed when the engine is
  constructed (method, trials, seed, palette, workers, partitioning);
* :class:`CountRequest` — one query execution; every field except the
  query itself is optional and inherits from the engine's config when
  left as ``None``.

Both are hashable value objects: requests can be deduplicated, logged,
or replayed, and a resolved request fully determines the estimate for a
given graph (same seeds → bit-identical results).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, Mapping, Optional, Tuple, Union

from ..query.library import whole_number
from ..query.query import QueryGraph

__all__ = ["EngineConfig", "CountRequest", "PrecisionSpec", "PrecisionLike"]

#: engine-wide default trial count (shared by EngineConfig and the
#: bare-request fallback in :meth:`CountRequest.effective_precision`)
DEFAULT_TRIALS = 10

#: default cap on adaptive trial counts: a precision-first request that
#: never converges still terminates (and the fingerprint stays finite)
DEFAULT_MAX_TRIALS = 200

#: default floor on adaptive trial counts: the t-interval needs a real
#: variance estimate before the stopping rule is allowed to fire
DEFAULT_MIN_TRIALS = 3


@dataclass(frozen=True)
class PrecisionSpec:
    """The single spelling of trial policy across the whole stack.

    ``rel_error=None`` (the default) is *fixed* mode: exactly
    ``max_trials`` trials run — ``PrecisionSpec.fixed(n)`` is what a bare
    ``trials=n`` desugars to, and such requests stay bit-identical (and
    cache-key-identical) to the historical fixed-trial behaviour.  With
    ``rel_error`` set, the engine keeps drawing colorings until the
    empirical confidence interval on the estimate is within
    ``rel_error`` (relative half-width) at ``confidence``, never running
    fewer than ``min_trials`` nor more than ``max_trials``.
    """

    #: target relative CI half-width; ``None`` disables adaptivity
    rel_error: Optional[float] = None
    confidence: float = 0.95
    min_trials: int = DEFAULT_MIN_TRIALS
    max_trials: int = DEFAULT_MAX_TRIALS

    def __post_init__(self) -> None:
        if self.min_trials < 1 or self.max_trials < 1:
            raise ValueError("need at least one trial")
        if self.max_trials < self.min_trials:
            raise ValueError(
                f"max_trials ({self.max_trials}) must be >= "
                f"min_trials ({self.min_trials})"
            )
        if self.rel_error is not None and not self.rel_error > 0.0:
            raise ValueError("rel_error must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")

    @classmethod
    def fixed(cls, trials: int) -> "PrecisionSpec":
        """The spec a bare ``trials=N`` desugars to (run exactly N)."""
        return cls(rel_error=None, min_trials=int(trials), max_trials=int(trials))

    @classmethod
    def coerce(cls, value: "PrecisionLike") -> "PrecisionSpec":
        """Normalise any accepted spelling to a :class:`PrecisionSpec`.

        Accepts a spec (returned as-is), an int (fixed trials), or a
        mapping with any subset of ``rel_error`` / ``confidence`` /
        ``min_trials`` / ``max_trials`` (the service JSON spelling).
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ValueError("precision must be a PrecisionSpec, int, or mapping")
        if isinstance(value, int):
            return cls.fixed(value)
        if isinstance(value, Mapping):
            unknown = set(value) - {
                "rel_error", "confidence", "min_trials", "max_trials",
            }
            if unknown:
                raise ValueError(
                    f"unknown precision field(s): {sorted(unknown)}"
                )
            rel = value.get("rel_error")
            kwargs: Dict[str, object] = {
                "rel_error": float(rel) if rel is not None else None,
            }
            if "confidence" in value:
                kwargs["confidence"] = float(value["confidence"])  # type: ignore[arg-type]
            for name in ("min_trials", "max_trials"):
                if name in value:
                    kwargs[name] = whole_number(value[name], name)
            if rel is None and "min_trials" in value and "max_trials" not in value:
                # fixed-mode mapping with only min_trials: run exactly that
                kwargs["max_trials"] = kwargs["min_trials"]
            return cls(**kwargs)  # type: ignore[arg-type]
        raise ValueError(
            "precision must be a PrecisionSpec, int, or mapping, got "
            f"{type(value).__name__}"
        )

    @property
    def is_adaptive(self) -> bool:
        """Whether the stopping rule can change the trial count at all."""
        return self.rel_error is not None and self.max_trials > self.min_trials

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (the service wire / fingerprint spelling)."""
        return {
            "rel_error": self.rel_error,
            "confidence": self.confidence,
            "min_trials": self.min_trials,
            "max_trials": self.max_trials,
        }


#: every spelling :meth:`PrecisionSpec.coerce` accepts
PrecisionLike = Union["PrecisionSpec", int, Mapping[str, object]]


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide defaults applied to every request that omits a field.

    ``method="auto"`` lets the registry pick per request: the vectorized
    ``ps-vec`` sweep (bit-identical to PS and DB, exact past int64)
    unless a ``ctx`` needs DB's simulated-rank load or ``workers > 1``
    meets a huge input (then ``ps-dist``).  Name a backend (``"db"``,
    ``"ps"``, ...) to pin it.  The sweep gathers each join in
    start-vertex chunks of at most 2^18 rows, so on large inputs its
    peak memory stays near dict DB's (enron × brain2: 278 MB against
    318 MB).

    ``workers`` sizes the engine's pooled worker processes: ordinary
    backends run whole trials on them; for the distributed ``ps-dist``
    backend it is the shard count, and each shard process takes one
    range of start vertices cut at equal edge shares.
    """

    method: str = "auto"
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    num_colors: Optional[int] = None
    workers: int = 1
    #: engine-wide trial policy; ``None`` keeps the bare ``trials`` knob
    #: as the policy (``PrecisionSpec.fixed(trials)``).  When set, every
    #: request that does not carry its own ``precision`` inherits this —
    #: including adaptive (``rel_error``) policies.
    precision: Optional[PrecisionSpec] = None

    def __post_init__(self) -> None:
        if self.precision is not None and not isinstance(self.precision, PrecisionSpec):
            object.__setattr__(
                self, "precision", PrecisionSpec.coerce(self.precision)
            )

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy of this config with ``changes`` applied."""
        return replace(self, **changes)


#: CountRequest fields that fall back to the engine config when ``None``.
_INHERITED = (
    "method",
    "trials",
    "seed",
    "num_colors",
    "workers",
    "precision",
)


@dataclass(frozen=True)
class CountRequest:
    """One counting job: a query plus optional per-request overrides.

    ``None`` means "inherit from :class:`EngineConfig`" for every field
    in ``method / trials / seed / num_colors / workers / precision``.  Every field is a plain value that
    reaches the request fingerprint.
    """

    query: QueryGraph
    method: Optional[str] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    num_colors: Optional[int] = None
    workers: Optional[int] = None
    #: optional vertex-label constraint applied to ``query`` at execution
    #: time.  Accepts the same spellings as the CLI/service surfaces — a
    #: ``{query node: int}`` mapping or a per-node list in the query's
    #: deterministic node order — and normalises either to a sorted tuple
    #: of ``(node, label)`` pairs so requests stay hashable.  ``None``
    #: keeps the query's own labels (or unlabeled counting if it has none).
    labels: Optional[Tuple[Tuple[Hashable, int], ...]] = None
    #: trial policy for this request; accepts every
    #: :meth:`PrecisionSpec.coerce` spelling (spec / int / mapping).
    #: ``None`` inherits the engine's policy; when that is also unset the
    #: resolved ``trials`` count desugars to ``PrecisionSpec.fixed(trials)``
    #: (see :meth:`effective_precision`).  An explicit ``precision`` wins
    #: over ``trials`` when both are given.
    precision: Optional[PrecisionSpec] = None

    def __post_init__(self) -> None:
        if self.precision is not None and not isinstance(self.precision, PrecisionSpec):
            object.__setattr__(
                self, "precision", PrecisionSpec.coerce(self.precision)
            )
        labels = self.labels
        if labels is None:
            return
        if isinstance(labels, Mapping):
            mapping = dict(labels)
        elif isinstance(labels, (list, tuple)):
            if all(isinstance(e, tuple) and len(e) == 2 for e in labels):
                mapping = dict(labels)  # already (node, label) pairs
            else:
                # per-node list spelling, matched to query node order
                nodes = self.query.nodes()
                if len(labels) != len(nodes):
                    raise ValueError(
                        f"labels list needs one label per query node "
                        f"({len(nodes)}), got {len(labels)}"
                    )
                mapping = dict(zip(nodes, labels))
        else:
            raise ValueError(
                "labels must be a {node: int} mapping, a per-node list, or "
                f"(node, label) pairs, got {type(labels).__name__}"
            )
        normalized = tuple(
            sorted(
                ((node, int(lab)) for node, lab in mapping.items()),
                key=lambda kv: repr(kv[0]),
            )
        )
        object.__setattr__(self, "labels", normalized)

    def effective_query(self) -> QueryGraph:
        """``query`` with this request's ``labels`` applied (if any)."""
        if self.labels is None:
            return self.query
        return self.query.with_labels(dict(self.labels))

    def effective_precision(self) -> PrecisionSpec:
        """The trial policy this request resolves to.

        An explicit ``precision`` wins; otherwise the (resolved or
        default) ``trials`` count desugars to the equivalent fixed spec —
        the mapping that keeps every pre-precision call site, golden
        fixture, and cache key unchanged.
        """
        if self.precision is not None:
            return self.precision
        trials = self.trials if self.trials is not None else DEFAULT_TRIALS
        return PrecisionSpec.fixed(trials)

    def resolved(self, config: EngineConfig) -> "CountRequest":
        """This request with every ``None`` field filled from ``config``."""
        changes = {
            name: getattr(config, name)
            for name in _INHERITED
            if getattr(self, name) is None
        }
        return replace(self, **changes) if changes else self

    def replace(self, **changes: object) -> "CountRequest":
        """A copy of this request with ``changes`` applied."""
        return replace(self, **changes)
