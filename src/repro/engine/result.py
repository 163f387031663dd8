"""Unified run result: the legacy estimate plus execution provenance.

:class:`RunResult` subclasses the estimator's :class:`EstimateResult`
(so every consumer of ``estimate`` / ``relative_std`` /
``coefficient_of_variation`` keeps working unchanged) and records how
the numbers were produced: which backend ran, under which seed/palette,
the decomposition plan that was used (and whether it came from the
engine's cache), per-trial wall-clock timings and the adaptive-precision
evidence.  Per-rank load is a property of one coloring, not of an
estimate (see :meth:`CountingEngine.make_context`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..counting.estimator import EstimateResult
from ..decomposition.tree import Plan

__all__ = ["RunResult", "plan_summary", "WIRE_VERSION"]

#: serialization format version emitted by :meth:`RunResult.to_dict`.
#: v1 (implicit, pre-adaptive) lacked ``wire_version`` and the CI /
#: adaptive-provenance fields; :meth:`RunResult.from_dict` accepts both.
#: ``trace_id`` is an optional v2 key (absent/None on older documents).
WIRE_VERSION = 2


def plan_summary(plan: Plan) -> Dict[str, object]:
    """JSON-safe digest of a decomposition plan (the wire form of a
    :class:`Plan`: enough to reason about cost, no block objects)."""
    return {
        "blocks": len(plan.blocks()),
        "longest_cycle": plan.longest_cycle(),
        "boundary_nodes": plan.total_boundary_nodes(),
        "annotations": plan.total_annotations(),
        "cycle_annotations": plan.cycle_annotations(),
    }


@dataclass
class RunResult(EstimateResult):
    """Estimate plus provenance for one engine run.

    Inherits the statistical surface of :class:`EstimateResult`
    (``estimate``, ``colorful_mean``, ``relative_std``,
    ``coefficient_of_variation``, ``estimated_subgraphs``); adds the
    execution record.  ``trial_times`` holds one wall-clock time per
    trial, measured in the process that ran it; it is ``None`` only on
    results the engine did not produce (such as older wire documents).
    """

    method: str = ""
    seed: int = 0
    num_colors: int = 0
    workers: int = 1
    plan: Optional[Plan] = None
    plan_cached: bool = False
    trial_times: Optional[List[float]] = None
    wall_clock: float = 0.0
    #: plan digest carried by deserialized results (``plan`` itself does
    #: not survive the wire; see :meth:`to_dict` / :meth:`from_dict`)
    plan_digest: Optional[Dict[str, object]] = None
    #: trials actually executed (equals ``trials``; kept explicit so wire
    #: consumers can tell an adaptive run's spend from its cap)
    trials_used: int = 0
    #: whether the adaptive stopping rule fired before ``max_trials``
    stopped_early: bool = False
    #: empirical CI on ``estimate`` at the run's confidence level;
    #: ``None`` when no finite interval could be computed (degenerate
    #: variance with no usable fallback)
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    #: observability trace ID minted (or inherited) for this run; joins
    #: the result to its spans in a collected trace.  Not part of the
    #: request fingerprint — two identical requests get distinct IDs.
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.trials_used:
            self.trials_used = self.trials

    @property
    def time_per_trial(self) -> float:
        """Average wall-clock seconds per trial."""
        return self.wall_clock / self.trials if self.trials else 0.0

    # ------------------------------------------------------------------
    # deterministic serialization (the service's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict rendering of this result.

        Deterministic for a given result: stable keys, plain
        lists/scalars only.  The decomposition plan is reduced to its
        :func:`plan_summary` digest; derived statistics (``estimate``,
        ``relative_std``, ``coefficient_of_variation``) are included for
        consumers that never reconstruct the object.  Round trip:
        ``RunResult.from_dict(r.to_dict())`` preserves every stored field
        (with ``plan`` flattened to ``plan_digest``), and serializing
        again yields an identical dict.
        """
        digest = self.plan_digest
        if digest is None and self.plan is not None:
            digest = plan_summary(self.plan)
        return {
            "wire_version": WIRE_VERSION,
            "query_name": self.query_name,
            "graph_name": self.graph_name,
            "trials": self.trials,
            "colorful_counts": [int(c) for c in self.colorful_counts],
            "scale": float(self.scale),
            "method": self.method,
            "seed": self.seed,
            "num_colors": self.num_colors,
            "workers": self.workers,
            "plan": dict(digest) if digest is not None else None,
            "plan_cached": bool(self.plan_cached),
            "trial_times": (
                [float(t) for t in self.trial_times]
                if self.trial_times is not None else None
            ),
            "wall_clock": float(self.wall_clock),
            "trials_used": int(self.trials_used),
            "stopped_early": bool(self.stopped_early),
            "ci_low": float(self.ci_low) if self.ci_low is not None else None,
            "ci_high": float(self.ci_high) if self.ci_high is not None else None,
            "trace_id": self.trace_id,
            # derived, for dashboards/JSON consumers (ignored by from_dict)
            "estimate": float(self.estimate),
            "relative_std": float(self.relative_std),
            "coefficient_of_variation": float(self.coefficient_of_variation),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        The plan digest round-trips via ``plan_digest`` (the full
        :class:`Plan` object does not cross the wire).  Accepts both wire
        v2 documents and v1 documents (no ``wire_version`` key, no
        CI/adaptive fields — rolling-upgrade safety): the missing fields
        default to the fixed-run reading (``trials_used = trials``, no
        early stop, no recorded interval).  The ``namespace``, ``load``
        and ``kappa`` keys of documents written by older builds are
        ignored.
        """
        version = int(doc.get("wire_version", 1))  # type: ignore[arg-type]
        if version > WIRE_VERSION:
            raise ValueError(
                f"unsupported RunResult wire_version {version} "
                f"(this build reads <= {WIRE_VERSION})"
            )
        return cls(
            query_name=str(doc["query_name"]),
            graph_name=str(doc["graph_name"]),
            trials=int(doc["trials"]),
            colorful_counts=[int(c) for c in doc["colorful_counts"]],
            scale=float(doc["scale"]),
            method=str(doc.get("method", "")),
            seed=int(doc.get("seed", 0)),
            num_colors=int(doc.get("num_colors", 0)),
            workers=int(doc.get("workers", 1)),
            plan=None,
            plan_cached=bool(doc.get("plan_cached", False)),
            trial_times=(
                [float(t) for t in doc["trial_times"]]
                if doc.get("trial_times") is not None else None
            ),
            wall_clock=float(doc.get("wall_clock", 0.0)),
            plan_digest=dict(doc["plan"]) if doc.get("plan") is not None else None,
            trials_used=int(doc.get("trials_used", doc["trials"])),
            stopped_early=bool(doc.get("stopped_early", False)),
            ci_low=(
                float(doc["ci_low"]) if doc.get("ci_low") is not None else None
            ),
            ci_high=(
                float(doc["ci_high"]) if doc.get("ci_high") is not None else None
            ),
            trace_id=(
                str(doc["trace_id"]) if doc.get("trace_id") is not None else None
            ),
        )

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        trials_bit = f"trials={self.trials}"
        if self.stopped_early:
            trials_bit += " (early stop)"
        bits = [
            f"{self.query_name} on {self.graph_name}",
            f"method={self.method}",
            trials_bit,
            f"estimate={self.estimate:.6g}",
            f"rel_std={self.relative_std:.4f}",
            f"wall={self.wall_clock:.3f}s",
        ]
        if self.ci_low is not None and self.ci_high is not None:
            bits.insert(4, f"ci=[{self.ci_low:.6g}, {self.ci_high:.6g}]")
        if self.workers > 1:
            bits.insert(3, f"workers={self.workers}")
        return "  ".join(bits)
