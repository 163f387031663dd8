"""Shared plumbing for the repro static-analysis suite.

The suite enforces *project* invariants — seeded RNG flow, int64 dtype
discipline in the DP kernels, lock-protected shared state, the package
layering contract, wire-format round-trip completeness — that generic
linters cannot express.  Everything here is plain :mod:`ast` work: no
third-party dependencies, so the checkers run anywhere the repo does.

Key objects:

* :class:`Finding` — one rule violation at a file/line;
* :class:`FileContext` — a parsed source file handed to every rule;
* :class:`AnalysisConfig` — the per-rule scope/contract tables.  Rules
  read *all* project knowledge from the config, so tests can point the
  same rule implementations at scratch trees;
* :func:`parse_suppressions` — inline ``# repro: allow[<RULE>]``
  comments.  Suppressions are budgeted: the CLI fails when the scanned
  tree carries more than ``max_suppressions`` of them, keeping the
  allowlist deliberate and reviewable.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "WireContract",
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "parse_suppressions",
    "dotted_name",
    "posix_path",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (the ``--format json`` row shape)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line text rendering: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class FileContext:
    """A parsed source file: what every rule receives."""

    path: str  # posix-normalized, as given on the command line
    source: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path, root: Optional[Path] = None) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        rel = path.relative_to(root) if root is not None else path
        return cls(path=posix_path(rel), source=source, tree=ast.parse(source))


@dataclass(frozen=True)
class WireContract:
    """One serialization round-trip contract for RP005.

    Every public field of ``cls`` (declared via dataclass annotations or
    ``self.X = ...`` in ``__init__``) must appear — after ``renames`` and
    minus ``non_wire`` — as a string constant in each listed serializer,
    deserializer, and external contract function.  Extra keys in the
    serializers (derived values for JSON consumers) are always allowed;
    the contract is about fields silently *missing* from the wire.
    """

    cls: str
    path_suffix: str
    serializers: Tuple[str, ...] = ("to_dict",)
    deserializers: Tuple[str, ...] = ("from_dict",)
    #: (file path suffix, function name) pairs checked in other modules
    extra_functions: Tuple[Tuple[str, str], ...] = ()
    #: field name -> wire key (e.g. ``plan_digest`` rides the ``plan`` key)
    renames: Mapping[str, str] = field(default_factory=dict)
    #: fields that never cross the wire (live objects, caches)
    non_wire: Tuple[str, ...] = ()
    #: inherited fields the class body does not declare itself
    extra_fields: Tuple[str, ...] = ()


@dataclass
class AnalysisConfig:
    """Scope fragments and contract tables for every rule.

    Paths are matched as posix substrings (``"counting/"`` matches any
    file under a ``counting`` directory), so the same config drives both
    the real tree and the scratch trees the test fixtures build.
    """

    # -- RP001: determinism ------------------------------------------------
    rp001_scopes: Tuple[str, ...] = (
        "counting/", "distributed/", "benchmarks/",
        "graph/", "query/", "theory/", "motifs/", "bench/", "obs/",
    )
    #: np.random attributes that are part of the *seeded* API
    rp001_np_random_allowed: Tuple[str, ...] = (
        "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    )
    #: stdlib ``random`` attributes that are seedable class constructors
    rp001_random_allowed: Tuple[str, ...] = ("Random", "SystemRandom")
    rp001_banned_time: Tuple[str, ...] = ("time.time", "time.time_ns")
    rp001_banned_datetime: Tuple[str, ...] = (
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    )

    # -- RP002: dtype discipline -------------------------------------------
    rp002_scopes: Tuple[str, ...] = (
        "counting/vectorized.py", "counting/colorings.py",
        "counting/labels.py",
        "distributed/executor.py", "distributed/runtime.py",
        "distributed/partition.py", "graph/graph.py",
    )
    #: constructor -> positional index of ``dtype`` (None: keyword only)
    rp002_constructors: Mapping[str, Optional[int]] = field(
        default_factory=lambda: {
            "zeros": 1, "ones": 1, "empty": 1, "full": 2,
            "arange": 3, "array": 1, "asarray": 1, "fromiter": 1,
        }
    )

    # -- RP003: lock discipline --------------------------------------------
    #: class name -> lock attribute -> attributes it guards
    rp003_lock_maps: Mapping[str, Mapping[str, Tuple[str, ...]]] = field(
        default_factory=lambda: {
            "CountingEngine": {
                "_cache_lock": (
                    "_plan_cache", "_partition_cache", "_reroot_cache", "stats",
                ),
                "_executor_lock": ("_executor_cache",),
            },
            "ShardedExecutor": {
                "_run_lock": ("_plan_keys", "_plans", "_runs"),
            },
            "JobQueue": {
                "_lock": (
                    "_jobs", "_finished", "_submitted", "_rejected",
                    "_completed", "_failed", "_cancelled", "_running", "_closed",
                ),
            },
            "ResultCache": {
                "_lock": ("_entries", "_hits", "_misses", "_evictions"),
            },
            "CountingService": {
                "_lock": (
                    "_inflight", "_closed", "_count_requests",
                    "_job_requests", "_computed", "_inflight_joins",
                ),
            },
            "DatasetRegistry": {
                "_lock": ("_entries",),
            },
            "Counter": {
                "_lock": ("_values",),
            },
            "Gauge": {
                "_lock": ("_values",),
            },
            "Histogram": {
                "_lock": ("_counts", "_sums"),
            },
            "MetricsRegistry": {
                "_lock": ("_metrics",),
            },
            "Trace": {
                "_lock": ("_events",),
            },
        }
    )
    #: methods allowed to touch guarded state without the lock
    rp003_exempt_methods: Tuple[str, ...] = ("__init__",)
    rp003_exempt_suffixes: Tuple[str, ...] = ("_locked",)

    # -- RP004: layering contract ------------------------------------------
    #: package (or ``pkg.module`` carve-out) -> layer; imports may only
    #: point at equal or lower layers.  ``distributed.partition`` and
    #: ``distributed.runtime`` are substrate (the counting kernels thread
    #: ExecutionContext everywhere); the rest of ``distributed`` sits
    #: above ``counting`` because the executor drives the vectorized DP.
    rp004_layers: Mapping[str, int] = field(
        default_factory=lambda: {
            "graph": 0, "query": 0, "tables": 0, "obs": 0,
            "decomposition": 1, "theory": 1,
            "distributed.partition": 1, "distributed.runtime": 1,
            "counting": 2,
            "distributed": 3,
            "engine": 4,
            "motifs": 5, "bench": 5,
            "service": 6,
            "cli": 7, "analysis": 7,
        }
    )
    #: the root package whose internal imports the contract governs
    rp004_package: str = "repro"

    # -- RP005: wire-format drift -------------------------------------------
    rp005_contracts: Tuple[WireContract, ...] = field(
        default_factory=lambda: (
            WireContract(
                cls="CountRequest",
                path_suffix="engine/config.py",
                serializers=(),
                deserializers=(),
                extra_functions=(("engine/fingerprint.py", "canonical_request"),),
                renames={"labels": "query"},
            ),
            WireContract(
                cls="PrecisionSpec",
                path_suffix="engine/config.py",
                serializers=("to_dict",),
                deserializers=("coerce",),
            ),
            WireContract(
                cls="RunResult",
                path_suffix="engine/result.py",
                renames={"plan_digest": "plan"},
                extra_fields=(
                    "query_name", "graph_name", "trials",
                    "colorful_counts", "scale",
                ),
            ),
            WireContract(cls="LoadStats", path_suffix="distributed/runtime.py"),
            WireContract(cls="WallStats", path_suffix="distributed/runtime.py"),
        )
    )

    # -- RP006: typed public seams ------------------------------------------
    rp006_scopes: Tuple[str, ...] = (
        "repro/engine/", "repro/service/", "repro/analysis/", "repro/obs/",
        "graph/graph.py", "counting/vectorized.py", "distributed/executor.py",
    )

    #: committed allowlist budget for inline suppressions
    max_suppressions: int = 5

    def in_scope(self, path: str, scopes: Sequence[str]) -> bool:
        """Whether ``path`` (posix) matches any scope fragment."""
        return any(fragment in path for fragment in scopes)


DEFAULT_CONFIG = AnalysisConfig()

#: matches ``repro: allow`` comments naming one rule or a comma list
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Line number (1-based) -> rule ids suppressed on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            if rules:
                out[lineno] = rules
    return out


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything richer."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def posix_path(path: Path) -> str:
    return path.as_posix()
