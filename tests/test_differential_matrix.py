"""Cross-backend differential test matrix — the parity source of truth.

One parametrized suite asserts **bit-identical** colorful counts across
every production backend — ``bruteforce`` (the oracle), ``ps``, ``db``,
``ps-even``, ``ps-vec`` and the sharded multiprocess ``ps-dist`` — on
random ``(graph, query, seed)`` triples, both unlabeled and
vertex-labeled.  This replaces the scattered per-suite parity asserts as
the single place where "all backends agree" is checked exhaustively; the
per-module suites keep only their own unit concerns.

The matrix axes:

* **graphs** — two seeded Erdős–Rényi graphs (different densities), each
  carrying a 2-class vertex-label array;
* **queries** — fixed library shapes (cycles, diamond, paths, small
  paper queries) plus seeded random treewidth-2 queries;
* **label modes** — unlabeled, and labeled via deterministic
  :func:`~repro.query.library.with_random_labels`;
* **coloring seeds** — two per cell.

``ps-dist`` runs through one pooled 2-worker executor per graph (module
scope) so the matrix stays fast; a hypothesis sweep underneath fuzzes
the same invariant over free-form triples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.counting.bruteforce import count_colorful_matches
from repro.counting.solver import METHODS, solve_plan
from repro.counting.vectorized import solve_plan_vectorized
from repro.decomposition.planner import heuristic_plan
from repro.distributed.executor import ShardedExecutor
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.query.generators import random_tw2_query
from repro.query.library import (
    cycle_query,
    diamond,
    labeled_queries,
    paper_query,
    path_query,
    with_random_labels,
)

#: the data-graph grid: (name, n, edge probability, label seed)
GRAPH_SPECS = (
    ("er24-sparse", 24, 0.14, 101),
    ("er18-dense", 18, 0.30, 202),
)

#: the query grid: fixed shapes plus seeded random treewidth-2 samples
def _query_grid():
    queries = [
        cycle_query(3),
        cycle_query(5),
        diamond(),
        path_query(4),
        paper_query("glet1"),
        paper_query("youtube"),
    ]
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        queries.append(random_tw2_query(rng, max_k=6, name=f"rand{seed}"))
    return queries


QUERIES = _query_grid()
COLORING_SEEDS = (0, 1)
LABEL_MODES = ("unlabeled", "labeled")


def _make_graph(spec) -> Graph:
    name, n, p, label_seed = spec
    g = erdos_renyi(n, p, np.random.default_rng(label_seed), name=name)
    labels = np.random.default_rng(label_seed + 1).integers(0, 2, size=n)
    return g.with_labels(labels)


@pytest.fixture(scope="module", params=GRAPH_SPECS, ids=[s[0] for s in GRAPH_SPECS])
def graph_and_executor(request):
    """One labeled data graph plus a pooled 2-worker ps-dist executor."""
    g = _make_graph(request.param)
    with ShardedExecutor(g, workers=2) as executor:
        yield g, executor


def _labeled_variant(query, graph_name: str):
    """Deterministic 2-class labeling keyed on (query, graph) identity."""
    return with_random_labels(query, 2, seed=hashable_seed(query.name, graph_name))


def hashable_seed(*parts: str) -> int:
    """Small deterministic seed from string parts (stable across runs)."""
    out = 0
    for part in parts:
        for ch in str(part):
            out = (out * 131 + ord(ch)) % 100003
    return out


@pytest.mark.parametrize("query", QUERIES, ids=[q.name for q in QUERIES])
@pytest.mark.parametrize("mode", LABEL_MODES)
def test_all_backends_bit_identical(graph_and_executor, query, mode):
    """bruteforce == ps == db == ps-even == ps-vec == ps-dist."""
    g, executor = graph_and_executor
    if mode == "labeled":
        query = _labeled_variant(query, g.name)
    plan = heuristic_plan(query)
    for seed in COLORING_SEEDS:
        colors = np.random.default_rng(seed).integers(0, query.k, size=g.n)
        oracle = count_colorful_matches(g, query, colors)
        got = {
            method: solve_plan(plan, g, colors, method=method)
            for method in METHODS  # ps, db, ps-even
        }
        got["ps-vec"] = solve_plan_vectorized(plan, g, colors)
        got["ps-dist"] = executor.count(plan, colors).count
        mismatches = {m: c for m, c in got.items() if c != oracle}
        assert not mismatches, (
            f"{g.name} x {query.name} (mode={mode}, seed={seed}): "
            f"oracle={oracle}, mismatches={mismatches}"
        )


def test_labeled_library_matches_oracle(graph_and_executor):
    """Every labeled library template agrees with the oracle everywhere."""
    g, executor = graph_and_executor
    for name, query in labeled_queries().items():
        plan = heuristic_plan(query)
        colors = np.random.default_rng(5).integers(0, query.k, size=g.n)
        oracle = count_colorful_matches(g, query, colors)
        assert solve_plan(plan, g, colors, method="ps") == oracle, name
        assert solve_plan_vectorized(plan, g, colors) == oracle, name
        assert executor.count(plan, colors).count == oracle, name


def test_labeled_is_a_filter_of_unlabeled(graph_and_executor):
    """A labeled count can never exceed its unlabeled twin's count."""
    g, _ = graph_and_executor
    for query in QUERIES[:4]:
        labeled = _labeled_variant(query, g.name)
        colors = np.random.default_rng(2).integers(0, query.k, size=g.n)
        plan_u = heuristic_plan(query)
        plan_l = heuristic_plan(labeled)
        assert solve_plan_vectorized(plan_l, g, colors) <= solve_plan_vectorized(
            plan_u, g, colors
        )


def test_num_colors_extension_stays_bit_identical(graph_and_executor):
    """The wider-palette extension keeps cross-backend parity (labeled too)."""
    g, executor = graph_and_executor
    query = _labeled_variant(cycle_query(4), g.name)
    plan = heuristic_plan(query)
    kc = query.k + 2
    colors = np.random.default_rng(3).integers(0, kc, size=g.n)
    oracle = count_colorful_matches(g, query, colors)
    assert solve_plan(plan, g, colors, method="ps", num_colors=kc) == oracle
    assert solve_plan_vectorized(plan, g, colors, num_colors=kc) == oracle
    assert executor.count(plan, colors, num_colors=kc).count == oracle


# ----------------------------------------------------------------------
# precision parity: rel_error=None is inert on every backend
# ----------------------------------------------------------------------

PRECISION_BACKENDS = ("ps", "ps-vec", "ps-dist")


@pytest.mark.parametrize("method", PRECISION_BACKENDS)
def test_fixed_precision_is_bit_identical_to_bare_trials(graph_and_executor, method):
    """``precision=PrecisionSpec.fixed(N)`` == ``trials=N``, per backend.

    The acceptance bar for the adaptive-precision API: with
    ``rel_error=None`` the precision path must be invisible — same
    colorful counts, same estimate, same cache key as the historical
    fixed-trial spelling, on every backend including the sharded
    multiprocess one.
    """
    from repro.engine import CountingEngine, EngineConfig, PrecisionSpec
    from repro.engine.config import CountRequest
    from repro.engine.fingerprint import request_fingerprint

    g, _ = graph_and_executor
    query = paper_query("glet1")
    workers = 2 if method == "ps-dist" else 1
    with CountingEngine(g, EngineConfig(seed=0, workers=workers)) as engine:
        bare = engine.count(query, method=method, trials=5)
        spec = engine.count(query, method=method, precision=PrecisionSpec.fixed(5))
    assert bare.colorful_counts == spec.colorful_counts
    assert bare.estimate == spec.estimate
    assert not spec.stopped_early and spec.trials_used == 5
    cfg = EngineConfig(seed=0, workers=workers)
    assert request_fingerprint(
        g.name, CountRequest(query, method=method, trials=5), cfg
    ) == request_fingerprint(
        g.name, CountRequest(query, method=method, precision=PrecisionSpec.fixed(5)), cfg
    )


def test_adaptive_runs_agree_across_backends(graph_and_executor):
    """Adaptive scheduling is backend-invariant: every backend draws the
    same coloring stream, stops at the same trial, and reports the same
    counts — the parity matrix holds for the adaptive path too."""
    from repro.engine import CountingEngine, EngineConfig, PrecisionSpec

    g, _ = graph_and_executor
    query = paper_query("glet1")
    spec = PrecisionSpec(rel_error=0.4, min_trials=3, max_trials=40)
    runs = {}
    for method in PRECISION_BACKENDS:
        workers = 2 if method == "ps-dist" else 1
        with CountingEngine(g, EngineConfig(seed=0, workers=workers)) as engine:
            runs[method] = engine.count(query, method=method, precision=spec)
    reference = runs["ps"]
    assert reference.trials_used < spec.max_trials  # the rule actually fired
    for method, result in runs.items():
        assert result.trials_used == reference.trials_used, method
        assert result.stopped_early == reference.stopped_early, method
        assert result.colorful_counts == reference.colorful_counts, method
        assert result.estimate == reference.estimate, method


# ----------------------------------------------------------------------
# hypothesis sweep: free-form (graph, query, labels, coloring) triples
# ----------------------------------------------------------------------

@st.composite
def differential_cases(draw):
    n = draw(st.integers(min_value=4, max_value=14))
    graph_seed = draw(st.integers(min_value=0, max_value=2**20))
    p = draw(st.sampled_from([0.15, 0.25, 0.4]))
    query_seed = draw(st.integers(min_value=0, max_value=2**20))
    label_classes = draw(st.integers(min_value=1, max_value=3))
    labeled = draw(st.booleans())
    coloring_seed = draw(st.integers(min_value=0, max_value=2**20))
    return n, p, graph_seed, query_seed, label_classes, labeled, coloring_seed


@settings(max_examples=30, deadline=None)
@given(case=differential_cases())
def test_hypothesis_bruteforce_ps_psvec_agree(case):
    """Fuzzed triples: the in-process backends agree with the oracle."""
    n, p, graph_seed, query_seed, label_classes, labeled, coloring_seed = case
    rng = np.random.default_rng(graph_seed)
    g = erdos_renyi(n, p, rng)
    g = g.with_labels(rng.integers(0, label_classes, size=n))
    query = random_tw2_query(np.random.default_rng(query_seed), max_k=min(6, n))
    if labeled:
        query = with_random_labels(query, label_classes, seed=query_seed)
    colors = np.random.default_rng(coloring_seed).integers(0, query.k, size=n)
    plan = heuristic_plan(query)
    oracle = count_colorful_matches(g, query, colors)
    assert solve_plan(plan, g, colors, method="ps") == oracle
    assert solve_plan(plan, g, colors, method="db") == oracle
    assert solve_plan_vectorized(plan, g, colors) == oracle
