"""Vertex-label plumbing: Graph/Query label arrays, IO, masks, engine, wire.

The differential matrix (tests/test_differential_matrix.py) owns the
cross-backend parity story; this file owns the unit surface — label
validation and round trips, the mask helper, request-level labels, the
fingerprint discipline, and the CLI/service spellings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counting.bruteforce import count_colorful_matches, count_matches
from repro.counting.labels import label_masks, label_masks_from_arrays
from repro.engine import CountingEngine, CountRequest
from repro.engine.fingerprint import canonical_query, request_fingerprint
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.graph.io import (
    load_graph_file,
    read_edge_list,
    read_json_graph,
    write_edge_list,
    write_json_graph,
)
from repro.query.library import (
    cycle_query,
    labeled_queries,
    labeled_query,
    path_query,
    with_random_labels,
)
from repro.query.query import QueryGraph


def labeled_graph(n=20, p=0.25, classes=2, seed=5, name="lg"):
    rng = np.random.default_rng(seed)
    return erdos_renyi(n, p, rng, name=name).with_labels(rng.integers(0, classes, n))


# ----------------------------------------------------------------------
# Graph labels
# ----------------------------------------------------------------------
class TestGraphLabels:
    def test_construct_and_round_trip_csr(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 1, 1, 0])
        assert g.labeled and g.num_labels() == 2
        assert g.labels.dtype == np.int64
        indptr, indices = g.to_csr()
        back = Graph.from_csr(indptr, indices, labels=g.labels)
        assert back == g and np.array_equal(back.labels, g.labels)

    def test_unlabeled_default(self):
        g = Graph(3, [(0, 1)])
        assert g.labels is None and not g.labeled and g.num_labels() == 0

    def test_with_labels_shares_csr_and_clears(self):
        g = Graph(3, [(0, 1), (1, 2)])
        lg = g.with_labels([2, 0, 1])
        assert lg.indices is g.indices and lg.indptr is g.indptr
        assert lg.num_labels() == 3
        assert lg.with_labels(None).labels is None

    def test_label_validation(self):
        with pytest.raises(ValueError, match="one integer per vertex"):
            Graph(3, [(0, 1)], labels=[0, 1])
        with pytest.raises(ValueError, match="non-negative"):
            Graph(2, [(0, 1)], labels=[0, -1])
        with pytest.raises(ValueError, match="integers"):
            Graph(2, [(0, 1)], labels=[0.5, 1.0])

    def test_eq_and_hash_distinguish_labels(self):
        g = Graph(3, [(0, 1), (1, 2)])
        a = g.with_labels([0, 1, 0])
        b = g.with_labels([0, 1, 1])
        assert a != g and a != b
        assert a == g.with_labels([0, 1, 0])
        assert hash(a) == hash(g.with_labels([0, 1, 0]))

    def test_float_integral_labels_accepted(self):
        g = Graph(2, [(0, 1)], labels=np.array([1.0, 2.0]))
        assert list(g.labels) == [1, 2]


# ----------------------------------------------------------------------
# IO round trips
# ----------------------------------------------------------------------
class TestLabeledIO:
    def test_edge_list_round_trip(self, tmp_path):
        g = labeled_graph(name="io-edges")
        path = str(tmp_path / "g.edges")
        write_edge_list(g, path)
        back = read_edge_list(path, name="io-edges")
        assert back == g and np.array_equal(back.labels, g.labels)

    def test_edge_list_unlabeled_has_no_labels_line(self, tmp_path):
        g = erdos_renyi(10, 0.3, np.random.default_rng(0))
        path = str(tmp_path / "g.edges")
        write_edge_list(g, path)
        with open(path) as fh:
            assert "labels" not in fh.read()
        assert read_edge_list(path).labels is None

    def test_json_round_trip(self, tmp_path):
        g = labeled_graph(name="io-json")
        path = str(tmp_path / "g.json")
        write_json_graph(g, path)
        back = read_json_graph(path)
        assert back == g and np.array_equal(back.labels, g.labels)
        assert load_graph_file(path).labels is not None


# ----------------------------------------------------------------------
# QueryGraph labels
# ----------------------------------------------------------------------
class TestQueryLabels:
    def test_labels_must_cover_every_node(self):
        with pytest.raises(ValueError, match="cover every query node"):
            QueryGraph([(0, 1), (1, 2)], labels={0: 0, 1: 1})
        with pytest.raises(ValueError, match="unknown query node"):
            QueryGraph([(0, 1)], labels={0: 0, 1: 1, 9: 0})
        with pytest.raises(ValueError, match="non-negative"):
            QueryGraph([(0, 1)], labels={0: 0, 1: -2})

    def test_with_labels_relabel_subgraph_copy_carry_labels(self):
        q = QueryGraph([("a", "b"), ("b", "c")], labels={"a": 1, "b": 0, "c": 1})
        ints, mapping = q.relabel_to_ints()
        assert ints.labels == {mapping[v]: lab for v, lab in q.labels.items()}
        sub = q.subgraph(["a", "b"])
        assert sub.labels == {"a": 1, "b": 0}
        assert q.copy().labels == q.labels
        assert q.with_labels(None).labels is None

    def test_eq_hash_distinguish_labels(self):
        base = cycle_query(3)
        a = base.with_labels({0: 0, 1: 0, 2: 1})
        b = base.with_labels({0: 0, 1: 1, 2: 0})
        assert a != base and a != b
        assert a == base.with_labels({0: 0, 1: 0, 2: 1})
        assert hash(a) == hash(base.with_labels({0: 0, 1: 0, 2: 1}))

    def test_labeled_library(self):
        lib = labeled_queries()
        assert lib, "labeled library must not be empty"
        for name, q in lib.items():
            assert q.labeled and q.name == name
            assert set(q.labels) == set(q.nodes())
        with pytest.raises(KeyError):
            labeled_query("nope")

    def test_with_random_labels_deterministic(self):
        q = cycle_query(5)
        a = with_random_labels(q, 3, seed=9)
        b = with_random_labels(q, 3, seed=9)
        assert a.labels == b.labels
        assert set(a.labels.values()) <= {0, 1, 2}
        with pytest.raises(ValueError):
            with_random_labels(q, 0)


# ----------------------------------------------------------------------
# masks
# ----------------------------------------------------------------------
class TestLabelMasks:
    def test_masks_shape_and_sharing(self):
        g = labeled_graph()
        q = cycle_query(3).with_labels({0: 0, 1: 0, 2: 1})
        masks = label_masks(g, q)
        assert set(masks) == {0, 1, 2}
        assert masks[0] is masks[1], "equal labels share one mask array"
        assert np.array_equal(masks[0], g.labels == 0)
        assert np.array_equal(masks[2], g.labels == 1)

    def test_unlabeled_query_no_masks(self):
        assert label_masks(labeled_graph(), cycle_query(3)) is None
        assert label_masks_from_arrays(None, None) is None

    def test_labeled_query_unlabeled_graph_raises(self):
        g = erdos_renyi(10, 0.3, np.random.default_rng(0))
        q = cycle_query(3).with_labels({0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError, match="labeled data graph"):
            label_masks(g, q)


# ----------------------------------------------------------------------
# bruteforce oracle + exact counting
# ----------------------------------------------------------------------
class TestLabeledBruteforce:
    def test_count_matches_respects_labels(self):
        # path graph 0-1-2 labeled 0,1,0; query edge labeled (0,1)
        g = Graph(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        q = QueryGraph([(0, 1)], labels={0: 0, 1: 1})
        # matches: 0->0,1->1 and 0->2,1->1
        assert count_matches(g, q) == 2
        assert count_matches(g, q.with_labels(None)) == 4  # both orientations

    def test_colorful_labeled_subset(self):
        g = labeled_graph()
        q = cycle_query(3)
        lq = with_random_labels(q, 2, seed=1)
        colors = np.random.default_rng(0).integers(0, 3, g.n)
        assert count_colorful_matches(g, lq, colors) <= count_colorful_matches(g, q, colors)

    def test_labeled_query_unlabeled_graph_raises(self):
        g = erdos_renyi(8, 0.4, np.random.default_rng(0))
        q = cycle_query(3).with_labels({0: 0, 1: 0, 2: 1})
        with pytest.raises(ValueError, match="labeled data graph"):
            count_matches(g, q)


# ----------------------------------------------------------------------
# engine + fingerprint
# ----------------------------------------------------------------------
class TestEngineLabels:
    def test_request_labels_normalised_and_applied(self):
        g = labeled_graph()
        with CountingEngine(g, method="ps", trials=2) as engine:
            base = cycle_query(3)
            via_request = engine.count(CountRequest(query=base, labels={0: 0, 1: 0, 2: 1}))
            via_query = engine.count(base.with_labels({0: 0, 1: 0, 2: 1}))
            assert via_request.colorful_counts == via_query.colorful_counts

    def test_request_labels_hashable(self):
        r = CountRequest(query=cycle_query(3), labels={0: 0, 1: 1, 2: 0})
        assert isinstance(hash(r), int)
        assert r.labels == ((0, 0), (1, 1), (2, 0))
        assert r.effective_query().labels == {0: 0, 1: 1, 2: 0}

    def test_request_labels_list_spelling(self):
        """The per-node list spelling the CLI/service accept works on the
        direct engine API too, and normalises to the same request."""
        as_list = CountRequest(query=cycle_query(3), labels=[0, 1, 0])
        as_dict = CountRequest(query=cycle_query(3), labels={0: 0, 1: 1, 2: 0})
        assert as_list.labels == as_dict.labels and hash(as_list) == hash(as_dict)
        with pytest.raises(ValueError, match="one label per query node"):
            CountRequest(query=cycle_query(3), labels=[0, 1])
        with pytest.raises(ValueError, match="labels must be"):
            CountRequest(query=cycle_query(3), labels="010")

    def test_single_node_labeled_query(self):
        g = labeled_graph()
        q = QueryGraph([], nodes=[0], labels={0: 1})
        with CountingEngine(g, trials=1) as engine:
            expected = int((g.labels == 1).sum())
            for method in ("ps", "ps-vec"):
                assert engine.count(q, method=method).colorful_counts == [expected]

    def test_auto_dispatch_runs_dense_trees_on_the_sweep(self):
        # max degree >= 12: 10-node paths can overflow int64 tables; auto
        # still runs the sweep, labeled or not, and counts what db counts
        g = labeled_graph(p=0.8)
        assert g.max_degree() >= 12
        with CountingEngine(g, method="auto", trials=3) as engine:
            for q in (path_query(10), with_random_labels(path_query(10), 2, seed=0)):
                auto = engine.count(q)
                assert auto.method == "ps-vec"
                assert auto.colorful_counts == engine.count(q, method="db").colorful_counts
            assert any(engine.count(path_query(10)).colorful_counts)

    def test_fingerprint_distinguishes_labels(self):
        base = cycle_query(3)
        fp_unlabeled = request_fingerprint("d", CountRequest(query=base))
        fp_a = request_fingerprint(
            "d", CountRequest(query=base, labels={0: 0, 1: 0, 2: 1})
        )
        fp_b = request_fingerprint(
            "d", CountRequest(query=base, labels={0: 1, 1: 0, 2: 0})
        )
        fp_query_carried = request_fingerprint(
            "d", CountRequest(query=base.with_labels({0: 0, 1: 0, 2: 1}))
        )
        assert len({fp_unlabeled, fp_a, fp_b}) == 3
        assert fp_a == fp_query_carried, "labels via request == labels via query"

    def test_canonical_query_renders_labels_in_node_order(self):
        q = QueryGraph([("a", "b")], labels={"a": 3, "b": 1})
        doc = canonical_query(q)
        assert doc["labels"] == [3, 1]
        assert canonical_query(q.with_labels(None))["labels"] is None

    def test_labeled_on_unlabeled_graph_raises(self):
        g = erdos_renyi(10, 0.3, np.random.default_rng(0), name="ug")
        with CountingEngine(g, trials=1) as engine:
            for method in ("ps", "ps-vec", "bruteforce"):
                with pytest.raises(ValueError, match="labeled data graph"):
                    engine.count(labeled_query("tri-001"), method=method)

    def test_explicit_unlabeled_plan_is_rerooted_on_labeled_request(self):
        """Regression: query labels must not be dropped by a caller plan.

        The solvers read label masks off ``plan.query``, so a plan built
        for the unlabeled twin has to be re-rooted on the labeled query,
        or ``count_colorful(plan=...)`` would silently return unlabeled
        counts.
        """
        from repro.decomposition.planner import heuristic_plan

        g = labeled_graph()
        base = cycle_query(3)
        labeled = base.with_labels({0: 0, 1: 0, 2: 1})
        unlabeled_plan = heuristic_plan(base)
        colors = np.random.default_rng(0).integers(0, 3, g.n)
        with CountingEngine(g, method="ps") as engine:
            via_plan = engine.count_colorful(labeled, colors, plan=unlabeled_plan)
            assert via_plan == count_colorful_matches(g, labeled, colors)
            assert via_plan != engine.count_colorful(base, colors, plan=unlabeled_plan)

    def test_rerooted_plans_are_cached_per_labels(self):
        """Repeated labeled requests on one caller plan reuse one Plan
        object (pooled executors key their registries on plan identity)."""
        from repro.decomposition.planner import heuristic_plan

        g = labeled_graph()
        base = cycle_query(3)
        plan = heuristic_plan(base)
        with CountingEngine(g, method="ps", trials=1) as engine:
            labels = {0: 0, 1: 0, 2: 1}
            first = engine._effective_plan(plan, base.with_labels(labels))
            again = engine._effective_plan(plan, base.with_labels(labels))
            assert first is again and first is not plan
            assert engine._effective_plan(plan, base) is plan  # same labels: no-op

    def test_plan_with_query_rejects_structural_mismatch(self):
        from repro.decomposition.planner import heuristic_plan

        plan = heuristic_plan(cycle_query(3))
        with pytest.raises(ValueError, match="structurally different"):
            plan.with_query(cycle_query(4))

    def test_automorphism_count_is_label_preserving(self):
        from repro.query.automorphisms import automorphism_count

        tri = cycle_query(3)
        assert automorphism_count(tri) == 6
        # labels (0, 0, 1): only the identity and the swap of the two
        # 0-labeled nodes survive
        assert automorphism_count(tri.with_labels({0: 0, 1: 0, 2: 1})) == 2
        assert automorphism_count(tri.with_labels({0: 0, 1: 1, 2: 2})) == 1
        p = path_query(3)  # aut = 2 (reflection)
        assert automorphism_count(p) == 2
        # asymmetric endpoint labels break the reflection
        assert automorphism_count(p.with_labels({0: 0, 1: 1, 2: 2})) == 1

    def test_resolve_query_name_combined_error(self):
        from repro.query.library import resolve_query_name

        assert resolve_query_name("glet1").name == "glet1"
        assert resolve_query_name("tri-001").labeled
        with pytest.raises(KeyError) as err:
            resolve_query_name("glet9")
        assert "Figure 8" in str(err.value) and "labeled template" in str(err.value)

    def test_plan_cache_keys_labeled_variants_separately(self):
        g = labeled_graph()
        with CountingEngine(g, method="ps", trials=1) as engine:
            base = cycle_query(4)
            engine.count(base)
            engine.count(with_random_labels(base, 2, seed=0))
            assert engine.stats.plan_builds == 2
            engine.count(base)  # hits
            assert engine.stats.plan_builds == 2


# ----------------------------------------------------------------------
# CLI spellings
# ----------------------------------------------------------------------
class TestCliLabels:
    def test_count_with_random_graph_labels_and_pairs(self, capsys):
        from repro.cli import main

        rc = main([
            "count", "--graph", "condmat", "--query", "glet1",
            "--labels", "0=0,1=1,2=0,3=1", "--graph-labels", "random:2:3",
            "--trials", "2", "--method", "ps-vec",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "labeled" in out

    def test_count_with_list_labels_and_label_file(self, tmp_path, capsys):
        from repro.bench.datasets import dataset
        from repro.cli import main

        n = dataset("condmat").n
        label_file = tmp_path / "labels.txt"
        label_file.write_text(" ".join(str(i % 2) for i in range(n)))
        rc = main([
            "count", "--graph", "condmat", "--query", "glet1",
            "--labels", "0,1,0,1", "--graph-labels", str(label_file),
            "--trials", "1",
        ])
        assert rc == 0 and "labeled" in capsys.readouterr().out

    def test_labeled_template_without_graph_labels_fails_cleanly(self, capsys):
        from repro.cli import main

        rc = main(["count", "--graph", "condmat", "--query", "tri-001"])
        assert rc == 2
        assert "labeled data graph" in capsys.readouterr().err

    def test_plan_and_verify_accept_labeled_template_names(self, capsys):
        """Regression: every query-taking subcommand resolves labeled
        library names (plan works structurally; bad names exit 2 cleanly)."""
        from repro.cli import main

        assert main(["plan", "--query", "tri-001"]) == 0
        assert "cycle" in capsys.readouterr().out
        rc = main(["plan", "--query", "glet9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Figure 8" in err and not err.startswith('error: "')
        # labeled query on an unlabeled graph: clean error, not a traceback
        rc = main(["verify", "--graph", "condmat", "--query", "tri-001"])
        assert rc == 2
        assert "labeled data graph" in capsys.readouterr().err

    def test_missing_graph_file_error_has_context(self, capsys):
        from repro.cli import main

        rc = main(["count", "--graph", "/nonexistent.edges", "--query", "glet1"])
        assert rc == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_bad_label_specs(self, capsys):
        from repro.cli import main

        rc = main([
            "count", "--graph", "condmat", "--query", "glet1",
            "--labels", "0,1", "--graph-labels", "random:2",
        ])
        assert rc == 2 and "one label per query node" in capsys.readouterr().err
        rc = main([
            "count", "--graph", "condmat", "--query", "glet1",
            "--labels", "z=1", "--graph-labels", "random:2",
        ])
        assert rc == 2 and "unknown query node" in capsys.readouterr().err

    def test_malformed_label_file_fails_cleanly(self, tmp_path, capsys):
        """Regression: graph/label loading errors print `error: ...` and
        exit 2 instead of crashing with a traceback."""
        from repro.cli import main

        bad = tmp_path / "bad.edges"
        bad.write_text("# 3 1\n# labels 0 1\n0 1\n")  # 2 labels, 3 vertices
        rc = main(["count", "--graph", str(bad), "--query", "glet1"])
        assert rc == 2
        assert "one integer per vertex" in capsys.readouterr().err
        rc = main(["count", "--graph", "/nonexistent.edges", "--query", "glet1"])
        assert rc == 2 and "error:" in capsys.readouterr().err
