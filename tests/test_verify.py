"""Tests for the self-verification harness."""


from repro.bench import dataset
from repro.counting import VerificationReport, verify_counting
from repro.counting.vectorized import VectorizedSolver
from repro.graph import erdos_renyi
from repro.query import cycle_query, paper_query


class TestVerificationReport:
    def test_ok_when_no_failures(self):
        r = VerificationReport("g", "q")
        r.record("check1", True)
        assert r.ok
        assert "OK" in r.summary()

    def test_failures_recorded(self):
        r = VerificationReport("g", "q")
        r.record("check1", False, "boom")
        assert not r.ok
        assert "boom" in r.summary()


class TestVerifyCounting:
    def test_random_graph_passes(self, rng):
        g = erdos_renyi(40, 0.15, rng, name="er40")
        report = verify_counting(g, cycle_query(4), seed=1)
        assert report.ok, report.summary()

    def test_dataset_passes(self):
        report = verify_counting(dataset("condmat"), paper_query("glet2"), seed=2)
        assert report.ok, report.summary()

    def test_paper_query_with_leaves(self, rng):
        g = erdos_renyi(30, 0.2, rng, name="er30")
        report = verify_counting(g, paper_query("youtube"), seed=3)
        assert report.ok, report.summary()

    def test_check_names_cover_battery(self, rng):
        g = erdos_renyi(25, 0.2, rng)
        report = verify_counting(g, cycle_query(3), seed=4, rank_counts=(2,))
        names = set(report.checks)
        assert "method-agreement" in names
        assert "plan-agreement" in names
        assert "subsample-ground-truth" in names
        assert any(n.startswith("rank-invariance") for n in names)

    def test_a_wrong_sweep_fails_method_and_plan_agreement(self, rng, monkeypatch):
        """The sweep (``ps-vec`` and its exact rerun) is in both batteries:
        a cycle merge that counts one too many fails exactly those two."""
        merge = VectorizedSolver._merge_paths

        def one_too_many(self, *args):
            out = merge(self, *args)
            return out + 1 if isinstance(out, int) else out

        monkeypatch.setattr(VectorizedSolver, "_merge_paths", one_too_many)
        g = erdos_renyi(25, 0.3, rng, name="er25")
        report = verify_counting(g, cycle_query(4), seed=5, rank_counts=(2,))
        failed = {failure.split(":")[0] for failure in report.failures}
        assert failed == {"method-agreement", "plan-agreement"}, report.summary()
        assert "ps-vec exact" in report.summary()
