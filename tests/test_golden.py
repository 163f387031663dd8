"""Golden-file regression fixtures for the whole Figure 8 query library.

``tests/golden/fig8_counts.json`` pins the exact per-trial colorful
counts of every Figure 8 query (and every labeled library template) on a
fixed builtin-dataset subset, under a fixed engine configuration.  The
engine draws colorings deterministically from the seed, so these numbers
are bit-stable across machines and Python/numpy versions — any kernel
refactor that silently changes results fails here first, before the
statistical tests could notice.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and commit the diff (reviewers then see exactly which counts moved).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bench.datasets import dataset
from repro.engine import CountingEngine, EngineConfig
from repro.query.library import labeled_queries, paper_queries

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "fig8_counts.json")

#: builtin stand-ins where the whole library solves in a few seconds
GOLDEN_DATASETS = ("condmat", "roadnetca", "brain")

#: fixed engine configuration: the counts below are exact for this config
GOLDEN_CONFIG = EngineConfig(method="ps-vec", trials=2, seed=0)

#: deterministic 2-class vertex labels for the labeled section
GRAPH_LABEL_CLASSES = 2
GRAPH_LABEL_SEED = 12345


def _labeled_dataset(name: str):
    g = dataset(name)
    rng = np.random.default_rng(GRAPH_LABEL_SEED)
    return g.with_labels(rng.integers(0, GRAPH_LABEL_CLASSES, size=g.n))


def compute_golden() -> dict:
    """The current counts in the committed fixture's exact shape."""
    doc = {
        "schema": "repro-golden/1",
        "engine": {
            "method": GOLDEN_CONFIG.method,
            "trials": GOLDEN_CONFIG.trials,
            "seed": GOLDEN_CONFIG.seed,
        },
        "graph_labels": {"classes": GRAPH_LABEL_CLASSES, "seed": GRAPH_LABEL_SEED},
        "unlabeled": {},
        "labeled": {},
    }
    for gname in GOLDEN_DATASETS:
        with CountingEngine(dataset(gname), GOLDEN_CONFIG) as engine:
            doc["unlabeled"][gname] = {
                qname: engine.count(q).colorful_counts
                for qname, q in sorted(paper_queries().items())
            }
        with CountingEngine(_labeled_dataset(gname), GOLDEN_CONFIG) as engine:
            doc["labeled"][gname] = {
                qname: engine.count(q).colorful_counts
                for qname, q in sorted(labeled_queries().items())
            }
    return doc


def test_fig8_counts_match_golden(request):
    update = request.config.getoption("--update-golden")
    current = compute_golden()
    if update:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(
            "tests/golden/fig8_counts.json is missing; regenerate with "
            "`pytest tests/test_golden.py --update-golden` and commit it"
        )
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert current == golden, (
        "exact counts drifted from tests/golden/fig8_counts.json — if the "
        "change is intentional, regenerate with --update-golden and commit"
    )


def test_golden_counts_backend_independent():
    """The pinned numbers are not a ps-vec artifact: ps reproduces a slice.

    One (dataset, query) cell per section is cross-checked against the
    dict-kernel PS backend — the golden file then transitively pins every
    backend that the differential matrix proves bit-identical.
    """
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    with CountingEngine(dataset("condmat"), GOLDEN_CONFIG) as engine:
        r = engine.count(paper_queries()["glet1"], method="ps")
        assert r.colorful_counts == golden["unlabeled"]["condmat"]["glet1"]
    with CountingEngine(_labeled_dataset("condmat"), GOLDEN_CONFIG) as engine:
        r = engine.count(labeled_queries()["tri-001"], method="ps")
        assert r.colorful_counts == golden["labeled"]["condmat"]["tri-001"]
