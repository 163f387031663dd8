#!/usr/bin/env python
"""Network-motif significance analysis (Milo et al. workflow).

The paper's introduction motivates subgraph counting with motif analysis:
find which small subgraphs are over/under-represented in a network
compared to degree-matched random graphs.  This example runs the full
workflow on two structurally different networks:

1. enumerate every 4-node treewidth-2 motif;
2. estimate each motif's count with the color-coding counter (the
   default ``auto`` runs the vectorized sweep, bit-identical to DB);
3. build a degree-preserving null ensemble (double edge swaps);
4. report z-scores and the normalised significance profile.

A clustered network (ring of cliques) should light up the triangle-rich
motifs; an Erdős–Rényi control should sit near zero everywhere.

Run:  python examples/motif_significance.py
"""

import numpy as np

from repro.graph import erdos_renyi, ring_of_cliques
from repro.graph.properties import graph_summary
from repro.motifs import all_tw2_motifs, motif_significance, significance_profile


def analyse(g, motifs, seed):
    print(f"\n--- {g.name}: {graph_summary(g)}")
    results = motif_significance(g, motifs, null_samples=5, trials=4, seed=seed)
    print(f"{'motif':10s} {'edges':>5s} {'observed':>12s} {'null_mean':>12s} "
          f"{'null_std':>10s} {'z':>8s}")
    for q, r in zip(motifs, results):
        z = r.z_score
        z_str = f"{z:8.2f}" if np.isfinite(z) else "     inf"
        print(
            f"{r.motif_name:10s} {q.num_edges():5d} {r.observed:12,.0f} "
            f"{r.null_mean:12,.0f} {r.null_std:10,.0f} {z_str}"
        )
    profile = significance_profile(results)
    print("significance profile:", np.round(profile, 2))
    return profile


def main() -> None:
    rng = np.random.default_rng(99)
    motifs = all_tw2_motifs(4)
    print(f"{len(motifs)} four-node treewidth-2 motifs "
          f"(all connected 4-node graphs except K4)")

    clustered = ring_of_cliques(10, 5)
    clustered.name = "clique-ring"
    control = erdos_renyi(50, clustered.avg_degree() / 49, rng, name="er-control")

    p1 = analyse(clustered, motifs, seed=1)
    p2 = analyse(control, motifs, seed=2)

    corr = float(np.dot(p1, p2))
    print(f"\nprofile correlation between the two networks: {corr:.2f}")
    print("(clustered networks diverge from their degree-null; ER does not)")


if __name__ == "__main__":
    main()
