"""Sharded-state demo at real scale: PageRank + connected components
+ eigenvector centrality + personalized PageRank + biconnectivity
(articulation points) + batched sampled betweenness + change-driven
label propagation on a synthetic
6M-vertex graph — past ``dense_vertex_limit`` (5M), so
the vertex dictionary, per-vertex state, and results all stay
distributed (no driver O(n) vector anywhere; see
``pipelines/vertexdict.py``).

Graph: chorded ring over 6M vertices (i→i+1 and i→7i+3 mod n, sparse
original ids i*13+5) — O(log n) diameter so min-label CC converges in
a few dozen supersteps. Run: ``python scripts/demo_sharded_6m.py``
(owns its Ray session).
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
os.environ.setdefault("RAY_worker_niceness", "0")

N = int(os.environ.get("GRAFT_DEMO_N", str(6_000_000)))
BLOCK = 500_000


def main():
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from centrality_gpu_ray.config import EngineConfig
    from centrality_gpu_ray.pipelines import (Graph, connected_components,
                                              eigenvector_centrality,
                                              pagerank)

    @ray.remote
    def edge_block(lo: int, hi: int) -> pa.Table:
        i = np.arange(lo, hi, dtype=np.int64)
        src = np.concatenate([i, i])
        # ring + quadratic chords: chord in-degrees vary, so the
        # stationary distribution is non-uniform and PageRank does real
        # supersteps (a linear chord makes the graph regular)
        dst = np.concatenate([(i + 1) % N, (i * i + 3) % N])
        return pa.table({
            "src": pa.array(src * 13 + 5),
            "dst": pa.array(dst * 13 + 5),
            "weight": pa.array(np.ones(src.size, dtype=np.int64)),
        })

    blocks = [edge_block.remote(lo, min(lo + BLOCK, N))
              for lo in range(0, N, BLOCK)]
    edges = ray.data.from_arrow_refs(blocks)

    t0 = time.perf_counter()
    g = Graph(edges, config=EngineConfig())
    build_sec = time.perf_counter() - t0
    assert g.sharded, "graph must exceed dense_vertex_limit"

    m_pr: dict = {}
    t0 = time.perf_counter()
    pr = pagerank(g, EngineConfig(tolerance=1e-6), metrics=m_pr)
    n_pr = pr.count()
    pr_sec = time.perf_counter() - t0

    m_cc: dict = {}
    t0 = time.perf_counter()
    cc = connected_components(g, EngineConfig(), metrics=m_cc)
    # sanity: one component (the chorded ring is connected)
    comp_rows = cc.map_batches(
        lambda t: pa.table({"c": pa.array(
            np.unique(t.column("component").to_numpy()))}),
        batch_format="pyarrow")
    n_comp = len(set(np.concatenate(
        [b.column("c").to_numpy() for b in comp_rows.iter_batches(
            batch_size=None, batch_format="pyarrow")])))
    cc_sec = time.perf_counter() - t0

    m_ev: dict = {}
    t0 = time.perf_counter()
    ev = eigenvector_centrality(
        g, EngineConfig(tolerance=0.0, max_supersteps=8), metrics=m_ev)
    n_ev = ev.count()
    ev_sec = time.perf_counter() - t0

    m_ppr: dict = {}
    t0 = time.perf_counter()
    ppr = pagerank(g, EngineConfig(tolerance=1e-8, max_supersteps=60),
                   metrics=m_ppr,
                   personalization={5: 1.0, (N // 2) * 13 + 5: 1.0})
    n_ppr = ppr.count()
    ppr_sec = time.perf_counter() - t0

    # change-driven label propagation (round 5): owner-resident count
    # tables, only changed vertices ship per superstep. Cross-machinery
    # verification: when the run reports convergence, one FULL-count
    # legacy superstep (lp_step) over the same owner state must find
    # zero changes — the delta-maintained fixpoint satisfies the
    # full-recompute fixpoint exactly.
    from centrality_gpu_ray.pipelines.labelprop import label_propagation

    m_lp: dict = {}
    t0 = time.perf_counter()
    lp = label_propagation(g, EngineConfig(), max_supersteps=30,
                           metrics=m_lp)
    n_lp = lp.count()
    lp_sec = time.perf_counter() - t0
    lp_full_changed = None
    if m_lp.get("converged"):
        lp_full_changed, _ = g.pool.lp_step(None, weighted=True)
        assert lp_full_changed == 0, \
            "converged LP fails the full-recompute fixpoint check"

    # distributed BiCC (round 3): owner-exchange Tarjan–Vishkin + a
    # recursive sharded aux-graph CC — the chorded ring is biconnected,
    # so the expected articulation count is 0 (the work is real: full
    # BFS forest, preorder sweeps, ~m aux edges)
    from centrality_gpu_ray.pipelines.bicc import articulation_points

    m_bicc: dict = {}
    t0 = time.perf_counter()
    art = articulation_points(g, EngineConfig(), metrics=m_bicc)
    n_art = 0
    for b in art.map_batches(
            lambda t: pa.table({"k": pa.array(
                [int(np.count_nonzero(
                    t.column("is_articulation").to_numpy()))])}),
            batch_format="pyarrow").iter_batches(batch_size=None,
                                                 batch_format="pyarrow"):
        n_art += int(np.asarray(b.column("k")).sum())
    bicc_sec = time.perf_counter() - t0

    # batched sampled Brandes (round 3): 8 sources per superstep round
    from centrality_gpu_ray.pipelines.brandes import betweenness_centrality

    m_bc: dict = {}
    t0 = time.perf_counter()
    bc = betweenness_centrality(g, EngineConfig(), max_sources=8,
                                metrics=m_bc)
    n_bc = bc.count()
    bc_sec = time.perf_counter() - t0

    print(json.dumps({
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "sharded": g.sharded,
        "graph_build_sec": round(build_sec, 2),
        "pagerank": {"sec": round(pr_sec, 2),
                     "supersteps": m_pr.get("supersteps"),
                     "edges_per_sec": round(m_pr.get("edges_per_sec", 0)),
                     "result_rows": n_pr},
        "components": {"sec": round(cc_sec, 2),
                       "supersteps": m_cc.get("supersteps"),
                       "num_components": n_comp},
        "eigenvector": {"sec": round(ev_sec, 2),
                        "supersteps": m_ev.get("supersteps"),
                        "result_rows": n_ev},
        "personalized_pagerank": {"sec": round(ppr_sec, 2),
                                  "supersteps": m_ppr.get("supersteps"),
                                  "result_rows": n_ppr},
        "labelprop_change_driven": {
            "sec": round(lp_sec, 2),
            "supersteps": m_lp.get("supersteps"),
            "converged": m_lp.get("converged"),
            "full_recompute_changed": lp_full_changed,
            "result_rows": n_lp},
        "biconnectivity": {"sec": round(bicc_sec, 2),
                           "bfs_depth": m_bicc.get("bfs_depth"),
                           "num_aux_edges": m_bicc.get("num_aux_edges"),
                           "phase_sec": m_bicc.get("bicc_phase_sec"),
                           "articulation_points": n_art},
        "betweenness_sampled8": {"sec": round(bc_sec, 2),
                                 "sources_per_sec": round(
                                     m_bc.get("sources_per_sec", 0), 2),
                                 "result_rows": n_bc},
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
