"""Eigenvector centrality — power iteration on the (symmetrized)
adjacency, L1-normalized each superstep.

The third classical centrality family next to PageRank and
betweenness; the reference computes only BC/degree
(``kernels_free.cu:245-259``), so this is an engine extension with the
same superstep structure as PageRank minus damping/dangling: per
superstep one gather ``y = A·x`` (optionally weight-scaled) and one
global normalization ``x ← y / Σy``. Local graphs reuse PageRank's
``gather_neighbor_sum`` over the driver arrays; distributed graphs,
dense or sharded, keep ``x`` owner-resident on the shard pool
(``ShardPool.ev_step`` / ``katz_step``), with no O(n) driver section.

Convergence: the L1 delta between successive normalized vectors; with
``tolerance=0`` runs exactly ``max_supersteps`` iterations — the
SQL-checkable fixed variant (power iteration is a deterministic linear
recurrence, so fixed-step outputs are comparable in integer
nano-units).
"""

from __future__ import annotations

import time

import numpy as np

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.pagerank import gather_neighbor_sum


def eigenvector_centrality(graph: Graph, config: EngineConfig | None = None,
                           weighted: bool = False,
                           metrics: dict | None = None):
    """Returns ``(node, eigenvector)`` with the L1-normalized dominant
    eigenvector estimate after power iteration (a ``pa.Table`` on dense
    graphs, a Dataset on sharded ones)."""
    cfg = config or graph.config
    n = graph.num_vertices
    t0 = time.perf_counter()
    step, delta = 0, np.inf
    if graph.mode == "local":
        x = np.full(n, 1.0 / n, dtype=np.float64)
        while step < cfg.max_supersteps and delta > cfg.tolerance:
            y = gather_neighbor_sum(graph, x, weighted)
            total = float(y.sum())
            if total <= 0.0:  # edgeless graph: stay uniform
                break
            new = y / total
            delta = float(np.abs(new - x).sum())
            x = new
            step += 1
        out = graph.scores_table(x, "eigenvector")
    else:
        pool, carry = _pool_filled(graph, 1.0 / n), None
        while step < cfg.max_supersteps and delta > cfg.tolerance:
            delta, carry = pool.ev_step(carry, weighted)
            step += 1
        out = graph.owner_scores(pool, "eigenvector")
    elapsed = time.perf_counter() - t0
    if metrics is not None:
        metrics.update({
            "supersteps": step, "l1_delta": delta, "sec": elapsed,
            "edges_processed": 2 * graph.num_edges * step,
            "edges_per_sec": (2 * graph.num_edges * step) / max(elapsed, 1e-9),
            "mode": "sharded" if graph.sharded else graph.mode,
        })
    return out


def katz_centrality(graph: Graph, alpha: float = 1e-4, beta: float = 1.0,
                    config: EngineConfig | None = None,
                    weighted: bool = False,
                    metrics: dict | None = None):
    """Katz centrality ``x ← β + α·A·x`` from ``x₀ = β`` — attenuated
    walk counting, the damped cousin of eigenvector centrality (same
    gather, no normalization; converges for α < 1/λ_max). Fixed
    supersteps with ``tolerance=0`` give the SQL-checkable variant."""
    cfg = config or graph.config
    t0 = time.perf_counter()
    step, delta = 0, np.inf
    if graph.mode == "local":
        x = np.full(graph.num_vertices, beta, dtype=np.float64)
        while step < cfg.max_supersteps and delta > cfg.tolerance:
            new = beta + alpha * gather_neighbor_sum(graph, x, weighted)
            delta = float(np.abs(new - x).sum())
            x = new
            step += 1
        out = graph.scores_table(x, "katz")
    else:
        pool, carry = _pool_filled(graph, beta), None
        while step < cfg.max_supersteps and delta > cfg.tolerance:
            delta, carry = pool.katz_step(carry, alpha, beta, weighted)
            step += 1
        out = graph.owner_scores(pool, "katz")
    if metrics is not None:
        metrics.update({"supersteps": step, "l1_delta": delta,
                        "sec": time.perf_counter() - t0,
                        "mode": "sharded" if graph.sharded else graph.mode})
    return out


def _pool_filled(graph: Graph, value: float):
    """The graph's pool with owner ranges bound and every state entry
    set to ``value`` (the power iterations need no degrees)."""
    import ray

    pool = graph.pool
    pool.setup_owner_ranges(graph.num_vertices)
    ray.get([a.owner_fill_state.remote(value) for a in pool.actors])
    return pool
