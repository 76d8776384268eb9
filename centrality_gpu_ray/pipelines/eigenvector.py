"""Eigenvector centrality — power iteration on the (symmetrized)
adjacency, L1-normalized each superstep.

The third classical centrality family next to PageRank and
betweenness; the reference computes only BC/degree
(``kernels_free.cu:245-259``), so this is an engine extension with the
same superstep structure as PageRank minus damping/dangling: per
superstep one gather ``y = A·x`` (optionally weight-scaled) and one
global normalization ``x ← y / Σy``. Dense graphs reuse PageRank's
``gather_neighbor_sum`` (broadcast vector + resident-shard
``gather_sum``, the driver holding ``x``); sharded graphs keep ``x``
owner-resident (``ShardPool.ev_step``), with no O(n) driver section.

Convergence: the L1 delta between successive normalized vectors; with
``tolerance=0`` runs exactly ``max_supersteps`` iterations — the
SQL-checkable fixed variant (power iteration is a deterministic linear
recurrence, so fixed-step outputs are comparable in integer
nano-units).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.pagerank import gather_neighbor_sum


def eigenvector_centrality(graph: Graph, config: EngineConfig | None = None,
                           weighted: bool = False,
                           metrics: dict | None = None) -> pa.Table:
    """Returns ``(node, eigenvector)`` with the L1-normalized dominant
    eigenvector estimate after power iteration."""
    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _eigenvector_sharded(graph, cfg, weighted, metrics)
    n = graph.num_vertices
    x = np.full(n, 1.0 / n, dtype=np.float64)
    t0 = time.perf_counter()
    step, delta = 0, np.inf
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        y = gather_neighbor_sum(graph, x, weighted)
        total = float(y.sum())
        if total <= 0.0:  # edgeless graph: stay uniform
            break
        new = y / total
        delta = float(np.abs(new - x).sum())
        x = new
        step += 1
    elapsed = time.perf_counter() - t0
    if metrics is not None:
        metrics.update({
            "supersteps": step, "l1_delta": delta, "sec": elapsed,
            "edges_processed": 2 * graph.num_edges * step,
            "edges_per_sec": (2 * graph.num_edges * step) / max(elapsed, 1e-9),
            "mode": graph.mode,
        })
    return graph.scores_table(x, "eigenvector")


def katz_centrality(graph: Graph, alpha: float = 1e-4, beta: float = 1.0,
                    config: EngineConfig | None = None,
                    weighted: bool = False,
                    metrics: dict | None = None) -> pa.Table:
    """Katz centrality ``x ← β + α·A·x`` from ``x₀ = β`` — attenuated
    walk counting, the damped cousin of eigenvector centrality (same
    gather, no normalization; converges for α < 1/λ_max). Fixed
    supersteps with ``tolerance=0`` give the SQL-checkable variant."""
    import ray

    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _katz_sharded(graph, alpha, beta, cfg, weighted, metrics)
    n = graph.num_vertices
    x = np.full(n, beta, dtype=np.float64)
    t0 = time.perf_counter()
    step, delta = 0, np.inf
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        y = gather_neighbor_sum(graph, x, weighted)
        new = beta + alpha * y
        delta = float(np.abs(new - x).sum())
        x = new
        step += 1
    if metrics is not None:
        metrics.update({"supersteps": step, "l1_delta": delta,
                        "sec": time.perf_counter() - t0, "mode": graph.mode})
    return graph.scores_table(x, "katz")


def _katz_sharded(graph: Graph, alpha: float, beta: float, cfg: EngineConfig,
                  weighted: bool, metrics: dict | None):
    """Sharded Katz: owner-resident state initialized to β, one
    ``katz_step`` per superstep (O(P) driver scalars)."""
    import ray

    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    pool = graph.pool
    pool.setup_owners_sharded(graph.num_vertices, weighted)
    ray.get([a.owner_fill_state.remote(beta) for a in pool.actors])
    t0 = time.perf_counter()
    step, delta = 0, np.inf
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        delta = pool.katz_step(alpha, beta, weighted)
        step += 1
    if metrics is not None:
        metrics.update({"supersteps": step, "l1_delta": delta,
                        "sec": time.perf_counter() - t0, "mode": "sharded"})
    return scores_dataset(graph.vdict, pool, "katz")


def _eigenvector_sharded(graph: Graph, cfg: EngineConfig, weighted: bool,
                         metrics: dict | None):
    """>dense_vertex_limit path: state stays owner-resident
    (``shards.py::ev_step`` — gather, global-sum, scale), the driver
    handles O(P) scalars per superstep. Returns a Dataset of
    (node, eigenvector)."""
    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    pool = graph.pool
    pool.setup_owners_sharded(graph.num_vertices, weighted)
    t0 = time.perf_counter()
    step, delta = 0, np.inf
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        delta = pool.ev_step(weighted)
        step += 1
    if metrics is not None:
        metrics.update({"supersteps": step, "l1_delta": delta,
                        "sec": time.perf_counter() - t0, "mode": "sharded"})
    return scores_dataset(graph.vdict, pool, "eigenvector")
