"""Weighted single-source shortest paths — min-plus supersteps.

The reference's only weighted-graph traversal is its dead CPU Dijkstra
(``apsp_graph.cpp:107-172``, never called by the live drivers —
SURVEY.md §1.1); the Ray-native replacement is the Bellman-Ford
relaxation as a superstep pipeline: per superstep every edge proposes
``dist(u) + w`` to its endpoints and each vertex keeps the min —
exactly the engine's min-aggregate exchange with a fused ``+w``
(``shards.py::shard_gather_minplus``). Converges in (hop diameter)
supersteps; weights are the edge tables' int64 co-occurrence counts,
so distances are exact integers in float64.

Modes mirror CC: local numpy fixpoint, or the owner-resident
distributed superstep on the shard pool for dense and sharded graphs
alike (range-split partials over the owners' distance chunks per step,
``ShardPool.sssp_step``).
"""

from __future__ import annotations

import time

import numpy as np

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph

_INF = np.float64(np.inf)


def sssp(graph: Graph, source: int, config: EngineConfig | None = None,
         metrics: dict | None = None):
    """Weighted shortest distances from ``source`` (original node id).
    Returns ``(node, distance)``; unreachable vertices get -1 (a
    ``pa.Table`` on dense graphs, a Dataset on sharded ones)."""
    import ray

    cfg = config or graph.config
    src = graph.dense_index(np.array([source], dtype=np.int64))
    if src is None:
        raise ValueError(f"source {source} not in graph")
    src = int(src[0])

    t0 = time.perf_counter()
    step, changed = 0, True
    if graph.mode == "local":
        dist = np.full(graph.num_vertices, _INF, dtype=np.float64)
        dist[src] = 0.0
        s, d, w = graph.local_arrays()
        wf = w.astype(np.float64)
        while changed and step < cfg.max_supersteps:
            new = dist.copy()
            fin_s = np.isfinite(dist[s])
            fin_d = np.isfinite(dist[d])
            np.minimum.at(new, d[fin_s], dist[s[fin_s]] + wf[fin_s])
            np.minimum.at(new, s[fin_d], dist[d[fin_d]] + wf[fin_d])
            changed = bool(np.any(new != dist))
            dist = new
            step += 1
        out = graph.scores_table(_distances(dist), "distance")
    else:
        pool = graph.pool
        pool.setup_owner_ranges(graph.num_vertices)
        ray.get([a.owner_fill_state.remote(float("inf"))
                 for a in pool.actors])
        ray.get([a.owner_set_value.remote(src, 0.0) for a in pool.actors])
        carry = None
        while changed and step < cfg.max_supersteps:
            nch, carry = pool.sssp_step(carry)
            changed = nch > 0
            step += 1
        out = graph.owner_scores(pool, "distance", cast=_distances)
    elapsed = time.perf_counter() - t0

    if changed:
        raise RuntimeError(
            f"sssp hit max_supersteps={cfg.max_supersteps} without "
            "converging (hop diameter exceeds the cap)")
    if metrics is not None:
        metrics.update({"supersteps": step, "sec": elapsed,
                        "mode": "sharded" if graph.sharded else graph.mode})
        if not graph.sharded:
            metrics["reached"] = int(
                (out.column("distance").to_numpy() >= 0).sum())
    return out


def _distances(dist: np.ndarray) -> np.ndarray:
    """Owner/driver float distances → int64, unreachable (inf) → -1."""
    return np.where(np.isfinite(dist), dist, -1.0).astype(np.int64)
