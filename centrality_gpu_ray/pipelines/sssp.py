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
distributed superstep (one assembled broadcast + range-split partials
per step, ``ShardPool.sssp_step``).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph

_INF = np.float64(np.inf)


def sssp(graph: Graph, source: int, config: EngineConfig | None = None,
         metrics: dict | None = None) -> pa.Table:
    """Weighted shortest distances from ``source`` (original node id).
    Returns ``(node, distance)``; unreachable vertices get -1."""
    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _sssp_sharded(graph, source, cfg, metrics)
    n = graph.num_vertices
    src_idx = graph.dense_index(np.array([source], dtype=np.int64))
    if src_idx is None:
        raise ValueError(f"source {source} not in graph")
    src_idx = int(src_idx[0])

    dist = np.full(n, _INF, dtype=np.float64)
    dist[src_idx] = 0.0
    t0 = time.perf_counter()
    step, changed = 0, True
    if graph.mode != "local":
        graph.pool.setup_owners(np.ones(n, dtype=np.float64), dist)
        while changed and step < cfg.max_supersteps:
            changed = graph.pool.sssp_step() > 0
            step += 1
        dist = graph.pool.collect_state()
    else:
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
    elapsed = time.perf_counter() - t0

    if changed:
        raise RuntimeError(
            f"sssp hit max_supersteps={cfg.max_supersteps} without "
            "converging (hop diameter exceeds the cap)")
    if metrics is not None:
        metrics.update({"supersteps": step, "sec": elapsed,
                        "reached": int(np.isfinite(dist).sum()),
                        "mode": graph.mode})
    out = np.where(np.isfinite(dist), dist, -1.0)
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "distance": pa.array(out.astype(np.int64)),
    })


def _sssp_sharded(graph: Graph, source: int, cfg: EngineConfig,
                  metrics: dict | None):
    """>dense_vertex_limit SSSP: distances live sharded in the owner
    actors; source resolved through the vertex dictionary. Returns a
    Dataset of (node, distance), unreachable -1."""
    import ray

    from centrality_gpu_ray.pipelines.vertexdict import (_DictReader,
                                                         scores_dataset)

    reader = _DictReader((graph.vdict.mins, graph.vdict.offsets,
                          graph.vdict.block_refs))
    src_arr = np.array([source], dtype=np.int64)
    if source < int(graph.vdict.mins[0]):
        raise ValueError(f"source {source} not in graph")
    src_dense = int(reader.to_dense(src_arr)[0])
    if (not 0 <= src_dense < graph.num_vertices
            or int(reader.to_original(
                np.array([src_dense], dtype=np.int64))[0]) != source):
        raise ValueError(f"source {source} not in graph")

    n = graph.num_vertices
    pool = graph.pool
    pool.setup_owners_sharded(n)
    ray.get([a.owner_fill_state.remote(float("inf")) for a in pool.actors])
    ray.get([a.owner_set_value.remote(src_dense, 0.0) for a in pool.actors])
    import time as _time

    t0 = _time.perf_counter()
    step, changed = 0, True
    while changed and step < cfg.max_supersteps:
        changed = pool.sssp_step() > 0
        step += 1
    elapsed = _time.perf_counter() - t0
    if changed:
        raise RuntimeError(
            f"sssp hit max_supersteps={cfg.max_supersteps} without converging")
    if metrics is not None:
        metrics.update({"supersteps": step, "sec": elapsed,
                        "mode": "sharded"})
    ds = scores_dataset(graph.vdict, pool, "distance")

    def finish(t: pa.Table) -> pa.Table:
        v = t.column("distance").to_numpy()
        out = np.where(np.isfinite(v), v, -1.0).astype(np.int64)
        return pa.table({"node": t.column("node"),
                         "distance": pa.array(out)})

    return ds.map_batches(finish, batch_format="pyarrow")
