"""Level-synchronous BFS — the superstep template operator (I1/I2).

The reference's direction-optimizing BFS (``bcc_bfs_do_bfs``
``bcc_bfs.cpp:300-604``: Beamer α/β switch at 542-567, per-thread
frontier buffers merged by thread 0, ``PARALLEL_CUTOFF`` serial
fallback) maps to: driver superstep loop; per superstep a
**frontier-driven gather** — each resident edge shard
(``ShardPool.gather_bfs``) masks its messages by the broadcast frontier
bitmap and returns the min parent per unvisited neighbor, and the
driver keeps the min across shards. The α/β switch is subsumed because
the gather always scans the shard vectorized and masks by frontier
membership, which is the bottom-up formulation (sharded graphs switch
direction explicitly, ``bfs_step_sharded``). The serial fallback is the
engine's ``local`` mode (whole edge table on the driver).

Returns ``(node, level, parent)``; unreachable vertices get level −1,
parent −1. Parent selection is deterministic: min-id neighbor among
those at level−1 (the reference takes OpenMP scan order, which is not).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph


def bfs(graph: Graph, source: int, config: EngineConfig | None = None,
        metrics: dict | None = None) -> pa.Table:
    """BFS from `source` (an *original* node id)."""
    import ray

    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _bfs_sharded(graph, source, cfg, metrics)
    n = graph.num_vertices
    src_idx = int(np.searchsorted(graph.node_ids, source))
    if src_idx >= n or graph.node_ids[src_idx] != source:
        raise ValueError(f"source {source} not in graph")

    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    # discovery time (reference arrangelevels.cpp:11-53): sequential
    # rank in (level, node-id) order — deterministic, unlike the
    # reference's OpenMP scan order
    disc = np.full(n, -1, dtype=np.int64)
    level[src_idx] = 0
    disc[src_idx] = 0
    next_disc = 1
    frontier = np.array([src_idx], dtype=np.int64)
    t0 = time.perf_counter()
    depth = 0
    while frontier.size:
        depth += 1
        in_f = np.zeros(n, dtype=bool)
        in_f[frontier] = True
        if graph.mode == "local":
            s, d, _ = graph.local_arrays()
            v = np.concatenate([d[in_f[s]], s[in_f[d]]])
            p = np.concatenate([s[in_f[s]], d[in_f[d]]])
            keep = level[v] == -1
            v, p = v[keep], p[keep]
        else:
            v, p = graph.pool.gather_bfs(ray.put(in_f), ray.put(level >= 0))
        if v.size == 0:
            break
        # min parent per newly reached v (also merges the shards' partials)
        order = np.lexsort((p, v))
        v, p = v[order], p[order]
        first = np.ones(v.size, dtype=bool)
        first[1:] = v[1:] != v[:-1]
        new, new_par = v[first], p[first]
        level[new] = depth
        parent[new] = new_par
        frontier = np.sort(new)
        disc[frontier] = next_disc + np.arange(frontier.size, dtype=np.int64)
        next_disc += frontier.size

    if metrics is not None:
        metrics.update({"sec": time.perf_counter() - t0, "depth": depth - 1,
                        "reached": int((level >= 0).sum()), "mode": graph.mode})
    par_orig = np.where(parent >= 0, graph.node_ids[np.maximum(parent, 0)], -1)
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "level": pa.array(level),
        "parent": pa.array(par_orig.astype(np.int64)),
        "disc_time": pa.array(disc),
    })


def _bfs_sharded(graph: Graph, source: int, cfg: EngineConfig,
                 metrics: dict | None):
    """>dense_vertex_limit BFS: level + parent vectors live sharded in
    the owner actors. Returns a Dataset of (node, level, parent) in
    original ids (unreached -1; ``disc_time`` is dense-path only)."""
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

    pool = graph.pool
    pool.setup_owners_sharded(graph.num_vertices)
    ray.get([a.owner_fill_state.remote(-1.0) for a in pool.actors])
    ray.get([a.owner_fill_aux.remote(-1.0) for a in pool.actors])
    ray.get([a.owner_set_value.remote(src_dense, 0.0) for a in pool.actors])

    t0 = time.perf_counter()
    depth, reached, frontier = 0, 1, 1
    while depth < cfg.max_supersteps:
        # frontier = |level depth| from the previous superstep's adopt
        # count — drives the top-down/bottom-up direction switch
        new = pool.bfs_step_sharded(
            depth,
            frontier_size=frontier if cfg.bfs_direction_opt else None)
        if new == 0:
            break
        reached += new
        frontier = new
        depth += 1
    if metrics is not None:
        metrics.update({"sec": time.perf_counter() - t0, "depth": depth,
                        "reached": reached, "mode": "sharded"})

    ds = scores_dataset(graph.vdict, pool, "level", aux_col="parent",
                        aux_to_original=True)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"),
            "level": pa.array(t.column("level").to_numpy().astype(np.int64)),
            "parent": t.column("parent"),
        })

    return ds.map_batches(finish, batch_format="pyarrow")


def approx_diameter(graph: Graph, num_samples: int = 32, seed: int = 42,
                    config: EngineConfig | None = None) -> dict:
    """Sampled diameter estimate (A6): BFS depth from a deterministic
    random sample of sources; median + max reported.

    The reference samples its first 512 sources' BFS depths and takes
    the bitonic-sorted median to pick vertex- vs edge-parallel kernels
    (``kernels_free.cu:118-152, 447-471``); here the same sketch is an
    operator whose output can drive the frontier-strategy switch."""
    rng = np.random.default_rng(seed)
    k = min(num_samples, graph.num_vertices)
    dense_sample = rng.choice(graph.num_vertices, size=k, replace=False)
    if getattr(graph, "sharded", False):
        # map sampled dense ids through the distributed dictionary —
        # O(k log) page touches on zero-copy plasma views, no O(n) pull
        from centrality_gpu_ray.pipelines.vertexdict import _DictReader

        reader = _DictReader((graph.vdict.mins, graph.vdict.offsets,
                              graph.vdict.block_refs))
        sources = reader.to_original(np.sort(dense_sample))
    else:
        sources = graph.node_ids[dense_sample]
    depths = []
    for src in sources:
        m: dict = {}
        bfs(graph, int(src), config=config, metrics=m)
        depths.append(m["depth"])
    depths_arr = np.asarray(sorted(depths))
    return {
        "samples": k,
        "median_depth": float(np.median(depths_arr)),
        "max_depth": int(depths_arr.max()),
        "depths": depths_arr.tolist(),
    }
