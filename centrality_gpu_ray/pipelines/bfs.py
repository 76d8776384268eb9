"""Level-synchronous BFS — the superstep template operator (I1/I2).

The reference's direction-optimizing BFS (``bcc_bfs_do_bfs``
``bcc_bfs.cpp:300-604``: Beamer α/β switch at 542-567, per-thread
frontier buffers merged by thread 0, ``PARALLEL_CUTOFF`` serial
fallback) maps to: driver superstep loop over owner-resident level and
parent vectors on the shard pool (``ShardPool.bfs_step_sharded``, dense
and sharded graphs alike). Per superstep each edge shard returns the
min parent per newly reached neighbor and each range owner adopts the
min across shards. A small frontier (< n/8) touches only its own
adjacency segments (top-down), with the owners' frontier id parts
going straight from one step's owners to the next step's shards; a
wide one streams all messages against the owners' level chunks and
drops visited targets shard-side (bottom-up) — the α/β switch. The
serial fallback is the engine's ``local`` mode (whole edge table on the
driver). Both loops run until a level adds no vertex, so a long path
is never cut short by ``max_supersteps``.

Returns ``(node, level, parent[, disc_time])``; unreachable vertices
get level −1, parent −1. Parent selection is deterministic: min-id
neighbor among those at level−1 (the reference takes OpenMP scan
order, which is not). ``disc_time`` (dense graphs only) is each
reached vertex's rank in (level, node id) order.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import DictReader
from centrality_gpu_ray.pipelines.graph import Graph


def bfs(graph: Graph, source: int, config: EngineConfig | None = None,
        metrics: dict | None = None):
    """BFS from `source` (an *original* node id): a ``pa.Table`` on
    dense graphs, a Dataset of (node, level, parent) on sharded ones."""
    cfg = config or graph.config
    src = graph.dense_index(np.array([source], dtype=np.int64))
    if src is None:
        raise ValueError(f"source {source} not in graph")
    src = int(src[0])
    t0 = time.perf_counter()
    if graph.mode == "local":
        level, parent = _bfs_local(graph, src)
        depth, reached = int(level.max()), int((level >= 0).sum())
        out = pa.table({
            "node": pa.array(graph.node_ids, type=pa.int64()),
            "level": pa.array(level),
            "parent": pa.array(np.where(
                parent >= 0, graph.node_ids[np.maximum(parent, 0)], -1)),
        })
    else:
        depth, reached = _bfs_pool(graph, src, cfg)
        out = graph.owner_scores(graph.pool, "level", cast="int64",
                                 aux_col="parent", aux_ids=True)
    if metrics is not None:
        metrics.update({"sec": time.perf_counter() - t0, "depth": depth,
                        "reached": reached,
                        "mode": "sharded" if graph.sharded else graph.mode})
    if graph.sharded:
        return out
    level = out.column("level").to_numpy()
    disc = np.full(level.size, -1, dtype=np.int64)
    order = np.argsort(level, kind="stable")  # dense id = node-id order
    order = order[level[order] >= 0]
    disc[order] = np.arange(order.size, dtype=np.int64)
    return out.append_column("disc_time", pa.array(disc))


def _bfs_local(graph: Graph, src: int):
    """Driver-numpy level/parent vectors (dense ids)."""
    n = graph.num_vertices
    s, d, _ = graph.local_arrays()
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    level[src] = 0
    frontier = np.array([src], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        in_f = np.zeros(n, dtype=bool)
        in_f[frontier] = True
        v = np.concatenate([d[in_f[s]], s[in_f[d]]])
        p = np.concatenate([s[in_f[s]], d[in_f[d]]])
        keep = level[v] == -1
        v, p = v[keep], p[keep]
        # min parent per newly reached v
        order = np.lexsort((p, v))
        v, p = v[order], p[order]
        first = np.ones(v.size, dtype=bool)
        first[1:] = v[1:] != v[:-1]
        frontier = v[first]
        level[frontier] = depth
        parent[frontier] = p[first]
    return level, parent


def _bfs_pool(graph: Graph, src: int, cfg: EngineConfig):
    """Owner-resident level (state) and parent (aux) vectors on the
    graph's pool; returns (depth, #reached)."""
    import ray

    pool = graph.pool
    pool.setup_owner_ranges(graph.num_vertices)
    ray.get([a.owner_fill_state.remote(-1.0) for a in pool.actors])
    ray.get([a.owner_fill_aux.remote(-1.0) for a in pool.actors])
    ray.get([a.owner_set_value.remote(src, 0.0) for a in pool.actors])
    depth, reached, frontier, carry = 0, 1, 1, None
    while True:
        # frontier = |level depth| from the previous superstep's adopt
        # count — drives the top-down/bottom-up direction switch
        new, carry = pool.bfs_step_sharded(
            carry, depth,
            frontier_size=frontier if cfg.bfs_direction_opt else None)
        if new == 0:
            return depth, reached
        reached += new
        frontier = new
        depth += 1


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
    # O(k log) page touches on zero-copy plasma views, no O(n) pull
    sources = DictReader(graph.vdict.meta).to_original(np.sort(dense_sample))
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
