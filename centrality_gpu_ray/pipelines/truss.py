"""k-truss decomposition — iterative peel of edges by triangle support.

The edge-level analog of the vertex k-core peel (``pipelines/peel.py``,
reference M5 ``pendant_graph.cpp``): each round removes every surviving
edge whose triangle support (count of triangles containing it, see
``triangles.py::edge_support``) is below ``k − 2``; removing edges
destroys triangles, so rounds repeat until a fixpoint. The surviving
edge set is the k-truss — the standard cohesive-subgraph operator the
reference approximates with its BCC/ear cascade.

Scale shape: the triangle orientation uses the ORIGINAL (degree, id)
total order throughout — correctness of once-per-triangle counting
needs only a fixed total order, so per-round degree recomputation is
avoided. Local graphs run the rounds in numpy. Pool graphs run
``edge_support``'s shard-pool rounds once, then per round re-run
wedges, closing-edge match and edge credits over the out-edges each
actor still keeps (the set shrinks monotonically); an actor drops its
doomed edges into a resident removal log, and the driver sees only P
doomed counts per round. Output: ``(src, dst, round_removed)`` with −1
for edges in the k-truss, mirroring the k-core query shape.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.triangles import (_pack, _support_round,
                                                    _wedge_rounds)
from centrality_gpu_ray.shard_actor import _orient, _wedges_from_adj


def _support_for_alive(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted packed keys of the alive oriented edges, support per key)."""
    keys_sorted = np.sort(_pack(a, b, n))
    support = np.zeros(keys_sorted.size, dtype=np.int64)
    apex, x, y = _wedges_from_adj(a, b)
    if apex.size and keys_sorted.size:
        wk = _pack(x, y, n)
        idx = np.minimum(np.searchsorted(keys_sorted, wk), keys_sorted.size - 1)
        match = keys_sorted[idx] == wk
        am, xm, ym = apex[match], x[match], y[match]
        keys3 = np.concatenate([_pack(am, xm, n), _pack(am, ym, n), wk[match]])
        uniq, cnt = np.unique(keys3, return_counts=True)
        support[np.searchsorted(keys_sorted, uniq)] = cnt
    return keys_sorted, support


def ktruss(graph: Graph, k: int = 4, config: EngineConfig | None = None,
           metrics: dict | None = None):
    """Returns ``(src, dst, round_removed)`` per canonical edge
    (original ids); −1 = the edge survives in the k-truss. At most
    ``max_supersteps`` rounds remove edges. A ``pa.Table`` on dense
    graphs, a Dataset on sharded ones."""
    cfg = config or graph.config
    t0 = time.perf_counter()
    n = graph.num_vertices
    thresh = k - 2

    if graph.mode == "local":
        deg = graph.out_degree
        s, d, _ = graph.local_arrays()
        a, b = _orient(s, d, deg)
        m = a.size
        order = np.argsort(_pack(a, b, n))  # edge index by packed key
        alive = np.ones(m, dtype=bool)
        round_removed = np.full(m, -1, dtype=np.int64)
        rounds = 0
        while rounds < cfg.max_supersteps:
            ai = np.flatnonzero(alive)
            keys_sorted, support = _support_for_alive(a[ai], b[ai], n)
            doomed_local = support < thresh
            if not doomed_local.any():
                break
            # keys_sorted is the sorted packed keys of alive edges; map
            # back to edge indices through the global packed-key order
            alive_sorted_idx = order[alive[order]]
            doomed_idx = alive_sorted_idx[doomed_local]
            round_removed[doomed_idx] = rounds
            alive[doomed_idx] = False
            rounds += 1
        in_truss = int(alive.sum())
        out = pa.table({
            "src": pa.array(graph.node_ids[s], type=pa.int64()),
            "dst": pa.array(graph.node_ids[d], type=pa.int64()),
            "round_removed": pa.array(round_removed),
        })
    else:
        pool = graph.pool
        P = len(pool.actors)
        wedge_outs = _wedge_rounds(pool, n)
        rounds, in_truss = 0, graph.num_edges
        while rounds < cfg.max_supersteps:
            if rounds:
                wedge_outs = [a.owner_sup_wedges.remote(n, P)
                              for a in pool.actors]
            doomed = _support_round(pool, n, wedge_outs, thresh, rounds)
            if doomed == 0:
                break
            in_truss -= doomed
            rounds += 1
        out = graph.owner_edges([a.owner_sup_rows.remote(n, True)
                                 for a in pool.actors], "round_removed")
    if metrics is not None:
        metrics.update({"sec": time.perf_counter() - t0, "rounds": rounds,
                        "in_truss": in_truss, "mode": graph.mode})
    return out
