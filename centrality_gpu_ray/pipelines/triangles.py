"""Triangle counting by degree-ordered orientation + wedge closing.

The reference's skew answer was whole-graph decomposition; ours (per
SURVEY.md §4 and the north_rule) is the classic degree-ordered
orientation: direct each undirected edge ``u→v`` iff
``(deg(u), u) < (deg(v), v)``. Every triangle then has exactly one
*apex* vertex with two out-edges, out-degrees are bounded by O(√m), and
wedge generation skew is capped.

Each wedge (all out-neighbour pairs per apex) whose closing pair is an
edge is one triangle, and credits its apex and both endpoints. Local
mode tests the closing pairs with ``searchsorted`` over the sorted
packed u64 edge keys (the packing trick of ``bcc_bfs.cpp:1001-1003``).
Dense-distributed and sharded graphs run the same test on the resident
shard pool (:func:`triangle_pass`): three owner-routed rounds build
degree chunks, send each oriented edge to its apex's hash owner and
send each wedge to the hash owner of its lower-ranked endpoint (the
closing edge is that endpoint's out-edge, so the owner's own sorted
keys decide it); a fourth sends the corner credits to their vertices'
owners. Edge support (:func:`edge_support`, and the k-truss rounds of
``truss.py``) runs the same first three rounds, then credits edges
instead of corners: the matching actor credits the closing edge, the
apex's actor the two apex edges, each holder keeping its out-edges and
their support resident. No Ray Data execution and no edge-key
broadcast, so one path serves every size.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.shard_actor import _orient, _wedges_from_adj


def triangle_counts(graph: Graph, config: EngineConfig | None = None,
                    metrics: dict | None = None):
    """Returns ``(node, triangles)`` per-vertex counts (vertices with 0
    included): a ``pa.Table`` on dense graphs, a Dataset on sharded
    ones. ``metrics`` gains ``sec``, ``total_triangles``, ``mode`` and
    the message counts ``wedges`` (oriented wedges tested) and
    ``matched`` (closed ones — one per triangle). ``config`` is
    accepted for signature parity with the other operators; the kernel
    has no knobs."""
    return _count(graph, metrics, clustering=False)


def _count(graph: Graph, metrics: dict | None, clustering: bool):
    """Shared body of :func:`triangle_counts` and
    :func:`clustering_coefficients`: numpy on local graphs, the shard
    pool's ``triangle_pass`` otherwise."""
    t0 = time.perf_counter()
    n = graph.num_vertices
    if graph.mode == "local":
        s, d, _ = graph.local_arrays()
        deg = graph.out_degree
        tri, wedges, matched = _count_local(graph, *_orient(s, d, deg))
        pairs = deg * (deg - 1.0) / 2.0
        c = np.divide(tri, pairs, out=np.zeros(n), where=pairs > 0)
        tri_sum, pair_sum, c_sum = tri.sum(), pairs.sum(), c.sum()
        out = graph.scores_table(tri, "triangles")
        if clustering:
            out = out.append_column("clustering", pa.array(c))
    else:
        pool = graph.pool
        wedges, matched, tri_sum, pair_sum, c_sum = triangle_pass(pool, n)
        out = graph.owner_scores(
            pool, "triangles", aux_col="clustering" if clustering else None)
    if metrics is not None:
        metrics.update({
            "sec": time.perf_counter() - t0,
            "total_triangles": int(matched),
            "wedges": int(wedges),
            "matched": int(matched),
            "mode": "sharded" if graph.sharded else graph.mode,
        })
        if clustering:
            metrics.update({
                "avg_clustering": float(c_sum / n) if n else 0.0,
                "transitivity": (float(tri_sum / pair_sum)
                                 if pair_sum > 0 else 0.0),
            })
    return out


def _pack(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return lo * np.int64(n) + hi


def _count_local(graph: Graph, a: np.ndarray, b: np.ndarray):
    """Oriented edges → (per-vertex triangles, #wedges, #matched)."""
    n = graph.num_vertices
    apex, x, y = _wedges_from_adj(a, b)
    edge_keys = np.sort(_pack(a, b, n))
    wedge_keys = _pack(x, y, n)
    idx = np.searchsorted(edge_keys, wedge_keys)
    idx = np.minimum(idx, edge_keys.size - 1)
    hit = edge_keys.size > 0
    match = (edge_keys[idx] == wedge_keys) if hit else np.zeros(0, dtype=bool)
    tri = np.zeros(n, dtype=np.int64)
    for arr in (apex[match], x[match], y[match]):
        np.add.at(tri, arr, 1)
    return tri, int(apex.size), int(match.sum())


def _wedge_rounds(pool, n: int) -> list:
    """Rounds 1–3 of the pool's triangle family: degree chunks,
    oriented edges to their apex's hash owner, wedges to the hash owner
    of their lower-ranked endpoint. Records the owner split on the
    pool; returns the wedge parts' refs."""
    if not pool._frontier_capable:
        raise ValueError(
            "triangle kernels need a pool holding one copy of each edge, "
            "not a state-only pool or a same-vertex tiled one "
            "(replicas > 1, stride == 0)")
    from centrality_gpu_ray.pipelines.shards import assemble

    actors = pool.actors
    bounds = pool.split(n)
    deg_outs = [a.degree_partials.remote(bounds) for a in actors]
    deg_full = assemble([
        a.owner_tri_degree.remote(int(bounds[p]), int(bounds[p + 1]), p,
                                  *deg_outs)
        for p, a in enumerate(actors)])
    edge_outs = [a.shard_tri_orient.remote(len(actors), deg_full)
                 for a in actors]
    return [a.owner_tri_wedges.remote(n, deg_full, p, *edge_outs)
            for p, a in enumerate(actors)]


def triangle_pass(pool, n: int) -> tuple:
    """Exact per-vertex triangle counts into the pool owners' state
    (and local clustering into their aux): :func:`_wedge_rounds`, then
    corner credits by vertex owner. The driver routes refs and sums 5P
    scalars. Returns (wedges tested, wedges matched, Σtriangles,
    Σ C(deg, 2), Σclustering)."""
    import ray

    wedge_outs = _wedge_rounds(pool, n)
    credit_outs = [a.owner_tri_match.remote(n, pool.bounds, p, *wedge_outs)
                   for p, a in enumerate(pool.actors)]
    parts = ray.get([a.owner_tri_fold.remote(p, *credit_outs)
                     for p, a in enumerate(pool.actors)])
    return tuple(map(sum, zip(*parts)))


def _support_round(pool, n: int, wedge_outs: list, thresh: int,
                   rnd: int) -> int:
    """Support of every edge the actors keep, from the wedge parts
    ``wedge_outs`` (closing-edge credits, then apex-edge credits);
    edges below ``thresh`` leave the kept set under round ``rnd``.
    Returns how many left."""
    import ray

    actors = pool.actors
    credit_outs = [a.owner_sup_match.remote(n, p, *wedge_outs)
                   for p, a in enumerate(actors)]
    return sum(ray.get([a.owner_sup_fold.remote(thresh, rnd, p,
                                                 *credit_outs)
                        for p, a in enumerate(actors)]))


def edge_support(graph: Graph, config: EngineConfig | None = None,
                 metrics: dict | None = None):
    """Per-edge triangle support: for every canonical edge (src < dst)
    the number of triangles containing it — the k-truss building block
    (an edge is in the k-truss iff support ≥ k−2). Same oriented-wedge
    test as :func:`triangle_counts`, but each closed wedge credits its
    THREE edges (apex–x, apex–y, x–y) instead of its three vertices.
    Returns ``(src, dst, support)`` in original ids (zero-support edges
    included): a ``pa.Table`` on dense graphs, a Dataset on sharded
    ones. ``config`` is accepted for signature parity."""
    t0 = time.perf_counter()
    n = graph.num_vertices
    if graph.mode == "local":
        from centrality_gpu_ray.pipelines.truss import _support_for_alive

        s, d, _ = graph.local_arrays()
        # canonical edges sorted by (s, d) pack to sorted keys, so the
        # support vector lines up with them
        _, support = _support_for_alive(*_orient(s, d, graph.out_degree), n)
        out = pa.table({
            "src": pa.array(graph.node_ids[s], type=pa.int64()),
            "dst": pa.array(graph.node_ids[d], type=pa.int64()),
            "support": pa.array(support),
        })
    else:
        pool = graph.pool
        _support_round(pool, n, _wedge_rounds(pool, n), 0, 0)
        out = graph.owner_edges([a.owner_sup_rows.remote(n, False)
                                 for a in pool.actors], "support")
    if metrics is not None:
        metrics.update({"sec": time.perf_counter() - t0, "mode": graph.mode})
    return out


def clustering_coefficients(graph: Graph,
                            config: EngineConfig | None = None,
                            metrics: dict | None = None):
    """Local clustering coefficients — ``(node, triangles,
    clustering)`` with ``clustering = triangles(v) / C(deg(v), 2)``
    (0 where deg < 2); ``metrics`` gains ``avg_clustering`` (mean over
    all vertices — Watts–Strogatz) and ``transitivity`` (global
    3·triangles / wedges) next to the :func:`triangle_counts` keys.
    Dense graphs return a ``pa.Table``, sharded graphs a Dataset; off
    the local path the owners of :func:`triangle_pass` emit the rows and
    the two scalar partials from the degree chunks they already hold."""
    return _count(graph, metrics, clustering=True)
