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
shard pool (``ShardPool.triangle_pass``): four owner-routed rounds
build degree chunks, send each oriented edge to its apex's owner, send
each wedge to the owner of its lower-ranked endpoint (the closing edge
is that endpoint's out-edge, so the owner's own sorted keys decide it)
and send the corner credits to their vertices' owners. No Ray Data
execution and no edge-key broadcast, so one path serves every size.
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
        wedges, matched, tri_sum, pair_sum, c_sum = pool.triangle_pass(n)
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


def oriented_edges_ds(graph: Graph, cfg: EngineConfig):
    """Materialized Dataset of degree-ordered oriented edges (a, b) —
    broadcast degree vector on dense graphs, co-partitioned degree
    lookup joins on sharded ones (no O(n) driver vector)."""
    import ray

    if not getattr(graph, "sharded", False):
        deg_ref = ray.put(graph.out_degree)

        def orient_batch(batch: pa.Table, _deg_ref=deg_ref) -> pa.Table:
            dg = ray.get(_deg_ref)
            s = batch.column("s").to_numpy()
            d = batch.column("d").to_numpy()
            a, b = _orient(s, d, dg)
            return pa.table({"a": pa.array(a), "b": pa.array(b)})

        return graph.edges.map_batches(orient_batch, batch_format="pyarrow",
                                       batch_size=cfg.batch_size).materialize()

    from centrality_gpu_ray.stages.shuffle import hash_aggregate, hash_lookup_join

    P = cfg.num_partitions

    def deg_partial(t: pa.Table) -> pa.Table:
        v = np.concatenate([t.column("s").to_numpy(),
                            t.column("d").to_numpy()])
        uniq, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uniq),
                         "c": pa.array(cnt.astype(np.int64))})

    deg_ds = hash_aggregate(
        graph.edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["v"], [("c", "sum")], num_partitions=P)
    pairs = graph.edges.map_batches(
        lambda t: t.select(["s", "d"]), batch_format="pyarrow")
    with_ds = hash_lookup_join(pairs, deg_ds, "s", "v", {"c": "_deg_s"},
                               num_partitions=P)
    with_dd = hash_lookup_join(with_ds, deg_ds, "d", "v", {"c": "_deg_d"},
                               num_partitions=P)

    def orient_b(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy()
        d = t.column("d").to_numpy()
        gs = t.column("_deg_s").to_numpy()
        gd = t.column("_deg_d").to_numpy()
        swap = (gd < gs) | ((gd == gs) & (d < s))
        return pa.table({"a": pa.array(np.where(swap, d, s)),
                         "b": pa.array(np.where(swap, s, d))})

    return with_dd.map_batches(orient_b, batch_format="pyarrow",
                               batch_size=cfg.batch_size).materialize()


def original_ids_mapper(graph: Graph):
    """Returns f(dense_id_array) → original-id array usable inside
    map_batches tasks: a broadcast node_ids gather on dense graphs, a
    distributed-dictionary reader on sharded ones."""
    import ray

    if not getattr(graph, "sharded", False):
        ids_ref = ray.put(graph.node_ids)

        def to_orig(dense: np.ndarray) -> np.ndarray:
            return ray.get(ids_ref)[dense]

        return to_orig

    from centrality_gpu_ray.nputil import DictReader

    meta = (graph.vdict.mins, graph.vdict.offsets, graph.vdict.block_refs)
    reader_box: list = []

    def to_orig(dense: np.ndarray) -> np.ndarray:
        if not reader_box:
            reader_box.append(DictReader(meta))
        return reader_box[0].to_original(dense.astype(np.int64))

    return to_orig


def _support_counts_ds(oriented, n: int, cfg: EngineConfig):
    """Oriented-edge Dataset → per-packed-edge-key triangle-support
    counts ``(key, c)``: apex-hash wedge generation, packed-key
    semi-join against the edge set, per-triangle 3-edge credits,
    hash-aggregated. Shared by :func:`edge_support` and the k-truss
    peel rounds (``truss.py``) so the kernel can't diverge."""
    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_partition_apply,
                                                   hash_semi_join)

    P = cfg.num_partitions

    def wedge_part(tbl: pa.Table) -> pa.Table:
        apex, x, y = _wedges_from_adj(
            tbl.column("a").to_numpy(zero_copy_only=False),
            tbl.column("b").to_numpy(zero_copy_only=False))
        return pa.table({"apex": pa.array(apex),
                         "key": pa.array(_pack(x, y, n))})

    def edge_keys(tbl: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(
            _pack(tbl.column("a").to_numpy(),
                  tbl.column("b").to_numpy(), n))})

    def tri_edge_credits(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy()
        apex = batch.column("apex").to_numpy()
        xx = key // np.int64(n)
        yy = key % np.int64(n)
        keys3 = np.concatenate([_pack(apex, xx, n), _pack(apex, yy, n), key])
        uniq, cnt = np.unique(keys3, return_counts=True)
        return pa.table({"key": pa.array(uniq),
                         "c": pa.array(cnt.astype(np.int64))})

    wedges = hash_partition_apply(oriented, ["a"], wedge_part,
                                  num_partitions=P)
    keys_ds = oriented.map_batches(edge_keys, batch_format="pyarrow",
                                   batch_size=cfg.batch_size)
    matched = hash_semi_join(wedges, keys_ds, on="key", num_partitions=P)
    return hash_aggregate(matched.map_batches(tri_edge_credits,
                                              batch_format="pyarrow"),
                          ["key"], [("c", "sum")], num_partitions=P)


def edge_support(graph: Graph, config: EngineConfig | None = None,
                 metrics: dict | None = None):
    """Per-edge triangle support: for every canonical edge (src < dst)
    the number of triangles containing it — the k-truss building block
    (an edge is in the k-truss iff support ≥ k−2). Same oriented-wedge
    semi-join as :func:`triangle_counts`, but each matched wedge
    credits its THREE edges (apex–x, apex–y, x–y) instead of its three
    vertices, and the counts aggregate per packed edge key rather than
    per vertex. Returns ``(src, dst, support)`` in original ids
    (zero-support edges included); a ``pa.Table`` in local mode, a
    Dataset otherwise."""
    cfg = config or graph.config
    t0 = time.perf_counter()
    n = graph.num_vertices

    if not getattr(graph, "sharded", False) and graph.mode == "local":
        deg = graph.out_degree
        s, d, _ = graph.local_arrays()
        a, b = _orient(s, d, deg)
        apex, x, y = _wedges_from_adj(a, b)
        canon = _pack(s, d, n)
        order = np.argsort(canon)
        canon_sorted = canon[order]
        support = np.zeros(canon.size, dtype=np.int64)
        if apex.size and canon.size:
            wk = _pack(x, y, n)
            idx = np.minimum(np.searchsorted(canon_sorted, wk),
                             canon_sorted.size - 1)
            match = canon_sorted[idx] == wk
            am, xm, ym = apex[match], x[match], y[match]
            keys3 = np.concatenate([_pack(am, xm, n), _pack(am, ym, n),
                                    wk[match]])
            uniq, cnt = np.unique(keys3, return_counts=True)
            pos = np.searchsorted(canon_sorted, uniq)
            support[order[pos]] = cnt
        if metrics is not None:
            metrics.update({"sec": time.perf_counter() - t0, "mode": "local"})
        return pa.table({
            "src": pa.array(graph.node_ids[s], type=pa.int64()),
            "dst": pa.array(graph.node_ids[d], type=pa.int64()),
            "support": pa.array(support),
        })

    from centrality_gpu_ray.stages.shuffle import hash_lookup_join

    P = cfg.num_partitions
    oriented = oriented_edges_ds(graph, cfg)
    sup = _support_counts_ds(oriented, n, cfg)

    to_orig = original_ids_mapper(graph)

    def canon_rows(batch: pa.Table, _to_orig=to_orig) -> pa.Table:
        s = batch.column("s").to_numpy()
        d = batch.column("d").to_numpy()
        return pa.table({"key": pa.array(_pack(s, d, n)),
                         "src": pa.array(_to_orig(s), type=pa.int64()),
                         "dst": pa.array(_to_orig(d), type=pa.int64())})

    canon_ds = graph.edges.map_batches(canon_rows, batch_format="pyarrow",
                                       batch_size=cfg.batch_size)
    out = hash_lookup_join(canon_ds, sup, "key", "key", {"c": "support"},
                           num_partitions=P, outer_fill={"support": 0})
    out = out.map_batches(
        lambda t: pa.table({"src": t.column("src"), "dst": t.column("dst"),
                            "support": t.column("support").cast(pa.int64())}),
        batch_format="pyarrow")
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
    the local path the owners of ``triangle_pass`` emit the rows and
    the two scalar partials from the degree chunks they already hold."""
    return _count(graph, metrics, clustering=True)
