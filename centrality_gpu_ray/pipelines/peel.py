"""Iterative degree peeling: pendant pruning (M5) and k-core.

The reference's ``PendantGraph`` peels degree≤1 vertices for up to 5
rounds, recording the removal round and the surviving parent
(``pendant_graph.cpp:9-58``; disabled at ``main.cpp:65`` but live code).
Generalized here to k-core peeling: each round removes vertices whose
*current* degree < k — one degree groupby + one broadcast filter per
round, on a shrinking edge Dataset.

Returns ``(node, round_removed)`` with −1 for survivors (the k-core),
plus the surviving edge Dataset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.pipelines.graph import Graph


def peel(graph: Graph, k: int = 2, max_rounds: int | None = None):
    """Peel vertices with degree < k iteratively.

    ``k=2`` = pendant pruning (reference semantics, default 5 rounds
    there; unbounded here unless ``max_rounds``). Local-kernel on the
    driver-held canonical arrays in local mode; in distributed mode each
    round recomputes degrees via the pre-aggregated groupby and filters
    edge blocks against the broadcast removed-set.
    """
    import ray

    if getattr(graph, "sharded", False):
        return _peel_sharded(graph, k, max_rounds)
    n = graph.num_vertices
    removed_round = np.full(n, -1, dtype=np.int64)
    s, d, _ = graph.local_arrays() if graph.mode == "local" else (None, None, None)

    if graph.mode != "local":
        # distributed: iterate on the materialized edge Dataset
        return _peel_distributed(graph, k, max_rounds)

    alive_edge = np.ones(s.size, dtype=bool)
    rnd = 0
    while max_rounds is None or rnd < max_rounds:
        deg = (np.bincount(s[alive_edge], minlength=n)
               + np.bincount(d[alive_edge], minlength=n))
        doomed = (deg < k) & (deg > 0) & (removed_round == -1)
        # also isolated vertices never seen in surviving edges
        if rnd == 0:
            isolated = (deg == 0) & (removed_round == -1)
            removed_round[isolated] = 0 if k > 0 else -1
        if not doomed.any():
            break
        removed_round[doomed] = rnd
        alive_edge &= ~(doomed[s] | doomed[d])
        rnd += 1

    table = pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "round_removed": pa.array(removed_round),
    })
    core_edges = pa.table({
        "src": pa.array(graph.node_ids[s[alive_edge]]),
        "dst": pa.array(graph.node_ids[d[alive_edge]]),
    })
    return table, core_edges


def _peel_distributed(graph: Graph, k: int, max_rounds: int | None):
    import ray
    from ray.data.aggregate import Sum

    from centrality_gpu_ray.pipelines.graph import _degree_partial

    n = graph.num_vertices
    removed_round = np.full(n, -1, dtype=np.int64)
    edges = graph.edges
    rnd = 0
    while max_rounds is None or rnd < max_rounds:
        deg = np.zeros(n, dtype=np.int64)
        for part in edges.map_batches(_degree_partial, batch_format="pyarrow") \
                .iter_batches(batch_size=None, batch_format="pyarrow"):
            np.add.at(deg, part.column("v").to_numpy(), part.column("c").to_numpy())
        doomed = (deg < k) & (deg > 0) & (removed_round == -1)
        if not doomed.any():
            break
        removed_round[doomed] = rnd
        doomed_ref = ray.put(removed_round >= 0)

        def drop(batch: pa.Table, _ref=doomed_ref) -> pa.Table:
            gone = ray.get(_ref)
            s = batch.column("s").to_numpy()
            d = batch.column("d").to_numpy()
            return batch.filter(pa.array(~(gone[s] | gone[d])))

        edges = edges.map_batches(drop, batch_format="pyarrow").materialize()
        rnd += 1

    table = pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "round_removed": pa.array(removed_round),
    })
    parts = list(edges.iter_batches(batch_size=None, batch_format="pyarrow"))
    core = pa.concat_tables(parts) if parts else pa.table(
        {"s": pa.array([], pa.int64()), "d": pa.array([], pa.int64()),
         "w": pa.array([], pa.int64())})
    core_edges = pa.table({
        "src": pa.array(graph.node_ids[core.column("s").to_numpy()]
                        if core.num_rows else np.empty(0, np.int64)),
        "dst": pa.array(graph.node_ids[core.column("d").to_numpy()]
                        if core.num_rows else np.empty(0, np.int64)),
    })
    return table, core_edges


def _peel_sharded(graph: Graph, k: int, max_rounds: int | None):
    """>dense_vertex_limit peel: fully Dataset-shaped rounds — one
    degree hash-aggregate + two doomed-set lookup joins per round, no
    O(n) driver vector. The vertex dictionary is built from edges, so
    there are no isolated vertices to special-case. Returns
    ``(Dataset(node, round_removed), Dataset(src, dst))`` in original
    ids (−1 = survives in the k-core)."""
    import pyarrow.compute as pc
    import ray
    import ray.data

    from centrality_gpu_ray.pipelines.graph import _degree_partial
    from centrality_gpu_ray.pipelines.triangles import original_ids_mapper
    from centrality_gpu_ray.nputil import DictReader
    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_lookup_join)

    P = graph.config.num_partitions
    edges = graph.edges.map_batches(lambda t: t.select(["s", "d"]),
                                    batch_format="pyarrow").materialize()
    doomed_parts: list = []
    rnd = 0
    while max_rounds is None or rnd < max_rounds:
        deg_ds = hash_aggregate(
            edges.map_batches(_degree_partial, batch_format="pyarrow"),
            ["v"], [("c", "sum")], num_partitions=P)
        doomed = deg_ds.map_batches(
            lambda t: t.filter(pc.less(t.column("c"), k)).select(["v"]),
            batch_format="pyarrow").materialize()
        if doomed.count() == 0:
            break
        r = rnd

        def tag(t: pa.Table, _r=r) -> pa.Table:
            return pa.table({"v": t.column("v"), "round_removed": pa.array(
                np.full(t.num_rows, _r, dtype=np.int64))})

        doomed_parts.append(doomed.map_batches(
            tag, batch_format="pyarrow").materialize())
        doomed_m = doomed.map_batches(
            lambda t: t.append_column("m", pa.array(
                np.ones(t.num_rows, dtype=np.int64))),
            batch_format="pyarrow").materialize()
        with_s = hash_lookup_join(edges, doomed_m, "s", "v",
                                  {"m": "_doom_s"}, num_partitions=P,
                                  outer_fill={"_doom_s": 0})
        with_sd = hash_lookup_join(with_s, doomed_m, "d", "v",
                                   {"m": "_doom_d"}, num_partitions=P,
                                   outer_fill={"_doom_d": 0})
        edges = with_sd.map_batches(
            lambda t: t.filter(pc.and_(
                pc.equal(t.column("_doom_s"), 0),
                pc.equal(t.column("_doom_d"), 0))).select(["s", "d"]),
            batch_format="pyarrow").materialize()
        rnd += 1

    vd = graph.vdict
    dict_meta = (vd.mins, vd.offsets, vd.block_refs)
    offsets = vd.offsets

    @ray.remote
    def block_vertices(bidx: int, meta, lo: int, hi: int):
        reader = DictReader(meta)
        dense = np.arange(lo, hi, dtype=np.int64)
        return pa.table({"v": pa.array(dense),
                         "node": pa.array(reader.to_original(dense))})

    allv = ray.data.from_arrow_refs(
        [block_vertices.remote(b, dict_meta, int(offsets[b]),
                               int(offsets[b + 1]))
         for b in range(len(vd.block_refs))])
    doomed_all = doomed_parts[0] if doomed_parts else None
    for part in (doomed_parts[1:] if doomed_parts else []):
        doomed_all = doomed_all.union(part)
    if doomed_all is None:
        table = allv.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "round_removed": pa.array(np.full(
                                    t.num_rows, -1, dtype=np.int64))}),
            batch_format="pyarrow")
    else:
        table = hash_lookup_join(allv, doomed_all, "v", "v",
                                 {"round_removed": "round_removed"},
                                 num_partitions=P,
                                 outer_fill={"round_removed": -1})
        table = table.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "round_removed": t.column("round_removed")
                                .cast(pa.int64())}),
            batch_format="pyarrow")

    to_orig = original_ids_mapper(graph)

    def finish_edges(t: pa.Table, _to_orig=to_orig) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        d = t.column("d").to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(_to_orig(s), type=pa.int64()),
                         "dst": pa.array(_to_orig(d), type=pa.int64())})

    core_edges = edges.map_batches(finish_edges, batch_format="pyarrow")
    return table, core_edges


def pendant_prune(graph: Graph, max_rounds: int = 5):
    """Reference-shaped pendant peel (degree ≤ 1, bounded rounds)."""
    return peel(graph, k=2, max_rounds=max_rounds)
