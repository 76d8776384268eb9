"""Link-prediction scores over distance-2 candidate pairs.

For every NON-adjacent unordered vertex pair (u, v) with at least one
common neighbor, emit the classic neighborhood-overlap predictors:
common-neighbor count, Adamic-Adar, resource allocation, Jaccard.

Shape (one shuffle + one aggregate + one anti-join, no all-pairs):
symmetrized adjacency → center-hash exchange (a reduce task owns every
edge of its centers, so deg(center) is a run length and wedge
generation is the same vectorized shift-expansion kernel as triangle
counting, ``pipelines/triangles.py::_wedges_from_adj``) →
per-partition pre-aggregation by packed pair key → pair-key hash
aggregate → anti-join against the canonical edge set → degree lookup
joins. Total work is Σ_w deg(w)² — the true candidate count; hub
centers are optionally capped via ``max_center_degree`` (a capped
center is dropped WHOLE, never sampled, so surviving scores are exact
lower bounds) and the number of dropped centers is counted
distributed and reported in ``metrics``.

Integer-exact outputs so a DuckDB oracle can value-hash them
(the ``harmonic_micro`` trick from ``pipelines/closeness.py``):

- ``cn``, ``deg_u``, ``deg_v`` — exact int64
- ``aa_micro``  = Σ_w floor(1e6/ln(deg_w) + 0.5)   (Adamic-Adar)
- ``ra_micro``  = Σ_w floor(1e6/deg_w + 0.5)       (resource alloc.)
- ``jaccard_micro`` = floor(1e6·cn/(deg_u+deg_v−cn) + 0.5)

IEEE-double ln / division and half-up floor are bit-identical in
numpy and DuckDB, and summation order never touches floats (per-wedge
micro units are floored FIRST, then summed as int64).

The reference has no link-prediction operator — this is §2.9
beyond-reference surface, reusing the oriented-wedge machinery the
reference's triangle path motivated (``bcc_bfs.cpp:1001-1003``'s
packed u64 edge keys).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import DictReader
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.triangles import _pack, _wedges_from_adj

__all__ = ["link_prediction", "linkpred_training_set"]

_FINAL_SCHEMA = pa.schema([
    ("u", pa.int64()), ("v", pa.int64()), ("cn", pa.int64()),
    ("aa_micro", pa.int64()), ("ra_micro", pa.int64()),
    ("jaccard_micro", pa.int64()),
    ("deg_u", pa.int64()), ("deg_v", pa.int64()),
])


def _micro_weights(deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-center (aa_micro, ra_micro) wedge weights; deg ≥ 2 for any
    wedge center so ln(deg) > 0."""
    df = deg.astype(np.float64)
    aa = np.floor(1e6 / np.log(df) + 0.5).astype(np.int64)
    ra = np.floor(1e6 / df + 0.5).astype(np.int64)
    return aa, ra


def _pair_partials(s: np.ndarray, d: np.ndarray, n: int,
                   max_center_degree: int | None) -> pa.Table:
    """Wedge pairs of a co-located adjacency slice, pre-aggregated by
    packed key. ``s`` must contain EVERY edge of each center it holds
    (degree = run length). Returns (key, cn, aa_micro, ra_micro)."""
    empty = pa.table({"key": pa.array([], type=pa.int64()),
                      "cn": pa.array([], type=pa.int64()),
                      "aa_micro": pa.array([], type=pa.int64()),
                      "ra_micro": pa.array([], type=pa.int64())})
    if s.size == 0:
        return empty
    if max_center_degree is not None:
        uniq_c, cnt_c = np.unique(s, return_counts=True)
        ok = cnt_c <= max_center_degree
        if not ok.all():
            keep = ok[np.searchsorted(uniq_c, s)]
            s, d = s[keep], d[keep]
            if s.size == 0:
                return empty
    apex, x, y = _wedges_from_adj(s, d)
    if apex.size == 0:
        return empty
    uniq, cnt = np.unique(s, return_counts=True)
    deg_apex = cnt[np.searchsorted(uniq, apex)]
    aa_w, ra_w = _micro_weights(deg_apex)
    key = _pack(x, y, n)
    uq, inv = np.unique(key, return_inverse=True)
    cn = np.bincount(inv, minlength=uq.size).astype(np.int64)
    aa = np.zeros(uq.size, dtype=np.int64)
    ra = np.zeros(uq.size, dtype=np.int64)
    np.add.at(aa, inv, aa_w)
    np.add.at(ra, inv, ra_w)
    return pa.table({"key": pa.array(uq), "cn": pa.array(cn),
                     "aa_micro": pa.array(aa), "ra_micro": pa.array(ra)})


def _finalize(tbl: pa.Table, n: int) -> pa.Table:
    key = tbl.column("key").to_numpy(zero_copy_only=False)
    cn = tbl.column("cn").to_numpy(zero_copy_only=False)
    du = tbl.column("deg_u").to_numpy(zero_copy_only=False)
    dv = tbl.column("deg_v").to_numpy(zero_copy_only=False)
    union = (du + dv - cn).astype(np.float64)
    jac = np.floor(1e6 * cn.astype(np.float64) / union + 0.5).astype(np.int64)
    return pa.table({
        "u": pa.array(key // np.int64(n)),
        "v": pa.array(key % np.int64(n)),
        "cn": tbl.column("cn"),
        "aa_micro": tbl.column("aa_micro"),
        "ra_micro": tbl.column("ra_micro"),
        "jaccard_micro": pa.array(jac),
        "deg_u": pa.array(du.astype(np.int64)),
        "deg_v": pa.array(dv.astype(np.int64)),
    })


def link_prediction(graph: Graph, top_k: int | None = None,
                    max_center_degree: int | None = None,
                    config: EngineConfig | None = None,
                    metrics: dict | None = None):
    """Neighborhood-overlap link-prediction scores for all non-adjacent
    distance-2 pairs. Local mode returns a ``pa.Table``; distributed /
    sharded mode a Dataset. Columns (original node ids):
    ``(u, v, cn, aa_micro, ra_micro, jaccard_micro, deg_u, deg_v)``,
    u < v. ``top_k`` keeps the k best pairs by (cn desc, u, v) —
    deterministic under ties."""
    cfg = config or graph.config
    t0 = time.perf_counter()
    if graph.mode == "local" and not getattr(graph, "sharded", False):
        out = _local(graph, top_k, max_center_degree, metrics)
    else:
        out = _distributed(graph, cfg, top_k, max_center_degree, metrics)
    if metrics is not None:
        metrics["sec"] = time.perf_counter() - t0
    return out


def _local(graph: Graph, top_k, max_center_degree, metrics) -> pa.Table:
    n = graph.num_vertices
    s, d, _ = graph.local_arrays()
    sym_s = np.concatenate([s, d])
    sym_d = np.concatenate([d, s])
    if max_center_degree is not None and metrics is not None:
        deg_all = np.bincount(sym_s, minlength=n)
        metrics["truncated_centers"] = int(
            (deg_all > max_center_degree).sum())
    part = _pair_partials(sym_s, sym_d, n, max_center_degree)
    key = part.column("key").to_numpy(zero_copy_only=False)
    # drop adjacent pairs: canonical edges are (s<d), same packing
    edge_keys = np.sort(_pack(s, d, n))
    idx = np.minimum(np.searchsorted(edge_keys, key),
                     max(edge_keys.size - 1, 0))
    adjacent = (edge_keys[idx] == key) if edge_keys.size else \
        np.zeros(key.size, dtype=bool)
    part = part.filter(pa.array(~adjacent))
    key = part.column("key").to_numpy(zero_copy_only=False)
    deg = np.bincount(np.concatenate([s, d]), minlength=n).astype(np.int64)
    with_deg = part.append_column(
        "deg_u", pa.array(deg[key // np.int64(n)]))
    with_deg = with_deg.append_column(
        "deg_v", pa.array(deg[key % np.int64(n)]))
    out = _finalize(with_deg, n)
    # original ids
    ids = graph.node_ids
    out = out.set_column(0, "u", pa.array(
        ids[out.column("u").to_numpy()].astype(np.int64)))
    out = out.set_column(1, "v", pa.array(
        ids[out.column("v").to_numpy()].astype(np.int64)))
    order = np.lexsort((out.column("v").to_numpy(),
                        out.column("u").to_numpy(),
                        -out.column("cn").to_numpy()))
    n_candidates = out.num_rows
    out = out.take(pa.array(order[:top_k] if top_k is not None else order))
    if metrics is not None:
        # candidate-pair count BEFORE top_k truncation (matches the
        # distributed path, which counts the anti-joined pair table)
        metrics.update({"pairs": n_candidates, "mode": "local"})
    return out


def _distributed(graph: Graph, cfg: EngineConfig, top_k,
                 max_center_degree, metrics):
    import ray

    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_anti_join,
                                                   hash_lookup_join,
                                                   hash_partition_apply)

    n = graph.num_vertices
    P = cfg.num_partitions

    def symmetrize(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        d = t.column("d").to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array(np.concatenate([s, d])),
                         "d": pa.array(np.concatenate([d, s]))})

    # materialize once: both the degree aggregate and the wedge
    # partition consume sym, and each shuffle stage re-executes its
    # input lineage otherwise (the minhash_dedup double-execution
    # lesson, VERDICT r3 §wrong-1)
    sym = graph.edges.map_batches(symmetrize, batch_format="pyarrow",
                                  batch_size=cfg.batch_size).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        uniq, cnt = np.unique(t.column("s").to_numpy(zero_copy_only=False),
                              return_counts=True)
        return pa.table({"v": pa.array(uniq),
                         "c": pa.array(cnt.astype(np.int64))})

    deg_ds = hash_aggregate(
        sym.map_batches(deg_partial, batch_format="pyarrow"),
        ["v"], [("c", "sum")], num_partitions=P).materialize()
    if max_center_degree is not None and metrics is not None:
        metrics["truncated_centers"] = int(deg_ds.map_batches(
            lambda t: pa.table({"x": pa.array(
                [int((t.column("c").to_numpy() > max_center_degree).sum())],
                type=pa.int64())}),
            batch_format="pyarrow").sum("x") or 0)

    def wedge_part(tbl: pa.Table) -> pa.Table:
        return _pair_partials(
            tbl.column("s").to_numpy(zero_copy_only=False),
            tbl.column("d").to_numpy(zero_copy_only=False),
            n, max_center_degree)

    partials = hash_partition_apply(sym, ["s"], wedge_part,
                                    num_partitions=P)
    agg = hash_aggregate(partials, ["key"],
                         [("cn", "sum"), ("aa_micro", "sum"),
                          ("ra_micro", "sum")], num_partitions=P)

    edge_keys = graph.edges.map_batches(
        lambda t: pa.table({"key": pa.array(
            _pack(t.column("s").to_numpy(zero_copy_only=False),
                  t.column("d").to_numpy(zero_copy_only=False), n))}),
        batch_format="pyarrow", batch_size=cfg.batch_size)
    nonadj = hash_anti_join(agg, edge_keys, on="key",
                            num_partitions=P).materialize()
    n_pairs = nonadj.count()
    if metrics is not None:
        metrics["pairs"] = n_pairs
        metrics["mode"] = "sharded" if graph.sharded else "distributed"
    if n_pairs == 0:
        # Ray skips empty blocks in map_batches, so downstream UDFs
        # would never run and the stale pre-finalize schema would leak
        # out of to_pandas() — return a typed empty instead.
        return ray.data.from_arrow(_FINAL_SCHEMA.empty_table())

    def add_u(t: pa.Table) -> pa.Table:
        k = t.column("key").to_numpy(zero_copy_only=False)
        t = t.append_column("_u", pa.array(k // np.int64(n)))
        return t.append_column("_v", pa.array(k % np.int64(n)))

    keyed = nonadj.map_batches(add_u, batch_format="pyarrow")
    keyed = hash_lookup_join(keyed, deg_ds, "_u", "v", {"c": "deg_u"},
                             num_partitions=P)
    keyed = hash_lookup_join(keyed, deg_ds, "_v", "v", {"c": "deg_v"},
                             num_partitions=P)

    dict_meta = graph.vdict.meta

    def to_orig(t: pa.Table) -> pa.Table:
        out = _finalize(t, n)
        reader = DictReader(dict_meta)
        u = reader.to_original(out.column("u").to_numpy())
        v = reader.to_original(out.column("v").to_numpy())
        return (out.set_column(0, "u", pa.array(u.astype(np.int64)))
                   .set_column(1, "v", pa.array(v.astype(np.int64))))

    out = keyed.map_batches(to_orig, batch_format="pyarrow",
                            batch_size=cfg.batch_size)
    if top_k is not None:
        out = out.sort(["cn", "u", "v"],
                       descending=[True, False, False]).limit(top_k)
    return out


# ---------------------------------------------------------------------------
# training-set construction: positives + deterministic negative sampling
# ---------------------------------------------------------------------------

_TRAIN_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                           ("label", pa.int64())])
_NEG_SALT = np.uint64(0xD1B54A32D192ED03)


def _neg_candidates(s: np.ndarray, d: np.ndarray, n: int,
                    neg_per_pos: int, seed: int) -> pa.Table:
    """k corrupted-endpoint candidates per canonical edge: candidate j
    of edge (s, d) keeps s and replaces d with
    ``splitmix64(pack(s,d) ^ splitmix64(j·SALT ^ seed)) mod n`` — a
    pure function of (edge, j, seed): partitioning/mode invariant.
    Self pairs (s == v') are dropped here; accidental positives are
    dropped by the caller's anti-join. Emitted canonicalized with the
    packed key so one exchange serves dedup + anti-join."""
    from centrality_gpu_ray.nputil import splitmix

    key = _pack(s, d, n).view(np.uint64)
    outs = []
    for j in range(1, neg_per_pos + 1):
        salt = splitmix(np.array([j], dtype=np.uint64) * _NEG_SALT
                        ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))[0]
        v2 = (splitmix(key ^ salt) % np.uint64(n)).astype(np.int64)
        keep = v2 != s
        outs.append(_pack(s[keep], v2[keep], n))
    cand = (np.unique(np.concatenate(outs)) if outs
            else np.empty(0, np.int64))
    return pa.table({"key": pa.array(cand)})


def linkpred_training_set(graph: Graph, neg_per_pos: int = 1,
                          seed: int = 0,
                          config: EngineConfig | None = None):
    """Link-prediction training pairs ``(u, v, label)`` in original
    ids: every canonical edge as a positive (label 1) plus up to
    ``neg_per_pos`` deterministic corrupted-endpoint negatives per
    edge (label 0), verified non-edges by construction (anti-join
    against the edge set — an accidental true edge or a candidate
    minted twice is dropped rather than resampled, so negative counts
    are exact lower bounds; with density ≪ 1 the shortfall is
    O(density)). Same stateless-hash determinism contract as
    ``functions/sampling.py`` / ``pipelines/walks.py``.

    Local mode returns ``pa.Table``; distributed/sharded a Dataset.
    One anti-join exchange total; negatives stream as k× the edge
    rows, never an all-pairs."""
    cfg = config or graph.config
    if neg_per_pos < 1:
        raise ValueError("neg_per_pos must be >= 1")
    n = graph.num_vertices
    if graph.mode == "local":
        s, d, _ = graph.local_arrays()
        cand = _neg_candidates(s, d, n, neg_per_pos, seed) \
            .column("key").to_numpy(zero_copy_only=False)
        edge_keys = np.sort(_pack(s, d, n))
        idx = np.minimum(np.searchsorted(edge_keys, cand),
                         max(edge_keys.size - 1, 0))
        hit = (edge_keys[idx] == cand) if edge_keys.size else \
            np.zeros(cand.size, dtype=bool)
        neg = cand[~hit]
        ids = graph.node_ids
        u = np.concatenate([ids[s], ids[neg // np.int64(n)]])
        v = np.concatenate([ids[d], ids[neg % np.int64(n)]])
        lab = np.concatenate([np.ones(s.size, np.int64),
                              np.zeros(neg.size, np.int64)])
        order = np.lexsort((v, u, -lab))
        return pa.table({"u": pa.array(u[order]), "v": pa.array(v[order]),
                         "label": pa.array(lab[order])})

    from centrality_gpu_ray.stages.shuffle import hash_anti_join

    def cand_fn(t: pa.Table) -> pa.Table:
        return _neg_candidates(
            t.column("s").to_numpy(zero_copy_only=False),
            t.column("d").to_numpy(zero_copy_only=False),
            n, neg_per_pos, seed)

    cands = graph.edges.map_batches(cand_fn, batch_format="pyarrow",
                                    batch_size=cfg.batch_size)
    edge_keys = graph.edges.map_batches(
        lambda t: pa.table({"key": pa.array(
            _pack(t.column("s").to_numpy(zero_copy_only=False),
                  t.column("d").to_numpy(zero_copy_only=False), n))}),
        batch_format="pyarrow", batch_size=cfg.batch_size)
    # one exchange: the non-edge check; then a per-block unique —
    # anti-join output blocks are one-per-hash-partition, so equal
    # candidate keys (the same pair minted from two different edges)
    # are co-located and the block-local unique is a GLOBAL dedup
    # (keeps exact local/distributed parity). batch_size=None = whole
    # blocks; coalescing only merges, never splits a partition.
    neg_keys = hash_anti_join(cands, edge_keys, on="key",
                              num_partitions=cfg.num_partitions)
    neg_keys = neg_keys.map_batches(
        lambda t: pa.table({"key": pa.array(np.unique(
            t.column("key").to_numpy(zero_copy_only=False)))}),
        batch_format="pyarrow", batch_size=None)

    dict_meta = graph.vdict.meta

    def to_pairs(dense_u, dense_v):
        reader = DictReader(dict_meta)
        return reader.to_original(dense_u), reader.to_original(dense_v)

    def neg_rows(t: pa.Table) -> pa.Table:
        k = t.column("key").to_numpy(zero_copy_only=False)
        u, v = to_pairs(k // np.int64(n), k % np.int64(n))
        return pa.table({"u": pa.array(u.astype(np.int64)),
                         "v": pa.array(v.astype(np.int64)),
                         "label": pa.array(np.zeros(k.size, np.int64))})

    def pos_rows(t: pa.Table) -> pa.Table:
        u, v = to_pairs(t.column("s").to_numpy(zero_copy_only=False),
                        t.column("d").to_numpy(zero_copy_only=False))
        return pa.table({"u": pa.array(u.astype(np.int64)),
                         "v": pa.array(v.astype(np.int64)),
                         "label": pa.array(np.ones(t.num_rows, np.int64))})

    pos = graph.edges.map_batches(pos_rows, batch_format="pyarrow",
                                  batch_size=cfg.batch_size)
    neg = neg_keys.map_batches(neg_rows, batch_format="pyarrow",
                               batch_size=cfg.batch_size)
    return pos.union(neg)
