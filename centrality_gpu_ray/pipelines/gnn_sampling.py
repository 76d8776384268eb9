"""GraphSAGE-style layered neighbor sampling — GNN minibatch
preparation (Hamilton et al. 2017, "Inductive Representation Learning
on Large Graphs"; public method, re-derived for this engine).

Given seed vertices and per-layer fanouts, emit the sampled bipartite
edge blocks ``(layer, src, dst)`` where layer-``l`` destinations form
layer-``l+1`` sources — the exact input shape GNN trainers consume
(frontier grows ≤ Π fanouts, minibatch-sized by construction, so the
driver legitimately holds it).

Sampling is DETERMINISTIC and partitioning-invariant: each incident
directed edge ``(v, u)`` at layer ``l`` is ranked by
``splitmix64(pack(v, u) ⊕ mix(seed, l))`` and v keeps its ``fanout``
smallest-ranked distinct neighbors (all of them when deg ≤ fanout) —
a pure function of (graph, seeds, fanouts, seed), identical across
modes, partitionings and engines (the `random_walks` determinism
discipline).

Dense graphs sample from the driver-resident CSR; sharded graphs ask
each shard for its per-source top-``fanout`` candidates from the
frontier's own adjacency segments (``shard_sample_nbrs`` — the
``_frontier_segments`` gather, O(Σdeg(frontier)) per layer, no full
edge scan) and the driver merges the per-shard winners.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.nputil import splitmix
from centrality_gpu_ray.nputil import ragged_arange as _ragged
from centrality_gpu_ray.pipelines.graph import Graph

__all__ = ["neighbor_sample"]

_PHI = np.uint64(0x9E3779B97F4A7C15)


def _edge_rank(src: np.ndarray, nbr: np.ndarray, seed: int,
               layer: int) -> np.ndarray:
    """Content-keyed per-directed-edge rank (dense ids < 2^32)."""
    key = (src.astype(np.uint64) << np.uint64(32)) \
        | nbr.astype(np.uint64)
    salt = splitmix(np.uint64((seed & 0xFFFFFFFF) * 1024 + layer)
                    * _PHI)
    return splitmix(key ^ salt)


def _topf_per_src(src: np.ndarray, nbr: np.ndarray, h: np.ndarray,
                  f: int):
    """Keep each source's f smallest-ranked rows (rows per src must
    be distinct neighbors — callers guarantee via distinct edges);
    returns (src, nbr, rank) of the winners."""
    order = np.lexsort((h, src))
    s_s, n_s, h_s = src[order], nbr[order], h[order]
    starts = np.flatnonzero(np.r_[True, s_s[1:] != s_s[:-1]])
    seg_of = np.repeat(np.arange(starts.size),
                       np.diff(np.r_[starts, s_s.size]))
    pos = np.arange(s_s.size) - starts[seg_of]
    keep = pos < f
    return s_s[keep], n_s[keep], h_s[keep]


def neighbor_sample(graph: Graph, seeds, fanouts=(10, 5),
                    seed: int = 0,
                    metrics: dict | None = None) -> pa.Table:
    """Returns ``(layer, src, dst)`` in ORIGINAL ids; layer-l dst set
    = layer-(l+1) src frontier (deduped per layer)."""
    import time as _time

    seeds = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("neighbor_sample: empty seed set")
    t0 = _time.perf_counter()
    if getattr(graph, "sharded", False):
        out = _sample_sharded(graph, seeds, fanouts, seed)
    else:
        out = _sample_dense(graph, seeds, fanouts, seed)
    if metrics is not None:
        metrics.update({
            "sec": _time.perf_counter() - t0,
            "num_layers": len(fanouts),
            "edges_sampled": out.num_rows,
            "mode": "sharded" if graph.sharded else graph.mode,
        })
    return out


def _out_table(layers, srcs, dsts) -> pa.Table:
    cat = (lambda xs: np.concatenate(xs) if xs
           else np.empty(0, dtype=np.int64))
    return pa.table({
        "layer": pa.array(cat(layers), type=pa.int64()),
        "src": pa.array(cat(srcs), type=pa.int64()),
        "dst": pa.array(cat(dsts), type=pa.int64()),
    })


def _cached_csr(graph: Graph):
    """Doubled, destination-sorted adjacency (neighbors array + per-
    vertex offsets) — a pure function of the graph, built ONCE and
    cached on the Graph object (the `_local`/`_out_degree` discipline;
    a GNN trainer calls neighbor_sample per minibatch, thousands of
    times — an O(m log m) rebuild per call was review finding r5)."""
    cached = getattr(graph, "_sample_csr", None)
    if cached is None:
        s, d, _w = graph.local_arrays()
        n = graph.num_vertices
        v_all = np.concatenate([s, d])
        u_all = np.concatenate([d, s])
        order = np.argsort(v_all, kind="stable")
        v_s = v_all[order]
        offs = np.searchsorted(v_s, np.arange(n + 1, dtype=np.int64))
        cached = (u_all[order], offs)
        graph._sample_csr = cached
    return cached


def _sample_dense(graph: Graph, seeds: np.ndarray, fanouts,
                  seed: int) -> pa.Table:
    ids = graph.node_ids
    pos = np.searchsorted(ids, seeds)
    pos = np.minimum(pos, max(ids.size - 1, 0))
    if ids.size == 0 or not (ids[pos] == seeds).all():
        missing = seeds if ids.size == 0 else seeds[ids[pos] != seeds]
        raise ValueError(
            f"neighbor_sample: seeds not in graph: {missing[:5]}")
    u_s, offs = _cached_csr(graph)
    frontier = pos
    layers, srcs, dsts = [], [], []
    for layer, f in enumerate(fanouts):
        counts = offs[frontier + 1] - offs[frontier]
        idx = np.repeat(offs[frontier], counts) + _ragged(counts)
        nbr = u_s[idx]
        src = np.repeat(frontier, counts)
        ks, kn, _ = _topf_per_src(src, nbr,
                                  _edge_rank(src, nbr, seed, layer),
                                  int(f))
        layers.append(np.full(ks.size, layer, dtype=np.int64))
        srcs.append(ids[ks])
        dsts.append(ids[kn])
        frontier = np.unique(kn)
        if frontier.size == 0:
            break
    return _out_table(layers, srcs, dsts)


def _sample_sharded(graph: Graph, seeds: np.ndarray, fanouts,
                    seed: int) -> pa.Table:
    import ray

    from centrality_gpu_ray.nputil import DictReader

    pool = graph.pool
    if not getattr(pool, "_frontier_capable", True):
        raise ValueError("neighbor_sample: sharded path needs a "
                         "frontier-capable pool")
    reader = DictReader(graph.vdict.meta)
    orig = reader.to_original(np.arange(0))  # warm block fetch
    del orig
    # loud seed validation via clamped round-trip (a foreign id can
    # otherwise map out of range)
    dense_seeds = np.clip(reader.to_dense(seeds), 0,
                          graph.num_vertices - 1)
    back = reader.to_original(dense_seeds)
    if not (back == seeds).all():
        raise ValueError(
            "neighbor_sample: seeds not in graph: "
            f"{seeds[back != seeds][:5]}")
    frontier = np.unique(dense_seeds)
    layers, srcs, dsts = [], [], []
    for layer, f in enumerate(fanouts):
        fr_ref = ray.put(frontier)
        parts = ray.get([a.shard_sample_nbrs.remote(fr_ref, int(f),
                                                    seed, layer)
                         for a in pool.actors])
        src = np.concatenate([p[0] for p in parts])
        nbr = np.concatenate([p[1] for p in parts])
        h = np.concatenate([p[2] for p in parts])
        if src.size == 0:
            break
        # merge the per-shard winners: global top-f per source (a
        # source's edges can span shards)
        ks, kn, _ = _topf_per_src(src, nbr, h, int(f))
        layers.append(np.full(ks.size, layer, dtype=np.int64))
        srcs.append(reader.to_original(ks))
        dsts.append(reader.to_original(kn))
        frontier = np.unique(kn)
        if frontier.size == 0:
            break
    return _out_table(layers, srcs, dsts)
