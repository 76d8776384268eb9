"""The resident edge-shard actor: one edge slice, presorted by message
destination, plus a vertex-range owner role (T1/T2).

``pipelines/shards.py`` deals a graph's edge blocks to a pool of these
actors and drives every superstep; this module is what each actor
process runs. It imports only numpy, pyarrow, ``centrality_gpu_ray.nputil``
and itself, never ``centrality_gpu_ray.pipelines``, ``functions``,
``stages``, pandas or Ray Data, because an actor process loads whatever
its class drags in before it can hold a single edge. Loading the whole
engine that way cost 0.52–0.57 s per actor (pandas alone 0.19–0.24 s),
and an Arrow edge slice made Ray's Arrow deserializer load Ray Data and
pandas (0.36–0.55 s; import times in a fresh interpreter with Ray
loaded, 1 vCPU): together most of the 1.4–2.0 s pool spawn of a cold
job on a 1-vCPU host. So:

* edge slices arrive as ``{column: ndarray}`` dicts
  (``Dataset.to_numpy_refs``), the only form ``_msg_layout`` reads;
* actor results are numpy (an Arrow result would load Ray Data in the
  actor when Ray serializes it), and the one Arrow table an actor
  builds, its checkpoint chunk, is assembled with
  ``pa.Array.from_buffers`` and read back from its value buffer:
  ``pa.array(ndarray)`` and ``Array.to_numpy`` import pandas in
  pyarrow 16, which would land in each actor's first checkpoint write;
* the numpy helpers the kernels share with local-mode pipelines
  (``_pick_labels``, ``_orient``, ``_wedges_from_adj``, ``_mex_compact``)
  live here, and their pipeline modules import them from here.

Only the GNN-sampling and SGNS kernels import pipeline modules,
lazily, so only those families pay for them; the JP priority kernel
reads the vertex dictionary and hashes through ``nputil``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.nputil import DictReader, splitmix
from centrality_gpu_ray.nputil import concat_chunks as _concat
from centrality_gpu_ray.nputil import ragged_arange as _ragged


# -- numpy kernels shared with the local-mode pipelines ---------------------

def _pick_labels(v: np.ndarray, lab: np.ndarray, cnt: np.ndarray,
                 current: np.ndarray) -> np.ndarray:
    """Vectorized argmax-with-tie-break over (v, label, count) rows.

    Order rows by (v, -count, label); the first row per v wins — except
    the current label also wins on a tied count (checked after)."""
    n = current.size
    order = np.lexsort((lab, -cnt, v))
    v_s, lab_s, cnt_s = v[order], lab[order], cnt[order]
    first = np.ones(v_s.size, dtype=bool)
    first[1:] = v_s[1:] != v_s[:-1]
    best_v, best_lab, best_cnt = v_s[first], lab_s[first], cnt_s[first]

    new = current.copy()
    new[best_v] = best_lab
    # keep current label on ties: find rows matching (v, current[v]) with
    # count == best count of v
    best_of = np.zeros(n, dtype=cnt.dtype)
    best_of[best_v] = best_cnt
    cur_rows = lab_s == current[v_s]
    tied = cur_rows & (cnt_s == best_of[v_s])
    new[v_s[tied]] = current[v_s[tied]]
    return new


def _orient(s: np.ndarray, d: np.ndarray, deg: np.ndarray):
    """Canonical edges → oriented (a, b) with (deg, id) order."""
    swap = (deg[d] < deg[s]) | ((deg[d] == deg[s]) & (d < s))
    a = np.where(swap, d, s)
    b = np.where(swap, s, d)
    return a, b


def _wedges_from_adj(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """All out-neighbor pairs per apex → (apex, x, y), fully vectorized.

    Shift-expansion: with edges sorted by (apex, neighbor), the pairs at
    distance ``s`` within each apex's run are ``(b[i], b[i+s])`` for all
    ``i`` whose in-run position leaves room. One vectorized mask per
    shift, ≤ max-out-degree shifts total — O(#wedges) work, no Python
    loop over apexes. Orientation bounds out-degree (≈√2m), so the
    shift count is small even on skewed graphs.
    """
    if a.size == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    order = np.lexsort((b, a))
    a_s, b_s = a[order], b[order]
    n = a_s.size
    run_start = np.r_[True, a_s[1:] != a_s[:-1]]
    starts = np.flatnonzero(run_start)
    counts = np.diff(np.r_[starts, n])
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    # each edge position e (in-run pos i of a k-run) is the FIRST element
    # of (k-1-i) pairs, the second elements being the next k-1-i edges
    rep = np.repeat(counts, counts) - pos - 1            # pairs led by e
    total = int(rep.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    first_idx = np.repeat(np.arange(n, dtype=np.int64), rep)
    seg_start = np.cumsum(rep) - rep                     # output offset per e
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_start, rep)
    second_idx = first_idx + 1 + within
    return a_s[first_idx], b_s[first_idx], b_s[second_idx]


def _mex_compact(v: np.ndarray, c: np.ndarray, k: int,
                 mod: int) -> np.ndarray:
    """Smallest color ≥ 0 absent from each index's pair list, for
    indices ``v`` in [0, k); colors must be < ``mod`` − 1.  Indices
    with no pairs get 0.  Output is a k-vector — callers with a large
    id space pass compacted ranks so the output stays candidate-sized
    (the owner-resident JP path), full-n callers pass k = n."""
    mex = np.zeros(k, dtype=np.int64)
    if v.size == 0:
        return mex
    keys = v * np.int64(mod) + np.minimum(c, mod - 2) + 1
    uniq = np.unique(keys)
    uv = uniq // np.int64(mod)
    uc = uniq % np.int64(mod) - 1
    starts = np.flatnonzero(np.r_[True, uv[1:] != uv[:-1]])
    seg_of = np.repeat(np.arange(starts.size), np.diff(np.r_[starts,
                                                             uv.size]))
    pos = np.arange(uv.size, dtype=np.int64) - starts[seg_of]
    # colors sorted unique per vertex: mex = first position where
    # color != position, else the segment length
    mism = uc != pos
    cand = np.where(mism, pos, np.iinfo(np.int64).max)
    first_mism = np.full(starts.size, np.iinfo(np.int64).max)
    np.minimum.at(first_mism, seg_of, cand)
    seg_len = np.diff(np.r_[starts, uv.size])
    mex_seg = np.where(first_mism < np.iinfo(np.int64).max,
                       first_mism, seg_len)
    mex[uv[starts]] = mex_seg
    return mex


# -- pandas-free Arrow columns ----------------------------------------------

_NUMPY_OF_ARROW = {pa.int64(): np.int64, pa.float64(): np.float64}


def _arrow_column(vec: np.ndarray) -> pa.Array:
    """A 1-D int64/float64 vector as an Arrow array over its own bytes
    (``pa.array`` would import pandas)."""
    vec = np.ascontiguousarray(vec)
    typ = pa.from_numpy_dtype(vec.dtype)
    if typ not in _NUMPY_OF_ARROW:
        raise TypeError(f"unsupported column dtype {vec.dtype}")
    return pa.Array.from_buffers(typ, vec.size, [None, pa.py_buffer(vec)])


def _numpy_column(col: pa.ChunkedArray) -> np.ndarray:
    """A null-free int64/float64 Arrow column as a read-only numpy view
    of its value buffer (``to_numpy`` would import pandas)."""
    arr = col.combine_chunks()
    if arr.null_count or arr.type not in _NUMPY_OF_ARROW:
        raise TypeError(f"unsupported column {arr.type} "
                        f"with {arr.null_count} nulls")
    dtype = _NUMPY_OF_ARROW[arr.type]
    if len(arr) == 0:   # a zero-row column may carry no value buffer
        return np.empty(0, dtype=dtype)
    return np.frombuffer(arr.buffers()[1], dtype=dtype, count=len(arr),
                         offset=arr.offset * 8)


# -- message layout and owner routing ---------------------------------------

def _msg_layout(parts):
    """Both message directions of an (s, d, w) edge slice, lexsorted by
    (v, u) with per-destination segment starts — the resident layout
    every superstep gather relies on. ``parts`` are ``{"s", "d", "w":
    ndarray}`` dicts (``Dataset.to_numpy_refs`` blocks). Returns
    ``(n_edges, u, v, ww, uniq_v, seg)``; shared by the primary shard
    build and ``load_alt_edges`` so the two layouts cannot diverge."""
    s, d, w = (np.concatenate([p[c] for p in parts]) if parts
               else np.empty(0, np.int64) for c in ("s", "d", "w"))
    # both message directions, fixed (v=dst of message, u=src)
    v = np.concatenate([d, s])
    u = np.concatenate([s, d])
    ww = np.concatenate([w, w]).astype(np.float64)
    order = np.lexsort((u, v))
    v = v[order]
    u = u[order]
    ww = ww[order]
    uniq_v, seg = np.unique(v, return_index=True)
    return int(s.size), u, v, ww, uniq_v, seg


def _msg_idtype(u: np.ndarray, v: np.ndarray):
    """int32 message arrays when ids fit: u is the per-message gather
    index — the single biggest superstep stream — and halving it halves
    the dominant DRAM traffic (dense ids < 2^31 is the documented
    vertex envelope; consumers that do id arithmetic cast to int64
    first)."""
    return np.int32 if (v.size == 0 or
                        max(int(v.max(initial=0)),
                            int(u.max(initial=0))) < 2**31) else np.int64


def _range_split_min(u, seg, uniq_v, rep_fold, bounds, lab):
    """Per-destination min gather over one message layout, range-split
    by owner bounds (the CC superstep's shard half)."""
    c = lab[u]
    mins = np.minimum.reduceat(c, seg) if c.size else c
    if rep_fold > 1:
        mins = mins.reshape(rep_fold, -1).min(axis=0)
    cuts = np.searchsorted(uniq_v, bounds)
    return tuple((uniq_v[cuts[i]:cuts[i + 1]],
                  mins[cuts[i]:cuts[i + 1]])
                 for i in range(len(bounds) - 1))


def _range_owner(ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Index of the owner whose [lo, hi) range holds each id, in closed
    form for the pool's split ``bounds[p] = n·p // P``."""
    P, n = len(bounds) - 1, int(bounds[-1])
    return ((ids + 1) * P - 1) // max(n, 1)


def _hash_owner(ids: np.ndarray, P: int) -> np.ndarray:
    """Owner index by a multiplicative hash of the id (ids < 2^31):
    spreads work whose keys cluster in one id range, as the endpoints
    of a skewed graph's wedges do."""
    return (((ids * 0x9E3779B1) & 0xFFFFFFFF) * P) >> 32


def _route(dest: np.ndarray, P: int, *cols):
    """Rows of ``cols`` → one tuple of column slices per owner, row i
    going to owner ``dest[i]`` — the split of one owner-routed
    exchange. Rows keep their order within an owner; the int16 index
    makes the stable argsort a radix sort."""
    dest = dest.astype(np.int16)
    order = np.argsort(dest, kind="stable")
    cuts = np.r_[0, np.cumsum(np.bincount(dest, minlength=P))]
    cols = [c[order] for c in cols]
    return tuple(tuple(c[cuts[i]:cuts[i + 1]] for c in cols)
                 for i in range(P))


def _split_sorted(bounds: np.ndarray, ids: np.ndarray, *cols):
    """Sorted ``ids`` and their parallel ``cols`` → one tuple of slices
    per owner range of ``bounds``."""
    cuts = np.searchsorted(ids, bounds)
    return tuple(tuple(c[cuts[i]:cuts[i + 1]] for c in (ids, *cols))
                 for i in range(len(bounds) - 1))


def _counted(part):
    """(row count, part): an owner round's (scalar, next carry)."""
    return len(part[0] if isinstance(part, tuple) else part), part


def _fold_partials(lo: int, hi: int, my_idx: int, outs,
                   dtype=np.int64) -> np.ndarray:
    """Owner ``my_idx``'s [lo, hi) chunk summed from the shards' range
    partials ``(ids, values)``; ids are unique within one partial."""
    acc = np.zeros(hi - lo, dtype=dtype)
    for out in outs:
        ids, vals = out[my_idx]
        acc[ids - lo] += vals.astype(dtype, copy=False)
    return acc


# -- triangle-family and k-core kernels (layouts: see ``EdgeShard``) --------

def _wedge_msgs(a: np.ndarray, b: np.ndarray, deg: np.ndarray, n: int,
                P: int):
    """The wedges of oriented edges ``a → b``: each as its apex and
    packed closing key ``low·n + high``, routed to the hash owner of
    ``low``."""
    # heads keyed by rank deg·n + id: each apex's pairs then come out
    # rank-ordered, so the first vertex of a pair is its lower endpoint
    apex, x, y = _wedges_from_adj(a, deg[b] * n + b)
    low = x % n
    return _route(_hash_owner(low, P), P, apex, low * n + y % n)


def _closing_hits(keys: np.ndarray, key: np.ndarray):
    """Position of each closing key in the sorted out-edge ``keys``,
    and whether it is there."""
    if keys.size == 0:
        return (np.zeros(key.size, dtype=np.int64),
                np.zeros(key.size, dtype=bool))
    idx = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    return idx, keys[idx] == key


def _support_match(keys: np.ndarray, apex: np.ndarray, key: np.ndarray,
                   n: int, P: int):
    """Each wedge closed by one of the out-edges ``keys`` credits that
    edge (the returned support vector) and its edges ``apex→low`` and
    ``apex→high`` (keys routed to the apex's hash owner)."""
    idx, hit = _closing_hits(keys, key)
    apex, key = apex[hit], key[hit]
    side = np.concatenate([apex * n + key // n, apex * n + key % n])
    return (np.bincount(idx[hit], minlength=keys.size),
            _route(_hash_owner(np.concatenate([apex, apex]), P), P, side))


def _edge_rows(keys: np.ndarray, vals: np.ndarray, n: int):
    """Packed oriented keys → canonical dense ``(src, dst, vals)``."""
    a, b = keys // n, keys % n
    return np.minimum(a, b), np.maximum(a, b), vals.astype(np.int64)


def _core_peel(cnt: np.ndarray, rounds: np.ndarray, k: int, rnd: int,
               decs: list, lo: int) -> np.ndarray:
    """One k-core round on an owner chunk, in place: subtract the
    ``(ids, counts)`` degree decrements, then give round ``rnd`` to the
    not-yet-removed vertices they touched (round 0: every vertex) whose
    degree is in (0, k). Returns those vertices' chunk offsets."""
    if rnd == 0:
        cand = np.arange(cnt.size)
    else:
        ids = np.concatenate([ids for ids, _ in decs]) - lo
        np.add.at(cnt, ids, -np.concatenate([c for _, c in decs]))
        cand = np.unique(ids)
    peel = cand[(cnt[cand] > 0) & (cnt[cand] < k) & (rounds[cand] < 0)]
    rounds[peel] = rnd
    return peel


# -- the actor ----------------------------------------------------------------

class EdgeShard:
    """Holds one edge slice, presorted by message destination."""

    def __init__(self, *parts: dict, replicas: int = 1, stride: int = 0):
        """``parts``: this slice's edge blocks as numpy column dicts.
        `replicas`/`stride`: tile this slice R times with vertex
        offsets r·stride (bench scaling jobs build an R×-size graph
        without R× sort cost — replica id ranges are disjoint and
        increasing, so sorted single-copy arrays tile sorted)."""
        n_edges, u, v, ww, uniq_v, seg = _msg_layout(parts)
        self.rep_fold = 1
        if replicas > 1:
            M = u.size
            seg = np.concatenate([seg + r * M for r in range(replicas)])
            if stride > 0:
                # disjoint-range tiling: an R×-vertex, R×-edge graph
                u = np.concatenate([u + r * stride
                                    for r in range(replicas)])
                v = np.concatenate([v + r * stride
                                    for r in range(replicas)])
                uniq_v = np.concatenate([uniq_v + r * stride
                                         for r in range(replicas)])
            else:
                # same-vertex multigraph tiling: R× messages over the
                # SAME vertex set (state stays cache-resident — the
                # engine-overhead scaling probe). reduceat emits R
                # copies of the per-vertex partials; gathers fold
                # them with a reshape-sum before returning.
                u = np.tile(u, replicas)
                v = np.tile(v, replicas)
                self.rep_fold = replicas
            ww = np.tile(ww, replicas)
        idt = _msg_idtype(u, v)
        self.v = np.ascontiguousarray(v.astype(idt, copy=False))
        self.u = np.ascontiguousarray(u.astype(idt, copy=False))
        self.w = np.ascontiguousarray(ww)
        self.uniq_v, self.seg = uniq_v, seg
        self.num_edges = n_edges * replicas

    def ready(self) -> int:
        return self.num_edges

    def pid(self) -> int:
        """OS pid of this actor's worker process (chaos tests kill
        one mid-superstep to exercise checkpoint recovery)."""
        import os

        return os.getpid()

    def load_alt_edges(self, *parts: dict) -> int:
        """Load a SECONDARY edge set (e.g. the BiCC auxiliary
        graph) so iterative supersteps can run over it on the SAME
        actors — no second pool spawn (seconds of fixed cost) and
        no duplicated owner-state memory. Same v-sorted message
        layout as ``__init__``; returns this slice's edge count."""
        n_alt, u, v, _ww, uniq_v, seg = _msg_layout(parts)
        idt = _msg_idtype(u, v)
        self.alt_u = np.ascontiguousarray(u.astype(idt, copy=False))
        self.alt_uniq_v, self.alt_seg = uniq_v, seg
        return n_alt

    def drop_alt_edges(self) -> bool:
        self.alt_u = self.alt_uniq_v = self.alt_seg = None
        return True

    def shard_gather_min_alt(self, bounds: np.ndarray, *labs):
        """``shard_gather_min`` over the secondary edge set (no
        replica tiling — alt sets are always plain)."""
        return _range_split_min(self.alt_u, self.alt_seg,
                                self.alt_uniq_v, 1, bounds, _concat(labs))

    def weight_profile(self) -> tuple[bool, float]:
        """(all weights positive integers, max weight) — one-time
        validation for the exact-equality weighted-BC DAG test."""
        if self.w.size == 0:
            return True, 0.0
        ok = bool(np.all(self.w > 0)
                  and np.all(self.w == np.floor(self.w)))
        return ok, float(self.w.max())

    # -- owner role (vertex-range state holder) ----------------------
    # Each actor additionally OWNS a contiguous dense-id range
    # [lo, hi): it keeps that range's rank/label chunk resident,
    # produces the broadcastable state chunk, and combines the
    # shards' range-partials — so no O(n) work ever runs on the
    # driver inside the superstep loop (the scaling-efficiency
    # killer: a serial O(n) driver section caps speedup by Amdahl).

    def degree_partials(self, bounds: np.ndarray, weighted: bool = False):
        """Range-split per-vertex degree (or strength) partials from
        this shard's resident layout — segment lengths of the
        v-sorted message array, no state vector needed. Feeds the
        owner init (degrees never materialize on the driver)."""
        if self.u.size == 0:
            z = np.empty(0, dtype=np.int64)
            return tuple((z, z.astype(np.float64))
                         for _ in range(len(bounds) - 1))
        if weighted:
            vals = np.add.reduceat(self.w, self.seg)
        else:
            seg_ends = np.append(self.seg[1:], self.u.size)
            vals = (seg_ends - self.seg).astype(np.float64)
        if self.rep_fold > 1:
            vals = vals.reshape(self.rep_fold, -1).sum(axis=0)
        cuts = np.searchsorted(self.uniq_v, bounds)
        return tuple((self.uniq_v[cuts[i]:cuts[i + 1]],
                      vals[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def owner_init_from_parts(self, lo: int, hi: int,
                              bounds: np.ndarray, n: int, my_idx: int,
                              *deg_outs):
        """Owner init: assemble this range's degree chunk from the
        shards' partials, derive inv_deg locally, uniform-init the
        state. The driver never holds an O(n) vector."""
        self.lo, self.hi = lo, hi
        deg = _fold_partials(lo, hi, my_idx, deg_outs, np.float64)
        inv = np.zeros(hi - lo, dtype=np.float64)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        self.inv_deg = inv
        self.state = np.full(hi - lo, 1.0 / n, dtype=np.float64)
        self.dangling_local = np.flatnonzero(~nz)
        return True

    def owner_init_labels(self) -> bool:
        """Reset state to dense-id labels (CC init) for this range."""
        self.state = np.arange(self.lo, self.hi, dtype=np.float64)
        return True

    def owner_set_value(self, dense_idx: int, value: float) -> bool:
        """Point-write into this owner's state (e.g. SSSP source)."""
        if self.lo <= dense_idx < self.hi:
            self.state[dense_idx - self.lo] = value
        return True

    def owner_fill_state(self, value: float) -> bool:
        self.state = np.full(self.hi - self.lo, value, dtype=np.float64)
        return True

    def shard_gather_label_counts(self, bounds: np.ndarray,
                                  weighted: bool, *chunks):
        """Range-split (v, label, count) partials for mode-LP from
        the resident layout over the owners' label chunks."""
        labels = _concat(chunks)
        if self.u.size == 0:
            z = np.empty(0, dtype=np.int64)
            return tuple((z, z, z) for _ in range(len(bounds) - 1))
        lab = labels[self.u].astype(np.int64)
        nlab = np.int64(labels.size)
        packed = self.v.astype(np.int64) * nlab + lab
        uniq, inv = np.unique(packed, return_inverse=True)
        wts = self.w if weighted else np.ones(lab.size)
        cnt = np.bincount(inv, weights=wts).astype(np.int64)
        vv = (uniq // nlab)
        ll = (uniq % nlab)
        cuts = np.searchsorted(vv, bounds)
        return tuple((vv[cuts[i]:cuts[i + 1]], ll[cuts[i]:cuts[i + 1]],
                      cnt[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def owner_combine_mode(self, my_idx: int, *shard_outs):
        """Mode-LP combine for this owner's range: merge the shards'
        (v, label, count) partials, pick argmax with the engine's
        tie-break (keep current on tie, else max count then min
        label). Returns (#changed, next carry: the label chunk)."""
        vs, ls, cs = [], [], []
        for out in shard_outs:
            v, l, c = out[my_idx]
            vs.append(v)
            ls.append(l)
            cs.append(c)
        v = np.concatenate(vs)
        if v.size == 0:
            return 0, self.state
        lab = np.concatenate(ls)
        cnt0 = np.concatenate(cs)
        # merge duplicates across shards via packed (v, label) keys
        # (dense label ids < 2^32 — the documented vertex envelope)
        key = (v - self.lo).astype(np.int64) * np.int64(1 << 32) + lab
        uniq, inv = np.unique(key, return_inverse=True)
        cnt = np.bincount(inv, weights=cnt0).astype(np.int64)
        v_rel = (uniq >> np.int64(32))
        lab_m = uniq & np.int64((1 << 32) - 1)
        current = self.state.astype(np.int64)
        new = _pick_labels(v_rel, lab_m, cnt, current)
        return self._changed(new.astype(np.float64)), self.state

    # -- change-driven mode-LP (owner-resident count state) ----------
    # Full-count supersteps stream all 2m messages every round even
    # when almost no label changed.  Change-driven LP instead keeps
    # the exact per-(vertex, label) neighbor-count table RESIDENT in
    # the owners and, per superstep, ships only the changed
    # vertices' (id, old_label, new_label) triples; shards emit
    # ±w count deltas from the changed vertices' own adjacency
    # segments (O(Σdeg(changed)), decays geometrically as LP
    # converges) and owners fold them into the resident table and
    # re-decide only the touched vertices.  Decisions are
    # bit-identical to the full recompute: the count table is an
    # exact integer invariant and `_pick_labels` depends only on a
    # vertex's (rows, current label).  Packing envelope: dense ids
    # and labels < 2^32 (same as owner_combine_mode).

    _LAB_MASK = np.int64((1 << 32) - 1)

    def shard_lp_delta(self, bounds: np.ndarray, weighted: bool,
                       *triples):
        """Range-split (v, label, ±delta) partials from the changed
        vertices' adjacency segments. ``triples``: the owners'
        (sorted changed dense ids, old labels, new labels)."""
        changed, old_lab, new_lab = _concat(triples)
        z = np.empty(0, dtype=np.int64)
        empty = tuple((z, z, z) for _ in range(len(bounds) - 1))
        if self.u.size == 0 or changed.size == 0:
            return empty
        nbr, counts, hit, idx = self._frontier_segments(changed)
        if nbr.size == 0:
            return empty
        w = (self.w[idx].astype(np.int64) if weighted
             else np.ones(nbr.size, dtype=np.int64))
        v2 = np.concatenate([nbr, nbr])
        lab2 = np.concatenate([np.repeat(old_lab[hit], counts),
                               np.repeat(new_lab[hit], counts)])
        d2 = np.concatenate([-w, w])
        key = (v2 << np.int64(32)) | lab2
        uniq, inv = np.unique(key, return_inverse=True)
        dd = np.bincount(inv, weights=d2).astype(np.int64)
        nz = dd != 0
        uniq, dd = uniq[nz], dd[nz]
        vv = uniq >> np.int64(32)
        cuts = np.searchsorted(vv, bounds)
        ll = uniq & self._LAB_MASK
        return tuple((vv[cuts[i]:cuts[i + 1]], ll[cuts[i]:cuts[i + 1]],
                      dd[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def owner_lp_init_resident(self, my_idx: int, *shard_outs):
        """Build this range's resident LP count table from the
        shards' full (v, label, count) partials, then run the first
        decide; returns (#changed, the changed (ids, old, new)
        triple)."""
        vs, ls, cs = [], [], []
        for out in shard_outs:
            v, l, c = out[my_idx]
            vs.append(v)
            ls.append(l)
            cs.append(c)
        v = np.concatenate(vs)
        z = np.empty(0, dtype=np.int64)
        if v.size == 0:
            self.lp_keys = z
            self.lp_cnt = z.copy()
            return _counted((z, z, z))
        lab = np.concatenate(ls)
        cnt0 = np.concatenate(cs)
        key = ((v - self.lo).astype(np.int64) << np.int64(32)) | lab
        uniq, inv = np.unique(key, return_inverse=True)
        self.lp_keys = uniq
        self.lp_cnt = np.bincount(inv, weights=cnt0).astype(np.int64)
        return _counted(self._lp_decide(np.unique(uniq >> np.int64(32))))

    def owner_lp_apply(self, my_idx: int, *delta_outs):
        """Fold the shards' count deltas into the resident table
        (sorted-merge: in-place adds for existing keys, merge-insert
        for fresh ones — both O(deltas), not O(table)), then
        re-decide only the touched vertices. Returns (#changed, the
        changed triple)."""
        vs, ls, ds = [], [], []
        for out in delta_outs:
            v, l, d = out[my_idx]
            vs.append(v)
            ls.append(l)
            ds.append(d)
        v = np.concatenate(vs)
        z = np.empty(0, dtype=np.int64)
        if v.size == 0:
            return _counted((z, z, z))
        lab = np.concatenate(ls)
        d0 = np.concatenate(ds)
        key0 = ((v - self.lo).astype(np.int64) << np.int64(32)) | lab
        # combine duplicates across shards (small: delta rows only)
        key, inv = np.unique(key0, return_inverse=True)
        dd = np.bincount(inv, weights=d0).astype(np.int64)
        pos = np.searchsorted(self.lp_keys, key)
        pos_c = np.minimum(pos, max(self.lp_keys.size - 1, 0))
        hit = (self.lp_keys[pos_c] == key) if self.lp_keys.size \
            else np.zeros(key.size, dtype=bool)
        self.lp_cnt[pos_c[hit]] += dd[hit]
        miss = ~hit
        if miss.any():
            self.lp_keys = np.insert(self.lp_keys, pos[miss], key[miss])
            self.lp_cnt = np.insert(self.lp_cnt, pos[miss], dd[miss])
        # drop zeroed rows (a neighbor left the label entirely) so
        # the table stays bounded by the live (v, label) support
        nzm = self.lp_cnt != 0
        if not nzm.all():
            self.lp_keys = self.lp_keys[nzm]
            self.lp_cnt = self.lp_cnt[nzm]
        return _counted(self._lp_decide(np.unique(key >> np.int64(32))))

    def _lp_decide(self, touched_rel: np.ndarray):
        """Argmax-with-tie-break over the touched vertices' resident
        rows (contiguous in packed-key order); commits the new
        labels and returns (dense ids, old, new) of changed."""
        z = np.empty(0, dtype=np.int64)
        if touched_rel.size == 0:
            return z, z, z
        starts = np.searchsorted(self.lp_keys,
                                 touched_rel << np.int64(32))
        ends = np.searchsorted(self.lp_keys,
                               (touched_rel + 1) << np.int64(32))
        counts = ends - starts
        idx = np.repeat(starts, counts) + _ragged(counts)
        keys = self.lp_keys[idx]
        current = self.state.astype(np.int64)
        new = _pick_labels(keys >> np.int64(32), keys & self._LAB_MASK,
                           self.lp_cnt[idx], current)
        ch = np.flatnonzero(new != current)
        old_lab = current[ch]
        self.state = new.astype(np.float64)
        return ch + self.lo, old_lab, new[ch]

    def owner_set_range(self, lo: int, hi: int) -> bool:
        """Minimal owner init (range only) for algorithms that need
        neither degrees nor a numeric init vector (LP)."""
        self.lo, self.hi = lo, hi
        return True

    # -- owner-routed triangle counting, edge support and k-truss ----
    # Degree-ordered orientation (each edge kept once as apex →
    # higher-(deg, id) neighbour) gives every triangle exactly one
    # wedge, at its lowest-ranked vertex, whose closing edge is an
    # out-edge of the wedge's lower-ranked endpoint. So each wedge
    # is routed to the actor holding that endpoint's out-edges,
    # which tests it against its own sorted keys — no edge-key
    # broadcast, one path for every graph size. Out-edges and
    # wedges are placed by a hash of the vertex (a skewed graph's
    # apexes and wedge endpoints cluster in a few id ranges); only
    # the final credits go to the range owners that hold the state.
    # Edge support and k-truss keep the out-edge keys resident and
    # credit edges instead of corners.

    def owner_tri_degree(self, lo: int, hi: int, my_idx: int,
                         *deg_outs) -> np.ndarray:
        """Round 1: bind [lo, hi) and assemble this range's degree
        chunk from the shards' ``degree_partials`` (kept for the
        clustering denominators)."""
        self.lo, self.hi = lo, hi
        self.tri_deg = _fold_partials(lo, hi, my_idx, deg_outs)
        return self.tri_deg

    def shard_tri_orient(self, P: int, deg: np.ndarray):
        """Round 2: this slice's edges oriented by (deg, id), each
        once (its u < v message), split by the apex's hash owner."""
        one = self.u < self.v
        a, b = _orient(self.u[one].astype(np.int64),
                       self.v[one].astype(np.int64), deg)
        return _route(_hash_owner(a, P), P, a, b)

    def owner_tri_wedges(self, n: int, deg: np.ndarray, my_idx: int,
                         *edge_outs):
        """Round 3: wedges of the apexes hashed here (``_wedge_msgs``).
        Keeps the sorted packed out-edge keys ``apex·n + nbr``, the
        assembled degree vector (a zero-copy view) and an empty k-truss
        removal log."""
        a = np.concatenate([out[my_idx][0] for out in edge_outs])
        b = np.concatenate([out[my_idx][1] for out in edge_outs])
        self.tri_keys = np.sort(a * n + b)
        self.tri_deg_full, self.tri_gone = deg, []
        return _wedge_msgs(a, b, deg, n, len(edge_outs))

    def owner_tri_match(self, n: int, bounds: np.ndarray, my_idx: int,
                        *wedge_outs):
        """Round 4: closing-edge membership against the out-edge
        keys kept here; one credit per matched wedge corner, split
        by the corner's range owner. Drops the key set."""
        apex = np.concatenate([out[my_idx][0] for out in wedge_outs])
        key = np.concatenate([out[my_idx][1] for out in wedge_outs])
        _, hit = _closing_hits(self.tri_keys, key)
        self.tri_keys = self.tri_deg_full = self.tri_gone = None
        self.tri_msgs = (int(key.size), int(hit.sum()))
        k = key[hit]
        ids, cnt = np.unique(np.concatenate([apex[hit], k // n, k % n]),
                             return_counts=True)
        return _route(_range_owner(ids, bounds), len(bounds) - 1,
                      ids, cnt)

    def owner_tri_fold(self, my_idx: int, *credit_outs):
        """Sum this range's corner credits into the state (triangles)
        and aux (local clustering); returns (wedges, matched,
        Σtriangles, Σ C(deg, 2), Σclustering) partials."""
        tri = np.zeros(self.hi - self.lo, dtype=np.int64)
        for out in credit_outs:  # ids unique per part
            ids, cnt = out[my_idx]
            tri[ids - self.lo] += cnt
        deg = self.tri_deg.astype(np.float64)
        msgs, self.tri_deg, self.tri_msgs = self.tri_msgs, None, None
        pairs = deg * (deg - 1.0) / 2.0
        self.state = tri
        self.aux = np.divide(tri, pairs, out=np.zeros(tri.size),
                             where=pairs > 0)
        return (*msgs, float(tri.sum()), float(pairs.sum()),
                float(self.aux.sum()))

    def owner_sup_wedges(self, n: int, P: int):
        """Round 3 again, over the out-edges still in the truss."""
        keys = self.tri_keys
        return _wedge_msgs(keys // n, keys % n, self.tri_deg_full, n, P)

    def owner_sup_match(self, n: int, my_idx: int, *wedge_outs):
        """Support round 4: credit the closing edges kept here; route
        the two apex-edge credits of each matched wedge."""
        apex = np.concatenate([out[my_idx][0] for out in wedge_outs])
        key = np.concatenate([out[my_idx][1] for out in wedge_outs])
        self.tri_sup, credits = _support_match(self.tri_keys, apex, key,
                                               n, len(wedge_outs))
        return credits

    def owner_sup_fold(self, thresh: int, rnd: int, my_idx: int,
                       *credit_outs) -> int:
        """Support round 5: add the routed apex-edge credits, then
        remove the edges whose support is below ``thresh`` from the
        kept keys into the removal log under round ``rnd``; returns
        how many were removed."""
        keys = self.tri_keys
        cred = np.concatenate([out[my_idx][0] for out in credit_outs])
        sup = self.tri_sup + np.bincount(np.searchsorted(keys, cred),
                                         minlength=keys.size)
        gone = sup < thresh
        self.tri_sup = sup
        if gone.any():
            self.tri_gone.append((keys[gone], rnd))
            self.tri_keys, self.tri_sup = keys[~gone], sup[~gone]
        return int(gone.sum())

    def owner_sup_rows(self, n: int, truss: bool):
        """This actor's edges as canonical dense ``(src, dst, support)``
        or, with ``truss``, ``(src, dst, round_removed)`` (−1: still in
        the truss). Drops the family's state."""
        keys, gone = self.tri_keys, self.tri_gone
        vals = np.full(keys.size, -1) if truss else self.tri_sup
        if truss and gone:
            keys = np.concatenate([keys] + [k for k, _ in gone])
            vals = np.concatenate([vals] + [np.full(k.size, r)
                                            for k, r in gone])
        self.tri_keys = self.tri_sup = self.tri_gone = None
        self.tri_deg = self.tri_deg_full = None
        return _edge_rows(keys, vals, n)

    # -- owner-resident k-core peel -----------------------------------
    # Owners keep each vertex's degree over the surviving edges as a
    # counter; shards debit the neighbours of the vertices peeled last
    # round from those vertices' adjacency segments.

    def owner_core_init(self, lo: int, hi: int, my_idx: int,
                        *deg_outs) -> bool:
        """Bind [lo, hi): degree counters from the shards'
        ``degree_partials``, removal rounds −1."""
        self.lo, self.hi = lo, hi
        self.core_cnt = _fold_partials(lo, hi, my_idx, deg_outs)
        self.core_round = np.full(hi - lo, -1, dtype=np.int64)
        return True

    def owner_core_round(self, k: int, rnd: int, my_idx: int,
                         *dec_outs):
        """Fold the decrements, then peel (``_core_peel``); returns
        (#peeled, the dense ids peeled in round ``rnd``)."""
        peel = _core_peel(self.core_cnt, self.core_round, k, rnd,
                          [out[my_idx] for out in dec_outs], self.lo)
        return _counted(peel + self.lo)

    def shard_core_dec(self, bounds: np.ndarray, *ids):
        """Per-range degree decrements from last round's peeled
        vertices, one per incident edge (``shard_mis_dec`` without the
        priority test)."""
        nbr = self._frontier_segments(_concat(ids))[0]
        return _split_sorted(bounds, *self._dec_partial(nbr))

    def owner_core_finalize(self) -> np.ndarray:
        """Removal rounds into the state (for ``owner_scores``);
        returns this range's removed flags."""
        self.state = self.core_round.astype(np.float64)
        gone = self.core_round >= 0
        self.core_cnt = self.core_round = None
        return gone

    def shard_core_edges(self, gone: np.ndarray):
        """This slice's edges (each once, as its u < v message) with
        neither endpoint removed, as dense ``(src, dst)``."""
        one = self.u < self.v
        u = self.u[one].astype(np.int64)
        v = self.v[one].astype(np.int64)
        keep = ~(gone[u] | gone[v])
        return u[keep], v[keep]

    # -- owner-resident Jones–Plassmann machinery (MIS + coloring) ---
    # Owner-resident JP keeps, per vertex: a resident counter of
    # UNDECIDED lower-priority neighbors (ready/winner ⟺ counter hits
    # 0) and — for coloring — the set of colors already taken by
    # neighbors. Per round only the newly-decided vertices ship;
    # shards emit decrements (and color marks) from those vertices'
    # adjacency segments, so total message volume over ALL rounds is
    # O(m), not O(m·rounds). Decisions are round-for-round identical
    # to the driver-array loops: counter==0 ⟺ pri < min over
    # undecided neighbors, and the resident color set at decision
    # time equals the colored neighborhood. Priorities are the
    # driver's permutation ranks on dense graphs; sharded graphs
    # hash the original id with splitmix64 per owner (bijective ⇒
    # strict total order, the same order as the ranks),
    # order-preservingly remapped to int64.

    def owner_jp_pri_chunk(self, seed: int, dict_meta) -> np.ndarray:
        """This range's priority chunk: splitmix64(original_id ^
        seed) — identical hash to `mis_priorities(scheme=
        "splitmix")`, so the int64-mapped values sort exactly like
        its permutation ranks."""
        orig = DictReader(dict_meta).to_original(
            np.arange(self.lo, self.hi, dtype=np.int64))
        h = splitmix(orig.view(np.uint64)
                     ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        return (h ^ np.uint64(1 << 63)).view(np.int64)

    # heap-copy the priority vector below this size: plasma-view
    # random reads were measured ~2.6× slower than heap in hot gather
    # loops, and jp_pri is fancy-indexed in the cnt-init
    # full pass and every round's delta gathers. Above the
    # threshold the per-actor copies (n×8 bytes × P actors) cost
    # more than the view penalty — and on a multi-node cluster the
    # view is the design (ONE physical copy per node).
    _JP_PRI_COPY_LIMIT = 8_000_000

    def shard_jp_load_pri(self, pri_full: np.ndarray) -> bool:
        """Cache the assembled priority vector shard-resident
        (heap copy for hot-gather speed when small, zero-copy
        plasma view past the per-actor-copy budget)."""
        self.jp_pri = (np.array(pri_full)
                       if pri_full.size <= self._JP_PRI_COPY_LIMIT
                       else pri_full)
        return True

    def shard_jp_cnt_init(self, bounds: np.ndarray):
        """Per-range (v, #lower-priority neighbors) partials — the
        one full-edge pass of the owner-resident JP setup."""
        z = np.empty(0, dtype=np.int64)
        if self.u.size == 0:
            return tuple((z, z) for _ in range(len(bounds) - 1))
        lower = (self.jp_pri[self.u]
                 < self.jp_pri[self.v]).astype(np.int64)
        cnt = np.add.reduceat(lower, self.seg)
        cuts = np.searchsorted(self.uniq_v, bounds)
        return tuple((self.uniq_v[cuts[i]:cuts[i + 1]].astype(np.int64),
                      cnt[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def shard_jp_color_delta(self, bounds: np.ndarray, *pairs):
        """Per-range (dec vertex, dec count, mark vertex, color)
        partials from the newly-colored vertices' adjacency
        segments: decrements for lower-pri→higher-pri edges, plus
        distinct (neighbor, color) marks for the mex sets."""
        ids, cols = _concat(pairs)
        z = np.empty(0, dtype=np.int64)
        empty = tuple((z, z, z, z) for _ in range(len(bounds) - 1))
        if self.u.size == 0 or ids.size == 0:
            return empty
        nbr, counts, hit, _ = self._frontier_segments(ids)
        if nbr.size == 0:
            return empty
        u_ids = np.repeat(ids[hit], counts)
        dec_m = self.jp_pri[u_ids] < self.jp_pri[nbr]
        vd, dc = self._dec_partial(nbr[dec_m])
        key = np.unique((nbr << np.int64(32))
                        | np.repeat(cols[hit], counts))
        vs = key >> np.int64(32)
        cs = key & self._LAB_MASK
        cut_d = np.searchsorted(vd, bounds)
        cut_s = np.searchsorted(vs, bounds)
        return tuple((vd[cut_d[i]:cut_d[i + 1]],
                      dc[cut_d[i]:cut_d[i + 1]],
                      vs[cut_s[i]:cut_s[i + 1]],
                      cs[cut_s[i]:cut_s[i + 1]])
                     for i in range(len(bounds) - 1))

    @staticmethod
    def _dec_partial(targets: np.ndarray):
        """(sorted unique vertices, decrement counts)."""
        if targets.size == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z
        uv, cnts = np.unique(targets, return_counts=True)
        return uv, cnts.astype(np.int64)

    def shard_mis_dec(self, bounds: np.ndarray, *parts):
        """Per-range decrement partials from newly-DECIDED vertices
        (MIS winners + exclusions of the previous round)."""
        ids = _concat(parts)
        nbr, counts, hit, _ = self._frontier_segments(ids)
        u_ids = np.repeat(ids[hit], counts)
        return _split_sorted(bounds, *self._dec_partial(
            nbr[self.jp_pri[u_ids] < self.jp_pri[nbr]]))

    def shard_sample_nbrs(self, ids: np.ndarray, f: int,
                          seed: int, layer: int):
        """This shard's per-source top-``f`` sampled neighbor
        candidates for the frontier (GNN neighbor sampling):
        content-keyed edge ranks, so the driver's cross-shard
        merge is deterministic and equals the dense path."""
        from centrality_gpu_ray.pipelines.gnn_sampling import (
            _edge_rank, _topf_per_src)

        z = np.empty(0, dtype=np.int64)
        if self.u.size == 0 or ids.size == 0:
            return z, z, np.empty(0, dtype=np.uint64)
        nbr, counts, hit, _ = self._frontier_segments(ids)
        if nbr.size == 0:
            return z, z, np.empty(0, dtype=np.uint64)
        src = np.repeat(ids[hit], counts)
        return _topf_per_src(src, nbr,
                             _edge_rank(src, nbr, seed, layer), f)

    def shard_nbr_ids(self, bounds: np.ndarray, *parts):
        """Per-range distinct neighbor ids of the given vertices
        (MIS winner→exclusion marking)."""
        ids = _concat(parts)
        z = np.empty(0, dtype=np.int64)
        if self.u.size == 0 or ids.size == 0:
            return tuple(z for _ in range(len(bounds) - 1))
        nbr, _counts, _hit, _ = self._frontier_segments(ids)
        un = np.unique(nbr)
        cuts = np.searchsorted(un, bounds)
        return tuple(un[cuts[i]:cuts[i + 1]]
                     for i in range(len(bounds) - 1))

    def owner_jp_state_init(self, n: int, my_idx: int,
                            *cnt_outs) -> bool:
        """Fold the shards' lower-pri-neighbor counts and reset the
        decision vectors (color/status −1, round 0)."""
        width = self.hi - self.lo
        self.jp_cnt = _fold_partials(self.lo, self.hi, my_idx, cnt_outs)
        self.jp_n = n
        self.jp_color = np.full(width, -1, dtype=np.int64)
        self.jp_round = np.zeros(width, dtype=np.int64)
        self.jp_keys = np.empty(0, dtype=np.int64)  # (v_rel, color) set
        return True

    def _jp_ready_mex(self, cand_rel: np.ndarray, rnd: int):
        """Color the ready candidates (uncolored, counter 0) by mex
        over their resident neighbor-color sets; returns their
        (dense ids, colors)."""
        z = np.empty(0, dtype=np.int64)
        if cand_rel.size == 0:
            return z, z
        ready = cand_rel[(self.jp_color[cand_rel] < 0)
                         & (self.jp_cnt[cand_rel] == 0)]
        if ready.size == 0:
            return z, z
        starts = np.searchsorted(self.jp_keys, ready << np.int64(32))
        ends = np.searchsorted(self.jp_keys,
                               (ready + 1) << np.int64(32))
        counts = ends - starts
        idx = np.repeat(starts, counts) + _ragged(counts)
        keys = self.jp_keys[idx]
        rank = np.searchsorted(ready, keys >> np.int64(32))
        mex = _mex_compact(rank, keys & self._LAB_MASK, ready.size,
                           self.jp_n + 1)
        self.jp_color[ready] = mex
        self.jp_round[ready] = rnd
        return ready + self.lo, mex

    def owner_jp_color_first(self, my_idx: int):
        """Round 1: color every vertex with no lower-pri neighbor;
        returns (#colored, (ids, colors)). ``my_idx`` is unused: no
        shard outputs precede round 1."""
        return _counted(self._jp_ready_mex(
            np.flatnonzero(self.jp_cnt == 0), 1))

    def owner_jp_color_apply(self, rnd: int, my_idx: int,
                             *delta_outs):
        """Fold decrements + color marks from the previous round's
        colorings, then color the newly-ready vertices; returns
        (#colored, (ids, colors))."""
        vds, dcs, vss, css = [], [], [], []
        for out in delta_outs:
            vd, dc, vs, cs = out[my_idx]
            vds.append(vd)
            dcs.append(dc)
            vss.append(vs)
            css.append(cs)
        vd = np.concatenate(vds)
        if vd.size:
            # decrement partials are unique per shard; cross-shard
            # duplicates need the unbuffered scatter-add
            np.add.at(self.jp_cnt, vd - self.lo,
                      -np.concatenate(dcs))
        vs = np.concatenate(vss)
        keep = (self.jp_color[vs - self.lo] < 0) if vs.size \
            else np.zeros(0, dtype=bool)
        if keep.any():
            key = np.unique(((vs[keep] - self.lo) << np.int64(32))
                            | np.concatenate(css)[keep])
            pos = np.searchsorted(self.jp_keys, key)
            pos_c = np.minimum(pos, max(self.jp_keys.size - 1, 0))
            hit = (self.jp_keys[pos_c] == key) if self.jp_keys.size \
                else np.zeros(key.size, dtype=bool)
            if (~hit).any():
                self.jp_keys = np.insert(self.jp_keys, pos[~hit],
                                         key[~hit])
        cand = np.unique(vd - self.lo) if vd.size \
            else np.empty(0, dtype=np.int64)
        return _counted(self._jp_ready_mex(cand, rnd))

    def owner_mis_first(self, my_idx: int):
        """Round 1 winners: every vertex with no lower-pri
        neighbor joins the MIS; returns (#winners, their ids).
        ``my_idx`` is unused: no shard outputs precede round 1."""
        win = np.flatnonzero(self.jp_cnt == 0)
        self.jp_color[win] = 1
        self.jp_round[win] = 1
        return _counted(win + self.lo)

    def owner_mis_apply(self, rnd: int, my_idx: int, *dec_outs):
        """Fold decrements from last round's decided vertices; the
        undecided whose counter hits 0 join the MIS. Returns
        (#winners, their ids)."""
        vds, dcs = [], []
        for out in dec_outs:
            vd, dc = out[my_idx]
            vds.append(vd)
            dcs.append(dc)
        vd = np.concatenate(vds)
        if vd.size == 0:
            return _counted(vd)
        np.add.at(self.jp_cnt, vd - self.lo, -np.concatenate(dcs))
        cand = np.unique(vd - self.lo)
        win = cand[(self.jp_color[cand] < 0)
                   & (self.jp_cnt[cand] == 0)]
        self.jp_color[win] = 1
        self.jp_round[win] = rnd
        return _counted(win + self.lo)

    def owner_mis_exclude(self, rnd: int, my_idx: int, *nbr_outs):
        """Mark undecided neighbors of this round's winners
        excluded; returns (#excluded, their dense ids) — next
        round's decrement sources alongside the winners."""
        parts = [out[my_idx] for out in nbr_outs]
        nb = np.concatenate(parts) if parts \
            else np.empty(0, dtype=np.int64)
        if nb.size == 0:
            return _counted(nb)
        rel = np.unique(nb - self.lo)
        excl = rel[self.jp_color[rel] < 0]
        self.jp_color[excl] = 0
        self.jp_round[excl] = rnd
        return _counted(excl + self.lo)

    # -- owner-resident SGNS model chunks (>10M-node trainer) --------
    # The dense SGNS trainer holds both (n, d) model matrices on
    # the driver (envelope ~10M nodes). Owner-resident mode keeps
    # each owner's node-range chunk resident; per iteration the
    # chunks are assembled into ONE broadcast object (the gradient
    # pass needs random access to the full matrices — the same
    # per-node broadcast budget as every superstep), gradient tasks
    # return range-split sparse partials, and each owner folds and
    # applies ITS range's update — no O(n·d) driver section.

    def owner_sgns_init(self, dim: int, seed: int) -> bool:
        from centrality_gpu_ray.pipelines.embeddings import (
            _init_rows)

        self.sgns_dim = dim
        self.sgns_w_in = _init_rows(self.lo, self.hi, dim, seed)
        self.sgns_w_out = np.zeros((self.hi - self.lo, dim))
        return True

    def owner_sgns_chunk(self, which: int) -> np.ndarray:
        return self.sgns_w_in if which == 0 else self.sgns_w_out

    def owner_sgns_apply(self, my_idx: int, lr_t: float,
                         *grad_outs) -> bool:
        """Fold this range's sparse gradient partials and apply the
        per-node-mean update (same rule as the dense trainer)."""
        width = self.hi - self.lo
        dim = self.sgns_dim
        g_in = np.zeros((width, dim))
        g_out = np.zeros((width, dim))
        c_in = np.zeros(width)
        c_out = np.zeros(width)
        for out in grad_outs:
            nodes, sides, g, cnt = out[my_idx]
            rel = nodes - self.lo
            m0 = sides == 0
            # np.add.at: (node, side) rows are unique within one
            # task's partial but repeat across tasks
            np.add.at(g_in, rel[m0], g[m0])
            np.add.at(g_out, rel[~m0], g[~m0])
            np.add.at(c_in, rel[m0], cnt[m0])
            np.add.at(c_out, rel[~m0], cnt[~m0])
        self.sgns_w_in = self.sgns_w_in \
            - lr_t * g_in / np.maximum(c_in, 1.0)[:, None]
        self.sgns_w_out = self.sgns_w_out \
            - lr_t * g_out / np.maximum(c_out, 1.0)[:, None]
        return True

    def owner_jp_finalize(self):
        """Mirror the decision vectors into the generic owner state
        (state = color/status, aux = round) for `scores_dataset`;
        returns (undecided count, max decision value) for the
        loud-cap check / num_colors metric."""
        self.state = self.jp_color.astype(np.float64)
        self.aux = self.jp_round.astype(np.float64)
        return (int((self.jp_color < 0).sum()),
                int(self.jp_color.max(initial=-1)))

    def owner_fill_aux(self, value: float) -> bool:
        """Secondary owner-resident vector (e.g. BFS parents)."""
        self.aux = np.full(self.hi - self.lo, value, dtype=np.float64)
        return True

    def owner_get_aux(self) -> np.ndarray:
        return self.aux

    # -- direction-optimized (top-down) frontier kernels --------------
    # The reference's Beamer α/β switch (bcc_bfs.cpp:542-567): when
    # the frontier is small, touching only the frontier's incident
    # edges beats streaming all 2m messages. The shard arrays are
    # v-sorted with per-vertex segments, so the frontier's OUT-edges
    # are exactly the segments v ∈ frontier (undirected: neighbors
    # of f = the u values of segment v=f) — a searchsorted + ragged
    # gather, O(Σdeg(frontier)) instead of O(m). Not available on
    # rep_fold-tiled shards (seg no longer indexes uniq_v 1:1).

    def _frontier_segments(self, frontier: np.ndarray):
        """(neighbor array, per-frontier counts, hit mask, message
        indices) for the frontier vertices present in this shard;
        ``idx`` indexes the parallel per-message arrays (u/w)."""
        pos = np.searchsorted(self.uniq_v, frontier)
        pos_c = np.minimum(pos, max(self.uniq_v.size - 1, 0))
        hit = (self.uniq_v[pos_c] == frontier) if self.uniq_v.size \
            else np.zeros(frontier.size, dtype=bool)
        pos = pos_c[hit]
        seg_ends = np.append(self.seg[1:], self.u.size)
        starts, ends = self.seg[pos], seg_ends[pos]
        counts = ends - starts
        idx = np.repeat(starts, counts) + _ragged(counts)
        return self.u[idx].astype(np.int64), counts, hit, idx

    def shard_bfs_topdown(self, bounds: np.ndarray, *frontier):
        """Range-split (v, min candidate parent) partials from the
        frontier's own adjacency segments (the owners' sorted id
        parts). The unvisited test runs owner-side (owner_combine_bfs
        ignores state >= 0), so only frontier ids ship."""
        frontier = _concat(frontier)
        if self.u.size == 0 or frontier.size == 0:
            z = np.empty(0, dtype=np.int64)
            return self._bfs_partials(bounds, z, z)
        nbr, counts, hit, _ = self._frontier_segments(frontier)
        return self._bfs_partials(bounds, nbr,
                                  np.repeat(frontier[hit], counts))

    def shard_bfs_bottomup(self, bounds: np.ndarray, depth: float,
                           *level):
        """The same partials for a wide frontier: one scan of every
        message against the joined level chunks, dropping messages to
        visited vertices here so they never ship."""
        if self.u.size == 0:
            z = np.empty(0, dtype=np.int64)
            return self._bfs_partials(bounds, z, z)
        level = _concat(level)
        mask = (level[self.u] == depth) & (level[self.v] < 0)
        return self._bfs_partials(bounds, self.v[mask].astype(np.int64),
                                  self.u[mask].astype(np.int64))

    @staticmethod
    def _bfs_partials(bounds: np.ndarray, nbr: np.ndarray,
                      par: np.ndarray):
        """Min parent per reached neighbor, split by owner range."""
        order = np.lexsort((par, nbr))
        v, u = nbr[order], par[order]
        first = np.ones(v.size, dtype=bool)
        first[1:] = v[1:] != v[:-1]
        v, u = v[first], u[first]
        cuts = np.searchsorted(v, bounds)
        return tuple((v[cuts[i]:cuts[i + 1]], u[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def shard_frontier_scatter(self, bounds: np.ndarray, pair):
        """Range-split (v, Σ vals over incident frontier) partials —
        the sparse (top-down) form of shard_gather_sum for Brandes
        forward/backward sweeps. ``pair`` = (sorted frontier ids,
        per-id values), one assembled plasma object."""
        frontier, vals = pair
        z = np.empty(0, dtype=np.int64)
        if self.u.size == 0 or frontier.size == 0:
            return tuple((z, z.astype(np.float64))
                         for _ in range(len(bounds) - 1))
        nbr, counts, hit, _ = self._frontier_segments(frontier)
        contrib = np.repeat(vals[hit], counts)
        if nbr.size == 0:
            return tuple((z, z.astype(np.float64))
                         for _ in range(len(bounds) - 1))
        order = np.argsort(nbr, kind="stable")
        nbr_s, contrib_s = nbr[order], contrib[order]
        first = np.ones(nbr_s.size, dtype=bool)
        first[1:] = nbr_s[1:] != nbr_s[:-1]
        uniq_n = nbr_s[first]
        sums = np.add.reduceat(contrib_s, np.flatnonzero(first))
        cuts = np.searchsorted(uniq_n, bounds)
        return tuple((uniq_n[cuts[i]:cuts[i + 1]],
                      sums[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def owner_make_frontier_ids(self, depth: float) -> np.ndarray:
        """Dense ids of this range's vertices at ``depth`` (sorted;
        owner ranges are ascending, so the shards' concat is the
        globally sorted frontier)."""
        return np.flatnonzero(self.state == depth) + self.lo

    def owner_make_sigma_sparse(self, depth: float):
        idx = np.flatnonzero(self.b_level == depth)
        return idx + self.lo, self.b_sigma[idx]

    def owner_make_delta_sparse(self, depth: float):
        idx = np.flatnonzero(self.b_level == depth)
        sig = self.b_sigma[idx]
        return idx + self.lo, (1.0 + self.b_delta[idx]) / sig

    def owner_combine_bfs(self, depth: float, my_idx: int,
                          *shard_outs):
        """Adopt newly-reached vertices in this range: level ←
        depth+1, parent ← min candidate across shards. Returns
        (#reached, their dense ids — the next frontier part)."""
        width = self.hi - self.lo
        best = np.full(width, np.iinfo(np.int64).max, dtype=np.int64)
        for out in shard_outs:
            v, u = out[my_idx]
            idx = v - self.lo
            best[idx] = np.minimum(best[idx], u)
        fresh = np.flatnonzero((best < np.iinfo(np.int64).max)
                               & (self.state < 0))
        self.state[fresh] = depth + 1
        self.aux[fresh] = best[fresh]
        return _counted(fresh + self.lo)

    _CKPT_VECTORS = {"state": "state", "bc": "b_bc"}

    def owner_write_chunk(self, path: str, which: str = "state") -> int:
        """Checkpoint this owner's chunk of a named vector as
        parquet (atomic tmp→rename); per-partition resumability for
        sharded state. ``which``: "state" (rank/label/distance) or
        "bc" (the sampled-Brandes accumulator)."""
        import os

        import pyarrow.parquet as pq

        vec = getattr(self, self._CKPT_VECTORS[which])
        tbl = pa.table({"value": _arrow_column(vec)})
        tmp = path + ".tmp"
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
        return int(vec.size)

    def owner_load_chunk(self, path: str, which: str = "state") -> bool:
        import pyarrow.parquet as pq

        # ParquetFile, not pq.read_table: the dataset reader imports pandas
        with pq.ParquetFile(path) as pf:
            col = pf.read(columns=["value"]).column("value")
        vals = _numpy_column(col).astype(np.float64)
        if vals.size != self.hi - self.lo:
            raise ValueError(
                f"checkpoint chunk rows {vals.size} != owner range "
                f"{self.hi - self.lo}")
        setattr(self, self._CKPT_VECTORS[which], vals)
        return True

    def owner_set_state(self, chunk: np.ndarray):
        self.state = chunk.copy()
        return True

    def owner_get_state(self) -> np.ndarray:
        return self.state

    def owner_make_w_mass(self):
        """(contribution chunk, [dangling mass]): an owner's PageRank
        carry, one object."""
        return (self.state * self.inv_deg,
                np.array([self.state[self.dangling_local].sum()]))

    def _gathered(self, my_idx: int, shard_outs) -> np.ndarray:
        """This range's chunk summed from slot ``my_idx`` of the P
        shards' range-split outputs (zero-copy plasma views; one
        object per shard, since P² tiny objects per superstep were a
        measured fixed cost). Each part's uniq_v is unique+sorted, so
        fancy-index += is exact (and ~10x faster than np.add.at's
        unbuffered scatter); fixed shard order → deterministic."""
        acc = np.zeros(self.hi - self.lo, dtype=np.float64)
        for out in shard_outs:
            uniq_v, sums = out[my_idx]
            acc[uniq_v - self.lo] += sums
        return acc

    def _commit(self, new: np.ndarray) -> float:
        """Make ``new`` the state; returns the local L1 delta."""
        delta = float(np.abs(new - self.state).sum())
        self.state = new
        return delta

    def _changed(self, new: np.ndarray) -> int:
        """Make ``new`` the state; returns how many entries moved."""
        changed = int(np.count_nonzero(new != self.state))
        self.state = new
        return changed

    def owner_combine_pr(self, teleport: float, n: int, alpha: float,
                         my_idx: int, *shard_outs):
        """PageRank combine; the owners' dangling masses ride in the
        shards' last slot (``shard_gather_pr``) and are summed here
        in owner order. Returns (local L1 delta, next carry)."""
        dangling_term = sum(shard_outs[0][-1].tolist()) / n
        new = teleport + alpha * (self._gathered(my_idx, shard_outs)
                                  + dangling_term)
        return self._commit(new), self.owner_make_w_mass()

    def owner_combine_accum(self, my_idx: int, *shard_outs) -> float:
        """Hold this range's raw gather chunk (no scaling) and return
        its local sum — phase 1 of a normalized power-iteration
        superstep (the global Σy needs all owners)."""
        self._pending = self._gathered(my_idx, shard_outs)
        return float(self._pending.sum())

    def owner_scale_pending(self, total: float, my_idx: int):
        """Phase 2: normalize the pending chunk by the global sum and
        commit it; returns (local L1 delta, next carry). ``my_idx`` is
        unused: the chunk is already gathered."""
        new = self._pending / total
        self._pending = None
        return self._commit(new), new

    def owner_drop_pending(self) -> bool:
        """Discard an uncommitted phase-1 chunk (degenerate gather:
        global sum ≤ 0). Without this a later algorithm phase on the
        same pool would see stale _pending state."""
        self._pending = None
        return True

    # -- owner role: sampled Brandes (level/sigma/delta resident) ----
    # Per source: level-synchronous forward BFS accumulating path
    # counts, then backward dependency passes — each phase is the
    # same assembled-broadcast + shard_gather_sum + range-combine
    # exchange as PageRank, with masks applied owner-side. Only the
    # SAMPLED variant lives here (k sources, k ≪ n); exact
    # all-sources BC stays dense-only (whole-graph CSR per worker).

    def owner_brandes_init(self) -> bool:
        m = self.hi - self.lo
        self.b_level = np.full(m, -1.0)
        self.b_sigma = np.zeros(m)
        self.b_delta = np.zeros(m)
        self.b_bc = np.zeros(m)
        return True

    def owner_brandes_reset_source(self, src_dense: int) -> bool:
        # reallocate, don't .fill(): a preceding BATCH pass leaves
        # (width, b) matrices behind, and filling them would keep
        # the stale shape (bit the mixed batch/single-source run)
        m = self.hi - self.lo
        self.b_level = np.full(m, -1.0)
        self.b_sigma = np.zeros(m)
        self.b_delta = np.zeros(m)
        if self.lo <= src_dense < self.hi:
            self.b_level[src_dense - self.lo] = 0.0
            self.b_sigma[src_dense - self.lo] = 1.0
        return True

    def owner_brandes_reset_batch(self, srcs: np.ndarray) -> bool:
        """Source-batched Brandes state: (width, b) matrices, one
        column per source. The reference runs one thread-block per
        source concurrently (kernels_free.cu:428-445); batching b
        sources per superstep amortizes the per-task RTT b× and
        turns the per-message gather into b contiguous floats."""
        m = self.hi - self.lo
        b = srcs.size
        self.b_level = np.full((m, b), -1.0)
        self.b_sigma = np.zeros((m, b))
        self.b_delta = np.zeros((m, b))
        cols = np.flatnonzero((srcs >= self.lo) & (srcs < self.hi))
        rows = srcs[cols] - self.lo
        self.b_level[rows, cols] = 0.0
        self.b_sigma[rows, cols] = 1.0
        return True

    def owner_brandes_accumulate_batch(self, srcs: np.ndarray) -> bool:
        add = self.b_delta
        cols = np.flatnonzero((srcs >= self.lo) & (srcs < self.hi))
        if cols.size:
            add = add.copy()
            add[srcs[cols] - self.lo, cols] = 0.0
        self.b_bc += add.sum(axis=1)
        return True

    def owner_make_sigma_frontier(self, depth: float) -> np.ndarray:
        return np.where(self.b_level == depth, self.b_sigma, 0.0)

    def owner_combine_brandes_fwd(self, depth: float, my_idx: int,
                                  *shard_outs) -> int:
        # zeros_like: state is (width,) single-source or (width, b)
        # batched — the expressions below are shape-generic
        acc = np.zeros_like(self.b_sigma)
        for out in shard_outs:
            uniq_v, sums = out[my_idx]
            acc[uniq_v - self.lo] += sums
        newly = (self.b_level == -1.0) & (acc > 0.0)
        self.b_level[newly] = depth + 1.0
        self.b_sigma[newly] = acc[newly]
        return int(np.count_nonzero(newly))

    def owner_make_delta_term(self, depth: float) -> np.ndarray:
        # (1+delta)/sigma for vertices at the deeper level `depth`
        out = np.zeros_like(self.b_sigma)
        mask = self.b_level == depth
        out[mask] = (1.0 + self.b_delta[mask]) / self.b_sigma[mask]
        return out

    def owner_combine_brandes_bwd(self, depth: float, my_idx: int,
                                  *shard_outs) -> bool:
        # every edge between level `depth` and `depth+1` is a DAG
        # edge in an unweighted BFS, so the plain neighbor gather
        # masked to level==depth is exactly the predecessor sum
        acc = np.zeros_like(self.b_sigma)
        for out in shard_outs:
            uniq_v, sums = out[my_idx]
            acc[uniq_v - self.lo] += sums
        mask = self.b_level == depth
        self.b_delta[mask] += self.b_sigma[mask] * acc[mask]
        return True

    def owner_brandes_accumulate(self, src_dense: int) -> bool:
        add = self.b_delta
        if self.lo <= src_dense < self.hi:
            add = add.copy()
            add[src_dense - self.lo] = 0.0
        self.b_bc += add
        return True

    def owner_commit_bc(self) -> bool:
        self.state = self.b_bc
        return True

    # -- weighted sampled Brandes (distance-bucket sweeps) -----------

    def owner_wbc_start(self) -> np.ndarray:
        """Capture this source's converged distances (self.state)
        as the bucket key, reset sigma/delta, return the chunk's
        distinct finite distances (the driver unions the small
        per-owner sets into the global sweep schedule)."""
        self.b_level = self.state.copy()
        m = self.hi - self.lo
        self.b_sigma = np.zeros(m)
        self.b_delta = np.zeros(m)
        fin = self.b_level[np.isfinite(self.b_level)]
        return np.unique(fin)

    def owner_wbc_set_sigma_source(self, src_dense: int) -> bool:
        if self.lo <= src_dense < self.hi:
            self.b_sigma[src_dense - self.lo] = 1.0
        return True

    def owner_get_wbc_dist(self) -> np.ndarray:
        return self.b_level

    def owner_make_sigma_bucket(self, dval: float) -> np.ndarray:
        return np.where(self.b_level == dval, self.b_sigma, 0.0)

    def owner_combine_wbc_fwd(self, my_idx: int, *shard_outs) -> bool:
        # every DAG edge delivers exactly once (when its source's
        # bucket is swept), so += accumulates exact path counts
        acc = np.zeros_like(self.b_sigma)
        for out in shard_outs:
            uniq_v, sums = out[my_idx]
            acc[uniq_v - self.lo] += sums
        self.b_sigma += acc
        return True

    def owner_make_delta_bucket(self, dval: float) -> np.ndarray:
        out = np.zeros_like(self.b_sigma)
        mask = (self.b_level == dval) & (self.b_sigma > 0)
        out[mask] = (1.0 + self.b_delta[mask]) / self.b_sigma[mask]
        return out

    def owner_combine_wbc_bwd(self, my_idx: int, *shard_outs) -> bool:
        acc = np.zeros_like(self.b_sigma)
        for out in shard_outs:
            uniq_v, sums = out[my_idx]
            acc[uniq_v - self.lo] += sums
        self.b_delta += self.b_sigma * acc
        return True

    # -- batched weighted Brandes (distance matrices, union sweeps)

    def owner_wbc_reset_batch(self, srcs: np.ndarray) -> bool:
        """(width, b) distance/sigma/delta matrices, one column per
        source; distances start at inf with 0 at each column's
        source."""
        m = self.hi - self.lo
        b = srcs.size
        self.b_level = np.full((m, b), np.inf)
        self.b_sigma = np.zeros((m, b))
        self.b_delta = np.zeros((m, b))
        cols = np.flatnonzero((srcs >= self.lo) & (srcs < self.hi))
        self.b_level[srcs[cols] - self.lo, cols] = 0.0
        return True

    def owner_get_wbc_dist_ref(self) -> np.ndarray:
        return self.b_level

    def owner_wbc_combine_min(self, my_idx: int, *shard_outs) -> int:
        """Min-plus combine into the batched distance matrix;
        returns #entries improved."""
        new = self.b_level.copy()
        for out in shard_outs:
            uniq_v, mins = out[my_idx]
            idx = uniq_v - self.lo
            new[idx] = np.minimum(new[idx], mins)
        changed = int(np.count_nonzero(new != self.b_level))
        self.b_level = new
        return changed

    def owner_wbc_start_batch(self, srcs: np.ndarray) -> np.ndarray:
        """After the batched SSSP: seed sigma at each column's
        source and return the chunk's distinct finite distances
        (union across columns — the batch's sweep schedule)."""
        cols = np.flatnonzero((srcs >= self.lo) & (srcs < self.hi))
        self.b_sigma[srcs[cols] - self.lo, cols] = 1.0
        fin = self.b_level[np.isfinite(self.b_level)]
        return np.unique(fin)

    # -- owner role: sharded BiCC (Tarjan–Vishkin over the BFS forest)
    # Reference semantics bicc.cpp:81-161; the distributed form runs
    # the dense pipeline's level sweeps as per-level owner exchanges
    # (pipelines/bicc.py derives the algorithm; bicc_sharded.py
    # orchestrates). All per-vertex vectors live in self.bicc —
    # size/pre/tmin/tmax/outmin/outmax/label — each an (hi−lo) chunk.

    def owner_bicc_init(self) -> int:
        """After sharded CC (state = min-id labels): re-init
        state/aux as BFS level/parent with every component's min-id
        vertex a root at level 0. Returns the local root count."""
        own = np.arange(self.lo, self.hi, dtype=np.int64)
        roots = self.state.astype(np.int64) == own
        self.state = np.where(roots, 0.0, -1.0)
        self.aux = np.full(own.size, -1.0)
        m = own.size
        imax = np.iinfo(np.int64).max
        self.bicc = {
            "size": np.ones(m, dtype=np.int64),
            "pre": np.zeros(m, dtype=np.int64),
            "tmin": np.full(m, imax, dtype=np.int64),
            "tmax": np.full(m, -1, dtype=np.int64),
        }
        return int(roots.sum())

    def owner_get_bicc(self, key: str) -> np.ndarray:
        return self.bicc[key]

    def owner_bicc_size_partial(self, k: float):
        """(parent, subtree size) rows for my vertices at level k —
        the bottom-up size sweep's send side."""
        idx = np.flatnonzero(self.state == k)
        return (self.aux[idx].astype(np.int64),
                self.bicc["size"][idx].astype(np.float64))

    def owner_bicc_size_combine(self, pair) -> bool:
        par, sz = pair
        m = (par >= self.lo) & (par < self.hi)
        np.add.at(self.bicc["size"], par[m] - self.lo,
                  sz[m].astype(np.int64))
        return True

    def owner_bicc_root_sizesum(self) -> int:
        roots = np.flatnonzero(self.state == 0.0)
        return int(self.bicc["size"][roots].sum())

    def owner_bicc_set_root_pre(self, base: int) -> bool:
        """Roots get disjoint preorder ranges: global cumsum of root
        sizes in id order (owner ranges ascend, so a per-owner base
        from the driver's O(P) exclusive scan suffices)."""
        roots = np.flatnonzero(self.state == 0.0)
        sz = self.bicc["size"][roots]
        self.bicc["pre"][roots] = base + np.cumsum(sz) - sz
        return True

    def owner_bicc_child_triple(self, k1: float):
        """(parent, child, size) rows for my vertices at level k1 —
        the top-down preorder sweep's send side."""
        idx = np.flatnonzero(self.state == k1)
        return (self.aux[idx].astype(np.int64),
                idx + self.lo,
                self.bicc["size"][idx])

    def owner_bicc_assign_child_pre(self, triple):
        """For children whose PARENT lives in my range: sibling-sort
        by child id per parent and lay out preorder blocks —
        pre[child_i] = pre[parent] + 1 + Σ size(child_j<i). Returns
        (child, pre) rows to route back to the children's owners."""
        par, ch, sz = triple
        m = (par >= self.lo) & (par < self.hi)
        par, ch, sz = par[m], ch[m], sz[m]
        if par.size == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z.astype(np.float64)
        o = np.lexsort((ch, par))
        par, ch, sz = par[o], ch[o], sz[o]
        run_start = np.r_[True, par[1:] != par[:-1]]
        csz = np.cumsum(sz) - sz
        base = np.repeat(csz[run_start], np.diff(
            np.r_[np.flatnonzero(run_start), ch.size]))
        pre_child = (self.bicc["pre"][par - self.lo] + 1
                     + (csz - base))
        return ch, pre_child.astype(np.float64)

    def owner_bicc_write_pre(self, pair) -> bool:
        ch, pv = pair
        m = (ch >= self.lo) & (ch < self.hi)
        self.bicc["pre"][ch[m] - self.lo] = pv[m].astype(np.int64)
        return True

    def shard_bicc_nontree_minmax(self, bounds: np.ndarray,
                                  parent: np.ndarray,
                                  pre: np.ndarray):
        """Range-split (v, min pre[u], max pre[u]) partials over
        NON-TREE messages (one full-edge pass; parent/pre arrive as
        assembled plasma vectors)."""
        z = np.empty(0, dtype=np.int64)
        if self.u.size == 0:
            return tuple((z, z, z) for _ in range(len(bounds) - 1))
        vexp = getattr(self, "_vexp", None)
        if vexp is None:
            seg_lengths = np.diff(np.append(self.seg, self.u.size))
            uniq_tiled = (np.tile(self.uniq_v, self.rep_fold)
                          if self.rep_fold > 1 else self.uniq_v)
            vexp = np.repeat(uniq_tiled, seg_lengths)
            self._vexp = vexp
        nontree = (parent[vexp] != self.u) & (parent[self.u] != vexp)
        imax = np.iinfo(np.int64).max
        pu = pre[self.u]
        mins = np.minimum.reduceat(np.where(nontree, pu, imax), self.seg)
        maxs = np.maximum.reduceat(np.where(nontree, pu, -1), self.seg)
        cuts = np.searchsorted(self.uniq_v, bounds)
        return tuple((self.uniq_v[cuts[i]:cuts[i + 1]].astype(np.int64),
                      mins[cuts[i]:cuts[i + 1]],
                      maxs[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def owner_bicc_minmax_combine(self, my_idx: int,
                                  *shard_outs) -> bool:
        """Fold the shards' non-tree pre-min/max into tmin/tmax,
        then copy into the OUTMIN/OUTMAX accumulators (the leaves'
        starting values for the bottom-up escape sweep)."""
        tmin, tmax = self.bicc["tmin"], self.bicc["tmax"]
        for out in shard_outs:  # v unique per part
            v, mn, mx = out[my_idx]
            idx = v - self.lo
            tmin[idx] = np.minimum(tmin[idx], mn)
            tmax[idx] = np.maximum(tmax[idx], mx)
        self.bicc["outmin"] = tmin.copy()
        self.bicc["outmax"] = tmax.copy()
        return True

    def owner_bicc_out_partial(self, k: float):
        """(parent, OUTMIN, OUTMAX) rows for my level-k vertices."""
        idx = np.flatnonzero(self.state == k)
        return (self.aux[idx].astype(np.int64),
                self.bicc["outmin"][idx], self.bicc["outmax"][idx])

    def owner_bicc_out_combine(self, triple) -> bool:
        par, mn, mx = triple
        m = (par >= self.lo) & (par < self.hi)
        np.minimum.at(self.bicc["outmin"], par[m] - self.lo, mn[m])
        np.maximum.at(self.bicc["outmax"], par[m] - self.lo, mx[m])
        return True

    def shard_bicc_rule_a(self, parent: np.ndarray, pre: np.ndarray,
                          size: np.ndarray) -> dict:
        """Rule-A auxiliary edges from this shard's edges: for each
        canonical non-tree edge (x, y) with NEITHER endpoint an
        ancestor of the other (preorder-interval test), glue tree
        edges keyed by x and y. Each undirected edge lives in
        exactly one shard (both message directions), so the u < v
        canonical filter emits each pair once globally. Emitted in
        the edge-part form (s, d, w) — see owner_bicc_rule_b."""
        if self.u.size == 0:
            z = np.empty(0, dtype=np.int64)
            return {"s": z, "d": z, "w": z}
        vexp = self._vexp  # built by shard_bicc_nontree_minmax
        canon = self.u < vexp
        nontree = (parent[vexp] != self.u) & (parent[self.u] != vexp)
        m = canon & nontree
        x = self.u[m].astype(np.int64)
        y = vexp[m].astype(np.int64)
        x_in_y = (pre[y] <= pre[x]) & (pre[x] < pre[y] + size[y])
        y_in_x = (pre[x] <= pre[y]) & (pre[y] < pre[x] + size[x])
        cross = ~x_in_y & ~y_in_x
        x, y = x[cross], y[cross]
        return {"s": x, "d": y, "w": np.ones(x.size, dtype=np.int64)}

    def owner_bicc_rule_b(self, parent: np.ndarray, pre: np.ndarray,
                          size: np.ndarray) -> dict:
        """Rule-B auxiliary edges for my vertices w (child of a
        non-root c): glue (p(c),c) ~ (c,w) iff some non-tree edge
        from sub(w) escapes c's preorder interval. Emitted directly
        in the edge-part form (s, d, w) that ``load_alt_edges``
        reads, so the aux edges need no rewrite."""
        w = np.flatnonzero(self.aux >= 0)
        c = self.aux[w].astype(np.int64)
        ok = parent[c] >= 0
        w, c = w[ok], c[ok]
        esc = ((self.bicc["outmin"][w] < pre[c])
               | (self.bicc["outmax"][w] >= pre[c] + size[c]))
        c, w = c[esc], w[esc] + self.lo
        return {"s": c, "d": w, "w": np.ones(c.size, dtype=np.int64)}

    def owner_bicc_set_label_chunk(self, full) -> bool:
        """Install this range's BCC labels from the aux-CC pool's
        ASSEMBLED label vector (sliced here, so the two pools need
        not share owner bounds): children take their aux-CC label
        (own id when aux-isolated — a lone tree edge is its own
        BCC), roots get -1 (no tree edge keyed by a root). ``None``
        = no aux edges at all → every child its own id."""
        own = np.arange(self.lo, self.hi, dtype=np.int64)
        lab = own if full is None \
            else full[self.lo:self.hi].astype(np.int64)
        self.bicc["label"] = np.where(self.aux >= 0, lab, -1)
        return True

    def owner_bicc_pairs(self) -> dict:
        """(vertex, incident tree-edge label) columns for the
        articulation count: each non-root child contributes its own
        edge's label to itself AND to its parent."""
        w = np.flatnonzero(self.aux >= 0)
        lab = self.bicc["label"][w]
        par = self.aux[w].astype(np.int64)
        return {"v": np.concatenate([par, w + self.lo]),
                "lab": np.concatenate([lab, lab])}

    def owner_set_teleport(self, idx: np.ndarray, wts: np.ndarray) -> bool:
        """Install this range's slice of a (sparse, normalized)
        teleport vector and init state to it — personalized
        PageRank. ``idx``/``wts`` are the FULL k-entry dense-id
        personalization (k ≪ n, broadcast to every owner)."""
        tele = np.zeros(self.hi - self.lo, dtype=np.float64)
        sel = (idx >= self.lo) & (idx < self.hi)
        tele[idx[sel] - self.lo] = wts[sel]
        self.tele = tele
        self.state = tele.copy()
        return True

    def owner_combine_ppr(self, alpha: float, my_idx: int,
                          *shard_outs):
        """PPR combine: teleport/dangling mass follow the resident
        teleport chunk instead of the uniform 1/n scalar."""
        dangling_mass = sum(shard_outs[0][-1].tolist())
        new = ((1.0 - alpha) * self.tele
               + alpha * (self._gathered(my_idx, shard_outs)
                          + dangling_mass * self.tele))
        return self._commit(new), self.owner_make_w_mass()

    def owner_combine_katz(self, alpha: float, beta: float, my_idx: int,
                           *shard_outs):
        """Katz combine x ← β + α·(gathered chunk), no global
        normalization; returns (local L1 delta, next carry)."""
        new = beta + alpha * self._gathered(my_idx, shard_outs)
        return self._commit(new), new

    def _min_folded(self, my_idx: int, shard_outs) -> np.ndarray:
        new = self.state.copy()
        for out in shard_outs:  # uniq_v unique per part
            uniq_v, mins = out[my_idx]
            idx = uniq_v - self.lo
            new[idx] = np.minimum(new[idx], mins)
        return new

    def owner_combine_min(self, my_idx: int, *shard_outs):
        """Min-plus combine (SSSP); returns (#improved, next carry)."""
        new = self._min_folded(my_idx, shard_outs)
        return self._changed(new), new

    def owner_combine_min_jump(self, my_idx: int, *outs_and_labs):
        """Min-label combine + POINTER JUMP (lab ← lab[lab]) for CC:
        the P shard outputs come first, then the superstep's P
        (pre-update) owner label chunks. Labels are dense vertex ids,
        so one extra gather per superstep contracts label distances
        geometrically — O(log n) supersteps instead of O(diameter).
        Labels only decrease toward the same min-id fixpoint, so
        results are identical; only the superstep count changes.
        (SSSP keeps the plain combine — distances are not ids.)
        Returns (#changed, next carry)."""
        P = len(outs_and_labs) // 2
        new = self._min_folded(my_idx, outs_and_labs[:P])
        new = np.minimum(new, _concat(outs_and_labs[P:])[
            new.astype(np.int64)])
        return self._changed(new), new

    # -- shard role: range-split gathers -----------------------------
    # A superstep's state vector arrives as the P owners' chunks
    # (varargs, auto-deref'd zero-copy) and each shard joins them
    # into a private copy (``_concat``): no assemble task sits
    # between the owners and the shards, so a superstep is two
    # dependent hops. The Brandes/WBC passes still hand over ONE
    # assembled object, which passes through uncopied.

    def shard_gather_sum(self, bounds: np.ndarray, weighted: bool,
                         *chunks):
        # segment-aligned chunking keeps the gathered message vector
        # c cache-resident instead of round-tripping it through DRAM
        # (write 8B + reduceat re-read 8B per message saved).
        # w may be (n,) single-state or (n, b) source-batched — the
        # gather then pulls b CONTIGUOUS floats per message and the
        # reduceat runs along axis 0; all shapes below are generic.
        w = _concat(chunks)
        tail = tuple(w.shape[1:])
        if self.u.size == 0:
            sums = np.empty((0,) + tail, dtype=np.float64)
        else:
            seg = self.seg
            sums = np.empty((seg.size,) + tail, dtype=np.float64)
            # keep the chunk's gathered bytes constant when the
            # state is (n, b): b× wider rows → b× fewer messages
            CH = (1 << 20) // (tail[0] if tail else 1)
            s0 = 0
            while s0 < seg.size:
                lo = seg[s0]
                s1 = int(np.searchsorted(seg, lo + CH, side="left"))
                s1 = max(s1, s0 + 1)
                hi = seg[s1] if s1 < seg.size else self.u.size
                c = w[self.u[lo:hi]]
                if weighted:
                    ww = self.w[lo:hi]
                    c = c * (ww[:, None] if tail else ww)
                sums[s0:s1] = np.add.reduceat(c, seg[s0:s1] - lo,
                                              axis=0)
                s0 = s1
        if self.rep_fold > 1:
            sums = sums.reshape((self.rep_fold, -1) + tail).sum(axis=0)
        cuts = np.searchsorted(self.uniq_v, bounds)
        return tuple((self.uniq_v[cuts[i]:cuts[i + 1]],
                      sums[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def shard_gather_pr(self, bounds: np.ndarray, weighted: bool,
                        *chunks):
        """``shard_gather_sum`` over the owners' (rank/deg chunk,
        [dangling mass]) carries; the owner-ordered masses ride along
        as one slot past the P parts."""
        w, masses = _concat(chunks)
        return self.shard_gather_sum(bounds, weighted, w) + (masses,)

    def shard_gather_wdag_sum(self, bounds: np.ndarray,
                              dist: np.ndarray, x: np.ndarray,
                              reverse: bool):
        """Weighted shortest-path-DAG gather: deliver ``x[u]`` only
        over messages whose edge is a DAG edge — forward
        ``dist[u] + w == dist[v]``, reverse ``dist[u] == dist[v] +
        w``. ``x`` arrives pre-masked to the active distance bucket.
        ``dist``/``x`` may be (n,) or source-batched (n, b); the
        per-message temporaries are segment-chunked so the batched
        (chunk, b) blocks stay heap-friendly. Costs one lazily-built
        per-message v array (+8 B/msg) on first use — the price of
        edge-level DAG tests against resident arrays."""
        tail = tuple(x.shape[1:])
        if self.u.size == 0:
            z = np.empty(0, dtype=np.int64)
            return tuple((z, np.empty((0,) + tail, dtype=np.float64))
                         for _ in range(len(bounds) - 1))
        vexp = getattr(self, "_vexp", None)
        if vexp is None:
            seg_lengths = np.diff(np.append(self.seg, self.u.size))
            uniq_tiled = (np.tile(self.uniq_v, self.rep_fold)
                          if self.rep_fold > 1 else self.uniq_v)
            vexp = np.repeat(uniq_tiled, seg_lengths)
            self._vexp = vexp
        seg = self.seg
        sums = np.empty((seg.size,) + tail, dtype=np.float64)
        CH = (1 << 20) // (tail[0] if tail else 1)
        s0 = 0
        while s0 < seg.size:
            lo = seg[s0]
            s1 = int(np.searchsorted(seg, lo + CH, side="left"))
            s1 = max(s1, s0 + 1)
            hi = seg[s1] if s1 < seg.size else self.u.size
            du = dist[self.u[lo:hi]]
            dv = dist[vexp[lo:hi]]
            ww = self.w[lo:hi, None] if tail else self.w[lo:hi]
            ok = (du == dv + ww) if reverse else (du + ww == dv)
            c = x[self.u[lo:hi]] * ok
            sums[s0:s1] = np.add.reduceat(c, seg[s0:s1] - lo, axis=0)
            s0 = s1
        if self.rep_fold > 1:
            sums = sums.reshape((self.rep_fold, -1) + tail).sum(axis=0)
        cuts = np.searchsorted(self.uniq_v, bounds)
        return tuple((self.uniq_v[cuts[i]:cuts[i + 1]],
                      sums[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def shard_gather_minplus(self, bounds: np.ndarray, *chunks):
        """Min-plus gather (weighted SSSP superstep): per dst the
        min of dist[src] + edge weight. ``dist`` may be (n,) or
        source-batched (n, b)."""
        dist = _concat(chunks)
        tail = tuple(dist.shape[1:])
        if self.u.size == 0:
            z = np.empty(0, dtype=np.int64)
            return tuple((z, np.empty((0,) + tail, dtype=np.float64))
                         for _ in range(len(bounds) - 1))
        seg = self.seg
        mins = np.empty((seg.size,) + tail, dtype=np.float64)
        CH = (1 << 20) // (tail[0] if tail else 1)
        s0 = 0
        while s0 < seg.size:
            lo = seg[s0]
            s1 = int(np.searchsorted(seg, lo + CH, side="left"))
            s1 = max(s1, s0 + 1)
            hi = seg[s1] if s1 < seg.size else self.u.size
            c = dist[self.u[lo:hi]]
            c = c + (self.w[lo:hi, None] if tail else self.w[lo:hi])
            mins[s0:s1] = np.minimum.reduceat(c, seg[s0:s1] - lo,
                                              axis=0)
            s0 = s1
        if self.rep_fold > 1:
            mins = mins.reshape((self.rep_fold, -1) + tail).min(axis=0)
        cuts = np.searchsorted(self.uniq_v, bounds)
        return tuple((self.uniq_v[cuts[i]:cuts[i + 1]],
                      mins[cuts[i]:cuts[i + 1]])
                     for i in range(len(bounds) - 1))

    def shard_gather_min(self, bounds: np.ndarray, *labs):
        return _range_split_min(self.u, self.seg, self.uniq_v,
                                self.rep_fold, bounds, _concat(labs))


_REMOTE = None


def remote_class():
    """``EdgeShard`` as a Ray actor class, built once per process. The
    class itself lives at module level, so Ray pickles it by reference
    and an actor process imports this module alone."""
    global _REMOTE
    if _REMOTE is None:
        import ray

        # fractional CPU: shards are idle between supersteps — a full-CPU
        # reservation would starve concurrent Ray Data stages (and deadlock
        # pool creation when pool size ≥ cluster CPUs)
        _REMOTE = ray.remote(num_cpus=0.1)(EdgeShard)
    return _REMOTE
