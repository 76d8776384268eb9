"""DeepWalk-style random-walk corpus generation + skip-gram pairs.

``random_walks`` turns a graph into an embedding-training corpus: for
every vertex (or an explicit ``starts`` subset), ``walks_per_node``
walks of ``walk_length`` steps, each step moving to a uniformly (or
weight-proportionally) chosen neighbor. The output is a sequence table
``(walk_id, start, nodes list<int64>)`` in ORIGINAL vertex ids — the
exact input shape word2vec-style trainers consume; ``skipgram_pairs``
explodes it into (center, context) training pairs.

Determinism without RNG state (the repo-wide rule every sampling
operator follows, see ``functions/sampling.py``): the neighbor choice
at step t of walk w is ``splitmix64(w ^ splitmix64(t·SALT ^ seed))``
reduced mod deg(cur) — a pure function of (walk_id, step, seed), so
results are identical across runs, engine modes (local / distributed /
sharded), partitionings, and CPU counts. Weighted choice stays
integer-exact: the pick is ``r mod Σw(cur)`` located in the int64
cumulative-weight segments, never a float inverse-CDF.

Shape at scale: adjacency is symmetrized and hash-partitioned by
source ONCE (P sorted slices pinned in plasma); each of the T steps is
one round of P tasks, each consuming its adjacency slice zero-copy
plus the frontier shards addressed to it, emitting that step's
``(walk_id, step, node)`` rows AND the next frontier pre-split by the
next vertex's hash (``num_returns=P+1`` — no separate split stage, so
a step costs P tasks, not P + blocks). Per-step driver state is P·P
refs; walk rows go straight to the object store. Sequence assembly is
one ``hash_partition_apply`` on walk_id. Total data touched:
(T+1)·|starts| rows — the corpus itself; no stage materializes more.

Second-order node2vec (p/q) walks run the same frontier machinery
with deterministic REJECTION sampling (the scalable method — propose
from the first-order distribution, accept with probability
bias(x)/max_bias where bias is node2vec's 1/p · return, 1 · triangle,
1/q · explore classification): exact second-order sampling without
materializing per-(prev, cur) alias tables, at the cost of a
geometric number of propose/accept rounds per step (expected
max_bias/E[bias] ≤ max(p,1,q)·max(1/p,1,1/q)).  The (prev, cand)
membership test runs on prev's OWN sorted adjacency slice, so a
distributed round is propose-at-partition(cur) →
accept-at-partition(prev) — two exchanges, each pre-split inline like
the first-order step.  All randomness is keyed by (walk_id, step,
round, seed) only, so local and distributed modes emit IDENTICAL
walks (parity-tested).

The reference engine has no walk generator — this is §2.9
beyond-reference surface on the same dense-relabel + partitioned
plasma substrate as the superstep pipelines (``pipelines/shards.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import DictReader, splitmix
from centrality_gpu_ray.pipelines.graph import Graph

__all__ = ["random_walks", "skipgram_pairs"]

_STEP_SALT = np.uint64(0xA24BAED4963EE407)
_ROUND_SALT = np.uint64(0xD6E8FEB86659FD93)
_ACC_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_MAX_REJECT_ROUNDS = 64


def _choice_r(walk_ids: np.ndarray, step: int, seed: int) -> np.ndarray:
    """One u64 per (walk, step) — independent of partitioning, mode,
    and walk history."""
    s = splitmix(np.array([step], dtype=np.uint64) * _STEP_SALT
                 ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))[0]
    return splitmix(walk_ids.astype(np.int64).view(np.uint64) ^ s)


def _choice_r2(walk_ids: np.ndarray, step: int, rnd: int,
               seed: int) -> np.ndarray:
    """One u64 per (walk, step, rejection round) — the second-order
    proposal stream; like ``_choice_r``, a pure function of ids."""
    s = splitmix(np.array(
        [np.uint64(step) * _STEP_SALT
         ^ (np.uint64(rnd) + np.uint64(1)) * _ROUND_SALT
         ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64))[0]
    return splitmix(walk_ids.astype(np.int64).view(np.uint64) ^ s)


def _accept_u(r1: np.ndarray) -> np.ndarray:
    """Uniform-[0,1) accept stream derived from the proposal stream."""
    return splitmix(r1 ^ _ACC_SALT).astype(np.float64) / 2.0**64


def _vpart(v: np.ndarray, num_partitions: int) -> np.ndarray:
    """Vertex → partition route; adjacency build and frontier split
    MUST share this function."""
    return (splitmix(v.astype(np.int64).view(np.uint64))
            % np.uint64(num_partitions)).astype(np.int64)


def _sorted_adj(s: np.ndarray, d: np.ndarray, w: np.ndarray | None):
    """Deterministic neighbor order: lexsort by (src, dst). Returns
    (src_sorted, dst_sorted, pre_w) where pre_w is the int64 exclusive
    cumulative weight (len+1) or None for uniform walks."""
    order = np.lexsort((d, s))
    ss, dd = s[order], d[order]
    if w is None:
        return ss, dd, None
    ws = w[order]
    if ws.dtype.kind not in "iu":
        raise ValueError(
            "weighted random_walks needs integer edge weights for "
            f"exact, partitioning-invariant picks; got {ws.dtype}")
    if ws.size and ws.min() <= 0:
        raise ValueError("weighted random_walks needs positive weights")
    pre = np.zeros(ws.size + 1, dtype=np.int64)
    np.cumsum(ws, out=pre[1:])
    return ss, dd, pre


def _propose(ss: np.ndarray, dd: np.ndarray, pre_w,
             cur: np.ndarray, r: np.ndarray) -> np.ndarray:
    """First-order pick (uniform or weight-proportional) per frontier
    row from the given u64 stream values, on a sorted adjacency slice."""
    lo = np.searchsorted(ss, cur, "left")
    hi = np.searchsorted(ss, cur, "right")
    if cur.size and not (hi > lo).all():
        # every vertex of a symmetrized edge graph has degree >= 1 in
        # its OWN hash partition; a miss means mis-routed frontier rows
        raise AssertionError("random_walks: frontier vertex with no "
                             "adjacency rows in its partition")
    if pre_w is None:
        deg = (hi - lo).astype(np.uint64)
        idx = lo + (r % deg).astype(np.int64)
    else:
        tot = (pre_w[hi] - pre_w[lo]).astype(np.uint64)
        pick = pre_w[lo] + (r % tot).astype(np.int64)
        idx = np.searchsorted(pre_w, pick, "right") - 1
    return dd[idx]


def _step_next(ss: np.ndarray, dd: np.ndarray, pre_w,
               cur: np.ndarray, wid: np.ndarray,
               step: int, seed: int) -> np.ndarray:
    """Vectorized one-step transition on a sorted adjacency slice."""
    return _propose(ss, dd, pre_w, cur, _choice_r(wid, step, seed))


def _edge_keys(ss: np.ndarray, dd: np.ndarray, K: int) -> np.ndarray:
    """Packed (src, dst) membership keys over a sorted adjacency slice
    — sorted because (ss, dd) is lexsorted.  Dense ids < K keep the
    product within int64 up to K ≈ 3e9."""
    return ss.astype(np.int64) * np.int64(K) + dd.astype(np.int64)


def _classify_bias(kk: np.ndarray, K: int, prev: np.ndarray,
                   cand: np.ndarray, inv_p: float,
                   inv_q: float) -> np.ndarray:
    """node2vec bias per (prev, cand) proposal: 1/p if cand == prev
    (return), 1 if (prev, cand) is an edge (triangle), else 1/q
    (explore).  ``kk`` must cover prev's adjacency rows."""
    key = prev.astype(np.int64) * np.int64(K) + cand.astype(np.int64)
    pos = np.searchsorted(kk, key)
    member = np.zeros(key.size, dtype=bool)
    inb = pos < kk.size
    member[inb] = kk[pos[inb]] == key[inb]
    return np.where(cand == prev, inv_p, np.where(member, 1.0, inv_q))


_SEQ_SCHEMA = pa.schema([("walk_id", pa.int64()), ("start", pa.int64()),
                         ("nodes", pa.list_(pa.int64()))])


def _seq_table(wid: np.ndarray, nodes_flat: np.ndarray,
               walk_length: int) -> pa.Table:
    """(walks, T+1) row-major flat nodes → sequence table."""
    L = walk_length + 1
    offsets = (np.arange(wid.size + 1, dtype=np.int64) * L).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets),
                                     pa.array(nodes_flat.astype(np.int64)))
    starts = nodes_flat[::L] if wid.size else nodes_flat
    return pa.table({"walk_id": pa.array(wid.astype(np.int64)),
                     "start": pa.array(starts.astype(np.int64)),
                     "nodes": lists})


def random_walks(graph: Graph, walk_length: int = 40,
                 walks_per_node: int = 1, seed: int = 0,
                 weighted: bool = False, starts=None,
                 p: float = 1.0, q: float = 1.0,
                 config: EngineConfig | None = None,
                 metrics: dict | None = None):
    """Generate random-walk sequences over ``graph``.

    Args:
        graph: any :class:`Graph` (dense or sharded).
        walk_length: steps per walk (output lists have length
            ``walk_length + 1``, start included).
        walks_per_node: walks started at every start vertex; walk k of
            start with dense id v has ``walk_id = v·walks_per_node+k``.
        seed: choice-stream seed.
        weighted: pick neighbors ∝ integer edge weight instead of
            uniformly.
        starts: optional array-like of ORIGINAL vertex ids to start
            from (default: every vertex).
        p, q: node2vec return/in-out parameters.  ``p == q == 1``
            (default) runs the first-order DeepWalk path verbatim;
            otherwise steps ≥ 2 use exact second-order rejection
            sampling (module docstring) — the first step is first-order
            (no prev), as in node2vec.

    Returns:
        Local mode: ``pa.Table``; distributed/sharded: ``Dataset``.
        Columns ``(walk_id, start, nodes list<int64>)``, original ids.
    """
    import time
    cfg = config or graph.config
    t0 = time.perf_counter()
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    if walks_per_node < 1:
        raise ValueError("walks_per_node must be >= 1")
    if not (p > 0.0 and q > 0.0 and np.isfinite(p) and np.isfinite(q)):
        raise ValueError("node2vec p and q must be positive finite")
    if starts is not None:
        starts = np.asarray(starts, dtype=np.int64)
        if np.unique(starts).size != starts.size:
            # walk_id = dense(start)·wpn + k: duplicate starts collide
            # on walk_id, which silently CORRUPTS sequence assembly in
            # the distributed paths (two rows per (wid, step) interleave
            # through the lexsort reshape). Multiplicity is what
            # walks_per_node is for.
            raise ValueError(
                "random_walks: duplicate entries in starts (walk ids "
                "would collide) — use walks_per_node for multiplicity")
    second_order = not (p == 1.0 and q == 1.0)
    if graph.mode == "local":
        if second_order:
            out = _local_walks_2nd(graph, walk_length, walks_per_node,
                                   seed, weighted, starts, p, q)
        else:
            out = _local_walks(graph, walk_length, walks_per_node, seed,
                               weighted, starts)
    elif second_order:
        out = _distributed_walks_2nd(graph, cfg, walk_length,
                                     walks_per_node, seed, weighted,
                                     starts, p, q)
    else:
        out = _distributed_walks(graph, cfg, walk_length, walks_per_node,
                                 seed, weighted, starts)
    if metrics is not None:
        metrics["sec"] = time.perf_counter() - t0
        metrics["mode"] = ("local" if isinstance(out, pa.Table)
                           else ("sharded" if graph.sharded
                                 else "distributed"))
    return out


def _local_walks(graph: Graph, walk_length: int, wpn: int, seed: int,
                 weighted: bool, starts) -> pa.Table:
    n = graph.num_vertices
    if n == 0:
        return _SEQ_SCHEMA.empty_table()
    s, d, w = graph.local_arrays()
    ss, dd, pre_w = _sorted_adj(np.concatenate([s, d]),
                                np.concatenate([d, s]),
                                np.concatenate([w, w]) if weighted else None)
    wid, cur = _start_frontier(graph, wpn, starts)
    out = np.empty((walk_length + 1, wid.size), dtype=np.int64)
    out[0] = cur
    for t in range(1, walk_length + 1):
        cur = _step_next(ss, dd, pre_w, cur, wid, t, seed)
        out[t] = cur
    return _seq_table(wid, graph.node_ids[out.T.reshape(-1)], walk_length)


def _assemble_walks(rows_ds, walk_length: int, dict_meta, P: int):
    """(walk_id, step, node) rows → (walk_id, start, nodes) sequence
    table via one walk_id exchange — shared by both distributed paths
    (first-order and node2vec)."""
    from centrality_gpu_ray.stages.shuffle import hash_partition_apply

    L = walk_length + 1

    def build(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return _SEQ_SCHEMA.empty_table()
        wid = tbl.column("walk_id").to_numpy(zero_copy_only=False)
        stp = tbl.column("step").to_numpy(zero_copy_only=False)
        nod = tbl.column("node").to_numpy(zero_copy_only=False)
        order = np.lexsort((stp, wid))
        wid, nod = wid[order], nod[order]
        if wid.size % L:
            raise AssertionError("random_walks: incomplete walk rows")
        return _seq_table(wid[::L], DictReader(dict_meta).to_original(nod),
                          walk_length)

    return hash_partition_apply(rows_ds, ["walk_id"], build,
                                num_partitions=P)


def _second_order_pick(ss, dd, pre_w, kk, K: int, prev: np.ndarray,
                       cur: np.ndarray, wid: np.ndarray, step: int,
                       seed: int, inv_p: float, inv_q: float) -> np.ndarray:
    """Exact node2vec transition via deterministic rejection sampling —
    the local-mode twin of the distributed propose/accept rounds (same
    (walk_id, step, round) streams, so outputs are identical)."""
    M = max(inv_p, 1.0, inv_q)
    nxt = np.empty_like(cur)
    pend = np.arange(cur.size, dtype=np.int64)
    for rnd in range(_MAX_REJECT_ROUNDS):
        if pend.size == 0:
            return nxt
        r1 = _choice_r2(wid[pend], step, rnd, seed)
        cand = _propose(ss, dd, pre_w, cur[pend], r1)
        bias = _classify_bias(kk, K, prev[pend], cand, inv_p, inv_q)
        acc = _accept_u(r1) * M < bias
        nxt[pend[acc]] = cand[acc]
        pend = pend[~acc]
    raise RuntimeError(
        f"node2vec rejection sampling: {pend.size} walks unaccepted "
        f"after {_MAX_REJECT_ROUNDS} rounds (p/q too extreme — accept "
        "probability min(1/p,1,1/q)/max(1/p,1,1/q) is astronomically "
        "small)")


def _start_frontier(graph: Graph, wpn: int, starts):
    """(wid, cur) initial dense frontier for the local paths."""
    if starts is None:
        start_dense = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        start_dense = graph.dense_index(starts)
        if start_dense is None:
            raise ValueError("starts contains unknown vertex ids")
    wid = (np.repeat(start_dense * wpn, wpn)
           + np.tile(np.arange(wpn, dtype=np.int64), start_dense.size))
    return wid, np.repeat(start_dense, wpn)


def _local_walks_2nd(graph: Graph, walk_length: int, wpn: int, seed: int,
                     weighted: bool, starts, p: float, q: float) -> pa.Table:
    n = graph.num_vertices
    if n == 0:
        return _SEQ_SCHEMA.empty_table()
    s, d, w = graph.local_arrays()
    ss, dd, pre_w = _sorted_adj(np.concatenate([s, d]),
                                np.concatenate([d, s]),
                                np.concatenate([w, w]) if weighted else None)
    kk = _edge_keys(ss, dd, n)
    wid, cur = _start_frontier(graph, wpn, starts)
    out = np.empty((walk_length + 1, wid.size), dtype=np.int64)
    out[0] = cur
    prev = cur
    for t in range(1, walk_length + 1):
        if t == 1:
            nxt = _step_next(ss, dd, pre_w, cur, wid, t, seed)
        else:
            nxt = _second_order_pick(ss, dd, pre_w, kk, n, prev, cur,
                                     wid, t, seed, 1.0 / p, 1.0 / q)
        prev, cur = cur, nxt
        out[t] = cur
    return _seq_table(wid, graph.node_ids[out.T.reshape(-1)], walk_length)


def _distributed_walks(graph: Graph, cfg: EngineConfig, walk_length: int,
                       wpn: int, seed: int, weighted: bool, starts):
    import ray
    import ray.data

    from centrality_gpu_ray.stages.shuffle import _nonempty_block_refs

    n = graph.num_vertices
    P = cfg.num_partitions

    # ---- adjacency: ONE hash exchange by source, pinned sorted slices
    @ray.remote(num_returns=P)
    def adj_split(tbl: pa.Table):
        s = tbl.column("s").to_numpy(zero_copy_only=False)
        d = tbl.column("d").to_numpy(zero_copy_only=False)
        cols = [np.concatenate([s, d]), np.concatenate([d, s])]
        if weighted:
            w = tbl.column("w").to_numpy(zero_copy_only=False)
            cols.append(np.concatenate([w, w]))
        part = _vpart(cols[0], P)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        shards = [tuple(c[order][bounds[i]:bounds[i + 1]] for c in cols)
                  for i in range(P)]
        return tuple(shards) if P > 1 else shards[0]

    @ray.remote
    def adj_build(*shards):
        s = np.concatenate([sh[0] for sh in shards])
        d = np.concatenate([sh[1] for sh in shards])
        w = np.concatenate([sh[2] for sh in shards]) if weighted else None
        return _sorted_adj(s, d, w)

    edge_blocks = _nonempty_block_refs(graph.edges.materialize())
    if not edge_blocks:
        return ray.data.from_arrow(_SEQ_SCHEMA.empty_table())
    split_lists = [adj_split.remote(b) for b in edge_blocks]

    def shard(p):
        return [(sl[p] if P > 1 else sl) for sl in split_lists]

    adj_refs = [adj_build.remote(*shard(p)) for p in range(P)]

    # ---- initial frontier: (walk_id, start) chunks pre-split by hash
    dict_meta = graph.vdict.meta

    def _split_pair(wid: np.ndarray, cur: np.ndarray):
        part = _vpart(cur, P)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        return [(wid[order][bounds[i]:bounds[i + 1]],
                 cur[order][bounds[i]:bounds[i + 1]]) for i in range(P)]

    @ray.remote(num_returns=P + 1)
    def frontier_init(lo: int, hi: int, starts_chunk):
        if starts_chunk is None:
            start_dense = np.arange(lo, hi, dtype=np.int64)
        else:
            start_dense = DictReader(dict_meta).lookup(starts_chunk)
            if start_dense is None:
                raise ValueError("starts contains unknown vertex ids")
        wid = (np.repeat(start_dense * wpn, wpn)
               + np.tile(np.arange(wpn, dtype=np.int64), start_dense.size))
        cur = np.repeat(start_dense, wpn)
        rows = pa.table({"walk_id": pa.array(wid),
                         "step": pa.array(np.zeros(wid.size, np.int64)),
                         "node": pa.array(cur)})
        return (rows, *_split_pair(wid, cur))

    if starts is None:
        n_chunks = max(1, min(P, n))
        edges_chunk = np.linspace(0, n, n_chunks + 1).astype(np.int64)
        init = [frontier_init.remote(int(edges_chunk[i]),
                                     int(edges_chunk[i + 1]), None)
                for i in range(n_chunks)]
    else:
        n_chunks = max(1, min(P, starts.size))
        parts = np.array_split(starts, n_chunks)
        init = [frontier_init.remote(0, 0, c) for c in parts]

    step_rows = [i[0] for i in init]
    frontier = [[i[1 + p] for i in init] for p in range(P)]

    # ---- T step rounds: P tasks each, next frontier pre-split inline
    @ray.remote(num_returns=P + 1)
    def step_task(adj, step: int, *shards):
        ss, dd, pre_w = adj
        wid = np.concatenate([sh[0] for sh in shards])
        cur = np.concatenate([sh[1] for sh in shards])
        nxt = _step_next(ss, dd, pre_w, cur, wid, step, seed)
        rows = pa.table({"walk_id": pa.array(wid),
                         "step": pa.array(np.full(wid.size, step,
                                                  dtype=np.int64)),
                         "node": pa.array(nxt)})
        return (rows, *_split_pair(wid, nxt))

    for t in range(1, walk_length + 1):
        outs = [step_task.remote(adj_refs[p], t, *frontier[p])
                for p in range(P)]
        step_rows.extend(o[0] for o in outs)
        frontier = [[o[1 + q] for o in outs] for q in range(P)]

    return _assemble_walks(ray.data.from_arrow_refs(step_rows),
                           walk_length, dict_meta, P)


def _distributed_walks_2nd(graph: Graph, cfg: EngineConfig,
                           walk_length: int, wpn: int, seed: int,
                           weighted: bool, starts, p: float, q: float):
    """Distributed node2vec: the first-order frontier machinery plus,
    per step ≥ 2, rejection rounds of two pre-split exchanges —
    propose at partition(cur) (needs cur's adjacency slice), accept at
    partition(prev) (needs prev's slice for the (prev, cand) membership
    test).  Frontier rows are (walk_id, cur, prev) triples; per-round
    driver work is P rejection-count scalars."""
    import ray
    import ray.data

    from centrality_gpu_ray.stages.shuffle import _nonempty_block_refs

    n = graph.num_vertices
    P = cfg.num_partitions
    inv_p, inv_q = 1.0 / p, 1.0 / q
    M = max(inv_p, 1.0, inv_q)

    @ray.remote(num_returns=P)
    def adj_split(tbl: pa.Table):
        s = tbl.column("s").to_numpy(zero_copy_only=False)
        d = tbl.column("d").to_numpy(zero_copy_only=False)
        cols = [np.concatenate([s, d]), np.concatenate([d, s])]
        if weighted:
            w = tbl.column("w").to_numpy(zero_copy_only=False)
            cols.append(np.concatenate([w, w]))
        part = _vpart(cols[0], P)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        shards = [tuple(c[order][bounds[i]:bounds[i + 1]] for c in cols)
                  for i in range(P)]
        return tuple(shards) if P > 1 else shards[0]

    @ray.remote
    def adj_build(*shards):
        s = np.concatenate([sh[0] for sh in shards])
        d = np.concatenate([sh[1] for sh in shards])
        w = np.concatenate([sh[2] for sh in shards]) if weighted else None
        ss, dd, pre_w = _sorted_adj(s, d, w)
        return ss, dd, pre_w, _edge_keys(ss, dd, n)

    edge_blocks = _nonempty_block_refs(graph.edges.materialize())
    if not edge_blocks:
        return ray.data.from_arrow(_SEQ_SCHEMA.empty_table())
    split_lists = [adj_split.remote(b) for b in edge_blocks]
    adj_refs = [adj_build.remote(*[(sl[pt] if P > 1 else sl)
                                   for sl in split_lists])
                for pt in range(P)]

    dict_meta = graph.vdict.meta

    def _split_triple(wid, cur, prv):
        part = _vpart(cur, P)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        return [(wid[order][bounds[i]:bounds[i + 1]],
                 cur[order][bounds[i]:bounds[i + 1]],
                 prv[order][bounds[i]:bounds[i + 1]]) for i in range(P)]

    @ray.remote(num_returns=P + 1)
    def frontier_init(lo: int, hi: int, starts_chunk):
        if starts_chunk is None:
            start_dense = np.arange(lo, hi, dtype=np.int64)
        else:
            start_dense = DictReader(dict_meta).lookup(starts_chunk)
            if start_dense is None:
                raise ValueError("starts contains unknown vertex ids")
        wid = (np.repeat(start_dense * wpn, wpn)
               + np.tile(np.arange(wpn, dtype=np.int64), start_dense.size))
        cur = np.repeat(start_dense, wpn)
        rows = pa.table({"walk_id": pa.array(wid),
                         "step": pa.array(np.zeros(wid.size, np.int64)),
                         "node": pa.array(cur)})
        # prev placeholder = cur; step 1 is first-order and ignores it
        return (rows, *_split_triple(wid, cur, cur))

    if starts is None:
        n_chunks = max(1, min(P, n))
        edges_chunk = np.linspace(0, n, n_chunks + 1).astype(np.int64)
        init = [frontier_init.remote(int(edges_chunk[i]),
                                     int(edges_chunk[i + 1]), None)
                for i in range(n_chunks)]
    else:
        n_chunks = max(1, min(P, starts.size))
        init = [frontier_init.remote(0, 0, c)
                for c in np.array_split(starts, n_chunks)]

    step_rows = [i[0] for i in init]
    frontier = [[i[1 + pt] for i in init] for pt in range(P)]

    @ray.remote(num_returns=P + 1)
    def step1_task(adj, *shards):
        ss, dd, pre_w, _kk = adj
        wid = np.concatenate([sh[0] for sh in shards])
        cur = np.concatenate([sh[1] for sh in shards])
        nxt = _step_next(ss, dd, pre_w, cur, wid, 1, seed)
        rows = pa.table({"walk_id": pa.array(wid),
                         "step": pa.array(np.ones(wid.size, np.int64)),
                         "node": pa.array(nxt)})
        return (rows, *_split_triple(wid, nxt, cur))

    outs = [step1_task.remote(adj_refs[pt], *frontier[pt])
            for pt in range(P)]
    step_rows.extend(o[0] for o in outs)
    frontier = [[o[1 + pt] for o in outs] for pt in range(P)]

    # propose at partition(cur): quads (wid, prev, cur, cand) routed by
    # partition(prev) for the membership test
    @ray.remote(num_returns=P)
    def propose_task(adj, step: int, rnd: int, *shards):
        ss, dd, pre_w, _kk = adj
        wid = np.concatenate([sh[0] for sh in shards])
        cur = np.concatenate([sh[1] for sh in shards])
        prv = np.concatenate([sh[2] for sh in shards])
        cand = _propose(ss, dd, pre_w, cur,
                        _choice_r2(wid, step, rnd, seed))
        part = _vpart(prv, P)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        quads = [tuple(c[order][bounds[i]:bounds[i + 1]]
                       for c in (wid, prv, cur, cand)) for i in range(P)]
        return tuple(quads) if P > 1 else quads[0]

    # accept at partition(prev): emit this round's accepted step rows +
    # next-step frontier shards (by partition(cand)) + retry shards
    # (by partition(cur))
    @ray.remote(num_returns=2 * P + 2)
    def accept_task(adj, step: int, rnd: int, *quads):
        _ss, _dd, _pre_w, kk = adj
        wid = np.concatenate([qd[0] for qd in quads])
        prv = np.concatenate([qd[1] for qd in quads])
        cur = np.concatenate([qd[2] for qd in quads])
        cand = np.concatenate([qd[3] for qd in quads])
        r1 = _choice_r2(wid, step, rnd, seed)  # same stream as propose
        bias = _classify_bias(kk, n, prv, cand, inv_p, inv_q)
        acc = _accept_u(r1) * M < bias
        rows = pa.table({
            "walk_id": pa.array(wid[acc]),
            "step": pa.array(np.full(int(acc.sum()), step,
                                     dtype=np.int64)),
            "node": pa.array(cand[acc])})
        nxt_shards = _split_triple(wid[acc], cand[acc], cur[acc])
        rej = ~acc
        rej_shards = _split_triple(wid[rej], cur[rej], prv[rej])
        return (rows, int(rej.sum()), *nxt_shards, *rej_shards)

    for t in range(2, walk_length + 1):
        pending = frontier
        nxt_frontier = [[] for _ in range(P)]
        rnd = 0
        while True:
            props = [propose_task.remote(adj_refs[pt], t, rnd,
                                         *pending[pt])
                     for pt in range(P)]
            accs = [accept_task.remote(
                adj_refs[pu], t, rnd,
                *[(props[pv][pu] if P > 1 else props[pv])
                  for pv in range(P)]) for pu in range(P)]
            step_rows.extend(a[0] for a in accs)
            for pu in range(P):
                for px in range(P):
                    nxt_frontier[px].append(accs[pu][2 + px])
            if sum(ray.get([a[1] for a in accs])) == 0:
                break
            pending = [[accs[pu][2 + P + pv] for pu in range(P)]
                       for pv in range(P)]
            rnd += 1
            if rnd >= _MAX_REJECT_ROUNDS:
                raise RuntimeError(
                    "node2vec rejection sampling: walks unaccepted "
                    f"after {_MAX_REJECT_ROUNDS} distributed rounds")
        frontier = nxt_frontier

    return _assemble_walks(ray.data.from_arrow_refs(step_rows),
                           walk_length, dict_meta, P)


def skipgram_pairs(walks, window: int = 5):
    """Explode walk sequences into (center, context) skip-gram training
    pairs — both directions, all offsets 1..window within a walk.
    Accepts the ``random_walks`` output (``pa.Table`` or Dataset) or
    any table with a ``nodes`` ``list<int64>`` column; returns the same
    kind. Pure vectorized map — no shuffle, streams at any scale."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def fn(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"center": pa.array([], type=pa.int64()),
                          "context": pa.array([], type=pa.int64())})
        if tbl.num_rows == 0:
            return empty
        col = tbl.column("nodes")
        la = (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
              else col)
        values = la.values.to_numpy(zero_copy_only=False)
        offsets = la.offsets.to_numpy(zero_copy_only=False)
        # a sliced ListArray's offsets need not start at 0 and values
        # is the UNsliced buffer — window to [offsets[0], offsets[-1])
        values = values[offsets[0]:offsets[-1]]
        offsets = offsets - offsets[0]
        lid = np.repeat(np.arange(offsets.size - 1),
                        np.diff(offsets).astype(np.int64))
        cs, xs = [], []
        for dist in range(1, window + 1):
            if values.size <= dist:
                break
            a, b = values[:-dist], values[dist:]
            same = lid[:-dist] == lid[dist:]
            cs.extend((a[same], b[same]))
            xs.extend((b[same], a[same]))
        if not cs:
            return empty
        return pa.table({"center": pa.array(np.concatenate(cs)),
                         "context": pa.array(np.concatenate(xs))})

    if isinstance(walks, pa.Table):
        return fn(walks)
    return walks.map_batches(fn, batch_format="pyarrow")
