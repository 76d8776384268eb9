"""Louvain community detection — multi-level modularity optimization
(Blondel et al. 2008, "Fast unfolding of communities in large
networks"; public method, re-derived for this engine).

The modularity-optimizing upgrade over label propagation: repeated
LOCAL-MOVE phases (each vertex greedily joins the neighboring
community with the best modularity gain) followed by GRAPH
CONTRACTION (communities become super-vertices, parallel edges sum,
intra-community weight becomes a self-loop), until a level admits no
improving move.

Determinism — the part naive parallel Louvain gets wrong. Synchronous
all-vertex moves oscillate (two adjacent vertices can swap
communities forever) and depend on tie order. This implementation
moves vertices COLOR CLASS AT A TIME over a Jones–Plassmann greedy
coloring of the level graph (`coloring._jp_local_rounds` — already a
deterministic engine kernel): within a class no two movers are
adjacent, so no swap oscillation exists, and the argmax is decided in
exact INTEGER arithmetic (score·2m = 2m·k_{v,c} − k_v·Σtot_c^{−v};
ties keep the current community, then smallest community id), so the
output is a pure function of (graph, seed) — reproducible across
runs, modes and partitionings. Non-adjacent same-class movers can
still interact through the Σtot terms, the standard parallel-Louvain
approximation (Grappolo/NetworKit do the same); a per-phase round cap
plus the no-moves fixpoint bounds it, and modularity is re-scored per
level so the ACCEPTED hierarchy is exactly measured, not assumed.

Scale posture: the local-move kernel runs on driver arrays, within the
``graph.DRIVER_KERNEL_EDGES`` envelope under which MIS and coloring
also run on driver arrays (level-0 is the only big level; every
contraction collapses the graph by orders of magnitude). Distributed
graphs are pulled through ``Graph.local_arrays``; callers past the
envelope get a loud error rather than a silent driver
materialization.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.coloring import _jp_local_rounds
from centrality_gpu_ray.pipelines.graph import DRIVER_KERNEL_EDGES, Graph

__all__ = ["louvain", "louvain_coarse", "modularity_of_labels"]


def _dense_pri(n: int, seed: int) -> np.ndarray:
    """Deterministic priority permutation over dense ids 0..n−1 — the
    ONE `mis_priorities` construction applied to the level graph's own
    ids (a re-implementation here could drift from the sharded-JP
    parity argument; review finding r5)."""
    from centrality_gpu_ray.pipelines.mis import mis_priorities

    return mis_priorities(np.arange(n, dtype=np.int64),
                          seed).astype(np.float64)


def _local_moves(s: np.ndarray, d: np.ndarray, w: np.ndarray,
                 selfw: np.ndarray, n: int, m2: int, seed: int,
                 max_rounds: int) -> tuple[np.ndarray, int, int]:
    """One level's local-move phase; returns (community vector,
    #moves, rounds). Communities are dense ids of this level."""
    comm = np.arange(n, dtype=np.int64)
    # k_v: weighted degree incl. 2·self-loop weight (the standard
    # convention — a self loop contributes both endpoints)
    k_v = np.zeros(n, dtype=np.int64)
    np.add.at(k_v, s, w)
    np.add.at(k_v, d, w)
    k_v += 2 * selfw
    if s.size == 0:
        return comm, 0, 0
    colors, _ = _jp_local_rounds(s, d, _dense_pri(n, seed), cap=n + 1)
    ncolors = int(colors.max()) + 1
    total_moves = 0
    rounds = 0
    # change-driven active set (the classic Louvain work queue): a
    # vertex is re-examined only while its neighborhood's community
    # assignment may have changed — considered vertices deactivate,
    # movers reactivate their neighbors. ΔQ also depends on Σtot of
    # NON-neighbor communities, so an idle vertex can become
    # improvable without any neighbor moving; before declaring a
    # fixpoint, one CONFIRMATION sweep re-examines every vertex — the
    # phase ends only when a full sweep moves nothing (so the
    # docstring's "no improving move remains" claim is real).
    active = np.ones(n, dtype=bool)
    confirming = False
    while rounds < max_rounds and active.any():
        rounds += 1
        moved_round = 0
        for c in range(ncolors):
            mask = (colors == c) & active
            if not mask.any():
                continue
            m1 = mask[s]
            md = mask[d]
            vv = np.concatenate([s[m1], d[md]])
            uu = np.concatenate([d[m1], s[md]])
            ww = np.concatenate([w[m1], w[md]])
            cu = comm[uu]
            # k_{v, community} rows, merged per (v, community)
            key = vv * np.int64(n) + cu
            uniq, inv = np.unique(key, return_inverse=True)
            kvc = np.bincount(inv, weights=ww).astype(np.int64)
            rv = uniq // np.int64(n)
            rc = uniq % np.int64(n)
            # explicit STAY rows (k_{v, own} may be 0 with no row):
            # every class vertex must compare against remaining
            cls = np.flatnonzero(mask)
            rv = np.concatenate([rv, cls])
            rc = np.concatenate([rc, comm[cls]])
            kvc = np.concatenate([kvc, np.zeros(cls.size,
                                                dtype=np.int64)])
            tot = np.bincount(comm, weights=k_v.astype(np.float64),
                              minlength=n).astype(np.int64)
            # Σtot of the candidate community EXCLUDING v itself
            tot_c = tot[rc] - np.where(rc == comm[rv], k_v[rv], 0)
            # ΔQ·(2m)² comparison, exact int64:
            # score = 2m·k_{v,c} − k_v·Σtot_c^{−v}
            score = np.int64(m2) * kvc - k_v[rv] * tot_c
            # argmax per v with (max score, keep current, min comm)
            curm = (rc == comm[rv]).astype(np.int64)
            order = np.lexsort((rc, -curm, -score, rv))
            rv_s = rv[order]
            first = np.ones(rv_s.size, dtype=bool)
            first[1:] = rv_s[1:] != rv_s[:-1]
            win_v = rv_s[first]
            win_c = rc[order][first]
            mv = win_c != comm[win_v]
            active[cls] = False  # examined this sweep
            if mv.any():
                movers = win_v[mv]
                comm[movers] = win_c[mv]
                moved_round += int(movers.size)
                # reactivate the movers' neighborhoods (and the
                # movers: a neighbor's later move can invalidate them)
                mm = np.zeros(n, dtype=bool)
                mm[movers] = True
                touch = mm[s] | mm[d]
                active[s[touch]] = True
                active[d[touch]] = True
        total_moves += moved_round
        if moved_round == 0:
            if confirming:
                break
            confirming = True
            active[:] = True
        else:
            confirming = False
    return comm, total_moves, rounds


def _contract(s, d, w, selfw, comm, n):
    """Contract communities to dense super-vertices; returns
    (s', d', w', selfw', k, dense_comm) with s'<d', parallel edges
    summed, intra-community weight folded into self-loops."""
    uniq = np.unique(comm)
    k = uniq.size
    dense = np.searchsorted(uniq, comm)
    cs, cd_ = dense[s], dense[d]
    lo = np.minimum(cs, cd_)
    hi = np.maximum(cs, cd_)
    intra = lo == hi
    new_selfw = np.bincount(dense, weights=selfw.astype(np.float64),
                            minlength=k).astype(np.int64)
    if intra.any():
        new_selfw += np.bincount(lo[intra],
                                 weights=w[intra].astype(np.float64),
                                 minlength=k).astype(np.int64)
    key = lo[~intra] * np.int64(k) + hi[~intra]
    uk, inv = np.unique(key, return_inverse=True)
    nw = np.bincount(inv, weights=w[~intra]).astype(np.int64)
    return (uk // np.int64(k), uk % np.int64(k), nw, new_selfw, k,
            dense)


def modularity_of_labels(s, d, w, selfw, labels, m2: int) -> float:
    """Exact Newman Q of a labeling over raw (s<d, w, selfw) arrays."""
    if m2 == 0:
        return 0.0
    n = labels.size
    intra = labels[s] == labels[d]
    sin = 2 * int(w[intra].sum()) + 2 * int(selfw.sum())
    k_v = np.zeros(n, dtype=np.int64)
    np.add.at(k_v, s, w)
    np.add.at(k_v, d, w)
    k_v += 2 * selfw
    tot = np.bincount(labels, weights=k_v.astype(np.float64))
    return sin / m2 - float((tot / m2) @ (tot / m2))


def louvain(graph: Graph, config: EngineConfig | None = None,
            seed: int = 0, max_levels: int = 12,
            max_rounds_per_level: int = 8,
            metrics: dict | None = None) -> pa.Table:
    """Returns ``(node, community)`` in ORIGINAL ids; the community
    id is the smallest original member id (the CC/LP convention, so
    the output is id-stable across modes and engines)."""
    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        raise ValueError(
            "louvain: dense envelope only (the local-move kernel runs "
            "on driver arrays; level-0 contraction collapses scale — "
            "a >dense_vertex_limit input wants a pre-clustering pass "
            "first, e.g. label_propagation)")
    if graph.num_edges > DRIVER_KERNEL_EDGES:
        raise ValueError(
            f"louvain: {graph.num_edges} edges exceeds the local-move "
            f"kernel envelope ({DRIVER_KERNEL_EDGES})")
    n = graph.num_vertices
    s, d, w = graph.local_arrays()
    w = w.astype(np.int64)
    selfw = np.zeros(n, dtype=np.int64)
    m2 = 2 * int(w.sum())
    if m2 > 3_000_000_000:
        # exact-integer argmax computes 2m·k_{v,c} in int64; past this
        # total weight the product can overflow — fail loudly instead
        # of silently mis-ranking gains
        raise ValueError(
            f"louvain: total edge weight 2m={m2} exceeds the exact "
            "int64 scoring envelope (3e9); rescale weights first")
    t0 = time.perf_counter()
    # composed assignment: original dense vertex -> current community
    assign = np.arange(n, dtype=np.int64)
    level_q = [modularity_of_labels(s, d, w, selfw, assign, m2)]
    levels = 0
    nl = n
    for _ in range(max_levels):
        comm, moves, _rounds = _local_moves(s, d, w, selfw, nl, m2,
                                            seed, max_rounds_per_level)
        if moves == 0:
            break
        s, d, w, selfw, k, dense = _contract(s, d, w, selfw, comm, nl)
        # dense[v_level] is v_level's super-vertex (dense already
        # composes comm with the community→rank relabel)
        assign = dense[assign]
        levels += 1
        nl = k
        level_q.append(modularity_of_labels(s, d, w, selfw,
                                            np.arange(nl), m2))
        if k == comm.size:
            break
    if metrics is not None:
        metrics.update({
            "levels": levels,
            "communities": int(np.unique(assign).size),
            "modularity": level_q[-1],
            "level_modularity": [round(q, 6) for q in level_q],
            "sec": time.perf_counter() - t0,
        })
    # community id = min ORIGINAL member id
    node_ids = graph.node_ids
    rep = np.full(nl, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, assign, node_ids)
    return pa.table({
        "node": pa.array(node_ids, type=pa.int64()),
        "community": pa.array(rep[assign], type=pa.int64()),
    })


def louvain_coarse(graph: Graph, config: EngineConfig | None = None,
                   seed: int = 0, lp_supersteps: int = 10,
                   max_levels: int = 12,
                   max_rounds_per_level: int = 8,
                   num_partitions: int = 32,
                   metrics: dict | None = None):
    """Louvain past the local-move envelope — the standard practical
    composition for web-scale graphs: (1) owner-resident label
    propagation pre-clusters distributed (any graph size the engine
    handles), (2) ONE distributed contraction aggregates the LP
    partition into a super-graph (edge weights summed per community
    pair, intra-community weight into self-loops — two lookup joins +
    one hash_aggregate, no driver O(n) work), (3) the multi-level
    exact-int64 Louvain kernel optimizes the contracted graph (LP
    partitions collapse scale by orders of magnitude), (4) final
    communities broadcast back over the LP labels in one map. Returns
    a Dataset of ``(node, community)`` in original ids.

    Quality note: level-0 granularity is the LP partition, so
    ``louvain_coarse`` refines BETWEEN LP clusters, not within them —
    the deliberate scale trade-off (Q ≥ the LP partition's Q by
    construction, since contraction preserves Q and every accepted
    move improves it)."""
    import ray
    import ray.data

    from centrality_gpu_ray.pipelines.labelprop import label_propagation
    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_lookup_join)

    cfg = config or graph.config
    t0 = time.perf_counter()
    lp_m: dict = {}
    labels = label_propagation(graph, cfg, max_supersteps=lp_supersteps,
                               metrics=lp_m)
    if isinstance(labels, pa.Table):
        labels_ds = ray.data.from_arrow(labels)
    else:
        labels_ds = labels
    labels_ds = labels_ds.materialize()

    # distributed contraction: canonical original-id edges → labeled →
    # (community_a, community_b, Σw) rows (+ self-loop rows a == b)
    _MISSING = -(1 << 62)
    ew = graph.canonical_edges().map_batches(
        lambda t: pa.table({
            "src": t.column("src").cast(pa.int64()),
            "dst": t.column("dst").cast(pa.int64()),
            "w": (t.column("weight").cast(pa.int64())
                  if "weight" in t.column_names
                  else pa.array(np.ones(t.num_rows, dtype=np.int64)))}),
        batch_format="pyarrow")
    la = hash_lookup_join(ew, labels_ds, row_key="src",
                          dict_key="node", attach={"label": "ls"},
                          outer_fill={"ls": _MISSING},
                          num_partitions=num_partitions)
    lb = hash_lookup_join(la, labels_ds, row_key="dst",
                          dict_key="node", attach={"label": "ld"},
                          outer_fill={"ld": _MISSING},
                          num_partitions=num_partitions)

    def pair_rows(t: pa.Table) -> pa.Table:
        ls = t.column("ls").to_numpy()
        ld = t.column("ld").to_numpy()
        if ((ls == _MISSING) | (ld == _MISSING)).any():
            raise AssertionError("louvain_coarse: LP labels missed an "
                                 "edge endpoint")
        return pa.table({
            "a": pa.array(np.minimum(ls, ld)),
            "b": pa.array(np.maximum(ls, ld)),
            "w": t.column("w")})

    agg = hash_aggregate(lb.map_batches(pair_rows,
                                        batch_format="pyarrow"),
                         keys=["a", "b"], aggs=[("w", "sum")],
                         num_partitions=num_partitions).materialize()
    # envelope gate BEFORE the driver collection — counting is one
    # distributed scalar; collecting an under-coarsened table first
    # would pay the very blow-up the guard exists to prevent
    n_coarse = agg.count()
    if n_coarse > DRIVER_KERNEL_EDGES:
        raise ValueError(
            f"louvain_coarse: contracted graph still has {n_coarse} "
            f"edges (> {DRIVER_KERNEL_EDGES}); raise lp_supersteps so "
            "the pre-clustering coarsens further")
    parts = [b for b in agg.iter_batches(batch_size=None,
                                         batch_format="pyarrow")]
    coarse = pa.concat_tables(parts) if parts else None
    if coarse is None or coarse.num_rows == 0:
        if metrics is not None:
            metrics.update({"lp_supersteps": lp_m.get("supersteps"),
                            "coarse_vertices": 0, "levels": 0,
                            "sec": time.perf_counter() - t0})
        return labels_ds.map_batches(
            lambda t: t.rename_columns(["node", "community"]),
            batch_format="pyarrow")
    a = coarse.column("a").to_numpy()
    b = coarse.column("b").to_numpy()
    cw = coarse.column("w").to_numpy().astype(np.int64)
    comm_ids = np.unique(np.concatenate([a, b]))
    k = comm_ids.size
    da = np.searchsorted(comm_ids, a)
    db = np.searchsorted(comm_ids, b)
    self_m = da == db
    selfw = np.zeros(k, dtype=np.int64)
    np.add.at(selfw, da[self_m], cw[self_m])
    s_c, d_c, w_c = da[~self_m], db[~self_m], cw[~self_m]
    m2 = 2 * int(cw.sum())
    if m2 > 3_000_000_000:
        # same exact-int64 scoring envelope the dense entry enforces —
        # the coarse path is the LARGE-graph path, so the silent-wrap
        # hazard is bigger here, not smaller (review finding r5)
        raise ValueError(
            f"louvain_coarse: total edge weight 2m={m2} exceeds the "
            "exact int64 scoring envelope (3e9); rescale weights "
            "first")

    # multi-level kernel on the contracted graph
    assign = np.arange(k, dtype=np.int64)
    nl = k
    levels = 0
    s2, d2, w2, sw2 = s_c, d_c, w_c, selfw
    for _ in range(max_levels):
        comm, moves, _r = _local_moves(s2, d2, w2, sw2, nl, m2, seed,
                                       max_rounds_per_level)
        if moves == 0:
            break
        s2, d2, w2, sw2, k2, dense = _contract(s2, d2, w2, sw2, comm,
                                               nl)
        assign = dense[assign]
        nl = k2
        levels += 1
    final_q = modularity_of_labels(s2, d2, w2, sw2, np.arange(nl), m2)
    # community id = min LP-label member (LP labels are original ids)
    rep = np.full(nl, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, assign, comm_ids)
    lp_to_comm = rep[assign]  # per contracted vertex

    # broadcast the tiny (lp label → community) map; one streaming map
    lut_ref = ray.put((comm_ids, lp_to_comm))

    def relabel(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(lut_ref)
        lab = t.column("label").to_numpy()
        pos = np.minimum(np.searchsorted(keys, lab),
                         max(keys.size - 1, 0))
        if lab.size and (keys.size == 0
                         or not (keys[pos] == lab).all()):
            # every vertex has an edge (the vertex set IS the edge
            # endpoints), so every LP label must appear in the
            # contracted vertex set — anything else is corruption
            raise AssertionError(
                "louvain_coarse: LP label absent from the contracted "
                "vertex set")
        return pa.table({"node": t.column("node"),
                         "community": pa.array(vals[pos])})

    out = labels_ds.map_batches(relabel, batch_format="pyarrow")
    if metrics is not None:
        metrics.update({
            "lp_supersteps": lp_m.get("supersteps"),
            "coarse_vertices": int(k),
            "coarse_edges": int(coarse.num_rows),
            "levels": levels,
            "communities": int(np.unique(lp_to_comm).size),
            "modularity": final_q,
            "sec": time.perf_counter() - t0,
        })
    return out
