"""Greedy graph coloring — Jones–Plassmann rounds over the MIS
priority permutation.

The companion symmetry-breaking primitive to ``pipelines/mis.py``: an
uncolored vertex colors itself the round after every HIGHER-priority
neighbor is colored, picking the smallest color absent from its
already-colored neighborhood.  The ready set each round is independent
(adjacent vertices are priority-ordered), so the parallel mex is safe,
and the final coloring is EXACTLY the sequential greedy coloring in
priority order (Jones & Plassmann, SIAM J. Sci. Comput. 1993) — which
is the serial oracle the tests replay.  Rounds = longest
priority-increasing path ≈ O(log n / log log n) whp for a random
permutation.

Per round, two exchanges over the edge set:

1. max-gather of UNCOLORED-neighbor priorities (as a min-gather of the
   negated values — the SSSP message shape) → ready set;
2. distinct (ready vertex, colored-neighbor color) pairs, map-side
   deduped per block, driver-side vectorized mex (total pair volume
   over ALL rounds is ≤ m — each edge contributes to its endpoints'
   coloring rounds only).

Same tail-round optimization as MIS: once the uncolored-induced
subgraph fits a cap, collect it PLUS the fixed boundary colors and
continue the identical loop on driver arrays — bit-identical output.

Dense path: state = driver vectors broadcast per round (the
≤``dense_vertex_limit`` envelope). Sharded path
(``_coloring_sharded``): owner-resident counters + neighbor-color
sets on the shard pool, only newly-colored vertices ship per round
(O(m) total message volume). Greedy coloring is the standard
preprocessing for parallel scheduling / register-allocation-shaped
problems and a quality probe for the partition operators.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.shard_actor import _mex_compact
from centrality_gpu_ray.pipelines.mis import (_LOCAL_FINISH_EDGES,
                                              _induced_edge_count,
                                              _masked_min_gather,
                                              mis_priorities)

_NOCOLOR = np.int64(-1)


def _mex_per_vertex(v: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Smallest color ≥ 0 absent from each ready vertex's pair list.
    Ready vertices with no pairs get 0."""
    return _mex_compact(v, c, n, n + 1)


def _array_pairs(s: np.ndarray, d: np.ndarray, ready: np.ndarray,
                 colors: np.ndarray):
    """(ready endpoint, colored-neighbor color) pairs from edge arrays."""
    col = colors >= 0
    m1 = ready[d] & col[s]
    m2 = ready[s] & col[d]
    return (np.concatenate([d[m1], s[m2]]),
            np.concatenate([colors[s[m1]], colors[d[m2]]]))


def _jp_local_rounds(s: np.ndarray, d: np.ndarray, n: int,
                     pri: np.ndarray, colors: np.ndarray,
                     colored_round: np.ndarray, rnd0: int,
                     bnd_v: np.ndarray, bnd_c: np.ndarray,
                     cap: int) -> int:
    """Change-driven Jones–Plassmann rounds on driver arrays — the
    counter algorithm the owner-resident sharded path runs, locally:
    per uncolored vertex a resident count of uncolored lower-priority
    neighbors (ready ⟺ 0); when a vertex colors, it decrements its
    higher-priority uncolored neighbors, so each edge is touched O(1)
    times TOTAL across all rounds (the per-round full-edge
    gather/scatter loop cost O(alive·rounds) — 284 rounds × 3.6M
    scatter elements ≈ 11 s at sf0.1; this kernel is ~0.3 s). Round
    numbering is identical: a counter hits 0 exactly the round after
    its last lower-priority neighbor colors, which is exactly when
    ``pri < minnbr(uncolored)`` first holds. Colors every uncolored
    vertex; returns the final round number. ``bnd_v/bnd_c``: static
    (uncolored vertex, colored-neighbor color) boundary pairs from a
    mid-run localization (deduped or not — mex tolerates repeats)."""
    from centrality_gpu_ray.nputil import ragged_arange as _rg

    v_all = np.concatenate([d, s])
    u_all = np.concatenate([s, d])
    order = np.argsort(v_all, kind="stable")
    v_s, u_s = v_all[order], u_all[order]
    offs = np.searchsorted(v_s, np.arange(n + 1, dtype=np.int64))
    unc = colors < 0
    # residual edges have both endpoints uncolored by construction;
    # full-graph calls start all-uncolored — either way cnt counts
    # uncolored lower-pri neighbors
    cnt = np.bincount(v_s, weights=(pri[u_s] < pri[v_s]),
                      minlength=n).astype(np.int64)
    if bnd_v.size:
        bo = np.argsort(bnd_v, kind="stable")
        bnd_v, bnd_c = bnd_v[bo], bnd_c[bo]
    remaining = int(unc.sum())
    ready = np.flatnonzero(unc & (cnt == 0))
    rnd = rnd0
    while remaining:
        rnd += 1
        if rnd > cap:
            raise RuntimeError(
                f"greedy_coloring: {remaining} vertices uncolored "
                f"after max_rounds={cap}")
        if ready.size == 0:
            raise AssertionError(
                "greedy_coloring: no ready vertices but "
                f"{remaining} uncolored — counter invariant broken")
        counts = offs[ready + 1] - offs[ready]
        idx = np.repeat(offs[ready], counts) + _rg(counts)
        nbr = u_s[idx]
        rankv = np.repeat(np.arange(ready.size), counts)
        ncol = colors[nbr]
        km = ncol >= 0
        mv, mc = rankv[km], ncol[km]
        if bnd_v.size:
            lo_b = np.searchsorted(bnd_v, ready)
            hi_b = np.searchsorted(bnd_v, ready, side="right")
            bc_counts = hi_b - lo_b
            bidx = np.repeat(lo_b, bc_counts) + _rg(bc_counts)
            mv = np.concatenate([
                mv, np.repeat(np.arange(ready.size), bc_counts)])
            mc = np.concatenate([mc, bnd_c[bidx]])
        mex = _mex_compact(mv, mc, ready.size, n + 1)
        colors[ready] = mex
        colored_round[ready] = rnd
        remaining -= ready.size
        rrep = np.repeat(ready, counts)
        dec = (pri[rrep] < pri[nbr]) & (colors[nbr] < 0)
        tg = nbr[dec]
        np.subtract.at(cnt, tg, 1)
        cand = np.unique(tg)
        ready = cand[cnt[cand] == 0]  # cand is uncolored by the dec mask
    return rnd


class _ReadyColorPairs:
    """Per-block distinct (ready vertex, colored-neighbor color) rows."""

    def __init__(self, state_ref):
        self._ref = state_ref
        self._state = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if self._state is None:
            self._state = ray.get(self._ref)
        ready, colors = self._state
        s = batch.column("s").to_numpy()
        d = batch.column("d").to_numpy()
        v, c = _array_pairs(s, d, ready, colors)
        if v.size:
            uniq = np.unique(v * (np.int64(colors.size) + 1) + c)
            v = uniq // (np.int64(colors.size) + 1)
            c = uniq % (np.int64(colors.size) + 1)
        return pa.table({"v": pa.array(v.astype(np.int64)),
                         "c": pa.array(c.astype(np.int64))})


def greedy_coloring(graph: Graph, seed: int = 0,
                    config: EngineConfig | None = None,
                    max_rounds: int | None = None,
                    metrics: dict | None = None) -> pa.Table:
    """Returns ``(node, color, color_round)`` — the sequential greedy
    coloring in the seed-derived priority order; ``color_round`` is the
    1-based JP round the vertex was colored.  Original node ids.

    ``max_rounds`` defaults to n (the true termination bound — every
    round colors at least the globally-min-priority uncolored vertex),
    NOT ``cfg.max_supersteps``: unlike fixpoint supersteps, JP rounds
    on skewed graphs routinely exceed 100 (153 on the sf0.01 lineitem
    co-occurrence graph) while tail rounds over the compacted residual
    cost microseconds."""
    import ray

    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _coloring_sharded(graph, seed, cfg, max_rounds, metrics)
    n = graph.num_vertices
    cap = n if max_rounds is None else max_rounds
    pri = mis_priorities(graph.node_ids, seed).astype(np.float64)
    colors = np.full(n, _NOCOLOR, dtype=np.int64)
    colored_round = np.zeros(n, dtype=np.int64)
    t0 = time.perf_counter()
    rnd = 0
    s_loc = d_loc = None
    if graph.mode == "local" \
            or graph.num_edges <= _LOCAL_FINISH_EDGES:
        # whole graph already fits the residual budget: start on driver
        # arrays instead of paying 4 Ray Data executor launches
        # (~1.5 s fixed each) for round 1's gathers + gate + collection
        s_loc, d_loc, _w = graph.local_arrays()
    bnd_v = np.empty(0, dtype=np.int64)
    bnd_c = np.empty(0, dtype=np.int64)
    while (colors < 0).any():
        if s_loc is not None:
            # localized: the change-driven counter kernel colors every
            # remaining vertex (each residual edge touched O(1) times
            # total — not O(rounds))
            rnd = _jp_local_rounds(s_loc, d_loc, n, pri, colors,
                                   colored_round, rnd, bnd_v, bnd_c,
                                   cap)
            continue
        rnd += 1
        if rnd > cap:
            raise RuntimeError(
                f"greedy_coloring: {int((colors < 0).sum())} vertices "
                f"uncolored after max_rounds={cap}")
        unc = colors < 0
        minnbr = _masked_min_gather(graph, cfg, unc, pri)
        ready = unc & (pri < minnbr)
        state_ref = ray.put((ready, colors))
        pvs, pcs = [], []
        for b in graph.edges.map_batches(
                _ReadyColorPairs(state_ref), batch_format="pyarrow",
                batch_size=cfg.batch_size).iter_batches(
                batch_size=None, batch_format="pyarrow"):
            pvs.append(b.column("v").to_numpy())
            pcs.append(b.column("c").to_numpy())
        pv = (np.concatenate(pvs) if pvs else
              np.empty(0, dtype=np.int64))
        pc = (np.concatenate(pcs) if pcs else
              np.empty(0, dtype=np.int64))
        colors[ready] = _mex_per_vertex(pv, pc, n)[ready]
        colored_round[ready] = rnd
        if ((colors < 0).any()
                and _induced_edge_count(graph, cfg, colors < 0)
                <= _LOCAL_FINISH_EDGES):
            s_loc, d_loc, bnd_v, bnd_c = _collect_residual(graph, cfg,
                                                           colors)
    if metrics is not None:
        metrics.update({
            "rounds": rnd, "sec": time.perf_counter() - t0,
            "num_colors": int(colors.max()) + 1 if n else 0,
            "mode": graph.mode})
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "color": pa.array(colors),
        "color_round": pa.array(colored_round),
    })


def _coloring_sharded(graph: Graph, seed: int, cfg: EngineConfig,
                      max_rounds: int | None, metrics: dict | None):
    """>dense_vertex_limit JP coloring: owner-resident counters of
    uncolored lower-priority neighbors + resident neighbor-color sets;
    per round only the newly-colored vertices ship (total message
    volume O(m) over ALL rounds — the dense path's per-round full-edge
    gathers don't survive 100× scale). Round-for-round identical to the
    dense path (splitmix64 priorities are bijective, so the hash order
    IS the dense permutation order); returns a Dataset of
    (node, color, color_round) in original ids."""
    import time as _time

    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    n = graph.num_vertices
    cap = n if max_rounds is None else max_rounds
    pool = graph.pool
    if not getattr(pool, "_frontier_capable", True):
        raise ValueError("sharded coloring needs a frontier-capable "
                         "pool (no replica tiling)")
    dict_meta = (graph.vdict.mins, graph.vdict.offsets,
                 graph.vdict.block_refs)
    t0 = _time.perf_counter()
    pool.jp_setup(seed, dict_meta, n)
    rnd = 1
    ncol, pair_ref = pool.jp_color_first()
    total = ncol
    while total < n:
        rnd += 1
        if rnd > cap:
            raise RuntimeError(
                f"greedy_coloring[sharded]: {n - total} vertices "
                f"uncolored after max_rounds={cap}")
        ncol, pair_ref = pool.jp_color_round(pair_ref, rnd)
        total += ncol
    und, max_color = pool.jp_finalize()
    if und:
        raise AssertionError(
            f"greedy_coloring[sharded]: {und} undecided after "
            "termination — counter invariant broken")
    if metrics is not None:
        metrics.update({"rounds": rnd,
                        "sec": _time.perf_counter() - t0,
                        "num_colors": max_color + 1,
                        "mode": "sharded"})
    return scores_dataset(graph.vdict, pool, "color",
                          aux_col="color_round", value_cast="int64",
                          aux_cast="int64")


def _collect_residual(graph: Graph, cfg: EngineConfig,
                      colors: np.ndarray):
    """Uncolored-induced edges + fixed boundary (uncolored vertex,
    colored-neighbor color) pairs, one pass — the shared localization
    helper with colors as the decided-neighbor values."""
    from centrality_gpu_ray.pipelines.localize import collect_induced

    return collect_induced(graph, cfg, colors < 0,
                           decided_values=colors)
