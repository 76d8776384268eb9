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

Both loops are change-driven: each vertex keeps a count of its
uncolored lower-priority neighbors (ready ⟺ 0), and a vertex that
colors decrements its higher-priority neighbors, so each edge is
touched O(1) times over ALL rounds.

* driver arrays (``Graph.rounds_on_driver``: local graphs, and dense
  graphs up to ``graph.DRIVER_KERNEL_EDGES`` edges):
  ``_jp_local_rounds``;
* the shard pool (every other distributed graph, dense or sharded):
  owner-resident counters + neighbor-color sets, only newly-colored
  vertices ship per round (``mis.jp_setup`` loads the priorities).

Greedy coloring is the standard preprocessing for parallel scheduling /
register-allocation-shaped problems and a quality probe for the
partition operators.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.mis import jp_setup, mis_priorities
from centrality_gpu_ray.shard_actor import _mex_compact


def _jp_local_rounds(s: np.ndarray, d: np.ndarray, pri: np.ndarray,
                     cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Change-driven Jones–Plassmann rounds on driver arrays — the
    counter algorithm the owner-resident pool loop runs, locally: per
    uncolored vertex a count of uncolored lower-priority neighbors
    (ready ⟺ 0); when a vertex colors, it decrements its
    higher-priority uncolored neighbors, so each edge is touched O(1)
    times TOTAL across all rounds (the per-round full-edge
    gather/scatter loop cost O(alive·rounds) — 284 rounds × 3.6M
    scatter elements ≈ 11 s at sf0.1; this kernel is ~0.3 s). A
    counter hits 0 exactly the round after its last lower-priority
    neighbor colors, which is exactly when ``pri < minnbr(uncolored)``
    first holds. Colors every vertex of the ``pri.size``-vertex graph;
    returns (colors, 1-based color round)."""
    from centrality_gpu_ray.nputil import ragged_arange as _rg

    n = pri.size
    v_all = np.concatenate([d, s])
    u_all = np.concatenate([s, d])
    order = np.argsort(v_all, kind="stable")
    v_s, u_s = v_all[order], u_all[order]
    offs = np.searchsorted(v_s, np.arange(n + 1, dtype=np.int64))
    colors = np.full(n, -1, dtype=np.int64)
    colored_round = np.zeros(n, dtype=np.int64)
    cnt = np.bincount(v_s, weights=(pri[u_s] < pri[v_s]),
                      minlength=n).astype(np.int64)
    remaining = n
    ready = np.flatnonzero(cnt == 0)
    rnd = 0
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
        ncol = colors[nbr]
        km = ncol >= 0
        colors[ready] = _mex_compact(
            np.repeat(np.arange(ready.size), counts)[km], ncol[km],
            ready.size, n + 1)
        colored_round[ready] = rnd
        remaining -= ready.size
        rrep = np.repeat(ready, counts)
        dec = (pri[rrep] < pri[nbr]) & (colors[nbr] < 0)
        tg = nbr[dec]
        np.subtract.at(cnt, tg, 1)
        cand = np.unique(tg)
        ready = cand[cnt[cand] == 0]  # cand is uncolored by the dec mask
    return colors, colored_round


def greedy_coloring(graph: Graph, seed: int = 0,
                    config: EngineConfig | None = None,
                    max_rounds: int | None = None,
                    metrics: dict | None = None):
    """Returns ``(node, color, color_round)`` — the sequential greedy
    coloring in the seed-derived priority order; ``color_round`` is the
    1-based JP round the vertex was colored.  Original node ids; a
    Dataset on sharded graphs.

    ``max_rounds`` defaults to n (the true termination bound — every
    round colors at least the globally-min-priority uncolored vertex),
    NOT ``cfg.max_supersteps``: unlike fixpoint supersteps, JP rounds
    on skewed graphs routinely exceed 100 (153 on the sf0.01 lineitem
    co-occurrence graph) while each round touches only the edges of
    the vertices it colors. ``config`` is accepted for signature parity
    with the other operators; no field of it applies."""
    n = graph.num_vertices
    cap = n if max_rounds is None else max_rounds
    t0 = time.perf_counter()
    if graph.rounds_on_driver:
        s, d, _w = graph.local_arrays()
        colors, color_round = _jp_local_rounds(
            s, d, mis_priorities(graph.node_ids, seed).astype(np.float64),
            cap)
        rnd = int(color_round.max(initial=0))
        num_colors = int(colors.max(initial=-1)) + 1
        out = graph.scores_table(colors, "color").append_column(
            "color_round", pa.array(color_round))
    else:
        rnd, num_colors = _coloring_pool(graph, seed, cap)
        out = graph.owner_scores(graph.pool, "color", cast="int64",
                                 aux_col="color_round", aux_cast="int64")
    if metrics is not None:
        metrics.update({"rounds": rnd, "sec": time.perf_counter() - t0,
                        "num_colors": num_colors,
                        "mode": "sharded" if graph.sharded else graph.mode})
    return out


def _coloring_pool(graph: Graph, seed: int, cap: int) -> tuple[int, int]:
    """The rounds on the owner-resident counters + neighbor-color sets:
    per round only the newly-colored vertices ship (total message
    volume O(m) over ALL rounds). Round-for-round identical to the
    driver loop; leaves (color, round) in the owners' state/aux.
    Returns (rounds, number of colors)."""
    n = graph.num_vertices
    pool = jp_setup(graph, seed)
    rnd = 1
    ncol, pairs = pool.jp_color_first()
    total = ncol
    while total < n:
        rnd += 1
        if rnd > cap:
            raise RuntimeError(
                f"greedy_coloring: {n - total} vertices uncolored "
                f"after max_rounds={cap}")
        ncol, pairs = pool.jp_color_round(pairs, rnd)
        total += ncol
    und, max_color = pool.jp_finalize()
    if und:
        raise AssertionError(
            f"greedy_coloring: {und} undecided after "
            "termination — counter invariant broken")
    return rnd, max_color + 1
