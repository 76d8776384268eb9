"""Maximal independent set — greedy-by-random-permutation (Luby-style)
superstep rounds.

The classic symmetry-breaking primitive the reference engine lacks
(its kernels are all centrality-shaped): every undecided vertex whose
priority beats all its undecided neighbors' joins the MIS; its
neighbors drop out; repeat.  With a random permutation as the
priority this is the parallel greedy MIS — O(log n) rounds with high
probability — and because the permutation is FIXED (derived from the
original vertex ids + seed, then densely ranked), the output is a
pure function of (graph, seed): identical across modes, partitionings
and engines, so a chained-rounds SQL oracle can replay it exactly.

Each round decides at least the globally-min-priority undecided
vertex, so termination is unconditional; ``max_supersteps`` is a loud
cap only. Two loops run the rounds:

* driver arrays (``Graph.rounds_on_driver``: local graphs, and dense
  graphs up to ``graph.DRIVER_KERNEL_EDGES`` edges): per round two
  min-gathers over the edge arrays — ``minnbr[v] = min(pri[u] : u ~ v,
  u undecided)`` picks the winners (``pri[v] < minnbr[v]``), and a min
  over a winner indicator picks the exclusions;
* the shard pool (every other distributed graph, dense or sharded):
  owner-resident Jones–Plassmann counters of undecided lower-priority
  neighbors (``jp_setup``); per round only the newly-decided vertices
  ship, O(m) total message volume over all rounds. Dense graphs load
  the driver's ``mis_priorities`` ranks, so every scheme works there;
  sharded graphs hash per owner and take ``splitmix`` only.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import splitmix
from centrality_gpu_ray.pipelines.graph import Graph

_INF = np.float64(np.inf)


def mis_priorities(node_ids: np.ndarray, seed: int,
                   scheme: str = "splitmix") -> np.ndarray:
    """Unique int64 priority per vertex: rank of
    ``(hash(original_id, seed), original_id)`` — a deterministic
    random permutation with id tie-breaks, reproducible by any engine
    that can sort.

    ``scheme="splitmix"`` (default) is the cheap vectorized family;
    ``scheme="sha256"`` hashes the 60-bit prefix of
    ``sha256(f"{id}|{seed}")`` — one Python hash per vertex, but
    bit-reproducible in ANSI SQL (the ``doc_fingerprints`` idiom), so
    the driver's DuckDB oracle can replay the permutation exactly."""
    if scheme == "sha256":
        import hashlib

        h = np.fromiter(
            (int(hashlib.sha256(f"{int(v)}|{seed}".encode())
                 .hexdigest()[:15], 16) for v in node_ids),
            dtype=np.uint64, count=node_ids.size)
    elif scheme == "splitmix":
        h = splitmix(node_ids.astype(np.int64).view(np.uint64)
                     ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    else:
        # loud: a typo'd scheme silently degrading to splitmix would
        # only surface as a driver-gate hash mismatch much later
        raise ValueError(f"mis_priorities: unknown scheme {scheme!r}")
    order = np.lexsort((node_ids, h))
    pri = np.empty(node_ids.size, dtype=np.int64)
    pri[order] = np.arange(node_ids.size, dtype=np.int64)
    return pri


def jp_setup(graph: Graph, seed: int, scheme: str = "splitmix"):
    """Load the priority permutation into ``graph.pool`` and count each
    vertex's lower-priority neighbors there; returns the pool. Dense
    graphs ship the driver's ranks. Sharded graphs hash per owner,
    which relies on splitmix64's bijectivity (hash order == rank order
    with no ties); the sha256 60-bit prefix can tie and needs the
    global rank."""
    if not graph.sharded:
        graph.pool.jp_setup(graph.num_vertices,
                            pri=mis_priorities(graph.node_ids, seed, scheme))
    elif scheme != "splitmix":
        raise ValueError("sharded MIS supports priority_scheme="
                         "'splitmix' only")
    else:
        graph.pool.jp_setup(graph.num_vertices, seed=seed,
                            dict_meta=graph.vdict.meta)
    return graph.pool


def _array_min_gather(s: np.ndarray, d: np.ndarray, n: int,
                      mask: np.ndarray, val: np.ndarray) -> np.ndarray:
    """minnbr[v] = min(val[u] : u ~ v, mask[u]); +inf where none."""
    out = np.full(n, _INF, dtype=np.float64)
    ks, kd = mask[s], mask[d]
    np.minimum.at(out, d[ks], val[s[ks]])
    np.minimum.at(out, s[kd], val[d[kd]])
    return out


def maximal_independent_set(graph: Graph, seed: int = 0,
                            config: EngineConfig | None = None,
                            priority_scheme: str = "splitmix",
                            metrics: dict | None = None):
    """Returns ``(node, in_mis, mis_round)`` — ``mis_round`` is the
    1-based round the vertex was decided (joined the MIS or was
    excluded by a neighbor joining).  Original node ids; a Dataset on
    sharded graphs."""
    cfg = config or graph.config
    t0 = time.perf_counter()
    if graph.rounds_on_driver:
        s, d, _w = graph.local_arrays()
        pri = mis_priorities(graph.node_ids, seed, priority_scheme)
        in_mis, mis_round = _mis_rounds(s, d, pri.astype(np.float64),
                                        cfg.max_supersteps)
        rnd, mis_size = int(mis_round.max(initial=0)), int(in_mis.sum())
        out = graph.scores_table(in_mis, "in_mis").append_column(
            "mis_round", pa.array(mis_round))
    else:
        rnd, mis_size = _mis_pool(graph, seed, priority_scheme,
                                  cfg.max_supersteps)
        out = graph.owner_scores(graph.pool, "in_mis", cast="bool",
                                 aux_col="mis_round", aux_cast="int64")
    if metrics is not None:
        metrics.update({"rounds": rnd, "sec": time.perf_counter() - t0,
                        "mis_size": mis_size,
                        "mode": "sharded" if graph.sharded else graph.mode})
    return out


def _mis_rounds(s: np.ndarray, d: np.ndarray, pri: np.ndarray,
                cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The rounds on driver edge arrays; returns (in_mis, mis_round)."""
    n = pri.size
    und = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    mis_round = np.zeros(n, dtype=np.int64)
    zeros = np.zeros(n, dtype=np.float64)
    rnd = 0
    while und.any():
        rnd += 1
        if rnd > cap:
            raise RuntimeError(
                f"maximal_independent_set: {int(und.sum())} vertices "
                f"undecided after max_supersteps={cap}")
        win = und & (pri < _array_min_gather(s, d, n, und, pri))
        # exclusion: any WINNER neighbor (min over a 0-indicator)
        excl = und & ~win & (_array_min_gather(s, d, n, win, zeros) < _INF)
        in_mis[win] = True
        mis_round[win | excl] = rnd
        und &= ~(win | excl)
    return in_mis, mis_round


def _mis_pool(graph: Graph, seed: int, scheme: str,
              cap: int) -> tuple[int, int]:
    """The rounds on the owner-resident Jones–Plassmann counters: per
    round, (1) last round's decided set ships decrements → zero-counter
    vertices win, (2) winners' undecided neighbors are excluded.
    Round-for-round identical to the driver loop; leaves (status,
    round) in the owners' state/aux. Returns (rounds, MIS size)."""
    n = graph.num_vertices
    pool = jp_setup(graph, seed, scheme)
    rnd = 1
    nwin, wins = pool.mis_first()
    mis_size = nwin
    nexc, excs = pool.mis_exclude_round(wins, rnd)
    total = nwin + nexc
    while total < n:
        rnd += 1
        if rnd > cap:
            raise RuntimeError(
                f"maximal_independent_set: {n - total} vertices "
                f"undecided after max_supersteps={cap}")
        nwin, wins = pool.mis_win_round(wins + excs, rnd)
        mis_size += nwin
        nexc, excs = pool.mis_exclude_round(wins, rnd)
        total += nwin + nexc
    und, _ = pool.jp_finalize()
    if und:
        raise AssertionError(
            f"maximal_independent_set: {und} undecided after "
            "termination — counter invariant broken")
    return rnd, mis_size
