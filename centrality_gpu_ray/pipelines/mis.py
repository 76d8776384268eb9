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

Per round, two min-gathers over the edge set (the SSSP/PageRank
message shape, min-combined per block on the map side):

1. ``minnbr[v] = min(pri[u] : u ~ v, u undecided)`` → winners
   (``pri[v] < minnbr[v]``; no undecided neighbor → wins).
2. ``any winner neighbor?`` (min over a winner indicator) → exclusions.

Each round decides at least the globally-min-priority undecided
vertex, so termination is unconditional; ``max_supersteps`` is a loud
cap only.

Dense path: priorities + status are driver vectors broadcast per
round (the same ≤``dense_vertex_limit`` envelope as dense PageRank).
Sharded path (``_mis_sharded``): owner-resident Jones–Plassmann
counters on the shard pool — per round only the newly-decided
vertices ship, O(m) total message volume over all rounds.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.functions.sketch import _splitmix
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
        h = _splitmix(node_ids.astype(np.int64).view(np.uint64)
                      ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    else:
        # loud: a typo'd scheme silently degrading to splitmix would
        # only surface as a driver-gate hash mismatch much later
        raise ValueError(f"mis_priorities: unknown scheme {scheme!r}")
    order = np.lexsort((node_ids, h))
    pri = np.empty(node_ids.size, dtype=np.int64)
    pri[order] = np.arange(node_ids.size, dtype=np.int64)
    return pri


class _MaskedMinMsgs:
    """(v, pri[u]) messages over edges whose SOURCE endpoint u is in
    the given mask — min-combined per block before the exchange."""

    def __init__(self, state_ref):
        self._ref = state_ref
        self._state = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if self._state is None:
            self._state = ray.get(self._ref)
        mask, val = self._state
        s = batch.column("s").to_numpy()
        d = batch.column("d").to_numpy()
        keep_s, keep_d = mask[s], mask[d]
        v = np.concatenate([d[keep_s], s[keep_d]])
        c = np.concatenate([val[s[keep_s]], val[d[keep_d]]])
        if v.size == 0:
            return pa.table({"v": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.float64())})
        order = np.lexsort((c, v))
        v_s, c_s = v[order], c[order]
        first = np.ones(v_s.size, dtype=bool)
        first[1:] = v_s[1:] != v_s[:-1]
        return pa.table({"v": pa.array(v_s[first]),
                         "c": pa.array(c_s[first])})


def _array_min_gather(s: np.ndarray, d: np.ndarray, n: int,
                      mask: np.ndarray, val: np.ndarray) -> np.ndarray:
    out = np.full(n, _INF, dtype=np.float64)
    ks, kd = mask[s], mask[d]
    np.minimum.at(out, d[ks], val[s[ks]])
    np.minimum.at(out, s[kd], val[d[kd]])
    return out


def _masked_min_gather(graph: Graph, cfg: EngineConfig, mask: np.ndarray,
                       val: np.ndarray) -> np.ndarray:
    """minnbr[v] = min(val[u] : u ~ v, mask[u]); +inf where none."""
    import ray

    n = graph.num_vertices
    if graph.mode == "local":
        s, d, _w = graph.local_arrays()
        return _array_min_gather(s, d, n, mask, val)
    out = np.full(n, _INF, dtype=np.float64)
    state_ref = ray.put((mask, val))
    msgs = graph.edges.map_batches(_MaskedMinMsgs(state_ref),
                                   batch_format="pyarrow",
                                   batch_size=cfg.batch_size)
    # no groupby here: the map side already min-combines per block and
    # the duplicate-safe np.minimum.at fold below merges across blocks
    # — a Ray Data groupby in between is the documented ~125 µs/row
    # python path (it cost 20+ s per round at sf0.1)
    for b in msgs.iter_batches(batch_size=None, batch_format="pyarrow"):
        np.minimum.at(out, b.column("v").to_numpy(),
                      b.column("c").to_numpy())
    return out


# tail-round optimization: the permutation decides most vertices in the
# first round or two, after which every distributed round would still
# stream the WHOLE edge set for a tiny undecided residue.  Since the
# parallel rounds are a pure function of the undecided-INDUCED
# subgraph, collecting that subgraph once it is small and continuing
# the identical round loop in numpy yields bit-identical output
# (parity-tested) at driver-array cost.  The gate + collection live in
# ``pipelines/localize.py`` (shared with coloring); the module-level
# rebindings keep the call sites monkeypatchable per operator.
from centrality_gpu_ray.pipelines.localize import (  # noqa: E402
    LOCAL_FINISH_EDGES as _LOCAL_FINISH_EDGES, collect_induced,
    induced_edge_count as _induced_edge_count)


def _collect_induced(graph: Graph, cfg: EngineConfig,
                     und: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return collect_induced(graph, cfg, und)


def maximal_independent_set(graph: Graph, seed: int = 0,
                            config: EngineConfig | None = None,
                            priority_scheme: str = "splitmix",
                            metrics: dict | None = None) -> pa.Table:
    """Returns ``(node, in_mis, mis_round)`` — ``mis_round`` is the
    1-based round the vertex was decided (joined the MIS or was
    excluded by a neighbor joining).  Original node ids."""
    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _mis_sharded(graph, seed, cfg, priority_scheme, metrics)
    n = graph.num_vertices
    pri = mis_priorities(graph.node_ids, seed,
                         scheme=priority_scheme).astype(np.float64)
    und = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    decided_round = np.zeros(n, dtype=np.int64)
    t0 = time.perf_counter()
    rnd = 0
    s_loc = d_loc = None  # set once the residual problem is localized
    if graph.mode != "local" \
            and graph.num_edges <= _LOCAL_FINISH_EDGES:
        # whole graph already fits the residual budget: skip straight
        # to driver arrays (saves the round-1 distributed gathers +
        # gate + collection, each a fixed-cost Ray Data execution)
        s_loc, d_loc, _w = graph.local_arrays()
    zeros = np.zeros(n, dtype=np.float64)
    while und.any():
        rnd += 1
        if rnd > cfg.max_supersteps:
            raise RuntimeError(
                f"maximal_independent_set: {int(und.sum())} vertices "
                f"undecided after max_supersteps={cfg.max_supersteps}")
        if s_loc is not None:
            minnbr = _array_min_gather(s_loc, d_loc, n, und, pri)
            win = und & (pri < minnbr)
            excl = und & ~win & (_array_min_gather(
                s_loc, d_loc, n, win, zeros) < _INF)
        else:
            minnbr = _masked_min_gather(graph, cfg, und, pri)
            win = und & (pri < minnbr)
            # exclusion: any WINNER neighbor (min over a 0-indicator)
            excl = und & ~win & (_masked_min_gather(
                graph, cfg, win, zeros) < _INF)
        in_mis[win] = True
        decided_round[win | excl] = rnd
        und &= ~(win | excl)
        if (graph.mode != "local" and s_loc is None and und.any()
                and _induced_edge_count(graph, cfg, und)
                <= _LOCAL_FINISH_EDGES):
            s_loc, d_loc = _collect_induced(graph, cfg, und)
    if metrics is not None:
        metrics.update({"rounds": rnd, "sec": time.perf_counter() - t0,
                        "mis_size": int(in_mis.sum()),
                        "mode": graph.mode})
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "in_mis": pa.array(in_mis),
        "mis_round": pa.array(decided_round),
    })


def _mis_sharded(graph: Graph, seed: int, cfg: EngineConfig,
                 priority_scheme: str, metrics: dict | None):
    """>dense_vertex_limit MIS on the owner-resident Jones–Plassmann
    machinery (``shards.py``): resident counters of undecided
    lower-priority neighbors; per round, (1) last round's decided set
    ships decrements → zero-counter vertices win, (2) winners' undecided
    neighbors are excluded. Total message volume O(m) over all rounds;
    round-for-round identical to the dense path. Returns a Dataset of
    (node, in_mis, mis_round) in original ids."""
    import time as _time

    from centrality_gpu_ray.pipelines.shards import assemble
    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    if priority_scheme != "splitmix":
        # the owner-resident path relies on splitmix64's bijectivity
        # (hash order == dense rank order with NO ties); the sha256
        # 60-bit-prefix family can tie and needs the dense global rank
        raise ValueError("sharded MIS supports priority_scheme="
                         "'splitmix' only")
    n = graph.num_vertices
    pool = graph.pool
    if not getattr(pool, "_frontier_capable", True):
        raise ValueError("sharded MIS needs a frontier-capable pool "
                         "(no replica tiling)")
    dict_meta = (graph.vdict.mins, graph.vdict.offsets,
                 graph.vdict.block_refs)
    t0 = _time.perf_counter()
    pool.jp_setup(seed, dict_meta, n)
    rnd = 1
    nwin, win_ref = pool.mis_first()
    mis_size = nwin
    nexc, exc_ref = pool.mis_exclude_round(win_ref, rnd)
    total = nwin + nexc
    dec_ref = assemble([win_ref, exc_ref])
    while total < n:
        rnd += 1
        if rnd > cfg.max_supersteps:
            raise RuntimeError(
                f"maximal_independent_set[sharded]: {n - total} "
                f"undecided after max_supersteps={cfg.max_supersteps}")
        nwin, win_ref = pool.mis_win_round(dec_ref, rnd)
        mis_size += nwin
        nexc, exc_ref = pool.mis_exclude_round(win_ref, rnd)
        total += nwin + nexc
        dec_ref = assemble([win_ref, exc_ref])
    und, _ = pool.jp_finalize()
    if und:
        raise AssertionError(
            f"maximal_independent_set[sharded]: {und} undecided after "
            "termination — counter invariant broken")
    if metrics is not None:
        metrics.update({"rounds": rnd, "sec": _time.perf_counter() - t0,
                        "mis_size": mis_size, "mode": "sharded"})
    return scores_dataset(graph.vdict, pool, "in_mis",
                          aux_col="mis_round", value_cast="bool",
                          aux_cast="int64")
