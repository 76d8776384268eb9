"""Exact betweenness centrality — the conformance tier (SURVEY.md §7.2.8).

The reference's entire decomposition cascade (pendant pruning → BiCC →
reach weighting → ear decomposition, ``modified_apsp.cpp:232-373``)
exists to shrink the set of sources needing a full Brandes pass on one
GPU. The Ray-Data-native answer is simpler: the *source dimension* is
embarrassingly parallel, so we run plain Brandes — an actor pool over
source batches, each actor holding the whole CSR read zero-copy from a
single broadcast (the analogue of the graph arrays resident on the GPU,
``kernels_free.cu:44-74``) — and merge per-source dependency vectors
with one ``groupby("v").sum()`` (the ``atomicAdd`` at
``kernels_free.cu:423-426``).

Scores are summed over **ordered** pairs, i.e. ``2 × networkx
betweenness_centrality(G, normalized=False)`` ("To Match with baders
results", ``modified_apsp.cpp:209``); goldens in FIXTURES.md §3.1.

Per-source work is O(m) vectorized numpy (level-synchronous BFS +
level-bucketed sigma/delta sweeps over the DAG edges) — no Python loop
over vertices. Whole-graph broadcast caps this tier at graphs whose
CSR fits a worker (~1e8 edges); that is the documented trade: exact BC
at 100 TB scale is not the flagship (PageRank is), it is the
conformance bridge to the reference.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import ragged_arange as _ragged_arange
from centrality_gpu_ray.pipelines.graph import Graph


def build_csr(s: np.ndarray, d: np.ndarray, n: int):
    """Symmetric CSR (R offsets, C dests) from canonical edges — the
    counting-sort build of ``graph_ear_decompos.h:63-85`` as cumsum."""
    u = np.concatenate([s, d])
    v = np.concatenate([d, s])
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    counts = np.bincount(u, minlength=n)
    R = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=R[1:])
    return R, v.astype(np.int64)


def _single_source_dependencies(R: np.ndarray, C: np.ndarray,
                                S_arr: np.ndarray, D_arr: np.ndarray,
                                n: int, src: int,
                                mass: np.ndarray | None = None) -> np.ndarray:
    """Brandes dependency vector delta for one source (ordered-pair
    convention: caller adds delta directly, no halving).

    ``mass`` generalizes to reach-weighted dependencies (Brandes 2008
    variant; the reference's per-BCC reach values,
    ``apsp_graph.cpp:229-252`` — ``delta[v] += sigma*coeff*reach_val``):
    each vertex t absorbs ``mass[t]`` units of target weight, so the
    returned delta counts ordered pairs (src, every vertex t
    represents). The caller scales by ``mass[src]`` for the source
    side. ``mass=None`` is the plain unit-mass kernel."""
    d = np.full(n, -1, dtype=np.int64)
    d[src] = 0
    frontier = np.array([src], dtype=np.int64)
    level = 0
    while frontier.size:
        # gather all neighbors of the frontier via CSR slices
        starts, ends = R[frontier], R[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        idx = np.repeat(starts, ends - starts) + _ragged_arange(ends - starts)
        nbrs = C[idx]
        new = np.unique(nbrs[d[nbrs] == -1])
        if new.size == 0:
            break
        level += 1
        d[new] = level
        frontier = new

    # DAG edges: symmetric edge (u, v) with d[v] == d[u] + 1
    du, dv = d[S_arr], d[D_arr]
    fwd = (du >= 0) & (dv == du + 1)
    bwd = (dv >= 0) & (du == dv + 1)
    eu = np.concatenate([S_arr[fwd], D_arr[bwd]])
    ev = np.concatenate([D_arr[fwd], S_arr[bwd]])
    deu = d[eu]

    sigma = np.zeros(n, dtype=np.float64)
    sigma[src] = 1.0
    order = np.argsort(deu, kind="stable")
    eu_s, ev_s, deu_s = eu[order], ev[order], deu[order]
    bounds = np.searchsorted(deu_s, np.arange(level + 1))
    bounds = np.append(bounds, eu_s.size)
    for lvl in range(level):
        lo, hi = bounds[lvl], bounds[lvl + 1]
        np.add.at(sigma, ev_s[lo:hi], sigma[eu_s[lo:hi]])

    delta = np.zeros(n, dtype=np.float64)
    for lvl in range(level - 1, -1, -1):
        lo, hi = bounds[lvl], bounds[lvl + 1]
        uu, vv = eu_s[lo:hi], ev_s[lo:hi]
        tmass = 1.0 if mass is None else mass[vv]
        np.add.at(delta, uu, (sigma[uu] / sigma[vv]) * (tmass + delta[vv]))
    delta[src] = 0.0
    return delta


def _single_source_dependencies_weighted(
        S_arr: np.ndarray, D_arr: np.ndarray, WE: np.ndarray,
        n: int, src: int, mass: np.ndarray | None = None) -> np.ndarray:
    """Weighted Brandes dependency vector for one source — the
    reference's intended-but-dead weighted semantics
    (``apsp_graph.cpp:107-172``, CPU Dijkstra). Vectorized: distances
    by Bellman-Ford relaxation sweeps (converges in hop-diameter
    rounds), then the standard sigma/delta accumulation over the
    shortest-path DAG processed in unique-distance order (the float
    analog of the unit-weight level buckets)."""
    dist = np.full(n, np.inf)
    dist[src] = 0.0
    while True:
        du, dv = dist[S_arr], dist[D_arr]
        new = dist.copy()
        np.minimum.at(new, D_arr, du + WE)
        np.minimum.at(new, S_arr, dv + WE)
        if np.array_equal(new, dist):  # inf == inf compares equal
            break
        dist = new

    # shortest-path DAG: directed (u, v) with dist[v] == dist[u] + w
    du, dv = dist[S_arr], dist[D_arr]
    fwd = np.isfinite(du) & (dv == du + WE)
    bwd = np.isfinite(dv) & (du == dv + WE)
    eu = np.concatenate([S_arr[fwd], D_arr[bwd]])
    ev = np.concatenate([D_arr[fwd], S_arr[bwd]])
    deu = dist[eu]

    # bucket DAG edges by the source-side distance, sweep buckets in
    # ascending order for sigma, descending for delta
    order = np.argsort(deu, kind="stable")
    eu_s, ev_s, deu_s = eu[order], ev[order], deu[order]
    uniq_d, bstart = np.unique(deu_s, return_index=True)
    bounds = np.append(bstart, eu_s.size)

    sigma = np.zeros(n)
    sigma[src] = 1.0
    for b in range(uniq_d.size):
        lo, hi = bounds[b], bounds[b + 1]
        np.add.at(sigma, ev_s[lo:hi], sigma[eu_s[lo:hi]])
    delta = np.zeros(n)
    for b in range(uniq_d.size - 1, -1, -1):
        lo, hi = bounds[b], bounds[b + 1]
        uu, vv = eu_s[lo:hi], ev_s[lo:hi]
        tmass = 1.0 if mass is None else mass[vv]
        np.add.at(delta, uu, (sigma[uu] / sigma[vv]) * (tmass + delta[vv]))
    delta[src] = 0.0
    return delta


def _validate_bc_weights(w: np.ndarray, where: str) -> None:
    """The weighted-BC DAG membership test is an exact float equality
    (``dist[u] + w == dist[v]``, here and in
    ``shards.py::shard_gather_wdag_sum``), which is only exact for
    positive INTEGER weights whose path sums stay below 2^53. Fractional
    or huge weights would silently undercount sigma/BC — fail loudly
    instead (ADVICE r2)."""
    if w.size == 0:
        return
    if not (np.all(w > 0) and np.all(w == np.floor(w))
            and float(w.max()) < 2 ** 31):
        raise ValueError(
            f"{where}: weighted betweenness requires positive integer "
            "edge weights < 2^31 (the shortest-path-DAG test is an exact "
            "float equality; fractional weights would silently undercount "
            f"path counts). Got min={w.min()}, max={w.max()}, "
            f"integral={bool(np.all(w == np.floor(w)))}.")



class _BrandesActor:
    """Actor-pool stage: holds the broadcast CSR; each batch is a set of
    sources; emits that batch's summed (v, delta) rows (pre-aggregated —
    one dense accumulate per batch, sparse rows out).

    The CSR ships as BYTES and is materialized onto each actor's private
    heap in ``__init__``: zero-copy plasma views are mapped from 4 KB
    /dev/shm pages and read ~2.6× slower in this hot loop than
    THP-backed heap arrays (measured 240 vs 650 sources/s per actor on
    this substrate — reproducible across reps). A one-time ~10 ms copy
    per actor buys the whole run's kernel speed; the private-copy cost
    is the documented trade of the resident-CSR design (one graph copy
    per actor, like the reference's per-GPU copy)."""

    def __init__(self, graph_ref, weighted: bool = False):
        import ray

        Rb, Cb, Sb, Db, Wb, n = ray.get(graph_ref)
        self.R = np.frombuffer(Rb, dtype=np.int64).copy()
        self.C = np.frombuffer(Cb, dtype=np.int64).copy()
        self.S = np.frombuffer(Sb, dtype=np.int64).copy()
        self.D = np.frombuffer(Db, dtype=np.int64).copy()
        self.W = np.frombuffer(Wb, dtype=np.float64).copy()
        self.n = n
        self.weighted = weighted

    def __call__(self, batch: pa.Table) -> pa.Table:
        acc = np.zeros(self.n, dtype=np.float64)
        for src in batch.column("source").to_numpy():
            if self.weighted:
                acc += _single_source_dependencies_weighted(
                    self.S, self.D, self.W, self.n, int(src))
            else:
                acc += _single_source_dependencies(
                    self.R, self.C, self.S, self.D, self.n, int(src))
        nz = np.flatnonzero(acc)
        return pa.table({"v": pa.array(nz.astype(np.int64)),
                         "c": pa.array(acc[nz])})


def betweenness_centrality(graph: Graph, config: EngineConfig | None = None,
                           concurrency: int = 4,
                           sources_per_batch: int | None = None,
                           max_sources: int | None = None,
                           weighted: bool = False,
                           metrics: dict | None = None) -> pa.Table:
    """Exact ordered-pair BC → ``(node, bc)``.

    ``max_sources`` truncates the source set to the first k dense ids —
    an *approximate* BC used as a compute-bound scaling probe (each
    source's Brandes pass is cache-resident and embarrassingly
    parallel); exact BC runs all n sources. ``weighted=True`` counts
    shortest paths by total edge weight (positive int weights) — the
    reference's dead CPU-Dijkstra semantics, vectorized."""
    import ray
    import ray.data

    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _betweenness_sampled_sharded(graph, cfg, max_sources,
                                            weighted, metrics)
    t0 = time.perf_counter()
    n = graph.num_vertices
    s, d, w = graph.local_arrays()
    if weighted:
        _validate_bc_weights(np.asarray(w, dtype=np.float64),
                             "betweenness_centrality")
    R, C = build_csr(s, d, n)
    graph_ref = ray.put((R.tobytes(), C.tobytes(),
                         s.astype(np.int64).tobytes(),
                         d.astype(np.int64).tobytes(),
                         w.astype(np.float64).tobytes(), n))

    n_sources = n if max_sources is None else min(n, max_sources)
    if sources_per_batch is None:
        # ~4 tasks per actor: enough slack for load balance, but big
        # enough that the per-task RTT (~5-10 ms measured on this
        # substrate) is amortized — 128 tasks of 64 sources lost 3x
        # throughput to task overhead vs the same work in 32 tasks.
        sources_per_batch = max(32, -(-n_sources // (concurrency * 4)))
    # one block per batch — otherwise a single from_arrow block becomes a
    # single task and the actor pool runs serial. range() materializes
    # the blocks directly; a from_arrow().repartition() here cost a
    # ~0.5-1 s fixed Ray Data job that capped the probe's scaling.
    num_blocks = max(1, -(-n_sources // sources_per_batch))
    sources = ray.data.range(n_sources, override_num_blocks=num_blocks) \
        .rename_columns({"id": "source"})
    setup_sec = time.perf_counter() - t0
    parts = sources.map_batches(
        _BrandesActor, batch_format="pyarrow", batch_size=sources_per_batch,
        concurrency=concurrency,
        # fractional CPUs: a pool that reserves every core starves the
        # upstream source-repartition tasks and deadlocks small clusters
        num_cpus=0.5,
        fn_constructor_args=(graph_ref, weighted))
    # Merge on the driver: each batch is already per-batch aggregated
    # sparse (v unique within a batch), and the merged result is a dense
    # n-vector — a Ray-native groupby here iterates groups in Python
    # (~125 µs/row; it was the serial tail that capped BC scaling at
    # 0.38 efficiency 2→8 CPUs). iter_batches preserves block order, so
    # the float accumulation order is deterministic.
    bc = np.zeros(n, dtype=np.float64)
    for batch in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        # np.add.at, NOT fancy +=: iter_batches may coalesce several
        # task outputs into one batch, so v can repeat within a batch
        np.add.at(bc, batch.column("v").to_numpy(),
                  batch.column("c").to_numpy())
    elapsed = time.perf_counter() - t0
    if metrics is not None:
        metrics.update({"sec": elapsed, "sources": n_sources,
                        "setup_sec": setup_sec,
                        "sources_per_sec": n_sources / max(elapsed, 1e-9)})
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "bc": pa.array(bc),
    })


def _betweenness_sampled_sharded(graph: Graph, cfg: EngineConfig,
                                 max_sources: int | None, weighted: bool,
                                 metrics: dict | None):
    """>dense_vertex_limit BC, SAMPLED sources only: per source a
    level-synchronous forward pass (path counts) + backward dependency
    passes over owner-resident level/sigma/delta vectors
    (``shards.py::brandes_source_pass``) — O(P) driver work per
    superstep, never an O(n) vector. ``weighted=True`` runs min-plus
    SSSP per source then distance-bucket sigma/delta sweeps with the
    DAG test applied edge-side (``shards.py::wbc_source_pass``;
    assumes distinct distances ≪ n — integer weights). Exact
    all-sources BC stays dense-only: its per-worker cache-resident CSR
    is the whole point of that path, and k ≪ n sampling is the only
    formulation that scales past it."""
    import time as _time

    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    if max_sources is None:
        raise NotImplementedError(
            "exact all-sources BC on a sharded-state graph is "
            "infeasible by design (n BFS passes over the exchange); "
            "pass max_sources=k for sampled BC, or raise "
            "config.dense_vertex_limit for the CSR path")
    t0 = _time.perf_counter()
    pool = graph.pool
    if weighted:
        import ray as _ray

        for ok, wmax in _ray.get([a.weight_profile.remote()
                                  for a in pool.actors]):
            if not (ok and wmax < 2 ** 31):
                raise ValueError(
                    "sampled weighted BC requires positive integer edge "
                    "weights < 2^31 (exact-equality DAG test; see "
                    "_validate_bc_weights)")
    pool.setup_owners(graph.num_vertices)
    pool.brandes_init()
    k = min(max_sources, graph.num_vertices)
    depths = []
    # source batching (reference runs one block per source
    # concurrently, kernels_free.cu:428-445): b sources share each
    # superstep's task round, amortizing the ~5-10 ms per-task RTT
    # b× — the dominant cost of narrow BFS levels here. Batch width
    # bounds the (n, b) broadcast: 8 → 64 B/vertex. The weighted form
    # batches the min-plus SSSP the same way and sweeps the UNION of
    # the batch's distance buckets (integer weights overlap heavily).
    bsz = int(cfg.extra.get("bc_source_batch", 8))
    # per-batch resumability: the bc accumulator is a clean per-batch
    # cut (sources partition the work), so each completed batch
    # checkpoints the owners' bc chunks + a source cursor — a k-source
    # run at 100 TB is hours, and a restart must not repeat batch 0.
    algo = f"bc_sampled_{'w' if weighted else 'u'}"
    start = 0
    if cfg.checkpoint_dir is not None:
        step = pool.resume_owners(cfg.checkpoint_dir, algo, vector="bc")
        man = getattr(pool, "last_manifest", {}) if step is not None else {}
        if (step is not None and man.get("k") == k
                and man.get("weighted") == weighted
                and 0 < int(man.get("next_src", 0)) <= k):
            start = int(man["next_src"])
            if metrics is not None:
                metrics["resumed_from_src"] = start
        else:
            pool.brandes_init()  # stale/foreign checkpoint: start over
    for lo in range(start, k, bsz):
        srcs = np.arange(lo, min(lo + bsz, k), dtype=np.int64)
        # single-source batches take the direction-optimized variant:
        # narrow levels run as a sparse frontier scatter over only
        # their own adjacency segments instead of the full 2m gather
        # (the batch pass can't — its (n, b) broadcast serves b
        # different frontiers per round, so it always gathers dense)
        if weighted:
            if srcs.size == 1:
                depths.append(pool.wbc_source_pass(int(srcs[0]),
                                                   cfg.max_supersteps))
            else:
                depths.append(pool.wbc_batch_pass(srcs,
                                                  cfg.max_supersteps))
        elif srcs.size == 1:
            depths.append(pool.brandes_source_pass(int(srcs[0])))
        else:
            depths.append(pool.brandes_batch_pass(srcs))
        if (cfg.checkpoint_dir is not None
                and (lo // bsz) % cfg.checkpoint_every == 0):
            pool.checkpoint_owners(
                cfg.checkpoint_dir, algo, step=lo // bsz,
                extra_meta={"next_src": int(srcs[-1]) + 1, "k": k,
                            "weighted": weighted}, vector="bc")
    pool.brandes_commit()
    elapsed = _time.perf_counter() - t0
    if metrics is not None:
        metrics.update({
            "sec": elapsed, "sources": k, "sources_run": k - start,
            # rate over the sources THIS run executed — a resumed run
            # must not claim the checkpointed sources' throughput
            "sources_per_sec": (k - start) / max(elapsed, 1e-9),
            "max_depth": max(depths, default=0), "mode": "sharded",
        })
    return scores_dataset(graph.vdict, pool, "bc")
