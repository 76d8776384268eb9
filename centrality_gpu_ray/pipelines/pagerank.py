"""PageRank — the flagship superstep pipeline (SURVEY.md §7.2.4).

Semantics (FIXTURES.md §3.2): undirected graph treated as symmetric
directed, out-degree = degree, damping ``alpha`` (default 0.85),
uniform init ``1/n``, stop when the L1 rank delta < ``tolerance``.
Dangling vertices (possible on weighted/directed inputs) donate their
mass uniformly. Float64 throughout (SURVEY.md §7.5.5).

Execution:

* ``local`` mode — one numpy kernel per superstep over the driver-held
  canonical edge arrays (``np.add.at`` scatter). Bit-deterministic.
* ``distributed`` mode — the graph's resident shard pool
  (``pipelines/shards.py``, ``ShardPool.pr_step``): vertex-range owner
  actors hold the rank chunks; per superstep the contribution vector
  ``rank / deg`` is assembled once, every edge shard ``reduceat``s its
  presorted messages into one partial per destination (a hub's
  messages fold to one row per shard), and each owner combines the
  shards' partials for its range and adds teleport + dangling mass.
  The driver sums 2P scalars — no O(n) serial section; the static edge
  table never moves. Dense personalized PageRank keeps its teleport
  vector on the driver and runs :func:`gather_neighbor_sum` on the same
  pool instead.
* sharded graphs (above ``dense_vertex_limit``) — :func:`_pagerank_sharded`:
  the same ``pr_step`` on owners whose degree chunks come from the
  shards, so the driver never holds an O(n) vector.

Checkpoint/resume: every ``checkpoint_every``-th superstep writes the
rank vector + lineage manifest (``state/checkpoint.py``); a rerun with
the same ``checkpoint_dir`` resumes from the newest manifest and
produces bit-identical final scores (tested).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.state.checkpoint import CheckpointManager


def gather_neighbor_sum(graph: Graph, w: np.ndarray,
                        weighted: bool = False) -> np.ndarray:
    """One dense-path gather superstep ``y[v] = Σ_{u~v} w[u]``
    (optionally × edge weight) — THE exchange every spectral/superstep
    pipeline shares (PageRank, personalized PageRank, eigenvector,
    Katz). Local mode: np.add.at over driver arrays. Distributed:
    broadcast w once and sum the resident shards' reduceat partials."""
    import ray

    n = graph.num_vertices
    if graph.mode == "local":
        s, d, we = graph.local_arrays()
        y = np.zeros(n, dtype=np.float64)
        if weighted:
            np.add.at(y, d, w[s] * we)
            np.add.at(y, s, w[d] * we)
        else:
            np.add.at(y, d, w[s])
            np.add.at(y, s, w[d])
        return y
    return graph.pool.gather_sum(ray.put(w), n, weighted=weighted)


def _superstep(graph: Graph, rank: np.ndarray, alpha: float,
               inv_deg: np.ndarray, dangling: np.ndarray,
               weighted: bool = False,
               tele: np.ndarray | None = None) -> np.ndarray:
    n = graph.num_vertices
    new = gather_neighbor_sum(graph, rank * inv_deg, weighted)
    dangling_mass = rank[dangling].sum() if dangling.size else 0.0
    if tele is not None:
        return (1.0 - alpha) * tele + alpha * (new + dangling_mass * tele)
    return (1.0 - alpha) / n + alpha * (new + dangling_mass / n)


def pagerank(graph: Graph, config: EngineConfig | None = None,
             weighted: bool = False, metrics: dict | None = None,
             personalization: dict | None = None) -> pa.Table:
    """Run PageRank to convergence; returns ``(node, pagerank)``.

    ``weighted=True`` distributes each vertex's rank over its incident
    edge weights (strength) instead of uniformly over neighbors — the
    natural semantics for co-occurrence-count edges. (The reference's
    live GPU kernels ignore weights entirely, ``kernels_free.cu:245-259``;
    only its dead CPU Dijkstra path was weighted — SURVEY.md §1.1.)

    ``personalization``: ``{original_node_id: weight}`` — replaces the
    uniform teleport with the normalized given vector (personalized
    PageRank); dangling mass follows the same vector. The
    owner ``pr_step`` keeps its scalar teleport, so dense PPR runs the
    driver-held ``gather_neighbor_sum`` superstep instead; sharded PPR
    broadcasts the k-entry sparse vector to the owners
    (``pool.set_teleport``) and keeps the dense teleport chunks
    owner-resident."""
    cfg = config or graph.config
    n = graph.num_vertices
    if getattr(graph, "sharded", False):
        return _pagerank_sharded(graph, cfg, weighted, metrics,
                                 personalization)
    tele = None
    if personalization is not None:
        nodes = np.fromiter(personalization.keys(), dtype=np.int64)
        wts = np.fromiter((personalization[k] for k in nodes),
                          dtype=np.float64)
        idx = np.searchsorted(graph.node_ids, nodes)
        idx = np.minimum(idx, n - 1)
        ok = graph.node_ids[idx] == nodes
        if not ok.all():
            raise ValueError(
                f"personalization nodes not in graph: {nodes[~ok][:5]}")
        tele = np.zeros(n, dtype=np.float64)
        tele[idx] = wts
        total = tele.sum()
        if total <= 0:
            raise ValueError("personalization weights must sum > 0")
        tele /= total
    deg = graph.strength if weighted else graph.out_degree
    dangling = np.flatnonzero(deg == 0)
    inv_deg = np.zeros(n, dtype=np.float64)
    nz = deg > 0
    inv_deg[nz] = 1.0 / deg[nz]

    # PPR gets its own checkpoint namespace keyed by the teleport
    # vector: resuming a plain-PR (or differently-personalized)
    # checkpoint would silently continue the wrong recurrence
    algo = "pagerank" if tele is None else f"ppr_{_tele_tag(personalization)}"
    ckpt = CheckpointManager(cfg.checkpoint_dir, algo, cfg.checkpoint_every,
                             cfg.num_partitions)
    start_step = 0
    rank = tele.copy() if tele is not None else np.full(n, 1.0 / n,
                                                        dtype=np.float64)
    resumed = ckpt.resume()
    if resumed is not None:
        start_step, manifest, state = resumed
        restored = dense_from_pairs_from_state(state, graph)
        if restored is not None:
            rank = restored
            start_step += 1
        else:
            # Checkpoint is for a different graph: start over with the
            # full superstep budget, don't inherit the stale step count.
            start_step = 0

    t0 = time.perf_counter()
    step = start_step
    delta = np.inf
    if graph.mode != "local" and tele is None:
        # Pregel-style resident state: rank chunks live in the owner
        # actors; per superstep the driver only launches calls and sums
        # 2P scalars — no O(n) serial section (scaling-efficiency path).
        graph.pool.setup_owners(inv_deg, rank)
        while step < cfg.max_supersteps and delta > cfg.tolerance:
            delta = graph.pool.pr_step(cfg.damping, weighted)
            if cfg.checkpoint_dir is not None and step % cfg.checkpoint_every == 0:
                rank = graph.pool.collect_state()
                ckpt.maybe_write(step, graph.scores_table(rank, "pagerank"),
                                 l1_delta=delta, mode=graph.mode)
            step += 1
        rank = graph.pool.collect_state()
    else:
        while step < cfg.max_supersteps and delta > cfg.tolerance:
            new = _superstep(graph, rank, cfg.damping, inv_deg,
                             dangling, weighted, tele)
            delta = float(np.abs(new - rank).sum())
            rank = new
            ckpt.maybe_write(step, graph.scores_table(rank, "pagerank"),
                             l1_delta=delta, mode=graph.mode)
            step += 1
    elapsed = time.perf_counter() - t0

    if metrics is not None:
        supersteps = step - start_step
        metrics.update({
            "supersteps": supersteps,
            "l1_delta": delta,
            "sec": elapsed,
            "edges_processed": 2 * graph.num_edges * supersteps,
            "edges_per_sec": (2 * graph.num_edges * supersteps) / max(elapsed, 1e-9),
            "mode": graph.mode,
        })
    return graph.scores_table(rank, "pagerank")


def _pagerank_sharded(graph: Graph, cfg: EngineConfig, weighted: bool,
                      metrics: dict | None,
                      personalization: dict | None = None):
    """>dense_vertex_limit path: degrees, inv_deg, rank state and the
    result all live sharded in the owner actors; the driver does O(P)
    work per superstep and never holds an O(n) vector. Returns a
    ``ray.data.Dataset`` of (node, pagerank). Checkpoints are sharded
    too: each owner writes its own chunk parquet, the driver only the
    manifest; a rerun with the same ``checkpoint_dir`` (and compatible
    pool bounds) resumes from the newest step."""
    import time as _time

    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    n = graph.num_vertices
    pool = graph.pool
    pool.setup_owners_sharded(n, weighted)
    ppr = personalization is not None
    algo = ("pagerank_sharded" if not ppr
            else f"ppr_sharded_{_tele_tag(personalization)}")
    if ppr:
        # k ≪ n personalization entries: map original → dense ids via
        # the distributed dictionary (O(k) driver work), normalize, and
        # broadcast the sparse vector to the owners
        from centrality_gpu_ray.pipelines.vertexdict import _DictReader

        reader = _DictReader((graph.vdict.mins, graph.vdict.offsets,
                              graph.vdict.block_refs))
        nodes = np.fromiter(personalization.keys(), dtype=np.int64)
        wts = np.fromiter((personalization[k] for k in nodes),
                          dtype=np.float64)
        dense = reader.to_dense(nodes)
        ok = (dense >= 0) & (dense < n)
        back = np.full(nodes.size, -1, dtype=np.int64)
        if ok.any():
            back[ok] = reader.to_original(dense[ok])
        ok &= back == nodes
        if not ok.all():
            raise ValueError(
                f"personalization nodes not in graph: {nodes[~ok][:5]}")
        total = wts.sum()
        if total <= 0:
            raise ValueError("personalization weights must sum > 0")
        pool.set_teleport(dense, wts / total)
    start_step = 0
    if cfg.checkpoint_dir is not None:
        resumed = pool.resume_owners(cfg.checkpoint_dir, algo)
        if resumed is not None:
            start_step = resumed + 1
    t0 = _time.perf_counter()
    step, delta = start_step, np.inf
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        delta = (pool.ppr_step(cfg.damping, weighted) if ppr
                 else pool.pr_step(cfg.damping, weighted))
        if (cfg.checkpoint_dir is not None
                and step % cfg.checkpoint_every == 0):
            pool.checkpoint_owners(cfg.checkpoint_dir, algo,
                                   step, {"l1_delta": delta})
        step += 1
    elapsed = _time.perf_counter() - t0
    if metrics is not None:
        done = step - start_step
        metrics.update({
            "supersteps": done, "l1_delta": delta, "sec": elapsed,
            "resumed_from": start_step - 1 if start_step else None,
            "edges_processed": 2 * graph.num_edges * done,
            "edges_per_sec": (2 * graph.num_edges * done) / max(elapsed, 1e-9),
            "mode": "sharded",
        })
    return scores_dataset(graph.vdict, pool, "pagerank")


def _tele_tag(personalization: dict) -> str:
    """Deterministic 12-hex tag of a personalization vector (sorted
    (node, weight) pairs) — distinguishes checkpoint namespaces."""
    import hashlib

    items = sorted((int(k), float(v)) for k, v in personalization.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:12]


def dense_from_pairs_from_state(state: pa.Table, graph: Graph) -> np.ndarray | None:
    """Checkpointed (node, pagerank) table → dense vector in graph order."""
    nodes = state.column("node").to_numpy()
    vals = state.column(state.column_names[1]).to_numpy()
    idx = graph.dense_index(nodes)  # clips internally; None on mismatch
    if idx is None or idx.size != graph.num_vertices:
        return None
    out = np.zeros(graph.num_vertices, dtype=np.float64)
    out[idx] = vals
    return out
