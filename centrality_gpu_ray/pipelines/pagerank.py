"""PageRank — the flagship superstep pipeline (SURVEY.md §7.2.4).

Semantics (FIXTURES.md §3.2): undirected graph treated as symmetric
directed, out-degree = degree, damping ``alpha`` (default 0.85),
uniform init ``1/n``, stop when the L1 rank delta < ``tolerance``.
Dangling vertices (possible on weighted/directed inputs) donate their
mass uniformly. Float64 throughout (SURVEY.md §7.5.5).

Execution:

* ``local`` mode — one numpy kernel per superstep over the driver-held
  canonical edge arrays (``np.add.at`` scatter). Bit-deterministic.
* ``distributed`` mode — :func:`_pagerank_pool` on the graph's resident
  shard pool (``pipelines/shards.py``), for dense and sharded graphs
  alike: vertex-range owner actors derive their degree chunks from the
  shards (``ShardPool.setup_owners``) and hold the rank chunks; per
  superstep every edge shard joins the owners' ``rank / deg`` chunks
  and ``reduceat``s its presorted messages into one partial per
  destination (a hub's messages fold to one row per shard), and each
  owner combines the shards' partials for its range
  and adds teleport + dangling mass (``pr_step``). Each owner's next
  contribution chunk goes straight to the next step's shards, so a
  superstep is two dependent hops. Personalized PageRank keeps the
  k-entry teleport vector in the owners (``set_teleport``,
  ``ppr_step``). The driver sums P deltas — no O(n) serial section;
  the static edge table never moves. Dense graphs
  collect the owners' chunks into a table, sharded graphs (above
  ``dense_vertex_limit``) emit them as a Dataset.

Checkpoint/resume: every ``checkpoint_every``-th superstep writes the
rank vector (``state/checkpoint.py``: a lineage-manifest table on dense
graphs, per-owner chunks on sharded ones); a rerun with the same
``checkpoint_dir`` resumes from the newest step and produces
bit-identical final scores (tested).
"""

from __future__ import annotations

import time

import numpy as np

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.state.checkpoint import LoopCheckpoint


def gather_neighbor_sum(graph: Graph, w: np.ndarray,
                        weighted: bool = False) -> np.ndarray:
    """One local superstep gather ``y[v] = Σ_{u~v} w[u]`` (optionally ×
    edge weight) over the driver arrays — the exchange the local
    spectral loops share (PageRank, personalized PageRank, eigenvector,
    Katz); their pool loops run ``shard_gather_sum`` instead."""
    s, d, we = graph.local_arrays()
    y = np.zeros(graph.num_vertices, dtype=np.float64)
    if weighted:
        np.add.at(y, d, w[s] * we)
        np.add.at(y, s, w[d] * we)
    else:
        np.add.at(y, d, w[s])
        np.add.at(y, s, w[d])
    return y


def pagerank(graph: Graph, config: EngineConfig | None = None,
             weighted: bool = False, metrics: dict | None = None,
             personalization: dict | None = None):
    """Run PageRank to convergence; returns ``(node, pagerank)`` — a
    ``pa.Table`` on dense graphs, a Dataset on sharded ones.

    ``weighted=True`` distributes each vertex's rank over its incident
    edge weights (strength) instead of uniformly over neighbors — the
    natural semantics for co-occurrence-count edges. (The reference's
    live GPU kernels ignore weights entirely, ``kernels_free.cu:245-259``;
    only its dead CPU Dijkstra path was weighted — SURVEY.md §1.1.)

    ``personalization``: ``{original_node_id: weight}`` — replaces the
    uniform teleport with the normalized given vector (personalized
    PageRank); dangling mass follows the same vector."""
    cfg = config or graph.config
    tele = None
    if personalization is not None:
        nodes = np.fromiter(personalization.keys(), dtype=np.int64)
        wts = np.fromiter((personalization[k] for k in nodes),
                          dtype=np.float64)
        idx = graph.dense_index(nodes)
        if idx is None:
            raise ValueError(
                f"personalization nodes not in graph: {nodes[:5]}")
        if wts.sum() <= 0:
            raise ValueError("personalization weights must sum > 0")
        tele = (idx, wts / wts.sum())
    # PPR gets its own checkpoint namespace keyed by the teleport
    # vector: resuming a plain-PR (or differently-personalized)
    # checkpoint would silently continue the wrong recurrence
    tag = "" if tele is None else f"_{_tele_tag(personalization)}"
    ckpt = LoopCheckpoint(
        graph, cfg, "pagerank" if tele is None else "ppr" + tag, "pagerank",
        sharded_algo=("pagerank_sharded" if tele is None
                      else "ppr_sharded" + tag))
    t0 = time.perf_counter()
    if graph.mode == "local":
        rank, start, step, delta = _pagerank_local(graph, cfg, weighted,
                                                   tele, ckpt)
        out = graph.scores_table(rank, "pagerank")
    else:
        start, step, delta = _pagerank_pool(graph, cfg, weighted, tele, ckpt)
        out = graph.owner_scores(graph.pool, "pagerank")
    elapsed = time.perf_counter() - t0
    if metrics is not None:
        done = step - start
        metrics.update({
            "supersteps": done, "l1_delta": delta, "sec": elapsed,
            "resumed_from": start - 1 if start else None,
            "edges_processed": 2 * graph.num_edges * done,
            "edges_per_sec": (2 * graph.num_edges * done) / max(elapsed, 1e-9),
            "mode": "sharded" if graph.sharded else graph.mode,
        })
    return out


def _pagerank_local(graph: Graph, cfg: EngineConfig, weighted: bool,
                    tele, ckpt: LoopCheckpoint):
    """Driver-numpy supersteps; returns (rank, first step, end step,
    last L1 delta)."""
    n = graph.num_vertices
    s, d, w = graph.local_arrays()
    wt = w.astype(np.float64) if weighted else None
    deg = np.bincount(s, wt, n) + np.bincount(d, wt, n)
    dangling = np.flatnonzero(deg == 0)
    inv_deg = np.zeros(n, dtype=np.float64)
    inv_deg[deg > 0] = 1.0 / deg[deg > 0]
    if tele is not None:
        t = np.zeros(n, dtype=np.float64)
        t[tele[0]] = tele[1]
        tele = t
    start, rank = ckpt.resume()
    if rank is None:
        rank = tele.copy() if tele is not None else np.full(n, 1.0 / n)
    step, delta = start, np.inf
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        new = gather_neighbor_sum(graph, rank * inv_deg, weighted)
        mass = rank[dangling].sum() if dangling.size else 0.0
        if tele is not None:
            new = ((1.0 - cfg.damping) * tele
                   + cfg.damping * (new + mass * tele))
        else:
            new = (1.0 - cfg.damping) / n + cfg.damping * (new + mass / n)
        delta = float(np.abs(new - rank).sum())
        rank = new
        ckpt.save(step, rank, l1_delta=delta, mode=graph.mode)
        step += 1
    return rank, start, step, delta


def _pagerank_pool(graph: Graph, cfg: EngineConfig, weighted: bool,
                   tele, ckpt: LoopCheckpoint):
    """Owner-resident supersteps on ``graph.pool``; returns (first step,
    end step, last L1 delta). Per superstep the driver launches 2P
    actor calls and sums P deltas, whatever n and m are; the owners
    sum the dangling masses themselves."""
    pool = graph.pool
    pool.setup_owners(graph.num_vertices, weighted)
    if tele is not None:
        pool.set_teleport(*tele)
    start, _ = ckpt.resume(pool)
    step, delta, carry = start, np.inf, None
    step_fn = pool.pr_step if tele is None else pool.ppr_step
    while step < cfg.max_supersteps and delta > cfg.tolerance:
        delta, carry = step_fn(carry, cfg.damping, weighted)
        ckpt.save(step, pool, l1_delta=delta, mode=graph.mode)
        step += 1
    return start, step, delta


def _tele_tag(personalization: dict) -> str:
    """Deterministic 12-hex tag of a personalization vector (sorted
    (node, weight) pairs) — distinguishes checkpoint namespaces."""
    import hashlib

    items = sorted((int(k), float(v)) for k, v in personalization.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:12]
