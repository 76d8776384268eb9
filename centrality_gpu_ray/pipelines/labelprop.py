"""Community detection by synchronous label propagation (mode-LP).

Same superstep skeleton as PageRank/CC, but the per-vertex combine is a
**mode** (most frequent neighbor label, weighted by edge weight), which
is not a simple associative reduce: it needs per-(vertex, label) count
merging first (SURVEY.md §7.5.2 — "mode needs a count-merge, not a
row-merge"). So each superstep merges partial counts ``(v, label, c)``
per (vertex, label) and takes the argmax per vertex with a
deterministic tie-break (max count, then smallest label), which makes
runs reproducible across partitionings (SURVEY.md §7.5.3). Distributed
graphs keep the count tables owner-resident and ship only changed
labels after the first superstep (:func:`_lp_resident_loop`); a pool
without that capability falls back to full per-shard counts merged on
the driver (``ShardPool.gather_label_counts``).

A vertex keeps its current label when that label ties the best count
(stabilizes convergence); a hard ``max_supersteps`` cap bounds the
known oscillation of synchronous LP on bipartite structures.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.shard_actor import _pick_labels
from centrality_gpu_ray.state.checkpoint import CheckpointManager


def label_propagation(graph: Graph, config: EngineConfig | None = None,
                      weighted: bool = True, max_supersteps: int = 20,
                      metrics: dict | None = None) -> pa.Table:
    """Returns ``(node, label)``; labels are original node ids."""
    import ray

    cfg = config or graph.config
    if getattr(graph, "sharded", False):
        return _labelprop_sharded(graph, cfg, weighted, max_supersteps,
                                  metrics)
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    ckpt = CheckpointManager(cfg.checkpoint_dir, "labelprop", cfg.checkpoint_every,
                             cfg.num_partitions)
    step = 0
    resumed = ckpt.resume()
    if resumed is not None:
        step, _, state = resumed
        idx = graph.dense_index(state.column("node").to_numpy())
        lab = graph.dense_index(state.column("label").to_numpy())
        if idx is not None and lab is not None and idx.size == n:
            labels[idx] = lab
            step += 1
        else:
            step = 0  # foreign checkpoint: start over, full budget

    t0 = time.perf_counter()
    changed = True
    if (graph.mode != "local"
            and getattr(graph.pool, "_frontier_capable", True)):
        # change-driven owner-resident path: ONE full-count superstep
        # builds the resident (v, label)→count tables; every later
        # superstep ships only the changed triples and their incident
        # count deltas (O(Σdeg(changed)), decays geometrically) — no
        # per-superstep O(m) driver pull.
        labels, step, changed = _lp_resident_loop(
            graph, labels, step, max_supersteps, weighted, ckpt)
    else:
        while changed and step < max_supersteps:
            if graph.mode == "local":
                s, d, w = graph.local_arrays()
                ww = w.astype(np.int64) if weighted else np.ones(s.size, dtype=np.int64)
                vv = np.concatenate([d, s])
                ll = np.concatenate([labels[s], labels[d]])
                cc = np.concatenate([ww, ww])
            else:
                vv, ll, cc = graph.pool.gather_label_counts(ray.put(labels),
                                                            weighted)
                if vv.size == 0:
                    break
            # merge partial counts per (v, label) (exact int sums, order-free)
            pairs = np.stack([vv, ll], axis=1)
            uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
            cnt = np.bincount(inv, weights=cc).astype(np.int64)
            new = _pick_labels(uniq[:, 0], uniq[:, 1], cnt, labels)
            changed = bool(np.any(new != labels))
            labels = new
            ckpt.maybe_write(step, _result(graph, labels), changed=changed,
                             mode=graph.mode)
            step += 1
    elapsed = time.perf_counter() - t0

    if metrics is not None:
        # Synchronous LP can legitimately oscillate on bipartite
        # structure — the cap is semantic, not an error — but callers
        # must be able to see whether a fixpoint was reached.
        metrics.update({
            "supersteps": step,
            "sec": elapsed,
            "num_labels": int(np.unique(labels).size),
            "mode": graph.mode,
            "converged": not changed,
        })
    return _result(graph, labels)


def _lp_resident_loop(graph: Graph, labels0: np.ndarray, start_step: int,
                      max_supersteps: int, weighted: bool,
                      ckpt: CheckpointManager | None):
    """Run change-driven LP supersteps over owner-resident state;
    returns (final labels, step, changed). Superstep semantics are
    bit-identical to the full-recompute loop (exact integer count
    invariant + the same `_pick_labels` decide), so checkpoints and the
    converged flag compare exactly."""
    pool = graph.pool
    n = graph.num_vertices
    pool.setup_owner_ranges(n)
    pool.set_state(labels0.astype(np.float64))
    step, changed = start_step, True
    triple_ref, nch = None, n
    while changed and step < max_supersteps:
        # adaptive push/pull: while most labels still churn, a full
        # count-table rebuild is ~2× cheaper than shipping ±w deltas
        # for nearly every edge (delta volume is 2× the count volume);
        # once changes localize the delta superstep wins by orders of
        # magnitude. Both are exact supersteps — the switch cannot
        # change any decision.
        if triple_ref is None or nch * 2 > n:
            nch, triple_ref = pool.lp_init_resident(weighted)
        else:
            nch, triple_ref = pool.lp_delta_step(triple_ref, weighted)
        changed = nch > 0
        if ckpt is not None and ckpt.root is not None \
                and step % ckpt.every == 0:
            labels = pool.collect_state().astype(np.int64)
            ckpt.maybe_write(step, _result(graph, labels), changed=changed,
                             mode=graph.mode)
        step += 1
    return pool.collect_state().astype(np.int64), step, changed


def _labelprop_sharded(graph: Graph, cfg: EngineConfig, weighted: bool,
                       max_supersteps: int, metrics: dict | None):
    """>dense_vertex_limit LP: labels live sharded in the owner actors
    (change-driven resident count state); returns a Dataset of
    (node, label) in ORIGINAL ids."""
    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    n = graph.num_vertices
    pool = graph.pool
    t0 = time.perf_counter()
    step, changed = 0, True
    resumed_from = None
    if getattr(pool, "_frontier_capable", True):
        pool.setup_owner_ranges(n)
        pool.reset_labels()
        if cfg.checkpoint_dir is not None:
            # per-owner sharded checkpoints (same discipline as sharded
            # PageRank); a resume loads the label chunks and the first
            # superstep's full-count build re-derives the resident
            # count tables exactly
            resumed_from = pool.resume_owners(cfg.checkpoint_dir,
                                              "labelprop")
            if resumed_from is not None:
                step = resumed_from + 1
        triple_ref, nch = None, n
        while changed and step < max_supersteps:
            # adaptive push/pull — see _lp_resident_loop
            if triple_ref is None or nch * 2 > n:
                nch, triple_ref = pool.lp_init_resident(weighted)
            else:
                nch, triple_ref = pool.lp_delta_step(triple_ref, weighted)
            changed = nch > 0
            if cfg.checkpoint_dir is not None \
                    and step % cfg.checkpoint_every == 0:
                pool.checkpoint_owners(cfg.checkpoint_dir, "labelprop",
                                       step, {"changed": int(nch)})
            step += 1
    else:
        pool.setup_owners_sharded(n, weighted)
        pool.reset_labels()
        while changed and step < max_supersteps:
            changed = pool.lp_step(weighted) > 0
            step += 1
    elapsed = time.perf_counter() - t0
    if metrics is not None:
        metrics.update({"supersteps": step, "sec": elapsed,
                        "mode": "sharded", "converged": not changed})
        if resumed_from is not None:
            metrics["resumed_from"] = resumed_from
    return scores_dataset(graph.vdict, pool, "label",
                          to_original_values=True)


def _result(graph: Graph, labels: np.ndarray) -> pa.Table:
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "label": pa.array(graph.node_ids[labels], type=pa.int64()),
    })
