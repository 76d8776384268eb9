"""Community detection by synchronous label propagation (mode-LP).

Same superstep skeleton as PageRank/CC, but the per-vertex combine is a
**mode** (most frequent neighbor label, weighted by edge weight), which
is not a simple associative reduce: it needs per-(vertex, label) count
merging first (SURVEY.md §7.5.2 — "mode needs a count-merge, not a
row-merge"). So each superstep merges partial counts ``(v, label, c)``
per (vertex, label) and takes the argmax per vertex with a
deterministic tie-break (max count, then smallest label), which makes
runs reproducible across partitionings (SURVEY.md §7.5.3). Distributed
graphs, dense or sharded, keep the count tables owner-resident and ship
only changed labels after the first superstep (:func:`_lp_pool`); a
pool without the frontier kernels runs ``ShardPool.lp_step``, the
full-recompute reference superstep, instead.

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
from centrality_gpu_ray.state.checkpoint import LoopCheckpoint


def label_propagation(graph: Graph, config: EngineConfig | None = None,
                      weighted: bool = True, max_supersteps: int = 20,
                      metrics: dict | None = None):
    """Returns ``(node, label)``; labels are original node ids (a
    ``pa.Table`` on dense graphs, a Dataset on sharded ones)."""
    cfg = config or graph.config
    ckpt = LoopCheckpoint(graph, cfg, "labelprop", "label", ids=True)
    t0 = time.perf_counter()
    if graph.mode == "local":
        start, labels = ckpt.resume()
        step = start
        if labels is None:
            labels = np.arange(graph.num_vertices, dtype=np.int64)
        s, d, w = graph.local_arrays()
        ww = w.astype(np.int64) if weighted else np.ones(s.size, dtype=np.int64)
        vv = np.concatenate([d, s])
        cc = np.concatenate([ww, ww])
        changed = True
        while changed and step < max_supersteps:
            ll = np.concatenate([labels[s], labels[d]])
            # merge partial counts per (v, label) (exact int sums)
            pairs = np.stack([vv, ll], axis=1)
            uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
            cnt = np.bincount(inv, weights=cc).astype(np.int64)
            new = _pick_labels(uniq[:, 0], uniq[:, 1], cnt, labels)
            changed = bool(np.any(new != labels))
            labels = new
            ckpt.save(step, labels, changed=changed, mode=graph.mode)
            step += 1
        out = _result(graph, labels)
    else:
        start, step, changed = _lp_pool(graph, max_supersteps, weighted,
                                        ckpt)
        out = graph.owner_scores(graph.pool, "label", ids=True)
    elapsed = time.perf_counter() - t0

    if metrics is not None:
        # Synchronous LP can legitimately oscillate on bipartite
        # structure — the cap is semantic, not an error — but callers
        # must be able to see whether a fixpoint was reached.
        metrics.update({
            "supersteps": step,
            "sec": elapsed,
            "mode": "sharded" if graph.sharded else graph.mode,
            "converged": not changed,
        })
        if start:
            metrics["resumed_from"] = start - 1
        if not graph.sharded:
            metrics["num_labels"] = len(
                np.unique(out.column("label").to_numpy()))
    return out


def _lp_pool(graph: Graph, max_supersteps: int, weighted: bool,
             ckpt: LoopCheckpoint):
    """LP supersteps over owner-resident labels; returns (first step,
    end step, changed). Change-driven on a frontier-capable pool: the
    first superstep builds the owners' resident (v, label)→count
    tables, every later one ships only the changed triples and their
    incident count deltas (O(Σdeg(changed)), decays geometrically).
    Superstep semantics are bit-identical to the full-recompute
    ``lp_step`` (exact integer count invariant + the same
    `_pick_labels` decide), so checkpoints and the converged flag
    compare exactly. A resume loads the label chunks and the first
    superstep's full-count build re-derives the count tables."""
    pool = graph.pool
    n = graph.num_vertices
    pool.setup_owner_ranges(n)
    pool.reset_labels()
    start, _ = ckpt.resume(pool)
    step, changed = start, True
    # carry: label chunks (lp_step) or changed triples (delta steps)
    carry, nch = None, n
    while changed and step < max_supersteps:
        # adaptive push/pull: while most labels still churn, a full
        # count-table rebuild is ~2× cheaper than shipping ±w deltas
        # for nearly every edge (delta volume is 2× the count volume);
        # once changes localize the delta superstep wins by orders of
        # magnitude. Both are exact supersteps — the switch cannot
        # change any decision.
        if not pool._frontier_capable:
            nch, carry = pool.lp_step(carry, weighted)
        elif carry is None or nch * 2 > n:
            nch, carry = pool.lp_init_resident(weighted)
        else:
            nch, carry = pool.lp_delta_step(carry, weighted)
        changed = nch > 0
        ckpt.save(step, pool, changed=int(nch), mode=graph.mode)
        step += 1
    return start, step, changed


def _result(graph: Graph, labels: np.ndarray) -> pa.Table:
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "label": pa.array(graph.node_ids[labels], type=pa.int64()),
    })
