"""Connected components by min-label propagation to fixpoint.

Replaces the reference's hard requirement of a connected input — it
DFS-checks connectivity and ``exit(0)``s otherwise
(``graph_ear_decompos.h:141-149``) — and serves the decomposition role
its Tarjan BiCC grouping played (SURVEY.md §2.4 I3): group all further
per-component work with a ``groupby("component")``.

Semantics: ``component(v) = min(original node id in v's component)``
(deterministic; dense ids are sorted by original id so min-dense-idx and
min-original-id agree). Superstep: every vertex takes the min of its
own and all neighbors' labels (then one pointer jump); converged when
nothing changes. Integer min is exact and associative, so any edge
sharding and owner split give identical results. Distributed graphs,
dense or sharded, keep the labels owner-resident on the shard pool
(``ShardPool.cc_step``: min-gather partials per shard, min-combine +
jump per owner range); dense graphs collect them into a table, sharded
ones emit a Dataset.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.state.checkpoint import LoopCheckpoint


def connected_components(graph: Graph, config: EngineConfig | None = None,
                         metrics: dict | None = None):
    """Returns ``(node, component)`` with component = min node id (a
    ``pa.Table`` on dense graphs, a Dataset on sharded ones)."""
    cfg = config or graph.config
    ckpt = LoopCheckpoint(graph, cfg, "components", "component", ids=True)
    t0 = time.perf_counter()
    changed = True
    if graph.mode == "local":
        start, labels = ckpt.resume()
        step = start
        if labels is None:
            labels = np.arange(graph.num_vertices, dtype=np.int64)
        s, d, _ = graph.local_arrays()
        while changed and step < cfg.max_supersteps:
            new = labels.copy()
            np.minimum.at(new, d, labels[s])
            np.minimum.at(new, s, labels[d])
            new = np.minimum(new, new[new])  # pointer jump (O(log n))
            changed = bool(np.any(new != labels))
            labels = new
            ckpt.save(step, labels, changed=changed, mode=graph.mode)
            step += 1
        out = _result(graph, labels)
    else:
        pool = graph.pool
        pool.setup_owner_ranges(graph.num_vertices)
        pool.reset_labels()
        start, _ = ckpt.resume(pool)
        step, carry = start, None
        while changed and step < cfg.max_supersteps:
            nch, carry = pool.cc_step(carry)
            changed = nch > 0
            ckpt.save(step, pool, changed=changed, mode=graph.mode)
            step += 1
        out = graph.owner_scores(pool, "component", ids=True)
    elapsed = time.perf_counter() - t0

    _check_converged(changed, step, cfg, metrics)
    if metrics is not None:
        metrics.update({"supersteps": step, "sec": elapsed,
                        "mode": "sharded" if graph.sharded else graph.mode})
        if start:
            metrics["resumed_from"] = start - 1
        if not graph.sharded:
            metrics["num_components"] = len(
                np.unique(out.column("component").to_numpy()))
    return out


def _check_converged(changed: bool, step: int, cfg: EngineConfig,
                     metrics: dict | None) -> None:
    """Min-label CC needs O(diameter) supersteps; hitting the cap with
    labels still moving means the returned component ids are WRONG (a
    long chain, e.g. minhash duplicate chains, can exceed the default
    cap). Record it and fail loudly unless the caller opted out."""
    converged = not changed
    if metrics is not None:
        metrics["converged"] = converged
    if not converged:
        msg = (f"connected_components hit max_supersteps={cfg.max_supersteps} "
               f"after {step} supersteps without converging; labels are NOT "
               "final (graph diameter exceeds the superstep cap)")
        if getattr(cfg, "strict_convergence", True):
            raise RuntimeError(msg)
        import warnings

        warnings.warn(msg, stacklevel=3)


def _result(graph: Graph, labels: np.ndarray) -> pa.Table:
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "component": pa.array(graph.node_ids[labels], type=pa.int64()),
    })
