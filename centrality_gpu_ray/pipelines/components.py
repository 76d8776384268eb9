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
sharding and owner split give identical results. Distributed graphs
keep the labels owner-resident on the shard pool (``ShardPool.cc_step``:
min-gather partials per shard, min-combine + jump per owner range).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.state.checkpoint import CheckpointManager


def connected_components(graph: Graph, config: EngineConfig | None = None,
                         metrics: dict | None = None) -> pa.Table:
    """Returns ``(node, component)`` with component = min node id."""
    cfg = config or graph.config
    n = graph.num_vertices
    if getattr(graph, "sharded", False):
        return _components_sharded(graph, cfg, metrics)
    labels = np.arange(n, dtype=np.int64)
    ckpt = CheckpointManager(cfg.checkpoint_dir, "components", cfg.checkpoint_every,
                             cfg.num_partitions)
    step = 0
    resumed = ckpt.resume()
    if resumed is not None:
        step, _, state = resumed
        idx = graph.dense_index(state.column("node").to_numpy())
        comp = graph.dense_index(state.column("component").to_numpy())
        if idx is not None and comp is not None and idx.size == n:
            labels[idx] = comp
            step += 1
        else:
            step = 0  # foreign checkpoint: start over, full budget

    t0 = time.perf_counter()
    changed = True
    if graph.mode != "local":
        # owner-resident labels: int64 chunks live in the actors
        graph.pool.setup_owners(np.ones(n, dtype=np.float64),
                                labels.astype(np.float64))
        while changed and step < cfg.max_supersteps:
            changed = graph.pool.cc_step() > 0
            if cfg.checkpoint_dir is not None and step % cfg.checkpoint_every == 0:
                labels = graph.pool.collect_state().astype(np.int64)
                ckpt.maybe_write(step, _result(graph, labels), changed=changed,
                                 mode=graph.mode)
            step += 1
        labels = graph.pool.collect_state().astype(np.int64)
    else:
        s, d, _ = graph.local_arrays()
        while changed and step < cfg.max_supersteps:
            new = labels.copy()
            np.minimum.at(new, d, labels[s])
            np.minimum.at(new, s, labels[d])
            new = np.minimum(new, new[new])  # pointer jump (O(log n))
            changed = bool(np.any(new != labels))
            labels = new
            ckpt.maybe_write(step, _result(graph, labels), changed=changed,
                             mode=graph.mode)
            step += 1
    elapsed = time.perf_counter() - t0

    _check_converged(changed, step, cfg, metrics)
    if metrics is not None:
        metrics.update({
            "supersteps": step,
            "sec": elapsed,
            "num_components": int(np.unique(labels).size),
            "mode": graph.mode,
        })
    return _result(graph, labels)


def _components_sharded(graph: Graph, cfg: EngineConfig,
                        metrics: dict | None):
    """>dense_vertex_limit CC: labels live sharded in the owner actors
    (min-label over dense ids); result is a Dataset of
    (node, component) in ORIGINAL ids — min dense id maps to min
    original id because the dictionary is sorted."""
    from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

    n = graph.num_vertices
    pool = graph.pool
    pool.setup_owners_sharded(n)
    pool.reset_labels()
    t0 = time.perf_counter()
    step, changed = 0, True
    while changed and step < cfg.max_supersteps:
        changed = pool.cc_step() > 0
        step += 1
    elapsed = time.perf_counter() - t0
    _check_converged(changed, step, cfg, metrics)
    if metrics is not None:
        metrics.update({"supersteps": step, "sec": elapsed,
                        "mode": "sharded"})
    return scores_dataset(graph.vdict, pool, "component",
                          to_original_values=True)


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
