"""Per-superstep checkpoints with lineage manifests.

The reference has no checkpoint/resume — any failure reruns from
scratch (SURVEY.md §4 "Stragglers / retries"). The north_rule requires
every superstep to checkpoint per-partition state + lineage so jobs
resume mid-iteration.

Layout (all writes are write-temp-then-rename, so a checkpoint either
exists completely with its manifest or not at all — idempotent under
task/driver retry, SURVEY.md §7.5.4)::

    <dir>/step_<k>/
        part-<i>.parquet     # vertex-state shard i (row-range partition)
        manifest.json        # superstep id, per-partition lineage, metrics

Resume = find the highest ``step_k`` with a ``manifest.json`` and
continue from it (:func:`latest_checkpoint`). Sharded graphs keep their
state in the pool's owners and checkpoint it per owner instead
(``ShardPool.checkpoint_owners``: ``<dir>/<algo>/step-<k>/``);
:class:`LoopCheckpoint` puts both layouts behind one resume/save pair,
and on dense graphs roots the manager at ``<checkpoint_dir>/<algo>/``
too, so algorithms sharing one ``checkpoint_dir`` keep their state
side by side on either kind of graph.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "manifest.json"


def _step_dir(root: str, step: int) -> str:
    return os.path.join(root, f"step_{step:06d}")


def write_checkpoint(root: str, step: int, state: pa.Table, meta: dict,
                     num_partitions: int = 4) -> str:
    """Atomically write vertex-state `state` + lineage manifest."""
    os.makedirs(root, exist_ok=True)
    final = _step_dir(root, step)
    tmp = final + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    n = state.num_rows
    chunk = max(1, -(-n // num_partitions))
    lineage = []
    for i in range(num_partitions):
        lo, hi = i * chunk, min((i + 1) * chunk, n)
        if lo >= n and i > 0:
            break
        part = state.slice(lo, hi - lo)
        fname = f"part-{i:05d}.parquet"
        pq.write_table(part, os.path.join(tmp, fname))
        lineage.append({"partition": i, "file": fname, "row_lo": lo,
                        "row_hi": hi, "rows": part.num_rows})
    manifest = dict(meta)
    manifest.update({
        "superstep": step,
        "rows": n,
        "partitions": lineage,
        "written_at": time.time(),
    })
    with open(os.path.join(tmp, MANIFEST), "w") as f:
        json.dump(manifest, f, indent=1)
    if os.path.exists(final):
        shutil.rmtree(final)
    os.rename(tmp, final)
    return final


def latest_checkpoint(root: str) -> tuple[int, dict, pa.Table] | None:
    """(step, manifest, state table) of the newest complete checkpoint."""
    if not root or not os.path.isdir(root):
        return None
    steps = []
    for name in os.listdir(root):
        if name.startswith("step_") and not name.endswith(".tmp"):
            mpath = os.path.join(root, name, MANIFEST)
            if os.path.exists(mpath):
                steps.append(int(name.split("_")[1]))
    if not steps:
        return None
    step = max(steps)
    d = _step_dir(root, step)
    with open(os.path.join(d, MANIFEST)) as f:
        manifest = json.load(f)
    parts = [pq.read_table(os.path.join(d, p["file"]))
             for p in manifest["partitions"]]
    return step, manifest, pa.concat_tables(parts)


class CheckpointManager:
    """Thin per-run helper bound to (dir, algorithm, every-k)."""

    def __init__(self, root: str | None, algorithm: str, every: int = 1,
                 num_partitions: int = 4):
        self.root = root
        self.algorithm = algorithm
        self.every = max(1, every)
        self.num_partitions = num_partitions

    def maybe_write(self, step: int, state: pa.Table, **metrics) -> str | None:
        if self.root is None or step % self.every:
            return None
        meta = {"algorithm": self.algorithm, **metrics}
        return write_checkpoint(self.root, step, state, meta, self.num_partitions)

    def resume(self) -> tuple[int, dict, pa.Table] | None:
        if self.root is None:
            return None
        found = latest_checkpoint(self.root)
        if found and found[1].get("algorithm") not in (None, self.algorithm):
            raise ValueError(
                f"checkpoint dir {self.root} holds {found[1]['algorithm']} state, "
                f"not {self.algorithm}")
        return found


class LoopCheckpoint:
    """Resume/save of one superstep loop's per-vertex state, for the
    local loops and the pool loops alike. Dense graphs keep
    :class:`CheckpointManager`'s ``(node, col)`` tables; a resume maps
    them back through ``Graph.dense_index`` and raises ``ValueError``
    when they belong to another graph; they live under
    ``<checkpoint_dir>/<algo>/``. Sharded graphs keep per-owner chunks
    under ``<checkpoint_dir>/<sharded_algo>/``, and
    ``ShardPool.resume_owners`` raises on another ``n`` or other owner
    bounds. ``ids=True``: the values are dense vertex ids (labels),
    stored as original ids."""

    def __init__(self, graph, cfg, algo: str, col: str,
                 sharded_algo: str | None = None, ids: bool = False):
        self.graph, self.cfg, self.col, self.ids = graph, cfg, col, ids
        self.algo = sharded_algo or algo
        root = cfg.checkpoint_dir
        self.manager = CheckpointManager(
            None if root is None else os.path.join(root, algo), algo,
            cfg.checkpoint_every, cfg.num_partitions)

    def resume(self, pool=None) -> tuple[int, np.ndarray | None]:
        """(first superstep to run, restored dense vector or None). With
        a ``pool``, the restored state is loaded into its owners."""
        g, root = self.graph, self.cfg.checkpoint_dir
        if root is None:
            return 0, None
        if g.sharded:
            step = pool.resume_owners(root, self.algo)
            return (0, None) if step is None else (step + 1, None)
        found = self.manager.resume()
        if found is None:
            return 0, None
        step, _, table = found
        idx = g.dense_index(table.column("node").to_numpy())
        vals = table.column(self.col).to_numpy()
        if self.ids:
            vals = g.dense_index(vals)
        if idx is None or vals is None or idx.size != g.num_vertices:
            raise ValueError(
                f"checkpoint {self.manager.root} step {step} holds another "
                f"graph's state: {table.num_rows} rows, not the "
                f"{g.num_vertices} vertices of this graph")
        vec = np.empty(g.num_vertices, dtype=vals.dtype)
        vec[idx] = vals
        if pool is not None:
            pool.set_state(vec.astype(np.float64))
        return step + 1, vec

    def save(self, step: int, state, **meta) -> None:
        """Checkpoint superstep ``step`` when it is due; ``state`` is the
        pool, or a local loop's dense vector."""
        root = self.cfg.checkpoint_dir
        if root is None or step % self.manager.every:
            return
        if self.graph.sharded:
            state.checkpoint_owners(root, self.algo, step, meta)
            return
        if not isinstance(state, np.ndarray):
            state = state.collect_state()
        if self.ids:
            state = self.graph.node_ids[state.astype(np.int64)]
        self.manager.maybe_write(
            step, self.graph.scores_table(state, self.col), **meta)
