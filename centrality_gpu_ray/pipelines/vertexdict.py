"""Vertex dictionary — the one map between original and dense ids.

Every ``Graph`` carries one (``graph.vdict``), and every id mapping
that runs in a task or an actor reads it through ``nputil.DictReader``.
Up to ``dense_vertex_limit`` vertices it is the driver's sorted
``node_ids`` as a single block (:meth:`VertexDict.one_block`, one
``ray.put``). Beyond it the vertex set does not fit a driver vector
(the north_rule's 10^12-file scale), so the dictionary itself is built
distributed and lives as range-partitioned plasma blocks
(:meth:`VertexDict.build`):

1. per-block partial unique (one task per edge block, no shuffle;
   ``Graph`` runs it),
2. one range exchange: each partial splits at cut points drawn from
   a sample of the ids, and each range merges into one sorted,
   distinct block,
3. per-block (min, count) — P scalars — to the driver; dense id of an
   original id = block offset + rank within its block.

The driver holds only the P block boundaries/offsets. Mappers resolve
ids by reading the dict blocks ZERO-COPY from the object store (one
physical copy per node — the same budget as the broadcast state
vector; at 1e9 vertices the dict is 8 GB/node, which is the documented
envelope). The reference's first-seen relabel is
``modified_apsp.cpp:273-363``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.nputil import DictReader


class VertexDict:
    """Range-partitioned sorted vertex dictionary.

    Attributes:
        block_refs: P plasma refs, each an int64 np.ndarray of sorted
            original ids (concatenation over blocks = full sorted set).
        mins: first id of each block (len P).
        offsets: dense-id offset of each block (len P+1; offsets[-1]=n).
    """

    def __init__(self, block_refs: list, mins: np.ndarray, offsets: np.ndarray):
        self.block_refs = block_refs
        self.mins = mins
        self.offsets = offsets
        self.num_vertices = int(offsets[-1])

    @property
    def meta(self) -> tuple:
        """``(mins, offsets, block_refs)``: what a task or an actor
        needs to build a ``DictReader``."""
        return self.mins, self.offsets, self.block_refs

    @staticmethod
    def one_block(ids: np.ndarray) -> "VertexDict":
        """A dense graph's dictionary: its sorted distinct ids (the
        driver's ``node_ids``) as one block, put in the object store
        once."""
        import ray

        if not ids.size:
            return VertexDict([], np.empty(0, dtype=np.int64),
                              np.zeros(1, dtype=np.int64))
        return VertexDict([ray.put(ids)], ids[:1].copy(),
                          np.array([0, ids.size], dtype=np.int64))

    @staticmethod
    def build(id_refs: list, sample: np.ndarray) -> "VertexDict":
        """``id_refs``: refs to sorted int64 arrays of candidate ids
        (each distinct; cross-array duplicates fine). ``sample``: ids
        drawn from them, the source of the range cut points.

        One range exchange in raw tasks: each array splits at the cut
        points, and each range merges its pieces into one sorted,
        distinct block. Ranges ascend, so the blocks come out in global
        order by construction."""
        import ray

        from centrality_gpu_ray.stages.shuffle import cluster_width, cut_positions

        sample = np.unique(sample)
        cuts = sample[cut_positions(sample.size, cluster_width())]
        parts = cuts.size + 1

        @ray.remote(num_returns=parts)
        def split(ids: np.ndarray):
            pieces = np.split(ids, np.searchsorted(ids, cuts))
            return tuple(pieces) if parts > 1 else pieces[0]

        @ray.remote(num_returns=2)
        def merge(*pieces):
            v = np.unique(np.concatenate(pieces))
            return v, (int(v[0]) if v.size else None, int(v.size))

        pieces = [split.remote(r) for r in id_refs]
        if parts == 1:
            pieces = [[p] for p in pieces]
        pairs = [merge.remote(*[p[i] for p in pieces]) for i in range(parts)]
        metas = ray.get([m for _, m in pairs])
        keep = [(r, m) for (r, _), m in zip(pairs, metas) if m[1] > 0]
        mins = np.array([m[0] for _, m in keep], dtype=np.int64)
        counts = np.array([m[1] for _, m in keep], dtype=np.int64)
        offsets = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return VertexDict([r for r, _ in keep], mins, offsets)


class _RemapSharded:
    """Edge-table callable: (src, dst, weight) → dense (s, d, w) through
    a ``DictReader`` — the graph build's one remap, for dense and
    sharded graphs alike."""

    def __init__(self, reader: DictReader):
        self._reader = reader

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = self._reader.to_dense(batch.column("src").to_numpy())
        d = self._reader.to_dense(batch.column("dst").to_numpy())
        w = (batch.column("weight").to_numpy()
             if "weight" in batch.column_names
             else np.ones(len(batch), dtype=np.int64))
        return pa.table({"s": pa.array(s), "d": pa.array(d),
                         "w": pa.array(w.astype(np.int64))})


def scores_dataset(vdict: VertexDict, pool, col: str,
                   to_original_values: bool = False,
                   aux_col: str | None = None,
                   aux_to_original: bool = False,
                   value_cast=None,
                   aux_cast: str | None = None):
    """Per-owner state chunks → Dataset of (node, col[, aux_col]) rows
    without the driver ever holding n rows. ``to_original_values=True``
    maps the primary VALUES (dense vertex ids, e.g. CC labels) back to
    original ids; ``aux_col`` additionally emits the owners' aux vector
    (e.g. BFS parents), with ``aux_to_original`` mapping non-negative
    aux values to original ids (negatives pass through).
    ``value_cast``/``aux_cast``: numpy dtype names applied to the
    emitted vectors (owner state is float64; integral/bool results —
    colors, MIS membership — cast back so cross-mode schemas match);
    ``value_cast`` may also be a function of the value vector."""
    import ray
    import ray.data

    @ray.remote
    def emit(lo: int, hi: int, state: np.ndarray, aux, meta):
        reader = DictReader(meta)
        dense = np.arange(lo, hi, dtype=np.int64)
        vals = state
        if to_original_values:
            vals = reader.to_original(state.astype(np.int64))
        if callable(value_cast):
            vals = value_cast(vals)
        elif value_cast is not None:
            vals = vals.astype(value_cast)
        cols = {"node": pa.array(reader.to_original(dense)),
                col: pa.array(vals)}
        if aux is not None:
            av = aux
            if aux_to_original:
                ai = aux.astype(np.int64)
                mapped = reader.to_original(np.maximum(ai, 0))
                av = np.where(ai >= 0, mapped, -1).astype(np.int64)
            elif aux_cast is not None:
                av = av.astype(aux_cast)
            cols[aux_col] = pa.array(av)
        return pa.table(cols)

    state_refs = [a.owner_get_state.remote() for a in pool.actors]
    aux_refs = ([a.owner_get_aux.remote() for a in pool.actors]
                if aux_col is not None else [None] * len(pool.actors))
    bounds = pool.bounds
    tabs = [emit.remote(int(bounds[i]), int(bounds[i + 1]), state_refs[i],
                        aux_refs[i], vdict.meta)
            for i in range(len(pool.actors))]
    return ray.data.from_arrow_refs(tabs)
