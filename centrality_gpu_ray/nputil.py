"""Shared vectorized numpy helpers (one copy — four modules used to
carry byte-identical private reimplementations of ragged_arange).

Numpy-only at module level: the shard actor imports this module, and an
actor process loads whatever its imports drag in."""

from __future__ import annotations

import numpy as np


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated, fully vectorized.

    The workhorse of every CSR slice gather: given per-row counts it
    yields the within-row offsets, so ``np.repeat(starts, counts) +
    ragged_arange(counts)`` addresses each row's slots. Zero counts
    are allowed (they contribute nothing)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nz = counts[counts > 0]
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(nz)
    out[0] = 0
    out[ends[:-1]] = 1 - nz[:-1]
    return np.cumsum(out)


def concat_chunks(chunks):
    """The P owners' chunks of one vector end to end: arrays as one
    array, equal-length tuples column by column (ids stay globally
    sorted — owner ranges ascend). A lone chunk passes through
    uncopied. Each shard joins a superstep's chunks itself, a private
    copy it reads at heap speed; ``shards.assemble``'s task joins
    one-shot broadcasts with it, loading no more than this module."""
    if isinstance(chunks[0], tuple):
        return tuple(concat_chunks(col) for col in zip(*chunks))
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def splitmix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 — the ONE mixing step behind the
    CMS rows, the Bloom double-hash family and the MIS/JP priorities
    (they must stay identical)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class DictReader:
    """Per-worker cached zero-copy views of a graph's vertex dictionary
    (``pipelines/vertexdict.py``); ``dict_meta`` is ``VertexDict.meta``,
    ``(mins, offsets, block_refs)``. ``blocks``: the blocks themselves,
    when a task already holds them (it took the refs as top-level
    arguments)."""

    def __init__(self, dict_meta, blocks=None):
        self._mins, self._offsets, self._block_refs = dict_meta
        self._blocks = blocks

    def _ensure(self):
        if self._blocks is None:
            import ray

            self._blocks = ray.get(list(self._block_refs))
        return self._blocks

    def to_dense(self, x: np.ndarray) -> np.ndarray:
        """Original ids → dense 0..n-1 (every id must be present)."""
        blocks = self._ensure()
        if len(blocks) == 1:
            # a dense graph's dictionary: the per-block masks below cost
            # ~1.3x here and ~15x in to_original (300k ids, 20k vertices)
            return np.searchsorted(blocks[0], x).astype(np.int64)
        blk = np.searchsorted(self._mins, x, side="right") - 1
        out = np.empty(x.size, dtype=np.int64)
        for b in np.unique(blk):
            m = blk == b
            out[m] = self._offsets[b] + np.searchsorted(blocks[b], x[m])
        return out

    def to_original(self, dense: np.ndarray) -> np.ndarray:
        """Dense ids → original ids."""
        blocks = self._ensure()
        if len(blocks) == 1:
            return blocks[0][dense]
        blk = np.searchsorted(self._offsets, dense, side="right") - 1
        out = np.empty(dense.size, dtype=np.int64)
        for b in np.unique(blk):
            m = blk == b
            out[m] = blocks[b][dense[m] - self._offsets[b]]
        return out

    def lookup(self, x: np.ndarray) -> np.ndarray | None:
        """Original ids → dense ids, or None if any id is not in the
        dictionary. Dense ids are clipped into range and mapped back;
        the round trip is the membership check."""
        x = np.asarray(x, dtype=np.int64)
        n = int(self._offsets[-1])
        if n == 0:
            return None if x.size else np.empty(0, dtype=np.int64)
        idx = np.clip(self.to_dense(x), 0, n - 1)
        return idx if np.array_equal(self.to_original(idx), x) else None


def arrow_type(t):
    """Coerce a Ray ``Dataset.schema().types`` entry to an Arrow
    DataType: Arrow datasets already yield DataTypes, pandas-backed
    blocks yield numpy dtypes / Python classes (object dtype — pandas'
    string carrier — maps to ``string``)."""
    import numpy as np
    import pyarrow as pa

    if isinstance(t, pa.DataType):
        return t
    try:
        if np.dtype(t) == np.dtype(object):
            return pa.string()
        return pa.from_numpy_dtype(np.dtype(t))
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string()
