"""Graph handle: the static, reusable edge structure behind supersteps.

The reference copies its CSR arrays (R, C, F) to the GPU once and runs
every source's BFS against that resident copy (``kernels_free.cu:44-74``).
The Ray-Data analogue: normalize the edge table once (self-loop filter →
canonical dedup → symmetrize), **materialize** it as zero-copy Arrow
blocks in the object store, and run every superstep as a
``map_batches`` over those pinned blocks — the big, static thing never
moves again; only the small per-vertex state does.

Two execution modes (chosen by ``mode`` or edge count):

* ``"local"`` — the whole (deduped) edge table fits the driver: pull it
  once as numpy and run supersteps as vectorized ``np.add.at`` /
  ``bincount`` kernels. This is the explicit small-graph collapse the
  reference also has (``PARALLEL_CUTOFF``, ``bcc_bfs.cpp:24,371-472``):
  below ~1e6 edges a distributed shuffle costs more than the compute.
* ``"distributed"`` — edges stay blocks in the object store and are
  dealt once to a resident edge-shard actor pool (``Graph.pool``,
  ``pipelines/shards.py``). Per-vertex state (rank/label vectors over
  dense ``0..n-1`` ids) lives in the pool's vertex-range owner actors;
  per superstep each shard ``reduceat``s its presorted messages into
  one partial per destination and each owner combines its range.

Whether the graph is ``sharded`` decides only how original ids come in
and how scores go out, never which superstep loop runs. Up to
``EngineConfig.dense_vertex_limit`` vertices ``node_ids`` sits on the
driver and owner state comes back as a ``pa.Table``; beyond it the
vertex dictionary itself is sharded (``pipelines/vertexdict.py``) and
results come back as Datasets built from the owners' chunks
(:meth:`Graph.dense_index`, :meth:`Graph.owner_scores`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig, DEFAULT_CONFIG
from centrality_gpu_ray.stages.edges import dedup_edges

LOCAL_EDGE_CUTOFF = 2_000_000  # deduped undirected edges


class Graph:
    """Normalized, dense-relabelled, materialized graph.

    Vertices get dense ids ``0..n-1`` = rank of their original int64 id
    in sorted order (deterministic, partition-count independent —
    replaces the first-seen-order relabel of ``modified_apsp.cpp:273-363``
    which is not). ``node_ids[i]`` maps back.
    """

    def __init__(self, edges_ds, config: EngineConfig | None = None,
                 normalized: bool = False, mode: str = "auto"):
        self.config = config or DEFAULT_CONFIG
        if not normalized:
            # dedup_edges canonicalizes (src < dst), drops self-loops and
            # sums duplicate weights — one shuffle keyed on the edge.
            edges_ds = dedup_edges(edges_ds)
        # One canonical row per undirected edge (src < dst); symmetric
        # views are derived per-batch so we store/shuffle m rows, not 2m.
        canon = edges_ds.map_batches(_to_canonical, batch_format="pyarrow")
        self._canon_ds = canon.materialize()

        # distinct vertex ids: per-block partial unique (one map pass, no
        # shuffle). The SUM of per-block uniques upper-bounds the true
        # distinct count, so it decides dense-vs-sharded without pulling
        # anything to the driver.
        uniq_ds = self._canon_ds.map_batches(
            _unique_vertices, batch_format="pyarrow").materialize()
        upper_bound = uniq_ds.count()
        self.sharded = upper_bound > self.config.dense_vertex_limit
        if not self.sharded:
            # dense path: merge per-block uniques on the driver
            id_parts = [b.column("v").to_numpy()
                        for b in uniq_ds.iter_batches(batch_size=None,
                                                      batch_format="pyarrow")]
            self.node_ids = (np.unique(np.concatenate(id_parts)) if id_parts
                             else np.empty(0, dtype=np.int64))
            self.num_vertices = int(self.node_ids.size)
            remap = _Remap(self.node_ids)
        else:
            # sharded path (> dense_vertex_limit): dictionary built
            # distributed, range-partitioned plasma blocks; the driver
            # holds P boundaries/offsets only (pipelines/vertexdict.py).
            from centrality_gpu_ray.pipelines.vertexdict import (
                VertexDict, _RemapSharded)

            self.vdict = VertexDict.build(
                uniq_ds, num_partitions=self.config.num_partitions)
            self.node_ids = None
            self.num_vertices = self.vdict.num_vertices
            remap = _RemapSharded(
                (self.vdict.mins, self.vdict.offsets, self.vdict.block_refs))

        # sort by (s, d) before pinning: range-partitioned blocks give the
        # per-block partial aggregation locality (few distinct message
        # keys per block), which is what keeps superstep shuffle/combine
        # volume ≪ edge volume
        self.edges = self._canon_ds.map_batches(
            remap, batch_format="pyarrow",
            batch_size=self.config.batch_size).sort(["s", "d"]).materialize()
        self.num_edges = self.edges.count()

        if self.sharded:
            mode = "distributed"  # per-vertex state cannot live driver-side
        elif mode == "auto":
            mode = "local" if self.num_edges <= LOCAL_EDGE_CUTOFF else "distributed"
        self.mode = mode

        self._local = None
        self._out_degree = None
        self._pool = None

    @property
    def pool(self):
        """Lazy edge-shard actor pool (distributed-mode superstep engine;
        see ``pipelines/shards.py``)."""
        if self._pool is None:
            from centrality_gpu_ray.pipelines.shards import ShardPool

            self._pool = ShardPool(self.edges)
        return self._pool

    def canonical_edges(self):
        """The materialized canonical edge Dataset in ORIGINAL node ids
        — one (src, dst, weight) row per undirected edge, src < dst, no
        self-loops/dups.  The original-id complement of ``self.edges``
        (dense ids); consumed by partition-scoring operators
        (``pipelines/community.py``) that join against original-id
        label tables."""
        return self._canon_ds

    # -- local fast path -------------------------------------------------
    def local_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, d, w) canonical dense-id edge arrays on the driver."""
        if self._local is None:
            tbls = [b for b in self.edges.iter_batches(batch_size=None, batch_format="pyarrow")]
            t = pa.concat_tables(tbls)
            s = t.column("s").to_numpy(zero_copy_only=False)
            d = t.column("d").to_numpy(zero_copy_only=False)
            w = t.column("w").to_numpy(zero_copy_only=False)
            # canonical order for bit-deterministic local kernels
            order = np.lexsort((d, s))
            self._local = (s[order], d[order], w[order])
        return self._local

    @property
    def out_degree(self) -> np.ndarray:
        """Symmetric-graph degree vector (dense ids)."""
        if self._out_degree is None:
            if self.mode == "local":
                s, d, _ = self.local_arrays()
                self._out_degree = (
                    np.bincount(s, minlength=self.num_vertices)
                    + np.bincount(d, minlength=self.num_vertices)
                ).astype(np.int64)
            else:
                deg = np.zeros(self.num_vertices, dtype=np.int64)
                for part in self.edges.map_batches(
                        _degree_partial, batch_format="pyarrow").iter_batches(
                        batch_size=None, batch_format="pyarrow"):
                    np.add.at(deg, part.column("v").to_numpy(),
                              part.column("c").to_numpy())
                self._out_degree = deg
        return self._out_degree

    def require_dense(self, op: str) -> None:
        """Loud guard for operators whose driver-resident form is the
        only one (exact all-sources BC is dense-only BY DESIGN — its
        per-worker cache-resident CSR is the point; sampled BC runs
        sharded via ``shards.py::brandes_source_pass``). Every other
        family — PageRank/CC/LP/SSSP/BFS/triangles/eigenvector/Katz/
        PPR/k-core/k-truss/closeness and, since round 3,
        BiCC/articulation/bridges (``pipelines/bicc_sharded.py``) —
        runs sharded, see ``pipelines/vertexdict.py``."""
        if getattr(self, "sharded", False):
            raise NotImplementedError(
                f"{op} is not wired for the sharded-state (> "
                f"dense_vertex_limit={self.config.dense_vertex_limit}) "
                "path (it needs a whole-graph CSR per worker). "
                "Raise config.dense_vertex_limit if the driver has RAM.")

    def dense_index(self, nodes: np.ndarray) -> np.ndarray | None:
        """Original node ids → dense 0..n-1 indices, or None if any id is
        not a vertex of THIS graph (e.g. a checkpoint from a different
        graph, an unknown source). Sharded graphs resolve through the
        vertex dictionary (O(k) reads of its plasma blocks); the
        round trip back to original ids is the membership check.
        Clips before it so out-of-range ids fail gracefully instead of
        raising."""
        nodes = np.asarray(nodes, dtype=np.int64)
        n = self.num_vertices
        if n == 0:
            return None if nodes.size else np.empty(0, dtype=np.int64)
        if self.sharded:
            from centrality_gpu_ray.pipelines.vertexdict import _DictReader

            reader = _DictReader((self.vdict.mins, self.vdict.offsets,
                                  self.vdict.block_refs))
            idx = np.clip(reader.to_dense(nodes), 0, n - 1)
            back = reader.to_original(idx)
        else:
            idx = np.minimum(np.searchsorted(self.node_ids, nodes), n - 1)
            back = self.node_ids[idx]
        return idx if np.array_equal(back, nodes) else None

    def owner_scores(self, pool, col: str, cast=None, ids: bool = False,
                     aux_col: str | None = None, aux_ids: bool = False):
        """The pool owners' state (and aux) → ``(node, col[, aux_col])``
        rows in original ids: a ``pa.Table`` on dense graphs, a Dataset
        (``vertexdict.scores_dataset``) on sharded ones. ``ids`` maps
        the values (dense vertex ids, e.g. CC labels) to original ids;
        ``aux_ids`` does the same for non-negative aux values (e.g. BFS
        parents; negatives become -1). ``cast``: a numpy dtype name or
        a function applied to the value vector."""
        if self.sharded:
            from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

            return scores_dataset(self.vdict, pool, col,
                                  to_original_values=ids, aux_col=aux_col,
                                  aux_to_original=aux_ids, value_cast=cast)
        vals = pool.collect_state()
        if ids:
            vals = self.node_ids[vals.astype(np.int64)]
        if cast is not None:
            vals = cast(vals) if callable(cast) else vals.astype(cast)
        out = self.scores_table(vals, col)
        if aux_col is None:
            return out
        aux = pool.collect_state(aux=True)
        if aux_ids:
            a = aux.astype(np.int64)
            aux = np.where(a >= 0, self.node_ids[np.maximum(a, 0)], -1)
        return out.append_column(aux_col, pa.array(aux))

    def scores_table(self, values: np.ndarray, col: str) -> pa.Table:
        """Dense result vector → (node, col) table in original ids."""
        return pa.table({
            "node": pa.array(self.node_ids, type=pa.int64()),
            col: pa.array(values),
        })


def _to_canonical(batch: pa.Table) -> pa.Table:
    cols = {"src": batch["src"], "dst": batch["dst"]}
    cols["weight"] = (batch["weight"] if "weight" in batch.column_names
                      else pa.array(np.ones(len(batch), dtype=np.int64)))
    import pyarrow.compute as pc

    t = pa.table(cols)
    keep = pc.less(t["src"], t["dst"])
    return t.filter(keep)


class _Remap:
    """map_batches callable: original ids → dense 0..n-1 by a search in
    the sorted id array it carries. Ray Data puts the callable into the
    object store once per execution and tasks read it zero-copy, so the
    ids are not re-shipped per batch. They travel by value, not as a
    nested ``ray.put`` ref: such a ref outlived its graph whenever shard
    actors had held the graph's blocks (one n-vector per job left in
    the store, 137,048 B on the benchmark's lineitem graph)."""

    def __init__(self, ids: np.ndarray):
        self._ids = ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = np.searchsorted(self._ids, batch.column("src").to_numpy())
        d = np.searchsorted(self._ids, batch.column("dst").to_numpy())
        w = (batch.column("weight").to_numpy() if "weight" in batch.column_names
             else np.ones(len(batch), dtype=np.int64))
        return pa.table({
            "s": pa.array(s.astype(np.int64)),
            "d": pa.array(d.astype(np.int64)),
            "w": pa.array(w.astype(np.int64)),
        })


def _unique_vertices(batch: pa.Table) -> pa.Table:
    v = np.unique(np.concatenate([batch.column("src").to_numpy(),
                                  batch.column("dst").to_numpy()]))
    return pa.table({"v": pa.array(v.astype(np.int64))})


def _degree_partial(batch: pa.Table) -> pa.Table:
    v = np.concatenate([batch.column("s").to_numpy(), batch.column("d").to_numpy()])
    uniq, cnt = np.unique(v, return_counts=True)
    return pa.table({"v": pa.array(uniq), "c": pa.array(cnt.astype(np.int64))})
