"""Graph handle: the static, reusable edge structure behind supersteps.

The reference copies its CSR arrays (R, C, F) to the GPU once and runs
every source's BFS against that resident copy (``kernels_free.cu:44-74``).
The analogue here: normalize the edge table once, relabel it to dense
ids, and deal it once to resident shard actors that run every
superstep — the big, static thing never moves again; only the small
per-vertex state does.

The build from raw edges is one Ray Data execution plus raw tasks:

1. ``dedup_edges``: one map pass (self-loop filter, ``src < dst``,
   weights) and one hash shuffle as wide as the cluster
   (``stages/shuffle.py::cluster_width``). Its blocks are already
   canonical, so they are kept as they are (``canonical_edges()``).
2. One task per deduped block: its distinct vertex ids and evenly
   spaced samples of its ids and (src, dst) keys. Dense graphs merge
   the ids on the driver and wrap them as a one-block vertex
   dictionary; sharded graphs range-exchange them into a many-block
   one (``pipelines/vertexdict.py``).
3. One range exchange (``_range_layout``): remap to dense ids and cut
   into (s, d) ranges at cut points picked from the samples, one block
   per range and one range per shard actor, with no repartition. Step
   1's blocks are a pure function of the edge set, and so is the
   layout: shard float sums stay bit-identical across runs.

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

Every graph maps ids through one vertex dictionary (``Graph.vdict``,
``pipelines/vertexdict.py``): tasks and actors read it with
``nputil.DictReader``, and :meth:`Graph.dense_index` resolves ids
through it. Whether the graph is ``sharded`` never decides how ids are
mapped or which superstep loop runs. Up to
``EngineConfig.dense_vertex_limit`` vertices the dictionary is one
block, ``node_ids`` also sits on the driver for driver-array kernels,
and results come back as ``pa.Table``s; beyond it the dictionary is
range-partitioned and results come back as Datasets built from the
owners' chunks (:meth:`Graph.owner_scores`, :meth:`Graph.owner_edges`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig, DEFAULT_CONFIG
from centrality_gpu_ray.nputil import DictReader
from centrality_gpu_ray.pipelines.vertexdict import VertexDict, _RemapSharded
from centrality_gpu_ray.stages.edges import dedup_edges
from centrality_gpu_ray.stages.shuffle import (
    _nonempty_block_refs, cluster_width, cut_positions, even_sample)

LOCAL_EDGE_CUTOFF = 2_000_000  # deduped undirected edges
# dense graphs up to this many edges run the round-based kernels (MIS,
# JP coloring, Louvain's local moves) on driver arrays: below it a few
# hundred pool round trips cost more than the whole driver kernel
DRIVER_KERNEL_EDGES = 4_000_000


class Graph:
    """Normalized, dense-relabelled, materialized graph.

    Vertices get dense ids ``0..n-1`` = rank of their original int64 id
    in sorted order (deterministic, partition-count independent —
    replaces the first-seen-order relabel of ``modified_apsp.cpp:273-363``
    which is not). ``vdict`` maps both ways on every graph; on dense
    graphs ``node_ids[i]`` also maps back on the driver (``None`` on
    sharded ones).

    ``edges_ds`` holds raw ``(src, dst[, weight])`` rows: duplicates are
    summed, self-loops dropped. ``normalized=True`` declares it a clean
    symmetric table (``normalize_edges``/``derive_corpus_edges``
    output) and keeps its ``src < dst`` half. Symmetric input passed
    without it pays a second dedup shuffle over 2m rows, and the two
    directions of each edge fold into one row with the weight counted
    twice.
    """

    def __init__(self, edges_ds, config: EngineConfig | None = None,
                 normalized: bool = False, mode: str = "auto"):
        import ray

        self.config = config or DEFAULT_CONFIG
        if normalized:
            # clean symmetric input: keep one row per undirected edge
            edges_ds = edges_ds.map_batches(_to_canonical,
                                            batch_format="pyarrow")
        else:
            # one shuffle keyed on the edge; its output is already one
            # canonical weighted row per undirected edge (src < dst)
            edges_ds = dedup_edges(edges_ds)
        self._canon_ds = edges_ds.materialize()
        blocks = _nonempty_block_refs(self._canon_ds)
        width = cluster_width()

        # per block, one task: its distinct vertex ids, plus samples of
        # them and of its (src, dst) keys for the range exchanges below.
        # The SUM of per-block uniques upper-bounds the true distinct
        # count, so it decides dense-vs-sharded without pulling ids.
        # 64 samples per range from every block keep the ranges (shard
        # slices) within about 1/64 of even; at 8 the corpus graph's two
        # shards held 53% and 47% of its edges.
        block_ids = ray.remote(num_returns=2)(_block_ids)
        outs = [block_ids.remote(b, 64 * width) for b in blocks]
        id_refs = [ids for ids, _ in outs]
        metas = ray.get([meta for _, meta in outs])
        upper_bound = sum(m[0] for m in metas)
        self.sharded = upper_bound > self.config.dense_vertex_limit
        if not self.sharded:
            # dense path: merge per-block uniques on the driver; the
            # dictionary is that vector as one block
            self.node_ids = (np.unique(np.concatenate(ray.get(id_refs)))
                             if id_refs else np.empty(0, dtype=np.int64))
            self.vdict = VertexDict.one_block(self.node_ids)
        else:
            # sharded path (> dense_vertex_limit): dictionary built
            # distributed, range-partitioned plasma blocks; the driver
            # holds P boundaries/offsets only (pipelines/vertexdict.py).
            self.vdict = VertexDict.build(
                id_refs, np.concatenate([m[1] for m in metas]))
            self.node_ids = None
        self.num_vertices = self.vdict.num_vertices

        self.edges = _range_layout(blocks, self.vdict, metas, width)
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

    @property
    def rounds_on_driver(self) -> bool:
        """Whether MIS and JP coloring run their rounds on driver
        arrays (local graphs, dense ones up to ``DRIVER_KERNEL_EDGES``
        edges) rather than on ``self.pool``."""
        return self.mode == "local" or (
            not self.sharded and self.num_edges <= DRIVER_KERNEL_EDGES)

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
        graph, an unknown source): ``DictReader.lookup`` on the vertex
        dictionary, whose round trip back to original ids is the
        membership check."""
        return DictReader(self.vdict.meta).lookup(nodes)

    def owner_scores(self, pool, col: str, cast=None, ids: bool = False,
                     aux_col: str | None = None, aux_ids: bool = False,
                     aux_cast: str | None = None):
        """The pool owners' state (and aux) → ``(node, col[, aux_col])``
        rows in original ids: a ``pa.Table`` on dense graphs, a Dataset
        (``vertexdict.scores_dataset``) on sharded ones. ``ids`` maps
        the values (dense vertex ids, e.g. CC labels) to original ids;
        ``aux_ids`` does the same for non-negative aux values (e.g. BFS
        parents; negatives become -1). ``cast``: a numpy dtype name or
        a function applied to the value vector; ``aux_cast``: a numpy
        dtype name for the aux vector."""
        if self.sharded:
            from centrality_gpu_ray.pipelines.vertexdict import scores_dataset

            return scores_dataset(self.vdict, pool, col,
                                  to_original_values=ids, aux_col=aux_col,
                                  aux_to_original=aux_ids, value_cast=cast,
                                  aux_cast=aux_cast)
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
        elif aux_cast is not None:
            aux = aux.astype(aux_cast)
        return out.append_column(aux_col, pa.array(aux))

    def owner_edges(self, parts: list, col: str | None = None):
        """Refs to per-actor dense-id edge parts ``(s, d[, values])`` →
        ``(src, dst[, col])`` rows in original ids, mapped through the
        vertex dictionary: a ``pa.Table`` on dense graphs, a Dataset on
        sharded ones (one task per part)."""
        import ray

        if not self.sharded:
            return _edge_table([np.concatenate(c)
                                for c in zip(*ray.get(parts))],
                               self.vdict.meta, col)
        import ray.data

        emit = ray.remote(_edge_table)
        return ray.data.from_arrow_refs([emit.remote(p, self.vdict.meta,
                                                     col) for p in parts])

    def scores_table(self, values: np.ndarray, col: str) -> pa.Table:
        """Dense result vector → (node, col) table in original ids."""
        return pa.table({
            "node": pa.array(self.node_ids, type=pa.int64()),
            col: pa.array(values),
        })


def _edge_table(part, dict_meta, col: str | None) -> pa.Table:
    """Dense ``(s, d[, values])`` arrays → ``(src, dst[, col])`` in
    original ids, through the vertex dictionary ``dict_meta``."""
    to_orig = DictReader(dict_meta).to_original
    cols = {"src": pa.array(to_orig(part[0]), type=pa.int64()),
            "dst": pa.array(to_orig(part[1]), type=pa.int64())}
    if col is not None:
        cols[col] = pa.array(part[2])
    return pa.table(cols)


def _to_canonical(batch: pa.Table) -> pa.Table:
    cols = {"src": batch["src"], "dst": batch["dst"]}
    cols["weight"] = (batch["weight"] if "weight" in batch.column_names
                      else pa.array(np.ones(len(batch), dtype=np.int64)))
    import pyarrow.compute as pc

    t = pa.table(cols)
    keep = pc.less(t["src"], t["dst"])
    return t.filter(keep)


def _block_ids(block: pa.Table, m: int):
    """One canonical edge block → (its sorted distinct vertex ids,
    (their count, a sample of them, a sample of its (src, dst) keys as
    a src and a dst array)). Samples are evenly spaced in sorted order,
    at most ``m`` each."""
    src = block.column("src").to_numpy()
    dst = block.column("dst").to_numpy()
    ids = np.unique(np.concatenate([src, dst]))
    keys = np.lexsort((dst, src))[even_sample(src.size, m)]
    return ids, (ids.size, ids[even_sample(ids.size, m)],
                 src[keys], dst[keys])


def _range_layout(blocks: list, vdict: VertexDict, metas: list, width: int):
    """Canonical edge blocks → the dense-id edge Dataset: rows sorted by
    (s, d) and range-partitioned into up to ``width`` blocks, one per
    range, so a shard's slice is one (s, d) range (few distinct message
    keys per shard). The cut points are edges picked from the blocks'
    samples, and each block's sample is a pure function of its rows, so
    the layout is a pure function of the input blocks: float sums over
    a shard stay bit-identical across runs (a Dataset ``sort`` draws its
    cut points at random). Raw tasks throughout: one remap-and-split
    task per input block, one merge task per range. The dictionary
    blocks reach the remap tasks as top-level arguments, never as refs
    nested in another object: a nested ref outlived its graph whenever
    shard actors had held the graph's blocks (one n-vector per job left
    in the store, 137,048 B on the benchmark's lineitem graph)."""
    import ray
    import ray.data

    if not blocks:
        return ray.data.from_arrow(pa.table(
            {c: pa.array([], type=pa.int64()) for c in ("s", "d", "w")}))
    n = vdict.num_vertices
    src = np.concatenate([m[2] for m in metas])
    dst = np.concatenate([m[3] for m in metas])
    order = np.lexsort((dst, src))
    cut = order[cut_positions(order.size, width)]
    cuts = (src[cut], dst[cut])
    parts = cut.size + 1

    def key(t: pa.Table) -> np.ndarray:
        # (s, d) packed: < 2^62 within the 2^31-vertex envelope
        return t.column("s").to_numpy() * n + t.column("d").to_numpy()

    @ray.remote(num_returns=parts)
    def remap_split(block: pa.Table, cuts, mins, offsets, *dict_blocks):
        remap = _RemapSharded(DictReader((mins, offsets, None),
                                         list(dict_blocks)))
        t = remap(block)
        k = key(t)
        order = np.argsort(k)
        rows = np.column_stack([t.column(c).to_numpy()
                                for c in ("s", "d", "w")])[order]
        at = np.searchsorted(k[order], key(remap(pa.table(
            {"src": cuts[0], "dst": cuts[1]}))))
        pieces = np.split(rows, at)
        return tuple(pieces) if parts > 1 else pieces[0]

    @ray.remote
    def merge(*pieces):
        rows = np.concatenate(pieces)
        # each piece is sorted; a stable sort merges the runs
        rows = rows[np.argsort(rows[:, 0] * n + rows[:, 1], kind="stable")]
        return pa.table({c: rows[:, i] for i, c in enumerate("sdw")})

    split = [remap_split.remote(b, cuts, vdict.mins, vdict.offsets,
                                *vdict.block_refs) for b in blocks]
    if parts == 1:
        split = [[p] for p in split]
    return ray.data.from_arrow_refs(
        [merge.remote(*[p[i] for p in split]) for i in range(parts)])


def _degree_partial(batch: pa.Table) -> pa.Table:
    v = np.concatenate([batch.column("s").to_numpy(), batch.column("d").to_numpy()])
    uniq, cnt = np.unique(v, return_counts=True)
    return pa.table({"v": pa.array(uniq), "c": pa.array(cnt.astype(np.int64))})
