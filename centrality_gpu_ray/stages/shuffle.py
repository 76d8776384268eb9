"""Explicit two-stage hash-shuffle aggregation.

Why this exists: Ray Data's built-in ``groupby().aggregate()`` (sort
shuffle) iterates groups in Python — measured ~125 µs/row on a
1.8M-distinct-key dedup (226 s of CPU for 1.8M rows), and the 2.49
``HASH_SHUFFLE`` strategy spins up an aggregator-actor fleet that costs
more than the job at this scale. High-cardinality groupbys (edge dedup,
degree counts, LSH buckets) are the engine's bread and butter, so the
all-to-all is implemented explicitly with Arrow kernels — this is the
one place the engine drops to raw Ray tasks, exactly as the design
rules allow ("only where the Dataset API genuinely can't express the
semantics *efficiently*"):

* **map side** — one task per input block: vectorized partial
  aggregation (``pyarrow.Table.group_by``), then split into P shards by
  a deterministic numpy hash of the key columns (``num_returns=P``).
* **reduce side** — one task per shard: concat its column of shard
  tables, final ``group_by`` aggregate. Equal keys meet in exactly one
  reducer, so results are exact for any associative-commutative
  aggregate; int aggregates are bit-deterministic regardless of
  arrival order (floats are reduced in sorted-key order).

Partial aggregation on the map side bounds both shuffle volume and
reducer skew: a hot key contributes at most one row per input block.
``ray.data.from_arrow_refs`` lifts the result back into a Dataset, so
pipelines stay Dataset-shaped around this operator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _key_hash(tbl: pa.Table, keys: list[str]) -> np.ndarray:
    h = np.zeros(tbl.num_rows, dtype=np.uint64)
    for k in keys:
        c = tbl.column(k)
        if pa.types.is_integer(c.type) or pa.types.is_boolean(c.type):
            # keep the INT hashing path even when this block has nulls:
            # to_numpy on int64-with-null float-coerces the block, and
            # the same key value would then route to a different
            # partition than in null-free blocks (object-hash of 5.0 vs
            # raw 5), splitting one group across reduces. Nulls get a
            # fixed sentinel bucket of their own. fill_null only when
            # needed (it copies even null-free columns), and with a
            # type-matched fill (int 0 into a bool column raises).
            if c.null_count:
                import pyarrow.compute as pc

                fill = False if pa.types.is_boolean(c.type) else 0
                col = c.fill_null(fill).to_numpy(zero_copy_only=False) \
                    .astype(np.uint64)
                nulls = pc.is_null(c).to_numpy(zero_copy_only=False)
                col[nulls] = np.uint64(0x9E3779B97F4A7C15)
            else:
                col = c.to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            col = c.to_numpy(zero_copy_only=False)
            if col.dtype.kind not in "iu":
                import pandas as pd

                col = pd.util.hash_array(col.astype(object))
        h = (h ^ col.astype(np.uint64)) * _MIX
    return (h >> np.uint64(33)).astype(np.int64)


def _aggregate_table(tbl: pa.Table, keys: list[str], aggs: list[tuple[str, str]],
                     rename: list[str]) -> pa.Table:
    out = tbl.group_by(keys).aggregate(aggs)
    # Select by NAME, not position: pyarrow's group_by output ordering
    # (keys first vs last) has differed across versions; positional
    # rename would silently mislabel key/aggregate columns on upgrade.
    # Aggregate outputs are named "<col>_<fn>" ("count_all" for the
    # column-less count).
    produced = [f"{c}_{f}" if f != "count_all" else "count_all"
                for c, f in aggs]
    cols = [out.column(k) for k in keys] + [out.column(p) for p in produced]
    return pa.table(dict(zip(rename, cols)))


def hash_aggregate(ds, keys: list[str], aggs: list[tuple[str, str]],
                   num_partitions: int = 32):
    """Grouped aggregation via explicit hash shuffle.

    ``aggs``: list of ``(column, fn)`` with fn ∈ pyarrow group_by fns
    ("sum", "min", "max", "count", "count_all"...). Output columns keep
    the *input* column names (plus keys first).
    """
    import ray
    import ray.data

    rename = list(keys) + ["count" if f in ("count", "count_all") else c
                           for c, f in aggs]
    # count_all takes no column: pass ([], "count_all")
    aggs_pa = [(c, f) if f != "count_all" else ([], "count_all") for c, f in aggs]
    # reduce-side: counts merge by SUM (count of counts would be wrong)
    aggs_reduce = [(("count", "sum") if f in ("count", "count_all") else (c, f))
                   for c, f in aggs]

    @ray.remote(num_returns=num_partitions)
    def map_split(block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        part = _aggregate_table(tbl, keys, aggs_pa, rename)
        h = _key_hash(part, keys) % num_partitions
        order = np.argsort(h, kind="stable")
        sorted_tbl = part.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(num_partitions + 1))
        shards = [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                  for i in range(num_partitions)]
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote
    def reduce_part(*shards):
        tables = [s for s in shards if s.num_rows]
        if not tables:
            return shards[0].slice(0, 0)
        merged = pa.concat_tables(tables)
        # float determinism: reduce in sorted-key order
        sort_keys = [(k, "ascending") for k in keys]
        merged = merged.sort_by(sort_keys)
        return _aggregate_table(merged, keys, aggs_reduce, rename)

    mat = ds.materialize()
    block_refs = _nonempty_block_refs(mat)
    if not block_refs:
        return mat
    shard_lists = [map_split.remote(b) for b in block_refs]
    if num_partitions == 1:
        reduced = [reduce_part.remote(*shard_lists)]
    else:
        reduced = [reduce_part.remote(*[s[p] for s in shard_lists])
                   for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def _nonempty_block_refs(mat):
    """Skip zero-row blocks: Ray can pass empty blocks through
    map_batches without invoking the UDF, leaving them with a stale
    pre-UDF schema that would break the keyed aggregate."""
    refs = []
    for bundle in mat.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(block_ref)
    return refs


def cluster_width() -> int:
    """Fan-out of the graph build's exchanges and size of a shard pool:
    the cluster's CPUs, at most 16. A hash shuffle's fixed cost grows
    with its partition count while its data needs no more partitions
    than there are CPUs to reduce them (dedup of 127k lineitem edges on
    a 1-vCPU host, 2-CPU Ray: 0.16–0.20 s at 2 partitions, 0.25 s at
    32). The cap is the shard pool's (``pipelines/shards.py``)."""
    import ray

    return max(1, min(int(ray.cluster_resources().get("CPU", 8)), 16))


def cut_positions(size: int, k: int) -> np.ndarray:
    """Positions in ``size`` sorted samples of the cut points that split
    them into ``k`` even runs: distinct, ascending, never 0 — fewer than
    ``k - 1`` when there are fewer samples than runs."""
    pos = np.unique(np.arange(1, k, dtype=np.int64) * size // k)
    return pos[pos > 0]


def even_sample(size: int, m: int) -> np.ndarray:
    """``min(size, m)`` distinct, evenly spaced positions in ``size``
    sorted rows: a sample that is a pure function of the rows."""
    if size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.linspace(0, size - 1, m).astype(np.int64))


def hash_partition_apply(ds, keys: list[str], reduce_fn,
                         num_partitions: int = 32):
    """Hash-partition rows by ``keys`` and apply ``reduce_fn(table)`` to
    each partition (all rows of equal keys meet in exactly one call).
    The general-purpose exchange for group-local algorithms that need
    the raw rows (e.g. within-bucket pair generation) — unlike
    ``hash_aggregate`` there is no map-side combine, so only use it when
    the reduce genuinely needs every row."""
    import ray
    import ray.data

    @ray.remote(num_returns=num_partitions)
    def map_split(block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        h = _key_hash(tbl, keys) % num_partitions
        order = np.argsort(h, kind="stable")
        sorted_tbl = tbl.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(num_partitions + 1))
        shards = [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                  for i in range(num_partitions)]
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote
    def reduce_part(*shards):
        tables = [s for s in shards if s.num_rows]
        if not tables:
            return reduce_fn(shards[0].slice(0, 0))
        return reduce_fn(pa.concat_tables(tables))

    mat = ds.materialize()
    block_refs = _nonempty_block_refs(mat)
    if not block_refs:
        return mat
    shard_lists = [map_split.remote(b) for b in block_refs]
    if num_partitions == 1:
        reduced = [reduce_part.remote(*shard_lists)]
    else:
        reduced = [reduce_part.remote(*[s[p] for s in shard_lists])
                   for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def hash_mark_min(ds, key: str, order: str, num_partitions: int = 32,
                  winners_only: bool = False, carry_key: bool = False):
    """Per-key winner marking: returns ``(order, keep)`` rows for EVERY
    input row (or just the winners' ``order`` values with
    ``winners_only=True``), keep=True iff the row has the minimum
    ``order`` value of its ``key`` group. One hash shuffle of the
    (key, order) pair — neither the key population nor the winner set
    ever lands on the driver (the scale-safe replacement for
    collect-unique+broadcast). Winner selection happens INSIDE the
    reduce so every output block has one stable schema (Ray passes
    empty blocks through map_batches without the UDF).
    ``carry_key=True`` (winners_only path only) appends the winners'
    ``key`` values as a third int64 column — lets a caller persist the
    (key, winner) pairs without recomputing expensive keys."""

    def mark(tbl: pa.Table) -> pa.Table:
        # "keep" is also carried on the winners_only path: a join right
        # side with ONLY the key column trips a pyarrow acero bug, and
        # doing it here keeps empty blocks schema-stable (Ray skips the
        # UDF on empty blocks in map_batches).
        if tbl.num_rows == 0:
            cols = {order: pa.array([], type=pa.int64()),
                    "keep": pa.array([], type=pa.bool_())}
            if winners_only and carry_key:
                cols[key] = pa.array([], type=pa.int64())
            return pa.table(cols)
        k = tbl.column(key).to_numpy(zero_copy_only=False)
        o = tbl.column(order).to_numpy(zero_copy_only=False)
        perm = np.lexsort((o, k))
        first = np.ones(perm.size, dtype=bool)
        first[1:] = k[perm][1:] != k[perm][:-1]
        if winners_only:
            w = o[perm][first]
            cols = {order: pa.array(w.astype(np.int64)),
                    "keep": pa.array(np.ones(w.size, dtype=bool))}
            if carry_key:
                cols[key] = pa.array(k[perm][first].astype(np.int64))
            return pa.table(cols)
        keep = np.empty(perm.size, dtype=bool)
        keep[perm] = first
        return pa.table({order: pa.array(o.astype(np.int64)),
                         "keep": pa.array(keep)})

    return hash_partition_apply(ds, [key], mark, num_partitions=num_partitions)


def hash_semi_join(rows_ds, keys_ds, on: str, num_partitions: int = 32,
                   anti: bool = False):
    """Keep the rows of ``rows_ds`` whose ``on`` value appears in
    ``keys_ds`` (which must have an ``on`` column) — or does NOT, with
    ``anti=True`` (SQL's NOT EXISTS / anti-join). Both sides are
    hash-partitioned on ``on``; each reduce filters its row shard by
    sorted-membership against its key shard. Exactly the data movement
    of a distributed semi-join, with the row schema (column order
    included) preserved verbatim."""
    import ray
    import ray.data

    def split(tbl: pa.Table):
        h = _key_hash(tbl, [on]) % num_partitions
        order = np.argsort(h, kind="stable")
        sorted_tbl = tbl.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(num_partitions + 1))
        return [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                for i in range(num_partitions)]

    @ray.remote(num_returns=num_partitions)
    def map_split(block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        shards = split(tbl)
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote
    def reduce_part(n_rows_shards: int, *shards):
        row_tabs = [s for s in shards[:n_rows_shards] if s.num_rows]
        key_tabs = [s for s in shards[n_rows_shards:] if s.num_rows]
        if not row_tabs:
            return shards[0].slice(0, 0)
        rows = pa.concat_tables(row_tabs)
        if not key_tabs:
            return rows if anti else rows.slice(0, 0)
        keys = np.unique(np.concatenate(
            [t.column(on).to_numpy(zero_copy_only=False) for t in key_tabs]))
        vals = rows.column(on).to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(keys, vals), keys.size - 1)
        member = keys[idx] == vals
        return rows.filter(pa.array(~member if anti else member))

    rows_mat = rows_ds.materialize()
    row_blocks = _nonempty_block_refs(rows_mat)
    if not row_blocks:
        return rows_mat
    key_blocks = _nonempty_block_refs(keys_ds.materialize())
    row_shards = [map_split.remote(b) for b in row_blocks]
    key_shards = [map_split.remote(b) for b in key_blocks]

    def shard(lists, p):
        return [(s[p] if num_partitions > 1 else s) for s in lists]

    reduced = [reduce_part.remote(len(row_shards),
                                  *shard(row_shards, p), *shard(key_shards, p))
               for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def hash_anti_join(rows_ds, keys_ds, on: str, num_partitions: int = 32):
    """Rows of ``rows_ds`` whose ``on`` value does NOT appear in
    ``keys_ds`` (SQL NOT EXISTS) — e.g. subtracting a denylist or an
    already-processed id set. Same exchange as ``hash_semi_join``."""
    return hash_semi_join(rows_ds, keys_ds, on,
                          num_partitions=num_partitions, anti=True)


def hash_lookup_join(rows_ds, dict_ds, row_key: str, dict_key: str,
                     attach: dict, num_partitions: int = 32,
                     outer_default_row_key: bool = False,
                     outer_fill: dict | None = None):
    """Lookup join: for every row of ``rows_ds``, attach columns from
    the (unique-keyed) ``dict_ds`` row whose ``dict_key`` equals the
    row's ``row_key``. ``attach`` maps dict column → output column
    name. Rows without a match are dropped (inner) — or, with
    ``outer_default_row_key=True``, kept with every attached column
    defaulting to the row's own key value (left-outer-with-default; the
    attached columns must be key-typed) — or, with ``outer_fill``
    (output column → scalar), kept with the given fill values.
    Both sides hash-partition on
    their key — the dictionary (e.g. document texts) is co-partitioned,
    never broadcast or collected. Row column order is preserved, with
    attached columns appended."""
    import ray
    import ray.data

    def _split(tbl: pa.Table, key: str):
        h = _key_hash(tbl, [key]) % num_partitions
        order = np.argsort(h, kind="stable")
        sorted_tbl = tbl.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(num_partitions + 1))
        return [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                for i in range(num_partitions)]

    @ray.remote(num_returns=num_partitions)
    def map_rows(block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        shards = _split(tbl, row_key)
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote(num_returns=num_partitions)
    def map_dict(block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        shards = _split(tbl.select([dict_key] + list(attach)), dict_key)
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote
    def reduce_part(n_rows_shards: int, *shards):
        row_tabs = [s for s in shards[:n_rows_shards] if s.num_rows]
        dict_tabs = [s for s in shards[n_rows_shards:] if s.num_rows]

        def typed_empty() -> pa.Table:
            empty = shards[0].slice(0, 0)
            proto = shards[n_rows_shards].slice(0, 0)
            cols = {c: empty.column(c) for c in empty.column_names}
            for src, dst in attach.items():
                cols[dst] = proto.column(src)
            return pa.table(cols)

        outer = outer_default_row_key or outer_fill is not None
        if not row_tabs:
            return typed_empty()
        if not dict_tabs:
            if not outer:
                return typed_empty()
            rows = pa.concat_tables(row_tabs)
            own = rows.column(row_key).to_numpy(zero_copy_only=False)
            proto = shards[n_rows_shards]
            cols = {c: rows.column(c) for c in rows.column_names}
            for src, dst in attach.items():
                if outer_default_row_key:
                    cols[dst] = pa.array(own)
                else:
                    # pin the fill to the dict column's Arrow type so
                    # no-match partitions can't diverge in schema from
                    # matched ones (e.g. int fill vs float64 dict)
                    cols[dst] = pa.array(
                        np.full(own.size, outer_fill[dst]),
                        type=proto.schema.field(src).type)
            return pa.table(cols)
        rows = pa.concat_tables(row_tabs)
        d = pa.concat_tables(dict_tabs)
        keys = d.column(dict_key).to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        keys_s = keys[order]
        vals = rows.column(row_key).to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(keys_s, vals), keys_s.size - 1)
        hit = keys_s[idx] == vals
        if not outer:
            rows = rows.filter(pa.array(hit))
            take = pa.array(order[idx[hit]])
            cols = {c: rows.column(c) for c in rows.column_names}
            for src, dst in attach.items():
                cols[dst] = d.column(src).take(take)
            return pa.table(cols)
        cols = {c: rows.column(c) for c in rows.column_names}
        own = rows.column(row_key).to_numpy(zero_copy_only=False)
        take = order[idx]
        for src, dst in attach.items():
            looked = d.column(src).to_numpy(zero_copy_only=False)[take]
            fillv = (own if outer_default_row_key
                     else np.full(own.size, outer_fill[dst],
                                  dtype=looked.dtype))
            cols[dst] = pa.array(np.where(hit, looked, fillv))
        return pa.table(cols)

    rows_mat = rows_ds.materialize()
    row_blocks = _nonempty_block_refs(rows_mat)
    dict_mat = dict_ds.materialize()
    dict_blocks = _nonempty_block_refs(dict_mat)
    if not row_blocks:
        return rows_mat.limit(0)
    if not dict_blocks:
        # empty dictionary: inner join drops everything, but the outer
        # variants must keep every row with its default/fill values
        # (regression: k-truss round with zero surviving triangles)
        if not (outer_default_row_key or outer_fill is not None):
            return rows_mat.limit(0)
        # pin fill dtypes to the dict schema when it is known (a
        # zero-block Dataset may still carry one); otherwise fall back
        # to numpy inference — all current callers fill int64
        try:
            dict_schema = dict_mat.schema(fetch_if_missing=True)
            dict_schema = getattr(dict_schema, "base_schema", dict_schema)
        except Exception:
            dict_schema = None

        @ray.remote
        def fill_block(block, _schema=dict_schema):
            tbl = (block if isinstance(block, pa.Table)
                   else pa.Table.from_pandas(block))
            own = tbl.column(row_key).to_numpy(zero_copy_only=False)
            cols = {c: tbl.column(c) for c in tbl.column_names}
            for src, dst in attach.items():
                if outer_default_row_key:
                    cols[dst] = pa.array(own)
                    continue
                fillv = np.full(own.size, outer_fill[dst])
                typ = None
                if _schema is not None and src in getattr(_schema, "names", []):
                    typ = _schema.field(src).type
                cols[dst] = pa.array(fillv, type=typ)
            return pa.table(cols)

        return ray.data.from_arrow_refs(
            [fill_block.remote(b) for b in row_blocks])
    row_shards = [map_rows.remote(b) for b in row_blocks]
    dict_shards = [map_dict.remote(b) for b in dict_blocks]

    def shard(lists, p):
        return [(s[p] if num_partitions > 1 else s) for s in lists]

    reduced = [reduce_part.remote(len(row_shards),
                                  *shard(row_shards, p),
                                  *shard(dict_shards, p))
               for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def hash_distinct(ds, keys: list[str], num_partitions: int = 32):
    """DISTINCT over key columns via the same shuffle."""
    import ray
    import ray.data

    @ray.remote(num_returns=num_partitions)
    def map_split(block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        part = tbl.select(keys).group_by(keys).aggregate([])
        h = _key_hash(part, keys) % num_partitions
        order = np.argsort(h, kind="stable")
        sorted_tbl = part.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(num_partitions + 1))
        shards = [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                  for i in range(num_partitions)]
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote
    def reduce_part(*shards):
        tables = [s for s in shards if s.num_rows]
        if not tables:
            return shards[0].slice(0, 0)
        merged = pa.concat_tables(tables)
        return merged.group_by(keys).aggregate([])

    mat = ds.materialize()
    block_refs = _nonempty_block_refs(mat)
    if not block_refs:
        return mat
    shard_lists = [map_split.remote(b) for b in block_refs]
    if num_partitions == 1:
        reduced = [reduce_part.remote(*shard_lists)]
    else:
        reduced = [reduce_part.remote(*[s[p] for s in shard_lists])
                   for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def hash_copartition_apply(left_ds, right_ds, left_keys: list[str],
                           right_keys: list[str], reduce_fn,
                           num_partitions: int = 32):
    """Co-partition two Datasets by value-equal keys and apply
    ``reduce_fn(left_tbl, right_tbl)`` once per partition.

    The exchange behind key-local binary operators (as-of join, range
    join, per-key zip): both sides are hash-split on their own key
    columns with the same value-based hash, so rows with equal key
    VALUES meet in exactly one reducer regardless of column names.
    ``reduce_fn`` must return a ``pyarrow.Table`` with one fixed schema
    (it is also called on (empty, empty) partitions, so make the empty
    result typed)."""
    import ray
    import ray.data

    def _split(tbl: pa.Table, keys: list[str]):
        h = _key_hash(tbl, keys) % num_partitions
        order = np.argsort(h, kind="stable")
        sorted_tbl = tbl.take(pa.array(order))
        bounds = np.searchsorted(h[order], np.arange(num_partitions + 1))
        return [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
                for i in range(num_partitions)]

    @ray.remote(num_returns=num_partitions)
    def map_split(keys, block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        shards = _split(tbl, keys)
        return tuple(shards) if num_partitions > 1 else shards[0]

    @ray.remote
    def reduce_part(n_left: int, *shards):
        lt = [s for s in shards[:n_left] if s.num_rows]
        rt = [s for s in shards[n_left:] if s.num_rows]
        left = pa.concat_tables(lt) if lt else shards[0].slice(0, 0)
        right = (pa.concat_tables(rt) if rt
                 else shards[n_left].slice(0, 0))
        return reduce_fn(left, right)

    left_blocks = _nonempty_block_refs(left_ds.materialize())
    right_blocks = _nonempty_block_refs(right_ds.materialize())
    if not left_blocks or not right_blocks:
        # a fully-empty side still needs a schema carrier in the reducer:
        # fall back to one local call on empty typed tables
        l_empty = (ray.get(left_blocks[0]).slice(0, 0) if left_blocks
                   else pa.table({k: pa.array([], type=pa.int64())
                                  for k in left_keys}))
        r_empty = (ray.get(right_blocks[0]).slice(0, 0) if right_blocks
                   else pa.table({k: pa.array([], type=pa.int64())
                                  for k in right_keys}))
        return ray.data.from_arrow(reduce_fn(l_empty, r_empty))

    left_shards = [map_split.remote(left_keys, b) for b in left_blocks]
    right_shards = [map_split.remote(right_keys, b) for b in right_blocks]

    def shard(lists, p):
        return [(s[p] if num_partitions > 1 else s) for s in lists]

    reduced = [reduce_part.remote(len(left_shards),
                                  *shard(left_shards, p),
                                  *shard(right_shards, p))
               for p in range(num_partitions)]
    return ray.data.from_arrow_refs(reduced)


def hash_equi_join(left_ds, right_ds, on: str, right_on: str | None = None,
                   num_partitions: int = 32, suffix: str = "_r"):
    """General N:M inner equi-join (duplicate keys allowed on BOTH
    sides) — the one join shape ``hash_lookup_join`` (unique dict) and
    ``hash_semi_join`` (existence only) don't cover.

    Co-partitions both sides on the key hash
    (:func:`hash_copartition_apply`), then per partition sorts the
    right side once and expands matches with two ``searchsorted``
    bounds + a ragged arange — fully vectorized, output rows =
    Σ|matches|, never an all-pairs. Right columns that collide with
    left names get ``suffix``. Use the native ``Dataset.join`` never
    (deadlocks at small CPU counts on this substrate — see dev notes);
    use this for N:M, ``hash_lookup_join`` when the right side is
    unique-keyed (cheaper: no expansion)."""
    from centrality_gpu_ray.nputil import ragged_arange

    r_key = right_on or on

    def reduce_fn(l: pa.Table, r: pa.Table) -> pa.Table:
        out_names = list(l.column_names) + [
            (c if c not in l.column_names else c + suffix)
            for c in r.column_names if c != r_key]
        if l.num_rows == 0 or r.num_rows == 0:
            cols = {}
            for c in l.column_names:
                cols[c] = pa.array([], type=l.schema.field(c).type)
            for c in r.column_names:
                if c == r_key:
                    continue
                name = c if c not in l.column_names else c + suffix
                cols[name] = pa.array([], type=r.schema.field(c).type)
            return pa.table(cols)
        rk = r.column(r_key).to_numpy(zero_copy_only=False)
        order = np.argsort(rk, kind="stable")
        rks = rk[order]
        lk = l.column(on).to_numpy(zero_copy_only=False)
        lo = np.searchsorted(rks, lk, "left")
        hi = np.searchsorted(rks, lk, "right")
        cnt = hi - lo
        li = np.repeat(np.arange(lk.size, dtype=np.int64), cnt)
        ri = order[np.repeat(lo, cnt) + ragged_arange(cnt)]
        li_a, ri_a = pa.array(li), pa.array(ri)
        cols = {c: l.column(c).take(li_a) for c in l.column_names}
        for c in r.column_names:
            if c == r_key:
                continue
            name = c if c not in l.column_names else c + suffix
            cols[name] = r.column(c).take(ri_a)
        assert list(cols) == out_names
        return pa.table(cols)

    return hash_copartition_apply(left_ds, right_ds, [on], [r_key],
                                  reduce_fn, num_partitions=num_partitions)


def hash_group_topk(ds, keys: list[str], order: str, k: int,
                    descending: bool = True,
                    tiebreak: list[str] | None = None,
                    num_partitions: int = 32):
    """Per-key top-k rows by a numeric ``order`` column — SQL's
    ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order) <= k``
    without a global sort: one hash exchange on ``keys``, then a
    vectorized per-partition lexsort + grouped-rank filter (rank =
    position − group start, groups detected by key-change on the
    sorted rows — no hash-collision risk). ``tiebreak`` columns
    (ascending) make the result deterministic when ``order`` ties;
    rows keep their full schema.
    """
    tiebreak = tiebreak or []

    def reduce_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        keyarrs = [tbl.column(c).to_numpy(zero_copy_only=False)
                   for c in keys]
        ordv = np.asarray(
            tbl.column(order).to_numpy(zero_copy_only=False),
            dtype=np.float64)
        sort_cols = []  # np.lexsort: LAST key is primary
        for c in reversed(tiebreak):
            sort_cols.append(tbl.column(c).to_numpy(zero_copy_only=False))
        sort_cols.append(-ordv if descending else ordv)
        sort_cols.extend(reversed(keyarrs))
        perm = np.lexsort(tuple(sort_cols))
        n = tbl.num_rows
        new_grp = np.zeros(n, dtype=bool)
        new_grp[0] = True
        for a in keyarrs:
            s = a[perm]
            new_grp[1:] |= s[1:] != s[:-1]
        idx = np.arange(n)
        grp_start = np.maximum.accumulate(np.where(new_grp, idx, 0))
        keep = (idx - grp_start) < k
        return tbl.take(pa.array(perm[keep]))

    return hash_partition_apply(ds, keys, reduce_fn,
                                num_partitions=num_partitions)


def hash_group_quantiles(ds, keys: list[str], value: str,
                         qs=(0.25, 0.5, 0.75),
                         num_partitions: int = 32):
    """Per-key exact quantiles of a numeric column — one hash exchange
    on ``keys``, then a vectorized per-partition sort + rank-rule pick
    (the q-quantile is the smallest value whose within-group cumulative
    count >= max(1, ceil(q·n)); identical to the histogram sketch's
    rule and the SQL window oracle). Output: one row per key with a
    ``q25``-style column per requested quantile."""
    qcols = [f"q{int(q * 100):02d}" for q in qs]

    def reduce_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            cols = {c: pa.array([], type=tbl.schema.field(c).type)
                    for c in keys}
            cols.update({qc: pa.array([], type=pa.float64())
                         for qc in qcols})
            return pa.table(cols)
        keyarrs = [tbl.column(c).to_numpy(zero_copy_only=False)
                   for c in keys]
        v = np.asarray(tbl.column(value).to_numpy(zero_copy_only=False),
                       dtype=np.float64)
        perm = np.lexsort((v, *reversed(keyarrs)))
        v_s = v[perm]
        n = v_s.size
        new_grp = np.zeros(n, dtype=bool)
        new_grp[0] = True
        for a in keyarrs:
            s = a[perm]
            new_grp[1:] |= s[1:] != s[:-1]
        starts = np.flatnonzero(new_grp)
        ends = np.append(starts[1:], n)
        cols = {c: pa.array(a[perm][starts]) for c, a in zip(keys, keyarrs)}
        sizes = ends - starts
        for q, qc in zip(qs, qcols):
            ranks = np.maximum(1, np.ceil(q * sizes).astype(np.int64))
            cols[qc] = pa.array(v_s[starts + ranks - 1])
        return pa.table(cols)

    return hash_partition_apply(ds.select_columns(keys + [value]),
                                keys, reduce_fn,
                                num_partitions=num_partitions)
