"""Edge-table derivation and normalization.

Replaces the reference's text edge-list ingest + adjacency build
(``graph.cpp:38-72``) and its doubled-edge symmetrization
(``to_eargraph_construct.cpp:81-96``) with vectorized Arrow transforms:

* :func:`derive_corpus_edges` — corpus rows ``(repo, path, commit)`` →
  co-occurrence edges between entity nodes (repo, path-dir, commit),
  the engine's primary input per ``BASELINE.json`` ``north_star``.
* :func:`canonicalize` / :func:`dedup_edges` — exact edge dedup via
  canonical ``(min(u,v), max(u,v))`` key (the reference packs the same
  key into a u64 set, ``bcc_bfs.cpp:29-30, 657-659``); weights of
  duplicate co-occurrences are summed. The shuffle pre-aggregates per
  block (pyarrow ``Table.group_by``) before the global one, so it moves
  at most one row per distinct edge per block.
* :func:`symmetrize` — one zero-copy Arrow concat per batch emitting
  both directions (M1, ``graph.cpp:50-59``); self-loops dropped (M2,
  the ``assert(srcs!=dsts)`` at ``to_eargraph_construct.cpp:87``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from centrality_gpu_ray.stages.ids import hash_ids_array

EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64()), ("weight", pa.int64())])


def _canonical_batch(batch: pa.Table) -> pa.Table:
    lo = pc.min_element_wise(batch["src"], batch["dst"])
    hi = pc.max_element_wise(batch["src"], batch["dst"])
    cols = {"src": lo, "dst": hi}
    if "weight" in batch.column_names:
        cols["weight"] = batch["weight"]
    return pa.table(cols)


def _canonical_weighted(batch: pa.Table) -> pa.Table:
    """Self-loops dropped, ``src < dst``, weight 1 where none is given."""
    batch = batch.filter(pc.not_equal(batch["src"], batch["dst"]))
    out = _canonical_batch(batch)
    if "weight" not in out.column_names:
        out = out.append_column(
            "weight", pa.array(np.ones(len(out), dtype=np.int64)))
    return out


def canonicalize(ds):
    """Orient every edge so ``src < dst`` (canonical undirected key)."""
    return ds.map_batches(_canonical_batch, batch_format="pyarrow")


def dedup_edges(ds, sum_weights: bool = True):
    """Exact dedup on the canonical key; duplicate weights summed.

    One map pass (drop self-loops, orient ``src < dst``, weight 1 where
    none is given), then one explicit two-stage hash shuffle keyed on
    (src, dst) (``stages/shuffle.py::hash_aggregate``), as wide as the
    cluster (``cluster_width``). Its map side sums weights per block,
    so the shuffle moves at most one row per distinct edge per block,
    which also bounds hub-key skew at the reducer.

    With ``sum_weights`` (the default) the output is materialized, one
    block per partition, and each block's rows are a pure function of
    the edge set and the width:
    ``src < dst``, no self-loops, no duplicates, an int64 ``weight`` —
    what ``Graph`` consumes without a further pass.
    """
    from centrality_gpu_ray.stages.shuffle import cluster_width, hash_aggregate

    pre = ds.map_batches(_canonical_weighted, batch_format="pyarrow")
    out = hash_aggregate(pre, ["src", "dst"], [("weight", "sum")],
                         num_partitions=cluster_width())
    if not sum_weights:
        out = out.map_batches(
            lambda t: t.set_column(t.schema.get_field_index("weight"),
                                   "weight", pa.array(np.ones(len(t), dtype=np.int64))),
            batch_format="pyarrow",
        )
    return out


def _symmetrize_batch(batch: pa.Table) -> pa.Table:
    w = batch["weight"] if "weight" in batch.column_names else pa.array(
        np.ones(len(batch), dtype=np.int64))
    fwd = pa.table({"src": batch["src"], "dst": batch["dst"], "weight": w})
    rev = pa.table({"src": batch["dst"], "dst": batch["src"], "weight": w})
    return pa.concat_tables([fwd, rev])


def symmetrize(ds):
    """Materialize both directions of each undirected edge (M1)."""
    return ds.map_batches(_symmetrize_batch, batch_format="pyarrow")


def normalize_edges(ds, directed: bool = False):
    """Raw (possibly duplicated, possibly self-looped) edge rows →
    clean symmetric edge table: drop self-loops, canonicalize, dedup,
    symmetrize. The standard preamble for every graph pipeline."""
    out = dedup_edges(ds)
    if not directed:
        out = symmetrize(out)
    return out


# ---------------------------------------------------------------------------
# Corpus → co-occurrence edges
# ---------------------------------------------------------------------------

def _dir_prefix(paths: pa.ChunkedArray | pa.Array, depth: int) -> pa.Array:
    """Top-`depth` directory prefix of each path (vectorized)."""
    parts = pc.split_pattern(paths, "/")
    trimmed = pc.list_slice(parts, 0, depth)
    # binary_join_element_wise joins a list array with a separator
    return pc.binary_join(trimmed, "/")


def _derive_entities(batch: pa.Table, dir_depth: int) -> dict[str, np.ndarray]:
    repo_keys = pc.binary_join_element_wise(
        pa.array(["repo"] * len(batch)), batch.column("repo").combine_chunks(), ":")
    dir_keys = pc.binary_join_element_wise(
        pa.array(["dir"] * len(batch)),
        _dir_prefix(batch.column("path").combine_chunks(), dir_depth), ":")
    commit_keys = pc.binary_join_element_wise(
        pa.array(["commit"] * len(batch)), batch.column("commit").combine_chunks(), ":")
    return {"repo": repo_keys, "dir": dir_keys, "commit": commit_keys}


def _edges_from_corpus_batch(batch: pa.Table, dir_depth: int = 2) -> pa.Table:
    """Each corpus row (repo, path, commit) emits 3 co-occurrence edges
    repo—dir, repo—commit, dir—commit (ids = deterministic 63-bit key
    hashes, see ``stages/ids.py``), weight 1 each; weights accumulate to
    co-occurrence counts in :func:`dedup_edges`."""
    ent = _derive_entities(batch, dir_depth)
    ids = {k: hash_ids_array(v) for k, v in ent.items()}
    n = len(batch)
    src = np.concatenate([ids["repo"], ids["repo"], ids["dir"]])
    dst = np.concatenate([ids["dir"], ids["commit"], ids["commit"]])
    return pa.table({
        "src": pa.array(src, type=pa.int64()),
        "dst": pa.array(dst, type=pa.int64()),
        "weight": pa.array(np.ones(3 * n, dtype=np.int64)),
    })


def _nodes_from_corpus_batch(batch: pa.Table, dir_depth: int = 2) -> pa.Table:
    ent = _derive_entities(batch, dir_depth)
    tables = []
    for kind, keys in ent.items():
        ids = hash_ids_array(keys)
        tables.append(pa.table({
            "id": pa.array(ids, type=pa.int64()),
            "kind": pa.array([kind] * len(batch), type=pa.string()),
            "key": keys,
        }))
    merged = pa.concat_tables(tables)
    # per-batch dedup; global dedup happens in derive_corpus_nodes
    return merged.group_by(["id", "kind", "key"]).aggregate([]).select(["id", "kind", "key"])


def derive_corpus_edges(corpus_ds, dir_depth: int = 2, directed: bool = False):
    """Corpus Dataset → clean symmetric co-occurrence edge Dataset.

    The output holds both directions of every edge. Pass it to ``Graph``
    with ``normalized=True``: without it, ``Graph`` dedups it again (a
    second shuffle over 2m rows) and the two directions of each edge
    fold into one row with the weight counted twice."""
    raw = corpus_ds.select_columns(["repo", "path", "commit"]).map_batches(
        lambda t: _edges_from_corpus_batch(t, dir_depth), batch_format="pyarrow")
    return normalize_edges(raw, directed=directed)


def derive_corpus_nodes(corpus_ds, dir_depth: int = 2):
    """Corpus Dataset → distinct node table (id, kind, key)."""
    raw = corpus_ds.select_columns(["repo", "path", "commit"]).map_batches(
        lambda t: _nodes_from_corpus_batch(t, dir_depth), batch_format="pyarrow")
    out = raw.groupby(["id", "kind", "key"]).count()
    return out.select_columns(["id", "kind", "key"])
