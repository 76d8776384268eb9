"""Sequence packing — lay documents out into fixed-length context
windows (the GPT-style "concatenate the token stream and chunk every
``context_len`` tokens" pretraining layout).

Given the ``documents`` table, assign every document its half-open
token span ``[start_token, start_token + n_tokens)`` in the global
token stream ordered by ``doc_id``, and derive which context chunks
(``floor(offset / context_len)``) the document lands in. Downstream a
trainer reads chunk ``c`` by selecting ``first_chunk <= c <=
last_chunk`` — no document is dropped, no chunk exceeds capacity by
construction.

Scale shape: token counting is an embarrassingly-parallel
``map_batches`` (the same whitespace rule as
:func:`centrality_gpu_ray.functions.text.token_stats`, so the count is
value-checked against the DuckDB oracle); the global offset is a
classic distributed exclusive scan — per-block token sums (one tiny
remote per block, O(P) scalars to the driver), a driver-side cumsum
over P numbers, then per-block span assignment in parallel. No
shuffle beyond the ``sort("doc_id")`` that fixes the stream order, and
the driver never sees a row. The reference engine has no notion of
documents or packing (SURVEY.md §2.7 — no string functions at all);
this is pure new-engine training-data surface.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _token_counts(ds):
    """doc_id → whitespace token count, bit-identical to
    ``text.token_stats``'s ``n_tokens`` (and therefore to the DuckDB
    ``regexp_split_to_array(TRIM(text), '\\s+')`` oracle)."""
    from centrality_gpu_ray.functions.text import token_stats

    return token_stats(ds).select_columns(["doc_id", "n_tokens"])


def pack_sequences(ds, context_len: int = 2048):
    """Assign each document its span in the concat-and-chunk layout.

    Args:
        ds: Dataset with ``doc_id`` (int64) and ``text`` columns.
        context_len: tokens per training context window.

    Returns:
        Dataset with columns ``doc_id, n_tokens, start_token,
        first_chunk, last_chunk, n_chunks`` — one row per document
        with at least one token, ordered stream by ascending doc_id.
    """
    import ray
    import ray.data

    if context_len <= 0:
        raise ValueError(f"context_len must be positive, got {context_len}")

    import pyarrow.compute as pc

    counts = _token_counts(ds).map_batches(
        lambda t: t.filter(pc.greater(t.column("n_tokens"), 0)),
        batch_format="pyarrow").sort("doc_id").materialize()

    @ray.remote
    def _block_meta(block: pa.Table):
        n = block.column("n_tokens").to_numpy()
        first = int(block.column("doc_id")[0].as_py()) if block.num_rows else None
        return int(n.sum()), first

    blocks = []
    for bundle in counts.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            if meta.num_rows is None or meta.num_rows > 0:
                blocks.append(block_ref)
    metas = ray.get([_block_meta.remote(b) for b in blocks])
    keep = [(b, m) for b, m in zip(blocks, metas) if m[1] is not None]
    if not keep:
        schema = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                            ("start_token", pa.int64()),
                            ("first_chunk", pa.int64()),
                            ("last_chunk", pa.int64()),
                            ("n_chunks", pa.int64())])
        return ray.data.from_arrow(schema.empty_table())

    # Internal-API invariant, asserted loudly: sort("doc_id") blocks
    # arrive in global order.
    firsts = np.array([m[1] for _, m in keep], dtype=np.int64)
    if not np.all(np.diff(firsts) > 0):
        raise AssertionError(
            "pack_sequences: sorted blocks arrived out of global order "
            f"(block first doc_ids = {firsts.tolist()[:20]}...)")

    sums = np.array([m[0] for _, m in keep], dtype=np.int64)
    offsets = np.zeros(len(keep), dtype=np.int64)
    np.cumsum(sums[:-1], out=offsets[1:])  # exclusive scan, O(P)

    C = int(context_len)

    @ray.remote
    def _assign(block: pa.Table, base: int) -> pa.Table:
        n = block.column("n_tokens").to_numpy().astype(np.int64)
        start = np.zeros(n.size, dtype=np.int64)
        np.cumsum(n[:-1], out=start[1:])
        start += base
        first = start // C
        last = (start + n - 1) // C
        return pa.table({
            "doc_id": block.column("doc_id"),
            "n_tokens": pa.array(n, type=pa.int64()),
            "start_token": pa.array(start, type=pa.int64()),
            "first_chunk": pa.array(first, type=pa.int64()),
            "last_chunk": pa.array(last, type=pa.int64()),
            "n_chunks": pa.array(last - first + 1, type=pa.int64()),
        })

    out = [_assign.remote(b, int(off))
           for (b, _), off in zip(keep, offsets)]
    return ray.data.from_arrow_refs(out)


def chunk_fill_stats(packed, context_len: int = 2048):
    """Per-chunk document counts + boundary-document counts from a
    :func:`pack_sequences` result — the packing-quality summary a
    pipeline operator watches (how many docs straddle windows).

    Pure ``map_batches`` + the engine's own hash aggregate; no driver
    materialization.
    """
    from centrality_gpu_ray.stages.shuffle import hash_aggregate

    def expand(batch: pa.Table) -> pa.Table:
        first = batch.column("first_chunk").to_numpy()
        last = batch.column("last_chunk").to_numpy()
        reps = (last - first + 1).astype(np.int64)
        total = int(reps.sum())
        chunk = np.repeat(first, reps) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(reps) - reps, reps))
        straddle = np.repeat((reps > 1).astype(np.int64), reps)
        return pa.table({"chunk": pa.array(chunk, type=pa.int64()),
                         "straddlers": pa.array(straddle, type=pa.int64())})

    per_chunk = packed.map_batches(expand, batch_format="pyarrow")
    # output columns: chunk, straddlers (sum), count (docs in chunk)
    return hash_aggregate(per_chunk, ["chunk"],
                          [("straddlers", "sum"), ([], "count_all")])


def chunk_documents(ds, max_tokens: int, stride: int | None = None,
                    text_col: str = "text", id_col: str = "doc_id",
                    min_tokens: int = 1):
    """Split long documents into fixed-token-window chunks — the
    embedding-/context-window prep that turns one document row into
    ``ceil`` many ``(doc, chunk)`` rows. The complement of
    :func:`pack_sequences` (which lays SHORT docs into windows).

    Windows start at ``0, stride, 2·stride, …`` over the whitespace
    token sequence (``stride`` defaults to ``max_tokens`` — disjoint
    chunks; smaller stride = overlapping windows). A window is emitted
    iff it is the first OR extends coverage past the previous window's
    end (``start + max_tokens − stride < n``: the standard
    last-window-flush rule — no window that is a suffix-subset of its
    predecessor). Chunks shorter than ``min_tokens`` are dropped
    (tail crumbs). Chunk text is the ``" "``-join of its tokens, so
    runs of whitespace normalize to single spaces.

    Pure stateless flat-map — one ``map_batches``, no shuffle, no
    driver rows; output is ``(id_col, chunk_id, text, n_tokens)`` with
    doc-local ``chunk_id``. The per-doc loop runs once per CHUNK (the
    join is C-level); token splitting is the vectorized pandas
    ``str.split``.
    """
    if max_tokens <= 0:
        raise ValueError(f"max_tokens must be positive, got {max_tokens}")
    if min_tokens <= 0:
        raise ValueError(
            f"min_tokens must be positive, got {min_tokens} "
            "(0 would emit empty-text chunks for empty docs)")
    stride = max_tokens if stride is None else stride
    if not 0 < stride <= max_tokens:
        raise ValueError(
            f"stride must be in (0, max_tokens], got {stride}")

    def fn(batch) -> pa.Table:
        toks = batch[text_col].fillna("").str.split()
        ids_in = batch[id_col].to_numpy()
        ids, cids, texts, ntok = [], [], [], []
        for did, lst in zip(ids_in, toks):
            n = len(lst)
            ci = 0
            for b in range(0, max(n, 1), stride):
                if b > 0 and b + max_tokens - stride >= n:
                    break  # previous window already covered to the end
                piece = lst[b:b + max_tokens]
                if len(piece) < min_tokens:
                    continue
                ids.append(did)
                cids.append(ci)
                texts.append(" ".join(piece))
                ntok.append(len(piece))
                ci += 1
        return pa.table({
            id_col: pa.array(np.asarray(ids, dtype=np.int64)),
            "chunk_id": pa.array(np.asarray(cids, dtype=np.int32)),
            "text": pa.array(texts, type=pa.string()),
            "n_tokens": pa.array(np.asarray(ntok, dtype=np.int32))})

    fn.__name__ = f"chunk_{text_col}"
    return ds.map_batches(fn, batch_format="pandas", batch_size=2048)
