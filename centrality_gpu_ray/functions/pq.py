"""Product quantization (PQ) — the compressed ANN scale path.

IVF (``similarity.ann_ivf``) prunes WHICH vectors a query scores; PQ
shrinks WHAT is stored and scanned: each (unit-normalized) vector is
split into ``m`` subspaces and every sub-vector replaced by the id of
its nearest codeword from a per-subspace codebook (k = 2^nbits ≤ 256
→ one uint8 per subspace).  A 768-d float32 embedding (3 KB) becomes
m = 8..96 bytes — the difference between a 100 TB embedding table and
one that fits a cluster's object store.  Queries score codes with the
standard ADC (asymmetric distance computation): one (m, k)
inner-product lookup table per query, then per-code gather-sums — no
decompression, no per-vector dot products.

Jégou, Douze, Schmid, "Product Quantization for Nearest Neighbor
Search", TPAMI 2011.  The reference engine has no vector surface; this
extends the §2.9 similarity family (brute/LSH/IVF) with its missing
compression leg.

Scale shape: training is driver-side over a BOUNDED sample (the
``ann_ivf`` convention — O(train_sample·d), deterministic); encoding
is a stateless ``map_batches`` with the (m, k, d/m) codebook tensor in
the closure; ADC search is per-block partial top-k + one driver merge,
exactly ``ann_brute_force``'s shape with the GEMM replaced by table
gathers.  Everything is deterministic (seeded farthest-sample init,
fixed iteration counts), so results are partitioning-invariant.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.functions.similarity import (_matrix_from_arrow,
                                                     _normalize)


def _lloyd(X: np.ndarray, k: int, iters: int, seed: int) -> np.ndarray:
    """Deterministic plain-L2 Lloyd over a driver-side sample.  Init =
    k rows of a splitmix-seeded permutation (distinct rows first so
    duplicate-heavy samples don't collapse centroids)."""
    from centrality_gpu_ray.nputil import splitmix

    Xu = np.unique(X, axis=0)
    base = Xu if Xu.shape[0] >= k else X
    pri = splitmix(np.arange(base.shape[0], dtype=np.int64)
                   .view(np.uint64) ^ np.uint64(seed & (2**64 - 1)))
    C = base[np.argsort(pri)[:k]].astype(np.float64).copy()
    if C.shape[0] < k:  # fewer distinct points than codewords
        C = np.vstack([C, np.repeat(C[:1], k - C.shape[0], axis=0)])
    for _ in range(iters):
        # GEMM-form distances only: the (n, k, dsub) broadcast form
        # allocates n·k·dsub float64 temporaries (~2 GB at the default
        # sample size with dsub=64) for an identical argmin
        d2 = ((X * X).sum(1)[:, None] - 2.0 * X @ C.T
              + (C * C).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        for j in range(k):
            mask = a == j
            if mask.any():
                C[j] = X[mask].mean(axis=0)
    return C


def _train_codebooks(X: np.ndarray, m: int, nbits: int, iters: int,
                     seed: int) -> np.ndarray:
    """Per-subspace codebooks from a normalized sample matrix — the
    ONE training definition shared by pq_train and ann_ivfpq_topk."""
    if not 1 <= nbits <= 8:
        raise ValueError("nbits must be in [1, 8] (uint8 codes)")
    d = X.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub, k = d // m, 1 << nbits
    return np.stack([
        _lloyd(X[:, j * dsub:(j + 1) * dsub], k, iters, seed + j)
        for j in range(m)])


def _encode_matrix(M: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """(n, d) normalized rows → (n, m) uint8 nearest-codeword ids —
    the ONE encode definition shared by pq_encode and ann_ivfpq_topk."""
    m, _k, dsub = cb.shape
    codes = np.empty((M.shape[0], m), dtype=np.uint8)
    for j in range(m):
        S = M[:, j * dsub:(j + 1) * dsub]
        C = cb[j]
        d2 = ((S * S).sum(1)[:, None] - 2.0 * S @ C.T
              + (C * C).sum(1)[None, :])
        codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def _fetch_sample(emb_ds, vec_col: str, train_sample: int) -> np.ndarray:
    sample = pa.concat_tables(list(
        emb_ds.select_columns([vec_col]).limit(train_sample)
        .iter_batches(batch_size=None, batch_format="pyarrow")))
    return _normalize(_matrix_from_arrow(sample.column(vec_col)))


def pq_train(emb_ds, m: int = 8, nbits: int = 8,
             train_sample: int = 16384, iters: int = 15, seed: int = 23,
             vec_col: str = "embedding") -> np.ndarray:
    """Train per-subspace codebooks on a bounded sample of the
    (normalized) vectors.  Returns ``(m, 2^nbits, d/m)`` float64."""
    return _train_codebooks(_fetch_sample(emb_ds, vec_col, train_sample),
                            m, nbits, iters, seed)


def pq_encode(emb_ds, codebooks: np.ndarray, id_col: str = "vec_id",
              vec_col: str = "embedding"):
    """Encode every vector to ``m`` uint8 codes.  Returns a Dataset of
    ``(id, code)`` with ``code`` a FixedSizeList<uint8, m>."""
    cb = np.ascontiguousarray(codebooks, dtype=np.float64)
    m, _k, dsub = cb.shape

    def fn(batch: pa.Table, _cb=cb) -> pa.Table:
        X = _normalize(_matrix_from_arrow(batch.column(vec_col)))
        codes = _encode_matrix(X, _cb)
        return pa.table({
            id_col: batch.column(id_col),
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1)), m),
        })

    return emb_ds.map_batches(fn, batch_format="pyarrow")


def _topk_by_score(s: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Indices of exactly the ``kk`` best rows by (-score, id), in that
    order.  PQ scores tie OFTEN (same code → same score) and a bare
    argpartition prunes boundary ties arbitrarily, which breaks
    partitioning invariance of any downstream merge — survivors are
    all rows strictly above the boundary score plus the lowest ids
    among the boundary ties."""
    n = s.size
    if kk < n:
        cut = np.argpartition(-s, kk - 1)
        b = s[cut[kk - 1]]
        sure = np.flatnonzero(s > b)
        tie = np.flatnonzero(s == b)
        tie = tie[np.argsort(ids[tie])][:kk - sure.size]
        cand = np.concatenate([sure, tie])
    else:
        cand = np.arange(n)
    return cand[np.lexsort((ids[cand], -s[cand]))]


def ann_ivfpq_topk(emb_ds, queries: np.ndarray, k: int = 10,
                   nlist: int = 64, nprobe: int = 8, m: int = 8,
                   nbits: int = 8, train_sample: int = 16384,
                   kmeans_iters: int = 10, pq_iters: int = 15,
                   seed: int = 17, id_col: str = "vec_id",
                   vec_col: str = "embedding",
                   query_ids: np.ndarray | None = None,
                   num_partitions: int = 32):
    """IVF-PQ cosine top-k — the two scale levers composed: the IVF
    coarse quantizer prunes WHICH lists a query scans
    (``similarity.ann_ivf``'s shape), PQ compresses WHAT each list
    stores and the ADC tables score codes without decompression.  One
    pass assigns-and-encodes every vector to ``(list, id, m×uint8)``
    rows; candidates move through ONE hash exchange keyed by list id;
    per-partition scoring is pure table gathers with tie-exact partial
    top-k.  Vectors are encoded directly (not as residuals) — the
    normalized-cosine IVFADC variant; recall is tuned by
    nprobe/nlist/m/nbits.  Returns a Dataset of
    ``(query_id, vec_id, score, rank)`` like ``ann_ivf``."""
    import ray

    from centrality_gpu_ray.functions.similarity import (_kmeans_spherical,
                                                         _merge_topk)
    from centrality_gpu_ray.stages.shuffle import hash_partition_apply

    Q = _normalize(np.asarray(queries, dtype=np.float64))
    qids = (np.arange(Q.shape[0], dtype=np.int64) if query_ids is None
            else np.asarray(query_ids, dtype=np.int64))

    X = _fetch_sample(emb_ds, vec_col, train_sample)
    C = _kmeans_spherical(X, nlist, kmeans_iters, seed)
    nlist = C.shape[0]
    cb = _train_codebooks(X, m, nbits, pq_iters, seed)
    dsub = X.shape[1] // m

    np_probe = min(nprobe, nlist)
    probe = np.argpartition(Q @ C.T, nlist - np_probe,
                            axis=1)[:, nlist - np_probe:]
    qmap: dict[int, list[int]] = {}
    for qi in range(Q.shape[0]):
        for lst in probe[qi]:
            qmap.setdefault(int(lst), []).append(qi)
    lut = np.einsum("qjd,jkd->qjk", Q.reshape(Q.shape[0], m, dsub), cb)
    bcast = ray.put((C, cb, lut, qids, qmap))

    def assign_encode(batch: pa.Table) -> pa.Table:
        Cm, cbm, *_ = ray.get(bcast)
        M = _normalize(_matrix_from_arrow(batch.column(vec_col)))
        lists = np.argmax(M @ Cm.T, axis=1).astype(np.int64)
        codes = _encode_matrix(M, cbm)
        return pa.table({
            "list": pa.array(lists),
            id_col: batch.column(id_col),
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1)), m),
        })

    def score_partition(tbl: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "score": pa.array([], type=pa.float64())})
        if tbl.num_rows == 0:
            return empty
        _, _, lutm, q_ids, qm = ray.get(bcast)
        l_arr = tbl.column("list").to_numpy(zero_copy_only=False)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        col = tbl.column("code")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = col.flatten().to_numpy(zero_copy_only=False) \
            .reshape(-1, m).astype(np.int64)
        order = np.lexsort((ids, l_arr))
        l_s, ids_s, codes_s = l_arr[order], ids[order], codes[order]
        starts = np.flatnonzero(np.r_[True, l_s[1:] != l_s[:-1]])
        bounds = np.r_[starts, l_s.size]
        ar = np.arange(m)
        out_q, out_v, out_s = [], [], []
        for gi in range(starts.size):
            lo, hi = bounds[gi], bounds[gi + 1]
            qlist = qm.get(int(l_s[lo]))
            if not qlist:
                continue
            cd = codes_s[lo:hi]
            for qi in qlist:
                s = lutm[qi][ar[None, :], cd].sum(axis=1)
                sel = _topk_by_score(s, ids_s[lo:hi], min(k, s.size))
                out_q.append(np.full(sel.size, q_ids[qi],
                                     dtype=np.int64))
                out_v.append(ids_s[lo:hi][sel])
                out_s.append(s[sel])
        if not out_q:
            return empty
        return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                         "vec_id": pa.array(np.concatenate(out_v)),
                         "score": pa.array(np.concatenate(out_s))})

    assigned = emb_ds.select_columns([id_col, vec_col]).map_batches(
        assign_encode, batch_format="pyarrow", batch_size=4096)
    scored = hash_partition_apply(assigned, ["list"], score_partition,
                                  num_partitions=num_partitions)
    return _merge_topk(scored, k)


def ann_pq_topk(codes_ds, codebooks: np.ndarray, queries: np.ndarray,
                k: int = 10, id_col: str = "vec_id",
                query_ids: np.ndarray | None = None) -> pa.Table:
    """ADC cosine top-k over a PQ-encoded table: per query one (m, K)
    inner-product lookup table, per block table-gather sums + partial
    top-k, one driver merge.  Returns ``(query_id, vec_id, score,
    rank)`` sorted by (query_id, rank), rank 1-based like the whole
    similarity family; ties → min vec_id."""
    cb = np.ascontiguousarray(codebooks, dtype=np.float64)
    m, K, dsub = cb.shape
    Q = _normalize(np.asarray(queries, dtype=np.float64))
    if Q.shape[1] != m * dsub:
        raise ValueError("query dim does not match codebooks")
    qids = (np.arange(Q.shape[0], dtype=np.int64) if query_ids is None
            else np.asarray(query_ids, dtype=np.int64))
    # LUT[q, j, c] = <Q[q] subspace j, codeword c>
    lut = np.einsum("qjd,jkd->qjk",
                    Q.reshape(Q.shape[0], m, dsub), cb)

    def partial(batch: pa.Table, _lut=lut) -> pa.Table:
        col = batch.column("code")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = col.flatten().to_numpy(zero_copy_only=False) \
            .reshape(-1, m).astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        n = codes.shape[0]
        kk = min(k, n)
        out_q, out_v, out_s = [], [], []
        ar = np.arange(m)
        for qi in range(_lut.shape[0]):
            s = _lut[qi][ar[None, :], codes].sum(axis=1)
            order = _topk_by_score(s, ids, kk)
            out_q.append(np.full(order.size, qi, dtype=np.int64))
            out_v.append(ids[order])
            out_s.append(s[order])
        return pa.table({
            "q": pa.array(np.concatenate(out_q)),
            "v": pa.array(np.concatenate(out_v)),
            "s": pa.array(np.concatenate(out_s)),
        })

    qs, vs, ss = [], [], []
    for b in codes_ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        qs.append(b.column("q").to_numpy())
        vs.append(b.column("v").to_numpy())
        ss.append(b.column("s").to_numpy())
    q = np.concatenate(qs) if qs else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    s = np.concatenate(ss) if ss else np.empty(0, np.float64)
    order = np.lexsort((v, -s, q))
    q, v, s = q[order], v[order], s[order]
    rows_q, rows_v, rows_s, rows_r = [], [], [], []
    # iterate queries in ascending OUTPUT id so the documented
    # (query_id, rank) sort holds for unsorted query_ids too
    for qi in np.argsort(qids, kind="stable"):
        sel = np.flatnonzero(q == qi)[:k]
        rows_q.append(np.full(sel.size, qids[qi], dtype=np.int64))
        rows_v.append(v[sel])
        rows_s.append(s[sel])
        rows_r.append(np.arange(1, sel.size + 1, dtype=np.int64))
    return pa.table({
        "query_id": pa.array(np.concatenate(rows_q)),
        "vec_id": pa.array(np.concatenate(rows_v)),
        "score": pa.array(np.concatenate(rows_s)),
        "rank": pa.array(np.concatenate(rows_r)),
    })
