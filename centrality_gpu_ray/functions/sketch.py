"""Distributed sketches — HyperLogLog distinct counting, exact/binned
value histograms with quantile extraction, count-min frequency sketch.

At 100 TB, "how many distinct tokens / URLs / content hashes" must not
cost a key shuffle. HyperLogLog gives a (1.04/√m)-relative-error
answer with a fixed 2^p-byte register array per *block*, merged by
elementwise max — commutative and associative, so the result is
independent of partitioning, batching and merge order:

* map side: each block hashes its values once (``pd.util.hash_array``,
  the same deterministic 64-bit hash the dedup family uses), takes the
  top ``p`` bits as the register index and the leading-zero rank of
  the low ``64-p`` bits as the register candidate, and reduces to ONE
  2^p uint8 array — a streaming pass, no driver rows;
* reduce side: the driver maxes P tiny arrays (4 KiB each at p=12)
  and applies the standard bias-corrected estimator with the
  linear-counting small-range correction (Flajolet et al. 2007).

The reference engine has no sketch surface; this is new-engine
training-data machinery (compare the exact path: ``hash_aggregate``
count over a full key exchange).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from centrality_gpu_ray.nputil import splitmix


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_registers(values: np.ndarray, p: int = 12) -> np.ndarray:
    """One block's HLL register array (len 2^p, uint8) for already-
    hashed-or-raw values. Raw values are hashed with
    ``pd.util.hash_array`` (deterministic across processes)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if values.size == 0:
        return regs
    if values.dtype == np.uint64:
        h = values
    else:
        h = pd.util.hash_array(np.asarray(values))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    low = h << np.uint64(p)  # low 64-p bits, left-aligned in 64
    # rank = leading zeros of the low bits + 1, capped at 64-p+1.
    # Leading zeros via the float64 exponent trick would lose precision
    # past 2^53; use a vectorized bit-length instead: for x != 0,
    # lz = 63 - floor(log2(x)) computed exactly with successive shifts.
    rank = np.full(h.size, 64 - p + 1, dtype=np.uint8)
    nz = low != 0
    x = low[nz]
    lz = np.zeros(x.size, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        x = np.where(mask, x << np.uint64(shift), x)
    rank_nz = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    rank[nz] = rank_nz
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected cardinality estimate from a register array."""
    m = regs.size
    est = _alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            return m * np.log(m / zeros)  # linear counting
    return float(est)


def hll_distinct(ds, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col) over a Dataset — one streaming
    pass, driver receives only per-block 2^p-byte registers."""
    def fn(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_numpy(zero_copy_only=False)
        regs = hll_registers(vals, p)
        return pa.table({"regs": pa.array([regs.tobytes()],
                                          type=pa.binary())})

    fn.__name__ = f"hll_{col}"
    parts = ds.select_columns([col]).map_batches(
        fn, batch_format="pyarrow")
    merged = np.zeros(1 << p, dtype=np.uint8)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in b.column("regs"):
            np.maximum(merged,
                       np.frombuffer(buf.as_py(), dtype=np.uint8),
                       out=merged)
    return hll_estimate(merged)


def hll_distinct_tokens(ds, p: int = 14,
                        text_col: str = "text") -> float:
    """Approximate distinct whitespace-token count over a corpus —
    the vocabulary-size probe that, exact, needs the vocab_topk
    shuffle; here it is shuffle-free."""
    def fn(batch: pd.DataFrame) -> pa.Table:
        text = batch[text_col].fillna("").str.strip()
        toks = text[text.str.len() > 0].str.split()
        flat = np.asarray([t for lst in toks for t in lst], dtype=object)
        regs = hll_registers(flat, p)
        return pa.table({"regs": pa.array([regs.tobytes()],
                                          type=pa.binary())})

    fn.__name__ = "hll_tokens"
    parts = ds.select_columns([text_col]).map_batches(
        fn, batch_format="pandas", batch_size=2048)
    merged = np.zeros(1 << p, dtype=np.uint8)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in b.column("regs"):
            np.maximum(merged,
                       np.frombuffer(buf.as_py(), dtype=np.uint8),
                       out=merged)
    return hll_estimate(merged)


# ---------------------------------------------------------------------------
# Value histogram → quantiles
# ---------------------------------------------------------------------------
#
# Quantiles over a 100 TB column must not sort the column. Two
# shuffle-free modes, both merged on the driver by summing per-block
# count vectors (commutative ⇒ partitioning-invariant):
#
# * EXACT integer mode — when the value range (hi-lo) fits a count
#   array (default cap 2^20 buckets, 8 MiB of int64): per-block sparse
#   bincount, exact CDF, exact quantiles. Doc lengths, token counts,
#   degrees, status codes all live here.
# * BINNED mode — floats or wide ranges: a min/max pass sizes `bins`
#   uniform buckets; quantiles interpolate inside the hit bucket, so
#   the error is at most one bucket width.
#
# Rank rule (shared with the SQL oracle in tests): the q-quantile is
# the smallest value whose cumulative count >= max(1, ceil(q*n)).

class HistogramSketch:
    """Merged column distribution: ``counts[i]`` values in bucket i.

    exact mode: bucket i covers the single integer ``lo + i``.
    binned mode: bucket i covers ``[edges[i], edges[i+1])`` (last
    bucket closed).
    """

    def __init__(self, counts: np.ndarray, lo: float, hi: float,
                 exact: bool):
        self.counts = counts
        self.lo = lo
        self.hi = hi
        self.exact = exact
        self.n = int(counts.sum())

    def quantile(self, q: float) -> float:
        if self.n == 0:
            raise ValueError("empty histogram")
        rank = max(1, int(np.ceil(q * self.n)))
        cdf = np.cumsum(self.counts)
        i = int(np.searchsorted(cdf, rank))
        if self.exact:
            # int-exact when lo is an int (no float64 detour for
            # magnitudes past 2^53); plain float for float lo
            return type(self.lo)(self.lo + i)
        # interpolate within bucket i by rank position
        m = self.counts.size
        width = (self.hi - self.lo) / m
        below = cdf[i - 1] if i else 0
        frac = (rank - below) / max(1, self.counts[i])
        return float(self.lo + (i + frac) * width)

    def quantiles(self, qs) -> list:
        return [self.quantile(q) for q in qs]


def _column_min_max(ds, col: str, as_int: bool = False) -> tuple:
    """Per-block min/max → driver reduce (no native row-based agg).
    ``as_int=True`` (integer columns) keeps the bounds exact int64:
    a float64 round-trip loses precision past 2^53 (e.g. sha-minted
    doc ids), which would shift exact-mode buckets silently."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        if as_int:
            v = pc.drop_null(batch.column(col)).to_numpy(
                zero_copy_only=False).astype(np.int64, copy=False)
            if v.size == 0:
                return pa.table({"mn": pa.array([], type=pa.int64()),
                                 "mx": pa.array([], type=pa.int64())})
            return pa.table({"mn": pa.array([int(v.min())], pa.int64()),
                             "mx": pa.array([int(v.max())], pa.int64())})
        v = batch.column(col).to_numpy(zero_copy_only=False)
        v = v[~pd.isna(v)]
        if v.size == 0:
            return pa.table({"mn": pa.array([], type=pa.float64()),
                             "mx": pa.array([], type=pa.float64())})
        return pa.table({"mn": [float(v.min())], "mx": [float(v.max())]})

    fn.__name__ = f"minmax_{col}"
    t = ds.select_columns([col]).map_batches(
        fn, batch_format="pyarrow").to_pandas()
    if len(t) == 0:
        raise ValueError(f"column {col!r} has no non-null values")
    if as_int:
        return int(t["mn"].min()), int(t["mx"].max())
    return float(t["mn"].min()), float(t["mx"].max())


def column_histogram(ds, col: str, bins: int = 4096,
                     exact_range_cap: int = 1 << 20,
                     lo: float | None = None,
                     hi: float | None = None) -> HistogramSketch:
    """One streaming pass (plus a min/max pass when bounds are not
    given): per-block SPARSE (bucket, count) pairs, summed on the
    driver with ``np.add.at`` (duplicate-safe under block coalescing,
    see CLAUDE.md iter_batches note)."""
    # exact mode requires an INTEGER column by schema — integral
    # min/max alone would silently floor-bin a float column whose
    # endpoints happen to be whole numbers
    field = ds.schema().base_schema.field(col)
    is_int = pa.types.is_integer(field.type)
    if lo is None or hi is None:
        lo, hi = _column_min_max(ds, col, as_int=is_int)
    # int64 range arithmetic: (hi - lo) in float64 is wrong past 2^53
    # (two distinct huge ints can round to the same float), which could
    # fake exact=True with a collapsed range
    exact = is_int and int(hi) - int(lo) + 1 <= exact_range_cap
    if exact:
        m = int(hi) - int(lo) + 1
    else:
        m = bins

    lo_f, hi_f = float(lo), float(hi)
    lo_i = int(lo) if is_int else 0

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if exact:
            # keep integer arithmetic end-to-end: a float64 detour
            # mis-buckets int64 magnitudes above 2^53 while still
            # reporting exact=True
            v_int = pc.drop_null(batch.column(col)).to_numpy(
                zero_copy_only=False).astype(np.int64, copy=False)
            idx = v_int - lo_i
        else:
            v = batch.column(col).to_numpy(zero_copy_only=False)
            v = np.asarray(v, dtype=np.float64)
            v = v[~np.isnan(v)]
            scale = m / (hi_f - lo_f) if hi_f > lo_f else 0.0
            idx = np.minimum(((v - lo_f) * scale).astype(np.int64), m - 1)
        idx = np.clip(idx, 0, m - 1)
        u, c = np.unique(idx, return_counts=True)
        return pa.table({"bucket": pa.array(u, type=pa.int64()),
                         "count": pa.array(c, type=pa.int64())})

    fn.__name__ = f"hist_{col}"
    parts = ds.select_columns([col]).map_batches(fn, batch_format="pyarrow")
    counts = np.zeros(m, dtype=np.int64)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        np.add.at(counts, b.column("bucket").to_numpy(),
                  b.column("count").to_numpy())
    if exact:
        return HistogramSketch(counts, int(lo), int(hi), exact)
    return HistogramSketch(counts, lo_f, hi_f, exact)


def column_quantiles(ds, col: str, qs=(0.25, 0.5, 0.75, 0.95, 0.99),
                     **kw) -> dict:
    """Convenience: histogram + named quantiles (exact for integer
    columns within the range cap)."""
    h = column_histogram(ds, col, **kw)
    return {f"q{int(q * 100):02d}": h.quantile(q) for q in qs}


# ---------------------------------------------------------------------------
# Count-min sketch — point frequency estimates without a key shuffle
# ---------------------------------------------------------------------------
#
# A d×w int64 matrix per block, SUM-merged (commutative). Query of a
# value takes the MIN over its d row hashes: an overestimate by at most
# eps·N (eps = e/w) with probability 1-delta (delta = e^-d) — Cormode &
# Muthukrishnan 2005. Heavy-hitter counts for the vocab family without
# the vocab_topk exchange; exact top-k stays `vocab_topk`.

# pd.util.hash_array's hash_key parameter only perturbs OBJECT/string
# hashing — numeric arrays ignore it, which would make every CMS row
# identical (depth would buy nothing). Derive the d rows instead by
# xor-ing a per-row seed into the base 64-bit hash and running a
# splitmix64 finalizer — independent-enough rows for both dtypes.
_CMS_SEEDS = np.array(
    [0x9E3779B97F4A7C15 * (i + 1) & 0xFFFFFFFFFFFFFFFF for i in range(8)],
    dtype=np.uint64)


def _canon_values(values) -> np.ndarray:
    """ONE dtype rule shared by cms_from_values and cms_query:
    pd.util.hash_array hashes numeric and object arrays on different
    paths (and ints vs floats differently), so a sketch built from an
    int64 column but queried with a plain Python list coerced to object
    would read arbitrary buckets, silently breaking the
    never-underestimate guarantee. Canonicalize: any integer width →
    int64, floats → float64, bool → int64, strings/mixed → object."""
    v = values if isinstance(values, np.ndarray) else np.asarray(values)
    k = v.dtype.kind
    if k in "iub":
        return v.astype(np.int64, copy=False)
    if k == "f":
        return v.astype(np.float64, copy=False)
    return v.astype(object)


def _cms_hash(values: np.ndarray, row: int, width: int) -> np.ndarray:
    x = splitmix(pd.util.hash_array(values) ^ _CMS_SEEDS[row])
    return (x % np.uint64(width)).astype(np.int64)


def cms_from_values(values: np.ndarray, depth: int, width: int,
                    weights: np.ndarray | None = None) -> np.ndarray:
    """One block's d×w count matrix."""
    cms = np.zeros((depth, width), dtype=np.int64)
    if values.size == 0:
        return cms
    vals = _canon_values(values)
    w = weights if weights is not None else np.ones(values.size, np.int64)
    for r in range(depth):
        np.add.at(cms[r], _cms_hash(vals, r, width), w)
    return cms


def cms_build(ds, col: str, depth: int = 4, width: int = 8192,
              tokens: bool = False) -> np.ndarray:
    """Merged CMS over a column (or over its whitespace tokens when
    ``tokens=True``). Driver receives one d×w matrix per block
    (256 KiB at 4×8192) and sums them — no shuffle, no driver rows."""
    assert depth <= len(_CMS_SEEDS)

    def fn(batch: pd.DataFrame) -> pa.Table:
        if tokens:
            text = batch[col].fillna("").str.strip()
            lists = text[text.str.len() > 0].str.split()
            vals = np.asarray([t for lst in lists for t in lst],
                              dtype=object)
        else:
            vals = batch[col].dropna().to_numpy()
        cms = cms_from_values(vals, depth, width)
        return pa.table({"cms": pa.array([cms.tobytes()],
                                         type=pa.binary())})

    fn.__name__ = f"cms_{col}"
    parts = ds.select_columns([col]).map_batches(
        fn, batch_format="pandas", batch_size=4096)
    merged = np.zeros((depth, width), dtype=np.int64)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in b.column("cms"):
            merged += np.frombuffer(buf.as_py(),
                                    dtype=np.int64).reshape(depth, width)
    return merged


def cms_query(cms: np.ndarray, values) -> np.ndarray:
    """Estimated counts for ``values`` (vectorized min over rows). The
    input is canonicalized through the same dtype rule as the build
    side (:func:`_canon_values`), so a plain Python list of ints reads
    the same buckets as the int64 column the sketch was built from."""
    vals = _canon_values(values)
    depth, width = cms.shape
    est = np.full(len(vals), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(depth):
        est = np.minimum(est, cms[r][_cms_hash(vals, r, width)])
    return est


def filter_by_quantile(ds, col: str, lo_q: float = 0.0,
                       hi_q: float = 1.0, **hist_kw):
    """Keep rows whose ``col`` lies within the [lo_q, hi_q] quantile
    band — the percentile-based quality/length filter of a curation
    funnel. Two streaming passes: the histogram sketch fixes the two
    scalar thresholds (exact for integer columns within the range
    cap), then a stateless vectorized filter. Returns
    ``(filtered_ds, (lo_val, hi_val))``; the band is CLOSED on both
    ends, matching the rank-rule oracle in tests."""
    h = column_histogram(ds, col, **hist_kw)
    lo_v = h.quantile(lo_q) if lo_q > 0.0 else None
    hi_v = h.quantile(hi_q)

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # compare in the column's native type (exact for int64 past
        # 2^53 — the thresholds are native ints in exact mode); null
        # rows drop
        arr = batch.column(col)
        mask = pc.less_equal(arr, hi_v)
        if lo_v is not None:
            mask = pc.and_kleene(mask, pc.greater_equal(arr, lo_v))
        return batch.filter(pc.fill_null(mask, False))

    fn.__name__ = f"quantile_band_{col}"
    # public contract: lo_q=0 reports -inf (keep-everything band) even
    # though the filter itself skips the comparison to stay native-typed
    lo_out = -np.inf if lo_v is None else lo_v
    return ds.map_batches(fn, batch_format="pyarrow"), (lo_out, hi_v)


# ---------------------------------------------------------------------------
# Bloom filter — mergeable set membership (no false negatives)
# ---------------------------------------------------------------------------
#
# The no-shuffle membership gate: a denylist / seen-set small enough to
# broadcast (m/8 bytes) but far too large to ship as row data. Standard
# construction (Bloom 1970); k index functions via Kirsch–Mitzenmacher
# double hashing g_i = h1 + i·h2 (mod m) over the SAME canonicalized
# hash family as the CMS above (`_canon_values` + splitmix64 mixing), so
# int64 columns queried with Python lists stay consistent. Per-block
# partials are SPARSE set-bit index arrays (≤ rows·k int64s); the merge
# is a bitwise OR — union-exact, so the filter is partitioning-invariant
# and the "definitely unseen" verdict is sound (false positives only,
# at the configured rate).

def _bloom_shape(capacity: int, fpr: float) -> tuple:
    """(m bits, k hashes) for an expected ``capacity`` distinct keys at
    ``fpr`` false-positive rate: m = ceil(−n·ln p / ln²2), k = m/n·ln 2."""
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"bloom: fpr must be in (0, 1), got {fpr}")
    n = max(1, int(capacity))
    m = int(np.ceil(-n * np.log(fpr) / (np.log(2.0) ** 2)))
    m = max(64, (m + 63) // 64 * 64)            # whole uint64 words
    k = int(np.clip(round(m / n * np.log(2.0)), 1, 16))
    return m, k


def _bloom_indices(values: np.ndarray, m: int, k: int) -> np.ndarray:
    """Flat array of the k·n bit indices for ``values`` (canonicalized
    dtype rule shared with CMS — see ``_canon_values``)."""
    v = _canon_values(values)
    base = pd.util.hash_array(v)  # ONE call — big per-call fixed cost
    h1 = splitmix(base ^ _CMS_SEEDS[0])
    h2 = splitmix(base ^ _CMS_SEEDS[1]) | np.uint64(1)
    out = np.empty(k * v.size, dtype=np.int64)
    mm = np.uint64(m)
    for i in range(k):
        out[i * v.size:(i + 1) * v.size] = \
            ((h1 + np.uint64(i) * h2) % mm).astype(np.int64)
    return out


def bloom_build(ds, col: str, capacity: int, fpr: float = 0.01) -> dict:
    """One streaming pass → ``{"bits": packed np.uint8[m/8], "m", "k",
    "capacity", "fpr"}``. Each block emits its sorted-unique set-bit
    indices; the driver ORs them in — O(blocks · block_nnz), duplicate-
    safe under ``iter_batches`` coalescing (OR is idempotent). Null
    values are never inserted (they'd also coerce int64-with-null
    blocks to float64 and silently switch the hash family, breaking
    the no-false-negative guarantee for every key in the block)."""
    m, k = _bloom_shape(capacity, fpr)

    def fn(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).drop_null().to_numpy(zero_copy_only=False)
        idx = np.unique(_bloom_indices(vals, m, k)) if vals.size \
            else np.empty(0, np.int64)
        return pa.table({"i": pa.array([idx.tobytes()], type=pa.binary())})

    bits = np.zeros(m, dtype=bool)
    for b in ds.select_columns([col]).map_batches(
            fn, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"):
        for v in b.column("i"):
            bits[np.frombuffer(v.as_py(), dtype=np.int64)] = True
    return {"bits": np.packbits(bits), "m": m, "k": k,
            "capacity": int(capacity), "fpr": float(fpr)}


def bloom_from_values(values, capacity: int, fpr: float = 0.01) -> dict:
    """Driver-side build from an in-memory array (small denylists)."""
    m, k = _bloom_shape(capacity, fpr)
    v = np.asarray(values) if not isinstance(values, np.ndarray) else values
    bits = np.zeros(m, dtype=bool)
    if v.size:
        bits[_bloom_indices(v, m, k)] = True
    return {"bits": np.packbits(bits), "m": m, "k": k,
            "capacity": int(capacity), "fpr": float(fpr)}


def bloom_merge(a: dict, b: dict) -> dict:
    """Union of two filters built with identical (m, k)."""
    if a["m"] != b["m"] or a["k"] != b["k"]:
        raise ValueError("bloom_merge: shape mismatch "
                         f"({a['m']},{a['k']}) vs ({b['m']},{b['k']})")
    out = dict(a)
    out["bits"] = a["bits"] | b["bits"]
    return out


def bloom_contains(bloom: dict, values) -> np.ndarray:
    """Membership verdicts (bool per value): True may be a false
    positive at the configured rate; False is EXACT (never inserted)."""
    v = values if isinstance(values, np.ndarray) else np.asarray(values)
    if v.size == 0:
        return np.zeros(0, dtype=bool)
    bits = np.unpackbits(bloom["bits"]).view(bool)
    idx = _bloom_indices(v, bloom["m"], bloom["k"]).reshape(bloom["k"], -1)
    return bits[idx].all(axis=0)


def filter_by_bloom(ds, col: str, bloom: dict, keep_hits: bool = False):
    """Stateless membership filter: ``keep_hits=False`` (default) drops
    probable members — the denylist-subtraction / already-processed-skip
    fast path (every true member IS dropped; ~fpr of fresh rows go with
    them — pair with `hash_anti_join` when exactness matters);
    ``keep_hits=True`` keeps probable members (candidate prefilter
    before an exact join). The packed bit array broadcasts once
    (`ray.put`) and rebuilds heap-side per worker process."""
    import ray

    ref = ray.put((bloom["bits"].tobytes(), bloom["m"], bloom["k"]))
    want = bool(keep_hits)

    def fn(batch: pa.Table) -> pa.Table:
        key = (ref.hex() if hasattr(ref, "hex") else id(ref))
        hit = _BLOOM_CACHE.get(key)
        if hit is None:
            pb, m, k = ray.get(ref)
            hit = (np.unpackbits(
                np.frombuffer(pb, dtype=np.uint8)).view(bool).copy(), m, k)
            _BLOOM_CACHE.clear()
            _BLOOM_CACHE[key] = hit
        bits, m, k = hit
        arr = batch.column(col)
        if len(arr) == 0:
            return batch
        # hash only the non-null values in the column's NATIVE dtype —
        # to_numpy on int64-with-null coerces to float64, which hashes
        # on a different _canon_values family than the build side did.
        # Null keys are never members (kept by the drop path, dropped
        # by keep_hits=True).
        import pyarrow.compute as pc

        nulls = pc.is_null(arr).to_numpy(zero_copy_only=False)
        member = np.zeros(len(arr), dtype=bool)
        vals = arr.drop_null().to_numpy(zero_copy_only=False)
        if vals.size:
            idx = _bloom_indices(vals, m, k).reshape(k, -1)
            member[~nulls] = bits[idx].all(axis=0)
        return batch.filter(pa.array(member == want))

    fn.__name__ = f"bloom_{'keep' if want else 'drop'}_{col}"
    return ds.map_batches(fn, batch_format="pyarrow")


_BLOOM_CACHE: dict = {}

def _arrow_group_codes(col) -> tuple[np.ndarray, pa.Array]:
    """Exact per-row group codes for an Arrow column, entirely at the
    Arrow layer: ``pd.factorize`` over ``to_numpy`` float-coerces an
    int64 block that contains a null, silently ROUNDING keys above
    2^53; ``dictionary_encode`` keeps them exact. Nulls (if present)
    form their own trailing code. Returns ``(codes int64, uniques)``
    with ``len(uniques) == codes.max()+1``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    nd = len(enc.dictionary)
    codes = enc.indices.fill_null(nd).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    garr = enc.dictionary
    if enc.indices.null_count:
        garr = pa.concat_arrays(
            [garr, pa.array([None], type=garr.type)])
    return codes, garr


def hll_distinct_by_group(ds, group_col: str, value_col: str,
                          p: int = 10, num_partitions: int = 32):
    """Per-group approximate COUNT(DISTINCT value) — "distinct domains
    per language", "distinct users per source" — without shuffling the
    VALUE population. Each block folds its rows to one 2^p-byte HLL
    register array per group present in the block; only those
    (group, registers) rows move (blocks × groups-per-block rows,
    2^p bytes each), max-merged inside a hash-partitioned reduce
    keyed on the group. Null group keys form their own group; null
    values never count. Returns a Dataset of
    ``(group_col, approx_distinct: float64)``.

    Sizing: traffic is blocks·G·2^p bytes — meant for group counts up
    to ~1e5 (lang, source, domain buckets). Past that, or for exact
    counts, use the hash_aggregate two-round exchange instead."""
    m = 1 << p

    from centrality_gpu_ray.stages.shuffle import hash_partition_apply

    from centrality_gpu_ray.nputil import arrow_type

    sch = ds.schema()
    gt = arrow_type(dict(zip(sch.names, sch.types))[group_col])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # drop null VALUES at the Arrow level and pre-hash through the
        # canonical dtype rule: to_numpy on int64-with-null would
        # float-coerce just that block and the same value would hash
        # as two distincts across blocks
        vcol = batch.column(value_col)
        valid = ~pc.is_null(vcol).to_numpy(zero_copy_only=False)
        empty = pa.table({group_col: pa.array([], type=gt),
                          "regs": pa.array([], type=pa.binary())})
        if not valid.any():
            return empty
        h = pd.util.hash_array(
            _canon_values(vcol.drop_null().to_numpy(zero_copy_only=False)))
        codes, garr = _arrow_group_codes(
            batch.column(group_col).filter(pa.array(valid)))
        order = np.argsort(codes, kind="stable")
        cs, hs = codes[order], h[order]
        bounds = np.searchsorted(cs, np.arange(len(garr) + 1))
        regs = [hll_registers(hs[bounds[i]:bounds[i + 1]], p).tobytes()
                for i in range(len(garr))]
        # emitting under the DATASET group type re-canonicalizes a
        # block-LOCAL type difference (pandas-backed int blocks with a
        # null are float); Arrow-native int blocks stay exact at any
        # magnitude because grouping never left Arrow
        return pa.table({group_col: garr.cast(gt),
                         "regs": pa.array(regs, type=pa.binary())})

    partial.__name__ = f"hll_group_{value_col}"
    parts = ds.select_columns([group_col, value_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=8192)

    def reduce_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({group_col: tbl.column(group_col),
                             "approx_distinct": pa.array(
                                 [], type=pa.float64())})
        codes, garr = _arrow_group_codes(tbl.column(group_col))
        regs = np.stack([np.frombuffer(b, dtype=np.uint8)
                         for b in tbl.column("regs").to_pylist()])
        folded = np.zeros((len(garr), m), dtype=np.uint8)
        np.maximum.at(folded, codes, regs)
        est = np.array([hll_estimate(r) for r in folded])
        return pa.table({group_col: garr,
                         "approx_distinct": pa.array(est, pa.float64())})

    return hash_partition_apply(parts, [group_col], reduce_fn,
                                num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# Misra–Gries heavy hitters — mergeable frequent-items summary
# ---------------------------------------------------------------------------
#
# The bounded-memory answer to "which values dominate this column"
# when the exact `vocab_topk`-style shuffle is too wide (hot-key /
# skew diagnostics before choosing a salt, URL/domain dominance).
# Classic Misra–Gries (1982) with the summary-merge rule of Agarwal
# et al. 2013 ("Mergeability of Summaries"): per-block exact counts
# compress to k counters by subtracting the (k+1)-th largest count;
# merging sums counters and re-compresses. Deterministic guarantees
# with D = total decremented mass (tracked exactly): every reported
# count_lo is a LOWER bound, true ≤ count_lo + D (= count_hi), and any
# value with true frequency > D is guaranteed present (D ≤ N/(k+1)).

def _mg_compress(counts: dict, k: int) -> tuple:
    """Keep ≤ k counters: subtract the (k+1)-th largest count from all,
    drop non-positives. Returns (counts, decrement_applied)."""
    if len(counts) <= k:
        return counts, 0
    vals = np.sort(np.fromiter(counts.values(), dtype=np.int64))
    dec = int(vals[-(k + 1)])
    out = {key: c - dec for key, c in counts.items() if c > dec}
    return out, dec


def heavy_hitters(ds, col: str, k: int = 256) -> pa.Table:
    """One streaming pass → ``(value, count_lo, count_hi)`` sorted by
    count_lo desc (value asc tie-break). Values are reported as
    strings (the summary's keys unify numeric and text columns).
    Driver state is O(k) counters + O(blocks·k) row traffic; nulls
    don't count. count_hi − count_lo = D, the summary's uniform error
    bound; D == 0 means the counts are exact (≤ k distinct values)."""
    def fn(batch: pa.Table) -> pa.Table:
        # drop nulls at the ARROW level: to_pandas on int64-with-null
        # yields float64, so the same value would split into "5" vs
        # "5.0" string keys across blocks and break the count_hi bound
        s = batch.column(col).drop_null().to_pandas()
        vc = s.value_counts(dropna=True)
        c, dec = _mg_compress(
            {str(key): int(n) for key, n in zip(vc.index, vc.to_numpy())},
            k)
        # one null-valued marker row carries the block's decrement —
        # length-safe whether or not any counters survived
        return pa.table({
            "value": pa.array(list(c.keys()) + [None], type=pa.string()),
            "c": pa.array(list(c.values()) + [dec], type=pa.int64())})

    total: dict = {}
    D = 0
    for b in ds.select_columns([col]).map_batches(
            fn, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"):
        for v, c in zip(b.column("value").to_pylist(),
                        b.column("c").to_pylist()):
            if v is None:
                D += int(c)
            else:
                total[v] = total.get(v, 0) + int(c)
        # each compress subtracts its dec from EVERY surviving counter,
        # so uniform error bounds add along the merge path
        total, dec = _mg_compress(total, k)
        D += dec
    if not total:
        return pa.table({"value": pa.array([], pa.string()),
                         "count_lo": pa.array([], pa.int64()),
                         "count_hi": pa.array([], pa.int64())})
    keys = np.array(list(total.keys()), dtype=object)
    lo = np.array([total[x] for x in keys], dtype=np.int64)
    o = np.lexsort((keys, -lo))
    return pa.table({"value": pa.array(keys[o], type=pa.string()),
                     "count_lo": pa.array(lo[o]),
                     "count_hi": pa.array(lo[o] + D)})
