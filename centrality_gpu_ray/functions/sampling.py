"""Deterministic corpus-mixture sampling — downsample a multi-language
corpus to target per-language rates without any randomness state.

A 100 TB training-data pipeline rebalances its corpus mix (e.g. keep
all English, 30% of each other language) as a pure per-row predicate:
``keep(doc) ⇔ sha256(str(doc_id))[:16] < threshold(lang)`` where the
threshold is the 16-hex-digit fixed-point encoding of the rate. That
makes sampling

* deterministic and resumable — the same doc survives in every run,
  on every partitioning, with no RNG seed to ship;
* embarrassingly parallel — one ``map_batches`` over the language-ID
  stage, no shuffle, no driver state;
* exactly auditable — DuckDB's ``sha256`` computes the identical hex,
  so the surviving set is value-checkable by SQL (`oracle_sql()`).

Language comes from :func:`centrality_gpu_ray.functions.text
.language_id` (itself oracle-checked). The reference engine has no
sampling surface at all (SURVEY.md §2.6 covers only its BFS-depth
sampling); this is new-engine training-data surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def rate_threshold_hex(rate: float) -> str:
    """Rate in [0, 1] → 16-hex-digit lowercase threshold string.

    keep ⇔ sha256 hex prefix (16 chars) < threshold. rate >= 1 maps to
    ``"g"`` which lexicographically exceeds every hex string → keep
    all; rate <= 0 maps to ``""`` → keep none.
    """
    if rate >= 1.0:
        return "g"
    if rate <= 0.0:
        return ""
    return format(int(rate * (1 << 64)), "016x")


def _sample_batch(batch: pd.DataFrame, thresholds: dict,
                  default_hex: str) -> pd.DataFrame:
    import hashlib

    ids = batch["doc_id"].to_numpy()
    prefixes = np.fromiter(
        (hashlib.sha256(str(int(i)).encode("ascii")).hexdigest()[:16]
         for i in ids),
        dtype=object, count=ids.size)
    th = batch["pred_lang"].map(
        lambda l: thresholds.get(l, default_hex)).to_numpy(dtype=object)
    keep = prefixes < th
    return batch.loc[keep, ["doc_id", "pred_lang"]]


def mixture_sample(ds, rates: dict[str, float], default_rate: float = 1.0):
    """Keep each document with its language's target rate.

    Args:
        ds: Dataset with ``doc_id`` and ``text`` columns.
        rates: language code (as emitted by ``language_id``, including
            ``"und"``) → keep rate in [0, 1].
        default_rate: rate for languages not in ``rates``.

    Returns:
        Dataset with ``doc_id, pred_lang`` for the surviving docs.
    """
    from centrality_gpu_ray.functions.text import language_id

    thresholds = {k: rate_threshold_hex(v) for k, v in rates.items()}
    default_hex = rate_threshold_hex(default_rate)

    langs = language_id(ds).select_columns(["doc_id", "pred_lang"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return _sample_batch(batch, thresholds, default_hex)

    fn.__name__ = "mixture_sample"
    return langs.map_batches(fn, batch_format="pandas", batch_size=4096)


def mixture_sample_sql(rates: dict[str, float], default_rate: float,
                       lang_cte_sql: str) -> str:
    """The exact DuckDB oracle for :func:`mixture_sample`.

    ``lang_cte_sql`` is the language-ID oracle query (any SELECT
    yielding ``doc_id, pred_lang``); the thresholds are the same
    Python-computed hex constants the engine compares against, so
    engine and oracle share every byte of the decision rule.
    """
    cases = " ".join(
        f"WHEN '{lang}' THEN '{rate_threshold_hex(r)}'"
        for lang, r in sorted(rates.items()))
    return f"""
        WITH lang AS ({lang_cte_sql})
        SELECT doc_id, pred_lang FROM lang
        WHERE substr(sha256(CAST(doc_id AS VARCHAR)), 1, 16) <
              CASE pred_lang {cases}
                   ELSE '{rate_threshold_hex(default_rate)}' END"""


def hash_split(ds, fractions: dict[str, float], id_col: str = "doc_id",
               out_col: str = "split"):
    """Deterministic, disjoint, exhaustive train/val/test assignment.

    Each row lands in exactly one named split by where its
    ``sha256(str(id))`` 16-hex prefix falls among the CUMULATIVE
    fraction thresholds (insertion order of ``fractions``); the last
    split absorbs the float remainder, so the bands partition the hex
    space exactly. Same guarantees as :func:`mixture_sample`: no RNG
    state, stable across runs/partitionings/engines, and byte-identical
    in DuckDB (:func:`hash_split_sql`) for value-exact auditing.
    A doc NEVER migrates between splits when other docs are added or
    removed — the leakage-safety property retraining pipelines need.

    Args:
        ds: Dataset with ``id_col``.
        fractions: split name → fraction; must sum to 1 (±1e-9),
            at least one split, every fraction ≥ 0.
        out_col: name of the appended assignment column.

    Returns:
        ``ds`` with ``out_col`` (string) appended.
    """
    names = list(fractions)
    fracs = [float(fractions[n]) for n in names]
    if not names:
        raise ValueError("need at least one split")
    if min(fracs) < 0:
        raise ValueError("fractions must be >= 0")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
    cum = np.cumsum(fracs)
    # thresholds for all but the last band; the last is ELSE
    bands = [(names[i], rate_threshold_hex(float(cum[i])))
             for i in range(len(names) - 1)]
    last = names[-1]

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        prefixes = np.fromiter(
            (h[:16] for h in _sha_hex(batch[id_col].to_numpy())),
            dtype=object, count=len(batch))
        out = np.full(len(batch), last, dtype=object)
        unassigned = np.ones(len(batch), dtype=bool)
        for name, th in bands:
            hit = unassigned & (prefixes < th)
            out[hit] = name
            unassigned &= ~hit
        batch = batch.copy()
        batch[out_col] = out.astype(str)
        return batch

    fn.__name__ = "hash_split"
    return ds.map_batches(fn, batch_format="pandas", batch_size=4096)


def hash_split_sql(fractions: dict[str, float], id_col: str = "doc_id",
                   out_col: str = "split") -> str:
    """The DuckDB expression (a CASE select-item) computing the exact
    same assignment as :func:`hash_split` — same cumulative hex
    thresholds, same band order."""
    names = list(fractions)
    cum = np.cumsum([float(fractions[n]) for n in names])
    whens = " ".join(
        f"WHEN substr(sha256(CAST({id_col} AS VARCHAR)), 1, 16) < "
        f"'{rate_threshold_hex(float(cum[i]))}' THEN '{names[i]}'"
        for i in range(len(names) - 1))
    if not whens:
        return f"'{names[-1]}' AS {out_col}"
    return f"CASE {whens} ELSE '{names[-1]}' END AS {out_col}"


def weighted_sample_k(ds, k: int, weight_col: str,
                      id_col: str = "doc_id", seed: int = 0):
    """Weighted sampling WITHOUT replacement: k rows, each row's
    inclusion probability proportional to its weight (quality score,
    token count, dedup cluster size) — the Efraimidis–Spirakis (2006)
    exponential-clocks scheme made deterministic.

    Per row: u = uniform(0,1] derived from splitmix64(id ^ seed) —
    no RNG state, partitioning-invariant — and sort key
    ln(u)/w (the log of u^(1/w)); the global k LARGEST keys win.
    Each block emits only its local top-k rows, the driver merges
    ≤ blocks·k candidates: no shuffle, no driver-sized state. Rows
    with null or non-positive weight never win. Returns a pa.Table of
    the winning rows (all input columns + ``sample_key``), sorted by
    key desc then id asc — driver-sized by construction (k rows).
    """
    import pyarrow as pa

    from centrality_gpu_ray.nputil import splitmix

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    salt = splitmix(np.array([seed], dtype=np.uint64) ^
                    np.uint64(0x9E3779B97F4A7C15))[0]

    def keys_for(ids: np.ndarray, w: np.ndarray):
        h = splitmix(ids.astype(np.int64).view(np.uint64) ^ salt)
        u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        with np.errstate(divide="ignore", invalid="ignore"):
            key = np.log(u) / w
        elig = w > 0  # null (NaN) / non-positive weights never win
        # ln(u)/w overflows to -inf for subnormal w: clamp so a tiny
        # POSITIVE weight stays an eligible candidate (it wins when k
        # exceeds the finite-key population) instead of being dropped
        # as if its weight were non-positive
        key = np.where(elig,
                       np.maximum(key, np.finfo(np.float64).min),
                       -np.inf)
        return key, elig

    def fn(batch: pa.Table) -> pa.Table:
        idc = batch.column(id_col)
        if idc.null_count:
            raise ValueError(
                f"weighted_sample_k: {id_col!r} contains nulls — the "
                "priority key is derived from the id; null ids would "
                "share one platform-dependent key")
        ids = idc.to_numpy(zero_copy_only=False)
        w = np.asarray(
            batch.column(weight_col).to_numpy(zero_copy_only=False),
            dtype=np.float64)
        key, elig = keys_for(ids, w)
        if ids.size > k:
            top = np.argpartition(key, ids.size - k)[ids.size - k:]
            batch, key, elig = batch.take(pa.array(top)), key[top], \
                elig[top]
        return batch.filter(pa.array(elig)).append_column(
            "sample_key", pa.array(key[elig], pa.float64()))

    fn.__name__ = f"wsample_{weight_col}"
    # batch_size=None: one batch per BLOCK, so the driver merge is
    # blocks*k rows as documented (the 1024 default would make it
    # batches*k)
    parts = [b for b in ds.map_batches(fn, batch_format="pyarrow",
                                       batch_size=None)
             .iter_batches(batch_size=None, batch_format="pyarrow")]
    parts = [p for p in parts if p.num_rows]
    if not parts:  # no positive-weight rows anywhere -> typed empty
        from centrality_gpu_ray.nputil import arrow_type

        sch = ds.schema()
        cols = {n: pa.array([], type=arrow_type(t))
                for n, t in zip(sch.names, sch.types)}
        cols["sample_key"] = pa.array([], type=pa.float64())
        return pa.table(cols)
    cand = pa.concat_tables(parts)
    key = cand.column("sample_key").to_numpy()
    ids = cand.column(id_col).to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -key))[:k]
    return cand.take(pa.array(order))


def _sha_hex(ids: np.ndarray) -> np.ndarray:
    import hashlib

    return np.fromiter(
        (hashlib.sha256(str(int(i)).encode("ascii")).hexdigest()
         for i in ids), dtype=object, count=ids.size)


def stratified_sample(ds, stratum_col: str, k: int,
                      id_col: str = "doc_id", num_partitions: int = 32):
    """Exactly ``min(k, |stratum|)`` rows per stratum — deterministic
    fixed-size eval-set construction, the complement of rate-based
    :func:`mixture_sample`.

    Rows are ranked inside each stratum by the full sha256 hex of
    their id (then the id itself — a total order), so the selection is
    deterministic, partitioning-invariant, and reproducible by DuckDB
    ``ROW_NUMBER() OVER (PARTITION BY stratum ORDER BY
    sha256(CAST(id AS VARCHAR)), id)``. One hash shuffle keyed on the
    stratum (``hash_partition_apply``); assumes each stratum's rows
    fit one reduce task — the same per-key-fits-a-task contract as
    sessionization (salt or pre-filter a hot stratum otherwise).
    """
    import pyarrow as pa

    from centrality_gpu_ray.stages.shuffle import hash_partition_apply

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def reduce_fn(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        ids = tbl.column(id_col).to_numpy()
        strata = tbl.column(stratum_col).to_numpy(zero_copy_only=False)
        sha = _sha_hex(ids)
        order = np.lexsort((ids, sha, strata))
        s_sorted = strata[order]
        # segment starts of each stratum run
        starts = np.flatnonzero(
            np.concatenate([[True], s_sorted[1:] != s_sorted[:-1]]))
        run_idx = np.arange(s_sorted.size) - np.repeat(
            starts, np.diff(np.concatenate([starts, [s_sorted.size]])))
        keep = order[run_idx < k]
        return tbl.take(pa.array(np.sort(keep)))

    return hash_partition_apply(ds, [stratum_col], reduce_fn,
                                 num_partitions=num_partitions)
