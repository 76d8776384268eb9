"""Sequence packing (concat-and-chunk layout) + deterministic
corpus-mixture sampling — pandas/hashlib oracles, partitioning
invariance, edge cases."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.functions.packing import (
    chunk_fill_stats, pack_sequences)
from centrality_gpu_ray.functions.sampling import (
    mixture_sample, rate_threshold_hex)

SF = "/root/testdata/sf0.001"


def _docs():
    return ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "text"])


def _pack_oracle(df: pd.DataFrame, C: int) -> pd.DataFrame:
    """Driver-side pandas re-derivation of the packing layout."""
    n = (df["text"].fillna("").str.strip()
         .map(lambda t: len(t.split()) if t else 0))
    o = pd.DataFrame({"doc_id": df["doc_id"], "n_tokens": n})
    o = o[o.n_tokens > 0].sort_values("doc_id").reset_index(drop=True)
    o["start_token"] = o["n_tokens"].cumsum() - o["n_tokens"]
    o["first_chunk"] = o["start_token"] // C
    o["last_chunk"] = (o["start_token"] + o["n_tokens"] - 1) // C
    o["n_chunks"] = o["last_chunk"] - o["first_chunk"] + 1
    return o


def test_pack_sequences_matches_pandas_oracle():
    C = 64
    out = pack_sequences(_docs(), context_len=C).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    oracle = _pack_oracle(_docs().to_pandas(), C)
    pd.testing.assert_frame_equal(
        out.astype("int64"), oracle.astype("int64"))


def test_pack_sequences_partitioning_invariant():
    C = 32
    base = pack_sequences(_docs(), context_len=C).to_pandas()
    many = pack_sequences(_docs().repartition(13),
                          context_len=C).to_pandas()
    a = base.sort_values("doc_id").reset_index(drop=True)
    b = many.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_pack_sequences_drops_empty_docs_and_validates():
    t = pa.table({
        "doc_id": pa.array([5, 6, 7, 8], type=pa.int64()),
        "text": pa.array(["one two three", "", None, "four five"]),
    })
    out = pack_sequences(ray.data.from_arrow(t),
                         context_len=4).to_pandas()
    assert out["doc_id"].tolist() == [5, 8]
    assert out["start_token"].tolist() == [0, 3]
    # doc 8 spans tokens [3, 5) → chunk 0 only (C=4 → last token 4 in chunk 1)
    assert out["first_chunk"].tolist() == [0, 0]
    assert out["last_chunk"].tolist() == [0, 1]
    with pytest.raises(ValueError):
        pack_sequences(ray.data.from_arrow(t), context_len=0)


def test_chunk_fill_stats_totals():
    C = 64
    packed = pack_sequences(_docs(), context_len=C)
    pdf = packed.to_pandas()
    stats = chunk_fill_stats(packed, context_len=C).to_pandas()
    stats = stats.sort_values("chunk").reset_index(drop=True)
    # every (doc, chunk) incidence is counted exactly once
    assert stats["count"].sum() == pdf["n_chunks"].sum()
    # chunk ids form the exact contiguous range of the stream
    total_tokens = int(pdf["n_tokens"].sum())
    assert stats["chunk"].tolist() == list(
        range((total_tokens + C - 1) // C))
    # straddler incidences: each multi-chunk doc contributes n_chunks
    multi = pdf[pdf.n_chunks > 1]
    assert stats["straddlers"].sum() == multi["n_chunks"].sum()


def _sample_oracle(langs: pd.DataFrame, rates, default=1.0):
    th = {k: rate_threshold_hex(v) for k, v in rates.items()}
    dflt = rate_threshold_hex(default)
    keep = [
        hashlib.sha256(str(int(i)).encode()).hexdigest()[:16]
        < th.get(l, dflt)
        for i, l in zip(langs["doc_id"], langs["pred_lang"])]
    return langs.loc[keep]


def test_mixture_sample_matches_hashlib_oracle():
    from centrality_gpu_ray.functions.text import language_id

    rates = {"en": 1.0, "de": 0.5, "es": 0.5, "fr": 0.5,
             "it": 0.5, "pt": 0.5, "und": 0.25}
    out = mixture_sample(_docs(), rates).to_pandas()
    langs = language_id(_docs()).to_pandas()[["doc_id", "pred_lang"]]
    oracle = _sample_oracle(langs, rates)
    assert sorted(out["doc_id"]) == sorted(oracle["doc_id"])
    # en rate 1.0 → every en doc survives
    n_en = (langs.pred_lang == "en").sum()
    assert (out.pred_lang == "en").sum() == n_en
    # downsampled languages lose a nontrivial fraction
    n_other = (langs.pred_lang != "en").sum()
    kept_other = (out.pred_lang != "en").sum()
    assert 0 < kept_other < n_other


def test_mixture_sample_partitioning_invariant_and_zero_rate():
    rates = {"en": 0.0, "und": 0.3}
    a = mixture_sample(_docs(), rates, default_rate=0.3).to_pandas()
    b = mixture_sample(_docs().repartition(7), rates,
                       default_rate=0.3).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    assert (a.pred_lang != "en").all()  # rate 0 keeps none


def test_rate_threshold_hex_edges():
    assert rate_threshold_hex(1.0) == "g"
    assert rate_threshold_hex(0.0) == ""
    assert rate_threshold_hex(0.5) == "8000000000000000"
    # monotone in rate
    hs = [rate_threshold_hex(r) for r in np.linspace(0.01, 0.99, 20)]
    assert hs == sorted(hs)


def test_stratified_sample_matches_duckdb_rownumber():
    import duckdb

    from centrality_gpu_ray.functions.sampling import stratified_sample

    k = 7
    docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "lang"])
    out = stratified_sample(docs, "lang", k=k,
                            num_partitions=8).to_pandas()
    oracle = duckdb.execute(f"""
        SELECT doc_id, lang FROM (
          SELECT doc_id, lang,
                 ROW_NUMBER() OVER (PARTITION BY lang
                     ORDER BY sha256(CAST(doc_id AS VARCHAR)), doc_id)
                 AS rn
          FROM read_parquet('{SF}/documents.parquet')) WHERE rn <= {k}
        """).fetch_df()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = oracle.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["doc_id", "lang"]],
                                  b[["doc_id", "lang"]])
    # exactly min(k, |stratum|) per stratum
    full = docs.to_pandas()["lang"].value_counts()
    got = out["lang"].value_counts()
    for lang, n in full.items():
        assert got.get(lang, 0) == min(k, n), lang


def test_stratified_sample_partitioning_invariant():
    from centrality_gpu_ray.functions.sampling import stratified_sample

    docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "lang"])
    a = stratified_sample(docs, "lang", k=5,
                          num_partitions=4).to_pandas()
    b = stratified_sample(docs.repartition(9), "lang", k=5,
                          num_partitions=16).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    with pytest.raises(ValueError):
        stratified_sample(docs, "lang", k=0)


# ---------------------------------------------------------------------------
# weighted_sample_k — Efraimidis–Spirakis priority sampling
# ---------------------------------------------------------------------------

def _es_serial(ids, w, k, seed):
    """Serial oracle: identical key derivation, global top-k."""
    from centrality_gpu_ray.nputil import splitmix

    salt = splitmix(np.array([seed], dtype=np.uint64) ^
                    np.uint64(0x9E3779B97F4A7C15))[0]
    h = splitmix(ids.astype(np.int64).view(np.uint64) ^ salt)
    u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    with np.errstate(divide="ignore", invalid="ignore"):
        key = np.log(u) / w
    elig = w > 0
    key = np.where(elig, np.maximum(key, np.finfo(np.float64).min),
                   -np.inf)
    order = np.lexsort((ids, -key))
    keep = order[elig[order]][:k]
    return ids[keep], key[keep]


def test_weighted_sample_k_matches_serial_and_partitioning():
    from centrality_gpu_ray.functions.sampling import weighted_sample_k

    rng = np.random.default_rng(11)
    n = 5000
    ids = rng.permutation(np.arange(n, dtype=np.int64) * 7 + 3)
    w = rng.gamma(2.0, 2.0, size=n)
    w[::17] = 0.0          # never win
    w[1::23] = -1.0        # never win
    df = pd.DataFrame({"doc_id": ids, "weight": w})
    want_ids, want_keys = _es_serial(ids, w, 100, seed=5)
    for parts in (1, 6):
        ds = ray.data.from_pandas(df).repartition(parts)
        got = weighted_sample_k(ds, 100, "weight", seed=5).to_pandas()
        assert got["doc_id"].tolist() == list(want_ids), parts
        np.testing.assert_allclose(got["sample_key"], want_keys)
        assert (got["weight"] > 0).all()
        # sorted: key desc
        assert (np.diff(got["sample_key"]) <= 0).all()


def test_weighted_sample_k_inclusion_bias():
    """Heavy rows must dominate: weight 100 vs 1 at k = n/10."""
    from centrality_gpu_ray.functions.sampling import weighted_sample_k

    n = 2000
    ids = np.arange(n, dtype=np.int64)
    w = np.where(ids < 100, 100.0, 1.0)
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids, "weight": w}))
    hits = []
    for seed in range(5):
        got = weighted_sample_k(ds, 200, "weight", seed=seed).to_pandas()
        hits.append((got["doc_id"] < 100).sum())
    # each heavy row is ~100x likelier than a light one; with 100 heavy
    # rows at weight 100 vs 1900 light at 1, heavies are ~95%+ included
    assert min(hits) >= 80, hits


def test_weighted_sample_k_all_nonpositive_weights_empty():
    from centrality_gpu_ray.functions.sampling import weighted_sample_k

    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(5, dtype=np.int64),
         "weight": np.zeros(5)}))
    got = weighted_sample_k(ds, 3, "weight")
    assert got.num_rows == 0
    assert got.column_names == ["doc_id", "weight", "sample_key"]


def test_weighted_sample_k_subnormal_weights_stay_eligible():
    """ln(u)/w overflows to -inf for subnormal w — a POSITIVE weight
    must remain a candidate (clamped key), not be dropped like w<=0."""
    from centrality_gpu_ray.functions.sampling import weighted_sample_k

    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(6, dtype=np.int64),
         "weight": np.array([1.0, 5e-324, 5e-324, 0.0, -1.0, 2.0])}))
    got = weighted_sample_k(ds, 6, "weight").to_pandas()
    # k exceeds the finite-key population: both subnormal-weight rows
    # are included; the zero/negative rows never are
    assert sorted(got["doc_id"]) == [0, 1, 2, 5]
    assert np.isfinite(got["sample_key"]).all()


def test_weighted_sample_k_null_ids_raise():
    import pyarrow as pa

    from centrality_gpu_ray.functions.sampling import weighted_sample_k

    tbl = pa.table({"doc_id": pa.array([1, None, 3], type=pa.int64()),
                    "weight": pa.array([1.0, 1.0, 1.0])})
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(Exception, match="contains nulls"):
        weighted_sample_k(ds, 2, "weight")


# ---------------------------------------------------------------------------
# chunk_documents — fixed token windows
# ---------------------------------------------------------------------------

def _chunks_serial(text, max_tokens, stride, min_tokens=1):
    toks = text.split()
    n = len(toks)
    out = []
    for b in range(0, max(n, 1), stride):
        if b > 0 and b + max_tokens - stride >= n:
            break
        piece = toks[b:b + max_tokens]
        if len(piece) >= min_tokens:
            out.append(" ".join(piece))
    return out


def test_chunk_documents_disjoint_and_overlap():
    from centrality_gpu_ray.functions.packing import chunk_documents

    texts = ["a b c d e f g h i j",       # 10 tokens
             "one  two   three",          # whitespace runs normalize
             "",                          # empty -> no chunks
             "solo",
             " ".join(f"t{i}" for i in range(23))]
    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                       "text": texts})
    for max_t, stride in ((4, 4), (4, 2), (8, 3)):
        ds = ray.data.from_pandas(df).repartition(2)
        got = chunk_documents(ds, max_t, stride).to_pandas() \
            .sort_values(["doc_id", "chunk_id"])
        for did, sub in got.groupby("doc_id"):
            want = _chunks_serial(texts[did], max_t, stride)
            assert sub["text"].tolist() == want, (did, max_t, stride)
            assert sub["chunk_id"].tolist() == list(range(len(want)))
            assert (sub["n_tokens"] ==
                    sub["text"].str.split().str.len()).all()
        assert set(got["doc_id"]) == {0, 1, 3, 4}  # empty doc dropped

    # coverage invariant (stride<=max): every token of every doc
    # appears in at least one chunk
    ds = ray.data.from_pandas(df)
    got = chunk_documents(ds, 4, 2).to_pandas()
    for did in (0, 4):
        toks = set(texts[did].split())
        seen = set(t for txt in got[got.doc_id == did]["text"]
                   for t in txt.split())
        assert seen == toks


# ---------------------------------------------------------------------------
# hash_split
# ---------------------------------------------------------------------------

def test_hash_split_matches_duckdb_and_is_exhaustive():
    import duckdb

    from centrality_gpu_ray.functions.sampling import (hash_split,
                                                       hash_split_sql)

    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    got = hash_split(_docs(), fr).to_pandas()[
        ["doc_id", "split"]].sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(f"""
        SELECT doc_id, {hash_split_sql(fr)}
        FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id
    """).df()
    pd.testing.assert_frame_equal(got, want)
    # exhaustive + roughly proportional
    counts = got["split"].value_counts()
    assert counts.sum() == len(got)
    assert set(counts.index) <= {"train", "val", "test"}
    assert counts["train"] > counts["val"]


def test_hash_split_stable_under_partitioning_and_corpus_changes():
    from centrality_gpu_ray.functions.sampling import hash_split

    fr = {"train": 0.5, "test": 0.5}
    full = hash_split(_docs(), fr).to_pandas()
    repart = hash_split(_docs().repartition(7), fr).to_pandas()
    pd.testing.assert_frame_equal(
        full.sort_values("doc_id").reset_index(drop=True),
        repart.sort_values("doc_id").reset_index(drop=True))
    # removing half the corpus never migrates a surviving doc's split
    sub = hash_split(_docs().filter(lambda r: r["doc_id"] % 2 == 0),
                     fr).to_pandas()
    merged = sub.merge(full, on="doc_id", suffixes=("_sub", "_full"))
    assert (merged["split_sub"] == merged["split_full"]).all()


def test_hash_split_validation():
    from centrality_gpu_ray.functions.sampling import hash_split

    with pytest.raises(ValueError, match="sum to 1"):
        hash_split(_docs(), {"a": 0.5, "b": 0.6})
    with pytest.raises(ValueError, match=">= 0"):
        hash_split(_docs(), {"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError, match="at least one"):
        hash_split(_docs(), {})


def test_hash_split_single_split_takes_all():
    from centrality_gpu_ray.functions.sampling import (hash_split,
                                                       hash_split_sql)

    got = hash_split(_docs(), {"all": 1.0}).to_pandas()
    assert (got["split"] == "all").all()
    assert hash_split_sql({"all": 1.0}) == "'all' AS split"
