"""Deterministic synthetic source-code corpus (engine input).

Per ``BASELINE.json`` ``input_hint`` the engine's input is a Parquet
table ``(repo:string, path:string, commit:string, lang:string,
content:string)``. No such table exists in ``/root/testdata``, so we
synthesize one deterministically (fixed seed, no external data) for
tests and benchmarks — including one zipf-skewed "monorepo" and shared
hub directory prefixes so the derived edge table exercises hub-skewed
supersteps (FIXTURES.md §1).

Generation is vectorized numpy; rows are a pure function of
``(seed, num_rows)`` so every run (and every scale that is a prefix of
a larger scale) produces identical rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

LANGS = np.asarray(["py", "c", "cpp", "rs", "go", "js"])

_SNIPPET_TEMPLATES = [
    "def f{0}(x):\n    return x * {1} + {2}\n",
    "int f{0}(int x) {{ return x * {1} + {2}; }}\n",
    "fn f{0}(x: i64) -> i64 {{ x * {1} + {2} }}\n",
    "func f{0}(x int) int {{ return x*{1} + {2} }}\n",
    "const f{0} = (x) => x * {1} + {2};\n",
    "f{0} = lambda x: x * {1} + {2}\n",
]


def _zipf_indices(rng: np.random.Generator, n_items: int, size: int, a: float = 1.3) -> np.ndarray:
    """Zipf-skewed indices in [0, n_items): item 0 is the hot 'monorepo'."""
    ranks = rng.zipf(a, size=size)
    return np.minimum(ranks - 1, n_items - 1).astype(np.int64)


def generate_corpus_table(num_rows: int = 5_000, seed: int = 42, num_repos: int = 50,
                          num_dirs: int = 40, commits_per_repo: int = 20) -> pa.Table:
    """Build the corpus as one Arrow table (small scales only; for bench
    scales call this in chunks via :func:`corpus_dataset`)."""
    rng = np.random.default_rng(seed)
    repo_idx = _zipf_indices(rng, num_repos, num_rows)
    # Shared top-level dirs across repos -> hub dir-entities (degree skew).
    dir_idx = _zipf_indices(rng, num_dirs, num_rows, a=1.2)
    sub_idx = rng.integers(0, 8, size=num_rows)
    file_idx = rng.integers(0, 500, size=num_rows)
    commit_seq = rng.integers(0, commits_per_repo, size=num_rows)
    lang_idx = rng.integers(0, len(LANGS), size=num_rows)
    t_a = rng.integers(0, len(_SNIPPET_TEMPLATES), size=num_rows)
    t_b = rng.integers(1, 1000, size=num_rows)
    t_c = rng.integers(1, 1000, size=num_rows)

    repos = np.asarray([f"org{i % 7}/repo{i}" for i in range(num_repos)])[repo_idx]
    paths = np.asarray(
        [f"src{d // 10}/mod{d}" for d in range(num_dirs)]
    )[dir_idx]
    paths = np.char.add(
        np.char.add(paths.astype(str), np.asarray([f"/sub{s}" for s in range(8)])[sub_idx]),
        np.asarray([f"/file{f}.txt" for f in range(500)])[file_idx],
    )
    commits = np.asarray([
        hashlib.sha1(f"{r}@{c}".encode()).hexdigest()
        for r, c in zip(repos, commit_seq)
    ])
    contents = np.asarray([
        _SNIPPET_TEMPLATES[a].format(b, b, c)
        for a, b, c in zip(t_a, t_b, t_c)
    ])
    return pa.table({
        "repo": pa.array(repos, type=pa.string()),
        "path": pa.array(paths, type=pa.string()),
        "commit": pa.array(commits, type=pa.string()),
        "lang": pa.array(LANGS[lang_idx], type=pa.string()),
        "content": pa.array(contents, type=pa.string()),
    })


def corpus_dataset(num_rows: int = 5_000, seed: int = 42, **kw):
    """The corpus as a ``ray.data.Dataset`` (generated driver-side once,
    then distributed; fine at test scale — a real deployment reads the
    10^12-file Parquet corpus with ``read_parquet(columns=...)``)."""
    import ray.data

    tbl = generate_corpus_table(num_rows=num_rows, seed=seed, **kw)
    return ray.data.from_arrow(tbl)


def write_corpus_parquet(path: str, num_rows: int = 5_000, seed: int = 42, **kw) -> str:
    import pyarrow.parquet as pq

    pq.write_table(generate_corpus_table(num_rows=num_rows, seed=seed, **kw), path)
    return path


# ---------------------------------------------------------------------------
# Interchange readers — JSONL / CSV corpora normalized to one schema
# ---------------------------------------------------------------------------

def _normalize_documents(batch, id_col: str, text_col: str):
    """Shared normalize: ensure (doc_id:int64, text:string) lead the
    schema; missing ids are minted from the text's sha256 prefix —
    stable across partitionings, unlike row position (which depends on
    how files split)."""
    import pandas as pd

    out = batch.copy()
    if text_col not in out.columns:
        raise ValueError(f"corpus lacks a {text_col!r} field")
    out[text_col] = out[text_col].astype(object).fillna("")
    # schema union across files/rows leaves missing ids as NaN, not as
    # an absent column — mint per-row where null
    if id_col not in out.columns:
        out[id_col] = np.nan
    ids = out[id_col]
    null = pd.isna(ids)
    if null.any():
        # mint from sha256(text + every OTHER column value): text alone
        # would give two distinct rows with identical text the same id,
        # violating the uniqueness downstream operators assume
        # (exact_dedup keep-one, remove_repeated_paragraphs' pos
        # encoding). Rows identical in EVERY column are true duplicates
        # and still collapse to one id — documented behavior.
        sub = out.loc[null]
        key = sub[text_col].astype(str)
        for c in out.columns:
            if c in (id_col, text_col):
                continue
            key = key + "\x1f" + sub[c].astype(str)
        minted = [
            int.from_bytes(hashlib.sha256(k.encode()).digest()[:8],
                           "big") >> 1
            for k in key]
        ids = ids.astype(object)
        ids[null.to_numpy()] = minted
        out[id_col] = ids
    out[id_col] = out[id_col].astype(np.int64)
    cols = [id_col, text_col] + [c for c in out.columns
                                 if c not in (id_col, text_col)]
    return out[cols]


def documents_from_jsonl(paths, id_col: str = "doc_id",
                         text_col: str = "text", **read_kw):
    """Read a JSONL corpus (the most common training-data interchange
    format) into the engine's ``documents`` shape. Streaming:
    ``ray.data.read_json`` + one vectorized normalize pass."""
    import ray.data

    def norm(batch):
        return _normalize_documents(batch, id_col, text_col)

    norm.__name__ = "normalize_jsonl"
    return ray.data.read_json(paths, **read_kw).map_batches(
        norm, batch_format="pandas")


def documents_from_csv(paths, id_col: str = "doc_id",
                       text_col: str = "text", **read_kw):
    """CSV variant of :func:`documents_from_jsonl` (same normalize)."""
    import ray.data

    def norm(batch):
        return _normalize_documents(batch, id_col, text_col)

    norm.__name__ = "normalize_csv"
    return ray.data.read_csv(paths, **read_kw).map_batches(
        norm, batch_format="pandas")
