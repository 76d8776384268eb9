"""Link prediction: DuckDB value oracle, local/distributed parity,
top-k determinism, hub capping."""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.linkpred import link_prediction

COLS = ["u", "v", "cn", "aa_micro", "ra_micro", "jaccard_micro",
        "deg_u", "deg_v"]


def _random_edges(seed: int, n: int = 40, m: int = 120,
                  id_map=lambda v: v * 3 + 7) -> pa.Table:
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, size=m)
    d = rng.integers(0, n, size=m)
    keep = s != d
    lo = np.minimum(s[keep], d[keep])
    hi = np.maximum(s[keep], d[keep])
    uniq = np.unique(lo * n + hi)
    return pa.table({"src": pa.array(id_map(uniq // n).astype(np.int64)),
                     "dst": pa.array(id_map(uniq % n).astype(np.int64))})


def _oracle(edges: pa.Table) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("edges", edges)
    return con.execute("""
        WITH sym AS (
            SELECT src AS s, dst AS d FROM edges
            UNION ALL SELECT dst, src FROM edges),
        deg AS (SELECT s AS v, COUNT(*) AS c FROM sym GROUP BY s),
        sc AS (
            SELECT a.d AS u, b.d AS v, COUNT(*) AS cn,
                   SUM(CAST(FLOOR(1e6/LN(dw.c) + 0.5) AS BIGINT))
                       AS aa_micro,
                   SUM(CAST(FLOOR(1e6/dw.c + 0.5) AS BIGINT)) AS ra_micro
            FROM sym a JOIN sym b ON a.s = b.s AND a.d < b.d
            JOIN deg dw ON dw.v = a.s
            GROUP BY a.d, b.d),
        nonadj AS (
            SELECT sc.* FROM sc
            LEFT JOIN edges e ON sc.u = e.src AND sc.v = e.dst
            WHERE e.src IS NULL)
        SELECT n.u, n.v, n.cn, n.aa_micro, n.ra_micro,
               CAST(FLOOR(1e6*n.cn/(du.c + dv.c - n.cn) + 0.5) AS BIGINT)
                   AS jaccard_micro,
               du.c AS deg_u, dv.c AS deg_v
        FROM nonadj n JOIN deg du ON n.u = du.v JOIN deg dv ON n.v = dv.v
        ORDER BY n.u, n.v
    """).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return (df[COLS].astype(np.int64)
            .sort_values(["u", "v"]).reset_index(drop=True))


@pytest.mark.parametrize("seed", [1, 2])
def test_local_matches_duckdb(seed):
    edges = _random_edges(seed)
    g = Graph(ray.data.from_arrow(edges), mode="local")
    got = _norm(link_prediction(g).to_pandas())
    want = _norm(_oracle(edges))
    pd.testing.assert_frame_equal(got, want)
    # every output pair is genuinely non-adjacent and u < v
    ek = set(zip(edges.column("src").to_pylist(),
                 edges.column("dst").to_pylist()))
    assert all(u < v and (u, v) not in ek
               for u, v in zip(got["u"], got["v"]))


def test_distributed_matches_local():
    edges = _random_edges(5)
    cfg = EngineConfig(num_partitions=4)
    g_loc = Graph(ray.data.from_arrow(edges), mode="local", config=cfg)
    g_dist = Graph(ray.data.from_arrow(edges).repartition(3),
                   mode="distributed", config=cfg)
    want = _norm(link_prediction(g_loc).to_pandas())
    got = _norm(link_prediction(g_dist).to_pandas())
    pd.testing.assert_frame_equal(got, want)


def test_top_k_deterministic_both_modes():
    edges = _random_edges(7)
    cfg = EngineConfig(num_partitions=4)
    g_loc = Graph(ray.data.from_arrow(edges), mode="local", config=cfg)
    g_dist = Graph(ray.data.from_arrow(edges).repartition(3),
                   mode="distributed", config=cfg)
    want = link_prediction(g_loc, top_k=10).to_pandas()[COLS]
    got = link_prediction(g_dist, top_k=10).to_pandas()[COLS]
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))
    full = _norm(link_prediction(g_loc).to_pandas())
    assert want["cn"].iloc[0] == full["cn"].max()
    assert (want["cn"].values[:-1] >= want["cn"].values[1:]).all()


def test_max_center_degree_drops_hub_whole():
    # star (hub 0 — degree 6) plus one triangle edge pair elsewhere
    hub_edges = [(0, i) for i in range(1, 7)] + [(1, 2), (7, 8), (7, 9)]
    t = pa.table({"src": pa.array([a for a, _ in hub_edges],
                                  type=pa.int64()),
                  "dst": pa.array([b for _, b in hub_edges],
                                  type=pa.int64())})
    for mode in ("local", "distributed"):
        g = Graph(ray.data.from_arrow(t), mode=mode,
                  config=EngineConfig(num_partitions=2))
        m: dict = {}
        got = link_prediction(g, max_center_degree=3,
                              metrics=m).to_pandas()
        # hub-center wedges gone: pairs like (3,4) (only via center 0)
        # absent; (8,9) via center 7 (deg 2) survives
        pairs = set(zip(got["u"], got["v"]))
        assert (3, 4) not in pairs
        assert (8, 9) in pairs
        assert m["truncated_centers"] == 1  # only the hub exceeds 3


def _naive_training_set(edges: pa.Table, neg_per_pos: int, seed: int):
    """Independent per-edge Python reference of the corrupted-endpoint
    negative sampler (shares only the rng helper)."""
    from centrality_gpu_ray.nputil import splitmix
    from centrality_gpu_ray.pipelines.linkpred import _NEG_SALT

    src = edges.column("src").to_numpy()
    dst = edges.column("dst").to_numpy()
    ids = np.unique(np.concatenate([src, dst]))
    dense = {int(v): i for i, v in enumerate(ids)}
    n = ids.size
    es = np.array([dense[int(a)] for a in src])
    ed = np.array([dense[int(b)] for b in dst])
    ekeys = {(min(a, b), max(a, b)) for a, b in zip(es, ed)}
    pos = sorted((int(ids[a]), int(ids[b]), 1)
                 for a, b in zip(np.minimum(es, ed), np.maximum(es, ed)))
    negs = set()
    for a, b in zip(np.minimum(es, ed), np.maximum(es, ed)):
        key = np.array([a * n + b], dtype=np.int64).view(np.uint64)
        for j in range(1, neg_per_pos + 1):
            salt = splitmix(np.array([j], dtype=np.uint64) * _NEG_SALT
                            ^ np.uint64(seed))[0]
            v2 = int((splitmix(key ^ salt) % np.uint64(n))[0])
            if v2 == a:
                continue
            pair = (min(a, v2), max(a, v2))
            if pair not in ekeys:
                negs.add((int(ids[pair[0]]), int(ids[pair[1]]), 0))
    return pos, sorted(negs)


@pytest.mark.parametrize("neg_per_pos", [1, 3])
def test_training_set_matches_naive(neg_per_pos):
    from centrality_gpu_ray.pipelines.linkpred import linkpred_training_set

    edges = _random_edges(9)
    g = Graph(ray.data.from_arrow(edges), mode="local")
    got = linkpred_training_set(g, neg_per_pos=neg_per_pos, seed=5)
    rows = sorted(zip(got.column("u").to_pylist(),
                      got.column("v").to_pylist(),
                      got.column("label").to_pylist()))
    pos, neg = _naive_training_set(edges, neg_per_pos, 5)
    assert rows == sorted(pos + neg)
    # every negative is a genuine non-edge, every positive an edge
    ek = set(zip(edges.column("src").to_pylist(),
                 edges.column("dst").to_pylist()))
    for u, v, lab in rows:
        assert ((u, v) in ek) == (lab == 1)


def test_training_set_distributed_parity():
    from centrality_gpu_ray.pipelines.linkpred import linkpred_training_set

    edges = _random_edges(10)
    cfg = EngineConfig(num_partitions=3)
    g_loc = Graph(ray.data.from_arrow(edges), mode="local", config=cfg)
    g_dist = Graph(ray.data.from_arrow(edges).repartition(4),
                   mode="distributed", config=cfg)
    want = linkpred_training_set(g_loc, neg_per_pos=2, seed=1)
    got = linkpred_training_set(g_dist, neg_per_pos=2, seed=1).to_pandas()
    want_rows = sorted(zip(want.column("u").to_pylist(),
                           want.column("v").to_pylist(),
                           want.column("label").to_pylist()))
    got_rows = sorted(zip(got["u"], got["v"], got["label"]))
    assert got_rows == want_rows


def test_empty_and_no_candidates():
    # a single edge: no wedges at all
    t = pa.table({"src": pa.array([1], type=pa.int64()),
                  "dst": pa.array([2], type=pa.int64())})
    g = Graph(ray.data.from_arrow(t), mode="local")
    assert link_prediction(g).num_rows == 0
    # triangle: every distance-2 pair is adjacent -> empty output
    t3 = pa.table({"src": pa.array([1, 1, 2], type=pa.int64()),
                   "dst": pa.array([2, 3, 3], type=pa.int64())})
    g3 = Graph(ray.data.from_arrow(t3), mode="local")
    assert link_prediction(g3).num_rows == 0
    # distributed empty result must carry the FINAL typed schema
    # (Ray skips empty blocks, so the stale pre-finalize schema would
    # otherwise leak out of to_pandas)
    g3d = Graph(ray.data.from_arrow(t3), mode="distributed",
                config=EngineConfig(num_partitions=2))
    m: dict = {}
    ds = link_prediction(g3d, metrics=m)
    assert ds.count() == 0
    # (to_pandas() on an all-empty Dataset drops columns — the typed
    # schema lives on the Dataset itself)
    assert ds.schema().names == COLS
    assert m["pairs"] == 0


def test_pairs_metric_parity():
    edges = _random_edges(11)
    cfg = EngineConfig(num_partitions=3)
    m_loc: dict = {}
    m_dist: dict = {}
    loc = link_prediction(Graph(ray.data.from_arrow(edges), mode="local",
                                config=cfg), top_k=5, metrics=m_loc)
    dist = link_prediction(
        Graph(ray.data.from_arrow(edges).repartition(2),
              mode="distributed", config=cfg), top_k=5, metrics=m_dist)
    dist.to_pandas()
    # both report the candidate-pair count BEFORE top_k truncation
    assert m_loc["pairs"] == m_dist["pairs"] > 5
    assert loc.num_rows == 5
