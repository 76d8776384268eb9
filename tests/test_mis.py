"""Maximal independent set: sequential-greedy oracle (the parallel
rounds compute exactly the greedy-by-permutation MIS), independence/
maximality properties, DuckDB chained-round oracle, mode parity."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.mis import (maximal_independent_set,
                                              mis_priorities)


def _random_edges(seed: int, n: int = 50, m: int = 160) -> pa.Table:
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, size=m)
    d = rng.integers(0, n, size=m)
    keep = s != d
    lo = np.minimum(s[keep], d[keep])
    hi = np.maximum(s[keep], d[keep])
    uniq = np.unique(lo * n + hi)
    return pa.table({"src": pa.array((uniq // n) * 3 + 2),
                     "dst": pa.array((uniq % n) * 3 + 2)})


def _greedy_mis(edges: pa.Table, seed: int) -> set[int]:
    """Sequential greedy over the priority permutation — the parallel
    rounds provably compute exactly this set."""
    src = edges.column("src").to_numpy()
    dst = edges.column("dst").to_numpy()
    ids = np.unique(np.concatenate([src, dst]))
    pri = mis_priorities(ids, seed)
    nbrs: dict[int, set[int]] = {int(v): set() for v in ids}
    for a, b in zip(src, dst):
        nbrs[int(a)].add(int(b))
        nbrs[int(b)].add(int(a))
    mis: set[int] = set()
    for v in ids[np.argsort(pri)]:
        if not (nbrs[int(v)] & mis):
            mis.add(int(v))
    return mis


def _engine_mis(edges: pa.Table, seed: int, mode: str = "local",
                parts: int = 1, metrics=None) -> dict[int, tuple]:
    g = Graph(ray.data.from_arrow(edges).repartition(parts), mode=mode,
              config=EngineConfig(num_partitions=3))
    t = maximal_independent_set(g, seed=seed, metrics=metrics)
    return {int(n): (bool(f), int(r))
            for n, f, r in zip(t.column("node").to_pylist(),
                               t.column("in_mis").to_pylist(),
                               t.column("mis_round").to_pylist())}


@pytest.mark.parametrize("seed", [0, 7])
def test_matches_sequential_greedy(seed):
    edges = _random_edges(seed + 40)
    got = {v for v, (f, _r) in _engine_mis(edges, seed).items() if f}
    assert got == _greedy_mis(edges, seed)


def test_independence_and_maximality():
    edges = _random_edges(3, n=80, m=400)
    out = _engine_mis(edges, seed=5)
    mis = {v for v, (f, _r) in out.items() if f}
    pairs = list(zip(edges.column("src").to_pylist(),
                     edges.column("dst").to_pylist()))
    for a, b in pairs:
        assert not (a in mis and b in mis)          # independent
    for v, (f, _r) in out.items():
        if not f:                                   # maximal
            assert any((a == v and b in mis) or (b == v and a in mis)
                       for a, b in pairs), v
        assert _r >= 1                              # every vertex decided


def test_distributed_matches_local():
    edges = _random_edges(11)
    m_loc, m_dist = {}, {}
    a = _engine_mis(edges, seed=2, mode="local", metrics=m_loc)
    b = _engine_mis(edges, seed=2, mode="distributed", parts=4,
                    metrics=m_dist)
    assert a == b
    assert m_loc["rounds"] == m_dist["rounds"]


def test_matches_duckdb_chained_rounds():
    edges = _random_edges(19, n=40, m=120)
    src = edges.column("src").to_numpy()
    dst = edges.column("dst").to_numpy()
    ids = np.unique(np.concatenate([src, dst]))
    pri_tbl = pa.table({"node": pa.array(ids.astype(np.int64)),
                        "pri": pa.array(mis_priorities(ids, seed=6))})
    rounds = 25
    # AS MATERIALIZED everywhere: DuckDB inlines plain CTEs and the
    # chained rounds explode exponentially (CLAUDE.md round-2 lesson)
    parts = ["""
        WITH se AS MATERIALIZED (SELECT src AS a, dst AS b FROM edges
                    UNION ALL SELECT dst, src FROM edges),
        u0 AS MATERIALIZED (SELECT node, pri FROM pri)"""]
    for i in range(rounds):
        parts.append(f""",
        m{i} AS MATERIALIZED (SELECT n.node FROM u{i} n
                 LEFT JOIN (SELECT se.a AS node, MIN(p.pri) AS mp
                            FROM se JOIN u{i} p ON p.node = se.b
                            GROUP BY se.a) g USING (node)
                 WHERE n.pri < COALESCE(g.mp, 1e18)),
        x{i} AS MATERIALIZED (SELECT DISTINCT se.b AS node FROM se
                 JOIN m{i} w ON w.node = se.a),
        u{i + 1} AS MATERIALIZED (SELECT node, pri FROM u{i}
                     WHERE node NOT IN (SELECT node FROM m{i})
                       AND node NOT IN (SELECT node FROM x{i}))""")
    union = " UNION ALL ".join(
        f"SELECT node, {i + 1} AS r FROM m{i}" for i in range(rounds))
    parts.append(f"""
        SELECT node, r FROM ({union})
        UNION ALL SELECT -424242, -424242
        WHERE EXISTS (SELECT 1 FROM u{rounds})""")
    con = duckdb.connect()
    con.register("edges", edges.to_pandas())
    con.register("pri", pri_tbl.to_pandas())
    want = con.sql("".join(parts)).df()
    assert not (want.node == -424242).any(), "oracle did not converge"
    want_d = {int(r.node): int(r.r) for r in want.itertuples()}
    got = _engine_mis(edges, seed=6)
    got_mis = {v: r for v, (f, r) in got.items() if f}
    assert got_mis == want_d


def test_seed_changes_set():
    edges = _random_edges(23, n=60, m=300)
    a = {v for v, (f, _r) in _engine_mis(edges, seed=0).items() if f}
    b = {v for v, (f, _r) in _engine_mis(edges, seed=1).items() if f}
    assert a != b


def test_distributed_no_local_finish(on_pool):
    """A dense distributed graph over the driver-kernel edge limit runs
    the pool loop: equal to local mode in values and rounds."""
    edges = _random_edges(29)
    m_l, m_d = {}, {}
    a = _engine_mis(edges, seed=3, metrics=m_l)
    assert on_pool == []
    b = _engine_mis(edges, seed=3, mode="distributed", parts=3,
                    metrics=m_d)
    assert len(on_pool) == 1
    assert a == b
    assert m_l["rounds"] == m_d["rounds"]
