"""Jones–Plassmann greedy coloring: sequential-greedy oracle (JP
computes exactly the greedy coloring in priority order), properness,
mode parity, mex unit tests."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.coloring import greedy_coloring
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.mis import mis_priorities
from centrality_gpu_ray.shard_actor import _mex_compact


def _random_edges(seed: int, n: int = 50, m: int = 200) -> pa.Table:
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, size=m)
    d = rng.integers(0, n, size=m)
    keep = s != d
    lo = np.minimum(s[keep], d[keep])
    hi = np.maximum(s[keep], d[keep])
    uniq = np.unique(lo * n + hi)
    return pa.table({"src": pa.array((uniq // n) * 3 + 2),
                     "dst": pa.array((uniq % n) * 3 + 2)})


def _greedy_coloring_serial(edges: pa.Table, seed: int) -> dict[int, int]:
    src = edges.column("src").to_numpy()
    dst = edges.column("dst").to_numpy()
    ids = np.unique(np.concatenate([src, dst]))
    pri = mis_priorities(ids, seed)
    nbrs: dict[int, set[int]] = {int(v): set() for v in ids}
    for a, b in zip(src, dst):
        nbrs[int(a)].add(int(b))
        nbrs[int(b)].add(int(a))
    colors: dict[int, int] = {}
    for v in ids[np.argsort(pri)]:
        used = {colors[u] for u in nbrs[int(v)] if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[int(v)] = c
    return colors


def _engine(edges: pa.Table, seed: int, mode: str = "local",
            parts: int = 1, metrics=None) -> dict[int, int]:
    g = Graph(ray.data.from_arrow(edges).repartition(parts), mode=mode,
              config=EngineConfig(num_partitions=3))
    t = greedy_coloring(g, seed=seed, metrics=metrics)
    assert (t.column("color_round").to_numpy() >= 1).all()
    return dict(zip((int(x) for x in t.column("node").to_pylist()),
                    (int(x) for x in t.column("color").to_pylist())))


def test_mex_unit():
    n = 6
    v = np.array([0, 0, 0, 2, 2, 4], dtype=np.int64)
    c = np.array([0, 1, 3, 1, 1, 0], dtype=np.int64)
    mex = _mex_compact(v, c, n, n + 1)
    assert mex[0] == 2       # {0,1,3} -> 2
    assert mex[2] == 0       # {1} -> 0
    assert mex[4] == 1       # {0} -> 1
    assert mex[1] == 0 and mex[5] == 0  # no pairs
    assert _mex_compact(np.empty(0, np.int64), np.empty(0, np.int64),
                        3, 4).tolist() == [0, 0, 0]


@pytest.mark.parametrize("seed", [0, 5])
def test_matches_sequential_greedy(seed):
    edges = _random_edges(seed + 60)
    assert _engine(edges, seed) == _greedy_coloring_serial(edges, seed)


def test_proper_and_compact():
    edges = _random_edges(8, n=80, m=500)
    col = _engine(edges, seed=3)
    deg: dict[int, int] = {}
    for a, b in zip(edges.column("src").to_pylist(),
                    edges.column("dst").to_pylist()):
        assert col[a] != col[b]            # proper
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert max(col.values()) <= max(deg.values())  # greedy bound Δ+1


def test_distributed_matches_local():
    edges = _random_edges(14)
    m_l, m_d = {}, {}
    a = _engine(edges, seed=2, metrics=m_l)
    b = _engine(edges, seed=2, mode="distributed", parts=4, metrics=m_d)
    assert a == b
    assert m_l["rounds"] == m_d["rounds"]
    assert m_l["num_colors"] == m_d["num_colors"]


def test_clique_uses_exactly_k_colors():
    k = 7
    rows_s, rows_d = [], []
    for i in range(k):
        for j in range(i + 1, k):
            rows_s.append(i)
            rows_d.append(j)
    edges = pa.table({"src": pa.array(rows_s, type=pa.int64()),
                      "dst": pa.array(rows_d, type=pa.int64())})
    col = _engine(edges, seed=1)
    assert sorted(col.values()) == list(range(k))


def test_distributed_no_local_finish(on_pool):
    """A dense distributed graph over the driver-kernel edge limit runs
    the pool loop: equal to local mode in colors and rounds."""
    edges = _random_edges(17)
    m_l, m_d = {}, {}
    a = _engine(edges, seed=4, metrics=m_l)
    assert on_pool == []
    b = _engine(edges, seed=4, mode="distributed", parts=3, metrics=m_d)
    assert len(on_pool) == 1
    assert a == b
    assert m_l["rounds"] == m_d["rounds"]
    assert m_l["num_colors"] == m_d["num_colors"]
