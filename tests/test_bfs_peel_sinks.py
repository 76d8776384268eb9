"""BFS, peeling, and sink operators."""

import numpy as np
import pytest

from centrality_gpu_ray.pipelines.bfs import bfs
from centrality_gpu_ray.pipelines.components import connected_components
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.peel import pendant_prune, peel
from centrality_gpu_ray.sources.edgelist import fixture_dataset
from centrality_gpu_ray.state.sinks import (
    component_size_histogram, read_scores, write_scores)

# hand-derived BFS levels from vertex 0 on test1
# edges: (0,1)(0,6)(0,8)(1,2)(2,3)(3,4)(3,7)(3,8)(4,5)(5,8)(6,7)(7,8)
T1_LEVELS_FROM_0 = {0: 0, 1: 1, 6: 1, 8: 1, 2: 2, 7: 2, 3: 2, 5: 2, 4: 3}


@pytest.mark.parametrize("mode", ["local", "distributed"])
def test_bfs_levels(mode):
    g = Graph(fixture_dataset("test1"), mode=mode)
    m = {}
    t = bfs(g, 0, metrics=m).to_pandas()
    got = dict(zip(t["node"], t["level"]))
    assert got == T1_LEVELS_FROM_0
    assert m["reached"] == 9
    # parents are deterministic min-id at the previous level
    p = dict(zip(t["node"], t["parent"]))
    assert p[2] == 1 and p[4] == 3 and p[0] == -1
    assert p[3] in (2, 7, 8)  # level-1/2 neighbor… must be min-id at level 1 → 8
    assert p[3] == 8


@pytest.mark.parametrize("mode", ["local", "distributed"])
def test_bfs_unreachable_on_test5(mode):
    g = Graph(fixture_dataset("test5"), mode=mode)
    t = bfs(g, 0).to_pandas()
    lv = dict(zip(t["node"], t["level"]))
    assert all(lv[v] >= 0 for v in range(9))
    assert all(lv[v] == -1 for v in range(9, 15))
    # disc_time: -1 for unreached; reached get 0..k-1 in (level, id) order
    dt = dict(zip(t["node"], t["disc_time"]))
    assert all(dt[v] == -1 for v in range(9, 15))
    reached = t[t.level >= 0].sort_values(["level", "node"])
    assert reached["disc_time"].tolist() == list(range(len(reached)))


@pytest.mark.parametrize("kind", ["local", "distributed", "sharded"])
def test_bfs_path_graph_runs_past_superstep_cap(kind):
    # a 150-vertex path searched from one end has 149 levels, more than
    # the default max_supersteps (100): BFS must run until a level adds
    # no vertex, on every graph kind
    import pyarrow as pa
    import ray.data

    from centrality_gpu_ray.config import EngineConfig

    ids = np.arange(150, dtype=np.int64) * 7 + 3
    edges = pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:]),
                      "weight": pa.array(np.ones(149, dtype=np.int64))})
    cfg = EngineConfig(dense_vertex_limit=50 if kind == "sharded"
                       else 5_000_000)
    g = Graph(ray.data.from_arrow(edges), config=cfg,
              mode="local" if kind == "local" else "distributed")
    assert g.sharded == (kind == "sharded")
    m = {}
    t = bfs(g, 3, metrics=m).to_pandas().sort_values("node")
    assert t["level"].tolist() == list(range(150))
    assert t["parent"].tolist() == [-1] + ids[:-1].tolist()
    assert m["depth"] == 149 and m["reached"] == 150
    if kind != "sharded":
        assert t["disc_time"].tolist() == list(range(150))


def test_pendant_prune_chain():
    import pyarrow as pa
    import ray.data

    # path 0-1-2-3-4 + triangle 4-5-6(-4): peeling eats the path, keeps triangle
    edges = pa.table({
        "src": pa.array([0, 1, 2, 3, 4, 5, 4], type=pa.int64()),
        "dst": pa.array([1, 2, 3, 4, 5, 6, 6], type=pa.int64()),
        "weight": pa.array([1] * 7, type=pa.int64()),
    })
    g = Graph(ray.data.from_arrow(edges))
    rounds, core = pendant_prune(g)
    r = dict(zip(rounds["node"].to_pylist(), rounds["round_removed"].to_pylist()))
    assert r[0] == 0 and r[1] == 1 and r[2] == 2 and r[3] == 3
    assert r[4] == -1 and r[5] == -1 and r[6] == -1
    kept = set(zip(core["src"].to_pylist(), core["dst"].to_pylist()))
    assert kept == {(4, 5), (4, 6), (5, 6)}


def _table(result):
    """Sharded results are Datasets; dense ones tables."""
    import pyarrow as pa
    import ray

    if isinstance(result, pa.Table):
        return result
    return pa.concat_tables(ray.get(result.to_arrow_refs()))


@pytest.mark.parametrize("mode", ["local", "distributed", "sharded"])
def test_kcore_modes_agree(mode):
    import collections

    import pyarrow as pa
    import ray.data

    from centrality_gpu_ray.config import EngineConfig

    def graph(ds, n):
        if mode == "sharded":
            g = Graph(ds, config=EngineConfig(dense_vertex_limit=n - 1))
            assert g.sharded
            return g
        return Graph(ds, mode=mode)

    rounds, core = (_table(t) for t in peel(graph(fixture_dataset("test4"),
                                                  21), k=3))
    # survivors all have degree >= 3 within the core
    deg = collections.Counter()
    for s, d in zip(core["src"].to_pylist(), core["dst"].to_pylist()):
        deg[s] += 1
        deg[d] += 1
    assert all(v >= 3 for v in deg.values()) or len(deg) == 0
    assert set(deg) <= {v for v, r in zip(rounds["node"].to_pylist(),
                                          rounds["round_removed"].to_pylist())
                        if r == -1}

    # K1,3 at k = 3: the leaves go in round 0, which leaves the centre at
    # degree 0 but never below-k-and-positive, so it stays at -1 with no
    # core edge (the semantics the graph_kcore SQL oracle mirrors)
    star = pa.table({"src": pa.array([5, 5, 5], type=pa.int64()),
                     "dst": pa.array([6, 7, 8], type=pa.int64())})
    rounds, core = (_table(t) for t in peel(
        graph(ray.data.from_arrow(star), 4), k=3))
    got = dict(zip(rounds["node"].to_pylist(),
                   rounds["round_removed"].to_pylist()))
    assert got == {5: -1, 6: 0, 7: 0, 8: 0}
    assert core.num_rows == 0


def test_write_read_scores_roundtrip(tmp_path):
    import pyarrow as pa

    t = pa.table({"node": pa.array(np.arange(100, dtype=np.int64)[::-1]),
                  "score": pa.array(np.linspace(0, 1, 100))})
    out = str(tmp_path / "scores")
    manifest = write_scores(t, out, num_partitions=4, job_meta={"algorithm": "pr"})
    assert len(manifest["partitions"]) == 4
    back = read_scores(out).to_pandas().sort_values("node").reset_index(drop=True)
    orig = t.to_pandas().sort_values("node").reset_index(drop=True)
    assert back.equals(orig)
    # idempotent rewrite
    manifest2 = write_scores(t, out, num_partitions=4)
    assert [p["rows"] for p in manifest2["partitions"]] == \
        [p["rows"] for p in manifest["partitions"]]


def test_component_size_histogram():
    g = Graph(fixture_dataset("test5"))
    cc = connected_components(g)
    hist = component_size_histogram(cc).to_pandas()
    assert dict(zip(hist["size"], hist["num_components"])) == {9: 1, 6: 1}
