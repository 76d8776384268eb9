"""Owner-resident Jones–Plassmann coloring + MIS parity.

The pool loop keeps resident counters of undecided lower-priority
neighbors (+ neighbor-color sets for coloring) and ships only the
newly-decided vertices per round — on a dense distributed graph (fed
the driver's priority ranks) and on a sharded one (splitmix64 hashed
per owner: bijective, so the hash order IS the permutation-rank order)
it must be round-for-round identical to local mode, dtypes included:
counter==0 ⟺ the driver loop's ready/winner predicate."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.coloring import greedy_coloring
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.mis import maximal_independent_set


def _random_edges(seed: int, n: int = 300, m: int = 1200) -> pa.Table:
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, size=m)
    d = rng.integers(0, n, size=m)
    keep = s != d
    lo = np.minimum(s[keep], d[keep])
    hi = np.maximum(s[keep], d[keep])
    uniq = np.unique(lo * n + hi)
    # sparse original ids so the dictionary actually relabels; add an
    # isolated-ish chain component to cover multi-component rounds
    src = np.concatenate([(uniq // n), np.arange(n + 5, n + 15)])
    dst = np.concatenate([(uniq % n), np.arange(n + 6, n + 16)])
    return pa.table({"src": pa.array(src * 7 + 3),
                     "dst": pa.array(dst * 7 + 3)})


@pytest.fixture(scope="module")
def graphs(ray_session):
    tbl = _random_edges(5)
    local = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig(),
                  mode="distributed")
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=50))
    assert local.mode == "local"
    assert dense.mode == "distributed" and not dense.sharded
    assert sharded.sharded
    return local, dense, sharded


@pytest.fixture
def pair(graphs, on_pool):
    """(local graph, [dense pool graph, sharded graph], pools that ran
    ``jp_setup``): the dense distributed graph is forced off the
    driver arrays onto the pool."""
    local, dense, sharded = graphs
    return local, [dense, sharded], on_pool


def _same_as_local(pair, graph, op, cols, **kw):
    local, _, pools = pair
    ml, mp = {}, {}
    a = op(local, metrics=ml, **kw).to_pandas()
    assert pools == []
    b = op(graph, metrics=mp, **kw).to_pandas()
    assert pools == [graph.pool]
    assert mp["mode"] == ("sharded" if graph.sharded else "distributed")
    assert {k: v for k, v in mp.items() if k not in ("mode", "sec")} \
        == {k: v for k, v in ml.items() if k not in ("mode", "sec")}
    assert list(b.dtypes) == list(a.dtypes)
    merged = a.merge(b, on="node", suffixes=("_l", "_p"))
    assert len(merged) == local.num_vertices
    for c in cols:
        assert (merged[f"{c}_l"] == merged[f"{c}_p"]).all()
    pools.clear()


@pytest.mark.parametrize("seed", [0, 7])
def test_sharded_coloring_matches_dense(pair, seed):
    for g in pair[1]:
        _same_as_local(pair, g, greedy_coloring, ["color", "color_round"],
                       seed=seed)


@pytest.mark.parametrize("seed", [0, 3])
def test_sharded_mis_matches_dense(pair, seed):
    for g in pair[1]:
        _same_as_local(pair, g, maximal_independent_set,
                       ["in_mis", "mis_round"], seed=seed)


def test_dense_pool_mis_sha256_matches_local(pair):
    _same_as_local(pair, pair[1][0], maximal_independent_set,
                   ["in_mis", "mis_round"], seed=2,
                   priority_scheme="sha256")


def test_sharded_mis_rejects_sha256_scheme(pair):
    _, (_, sharded), _ = pair
    with pytest.raises(ValueError, match="splitmix"):
        maximal_independent_set(sharded, priority_scheme="sha256")


def test_sharded_coloring_proper(pair):
    # distributed properness: no edge with equal endpoint colors
    _, (_, sharded), _ = pair
    colors = greedy_coloring(sharded, seed=1).to_pandas()
    cmap = dict(zip(colors["node"], colors["color"]))
    edges = sharded.canonical_edges().to_pandas()
    bad = [(u, v) for u, v in zip(edges["src"], edges["dst"])
           if cmap[u] == cmap[v]]
    assert bad == []
