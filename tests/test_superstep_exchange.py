"""The two-hop superstep exchange (P shard gathers → P owner combines,
each combine returning the next step's chunk): owner state stays
bit-identical to the exchange it replaced, no loop runs an ``assemble``
task per superstep, and one pool serves a chain of algorithms with
bit-identical repeats."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines import (
    Graph, connected_components, label_propagation, pagerank)
from centrality_gpu_ray.pipelines.shards import ShardPool

from fixtures import hub_skewed_graph

# sha256 prefixes of the owners' final state bytes on hub_skewed_graph,
# recorded with the previous exchange (owner chunks → one assemble task
# → shard gathers → owner combines → driver) in the suite's 4-CPU Ray
# session: the edge blocks, hence each shard's partial sums, follow the
# cluster width. Dense and sharded graphs give the same bytes.
_PINNED = {
    1: {"pr": "519f07be38d1d1a1", "pr_w": "2b5557ec23d48e89",
        "ppr": "738f33eea464b0d0", "ev": "c6d07d207c784cd8",
        "katz": "d1aa6798a5e18ef4"},
    3: {"pr": "519f07be38d1d1a1", "pr_w": "81e587ad658b60fc",
        "ppr": "738f33eea464b0d0", "ev": "26e546a4e90fd778",
        "katz": "d1aa6798a5e18ef4"},
    5: {"pr": "519f07be38d1d1a1", "pr_w": "446e3db6888e8446",
        "ppr": "738f33eea464b0d0", "ev": "6575116543d39cc6",
        "katz": "d1aa6798a5e18ef4"},
}


def _pooled(tbl, k: int, sharded: bool = False) -> Graph:
    """A distributed graph of ``tbl`` on a pool of ``k`` actors."""
    kw = ({"config": EngineConfig(dense_vertex_limit=50)} if sharded
          else {"mode": "distributed"})
    g = Graph(ray.data.from_arrow(tbl), **kw)
    assert g.sharded == sharded
    g._pool = ShardPool(g.edges, num_shards=k)
    return g


@pytest.mark.parametrize("sharded", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_owner_state_digests_pinned(k, sharded):
    """PageRank (plain, weighted, personalized), eigenvector and Katz
    leave the owners' state byte for byte as the previous exchange did:
    owner sums keep their order."""
    from centrality_gpu_ray.pipelines.eigenvector import (
        eigenvector_centrality, katz_centrality)

    g = _pooled(hub_skewed_graph(), k, sharded)
    limit = {"dense_vertex_limit": 50} if sharded else {}
    cfg = EngineConfig(tolerance=1e-12, max_supersteps=500, **limit)
    fixed = EngineConfig(tolerance=0.0, max_supersteps=30, **limit)
    runs = {"pr": lambda h: pagerank(h, cfg),
            "pr_w": lambda h: pagerank(h, cfg, weighted=True),
            "ppr": lambda h: pagerank(h, cfg,
                                      personalization={0: 2.0, 1059: 1.0}),
            "ev": lambda h: eigenvector_centrality(h, fixed, weighted=True),
            "katz": lambda h: katz_centrality(h, 0.01, config=fixed)}
    try:
        got = {}
        for name, run in runs.items():
            run(g)
            got[name] = hashlib.sha256(
                g.pool.collect_state().tobytes()).hexdigest()[:16]
        assert got == _PINNED[k]
    finally:
        g.pool.shutdown()


def _path(n: int) -> pa.Table:
    s = np.arange(n - 1, dtype=np.int64)
    return pa.table({"src": s * 3 + 1, "dst": s * 3 + 4,
                     "weight": np.ones(n - 1, dtype=np.int64)})


def _rising_path(n: int) -> pa.Table:
    """A path whose vertices' MIS/JP priorities (seed 0) rise along it:
    MIS then takes ceil(n/2) rounds and coloring n."""
    from centrality_gpu_ray.pipelines.mis import mis_priorities

    ids = np.arange(1000, dtype=np.int64)
    ids = ids[np.argsort(mis_priorities(ids, 0))][:n]
    return pa.table({"src": ids[:-1], "dst": ids[1:],
                     "weight": np.ones(n - 1, dtype=np.int64)})


def test_assemble_calls_do_not_grow_with_supersteps(monkeypatch, on_pool):
    """Each loop family runs once short and once long; the number of
    ``shards.assemble`` calls must not change with the superstep
    count, i.e. no loop runs an assemble task per superstep."""
    from centrality_gpu_ray.pipelines import shards
    from centrality_gpu_ray.pipelines.bfs import bfs
    from centrality_gpu_ray.pipelines.coloring import greedy_coloring
    from centrality_gpu_ray.pipelines.eigenvector import katz_centrality
    from centrality_gpu_ray.pipelines.mis import maximal_independent_set
    from centrality_gpu_ray.pipelines.peel import peel
    from centrality_gpu_ray.pipelines.sssp import sssp

    calls = []
    real = shards.assemble
    monkeypatch.setattr(shards, "assemble",
                        lambda parts: calls.append(1) or real(parts))

    def fixed(steps):
        return EngineConfig(tolerance=0.0, max_supersteps=steps)

    hub = hub_skewed_graph()
    families = {
        # name: (graph table, run(graph, short_or_long) -> metrics)
        "pagerank": (hub, lambda g, x: pagerank(g, fixed(x), metrics=m)),
        "ppr": (hub, lambda g, x: pagerank(
            g, fixed(x), personalization={0: 1.0}, metrics=m)),
        "katz": (hub, lambda g, x: katz_centrality(
            g, 0.01, config=fixed(x), metrics=m)),
        "labelprop": (hub, lambda g, x: label_propagation(
            g, max_supersteps=x, metrics=m)),
        "peel": (_path(40), lambda g, x: m.update(rounds=1 + int(max(
            peel(g, k=2, max_rounds=x)[0].column("round_removed")
            .to_numpy())))),
        "components": (None, lambda g, x: connected_components(
            g, metrics=m)),
        "sssp": (None, lambda g, x: sssp(g, 1, metrics=m)),
        "bfs": (None, lambda g, x: bfs(g, 1, metrics=m)),
        "mis": (None, lambda g, x: maximal_independent_set(g, metrics=m)),
        "coloring": (None, lambda g, x: greedy_coloring(g, metrics=m)),
    }
    # the families without a superstep cap run on a short and a long path
    paths = {"components": (_path(4), _path(300)),
             "sssp": (_path(4), _path(9)), "bfs": (_path(4), _path(9)),
             "mis": (_rising_path(5), _rising_path(15)),
             "coloring": (_rising_path(3), _rising_path(8))}
    for name, (tbl, run) in families.items():
        seen = []
        for i, steps in enumerate((3, 8)):
            t = tbl if tbl is not None else paths[name][i]
            g = Graph(ray.data.from_arrow(t), mode="distributed")
            _ = g.pool
            m: dict = {}
            calls.clear()
            run(g, steps)
            g.pool.shutdown()
            rounds = (m.get("supersteps") or m.get("rounds")
                      or m.get("depth"))
            seen.append((rounds, len(calls)))
        (r_short, a_short), (r_long, a_long) = seen
        assert r_short < r_long, (name, seen)
        assert a_short == a_long, (name, seen)
    assert len(on_pool) == 4  # MIS and coloring ran on the pool


@pytest.mark.parametrize("k", [1, 3, 5])
def test_pool_reuse_repeats_bit_identical(k):
    """One pool runs PageRank → CC → LP → PageRank → CC: the carries
    live in each loop, so no algorithm feeds another a stale chunk and
    every repeat is bit-identical."""
    g = _pooled(hub_skewed_graph(), k)
    cfg = EngineConfig(tolerance=1e-12, max_supersteps=500)
    try:
        runs = [lambda: pagerank(g, cfg).column("pagerank"),
                lambda: connected_components(g).column("component"),
                lambda: label_propagation(g).column("label")]
        first = [run().to_numpy() for run in runs]
        again = [run().to_numpy() for run in runs[:2]]
        for a, b in zip(first, again):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    finally:
        g.pool.shutdown()
