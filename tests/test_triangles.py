"""Clustering-coefficient operator (brute-force per-vertex oracle,
dense + sharded parity, global metrics) and the shard-pool triangle
kernel across owner boundaries."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph

from fixtures import hub_skewed_graph


def test_clustering_coefficients_vs_oracle(ray_session):
    """Local clustering vs a brute-force per-vertex oracle, dense and
    sharded paths + the two global metrics."""
    import itertools

    from centrality_gpu_ray.pipelines.triangles import \
        clustering_coefficients

    rng = np.random.default_rng(4)
    n = 30
    s = rng.integers(0, n, 120)
    d = rng.integers(0, n, 120)
    keep = s != d
    tbl = pa.table({"src": pa.array((s[keep] * 3).astype(np.int64)),
                    "dst": pa.array((d[keep] * 3).astype(np.int64))})
    g = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    m = {}
    out = clustering_coefficients(g, metrics=m)
    pdf = out.to_pandas().set_index("node")

    nbrs: dict = {}
    for a, b in zip(tbl.column("src").to_pylist(),
                    tbl.column("dst").to_pylist()):
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    cs = []
    for v, nb in nbrs.items():
        k = len(nb)
        tri = sum(1 for a, b in itertools.combinations(sorted(nb), 2)
                  if b in nbrs.get(a, ()))
        c = tri / (k * (k - 1) / 2) if k > 1 else 0.0
        cs.append(c)
        assert pdf.loc[v, "triangles"] == tri
        assert abs(pdf.loc[v, "clustering"] - c) < 1e-12
    assert abs(m["avg_clustering"] - np.mean(cs)) < 1e-12
    assert 0.0 <= m["transitivity"] <= 1.0

    # sharded path agrees
    g2 = Graph(ray.data.from_arrow(tbl),
               config=EngineConfig(dense_vertex_limit=5))
    assert g2.sharded
    m2 = {}
    p2 = clustering_coefficients(g2, metrics=m2).to_pandas() \
        .set_index("node")
    for v in nbrs:
        assert abs(p2.loc[v, "clustering"]
                   - pdf.loc[v, "clustering"]) < 1e-12
    assert abs(m2["avg_clustering"] - m["avg_clustering"]) < 1e-12
    assert abs(m2["transitivity"] - m["transitivity"]) < 1e-12


@pytest.mark.parametrize("k", [1, 3, 5])
def test_triangle_pass_owner_boundaries(ray_session, k):
    """The pool kernel across owner boundaries: exact per-vertex
    equality with the local oracle at k owners, message counts that
    match it, and a later PageRank on the same pool identical to one on
    a fresh pool (the kernel leaves no stale owner state)."""
    from centrality_gpu_ray.pipelines import pagerank
    from centrality_gpu_ray.pipelines.shards import ShardPool
    from centrality_gpu_ray.pipelines.triangles import (
        _count_local, _orient, _wedges_from_adj, triangle_pass)

    g = Graph(ray.data.from_arrow(hub_skewed_graph()), mode="distributed")
    n = g.num_vertices
    s, d, _ = g.local_arrays()
    a, b = _orient(s, d, g.out_degree)
    want, wedges, matched = _count_local(g, a, b)
    apex, _, _ = _wedges_from_adj(a, b)
    if k > 1:
        assert apex.max() < n * (k - 1) // k  # a wedge-free owner range

    pool = ShardPool(g.edges, num_shards=k)
    fresh = ShardPool(g.edges, num_shards=k)
    assert len(pool.actors) == k
    got_wedges, got_matched, *_ = triangle_pass(pool, n)
    assert np.array_equal(pool.collect_state(), want)
    assert (got_wedges, got_matched) == (wedges, matched)
    assert matched == want.sum() // 3 == 60 + 20 + 20  # hub, chord rings

    ranks = []
    for p in (pool, fresh):
        g._pool = p
        ranks.append(pagerank(g).column("pagerank").to_numpy())
        p.shutdown()
    assert np.array_equal(ranks[0], ranks[1])


def test_triangle_pass_rejects_tiled_pool(ray_session):
    """A same-vertex tiled pool holds every edge R times; counting on it
    would multiply triangles, so the kernel refuses it."""
    from centrality_gpu_ray.pipelines.shards import ShardPool
    from centrality_gpu_ray.pipelines.triangles import triangle_pass

    g = Graph(ray.data.from_arrow(hub_skewed_graph()), mode="distributed")
    pool = ShardPool(g.edges, num_shards=1, replicas=2)
    try:
        with pytest.raises(ValueError, match="tiled"):
            triangle_pass(pool, g.num_vertices)
    finally:
        pool.shutdown()
