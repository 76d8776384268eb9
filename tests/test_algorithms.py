"""Conformance tests on the reference's sample graphs (FIXTURES.md §3)."""

import os

import numpy as np
import pytest

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines import (
    Graph, betweenness_centrality, connected_components, label_propagation,
    pagerank, triangle_counts)
from centrality_gpu_ray.sources.edgelist import fixture_dataset

from fixtures import (
    GOLDEN_BC, GOLDEN_COMPONENTS_TEST5, GOLDEN_PR, GOLDEN_TRIANGLES_PERVERTEX,
    GOLDEN_TRIANGLES_TOTAL, hub_skewed_graph, pr_golden_full)


def _graph(name, mode="auto", **cfg_kw):
    cfg = EngineConfig(**cfg_kw) if cfg_kw else None
    return Graph(fixture_dataset(name), config=cfg, mode=mode)


@pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
def test_pagerank_fixture_golden(name):
    g = _graph(name, tolerance=1e-10)
    cfg = EngineConfig(tolerance=1e-10, max_supersteps=500)
    t = pagerank(g, cfg).to_pandas()
    got = dict(zip(t["node"], t["pagerank"]))
    for v, expect in GOLDEN_PR[name].items():
        assert got[v] == pytest.approx(expect, abs=1e-6), (v, got[v], expect)
    assert t["pagerank"].sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_engine_stop_rule_matches_golden_at_1e6():
    # the engine's default 1e-6 L1 stop already agrees with the 1e-10
    # oracle to allclose 1e-6 (FIXTURES.md §3.2)
    g = _graph("test4")
    t = pagerank(g, EngineConfig(tolerance=1e-6)).to_pandas()
    oracle = pr_golden_full("test4")
    assert np.allclose(t.sort_values("node")["pagerank"].values, oracle, atol=1e-6)


def test_pagerank_distributed_equals_local():
    g_loc = _graph("test4", mode="local")
    cfg = EngineConfig(tolerance=1e-10, max_supersteps=500)
    a = pagerank(g_loc, cfg).to_pandas().sort_values("node")["pagerank"].values
    g_dist = _graph("test4", mode="distributed")
    b = pagerank(g_dist, cfg).to_pandas().sort_values("node")["pagerank"].values
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_owner_combine_hub_skew(k):
    """Skew is handled by the owner combine itself: each shard folds a
    hub's messages to one partial before the hub's range owner combines
    them, so a hub-skewed weighted graph on k owners gives the local
    results — PageRank (plain, weighted and personalized), eigenvector
    and Katz to 1e-12; CC labels, LP labels, SSSP distances, BFS
    levels, parents and discovery times, edge support, k-truss rounds
    (k = 3, 4), k-core rounds and core edges (k = 2, 3) exactly."""
    import ray.data

    from centrality_gpu_ray.pipelines.bfs import bfs
    from centrality_gpu_ray.pipelines.eigenvector import (
        eigenvector_centrality, katz_centrality)
    from centrality_gpu_ray.pipelines.peel import peel
    from centrality_gpu_ray.pipelines.shards import ShardPool
    from centrality_gpu_ray.pipelines.sssp import sssp
    from centrality_gpu_ray.pipelines.triangles import edge_support
    from centrality_gpu_ray.pipelines.truss import ktruss

    tbl = hub_skewed_graph()
    g_loc = Graph(ray.data.from_arrow(tbl), mode="local")
    g = Graph(ray.data.from_arrow(tbl), mode="distributed")
    g._pool = ShardPool(g.edges, num_shards=k)
    assert len(g.pool.actors) == k
    cfg = EngineConfig(tolerance=1e-12, max_supersteps=500)
    fixed = EngineConfig(tolerance=0.0, max_supersteps=30)
    pers = {int(g_loc.node_ids[0]): 2.0, int(g_loc.node_ids[-1]): 1.0}
    try:
        for run, col in [
                (lambda h: pagerank(h, cfg), "pagerank"),
                (lambda h: pagerank(h, cfg, weighted=True), "pagerank"),
                (lambda h: pagerank(h, cfg, personalization=pers),
                 "pagerank"),
                (lambda h: eigenvector_centrality(h, fixed, weighted=True),
                 "eigenvector"),
                (lambda h: katz_centrality(h, 0.01, config=fixed), "katz")]:
            want, got = (run(h).column(col).to_numpy() for h in (g_loc, g))
            assert np.allclose(want, got, atol=1e-12), col
        for run, cols in [(connected_components, ["component"]),
                          (label_propagation, ["label"]),
                          (lambda h: sssp(h, 1), ["distance"]),
                          (lambda h: bfs(h, 1),
                           ["level", "parent", "disc_time"])]:
            want, got = run(g_loc), run(g)
            for col in cols:
                assert np.array_equal(want.column(col).to_numpy(),
                                      got.column(col).to_numpy()), col
        by_edge = [("src", "ascending"), ("dst", "ascending")]
        want, got = (edge_support(h).sort_by(by_edge) for h in (g_loc, g))
        assert want.equals(got)
        for c in (3, 4):
            ms = [{}, {}]
            want, got = (ktruss(h, k=c, metrics=m).sort_by(by_edge)
                         for h, m in zip((g_loc, g), ms))
            assert want.equals(got) and ms[0]["rounds"] == ms[1]["rounds"]
        for c in (2, 3):
            (want, want_core), (got, got_core) = (peel(h, k=c)
                                                  for h in (g_loc, g))
            assert want.equals(got), c
            assert want_core.sort_by(by_edge).equals(
                got_core.sort_by(by_edge)), c
    finally:
        g.pool.shutdown()


@pytest.mark.parametrize("mode", ["local", "distributed"])
def test_connected_components_test5(mode):
    g = _graph("test5", mode=mode)
    t = connected_components(g).to_pandas()
    got = dict(zip(t["node"], t["component"]))
    assert got == GOLDEN_COMPONENTS_TEST5


def test_connected_components_single_component():
    for name in ["test1", "test2", "test3", "test4"]:
        t = connected_components(_graph(name)).to_pandas()
        assert (t["component"] == 0).all()


@pytest.mark.parametrize("mode", ["local", "distributed"])
def test_label_propagation_modes_agree(mode):
    m = {}
    t = label_propagation(_graph("test4", mode=mode), metrics=m).to_pandas()
    # deterministic: rerun gives identical labels
    t2 = label_propagation(_graph("test4", mode=mode)).to_pandas()
    assert t.equals(t2)
    # labels refine components: every label group stays within one component
    comp = connected_components(_graph("test4")).to_pandas()
    merged = t.merge(comp, on="node")
    assert (merged.groupby("label")["component"].nunique() == 1).all()


def test_label_propagation_local_equals_distributed():
    a = label_propagation(_graph("test3", mode="local")).to_pandas()
    b = label_propagation(_graph("test3", mode="distributed")).to_pandas()
    assert a.equals(b)


@pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
def test_triangles_fixture_golden(name):
    m = {}
    t = triangle_counts(_graph(name), metrics=m).to_pandas()
    got = {int(r["node"]): int(r["triangles"]) for _, r in t.iterrows()
           if r["triangles"] > 0}
    assert got == GOLDEN_TRIANGLES_PERVERTEX[name]
    assert m["total_triangles"] == GOLDEN_TRIANGLES_TOTAL[name]


def test_triangles_distributed_equals_local():
    a = triangle_counts(_graph("test3", mode="local")).to_pandas()
    b = triangle_counts(_graph("test3", mode="distributed")).to_pandas()
    assert a.equals(b)


def test_triangles_join_scale_path_orientation():
    # Regression: triangle {1,2,3} with deg(1)>deg(2)>deg(3) orients the
    # closing edge high-id->low-id (2->1); the wedge (1,2) must be routed
    # to the owner of its lower-ranked endpoint 2 and matched on the
    # (min,max)-packed key, or it never closes. Checked on the shard-pool
    # kernel of a dense-distributed and of a sharded graph.
    import pyarrow as pa
    import ray.data

    pairs = [(1, 2), (2, 3), (1, 3),            # the triangle
             (1, 4), (1, 5), (1, 6), (2, 7), (2, 8)]  # degree boosters
    tbl = pa.table({
        "src": pa.array([u for u, _ in pairs], type=pa.int64()),
        "dst": pa.array([v for _, v in pairs], type=pa.int64()),
        "weight": pa.array([1] * len(pairs), type=pa.int64()),
    })
    dense = Graph(ray.data.from_arrow(tbl), mode="distributed")
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=5))
    assert not dense.sharded and sharded.sharded
    for g in (dense, sharded):
        m = {}
        t = triangle_counts(g, metrics=m).to_pandas()
        assert m["total_triangles"] == 1
        got = dict(zip(t["node"], t["triangles"]))
        assert got[1] == got[2] == got[3] == 1
        assert got[4] == got[5] == got[6] == got[7] == got[8] == 0


@pytest.mark.parametrize("name", ["test1", "test3"])
def test_betweenness_centrality_golden(name):
    t = betweenness_centrality(_graph(name), concurrency=2).to_pandas()
    got = dict(zip(t["node"], t["bc"]))
    for v, expect in GOLDEN_BC[name].items():
        assert got[v] == pytest.approx(expect, abs=1e-6), (v, got[v])


def test_betweenness_test2_test4_vs_networkx_free_oracle():
    # independent oracle: per-source Brandes re-derivation on the driver
    # (double of unordered-pair BC); guards test2/test4 without networkx
    from centrality_gpu_ray.pipelines.brandes import (
        _single_source_dependencies, build_csr)

    for name in ["test2", "test4"]:
        g = _graph(name)
        s, d, _ = g.local_arrays()
        R, C = build_csr(s, d, g.num_vertices)
        acc = np.zeros(g.num_vertices)
        for src in range(g.num_vertices):
            acc += _single_source_dependencies(R, C, s, d, g.num_vertices, src)
        t = betweenness_centrality(g, concurrency=2).to_pandas().sort_values("node")
        assert np.allclose(t["bc"].values, acc, atol=1e-9)


def test_closeness_vs_brute_force_bfs():
    from collections import deque

    from centrality_gpu_ray.pipelines.closeness import closeness_from_sources

    for name in ["test2", "test4", "test5"]:
        g = _graph(name)
        s, d, _ = g.local_arrays()
        adj = {}
        for a, b in zip(s, d):
            adj.setdefault(int(a), set()).add(int(b))
            adj.setdefault(int(b), set()).add(int(a))
        sources = [int(x) for x in g.node_ids]
        got = closeness_from_sources(g, sources).to_pandas().set_index("source")
        for si, src in enumerate(sources):
            dist = {si: 0}
            # brute-force BFS in dense-index space
            q = deque([si])
            idx_of = {int(v): i for i, v in enumerate(g.node_ids)}
            dense_adj = {idx_of[a]: {idx_of[b] for b in nb}
                         for a, nb in adj.items()}
            while q:
                u = q.popleft()
                for w in dense_adj.get(u, ()):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        q.append(w)
            dvals = np.array(list(dist.values()))
            row = got.loc[src]
            assert row["n_reached"] == len(dist)
            assert row["dist_sum"] == dvals.sum()
            expect_h = int(np.floor(1e6 / dvals[dvals > 0] + 0.5).sum())
            assert row["harmonic_micro"] == expect_h
            assert row["ecc"] == dvals.max()


def test_eigenvector_modes_agree_and_match_numpy():
    from centrality_gpu_ray.pipelines.eigenvector import eigenvector_centrality

    for name in ["test2", "test4"]:
        g_loc = _graph(name, mode="local", tolerance=0.0, max_supersteps=12)
        g_dist = _graph(name, mode="distributed", tolerance=0.0,
                        max_supersteps=12)
        t_loc = eigenvector_centrality(g_loc).to_pandas().sort_values("node")
        t_dist = eigenvector_centrality(g_dist).to_pandas().sort_values("node")
        assert np.allclose(t_loc["eigenvector"].values,
                           t_dist["eigenvector"].values, atol=1e-12)

        # independent driver-side power iteration (dense matmul)
        s, d, _ = g_loc.local_arrays()
        n = g_loc.num_vertices
        A = np.zeros((n, n))
        A[s, d] = 1.0
        A[d, s] = 1.0
        x = np.full(n, 1.0 / n)
        for _ in range(12):
            y = A @ x
            x = y / y.sum()
        assert np.allclose(t_loc["eigenvector"].values, x, atol=1e-12)

        # converged run aligns with numpy's dominant eigenvector
        g_conv = _graph(name, mode="local", tolerance=1e-14,
                        max_supersteps=5000)
        t_conv = eigenvector_centrality(g_conv).to_pandas().sort_values("node")
        w, v = np.linalg.eigh(A)
        dom = np.abs(v[:, np.argmax(w)])
        dom = dom / dom.sum()
        assert np.allclose(t_conv["eigenvector"].values, dom, atol=1e-6)


def test_edge_support_modes_and_brute_force():
    from itertools import combinations

    from centrality_gpu_ray.pipelines.triangles import edge_support

    for name in ["test2", "test4"]:
        g_loc = _graph(name, mode="local")
        t_loc = (edge_support(g_loc).to_pandas()
                 .sort_values(["src", "dst"]).reset_index(drop=True))
        g_dist = _graph(name, mode="distributed")
        out = edge_support(g_dist)
        t_dist = (out.to_pandas().sort_values(["src", "dst"])
                  .reset_index(drop=True))
        assert t_loc.equals(t_dist)

        # brute force: adjacency sets, support = |N(u) ∩ N(v)|
        s, d, _ = g_loc.local_arrays()
        ids = g_loc.node_ids
        adj = {}
        for a, b in zip(ids[s], ids[d]):
            adj.setdefault(int(a), set()).add(int(b))
            adj.setdefault(int(b), set()).add(int(a))
        for row in t_loc.itertuples():
            expect = len(adj[row.src] & adj[row.dst])
            assert row.support == expect, (row.src, row.dst)
        # every triangle contributes 3 edge-credits
        total_tri = t_loc["support"].sum() // 3
        from centrality_gpu_ray.pipelines.triangles import triangle_counts
        m = {}
        triangle_counts(g_loc, metrics=m)
        assert total_tri == m["total_triangles"]


def test_ktruss_modes_and_brute_force():
    from centrality_gpu_ray.pipelines.truss import ktruss

    def brute(edges, k):
        # edges: set of (u, v) tuples u<v; returns {(u,v): round or -1}
        alive = set(edges)
        removed = {}
        r = 0
        while True:
            adj = {}
            for u, v in alive:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            doomed = [e for e in alive
                      if len(adj[e[0]] & adj[e[1]]) < k - 2]
            if not doomed:
                break
            for e in doomed:
                removed[e] = r
                alive.discard(e)
            r += 1
        for e in alive:
            removed[e] = -1
        return removed

    for name in ["test2", "test4"]:
        for k in (3, 4):
            g_loc = _graph(name, mode="local")
            t_loc = (ktruss(g_loc, k=k).to_pandas()
                     .sort_values(["src", "dst"]).reset_index(drop=True))
            g_dist = _graph(name, mode="distributed")
            t_dist = (ktruss(g_dist, k=k).to_pandas()
                      .sort_values(["src", "dst"]).reset_index(drop=True))
            assert t_loc.equals(t_dist), (name, k)

            edges = set(zip(t_loc["src"], t_loc["dst"]))
            expect = brute(edges, k)
            for row in t_loc.itertuples():
                assert expect[(row.src, row.dst)] == row.round_removed, \
                    (name, k, row.src, row.dst)


def test_katz_modes_agree_and_match_recurrence():
    from centrality_gpu_ray.pipelines.eigenvector import katz_centrality

    for name in ["test2", "test4"]:
        cfgkw = dict(tolerance=0.0, max_supersteps=8)
        g_loc = _graph(name, mode="local", **cfgkw)
        g_dist = _graph(name, mode="distributed", **cfgkw)
        t_loc = katz_centrality(g_loc, alpha=0.05).to_pandas().sort_values("node")
        t_dist = katz_centrality(g_dist, alpha=0.05).to_pandas().sort_values("node")
        assert np.allclose(t_loc["katz"].values, t_dist["katz"].values,
                           atol=1e-12)

        s, d, _ = g_loc.local_arrays()
        n = g_loc.num_vertices
        A = np.zeros((n, n))
        A[s, d] = 1.0
        A[d, s] = 1.0
        x = np.ones(n)
        for _ in range(8):
            x = 1.0 + 0.05 * (A @ x)
        assert np.allclose(t_loc["katz"].values, x, atol=1e-10)


def test_personalized_pagerank_modes_and_recurrence():
    for name in ["test2", "test4"]:
        cfgkw = dict(tolerance=0.0, max_supersteps=12)
        g_loc = _graph(name, mode="local", **cfgkw)
        srcs = [int(g_loc.node_ids[0]), int(g_loc.node_ids[2])]
        pers = {srcs[0]: 3.0, srcs[1]: 1.0}
        cfg = EngineConfig(tolerance=0.0, max_supersteps=12)
        t_loc = pagerank(g_loc, cfg, personalization=pers).to_pandas() \
            .sort_values("node")
        g_dist = _graph(name, mode="distributed", **cfgkw)
        t_dist = pagerank(g_dist, cfg, personalization=pers).to_pandas() \
            .sort_values("node")
        assert np.allclose(t_loc["pagerank"].values, t_dist["pagerank"].values,
                           atol=1e-12)
        assert t_loc["pagerank"].sum() == pytest.approx(1.0, abs=1e-9)

        # independent dense recurrence
        s, d, _ = g_loc.local_arrays()
        n = g_loc.num_vertices
        A = np.zeros((n, n))
        A[s, d] = 1.0
        A[d, s] = 1.0
        deg = A.sum(axis=1)
        tele = np.zeros(n)
        tele[0], tele[2] = 0.75, 0.25
        x = tele.copy()
        for _ in range(12):
            x = 0.15 * tele + 0.85 * (A.T @ (x / deg))
        assert np.allclose(t_loc["pagerank"].values, x, atol=1e-12)

    # unknown personalization node raises
    with pytest.raises(ValueError):
        pagerank(_graph("test2", mode="local"), EngineConfig(),
                 personalization={10**9: 1.0})


def test_weighted_closeness_vs_bellman_ford():
    from centrality_gpu_ray.pipelines.closeness import closeness_from_sources

    g = _graph("test4")
    s, d, w = g.local_arrays()
    n = g.num_vertices
    INF = 10**15
    # dense Bellman-Ford per source over the symmetrized weighted edges
    sources = [int(x) for x in g.node_ids]
    got = (closeness_from_sources(g, sources, weighted=True)
           .to_pandas().set_index("source"))
    for si in range(n):
        dist = np.full(n, INF, dtype=np.int64)
        dist[si] = 0
        for _ in range(n):
            nd = dist.copy()
            np.minimum.at(nd, d, dist[s] + w)
            np.minimum.at(nd, s, dist[d] + w)
            if (nd == dist).all():
                break
            dist = nd
        reach = dist < INF
        row = got.loc[int(g.node_ids[si])]
        assert row["n_reached"] == int(reach.sum())
        assert row["dist_sum"] == int(dist[reach].sum())
        assert row["ecc"] == int(dist[reach].max())
        pos = dist[(dist > 0) & reach].astype(np.float64)
        assert row["harmonic_micro"] == int(
            np.floor(1e6 / pos + 0.5).sum()) if pos.size else True


def test_ppr_checkpoint_namespace_isolated(tmp_path):
    # a plain-PageRank checkpoint must never be resumed by a
    # personalized run: each teleport vector checkpoints under its own
    # <checkpoint_dir>/<algo>/ namespace, beside plain PageRank's
    ck = str(tmp_path / "ck")
    cfg = EngineConfig(tolerance=0.0, max_supersteps=10,
                       checkpoint_dir=ck, checkpoint_every=2)
    g = _graph("test4", mode="local")
    pagerank(g, cfg)  # writes plain-PR checkpoints
    pers = {int(g.node_ids[0]): 1.0}
    m = {}
    got = pagerank(_graph("test4", mode="local"), cfg, personalization=pers,
                   metrics=m).to_pandas().sort_values("node")
    assert m["resumed_from"] is None
    fresh = pagerank(_graph("test4", mode="local"),
                     EngineConfig(tolerance=0.0, max_supersteps=10),
                     personalization=pers).to_pandas().sort_values("node")
    assert np.array_equal(got["pagerank"].values, fresh["pagerank"].values)
    names = sorted(os.listdir(ck))
    assert len(names) == 2 and names[0] == "pagerank"
    assert names[1].startswith("ppr_")

    # a fresh dir with the SAME personalization resumes bit-identically
    ck2 = str(tmp_path / "ck2")
    cfg2 = EngineConfig(tolerance=0.0, max_supersteps=10,
                        checkpoint_dir=ck2, checkpoint_every=2)
    a = pagerank(_graph("test4", mode="local"), cfg2,
                 personalization=pers).to_pandas().sort_values("node")
    b = pagerank(_graph("test4", mode="local"), cfg2,
                 personalization=pers).to_pandas().sort_values("node")
    assert np.allclose(a["pagerank"].values, b["pagerank"].values,
                       atol=1e-15)
    # ...and a DIFFERENT personalization against that dir starts fresh
    m = {}
    pagerank(_graph("test4", mode="local"), cfg2,
             personalization={int(g.node_ids[1]): 1.0}, metrics=m)
    assert m["resumed_from"] is None
