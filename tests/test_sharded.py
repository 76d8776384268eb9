"""Sharded-state (> dense_vertex_limit) path: the vertex dictionary is
built distributed, per-vertex state lives in owner actors, and results
come back as Datasets — verified equal to the dense driver path on the
same graph."""

import numpy as np
import pyarrow as pa
import pytest

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines import (Graph, connected_components,
                                          label_propagation, pagerank)
from centrality_gpu_ray.pipelines.sssp import sssp


def _edges_table():
    # ring + deterministic chords (small diameter) over 1200 vertices,
    # plus a separate 11-vertex chain component; ids made sparse
    # (x*17+5) so the dictionary actually relabels.
    n = 1200
    src = list(range(n)) + [i for i in range(n)]
    dst = [(i + 1) % n for i in range(n)] + [(i * 7 + 3) % n for i in range(n)]
    src += list(range(5000, 5010))
    dst += list(range(5001, 5011))
    s = np.array(src, dtype=np.int64) * 17 + 5
    d = np.array(dst, dtype=np.int64) * 17 + 5
    keep = s != d
    return pa.table({"src": pa.array(s[keep]), "dst": pa.array(d[keep]),
                     "weight": pa.array(np.ones(int(keep.sum()), dtype=np.int64))})


@pytest.fixture(scope="module")
def graphs():
    import ray.data

    tbl = _edges_table()
    dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=500))
    assert not dense.sharded
    assert sharded.sharded
    return dense, sharded


def test_sharded_graph_shape(graphs):
    dense, sharded = graphs
    assert sharded.num_vertices == dense.num_vertices == 1211
    assert sharded.num_edges == dense.num_edges
    assert sharded.mode == "distributed"
    assert sharded.node_ids is None


def test_sharded_pagerank_matches_dense(graphs):
    dense, sharded = graphs
    cfg = EngineConfig(tolerance=1e-10, max_supersteps=300)
    a = pagerank(dense, cfg).to_pandas()
    m = {}
    b = pagerank(sharded, EngineConfig(tolerance=1e-10, max_supersteps=300,
                                       dense_vertex_limit=500),
                 metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_dense", "_sharded"))
    assert len(merged) == dense.num_vertices
    assert np.allclose(merged["pagerank_dense"], merged["pagerank_sharded"],
                       atol=1e-12)


def test_sharded_checkpoint_resume(graphs, tmp_path):
    # interrupted run (3 supersteps, checkpointed) + resumed run ==
    # uninterrupted run, bit-identically
    _, sharded = graphs
    ck = str(tmp_path / "ck")
    part = EngineConfig(tolerance=1e-10, max_supersteps=3,
                        dense_vertex_limit=500, checkpoint_dir=ck)
    pagerank(sharded, part)
    m = {}
    full_cfg = EngineConfig(tolerance=1e-10, max_supersteps=300,
                            dense_vertex_limit=500, checkpoint_dir=ck)
    resumed = pagerank(sharded, full_cfg, metrics=m).to_pandas()
    assert m["resumed_from"] == 2
    fresh = pagerank(sharded, EngineConfig(tolerance=1e-10,
                                           max_supersteps=300,
                                           dense_vertex_limit=500)).to_pandas()
    merged = resumed.merge(fresh, on="node", suffixes=("_r", "_f"))
    assert (merged["pagerank_r"] == merged["pagerank_f"]).all()

    # CC runs the same resume/save pair: 2 checkpointed supersteps (not
    # converged), then a resumed run equals an uninterrupted one
    connected_components(sharded, EngineConfig(
        max_supersteps=2, checkpoint_dir=ck, strict_convergence=False))
    m = {}
    resumed = connected_components(
        sharded, EngineConfig(checkpoint_dir=ck), metrics=m).to_pandas()
    assert m["resumed_from"] == 1
    fresh = connected_components(sharded).to_pandas()
    merged = resumed.merge(fresh, on="node", suffixes=("_r", "_f"))
    assert len(merged) == sharded.num_vertices
    assert (merged["component_r"] == merged["component_f"]).all()


def test_sharded_labelprop_matches_dense(graphs):
    dense, sharded = graphs
    a = label_propagation(dense).to_pandas()
    m = {}
    b = label_propagation(sharded, EngineConfig(dense_vertex_limit=500),
                          metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert (merged["label_d"] == merged["label_s"]).all()


def test_sharded_sssp_matches_dense(graphs):
    dense, sharded = graphs
    src = 5  # original id (0*17+5)
    a = sssp(dense, src).to_pandas()
    m = {}
    b = sssp(sharded, src, EngineConfig(dense_vertex_limit=500),
             metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert (merged["distance_d"] == merged["distance_s"]).all()
    with pytest.raises(ValueError):
        sssp(sharded, 99999999, EngineConfig(dense_vertex_limit=500))


def test_sharded_triangles_matches_dense():
    import ray.data

    from centrality_gpu_ray.pipelines import triangle_counts

    # triangle-rich graph: ring + (i, i+2) chords → every i closes
    # {i, i+1, i+2}; sparse ids via *13+1
    n = 900
    src = list(range(n)) + list(range(n))
    dst = [(i + 1) % n for i in range(n)] + [(i + 2) % n for i in range(n)]
    s = np.array(src, dtype=np.int64) * 13 + 1
    d = np.array(dst, dtype=np.int64) * 13 + 1
    tbl = pa.table({"src": pa.array(s), "dst": pa.array(d),
                    "weight": pa.array(np.ones(s.size, dtype=np.int64))})
    dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=300))
    assert sharded.sharded
    md, ms = {}, {}
    a = triangle_counts(dense, metrics=md).to_pandas()
    b = triangle_counts(sharded, EngineConfig(dense_vertex_limit=300),
                        metrics=ms).to_pandas()
    assert ms["mode"] == "sharded"
    assert md["total_triangles"] == ms["total_triangles"] == n
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == n
    assert (merged["triangles_d"] == merged["triangles_s"]).all()


def test_sharded_bfs_matches_dense(graphs):
    from centrality_gpu_ray.pipelines.bfs import bfs

    dense, sharded = graphs
    src = 5
    a = bfs(dense, src).to_pandas()
    m = {}
    b = bfs(sharded, src, EngineConfig(dense_vertex_limit=500),
            metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert (merged["level_d"] == merged["level_s"]).all()
    assert (merged["parent_d"] == merged["parent_s"]).all()


def test_sharded_components_matches_dense(graphs):
    dense, sharded = graphs
    a = connected_components(dense).to_pandas()
    m = {}
    b = connected_components(
        sharded, EngineConfig(dense_vertex_limit=500), metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_dense", "_sharded"))
    assert len(merged) == dense.num_vertices
    assert (merged["component_dense"] == merged["component_sharded"]).all()
    # two components: the chorded ring and the chain
    assert b["component"].nunique() == 2


def test_sharded_eigenvector_matches_dense(graphs):
    from centrality_gpu_ray.pipelines.eigenvector import eigenvector_centrality

    dense, sharded = graphs
    a = eigenvector_centrality(
        dense, EngineConfig(tolerance=0.0, max_supersteps=15)).to_pandas()
    m = {}
    b = eigenvector_centrality(
        sharded, EngineConfig(tolerance=0.0, max_supersteps=15,
                              dense_vertex_limit=500),
        metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    assert m["supersteps"] == 15
    merged = a.merge(b, on="node", suffixes=("_dense", "_sharded"))
    assert len(merged) == dense.num_vertices
    assert np.allclose(merged["eigenvector_dense"],
                       merged["eigenvector_sharded"], atol=1e-12)


def test_sharded_edge_support_and_ktruss_match_dense():
    import ray.data

    from centrality_gpu_ray.pipelines.triangles import edge_support
    from centrality_gpu_ray.pipelines.truss import ktruss

    # triangle-rich ring + (i, i+2) chords (see triangles test above)
    n = 900
    src = list(range(n)) + list(range(n))
    dst = [(i + 1) % n for i in range(n)] + [(i + 2) % n for i in range(n)]
    s = np.array(src, dtype=np.int64) * 13 + 1
    d = np.array(dst, dtype=np.int64) * 13 + 1
    tbl = pa.table({"src": pa.array(s), "dst": pa.array(d),
                    "weight": pa.array(np.ones(s.size, dtype=np.int64))})
    dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=300))
    assert sharded.sharded
    a = (edge_support(dense).to_pandas()
         .sort_values(["src", "dst"]).reset_index(drop=True))
    b = (edge_support(sharded).to_pandas()
         .sort_values(["src", "dst"]).reset_index(drop=True))
    assert a.equals(b)
    assert (a["support"] > 0).any()

    ta = (ktruss(dense, k=3).to_pandas()
          .sort_values(["src", "dst"]).reset_index(drop=True))
    tb = (ktruss(sharded, k=3).to_pandas()
          .sort_values(["src", "dst"]).reset_index(drop=True))
    assert ta.equals(tb)


def test_sharded_katz_matches_dense(graphs):
    from centrality_gpu_ray.pipelines.eigenvector import katz_centrality

    dense, sharded = graphs
    a = katz_centrality(dense, alpha=0.02,
                        config=EngineConfig(tolerance=0.0,
                                            max_supersteps=10)).to_pandas()
    m = {}
    b = katz_centrality(sharded, alpha=0.02,
                        config=EngineConfig(tolerance=0.0, max_supersteps=10,
                                            dense_vertex_limit=500),
                        metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert np.allclose(merged["katz_d"], merged["katz_s"], atol=1e-10)


def test_sharded_personalized_pagerank_matches_dense(graphs):
    dense, sharded = graphs
    # sources with sparse original ids (x*17+5 relabeling)
    srcs = {5: 2.0, 5 + 17 * 600: 1.0}
    cfg_d = EngineConfig(tolerance=1e-10, max_supersteps=200)
    a = pagerank(dense, cfg_d, personalization=srcs).to_pandas()
    m = {}
    b = pagerank(sharded,
                 EngineConfig(tolerance=1e-10, max_supersteps=200,
                              dense_vertex_limit=500),
                 personalization=srcs, metrics=m).to_pandas()
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert np.allclose(merged["pagerank_d"], merged["pagerank_s"],
                       atol=1e-12)
    # unknown node raises on the sharded path too
    with pytest.raises(ValueError):
        pagerank(sharded, EngineConfig(dense_vertex_limit=500),
                 personalization={10**9: 1.0})


def test_sharded_closeness_matches_dense(graphs):
    from centrality_gpu_ray.pipelines.closeness import closeness_from_sources

    dense, sharded = graphs
    srcs = [5, 5 + 17 * 300, 5000 * 17 + 5]  # two ring vertices + chain head
    for weighted in (False, True):
        a = closeness_from_sources(dense, srcs, weighted=weighted).to_pandas()
        b = closeness_from_sources(
            sharded, srcs,
            config=EngineConfig(dense_vertex_limit=500),
            weighted=weighted).to_pandas()
        assert a.equals(b), weighted
        # the chain component has 11 vertices; ring+chords reach 1200
        byn = a.set_index("source")["n_reached"]
        assert byn[5000 * 17 + 5] == 11
        assert byn[5] == 1200


def test_sharded_weighted_eigenvector_and_katz_match_dense(graphs):
    from centrality_gpu_ray.pipelines.eigenvector import (
        eigenvector_centrality, katz_centrality)

    dense, sharded = graphs
    cfg_d = EngineConfig(tolerance=0.0, max_supersteps=8)
    cfg_s = EngineConfig(tolerance=0.0, max_supersteps=8,
                         dense_vertex_limit=500)
    a = eigenvector_centrality(dense, cfg_d, weighted=True).to_pandas()
    b = eigenvector_centrality(sharded, cfg_s, weighted=True).to_pandas()
    m = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(m) == dense.num_vertices
    assert np.allclose(m["eigenvector_d"], m["eigenvector_s"], atol=1e-12)

    ka = katz_centrality(dense, alpha=0.01, config=cfg_d,
                         weighted=True).to_pandas()
    kb = katz_centrality(sharded, alpha=0.01, config=cfg_s,
                         weighted=True).to_pandas()
    km = ka.merge(kb, on="node", suffixes=("_d", "_s"))
    assert np.allclose(km["katz_d"], km["katz_s"], atol=1e-10)


def test_sharded_peel_matches_dense(graphs):
    from centrality_gpu_ray.pipelines.peel import peel

    dense, sharded = graphs
    for k in (2, 3):
        ta, ea = peel(dense, k=k)
        tb_ds, eb_ds = peel(sharded, k=k)
        a = (ta.to_pandas().sort_values("node").reset_index(drop=True))
        b = (tb_ds.to_pandas().sort_values("node").reset_index(drop=True))
        assert a.equals(b), k
        eaa = (ea.to_pandas().sort_values(["src", "dst"])
               .reset_index(drop=True))
        ebb = (eb_ds.to_pandas().sort_values(["src", "dst"])
               .reset_index(drop=True))
        assert eaa.equals(ebb), k


def test_sharded_sampled_brandes_matches_dense(graphs):
    from centrality_gpu_ray.pipelines.brandes import betweenness_centrality

    dense, sharded = graphs
    a = (betweenness_centrality(dense, max_sources=25, concurrency=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    m = {}
    b_ds = betweenness_centrality(
        sharded, EngineConfig(dense_vertex_limit=500), max_sources=25,
        metrics=m)
    b = b_ds.to_pandas().sort_values("node").reset_index(drop=True)
    assert m["mode"] == "sharded"
    assert m["sources"] == 25
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert np.allclose(merged["bc_d"], merged["bc_s"], atol=1e-9)
    assert (merged["bc_d"] > 0).any()

    # exact all-sources stays dense-only, loudly
    with pytest.raises(NotImplementedError):
        betweenness_centrality(sharded, EngineConfig(dense_vertex_limit=500))


def test_sharded_weighted_sampled_brandes_matches_dense():
    import ray.data

    from centrality_gpu_ray.pipelines.brandes import betweenness_centrality

    # varied integer weights so weighted shortest paths differ from hops
    n = 600
    i = np.arange(n, dtype=np.int64)
    src = np.concatenate([i, i])
    dst = np.concatenate([(i + 1) % n, (i * 7 + 3) % n])
    w = (np.concatenate([i, i]) % 3) + 1
    keep = src != dst
    tbl = pa.table({"src": pa.array(src[keep] * 11 + 2),
                    "dst": pa.array(dst[keep] * 11 + 2),
                    "weight": pa.array(w[keep])})
    dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=300))
    assert sharded.sharded
    a = (betweenness_centrality(dense, max_sources=12, weighted=True,
                                concurrency=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    m = {}
    b = (betweenness_centrality(sharded, EngineConfig(dense_vertex_limit=300),
                                max_sources=12, weighted=True, metrics=m)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert m["mode"] == "sharded"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert np.allclose(merged["bc_d"], merged["bc_s"], atol=1e-9)
    assert (merged["bc_d"] > 0).any()


def test_sharded_bfs_direction_switch_matches_dense():
    """Force both gather directions: a path graph keeps every frontier
    at size 1 (pure top-down ``shard_bfs_topdown``), a star jumps the
    frontier to n−1 after one step (full-scan bottom-up mode) — both
    must match the dense BFS exactly."""
    import ray.data

    from centrality_gpu_ray.pipelines.bfs import bfs

    cases = {
        "path": (np.arange(90, dtype=np.int64),
                 np.arange(90, dtype=np.int64) + 1),
        "star": (np.zeros(900, dtype=np.int64),
                 np.arange(1, 901, dtype=np.int64)),
    }
    for name, (src_arr, dst_arr) in cases.items():
        tbl = pa.table({
            "src": pa.array(src_arr * 13 + 1),
            "dst": pa.array(dst_arr * 13 + 1),
            "weight": pa.array(np.ones(src_arr.size, dtype=np.int64)),
        })
        dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
        sharded = Graph(ray.data.from_arrow(tbl),
                        config=EngineConfig(dense_vertex_limit=50))
        assert sharded.sharded, name
        a = bfs(dense, 1).to_pandas()
        b = bfs(sharded, 1,
                EngineConfig(dense_vertex_limit=50)).to_pandas()
        merged = a.merge(b, on="node", suffixes=("_d", "_s"))
        assert len(merged) == dense.num_vertices, name
        assert (merged["level_d"] == merged["level_s"]).all(), name
        assert (merged["parent_d"] == merged["parent_s"]).all(), name


def test_sharded_bicc_matches_dense(graphs):
    """Distributed Tarjan–Vishkin (owner exchanges + recursive aux-CC)
    vs the dense driver program: articulation flags, per-edge BCC
    labels (both sides label by min dense id, so values compare
    exactly), and bridges."""
    from centrality_gpu_ray.pipelines.bicc import (articulation_points,
                                                   bcc_labels, bridges)

    dense, sharded = graphs
    cfg = EngineConfig(dense_vertex_limit=500)

    a = articulation_points(dense).to_pandas()
    m = {}
    b = articulation_points(sharded, cfg, metrics=m).to_pandas()
    assert m["mode"] == "distributed"
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(merged) == dense.num_vertices
    assert (merged["is_articulation_d"]
            == merged["is_articulation_s"]).all()
    assert merged["is_articulation_d"].any()  # the chain component

    la = bcc_labels(dense).to_pandas()
    lb = bcc_labels(sharded, cfg).to_pandas()
    lm = la.merge(lb, on=["src", "dst"], suffixes=("_d", "_s"))
    assert len(lm) == len(la) == dense.num_edges
    assert (lm["bcc_d"] == lm["bcc_s"]).all()

    ba = bridges(dense).to_pandas()
    bb = bridges(sharded, cfg).to_pandas()
    bm = ba.merge(bb, on=["src", "dst"], suffixes=("_d", "_s"))
    assert len(bm) == dense.num_edges
    assert (bm["is_bridge_d"] == bm["is_bridge_s"]).all()
    assert bm["is_bridge_d"].any()


def test_sharded_bicc_pure_tree():
    """Aux-edge-free graph (a star is a tree: no non-tree edges, no
    rule-B escapes): every edge its own BCC, center the only
    articulation point, every edge a bridge."""
    import ray.data

    from centrality_gpu_ray.pipelines.bicc import (articulation_points,
                                                   bridges)

    n = 400
    tbl = pa.table({
        "src": pa.array(np.zeros(n, dtype=np.int64) * 9 + 7),
        "dst": pa.array(np.arange(1, n + 1, dtype=np.int64) * 9 + 7),
        "weight": pa.array(np.ones(n, dtype=np.int64)),
    })
    g = Graph(ray.data.from_arrow(tbl),
              config=EngineConfig(dense_vertex_limit=100))
    assert g.sharded
    m = {}
    art = articulation_points(
        g, EngineConfig(dense_vertex_limit=100), metrics=m).to_pandas()
    assert m["num_aux_edges"] == 0
    assert len(art) == n + 1
    assert art.loc[art.node == 7, "is_articulation"].item() is True or \
        bool(art.loc[art.node == 7, "is_articulation"].item())
    assert not art.loc[art.node != 7, "is_articulation"].any()
    br = bridges(g, EngineConfig(dense_vertex_limit=100)).to_pandas()
    assert len(br) == n
    assert br["is_bridge"].all()


def test_sharded_bc_checkpoint_resume(graphs, tmp_path):
    """Sampled-BC per-batch checkpoints: crash after the first batch
    (simulated by deleting the later step dirs) resumes at the source
    cursor and reproduces the uninterrupted result bit-identically."""
    import os
    import shutil

    from centrality_gpu_ray.pipelines.brandes import betweenness_centrality

    _, sharded = graphs
    ck = str(tmp_path / "bcck")
    cfg = EngineConfig(dense_vertex_limit=500, checkpoint_dir=ck,
                       extra={"bc_source_batch": 8})
    m1: dict = {}
    a = betweenness_centrality(sharded, cfg, max_sources=24,
                               metrics=m1).to_pandas()
    assert m1["sources_run"] == 24
    algo_dir = os.path.join(ck, "bc_sampled_u")
    steps = sorted(os.listdir(algo_dir))
    assert len(steps) == 3  # batches of 8 → cursors 8, 16, 24
    for d in steps[1:]:
        shutil.rmtree(os.path.join(algo_dir, d))

    m2: dict = {}
    b = betweenness_centrality(sharded, cfg, max_sources=24,
                               metrics=m2).to_pandas()
    assert m2["resumed_from_src"] == 8
    assert m2["sources_run"] == 16
    merged = a.merge(b, on="node", suffixes=("_full", "_resumed"))
    assert len(merged) == sharded.num_vertices
    assert (merged["bc_full"] == merged["bc_resumed"]).all()

    # a mismatched spec (different k) must NOT resume
    m3: dict = {}
    betweenness_centrality(sharded, cfg, max_sources=16, metrics=m3)
    assert "resumed_from_src" not in m3


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_sharded_bicc_random_parity(seed):
    """Random clustered graphs with forced bridges, articulation
    vertices and a pendant chain: the distributed Tarjan–Vishkin must
    match the dense program exactly (flags, per-edge labels, bridges)."""
    import ray.data

    from centrality_gpu_ray.pipelines.bicc import (articulation_points,
                                                   bcc_labels, bridges)

    rng = np.random.default_rng(seed)
    srcs, dsts = [], []
    for c in range(4):  # 4 dense-ish clusters of 150
        base = c * 150
        e = rng.integers(0, 150, size=(400, 2)) + base
        srcs.append(e[:, 0])
        dsts.append(e[:, 1])
    # single bridge edges between consecutive clusters (articulations)
    srcs.append(np.array([0, 150, 300], dtype=np.int64))
    dsts.append(np.array([150, 300, 450], dtype=np.int64))
    # pendant chain off vertex 0: every chain edge a bridge
    srcs.append(np.arange(600, 609, dtype=np.int64))
    dsts.append(np.arange(601, 610, dtype=np.int64))
    srcs.append(np.array([0], dtype=np.int64))
    dsts.append(np.array([600], dtype=np.int64))
    s = np.concatenate(srcs)
    d = np.concatenate(dsts)
    keep = s != d
    tbl = pa.table({"src": pa.array(s[keep] * 7 + 3),
                    "dst": pa.array(d[keep] * 7 + 3),
                    "weight": pa.array(np.ones(int(keep.sum()),
                                               dtype=np.int64))})
    dense = Graph(ray.data.from_arrow(tbl), config=EngineConfig())
    cfg = EngineConfig(dense_vertex_limit=200)
    dist = Graph(ray.data.from_arrow(tbl), config=cfg)
    assert dist.sharded

    a = articulation_points(dense).to_pandas()
    b = articulation_points(dist, cfg).to_pandas()
    m = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(m) == dense.num_vertices
    assert (m["is_articulation_d"] == m["is_articulation_s"]).all()
    assert m["is_articulation_d"].sum() >= 10  # chain + cut vertices

    la = bcc_labels(dense).to_pandas()
    lb = bcc_labels(dist, cfg).to_pandas()
    lm = la.merge(lb, on=["src", "dst"], suffixes=("_d", "_s"))
    assert len(lm) == dense.num_edges
    assert (lm["bcc_d"] == lm["bcc_s"]).all()

    ba = bridges(dense).to_pandas()
    bb = bridges(dist, cfg).to_pandas()
    bm = ba.merge(bb, on=["src", "dst"], suffixes=("_d", "_s"))
    assert (bm["is_bridge_d"] == bm["is_bridge_s"]).all()
    assert bm["is_bridge_d"].sum() >= 12  # 3 cluster bridges + chain


def test_sharded_bicc_cache_survives_pool_reuse(graphs):
    """The cached BiCC result must stay correct after ANOTHER algorithm
    reuses the same shard pool and clobbers the owners' live state
    (regression: articulation pairs used to read live aux/labels)."""
    from centrality_gpu_ray.pipelines.bfs import bfs
    from centrality_gpu_ray.pipelines.bicc import (articulation_points,
                                                   bcc_labels)

    dense, sharded = graphs
    cfg = EngineConfig(dense_vertex_limit=500)
    lb_before = bcc_labels(sharded, cfg).to_pandas()  # populates cache
    # clobber the pool's owner state with a different algorithm
    bfs(sharded, 5, cfg).to_pandas()
    a = articulation_points(dense).to_pandas()
    b = articulation_points(sharded, cfg).to_pandas()  # from cache
    m = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert len(m) == dense.num_vertices
    assert (m["is_articulation_d"] == m["is_articulation_s"]).all()
    lb_after = bcc_labels(sharded, cfg).to_pandas()
    j = lb_before.merge(lb_after, on=["src", "dst"],
                        suffixes=("_1", "_2"))
    assert (j["bcc_1"] == j["bcc_2"]).all()


def test_sharded_approx_diameter(graphs):
    """approx_diameter must run on sharded graphs (node_ids is None
    there — sources come from the distributed dictionary)."""
    from centrality_gpu_ray.pipelines.bfs import approx_diameter

    dense, sharded = graphs
    cfg = EngineConfig(dense_vertex_limit=500)
    out = approx_diameter(sharded, num_samples=3, seed=7, config=cfg)
    ref = approx_diameter(dense, num_samples=3, seed=7)
    assert out["samples"] == 3
    assert out["max_depth"] >= 1
    # same seed → same dense sample → identical depth multiset
    assert sorted(out["depths"]) == sorted(ref["depths"])


def test_sharded_single_source_sparse_brandes_matches_dense(graphs):
    # bc_source_batch=1 routes every source through the
    # direction-optimized single-source variants (sparse frontier
    # scatter on narrow levels) — parity vs dense must hold for both
    # the unit and the weighted kernels
    from centrality_gpu_ray.pipelines.brandes import betweenness_centrality

    dense, sharded = graphs
    cfg1 = EngineConfig(dense_vertex_limit=500,
                        extra={"bc_source_batch": 1})
    a = (betweenness_centrality(dense, max_sources=9, concurrency=2)
         .to_pandas().sort_values("node").reset_index(drop=True))
    b = (betweenness_centrality(sharded, cfg1, max_sources=9)
         .to_pandas().sort_values("node").reset_index(drop=True))
    merged = a.merge(b, on="node", suffixes=("_d", "_s"))
    assert np.allclose(merged["bc_d"], merged["bc_s"], atol=1e-9)
    aw = (betweenness_centrality(dense, max_sources=5, weighted=True,
                                 concurrency=2)
          .to_pandas().sort_values("node").reset_index(drop=True))
    bw = (betweenness_centrality(sharded, cfg1, max_sources=5,
                                 weighted=True)
          .to_pandas().sort_values("node").reset_index(drop=True))
    mw = aw.merge(bw, on="node", suffixes=("_d", "_s"))
    assert np.allclose(mw["bc_d"], mw["bc_s"], atol=1e-9)


def _cc(pool, alt=False):
    """CC supersteps on ``pool`` until no label moves."""
    changed, carry = pool.cc_step(None, alt)
    while changed:
        changed, carry = pool.cc_step(carry, alt)


def test_alt_edge_set_cc_on_same_actors():
    """load_alt_edges + cc_step(alt=True): the SAME pool actors run a
    min-label CC over a secondary edge set (the BiCC aux-graph path)
    without a second pool spawn; primary gathers are untouched."""
    import ray
    import ray.data

    from centrality_gpu_ray.pipelines.shards import ShardPool

    # primary graph: one 8-cycle (single component)
    n = 8
    prim = pa.table({
        "s": pa.array(list(range(n)), type=pa.int64()),
        "d": pa.array([(i + 1) % n for i in range(n)], type=pa.int64()),
        "w": pa.array([1] * n, type=pa.int64()),
    })
    pool = ShardPool(ray.data.from_arrow(prim), num_shards=2)
    pool.setup_owners_sharded(n)
    pool.reset_labels()
    _cc(pool)
    prim_lab = np.concatenate(
        ray.get([a.owner_get_state.remote() for a in pool.actors]))
    assert set(prim_lab.astype(int)) == {0}

    # secondary edge set: two components {0,1,2} and {4,5}; 3,6,7
    # isolated — in the numpy edge-part form the shard actors read
    alt = {"s": np.array([0, 1, 4], dtype=np.int64),
           "d": np.array([1, 2, 5], dtype=np.int64),
           "w": np.array([1, 1, 1], dtype=np.int64)}
    counts = ray.get([pool.actors[0].load_alt_edges.remote(alt)]
                     + [a.load_alt_edges.remote()
                        for a in pool.actors[1:]])
    assert sum(counts) == 3
    pool.reset_labels()
    _cc(pool, alt=True)
    alt_lab = np.concatenate(
        ray.get([a.owner_get_state.remote() for a in pool.actors]))
    assert list(alt_lab.astype(int)) == [0, 0, 0, 3, 4, 4, 6, 7]

    # primary edge set is untouched: the full-graph CC still converges
    ray.get([a.drop_alt_edges.remote() for a in pool.actors])
    pool.reset_labels()
    _cc(pool)
    again = np.concatenate(
        ray.get([a.owner_get_state.remote() for a in pool.actors]))
    assert set(again.astype(int)) == {0}
    pool.shutdown()
