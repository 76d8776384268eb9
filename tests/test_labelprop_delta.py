"""Change-driven (owner-resident count state) label propagation parity.

The resident path must be superstep-for-superstep bit-identical to the
legacy full-recompute paths: the resident (v, label)→count table is an
exact integer invariant of the current labels, and the decide is the
same `_pick_labels`, so labels, superstep counts and the converged flag
all compare exactly. Forcing ``pool._frontier_capable = False`` routes
`label_propagation` through the legacy full-recompute superstep,
`ShardPool.lp_step` (full-count owner combine), on dense and sharded
graphs alike."""

import numpy as np
import pyarrow as pa
import pytest

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines import Graph, label_propagation


def _rand_edges(seed=7, n=400, m=1600):
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, m)
    d = rng.integers(0, n, m)
    w = rng.integers(1, 5, m)
    keep = s != d
    return pa.table({
        "src": pa.array((s * 13 + 2)[keep]),
        "dst": pa.array((d * 13 + 2)[keep]),
        "weight": pa.array(w[keep].astype(np.int64)),
    })


def _two_graphs(ray_session, **cfg_kw):
    import ray.data

    tbl = _rand_edges()
    cfg = EngineConfig(**cfg_kw) if cfg_kw else EngineConfig()
    g_new = Graph(ray.data.from_arrow(tbl), config=cfg, mode="distributed")
    g_old = Graph(ray.data.from_arrow(tbl), config=cfg, mode="distributed")
    g_old.pool._frontier_capable = False
    return g_new, g_old


@pytest.mark.parametrize("weighted", [True, False])
def test_dense_change_driven_matches_full_recompute(ray_session, weighted):
    g_new, g_old = _two_graphs(ray_session)
    m_new, m_old = {}, {}
    a = label_propagation(g_new, weighted=weighted,
                          metrics=m_new).to_pandas()
    b = label_propagation(g_old, weighted=weighted,
                          metrics=m_old).to_pandas()
    assert m_new["supersteps"] == m_old["supersteps"]
    assert m_new["converged"] == m_old["converged"]
    merged = a.merge(b, on="node", suffixes=("_new", "_old"))
    assert len(merged) == g_new.num_vertices
    assert (merged["label_new"] == merged["label_old"]).all()


def test_sharded_change_driven_matches_lp_step(ray_session):
    import ray.data

    tbl = _rand_edges(seed=11)
    cfg = EngineConfig(dense_vertex_limit=100)
    g_new = Graph(ray.data.from_arrow(tbl), config=cfg)
    g_old = Graph(ray.data.from_arrow(tbl), config=cfg)
    assert g_new.sharded
    g_old.pool._frontier_capable = False
    m_new, m_old = {}, {}
    a = label_propagation(g_new, cfg, metrics=m_new).to_pandas()
    b = label_propagation(g_old, cfg, metrics=m_old).to_pandas()
    assert m_new["supersteps"] == m_old["supersteps"]
    merged = a.merge(b, on="node", suffixes=("_new", "_old"))
    assert len(merged) == g_new.num_vertices
    assert (merged["label_new"] == merged["label_old"]).all()


def test_dense_resident_checkpoint_resume(ray_session, tmp_path):
    # interrupted resident run (3 supersteps, checkpointed) + resumed
    # run == uninterrupted run, bit-identically
    import ray.data

    tbl = _rand_edges(seed=3)
    ck = str(tmp_path / "ck")
    part = EngineConfig(max_supersteps=3, checkpoint_dir=ck)
    g = Graph(ray.data.from_arrow(tbl), config=part, mode="distributed")
    label_propagation(g, part, max_supersteps=3)
    full_cfg = EngineConfig(checkpoint_dir=ck)
    g2 = Graph(ray.data.from_arrow(tbl), config=full_cfg, mode="distributed")
    resumed = label_propagation(g2, full_cfg).to_pandas()
    g3 = Graph(ray.data.from_arrow(tbl), mode="distributed")
    fresh = label_propagation(g3).to_pandas()
    merged = resumed.merge(fresh, on="node", suffixes=("_r", "_f"))
    assert len(merged) == g3.num_vertices
    assert (merged["label_r"] == merged["label_f"]).all()


def test_sharded_resident_checkpoint_resume(ray_session, tmp_path):
    # sharded LP: interrupted (3 supersteps, per-owner checkpoints) +
    # resumed == uninterrupted, exactly
    import ray.data

    tbl = _rand_edges(seed=17)
    ck = str(tmp_path / "ck")
    cfg_part = EngineConfig(dense_vertex_limit=80, checkpoint_dir=ck)
    g = Graph(ray.data.from_arrow(tbl), config=cfg_part)
    assert g.sharded
    label_propagation(g, cfg_part, max_supersteps=3)
    m = {}
    cfg_full = EngineConfig(dense_vertex_limit=80, checkpoint_dir=ck)
    g2 = Graph(ray.data.from_arrow(tbl), config=cfg_full)
    resumed = label_propagation(g2, cfg_full, metrics=m).to_pandas()
    assert m["resumed_from"] == 2
    g3 = Graph(ray.data.from_arrow(tbl),
               config=EngineConfig(dense_vertex_limit=80))
    fresh = label_propagation(g3).to_pandas()
    merged = resumed.merge(fresh, on="node", suffixes=("_r", "_f"))
    assert len(merged) == g3.num_vertices
    assert (merged["label_r"] == merged["label_f"]).all()
