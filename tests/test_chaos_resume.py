"""Mid-superstep SIGKILL → checkpoint resume, bit-identical (SURVEY
§5 item 4). The killer thread watches the checkpoint dir and fires
after real checkpoints exist, so the kill provably lands mid-run."""

import os

import pytest

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.state.chaos import run_chaos_pagerank

SF_DIR = "/root/testdata/sf0.01"


@pytest.mark.skipif(not os.path.isdir(SF_DIR),
                    reason="driver testdata not present")
@pytest.mark.parametrize("sharded", [False, True],
                         ids=["dense", "sharded"])
def test_kill_mid_pagerank_resume_bit_identical(ray_session, sharded):
    from centrality_gpu_ray import graph_queries as gq

    # sharded: the vertex limit sits below the graph's vertex count, so
    # checkpoints are per-owner chunks under <ck>/pagerank_sharded/
    cfg = EngineConfig(dense_vertex_limit=1000) if sharded else EngineConfig()

    def make_graph():
        g = gq.lineitem_graph(SF_DIR, mode="distributed", config=cfg)
        assert g.sharded == sharded
        return g

    def cfg_factory(ck):
        return EngineConfig(tolerance=0.0, max_supersteps=40,
                            checkpoint_dir=ck, checkpoint_every=1)

    out = run_chaos_pagerank(make_graph, cfg_factory, kill_after_steps=3)
    assert out["bit_identical"]
    assert out["chaos_error"] is not None
    assert out["checkpointed_steps"] >= 3
    assert out["killed_pids"]

    import shutil
    shutil.rmtree(out["checkpoint_dir"], ignore_errors=True)
