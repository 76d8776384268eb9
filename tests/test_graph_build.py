"""Graph build: Parquet/Dataset edges → dense-id edge blocks and a pool.

The build's output must be a pure function of the edge set (not of how
the input is blocked), its shortcuts must agree with the long way round,
and it must stay within a fixed number of Ray Data executions."""

import logging
import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines import Graph, connected_components, pagerank
from centrality_gpu_ray.sources.edgelist import fixture_dataset
from centrality_gpu_ray.stages.edges import normalize_edges


def _raw_edges(num_blocks: int):
    """~6,000 raw rows over 1,500 ids with duplicates and self-loops,
    the same rows for every ``num_blocks``."""
    def derive(b):
        i = b["id"]
        return {"src": (i * 7919) % 1500, "dst": (i * i + 13) % 1500}

    return ray.data.range(6000, override_num_blocks=num_blocks).map_batches(
        derive, batch_format="numpy")


def _blocks(ds) -> list:
    return [ray.get(r) for r in ds.to_arrow_refs()]


def test_build_does_not_depend_on_input_blocking():
    graphs = [Graph(_raw_edges(k), mode="distributed") for k in (1, 7)]
    a, b = (_blocks(g.edges) for g in graphs)
    assert len(a) > 1
    # same blocks, so the same shard contents, not only the same rows
    assert [t.num_rows for t in a] == [t.num_rows for t in b]
    assert all(x.equals(y) for x, y in zip(a, b))
    rows = pa.concat_tables(a)
    key = rows["s"].to_numpy() * graphs[0].num_vertices + rows["d"].to_numpy()
    assert np.all(np.diff(key) > 0)  # (s, d) order, one row per edge
    assert np.array_equal(graphs[0].node_ids, graphs[1].node_ids)
    ranks = [pagerank(g).column("pagerank").to_numpy() for g in graphs]
    assert np.array_equal(ranks[0], ranks[1])  # bit-identical
    for g in graphs:
        g.pool.shutdown()


def test_normalized_input_matches_raw_input():
    rng = np.random.default_rng(5)
    src = rng.integers(0, 300, 2000)
    dst = rng.integers(0, 300, 2000)
    w = rng.integers(1, 5, 2000)
    raw = ray.data.from_arrow(pa.table({"src": src, "dst": dst, "weight": w}))
    a = Graph(raw)
    b = Graph(normalize_edges(raw), normalized=True)
    assert np.array_equal(a.node_ids, b.node_ids)
    ta, tb = (pa.concat_tables(_blocks(g.edges)) for g in (a, b))
    for c in ("s", "d", "w"):
        assert np.array_equal(ta[c].to_numpy(), tb[c].to_numpy()), c


class _ExecutionCount(logging.Handler):
    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("Starting execution"):
            self.count += 1


def _executions(build) -> int:
    logger = logging.getLogger(
        "ray.data._internal.execution.streaming_executor")
    handler = _ExecutionCount()
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        build()
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.count


def test_build_execution_count():
    rng = np.random.default_rng(11)
    tbl = pa.table({"src": rng.integers(0, 2000, 8000),
                    "dst": rng.integers(0, 2000, 8000)})
    for limit, bound in ((5_000_000, 2), (100, 3)):
        built = []

        def build():
            g = Graph(ray.data.from_arrow(tbl), mode="distributed",
                      config=EngineConfig(dense_vertex_limit=limit))
            g.pool
            built.append(g)

        assert _executions(build) <= bound, limit
        g = built[0]
        assert g.sharded == (limit == 100)
        assert len(g.pool.actors) > 1
        g.pool.shutdown()


def test_dense_checkpoints_of_two_algorithms_share_a_dir(tmp_path):
    ck = str(tmp_path / "ck")

    def cfg(steps, ck=ck):
        return EngineConfig(tolerance=0.0, max_supersteps=steps,
                            checkpoint_dir=ck, strict_convergence=False)

    g = Graph(fixture_dataset("test4"), mode="distributed")
    assert not g.sharded
    pagerank(g, cfg(3))
    cc_part = {}
    connected_components(g, cfg(1), metrics=cc_part)
    assert sorted(os.listdir(ck)) == ["components", "pagerank"]

    # longer budgets: each algorithm resumes from its own last step
    pr, cc = {}, {}
    pr_res = pagerank(g, cfg(6), metrics=pr)
    cc_res = connected_components(g, cfg(50), metrics=cc)
    assert pr["resumed_from"] == 2
    assert cc["resumed_from"] == 0
    full = pagerank(g, cfg(6, ck=None))
    assert np.array_equal(pr_res.column("pagerank").to_numpy(),
                          full.column("pagerank").to_numpy())
    assert cc_res.equals(connected_components(g, cfg(50, ck=None)))
    g.pool.shutdown()
