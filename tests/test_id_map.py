"""One id map for every graph: a dense graph's vertex dictionary is its
``node_ids`` as one block, a sharded graph's is range-partitioned, and
every operator that maps ids in a task reads it the same way. The same
edges built dense-distributed and sharded must give equal original-id
outputs; unknown ids fail loudly on every kind of graph; repeated calls
on a dense graph leave nothing behind in the object store; a resume
from another graph's (or another pool size's) checkpoint raises."""

import gc

import numpy as np
import pyarrow as pa
import pytest

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from storeutil import settled_store_bytes

SHARDED_LIMIT = 150


def _edges_table(n: int = 400) -> pa.Table:
    """Ring with chords (a small diameter), a pendant chain hanging off
    vertex 0 (articulation points, bridges) and a separate small
    component; ids are spread out so dense and original ids differ."""
    src = list(range(n)) + [i for i in range(0, n, 3)]
    dst = [(i + 1) % n for i in range(n)] + [(i * 7 + 11) % n
                                             for i in range(0, n, 3)]
    src += [0, 5000, 5001, 5002, 9000, 9001, 9002, 9000]
    dst += [5000, 5001, 5002, 5003, 9001, 9002, 9000, 9003]
    s = np.array(src, dtype=np.int64) * 7 + 3
    d = np.array(dst, dtype=np.int64) * 7 + 3
    return pa.table({"src": pa.array(s), "dst": pa.array(d)})


@pytest.fixture(scope="module")
def graphs():
    import ray.data

    tbl = _edges_table()
    dense = Graph(ray.data.from_arrow(tbl), mode="distributed")
    sharded = Graph(ray.data.from_arrow(tbl),
                    config=EngineConfig(dense_vertex_limit=SHARDED_LIMIT))
    assert not dense.sharded and dense.mode == "distributed"
    assert sharded.sharded
    assert dense.num_vertices == sharded.num_vertices > SHARDED_LIMIT
    yield dense, sharded
    for g in (dense, sharded):
        if g._pool is not None:
            g._pool.shutdown()


def _rows(out, *cols) -> pa.Table:
    """A result (driver table or Dataset) as one table sorted by
    ``cols``."""
    import ray

    if not isinstance(out, pa.Table):
        tabs = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
        out = pa.concat_tables(tabs)
    return out.sort_by([(c, "ascending") for c in cols])


def test_dense_graph_vdict_is_node_ids_in_one_block(graphs):
    import ray

    dense, sharded = graphs
    assert len(dense.vdict.block_refs) == 1
    assert np.array_equal(ray.get(dense.vdict.block_refs[0]),
                          dense.node_ids)
    assert len(sharded.vdict.block_refs) > 1


def test_dense_index_parity(graphs):
    dense, sharded = graphs
    ids = dense.node_ids
    pick = np.random.default_rng(0).choice(ids, 60, replace=False)
    a, b = dense.dense_index(pick), sharded.dense_index(pick)
    assert np.array_equal(a, b)
    assert np.array_equal(ids[a], pick)
    assert np.array_equal(dense.dense_index(ids), np.arange(ids.size))
    absent = np.setdiff1d(np.arange(ids[0], ids[-1]), ids)[:3]
    for bad in ([ids[0] - 1], [ids[-1] + 1], absent, [ids[4], 10**15]):
        assert dense.dense_index(bad) is None
        assert sharded.dense_index(bad) is None
    for g in (dense, sharded):
        assert g.dense_index(np.empty(0, np.int64)).size == 0


def test_dense_index_on_empty_graph():
    import ray.data

    empty = pa.table({"src": pa.array([], pa.int64()),
                      "dst": pa.array([], pa.int64())})
    g = Graph(ray.data.from_arrow(empty), mode="distributed")
    assert g.num_vertices == 0
    assert g.dense_index([]).size == 0
    assert g.dense_index([5]) is None


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_walks_parity(graphs, p):
    from centrality_gpu_ray.pipelines.walks import random_walks

    a, b = (_rows(random_walks(g, walk_length=4, walks_per_node=2,
                               seed=3, p=p), "walk_id")
            for g in graphs)
    assert a.num_rows == graphs[0].num_vertices * 2
    assert a.equals(b)


def test_unknown_start_raises_on_every_graph_kind(graphs):
    import ray.data

    from centrality_gpu_ray.pipelines.walks import random_walks

    local = Graph(ray.data.from_arrow(_edges_table()))
    assert local.mode == "local"
    unknown = int(graphs[0].node_ids[-1]) + 1
    for g in (local, *graphs):
        for p in (1.0, 2.0):
            with pytest.raises(ValueError, match="unknown vertex ids"):
                _rows(random_walks(g, walk_length=3, p=p,
                                   starts=[unknown]), "walk_id")


def test_linkpred_training_set_parity(graphs):
    from centrality_gpu_ray.pipelines.linkpred import linkpred_training_set

    a, b = (_rows(linkpred_training_set(g, neg_per_pos=2, seed=4),
                  "u", "v", "label") for g in graphs)
    assert a.num_rows > graphs[0].num_edges
    assert a.equals(b)


def test_bicc_parity(graphs):
    from centrality_gpu_ray.pipelines.bicc import (articulation_points,
                                                   bcc_labels)

    a, b = (_rows(articulation_points(g), "node") for g in graphs)
    assert a.equals(b)
    assert a.column("is_articulation").to_numpy().sum() >= 4
    a, b = (_rows(bcc_labels(g), "src", "dst") for g in graphs)
    assert a.num_rows == graphs[0].num_edges
    assert a.equals(b)


def test_peel_core_edges_parity(graphs):
    from centrality_gpu_ray.pipelines.peel import peel

    (na, ea), (nb, eb) = (peel(g, k=2) for g in graphs)
    assert _rows(na, "node").equals(_rows(nb, "node"))
    a, b = _rows(ea, "src", "dst"), _rows(eb, "src", "dst")
    assert 0 < a.num_rows < graphs[0].num_edges
    assert a.equals(b)


def test_node2vec_pair_remap_parity(graphs):
    from centrality_gpu_ray.pipelines.embeddings import _dense_pairs

    a, b = (_rows(_dense_pairs(g, 4, 1, 2, 5, 1.0, 1.0),
                  "center", "context") for g in graphs)
    assert a.num_rows > 0
    assert a.equals(b)
    n = graphs[0].num_vertices
    assert a.column("center").to_numpy().max() < n


def _consume(out) -> None:
    _rows(out, out.schema().names[0] if not isinstance(out, pa.Table)
          else out.column_names[0])


def test_dense_graph_calls_leave_no_store_bytes(graphs):
    """Walks (first-order and node2vec), link prediction and the
    link-prediction training set map ids in tasks through the graph's
    own dictionary block: three rounds of calls put nothing new in the
    object store (a copy of ``node_ids`` per call would show here)."""
    from centrality_gpu_ray.pipelines.linkpred import (
        link_prediction, linkpred_training_set)
    from centrality_gpu_ray.pipelines.walks import random_walks

    dense, _ = graphs
    calls = [lambda: random_walks(dense, walk_length=3, seed=1),
             lambda: random_walks(dense, walk_length=3, seed=1, p=2.0),
             lambda: link_prediction(dense, top_k=20),
             lambda: linkpred_training_set(dense, seed=1)]
    for call in calls:
        _consume(call())
    gc.collect()
    base = settled_store_bytes()
    for _ in range(3):
        for call in calls:
            _consume(call())
    gc.collect()
    assert settled_store_bytes() <= base


def test_dense_resume_of_another_graph_raises(tmp_path):
    from centrality_gpu_ray.pipelines import connected_components, pagerank
    from centrality_gpu_ray.sources.edgelist import fixture_dataset

    cfg = EngineConfig(tolerance=0.0, max_supersteps=3,
                       checkpoint_dir=str(tmp_path / "ck"),
                       strict_convergence=False)
    pagerank(Graph(fixture_dataset("test4")), cfg)
    connected_components(Graph(fixture_dataset("test4")), cfg)
    other = Graph(fixture_dataset("test1"))
    with pytest.raises(ValueError, match="another graph"):
        pagerank(other, cfg)
    with pytest.raises(ValueError, match="another graph"):
        connected_components(other, cfg)


def test_sharded_resume_of_another_graph_or_pool_size_raises(graphs,
                                                             tmp_path):
    import ray.data

    from centrality_gpu_ray.pipelines import pagerank
    from centrality_gpu_ray.pipelines.shards import ShardPool

    _, sharded = graphs
    cfg = EngineConfig(tolerance=0.0, max_supersteps=2,
                       checkpoint_dir=str(tmp_path / "ck"),
                       dense_vertex_limit=SHARDED_LIMIT,
                       strict_convergence=False)
    pagerank(sharded, cfg)

    # another graph: fewer vertices than the checkpoint was written for
    other = Graph(ray.data.from_arrow(_edges_table(300)),
                  config=EngineConfig(dense_vertex_limit=SHARDED_LIMIT))
    assert other.sharded
    try:
        with pytest.raises(ValueError, match=f"n={sharded.num_vertices}"):
            pagerank(other, cfg)
    finally:
        other.pool.shutdown()

    # the same graph on a pool of another size: other owner bounds
    pool = ShardPool(sharded.edges,
                     num_shards=len(sharded.pool.actors) + 1)
    try:
        pool.setup_owners(sharded.num_vertices)
        with pytest.raises(ValueError, match="owner bounds"):
            pool.resume_owners(cfg.checkpoint_dir, "pagerank_sharded")
    finally:
        pool.shutdown()
