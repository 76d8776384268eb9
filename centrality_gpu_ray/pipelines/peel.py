"""Iterative degree peeling: pendant pruning (M5) and k-core.

The reference's ``PendantGraph`` peels degree≤1 vertices for up to 5
rounds, recording the removal round and the surviving parent
(``pendant_graph.cpp:9-58``; disabled at ``main.cpp:65`` but live code).
Generalized here to k-core peeling: each round removes every vertex
whose *current* degree is below k. Local graphs recount degrees over
the surviving edges each round in numpy. Pool graphs keep each
vertex's degree as a counter on its range owner; each round the owners
emit the vertices they peel, and the shards holding those vertices'
adjacency segments send their neighbours' owners one decrement per
edge. The driver sees one count per round.

Returns ``(node, round_removed)`` with −1 for survivors (the k-core),
plus the surviving edges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.pipelines.graph import Graph


def peel(graph: Graph, k: int = 2, max_rounds: int | None = None):
    """Peel vertices with degree < k iteratively.

    ``k=2`` = pendant pruning (reference semantics, default 5 rounds
    there; unbounded here unless ``max_rounds``). Round r removes the
    not-yet-removed vertices whose degree over the surviving edges is
    in (0, k). A vertex whose degree drops to 0 without being removed
    (the centre of a star whose leaves all go in one round) stays at
    −1, with no core edge; the ``graph_kcore`` SQL oracle mirrors
    this. Returns ``(node, round_removed)`` and the core edges
    ``(src, dst)``: ``pa.Table``s on dense graphs, Datasets on sharded
    ones.
    """
    if graph.mode != "local":
        return _peel_pool(graph, k, max_rounds)
    n = graph.num_vertices
    removed_round = np.full(n, -1, dtype=np.int64)
    s, d, _ = graph.local_arrays()
    alive_edge = np.ones(s.size, dtype=bool)
    rnd = 0
    while max_rounds is None or rnd < max_rounds:
        deg = (np.bincount(s[alive_edge], minlength=n)
               + np.bincount(d[alive_edge], minlength=n))
        doomed = (deg < k) & (deg > 0) & (removed_round == -1)
        if not doomed.any():
            break
        removed_round[doomed] = rnd
        alive_edge &= ~(doomed[s] | doomed[d])
        rnd += 1

    table = pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "round_removed": pa.array(removed_round),
    })
    core_edges = pa.table({
        "src": pa.array(graph.node_ids[s[alive_edge]]),
        "dst": pa.array(graph.node_ids[d[alive_edge]]),
    })
    return table, core_edges


def _peel_pool(graph: Graph, k: int, max_rounds: int | None):
    """The peel on the shard pool: owner degree counters, one
    decrement exchange and one P-scalar sync per round, then the core
    edges from each shard's slice against the assembled removed flags."""
    from centrality_gpu_ray.pipelines.shards import assemble

    pool = graph.pool
    actors = pool.actors
    bounds = pool.split(graph.num_vertices)
    deg_outs = [a.degree_partials.remote(bounds) for a in actors]
    for p, a in enumerate(actors):  # actor calls run in submission order
        a.owner_core_init.remote(int(bounds[p]), int(bounds[p + 1]), p,
                                 *deg_outs)
    rnd, ids = 0, None
    while max_rounds is None or rnd < max_rounds:
        count, ids = pool.combine("owner_core_round", k, rnd, outs=(
            [] if ids is None else pool.gather("shard_core_dec", ids)))
        if count == 0:
            break
        rnd += 1
    gone = assemble([a.owner_core_finalize.remote() for a in actors])
    return (graph.owner_scores(pool, "round_removed", cast="int64"),
            graph.owner_edges([a.shard_core_edges.remote(gone)
                               for a in actors]))


def pendant_prune(graph: Graph, max_rounds: int = 5):
    """Reference-shaped pendant peel (degree ≤ 1, bounded rounds)."""
    return peel(graph, k=2, max_rounds=max_rounds)
