"""Distributed biconnected components — Tarjan–Vishkin over a sharded
BFS forest (the last operator family that was dense-only).

The dense pipeline (``pipelines/bicc.py``) derives the algorithm and
runs its level sweeps as numpy over driver-resident vectors; this
module runs the SAME sweeps as owner exchanges on the edge-shard pool
(``pipelines/shards.py``), so no per-vertex vector ever lands on the
driver (reference semantics ``bicc.cpp:81-161``):

1. sharded min-label CC → every component's min-id vertex is a root;
2. multi-root level-synchronous BFS forest (direction-optimized);
3. subtree sizes: bottom-up per-level (parent, size) exchanges;
4. preorder: top-down two-exchange-per-level sweep — children grouped
   at the parent's owner, sibling-sorted by id, offsets routed back;
5. per-vertex non-tree preorder min/max: ONE full-edge shard pass;
6. OUTMIN/OUTMAX escape bounds: bottom-up min/max exchanges;
7. auxiliary edges — rule A shard-side (cross non-tree edges via the
   preorder-interval test), rule B owner-side (subtree escapes the
   parent's interval);
8. BCC labels = pointer-jumped min-label CC of the auxiliary graph —
   the aux edges are already in parent dense-id space and the shard
   actors' (s, d, w) numpy edge-part form, so they load as a SECONDARY
   edge set on the same actors (``load_alt_edges``: no second pool spawn, no duplicated owner
   state; min-label CC is indifferent to duplicate edges) and each
   owner installs its own label range; labels are min dense ids,
   identical to the dense path's ``_min_label_cc``, with aux-isolated
   tree edges keeping their child's own id and roots −1;
9. articulation points = vertices whose incident tree edges carry ≥ 2
   distinct labels (distributed distinct + count, no driver vectors).

Driver work is O(P) per exchange; exchange count is
O(BFS depth) + 2 full-edge passes + one aux CC. The assembled
parent/pre/size/label vectors are single plasma objects (the same
one-copy-per-node budget as every superstep broadcast).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import DictReader
from centrality_gpu_ray.pipelines.graph import Graph


def _cc_to_fixpoint(pool, cfg: EngineConfig, what: str, alt: bool = False):
    """Min-label CC supersteps on ``pool`` until no label moves."""
    steps, (changed, carry) = 0, pool.cc_step(None, alt)
    while changed:
        steps += 1
        if steps > cfg.max_supersteps:
            raise RuntimeError(
                f"bicc: {what} exceeded max_supersteps={cfg.max_supersteps}")
        changed, carry = pool.cc_step(carry, alt)


def _bicc_run(graph: Graph, cfg: EngineConfig, metrics: dict | None) -> dict:
    """Run the distributed BiCC pipeline once per graph; returns (and
    caches on the graph) the pool + the assembled parent/level/label
    vector refs every output derives from."""
    import ray
    import ray.data

    from centrality_gpu_ray.pipelines.shards import assemble

    cached = getattr(graph, "_bicc_dist", None)
    if cached is not None:
        if metrics is not None:
            metrics.update({"sec": cached["sec"], "mode": "distributed",
                            "num_aux_edges": cached["n_aux"],
                            "bfs_depth": cached["max_lvl"],
                            "num_roots": cached["roots"],
                            "bicc_phase_sec": cached.get("phase_sec", {})})
        return cached
    t0 = time.perf_counter()
    phase: dict[str, float] = {}
    _tp = [t0]

    def _mark(name: str) -> None:
        now = time.perf_counter()
        phase[name] = round(now - _tp[0], 3)
        _tp[0] = now

    pool = graph.pool
    P = len(pool.actors)
    actors = pool.actors

    # 1. CC → roots (state = min-id labels, then re-init as BFS forest)
    pool.setup_owners(graph.num_vertices)
    pool.reset_labels()
    _cc_to_fixpoint(pool, cfg, "CC")
    # snapshot the converged component labels BEFORE owner_bicc_init
    # re-initialises owner state for the BFS forest (actor tasks
    # serialize, so the get materializes first): betweenness_decomposed
    # needs exactly this min-label CC again for component sizes and
    # would otherwise re-run the supersteps from scratch
    comp_full = assemble([a.owner_get_state.remote() for a in actors])
    roots = int(sum(ray.get([a.owner_bicc_init.remote() for a in actors])))
    _mark("cc_roots")

    # 2. BFS forest (all roots at level 0)
    depth, frontier, carry = 0, roots, None
    while True:
        new, carry = pool.bfs_step_sharded(
            carry, depth,
            frontier_size=frontier if cfg.bfs_direction_opt else None)
        if new == 0:
            break
        frontier = new
        depth += 1
        if depth > cfg.max_supersteps:
            raise RuntimeError(
                f"bicc: BFS exceeded max_supersteps={cfg.max_supersteps}")
    max_lvl = depth
    _mark("bfs_forest")

    # 3. subtree sizes, bottom-up
    for k in range(max_lvl, 0, -1):
        prs = [a.owner_bicc_size_partial.remote(float(k)) for a in actors]
        pair = assemble(prs)
        ray.get([a.owner_bicc_size_combine.remote(pair) for a in actors])
    _mark("subtree_sizes")

    # 4. preorder: roots get a global layout from P scalar sums, then
    # a two-exchange top-down sweep per level
    sums = ray.get([a.owner_bicc_root_sizesum.remote() for a in actors])
    bases = np.concatenate([[0], np.cumsum(sums)[:-1]]).astype(np.int64)
    ray.get([a.owner_bicc_set_root_pre.remote(int(b))
             for a, b in zip(actors, bases)])
    for k in range(max_lvl):
        trs = [a.owner_bicc_child_triple.remote(float(k + 1))
               for a in actors]
        triple = assemble(trs)
        outs = [a.owner_bicc_assign_child_pre.remote(triple)
                for a in actors]
        pair = assemble(outs)
        ray.get([a.owner_bicc_write_pre.remote(pair) for a in actors])
    _mark("preorder")

    # 5. per-vertex non-tree preorder min/max (one full-edge pass)
    parent_full = assemble([a.owner_get_aux.remote() for a in actors])
    pre_full = assemble([a.owner_get_bicc.remote("pre") for a in actors])
    outs = [a.shard_bicc_nontree_minmax.remote(pool.bounds, parent_full,
                                               pre_full)
            for a in actors]
    ray.get([actors[p].owner_bicc_minmax_combine.remote(p, *outs)
             for p in range(P)])
    _mark("nontree_minmax")

    # 6. OUTMIN/OUTMAX, bottom-up
    for k in range(max_lvl, 0, -1):
        trs = [a.owner_bicc_out_partial.remote(float(k)) for a in actors]
        triple = assemble(trs)
        ray.get([a.owner_bicc_out_combine.remote(triple) for a in actors])
    _mark("outminmax")

    # 7. auxiliary edges (rule A shard-side, rule B owner-side)
    size_full = assemble([a.owner_get_bicc.remote("size") for a in actors])
    aux_refs = ([a.shard_bicc_rule_a.remote(parent_full, pre_full, size_full)
                 for a in actors]
                + [a.owner_bicc_rule_b.remote(parent_full, pre_full,
                                              size_full)
                   for a in actors])
    # the aux CC below reuses THIS pool's owners (reset_labels clobbers
    # the BFS-level state vector) — snapshot levels to plasma first
    level_full = assemble([a.owner_get_state.remote() for a in actors])
    # the aux edges are already in dense-id space and the edge-part form
    # (s, d, w): round-robin the 2P blocks onto the SAME actors as a
    # secondary edge set — no second pool spawn, no duplicated owner
    # state, no Dataset materialization
    per: list[list] = [[] for _ in range(P)]
    for i, r in enumerate(aux_refs):
        per[i % P].append(r)
    n_aux = int(sum(ray.get([a.load_alt_edges.remote(*rs)
                             for a, rs in zip(actors, per)])))
    _mark("aux_edges")

    # 8. BCC labels = pointer-jumped min-label CC of the aux graph, run
    # over the SAME pool's secondary edge set (owner ranges are already
    # set; reset_labels re-inits only the state vector — the BiCC aux/
    # bicc fields and the plasma snapshots above survive). Duplicate/
    # self-free-ness is irrelevant to min-label CC.
    if n_aux > 0:
        pool.reset_labels()
        _cc_to_fixpoint(pool, cfg, "aux-graph CC", alt=True)
        aux_label_full = assemble(
            [a.owner_get_state.remote() for a in actors])
        ray.get([a.owner_bicc_set_label_chunk.remote(aux_label_full)
                 for a in actors])
    else:
        ray.get([a.owner_bicc_set_label_chunk.remote(None)
                 for a in actors])
    ray.get([a.drop_alt_edges.remote() for a in actors])
    _mark("aux_cc_labels")
    label_full = assemble([a.owner_get_bicc.remote("label")
                           for a in actors])
    # snapshot the articulation pair tables NOW: they read live owner
    # state (aux/labels), which a later algorithm reusing the same pool
    # would clobber — the cached refs below are immutable plasma objects
    pairs_refs = [a.owner_bicc_pairs.remote() for a in actors]

    state = {
        "pool": pool, "n_aux": int(n_aux),
        "parent_full": parent_full, "level_full": level_full,
        "label_full": label_full, "size_full": size_full,
        "comp_full": comp_full,
        "pairs_refs": pairs_refs,
        "roots": roots, "max_lvl": max_lvl,
        "sec": time.perf_counter() - t0,
        "phase_sec": dict(phase),
    }
    if metrics is not None:
        metrics.update({"sec": state["sec"], "mode": "distributed",
                        "num_aux_edges": int(n_aux), "bfs_depth": max_lvl,
                        "num_roots": roots,
                        "bicc_phase_sec": dict(phase)})
    graph._bicc_dist = state
    return state


def _pairs_table(cols: dict) -> pa.Table:
    return pa.table(cols)


def articulation_points_distributed(graph: Graph,
                                    config: EngineConfig | None = None,
                                    metrics: dict | None = None):
    """(node, is_articulation) Dataset in original ids — a vertex is an
    articulation point iff its incident tree edges (own edge + child
    edges) carry ≥ 2 distinct BCC labels."""
    import ray.data
    import pyarrow.compute as pc

    from centrality_gpu_ray.stages.shuffle import hash_aggregate, hash_distinct

    cfg = config or graph.config
    st = _bicc_run(graph, cfg, metrics)
    # the owners return numpy columns (actors stay free of Arrow
    # serialization); one small task per owner makes each an Arrow block
    to_table = ray.remote(_pairs_table)
    pairs = ray.data.from_arrow_refs([to_table.remote(r)
                                      for r in st["pairs_refs"]])
    distinct = hash_distinct(pairs, ["v", "lab"],
                             num_partitions=cfg.num_partitions)
    counts = hash_aggregate(distinct, ["v"], [("lab", "count")],
                            num_partitions=cfg.num_partitions)
    mapper = DictReader(graph.vdict.meta)

    def finish(t: pa.Table, _m=mapper) -> pa.Table:
        v = t.column("v").to_numpy()
        c = t.column("count").to_numpy()  # hash_aggregate's count column
        return pa.table({
            "node": pa.array(_m.to_original(v)),
            "is_articulation": pc.greater_equal(pa.array(c),
                                                pa.scalar(2)),
        })

    return counts.map_batches(finish, batch_format="pyarrow")


def bcc_labels_distributed(graph: Graph,
                           config: EngineConfig | None = None,
                           metrics: dict | None = None):
    """(src, dst, bcc) Dataset — per-edge BCC labels over the canonical
    edges, original endpoint ids, labels = min dense id of the BCC
    (identical values to the dense path): tree edges carry their
    child's label, non-tree edges the deeper endpoint's."""
    import ray

    cfg = config or graph.config
    st = _bicc_run(graph, cfg, metrics)
    refs = (st["parent_full"], st["level_full"], st["label_full"])
    mapper = DictReader(graph.vdict.meta)

    class EdgeLabels:
        def __init__(self):
            self._v = None

        def __call__(self, t: pa.Table) -> pa.Table:
            if self._v is None:
                self._v = ray.get(list(refs))
            parent, level, label = self._v
            s = t.column("s").to_numpy()
            d = t.column("d").to_numpy()
            is_tree = (parent[d] == s) | (parent[s] == d)
            child = np.where(parent[d] == s, d, s)
            deeper = np.where(level[s] >= level[d], s, d)
            bcc = np.where(is_tree, label[child], label[deeper])
            return pa.table({
                "src": pa.array(mapper.to_original(s)),
                "dst": pa.array(mapper.to_original(d)),
                "bcc": pa.array(bcc.astype(np.int64)),
            })

    return graph.edges.map_batches(EdgeLabels(), batch_format="pyarrow",
                                   batch_size=cfg.batch_size)


def bridges_distributed(graph: Graph, config: EngineConfig | None = None,
                        metrics: dict | None = None):
    """(src, dst, is_bridge) Dataset — a bridge is an edge alone in its
    BCC: one distributed label-frequency count + a lookup join back."""
    import pyarrow.compute as pc

    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_lookup_join)

    cfg = config or graph.config
    lab = bcc_labels_distributed(graph, cfg, metrics).materialize()
    counts = hash_aggregate(lab, ["bcc"], [([], "count_all")],
                            num_partitions=cfg.num_partitions)
    joined = hash_lookup_join(lab, counts, row_key="bcc", dict_key="bcc",
                              attach={"count": "bcc_count"},
                              num_partitions=cfg.num_partitions)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": t["src"], "dst": t["dst"],
            "is_bridge": pc.equal(t["bcc_count"], pa.scalar(1)),
        })

    return joined.map_batches(finish, batch_format="pyarrow")
