"""Biconnected components / articulation points — the queryable core
of the reference's BiCC stage (``bicc.cpp:81-161``, ``run_bicc``
``bicc.cpp:39-51``), reformulated Tarjan–Vishkin-style for a spanning
FOREST instead of a DFS stack (DFS does not parallelize; a BFS forest
does, and unlike DFS low-link the auxiliary-graph construction is
correct with cross edges present).

Construction (per component of the BFS forest):

* tree edges are keyed by their child vertex; an auxiliary graph H on
  tree edges is glued so that two tree edges share an H-component iff
  they share a biconnected component:

  - **rule A** — for each non-tree edge (x, y) with neither endpoint an
    ancestor of the other (preorder-interval test): glue
    (p(x),x) ~ (p(y),y). Each leg of the fundamental cycle is glued
    internally by rule B, so joining the two bottom edges joins the
    whole cycle.
  - **rule B** — for each tree edge (c, w) (w child of non-root c):
    glue (p(c),c) ~ (c,w) iff some non-tree edge from sub(w) lands
    outside c's preorder interval (OUTMIN(w) < pre(c) or
    OUTMAX(w) ≥ pre(c)+size(c)); the witness cycle passes through both
    edges.

* biconnected-component label of a tree edge = min-label CC over H
  (vectorized pointer-jumping); a vertex is an articulation point iff
  its incident tree edges carry ≥ 2 distinct labels (roots: ≥ 2 labels
  among child edges).

Everything is numpy-vectorized per BFS level (level-synchronous — the
distributed form is the same exchange the superstep engine runs);
per-vertex state is O(n) driver-side (the dense-path envelope). The
serial-Tarjan oracle in ``tests/test_bicc.py`` validates fixtures and
random graphs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.nputil import ragged_arange as _ragged
from centrality_gpu_ray.pipelines.graph import Graph


def _forest_bfs(s: np.ndarray, d: np.ndarray, n: int):
    """Level-synchronous BFS from every component's min-id vertex.
    Returns (parent, level); roots have parent == -1."""
    adj_u = np.concatenate([s, d])
    adj_v = np.concatenate([d, s])
    order = np.argsort(adj_u, kind="stable")
    adj_u, adj_v = adj_u[order], adj_v[order]
    R = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(adj_u, minlength=n), out=R[1:])

    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    lvl = 0
    frontier = np.empty(0, dtype=np.int64)
    while True:
        if frontier.size == 0:
            rest = np.flatnonzero(~visited)
            if rest.size == 0:
                break
            root = int(rest[0])
            visited[root] = True
            level[root] = 0
            frontier = np.array([root], dtype=np.int64)
            lvl = 0
        counts = R[frontier + 1] - R[frontier]
        idx = np.repeat(R[frontier], counts) + _ragged(counts)
        nbr = adj_v[idx]
        src = np.repeat(frontier, counts)
        fresh = ~visited[nbr]
        nbr, src = nbr[fresh], src[fresh]
        if nbr.size:
            o = np.lexsort((src, nbr))
            nbr_s, src_s = nbr[o], src[o]
            first = np.ones(nbr_s.size, dtype=bool)
            first[1:] = nbr_s[1:] != nbr_s[:-1]
            new, par = nbr_s[first], src_s[first]
            parent[new] = par
            level[new] = lvl + 1
            visited[new] = True
            frontier = new
            lvl += 1
        else:
            frontier = np.empty(0, dtype=np.int64)
    return parent, level



def _preorder_and_sizes(parent: np.ndarray, level: np.ndarray):
    """Subtree sizes (bottom-up level sweep) and preorder intervals
    (top-down level sweep; children visited in id order)."""
    n = parent.size
    size = np.ones(n, dtype=np.int64)
    max_lvl = int(level.max()) if n else 0
    by_level = [np.flatnonzero(level == k) for k in range(max_lvl + 1)]
    for k in range(max_lvl, 0, -1):
        ch = by_level[k]
        np.add.at(size, parent[ch], size[ch])

    pre = np.zeros(n, dtype=np.int64)
    roots = by_level[0] if by_level else np.empty(0, dtype=np.int64)
    if roots.size:
        pre[roots] = np.cumsum(size[roots]) - size[roots]
    for k in range(max_lvl):
        ch = by_level[k + 1]
        if ch.size == 0:
            continue
        o = np.lexsort((ch, parent[ch]))  # (parent, child-id) order
        ch_s = ch[o]
        par_s = parent[ch_s]
        run_start = np.r_[True, par_s[1:] != par_s[:-1]]
        csz = np.cumsum(size[ch_s]) - size[ch_s]
        base = np.repeat(csz[run_start], np.diff(
            np.r_[np.flatnonzero(run_start), ch_s.size]))
        pre[ch_s] = pre[par_s] + 1 + (csz - base)
    return pre, size


def _min_label_cc(n: int, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Min-label components with pointer jumping over an edge list."""
    lab = np.arange(n, dtype=np.int64)
    while True:
        new = lab.copy()
        if ea.size:
            np.minimum.at(new, ea, lab[eb])
            np.minimum.at(new, eb, lab[ea])
        new = np.minimum(new, new[new])  # pointer jump
        if np.array_equal(new, lab):
            return lab
        lab = new


def biconnected(graph: Graph, config: EngineConfig | None = None,
                metrics: dict | None = None):
    """Core computation → dict of numpy arrays:
    ``parent, level, bcc_label`` (per tree-edge child; -1 for roots),
    ``is_articulation``. See module docstring."""
    import time

    graph.require_dense("biconnected")
    t0 = time.perf_counter()
    s, d, _ = graph.local_arrays()
    n = graph.num_vertices
    if n == 0:
        return {"parent": np.empty(0, np.int64),
                "is_articulation": np.empty(0, bool),
                "bcc_label": np.empty(0, np.int64),
                "sec": 0.0}
    parent, level = _forest_bfs(s, d, n)
    pre, size = _preorder_and_sizes(parent, level)

    is_tree = (parent[d] == s) | (parent[s] == d)
    nx, ny = s[~is_tree], d[~is_tree]

    # per-vertex min/max preorder of nontree-edge targets
    tmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    tmax = np.full(n, -1, dtype=np.int64)
    if nx.size:
        np.minimum.at(tmin, nx, pre[ny])
        np.minimum.at(tmin, ny, pre[nx])
        np.maximum.at(tmax, nx, pre[ny])
        np.maximum.at(tmax, ny, pre[nx])

    # subtree OUTMIN / OUTMAX (bottom-up level sweeps)
    OUTMIN = tmin.copy()
    OUTMAX = tmax.copy()
    max_lvl = int(level.max())
    for k in range(max_lvl, 0, -1):
        ch = np.flatnonzero(level == k)
        np.minimum.at(OUTMIN, parent[ch], OUTMIN[ch])
        np.maximum.at(OUTMAX, parent[ch], OUTMAX[ch])

    # ---- auxiliary graph on tree edges (keyed by child vertex) ----
    aux_a = []
    aux_b = []
    if nx.size:
        # rule A: unrelated endpoints (neither in the other's subtree)
        x_in_y = (pre[ny] <= pre[nx]) & (pre[nx] < pre[ny] + size[ny])
        y_in_x = (pre[nx] <= pre[ny]) & (pre[ny] < pre[nx] + size[nx])
        cross = ~x_in_y & ~y_in_x
        aux_a.append(nx[cross])
        aux_b.append(ny[cross])
    # rule B: tree edge (c, w) glued to (p(c), c) when sub(w) escapes
    # beyond c's interval
    w_all = np.flatnonzero(parent >= 0)
    c_all = parent[w_all]
    ok = parent[c_all] >= 0  # c must be non-root (needs edge (p(c),c))
    w_all, c_all = w_all[ok], c_all[ok]
    esc = ((OUTMIN[w_all] < pre[c_all])
           | (OUTMAX[w_all] >= pre[c_all] + size[c_all]))
    aux_a.append(c_all[esc])
    aux_b.append(w_all[esc])

    ea = np.concatenate(aux_a) if aux_a else np.empty(0, np.int64)
    eb = np.concatenate(aux_b) if aux_b else np.empty(0, np.int64)
    lab = _min_label_cc(n, ea, eb)
    bcc_label = np.where(parent >= 0, lab, -1)

    # articulation: incident tree-edge labels — own edge (non-root)
    # plus child edges; distinct count ≥ 2
    child_mask = parent >= 0
    pair_v = parent[child_mask]
    pair_lab = bcc_label[child_mask]
    # add each non-root vertex's own tree edge
    own_v = np.flatnonzero(child_mask)
    all_v = np.concatenate([pair_v, own_v])
    all_lab = np.concatenate([pair_lab, bcc_label[own_v]])
    order = np.lexsort((all_lab, all_v))
    av, al = all_v[order], all_lab[order]
    new_pair = np.r_[True, (av[1:] != av[:-1]) | (al[1:] != al[:-1])]
    distinct = np.bincount(av[new_pair], minlength=n)
    art = distinct >= 2

    elapsed = time.perf_counter() - t0
    out = {"parent": parent, "level": level, "bcc_label": bcc_label,
           "is_articulation": art, "sec": elapsed}
    if metrics is not None:
        metrics.update({
            "sec": elapsed,
            "num_articulation_points": int(art.sum()),
            "num_bcc": int(np.unique(lab[parent >= 0]).size
                           if (parent >= 0).any() else 0),
            "num_nontree_edges": int(nx.size),
        })
    return out


def _use_distributed(graph: Graph) -> bool:
    """The driver-resident numpy program below is the small-graph
    collapse (mode == "local", edges already fit the driver); any
    distributed-mode graph — sharded state or not — runs the
    owner-exchange form instead (``pipelines/bicc_sharded.py``), so no
    whole-edge-list driver pull ever happens past LOCAL_EDGE_CUTOFF."""
    return graph.mode == "distributed"


def bridges(graph: Graph, config: EngineConfig | None = None,
            metrics: dict | None = None):
    """``(src, dst, is_bridge)`` per canonical edge — a bridge is an
    edge alone in its biconnected component (reference keeps the same
    per-edge ``bridges[m]`` annotation, ``graph_ear_decompos.h:46-50``).
    Derived from :func:`bcc_labels` by a label-frequency count."""
    if _use_distributed(graph):
        from centrality_gpu_ray.pipelines.bicc_sharded import \
            bridges_distributed

        return bridges_distributed(graph, config, metrics)
    t = bcc_labels(graph, config, metrics)
    lab = t.column("bcc").to_numpy()
    uniq, inv = np.unique(lab, return_inverse=True)
    counts = np.bincount(inv)
    return pa.table({
        "src": t.column("src"),
        "dst": t.column("dst"),
        "is_bridge": pa.array(counts[inv] == 1),
    })


def articulation_points(graph: Graph, config: EngineConfig | None = None,
                        metrics: dict | None = None):
    """Returns ``(node, is_articulation)`` for every vertex (original
    ids, sorted; a Dataset on the distributed path)."""
    if _use_distributed(graph):
        from centrality_gpu_ray.pipelines.bicc_sharded import \
            articulation_points_distributed

        return articulation_points_distributed(graph, config, metrics)
    res = biconnected(graph, config, metrics)
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "is_articulation": pa.array(res["is_articulation"]),
    })


def bcc_labels_canonical(graph: Graph, config: EngineConfig | None = None,
                         metrics: dict | None = None):
    """Per-edge BCC labels with an IMPLEMENTATION-INDEPENDENT label:
    the minimum canonical edge key ``min(src,dst)·2³² + max(src,dst)``
    (original ids) over the component's member edges. Any correct BCC
    partition yields bit-identical output, which lets the cyclic-graph
    ``graph_bcc_labels`` driver row be value-hash-checked against an
    independent SQL derivation (fundamental-cycle gluing over the
    oracle's OWN BFS forest — a different spanning tree than the
    engine's, so agreement genuinely cross-checks the partition).
    Works on both the dense-path Table and the distributed Dataset."""
    t = bcc_labels(graph, config, metrics)
    if isinstance(t, pa.Table):
        src = t.column("src").to_numpy()
        dst = t.column("dst").to_numpy()
        if src.size and max(int(src.max()), int(dst.max())) >= (1 << 31):
            raise ValueError("node ids >= 2^31 break the canonical key")
        key = (np.minimum(src, dst).astype(np.int64) << np.int64(32)) \
            | np.maximum(src, dst).astype(np.int64)
        lab = t.column("bcc").to_numpy()
        uniq, inv = np.unique(lab, return_inverse=True)
        mins = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mins, inv, key)
        return pa.table({"src": t.column("src"), "dst": t.column("dst"),
                         "bcc": pa.array(mins[inv])})
    # distributed path: min key per raw label via one hash exchange,
    # then a lookup join re-attaches the canonical label
    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_lookup_join)

    def add_key(tbl: pa.Table) -> pa.Table:
        s = tbl.column("src").to_numpy(zero_copy_only=False)
        d = tbl.column("dst").to_numpy(zero_copy_only=False)
        if s.size and max(int(s.max()), int(d.max())) >= (1 << 31):
            raise ValueError("node ids >= 2^31 break the canonical key")
        key = (np.minimum(s, d).astype(np.int64) << np.int64(32)) \
            | np.maximum(s, d).astype(np.int64)
        return tbl.append_column("_key", pa.array(key))

    keyed = t.map_batches(add_key, batch_format="pyarrow")
    mins = hash_aggregate(keyed.select_columns(["bcc", "_key"]), ["bcc"],
                          [("_key", "min")])
    joined = hash_lookup_join(keyed, mins, "bcc", "bcc",
                              {"_key": "_canon"})
    return joined.map_batches(
        lambda tb: pa.table({"src": tb.column("src"),
                             "dst": tb.column("dst"),
                             "bcc": tb.column("_canon")}),
        batch_format="pyarrow")


def bcc_labels(graph: Graph, config: EngineConfig | None = None,
               metrics: dict | None = None):
    """Per-edge biconnected-component labels ``(src, dst, bcc)`` in
    original ids: a tree edge carries its own label; a non-tree edge
    carries the label of its fundamental cycle (= the label of the
    deeper endpoint's tree edge)."""
    if _use_distributed(graph):
        from centrality_gpu_ray.pipelines.bicc_sharded import \
            bcc_labels_distributed

        return bcc_labels_distributed(graph, config, metrics)
    res = biconnected(graph, config, metrics)
    s, d, _ = graph.local_arrays()
    parent, level, lab = res["parent"], res["level"], res["bcc_label"]
    is_tree = (parent[d] == s) | (parent[s] == d)
    child = np.where(parent[d] == s, d, s)
    deeper = np.where(level[s] >= level[d], s, d)
    bcc = np.where(is_tree, lab[child], lab[deeper])
    ids = graph.node_ids
    return pa.table({
        "src": pa.array(ids[s], type=pa.int64()),
        "dst": pa.array(ids[d], type=pa.int64()),
        "bcc": pa.array(bcc.astype(np.int64)),
    })
