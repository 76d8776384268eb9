"""Block-cut-tree decomposed exact betweenness centrality.

The reference's live BC path never runs plain Brandes on the whole
graph: it splits the graph into biconnected components, aggregates
*reach* values (how many vertices hang off each articulation point
outside a BCC) bottom-up over the block-cut tree
(``modified_apsp.cpp:157-220`` ``reachfunction``; the
``bc_result[artpt] += cntx*cnty*2`` closed form at
``modified_apsp.cpp:208``), then runs Brandes *per BCC* with those
reach values as pair weights (``apsp_graph.cpp:212-260`` —
``delta[v] += sigma[v]*coeff*reach_val*2``). This file is that
decomposition, re-derived for the Ray engine:

* **BCC labels / articulation points** come from the engine's own
  Tarjan–Vishkin BiCC (``pipelines/bicc.py``) — BFS forest, preorder
  intervals, aux-graph CC.
* **Branch sizes** (the reference's reach vector) fall out of the SAME
  BFS forest: removing an articulation point ``a`` splits its
  component into one part per distinct BCC among ``a``'s incident
  tree edges (two children of ``a`` are separated iff their edges are
  in different BCCs), so

  ``br(B, a) = Σ size(c)  over children c with bcc(a,c) = B``
  ``          + (csize − size(a))  if bcc(parent(a), a) = B``

  replaces the reference's explicit block-cut-tree level sweep
  (I4/I5) with two vectorized scatter-adds.
* **Closed form** — every ordered pair crossing ``a`` between two
  different branches passes through ``a`` on *all* shortest paths:

  ``bc_cf(a) = (csize−1)² − Σ_B br(B, a)²``

  (zero for non-articulation vertices: a single branch of size
  csize−1).
* **Per-BCC reach-weighted Brandes** — inside BCC ``B`` each vertex
  carries mass ``w_B(v) = 1`` (plain vertex) or
  ``w_B(a) = csize − br(B, a)`` (articulation point: itself plus every
  vertex whose entry into B is a). Σ_v w_B(v) = csize, and the
  mass-weighted dependency accumulation
  (``_single_source_dependencies(mass=...)``) credits each interior
  vertex with exactly the ordered-pair mass whose shortest paths cross
  it. Summing the three terms reproduces plain exact Brandes BC
  *bit-for-bit in exact arithmetic* (float-tolerance parity tested in
  ``tests/test_bc_decomp.py``).

Why it scales: Brandes cost drops from ``O(n·m)`` to
``Σ_B n_B·m_B`` — bridges and pendant trees (2-vertex BCCs) cost
*nothing*, and the remaining work partitions into independent
(BCC, source-range) items fanned out over an actor pool holding one
broadcast of the BCC-sorted edge arrays. Dense conformance tier (same
envelope as exact all-sources BC — the whole point of the
decomposition is to make THAT tier cheap, exactly like the reference).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.bc_chain import (MIN_CHAIN_LEN,
                                                   build_compressed,
                                                   chain_pass_v2,
                                                   compressed_plain_pass,
                                                   detect_chains)
from centrality_gpu_ray.pipelines.bicc import (_preorder_and_sizes,
                                               _ragged, biconnected)
from centrality_gpu_ray.pipelines.brandes import (
    _single_source_dependencies, _single_source_dependencies_weighted,
    _validate_bc_weights, build_csr)
from centrality_gpu_ray.pipelines.graph import Graph

# target per work item: ~sources × BCC-edges vectorized kernel ops.
# Big enough to amortize the ~5-10 ms per-task RTT of this substrate,
# small enough that one giant BCC still splits across the pool.
_ITEM_EDGE_OPS = 4_000_000


def _decompose(s: np.ndarray, d: np.ndarray, n: int, res: dict):
    """Driver-side closed forms + per-(BCC, vertex) masses.

    Returns ``(cf, e_bcc_dense, nb, mass_bcc, mass_vertex, mass_value)``
    where ``cf`` is the articulation closed-form BC vector and masses
    list every articulation incidence (non-listed vertices have mass
    1 in every BCC containing them).
    """
    parent, level, lab = res["parent"], res["level"], res["bcc_label"]
    art = res["is_articulation"]
    _, size = _preorder_and_sizes(parent, level)
    # component label = BFS-forest root, by pointer-jumping the parent
    # vector (O(n log depth), no edge passes — the forest already
    # encodes the components; a _min_label_cc here would rescan the
    # whole edge list for information biconnected() just computed)
    comp = np.where(parent >= 0, parent, np.arange(n, dtype=np.int64))
    while True:
        new = comp[comp]
        if np.array_equal(new, comp):
            break
        comp = new
    _, inv = np.unique(comp, return_inverse=True)
    csize = np.bincount(inv)[inv].astype(np.int64)

    # per-edge BCC label (same derivation as bcc_labels(), dense ids)
    is_tree = (parent[d] == s) | (parent[s] == d)
    child = np.where(parent[d] == s, d, s)
    deeper = np.where(level[s] >= level[d], s, d)
    e_bcc = np.where(is_tree, lab[child], lab[deeper])
    uniq_b, e_bcc_dense = np.unique(e_bcc, return_inverse=True)
    nb = uniq_b.size

    # branch-size incidences at articulation points (reach aggregation,
    # modified_apsp.cpp:157-220, without the explicit block-cut tree)
    childs = np.flatnonzero(parent >= 0)
    a_rows = np.concatenate([parent[childs], childs])
    b_rows = np.concatenate([lab[childs], lab[childs]])
    c_rows = np.concatenate([size[childs], csize[childs] - size[childs]])
    keep = art[a_rows]
    a_rows, b_rows, c_rows = a_rows[keep], b_rows[keep], c_rows[keep]

    cf = np.zeros(n, dtype=np.float64)
    if a_rows.size == 0:
        return (cf, e_bcc_dense, nb,
                np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.float64))

    o = np.lexsort((b_rows, a_rows))
    a_s, b_s, c_s = a_rows[o], b_rows[o], c_rows[o].astype(np.float64)
    new_grp = np.r_[True, (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])]
    gidx = np.cumsum(new_grp) - 1
    br = np.bincount(gidx, weights=c_s)
    ga = a_s[new_grp]
    gb = b_s[new_grp]

    # closed form: (csize-1)^2 - sum of squared branch sizes
    np.add.at(cf, ga, -(br * br))
    arts = np.flatnonzero(art)
    cm1 = (csize[arts] - 1).astype(np.float64)
    cf[arts] += cm1 * cm1

    # per-(BCC, art) mass = csize - branch size (itself + every vertex
    # entering the BCC through it) — the reference's reach_val
    mass_val = csize[ga].astype(np.float64) - br
    gb_dense = np.searchsorted(uniq_b, gb)
    return cf, e_bcc_dense, nb, gb_dense, ga, mass_val


def _localize_bcc(eu: np.ndarray, ev: np.ndarray,
                  m_v: np.ndarray, m_w: np.ndarray,
                  weighted: bool):
    """One BCC's edges (global dense ids) + its mass rows → local-id
    arrays: (verts, lu, lv, nv, mass, R, C). Shared by the dense
    actor-pool path and the distributed co-partition reducer so the
    localization / mass-projection / CSR logic cannot diverge."""
    verts = np.unique(np.concatenate([eu, ev]))
    nv = verts.size
    lu = np.searchsorted(verts, eu)
    lv = np.searchsorted(verts, ev)
    mass = np.ones(nv, dtype=np.float64)
    if m_v.size:
        pos = np.searchsorted(verts, m_v)
        hit = (pos < nv) & (verts[np.minimum(pos, nv - 1)] == m_v)
        mass[pos[hit]] = m_w[hit]
    if weighted:
        R = C = None  # the weighted kernel sweeps the edge list
    else:
        R, C = build_csr(lu, lv, nv)
    return verts, lu, lv, nv, mass, R, C


def _bcc_sources_pass(lu: np.ndarray, lv: np.ndarray, ew: np.ndarray,
                      nv: int, mass: np.ndarray, weighted: bool,
                      sources, R, C) -> np.ndarray:
    """Reach-weighted dependency accumulation for the given source
    list of one localized BCC (the reference's
    ``apsp_graph.cpp:229-252`` accumulate with reach values)."""
    acc = np.zeros(nv, dtype=np.float64)
    for srci in sources:
        srci = int(srci)
        if weighted:
            delta = _single_source_dependencies_weighted(
                lu, lv, ew, nv, srci, mass=mass)
        else:
            delta = _single_source_dependencies(
                R, C, lu, lv, nv, srci, mass=mass)
        acc += mass[srci] * delta
    return acc


class _DecompBrandesActor:
    """Actor-pool stage over (bcc, src_lo, src_hi) work items. Holds
    the BCC-sorted edge arrays + articulation masses (bytes → private
    heap, same rationale as ``_BrandesActor``); caches the most recent
    BCC's CSR so consecutive source-chunks of one giant BCC don't
    rebuild it."""

    def __init__(self, bcast_ref, weighted: bool = False):
        import ray

        (es_b, ed_b, ew_b, boffs_b, moffs_b, mv_b, mw_b) = ray.get(bcast_ref)
        self.es = np.frombuffer(es_b, dtype=np.int64).copy()
        self.ed = np.frombuffer(ed_b, dtype=np.int64).copy()
        self.ew = np.frombuffer(ew_b, dtype=np.float64).copy()
        self.boffs = np.frombuffer(boffs_b, dtype=np.int64).copy()
        self.moffs = np.frombuffer(moffs_b, dtype=np.int64).copy()
        self.m_v = np.frombuffer(mv_b, dtype=np.int64).copy()
        self.m_w = np.frombuffer(mw_b, dtype=np.float64).copy()
        self.weighted = weighted
        self._cached_k = -1
        self._cached = None
        self._cached_det = -1

    def _bcc_arrays(self, k: int):
        if k == self._cached_k:
            return self._cached
        lo, hi = self.boffs[k], self.boffs[k + 1]
        mlo, mhi = self.moffs[k], self.moffs[k + 1]
        local = _localize_bcc(self.es[lo:hi], self.ed[lo:hi],
                              self.m_v[mlo:mhi], self.m_w[mlo:mhi],
                              self.weighted)
        self._cached_k = k
        self._cached = local + (self.ew[lo:hi],)
        self._cached_det = -1  # chain detection is computed lazily
        return self._cached

    def _chain_struct(self, k: int):
        """detect_chains result, the plain-source list and the
        chain-contracted multigraph for compressed BCC ``k`` (cached
        alongside the localization)."""
        if k == self._cached_k and self._cached_det != -1:
            return self._cached_det
        verts, lu, lv, nv, mass, R, C, ew = self._bcc_arrays(k)
        det = detect_chains(lu, lv, ew, nv)
        if det is None:
            plain = np.arange(nv, dtype=np.int64)
            chains = []
            comp = None
        else:
            plain = np.flatnonzero(~det["interior"])
            chains = det["chains"]
            comp = build_compressed(lu, lv, ew, nv, det)
        self._cached_det = (plain, chains, comp)
        return self._cached_det

    def __call__(self, batch: pa.Table) -> pa.Table:
        ks = batch.column("k").to_numpy()
        los = batch.column("lo").to_numpy()
        his = batch.column("hi").to_numpy()
        kinds = (batch.column("kind").to_numpy()
                 if "kind" in batch.column_names
                 else np.zeros(ks.size, dtype=np.int64))
        out_v: list[np.ndarray] = []
        out_c: list[np.ndarray] = []
        for k, lo, hi, kind in zip(ks, los, his, kinds):
            verts, lu, lv, nv, mass, R, C, ew = self._bcc_arrays(int(k))
            if kind == 0:
                acc = _bcc_sources_pass(
                    lu, lv, ew, nv, mass, self.weighted,
                    range(int(lo), int(hi)), R, C)
            elif kind == 1:
                # slice lo of hi over the compressed BCC's plain
                # (anchor + short-chain) source list — sweeps run on
                # the chain-contracted multigraph (compressed-sweep v2)
                plain, _, comp = self._chain_struct(int(k))
                srcs = np.array_split(plain, int(hi))[int(lo)]
                if comp is None:
                    # the driver's deg-2 estimate said "compressible"
                    # but every run is shorter than MIN_CHAIN_LEN —
                    # plain sources over the full BCC, as before
                    acc = _bcc_sources_pass(lu, lv, ew, nv, mass,
                                            self.weighted, srcs, R, C)
                else:
                    acc = compressed_plain_pass(comp, srcs, mass)
            else:
                # slice lo of hi over the chain list
                _, chains, comp = self._chain_struct(int(k))
                nit = int(hi)
                cl = (len(chains) * int(lo)) // nit
                ch = (len(chains) * (int(lo) + 1)) // nit
                if ch <= cl:
                    continue
                acc = chain_pass_v2(comp, nv, mass, cl, ch)
            nz = np.flatnonzero(acc)
            out_v.append(verts[nz])
            out_c.append(acc[nz])
        v = np.concatenate(out_v) if out_v else np.empty(0, np.int64)
        c = np.concatenate(out_c) if out_c else np.empty(0, np.float64)
        return pa.table({"v": pa.array(v.astype(np.int64)),
                         "c": pa.array(c)})


def betweenness_decomposed(graph: Graph,
                           config: EngineConfig | None = None,
                           concurrency: int = 4,
                           weighted: bool = False,
                           metrics: dict | None = None) -> pa.Table:
    """Exact ordered-pair BC via BCC decomposition → ``(node, bc)``.

    Identical output to ``betweenness_centrality(graph)`` (parity
    tested); cost ``Σ_B n_B·m_B`` instead of ``n·m`` — on graphs with
    pendant trees, bridges, or many small blocks this is the
    reference's headline optimization (``modified_apsp.cpp:336-372``).

    ``weighted=True`` counts shortest paths by total (positive
    integer) edge weight inside each BCC. The articulation closed
    forms and reach masses are weight-INVARIANT — a cut vertex lies on
    every shortest path between its branches no matter the metric — so
    only the per-BCC kernel changes.
    """
    import ray
    import ray.data

    cfg = config or graph.config
    if getattr(graph, "sharded", False) or graph.mode == "distributed":
        return _betweenness_decomposed_distributed(graph, cfg, weighted,
                                                   metrics)
    t0 = time.perf_counter()
    n = graph.num_vertices
    s, d, w = graph.local_arrays()
    if weighted:
        _validate_bc_weights(np.asarray(w, dtype=np.float64),
                             "betweenness_decomposed")
    if n == 0 or s.size == 0:
        if metrics is not None:
            metrics.update({"sec": 0.0, "num_bcc_run": 0})
        return pa.table({
            "node": pa.array(graph.node_ids, type=pa.int64()),
            "bc": pa.array(np.zeros(n, dtype=np.float64)),
        })

    res = biconnected(graph)
    cf, e_bcc_dense, nb, m_b, m_v, m_w = _decompose(s, d, n, res)

    # BCC-sorted edge arrays + per-BCC offsets
    eo = np.argsort(e_bcc_dense, kind="stable")
    es, ed = s[eo].astype(np.int64), d[eo].astype(np.int64)
    ew = np.asarray(w, dtype=np.float64)[eo] if weighted \
        else np.ones(es.size, dtype=np.float64)
    eb = e_bcc_dense[eo]
    boffs = np.searchsorted(eb, np.arange(nb + 1)).astype(np.int64)

    # per-BCC vertex counts (unique (bcc, endpoint) incidences)
    vb_b = np.concatenate([eb, eb])
    vb_v = np.concatenate([es, ed])
    vo = np.lexsort((vb_v, vb_b))
    bb, vv = vb_b[vo], vb_v[vo]
    newv = np.r_[True, (bb[1:] != bb[:-1]) | (vv[1:] != vv[:-1])]
    nverts = np.bincount(bb[newv], minlength=nb)

    # per-(BCC, vertex) degrees → deg-2 interior counts and chain
    # counts per BCC (drives the chain-compression item split; the
    # interior subgraph of a BCC is a disjoint union of paths, so
    # #chains = #deg2 − #edges-with-both-endpoints-deg2)
    ub_v, uv_v = bb[newv], vv[newv]
    bnds = np.append(np.flatnonzero(newv), bb.size)
    degcnt = np.diff(bnds)
    n2 = np.bincount(ub_v[degcnt == 2], minlength=nb)
    ukey = ub_v * np.int64(n + 1) + uv_v            # sorted
    ks_ = eb * np.int64(n + 1)
    d_s = degcnt[np.searchsorted(ukey, ks_ + es)]
    d_d = degcnt[np.searchsorted(ukey, ks_ + ed)]
    both2 = (d_s == 2) & (d_d == 2)
    e_int = np.bincount(eb[both2], minlength=nb)
    jcnt = n2 - e_int
    compk = (n2 >= MIN_CHAIN_LEN) & (n2 < nverts)

    # work items: only BCCs with an interior (≥3 vertices); giant BCCs
    # split by source range so one block never serializes the pool
    kk = np.flatnonzero(nverts >= 3)
    # clique skip (same rule as the distributed reducer): a
    # canonical-deduped block with nv·(nv−1)/2 edges is a clique — with
    # unit hops (or equal intra-block weights) no vertex is interior to
    # any shortest path, so its Brandes contribution is exactly zero
    if kk.size:
        nedges_b = boffs[1:] - boffs[:-1]
        ic = nedges_b[kk] == nverts[kk] * (nverts[kk] - 1) // 2
        if weighted and ic.any():
            # every dense BCC label has >=1 edge (labels come from
            # np.unique return_inverse), so boffs[:-1] is in range —
            # reduceat raises loudly if that invariant ever breaks
            wmin = np.minimum.reduceat(ew, boffs[:-1])
            wmax = np.maximum.reduceat(ew, boffs[:-1])
            ic &= wmin[kk] == wmax[kk]
        kk = kk[~ic]
    bc = cf  # accumulate into the closed-form vector
    work_dec = 0
    n_comp = int(compk[kk].sum()) if kk.size else 0
    if kk.size:
        plain_k = kk[~compk[kk]]
        comp_kk = kk[compk[kk]]
        mm = (boffs[plain_k + 1] - boffs[plain_k]).astype(np.int64)
        work_dec = int((nverts[plain_k] * mm).sum())
        per = np.maximum(1, _ITEM_EDGE_OPS // np.maximum(mm, 1))
        nitems = -(-nverts[plain_k] // per)
        item_k = np.repeat(plain_k, nitems)
        item_per = np.repeat(per, nitems)
        item_lo = _ragged(nitems) * item_per
        item_hi = np.minimum(item_lo + item_per,
                             np.repeat(nverts[plain_k], nitems))
        item_kind = np.zeros(item_k.size, dtype=np.int64)
        if comp_kk.size:
            # chain-compressed BCCs (reference Path C): items are
            # "slice i of nitems" over the actor-derived plain-source
            # and chain lists — the driver only sizes them from its
            # estimates (anchors ≈ nv − n2; chain sweeps ≈ 2J·m)
            cm = (boffs[comp_kk + 1] - boffs[comp_kk]).astype(np.int64)
            est_src = np.maximum(nverts[comp_kk] - n2[comp_kk], 1)
            cwork = 2 * jcnt[comp_kk] * cm + n2[comp_kk] + nverts[comp_kk]
            work_dec += int((est_src * cm + cwork).sum())
            np_items = -(-(est_src * cm) // _ITEM_EDGE_OPS)
            np_items = np.maximum(np_items, 1)
            nc_items = np.minimum(np.maximum(-(-cwork
                                               // _ITEM_EDGE_OPS), 1),
                                  np.maximum(jcnt[comp_kk], 1))
            item_k = np.concatenate([
                item_k, np.repeat(comp_kk, np_items),
                np.repeat(comp_kk, nc_items)])
            item_lo = np.concatenate([
                item_lo, _ragged(np_items), _ragged(nc_items)])
            item_hi = np.concatenate([
                item_hi, np.repeat(np_items, np_items),
                np.repeat(nc_items, nc_items)])
            item_kind = np.concatenate([
                item_kind, np.ones(int(np_items.sum()), dtype=np.int64),
                np.full(int(nc_items.sum()), 2, dtype=np.int64)])

        # masses sorted by (bcc, vertex) with per-BCC offsets
        if m_b.size:
            mo = np.lexsort((m_v, m_b))
            m_b, m_v, m_w = m_b[mo], m_v[mo], m_w[mo]
        moffs = np.searchsorted(m_b, np.arange(nb + 1)).astype(np.int64)

        bcast = ray.put((es.tobytes(), ed.tobytes(), ew.tobytes(),
                         boffs.tobytes(),
                         moffs.tobytes(), m_v.astype(np.int64).tobytes(),
                         m_w.astype(np.float64).tobytes()))

        items = pa.table({"k": pa.array(item_k.astype(np.int64)),
                          "lo": pa.array(item_lo.astype(np.int64)),
                          "hi": pa.array(item_hi.astype(np.int64)),
                          "kind": pa.array(item_kind)})
        # a list of single-row-group tables → one block per slice, so
        # the pool actually fans out (a single from_arrow table is one
        # block = one task)
        n_items = items.num_rows
        rows_per_block = max(1, -(-n_items // max(concurrency * 4, 1)))
        slices = [items.slice(i, rows_per_block)
                  for i in range(0, n_items, rows_per_block)]
        ds = ray.data.from_arrow(slices)
        parts = ds.map_batches(
            _DecompBrandesActor, batch_format="pyarrow",
            batch_size=rows_per_block,
            concurrency=max(1, min(concurrency, len(slices))),
            num_cpus=0.5, fn_constructor_args=(bcast, weighted))
        for batch in parts.iter_batches(batch_size=None,
                                        batch_format="pyarrow"):
            np.add.at(bc, batch.column("v").to_numpy(),
                      batch.column("c").to_numpy())

    elapsed = time.perf_counter() - t0
    if metrics is not None:
        metrics.update({
            "sec": elapsed,
            "num_bcc": int(nb),
            "num_bcc_run": int(kk.size),
            "num_bcc_chain_compressed": n_comp,
            "work_decomposed_edge_ops": work_dec,
            "work_plain_edge_ops": int(n) * int(s.size),
            "num_articulation_points":
                int(res["is_articulation"].sum()),
        })
    return pa.table({
        "node": pa.array(graph.node_ids, type=pa.int64()),
        "bc": pa.array(bc),
    })


# ---------------------------------------------------------------------------
# distributed form (> dense_vertex_limit / distributed-mode graphs)
# ---------------------------------------------------------------------------

def _decomp_partition_brandes(edges: pa.Table, masses: pa.Table,
                              weighted: bool, edge_cap: int,
                              work_cap: float) -> pa.Table:
    """Co-partition reducer: all edges of a hash-class of BCCs + the
    matching mass rows. Runs the exact mass-weighted Brandes for every
    BCC in the partition; returns sparse (v, c) dense-id score rows.
    Raises loudly when one biconnected component exceeds ``edge_cap``
    edges — the documented partitioning assumption of the distributed
    decomposition (a web-scale giant core needs sampled BC instead;
    the closed forms and every sub-cap block remain exact)."""
    empty = pa.table({"v": pa.array([], pa.int64()),
                      "c": pa.array([], pa.float64())})
    if edges.num_rows == 0:
        return empty
    s = edges.column("s").to_numpy().astype(np.int64)
    d = edges.column("d").to_numpy().astype(np.int64)
    w = edges.column("w").to_numpy().astype(np.float64)
    b = edges.column("bcc").to_numpy().astype(np.int64)
    o = np.argsort(b, kind="stable")
    s, d, w, b = s[o], d[o], w[o], b[o]
    ub, bstart = np.unique(b, return_index=True)
    bounds = np.append(bstart, b.size)

    mb = masses.column("B").to_numpy().astype(np.int64)
    ma = masses.column("a").to_numpy().astype(np.int64)
    mw = masses.column("mass").to_numpy().astype(np.float64)
    mo = np.lexsort((ma, mb))
    mb, ma, mw = mb[mo], ma[mo], mw[mo]

    # Vectorized clique skip. The edges are canonical-deduped, so a
    # block with exactly nv·(nv−1)/2 of them is a clique: every pair
    # is adjacent, and with unit hops (or equal intra-block weights)
    # any detour is strictly longer than the direct edge — no vertex
    # is interior to ANY shortest path, so the mass-weighted Brandes
    # contributes exactly zero and the closed forms already carry the
    # block's whole answer. Link graphs are dominated by single-edge
    # and triangle blocks, so this removes the per-block Python loop
    # cost for the common case (and a clique needs no work/edge-cap
    # check: it does no serial work at all).
    nedges = np.diff(bounds)
    bb = np.concatenate([b, b])
    vv = np.concatenate([s, d])
    po = np.lexsort((vv, bb))
    bbs, vvs = bb[po], vv[po]
    first = np.concatenate([[True], (bbs[1:] != bbs[:-1])
                            | (vvs[1:] != vvs[:-1])])
    pair_block = bbs[first]  # sorted; one row per distinct (block, v)
    nv_per = (np.searchsorted(pair_block, ub, side="right")
              - np.searchsorted(pair_block, ub, side="left"))
    is_clique = nedges == nv_per * (nv_per - 1) // 2
    if weighted and is_clique.any():
        wmin = np.minimum.reduceat(w, bounds[:-1])
        wmax = np.maximum.reduceat(w, bounds[:-1])
        is_clique &= wmin == wmax

    out_v: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    for k in np.flatnonzero(~is_clique):
        lo, hi = bounds[k], bounds[k + 1]
        if hi - lo > edge_cap:
            raise ValueError(
                f"betweenness_decomposed (distributed): biconnected "
                f"component {int(ub[k])} has {int(hi - lo)} edges > "
                f"decomp_bcc_edge_cap={edge_cap}; exact per-BCC Brandes "
                "on it will not fit one task. Use sampled "
                "betweenness_centrality(max_sources=k) for the giant "
                "core, or raise config.extra['decomp_bcc_edge_cap'].")
        mlo = np.searchsorted(mb, ub[k], side="left")
        mhi = np.searchsorted(mb, ub[k], side="right")
        verts, lu, lv, nv, mass, R, C = _localize_bcc(
            s[lo:hi], d[lo:hi], ma[mlo:mhi], mw[mlo:mhi], weighted)
        if nv < 3:
            continue
        # degree-2 chain compression (reference Path C): chains of
        # deg-2 vertices contribute via two saved-vector sweeps per
        # chain instead of k full passes (pipelines/bc_chain.py).
        # NEUTRALIZE weights for the unweighted kernel: unlike the
        # plain pass (which ignores ew entirely via the CSR BFS), the
        # chain code uses ew for chain offsets AND the exact DAG
        # membership test — real weights under weighted=False would
        # silently corrupt both (dense path does the same at its ew
        # build)
        wloc = w[lo:hi] if weighted else np.ones(hi - lo)
        det = None
        deg2 = int((np.bincount(np.concatenate([lu, lv]),
                                minlength=nv) == 2).sum())
        if MIN_CHAIN_LEN <= deg2 < nv:
            det = detect_chains(lu, lv, wloc, nv)
        if det is None:
            srcs = range(nv)
            eff_src = nv
        else:
            srcs = np.flatnonzero(~det["interior"])
            eff_src = srcs.size + 2 * len(det["chains"])
        # the real serial-task bound is WORK (sources × edges), not
        # edge count — a 300k-vertex / 500k-edge block passes any sane
        # edge cap yet costs 1.5e11 edge-ops in this one reducer.
        # Chain compression counts its 2-sweeps-per-chain cost here.
        if eff_src * (hi - lo) > work_cap:
            raise ValueError(
                f"betweenness_decomposed (distributed): biconnected "
                f"component {int(ub[k])} needs {eff_src} effective "
                f"sources × {int(hi - lo)} edges = "
                f"{eff_src * int(hi - lo):.2e} edge-ops > "
                f"decomp_bcc_work_cap={work_cap:.2e} in one "
                "reducer task. Use sampled betweenness_centrality("
                "max_sources=k) for the giant core, or raise "
                "config.extra['decomp_bcc_work_cap'].")
        if det is None:
            acc = _bcc_sources_pass(lu, lv, wloc, nv, mass, weighted,
                                    srcs, R, C)
        else:
            comp = build_compressed(lu, lv, wloc, nv, det)
            acc = compressed_plain_pass(comp, srcs, mass)
            acc += chain_pass_v2(comp, nv, mass, 0, comp["J"])
        nz = np.flatnonzero(acc)
        out_v.append(verts[nz])
        out_c.append(acc[nz])
    if not out_v:
        return empty
    return pa.table({"v": pa.array(np.concatenate(out_v)),
                     "c": pa.array(np.concatenate(out_c))})


def _betweenness_decomposed_distributed(graph: Graph, cfg: EngineConfig,
                                        weighted: bool,
                                        metrics: dict | None) -> "object":
    """Decomposed exact BC with NO driver-resident per-vertex vector:

    * BiCC forest/labels from the sharded Tarjan–Vishkin run
      (``bicc_sharded._bicc_run``) — assembled parent/size/label
      vectors live as single plasma objects (one copy per node).
    * component sizes: pointer-jumped CC supersteps on the same shard
      pool + a per-range sparse bincount → ``hash_aggregate``.
    * branch sizes / closed forms / reach masses: the same two
      scatter-add incidence rows as the dense path, built per dense-id
      range inside ``map_batches`` tasks and aggregated by (vertex,
      BCC) with the explicit hash shuffle.
    * per-BCC reach-weighted Brandes: edges and masses co-partitioned
      by BCC label (``hash_copartition_apply``) — every biconnected
      component meets its masses in exactly one reducer. Assumes each
      individual BCC fits one task (``decomp_bcc_edge_cap``, loud
      error otherwise); the web-scale giant core is explicitly out of
      scope for EXACT BC (use sampled BC) while pendant forests,
      bridges and small blocks — the bulk of a link graph's vertex
      mass — are answered exactly at any total scale.

    Returns a ``(node, bc)`` Dataset in original ids.
    """
    import ray
    import ray.data

    from centrality_gpu_ray.nputil import DictReader
    from centrality_gpu_ray.pipelines.bicc_sharded import _bicc_run
    from centrality_gpu_ray.stages.shuffle import (hash_aggregate,
                                                   hash_copartition_apply,
                                                   hash_lookup_join)

    t0 = time.perf_counter()
    pool = graph.pool
    if weighted:
        for ok, wmax in ray.get([a.weight_profile.remote()
                                 for a in pool.actors]):
            if not (ok and wmax < 2 ** 31):
                raise ValueError(
                    "distributed decomposed weighted BC requires positive "
                    "integer edge weights < 2^31 (exact-equality DAG test; "
                    "see _validate_bc_weights)")
    st = _bicc_run(graph, cfg, metrics)
    t_bicc = time.perf_counter()
    n = graph.num_vertices
    P = cfg.num_partitions

    # component labels: the BiCC run already converged exactly this
    # min-label CC to pick its roots and snapshotted it (immutable
    # plasma object) before re-initialising owner state for the BFS
    comp_full = st["comp_full"]

    nblocks = max(P, len(pool.actors))
    dense = ray.data.range(n, override_num_blocks=nblocks)

    _refs = (st["parent_full"], st["size_full"], st["label_full"], comp_full)

    def _comp_partial(t: pa.Table, _r=_refs) -> pa.Table:
        comp = ray.get(_r[3])
        c = t.column("id").to_numpy()
        u, cnt = np.unique(comp[c].astype(np.int64), return_counts=True)
        return pa.table({"lab": pa.array(u),
                         "cnt": pa.array(cnt.astype(np.int64))})

    csize_ds = hash_aggregate(
        dense.map_batches(_comp_partial, batch_format="pyarrow"),
        ["lab"], [("cnt", "sum")], num_partitions=P)

    def _incidences(t: pa.Table, _r=_refs) -> pa.Table:
        parent, size, label, comp = (ray.get(x) for x in _r)
        c = t.column("id").to_numpy()
        c = c[parent[c] >= 0].astype(np.int64)
        up = parent[c].astype(np.int64)
        B = label[c].astype(np.int64)
        lab = comp[c].astype(np.int64)
        sz = size[c].astype(np.float64)
        # row 1: child subtree hangs below the upper endpoint;
        # row 2: the REST of the component hangs above the child
        # (contrib = csize - size, csize attached after the join)
        return pa.table({
            "a": pa.array(np.concatenate([up, c])),
            "B": pa.array(np.concatenate([B, B])),
            "lab": pa.array(np.concatenate([lab, lab])),
            "contrib": pa.array(np.concatenate([sz, -sz])),
            "kind": pa.array(np.concatenate(
                [np.zeros(c.size, np.int64), np.ones(c.size, np.int64)])),
        })

    incid = hash_lookup_join(
        dense.map_batches(_incidences, batch_format="pyarrow"),
        csize_ds, "lab", "lab", {"cnt": "csize"}, num_partitions=P)

    def _finish_contrib(t: pa.Table) -> pa.Table:
        contrib = (t.column("contrib").to_numpy()
                   + t.column("kind").to_numpy()
                   * t.column("csize").to_numpy(zero_copy_only=False)
                   .astype(np.float64))
        return pa.table({"a": t.column("a"), "B": t.column("B"),
                         "contrib": pa.array(contrib),
                         "csize": pa.array(
                             t.column("csize").to_numpy(zero_copy_only=False)
                             .astype(np.float64))})

    br = hash_aggregate(incid.map_batches(_finish_contrib,
                                          batch_format="pyarrow"),
                        ["a", "B"], [("contrib", "sum"), ("csize", "max")],
                        num_partitions=P).materialize()
    t_branch = time.perf_counter()

    # closed forms: cf(a) = (csize-1)^2 - sum_B br^2  (0 for non-cut
    # vertices: a single branch of size csize-1)
    def _brsq(t: pa.Table) -> pa.Table:
        brv = t.column("contrib").to_numpy()
        return pa.table({"a": t.column("a"),
                         "brsq": pa.array(brv * brv),
                         "csize": t.column("csize")})

    def _cf(t: pa.Table) -> pa.Table:
        cs = t.column("csize").to_numpy()
        cm1 = cs - 1.0
        c = cm1 * cm1 - t.column("brsq").to_numpy()
        # non-articulation vertices have exactly one branch of size
        # csize-1, so c == 0.0 EXACTLY (all terms are integer-valued
        # floats) — dropping them here keeps ~n zero rows out of the
        # union/aggregate/join shuffles; the outer_fill supplies zeros
        keep = c != 0.0
        return pa.table({"v": t.column("a").filter(pa.array(keep)),
                         "c": pa.array(c[keep])})

    cf_rows = hash_aggregate(br.map_batches(_brsq, batch_format="pyarrow"),
                             ["a"], [("brsq", "sum"), ("csize", "max")],
                             num_partitions=P) \
        .map_batches(_cf, batch_format="pyarrow")

    # reach masses per (BCC, vertex): mass = csize - branch size
    def _mass(t: pa.Table) -> pa.Table:
        mass = (t.column("csize").to_numpy()
                - t.column("contrib").to_numpy())
        # the reducers default unlisted vertices to mass 1, and a
        # non-cut vertex's single branch gives mass == 1.0 EXACTLY
        # (integer-valued floats) — only ship the informative rows
        keep = mass != 1.0
        return pa.table({"B": t.column("B").filter(pa.array(keep)),
                         "a": t.column("a").filter(pa.array(keep)),
                         "mass": pa.array(mass[keep])})

    masses = br.map_batches(_mass, batch_format="pyarrow")

    # per-edge BCC labels in dense ids (+ weight for the weighted kernel)
    _erefs = (st["parent_full"], st["level_full"], st["label_full"])

    def _edge_bcc(t: pa.Table, _r=_erefs) -> pa.Table:
        parent, level, label = (ray.get(x) for x in _r)
        s = t.column("s").to_numpy()
        d = t.column("d").to_numpy()
        w = (t.column("w").to_numpy(zero_copy_only=False)
             if "w" in t.column_names
             else np.ones(s.size, dtype=np.float64))
        is_tree = (parent[d] == s) | (parent[s] == d)
        child = np.where(parent[d] == s, d, s)
        deeper = np.where(level[s] >= level[d], s, d)
        bcc = np.where(is_tree, label[child], label[deeper])
        return pa.table({"s": pa.array(s.astype(np.int64)),
                         "d": pa.array(d.astype(np.int64)),
                         "w": pa.array(w.astype(np.float64)),
                         "bcc": pa.array(bcc.astype(np.int64))})

    edges_bcc = graph.edges.map_batches(_edge_bcc, batch_format="pyarrow")

    edge_cap = int(cfg.extra.get("decomp_bcc_edge_cap", 2_000_000))
    work_cap = float(cfg.extra.get("decomp_bcc_work_cap", 5e9))

    def _reduce(e: pa.Table, m: pa.Table) -> pa.Table:
        return _decomp_partition_brandes(e, m, weighted, edge_cap,
                                         work_cap)

    # the mass rows are filtered to the informative (≠1) ones, so a
    # graph with no articulation points ships an EMPTY mass side —
    # hash_copartition_apply short-circuits an empty side to one
    # (empty, empty) reduce call, which would silently drop every
    # edge; partition the edges alone in that case
    masses = masses.materialize()
    if masses.count() == 0:
        from centrality_gpu_ray.stages.shuffle import hash_partition_apply

        empty_m = pa.table({"B": pa.array([], pa.int64()),
                            "a": pa.array([], pa.int64()),
                            "mass": pa.array([], pa.float64())})
        parts = hash_partition_apply(
            edges_bcc, ["bcc"], lambda t, _m=empty_m: _reduce(t, _m),
            num_partitions=P)
    else:
        parts = hash_copartition_apply(edges_bcc, masses, ["bcc"], ["B"],
                                       _reduce, num_partitions=P)

    total = hash_aggregate(parts.union(cf_rows), ["v"], [("c", "sum")],
                           num_partitions=P)
    t_brandes = time.perf_counter()

    allv = dense.map_batches(
        lambda t: pa.table({"v": t.column("id").cast(pa.int64())}),
        batch_format="pyarrow")
    filled = hash_lookup_join(allv, total, "v", "v", {"c": "bc"},
                              num_partitions=P, outer_fill={"bc": 0.0})
    mapper = DictReader(graph.vdict.meta)

    def _finish(t: pa.Table, _m=mapper) -> pa.Table:
        v = t.column("v").to_numpy()
        return pa.table({"node": pa.array(_m.to_original(v)),
                         "bc": t.column("bc").cast(pa.float64())})

    out = filled.map_batches(_finish, batch_format="pyarrow")
    if metrics is not None:
        metrics.update({
            "sec": time.perf_counter() - t0,
            "mode": "distributed",
            "edge_cap": edge_cap, "work_cap": work_cap,
            "phase_sec": {
                "bicc": round(t_bicc - t0, 2),
                # component sizes ride the branch-shuffle window (the
                # csize aggregate executes lazily inside it; the CC
                # itself is reused from the BiCC run at zero cost)
                "branch_shuffles": round(t_branch - t_bicc, 2),
                "per_bcc_brandes_and_merge": round(t_brandes - t_branch, 2),
            }})
    return out
