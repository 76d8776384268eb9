"""Degree-2 chain compression for per-BCC Brandes (reference Path C).

The reference never runs a full Brandes pass from a vertex on a
degree-2 chain: chain vertices' d/sigma vectors are derived from the
two chain endpoints' SAVED vectors (elementwise min / sigma-sum
combine, ``postprocesses.cu:8-203``) after an ear walk orders the
chain (``bcc_bfs.cpp:928-1311``).  This module is that optimization
re-derived for the Ray engine's mass-weighted per-BCC kernel
(``pipelines/bc_decomp.py``), closed-form instead of saved n x k
matrices:

Let B be one biconnected component, ``int(j)`` the interior (deg-2)
vertices of a maximal chain j between anchors ``u != v`` (anchors have
deg >= 3 in B; u == v would make u an articulation point of B, which
cannot happen inside one BCC), and ``G_j = B minus int(j)``.  Interior
vertices have no edges outside the chain, so

* any simple path from ``c`` in int(j) to ``t`` outside it leaves via
  u or v and never re-enters int(j):
  ``d(c,t) = min(a + d_Gj(u,t), b + d_Gj(v,t))``,
  ``sigma(c,t) = [left wins] sigma_Gj(u,t) + [right wins]
  sigma_Gj(v,t)`` (a, b = exact chain offsets of c to u, v); and
* ``G_j`` stays connected: B has two internally-disjoint u-v paths, any
  path touching int(j) enters through u or v, so at most one of the
  two is the chain itself.

Two saved-d/sigma/DAG sweeps per chain (from u and v over G_j) then
recover ALL contributions of the chain's sources:

* **cross pairs** (c on chain, t in G_j): with ``g_i = a_i - b_i``
  strictly increasing along the chain and ``q_t = Du[t] - Dv[t]``, the
  left route wins exactly on the prefix ``g_i < -q_t`` with at most
  one tie index — so the per-target seed
  ``h_u[t] = w(t) * sum_c w(c) * shareL(c,t)`` and the per-source
  target-mass sums ``SL/SR`` are prefix/suffix sums after one
  searchsorted, O((n + k) log k) per chain, no k x n matrix.  One
  seeded DAG back-propagation per endpoint credits every G_j
  intermediate; u itself lies on every via-u path; interior positions
  between c and its exit anchor are credited by O(k) difference
  arrays.
* **same-chain pairs** (c at i < c' at i'): exactly two route classes —
  the intra segment (length ``D = a_i' - a_i``, one path) and the
  around route ``c->u ->G_j-> v->c'`` (length ``a_i + Duv + b_i'``,
  ``sigma_Gj(u,v)`` paths; the mirror exit via v is longer by
  ``L + Duv`` and never competes).  Intra wins iff
  ``2*D < L + Duv`` — a single threshold, so winner sets are chain
  suffixes with monotone boundaries and every credit (positions
  between, positions outside, u/v scalars, a G_j seed at the far
  anchor) folds into prefix sums, O(k log k) per chain.

Anchor (and short-chain) sources still sweep the full per-BCC graph
with the existing kernel, so per-BCC cost drops from ``n_B * m_B`` to
``(A + 2J) * m_B`` + O((n_B + k) log k) per chain — the win the
reference's Path C buys on road-network / linked-list shaped blocks.
Integer edge weights (or unit hops) keep every distance comparison
exact (``_validate_bc_weights``).

Parity vs the plain all-sources kernel is tested on chain-planted
random graphs, theta graphs, weighted variants and non-unit mass
vectors in ``tests/test_bc_chain.py``.
"""

from __future__ import annotations

import numpy as np

# compress only chains with at least this many interior vertices: a
# compressed chain costs 2 sweeps + O(n log k); a plain pass costs k
# sweeps of O(m)
MIN_CHAIN_LEN = 4


# ---------------------------------------------------------------------------
# saved-vector SSSP/BFS: dist, sigma AND the DAG, with custom-seed
# dependency accumulation (the "saved d/sigma rows" of
# kernels_active.cu:544-552, generalized to arbitrary per-target seeds)
# ---------------------------------------------------------------------------

def _sssp_dag(S: np.ndarray, D: np.ndarray, WE: np.ndarray, n: int,
              src: int, weighted: bool, eids: np.ndarray | None = None):
    """Single-source shortest paths over the (masked) edge list →
    ``(dist, sigma, eu_s, ev_s, bounds, eid_s)``; DAG edges bucketed by
    ascending source-side distance.  Distances are float64 but
    integer-valued (unit hops / validated integer weights), so DAG
    membership tests are exact.  ``eid_s`` carries a caller edge id per
    DAG edge (``eids`` defaults to the input position) so the
    compressed sweeps can read per-edge flows back out."""
    dist = np.full(n, np.inf)
    dist[src] = 0.0
    if weighted:
        while True:
            du, dv = dist[S], dist[D]
            new = dist.copy()
            np.minimum.at(new, D, du + WE)
            np.minimum.at(new, S, dv + WE)
            if np.array_equal(new, dist):
                break
            dist = new
    else:
        # CSR frontier BFS (O(m) total, not O(diam * m) edge rescans)
        from centrality_gpu_ray.nputil import ragged_arange
        u = np.concatenate([S, D])
        v = np.concatenate([D, S])
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        R = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n), out=R[1:])
        frontier = np.array([src], dtype=np.int64)
        lvl = 0.0
        while frontier.size:
            starts, ends = R[frontier], R[frontier + 1]
            if int((ends - starts).sum()) == 0:
                break
            idx = np.repeat(starts, ends - starts) + ragged_arange(
                ends - starts)
            nbrs = v[idx]
            new = np.unique(nbrs[np.isinf(dist[nbrs])])
            if new.size == 0:
                break
            lvl += 1.0
            dist[new] = lvl
            frontier = new

    du, dv = dist[S], dist[D]
    fwd = np.isfinite(du) & (dv == du + WE)
    bwd = np.isfinite(dv) & (du == dv + WE)
    E = np.arange(S.size, dtype=np.int64) if eids is None else eids
    eu = np.concatenate([S[fwd], D[bwd]])
    ev = np.concatenate([D[fwd], S[bwd]])
    eid = np.concatenate([E[fwd], E[bwd]])
    deu = dist[eu]
    order = np.argsort(deu, kind="stable")
    eu_s, ev_s, deu_s = eu[order], ev[order], deu[order]
    eid_s = eid[order]
    uniq_d, bstart = np.unique(deu_s, return_index=True)
    bounds = np.append(bstart, eu_s.size)

    sigma = np.zeros(n)
    sigma[src] = 1.0
    for b in range(uniq_d.size):
        lo, hi = bounds[b], bounds[b + 1]
        np.add.at(sigma, ev_s[lo:hi], sigma[eu_s[lo:hi]])
    return dist, sigma, eu_s, ev_s, bounds, eid_s


def _accumulate_seeds(n: int, sigma: np.ndarray, eu_s: np.ndarray,
                      ev_s: np.ndarray, bounds: np.ndarray,
                      h: np.ndarray, eid_s: np.ndarray | None = None,
                      m_edges: int = 0):
    """Generalized Brandes back-propagation:
    ``delta[x] = sum_t h[t] * (#paths src->t through x) / sigma[t]``
    for x not in {src, t}.  ``h`` is an arbitrary per-target seed —
    the chain passes encode pair masses and route shares in it.

    With ``eid_s``/``m_edges`` also returns per-edge flows (seed mass
    crossing each caller edge id, both DAG directions summed) — the
    compressed sweeps expand a chain edge's flow to every interior
    vertex of that chain."""
    delta = np.zeros(n)
    flows = np.zeros(m_edges) if eid_s is not None else None
    for b in range(bounds.size - 2, -1, -1):
        lo, hi = bounds[b], bounds[b + 1]
        uu, vv = eu_s[lo:hi], ev_s[lo:hi]
        f = (sigma[uu] / sigma[vv]) * (h[vv] + delta[vv])
        np.add.at(delta, uu, f)
        if flows is not None:
            np.add.at(flows, eid_s[lo:hi], f)
    if eid_s is not None:
        return delta, flows
    return delta


# ---------------------------------------------------------------------------
# chain detection: doubling-based list ranking (no per-vertex Python walk)
# ---------------------------------------------------------------------------

def detect_chains(lu: np.ndarray, lv: np.ndarray, ew: np.ndarray, nv: int):
    """Maximal degree-2 chains of one localized BCC.

    Returns ``None`` when there is nothing to compress (pure cycle — no
    anchors — or no interior run of >= MIN_CHAIN_LEN), else a dict with

    * ``interior``: bool[nv] — vertices of COMPRESSED chains only
    * ``chains``: list of ``(u, v, order, a, b)``: anchors, interior
      vertex ids ordered u-side -> v-side, and their exact chain
      distances to u / b to v (integer-valued float64)

    Ordering comes from pointer-doubling list ranking over directed
    "arrived-at-x-from-p" states — O(E_chain log k) total, never a
    Python walk (the ear walk of ``bcc_bfs.cpp:928-1311``, without
    masters)."""
    deg = np.bincount(np.concatenate([lu, lv]), minlength=nv)
    is_int = deg == 2
    n_int = int(is_int.sum())
    if n_int < MIN_CHAIN_LEN or n_int == nv:  # nothing / pure cycle
        return None

    # directed states: one per (edge, interior head): s = (prev -> head)
    head = np.concatenate([lv, lu]).astype(np.int64)
    prev = np.concatenate([lu, lv]).astype(np.int64)
    wall = np.concatenate([ew, ew]).astype(np.float64)
    keep = is_int[head]
    head, prev, wst = head[keep], prev[keep], wall[keep]
    S = head.size  # == 2 * n_int

    # the two states of each interior head are each other's partner;
    # continuing from (p -> x) goes to x's OTHER neighbor
    o = np.argsort(head, kind="stable")
    partner = np.empty(S, dtype=np.int64)
    partner[o[0::2]] = o[1::2]
    partner[o[1::2]] = o[0::2]
    nxt_v = prev[partner]   # y: the neighbor of head away from prev
    nxt_w = wst[partner]    # weight(head, y)

    # successor state (head -> y) = y's state with prev == head
    key = head * nv + prev
    kord = np.argsort(key, kind="stable")
    ks = key[kord]
    succ_key = nxt_v * nv + head
    y_int = is_int[nxt_v]
    succ = np.full(S, -1, dtype=np.int64)
    pos = np.searchsorted(ks, succ_key[y_int])
    succ[y_int] = kord[pos]

    # doubling: forward (away from prev) to the terminal anchor:
    # dterm = dist(head -> anchor), term = that anchor, mn = min
    # interior id on that side (inclusive of head)
    term = np.where(y_int, -1, nxt_v)
    dterm = nxt_w.copy()
    mn = head.copy()
    jmp = succ.copy()
    # bounded doubling: ceil(log2 S) + 2 rounds resolve every PATH
    # component; states still unresolved afterwards sit on a CYCLE of
    # deg-2 vertices. Inside one biconnected component that cannot
    # happen with an anchor present (a deg-2 cycle would be the whole
    # BCC — the pure-cycle early return above), but an unbounded loop
    # on malformed input would hang AND overflow dterm — degrade to
    # "not compressible" instead (those vertices stay plain sources).
    max_rounds = int(np.ceil(np.log2(max(S, 2)))) + 2
    for _ in range(max_rounds):
        act = jmp >= 0
        if not act.any():
            break
        t = jmp[act]
        mn[act] = np.minimum(mn[act], mn[t])
        dterm[act] = dterm[act] + dterm[t]
        term[act] = term[t]
        jmp[act] = jmp[t]

    # per interior vertex: its two states give the two ends; vertices
    # with an unresolved side (cyclic interior component) are dropped
    s1, s2 = o[0::2], o[1::2]
    ok = (term[s1] >= 0) & (term[s2] >= 0)
    s1, s2 = s1[ok], s2[ok]
    if s1.size == 0:
        return None
    vx = head[s1]
    t1, t2 = term[s1], term[s2]
    d1, d2 = dterm[s1], dterm[s2]
    chain_min = np.minimum(mn[s1], mn[s2])  # chain identity (handles
    # parallel chains between the same anchor pair)
    swap = np.where(t1 == t2, d1 > d2, t1 > t2)  # u = smaller anchor
    ua = np.where(swap, t2, t1)
    va = np.where(swap, t1, t2)
    da = np.where(swap, d2, d1)
    db = np.where(swap, d1, d2)

    cs = np.argsort(chain_min, kind="stable")
    cms = chain_min[cs]
    starts = np.flatnonzero(np.r_[True, cms[1:] != cms[:-1]])
    starts = np.append(starts, cms.size)
    chains = []
    interior = np.zeros(nv, dtype=bool)
    for ci in range(starts.size - 1):
        sl = cs[starts[ci]:starts[ci + 1]]
        if sl.size < MIN_CHAIN_LEN:
            continue  # short chain: its vertices stay plain sources
        sl = sl[np.argsort(da[sl], kind="stable")]
        chains.append((int(ua[sl[0]]), int(va[sl[0]]),
                       vx[sl], da[sl], db[sl]))
        interior[vx[sl]] = True
    if not chains:
        return None
    return {"interior": interior, "chains": chains}


# ---------------------------------------------------------------------------
# per-chain source contributions (closed-form, prefix-sum based)
# ---------------------------------------------------------------------------

def _cross_exit_credits(wc, W, a, b, DuT, DvT, suT, svT, wt, k):
    """Cross pairs (chain source c_i vs external target t): g_i =
    a_i - b_i is strictly increasing along the chain, so per target the
    via-u winners are a prefix ``[0, lo_t)`` with at most one σ-split
    tie index (``hi_t - lo_t <= 1``).  Returns the per-target exit seed
    masses ``(amt_u, amt_v)`` and the closed-form per-position credits
    (``pos[p] = sum_{i>p} wc_i*SL_i + sum_{i<p} wc_i*SR_i`` via
    boundary histograms + one diff-array cumsum)."""
    Wtot = W[k]
    g = a - b                           # strictly increasing
    negq = DvT - DuT                    # left wins iff g_i < -q_t
    lo_t = np.searchsorted(g, negq, side="left")
    hi_t = np.searchsorted(g, negq, side="right")  # hi - lo <= 1
    tie = hi_t > lo_t
    st = suT + svT
    tieL = np.where(tie, wc[np.minimum(lo_t, k - 1)] * suT / st, 0.0)
    tieR = np.where(tie, wc[np.minimum(lo_t, k - 1)] * svT / st, 0.0)
    amt_u = wt * (W[lo_t] + tieL)
    amt_v = wt * ((Wtot - W[hi_t]) + tieR)

    # per-source target-mass sums SL/SR via boundary histograms
    BL = np.bincount(lo_t, weights=wt, minlength=k + 1)
    BH = np.bincount(hi_t, weights=wt, minlength=k + 1)
    SL = np.cumsum(BL[::-1])[::-1][1:]  # SL[i] = sum_{l > i} BL[l]
    SR = np.cumsum(BH)[:k]              # SR[i] = sum_{l <= i} BH[l]
    if tie.any():
        ti = lo_t[tie]
        np.add.at(SL, ti, wt[tie] * suT[tie] / st[tie])
        np.add.at(SR, ti, wt[tie] * svT[tie] / st[tie])
    wSL, wSR = wc * SL, wc * SR
    seg = np.zeros(k + 1)
    seg[0] += wSL.sum()
    np.subtract.at(seg, np.arange(k), wSL)
    np.add.at(seg, np.arange(k) + 1, wSR)
    return amt_u, amt_v, np.cumsum(seg[:k])


def _same_chain_credits(wc, W, a, L, Duv, suv, k):
    """Same-chain pairs (unordered i < i', credits doubled) in closed
    form.  Routes: intra (length D = a_i' - a_i, 1 path) vs around
    (a_i + Duv + b_i', suv paths); intra wins iff 2D < L + Duv — exact
    integer comparisons via doubled offsets.  Returns the per-position
    credits and the total around-route seed mass (the caller seeds it
    at v in u's DAG and adds the same scalar to acc[v])."""
    Wtot = W[k]
    a2 = 2.0 * a
    cut = a2 + (L + Duv)
    lt = np.searchsorted(a2, cut, side="left")    # intra: i < i' < lt_i
    rs = np.searchsorted(a2, cut, side="right")   # around: i' >= rs_i
    # intra strict: credit positions p in (i, i'), summed in closed
    # form using monotone lt (suffix of valid i per position)
    ltc = np.minimum(lt, k)
    Z = wc * W[ltc]
    PZ = np.zeros(k + 1)
    np.cumsum(Z, out=PZ[1:])
    p = np.arange(k)
    i0 = np.searchsorted(ltc, p + 2, side="left")
    intra_credit = 2.0 * ((PZ[p] - PZ[np.minimum(i0, p)])
                          - W[np.minimum(p + 1, k)]
                          * (W[p] - W[np.minimum(i0, p)]))
    # around strict: pairs (i, i' >= rs_i)
    pair_i = wc * (Wtot - W[np.minimum(rs, k)])   # per-i around mass
    around = 2.0 * float(pair_i.sum())
    # per-i' around mass: i < ls_i' with 2a_i < 2a_i' - (L + Duv)
    ls = np.searchsorted(a2, a2 - (L + Duv), side="left")
    pair_j = wc * W[np.minimum(ls, k)]
    # positions p < i (segment c_i -> u) and p > i' (segment v -> c_i')
    seg2 = np.zeros(k + 1)
    seg2[0] += 2.0 * pair_i.sum()
    np.subtract.at(seg2, np.arange(k), 2.0 * pair_i)
    np.add.at(seg2, np.arange(k) + 1, 2.0 * pair_j)
    # ties: 2D == L + Duv, at most one i' per i (a strictly increasing)
    has_tie = lt < rs
    if has_tie.any():
        ii = np.flatnonzero(has_tie)
        jj = lt[ii]
        ok = jj > ii                      # tie partner must be above i
        ii, jj = ii[ok], jj[ok]
        if ii.size:
            stt = 1.0 + suv
            w2 = wc[ii] * wc[jj]
            am_in = 2.0 * w2 / stt        # intra share
            am_ar = 2.0 * w2 * suv / stt  # around share
            np.add.at(seg2, ii + 1, am_in)
            np.subtract.at(seg2, jj, am_in)
            np.subtract.at(seg2, ii, am_ar)   # [0, i) prefix ...
            seg2[0] += am_ar.sum()
            np.add.at(seg2, jj + 1, am_ar)    # (i', k) suffix
            around += float(am_ar.sum())
    return intra_credit + np.cumsum(seg2[:k]), around


# ---------------------------------------------------------------------------
# compressed-sweep v2: EVERY remaining sweep (plain sources and the two
# per-chain endpoint sweeps) runs on the chain-contracted multigraph —
# each compressed chain becomes one weighted edge (u, v, L), so the
# per-sweep level count drops from the ORIGINAL graph's hop diameter
# (chain-length dominated; the 8-numpy-calls-per-BFS-level overhead
# made original-graph sweeps ~0.1 s at 1450 levels) to the compressed hop
# diameter.  Chain interiors re-enter exactly:
#
# * as TARGETS: d(x, c'_m) = min(d(x,u') + a'_m, d(x,v') + b'_m) with
#   path counts from the entry anchor's sigma — per-row vectorized over
#   the flattened interior table (no per-chain Python loop);
# * as INTERMEDIATES of paths crossing a whole chain: the seeded
#   accumulation reports per-edge flows, and a chain edge's flow is
#   exactly the credit owed to EVERY interior vertex of that chain;
# * as partially-traversed prefixes (entry anchor -> target position):
#   per-chain difference arrays over a flattened segment space.
#
# Parity with the plain all-sources kernel (an independent oracle in
# ``tests/test_bc_chain.py``) is tested on chain-planted random graphs,
# theta graphs, weighted variants and non-unit masses.
# ---------------------------------------------------------------------------


def build_compressed(lu, lv, ew, nv, det) -> dict:
    """Chain-contracted multigraph + flattened interior-target arrays
    for one localized BCC (built once per BCC, reused by every
    compressed sweep).  Edge ids: ``[0, m_plain)`` are the surviving
    original edges, ``m_plain + j`` is chain ``j``'s contracted edge —
    flow extraction depends on this layout."""
    from centrality_gpu_ray.nputil import ragged_arange

    chains = det["chains"]
    interior = det["interior"]
    em = ~(interior[lu] | interior[lv])
    J = len(chains)
    ua = np.array([c[0] for c in chains], dtype=np.int64)
    va = np.array([c[1] for c in chains], dtype=np.int64)
    L = np.array([float(c[3][0] + c[4][0]) for c in chains])
    Sc = np.concatenate([lu[em], ua])
    Dc = np.concatenate([lv[em], va])
    Wc = np.concatenate([ew[em].astype(np.float64), L])
    ks = np.array([c[2].size for c in chains], dtype=np.int64)
    cstart = np.zeros(J + 1, dtype=np.int64)
    np.cumsum(ks, out=cstart[1:])
    n_ext = int(cstart[-1])
    if n_ext:
        ext_vert = np.concatenate([c[2] for c in chains])
        ext_a = np.concatenate([c[3] for c in chains])
        ext_b = np.concatenate([c[4] for c in chains])
    else:  # det is never chain-free, but keep the function total
        ext_vert = np.empty(0, np.int64)
        ext_a = ext_b = np.empty(0)
    return {
        "nv": nv, "Sc": Sc, "Dc": Dc, "Wc": Wc,
        "m_plain": int(em.sum()), "m_edges": Sc.size, "J": J,
        "ua": ua, "va": va, "L": L, "chains": chains,
        "interior": interior, "ks": ks, "cstart": cstart,
        "ext_chain": np.repeat(np.arange(J, dtype=np.int64), ks),
        "ext_vert": ext_vert, "ext_a": ext_a, "ext_b": ext_b,
        "ext_pos": ragged_arange(ks),
        # per-chain (k_j + 1)-slot ranges in the flat diff-array space
        "flat_start": cstart[:-1] + np.arange(J, dtype=np.int64),
        "nseg": n_ext + J,
    }


def _entry(comp, Dx, sigx, rows):
    """Resolve the extended (chain-interior) targets under one sweep's
    distances → ``(DT, sT, dl, dr, sl, sr)``: via-u'/via-v' route
    lengths, entry path counts, and the min/σ-combined totals."""
    c = comp["ext_chain"][rows]
    dl = Dx[comp["ua"][c]] + comp["ext_a"][rows]
    dr = Dx[comp["va"][c]] + comp["ext_b"][rows]
    sl = sigx[comp["ua"][c]]
    sr = sigx[comp["va"][c]]
    DT = np.minimum(dl, dr)
    sT = np.where(dl < dr, sl, np.where(dr < dl, sr, sl + sr))
    return DT, sT, dl, dr, sl, sr


def _redistribute(comp, rows, amounts, dl, dr, sl, sr, h, acc, seg):
    """Fold per-interior-target seed mass into a compressed sweep:
    entry-anchor seeds (the accumulation credits the strictly-between
    C vertices; a seed AT the DAG source is inert), explicit entry
    anchor credits (the anchor is interior to the full source->target
    path — the plain pass zeroes acc[src] afterwards, restoring the
    endpoint convention), and diff-array credits for the target
    chain's positions strictly between entry anchor and target."""
    if rows.size == 0:
        return
    c = comp["ext_chain"][rows]
    pos = comp["ext_pos"][rows]
    fs = comp["flat_start"][c]
    uu, vv = comp["ua"][c], comp["va"][c]
    tie = dl == dr
    wl = np.where(dl < dr, amounts, 0.0)
    wr = np.where(dr < dl, amounts, 0.0)
    if tie.any():
        st = sl + sr
        wl = np.where(tie, amounts * sl / st, wl)
        wr = np.where(tie, amounts * sr / st, wr)
    np.add.at(h, uu, wl)
    np.add.at(h, vv, wr)
    np.add.at(acc, uu, wl)
    np.add.at(acc, vv, wr)
    np.add.at(seg, fs, wl)             # left entry: positions [0, pos)
    np.subtract.at(seg, fs + pos, wl)
    np.add.at(seg, fs + pos + 1, wr)   # right entry: positions (pos, k)
    # — the run ends in the chain's k_j-th (unread) slot, and the next
    # chain's base subtraction absorbs it: no cross-chain leak


def _seg_to_acc(comp, seg, acc):
    """Apply the flat per-chain position diff arrays: position p of
    chain j receives ``sum(seg[flat_start_j .. flat_start_j + p])``."""
    if comp["ext_vert"].size == 0:
        return
    cs = np.cumsum(seg)
    base = np.where(comp["flat_start"] > 0,
                    cs[comp["flat_start"] - 1], 0.0)
    flat_idx = comp["flat_start"][comp["ext_chain"]] + comp["ext_pos"]
    # interiors belong to exactly one chain: plain fancy-index add
    acc[comp["ext_vert"]] += cs[flat_idx] - base[comp["ext_chain"]]


def compressed_plain_pass(comp, sources, mass: np.ndarray) -> np.ndarray:
    """Mass-weighted dependency accumulation for the plain (anchor /
    short-chain / off-chain) sources over the chain-contracted
    multigraph — exact replacement for the full-graph
    ``_bcc_sources_pass`` when chains are present.  Matches the plain
    kernel's conventions: endpoints uncredited (``acc[src]`` zeroed,
    the x == t exclusion skips targets), caller-side ``mass[src]``
    scaling applied here per source."""
    nv = comp["nv"]
    acc = np.zeros(nv)
    plain = ~comp["interior"]
    n_ext = comp["ext_vert"].size
    rows = np.arange(n_ext, dtype=np.int64)
    amounts0 = mass[comp["ext_vert"]].astype(np.float64)
    for src in sources:
        src = int(src)
        dist, sigma, eu_s, ev_s, bounds, eid_s = _sssp_dag(
            comp["Sc"], comp["Dc"], comp["Wc"], nv, src, weighted=True)
        if not np.isfinite(dist[plain]).all():
            raise AssertionError(
                "bc_chain: compressed BCC graph disconnected — input "
                "is not a single biconnected component")
        a1 = np.zeros(nv)
        h = np.zeros(nv)
        h[plain] = mass[plain]
        h[src] = 0.0
        seg = np.zeros(comp["nseg"])
        if n_ext:
            _, _, dl, dr, sl, sr = _entry(comp, dist, sigma, rows)
            _redistribute(comp, rows, amounts0, dl, dr, sl, sr,
                          h, a1, seg)
        delta, flows = _accumulate_seeds(nv, sigma, eu_s, ev_s, bounds,
                                         h, eid_s, comp["m_edges"])
        a1 += delta
        if n_ext:
            a1[comp["ext_vert"]] += flows[comp["m_plain"]
                                          + comp["ext_chain"]]
            _seg_to_acc(comp, seg, a1)
        a1[src] = 0.0
        acc += mass[src] * a1
    return acc


def _chain_contribution_v2(comp, nv, mass, chain_idx: int) -> np.ndarray:
    """Contributions of ALL sources interior to compressed chain
    ``chain_idx`` → dense float64[nv] accumulator, exactly what plain
    mass-weighted sweeps from those sources would add. Both endpoint
    sweeps run over C_j (the compressed graph minus this chain's
    contracted edge): interior sources of chain j against EVERY other
    vertex, same-chain pairs in closed form — at compressed sweep
    cost.  Other chains' interiors re-enter as derived targets,
    redistributed seeds and flow-credited intermediates."""
    u, v, order, a, b = comp["chains"][chain_idx]
    k = order.size
    acc = np.zeros(nv)
    wc = mass[order].astype(np.float64)
    W = np.zeros(k + 1)
    np.cumsum(wc, out=W[1:])
    L = float(a[0] + b[0])

    # C_j: drop this chain's contracted edge, keep original edge ids
    eidx = comp["m_plain"] + chain_idx
    keep = np.ones(comp["m_edges"], dtype=bool)
    keep[eidx] = False
    S, D = comp["Sc"][keep], comp["Dc"][keep]
    WE, eids = comp["Wc"][keep], np.flatnonzero(keep)
    Du, sigu, eu_u, ev_u, bnd_u, eid_u = _sssp_dag(
        S, D, WE, nv, u, True, eids)
    Dv, sigv, eu_v, ev_v, bnd_v, eid_v = _sssp_dag(
        S, D, WE, nv, v, True, eids)
    Duv = float(Du[v])
    suv = float(sigu[v])
    if not np.isfinite(Duv) or suv <= 0.0:
        raise AssertionError(
            "bc_chain: G_j disconnected between chain anchors — "
            "violates the biconnectivity invariant")

    h_u = np.zeros(nv)
    h_v = np.zeros(nv)
    segf = np.zeros(comp["nseg"])       # other chains' position space

    # ---- cross pairs: plain targets + other chains' interiors ----
    plainv = np.flatnonzero(~comp["interior"])
    npl = plainv.size
    DuT, DvT = Du[plainv], Dv[plainv]
    if not np.isfinite(DuT).all():
        raise AssertionError(
            "bc_chain: unreachable targets in G_j — input is not a "
            "single biconnected component")
    suT, svT = sigu[plainv], sigv[plainv]
    wt = mass[plainv].astype(np.float64)
    rows = np.flatnonzero(comp["ext_chain"] != chain_idx)
    if rows.size:
        DuE, suE, dlu, dru, slu, sru = _entry(comp, Du, sigu, rows)
        DvE, svE, dlv, drv, slv, srv = _entry(comp, Dv, sigv, rows)
        DuT = np.concatenate([DuT, DuE])
        DvT = np.concatenate([DvT, DvE])
        suT = np.concatenate([suT, suE])
        svT = np.concatenate([svT, svE])
        wt = np.concatenate(
            [wt, mass[comp["ext_vert"][rows]].astype(np.float64)])
    amt_u, amt_v, cross_pos = _cross_exit_credits(
        wc, W, a, b, DuT, DvT, suT, svT, wt, k)
    h_u[plainv] = amt_u[:npl]
    h_v[plainv] = amt_v[:npl]
    if rows.size:
        _redistribute(comp, rows, amt_u[npl:], dlu, dru, slu, sru,
                      h_u, acc, segf)
        _redistribute(comp, rows, amt_v[npl:], dlv, drv, slv, srv,
                      h_v, acc, segf)

    same_pos, around_v = _same_chain_credits(wc, W, a, L, Duv, suv, k)
    h_u[v] += around_v
    acc_chain = cross_pos + same_pos

    # ---- accumulations + flow expansion ----
    # flows matter only when OTHER chains exist: with J == 1 the lone
    # chain edge is absent from C_j (its flow slot is provably zero and
    # acc[order] is overwritten below), so skip the per-edge flow
    # bookkeeping entirely
    h_u[u] = 0.0
    h_v[v] = 0.0
    if comp["J"] > 1:
        delta_u, flow_u = _accumulate_seeds(nv, sigu, eu_u, ev_u, bnd_u,
                                            h_u, eid_u, comp["m_edges"])
        delta_v, flow_v = _accumulate_seeds(nv, sigv, eu_v, ev_v, bnd_v,
                                            h_v, eid_v, comp["m_edges"])
    else:
        delta_u = _accumulate_seeds(nv, sigu, eu_u, ev_u, bnd_u, h_u)
        delta_v = _accumulate_seeds(nv, sigv, eu_v, ev_v, bnd_v, h_v)
    acc += delta_u + delta_v
    acc[v] += around_v
    if comp["J"] > 1:
        fl = flow_u + flow_v
        acc[comp["ext_vert"]] += fl[comp["m_plain"] + comp["ext_chain"]]
        _seg_to_acc(comp, segf, acc)
    acc[order] = acc_chain   # own interiors: position terms only (this
    # chain's edge is absent from C_j, so its flow slot is zero and no
    # accumulation/segf row can touch them)
    return acc


def chain_pass_v2(comp, nv, mass, lo: int, hi: int) -> np.ndarray:
    """Contributions of chains[lo:hi] via compressed endpoint sweeps →
    dense float64[nv]."""
    acc = np.zeros(nv)
    for j in range(lo, hi):
        acc += _chain_contribution_v2(comp, nv, mass, j)
    return acc
