"""Property-based checks for the round-5 decision kernels — pure
numpy (no Ray), so the example budget is generous. Each oracle is an
independent pair-at-a-time Python re-derivation."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from centrality_gpu_ray.pipelines.coloring import (_jp_local_rounds,
                                                   _mex_compact)
from centrality_gpu_ray.pipelines.labelprop import _pick_labels

SETTINGS = dict(max_examples=120, deadline=None, derandomize=True)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)),
                max_size=60),
       st.integers(1, 12))
@settings(**SETTINGS)
def test_mex_compact_vs_brute(pairs, mod_extra):
    k = 8
    mod = 10 + mod_extra  # colors < mod - 1 always holds (c <= 9)
    v = np.array([p[0] for p in pairs], dtype=np.int64)
    c = np.array([p[1] for p in pairs], dtype=np.int64)
    got = _mex_compact(v, c, k, mod)
    for i in range(k):
        seen = {int(cc) for vv, cc in zip(v, c) if vv == i}
        m = 0
        while m in seen:
            m += 1
        assert got[i] == m


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(1, 9)), max_size=40),
       st.lists(st.integers(0, 5), min_size=6, max_size=6))
@settings(**SETTINGS)
def test_pick_labels_vs_brute(rows, current):
    n = 6
    cur = np.array(current, dtype=np.int64)
    # merge duplicate (v, label) rows like every caller does
    agg: dict = {}
    for v, lab, c in rows:
        agg[(v, lab)] = agg.get((v, lab), 0) + c
    if not agg:
        v = lab = cnt = np.empty(0, dtype=np.int64)
    else:
        keys = sorted(agg)
        v = np.array([k[0] for k in keys], dtype=np.int64)
        lab = np.array([k[1] for k in keys], dtype=np.int64)
        cnt = np.array([agg[k] for k in keys], dtype=np.int64)
    got = _pick_labels(v, lab, cnt, cur)
    for i in range(n):
        mine = {l: c for (vv, l), c in agg.items() if vv == i}
        if not mine:
            assert got[i] == cur[i]
            continue
        best = max(mine.values())
        # keep current on a tied count, else max count then min label
        if mine.get(int(cur[i]), -1) == best:
            assert got[i] == cur[i]
        else:
            assert got[i] == min(l for l, c in mine.items()
                                 if c == best)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                max_size=40),
       st.randoms(use_true_random=False))
@settings(**SETTINGS)
def test_jp_local_rounds_vs_sequential_greedy(edge_list, rnd):
    n = 10
    edges = sorted({(min(a, b), max(a, b)) for a, b in edge_list
                    if a != b})
    s = np.array([e[0] for e in edges], dtype=np.int64)
    d = np.array([e[1] for e in edges], dtype=np.int64)
    perm = list(range(n))
    rnd.shuffle(perm)
    pri = np.array(perm, dtype=np.float64)
    colors, rounds = _jp_local_rounds(s, d, pri, cap=n + 1)
    # oracle: sequential greedy in priority order
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    want = np.full(n, -1, dtype=np.int64)
    for v in np.argsort(pri):
        used = {int(want[u]) for u in nbrs[v] if want[u] >= 0}
        c = 0
        while c in used:
            c += 1
        want[v] = c
    assert (colors == want).all()
    assert (rounds >= 1).all()
    # properness
    for a, b in edges:
        assert colors[a] != colors[b]


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30)),
                min_size=1, max_size=50),
       st.integers(1, 6))
@settings(**SETTINGS)
def test_topf_per_src_vs_brute(rows, f):
    """GNN per-source top-f selection vs a brute per-source sort;
    neighbor values double as deterministic ranks."""
    from centrality_gpu_ray.pipelines.gnn_sampling import _topf_per_src

    src = np.array([r[0] for r in rows], dtype=np.int64)
    nbr = np.array([r[1] for r in rows], dtype=np.int64)
    # make (src, nbr) distinct like real edges, rank = hash-free value
    key = np.unique(src * 64 + nbr)
    src, nbr = key // 64, key % 64
    h = nbr.astype(np.uint64) * np.uint64(2654435761)
    ks, kn, kh = _topf_per_src(src, nbr, h, f)
    for v in np.unique(src):
        mine = sorted(h[src == v])
        got = sorted(kh[ks == v])
        assert got == mine[:f]
    # winners carry consistent (src, nbr, rank) triples
    lut = {(int(a), int(b)): int(r) for a, b, r in zip(src, nbr, h)}
    for a, b, r in zip(ks, kn, kh):
        assert lut[(int(a), int(b))] == int(r)
