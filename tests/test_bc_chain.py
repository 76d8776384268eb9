"""Degree-2 chain compression (reference Path C,
``postprocesses.cu:8-203`` / ear walk ``bcc_bfs.cpp:928-1311``) must be
invisible in the numbers: anchors-only sweeps + per-chain saved-vector
combines equal the plain all-sources mass-weighted kernel, and the
engine paths (dense actor pool + distributed co-partition reducer)
equal plain exact Brandes on chain-planted graphs."""

import numpy as np
import pyarrow as pa
import pytest

from centrality_gpu_ray.pipelines.bc_chain import (MIN_CHAIN_LEN,
                                                   build_compressed,
                                                   chain_pass_v2,
                                                   compressed_plain_pass,
                                                   detect_chains)
from centrality_gpu_ray.pipelines.bc_decomp import betweenness_decomposed
from centrality_gpu_ray.pipelines.brandes import (
    _single_source_dependencies, _single_source_dependencies_weighted,
    betweenness_centrality, build_csr)
from centrality_gpu_ray.pipelines.graph import Graph


def _plain_pass(lu, lv, ew, nv, mass, weighted, sources):
    R, C = build_csr(lu, lv, nv)
    acc = np.zeros(nv)
    for s in sources:
        if weighted:
            delta = _single_source_dependencies_weighted(
                lu, lv, ew, nv, int(s), mass=mass)
        else:
            delta = _single_source_dependencies(
                R, C, lu, lv, nv, int(s), mass=mass)
        acc += mass[s] * delta
    return acc


def _subdivided_biconnected(seed, n0=12, chords=8, nsub=5,
                            weighted=False, rand_mass=False):
    """Cycle + chords (biconnected) with nsub edges subdivided into
    4-9-vertex chains; random integer weights / masses on demand."""
    rng = np.random.default_rng(seed)
    edges = {(min(i, (i + 1) % n0), max(i, (i + 1) % n0))
             for i in range(n0)}
    while len(edges) < n0 + chords:
        x, y = rng.integers(0, n0, 2)
        if x != y:
            edges.add((min(x, y), max(x, y)))
    edges = sorted(edges)
    nv = n0
    out = []
    sub = set(rng.choice(len(edges), size=min(nsub, len(edges)),
                         replace=False).tolist())
    for ei, (x, y) in enumerate(edges):
        if ei in sub:
            k = int(rng.integers(4, 10))
            path = [x] + [nv + t for t in range(k)] + [y]
            nv += k
            out += [(path[t], path[t + 1]) for t in range(len(path) - 1)]
        else:
            out.append((x, y))
    lu = np.array([e[0] for e in out], dtype=np.int64)
    lv = np.array([e[1] for e in out], dtype=np.int64)
    ew = (rng.integers(1, 6, lu.size).astype(np.float64)
          if weighted else np.ones(lu.size))
    mass = (rng.integers(1, 7, nv).astype(np.float64)
            if rand_mass else np.ones(nv))
    return lu, lv, ew, nv, mass


def _kernel_parity(lu, lv, ew, nv, mass, weighted):
    det = detect_chains(lu, lv, ew, nv)
    assert det is not None
    want = _plain_pass(lu, lv, ew, nv, mass, weighted, np.arange(nv))
    # compressed sweeps: the same numbers off the contracted multigraph
    # (unweighted inputs contract to WEIGHTED chain edges, so neutralize
    # ew exactly as the engine callers do)
    ew2 = ew if weighted else np.ones_like(ew)
    comp = build_compressed(lu, lv, ew2, nv, det)
    got2 = compressed_plain_pass(comp, np.flatnonzero(~det["interior"]),
                                 mass)
    got2 += chain_pass_v2(comp, nv, mass, 0, comp["J"])
    np.testing.assert_allclose(got2, want, rtol=1e-9, atol=1e-9)
    return det


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("rand_mass", [False, True])
def test_chain_kernel_parity_random(weighted, rand_mass):
    for seed in range(6):
        lu, lv, ew, nv, mass = _subdivided_biconnected(
            seed, weighted=weighted, rand_mass=rand_mass)
        _kernel_parity(lu, lv, ew, nv, mass, weighted)


@pytest.mark.parametrize("weighted", [False, True])
def test_chain_kernel_parity_single_chain(weighted):
    # J == 1 exercises the v2 no-flow-bookkeeping branch (the lone
    # chain's contracted edge is absent from C_j, so flows are skipped)
    for seed in range(3):
        lu, lv, ew, nv, mass = _subdivided_biconnected(
            seed + 20, nsub=1, weighted=weighted, rand_mass=True)
        det = _kernel_parity(lu, lv, ew, nv, mass, weighted)
        assert len(det["chains"]) == 1


@pytest.mark.parametrize("weighted", [False, True])
def test_chain_kernel_parity_theta(weighted):
    # u=0, v=1 joined by parallel chains (lengths 4/5/7) + direct edge:
    # same-anchor-pair chains must be told apart and ties abound
    rng = np.random.default_rng(3)
    edges, nv = [], 2
    for k in (4, 5, 7):
        path = [0] + [nv + t for t in range(k)] + [1]
        nv += k
        edges += [(path[t], path[t + 1]) for t in range(len(path) - 1)]
    edges.append((0, 1))
    lu = np.array([e[0] for e in edges], dtype=np.int64)
    lv = np.array([e[1] for e in edges], dtype=np.int64)
    ew = (rng.integers(1, 5, lu.size).astype(np.float64)
          if weighted else np.ones(lu.size))
    mass = rng.integers(1, 6, nv).astype(np.float64)
    det = _kernel_parity(lu, lv, ew, nv, mass, weighted)
    assert len(det["chains"]) == 3


def test_detect_chains_structure():
    # path of 5 interiors between anchors 0 (deg 3) and 1 (deg 3)
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
             (0, 7), (7, 1), (0, 1)]
    lu = np.array([e[0] for e in edges], dtype=np.int64)
    lv = np.array([e[1] for e in edges], dtype=np.int64)
    ew = np.ones(lu.size)
    det = detect_chains(lu, lv, ew, 8)
    assert det is not None
    # vertex 7 is a 1-interior chain: below MIN_CHAIN_LEN, stays plain
    assert not det["interior"][7]
    (u, v, order, a, b), = det["chains"]
    assert (u, v) == (0, 1)
    assert order.tolist() == [2, 3, 4, 5, 6]
    assert a.tolist() == [1, 2, 3, 4, 5]
    assert b.tolist() == [5, 4, 3, 2, 1]


@pytest.mark.parametrize("weighted", [False, True])
def test_chain_kernel_orientation_invariance(weighted):
    # the reference normalizes ear orientation before its kernels
    # (read_ear_info readeardata.cpp:154-169); here the compressed
    # result must be independent of edge direction and input order
    lu, lv, ew, nv, mass = _subdivided_biconnected(
        11, weighted=weighted, rand_mass=True)
    rng = np.random.default_rng(0)

    def run(lu, lv, ew):
        det = detect_chains(lu, lv, ew, nv)
        assert det is not None
        comp = build_compressed(lu, lv, ew, nv, det)
        acc = compressed_plain_pass(
            comp, np.flatnonzero(~det["interior"]), mass)
        return acc + chain_pass_v2(comp, nv, mass, 0, comp["J"])

    base = run(lu, lv, ew)
    flip = rng.random(lu.size) < 0.5
    lu2 = np.where(flip, lv, lu)
    lv2 = np.where(flip, lu, lv)
    perm = rng.permutation(lu.size)
    np.testing.assert_allclose(run(lu2[perm], lv2[perm], ew[perm]),
                               base, rtol=1e-9, atol=1e-9)


def test_detect_chains_pure_cycle_and_short():
    lu = np.array([0, 1, 2, 3, 4], dtype=np.int64)
    lv = np.array([1, 2, 3, 4, 0], dtype=np.int64)
    assert detect_chains(lu, lv, np.ones(5), 5) is None  # pure cycle
    # triangle with one subdivided edge below MIN_CHAIN_LEN
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    lu = np.array([e[0] for e in edges], dtype=np.int64)
    lv = np.array([e[1] for e in edges], dtype=np.int64)
    assert detect_chains(lu, lv, np.ones(5), 5) is None


def _chain_planted_edges(seed=5):
    """Two chain-rich BCCs joined by a bridge, plus pendant hair —
    exercises closed forms + compression + plain blocks together."""
    rng = np.random.default_rng(seed)
    lu, lv, _, nv, _ = _subdivided_biconnected(seed, n0=10, chords=6,
                                               nsub=4)
    edges = list(zip(lu.tolist(), lv.tolist()))
    # second subdivided biconnected block, shifted, joined by a bridge
    lu2, lv2, _, nv2, _ = _subdivided_biconnected(seed + 1, n0=8,
                                                  chords=5, nsub=3)
    edges += [(int(a) + nv, int(b) + nv) for a, b in zip(lu2, lv2)]
    edges.append((0, nv))
    tot = nv + nv2
    for _ in range(4):  # pendant hair
        host = int(rng.integers(0, nv))
        edges.append((host, tot))
        tot += 1
    return edges


def _graph(edges, weights=None, sharded=False):
    import ray.data

    from centrality_gpu_ray.config import EngineConfig

    tbl = pa.table({
        "src": pa.array([u for u, _ in edges], type=pa.int64()),
        "dst": pa.array([v for _, v in edges], type=pa.int64()),
        "weight": pa.array(weights if weights is not None
                           else [1] * len(edges), type=pa.int64()),
    })
    cfg = EngineConfig(dense_vertex_limit=10) if sharded \
        else EngineConfig()
    return Graph(ray.data.from_arrow(tbl), config=cfg)


@pytest.mark.parametrize("weighted", [False, True])
def test_engine_dense_chain_compression_parity(weighted):
    edges = _chain_planted_edges()
    rng = np.random.default_rng(9)
    weights = (rng.integers(1, 4, len(edges)).tolist()
               if weighted else None)
    ref = betweenness_centrality(_graph(edges, weights),
                                 weighted=weighted).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    m = {}
    out = betweenness_decomposed(_graph(edges, weights), metrics=m,
                                 weighted=weighted).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert m["num_bcc_chain_compressed"] >= 2
    assert list(ref["node"]) == list(out["node"])
    np.testing.assert_allclose(out["bc"].to_numpy(),
                               ref["bc"].to_numpy(),
                               rtol=1e-9, atol=1e-9)


def test_engine_distributed_chain_compression_parity():
    edges = _chain_planted_edges(seed=21)
    ref = betweenness_centrality(_graph(edges)).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    m = {}
    out = betweenness_decomposed(_graph(edges, sharded=True),
                                 metrics=m).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert m["mode"] == "distributed"
    assert list(ref["node"]) == list(out["node"])
    np.testing.assert_allclose(out["bc"].to_numpy(),
                               ref["bc"].to_numpy(),
                               rtol=1e-9, atol=1e-9)


def test_chain_work_cap_counts_compressed_sources():
    """A long chain inside one BCC passes a work cap that the plain
    per-source count would blow — compression changes the admission
    arithmetic, not just the speed."""
    import ray.data

    from centrality_gpu_ray.config import EngineConfig

    # ring of 60 interiors + chord path so the block is biconnected
    # with 2 anchors and 2 long chains
    k = 60
    edges = [(0, 2), (1, k + 1)]
    edges += [(i, i + 1) for i in range(2, k + 2)]     # chain 1: 0..1
    edges += [(0, k + 2), (k + 2, k + 3), (k + 3, k + 4),
              (k + 4, k + 5), (k + 5, 1)]              # chain 2
    nv = k + 6
    tbl = pa.table({
        "src": pa.array([u for u, _ in edges], type=pa.int64()),
        "dst": pa.array([v for _, v in edges], type=pa.int64()),
        "weight": pa.array([1] * len(edges), type=pa.int64()),
    })
    cfg = EngineConfig(dense_vertex_limit=10)
    # plain would need nv * m ≈ 67*68 > 2000; compressed needs
    # (2 anchors + 2*2 chain sweeps) * m ≈ 408 < 2000
    cfg.extra["decomp_bcc_work_cap"] = 2000
    g = Graph(ray.data.from_arrow(tbl), config=cfg)
    out = betweenness_decomposed(g).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    ref = betweenness_centrality(_graph(edges)).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    np.testing.assert_allclose(out["bc"].to_numpy(),
                               ref["bc"].to_numpy(),
                               rtol=1e-9, atol=1e-9)


def test_detect_chains_detached_cycle_terminates():
    """A detached all-deg-2 cycle (contract misuse — not one BCC) must
    not hang the bounded doubling; its vertices degrade to plain
    sources while real chains still compress."""
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (0, 1),
             (0, 7), (7, 1),
             (10, 11), (11, 12), (12, 10)]      # detached triangle
    lu = np.array([e[0] for e in edges], dtype=np.int64)
    lv = np.array([e[1] for e in edges], dtype=np.int64)
    det = detect_chains(lu, lv, np.ones(lu.size), 13)
    assert det is not None
    assert not det["interior"][[10, 11, 12]].any()
    (u, v, order, a, b), = det["chains"]
    assert order.tolist() == [2, 3, 4, 5, 6]


def test_engine_distributed_weighted_chain_parity():
    edges = _chain_planted_edges(seed=33)
    rng = np.random.default_rng(4)
    weights = rng.integers(1, 4, len(edges)).tolist()
    ref = betweenness_centrality(_graph(edges, weights),
                                 weighted=True).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    out = betweenness_decomposed(_graph(edges, weights, sharded=True),
                                 weighted=True).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    np.testing.assert_allclose(out["bc"].to_numpy(),
                               ref["bc"].to_numpy(),
                               rtol=1e-9, atol=1e-9)


def test_engine_distributed_unweighted_ignores_weight_column():
    """Unweighted BC must ignore a non-unit weight column — the chain
    path's DAG membership test uses ew, so the distributed reducer
    must neutralize it (regression: real weights leaked into
    detect_chains/chain_pass_v2 under weighted=False)."""
    edges = _chain_planted_edges(seed=29)
    rng = np.random.default_rng(2)
    weights = rng.integers(2, 7, len(edges)).tolist()   # all non-unit
    ref = betweenness_centrality(_graph(edges)).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    out = betweenness_decomposed(_graph(edges, weights, sharded=True),
                                 weighted=False).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    np.testing.assert_allclose(out["bc"].to_numpy(),
                               ref["bc"].to_numpy(),
                               rtol=1e-9, atol=1e-9)
