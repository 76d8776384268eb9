"""Golden values from FIXTURES.md (reference conformance corpus)."""

GOLDEN_BC = {
    "test1": {0: 10.3333333333, 1: 3.0, 2: 4.6666666667, 3: 17.6666666667,
              4: 2.0, 5: 2.0, 6: 1.6666666667, 7: 7.0, 8: 15.6666666667},
    "test3": {0: 0.0, 1: 0.0, 2: 12.0, 3: 3.0, 4: 0.0, 5: 3.0},
}

GOLDEN_PR = {
    "test1": {0: 0.124709, 1: 0.089629, 2: 0.088536, 3: 0.158949, 4: 0.087508,
              5: 0.087210, 6: 0.086113, 7: 0.120394, 8: 0.156954},
    "test2": {0: 0.091090, 1: 0.051243, 2: 0.051496, 3: 0.092792, 4: 0.051441,
              5: 0.051113, 6: 0.049150, 7: 0.069857, 8: 0.090591, 9: 0.090224,
              10: 0.049252, 11: 0.070474, 12: 0.070867, 13: 0.049935, 14: 0.070474},
    "test3": {0: 0.132608, 1: 0.132608, 2: 0.241176, 3: 0.182574, 4: 0.128459,
              5: 0.182574},
    "test4": {0: 0.064423, 1: 0.036415, 2: 0.036663, 3: 0.066090, 4: 0.036665,
              5: 0.036420, 6: 0.034921, 7: 0.049722, 8: 0.064443, 9: 0.062441,
              10: 0.034224, 11: 0.048761, 12: 0.048751, 13: 0.034205, 14: 0.077922,
              15: 0.034148, 16: 0.034465, 17: 0.064747, 18: 0.049678, 19: 0.049865,
              20: 0.035030},
}

GOLDEN_TRIANGLES_TOTAL = {"test1": 1, "test2": 1, "test3": 3, "test4": 3}

GOLDEN_TRIANGLES_PERVERTEX = {
    "test1": {3: 1, 7: 1, 8: 1},
    "test2": {3: 1, 7: 1, 8: 1},
    "test3": {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 2},
    "test4": {3: 1, 7: 1, 8: 1, 17: 2, 18: 1, 19: 2, 20: 1},
}

GOLDEN_DEGREES = {
    "test1": {0: 3, 1: 2, 2: 2, 3: 4, 4: 2, 5: 2, 6: 2, 7: 3, 8: 4},
    # FIXTURES.md lists {5: 4}, but that makes the degree sum odd (17 ≠
    # 2·8 edges); from the verbatim edge list node 5 has degree 3.
    "test3": {0: 2, 1: 2, 2: 4, 3: 3, 4: 2, 5: 3},
}

# test5 = test1 ⊎ (test3 + 9): two components
GOLDEN_COMPONENTS_TEST5 = {**{v: 0 for v in range(9)},
                           **{v: 9 for v in range(9, 15)}}


def hub_skewed_graph():
    """Hub 0 adjacent to every ring vertex, a 60-ring with (i, i+2)
    chords at every third i, then 30 isolated edges on the highest ids
    — so the top dense-id range (every owner split from 2 to 5) holds
    no apex with two out-edges, i.e. no wedges. Int64 weights 1..7 vary
    along the hub's spokes and the ring, so shortest paths mix both."""
    import pyarrow as pa

    ring = list(range(1, 61))
    pairs = [(0, v) for v in ring]
    pairs += [(ring[i], ring[(i + 1) % 60]) for i in range(60)]
    pairs += [(ring[i], ring[(i + 2) % 60]) for i in range(0, 60, 3)]
    pairs += [(1000 + 2 * j, 1001 + 2 * j) for j in range(30)]
    return pa.table({
        "src": pa.array([u for u, _ in pairs], type=pa.int64()),
        "dst": pa.array([v for _, v in pairs], type=pa.int64()),
        "weight": pa.array([1 + (3 * u + 5 * v) % 7 for u, v in pairs],
                           type=pa.int64())})


def pr_golden_full(name):
    """High-precision power-iteration oracle (float64, tol 1e-14)."""
    import numpy as np

    from centrality_gpu_ray.sources.edgelist import FIXTURE_EDGES, FIXTURE_NUM_VERTICES

    n = FIXTURE_NUM_VERTICES[name]
    pairs = FIXTURE_EDGES[name]
    deg = np.zeros(n)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    r = np.full(n, 1.0 / n)
    alpha = 0.85
    for _ in range(10_000):
        new = np.zeros(n)
        for u, v in pairs:
            new[v] += r[u] / deg[u]
            new[u] += r[v] / deg[v]
        new = (1 - alpha) / n + alpha * new
        if np.abs(new - r).sum() < 1e-14:
            r = new
            break
        r = new
    return r
