"""The shard actor module stays light: it imports no pipeline, pandas or
Ray Data (an actor process loads whatever its class imports), its
checkpoint chunks round-trip bit-exactly without pandas, and a graph's
pool leaves nothing behind in the object store."""

import gc
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow.parquet as pq

from centrality_gpu_ray.pipelines.coloring import _jp_local_rounds
from centrality_gpu_ray.pipelines.mis import _mis_rounds, mis_priorities
from centrality_gpu_ray.shard_actor import EdgeShard
from storeutil import settled_store_bytes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _edges(n: int = 14):
    """Ring with (i, i+2) chords at every third i (each closes a
    triangle) and (i, i+5) chords at even i: canonical s < d edges."""
    pairs = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    pairs |= {tuple(sorted((i, (i + 2) % n))) for i in range(0, n, 3)}
    pairs |= {tuple(sorted((i, (i + 5) % n))) for i in range(0, n, 2)}
    s, d = np.array(sorted(pairs), dtype=np.int64).T
    return n, s, d


_GUARD = textwrap.dedent("""
    import json, os, sys

    import numpy as np

    import centrality_gpu_ray.shard_actor as sa

    n, s, d = json.loads(sys.argv[1])
    ckpt = sys.argv[2]
    s, d = np.array(s, dtype=np.int64), np.array(d, dtype=np.int64)
    w = np.ones(s.size, dtype=np.int64)
    # two shards, each from numpy slices of the edge arrays (one of them
    # strided), the form Dataset.to_numpy_refs hands over
    half = s.size // 2
    parts = [[{"s": s[:half], "d": d[:half], "w": w[:half]}],
             [{"s": s[half::2], "d": d[half::2], "w": w[half::2]},
              {"s": s[half + 1::2], "d": d[half + 1::2],
               "w": w[half + 1::2]}]]
    sh = [sa.EdgeShard(*p) for p in parts]
    P = len(sh)
    bounds = (n * np.arange(P + 1, dtype=np.int64)) // P
    lo_hi = [(int(bounds[i]), int(bounds[i + 1])) for i in range(P)]

    # PageRank: degree partials -> owner init -> one superstep
    deg_outs = [a.degree_partials(bounds) for a in sh]
    for i, a in enumerate(sh):
        a.owner_init_from_parts(*lo_hi[i], bounds, n, i, *deg_outs)
    wm = [a.owner_make_w_mass() for a in sh]
    outs = [a.shard_gather_pr(bounds, False, *wm) for a in sh]
    for i, a in enumerate(sh):
        a.owner_combine_pr(0.15 / n, n, 0.85, i, *outs)
    pr = np.concatenate([a.owner_get_state() for a in sh])

    # checkpoint write of the PageRank chunks
    rows = [a.owner_write_chunk(os.path.join(ckpt, f"o{i}.parquet"))
            for i, a in enumerate(sh)]

    # label propagation: first change-driven decide from id labels
    for i, a in enumerate(sh):
        a.owner_set_range(*lo_hi[i])
        a.owner_init_labels()
    labels = [a.owner_get_state() for a in sh]
    outs = [a.shard_gather_label_counts(bounds, False, *labels) for a in sh]
    for i, a in enumerate(sh):
        a.owner_lp_init_resident(i, *outs)
    lp = np.concatenate([a.owner_get_state() for a in sh])

    # triangles: the four owner-routed rounds
    deg_outs = [a.degree_partials(bounds) for a in sh]
    deg = np.concatenate([a.owner_tri_degree(*lo_hi[i], i, *deg_outs)
                          for i, a in enumerate(sh)])
    e_outs = [a.shard_tri_orient(P, deg) for a in sh]
    w_outs = [a.owner_tri_wedges(n, deg, i, *e_outs)
              for i, a in enumerate(sh)]
    c_outs = [a.owner_tri_match(n, bounds, i, *w_outs)
              for i, a in enumerate(sh)]
    for i, a in enumerate(sh):
        a.owner_tri_fold(i, *c_outs)
    tri = np.concatenate([a.owner_get_state() for a in sh])

    # edge support: the same first three rounds, then edge credits
    deg_outs = [a.degree_partials(bounds) for a in sh]
    deg = np.concatenate([a.owner_tri_degree(*lo_hi[i], i, *deg_outs)
                          for i, a in enumerate(sh)])
    e_outs = [a.shard_tri_orient(P, deg) for a in sh]
    w_outs = [a.owner_tri_wedges(n, deg, i, *e_outs)
              for i, a in enumerate(sh)]
    c_outs = [a.owner_sup_match(n, i, *w_outs) for i, a in enumerate(sh)]
    for i, a in enumerate(sh):
        a.owner_sup_fold(0, 0, i, *c_outs)
    sup = [np.concatenate(c).tolist()
           for c in zip(*[a.owner_sup_rows(n, False) for a in sh])]

    # k-core at k = 4: owner degree counters, shard decrements
    deg_outs = [a.degree_partials(bounds) for a in sh]
    for i, a in enumerate(sh):
        a.owner_core_init(*lo_hi[i], i, *deg_outs)
    rnd, decs = 0, []
    while True:
        counts, ids = zip(*[a.owner_core_round(4, rnd, i, *decs)
                            for i, a in enumerate(sh)])
        if sum(counts) == 0:
            break
        decs = [a.shard_core_dec(bounds, *ids) for a in sh]
        rnd += 1
    for a in sh:
        a.owner_core_finalize()
    core = np.concatenate([a.owner_get_state() for a in sh])

    # Jones-Plassmann: per-owner splitmix priorities read through a
    # vertex dictionary, then MIS and coloring rounds. Without a Ray
    # session the dictionary blocks are plain arrays, so the reader's
    # object-store fetch returns them as they are.
    import ray

    ray.get = lambda blocks: blocks
    orig = 7 * np.arange(n, dtype=np.int64) + 3
    meta = (orig[[0, n // 2]], np.array([0, n // 2, n]),
            [orig[:n // 2], orig[n // 2:]])
    pri = np.concatenate([a.owner_jp_pri_chunk(1, meta) for a in sh])

    def jp_setup():
        for a in sh:
            a.shard_jp_load_pri(pri)
        outs = [a.shard_jp_cnt_init(bounds) for a in sh]
        for i, a in enumerate(sh):
            a.owner_jp_state_init(n, i, *outs)

    def jp_result():
        for a in sh:
            a.owner_jp_finalize()
        return (np.concatenate([a.owner_get_state() for a in sh]).tolist(),
                np.concatenate([a.owner_get_aux() for a in sh]).tolist())

    jp_setup()
    win = [a.owner_mis_first(i)[1] for i, a in enumerate(sh)]
    rnd = 1
    while True:
        outs = [a.shard_nbr_ids(bounds, *win) for a in sh]
        exc = [a.owner_mis_exclude(rnd, i, *outs)[1]
               for i, a in enumerate(sh)]
        if sum(x.size for x in win + exc) == 0:
            break
        rnd += 1
        outs = [a.shard_mis_dec(bounds, *win, *exc) for a in sh]
        win = [a.owner_mis_apply(rnd, i, *outs)[1]
               for i, a in enumerate(sh)]
    mis = jp_result()

    jp_setup()
    parts = [a.owner_jp_color_first(i)[1] for i, a in enumerate(sh)]
    rnd = 1
    while sum(p[0].size for p in parts):
        rnd += 1
        outs = [a.shard_jp_color_delta(bounds, *parts) for a in sh]
        parts = [a.owner_jp_color_apply(rnd, i, *outs)[1]
                 for i, a in enumerate(sh)]
    color = jp_result()

    heavy = sorted(m for m in sys.modules
                   if m.split(".")[0] == "pandas"
                   or m == "ray.data" or m.startswith("ray.data.")
                   or m.startswith(("centrality_gpu_ray.pipelines",
                                    "centrality_gpu_ray.functions",
                                    "centrality_gpu_ray.stages")))
    print(json.dumps({"heavy": heavy, "pr": pr.tolist(), "lp": lp.tolist(),
                      "tri": tri.tolist(), "rows": rows, "mis": mis,
                      "color": color, "sup": sup, "core": core.tolist()}))
""")


def test_shard_actor_imports_no_engine_pandas_or_ray_data(tmp_path):
    """Run PageRank, LP, triangle, edge-support, k-core,
    checkpoint-write and Jones–Plassmann (priority chunk, MIS,
    coloring) kernels on the plain class in a fresh interpreter; it must load no pandas, Ray Data or engine
    pipeline module. (Checked outside Ray on purpose: a
    live actor may be handed a worker that already loaded them.)"""
    n, s, d = _edges()
    out = subprocess.run(
        [sys.executable, "-c", _GUARD,
         json.dumps([n, s.tolist(), d.tolist()]), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["heavy"] == []

    # the kernels still compute: independent numpy references
    adj = np.zeros((n, n), dtype=np.int64)
    adj[s, d] = adj[d, s] = 1
    deg = adj.sum(axis=1)
    pr0 = np.full(n, 1.0 / n)
    pr1 = 0.15 / n + 0.85 * (adj @ (pr0 / deg))
    np.testing.assert_allclose(got["pr"], pr1, rtol=0, atol=1e-15)
    assert sum(got["rows"]) == n
    # first LP decide from distinct id labels: every count is 1, so each
    # vertex takes its smallest neighbour's id
    lp1 = [int(np.flatnonzero(adj[v]).min()) for v in range(n)]
    assert [int(x) for x in got["lp"]] == lp1
    tri = np.diag(adj @ adj @ adj) // 2
    assert [int(x) for x in got["tri"]] == tri.tolist()
    assert tri.sum() > 0
    # support of edge (u, v) = common neighbours; every edge once
    src, dst, sup = got["sup"]
    assert sorted(zip(src, dst)) == sorted(zip(s.tolist(), d.tolist()))
    assert sup == [int((adj @ adj)[u, v]) for u, v in zip(src, dst)]
    # k-core rounds from a serial peel of the adjacency matrix
    alive, want, r = adj.copy(), np.full(n, -1), 0
    while True:
        dg = alive.sum(axis=1)
        peel = (dg > 0) & (dg < 4) & (want < 0)
        if not peel.any():
            break
        want[peel] = r
        alive[peel, :] = alive[:, peel] = 0
        r += 1
    assert [int(x) for x in got["core"]] == want.tolist() and r == 2
    # JP: the driver loops over the same priorities (original ids
    # 7i + 3, seed 1) give the same statuses, colors and rounds
    pri = mis_priorities(7 * np.arange(n, dtype=np.int64) + 3, 1)
    in_mis, mis_round = _mis_rounds(s, d, pri.astype(np.float64), n)
    assert got["mis"] == [in_mis.astype(float).tolist(),
                          mis_round.astype(float).tolist()]
    colors, color_round = _jp_local_rounds(s, d, pri.astype(np.float64), n)
    assert got["color"] == [colors.astype(float).tolist(),
                            color_round.astype(float).tolist()]
    assert max(mis_round) > 1 and max(color_round) > 1


def _owner(lo: int, hi: int) -> EdgeShard:
    a = EdgeShard()
    a.owner_set_range(lo, hi)
    return a


def test_checkpoint_chunks_round_trip_bit_exact(tmp_path):
    """float64 state and int64 labels (one of them a strided slice) go
    through the from_buffers write and the buffer read bit-exactly."""
    rng = np.random.default_rng(7)
    base = rng.random(3 * 50)
    cases = {
        "f64": base[:50],
        "f64_strided": base[::3],
        "neg_zero_inf": np.array([-0.0, np.inf, -np.inf, 5e-324, 1.0]),
        "i64": rng.integers(-2**40, 2**40, size=50),
        "i64_strided": rng.integers(0, 2**52, size=150)[1::3],
        "empty": np.empty(0, dtype=np.float64),
    }
    for name, vec in cases.items():
        path = str(tmp_path / f"{name}.parquet")
        src = _owner(10, 10 + vec.size)
        src.state = vec
        assert src.owner_write_chunk(path) == vec.size
        col = pq.read_table(path).column("value")
        assert col.type.to_pandas_dtype() == vec.dtype, name
        assert np.array_equal(col.to_numpy(), vec), name
        dst = _owner(10, 10 + vec.size)
        dst.owner_load_chunk(path)
        want = vec.astype(np.float64)
        assert dst.state.dtype == np.float64
        assert dst.state.tobytes() == want.tobytes(), name
    # the sampled-BC accumulator takes the same path
    src = _owner(0, 4)
    src.b_bc = np.array([0.5, 1.25, 0.0, 3.0])
    src.owner_write_chunk(str(tmp_path / "bc.parquet"), "bc")
    dst = _owner(0, 4)
    dst.owner_load_chunk(str(tmp_path / "bc.parquet"), "bc")
    assert dst.b_bc.tobytes() == src.b_bc.tobytes()


def test_resume_owners_restores_state_bit_exact(tmp_path):
    import pyarrow as pa
    import ray.data

    from centrality_gpu_ray.pipelines.shards import ShardPool

    n, s, d = _edges(40)
    edges = pa.table({"s": s, "d": d, "w": np.ones(s.size, dtype=np.int64)})
    pool = ShardPool(ray.data.from_arrow(edges), num_shards=3)
    try:
        pool.setup_owners_sharded(n)
        state = np.random.default_rng(3).random(n) * 1e-3
        state[::7] = np.arange(0, n, 7)           # exact integers too
        pool.set_state(state)
        pool.checkpoint_owners(str(tmp_path), "algo", 4)
        pool.set_state(np.zeros(n))
        assert pool.resume_owners(str(tmp_path), "algo") == 4
        assert pool.collect_state().tobytes() == state.tobytes()
    finally:
        pool.shutdown()


def test_graph_and_pool_leave_no_store_bytes():
    """Building a dense graph, running PageRank, CC and LP on its pool
    and shutting both down returns the object store to its baseline (a
    remap id vector used to stay behind: n·8 + 248 bytes per graph; the
    loops' carried owner chunks must go with their loop); so does a
    sharded graph that ran edge support, k-truss and k-core on its
    pool."""
    import pyarrow as pa
    import ray.data

    from centrality_gpu_ray.config import EngineConfig
    from centrality_gpu_ray.pipelines import (
        connected_components, label_propagation, pagerank)
    from centrality_gpu_ray.pipelines.graph import Graph
    from centrality_gpu_ray.pipelines.peel import peel
    from centrality_gpu_ray.pipelines.triangles import edge_support
    from centrality_gpu_ray.pipelines.truss import ktruss

    rng = np.random.default_rng(11)
    src = rng.integers(0, 6000, size=20000) * 3 + 1
    dst = rng.integers(0, 6000, size=20000) * 3 + 1
    tbl = pa.table({"src": src, "dst": dst})
    gc.collect()
    base = settled_store_bytes()
    for _ in range(2):
        g = Graph(ray.data.from_arrow(tbl), mode="distributed")
        assert g.num_vertices > 5000
        for out in (pagerank(g), connected_components(g),
                    label_propagation(g)):
            assert out.num_rows == g.num_vertices
        del out
        g.pool.shutdown()
        del g
        gc.collect()
    g = Graph(ray.data.from_arrow(tbl),
              config=EngineConfig(dense_vertex_limit=1000))
    assert g.sharded
    for out in (edge_support(g), ktruss(g, k=3), *peel(g, k=3)):
        assert out.count() > 0
    del out
    g.pool.shutdown()
    del g
    gc.collect()
    assert settled_store_bytes() <= base
