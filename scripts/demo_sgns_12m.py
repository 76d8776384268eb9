"""Owner-resident SGNS at scale — 12M nodes / 24M skip-gram pairs,
PAST the dense trainer's documented ~10M-node driver-matrix envelope.

The model matrices live as node-range chunks in a state-only shard
pool (``sgns_train_sharded``): per iteration one assembled broadcast
pair, per-block gradient tasks with range-split sparse partials, and
per-owner fold+update — the driver never holds an (n, d) matrix.
Checks: the iteration-0 loss equals (1+neg)·ln 2 EXACTLY (w_out init
is zeros → every score is sigmoid(0)), after training the mean
positive-pair score exceeds the shuffled-pair score (the SGNS
objective moving the right way — per-iteration loss itself is NOT
monotone because negatives are re-drawn per iteration), every owner
chunk stays finite, and a 1k-node in-process parity run agrees with
the dense trainer at 1e-9.

Run: python scripts/demo_sgns_12m.py [num_nodes] (owns its Ray
session; defaults 12,000,000 / 32 CPUs via RAY_GRAFT_CPUS).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
os.environ.setdefault("RAY_worker_niceness", "0")

BLOCK = 1_000_000


def main() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from centrality_gpu_ray.pipelines.embeddings import (
        sgns_collect, sgns_train, sgns_train_sharded)

    N = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000_000
    DIM, NEG, ITERS = 16, 3, 2
    out: dict = {"num_nodes": N, "dim": DIM, "neg": NEG,
                 "iters": ITERS}

    @ray.remote
    def pair_block(lo: int, hi: int) -> pa.Table:
        i = np.arange(lo, hi, dtype=np.int64)
        center = np.concatenate([i, i])
        context = np.concatenate([(i + 1) % N, (i * 7 + 3) % N])
        return pa.table({"center": pa.array(center),
                         "context": pa.array(context)})

    pairs = ray.data.from_arrow_refs(
        [pair_block.remote(lo, min(lo + BLOCK, N))
         for lo in range(0, N, BLOCK)])

    t0 = time.perf_counter()
    fit = sgns_train_sharded(pairs, N, dim=DIM, neg=NEG, iters=ITERS,
                             lr=0.4, seed=3)
    out["train_sec"] = round(time.perf_counter() - t0, 3)
    out["n_pairs"] = fit["n_pairs"]
    out["loss"] = [round(v, 6) for v in fit["loss"]]
    # w_out inits to zeros → iteration-0 scores are all sigmoid(0)
    assert abs(fit["loss"][0] - (1 + NEG) * np.log(2.0)) < 1e-9

    from centrality_gpu_ray.pipelines.shards import assemble

    pool = fit["pool"]
    w_in_full = assemble(
        [a.owner_sgns_chunk.remote(0) for a in pool.actors])
    w_out_full = assemble(
        [a.owner_sgns_chunk.remote(1) for a in pool.actors])

    @ray.remote
    def score_probe(lo: int, hi: int, w_in, w_out):
        from centrality_gpu_ray.pipelines.embeddings import _sigmoid
        i = np.arange(lo, hi, dtype=np.int64)
        c = np.concatenate([i, i])
        x = np.concatenate([(i + 1) % N, (i * 7 + 3) % N])
        pos = float(_sigmoid(
            np.einsum("ij,ij->i", w_in[c], w_out[x])).mean())
        rng = np.random.RandomState(0)
        rnd = float(_sigmoid(np.einsum(
            "ij,ij->i", w_in[c], w_out[rng.permutation(x)])).mean())
        assert np.isfinite(w_in[c]).all() and np.isfinite(w_out[x]).all()
        return pos, rnd

    pos, rnd = ray.get(score_probe.remote(0, min(BLOCK, N),
                                          w_in_full, w_out_full))
    out["mean_positive_score"] = round(pos, 7)
    out["mean_shuffled_score"] = round(rnd, 7)
    assert pos > rnd, "positive pairs must score above shuffled pairs"
    finite = ray.get([a.owner_sgns_chunk.remote(0)
                      for a in pool.actors])
    assert all(np.isfinite(ch).all() for ch in finite)
    out["owner_chunks"] = len(finite)
    out["rows_per_owner"] = [int(ch.shape[0]) for ch in finite][:4]
    pool.shutdown()

    # in-process dense-vs-sharded parity spot check (1k nodes)
    n_small, m_small = 1000, 5000
    rng = np.random.RandomState(5)
    c = rng.randint(0, n_small, m_small)
    x = (c + 1 + rng.randint(0, n_small - 1, m_small)) % n_small
    small = pa.table({"center": pa.array(c, type=pa.int64()),
                      "context": pa.array(x, type=pa.int64())})
    dense = sgns_train(ray.data.from_arrow(small).repartition(4),
                       n_small, dim=8, neg=3, iters=3, lr=0.4, seed=3)
    sh = sgns_train_sharded(ray.data.from_arrow(small).repartition(4),
                            n_small, dim=8, neg=3, iters=3, lr=0.4,
                            seed=3)
    w_in, _ = sgns_collect(sh["pool"])
    err = float(np.abs(w_in - dense["w_in"]).max())
    sh["pool"].shutdown()
    assert err < 1e-9, f"dense-vs-sharded parity broke: {err}"
    out["parity_max_abs_err"] = err

    ray.shutdown()
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
