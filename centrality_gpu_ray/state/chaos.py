"""Kill/resume chaos harness — SURVEY §5's "kill mid-superstep,
resume, bit-identical" commitment, exercised for real.

`run_chaos_pagerank` runs distributed PageRank (dense or sharded graph)
three ways over the same graph-builder callable:

1. an UNINTERRUPTED reference run (no checkpoints),
2. a CHAOS run with per-superstep checkpoints whose shard/owner actor
   is SIGKILLed from a timer thread mid-run (the surviving driver sees
   a Ray actor-death error part-way through a superstep — state chunks
   in that actor are gone for good),
3. a RESUME run on a fresh graph + pool from the same checkpoint dir.

The resume must produce scores BIT-IDENTICAL to the uninterrupted
reference: checkpoints are written atomically after complete
supersteps (partial writes stay in tmp paths and are never read), and
the superstep combine is deterministic in shard order, so replaying
steps k..end from the step-(k−1) vector equals having never died.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np

__all__ = ["run_chaos_pagerank"]


def run_chaos_pagerank(make_graph, cfg_factory,
                       kill_after_steps: int = 3,
                       num_kills: int = 1,
                       poll_timeout_sec: float = 120.0) -> dict:
    """Returns a report dict; raises AssertionError when the resumed
    scores differ from the uninterrupted reference anywhere.

    ``make_graph()`` must build a FRESH Graph (own pool) per call;
    ``cfg_factory(checkpoint_dir)`` returns the EngineConfig
    (checkpoint_dir=None for the reference run). The killer thread
    WATCHES the checkpoint directory and fires the moment
    ``kill_after_steps`` step manifests exist — so the kill provably
    lands after real checkpoints and while supersteps are in flight."""
    import ray

    from centrality_gpu_ray.pipelines.pagerank import pagerank

    out: dict = {}

    # 1. uninterrupted reference
    g_ref = make_graph()
    t0 = time.perf_counter()
    ref = pagerank(g_ref, cfg_factory(None)).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    out["reference_sec"] = round(time.perf_counter() - t0, 3)

    # 2. chaos run: SIGKILL one shard/owner actor mid-run
    import tempfile

    ck = tempfile.mkdtemp(prefix="chaos_ck_")
    out["checkpoint_dir"] = ck
    g_chaos = make_graph()
    pids = ray.get([a.pid.remote() for a in g_chaos.pool.actors])
    killed: list[int] = []
    # dense PageRank's CheckpointManager lays out
    # <ck>/pagerank/step_<k>/manifest.json; sharded PageRank's
    # checkpoint_owners lays out <ck>/pagerank_sharded/step-<k>/ —
    # watch both
    watch_dirs = (os.path.join(ck, "pagerank"),
                  os.path.join(ck, "pagerank_sharded"))

    def steps_done() -> int:
        total = 0
        for wd in watch_dirs:
            if not os.path.isdir(wd):
                continue
            total += sum(
                1 for d in os.listdir(wd)
                if (d.startswith("step_") or d.startswith("step-"))
                and not d.endswith(".tmp")
                and os.path.exists(os.path.join(wd, d, "manifest.json")))
        return total

    def killer():
        deadline = time.monotonic() + poll_timeout_sec
        while steps_done() < kill_after_steps:
            if time.monotonic() > deadline:
                return
            time.sleep(0.002)
        for p in pids[:num_kills]:
            try:
                os.kill(p, signal.SIGKILL)
                killed.append(p)
            except OSError:
                pass

    th = threading.Thread(target=killer, daemon=True)
    th.start()
    died = None
    try:
        pagerank(g_chaos, cfg_factory(ck))
    except Exception as e:  # RayActorError / ActorDiedError wrappers
        died = type(e).__name__
    th.join()
    out["killed_pids"] = killed
    out["chaos_error"] = died
    if died is None:
        raise AssertionError(
            "chaos run completed before the kill landed — raise "
            "supersteps or lower kill_after_steps")
    out["checkpointed_steps"] = steps_done()
    if out["checkpointed_steps"] == 0:
        raise AssertionError("kill landed before the first checkpoint")

    # 3. fresh graph + pool, resume from the same checkpoint dir
    g_res = make_graph()
    t0 = time.perf_counter()
    res = pagerank(g_res, cfg_factory(ck)).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    out["resume_sec"] = round(time.perf_counter() - t0, 3)

    if not (ref["node"].to_numpy() == res["node"].to_numpy()).all():
        raise AssertionError("resume returned a different node set")
    a = ref["pagerank"].to_numpy()
    b = res["pagerank"].to_numpy()
    exact = a == b
    if not exact.all():
        worst = float(np.abs(a - b).max())
        raise AssertionError(
            f"resume NOT bit-identical: {int((~exact).sum())} rows "
            f"differ, max |Δ| = {worst}")
    out["rows_compared"] = int(a.size)
    out["bit_identical"] = True
    return out
