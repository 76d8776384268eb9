"""Edge-shard actor pool — the resident-graph superstep engine (T1/T2).

The reference copies R/C/F to the GPU once and every kernel launch
reuses them (``kernels_free.cu:44-74``). Equivalent here: the
materialized edge blocks are dealt round-robin to a pool of long-lived
Ray actors; each actor ingests its slice ONCE into presorted numpy
arrays with precomputed segment boundaries, so every superstep is a
single vectorized gather + ``np.add.reduceat`` / ``minimum.reduceat``
over its shard — no per-superstep Ray Data executor startup (measured
~1.5 s fixed per execution at sf0.1, 20× the actual compute), no
re-deriving per-block indices.

This module is the driver side: ``ShardPool`` deals the blocks and
drives every exchange. The actor class, ``EdgeShard``, lives in
``centrality_gpu_ray/shard_actor.py``, outside ``pipelines/``, under
one rule: an actor process loads only numpy, pyarrow, ``nputil`` and
its own kernel module. Blocks reach it as numpy column dicts
(``Dataset.to_numpy_refs``), never as Arrow tables. When the class was
built here, each actor imported the whole engine, Ray Data and pandas
(505 modules, 0.52–0.57 s per actor, plus 0.36–0.55 s for the Arrow
deserializer's Ray Data import), which was most of a cold job's
1.4–2.0 s pool spawn on a 1-vCPU host; an actor now holds 4 of those
modules.

Message combine runs on the vertex-range owners in deterministic shard
order (shards are a fixed list; per-shard partials are already
key-sorted), so float accumulation is bit-reproducible across runs and
resumes. The same owner loops serve dense-distributed and sharded
graphs; the graph only decides how ids come in and scores go out.

Every superstep loop is the same exchange of two dependent hops: P
shard gathers (``gather``), each joining the P owner chunks itself →
P owner combines (``combine``), each returning a scalar and the next
step's chunk (``num_returns=2``) → the driver sums P scalars. The
chunk refs (the carry) go from one step into the next step's gathers
and live in the calling loop, never in the pool. ``assemble`` serves
one-shot broadcasts only.

On a multi-node cluster the pool spreads across nodes (one actor per
core), each holding ~|E|/K edges; the broadcast state vector is one
object-store copy per node. This is precisely SURVEY.md §7.3's
"stateful actor pools: CSR shard holders".

Kernels run against the resident layout as owner exchanges:
PageRank/PPR/Katz/eigenvector (``pr_step`` family), CC/SSSP/BFS
(min-combine steps), change-driven LP, Jones–Plassmann MIS/coloring,
sampled and weighted Brandes and sharded BiCC. The triangle family
(triangles, edge support, k-truss) and the k-core peel drive the
actors from their own modules (``triangles.py``, ``truss.py``,
``peel.py``).
"""

from __future__ import annotations

import numpy as np

from centrality_gpu_ray.nputil import concat_chunks
from centrality_gpu_ray.shard_actor import remote_class
from centrality_gpu_ray.stages.shuffle import cluster_width


def _numpy_blocks(ds, min_blocks: int = 1) -> list:
    """Refs to the non-empty blocks of a materialized Dataset, each as a
    ``{column: ndarray}`` dict (``Dataset.to_numpy_refs``) — the only
    form shard actors read, since an Arrow block would make Ray load
    Ray Data and pandas into the actor to deserialize it. Repartitions
    first when fewer than ``min_blocks`` blocks hold rows."""
    def nonempty(d):
        return [meta.num_rows is None or meta.num_rows > 0
                for bundle in d.iter_internal_ref_bundles()
                for _, meta in bundle.blocks]

    keep = nonempty(ds)
    if sum(keep) < min_blocks:
        ds = ds.repartition(min_blocks).materialize()
        keep = nonempty(ds)
    return [ref for ref, k in zip(ds.to_numpy_refs(), keep) if k]


_ASSEMBLE = None


def assemble(parts: list):
    """Join the P owners' parts (``concat_chunks``) into ONE plasma
    object — for one-shot broadcasts only (BiCC, the Brandes/WBC level
    passes, SGNS, triangle degrees, ``jp_setup``, the peel's removed
    flags):
    every shard reads it zero-copy via arg auto-deref, one copy per
    node. The superstep loops skip it: each shard joins the owners'
    chunks itself (``ShardPool.gather``).

    **Scale envelope — what breaks first at ~1e9 vertices.** A
    superstep's state vector is O(n) bytes (int32 labels: 4 GB at
    1e9; float64 scores: 8 GB), and every shard concatenates its own
    private O(n) copy of it per superstep: P copies per node, rebuilt
    every step, where one assembled object would serve them all. It
    is this copy, NOT the shuffles (O(E/K) per shard) or the driver
    (O(P) scalars per superstep), that hits a wall first: per-shard
    memory and the copy's bandwidth, plus the cross-node fan-out
    (n bytes × nodes). The copy buys two dependent hops per superstep
    instead of four (no assemble task between owners and shards): on
    one vCPU with 2 actors PageRank took 6.87 instead of 10.98 ms per
    step at n 17,100 and 25.7 instead of 32.6 ms at sf0.1 (n 168,236,
    m 1.79M, 18 steps), bit-identical. Whether one shared copy wins
    back at high P (a profile once showed the gather at 0.28 s for
    P=2 and 0.29 s for P=6, private copies thrashing L3) cannot be
    measured on a 1-vCPU host. Escape
    hatches, local to ``ShardPool.gather``'s kernels: each shard reads
    only the chunks covering ids it gathers (~E/K edges → a fraction
    of n on well-partitioned graphs), or ships only frontiers (BFS and
    the Brandes sweeps already do for narrow levels)."""
    global _ASSEMBLE
    if _ASSEMBLE is None:
        import ray

        @ray.remote(num_cpus=0)
        def _assemble(*parts):
            return concat_chunks(parts)

        _ASSEMBLE = _assemble
    return _ASSEMBLE.remote(*parts)


class ShardPool:
    """Fixed list of EdgeShard actors built from a materialized edge
    Dataset; deterministic shard order."""

    def __init__(self, edges_ds, num_shards: int | None = None,
                 replicas: int = 1, stride: int = 0):
        import ray

        # pool parallelism tracks the cluster (explicit num_shards
        # overrides), capped at 16 per node (``cluster_width``): the
        # superstep is memory-bandwidth-bound, and a measured P-sweep at
        # 32 CPUs gives 0.16/0.06/0.057/0.18 s per superstep at
        # P=4/8/16/32 — beyond ~16 shards per memory bus the
        # per-superstep task/object fixed costs grow while the bus adds
        # nothing. A Graph's edge Dataset has one block per (s, d) range
        # and as many ranges as this width, so each shard gets one
        # range; only an input with fewer non-empty blocks than shards
        # (a tiny graph, an explicit larger num_shards) is repartitioned.
        k = max(1, num_shards or cluster_width())
        block_refs = _numpy_blocks(edges_ds, k)
        k = max(1, min(k, len(block_refs)))
        assignments: list[list] = [[] for _ in range(k)]
        for i, br in enumerate(block_refs):
            assignments[i % k].append(br)
        # varargs so each block ref is a top-level arg (auto-deref,
        # zero-copy plasma read inside the actor)
        self.actors = [remote_class().remote(*a, replicas=replicas,
                                             stride=stride)
                       for a in assignments]
        # rep_fold tiling (replicas > 1, stride == 0) breaks the 1:1
        # seg↔uniq_v indexing the frontier kernels rely on
        self._frontier_capable = replicas == 1 or stride > 0
        ray.get([a.ready.remote() for a in self.actors])

    @classmethod
    def state_only(cls, num_owners: int | None = None) -> "ShardPool":
        """Owner-role-only pool (no edge slices): state holders for
        algorithms whose input is not an edge set (owner-resident SGNS
        model chunks). Shard-side superstep methods are unusable on
        such a pool (`_frontier_capable` False, empty layouts)."""
        import ray

        self = cls.__new__(cls)
        k = max(1, num_owners or cluster_width())
        self.actors = [remote_class().remote() for _ in range(k)]
        self._frontier_capable = False
        ray.get([a.ready.remote() for a in self.actors])
        return self

    # -- owner-mode orchestration (no O(n) driver work per superstep) ----

    def split(self, n: int) -> np.ndarray:
        """The owners' [lo, hi) split of ``n`` dense ids,
        ``bounds[p] = n·p // P``, recorded as the pool's current one."""
        P = len(self.actors)
        self.bounds = (n * np.arange(P + 1, dtype=np.int64)) // P
        self.n = n
        return self.bounds

    def setup_owners(self, n: int, weighted: bool = False):
        """Owner init: bind each actor's [lo, hi) range, assemble its
        degree (``weighted``: strength) chunk from the shards' resident
        segment lengths, derive inv_deg there and uniform-init the
        state to 1/n. The driver only routes refs (O(P) work, O(1)
        memory); tiled shards fold their replicas into the partials."""
        import ray

        bounds = self.split(n)
        deg_outs = [a.degree_partials.remote(bounds, weighted)
                    for a in self.actors]
        ray.get([
            a.owner_init_from_parts.remote(int(bounds[i]), int(bounds[i + 1]),
                                           bounds, n, i, *deg_outs)
            for i, a in enumerate(self.actors)
        ])

    setup_owners_sharded = setup_owners

    def reset_labels(self):
        """Set owner state to dense-id labels (CC init)."""
        import ray

        ray.get([a.owner_init_labels.remote() for a in self.actors])

    # -- the superstep exchange: two dependent hops ----------------------
    # P shard gathers over the owners' chunks → P owner combines, each
    # returning (scalar, next chunk) → the driver sums P scalars. The
    # next chunks (the carry) go straight into the next step's gathers;
    # the caller's loop holds them, never the pool, so ``set_state``,
    # ``resume_owners`` or a family switch cannot feed a stale chunk.
    # A step given ``carry=None`` reads its chunks from the owners
    # first (one more hop).

    def _chunks(self, carry, method: str = "owner_get_state", *args):
        return carry if carry is not None else [
            getattr(a, method).remote(*args) for a in self.actors]

    def gather(self, method: str, chunks, *args) -> list:
        """P shard calls ``method(bounds, *args, *chunks)``; each
        shard joins the P owner chunks itself."""
        return [getattr(a, method).remote(self.bounds, *args, *chunks)
                for a in self.actors]

    def combine(self, method: str, *args, outs=()):
        """P owner calls ``method(*args, p, *outs)``, each returning
        (scalar, next chunk). Returns (Σ scalars, the P next-chunk
        refs): the step's one driver sync."""
        import ray

        scalars, chunks = zip(*[
            getattr(a, method).options(num_returns=2).remote(
                *args, p, *outs)
            for p, a in enumerate(self.actors)])
        return sum(ray.get(list(scalars))), list(chunks)

    def pr_step(self, carry, alpha: float, weighted: bool = False):
        """One owner-combined PageRank superstep; returns (global L1
        delta, carry). Driver-side work: launching 2P actor calls and
        summing P deltas — independent of n and m."""
        outs = self.gather("shard_gather_pr",
                           self._chunks(carry, "owner_make_w_mass"),
                           weighted)
        return self.combine("owner_combine_pr", (1.0 - alpha) / self.n,
                            self.n, alpha, outs=outs)

    def ev_step(self, carry, weighted: bool = False):
        """One normalized power-iteration superstep (eigenvector
        centrality) over owner-resident state; returns (global L1
        delta, carry). Two driver sync points (global Σy, then delta),
        each O(P) scalars — still no O(n) driver section."""
        import ray

        outs = self.gather("shard_gather_sum", self._chunks(carry),
                           weighted)
        total = float(sum(ray.get(
            [a.owner_combine_accum.remote(p, *outs)
             for p, a in enumerate(self.actors)])))
        if total <= 0.0:
            # degenerate gather (all-zero y): drop the pending chunks so
            # a pool reuse can't commit stale state, and surface the
            # condition distinctly from an ordinary converged delta
            ray.get([a.owner_drop_pending.remote() for a in self.actors])
            return 0.0, None
        return self.combine("owner_scale_pending", total)

    def brandes_init(self):
        import ray

        ray.get([a.owner_brandes_init.remote() for a in self.actors])

    def brandes_source_pass(self, src_dense: int) -> int:
        """One complete Brandes source: forward BFS with path counts,
        then backward dependency passes; accumulates into the owners'
        resident bc vector. Returns the BFS depth reached. Driver work:
        O(P) calls per superstep, O(depth) supersteps.

        Direction-optimized: each sweep's sender set is one BFS level,
        whose size the forward pass already counts — levels below n/8
        vertices run as a sparse frontier scatter over only their own
        adjacency segments (``shard_frontier_scatter``) instead of the
        full 2m-message gather, in BOTH the forward sigma and backward
        delta sweeps (source/tail levels of every BFS are tiny, so this
        trims O(m) work from the narrow ends of every source)."""
        import ray

        P = len(self.actors)
        ray.get([a.owner_brandes_reset_source.remote(src_dense)
                 for a in self.actors])

        def sparse_ok(count: int) -> bool:
            return self._frontier_capable and count * 8 < self.n

        def level_exchange(depth: float, count: int, sparse_maker: str,
                           dense_maker: str):
            if sparse_ok(count):
                prs = [getattr(a, sparse_maker).remote(depth)
                       for a in self.actors]
                pair = assemble(prs)
                return [a.shard_frontier_scatter.remote(self.bounds, pair)
                        for a in self.actors]
            fr = [getattr(a, dense_maker).remote(depth)
                  for a in self.actors]
            w_full = assemble(fr)
            return [a.shard_gather_sum.remote(self.bounds, False, w_full)
                    for a in self.actors]

        level_counts = [1]  # |level k| — the source alone at depth 0
        depth = 0.0
        while True:
            outs = level_exchange(depth, level_counts[-1],
                                  "owner_make_sigma_sparse",
                                  "owner_make_sigma_frontier")
            new = sum(ray.get(
                [self.actors[p].owner_combine_brandes_fwd.remote(
                    depth, p, *outs) for p in range(P)]))
            if new == 0:
                break
            level_counts.append(new)
            depth += 1.0
        d = depth
        while d > 0.0:
            outs = level_exchange(d, level_counts[int(d)],
                                  "owner_make_delta_sparse",
                                  "owner_make_delta_term")
            ray.get([self.actors[p].owner_combine_brandes_bwd.remote(
                d - 1.0, p, *outs) for p in range(P)])
            d -= 1.0
        ray.get([a.owner_brandes_accumulate.remote(src_dense)
                 for a in self.actors])
        return int(depth)

    def brandes_batch_pass(self, srcs: np.ndarray) -> int:
        """One superstep sequence for a BATCH of b Brandes sources:
        owner state is (width, b), the broadcast is (n, b), and every
        gather serves all b sources in one task round — the per-task
        RTT (the dominant cost of narrow levels on this substrate) is
        paid once per superstep instead of once per source. Termination
        is batch-wide: columns whose BFS finished early contribute
        all-zero frontiers (wasted work bounded by depth skew within
        the batch — sources are contiguous ids, skew is small).
        Returns the max BFS depth across the batch."""
        import ray

        P = len(self.actors)
        srcs = np.asarray(srcs, dtype=np.int64)
        ray.get([a.owner_brandes_reset_batch.remote(srcs)
                 for a in self.actors])
        depth = 0.0
        while True:
            fr = [a.owner_make_sigma_frontier.remote(depth)
                  for a in self.actors]
            w_full = assemble(fr)
            outs = [a.shard_gather_sum.remote(self.bounds, False, w_full)
                    for a in self.actors]
            new = sum(ray.get(
                [self.actors[p].owner_combine_brandes_fwd.remote(
                    depth, p, *outs) for p in range(P)]))
            if new == 0:
                break
            depth += 1.0
        d = depth
        while d > 0.0:
            dt = [a.owner_make_delta_term.remote(d) for a in self.actors]
            w_full = assemble(dt)
            outs = [a.shard_gather_sum.remote(self.bounds, False, w_full)
                    for a in self.actors]
            ray.get([self.actors[p].owner_combine_brandes_bwd.remote(
                d - 1.0, p, *outs) for p in range(P)])
            d -= 1.0
        ray.get([a.owner_brandes_accumulate_batch.remote(srcs)
                 for a in self.actors])
        return int(depth)

    def wbc_source_pass(self, src_dense: int, max_supersteps: int) -> int:
        """One weighted Brandes source: min-plus SSSP to fixpoint, then
        forward sigma sweeps over ascending distinct distances and
        backward delta sweeps descending (``shard_gather_wdag_sum``
        applies the DAG test edge-side). Returns the number of distance
        buckets. Assumes distinct-distance count ≪ n (integer weights:
        bounded by weighted diameter) — documented sweep-schedule
        assumption."""
        import ray

        P = len(self.actors)
        ray.get([a.owner_fill_state.remote(float("inf"))
                 for a in self.actors])
        ray.get([a.owner_set_value.remote(src_dense, 0.0)
                 for a in self.actors])
        steps, (changed, carry) = 0, self.sssp_step(None)
        while changed:
            steps += 1
            if steps > max_supersteps:
                raise RuntimeError(
                    f"weighted BC SSSP exceeded {max_supersteps} supersteps")
            changed, carry = self.sssp_step(carry)
        uniqs = ray.get([a.owner_wbc_start.remote() for a in self.actors])
        ray.get([a.owner_wbc_set_sigma_source.remote(src_dense)
                 for a in self.actors])
        dvals = np.unique(np.concatenate(
            [u for u in uniqs if u.size] or [np.zeros(1)]))
        dist_refs = [a.owner_get_wbc_dist.remote() for a in self.actors]
        dist_full = assemble(dist_refs)
        for dval in dvals[:-1] if dvals.size else []:  # last bucket: no out-DAG edges
            x_refs = [a.owner_make_sigma_bucket.remote(float(dval))
                      for a in self.actors]
            x_full = assemble(x_refs)
            outs = [a.shard_gather_wdag_sum.remote(self.bounds, dist_full,
                                                   x_full, False)
                    for a in self.actors]
            ray.get([self.actors[p].owner_combine_wbc_fwd.remote(p, *outs)
                     for p in range(P)])
        for dval in dvals[::-1]:
            if dval == 0.0:
                break  # the source bucket has no parents
            x_refs = [a.owner_make_delta_bucket.remote(float(dval))
                      for a in self.actors]
            x_full = assemble(x_refs)
            outs = [a.shard_gather_wdag_sum.remote(self.bounds, dist_full,
                                                   x_full, True)
                    for a in self.actors]
            ray.get([self.actors[p].owner_combine_wbc_bwd.remote(p, *outs)
                     for p in range(P)])
        ray.get([a.owner_brandes_accumulate.remote(src_dense)
                 for a in self.actors])
        return int(dvals.size)

    def wbc_batch_pass(self, srcs: np.ndarray, max_supersteps: int) -> int:
        """Weighted Brandes for a BATCH of b sources: one batched
        min-plus SSSP over (width, b) distance matrices, then sigma /
        delta sweeps over the UNION of the batch's distinct distances
        (columns without a bucket contribute zeros — integer weights
        make the union barely larger than one source's schedule, so the
        per-task RTT amortizes ~b× like the unweighted batch). The DAG
        test runs edge-side per column against the (n, b) distance
        broadcast. Returns the union bucket count."""
        import ray

        P = len(self.actors)
        srcs = np.asarray(srcs, dtype=np.int64)
        ray.get([a.owner_wbc_reset_batch.remote(srcs)
                 for a in self.actors])
        steps = 0
        while True:
            dist_refs = [a.owner_get_wbc_dist_ref.remote()
                         for a in self.actors]
            dist_full = assemble(dist_refs)
            outs = [a.shard_gather_minplus.remote(self.bounds, dist_full)
                    for a in self.actors]
            changed = sum(ray.get(
                [self.actors[p].owner_wbc_combine_min.remote(p, *outs)
                 for p in range(P)]))
            if changed == 0:
                break
            steps += 1
            if steps > max_supersteps:
                raise RuntimeError(
                    f"batched weighted BC SSSP exceeded {max_supersteps} "
                    "supersteps")
        uniqs = ray.get([a.owner_wbc_start_batch.remote(srcs)
                         for a in self.actors])
        dvals = np.unique(np.concatenate(
            [u for u in uniqs if u.size] or [np.zeros(1)]))
        dist_refs = [a.owner_get_wbc_dist_ref.remote()
                     for a in self.actors]
        dist_full = assemble(dist_refs)
        for dval in dvals[:-1] if dvals.size else []:
            # the global max bucket has no out-DAG edges in any column
            x_refs = [a.owner_make_sigma_bucket.remote(float(dval))
                      for a in self.actors]
            x_full = assemble(x_refs)
            outs = [a.shard_gather_wdag_sum.remote(self.bounds, dist_full,
                                                   x_full, False)
                    for a in self.actors]
            ray.get([self.actors[p].owner_combine_wbc_fwd.remote(p, *outs)
                     for p in range(P)])
        for dval in dvals[::-1]:
            if dval == 0.0:
                break  # each column's 0-bucket is its source alone
            x_refs = [a.owner_make_delta_bucket.remote(float(dval))
                      for a in self.actors]
            x_full = assemble(x_refs)
            outs = [a.shard_gather_wdag_sum.remote(self.bounds, dist_full,
                                                   x_full, True)
                    for a in self.actors]
            ray.get([self.actors[p].owner_combine_wbc_bwd.remote(p, *outs)
                     for p in range(P)])
        ray.get([a.owner_brandes_accumulate_batch.remote(srcs)
                 for a in self.actors])
        return int(dvals.size)

    def brandes_commit(self):
        import ray

        ray.get([a.owner_commit_bc.remote() for a in self.actors])

    def set_teleport(self, dense_idx: np.ndarray, wts: np.ndarray):
        """Broadcast the k-entry personalization to every owner."""
        import ray

        ray.get([a.owner_set_teleport.remote(dense_idx, wts)
                 for a in self.actors])

    def ppr_step(self, carry, alpha: float, weighted: bool = False):
        """One personalized-PageRank superstep (teleport chunks resident
        in the owners); returns (global L1 delta, carry)."""
        outs = self.gather("shard_gather_pr",
                           self._chunks(carry, "owner_make_w_mass"),
                           weighted)
        return self.combine("owner_combine_ppr", alpha, outs=outs)

    def katz_step(self, carry, alpha: float, beta: float,
                  weighted: bool = False):
        """One Katz superstep x ← β + α·A·x over owner-resident state;
        returns (global L1 delta, carry)."""
        outs = self.gather("shard_gather_sum", self._chunks(carry),
                           weighted)
        return self.combine("owner_combine_katz", alpha, beta, outs=outs)

    def cc_step(self, carry, alt: bool = False):
        """One owner-combined min-label superstep WITH pointer jumping
        (label distances contract geometrically — O(log n) supersteps,
        not O(diameter)); returns (#changed, carry). ``alt=True`` runs
        over the actors' secondary edge set (``load_alt_edges``)."""
        labs = self._chunks(carry)
        outs = self.gather("shard_gather_min_alt" if alt
                           else "shard_gather_min", labs)
        return self.combine("owner_combine_min_jump", outs=outs + labs)

    def setup_owner_ranges(self, n: int):
        """Minimal owner init: just the [lo, hi) range split — no degree
        pass, no numeric init vector (LP needs neither)."""
        import ray

        bounds = self.split(n)
        ray.get([a.owner_set_range.remote(int(bounds[i]), int(bounds[i + 1]))
                 for i, a in enumerate(self.actors)])

    def lp_init_resident(self, weighted: bool = True):
        """Change-driven LP full-count superstep: ONE full-count gather
        over the owners' labels (read fresh — one more hop, on an O(m)
        step) builds the owners' resident (v, label)→count tables and
        runs a decide. Returns (#changed, carry: the changed triples)."""
        outs = self.gather("shard_gather_label_counts", self._chunks(None),
                           weighted)
        return self.combine("owner_lp_init_resident", outs=outs)

    def lp_delta_step(self, carry, weighted: bool = True):
        """One change-driven LP superstep: shards emit ±w count deltas
        from the changed vertices' adjacency segments
        (O(Σdeg(changed)), not O(m)); owners fold and re-decide only
        touched vertices. Takes and returns the changed triples:
        (#changed, carry)."""
        return self.combine("owner_lp_apply", outs=self.gather(
            "shard_lp_delta", carry, weighted))

    def lp_step(self, carry, weighted: bool = True):
        """One mode-LP superstep over owner-resident labels; returns
        (#vertices whose label changed, carry: the label chunks)."""
        outs = self.gather("shard_gather_label_counts", self._chunks(carry),
                           weighted)
        return self.combine("owner_combine_mode", outs=outs)

    # -- owner-resident Jones–Plassmann orchestration --------------------

    def jp_setup(self, n: int, pri: np.ndarray | None = None,
                 seed: int = 0, dict_meta=None):
        """One-time JP setup: ONE static priority broadcast into the
        shards, one full-edge lower-pri-count pass, decision vectors
        reset. ``pri``: the driver's priority vector (dense graphs);
        without it each owner hashes its range's original ids from the
        sharded vertex dictionary ``dict_meta`` under ``seed``. Driver
        work: O(P) calls, plus one ``ray.put`` of ``pri``."""
        import ray

        self.setup_owner_ranges(n)
        P = len(self.actors)
        pri_full = (ray.put(pri) if pri is not None else assemble(
            [a.owner_jp_pri_chunk.remote(seed, dict_meta)
             for a in self.actors]))
        ray.get([a.shard_jp_load_pri.remote(pri_full)
                 for a in self.actors])
        cnt_outs = [a.shard_jp_cnt_init.remote(self.bounds)
                    for a in self.actors]
        ray.get([self.actors[p].owner_jp_state_init.remote(n, p, *cnt_outs)
                 for p in range(P)])

    # JP and MIS rounds: owners return (count, part); the driver sums
    # the P counts and hands the P part refs to the next round.

    def jp_color_first(self):
        """Round 1: color the zero-counter vertices; returns
        (#colored, the owners' (ids, colors) part refs)."""
        return self.combine("owner_jp_color_first")

    def jp_color_round(self, pairs: list, rnd: int):
        """One change-driven coloring round; returns
        (#colored, next part refs)."""
        return self.combine("owner_jp_color_apply", rnd, outs=self.gather(
            "shard_jp_color_delta", pairs))

    def mis_first(self):
        """Round 1 winners; returns (#winners, winner id part refs)."""
        return self.combine("owner_mis_first")

    def mis_win_round(self, decided: list, rnd: int):
        """Apply decrements from last round's decided id parts;
        returns (#new winners, winner id part refs)."""
        return self.combine("owner_mis_apply", rnd, outs=self.gather(
            "shard_mis_dec", decided))

    def mis_exclude_round(self, wins: list, rnd: int):
        """Mark undecided neighbors of this round's winners excluded;
        returns (#excluded, excluded id part refs)."""
        return self.combine("owner_mis_exclude", rnd, outs=self.gather(
            "shard_nbr_ids", wins))

    def jp_finalize(self) -> tuple[int, int]:
        """Commit color/status + round into the generic owner vectors;
        returns (global undecided count, global max decision value)."""
        import ray

        parts = ray.get([a.owner_jp_finalize.remote()
                         for a in self.actors])
        return (int(sum(p[0] for p in parts)),
                int(max(p[1] for p in parts)))

    def bfs_step_sharded(self, carry, depth: int,
                         frontier_size: int | None = None):
        """One sharded BFS superstep over the frontier at ``depth``
        (carry: the owners' frontier id parts); returns (#vertices
        newly reached, carry).

        Direction-optimized (reference ``bcc_bfs.cpp:542-567``): when the
        caller reports a small frontier (< n/8 vertices), only the
        frontier's own adjacency segments are touched — O(Σdeg(frontier))
        — instead of streaming all 2m messages. The full scan remains
        the bottom-up mode for wide frontiers; it reads the owners'
        level chunks (one more hop) so shards drop messages to visited
        vertices, which on wide late levels are most of them."""
        if (self._frontier_capable and frontier_size is not None
                and frontier_size * 8 < self.n):
            outs = self.gather("shard_bfs_topdown", self._chunks(
                carry, "owner_make_frontier_ids", float(depth)))
        else:
            outs = self.gather("shard_bfs_bottomup", self._chunks(None),
                               float(depth))
        return self.combine("owner_combine_bfs", float(depth), outs=outs)

    def sssp_step(self, carry):
        """One min-plus superstep over owner-resident distances;
        returns (#vertices whose distance improved, carry)."""
        return self.combine("owner_combine_min", outs=self.gather(
            "shard_gather_minplus", self._chunks(carry)))

    def checkpoint_owners(self, ckpt_dir: str, algo: str, step: int,
                          extra_meta: dict | None = None,
                          vector: str = "state") -> dict:
        """Per-owner sharded checkpoint: each owner writes its own
        chunk file; the driver writes only the small manifest (bounds,
        step, lineage). No O(n) driver traffic. ``vector`` selects the
        owner vector ("state" or the sampled-BC "bc" accumulator)."""
        import json
        import os
        import time as _time

        import ray

        step_dir = os.path.join(ckpt_dir, algo, f"step-{step:06d}")
        os.makedirs(step_dir, exist_ok=True)
        rows = ray.get([
            a.owner_write_chunk.remote(
                os.path.join(step_dir, f"owner-{i:05d}.parquet"), vector)
            for i, a in enumerate(self.actors)
        ])
        manifest = {
            "algo": algo, "step": step, "n": int(self.n),
            "bounds": [int(b) for b in self.bounds],
            "rows": rows, "written_at": _time.time(),
            **(extra_meta or {}),
        }
        tmp = os.path.join(step_dir, "manifest.json.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, os.path.join(step_dir, "manifest.json"))
        return manifest

    def resume_owners(self, ckpt_dir: str, algo: str,
                      vector: str = "state") -> int | None:
        """Load the newest sharded checkpoint into the owners; returns
        its step, or None if there is none. Raises ``ValueError`` if it
        was written for another ``n`` or other owner bounds (another
        graph, or another pool size). The loaded
        manifest is kept on ``self.last_manifest`` so callers can read
        their own lineage fields (e.g. the sampled-BC source cursor)."""
        import json
        import os

        import ray

        algo_dir = os.path.join(ckpt_dir, algo)
        if not os.path.isdir(algo_dir):
            return None
        steps = sorted(d for d in os.listdir(algo_dir)
                       if d.startswith("step-")
                       and os.path.exists(os.path.join(algo_dir, d,
                                                       "manifest.json")))
        if not steps:
            return None
        step_dir = os.path.join(algo_dir, steps[-1])
        with open(os.path.join(step_dir, "manifest.json")) as f:
            man = json.load(f)
        bounds = [int(b) for b in self.bounds]
        if man.get("n") != int(self.n) or man.get("bounds") != bounds:
            raise ValueError(
                f"checkpoint {step_dir} was written for n={man.get('n')}, "
                f"owner bounds {man.get('bounds')}; this pool has "
                f"n={int(self.n)}, owner bounds {bounds}")
        ray.get([
            a.owner_load_chunk.remote(
                os.path.join(step_dir, f"owner-{i:05d}.parquet"), vector)
            for i, a in enumerate(self.actors)
        ])
        self.last_manifest = man
        return int(man["step"])

    def collect_state(self, aux: bool = False) -> np.ndarray:
        """The owners' state chunks (``aux=True``: their aux chunks)
        concatenated in dense-id order."""
        import ray

        return np.concatenate(ray.get([
            (a.owner_get_aux if aux else a.owner_get_state).remote()
            for a in self.actors]))

    def shutdown(self):
        """Release the actors (and their fractional CPU reservations) —
        call when the pool is done so later stages can schedule."""
        import ray

        for a in self.actors:
            ray.kill(a, no_restart=True)
        self.actors = []

    def set_state(self, state: np.ndarray):
        import ray

        ray.get([a.owner_set_state.remote(state[self.bounds[i]:self.bounds[i + 1]])
                 for i, a in enumerate(self.actors)])
