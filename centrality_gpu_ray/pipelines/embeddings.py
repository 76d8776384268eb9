"""Distributed skip-gram-with-negative-sampling (SGNS) node-embedding
training — the DeepWalk/node2vec trainer (Perozzi et al. 2014
"DeepWalk", Grover & Leskovec 2016 "node2vec", Mikolov et al. 2013
word2vec SGNS; public methods, re-derived for the Ray engine).

Closes the engine's representation-learning loop:
``random_walks`` → ``skipgram_pairs`` → **this module** →
``(node, embedding)`` table → ANN / k-means / SemDeDup / link
prediction — every stage in one engine.

Training is DETERMINISTIC synchronous full-batch gradient descent,
not hogwild SGD: each iteration computes the exact global SGNS
gradient in one streaming pass over the (materialized) pair Dataset.
Every block emits SPARSE per-node partial-gradient rows
``(node:int64, side:int8, g:binary[d·8])`` plus one scalar loss row;
the driver folds them with ``np.add.at`` into the dense ``(n, d)``
gradient (duplicate-safe — ``iter_batches`` may coalesce blocks) and
applies one update. Result is therefore invariant to partitioning and
engine parallelism up to float association (tested).

Negative samples are STATELESS and partitioning-invariant: negative
``j`` of pair ``(c, x)`` at iteration ``t`` is drawn from the
unigram^0.75 noise distribution via a splitmix64 stream keyed on
``(seed, c, x, t, j)`` — duplicate pairs share negatives, so the
full-batch gradient is a multiset sum independent of row order.

Scale envelope: ``sgns_train`` keeps the dense ``(n, d)`` model
matrices on the driver and broadcasts once per iteration (``ray.put``)
— the same ``dense_vertex_limit``-style envelope as PageRank's dense
path (n=10M, d=64 → 5 GB for both matrices; fine to ~10M nodes).
Past that, ``sgns_train_sharded`` keeps the matrices as node-range
chunks in shard-pool owners: per iteration the chunks assemble into
one broadcast object pair (the per-node broadcast budget every
superstep already pays — gradient tasks need random access to the
full matrices), per-block gradient tasks return range-split sparse
partials, and each owner folds + updates its own range — no O(n·d)
driver section; the remaining driver-resident O(n) piece is the
noise CDF (8 bytes/node — 0.8 GB at 100M nodes, documented). Pairs
stream and spill in the object store; nothing driver-side is
pair-count-sized. Both trainers share `_batch_grads`, the identical
init rows and the identical update rule, so they agree up to float
association (parity-tested).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from centrality_gpu_ray.nputil import DictReader, splitmix

__all__ = ["sgns_train", "sgns_train_sharded", "sgns_collect",
           "sgns_embeddings_dataset", "embedding_table",
           "node2vec_embeddings"]

_U64 = np.uint64
_PHI = _U64(0x9E3779B97F4A7C15)


def _init_rows(lo: int, hi: int, dim: int, seed: int) -> np.ndarray:
    """Rows [lo, hi) of the deterministic uniform(-0.5/dim, 0.5/dim)
    init (the word2vec syn0 convention), derived per (seed, flat
    index) — identical on any machine AND for any row slicing, so
    owner-resident chunks equal the dense matrix's rows exactly."""
    idx = np.arange(lo * dim, hi * dim, dtype=np.uint64)
    h = splitmix(idx * _PHI + _U64(seed * 2 + 1))
    u = h.astype(np.float64) / float(2**64)  # [0, 1)
    return ((u - 0.5) / dim).reshape(hi - lo, dim)


def _init_matrix(n: int, dim: int, seed: int) -> np.ndarray:
    return _init_rows(0, n, dim, seed)


def _noise_cdf(pairs, n_nodes: int, power: float) -> np.ndarray:
    """Unigram^power noise CDF over CONTEXT frequencies — one
    streaming pass, one length-n partial per block, driver max-sized
    fold (same envelope as the model matrices)."""
    def part(t: pa.Table) -> pa.Table:
        c = np.bincount(t.column("context").to_numpy(),
                        minlength=n_nodes).astype(np.int64)
        return pa.table({"c": pa.array([c.tobytes()], type=pa.binary())})

    counts = np.zeros(n_nodes, dtype=np.int64)
    for b in pairs.select_columns(["context"]).map_batches(
            part, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"):
        for v in b.column("c"):
            counts += np.frombuffer(v.as_py(), dtype=np.int64)
    w = counts.astype(np.float64) ** power
    s = w.sum()
    if s <= 0:
        w = np.ones(n_nodes, dtype=np.float64)
        s = float(n_nodes)
    return np.cumsum(w / s)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically-stable two-sided form (|scores| can reach ±30 late
    # in training; naive exp overflows float64 warnings)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _draw_negatives(c: np.ndarray, x: np.ndarray, it: int, neg: int,
                    seed: int, cdf: np.ndarray) -> np.ndarray:
    """(m, neg) int64 — stateless splitmix stream keyed on pair
    CONTENT (not row position), so any partitioning of the same pair
    multiset yields the same multiset of negatives."""
    base = splitmix(c.astype(np.uint64) * _PHI
                    ^ splitmix(x.astype(np.uint64) + _U64(seed)))
    ks = base[:, None] ^ splitmix(
        np.arange(neg, dtype=np.uint64)[None, :] * _PHI
        + _U64(it * 2 + 1))
    u = splitmix(ks).astype(np.float64) / float(2**64)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _batch_grads(c: np.ndarray, x: np.ndarray, w_in, w_out, cdf,
                 it: int, neg: int, seed: int, dim: int):
    """Exact SGNS gradients for one pair chunk, combined per
    (node, side): returns ``(nodes, sides, grads(m,d), counts,
    loss)`` — the shared math of the dense AND owner-resident
    trainers (they must stay bit-identical)."""
    m = c.size
    wc = w_in[c]                                   # (m, d)
    vx = w_out[x]                                  # (m, d)
    s_pos = _sigmoid(np.einsum("ij,ij->i", wc, vx))
    g_pos = s_pos - 1.0                            # (m,)
    gin = g_pos[:, None] * vx                      # grad wrt wc
    gx = g_pos[:, None] * wc                       # grad wrt vx
    loss = -np.log(np.maximum(1.0 - s_pos, 1e-300)).sum()
    nodes = [c, x]
    sides = [0, 1]
    grads = [gin, gx]
    if neg > 0:
        nn = _draw_negatives(c, x, it, neg, seed, cdf)  # (m, neg)
        vn = w_out[nn]                             # (m, neg, d)
        s_neg = _sigmoid(np.einsum("ij,ikj->ik", wc, vn))
        gin += np.einsum("ik,ikj->ij", s_neg, vn)
        gn = s_neg[..., None] * wc[:, None, :]     # (m, neg, d)
        loss += -np.log(np.maximum(1.0 - s_neg, 1e-300)).sum()
        nodes.append(nn.ravel())
        sides.append(1)
        grads.append(gn.reshape(m * neg, dim))
    out_n, out_s, out_g, out_c = [], [], [], []
    for nd, sd, gr in zip(nodes, sides, grads):
        # in-chunk combine: one row per (node) per side
        u, inv = np.unique(nd, return_inverse=True)
        acc = np.zeros((u.size, dim))
        np.add.at(acc, inv, gr)
        out_n.append(u)
        out_s.append(np.full(u.size, sd, dtype=np.int8))
        out_g.append(acc)
        out_c.append(np.bincount(inv, minlength=u.size)
                     .astype(np.float64))
    return (np.concatenate(out_n), np.concatenate(out_s),
            np.concatenate(out_g, axis=0), np.concatenate(out_c),
            float(loss))


def _grad_pass(pairs, w_in_ref, w_out_ref, cdf_ref, it: int, neg: int,
               seed: int, dim: int, batch_size: int):
    """One full-batch gradient pass → per-block sparse partial rows."""
    import ray

    def fn(t: pa.Table) -> pa.Table:
        w_in, w_out, cdf = (ray.get(w_in_ref), ray.get(w_out_ref),
                            ray.get(cdf_ref))
        c = t.column("center").to_numpy()
        x = t.column("context").to_numpy()
        if c.size == 0:
            return pa.table({
                "node": pa.array([], type=pa.int64()),
                "side": pa.array([], type=pa.int8()),
                "g": pa.array([], type=pa.binary()),
                "cnt": pa.array([], type=pa.float64()),
                "loss": pa.array([], type=pa.float64())})
        n_all, s_all, g_all, c_all, loss = _batch_grads(
            c, x, w_in, w_out, cdf, it, neg, seed, dim)
        blob = [g_all[i].tobytes() for i in range(n_all.size)]
        ls = np.zeros(n_all.size)
        ls[0] = loss
        return pa.table({
            "node": pa.array(n_all, type=pa.int64()),
            "side": pa.array(s_all, type=pa.int8()),
            "g": pa.array(blob, type=pa.binary()),
            "cnt": pa.array(c_all, type=pa.float64()),
            "loss": pa.array(ls, type=pa.float64())})

    fn.__name__ = f"sgns_grad_it{it}"
    return pairs.map_batches(fn, batch_format="pyarrow",
                             batch_size=batch_size)


def sgns_train(pairs, n_nodes: int, dim: int = 32, neg: int = 5,
               iters: int = 10, lr: float = 0.5, seed: int = 1,
               noise_power: float = 0.75,
               batch_size: int = 16384) -> dict:
    """Train SGNS embeddings over a ``(center, context)`` pair Dataset
    (the ``skipgram_pairs`` output) → ``{"w_in", "w_out", "loss",
    "n_pairs"}``. ``w_in`` is the embedding users consume.

    Full-batch gradient descent with linear lr decay (word2vec's
    schedule applied per-iteration): ``lr_t = lr · (1 − t/iters)``,
    floored at ``0.1·lr``. Each node's update is its PER-NODE MEAN
    gradient (its gradient sum divided by its own contribution count)
    — block-diagonal preconditioning that makes one full-batch
    iteration move every node like one averaged SGD epoch, so ``lr``
    is corpus-size-free and rare nodes are not frozen by a global
    1/n_pairs scale.
    """
    import ray

    if isinstance(pairs, pa.Table):
        import ray.data as rd
        pairs = rd.from_arrow(pairs)
    # consumed once per iteration + once for the noise pass —
    # materialize or the walk/explode lineage re-executes every time
    pairs = pairs.select_columns(["center", "context"]).materialize()
    n_pairs = pairs.count()
    w_in = _init_matrix(n_nodes, dim, seed)
    w_out = np.zeros((n_nodes, dim))  # word2vec syn1neg convention
    losses = []
    if n_pairs == 0:
        return {"w_in": w_in, "w_out": w_out, "loss": losses,
                "n_pairs": 0}
    cdf_ref = ray.put(_noise_cdf(pairs, n_nodes, noise_power))
    for it in range(iters):
        w_in_ref, w_out_ref = ray.put(w_in), ray.put(w_out)
        g_in = np.zeros((n_nodes, dim))
        g_out = np.zeros((n_nodes, dim))
        c_in = np.zeros(n_nodes)
        c_out = np.zeros(n_nodes)
        loss = 0.0
        parts = _grad_pass(pairs, w_in_ref, w_out_ref, cdf_ref, it,
                           neg, seed, dim, batch_size)
        for b in parts.iter_batches(batch_size=None,
                                    batch_format="pyarrow"):
            if b.num_rows == 0:
                continue
            nd = b.column("node").to_numpy()
            sd = b.column("side").to_numpy()
            cn = b.column("cnt").to_numpy()
            loss += float(b.column("loss").to_numpy().sum())
            gs = b.column("g")
            if isinstance(gs, pa.ChunkedArray):
                gs = gs.combine_chunks()
            # zero-copy blob concat: binary values are stored
            # contiguously in offset order, so one buffer view replaces
            # the per-row as_py() Python loop (it was ~30% of a full
            # sgns_train iteration at 168k nodes). Offset width follows
            # the actual type — a large_binary producer has int64
            # offsets, and reading those as int32 would silently
            # corrupt every gradient (ADVICE r4)
            if gs.type == pa.binary():
                off_dtype = np.int32
            elif gs.type == pa.large_binary():
                off_dtype = np.int64
            else:
                raise TypeError(
                    f"sgns_train: gradient column has type {gs.type}, "
                    "expected binary/large_binary")
            off = np.frombuffer(gs.buffers()[1], dtype=off_dtype)[
                gs.offset:gs.offset + len(gs) + 1]
            data = np.frombuffer(gs.buffers()[2], dtype=np.uint8)
            raw = data[off[0]:off[-1]]
            if off[0] % 8:  # misaligned slice: copy once (rare)
                arr = np.frombuffer(raw.tobytes(), dtype=np.float64) \
                    .reshape(nd.size, dim)
            else:
                arr = raw.view(np.float64).reshape(nd.size, dim)
            m0 = sd == 0
            # np.add.at: iter_batches may coalesce blocks → duplicate
            # node rows within one batch; fancy += would drop them
            np.add.at(g_in, nd[m0], arr[m0])
            np.add.at(g_out, nd[~m0], arr[~m0])
            np.add.at(c_in, nd[m0], cn[m0])
            np.add.at(c_out, nd[~m0], cn[~m0])
        lr_t = max(lr * (1.0 - it / max(iters, 1)), 0.1 * lr)
        w_in = w_in - lr_t * g_in / np.maximum(c_in, 1.0)[:, None]
        w_out = w_out - lr_t * g_out / np.maximum(c_out, 1.0)[:, None]
        losses.append(loss / n_pairs)
    return {"w_in": w_in, "w_out": w_out, "loss": losses,
            "n_pairs": n_pairs}


_SGNS_TASK = None


def _sgns_task():
    """Lazy remote fn: exact gradients for one pair block, combined
    per (node, side) and range-split by owner bounds. num_returns=2 so
    the driver derefs only the loss scalar; the partial tuple ships
    straight to the owners."""
    global _SGNS_TASK
    if _SGNS_TASK is None:
        import ray

        @ray.remote(num_returns=2)
        def block_grads(part: dict, w_in, w_out, cdf, bounds, it: int,
                        neg: int, seed: int, dim: int, chunk: int):
            c_all, x_all = part["center"], part["context"]
            z = np.empty(0, dtype=np.int64)
            if c_all.size == 0:
                return tuple(
                    (z, z.astype(np.int8), np.zeros((0, dim)),
                     z.astype(np.float64))
                    for _ in range(len(bounds) - 1)), 0.0
            ns, ss, gs, cs = [], [], [], []
            loss = 0.0
            for ofs in range(0, c_all.size, chunk):
                n_, s_, g_, c_, l_ = _batch_grads(
                    c_all[ofs:ofs + chunk], x_all[ofs:ofs + chunk],
                    w_in, w_out, cdf, it, neg, seed, dim)
                ns.append(n_)
                ss.append(s_)
                gs.append(g_)
                cs.append(c_)
                loss += l_
            # cross-chunk combine per (node, side), node-major sorted
            key = np.concatenate(ns) * 2 + np.concatenate(ss)
            u, inv = np.unique(key, return_inverse=True)
            acc = np.zeros((u.size, dim))
            np.add.at(acc, inv, np.concatenate(gs, axis=0))
            cnt = np.bincount(inv, weights=np.concatenate(cs),
                              minlength=u.size)
            nodes = u >> 1
            sides = (u & 1).astype(np.int8)
            cuts = np.searchsorted(nodes, bounds)
            return tuple((nodes[cuts[i]:cuts[i + 1]],
                          sides[cuts[i]:cuts[i + 1]],
                          acc[cuts[i]:cuts[i + 1]],
                          cnt[cuts[i]:cuts[i + 1]])
                         for i in range(len(bounds) - 1)), loss

        _SGNS_TASK = block_grads
    return _SGNS_TASK


def sgns_train_sharded(pairs, n_nodes: int, dim: int = 32, neg: int = 5,
                       iters: int = 10, lr: float = 0.5, seed: int = 1,
                       noise_power: float = 0.75, pool=None,
                       chunk: int = 16384) -> dict:
    """Owner-resident SGNS: the (n, d) model matrices live as
    node-range chunks in shard-pool owners (the >10M-node path the
    dense trainer's driver matrices can't reach). Per iteration the
    chunks assemble into ONE broadcast object pair, per-block gradient
    tasks return range-split sparse partials, and each owner folds +
    applies its own range's per-node-mean update — no O(n·d) driver
    work or memory anywhere.

    Same math as ``sgns_train`` (`_batch_grads`, content-keyed
    negatives, per-node-mean update, identical init rows), so results
    match the dense trainer up to float association (parity-tested at
    1e-9). Returns ``{"pool", "loss", "n_pairs", "dim"}`` — matrices
    stay owner-resident; emit with ``sgns_embeddings_dataset`` or
    collect small models with ``sgns_collect``.

    ``pool``: reuse an existing ShardPool's actors (e.g.
    ``graph.pool`` — owner ranges are re-bound); default spawns a
    state-only pool."""
    import ray

    from centrality_gpu_ray.pipelines.shards import (ShardPool, _numpy_blocks,
                                                     assemble)

    if isinstance(pairs, pa.Table):
        import ray.data as rd
        pairs = rd.from_arrow(pairs)
    pairs = pairs.select_columns(["center", "context"]).materialize()
    n_pairs = pairs.count()
    if pool is None:
        pool = ShardPool.state_only()
    P = len(pool.actors)
    pool.setup_owner_ranges(n_nodes)
    ray.get([a.owner_sgns_init.remote(dim, seed) for a in pool.actors])
    losses: list[float] = []
    if n_pairs:
        blocks = _numpy_blocks(pairs, P)
        cdf_ref = ray.put(_noise_cdf(pairs, n_nodes, noise_power))
        task = _sgns_task()
        bounds = pool.bounds
        for it in range(iters):
            w_in_full = assemble(
                [a.owner_sgns_chunk.remote(0) for a in pool.actors])
            w_out_full = assemble(
                [a.owner_sgns_chunk.remote(1) for a in pool.actors])
            outs, loss_refs = [], []
            for br in blocks:
                pr, lref = task.remote(br, w_in_full, w_out_full,
                                       cdf_ref, bounds, it, neg, seed,
                                       dim, chunk)
                outs.append(pr)
                loss_refs.append(lref)
            lr_t = max(lr * (1.0 - it / max(iters, 1)), 0.1 * lr)
            ray.get([pool.actors[p].owner_sgns_apply.remote(p, lr_t,
                                                            *outs)
                     for p in range(P)])
            losses.append(float(sum(ray.get(loss_refs))) / n_pairs)
    return {"pool": pool, "loss": losses, "n_pairs": n_pairs,
            "dim": dim, "n_nodes": n_nodes}


def sgns_collect(pool) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the owners' model chunks (TEST/SMALL models only —
    the whole point of the sharded trainer is not doing this at
    scale)."""
    import ray

    w_in = np.concatenate(ray.get([a.owner_sgns_chunk.remote(0)
                                   for a in pool.actors]))
    w_out = np.concatenate(ray.get([a.owner_sgns_chunk.remote(1)
                                    for a in pool.actors]))
    return w_in, w_out


def sgns_embeddings_dataset(pool, vdict=None, emb_col: str = "embedding"):
    """Per-owner (node, embedding) chunks → Dataset, driver never
    holding n rows. ``vdict`` (a graph's ``Graph.vdict``) maps dense
    row ids back to original vertex ids; None (owners trained on dense
    pairs without a graph) emits dense ids."""
    import ray
    import ray.data

    @ray.remote
    def emit(lo: int, hi: int, w: np.ndarray, meta):
        ids = np.arange(lo, hi, dtype=np.int64)
        if meta is not None:
            ids = DictReader(meta).to_original(ids)
        return embedding_table(w, ids, emb_col=emb_col)

    bounds = pool.bounds
    meta = None if vdict is None else vdict.meta
    tabs = [emit.remote(int(bounds[i]), int(bounds[i + 1]),
                        a.owner_sgns_chunk.remote(0), meta)
            for i, a in enumerate(pool.actors)]
    return ray.data.from_arrow_refs(tabs)


def embedding_table(w: np.ndarray, node_ids: np.ndarray | None = None,
                    id_col: str = "node",
                    emb_col: str = "embedding") -> pa.Table:
    """Dense ``(n, d)`` matrix → ``(node, embedding:list<float64>)``
    Arrow table in the layout ``functions/similarity.py`` /
    ``clustering.py`` / ``dedup.semantic_dedup`` consume. ``node_ids``
    maps dense row ids back to original vertex ids (``Graph.node_ids``)."""
    n, d = w.shape
    ids = (np.arange(n, dtype=np.int64) if node_ids is None
           else np.asarray(node_ids, dtype=np.int64))
    flat = pa.array(w.ravel(), type=pa.float64())
    off = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32),
                   type=pa.int32())
    return pa.table({id_col: pa.array(ids, type=pa.int64()),
                     emb_col: pa.ListArray.from_arrays(off, flat)})


_OWNER_TRAINER_PAIRS = 2_000_000


def node2vec_embeddings(graph, dim: int = 32, walk_length: int = 20,
                        walks_per_node: int = 2, window: int = 4,
                        neg: int = 5, iters: int = 30, lr: float = 1.0,
                        seed: int = 1, p: float = 1.0,
                        q: float = 1.0,
                        trainer: str = "auto") -> pa.Table:
    """The whole loop in one call: walks → skip-gram pairs → SGNS →
    ``(node, embedding)`` table keyed by ORIGINAL vertex ids.
    ``p == q == 1`` (default) is DeepWalk; other values run node2vec's
    exact second-order rejection-sampled walks
    (``pipelines/walks.py``).

    ``trainer``: "dense" (driver-fold `sgns_train`), "owners"
    (owner-resident `sgns_train_sharded` on the graph's shard pool),
    or "auto" (default) — owners once the pair corpus reaches
    ~2M rows, where the dense trainer's serial driver fold becomes the
    bottleneck (measured 3.0× at 9M pairs); the two trainers agree to
    float association (1e-9 parity-tested). Sharded graphs always
    train owner-resident."""
    if graph.sharded:
        # sharded graphs (> dense_vertex_limit): the OWNER-RESIDENT
        # trainer holds the model chunks — the dense (n, d) driver
        # matrices never exist
        return _node2vec_sharded(graph, dim, walk_length,
                                 walks_per_node, window, neg, iters,
                                 lr, seed, p, q)
    pairs = _dense_pairs(graph, walk_length, walks_per_node, window, seed,
                         p, q).materialize()
    if trainer not in ("auto", "dense", "owners"):
        raise ValueError(f"node2vec_embeddings: unknown trainer "
                         f"{trainer!r}")
    use_owners = (trainer == "owners"
                  or (trainer == "auto"
                      and pairs.count() >= _OWNER_TRAINER_PAIRS))
    if use_owners:
        # reuse the graph's pool only if it ALREADY exists — touching
        # graph.pool lazily spawns a full edge-sharded pool (seconds of
        # actor spawn + doubled message layouts) that SGNS never uses;
        # otherwise sgns_train_sharded spawns cheap state-only owners
        fit = sgns_train_sharded(pairs, graph.num_vertices, dim=dim,
                                 neg=neg, iters=iters, lr=lr,
                                 seed=seed,
                                 pool=getattr(graph, "_pool", None))
        w_in, _ = sgns_collect(fit["pool"])
    else:
        w_in = sgns_train(pairs, graph.num_vertices, dim=dim, neg=neg,
                          iters=iters, lr=lr, seed=seed)["w_in"]
    return embedding_table(w_in, graph.node_ids)


class _PairRemapSharded:
    """map_batches callable: (center, context) original ids → dense,
    via worker-cached zero-copy views of the graph's vertex dictionary
    (dense and sharded graphs alike)."""

    def __init__(self, dict_meta):
        self._meta = dict_meta
        self._reader = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._reader is None:
            self._reader = DictReader(self._meta)
        c = self._reader.to_dense(t.column("center").to_numpy())
        x = self._reader.to_dense(t.column("context").to_numpy())
        return pa.table({"center": pa.array(c), "context": pa.array(x)})


def _dense_pairs(graph, walk_length, walks_per_node, window, seed, p, q):
    """Walks → skip-gram pairs → a Dataset of (center, context) pairs
    in dense ids: walks carry ORIGINAL vertex ids, SGNS trains over
    dense rows."""
    import ray.data

    from centrality_gpu_ray.pipelines.walks import (random_walks,
                                                    skipgram_pairs)

    walks = random_walks(graph, walk_length=walk_length,
                         walks_per_node=walks_per_node, seed=seed,
                         p=p, q=q)
    pairs = skipgram_pairs(walks, window=window)
    remap = _PairRemapSharded(graph.vdict.meta)
    if isinstance(pairs, pa.Table):
        return ray.data.from_arrow(remap(pairs))
    return pairs.map_batches(remap, batch_format="pyarrow")


def _node2vec_sharded(graph, dim, walk_length, walks_per_node, window,
                      neg, iters, lr, seed, p, q):
    """node2vec for >``dense_vertex_limit`` graphs: sharded walks →
    skip-gram pairs → vertex-dictionary dense remap → owner-resident
    SGNS on the graph's own shard pool (no second actor spawn) →
    (node, embedding) Dataset in ORIGINAL ids."""
    pairs = _dense_pairs(graph, walk_length, walks_per_node, window, seed,
                         p, q)
    fit = sgns_train_sharded(pairs, graph.num_vertices, dim=dim,
                             neg=neg, iters=iters, lr=lr, seed=seed,
                             pool=graph.pool)
    return sgns_embeddings_dataset(fit["pool"], graph.vdict)
