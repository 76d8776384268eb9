"""Engine configuration.

The reference exposes only three booleans (``use_cpu / use_gpu /
remove_pendants``, ``modified_apsp.h:32-35``) and compile-time constants
(``WORK_UNIT_SIZE`` etc., ``modified_apsp.cpp:32-33``). The new engine
makes the knobs explicit and runtime-configurable (SURVEY.md §2.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineConfig:
    """Knobs shared by all pipelines.

    Attributes:
        damping: PageRank damping factor (alpha).
        tolerance: L1 convergence threshold for iterative algorithms.
        max_supersteps: hard cap on superstep count.
        batch_size: rows per ``map_batches`` batch in Dataset-side edge
            passes (link prediction, induced subgraphs, triangle
            listing, ...).
        num_partitions: target partition count for the shuffles of
            Dataset-side pipelines (the graph build sizes its own from
            the cluster, ``stages/shuffle.py::cluster_width``).
        dense_vertex_limit: graphs with at most this many vertices keep
            their sorted original ids on the driver (ids resolve by a
            driver-side search, scores come back as one ``pa.Table``).
            Larger graphs shard the vertex dictionary and return
            Datasets. Both run the same owner supersteps when
            distributed.
        checkpoint_dir: directory for per-superstep Parquet checkpoints
            + lineage manifests; None disables checkpointing.
        checkpoint_every: checkpoint every k-th superstep.
        strict_convergence: raise when a fixpoint algorithm (CC, label
            propagation) hits ``max_supersteps`` with labels still
            changing, instead of silently returning unconverged results;
            False downgrades to a warning + ``converged=False`` metric.
    """

    damping: float = 0.85
    tolerance: float = 1e-6
    max_supersteps: int = 100
    batch_size: int = 262_144
    num_partitions: int = 16
    dense_vertex_limit: int = 5_000_000
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    strict_convergence: bool = True
    # direction-optimizing BFS (Beamer α/β, reference
    # bcc_bfs.cpp:542-567): small frontiers gather from their own
    # adjacency segments instead of streaming all 2m messages. False
    # forces the full-scan mode everywhere (bench A/B + debugging).
    bfs_direction_opt: bool = True
    extra: dict = field(default_factory=dict)


DEFAULT_CONFIG = EngineConfig()
