"""centrality_gpu_ray — a Ray-Data-native link-graph analytics engine.

A from-scratch re-expression of the *capabilities* of
``Goutam363/centrality-GPU`` (an exact betweenness-centrality C++/CUDA
program, see ``/root/reference/Codes``) as idiomatic Ray Data pipelines:

* a source-code corpus table ``(repo, path, commit, lang, content)`` is
  turned into a co-occurrence **edge table** (`stages/edges.py`),
* iterative graph algorithms — PageRank, connected components, label
  propagation, triangle counting, and a Brandes betweenness-centrality
  conformance tier — run as **supersteps** on a resident edge-shard
  actor pool: each shard gathers its presorted edges with one
  vectorized ``reduceat`` and vertex-range owner actors combine the
  partials (`pipelines/`),
* per-superstep Parquet checkpoints with lineage manifests make every
  run resumable (`state/checkpoint.py`),
* plus the training-data-pipeline operators a 100 TB corpus needs:
  exact/MinHash-LSH/SimHash dedup, ANN similarity search, text quality
  analysis, multimodal plumbing (`functions/`).

Nothing here calls ``ray.init``/``ray.shutdown`` — sessions are owned
by the caller (driver, tests' conftest, bench.py).
"""

import logging as _logging

from centrality_gpu_ray.config import EngineConfig


class _SchemaHashNoise(_logging.Filter):
    """Drop Ray Data's cosmetic 'Failed to hash the schemas' warning.

    Parquet files written by pandas carry b'pandas' schema metadata whose
    presence makes ``hash(pyarrow.Schema)`` raise ``unhashable type:
    'dict'``; Ray's schema-dedup fast path catches that and warns, then
    proceeds correctly down the slow path. Planning-time noise only —
    nothing is wrong with the data or the plan."""

    def filter(self, record: _logging.LogRecord) -> bool:
        return "Failed to hash the schemas" not in record.getMessage()


# attach to the emitting module logger — logging filters do not
# propagate down from parent loggers
_logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow"
).addFilter(_SchemaHashNoise())

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
