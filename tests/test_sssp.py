"""Weighted SSSP: hand-derived golden + mode agreement."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from centrality_gpu_ray.config import EngineConfig
from centrality_gpu_ray.pipelines.graph import Graph
from centrality_gpu_ray.pipelines.sssp import sssp

# weighted diamond + a pendant + an unreachable pair:
#   0-1 (w 4), 0-2 (w 1), 2-1 (w 1), 1-3 (w 2), 2-3 (w 7), 3-4 (w 1)
#   separate component: 10-11 (w 5)
_EDGES = [(0, 1, 4), (0, 2, 1), (1, 2, 1), (1, 3, 2), (2, 3, 7), (3, 4, 1),
          (10, 11, 5)]
# shortest from 0: 0, min(4, 1+1)=2, 1, 2+2=4, 5; unreachable -1
_GOLDEN = {0: 0, 1: 2, 2: 1, 3: 4, 4: 5, 10: -1, 11: -1}


def _graph(mode="auto", **kw):
    tbl = pa.table({
        "src": pa.array([e[0] for e in _EDGES], type=pa.int64()),
        "dst": pa.array([e[1] for e in _EDGES], type=pa.int64()),
        "weight": pa.array([e[2] for e in _EDGES], type=pa.int64()),
    })
    cfg = EngineConfig(**kw) if kw else None
    return Graph(ray.data.from_arrow(tbl), config=cfg, mode=mode)


@pytest.mark.parametrize("mode", ["local", "distributed"])
def test_sssp_golden(mode):
    g = _graph(mode=mode)
    m = {}
    t = sssp(g, 0, metrics=m).to_pandas()
    got = dict(zip(t["node"].astype(int), t["distance"].astype(int)))
    assert got == _GOLDEN, (mode, got)
    assert m["reached"] == 5


def test_sssp_unknown_source_raises():
    with pytest.raises(ValueError):
        sssp(_graph(), 999)
