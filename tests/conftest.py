import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture
def on_pool(monkeypatch):
    """Send dense distributed graphs' MIS and coloring onto the shard
    pool (the driver-kernel edge limit drops below every graph); returns
    the list of pools that ran ``jp_setup``."""
    import centrality_gpu_ray.pipelines.graph as graph_mod
    from centrality_gpu_ray.pipelines.shards import ShardPool

    monkeypatch.setattr(graph_mod, "DRIVER_KERNEL_EDGES", -1)
    pools = []
    setup = ShardPool.jp_setup

    def spy(self, *args, **kwargs):
        pools.append(self)
        return setup(self, *args, **kwargs)

    monkeypatch.setattr(ShardPool, "jp_setup", spy)
    return pools
