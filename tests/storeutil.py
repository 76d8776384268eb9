"""Settled object-store usage, for tests that check a call leaves
nothing behind in the Ray object store."""

import time


def store_bytes() -> int:
    """Object-store bytes in use across the cluster, as the autoscaler
    reports them."""
    import ray
    from ray.autoscaler.v2.sdk import get_cluster_status

    status = get_cluster_status(ray.get_runtime_context().gcs_address)
    for usage in status.cluster_resource_usage:
        if usage.resource_name == "object_store_memory":
            return int(usage.used)
    return 0


def settled_store_bytes(limit: float = 10.0) -> int:
    """Object-store bytes once three half-second polls agree."""
    last, same, t_end = None, 0, time.monotonic() + limit
    while time.monotonic() < t_end:
        cur = store_bytes()
        same = same + 1 if cur == last else 0
        if same == 2:
            break
        last = cur
        time.sleep(0.5)
    return cur
