"""Shared cluster fixtures: real ``backdroid serve`` subprocesses.

The heavy lifting lives in :class:`harness.ClusterHarness` (also used
by ``scripts/ci_cluster_smoke.py`` and
``benchmarks/bench_cluster_scaling.py``); the fixture's job is
guaranteed teardown — every harness a test starts is stopped (with
SIGKILL escalation) even when the test body raises.
"""

import pytest

from harness import ClusterHarness


@pytest.fixture
def cluster_factory(tmp_path):
    """Start N-node clusters over a shared store; always torn down.

    Usage::

        harness = cluster_factory(nodes=3, lease_ttl=2.0)
    """
    harnesses = []

    def factory(nodes=2, store_dir=None, **kwargs):
        harness = ClusterHarness(
            store_dir if store_dir is not None else tmp_path / "store",
            nodes=nodes,
            **kwargs,
        )
        harnesses.append(harness)
        harness.start()
        return harness

    yield factory
    for harness in harnesses:
        harness.stop()
