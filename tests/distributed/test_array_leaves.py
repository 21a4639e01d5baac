"""A cluster of ``fx-tm-array`` leaves answers as one centralized ``fx-tm``.

The request-path benchmark's cluster runs Yahoo-twin subscriptions on
``ArrayTopKMatcher`` leaves with replication 2 and prorated scoring.
These tests run that configuration at a smaller size, on both backends,
and compare every batched answer with a centralized reference engine:
sids, order, and scores with ``==``.  Leaves hold about 750
subscriptions each, so ranged stabs reach the numpy branch's cutoff.

Events carry no weight overrides: an override gives every candidate the
same weight, and a tie at the k-th score can keep a different sid in
the merged answer than in the centralized one (the same happens with
``fx-tm`` leaves).
"""

import random

import pytest

from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.matcher import FXTMMatcher
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.faults import FaultPlan
from repro.structures.soa import numpy_available
from repro.workloads.yahoo import YahooWorkload, YahooWorkloadConfig

LEAVES = 4
K = 10
BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy not importable"),
    ),
]


@pytest.fixture(scope="module")
def workload():
    twin = YahooWorkload(YahooWorkloadConfig(n=1500))
    subscriptions = twin.subscriptions()
    pool = twin.events(12)
    rng = random.Random(7)
    # Hot events repeat inside each batch, so the leaves' probe caches hit.
    batches = [[rng.choice(pool) for _ in range(12)] for _ in range(3)]
    return subscriptions, batches


def _oracle(subscriptions):
    reference = FXTMMatcher(schema=YahooWorkload.schema(), prorate=True)
    for subscription in subscriptions:
        reference.add_subscription(subscription)
    return reference


def _cluster(subscriptions, backend, replication):
    cluster = DistributedTopKSystem(
        lambda: ArrayTopKMatcher(
            backend=backend, schema=YahooWorkload.schema(), prorate=True
        ),
        node_count=LEAVES,
        replication_factor=replication,
    )
    cluster.add_subscriptions(subscriptions)
    for node in cluster.nodes:
        node.matcher.ensure_built()
    return cluster


def _assert_bitwise(ours, theirs):
    assert ours == theirs
    for mine, reference in zip(ours, theirs):
        assert [r.sid for r in mine] == [r.sid for r in reference]
        assert [r.score for r in mine] == [r.score for r in reference]


@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_equal_centralized_fxtm(workload, backend):
    subscriptions, batches = workload
    cluster = _cluster(subscriptions, backend, replication=2)
    assert all(node.matcher.backend == backend for node in cluster.nodes)
    oracle = _oracle(subscriptions)
    for batch in batches:
        outcome = cluster.match_batch(batch, K)
        assert outcome.coverage == 1.0
        assert not outcome.degraded
        _assert_bitwise(outcome.results, [oracle.match(event, K) for event in batch])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("down", [0, LEAVES - 1])
def test_one_leaf_down_keeps_full_coverage_at_replication_two(workload, backend, down):
    subscriptions, batches = workload
    cluster = _cluster(subscriptions, backend, replication=2)
    oracle = _oracle(subscriptions)
    batch = batches[0]
    outcome = cluster.match_batch(batch, K, faults=FaultPlan(crashed={down}))
    assert outcome.failed_leaves == [down]
    assert outcome.coverage == 1.0
    _assert_bitwise(outcome.results, [oracle.match(event, K) for event in batch])


@pytest.mark.parametrize("backend", BACKENDS)
def test_coverage_is_the_reachable_fraction_at_replication_one(workload, backend):
    subscriptions, batches = workload
    cluster = _cluster(subscriptions, backend, replication=1)
    down = 1
    cluster.crash_leaf(down)
    reachable = [s for s in subscriptions if cluster.owners_of(s.sid) != [down]]
    assert 0 < len(reachable) < len(subscriptions)
    batch = batches[1]
    outcome = cluster.match_batch(batch, K)
    assert outcome.degraded
    assert outcome.coverage == len(reachable) / len(subscriptions)
    # The survivors' partial top-k sets still merge exactly.
    oracle = _oracle(reachable)
    _assert_bitwise(outcome.results, [oracle.match(event, K) for event in batch])
    # A single-event match reports the same coverage.
    assert cluster.match(batch[0], K).coverage == outcome.coverage
