"""The distributed top-k system (paper Figure 2, sections 6.2 and 7.8).

``DistributedTopKSystem`` wires together:

* a set of :class:`~repro.distributed.node.MatcherNode` leaves, each with
  a local matcher over a partition of the subscriptions ("We use a
  simple script on the LOOM controller to distribute subscriptions evenly
  amongst nodes");
* a LOOM-style :class:`~repro.distributed.overlay.AggregationTree` with
  fanout 3 (or the heuristic optimum);
* the controller, which "receives events for the system and forwards each
  event to every local controller", then collects the aggregated top-k.

Timing is a hybrid of measurement and simulation, as documented in
DESIGN.md: local matching and merge computations run for real and are
measured with ``perf_counter``; event dissemination and every
result-forwarding hop follow the :class:`LatencyModel`.  The end-to-end
latency obeys the natural completion-time recurrence — an internal node
finishes when its *slowest* child's results have arrived and been merged,
which is why the paper observes BE*'s higher local variance inflating its
aggregation times.

On top of the paper's healthy-overlay simulation sits the fault-tolerance
subsystem (docs/fault_tolerance.md): deterministic fault injection
(:mod:`repro.distributed.faults`), heartbeat/suspicion failure detection
(:mod:`repro.distributed.health`), replicated placement surviving
``r - 1`` leaf failures (:mod:`repro.distributed.replication`), hop retry
with exponential backoff under a per-match deadline
(:class:`~repro.distributed.network.RetryPolicy`), and leaf recovery from
snapshots or surviving replicas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.core.events import Event
from repro.core.results import MatchResult
from repro.core.snapshot import restore_into, save_matcher
from repro.core.subscriptions import Subscription
from repro.distributed.faults import FaultInjector, FaultPlan, MatchFaults
from repro.distributed.health import HealthTracker
from repro.distributed.merge import merge_topk
from repro.distributed.network import LatencyModel, RetryPolicy
from repro.distributed.node import MatcherFactory, MatcherNode
from repro.distributed.overlay import AggregationTree, OverlayNode
from repro.distributed.placement import PlacementStrategy
from repro.distributed.replication import ReplicatedPlacement
from repro.errors import OverlayError, RecoveryError, UnknownSubscriptionError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "DistributedBatchOutcome",
    "DistributedMatchOutcome",
    "DistributedTopKSystem",
    "RecoveryReport",
]


@dataclass
class DistributedMatchOutcome:
    """Everything the simulation records about one distributed match."""

    #: The aggregated system-wide top-k, best first.
    results: List[MatchResult]
    #: Measured wall seconds of each leaf's local match (0.0 for leaves
    #: that contributed nothing this match).
    local_seconds: List[float]
    #: Simulated end-to-end seconds: dissemination + slowest leaf path
    #: (including timeouts and backoffs) + aggregation.
    total_seconds: float
    #: Simulated seconds spent inside the aggregation overlay only.
    aggregation_seconds: float = 0.0
    #: Measured wall seconds spent in merge computations.
    merge_compute_seconds: float = 0.0
    #: Leaves whose results did not reach the root this match (crashed,
    #: flaky past retry budget, past deadline, quarantined, or lost to a
    #: dropped aggregation hop).
    failed_leaves: List[int] = field(default_factory=list)
    #: Fraction of registered subscriptions with at least one replica on
    #: a leaf that contributed to this answer.  1.0 means the answer is
    #: exactly what a healthy centralized matcher would return.
    coverage: float = 1.0
    #: Re-attempts made anywhere (dissemination, leaf, aggregation hops).
    retries_attempted: int = 0
    #: Attempts that ended in a simulated timeout anywhere in the overlay.
    hops_timed_out: int = 0
    #: Leaves skipped outright because the health tracker had them
    #: quarantined when the match started.
    quarantined_leaves: List[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether any registered subscription was unreachable."""
        return self.coverage < 1.0

    @property
    def mean_local_seconds(self) -> float:
        """Average leaf matching time over *contributing* leaves.

        Failed leaves' zeroed entries are excluded — averaging them in
        would bias the paper's "local" series downward whenever failures
        are injected.
        """
        live = self._live_local_seconds()
        return sum(live) / len(live) if live else 0.0

    @property
    def max_local_seconds(self) -> float:
        """Slowest contributing leaf — the one aggregation waits for."""
        live = self._live_local_seconds()
        return max(live) if live else 0.0

    def _live_local_seconds(self) -> List[float]:
        dead = set(self.failed_leaves)
        return [
            seconds
            for leaf, seconds in enumerate(self.local_seconds)
            if leaf not in dead
        ]


@dataclass
class DistributedBatchOutcome:
    """Everything recorded about one distributed *batched* match.

    The batch ships whole: one dissemination hop per leaf and one hop
    per aggregation edge carry every event's data, so the per-hop
    retry/timeout/backoff machinery is paid once per batch instead of
    once per event.  Failure granularity is therefore the batch — a leaf
    that times out contributes to no event of the batch.
    """

    #: Per-event aggregated top-k, in request order.
    results: List[List[MatchResult]]
    #: Measured wall seconds of each leaf's local *batched* match (0.0
    #: for leaves that contributed nothing).
    local_seconds: List[float]
    #: Simulated end-to-end seconds for the whole batch.
    total_seconds: float
    #: Simulated seconds spent inside the aggregation overlay only.
    aggregation_seconds: float = 0.0
    #: Measured wall seconds spent in merge computations.
    merge_compute_seconds: float = 0.0
    #: Leaves whose results did not reach the root this batch.
    failed_leaves: List[int] = field(default_factory=list)
    #: Fraction of registered subscriptions reachable this batch.
    coverage: float = 1.0
    #: Re-attempts made anywhere (dissemination, leaf, aggregation hops).
    retries_attempted: int = 0
    #: Attempts that ended in a simulated timeout anywhere in the overlay.
    hops_timed_out: int = 0
    #: Leaves skipped because they were quarantined at batch start.
    quarantined_leaves: List[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether any registered subscription was unreachable."""
        return self.coverage < 1.0

    @property
    def events(self) -> int:
        """Number of events in the batch."""
        return len(self.results)


@dataclass
class RecoveryReport:
    """What :meth:`DistributedTopKSystem.recover_leaf` accomplished."""

    leaf_id: int
    #: Subscriptions restored from the snapshot file.
    restored_from_snapshot: int = 0
    #: Subscriptions copied over from surviving replicas.
    copied_from_replicas: int = 0
    #: Sids that were owned by the leaf but could not be recovered from
    #: either source; they are dropped from the cluster's ownership map.
    lost: List[Any] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return self.restored_from_snapshot + self.copied_from_replicas


class _ClusterMetrics:
    """The cluster's metric handles, registered once per registry.

    Names and semantics are catalogued in docs/observability.md; the
    ``stage`` label separates the dissemination/leaf path ("leaf") from
    the aggregation overlay ("aggregation").
    """

    __slots__ = (
        "matches",
        "batch_events",
        "degraded",
        "retries",
        "timeouts",
        "failed_leaves",
        "match_seconds",
        "coverage",
        "local_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.matches = registry.counter(
            "repro_distributed_matches_total", "distributed matches served"
        )
        self.batch_events = registry.counter(
            "repro_distributed_batch_events_total",
            "events served through distributed batched matches",
        )
        self.degraded = registry.counter(
            "repro_degraded_matches_total",
            "distributed matches answered with coverage below 1.0",
        )
        self.retries = registry.counter(
            "repro_retries_total", "hop re-attempts by stage", labels=("stage",)
        )
        self.timeouts = registry.counter(
            "repro_hop_timeouts_total",
            "simulated hop timeouts by stage",
            labels=("stage",),
        )
        self.failed_leaves = registry.counter(
            "repro_failed_leaf_matches_total",
            "leaf contributions lost to crashes, flakiness, or deadlines",
        )
        self.match_seconds = registry.histogram(
            "repro_distributed_match_seconds",
            "simulated end-to-end seconds per distributed match",
        )
        self.coverage = registry.histogram(
            "repro_match_coverage",
            "fraction of subscriptions reachable per match",
            buckets=(0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
        )
        self.local_seconds = registry.histogram(
            "repro_leaf_local_seconds",
            "measured wall seconds of contributing leaves' local matches",
        )


class DistributedTopKSystem:
    """FX-TM (or any matcher) distributed over a simulated LOOM overlay.

    ``replication_factor`` places every subscription on that many
    distinct leaves (capped at the node count), so the answer stays
    complete under any ``replication_factor - 1`` concurrent leaf
    failures.  ``faults`` attaches a deterministic
    :class:`~repro.distributed.faults.FaultPlan` (or a pre-built
    :class:`~repro.distributed.faults.FaultInjector`); ``retry`` and
    ``health`` configure the reaction to misbehaving leaves.

    >>> from repro import FXTMMatcher
    >>> system = DistributedTopKSystem(lambda: FXTMMatcher(), node_count=9)
    >>> system.overlay.depth
    3
    """

    def __init__(
        self,
        matcher_factory: MatcherFactory,
        node_count: int,
        fanout: int = 3,
        latency: Optional[LatencyModel] = None,
        placement: Optional[PlacementStrategy] = None,
        replication_factor: int = 1,
        faults: Union[FaultPlan, FaultInjector, None] = None,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthTracker] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Any] = None,
        logger: Optional[Any] = None,
        exemplars: Optional[Any] = None,
    ) -> None:
        if node_count < 1:
            raise OverlayError(f"node_count must be >= 1, got {node_count}")
        self._matcher_factory = matcher_factory
        self.nodes = [MatcherNode(index, matcher_factory()) for index in range(node_count)]
        self.overlay = AggregationTree(node_count, fanout=fanout)
        self.latency = latency or LatencyModel()
        self.replication = ReplicatedPlacement(replication_factor, base=placement)
        self.retry = retry or RetryPolicy()
        self.health = health or HealthTracker(node_count)
        #: Cluster-wide metrics registry; always present so counters can
        #: be scraped even when no registry was supplied.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Optional :class:`repro.obs.tracing.Tracer`; when set, every
        #: match produces a ``distributed.match`` trace tree covering
        #: dispatch, retries, backoffs, local matching, and aggregation.
        self.tracer = tracer
        #: Optional :class:`repro.obs.logging.StructuredLogger` for
        #: runtime events (crashes, recoveries, degraded matches).
        self.logger = logger.child(component="cluster") if logger is not None else None
        #: Optional :class:`repro.obs.exemplars.ExemplarStore`: slow
        #: matches (simulated total) and every degraded match retain
        #: their ``distributed.match`` trace tree (tracer required for
        #: the tree; latencies are observed regardless).
        self.exemplars = exemplars
        self._metrics = _ClusterMetrics(self.registry)
        self.health.bind_observability(registry=self.registry, logger=logger)
        self.fault_injector = (
            FaultInjector(faults, logger=logger)
            if isinstance(faults, FaultPlan)
            else faults
        )
        if self.logger is not None:
            self.logger.info(
                "cluster.configured",
                node_count=node_count,
                fanout=fanout,
                replication_factor=self.replication.factor,
                retry=self.retry.as_dict(),
                latency=self.latency.as_dict(),
            )
        self._owner_of: Dict[Any, List[int]] = {}
        #: Leaves the cluster itself knows are down (``crash_leaf``),
        #: independent of any injected fault plan.
        self._down: Set[int] = set()
        #: Simulated time accumulated across matches; drives failure
        #: detection timeouts and quarantine re-admission.
        self.simulated_clock = 0.0

    @property
    def placement(self) -> PlacementStrategy:
        """The base (primary-replica) placement strategy."""
        return self.replication.base

    @property
    def replication_factor(self) -> int:
        return self.replication.factor

    # ------------------------------------------------------------------
    # Subscription distribution
    # ------------------------------------------------------------------
    def add_subscription(self, subscription: Subscription) -> int:
        """Place one subscription on ``replication_factor`` leaves.

        Returns the primary owner's node id.
        """
        owners = self.replication.place_replicas(subscription, len(self.nodes))
        for node_id in owners:
            self.nodes[node_id].matcher.add_subscription(subscription)
        self._owner_of[subscription.sid] = owners
        return owners[0]

    def add_subscriptions(self, subscriptions: Sequence[Subscription]) -> None:
        """Distribute subscriptions across leaves (round-robin default)."""
        for subscription in subscriptions:
            self.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> None:
        """Remove a subscription from every replica.

        Raises :class:`~repro.errors.UnknownSubscriptionError` when absent.
        """
        owners = self._owner_of.pop(sid, None)
        if owners is None:
            raise UnknownSubscriptionError(sid)
        for node_id in owners:
            # A crashed-and-wiped leaf no longer holds the sid; the
            # cancellation must still succeed on the survivors.
            if sid in self.nodes[node_id].matcher:
                self.nodes[node_id].cancel_subscription(sid)
        self.replication.forget(sid, owners[0])

    def owners_of(self, sid: Any) -> List[int]:
        """The leaves currently holding ``sid`` (primary first)."""
        try:
            return list(self._owner_of[sid])
        except KeyError:
            raise UnknownSubscriptionError(sid) from None

    def __len__(self) -> int:
        """Distinct registered subscriptions (replicas counted once)."""
        return len(self._owner_of)

    def replica_count(self) -> int:
        """Total stored copies across all leaves (>= ``len(self)``)."""
        return sum(len(node) for node in self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(
        self,
        event: Event,
        k: int,
        faults: Union[FaultPlan, FaultInjector, None] = None,
    ) -> DistributedMatchOutcome:
        """Match one event across the cluster.

        Local matches and merges execute for real (sequentially here, but
        timed individually so the simulation can account them as
        parallel); hops follow the latency model.

        ``faults`` overrides the system-level fault injector for this
        call (a :class:`FaultPlan` gets a fresh injector, so the same
        plan always produces the same outcome).  A per-call plan is a
        *what-if* injection: it does not feed the health tracker, so it
        cannot quarantine leaves or otherwise leak state into later
        matches — only the system-level injector (and real crashes via
        :meth:`crash_leaf`) drive failure detection.  Leaves that are
        crashed,
        flaky past the retry budget, slower than the per-match deadline,
        or quarantined by the health tracker contribute nothing; the
        outcome's :attr:`~DistributedMatchOutcome.coverage` reports the
        fraction of subscriptions that remained reachable through some
        replica, and :attr:`~DistributedMatchOutcome.degraded` is set
        exactly when coverage dropped below 1.0.  Timeouts, retries, and
        exponential backoff all accrue to the simulated latency.
        """
        view = self._fault_view(faults)
        record_health = faults is None
        rng = self.latency.rng()
        policy = self.retry
        now = self.simulated_clock
        counters = {"retries": 0, "timeouts": 0, "agg_retries": 0, "agg_timeouts": 0}
        tracer = self.tracer
        root_span = (
            tracer.begin("distributed.match", k=k, nodes=len(self.nodes))
            if tracer is not None
            else None
        )
        try:
            partials: List[List[MatchResult]] = []
            ready_at: List[float] = []
            local_seconds: List[float] = []
            delivered: Set[int] = set()
            quarantined: List[int] = []
            event_size = event.size

            for node in self.nodes:
                leaf = node.node_id
                probing = False
                if self.health.is_quarantined(leaf):
                    if self.health.probe_due(leaf, now):
                        probing = True
                    else:
                        quarantined.append(leaf)
                        partials.append([])
                        local_seconds.append(0.0)
                        ready_at.append(0.0)
                        if tracer is not None:
                            tracer.record(
                                "leaf.quarantined", 0.0, leaf=leaf, simulated=True
                            )
                        continue
                if tracer is not None:
                    with tracer.span("leaf.dispatch", leaf=leaf, probe=probing) as leaf_span:
                        results, elapsed, ready, success = self._attempt_leaf(
                            node, event, k, event_size, rng, view, policy, now,
                            counters, single_attempt=probing,
                            record_health=record_health,
                        )
                        leaf_span.annotate(
                            outcome="delivered" if success else "failed",
                            simulated=True,
                        )
                        leaf_span.set_duration(ready)
                else:
                    results, elapsed, ready, success = self._attempt_leaf(
                        node, event, k, event_size, rng, view, policy, now,
                        counters, single_attempt=probing, record_health=record_health,
                    )
                partials.append(results)
                local_seconds.append(elapsed)
                ready_at.append(ready)
                if success:
                    delivered.add(leaf)

            merge_compute = [0.0]
            root_results, root_time = self._aggregate(
                self.overlay.root, partials, ready_at, k, rng, merge_compute,
                delivered, view, policy, counters,
            )
            # Root -> controller: final hop with the aggregated results.
            final_hop = self.latency.hop(len(root_results), rng)
            total = root_time + final_hop
            if tracer is not None:
                tracer.record(
                    "root.hop", final_hop, results=len(root_results), simulated=True
                )
            slowest_path = max(ready_at) if ready_at else 0.0
            outcome = DistributedMatchOutcome(
                results=root_results,
                local_seconds=local_seconds,
                total_seconds=total,
                aggregation_seconds=total - slowest_path,
                merge_compute_seconds=merge_compute[0],
                failed_leaves=sorted(set(range(len(self.nodes))) - delivered),
                coverage=self._coverage(delivered),
                retries_attempted=counters["retries"] + counters["agg_retries"],
                hops_timed_out=counters["timeouts"] + counters["agg_timeouts"],
                quarantined_leaves=quarantined,
            )
        finally:
            if tracer is not None:
                tracer.end()
        if root_span is not None:
            root_span.annotate(
                coverage=outcome.coverage,
                degraded=outcome.degraded,
                retries=outcome.retries_attempted,
                failed_leaves=outcome.failed_leaves,
                simulated=True,
            )
            root_span.set_duration(total)
        if self.exemplars is not None:
            self.exemplars.offer(
                root_span,
                total,
                degraded=outcome.degraded,
                coverage=outcome.coverage,
                simulated=True,
            )
        self._record_match_metrics(outcome, counters)
        self.simulated_clock += total
        return outcome

    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        faults: Union[FaultPlan, FaultInjector, None] = None,
    ) -> DistributedBatchOutcome:
        """Match a batch of events across the cluster in one pass.

        The whole batch ships to each leaf in *one* dissemination hop
        (payload: the summed event sizes) and each aggregation edge
        carries every event's partials in *one* hop — so the retry
        policy's timeouts and backoffs, the hop latencies, and the
        tracer's bookkeeping are paid once per batch instead of once per
        event.  Each leaf runs its local ``match_batch`` (probe caching
        included); per-event results are then merged via ``merge_topk``
        exactly as ``len(events)`` single matches would have been.

        ``faults`` behaves as in :meth:`match`: a per-call plan is a
        what-if injection that does not feed the health tracker.
        """
        view = self._fault_view(faults)
        record_health = faults is None
        rng = self.latency.rng()
        policy = self.retry
        now = self.simulated_clock
        counters = {"retries": 0, "timeouts": 0, "agg_retries": 0, "agg_timeouts": 0}
        tracer = self.tracer
        root_span = (
            tracer.begin(
                "distributed.match_batch",
                k=k, nodes=len(self.nodes), batch=len(events),
            )
            if tracer is not None
            else None
        )
        try:
            partials: List[List[List[MatchResult]]] = []
            ready_at: List[float] = []
            local_seconds: List[float] = []
            delivered: Set[int] = set()
            quarantined: List[int] = []
            payload = sum(event.size for event in events)

            for node in self.nodes:
                leaf = node.node_id
                probing = False
                if self.health.is_quarantined(leaf):
                    if self.health.probe_due(leaf, now):
                        probing = True
                    else:
                        quarantined.append(leaf)
                        partials.append([[] for _ in events])
                        local_seconds.append(0.0)
                        ready_at.append(0.0)
                        if tracer is not None:
                            tracer.record(
                                "leaf.quarantined", 0.0, leaf=leaf, simulated=True
                            )
                        continue
                if tracer is not None:
                    with tracer.span("leaf.dispatch", leaf=leaf, probe=probing) as leaf_span:
                        batches, elapsed, ready, success = self._attempt_leaf_batch(
                            node, events, k, payload, rng, view, policy, now,
                            counters, single_attempt=probing,
                            record_health=record_health,
                        )
                        leaf_span.annotate(
                            outcome="delivered" if success else "failed",
                            simulated=True,
                        )
                        leaf_span.set_duration(ready)
                else:
                    batches, elapsed, ready, success = self._attempt_leaf_batch(
                        node, events, k, payload, rng, view, policy, now,
                        counters, single_attempt=probing, record_health=record_health,
                    )
                partials.append(batches)
                local_seconds.append(elapsed)
                ready_at.append(ready)
                if success:
                    delivered.add(leaf)

            merge_compute = [0.0]
            root_results, root_time = self._aggregate_batch(
                self.overlay.root, partials, ready_at, len(events), k, rng,
                merge_compute, delivered, view, policy, counters,
            )
            # Root -> controller: one final hop with every event's results.
            final_hop = self.latency.hop(
                sum(len(results) for results in root_results), rng
            )
            total = root_time + final_hop
            if tracer is not None:
                tracer.record(
                    "root.hop", final_hop,
                    results=sum(len(results) for results in root_results),
                    simulated=True,
                )
            slowest_path = max(ready_at) if ready_at else 0.0
            outcome = DistributedBatchOutcome(
                results=root_results,
                local_seconds=local_seconds,
                total_seconds=total,
                aggregation_seconds=total - slowest_path,
                merge_compute_seconds=merge_compute[0],
                failed_leaves=sorted(set(range(len(self.nodes))) - delivered),
                coverage=self._coverage(delivered),
                retries_attempted=counters["retries"] + counters["agg_retries"],
                hops_timed_out=counters["timeouts"] + counters["agg_timeouts"],
                quarantined_leaves=quarantined,
            )
        finally:
            if tracer is not None:
                tracer.end()
        if root_span is not None:
            root_span.annotate(
                coverage=outcome.coverage,
                degraded=outcome.degraded,
                retries=outcome.retries_attempted,
                failed_leaves=outcome.failed_leaves,
                simulated=True,
            )
            root_span.set_duration(total)
        if self.exemplars is not None:
            self.exemplars.offer(
                root_span,
                total,
                degraded=outcome.degraded,
                coverage=outcome.coverage,
                batch=len(events),
                simulated=True,
            )
        self._record_batch_metrics(outcome, counters)
        self.simulated_clock += total
        return outcome

    def _record_match_metrics(
        self, outcome: DistributedMatchOutcome, counters: Dict[str, int]
    ) -> None:
        self._metrics.matches.inc()
        self._record_overlay_metrics(outcome, counters)

    def _record_batch_metrics(
        self, outcome: DistributedBatchOutcome, counters: Dict[str, int]
    ) -> None:
        self._metrics.batch_events.inc(outcome.events)
        self._record_overlay_metrics(outcome, counters)

    def _record_overlay_metrics(
        self,
        outcome: Union[DistributedMatchOutcome, DistributedBatchOutcome],
        counters: Dict[str, int],
    ) -> None:
        """The overlay-health metrics shared by single and batched matches."""
        metrics = self._metrics
        if outcome.degraded:
            metrics.degraded.inc()
            if self.logger is not None:
                self.logger.warning(
                    "match.degraded",
                    coverage=round(outcome.coverage, 6),
                    failed_leaves=outcome.failed_leaves,
                    quarantined=outcome.quarantined_leaves,
                )
        if counters["retries"]:
            metrics.retries.labels(stage="leaf").inc(counters["retries"])
        if counters["agg_retries"]:
            metrics.retries.labels(stage="aggregation").inc(counters["agg_retries"])
        if counters["timeouts"]:
            metrics.timeouts.labels(stage="leaf").inc(counters["timeouts"])
        if counters["agg_timeouts"]:
            metrics.timeouts.labels(stage="aggregation").inc(counters["agg_timeouts"])
        if outcome.failed_leaves:
            metrics.failed_leaves.inc(len(outcome.failed_leaves))
        metrics.match_seconds.observe(outcome.total_seconds)
        metrics.coverage.observe(outcome.coverage)
        failed = set(outcome.failed_leaves)
        for leaf, seconds in enumerate(outcome.local_seconds):
            if leaf not in failed and seconds > 0.0:
                metrics.local_seconds.observe(seconds)

    def _fault_view(
        self, faults: Union[FaultPlan, FaultInjector, None]
    ) -> Optional[MatchFaults]:
        if faults is None:
            injector = self.fault_injector
        elif isinstance(faults, FaultPlan):
            injector = FaultInjector(faults)
        else:
            injector = faults
        view = injector.begin_match() if injector is not None else None
        if view is not None:
            for leaf in view.plan.leaves_mentioned():
                if not 0 <= leaf < len(self.nodes):
                    raise OverlayError(
                        f"fault plan mentions leaf {leaf} outside [0, {len(self.nodes)})"
                    )
        return view

    def _leaf_down(self, leaf: int, view: Optional[MatchFaults]) -> bool:
        if leaf in self._down:
            return True
        return view is not None and view.leaf_down(leaf)

    def _attempt_leaf(
        self,
        node: MatcherNode,
        event: Event,
        k: int,
        event_size: int,
        rng,
        view: Optional[MatchFaults],
        policy: RetryPolicy,
        now: float,
        counters: Dict[str, int],
        single_attempt: bool,
        record_health: bool,
    ) -> "tuple[List[MatchResult], float, float, bool]":
        """Try one leaf with retries; returns (results, elapsed, ready, ok).

        ``ready`` is the simulated moment (relative to match start) the
        leaf's answer — or its abandonment — is known to the overlay.
        """
        leaf = node.node_id
        tracer = self.tracer
        clock = 0.0
        max_attempts = 1 if single_attempt else policy.max_attempts
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                backoff = policy.backoff(attempt - 1)
                clock += backoff
                counters["retries"] += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.backoff", backoff,
                        leaf=leaf, attempt=attempt, simulated=True,
                    )
            hop = self.latency.hop(event_size, rng)
            failure = None
            if view is not None and view.hop_dropped(("dis", leaf), attempt):
                failure = policy.timeout_seconds
            elif self._leaf_down(leaf, view):
                failure = hop + policy.timeout_seconds
            elif view is not None and view.flaky_failure(leaf, attempt):
                failure = hop + policy.timeout_seconds
            if failure is not None:
                clock += failure
                counters["timeouts"] += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.attempt", failure,
                        leaf=leaf, attempt=attempt, outcome="timeout",
                        simulated=True,
                    )
                if record_health:
                    self.health.record_timeout(leaf, now + clock)
                if clock >= policy.deadline_seconds:
                    break
                continue
            results, elapsed = node.match_timed(event, k)
            factor = view.straggle_factor(leaf) if view is not None else 1.0
            ready = clock + hop + elapsed * factor
            # The deadline is modelled time; ``elapsed`` is measured
            # compute, whose absolute scale depends on the machine (and
            # on cold index builds).  Only waiting the overlay injects —
            # retries, hops, and a straggler's excess over its own
            # healthy compute — counts against the deadline, so a
            # slow-but-healthy leaf is never abandoned.
            if ready - elapsed > policy.deadline_seconds:
                # The (straggling) answer arrives too late to be waited
                # for: the overlay gives up at the deadline.
                counters["timeouts"] += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.attempt", policy.deadline_seconds - clock,
                        leaf=leaf, attempt=attempt, outcome="abandoned",
                        straggle_factor=factor, simulated=True,
                    )
                if record_health:
                    self.health.record_timeout(leaf, now + policy.deadline_seconds)
                return [], 0.0, policy.deadline_seconds, False
            if tracer is not None:
                tracer.record("leaf.hop", hop, leaf=leaf, attempt=attempt, simulated=True)
                tracer.record(
                    "leaf.local_match", elapsed * factor,
                    leaf=leaf, results=len(results), measured_seconds=elapsed,
                    straggle_factor=factor,
                )
            if record_health:
                self.health.record_success(leaf, now + ready)
            return results, elapsed, ready, True
        return [], 0.0, min(clock, policy.deadline_seconds), False

    def _attempt_leaf_batch(
        self,
        node: MatcherNode,
        events: Sequence[Event],
        k: int,
        payload: int,
        rng,
        view: Optional[MatchFaults],
        policy: RetryPolicy,
        now: float,
        counters: Dict[str, int],
        single_attempt: bool,
        record_health: bool,
    ) -> "tuple[List[List[MatchResult]], float, float, bool]":
        """The batched twin of :meth:`_attempt_leaf`.

        One dissemination hop ships the whole batch (``payload`` summed
        event sizes), so each retry/timeout/backoff is paid once per
        batch.  Returns ``(per-event results, elapsed, ready, ok)``; a
        failed leaf contributes empty results for *every* event.
        """
        leaf = node.node_id
        tracer = self.tracer
        clock = 0.0
        nothing: List[List[MatchResult]] = [[] for _ in events]
        max_attempts = 1 if single_attempt else policy.max_attempts
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                backoff = policy.backoff(attempt - 1)
                clock += backoff
                counters["retries"] += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.backoff", backoff,
                        leaf=leaf, attempt=attempt, simulated=True,
                    )
            hop = self.latency.hop(payload, rng)
            failure = None
            if view is not None and view.hop_dropped(("dis", leaf), attempt):
                failure = policy.timeout_seconds
            elif self._leaf_down(leaf, view):
                failure = hop + policy.timeout_seconds
            elif view is not None and view.flaky_failure(leaf, attempt):
                failure = hop + policy.timeout_seconds
            if failure is not None:
                clock += failure
                counters["timeouts"] += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.attempt", failure,
                        leaf=leaf, attempt=attempt, outcome="timeout",
                        simulated=True,
                    )
                if record_health:
                    self.health.record_timeout(leaf, now + clock)
                if clock >= policy.deadline_seconds:
                    break
                continue
            batches, elapsed = node.match_batch_timed(events, k)
            factor = view.straggle_factor(leaf) if view is not None else 1.0
            ready = clock + hop + elapsed * factor
            # Same deadline model as the single-event path: only overlay
            # waiting counts, a slow-but-healthy leaf is never abandoned.
            if ready - elapsed > policy.deadline_seconds:
                counters["timeouts"] += 1
                if tracer is not None:
                    tracer.record(
                        "leaf.attempt", policy.deadline_seconds - clock,
                        leaf=leaf, attempt=attempt, outcome="abandoned",
                        straggle_factor=factor, simulated=True,
                    )
                if record_health:
                    self.health.record_timeout(leaf, now + policy.deadline_seconds)
                return nothing, 0.0, policy.deadline_seconds, False
            if tracer is not None:
                tracer.record("leaf.hop", hop, leaf=leaf, attempt=attempt, simulated=True)
                tracer.record(
                    "leaf.local_match_batch", elapsed * factor,
                    leaf=leaf, events=len(events),
                    results=sum(len(results) for results in batches),
                    measured_seconds=elapsed, straggle_factor=factor,
                )
            if record_health:
                self.health.record_success(leaf, now + ready)
            return batches, elapsed, ready, True
        return nothing, 0.0, min(clock, policy.deadline_seconds), False

    def _coverage(self, delivered: Set[int]) -> float:
        # Every owner is a leaf index, so when every leaf delivered each
        # sid is reachable; only a fault pays the per-sid count.
        if not self._owner_of or len(delivered) == len(self.nodes):
            return 1.0
        reachable = sum(
            1
            for owners in self._owner_of.values()
            if any(owner in delivered for owner in owners)
        )
        return reachable / len(self._owner_of)

    def _aggregate(
        self,
        node: OverlayNode,
        partials: List[List[MatchResult]],
        ready_at: List[float],
        k: int,
        rng,
        merge_compute: List[float],
        delivered: Set[int],
        view: Optional[MatchFaults],
        policy: RetryPolicy,
        counters: Dict[str, int],
    ) -> "tuple[List[MatchResult], float]":
        """Returns (results, completion time) for an overlay subtree."""
        if node.is_leaf:
            assert node.leaf_index is not None
            return partials[node.leaf_index], ready_at[node.leaf_index]
        assert node.children
        tracer = self.tracer
        leaves = node.leaf_indices()
        agg_span = (
            tracer.begin("aggregate", leaves=[leaves[0], leaves[-1]])
            if tracer is not None
            else None
        )
        try:
            child_results: List[List[MatchResult]] = []
            arrival = 0.0
            for child in node.children:
                results, done_at = self._aggregate(
                    child, partials, ready_at, k, rng, merge_compute,
                    delivered, view, policy, counters,
                )
                span = child.leaf_indices()
                contributing = delivered.intersection(span)
                if contributing:
                    # Child -> this node: one hop carrying its partial set,
                    # retried with backoff when the wire drops it.
                    edge = ("agg", span[0], span[-1])
                    for attempt in range(1, policy.max_attempts + 1):
                        if view is not None and view.hop_dropped(edge, attempt):
                            done_at += policy.timeout_seconds
                            counters["agg_timeouts"] += 1
                            if tracer is not None:
                                tracer.record(
                                    "aggregation.hop", policy.timeout_seconds,
                                    leaves=[span[0], span[-1]], attempt=attempt,
                                    outcome="dropped", simulated=True,
                                )
                            if attempt >= policy.max_attempts:
                                # Retries exhausted: the whole subtree's
                                # contribution is lost for this match.
                                delivered.difference_update(contributing)
                                results = []
                                break
                            counters["agg_retries"] += 1
                            backoff = policy.backoff(attempt)
                            done_at += backoff
                            if tracer is not None:
                                tracer.record(
                                    "aggregation.backoff", backoff,
                                    leaves=[span[0], span[-1]], attempt=attempt,
                                    simulated=True,
                                )
                            continue
                        hop = self.latency.hop(len(results), rng)
                        done_at += hop
                        if tracer is not None:
                            tracer.record(
                                "aggregation.hop", hop,
                                leaves=[span[0], span[-1]], attempt=attempt,
                                outcome="delivered", results=len(results),
                                simulated=True,
                            )
                        break
                # A non-contributing child still delays its parent by the
                # time spent discovering it had nothing to send (done_at).
                child_results.append(results)
                if done_at > arrival:
                    arrival = done_at
            started = time.perf_counter()
            merged = merge_topk(child_results, k)
            merge_seconds = time.perf_counter() - started
            merge_compute[0] += merge_seconds
            if tracer is not None:
                tracer.record(
                    "merge", merge_seconds,
                    inputs=len(child_results), results=len(merged),
                )
        finally:
            if tracer is not None:
                tracer.end()
        if agg_span is not None:
            agg_span.annotate(completed_at=arrival + merge_seconds, simulated=True)
            agg_span.set_duration(arrival + merge_seconds)
        # Aggregation "has to receive all results to complete" — it starts
        # at the slowest child's arrival.
        return merged, arrival + merge_seconds

    def _aggregate_batch(
        self,
        node: OverlayNode,
        partials: List[List[List[MatchResult]]],
        ready_at: List[float],
        batch_size: int,
        k: int,
        rng,
        merge_compute: List[float],
        delivered: Set[int],
        view: Optional[MatchFaults],
        policy: RetryPolicy,
        counters: Dict[str, int],
    ) -> "tuple[List[List[MatchResult]], float]":
        """The batched twin of :meth:`_aggregate`.

        Each child edge carries *all* of the batch's per-event partial
        sets in one hop; a dropped edge therefore loses the subtree's
        contribution to every event at once.  Returns ``(per-event
        results, completion time)`` for the overlay subtree.
        """
        if node.is_leaf:
            assert node.leaf_index is not None
            return partials[node.leaf_index], ready_at[node.leaf_index]
        assert node.children
        tracer = self.tracer
        leaves = node.leaf_indices()
        agg_span = (
            tracer.begin(
                "aggregate", leaves=[leaves[0], leaves[-1]], batch=batch_size
            )
            if tracer is not None
            else None
        )
        try:
            child_results: List[List[List[MatchResult]]] = []
            arrival = 0.0
            for child in node.children:
                batches, done_at = self._aggregate_batch(
                    child, partials, ready_at, batch_size, k, rng,
                    merge_compute, delivered, view, policy, counters,
                )
                span = child.leaf_indices()
                contributing = delivered.intersection(span)
                if contributing:
                    edge = ("agg", span[0], span[-1])
                    for attempt in range(1, policy.max_attempts + 1):
                        if view is not None and view.hop_dropped(edge, attempt):
                            done_at += policy.timeout_seconds
                            counters["agg_timeouts"] += 1
                            if tracer is not None:
                                tracer.record(
                                    "aggregation.hop", policy.timeout_seconds,
                                    leaves=[span[0], span[-1]], attempt=attempt,
                                    outcome="dropped", simulated=True,
                                )
                            if attempt >= policy.max_attempts:
                                delivered.difference_update(contributing)
                                batches = [[] for _ in range(batch_size)]
                                break
                            counters["agg_retries"] += 1
                            backoff = policy.backoff(attempt)
                            done_at += backoff
                            if tracer is not None:
                                tracer.record(
                                    "aggregation.backoff", backoff,
                                    leaves=[span[0], span[-1]], attempt=attempt,
                                    simulated=True,
                                )
                            continue
                        carried = sum(len(results) for results in batches)
                        hop = self.latency.hop(carried, rng)
                        done_at += hop
                        if tracer is not None:
                            tracer.record(
                                "aggregation.hop", hop,
                                leaves=[span[0], span[-1]], attempt=attempt,
                                outcome="delivered", results=carried,
                                events=batch_size, simulated=True,
                            )
                        break
                child_results.append(batches)
                if done_at > arrival:
                    arrival = done_at
            started = time.perf_counter()
            merged = [
                merge_topk([child[index] for child in child_results], k)
                for index in range(batch_size)
            ]
            merge_seconds = time.perf_counter() - started
            merge_compute[0] += merge_seconds
            if tracer is not None:
                tracer.record(
                    "merge", merge_seconds,
                    inputs=len(child_results), events=batch_size,
                    results=sum(len(results) for results in merged),
                )
        finally:
            if tracer is not None:
                tracer.end()
        if agg_span is not None:
            agg_span.annotate(completed_at=arrival + merge_seconds, simulated=True)
            agg_span.set_duration(arrival + merge_seconds)
        return merged, arrival + merge_seconds

    # ------------------------------------------------------------------
    # Failure and recovery administration
    # ------------------------------------------------------------------
    def save_leaf_snapshot(self, leaf_id: int, path: str) -> int:
        """Persist one leaf's partition via :mod:`repro.core.snapshot`."""
        self._check_leaf(leaf_id)
        return save_matcher(self.nodes[leaf_id].matcher, path)

    def crash_leaf(self, leaf_id: int) -> None:
        """Administratively crash a leaf: its state is lost and the
        health tracker quarantines it immediately.

        Until :meth:`recover_leaf` is called, matches proceed without the
        leaf (no timeout cost — the crash is known, not suspected).
        """
        self._check_leaf(leaf_id)
        self.nodes[leaf_id].matcher = self._matcher_factory()
        self._down.add(leaf_id)
        self.health.quarantine(leaf_id, self.simulated_clock)
        if self.logger is not None:
            self.logger.error(
                "leaf.crashed", leaf=leaf_id, now=self.simulated_clock
            )

    def recover_leaf(self, leaf_id: int, snapshot_path: Optional[str] = None) -> RecoveryReport:
        """Rebuild a failed leaf's partition and re-admit it.

        The partition is reassembled from two sources, in order:

        1. ``snapshot_path`` — a :func:`repro.core.snapshot.save_matcher`
           file (typically written by :meth:`save_leaf_snapshot` before
           the crash); stale entries (sids cancelled or re-placed while
           the leaf was down) are dropped;
        2. surviving replicas — any sid the cluster's ownership map
           assigns to this leaf that the snapshot did not contain is
           copied from another live owner.

        Sids recoverable from neither source are *lost*: they are
        removed from the ownership map (and the report lists them) so
        coverage accounting stays truthful.
        """
        self._check_leaf(leaf_id)
        fresh = self._matcher_factory()
        snapshot_count = 0
        if snapshot_path is not None:
            snapshot_count = restore_into(fresh, snapshot_path)
        # Drop snapshot entries the cluster no longer assigns here.
        for sid in list(fresh.subscriptions):
            owners = self._owner_of.get(sid)
            if owners is None or leaf_id not in owners:
                fresh.cancel_subscription(sid)
                snapshot_count -= 1
        copied = 0
        lost: List[Any] = []
        for sid, owners in list(self._owner_of.items()):
            if leaf_id not in owners or sid in fresh:
                continue
            source = self._surviving_source(sid, owners, exclude=leaf_id)
            if source is None:
                lost.append(sid)
                owners.remove(leaf_id)
                if not owners:
                    del self._owner_of[sid]
                continue
            fresh.add_subscription(
                self.nodes[source].matcher.get_subscription(sid)
            )
            copied += 1
        self.nodes[leaf_id].matcher = fresh
        self._down.discard(leaf_id)
        self.health.readmit(leaf_id, self.simulated_clock)
        if self.logger is not None:
            self.logger.info(
                "leaf.recovered",
                leaf=leaf_id,
                now=self.simulated_clock,
                restored_from_snapshot=snapshot_count,
                copied_from_replicas=copied,
                lost=len(lost),
            )
        return RecoveryReport(
            leaf_id=leaf_id,
            restored_from_snapshot=snapshot_count,
            copied_from_replicas=copied,
            lost=lost,
        )

    def reassign_orphans(self, leaf_id: int) -> "tuple[int, List[Any]]":
        """Re-place a dead leaf's subscriptions onto survivors.

        The alternative to :meth:`recover_leaf` when the leaf is gone for
        good: every sid it owned loses that replica, and — where another
        replica survives — a new copy is placed on the least-loaded live
        leaf not already holding it, restoring the replication degree.
        Returns ``(moved, lost)`` where ``lost`` lists sids with no
        surviving replica anywhere (unrecoverable without a snapshot).

        Raises :class:`~repro.errors.RecoveryError` when there is no
        other live leaf to move subscriptions to.
        """
        self._check_leaf(leaf_id)
        survivors = [
            node.node_id
            for node in self.nodes
            if node.node_id != leaf_id
            and node.node_id not in self._down
            and not self.health.is_quarantined(node.node_id)
        ]
        if not survivors:
            raise RecoveryError(
                f"cannot reassign leaf {leaf_id}'s subscriptions: no live leaves"
            )
        moved = 0
        lost: List[Any] = []
        for sid, owners in list(self._owner_of.items()):
            if leaf_id not in owners:
                continue
            owners.remove(leaf_id)
            source = self._surviving_source(sid, owners, exclude=leaf_id)
            if source is None:
                lost.append(sid)
                del self._owner_of[sid]
                continue
            candidates = [leaf for leaf in survivors if leaf not in owners]
            if candidates:
                target = min(candidates, key=lambda leaf: len(self.nodes[leaf]))
                self.nodes[target].matcher.add_subscription(
                    self.nodes[source].matcher.get_subscription(sid)
                )
                owners.append(target)
                moved += 1
        # The dead leaf's local state is discarded along with its role.
        self.nodes[leaf_id].matcher = self._matcher_factory()
        self._down.add(leaf_id)
        self.health.quarantine(leaf_id, self.simulated_clock)
        if self.logger is not None:
            self.logger.info(
                "leaf.reassigned",
                leaf=leaf_id,
                now=self.simulated_clock,
                moved=moved,
                lost=len(lost),
            )
        return moved, lost

    def _surviving_source(
        self, sid: Any, owners: Sequence[int], exclude: int
    ) -> Optional[int]:
        for owner in owners:
            if owner == exclude or owner in self._down:
                continue
            if sid in self.nodes[owner].matcher:
                return owner
        return None

    def _check_leaf(self, leaf_id: int) -> None:
        if not 0 <= leaf_id < len(self.nodes):
            raise OverlayError(
                f"leaf {leaf_id} outside [0, {len(self.nodes)})"
            )
