"""The cluster-batch workload: Yahoo-twin batches through ``DistributedTopKSystem``.

One client sends one 16-event batch at a time to ``match_batch`` and
waits for the outcome (a closed loop).  The leaves run ``fx-tm-array``;
a centralized ``fx-tm`` over the same subscriptions is the oracle.  The
cluster is driven through the library API because the Yahoo twin's
subscriptions and events have no text form (see ``text_roundtrip``).
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.matcher import FXTMMatcher
from repro.core.parser import parse_event, parse_subscription, render_event, render_subscription
from repro.distributed import DistributedTopKSystem
from repro.errors import ReproError
from repro.obs.heat import HeatMonitor
from repro.workloads.yahoo import YahooWorkload, YahooWorkloadConfig

import harness
import spec

#: Batches generated (and checked) per chunk.
_CHUNK = 8


def _engine() -> ArrayTopKMatcher:
    return ArrayTopKMatcher(backend="auto", schema=YahooWorkload.schema(), prorate=True)


class ClusterWorkload:
    """Generates one seeded cluster-batch stream and drives it through ``match_batch``."""

    name = "cluster-batch"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.k = spec.CLUSTER_K
        # The population and hot pool are a fixed corpus (the generator's
        # default seed); the run's seed picks the batches.  See spec.CORPUS.
        self.workload = YahooWorkload(YahooWorkloadConfig(n=spec.CLUSTER_N))
        self.subscriptions = self.workload.subscriptions()
        self.pool = self.workload.events(spec.CLUSTER_POOL)
        self.text_roundtrip = self._text_roundtrip()

    def _text_roundtrip(self) -> Dict[str, Any]:
        """How many generated objects survive render -> parse (a known defect)."""
        failures = 0
        first_error = ""
        for subscription in self.subscriptions:
            text = render_subscription(subscription)
            try:
                ok = parse_subscription(subscription.sid, text) == subscription
            except ReproError as error:
                ok, first_error = False, first_error or str(error)
            failures += not ok
        event_failures = 0
        for event in self.pool:
            try:
                ok = parse_event(render_event(event)) == event
            except ReproError as error:
                ok, first_error = False, first_error or str(error)
            event_failures += not ok
        return {
            "subscriptions": len(self.subscriptions),
            "subscription_failures": failures,
            "events": len(self.pool),
            "event_failures": event_failures,
            "first_error": first_error,
        }

    def stream(self) -> Iterator[List[List[int]]]:
        """Chunks of batches, each a list of pool indices drawn with weight 1/rank."""
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:batches")
        population = range(spec.CLUSTER_POOL)
        weights = [1.0 / (rank + 1) for rank in population]
        while True:
            yield [
                rng.choices(population, weights=weights, k=spec.CLUSTER_BATCH)
                for _ in range(_CHUNK)
            ]

    def setup(self) -> Tuple[DistributedTopKSystem, float]:
        """A warm cluster loaded through ``add_subscriptions``, and the seconds it took."""
        cluster = DistributedTopKSystem(
            _engine,
            node_count=spec.CLUSTER_LEAVES,
            fanout=spec.CLUSTER_FANOUT,
            replication_factor=spec.CLUSTER_REPLICATION,
        )
        started = time.perf_counter()
        cluster.add_subscriptions(self.subscriptions)
        for node in cluster.nodes:
            node.matcher.ensure_built()
        return cluster, time.perf_counter() - started

    def answers(self) -> List[Any]:
        """The centralized ``fx-tm`` answer for every pool event."""
        oracle = FXTMMatcher(schema=YahooWorkload.schema(), prorate=True)
        for subscription in self.subscriptions:
            oracle.add_subscription(subscription)
        return [oracle.match(event, self.k) for event in self.pool]

    def drive(
        self,
        call: Callable[..., Any],
        answers: List[Any],
        chunks: Iterator[List[List[int]]],
        seconds: float,
        tally: harness.Tally,
        outcomes: List[Any],
    ) -> None:
        """Send batches for ``seconds``, a chunk at a time."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.drive_chunk(call, answers, next(chunks), tally, outcomes)

    def drive_chunk(
        self,
        call: Callable[..., Any],
        answers: List[Any],
        chunk: List[List[int]],
        tally: harness.Tally,
        outcomes: List[Any],
        profiler: Any = None,
    ) -> None:
        """Send ``chunk`` one batch at a time, then check every answer."""
        clock = time.perf_counter
        batches = [[self.pool[index] for index in indices] for indices in chunk]
        results = []
        with harness.sampling(profiler):
            for events in batches:
                started = clock()
                outcome = call(events, self.k)
                tally.match_seconds.append(clock() - started)
                results.append(outcome)
        for indices, outcome in zip(chunk, results):
            index = tally.attempted
            tally.attempted += 1
            tally.events += len(indices)
            outcomes.append(outcome)
            if outcome.degraded or outcome.coverage != 1.0:
                tally.fail(index, "BATCH", f"degraded: coverage {outcome.coverage}")
            elif outcome.results != [answers[i] for i in indices]:
                tally.fail(index, "BATCH", "answer differs from centralized fx-tm")

    def measure(self, seconds: float) -> Dict[str, Any]:
        """The untraced run: end-to-end metrics."""
        from repro.bench.memory import storage_bytes

        setup_seconds = []
        for _ in range(spec.SETUP_REPEATS):
            cluster = None  # drop the previous cluster before building the next
            cluster, elapsed = self.setup()
            setup_seconds.append(elapsed)
        index_mb = sum(storage_bytes(node.matcher) for node in cluster.nodes) / 1e6
        answers = self.answers()
        chunks = self.stream()
        tally = harness.Tally()
        self.drive(cluster.match_batch, answers, chunks, spec.WARMUP_SECONDS, tally, [])
        tally.reset_timings()
        outcomes: List[Any] = []
        harness.collect_garbage()
        self.drive(cluster.match_batch, answers, chunks, seconds, tally, outcomes)
        return {
            "tally": tally,
            "setup_seconds": setup_seconds,
            "index_mb": index_mb,
            "sim_seconds": [outcome.total_seconds for outcome in outcomes],
        }

    def trace(self, seconds: float, out: Dict[str, Any]) -> Dict[str, Any]:
        """The traced run: untraced and traced chunks alternate, then the counting pass."""
        from repro.obs.profile import SamplingProfiler
        from repro.obs.tracing import Tracer, aggregate_phases

        cluster, _ = self.setup()
        answers = self.answers()
        chunks = self.stream()
        tracer = Tracer(max_traces=10**9)
        engines = [node.matcher for node in cluster.nodes]
        traced_engines = [harness.TracedEngine(engine, tracer) for engine in engines]
        traced_call = harness.traced(tracer, "cluster.match_batch", cluster.match_batch)
        untraced, traced = harness.Tally(), harness.Tally()
        outcomes: List[Any] = []
        profiler = SamplingProfiler()
        harness.collect_garbage()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.drive_chunk(cluster.match_batch, answers, next(chunks), untraced, [])
            for node, engine in zip(cluster.nodes, traced_engines):
                node.matcher = engine
            try:
                self.drive_chunk(
                    traced_call, answers, next(chunks), traced, outcomes, profiler=profiler
                )
            finally:
                for node, engine in zip(cluster.nodes, engines):
                    node.matcher = engine
        out["traces"] = tracer.traces
        out["profile"] = profiler.snapshot()
        phases = aggregate_phases(tracer.traces)
        metrics = {name: 0.0 for name in (m["name"] for m in spec.PER_LAYER)}
        metrics["cluster.match_batch_us"] = harness.self_time_us(phases, "cluster.match_batch")
        metrics["engine.match_batch_us"] = harness.self_time_us(phases, "engine.match_batch")
        local_max = [max(outcome.local_seconds) for outcome in outcomes]
        metrics.update({
            "cluster.local_max_ms": harness.median(local_max) * 1e3,
            "cluster.local_skew": harness.median(
                [max(o.local_seconds) / statistics.fmean(o.local_seconds) for o in outcomes]
            ),
            "cluster.merge_us": harness.median(
                [o.merge_compute_seconds for o in outcomes]
            ) * 1e6,
            "cluster.aggregation_ms": harness.median(
                [o.aggregation_seconds for o in outcomes]
            ) * 1e3,
            "cluster.retries": float(sum(o.retries_attempted for o in outcomes)),
            "cluster.hops_timed_out": float(sum(o.hops_timed_out for o in outcomes)),
            "cluster.coverage_min": min(o.coverage for o in outcomes),
        })
        metrics.update(harness.profile_shares(profiler))
        metrics["trace.overhead_fraction"] = untraced.requests_per_s() / traced.requests_per_s() - 1.0
        metrics.update(self.count())
        return {"tallies": [untraced, traced], "metrics": metrics, "phases": phases}

    def count(self) -> Dict[str, float]:
        """The untimed counting pass over a fixed prefix of the batch stream."""
        cluster, _ = self.setup()
        monitor = HeatMonitor()
        leaves = []
        for node in cluster.nodes:
            node.matcher.heat = monitor
            node.matcher = harness.CachedEngine(node.matcher)
            leaves.append(node.matcher)
        budget: Dict[str, int] = {}
        batches = harness.prefix(self.stream(), spec.COUNT_REQUESTS[self.name])
        with harness.budget_counters(budget):
            for indices in batches:
                cluster.match_batch([self.pool[i] for i in indices], self.k)
        events = sum(len(indices) for indices in batches)
        return harness.count_metrics(
            harness.heat_counts(monitor), events, budget,
            sum(leaf.hits for leaf in leaves), sum(leaf.lookups for leaf in leaves),
        )
