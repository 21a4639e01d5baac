"""The serve-budget and serve-churn workloads: text lines through ``cli.serve``.

One client sends one request line at a time and waits for the rendered
reply (a closed loop).  The engine is ``fx-tm-array``; the reference
``fx-tm`` engine, fed the same stream outside the timed region, is the
oracle every answer is compared with.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import repro.core.controller as controller_module
from repro.cli import serve
from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.budget import BudgetTracker, BudgetWindowSpec, LogicalClock
from repro.core.controller import LocalController
from repro.core.matcher import FXTMMatcher
from repro.core.parser import parse_event, parse_subscription, render_event, render_subscription
from repro.core.subscriptions import Subscription
from repro.obs.heat import HeatMonitor

import harness
import spec

#: Requests generated (and checked against the oracle) per chunk.
_MATCH_CHUNK = 64
_CHURN_CYCLES = 20


class RoundTripError(RuntimeError):
    """A rendered request line did not parse back to the generated object."""


class Request(NamedTuple):
    """One generated request: its kind, its text line and the object it carries."""

    kind: str  # "ADD", "CANCEL" or "MATCH"
    line: str
    #: The generated object: a Subscription (ADD), a sid (CANCEL), an Event (MATCH).
    payload: Any


def _same_subscription(parsed: Subscription, expected: Subscription) -> bool:
    # BudgetWindowSpec equality also compares pacing-curve identity, so
    # two specs parsed from text never compare equal; compare the values.
    if parsed.sid != expected.sid or parsed.constraints != expected.constraints:
        return False
    if parsed.budget is None or expected.budget is None:
        return parsed.budget is expected.budget
    return (parsed.budget.budget, parsed.budget.window_length) == (
        expected.budget.budget, expected.budget.window_length
    )


def add_request(subscription: Subscription, budget: Optional[BudgetWindowSpec]) -> Request:
    """An ADD line for ``subscription``, checked to parse back to it."""
    sid = str(subscription.sid)
    expected = Subscription(sid, subscription.constraints, budget=budget)
    line = f"ADD {sid} {render_subscription(subscription)}"
    if budget is not None:
        line += f" BUDGET {budget.budget!r} WINDOW {budget.window_length!r}"
    request = LocalController.parse_request(line)
    parsed = parse_subscription(request.sid, request.predicate, budget=request.budget)
    if not _same_subscription(parsed, expected):
        raise RoundTripError(f"ADD line does not parse back: {line!r}")
    return Request("ADD", line, expected)


def match_request(event: Any, k: int) -> Request:
    """A MATCH line for ``event``, checked to parse back to it."""
    line = f"MATCH {k} {render_event(event)}"
    request = LocalController.parse_request(line)
    if request.k != k or parse_event(request.event_text) != event:
        raise RoundTripError(f"MATCH line does not parse back: {line!r}")
    return Request("MATCH", line, event)


class ServeWorkload:
    """Generates one seeded serve-* stream and drives it through ``cli.serve``."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.workloads.generator import MicroWorkload, MicroWorkloadConfig

        self.name = name
        self.seed = seed
        self.budgeted = name == "serve-budget"
        self.k = spec.SERVE_K
        # The population is a fixed corpus (the generator's default seed);
        # the run's seed picks the traffic.  See spec.CORPUS.
        self.workload = MicroWorkload(MicroWorkloadConfig(n=spec.SERVE_N))
        rng = random.Random(f"perfbench:{name}:{seed}:budgets")
        self.initial = [
            add_request(subscription, self._budget(rng))
            for subscription in self.workload.subscriptions()
        ]
        self.add_lines = [request.line for request in self.initial]

    def _budget(self, rng: random.Random) -> Optional[BudgetWindowSpec]:
        if not self.budgeted:
            return None
        amount = float(round(spec.BUDGET_WINDOW * rng.uniform(*spec.BUDGET_RATE)))
        return BudgetWindowSpec(amount, spec.BUDGET_WINDOW)

    def _stream_id(self, chunk: int) -> int:
        """A generator stream (and fresh-sid range) of its own per seed and chunk."""
        return self.seed * spec.STREAMS_PER_SEED + chunk

    def _tracker(self) -> Optional[BudgetTracker]:
        return BudgetTracker(clock=LogicalClock()) if self.budgeted else None

    # ------------------------------------------------------------------
    # The request stream (a pure function of the seed)
    # ------------------------------------------------------------------
    def stream(self) -> Iterator[List[Request]]:
        """Chunks of requests, generated and round-trip checked lazily."""
        if self.budgeted:
            chunk = 0
            while True:
                chunk += 1
                events = self.workload.events(_MATCH_CHUNK, stream=self._stream_id(chunk))
                yield [match_request(event, self.k) for event in events]
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:churn")
        live = [request.payload.sid for request in self.initial]
        next_sid = spec.SERVE_N + self._stream_id(0)
        matches_per_cycle = spec.CHURN_CYCLE.count("MATCH")
        chunk = 0
        while True:
            chunk += 1
            events = iter(self.workload.events(
                matches_per_cycle * _CHURN_CYCLES, stream=self._stream_id(chunk)
            ))
            fresh = iter(self.workload.subscriptions(_CHURN_CYCLES, sid_offset=next_sid))
            next_sid += _CHURN_CYCLES
            requests: List[Request] = []
            for _ in range(_CHURN_CYCLES):
                for kind in spec.CHURN_CYCLE:
                    if kind == "MATCH":
                        requests.append(match_request(next(events), self.k))
                    elif kind == "ADD":
                        added = add_request(next(fresh), None)
                        requests.append(added)
                    else:
                        # The fresh subscription takes a random live one's place.
                        slot = rng.randrange(len(live))
                        victim, live[slot] = live[slot], added.payload.sid
                        requests.append(Request("CANCEL", f"CANCEL {victim}", victim))
            yield requests

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def setup(self) -> Tuple[ArrayTopKMatcher, float]:
        """A warm engine loaded through ADD lines, and the seconds it took."""
        engine = ArrayTopKMatcher(backend="auto", prorate=True, budget_tracker=self._tracker())
        controller = LocalController(engine)
        started = time.perf_counter()
        failures = serve(self.add_lines, controller, harness.Sink())
        engine.ensure_built()
        elapsed = time.perf_counter() - started
        if failures:
            raise RuntimeError(f"{failures} ADD lines failed during set-up")
        return engine, elapsed

    def oracle(self) -> FXTMMatcher:
        oracle = FXTMMatcher(prorate=True, budget_tracker=self._tracker())
        for request in self.initial:
            oracle.add_subscription(request.payload)
        return oracle

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def drive(
        self,
        controller: Any,
        oracle: FXTMMatcher,
        chunks: Iterator[List[Request]],
        seconds: float,
        tally: harness.Tally,
    ) -> None:
        """Send requests for ``seconds``, a chunk at a time."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.drive_chunk(controller, oracle, next(chunks), tally)

    def drive_chunk(
        self,
        controller: Any,
        oracle: FXTMMatcher,
        chunk: List[Request],
        tally: harness.Tally,
        call: Callable[..., int] = serve,
        profiler: Any = None,
    ) -> None:
        """Send ``chunk`` one request at a time, then check every answer."""
        capture = harness.Capture(controller)
        sink = harness.Sink()
        clock = time.perf_counter
        elapsed: List[float] = []
        with harness.sampling(profiler):
            for request in chunk:
                started = clock()
                call((request.line,), capture, sink)
                elapsed.append(clock() - started)
        if len(sink.lines) != len(chunk):
            raise RuntimeError(f"{len(chunk)} requests sent, {len(sink.lines)} lines rendered")
        self._check(chunk, capture.responses, oracle, tally)
        for request, seconds_taken in zip(chunk, elapsed):
            if request.kind == "MATCH":
                tally.match_seconds.append(seconds_taken)
                tally.events += 1
            else:
                tally.write_seconds.append(seconds_taken)

    def _check(
        self,
        chunk: List[Request],
        responses: List[Any],
        oracle: FXTMMatcher,
        tally: harness.Tally,
    ) -> None:
        if len(responses) != len(chunk):
            raise RuntimeError(f"{len(chunk)} requests sent, {len(responses)} responses")
        for request, response in zip(chunk, responses):
            index = tally.attempted
            tally.attempted += 1
            if request.kind == "ADD":
                oracle.add_subscription(request.payload)
            elif request.kind == "CANCEL":
                oracle.cancel_subscription(request.payload)
            else:
                expected = oracle.match(request.payload, self.k)
                if response.ok and response.results != expected:
                    tally.fail(index, request.kind, "answer differs from fx-tm")
                    continue
            if not response.ok:
                tally.fail(index, request.kind, response.error)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, Any]:
        """The untraced run: end-to-end metrics."""
        from repro.bench.memory import storage_bytes

        setup_seconds = []
        for _ in range(spec.SETUP_REPEATS):
            engine = None  # drop the previous engine before building the next
            engine, elapsed = self.setup()
            setup_seconds.append(elapsed)
        index_mb = storage_bytes(engine) / 1e6
        oracle = self.oracle()
        controller = LocalController(engine)
        chunks = self.stream()
        tally = harness.Tally()
        self.drive(controller, oracle, chunks, spec.WARMUP_SECONDS, tally)
        tally.reset_timings()
        harness.collect_garbage()
        self.drive(controller, oracle, chunks, seconds, tally)
        return {
            "tally": tally,
            "setup_seconds": setup_seconds,
            "index_mb": index_mb,
            "sim_seconds": [],
        }

    def trace(self, seconds: float, out: Dict[str, Any]) -> Dict[str, Any]:
        """The traced run: untraced and traced chunks alternate, then the counting pass."""
        from repro.obs.profile import SamplingProfiler
        from repro.obs.tracing import Tracer, aggregate_phases

        engine, _ = self.setup()
        oracle = self.oracle()
        chunks = self.stream()
        tracer = Tracer(max_traces=10**9)
        plain = LocalController(engine)
        traced_engine = harness.TracedEngine(engine, tracer)
        controller = LocalController(traced_engine)
        controller.parse_request = harness.traced(
            tracer, "controller.parse_request", LocalController.parse_request
        )
        traced_serve = harness.traced(tracer, "cli.serve", serve)
        untraced, traced = harness.Tally(), harness.Tally()
        profiler = SamplingProfiler()
        harness.collect_garbage()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            chunk = next(chunks)
            self.drive_chunk(plain, oracle, chunk, untraced)
            traced_engine.wrote = chunk[-1].kind != "MATCH"
            with harness.patched(
                controller_module, "parse_event",
                harness.traced(tracer, "parser.parse_event", parse_event),
            ), harness.patched(
                controller_module, "parse_subscription",
                harness.traced(tracer, "parser.parse_subscription", parse_subscription),
            ):
                self.drive_chunk(
                    controller, oracle, next(chunks), traced,
                    call=traced_serve, profiler=profiler,
                )
        out["traces"] = tracer.traces
        out["profile"] = profiler.snapshot()
        phases = aggregate_phases(tracer.traces)
        metrics = {name: 0.0 for name in (m["name"] for m in spec.PER_LAYER)}
        for metric, span in (
            ("cli.render_us", "cli.serve"),
            ("controller.parse_request_us", "controller.parse_request"),
            ("parser.parse_event_us", "parser.parse_event"),
            ("parser.parse_subscription_us", "parser.parse_subscription"),
            ("engine.match_us", "engine.match"),
            ("engine.match_after_write_us", "engine.match_after_write"),
            ("engine.add_us", "engine.add"),
            ("engine.cancel_us", "engine.cancel"),
        ):
            metrics[metric] = harness.self_time_us(phases, span)
        metrics.update(harness.profile_shares(profiler))
        metrics["trace.overhead_fraction"] = untraced.requests_per_s() / traced.requests_per_s() - 1.0
        metrics.update(self.count())
        return {"tallies": [untraced, traced], "metrics": metrics, "phases": phases}

    def count(self) -> Dict[str, float]:
        """The untimed counting pass over a fixed prefix of the stream."""
        engine, _ = self.setup()
        monitor = HeatMonitor()
        engine.heat = monitor
        controller = LocalController(engine)
        budget: Dict[str, int] = {}
        prefix = harness.prefix(self.stream(), spec.COUNT_REQUESTS[self.name])
        with harness.budget_counters(budget):
            failures = serve([request.line for request in prefix], controller, harness.Sink())
        engine.heat = None
        if failures:
            raise RuntimeError(f"{failures} requests failed in the counting pass")
        matches = sum(1 for request in prefix if request.kind == "MATCH")
        return harness.count_metrics(harness.heat_counts(monitor), matches, budget, 0, 0)
