"""Pieces shared by the workload modules: statistics, spans and counters.

Everything here wraps the program from outside: spans are opened around
calls into public functions, and counters are patched onto public
methods only for the duration of an untimed pass.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import statistics
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, when a run is too short for p99.
_FALLBACK_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile needs at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``MIN_BEYOND`` above the ``q``-th percentile."""
    return count - math.ceil(q / 100.0 * count) >= MIN_BEYOND


def tail(values: Sequence[float], q: float = 99.0) -> Tuple[str, Optional[float]]:
    """``("p99", value)``, or the highest percentile ``values`` support."""
    for candidate in _FALLBACK_PERCENTILES:
        if candidate <= q and supports(len(values), candidate):
            return f"p{candidate:g}", percentile(values, candidate)
    return f"p{q:g}", None


def median(values: Sequence[float]) -> float:
    """The median of ``values``."""
    return statistics.median(values)


class Sink:
    """The ``out`` stream handed to ``cli.serve``: keeps the rendered lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def write(self, text: str) -> int:
        self.lines.append(text)
        return len(text)


class Capture:
    """Stands in for the controller in ``cli.serve``, keeping each response.

    ``serve`` only iterates ``controller.run(lines)``; this passes the
    responses through unchanged and remembers them, so answers can be
    compared exactly (the rendered text rounds scores to 3 decimals).
    """

    def __init__(self, controller: Any) -> None:
        self.controller = controller
        self.responses: List[Any] = []

    def run(self, lines: Any) -> Iterator[Any]:
        for response in self.controller.run(lines):
            self.responses.append(response)
            yield response


def traced(tracer: Any, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    """``function`` with a span named ``name`` around every call."""

    def call(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return function(*args, **kwargs)

    return call


class TracedEngine:
    """A ``TopKMatcher`` stand-in that puts an ``engine.*`` span around each call.

    A match that follows an ADD or CANCEL is recorded as
    ``engine.match_after_write``: it pays for the read-view rebuild.
    """

    def __init__(self, engine: Any, tracer: Any) -> None:
        self._engine = engine
        self._tracer = tracer
        #: Whether the last call was a write; set it when a write bypassed this wrapper.
        self.wrote = False

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def add_subscription(self, subscription: Any) -> None:
        self.wrote = True
        with self._tracer.span("engine.add"):
            self._engine.add_subscription(subscription)

    def cancel_subscription(self, sid: Any) -> Any:
        self.wrote = True
        with self._tracer.span("engine.cancel"):
            return self._engine.cancel_subscription(sid)

    def match(self, event: Any, k: int) -> Any:
        name = "engine.match_after_write" if self.wrote else "engine.match"
        self.wrote = False
        with self._tracer.span(name):
            return self._engine.match(event, k)

    def match_batch(self, events: Any, k: int, probe_cache: Any = None) -> Any:
        with self._tracer.span("engine.match_batch"):
            return self._engine.match_batch(events, k, probe_cache=probe_cache)


class CachedEngine:
    """A leaf stand-in that hands the engine a probe cache it can read back."""

    def __init__(self, engine: Any) -> None:
        self._engine = engine
        self.hits = 0
        self.lookups = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def match_batch(self, events: Any, k: int) -> Any:
        from repro.core.probecache import ProbeCache

        cache = ProbeCache()
        results = self._engine.match_batch(events, k, probe_cache=cache)
        self.hits += cache.hits
        self.lookups += cache.hits + cache.misses
        return results


@contextlib.contextmanager
def patched(owner: Any, name: str, value: Any) -> Iterator[None]:
    """Set ``owner.name = value`` for the block, then restore it."""
    missing = object()
    saved = vars(owner).get(name, missing)
    setattr(owner, name, value)
    try:
        yield
    finally:
        if saved is missing:
            delattr(owner, name)
        else:
            setattr(owner, name, saved)


@contextlib.contextmanager
def budget_counters(counts: Dict[str, int]) -> Iterator[None]:
    """Count calls into ``BudgetWindowState.multiplier`` and ``BudgetTracker.record_match``."""
    from repro.core.budget import BudgetTracker, BudgetWindowState

    multiplier = BudgetWindowState.multiplier
    record_match = BudgetTracker.record_match
    counts.setdefault("multiplier", 0)
    counts.setdefault("record_match", 0)

    def counted_multiplier(self: Any, now: float) -> float:
        counts["multiplier"] += 1
        return multiplier(self, now)

    def counted_record_match(self: Any, sid: Any, cost: float = 1.0) -> None:
        counts["record_match"] += 1
        record_match(self, sid, cost)

    with patched(BudgetWindowState, "multiplier", counted_multiplier), patched(
        BudgetTracker, "record_match", counted_record_match
    ):
        yield


def heat_counts(monitor: Any) -> Dict[str, int]:
    """Totals of a ``HeatMonitor`` over all attributes."""
    probes = scanned = candidates = ranged_candidates = 0
    for heat in monitor.snapshot().attributes:
        probes += heat.probes
        scanned += heat.scanned
        candidates += heat.candidates
        if heat.kind == "ranged":
            ranged_candidates += heat.candidates
    return {
        "probes": probes,
        "scanned": scanned,
        "candidates": candidates,
        "ranged_candidates": ranged_candidates,
    }


def self_time_us(phases: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean self time per span named ``name``, in microseconds (0 if absent)."""
    entry = phases.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return entry["self_seconds"] / entry["count"] * 1e6


def profile_shares(profiler: Any) -> Dict[str, float]:
    """The ``phase.*``/``module.*`` shares of a ``SamplingProfiler``, plus its sample count."""
    total = profiler.total_samples
    phases = profiler.phase_samples
    modules = profiler.module_samples

    def share(samples: Dict[str, int], key: str) -> float:
        return samples.get(key, 0) / total if total else 0.0

    return {
        "phase.master_index.lookup_share": share(phases, "master_index.lookup"),
        "phase.attribute.probe_share": share(phases, "attribute.probe"),
        "phase.candidates.score_share": share(phases, "candidates.score"),
        "phase.topk.select_share": share(phases, "topk.select"),
        "module.budget_share": share(modules, "repro.core.budget"),
        "module.soa_share": share(modules, "repro.structures.soa"),
        "profile.samples": float(total),
    }


class Tally:
    """Request outcomes and latencies of one measured segment."""

    def __init__(self) -> None:
        self.match_seconds: List[float] = []
        self.write_seconds: List[float] = []
        self.events = 0
        self.attempted = 0
        self.failed = 0
        #: The first few failures, for the run record.
        self.failures: List[Dict[str, Any]] = []

    @property
    def requests(self) -> int:
        return len(self.match_seconds) + len(self.write_seconds)

    @property
    def busy_seconds(self) -> float:
        return math.fsum(self.match_seconds) + math.fsum(self.write_seconds)

    def reset_timings(self) -> None:
        """Forget the latencies and events so far; outcomes and failures stay."""
        self.match_seconds.clear()
        self.write_seconds.clear()
        self.events = 0

    def fail(self, index: int, kind: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append({"request": index, "kind": kind, "reason": reason})

    def requests_per_s(self) -> float:
        return self.requests / self.busy_seconds

    def events_per_s(self) -> float:
        return self.events / self.busy_seconds


def prefix(chunks: Iterator[List[Any]], count: int) -> List[Any]:
    """The first ``count`` items of a stream of chunks."""
    return list(itertools.islice(itertools.chain.from_iterable(chunks), count))


def collect_garbage() -> None:
    """Start a timed segment from a collected heap."""
    gc.collect()


def count_metrics(
    heat: Dict[str, int],
    events: int,
    budget: Dict[str, int],
    cache_hits: int,
    cache_lookups: int,
) -> Dict[str, float]:
    """The ``structures.*``, ``budget.*`` and ``probecache.*`` metrics of a counting pass."""
    return {
        "structures.probes_per_event": heat["probes"] / events,
        "structures.scanned_per_event": heat["scanned"] / events,
        "structures.candidates_per_event": heat["candidates"] / events,
        "structures.candidate_yield": (
            heat["ranged_candidates"] / heat["scanned"] if heat["scanned"] else 0.0
        ),
        "structures.scanned": float(heat["scanned"]),
        "structures.ranged_candidates": float(heat["ranged_candidates"]),
        "structures.events": float(events),
        "budget.multiplier_calls_per_match": budget.get("multiplier", 0) / events,
        "budget.charges_per_match": budget.get("record_match", 0) / events,
        "probecache.hits": float(cache_hits),
        "probecache.lookups": float(cache_lookups),
        "probecache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
    }


#: While sampling, the interpreter hands the lock to the sampler thread
#: after this many seconds instead of the default 5 ms.  Otherwise the
#: sampler mostly runs when the main thread releases the lock itself
#: (inside numpy calls), which biases the phase split towards them.
_SAMPLING_SWITCH_INTERVAL = 5e-5


@contextlib.contextmanager
def sampling(profiler: Any) -> Iterator[None]:
    """Run ``profiler`` (if any) for the block only."""
    if profiler is None:
        yield
        return
    interval = sys.getswitchinterval()
    sys.setswitchinterval(_SAMPLING_SWITCH_INTERVAL)
    profiler.start()
    try:
        yield
    finally:
        profiler.stop()
        sys.setswitchinterval(interval)
