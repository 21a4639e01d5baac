"""Behavioural tests for the structure-of-arrays matching engine.

The bitwise score equivalence with the reference engine lives in
``tests/structures/test_soa_differential.py``; this module covers the
engine's own contracts — backend selection, slot interning under churn,
UNKNOWN handling, read views kept current by writers — and that the
engine slots into every wrapper the reference engine does: the
thread-safe wrapper (under concurrent churn too), the instrumented
wrapper, and the distributed leaf.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.attributes import UNKNOWN, Interval
from repro.core.concurrent import ThreadSafeMatcher
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.results import MatchResult
from repro.core.stats import InstrumentedMatcher
from repro.core.subscriptions import Constraint, Subscription
from repro.structures.soa import SoARangedIndex, numpy_available


def sub(sid, *constraints):
    return Subscription(sid, list(constraints))


def ranged(attribute, low, high, weight=1.0):
    return Constraint(attribute, Interval(low, high), weight)


BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy not importable"),
    ),
]


def populated(backend, count=700):
    """Engine and reference over ``count`` subscriptions on ``x`` and ``y``.

    Every interval starts at 1000 or above, so ``x``/``y`` intervals
    below 1000 never match an event from :func:`high_events`.
    """
    rng = random.Random(8)
    engine = ArrayTopKMatcher(backend=backend, prorate=True)
    reference = FXTMMatcher(prorate=True)
    for i in range(count):
        x_low = rng.randint(1000, 2000)
        y_low = rng.randint(1000, 2000)
        subscription = sub(
            f"s{i}",
            ranged("x", x_low, x_low + rng.randint(0, 300), rng.uniform(0.5, 3.0)),
            ranged("y", y_low, y_low + rng.randint(0, 300), rng.uniform(0.5, 3.0)),
        )
        engine.add_subscription(subscription)
        reference.add_subscription(subscription)
    return engine, reference


def high_events(count, seed):
    rng = random.Random(seed)
    events = []
    for _ in range(count):
        x_low = rng.randint(1500, 2200)
        y_low = rng.randint(1500, 2200)
        events.append(
            Event({
                "x": Interval(x_low, x_low + rng.randint(0, 80)),
                "y": Interval(y_low, y_low + rng.randint(0, 80)),
            })
        )
    return events


def low_subscription(rng, sid):
    """Sorts ahead of every :func:`populated` entry and matches no event."""
    x_low = rng.randint(0, 900)
    y_low = rng.randint(0, 900)
    return sub(
        sid,
        ranged("x", x_low, x_low + rng.randint(0, 99)),
        ranged("y", y_low, y_low + rng.randint(0, 99)),
    )


class TestBackendSelection:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ArrayTopKMatcher(backend="fortran")

    def test_auto_resolves_to_concrete_backend(self):
        matcher = ArrayTopKMatcher(backend="auto")
        expected = "numpy" if numpy_available() else "python"
        assert matcher.backend == expected

    def test_python_backend_always_available(self):
        assert ArrayTopKMatcher(backend="python").backend == "python"

    @pytest.mark.skipif(numpy_available(), reason="covers the no-numpy case")
    def test_explicit_numpy_without_numpy_raises(self):
        with pytest.raises(ValueError):
            ArrayTopKMatcher(backend="numpy")


class TestEngineBehaviour:
    def test_unknown_attribute_contributes_nothing(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(
            sub("s1", ranged("age", 0, 10, 2.0), Constraint("state", "IN", 3.0))
        )
        assert matcher.match(Event({"age": 5, "state": UNKNOWN}), k=1) == [
            MatchResult("s1", 2.0)
        ]

    def test_match_validates_k(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(sub("s1", ranged("age", 0, 10)))
        with pytest.raises(ValueError):
            matcher.match(Event({"age": 5}), k=0)
        with pytest.raises(ValueError):
            matcher.match_batch([Event({"age": 5})], k=0)

    def test_slots_recycled_after_cancel(self):
        matcher = ArrayTopKMatcher(backend="python")
        for i in range(5):
            matcher.add_subscription(sub(f"s{i}", ranged("age", i, i + 1)))
        matcher.cancel_subscription("s2")
        matcher.cancel_subscription("s4")
        accumulator_size = len(matcher._acc)
        matcher.add_subscription(sub("fresh-a", ranged("age", 0, 9)))
        matcher.add_subscription(sub("fresh-b", ranged("age", 0, 9)))
        assert len(matcher._acc) == accumulator_size  # reused, not grown
        results = matcher.match(Event({"age": 3}), k=10)
        assert {r.sid for r in results} == {"s3", "fresh-a", "fresh-b"}

    def test_cancelled_subscription_never_resurfaces(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(sub("s1", ranged("age", 0, 10)))
        matcher.add_subscription(sub("s2", ranged("age", 0, 10)))
        matcher.ensure_built()
        matcher.cancel_subscription("s1")
        assert [r.sid for r in matcher.match(Event({"age": 5}), k=5)] == ["s2"]

    def test_ensure_built_is_idempotent(self):
        matcher = ArrayTopKMatcher(backend="python")
        matcher.add_subscription(sub("s1", ranged("age", 0, 10)))
        matcher.ensure_built()
        matcher.ensure_built()
        assert matcher.match(Event({"age": 5}), k=1) == [MatchResult("s1", 1.0)]

    def test_empty_matcher_matches_nothing(self):
        assert ArrayTopKMatcher(backend="python").match(Event({"age": 1}), k=3) == []


class TestWriterMaintainedViews:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_writes_between_matches_trigger_no_view_rebuild(self, backend, monkeypatch):
        engine, reference = populated(backend)
        engine.ensure_built()
        builds = []
        for name in ("_build_view", "_build_mirrors"):
            original = getattr(SoARangedIndex, name)

            def counted(self, *args, _original=original, _name=name):
                builds.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(SoARangedIndex, name, counted)
        rng = random.Random(9)
        live = [f"s{i}" for i in range(700)]
        for trial, event in enumerate(high_events(60, seed=10)):
            if trial % 2:
                victim = live.pop(rng.randrange(len(live)))
                engine.cancel_subscription(victim)
                reference.cancel_subscription(victim)
            else:
                fresh = low_subscription(rng, f"fresh{trial}")
                live.append(fresh.sid)
                engine.add_subscription(fresh)
                reference.add_subscription(fresh)
            ours, theirs = engine.match(event, k=10), reference.match(event, k=10)
            assert ours == theirs
            assert [r.score for r in ours] == [r.score for r in theirs]
        assert builds == []


class TestConcurrentChurn:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_readers_see_stable_answers_while_a_writer_churns(self, backend):
        """Readers under the read lock while one writer shifts every
        entry of the attributes they probe; the churned subscriptions
        never match, so every answer must equal the reference's."""
        engine, reference = populated(backend)
        engine.ensure_built()
        events = high_events(12, seed=11)
        expected = [reference.match(event, k=10) for event in events]
        safe = ThreadSafeMatcher(engine)
        errors = []
        done = threading.Event()

        def reader(offset):
            try:
                round_ = 0
                # Keep reading until the writer has shifted the arrays often.
                while round_ < 2 or (len(writes) < 60 and not errors):
                    for index in range(len(events)):
                        turn = (index + offset + round_) % len(events)
                        got = safe.match(events[turn], k=10)
                        assert got == expected[turn], (turn, got)
                    round_ += 1
            except Exception as error:  # pragma: no cover - test guard
                errors.append(error)

        def writer():
            rng = random.Random(12)
            live = []
            try:
                while not done.is_set():
                    if live and (len(live) > 40 or rng.random() < 0.4):
                        safe.cancel_subscription(live.pop(rng.randrange(len(live))))
                    else:
                        fresh = low_subscription(rng, f"churn{len(writes)}")
                        live.append(fresh.sid)
                        safe.add_subscription(fresh)
                    writes.append(len(live))
                    # The lock prefers writers: pause so readers get turns.
                    time.sleep(0.0002)
                for sid in live:
                    safe.cancel_subscription(sid)
            except Exception as error:  # pragma: no cover - test guard
                errors.append(error)

        writes = []
        readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        churner = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-write and mid-fold
        try:
            churner.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            done.set()
            churner.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [*readers, churner])
        assert not errors
        assert len(writes) >= 60  # the readers really raced the writer
        assert len(engine) == 700
        assert safe.match(events[0], k=10) == expected[0]


class TestWrapperIntegration:
    def build(self, matcher):
        matcher.add_subscription(
            sub("s1", ranged("age", 18, 24, 2.0), Constraint("state", "IN", 1.0))
        )
        matcher.add_subscription(sub("s2", ranged("age", 30, 50, 1.0)))
        return matcher

    def test_thread_safe_wrapper(self):
        wrapped = ThreadSafeMatcher(self.build(ArrayTopKMatcher(backend="python")))
        assert wrapped.name == "fx-tm-array"
        event = Event({"age": 20, "state": "IN"})
        assert wrapped.match(event, k=2) == [MatchResult("s1", 3.0)]
        assert wrapped.match_batch([event], k=2) == [[MatchResult("s1", 3.0)]]
        wrapped.cancel_subscription("s1")
        assert len(wrapped) == 1

    def test_instrumented_wrapper_records_probe_cache(self):
        inner = self.build(ArrayTopKMatcher(backend="python"))
        instrumented = InstrumentedMatcher(inner)
        batch = [Event({"age": 20, "state": "IN"})] * 4
        results = instrumented.match_batch(batch, k=1)
        assert results == [[MatchResult("s1", 3.0)]] * 4
        # 2 probes (one per attribute) then 6 hits across the 3 repeats.
        assert instrumented.stats._probe_hit_ratio.value == pytest.approx(0.75)

    def test_distributed_leaf_factory(self):
        from repro.distributed import DistributedTopKSystem

        def factory():
            return ArrayTopKMatcher(backend="python", prorate=True)

        reference = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=4)
        arrayed = DistributedTopKSystem(factory, node_count=4)
        subscriptions = [
            sub(f"s{i}", ranged("age", i, i + 20, 1.0 + i * 0.25)) for i in range(30)
        ]
        reference.add_subscriptions(subscriptions)
        arrayed.add_subscriptions(subscriptions)
        event = Event({"age": Interval(10, 15)})
        ours = arrayed.match(event, k=5)
        theirs = reference.match(event, k=5)
        assert ours.results == theirs.results
        for a, b in zip(ours.results, theirs.results):
            assert a.score == b.score


class TestCliIntegration:
    def test_cli_runs_the_array_engine(self, capsys):
        from repro.cli import main

        import io
        import sys

        stdin = sys.stdin
        sys.stdin = io.StringIO("ADD ad-1 age in [18, 24] : 2.0\nMATCH 1 age: [20 .. 22]\n")
        try:
            code = main(["--algorithm", "fx-tm-array", "--prorate", "--backend", "python"])
        finally:
            sys.stdin = stdin
        assert code == 0
        out = capsys.readouterr().out
        assert "ok ADD ad-1" in out
        assert "match [ad-1=2.000]" in out
