"""Seeded differential fuzzing: the array engine is FX-TM, bitwise.

Every test here generates a random universe of subscriptions (ranged
constraints with int and float endpoints, discrete values, set
constraints, negative weights) and a random stream of events (intervals,
points, discrete values, UNKNOWN markers, per-event weight overrides),
then asserts that the reference FX-TM engine, the structure-of-arrays
engine on the pure-python backend, and (when numpy is importable) the
numpy backend return **equal MatchResult lists** — sids, order, and
scores compared with ``==``, never with an approximation.  The naive
exhaustive matcher rides along as the model oracle.

Scores compared for equality across engines is the whole point of the
array engine's design (same candidate order, same fold order, same
float operations), so any drift — a reordered accumulation, a numpy
dtype surprise — fails loudly here.
"""

import random

import pytest

from repro.baselines.naive import NaiveMatcher
from repro.core import array_matcher
from repro.core.array_matcher import ArrayTopKMatcher
from repro.core.attributes import UNKNOWN, Interval
from repro.core.events import Event
from repro.core.matcher import FXTMMatcher
from repro.core.probecache import ProbeCache
from repro.core.subscriptions import Constraint, Subscription
from repro.structures.soa import numpy_available

RANGED = ("age", "price", "lat", "depth")
DISCRETE = ("state", "color")
DISCRETE_VALUES = ("IN", "OH", "KY", "MI", "red", "blue", "green")


def _random_subscription(rng: random.Random, sid: str) -> Subscription:
    constraints = []
    for attribute in rng.sample(RANGED, rng.randint(0, 3)):
        if rng.random() < 0.5:
            low = rng.randint(-40, 40)
            high = low + rng.randint(0, 25)
        else:
            low = round(rng.uniform(-40.0, 40.0), 3)
            high = low + round(rng.uniform(0.0, 25.0), 3)
        weight = rng.choice([rng.uniform(-3.0, 6.0), rng.randint(-2, 5)])
        constraints.append(Constraint(attribute, Interval(low, high), weight))
    for attribute in rng.sample(DISCRETE, rng.randint(0, 2)):
        if rng.random() < 0.3:
            value = frozenset(rng.sample(DISCRETE_VALUES, rng.randint(1, 3)))
        else:
            value = rng.choice(DISCRETE_VALUES)
        constraints.append(Constraint(attribute, value, rng.uniform(-1.0, 4.0)))
    if not constraints:
        constraints.append(Constraint("age", Interval(0, 10), 1.0))
    return Subscription(sid, constraints)


def _random_event(rng: random.Random) -> Event:
    values = {}
    for attribute in rng.sample(RANGED, rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.15:
            values[attribute] = UNKNOWN
        elif roll < 0.5:
            values[attribute] = rng.randint(-50, 50)
        else:
            low = round(rng.uniform(-50.0, 50.0), 3)
            values[attribute] = Interval(low, low + round(rng.uniform(0.0, 20.0), 3))
    for attribute in rng.sample(DISCRETE, rng.randint(0, 2)):
        values[attribute] = UNKNOWN if rng.random() < 0.1 else rng.choice(DISCRETE_VALUES)
    if not values or rng.random() < 0.2:
        values["nobody-subscribed"] = rng.randint(0, 5)
    weights = None
    if values and rng.random() < 0.35:
        weights = {
            attribute: rng.choice([0.0, rng.uniform(-2.0, 5.0)])
            for attribute in rng.sample(sorted(values), rng.randint(1, len(values)))
        }
    return Event(values, weights=weights)


def _engines(prorate):
    engines = [
        FXTMMatcher(prorate=prorate),
        ArrayTopKMatcher(prorate=prorate, backend="python"),
    ]
    if numpy_available():
        engines.append(ArrayTopKMatcher(prorate=prorate, backend="numpy"))
    return engines


def _assert_identical(per_engine, context):
    reference = per_engine[0]
    for candidate in per_engine[1:]:
        assert candidate == reference, context
        for ours, theirs in zip(candidate, reference):
            assert ours.sid == theirs.sid, context
            assert ours.score == theirs.score, context  # equality, not approx


@pytest.mark.parametrize("prorate", [False, True])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_match_differential_with_interleaved_churn(prorate, seed):
    rng = random.Random(seed)
    engines = _engines(prorate)
    oracle = NaiveMatcher(prorate=prorate)
    live = []
    for i in range(250):
        subscription = _random_subscription(rng, f"s{i}")
        live.append(subscription)
        for engine in engines:
            engine.add_subscription(subscription)
        oracle.add_subscription(subscription)

    def storm(rounds, tag):
        for trial in range(rounds):
            event = _random_event(rng)
            k = rng.randint(1, 8)
            per_engine = [engine.match(event, k) for engine in engines]
            _assert_identical(per_engine, (tag, trial, event.attributes, k))
            # The exhaustive oracle pins semantics, not just consistency.
            # Boundary ties may keep a different incumbent across engine
            # families (Definition 3 leaves tie handling open), so the
            # oracle is held to the exact score sequence.
            expected = oracle.match(event, k)
            assert [r.score for r in per_engine[0]] == [r.score for r in expected]

    # The flattened views get warmed the way the bench harness warms them.
    for engine in engines:
        engine.ensure_built()
    storm(60, "static")

    # Interleave cancels and fresh adds, then re-verify: stale slots,
    # stale flat views, or leaked interning would all surface here.
    rng.shuffle(live)
    for subscription in live[:100]:
        for engine in engines:
            engine.cancel_subscription(subscription.sid)
        oracle.cancel_subscription(subscription.sid)
    for i in range(60):
        subscription = _random_subscription(rng, f"churn{i}")
        for engine in engines:
            engine.add_subscription(subscription)
        oracle.add_subscription(subscription)
    storm(60, "churned")


@pytest.mark.parametrize("prorate", [False, True])
def test_match_batch_differential_shares_probe_semantics(prorate):
    rng = random.Random(99)
    engines = _engines(prorate)
    for i in range(200):
        subscription = _random_subscription(rng, f"s{i}")
        for engine in engines:
            engine.add_subscription(subscription)
    # Deliberately repeat stab keys within a batch (cache hits) and mix
    # in weighted events (cache bypass for their overridden attributes).
    batch = []
    for _ in range(30):
        event = _random_event(rng)
        batch.append(event)
        if rng.random() < 0.4:
            clone = {name: event.value_of(name) for name in event.attributes}
            chosen = rng.choice(sorted(clone))
            batch.append(Event(clone, weights={chosen: rng.uniform(0, 3)}))
    caches = [ProbeCache() for _ in engines]
    per_engine = [
        engine.match_batch(batch, k=5, probe_cache=cache)
        for engine, cache in zip(engines, caches)
    ]
    for results, cache in zip(per_engine[1:], caches[1:]):
        assert results == per_engine[0]
        for ours, theirs in zip(results, per_engine[0]):
            for a, b in zip(ours, theirs):
                assert a.score == b.score
        # The array engine memoises probes with the same hit/miss
        # accounting as the reference (one probe per stab key).
        assert (cache.hits, cache.misses) == (caches[0].hits, caches[0].misses)
    assert caches[0].hits > 0


@pytest.mark.parametrize("seed", [5, 6])
def test_budgeted_match_differential(seed):
    """Budget multipliers and settle-time charging stay in lockstep."""
    from repro.bench.harness import make_matcher

    rng = random.Random(seed)
    engines = [
        make_matcher("fx-tm", prorate=True, with_budget=True),
        make_matcher("fx-tm-array", prorate=True, with_budget=True, backend="python"),
    ]
    if numpy_available():
        engines.append(
            make_matcher("fx-tm-array", prorate=True, with_budget=True, backend="numpy")
        )
    from repro.core.budget import BudgetWindowSpec

    for i in range(80):
        bare = _random_subscription(rng, f"s{i}")
        spec = BudgetWindowSpec(budget=rng.uniform(1.0, 25.0), window_length=50)
        subscription = Subscription(bare.sid, bare.constraints, budget=spec)
        for engine in engines:
            engine.add_subscription(subscription)
    # Each engine owns an independent tracker + logical clock; identical
    # match results imply identical settlements, so the multipliers can
    # only diverge if the scores already have.
    for trial in range(120):
        event = _random_event(rng)
        per_engine = [engine.match(event, k=4) for engine in engines]
        _assert_identical(per_engine, (trial, event.attributes))


def _count_vectorised_scores(monkeypatch):
    """Record every vectorised scoring as (reached past the size cutoff, answered).

    Single-event numpy folds and batched stab-key misses both score
    through ``_score_ranged_numpy``.  A call that answers on a cutoff of
    at least ``_NUMPY_MIN_CUTOFF`` entries scored from the mirrors; one
    that returns None there fell back to the scalar scan at a later
    guard (query or endpoint exactness).
    """
    calls = []
    score = ArrayTopKMatcher._score_ranged_numpy

    def counted(self, index, attribute, qlo, qhi, override):
        scored = score(self, index, attribute, qlo, qhi, override)
        calls.append(
            (index.cutoff(qhi) >= array_matcher._NUMPY_MIN_CUTOFF, scored is not None)
        )
        return scored

    monkeypatch.setattr(ArrayTopKMatcher, "_score_ranged_numpy", counted)
    return calls


def _with_price(rng: random.Random, sid: str) -> Subscription:
    """A random subscription that always constrains ``price``."""
    subscription = _random_subscription(rng, sid)
    if any(c.attribute == "price" for c in subscription.constraints):
        return subscription
    low = rng.randint(-40, 40)
    price = Constraint("price", Interval(low, low + rng.randint(0, 25)), rng.uniform(-1, 4))
    return Subscription(sid, [*subscription.constraints, price])


@pytest.mark.parametrize("prorate", [False, True])
def test_match_batch_scores_past_the_numpy_cutoff(prorate, monkeypatch):
    """``price`` holds 900 entries, so batched stab-key misses score on the
    vectorised branch; weighted clones share those stab keys and fold from
    raw candidates, some before and some after the scored pairs exist."""
    calls = _count_vectorised_scores(monkeypatch)
    rng = random.Random(41)
    engines = _engines(prorate)
    for i in range(900):
        subscription = _with_price(rng, f"s{i}")
        for engine in engines:
            engine.add_subscription(subscription)
    for engine in engines:
        engine.ensure_built()
    hot = []
    for _ in range(8):
        values = dict(_random_event(rng).known_items())
        low = round(rng.uniform(10.0, 40.0), 3)
        values["price"] = Interval(low, low + round(rng.uniform(0.0, 20.0), 3))
        hot.append(values)
    # Both orders on a shared key: raw candidates before the scored pairs
    # exist, and after them.
    batch = [
        Event(hot[0], weights={"price": 2.5}),
        Event(hot[0]),
        Event(hot[1]),
        Event(hot[1], weights={"price": 0.5}),
    ]
    for _ in range(40):
        values = rng.choice(hot)
        if rng.random() < 0.35:
            chosen = "price" if rng.random() < 0.7 else rng.choice(sorted(values))
            batch.append(Event(values, weights={chosen: rng.uniform(-1.0, 4.0)}))
        else:
            batch.append(Event(values))
    caches = [ProbeCache() for _ in engines]
    per_engine = [
        engine.match_batch(batch, k=6, probe_cache=cache)
        for engine, cache in zip(engines, caches)
    ]
    for position in range(len(batch)):
        _assert_identical([results[position] for results in per_engine], position)
    for cache in caches[1:]:
        assert (cache.hits, cache.misses) == (caches[0].hits, caches[0].misses)
    assert caches[0].hits > caches[0].misses
    if numpy_available():
        assert (True, True) in calls  # the vectorised branch answered a miss
    else:
        assert calls == []


@pytest.mark.parametrize("prorate", [False, True])
def test_single_writes_between_matches_reach_the_numpy_fold(prorate, monkeypatch):
    """One ADD or CANCEL between matches on built views, with ``price``
    above the numpy cutoff, so the vectorised fold is compared with FX-TM
    on views the writers maintained rather than rebuilt."""
    if not numpy_available():
        pytest.skip("numpy not importable")
    calls = _count_vectorised_scores(monkeypatch)
    rng = random.Random(21)
    engines = _engines(prorate)
    live = []
    for i in range(900):
        subscription = _with_price(rng, f"s{i}")
        live.append(subscription.sid)
        for engine in engines:
            engine.add_subscription(subscription)
    for engine in engines:
        engine.ensure_built()
    for trial in range(240):
        event = _random_event(rng)
        k = rng.randint(1, 8)
        per_engine = [engine.match(event, k) for engine in engines]
        _assert_identical(per_engine, (trial, event.attributes, k))
        if trial % 2:
            sid = live.pop(rng.randrange(len(live)))
            for engine in engines:
                engine.cancel_subscription(sid)
        else:
            subscription = _with_price(rng, f"fresh{trial}")
            live.append(subscription.sid)
            for engine in engines:
                engine.add_subscription(subscription)
    assert sum(1 for past_cutoff, answered in calls if past_cutoff and answered) >= 20


def test_numpy_backend_falls_back_on_inexact_endpoints(monkeypatch):
    """Endpoints beyond 2**53 must not be rounded through float64."""
    if not numpy_available():
        pytest.skip("numpy not importable")
    calls = _count_vectorised_scores(monkeypatch)
    big = 2**60
    reference = FXTMMatcher()
    arrayed = ArrayTopKMatcher(backend="numpy")
    for engine in (reference, arrayed):
        for offset in range(600):
            engine.add_subscription(
                Subscription(
                    f"s{offset}",
                    [Constraint("n", Interval(big + 2 * offset, big + 2 * offset + 1))],
                )
            )
        engine.ensure_built()
    # Exact query endpoints and a cutoff past 512 entries: only the
    # endpoint-exactness guard stands between this stab and the mirrors.
    event = Event({"n": Interval(big + 256, big + 2048)})
    ours = arrayed.match(event, k=50)
    assert ours == reference.match(event, k=50)
    assert ours  # the window genuinely stabs something
    assert calls == [(True, False)]  # past the cutoff, then fell back


def test_numpy_mirrors_follow_one_inexact_entry_in_and_out(monkeypatch):
    """Exact -> one inexact insert (mirrors dropped) -> its cancel
    (mirrors back), equal to FX-TM at every step."""
    if not numpy_available():
        pytest.skip("numpy not importable")
    calls = _count_vectorised_scores(monkeypatch)
    big = 2**60
    reference = FXTMMatcher(prorate=True)
    arrayed = ArrayTopKMatcher(prorate=True, backend="numpy")
    for engine in (reference, arrayed):
        for offset in range(700):
            engine.add_subscription(
                Subscription(f"s{offset}", [Constraint("n", Interval(offset, offset + 30))])
            )
        engine.ensure_built()
    index = arrayed._master_index["n"]
    event = Event({"n": Interval(600, 640)})

    def step(expect_mirrors, expect_answered):
        assert (index.ensure_view(True)[2] is not None) == expect_mirrors
        del calls[:]
        _assert_identical([reference.match(event, 20), arrayed.match(event, 20)], event)
        assert calls == [(True, expect_answered)]

    step(expect_mirrors=True, expect_answered=True)
    # Stabs every query and rounds in float64: the scalar scan must answer.
    wide = Subscription("wide", [Constraint("n", Interval(-big - 1, big + 1), 5.0)])
    for engine in (reference, arrayed):
        engine.add_subscription(wide)
    step(expect_mirrors=False, expect_answered=False)
    assert arrayed.match(event, 1)[0].sid == "wide"
    for engine in (reference, arrayed):
        engine.cancel_subscription("wide")
    step(expect_mirrors=True, expect_answered=True)
