"""The array-native matching engine: FX-TM over structure-of-arrays.

:class:`ArrayTopKMatcher` computes exactly what
:class:`~repro.core.matcher.FXTMMatcher` computes — same algorithm, same
fold order, bitwise-identical scores — but swaps every pointer-chased
structure on the match path for flat arrays
(:mod:`repro.structures.soa`):

* a ranged probe is a ``bisect_right`` over the sorted lows plus a
  contiguous block scan (64-entry ``max_high`` skip table), instead of
  a tree walk materialising ``(low, high, sid, weight)`` tuples;
* score folding accumulates into a flat list indexed by a
  dense interned slot per subscription, instead of hashing sids into a
  per-match dict — a generation-stamped ``mark`` array makes resetting
  the accumulator free;
* top-k selection replays :class:`~repro.structures.treeset.BoundedTopK`
  admission on a ``heapq`` of ``(score, sid)`` tuples (same strict
  ``score > min`` rule, same ``(score, sid)`` eviction order) instead
  of a red-black tree.

Equivalence notes (pinned by ``tests/structures/test_soa_differential.py``):

* candidates emerge in the interval tree's exact ``(low, high, sid)``
  stab order, and the first-touch order of the slot accumulator equals
  the reference scoremap's dict-insertion order;
* a first touch stores ``0.0 + subscore`` — the very float the
  reference's ``scoremap.get(sid, 0.0) + subscore`` produces;
* proration arithmetic is performed on the same values in the same
  operation order as ``FXTMMatcher._fold_ranged``.

The optional numpy backend (``backend="numpy"``, ``"auto"`` detects it)
vectorises candidate selection and per-candidate subscore computation;
accumulation stays scalar and in-order, so elementwise IEEE-754 float64
operations keep the results bitwise-identical.  Slices of at most one
skip block, and attributes whose endpoints do not round-trip float64
exactly, transparently fall back to the pure-python scan — the numpy
backend can therefore only improve throughput, never change a result.
The pure-python backend is mandatory and fully featured.
"""

from __future__ import annotations

import os
import threading
from heapq import heappush, heapreplace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Interval
from repro.core.events import Event
from repro.core.interfaces import TopKMatcher
from repro.core.probecache import ProbeCache
from repro.core.results import MatchResult, sort_results
from repro.core.scoring import SUM, infer_kind
from repro.core.subscriptions import Constraint, Subscription
from repro.errors import SchemaError
from repro.structures.soa import (
    SoADiscreteBucket,
    SoADiscreteIndex,
    SoARangedIndex,
    numpy_available,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

# Honour the same numpy-less simulation switch as repro.structures.soa,
# so one env var disables the optional backend everywhere at once.
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None  # type: ignore[assignment]

__all__ = ["ArrayTopKMatcher"]

#: Below this many cutoff entries the numpy call overhead dominates the
#: vectorisation win (measured crossover a few hundred entries on CPython 3.11); the
#: scalar packed scan is used instead.
_NUMPY_MIN_CUTOFF = 512

_BACKENDS = ("auto", "python", "numpy")


class ArrayTopKMatcher(TopKMatcher):
    """FX-TM with structure-of-arrays probes and bucketed accumulation.

    ``backend`` selects the probe/scoring implementation: ``"python"``
    (pure-python arrays), ``"numpy"`` (vectorised candidate selection
    and subscore computation; raises :class:`ValueError` when numpy is
    not importable), or ``"auto"`` (numpy when available, else python).

    Everything else — proration, per-event weight overrides, UNKNOWN
    handling, budget multipliers, ``match_batch`` probe caching — is
    exactly the reference engine's behaviour.  The ``tracer`` attribute
    is accepted for interface compatibility but the array engine emits
    no pipeline spans; wrap it in
    :class:`~repro.core.stats.InstrumentedMatcher` for metrics.

    >>> from repro.core.attributes import Interval
    >>> from repro.core.subscriptions import Constraint, Subscription
    >>> from repro.core.events import Event
    >>> matcher = ArrayTopKMatcher(prorate=True)
    >>> matcher.add_subscription(Subscription("spring-break", [
    ...     Constraint("age", Interval(18, 24), weight=2.0),
    ...     Constraint("state", "Indiana", weight=1.0)]))
    >>> matcher.match(Event({"age": Interval(20, 30), "state": "Indiana"}), k=1)
    [MatchResult(sid='spring-break', score=...)]
    """

    name = "fx-tm-array"

    def __init__(self, backend: str = "auto", **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if backend == "numpy" and not numpy_available():
            raise ValueError("backend='numpy' requested but numpy is not importable")
        #: The resolved backend actually in use: "python" or "numpy".
        self.backend = "numpy" if backend != "python" and numpy_available() else "python"
        self._master_index: Dict[str, Any] = {}
        # Dense sid interning: slot -> sid (and back), with freed slots
        # recycled so the accumulator stays compact under churn.
        self._sid_of: List[Any] = []
        self._slot_of: Dict[Any, int] = {}
        self._free: List[int] = []
        # The bucketed score accumulator: acc[slot] holds the running
        # score; mark[slot] == gen iff the slot was touched this match
        # (generation stamping makes resetting between matches free).
        self._acc: List[float] = []
        self._mark: List[int] = []
        self._gen = 0
        # The accumulator is shared scratch, so one match at a time folds
        # into it, even for concurrent readers under ThreadSafeMatcher.
        self._scratch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern(self, sid: Any) -> int:
        slot = self._slot_of.get(sid)
        if slot is not None:
            return slot
        if self._free:
            slot = self._free.pop()
            self._sid_of[slot] = sid
        else:
            slot = len(self._sid_of)
            self._sid_of.append(sid)
            self._acc.append(0.0)
            self._mark.append(0)
        self._slot_of[sid] = slot
        return slot

    # ------------------------------------------------------------------
    # Algorithm 1: adding and removing subscriptions
    # ------------------------------------------------------------------
    def _index_subscription(self, subscription: Subscription) -> None:
        sid = subscription.sid
        # Resolve every kind before touching any structure (same
        # exception-safety order as the reference engine).
        kinds = [self._resolve_kind(constraint) for constraint in subscription.constraints]
        slot = self._intern(sid)
        for constraint, kind in zip(subscription.constraints, kinds):
            structure = self._master_index.get(constraint.attribute)
            if structure is None:
                structure = SoARangedIndex() if kind.is_ranged else SoADiscreteIndex()
                self._master_index[constraint.attribute] = structure
            if isinstance(structure, SoARangedIndex):
                interval = constraint.interval()
                structure.insert(interval.low, interval.high, sid, constraint.weight, slot)
            else:
                structure.insert(_discrete_values(constraint), sid, constraint.weight, slot)

    def _deindex_subscription(self, subscription: Subscription) -> None:
        sid = subscription.sid
        for constraint in subscription.constraints:
            structure = self._master_index[constraint.attribute]
            if isinstance(structure, SoARangedIndex):
                interval = constraint.interval()
                structure.delete(interval.low, interval.high, sid)
            else:
                structure.delete(_discrete_values(constraint), sid)
            if not len(structure):
                del self._master_index[constraint.attribute]
        slot = self._slot_of.pop(sid)
        self._sid_of[slot] = None
        self._free.append(slot)

    def _resolve_kind(self, constraint: Constraint) -> AttributeKind:
        kind = self.schema.kind_of(constraint.attribute)
        if kind is None:
            kind = self.schema.resolve(constraint.attribute, infer_kind(constraint))
        elif kind.is_ranged and not isinstance(constraint.value, (int, float, Interval)):
            raise SchemaError(
                f"constraint on {constraint.attribute!r} carries discrete value "
                f"{constraint.value!r} but the attribute is declared {kind.value}"
            )
        return kind

    def ensure_built(self) -> None:
        """Build every ranged attribute's read view (skip table, mirrors).

        Called by the benchmark harness after loading so the one-time
        view build is charged to load time, not the first match.  Every
        later add and cancel keeps the views current in place, so no
        match rebuilds one; an attribute first indexed after this call
        builds its view on its first probe.
        """
        want_numpy = self.backend == "numpy"
        for structure in self._master_index.values():
            if isinstance(structure, SoARangedIndex):
                structure.ensure_view(want_numpy)

    # ------------------------------------------------------------------
    # Algorithm 2: weighted partial matching
    # ------------------------------------------------------------------
    def _match_topk(self, event: Event, k: int) -> List[MatchResult]:
        with self._scratch_lock:
            if self.heat is None:
                order = self._fold_event(event)
            else:
                order = self._fold_event_heat(event, self.heat)
            return self._select_topk(order, k)

    def _next_gen(self) -> int:
        self._gen += 1
        return self._gen

    def _fold_event(self, event: Event) -> List[int]:
        """Fold every probed weight into the slot accumulator.

        Returns the touched slots in first-touch order — the array
        analogue of the reference scoremap's dict-insertion order.
        """
        gen = self._next_gen()
        order: List[int] = []
        use_event_weights = event.has_weights
        use_numpy = self.backend == "numpy"
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                if use_numpy and self._fold_ranged_numpy(
                    structure, attribute, qlo, qhi, override, order, gen
                ):
                    continue
                self._fold_ranged_python(
                    structure, attribute, qlo, qhi, override, order, gen
                )
            else:
                bucket = structure.buckets.get(value)
                if bucket is not None and len(bucket):
                    self._fold_pairs(zip(bucket.slots, bucket.weights), override, order, gen)
        return order

    def _fold_event_heat(self, event: Event, heat: Any) -> List[int]:
        """The heat-accounting twin of :meth:`_fold_event`.

        Ranged probes take :meth:`SoARangedIndex.candidates_heat` (the
        scalar block-skip scan — that is the path the skip-table
        counters describe) and fold through the cached-path machinery
        (:meth:`_scored_candidates` / :meth:`_fold_candidates_override`),
        which the differential suite pins as bitwise-identical to the
        scan-and-fold.  The plain path keeps zero accounting.
        """
        gen = self._next_gen()
        order: List[int] = []
        use_event_weights = event.has_weights
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                candidates, scanned, skipped, blocks = structure.candidates_heat(
                    qlo, qhi
                )
                heat.record_probe(
                    attribute,
                    "ranged",
                    candidates=len(candidates),
                    scanned=scanned,
                    blocks_skipped=skipped,
                    blocks_total=blocks,
                )
                heat.record_region(attribute, qlo, qhi)
                if not candidates:
                    continue
                if override is None:
                    scored = self._scored_candidates(
                        structure, candidates, attribute, qlo, qhi
                    )
                    self._fold_pairs(scored, None, order, gen, precomputed=True)
                else:
                    self._fold_candidates_override(
                        structure, candidates, attribute, qlo, qhi, override, order, gen
                    )
            else:
                bucket = structure.buckets.get(value)
                count = len(bucket) if bucket is not None else 0
                heat.record_probe(attribute, "discrete", candidates=count)
                if bucket is not None and count:
                    self._fold_pairs(
                        zip(bucket.slots, bucket.weights), override, order, gen
                    )
        return order

    def _proration_constant(self, attribute: str) -> int:
        kind = self.schema.kind_of(attribute)
        return kind.proration_constant if kind is not None else 0

    def _fold_ranged_python(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Optional[float],
        order: List[int],
        gen: int,
    ) -> None:
        """Scan-and-fold one ranged attribute, entirely in one pass.

        Arithmetic mirrors ``FXTMMatcher._fold_ranged`` operation for
        operation so the accumulated floats are bitwise-identical.
        """
        stop = index.cutoff(qhi)
        if not stop:
            return
        block_max, packed, _mirrors = index.ensure_view(self.backend == "numpy")
        acc = self._acc
        mark = self._mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        prorate = self.prorate
        if prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
            positive_width = event_width > 0
        use_override = override is not None
        for start in range(0, stop, 64):
            if block_max[start // 64] < qlo:
                continue
            end = start + 64
            for low, high, weight, slot in packed[start:end if end < stop else stop]:
                if high < qlo:
                    continue
                if use_override:
                    weight = override
                if prorate:
                    # Conditional expressions are builtin min/max with
                    # their exact tie semantics (first argument wins),
                    # minus the call overhead.
                    overlap = (
                        (qhi if qhi <= high else high)
                        - (qlo if qlo >= low else low)
                        + constant
                    )
                    if positive_width:
                        fraction = overlap / event_width
                        if fraction > 1.0:
                            fraction = 1.0
                    else:
                        fraction = 1.0
                    subscore = weight * fraction
                else:
                    subscore = weight
                if mark[slot] != gen:
                    mark[slot] = gen
                    append(slot)
                    acc[slot] = 0.0 + subscore if is_sum else combine(zero, subscore)
                elif is_sum:
                    acc[slot] = acc[slot] + subscore
                else:
                    acc[slot] = combine(acc[slot], subscore)

    def _fold_ranged_numpy(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Optional[float],
        order: List[int],
        gen: int,
    ) -> bool:
        """Vectorised scan-and-fold; returns False to request fallback.

        Scores through :meth:`_score_ranged_numpy`; accumulation stays
        scalar and in-order.
        """
        scored = self._score_ranged_numpy(index, attribute, qlo, qhi, override)
        if scored is None:
            return False
        slots, subscores = scored
        self._fold_pairs(zip(slots, subscores), None, order, gen, precomputed=True)
        return True

    def _score_ranged_numpy(
        self,
        index: SoARangedIndex,
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: Optional[float],
    ) -> Optional[Tuple[List[int], List[float]]]:
        """One stab's slots and subscores, vectorised; None requests fallback.

        Candidate selection and subscore computation run as elementwise
        float64 array operations (bitwise-identical to the scalar path).
        Falls back when the slice is small, the query endpoints are not
        float64-exact, or the attribute's mirrors could not be built.
        """
        if _np is None:
            return None
        stop = index.cutoff(qhi)
        if not stop:
            return [], []
        if stop < _NUMPY_MIN_CUTOFF or float(qlo) != qlo or float(qhi) != qhi:
            return None
        mirrors = index.ensure_view(True)[2]
        if mirrors is None:
            return None
        np_los, np_his, np_weights, np_slots = mirrors
        found = _np.flatnonzero(np_his[:stop] >= qlo)
        if not found.size:
            return [], []
        slot_list: List[int] = np_slots[found].tolist()
        if self.prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
            overlap = (
                _np.minimum(qhi, np_his[found])
                - _np.maximum(qlo, np_los[found])
                + constant
            )
            if event_width > 0:
                fraction = overlap / event_width
                _np.minimum(fraction, 1.0, out=fraction)
            else:
                fraction = _np.ones_like(overlap)
            if override is None:
                subscores: List[float] = (np_weights[found] * fraction).tolist()
            else:
                subscores = (override * fraction).tolist()
        elif override is None:
            subscores = np_weights[found].tolist()
        else:
            subscores = [override] * len(slot_list)
        return slot_list, subscores

    def _scan_scored(
        self, index: SoARangedIndex, attribute: str, qlo: Any, qhi: Any
    ) -> List[Tuple[int, float]]:
        """One stab's ``(slot, subscore)`` pairs in one pass, cacheable per stab key.

        Past the numpy cutoff the vectorised scorer answers; otherwise
        one walk over the packed rows, skipping blocks whose ``max_high``
        lies below ``qlo``.  Arithmetic mirrors ``FXTMMatcher._scored_ranged``
        so the pairs are bitwise-identical.  Valid only without per-event
        overrides — overrides fold from the raw candidates
        (:meth:`_fold_candidates_override`).
        """
        use_numpy = self.backend == "numpy"
        if use_numpy:
            vectorised = self._score_ranged_numpy(index, attribute, qlo, qhi, None)
            if vectorised is not None:
                slots, subscores = vectorised
                return list(zip(slots, subscores))
        stop = index.cutoff(qhi)
        if not stop:
            return []
        block_max, packed, _mirrors = index.ensure_view(use_numpy)
        scored: List[Tuple[int, float]] = []
        append = scored.append
        # Weights are floats, so an event without positive width scores
        # each one times 1.0, which is the weight itself.
        prorate = False
        if self.prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
            prorate = event_width > 0
        for start in range(0, stop, 64):
            if block_max[start // 64] < qlo:
                continue
            end = start + 64
            rows = packed[start:end if end < stop else stop]
            if prorate:
                for low, high, weight, slot in rows:
                    if high >= qlo:
                        fraction = (
                            (qhi if qhi <= high else high)
                            - (qlo if qlo >= low else low)
                            + constant
                        ) / event_width
                        append((slot, weight * (1.0 if fraction > 1.0 else fraction)))
            else:
                for _low, high, weight, slot in rows:
                    if high >= qlo:
                        append((slot, weight))
        return scored

    def _fold_pairs(
        self,
        pairs: Any,
        override: Optional[float],
        order: List[int],
        gen: int,
        precomputed: bool = False,
    ) -> None:
        """Fold ``(slot, weight-or-subscore)`` pairs into the accumulator.

        With ``precomputed`` the second element is a finished subscore;
        otherwise it is a stored weight that ``override`` may replace
        (the discrete fold — proration is a no-op for equality matches).
        """
        acc = self._acc
        mark = self._mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        use_override = override is not None and not precomputed
        for slot, subscore in pairs:
            if use_override:
                subscore = override
            if mark[slot] != gen:
                mark[slot] = gen
                append(slot)
                acc[slot] = 0.0 + subscore if is_sum else combine(zero, subscore)
            elif is_sum:
                acc[slot] = acc[slot] + subscore
            else:
                acc[slot] = combine(acc[slot], subscore)

    # ------------------------------------------------------------------
    # Top-k selection (Algorithm 2 lines 40-49, heapq replay)
    # ------------------------------------------------------------------
    def _select_topk(self, order: List[int], k: int) -> List[MatchResult]:
        acc = self._acc
        sid_of = self._sid_of
        include_nonpositive = self.include_nonpositive
        tracker = self.budget_tracker
        # heap holds (score, sid): heap[0] is the lexicographic minimum,
        # exactly ScoredTreeSet.find_min; heapreplace evicts it, exactly
        # BoundedTopK's remove-min-then-add under the strict > rule.
        heap: List[Tuple[float, Any]] = []
        if tracker is None:
            for slot in order:
                total = acc[slot]
                if total > 0.0 or include_nonpositive:
                    if len(heap) < k:
                        heappush(heap, (total, sid_of[slot]))
                    elif total > heap[0][0]:
                        heapreplace(heap, (total, sid_of[slot]))
        else:
            now = tracker.clock.now()
            states = tracker.states
            deactivate = tracker.deactivate_expired
            for slot in order:
                total = acc[slot]
                sid = sid_of[slot]
                state = states.get(sid)
                if state is not None:
                    if deactivate and state.expired(now):
                        total = 0.0
                    else:
                        total = total * state.multiplier(now)
                if total > 0.0 or include_nonpositive:
                    if len(heap) < k:
                        heappush(heap, (total, sid))
                    elif total > heap[0][0]:
                        heapreplace(heap, (total, sid))
        heap.sort(reverse=True)  # descending (score, sid): results order
        return sort_results([MatchResult(sid, total) for total, sid in heap])

    # ------------------------------------------------------------------
    # Batched matching: shared per-batch probe cache
    # ------------------------------------------------------------------
    def match_batch(
        self,
        events: Sequence[Event],
        k: int,
        probe_cache: Optional[ProbeCache] = None,
    ) -> List[List[MatchResult]]:
        """Match ``events`` in order with memoised probes.

        Same exactness contract as the reference engine.  A ranged
        stab-key miss scans the packed rows once (the vectorised scorer
        past the numpy cutoff) and caches the scored ``(slot, subscore)``
        pairs under the key.  As in the reference, a per-event weight
        override bypasses those pairs for its attribute and folds from
        the raw candidate positions, which are built and cached only for
        such events.  Hits and misses count one probe per stab key,
        whichever path touches it first.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        cache = probe_cache if probe_cache is not None else ProbeCache()
        out: List[List[MatchResult]] = []
        heat = self.heat
        with self._scratch_lock:
            for event in events:
                if heat is None:
                    order = self._fold_event_cached(event, cache)
                else:
                    order = self._fold_event_cached_heat(event, cache, heat)
                results = self._select_topk(order, k)
                self._settle(results)
                out.append(results)
        return out

    def _fold_event_cached(self, event: Event, cache: ProbeCache) -> List[int]:
        gen = self._next_gen()
        order: List[int] = []
        use_event_weights = event.has_weights
        use_numpy = self.backend == "numpy"
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                cache.record_stab(attribute, qlo, qhi)
                if override is None:
                    scored = cache.get_scored(attribute, qlo, qhi)
                    if scored is None:
                        scored = self._scan_scored(structure, attribute, qlo, qhi)
                        cache.put_scored(attribute, qlo, qhi, scored)
                    if scored:
                        self._fold_pairs(scored, None, order, gen, precomputed=True)
                    continue
                candidates = cache.get_candidates(attribute, qlo, qhi)
                if candidates is None:
                    candidates = structure.candidates(qlo, qhi, use_numpy=use_numpy)
                    cache.put_candidates(attribute, qlo, qhi, candidates)
                if candidates:
                    self._fold_candidates_override(
                        structure, candidates, attribute, qlo, qhi, override, order, gen
                    )
            else:
                pairs = cache.get_discrete(attribute, value)
                if pairs is None:
                    bucket = structure.buckets.get(value)
                    pairs = _bucket_pairs(bucket) if bucket is not None else []
                    cache.put_discrete(attribute, value, pairs)
                if pairs:
                    self._fold_pairs(pairs, override, order, gen)
        return order

    def _fold_event_cached_heat(
        self, event: Event, cache: ProbeCache, heat: Any
    ) -> List[int]:
        """The heat-accounting twin of :meth:`_fold_event_cached`.

        Cache hits are recorded as hits (no physical probe); misses
        record the miss plus the probe with its scan statistics.
        """
        gen = self._next_gen()
        order: List[int] = []
        use_event_weights = event.has_weights
        for attribute, value in event.known_items():
            structure = self._master_index.get(attribute)
            if structure is None:
                continue
            override = event.override_weight(attribute) if use_event_weights else None
            if isinstance(structure, SoARangedIndex):
                interval = event.interval_of(attribute)
                qlo, qhi = interval.low, interval.high
                heat.record_region(attribute, qlo, qhi)
                heat.record_cache(
                    attribute, "ranged", hit=cache.record_stab(attribute, qlo, qhi)
                )
                candidates = cache.get_candidates(attribute, qlo, qhi)
                if candidates is None:
                    probed = structure.candidates_heat(qlo, qhi)
                    candidates, scanned, skipped, blocks = probed
                    heat.record_probe(
                        attribute,
                        "ranged",
                        candidates=len(candidates),
                        scanned=scanned,
                        blocks_skipped=skipped,
                        blocks_total=blocks,
                    )
                    cache.put_candidates(attribute, qlo, qhi, candidates)
                if not candidates:
                    continue
                if override is None:
                    scored = cache.get_scored(attribute, qlo, qhi)
                    if scored is None:
                        scored = self._scored_candidates(
                            structure, candidates, attribute, qlo, qhi
                        )
                        cache.put_scored(attribute, qlo, qhi, scored)
                    self._fold_pairs(scored, None, order, gen, precomputed=True)
                else:
                    self._fold_candidates_override(
                        structure, candidates, attribute, qlo, qhi, override, order, gen
                    )
            else:
                pairs = cache.get_discrete(attribute, value)
                if pairs is None:
                    heat.record_cache(attribute, "discrete", hit=False)
                    bucket = structure.buckets.get(value)
                    pairs = _bucket_pairs(bucket) if bucket is not None else []
                    heat.record_probe(attribute, "discrete", candidates=len(pairs))
                    cache.put_discrete(attribute, value, pairs)
                else:
                    heat.record_cache(attribute, "discrete", hit=True)
                if pairs:
                    self._fold_pairs(pairs, override, order, gen)
        return order

    def _scored_candidates(
        self,
        index: SoARangedIndex,
        candidates: List[int],
        attribute: str,
        qlo: Any,
        qhi: Any,
    ) -> List[Tuple[Any, float]]:
        """One stab's ``(slot, subscore)`` pairs, cacheable per stab key.

        Valid only without per-event overrides — overrides fold from the
        raw candidates (:meth:`_fold_candidates_override`).
        """
        weights = index.weights
        if not self.prorate:
            slots = index.slots
            return [(slots[i], weights[i]) for i in candidates]
        los = index.los
        his = index.his
        slots = index.slots
        constant = self._proration_constant(attribute)
        event_width = qhi - qlo + constant
        scored: List[Tuple[Any, float]] = []
        for i in candidates:
            overlap = min(qhi, his[i]) - max(qlo, los[i]) + constant
            if event_width > 0:
                fraction = overlap / event_width
                if fraction > 1.0:
                    fraction = 1.0
            else:
                fraction = 1.0
            scored.append((slots[i], weights[i] * fraction))
        return scored

    def _fold_candidates_override(
        self,
        index: SoARangedIndex,
        candidates: List[int],
        attribute: str,
        qlo: Any,
        qhi: Any,
        override: float,
        order: List[int],
        gen: int,
    ) -> None:
        """Fold raw candidates with the event's override weight."""
        acc = self._acc
        mark = self._mark
        append = order.append
        aggregation = self.aggregation
        is_sum = aggregation is SUM
        combine = aggregation.combine
        zero = aggregation.zero
        los = index.los
        his = index.his
        slots = index.slots
        prorate = self.prorate
        if prorate:
            constant = self._proration_constant(attribute)
            event_width = qhi - qlo + constant
        for i in candidates:
            if prorate:
                overlap = min(qhi, his[i]) - max(qlo, los[i]) + constant
                if event_width > 0:
                    fraction = overlap / event_width
                    if fraction > 1.0:
                        fraction = 1.0
                else:
                    fraction = 1.0
                subscore = override * fraction
            else:
                subscore = override
            slot = slots[i]
            if mark[slot] != gen:
                mark[slot] = gen
                append(slot)
                acc[slot] = 0.0 + subscore if is_sum else combine(zero, subscore)
            elif is_sum:
                acc[slot] = acc[slot] + subscore
            else:
                acc[slot] = combine(acc[slot], subscore)


def _discrete_values(constraint: Constraint) -> Tuple[Any, ...]:
    """The bucket keys one discrete constraint indexes under."""
    return tuple(constraint.value) if constraint.is_set else (constraint.value,)


def _bucket_pairs(bucket: SoADiscreteBucket) -> List[Tuple[Any, float]]:
    """A bucket's ``(slot, weight)`` pairs in sid order (cacheable)."""
    return list(zip(bucket.slots, bucket.weights))
