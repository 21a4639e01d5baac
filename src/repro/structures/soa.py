"""Structure-of-arrays substrates for the array-native matching engine.

The pointer-based structures (AVL interval tree, red-black tree sets)
pay per-node Python-object overhead on every probe: attribute loads,
tuple construction, dict hashing.  This module stores each attribute's
constraints in *parallel arrays* instead, so the hot loops become
contiguous index arithmetic:

* :class:`SoARangedIndex` — parallel ``lo`` / ``hi`` / ``weight`` /
  ``slot`` / ``sid`` arrays kept sorted by the interval tree's exact
  ``(low, high, sid)`` key, plus the same per-64-entry ``max_high``
  skip table the flattened stab view uses.  A stab is a
  :func:`bisect.bisect_right` over the lows (cutting off every entry
  starting beyond ``qhi``) followed by a contiguous block scan that
  skips whole blocks whose ``max_high`` lies below ``qlo``.  Because
  the arrays are sorted by the same key the tree orders its in-order
  walk by, a scan emits candidates in *exactly* the tree's stab order —
  the precondition for bitwise-identical score folds.

* :class:`SoADiscreteIndex` — hash map from value to a
  :class:`SoADiscreteBucket` of parallel ``sid`` / ``weight`` / ``slot``
  arrays kept sorted by sid, mirroring ``IdTreeSet.get_all`` order.

``slot`` is the dense integer the matcher interns each sid to
(:mod:`repro.core.array_matcher`); carrying it next to the weight lets
the fold accumulate into a flat slot-indexed list without hashing sids.

The read-optimised view (skip table, packed scan rows, optional numpy
mirrors) is built once, by :meth:`SoARangedIndex.ensure_view` on the
first read, and from then on every ``insert``/``delete`` updates it in
place at the position the write already located.  Writes run under the
write side of ``ThreadSafeMatcher``'s lock, so readers never see a
write in progress and never rebuild anything; the one-time first build
is published as one tuple, so concurrent first readers build the same
view and either one's is complete.

The numpy mirrors exist only while every endpoint round-trips
``float64`` exactly (``float(v) == v``).  A per-write counter of inexact
endpoints drops them when it leaves 0 and rebuilds them once when it
returns to 0; meanwhile candidate selection stays on the pure-python
scan, which compares the original Python values and is therefore
always exact.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidIntervalError

try:  # Optional acceleration only; the pure-python path is mandatory.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

# REPRO_NO_NUMPY simulates a numpy-less install (the CI matrix runs the
# differential suite both ways without needing two environments).
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None  # type: ignore[assignment]

__all__ = [
    "SoADiscreteBucket",
    "SoADiscreteIndex",
    "SoARangedIndex",
    "numpy_available",
]

#: Entries per skip block; identical to the flattened stab view's block
#: size so the two engines skip the same work on the same workloads.
_BLOCK = 64


def numpy_available() -> bool:
    """Whether the optional numpy backend can be used in this process."""
    return _np is not None


#: One packed scan row ``(lo, hi, weight, slot)``: the scalar
#: scan-and-fold takes one indexed load plus a tuple unpack per candidate
#: instead of four list indexings.
_Row = Tuple[float, float, float, int]

#: The numpy mirrors ``(los, his, weights, slots)``.  Each array keeps
#: spare capacity past ``len(index)`` so a write shifts in place; only
#: that prefix is meaningful, and every reader slices or indexes below it.
_Mirrors = Tuple[Any, Any, Any, Any]

#: The read view ``(block_max, packed, mirrors)``.  ``mirrors`` is
#: ``None`` on the pure-python path, without numpy, and while any
#: endpoint is not float64-exact.
_RangedView = Tuple[List[float], List[_Row], Optional[_Mirrors]]


def _capacity(count: int) -> int:
    """Mirror length for ``count`` entries: 1/8 spare, at least one slot.

    Proportional spare keeps a cluster's many near-empty attributes
    (one per discrete-looking boolean, say) from each carrying a fixed
    reserve, and still makes growth a copy per ``count / 8`` inserts.
    """
    return count + (count >> 3) + 1


def _rounds(value: Any) -> bool:
    """Whether ``value``'s float64 image differs from it.

    Python int/float comparisons are exact, so ``float(v) != v`` detects
    any endpoint (e.g. an int beyond 2**53) whose float64 image would
    shift a candidate-selection comparison.  A value with no float64
    image at all counts as inexact too.
    """
    try:
        return float(value) != value
    except (OverflowError, TypeError, ValueError):
        return True


class SoARangedIndex:
    """One ranged attribute's constraints in structure-of-arrays form.

    >>> index = SoARangedIndex()
    >>> index.insert(0, 10, "s1", 2.0, slot=0)
    >>> index.insert(5, 20, "s2", 1.0, slot=1)
    >>> index.candidates(7, 7)
    [0, 1]
    """

    __slots__ = (
        "los", "his", "weights", "slots", "sids", "_keys", "_inexact", "_numpy", "_view",
    )

    def __init__(self) -> None:
        #: Parallel arrays sorted by the tree's ``(low, high, sid)`` key.
        self.los: List[float] = []
        self.his: List[float] = []
        self.weights: List[float] = []
        self.slots: List[int] = []
        self.sids: List[Any] = []
        # The sort keys themselves, kept for O(log n) position lookup.
        self._keys: List[Tuple[float, float, Any]] = []
        # Endpoints (lows and highs each count) that float64 would round.
        self._inexact = 0
        # Whether the view carries numpy mirrors; set by the first numpy read.
        self._numpy = False
        self._view: Optional[_RangedView] = None

    def __len__(self) -> int:
        return len(self.los)

    def insert(self, low: float, high: float, sid: Any, weight: float, slot: int) -> None:
        """Insert ``[low, high]`` for ``sid`` (interned to ``slot``).

        ``O(log n)`` to locate plus ``O(n)`` array shifting; a built read
        view is updated in place.  Raises
        :class:`~repro.errors.InvalidIntervalError` when ``low > high``
        and :class:`KeyError` on a duplicate ``(low, high, sid)`` — the
        interval tree's exact contracts.
        """
        if low > high:
            raise InvalidIntervalError(low, high)
        key = (low, high, sid)
        position = bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            raise KeyError(f"duplicate interval entry: {key!r}")
        self._keys.insert(position, key)
        self.los.insert(position, low)
        self.his.insert(position, high)
        self.weights.insert(position, weight)
        self.slots.insert(position, slot)
        self.sids.insert(position, sid)
        self._inexact += _rounds(low) + _rounds(high)
        view = self._view
        if view is not None:
            row = (low, high, weight, slot)
            view[1].insert(position, row)
            _block_insert(view[0], self.his, position)
            self._update_mirrors(view, position, row)

    def delete(self, low: float, high: float, sid: Any) -> None:
        """Remove the entry ``(low, high, sid)``.

        Raises :class:`KeyError` when absent.  A built read view is
        updated in place.
        """
        key = (low, high, sid)
        position = bisect_left(self._keys, key)
        if position >= len(self._keys) or self._keys[position] != key:
            raise KeyError(f"no interval entry: {key!r}")
        del self._keys[position]
        del self.los[position]
        del self.his[position]
        del self.weights[position]
        del self.slots[position]
        del self.sids[position]
        self._inexact -= _rounds(low) + _rounds(high)
        view = self._view
        if view is not None:
            del view[1][position]
            _block_delete(view[0], self.his, position, high)
            self._update_mirrors(view, position, None)

    # ------------------------------------------------------------------
    # The read view
    # ------------------------------------------------------------------
    def ensure_view(self, want_numpy: bool = False) -> _RangedView:
        """Return the read view, building it on the first read.

        The first call builds the skip table and packed rows in ``O(n)``
        — plus the numpy mirrors when ``want_numpy`` — and publishes them
        as one tuple.  From then on writers keep the view current, so
        this is ``O(1)``; the mirrors are added once if a later call is
        the first to want them, and are never dropped for a call that
        does not.
        """
        view = self._view
        if view is None:
            return self._build_view(want_numpy)
        if want_numpy and not self._numpy and _np is not None:
            self._numpy = True
            view = (view[0], view[1], None if self._inexact else self._build_mirrors())
            self._view = view
        return view

    def _build_view(self, want_numpy: bool) -> _RangedView:
        """Build and publish the whole read view; ``O(n)``."""
        if want_numpy and _np is not None:
            self._numpy = True
        his = self.his
        block_max = [
            max(his[start:start + _BLOCK]) for start in range(0, len(his), _BLOCK)
        ]
        packed = list(zip(self.los, his, self.weights, self.slots))
        mirrors = self._build_mirrors() if self._numpy and not self._inexact else None
        view: _RangedView = (block_max, packed, mirrors)
        self._view = view
        return view

    def _build_mirrors(self) -> _Mirrors:
        """Fresh float64/int64 mirrors of the arrays, with spare capacity."""
        count = len(self.los)
        capacity = _capacity(count)
        los = _np.empty(capacity, dtype=_np.float64)
        his = _np.empty(capacity, dtype=_np.float64)
        weights = _np.empty(capacity, dtype=_np.float64)
        slots = _np.empty(capacity, dtype=_np.int64)
        los[:count] = self.los
        his[:count] = self.his
        weights[:count] = self.weights
        slots[:count] = self.slots
        return los, his, weights, slots

    def _update_mirrors(
        self, view: _RangedView, position: int, row: Optional[_Row]
    ) -> None:
        """Apply one write (``row`` inserted, or ``None``: deleted) to the mirrors.

        Drops them while an endpoint is inexact and rebuilds them once
        when the last inexact endpoint leaves.
        """
        if not self._numpy:
            return
        mirrors = view[2]
        if self._inexact:
            if mirrors is not None:
                self._view = (view[0], view[1], None)
            return
        if mirrors is None:
            self._view = (view[0], view[1], self._build_mirrors())
            return
        count = len(self.los)
        if row is None:
            for array in mirrors:
                array[position:count] = array[position + 1:count + 1]
            return
        if count > len(mirrors[0]):
            grown: List[Any] = []
            for array in mirrors:
                bigger = _np.empty(_capacity(count), dtype=array.dtype)
                bigger[:count - 1] = array[:count - 1]
                grown.append(bigger)
            mirrors = (grown[0], grown[1], grown[2], grown[3])
            self._view = (view[0], view[1], mirrors)
        for array, value in zip(mirrors, row):
            array[position + 1:count] = array[position:count - 1]
            array[position] = value

    # ------------------------------------------------------------------
    # Stabbing
    # ------------------------------------------------------------------
    def cutoff(self, qhi: float) -> int:
        """Index of the first entry with ``low > qhi`` (scan upper bound)."""
        return bisect_right(self.los, qhi)

    def candidates(self, qlo: float, qhi: float, use_numpy: bool = False) -> List[int]:
        """Indices of every entry overlapping ``[qlo, qhi]``, in order.

        Pure-python path: ``bisect_right`` over the lows, then a
        contiguous scan that skips whole 64-entry blocks whose
        ``max_high`` lies below ``qlo``.  With ``use_numpy`` (and
        float64-exact data) the scan is a vectorised compare over the
        mirror arrays; slices at most one block long stay on the scalar
        path, where the numpy call overhead would dominate.
        """
        stop = bisect_right(self.los, qhi)
        if not stop:
            return []
        view = self.ensure_view(want_numpy=use_numpy)
        mirrors = view[2]
        if use_numpy and mirrors is not None and float(qlo) == qlo and stop > _BLOCK:
            found: List[int] = _np.flatnonzero(mirrors[1][:stop] >= qlo).tolist()
            return found
        his = self.his
        block_max = view[0]
        out: List[int] = []
        append = out.append
        for start in range(0, stop, _BLOCK):
            if block_max[start // _BLOCK] < qlo:
                continue
            for index in range(start, min(start + _BLOCK, stop)):
                if his[index] >= qlo:
                    append(index)
        return out

    def candidates_heat(
        self, qlo: float, qhi: float
    ) -> Tuple[List[int], int, int, int]:
        """:meth:`candidates` plus scan accounting for the heat monitor.

        Returns ``(indices, scanned, blocks_skipped, blocks_total)``.
        Always takes the scalar block-skip path — the counters describe
        skip-table behaviour, which the vectorised compare bypasses —
        and the plain :meth:`candidates` path carries no accounting.
        """
        stop = bisect_right(self.los, qhi)
        if not stop:
            return [], 0, 0, 0
        block_max = self.ensure_view()[0]
        his = self.his
        out: List[int] = []
        append = out.append
        scanned = 0
        blocks_skipped = 0
        blocks_total = 0
        for start in range(0, stop, _BLOCK):
            blocks_total += 1
            if block_max[start // _BLOCK] < qlo:
                blocks_skipped += 1
                continue
            block_stop = min(start + _BLOCK, stop)
            scanned += block_stop - start
            for index in range(start, block_stop):
                if his[index] >= qlo:
                    append(index)
        return out, scanned, blocks_skipped, blocks_total


def _block_insert(block_max: List[float], his: List[float], position: int) -> None:
    """Update the skip table after ``his`` gained an entry at ``position``.

    Each block from ``position``'s on takes one entry in (the new one, or
    the entry the block before gave away) and gives its own last entry to
    the next block.  A block's maximum is rescanned only when the entry
    it gave away held that maximum and the one it took in is smaller.
    """
    count = len(his)
    block = position // _BLOCK
    start = block * _BLOCK
    entering = his[position]
    blocks = len(block_max)
    while block < blocks:
        current = block_max[block]
        leaving_at = start + _BLOCK
        if leaving_at >= count:  # the last block: nothing leaves
            if entering > current:
                block_max[block] = entering
            return
        leaving = his[leaving_at]
        if entering > current:
            block_max[block] = entering
        elif entering < current and leaving == current:
            block_max[block] = max(his[start:leaving_at])
        entering = leaving
        start = leaving_at
        block += 1
    block_max.append(entering)  # a new trailing block of one entry


def _block_delete(
    block_max: List[float], his: List[float], position: int, high: float
) -> None:
    """Update the skip table after ``his`` lost the entry ``high`` at ``position``.

    The mirror image of :func:`_block_insert`: each block from
    ``position``'s on gives one entry out (the deleted one, or its first
    entry to the block before) and takes the next block's first entry in.
    """
    count = len(his)
    block = position // _BLOCK
    start = block * _BLOCK
    leaving = high
    blocks = len(block_max)
    while block < blocks:
        if start >= count:  # the trailing block emptied
            block_max.pop()
            return
        current = block_max[block]
        entering_at = start + _BLOCK - 1
        if entering_at >= count:  # the last block: nothing enters
            if leaving == current:
                block_max[block] = max(his[start:count])
            return
        entering = his[entering_at]
        if entering > current:
            block_max[block] = entering
        elif entering < current and leaving == current:
            block_max[block] = max(his[start:entering_at + 1])
        leaving = entering
        start += _BLOCK
        block += 1


class SoADiscreteBucket:
    """One discrete value's matching constraints, sorted by sid."""

    __slots__ = ("sids", "weights", "slots")

    def __init__(self) -> None:
        self.sids: List[Any] = []
        self.weights: List[float] = []
        self.slots: List[int] = []

    def __len__(self) -> int:
        return len(self.sids)

    def add(self, sid: Any, weight: float, slot: int) -> None:
        """Insert ``sid``; raises :class:`KeyError` when already present."""
        position = bisect_left(self.sids, sid)
        if position < len(self.sids) and self.sids[position] == sid:
            raise KeyError(f"sid already present: {sid!r}")
        self.sids.insert(position, sid)
        self.weights.insert(position, weight)
        self.slots.insert(position, slot)

    def remove(self, sid: Any) -> None:
        """Remove ``sid``; raises :class:`KeyError` when absent."""
        position = bisect_left(self.sids, sid)
        if position >= len(self.sids) or self.sids[position] != sid:
            raise KeyError(f"sid not present: {sid!r}")
        del self.sids[position]
        del self.weights[position]
        del self.slots[position]


class SoADiscreteIndex:
    """Hash map of value -> :class:`SoADiscreteBucket` for one attribute.

    The sid-sorted parallel arrays reproduce ``IdTreeSet.get_all``'s
    retrieval order, so a bucket scan folds weights in exactly the order
    the reference engine does.
    """

    __slots__ = ("buckets", "_size")

    def __init__(self) -> None:
        self.buckets: Dict[Any, SoADiscreteBucket] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, values: Tuple[Any, ...], sid: Any, weight: float, slot: int) -> None:
        """Index ``sid`` under every value (one entry per set member)."""
        for value in values:
            bucket = self.buckets.get(value)
            if bucket is None:
                bucket = SoADiscreteBucket()
                self.buckets[value] = bucket
            bucket.add(sid, weight, slot)
        self._size += 1

    def delete(self, values: Tuple[Any, ...], sid: Any) -> None:
        """Remove ``sid`` from every value's bucket."""
        for value in values:
            bucket = self.buckets[value]
            bucket.remove(sid)
            if not len(bucket):
                del self.buckets[value]
        self._size -= 1
