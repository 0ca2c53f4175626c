"""Packing per-user samples into fixed-capacity arrays.

Two strategies over one grid's samples, both clipping each user to their
first min(m_l, capacity) samples and processing users in non-increasing
count order (ties by token):

- wrap_around: fills arrays contiguously, splitting a user's block across
  array boundaries; only completely full arrays are returned, so the count
  equals floor(sum_l min(m_l, capacity) / capacity) and any user touches at
  most two adjacent arrays.
- best_fit: places each user's whole block into the least-indexed most
  filled array with room, so every user touches exactly one array and no
  array is ever split. Arrays are bucketed by fill level, so packing n
  users takes O(n log n).

Capacity selection rules: the lower median of the counts, or the integer
maximizing sum_l min(m_l, c) / sqrt(c) (compared in exact integer
arithmetic, smallest maximizer on ties).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import EmptyValues, InvalidCapacity, ZeroTotal, require_counts, require_int

STRATEGY_WRAP = "wrap"
STRATEGY_BEST = "best"
STRATEGIES = (STRATEGY_WRAP, STRATEGY_BEST)


@dataclass(frozen=True)
class ArrayGroup:
    """One packed array: values plus the user each value came from."""

    index: int
    capacity: int
    values: tuple[float, ...]
    source_users: tuple[str, ...]


def array_count_k(m_list, capacity: int) -> int:
    """Number of full arrays produced by wrap_around."""
    counts = require_counts(m_list)
    capacity = require_int("array capacity", capacity, 1, InvalidCapacity)
    return sum(min(m, capacity) for m in counts) // capacity


def median_mub(m_list) -> int:
    """Lower median of the counts (the smaller middle element when even)."""
    counts = sorted(require_counts(m_list))
    return counts[(len(counts) - 1) // 2]


def optimized_mub(m_list) -> int:
    """Integer c in [min m, max m] maximizing sum_l min(m_l, c) / sqrt(c).

    The comparison S(c1)^2 * c2 > S(c2)^2 * c1 is done in integers, so the
    maximizer (and the smallest-on-tie rule) is exact.
    """
    counts = sorted(require_counts(m_list))
    lo, hi = counts[0], counts[-1]
    best_c = lo
    best_s = sum(min(m, lo) for m in counts)
    # Walk c upward, maintaining sum(min(m, c)) incrementally.
    idx = 0
    prefix = 0
    while idx < len(counts) and counts[idx] < lo:
        prefix += counts[idx]
        idx += 1
    for c in range(lo, hi + 1):
        while idx < len(counts) and counts[idx] < c:
            prefix += counts[idx]
            idx += 1
        s = prefix + c * (len(counts) - idx)
        if s * s * best_c > best_s * best_s * c:
            best_c, best_s = c, s
    return best_c


def _packing_order(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> tuple[int, list[str]]:
    """The capacity as an int and the users in packing order; InvalidCapacity
    below 1, ZeroTotal when there is no sample to pack."""
    capacity = require_int("array capacity", capacity, 1, InvalidCapacity)
    if not samples_by_user or all(len(v) == 0 for v in samples_by_user.values()):
        raise ZeroTotal("no samples to group")
    # Non-increasing by count, ties by token.
    return capacity, sorted(samples_by_user, key=lambda u: (-len(samples_by_user[u]), u))


def wrap_around(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> list[ArrayGroup]:
    """Pack one grid's samples contiguously; return only the full arrays."""
    capacity, users = _packing_order(samples_by_user, capacity)
    values: list[float] = []
    sources: list[str] = []
    for user in users:
        block = samples_by_user[user][:capacity]
        values.extend(map(float, block))
        sources.extend([user] * len(block))
    # consecutive cuts bound the full arrays; a partial tail is dropped
    cuts = range(0, len(values) + 1, capacity)
    return [
        ArrayGroup(i, capacity, tuple(values[lo:hi]), tuple(sources[lo:hi]))
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]


def _assign_best_fit(sizes: list[int], capacity: int) -> list[int]:
    """Array index per block: least-indexed most-filled array with room.

    Arrays are bucketed by fill level: `levels` is the sorted list of levels
    that hold at least one array and `at[w]` a min-heap of the indices at
    level w. A block of size r goes to the smallest index at the highest
    level <= capacity - r, or opens a new array, in O(log n) per block.
    """
    levels: list[int] = []
    at: dict[int, list[int]] = {}
    n_arrays = 0
    assignment: list[int] = []
    for r in sizes:
        pos = bisect_right(levels, capacity - r)
        if pos:
            fill = levels[pos - 1]
            heap = at[fill]
            idx = heappop(heap)
            if not heap:
                del at[fill]
                del levels[pos - 1]
        else:
            fill, idx = 0, n_arrays
            n_arrays += 1
        fill += r
        if fill in at:
            heappush(at[fill], idx)
        else:
            at[fill] = [idx]
            insort(levels, fill)
        assignment.append(idx)
    return assignment


def _best_fit_values(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> tuple[list[tuple[str, int, int]], list[list[float]]]:
    """A best-fit packing: (user, block size, array index) per user in
    packing order, and each array's values as floats in that order."""
    capacity, users = _packing_order(samples_by_user, capacity)
    sizes = [min(len(samples_by_user[u]), capacity) for u in users]
    assignment = _assign_best_fit(sizes, capacity)
    values: list[list[float]] = [[] for _ in range(max(assignment) + 1)]
    for user, size, idx in zip(users, sizes, assignment):
        values[idx].extend(map(float, samples_by_user[user][:size]))
    return list(zip(users, sizes, assignment)), values


def best_fit(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> list[ArrayGroup]:
    """Pack one grid's samples keeping each user inside a single array."""
    placement, values = _best_fit_values(samples_by_user, capacity)
    sources: list[list[str]] = [[] for _ in values]
    for user, size, idx in placement:
        sources[idx].extend([user] * size)
    return [
        ArrayGroup(i, int(capacity), tuple(v), tuple(s))
        for i, (v, s) in enumerate(zip(values, sources))
    ]


def best_fit_count(m_list, capacity: int) -> int:
    """Number of arrays best_fit opens for the given counts alone."""
    counts = require_counts(m_list)
    capacity = require_int("array capacity", capacity, 1, InvalidCapacity)
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    sizes = [min(counts[i], capacity) for i in order]
    assignment = _assign_best_fit(sizes, capacity)
    return max(assignment) + 1


def array_means(groups: list[ArrayGroup]) -> list[float]:
    """Mean of each array, in array index order."""
    if not groups:
        raise EmptyValues("no arrays to average")
    out = []
    for g in groups:
        if not g.values:
            raise EmptyValues(f"array {g.index} is empty")
        out.append(sum(g.values) / len(g.values))
    return out
