"""Packing per-user samples into fixed-capacity arrays.

Both strategies clip each user to their first min(m_l, capacity) samples
and place the users in packing order, non-increasing by count (ties by
token). They share one layout, the blocks laid end to end, and differ only
in the order of the blocks and where the layout is cut into arrays
(_pack):

- wrap_around: the blocks in packing order, cut at every multiple of the
  capacity; only completely full arrays are returned, so the count equals
  floor(sum_l min(m_l, capacity) / capacity) and any user touches at most
  two adjacent arrays.
- best_fit: each block goes whole into the least-indexed most filled array
  with room, so every user touches exactly one array and no array is ever
  split; the blocks are laid out by array and cut at the running fills.
  Arrays are bucketed by fill level, so packing n users takes O(n log n).

Capacity selection rules: the lower median of the counts, or the integer
maximizing sum_l min(m_l, c) / sqrt(c) (compared in exact integer
arithmetic, smallest maximizer on ties), which is always one of the counts.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate

from .dataset import left_sum
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
    """Integer c in [min m, max m] maximizing S(c) / sqrt(c), S(c) = sum_l min(m_l, c).

    Between two consecutive counts S(c) = P + k*c with P > 0, so S(c) / sqrt(c)
    falls and then rises there, and its maximum over the integers is at a
    count: only the counts are scanned. The comparison
    S(c1)^2 * c2 > S(c2)^2 * c1 is done in integers, so the maximizer (and
    the smallest-on-tie rule) is exact.
    """
    counts = sorted(require_counts(m_list))
    n = len(counts)
    best_c, best_s = counts[0], 0  # the first count's S beats 0
    below = 0  # sum of the counts before index i
    for i, c in enumerate(counts):
        s = below + c * (n - i)
        if s * s * best_c > best_s * best_s * c:
            best_c, best_s = c, s
        below += c
    return best_c


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


def _pack(
    counts: list[int], strategy: str, capacity: int
) -> tuple[list[int], list[int], list[int]]:
    """The packing layout of one grid whose counts are given in token order.

    Returns the users' positions in layout order, each one's block size
    min(m, capacity) in that order, and the cuts: array i holds the samples
    cuts[i] to cuts[i + 1] of the blocks laid end to end. Wrap-around lays
    the users out in packing order and cuts at the multiples of the capacity
    through the last full array; best fit places them in packing order,
    sorts the blocks stably by array and cuts at the running fills.
    InvalidCapacity below 1, ZeroTotal when there is no sample to pack.
    """
    capacity = require_int("array capacity", capacity, 1, InvalidCapacity)
    if not any(counts):
        raise ZeroTotal("no samples to group")
    # Non-increasing by count; the sort is stable, so ties stay in token order.
    order = sorted(range(len(counts)), key=lambda i: -counts[i])
    sizes = [min(counts[i], capacity) for i in order]
    if strategy == STRATEGY_WRAP:
        return order, sizes, list(range(0, sum(sizes) + 1, capacity))
    arrays = _assign_best_fit(sizes, capacity)
    fills = [0] * (max(arrays) + 1)
    for idx, r in zip(arrays, sizes):
        fills[idx] += r
    laid = sorted(range(len(order)), key=arrays.__getitem__)
    return [order[i] for i in laid], [sizes[i] for i in laid], list(accumulate(fills, initial=0))


def _arrays(samples_by_user: dict, strategy: str, capacity: int) -> list[ArrayGroup]:
    """The arrays of one grid's samples packed with the given strategy."""
    users = sorted(samples_by_user)
    order, sizes, cuts = _pack([len(samples_by_user[u]) for u in users], strategy, capacity)
    values: list[float] = []
    sources: list[str] = []
    for i, r in zip(order, sizes):
        values.extend(map(float, samples_by_user[users[i]][:r]))
        sources.extend([users[i]] * r)
    return [
        ArrayGroup(i, int(capacity), tuple(values[lo:hi]), tuple(sources[lo:hi]))
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]


def wrap_around(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> list[ArrayGroup]:
    """Pack one grid's samples contiguously; return only the full arrays."""
    return _arrays(samples_by_user, STRATEGY_WRAP, capacity)


def best_fit(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> list[ArrayGroup]:
    """Pack one grid's samples keeping each user inside a single array."""
    return _arrays(samples_by_user, STRATEGY_BEST, capacity)


def best_fit_count(m_list, capacity: int) -> int:
    """Number of arrays best_fit opens for the given counts alone."""
    _, _, cuts = _pack(require_counts(m_list), STRATEGY_BEST, capacity)
    return len(cuts) - 1


def array_means(groups: list[ArrayGroup]) -> list[float]:
    """Mean of each array, in array index order."""
    if not groups:
        raise EmptyValues("no arrays to average")
    for g in groups:
        if not g.values:
            raise EmptyValues(f"array {g.index} is empty")
    return [left_sum(g.values) / len(g.values) for g in groups]
