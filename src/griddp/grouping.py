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
arithmetic, smallest maximizer on ties), which is always one of the counts.
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


def _packing_order(counts: dict[str, int], capacity: int) -> tuple[int, list[str]]:
    """The capacity as an int and the users, given with their sample
    counts, in packing order; InvalidCapacity below 1, ZeroTotal when there
    is no sample to pack."""
    capacity = require_int("array capacity", capacity, 1, InvalidCapacity)
    if not any(counts.values()):
        raise ZeroTotal("no samples to group")
    # Non-increasing by count, ties by token.
    return capacity, sorted(counts, key=lambda u: (-counts[u], u))


def wrap_around(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> list[ArrayGroup]:
    """Pack one grid's samples contiguously; return only the full arrays."""
    capacity, users = _packing_order({u: len(v) for u, v in samples_by_user.items()}, capacity)
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


def _best_fit_placement(counts: dict[str, int], capacity: int) -> list[tuple[str, int, int]]:
    """A best-fit packing of users given with their sample counts: (user,
    block size, array index) per user, in packing order."""
    capacity, users = _packing_order(counts, capacity)
    sizes = [min(counts[u], capacity) for u in users]
    return list(zip(users, sizes, _assign_best_fit(sizes, capacity)))


def best_fit(
    samples_by_user: dict[str, tuple[float, ...]], capacity: int
) -> list[ArrayGroup]:
    """Pack one grid's samples keeping each user inside a single array."""
    placement = _best_fit_placement({u: len(v) for u, v in samples_by_user.items()}, capacity)
    n_arrays = max(idx for _, _, idx in placement) + 1
    values: list[list[float]] = [[] for _ in range(n_arrays)]
    sources: list[list[str]] = [[] for _ in range(n_arrays)]
    for user, size, idx in placement:
        values[idx].extend(map(float, samples_by_user[user][:size]))
        sources[idx].extend([user] * size)
    return [
        ArrayGroup(i, int(capacity), tuple(v), tuple(s))
        for i, (v, s) in enumerate(zip(values, sources))
    ]


def best_fit_count(m_list, capacity: int) -> int:
    """Number of arrays best_fit opens for the given counts alone."""
    counts = require_counts(m_list)
    capacity = require_int("array capacity", capacity, 1, InvalidCapacity)
    # packing order is non-increasing by count, so by clipped size too
    sizes = sorted((min(m, capacity) for m in counts), reverse=True)
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
