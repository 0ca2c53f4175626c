"""Array packing strategies and capacity selection rules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from griddp.errors import EmptyValues, InvalidCapacity, NonPositiveCount, ZeroTotal
from griddp.grouping import (
    ArrayGroup,
    _assign_best_fit,
    array_count_k,
    array_means,
    best_fit,
    best_fit_count,
    median_mub,
    optimized_mub,
    wrap_around,
)


def _samples(counts):
    # user u01 gets counts[0] samples valued 1.0, u02 gets 2.0, ...
    return {
        f"u{i + 1:02d}": tuple(float(i + 1) for _ in range(c))
        for i, c in enumerate(counts)
    }


def test_wrap_around_worked_example():
    groups = wrap_around(_samples([4, 3, 2, 2]), 4)
    assert len(groups) == 2 == array_count_k([4, 3, 2, 2], 4)
    assert groups[0].source_users == ("u01",) * 4
    assert groups[1].source_users == ("u02", "u02", "u02", "u03")
    assert all(len(g.values) == 4 for g in groups)


def test_wrap_around_clips_each_user_to_capacity():
    groups = wrap_around(_samples([7, 1]), 3)
    # user u01 contributes min(7, 3) = 3 samples
    placed = [u for g in groups for u in g.source_users]
    assert placed.count("u01") == 3
    assert len(groups) == (3 + 1) // 3


def test_best_fit_worked_example():
    groups = best_fit(_samples([4, 3, 2, 2]), 4)
    assert len(groups) == 3 == best_fit_count([4, 3, 2, 2], 4)
    by_user = {}
    for g in groups:
        for u in g.source_users:
            by_user.setdefault(u, set()).add(g.index)
    assert all(len(ixs) == 1 for ixs in by_user.values())
    assert by_user["u03"] == by_user["u04"]


def test_best_fit_prefers_most_filled_then_least_index():
    # u01 fills A0 to 4/5, u02 opens A1 at 3/5; u03 (size 1) fits both and
    # must go to the fuller A0.
    groups = best_fit(_samples([4, 3, 1]), 5)
    assert groups[0].source_users == ("u01", "u01", "u01", "u01", "u03")
    assert groups[1].source_users == ("u02", "u02", "u02")
    # equal fills resolve to the least index: u04 fits A0 and A1 at 4/5 each
    groups = best_fit(_samples([4, 4, 3, 1]), 5)
    assert groups[0].source_users == ("u01", "u01", "u01", "u01", "u04")


def test_median_mub_lower_middle():
    assert median_mub([1, 46, 417]) == 46
    assert median_mub([2, 4, 6, 8]) == 4
    assert median_mub([5]) == 5


def test_optimized_mub_examples():
    assert optimized_mub([1, 4, 9]) == 9
    # ties resolved to the smallest capacity
    assert optimized_mub([1, 1, 1, 9]) == 1


def _optimized_mub_oracle(counts):
    """The integer walk over every c in [min m, max m], S(c) kept incrementally."""
    counts = sorted(counts)
    lo, hi = counts[0], counts[-1]
    best_c = lo
    best_s = sum(min(m, lo) for m in counts)
    idx = 0
    prefix = 0
    for c in range(lo, hi + 1):
        while idx < len(counts) and counts[idx] < c:
            prefix += counts[idx]
            idx += 1
        s = prefix + c * (len(counts) - idx)
        if s * s * best_c > best_s * best_s * c:
            best_c, best_s = c, s
    return best_c


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=12))
def test_optimized_mub_matches_integer_walk(counts):
    assert optimized_mub(counts) == _optimized_mub_oracle(counts)


def test_optimized_mub_scans_only_the_counts():
    # the integer walk would visit 10^12 capacities
    assert optimized_mub([1, 5, 10**12]) == 10**12


def _objective(counts, c):
    return Fraction(sum(min(m, c) for m in counts)) ** 2 / c


def test_optimized_mub_is_exact_argmax():
    rnd = random.Random(77)
    for _ in range(200):
        counts = [rnd.randint(1, 30) for _ in range(rnd.randint(1, 8))]
        got = optimized_mub(counts)
        lo, hi = min(counts), max(counts)
        best = max(range(lo, hi + 1), key=lambda c: (_objective(counts, c), -c))
        assert got == best, (counts, got, best)


def test_array_count_k_formula():
    assert array_count_k([4, 3, 2, 2], 4) == 2
    assert array_count_k([1], 4) == 0
    assert array_count_k([5, 5], 5) == 2


def test_grouping_errors():
    with pytest.raises(InvalidCapacity):
        array_count_k([1, 2], 0)
    with pytest.raises(ZeroTotal):
        array_count_k([], 2)
    with pytest.raises(NonPositiveCount):
        array_count_k([0, 2], 2)
    with pytest.raises(ZeroTotal):
        wrap_around({}, 2)
    with pytest.raises(EmptyValues):
        array_means([])
    with pytest.raises(EmptyValues, match="array 0 is empty"):
        array_means([ArrayGroup(0, 2, (), ())])


def test_array_means_values():
    groups = wrap_around(_samples([2, 2]), 2)
    assert array_means(groups) == [1.0, 2.0]


counts_strategy = st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=8)


@given(counts_strategy, st.integers(min_value=1, max_value=18))
@settings(max_examples=150)
def test_wrap_invariants(counts, capacity):
    groups = wrap_around(_samples(counts), capacity)
    assert len(groups) == array_count_k(counts, capacity)
    # all returned arrays are exactly full
    assert all(len(g.values) == capacity for g in groups)
    # any user's placements sit in at most 2 adjacent arrays
    where = {}
    for g in groups:
        for u in g.source_users:
            where.setdefault(u, []).append(g.index)
    for ixs in where.values():
        assert len(set(ixs)) <= 2
        assert max(ixs) - min(ixs) <= 1


def _wrap_around_oracle(samples_by_user, capacity):
    """Reference wrap-around: place one sample at a time, opening an array
    whenever the current one fills; this is the routine wrap_around used
    before it sliced flat lists, and the fast packing must reproduce it."""
    values, sources = [], []
    cursor = 0
    # non-increasing by count, ties by token
    for user in sorted(samples_by_user, key=lambda u: (-len(samples_by_user[u]), u)):
        block = samples_by_user[user][: min(len(samples_by_user[user]), capacity)]
        for v in block:
            while cursor >= len(values):
                values.append([])
                sources.append([])
            values[cursor].append(float(v))
            sources[cursor].append(user)
            if len(values[cursor]) == capacity:
                cursor += 1
    full = sum(1 for arr in values if len(arr) == capacity)
    return [
        ArrayGroup(i, capacity, tuple(values[i]), tuple(sources[i]))
        for i in range(full)
    ]


@given(counts_strategy, st.integers(min_value=1, max_value=18))
@settings(max_examples=300)
def test_wrap_around_matches_sample_loop(counts, capacity):
    samples = {
        f"u{i + 1:02d}": tuple(float(i + 1) + j / 16 for j in range(c))
        for i, c in enumerate(counts)
    }
    assert wrap_around(samples, capacity) == _wrap_around_oracle(samples, capacity)


@given(counts_strategy, st.integers(min_value=1, max_value=18))
@settings(max_examples=150)
def test_best_fit_invariants(counts, capacity):
    groups = best_fit(_samples(counts), capacity)
    # every user lands in exactly one array, with min(m, capacity) samples
    seen = {}
    for g in groups:
        assert len(g.values) <= capacity
        for u in g.source_users:
            seen.setdefault(u, set()).add(g.index)
    for i, c in enumerate(counts):
        token = f"u{i + 1:02d}"
        assert len(seen[token]) == 1
        placed = sum(g.source_users.count(token) for g in groups)
        assert placed == min(c, capacity)
    # never fewer arrays than the wrap-around count
    assert len(groups) >= array_count_k(counts, capacity)
    assert len(groups) == best_fit_count(counts, capacity)


def _assign_best_fit_oracle(sizes, capacity):
    """Reference best-fit: scan every array for each block, O(blocks x arrays).

    This is the routine best_fit used before fill-level buckets; the fast
    assignment must reproduce it exactly.
    """
    fills = []
    assignment = []
    for r in sizes:
        best = -1
        for idx, w in enumerate(fills):
            if capacity - w >= r and (best < 0 or w > fills[best]):
                best = idx
        if best < 0:
            fills.append(0)
            best = len(fills) - 1
        fills[best] += r
        assignment.append(best)
    return assignment


blocks_strategy = st.integers(min_value=1, max_value=12).flatmap(
    lambda cap: st.tuples(
        st.just(cap), st.lists(st.integers(min_value=0, max_value=cap), max_size=60)
    )
)


@given(blocks_strategy, st.booleans())
@settings(max_examples=400)
def test_assign_best_fit_matches_quadratic_oracle(case, sort):
    capacity, sizes = case
    if sort:
        sizes = sorted(sizes, reverse=True)
    assert _assign_best_fit(sizes, capacity) == _assign_best_fit_oracle(sizes, capacity)


def test_assign_best_fit_ties_and_full_blocks():
    # full blocks (r == capacity) each open an array; equal fills go to the
    # least index, and the fuller array wins over an emptier one
    sizes = [4, 2, 2, 4, 1, 1, 3, 2]
    got = _assign_best_fit(sizes, 4)
    assert got == _assign_best_fit_oracle(sizes, 4) == [0, 1, 1, 2, 3, 3, 4, 3]
    rnd = random.Random(5)
    for _ in range(20):
        counts = [rnd.randint(1, 40) for _ in range(rnd.randint(200, 600))]
        cap = optimized_mub(counts)
        sizes = [min(m, cap) for m in sorted(counts, reverse=True)]
        expected = _assign_best_fit_oracle(sizes, cap)
        assert _assign_best_fit(sizes, cap) == expected
        assert best_fit_count(counts, cap) == max(expected) + 1


def _best_fit_oracle(samples_by_user, capacity):
    """Reference best fit: each user's block, in packing order, goes to the
    array _assign_best_fit_oracle picks, and each array lists its blocks in
    that order; this is the routine best_fit used before the packing layout
    was shared with wrap-around."""
    users = sorted(samples_by_user, key=lambda u: (-len(samples_by_user[u]), u))
    sizes = [min(len(samples_by_user[u]), capacity) for u in users]
    assignment = _assign_best_fit_oracle(sizes, capacity)
    values = [[] for _ in range(max(assignment) + 1)]
    sources = [[] for _ in values]
    for user, size, idx in zip(users, sizes, assignment):
        values[idx].extend(map(float, samples_by_user[user][:size]))
        sources[idx].extend([user] * size)
    return [
        ArrayGroup(i, capacity, tuple(v), tuple(s))
        for i, (v, s) in enumerate(zip(values, sources))
    ]


@given(counts_strategy, st.integers(min_value=1, max_value=18))
@settings(max_examples=300)
def test_best_fit_matches_placement_oracle(counts, capacity):
    samples = {
        f"u{i + 1:02d}": tuple(float(i + 1) + j / 16 for j in range(c))
        for i, c in enumerate(counts)
    }
    assert best_fit(samples, capacity) == _best_fit_oracle(samples, capacity)
