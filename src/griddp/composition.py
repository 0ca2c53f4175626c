"""Per-grid error budgets and the iterative user-suppression routine.

A grid's error budget combines the worst-case bias of releasing clipped
statistics with the Laplace noise magnitudes the retained counts force:

    E_g = bias_mean + bias_var + 2*d_mean_clip/eps + 2*d_var_clip/eps

using E|Laplace(b)| = b on each of the two half-budget coordinates. The
suppression routine removes whole users from grids, never increasing the
worst budget E = max_g E_g, to shrink the number of grids any single user
still touches (the factor multiplying per-grid epsilon under composition).

clip_user processing order: at each stage, freeze the set of users
touching the most grids; walk them in token order; for each, suppress them
from the grid where the resulting budget is smallest (ties to the smallest
grid token), skipping grids where they are the last retained user; halt
the whole routine the first time a user's best option exceeds E or a user
has no evaluable option.

clip_user runs on the occupancy's integer columns. A user's level is the
number of grids it still occupies. The users are bucketed once by starting
level (one bincount of the user ids and one stable sort), and a stage that
completes leaves every user it froze one level lower, so the next stage's
frozen set is this one's merged with the users who start at that level,
both in token order. A user's entries are listed as entry positions, a
chunk of users at a time, when the loop first reaches it; an entry's count
and grid are read in place, through memoryviews of the count column and of
a per-entry grid index, so no entry is copied into Python objects. A
grid's peak is its first largest count in token order, one argmax over the
grid's entries. The first time a peak user is suppressed or priced, the
grid's entries are sorted by descending count (stable, so ties stay in
token order) into an array read the same way, and a pointer past the
suppressed ones gives the peak from then on. A candidate, and each
grid after a stage, is priced by one inline float total in
budget_from_aggregates' operation order, with each grid's constant parts
worked out once; ErrorBudget objects are built only for the initial and
final budgets of each grid.

pseudo_user_optimize then re-clips each grid's retained counts to the best
uniform cap m (suppressed users stay suppressed), which can only lower the
budget since the cap equal to the current largest count changes nothing.
The caps are scanned as arrays: sum(min(gamma_l, m)) for every m from
prefix sums, each cap's budget elementwise in the scalar routine's
operation order (so the totals match it bit for bit), and the first
minimum taken.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import ClipPlan, OccupancyArray
from .errors import (
    InvalidParams,
    OccupancyMismatch,
    TooLarge,
    ZeroRetained,
    require_pair,
    require_positive,
)
from .sensitivity import variance_peak_value
from .worst_case_bias import bias_branch_value


@dataclass(frozen=True)
class ErrorBudget:
    """Additive worst-case error of one grid's clipped release."""

    grid: str
    bias_mean: float
    bias_var: float
    noise_mean: float
    noise_var: float
    total: float


@dataclass(frozen=True)
class Suppression:
    """One committed removal: user dropped from grid at the given stage."""

    stage: int
    user: str
    grid: str
    error: float


@dataclass(frozen=True)
class ClipUserResult:
    plan: ClipPlan
    k_factor: int
    error_cap: float
    initial_errors: dict[str, ErrorBudget]
    per_grid_errors: dict[str, ErrorBudget]
    trace: tuple[Suppression, ...]
    stage_max_errors: tuple[float, ...]


@dataclass(frozen=True)
class PseudoUserResult:
    per_grid_m: dict[str, int]
    per_grid_error: dict[str, ErrorBudget]
    new_error: float


def budget_from_aggregates(
    grid: str,
    sum_m: int,
    sum_gamma: int,
    gamma_star: int,
    bound_u: float,
    epsilon: float,
) -> ErrorBudget:
    """Grid budget from totals alone.

    Valid whenever each user's retained count is either their full count or
    a uniform cap, so the clipped sensitivities depend only on sum_gamma
    and the largest retained count gamma_star.
    """
    bias_mean = bound_u * (sum_m - sum_gamma) / sum_m
    _, bias_var = bias_branch_value(sum_m, sum_gamma, bound_u)
    noise_mean = 2 * (bound_u * gamma_star / sum_gamma) / epsilon
    _, var_sens = variance_peak_value(sum_gamma, gamma_star, bound_u)
    noise_var = 2 * var_sens / epsilon
    # added left to right, as _cap_totals and _pricer add them
    total = bias_mean + bias_var + noise_mean + noise_var
    return ErrorBudget(grid, bias_mean, bias_var, noise_mean, noise_var, total)


def grid_error(
    m_list, gamma_list, bound_u: float, epsilon: float, grid: str = "g"
) -> ErrorBudget:
    """Budget of a grid with counts m_list and retained counts gamma_list."""
    counts, gammas = require_pair(m_list, gamma_list)
    require_positive("value bound", bound_u)
    require_positive("epsilon", epsilon)
    return budget_from_aggregates(
        grid, sum(counts), sum(gammas), max(gammas), bound_u, epsilon
    )


def privacy_loss(occupancy: OccupancyArray, eps_per_grid) -> float:
    """Total privacy cost under parallel-within / sequential-across grids.

    eps_per_grid is a single float (uniform budget) or a mapping from grid
    token to budget covering every grid of the occupancy. The cost is the
    worst per-user sum over the grids that user touches.
    """
    if isinstance(eps_per_grid, (int, float)):
        if not 0 <= eps_per_grid < math.inf:
            raise InvalidParams(f"epsilon must be finite and >= 0, got {eps_per_grid}")
        return occupancy.max_grids_per_user() * float(eps_per_grid)
    missing = [g for g in occupancy.grids() if g not in eps_per_grid]
    if missing:
        raise OccupancyMismatch(f"no epsilon given for grids {missing}")
    if not all(0 <= eps_per_grid[g] < math.inf for g in occupancy.grids()):
        raise InvalidParams("per-grid epsilon must be finite and >= 0")
    # bincount adds each user's epsilons in entry order, which is grid order
    eps = [float(eps_per_grid[g]) for g in occupancy.grids()]
    weights = np.repeat(eps, np.diff(occupancy._bounds))
    return float(np.bincount(occupancy._ids, weights=weights).max())


def _pricer(sum_m: int, bound_u: float, epsilon: float) -> Callable[[int, int], float]:
    """price(kept, peak) = budget_from_aggregates(g, sum_m, kept, peak,
    bound_u, epsilon).total, in the same operation order, with the parts
    that depend only on sum_m and bound_u worked out once."""
    n, nn = sum_m, sum_m * sum_m
    u2 = bound_u * bound_u
    quarter = u2 / 4
    # the parity cap of sum_m is the bias when nothing is kept
    _, parity = bias_branch_value(sum_m, 0, bound_u)

    def price(kept: int, peak: int) -> float:
        if kept == n:
            bias_var = 0.0
        elif n < 2 * kept:
            bias_var = u2 * kept * (n - kept) / nn
        else:
            bias_var = parity
        if kept > 2 * peak:
            var_sens = u2 * peak * (kept - peak) / (kept * kept)
        elif kept % 2:
            var_sens = quarter * (1 - 1 / (kept * kept))
        else:
            var_sens = quarter
        return (
            bound_u * (n - kept) / n
            + bias_var
            + 2 * (bound_u * peak / kept) / epsilon
            + 2 * var_sens / epsilon
        )

    return price


# Frozen users get their entries this many at a time, as the stage loop
# reaches them, so a stage that halts early builds few.
_ENTRY_CHUNK = 256


def clip_user(
    occupancy: OccupancyArray,
    bound_u: float,
    epsilon: float,
    protect_min_error_grid: bool = False,
) -> ClipUserResult:
    """Suppress users from grids without raising the worst grid budget.

    Returns the retention plan, the resulting composition factor
    k_factor = max over users of grids still occupied, the frozen cap E,
    budgets before and after, the suppression trace, and the max budget
    recorded after every stage (index 0 is the initial state).

    With protect_min_error_grid the grid whose initial budget is smallest
    (ties to the smallest token) is never chosen as a suppression target.
    """
    require_positive("value bound", bound_u)
    require_positive("epsilon", epsilon)
    grids = occupancy.grids()
    ids, counts = occupancy._ids, occupancy._counts
    sum_m = list(occupancy._totals)
    sum_gamma = list(sum_m)
    prices = [_pricer(n, bound_u, epsilon) for n in sum_m]
    spans = list(occupancy._spans())
    # spare[g] counts the users grid g may still lose: never its last one
    spare = [hi - lo - 1 for lo, hi in spans]
    suppressed = bytearray(len(ids))
    # the count and the grid of each entry, read in place as Python ints
    count_of, grid_of = memoryview(counts), memoryview(occupancy._grid_index())
    # top[g] is the entry of grid g's peak and desc[g][ptr[g]] is top[g]
    # once the peak is first suppressed or priced
    top = [lo + int(np.argmax(counts[lo:hi])) for lo, hi in spans]
    peak = [count_of[e] for e in top]
    desc: dict[int, memoryview] = {}
    ptr = [0] * len(grids)

    def next_kept(g: int, i: int) -> int:
        """The first position from i in grid g's entries by descending
        count, ties in user order, that holds a retained entry."""
        if g not in desc:
            lo, hi = spans[g]
            desc[g] = memoryview(lo + np.argsort(-counts[lo:hi], kind="stable"))
        order = desc[g]
        while suppressed[order[i]]:
            i += 1
        return i

    def budgets() -> dict[str, ErrorBudget]:
        return {
            g: budget_from_aggregates(g, sum_m[i], sum_gamma[i], peak[i], bound_u, epsilon)
            for i, g in enumerate(grids)
        }

    initial = budgets()
    error_cap = max(b.total for b in initial.values())
    if protect_min_error_grid:
        spare[grids.index(min(grids, key=lambda g: (initial[g].total, g)))] = 0

    # A stage at level k suppresses each frozen user once, so when it ends
    # every user it froze is at k - 1, beside the users who start there:
    # the next frozen set is those two id-ordered runs merged. by_level
    # lists the users by starting level, each level in id order.
    level = np.bincount(ids, minlength=len(occupancy._users))
    by_level = np.argsort(level.astype(np.min_scalar_type(len(grids))), kind="stable")
    ends = np.cumsum(np.bincount(level)).tolist()
    del level
    k = len(ends) - 1  # every grid keeps a user, so k stays at least 1
    frozen: list[int] = []
    # active[i] lists the positions of user i's retained entries once the
    # loop reaches it
    active: dict[int, list[int]] = {}
    trace: list[Suppression] = []
    stage_max = [error_cap]
    stage = 1
    halted = False
    while not halted:
        fresh = by_level[ends[k - 1] : ends[k]].tolist()
        frozen = sorted(frozen + fresh)
        built = 0  # fresh[:built] have entries
        for i in frozen:
            entries = active.get(i)
            if entries is None:  # i is fresh[built]
                chunk = fresh[built : built + _ENTRY_CHUNK]
                active.update(zip(chunk, occupancy._entries(chunk)))
                built += len(chunk)
                entries = active[i]
            best, pick = None, -1
            for j, e in enumerate(entries):
                g = grid_of[e]
                if not spare[g]:
                    continue
                pk = peak[g]
                if e == top[g]:  # a grid with two retained users has a second
                    second = next_kept(g, ptr[g] + 1)
                    pk = count_of[desc[g][second]]
                total = prices[g](sum_gamma[g] - count_of[e], pk)
                # grids come in token order, so a tie keeps the earlier grid
                if best is None or total < best:
                    best, pick = total, j
            if best is None or best > error_cap:
                halted = True
                break
            e = entries.pop(pick)
            g = grid_of[e]
            suppressed[e] = 1
            sum_gamma[g] -= count_of[e]
            spare[g] -= 1
            if e == top[g]:
                ptr[g] = next_kept(g, ptr[g])
                top[g] = desc[g][ptr[g]]
                peak[g] = count_of[top[g]]
            trace.append(Suppression(stage, occupancy._users[i], grids[g], best))
        stage_max.append(max(p(a, pk) for p, a, pk in zip(prices, sum_gamma, peak)))
        stage += 1
        if not halted:
            k -= 1

    gammas = np.where(np.frombuffer(suppressed, dtype=bool), 0, counts)
    return ClipUserResult(
        plan=ClipPlan(occupancy, gammas),
        k_factor=k,
        error_cap=error_cap,
        initial_errors=initial,
        per_grid_errors=budgets(),
        trace=tuple(trace),
        stage_max_errors=tuple(stage_max),
    )


# Counts up to 2^53 are exact in float64, so every product of two counts
# and every quotient rounds once, as Python's mixed int/float arithmetic
# does. The one exception is 1 / (A * A): Python divides the exact integer,
# numpy the rounded A * A, and the two can differ by an ulp once
# A * A > 2^53. There 1 / (A * A) < 2^-53, and 1 - 1 / (A * A) rounds to
# 1 - 2^-53 below A * A = 2^54 and to 1.0 above it either way, so the
# parity cap that uses it still matches.
_EXACT_INT = 2**53
# Caps are priced this many at a time, so a grid whose counts span a wide
# range holds a few small arrays rather than one entry per cap at once.
_SCAN_CHUNK = 1 << 16
# The most caps one grid's scan prices; the time of the scan grows with it.
_MAX_CAPS = 1 << 24


def _cap_totals(
    sum_m: int, kept: np.ndarray, peak: np.ndarray, bound_u: float, epsilon: float
) -> np.ndarray:
    """budget_from_aggregates(g, sum_m, kept[i], peak[i], ...).total, per i.

    kept and peak are int64 arrays with 0 < peak <= kept <= sum_m <= 2^53;
    bound_u and epsilon are taken as floats. Every term is evaluated in
    budget_from_aggregates' operation order, so the totals equal the
    scalar ones bit for bit.
    """
    bound_u, epsilon = float(bound_u), float(epsilon)
    u2 = bound_u * bound_u
    kept_f, peak_f = kept.astype(float), peak.astype(float)
    bias_mean = bound_u * (sum_m - kept) / float(sum_m)
    few_dropped = u2 * kept_f * (sum_m - kept) / float(sum_m * sum_m)
    # the parity cap of sum_m is the bias when nothing is kept
    _, parity_total = bias_branch_value(sum_m, 0, bound_u)
    bias_var = np.where(
        kept == sum_m, 0.0, np.where(sum_m < 2 * kept, few_dropped, parity_total)
    )
    noise_mean = 2 * (bound_u * peak_f / kept_f) / epsilon
    above_twice = u2 * peak_f * (kept - peak) / (kept_f * kept_f)
    parity = np.where(kept % 2 == 1, (u2 / 4) * (1 - 1 / (kept_f * kept_f)), u2 / 4)
    var_sens = np.where(kept > 2 * peak, above_twice, parity)
    noise_var = 2 * var_sens / epsilon
    return bias_mean + bias_var + noise_mean + noise_var


def pseudo_user_optimize(
    occupancy: OccupancyArray,
    plan: ClipPlan,
    bound_u: float,
    epsilon: float,
) -> PseudoUserResult:
    """Cap each grid's retained counts at the budget-minimizing integer.

    For each grid, scan caps m from the smallest to the largest positive
    retained count; capping keeps sum(min(gamma_l, m)) samples with peak m.
    Suppressed users stay at zero. Ties take the smallest cap. The cap
    equal to the largest retained count reproduces the incoming budget, so
    the result never exceeds it. A grid above 2^53 samples raises
    TooLarge, since the array scan's float64 no longer holds its counts,
    and so does one with more than 2^24 caps to scan.
    """
    require_positive("value bound", bound_u)
    require_positive("epsilon", epsilon)
    per_grid_m: dict[str, int] = {}
    per_grid_error: dict[str, ErrorBudget] = {}
    counts = plan._counts_for(occupancy)
    for g, (lo, hi) in zip(occupancy.grids(), occupancy._spans()):
        sum_m = occupancy.total(g)
        if sum_m > _EXACT_INT:
            raise TooLarge(f"grid {g} holds {sum_m} samples; the cap scan takes at most 2^53")
        positives = np.sort(counts[lo:hi])
        positives = positives[positives > 0]
        if not len(positives):
            raise ZeroRetained(f"plan suppresses every user of grid {g}")
        prefix = np.concatenate(([0], np.cumsum(positives)))
        low, high = int(positives[0]), int(positives[-1])
        if high - low >= _MAX_CAPS:
            raise TooLarge(f"grid {g} has caps {low} to {high}; the cap scan takes at most 2^24")
        best_m, best_kept, best_total = low, 0, None
        for start in range(low, high + 1, _SCAN_CHUNK):
            caps = np.arange(start, min(start + _SCAN_CHUNK, high + 1), dtype=np.int64)
            below = np.searchsorted(positives, caps, side="left")
            kept = prefix[below] + caps * (len(positives) - below)
            totals = _cap_totals(sum_m, kept, caps, bound_u, epsilon)
            i = int(np.argmin(totals))
            if best_total is None or totals[i] < best_total:
                best_m, best_kept, best_total = int(caps[i]), int(kept[i]), totals[i]
        per_grid_m[g] = best_m
        per_grid_error[g] = budget_from_aggregates(
            g, sum_m, best_kept, best_m, bound_u, epsilon
        )
    return PseudoUserResult(
        per_grid_m=per_grid_m,
        per_grid_error=per_grid_error,
        new_error=max(b.total for b in per_grid_error.values()),
    )

