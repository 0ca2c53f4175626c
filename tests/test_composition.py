"""Error budgets, the suppression loop, and pseudo-user re-clipping.

The hand-checked instance used throughout:

    g1 = {u1: 2, u2: 2}            g2 = {u1: 1, u3: 3, u4: 3, u5: 3}

with U = 1 and epsilon = 1. Full-retention budgets are E_g1 = 1.5
(noise 1.0 + 0.5) and E_g2 = 1.02 (noise 0.6 + 0.42). Dropping u1 from g2
costs 0.1 + 0.09 + 2/3 + 4/9 ~ 1.3011 <= 1.5, dropping u1 from g1 costs
3.25, so the loop removes u1 from g2 and the grid factor falls from 2 to 1.
"""

import builtins
import hashlib
import heapq
import math
import random
from functools import reduce
from operator import add
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from griddp import composition, synth
from griddp.composition import (
    ClipPlan,
    ClipUserResult,
    PseudoUserResult,
    Suppression,
    _cap_totals,
    budget_from_aggregates,
    clip_user,
    grid_error,
    privacy_loss,
    pseudo_user_optimize,
)
from griddp.dataset import Dataset, OccupancyArray
from griddp.errors import (
    InvalidParams,
    InvalidPlan,
    OccupancyMismatch,
    TooLarge,
    UnknownGrid,
    ZeroRetained,
)
from griddp.mechanisms import MechanismParams, clip_release, post_release
from griddp.rng import RngStream
from griddp.synth import SynthParams, ValueModel, generate_occupancy, generate_values

BASE = {
    "g1": {"u1": 2, "u2": 2},
    "g2": {"u1": 1, "u3": 3, "u4": 3, "u5": 3},
}
VARIANT = {
    "g1": {"u1": 2, "u2": 2},
    "g2": {"u1": 1, "u3": 3},
}


def test_grid_error_decomposition():
    b = grid_error([2, 2], [2, 2], 1.0, 1.0)
    assert (b.bias_mean, b.bias_var, b.noise_mean, b.noise_var) == (0.0, 0.0, 1.0, 0.5)
    assert b.total == 1.5

    b = grid_error([1, 3, 3, 3], [1, 3, 3, 3], 1.0, 1.0)
    assert b.bias_mean == 0.0 and b.bias_var == 0.0
    assert b.noise_mean == pytest.approx(0.6)
    assert b.noise_var == pytest.approx(0.42)
    assert b.total == pytest.approx(1.02)


def test_grid_error_with_suppression():
    # dropping u1 from g1: half the samples gone, parity cap on the bias
    b = grid_error([2, 2], [0, 2], 1.0, 1.0)
    assert (b.bias_mean, b.bias_var, b.noise_mean, b.noise_var) == (0.5, 0.25, 2.0, 0.5)
    assert b.total == 3.25

    # dropping u1 from g2: one sample of ten gone
    b = grid_error([1, 3, 3, 3], [0, 3, 3, 3], 1.0, 1.0)
    assert b.bias_mean == pytest.approx(0.1)
    assert b.bias_var == pytest.approx(0.09)
    assert b.noise_mean == pytest.approx(2 / 3)
    assert b.noise_var == pytest.approx(4 / 9)
    assert b.total == pytest.approx(1.3011111111111111)


def test_budget_from_aggregates_matches_grid_error():
    for counts, gammas in [([4, 2, 1], [4, 2, 1]), ([4, 2, 1], [0, 2, 1]), ([5, 5], [5, 2])]:
        via_lists = grid_error(counts, gammas, 2.0, 0.7)
        via_sums = budget_from_aggregates(
            "g", sum(counts), sum(gammas), max(gammas), 2.0, 0.7
        )
        assert via_lists == via_sums


def test_clip_user_hand_trace():
    result = clip_user(OccupancyArray(BASE), 1.0, 1.0)
    assert result.error_cap == 1.5
    assert result.initial_errors["g1"].total == 1.5
    assert result.initial_errors["g2"].total == pytest.approx(1.02)

    assert len(result.trace) == 1
    s = result.trace[0]
    assert (s.stage, s.user, s.grid) == (1, "u1", "g2")
    assert s.error == grid_error([1, 3, 3, 3], [0, 3, 3, 3], 1.0, 1.0).total
    # an entry holds its four fields in slots, with no per-instance dict
    assert not hasattr(s, "__dict__")

    assert result.k_factor == 1
    assert result.plan.row("g2") == {"u1": 0, "u3": 3, "u4": 3, "u5": 3}
    assert result.plan.row("g1") == {"u1": 2, "u2": 2}
    assert result.per_grid_errors["g2"].total == s.error
    assert result.stage_max_errors[0] == 1.5
    assert all(v <= result.error_cap + 1e-12 for v in result.stage_max_errors)


def test_clip_user_halts_when_best_exceeds_cap():
    # shrinking g2 to two users makes dropping u1 from it cost ~2.88 > 2.0
    result = clip_user(OccupancyArray(VARIANT), 1.0, 1.0)
    assert result.error_cap == 2.0
    assert result.trace == ()
    assert result.k_factor == 2
    assert result.per_grid_errors == result.initial_errors
    assert result.plan.row("g2") == {"u1": 1, "u3": 3}


def test_protected_grid_is_never_a_target():
    # g2 holds the smaller initial budget; protecting it leaves u1 only the
    # 3.25 option on g1, which exceeds the cap, so nothing happens
    result = clip_user(OccupancyArray(BASE), 1.0, 1.0, protect_min_error_grid=True)
    assert result.trace == ()
    assert result.k_factor == 2


def test_singleton_grid_is_never_emptied():
    occ = OccupancyArray({"g1": {"u1": 3}})
    result = clip_user(occ, 1.0, 1.0)
    assert result.trace == ()
    assert result.k_factor == 1
    assert result.plan.row("g1") == {"u1": 3}


def _random_occupancy(rnd):
    n_grids = rnd.randint(1, 4)
    n_users = rnd.randint(1, 6)
    grids = [f"g{i}" for i in range(1, n_grids + 1)]
    counts = {g: {} for g in grids}
    for j in range(1, n_users + 1):
        user = f"u{j}"
        for g in rnd.sample(grids, rnd.randint(1, n_grids)):
            counts[g][user] = rnd.randint(1, 5)
    return OccupancyArray({g: row for g, row in counts.items() if row})


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_clip_user_invariants(seed):
    rnd = random.Random(seed)
    occ = _random_occupancy(rnd)
    result = clip_user(occ, 1.0, rnd.choice([0.3, 1.0, 3.0]))
    # the cap is never exceeded, the factor never grows, and the plan only
    # ever keeps all of a user's samples or none of them
    assert all(v <= result.error_cap + 1e-12 for v in result.stage_max_errors)
    assert result.k_factor <= occ.max_grids_per_user()
    assert all(
        b.total <= result.error_cap + 1e-12 for b in result.per_grid_errors.values()
    )
    suppressed = {(s.grid, s.user) for s in result.trace}
    assert suppressed == set(result.plan.suppressed_pairs())
    for g in occ.grids():
        row = result.plan.row(g)
        assert set(row) == set(occ.row(g))
        assert any(v > 0 for v in row.values())
        for u, kept in row.items():
            assert kept in (0, occ.count(g, u))


def test_pseudo_user_identity_cap():
    # capping at the largest retained count is a no-op, so the scan can
    # never do worse than the incoming plan
    occ = OccupancyArray({"g": {"u1": 1, "u2": 5, "u3": 5}})
    plan = ClipPlan.full(occ)
    res = pseudo_user_optimize(occ, plan, 1.0, 1.0)
    assert res.per_grid_m == {"g": 5}
    assert res.new_error == grid_error([1, 5, 5], [1, 5, 5], 1.0, 1.0).total


def test_pseudo_user_scan_matches_naive_rescan():
    rnd = random.Random(5)
    for _ in range(40):
        occ = _random_occupancy(rnd)
        result = clip_user(occ, 1.0, 1.0)
        res = pseudo_user_optimize(occ, result.plan, 1.0, 1.0)
        for g in occ.grids():
            gammas = [result.plan.row(g)[u] for u in sorted(occ.row(g))]
            positives = sorted(x for x in gammas if x > 0)
            best = None
            best_m = None
            for m in range(positives[0], positives[-1] + 1):
                capped = [min(x, m) for x in gammas]
                cand = grid_error(
                    [occ.count(g, u) for u in sorted(occ.row(g))],
                    capped,
                    1.0,
                    1.0,
                    grid=g,
                ).total
                if best is None or cand < best:
                    best, best_m = cand, m
            assert res.per_grid_m[g] == best_m
            assert res.per_grid_error[g].total == best
            assert res.per_grid_error[g].total <= result.per_grid_errors[g].total + 1e-12


# plans that ClipPlan.for_occupancy refuses on BASE, and so post_release
# and pseudo_user_optimize, with the error and the part of its message that
# names the cause
_MISMATCHED_PLANS = [
    (
        {"g1": {}, "g9": {"u1": 1}, "G2": {}},
        OccupancyMismatch,
        r"plan names grids absent from the data: \['G2', 'g9'\]",
    ),
    ({"g1": {"u1": 2, "u9": 2}}, InvalidPlan, r"users absent from grid g1: \['u9'\]"),
    ({"g2": {"u3": 4}}, InvalidPlan, r"user u3 in grid g2 must be in \[0, 3\]"),
    ({"g2": {"u3": -1}}, InvalidPlan, "user u3 in grid g2"),
    ({"g2": {"u3": 2.0}}, InvalidParams, "user u3 in grid g2 must be an integer"),
    ({"g1": {"u2": True}}, InvalidParams, "user u2 in grid g1 must be an integer"),
    ({"g1": {"u2": "1"}}, InvalidParams, "user u2 in grid g1 must be an integer"),
    ({"g1": [1]}, InvalidPlan, "plan entry for grid g1 must map users to counts"),
    ({"g1": None}, InvalidPlan, "plan entry for grid g1 must map users to counts"),
    ([("g1", {})], InvalidPlan, "a plan must map grids to rows"),
    # counts past int64 are range-checked as Python ints, not converted first
    ({"g2": {"u3": 2**63}}, InvalidPlan, r"user u3 in grid g2 must be in \[0, 3\]"),
    ({"g2": {"u3": 2**70}}, InvalidPlan, r"user u3 in grid g2 must be in \[0, 3\]"),
    ({"g2": {"u3": -(2**70)}}, InvalidPlan, r"user u3 in grid g2 must be in \[0, 3\]"),
    # keys of mixed types are listed without comparing a str to an int
    ({1: {}, "g9": {}}, OccupancyMismatch, r"grids absent from the data: \[1, 'g9'\]"),
    ({"g1": {"u9": 1, 5: 2}}, InvalidPlan, r"users absent from grid g1: \[5, 'u9'\]"),
]


def test_pseudo_user_rejects_mismatched_plan():
    # a grid or user the plan omits keeps all its samples, as in
    # clip_release; only a grid the occupancy lacks, a user its grid lacks
    # or a count that is not an integer in [0, m] is refused
    occ = OccupancyArray(BASE)
    partial = ClipPlan.for_occupancy(occ, {"g2": {"u1": 0, "u3": 2}})
    filled = {"g1": BASE["g1"], "g2": {**BASE["g2"], "u1": 0, "u3": 2}}
    assert partial == ClipPlan.for_occupancy(occ, filled)
    assert pseudo_user_optimize(occ, partial, 1.0, 1.0) == pseudo_user_optimize(
        occ, ClipPlan.for_occupancy(OccupancyArray(BASE), filled), 1.0, 1.0
    )
    assert pseudo_user_optimize(
        occ, ClipPlan.for_occupancy(occ, {}), 1.0, 1.0
    ) == pseudo_user_optimize(occ, ClipPlan.full(occ), 1.0, 1.0)
    for plan, error, message in _MISMATCHED_PLANS:
        with pytest.raises(error, match=message):
            pseudo_user_optimize(occ, ClipPlan.for_occupancy(occ, plan), 1.0, 1.0)
    all_zero = ClipPlan.for_occupancy(
        occ, {"g1": {"u1": 0, "u2": 0}, "g2": {"u1": 1, "u3": 3, "u4": 3, "u5": 3}}
    )
    with pytest.raises(ZeroRetained):
        pseudo_user_optimize(occ, all_zero, 1.0, 1.0)


def _dataset_from(counts, bound_u=1.0, seed=0):
    rnd = random.Random(seed)
    samples = {
        g: {u: [rnd.uniform(0, bound_u) for _ in range(m)] for u, m in row.items()}
        for g, row in counts.items()
    }
    return Dataset(samples, bound_u)


def test_post_release_uses_per_grid_streams():
    ds = _dataset_from(BASE)
    plan = ClipPlan.full(ds.occupancy())
    out = post_release(ds, plan, 1.0, RngStream(42))
    assert set(out) == {"g1", "g2"}
    params = MechanismParams(bound_u=1.0, epsilon=1.0)
    direct = clip_release(ds, "g1", plan.row("g1"), params, RngStream(42).split("grid:g1"))
    assert out["g1"] == direct


def test_post_release_grid_draws_do_not_depend_on_other_grids():
    shared = {"g1": {"u1": 2, "u2": 2}}
    ds_small = _dataset_from(shared, seed=1)
    ds_big = _dataset_from({**shared, "g9": {"u7": 4}}, seed=1)
    small = post_release(ds_small, ClipPlan.full(ds_small.occupancy()), 1.0, RngStream(9))
    big = post_release(ds_big, ClipPlan.full(ds_big.occupancy()), 1.0, RngStream(9))
    # seed=1 replays the same g1 sample values in both datasets
    assert small["g1"] == big["g1"]


def test_post_release_rejects_plan_grid_mismatch():
    # the rule of pseudo_user_optimize: an omitted grid or user keeps all its
    # samples, and the releases equal those of the plan filled in
    ds = _dataset_from(BASE)
    occ = ds.occupancy()
    partial = ClipPlan.for_occupancy(occ, {"g2": {"u1": 0, "u3": 2}})
    filled = {"g1": BASE["g1"], "g2": {**BASE["g2"], "u1": 0, "u3": 2}}
    assert post_release(ds, partial, 1.0, RngStream(0)) == post_release(
        ds, ClipPlan.for_occupancy(OccupancyArray(BASE), filled), 1.0, RngStream(0)
    )
    assert post_release(ds, ClipPlan.for_occupancy(occ, {}), 1.0, RngStream(0)) == post_release(
        ds, ClipPlan.full(occ), 1.0, RngStream(0)
    )
    for plan, error, message in _MISMATCHED_PLANS:
        with pytest.raises(error, match=message):
            post_release(ds, ClipPlan.for_occupancy(occ, plan), 1.0, RngStream(0))


def test_post_release_reads_clip_users_plan_once():
    # post_release reads slices of a plan made on the dataset's own
    # occupancy, and re-aligns one made on another occupancy object through
    # for_occupancy's reader; either way the releases are clip_release's on
    # the plan's rows, and a row out of range for the data is refused
    occ = generate_occupancy(SynthParams(grids=5, users=31, heavy_gamma=3), RngStream(5))
    ds = generate_values(occ, ValueModel(), RngStream(6))
    plan = clip_user(ds.occupancy(), ds.bound_u, 0.5).plan
    aligned = post_release(ds, plan, 0.5, RngStream(7))
    other = ClipPlan.for_occupancy(OccupancyArray(occ.as_dict()), plan.retained)
    realigned = post_release(ds, other, 0.5, RngStream(7))
    params = MechanismParams(bound_u=ds.bound_u, epsilon=0.5)
    for g in ds.grids():
        direct = clip_release(ds, g, plan.row(g), params, RngStream(7).split(f"grid:{g}"))
        assert aligned[g] == realigned[g] == direct
    g = ds.grids()[0]
    user, m = next(iter(ds.occupancy().row(g).items()))
    bigger = OccupancyArray({**occ.as_dict(), g: {**occ.row(g), user: m + 1}})
    too_many = ClipPlan.for_occupancy(bigger, {g: {user: m + 1}})
    with pytest.raises(InvalidPlan, match=f"user {user} in grid {g} must be in \\[0, {m}\\]"):
        post_release(ds, too_many, 0.5, RngStream(7))


def test_privacy_loss_uniform_and_per_grid():
    occ = OccupancyArray({"g1": {"u1": 1, "u2": 1}, "g2": {"u1": 1}})
    assert privacy_loss(occ, 0.5) == 2 * 0.5
    assert privacy_loss(occ, {"g1": 0.5, "g2": 0.7}) == pytest.approx(1.2)
    with pytest.raises(OccupancyMismatch):
        privacy_loss(occ, {"g1": 0.5})
    with pytest.raises(InvalidParams):
        privacy_loss(occ, -1.0)
    with pytest.raises(InvalidParams):
        privacy_loss(occ, {"g1": 0.5, "g2": -0.1})


def test_clip_plan_helpers():
    occ = OccupancyArray(BASE)
    plan = ClipPlan.full(occ)
    assert plan.grids() == ["g1", "g2"]
    assert plan.suppressed_pairs() == []
    pruned = ClipPlan.for_occupancy(
        occ, {"g1": {"u1": 0, "u2": 2}, "g2": {"u1": 1, "u3": 0, "u4": 3, "u5": 3}}
    )
    assert pruned.suppressed_pairs() == [("g1", "u1"), ("g2", "u3")]
    # a partial plan covers every grid of its occupancy: an omitted grid's
    # row is its full row, and only a grid the occupancy lacks raises
    partial = ClipPlan.for_occupancy(occ, {"g2": {"u3": 0}})
    assert partial.grids() == ["g1", "g2"]
    assert partial.row("g1") == BASE["g1"]
    assert partial.row("g2") == {**BASE["g2"], "u3": 0}
    with pytest.raises(UnknownGrid):
        partial.row("g7")
    # any mapping is read as a dict is
    proxy = MappingProxyType({"g2": MappingProxyType({"u3": 0})})
    assert ClipPlan.for_occupancy(occ, proxy) == partial


def test_parameter_validation():
    occ = OccupancyArray(BASE)
    with pytest.raises(InvalidParams):
        clip_user(occ, 0.0, 1.0)
    with pytest.raises(InvalidParams):
        clip_user(occ, 1.0, -2.0)
    with pytest.raises(InvalidParams):
        grid_error([1], [1], 1.0, 0.0)
    with pytest.raises(InvalidParams):
        pseudo_user_optimize(occ, ClipPlan.full(occ), -1.0, 1.0)


# ------------------------------------------------- reference implementations


class _HeapGridState:
    """Per-grid aggregates with a lazy max-heap over retained counts."""

    def __init__(self, counts):
        self.counts = counts
        self.sum_m = sum(counts.values())
        self.sum_gamma = self.sum_m
        self.suppressed = set()
        self.heap = [(-c, u) for u, c in counts.items()]
        heapq.heapify(self.heap)

    def retained_users(self):
        return len(self.counts) - len(self.suppressed)

    def _settle(self):
        while self.heap and self.heap[0][1] in self.suppressed:
            heapq.heappop(self.heap)

    def peak(self):
        self._settle()
        return -self.heap[0][0] if self.heap else 0

    def peak_excluding(self, user):
        self._settle()
        if not self.heap or self.heap[0][1] != user:
            return -self.heap[0][0] if self.heap else 0
        top = heapq.heappop(self.heap)
        self._settle()
        second = -self.heap[0][0] if self.heap else 0
        heapq.heappush(self.heap, top)
        return second


def _clip_user_oracle(occupancy, bound_u, epsilon, protect_min_error_grid=False):
    """Reference clip_user: per-user grid sets, every stage rescans all users.

    This is the routine clip_user used before level buckets and descending
    peak lists; the fast one must return an equal ClipUserResult.
    """
    grids = occupancy.grids()
    state = {g: _HeapGridState(occupancy.row(g)) for g in grids}

    def current_budget(g):
        st = state[g]
        return budget_from_aggregates(g, st.sum_m, st.sum_gamma, st.peak(), bound_u, epsilon)

    initial = {g: current_budget(g) for g in grids}
    error_cap = max(b.total for b in initial.values())
    protected = None
    if protect_min_error_grid:
        protected = min(grids, key=lambda g: (initial[g].total, g))
    active_grids = {u: set(occupancy.grids_of(u)) for u in occupancy.users()}
    trace = []
    stage_max = [error_cap]
    stage = 1
    halted = False
    while not halted:
        gmax = max(len(gs) for gs in active_grids.values())
        if gmax == 0:
            break
        frozen = sorted(u for u, gs in active_grids.items() if len(gs) == gmax)
        for user in frozen:
            best = None
            for g in sorted(active_grids[user]):
                st = state[g]
                if g == protected or st.retained_users() <= 1:
                    continue
                cand = budget_from_aggregates(
                    g,
                    st.sum_m,
                    st.sum_gamma - st.counts[user],
                    st.peak_excluding(user),
                    bound_u,
                    epsilon,
                )
                if best is None or (cand.total, g) < (best[0], best[1]):
                    best = (cand.total, g, cand)
            if best is None or best[0] > error_cap:
                halted = True
                break
            _, g, budget = best
            st = state[g]
            st.suppressed.add(user)
            st.sum_gamma -= st.counts[user]
            active_grids[user].discard(g)
            trace.append(Suppression(stage, user, g, budget.total))
        stage_max.append(max(current_budget(g).total for g in grids))
        stage += 1
    plan = ClipPlan.for_occupancy(
        occupancy,
        {
            g: {u: (0 if u in state[g].suppressed else c) for u, c in state[g].counts.items()}
            for g in grids
        },
    )
    return ClipUserResult(
        plan=plan,
        k_factor=max(len(gs) for gs in active_grids.values()),
        error_cap=error_cap,
        initial_errors=initial,
        per_grid_errors={g: current_budget(g) for g in grids},
        trace=tuple(trace),
        stage_max_errors=tuple(stage_max),
    )


def _pseudo_user_optimize_oracle(occupancy, plan, bound_u, epsilon):
    """Reference cap scan: one budget_from_aggregates call per integer cap."""
    per_grid_m, per_grid_error = {}, {}
    for g in occupancy.grids():
        positives = sorted(x for x in plan.row(g).values() if x > 0)
        sum_m = occupancy.total(g)
        best_m, best = positives[0], None
        idx = small_sum = 0
        for m in range(positives[0], positives[-1] + 1):
            while idx < len(positives) and positives[idx] < m:
                small_sum += positives[idx]
                idx += 1
            sum_capped = small_sum + m * (len(positives) - idx)
            cand = budget_from_aggregates(g, sum_m, sum_capped, m, bound_u, epsilon)
            if best is None or cand.total < best.total:
                best, best_m = cand, m
        per_grid_m[g] = best_m
        per_grid_error[g] = best
    return PseudoUserResult(
        per_grid_m=per_grid_m,
        per_grid_error=per_grid_error,
        new_error=max(b.total for b in per_grid_error.values()),
    )


@st.composite
def _small_occupancies(draw):
    """Up to 5 grids and 8 users, counts in 1..4 so peaks tie often; a grid
    may hold a single user."""
    n_grids = draw(st.integers(1, 5))
    n_users = draw(st.integers(1, 8))
    rows = {f"g{i}": {} for i in range(1, n_grids + 1)}
    for j in range(1, n_users + 1):
        chosen = draw(st.sets(st.sampled_from(sorted(rows)), min_size=1))
        for g in sorted(chosen):
            rows[g][f"u{j}"] = draw(st.integers(1, 4))
    return OccupancyArray(rows)


@st.composite
def _synth_occupancies(draw):
    grids = draw(st.integers(1, 8))
    params = SynthParams(
        grids=grids,
        users=draw(st.integers(1, 2**grids - 1)),
        geometric_q=draw(st.sampled_from([0.05, 0.3, 0.7])),
        heavy_gamma=draw(st.sampled_from([0.0, 3.0, 9.0])),
    )
    return generate_occupancy(params, RngStream(draw(st.integers(0, 2**32))))


@settings(max_examples=100, deadline=None)
@given(_small_occupancies(), st.lists(st.floats(0.0, 10.0), min_size=5, max_size=5))
def test_per_grid_privacy_loss_matches_per_user_sums(occ, eps):
    # each user's epsilons added in grid order, as a per-user loop adds them
    per_grid = dict(zip(occ.grids(), eps))
    want = max(reduce(add, (per_grid[g] for g in occ.grids_of(u)), 0.0) for u in occ.users())
    assert float.hex(privacy_loss(occ, per_grid)) == float.hex(want)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_small_occupancies(), _synth_occupancies()),
    st.sampled_from([1.0, 65.0]),
    st.sampled_from([0.1, 0.5, 1.0, 3.0]),
    st.booleans(),
)
def test_clip_user_and_cap_scan_match_reference(occ, bound_u, epsilon, protect):
    res = clip_user(occ, bound_u, epsilon, protect)
    assert res == _clip_user_oracle(occ, bound_u, epsilon, protect)
    opt = pseudo_user_optimize(occ, res.plan, bound_u, epsilon)
    assert opt == _pseudo_user_optimize_oracle(occ, res.plan, bound_u, epsilon)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0.05, 0.5, 2.0]),
)
def test_clip_user_matches_reference_when_peaks_fall_in_turn(n, grids, tie, epsilon):
    # harmonic counts, tied in runs of `tie` users, make each grid's peak
    # user worth suppressing, then the next one, through the descending order
    row = {f"u{u:02d}": 10**5 // (u // tie + 1) for u in range(n)}
    occ = OccupancyArray({f"g{g}": {u: m + g for u, m in row.items()} for g in range(grids)})
    res = clip_user(occ, 65.0, epsilon)
    assert res == _clip_user_oracle(occ, 65.0, epsilon)


def test_peaks_fall_in_turn_on_the_harmonic_occupancy():
    # the case above does reach the descending order: most suppressions
    # take a grid's current peak user
    row = {f"u{u:02d}": 10**5 // (u + 1) for u in range(40)}
    occ = OccupancyArray({"g0": row, "g1": row})
    res = clip_user(occ, 65.0, 0.05)
    assert sum(s.user < "u20" for s in res.trace) >= 20
    assert res == _clip_user_oracle(occ, 65.0, 0.05)


def test_edited_copy_realigned_is_the_plan_the_cap_scan_reads():
    # retained is a new mapping each time: editing it leaves the plan as it
    # was, and the edited copy becomes a plan, range-checked, through
    # for_occupancy
    occ = OccupancyArray(BASE)
    res = clip_user(occ, 1.0, 1.0)
    before = pseudo_user_optimize(occ, res.plan, 1.0, 1.0)
    retained = res.plan.retained
    retained["g1"]["u2"] = 1
    assert res.plan.retained["g1"]["u2"] == 2
    assert pseudo_user_optimize(occ, res.plan, 1.0, 1.0) == before
    edited = ClipPlan.for_occupancy(occ, retained)
    got = pseudo_user_optimize(occ, edited, 1.0, 1.0)
    assert got != before
    assert got == _pseudo_user_optimize_oracle(occ, edited, 1.0, 1.0)
    retained["g1"]["u2"] = 3
    with pytest.raises(InvalidPlan, match=r"user u2 in grid g1 must be in \[0, 2\]"):
        ClipPlan.for_occupancy(occ, retained)


def test_clip_plan_repr_shows_the_counts():
    occ = OccupancyArray(BASE)
    assert repr(ClipPlan.full(occ)) == f"ClipPlan(retained={BASE!r})"
    res = clip_user(occ, 1.0, 1.0)
    assert "plan=ClipPlan(retained={'g1': {'u1': 2, 'u2': 2}, 'g2': {'u1': 0, " in repr(res)


def test_compared_or_printed_plan_keeps_its_aligned_array():
    # == and repr build the mapping from the array, which stays the plan
    # and cannot be written to
    occ = OccupancyArray(BASE)
    plan = clip_user(occ, 1.0, 1.0).plan
    gammas = plan._gammas
    mapping = occ._rows(gammas)
    assert plan == plan and plan == ClipPlan.for_occupancy(OccupancyArray(BASE), mapping)
    assert repr(plan) == f"ClipPlan(retained={mapping!r})"
    assert plan._gammas is gammas and plan._occupancy is occ
    with pytest.raises(ValueError):
        gammas[0] = 1
    assert not ClipPlan.full(occ)._gammas.flags.writeable


@settings(max_examples=200, deadline=None)
@given(_small_occupancies(), st.randoms(use_true_random=False), st.sampled_from([0.2, 1.0, 4.0]))
def test_cap_scan_matches_reference_on_partial_plans(occ, rnd, epsilon):
    # any retained count in [0, m], not only all-or-none, with one kept user per grid
    plan = {}
    for g in occ.grids():
        row = {u: rnd.randint(0, m) for u, m in occ.row(g).items()}
        keep = rnd.choice(sorted(row))
        row[keep] = max(row[keep], 1)
        plan[g] = row
    plan = ClipPlan.for_occupancy(occ, plan)
    got = pseudo_user_optimize(occ, plan, 1.0, epsilon)
    assert got == _pseudo_user_optimize_oracle(occ, plan, 1.0, epsilon)


def _assert_totals_exact(sum_m, kept, peak, bound_u=65.0, epsilon=0.7):
    totals = _cap_totals(
        sum_m, np.array(kept, dtype=np.int64), np.array(peak, dtype=np.int64), bound_u, epsilon
    )
    for total, a, m in zip(totals.tolist(), kept, peak):
        want = budget_from_aggregates("g", sum_m, a, m, bound_u, epsilon).total
        assert float.hex(total) == float.hex(want), (sum_m, a, m)


def test_cap_totals_exact_on_parity_branches():
    # kept <= 2 * peak: the EvenCap and OddCap values of the variance sensitivity
    for sum_m in (7, 8, 1001, 2**20 + 1):
        kept = [a for a in range(1, min(sum_m, 400) + 1)]
        peak = [max(1, (a + 1) // 2) for a in kept]
        _assert_totals_exact(sum_m, kept, peak)
        _assert_totals_exact(sum_m, kept, kept)


def test_cap_totals_exact_when_everything_is_kept():
    for sum_m in (1, 2, 3, 10, 999_999):
        peaks = sorted({1, max(1, sum_m // 3), max(1, sum_m // 2), sum_m})
        _assert_totals_exact(sum_m, [sum_m] * len(peaks), peaks)


def test_cap_totals_exact_on_large_aggregates():
    # past 2^26.5 samples kept * kept exceeds 2^53, where numpy's 1 / (A * A)
    # and Python's exact integer division can differ in the last bit
    rnd = random.Random(11)
    for sum_m in (2**27 + 3, 2**40 + 1, 2**53 - 1, 2**53):
        kept = [2**27 - 1, 2**27 + 1, 94_906_267, sum_m, sum_m - 1]
        kept += [rnd.randrange(94_906_266, sum_m) | 1 for _ in range(200)]
        kept = [a for a in kept if 0 < a <= sum_m]
        for peak in ([(a + 1) // 2 for a in kept], [a // 3 + 1 for a in kept], kept):
            _assert_totals_exact(sum_m, kept, peak)
            _assert_totals_exact(sum_m, kept, peak, bound_u=1.0, epsilon=3.0)


def test_budget_totals_do_not_depend_on_builtin_sum(monkeypatch):
    # from Python 3.12 the builtin sum adds floats with compensation, while
    # _cap_totals adds a budget's terms left to right; with sum patched to
    # math.fsum, a budget and clip_user's candidate prices still match it
    occ = generate_occupancy(SynthParams(grids=8, users=255, heavy_gamma=3), RngStream(12))
    unpatched = clip_user(occ, 65.0, 0.5)
    rnd = random.Random(12)
    budgets = []
    for _ in range(50):
        sum_m = rnd.randrange(2, 10**6)
        kept = [rnd.randrange(1, sum_m + 1) for _ in range(100)]
        budgets.append((sum_m, kept, [rnd.randrange(1, a + 1) for a in kept]))
    monkeypatch.setattr(builtins, "sum", math.fsum)
    for sum_m, kept, peak in budgets:
        _assert_totals_exact(sum_m, kept, peak)
    assert clip_user(occ, 65.0, 0.5) == unpatched


def test_cap_scan_rejects_grids_past_float_exact_counts():
    # two users keep the scan to two caps
    occ = OccupancyArray({"g": {"u1": 2**52, "u2": 2**52 + 1}})
    with pytest.raises(TooLarge):
        pseudo_user_optimize(occ, ClipPlan.full(occ), 1.0, 1.0)
    edge = OccupancyArray({"g": {"u1": 2**52, "u2": 2**52 - 1}})
    res = pseudo_user_optimize(edge, ClipPlan.full(edge), 1.0, 1.0)
    assert res == _pseudo_user_optimize_oracle(edge, ClipPlan.full(edge), 1.0, 1.0)


def test_cap_scan_rejects_a_wide_cap_range(monkeypatch):
    # caps 1 to 2^30 would be priced one by one
    occ = OccupancyArray({"g": {"a": 1, "b": 2**30}})
    with pytest.raises(TooLarge, match=r"cap scan takes at most 2\^24"):
        pseudo_user_optimize(occ, ClipPlan.full(occ), 1.0, 1.0)
    monkeypatch.setattr(composition, "_MAX_CAPS", 4)
    fits = OccupancyArray({"g": {"a": 1, "b": 4}})
    pseudo_user_optimize(fits, ClipPlan.full(fits), 1.0, 1.0)
    wide = OccupancyArray({"g": {"a": 1, "b": 5}})
    with pytest.raises(TooLarge):
        pseudo_user_optimize(wide, ClipPlan.full(wide), 1.0, 1.0)


def test_cap_scan_chunks_keep_the_first_minimum(monkeypatch):
    # two caps per chunk, so tied minima straddle chunk boundaries: with
    # gammas (1, 0, 0, 3) of counts (4, 3, 4, 5) at epsilon 4, caps 1 and 3
    # both cost exactly 1.5 and cap 1 must win
    monkeypatch.setattr(composition, "_SCAN_CHUNK", 2)
    occ = OccupancyArray({"g": {"u1": 4, "u2": 3, "u3": 4, "u4": 5}})
    plan = ClipPlan.for_occupancy(occ, {"g": {"u1": 1, "u2": 0, "u3": 0, "u4": 3}})
    assert pseudo_user_optimize(occ, plan, 1.0, 4.0).per_grid_m == {"g": 1}
    rnd = random.Random(3)
    for _ in range(300):
        occ = _random_occupancy(rnd)
        plan = ClipPlan.for_occupancy(
            occ, {g: {u: rnd.randint(1, m) for u, m in occ.row(g).items()} for g in occ.grids()}
        )
        for epsilon in (0.2, 1.0, 4.0):
            got = pseudo_user_optimize(occ, plan, 1.0, epsilon)
            assert got == _pseudo_user_optimize_oracle(occ, plan, 1.0, epsilon)


def _one_candidate(kept_counts, dropped):
    """An occupancy whose first candidate drops `dropped` samples of grid g
    and keeps `kept_counts`: user x also holds the only entry of grid h, so
    it alone is frozen at stage 1 and g is its one option. Its 2 samples
    there give h the largest budget a grid can start with, 2U/eps +
    U^2/(2 eps), so the cap sits at or above it."""
    row = {f"u{i}": c for i, c in enumerate(kept_counts)}
    return OccupancyArray({"g": {**row, "x": dropped}, "h": {"x": 2}})


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(1, 2**40), min_size=1, max_size=5),
    st.integers(1, 2**40),
    st.sampled_from([1, 65, 1.0, 65.0]),
    st.floats(0.01, 10.0),
)
# each example suppresses x from g; a candidate always drops a sample, so
# the nothing-dropped branch is not reached
@example([3, 3, 1], 3, 65.0, 0.1)  # fewer dropped than kept; kept > 2 * peak
@example([2, 2], 6, 65.0, 0.05)  # even sum_m, at most half kept; even kept <= 2 * peak
@example([3, 2], 6, 1.0, 0.5)  # odd sum_m; odd kept <= 2 * peak
@example([2**38, 2**38, 1], 2**39 - 1, 1, 0.01)
def test_inline_price_is_the_budget_total(kept_counts, dropped, bound_u, epsilon):
    # clip_user prices the candidate inline: stage 1 suppresses x from g,
    # at that price, exactly when the budget total is within the cap
    res = clip_user(_one_candidate(kept_counts, dropped), bound_u, epsilon)
    kept = sum(kept_counts)
    want = budget_from_aggregates(
        "g", kept + dropped, kept, max(kept_counts), bound_u, epsilon
    ).total
    assert bool(res.trace) == (want <= res.error_cap)
    if res.trace:
        s = res.trace[0]
        assert (s.stage, s.user, s.grid, float.hex(s.error)) == (1, "x", "g", float.hex(want))


@pytest.fixture
def paper_occupancy():
    # made for each test, since the oracle lists the user tokens, which
    # turns the occupancy's on-demand token table into a list
    return generate_occupancy(SynthParams(grids=12, users=4095, heavy_gamma=9), RngStream(5))


@pytest.mark.parametrize(
    "epsilon, protect", [(0.5, False), (0.5, True), (2.0, False), (2.0, True), (0.05, False)]
)
def test_clip_user_matches_reference_at_paper_scale(paper_occupancy, epsilon, protect, monkeypatch):
    # 12 grids x 4095 users, where a stage freezes up to 1024 users; the
    # strategies above reach 8 grids and 255 users. The trace builds no
    # Suppression and no user token until it is read, len() included, then
    # builds each once, and it reads as the oracle's tuple does.
    made = {"suppressions": 0, "tokens": 0}

    def counted(key, make):
        def wrapper(*args):
            made[key] += 1
            return make(*args)

        return wrapper

    monkeypatch.setattr(composition, "Suppression", counted("suppressions", Suppression))
    tokens = synth._UserTokens
    monkeypatch.setattr(tokens, "__getitem__", counted("tokens", tokens.__getitem__))
    res = clip_user(paper_occupancy, 65.0, epsilon, protect)
    n = len(res.trace)
    assert n and made == {"suppressions": 0, "tokens": 0}
    first, items = res.trace[0], list(res.trace)  # two reads, one build
    assert made == {"suppressions": n, "tokens": n}
    monkeypatch.undo()
    want = _clip_user_oracle(paper_occupancy, 65.0, epsilon, protect)
    assert res == want and want == res
    assert res.trace == want.trace and want.trace == res.trace
    assert (first, res.trace[-1], items) == (want.trace[0], want.trace[-1], list(want.trace))
    assert (hash(res.trace), repr(res.trace)) == (hash(want.trace), repr(want.trace))


def test_paper_scale_case_builds_entries_past_one_chunk(paper_occupancy):
    # at epsilon 0.05 the stage before the halting one completes with more
    # users new to the loop than one chunk of entries holds
    res = clip_user(paper_occupancy, 65.0, 0.05)
    users_per_level = np.bincount(np.bincount(paper_occupancy._ids))
    assert users_per_level[res.k_factor + 1] > composition._ENTRY_CHUNK


def test_entry_chunks_do_not_change_the_result(monkeypatch):
    occs = [
        generate_occupancy(SynthParams(grids=6, users=63, heavy_gamma=h), RngStream(seed))
        for seed, h in ((1, 0.0), (2, 3.0), (3, 9.0))
    ]
    want = [clip_user(o, 65.0, e, p) for o in occs for e in (0.1, 1.0) for p in (False, True)]
    monkeypatch.setattr(composition, "_ENTRY_CHUNK", 2)
    got = [clip_user(o, 65.0, e, p) for o in occs for e in (0.1, 1.0) for p in (False, True)]
    assert got == want


def test_clip_user_result_is_pinned_at_two_to_the_sixteen_users():
    # sha256 of the retained counts, the trace, the stage maxima and the
    # composition factor, pinned so that a rewrite of the loop keeps every bit
    occ = generate_occupancy(SynthParams(16, 65535, heavy_gamma=9), RngStream(5))
    res = clip_user(occ, 65.0, 0.5)
    h = hashlib.sha256(res.plan._gammas.tobytes())
    h.update(repr(res.trace).encode())
    h.update(" ".join(map(float.hex, res.stage_max_errors)).encode())
    h.update(f"{res.k_factor}".encode())
    assert (len(res.trace), res.k_factor) == (4489, 5)
    assert h.hexdigest() == "744266fdfab26a348d01d731fa554bbbea09853020420ff6c7e20557eee6c7f6"
