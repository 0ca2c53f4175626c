"""Release mechanisms: determinism, noise calibration, and draw order."""

import dataclasses
import math
import random
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from griddp.dataset import ClipPlan, Dataset, population_stats
from griddp.errors import (
    EmptyGrid,
    EmptyValues,
    GridDPError,
    InvalidParams,
    InvalidPlan,
    NoBins,
    TooLarge,
    UnknownGrid,
    ZeroRetained,
)
from griddp.grouping import STRATEGY_WRAP, array_means, best_fit, median_mub, wrap_around
from griddp.mechanisms import (
    MECHANISMS,
    MechanismParams,
    _bin_weights,
    _choose,
    _interval_bins,
    _intervals,
    _quantile_points,
    _quantile_weights,
    _table,
    array_average_release,
    baseline_release,
    clip_release,
    bind,
    concentration_tau,
    levy_planning_delta,
    levy_release,
    private_interval,
    prepare,
    private_quantile,
    quantile_release,
    release,
    sample_laplace,
)
from griddp.rng import RngStream, laplace_inverse_cdf
from griddp.sensitivity import clipped_mean_sensitivity, clipped_variance_sensitivity


def _dataset(counts, bound_u=10.0, seed=0):
    """Single-grid dataset with the given per-user counts and rnd values."""
    rnd = random.Random(seed)
    width = len(str(len(counts)))
    samples = {
        "g": {
            f"u{i + 1:0{width}d}": [rnd.uniform(0, bound_u) for _ in range(m)]
            for i, m in enumerate(counts)
        }
    }
    return Dataset(samples, bound_u)


def _params(**kw):
    base = dict(bound_u=10.0, epsilon=1.0)
    base.update(kw)
    return MechanismParams(**base)


def test_clip_release_is_deterministic():
    ds = _dataset([3, 2, 4])
    plan = {"u1": 2, "u3": 1}
    a = clip_release(ds, "g", plan, _params(), RngStream(7).split("g"))
    b = clip_release(ds, "g", plan, _params(), RngStream(7).split("g"))
    assert a == b
    c = clip_release(ds, "g", plan, _params(), RngStream(8).split("g"))
    assert c.noisy_mean != a.noisy_mean


def test_baseline_is_clip_with_everything_kept():
    ds = _dataset([3, 2, 4])
    base = baseline_release(ds, "g", _params(), RngStream(3))
    full = clip_release(ds, "g", {}, _params(), RngStream(3))
    assert base.noisy_mean == full.noisy_mean
    assert base.noisy_variance == full.noisy_variance
    assert base.noise_scale_mean == full.noise_scale_mean
    assert base.mechanism == "baseline"


def test_clip_noise_calibration_and_draw_order():
    ds = _dataset([3, 2, 4])
    plan = {"u1": 2, "u2": 2, "u3": 1}
    params = _params(epsilon=0.5)
    out = clip_release(ds, "g", plan, params, RngStream(11))

    gammas = [2, 2, 1]
    d_mean = clipped_mean_sensitivity(gammas, 10.0).value
    d_var = clipped_variance_sensitivity(gammas, 10.0).value
    assert out.noise_scale_mean == 2 * d_mean / 0.5
    assert out.noise_scale_var == 2 * d_var / 0.5

    # replay the stream: mean noise drawn first, variance second
    kept = ds.clipped_values("g", plan)
    _, mean, var = population_stats(kept)
    replay = RngStream(11)
    assert out.noisy_mean == mean + laplace_inverse_cdf(replay.random(), out.noise_scale_mean)
    assert out.noisy_variance == var + laplace_inverse_cdf(replay.random(), out.noise_scale_var)


def test_clip_plan_validation():
    ds = _dataset([3, 2])
    with pytest.raises(InvalidPlan):
        clip_release(ds, "g", {"ghost": 1}, _params(), RngStream(0))
    with pytest.raises(InvalidPlan):
        clip_release(ds, "g", {"u1": 4}, _params(), RngStream(0))
    with pytest.raises(InvalidPlan):
        clip_release(ds, "g", {"u1": -1}, _params(), RngStream(0))
    with pytest.raises(InvalidPlan, match="plan entry for grid g must map users to counts"):
        clip_release(ds, "g", None, _params(), RngStream(0))
    with pytest.raises(ZeroRetained):
        clip_release(ds, "g", {"u1": 0, "u2": 0}, _params(), RngStream(0))
    # the grid is looked up before the row is read as a plan
    with pytest.raises(UnknownGrid):
        clip_release(ds, "absent", {"ghost": 1}, _params(), RngStream(0))


def _reads(count, seed):
    """The uniform after the first count of RngStream(seed)."""
    ref = RngStream(seed)
    ref.random(count)
    return ref.random()


@pytest.mark.parametrize(
    "mechanism, kw, count",
    [
        ("baseline", {}, 2),
        ("clip", {}, 2),
        ("array_average", {}, 1),
        ("levy", {}, 2),
        ("quantile", {}, 5),
        ("quantile", {"quantile_mode": "optimized"}, 5),
    ],
)
def test_release_reads_the_documented_uniforms(mechanism, kw, count):
    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    for seed in range(3):
        rng = RngStream(seed)
        release(ds, "g", mechanism, _params(**kw), rng)
        assert rng.random() == _reads(count, seed)


def test_quantile_with_equal_ends_reads_no_noise_uniform():
    # a bound of the least subnormal puts both quantiles on 0 or U, so some
    # draws have a == b, a zero noise scale, and read 4 uniforms, not 5
    tiny = 5e-324
    ds = Dataset({"g": {f"u{i}": [0.0] * 3 for i in range(8)}}, tiny)
    equal_ends = 0
    for seed in range(10):
        rng = RngStream(seed)
        out = quantile_release(ds, "g", MechanismParams(tiny, 1.0), rng)
        equal_ends += out.interval[0] == out.interval[1]
        assert out.noise_scale_mean == 0.0
        assert rng.random() == _reads(4, seed)
    assert equal_ends >= 3


def test_single_retained_sample_has_zero_variance_noise():
    ds = _dataset([3, 2])
    rng = RngStream(4)
    out = clip_release(ds, "g", {"u1": 1, "u2": 0}, _params(), rng)
    assert out.noise_scale_var == 0.0
    assert out.noisy_variance == 0.0
    # the variance coordinate burns no randomness: the mean draw is the
    # stream's first uniform and nothing else is consumed
    replay = RngStream(4)
    expected = ds.values("g", "u1")[0] + laplace_inverse_cdf(replay.random(), out.noise_scale_mean)
    assert out.noisy_mean == expected
    assert rng.random() == replay.random()


def test_array_average_scale_best_and_wrap():
    ds = _dataset([4, 4, 4, 4])
    out = array_average_release(ds, "g", _params(capacity=4, epsilon=2.0), RngStream(1))
    assert out.arrays == 4
    assert out.noise_scale_mean == (10.0 / 4) / 2.0
    assert out.mechanism == "array_average_best"

    wrap = array_average_release(
        ds, "g", _params(capacity=4, epsilon=2.0, strategy=STRATEGY_WRAP), RngStream(1)
    )
    assert wrap.arrays == 4
    assert wrap.noise_scale_mean == (2 * 10.0 / 4) / 2.0
    assert wrap.mechanism == "array_average_wrap"


def test_array_average_default_capacity_is_lower_median():
    ds = _dataset([1, 3, 9])
    out = array_average_release(ds, "g", _params(), RngStream(2))
    counts = [1, 3, 9]
    cap = median_mub(counts)
    assert cap == 3
    groups = best_fit({u: ds.values("g", u) for u in ds.users_in("g")}, cap)
    assert out.arrays == len(groups)


def test_wrap_needs_one_full_array():
    ds = _dataset([1])
    with pytest.raises(EmptyGrid):
        array_average_release(
            ds, "g", _params(capacity=4, strategy=STRATEGY_WRAP), RngStream(0)
        )


def test_private_interval_worked_example():
    est = private_interval([1.2, 1.4, 3.3], 1.0, 1.0, 4.0, RngStream(9))
    assert est.midpoints == (0.5, 1.5, 2.5, 3.5)
    # snapped counts (0, 2, 0, 1): cost of a midpoint is the larger of the
    # counts strictly below and strictly above it
    assert est.costs == (3, 1, 2, 2)
    assert 0.0 <= est.a <= est.b <= 4.0


# Values with ties and out of [0, U], and each seed's private_quantile
# (level 0.3, eps_q 0.8, U 10) and private_interval (eps_half 1, tau 1.3,
# U 9.9) a, b and center, as float.hex.
_PINNED_VALUES = [3.5, -1.0, 2.25, 9.75, 2.25, 11.0, 0.0, 6.125, 4.0, 7.5, 2.25]
_PINNED_DRAWS = {
    0: ("0x1.4b2a76bb51c82p+1", "0x1.4cccccccccccep+1", "0x1.a000000000001p+2", "0x1.2333333333334p+2"),
    1: ("0x1.b812fe3558d3ap+1", "0x1.4ccccccccccccp+0", "0x1.4cccccccccccdp+2", "0x1.a000000000000p+1"),
    5: ("0x1.6de1443bab14bp+2", "0x1.f333333333332p+1", "0x1.f333333333333p+2", "0x1.7666666666666p+2"),
    99: ("0x1.7a6a273a99396p+1", "0x1.4ccccccccccccp+0", "0x1.4cccccccccccdp+2", "0x1.a000000000000p+1"),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_DRAWS))
def test_private_quantile_and_interval_pinned_bits_and_types(seed):
    q = private_quantile(_PINNED_VALUES, 0.3, 0.8, 10.0, RngStream(seed))
    est = private_interval(_PINNED_VALUES, 1.0, 1.3, 9.9, RngStream(seed))
    for value in (q, est.a, est.b, est.center, *est.midpoints):
        assert type(value) is float
    assert all(type(c) is int for c in est.costs)
    assert type(est.costs) is tuple and type(est.midpoints) is tuple
    assert tuple(map(float.hex, (q, est.a, est.b, est.center))) == _PINNED_DRAWS[seed]
    assert est.costs == (9, 6, 5, 6, 7, 8, 9, 9)
    assert tuple(map(float.hex, est.midpoints)) == (
        "0x1.4cccccccccccdp-1", "0x1.f333333333334p+0", "0x1.a000000000000p+1",
        "0x1.2333333333334p+2", "0x1.7666666666666p+2", "0x1.c99999999999ap+2",
        "0x1.0e66666666666p+3", "0x1.3000000000000p+3",
    )


def test_private_interval_concentrates_on_low_cost():
    # huge budget: the cost-1 bin wins against cost-2 by a factor e^25
    for seed in range(20):
        est = private_interval([1.2, 1.4, 3.3], 50.0, 1.0, 4.0, RngStream(seed))
        assert est.center == 1.5
    # and its interval is [0, 3]
    assert est.a == 0.0
    assert est.b == 3.0


def test_private_interval_validation():
    with pytest.raises(EmptyValues):
        private_interval([], 1.0, 1.0, 4.0, RngStream(0))
    with pytest.raises(NoBins):
        private_interval([1.0], 1.0, 0.0, 4.0, RngStream(0))
    with pytest.raises(InvalidParams):
        private_interval([1.0], 0.0, 1.0, 4.0, RngStream(0))
    # U / tau once overflowed in math.ceil (1e-320) or asked numpy for 10^300 bins
    for tau in (1e-320, 1e-300, 4.0 / (2**20 + 1)):
        with pytest.raises(TooLarge, match="more than 1048576 bins"):
            private_interval([0.5], 1.0, tau, 4.0, RngStream(0))


def _interval_weights_reference(means, eps_half, tau, bound_u):
    """The per-mean snapping loop and per-bin cost loop of private_interval."""
    nbins = max(1, math.ceil(bound_u / tau))
    edges = [i * tau for i in range(nbins)] + [bound_u]
    midpoints = [(edges[i] + edges[i + 1]) / 2 for i in range(nbins)]
    snapped = [0] * nbins
    for v in means:
        pos = bisect_left(midpoints, v)
        if pos == 0:
            idx = 0
        elif pos == nbins:
            idx = nbins - 1
        elif v - midpoints[pos - 1] <= midpoints[pos] - v:
            idx = pos - 1
        else:
            idx = pos
        snapped[idx] += 1
    below = 0
    costs = []
    for j in range(nbins):
        above = len(means) - below - snapped[j]
        costs.append(max(below, above))
        below += snapped[j]
    c_min = min(costs)
    weights = [math.exp(-eps_half * (c - c_min) / 2) for c in costs]
    return midpoints, costs, weights


@st.composite
def _interval_cases(draw):
    tau = draw(st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.5, 100.0]))
    bound_u = draw(st.sampled_from([1.0, 4.0, 10.0, 65.0]))
    # an edge i * tau lies halfway between two midpoints: the tie goes low
    edges = [i * tau for i in range(math.ceil(bound_u / tau) + 1)]
    ends = [math.inf, -math.inf, 0.0, bound_u]
    value = st.floats(-1.0, bound_u + 1.0) | st.sampled_from(edges + ends)
    return draw(st.lists(value, min_size=1, max_size=40)), tau, bound_u


@settings(max_examples=300, deadline=None)
@given(_interval_cases(), st.floats(0.01, 10.0))
@example(([1.0, 2.0, 3.0, 3.0], 1.0, 4.0), 1.0)  # each mean halfway between two midpoints
def test_interval_weights_match_reference_loop(case, eps_half):
    means, tau, bound_u = case
    midpoints, costs = _interval_bins(np.array(means), tau, bound_u)
    weights = _bin_weights(costs, eps_half)
    want = _interval_weights_reference(means, eps_half, tau, bound_u)
    assert [m.hex() for m in midpoints.tolist()] == [m.hex() for m in want[0]]
    assert costs.tolist() == want[1]
    assert [w.hex() for w in weights.tolist()] == [w.hex() for w in want[2]]


def test_levy_release_fields_and_scale():
    ds = _dataset([5, 5, 5, 5, 5], seed=3)
    params = _params(capacity=5, epsilon=1.0)
    out = levy_release(ds, "g", params, RngStream(6))
    assert out.mechanism == "levy"
    assert out.arrays == 5
    a, b = out.interval
    assert 0.0 <= a <= b <= 10.0
    assert out.noise_scale_mean == 2 * ((b - a) / 5) / 1.0
    assert out == levy_release(ds, "g", params, RngStream(6))


def test_concentration_tau_and_planning_delta():
    tau = concentration_tau(10.0, 4, 0.2, 25)
    import math

    assert tau == 10.0 * math.sqrt(math.log(2 * 4 / 0.2) / 50)
    assert levy_planning_delta(10.0, 4, tau) == min(3 * tau, 10.0) / 4
    assert levy_planning_delta(10.0, 4, 100.0) == 10.0 / 4
    with pytest.raises(InvalidParams):
        concentration_tau(10.0, 0, 0.2, 25)
    with pytest.raises(InvalidParams):
        levy_planning_delta(10.0, 0, 1.0)


def test_private_quantile_stays_in_range_and_clamps_inputs():
    out = private_quantile([3.0, 99.0, -5.0], 0.5, 1.0, 10.0, RngStream(2))
    assert 0.0 <= out <= 10.0


def test_private_quantile_concentrates_at_high_budget():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    # eps so large only the interval at the exact target rank survives
    for seed in range(10):
        out = private_quantile(values, 0.5, 400.0, 10.0, RngStream(seed))
        assert 4.0 <= out <= 5.0
        lo = private_quantile(values, 0.0, 400.0, 10.0, RngStream(seed))
        assert 0.0 <= lo <= 1.0


def test_private_quantile_neighbours_share_support():
    # At the median of 4000 equal values the target interval has zero
    # width and every interval with width lies about 2000 ranks away, so exp
    # underflows unless the shift comes from an interval with width. A
    # deterministic pick there would give the two neighbours disjoint
    # supports, [0, 5) and [5, 10): an infinite privacy loss.
    same = [5.0] * 4000
    moved = [0.5] + same[1:]
    for values in (same, moved):
        outs = [private_quantile(values, 0.5, 1.0, 10.0, RngStream(s)) for s in range(300)]
        assert min(outs) < 5.0 < max(outs)


def _choose_reference(weights, u):
    """The running-sum loop that the table lookup replaced."""
    r = u * reduce(add, weights, 0.0)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


_WEIGHTS = st.lists(
    st.just(0.0) | st.floats(0.0, 1e6) | st.integers(1, 4).map(float) | st.just(5e-324),
    min_size=1,
    max_size=30,
)


@settings(max_examples=500, deadline=None)
@given(_WEIGHTS, st.data())
@example([0.0, 0.0, 0.0], None)  # zero total: the last index
@example([1.0, 1.0, 2.0], None)  # u = 0.25 puts r exactly on cum[0]
@example([1.0, 0.0, 0.0, 1.0], None)  # r = 1.0 on a run of equal sums
@example([5e-324], None)  # u = 1 - 2^-53 rounds r up to cum[-1]
def test_choose_table_matches_running_sum(weights, data):
    cum, total = _table(weights)
    uniforms = [0.0, 0.25, 0.5, 0.75, 1 - 2**-53]
    # u with u * total on a running sum, where the loop's strict < decides
    uniforms += [c / total for c in cum if 0 < total and c / total < 1]
    if data is not None:
        uniforms.append(data.draw(st.floats(0.0, 1.0, exclude_max=True)))
    for u in uniforms:
        assert _choose(cum, total, u) == _choose_reference(weights, u)
    # one searchsorted over a block of uniforms chooses as one call per uniform
    want = [_choose_reference(weights, u) for u in uniforms]
    assert _choose(cum, total, np.array(uniforms)).tolist() == want


def test_choose_boundary_and_fallback_cases():
    cum, total = _table([1.0, 1.0, 2.0])
    assert 0.25 * total == cum[0]
    assert _choose(cum, total, 0.25) == _choose_reference([1.0, 1.0, 2.0], 0.25) == 1
    cum, total = _table([1.0, 0.0, 0.0, 1.0])
    assert _choose(cum, total, 0.5) == 3
    cum, total = _table([0.0, 0.0])
    assert _choose(cum, total, 0.5) == _choose_reference([0.0, 0.0], 0.5) == 1


def test_selection_rejects_nan_and_clamps_infinities():
    nan, inf = math.nan, math.inf
    for values in ([nan] * 3, [1.0, 2.0, nan]):
        with pytest.raises(InvalidParams):
            private_quantile(values, 0.5, 1.0, 10.0, RngStream(1))
        with pytest.raises(InvalidParams):
            private_interval(values, 1.0, 1.0, 10.0, RngStream(1))
    for seed in range(20):
        assert 0.0 <= private_quantile([inf, -inf, 5.0], 0.5, 1.0, 10.0, RngStream(seed)) <= 10.0
        est = private_interval([inf, -inf, 5.0], 1.0, 1.0, 10.0, RngStream(seed))
        assert 0.0 <= est.a <= est.b <= 10.0


def test_private_quantile_validation():
    with pytest.raises(EmptyValues):
        private_quantile([], 0.5, 1.0, 10.0, RngStream(0))
    with pytest.raises(InvalidParams):
        private_quantile([1.0], 1.5, 1.0, 10.0, RngStream(0))
    with pytest.raises(InvalidParams):
        private_quantile([1.0], 0.5, 0.0, 10.0, RngStream(0))


def _sorted_quantile_points(values, bound_u):
    """_quantile_points as a clamp per value and Python's stable sort."""
    xs = sorted(min(max(float(v), 0.0), float(bound_u)) for v in values)
    return [0.0] + xs + [float(bound_u)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([-0.0, 0.0, 2.5, 10.0]), st.floats(allow_nan=False)),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([10.0, 65.0, 5e-324]),
)
def test_quantile_points_match_the_sorted_comprehension(values, bound_u):
    want = _sorted_quantile_points(values, bound_u)
    assert list(map(float.hex, _quantile_points(values, bound_u))) == list(map(float.hex, want))


def _quantile_weights_reference(pts, q_level, eps_q):
    """Each interval's weight in a Python loop, one math.exp per interval of
    positive width."""
    n = len(pts) - 2
    target = q_level * n
    v = pts[round(target)]
    near = (bisect_left(pts, v) - 1, bisect_right(pts, v) - 1)
    shift = max(-abs(i - target) for i in near if 0 <= i <= n)
    half = eps_q / 2
    return [
        (hi - lo) * math.exp(half * (-abs(i - target) - shift)) if hi > lo else 0.0
        for i, lo, hi in zip(range(n + 1), pts, pts[1:])
    ]


def _assert_quantile_weights_match(values, q_level, eps_q):
    pts = _quantile_points(values, 10.0)
    got = _quantile_weights(pts, q_level, eps_q, _intervals(pts)).tolist()
    want = _quantile_weights_reference(pts.tolist(), q_level, eps_q)
    assert list(map(float.hex, got)) == list(map(float.hex, want))
    return pts, got


@pytest.mark.parametrize(
    "values, q_level, eps_q",
    [
        # a run of equal points holds pts[round(q n)]
        ([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 5.0], 0.5, 1.0),
        ([1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 9.0], 0.1, 4.0),
        # zero-width intervals nearer the target than the shift, where exp
        # of their exponent would overflow
        ([3.0] * 20, 0.5, 1e3),
        ([2.0] * 7 + [5.0] * 7, 0.3, 1e3),
        ([0.0, 0.0, 0.0, 10.0, 10.0], 0.5, 1e3),
        # both ends of the level range
        ([1.0, 2.0, 2.0, 6.0], 0.0, 1.0),
        ([1.0, 2.0, 2.0, 6.0], 1.0, 1.0),
        ([0.0, 0.0, 4.0], 0.0, 40.0),
        ([4.0, 10.0, 10.0], 1.0, 40.0),
        # a single point, inside and at either end
        ([4.0], 0.5, 1.0),
        ([0.0], 0.9, 1.0),
        ([10.0], 0.1, 1.0),
    ],
)
def test_quantile_weights_match_the_interval_loop(values, q_level, eps_q):
    _assert_quantile_weights_match(values, q_level, eps_q)


def test_quantile_weights_underflow_to_zero_as_the_loop_does():
    values = [i / 10 for i in range(1, 100)]
    pts, got = _assert_quantile_weights_match(values, 0.5, 1e3)
    widths = np.diff(pts)
    assert ((widths > 0) & (np.array(got) == 0.0)).sum() > 80
    assert max(got) > 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 10.0]) | st.floats(-1.0, 11.0), min_size=1, max_size=40),
    st.sampled_from([0.0, 1.0, 0.1, 0.9]) | st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 0.25, 40.0, 1e3]) | st.floats(1e-3, 1e3),
)
def test_quantile_weights_match_the_interval_loop_on_random_points(values, q_level, eps_q):
    _assert_quantile_weights_match(values, q_level, eps_q)


def test_quantile_release_scale_and_interval():
    ds = _dataset([4, 4, 4, 4, 4, 4], seed=5)
    params = _params(capacity=4, epsilon=1.0)
    out = quantile_release(ds, "g", params, RngStream(13))
    assert out.mechanism == "quantile_fixed"
    a, b = out.interval
    assert 0.0 <= a <= b <= 10.0
    assert out.noise_scale_mean == 2 * ((b - a) / out.arrays) / 1.0
    assert not out.degenerate_ranks


def test_quantile_optimized_flags_degenerate_ranks():
    # epsilon 0.1 wants rank 20 from each side; 6 arrays cap the rank at 2
    ds = _dataset([4, 4, 4, 4, 4, 4], seed=5)
    params = _params(capacity=4, epsilon=0.1, quantile_mode="optimized")
    out = quantile_release(ds, "g", params, RngStream(13))
    assert out.mechanism == "quantile_optimized"
    assert out.degenerate_ranks
    # plenty of arrays at a generous budget: ranks fit
    big = _dataset([2] * 40, seed=6)
    params = _params(capacity=2, epsilon=2.0, quantile_mode="optimized")
    out = quantile_release(big, "g", params, RngStream(13))
    assert not out.degenerate_ranks


def test_optimized_quantile_at_subnormal_epsilon_is_a_domain_error():
    # 2 / 1e-320 overflows to inf, whose math.ceil once raised OverflowError
    ds = _dataset([4, 4, 4, 4, 4, 4], seed=5)
    params = _params(capacity=4, epsilon=1e-320, quantile_mode="optimized")
    with pytest.raises(GridDPError):
        quantile_release(ds, "g", params, RngStream(13))


def test_release_dispatch():
    ds = _dataset([3, 2, 4])
    params = _params()
    out = release(ds, "g", "clip", params, RngStream(5))
    assert out.mechanism == "clip"
    base = release(ds, "g", "baseline", params, RngStream(5))
    assert out.noisy_mean == base.noisy_mean
    for name in ("array_average", "levy", "quantile"):
        got = release(ds, "g", name, params, RngStream(5))
        assert got.grid == "g"
    with pytest.raises(InvalidParams):
        release(ds, "g", "midpoint", params, RngStream(5))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_release_refuses_a_bound_other_than_the_datasets(mechanism):
    # values up to 64 released under U = 1 once got 1/65 of the noise U = 65 needs
    ds = Dataset({"g": {"a": [60.0, 64.0], "b": [0.5]}}, 65.0)
    for bound_u in (1.0, 100.0):
        params = MechanismParams(bound_u=bound_u, epsilon=1.0)
        with pytest.raises(InvalidParams, match="differs from the data's 65.0"):
            release(ds, "g", mechanism, params, RngStream(1))
        if mechanism != "baseline":
            with pytest.raises(InvalidParams, match="differs from the data's 65.0"):
                bind(prepare(ds, "g", mechanism, params), params)
    release(ds, "g", mechanism, MechanismParams(bound_u=65, epsilon=1.0), RngStream(1))


GROUPED_CASES = [
    ("array_average", {}),
    ("array_average", {"strategy": STRATEGY_WRAP}),
    ("array_average", {"capacity": 3}),
    ("array_average", {"capacity": 3, "strategy": STRATEGY_WRAP}),
    ("levy", {}),
    ("levy", {"capacity": 4, "gamma": 0.05}),
    ("levy", {"strategy": STRATEGY_WRAP}),
    ("quantile", {}),
    ("quantile", {"quantile_mode": "optimized"}),
    ("quantile", {"quantile_mode": "optimized", "strategy": STRATEGY_WRAP, "capacity": 2}),
    ("clip", {}),
]


@pytest.mark.parametrize("mechanism, kw", GROUPED_CASES)
def test_release_equals_draw_of_prepare(mechanism, kw):
    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    prepared = prepare(ds, "g", mechanism, _params(**kw))
    # one preparation serves every epsilon, one binding every seed
    for eps in (0.1, 1.0, 4.0):
        params = _params(epsilon=eps, **kw)
        bound = bind(prepared, params)
        for seed in range(3):
            want = release(ds, "g", mechanism, params, RngStream(seed).split("g"))
            got = bound.draw(RngStream(seed).split("g"))
            assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))


@st.composite
def _int_or_float_grid(draw):
    """One grid's samples, all ints or all floats, for a bound of 2^60."""
    if draw(st.booleans()):
        value = st.integers(0, 2**60)
    else:
        value = st.floats(0.0, 2.0**60) | st.sampled_from([0.1, 0.2, 0.3, 1e-300])
    return {
        f"u{i:02d}": draw(st.lists(value, min_size=1, max_size=9))
        for i in range(draw(st.integers(1, 14)))
    }


@settings(max_examples=300, deadline=None)
@given(_int_or_float_grid(), st.integers(1, 12), st.sampled_from(GROUPED_CASES[:-1]))
def test_prepare_means_equal_array_means_of_packing(samples, capacity, case):
    mechanism, kw = case
    ds = Dataset({"g": samples}, 2.0**60)
    params = _params(bound_u=2.0**60, **{**kw, "capacity": capacity})
    wrap = mechanism == "array_average" and kw.get("strategy") == STRATEGY_WRAP
    groups = (wrap_around if wrap else best_fit)(samples, capacity)
    if not groups:
        with pytest.raises(EmptyGrid):
            prepare(ds, "g", mechanism, params)
        return
    prepared = prepare(ds, "g", mechanism, params)
    assert list(map(float.hex, prepared.means)) == list(map(float.hex, array_means(groups)))


def test_prepare_validation():
    ds = _dataset([1])
    with pytest.raises(EmptyGrid):
        prepare(ds, "g", "array_average", _params(capacity=4, strategy=STRATEGY_WRAP))
    with pytest.raises(InvalidParams):
        prepare(ds, "g", "midpoint", _params())
    p = _params()
    drawn = bind(prepare(ds, "g", "baseline", p), p).draw(RngStream(5))
    assert drawn == baseline_release(ds, "g", p, RngStream(5))


def test_params_validation():
    with pytest.raises(InvalidParams):
        MechanismParams(bound_u=0.0, epsilon=1.0)
    with pytest.raises(InvalidParams):
        MechanismParams(bound_u=1.0, epsilon=0.0)
    with pytest.raises(InvalidParams):
        MechanismParams(bound_u=1.0, epsilon=1.0, gamma=1.0)
    with pytest.raises(InvalidParams):
        MechanismParams(bound_u=1.0, epsilon=1.0, strategy="stack")
    with pytest.raises(InvalidParams):
        MechanismParams(bound_u=1.0, epsilon=1.0, capacity=0)
    with pytest.raises(InvalidParams):
        MechanismParams(bound_u=1.0, epsilon=1.0, quantile_mode="exact")


def test_sample_laplace_requires_positive_scale():
    from griddp.errors import NonPositiveScale

    with pytest.raises(NonPositiveScale):
        sample_laplace(0.0, RngStream(0))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-5.0, max_value=15.0), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.integers(min_value=0, max_value=100),
)
def test_private_quantile_always_in_range(values, q_level, eps_q, seed):
    out = private_quantile(values, q_level, eps_q, 10.0, RngStream(seed))
    assert 0.0 <= out <= 10.0


def _copy(ds, column=None):
    """A fresh dataset over the same occupancy, with ds's values or column."""
    return Dataset._from_columns(
        ds.occupancy(), np.array(ds._column if column is None else column), ds.bound_u
    )


def test_mae_curves_of_one_grid_share_one_packing(monkeypatch):
    from griddp import mechanisms
    from griddp.harness import ExperimentConfig, mae_eval

    packs = []
    pack = mechanisms._pack
    monkeypatch.setattr(mechanisms, "_pack", lambda *a: packs.append(a[1:]) or pack(*a))
    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    runs = [("levy", "fixed"), ("quantile", "fixed"), ("quantile", "optimized")]
    points = []
    for _ in range(2):
        for mechanism, mode in runs:
            config = ExperimentConfig(epsilons=(0.5, 2.0), seed=3, mechanism=mechanism, mae_draws=4)
            points.append(mae_eval(ds, "g", config, quantile_mode=mode))
        # levy and both quantile modes pack best-fit at the optimized capacity
        assert len(packs) == 1
    assert points[:3] == points[3:]


def test_kept_packings_equal_packings_of_a_fresh_copy():
    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    cases = [
        ("array_average", _params(capacity=4, strategy=STRATEGY_WRAP)),
        ("array_average", _params(capacity=4)),
        ("levy", _params(capacity=4)),
        ("levy", _params()),
        ("quantile", _params(capacity=4)),
    ]
    for _ in range(2):
        for mechanism, params in cases:
            kept, fresh = (prepare(d, "g", mechanism, params) for d in (ds, _copy(ds)))
            assert kept == fresh
            # and so are the arrays kept beside them, bit for bit
            tau = concentration_tau(10.0, len(kept.means), params.gamma, kept.capacity)
            for mine, theirs in zip(*(_kept_arrays(p.arrays, tau) for p in (kept, fresh))):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def _kept_arrays(packing, tau):
    return [packing.array, *packing.intervals, *packing.bins(tau)]


def test_datasets_over_one_occupancy_keep_their_own_means():
    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    other = _copy(ds, 10.0 - ds._column)
    for mechanism in ("array_average", "levy", "quantile"):
        mine, theirs = (prepare(d, "g", mechanism, _params()) for d in (ds, other))
        assert mine.capacity == theirs.capacity
        assert theirs.means == prepare(_copy(other), "g", mechanism, _params()).means
        assert mine.means != theirs.means


def test_kept_grid_mean_equals_the_mean_of_a_fresh_copy():
    from griddp.dataset import left_sum
    from griddp.harness import ExperimentConfig, mae_eval

    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    assert ds._means == {}

    def curve(dataset, mechanism):
        config = ExperimentConfig(epsilons=(0.5, 2.0), seed=3, mechanism=mechanism, mae_draws=4)
        return [p.value.hex() for p in mae_eval(dataset, "g", config)]

    # the dataset serves clip first, and each mechanism after the one before
    curve(ds, "clip")
    for mechanism in ("array_average", "levy", "quantile"):
        fresh = _copy(ds)
        assert fresh._means == {}
        assert curve(ds, mechanism) == curve(fresh, mechanism)
    column = ds._grid_column("g")
    assert list(ds._means) == ["g"]
    assert ds._means["g"].hex() == (left_sum(column) / len(column)).hex()


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
@pytest.mark.parametrize("mechanism", ["clip", "array_average", "levy", "quantile"])
def test_draw_batch_rejects_uniforms_outside_the_unit_interval(mechanism, bad):
    ds = _dataset([4, 4, 4, 4, 4, 4], seed=5)
    params = _params(capacity=4)
    bound = bind(prepare(ds, "g", mechanism, params), params)
    block = np.full((3, bound.uniforms), 0.25)
    bound.draw_batch(block)
    for col in range(bound.uniforms):
        block[2, col] = bad
        with pytest.raises(InvalidParams, match=r"uniforms must lie in \[0, 1\]"):
            bound.draw_batch(block)
        block[2, col] = 0.25


@pytest.mark.parametrize("mechanism", ["clip", "array_average", "levy", "quantile"])
def test_draw_batch_rejects_a_block_of_the_wrong_shape(mechanism):
    ds = _dataset([4, 4, 4, 4, 4, 4], seed=5)
    params = _params(capacity=4)
    bound = bind(prepare(ds, "g", mechanism, params), params)
    m = bound.uniforms
    shape = rf"\(N, {m}\) block or a wider one, got shape"
    for block in (np.full(m, 0.25), np.full((3, m - 1), 0.25), np.full((2, 3, m), 0.25), 0.25):
        with pytest.raises(InvalidParams, match=shape):
            bound.draw_batch(block)
    # mae_eval passes as many columns as the widest mechanism reads
    wide = RngStream(3).split_uniforms(["a", "b", "c"], 5)
    got, want = bound.draw_batch(wide), bound.draw_batch(wide[:, :m])
    assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))


# (mechanism, MechanismParams keyword arguments, narrow levy's odd bins)
ONE_PASS_CASES = [
    ("clip", {}, False),
    ("array_average", {}, False),
    ("array_average", {"strategy": STRATEGY_WRAP}, False),
    ("levy", {}, False),
    ("levy", {}, True),
    ("quantile", {}, False),
    # rank_cap is 2 here, so the ranks are degenerate at 0.3 and not at 4
    ("quantile", {"quantile_mode": "optimized"}, False),
]


def _narrowed(bound):
    """A levy bind whose odd bins have zero width. Levy's own ends always
    differ (1.5 tau > 0 and every center lies in [0, U]), so the draw's
    zero-scale path is reached by narrowing the bins by hand."""
    ends = bound.ends.copy()
    ends[1::2, 1] = ends[1::2, 0]
    return dataclasses.replace(bound, ends=ends)


@pytest.mark.parametrize("mechanism, kw, narrow", ONE_PASS_CASES)
def test_one_pass_draw_equals_draw_batch_per_epsilon(monkeypatch, mechanism, kw, narrow):
    from griddp import harness
    from griddp.dataset import left_sum
    from griddp.harness import ExperimentConfig, mae_eval
    from griddp.mechanisms import _draw_rows, _row

    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    epsilons, draws = (0.3, 1.0, 4.0), 5
    all_params = [_params(epsilon=eps, **kw) for eps in epsilons]
    prepared = prepare(ds, "g", mechanism, all_params[0])
    bounds = [bind(prepared, params) for params in all_params]
    if narrow:
        bounds = [_narrowed(bound) for bound in bounds]
        monkeypatch.setattr(harness, "bind", lambda prep, params: _narrowed(bind(prep, params)))
    root = RngStream(3)
    labels = [f"mae:{ei}:{i}" for ei in range(len(epsilons)) for i in range(draws)]
    block = root.split_uniforms(labels, 5)
    batches = [
        bound.draw_batch(block[ei * draws : (ei + 1) * draws, : bound.uniforms])
        for ei, bound in enumerate(bounds)
    ]
    want = [_row(batch, i) for batch in batches for i in range(draws)]
    # every epsilon's rows of the block in one pass, each row equal to its
    # epsilon's draw_batch and to draw on its own split
    one_pass = _draw_rows(bounds, [draws] * len(bounds), block)
    for row, label in enumerate(labels):
        got = _row(one_pass, row)
        assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want[row]))
        rng = root.split(label)
        assert got == bounds[row // draws].draw(rng)
        # a zero-width interval, of noise scale 0, reads no noise uniform
        reads = bounds[0].uniforms - (got.noise_scale_mean == 0.0)
        assert rng.random() == root.split(label).random(reads + 1)[-1]
    if narrow:
        assert 0 < sum(_row(one_pass, i).noise_scale_mean == 0.0 for i in range(len(labels))) < 15
    # 3 epsilons x 5 draws in blocks of 7 rows straddle the epsilons
    true_mean = ds._grid_mean("g")
    maes = [left_sum(np.abs(batch.noisy_mean - true_mean)) / draws for batch in batches]
    config = ExperimentConfig(epsilons=epsilons, seed=3, mechanism=mechanism, mae_draws=draws)
    monkeypatch.setattr(harness, "_CHILDREN", 7)
    points = mae_eval(ds, "g", config, **kw)
    assert [p.value.hex() for p in points] == [mae.hex() for mae in maes]


def test_prepare_keeps_read_only_arrays_and_bind_copies_none(monkeypatch):
    from griddp import mechanisms

    ds = _dataset([7, 1, 4, 4, 9, 2, 5, 3, 6, 8, 2, 2], seed=8)
    params = _params()
    first = prepare(ds, "g", "quantile", params)
    kept = first.arrays
    tau = concentration_tau(10.0, len(kept.means), params.gamma, kept.capacity)
    arrays = [kept.array, *kept.intervals, *kept.bins(tau)]
    for array in arrays:
        assert not array.flags.writeable
    # a second prepare packs, clamps and sorts nothing again
    calls = []
    for name in ("_pack", "_quantile_points", "_interval_bins"):
        real = getattr(mechanisms, name)
        monkeypatch.setattr(
            mechanisms, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    for mechanism in ("levy", "quantile"):
        assert prepare(ds, "g", mechanism, params).arrays is kept
    assert prepare(ds, "g", "quantile", params) == first
    # the binds of every epsilon read the kept arrays as they are
    for eps in (0.5, 2.0):
        eps_params = _params(epsilon=eps)
        levy = bind(prepare(ds, "g", "levy", eps_params), eps_params)
        quantile = bind(prepare(ds, "g", "quantile", eps_params), eps_params)
        assert levy.means is quantile.means is kept.array
        assert levy.ends is kept.bins(tau)[0]
        assert quantile.pts is kept.intervals[0]
    assert calls == []


def test_an_empty_packing_raises_on_every_call():
    ds = _dataset([1, 2])
    params = _params(capacity=4, strategy=STRATEGY_WRAP)
    for _ in range(2):
        with pytest.raises(EmptyGrid):
            prepare(ds, "g", "array_average", params)
    assert ds._packings == {}


def test_dataset_columns_are_read_only():
    ds = _dataset([3, 2])
    occ = ds.occupancy()
    for column in (ds._column, occ._counts, occ._ids):
        with pytest.raises(ValueError):
            column[0] = column[0]


def test_clip_release_of_a_plan_equals_release_of_its_row():
    ds = _dataset([3, 2, 4])
    plan = ClipPlan.for_occupancy(ds.occupancy(), {"g": {"u1": 2, "u3": 1}})
    want = clip_release(ds, "g", plan.row("g"), _params(), RngStream(7))
    assert clip_release(ds, "g", plan, _params(), RngStream(7)) == want
