"""Private release mechanisms for per-grid mean (and variance) estimates.

Every mechanism takes the same ingredients: a dataset, a grid token, a
MechanismParams bundle, and an RngStream. Randomness is consumed in a fixed
documented order, so a given (inputs, seed) pair always yields the same
release.

The grouped mechanisms (array averaging, levy, quantile) split into
prepare(), which packs the grid into arrays and keeps the array means, and
draw(), which spends the budget on one release from them. Only draw() is
random, so repeated releases of one grid prepare once.

Budget layout per mechanism, for a total privacy cost of epsilon:
- baseline / clip: epsilon/2 on the mean, epsilon/2 on the variance, i.e.
  Laplace scale 2*delta/epsilon on each coordinate.
- array averaging: the whole epsilon on the single mean coordinate.
- levy: epsilon/2 on the private interval, epsilon/2 on the noisy mean of
  projected array means.
- quantile: epsilon/4 on each private quantile, epsilon/2 on the noisy mean.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .dataset import Dataset, population_stats
from .errors import (
    EmptyGrid,
    EmptyValues,
    InvalidParams,
    InvalidPlan,
    NoBins,
    NonPositiveScale,
    ZeroRetained,
    require_int,
    require_positive,
)
from .grouping import (
    STRATEGY_BEST,
    STRATEGY_WRAP,
    array_means,
    best_fit,
    median_mub,
    optimized_mub,
    wrap_around,
)
from .rng import RngStream, laplace_inverse_cdf
from .sensitivity import (
    array_avg_sensitivity,
    clipped_mean_sensitivity,
    clipped_variance_sensitivity,
)

QUANTILE_FIXED = "fixed"
QUANTILE_OPTIMIZED = "optimized"

# Fixed-mode quantile levels for the projection interval.
FIXED_LOW_LEVEL = 0.1
FIXED_HIGH_LEVEL = 0.9


@dataclass(frozen=True)
class MechanismParams:
    """Shared mechanism configuration.

    capacity: array size for the grouping mechanisms; None picks the rule
    default (lower median for plain array averaging, the exact integer
    maximizer of sum(min(m, c))/sqrt(c) for levy and quantile).
    gamma: failure probability of the concentration interval used by levy.
    """

    bound_u: float
    epsilon: float
    gamma: float = 0.2
    strategy: str = STRATEGY_BEST
    capacity: int | None = None
    quantile_mode: str = QUANTILE_FIXED

    def __post_init__(self) -> None:
        require_positive("value bound", self.bound_u)
        require_positive("epsilon", self.epsilon)
        if not 0 < self.gamma < 1:
            raise InvalidParams(f"gamma must be in (0, 1), got {self.gamma}")
        if self.strategy not in (STRATEGY_WRAP, STRATEGY_BEST):
            raise InvalidParams(f"unknown grouping strategy {self.strategy!r}")
        if self.capacity is not None:
            require_int("capacity", self.capacity, low=1)
        if self.quantile_mode not in (QUANTILE_FIXED, QUANTILE_OPTIMIZED):
            raise InvalidParams(f"unknown quantile mode {self.quantile_mode!r}")


@dataclass(frozen=True)
class IntervalEstimate:
    """Privately selected projection interval [a, b] around a bin center."""

    a: float
    b: float
    center: float
    costs: tuple[int, ...]
    midpoints: tuple[float, ...]


@dataclass(frozen=True)
class MechanismOutput:
    mechanism: str
    grid: str
    noisy_mean: float
    noise_scale_mean: float
    noisy_variance: float | None = None
    noise_scale_var: float | None = None
    interval: tuple[float, float] | None = None
    degenerate_ranks: bool = False
    arrays: int | None = None


def sample_laplace(scale: float, rng: RngStream) -> float:
    """One Laplace(scale) draw via the inverse CDF; consumes one uniform."""
    require_positive("laplace scale", scale, NonPositiveScale)
    return float(laplace_inverse_cdf(rng.random(), scale))


def _noise(scale: float, rng: RngStream) -> float:
    # Zero-sensitivity coordinates get no noise and burn no randomness.
    if scale > 0:
        return sample_laplace(scale, rng)
    return 0.0


def _choose(weights: list[float], rng: RngStream) -> int:
    """Index i with probability weights[i] / sum(weights), by a running sum
    over one uniform; the sum must be positive."""
    r = rng.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def _grid_samples(dataset: Dataset, grid: str) -> dict[str, tuple[float, ...]]:
    return {u: dataset.values(grid, u) for u in dataset.users_in(grid)}


def clip_release(
    dataset: Dataset,
    grid: str,
    retained: dict[str, int],
    params: MechanismParams,
    rng: RngStream,
    label: str = "clip",
) -> MechanismOutput:
    """Release mean and variance of the first-gamma retained samples.

    retained maps user token to the number of samples kept; users absent
    from the mapping keep everything. Noise is calibrated to the retained
    counts only. Draw order: mean noise, then variance noise.
    """
    samples = _grid_samples(dataset, grid)
    unknown = set(retained) - set(samples)
    if unknown:
        raise InvalidPlan(f"plan names users absent from grid {grid}: {sorted(unknown)}")
    gammas: list[int] = []
    kept: list[float] = []
    for user in sorted(samples):
        g = require_int("retained count", retained.get(user, len(samples[user])))
        if not 0 <= g <= len(samples[user]):
            raise InvalidPlan(
                f"retained count for user {user} in grid {grid} must be in "
                f"[0, {len(samples[user])}], got {g}"
            )
        gammas.append(g)
        kept.extend(samples[user][:g])
    if not kept:
        raise ZeroRetained(f"plan suppresses every sample in grid {grid}")
    _, mean, variance = population_stats(kept)
    d_mean = clipped_mean_sensitivity(gammas, params.bound_u).value
    d_var = clipped_variance_sensitivity(gammas, params.bound_u).value
    scale_mean = 2 * d_mean / params.epsilon
    scale_var = 2 * d_var / params.epsilon
    return MechanismOutput(
        mechanism=label,
        grid=grid,
        noisy_mean=mean + _noise(scale_mean, rng),
        noise_scale_mean=scale_mean,
        noisy_variance=variance + _noise(scale_var, rng),
        noise_scale_var=scale_var,
    )


def baseline_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Full-data release: the clip mechanism with nothing clipped."""
    out = clip_release(dataset, grid, {}, params, rng, label="baseline")
    return out


def array_average_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Release the mean of array means with the whole budget on one draw."""
    return draw(prepare(dataset, grid, "array_average", params), params, rng)


def concentration_tau(bound_u: float, k_bar: int, gamma: float, capacity: int) -> float:
    """Half-width bound: all array means of an iid grid stay within tau of
    the grid mean except with probability gamma."""
    require_positive("value bound", bound_u)
    require_int("array count", k_bar, low=1)
    if not 0 < gamma < 1:
        raise InvalidParams(f"gamma must be in (0, 1), got {gamma}")
    require_int("capacity", capacity, low=1)
    return bound_u * math.sqrt(math.log(2 * k_bar / gamma) / (2 * capacity))


def levy_planning_delta(bound_u: float, k_bar: int, tau: float) -> float:
    """Planning-time stand-in for the data-dependent projected sensitivity."""
    require_int("array count", k_bar, low=1)
    return min(3 * tau, bound_u) / k_bar


def private_interval(
    means, eps_half: float, tau: float, bound_u: float, rng: RngStream
) -> IntervalEstimate:
    """Exponential-mechanism choice of a tau-grid cell covering the means.

    The value range (0, U] is cut into ceil(U/tau) bins of width tau (the
    last one short). Each mean is snapped to the nearest bin midpoint, ties
    to the lower one. A midpoint's cost is the larger of the snapped counts
    strictly below and strictly above it; midpoint T is drawn with weight
    exp(-eps_half * cost / 2) and the interval is
    [max(0, T - 1.5 tau), min(T + 1.5 tau, U)]. Consumes one uniform.
    """
    means = [float(v) for v in means]
    if not means:
        raise EmptyValues("no array means to locate")
    require_positive("interval budget", eps_half)
    require_positive("value bound", bound_u)
    require_positive("bin width", tau, NoBins)
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
    total_means = len(means)
    for j in range(nbins):
        above = total_means - below - snapped[j]
        costs.append(max(below, above))
        below += snapped[j]

    c_min = min(costs)
    weights = [math.exp(-eps_half * (c - c_min) / 2) for c in costs]
    center = midpoints[_choose(weights, rng)]
    return IntervalEstimate(
        a=max(0.0, center - 1.5 * tau),
        b=min(center + 1.5 * tau, bound_u),
        center=center,
        costs=tuple(costs),
        midpoints=tuple(midpoints),
    )


def levy_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Project best-fit array means onto a private interval, then average.

    Draw order: one uniform for the interval, one for the Laplace noise.
    """
    return draw(prepare(dataset, grid, "levy", params), params, rng)


def private_quantile(
    values, q_level: float, eps_q: float, bound_u: float, rng: RngStream
) -> float:
    """Exponential-mechanism quantile over [0, U]; consumes two uniforms.

    Sorted values plus sentinels 0 and U cut [0, U] into n+1 intervals;
    interval i gets mass width * exp(-(eps_q/2) * |i - q*n|), then the
    return value is uniform inside the drawn interval.
    """
    xs = sorted(min(max(float(v), 0.0), float(bound_u)) for v in values)
    if not xs:
        raise EmptyValues("no values to take a quantile of")
    if not 0 <= q_level <= 1:
        raise InvalidParams(f"quantile level must be in [0, 1], got {q_level}")
    require_positive("quantile budget", eps_q)
    require_positive("value bound", bound_u)
    n = len(xs)
    pts = [0.0] + xs + [float(bound_u)]
    target = q_level * n
    # Shift by the utility of the positive-width interval nearest the target,
    # so the largest weight is that interval's width and the sum is positive.
    # Intervals inside a run of equal points have zero width; the nearest
    # positive-width ones border the run that holds pts[round(target)].
    v = pts[round(target)]
    near = (bisect_left(pts, v) - 1, bisect_right(pts, v) - 1)
    shift = max(-abs(i - target) for i in near if 0 <= i <= n)
    half = eps_q / 2
    weights = [
        (hi - lo) * math.exp(half * (-abs(i - target) - shift)) if hi > lo else 0.0
        for i, lo, hi in zip(range(n + 1), pts, pts[1:])
    ]
    chosen = _choose(weights, rng)
    return pts[chosen] + rng.random() * (pts[chosen + 1] - pts[chosen])


def quantile_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Project best-fit array means between two private quantiles.

    Fixed mode uses levels 0.1 and 0.9. Optimized mode targets ranks
    floor(2/eps) from the bottom and ceil(2/eps) from the top, clamped to
    floor((k-1)/2) when the grid has too few arrays (flagged as degenerate
    ranks). Draw order: two uniforms per quantile (low then high), then one
    for the Laplace noise.
    """
    return draw(prepare(dataset, grid, "quantile", params), params, rng)


@dataclass(frozen=True)
class Prepared:
    """The epsilon-independent half of a grouped release.

    The packing of a grid's users into arrays depends only on the public
    occupancy, so one Prepared serves every epsilon and every draw. strategy
    and capacity are the ones the packing used: levy and quantile always
    pack best-fit at the optimized capacity unless one is given.
    """

    mechanism: str
    grid: str
    strategy: str
    capacity: int
    means: tuple[float, ...]


def prepare(
    dataset: Dataset, grid: str, mechanism: str, params: MechanismParams
) -> Prepared:
    """Pack one grid for a grouped mechanism and keep its array means.

    mechanism is array_average, levy or quantile. array_average packs with
    params.strategy at params.capacity or the lower median of the counts;
    levy and quantile pack best-fit at params.capacity or optimized_mub.
    """
    if mechanism not in GROUPED_MECHANISMS:
        raise InvalidParams(f"{mechanism!r} is not a grouped mechanism")
    samples = _grid_samples(dataset, grid)
    counts = [len(samples[u]) for u in sorted(samples)]
    if mechanism == "array_average":
        strategy = params.strategy
        capacity = params.capacity if params.capacity is not None else median_mub(counts)
    else:
        strategy = STRATEGY_BEST
        capacity = params.capacity if params.capacity is not None else optimized_mub(counts)
    if strategy == STRATEGY_WRAP:
        groups = wrap_around(samples, capacity)
        if not groups:
            raise EmptyGrid(
                f"grid {grid} fills no array of capacity {capacity}; "
                "wrap-around needs at least one full array"
            )
    else:
        groups = best_fit(samples, capacity)
    return Prepared(mechanism, grid, strategy, capacity, tuple(array_means(groups)))


def _draw_array_average(
    prep: Prepared, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    means = prep.means
    delta = array_avg_sensitivity(len(means), params.bound_u, prep.strategy).value
    scale = delta / params.epsilon
    return MechanismOutput(
        mechanism=f"array_average_{prep.strategy}",
        grid=prep.grid,
        noisy_mean=sum(means) / len(means) + _noise(scale, rng),
        noise_scale_mean=scale,
        arrays=len(means),
    )


def _projected_release(
    mechanism: str,
    prep: Prepared,
    a: float,
    b: float,
    params: MechanismParams,
    rng: RngStream,
    degenerate: bool = False,
) -> MechanismOutput:
    """The noisy mean of the array means clamped to [a, b]: sensitivity
    (b - a) / k_bar on half the budget; one uniform unless a == b."""
    means = prep.means
    k_bar = len(means)
    projected = [min(max(v, a), b) for v in means]
    delta = (b - a) / k_bar
    scale = 2 * delta / params.epsilon
    return MechanismOutput(
        mechanism=mechanism,
        grid=prep.grid,
        noisy_mean=sum(projected) / k_bar + _noise(scale, rng),
        noise_scale_mean=scale,
        interval=(a, b),
        degenerate_ranks=degenerate,
        arrays=k_bar,
    )


def _draw_levy(
    prep: Prepared, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    means = prep.means
    tau = concentration_tau(params.bound_u, len(means), params.gamma, prep.capacity)
    est = private_interval(means, params.epsilon / 2, tau, params.bound_u, rng)
    return _projected_release("levy", prep, est.a, est.b, params, rng)


def _draw_quantile(
    prep: Prepared, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    means = prep.means
    k_bar = len(means)
    degenerate = False
    if params.quantile_mode == QUANTILE_FIXED:
        q_lo, q_hi = FIXED_LOW_LEVEL, FIXED_HIGH_LEVEL
    else:
        t_hi = math.ceil(2 / params.epsilon)
        t_lo = math.floor(2 / params.epsilon)
        rank_cap = (k_bar - 1) // 2
        degenerate = t_hi > rank_cap or t_lo > rank_cap
        t_hi = min(t_hi, rank_cap)
        t_lo = min(t_lo, rank_cap)
        q_lo = t_lo / k_bar
        q_hi = 1 - t_hi / k_bar
    eps_q = params.epsilon / 4
    a = private_quantile(means, q_lo, eps_q, params.bound_u, rng)
    b = private_quantile(means, q_hi, eps_q, params.bound_u, rng)
    if a > b:
        a, b = b, a
    return _projected_release(
        f"quantile_{params.quantile_mode}", prep, a, b, params, rng, degenerate
    )


_DRAWS = {
    "array_average": _draw_array_average,
    "levy": _draw_levy,
    "quantile": _draw_quantile,
}
GROUPED_MECHANISMS = tuple(_DRAWS)


def draw(prepared: Prepared, params: MechanismParams, rng: RngStream) -> MechanismOutput:
    """One release from a prepared grid; consumes uniforms like release().

    Strategy and capacity come from prepared; epsilon, gamma, quantile_mode
    and bound_u come from params.
    """
    return _DRAWS[prepared.mechanism](prepared, params, rng)


_RELEASES = {
    "baseline": baseline_release,
    "array_average": array_average_release,
    "levy": levy_release,
    "quantile": quantile_release,
}


def release(
    dataset: Dataset, grid: str, mechanism: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Dispatch by mechanism name; clip releases need a plan, use clip_release."""
    if mechanism == "clip":
        return clip_release(dataset, grid, {}, params, rng)
    if mechanism not in _RELEASES:
        raise InvalidParams(f"unknown mechanism {mechanism!r}")
    return _RELEASES[mechanism](dataset, grid, params, rng)


__all__ = [
    "MechanismParams",
    "IntervalEstimate",
    "MechanismOutput",
    "sample_laplace",
    "clip_release",
    "baseline_release",
    "array_average_release",
    "concentration_tau",
    "levy_planning_delta",
    "private_interval",
    "levy_release",
    "private_quantile",
    "quantile_release",
    "GROUPED_MECHANISMS",
    "Prepared",
    "prepare",
    "draw",
    "release",
]
