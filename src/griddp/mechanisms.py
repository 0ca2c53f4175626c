"""Private release mechanisms for per-grid mean (and variance) estimates.

Every mechanism takes the same ingredients: a dataset, a grid token, a
MechanismParams bundle, and an RngStream. Randomness is consumed in a fixed
documented order, so a given (inputs, seed) pair always yields the same
release.

Every mechanism (baseline and clip, and the grouped array averaging, levy
and quantile) runs in three stages, and release() runs all three:
- prepare() depends only on the data and the occupancy. A grouped
  mechanism packs the grid into arrays and keeps, with the packing on the
  dataset, everything that does not depend on epsilon: the array means as
  a tuple and as one read-only array, and their mean; for quantile, their
  clamped, sorted points, the positive-width intervals between them and
  each level's exponent base; for levy, the bins' interval ends, costs and
  projected sums at each tau it is bound at (tau depends on the packing
  and gamma, not on epsilon). Clip and baseline keep the retained counts
  and the retained mean and variance;
- bind() depends on the params: the noise scales and the
  exponential-mechanism weights (one math.exp each), summed into tables of
  running weight sums; it reads the kept arrays and copies none of them;
- draw_batch() on the bound object is the only random stage. It takes a
  block of uniforms in [0, 1], one row per release and at least one column
  per uniform a release reads (InvalidParams for any other shape or value,
  NaN included), and makes every row's choices with one searchsorted per
  choice table, then its projection and Laplace noise, as numpy vector
  operations; draw(rng) is the same draw on a block of one row, read from
  the stream in the documented order. The binds of one Prepared at several
  epsilons draw the rows of one block in one pass (_Draws._draw): each
  epsilon makes its own choices, then one projection and one Laplace pass
  run over all the rows, each row at its own scale; draw_batch is the case
  of one bind.
Repeated releases of one grid prepare once, bind once per epsilon, and draw
many releases as one batch. The grouped packings are kept on
the dataset, one per grid, strategy and capacity rule, so every release and
MAE curve of a dataset packs each of them once: the dataset's value column
and occupancy arrays are read-only, so the data cannot change under them.

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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dataset import ClipPlan, Dataset, column_sums, left_sum, population_stats
from .errors import (
    EmptyGrid,
    EmptyValues,
    InvalidParams,
    NoBins,
    TooLarge,
    ZeroRetained,
    require_int,
    require_positive,
    require_probability,
)
from .grouping import STRATEGIES, STRATEGY_BEST, _pack, median_mub, optimized_mub
from .rng import RngStream, _require_uniforms, laplace_inverse_cdf
from .sensitivity import (
    array_avg_sensitivity,
    clipped_mean_sensitivity,
    clipped_variance_sensitivity,
)

MECHANISMS = ("baseline", "clip", "array_average", "levy", "quantile")

QUANTILE_FIXED = "fixed"
QUANTILE_OPTIMIZED = "optimized"
QUANTILE_MODES = (QUANTILE_FIXED, QUANTILE_OPTIMIZED)

# Fixed-mode quantile levels for the projection interval.
FIXED_LOW_LEVEL = 0.1
FIXED_HIGH_LEVEL = 0.9

# The most bins private_interval cuts [0, U] into; levy's own tau gives a
# few thousand at any real capacity.
_MAX_BINS = 2**20


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
        require_probability("gamma", self.gamma)
        if self.strategy not in STRATEGIES:
            raise InvalidParams(f"unknown grouping strategy {self.strategy!r}")
        if self.capacity is not None:
            require_int("capacity", self.capacity, low=1)
        if self.quantile_mode not in QUANTILE_MODES:
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


# No release calls sample_laplace; it stays public because the benchmark's
# per-layer metrics name it, and the traced run fails on a name that
# resolves to no public function.
def sample_laplace(scale: float, rng: RngStream) -> float:
    """One Laplace(scale) draw via the inverse CDF; consumes one uniform."""
    return rng.laplace(scale)


def _noise(scales: np.ndarray, block, col: int) -> np.ndarray:
    """Laplace noise at each row's scale from column col of block. Rows of
    zero sensitivity get 0.0, and a block whose rows all have it reads no
    uniform, so a single draw burns no randomness on them."""
    positive = scales > 0
    if positive.all():
        return laplace_inverse_cdf(block[:, col], scales)
    out = np.zeros(len(scales))
    if positive.any():
        out[positive] = laplace_inverse_cdf(block[:, col][positive], scales[positive])
    return out


def _exps(args: np.ndarray) -> np.ndarray:
    """libm exp of each arg, one math.exp call each: np.exp differs from it
    in the last bit on some inputs, which would move the seeded choices."""
    return np.fromiter(map(math.exp, args.tolist()), float, len(args))


def _table(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The running sums of weights, left to right, and their total, the
    last of them: the lookup table of one exponential-mechanism choice."""
    cum = np.cumsum(weights)
    return cum, float(cum[-1])


def _choose(cum: np.ndarray, total: float, u):
    """Index i with probability weights[i] / total for each uniform u: the
    first index whose running sum exceeds u * total, else the last. The
    total must be positive and the weights non-negative, so cum is sorted."""
    return np.minimum(np.searchsorted(cum, u * total, side="right"), len(cum) - 1)


def _prepare_clip(
    dataset: Dataset, grid: str, gammas: list[int], label: str
) -> Prepared:
    """Prepared of a clip release keeping the first gammas[i] samples of the
    grid's i-th user in token order; gammas are ints already checked to lie
    in [0, count]."""
    kept = dataset._heads(grid, range(len(gammas)), gammas)
    if not len(kept):
        raise ZeroRetained(f"plan suppresses every sample in grid {grid}")
    _, mean, variance = population_stats(kept)
    return Prepared(label, grid, dataset.bound_u, None, None, (), tuple(gammas), (mean, variance))


def clip_release(
    dataset: Dataset,
    grid: str,
    retained: dict[str, int] | ClipPlan,
    params: MechanismParams,
    rng: RngStream,
) -> MechanismOutput:
    """Release mean and variance of the first-gamma retained samples.

    retained maps user token to the number of samples kept (users absent
    from it keep everything) and is read as the plan {grid: retained}; or it
    is a ClipPlan, checked when it was made. The grid's row is a slice of
    the plan's counts aligned with the dataset's occupancy. Noise is
    calibrated to the retained counts only. Draw order: mean noise, then
    variance noise.
    """
    occupancy = dataset.occupancy()
    # an absent grid is UnknownGrid before a mapping is read as a plan
    _, lo, hi = occupancy._span(grid)
    if not isinstance(retained, ClipPlan):
        retained = ClipPlan.for_occupancy(occupancy, {grid: retained})
    gammas = retained._counts_for(occupancy)[lo:hi].tolist()
    return bind(_prepare_clip(dataset, grid, gammas, "clip"), params).draw(rng)


def post_release(
    dataset: Dataset, plan: ClipPlan, epsilon: float, rng: RngStream
) -> dict[str, MechanismOutput]:
    """Apply the plan to the actual samples and release every grid.

    Each grid is clip_release on the plan, read once as counts aligned with
    the dataset's occupancy, with its own child stream split off by token,
    so draws for one grid do not depend on how many other grids exist.
    """
    occupancy = dataset.occupancy()
    aligned = ClipPlan(occupancy, plan._counts_for(occupancy))
    params = MechanismParams(bound_u=dataset.bound_u, epsilon=epsilon)
    return {
        g: clip_release(dataset, g, aligned, params, rng.split(f"grid:{g}"))
        for g in occupancy.grids()
    }


def baseline_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Full-data release: the clip mechanism with nothing clipped."""
    return bind(prepare(dataset, grid, "baseline", params), params).draw(rng)


def array_average_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Release the mean of array means with the whole budget on one draw."""
    return bind(prepare(dataset, grid, "array_average", params), params).draw(rng)


def concentration_tau(bound_u: float, k_bar: int, gamma: float, capacity: int) -> float:
    """Half-width bound: all array means of an iid grid stay within tau of
    the grid mean except with probability gamma."""
    require_positive("value bound", bound_u)
    require_int("array count", k_bar, low=1)
    require_probability("gamma", gamma)
    require_int("capacity", capacity, low=1)
    return bound_u * math.sqrt(math.log(2 * k_bar / gamma) / (2 * capacity))


def levy_planning_delta(bound_u: float, k_bar: int, tau: float) -> float:
    """Planning-time stand-in for the data-dependent projected sensitivity."""
    require_int("array count", k_bar, low=1)
    return min(3 * tau, bound_u) / k_bar


def _interval_bins(means: np.ndarray, tau: float, bound_u: float) -> tuple[np.ndarray, np.ndarray]:
    """The bin midpoints of private_interval and the cost of each, for a
    non-empty float array of means, none NaN."""
    require_positive("value bound", bound_u)
    require_positive("bin width", tau, NoBins)
    if bound_u / tau > _MAX_BINS:
        raise TooLarge(f"bin width {tau} cuts [0, {bound_u}] into more than {_MAX_BINS} bins")
    nbins = max(1, math.ceil(bound_u / tau))
    edges = np.append(np.arange(nbins) * tau, bound_u)
    midpoints = (edges[:-1] + edges[1:]) / 2
    # each mean to its nearest midpoint, ties to the lower one, +-inf to an end
    pos = np.searchsorted(midpoints, means)
    lo = np.maximum(pos - 1, 0)
    hi = np.minimum(pos, nbins - 1)
    nearest = np.where(means - midpoints[lo] <= midpoints[hi] - means, lo, hi)
    snapped = np.bincount(nearest, minlength=nbins)
    # a midpoint's cost: the larger of the snapped counts below and above it
    up_to = np.cumsum(snapped)
    return midpoints, np.maximum(up_to - snapped, len(means) - up_to)


def _bin_weights(costs: np.ndarray, eps_half: float) -> np.ndarray:
    """The selection weight of each bin of private_interval."""
    require_positive("interval budget", eps_half)
    return _exps(-eps_half * (costs - costs.min()) / 2)


def _interval_ends(centers, tau: float, bound_u: float) -> np.ndarray:
    """[max(0, T - 1.5 tau), min(T + 1.5 tau, U)] of each center T (one
    float, or an array of them), one row each; np.maximum(0.0, x) and
    np.minimum(x, U) are max and min bit for bit, keeping the first
    argument on ties."""
    return np.column_stack(
        (np.maximum(0.0, centers - 1.5 * tau), np.minimum(centers + 1.5 * tau, bound_u))
    )


def private_interval(
    means, eps_half: float, tau: float, bound_u: float, rng: RngStream
) -> IntervalEstimate:
    """Exponential-mechanism choice of a tau-grid cell covering the means.

    The value range (0, U] is cut into ceil(U/tau) bins of width tau (the
    last one short; more than 2^20 bins raise TooLarge). Each mean is
    snapped to the nearest bin midpoint, ties to the lower one (infinite
    means to the end bins; NaN raises InvalidParams). A midpoint's cost is
    the larger of the snapped counts strictly below and strictly above it;
    midpoint T is drawn with weight exp(-eps_half * cost / 2) and the
    interval is [max(0, T - 1.5 tau), min(T + 1.5 tau, U)]. Consumes one
    uniform.
    """
    means = np.fromiter(means, dtype=float)
    if not means.size:
        raise EmptyValues("no array means to locate")
    if np.isnan(means).any():
        raise InvalidParams("array means must not be NaN")
    midpoints, costs = _interval_bins(means, tau, bound_u)
    center = midpoints[_choose(*_table(_bin_weights(costs, eps_half)), rng.random())].item()
    a, b = _interval_ends(center, tau, bound_u)[0].tolist()
    return IntervalEstimate(a, b, center, tuple(costs.tolist()), tuple(midpoints.tolist()))


def levy_release(
    dataset: Dataset, grid: str, params: MechanismParams, rng: RngStream
) -> MechanismOutput:
    """Project best-fit array means onto a private interval, then average.

    Draw order: one uniform for the interval, one for the Laplace noise.
    """
    return bind(prepare(dataset, grid, "levy", params), params).draw(rng)


def _quantile_points(values, bound_u: float) -> np.ndarray:
    """0, the values clamped to [0, U] and sorted, then U, as one read-only
    array. np.clip is min(max(v, 0.0), U) bit for bit on non-NaN values, and
    the stable sort keeps ties, -0.0 and 0.0 among them, in input order, as
    sorted does."""
    xs = np.fromiter(values, dtype=float)
    if not xs.size:
        raise EmptyValues("no values to take a quantile of")
    if np.isnan(xs).any():
        raise InvalidParams("values must not be NaN")
    xs = np.sort(np.clip(xs, 0.0, float(bound_u)), kind="stable")
    return _read_only(np.concatenate(([0.0], xs, [float(bound_u)])))


def _intervals(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices and widths of the intervals of positive width between
    consecutive points of the sorted array pts."""
    widths = pts[1:] - pts[:-1]
    positive = np.flatnonzero(widths > 0)
    return positive, widths[positive]


def _quantile_base(pts: np.ndarray, q_level: float, positive: np.ndarray) -> np.ndarray:
    """-|i - q n| - shift of each index i of positive, the intervals of
    positive width between the sorted points pts (n = len(pts) - 2): the
    exponent of interval i's weight per unit of eps_q / 2."""
    n = len(pts) - 2
    target = q_level * n
    # Shift by the utility of the positive-width interval nearest the target,
    # so the largest weight is that interval's width and the sum is positive.
    # Intervals inside a run of equal points have zero width; the nearest
    # positive-width ones border the run that holds pts[round(target)].
    v = pts[round(target)]
    near = (bisect_left(pts, v) - 1, bisect_right(pts, v) - 1)
    shift = max(-abs(i - target) for i in near if 0 <= i <= n)
    return -abs(positive - target) - shift


def _spread_weights(count: int, intervals, exponents: np.ndarray) -> np.ndarray:
    """count weights per row of exponents, in one math.exp pass: width * exp
    at each positive-width interval (_intervals), 0 at the rest, whose exp may overflow."""
    positive, widths = intervals
    weights = np.zeros((*exponents.shape[:-1], count))
    weights[..., positive] = widths * _exps(exponents.ravel()).reshape(exponents.shape)
    return weights


def _quantile_weights(
    pts: np.ndarray, q_level: float, eps_q: float, intervals: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Selection weight of each interval between consecutive points of the
    sorted array pts; intervals is _intervals(pts)."""
    base = _quantile_base(pts, q_level, intervals[0])
    return _spread_weights(len(pts) - 1, intervals, eps_q / 2 * base)


def _quantile_pick(pts, table: tuple[np.ndarray, float], u_choice, u_point):
    """One uniform picks an interval, a second a point inside it; pts is an
    array when the uniforms are."""
    chosen = _choose(*table, u_choice)
    return pts[chosen] + u_point * (pts[chosen + 1] - pts[chosen])


def private_quantile(
    values, q_level: float, eps_q: float, bound_u: float, rng: RngStream
) -> float:
    """Exponential-mechanism quantile over [0, U]; consumes two uniforms.

    Sorted values plus sentinels 0 and U cut [0, U] into n+1 intervals;
    interval i gets mass width * exp(-(eps_q/2) * |i - q*n|), then the
    return value is uniform inside the drawn interval. Values are clamped
    to [0, U] (infinities included); NaN raises InvalidParams.
    """
    pts = _quantile_points(values, bound_u)
    if not 0 <= q_level <= 1:
        raise InvalidParams(f"quantile level must be in [0, 1], got {q_level}")
    require_positive("quantile budget", eps_q)
    require_positive("value bound", bound_u)
    table = _table(_quantile_weights(pts, q_level, eps_q, _intervals(pts)))
    return _quantile_pick(pts, table, rng.random(), rng.random()).item()


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
    return bind(prepare(dataset, grid, "quantile", params), params).draw(rng)


@dataclass(frozen=True)
class Prepared:
    """The epsilon-independent stage of a release.

    It depends only on the data, their bound U and the public occupancy, so
    one Prepared serves every epsilon and every draw. A grouped mechanism
    keeps its array means, with the strategy and capacity its packing used:
    levy and quantile always pack best-fit at the optimized capacity unless
    one is given. arrays is the packing as the dataset keeps it (_Packing):
    the same means as a read-only array, and what bind derives from them and
    U alone, such as quantile's points; it takes no part in == or repr.
    clip and baseline keep the retained count of each user (in token order)
    and the mean and population variance of the retained samples (stats);
    their strategy, capacity and arrays are None, their means empty.
    """

    mechanism: str
    grid: str
    bound_u: float
    strategy: str | None
    capacity: int | None
    means: tuple[float, ...]
    retained: tuple[int, ...] = ()
    stats: tuple[float, float] | None = None
    arrays: _Packing | None = field(default=None, compare=False, repr=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Packing:
    """One packing of a grid as prepare keeps it on the dataset, with all
    that the binds of every epsilon share: the capacity, the array means as
    a tuple (Prepared.means) and as one read-only array, and, each made the
    first time it is asked for, array averaging's mean of them, quantile's
    points, intervals and exponent base at each level, and levy's bins at
    each tau. The arrays are read-only, since every bind reads them as they
    are."""

    def __init__(self, capacity: int, means: list[float], bound_u: float):
        self.capacity, self.bound_u = capacity, bound_u
        self.means = tuple(means)
        self.array = _read_only(np.array(means))
        self._bins, self._bases = {}, {}  # by tau, and by quantile level

    @cached_property
    def mean(self) -> float:
        """The left_sum of the array means over their count."""
        return left_sum(self.array) / len(self.array)

    @cached_property
    def intervals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quantile's points, 0, the means clamped to [0, U] and sorted, then
        U, and the indices and widths of the intervals of positive width
        between them."""
        pts = _quantile_points(self.array, self.bound_u)
        return (pts, *map(_read_only, _intervals(pts)))

    def base(self, q_level: float) -> np.ndarray:
        """Quantile's _quantile_base at q_level."""
        if q_level not in self._bases:
            pts, positive, _ = self.intervals
            self._bases[q_level] = _read_only(_quantile_base(pts, q_level, positive))
        return self._bases[q_level]

    def bins(self, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levy's bins of width tau: each bin's interval ends, one row each,
        its cost, and the left_sum of the means clamped to its ends."""
        if tau not in self._bins:
            midpoints, costs = _interval_bins(self.array, tau, self.bound_u)
            ends = _interval_ends(midpoints, tau, self.bound_u)
            sums = _projected_sums(self.array, ends[:, 0], ends[:, 1])
            self._bins[tau] = _read_only(ends), _read_only(costs), _read_only(sums)
        return self._bins[tau]


def prepare(
    dataset: Dataset, grid: str, mechanism: str, params: MechanismParams
) -> Prepared:
    """The epsilon-independent stage of a release of one grid.

    mechanism is array_average, levy, quantile, clip or baseline.
    array_average packs with params.strategy at params.capacity or the lower
    median of the counts; levy and quantile pack best-fit at params.capacity
    or optimized_mub, each packing computed once per dataset and kept on it,
    with its points and bins once each; clip and baseline keep every sample.
    """
    if mechanism not in MECHANISMS:
        raise InvalidParams(f"unknown mechanism {mechanism!r}")
    if mechanism in ("clip", "baseline"):
        return _prepare_clip(dataset, grid, dataset.occupancy().counts_in(grid), mechanism)
    if mechanism == "array_average":
        strategy, rule = params.strategy, median_mub
    else:
        strategy, rule = STRATEGY_BEST, optimized_mub
    key = (grid, strategy, params.capacity, rule)
    if key not in dataset._packings:
        dataset._packings[key] = _packed_means(dataset, grid, strategy, params.capacity, rule)
    packing = dataset._packings[key]
    return Prepared(
        mechanism, grid, dataset.bound_u, strategy, packing.capacity, packing.means,
        arrays=packing,
    )


def _packed_means(
    dataset: Dataset, grid: str, strategy: str, capacity: int | None, rule
) -> _Packing:
    """The _Packing of the grid packed with strategy at capacity, or at
    rule(counts) unless one is given."""
    counts = dataset.occupancy().counts_in(grid)
    if capacity is None:
        capacity = rule(counts)
    order, sizes, cuts = _pack(counts, strategy, capacity)
    if len(cuts) < 2:
        raise EmptyGrid(
            f"grid {grid} fills no array of capacity {capacity}; "
            "wrap-around needs at least one full array"
        )
    # array_means of the packed arrays, each a zero-padded row, 64 arrays at
    # a time, which bounds the size of the padded matrix
    packed = dataset._heads(grid, order, sizes)
    means: list[float] = []
    for lo in range(0, len(cuts) - 1, 64):
        fills = np.diff(cuts[lo : lo + 65])
        rows = np.zeros((len(fills), fills.max()))
        rows[np.arange(fills.max()) < fills[:, None]] = packed[cuts[lo] : cuts[lo + len(fills)]]
        means += (left_sum(rows) / fills).tolist()
    return _Packing(capacity, means, dataset.bound_u)


# Entries of the (arrays, rows) matrix of clamped means summed per pass,
# which bounds the memory of a batch of projections.
_PROJECTED_CHUNK = 1 << 20


def _projected_sums(means: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row i, the left_sum (column_sums) of the means clamped to
    [a[i], b[i]]; np.clip is min(max(v, a), b) bit for bit on non-NaN means."""
    out = np.empty(len(a))
    step = max(1, _PROJECTED_CHUNK // len(means))
    for lo in range(0, len(a), step):
        rows = slice(lo, lo + step)
        out[rows] = column_sums(np.clip(means[:, None], a[rows], b[rows]))
    return out


class _StreamRow:
    """A block of one row over a stream: a column is read from the stream
    when a draw first indexes it (as block[:, col]), so the draw consumes
    the uniforms it uses, in column order, and no others."""

    def __init__(self, rng: RngStream):
        self._rng = rng
        self._read: list[float] = []

    def __getitem__(self, index) -> np.ndarray:
        _, col = index
        while len(self._read) <= col:
            self._read.append(self._rng.random())
        return np.array(self._read[col : col + 1])


def _row(out: MechanismOutput, i: int) -> MechanismOutput:
    """Release i of a MechanismOutput whose per-row fields are arrays."""

    def pick(value):
        return value[i].item() if isinstance(value, np.ndarray) else value

    return replace(
        out,
        noisy_mean=pick(out.noisy_mean),
        noise_scale_mean=pick(out.noise_scale_mean),
        noisy_variance=pick(out.noisy_variance),
        noise_scale_var=pick(out.noise_scale_var),
        interval=out.interval and (pick(out.interval[0]), pick(out.interval[1])),
        degenerate_ranks=pick(out.degenerate_ranks),
    )


class _Draws:
    """What the bound objects share. _draw(bounds, sizes, block) makes, in
    one pass, a release per row of an unchecked (N, uniforms) block such as
    split_uniforms gives: bounds[0], bounds[1], ..., binds of one Prepared,
    draw the first sizes[0] rows, the next sizes[1], and so on. Its
    MechanismOutput holds an array entry per row in each per-row field.
    draw_batch(block) is _draw of the one bound on a checked block: a value
    outside [0, 1], NaN, or any shape but (N, uniforms) or wider raises
    InvalidParams. draw(rng) draws a block of one row read from the stream."""

    def draw(self, rng: RngStream) -> MechanismOutput:
        return _row(self._draw([self], [1], _StreamRow(rng)), 0)

    def draw_batch(self, block) -> MechanismOutput:
        block = _require_uniforms(block)
        if block.ndim != 2 or block.shape[1] < self.uniforms:
            raise InvalidParams(
                f"uniforms must come as an (N, {self.uniforms}) block or a wider one, "
                f"got shape {block.shape}"
            )
        return self._draw([self], [len(block)], block)


@dataclass(frozen=True, eq=False)
class _NoisyStats(_Draws):
    """Laplace noise on a fixed mean, and on a fixed variance if there is one:
    the draw of array averaging and clip. A draw reads one uniform per
    coordinate of positive noise scale, the mean's first."""

    mechanism: str
    grid: str
    mean: float
    scale_mean: float
    variance: float | None = None
    scale_var: float | None = None
    arrays: int | None = None

    @property
    def uniforms(self) -> int:
        return 1 + (self.variance is not None)

    @staticmethod
    def _draw(bounds: list, sizes: list[int], block) -> MechanismOutput:
        first = bounds[0]
        scale_mean = np.repeat([bound.scale_mean for bound in bounds], sizes)
        noisy_mean = first.mean + _noise(scale_mean, block, 0)
        noisy_variance = scale_var = None
        if first.variance is not None:
            # the variance's uniform follows the mean's. A mean scale is 0
            # only when 2 d_mean / epsilon underflows, and the variance's is
            # then 0 as well: d_var <= U d_mean, and for U > 1 that underflow
            # needs n > 2^52 samples, since d_mean >= U / n. So the rows that
            # read a variance uniform all read a mean uniform first
            scale_var = np.repeat([bound.scale_var for bound in bounds], sizes)
            col = int((scale_mean > 0).any())
            noisy_variance = first.variance + _noise(scale_var, block, col)
        return MechanismOutput(
            mechanism=first.mechanism,
            grid=first.grid,
            noisy_mean=noisy_mean,
            noise_scale_mean=scale_mean,
            noisy_variance=noisy_variance,
            noise_scale_var=scale_var,
            arrays=first.arrays,
        )


@dataclass(frozen=True, eq=False)
class _Projection(_Draws):
    """The draws of levy and quantile: once each row's [a, b] is drawn
    (_interval), release is the mean of the array means clamped to [a, b],
    with Laplace noise for sensitivity (b - a) / k_bar on half the budget
    from the last column, read unless a == b. Levy's bins keep their sums."""

    mechanism: str
    grid: str
    means: np.ndarray
    epsilon: float

    @staticmethod
    def _draw(bounds: list, sizes: list[int], block) -> MechanismOutput:
        first = bounds[0]
        # each bind's rows; one bind takes the block itself, which cannot be
        # sliced when it is a _StreamRow
        parts = [block]
        if len(bounds) > 1:
            stops = np.cumsum(sizes).tolist()
            parts = [block[stop - size : stop] for size, stop in zip(sizes, stops)]
        ends = [bound._interval(part) for bound, part in zip(bounds, parts)]
        a, b, *sums = (np.concatenate(side) for side in zip(*ends))
        sums = sums[0] if sums else _projected_sums(first.means, a, b)
        k_bar = len(first.means)
        delta = (b - a) / k_bar
        # a scale that overflows to inf fails the noise's check, as with floats
        with np.errstate(over="ignore"):
            scale = 2 * delta / np.repeat([bound.epsilon for bound in bounds], sizes)
        noise = _noise(scale, block, first.uniforms - 1)
        return MechanismOutput(
            mechanism=first.mechanism,
            grid=first.grid,
            noisy_mean=sums / k_bar + noise,
            noise_scale_mean=scale,
            interval=(a, b),
            degenerate_ranks=np.repeat([bound.degenerate for bound in bounds], sizes),
            arrays=k_bar,
        )


@dataclass(frozen=True, eq=False)
class _LevyDraw(_Projection):
    """One uniform picks a bin, whose interval ends and projected sum the
    packing keeps; the second is the noise."""

    ends: np.ndarray
    sums: np.ndarray
    table: tuple[np.ndarray, float]
    uniforms = 2
    degenerate = False

    def _interval(self, block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        chosen = _choose(*self.table, block[:, 0])
        return (*self.ends[chosen].T, self.sums[chosen])


@dataclass(frozen=True, eq=False)
class _QuantileDraw(_Projection):
    """Two uniforms per quantile (low, then high) over shared points, then
    the noise."""

    pts: np.ndarray
    low: tuple[np.ndarray, float]
    high: tuple[np.ndarray, float]
    degenerate: bool
    uniforms = 5

    def _interval(self, block) -> tuple[np.ndarray, np.ndarray]:
        a = _quantile_pick(self.pts, self.low, block[:, 0], block[:, 1])
        b = _quantile_pick(self.pts, self.high, block[:, 2], block[:, 3])
        swap = a > b
        return np.where(swap, b, a), np.where(swap, a, b)


def _bind_clip(prep: Prepared, params: MechanismParams) -> _NoisyStats:
    mean, variance = prep.stats
    d_mean = clipped_mean_sensitivity(prep.retained, params.bound_u).value
    d_var = clipped_variance_sensitivity(prep.retained, params.bound_u).value
    return _NoisyStats(
        prep.mechanism,
        prep.grid,
        mean,
        2 * d_mean / params.epsilon,
        variance,
        2 * d_var / params.epsilon,
    )


def _bind_array_average(prep: Prepared, params: MechanismParams) -> _NoisyStats:
    means = prep.arrays.array
    delta = array_avg_sensitivity(len(means), params.bound_u, prep.strategy).value
    return _NoisyStats(
        f"array_average_{prep.strategy}",
        prep.grid,
        prep.arrays.mean,
        delta / params.epsilon,
        arrays=len(means),
    )


def _bind_levy(prep: Prepared, params: MechanismParams) -> _LevyDraw:
    means = prep.arrays.array
    tau = concentration_tau(params.bound_u, len(means), params.gamma, prep.capacity)
    ends, costs, sums = prep.arrays.bins(tau)
    weights = _bin_weights(costs, params.epsilon / 2)
    return _LevyDraw("levy", prep.grid, means, params.epsilon, ends, sums, _table(weights))


def _bind_quantile(prep: Prepared, params: MechanismParams) -> _QuantileDraw:
    means = prep.arrays.array
    k_bar = len(means)
    degenerate = False
    if params.quantile_mode == QUANTILE_FIXED:
        q_lo, q_hi = FIXED_LOW_LEVEL, FIXED_HIGH_LEVEL
    else:
        ratio = 2 / params.epsilon
        rank_cap = (k_bar - 1) // 2
        degenerate = ratio > rank_cap
        # capped before rounding: ceil and floor never see a ratio that overflowed to inf
        t_hi = rank_cap if degenerate else math.ceil(ratio)
        t_lo = rank_cap if degenerate else math.floor(ratio)
        q_lo = t_lo / k_bar
        q_hi = 1 - t_hi / k_bar
    eps_q = params.epsilon / 4
    pts, *intervals = prep.arrays.intervals
    # both levels' weights, as _quantile_weights forms each, in one exp pass
    bases = np.array([prep.arrays.base(q_lo), prep.arrays.base(q_hi)])
    low, high = _spread_weights(len(pts) - 1, intervals, eps_q / 2 * bases)
    return _QuantileDraw(
        f"quantile_{params.quantile_mode}", prep.grid, means, params.epsilon,
        pts, _table(low), _table(high), degenerate,
    )


_BINDS = {
    "array_average": _bind_array_average,
    "levy": _bind_levy,
    "quantile": _bind_quantile,
    "clip": _bind_clip,
    "baseline": _bind_clip,
}


def bind(
    prepared: Prepared, params: MechanismParams
) -> _NoisyStats | _LevyDraw | _QuantileDraw:
    """The epsilon-dependent stage: everything a release needs but the draw.

    Returns a frozen object whose draw(rng) makes one release, consuming
    uniforms exactly as release() does, and whose draw_batch(block) makes
    one release per row of an (N, uniforms) block, row i equal to draw on a
    stream whose first uniforms are that row; bind once per params and draw
    many times. Strategy and capacity come from prepared; epsilon, gamma and
    quantile_mode from params, whose bound_u must be prepared's (InvalidParams).
    """
    if params.bound_u != prepared.bound_u:
        raise InvalidParams(f"bound_u {params.bound_u} differs from the data's {prepared.bound_u}")
    return _BINDS[prepared.mechanism](prepared, params)


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

