"""Monte Carlo evaluation loops and scaling-law verification.

Every loop derives all randomness from a single root seed through labeled
stream splits, so results are reproducible regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .composition import clip_user, pseudo_user_optimize
from .dataset import Dataset, left_sum
from .errors import InvalidParams, TooLarge, require_counts, require_int, require_positive
from .grouping import (
    array_count_k,
    best_fit_count,
    median_mub,
    optimized_mub,
)
from .mechanisms import (
    MechanismParams,
    bind,
    concentration_tau,
    levy_planning_delta,
    prepare,
)
from .rng import _CHILDREN, RngStream
from .sensitivity import mean_sensitivity
from .synth import _MAX_DUPLICATED, SynthParams, generate_occupancy


@dataclass(frozen=True)
class CurvePoint:
    epsilon: float
    value: float
    label: str


@dataclass(frozen=True)
class ExperimentConfig:
    epsilons: tuple[float, ...]
    seed: int
    trials: int = 10
    mechanism: str = "baseline"
    mae_draws: int = 10_000
    protect_min_error_grid: bool = True

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise InvalidParams("need at least one epsilon")
        for e in self.epsilons:
            require_positive("epsilon", e)
        require_int("seed", self.seed, low=0)
        require_int("trial count", self.trials, low=1)
        require_int("mae_draws", self.mae_draws, low=1)


def _trial_means(params: SynthParams, config: ExperimentConfig, reduce):
    """Each epsilon with the trial means of the numbers reduce(occupancy,
    epsilon, clip_user result) gives. One trial occupancy is held at a time,
    each result is reduced before the next is made, and each epsilon's rows
    are averaged in trial order."""
    root = RngStream(config.seed)
    protect = config.protect_min_error_grid
    rows: list[list] = [[] for _ in config.epsilons]
    for i in range(config.trials):
        occ = generate_occupancy(params, root.split(f"trial:{i}"))
        for eps, eps_rows in zip(config.epsilons, rows):
            eps_rows.append(reduce(occ, eps, clip_user(occ, params.bound_u, eps, protect)))
    return list(zip(config.epsilons, (left_sum(np.swapaxes(rows, 1, 2)) / config.trials).tolist()))


def monte_carlo_privacy(
    params: SynthParams, config: ExperimentConfig
) -> list[CurvePoint]:
    """Average privacy cost with and without suppression.

    For each epsilon: "suppressed" is epsilon times the mean post-suppression
    composition factor over the trials, "naive" is epsilon times the mean
    worst per-user grid count of the raw draws.
    """
    factors = _trial_means(params, config, lambda o, _, r: (r.k_factor, o.max_grids_per_user()))
    points: list[CurvePoint] = []
    for eps, (k, naive) in factors:
        points += [CurvePoint(eps, k * eps, "suppressed"), CurvePoint(eps, naive * eps, "naive")]
    return points


def monte_carlo_error(
    params: SynthParams, config: ExperimentConfig
) -> list[CurvePoint]:
    """Average worst grid budget before suppression and after the cap pass."""

    def budgets(occ, eps, res):
        return res.error_cap, pseudo_user_optimize(occ, res.plan, params.bound_u, eps).new_error

    points: list[CurvePoint] = []
    for eps, (initial, optimized) in _trial_means(params, config, budgets):
        points += [CurvePoint(eps, initial, "initial"), CurvePoint(eps, optimized, "optimized")]
    return points


def mae_eval(
    dataset: Dataset,
    grid: str,
    config: ExperimentConfig,
    gamma: float = MechanismParams.gamma,
    strategy: str = MechanismParams.strategy,
    capacity: int | None = MechanismParams.capacity,
    quantile_mode: str = MechanismParams.quantile_mode,
) -> list[CurvePoint]:
    """Mean absolute error of one grid's released mean across epsilons.

    The baseline is analytic: a full-budget Laplace release of the exact
    mean has MAE equal to its noise scale, sensitivity over epsilon. Every
    other mechanism is simulated with config.mae_draws independent releases.
    clip and the grouped mechanisms (array_average, levy, quantile) prepare
    the grid once and bind once per epsilon. Draw i at epsilon index ei
    uses the uniforms of the stream split "mae:{ei}:{i}", so the points
    equal those of per-draw release(). The labels are taken _CHILDREN at a
    time, across epsilons, into one block of uniforms each, and each
    epsilon's rows of a block are drawn as one batch, so memory does not
    grow with the number of epsilons; each MAE's sum carries across blocks.
    The grid's exact mean is computed once per dataset and kept on it, as
    the packings are.
    """
    if config.mechanism == "baseline":
        counts = dataset.occupancy().counts_in(grid)
        return [
            CurvePoint(eps, mean_sensitivity(counts, dataset.bound_u).value / eps, "baseline")
            for eps in config.epsilons
        ]
    true_mean = dataset._grid_mean(grid)
    options = dict(gamma=gamma, strategy=strategy, capacity=capacity, quantile_mode=quantile_mode)
    all_params = [MechanismParams(dataset.bound_u, eps, **options) for eps in config.epsilons]
    prepared = prepare(dataset, grid, config.mechanism, all_params[0])
    bounds = [bind(prepared, params) for params in all_params]
    root, draws = RngStream(config.seed), config.mae_draws
    m, n = max(b.uniforms for b in bounds), len(bounds) * draws
    totals = [0.0] * len(bounds)
    for start in range(0, n, _CHILDREN):
        stop = min(start + _CHILDREN, n)
        labels = (f"mae:{row // draws}:{row % draws}" for row in range(start, stop))
        block = root.split_uniforms(labels, m)
        for ei in range(start // draws, (stop - 1) // draws + 1):
            part = block[max(ei * draws - start, 0) : (ei + 1) * draws - start]
            errors = np.abs(bounds[ei].draw_batch(part).noisy_mean - true_mean)
            totals[ei] = left_sum(errors, totals[ei])
    return [
        CurvePoint(params.epsilon, float(total / draws), config.mechanism)
        for params, total in zip(all_params, totals)
    ]


@dataclass(frozen=True)
class ScalingLawCheck:
    law: str
    mode: str
    lam: int
    passed: bool
    detail: str


def _eq_check(law: str, mode: str, lam: int, lhs, rhs) -> ScalingLawCheck:
    return ScalingLawCheck(law, mode, lam, lhs == rhs, f"scaled={lhs} expected={rhs}")


def check_scaling_laws(
    m_list,
    lambdas,
    bound_u: float = 1.0,
) -> list[ScalingLawCheck]:
    """Test how grouping quantities respond to dataset growth.

    sample mode multiplies every count by lambda: capacities scale by
    lambda, array counts and the mean/array sensitivities are invariant,
    and the planning sensitivity of the projection mechanism (at the default
    gamma) shrinks by sqrt(lambda) while its concentration bound stays below
    the value range.
    user mode duplicates every user lambda times: capacities are invariant,
    but the array counts need not scale by lambda; only the floor bounds
    lambda*K <= K' <= lambda*K + lambda - 1 hold, so the equality laws are
    reported as they actually come out, and a lambda that would duplicate
    the counts into more than 2^20 users raises TooLarge before any check.
    """
    counts = require_counts(m_list)
    lambdas = [require_int("scale factor", lam, low=1) for lam in lambdas]
    if lambdas and max(lambdas) * len(counts) > _MAX_DUPLICATED:
        raise TooLarge(
            f"user mode would pack {max(lambdas) * len(counts)} users; it takes at most 2^20"
        )
    checks: list[ScalingLawCheck] = []
    base = {"median": median_mub(counts), "optimized": optimized_mub(counts)}
    for lam in lambdas:
        sampled = [lam * m for m in counts]
        duplicated = counts * lam

        for mode, scaled, f in (("sample", sampled, lam), ("user", duplicated, 1)):
            checks += [
                _eq_check("mub_median", mode, lam, median_mub(scaled), f * base["median"]),
                _eq_check("mub_optimized", mode, lam, optimized_mub(scaled), f * base["optimized"]),
            ]

        for rule, ub in base.items():
            k_wrap = array_count_k(counts, ub)
            k_best = best_fit_count(counts, ub)
            scales = (("sample", sampled, lam * ub, 1), ("user", duplicated, ub, lam))
            for mode, scaled, cap, f in scales:
                checks += [
                    _eq_check(f"k_wrap_{rule}", mode, lam, array_count_k(scaled, cap), f * k_wrap),
                    _eq_check(f"k_best_{rule}", mode, lam, best_fit_count(scaled, cap), f * k_best),
                ]
            k_wrap_dup = array_count_k(duplicated, ub)
            checks.append(
                ScalingLawCheck(
                    f"k_wrap_{rule}_bounds",
                    "user",
                    lam,
                    lam * k_wrap <= k_wrap_dup <= lam * k_wrap + lam - 1,
                    f"scaled={k_wrap_dup} range=[{lam * k_wrap}, {lam * k_wrap + lam - 1}]",
                )
            )

        checks.append(
            _eq_check(
                "delta_mean",
                "sample",
                lam,
                mean_sensitivity(sampled, bound_u).value,
                mean_sensitivity(counts, bound_u).value,
            )
        )

        ub = base["optimized"]
        k_best = best_fit_count(counts, ub)
        tau = concentration_tau(bound_u, k_best, MechanismParams.gamma, ub)
        if 3 * tau <= bound_u:
            k_best_s = best_fit_count(sampled, lam * ub)
            tau_s = concentration_tau(bound_u, k_best_s, MechanismParams.gamma, lam * ub)
            lhs = levy_planning_delta(bound_u, k_best_s, tau_s)
            rhs = levy_planning_delta(bound_u, k_best, tau) / math.sqrt(lam)
            checks.append(
                ScalingLawCheck(
                    "delta_levy",
                    "sample",
                    lam,
                    math.isclose(lhs, rhs, rel_tol=1e-12),
                    f"scaled={lhs!r} expected={rhs!r}",
                )
            )
    return checks
