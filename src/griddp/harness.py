"""Monte Carlo evaluation loops and scaling-law verification.

Every loop derives all randomness from a single root seed through labeled
stream splits, so results are reproducible regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .composition import clip_user, pseudo_user_optimize
from .dataset import Dataset
from .errors import InvalidParams, require_counts, require_int, require_positive
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
from .rng import RngStream
from .sensitivity import mean_sensitivity
from .synth import SynthParams, generate_occupancy


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
        require_int("trial count", self.trials, low=1)
        require_int("mae_draws", self.mae_draws, low=1)


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs)


def _trial_occupancies(params: SynthParams, config: ExperimentConfig):
    root = RngStream(config.seed)
    return [generate_occupancy(params, root.split(f"trial:{i}")) for i in range(config.trials)]


def monte_carlo_privacy(
    params: SynthParams, config: ExperimentConfig
) -> list[CurvePoint]:
    """Average privacy cost with and without suppression.

    For each epsilon: "suppressed" is epsilon times the mean post-suppression
    composition factor over the trials, "naive" is epsilon times the mean
    worst per-user grid count of the raw draws.
    """
    occs = _trial_occupancies(params, config)
    naive = _mean(occ.max_grids_per_user() for occ in occs)
    points: list[CurvePoint] = []
    for eps in config.epsilons:
        ks = [
            clip_user(occ, params.bound_u, eps, config.protect_min_error_grid).k_factor
            for occ in occs
        ]
        points.append(CurvePoint(eps, _mean(ks) * eps, "suppressed"))
        points.append(CurvePoint(eps, naive * eps, "naive"))
    return points


def monte_carlo_error(
    params: SynthParams, config: ExperimentConfig
) -> list[CurvePoint]:
    """Average worst grid budget before suppression and after the cap pass."""
    occs = _trial_occupancies(params, config)
    points: list[CurvePoint] = []
    for eps in config.epsilons:
        pairs = []
        for occ in occs:
            res = clip_user(occ, params.bound_u, eps, config.protect_min_error_grid)
            opt = pseudo_user_optimize(occ, res.plan, params.bound_u, eps)
            pairs.append((res.error_cap, opt.new_error))
        points.append(CurvePoint(eps, _mean(p[0] for p in pairs), "initial"))
        points.append(CurvePoint(eps, _mean(p[1] for p in pairs), "optimized"))
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
    the grid once, before the epsilon loop, bind once per epsilon, and draw
    every release of that epsilon from the bound object; draw i at epsilon
    index ei uses the stream split "mae:{ei}:{i}", so the points equal
    those of per-draw release().
    """
    if config.mechanism == "baseline":
        counts = [len(dataset.values(grid, u)) for u in dataset.users_in(grid)]
        return [
            CurvePoint(eps, mean_sensitivity(counts, dataset.bound_u).value / eps, "baseline")
            for eps in config.epsilons
        ]
    values = dataset.grid_values(grid)
    true_mean = sum(values) / len(values)
    options = dict(gamma=gamma, strategy=strategy, capacity=capacity, quantile_mode=quantile_mode)
    all_params = [MechanismParams(dataset.bound_u, eps, **options) for eps in config.epsilons]
    prepared = prepare(dataset, grid, config.mechanism, all_params[0])
    root = RngStream(config.seed)
    points: list[CurvePoint] = []
    for ei, params in enumerate(all_params):
        bound = bind(prepared, params)
        value = _mean(
            abs(bound.draw(root.split(f"mae:{ei}:{i}")).noisy_mean - true_mean)
            for i in range(config.mae_draws)
        )
        points.append(CurvePoint(params.epsilon, value, config.mechanism))
    return points


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
    gamma: float = MechanismParams.gamma,
) -> list[ScalingLawCheck]:
    """Test how grouping quantities respond to dataset growth.

    sample mode multiplies every count by lambda: capacities scale by
    lambda, array counts and the mean/array sensitivities are invariant,
    and the planning sensitivity of the projection mechanism shrinks by
    sqrt(lambda) while its concentration bound stays below the value range.
    user mode duplicates every user lambda times: capacities are invariant,
    but the array counts need not scale by lambda; only the floor bounds
    lambda*K <= K' <= lambda*K + lambda - 1 hold, so the equality laws are
    reported as they actually come out.
    """
    counts = require_counts(m_list)
    checks: list[ScalingLawCheck] = []
    base = {"median": median_mub(counts), "optimized": optimized_mub(counts)}
    for lam in lambdas:
        lam = require_int("scale factor", lam, low=1)
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
        tau = concentration_tau(bound_u, k_best, gamma, ub)
        if 3 * tau <= bound_u:
            k_best_s = best_fit_count(sampled, lam * ub)
            tau_s = concentration_tau(bound_u, k_best_s, gamma, lam * ub)
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
