"""Exact user-level sensitivities for grid statistics.

All values assume samples lie in [0, U] and that a neighboring dataset may
rewrite every sample of a single user. Counts are exact integers, so each
formula is evaluated in a form whose float rounding is the correctly
rounded value of the underlying rational.

Sensitivity of the mean with counts m_l is U * max(m) / sum(m). For the
population variance the value depends on whether one user can hold the
majority of the samples:

- sum(m) >  2*max(m): U^2 * max(m) * (sum(m) - max(m)) / sum(m)^2
- sum(m) <= 2*max(m), sum even: U^2 / 4
- sum(m) <= 2*max(m), sum odd:  (U^2 / 4) * (1 - 1/sum(m)^2)

Clipped variants take retained counts (zeros allowed) and apply the same
formulas to them. brute_force_variance_sensitivity re-derives the variance
value by enumeration over {0, U}-valued datasets, which attain the maximum;
it is the oracle the closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidCapacity,
    InvalidParams,
    TooLarge,
    require_counts,
    require_int,
    require_positive,
    require_retained,
)
from .grouping import STRATEGIES, STRATEGY_WRAP

BRANCH_ABOVE_TWICE = "AboveTwice"
BRANCH_EVEN_CAP = "EvenCap"
BRANCH_ODD_CAP = "OddCap"

BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class SensitivityReport:
    target: str
    value: float
    branch: str | None = None


@dataclass(frozen=True)
class GainReport:
    """Mean-sensitivity improvement from array averaging at a capacity."""

    delta_f: float
    delta_tilde: float
    opt: float
    gain: float


def variance_peak_value(total: int, peak: int, bound_u: float) -> tuple[str, float]:
    """Variance sensitivity given the total count and the largest count."""
    u2 = bound_u * bound_u
    if total > 2 * peak:
        return BRANCH_ABOVE_TWICE, u2 * peak * (total - peak) / (total * total)
    if total % 2 == 0:
        return BRANCH_EVEN_CAP, u2 / 4
    return BRANCH_ODD_CAP, (u2 / 4) * (1 - 1 / (total * total))


def mean_sensitivity(m_list, bound_u: float) -> SensitivityReport:
    return clipped_mean_sensitivity(require_counts(m_list), bound_u)


def variance_sensitivity(m_list, bound_u: float) -> SensitivityReport:
    return clipped_variance_sensitivity(require_counts(m_list), bound_u)


def clipped_mean_sensitivity(gamma_list, bound_u: float) -> SensitivityReport:
    gammas = require_retained(gamma_list)
    bound_u = require_positive("value bound", bound_u)
    return SensitivityReport("mean", bound_u * max(gammas) / sum(gammas))


def clipped_variance_sensitivity(gamma_list, bound_u: float) -> SensitivityReport:
    gammas = require_retained(gamma_list)
    bound_u = require_positive("value bound", bound_u)
    branch, value = variance_peak_value(sum(gammas), max(gammas), bound_u)
    return SensitivityReport("variance", value, branch)


def array_avg_sensitivity(k: int, bound_u: float, strategy: str) -> SensitivityReport:
    """Sensitivity of the mean of k array means.

    Wrap-around packing can split one user across two arrays, doubling the
    reach of a single user, hence 2U/k versus U/k for best fit.
    """
    bound_u = require_positive("value bound", bound_u)
    require_int("array count", k, low=1)
    if strategy not in STRATEGIES:
        raise InvalidParams(f"unknown grouping strategy {strategy!r}")
    reach = 2 if strategy == STRATEGY_WRAP else 1
    return SensitivityReport("mean", reach * bound_u / k)


def gain_report(m_list, capacity: int, bound_u: float) -> GainReport:
    """Compare direct mean sensitivity with the grouped surrogate U*c/sum(min).

    The gain max(m)*sum(min)/(sum(m)*c) lies in [1, OPT] where
    OPT = max(m)*len(m)/sum(m); the lower median capacity achieves at least
    OPT/2.
    """
    counts = require_counts(m_list)
    bound_u = require_positive("value bound", bound_u)
    require_int("capacity", capacity)
    if not min(counts) <= capacity <= max(counts):
        raise InvalidCapacity(
            f"capacity {capacity} outside count range [{min(counts)}, {max(counts)}]"
        )
    total = sum(counts)
    peak = max(counts)
    clipped_total = sum(min(m, capacity) for m in counts)
    return GainReport(
        delta_f=bound_u * peak / total,
        delta_tilde=bound_u * capacity / clipped_total,
        opt=peak * len(counts) / total,
        gain=peak * clipped_total / (total * capacity),
    )


def brute_force_variance_sensitivity(m_list, bound_u: float) -> float:
    """Exhaustive variance sensitivity over {0, U}-valued datasets.

    The extremal pair always consists of samples at the interval endpoints,
    and the variance of such a dataset depends only on how many samples sit
    at zero, so it suffices to scan zero-counts: the fixed users contribute
    z zeros, the rewritten user anywhere from 0 to m_j. Guarded to
    sum(m) <= 10 since this exists only to check the closed forms.
    """
    counts = require_counts(m_list)
    bound_u = require_positive("value bound", bound_u)
    n = sum(counts)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force capped at total count {BRUTE_FORCE_LIMIT}, got {n}")
    u2 = bound_u * bound_u

    def var_for_zeros(z: int) -> float:
        return u2 * z * (n - z) / (n * n)

    best = 0.0
    for m_j in counts:
        rest = n - m_j
        for z_rest in range(rest + 1):
            vals = [var_for_zeros(z_rest + a) for a in range(m_j + 1)]
            best = max(best, max(vals) - min(vals))
    return best
