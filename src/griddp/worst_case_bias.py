"""Worst-case estimation error introduced by dropping samples.

When a grid keeps only gamma_l of each user's m_l samples, the released
statistic is computed on the retained samples while the target is the
statistic of all of them. These bounds are over the adversarial placement
of sample values in [0, U] and are tight: extremal_bias_dataset builds a
dataset attaining each one under the first-gamma retention rule.

With n = sum(m) and A = sum(gamma), the mean bias is U * (n - A) / n.
The variance bias depends on whether the dropped samples outnumber the
retained ones:

- A == n: zero, nothing is dropped
- n <  2*A: U^2 * A * (n - A) / n^2   (fewer dropped than retained)
- n >= 2*A, n even: U^2 / 4
- n >= 2*A, n odd:  (U^2 / 4) * (1 - 1/n^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import Dataset
from .errors import InvalidParams, require_pair, require_positive

BRANCH_FEW_DROPPED = "FewDropped"
BRANCH_EVEN_TOTAL = "EvenTotal"
BRANCH_ODD_TOTAL = "OddTotal"

TARGET_MEAN = "mean"
TARGET_VARIANCE = "variance"


@dataclass(frozen=True)
class BiasReport:
    target: str
    value: float
    branch: str | None = None


def bias_branch_value(total: int, kept: int, bound_u: float) -> tuple[str | None, float]:
    """Worst-case variance bias given total and retained sample counts."""
    if kept == total:
        return None, 0.0
    u2 = bound_u * bound_u
    if total < 2 * kept:
        return BRANCH_FEW_DROPPED, u2 * kept * (total - kept) / (total * total)
    if total % 2 == 0:
        return BRANCH_EVEN_TOTAL, u2 / 4
    return BRANCH_ODD_TOTAL, (u2 / 4) * (1 - 1 / (total * total))


def mean_bias(m_list, gamma_list, bound_u: float) -> BiasReport:
    counts, gammas = require_pair(m_list, gamma_list)
    bound_u = require_positive("value bound", bound_u)
    total = sum(counts)
    return BiasReport(TARGET_MEAN, bound_u * (total - sum(gammas)) / total)


def variance_bias(m_list, gamma_list, bound_u: float) -> BiasReport:
    counts, gammas = require_pair(m_list, gamma_list)
    bound_u = require_positive("value bound", bound_u)
    branch, value = bias_branch_value(sum(counts), sum(gammas), bound_u)
    return BiasReport(TARGET_VARIANCE, value, branch)


def extremal_bias_dataset(m_list, gamma_list, bound_u: float, target: str) -> Dataset:
    """Single-grid dataset attaining the worst-case bias for the target.

    Retention keeps the first gamma_l samples of each user, so each user's
    list is laid out retained-first. For the mean (and the variance when
    fewer samples are dropped than kept) every retained sample sits at 0 and
    every dropped one at U. Otherwise the retained set stays at 0 and the
    dropped samples split so that ceil(n/2) of all samples are 0 and the
    rest are U, assigning the extra zeros to dropped slots in token order.
    """
    counts, gammas = require_pair(m_list, gamma_list)
    bound_u = require_positive("value bound", bound_u)
    if target not in (TARGET_MEAN, TARGET_VARIANCE):
        raise InvalidParams(f"unknown bias target {target!r}")
    total = sum(counts)
    kept = sum(gammas)
    branch, _ = bias_branch_value(total, kept, bound_u)
    width = len(str(len(counts)))
    if target == TARGET_MEAN or branch in (None, BRANCH_FEW_DROPPED):
        extra_zero_drops = 0
    else:
        extra_zero_drops = math.ceil(total / 2) - kept
    samples: dict[str, dict[str, list[float]]] = {"g": {}}
    for i, (m, g) in enumerate(zip(counts, gammas)):
        vals = [0.0] * g
        for _ in range(m - g):
            if extra_zero_drops > 0:
                vals.append(0.0)
                extra_zero_drops -= 1
            else:
                vals.append(bound_u)
        samples["g"][f"u{i + 1:0{width}d}"] = vals
    return Dataset(samples, bound_u)
