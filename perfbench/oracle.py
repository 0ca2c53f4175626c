"""Expected values computed with numpy, separately from griddp.

Each function re-derives a quantity from the closed forms the paper states
(and the module docstrings of griddp repeat), without calling the program,
so the workload checks compare two independent computations. Float results
are compared with a relative tolerance: the operation order differs from
the program's, so the last bits may too.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def capacities(counts) -> tuple[int, int]:
    """(optimized, lower median) capacity of a grid's per-user counts.

    optimized maximises sum_l min(m_l, c) / sqrt(c) over integers c in
    [min m, max m], the smallest maximiser on ties; the scan is a full
    brute force over every c, compared exactly in rationals.
    """
    m = np.sort(np.asarray(counts, dtype=np.int64))
    cs = np.arange(m[0], m[-1] + 1, dtype=np.int64)
    s = _clipped_sums(m, cs)
    ratio = s.astype(float) ** 2 / cs
    near = np.flatnonzero(ratio >= ratio.max() * (1 - 1e-9))
    best = max(near, key=lambda i: (Fraction(int(s[i]) ** 2, int(cs[i])), -i))
    return int(cs[best]), int(m[(len(m) - 1) // 2])


def _clipped_sums(m_sorted: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """sum_l min(m_l, c) for every c in caps, m_sorted ascending."""
    prefix = np.concatenate(([0], np.cumsum(m_sorted)))
    below = np.searchsorted(m_sorted, caps, side="left")
    return prefix[below] + caps * (len(m_sorted) - below)


def variance_sensitivity(total, peak, bound_u):
    """Population-variance sensitivity from the total and largest count."""
    total = np.asarray(total, dtype=float)
    peak = np.asarray(peak, dtype=float)
    u2 = bound_u * bound_u
    above = u2 * peak * (total - peak) / (total * total)
    capped = np.where(total % 2 == 0, u2 / 4, (u2 / 4) * (1 - 1 / (total * total)))
    return np.where(total > 2 * peak, above, capped)


def variance_bias(total, kept, bound_u):
    """Worst-case variance bias of keeping `kept` of `total` samples."""
    total = np.asarray(total, dtype=float)
    kept = np.asarray(kept, dtype=float)
    u2 = bound_u * bound_u
    few = u2 * kept * (total - kept) / (total * total)
    capped = np.where(total % 2 == 0, u2 / 4, (u2 / 4) * (1 - 1 / (total * total)))
    return np.where(kept == total, 0.0, np.where(total < 2 * kept, few, capped))


def budget(sum_m, sum_gamma, peak, bound_u, epsilon):
    """Grid error budget: both biases plus both half-budget noise scales."""
    sum_m = np.asarray(sum_m, dtype=float)
    sum_gamma = np.asarray(sum_gamma, dtype=float)
    bias_mean = bound_u * (sum_m - sum_gamma) / sum_m
    noise_mean = 2 * bound_u * np.asarray(peak, dtype=float) / sum_gamma / epsilon
    noise_var = 2 * variance_sensitivity(sum_gamma, peak, bound_u) / epsilon
    return bias_mean + variance_bias(sum_m, sum_gamma, bound_u) + noise_mean + noise_var


def best_cap_budget(sum_m: int, gammas, bound_u: float, epsilon: float) -> float:
    """Smallest budget over uniform caps m of a grid's positive retained counts."""
    g = np.sort(np.asarray([x for x in gammas if x > 0], dtype=np.int64))
    caps = np.arange(g[0], g[-1] + 1, dtype=np.int64)
    return float(budget(sum_m, _clipped_sums(g, caps), caps, bound_u, epsilon).min())


def tau(bound_u: float, arrays: int, gamma: float, capacity: int) -> float:
    """Concentration half-width of array means (the levy bin width)."""
    return bound_u * math.sqrt(math.log(2 * arrays / gamma) / (2 * capacity))


def laplace_mae(offset: float, scale: float) -> tuple[float, float]:
    """E|c + L| and an upper bound on its standard deviation, L ~ Laplace(b)."""
    c = abs(offset)
    return c + scale * math.exp(-c / scale), math.sqrt(c * c + 2 * scale * scale)


def _stream(seed: int, labels: list[str]) -> np.random.Generator:
    key = tuple(
        int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest(), "little")
        for label in labels
    )
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def tiered_occupancy(
    seed: int, labels: list[str], grids: int, users: int, q: float, heavy_gamma: float
):
    """Regenerate a synthetic occupancy as arrays (user, grid, count).

    User l (1-based) sits in tier j = floor(log2 l) and draws G - j distinct
    grids by a partial Fisher-Yates shuffle of range(G), then one geometric
    count per chosen grid in ascending grid order; each draw takes one
    uniform of the stream, so a tier's users are regenerated together.
    Afterwards each grid's largest count (lowest user index on ties) is
    raised to ceil((1 + heavy_gamma) * m). Indices are 0-based.
    """
    gen = _stream(seed, labels + ["occupancy"])
    log_q = math.log1p(-q)
    us, gs, ms = [], [], []
    for tier in range(users.bit_length()):
        first, last = 2**tier, min(2 ** (tier + 1) - 1, users)
        if first > last:
            break
        n, k = last - first + 1, grids - tier
        u = gen.random(n * 2 * k).reshape(n, 2 * k)
        pool = np.tile(np.arange(grids), (n, 1))
        rows = np.arange(n)
        for i in range(k):
            j = i + np.minimum((u[:, i] * (grids - i)).astype(np.int64), grids - i - 1)
            pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i].copy()
        chosen = np.sort(pool[:, :k], axis=1)
        counts = np.floor(np.log1p(-u[:, k:]) / log_q).astype(np.int64) + 1
        us.append(np.repeat(np.arange(first - 1, last), k))
        gs.append(chosen.ravel())
        ms.append(counts.ravel())
    user, grid, count = np.concatenate(us), np.concatenate(gs), np.concatenate(ms)
    if heavy_gamma > 0:
        for g in range(grids):
            idx = np.flatnonzero(grid == g)
            if len(idx):
                top = idx[np.argmax(count[idx])]
                count[top] = math.ceil((1 + heavy_gamma) * int(count[top]))
    return user, grid, count
