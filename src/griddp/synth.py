"""Synthetic occupancy and value generation for the evaluation harness.

The structural model: user index l (1-based) belongs to tier
j = floor(log2 l), so tier j holds 2^j users, and the user occupies
G - j uniformly chosen distinct grids. With the defaults (12 grids,
4095 users) the tiers are exactly j = 0..11 and one user touches all
grids while half touch a single one. Per occupied grid the sample count
is geometric on {1, 2, ...}. heavy_gamma > 0 inflates each grid's
largest count (first in token order on ties) to ceil((1 + gamma) * m),
making one user dominate; 0 leaves counts untouched.

Values are a normal distribution projected onto [0, U], which piles the
tail mass onto the endpoints 0 and U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import Dataset, OccupancyArray
from .errors import InvalidParams, TooLarge, require_int, require_positive, require_probability
from .rng import RngStream


@dataclass(frozen=True)
class SynthParams:
    grids: int = 12
    users: int = 4095
    bound_u: float = 65.0
    geometric_q: float = 0.01
    heavy_gamma: float = 0.0

    def __post_init__(self) -> None:
        require_int("grid count", self.grids, low=1)
        require_int("user count", self.users, low=1)
        if self.users > 2 ** int(self.grids) - 1:
            raise InvalidParams(
                f"user count {self.users} exceeds 2^{self.grids} - 1; the top "
                "tier would occupy fewer than one grid"
            )
        require_positive("value bound", self.bound_u)
        require_probability("geometric parameter", self.geometric_q)
        if not 0 <= self.heavy_gamma < math.inf:
            raise InvalidParams(
                f"heavy-user inflation must be finite and >= 0, got {self.heavy_gamma}"
            )


@dataclass(frozen=True)
class ValueModel:
    mean: float = 20.66769
    variance: float = 115.135
    bound_u: float = 65.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise InvalidParams(f"value mean must be finite, got {self.mean}")
        require_positive("variance", self.variance)
        require_positive("value bound", self.bound_u)


def user_token(index: int, total: int) -> str:
    return f"u{index:0{len(str(total))}d}"


def grid_token(index: int, total: int) -> str:
    return f"g{index:0{len(str(total))}d}"


# Entries are moved from draw order to (grid, user) order this many at a
# time, so the move's temporaries stay small beside the columns.
_MOVE_CHUNK = 1 << 12


def generate_occupancy(params: SynthParams, rng: RngStream) -> OccupancyArray:
    """Draw the tiered occupancy structure and geometric counts.

    Draw order: tiers in index order, each taking one block of n * 2k
    uniforms for its n users of k = G - tier grids. Row r of the block is
    the tier's r-th user: its first k uniforms drive a partial Fisher-Yates
    shuffle of range(G) (step i swaps position i with i + min(int(u * (G - i)),
    G - i - 1)), its last k give one geometric count per chosen grid in
    ascending grid order. This consumes the stream exactly as a per-user
    loop would that draws one uniform per shuffle step and then one per
    count. The heavy-user inflation happens after all draws, so two runs
    with the same seed and different heavy_gamma share the underlying
    counts. A count above 2^63 - 1, which int64 cannot hold, raises
    TooLarge.

    Besides the two int64 columns, the draws hold one byte-or-wider grid
    index and one float per entry, and each tier its block; the user ids
    are worked out from the entries' draw positions, not listed.
    """
    s = rng.split("occupancy")
    grids, users = int(params.grids), int(params.users)
    log_q = math.log1p(-params.geometric_q)
    # tier t holds users firsts[t] + 1 to lasts[t] (1-based), each in
    # widths[t] grids; its entries start at position starts[t] in draw order
    firsts = np.array([2**t for t in range(users.bit_length())])
    lasts = np.minimum(2 * firsts - 1, users)
    widths = grids - np.arange(len(firsts))
    starts = np.concatenate(([0], np.cumsum((lasts - firsts + 1) * widths)))
    # grid indices in the smallest dtype that holds them, which numpy
    # radix-sorts when it has 16 bits or fewer
    small = np.min_scalar_type(grids - 1)
    grid_idx = np.empty(starts[-1], small)
    draws = np.empty(starts[-1])
    sizes = np.zeros(grids, np.int64)  # entries per grid
    for first, last, k, lo, hi in zip(firsts, lasts, widths, starts, starts[1:]):
        n = int(last - first + 1)
        u = s.random(n * 2 * k).reshape(n, 2 * k)
        pool = np.tile(np.arange(grids, dtype=small), (n, 1))
        rows = np.arange(n)
        for i in range(k):
            j = i + np.minimum((u[:, i] * (grids - i)).astype(np.int64), grids - i - 1)
            pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i].copy()
        pool[:, :k].sort(axis=1)
        grid_idx[lo:hi].reshape(n, k)[:] = pool[:, :k]
        sizes += np.bincount(grid_idx[lo:hi], minlength=grids)
        del pool, rows, j
        # floor(log(1-u)/log(1-q)) + 1: a geometric draw by the inverse CDF;
        # kept as exact floats until the int64 range is checked
        d = draws[lo:hi].reshape(n, k)
        np.log1p(np.negative(u[:, k:], out=u[:, k:]), out=d)
        d /= log_q
        np.floor(d, out=d)
        d += 1
        del u, d
    # users ascend in draw order, so a stable sort by grid gives (grid, user);
    # a stable order is unique, whichever algorithm numpy picks
    order = np.argsort(grid_idx, kind="stable")
    del grid_idx
    # user 1 occupies every grid, so no row is empty
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    if params.heavy_gamma > 0:
        # a grid's entries are in token order, so argmax takes the first of
        # tied peaks
        spans = zip(offsets, offsets[1:])
        tops = [order[lo + np.argmax(draws[order[lo:hi]])] for lo, hi in spans]
        draws[tops] = np.ceil((1 + params.heavy_gamma) * draws[tops])
    peak = draws.max()
    if peak >= 2.0**63:
        raise TooLarge(f"a count of {peak:.0f} is above 2^63 - 1")
    # every count fits the smallest unsigned dtype that holds the peak
    draws = draws.astype(np.min_scalar_type(int(peak)))
    # order becomes the user ids in place: draw position p of tier t is
    # user firsts[t] - 1 + (p - starts[t]) // widths[t] (0-based)
    ids, counts = order, np.empty(len(order), np.int64)
    for a in range(0, len(ids), _MOVE_CHUNK):
        part = ids[a : a + _MOVE_CHUNK]
        counts[a : a + _MOVE_CHUNK] = draws[part]
        t = np.searchsorted(starts, part, side="right")
        t -= 1
        part -= starts[t]
        part //= widths[t]
        part += firsts[t] - 1
    del draws
    return OccupancyArray._from_columns(
        [grid_token(g + 1, grids) for g in range(grids)],
        _UserTokens(users),
        offsets,
        ids,
        counts,
    )


class _UserTokens:
    """user_token(i + 1, n) for user id i < n, made on demand; the tokens
    share one width, so id order is token order."""

    def __init__(self, n: int):
        self._n = n
        self._pattern = f"u%0{len(str(n))}d"  # user_token's format, width fixed once

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> str:
        return self._pattern % (i + 1)

    def __iter__(self):
        return map(self.__getitem__, range(self._n))


def generate_values(
    occupancy: OccupancyArray, model: ValueModel, rng: RngStream
) -> Dataset:
    """Fill an occupancy with values from the projected normal model.

    Draw order: grids in token order, users in token order within a grid,
    count draws per user. Each value is a normal draw pushed to the nearest
    endpoint of [0, U] when it falls outside.
    """
    s = rng.split("values")
    sigma = math.sqrt(model.variance)
    totals = list(map(occupancy.total, occupancy.grids()))
    column = np.empty(sum(totals))
    for lo, n in zip(accumulate(totals, initial=0), totals):
        # one draw per grid takes the same stream as one draw per user, and
        # keeps the temporary arrays to the size of a grid
        raw = s.normal(model.mean, sigma, size=n)
        np.minimum(np.maximum(raw, 0.0), model.bound_u, out=column[lo : lo + n])
    return Dataset._from_columns(occupancy, column, model.bound_u)


SCALE_SAMPLE = "sample"
SCALE_USER = "user"
# The most users user mode duplicates into, here and in check_scaling_laws
# (lambda times the user count); they are built and packed in Python.
_MAX_DUPLICATED = 1 << 20


def scale_occupancy(
    occupancy: OccupancyArray, lam: int, mode: str
) -> OccupancyArray:
    """Grow an occupancy by an integer factor lam.

    sample mode multiplies every count by lam; user mode replaces each user
    with lam clones (token suffixed ~r) carrying identical rows, and raises
    TooLarge before building any when that makes more than 2^20 users.
    """
    require_int("scale factor", lam, low=1)
    users = lam * len(occupancy._users)
    if mode == SCALE_USER and users > _MAX_DUPLICATED:
        raise TooLarge(f"user mode would make {users} users; it takes at most 2^20")
    base = occupancy.as_dict()
    if mode == SCALE_SAMPLE:
        return OccupancyArray(
            {g: {u: lam * c for u, c in row.items()} for g, row in base.items()}
        )
    if mode == SCALE_USER:
        width = len(str(lam - 1)) if lam > 1 else 1
        return OccupancyArray(
            {
                g: {
                    f"{u}~{r:0{width}d}": c
                    for u, c in row.items()
                    for r in range(lam)
                }
                for g, row in base.items()
            }
        )
    raise InvalidParams(f"unknown scale mode {mode!r}")
