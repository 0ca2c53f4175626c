"""Deterministic random streams with labeled splitting.

All randomness in the package flows through RngStream. A stream is identified
by a 64-bit seed plus the sequence of labels used to split it, so any
substream can be reproduced in isolation. Distribution draws are inverse-CDF
transforms of Generator.random(), which is the only part of numpy's RNG whose
bit stream is pinned; same seed and same call sequence give identical output.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InvalidParams, NonPositiveScale, require_int, require_positive

# Smallest uniform kept away from 0 and 1 so inverse CDFs stay finite.
_EPS = 2.0 ** -53


def _label_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest(), "little")


class RngStream:
    """A splittable deterministic random stream.

    split(label) derives an independent child stream; the child depends only
    on (seed, path of labels), never on how much the parent has been consumed.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = require_int("seed", seed)
        self._path = _path
        ss = np.random.SeedSequence(entropy=seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, label: str) -> "RngStream":
        return RngStream(self.seed, self._path + (_label_entropy(label),))

    def random(self, size: int | None = None):
        """Uniform draws in [0, 1): a float for size=None, else an ndarray."""
        return self._gen.random() if size is None else self._gen.random(size)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). Built on random() for stream stability."""
        require_int("randbelow bound", n, low=1)
        return min(int(self._gen.random() * n), n - 1)

    def subset(self, population: int, k: int) -> list[int]:
        """k distinct indices from range(population), uniform over subsets.

        Partial Fisher-Yates; the returned order is an artifact, callers that
        need determinism downstream should sort.
        """
        if not 0 <= k <= population:
            raise InvalidParams(f"cannot choose {k} from {population}")
        pool = list(range(population))
        for i in range(k):
            j = i + self.randbelow(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def laplace(self, scale: float, size: int | None = None):
        """Centered Laplace draws via the inverse CDF."""
        require_positive("laplace scale", scale, NonPositiveScale)
        u = self.random(size)
        return laplace_inverse_cdf(u, scale)

    def geometric(self, q: float, size: int | None = None):
        """Geometric draws on {1, 2, ...} with success probability q."""
        if not 0 < q < 1:
            raise InvalidParams(f"geometric q must be in (0, 1), got {q}")
        u = self.random(size)
        # floor(log(1-u)/log(1-q)) + 1; u=0 maps to 1 exactly.
        out = np.floor(np.log1p(-np.asarray(u)) / math.log1p(-q)) + 1
        if size is None:
            return int(out)
        return out.astype(np.int64)

    def normal(self, mu: float, sigma: float, size: int | None = None):
        """Gaussian draws via the inverse CDF (stdlib NormalDist)."""
        require_positive("normal sigma", sigma)
        from statistics import NormalDist

        nd = NormalDist(mu, sigma)
        if size is None:
            u = min(max(self.random(), _EPS), 1.0 - _EPS)
            return nd.inv_cdf(u)
        u = np.clip(self.random(size), _EPS, 1.0 - _EPS)
        return np.array([nd.inv_cdf(float(v)) for v in u])


def laplace_inverse_cdf(u, scale: float):
    """Map uniform u in [0, 1) to a centered Laplace variate of given scale.

    u = 0.5 maps to exactly 0. Inputs at the open ends are nudged by one ulp
    so the transform never returns an infinity.
    """
    require_positive("laplace scale", scale, NonPositiveScale)
    u_arr = np.asarray(u, dtype=float)
    shifted = u_arr - 0.5
    inner = np.clip(1.0 - 2.0 * np.abs(shifted), _EPS, None)
    out = -scale * np.sign(shifted) * np.log(inner)
    if np.ndim(u) == 0:
        return float(out)
    return out
