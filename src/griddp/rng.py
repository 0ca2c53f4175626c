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

from .errors import NonPositiveScale, require_int, require_positive

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

    def laplace(self, scale: float, size: int | None = None):
        """Centered Laplace draws via the inverse CDF."""
        require_positive("laplace scale", scale, NonPositiveScale)
        u = self.random(size)
        return laplace_inverse_cdf(u, scale)

    def normal(self, mu: float, sigma: float, size: int | None = None):
        """Gaussian draws via the inverse CDF, bit for bit NormalDist(mu, sigma).inv_cdf."""
        require_positive("normal sigma", sigma)
        mu, sigma = float(mu), float(sigma)
        if size is None:
            u = min(max(self.random(), _EPS), 1.0 - _EPS)
            return mu + float(_normal_inverse_cdf(np.array([u]))[0]) * sigma
        u = np.clip(self.random(size), _EPS, 1.0 - _EPS)
        return mu + _normal_inverse_cdf(u) * sigma


# AS241 (Wichura 1988) rational approximations, highest degree first, in the
# operation order of statistics.NormalDist.inv_cdf, so every value matches it.
_CENTRAL_NUM = (
    2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
    4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
    1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0,
)
_CENTRAL_DEN = (
    5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
    2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
    4.23133_30701_60091_1252e+1, 1.0,
)
_NEAR_NUM = (
    7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
    1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
    4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0,
)
_NEAR_DEN = (
    1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
    1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
    2.05319_16266_37758_82187e+0, 1.0,
)
_FAR_NUM = (
    2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
    2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
    5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0,
)
_FAR_DEN = (
    2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
    7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
    5.99832_20655_58879_37690e-1, 1.0,
)


def _horner(coeffs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    acc = coeffs[0] * r + coeffs[1]
    for c in coeffs[2:]:
        acc = acc * r + c
    return acc


def _normal_inverse_cdf(p: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of p in (0, 1), elementwise AS241."""
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    x[central] = _horner(_CENTRAL_NUM, r) * qc / _horner(_CENTRAL_DEN, r)
    tail = ~central
    qt, pt = q[tail], p[tail]
    # numpy's log can differ from libm's in the last bit, so the tail takes
    # math.log to match the stdlib value exactly
    r = np.where(qt <= 0.0, pt, 1.0 - pt).tolist()
    r = np.sqrt(-np.fromiter(map(math.log, r), float, len(r)))
    near = r <= 5.0
    xt = np.empty_like(r)
    rn, rf = r[near] - 1.6, r[~near] - 5.0
    xt[near] = _horner(_NEAR_NUM, rn) / _horner(_NEAR_DEN, rn)
    xt[~near] = _horner(_FAR_NUM, rf) / _horner(_FAR_DEN, rf)
    x[tail] = np.where(qt < 0.0, -xt, xt)
    return x


def laplace_inverse_cdf(u, scale: float):
    """Map uniform u in [0, 1) to a centered Laplace variate of given scale.

    u = 0.5 maps to exactly 0. Inputs at the open ends are nudged by one ulp
    so the transform never returns an infinity. The offset from 0.5 is taken
    through 1 - u, so u and the float 1 - u map to exact negatives; on the
    2^-53 grid of RngStream.random() it equals u - 0.5 exactly.
    """
    require_positive("laplace scale", scale, NonPositiveScale)
    u_arr = np.asarray(u, dtype=float)
    shifted = 0.5 - (1.0 - u_arr)
    inner = np.clip(1.0 - 2.0 * np.abs(shifted), _EPS, None)
    out = -scale * np.sign(shifted) * np.log(inner)
    if np.ndim(u) == 0:
        return float(out)
    return out
