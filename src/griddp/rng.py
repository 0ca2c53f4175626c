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
from itertools import islice

import numpy as np

from .errors import InvalidParams, NonPositiveScale, require_int, require_positive

# Smallest uniform kept away from 0 and 1 so inverse CDFs stay finite.
_EPS = 2.0 ** -53


def _label_digest(label: str) -> bytes:
    return hashlib.sha256(label.encode("utf-8")).digest()


def _label_entropy(label: str) -> int:
    return int.from_bytes(_label_digest(label), "little")


class RngStream:
    """A splittable deterministic random stream.

    split(label) derives an independent child stream; the child depends only
    on (seed, path of labels), never on how much the parent has been consumed.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = require_int("seed", seed, low=0)
        self._path = _path
        ss = np.random.SeedSequence(entropy=seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, label: str) -> "RngStream":
        return RngStream(self.seed, self._path + (_label_entropy(label),))

    def split_uniforms(self, labels, m: int) -> np.ndarray:
        """An (N, m) float64 block for N labels (any iterable of them): row i
        is the first m values of self.split(labels[i]).random(), bit for bit,
        without building the N child streams."""
        return self._children_uniforms(map(_label_digest, labels), m)

    def _children_uniforms(self, keys, m: int) -> np.ndarray:
        """split_uniforms for children whose last path ints are keys, each
        32 bytes read little-endian, as a label's sha256 digest is read by
        split; the children are generated _CHILDREN at a time."""
        m = require_int("uniforms per child", m, low=0)
        # A child's SeedSequence mixes its key's words into this stream's own
        # pool: the spawn key pads the seed's words to the pool size with
        # the zeros that the pool of a short seed already mixed in. The hash
        # constant has advanced once per hashmix, 4 per entropy word.
        pool = self._gen.bit_generator.seed_seq.pool
        n = max(4, _word_count(self.seed)) + sum(map(_word_count, self._path))
        consts = np.uint32(_INIT_A * pow(_MULT_A, 4 * n, 1 << 32) & _MASK32) * _POWERS_A
        keys = iter(keys)
        blocks = [np.empty((0, m))]
        while chunk := b"".join(islice(keys, _CHILDREN)):
            words = np.frombuffer(chunk, dtype="<u4").reshape(-1, 8)
            block = _pcg64_uniforms(_generate_state(_mix_keys(pool, consts, words)), m)
            # SeedSequence mixes a key whose top word is 0 (about 2^-32 of
            # sha256 digests) as a shorter key: its row comes from split's stream
            for i in np.flatnonzero(words[:, 7] == 0).tolist():
                key = int.from_bytes(chunk[32 * i : 32 * i + 32], "little")
                block[i] = RngStream(self.seed, self._path + (key,)).random(m)
            blocks.append(block)
        return np.concatenate(blocks)

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
        u = np.clip(self.random(1 if size is None else size), _EPS, 1.0 - _EPS)
        out = float(mu) + _normal_inverse_cdf(u) * float(sigma)
        return float(out[0]) if size is None else out


# A numpy port of SeedSequence's mixing of a spawn key and generate_state
# (pool size 4), and of PCG64, for split_uniforms, after numpy's
# bit_generator.pyx and pcg64.h (O'Neill 2014, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation"); the pool the keys are mixed into is numpy's own. Words are
# uint32 and 64-bit limbs uint64 arrays with one row per word or limb and one
# column per child, whose arithmetic wraps silently and runs in place where
# it can. Constants that meet those arrays are numpy scalars of their dtype,
# so no operation converts a Python int; no two numpy scalars are ever
# combined, since numpy scalar arithmetic warns on overflow.
_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The multiplier's high and low 64-bit limbs, and the low limb's 32-bit halves.
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_LO0, _MULT_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
# Shift counts (and the increment's low bit) in the dtype they meet.
_S1, _S11, _S32, _S58, _S63 = (np.uint64(n) for n in (1, 11, 32, 58, 63))
_S16 = np.uint32(16)
# Children generated per pass of _children_uniforms, which bounds its memory.
_CHILDREN = 1 << 14


def _word_count(n: int) -> int:
    """The uint32 words SeedSequence makes of n: high zero words dropped,
    and 0 is one word."""
    return max(1, (n.bit_length() + 31) // 32)


def _hash_consts(hc: int, mult: int, count: int) -> list[int]:
    """hc and the count hash constants after it: each is the last times mult."""
    out = [hc]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


# _MULT_A to the powers 0 to 32: a stream's 33 hashmix constants for the
# words of a key are its first constant times these, modulo 2^32.
_POWERS_A = np.array(_hash_consts(1, _MULT_A, 32), dtype=np.uint32)
# generate_state's 9 hash constants, one row each.
_STATE_CONSTS = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]


def _mix_keys(pool: np.ndarray, consts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(4, N) uint32 pools after mixing each row's 8 key words (N, 8) into
    pool, one source word at a time, each into the 4 pool words with 4
    consecutive hash constants of consts, the stream's 33 in order."""
    # every hashmix in one pass, with the part of each mix that does not
    # depend on the pool (R times the hashed word): h[j, k] is word j hashed
    # with the constants of pool word k; the mixes then run in order
    h = np.bitwise_xor(words.T[:, None], consts[:32].reshape(8, 4, 1), order="C")
    h *= consts[1:].reshape(8, 4, 1)
    # h ^= h >> 16 with no temporary of h's size: it xors each word's high 16
    # bits into its low 16 bits, here through a uint16 view
    halves = h.view(np.uint16)
    low = int(not np.little_endian)
    halves[..., low::2] ^= halves[..., 1 - low :: 2]
    h *= _MIX_R
    mixed = np.repeat(pool[:, None], len(words), axis=1)
    shifted = np.empty_like(mixed)
    for hj in h:
        mixed *= _MIX_L
        mixed -= hj
        mixed ^= np.right_shift(mixed, _S16, out=shifted)
    return mixed


def _generate_state(pools: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of each column of (4, N) pools: a (4, N)
    uint64 array."""
    state = (np.tile(pools, (2, 1)) ^ _STATE_CONSTS[:8]) * _STATE_CONSTS[1:]
    state ^= state >> _S16
    state = state.astype(np.uint64)
    return state[0::2] | state[1::2] << _S32


def _add_mulhi64(acc: np.ndarray, a: np.ndarray, scratch: np.ndarray) -> None:
    """acc += the high 64 bits of a * _MULT_LO, from 32-bit limb products
    (Warren, Hacker's Delight, mulhu): with t = a1 b0 + (a0 b0 >> 32) and
    w = (t & mask) + a0 b1, none of which overflows, the high bits are
    a1 b1 + (t >> 32) + (w >> 32). scratch is four arrays of a's shape."""
    a0, a1, t, w = scratch
    np.bitwise_and(a, _LOW32, out=a0)
    np.right_shift(a, _S32, out=a1)
    np.multiply(a0, _MULT_LO0, out=t)
    t >>= _S32
    t += np.multiply(a1, _MULT_LO0, out=w)
    a0 *= _MULT_LO1
    np.bitwise_and(t, _LOW32, out=w)
    w += a0
    t >>= _S32
    acc += t
    w >>= _S32
    acc += w
    a1 *= _MULT_LO1
    acc += a1


def _lcg_step(hi, lo, inc_hi, inc_lo, scratch: np.ndarray) -> None:
    """state * _PCG_MULT + inc modulo 2^128, in place on (hi, lo) uint64
    limbs; scratch is four arrays of their shape."""
    hi *= _MULT_LO
    hi += np.multiply(lo, _MULT_HI, out=scratch[0])
    hi += inc_hi
    _add_mulhi64(hi, lo, scratch)
    lo *= _MULT_LO
    lo += inc_lo
    # the carry out of the low limb's addition
    hi += np.less(lo, inc_lo, out=scratch[0])


def _pcg64_uniforms(seeds: np.ndarray, m: int) -> np.ndarray:
    """The first m Generator.random() values of PCG64 seeded with each column
    of seeds, generate_state's (4, N) uint64 words: initstate s0 << 64 | s1,
    initseq s2 << 64 | s3; an (N, m) array. Each value is one LCG step, then
    XSL-RR."""
    s0, s1, s2, s3 = seeds
    inc_hi, inc_lo = s2 << _S1 | s3 >> _S63, s3 << _S1 | _S1
    # state = 0, step, add initstate, step
    lo = inc_lo + s1
    hi = inc_hi + s0 + (lo < s1)
    scratch = np.empty((4, len(lo)), np.uint64)
    _lcg_step(hi, lo, inc_hi, inc_lo, scratch)
    x, rot, right = scratch[:3]
    out = np.empty((m, len(lo)))
    for row in out:
        _lcg_step(hi, lo, inc_hi, inc_lo, scratch)
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _S58, out=rot)
        np.right_shift(x, rot, out=right)
        np.negative(rot, out=rot)
        rot &= _S63
        x <<= rot
        x |= right
        x >>= _S11
        np.multiply(x, 2.0**-53, out=row)
    return out.T


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


def _require_uniforms(u) -> np.ndarray:
    """u as a float array; InvalidParams unless every value lies in [0, 1]
    (NaN fails both comparisons)."""
    u = np.asarray(u, dtype=float)
    inside = (u >= 0.0) & (u <= 1.0)
    if not inside.all():
        raise InvalidParams(f"uniforms must lie in [0, 1], got {u[~inside].flat[0]}")
    return u


def laplace_inverse_cdf(u, scale: float):
    """Map uniform u in [0, 1] to a centered Laplace variate of given scale.

    u is one float or an array of them; any value outside [0, 1], or NaN,
    raises InvalidParams. scale is one positive finite float, or an array of
    them broadcast against u. u = 0.5 maps to exactly 0. Inputs at the ends
    are nudged by one ulp so the transform never returns an infinity. The
    offset from 0.5 is taken through 1 - u, so u and the float 1 - u map to
    exact negatives; on the 2^-53 grid of RngStream.random() it equals
    u - 0.5 exactly.
    """
    scale = np.asarray(scale, dtype=float)
    if not np.all((scale > 0) & (scale < math.inf)):
        raise NonPositiveScale(f"laplace scale must be positive and finite, got {scale}")
    u_arr = _require_uniforms(u)
    shifted = 0.5 - (1.0 - u_arr)
    inner = np.clip(1.0 - 2.0 * np.abs(shifted), _EPS, None)
    out = -scale * np.sign(shifted) * np.log(inner)
    if np.ndim(out) == 0:
        return float(out)
    return out
