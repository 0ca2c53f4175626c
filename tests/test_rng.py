"""Stream splitting, determinism, and the inverse-CDF samplers."""

import math
import random
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

from griddp.errors import InvalidParams, NonPositiveScale
from griddp.rng import (
    _EPS,
    RngStream,
    _label_entropy,
    _normal_inverse_cdf,
    laplace_inverse_cdf,
)
from test_synth import geometric, randbelow, subset


def test_same_seed_same_sequence():
    a = RngStream(123).random(size=20)
    b = RngStream(123).random(size=20)
    assert np.array_equal(a, b)


def test_negative_seed_is_invalid():
    # numpy's SeedSequence once raised a bare ValueError
    with pytest.raises(InvalidParams, match="seed must be >= 0, got -1"):
        RngStream(-1)


def test_split_labels_diverge():
    root = RngStream(5)
    x = root.split("alpha").random(size=8)
    y = root.split("beta").random(size=8)
    assert not np.array_equal(x, y)


def test_split_is_stateless():
    # Child streams depend on (seed, label path) only, not on parent draws.
    r1 = RngStream(9)
    r1.random(size=100)
    c1 = r1.split("child").random(size=5)
    c2 = RngStream(9).split("child").random(size=5)
    assert np.array_equal(c1, c2)


def test_nested_split_paths_distinct():
    root = RngStream(3)
    assert not np.array_equal(
        root.split("a").split("b").random(size=4),
        root.split("b").split("a").random(size=4),
    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_split_uniforms_equal_split_streams():
    # the numpy port of SeedSequence and PCG64 against numpy itself, on the
    # labels mae_eval uses: a change in either numpy algorithm fails here
    root = RngStream(0)
    labels = [f"mae:{i // 5000}:{i % 5000}" for i in range(100_000)]
    got = root.split_uniforms(iter(labels), 5)
    assert got.shape == (100_000, 5)
    want = np.array([root.split(label).random(5) for label in labels])
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("seed", [0, 5, 2**64, 2**70 + 3, 2**130 + 5])
def test_split_uniforms_of_seeds_and_nested_paths(seed):
    labels = ["a", "mae:0:0", "grid:g04", "", "\u00e9"]
    for stream in (RngStream(seed), RngStream(seed).split("grid:g04").split("x")):
        want = np.array([stream.split(label).random(3) for label in labels])
        assert np.array_equal(_bits(stream.split_uniforms(labels, 3)), _bits(want))
    assert RngStream(seed).split_uniforms([], 3).shape == (0, 3)
    assert RngStream(seed).split_uniforms(labels, 0).shape == (5, 0)


def _key_of_words(rnd, count):
    """A random int of exactly count little-endian uint32 words."""
    return rnd.randrange(1, 2**32) << 32 * (count - 1) | rnd.getrandbits(32 * (count - 1))


@pytest.mark.parametrize(
    "seed, path",
    [(0, ()), (2**70 + 3, ()), (2**130 + 5, ()), (9, (_label_entropy("grid:g04"),)), (1, (0, 2**32))],
)
def test_children_uniforms_for_keys_of_one_to_eight_words(seed, path):
    # SeedSequence drops a key's high zero words; no sha256 of a real label
    # is known to have a zero top word, so such keys are made up here
    rnd = random.Random(seed)
    keys = [0, 1, 2**32 - 1, 2**32, 2**64 + 2**32, 2**160 + 1, 2**224 - 1, 2**224, 2**256 - 1]
    keys += [_key_of_words(rnd, count) for count in range(1, 9) for _ in range(4)]
    keys += [rnd.getrandbits(256) >> 32 for _ in range(4)]
    got = RngStream(seed, path)._children_uniforms([k.to_bytes(32, "little") for k in keys], 4)
    want = np.array([RngStream(seed, path + (k,)).random(4) for k in keys])
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("seed, path", [(0, ()), (9, (_label_entropy("grid:g04"),))])
def test_children_uniforms_of_zero_top_word_keys_in_every_chunk(monkeypatch, seed, path):
    # 11 keys in chunks of 3: keys of fewer than 8 words at the first row,
    # inside the second and the third chunk, and at the last row
    monkeypatch.setattr("griddp.rng._CHILDREN", 3)
    rnd = random.Random(seed)
    keys = [_key_of_words(rnd, 8) for _ in range(11)]
    for row, count in ((0, 1), (4, 7), (7, 4), (10, 2)):
        keys[row] = _key_of_words(rnd, count)
    got = RngStream(seed, path)._children_uniforms([k.to_bytes(32, "little") for k in keys], 4)
    want = np.array([RngStream(seed, path + (k,)).random(4) for k in keys])
    assert np.array_equal(_bits(got), _bits(want))


def test_vector_laplace_equals_scalar_calls():
    # numpy may run np.log through another loop for one element than for
    # many; batched draws rely on both giving the same bits. u = k 2^-53,
    # the grid of RngStream.random(), with both ends and the middle
    k = np.concatenate(
        [
            np.arange(100_000),
            2**52 - 50_000 + np.arange(100_000),
            2**53 - 100_000 + np.arange(100_000),
            np.floor(RngStream(3).random(300_000) * 2**53),
        ]
    )
    u = k * 2.0**-53
    assert u[0] == 0.0 and u[299_999] == 1 - 2.0**-53
    scales = np.resize([1.0, 0.37, 2.5e3, 7e-300], len(u))
    want = [laplace_inverse_cdf(x, s) for x, s in zip(u.tolist(), scales.tolist())]
    assert np.array_equal(_bits(laplace_inverse_cdf(u, scales)), _bits(want))
    ones = laplace_inverse_cdf(u, 1.0)
    assert np.array_equal(_bits(ones[::4]), _bits(want[::4]))


def test_laplace_rejects_bad_scale_arrays():
    for bad in ([1.0, 0.0], [1.0, math.inf], [math.nan, 1.0]):
        with pytest.raises(NonPositiveScale):
            laplace_inverse_cdf(np.array([0.2, 0.7]), np.array(bad))


def test_laplace_inverse_cdf_quantiles():
    assert laplace_inverse_cdf(0.5, 2.0) == 0.0
    assert math.isclose(laplace_inverse_cdf(0.75, 1.0), math.log(2.0), rel_tol=1e-12)
    assert math.isclose(laplace_inverse_cdf(0.25, 1.0), -math.log(2.0), rel_tol=1e-12)


@pytest.mark.parametrize(
    "u", [1.5, -0.5, math.nan, np.array([0.2, 1.5]), np.array([[0.3], [math.nan]])]
)
def test_laplace_inverse_cdf_rejects_uniforms_outside_the_unit_interval(u):
    # 1.5 and -0.5 once mapped to +-36.74 and NaN to NaN, with no error
    with pytest.raises(InvalidParams, match=r"uniforms must lie in \[0, 1\]"):
        laplace_inverse_cdf(u, 1.0)


def test_laplace_inverse_cdf_finite_at_extremes():
    for u in (0.0, 1.0, 1e-300, 1 - 1e-16):
        out = laplace_inverse_cdf(u, 1.0)
        assert math.isfinite(out)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1e-6, max_value=1e6))
def test_laplace_inverse_cdf_symmetry(u, scale):
    left = laplace_inverse_cdf(u, scale)
    right = laplace_inverse_cdf(1.0 - u, scale)
    assert math.isclose(left, -right, rel_tol=1e-9, abs_tol=1e-12)


@given(
    st.floats(min_value=1e-9, max_value=1 - 1e-9),
    st.floats(min_value=1e-9, max_value=1 - 1e-9),
)
def test_laplace_inverse_cdf_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    assert laplace_inverse_cdf(lo, 1.0) <= laplace_inverse_cdf(hi, 1.0)


def test_laplace_scale_linearity():
    u = RngStream(11).random(size=1000)
    a = laplace_inverse_cdf(u, 1.0)
    b = laplace_inverse_cdf(u, 2.5)
    assert np.allclose(b, 2.5 * a, rtol=1e-12, atol=0)


def test_laplace_rejects_bad_scale():
    with pytest.raises(NonPositiveScale):
        laplace_inverse_cdf(0.5, 0.0)
    with pytest.raises(NonPositiveScale):
        RngStream(0).laplace(-1.0)


def test_geometric_support_and_mean():
    s = RngStream(21).split("geo")
    draws = geometric(s, 0.5, size=20_000)
    assert draws.min() >= 1
    assert abs(float(draws.mean()) - 2.0) < 0.05
    assert int(geometric(RngStream(2), 0.99)) >= 1


def test_geometric_rejects_bad_q():
    with pytest.raises(InvalidParams):
        geometric(RngStream(0), 0.0)
    with pytest.raises(InvalidParams):
        geometric(RngStream(0), 1.0)


def test_normal_moments_and_finiteness():
    s = RngStream(31).split("norm")
    draws = np.asarray(s.normal(10.0, 3.0, size=50_000))
    assert np.all(np.isfinite(draws))
    assert abs(float(draws.mean()) - 10.0) < 0.1
    assert abs(float(draws.std()) - 3.0) < 0.1


def _neighbours(x, k=4):
    """x and its k nearest floats on each side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        out += [lo, hi]
    return out


def test_normal_inverse_cdf_bit_identical_to_stdlib():
    # the branch edges |p - 1/2| = 0.425, the clamp ends, and 10^6 uniforms
    # spread over the centre and both tails (down to exp(-36))
    edges = _neighbours(0.075) + _neighbours(0.925) + _neighbours(_EPS) + _neighbours(1 - _EPS)
    rng = RngStream(41).split("inv_cdf")
    deep = np.exp(-36.0 * rng.random(100_000))
    u = np.concatenate([edges, rng.random(800_000), deep, 1.0 - deep])
    u = np.clip(u, _EPS, 1.0 - _EPS)
    assert len(u) >= 1_000_000
    want = np.array([NormalDist().inv_cdf(p) for p in u.tolist()])
    got = _normal_inverse_cdf(u)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_normal_draws_match_stdlib_transform():
    nd = NormalDist(20.66769, math.sqrt(115.135))
    u = np.clip(RngStream(8).random(size=5000), _EPS, 1.0 - _EPS)
    want = [nd.inv_cdf(p) for p in u.tolist()]
    assert RngStream(8).normal(nd.mean, nd.stdev, size=5000).tolist() == want
    assert RngStream(8).normal(nd.mean, nd.stdev) == want[0]


def test_randbelow_bounds():
    s = RngStream(7)
    draws = [randbelow(s, 10) for _ in range(1000)]
    assert min(draws) >= 0 and max(draws) <= 9
    assert len(set(draws)) == 10
    with pytest.raises(InvalidParams):
        randbelow(s, 0)


def test_subset_distinct_and_in_range():
    s = RngStream(13)
    for k in (0, 1, 5, 10):
        picked = subset(s, 10, k)
        assert len(picked) == k
        assert len(set(picked)) == k
        assert all(0 <= i < 10 for i in picked)
    with pytest.raises(InvalidParams):
        subset(s, 3, 4)
