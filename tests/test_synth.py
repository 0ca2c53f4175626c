"""Synthetic generator: tier structure, heavy-user inflation, scaling."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statistics import NormalDist

from griddp.dataset import OccupancyArray
from griddp.errors import InvalidParams, TooLarge, require_int
from griddp.rng import _EPS, RngStream
from griddp.synth import (
    SCALE_SAMPLE,
    SCALE_USER,
    SynthParams,
    ValueModel,
    generate_occupancy,
    generate_values,
    grid_token,
    scale_occupancy,
    user_token,
)
from test_dataset import _assert_same_accessors


def _params(**kw):
    base = dict(grids=5, users=31, geometric_q=0.3)
    base.update(kw)
    return SynthParams(**base)


def test_tokens_are_zero_padded():
    assert user_token(3, 4095) == "u0003"
    assert user_token(3, 9) == "u3"
    assert grid_token(12, 12) == "g12"
    assert grid_token(2, 12) == "g02"


def test_occupancy_user_tokens_are_user_token():
    for n in (1, 9, 10, 99, 4095, 65535):
        occ = generate_occupancy(SynthParams(grids=n.bit_length(), users=n), RngStream(1))
        ids = sorted({0, n // 3, n - 1})
        assert [occ._users[i] for i in ids] == [user_token(i + 1, n) for i in ids]
    assert list(generate_occupancy(_params(), RngStream(1))._users) == [
        user_token(l, 31) for l in range(1, 32)
    ]


@pytest.mark.parametrize(
    "params, want",
    [
        (
            SynthParams(16, 65535, heavy_gamma=9),
            "ba8b19291579b766b26aa37d7976ca6a5224877850540e6b222e67058cff2e3d",
        ),
        # 300 grids: the grid indices take 16 bits, not 8
        (
            SynthParams(grids=300, users=500),
            "afb9b05378132ac226314c1cbb01ed834420d288a4d347bbec3dba4646babe8a",
        ),
    ],
)
def test_occupancy_columns_are_pinned(params, want):
    # sha256 of the grid offsets, user ids and counts, pinned so that a
    # change of dtype or sort keeps every entry in place
    occ = generate_occupancy(params, RngStream(5))
    h = hashlib.sha256()
    for column in (np.asarray(occ._bounds, np.int64), occ._ids, occ._counts):
        h.update(column.tobytes())
    assert h.hexdigest() == want


def test_user_l_occupies_grids_minus_tier_grids():
    params = _params()
    occ = generate_occupancy(params, RngStream(3))
    for l in range(1, params.users + 1):
        tier = l.bit_length() - 1
        token = user_token(l, params.users)
        assert len(occ.grids_of(token)) == params.grids - tier, l
    # tier sizes double: 1, 2, 4, 8, 16 users
    assert occ.users() == sorted(user_token(l, 31) for l in range(1, 32))


def test_counts_are_positive_and_grids_covered():
    occ = generate_occupancy(_params(), RngStream(3))
    # user u01 (tier 0) touches every grid, so all 5 exist
    assert len(occ.grids()) == 5
    for g in occ.grids():
        assert all(c >= 1 for c in occ.counts_in(g))


def test_same_seed_reproduces_exactly():
    a = generate_occupancy(_params(), RngStream(17))
    b = generate_occupancy(_params(), RngStream(17))
    assert a.as_dict() == b.as_dict()
    assert generate_occupancy(_params(), RngStream(18)).as_dict() != a.as_dict()


def test_heavy_gamma_inflates_only_each_grids_peak():
    plain = generate_occupancy(_params(), RngStream(17))
    heavy = generate_occupancy(_params(heavy_gamma=3.0), RngStream(17))
    for g in plain.grids():
        row = plain.row(g)
        top = max(sorted(row), key=lambda u: row[u])
        expect = dict(row)
        expect[top] = math.ceil(4.0 * row[top])
        assert heavy.row(g) == expect
        # inflation by a positive factor makes the peak a strict, unique max
        peak_holders = [u for u, c in heavy.row(g).items() if c == heavy.m_star(g)]
        if len(row) > 1:
            assert peak_holders == [top]


def test_values_respect_occupancy_and_bounds():
    params = _params()
    occ = generate_occupancy(params, RngStream(5))
    ds = generate_values(occ, ValueModel(mean=10.0, variance=40.0, bound_u=20.0), RngStream(5))
    assert ds.occupancy().as_dict() == occ.as_dict()
    for g in ds.grids():
        vals = ds.grid_values(g)
        assert all(0.0 <= v <= 20.0 for v in vals)


def test_projection_piles_mass_on_endpoints():
    # mean far below 0 pushes nearly everything to the lower endpoint
    occ = generate_occupancy(_params(), RngStream(5))
    ds = generate_values(occ, ValueModel(mean=-50.0, variance=1.0, bound_u=20.0), RngStream(5))
    vals = [v for g in ds.grids() for v in ds.grid_values(g)]
    assert all(v == 0.0 for v in vals)


def test_scale_occupancy_sample_mode():
    occ = generate_occupancy(_params(), RngStream(7))
    scaled = scale_occupancy(occ, 3, SCALE_SAMPLE)
    assert scaled.grids() == occ.grids()
    for g in occ.grids():
        assert scaled.row(g) == {u: 3 * c for u, c in occ.row(g).items()}


def test_scale_occupancy_user_mode():
    occ = generate_occupancy(_params(), RngStream(7))
    scaled = scale_occupancy(occ, 3, SCALE_USER)
    assert len(scaled.users()) == 3 * len(occ.users())
    for g in occ.grids():
        row = occ.row(g)
        srow = scaled.row(g)
        assert len(srow) == 3 * len(row)
        for u, c in row.items():
            for r in range(3):
                assert srow[f"{u}~{r}"] == c
    # clones inherit the original's grid set, so the max grids per user and
    # every per-grid total scale as expected
    assert scaled.max_grids_per_user() == occ.max_grids_per_user()
    assert all(scaled.total(g) == 3 * occ.total(g) for g in occ.grids())


def test_scale_occupancy_identity_and_validation():
    occ = generate_occupancy(_params(), RngStream(7))
    assert scale_occupancy(occ, 1, SCALE_SAMPLE).as_dict() == occ.as_dict()
    with pytest.raises(InvalidParams):
        scale_occupancy(occ, 0, SCALE_SAMPLE)
    with pytest.raises(InvalidParams):
        scale_occupancy(occ, 2, "grid")


def test_scale_occupancy_caps_user_mode():
    # 2^20 + 1 clones of one user were built, about 3.6 s and 274 MB
    with pytest.raises(TooLarge, match="1048577 users"):
        scale_occupancy(OccupancyArray({"g": {"u": 1}}), 2**20 + 1, SCALE_USER)


def test_params_validation():
    with pytest.raises(InvalidParams):
        SynthParams(grids=0)
    with pytest.raises(InvalidParams):
        SynthParams(grids=3, users=8)  # 2^3 - 1 = 7 is the ceiling
    SynthParams(grids=3, users=7)
    with pytest.raises(InvalidParams):
        SynthParams(geometric_q=0.0)
    with pytest.raises(InvalidParams):
        SynthParams(geometric_q=1.0)
    with pytest.raises(InvalidParams):
        SynthParams(heavy_gamma=-0.5)
    with pytest.raises(InvalidParams):
        ValueModel(variance=0.0)
    # an infinite mean once clamped every sample to U without an error
    for mean in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParams, match="mean must be finite"):
            ValueModel(mean=mean)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grids": 3.0},
        {"grids": True},
        {"grids": "3"},
        {"grids": 3, "users": 5.5},
        {"grids": 3, "users": False},
        {"grids": 3, "users": None},
    ],
)
def test_params_reject_non_integer_sizes(kwargs):
    # 3.0 and 5.5 once raised TypeError from the tier loop, and True ran as
    # a single grid
    with pytest.raises(InvalidParams, match="must be an integer"):
        SynthParams(**kwargs)


def test_params_accept_numpy_integers():
    # 2 ** np.int64(64) wraps to 0 in fixed width; the ceiling must not
    params = SynthParams(grids=np.int64(64), users=np.int64(5))
    assert generate_occupancy(params, RngStream(1)) == generate_occupancy(
        SynthParams(grids=64, users=5), RngStream(1)
    )


def test_defaults_match_documented_model():
    params = SynthParams()
    assert (params.grids, params.users) == (12, 4095)
    assert params.bound_u == 65.0
    model = ValueModel()
    assert (model.mean, model.variance, model.bound_u) == (20.66769, 115.135, 65.0)


# The per-user draws of the reference loop below, as RngStream methods
# made them before synthesis drew each tier from one uniform block.


def randbelow(stream, n):
    """Uniform integer in [0, n), built on random() for stream stability."""
    require_int("randbelow bound", n, low=1)
    return min(int(stream.random() * n), n - 1)


def subset(stream, population, k):
    """k distinct indices from range(population) by a partial Fisher-Yates
    shuffle, in shuffle order."""
    if not 0 <= k <= population:
        raise InvalidParams(f"cannot choose {k} from {population}")
    pool = list(range(population))
    for i in range(k):
        j = i + randbelow(stream, population - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def geometric(stream, q, size=None):
    """Geometric draws on {1, 2, ...} with success probability q."""
    if not 0 < q < 1:
        raise InvalidParams(f"geometric q must be in (0, 1), got {q}")
    u = stream.random(size)
    # floor(log(1-u)/log(1-q)) + 1; u=0 maps to 1 exactly.
    out = np.floor(np.log1p(-np.asarray(u)) / math.log1p(-q)) + 1
    if size is None:
        return int(out)
    return out.astype(np.int64)


def _generate_occupancy_oracle(params, rng):
    """Reference synthesis: one subset() and one geometric() call at a time.

    This is the per-user loop generate_occupancy ran before it drew a whole
    tier from one uniform block; the block version must equal it.
    """
    s = rng.split("occupancy")
    counts = {}
    for l in range(1, params.users + 1):
        tier = l.bit_length() - 1
        token = user_token(l, params.users)
        for g_idx in sorted(subset(s, params.grids, params.grids - tier)):
            g = grid_token(g_idx + 1, params.grids)
            counts.setdefault(g, {})[token] = geometric(s, params.geometric_q)
    if params.heavy_gamma > 0:
        for g in counts:
            row = counts[g]
            top = max(sorted(row), key=lambda u: row[u])
            row[top] = math.ceil((1 + params.heavy_gamma) * row[top])
    return OccupancyArray(counts)


@st.composite
def _synth_params(draw):
    grids = draw(st.integers(1, 8))
    return SynthParams(
        grids=grids,
        users=draw(st.integers(1, 2**grids - 1)),
        geometric_q=draw(st.sampled_from([0.01, 0.2, 0.5, 0.9])),
        heavy_gamma=draw(st.sampled_from([0.0, 3.0, 9.0])),
    )


@settings(max_examples=300, deadline=None)
@given(_synth_params(), st.integers(0, 2**63))
def test_generate_occupancy_matches_per_user_reference(params, seed):
    # synthesis builds the columns and a token table made on demand; the
    # reference builds a dict
    rng = RngStream(seed)
    _assert_same_accessors(generate_occupancy(params, rng), _generate_occupancy_oracle(params, rng))


def test_generate_occupancy_full_tiers_match_reference():
    # every tier full, at the largest grid count the property test draws
    for heavy_gamma in (0.0, 3.0, 9.0):
        params = SynthParams(grids=8, users=255, geometric_q=0.05, heavy_gamma=heavy_gamma)
        rng = RngStream(8).split("full")
        assert generate_occupancy(params, rng) == _generate_occupancy_oracle(params, rng)


def test_counts_past_int64_are_too_large():
    # a geometric draw or an inflated peak that int64 cannot hold
    with pytest.raises(TooLarge, match="above 2\\^63 - 1"):
        generate_occupancy(SynthParams(grids=2, users=3, geometric_q=1e-300), RngStream(1))
    with pytest.raises(TooLarge, match="above 2\\^63 - 1"):
        generate_occupancy(SynthParams(grids=2, users=3, heavy_gamma=1e300), RngStream(1))


def test_generate_occupancy_peak_memory_is_bounded_by_its_columns():
    # the traced peak over the bytes of the two int64 columns, at 14 grids x
    # 16383 users: 3.35 when the draws listed every entry's user id and
    # copied the float counts twice, 1.42 since; the bound is that with a
    # 25 % margin. An untraced call first makes the one-time allocations.
    params = SynthParams(grids=14, users=16383, heavy_gamma=9)
    generate_occupancy(params, RngStream(2))
    tracemalloc.start()
    try:
        occ = generate_occupancy(params, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * (occ._ids.nbytes + occ._counts.nbytes)


def _generate_values_oracle(occupancy, model, rng):
    """Reference value synthesis: one NormalDist.inv_cdf call per sample.

    This is the per-user loop generate_values ran before it drew each grid's
    values in one call; the per-grid version must equal it.
    """
    s = rng.split("values")
    nd = NormalDist(model.mean, math.sqrt(model.variance))
    out = {}
    for g in occupancy.grids():
        for u in occupancy.users_in(g):
            draws = np.clip(s.random(occupancy.count(g, u)), _EPS, 1 - _EPS)
            out.setdefault(g, {})[u] = tuple(
                min(max(nd.inv_cdf(float(p)), 0.0), model.bound_u) for p in draws
            )
    return out


@settings(max_examples=60, deadline=None)
@given(
    _synth_params(),
    st.integers(0, 2**63),
    st.sampled_from([(20.66769, 115.135, 65.0), (0.0, 1.0, 0.5), (-3.0, 0.01, 1.0), (1e3, 1e6, 5.0)]),
)
def test_generate_values_matches_per_sample_reference(params, seed, moments):
    mean, variance, bound_u = moments
    model = ValueModel(mean=mean, variance=variance, bound_u=bound_u)
    occ = generate_occupancy(params, RngStream(seed))
    ds = generate_values(occ, model, RngStream(seed))
    got = {g: {u: ds.values(g, u) for u in ds.users_in(g)} for g in ds.grids()}
    assert got == _generate_values_oracle(occ, model, RngStream(seed))
