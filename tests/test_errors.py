"""The shared input checks, and the inputs they stop from being misread."""

import math

import numpy as np
import pytest

from griddp.composition import clip_user, grid_error, privacy_loss, pseudo_user_optimize
from griddp.dataset import Dataset, OccupancyArray
from griddp.errors import (
    InvalidCapacity,
    InvalidParams,
    IoError,
    NoBins,
    NonPositiveCount,
    NonPositiveScale,
    ZeroRetained,
    ZeroTotal,
    read_utf8,
    require_counts,
    require_int,
    require_ints,
    require_pair,
    require_positive,
    require_retained,
)
from griddp.grouping import array_count_k
from griddp.harness import ExperimentConfig
from griddp.mechanisms import MechanismParams, private_interval
from griddp.rng import RngStream, laplace_inverse_cdf
from griddp.sensitivity import mean_sensitivity
from griddp.worst_case_bias import mean_bias


def test_require_int():
    assert require_int("n", 3) == 3
    assert type(require_int("n", np.int64(3))) is int
    for bad in (2.0, 2.5, True, "3", None):
        with pytest.raises(InvalidParams, match="n must be an integer"):
            require_int("n", bad)
    with pytest.raises(InvalidParams, match="n must be >= 1"):
        require_int("n", 0, low=1)
    with pytest.raises(InvalidCapacity):
        require_int("n", 0, low=1, error=InvalidCapacity)
    ints = require_ints("n", (1, np.int64(2)))
    assert ints == [1, 2] and all(type(v) is int for v in ints)
    for bad in ([1, 2.5], [1, True], [2.0]):
        with pytest.raises(InvalidParams, match="n must be an integer"):
            require_ints("n", bad)


def test_require_positive():
    assert require_positive("x", 2) == 2.0
    for bad in (0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParams, match="x must be positive and finite"):
            require_positive("x", bad)
    with pytest.raises(NoBins):
        require_positive("x", math.inf, NoBins)


def test_count_list_checks_keep_their_error_types():
    assert require_counts((np.int64(2), 3)) == [2, 3]
    with pytest.raises(ZeroTotal):
        require_counts([])
    with pytest.raises(NonPositiveCount):
        require_counts([2, 0])
    assert require_retained([0, 2]) == [0, 2]
    with pytest.raises(ZeroTotal):
        require_retained([])
    with pytest.raises(InvalidParams):
        require_retained([-1, 2])
    with pytest.raises(ZeroRetained):
        require_retained([0, 0])
    assert require_pair([3, 2], [1, 2]) == ([3, 2], [1, 2])
    with pytest.raises(InvalidParams):
        require_pair([3, 2], [1])
    with pytest.raises(InvalidParams):
        require_pair([3, 2], [4, 2])
    with pytest.raises(ZeroRetained):
        require_pair([3, 2], [0, 0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: mean_sensitivity([1.9, 3], 1.0),
        lambda: array_count_k([3, 4], 2.5),
        lambda: mean_bias([3, 4.7], [1, 2.2], 1.0),
        lambda: MechanismParams(bound_u=1.0, epsilon=1.0, capacity=2.5),
    ],
    ids=["mean_sensitivity", "array_count_k", "mean_bias", "mechanism_capacity"],
)
def test_non_integer_counts_rejected(call):
    with pytest.raises(InvalidParams, match="must be an integer"):
        call()


def _occupancy():
    return OccupancyArray({"g1": {"u1": 2, "u2": 1}, "g2": {"u1": 3, "u3": 1}})


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: MechanismParams(bound_u=x, epsilon=1.0),
        lambda x: MechanismParams(bound_u=1.0, epsilon=x),
        lambda x: Dataset({"g": {"u": [0.5]}}, x),
        lambda x: ExperimentConfig(epsilons=(0.5, x), seed=1),
        lambda x: grid_error([2, 1], [2, 1], x, 1.0),
        lambda x: grid_error([2, 1], [2, 1], 1.0, x),
        lambda x: clip_user(_occupancy(), x, 1.0),
        lambda x: clip_user(_occupancy(), 1.0, x),
        lambda x: privacy_loss(_occupancy(), x),
        lambda x: privacy_loss(_occupancy(), {"g1": 1.0, "g2": x}),
    ],
)
def test_non_finite_eps_and_bound_rejected(call, bad):
    with pytest.raises(InvalidParams):
        call(bad)


def test_non_finite_per_draw_scalars_rejected():
    occ = _occupancy()
    plan = clip_user(occ, 1.0, 1.0).plan
    with pytest.raises(InvalidParams):
        pseudo_user_optimize(occ, plan, 1.0, math.inf)
    with pytest.raises(NoBins):
        private_interval([0.5], 1.0, math.inf, 1.0, RngStream(1))
    with pytest.raises(NonPositiveScale):
        laplace_inverse_cdf(0.3, math.inf)


def test_read_utf8_names_the_byte_a_whole_decode_names(tmp_path):
    # plan and config files are checked by the reader the CSV parse uses
    path = tmp_path / "plan.json"
    for data in (b'{"g1": 1}\xff', b"\xe2\x82", "\u00e9".encode() * 5 + b"\xe2A", b"\xf0\x9f\x98"):
        path.write_bytes(data)
        with pytest.raises(IoError) as got:
            read_utf8(path, "plan ")
        with pytest.raises(UnicodeDecodeError) as want:
            data.decode()
        assert str(got.value) == f"cannot read plan {path}: {want.value}"
    for text in ("", "u=\u00e9\r\nq=0.5"):
        path.write_bytes(text.encode())
        assert read_utf8(path) == text
    with pytest.raises(IoError, match="^cannot read config .*absent"):
        read_utf8(tmp_path / "absent", "config ")
