"""Monte Carlo loops: reproducibility and the scaling checks."""

import random
import tracemalloc

import pytest

from griddp import harness, rng
from griddp.composition import clip_user
from griddp.dataset import Dataset
from griddp.errors import InvalidParams, TooLarge
from griddp.harness import (
    ExperimentConfig,
    check_scaling_laws,
    mae_eval,
    monte_carlo_error,
    monte_carlo_privacy,
)
from griddp.rng import RngStream
from griddp.sensitivity import mean_sensitivity
from griddp.synth import SynthParams, generate_occupancy

SMALL = SynthParams(grids=4, users=15, bound_u=1.0, geometric_q=0.3)


def _config(**kw):
    base = dict(epsilons=(0.5, 1.0), seed=11, trials=3)
    base.update(kw)
    return ExperimentConfig(**base)


def _by_label(points):
    out = {}
    for p in points:
        out.setdefault(p.label, {})[p.epsilon] = p.value
    return out


def test_privacy_suppressed_never_above_naive():
    pts = _by_label(monte_carlo_privacy(SMALL, _config()))
    assert set(pts) == {"suppressed", "naive"}
    for eps in (0.5, 1.0):
        assert pts["suppressed"][eps] <= pts["naive"][eps] + 1e-12


def test_error_optimized_never_above_initial():
    pts = _by_label(monte_carlo_error(SMALL, _config()))
    assert set(pts) == {"initial", "optimized"}
    for eps in (0.5, 1.0):
        assert pts["optimized"][eps] <= pts["initial"][eps] + 1e-12


def _equal_count_dataset(n_users=10, count=3, bound_u=1.0):
    rnd = random.Random(2)
    samples = {
        "g": {
            f"u{j:02d}": [rnd.uniform(0, bound_u) for _ in range(count)]
            for j in range(1, n_users + 1)
        }
    }
    return Dataset(samples, bound_u)


def test_mae_baseline_is_analytic():
    ds = _equal_count_dataset()
    counts = ds.occupancy().counts_in("g")
    pts = mae_eval(ds, "g", _config(mechanism="baseline"))
    for p in pts:
        assert p.label == "baseline"
        assert p.value == mean_sensitivity(counts, 1.0).value / p.epsilon


def test_mae_simulated_tracks_noise_scale():
    # equal counts with capacity equal to the count: each user is one full
    # array, the average of array means is the exact grid mean, so the MAE
    # is the mean |Laplace| at scale U/(K * eps) = 0.1
    ds = _equal_count_dataset(n_users=10, count=3)
    cfg = _config(
        epsilons=(1.0,), mechanism="array_average", mae_draws=4000, seed=23
    )
    (pt,) = mae_eval(ds, "g", cfg, capacity=3)
    assert pt.value == pytest.approx(0.1, rel=0.05)


def test_mae_is_reproducible():
    ds = _equal_count_dataset()
    cfg = _config(epsilons=(1.0,), mechanism="levy", mae_draws=50, seed=5)
    assert mae_eval(ds, "g", cfg) == mae_eval(ds, "g", cfg)


def test_scaling_sample_laws_hold():
    rnd = random.Random(9)
    for _ in range(25):
        counts = [rnd.randint(1, 20) for _ in range(rnd.randint(1, 8))]
        for check in check_scaling_laws(counts, [2, 3, 10]):
            if check.mode == "sample":
                assert check.passed, (counts, check)
            if check.law in ("mub_median", "mub_optimized") and check.mode == "user":
                assert check.passed, (counts, check)
            if check.law.endswith("_bounds"):
                assert check.passed, (counts, check)


def test_scaling_user_count_law_counterexample():
    # duplicating [1, 4, 9] three times at capacity 9 packs floor(42/9) = 4
    # full arrays, not 3 * floor(14/9) = 3
    checks = check_scaling_laws([1, 4, 9], [3])
    failed = {
        (c.law, c.mode) for c in checks if not c.passed and not c.law.endswith("_bounds")
    }
    assert ("k_wrap_optimized", "user") in failed


def test_scaling_rejects_bad_lambda():
    with pytest.raises(InvalidParams):
        check_scaling_laws([1, 2], [0])


def test_scaling_rejects_a_lambda_past_the_user_limit(monkeypatch):
    # user mode lists lambda * len(counts) users and packs them in Python;
    # 10^8 copies of three counts would ask for tens of GB
    with pytest.raises(TooLarge, match="300000000 users"):
        check_scaling_laws([1, 4, 9], [2, 10**8])
    monkeypatch.setattr(harness, "_MAX_DUPLICATED", 30)
    assert check_scaling_laws([1, 4, 9], [10]) == check_scaling_laws([1, 4, 9], [10])
    with pytest.raises(TooLarge):
        check_scaling_laws([1, 4, 9], [2, 11])


def test_config_validation():
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(), seed=1)
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(0.0,), seed=1)
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(1.0,), seed=1, trials=0)
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(1.0,), seed=1, mae_draws=0)
    with pytest.raises(InvalidParams, match="seed must be >= 0"):
        ExperimentConfig(epsilons=(1.0,), seed=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": 2.0},
        {"trials": True},
        {"trials": "3"},
        {"mae_draws": 3.5},
        {"mae_draws": False},
        {"mae_draws": None},
    ],
)
def test_config_rejects_non_integer_counts(kwargs):
    with pytest.raises(InvalidParams, match="must be an integer"):
        ExperimentConfig(epsilons=(1.0,), seed=1, **kwargs)


def test_mae_eval_draws_every_release_from_one_block(monkeypatch):
    blocks = []
    split_uniforms = RngStream.split_uniforms

    def one_block(self, labels, m):
        blocks.append(m)
        return split_uniforms(self, labels, m)

    def no_split(self, label):
        raise AssertionError(f"per-draw split {label!r}")

    monkeypatch.setattr(RngStream, "split_uniforms", one_block)
    monkeypatch.setattr(RngStream, "split", no_split)
    for mechanism, uniforms in (("clip", 2), ("levy", 2), ("quantile", 5)):
        blocks.clear()
        mae_eval(_equal_count_dataset(), "g", _config(mechanism=mechanism, mae_draws=7))
        assert blocks == [uniforms]


def test_mae_points_do_not_depend_on_the_block_size(monkeypatch):
    # 3 epsilons x 10 draws in blocks of 7 rows: blocks cross epsilon
    # boundaries and each MAE is carried over three or four blocks
    ds = _equal_count_dataset(n_users=12, count=4)
    for mechanism in ("clip", "array_average", "levy", "quantile"):
        cfg = _config(epsilons=(0.3, 1.0, 2.5), mechanism=mechanism, mae_draws=10)
        want = [p.value.hex() for p in mae_eval(ds, "g", cfg)]
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_CHILDREN", 7)
            patch.setattr(rng, "_CHILDREN", 3)
            assert [p.value.hex() for p in mae_eval(ds, "g", cfg)] == want


def _mae_peak_mib(epsilon_count):
    # 10 epsilons already fill more than one block of labels
    cfg = _config(
        epsilons=tuple(0.1 * (i + 1) for i in range(epsilon_count)),
        mechanism="quantile",
        mae_draws=rng._CHILDREN // 8,
    )
    ds = _equal_count_dataset()
    tracemalloc.start()
    try:
        mae_eval(ds, "g", cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_mae_memory_does_not_grow_with_the_epsilons():
    # one block for every draw once took 2048 x 5 floats per epsilon, twice
    # over while split_uniforms joined its passes: about 25 MiB at 160.
    # An untraced call first makes the one-time allocations of a first call.
    mae_eval(_equal_count_dataset(), "g", _config(mechanism="quantile", mae_draws=10))
    assert abs(_mae_peak_mib(160) - _mae_peak_mib(10)) < 2


def _privacy_peak_mib(
    trials: int, params=SynthParams(grids=10, users=1023, heavy_gamma=3), epsilon=1.0
) -> float:
    tracemalloc.start()
    try:
        monte_carlo_privacy(params, _config(epsilons=(epsilon,), seed=3, trials=trials))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_curve_memory_does_not_grow_with_the_trials():
    # the curves once generated every trial's occupancy before the epsilon
    # loop: 0.24 MiB at 2 trials and 0.45 MiB at 8 on this shape
    _privacy_peak_mib(1)
    assert _privacy_peak_mib(8) < 1.2 * _privacy_peak_mib(2)


# A suppression trial's shape: its occupancy has 2^15 entries, whose two
# int64 columns take 0.5 MiB.
TRIAL = SynthParams(grids=14, users=16383, heavy_gamma=9)


def test_clip_user_peak_memory_is_bounded_by_the_columns():
    # the traced peak of one clip_user over the occupancy's column bytes:
    # 2.38 when the counts and each sorted grid were copied into Python
    # ints and every entry was a (grid, entry, count) tuple, 1.53 since;
    # the bound is that with a 25 % margin. An untraced call first makes
    # the one-time allocations.
    occ = generate_occupancy(TRIAL, RngStream(3))
    clip_user(occ, 65.0, 1.0, True)
    tracemalloc.start()
    try:
        clip_user(occ, 65.0, 1.0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * (occ._ids.nbytes + occ._counts.nbytes)


def test_a_trial_occupancy_is_released_before_the_next_is_made():
    # at epsilon 100 every trial halts within a few suppressions, so each
    # trial's clip_user holds about the same memory, and a second trial adds
    # only what the first one keeps: 1.14 MiB at one trial and at two; 1.22
    # MiB at two while trial 0's occupancy lived on through trial 1's
    # synthesis (1.68 and 2.18 MiB before that synthesis was cut down)
    _privacy_peak_mib(1, TRIAL, 100.0)
    assert _privacy_peak_mib(2, TRIAL, 100.0) < 1.03 * _privacy_peak_mib(1, TRIAL, 100.0)
