"""Monte Carlo loops: reproducibility and the scaling checks."""

import random

import pytest

from griddp.dataset import Dataset
from griddp.errors import InvalidParams
from griddp.harness import (
    ExperimentConfig,
    check_scaling_laws,
    mae_eval,
    monte_carlo_error,
    monte_carlo_privacy,
)
from griddp.rng import RngStream
from griddp.sensitivity import mean_sensitivity
from griddp.synth import SynthParams

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


def test_config_validation():
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(), seed=1)
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(0.0,), seed=1)
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(1.0,), seed=1, trials=0)
    with pytest.raises(InvalidParams):
        ExperimentConfig(epsilons=(1.0,), seed=1, mae_draws=0)


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
