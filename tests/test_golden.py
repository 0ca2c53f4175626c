"""Golden outputs: seeded MAE points, releases and curves, pinned bit for bit.

The MAE and release literals below are float.hex strings of outputs
computed before the grouped mechanisms were split into prepare and draw;
the occupancy digests and the suppression-curve, clip_user and
pseudo_user_optimize literals were computed before synthesis, the
suppression loop and the cap scan moved onto numpy arrays. Any change to
the random stream, the packing, or the arithmetic order of a release or a
budget shows up here as a mismatch in the last bits.
"""

import hashlib
import json
import random

import pytest

from griddp.composition import clip_user, pseudo_user_optimize
from griddp.dataset import Dataset
from griddp.harness import (
    ExperimentConfig,
    mae_eval,
    monte_carlo_error,
    monte_carlo_privacy,
)
from griddp.mechanisms import MechanismParams, release
from griddp.rng import RngStream
from griddp.synth import SynthParams, generate_occupancy

BOUND_U = 10.0


def _dataset() -> Dataset:
    rnd = random.Random(20240511)
    samples = {}
    for grid, users in (("a", 9), ("b", 26)):
        samples[grid] = {
            f"u{j:02d}": [BOUND_U * rnd.betavariate(2, 5) for _ in range(rnd.randint(1, 12))]
            for j in range(users)
        }
    return Dataset(samples, BOUND_U)


def _hex(x):
    return None if x is None else float.hex(x)


def _fields(out):
    return (
        out.mechanism,
        out.grid,
        _hex(out.noisy_mean),
        _hex(out.noise_scale_mean),
        _hex(out.noisy_variance),
        _hex(out.noise_scale_var),
        None if out.interval is None else tuple(map(_hex, out.interval)),
        out.degenerate_ranks,
        out.arrays,
    )


# name -> (mechanism, mae_eval keyword arguments)
MAE_CASES = {
    "baseline": ("baseline", {}),
    "clip": ("clip", {}),
    "array_average_best": ("array_average", {}),
    "array_average_wrap": ("array_average", {"strategy": "wrap"}),
    "levy": ("levy", {}),
    "levy_capacity_4": ("levy", {"capacity": 4}),
    "quantile_fixed": ("quantile", {}),
    "quantile_optimized": ("quantile", {"quantile_mode": "optimized"}),
}

MAE_GOLDEN = {
    "array_average_best": ["0x1.1f5904663d83dp+0", "0x1.0e43563fd58d9p-2"],
    "array_average_wrap": ["0x1.2daf395e6b7d2p+1", "0x1.196705272b395p-1"],
    "baseline": ["0x1.8c6318c6318c6p+0", "0x1.8c6318c6318c6p-2"],
    "clip": ["0x1.eae33947faebap+1", "0x1.ca51e809a17dap-1"],
    "levy": ["0x1.f82dcff10c15bp+0", "0x1.161f05a803fcap-1"],
    "levy_capacity_4": ["0x1.8a6a356f22f5ap+0", "0x1.b2ae271edb8d0p-2"],
    "quantile_fixed": ["0x1.8cd5ddfe9c1eap+0", "0x1.3f4c372ee6a3ep-1"],
    "quantile_optimized": ["0x1.7fe7101999db3p+0", "0x1.52be2bd8ff39ap-1"],
}


def _mae(name):
    mechanism, kwargs = MAE_CASES[name]
    config = ExperimentConfig(
        epsilons=(0.5, 2.0), seed=7, trials=1, mechanism=mechanism, mae_draws=30
    )
    return [float.hex(p.value) for p in mae_eval(_dataset(), "b", config, **kwargs)]


@pytest.mark.parametrize("name", sorted(MAE_CASES))
def test_mae_eval_golden(name):
    assert _mae(name) == MAE_GOLDEN[name]


# name -> (mechanism, MechanismParams keyword arguments)
RELEASE_CASES = {
    "baseline": ("baseline", {}),
    "clip": ("clip", {}),
    "array_average_best": ("array_average", {}),
    "array_average_wrap": ("array_average", {"strategy": "wrap", "capacity": 3}),
    "levy": ("levy", {"gamma": 0.1}),
    "quantile_fixed": ("quantile", {}),
    "quantile_optimized": ("quantile", {"quantile_mode": "optimized", "epsilon": 0.2}),
}

RELEASE_GOLDEN = {
    "array_average_best": (
        "array_average_best",
        "b",
        "0x1.2279eae9254b2p+0",
        "0x1.d1745d1745d17p-2",
        None,
        None,
        None,
        False,
        22,
    ),
    "array_average_wrap": (
        "array_average_wrap",
        "b",
        "-0x1.266a311e1f420p-2",
        "0x1.aaaaaaaaaaaabp-1",
        None,
        None,
        None,
        False,
        24,
    ),
    "baseline": (
        "baseline",
        "b",
        "-0x1.4de9265efb53cp+1",
        "0x1.8c6318c6318c6p+0",
        "-0x1.6a69563c651cep+5",
        "0x1.c91fb347a89fdp+3",
        None,
        False,
        None,
    ),
    "clip": (
        "clip",
        "b",
        "-0x1.4de9265efb53cp+1",
        "0x1.8c6318c6318c6p+0",
        "-0x1.6a69563c651cep+5",
        "0x1.c91fb347a89fdp+3",
        None,
        False,
        None,
    ),
    "levy": (
        "levy",
        "b",
        "-0x1.0f769134f13bep+0",
        "0x1.1c71c71c71c72p+0",
        None,
        None,
        ("0x0.0p+0", "0x1.4000000000000p+3"),
        False,
        18,
    ),
    "quantile_fixed": (
        "quantile_fixed",
        "b",
        "0x1.bcf77e3d7ab66p+1",
        "0x1.989b9601488bbp-1",
        None,
        None,
        ("0x1.bcc7286a79fcep-6", "0x1.cd6bcfe9dc172p+2"),
        False,
        18,
    ),
    "quantile_optimized": (
        "quantile_optimized",
        "b",
        "0x1.ae38af5224754p+2",
        "0x1.fec27b819aae9p+1",
        None,
        None,
        ("0x1.bcc7286a79fcep-6", "0x1.cd6bcfe9dc172p+2"),
        True,
        18,
    ),
}


def _release(name):
    mechanism, kwargs = RELEASE_CASES[name]
    params = MechanismParams(**{"bound_u": BOUND_U, "epsilon": 1.0, **kwargs})
    return _fields(release(_dataset(), "b", mechanism, params, RngStream(99).split("grid:b")))


@pytest.mark.parametrize("name", sorted(RELEASE_CASES))
def test_release_golden(name):
    assert _release(name) == RELEASE_GOLDEN[name]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# name -> SynthParams keyword arguments, each drawn from RngStream(31)
OCCUPANCY_CASES = {
    "one_grid": {"grids": 1, "users": 1, "geometric_q": 0.3},
    "partial_top_tier": {"grids": 6, "users": 40, "geometric_q": 0.2},
    "heavy_0": {"grids": 7, "users": 127, "geometric_q": 0.05},
    "heavy_3": {"grids": 7, "users": 127, "geometric_q": 0.05, "heavy_gamma": 3.0},
    "heavy_9": {"grids": 7, "users": 127, "geometric_q": 0.05, "heavy_gamma": 9.0},
}

OCCUPANCY_GOLDEN = {
    "one_grid": "2d2a6961fa705a9d2599bf97d9f883302624bdc06d32741ba2db189c1ea01693",
    "partial_top_tier": "41bf614bb1e034c95cafb95032f256f499cea44525755969b3fa4f8305847b29",
    "heavy_0": "4986ac609ad42fe502b47f50513db8c48b8506ac253055fff44a4da8c47c303e",
    "heavy_3": "825b27f5931a46a4145d62266931b3678bbb1102f51752fb54dab40cf8bdfe19",
    "heavy_9": "b26bbc7060c0db5af2739ce37c034695aca256b73f18bfcc0d2291dcce3bb2c8",
}


@pytest.mark.parametrize("name", sorted(OCCUPANCY_CASES))
def test_generate_occupancy_golden(name):
    occ = generate_occupancy(SynthParams(**OCCUPANCY_CASES[name]), RngStream(31))
    assert _digest(occ.as_dict()) == OCCUPANCY_GOLDEN[name]


CURVE_GOLDEN = {
    "error": [
        ("initial", 0.5, "0x1.1184c570dbec0p+12"),
        ("optimized", 0.5, "0x1.1b39b160746f1p+11"),
        ("initial", 2.0, "0x1.1184c570dbec0p+10"),
        ("optimized", 2.0, "0x1.1184c570dbec0p+10"),
    ],
    "privacy": [
        ("suppressed", 0.5, "0x1.4000000000000p+1"),
        ("naive", 0.5, "0x1.8000000000000p+1"),
        ("suppressed", 2.0, "0x1.6aaaaaaaaaaabp+3"),
        ("naive", 2.0, "0x1.8000000000000p+3"),
    ],
}


@pytest.mark.parametrize("curve", sorted(CURVE_GOLDEN))
def test_monte_carlo_curve_golden(curve):
    params = SynthParams(grids=6, users=63, heavy_gamma=3.0)
    config = ExperimentConfig(epsilons=(0.5, 2.0), seed=13, trials=3)
    run = monte_carlo_error if curve == "error" else monte_carlo_privacy
    points = [(p.label, p.epsilon, float.hex(p.value)) for p in run(params, config)]
    assert points == CURVE_GOLDEN[curve]


def _suppression_occupancy():
    return generate_occupancy(SynthParams(grids=7, users=100, heavy_gamma=3.0), RngStream(4))


CAP = "0x1.087dfe43ca47cp+11"

# protect_min_error_grid -> pinned fields of clip_user(occ, 65.0, 1.0, protect)
CLIP_USER_GOLDEN = {
    False: {
        "error_cap": CAP,
        "stage_max_errors": [CAP] * 5,
        "trace": [
            (1, "u001", "g6", "0x1.f98da3f0ba288p+10"),
            (2, "u001", "g1", "0x1.fc00f19779a3bp+10"),
            (2, "u002", "g1", "0x1.0280bdfa0a7f6p+11"),
            (2, "u003", "g6", "0x1.fdd1e04aa58b7p+10"),
            (3, "u001", "g5", "0x1.04558be177fa0p+11"),
            (3, "u002", "g5", "0x1.07b6992bc93d6p+11"),
            (3, "u003", "g1", "0x1.0556715393bacp+11"),
            (3, "u004", "g2", "0x1.0443be4283123p+11"),
            (3, "u005", "g1", "0x1.aa1da7df3273ep+10"),
            (3, "u006", "g2", "0x1.072ff5d243826p+11"),
            (3, "u007", "g1", "0x1.be4d432ca1edep+10"),
            (4, "u001", "g3", "0x1.07ad66f2a1e5ep+11"),
            (4, "u002", "g6", "0x1.081649d2b29f7p+11"),
            (4, "u003", "g5", "0x1.07e3df78b41fep+11"),
            (4, "u004", "g1", "0x1.cacc94fff57b2p+10"),
        ],
        "k_factor": 4,
        "plan": "301e6f4c049767521d017ba4750895bed27f88ad579ee168152e80eda4042bc0",
    },
    True: {
        "error_cap": CAP,
        "stage_max_errors": [CAP] * 5,
        "trace": [
            (1, "u001", "g1", "0x1.fc00f19779a3bp+10"),
            (2, "u001", "g5", "0x1.04558be177fa0p+11"),
            (2, "u002", "g1", "0x1.0280bdfa0a7f6p+11"),
            (2, "u003", "g5", "0x1.04834dce9cbcdp+11"),
            (3, "u001", "g3", "0x1.07ad66f2a1e5ep+11"),
            (3, "u002", "g5", "0x1.07e3df78b41fep+11"),
            (3, "u003", "g1", "0x1.0556715393bacp+11"),
            (3, "u004", "g2", "0x1.0443be4283123p+11"),
            (3, "u005", "g1", "0x1.aa1da7df3273ep+10"),
            (3, "u006", "g2", "0x1.072ff5d243826p+11"),
            (3, "u007", "g1", "0x1.be4d432ca1edep+10"),
        ],
        "k_factor": 4,
        "plan": "343aa47322062725fdc287ec04bea4cb5c91805b2f9405a61c6f7aae56cbf4d1",
    },
}


@pytest.mark.parametrize("protect", [False, True])
def test_clip_user_golden(protect):
    res = clip_user(_suppression_occupancy(), 65.0, 1.0, protect)
    fields = {
        "error_cap": float.hex(res.error_cap),
        "stage_max_errors": [float.hex(x) for x in res.stage_max_errors],
        "trace": [(s.stage, s.user, s.grid, float.hex(s.error)) for s in res.trace],
        "k_factor": res.k_factor,
        "plan": _digest(res.plan.retained),
    }
    assert fields == CLIP_USER_GOLDEN[protect]


def test_pseudo_user_optimize_golden():
    occ = _suppression_occupancy()
    opt = pseudo_user_optimize(occ, clip_user(occ, 65.0, 1.0).plan, 65.0, 1.0)
    assert opt.per_grid_m == {"g1": 1, "g2": 3, "g3": 1, "g4": 2, "g5": 2, "g6": 2, "g7": 1}
    assert {g: float.hex(b.total) for g, b in opt.per_grid_error.items()} == {
        "g1": "0x1.755f09eedffd3p+10",
        "g2": "0x1.5f771269175ebp+10",
        "g3": "0x1.5565517bc1ab6p+10",
        "g4": "0x1.572c66ee11999p+10",
        "g5": "0x1.5f7f451cd2ccep+10",
        "g6": "0x1.5f99b59410f13p+10",
        "g7": "0x1.5fa3ec63eef3bp+10",
    }
    assert float.hex(opt.new_error) == "0x1.755f09eedffd3p+10"
