"""Golden outputs: seeded MAE points and releases, pinned bit for bit.

The literals below are float.hex strings of outputs computed before the
grouped mechanisms were split into prepare and draw. Any change to the
random stream, the packing, or the arithmetic order of a release shows up
here as a mismatch in the last bits.
"""

import random

import pytest

from griddp.dataset import Dataset
from griddp.harness import ExperimentConfig, mae_eval
from griddp.mechanisms import MechanismParams, release
from griddp.rng import RngStream

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
