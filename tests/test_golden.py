"""Golden outputs: seeded MAE points, releases and curves, pinned bit for bit.

The MAE and release literals below are float.hex strings of outputs
computed before the grouped mechanisms were split into prepare and draw;
the occupancy digests and the suppression-curve, clip_user and
pseudo_user_optimize literals were computed before synthesis, the
suppression loop and the cap scan moved onto numpy arrays. The value
synthesis and CSV parse digests were computed before both became bulk
array operations, and the suppression digests at benchmark scale before
the occupancy was stored as integer columns. The CLI
digests are sha256 sums of each subcommand's stdout, computed before the
thread pool, the scripts and the per-module validators were removed. Any
change to the random stream, the packing, or the arithmetic order of a
release or a budget shows up here as a mismatch in the last bits.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from griddp.cli import cli_main
from griddp.composition import clip_user, pseudo_user_optimize
from griddp.dataset import Dataset, parse_dataset, parse_occupancy
from griddp.harness import (
    ExperimentConfig,
    mae_eval,
    monte_carlo_error,
    monte_carlo_privacy,
)
from griddp.mechanisms import MechanismParams, _row, bind, prepare, release
from griddp.rng import RngStream
from griddp.synth import SynthParams, ValueModel, generate_occupancy, generate_values

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


@pytest.mark.parametrize("name", sorted(MAE_CASES))
def test_draw_batch_rows_equal_draws_on_the_same_split(name):
    # the rows of one block, as mae_eval draws them, against one draw per split
    mechanism, kwargs = MAE_CASES[name]
    ds, root = _dataset(), RngStream(7)
    labels = [f"mae:{ei}:{i}" for ei in range(2) for i in range(30)]
    for eps in (0.5, 2.0):
        params = MechanismParams(BOUND_U, eps, **kwargs)
        bound = bind(prepare(ds, "b", mechanism, params), params)
        batch = bound.draw_batch(root.split_uniforms(labels, bound.uniforms))
        for i, label in enumerate(labels):
            assert _fields(_row(batch, i)) == _fields(bound.draw(root.split(label)))


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


def _dataset_digest(ds) -> str:
    return _digest(
        {g: {u: [float.hex(v) for v in ds.values(g, u)] for u in ds.users_in(g)} for g in ds.grids()}
    )


def test_generate_values_golden():
    occ = generate_occupancy(SynthParams(grids=8, users=255, heavy_gamma=3.0), RngStream(31))
    ds = generate_values(occ, ValueModel(), RngStream(31))
    assert sum(map(len, map(ds.grid_values, ds.grids()))) == 63934
    assert _dataset_digest(ds) == "7fb5ef251fba66580265af1e3fd48898f73892368477336c563544cb2b22f8f6"


# Quoted fields (with a comma and a newline inside), CRLF and LF endings,
# blank and whitespace-only lines, padded fields, a header in another case,
# repeated (user, grid) pairs in the data and no final newline.
PARSE_DATA_CSV = (
    "User, Grid ,VALUE\r\n"
    "u1,g1,1.5\r\n"
    "\r\n"
    '"u,2",g1,2.25\n'
    "u1,g1, 0.5 \n"
    "   \n"
    '" u3 ","g\n2",3\n'
    "\n"
    "u1,g2,4e0\r\n"
    '"u1",g1,"1.0"\n'
    "u2 ,g2,0\n"
    'u1,"g1",7.25'
)
PARSE_OCCUPANCY_CSV = (
    "user,grid,count\r\n"
    "u1,g1,2\r\n"
    "\r\n"
    '"u,2",g1, 3 \n'
    "  \n"
    '" u3 ","g\n2",1\n'
    "u1,g2,+4\r\n"
    '"u2",g2,"5"'
)


def test_parse_golden():
    ds = parse_dataset(PARSE_DATA_CSV, 8.0)
    assert _dataset_digest(ds) == "cab243a83c52efac75a7256123721f0c10052d15877ddb9777fddf1d1ecff531"
    occ = parse_occupancy(PARSE_OCCUPANCY_CSV)
    assert _digest(occ.as_dict()) == "e13ba9b858d5560909c27b7a3e527b86f5d9d6eca8ddd6cd8c68f9b51d998d43"


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


# The suppress-ladder benchmark's shape: 16 grids x 65535 users, heavy_gamma 9.
SCALE_OCCUPANCY = "47757ae27d9ef9264fc1dfea13a53a798f82b8232aa55121d7946bf836b10843"
SCALE_CAP = "0x1.50f67c7ff40dcp+8"
SCALE_SUPPRESSION = {
    "error_cap": SCALE_CAP,
    "stage_max_errors": [SCALE_CAP] * 10
    + ["0x1.ccc1aba78acccp+7", "0x1.eff9ec227a744p+7", "0x1.324f5739633a9p+8", "0x1.50f368d83c95dp+8"],
    "k_factor": 4,
    "suppressions": 9116,
    "trace": "64d1958ba30aeb641ac91abadd624f0f070dda18a2f51a08122f806bafa9bdc2",
    "plan": "5b889babc90ee53e43ae6ced556ac69079886078d7dcb980ab80423e790d0f3c",
    "initial_errors": "164e05611cf042731c2b351440693d12d32467341360b4f2e430151d54e4d4b4",
    "per_grid_errors": "99ce7c5c072fba8888444c4a78c2ab9cdc3336cbc06174de9167d81143bfbbaa",
    "caps": [699, 833, 723, 773, 724, 880, 773, 725, 777, 744, 769, 791, 796, 656, 757, 724],
    "capped_errors": [
        "0x1.b3c2ce00f9c79p+7", "0x1.86185f48ac025p+7", "0x1.4e50a9125bb30p+8", "0x1.887e33bcfe9a3p+7",
        "0x1.8c6adc397462bp+7", "0x1.4ad86459f356ap+8", "0x1.8831aaceb6e92p+7", "0x1.b08381f380b3ap+7",
        "0x1.8f9c59f1b019ap+7", "0x1.9d103d77c1ca0p+7", "0x1.7478d4dba1e33p+7", "0x1.7ab1b7cf48da6p+7",
        "0x1.762192d1aded2p+7", "0x1.6b7558b1d5926p+5", "0x1.52815aa609b0bp+7", "0x1.9756cac301cf7p+7",
    ],
    "new_error": "0x1.4e50a9125bb30p+8",
}


def _budgets_digest(budgets) -> str:
    return _digest(
        {
            g: [float.hex(x) for x in (b.bias_mean, b.bias_var, b.noise_mean, b.noise_var, b.total)]
            for g, b in budgets.items()
        }
    )


def test_suppression_at_benchmark_scale_golden():
    occ = generate_occupancy(SynthParams(grids=16, users=2**16 - 1, heavy_gamma=9.0), RngStream(61))
    assert _digest(occ.as_dict()) == SCALE_OCCUPANCY
    res = clip_user(occ, 65.0, 0.5, True)
    opt = pseudo_user_optimize(occ, res.plan, 65.0, 0.5)
    fields = {
        "error_cap": float.hex(res.error_cap),
        "stage_max_errors": [float.hex(x) for x in res.stage_max_errors],
        "k_factor": res.k_factor,
        "suppressions": len(res.trace),
        "trace": _digest([(s.stage, s.user, s.grid, float.hex(s.error)) for s in res.trace]),
        "plan": _digest(res.plan.retained),
        "initial_errors": _budgets_digest(res.initial_errors),
        "per_grid_errors": _budgets_digest(res.per_grid_errors),
        "caps": [opt.per_grid_m[g] for g in occ.grids()],
        "capped_errors": [float.hex(opt.per_grid_error[g].total) for g in occ.grids()],
        "new_error": float.hex(opt.new_error),
    }
    assert fields == SCALE_SUPPRESSION


def _write_cli_inputs(tmp_path) -> dict[str, str]:
    """The golden dataset, the suppression occupancy and a plan, as files."""
    ds = _dataset()
    data = tmp_path / "data.csv"
    data.write_text(
        "user,grid,value\n"
        + "".join(
            f"{u},{g},{v!r}\n" for g in ds.grids() for u in ds.users_in(g) for v in ds.values(g, u)
        )
    )
    occ = _suppression_occupancy()
    occupancy = tmp_path / "occ.csv"
    occupancy.write_text(
        "user,grid,count\n"
        + "".join(f"{u},{g},{occ.count(g, u)}\n" for g in occ.grids() for u in occ.users_in(g))
    )
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"a": {"u01": 0}, "b": {"u00": 1, "u03": 0, "u07": 2}}))
    return {"DATA": str(data), "OCC": str(occupancy), "PLAN": str(plan)}


_MECH = ["mechanism", "--data", "{DATA}", "--u", "10", "--eps", "1", "--seed", "9", "--mech"]
_MAE = ["mae", "--data", "{DATA}", "--grid", "b", "--u", "10", "--eps", "0.5,1"]
_MAE += ["--draws", "25", "--seed", "11", "--mech"]
_MC = ["montecarlo", "--grids", "5", "--users", "20", "--trials", "2", "--eps", "0.5,1"]
_MC += ["--seed", "5", "--heavy-gamma", "3", "--mode"]

# name -> griddp argv; {DATA}, {OCC} and {PLAN} name the files above
CLI_CASES = {
    "stats": ["stats", "--data", "{DATA}", "--u", "10"],
    "sensitivity": ["sensitivity", "--counts", "3,1,4,1,5", "--retained", "2,1,3,0,5", "--u", "10"],
    "bias": ["bias", "--counts", "3,1,4,1,5", "--retained", "2,1,3,0,5", "--u", "10"],
    "scaling": ["scaling", "--counts", "1,4,9,2,7", "--lambdas", "2,3"],
    "clip_user_csv": ["clip-user", "--occupancy", "{OCC}", "--u", "65", "--eps", "1"],
    "clip_user_json": [
        "clip-user", "--occupancy", "{OCC}", "--u", "65", "--eps", "1", "--protect-min-grid",
        "--format", "json",
    ],
    "synth_occupancy": ["synth", "--grids", "5", "--users", "20", "--heavy-gamma", "2", "--seed", "3"],
    "synth_values": ["synth", "--grids", "4", "--users", "10", "--q", "0.2", "--values", "--seed", "4"],
    "montecarlo_privacy": _MC + ["privacy"],
    "montecarlo_privacy_no_protect": _MC + ["privacy", "--no-protect"],
    "montecarlo_error": _MC + ["error"],
    "montecarlo_error_no_protect": _MC + ["error", "--no-protect"],
    **{f"mechanism_{m}": _MECH + [m] for m in ("baseline", "clip", "array_average", "levy", "quantile")},
    "mechanism_clip_plan": _MECH + ["clip", "--plan", "{PLAN}"],
    "mechanism_array_average_wrap": _MECH + ["array_average", "--strategy", "wrap"],
    "mechanism_quantile_optimized": _MECH + ["quantile", "--quantile-mode", "optimized"],
    **{f"mae_{m}": _MAE + [m] for m in ("baseline", "clip", "array_average", "levy", "quantile")},
}

CLI_GOLDEN = {
    "bias": "02ea0f82fc09d805cf7cfae79f4e20a72fe459c8399a53ae181fcf912ac06e08",
    "clip_user_csv": "0184d8ad44ccae49f737be304a47ab1e76363e3a56fdd8e71432db8815019013",
    "clip_user_json": "05d118ed2c4f52fd2a773d36609defcf427973c4dac1663ba1bc5e3125b9aa06",
    "mae_array_average": "d2e281a80e96d86a92a7a1dcc1ee7b3c1e4caacd65a9ad6992c8b25881447503",
    "mae_baseline": "88a9eeef4c2f198338e7cf75650a141395ac1efebb9ba545c9437136380aa1a9",
    "mae_clip": "e10dd5e390a11b43e9b11300320a12a10f473dac5377b15467949a7e97f9ac1c",
    "mae_levy": "19db1e708daba40eb8711b52fd111fefa57c81f72ddf6d56510c62760a01ccc5",
    "mae_quantile": "e4649f3cb62c523332d7534a30e3c16f183513f48505d82759f771766fb8ca22",
    "mechanism_array_average": "dbbf7206f70075b0ac6d2704892fee0e14a208e25e5e5dbade398f4d3794f60c",
    "mechanism_array_average_wrap": "e831b46c7732c62bd8f612f2200b7fc12b4a22f9b03eb68cdb826f22faf04dbd",
    "mechanism_baseline": "03867971b307393b23ffb1696ffa21c7bbeac2a51edee9407fbc2a0b17fc32e5",
    "mechanism_clip": "ff4a7cc0cb8b71d3c7d2190997f5181aded47b751fc14a0206242ccd654a1cdf",
    "mechanism_clip_plan": "6a14eef6c545aae05ba8f898b8822a41b3fbdcd3ba594bbc33f57e02b5232ffb",
    "mechanism_levy": "5890278179799f4410e69a0ceee2632f650d2bb7e3257102f4bff1ab0ab419bf",
    "mechanism_quantile": "144e4401e94eae447cb78e4cb60e669373844b032c09f0832875d74dba58056c",
    "mechanism_quantile_optimized": "81bd388c13cf2aeb76a596168ef2f95f3bed7bd8506c1b57f4c6df7258d80dd6",
    "montecarlo_error": "0c0431cc18c3f19305ddad7acf8fe3c6056cf2111ba0bc6e869d3bfb3e1ec588",
    "montecarlo_error_no_protect": "7e83aabf56b7d92508094d13acf5dcb028029af422998f7e75df70704340311a",
    "montecarlo_privacy": "e7c573094c279e9e119380c0ce0adff23c0a612ede744442f5d2a91e5e0b75dc",
    "montecarlo_privacy_no_protect": "272fd8c410b69c27b84bff1d63d350e01fd8d7fcea681a51a18758b15c99df76",
    "scaling": "f85087969dfdb3d2444d8af2f57cd348aa19a4223393bc2be3cc801bf3a4dbae",
    "sensitivity": "0f3db689019036d4019b1ddd89c6949fe651dce42d115d0784fe8a7c9d22d655",
    "stats": "76610bfd42a14d49bc0d01c915a88fad94f142d215227be65f5ac30774215382",
    "synth_occupancy": "085f2483a6d089aaeca7079a8076406ea273b2737a0ae15eb1cd9c9313e2b03b",
    "synth_values": "ded01b281290a917d43ee6cc967dc29aadc5c1c8159dc8f1ad548f07b0dc60d3",
}


def cli_digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_golden(name, tmp_path):
    files = _write_cli_inputs(tmp_path)
    argv = [arg.format(**files) for arg in CLI_CASES[name]]
    assert cli_digest(argv) == CLI_GOLDEN[name]
