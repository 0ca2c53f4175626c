"""End-to-end CLI behavior: outputs, config defaults, exit codes."""

import csv
import io
import json

import pytest

from griddp.cli import cli_main
from griddp.dataset import parse_dataset, parse_occupancy
from griddp.rng import RngStream
from griddp.synth import SynthParams, generate_occupancy

DATA_CSV = """user,grid,value
u1,g1,1.0
u1,g1,2.0
u2,g1,3.0
u1,g2,0.5
u3,g2,4.0
"""

BASE_OCC_CSV = """user,grid,count
u1,g1,2
u2,g1,2
u1,g2,1
u3,g2,3
u4,g2,3
u5,g2,3
"""


def _run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text(DATA_CSV)
    return str(p)


@pytest.fixture
def occ_file(tmp_path):
    p = tmp_path / "occ.csv"
    p.write_text(BASE_OCC_CSV)
    return str(p)


def test_sensitivity_worked_values(capsys):
    code, out, _ = _run(capsys, ["sensitivity", "--counts", "1,1,1,1", "--u", "1"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 2
    mean_row = next(r for r in rows if r["target"] == "mean")
    var_row = next(r for r in rows if r["target"] == "variance")
    assert float(mean_row["value"]) == 0.25
    assert mean_row["branch"] == ""
    assert float(var_row["value"]) == 0.1875
    assert var_row["branch"] == "AboveTwice"


def test_sensitivity_with_retained(capsys):
    code, out, _ = _run(
        capsys,
        ["sensitivity", "--counts", "3,2", "--u", "5", "--retained", "0,2"],
    )
    assert code == 0
    rows = _rows(out)
    assert [r["scope"] for r in rows] == ["full", "full", "clipped", "clipped"]
    clipped_mean = next(r for r in rows if r["scope"] == "clipped" and r["target"] == "mean")
    assert float(clipped_mean["value"]) == 5.0


def test_bias_json(capsys):
    code, out, _ = _run(
        capsys,
        ["bias", "--counts", "3,2", "--retained", "2,2", "--u", "5", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"target": "mean", "value": 1.0, "branch": None}
    assert rows[1]["value"] == pytest.approx(4.0)
    assert rows[1]["branch"] == "FewDropped"


def test_stats(capsys, data_file):
    code, out, _ = _run(capsys, ["stats", "--data", data_file, "--u", "10"])
    assert code == 0
    rows = {r["grid"]: r for r in _rows(out)}
    assert set(rows) == {"g1", "g2"}
    assert int(rows["g1"]["n"]) == 3
    assert float(rows["g1"]["mean"]) == 2.0
    assert float(rows["g1"]["variance"]) == pytest.approx(2 / 3)


def test_mechanism_requires_seed(capsys, data_file):
    code, _, err = _run(
        capsys,
        ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "baseline"],
    )
    assert code == 2
    assert "--seed" in err


def test_mechanism_deterministic_output(capsys, data_file):
    argv = [
        "mechanism",
        "--data",
        data_file,
        "--u",
        "10",
        "--eps",
        "1",
        "--mech",
        "baseline",
        "--seed",
        "12",
    ]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = _rows(out1)
    assert [r["grid"] for r in rows] == ["g1", "g2"]
    assert all(r["mechanism"] == "baseline" for r in rows)


def test_mechanism_clip_plan(capsys, data_file, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"g1": {"u1": 1}, "g2": {}}))
    code, out, _ = _run(
        capsys,
        [
            "mechanism",
            "--data",
            data_file,
            "--u",
            "10",
            "--eps",
            "1",
            "--mech",
            "clip",
            "--plan",
            str(plan),
            "--seed",
            "3",
        ],
    )
    assert code == 0
    assert len(_rows(out)) == 2
    # a plan makes no sense for the other mechanisms
    code, _, err = _run(
        capsys,
        [
            "mechanism",
            "--data",
            data_file,
            "--u",
            "10",
            "--eps",
            "1",
            "--mech",
            "levy",
            "--plan",
            str(plan),
            "--seed",
            "3",
        ],
    )
    assert code == 2
    assert "plan" in err


@pytest.mark.parametrize(
    "plan_obj, names",
    [
        ({"g1": [1, 2]}, ("g1",)),
        ({"g1": {"u1": "x"}}, ("g1", "u1")),
        ({"g1": {"u1": 1.9}}, ("g1", "u1")),
        ({"g1": {"u1": 1.0}}, ("g1", "u1")),
        ({"g1": {"u1": True}}, ("g1", "u1")),
        ({"plan": {"g2": {"u3": None}}}, ("g2", "u3")),
    ],
)
def test_mechanism_rejects_malformed_plan(capsys, data_file, tmp_path, plan_obj, names):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_obj))
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "clip"]
    code, out, err = _run(capsys, argv + ["--plan", str(plan), "--seed", "3"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    for name in names:
        assert name in err


def test_clip_user_json(capsys, occ_file):
    code, out, _ = _run(
        capsys,
        ["clip-user", "--occupancy", occ_file, "--u", "1", "--eps", "1", "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["k_factor"] == 1
    assert obj["error_cap"] == 1.5
    assert len(obj["trace"]) == 1
    assert obj["trace"][0]["user"] == "u1"
    assert obj["trace"][0]["grid"] == "g2"
    assert obj["trace"][0]["error"] == pytest.approx(1.3011111111111111)
    assert obj["plan"]["g2"]["u1"] == 0
    assert obj["initial_errors"]["g2"] == pytest.approx(1.02)


def test_clip_user_csv_records(capsys, occ_file):
    code, out, _ = _run(
        capsys, ["clip-user", "--occupancy", occ_file, "--u", "1", "--eps", "1"]
    )
    assert code == 0
    rows = _rows(out)
    kinds = [r["record"] for r in rows]
    assert kinds == ["summary", "suppression", "grid", "grid"]
    assert rows[0]["k_factor"] == "1"
    assert float(rows[0]["error_cap"]) == 1.5
    assert rows[1]["user"] == "u1"


def test_synth_occupancy_round_trip(capsys):
    argv = ["synth", "--grids", "4", "--users", "15", "--q", "0.3", "--seed", "9"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    parsed = parse_occupancy(out)
    params = SynthParams(grids=4, users=15, bound_u=65.0, geometric_q=0.3)
    direct = generate_occupancy(params, RngStream(9))
    assert parsed.as_dict() == direct.as_dict()


def test_synth_values_round_trip(capsys):
    argv = [
        "synth",
        "--grids",
        "4",
        "--users",
        "15",
        "--q",
        "0.3",
        "--values",
        "--seed",
        "9",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    ds = parse_dataset(out, 65.0)
    params = SynthParams(grids=4, users=15, bound_u=65.0, geometric_q=0.3)
    occ = generate_occupancy(params, RngStream(9))
    assert ds.occupancy().as_dict() == occ.as_dict()


def test_montecarlo_privacy_curve(capsys):
    argv = [
        "montecarlo",
        "--mode",
        "privacy",
        "--eps",
        "0.1:0.3:0.1",
        "--trials",
        "2",
        "--grids",
        "4",
        "--users",
        "15",
        "--q",
        "0.3",
        "--u",
        "1",
        "--seed",
        "4",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 6  # two labels at each of three epsilons
    by_eps = {}
    for r in rows:
        by_eps.setdefault(float(r["epsilon"]), {})[r["label"]] = float(r["value"])
    assert sorted(by_eps) == [0.1, 0.2, 0.3]
    for eps, vals in by_eps.items():
        assert vals["suppressed"] <= vals["naive"] + 1e-12


def test_mae_baseline_curve(capsys, data_file):
    argv = [
        "mae",
        "--data",
        data_file,
        "--grid",
        "g1",
        "--u",
        "10",
        "--eps",
        "1.0,2.0",
        "--seed",
        "1",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = _rows(out)
    # g1 counts are [2, 1]: delta = 10 * 2/3, halved at the larger epsilon
    assert float(rows[0]["value"]) == pytest.approx(20 / 3)
    assert float(rows[1]["value"]) == pytest.approx(10 / 3)


def test_scaling_rows(capsys):
    code, out, _ = _run(
        capsys, ["scaling", "--counts", "1,4,9", "--lambdas", "3", "--u", "1"]
    )
    assert code == 0
    rows = _rows(out)
    for r in rows:
        if r["mode"] == "sample":
            assert r["passed"] == "True", r
    wrap_opt = next(
        r for r in rows if r["law"] == "k_wrap_optimized" and r["mode"] == "user"
    )
    assert wrap_opt["passed"] == "False"
    bounds = next(
        r for r in rows if r["law"] == "k_wrap_optimized_bounds" and r["mode"] == "user"
    )
    assert bounds["passed"] == "True"


def test_config_supplies_seed_and_cli_wins(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nseed=9\ngrids=4\nusers=15\nq=0.3\n")
    base = ["synth", "--config", str(cfg)]
    code, from_config, _ = _run(capsys, base)
    assert code == 0
    code, direct, _ = _run(
        capsys, ["synth", "--grids", "4", "--users", "15", "--q", "0.3", "--seed", "9"]
    )
    assert code == 0
    assert from_config == direct
    # an explicit flag beats the config value
    code, overridden, _ = _run(capsys, base + ["--seed", "10"])
    assert code == 0
    assert overridden != from_config


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = _run(
        capsys,
        ["sensitivity", "--counts", "2,2", "--u", "1", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    rows = _rows(target.read_text())
    assert len(rows) == 2


def test_usage_errors_exit_2(capsys):
    code, _, err = _run(capsys, ["sensitivity", "--counts", "1,x", "--u", "1"])
    assert code == 2
    assert "integer list" in err
    code, _, err = _run(
        capsys,
        [
            "montecarlo",
            "--mode",
            "privacy",
            "--eps",
            "bad",
            "--trials",
            "1",
            "--seed",
            "1",
        ],
    )
    assert code == 2


def test_domain_errors_exit_1(capsys):
    code, _, err = _run(
        capsys, ["bias", "--counts", "2,2", "--retained", "3,0", "--u", "1"]
    )
    assert code == 1
    assert "error:" in err
    code, _, _ = _run(capsys, ["stats", "--data", "no-such-file.csv", "--u", "1"])
    assert code == 1


@pytest.mark.parametrize("spelling", ["equals", "abbreviated"])
def test_config_loaded_in_every_spelling(capsys, tmp_path, data_file, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n")
    flag = {"equals": [f"--config={cfg}"], "abbreviated": ["--conf", str(cfg)]}[spelling]
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "levy"]
    code, from_config, err = _run(capsys, argv + flag)
    assert code == 0, err
    code, direct, _ = _run(capsys, argv + ["--seed", "3"])
    assert code == 0
    assert from_config == direct


@pytest.mark.parametrize(
    "flags", [["--eps", "inf", "--u", "10"], ["--eps", "1", "--u", "inf"]]
)
def test_mechanism_rejects_infinite_eps_and_bound(capsys, data_file, flags):
    argv = ["mechanism", "--data", data_file, "--mech", "baseline", "--seed", "1"]
    code, out, err = _run(capsys, argv + flags)
    assert code == 1
    assert out == ""
    assert "positive and finite" in err


def test_missing_data_file_is_an_io_error(capsys, tmp_path):
    # a missing path was once read as CSV text: "expected header ..., got 'nope.csv'"
    for argv in (
        ["stats", "--data", str(tmp_path / "nope.csv"), "--u", "65"],
        ["clip-user", "--occupancy", str(tmp_path / "nope.csv"), "--u", "65", "--eps", "1"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "cannot read" in err and "nope.csv" in err


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--data", b"user,grid,value\nu1,g1,1\xff\n", "cannot read"),
        ("--plan", b'{"g1": {"u1": 1}}\xff', "cannot read plan"),
        ("--config", b"u=10\n\xff\n", "cannot read config"),
        # csv caps the length of a field
        (
            "--data",
            b"user,grid,value\nu1,g1,1\nu2," + b"g" * (csv.field_size_limit() + 1) + b",2\n",
            "line 3: field larger than field limit",
        ),
        # a file is read as written, so the CR stays inside the row, as in text
        ("--data", b"user,grid,value\nu1,g1,1\r2\n", "line 2: new-line character seen in unquoted field"),
    ],
    ids=["data-not-utf8", "plan-not-utf8", "config-not-utf8", "data-long-field", "data-cr"],
)
def test_bad_input_file_is_an_error_line(capsys, tmp_path, data_file, flag, content, message):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    # the last --data wins
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "clip"]
    code, out, err = _run(capsys, argv + ["--seed", "3", flag, str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_synth_values_rejects_infinite_mean(capsys):
    code, out, err = _run(capsys, ["synth", "--values", "--mu", "inf", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert "mean must be finite" in err
