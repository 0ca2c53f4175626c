"""End-to-end CLI behavior: outputs, config defaults, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from inspect import signature
from pathlib import Path

import pytest

import griddp
from griddp.cli import _build_parser, _parse_eps_grid, _write, cli_main
from griddp.composition import ClipPlan, post_release
from griddp.dataset import parse_dataset, parse_occupancy
from griddp.harness import ExperimentConfig, check_scaling_laws
from griddp.mechanisms import MechanismParams
from griddp.rng import RngStream
from griddp.synth import SynthParams, ValueModel, generate_occupancy

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
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
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


def test_mechanism_plan_grids_must_be_in_the_data(capsys, data_file, tmp_path):
    # a plan keyed G1 once released g1 unclipped and exited 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"G1": {"u1": 1}, "g2": {"u1": 0}, "g9": {}}))
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "clip"]
    code, out, err = _run(capsys, argv + ["--plan", str(plan), "--seed", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: plan names grids absent from the data: ['G1', 'g9']\n"
    # a plan grid that is in the data but outside --grid is allowed
    plan.write_text(json.dumps({"g1": {"u1": 1}, "g2": {"u1": 0}}))
    code, out, err = _run(capsys, argv + ["--plan", str(plan), "--seed", "3", "--grid", "g1"])
    assert code == 0, err
    assert [r["grid"] for r in _rows(out)] == ["g1"]


def test_mechanism_plan_is_checked_in_full(capsys, data_file, tmp_path):
    # --plan releases through post_release: every row is checked, also with
    # --grid naming another grid, and the rows printed are post_release's
    plan = tmp_path / "plan.json"
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "clip"]
    argv += ["--plan", str(plan), "--seed", "3"]
    plan.write_text(json.dumps({"g1": {"u1": 1}, "g2": {"u3": 5}}))
    code, out, err = _run(capsys, argv + ["--grid", "g1"])
    assert (code, out) == (1, "")
    assert "user u3 in grid g2 must be in [0, 1]" in err
    plan.write_text(json.dumps({"g2": {"u1": 0}}))
    code, out, err = _run(capsys, argv + ["--grid", "g9"])
    assert (code, out, err) == (1, "", "error: grid 'g9' not present\n")
    released = post_release(
        parse_dataset(data_file, 10.0), ClipPlan({"g2": {"u1": 0}}), 1.0, RngStream(3)
    )
    for grid in (["--grid", "g2"], []):
        code, out, _ = _run(capsys, argv + grid)
        assert code == 0
        for row in _rows(out):
            assert float(row["noisy_mean"]) == released[row["grid"]].noisy_mean
            assert float(row["noisy_variance"]) == released[row["grid"]].noisy_variance


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


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_json_rows_are_streamed_as_json_dumps_writes_them(n, monkeypatch):
    # chunks of 3 rows: 3 rows fill one chunk exactly, 7 end in a partial one
    monkeypatch.setattr("griddp.cli._JSON_CHUNK", 3)
    fields = ["user", "grid", "value", "note"]
    texts = [None, 'say "hi"', "caf\u00e9 \u2192 \U0001f600", "a\nb\\c", ""]
    rows = [(f"u{i}", "g1", i / 3 if i % 2 else None, texts[i % len(texts)]) for i in range(n)]
    fh = io.StringIO()
    _write(fh, "json", iter(rows), fields, None)
    want = json.dumps([dict(zip(fields, r)) for r in rows], indent=2) + "\n"
    assert fh.getvalue() == want


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


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--grids", "3", "--users", "7"],
        ["synth", "--values", "--grids", "3", "--users", "7"],
        ["montecarlo", "--mode", "privacy", "--eps", "0.5", "--grids", "3", "--users", "7"],
        ["mechanism", "--u", "10", "--eps", "1", "--mech", "clip"],
        ["mae", "--u", "10", "--eps", "1", "--mech", "baseline", "--grid", "g1"],
    ],
    ids=["synth", "synth-values", "montecarlo", "mechanism", "mae-baseline"],
)
def test_negative_seed_is_an_error_line(capsys, data_file, argv):
    # numpy's SeedSequence once raised a bare ValueError on a negative seed
    if "--u" in argv:
        argv = argv + ["--data", data_file]
    code, out, err = _run(capsys, argv + ["--seed", "-1"])
    assert (code, out) == (1, "")
    assert err == "error: seed must be >= 0, got -1\n"


def test_synth_values_rejects_infinite_mean(capsys):
    code, out, err = _run(capsys, ["synth", "--values", "--mu", "inf", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert "mean must be finite" in err


@pytest.mark.parametrize(
    "line, key",
    [
        # a misspelt key was once ignored: synth printed its unconfigured output
        ("heavy_gama=3", "heavy_gama"),
        # a key naming no option once replaced the dispatch function: a TypeError traceback
        ("handler=x", "handler"),
    ],
)
def test_config_key_naming_no_option_is_a_usage_error(capsys, tmp_path, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{line}\n")
    argv = ["synth", "--grids", "3", "--users", "7", "--config", str(cfg)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {cfg}:2: no subcommand has an option {key!r}\n"


def test_config_key_of_another_subcommand_is_accepted(capsys, tmp_path):
    # one config file may serve several subcommands
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\ndraws=5\nheavy-gamma=0\n")
    argv = ["synth", "--grids", "3", "--users", "7"]
    code, from_config, err = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 0, err
    code, direct, _ = _run(capsys, argv + ["--seed", "1"])
    assert code == 0
    assert from_config == direct


@pytest.mark.parametrize(
    "argv, lines, flags",
    [
        # once printed CSV and exited 0
        (["sensitivity", "--counts", "1,1", "--u", "1"], ["format=xml"], ["--format", "xml"]),
        # once the int 7: "grid 7 not present", exit 1
        (["stats", "--data", "data.csv", "--u", "10"], ["grid=007"], ["--grid", "007"]),
        # once the int 1: open(1) wrote to file descriptor 1 and closed it
        (["sensitivity", "--counts", "1,1", "--u", "1"], ["out=1"], ["--out", "1"]),
        # once a truthy string, so the values were emitted
        (["synth", "--grids", "3", "--users", "7", "--seed", "1"], ["values=no"], ["--values=no"]),
        # once InvalidParams, exit 1
        (["synth", "--users", "7", "--seed", "1"], ["grids=3.5"], ["--grids", "3.5"]),
        # once "the following arguments are required", exit 2
        (["stats"], ["u=10", "data=data.csv"], ["--u", "10", "--data", "data.csv"]),
    ],
    ids=["format-choice", "grid-string", "out-path", "switch-value", "grids-int", "required"],
)
def test_config_line_behaves_as_its_flag(capsys, monkeypatch, tmp_path, argv, lines, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("user,grid,value\nu1,007,1.0\nu2,7,2.0\nu3,007,4.0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    outcomes = []
    for extra in (["--config", str(cfg)], flags):
        code, out, _ = _run(capsys, argv + extra)
        written = tmp_path / "1"
        outcomes.append((code, out, written.read_text() if written.exists() else None))
        written.unlink(missing_ok=True)
    assert outcomes[0] == outcomes[1]


def test_config_switch_takes_true_or_false(capsys, tmp_path):
    argv = ["synth", "--grids", "3", "--users", "7", "--seed", "1"]
    _, with_values, _ = _run(capsys, argv + ["--values"])
    _, without, _ = _run(capsys, argv)
    cfg = tmp_path / "run.cfg"
    for line, expected in [("values=TRUE", with_values), ("values = false", without)]:
        cfg.write_text(line + "\n")
        assert _run(capsys, argv + ["--config", str(cfg)]) == (0, expected, "")
    cfg.write_text("seed=2\nvalues=no\n")
    code, out, err = _run(capsys, argv + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:2: values must be true or false, got 'no'\n"


def test_config_value_starting_with_a_dash_stays_a_value(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("user,grid,value\nu1,-g1,1.0\nu2,g2,2.0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=-g1\n")
    argv = ["stats", "--data", str(data), "--u", "10"]
    # as two tokens, "--grid -g1" would leave --grid without its value
    code, from_config, err = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 0, err
    assert from_config == _run(capsys, argv + ["--grid=-g1"])[1]
    assert [row["grid"] for row in _rows(from_config)] == ["-g1"]


def test_config_prefix_is_read_only_where_argparse_takes_it(capsys, tmp_path, data_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u=10\n")
    # no other option of stats starts with --c
    code, from_config, err = _run(capsys, ["stats", "--data", data_file, "--c", str(cfg)])
    assert code == 0, err
    assert from_config == _run(capsys, ["stats", "--data", data_file, "--u", "10"])[1]
    # for sensitivity --c could be --config or --counts
    code, out, err = _run(capsys, ["sensitivity", "--counts", "1,1", "--c", str(cfg)])
    assert (code, out) == (2, "")
    assert "ambiguous option: --c could match --config, --counts" in err


def test_help_is_not_a_config_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("help=true\n")
    argv = ["sensitivity", "--counts", "1,1", "--u", "1", "--config", str(cfg)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:1: no subcommand has an option 'help'\n"


@pytest.mark.parametrize(
    "eps, message",
    [
        # int() of an infinite number of grid points once raised a bare OverflowError
        ("0.1:inf:0.1", "cannot parse epsilon grid '0.1:inf:0.1'"),
        ("0.1:1:1e-320", "cannot parse epsilon grid '0.1:1:1e-320'"),
        # once built all 10^8 points before any check
        ("0:1:1e-8", "epsilon grid '0:1:1e-8' has 100000001 points, over 10000"),
        ("1:10001:1", "epsilon grid '1:10001:1' has 10001 points, over 10000"),
        # once parsed to no epsilon at all, an InvalidParams with exit 1
        ("1:0:0.1", "cannot parse epsilon grid '1:0:0.1'"),
    ],
    ids=["0.1:inf:0.1", "0.1:1:1e-320", "0:1:1e-8", "1:10001:1", "1:0:0.1"],
)
def test_overflowing_eps_range_is_a_usage_error(capsys, eps, message):
    argv = ["montecarlo", "--mode", "privacy", "--eps", eps, "--grids", "4", "--users", "15"]
    code, out, err = _run(capsys, argv + ["--seed", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_eps_range_of_the_largest_size_is_parsed():
    assert _parse_eps_grid("1:10000:1") == [float(i) for i in range(1, 10001)]


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--config", b"seed=3\nseed\n", ":2: expected KEY=VALUE, got 'seed'"),
        ("--plan", b"{g1: 1}", "is not valid JSON"),
        ("--plan", b"[1, 2]", "must be a grid -> user -> count mapping"),
    ],
    ids=["config-no-equals", "plan-not-json", "plan-not-a-mapping"],
)
def test_malformed_config_or_plan_is_a_usage_error(
    capsys, tmp_path, data_file, flag, content, message
):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "clip"]
    code, out, err = _run(capsys, argv + ["--seed", "3", flag, str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_unwritable_out_is_an_io_error(capsys, tmp_path):
    out_path = tmp_path / "no-such-dir" / "out.csv"
    argv = ["sensitivity", "--counts", "1,1", "--u", "1", "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_levy_with_too_many_bins_is_an_error_line(capsys, data_file):
    # a capacity of 10^300 makes tau about 1e-150; numpy once raised a bare ValueError
    argv = ["mechanism", "--data", data_file, "--u", "10", "--eps", "1", "--mech", "levy"]
    code, out, err = _run(capsys, argv + ["--capacity", str(10**300), "--seed", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: bin width ") and err.endswith("more than 1048576 bins\n")


def _opt(flag, default=None, cast=None, choices=None, required=False, action="_StoreAction"):
    return ((flag,), default, cast, choices, required, action)


_OUTPUT = {
    "format": _opt("--format", "csv", choices=("csv", "json")),
    "out": _opt("--out", "-"),
    "config": _opt("--config"),
}
_SEED = {"seed": _opt("--seed", cast=int)}
_U = {"u": _opt("--u", cast=float, required=True)}
_DATA = {"data": _opt("--data", cast=Path, required=True), **_U}
_COUNTS = {"counts": _opt("--counts", required=True)}
_SHAPE = {
    "grids": _opt("--grids", 12, int),
    "users": _opt("--users", 4095, int),
    "u": _opt("--u", 65.0, float),
    "q": _opt("--q", 0.01, float),
    "heavy_gamma": _opt("--heavy-gamma", 0.0, float),
}
_PACKING = {
    "strategy": _opt("--strategy", "best", choices=("wrap", "best")),
    "capacity": _opt("--capacity", cast=int),
    "gamma": _opt("--gamma", 0.2, float),
    "quantile_mode": _opt("--quantile-mode", "fixed", choices=("fixed", "optimized")),
}
_MECHANISMS = ("baseline", "clip", "array_average", "levy", "quantile")
_STORE_TRUE = {"default": False, "action": "_StoreTrueAction"}

# The option table of every subcommand as the command had it when each
# subcommand listed its own options.
OPTION_TABLE = {
    "stats": {**_OUTPUT, **_DATA, "grid": _opt("--grid")},
    "sensitivity": {**_OUTPUT, **_COUNTS, **_U, "retained": _opt("--retained")},
    "bias": {**_OUTPUT, **_COUNTS, **_U, "retained": _opt("--retained", required=True)},
    "mechanism": {
        **_OUTPUT,
        **_SEED,
        **_DATA,
        **_PACKING,
        "eps": _opt("--eps", cast=float, required=True),
        "mech": _opt("--mech", choices=_MECHANISMS, required=True),
        "grid": _opt("--grid"),
        "plan": _opt("--plan"),
    },
    "clip-user": {
        **_OUTPUT,
        **_U,
        "occupancy": _opt("--occupancy", cast=Path, required=True),
        "eps": _opt("--eps", cast=float, required=True),
        "protect_min_grid": _opt("--protect-min-grid", **_STORE_TRUE),
    },
    "synth": {
        **_OUTPUT,
        **_SEED,
        **_SHAPE,
        "values": _opt("--values", **_STORE_TRUE),
        "mu": _opt("--mu", 20.66769, float),
        "sigma2": _opt("--sigma2", 115.135, float),
    },
    "montecarlo": {
        **_OUTPUT,
        **_SEED,
        **_SHAPE,
        "mode": _opt("--mode", choices=("privacy", "error"), required=True),
        "eps": _opt("--eps", required=True),
        "trials": _opt("--trials", 10, int),
        "no_protect": _opt("--no-protect", **_STORE_TRUE),
    },
    "mae": {
        **_OUTPUT,
        **_SEED,
        **_DATA,
        **_PACKING,
        "grid": _opt("--grid", required=True),
        "eps": _opt("--eps", required=True),
        "mech": _opt("--mech", "baseline", choices=_MECHANISMS),
        "draws": _opt("--draws", 10_000, int),
    },
    "scaling": {
        **_OUTPUT,
        **_COUNTS,
        "lambdas": _opt("--lambdas", required=True),
        "u": _opt("--u", 1.0, float),
    },
}


def test_option_table_of_every_subcommand():
    _, commands = _build_parser()
    assert set(commands) == set(OPTION_TABLE)
    for name, sp in commands.items():
        table = {
            a.dest: (
                tuple(a.option_strings),
                a.default,
                a.type,
                None if a.choices is None else tuple(a.choices),
                a.required,
                type(a).__name__,
            )
            for a in sp._actions
            if a.dest != "help"
        }
        assert table == OPTION_TABLE[name], name


@pytest.mark.parametrize(
    "commands, dest, library",
    [
        (("synth", "montecarlo"), "grids", SynthParams.grids),
        (("synth", "montecarlo"), "users", SynthParams.users),
        (("synth", "montecarlo"), "u", SynthParams.bound_u),
        (("synth", "montecarlo"), "q", SynthParams.geometric_q),
        (("synth", "montecarlo"), "heavy_gamma", SynthParams.heavy_gamma),
        (("synth",), "mu", ValueModel.mean),
        (("synth",), "sigma2", ValueModel.variance),
        (("mechanism", "mae"), "strategy", MechanismParams.strategy),
        (("mechanism", "mae"), "capacity", MechanismParams.capacity),
        (("mechanism", "mae"), "gamma", MechanismParams.gamma),
        (("mechanism", "mae"), "quantile_mode", MechanismParams.quantile_mode),
        (("montecarlo",), "trials", ExperimentConfig.trials),
        (("mae",), "mech", ExperimentConfig.mechanism),
        (("mae",), "draws", ExperimentConfig.mae_draws),
        (("scaling",), "u", signature(check_scaling_laws).parameters["bound_u"].default),
    ],
)
def test_option_defaults_are_the_library_defaults(commands, dest, library):
    _, parsers = _build_parser()
    for name in commands:
        assert parsers[name].get_default(dest) == library, (name, dest)


@pytest.mark.parametrize(
    "extra",
    [(), ("--format", "json"), ("--values", "--grids", "8", "--users", "255")],
    ids=["occupancy", "occupancy-json", "values"],
)
def test_closed_stdout_ends_without_a_traceback(extra):
    # as `griddp synth --seed 1 | head -1`: the reader takes one line and
    # closes its end while the command still writes
    env = {**os.environ, "PYTHONPATH": str(Path(griddp.__file__).parents[1])}
    argv = [sys.executable, "-m", "griddp", "synth", "--seed", "1", *extra]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_synth_values_json_rows_equal_the_csv_rows(capsys):
    argv = ["synth", "--values", "--seed", "4", "--grids", "4", "--users", "15"]
    code, out_csv, _ = _run(capsys, argv)
    assert code == 0
    code, out_json, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    from_csv = [(r["user"], r["grid"], float(r["value"])) for r in _rows(out_csv)]
    from_json = [(r["user"], r["grid"], r["value"]) for r in json.loads(out_json)]
    assert from_json == from_csv
    assert len(from_csv) > 15


def test_scaling_past_the_user_limit_is_one_error_line(capsys):
    code, out, err = _run(capsys, ["scaling", "--counts", "1,4,9", "--lambdas", "2,100000000"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
