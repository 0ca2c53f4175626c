"""cli-csv: the griddp command over CSV files, as a user runs it.

A round runs six commands, one `python -m griddp` child at a time: synth
--values writes the paper-scale dataset (12 grids x 4095 users,
heavy_gamma 3, about 23 MB), synth writes its occupancy, then stats,
clip-user --format json (the plan), mechanism --mech clip --plan and
mechanism --mech levy read them back. Every grid is released once, so
nothing carries over from one release to the next. Every round repeats
the same commands; the files on disk after the run are checked.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from common import Round, digest, run_child

U = 65.0
EPS = 1.0
GAMMA = 0.2
FILES = ("values.csv", "occupancy.csv", "stats.csv", "plan.json", "clip.csv", "levy.csv")
# (kind, command label) in run order; the label names the per-command figures.
COMMANDS = (
    ("synth", "synth-values"),
    ("synth", "synth-occupancy"),
    ("stats", "stats"),
    ("plan", "clip-user"),
    ("release_clip", "mechanism-clip"),
    ("release_levy", "mechanism-levy"),
)
FIGURES = tuple(f"cli_{kind}_s" for kind in ("synth", "stats", "plan", "release_clip", "release_levy"))


def build_inputs(seed: int):
    """Only the program's start-up: the commands write their own input files."""
    import griddp.cli  # noqa: F401  (start-up every command pays)

    return seed


@dataclass
class State:
    seed: int
    work: Path

    def path(self, name: str) -> str:
        return str(self.work / name)

    def argv(self, label: str) -> list[str]:
        s, p = str(self.seed), self.path
        u, eps = str(U), str(EPS)
        return {
            "synth-values": ["synth", "--values", "--seed", s, "--heavy-gamma", "3", "--out", p("values.csv")],
            "synth-occupancy": ["synth", "--seed", s, "--heavy-gamma", "3", "--out", p("occupancy.csv")],
            "stats": ["stats", "--data", p("values.csv"), "--u", u, "--out", p("stats.csv")],
            "clip-user": [
                "clip-user", "--occupancy", p("occupancy.csv"), "--u", u, "--eps", eps,
                "--format", "json", "--out", p("plan.json"),
            ],
            "mechanism-clip": [
                "mechanism", "--data", p("values.csv"), "--u", u, "--eps", eps, "--mech", "clip",
                "--plan", p("plan.json"), "--seed", s, "--out", p("clip.csv"),
            ],
            "mechanism-levy": [
                "mechanism", "--data", p("values.csv"), "--u", u, "--eps", eps, "--mech", "levy",
                "--seed", s, "--out", p("levy.csv"),
            ],
        }[label]


def prepare(seed: int, workdir: Path) -> State:
    work = workdir / "cli-csv"
    work.mkdir(parents=True, exist_ok=True)
    for name in FILES:
        (work / name).unlink(missing_ok=True)
    return State(build_inputs(seed), work)


def _in_process(argv: list[str]) -> int:
    from griddp import cli

    try:
        return cli.cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_round(state: State, index: int, inprocess: bool = False) -> Round:
    """Run the six commands; inprocess calls cli_main in this process instead."""
    ops, codes, rss = [], {}, {}
    for kind, label in COMMANDS:
        argv = state.argv(label)
        if inprocess:
            t0 = time.perf_counter()
            codes[label] = _in_process(argv)
            seconds = time.perf_counter() - t0
        else:
            codes[label], seconds, rss[label] = run_child(["-m", "griddp", *argv], state.work)
        ops.append((kind, 1, seconds))
    blobs = [(state.work / n).read_bytes() if (state.work / n).exists() else b"" for n in FILES]
    return Round(0, ops, codes, digest(*blobs), rss)


def figures(rounds: list[Round]) -> dict[str, float]:
    return {
        name: float(np.median([sum(t for k, _, t in r.ops if f"cli_{k}_s" == name) for r in rounds]))
        for name in FIGURES
    }


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def _check_files(state: State) -> dict[str, list[str]]:
    bad: dict[str, list[str]] = {label: [] for _, label in COMMANDS}
    _, rows = _read_csv(state.path("values.csv"))
    users, grids, raw = zip(*rows)
    values = np.array(raw, dtype=float)
    grid_names, gidx = np.unique(np.array(grids), return_inverse=True)
    if values.min() < 0 or values.max() > U:
        bad["synth-values"].append("values outside [0, U]")
    from_values = dict(Counter(zip(grids, users)))

    _, occ_rows = _read_csv(state.path("occupancy.csv"))
    occupancy = {(g, u): int(c) for u, g, c in occ_rows}
    if occupancy != from_values:
        bad["synth-occupancy"].append("occupancy differs from the counts in values.csv")
    counts_by_grid: dict[str, dict[str, int]] = {}
    for (g, u), c in from_values.items():
        counts_by_grid.setdefault(g, {})[u] = c

    n = np.bincount(gidx)
    mean = np.bincount(gidx, weights=values) / n
    var = np.bincount(gidx, weights=(values - mean[gidx]) ** 2) / n
    _, stat_rows = _read_csv(state.path("stats.csv"))
    got = {g: (int(k), float(m), float(v)) for g, k, m, v in stat_rows}
    if sorted(got) != grid_names.tolist():
        bad["stats"].append(f"stats grids {sorted(got)}")
    for i, g in enumerate(grid_names.tolist()):
        k, m, v = got.get(g, (0, math.nan, math.nan))
        if k != n[i] or not oracle.close(m, mean[i]) or not oracle.close(v, var[i]):
            bad["stats"].append(f"grid {g}: {(k, m, v)} != numpy {(n[i], mean[i], var[i])}")

    with open(state.path("plan.json"), encoding="utf-8") as fh:
        plan_doc = json.load(fh)
    plan = plan_doc["plan"]
    grids_of: dict[str, int] = {}
    for g, row in counts_by_grid.items():
        kept = plan.get(g, {})
        if set(kept) != set(row) or any(not 0 <= kept[u] <= row[u] for u in row):
            bad["clip-user"].append(f"plan row {g} is not within 0 <= gamma <= m")
            continue
        for u, x in kept.items():
            grids_of[u] = grids_of.get(u, 0) + (x > 0)
    if grids_of and max(grids_of.values()) != plan_doc["k_factor"]:
        bad["clip-user"].append(f"k_factor {plan_doc['k_factor']} != recount {max(grids_of.values())}")

    header, clip_rows = _read_csv(state.path("clip.csv"))
    for row in clip_rows:
        r = dict(zip(header, row))
        gam = list(plan.get(r["grid"], {}).values())
        total, peak = sum(gam), max(gam, default=0)
        want_mean = 2 * U * peak / total / EPS if total else math.nan
        want_var = 2 * float(oracle.variance_sensitivity(total, peak, U)) / EPS if total else math.nan
        ok = oracle.close(float(r["noise_scale_mean"]), want_mean) and oracle.close(
            float(r["noise_scale_var"]), want_var
        )
        if not ok or not math.isfinite(float(r["noisy_mean"])):
            bad["mechanism-clip"].append(f"grid {r['grid']}: noise scales off the closed form")
    if len(clip_rows) != len(grid_names):
        bad["mechanism-clip"].append("not every grid released")

    header, levy_rows = _read_csv(state.path("levy.csv"))
    for row in levy_rows:
        r = dict(zip(header, row))
        k, a, b = int(r["arrays"]), float(r["interval_a"]), float(r["interval_b"])
        capacity, _ = oracle.capacities(list(counts_by_grid[r["grid"]].values()))
        ok = (
            0 <= a <= b <= U
            and b - a <= 3 * oracle.tau(U, k, GAMMA, capacity) + 1e-9
            and oracle.close(float(r["noise_scale_mean"]), 2 * (b - a) / (k * EPS))
        )
        if not ok:
            bad["mechanism-levy"].append(f"grid {r['grid']}: interval or noise scale off")
    if len(levy_rows) != len(grid_names):
        bad["mechanism-levy"].append("not every grid released")
    return bad


def check(state: State, rnd: Round) -> dict[str, tuple[int, str]]:
    """Failed commands of a round: {command: (1, reason)}."""
    failed = {label: (1, f"exit code {code}") for label, code in rnd.outputs.items() if code != 0}
    if failed:
        return failed
    try:
        bad = _check_files(state)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return {label: (1, f"unreadable output: {exc!r}") for _, label in COMMANDS}
    return {label: (1, "; ".join(msgs)) for label, msgs in bad.items() if msgs}


def cleanup(state: State) -> None:
    for name in FILES:
        (state.work / name).unlink(missing_ok=True)
    if not any(state.work.iterdir()):
        state.work.rmdir()
