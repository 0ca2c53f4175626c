"""griddp benchmark: one workload per process, checked, then reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is mae-grouped, suppress-ladder, cli-csv, or all (each in a child
process of its own, one after another). Run from the checkout root; the
benchmark imports griddp from ./src, never an installed copy.

Untraced (--trace 0): time the set-up of the workload's inputs three times
in fresh interpreters, then run whole rounds of the workload's operations
while another round is expected to end within S seconds (at least one),
check every result against numpy recomputations, and print the end-to-end
metrics named in BENCHMARK.json. Traced (--trace 1): the same untraced
rounds, then one more round with every griddp module wrapped in spans
(spans.py), and print the per-layer metrics. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import OUT, ROOT, SRC, child_env, digest, run_child  # noqa: E402

WORKLOADS = {
    "mae-grouped": "mae_grouped",
    "suppress-ladder": "suppress_ladder",
    "cli-csv": "cli_csv",
}
SETUP_REPEATS = 3


def _pin_environment() -> None:
    """One thread everywhere and no thread pool; set before numpy loads."""
    os.environ.pop("DP_COMPOSER_THREADS", None)
    os.environ.update(child_env())
    sys.path.insert(0, str(SRC))


def _environment_line() -> str:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none (not a git checkout)"
    sources = digest(*(p.read_bytes() for p in sorted((SRC / "griddp").glob("*.py"))))
    return (
        f"env: commit={commit} src_sha256={sources[:16]} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))}"
    )


def _setup_seconds(module: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing griddp and building
    the workload's inputs."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        f"import {module}; {module}.build_inputs({seed})"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        code_rc, seconds, _ = run_child(["-c", code], ROOT)
        if code_rc != 0:
            raise RuntimeError(f"set-up of {module} exited with {code_rc}")
        times.append(seconds)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _rounds(work, state, seconds: float, inprocess: bool = False) -> list:
    """Whole rounds while the longest round so far still fits in `seconds`."""
    rounds, longest = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(work.run_round(state, len(rounds), inprocess))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return rounds


def _failures(work, state, rounds) -> tuple[int, list[str]]:
    """Check the first round of each key in full; later ones by digest."""
    failed, notes, first = 0, [], {}
    for i, rnd in enumerate(rounds):
        if rnd.key not in first:
            first[rnd.key] = i
            fails = work.check(state, rnd)
            failed += min(rnd.count, sum(n for n, _ in fails.values()))
            notes += [f"{what}: {why}" for what, (_, why) in fails.items()]
        elif rnd.digest != rounds[first[rnd.key]].digest:
            failed += rnd.count
            notes.append(f"round {i} differs from round {first[rnd.key]}")
    return failed, notes


def _untraced(work, args) -> tuple[dict, object, list]:
    setup = _setup_seconds(WORKLOADS[args.workload], args.seed)
    state = work.prepare(args.seed, OUT)
    rounds = _rounds(work, state, args.seconds)
    values = {
        "setup_s": setup,
        "op_ms": 1000 * sum(r.seconds for r in rounds) / sum(r.count for r in rounds),
        "peak_rss_mb": _peak_rss_mb(),
    }
    for name, value in work.figures(rounds).items():
        print(f"figure {name} = {value:.6g}")
    return values, state, rounds


def _traced(work, args, spec) -> tuple[dict, object, list]:
    from spans import Tracer

    state = work.prepare(args.seed, OUT)
    rounds = _rounds(work, state, args.seconds)
    # The CLI's traced round runs cli_main in this process, so its untraced
    # reference does too; the other workloads compare with their round 0.
    inprocess = args.workload == "cli-csv"
    reference = work.run_round(state, 0, True) if inprocess else rounds[0]
    tracer = Tracer()
    tracer.install()
    try:
        work.build_inputs(args.seed)
        traced = work.run_round(state, 0, inprocess)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"trace-{args.workload}"))

    # Every per-layer metric is reported on every workload; one that the
    # workload does not exercise reads 0.
    values = {f"{n}.{s}": 0 for n in tracer.names for s in ("self_s", "calls")}
    for module in WORKLOADS.values():
        values.update(dict.fromkeys(importlib.import_module(module).FIGURES, 0))
    values.update({f"cli.{label}.peak_rss_mb": 0 for _, label in importlib.import_module("cli_csv").COMMANDS})
    values.update(work.figures(rounds))
    for label in rounds[0].peak_rss_mb:
        values[f"cli.{label}.peak_rss_mb"] = statistics.median(r.peak_rss_mb[label] for r in rounds)
    for name, row in tracer.summary().items():
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.calls"] = row["calls"]
    values.update(tracer.counters)
    calls = values["grouping.best_fit.calls"]
    values["grouping.best_fit.distinct_share"] = len(tracer.best_fit_inputs) / calls if calls else 0.0
    values["trace.overhead_pct"] = 100 * (traced.seconds / reference.seconds - 1)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    if missing:
        raise KeyError(f"per-layer metrics measured nowhere: {missing}")
    extra = [reference] if inprocess else []
    return values, state, rounds + extra + [traced]


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = importlib.import_module(WORKLOADS[args.workload])
    print(_environment_line())
    if args.trace:
        measured, state, rounds = _traced(work, args, spec)
    else:
        measured, state, rounds = _untraced(work, args)
    failed, notes = _failures(work, state, rounds)
    attempted = sum(r.count for r in rounds)
    for note in notes:
        print(f"FAILED {note}")
    print(f"digest {args.workload} seed={args.seed} {rounds[0].digest}")
    if hasattr(work, "cleanup"):
        work.cleanup(state)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "griddp" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no griddp sources under {SRC}; run from a griddp checkout", file=sys.stderr)
        return 2
    _pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
