"""Command line surface.

Subcommands cover the full pipeline: dataset statistics, sensitivity and
bias calculators, private releases, the suppression routine, synthetic
data, Monte Carlo curves, MAE curves, and scaling-law checks. Output is
CSV by default or JSON with --format json, written to stdout or --out.

Options shared by several subcommands are defined once, and every
default is the library's own. Randomized subcommands require --seed,
either on the command line or via --config, a file of KEY=VALUE lines
supplying defaults for any option that is not required (command-line
values win); a key that names no option of any subcommand is a usage
error. Identical inputs and seed produce byte identical output.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from functools import partial
from itertools import chain, repeat
from pathlib import Path

from .composition import clip_user
from .dataset import grid_stats, parse_dataset, parse_occupancy
from .errors import GridDPError, InvalidPlan, IoError, OccupancyMismatch, UsageError, read_utf8
from .grouping import STRATEGIES
from .harness import (
    ExperimentConfig,
    check_scaling_laws,
    mae_eval,
    monte_carlo_error,
    monte_carlo_privacy,
)
from .mechanisms import (
    MECHANISMS,
    QUANTILE_MODES,
    MechanismParams,
    clip_release,
    release,
)
from .rng import RngStream
from .sensitivity import (
    clipped_mean_sensitivity,
    clipped_variance_sensitivity,
    mean_sensitivity,
    variance_sensitivity,
)
from .synth import SynthParams, ValueModel, generate_occupancy, generate_values
from .worst_case_bias import mean_bias, variance_bias


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_eps_grid(text: str) -> list[float]:
    """Either "lo:hi:step" (inclusive) or a comma-separated list."""
    try:
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0:
                raise ValueError
            n = int((hi - lo) / step + 1e-9) + 1
            return [round(lo + i * step, 10) for i in range(n)]
        return [float(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"cannot parse epsilon grid {text!r}") from None


def _coerce(value: str):
    low = value.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            continue
    return low


def _load_config(path: str, options: set[str]) -> dict:
    """KEY=VALUE lines as a mapping; each key must name one of options."""
    out = {}
    for lineno, line in enumerate(read_utf8(path, "config ").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in options:
            raise UsageError(f"{path}:{lineno}: no subcommand has an option {key.strip()!r}")
        out[dest] = _coerce(value)
    return out


def _write(fh, fmt: str, rows, fields: list[str], json_obj) -> None:
    if fmt == "json":
        payload = json_obj if json_obj is not None else [dict(zip(fields, r)) for r in rows]
        fh.write(json.dumps(payload, indent=2) + "\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)


def _emit(args, rows, fields: list[str], json_obj=None) -> None:
    """Write rows, tuples in the order of fields, as CSV (None is written
    empty) or as JSON objects (json_obj instead, when given)."""
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                _write(fh, args.format, rows, fields, json_obj)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    else:
        _write(sys.stdout, args.format, rows, fields, json_obj)


def _cmd_stats(args) -> None:
    ds = parse_dataset(args.data, args.u)
    stats = [grid_stats(ds, g) for g in ([args.grid] if args.grid else ds.grids())]
    rows = [(st.grid, st.n, st.mean, st.variance) for st in stats]
    _emit(args, rows, ["grid", "n", "mean", "variance"])


def _cmd_sensitivity(args) -> None:
    counts = _parse_int_list(args.counts)
    reports = [(full(counts, args.u), "full") for full in (mean_sensitivity, variance_sensitivity)]
    if args.retained is not None:
        gammas = _parse_int_list(args.retained)
        for clipped in (clipped_mean_sensitivity, clipped_variance_sensitivity):
            reports.append((clipped(gammas, args.u), "clipped"))
    rows = [(rep.target, scope, rep.value, rep.branch) for rep, scope in reports]
    _emit(args, rows, ["target", "scope", "value", "branch"])


def _cmd_bias(args) -> None:
    counts = _parse_int_list(args.counts)
    gammas = _parse_int_list(args.retained)
    reports = [bias(counts, gammas, args.u) for bias in (mean_bias, variance_bias)]
    rows = [(rep.target, rep.value, rep.branch) for rep in reports]
    _emit(args, rows, ["target", "value", "branch"])


def _load_plan(path: str) -> dict:
    text = read_utf8(path, "plan ")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"plan {path} is not valid JSON: {exc}") from None
    if isinstance(obj, dict) and "plan" in obj:
        obj = obj["plan"]
    if not isinstance(obj, dict):
        raise UsageError(f"plan {path} must be a grid -> user -> count mapping")
    for grid, row in obj.items():
        if not isinstance(row, dict):
            raise InvalidPlan(f"plan entry for grid {grid} must map users to counts, got {row!r}")
        for user, count in row.items():
            # JSON true/false load as bool, a subclass of int.
            if isinstance(count, bool) or not isinstance(count, int):
                raise InvalidPlan(
                    f"plan count for user {user} in grid {grid} must be an integer, got {count!r}"
                )
    return obj


def _packing(args) -> dict:
    """The packing options, each a MechanismParams field and mae_eval argument."""
    names = ("gamma", "strategy", "capacity", "quantile_mode")
    return {name: getattr(args, name) for name in names}


def _cmd_mechanism(args) -> None:
    ds = parse_dataset(args.data, args.u)
    params = MechanismParams(bound_u=args.u, epsilon=args.eps, **_packing(args))
    plan = _load_plan(args.plan) if args.plan else None
    if plan is not None and args.mech != "clip":
        raise UsageError("--plan only applies to the clip mechanism")
    missing = sorted(set(plan or ()) - set(ds.grids()))
    if missing:
        raise OccupancyMismatch(f"plan names grids absent from the data: {missing}")
    grids = [args.grid] if args.grid else ds.grids()
    root = RngStream(args.seed)
    rows = []
    for g in grids:
        sub = root.split(f"grid:{g}")
        if args.mech == "clip" and plan is not None:
            out = clip_release(ds, g, plan.get(g, {}), params, sub)
        else:
            out = release(ds, g, args.mech, params, sub)
        a, b = out.interval or (None, None)
        means = (out.noisy_mean, out.noise_scale_mean, out.noisy_variance, out.noise_scale_var)
        rows.append((out.grid, out.mechanism, *means, a, b, out.arrays, out.degenerate_ranks))
    fields = ["grid", "mechanism", "noisy_mean", "noise_scale_mean", "noisy_variance"]
    fields += ["noise_scale_var", "interval_a", "interval_b", "arrays", "degenerate_ranks"]
    _emit(args, rows, fields)


def _cmd_clip_user(args) -> None:
    occ = parse_occupancy(args.occupancy)
    res = clip_user(occ, args.u, args.eps, args.protect_min_grid)
    fields = ["record", "stage", "user", "grid", "error"]
    fields += ["k_factor", "error_cap", "initial", "final"]
    rows = [("summary", None, None, None, None, res.k_factor, res.error_cap, None, None)]
    for s in res.trace:
        rows.append(("suppression", s.stage, s.user, s.grid, s.error, None, None, None, None))
    for g in occ.grids():
        initial, final = res.initial_errors[g].total, res.per_grid_errors[g].total
        rows.append(("grid", None, None, g, None, None, None, initial, final))
    json_obj = {
        "k_factor": res.k_factor,
        "error_cap": res.error_cap,
        "trace": [
            {"stage": s.stage, "user": s.user, "grid": s.grid, "error": s.error}
            for s in res.trace
        ],
        "initial_errors": {g: res.initial_errors[g].total for g in occ.grids()},
        "per_grid_errors": {g: res.per_grid_errors[g].total for g in occ.grids()},
        "plan": {g: res.plan.retained[g] for g in occ.grids()},
    }
    _emit(args, rows, fields, json_obj)


def _synth_params(args) -> SynthParams:
    return SynthParams(args.grids, args.users, args.u, args.q, args.heavy_gamma)


def _cmd_synth(args) -> None:
    root = RngStream(args.seed)
    occ = generate_occupancy(_synth_params(args), root)
    if args.values:
        model = ValueModel(mean=args.mu, variance=args.sigma2, bound_u=args.u)
        ds = generate_values(occ, model, root)
        # rows by (user, grid), each pair's values in draw order
        pairs = sorted((u, g) for g in ds.grids() for u in ds.users_in(g))
        rows = chain.from_iterable(zip(repeat(u), repeat(g), ds.values(g, u)) for u, g in pairs)
        _emit(args, rows, ["user", "grid", "value"])
        return
    rows = sorted((u, g, m) for g in occ.grids() for u, m in occ.row(g).items())
    _emit(args, rows, ["user", "grid", "count"])


def _cmd_montecarlo(args) -> None:
    params = _synth_params(args)
    config = ExperimentConfig(
        epsilons=tuple(_parse_eps_grid(args.eps)),
        seed=args.seed,
        trials=args.trials,
        protect_min_error_grid=not args.no_protect,
    )
    points = (
        monte_carlo_privacy(params, config)
        if args.mode == "privacy"
        else monte_carlo_error(params, config)
    )
    rows = [(p.epsilon, p.value, p.label) for p in points]
    _emit(args, rows, ["epsilon", "value", "label"])


def _cmd_mae(args) -> None:
    ds = parse_dataset(args.data, args.u)
    config = ExperimentConfig(
        epsilons=tuple(_parse_eps_grid(args.eps)),
        seed=args.seed,
        mechanism=args.mech,
        mae_draws=args.draws,
    )
    points = mae_eval(ds, args.grid, config, **_packing(args))
    rows = [(p.epsilon, p.value, p.label) for p in points]
    _emit(args, rows, ["epsilon", "value", "label"])


def _cmd_scaling(args) -> None:
    checks = check_scaling_laws(
        _parse_int_list(args.counts), _parse_int_list(args.lambdas), bound_u=args.u
    )
    rows = [(c.law, c.mode, c.lam, c.passed, c.detail) for c in checks]
    _emit(args, rows, ["law", "mode", "lam", "passed", "detail"])


def _build_parser():
    """The griddp parser and its subparsers; shared options are defined once."""
    group = partial(argparse.ArgumentParser, add_help=False)
    output = group()
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default="-", help="output path, - for stdout")
    output.add_argument("--config", default=None, help="KEY=VALUE defaults file")
    seeded = group()
    seeded.add_argument("--seed", type=int, default=None, help="rng seed (required)")
    bound = group()
    bound.add_argument("--u", type=float, required=True)
    counts = group()
    counts.add_argument("--counts", required=True)
    data = group(parents=[bound])
    data.add_argument("--data", type=Path, required=True)
    shape = group()
    shape.add_argument("--grids", type=int, default=SynthParams.grids)
    shape.add_argument("--users", type=int, default=SynthParams.users)
    shape.add_argument("--u", type=float, default=SynthParams.bound_u)
    shape.add_argument("--q", type=float, default=SynthParams.geometric_q)
    shape.add_argument("--heavy-gamma", type=float, default=SynthParams.heavy_gamma)
    packing = group()
    packing.add_argument("--strategy", choices=STRATEGIES, default=MechanismParams.strategy)
    packing.add_argument("--capacity", type=int, default=MechanismParams.capacity)
    packing.add_argument("--gamma", type=float, default=MechanismParams.gamma)
    packing.add_argument(
        "--quantile-mode", choices=QUANTILE_MODES, default=MechanismParams.quantile_mode
    )

    parser = argparse.ArgumentParser(
        prog="griddp",
        description="user-level DP releases over grid-partitioned data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, *parents):
        sp = sub.add_parser(name, help=text, parents=[output, *parents])
        sp.set_defaults(handler=handler)
        return sp

    sp = command("stats", _cmd_stats, "per-grid sample statistics", data)
    sp.add_argument("--grid", default=None)

    sp = command("sensitivity", _cmd_sensitivity, "mean/variance sensitivities", counts, bound)
    sp.add_argument("--retained", default=None)

    sp = command("bias", _cmd_bias, "worst-case clipping bias", counts, bound)
    sp.add_argument("--retained", required=True)

    text = "private release of grid statistics"
    sp = command("mechanism", _cmd_mechanism, text, seeded, data, packing)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--mech", choices=MECHANISMS, required=True)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--plan", default=None, help="JSON retention plan (clip only)")

    sp = command("clip-user", _cmd_clip_user, "iterative user suppression", bound)
    sp.add_argument("--occupancy", type=Path, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--protect-min-grid", action="store_true")

    sp = command("synth", _cmd_synth, "synthetic occupancy or dataset", seeded, shape)
    sp.add_argument("--values", action="store_true", help="emit sample values")
    sp.add_argument("--mu", type=float, default=ValueModel.mean)
    sp.add_argument("--sigma2", type=float, default=ValueModel.variance)

    text = "privacy/error curves on synthetic draws"
    sp = command("montecarlo", _cmd_montecarlo, text, seeded, shape)
    sp.add_argument("--mode", choices=("privacy", "error"), required=True)
    sp.add_argument("--eps", required=True, help="lo:hi:step or comma list")
    sp.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    sp.add_argument("--no-protect", action="store_true")

    sp = command("mae", _cmd_mae, "mean absolute error curve for one grid", seeded, data, packing)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--eps", required=True, help="lo:hi:step or comma list")
    sp.add_argument("--mech", choices=MECHANISMS, default=ExperimentConfig.mechanism)
    sp.add_argument("--draws", type=int, default=ExperimentConfig.mae_draws)

    sp = command("scaling", _cmd_scaling, "grouping scaling-law checks", counts)
    sp.add_argument("--lambdas", required=True)
    scaling_u = inspect.signature(check_scaling_laws).parameters["bound_u"].default
    sp.add_argument("--u", type=float, default=scaling_u)
    return parser, sub.choices


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        # A config file supplies defaults, so once argparse has found it (in
        # any spelling, such as --config=PATH) the arguments are parsed again.
        if args.config is not None:
            options = {a.dest for sp in commands.values() for a in sp._actions}
            mapping = _load_config(args.config, options)
            for sp in commands.values():
                sp.set_defaults(**mapping)
            args = parser.parse_args(argv)
        if "seed" in args and args.seed is None:
            raise UsageError("--seed is required (on the command line or via --config)")
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridDPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
