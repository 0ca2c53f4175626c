"""Command line surface.

Subcommands cover the full pipeline: dataset statistics, sensitivity and
bias calculators, private releases, the suppression routine, synthetic
data, Monte Carlo curves, MAE curves, and scaling-law checks. Output is
CSV by default or JSON with --format json, written to stdout or --out.

Options shared by several subcommands are defined once, and every
default is the library's own. Randomized subcommands require --seed,
either on the command line or via --config, a file of KEY=VALUE lines that
may supply any option, a required one too. Each line is checked as its flag
is, command-line flags win, and a key that names no option of any
subcommand is a usage error. Identical inputs and seed give identical output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from functools import partial
from itertools import chain, islice
from pathlib import Path

from .composition import clip_user
from .dataset import (
    DATA_HEADER, ClipPlan, csv_lines, grid_stats, parse_dataset, parse_occupancy, write_dataset
)
from .errors import GridDPError, IoError, UsageError, read_utf8
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


# The most points an epsilon range may have, counted before any is built;
# the paper's curves use 20.
_MAX_EPS_POINTS = 10_000

# Rows per json.dumps call of JSON table output, which bounds its memory.
_JSON_CHUNK = 4096


def _parse_eps_grid(text: str) -> list[float]:
    """Either "lo:hi:step" (inclusive, at most _MAX_EPS_POINTS points) or a
    comma-separated list."""
    try:
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0 or hi < lo:
                raise ValueError
            n = int((hi - lo) / step + 1e-9) + 1
            if n > _MAX_EPS_POINTS:
                raise UsageError(f"epsilon grid {text!r} has {n} points, over {_MAX_EPS_POINTS}")
            return [round(lo + i * step, 10) for i in range(n)]
        return [float(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, OverflowError):
        raise UsageError(f"cannot parse epsilon grid {text!r}") from None


def _config_flags(argv: list[str], commands: dict) -> list[str]:
    """argv's last --config file as flags of subcommand argv[0]: a key naming only
    another subcommand's option is skipped, and one naming no option is a usage error."""
    own = commands[argv[0]]._option_string_actions
    path = None
    for arg, following in zip(argv[1:], argv[2:] + [None]):
        flag, eq, value = arg.partition("=")
        if [s for s in own if s.startswith(flag)] == ["--config"]:  # as argparse abbreviates
            path = value if eq else following
    if path is None:
        return []
    known = {s for sp in commands.values() for s in sp._option_string_actions} - {"-h", "--help"}
    out = []
    for lineno, line in enumerate(read_utf8(path, "config ").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise UsageError(f"{path}:{lineno}: no subcommand has an option {key!r}")
        if flag not in own:
            continue
        if own[flag].nargs != 0:
            out.append(f"{flag}={value}")  # a value that starts with - stays a value
        elif value.lower() == "true":
            out.append(flag)
        elif value.lower() != "false":
            raise UsageError(f"{path}:{lineno}: {key} must be true or false, got {value!r}")
    return out


def _write_json_rows(fh, objects) -> None:
    """json.dumps(list(objects), indent=2) and a newline, written a chunk of
    objects at a time: each chunk's dumps without its opening "[\n" and
    closing "\n]", the chunks joined by ",\n"."""
    objects = iter(objects)
    sep = "[\n"
    while chunk := list(islice(objects, _JSON_CHUNK)):
        fh.write(sep + json.dumps(chunk, indent=2)[2:-2])
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")


def _write(fh, fmt: str, rows, fields: list[str], json_obj) -> None:
    if fmt == "json" and json_obj is not None:
        fh.write(json.dumps(json_obj, indent=2) + "\n")
    elif fmt == "json":
        _write_json_rows(fh, (dict(zip(fields, r)) for r in rows))
    else:
        fh.writelines(csv_lines(chain([fields], rows)))


def _output(args, write) -> None:
    """Call write(fh) on the --out file, or on stdout."""
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    else:
        write(sys.stdout)


def _emit(args, rows, fields: list[str], json_obj=None) -> None:
    """Write rows, tuples in the order of fields, as CSV (None is written
    empty) or as JSON objects (json_obj instead, when given)."""
    _output(args, lambda fh: _write(fh, args.format, rows, fields, json_obj))


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
    # the whole plan is checked before any grid is released
    plan = ClipPlan.for_occupancy(ds.occupancy(), plan) if plan is not None else None
    grids = [args.grid] if args.grid else ds.grids()
    root = RngStream(args.seed)
    rows = []
    for g in grids:
        rng = root.split(f"grid:{g}")
        if plan is not None:
            out = clip_release(ds, g, plan, params, rng)
        else:
            out = release(ds, g, args.mech, params, rng)
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
        "plan": res.plan.retained,
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
        if args.format == "csv":
            _output(args, partial(write_dataset, ds))
        else:
            rows = ((u, g, v) for u, g, values in ds._pairs() for v in values.tolist())
            _emit(args, rows, list(DATA_HEADER))
        return
    counts = memoryview(occ._counts)
    rows = ((u, g, counts[e]) for u, g, e in occ._by_user())
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
        # config flags go before the typed ones, so argparse checks both and typed flags win
        if argv and argv[0] in commands:
            argv[1:1] = _config_flags(argv, commands)
        args = parser.parse_args(argv)
        if "seed" in args and args.seed is None:
            raise UsageError("--seed is required (on the command line or via --config)")
        args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return 0
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull,
        # so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
