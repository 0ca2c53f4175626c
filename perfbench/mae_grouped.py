"""mae-grouped: simulated releases for an MAE curve on one large grid.

Inputs: the CLI's synthetic dataset for the workload seed (12 grids x 4095
users, heavy_gamma 3, about 820k projected-normal samples); the grid with
the most samples is released. A round calls harness.mae_eval once per
variant (array_average, levy, quantile fixed, quantile optimized) at
EPSILONS with DRAWS draws each. Round r uses config seed (seed << 16) + r,
so every round draws fresh noise over the same data. Each draw today
redoes the grouping of the same grid; the round stays whole and timed
however cheap a draw becomes, because the run repeats rounds until its
time is up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import oracle
from common import Round, digest
from griddp import dataset, grouping, harness, mechanisms, rng, synth

EPSILONS = (0.5, 1.0, 2.0)
DRAWS = 20
GAMMA = 0.2
VARIANTS = (
    ("array_average", "fixed"),
    ("levy", "fixed"),
    ("quantile", "fixed"),
    ("quantile", "optimized"),
)
# The first round replays every draw at this epsilon through release().
REPLAY_EPSILON = 1
FIGURES = tuple(f"mae_{kind}_draws_per_s" for kind in ("array_average", "levy", "quantile"))


def build_inputs(seed: int):
    root = rng.RngStream(seed)
    occ = synth.generate_occupancy(synth.SynthParams(heavy_gamma=3), root)
    return synth.generate_values(occ, synth.ValueModel(), root)


@dataclass
class State:
    seed: int
    data: object
    grid: str
    facts: dict | None = None


def prepare(seed: int, workdir) -> State:
    data = build_inputs(seed)
    grid = max(data.grids(), key=lambda g: len(data.grid_values(g)))
    return State(seed, data, grid)


def _config_seed(state: State, index: int) -> int:
    return (state.seed << 16) + index


def run_round(state: State, index: int, inprocess: bool = False) -> Round:
    ops, values = [], []
    for mech, mode in VARIANTS:
        config = harness.ExperimentConfig(
            epsilons=EPSILONS,
            seed=_config_seed(state, index),
            trials=1,
            mechanism=mech,
            mae_draws=DRAWS,
        )
        t0 = time.perf_counter()
        points = harness.mae_eval(state.data, state.grid, config, quantile_mode=mode)
        ops.append((mech, len(EPSILONS) * DRAWS, time.perf_counter() - t0))
        values.append([p.value for p in points])
    return Round(index, ops, values, digest(values))


def figures(rounds: list[Round]) -> dict[str, float]:
    out = {}
    for name in FIGURES:
        kind = name[len("mae_") : -len("_draws_per_s")]
        n = sum(c for r in rounds for k, c, _ in r.ops if k == kind)
        s = sum(t for r in rounds for k, _, t in r.ops if k == kind)
        out[name] = n / s
    return out


def _grid_facts(state: State) -> dict:
    """Checks on the input grid and its packings; run once per process."""
    ds, grid = state.data, state.grid
    users = ds.users_in(grid)
    samples = {u: ds.values(grid, u) for u in users}
    counts = [len(samples[u]) for u in users]
    values = np.array(ds.grid_values(grid))
    true_mean = dataset.grid_stats(ds, grid).mean
    problems = []
    if not oracle.close(true_mean, float(values.mean()), 1e-12):
        problems.append(f"grid mean {true_mean} != numpy {values.mean()}")
    c_opt, c_med = oracle.capacities(counts)
    if (grouping.optimized_mub(counts), grouping.median_mub(counts)) != (c_opt, c_med):
        problems.append(f"capacities differ from the brute-force scan ({c_opt}, {c_med})")
    packed = {}
    for cap in (c_opt, c_med):
        groups = grouping.best_fit(samples, cap)
        home: dict[str, int] = {}
        kept: dict[str, list[float]] = {}
        for g in groups:
            if len(g.values) > cap:
                problems.append(f"array {g.index} holds {len(g.values)} > {cap}")
            for u, v in zip(g.source_users, g.values):
                if home.setdefault(u, g.index) != g.index:
                    problems.append(f"user {u} split across arrays at capacity {cap}")
                kept.setdefault(u, []).append(v)
        if set(kept) != set(users):
            problems.append(f"best fit at capacity {cap} drops users")
        for u in kept:
            if kept[u] != list(samples[u][: min(len(samples[u]), cap)]):
                problems.append(f"best fit at capacity {cap} alters user {u}'s samples")
                break
        if sum(len(g.values) for g in groups) != sum(min(m, cap) for m in counts):
            problems.append(f"best fit at capacity {cap} holds the wrong sample count")
        means = np.array([np.mean(g.values) for g in groups])
        packed[cap] = (len(groups), float(means.mean()))
    return {
        "problems": problems,
        "true_mean": true_mean,
        "c_opt": c_opt,
        "k_opt": packed[c_opt][0],
        "k_med": packed[c_med][0],
        "bias_med": packed[c_med][1] - float(values.mean()),
    }


def _replay(state: State, facts: dict, rnd: Round) -> dict[str, tuple[int, str]]:
    """Re-run every draw of the first round at one epsilon through release()."""
    fails = {}
    ei = REPLAY_EPSILON
    eps = EPSILONS[ei]
    u_bound = state.data.bound_u
    root = rng.RngStream(_config_seed(state, rnd.key))
    for vi, (mech, mode) in enumerate(VARIANTS):
        params = mechanisms.MechanismParams(
            bound_u=u_bound, epsilon=eps, gamma=GAMMA, quantile_mode=mode
        )
        errors, bad = [], []
        for i in range(DRAWS):
            out = mechanisms.release(state.data, state.grid, mech, params, root.split(f"mae:{ei}:{i}"))
            errors.append(abs(out.noisy_mean - facts["true_mean"]))
            if mech == "array_average":
                k = facts["k_med"]
                ok = out.arrays == k and oracle.close(out.noise_scale_mean, u_bound / (k * eps))
            else:
                k = facts["k_opt"]
                a, b = out.interval
                ok = (
                    out.arrays == k
                    and 0 <= a <= b <= u_bound
                    and oracle.close(out.noise_scale_mean, 2 * (b - a) / (k * eps))
                )
                if mech == "levy":
                    ok = ok and b - a <= 3 * oracle.tau(u_bound, k, GAMMA, facts["c_opt"]) + 1e-9
            if not ok:
                bad.append(i)
        if bad:
            fails[f"{mech}/{mode} eps={eps}"] = (DRAWS, f"replayed draws {bad} break the interval or noise scale")
        elif not oracle.close(sum(errors) / len(errors), rnd.outputs[vi][ei], 1e-12):
            fails[f"{mech}/{mode} eps={eps}"] = (DRAWS, "replayed draws do not reproduce the MAE")
    return fails


def check(state: State, rnd: Round) -> dict[str, tuple[int, str]]:
    """Failed operations of a round: {operation group: (count, reason)}."""
    if state.facts is None:
        state.facts = _grid_facts(state)
    facts = state.facts
    if facts["problems"]:
        return {"grid": (rnd.count, "; ".join(facts["problems"]))}
    fails = {}
    for vi, (mech, mode) in enumerate(VARIANTS):
        for ei, eps in enumerate(EPSILONS):
            value = rnd.outputs[vi][ei]
            ok = math.isfinite(value) and value >= 0
            if ok and mech == "array_average":
                scale = state.data.bound_u / (facts["k_med"] * eps)
                expected, sd = oracle.laplace_mae(facts["bias_med"], scale)
                ok = abs(value - expected) <= 6 * sd / math.sqrt(DRAWS)
            if not ok:
                fails[f"{mech}/{mode} eps={eps}"] = (DRAWS, f"MAE {value} off its expected range")
    if rnd.key == 0:
        fails.update(_replay(state, facts, rnd))
    return fails
