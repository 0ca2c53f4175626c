"""suppress-ladder: the privacy and error Monte Carlo curves at 2^16 - 1 users.

Inputs: SynthParams(16 grids, 65535 users, heavy_gamma 9) and an
ExperimentConfig with the workload seed, TRIALS trials and EPSILONS. A
round times harness.monte_carlo_error, then harness.monte_carlo_privacy;
each regenerates its trial occupancies and runs clip_user per trial and
epsilon, and only the error curve runs pseudo_user_optimize. No values are
generated and no mechanism runs. Every round repeats the same config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import oracle
from common import Round, digest
from griddp import composition, dataset, harness, synth

GRIDS = 16
USERS = 2**16 - 1
HEAVY_GAMMA = 9.0
EPSILONS = (0.5, 1.0, 2.0)
TRIALS = 2
FIGURES = ("mc_error_s", "mc_privacy_s")


def build_inputs(seed: int):
    params = synth.SynthParams(grids=GRIDS, users=USERS, heavy_gamma=HEAVY_GAMMA)
    config = harness.ExperimentConfig(epsilons=EPSILONS, seed=seed, trials=TRIALS)
    return params, config


@dataclass
class State:
    seed: int
    params: object
    config: object


def prepare(seed: int, workdir) -> State:
    return State(seed, *build_inputs(seed))


def run_round(state: State, index: int, inprocess: bool = False) -> Round:
    t0 = time.perf_counter()
    error = harness.monte_carlo_error(state.params, state.config)
    t1 = time.perf_counter()
    privacy = harness.monte_carlo_privacy(state.params, state.config)
    t2 = time.perf_counter()
    outputs = {
        curve: {(p.label, p.epsilon): p.value for p in points}
        for curve, points in (("error", error), ("privacy", privacy))
    }
    return Round(0, [("error", 1, t1 - t0), ("privacy", 1, t2 - t1)], outputs, digest(error, privacy))


def figures(rounds: list[Round]) -> dict[str, float]:
    return {
        f"mc_{kind}_s": float(np.median([t for r in rounds for k, _, t in r.ops if k == kind]))
        for kind in ("error", "privacy")
    }


def _occupancy(user, grid, count):
    """OccupancyArray with the synth tokens, built from regenerated arrays."""
    uw, gw = len(str(USERS)), len(str(GRIDS))
    rows: dict[str, dict[str, int]] = {}
    for u, g, m in zip(user.tolist(), grid.tolist(), count.tolist()):
        rows.setdefault(f"g{g + 1:0{gw}d}", {})[f"u{u + 1:0{uw}d}"] = m
    return dataset.OccupancyArray(rows)


def _trial(state: State, i: int, problems: dict[str, list[str]]) -> dict:
    """Per-trial values of every curve, from a regenerated occupancy."""
    p = state.params
    user, grid, count = oracle.tiered_occupancy(
        state.seed, [f"trial:{i}"], p.grids, p.users, p.geometric_q, p.heavy_gamma
    )
    sum_m = np.bincount(grid, weights=count, minlength=p.grids).astype(np.int64)
    peak = np.zeros(p.grids, dtype=np.int64)
    np.maximum.at(peak, grid, count)
    occ = _occupancy(user, grid, count)
    u_bound = p.bound_u
    out = {"naive": int(np.bincount(user).max())}
    for eps in EPSILONS:
        cap = float(oracle.budget(sum_m, sum_m, peak, u_bound, eps).max())
        res = composition.clip_user(occ, u_bound, eps, state.config.protect_min_error_grid)
        if not oracle.close(res.error_cap, cap):
            problems["both"].append(f"trial {i} eps {eps}: cap {res.error_cap} != {cap}")
        kept_grids: dict[str, int] = {}
        best = []
        for g in occ.grids():
            row, plan = occ.row(g), res.plan.row(g)
            gammas = [plan[u] for u in row]
            if set(plan) != set(row) or any(x not in (0, row[u]) for u, x in plan.items()):
                problems["both"].append(f"trial {i} eps {eps}: plan row {g} is not all-or-none")
            for u, x in plan.items():
                kept_grids[u] = kept_grids.get(u, 0) + (x > 0)
            total = sum(row.values())
            final = float(oracle.budget(total, sum(gammas), max(gammas), u_bound, eps))
            if final > cap * (1 + 1e-12):
                problems["both"].append(f"trial {i} eps {eps}: grid {g} budget {final} > cap")
            best.append(oracle.best_cap_budget(total, gammas, u_bound, eps))
        if max(kept_grids.values()) != res.k_factor:
            problems["both"].append(f"trial {i} eps {eps}: k_factor {res.k_factor} miscounted")
        out[("initial", eps)] = cap
        out[("optimized", eps)] = max(best)
        out[("suppressed", eps)] = res.k_factor * eps
        if i == 0 and eps == EPSILONS[0]:
            opt = composition.pseudo_user_optimize(occ, res.plan, u_bound, eps)
            for g, m in opt.per_grid_m.items():
                gam = [x for x in res.plan.row(g).values() if x > 0]
                at_m = float(oracle.budget(occ.total(g), sum(min(x, m) for x in gam), m, u_bound, eps))
                if not oracle.close(at_m, best[occ.grids().index(g)]):
                    problems["error"].append(f"grid {g}: cap {m} misses the scan minimum")
    return out


def check(state: State, rnd: Round) -> dict[str, tuple[int, str]]:
    """Failed curves of a round: {curve: (1, reason)}."""
    problems: dict[str, list[str]] = {"both": [], "error": [], "privacy": []}
    trials = [_trial(state, i, problems) for i in range(TRIALS)]
    naive = np.mean([t["naive"] for t in trials])
    want = {"error": {}, "privacy": {}}
    for eps in EPSILONS:
        for label in ("initial", "optimized"):
            want["error"][(label, eps)] = float(np.mean([t[(label, eps)] for t in trials]))
        want["privacy"][("suppressed", eps)] = float(np.mean([t[("suppressed", eps)] for t in trials]))
        want["privacy"][("naive", eps)] = float(naive * eps)
    for curve, expected in want.items():
        got = rnd.outputs[curve]
        if set(got) != set(expected):
            problems[curve].append(f"{curve} curve points {sorted(got)}")
            continue
        for key, value in expected.items():
            if not oracle.close(got[key], value):
                problems[curve].append(f"{curve} {key}: {got[key]} != {value}")
        for eps in EPSILONS:
            low, high = ("optimized", "initial") if curve == "error" else ("suppressed", "naive")
            if got[(low, eps)] > got[(high, eps)] * (1 + 1e-12):
                problems[curve].append(f"{low} > {high} at eps {eps}")
    return {
        curve: (1, "; ".join(problems["both"] + problems[curve]))
        for curve in ("error", "privacy")
        if problems["both"] or problems[curve]
    }
