"""Seeded outputs that do not depend on the interpreter's builtin sum.

From Python 3.12 on, the builtin sum adds floats with Neumaier's
compensation (Neumaier 1974), where 3.11 adds them left to right. Every
float sum on a seeded path adds left to right through dataset.left_sum, so
the golden cases of test_golden.py must come out bit for bit the same with
builtins.sum replaced by a model of 3.12's sum.
"""

import builtins
import math
from itertools import chain

import numpy as np
import pytest

from griddp.dataset import left_sum
from griddp.harness import ExperimentConfig, monte_carlo_error, monte_carlo_privacy
from griddp.synth import SynthParams
from test_golden import (
    CLI_CASES,
    CLI_GOLDEN,
    CURVE_GOLDEN,
    MAE_CASES,
    MAE_GOLDEN,
    RELEASE_CASES,
    RELEASE_GOLDEN,
    _mae,
    _release,
    _write_cli_inputs,
    cli_digest,
)


def compensated_sum(iterable, /, start=0):
    """A model of Python 3.12's builtin sum, in its three phases: ints are
    added exactly onto an int total; once the total is a float, each float
    is added with Neumaier's compensation and each int as a float; any other
    item, and every item after it, is added with +."""
    items, total = iter(iterable), start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif type(item) in (int, bool):
                total += float(item)
            else:
                items = chain([item], items)
                break
        # the compensation is not added to an infinite or overflowed total
        if compensation and math.isfinite(compensation):
            total += compensation
    for item in items:
        total = total + item
    return total


@pytest.fixture
def sum_312(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_the_model_compensates_floats_only():
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert compensated_sum([2**70, 1, -(2**70)]) == 1
    assert compensated_sum([[1], [2]], []) == [1, 2]
    # a numpy float is no exact float, so it and what follows add plainly
    assert compensated_sum([np.float64(1.0), 1e100, 1.0, -1e100]) == 0.0
    assert compensated_sum([]) == 0 and compensated_sum([0.5], 1) == 1.5


@pytest.mark.usefixtures("sum_312")
@pytest.mark.parametrize("name", sorted(MAE_CASES))
def test_mae_eval_golden_under_compensated_sum(name):
    assert _mae(name) == MAE_GOLDEN[name]


@pytest.mark.usefixtures("sum_312")
@pytest.mark.parametrize("name", sorted(RELEASE_CASES))
def test_release_golden_under_compensated_sum(name):
    assert _release(name) == RELEASE_GOLDEN[name]


@pytest.mark.usefixtures("sum_312")
@pytest.mark.parametrize("curve", sorted(CURVE_GOLDEN))
def test_monte_carlo_curve_golden_under_compensated_sum(curve):
    params = SynthParams(grids=6, users=63, heavy_gamma=3.0)
    config = ExperimentConfig(epsilons=(0.5, 2.0), seed=13, trials=3)
    run = monte_carlo_error if curve == "error" else monte_carlo_privacy
    points = [(p.label, p.epsilon, float.hex(p.value)) for p in run(params, config)]
    assert points == CURVE_GOLDEN[curve]


@pytest.mark.usefixtures("sum_312")
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_golden_under_compensated_sum(name, tmp_path):
    files = _write_cli_inputs(tmp_path)
    argv = [arg.format(**files) for arg in CLI_CASES[name]]
    assert cli_digest(argv) == CLI_GOLDEN[name]
