"""Pieces shared by the workloads: the round record and timed CLI children."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Round:
    """One round of a workload's operations and what they produced.

    ops holds (kind, operations, seconds) per timed call. Rounds with the
    same key ran the same operations on the same inputs, so their digests
    must match.
    """

    key: int
    ops: list[tuple[str, int, float]]
    outputs: object
    digest: str
    peak_rss_mb: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(s for _, _, s in self.ops)

    @property
    def count(self) -> int:
        return sum(n for _, n, _ in self.ops)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return h.hexdigest()


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's griddp, one thread."""
    env = dict(os.environ)
    env.pop("DP_COMPOSER_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run `python <args>`; return (exit code, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024
