"""Datasets partitioned into grids, and their occupancy arrays.

A dataset is a multiset of (user, grid, value) records with values in
[0, bound_u]; the occupancy array is the public table of per-(grid, user)
sample counts. Per-user sample order within a grid follows input order and is
meaningful: clipping keeps the first `gamma` samples of each user.

All tokens are strings and every iteration order in the public API is
lexicographic, so downstream algorithms are deterministic.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DuplicateEntry,
    EmptyDataset,
    EmptyValues,
    InvalidParams,
    IoError,
    MalformedRow,
    NonPositiveCount,
    UnknownGrid,
    ValueOutOfRange,
    require_positive,
)

DATA_HEADER = ("user", "grid", "value")
OCCUPANCY_HEADER = ("user", "grid", "count")


@dataclass(frozen=True)
class GridStats:
    """Exact (non-private) statistics of one grid."""

    grid: str
    n: int
    mean: float
    variance: float


class OccupancyArray:
    """Per-(grid, user) sample counts plus the derived structural quantities."""

    def __init__(self, counts: dict[str, dict[str, int]]):
        cleaned: dict[str, dict[str, int]] = {}
        for grid in sorted(counts):
            row = counts[grid]
            if not row:
                continue
            for user, m in row.items():
                if m <= 0:
                    raise NonPositiveCount(
                        f"count for user {user!r} in grid {grid!r} is {m}"
                    )
            cleaned[grid] = {u: int(row[u]) for u in sorted(row)}
        if not cleaned:
            raise EmptyDataset("occupancy has no entries")
        self._counts = cleaned
        self._grids_of: dict[str, list[str]] = {}
        for grid, row in cleaned.items():
            for user in row:
                self._grids_of.setdefault(user, []).append(grid)
        for user in self._grids_of:
            self._grids_of[user].sort()

    def grids(self) -> list[str]:
        return list(self._counts)

    def users(self) -> list[str]:
        return sorted(self._grids_of)

    def users_in(self, grid: str) -> list[str]:
        return list(self._require(grid))

    def grids_of(self, user: str) -> list[str]:
        return list(self._grids_of.get(user, []))

    def count(self, grid: str, user: str) -> int:
        return self._require(grid).get(user, 0)

    def counts_in(self, grid: str) -> list[int]:
        """Counts of a grid, ordered by user token."""
        row = self._require(grid)
        return [row[u] for u in row]

    def row(self, grid: str) -> dict[str, int]:
        return dict(self._require(grid))

    def total(self, grid: str) -> int:
        return sum(self._require(grid).values())

    def m_star(self, grid: str) -> int:
        return max(self._require(grid).values())

    def max_grids_per_user(self) -> int:
        """G_1: the largest number of grids any single user occupies."""
        return max(len(gs) for gs in self._grids_of.values())

    def _require(self, grid: str) -> dict[str, int]:
        if grid not in self._counts:
            raise UnknownGrid(f"grid {grid!r} not present")
        return self._counts[grid]

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {g: dict(row) for g, row in self._counts.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, OccupancyArray) and self._counts == other._counts

    def __repr__(self) -> str:
        return (
            f"OccupancyArray(grids={len(self._counts)}, "
            f"users={len(self._grids_of)})"
        )


class Dataset:
    """Samples keyed by grid then user; per-user order is input order."""

    def __init__(self, samples: dict[str, dict[str, list[float]]], bound_u: float):
        self.bound_u = require_positive("bound_u", bound_u)
        cleaned: dict[str, dict[str, tuple[float, ...]]] = {}
        for grid in sorted(samples):
            row = samples[grid]
            if not row:
                continue
            grid_row: dict[str, tuple[float, ...]] = {}
            for user in sorted(row):
                values = tuple(float(v) for v in row[user])
                if not values:
                    continue
                for v in values:
                    if not 0.0 <= v <= self.bound_u:
                        raise ValueOutOfRange(
                            f"value {v} for user {user!r} in grid {grid!r} "
                            f"outside [0, {self.bound_u}]"
                        )
                grid_row[user] = values
            if grid_row:
                cleaned[grid] = grid_row
        if not cleaned:
            raise EmptyDataset("dataset has no records")
        self._samples = cleaned

    def grids(self) -> list[str]:
        return list(self._samples)

    def users_in(self, grid: str) -> list[str]:
        return list(self._require(grid))

    def values(self, grid: str, user: str) -> tuple[float, ...]:
        return self._require(grid).get(user, ())

    def grid_values(self, grid: str) -> list[float]:
        """All samples of a grid, users in token order, per-user input order."""
        row = self._require(grid)
        out: list[float] = []
        for user in row:
            out.extend(row[user])
        return out

    def clipped_values(self, grid: str, retained: dict[str, int]) -> list[float]:
        """The first retained[user] samples of each user, in the same order."""
        row = self._require(grid)
        out: list[float] = []
        for user in row:
            keep = retained.get(user, len(row[user]))
            out.extend(row[user][:keep])
        return out

    def occupancy(self) -> OccupancyArray:
        return OccupancyArray(
            {
                g: {u: len(vals) for u, vals in row.items()}
                for g, row in self._samples.items()
            }
        )

    def _require(self, grid: str) -> dict[str, tuple[float, ...]]:
        if grid not in self._samples:
            raise UnknownGrid(f"grid {grid!r} not present")
        return self._samples[grid]


def population_stats(values: list[float]) -> tuple[int, float, float]:
    """(n, mean, population variance) of a non-empty value list, two-pass."""
    n = len(values)
    if n == 0:
        raise EmptyValues("cannot compute statistics of zero samples")
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return n, mean, variance


def grid_stats(dataset: Dataset, grid: str) -> GridStats:
    """Exact mean and population variance of one grid of a dataset."""
    values = dataset.grid_values(grid)
    n, mean, variance = population_stats(values)
    return GridStats(grid=grid, n=n, mean=mean, variance=variance)


def _read_source(path_or_text) -> str:
    if isinstance(path_or_text, Path):
        try:
            return path_or_text.read_text(encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot read {path_or_text}: {exc}") from exc
    if isinstance(path_or_text, str):
        if "\n" not in path_or_text and os.path.isfile(path_or_text):
            try:
                with open(path_or_text, encoding="utf-8") as fh:
                    return fh.read()
            except OSError as exc:
                raise IoError(f"cannot read {path_or_text}: {exc}") from exc
        return path_or_text
    raise InvalidParams(f"expected a path or CSV text, got {type(path_or_text)}")


def _rows(text: str, header: tuple[str, ...]):
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        raise EmptyDataset("input is empty") from None
    if tuple(f.strip().lower() for f in first) != header:
        raise MalformedRow(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    count = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise MalformedRow(f"line {lineno}: expected {len(header)} fields")
        fields = [f.strip() for f in row]
        if not fields[0] or not fields[1]:
            raise MalformedRow(f"line {lineno}: empty user or grid token")
        count += 1
        yield lineno, fields
    if count == 0:
        raise EmptyDataset("no data rows after header")


def parse_dataset(path_or_text, bound_u: float) -> Dataset:
    """Parse `user,grid,value` CSV into a Dataset, validating the value range.

    Repeated (user, grid) rows accumulate samples in file order.
    """
    text = _read_source(path_or_text)
    samples: dict[str, dict[str, list[float]]] = {}
    for lineno, (user, grid, raw) in _rows(text, DATA_HEADER):
        try:
            value = float(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: bad value {raw!r}") from None
        samples.setdefault(grid, {}).setdefault(user, []).append(value)
    return Dataset(samples, bound_u)


def parse_occupancy(path_or_text) -> OccupancyArray:
    """Parse `user,grid,count` CSV into an OccupancyArray."""
    text = _read_source(path_or_text)
    counts: dict[str, dict[str, int]] = {}
    for lineno, (user, grid, raw) in _rows(text, OCCUPANCY_HEADER):
        try:
            m = int(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: bad count {raw!r}") from None
        if m <= 0:
            raise NonPositiveCount(f"line {lineno}: count {m} must be >= 1")
        row = counts.setdefault(grid, {})
        if user in row:
            raise DuplicateEntry(f"line {lineno}: duplicate entry ({user}, {grid})")
        row[user] = m
    return OccupancyArray(counts)
