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
import os
import re
from dataclasses import dataclass
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptyDataset,
    EmptyValues,
    InvalidParams,
    MalformedRow,
    NonPositiveCount,
    UnknownGrid,
    ValueOutOfRange,
    read_utf8,
    require_ints,
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
            users = sorted(row)
            ms = require_ints(f"count in grid {grid!r}", map(row.__getitem__, users))
            if min(ms) <= 0:
                user, m = next((u, m) for u, m in row.items() if m <= 0)
                raise NonPositiveCount(f"count for user {user!r} in grid {grid!r} is {m}")
            cleaned[grid] = dict(zip(users, ms))
        if not cleaned:
            raise EmptyDataset("occupancy has no entries")
        self._counts = cleaned
        self._grids_of: dict[str, list[str]] = {}
        # grids arrive in sorted order, so each user's list is sorted
        for grid, row in cleaned.items():
            for user in row:
                self._grids_of.setdefault(user, []).append(grid)

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
            grid_row: dict[str, tuple[float, ...]] = {}
            try:
                for user in sorted(row):
                    values = tuple(map(float, row[user]))
                    if values:
                        grid_row[user] = values
            except Exception:
                # each user is range-checked before the next is converted
                self._check_range(grid, grid_row)
                raise
            if grid_row:
                self._check_range(grid, grid_row)
                cleaned[grid] = grid_row
        if not cleaned:
            raise EmptyDataset("dataset has no records")
        self._samples = cleaned

    def _check_range(self, grid: str, row: dict[str, tuple[float, ...]]) -> None:
        """Raise ValueOutOfRange for the first bad value in user, input order."""
        flat = np.fromiter(chain.from_iterable(row.values()), float)
        # NaN fails both comparisons, as it fails the scalar check below
        if ((flat >= 0.0) & (flat <= self.bound_u)).all():
            return
        for user, values in row.items():
            for v in values:
                if not 0.0 <= v <= self.bound_u:
                    raise ValueOutOfRange(
                        f"value {v} for user {user!r} in grid {grid!r} "
                        f"outside [0, {self.bound_u}]"
                    )

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
        return read_utf8(path_or_text)
    if isinstance(path_or_text, str):
        if "\n" not in path_or_text and os.path.isfile(path_or_text):
            return read_utf8(path_or_text)
        return path_or_text
    raise InvalidParams(f"expected a path or CSV text, got {type(path_or_text)}")


# Characters per parse block: large enough that per-block costs vanish,
# small enough that a block's tokens and csv records are freed before the
# garbage collector moves them to its oldest generation and rescans them.
_BLOCK_CHARS = 1 << 16

# A line as io.StringIO yields it, with its newline.
_LINE = re.compile(r"[^\n]*\n|[^\n]+")

# What str.strip() removes from an ASCII token, apart from newlines.
_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _lines(text: str, pos: int, cursor: list[int]):
    """Lines of text from pos, each with its newline, as io.StringIO yields
    them; cursor[0] is the end of the last line handed out."""
    while pos < len(text):
        nl = text.find("\n", pos)
        end = len(text) if nl < 0 else nl + 1
        cursor[0] = end
        yield text[pos:end]
        pos = end


def _records(text: str, pos: int, stop: int, cursor: list[int]):
    """The csv records from pos through the one that reaches stop, and the
    csv.Error that cut the read short, if one did; cursor[0] ends at the end
    of the last record read."""
    lines = _LINE.findall(text, pos, stop)
    cursor[0] = stop
    # lines past stop are read one at a time, and only by a record that
    # crosses stop or follows one that did
    reader = csv.reader(chain(lines, _lines(text, stop, cursor)))
    rows: list[list[str]] = []
    try:
        # each record takes at least one line
        while reader.line_num < len(lines):
            rows += islice(reader, len(lines) - reader.line_num)
    except csv.Error as exc:
        return rows, exc
    return rows, None


def _scan(records, width: int, one, out: tuple[list, list, list]) -> None:
    """The row-by-row parse: append the data rows of records, (line number,
    csv fields) pairs, to out's user, grid and converted-field lists."""
    users, grids, fields = out
    for lineno, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise MalformedRow(f"line {lineno}: expected {width} fields")
        user, grid, raw = map(str.strip, row)
        if not user or not grid:
            raise MalformedRow(f"line {lineno}: empty user or grid token")
        fields.append(one(user, grid, raw, lineno))
        users.append(user)
        grids.append(grid)


def _split(block: str, codes: np.ndarray):
    """User and grid tokens, stripped, and raw third fields of a block of
    lines that csv splits at each comma, or None unless every line holds
    two commas. codes is the block's UTF-8 encoding, whose commas and
    newlines are the block's own."""
    kinds = codes[(codes == 44) | (codes == 10)]
    if not block.endswith("\n"):
        kinds = np.append(kinds, 10)
    if len(kinds) % 3 or not (kinds.reshape(-1, 3) == (44, 44, 10)).all():
        return None
    parts = block.replace("\n", ",").split(",")
    if block.endswith("\n"):
        parts.pop()
    users, grids = parts[0::3], parts[1::3]
    if not block.isascii() or any(c in block for c in _PADDING):
        users = list(map(str.strip, users))
        grids = list(map(str.strip, grids))
    return users, grids, parts[2::3]


def _columns(rows: list[list[str]]):
    """User and grid tokens, stripped, and raw third fields of csv records,
    or None unless every record holds three fields."""
    if set(map(len, rows)) != {3}:
        return None
    users, grids, raws = (list(map(itemgetter(i), rows)) for i in range(3))
    return list(map(str.strip, users)), list(map(str.strip, grids)), raws


def _convert(fields, bulk):
    """fields with its third fields converted by bulk(users, grids, raws),
    or None if fields is None, a user or grid token is empty or bulk raises
    ValueError."""
    if fields is None or "" in fields[0] or "" in fields[1]:
        return None
    # float() and int() skip the padding str.strip() removes, or fail and
    # send the rows to the row scan, so the third field stays raw
    try:
        return fields[0], fields[1], bulk(*fields)
    except ValueError:
        return None


class _Codes(dict):
    """Token -> integer code, in arbitrary order; ranks() gives the sorted one."""

    def encode(self, tokens: list[str]) -> np.ndarray:
        for token in dict.fromkeys(tokens).keys() - self.keys():
            self[token] = len(self)
        return np.fromiter(map(self.__getitem__, tokens), np.int64, len(tokens))

    def ranks(self) -> tuple[list[str], np.ndarray]:
        """The tokens in sorted order, and the position of each code in it."""
        tokens = sorted(self)
        rank = np.empty(len(tokens), np.int64)
        codes = np.fromiter(map(self.__getitem__, tokens), np.int64, len(tokens))
        rank[codes] = np.arange(len(tokens))
        return tokens, rank


def _table(text: str, header: tuple[str, ...], bulk, one):
    """Parse a user,grid,<field> CSV, reading exactly what csv.reader reads.

    The data rows are read in blocks of whole lines. A block with a quote,
    CR, NUL or a line longer than csv's field limit is read with
    csv.reader; any other block is split at commas and newlines. Either
    way the third fields are converted by bulk(users, grids, raws). A block
    whose conversion fails (bulk raises ValueError), or that holds a blank
    or malformed line, is scanned again row by row with one(user, grid,
    raw, lineno), which raises the first error in file order, with its line
    number (the csv record number); a csv.Error is raised as MalformedRow.

    Returns the grid and user tokens in sorted order, the stable (grid,
    user) order of the data rows, the runs of that order as (grid index,
    user index, start, stop), and the converted fields in file order as a
    list of chunks.
    """
    cursor = [0]
    try:
        first = next(csv.reader(_lines(text, 0, cursor)))
    except StopIteration:
        raise EmptyDataset("input is empty") from None
    except csv.Error as exc:
        raise MalformedRow(f"line 1: {exc}") from None
    if tuple(f.strip().lower() for f in first) != header:
        raise MalformedRow(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    limit = csv.field_size_limit()
    grid_codes, user_codes = _Codes(), _Codes()
    gcode, ucode, chunks = [], [], []
    pos, lineno = cursor[0], 2
    while pos < len(text):
        nl = text.find("\n", pos + _BLOCK_CHARS)
        stop = len(text) if nl < 0 else nl + 1
        block = text[pos:stop]
        codes = np.frombuffer(block.encode(), np.uint8)
        # a line's UTF-8 length bounds its length in characters
        ends = np.flatnonzero(codes == 10)
        longest = np.diff(ends, prepend=-1, append=len(codes)).max() - 1
        # csv in Python 3.10 rejects NUL, and it caps the length of a field
        clean = not ('"' in block or "\r" in block or "\0" in block or longest > limit)
        rows = error = None
        if clean:
            cursor[0] = stop
            split = _convert(_split(block, codes), bulk)
        else:
            rows, error = _records(text, pos, stop, cursor)
            split = None if error else _convert(_columns(rows), bulk)
        if split is None:
            if rows is None:
                rows, error = _records(text, pos, stop, cursor)
            split = ([], [], [])
            _scan(zip(count(lineno), rows), len(header), one, split)
            if error is not None:
                raise MalformedRow(f"line {lineno + len(rows)}: {error}") from None
        lineno += len(split[0]) if rows is None else len(rows)
        gcode.append(grid_codes.encode(split[1]))
        ucode.append(user_codes.encode(split[0]))
        chunks.append(split[2])
        pos = cursor[0]
    if not grid_codes:
        raise EmptyDataset("no data rows after header")
    grids, grank = grid_codes.ranks()
    users, urank = user_codes.ranks()
    key = grank[np.concatenate(gcode)] * len(users) + urank[np.concatenate(ucode)]
    order = np.argsort(key, kind="stable")
    key = key[order]
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    heads = key[bounds[:-1]]
    runs = zip(
        (heads // len(users)).tolist(), (heads % len(users)).tolist(), bounds, bounds[1:]
    )
    return grids, users, order, runs, chunks


def _bulk_values(users, grids, raws) -> np.ndarray:
    return np.fromiter(map(float, raws), float, len(raws))


def _one_value(user, grid, raw, lineno) -> float:
    try:
        return float(raw)
    except ValueError:
        raise MalformedRow(f"line {lineno}: bad value {raw!r}") from None


def parse_dataset(path_or_text, bound_u: float) -> Dataset:
    """Parse `user,grid,value` CSV into a Dataset, validating the value range.

    Repeated (user, grid) rows accumulate samples in file order.
    """
    text = _read_source(path_or_text)
    grids, users, order, runs, chunks = _table(text, DATA_HEADER, _bulk_values, _one_value)
    values = np.concatenate(chunks)[order].tolist()
    samples: dict[str, dict[str, list[float]]] = {}
    for g, u, lo, hi in runs:
        samples.setdefault(grids[g], {})[users[u]] = values[lo:hi]
    return Dataset(samples, bound_u)


def parse_occupancy(path_or_text) -> OccupancyArray:
    """Parse `user,grid,count` CSV into an OccupancyArray."""
    text = _read_source(path_or_text)
    seen: set[tuple[str, str]] = set()

    def bulk(users, grids, raws) -> list[int]:
        counts = list(map(int, raws))
        pairs = set(zip(users, grids))
        # a count below 1 or a repeated pair is reported by the row scan
        if min(counts) < 1 or len(pairs) < len(counts) or not seen.isdisjoint(pairs):
            raise ValueError
        seen.update(pairs)
        return counts

    def one(user, grid, raw, lineno) -> int:
        try:
            m = int(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: bad count {raw!r}") from None
        if m <= 0:
            raise NonPositiveCount(f"line {lineno}: count {m} must be >= 1")
        if (user, grid) in seen:
            raise DuplicateEntry(f"line {lineno}: duplicate entry ({user}, {grid})")
        seen.add((user, grid))
        return m

    grids, users, order, runs, chunks = _table(text, OCCUPANCY_HEADER, bulk, one)
    counts = list(chain.from_iterable(chunks))
    order = order.tolist()
    table: dict[str, dict[str, int]] = {}
    for g, u, lo, _ in runs:
        table.setdefault(grids[g], {})[users[u]] = counts[order[lo]]
    return OccupancyArray(table)
