"""Datasets partitioned into grids, their occupancy arrays and clip plans.

A dataset is a multiset of (user, grid, value) records with values in
[0, bound_u]; the occupancy array is the public table of per-(grid, user)
sample counts. Per-user sample order within a grid follows input order and is
meaningful: clipping keeps the first `gamma` samples of each user.

All tokens are strings and every iteration order in the public API is
lexicographic, so downstream algorithms are deterministic. Inside an
OccupancyArray a user is an integer id, its position in the sorted token
table, so code running on ids keeps every token tie-break; token strings
are made only where the public API hands them out.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, count, islice, repeat, tee
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptyDataset,
    EmptyValues,
    GridDPError,
    InvalidParams,
    InvalidPlan,
    IoError,
    MalformedRow,
    NonPositiveCount,
    OccupancyMismatch,
    TooLarge,
    UnknownGrid,
    Utf8File,
    ValueOutOfRange,
    require_int,
    require_ints,
    require_positive,
)

DATA_HEADER = ("user", "grid", "value")
OCCUPANCY_HEADER = ("user", "grid", "count")

# The largest occupancy count: counts are stored as int64.
COUNT_MAX = 2**63 - 1


def _require_tokens(keys, kind: str, where: str = "") -> None:
    """InvalidParams naming the first key that is not a str: tokens are strings."""
    for key in keys:
        if not isinstance(key, str):
            raise InvalidParams(f"{kind} token {key!r}{where} is not a string")


@dataclass(frozen=True)
class GridStats:
    """Exact (non-private) statistics of one grid."""

    grid: str
    n: int
    mean: float
    variance: float


class OccupancyArray:
    """Per-(grid, user) sample counts plus the derived structural quantities.

    Stored column-wise: grid i's entries are positions _bounds[i] to
    _bounds[i + 1] of the read-only int64 arrays _ids (user ids, ascending)
    and _counts. A user id indexes the sorted token table _users, which may
    make its tokens on demand; it is listed only when all are needed.
    """

    def __init__(self, counts: dict[str, dict[str, int]]):
        cleaned: dict[str, dict[str, int]] = {}
        _require_tokens(counts, "grid")
        for grid in sorted(counts):
            row = counts[grid]
            if not row:
                continue
            _require_tokens(row, "user", f" in grid {grid!r}")
            users = sorted(row)
            ms = require_ints(f"count in grid {grid!r}", map(row.__getitem__, users))
            if min(ms) <= 0:
                user, m = next((u, m) for u, m in row.items() if m <= 0)
                raise NonPositiveCount(f"count for user {user!r} in grid {grid!r} is {m}")
            if max(ms) > COUNT_MAX:
                user, m = next((u, m) for u, m in row.items() if m > COUNT_MAX)
                raise TooLarge(f"count for user {user!r} in grid {grid!r} is {m}, above 2^63 - 1")
            cleaned[grid] = dict(zip(users, ms))
        if not cleaned:
            raise EmptyDataset("occupancy has no entries")
        rows = cleaned.values()
        tokens = sorted(set().union(*rows))
        index = dict(zip(tokens, count()))
        ids = [index[u] for row in rows for u in row]
        ms = [m for row in rows for m in row.values()]
        self._set(list(cleaned), tokens, np.cumsum([0, *map(len, rows)]), ids, ms)

    @classmethod
    def _from_columns(cls, grids, users, offsets, ids, counts) -> "OccupancyArray":
        """An occupancy of columns laid out as above, unchecked: every grid
        has an entry, every user one or more, and every count is in
        [1, COUNT_MAX]."""
        occ = cls.__new__(cls)
        occ._set(grids, users, offsets, ids, counts)
        return occ

    def _set(self, grids: list[str], users, offsets, ids, counts) -> None:
        self._grids, self._users = grids, users
        self._index = dict(zip(grids, count()))
        self._bounds = np.asarray(offsets).tolist()
        self._ids, self._counts = np.asarray(ids, np.int64), np.asarray(counts, np.int64)
        self._ids.flags.writeable = self._counts.flags.writeable = False
        # Python ints, since a grid's total may pass int64: one int64 sum
        # when no partial sum can overflow, else a Python sum per grid
        widest = int(np.diff(self._bounds).max())
        if int(self._counts.max()) * widest < 2**63:
            self._totals = np.add.reduceat(self._counts, self._bounds[:-1]).tolist()
        else:
            self._totals = [sum(self._counts[lo:hi].tolist()) for lo, hi in self._spans()]

    def _spans(self):
        """(start, stop) of every grid's entries, in grid order."""
        return zip(self._bounds, self._bounds[1:])

    def _span(self, grid: str) -> tuple[int, int, int]:
        """Index, start and stop of a grid's entries."""
        if grid not in self._index:
            raise UnknownGrid(f"grid {grid!r} not present")
        i = self._index[grid]
        return i, self._bounds[i], self._bounds[i + 1]

    def _tokens(self) -> list[str]:
        if not isinstance(self._users, list):
            self._users = list(self._users)
        return self._users

    def _grid_index(self) -> np.ndarray:
        """The grid index of every entry, in the smallest dtype that holds it."""
        grids = np.arange(len(self._grids), dtype=np.min_scalar_type(len(self._grids) - 1))
        return np.repeat(grids, np.diff(self._bounds))

    def _entries(self, uids) -> list[list[int]]:
        """The positions of every entry of each user id, in grid order."""
        uids = np.asarray(uids, dtype=np.int64)
        found = []
        for lo, hi in self._spans():
            pos = lo + np.minimum(np.searchsorted(self._ids[lo:hi], uids), hi - lo - 1)
            found.append(np.where(self._ids[pos] == uids, pos, -1))
        table = np.stack(found, axis=1)
        present = table >= 0
        entries = table[present].tolist()
        ends = np.cumsum(present.sum(axis=1)).tolist()
        return [entries[a:b] for a, b in zip([0, *ends], ends)]

    def _by_user(self):
        """(user token, grid token, entry position) of every entry, by user
        token, then grid."""
        # the entries are in grid order, so a stable sort by user id keeps
        # each user's grids in order
        order = np.argsort(self._ids, kind="stable")
        users, grid_of = self._ids[order].tolist(), self._grid_index()[order].tolist()
        tokens, grids = self._tokens(), self._grids
        for e, u, g in zip(order.tolist(), users, grid_of):
            yield tokens[u], grids[g], e

    def _owner(self, e: int) -> tuple[str, str]:
        """The grid and user tokens of entry e."""
        return self._grids[bisect_right(self._bounds, e) - 1], self._tokens()[int(self._ids[e])]

    def _uid(self, user: str) -> int:
        """The id of a user token, or -1, which no entry holds."""
        i = bisect_left(self._users, user)
        return i if i < len(self._users) and self._users[i] == user else -1

    def _rows(self, values) -> dict[str, dict[str, int]]:
        """{grid: {user: value}} of an int array aligned with the entries."""
        return {
            g: dict(zip(self.users_in(g), values[lo:hi].tolist()))
            for g, (lo, hi) in zip(self._grids, self._spans())
        }

    def _plan_counts(self, plan: Mapping) -> np.ndarray:
        """A plan's grid -> user -> count as an int64 array aligned with the
        entries; a grid or user it omits keeps all its samples. First
        OccupancyMismatch for grids absent from the occupancy, then, by grid
        token, InvalidPlan for a row that is no mapping or names a user the
        grid lacks, then, by user token, InvalidParams for a count that is
        no integer or InvalidPlan for one outside [0, count]."""
        if not isinstance(plan, Mapping):
            raise InvalidPlan(f"a plan must map grids to rows, got {plan!r}")
        missing = sorted(plan.keys() - self._index.keys(), key=str)
        if missing:
            raise OccupancyMismatch(f"plan names grids absent from the data: {missing}")
        gammas = self._counts.copy()
        for grid, row in sorted(plan.items()):
            if not isinstance(row, Mapping):
                raise InvalidPlan(f"plan entry for grid {grid} must map users to counts, got {row!r}")
            _, lo, hi = self._span(grid)
            users, ms = self.users_in(grid), self._counts[lo:hi].tolist()
            unknown = sorted(row.keys() - set(users), key=str)
            if unknown:
                raise InvalidPlan(f"plan names users absent from grid {grid}: {unknown}")
            # each count is checked as a Python int, so one past int64 is
            # out of range, not an overflow
            kept = [row.get(u, m) for u, m in zip(users, ms)]
            for i, (user, m, g) in enumerate(zip(users, ms, kept)):
                if type(g) is not int:
                    kept[i] = g = require_int(f"retained count for user {user} in grid {grid}", g)
                if not 0 <= g <= m:
                    raise InvalidPlan(
                        f"retained count for user {user} in grid {grid} must be in [0, {m}], got {g}"
                    )
            gammas[lo:hi] = kept
        return gammas

    def grids(self) -> list[str]:
        return list(self._grids)

    def users(self) -> list[str]:
        return list(self._tokens())

    def users_in(self, grid: str) -> list[str]:
        _, lo, hi = self._span(grid)
        return list(map(self._tokens().__getitem__, self._ids[lo:hi].tolist()))

    def grids_of(self, user: str) -> list[str]:
        entries = self._entries([self._uid(user)])[0]
        return [self._grids[bisect_right(self._bounds, e) - 1] for e in entries]

    def _entry(self, grid: str, user: str) -> int:
        """Position of the (grid, user) entry, or -1 if the user is absent."""
        _, lo, hi = self._span(grid)
        uid = self._uid(user)
        e = lo + int(np.searchsorted(self._ids[lo:hi], uid))
        return e if e < hi and self._ids[e] == uid else -1

    def count(self, grid: str, user: str) -> int:
        e = self._entry(grid, user)
        return int(self._counts[e]) if e >= 0 else 0

    def counts_in(self, grid: str) -> list[int]:
        """Counts of a grid, ordered by user token."""
        _, lo, hi = self._span(grid)
        return self._counts[lo:hi].tolist()

    def row(self, grid: str) -> dict[str, int]:
        return dict(zip(self.users_in(grid), self.counts_in(grid)))

    def total(self, grid: str) -> int:
        return self._totals[self._span(grid)[0]]

    def m_star(self, grid: str) -> int:
        return max(self.counts_in(grid))

    def max_grids_per_user(self) -> int:
        """G_1: the largest number of grids any single user occupies."""
        return int(np.bincount(self._ids).max())

    def as_dict(self) -> dict[str, dict[str, int]]:
        return self._rows(self._counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, OccupancyArray) and self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"OccupancyArray(grids={len(self._grids)}, users={len(self._users)})"


class ClipPlan:
    """Retained sample counts of an occupancy's (grid, user) entries; 0
    means fully suppressed.

    The counts are a read-only int64 array aligned with the occupancy's
    entries, each in [0, count], as clip_user and full make it; a mapping
    becomes a plan only through for_occupancy. retained, row, grids,
    suppressed_pairs, == and repr are built from the array when asked for;
    row and grids cover every grid of the occupancy, and row of any other
    grid is UnknownGrid.
    Counts that are not integers are InvalidParams; counts of another shape,
    or one outside [0, count], InvalidPlan, naming the first bad entry.
    """

    def __init__(self, occupancy: OccupancyArray, gammas):
        gammas = np.asarray(gammas)
        # bool is kind "b", so True is no count
        if gammas.dtype.kind not in "iu":
            raise InvalidParams(f"retained counts must be integers, got dtype {gammas.dtype}")
        ms = occupancy._counts
        if gammas.shape != ms.shape:
            raise InvalidPlan(f"a plan needs one count per entry ({len(ms)}), got {gammas.shape}")
        bad = np.flatnonzero((gammas < 0) | (gammas > ms))
        if bad.size:
            e = int(bad[0])
            grid, user = occupancy._owner(e)
            raise InvalidPlan(
                f"retained count for user {user} in grid {grid} "
                f"must be in [0, {ms[e]}], got {gammas[e]}"
            )
        self._occupancy, self._gammas = occupancy, gammas.astype(np.int64, copy=False).view()
        self._gammas.flags.writeable = False

    @classmethod
    def for_occupancy(cls, occupancy: OccupancyArray, retained: dict) -> "ClipPlan":
        """The plan of a grid -> user -> count mapping, read and checked by
        OccupancyArray._plan_counts; what it omits keeps all its samples."""
        return cls(occupancy, occupancy._plan_counts(retained))

    @staticmethod
    def full(occupancy: OccupancyArray) -> "ClipPlan":
        return ClipPlan(occupancy, occupancy._counts)

    def _counts_for(self, occupancy: OccupancyArray) -> np.ndarray:
        """The counts aligned with occupancy's entries: the plan's own, or,
        for another occupancy, retained read again by for_occupancy's reader."""
        if occupancy is self._occupancy:
            return self._gammas
        return occupancy._plan_counts(self.retained)

    @property
    def retained(self) -> dict[str, dict[str, int]]:
        """grid -> user -> count, every entry of the occupancy; a new
        mapping each time, whose edits do not change the plan."""
        return self._occupancy._rows(self._gammas)

    def grids(self) -> list[str]:
        return self._occupancy.grids()

    def row(self, grid: str) -> dict[str, int]:
        _, lo, hi = self._occupancy._span(grid)
        return dict(zip(self._occupancy.users_in(grid), self._gammas[lo:hi].tolist()))

    def suppressed_pairs(self) -> list[tuple[str, str]]:
        return [(g, u) for g, row in self.retained.items() for u, kept in row.items() if kept == 0]

    def __eq__(self, other) -> bool:
        return isinstance(other, ClipPlan) and self.retained == other.retained

    def __repr__(self) -> str:
        return f"ClipPlan(retained={self.retained!r})"


class Dataset:
    """Samples keyed by grid then user; per-user order is input order.

    Stored as one float64 column, ordered by grid, then user token, then
    input order, over the OccupancyArray whose counts are its run lengths:
    entry e of the occupancy owns _column[_starts[e]:_starts[e + 1]]. The
    column and the occupancy's arrays are read-only, so mechanisms.prepare
    keeps each packing of the data, by grid, strategy and capacity rule, in
    _packings, and _grid_mean keeps each grid's exact mean in _means.
    """

    def __init__(self, samples: dict[str, dict[str, list[float]]], bound_u: float):
        self.bound_u = require_positive("bound_u", bound_u)
        counts: dict[str, dict[str, int]] = {}
        chunks: list[tuple[float, ...]] = []
        _require_tokens(samples, "grid")
        try:
            for grid in sorted(samples):
                row = samples[grid]
                _require_tokens(row, "user", f" in grid {grid!r}")
                for user in sorted(row):
                    values = tuple(map(float, row[user]))
                    if values:
                        counts.setdefault(grid, {})[user] = len(values)
                        chunks.append(values)
        finally:
            # also when a conversion failed, so that a value out of range in
            # an earlier user is what is raised
            if counts:
                self._set(OccupancyArray(counts), np.fromiter(chain.from_iterable(chunks), float))
        if not counts:
            raise EmptyDataset("dataset has no records")

    @classmethod
    def _from_columns(
        cls, occupancy: OccupancyArray, column: np.ndarray, bound_u: float
    ) -> "Dataset":
        """A dataset of a float64 column laid out as above; ValueOutOfRange
        for the first value outside [0, bound_u]."""
        ds = cls.__new__(cls)
        ds.bound_u = require_positive("bound_u", bound_u)
        ds._set(occupancy, column)
        return ds

    def _set(self, occupancy: OccupancyArray, column: np.ndarray) -> None:
        self._occupancy, self._column = occupancy, column
        column.flags.writeable = False
        self._packings: dict = {}
        self._means: dict[str, float] = {}
        self._starts = [0, *np.cumsum(occupancy._counts).tolist()]
        # NaN fails both comparisons, so it is out of range too
        bad = np.flatnonzero(~((column >= 0.0) & (column <= self.bound_u)))
        if bad.size:
            grid, user = occupancy._owner(bisect_right(self._starts, bad[0]) - 1)
            raise ValueOutOfRange(
                f"value {column[bad[0]]} for user {user!r} in grid {grid!r} "
                f"outside [0, {self.bound_u}]"
            )

    def _grid_column(self, grid: str) -> np.ndarray:
        _, lo, hi = self._occupancy._span(grid)
        return self._column[self._starts[lo] : self._starts[hi]]

    def _grid_mean(self, grid: str) -> float:
        """The left_sum of the grid's samples over their count, computed on
        the first call and kept."""
        if grid not in self._means:
            self._means[grid] = left_sum(self._grid_column(grid)) / self._occupancy.total(grid)
        return self._means[grid]

    def _heads(self, grid: str, positions, sizes) -> np.ndarray:
        """The first sizes[i] samples of the user at positions[i] of the
        grid's users in token order, in that order; each size is in
        [0, count]."""
        _, lo, hi = self._occupancy._span(grid)
        firsts = np.array(self._starts[lo:hi], np.int64)[np.asarray(positions, np.int64)]
        sizes = np.asarray(sizes, np.int64)
        ends = np.cumsum(sizes)
        # the i-th sample of a block is at its first sample's position plus i
        return self._column[np.repeat(firsts - ends + sizes, sizes) + np.arange(ends[-1])]

    def _pairs(self):
        """(user, grid, values) of every entry, by user token, then grid."""
        starts = self._starts
        for user, grid, e in self._occupancy._by_user():
            yield user, grid, self._column[starts[e] : starts[e + 1]]

    def grids(self) -> list[str]:
        return self._occupancy.grids()

    def users_in(self, grid: str) -> list[str]:
        return self._occupancy.users_in(grid)

    def values(self, grid: str, user: str) -> tuple[float, ...]:
        e = self._occupancy._entry(grid, user)
        return tuple(self._column[self._starts[e] : self._starts[e + 1]].tolist()) if e >= 0 else ()

    def grid_values(self, grid: str) -> list[float]:
        """All samples of a grid, users in token order, per-user input order."""
        return self._grid_column(grid).tolist()

    def clipped_values(self, grid: str, retained: dict[str, int]) -> list[float]:
        """The first retained[user] samples of each user, in the same order;
        a user absent from retained keeps all. The row is read as the clip
        plan ClipPlan.for_occupancy(occupancy, {grid: retained})."""
        _, lo, hi = self._occupancy._span(grid)
        gammas = ClipPlan.for_occupancy(self._occupancy, {grid: retained})._gammas[lo:hi]
        return self._heads(grid, range(hi - lo), gammas).tolist()

    def occupancy(self) -> OccupancyArray:
        return self._occupancy


def left_sum(values, start: float = 0.0):
    """values added left to right from start, as `acc += v` in a loop adds
    floats: one float, or the sums along the last axis. np.sum adds pairwise."""
    x = np.asarray(values, dtype=float)
    run = np.concatenate((np.full((*x.shape[:-1], 1), start), x), axis=-1)
    np.cumsum(run, axis=-1, out=run)
    return float(run[-1]) if x.ndim == 1 else run[..., -1]


def column_sums(x, start: float = 0.0) -> np.ndarray:
    """The left_sum of each column of a 2-D float array from start. numpy
    adds a C-contiguous array's rows in order when it has two or more
    columns; one column it adds pairwise, so that goes through left_sum."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape[1] == 1:
        return left_sum(x.T, start)
    return np.add.reduce(x, axis=0, initial=start)


def population_stats(values) -> tuple[int, float, float]:
    """(n, mean, population variance) of non-empty float values, two-pass.
    Each square is libm pow(|d|, 2.0), the call Python's d ** 2 makes; pow is
    not correctly rounded, so d * d would move the variance's last bits.
    TooLarge when a square overflows float64."""
    column = np.asarray(values, dtype=float)
    n = len(column)
    if n == 0:
        raise EmptyValues("cannot compute statistics of zero samples")
    mean = left_sum(column) / n
    try:
        squares = np.fromiter(map(math.pow, memoryview(abs(column - mean)), repeat(2.0)), float, n)
    except OverflowError:
        raise TooLarge("the squared deviations from the mean overflow float64") from None
    return n, mean, left_sum(squares) / n


def grid_stats(dataset: Dataset, grid: str) -> GridStats:
    """Exact mean and population variance of one grid of a dataset."""
    n, mean, variance = population_stats(dataset._grid_column(grid))
    return GridStats(grid=grid, n=n, mean=mean, variance=variance)


def _read_source(path_or_text):
    """A binary stream of a CSV file, named by a Path or by a str that holds
    no newline, whose reads Utf8File checks as UTF-8 as they arrive, or of
    CSV text, as its UTF-8 bytes, with a lone surrogate kept."""
    if isinstance(path_or_text, str) and ("\n" in path_or_text or not os.path.isfile(path_or_text)):
        return io.BytesIO(_utf8(path_or_text))
    if isinstance(path_or_text, (str, Path)):
        return Utf8File(path_or_text)
    raise InvalidParams(f"expected a path or CSV text, got {type(path_or_text)}")


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _text(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


# Bytes per read of the parse, which reads on to the end of the line: large
# enough that per-block costs vanish, small enough that a block's tokens and
# csv records are freed before the garbage collector moves them to its
# oldest generation and rescans them.
_BLOCK_BYTES = 1 << 16

# A line as io.StringIO yields it, with its newline.
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def _lines(fh):
    """The lines of a binary stream from where it stands, each decoded with
    its newline, as io.StringIO yields those of the text."""
    for line in iter(fh.readline, b""):
        yield _text(line)


def _records(text: str, fh):
    """The csv records of text, a decoded block of whole lines, through the
    one that reaches its end, and the csv.Error that cut the read short, if
    one did. A record that crosses the end of the block reads its next lines
    from fh, the stream the block was read from, one at a time."""
    lines = _LINE.findall(text)
    reader = csv.reader(chain(lines, _lines(fh)))
    rows: list[list[str]] = []
    try:
        # each record takes at least one line
        while reader.line_num < len(lines):
            rows += islice(reader, len(lines) - reader.line_num)
    except csv.Error as exc:
        return rows, exc
    return rows, None


def _scan(records, width: int, tables, one, out: tuple[list, list, list]) -> None:
    """The row-by-row parse: append the data rows of records, (line number,
    csv fields) pairs, to out's user and grid token lists and converted-field
    list; each field is one((user code, grid code), fields, line number)."""
    users, grids, fields = out
    for lineno, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise MalformedRow(f"line {lineno}: expected {width} fields")
        pair = tuple(map(_Codes.code, tables, row))
        if None in pair:
            raise MalformedRow(f"line {lineno}: empty user or grid token")
        fields.append(one(pair, row, lineno))
        users.append(row[0])
        grids.append(row[1])


def _split(block: bytes, codes: np.ndarray, ends: np.ndarray):
    """User and grid tokens and raw third fields of a block of lines, which
    csv splits at each comma, or None unless every line holds two commas.
    codes is the block as uint8 and ends the positions of its newlines."""
    closed = codes[-1] == 10
    stops = ends if closed else np.append(ends, len(codes))
    commas = np.flatnonzero(codes == 44)
    # the commas before the end of line i number 2 (i + 1)
    if len(commas) != 2 * len(stops) or (
        np.searchsorted(commas, stops) != np.arange(2, len(commas) + 1, 2)
    ).any():
        return None
    parts = block.replace(b"\n", b",").split(b",")
    if closed:
        parts.pop()
    return parts[0::3], parts[1::3], parts[2::3]


def _columns(rows: list[list[str]]):
    """User and grid tokens and raw third fields of csv records, or None
    unless every record holds three fields."""
    if set(map(len, rows)) != {3}:
        return None
    return tuple(list(map(itemgetter(i), rows)) for i in range(3))


def _encoded(tokens: list[str]) -> list[bytes]:
    """Each token as _utf8 encodes it, in one call unless one holds a
    newline."""
    parts = _utf8("\n".join(tokens)).split(b"\n")
    return parts if len(parts) == len(tokens) else list(map(_utf8, tokens))


def _decoded(tokens: list[bytes]) -> list[str]:
    """Each token as _text decodes it, in one call unless one holds a
    newline."""
    parts = _text(b"\n".join(tokens)).split("\n")
    return parts if len(parts) == len(tokens) else list(map(_text, tokens))


def _convert(fields, tables, bulk):
    """fields with its user and grid tokens encoded by tables and its third
    fields converted by bulk(users, grids, raws), given the codes; None if
    fields is None, a token strips to nothing or bulk raises ValueError."""
    if fields is None:
        return None
    users, grids = map(_Codes.encode, tables, fields)
    if users is None or grids is None:
        return None
    # float() and int() skip the padding str.strip() removes and a CRLF
    # line end's CR, or fail and send the rows to the row scan, so the third
    # field stays raw
    try:
        return users, grids, bulk(users, grids, fields[2])
    except ValueError:
        return None


class _Codes(dict):
    """Token -> integer code, in arbitrary order; ranks() gives the sorted
    one. A token is keyed as the bytes split or csv.reader gives it, padding
    and all, and its code is that of its str.strip() form, which is keyed
    too, as UTF-8; names lists those forms by code.

    A token enters the table only from a row that the parse returns or from
    a row whose block ends in a raised error: csv.reader yields the same
    fields as the bytes split of a clean block, so a block that the split
    keys but cannot convert adds no name when csv.reader reads it again. So
    ranks() lists no name without rows."""

    def __init__(self):
        super().__init__()
        self.names: list[bytes] = []

    def encode(self, tokens: list) -> np.ndarray | None:
        """The codes of tokens in the smallest integer dtype, new tokens
        added first, or None, adding none, if one strips to nothing; most
        blocks bring none, so they are looked for only when a lookup
        fails."""
        try:
            dtype = np.min_scalar_type(len(self.names))
            return np.fromiter(map(self.__getitem__, tokens), dtype, len(tokens))
        except KeyError:
            return self.encode(tokens) if self._add(tokens) else None

    def code(self, token) -> int | None:
        """The code of one token, as encode gives it."""
        return self[token] if token in self or self._add([token]) else None

    def _add(self, tokens: list) -> bool:
        """Key the tokens not yet keyed, decoded, stripped and encoded in
        one pass; False, adding none, if one strips to nothing."""
        new = list(dict.fromkeys(tokens).keys() - self.keys())
        # csv.reader gives str
        split = isinstance(new[0], bytes)
        text = _decoded(new) if split else new
        stripped = list(map(str.strip, text))
        if not all(stripped):
            return False
        # split tokens that strip to themselves are their own stripped forms,
        # all new; any other token takes the code of its stripped UTF-8
        keys = fresh = new
        if not (split and stripped == text):
            keys = _encoded(stripped)
            fresh = list(dict.fromkeys(keys).keys() - self.keys())
        self.update(zip(fresh, count(len(self.names))))
        self.names += fresh
        if keys is not new:
            self.update(zip(new, map(self.__getitem__, keys)))
        return True

    def ranks(self) -> tuple[list[str], np.ndarray]:
        """The names in sorted order, decoded, and the position of each code
        in it. UTF-8 bytes sort as their code points do."""
        names = sorted(self.names)
        rank = np.empty(len(names), np.int64)
        codes = np.fromiter(map(self.__getitem__, names), np.int64, len(names))
        rank[codes] = np.arange(len(names))
        return _decoded(names), rank


def _runs(users: np.ndarray, grids: np.ndarray):
    """The runs of equal (user code, grid code) in a block's rows: the codes
    of each and its length, in the smallest dtype that holds the block's
    row count."""
    new = np.ones(len(users), bool)
    new[1:] = (users[1:] != users[:-1]) | (grids[1:] != grids[:-1])
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=len(users)).astype(np.min_scalar_type(len(users)))
    return users[starts], grids[starts], lengths


def _blocks(fh, header: tuple[str, ...], bulk, one, dtype):
    """Read the header and the data rows of a binary stream, as _table
    describes; the user and grid _Codes tables, and the runs and the
    converted fields, as a dtype array, of each block that holds rows."""
    try:
        first = next(csv.reader(_lines(fh)))
    except StopIteration:
        raise EmptyDataset("input is empty") from None
    except csv.Error as exc:
        raise MalformedRow(f"line 1: {exc}") from None
    if tuple(f.strip().lower() for f in first) != header:
        raise MalformedRow(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    limit = csv.field_size_limit()
    tables = _Codes(), _Codes()
    runs, chunks = [], []
    lineno = 2
    while block := fh.read(_BLOCK_BYTES):
        if block[-1] != 10:
            block += fh.readline()
        codes = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero(codes == 10)
        # csv in Python 3.10 rejects NUL, and it caps the length of a field;
        # a line's UTF-8 length bounds its length in characters
        long = len(block) > limit and np.diff(ends, prepend=-1, append=len(block)).max() > limit + 1
        crlf = b"\r" not in block or block.count(b"\r") == block.count(b"\r\n")
        clean = crlf and not (b'"' in block or b"\0" in block or long)
        rows = error = split = None
        if clean:
            split = _convert(_split(block, codes, ends), tables, bulk)
        if split is None:
            rows, error = _records(_text(block), fh)
            split = None if error else _convert(_columns(rows), tables, bulk)
        if split is None:
            users, grids, fields = [], [], []
            _scan(zip(count(lineno), rows), len(header), tables, one, (users, grids, fields))
            if error is not None:
                raise MalformedRow(f"line {lineno + len(rows)}: {error}") from None
            split = (tables[0].encode(users), tables[1].encode(grids), fields)
        lineno += len(split[0]) if rows is None else len(rows)
        if len(split[0]):
            runs.append(_runs(split[0], split[1]))
            chunks.append(np.asarray(split[2], dtype))
    return tables, runs, chunks


def _table(path_or_text, header: tuple[str, ...], bulk, one, dtype):
    """Parse a user,grid,<field> CSV file or text from its UTF-8 bytes,
    reading exactly what csv.reader reads from its text, as a stream: no
    copy of the whole file is held.

    The data rows are read in blocks of whole lines, each a read of
    _BLOCK_BYTES and the rest of its last line, and each down one chain. A
    clean block, one free of quotes, NULs, CRs outside CRLF line ends and
    lines longer than csv's field limit, is split at commas and newlines as
    bytes, which leaves a line end's CR on the third field, where float()
    and int() ignore it. A block that is not clean, or whose split or
    conversion fails, is decoded and read with csv.reader; a record that
    crosses the end of the block reads its next lines from the stream.
    Either way the user and grid tokens are encoded by their _Codes tables,
    which strip each distinct token once, and the third fields are
    converted by bulk(users, grids, raws), given the codes. A block with a
    token that strips to nothing, whose conversion fails there too (bulk
    raises ValueError), or that holds a blank or malformed line, is scanned
    row by row with one((user code, grid code), csv fields, lineno), which
    raises the first error in file order, with its line number (the csv
    record number); a csv.Error is raised as MalformedRow. A parse error is
    raised only once the rest of the file has been read and decodes, so an
    undecodable file is the IoError a decode of the whole file names.

    Each block keeps its converted fields and the runs of equal (user,
    grid) codes in its rows, which _column puts in (grid, user) order.

    Returns the grid and user tokens in sorted order, the offsets of each
    grid's entries, the user index and row count of every entry, in (grid,
    user) order, and the converted fields in that order as a dtype column.
    """
    with _read_source(path_or_text) as fh:
        try:
            (user_codes, grid_codes), runs, chunks = _blocks(fh, header, bulk, one, dtype)
        except GridDPError as exc:
            # a byte later in the file that does not decode is the error
            if not isinstance(exc, IoError):
                while fh.read(_BLOCK_BYTES):
                    pass
            raise
    if not grid_codes:
        raise EmptyDataset("no data rows after header")
    grids, grank = grid_codes.ranks()
    users, urank = user_codes.ranks()
    entries, counts, column = _column(grank, urank, runs, chunks, dtype)
    offsets = np.searchsorted(entries // len(users), np.arange(len(grids) + 1))
    return grids, users, offsets, entries % len(users), counts, column


def _column(grank, urank, runs: list, chunks: list, dtype):
    """The (grid, user) entries of the blocks' rows, each as grid rank times
    the user count plus user rank, ascending, their row counts, and the
    column of the chunks' fields in entry order, rows of an entry in file
    order. runs and chunks, _blocks's lists, are emptied as they are used.

    The runs are sorted stably by that key, and then each block's fields
    are copied to the places of their runs, one block at a time, so that
    beside the chunks and the column no index is made per row but one
    block's."""
    block_runs = [len(lengths) for _, _, lengths in runs]
    run_users, run_grids, lengths = map(np.concatenate, zip(*runs))
    runs.clear()
    kind = np.min_scalar_type(len(grank) * len(urank))
    key = grank.astype(kind)[run_grids]
    key *= len(urank)
    key += urank.astype(kind)[run_users]
    del run_grids, run_users
    order = np.argsort(key, kind="stable")
    key = key[order]
    # the last run of each entry, whose rows end the entry's
    last = np.append(key[1:] != key[:-1], True)
    entries = key[last]
    del key
    total = sum(map(len, chunks))
    ends = lengths[order].astype(np.min_scalar_type(total))
    np.cumsum(ends, out=ends)
    counts = np.diff(ends[last], prepend=0)
    del last
    # the place of each run's first row in the column, in file order
    dest = np.empty_like(ends)
    dest[order] = ends
    del order, ends
    dest -= lengths
    column = np.empty(total, dtype)
    hi = len(dest)
    while chunks:
        lo = hi - block_runs.pop()
        sizes = lengths[lo:hi].astype(np.int64)
        stops = np.cumsum(sizes)
        # the i-th row of a run goes to the run's place plus i
        index = np.repeat(dest[lo:hi].astype(np.int64) - stops + sizes, sizes) + np.arange(stops[-1])
        column[index] = chunks.pop()
        hi = lo
    return entries, counts, column


def _bulk_values(users, grids, raws) -> np.ndarray:
    return np.fromiter(map(float, raws), float, len(raws))


def _one_value(pair, row, lineno) -> float:
    raw = row[2].strip()
    try:
        return float(raw)
    except ValueError:
        raise MalformedRow(f"line {lineno}: bad value {raw!r}") from None


def parse_dataset(path_or_text, bound_u: float) -> Dataset:
    """Parse `user,grid,value` CSV into a Dataset, validating the value range.

    Repeated (user, grid) rows accumulate samples in file order.
    """
    grids, users, offsets, ids, counts, column = _table(
        path_or_text, DATA_HEADER, _bulk_values, _one_value, np.float64
    )
    occupancy = OccupancyArray._from_columns(grids, users, offsets, ids, counts)
    return Dataset._from_columns(occupancy, column, bound_u)


def write_dataset(dataset: Dataset, fh) -> None:
    """Write a dataset to a text file as `user,grid,value` CSV with LF line
    ends: rows by user token, then grid, each pair's values in input order.

    Quoting is csv.writer's, also for a token holding a CR, so the file
    parses back to the same dataset, except that the reader strips the
    whitespace around every token."""
    fh.write(",".join(DATA_HEADER) + "\n")
    pairs, keys = tee(dataset._pairs())
    prefixes = csv_lines((user, grid, "") for user, grid, _ in keys)
    for (_, _, values), line in zip(pairs, prefixes):
        prefix = line[:-1]
        fh.write(prefix + ("\n" + prefix).join(map(repr, values.tolist())) + "\n")


def csv_lines(rows):
    """Each row as one CSV line ending in LF, quoted as csv.writer quotes it,
    also a field holding a CR, so every line reads back as one record."""
    buf = io.StringIO()
    # with a CRLF terminator csv quotes a CR too; the terminator is cut off
    writer = csv.writer(buf, lineterminator="\r\n")
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        yield buf.getvalue()[:-2] + "\n"


def parse_occupancy(path_or_text) -> OccupancyArray:
    """Parse `user,grid,count` CSV into an OccupancyArray."""
    # (user, grid) code pairs, as _table gives them to bulk and one
    seen: set[tuple[int, int]] = set()

    def bulk(users, grids, raws) -> list[int]:
        counts = list(map(int, raws))
        pairs = set(zip(users.tolist(), grids.tolist()))
        # a count out of range or a repeated pair is reported by the row scan
        in_range = min(counts) >= 1 and max(counts) <= COUNT_MAX
        if not in_range or len(pairs) < len(counts) or not seen.isdisjoint(pairs):
            raise ValueError
        seen.update(pairs)
        return counts

    def one(pair, row, lineno) -> int:
        user, grid, raw = map(str.strip, row)
        try:
            m = int(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: bad count {raw!r}") from None
        if m <= 0:
            raise NonPositiveCount(f"line {lineno}: count {m} must be >= 1")
        if m > COUNT_MAX:
            raise TooLarge(f"line {lineno}: count {m} exceeds 2^63 - 1")
        if pair in seen:
            raise DuplicateEntry(f"line {lineno}: duplicate entry ({user}, {grid})")
        seen.add(pair)
        return m

    grids, users, offsets, ids, _, counts = _table(
        path_or_text, OCCUPANCY_HEADER, bulk, one, np.int64
    )
    # no pair repeats, so every entry is one row, whose count the column holds
    return OccupancyArray._from_columns(grids, users, offsets, ids, counts)
