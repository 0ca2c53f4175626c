"""Exception types and the input checks shared across the package.

Every input-validation failure raises a named subclass of GridDPError so
callers (and the CLI) can distinguish bad data from bugs. The require_*
functions below are the checks every module shares: positive finite
scalars, integers (with an optional lower bound, as for capacities),
count lists, retained-count lists and their pairing. Utf8File reads
every input file, so an unreadable or undecodable one is an IoError.
"""

from __future__ import annotations

import codecs
import math
import numbers


class GridDPError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRow(GridDPError):
    """A CSV row does not match the expected header or cannot be parsed."""


class ValueOutOfRange(GridDPError):
    """A sample value lies outside [0, bound_u]."""


class EmptyDataset(GridDPError):
    """No data rows were found."""


class NonPositiveCount(GridDPError):
    """An occupancy count is zero or negative."""


class DuplicateEntry(GridDPError):
    """The same (user, grid) pair appears twice in an occupancy file."""


class UnknownGrid(GridDPError):
    """A grid token is not present in the dataset or occupancy."""


class InvalidCapacity(GridDPError):
    """An array capacity bound is outside [min count, max count] or < 1."""


class ZeroTotal(GridDPError):
    """A sensitivity or bias computation received an empty count list."""


class ZeroRetained(GridDPError):
    """All retained counts are zero; clipped statistics are undefined."""


class InvalidPlan(GridDPError):
    """A clipping plan disagrees with the occupancy it applies to."""


class NonPositiveScale(GridDPError):
    """A Laplace noise scale must be strictly positive."""


class EmptyGrid(GridDPError):
    """A release was requested for a grid with no samples."""


class NoBins(GridDPError):
    """The interval routine needs a strictly positive bin width."""


class EmptyValues(GridDPError):
    """An operation over a value collection received no values."""


class OccupancyMismatch(GridDPError):
    """A dataset and an occupancy/plan disagree about counts or tokens."""


class InvalidParams(GridDPError):
    """A scalar parameter (epsilon, bound, probability, factor) is invalid."""


class TooLarge(GridDPError):
    """An input exceeds what a routine can enumerate or hold exactly."""


class UsageError(GridDPError):
    """The CLI was invoked with an inconsistent set of flags."""


class IoError(GridDPError):
    """A file could not be read or written."""


def require_int(name: str, value, low: int | None = None, error=InvalidParams) -> int:
    """value as an int; InvalidParams unless it is an integer other than a bool.

    With low given, a value below it raises error (InvalidParams by default).
    """
    # plain ints skip the abstract-class isinstance, several times slower
    # than a type test and run a few times per simulated draw
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return int(value)


def require_ints(name: str, values) -> list[int]:
    """values as a list of ints, each checked as require_int checks one."""
    values = list(values)
    # a list of plain ints, the common case, needs no check per element
    if set(map(type, values)) - {int}:
        values = [require_int(name, v) for v in values]
    return values


def require_positive(name: str, value, error=InvalidParams) -> float:
    """value as a float; error (InvalidParams by default) unless 0 < value < inf."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")
    return float(value)


def require_probability(name: str, value) -> None:
    """InvalidParams unless 0 < value < 1."""
    if not 0 < value < 1:
        raise InvalidParams(f"{name} must be in (0, 1), got {value}")


def require_counts(m_list) -> list[int]:
    """Per-user sample counts: a non-empty list of integers, each >= 1."""
    counts = require_ints("count", m_list)
    if not counts:
        raise ZeroTotal("count list is empty")
    if min(counts) < 1:
        raise NonPositiveCount(f"counts must be >= 1, got {counts}")
    return counts


def require_retained(gamma_list) -> list[int]:
    """Retained counts: a non-empty list of integers >= 0, not all zero."""
    gammas = require_ints("retained count", gamma_list)
    if not gammas:
        raise ZeroTotal("retained-count list is empty")
    if min(gammas) < 0:
        raise InvalidParams(f"retained counts must be >= 0, got {gammas}")
    if sum(gammas) == 0:
        raise ZeroRetained("all retained counts are zero")
    return gammas


def require_pair(m_list, gamma_list) -> tuple[list[int], list[int]]:
    """Counts and retained counts of the same users, 0 <= gamma_l <= m_l."""
    gammas = require_ints("retained count", gamma_list)
    counts = require_counts(m_list)
    if len(counts) != len(gammas):
        raise InvalidParams(
            f"count and retained lists differ in length: {len(counts)} vs {len(gammas)}"
        )
    if any(g < 0 or g > m for m, g in zip(counts, gammas)):
        raise InvalidParams(
            f"retained counts must satisfy 0 <= gamma_l <= m_l, got {gammas} vs {counts}"
        )
    if sum(gammas) == 0:
        raise ZeroRetained("all retained counts are zero")
    return counts, gammas


def _decode_message(exc: UnicodeDecodeError, start: int) -> str:
    """str(exc) with its bad bytes at position start, as a decode of the whole
    file would name them."""
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{start + exc.end - exc.start - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


class Utf8File:
    """A UTF-8 file read as bytes, each read checked to decode as it
    arrives, so that no decoded copy of the file is made; the end of the
    file is checked when a read returns nothing or a line without its
    newline. IoError if the file cannot be read or decoded, whose message
    gives the position a decode of the whole file reports. what names the
    file's role in the message, such as "plan "."""

    def __init__(self, path, what: str = ""):
        self._name = f"{what}{path}"
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._pos = 0
        self._fh = self._io(open, path, "rb")

    def __enter__(self) -> "Utf8File":
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    def _io(self, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise IoError(f"cannot read {self._name}: {exc}") from exc

    def read(self, size: int = -1) -> bytes:
        data = self._io(self._fh.read, size)
        return self._checked(data, size < 0 or not data)

    def readline(self) -> bytes:
        data = self._io(self._fh.readline)
        return self._checked(data, not data.endswith(b"\n"))

    def _checked(self, data: bytes, final: bool) -> bytes:
        held = len(self._decoder.getstate()[0])
        if held or final or not data.isascii():
            try:
                self._decoder.decode(data, final)
            except UnicodeDecodeError as exc:
                # the decoder read the bytes it held back before data
                start = self._pos - held + exc.start
                raise IoError(f"cannot read {self._name}: {_decode_message(exc, start)}") from exc
        self._pos += len(data)
        return data


def read_utf8(path, what: str = "") -> str:
    """The text of a UTF-8 file, line endings as written, so that a file
    parses as its text does; IoError as Utf8File raises it."""
    with Utf8File(path, what) as fh:
        return fh.read().decode()
