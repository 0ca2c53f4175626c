"""Exception types and the input checks shared across the package.

Every input-validation failure raises a named subclass of GridDPError so
callers (and the CLI) can distinguish bad data from bugs. The require_*
functions below are the checks every module shares: positive finite
scalars, integers (with an optional lower bound, as for capacities),
count lists, retained-count lists and their pairing. read_utf8_bytes reads
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


# Bytes per slice of a file's UTF-8 check: the decoded slice is dropped
# before the next one, so no decoded copy of the whole file is made.
_CHECK_BYTES = 1 << 20


def read_utf8_bytes(path, what: str = "") -> bytes:
    """The bytes of a UTF-8 file, checked to decode; IoError if it cannot be
    read or decoded, whose message gives the position a decode of the whole
    file reports. what names the file's role in the message, such as "plan "."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            decoder = codecs.getincrementaldecoder("utf-8")()
            for pos in range(0, len(data), _CHECK_BYTES):
                try:
                    decoder.decode(data[pos : pos + _CHECK_BYTES], pos + _CHECK_BYTES >= len(data))
                except UnicodeDecodeError as exc:
                    # the decoder read the slice after the bytes it held back
                    start = pos - len(decoder.getstate()[0]) + exc.start
                    end = start + exc.end - exc.start
                    raise UnicodeDecodeError(exc.encoding, data, start, end, exc.reason) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what}{path}: {exc}") from exc
    return data


def read_utf8(path, what: str = "") -> str:
    """The text of a UTF-8 file, line endings as written, so that a file
    parses as its text does; IoError as read_utf8_bytes raises it."""
    return read_utf8_bytes(path, what).decode()
