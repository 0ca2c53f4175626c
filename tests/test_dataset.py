"""Parsing, occupancy accounting, and exact statistics."""

import csv
import io
import math
import random
import sys
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from griddp import dataset
from griddp.cli import cli_main
from griddp.dataset import (
    DATA_HEADER,
    OCCUPANCY_HEADER,
    ClipPlan,
    Dataset,
    OccupancyArray,
    grid_stats,
    parse_dataset,
    parse_occupancy,
    population_stats,
    write_dataset,
)
from griddp.rng import RngStream
from griddp.synth import SynthParams, ValueModel, generate_occupancy, generate_values
from griddp.errors import (
    DuplicateEntry,
    EmptyDataset,
    EmptyValues,
    InvalidParams,
    InvalidPlan,
    IoError,
    MalformedRow,
    NonPositiveCount,
    TooLarge,
    UnknownGrid,
    ValueOutOfRange,
)


def test_parse_dataset_round_trip(tiny_dataset_text):
    ds = parse_dataset(tiny_dataset_text, 5.0)
    assert ds.grids() == ["g1", "g2"]
    assert ds.users_in("g1") == ["u1", "u2"]
    assert ds.values("g1", "u1") == (1.0, 2.0)
    assert ds.grid_values("g2") == [0.5, 4.0]


def test_parse_dataset_accumulates_repeated_pairs(tiny_dataset_text):
    ds = parse_dataset(tiny_dataset_text, 5.0)
    occ = ds.occupancy()
    assert occ.count("g1", "u1") == 2
    assert occ.count("g2", "u3") == 1


def test_parse_dataset_rejects_out_of_range(tiny_dataset_text):
    with pytest.raises(ValueOutOfRange):
        parse_dataset(tiny_dataset_text, 2.0)
    with pytest.raises(ValueOutOfRange):
        parse_dataset("user,grid,value\nu1,g1,-0.1\n", 2.0)


def test_parse_rejects_malformed_rows():
    with pytest.raises(MalformedRow):
        parse_dataset("user,grid,value\nu1,g1\n", 1.0)
    with pytest.raises(MalformedRow):
        parse_dataset("user,grid,value\nu1,g1,notanumber\n", 1.0)
    with pytest.raises(MalformedRow):
        parse_dataset("wrong,header,here\nu1,g1,0.5\n", 1.0)
    with pytest.raises(InvalidParams, match="expected a path or CSV text"):
        parse_dataset(42, 1.0)
    with pytest.raises(MalformedRow):
        parse_occupancy("user,grid,count\nu1,,3\n")


def test_parse_empty_inputs():
    with pytest.raises(EmptyDataset):
        parse_dataset("user,grid,value\n", 1.0)
    with pytest.raises(EmptyDataset, match="input is empty"):
        parse_dataset("", 1.0)
    with pytest.raises(EmptyDataset):
        parse_occupancy("user,grid,count\n\n\n")


def test_parse_occupancy_validation():
    occ = parse_occupancy("user,grid,count\nu1,g1,2\nu2,g1,3\nu1,g2,1\n")
    assert occ.count("g1", "u2") == 3
    with pytest.raises(DuplicateEntry):
        parse_occupancy("user,grid,count\nu1,g1,2\nu1,g1,3\n")
    with pytest.raises(NonPositiveCount):
        parse_occupancy("user,grid,count\nu1,g1,0\n")


def test_occupancy_accessors():
    occ = OccupancyArray({"g1": {"u1": 2, "u2": 2}, "g2": {"u1": 1, "u3": 3}})
    assert occ.grids() == ["g1", "g2"]
    assert occ.users() == ["u1", "u2", "u3"]
    assert occ.users_in("g2") == ["u1", "u3"]
    assert occ.grids_of("u1") == ["g1", "g2"]
    assert occ.counts_in("g2") == [1, 3]
    assert occ.total("g1") == 4
    assert occ.m_star("g2") == 3
    assert occ.max_grids_per_user() == 2
    with pytest.raises(UnknownGrid):
        occ.row("nope")


def test_population_stats_matches_numpy():
    values = [0.3, 1.7, 2.2, 4.9, 0.0]
    n, mean, var = population_stats(values)
    assert n == 5
    assert math.isclose(mean, float(np.mean(values)), rel_tol=1e-12)
    # population variance: divisor n, not n-1
    assert math.isclose(var, float(np.var(values)), rel_tol=1e-12)
    with pytest.raises(EmptyValues):
        population_stats([])


def test_population_stats_overflow_is_too_large():
    # math.pow of the first deviation once raised a bare OverflowError
    with pytest.raises(TooLarge, match="squared deviations from the mean overflow float64"):
        population_stats([1e200, 0.0, 0.0])


def _loop_sum(xs, start=0.0):
    acc = start
    for v in xs:
        acc += v
    return acc


_SUMMANDS = st.lists(
    st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SUMMANDS, min_size=1, max_size=4), st.sampled_from([0.0, -0.0, 0.1, -3e5]))
def test_left_sum_is_the_loop(blocks, start):
    # 1-D, with the total carried from block to block as mae_eval carries it
    total = start
    for block in blocks:
        total = dataset.left_sum(block, total)
        assert isinstance(total, float)
    assert total.hex() == _loop_sum([v for b in blocks for v in b], start).hex()
    # 2-D: each ragged row zero-padded at the end, as prepare pads its arrays
    width = max(map(len, blocks))
    rows = np.array([b + [0.0] * (width - len(b)) for b in blocks]).reshape(len(blocks), width)
    assert list(map(float.hex, dataset.left_sum(rows))) == [_loop_sum(b).hex() for b in blocks]


@settings(max_examples=200, deadline=None)
@given(st.lists(_SUMMANDS, min_size=1, max_size=4), st.sampled_from([0.0, -0.0, 0.1, -3e5]))
def test_column_sums_are_the_loop_down_each_column(columns, start):
    # the columns cut to the shortest; one column goes through left_sum, two
    # or more through numpy's reduce
    depth = min(map(len, columns))
    x = np.array([c[:depth] for c in columns]).reshape(len(columns), depth).T.copy()
    want = [_loop_sum(c[:depth], start).hex() for c in columns]
    assert list(map(float.hex, dataset.column_sums(x, start))) == want
    # an array that is not C-contiguous is added the same way
    assert list(map(float.hex, dataset.column_sums(np.asfortranarray(x), start))) == want


@pytest.mark.parametrize("k", [1, 2, 3, 64, 257, 444, 5000])
@pytest.mark.parametrize("n", [2, 3, 60, 257])
def test_numpy_adds_the_rows_of_a_c_contiguous_array_in_order(k, n):
    # column_sums relies on np.add.reduce along axis 0 of a C-contiguous
    # (k, n >= 2) float64 array adding each column's rows in order, from
    # initial; a numpy that reduces such arrays pairwise fails here by name
    rnd = np.random.default_rng(k * 1000 + n)
    x = rnd.random((k, n)) * 10.0 ** rnd.integers(-8, 8, (k, n))
    x[rnd.random((k, n)) < 0.1] *= -1.0
    x[rnd.random((k, n)) < 0.05] = -0.0
    assert x.flags.c_contiguous
    got = np.add.reduce(x, axis=0, initial=0.0)
    if k * n <= 20_000:
        want = np.array([_loop_sum(col) for col in x.T.tolist()])
    else:
        want = dataset.left_sum(x.T)
    assert got.tobytes() == want.tobytes()


def test_population_stats_edges():
    # the sums start from +0.0, as a loop from 0.0 does; a bare running sum
    # of the values would give -0.0
    _, mean, variance = population_stats([-0.0, -0.0])
    assert math.copysign(1.0, mean) == 1.0 and variance == 0.0
    # the squares are libm pow(d, 2), which rounds this d away from d * d
    v = 4.717544224108858
    assert population_stats([0.0, 2 * v]) == (2, v, pow(v, 2))


def test_grid_stats_example():
    ds = Dataset({"g": {"u1": [0.0, 1.0, 2.0], "u2": [3.0, 4.0]}}, 4.0)
    st_ = grid_stats(ds, "g")
    assert st_.n == 5
    assert st_.mean == 2.0
    assert st_.variance == 2.0


def test_grid_stats_squares_as_python_pow():
    # (v - mean) ** 2 is libm pow; numpy's square rounds the last bit of
    # this variance differently, which large sums can hide from the digests
    ds = Dataset({"g": {"a": [29.85073415185066], "b": [34.14926584814934]}}, 65.0)
    st_ = grid_stats(ds, "g")
    assert st_.mean == 32.0
    assert st_.variance.hex() == "0x1.27a353b31c769p+2"
    squares = np.square(np.array(ds.grid_values("g")) - st_.mean)
    assert (sum(squares.tolist()) / 2).hex() == "0x1.27a353b31c76ap+2"


def test_clipped_values_first_gamma_rule():
    ds = Dataset({"g": {"u1": [5.0, 1.0, 3.0], "u2": [2.0]}}, 5.0)
    kept = ds.clipped_values("g", {"u1": 2, "u2": 0})
    assert kept == [5.0, 1.0]


@pytest.mark.parametrize(
    "retained, error",
    [
        ({"a": -1}, InvalidPlan),
        ({"a": 4}, InvalidPlan),
        ({"a": 7}, InvalidPlan),
        ({"zz": 0}, InvalidPlan),
        ({"a": True}, InvalidParams),
        ({"a": 1.5}, InvalidParams),
        (None, InvalidPlan),
    ],
)
def test_clipped_values_checks_the_row(retained, error):
    # the row check of clip_release: a row that is no mapping, a count
    # outside [0, m] or a user the grid lacks is a bad plan, a count that is
    # no integer a bad parameter
    ds = Dataset({"g": {"a": [1.0, 2.0, 3.0], "b": [4.0]}}, 5.0)
    with pytest.raises(error):
        ds.clipped_values("g", retained)
    assert ds.clipped_values("g", {"a": 3, "b": 0}) == [1.0, 2.0, 3.0]
    # the grid is looked up before the row is read as a plan
    with pytest.raises(UnknownGrid):
        ds.clipped_values("absent", {})


def test_clip_plan_checks_its_counts_when_made():
    # entries in grid, then user token, order: (g, a) of 2, (g, b) of 3,
    # (h, a) of 1
    occ = Dataset({"g": {"a": [1, 2], "b": [10, 20, 30]}, "h": {"a": [5]}}, 65).occupancy()
    bad = [
        ([3, 3, 1], "user a in grid g"),
        ([-1, 3, 1], "user a in grid g"),
        ([2, 3, 2], "user a in grid h"),
    ]
    for counts, where in bad:
        with pytest.raises(InvalidPlan, match=f"retained count for {where} must be in"):
            ClipPlan(occ, np.array(counts))
    for counts in ([1, 1], [[2, 3, 1]], [2, 3, 1, 0]):
        with pytest.raises(InvalidPlan, match="one count per entry"):
            ClipPlan(occ, np.array(counts))
    for counts in ([2.0, 3.0, 1.0], [True, True, True], ["2", "3", "1"]):
        with pytest.raises(InvalidParams, match="must be integers"):
            ClipPlan(occ, np.array(counts))
    # a list or another integer dtype is stored as a read-only int64 array
    for counts in ([2, 0, 1], np.array([2, 0, 1], np.uint8)):
        plan = ClipPlan(occ, counts)
        assert plan._gammas.dtype == np.int64 and not plan._gammas.flags.writeable
        assert plan.retained == {"g": {"a": 2, "b": 0}, "h": {"a": 1}}


def test_dataset_validation():
    with pytest.raises(ValueOutOfRange):
        Dataset({"g": {"u": [2.0]}}, 1.0)
    with pytest.raises(EmptyDataset):
        Dataset({}, 1.0)
    with pytest.raises(UnknownGrid):
        Dataset({"g": {"u": [0.5]}}, 1.0).values("h", "u")


@given(
    st.dictionaries(
        st.sampled_from(["g1", "g2", "g3"]),
        st.dictionaries(
            st.sampled_from(["u1", "u2", "u3", "u4"]),
            st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_occupancy_matches_sample_counts(samples):
    ds = Dataset(samples, 1.0)
    occ = ds.occupancy()
    for g in ds.grids():
        for u in ds.users_in(g):
            assert occ.count(g, u) == len(ds.values(g, u))


def _assert_same_dataset(got, want):
    """got and want agree on every accessor, with the same return types."""
    assert got.bound_u == want.bound_u
    assert got.grids() == want.grids()
    assert got.occupancy().as_dict() == want.occupancy().as_dict()
    assert got.occupancy() is got.occupancy()
    for g in want.grids():
        users = want.users_in(g)
        assert got.users_in(g) == users
        assert got.grid_values(g) == want.grid_values(g)
        assert type(got.grid_values(g)) is list
        assert {type(v) for v in got.grid_values(g)} == {float}
        for u in users + ["~absent"]:
            assert got.values(g, u) == want.values(g, u)
            assert type(got.values(g, u)) is tuple
            assert {type(v) for v in got.values(g, u)} <= {float}
        counts = want.occupancy().row(g)
        retained = {u: min(i % 3, counts[u]) for i, u in enumerate(users)}
        assert got.clipped_values(g, retained) == want.clipped_values(g, retained)
        assert type(got.clipped_values(g, retained)) is list
        assert grid_stats(got, g) == grid_stats(want, g)
    with pytest.raises(UnknownGrid):
        got.values("~absent", "u")


def test_dataset_constructors_agree():
    # generate_values and parse_dataset build the column directly; the
    # dict constructor is the public path
    occ = generate_occupancy(SynthParams(grids=4, users=15, heavy_gamma=3), RngStream(3))
    generated = generate_values(occ, ValueModel(bound_u=65.0), RngStream(3))
    assert generated.occupancy() is occ
    from_dict = Dataset(_contents(generated), 65.0)
    buf = io.StringIO()
    write_dataset(generated, buf)
    parsed = parse_dataset(buf.getvalue(), 65.0)
    for got in (generated, parsed):
        _assert_same_dataset(got, from_dict)


_RT_CORE = st.text(alphabet='ab,"\u00e9\u4e2d\r\n', min_size=1, max_size=3).filter(str.strip)
_RT_TOKENS = st.builds(
    lambda before, core, after: before + core + after,
    st.sampled_from(["", " ", "\t "]),
    _RT_CORE,
    st.sampled_from(["", " ", "  "]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        _RT_TOKENS,
        st.dictionaries(
            _RT_TOKENS,
            st.lists(st.floats(min_value=0.0, max_value=65.0), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_write_dataset_round_trip(samples):
    ds = Dataset(samples, 65.0)
    buf = io.StringIO()
    write_dataset(ds, buf)
    # the reader strips every token, so padded tokens merge, their rows in
    # file order: by user token, then grid
    want: dict[str, dict[str, list[float]]] = {}
    for u, g in sorted((u, g) for g, row in samples.items() for u in row):
        want.setdefault(g.strip(), {}).setdefault(u.strip(), []).extend(samples[g][u])
    _assert_same_dataset(parse_dataset(buf.getvalue(), 65.0), Dataset(want, 65.0))


def test_quoted_crlf_rewrite_parses_to_the_same_column(tmp_path):
    plain = tmp_path / "values.csv"
    argv = ["synth", "--values", "--grids", "4", "--users", "15", "--seed", "8"]
    assert cli_main([*argv, "--out", str(plain)]) == 0
    quoted = io.StringIO()
    with open(plain, encoding="utf-8", newline="") as fh:
        csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(fh))
    assert quoted.getvalue().startswith('"user","grid","value"\r\n"u')
    want = parse_dataset(plain, 65.0)
    # every block holds quotes, so each is read with csv.reader
    with mock.patch.object(dataset, "_records", wraps=dataset._records) as records:
        got = parse_dataset(quoted.getvalue(), 65.0)
    assert records.call_count >= 1
    assert np.array_equal(got._column, want._column)
    _assert_same_dataset(got, want)


def test_occupancy_rejects_non_integer_counts():
    # 1.9 and True were once stored as counts 1 and 1
    with pytest.raises(InvalidParams, match="must be an integer"):
        OccupancyArray({"g": {"u": 1.9}})
    with pytest.raises(InvalidParams, match="must be an integer"):
        OccupancyArray({"g": {"u": 2, "v": True}})
    with pytest.raises(InvalidParams, match="must be an integer"):
        OccupancyArray({"g": {"u": "3"}})
    with pytest.raises(NonPositiveCount, match="'v' in grid 'g' is 0"):
        OccupancyArray({"g": {"u": 2, "v": 0}})
    occ = OccupancyArray({"g": {"u": np.int64(3)}})
    assert occ.count("g", "u") == 3 and type(occ.count("g", "u")) is int


def test_non_str_tokens_are_invalid_params():
    # mixed key types raised a bare TypeError from sorted, and a lone int
    # user token was stored
    with pytest.raises(InvalidParams, match="user token 1 in grid 'g' is not a string"):
        OccupancyArray({"g": {1: 2, "a": 3}})
    with pytest.raises(InvalidParams, match="grid token 1 is not a string"):
        OccupancyArray({1: {"a": 2}, "g": {"a": 3}})
    with pytest.raises(InvalidParams, match="user token 1 in grid 'g' is not a string"):
        Dataset({"g": {1: [1.0], "a": [2.0]}}, 65.0)
    with pytest.raises(InvalidParams, match="user token 1 in grid 'g' is not a string"):
        OccupancyArray({"g": {1: 2}})


def test_counts_past_int64_are_too_large():
    big = OccupancyArray({"g": {"u": 2**63 - 1, "v": 2**63 - 1}, "h": {"v": 1}})
    assert big.count("g", "u") == 2**63 - 1
    # a grid total past int64 stays exact
    assert big.total("g") == 2**64 - 2 and type(big.total("g")) is int


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grid_totals_equal_python_sums(seed):
    # counts this large take the Python sum per grid; counts near 2^63 - 1,
    # at 2^32 - 1 and 2^32, and small ones
    rnd = random.Random(seed)
    edges = [2**63 - 1, 2**63 - 2, 2**62 + 1, 2**32 - 1, 2**32, 2**32 + 1, 1]
    grids = [f"g{i}" for i in range(5)]
    rows = [
        [rnd.choice(edges) if rnd.random() < 0.5 else rnd.randrange(1, 2**63) for _ in range(n)]
        for n in (1, 2, 7, 40, 3)
    ]
    counts = [m for row in rows for m in row]
    offsets = np.cumsum([0, *map(len, rows)])
    ids = [i for row in rows for i in range(len(row))]
    occ = OccupancyArray._from_columns(grids, [f"u{i:02d}" for i in range(40)], offsets, ids, counts)
    for grid, row in zip(grids, rows):
        assert occ.total(grid) == sum(row) and type(occ.total(grid)) is int
    assert occ.total("g3") > 2**64
    with pytest.raises(TooLarge, match="'v' in grid 'g' is 9223372036854775808"):
        OccupancyArray({"g": {"u": 2, "v": 2**63}})
    for text in ("u1,g1,2\nu2,g1,9223372036854775808\n", 'u1,g1,2\n"u2",g1,9223372036854775808\n'):
        with pytest.raises(TooLarge, match="line 3: count 9223372036854775808 exceeds 2"):
            parse_occupancy("user,grid,count\n" + text)
    occ = parse_occupancy("user,grid,count\nu1,g1,9223372036854775807\n")
    assert occ.as_dict() == {"g1": {"u1": 2**63 - 1}}


@pytest.mark.parametrize(
    "text",
    [
        # a quoted CR is part of the token
        'user,grid,count\r\nu1,"g\r1",1\r\nu2,g2,3\r\n',
        # a bare CR inside a row is a csv error, not a line break
        "user,grid,count\nu1,g1,1\r2\n",
    ],
    ids=["quoted-cr", "bare-cr"],
)
def test_file_parses_as_its_text(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    data = text.replace("count", "value")
    data_path = tmp_path / "data.csv"
    data_path.write_bytes(data.encode())
    want = _outcome(lambda t: parse_occupancy(t).as_dict(), text)
    if "\r1" in text:
        assert want == {"g\r1": {"u1": 1}, "g2": {"u2": 3}}
    else:
        assert want[0] is MalformedRow
        assert want[1].startswith("line 2: new-line character seen in unquoted field")
    for source in (path, str(path)):
        assert _outcome(lambda t: parse_occupancy(t).as_dict(), source) == want
    want = _outcome(lambda t: _contents(parse_dataset(t, 5.0)), data)
    for source in (data_path, str(data_path)):
        assert _outcome(lambda t: _contents(parse_dataset(t, 5.0)), source) == want


def _assert_same_accessors(got, want):
    """got and want agree on every accessor, and counts are Python ints."""
    assert got == want and want == got
    assert repr(got) == repr(want)
    assert got.grids() == want.grids()
    assert got.users() == want.users()
    assert got.max_grids_per_user() == want.max_grids_per_user()
    assert got.as_dict() == want.as_dict()
    for g in want.grids():
        for name in ("users_in", "counts_in", "row", "total", "m_star"):
            assert getattr(got, name)(g) == getattr(want, name)(g), name
        assert {type(c) for c in got.counts_in(g)} == {int}
        assert type(got.total(g)) is int and type(got.m_star(g)) is int
    users = want.users()
    rows = want.as_dict()
    # about 20 users, spread over the token order, and absent ones around them
    for u in users[:: max(1, len(users) // 20)] + users[-1:] + ["", users[0] + "\0", "~absent"]:
        assert got.grids_of(u) == want.grids_of(u) == [g for g in rows if u in rows[g]]
        for g in want.grids():
            assert got.count(g, u) == want.count(g, u) == rows[g].get(u, 0)
            assert type(got.count(g, u)) is int
    with pytest.raises(UnknownGrid):
        got.row("~absent")
    with pytest.raises(UnknownGrid):
        got.total("~absent")


_OCC_TOKENS = st.text(alphabet='ab1,"\u00e9~', min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        _OCC_TOKENS,
        st.dictionaries(_OCC_TOKENS, st.integers(1, 2**63 - 1) | st.integers(1, 5), max_size=6),
        min_size=1,
        max_size=4,
    )
)
def test_array_built_occupancy_matches_dict_built(counts):
    # parse_occupancy builds the columns directly; the constructor takes a dict
    if not any(counts.values()):
        with pytest.raises(EmptyDataset):
            OccupancyArray(counts)
        return
    text = "user,grid,count\n" + "".join(
        f"{_quoted(u)},{_quoted(g)},{m}\n" for g, row in counts.items() for u, m in row.items()
    )
    _assert_same_accessors(parse_occupancy(text), OccupancyArray(counts))


def test_dataset_range_error_names_first_bad_value():
    # the first bad value in (grid, user, input) order, as the scalar loop found it
    with pytest.raises(ValueOutOfRange, match="value 2.0 for user 'a' in grid 'g'"):
        Dataset({"h": {"a": [-1.0]}, "g": {"b": [-3.0], "a": [0.5, 2.0, -1.0]}}, 1.0)
    with pytest.raises(ValueOutOfRange, match="value nan for user 'u'"):
        Dataset({"g": {"u": [0.5, math.nan]}}, 1.0)
    # a bad value that opens a user's block belongs to that user
    with pytest.raises(ValueOutOfRange, match="value 7.0 for user 'b'"):
        Dataset({"g": {"a": [0.5, 0.5], "b": [7.0]}}, 1.0)
    # each user is converted and then range-checked before the next user
    with pytest.raises(ValueOutOfRange, match="value 9.0 for user 'a'"):
        Dataset({"g": {"a": [9.0], "b": ["x"]}}, 1.0)
    with pytest.raises(ValueError, match="could not convert"):
        Dataset({"g": {"a": ["x"], "b": [9.0]}}, 1.0)
    with pytest.raises(ValueError, match="could not convert"):
        Dataset({"g": {"a": [9.0, "x"]}}, 1.0)


# Reference parsers: the row-by-row csv.reader loop the block parser replaced.
# It is the specification of what a CSV means and which error it raises.


def _records_reference(text):
    """(record number, csv fields) pairs; a csv.Error is a MalformedRow
    at the number of the record it cut short."""
    lineno = 1
    try:
        for row in csv.reader(io.StringIO(text)):
            yield lineno, row
            lineno += 1
    except csv.Error as exc:
        raise MalformedRow(f"line {lineno}: {exc}") from None


def _rows_reference(text, header):
    records = _records_reference(text)
    try:
        _, first = next(records)
    except StopIteration:
        raise EmptyDataset("input is empty") from None
    if tuple(f.strip().lower() for f in first) != header:
        raise MalformedRow(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    count = 0
    for lineno, row in records:
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


def _parse_dataset_reference(text, bound_u):
    samples = {}
    for lineno, (user, grid, raw) in _rows_reference(text, DATA_HEADER):
        try:
            value = float(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: bad value {raw!r}") from None
        samples.setdefault(grid, {}).setdefault(user, []).append(value)
    # the range check of the scalar Dataset constructor, in its order
    for grid in sorted(samples):
        for user in sorted(samples[grid]):
            for v in samples[grid][user]:
                if not 0.0 <= v <= bound_u:
                    raise ValueOutOfRange(
                        f"value {v} for user {user!r} in grid {grid!r} "
                        f"outside [0, {float(bound_u)}]"
                    )
    return _contents(Dataset(samples, bound_u))


def _parse_occupancy_reference(text):
    counts = {}
    for lineno, (user, grid, raw) in _rows_reference(text, OCCUPANCY_HEADER):
        try:
            m = int(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: bad count {raw!r}") from None
        if m <= 0:
            raise NonPositiveCount(f"line {lineno}: count {m} must be >= 1")
        if m >= 2**63:
            raise TooLarge(f"line {lineno}: count {m} exceeds 2^63 - 1")
        row = counts.setdefault(grid, {})
        if user in row:
            raise DuplicateEntry(f"line {lineno}: duplicate entry ({user}, {grid})")
        row[user] = m
    return OccupancyArray(counts)


def _contents(ds):
    return {g: {u: ds.values(g, u) for u in ds.users_in(g)} for g in ds.grids()}


def _outcome(parse, *args):
    """The parse result, or the type and message of what it raised."""
    try:
        return parse(*args)
    except Exception as exc:  # both must raise the same type and message
        return type(exc), str(exc)


def _quoted(field):
    return '"' + field.replace('"', '""') + '"'


_TOKENS = ["u1", "u2", "g1", "g2", " u1 ", "g1\t", "a,b", 'q"t', "two\nlines", "", "  ", "\x1cu2"]
# str.strip() removes the no-break and em spaces, and float() reads the
# Arabic-Indic one as 1
_TOKENS += ["\u00fc1", "\u00a0u1", "u\u2003"]
# non-ASCII tokens that no non-ASCII space pads, and a NEL
_TOKENS += ["\u2019u", " \u00fc2\x1f", "\u3000u\x85"]
_VALUES = ["0", "1.5", " 2 ", "4e0", "+3", "1_0", "3.0", "-1", "7", "nan", "inf", "x", "", "\x1c1", "0x1"]
_VALUES += [str(2**63 - 1), str(2**63), "\u0661", " 2\u00a0"]
_ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]
# every character str.strip() removes
_WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# tokens and numbers that read without error once stripped, and
# lines csv.reader skips
_NAMES = ["u1", "u2", "g1", "g2", "a,b", 'q"t', "two\nlines", "\u00fc1", "\u2019u", "u\u00a0v"]
_GOOD = {
    "value": ["0", "1.5", "4e0", "+3", "5", "0.25", "\u0661"],
    "count": ["1", "2", "+4", "1_0", "\u0661", str(2**63 - 1)],
}
_SKIPPED = [" ", "\t ", '" "', "\u00a0", "\x1f\u3000"]


@st.composite
def _csv_text(draw, header):
    """CSV text: quoted and padded fields, CRLF line ends and blank and
    whitespace-only lines. Half the examples also hold lone CRs, wrong field
    counts, bad or out-of-range numbers, empty tokens and repeated pairs;
    the other half hold no error, and pad every field with any whitespace."""
    valid = draw(st.booleans())
    heads = [",".join(header), ",".join(header).upper(), " user , grid," + header[2]]
    lines = [draw(st.sampled_from(heads if valid else [*heads, "user,grid"]))]
    pad = st.sampled_from(["", "", *_WHITESPACE])
    seen = set()
    for _ in range(draw(st.integers(int(valid), 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces"] + ["short", "long"] * (not valid)))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from(_SKIPPED)))
            continue
        if valid:
            fields = [draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES))]
            if header == OCCUPANCY_HEADER and tuple(fields) in seen:
                continue
            seen.add(tuple(fields))
            fields = [draw(pad) + f + draw(pad) for f in [*fields, draw(st.sampled_from(_GOOD[header[2]]))]]
        else:
            fields = [draw(st.sampled_from(_TOKENS)), draw(st.sampled_from(_TOKENS)), draw(st.sampled_from(_VALUES))]
        if kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append(draw(st.sampled_from(_VALUES)))
        rendered = []
        for f in fields:
            must = any(c in f for c in ',"\n\r')
            rendered.append(_quoted(f) if must or draw(st.booleans()) and draw(st.booleans()) else f)
        lines.append(",".join(rendered))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(_ENDINGS[:-1] if valid else _ENDINGS))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _write(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode())
    return path


# each example is parsed from its text and from a file of it
_FILE_AND_TEXT = settings(
    max_examples=1300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FILE_AND_TEXT
@given(_csv_text(DATA_HEADER), st.sampled_from([1, 5, 17, 64, 1 << 20]))
def test_parse_dataset_matches_reference(tmp_path, text, block):
    want = _outcome(_parse_dataset_reference, text, 5.0)
    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        for source in (text, _write(tmp_path, text)):
            assert _outcome(lambda t: _contents(parse_dataset(t, 5.0)), source) == want


@_FILE_AND_TEXT
@given(_csv_text(OCCUPANCY_HEADER), st.sampled_from([1, 5, 17, 64, 1 << 20]))
def test_parse_occupancy_matches_reference(tmp_path, text, block):
    want = _outcome(_parse_occupancy_reference, text)
    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        for source in (text, _write(tmp_path, text)):
            assert _outcome(parse_occupancy, source) == want


def test_parse_matches_reference_on_clean_blocks():
    # many clean blocks, repeated pairs across blocks, one bad value late;
    # CRLF line ends, non-ASCII tokens and padding, ASCII or not, alone keep
    # a block off the csv.reader path
    ascii_rows = [f"u{i % 7},g{i % 3},{i % 5}.25" for i in range(400)]
    padded_rows = [f" \u00fcu{i % 7}\x1f,\u2019g{i % 3} ,{i % 5}.25" for i in range(400)]
    spaced_rows = [f"\u00a0u{i % 7}\u3000,g{i % 3}\u2003 ,{i % 5}.25" for i in range(400)]
    for end, rows in product(("\n", "\r\n"), (ascii_rows, padded_rows, spaced_rows)):
        text = end.join(["user,grid,value", *rows, ""])
        occ = end.join(["user,grid,count", *(f"u{i},g{i % 3},{i + 1}" for i in range(300)), ""])
        with mock.patch.object(dataset, "_BLOCK_BYTES", 50):
            with mock.patch.object(dataset, "_records", side_effect=AssertionError):
                assert _contents(parse_dataset(text, 5.0)) == _parse_dataset_reference(text, 5.0)
                assert parse_occupancy(occ) == _parse_occupancy_reference(occ)
            bad_row = rows[350].rsplit(",", 1)[0] + ",x"
            bad = end.join(["user,grid,value", *rows[:350], bad_row, *rows[351:], ""])
            assert _outcome(parse_dataset, bad, 5.0) == _outcome(_parse_dataset_reference, bad, 5.0)
            dup = occ + f"u5,g2,1{end}"
            assert _outcome(parse_occupancy, dup) == _outcome(_parse_occupancy_reference, dup)


def test_csv_errors_are_malformed_rows_at_their_record():
    big = "g" * (csv.field_size_limit() + 1)
    cases = [
        ("user,grid,value\nu1,g1,1\r2\n", "line 2: new-line character"),
        (f"user,grid,value\nu1,g1,1\n\nu2,{big},2\n", "line 4: field larger"),
        (f"user,{big},value\n", "line 1: field larger"),
    ]
    for text, message in cases:
        with pytest.raises(MalformedRow, match=message):
            parse_dataset(text, 65.0)
        assert _outcome(parse_dataset, text, 65.0) == _outcome(_parse_dataset_reference, text, 65.0)


@pytest.mark.parametrize("before", ["u1,g1,1\n", "u1,g1\n", "u1,g1,x\n", '"u1\n",g1,1\n'])
def test_parse_long_line_keeps_csv_field_limit(before):
    # csv.Error only after the rows before it, in the same block, are checked
    limit = csv.field_size_limit()
    text = f"user,grid,value\n{before}u1,{'g' * (limit + 1)},2\n"
    for block in (64, 1 << 20):
        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            got = _outcome(parse_dataset, text, 5.0)
        assert got == _outcome(_parse_dataset_reference, text, 5.0)


def test_lone_surrogate_in_text_is_a_token():
    # CSV text is encoded with surrogatepass, and tokens decoded the same way
    ds = parse_dataset("user,grid,value\nu\udc80,g1,1\n", 5.0)
    assert ds.users_in("g1") == ["u\udc80"] and ds.values("g1", "u\udc80") == (1.0,)
    users = ["u\ue000", "u\udc80", "u\ud7ff", "u~"]
    for quote in (str, _quoted):
        text = "user,grid,count\n" + "".join(f"{quote(u)},g1,1\n" for u in users)
        # surrogates sort between U+D7FF and U+E000, as code points do
        assert parse_occupancy(text).users() == sorted(users)
        with pytest.raises(DuplicateEntry, match="line 6: duplicate entry \\(u\udc80, g1\\)"):
            parse_occupancy(text + "u\udc80,g1,2\n")


@pytest.mark.parametrize("c", [c for c in _WHITESPACE if c not in "\r\n"], ids=lambda c: f"U+{ord(c):04X}")
def test_tokens_lose_every_padding_str_strip_removes(c):
    # each distinct token is stripped once, in its _Codes table, so padded
    # blocks are split as bytes, ASCII or not
    text = f"user,grid,value\n{c}u1{c},{c}g1{c},1\n{c}\u00fc2{c},g2{c},2\nu1,g1,3\n"
    with mock.patch.object(dataset, "_records", side_effect=AssertionError):
        got = parse_dataset(text, 5.0)
    assert _contents(got) == _parse_dataset_reference(text, 5.0)
    assert got.occupancy().users() == ["u1", "\u00fc2"]
    for row in (f"{c},g1,2", f"u1,{c}{c},2", f'"{c}",g1,2'):
        text = f"user,grid,value\nu1,g1,1\n{row}\n"
        with pytest.raises(MalformedRow, match="^line 3: empty user or grid token$"):
            parse_dataset(text, 5.0)
    for row, block in product((f"{c}u1{c},g1,2", f'"{c}u1{c}",g1,2'), (1, 1 << 20)):
        text = f"user,grid,count\nu1,g1,1\n{row}\n"
        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            with pytest.raises(DuplicateEntry, match="^line 3: duplicate entry \\(u1, g1\\)$"):
                parse_occupancy(text)
    # float() reads the Arabic-Indic digit one from its text but not from its
    # bytes, so csv.reader reads the block again and keys the same tokens
    text = f"user,grid,value\n{c}u1{c},g1{c},\u0661\n{c}u2,g1,2\n"
    got = parse_dataset(text, 5.0)
    assert _contents(got) == _parse_dataset_reference(text, 5.0)
    assert got.occupancy().users() == ["u1", "u2"] and got.grids() == ["g1"]


def _decode_error(data):
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError("data decodes")


def test_undecodable_file_is_io_error_at_the_byte_a_whole_decode_names(tmp_path):
    # the file is checked as it is read; these bad bytes are near 3 MB
    row = "\u00e9,g1,1\n".encode()
    head = b"user,grid,value\n" + row * ((3 << 20) // len(row))
    path = tmp_path / "bad.csv"
    for tail in (b"u\xff,g1,1\n", b"u\xe2\x82,g1,1\n", b"u,g1,1\n\xe2\x82"):
        path.write_bytes(head + tail)
        with pytest.raises(IoError) as got:
            parse_dataset(path, 5.0)
        assert str(got.value) == f"cannot read {path}: {_decode_error(head + tail)}"
    assert "position 3145" in str(got.value)
    # before any parse error, such as a bad header
    path.write_bytes(b"user,grid\n" + head + b"\xff")
    with pytest.raises(IoError, match="can't decode byte 0xff"):
        parse_occupancy(path)


@pytest.mark.parametrize("size", range(1, 9))
def test_utf8_check_carries_sequences_across_slices(tmp_path, size):
    # every read boundary through two- to four-byte sequences, valid or cut
    path = tmp_path / "input.csv"
    good = "user,grid,value\n\u00e9\u20ac\U0001f600,g1,1\n".encode()
    # bytes 16-17 are the e acute, 18-20 the euro sign, 21-24 the emoji
    bad = [good[:16] + b"\x80" + good[16:], good[:17] + b"A" + good[18:], good[:20] + b"A" + good[21:]]
    bad += [good[:23] + b"A" + good[24:], good + b"\xf0\x9f"]
    # a cut sequence whose read is followed by an ASCII one
    bad += [good[:17] + b",g1,1\n", good[:19] + b",g1,1\n", good[:24] + b",g1,1\n"]
    with mock.patch.object(dataset, "_BLOCK_BYTES", size):
        path.write_bytes(good)
        assert parse_dataset(path, 5.0).users_in("g1") == ["\u00e9\u20ac\U0001f600"]
        for data in bad:
            path.write_bytes(data)
            with pytest.raises(IoError) as got:
                parse_dataset(path, 5.0)
            assert str(got.value) == f"cannot read {path}: {_decode_error(data)}"


# Streams whose read boundaries fall inside what the parse must keep whole.
# Every read starts a line, so at _BLOCK_BYTES 1 the blank CRLF line, the
# token that opens a row with a multi-byte character and the quoted field
# that opens a row are each split across two reads; the larger sizes move
# the splits elsewhere.
_BOUNDARY_CASES = {
    "crlf": "user,grid,{}\r\nu1,g1,1\r\n\r\nu2,g1,2\r\nuuuuuu,gggggg,12\r\n",
    "utf8": "user,grid,{}\n\u00e9,g1,1\n\u20ac,g1,2\n\U0001f600,\u00fc,3\nu\u00e9\u20ac,\U0001f600,1\n",
    "quoted-newline": 'user,grid,{}\n"two\nlines",g1,1\nu2,"g\n1",2\n"a\n\nb",g1,3\n',
    "quoted-newline-then-error": 'user,grid,{}\n"two\nlines",g1,1\nu2,g1,x\n',
    "quoted-newline-then-repeat": 'user,grid,{}\n"u\n1",g1,1\n"u\n1",g1,2\n',
    "no-final-newline": "user,grid,{}\nu1,g1,1\nu2,g1,2",
    "crlf-no-final-newline": "user,grid,{}\r\nu1,g1,1\r\nu2,g1,2\r",
    "header-only": "user,grid,{}\n",
    "header-only-no-newline": "user,grid,{}",
    "empty": "",
}


@pytest.mark.parametrize("block", [1, 2, 5, 17])
@pytest.mark.parametrize("case", list(_BOUNDARY_CASES))
def test_read_boundaries_match_reference(tmp_path, case, block):
    data = _BOUNDARY_CASES[case].format("value")
    occ = _BOUNDARY_CASES[case].format("count")
    want_data = _outcome(_parse_dataset_reference, data, 5.0)
    want_occ = _outcome(_parse_occupancy_reference, occ)
    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        for source in (data, _write(tmp_path, data)):
            assert _outcome(lambda t: _contents(parse_dataset(t, 5.0)), source) == want_data
        for source in (occ, _write(tmp_path, occ)):
            assert _outcome(parse_occupancy, source) == want_occ


@pytest.mark.parametrize(
    "field, first",
    [
        ("value", "u1,g1,x\n"),
        ("value", "u1,g1\n"),
        ("value", '"u1,g1,1\n'),
        ("count", "u1,g1,1\nu1,g1,2\n"),
        ("count", "u1,g1,0\n"),
    ],
    ids=["bad-value", "short-row", "open-quote", "duplicate-entry", "zero-count"],
)
def test_parse_error_yields_to_a_later_undecodable_byte(tmp_path, field, first):
    # a parse error in the first block, and a byte near 3 MB that does not
    # decode: the file is the IoError a decode of the whole file names
    row = "\u00e9,g2,1\n".encode()
    head = f"user,grid,{field}\n{first}".encode() + row * ((3 << 20) // len(row))
    path = tmp_path / "bad.csv"
    if field == "count":
        parse, reference = parse_occupancy, _parse_occupancy_reference
    else:
        parse, reference = (lambda t: parse_dataset(t, 5.0)), (lambda t: _parse_dataset_reference(t, 5.0))
    # with no bad byte, the parse error is raised
    path.write_bytes(head)
    want = _outcome(reference, head.decode())
    assert want[0] in (MalformedRow, DuplicateEntry, NonPositiveCount)
    assert _outcome(parse, path) == want
    for tail in (b"u\xff,g1,1\n", b"u,g1,1\n\xe2\x82"):
        path.write_bytes(head + tail)
        with pytest.raises(IoError) as got:
            parse(path)
        assert str(got.value) == f"cannot read {path}: {_decode_error(head + tail)}"


def test_parse_peak_memory_is_bounded(tmp_path):
    # The parse reads the file as a stream and keeps, per block, the
    # converted values and the runs of equal (user, grid) rows. Its
    # tracemalloc peak, the returned dataset included, measured (Python
    # 3.11.7, numpy 2.4.6) 1.04 times the file's size on this 4 MB file,
    # where every row is its own run, and 0.68 times on the same dataset
    # written by write_dataset, by user, then grid, in long runs; a parser
    # that held the file's bytes peaked at 1.58 and 1.57 times. Each bound
    # leaves 25 % of margin above its measurement, for other Python
    # versions.
    values = np.random.default_rng(1).uniform(0.0, 65.0, 150_000).tolist()
    text = "user,grid,value\n" + "".join(f"u{i % 1000},g{i % 12},{v!r}\n" for i, v in enumerate(values))
    buf = io.StringIO()
    write_dataset(parse_dataset(text, 65.0), buf)
    for text, bound in ((text, 1.3), (buf.getvalue(), 0.85)):
        path = _write(tmp_path, text)
        tracemalloc.start()
        try:
            ds = parse_dataset(path, 65.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.occupancy().total("g0") == 12_500
        assert peak < bound * len(text)
