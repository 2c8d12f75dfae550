import inspect
import os
import pickle
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecox import (LinearPredictorState, SparseColumnMatrix, SurvivalDataset, load_dataset,
                       save_dataset, standardize)
from sparsecox import data
from sparsecox.data import FORMAT_DENSE, FORMAT_SPARSE

from conftest import check_dataset, make_dataset, random_survival_data


def write_survival(path, rows):
    with open(path, "wt") as fh:
        fh.write("id,time,status\n")
        for i, (t, d) in enumerate(rows, start=1):
            fh.write(f"{i},{t},{d}\n")


def test_two_subject_ordering(tmp_path):
    surv = tmp_path / "s.csv"
    des = tmp_path / "x.csv"
    write_survival(surv, [(1.0, 1), (2.0, 1)])
    with open(des, "wt") as fh:
        fh.write("id,x1\n1,0.0\n2,1.0\n")
    ds = load_dataset(surv, des, FORMAT_DENSE)
    # descending time: subject 2 first
    assert ds.order.tolist() == [1, 0]
    assert ds.event_count == 2
    assert ds.time_sorted.tolist() == [2.0, 1.0]


def test_sparse_empty_columns(tmp_path):
    surv = tmp_path / "s.csv"
    des = tmp_path / "x.coord"
    write_survival(surv, [(1.0, 1), (2.0, 0)])
    des.write_text("2 3 0\n")
    ds = load_dataset(surv, des, FORMAT_SPARSE)
    assert ds.p == 3
    assert all(ds.design.nnz(j) == 0 for j in range(3))
    ds = SurvivalDataset.from_columns([1.0, 2.0], [1, 0], [([], []), ([1], [0.0])])
    assert ds.p == 2 and ds.design.nnz() == 0
    check_dataset(ds)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_one_store(design):
    """Every column is a view of the design's one store, at its pointer, and
    the columns laid end to end are exactly that store."""
    pos, val, ptr = design.pos, design.val, design.ptr
    columns = design.columns
    assert same_bytes(ptr, np.cumsum([0] + [c.shape[0] for c, _ in columns], dtype=np.int64))
    assert same_bytes(pos, np.concatenate([np.zeros(0, np.int64)] + [c for c, _ in columns]))
    assert same_bytes(val, np.concatenate([np.zeros(0)] + [v for _, v in columns]))
    for (c, v), start in zip(columns, ptr.tolist()):
        assert not (c.flags.owndata or v.flags.owndata)
        if c.shape[0]:  # numpy may leave an empty view's address at its base's
            assert c.ctypes.data == pos.ctypes.data + 8 * start
            assert v.ctypes.data == val.ctypes.data + 8 * start


@settings(max_examples=150, deadline=None)
@given(
    times=st.lists(st.integers(1, 4), min_size=1, max_size=12),  # few values: many ties
    data=st.data(),
    p=st.integers(0, 4),
    all_censored=st.booleans(),
)
def test_builders_agree_and_subject_order_does_not_matter(times, data, p, all_censored):
    n = len(times)
    t = np.asarray(times, dtype=float)
    status = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if all_censored:
        status[:] = 0
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 0.5])  # mostly zeros: empty columns
    X = np.asarray(data.draw(st.lists(st.lists(values, min_size=p, max_size=p),
                                      min_size=n, max_size=n)), dtype=float).reshape(n, p)
    dense = SurvivalDataset.from_dense(t, status, X)
    check_dataset(dense)
    np.testing.assert_array_equal(dense.dense_design_original_order(), X)

    # rows shuffled per column, stored zeros included: from_columns drops them
    shuffles = [np.array(data.draw(st.permutations(range(n))), dtype=np.int64) for _ in range(p)]
    coord = SurvivalDataset.from_columns(t, status, [(r, X[r, j]) for j, r in enumerate(shuffles)])
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp) / "s.csv", Path(tmp) / "x.coord"
        save_dataset(dense, *files, FORMAT_SPARSE)
        loaded = load_dataset(*files, FORMAT_SPARSE)
    for built in (coord, loaded):
        assert same_bytes(dense.order, built.order)
        assert same_bytes(dense.event_end, built.event_end)
        for a, b in zip((dense.design.pos, dense.design.val, dense.design.ptr),
                        (built.design.pos, built.design.val, built.design.ptr)):
            assert same_bytes(a, b)
        for (a_pos, a_val), (b_pos, b_val) in zip(dense.design.columns, built.design.columns,
                                                  strict=True):
            assert same_bytes(a_pos, b_pos) and same_bytes(a_val, b_val)

    # subsets (repeats included) and both standardizations keep one store each
    chosen = data.draw(st.lists(st.integers(0, p - 1), max_size=6)) if p else []
    derived = [dense.select_columns(chosen)]
    for mode in ("scale-only", "center-and-scale"):
        try:
            derived.append(standardize(dense, mode))
        except ValueError as exc:  # n = 1, or an empty or constant column
            assert n < 2 or "constant column" in str(exc)
        else:
            assert derived[-1].design.pos is dense.design.pos
            assert derived[-1].design.ptr is dense.design.ptr
    for (pos, val), j in zip(derived[0].design.columns, chosen, strict=True):
        assert same_bytes(pos, dense.design.columns[j][0])
        assert same_bytes(val, dense.design.columns[j][1])
    for built in [dense, coord, loaded] + derived:
        assert_one_store(built.design)

    # the likelihood does not depend on the order the subjects come in
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    permuted = SurvivalDataset.from_dense(t[perm], status[perm], X[perm])
    check_dataset(permuted)
    beta = np.asarray(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    a, b = LinearPredictorState(dense, beta), LinearPredictorState(permuted, beta)
    assert b.loglik() == pytest.approx(a.loglik(), rel=1e-12, abs=1e-12)
    for j in range(p):
        assert b.coord_derivatives(j) == pytest.approx(a.coord_derivatives(j),
                                                        rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("fmt", [FORMAT_DENSE, FORMAT_SPARSE])
def test_save_load_round_trip(rng, tmp_path, fmt):
    ds, _ = make_dataset(rng, 40, 5)
    s1, d1 = tmp_path / "s1.csv", tmp_path / "d1.dat"
    save_dataset(ds, s1, d1, fmt)
    ds2 = load_dataset(s1, d1, fmt)
    s2, d2 = tmp_path / "s2.csv", tmp_path / "d2.dat"
    save_dataset(ds2, s2, d2, fmt)
    assert s1.read_bytes() == s2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()


def test_sparse_round_trip_large_sparse(rng, tmp_path):
    # sparse binary design in the style of the massive-sample scenario
    n, p, density = 3000, 150, 0.02
    cols = []
    for j in range(p):
        rows = np.flatnonzero(rng.random(n) < density)
        cols.append((rows, np.ones(rows.size)))
    t = rng.exponential(size=n)
    status = (rng.random(n) < 0.05).astype(int)
    status[0] = 1
    ds = SurvivalDataset.from_columns(t, status, cols)
    s1, d1 = tmp_path / "s.csv", tmp_path / "d.coord"
    save_dataset(ds, s1, d1, FORMAT_SPARSE)
    ds2 = load_dataset(s1, d1, FORMAT_SPARSE)
    s2, d2 = tmp_path / "s2.csv", tmp_path / "d2.coord"
    save_dataset(ds2, s2, d2, FORMAT_SPARSE)
    assert s1.read_bytes() == s2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()
    for j in (0, p // 2, p - 1):
        np.testing.assert_array_equal(ds.design.dense_column(j), ds2.design.dense_column(j))


def test_load_errors_carry_line_numbers(tmp_path):
    surv = tmp_path / "s.csv"
    des = tmp_path / "x.coord"
    write_survival(surv, [(1.0, 1), (2.0, 1)])
    des.write_text("2 2 1\n3 1 1.0\n")
    with pytest.raises(ValueError, match=r"x\.coord:2.*out of range"):
        load_dataset(surv, des, FORMAT_SPARSE)

    des.write_text("2 2 2\n1 1 1.0\n")
    with pytest.raises(ValueError, match="nnz=2"):
        load_dataset(surv, des, FORMAT_SPARSE)

    bad = tmp_path / "bad.csv"
    bad.write_text("id,time,status\n1,0.0,1\n")
    with pytest.raises(ValueError, match="bad.csv:2.*nonpositive"):
        load_dataset(bad, des, FORMAT_SPARSE)

    bad.write_text("id,time,status\n1,1.0,2\n")
    with pytest.raises(ValueError, match=r"status outside"):
        load_dataset(bad, des, FORMAT_SPARSE)


def test_non_finite_design_values_rejected(tmp_path):
    surv = tmp_path / "s.csv"
    des = tmp_path / "x.csv"
    write_survival(surv, [(1.0, 1), (2.0, 1)])
    for bad in ("nan", "inf", "-inf"):
        des.write_text(f"id,x1,x2\n1,1.0,0.5\n2,2.0,{bad}\n")
        with pytest.raises(ValueError, match=r"x\.csv:3: non-finite value"):
            load_dataset(surv, des, FORMAT_DENSE)
    X = np.array([[1.0, 0.5], [2.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite value in column x2"):
        SurvivalDataset.from_dense([1.0, 2.0], [1, 1], X)
    with pytest.raises(ValueError, match="non-finite value in column x1"):
        SurvivalDataset.from_columns([1.0, 2.0], [1, 1], [([1], [np.inf])])


def test_duplicate_sparse_entry_rejected(tmp_path):
    surv = tmp_path / "s.csv"
    des = tmp_path / "x.coord"
    write_survival(surv, [(1.0, 1), (2.0, 1)])
    for body in ("1 1 1.0\n1 1 2.0\n", "2 2 0.0\n1 2 1.0\n2 2 2.0\n"):
        des.write_text(f"2 2 {body.count(chr(10))}\n{body}")
        column = body.split()[1]
        with pytest.raises(ValueError, match=rf"x\.coord: duplicate \(row, col\) entry in "
                                             rf"column x{column}$"):
            load_dataset(surv, des, FORMAT_SPARSE)



@pytest.mark.parametrize("header, message", [
    ("2 -1 0", "negative count"),
    ("2 2 -1", "negative count"),
    ("-2 2 0", "negative count"),
    ("2 2 100000000000000", r"nnz=100000000000000 exceeds n\*p=4"),
    ("2 2 5", r"nnz=5 exceeds n\*p=4"),
])
def test_sparse_header_refused_before_the_body(tmp_path, header, message):
    surv = tmp_path / "s.csv"
    des = tmp_path / "x.coord"
    write_survival(surv, [(1.0, 1), (2.0, 1)])
    des.write_text(header + "\n1 1 1.0\n")
    with pytest.raises(ValueError, match=r"x\.coord:1: " + message):
        load_dataset(surv, des, FORMAT_SPARSE)


@pytest.mark.parametrize("fmt", [FORMAT_DENSE, FORMAT_SPARSE])
def test_save_load_round_trip_without_columns(tmp_path, fmt):
    ds = SurvivalDataset.from_columns([2.0, 1.0, 3.0], [1, 0, 1], [])
    s1, d1 = tmp_path / "s1.csv", tmp_path / "d1.dat"
    save_dataset(ds, s1, d1, fmt)
    ds2 = load_dataset(s1, d1, fmt)
    assert ds2.p == 0 and dataset_bytes(ds2) == dataset_bytes(ds)
    s2, d2 = tmp_path / "s2.csv", tmp_path / "d2.dat"
    save_dataset(ds2, s2, d2, fmt)
    assert d1.read_bytes() == d2.read_bytes()
    if fmt == FORMAT_DENSE:
        assert d1.read_text() == "id\n1\n2\n3\n"


def dataset_bytes(ds):
    """Everything a loaded dataset holds, as bytes."""
    arrays = [ds.order, ds.event_end, ds.time, ds.status]
    arrays += [a for pair in ds.design.columns for a in pair]
    return (ds.n, ds.p, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def load_outcome(surv, des):
    try:
        return dataset_bytes(load_dataset(surv, des, FORMAT_SPARSE))
    except ValueError as exc:
        return type(exc), str(exc)


def test_well_formed_sparse_file_skips_the_line_loop(rng, tmp_path):
    ds, _ = make_dataset(rng, 60, 7)
    save_dataset(ds, tmp_path / "s.csv", tmp_path / "x.coord", FORMAT_SPARSE)
    with mock.patch.object(data, "_coord_lines", side_effect=AssertionError("line loop ran")):
        loaded = load_dataset(tmp_path / "s.csv", tmp_path / "x.coord", FORMAT_SPARSE)
    assert dataset_bytes(loaded) == dataset_bytes(ds)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("body", ["1 1 1.0\n2 2 -0.5\n", "1 1 1_0\n2 2 -0.5\n",
                                  "1 1 1.0\n2 9 -0.5\n"])
def test_sparse_design_read_from_a_pipe(tmp_path, body):
    # a pipe cannot be reread, so a fallback to the line loop must use what was read
    surv = tmp_path / "s.csv"
    write_survival(surv, [(1.0, 1), (2.0, 0)])
    plain, pipe = tmp_path / "x.coord", tmp_path / "pipe.coord"
    plain.write_text("2 2 2\n" + body)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=("2 2 2\n" + body,), daemon=True)
    writer.start()
    outcome = load_outcome(surv, pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    expected = load_outcome(surv, plain)
    if isinstance(expected[0], type):
        assert outcome == (ValueError, expected[1].replace("x.coord", "pipe.coord"))
    else:
        assert outcome == expected


# index and value tokens numpy may refuse or accept; the line loop is the reference
INDEX_TOKENS = ["3.0", "01", "+1", "1_0", "１", "-1", "0", "x", "1e0"]
VALUE_TOKENS = ["nan", "inf", "-inf", "1e400", "1e-400", "1_0", "１", "0", "-0.0", "x",
                "+.5e1", "5.", "1d0"]


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(1, 5),
    p=st.integers(0, 4),
    data_=st.data(),
    crlf=st.booleans(),
    final_newline=st.booleans(),
    nnz_shift=st.sampled_from([0, 0, 0, -1, 1]),
    chunk_rows=st.sampled_from([1, 2, 3, 1 << 16]),
)
def test_numpy_parse_matches_the_line_loop(n, p, data_, crlf, final_newline, nnz_shift,
                                           chunk_rows):
    """The one-pass numpy parse gives the dataset bytes or the ValueError
    message that the line loop alone gives, on well-formed and malformed
    files alike, whatever rows a chunk holds."""
    draw = data_.draw
    status = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    times = draw(st.lists(st.sampled_from([1.0, 2.0, 3.5]), min_size=n, max_size=n))
    rows = [[str(r), str(c), v] for r, c, v in draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, max(p, 1)),
                  st.sampled_from(["1.0", "-2.5", "0.125", "7"])), min_size=1, max_size=6))]
    # mostly one fault a file, so that each kind is often the only one
    faults = [draw(st.sampled_from(["index", "index", "value", "drop", "extra"]))
              for _ in range(draw(st.sampled_from([0, 1, 1, 2])))]
    for fault in faults:
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "index":
            k = draw(st.integers(0, 1))
            ends = ["0", str((n, p)[k] + 1)]  # just outside the range of field k
            fields[k] = draw(st.one_of(st.sampled_from(ends), st.sampled_from(INDEX_TOKENS)))
        elif fault == "value":
            fields[-1] = draw(st.sampled_from(VALUE_TOKENS))
        elif fault == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        else:
            fields.append("1")
    lines = []
    for fields in rows:
        sep = draw(st.sampled_from([" ", " ", "\t", "  ", "\x0c"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))  # blank or whitespace-only
    nnz = max(len(rows) + nnz_shift, 0)
    clean = p > 0 and not faults and nnz_shift == 0
    eol = "\r\n" if crlf else "\n"
    text = f"{n} {p} {nnz}{eol}" + eol.join(lines) + (eol if final_newline else "")

    with tempfile.TemporaryDirectory() as tmp:
        surv, des = Path(tmp) / "s.csv", Path(tmp) / "x.coord"
        write_survival(surv, zip(times, status))
        des.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            loop_ran = assert_parse_matches_the_line_loop(surv, des)
    if clean:  # plain tokens, in range, nnz right: numpy alone read them
        assert not loop_ran


@pytest.mark.parametrize("field, token", [(0, t) for t in INDEX_TOKENS + ["3", "4"]]
                         + [(1, t) for t in INDEX_TOKENS + ["2", "3"]]
                         + [(2, t) for t in VALUE_TOKENS])
def test_each_token_parses_as_the_line_loop_parses_it(tmp_path, field, token):
    # n=3, p=2: rows 3 and 4, columns 2 and 3 are the last in range and the first past it
    surv, des = tmp_path / "s.csv", tmp_path / "x.coord"
    write_survival(surv, [(1.0, 1), (2.0, 0), (3.0, 1)])
    fields = ["2", "1", "0.5"]
    fields[field] = token
    des.write_text("3 2 3\n1 1 1.0\n" + " ".join(fields) + "\n3 2 -1.5\n")
    assert_parse_matches_the_line_loop(surv, des)


def assert_parse_matches_the_line_loop(surv, des):
    """load_dataset gives what the line loop alone gives; returns whether
    the line loop ran."""
    with mock.patch.object(data, "_coord_lines", wraps=data._coord_lines) as loop:
        outcome = load_outcome(surv, des)
    with mock.patch.object(data, "_coord_triples", return_value=None):
        assert outcome == load_outcome(surv, des)
    return loop.called

def test_risk_sets_are_prefixes_brute_force(rng):
    for _ in range(25):
        n = int(rng.integers(2, 50))
        ds, (t, status, _) = make_dataset(rng, n, 2)
        for k, e in enumerate(ds.event_pos):
            t_event = ds.time_sorted[e]
            expected = {i for i in range(n) if t[i] >= t_event}
            prefix = {int(ds.order[q]) for q in range(ds.event_end[k] + 1)}
            assert prefix == expected


def test_ties_events_before_censorings(rng):
    t = np.array([3.0, 1.0, 1.0, 1.0, 2.0])
    status = np.array([0, 0, 1, 1, 1])
    X = rng.standard_normal((5, 1))
    ds = SurvivalDataset.from_dense(t, status, X)
    # within the time-1 tie group, events (indices 2, 3) precede censoring (1)
    assert ds.order.tolist() == [0, 4, 2, 3, 1]


def column(pos, val):
    return np.array(pos, dtype=np.int64), np.array(val, dtype=np.float64)


def refused_store(n, pos, val, ptr):
    """SparseColumnMatrix(n, pos, val, ptr) for a store it must refuse; the
    refusal must leave the caller's arrays writable."""
    arrays = (*column(pos, val), np.array(ptr))
    try:
        SparseColumnMatrix(n, *arrays)
    except ValueError:
        assert all(a.flags.writeable for a in arrays), "a refused store froze its arrays"
        raise


def matrix(n, *columns, **kwargs):
    """The SparseColumnMatrix of the given (positions, values) columns, in one store."""
    ptr = np.cumsum([0] + [len(pos) for pos, _ in columns], dtype=np.int64)
    pos = np.array([k for pos, _ in columns for k in pos], dtype=np.int64)
    val = np.array([v for _, val in columns for v in val], dtype=np.float64)
    return SparseColumnMatrix(n, pos, val, ptr, **kwargs)


T2, D2 = [1.0, 2.0], [1, 1]
REPEAT = "repeat, are out of order or fall outside"
DUPLICATE = "duplicate (row, col) entry in column x1"
SCALE = "scales must be finite and positive, and offsets finite"
TWO_COLUMNS = SurvivalDataset.from_columns(T2, D2, [([0], [1.0]), ([1], [2.0])])
MALFORMED = {  # case: (build, the ValueError's message)
    "time zero": (lambda: SurvivalDataset([0.0, 1.0], D2, matrix(2)),
                  "nonpositive or non-finite time for subject 1"),
    "time nan": (lambda: SurvivalDataset([np.nan, 1.0], D2, matrix(2)),
                 "nonpositive or non-finite time for subject 1"),
    "status 2": (lambda: SurvivalDataset(T2, [1, 2], matrix(2)),
                 "status outside {0,1} for subject 2"),
    "time and status lengths": (lambda: SurvivalDataset(T2, [1], matrix(2)), "of one length"),
    "no subjects": (lambda: SurvivalDataset([], [], matrix(0)), "empty"),
    "design rows": (lambda: SurvivalDataset(T2, D2, matrix(3)), "one row per subject"),
    "row -1": (lambda: SurvivalDataset.from_columns(T2, D2, [([-1], [1.0])]),
               "not integers in [0, 2)"),
    "fractional rows": (lambda: SurvivalDataset.from_columns(T2, D2, [([0.7, 1.2], [1.0, 2.0])]),
                        "not integers in [0, 2)"),
    "duplicate row": (lambda: SurvivalDataset.from_columns(T2, D2, [([1, 1], [1.0, 2.0])]),
                      DUPLICATE),
    "duplicate row, one of them zero": (
        lambda: SurvivalDataset.from_columns(T2, D2, [([1, 1], [0.0, 2.0])]), DUPLICATE),
    "row 5 at n=2": (lambda: SurvivalDataset.from_columns(T2, D2, [([5], [1.0])]),
                     "not integers in [0, 2)"),
    "rows and values lengths": (lambda: SurvivalDataset.from_columns(T2, D2, [([0, 1], [1.0])]),
                                "differ in length"),
    "dense rows": (lambda: SurvivalDataset.from_dense(T2, D2, np.ones((3, 1))),
                   "one row per subject"),
    "select column -1": (lambda: TWO_COLUMNS.select_columns([0, -1]), "integers in [0, 2)"),
    "select column p": (lambda: TWO_COLUMNS.select_columns([2]), "integers in [0, 2)"),
    "unsorted positions and a stored zero": (lambda: matrix(3, ([2, 0], [1.0, 0.0])), REPEAT),
    "stored zero": (lambda: matrix(3, ([0, 2], [1.0, 0.0])), "stored zero value in column x1"),
    "position n": (lambda: matrix(3, ([1, 3], [1.0, 1.0])), REPEAT),
    "repeated position": (lambda: matrix(3, ([1, 1], [1.0, 1.0])), REPEAT),
    "non-finite value": (lambda: matrix(3, ([], []), ([1], [np.inf])),
                         "non-finite value in column x2"),
    "int32 positions": (lambda: SparseColumnMatrix(
        3, np.array([1], dtype=np.int32), np.array([1.0]), np.array([0, 1])),
                        "int64 position array"),
    "positions and values lengths": (lambda: matrix(3, ([0, 1], [1.0])), "of one length"),
    "scale of another length": (lambda: matrix(3, ([1], [1.0]), scale=np.ones(2)),
                                "one entry per column"),
    "offset list of another length": (lambda: matrix(3, ([1], [1.0]), offset=[0.0, 0.0]),
                                      "one entry per column"),
    "scale zero": (lambda: matrix(3, ([1], [1.0]), scale=[0.0]), SCALE),
    "scale negative": (lambda: matrix(3, ([1], [1.0]), scale=[-1.0]), SCALE),
    "scale nan": (lambda: matrix(3, ([1], [1.0]), scale=[np.nan]), SCALE),
    "scale infinite": (lambda: matrix(3, ([1], [1.0]), scale=[np.inf]), SCALE),
    "offset infinite": (lambda: matrix(3, ([1], [1.0]), offset=[np.inf]), SCALE),
    "offset nan": (lambda: matrix(3, ([1], [1.0]), offset=[np.nan]), SCALE),
    # the store is checked whole, then by column to name the culprit
    "store: unsorted second column": (
        lambda: refused_store(3, [2, 2, 1], [1.0, 1.0, 1.0], [0, 1, 3]), REPEAT),
    "store: stored zero": (lambda: refused_store(3, [2, 0], [1.0, 0.0], [0, 1, 2]),
                           "stored zero value in column x2"),
    "store: position n": (lambda: refused_store(3, [0, 3], [1.0, 1.0], [0, 1, 2]), REPEAT),
    "store: pointers past nnz": (lambda: refused_store(3, [0], [1.0], [0, 2]),
                                 "column pointers"),
    "store: float pointers": (lambda: refused_store(3, [0], [1.0], [0.0, 1.0]),
                              "one-dimensional int64 array"),
}


@pytest.mark.parametrize("build, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_scale_and_offset_lists_become_read_only_float_arrays():
    design = matrix(3, ([1], [1.0]), scale=[2], offset=[0.5])
    assert design.scale.tolist() == [2.0] and design.offset.tolist() == [0.5]
    for a in (design.scale, design.offset):
        assert a.dtype == np.float64 and not a.flags.writeable


def test_no_argument_can_disagree_with_the_data():
    # an order, n or p argument could only repeat or contradict time, status and columns
    assert list(inspect.signature(SurvivalDataset).parameters) == ["time", "status", "design"]
    assert list(inspect.signature(SurvivalDataset.from_columns).parameters) == [
        "time", "status", "columns"]
    assert "p" not in inspect.signature(SparseColumnMatrix).parameters


def test_standardize_center_and_scale():
    t = np.array([1.0, 2.0])
    status = np.array([1, 1])
    ds = SurvivalDataset.from_dense(t, status, np.array([[2.0], [0.0]]))
    out = standardize(ds, "center-and-scale")
    col = out.design.dense_column(0)
    # centered mean 0, sum of squares n-1
    assert abs(col.sum()) < 1e-12
    assert abs(np.dot(col, col) - 1.0) < 1e-12
    # subject with x=2 sits sqrt(1/2) above the mean after scaling
    orig_rows = out.order[np.arange(2)]
    dense_by_input = np.empty(2)
    dense_by_input[orig_rows] = col
    np.testing.assert_allclose(dense_by_input, [np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-12)


def test_standardize_modes(rng):
    ds, (t, status, X) = make_dataset(rng, 30, 4)
    assert standardize(ds, "none") is ds

    sc_only = standardize(ds, "scale-only")
    for j in range(4):
        col = sc_only.design.dense_column(j)
        assert abs(np.mean(col**2) - 1.0) < 1e-12  # unit root mean square
        assert sc_only.design.offset[j] == 0.0

    cs = standardize(ds, "center-and-scale")
    for j in range(4):
        col = cs.design.dense_column(j)
        assert abs(col.sum()) < 1e-9
        assert abs(col @ col - (ds.n - 1)) < 1e-9
    # idempotence is exact
    assert standardize(cs, "center-and-scale") is cs

    const = SurvivalDataset.from_dense(t, status, np.ones((30, 1)))
    with pytest.raises(ValueError, match="x1"):
        standardize(const, "center-and-scale")


_THREAD_STANDARDIZE = """
import sys
import numpy as np
import sparsecox as sc
rng = np.random.default_rng(1)  # the one-thread and two-thread dot products differ here
X = rng.standard_normal((12000, 3))
ds = sc.SurvivalDataset.from_dense(rng.exponential(size=12000), np.ones(12000), X)
design = sc.standardize(ds, "center-and-scale").design
sys.stdout.write(" ".join(a.tobytes().hex() for a in (design.scale, design.offset, design.val)))
"""


def test_standardize_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product over its threads above 10,000 elements
    src = str(Path(data.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREAD_STANDARDIZE], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_standardized_dataset_refuses_save(rng, tmp_path):
    ds, _ = make_dataset(rng, 10, 2)
    cs = standardize(ds, "center-and-scale")
    with pytest.raises(ValueError, match="standardized"):
        save_dataset(cs, tmp_path / "s.csv", tmp_path / "d.csv", FORMAT_DENSE)


def test_column_subset_copies_the_chosen_columns(rng):
    ds, _ = make_dataset(rng, 20, 6)
    sub = ds.select_columns([4, 1, 4])
    assert sub.p == 3
    for (pos, val), j in zip(sub.design.columns, [4, 1, 4], strict=True):
        assert same_bytes(pos, ds.design.columns[j][0]) and same_bytes(val, ds.design.columns[j][1])
    np.testing.assert_array_equal(sub.event_pos, ds.event_pos)
    assert sub.design.p == 3 and ds.select_columns([]).design.nnz() == 0


def held_arrays(ds):
    """Every array a dataset holds: its own, its design's and its event scans'."""
    for owner in (ds, ds.design):
        yield from (v for v in vars(owner).values() if isinstance(v, np.ndarray))
    for pos, val, _, ev_idx, _ in ds.column_scans:
        yield from (pos, val, ev_idx)


def test_datasets_are_read_only(rng, tmp_path):
    t, status, X = random_survival_data(rng, 30, 4)
    X[rng.random(X.shape) < 0.3] = 0.0
    ds = SurvivalDataset.from_dense(t, status, X)
    beta = rng.uniform(-0.5, 0.5, size=4)
    derivs = [LinearPredictorState(ds, beta).coord_derivatives(j) for j in range(4)]
    # the caller's arrays are not the dataset's
    t[0] = 0.5
    status[:] = 1 - status
    X[:] = 0.0
    check_dataset(ds)
    assert [LinearPredictorState(ds, beta).coord_derivatives(j) for j in range(4)] == derivs

    save_dataset(ds, tmp_path / "s.csv", tmp_path / "x.coord", FORMAT_SPARSE)
    built = {
        "from_dense": ds,
        "from_columns": SurvivalDataset.from_columns(
            ds.time, ds.status,
            [(np.arange(30), col) for col in ds.dense_design_original_order().T]),
        "load_dataset": load_dataset(tmp_path / "s.csv", tmp_path / "x.coord", FORMAT_SPARSE),
        "scale-only": standardize(ds, "scale-only"),
        "center-and-scale": standardize(ds, "center-and-scale"),
        "select_columns": ds.select_columns([3, 0, 3]),
    }
    for name, d in built.items():
        for a in held_arrays(d):
            assert not a.flags.writeable, name
    for target in (ds.time, ds.design.columns[0][1], built["center-and-scale"].design.offset,
                   built["center-and-scale"].design.columns[1][1],
                   built["select_columns"].order, built["select_columns"].design.scale):
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 100.0


@pytest.mark.parametrize("mode", ["none", "scale-only", "center-and-scale"])
def test_dense_design_original_order_matches_entry_by_entry(rng, mode):
    t, status, X = random_survival_data(rng, 25, 5)
    X[rng.random(X.shape) < 0.5] = 0.0
    X[0, :] = 1.5  # no column is constant, so center-and-scale takes every one
    ds = standardize(SurvivalDataset.from_dense(t, status, X), mode)
    expected = np.empty(X.shape)
    for k in range(ds.n):
        for j in range(ds.p):
            pos, val = ds.design.columns[j]
            hit = np.flatnonzero(pos == k)
            stored = val[hit[0]] if hit.size else 0.0
            expected[ds.order[k], j] = stored - ds.design.offset[j]
    dense = ds.dense_design_original_order()
    assert same_bytes(dense, expected) and dense.flags.c_contiguous
    if mode == "none":
        np.testing.assert_array_equal(dense, X)
    if mode == "center-and-scale":
        np.testing.assert_allclose(dense.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose((dense ** 2).sum(axis=0), ds.n - 1.0, rtol=1e-12)
    empty = SurvivalDataset.from_dense(t, status, np.zeros((25, 0)))
    assert empty.dense_design_original_order().shape == (25, 0)


@pytest.mark.parametrize("mode", ["none", "center-and-scale"])
def test_pickled_dataset_is_rebuilt_read_only(rng, mode):
    t, status, X = random_survival_data(rng, 30, 4)
    X[rng.random(X.shape) < 0.3] = 0.0
    ds = standardize(SurvivalDataset.from_dense(t, status, X), mode).select_columns([3, 0, 3])
    assert ds.column_scans  # built, so a plain pickle would carry it along
    copy = pickle.loads(pickle.dumps(ds))
    assert "column_scans" not in vars(copy)
    for a in held_arrays(copy):
        assert not a.flags.writeable
    assert copy.design.standardization == ds.design.standardization
    np.testing.assert_array_equal(copy.order, ds.order)
    np.testing.assert_array_equal(copy.design.offset, ds.design.offset)
    beta = rng.uniform(-0.5, 0.5, size=3)
    state, copy_state = LinearPredictorState(ds, beta), LinearPredictorState(copy, beta)
    assert copy_state.loglik() == state.loglik()
    for j in range(3):
        assert copy_state.coord_derivatives(j) == state.coord_derivatives(j)


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.integers(1, 4), min_size=1, max_size=12),  # few values: many ties
    data=st.data(),
    p=st.integers(0, 4),
    all_censored=st.booleans(),
    duplicate=st.booleans(),
)
def test_column_scans_match_brute_force_risk_sets(times, data, p, all_censored, duplicate):
    n = len(times)
    t = np.asarray(times, dtype=float)
    status = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if all_censored:
        status[:] = 0
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 0.5])  # mostly zeros: empty columns
    X = np.asarray(data.draw(st.lists(st.lists(values, min_size=p, max_size=p),
                                      min_size=n, max_size=n)), dtype=float).reshape(n, p)
    if duplicate and p >= 2:
        X[:, 1] = X[:, 0]
    ds = SurvivalDataset.from_dense(t, status, X)
    events = ds.order[ds.event_pos]  # original index of each event, in scan order
    assert len(ds.column_scans) == p
    for j, (pos, val, ev_lo, ev_idx, sum_delta_x) in enumerate(ds.column_scans):
        # entries of column j inside each event's risk set {l : t_l >= t_e}
        counts = np.array([np.count_nonzero(X[t >= t[e], j]) for e in events], dtype=int)
        assert np.all(counts[:ev_lo] == 0)
        np.testing.assert_array_equal(ev_idx, counts[ev_lo:])
        assert np.all(ev_idx > 0)
        assert sum_delta_x == pytest.approx(X[status == 1, j].sum(), rel=1e-12, abs=1e-12)
        assert pos.shape[0] == np.count_nonzero(X[:, j])
