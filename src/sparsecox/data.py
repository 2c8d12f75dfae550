"""Right-censored survival data with a column-sparse design matrix.

Subjects are kept internally in descending-time order so that every risk set
{j : T_j >= T_i} is a contiguous prefix of the sorted arrays.  Ties are
ordered events-before-censorings (stable by input index), and tied event
times share one risk set per the Breslow convention.  The design is stored
in that same order as one compressed-column triple (pos, val, ptr); each
column's (position, value) pair, which the coordinate-descent kernels scan,
is a view of it.  The constructors refuse malformed input with ValueError,
so every dataset that exists is valid, and every array a dataset holds is
read-only.

The design gives the products that the whole-vector kernels use.  X^T z is
taken in dense semantics (stored value minus the column's offset; each z
the likelihood passes sums to zero, so the offset term only removes
rounding), and X v over the stored values, as eta is: a constant shift of
every row cancels in the partial likelihood and in its Hessian-vector
product.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

__all__ = [
    "SparseColumnMatrix",
    "SurvivalDataset",
    "load_dataset",
    "save_dataset",
    "standardize",
    "to_original_scale",
]

_DENSE_BLOCK = 1 << 17  # entries of the design that from_dense transposes at a time

MODE_NONE = "none"
MODE_SCALE = "scale-only"
MODE_CENTER_SCALE = "center-and-scale"
_MODES = (MODE_NONE, MODE_SCALE, MODE_CENTER_SCALE)


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _sort_order(time, status):
    """order[k] = input index of the subject at sorted position k: descending
    time, events before censorings at a tie, then input index.  Raises
    ValueError unless time and status are one-dimensional of one nonzero
    length, every time is positive and finite and every status is 0 or 1."""
    time = np.asarray(time, dtype=np.float64)
    status = np.asarray(status, dtype=np.float64)
    if time.ndim != 1 or status.shape != time.shape:
        raise ValueError("time and status must be one-dimensional arrays of one length")
    if time.shape[0] == 0:
        raise ValueError("empty dataset")
    bad = np.flatnonzero(~np.isfinite(time) | (time <= 0.0))
    if bad.size:
        raise ValueError(f"nonpositive or non-finite time for subject {bad[0] + 1}")
    bad = np.flatnonzero((status != 0.0) & (status != 1.0))
    if bad.size:
        raise ValueError(f"status outside {{0,1}} for subject {bad[0] + 1}")
    return np.lexsort((np.arange(time.shape[0]), -status, -time))


def _check_column(n, j, pos, val):
    """Raise ValueError unless (pos, val) is a valid column j of an n-row matrix."""
    if pos.shape[0] and (pos[0] < 0 or pos[-1] >= n or np.any(pos[1:] <= pos[:-1])):
        raise ValueError(f"positions of column x{j + 1} repeat, are out of order or fall "
                         f"outside [0, {n})")
    if not np.isfinite(val).all():
        raise ValueError(f"non-finite value in column x{j + 1}")
    if not val.all():
        raise ValueError(f"stored zero value in column x{j + 1}")


def _store_is_valid(n, pos, val, ptr):
    """Whether every column of a compressed-column store would pass
    _check_column, tested on the whole arrays at once."""
    if not pos.shape[0]:
        return True
    rising = pos[1:] > pos[:-1]
    starts = ptr[1:-1]
    rising[starts[(starts > 0) & (starts < pos.shape[0])] - 1] = True  # a column starts anew
    return bool(rising.all() and pos.min() >= 0 and pos.max() < n
                and np.isfinite(val).all() and val.all())


class SparseColumnMatrix:
    """Column-oriented sparse n-by-p matrix held as one compressed-column
    store: column j's stored entries are ``pos[ptr[j]:ptr[j+1]]`` and
    ``val[ptr[j]:ptr[j+1]]``, p = len(ptr) - 1.

    ``pos`` holds int64 positions, strictly increasing in [0, n) within a
    column, ``val`` float64 values, finite and nonzero, and ``ptr`` int64
    column pointers running from 0 to nnz without decreasing; anything else
    raises ValueError.  ``columns[j]`` is the pair (pos, val) of column j, as
    views of the store.  Inside a dataset, position k is the subject at
    sorted position k of its (time, status).  The dense value of entry
    (k, j) is ``stored - offset[j]``: centering is carried as a per-column
    offset, finite, so that standardization never densifies the storage.
    ``scale[j]``, finite and positive, maps standardized coefficients back to
    the original scale (beta_original = beta_stored / scale).  The matrix
    makes the arrays it accepts read-only; a refused store is left as given.
    """

    def __init__(self, n, pos, val, ptr, scale=None, offset=None, standardization=MODE_NONE):
        if not (isinstance(pos, np.ndarray) and pos.dtype == np.int64 and pos.ndim == 1
                and isinstance(val, np.ndarray) and val.dtype == np.float64
                and val.shape == pos.shape):
            raise ValueError("the store is not an int64 position array and a float64 value "
                             "array of one length")
        if not (isinstance(ptr, np.ndarray) and ptr.ndim == 1 and ptr.dtype == np.int64):
            raise ValueError("column pointers must be a one-dimensional int64 array")
        if not (ptr.shape[0] and ptr[0] == 0 and ptr[-1] == pos.shape[0]
                and np.all(ptr[1:] >= ptr[:-1])):
            raise ValueError("column pointers must run from 0 to nnz without decreasing")
        self.n = n = int(n)
        if n < 0:
            raise ValueError(f"negative row count n={n}")
        self.p = p = ptr.shape[0] - 1
        self.scale = np.ones(p) if scale is None else np.asarray(scale, dtype=np.float64)
        self.offset = np.zeros(p) if offset is None else np.asarray(offset, dtype=np.float64)
        if self.scale.shape != (p,) or self.offset.shape != (p,):
            raise ValueError(f"scale and offset must hold one entry per column (p={p})")
        if not (np.all((self.scale > 0.0) & (self.scale < np.inf))
                and np.isfinite(self.offset).all()):
            raise ValueError("scales must be finite and positive, and offsets finite")
        if standardization not in _MODES:
            raise ValueError(f"unknown standardization mode {standardization!r}")
        bounds = ptr.tolist()
        if not _store_is_valid(n, pos, val, ptr):
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                _check_column(n, j, pos[a:b], val[a:b])
        self.standardization = standardization
        self.pos, self.val, self.ptr = pos, val, ptr
        # reduceat gives an empty segment its start element, so it sums the non-empty columns only
        self._counts = np.diff(ptr)
        self._nonempty = self._counts > 0
        self._starts = ptr[:-1][self._nonempty]
        _frozen(pos, val, ptr, self.scale, self.offset,  # before the views, so they are read-only
                self._counts, self._nonempty, self._starts)
        self.columns = tuple((pos[a:b], val[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))

    def __reduce__(self):  # a pickled copy is rebuilt, so checked and frozen, by the constructor
        return type(self), (self.n, self.pos, self.val, self.ptr, self.scale, self.offset,
                            self.standardization)

    def column(self, j):
        return self.columns[j]

    def nnz(self, j=None):
        if j is None:
            return int(self.ptr[-1])
        return int(self.ptr[j + 1] - self.ptr[j])

    def times(self, v):
        """X v over the stored values (module docstring), length n.  Only the
        columns where v is nonzero are gathered when they hold under half the
        entries (a gather costs twice the whole product per entry); the bits
        agree, as a zero of v adds exact zeros to row sums that start at +0."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.p,):
            raise ValueError(f"v has shape {v.shape}, expected ({self.p},)")
        pos, val, counts = self.pos, self.val, self._counts
        cols = np.flatnonzero(v)
        if 2 * int(counts[cols].sum()) < pos.shape[0]:
            ptr, take = self._gather(cols)
            pos, val, counts, v = pos[take], val[take], np.diff(ptr), v[cols]
        coef = np.repeat(v, counts)
        coef *= val
        # bincount counts in int64 when it is given no entries
        return np.bincount(pos, weights=coef, minlength=self.n).astype(np.float64, copy=False)

    def transpose_times(self, z):
        """X^T z in dense semantics (module docstring), length p."""
        out = np.zeros(self.p)
        if self._starts.shape[0]:
            entries = z[self.pos]
            entries *= self.val
            out[self._nonempty] = np.add.reduceat(entries, self._starts)
        if self.offset.any():
            out -= self.offset * z.sum()
        return out

    def _gather(self, indices):
        """Pointers of the given columns' entries laid end to end, and each
        entry's index in the store."""
        counts = self._counts[indices]
        ptr = np.zeros(indices.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, np.arange(ptr[-1]) + np.repeat(self.ptr[indices] - ptr[:-1], counts)

    def dense_column(self, j):
        """Materialize column j (dense semantics, length n)."""
        pos, val = self.columns[j]
        out = np.zeros(self.n)
        out[pos] = val
        if self.offset[j] != 0.0:
            out -= self.offset[j]
        return out


def _entry_design(order, p, rows, cols, vals):
    """The design whose entry (rows[k], cols[k]) is vals[k], for int64
    input-order rows and columns already in range: one sort on
    col * n + rank[row] gives every column's positions in sorted order.
    Zero values are not stored; a (row, column) pair given twice raises
    ValueError, whatever its values."""
    n = order.shape[0]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    key = cols * n + rank[rows]
    srt = np.argsort(key)  # the keys differ unless refused below, so any sort gives one order
    key = key[srt]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        raise ValueError(f"duplicate (row, col) entry in column x{key[repeated[0]] // n + 1}")
    val = vals[srt]
    keep = val != 0.0
    key, val = key[keep], val[keep]
    ptr = np.searchsorted(key, np.arange(p + 1) * n)
    return SparseColumnMatrix(n, key % n, val, ptr)


class SurvivalDataset:
    """Immutable right-censored sample, sorted for prefix-sum risk sets.

    ``SurvivalDataset(time, status, design)`` checks time and status and
    computes the sort; ``design`` must have n rows, already in that sort
    order.  The builders ``from_dense`` and ``from_columns`` put the rows of
    an input-order design there.

    Attributes
    ----------
    time, status : arrays in the original input order.
    order : order[k] = original index of the subject at sorted position k
        (descending time; ties: events first, then stable by input index).
    design : SparseColumnMatrix in sorted-position space.
    event_pos : sorted positions with status 1 (ascending).
    event_end : for each event, the last sorted position with time >= the
        event's time, i.e. the inclusive end of its risk-set prefix (Breslow
        ties share it).

    The constructor copies ``time`` and ``status``; every array held by the
    dataset or its design is read-only.
    """

    def __init__(self, time, status, design):
        self.order = _sort_order(time, status)
        self.time = time = np.array(time, dtype=np.float64)
        self.status = status = np.asarray(status, dtype=np.float64).astype(np.int8)
        self.n = n = time.shape[0]
        if not isinstance(design, SparseColumnMatrix) or design.n != n:
            raise ValueError("design is not a SparseColumnMatrix with one row per subject")
        self.p = design.p
        self.design = design

        self.time_sorted = time[self.order]
        self.status_sorted = status[self.order]
        self.event_count = int(self.status_sorted.sum())
        self.event_pos = np.flatnonzero(self.status_sorted == 1).astype(np.int64)
        # last position with time >= t  ==  (# of sorted times >= t) - 1
        rev = self.time_sorted[::-1]
        cnt_ge = n - np.searchsorted(rev, self.time_sorted[self.event_pos], side="left")
        self.event_end = (cnt_ge - 1).astype(np.int64)
        _frozen(self.time, self.status, self.order, self.time_sorted, self.status_sorted,
                self.event_pos, self.event_end)

    def __reduce__(self):  # rebuilt by the constructor: read-only, without column_scans
        return type(self), (self.time, self.status, self.design)

    @cached_property
    def column_scans(self):
        """(pos, val, ev_lo, ev_idx, sum_delta_x) per column, built for all
        columns on first use: the column, the first event whose risk set
        touches it, the count of its entries inside each later event's risk
        set, and its sum over event rows."""
        scans = []
        for pos, val in self.design.columns:
            first = pos[0] if pos.shape[0] else self.n  # an empty column starts past every event
            ev_lo = int(np.searchsorted(self.event_end, first, side="left"))
            ev_idx = np.searchsorted(pos, self.event_end[ev_lo:], side="right").astype(np.int32)
            _frozen(ev_idx)
            scans.append((pos, val, ev_lo, ev_idx, float(val[self.status_sorted[pos] == 1].sum())))
        return tuple(scans)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dense(cls, time, status, X):
        """Build from a dense n-by-p matrix in input row order; zero entries
        are not stored."""
        order = _sort_order(time, status)
        n = order.shape[0]
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"design must be a matrix with one row per subject (n={n})")
        p = X.shape[1]
        ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(X, axis=0), out=ptr[1:])
        pos, val = np.empty(ptr[-1], dtype=np.int64), np.empty(ptr[-1])
        width = max(1, _DENSE_BLOCK // n)
        for lo in range(0, p, width):
            hi = min(lo + width, p)
            block = np.ascontiguousarray(X[order, lo:hi].T)  # row c: column lo + c, sorted
            nz = np.flatnonzero(block)
            pos[ptr[lo]:ptr[hi]] = nz % n
            val[ptr[lo]:ptr[hi]] = block.ravel()[nz]
        return cls(time, status, SparseColumnMatrix(n, pos, val, ptr))

    @classmethod
    def from_columns(cls, time, status, columns):
        """Build from per-column (rows, values) pairs: 0-based input rows in
        any order, n = len(time) and p = len(columns).  Zero values are not
        stored; a row given twice in a column raises ValueError, whatever its
        values."""
        order = _sort_order(time, status)
        n = order.shape[0]
        columns = [(np.asarray(rows), np.asarray(vals, dtype=np.float64))
                   for rows, vals in columns]
        for j, (rows, vals) in enumerate(columns):
            if rows.ndim != 1 or rows.shape != vals.shape:
                raise ValueError(f"rows and values of column x{j + 1} differ in length")
            if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n):
                raise ValueError(f"row indices of column x{j + 1} are not integers in [0, {n})")
        rows = np.concatenate([np.zeros(0, dtype=np.int64)]  # [] arrives as float64
                              + [rows.astype(np.int64, copy=False) for rows, _ in columns])
        vals = np.concatenate([np.zeros(0)] + [vals for _, vals in columns])
        cols = np.repeat(np.arange(len(columns)), [vals.size for _, vals in columns])
        return cls(time, status, _entry_design(order, len(columns), rows, cols, vals))

    # -- views ------------------------------------------------------------

    def select_columns(self, indices):
        """Dataset of the given columns of this one, in the given order
        (repeats allowed): their entries are copied into one new store."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size and (indices.min() < 0 or indices.max() >= self.p):
            raise ValueError(f"column indices must be a list of integers in [0, {self.p})")
        d = self.design
        ptr, take = d._gather(indices)
        design = SparseColumnMatrix(self.n, d.pos[take], d.val[take], ptr,
                                    scale=d.scale[indices], offset=d.offset[indices],
                                    standardization=d.standardization)
        return SurvivalDataset(self.time, self.status, design)

    def dense_design_original_order(self):
        """Dense design with rows in the original input order (small data only),
        filled in one n-by-p array."""
        X = np.zeros((self.n, self.p))
        # column by column: nnz-long row and column indices would cost twice X on a dense design
        for j, (pos, val) in enumerate(self.design.columns):
            X[self.order[pos], j] = val
        X -= self.design.offset  # exact where the offset is 0
        return X


# -- standardization -------------------------------------------------------


def standardize(ds, mode):
    """Return a standardized copy of the dataset (sparsity preserved).

    center-and-scale: dense semantics become mean 0 and sum of squares n-1
    per column, with the centering held in per-column offsets.  scale-only:
    divide each column by its root mean square, no centering.  none: the
    dataset is returned unchanged.

    Re-standardizing with the same mode is an exact no-op.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown standardization mode {mode!r}")
    if mode == MODE_NONE or ds.design.standardization == mode:
        return ds
    if ds.design.standardization != MODE_NONE:
        raise ValueError("dataset is already standardized with a different mode")
    if ds.n < 2:
        raise ValueError("standardization requires n >= 2")

    n, p, d = ds.n, ds.p, ds.design
    scale = np.ones(p)
    offset = np.zeros(p)
    for j, (pos, val) in enumerate(d.columns):
        s1 = float(val.sum())
        s2 = float((val * val).sum())  # numpy's own sum: BLAS threads would move its bits
        if mode == MODE_CENTER_SCALE:
            mean = s1 / n
            var = (s2 - n * mean * mean) / (n - 1)
            if var <= 0.0:
                raise ValueError(f"constant column x{j + 1} cannot be centered and scaled")
            scale[j] = s = float(np.sqrt(var))
            offset[j] = mean / s
        else:  # scale-only; a column whose root mean square is 0 keeps scale 1
            rms = float(np.sqrt(s2 / n))
            if rms != 0.0:
                scale[j] = rms
    design = SparseColumnMatrix(n, d.pos, d.val / np.repeat(scale, np.diff(d.ptr)), d.ptr,
                                scale=scale, offset=offset, standardization=mode)
    return SurvivalDataset(ds.time, ds.status, design)


def to_original_scale(ds, beta):
    """Map coefficients fit on a standardized dataset back to the input scale."""
    return np.asarray(beta, dtype=np.float64) / ds.design.scale


# -- file I/O ---------------------------------------------------------------

FORMAT_DENSE = "dense-csv"
FORMAT_SPARSE = "sparse-coord"


def _fmt(x):
    # shortest round-trip decimal form; locale independent
    return repr(float(x))


def _parse_float(tok, path, lineno, what):
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed {what} {tok!r}") from None


_CHUNK_ROWS = 1 << 16
_COORD_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def _coord_header(fh, path, n):
    """(p, nnz) from the ``n p nnz`` line, refused unless n matches the
    survival file, no count is negative and nnz <= n*p."""
    try:
        fn, p, nnz = (int(tok) for tok in fh.readline().split())
    except ValueError:  # a non-integer token or a count other than 3
        raise ValueError(f"{path}:1: expected 'n p nnz' header") from None
    if min(fn, p, nnz) < 0:
        raise ValueError(f"{path}:1: negative count in header '{fn} {p} {nnz}'")
    if fn != n:
        raise ValueError(f"{path}:1: n={fn} does not match survival n={n}")
    if nnz > n * p:
        raise ValueError(f"{path}:1: nnz={nnz} exceeds n*p={n * p}")
    return p, nnz


def _coord_triples(body, n, p, nnz):
    """0-based (rows, cols, vals) of the ``row col value`` lines, parsed by
    numpy in one pass; None when numpy refuses a token or a triple fails a
    check, so that _coord_lines names the line.  Numpy accepts a subset of
    what int() and float() accept (not ``1_0`` or non-ASCII digits), with the
    same values, and splits the same lines on the same whitespace.

    Each loadtxt call takes the next _CHUNK_ROWS triples off the line
    iterator.  One table of the whole body (24 bytes a triple) would, once
    freed, raise glibc's mmap threshold above the nnz-long arrays, which
    then fragment the heap on later loads: 6 MB more peak RSS at 800k
    triples."""
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz)
    lines, count = iter(body), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns on a chunk without rows
        while True:
            try:
                table = np.loadtxt(lines, dtype=_COORD_DTYPE, comments=None, ndmin=1,
                                   max_rows=_CHUNK_ROWS)
            except ValueError:
                return None
            end = count + table.shape[0]
            if end > nnz:
                return None
            rows[count:end], cols[count:end], vals[count:end] = (
                table["row"], table["col"], table["value"])
            count = end
            if table.shape[0] < _CHUNK_ROWS:
                break
    rows -= 1
    cols -= 1
    if count != nnz or not np.isfinite(vals).all() or nnz and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= p):
        return None
    return rows, cols, vals


def _coord_lines(body, path, n, p, nnz):
    """_coord_triples one line at a time: the reference parse, whose
    ValueError names the first failing line."""
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz)
    count = 0
    for lineno, line in enumerate(body, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'row col value'")
        if count >= nnz:
            raise ValueError(f"{path}:{lineno}: more than nnz={nnz} entries")
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed indices") from None
        if not (1 <= r <= n) or not (1 <= c <= p):
            raise ValueError(f"{path}:{lineno}: index out of range")
        v = _parse_float(parts[2], path, lineno, "value")
        if not np.isfinite(v):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        rows[count], cols[count], vals[count] = r - 1, c - 1, v
        count += 1
    if count != nnz:
        raise ValueError(f"{path}: {count} entries but header declares nnz={nnz}")
    return rows, cols, vals


def _coord_body(fh, path, n, p, nnz):
    """The triples after the header: _coord_triples, or _coord_lines on the
    same lines when it gives None."""
    # a pipe cannot be read twice, so its lines are held for the line loop
    body, start = (fh, fh.tell()) if fh.seekable() else (fh.readlines(), None)
    triples = _coord_triples(body, n, p, nnz)
    if triples is not None:
        return triples
    if start is not None:
        fh.seek(start)
    return _coord_lines(body, path, n, p, nnz)


def load_dataset(survival_file, design_file, format):
    """Load survival and design files into a checked, sorted dataset.

    The survival file is a CSV with header ``id,time,status`` and ids
    1..n in order.  ``dense-csv`` designs have header ``id,x1,...,xp``.
    ``sparse-coord`` designs start with a ``n p nnz`` line (n as in the
    survival file, no count negative, nnz <= n*p) followed by nnz
    ``row col value`` triples (1-based, any order, no (row, col) twice); a
    dense matrix is never materialized for that format.  Malformed input
    raises ValueError, naming the file and, where there is one, the line.
    """
    if format not in (FORMAT_DENSE, FORMAT_SPARSE):
        raise ValueError(f"unknown design format {format!r}")

    times, status = [], []
    with open(survival_file, "rt", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "id,time,status":
            raise ValueError(f"{survival_file}:1: expected header 'id,time,status'")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{survival_file}:{lineno}: expected 3 fields")
            sid = parts[0].strip()
            if sid != str(len(times) + 1):
                raise ValueError(f"{survival_file}:{lineno}: ids must run 1..n in order, got {sid!r}")
            t = _parse_float(parts[1], survival_file, lineno, "time")
            if not np.isfinite(t) or t <= 0.0:
                raise ValueError(f"{survival_file}:{lineno}: nonpositive time")
            d = parts[2].strip()
            if d not in ("0", "1"):
                raise ValueError(f"{survival_file}:{lineno}: status outside {{0,1}}")
            times.append(t)
            status.append(int(d))
    n = len(times)
    if n == 0:
        raise ValueError(f"{survival_file}: no subjects")
    time = np.asarray(times)
    status = np.asarray(status, dtype=np.int8)

    if format == FORMAT_DENSE:
        with open(design_file, "rt", encoding="utf-8") as fh:
            header = fh.readline().strip()
            names = header.split(",")
            if names[0] != "id" or any(nm != f"x{k}" for k, nm in enumerate(names[1:], start=1)):
                raise ValueError(f"{design_file}:1: expected header 'id,x1,...,xp'")
            p = len(names) - 1
            X = np.zeros((n, p))
            count = 0
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != p + 1:
                    raise ValueError(f"{design_file}:{lineno}: expected {p + 1} fields")
                if parts[0].strip() != str(count + 1):
                    raise ValueError(f"{design_file}:{lineno}: ids must run 1..n in order")
                for k in range(p):
                    X[count, k] = _parse_float(parts[k + 1], design_file, lineno, "value")
                if not np.all(np.isfinite(X[count])):
                    raise ValueError(f"{design_file}:{lineno}: non-finite value")
                count += 1
            if count != n:
                raise ValueError(f"{design_file}: row count {count} does not match survival n={n}")
        return SurvivalDataset.from_dense(time, status, X)

    # sparse-coord
    with open(design_file, "rt", encoding="utf-8") as fh:
        p, nnz = _coord_header(fh, design_file, n)
        rows, cols, vals = _coord_body(fh, design_file, n, p, nnz)
    try:
        design = _entry_design(_sort_order(time, status), p, rows, cols, vals)
    except ValueError as exc:
        raise ValueError(f"{design_file}: {exc}") from None
    return SurvivalDataset(time, status, design)


def save_dataset(ds, survival_file, design_file, format):
    """Write canonical text files; the inverse of load_dataset.

    Standardized datasets are refused: the offset metadata has no file
    representation and would be lost silently.
    """
    if ds.design.standardization != MODE_NONE:
        raise ValueError("cannot save a standardized dataset; save the raw data instead")
    if format not in (FORMAT_DENSE, FORMAT_SPARSE):
        raise ValueError(f"unknown design format {format!r}")
    with open(survival_file, "wt", encoding="utf-8") as fh:
        fh.write("id,time,status\n")
        for i in range(ds.n):
            fh.write(f"{i + 1},{_fmt(ds.time[i])},{int(ds.status[i])}\n")
    if format == FORMAT_DENSE:
        X = ds.dense_design_original_order()
        with open(design_file, "wt", encoding="utf-8") as fh:
            fh.write(",".join(["id"] + [f"x{j + 1}" for j in range(ds.p)]) + "\n")
            for i in range(ds.n):
                fh.write(",".join([str(i + 1)] + [_fmt(v) for v in X[i]]) + "\n")
        return
    # canonical sparse order: by column, then by original row
    with open(design_file, "wt", encoding="utf-8") as fh:
        total = ds.design.nnz()
        fh.write(f"{ds.n} {ds.p} {total}\n")
        for j in range(ds.p):
            pos, val = ds.design.columns[j]
            rows = ds.order[pos]
            srt = np.argsort(rows, kind="stable")
            for k in srt:
                fh.write(f"{rows[k] + 1} {j + 1} {_fmt(val[k])}\n")
