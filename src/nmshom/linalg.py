"""Exact integer matrices and Smith normal form.

Everything here runs on Python's arbitrary-precision integers; no floating
point is involved anywhere, so results are exact and reproducible.  One
reduction core diagonalizes an integer matrix by unimodular row and column
operations and serves two paths: :func:`smith_normal_form` records the
operations and returns the unimodular witnesses u and v, while
:func:`elementary_divisors` skips them and returns only the divisors, which
is all that homology needs.
:func:`minors_gcd_oracle` provides an independent cross-check: the product of
the first k diagonal entries of the Smith form equals the gcd of all k x k
minors.  The oracle deliberately shares no code with the reduction; it
enumerates minors and evaluates determinants by cofactor expansion.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from dataclasses import dataclass

from .validation import ParseError, _parse_int

__all__ = [
    "IntegerMatrix",
    "SmithDecomposition",
    "matrix_multiply",
    "smith_normal_form",
    "elementary_divisors",
    "minors_gcd_oracle",
    "is_unimodular",
    "integer_determinant",
    "parse_matrix",
    "format_matrix",
]


class IntegerMatrix:
    """Immutable dense matrix over the integers, row-major storage.

    Zero rows or columns are legal; a 0 x n matrix has no entries but still
    remembers both dimensions.

    >>> m = IntegerMatrix.from_rows([[2, 0], [-3, 3], [0, -5]])
    >>> m.rows, m.cols
    (3, 2)
    >>> m[1, 0]
    -3
    >>> m.transposed().to_rows()
    [[2, -3, 0], [0, 3, -5]]
    """

    __slots__ = ("_rows", "_cols", "_entries")

    def __init__(self, rows: int, cols: int, entries=()):
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
        flat = tuple(operator.index(e) for e in entries)
        if len(flat) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(flat)}"
            )
        self._rows = rows
        self._cols = cols
        self._entries = flat

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntegerMatrix":
        """Build from a list of row lists.  ``cols`` disambiguates 0 x n."""
        row_list = [list(r) for r in rows]
        if row_list:
            width = len(row_list[0])
            if any(len(r) != width for r in row_list):
                raise ValueError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} entries but cols={cols} was given")
        else:
            width = 0 if cols is None else cols
        return cls(len(row_list), width, (e for r in row_list for e in r))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def __getitem__(self, key) -> int:
        i, j = key
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexError(f"index ({i}, {j}) outside {self._rows}x{self._cols} matrix")
        return self._entries[i * self._cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self._rows:
            raise IndexError(f"row {i} outside {self._rows}x{self._cols} matrix")
        return self._entries[i * self._cols : (i + 1) * self._cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self._cols:
            raise IndexError(f"column {j} outside {self._rows}x{self._cols} matrix")
        return self._entries[j :: self._cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self._rows)]

    def transposed(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self._cols,
            self._rows,
            (self._entries[i * self._cols + j] for j in range(self._cols) for i in range(self._rows)),
        )

    def is_zero(self) -> bool:
        return not any(self._entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return matrix_multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._entries))

    def __repr__(self) -> str:
        if self._rows == 0 or self._cols == 0:
            return f"IntegerMatrix.zeros({self._rows}, {self._cols})"
        return f"IntegerMatrix.from_rows({self.to_rows()!r})"


def matrix_multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Exact product of two integer matrices.

    >>> i2 = IntegerMatrix.identity(2)
    >>> m = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    >>> matrix_multiply(i2, m) == m
    True
    """
    if a.cols != b.rows:
        raise ValueError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: inner dimensions differ"
        )
    b_rows = [b.row(k) for k in range(b.rows)]
    flat: list[int] = []
    for i in range(a.rows):
        acc = [0] * b.cols
        for k, aik in enumerate(a.row(i)):
            if aik:
                brow = b_rows[k]
                for j in range(b.cols):
                    acc[j] += aik * brow[j]
        flat.extend(acc)
    return IntegerMatrix(a.rows, b.cols, flat)


@dataclass(frozen=True)
class SmithDecomposition:
    """Result of :func:`smith_normal_form`: ``s == u @ m @ v``.

    ``s`` is diagonal with nonnegative entries forming a divisibility chain,
    ``u`` and ``v`` are unimodular, and ``divisors`` are the nonzero diagonal
    entries of ``s`` in order.
    """

    s: IntegerMatrix
    u: IntegerMatrix
    v: IntegerMatrix
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _swap_columns(rows: list[list[int]], a: int, b: int) -> None:
    for row in rows:
        row[a], row[b] = row[b], row[a]


def _add_row_multiple(rows: list[list[int]], dst: int, src: int, factor: int) -> None:
    # rows[dst] += factor * rows[src]
    s = rows[src]
    d = rows[dst]
    for j, sj in enumerate(s):
        if sj:
            d[j] += factor * sj


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with x*a + y*b == g and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _balanced_quotient(e: int, d: int) -> int:
    """Quotient leaving the remainder e - q*d in (-d/2, d/2]; d must be positive."""
    q, r = divmod(e, d)
    if 2 * r > d:
        q += 1
    return q


def _echelon_pass(a: list[list[int]], w: list[list[int]], nrows: int, ncols: int) -> None:
    """One row-echelon sweep over ``a`` by unimodular row operations.

    Every operation is mirrored onto the witness rows ``w``, so a caller that
    seeds ``w`` with the identity accumulates the combined transform.  Rows
    are folded in one at a time: an entry below an existing pivot is cleared
    by exact division when the pivot divides it and by an extended-gcd row
    combination otherwise, and the first nonzero that survives to a virgin
    column claims it as a new pivot.  Off-pivot entries sharing a column with
    a pivot are kept balanced-reduced against it; without that discipline
    intermediate entries outgrow the final divisors by orders of magnitude.
    Afterwards rows are permuted into pivot-column order, zero rows last.
    """
    piv_of_col: list[int | None] = [None] * ncols
    piv_cols: list[int] = []

    def reduce_right_of(ri: int, c: int) -> None:
        # balanced-reduce entries of row ri at pivot columns right of c
        row = a[ri]
        for c2 in piv_cols[bisect.bisect_right(piv_cols, c):]:
            e2 = row[c2]
            if e2:
                r2 = piv_of_col[c2]
                q2 = _balanced_quotient(e2, a[r2][c2])
                if q2:
                    pr2 = a[r2]
                    row[c2:] = [s - q2 * t for s, t in zip(row[c2:], pr2[c2:])]
                    w[ri] = [s - q2 * t for s, t in zip(w[ri], w[r2])]

    for k in range(nrows):
        row = a[k]
        lead = None
        for c in range(ncols):
            e = row[c]
            ri = piv_of_col[c]
            if ri is None:
                if e:
                    lead = c
                    break
                continue
            if not e:
                continue
            pr = a[ri]
            d = pr[c]
            if e % d == 0:
                q = e // d
                row[c:] = [s - q * t for s, t in zip(row[c:], pr[c:])]
                w[k] = [s - q * t for s, t in zip(w[k], w[ri])]
            else:
                g, x, y = _bezout(d, e)
                p, q = d // g, e // g
                pr_tail = pr[c:]
                row_tail = row[c:]
                pr[c:] = [x * s + y * t for s, t in zip(pr_tail, row_tail)]
                row[c:] = [p * t - q * s for s, t in zip(pr_tail, row_tail)]
                wr, wk = w[ri], w[k]
                w[ri] = [x * s + y * t for s, t in zip(wr, wk)]
                w[k] = [p * t - q * s for s, t in zip(wr, wk)]
                reduce_right_of(ri, c)
        if lead is None:
            continue
        if row[lead] < 0:
            row[lead:] = [-s for s in row[lead:]]
            w[k] = [-s for s in w[k]]
        piv_of_col[lead] = k
        bisect.insort(piv_cols, lead)
        reduce_right_of(k, lead)
        # bring entries of earlier pivot rows above the new pivot into range
        d = row[lead]
        for c2 in piv_cols[: bisect.bisect_left(piv_cols, lead)]:
            r2 = piv_of_col[c2]
            e2 = a[r2][lead]
            if e2:
                q2 = _balanced_quotient(e2, d)
                if q2:
                    pr2 = a[r2]
                    pr2[lead:] = [s - q2 * t for s, t in zip(pr2[lead:], row[lead:])]
                    w[r2] = [s - q2 * t for s, t in zip(w[r2], w[k])]

    pivot_rows = [piv_of_col[c] for c in piv_cols]
    settled = set(pivot_rows)
    order = pivot_rows + [i for i in range(nrows) if i not in settled]
    a[:] = [a[i] for i in order]
    w[:] = [w[i] for i in order]


def _nonzeros_isolated(a: list[list[int]]) -> bool:
    """True when no row and no column holds more than one nonzero entry."""
    used_cols: set[int] = set()
    for row in a:
        hit = -1
        for j, e in enumerate(row):
            if e:
                if hit >= 0:
                    return False
                hit = j
        if hit >= 0:
            if hit in used_cols:
                return False
            used_cols.add(hit)
    return True


def _isolate_nonzeros(
    a: list[list[int]], u: list[list[int]], vt: list[list[int]]
) -> list[list[int]]:
    """Reduce ``a`` until no row and no column holds two nonzeros; return it.

    ``u`` holds one witness row per row of ``a`` and ``vt`` one per column:
    row operations are mirrored onto ``u`` and column operations onto ``vt``,
    which is v in transposed form.  Empty witness rows make this the
    divisors-only reduction at no extra cost: each mirrored operation then
    combines two empty rows.
    """
    nrows, ncols = len(u), len(vt)
    # Column operations act as row operations on the transpose, so the two
    # orientations share one routine.  Alternating passes strictly shrink
    # the pivots they touch, hence the loop reaches a state where every
    # nonzero is alone in its row and column.
    while True:
        _echelon_pass(a, u, nrows, ncols)
        if _nonzeros_isolated(a):
            return a
        a = [list(col) for col in zip(*a)]
        _echelon_pass(a, vt, ncols, nrows)
        a = [list(col) for col in zip(*a)]
        if _nonzeros_isolated(a):
            return a


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize ``m`` over the integers with unimodular witnesses.

    The diagonal of ``s`` is nonnegative and each entry divides the next;
    trailing entries are zero.  The reduction alternates row and column
    echelon sweeps built from exact-division and extended-gcd steps, keeping
    off-pivot entries balanced-reduced against their pivots so intermediate
    values stay near the size of the final divisors.  This is the witness
    path: every operation is recorded in ``u`` and ``v``.  When only the
    divisors are wanted, :func:`elementary_divisors` runs the same sweeps
    without them.  Every step follows a fixed rule, so the run is fully
    deterministic.

    >>> dec = smith_normal_form(IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]]))
    >>> dec.divisors
    (1, 30)
    >>> dec.s == matrix_multiply(matrix_multiply(dec.u, IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]])), dec.v)
    True
    """
    nrows, ncols = m.rows, m.cols
    u = IntegerMatrix.identity(nrows).to_rows()
    vt = IntegerMatrix.identity(ncols).to_rows()
    a = _isolate_nonzeros(m.to_rows(), u, vt)

    # Gather the isolated entries onto the leading diagonal.
    limit = min(nrows, ncols)
    for t in range(limit):
        src = next((i for i in range(t, nrows) if any(a[i])), None)
        if src is None:
            break
        if src != t:
            a[t], a[src] = a[src], a[t]
            u[t], u[src] = u[src], u[t]
        j = next(idx for idx, e in enumerate(a[t]) if e)
        if j != t:
            _swap_columns(a, t, j)
            vt[t], vt[j] = vt[j], vt[t]

    # Repair divisibility between adjacent diagonal entries with gcd/lcm
    # transforms until the chain holds; each repair strictly shrinks the
    # earlier entry, so this terminates.  A repair adds row j to row i, mixes
    # columns i and j by the Bezout coefficients, and clears entry (j, i)
    # with row i.  Rows and columns i and j are zero off the diagonal, so of
    # ``a`` only the diagonal pair changes, to the gcd and the lcm.
    rank = sum(1 for t in range(limit) if a[t][t])
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            j = i + 1
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            g, x, y = _bezout(di, dj)
            p, q = di // g, dj // g
            a[i][i], a[j][j] = g, p * dj
            _add_row_multiple(u, i, j, 1)
            vi, vj = vt[i], vt[j]
            vt[i] = [x * s + y * t2 for s, t2 in zip(vi, vj)]
            vt[j] = [p * t2 - q * s for s, t2 in zip(vi, vj)]
            _add_row_multiple(u, j, i, -y * q)
            changed = True

    for i in range(limit):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            u[i] = [-x for x in u[i]]

    divisors = tuple(a[i][i] for i in range(limit) if a[i][i])
    v_rows = [list(col) for col in zip(*vt)] if vt else []
    return SmithDecomposition(
        s=IntegerMatrix.from_rows(a, cols=ncols),
        u=IntegerMatrix.from_rows(u, cols=nrows),
        v=IntegerMatrix.from_rows(v_rows, cols=ncols),
        divisors=divisors,
    )


def elementary_divisors(m: IntegerMatrix) -> list[int]:
    """Nonzero Smith diagonal of ``m``, ascending under divisibility.

    This is the divisors-only path: it runs the echelon sweeps of
    :func:`smith_normal_form` with no witness rows, then puts the isolated
    nonzeros into a divisibility chain as scalars.  The Smith diagonal is
    unique, so the result equals ``smith_normal_form(m).divisors``.

    >>> elementary_divisors(IntegerMatrix.from_rows([[2], [-4]]))
    [2]
    >>> elementary_divisors(IntegerMatrix.from_rows([[4, 0], [0, 6]]))
    [2, 12]
    >>> elementary_divisors(IntegerMatrix.zeros(3, 2))
    []
    """
    a = _isolate_nonzeros(m.to_rows(), [[] for _ in range(m.rows)], [[] for _ in range(m.cols)])
    return _divisor_chain(e for row in a for e in row if e)


def _divisor_chain(values) -> list[int]:
    """Invariant factors of the diagonal matrix with these nonzero entries.

    Sorts the absolute values and replaces each pair (d_i, d_j) with i < j
    by (gcd, lcm) until each entry divides the next; the product is kept.

    >>> _divisor_chain([4, -6, 10])
    [2, 2, 60]
    """
    chain = sorted(abs(v) for v in values)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            di, dj = chain[i], chain[j]
            if dj % di:
                g = math.gcd(di, dj)
                chain[i], chain[j] = g, di // g * dj
    return chain


def _cofactor_determinant(rows: list[list[int]]) -> int:
    """Recursive cofactor expansion along the first row.  Oracle use only."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        entry = rows[0][j]
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += sign * entry * _cofactor_determinant(minor)
        sign = -sign
    return total


def minors_gcd_oracle(m: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors of ``m``; 0 if every minor vanishes.

    Computed straight from the definition, by enumerating all row and column
    selections and expanding each determinant by cofactors.  This routine is
    the independent reference for the Smith form: the product of the first k
    diagonal entries equals this gcd.

    >>> minors_gcd_oracle(IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]]), 2)
    30
    """
    if k < 1 or k > min(m.rows, m.cols):
        raise ValueError(f"minor order {k} outside 1..{min(m.rows, m.cols)}")
    g = 0
    for row_pick in itertools.combinations(range(m.rows), k):
        for col_pick in itertools.combinations(range(m.cols), k):
            sub = [[m[i, j] for j in col_pick] for i in row_pick]
            g = math.gcd(g, _cofactor_determinant(sub))
    return g


def integer_determinant(m: IntegerMatrix) -> int:
    """Exact determinant by the Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntegerMatrix) -> bool:
    """True when ``m`` is square with determinant +1 or -1."""
    if m.rows != m.cols:
        raise ValueError(f"unimodularity requires a square matrix, got {m.rows}x{m.cols}")
    return integer_determinant(m) in (1, -1)


_HEADER_RE = re.compile(r"rows\s+([0-9]+)\s+cols\s+([0-9]+)")


def _significant_lines(text: str):
    """Yield (line_number, stripped_line) skipping blanks and # comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_matrix(text: str) -> IntegerMatrix:
    """Read the plain matrix text format.

    The first significant line is a header ``rows R cols C``; each following
    significant line carries the C entries of one row, whitespace separated.
    Blank lines and lines starting with ``#`` are ignored.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "missing 'rows R cols C' header")
    header_line, header = lines[0]
    match = _HEADER_RE.fullmatch(header)
    if match is None:
        raise ParseError(header_line, f"expected 'rows R cols C' header, got {header!r}")
    nrows = _parse_int(match.group(1), header_line, "row count")
    ncols = _parse_int(match.group(2), header_line, "column count")
    body = lines[1:]
    expected_lines = nrows if ncols else 0  # width-0 rows carry no tokens, so no lines
    if len(body) < expected_lines:
        raise ParseError(
            lines[-1][0],
            f"expected {expected_lines} matrix rows, found {len(body)}",
        )
    if len(body) > expected_lines:
        raise ParseError(body[expected_lines][0], "unexpected content after the last matrix row")
    flat: list[int] = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != ncols:
            raise ParseError(lineno, f"expected {ncols} entries, found {len(tokens)}")
        flat.extend(_parse_int(token, lineno, "entry") for token in tokens)
    return IntegerMatrix(nrows, ncols, flat)


def format_matrix(m: IntegerMatrix) -> str:
    """Render in the same text format :func:`parse_matrix` reads."""
    lines = [f"rows {m.rows} cols {m.cols}"]
    if m.cols:
        lines.extend(" ".join(str(e) for e in m.row(i)) for i in range(m.rows))
    return "\n".join(lines) + "\n"
