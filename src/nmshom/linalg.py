"""Exact integer matrices and Smith normal form.

Everything here runs on Python's arbitrary-precision integers, so results
are exact and reproducible.  One reduction core diagonalizes an integer
matrix by unimodular row operations, on the matrix and on its transpose.
It works on sparse rows, each a dict from column to nonzero entry, after
Dumas, Saunders and Villard ("On efficient sparse integer matrix Smith
normal form computations", J. Symb. Comput. 32, 2001) and Kaczynski,
Mischaikow and Mrozek (*Computational Homology*, 2004): an operation costs
the nonzeros of the rows it reads, and no row ever stores a zero.  The core
is written in three row operations: ``_subtract`` (a multiple of one row
from another), ``_balance`` (balanced reduction of an entry against its
column's pivot) and ``_combine`` (the Bezout 2 x 2 combination of two
rows).  Each mirrors itself onto the witness rows, kept in the same sparse
storage, inside its own definition, and nowhere else.  The core serves two
paths: :func:`smith_normal_form` seeds the witnesses with the identity and
returns u and v, while :func:`elementary_divisors` passes None for them,
so nothing is mirrored, and returns only the divisors, which is all that
homology needs.  Every echelon sweep leaves each nonzero row leading at its
own column with a positive pivot, so the core stops once no row holds two
nonzeros, and the entries it isolates are positive.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import re
from collections import Counter
from typing import NamedTuple

from .validation import _INTEGER_CHARS, ParseError, _format_int, _parse_int, _significant_lines

__all__ = [
    "IntegerMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "elementary_divisors",
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
    >>> m.row(2)
    (0, -5)
    """

    __slots__ = ("_rows", "_cols", "_entries")

    def __init__(self, rows: int, cols: int, entries=()):
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
        flat = tuple(map(operator.index, entries))
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

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self._rows)]

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


class SmithDecomposition(NamedTuple):
    """Result of :func:`smith_normal_form`: s = u·m·v.

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


_Row = dict[int, int]
_Rows = list[_Row]


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


def _subtract_row(dst: _Row, src: _Row, q: int) -> list[int]:
    """``dst`` -= ``q`` * ``src`` in place, for nonzero ``q``; return the columns ``dst`` gains.

    ``dst`` may be ``src`` itself.  An entry that cancels is deleted, so no
    row ever stores a zero.
    """
    added = []
    for c, t in src.items():
        if c in dst:
            s = dst[c] - q * t
            if s:
                dst[c] = s
            else:
                del dst[c]
        else:
            dst[c] = -q * t
            added.append(c)
    return added


def _combine_rows(one: _Row, two: _Row, x: int, y: int, p: int, q: int) -> tuple[_Row, _Row]:
    """The rows (x*one + y*two, p*two - q*one), without zero entries."""
    first, second = {}, {}
    for c in one.keys() | two.keys():
        s, t = one.get(c, 0), two.get(c, 0)
        if v := x * s + y * t:
            first[c] = v
        if v := p * t - q * s:
            second[c] = v
    return first, second


def _subtract(a: _Rows, w: _Rows | None, dst: int, src: int, q: int) -> list[int]:
    """Row ``dst`` -= ``q`` * row ``src`` in ``a`` and ``w``; return what ``a[dst]`` gains."""
    if w is not None:
        _subtract_row(w[dst], w[src], q)
    return _subtract_row(a[dst], a[src], q)


def _balance(a: _Rows, w: _Rows | None, dst: int, src: int, c: int) -> list[int]:
    """Balanced-reduce entry (dst, c) of ``a`` against the pivot (src, c)."""
    q = _balanced_quotient(a[dst][c], a[src][c])
    return _subtract(a, w, dst, src, q) if q else []


def _combine(a: _Rows, w: _Rows | None, r1: int, r2: int, d: int, e: int) -> tuple[int, int, int]:
    """Rows (r1, r2) := (x*r1 + y*r2, (d*r2 - e*r1) / g), with (g, x, y) = _bezout(d, e).

    In ``a`` and ``w`` alike; entries (d, e) of ``a`` become (g, 0).  d and e
    are nonzero, so d/g and e/g are too, while x or y may be 0.
    """
    g, x, y = _bezout(d, e)
    for rows in (a, w) if w is not None else (a,):
        rows[r1], rows[r2] = _combine_rows(rows[r1], rows[r2], x, y, d // g, e // g)
    return g, x, y


def _reduce_right(a: _Rows, w: _Rows | None, r: int, c: int, pivot_row: dict, above: dict) -> None:
    """Balance pivot row ``r`` against every pivot right of column ``c``, left to right.

    Each balance only adds columns right of the pivot it uses, so a heap of
    the row's pivot columns, fed what each balance adds, visits them in
    order.  The row's columns that hold no pivot yet go into ``above``.
    """
    heap = []
    for c2 in a[r]:
        if c2 in pivot_row:
            if c2 > c:
                heap.append(c2)
        else:
            above.setdefault(c2, []).append(r)
    heapq.heapify(heap)
    while heap:
        c2 = heapq.heappop(heap)
        if c2 in a[r]:
            for c3 in _balance(a, w, r, pivot_row[c2], c2):
                if c3 in pivot_row:
                    heapq.heappush(heap, c3)
                else:
                    above.setdefault(c3, []).append(r)


def _echelon_pass(a: _Rows, w: _Rows | None) -> None:
    """One row-echelon sweep over the sparse rows ``a`` by the three row operations.

    :func:`_subtract`, :func:`_balance` and :func:`_combine` each mirror
    themselves onto the witness rows ``w``, so a caller that seeds ``w`` with
    the identity accumulates the combined transform (``w`` may be None).
    Rows are folded in one at a time: an entry below a pivot is cleared by
    exact division when the pivot divides it and by a Bezout combination
    otherwise, and the first nonzero that survives to a virgin column claims
    it as a new pivot.  Off-pivot entries are kept balanced-reduced against
    their column's pivot; without that, intermediate entries outgrow the
    final divisors by orders of magnitude.  Then rows go into pivot-column
    order, zero rows last.

    Every pivot row is zero left of its pivot, so an operation at column c
    changes its target only from c on.  The scan of a row therefore pops
    columns off a heap that each operation feeds with the columns it adds.
    ``above`` maps a column that holds no pivot yet to the pivot rows that
    may hold an entry there; a new pivot prunes its list lazily.
    """
    pivot_row: dict[int, int] = {}
    above: dict[int, list[int]] = {}
    for k in range(len(a)):
        heap = list(a[k])
        heapq.heapify(heap)
        lead = None
        while heap:
            c = heapq.heappop(heap)
            e = a[k].get(c)
            if e is None:
                continue
            ri = pivot_row.get(c)
            if ri is None:
                lead = c
                break
            d = a[ri][c]
            if e % d == 0:
                added = _subtract(a, w, k, ri, e // d)
            else:
                # x may be 0, so row k can gain columns the new pivot row lacks
                _combine(a, w, ri, k, d, e)
                added = list(a[k])
                _reduce_right(a, w, ri, c, pivot_row, above)
            for c2 in added:
                heapq.heappush(heap, c2)
        if lead is None:
            continue
        if a[k][lead] < 0:
            _subtract(a, w, k, k, 2)  # negate: row - 2 * row
        pivot_row[lead] = k
        _reduce_right(a, w, k, lead, pivot_row, above)
        # bring entries of earlier pivot rows above the new pivot into range;
        # each balance changes only its own row, so their order is immaterial
        for r in set(above.pop(lead, ())):
            if lead in a[r]:
                for c3 in _balance(a, w, r, k, lead):
                    if c3 not in pivot_row:
                        above.setdefault(c3, []).append(r)

    order = [pivot_row[c] for c in sorted(pivot_row)]
    order += sorted(set(range(len(a))).difference(order))
    a[:] = [a[i] for i in order]
    if w is not None:
        w[:] = [w[i] for i in order]


def _transpose(rows: _Rows, ncols: int) -> _Rows:
    columns: _Rows = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, value in row.items():
            columns[j][i] = value
    return columns


def _isolate_nonzeros(a: _Rows, u: _Rows | None, vt: _Rows | None, ncols=None) -> _Rows:
    """Reduce ``a`` until no row and no column holds two nonzeros; return it.

    ``a`` is a list of sparse rows, each a dict from column to nonzero entry,
    and is reduced in place.  ``u`` holds one witness row per row of ``a``
    and ``vt`` one per column, in the same storage: row operations are
    mirrored onto ``u`` and column operations onto ``vt``, which is v in
    transposed form.  With None for both, the divisors-only reduction,
    nothing is mirrored, and ``ncols`` gives the column count that is
    otherwise ``len(vt)``.

    Each :func:`_echelon_pass` leaves every nonzero row leading at its own
    column with a positive pivot.  So a pass after which no row holds two
    nonzeros has isolated them by columns too, and every entry returned is
    positive.
    """
    # Column operations act as row operations on the transpose, so the two
    # orientations share one routine.  Alternating passes strictly shrink
    # the pivots they touch, hence the loop reaches a state where every
    # nonzero is alone in its row and column.  ``width`` is the column count
    # of ``a`` in its current orientation.
    ncols = len(vt) if ncols is None else ncols
    for w, width, flipped in itertools.cycle(((u, ncols, False), (vt, len(a), True))):
        _echelon_pass(a, w)
        if all(len(row) < 2 for row in a):
            return _transpose(a, width) if flipped else a
        a = _transpose(a, width)


def _sparse_rows(m: IntegerMatrix) -> _Rows:
    """The rows of ``m`` as dicts from column to nonzero entry."""
    return [{j: e for j, e in enumerate(m.row(i)) if e} for i in range(m.rows)]


def _dense(rows: _Rows, ncols: int) -> IntegerMatrix:
    flat = [0] * (len(rows) * ncols)
    for i, row in enumerate(rows):
        for j, value in row.items():
            flat[i * ncols + j] = value
    return IntegerMatrix(len(rows), ncols, flat)


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize ``m`` over the integers with unimodular witnesses.

    The diagonal of ``s`` is nonnegative and each entry divides the next;
    trailing entries are zero.  The reduction alternates row and column
    echelon sweeps of exact-division, balancing and Bezout steps, which keep
    intermediate values near the size of the final divisors.  It runs on
    sparse rows, and so do the witnesses u and v^T, which start as the
    identity; a dense matrix is built only for the three results.  This is
    the witness path: every operation is recorded in ``u`` and ``v``, and
    :func:`elementary_divisors` runs the same sweeps without them.  Every
    step follows a fixed rule, so the run is fully deterministic.

    >>> dec = smith_normal_form(IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]]))
    >>> dec.divisors
    (1, 30)
    >>> dec.s
    IntegerMatrix.from_rows([[1, 0], [0, 30], [0, 0]])
    """
    nrows, ncols = m.rows, m.cols
    u = [{i: 1} for i in range(nrows)]
    vt = [{j: 1} for j in range(ncols)]
    a = _isolate_nonzeros(_sparse_rows(m), u, vt)

    # Gather the isolated entries onto the leading diagonal.
    rank = sum(1 for row in a if row)
    for t in range(rank):
        src = next(i for i in range(t, nrows) if a[i])
        a[t], a[src] = a[src], a[t]
        u[t], u[src] = u[src], u[t]
        (j,) = a[t]
        if j != t:
            for row in a:
                here, there = row.pop(t, 0), row.pop(j, 0)
                if there:
                    row[t] = there
                if here:
                    row[j] = here
            vt[t], vt[j] = vt[j], vt[t]

    # Repair divisibility between adjacent diagonal entries with gcd/lcm
    # transforms until the chain holds; each repair strictly shrinks the
    # earlier entry, so this terminates.  A repair adds row j to row i, mixes
    # columns i and j by the Bezout coefficients, and clears entry (j, i)
    # with row i.  Rows and columns i and j are zero off the diagonal, so of
    # ``a`` only the diagonal pair changes, to the gcd and the lcm (both > 0);
    # it is set directly, so the row operations get empty matrix rows.  The
    # Bezout y of (di, dj) is nonzero since dj != 0, so every multiple is too.
    bare: _Rows = [{} for _ in range(rank)]
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            j = i + 1
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            _subtract(bare, u, i, j, -1)
            g, _, y = _combine(bare, vt, i, j, di, dj)
            _subtract(bare, u, j, i, y * (dj // g))
            a[i][i], a[j][j] = g, di // g * dj
            changed = True

    divisors = tuple(a[i][i] for i in range(rank))
    return SmithDecomposition(
        s=_dense(a, ncols),
        u=_dense(u, nrows),
        v=_dense(_transpose(vt, ncols), ncols),
        divisors=divisors,
    )


def elementary_divisors(m: IntegerMatrix) -> list[int]:
    """Nonzero Smith diagonal of ``m``, ascending under divisibility.

    This is the divisors-only path: it runs the echelon sweeps of
    :func:`smith_normal_form` on the sparse rows of ``m`` with no witness
    rows, then puts the isolated nonzeros into a divisibility chain as
    scalars.  The Smith diagonal is unique, so the result equals
    ``smith_normal_form(m).divisors``.

    >>> elementary_divisors(IntegerMatrix.from_rows([[2], [-4]]))
    [2]
    >>> elementary_divisors(IntegerMatrix.from_rows([[4, 0], [0, 6]]))
    [2, 12]
    >>> elementary_divisors(IntegerMatrix.zeros(3, 2))
    []
    """
    if not (m.rows and m.cols):
        return []
    return _row_divisors(_sparse_rows(m), m.cols)


def _row_divisors(rows: _Rows, ncols: int) -> list[int]:
    """:func:`elementary_divisors` of the matrix with these sparse rows and ``ncols`` columns.

    The core reduces a copy of the nonzero rows, so ``rows`` is left as it
    was; with no nonzero row the core is not called at all.
    """
    a = [dict(row) for row in rows if row]
    if not a:
        return []
    a = _isolate_nonzeros(a, None, None, ncols)
    return _divisor_chain(e for row in a for e in row.values())


def _divisor_chain(values) -> list[int]:
    """Invariant factors of the diagonal matrix with these nonzero entries.

    Near-linear, after Bernstein ("Factoring into coprimes in essentially
    linear time", J. Algorithms 53, 2005): the distinct absolute values are
    refined into a pairwise coprime base whose elements b record their
    exponent in every value.  A value coprime to the base joins it after one
    gcd with the base's product.  One that shares a factor h with some b
    loses every factor b if h = b, and otherwise b and the value go back as
    b/h, h and value/h.  Each prime divides one b, so dealing each b's sorted
    exponents to the largest factors sorts every prime's exponents: that is
    the chain, with the product kept.

    >>> _divisor_chain([4, -6, 10])
    [2, 2, 60]
    """
    counts = Counter(map(abs, values))
    base: dict[int, dict[int, int]] = {}  # element -> {value: exponent of the element in it}
    product = 1  # of the base
    # (factor, {value: exponent of the factor in it}), popped smallest first, so
    # that a small factor is in the base before the values it divides
    work = [(v, {v: 1}) for v in sorted(counts, reverse=True) if v > 1]
    while work:
        y, uses = work.pop()
        g = math.gcd(y, product)
        if g == 1:
            base[y], product = uses, product * y
            continue
        b = g if g in base else next(b for b in base if math.gcd(b, g) > 1)
        h = math.gcd(b, y)
        if h == b:
            k = 0
            while y % b == 0:
                y, k = y // b, k + 1
            b_uses = base[b]
            for v, e in uses.items():
                b_uses[v] = b_uses.get(v, 0) + k * e
            if y > 1:
                work.append((y, uses))
        else:
            product //= b
            b_uses = base.pop(b)
            h_uses = dict(b_uses)
            for v, e in uses.items():
                h_uses[v] = h_uses.get(v, 0) + e
            pieces = ((b // h, b_uses), (h, h_uses), (y // h, uses))
            work += [piece for piece in pieces if piece[0] > 1]
    chain = [1] * sum(counts.values())
    for b, uses in base.items():
        end = len(chain)  # the counts[v] entries before it get b^e, largest e last
        for e, v in sorted(((e, v) for v, e in uses.items()), reverse=True):
            chain[end - counts[v] : end] = map((b**e).__mul__, chain[end - counts[v] : end])
            end -= counts[v]
    return chain


_HEADER_RE = re.compile(r"rows\s+([0-9]+)\s+cols\s+([0-9]+)")


def parse_matrix(text: str) -> IntegerMatrix:
    """Read the plain matrix text format.

    The first significant line is a header ``rows R cols C``; each following
    significant line carries the C entries of one row, whitespace separated.
    Blank lines and lines starting with ``#`` are ignored.  A row's tokens
    are checked by one character class over their concatenation and
    converted by ``int``; only a row that either rejects, for a stray
    character, a lone or misplaced sign or an entry past the interpreter's
    digit limit, is read token by token to name its first bad entry.
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
        if _INTEGER_CHARS.fullmatch("".join(tokens)):
            try:
                flat += map(int, tokens)
                continue
            except ValueError:  # a misplaced sign, or past the digit limit: the token path says so
                pass
        flat.extend(_parse_int(token, lineno, "entry") for token in tokens)
    return IntegerMatrix(nrows, ncols, flat)


def format_matrix(m: IntegerMatrix) -> str:
    """Render in the same text format :func:`parse_matrix` reads."""
    lines = [f"rows {m.rows} cols {m.cols}"]
    if m.cols:
        lines.extend(" ".join(map(_format_int, m.row(i))) for i in range(m.rows))
    return "\n".join(lines) + "\n"
