"""Reference computations that check the Smith core from outside the package.

Each works on plain row lists from :meth:`IntegerMatrix.to_rows` and shares
no code with ``nmshom.linalg``'s reduction: products by the definition,
determinants by Bareiss elimination and by cofactor expansion, and the gcd
of all k x k minors, whose value is the product of the first k Smith
divisors.  Matrix results come back as ``IntegerMatrix`` with their shape
given, so a 2 x 0 by 0 x 3 product is the 2 x 3 zero matrix.
"""

from __future__ import annotations

import itertools
import math
import operator

from nmshom import IntegerMatrix


def multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """The exact product ``a·b``."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}: inner dimensions differ"
        )
    columns = list(zip(*b.to_rows())) or [()] * b.cols
    product = [[sum(map(operator.mul, row, column)) for column in columns] for row in a.to_rows()]
    return IntegerMatrix.from_rows(product, cols=b.cols)


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix.from_rows(list(zip(*m.to_rows())) or [()] * m.cols, cols=m.rows)


def cofactor_determinant(rows: list[list[int]]) -> int:
    """Determinant of a nonempty square row list by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * entry * cofactor_determinant(minor)
    return total


def determinant(m: IntegerMatrix) -> int:
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
    return determinant(m) in (1, -1)


def minors_gcd(m: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors of ``m``; 0 if every minor vanishes.

    Every row and column selection is enumerated and its determinant
    expanded by cofactors, straight from the definition.
    """
    if k < 1 or k > min(m.rows, m.cols):
        raise ValueError(f"minor order {k} outside 1..{min(m.rows, m.cols)}")
    rows = m.to_rows()
    g = 0
    for row_pick in itertools.combinations(rows, k):
        for col_pick in itertools.combinations(range(m.cols), k):
            g = math.gcd(g, cofactor_determinant([[row[j] for j in col_pick] for row in row_pick]))
    return g
