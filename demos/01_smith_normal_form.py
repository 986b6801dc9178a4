"""Smith normal form over the integers, step by step.

Every integer matrix m factors as s = u·m·v with u, v unimodular and s
diagonal, the diagonal entries nonnegative with each dividing the next.
Those diagonal entries (the elementary divisors) classify the cokernel of m
as an abelian group, which is why they carry all torsion information in the
homology computations of the rest of the package.

Run me directly:  python3 demos/01_smith_normal_form.py
"""

from itertools import combinations
from math import gcd

from nmshom import IntegerMatrix, elementary_divisors, format_matrix, smith_normal_form


def product(a, b):
    """The rows of a·b, for row lists a and b."""
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def determinant(rows):
    """Cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * entry * determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, entry in enumerate(rows[0])
    )


# A 3 x 2 matrix whose columns generate a finite-index subgroup of Z^2 inside
# Z^3.  The interesting question: what is Z^3 / (column span)?
m = IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]])
print("input matrix:")
print(format_matrix(m))

decomposition = smith_normal_form(m)
print("diagonal form s:")
print(format_matrix(decomposition.s))
print("elementary divisors:", list(decomposition.divisors))

# The divisors say: cokernel = Z/1 + Z/30 + Z = Z/30 + Z.  The 30 is not
# visible in any single entry of m; it emerges from the interaction of the
# rows, which is exactly what the unimodular changes of basis expose.

print("u (row operations):")
print(format_matrix(decomposition.u))
print("v (column operations):")
print(format_matrix(decomposition.v))

u, v = decomposition.u.to_rows(), decomposition.v.to_rows()
print("u @ m @ v equals s:", product(product(u, m.to_rows()), v) == decomposition.s.to_rows())
print("u unimodular:", determinant(u) in (1, -1))
print("v unimodular:", determinant(v) in (1, -1))

# Cross-check against the classical description of the divisors: the product
# d_1 * ... * d_k equals the gcd of all k x k minors.  That gcd comes straight
# from determinants here, sharing no code with the reduction above.
rows = m.to_rows()
print()
print("gcd of 1x1 minors:", gcd(*(e for row in rows for e in row)), "(= d_1)")
minors = [
    determinant([[row[j] for j in cols] for row in pick])
    for pick in combinations(rows, 2)
    for cols in combinations(range(m.cols), 2)
]
print("gcd of 2x2 minors:", gcd(*minors), "(= d_1 * d_2)")

# Divisors are invariant under any unimodular change of basis, so transposing
# or permuting rows cannot change them.
print()
print("divisors of the transpose:", elementary_divisors(IntegerMatrix.from_rows(zip(*rows))))

# Degenerate shapes are first-class citizens: a matrix with no rows or no
# columns has no divisors at all.
print("divisors of an empty 0 x 4 matrix:", elementary_divisors(IntegerMatrix.zeros(0, 4)))
