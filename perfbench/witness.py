"""Checks of the u, s and v that ``snf --witness`` prints, by this file's own arithmetic.

Under ``--porcelain`` the divisors go to stdout and the witnesses go to
stderr as the human rendering.  A witness is right when s = u.M.v, s is the
diagonal of the divisor chain the input was built from, and u and v are
unimodular.  Nothing here comes from ``nmshom``.
"""

from __future__ import annotations

# Two primes near 2**61 and 2**62.  A determinant other than +-1 passes the
# modular test only if both divide det - 1 or both divide det + 1.
PRIMES = (2305843009213693951, 4611686018427387847)


def parse_matrix(lines: list[str]) -> list[list[int]]:
    """A matrix in nmshom's text form: ``rows R cols C`` and R lines of C ints."""
    rows, cols = int(lines[0].split()[1]), int(lines[0].split()[3])
    body = [[int(x) for x in line.split()] for line in lines[1 : 1 + rows]] if cols else []
    return body if body else [[] for _ in range(rows)]


def witnesses(stderr: str) -> dict[str, list[list[int]]]:
    """The u, s and v blocks of the human rendering of ``snf --witness``."""
    blocks: dict[str, list[str]] = {}
    current = None
    for line in stderr.splitlines():
        if line in ("u =", "s =", "v ="):
            current = line[0]
            blocks[current] = []
        elif current is not None:
            blocks[current].append(line)
    return {name: parse_matrix(lines) for name, lines in blocks.items()}


def multiply(a: list[list[int]], b: list[list[int]], cols: int) -> list[list[int]]:
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(cols)] for row in a]


def determinant(m: list[list[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    a = [row[:] for row in m]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def determinant_mod(m: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p, by Gaussian elimination over GF(p)."""
    a = [[x % p for x in row] for row in m]
    n, det = len(a), 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % p
        inverse = pow(a[k][k], -1, p)
        top = a[k]
        for i in range(k + 1, n):
            f = a[i][k] * inverse % p
            if f:
                row = a[i]
                for j in range(k + 1, n):
                    row[j] = (row[j] - f * top[j]) % p
    return det % p


def unimodular(m: list[list[int]], exact: bool) -> bool:
    """Whether det m is +-1: exactly, or modulo each of :data:`PRIMES`.

    Witness entries reach a thousand bits at n = 60, where the exact test
    takes most of a second per matrix and the modular one a hundredth.
    """
    if exact:
        return determinant(m) in (1, -1)
    return all(determinant_mod(m, p) in (1, p - 1) for p in PRIMES)


def check(text: str, divisors: list[int], stderr: str, exact: bool = False) -> list[str]:
    """What is wrong with the witnesses in ``stderr`` for the matrix ``text``.

    ``divisors`` is the chain the matrix was built from.  Returns one line
    per problem, none when the witnesses are right.
    """
    m = parse_matrix(text.splitlines())
    rows, cols = len(m), len(m[0]) if m else 0
    w = witnesses(stderr)
    if set(w) != {"u", "s", "v"}:
        return [f"witness blocks {sorted(w)}, expected u, s and v"]
    shapes = {name: (len(w[name]), len(w[name][0]) if w[name] else 0) for name in "usv"}
    expected_shapes = {"u": (rows, rows), "s": (rows, cols), "v": (cols, cols)}
    if shapes != expected_shapes:
        return [f"witness shapes {shapes}, expected {expected_shapes}"]
    problems = []
    if multiply(multiply(w["u"], m, cols), w["v"], cols) != w["s"]:
        problems.append("s != u.M.v")
    expected = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(divisors):
        expected[i][i] = d
    if w["s"] != expected:
        problems.append("s is not the predicted diagonal")
    for name in ("u", "v"):
        if not unimodular(w[name], exact):
            problems.append(f"{name} is not unimodular")
    return problems
