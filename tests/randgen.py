"""Seeded random generators shared by the test modules.

Every function takes an explicit ``random.Random`` so each test controls its
own seed and the suite stays reproducible.
"""

from __future__ import annotations

import math

from nmshom import FlowComplex, HomologyGroup, Incidence, IntegerMatrix, Orbit, SeifertInvariant


def random_matrix(rng, max_rows=4, max_cols=4, low=-9, high=9, min_rows=0, min_cols=0):
    rows = rng.randint(min_rows, max_rows)
    cols = rng.randint(min_cols, max_cols)
    return IntegerMatrix(rows, cols, [rng.randint(low, high) for _ in range(rows * cols)])


def random_unimodular(rng, n):
    """Product of elementary row operations on the identity, so det is +-1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n >= 2:
        for _ in range(3 * n + rng.randint(0, 4)):
            i, j = rng.sample(range(n), 2)
            if rng.random() < 0.25:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                factor = rng.choice([-3, -2, -1, 1, 2, 3])
                rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
    return IntegerMatrix.from_rows(rows, cols=n)


def random_coprime_beta(rng, alpha, spread=24):
    candidates = [b for b in range(-spread, spread + 1) if math.gcd(alpha, b) == 1]
    return rng.choice(candidates)


def random_invariant(rng, min_pairs=1, max_pairs=6, max_alpha=12, max_genus=3):
    pairs = []
    for _ in range(rng.randint(min_pairs, max_pairs)):
        alpha = rng.randint(1, max_alpha)
        pairs.append((alpha, random_coprime_beta(rng, alpha)))
    return SeifertInvariant(rng.randint(0, max_genus), tuple(pairs))


def random_zero_square_flow(rng, max_dim=5, max_per_index=4):
    """A valid flow complex whose boundary maps compose to zero.

    Incidences are placed only on a set of index levels no two of which are
    adjacent, so in every product d_k . d_(k+1) at least one factor is zero.
    """
    n = rng.randint(2, max_dim)
    counts = [rng.randint(1, max_per_index) for _ in range(n)]
    orbits = [Orbit(f"w{k}_{i}", k) for k in range(n) for i in range(counts[k])]
    active_levels = []
    level = 1
    while level < n:
        if rng.random() < 0.7:
            active_levels.append(level)
            level += 2
        else:
            level += 1
    incidences = []
    for k in active_levels:
        for upper in (o for o in orbits if o.index == k):
            for lower in (o for o in orbits if o.index == k - 1):
                if rng.random() < 0.5:
                    incidences.append(Incidence(upper.id, lower.id, rng.randint(-5, 5)))
    return FlowComplex(n, orbits, incidences)


def _unimodular_pair(rng, n):
    """A random unimodular n x n matrix and its inverse, as row lists.

    Each elementary operation E is applied to u from the left and its
    inverse to u_inv from the right, so u_inv . u = I holds throughout.
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n + rng.randint(0, 3) if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        roll = rng.random()
        if roll < 0.2:  # swap rows i and j; the inverse swaps columns
            u[i], u[j] = u[j], u[i]
            for row in u_inv:
                row[i], row[j] = row[j], row[i]
        elif roll < 0.3:  # negate row i; the inverse negates column i
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]
        else:  # row i += f row j; the inverse does column j -= f column i
            f = rng.choice([-2, -1, 1, 2])
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
            for row in u_inv:
                row[j] -= f * row[i]
    return u, u_inv


def _times(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)] for row in a]


def random_conjugated_flow(rng, dim=None, prefix="q"):
    """A valid flow whose adjacent boundaries are all nonzero, with its homology.

    The flow starts from a complex in normal form: C_k holds rho_k sources
    of d_k, beta_k free cycles and rho_(k+1) targets of d_(k+1), and d_k
    sends its i-th source to e_i times its i-th target, where e_1 | e_2 | ...
    Every rho_k is at least one, so every d_k is nonzero, and the homology
    in degree k is Z^beta_k plus Z/e for each e > 1 of d_(k+1).  Each degree
    then changes basis by a random unimodular U_k, built with its inverse:
    d'_k = U_(k-1) d_k U_k^-1, so d'_k . d'_(k+1) = U_(k-1) d_k d_(k+1)
    U_(k+1)^-1 = 0 and the homology is unchanged.  Orbit ids are shuffled,
    which permutes each basis once more.  ``dim`` defaults to a random 2..5;
    orbit ids start with ``prefix``.  Returns (flow, homology groups).
    """
    n = dim if dim is not None else rng.randint(2, 5)
    rho = [0] + [rng.randint(1, 3) for _ in range(n - 1)] + [0]
    beta = [rng.randint(0, 2) for _ in range(n)]
    ranks = [rho[k] + beta[k] + rho[k + 1] for k in range(n)]
    divisors = [[]]
    for k in range(1, n):
        chain, value = [], 1
        for _ in range(rho[k]):
            value *= rng.choice([1, 1, 2, 3])
            chain.append(value)
        divisors.append(chain)
    divisors.append([])
    pairs = [_unimodular_pair(rng, r) for r in ranks]
    incidences = []
    ids = [[f"{prefix}{k}_{x}" for x in rng.sample(range(100), r)] for k, r in enumerate(ranks)]
    for k in range(1, n):
        d = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        for i, e in enumerate(divisors[k]):
            d[ranks[k - 1] - rho[k] + i][i] = e  # targets sit last in C_(k-1)
        d = _times(_times(pairs[k - 1][0], d, ranks[k - 1]), pairs[k][1], ranks[k])
        for i, row in enumerate(d):
            for j, c in enumerate(row):
                if c:
                    incidences.append(Incidence(ids[k][j], ids[k - 1][i], c))
    orbits = [Orbit(oid, k) for k, level in enumerate(ids) for oid in level]
    groups = [
        HomologyGroup(k, beta[k], tuple(e for e in divisors[k + 1] if e > 1)) for k in range(n)
    ]
    return FlowComplex(n, orbits, incidences), groups
