"""Seeded inputs for the benchmark, each with its expected porcelain stdout.

Every reference answer here is computed by this module's own arithmetic and
never by ``nmshom``: Seifert torsion comes from p-adic exponents of the
alphas, conjugated complexes carry the homology of the normal form they were
built from, planted defects carry the violation records they must produce,
and Smith inputs U.D.V carry the divisor chain D they were built from.

A workload's pool is a list of :class:`Case`.  Input sizes follow a fixed
low-discrepancy ladder over the workload's size range, independent of the
seed, so any prefix of the pool covers the range evenly; the seed decides
the contents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

GOLDEN = 0.6180339887498949

# Alphas share the primes 2 and 3, so divisors need real divisibility repair.
SEIFERT_ALPHAS = (1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36, 5, 10)
BLOCK_RANKS = (3, 4, 6, 7)
DEFECT_KINDS = (
    "nonzero-boundary-square",
    "equal-index-incidence",
    "non-adjacent-incidence",
    "unknown-orbit",
    "duplicate-incidence",
)


@dataclass
class Case:
    """One input: the nmshom argv (``{path}`` marks the input file), the file
    text, and the exit code and stdout a correct program produces."""

    id: int
    argv: list[str]
    text: str
    expected_exit: int
    expected_stdout: str
    size: dict = field(default_factory=dict)
    seifert: str | None = None  # compact invariants, for the closed-form span
    divisors: list[int] | None = None  # the chain a Smith input was built from


def ladder(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes in lo..hi; every prefix spreads evenly over the range."""
    return [lo + int(((i * GOLDEN) % 1.0) * (hi - lo + 1)) for i in range(count)]


# ---------------------------------------------------------------- Seifert


def _factor(n: int) -> dict[int, int]:
    found: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        found[n] = found.get(n, 0) + 1
    return found


def seifert_torsion(alphas: list[int]) -> list[int]:
    """Torsion of H_0 for a fibration with these alphas, ascending.

    H_0 is Z^m modulo a_1 x_1 = ... = a_m x_m.  At each prime p that is the
    amalgam of cyclic groups of orders p^e_i, whose torsion keeps every
    exponent e_i except one largest; aligning the kept exponents of all
    primes in ascending order gives the divisor chain.
    """
    exponents: dict[int, list[int]] = {}
    for alpha in alphas:
        for p, e in _factor(alpha).items():
            exponents.setdefault(p, []).append(e)
    m = len(alphas)
    chain = [1] * (m - 1)
    for p, found in exponents.items():
        kept = sorted([0] * (m - len(found)) + found)[:-1]
        for i, e in enumerate(kept):
            chain[i] *= p**e
    return [d for d in chain if d > 1]


def _coprime_beta(rng: random.Random, alpha: int) -> int:
    while True:
        beta = rng.randint(-30, 30)
        if math.gcd(alpha, beta) == 1:
            return beta


def seifert_case(rng: random.Random, case_id: int, m: int) -> Case:
    """The flow of a fibration with m fibers, written as nmsflow text.

    The genus cycles through 0..3 with the input's position rather than
    coming from the seed, since it moves the time by up to 40% at equal m.
    """
    genus = case_id % 4
    alphas = [rng.choice(SEIFERT_ALPHAS) for _ in range(m)]
    saddles = m + 2 * genus - 1
    width = len(str(max(m, saddles)))
    mins = [f"p0_{i:0{width}d}" for i in range(m)]
    sads = [f"p1_{j:0{width}d}" for j in range(saddles)]
    lines = ["format nmsflow 1", "dim 3"]
    lines += [f"orbit {o} index 0" for o in mins]
    lines += [f"orbit {o} index 1" for o in sads]
    lines.append("orbit p2_0 index 2")
    for j in range(m - 1):
        lines.append(f"incidence {sads[j]} {mins[j]} {alphas[j]}")
        lines.append(f"incidence {sads[j]} {mins[j + 1]} {-alphas[j + 1]}")
    torsion = seifert_torsion(alphas)
    h0 = "homology 0 1" + (" " + ",".join(map(str, torsion)) if torsion else "")
    stdout = f"porcelain 1\n{h0}\nhomology 1 {2 * genus}\nhomology 2 1\n"
    pairs = ",".join(f"{_coprime_beta(rng, a)}/{a}" for a in alphas)
    text = "\n".join(lines) + "\n"
    return Case(
        case_id,
        ["--porcelain", "homology", "{path}"],
        text,
        0,
        stdout,
        {"fibers": m, "genus": genus, "bytes": len(text)},
        seifert=f"{genus};{pairs}",
    )


# ------------------------------------------------- conjugated complexes


def _divisor_chain(rng: random.Random, rank: int) -> list[int]:
    """Mostly ones, then a short divisibility chain of small torsion."""
    chain = [1] * rank
    value = 1
    for i in range(rank - rng.randint(0, min(3, rank)), rank):
        value *= rng.choice((2, 2, 3, 5))
        chain[i] = value
    return chain


def normal_form(rng: random.Random, ranks: list[int]):
    """Boundaries in normal form and the homology records they give.

    C_k splits into rho_k generators mapped onto multiples of targets in
    C_(k-1), beta_k free cycles, and rho_(k+1) targets of d_(k+1); then
    d_k . d_(k+1) = 0 because d_k vanishes on the targets.  Every rho_k is at
    least one, so all boundaries are nonzero.
    """
    n = len(ranks)
    rho = [0] * (n + 1)
    for k in range(1, n):
        # C_(k-1) holds the targets of d_k, and below the top C_k keeps one
        # generator for the targets of d_(k+1)
        room = min(ranks[k - 1] - rho[k - 1], ranks[k] - (k < n - 1))
        rho[k] = rng.randint(max(1, room // 3), max(1, 2 * room // 3))
    divisors = [_divisor_chain(rng, rho[k]) if 1 <= k < n else [] for k in range(n + 1)]
    boundaries = []
    for k in range(1, n):
        rows, cols = ranks[k - 1], ranks[k]
        d = [[0] * cols for _ in range(rows)]
        # C_k = [sources of d_k | free | targets of d_(k+1)]
        for i, e in enumerate(divisors[k]):
            d[ranks[k - 1] - rho[k] + i][i] = e
        boundaries.append(d)
    records = []
    for k in range(n):
        betti = ranks[k] - rho[k] - rho[k + 1]
        torsion = [e for e in divisors[k + 1] if e > 1]
        records.append(
            f"homology {k} {betti}" + (" " + ",".join(map(str, torsion)) if torsion else "")
        )
    return boundaries, records


def conjugate(rng: random.Random, ranks: list[int], boundaries, ops_per_generator: float) -> None:
    """Change basis in every degree by random elementary operations, in place.

    An operation E = I + f e_ij on C_k turns d_(k+1) into E d_(k+1) (row i
    += f row j) and d_k into d_k E^-1 (column j -= f column i), so every
    product d_k . d_(k+1) and the homology are unchanged.
    """
    n = len(ranks)
    for k in range(n):
        r = ranks[k]
        if r < 2:
            continue
        below = boundaries[k - 1] if k >= 1 else None  # d_k, columns are C_k
        above = boundaries[k] if k < n - 1 else None  # d_(k+1), rows are C_k
        for _ in range(int(ops_per_generator * r)):
            i, j = rng.sample(range(r), 2)
            f = rng.choice((-1, 1, -1, 1, -2, 2))
            if above is not None:
                ri, rj = above[i], above[j]
                for c, x in enumerate(rj):
                    if x:
                        ri[c] += f * x
            if below is not None:
                for row in below:
                    x = row[i]
                    if x:
                        row[j] -= f * x


def shuffled_ids(prefix: str, ranks: list[int], rng: random.Random) -> list[list[str]]:
    """Orbit ids per degree, shuffled so the stored order is random."""
    ids = []
    for k, r in enumerate(ranks):
        perm = list(range(r))
        rng.shuffle(perm)
        ids.append([f"{prefix}x{k}_{p:02d}" for p in perm])
    return ids


def orbit_lines(ids) -> list[str]:
    return [f"orbit {oid} index {k}" for k, level in enumerate(ids) for oid in level]


def incidence_lines(ids, boundaries) -> list[str]:
    lines = []
    for k in range(1, len(ids)):
        for i, row in enumerate(boundaries[k - 1]):
            for j, c in enumerate(row):
                if c:
                    lines.append(f"incidence {ids[k][j]} {ids[k - 1][i]} {c}")
    return lines


def conjugated_case(rng: random.Random, case_id: int, per_index: int) -> Case:
    dim = 4 + case_id % 2
    ranks = [per_index] * dim
    boundaries, records = normal_form(rng, ranks)
    conjugate(rng, ranks, boundaries, 2.5)
    ids = shuffled_ids("", ranks, rng)
    incidences = incidence_lines(ids, boundaries)
    orbits = orbit_lines(ids)
    text = "\n".join(["format nmsflow 1", f"dim {dim}", *orbits, *incidences]) + "\n"
    return Case(
        case_id,
        ["--porcelain", "homology", "{path}"],
        text,
        0,
        "porcelain 1\n" + "".join(r + "\n" for r in records),
        {"orbits": sum(ranks), "incidences": len(incidences), "bytes": len(text)},
    )


# ------------------------------------------------ block-sparse validate


def _product(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def validate_case(rng: random.Random, case_id: int, orbits_total: int, defect: str | None) -> Case:
    """A disjoint union of small conjugated blocks, with at most one defect.

    With no defect the expected result is ``valid``.  Each defect kind adds
    or alters exactly one incidence in one block and expects the violation
    records nmshom's validation order gives for it.
    """
    dim = 4
    # Each run of four blocks gives every index each of BLOCK_RANKS once, so
    # the per-index totals, and with them the dense shapes, depend on the
    # size alone and not on the seed.
    order = list(BLOCK_RANKS)
    rng.shuffle(order)
    count = 4 * max(1, round(orbits_total / (4 * sum(BLOCK_RANKS))))
    blocks = []
    for b in range(count):
        ranks = [order[(b + k) % 4] for k in range(dim)]
        boundaries, _ = normal_form(rng, ranks)
        conjugate(rng, ranks, boundaries, 2.0)
        blocks.append((ranks, boundaries))
    total = count * sum(BLOCK_RANKS)
    width = len(str(len(blocks)))
    texts = []
    ids_of = []
    for b, (ranks, boundaries) in enumerate(blocks):
        ids = shuffled_ids(f"b{b:0{width}d}", ranks, rng)
        ids_of.append(ids)
        texts.append((orbit_lines(ids), incidence_lines(ids, boundaries)))

    violations: list[str] = []
    if defect is not None:
        b = rng.randrange(len(blocks))
        ranks, boundaries = blocks[b]
        ids = ids_of[b]
        orbits, incidences = texts[b]
        if defect == "nonzero-boundary-square":
            violations = _plant_square_defect(rng, ranks, boundaries, ids)
            incidences[:] = incidence_lines(ids, boundaries)
        elif defect == "equal-index-incidence":
            k = rng.randrange(dim)
            upper, lower = rng.sample(ids[k], 2)
            incidences.insert(rng.randint(0, len(incidences)), f"incidence {upper} {lower} 1")
            violations = [f"violation equal-index-incidence {upper} {lower}"]
        elif defect == "non-adjacent-incidence":
            k = rng.randrange(dim - 2)
            upper, lower = rng.choice(ids[k + 2]), rng.choice(ids[k])
            incidences.insert(rng.randint(0, len(incidences)), f"incidence {upper} {lower} -1")
            violations = [f"violation non-adjacent-incidence {upper} {lower}"]
        elif defect == "unknown-orbit":
            ghost = f"ghost_{case_id}"
            k = rng.randrange(1, dim)
            incidences.insert(
                rng.randint(0, len(incidences)), f"incidence {rng.choice(ids[k])} {ghost} 2"
            )
            violations = [f"violation unknown-orbit {ghost}"]
        else:  # duplicate-incidence
            line = rng.choice(incidences)
            _, upper, lower, coefficient = line.split()
            incidences.insert(
                rng.randint(0, len(incidences)),
                f"incidence {upper} {lower} {int(coefficient) + rng.choice((-1, 1)) * 3}",
            )
            violations = [f"violation duplicate-incidence {upper} {lower}"]

    lines = ["format nmsflow 1", f"dim {dim}"]
    for orbits, _ in texts:
        lines += orbits
    for _, incidences in texts:
        lines += incidences
    text = "\n".join(lines) + "\n"
    if violations:
        exit_code, stdout = 1, "porcelain 1\n" + "".join(v + "\n" for v in violations)
    else:
        exit_code, stdout = 0, "porcelain 1\nvalid\n"
    return Case(
        case_id,
        ["--porcelain", "validate", "{path}"],
        text,
        exit_code,
        stdout,
        {"orbits": total, "blocks": len(blocks), "bytes": len(text), "defect": defect or ""},
    )


def _plant_square_defect(rng: random.Random, ranks, boundaries, ids) -> list[str]:
    """Change one entry so some d_k . d_(k+1) turns nonzero; return its records.

    Records follow the check's order: by k, then target, then source, with
    labels in sorted id order, which the zero-padded ids make plain string
    order.
    """
    n = len(ranks)
    while True:
        k = rng.randrange(1, n)  # perturb d_k
        d = boundaries[k - 1]
        i, j = rng.randrange(ranks[k - 1]), rng.randrange(ranks[k])
        lower_hits = k >= 2 and any(row[i] for row in boundaries[k - 2])
        upper_hits = k <= n - 2 and any(boundaries[k][j])
        if lower_hits or upper_hits:
            break
    delta = rng.choice((-1, 1, 2))
    if d[i][j] + delta == 0:
        delta = -delta
    d[i][j] += delta
    found = []
    for kk in range(1, n - 1):
        product = _product(boundaries[kk - 1], boundaries[kk])
        for r, row in enumerate(product):
            for c, value in enumerate(row):
                if value:
                    target, source = ids[kk - 1][r], ids[kk + 1][c]
                    found.append((kk, target, source, value))
    found.sort()
    return [f"violation nonzero-boundary-square {s} {t} {v}" for _, t, s, v in found]


# --------------------------------------------------------- Smith witness


def snf_case(rng: random.Random, case_id: int, n: int) -> Case:
    """U.D.V for a known divisor chain D, some rectangular, some rank-deficient."""
    rows = n
    cols = n if rng.random() < 0.5 else rng.randint(max(2, n - 12), n + 12)
    rank = max(1, min(rows, cols) - (rng.randint(1, 6) if rng.random() < 0.5 else 0))
    chain = _divisor_chain(rng, rank)
    a = [[0] * cols for _ in range(rows)]
    for i, e in enumerate(chain):
        a[i][i] = e
    # row operations are U, column operations are V; both unimodular
    for _ in range(4 * rows):
        i, j = rng.sample(range(rows), 2)
        f = rng.choice((-1, 1, 2, -2))
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    for _ in range(4 * cols):
        i, j = rng.sample(range(cols), 2)
        f = rng.choice((-1, 1, 2, -2))
        for row in a:
            row[i] += f * row[j]
    text = f"rows {rows} cols {cols}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in a
    )
    return Case(
        case_id,
        ["--porcelain", "snf", "--witness", "{path}"],
        text,
        0,
        "porcelain 1\nsnf " + " ".join(map(str, chain)) + "\n",
        {"rows": rows, "cols": cols, "rank": rank, "bytes": len(text)},
        divisors=chain,
    )


# ---------------------------------------------------------------- pools


def make_pool(workload: str, seed: int, count: int, lo: int, hi: int) -> list[Case]:
    """``count`` cases of a workload; sizes from :func:`ladder`, contents from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = ladder(count, lo, hi)
    if workload == "seifert-torsion":
        return [seifert_case(rng, i, m) for i, m in enumerate(sizes)]
    if workload == "conjugated-homology":
        return [conjugated_case(rng, i, s) for i, s in enumerate(sizes)]
    if workload == "validate-large":
        cases = []
        for i, s in enumerate(sizes):
            defect = DEFECT_KINDS[(i // 5) % len(DEFECT_KINDS)] if i % 5 == 2 else None
            cases.append(validate_case(rng, i, s, defect))
        return cases
    if workload == "snf-witness":
        return [snf_case(rng, i, n) for i, n in enumerate(sizes)]
    raise ValueError(f"unknown workload {workload!r}")
