"""Acceptance gate: one test per criterion, one PASS/FAIL line per test.

Verdict lines are printed immediately (visible with -s) and replayed after
the run by the conftest terminal-summary hook.  Timing limits that are part
of a criterion are asserted with the stated bound.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from nmshom import (
    FlowComplex,
    HomologyGroup,
    Incidence,
    IntegerMatrix,
    Orbit,
    SeifertInvariant,
    ValidationError,
    elementary_divisors,
    format_matrix,
    parse_flow_complex,
    parse_invariant,
    seifert_equivalent,
    smith_normal_form,
)

import conftest
from oracles import is_unimodular, minors_gcd, multiply
from randgen import random_invariant, random_matrix, random_zero_square_flow


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    conftest.record_verdict(line)
    return ok


def _snf_corpus(count=1000):
    """The shared random-matrix corpus for criteria 4 and 5."""
    rng = random.Random(20204)
    corpus = [random_matrix(rng, max_rows=4, max_cols=4, low=-9, high=9) for _ in range(count)]
    corpus.append(IntegerMatrix.zeros(0, 0))
    corpus.append(IntegerMatrix.zeros(0, 4))
    corpus.append(IntegerMatrix.zeros(4, 0))
    return corpus


def _criterion3_invariants(count=200):
    rng = random.Random(20203)
    return [random_invariant(rng, min_pairs=2, max_pairs=6, max_alpha=12) for _ in range(count)]


def test_criterion_01_coprime_family_matches_surface_homology():
    ok = True
    worst = 0.0
    for genus in range(4):
        started = time.perf_counter()
        invariant = parse_invariant(f"{genus};1/2,1/3,1/5")
        expected = [HomologyGroup(0, 1), HomologyGroup(1, 2 * genus), HomologyGroup(2, 1)]
        closed = invariant.homology_closed_form()
        piped = invariant.to_flow_complex().to_chain_complex().homology()
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        ok = ok and closed == expected and piped == expected and elapsed < 1.0
    assert _verdict(
        "criterion 1: genus 0..3 with fibers 1/2,1/3,1/5 gives H of the genus-g surface",
        ok,
        f"both pipelines, worst member {worst:.3f}s",
    )


def test_criterion_02_boundary_matrix_bytes():
    complex_ = parse_invariant("0;1/2,1/3,1/5").to_flow_complex().to_chain_complex()
    produced = complex_.boundary(1)
    expected = IntegerMatrix.from_rows([[2, 0], [-3, 3], [0, -5]])
    ok = produced == expected and format_matrix(produced) == format_matrix(expected)
    assert _verdict(
        "criterion 2: boundary matrix of 0;1/2,1/3,1/5 is [[2,0],[-3,3],[0,-5]] byte for byte",
        ok,
    )


def test_criterion_03_divisor_count_is_fiber_count_minus_one():
    started = time.perf_counter()
    ok = True
    for invariant in _criterion3_invariants():
        complex_ = invariant.to_flow_complex().to_chain_complex()
        divisors = elementary_divisors(complex_.boundary(1))
        ok = ok and len(divisors) == len(invariant.pairs) - 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    assert _verdict(
        "criterion 3: 200 random invariant lists have exactly m-1 elementary divisors",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_04_smith_prefix_products_match_minors_gcd():
    started = time.perf_counter()
    corpus = _snf_corpus()
    ok = len(corpus) >= 1000
    for m in corpus:
        divisors = elementary_divisors(m)
        product = 1
        for k, d in enumerate(divisors, start=1):
            product *= d
            if product != minors_gcd(m, k):
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    assert _verdict(
        "criterion 4: Smith prefix products equal gcd of k x k minors on 1000+ matrices",
        ok,
        f"{len(corpus)} matrices, {elapsed:.2f}s",
    )


def test_criterion_05_witnesses_multiply_back_and_are_unimodular():
    ok = True
    for m in _snf_corpus():
        dec = smith_normal_form(m)
        if dec.s != multiply(multiply(dec.u, m), dec.v):
            ok = False
        if not (is_unimodular(dec.u) and is_unimodular(dec.v)):
            ok = False
    assert _verdict(
        "criterion 5: s = u m v with unimodular u, v on the same corpus",
        ok,
    )


def test_criterion_06_euler_poincare_identity():
    ok = True

    def check(complex_):
        betti_sum = sum(
            g.betti if g.degree % 2 == 0 else -g.betti for g in complex_.homology()
        )
        return complex_.euler_characteristic() == betti_sum

    seifert_inputs = [parse_invariant(f"{g};1/2,1/3,1/5") for g in range(4)]
    seifert_inputs.extend(_criterion3_invariants())
    for invariant in seifert_inputs:
        complex_ = invariant.to_flow_complex().to_chain_complex()
        ok = ok and check(complex_)
        ok = ok and complex_.euler_characteristic() == 2 - 2 * invariant.genus

    rng = random.Random(20206)
    for _ in range(100):
        ok = ok and check(random_zero_square_flow(rng).to_chain_complex())

    assert _verdict(
        "criterion 6: Euler characteristic equals alternating betti sum (2-2g for fibrations)",
        ok,
    )


def test_criterion_07_torsion_cases():
    cases = [
        ("0;1/2,1/4", HomologyGroup(0, 1, (2,))),
        ("0;1/6,1/10,1/15", HomologyGroup(0, 1, (30,))),
        ("0;1/2,1/2", HomologyGroup(0, 1, (2,))),
    ]
    ok = True
    for text, expected in cases:
        invariant = parse_invariant(text)
        closed = invariant.homology_closed_form()[0]
        piped = invariant.to_flow_complex().to_chain_complex().homology()[0]
        ok = ok and closed == expected and piped == expected
    assert _verdict(
        "criterion 7: torsion H_0 is Z+Z/2, Z+Z/30, Z+Z/2 for the three fixed cases",
        ok,
    )


def _mutate_equivalent(rng, invariant):
    pairs = list(invariant.pairs)
    move = rng.randrange(3)
    if move == 0 and len(pairs) >= 2:
        i, j = rng.sample(range(len(pairs)), 2)
        alpha_i, beta_i = pairs[i]
        alpha_j, beta_j = pairs[j]
        pairs[i] = (alpha_i, beta_i + alpha_i)
        pairs[j] = (alpha_j, beta_j - alpha_j)
    elif move == 1:
        insert_at = rng.randrange(len(pairs) + 1)
        pairs.insert(insert_at, (1, 0))
    else:
        rng.shuffle(pairs)
    return SeifertInvariant(invariant.genus, tuple(pairs))


def _mutate_inequivalent(rng, invariant):
    pairs = list(invariant.pairs)
    exceptional = [idx for idx, (alpha, _) in enumerate(pairs) if alpha > 1]
    move = rng.randrange(3)
    if move == 0:
        # shift one beta by its alpha with no compensation: the rational sum moves by 1
        idx = rng.randrange(len(pairs))
        alpha, beta = pairs[idx]
        pairs[idx] = (alpha, beta + alpha)
    elif move == 1 and exceptional:
        # drop a pair with alpha > 1: the multiset of exceptional alphas changes
        del pairs[rng.choice(exceptional)]
        if not pairs:
            pairs.append((1, 0))
    else:
        # append a fresh exceptional alpha absent from the list
        alpha = max((a for a, _ in pairs), default=1) + rng.randint(1, 3)
        pairs.append((alpha, 1))
    return SeifertInvariant(invariant.genus, tuple(pairs))


def test_criterion_08_equivalence_agrees_with_normal_form_on_mutations():
    rng = random.Random(20208)
    ok = True
    for trial in range(500):
        base = random_invariant(rng, min_pairs=1, max_pairs=5, max_alpha=9)
        expect_equivalent = trial % 2 == 0
        if expect_equivalent:
            other = _mutate_equivalent(rng, base)
        else:
            other = _mutate_inequivalent(rng, base)
        decided = seifert_equivalent(base, other)
        normal_forms_match = base.normalized() == other.normalized()
        if decided != expect_equivalent or normal_forms_match != expect_equivalent:
            ok = False
    assert _verdict(
        "criterion 8: equivalence verdicts on 500 mutated pairs match normal-form identity",
        ok,
    )


def test_criterion_09_rejections():
    equal_index = FlowComplex(
        3,
        [Orbit("a", 0), Orbit("b", 1), Orbit("c", 1), Orbit("r", 2)],
        [Incidence("b", "c", 1)],
    )
    report = equal_index.validate()
    found = [v for v in report.violations if v.code == "equal-index-incidence"]
    ok = bool(found)
    if ok:
        message = found[0].message
        ok = "'b'" in message and "'c'" in message and "equal index" in message

    square_text = (
        "format nmsflow 1\ndim 4\n"
        "orbit a index 0\norbit b index 1\norbit c index 2\norbit r index 3\n"
        "incidence c b 1\nincidence b a 1\n"
    )
    try:
        parse_flow_complex(square_text).to_chain_complex()
        ok = False
    except ValidationError as err:
        squares = [v for v in err.report.violations if v.code == "nonzero-boundary-square"]
        ok = ok and bool(squares)
        if squares:
            message = squares[0].message
            ok = ok and "'c'" in message and "'a'" in message and "1" in message

    assert _verdict(
        "criterion 9: equal-index incidence and nonzero d.d are rejected with named culprits",
        ok,
    )


def test_criterion_10_emitted_flow_matches_closed_form_through_the_cli():
    rng = random.Random(20210)
    ok = True
    checked = 0
    for _ in range(50):
        invariant = random_invariant(rng, min_pairs=1, max_pairs=5, max_alpha=9)
        text = str(invariant)
        emitted = subprocess.run(
            [sys.executable, "-m", "nmshom", "seifert", "emit", text],
            capture_output=True,
            text=True,
        )
        piped = subprocess.run(
            [sys.executable, "-m", "nmshom", "--porcelain", "homology", "-"],
            input=emitted.stdout,
            capture_output=True,
            text=True,
        )
        direct = subprocess.run(
            [sys.executable, "-m", "nmshom", "--porcelain", "homology", "--seifert", text],
            capture_output=True,
            text=True,
        )
        if not (emitted.returncode == piped.returncode == direct.returncode == 0):
            ok = False
        if piped.stdout != direct.stdout or not piped.stdout.startswith("porcelain 1\n"):
            ok = False
        checked += 1
    ok = ok and checked == 50
    assert _verdict(
        "criterion 10: emit piped back through homology matches --seifert byte for byte (50 runs)",
        ok,
    )
