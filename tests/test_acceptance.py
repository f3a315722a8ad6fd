"""Acceptance criteria, one test per criterion, at the published parameters.

Each test prints a PASS/FAIL line.  Criterion 12 is implemented faithfully
and is expected to fail on its final sub-check: the literal b-free property
of the Wronskian image is unattainable once the nilpotent tails interact
(see notes/decisions.md); the attainable parts of criterion 12 are asserted
separately and pass.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest

from bethe_gl2.betheop import (KMatrix, bethe_b2_series, commutativity_check,
                               irrep_bethe_image, nilp_formula_check,
                               universal_operator)
from bethe_gl2.correspondence import eta_matches_leaf, \
    regular_representation_check
from bethe_gl2.errors import GenericityError
from bethe_gl2.gl2rep import (EvalModule, WeightLabel,
                              brute_isotypical_character,
                              char_isotypical_closed, syt_count)
from bethe_gl2.olambda import (character_nilpotent_ring, character_olambda,
                               eliminate)
from bethe_gl2.spectral import leaf_from_polynomials
from bethe_gl2.suites import RunConfig, certificate_bytes, random_points, \
    run_suite
from bethe_gl2.unipoly import UniPoly
from bethe_gl2.multipoly import MultiPoly
from bethe_gl2.nilpotent import NilpotentElement

from conftest import blocks_for, leaves_for, olambda_for, sing_mats_for

ELIMINATION_PAIRS = ((0, 1), (1, 1), (0, 2), (2, 1), (1, 2))


def report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status}{' ' + extra if extra else ''}")
    return ok


def _point_sets(n, count=3, seed=20):
    rng = random.Random(seed + n)
    return [random_points(rng, n) for _ in range(count)]


def test_criterion_01_commutativity():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        for points in _point_sets(n):
            module = EvalModule(n, points)
            for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
                result = commutativity_check(module, kmat, 2 * n)
                ok = ok and result["pass"]
    elapsed = time.monotonic() - start
    assert report(1, "commutativity", ok and elapsed < 60,
                  f"({elapsed:.1f}s)")


def test_criterion_02_gl2_commutation():
    ok = True
    for n in (1, 2, 3, 4):
        for points in _point_sets(n):
            module = EvalModule(n, points)
            op = universal_operator(module, KMatrix.zero())
            for j in range(1, 2 * n + 1):
                coeff = op.bethe_coefficient(2, j)
                for (a, b) in ((1, 1), (1, 2), (2, 1), (2, 2)):
                    gen = module.generator_matrix(a, b, 0)
                    ok = ok and (coeff * gen - gen * coeff).is_zero()
    assert report(2, "gl2 commutation", ok)


def test_criterion_03_twist_difference():
    ok = True
    for n in (1, 2, 3, 4):
        for points in _point_sets(n):
            module = EvalModule(n, points)
            ok = ok and nilp_formula_check(module, 2 * n)["pass"]
    assert report(3, "twist difference formula", ok)


def test_criterion_04_u1_and_double_poles():
    ok = True
    for n in (1, 2, 3, 4):
        for points in _point_sets(n):
            module = EvalModule(n, points)
            # assembly raises if a double-pole residue survives
            bethe_b2_series(module, KMatrix.zero())
            bethe_b2_series(module, KMatrix.nilpotent())
            twisted = universal_operator(module, KMatrix.nilpotent())
            plain = universal_operator(module, KMatrix.zero())
            ok = ok and twisted.u[0] == module.generator_matrix(2, 1, 0)
            ok = ok and plain.u[0].is_zero()
    assert report(4, "top numerator coefficient", ok)


def test_criterion_05_block_decomposition():
    start = time.monotonic()
    ok = True
    for n in range(1, 7):
        blocks = blocks_for(list(range(n)))
        total = 0
        for block in blocks:
            expected = (block.weight.d + 1) * syt_count(block.weight)
            ok = ok and block.dim == expected
            total += block.dim
        ok = ok and total == 2 ** n
    elapsed = time.monotonic() - start
    assert report(5, "block decomposition (n <= 6)", ok and elapsed < 300,
                  f"({elapsed:.1f}s)")


def test_criterion_06_leaf_decomposition():
    ok = True
    worst = mpmath.mpf(0)
    point_sets = [list(range(n)) for n in range(1, 6)]
    point_sets.append([Fraction(1, 2), Fraction(-1, 3), Fraction(2)])
    for points in point_sets:
        for index, block in enumerate(blocks_for(points)):
            pairs = leaves_for(points, index)
            ok = ok and len(pairs) == syt_count(block.weight)
            for leaf, _ in pairs:
                ok = ok and leaf.dim == block.weight.d + 1
                resid = leaf.nilpotency_residual
                worst = max(worst, resid)
                ok = ok and resid < mpmath.mpf(2) ** (-64)
    assert report(6, "leaf decomposition (n <= 5)", ok,
                  f"(worst residual {mpmath.nstr(worst, 3)})")


def test_criterion_07_leaf_operator_structure():
    ok = True
    for n in range(1, 6):
        points = list(range(n))
        for index, block in enumerate(blocks_for(points)):
            for leaf, op in leaves_for(points, index):
                expected_u1 = [Fraction(0), Fraction(1)] + \
                    [Fraction(0)] * (leaf.dim - 2)
                ok = ok and op.coeffs[0] == expected_u1[:leaf.dim]
                ok = ok and op.residual < mpmath.mpf(2) ** (-40)
                if n >= 2:
                    c20 = op.coeffs[1][0]
                    expected = Fraction(
                        block.weight.k * (n - block.weight.k + 1))
                    ok = ok and isinstance(c20, Fraction) and c20 == expected
    assert report(7, "leaf operator structure (n <= 5)", ok)


def test_criterion_08_elimination():
    start = time.monotonic()
    ok = True
    for (k, d) in ELIMINATION_PAIRS:
        result = eliminate(k, d)   # internal substitution-zero verification
        for i in range(1, d + 1):
            ok = ok and result.phi[i].b_valuation() >= i
            ok = ok and result.psi[i].b_valuation() >= i
    # the (0,1) values equal the hand oracle
    result = eliminate(0, 1)
    vars_ = ("g1",)
    phi_expected = NilpotentElement(1, [MultiPoly(vars_),
                                        MultiPoly.const(vars_, 1)])
    psi_expected = NilpotentElement(1, [MultiPoly(vars_),
                                        MultiPoly.const(vars_, Fraction(-1, 3))])
    ok = ok and result.phi[1] == phi_expected
    ok = ok and result.psi[1] == psi_expected
    # golden files match byte for byte
    from bethe_gl2.cli import main
    for (k, d) in ELIMINATION_PAIRS:
        ok = ok and main(["golden", "--k", str(k), "--d", str(d)]) == 0
    elapsed = time.monotonic() - start
    assert report(8, "tail elimination", ok and elapsed < 120,
                  f"({elapsed:.1f}s)")


def test_criterion_09_operator_coefficients():
    ok = True
    for (k, d) in ELIMINATION_PAIRS:
        # degree, residue, annihilation and homogeneity assertions all run
        # inside; any violation raises
        olambda_for(k, d)
    assert report(9, "operator coefficients of the quotient algebra", ok)


def test_criterion_10_characters():
    ok = True
    for n in range(1, 6):
        for k in range(n // 2 + 1):
            ok = ok and brute_isotypical_character(n, k, 10) == \
                char_isotypical_closed(n, k, 10)
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            d = n - 2 * k
            full, b_free = character_olambda(k, d, 20)
            ok = ok and full == character_nilpotent_ring(d, 20) * b_free
            ok = ok and full == char_isotypical_closed(n, k, 20)
    assert report(10, "character formulas", ok)


def test_criterion_11_dimension_identity():
    ok = True
    for n in range(1, 7):
        for block in blocks_for(list(range(n))):
            expected = (block.weight.d + 1) * syt_count(block.weight)
            ok = ok and block.dim == expected
    assert report(11, "dimension identity (n <= 6)", ok)


def _eta_reports():
    out = []
    for n in range(1, 5):
        points = list(range(n))
        for index, block in enumerate(blocks_for(points)):
            k, d = block.weight.k, block.weight.d
            data = olambda_for(k, d, n + 2)
            for leaf, op in leaves_for(points, index):
                out.append(((n, block.weight.lam1, block.weight.lam2),
                            eta_matches_leaf(op, data, precision=128)))
    return out


def test_criterion_12_eta_matching_attainable_parts():
    reports = _eta_reports()
    ok = all(rep["pass"] for _, rep in reports)
    failures = [(label, rep["failures"]) for label, rep in reports
                if not rep["pass"]]
    assert report(12, "eta matching (without literal b-free Wronskian)", ok,
                  str(failures) if failures else "")


@pytest.mark.xfail(
    reason="This criterion FAILS as stated: the Wronskian image of a leaf "
           "homomorphism is b-free only when the nilpotent tails cannot "
           "interact (d = 0, or k = 0 with d = 1); otherwise its leading "
           "unit picks up forced nilpotent corrections, and no assignment "
           "with the prescribed monic normalizations avoids them.  The "
           "unit-normalized Wronskian is a plain polynomial on every leaf "
           "(asserted in criterion 12's attainable part).",
    strict=True)
def test_criterion_12_literal_specialness():
    reports = _eta_reports()
    ok = all(rep["literal_specialness"] for _, rep in reports)
    failing = [label for label, rep in reports
               if not rep["literal_specialness"]]
    report(12, "eta matching (literal b-free Wronskian image)", ok,
           f"fails at {failing}" if failing else "")
    assert ok, f"literal b-free Wronskian fails for leaves {failing}"


def test_criterion_13_regular_representation():
    ok = True
    for n in range(1, 5):
        points = list(range(n))
        rep = regular_representation_check(blocks_for(points),
                                           sing_mats_for(points), seed=6)
        ok = ok and rep["pass"]
    assert report(13, "regular representation consequences (n <= 4)", ok)


def test_criterion_14_minimal_polynomials():
    ok = True
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            weight = WeightLabel(n - k, k)
            poly = irrep_bethe_image(weight)
            ok = ok and poly == UniPoly.monomial(n - 2 * k + 1)
    assert report(14, "lowering-generator minimal polynomials (n <= 8)", ok)


def test_criterion_15_roundtrip():
    # Ten seeded generic pairs per shape; draws rejected by the genericity
    # preconditions (degenerate or complex-rooted Wronskians) are resampled
    # within the 20-per-pair retry budget, while a match count other than
    # one on an admissible pair fails the criterion outright.
    from bethe_gl2.errors import MatchCountError
    ok = True
    details = []
    for n in range(1, 5):
        for k in range(n // 2 + 1):
            rng = random.Random(1000 + 10 * n + k)
            found = 0
            draws = 0
            mismatches = 0
            while found < 10 and draws < 200:
                draws += 1
                f0 = UniPoly([Fraction(rng.randint(-5, 5))
                              for _ in range(k)] + [Fraction(1)])
                g0 = UniPoly([Fraction(rng.randint(-5, 5))
                              for _ in range(n - k + 1)] + [Fraction(1)])
                try:
                    result = leaf_from_polynomials(f0, g0, 128)
                except MatchCountError:
                    mismatches += 1
                    continue
                except GenericityError:
                    continue
                found += 1
                ok = ok and result.match_count == 1
            details.append((n, k, found, mismatches))
            ok = ok and found == 10 and mismatches == 0
    assert report(15, "roundtrip uniqueness (10 pairs per (n,k), n <= 4)",
                  ok, str(details) if not ok else "")


def test_criterion_16_determinism(tmp_path):
    cfg = RunConfig(suite="all", max_n=3, seed=11)
    blobs = [certificate_bytes(run_suite(cfg)) for _ in range(2)]
    ok = blobs[0] == blobs[1]
    assert report(16, "certificate determinism", ok)
