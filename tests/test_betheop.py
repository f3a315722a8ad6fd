"""The twisted quadratic family: assembly, identities, and gradings."""

import random
from fractions import Fraction

import pytest

from bethe_gl2 import gl2rep
from bethe_gl2.betheop import (KMatrix, apply_bethe_symbolic,
                               b2_coefficients_via_products, bethe_b2_series,
                               bethe_coefficient, commutativity_check,
                               irrep_bethe_image, nilp_formula_check,
                               u_reconstruction_check, universal_operator)
from bethe_gl2.errors import InternalConsistencyError
from bethe_gl2.gl2rep import SymbolicVector, WeightLabel, syt_count
from bethe_gl2.linalg import Matrix, charpoly
from bethe_gl2.unipoly import UniPoly, laurent_at_infinity

from conftest import module_for


def test_single_site_series():
    m = module_for([0])
    twisted = bethe_b2_series(m, KMatrix.nilpotent())
    assert twisted.residues[0] == m.site_matrix(2, 1, 0)
    plain = bethe_b2_series(m, KMatrix.zero())
    assert plain.residues[0].is_zero()


def test_twist_difference_is_lowering_series():
    m = module_for([0, 1, 2])
    twisted = bethe_b2_series(m, KMatrix.nilpotent())
    plain = bethe_b2_series(m, KMatrix.zero())
    for s in range(3):
        assert twisted.residues[s] - plain.residues[s] == \
            m.site_matrix(2, 1, s)


def test_universal_operator_examples():
    m1 = module_for([0])
    op = universal_operator(m1, KMatrix.nilpotent())
    assert op.w_poly == UniPoly([0, 1])
    assert op.u == [m1.site_matrix(2, 1, 0)]

    m2 = module_for([0, 1])
    op2 = universal_operator(m2, KMatrix.nilpotent())
    assert op2.u[0] == m2.generator_matrix(2, 1, 0)
    assert universal_operator(m2, KMatrix.zero()).u[0].is_zero()


def test_bethe_coefficient_examples():
    m = module_for([0, 1])
    assert bethe_coefficient(m, 1, 1, KMatrix.zero()) == \
        -2 * Matrix.identity(4)
    assert bethe_coefficient(m, 2, 1, KMatrix.nilpotent()) == \
        m.generator_matrix(2, 1, 0)
    assert bethe_coefficient(m, 2, 1, KMatrix.zero()).is_zero()
    assert bethe_coefficient(m, 2, 0, KMatrix.zero()).is_zero()


def test_series_product_crosscheck():
    for points in ([0, 1], [0, 1, 2],
                   [Fraction(-3, 2), Fraction(1, 3), 2, 7]):
        m = module_for(points)
        for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
            op = universal_operator(m, kmat)
            products = b2_coefficients_via_products(m, kmat, 2 * m.n + 3)
            for j, expected in products.items():
                assert op.bethe_coefficient(2, j) == expected


@pytest.mark.parametrize("corruption", [
    {(2, 2): (0, 0)},
    {(1, 2): (0, 1), (2, 1): (1, 0)},
])
def test_corrupted_site_action_fires_double_pole_check(monkeypatch,
                                                       corruption):
    for key, action in corruption.items():
        monkeypatch.setitem(gl2rep._SITE_ACTION, key, action)
    for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
        fresh = gl2rep.EvalModule(3, [0, 1, 2])
        with pytest.raises(InternalConsistencyError, match="double-pole"):
            bethe_b2_series(fresh, kmat)


def test_laurent_extraction_crosscheck():
    m = module_for([0, 1, 2])
    op = universal_operator(m, KMatrix.nilpotent())
    series = laurent_at_infinity(op.u_polynomial(), op.w_poly, 6)
    for j, value in enumerate(series, start=1):
        if not isinstance(value, Matrix):
            value = Matrix.zeros(m.dim, m.dim)
        assert value == op.bethe_coefficient(2, j)


def test_u_reconstruction():
    for points in ([0, 1], [0, 1, 2]):
        m = module_for(points)
        for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
            assert u_reconstruction_check(
                universal_operator(m, kmat))["pass"]


def test_commutativity_small_modules():
    rng = random.Random(17)
    for n in (1, 2, 3):
        points = rng.sample(range(-6, 7), n)
        m = module_for(points)
        for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
            assert commutativity_check(m, kmat, 2 * n)["pass"]


def test_nilp_formula():
    for points in ([0], [0, 1], [0, 1, 2]):
        assert nilp_formula_check(module_for(points),
                                  2 * len(points))["pass"]


def test_twisted_and_plain_share_charpoly():
    for points in ([0, 1, 2], [0, 1, 2, 3]):
        m = module_for(points)
        twisted = universal_operator(m, KMatrix.nilpotent())
        plain = universal_operator(m, KMatrix.zero())
        for j in (2, 3):
            assert charpoly(twisted.bethe_coefficient(2, j)) == \
                charpoly(plain.bethe_coefficient(2, j))


def test_plain_quadratic_eigenvalues_are_central_characters():
    m = module_for([0, 1, 2, 3])
    b22 = universal_operator(m, KMatrix.zero()).bethe_coefficient(2, 2)
    poly = charpoly(b22)
    n = m.n
    expected = UniPoly([Fraction(1)])
    for k in range(n // 2 + 1):
        lam = Fraction(k * (n - k + 1))
        mult = (n - 2 * k + 1) * syt_count(WeightLabel(n - k, k))
        expected = expected * UniPoly([-lam, Fraction(1)]) ** mult
    assert poly == expected


def test_plain_coefficients_preserve_weight():
    m = module_for([0, 1, 2])
    op = universal_operator(m, KMatrix.zero())
    for j in range(1, 6):
        mat = op.bethe_coefficient(2, j)
        for row in range(m.dim):
            for col in range(m.dim):
                if mat.data[row][col] != 0:
                    assert m.basis[row].bit_count() == \
                        m.basis[col].bit_count()


def test_symbolic_degree_of_generators():
    # B_ij acting through current products raises degree by exactly j - i
    v = SymbolicVector(2, {(0b01, (1, 0)): 1, (0b10, (0, 1)): -1})
    base = v.degrees().pop()
    for kmat in (KMatrix.zero(), KMatrix.nilpotent()):
        for i in (1, 2):
            for j in range(1, 5):
                image = apply_bethe_symbolic(i, j, kmat, v)
                if image.is_zero():
                    continue
                assert image.degrees() == {base + j - i}


def test_symbolic_matches_matrix_action():
    # specializing z_s -> b_s turns the symbolic action into the module one
    m = module_for([0, 1])
    kmat = KMatrix.nilpotent()
    for j in range(1, 5):
        matrix = bethe_coefficient(m, 2, j, kmat)
        for col, mask in enumerate(m.basis):
            image = apply_bethe_symbolic(
                1 if False else 2, j, kmat,
                SymbolicVector.basis_vector(2, mask))
            vec = [Fraction(0)] * m.dim
            for (out_mask, mono), c in image.terms.items():
                value = c
                for site, power in enumerate(mono):
                    value *= m.points[site] ** power
                vec[m.position[out_mask]] += value
            assert vec == matrix.column(col)


def test_irrep_minimal_polynomials():
    assert irrep_bethe_image(WeightLabel(2, 0)) == UniPoly.monomial(3)
    assert irrep_bethe_image(WeightLabel(1, 1)) == UniPoly.monomial(1)
    assert irrep_bethe_image(WeightLabel(3, 1)) == UniPoly.monomial(3)
