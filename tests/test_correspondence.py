"""Kernel pairs, special homomorphisms, eta-matching, and the dimension and
regular-representation consequences of the structural isomorphisms."""

import random
from fractions import Fraction

import pytest

from bethe_gl2 import spectral
from bethe_gl2.correspondence import (construct_solutions,
                                      dimension_identity_check,
                                      eta_matches_leaf,
                                      nu_consistency_check,
                                      regular_representation_check,
                                      solution_wronskian_check,
                                      special_hom_from_solutions,
                                      specialness_check)
from bethe_gl2.errors import IndicialError
from bethe_gl2.linalg import Matrix
from bethe_gl2.nilpotent import NilpotentElement
from bethe_gl2.unipoly import UniPoly

from conftest import (blocks_for, leaves_for, module_for, olambda_for,
                      sing_mats_for)


# -- construct_solutions ----------------------------------------------------

def test_kernel_pair_classical():
    # d=0, k=1: W = u^2 - 1, scalar numerator 2: kernel is (u, u^2 + 1)
    w = UniPoly([-1, 0, 1])
    u1 = NilpotentElement.b(0)
    u2 = NilpotentElement.constant(0, Fraction(2))
    pair = construct_solutions(w, [u1, u2], 1, 0)
    assert pair.exact
    assert pair.f_solution == UniPoly([0, 1]).map_coeffs(
        lambda c: NilpotentElement.constant(0, c)) or \
        [c.coeffs[0] for c in pair.f_solution.coeffs] == [0, 1]
    assert [c.coeffs[0] for c in pair.g_solution.coeffs] == [1, 0, 1]


def test_kernel_pair_k0_d1_hand_oracle():
    # W = u - 2, U = b: F = 1 + b u, G = u^2 - 4u - (b/3) u^3
    w = UniPoly([-2, 1])
    pair = construct_solutions(w, [NilpotentElement.b(1)], 0, 1)
    f = pair.f_solution
    assert [list(c.coeffs) for c in f.coeffs] == [[1, 0], [0, 1]]
    g = pair.g_solution
    assert [list(c.coeffs) for c in g.coeffs] == \
        [[0, 0], [-4, 0], [1, 0], [0, Fraction(-1, 3)]]


def test_kernel_pair_shape_constraints():
    # tails have b-valuation at least their index (spec of the shapes)
    (leaf, op), = leaves_for([0, 1], 0)   # lam=(2,0): k=0, d=2
    pair = construct_solutions(op.w_poly, op.u_elements(), 0, 2)
    assert pair.exact
    for i in (1, 2):
        assert pair.f_solution.coefficient(i).b_valuation() >= i
        assert pair.g_solution.coefficient(3 + i).b_valuation() >= i
    # forced leading coefficients (-1)^j / prod chi(k + m) are asserted
    # inside construct_solutions for exact data


def test_indicial_validation():
    w = UniPoly([-1, 0, 1])
    with pytest.raises(IndicialError):
        construct_solutions(w, [NilpotentElement.b(0),
                                NilpotentElement.constant(0, Fraction(3))],
                            1, 0)
    with pytest.raises(IndicialError):
        construct_solutions(UniPoly([0, 1]), [NilpotentElement.b(0)], 1, 0)


def test_kernel_pair_uniqueness_perturbation():
    # perturbing an admissible coefficient of F breaks the equation
    w = UniPoly([-2, 1])
    pair = construct_solutions(w, [NilpotentElement.b(1)], 0, 1)
    rng = random.Random(4)
    u_poly = UniPoly([NilpotentElement.b(1)])
    for _ in range(3):
        perturbed_coeffs = [c for c in pair.f_solution.coeffs]
        slot = rng.randrange(len(perturbed_coeffs))
        eps = NilpotentElement(1, [Fraction(rng.randint(1, 3)),
                                   Fraction(rng.randint(0, 2))])
        perturbed_coeffs[slot] = perturbed_coeffs[slot] + eps
        perturbed = UniPoly(perturbed_coeffs)
        residual = w * perturbed.derivative().derivative() \
            - w.derivative() * perturbed.derivative() + u_poly * perturbed
        assert not residual.is_zero()


def test_kernel_pair_spans_solutions():
    # Wr(F, G) is an invertible multiple of W, so no further solutions exist
    for points, index in (([0, 1], 0), ([0, 1], 1), ([0, 1, 2], 0)):
        (leaf, op) = leaves_for(points, index)[0]
        k, d = leaf.block.weight.k, leaf.block.weight.d
        pair = construct_solutions(op.w_poly, op.u_elements(), k, d)
        assert solution_wronskian_check(pair, op.w_poly)


# -- special homomorphisms ----------------------------------------------------

def test_special_hom_read_off_classical():
    w = UniPoly([-1, 0, 1])
    pair = construct_solutions(
        w, [NilpotentElement.b(0), NilpotentElement.constant(0, Fraction(2))],
        1, 0)
    hom = special_hom_from_solutions(pair)
    assert hom.values["f0"] == NilpotentElement.constant(0, Fraction(0))
    assert hom.values["g0"] == NilpotentElement.constant(0, Fraction(1))


def test_special_hom_relations_vanish():
    (leaf, op), = leaves_for([0, 1], 0)
    pair = construct_solutions(op.w_poly, op.u_elements(), 0, 2)
    hom = special_hom_from_solutions(pair)   # raises on nonzero relations
    assert hom.exact


def test_specialness_normalized_vs_literal():
    # the unit-normalized Wronskian is always a plain polynomial; the
    # literal b-free property fails once tails interact (d >= 2 here)
    (leaf, op), = leaves_for([0, 1], 0)
    pair = construct_solutions(op.w_poly, op.u_elements(), 0, 2)
    report = specialness_check(pair)
    assert report["normalized_pass"]
    assert not report["literal_pass"]
    # one-dimensional leaf (d = 0) is trivially b-free
    (leaf1, op1), = leaves_for([0, 1], 1)
    pair1 = construct_solutions(op1.w_poly, op1.u_elements(), 1, 0)
    report1 = specialness_check(pair1)
    assert report1["literal_pass"] and report1["normalized_pass"]


def test_hom_is_multiplicative_on_samples():
    # eta(xy) = eta(x) eta(y) for sample normal-form elements
    data = olambda_for(0, 2, order=6)
    (leaf, op), = leaves_for([0, 1], 0)
    pair = construct_solutions(op.w_poly, op.u_elements(), 0, 2)
    hom = special_hom_from_solutions(pair)
    samples = [data.f2[1], data.f1[2], data.sigma_images[0],
               data.sigma_images[1]]
    for x in samples:
        for y in samples:
            left = hom.apply(x * y)
            right = hom.apply(x) * hom.apply(y)
            assert left == right


# -- eta matching --------------------------------------------------------------

def test_eta_matches_exact_leaves_n2():
    data02 = olambda_for(0, 2, order=4)
    data10 = olambda_for(1, 0, order=4)
    (leaf0, op0), = leaves_for([0, 1], 0)
    report = eta_matches_leaf(op0, data02)
    assert report["pass"], report["failures"]
    assert report["exact"]
    (leaf1, op1), = leaves_for([0, 1], 1)
    report = eta_matches_leaf(op1, data10)
    assert report["pass"], report["failures"]
    # sigma images specialize to the elementary symmetric functions (0,1):
    # checked inside; d = 0 leaf also satisfies the literal property
    assert report["literal_specialness"]


def test_eta_matches_numeric_leaves_n3():
    data11 = olambda_for(1, 1, order=5)
    for leaf, op in leaves_for([0, 1, 2], 1):
        report = eta_matches_leaf(op, data11)
        assert report["pass"], report["failures"]
        assert not report["exact"]


def test_eta_sigma_values_singlet_leaf():
    # d = 0 leaf of the two-point module: the second-series image vanishes
    # and the Wronski images specialize to b1+b2 and b1*b2
    data = olambda_for(1, 0, order=4)
    (leaf, op), = leaves_for([0, 1], 1)
    pair = construct_solutions(op.w_poly, op.u_elements(), 1, 0)
    hom = special_hom_from_solutions(pair)
    assert hom.apply(data.f2[0]).is_zero()
    module = module_for([0, 1])
    for s in (1, 2):
        image = hom.apply(data.sigma_images[s - 1])
        assert image == NilpotentElement.constant(
            0, module.elementary_symmetric(s))


def test_eta_f1_side_power_sums():
    # the first-series images are the power sums of the points; this is
    # part of eta_matches_leaf, exercised here at larger expansion order
    data = olambda_for(0, 3, order=6)
    (leaf, op), = leaves_for([0, 1, 2], 0)
    report = eta_matches_leaf(op, data, expansion_order=5)
    assert report["pass"], report["failures"]


# -- dimension identities and regular representation ---------------------------

def test_dimension_identity():
    for n in (2, 4):
        report = dimension_identity_check(blocks_for(list(range(n))))
        assert report["pass"], report["failures"]
    report = dimension_identity_check(blocks_for(list(range(4))))
    table = {tuple(entry["weight"]): entry["dim"]
             for entry in report["details"]}
    assert table[(3, 1)] == 9
    assert table[(2, 2)] == 2


def test_regular_representation_consequences():
    # At [-3, 3] a combination of the U_i without U_1 is not regular on
    # block (2, 0).
    for points in ([0, 1], [0, 1, 2], [-3, 3]):
        report = regular_representation_check(
            blocks_for(points), sing_mats_for(points), seed=3)
        assert report["pass"], report["failures"]


def _squared_nilpotent(gens):
    # U_1^2 still commutes with every U_i but dies one step earlier, so the
    # ideal and filtration sizes read off the Krylov certificate change.
    return [gens[0] * gens[0]] + gens[1:]


def _skewed_u2(gens):
    rows = [list(row) for row in gens[1].data]
    rows[0][-1] += Fraction(1, 7)
    return [gens[0], Matrix(rows)] + gens[2:]


@pytest.mark.parametrize("mutate, markers", [
    (_squared_nilpotent, ("codimension", "filtration")),
    (_skewed_u2, ("do not commute",)),
])
def test_mutated_generators_fail_regular_representation(monkeypatch, mutate,
                                                        markers):
    original = spectral.IsotypicBlock.u_restricted
    monkeypatch.setattr(spectral.IsotypicBlock, "u_restricted",
                        lambda self: mutate(original(self)))
    points = [0, 1, 2]
    report = regular_representation_check(blocks_for(points),
                                          sing_mats_for(points))
    assert report["failures"]
    assert all(any(m in f for m in markers) for f in report["failures"]), \
        report["failures"]


def _nu_report(points, index):
    return nu_consistency_check(blocks_for(points)[index],
                                sing_mats_for(points)[index])


def test_nu_consistency():
    for points, index in (([0, 1], 1), ([0, 1, 2], 1), ([0, 1], 0)):
        report = _nu_report(points, index)
        assert report["name"] == "nu_consistency_{}_{}".format(
            len(points) - index, index)
        assert report["pass"], report["failures"]
