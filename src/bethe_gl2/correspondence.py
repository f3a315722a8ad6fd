"""Polynomial kernels of nilpotent-coefficient operators and the eta maps.

Given a leaf operator (W, U) the second-order equation has a unique pair of
polynomial solutions with prescribed tail shapes, built level by level in
the nilpotent generator.  Reading off their coefficients defines a special
homomorphism from the Wronskian-condition algebra into the truncated ring;
matching its values against the leaf expansion coefficients is the finite
computational content of the structural isomorphisms, checked here together
with the dimension and regular-representation consequences.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import IndicialError, TheoremViolationError
from .gl2rep import syt_count
from .linalg import Matrix, krylov_minpoly, solve_unique
from .multipoly import MultiPoly
from .nilpotent import NilpotentElement
from .numeric import DEFAULT_PRECISION, default_tolerance, lstsq_mp
from .olambda import OLambdaData
from .spectral import (LeafOperator, decompose_in_nilpotent_powers,
                       eigenleaf_decomposition, singular_spectrum_identity)
from .unipoly import UniPoly, laurent_at_infinity, poly_gcd, poly_wronskian


@dataclass
class SolutionPair:
    """The unique kernel pair of a nilpotent-coefficient operator."""
    k: int
    d: int
    f_solution: UniPoly
    g_solution: UniPoly
    exact: bool
    residual: object


def _is_exact(values):
    return all(isinstance(c, (int, Fraction)) for c in values)


def _indicial_value(alpha, n, v0):
    return alpha * (alpha - 1) - n * alpha + v0


def construct_solutions(w_poly: UniPoly, u_elements, k, d,
                        precision=DEFAULT_PRECISION) -> SolutionPair:
    """Solve the second-order equation level by level in the nilpotent.

    u_elements are U_1..U_n as truncated-ring elements with U_1 = b exactly;
    the scalar part of U_2 must satisfy the indicial factorization, making
    every level's linear system uniquely solvable.  Exact coefficients give
    an exact pair; otherwise the systems are solved at working precision.
    """
    n = 2 * k + d
    if w_poly.degree() != n or w_poly.leading() != 1:
        raise IndicialError(f"W must be monic of degree {n}")
    if len(u_elements) != n:
        raise IndicialError(f"expected {n} numerator coefficients")
    exact = all(_is_exact(u.coeffs) for u in u_elements)
    b_elem = NilpotentElement.b(d, 1)
    tol = mpmath.mpf(2) ** (-(precision // 2))
    if exact:
        if u_elements[0] != b_elem:
            raise IndicialError("the top numerator coefficient must equal b")
        v0 = u_elements[1].coeffs[0] if n >= 2 else Fraction(0)
        if v0 != Fraction(k * (k + d + 1)):
            raise IndicialError(
                f"indicial value {v0} is not k(k+d+1) = {k * (k + d + 1)}")
    else:
        with mp.workprec(precision):
            top = [mpmath.mpmathify(c) for c in u_elements[0].coeffs]
            target = [mpmath.mpf(1) if j == 1 else mpmath.mpf(0)
                      for j in range(d + 1)]
            if max(abs(a - t) for a, t in zip(top, target)) > tol:
                raise IndicialError("the top numerator coefficient must equal b")
            v0 = mpmath.mpmathify(u_elements[1].coeffs[0]) if n >= 2 else 0
            if abs(v0 - k * (k + d + 1)) > tol:
                raise IndicialError("indicial value is not k(k+d+1)")

    # b-levels of the numerator polynomial sum_i U_i u^{n-i}.
    levels = []
    for j in range(d + 1):
        levels.append(UniPoly(
            [u_elements[n - 1 - p].coeffs[j] for p in range(n)]))

    chi = lambda alpha: _indicial_value(
        alpha, n, Fraction(k * (k + d + 1)))

    def solve(levels_supports, fixed_monomial):
        """Level solutions with given unknown supports and fixed leading term."""
        solutions = []
        worst = mpmath.mpf(0)
        for j, support in enumerate(levels_supports):
            fixed = UniPoly.monomial(*fixed_monomial) if j == 0 else UniPoly()
            rhs = UniPoly()
            for m in range(j):
                rhs = rhs - levels[j - m] * solutions[m]
            rhs = rhs - _operator_apply(w_poly, levels[0], fixed)
            columns = [_operator_apply(w_poly, levels[0],
                                       UniPoly.monomial(power))
                       for power in support]
            max_len = max([rhs.degree()] + [c.degree() for c in columns]) + 1
            max_len = max(max_len, 1)
            matrix_rows = [[col.coefficient(r) for col in columns]
                           for r in range(max_len)]
            rhs_vec = [rhs.coefficient(r) for r in range(max_len)]
            if exact:
                solution = solve_unique(Matrix(matrix_rows), rhs_vec)
                if solution is None:
                    raise TheoremViolationError(
                        f"level {j} system has no unique solution")
            else:
                with mp.workprec(precision):
                    a = mpmath.matrix(max_len, max(len(support), 1))
                    bvec = mpmath.matrix(max_len, 1)
                    for r in range(max_len):
                        for c in range(len(support)):
                            a[r, c] = mpmath.mpmathify(matrix_rows[r][c])
                        bvec[r, 0] = mpmath.mpmathify(rhs_vec[r])
                    if support:
                        x, residual = lstsq_mp(a, bvec)
                        scale = max(mpmath.mnorm(a, 1), mpmath.mpf(1))
                        if residual > tol * scale:
                            raise TheoremViolationError(
                                f"level {j} residual {residual} too large")
                        worst = max(worst, residual)
                        solution = [x[c, 0] for c in range(len(support))]
                    else:
                        solution = []
            poly = fixed
            for power, value in zip(support, solution):
                poly = poly + UniPoly.monomial(power, value)
            solutions.append(poly)
        return solutions, worst

    f_supports = [list(range(k)) + list(range(k + 1, k + j + 1))
                  for j in range(d + 1)]
    g_supports = [list(range(k)) + list(range(k + 1, k + d + 1))
                  + list(range(k + d + 2, k + d + 1 + j + 1))
                  for j in range(d + 1)]
    with mp.workprec(precision):
        # Mixed Fraction/float polynomial arithmetic must run at full
        # working precision, not the ambient default.
        f_levels, worst_f = solve(f_supports, (k, Fraction(1)))
        g_levels, worst_g = solve(g_supports, (k + d + 1, Fraction(1)))

    if exact:
        # The forced leading coefficients of the f-side levels.
        for j in range(1, d + 1):
            denom = Fraction(1)
            for m in range(1, j + 1):
                denom *= chi(k + m)
            expected = Fraction((-1) ** j, 1) / denom
            if f_levels[j].coefficient(k + j) != expected:
                raise TheoremViolationError(
                    f"level {j} leading coefficient is not "
                    f"(-1)^{j}/prod chi = {expected}")

    f_solution = _assemble_levels(f_levels, d)
    g_solution = _assemble_levels(g_levels, d)
    residual = max(worst_f, worst_g)
    pair = SolutionPair(k, d, f_solution, g_solution, exact, residual)
    _verify_kernel(pair, w_poly, u_elements, precision)
    return pair


def _operator_apply(w_poly, u_level0, y: UniPoly) -> UniPoly:
    """W y'' - W' y' + U^(0) y (the b-free part of the operator times W)."""
    return w_poly * y.derivative().derivative() \
        - w_poly.derivative() * y.derivative() + u_level0 * y


def _assemble_levels(levels, d):
    max_deg = max((p.degree() for p in levels if not p.is_zero()), default=-1)
    coeffs = []
    for power in range(max_deg + 1):
        coeffs.append(NilpotentElement(
            d, [levels[j].coefficient(power) for j in range(d + 1)]))
    return UniPoly(coeffs)


def _verify_kernel(pair: SolutionPair, w_poly, u_elements, precision):
    u_poly = UniPoly(list(reversed(u_elements)))
    with mp.workprec(precision):
        for y in (pair.f_solution, pair.g_solution):
            residual = w_poly * y.derivative().derivative() \
                - w_poly.derivative() * y.derivative() + u_poly * y
            if pair.exact:
                if not residual.is_zero():
                    raise TheoremViolationError(
                        "constructed solution does not satisfy the equation")
            else:
                tol = mpmath.mpf(2) ** (-(precision // 2))
                worst = mpmath.mpf(0)
                for c in residual.coeffs:
                    parts = c.coeffs if isinstance(c, NilpotentElement) else [c]
                    for p in parts:
                        worst = max(worst, abs(mpmath.mpmathify(p)))
                if worst > tol * 100:
                    raise TheoremViolationError(
                        f"kernel residual {worst} at working precision")


def _coeff_magnitudes(c):
    parts = c.coeffs if isinstance(c, NilpotentElement) else [c]
    return [abs(mpmath.mpmathify(p)) for p in parts]


def _numeric_trim(poly: UniPoly, precision) -> UniPoly:
    """Drop top coefficients that are numerically zero at working precision."""
    mags = [max(_coeff_magnitudes(c), default=mpmath.mpf(0))
            for c in poly.coeffs]
    scale = max(mags, default=mpmath.mpf(1))
    scale = scale if scale > 1 else mpmath.mpf(1)
    cutoff = mpmath.mpf(2) ** (-(precision // 3)) * scale
    top = len(poly.coeffs)
    while top > 0 and mags[top - 1] <= cutoff:
        top -= 1
    return UniPoly(list(poly.coeffs[:top]))


def solution_wronskian_check(pair: SolutionPair, w_poly,
                             precision=DEFAULT_PRECISION):
    """Wr(F, G) is a unit multiple of W, so the pair spans the whole kernel.

    The unit is the leading coefficient of the pair Wronskian; it starts at
    d+1 but carries nonzero nilpotent corrections in general (see the
    literal-specialness discussion in eta_matches_leaf).
    """
    with mp.workprec(precision):
        wr = poly_wronskian(pair.f_solution, pair.g_solution)
        if not pair.exact:
            wr = _numeric_trim(wr, precision)
        if wr.degree() != w_poly.degree():
            return False
        unit = wr.leading()
        if not isinstance(unit, NilpotentElement):
            unit = NilpotentElement.constant(pair.d, unit)
        if unit.coeffs[0] == 0:
            return False
        expected = w_poly.map_coeffs(lambda c: unit.map_coeffs(
            lambda u: u * c))
        if pair.exact:
            return wr == expected
        tol = mpmath.mpf(2) ** (-(precision // 3))
        for power in range(max(wr.degree(), expected.degree()) + 1):
            a = wr.coefficient(power)
            b = expected.coefficient(power)
            a_list = a.coeffs if isinstance(a, NilpotentElement) else [a]
            b_list = b.coeffs if isinstance(b, NilpotentElement) else [b]
            for x, yv in zip(a_list, b_list):
                if abs(mpmath.mpmathify(x) - mpmath.mpmathify(yv)) > tol:
                    return False
        return True


# ---------------------------------------------------------------------------
# Special homomorphisms
# ---------------------------------------------------------------------------

@dataclass
class SpecialHom:
    """Assignment of truncated-ring values to the normal-form generators."""
    k: int
    d: int
    values: dict
    exact: bool
    max_relation_residual: object

    def apply(self, element: NilpotentElement, precision=DEFAULT_PRECISION):
        """Image of a normal-form element under the homomorphism."""
        d = self.d
        one = NilpotentElement.constant(d, Fraction(1))
        total = NilpotentElement(d)
        for m, poly in enumerate(element.coeffs):
            if isinstance(poly, MultiPoly):
                if poly.is_zero():
                    continue
                piece = poly.substitute(self.values, one)
            elif poly == 0:
                continue
            else:
                piece = NilpotentElement.constant(d, poly)
            total = total + NilpotentElement.b(d, m) * piece
        return total


def special_hom_from_solutions(pair: SolutionPair,
                               precision=DEFAULT_PRECISION) -> SpecialHom:
    """Read off the homomorphism values and verify every tail relation.

    The coefficient of each ansatz slot of the solution pair is the value of
    the corresponding generator; the 2d defining relations must evaluate to
    zero in the truncated ring (to working precision for snapped leaf data).
    """
    k, d = pair.k, pair.d
    f_sol, g_sol = pair.f_solution, pair.g_solution
    values = {}
    for i in range(k):
        values[f"f{i}"] = _as_nilp(f_sol.coefficient(i), d)
        values[f"g{i}"] = _as_nilp(g_sol.coefficient(i), d)
    for i in range(k + 1, k + d + 1):
        values[f"g{i}"] = _as_nilp(g_sol.coefficient(i), d)
    for i in range(1, d + 1):
        tail_f = _as_nilp(f_sol.coefficient(k + i), d)
        tail_g = _as_nilp(g_sol.coefficient(k + d + 1 + i), d)
        if pair.exact and (tail_f.b_valuation() < i or tail_g.b_valuation() < i):
            raise TheoremViolationError(
                f"tail {i} of the solution pair has b-valuation below {i}")
        values[f"ft{i}"] = tail_f.shift_down(i) if pair.exact else \
            _numeric_shift_down(tail_f, i, precision)
        values[f"gt{i}"] = tail_g.shift_down(i) if pair.exact else \
            _numeric_shift_down(tail_g, i, precision)

    from .olambda import build_system
    _, system = build_system(k, d)
    one = NilpotentElement.constant(d, Fraction(1))
    worst = mpmath.mpf(0)
    with mp.workprec(precision):
        tol = mpmath.mpf(2) ** (-(precision // 2))
        for eq in system.equations:
            total = NilpotentElement(d)
            for m, poly in enumerate(eq.coeffs):
                if not isinstance(poly, MultiPoly) or poly.is_zero():
                    continue
                total = total + NilpotentElement.b(d, m) * \
                    poly.substitute(values, one)
            if pair.exact:
                if not total.is_zero():
                    raise TheoremViolationError(
                        f"tail relation fails under the homomorphism: {total}")
            else:
                residual = max(abs(mpmath.mpmathify(c)) for c in total.coeffs)
                worst = max(worst, residual)
                if residual > 100 * tol:
                    raise TheoremViolationError(
                        f"tail relation residual {residual}")
    return SpecialHom(k, d, values, pair.exact, worst)


def _as_nilp(x, d):
    if isinstance(x, NilpotentElement):
        return x
    return NilpotentElement.constant(d, x)


def _numeric_shift_down(x: NilpotentElement, power, precision):
    with mp.workprec(precision):
        tol = mpmath.mpf(2) ** (-(precision // 3))
        for j in range(power):
            if abs(mpmath.mpmathify(x.coeffs[j])) > tol:
                raise TheoremViolationError(
                    f"numeric tail has b-valuation below {power}")
        return NilpotentElement(
            x.order, list(x.coeffs[power:]) + [Fraction(0)] * power)


def specialness_check(pair: SolutionPair, precision=DEFAULT_PRECISION):
    """b-components of the pair Wronskian, literal and unit-normalized.

    The literal property asks the image of the ansatz Wronskian to be a
    plain complex polynomial.  For d >= 2 the leading unit C carries forced
    nilpotent corrections (the cross-term weights d+1-2i no longer vanish),
    so only the normalized statement - C^{-1} Wr(F, G) is the plain monic
    point polynomial - can hold in general; both residuals are reported.
    """
    with mp.workprec(precision):
        wr = poly_wronskian(pair.f_solution, pair.g_solution)
        if not pair.exact:
            wr = _numeric_trim(wr, precision)
        tol = mpmath.mpf(2) ** (-(precision // 3))
        literal = mpmath.mpf(0)
        for c in wr.coeffs:
            if not isinstance(c, NilpotentElement):
                continue
            for p in c.coeffs[1:]:
                literal = max(literal, abs(mpmath.mpmathify(p)))
        unit = wr.leading()
        if not isinstance(unit, NilpotentElement):
            unit = NilpotentElement.constant(pair.d, unit)
        normalized = mpmath.mpf(0)
        if unit.coeffs[0] != 0:
            inv = unit.inverse()
            scaled = wr.map_coeffs(lambda c: inv * _as_nilp(c, pair.d))
            for c in scaled.coeffs:
                for p in c.coeffs[1:]:
                    normalized = max(normalized, abs(mpmath.mpmathify(p)))
        return {"name": "specialness",
                "literal_pass": bool(literal <= tol * 100),
                "literal_residual": literal,
                "normalized_pass": bool(normalized <= tol * 100),
                "normalized_residual": normalized}


# ---------------------------------------------------------------------------
# eta-matching between leaves and the quotient algebra
# ---------------------------------------------------------------------------

def eta_matches_leaf(leaf_op: LeafOperator, data: OLambdaData,
                     expansion_order=None, precision=DEFAULT_PRECISION,
                     tol_exponent=40):
    """The special homomorphism of a leaf matches its expansion coefficients.

    Builds the kernel pair from the leaf operator, reads off the
    homomorphism, and compares eta of every quotient-algebra operator
    coefficient with the leaf's own Laurent coefficients, and eta of the
    Wronski images with the elementary symmetric functions of the points.
    """
    leaf = leaf_op.leaf
    module = leaf.block.module
    n = module.n
    k, d = data.k, data.d
    if expansion_order is None:
        expansion_order = n + 2
    if expansion_order > len(data.f1):
        raise ValueError("quotient data expanded to insufficient order")
    tol = mpmath.mpf(2) ** (-tol_exponent)
    pair = construct_solutions(leaf_op.w_poly, leaf_op.u_elements(), k, d,
                               precision)
    hom = special_hom_from_solutions(pair, precision)

    failures = []
    with mp.workprec(precision):
        # Leaf-side expansions.
        b1 = laurent_at_infinity(leaf_op.w_poly.derivative(), leaf_op.w_poly,
                                 expansion_order)
        u_poly = UniPoly(list(reversed(leaf_op.u_elements())))
        b2 = laurent_at_infinity(u_poly, leaf_op.w_poly, expansion_order)
        for j in range(1, expansion_order + 1):
            image1 = hom.apply(data.f1[j - 1], precision)
            diff = _nilp_distance(image1, _as_nilp(b1[j - 1], d))
            if diff > tol:
                failures.append(f"F_1{j} image off by {mpmath.nstr(diff, 5)}")
            image2 = hom.apply(data.f2[j - 1], precision)
            diff = _nilp_distance(image2, _as_nilp(b2[j - 1], d))
            if diff > tol:
                failures.append(f"F_2{j} image off by {mpmath.nstr(diff, 5)}")
        for s in range(1, n + 1):
            image = hom.apply(data.sigma_images[s - 1], precision)
            expected = NilpotentElement.constant(
                d, module.elementary_symmetric(s))
            diff = _nilp_distance(image, expected)
            if diff > tol:
                failures.append(
                    f"sigma_{s} image off by {mpmath.nstr(diff, 5)}")
        special = specialness_check(pair, precision)
        if not special["normalized_pass"]:
            failures.append(
                "normalized Wronskian image has nonzero b-components")
        if not solution_wronskian_check(pair, leaf_op.w_poly, precision):
            failures.append("Wr(F, G) is not a unit multiple of W")
    return {"name": "eta_matches_leaf", "pass": not failures,
            "failures": failures, "exact": pair.exact,
            "literal_specialness": special["literal_pass"],
            "literal_residual": special["literal_residual"]}


def _nilp_distance(a: NilpotentElement, b: NilpotentElement):
    worst = mpmath.mpf(0)
    for x, y in zip(a.coeffs, b.coeffs):
        worst = max(worst, abs(mpmath.mpmathify(x) - mpmath.mpmathify(y)))
    return worst


# ---------------------------------------------------------------------------
# Dimension identities and module-isomorphism consequences
# ---------------------------------------------------------------------------

def dimension_identity_check(blocks):
    """(d+1) #SYT equals every exact block dimension; blocks fill the space."""
    module = blocks[0].module
    failures = []
    details = []
    for block in blocks:
        weight = block.weight
        expected = (weight.d + 1) * syt_count(weight)
        details.append({"weight": (weight.lam1, weight.lam2),
                        "dim": block.dim, "expected": expected})
        if block.dim != expected:
            failures.append(f"block {weight} dimension {block.dim}")
    if sum(b.dim for b in blocks) != module.dim:
        failures.append("blocks do not fill the module")
    return {"name": f"dimension_identity_n{module.n}", "pass": not failures,
            "failures": failures, "details": details}


CYCLIC_ATTEMPTS = 5


def _cyclic_combination(mats, rng, extra=()):
    """Seeded Y = sum c_i mats[i] and krylov_minpoly(Y, v, [E v]), or None."""
    for _ in range(CYCLIC_ATTEMPTS):
        y = sum(rng.randint(1, 9) * m for m in mats)
        v = [Fraction(rng.randint(-9, 9)) for _ in range(y.rows)]
        certificate = krylov_minpoly(y, v, [e.apply(v) for e in extra])
        if certificate is not None:
            return y, certificate
    return None


def regular_representation_check(blocks, sing_mats, seed=0):
    """Exact regular-representation consequences on every block.

    sing_mats[i] are the plain coefficients on the singular space of
    blocks[i] (none when n = 1).  A seeded Y = sum c_i U_i with a cyclic
    vector has centralizer Q[Y], and every U_i commutes with Y (checked),
    so the algebra A they generate is Q[Y] = Q[x]/(mu): it has the block
    dimension and a cyclic vector.  U_1 = Q_1(Y), so U_1^j A has
    codimension deg gcd(Q_1^j, mu): the ideal codimension and every
    filtration step must be #SYT, and U_1^(d+1) must vanish.  The singular
    space has dimension #SYT, and a plain combination is cyclic on it.
    """
    rng = random.Random(seed)
    failures = []
    for block, mats in zip(blocks, sing_mats):
        weight = block.weight
        count = syt_count(weight)
        gens = block.u_restricted()
        found = _cyclic_combination(gens, rng, gens[:1])
        if found is None:
            failures.append(f"no cyclic vector found for block {weight}")
        elif any(u * found[0] != found[0] * u for u in gens):
            failures.append(f"the U_i do not commute on block {weight}")
        else:
            _, (mu, (q1,)) = found
            # gcd(Q_1^j, mu) = gcd(Q_1 gcd(Q_1^(j-1), mu), mu)
            degrees, common = [0], UniPoly([1])
            for _ in range(weight.d + 1):
                common = poly_gcd(q1 * common, mu)
                degrees.append(common.degree())
            if degrees[1] != count:
                failures.append(f"nilpotent ideal codimension {degrees[1]} "
                                f"of {weight}, expected {count}")
            for j in range(1, weight.d + 2):
                if degrees[j] - degrees[j - 1] != count:
                    failures.append(
                        f"filtration step {j} of {weight} has size "
                        f"{degrees[j] - degrees[j - 1]}, expected {count}")
            if degrees[-1] != block.dim:
                failures.append(
                    f"nilpotent filtration of {weight} does not vanish")
        if mats and mats[0].rows != count:
            failures.append(f"singular space of {weight} has dimension "
                            f"{mats[0].rows}, expected {count}")
        elif mats and _cyclic_combination(mats, rng) is None:
            failures.append(f"no cyclic vector on sing {weight}")
    return {"name": "regular_representation", "pass": not failures,
            "failures": failures}


def nu_consistency_check(block, sing_mats, precision=DEFAULT_PRECISION,
                         seed=0):
    """Finite consequences of the twisted/plain comparison on one block.

    (a) the exact singular-spectrum identity of the block against the plain
    coefficients sing_mats on its singular space, for a seeded random
    rational combination; (b) each twisted coefficient on a leaf is its
    scalar plus a polynomial in the leaf nilpotent with zero constant term.
    """
    weight = block.weight
    failures = []
    rng = random.Random(seed)
    combo = [Fraction(rng.randint(1, 99), rng.randint(1, 9))
             for _ in sing_mats]
    failure = singular_spectrum_identity(block, sing_mats, combo)
    if failure:
        failures.append(failure)
    leaves = eigenleaf_decomposition(block, precision)
    with mp.workprec(precision):
        tol = default_tolerance(precision)
        slack = mpmath.mpf(2) ** (-(precision // 4))
        for idx, leaf in enumerate(leaves):
            for j in range(2, block.module.n + 1):
                restricted = leaf.restrict(block.bethe_restricted(j))
                coeffs, residual = decompose_in_nilpotent_powers(
                    restricted, leaf.n_matrix, tol)
                scale = max(mpmath.mnorm(restricted, 1), mpmath.mpf(1))
                if residual > slack * scale:
                    failures.append(
                        f"leaf {idx}: coefficient {j} is not polynomial in N")
                elif abs(coeffs[0] - leaf.phi[j]) > slack * scale:
                    failures.append(
                        f"leaf {idx}: constant of coefficient {j} is not phi")
    return {"name": f"nu_consistency_{weight.lam1}_{weight.lam2}",
            "pass": not failures, "failures": failures}
