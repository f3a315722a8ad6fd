"""The twisted Bethe operator family on evaluation modules.

The quadratic series is assembled in partial-fraction form: per-site simple
poles with exact matrix residues.  Each residue is built sparse, as a
{(row, col): Fraction} map, by composing the partial maps col -> row of the
single-site generators e_ab^(s) (`EvalModule.site_map`); no dense 2^n x 2^n
product is formed.  Double-pole residues cancel identically on the vector
representation and are asserted to vanish at assembly time, by the same
compositions.  The standard-generator coefficients and the polynomial pair
(W, U) of the second-order operator are summed from the sparse residues and
become dense `Matrix` objects once, when handed out.  Everything, including
the identity checks of the commutative family, is exact over Q; the same
residue and U assembly also runs on mpmath points (numeric roundtrip).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalConsistencyError
from .gl2rep import (GENERATORS, EvalModule, SymbolicVector, WeightLabel,
                     build_irrep, symbolic_action)
from .linalg import Matrix, krylov_minpoly
from .unipoly import UniPoly


@dataclass(frozen=True)
class KMatrix:
    """Twist matrix; only the zero and lower-nilpotent instances exist."""
    k21: Fraction
    label: str

    @classmethod
    def zero(cls):
        return cls(Fraction(0), "zero")

    @classmethod
    def nilpotent(cls):
        return cls(Fraction(-1), "nilpotent")

    @property
    def entries(self):
        return ((Fraction(0), Fraction(0)), (self.k21, Fraction(0)))


class OperatorSeries:
    """Partial-fraction form sum_s residue_s / (u - b_s) of a Bethe series.

    The residues are held sparse, as {(row, col): Fraction} maps; dense
    matrices are formed only for the results handed out.
    """

    def __init__(self, module: EvalModule, sparse_residues, name):
        self.module = module
        self.sparse_residues = sparse_residues
        self.name = name
        self._residues = None

    @property
    def residues(self):
        """The residues as dense matrices, built on first use."""
        if self._residues is None:
            dim = self.module.dim
            self._residues = [Matrix.from_entries(dim, dim, res)
                              for res in self.sparse_residues]
        return self._residues

    def combination(self, weights) -> Matrix:
        """Dense sum_s weights[s] * residue_s."""
        dim = self.module.dim
        return Matrix.from_entries(
            dim, dim, _combine(weights, self.sparse_residues))

    def coefficient(self, j) -> Matrix:
        """Matrix coefficient of u^{-j} in the expansion at infinity."""
        if j == 0:
            return Matrix.zeros(self.module.dim, self.module.dim)
        return self.combination([p ** (j - 1) for p in self.module.points])

    def evaluate(self, u0) -> Matrix:
        """Exact value at a rational point distinct from every pole."""
        u0 = Fraction(u0)
        return self.combination(
            [Fraction(1) / (u0 - p) for p in self.module.points])


def _combine(weights, sparse_matrices):
    """Sparse sum_k weights[k] * sparse_matrices[k]."""
    total = {}
    for w, mat in zip(weights, sparse_matrices):
        if w == 0:
            continue
        for key, x in mat.items():
            total[key] = total.get(key, 0) + w * x
    return total


def _compose(left, right):
    """Partial map of the product left * right of two single-site maps."""
    return {col: left[mid] for col, mid in right.items() if mid in left}


def _add_term(acc, weight, term):
    """acc += weight * term, for a partial map term and a sparse acc."""
    for col, row in term.items():
        key = (row, col)
        acc[key] = acc.get(key, 0) + weight


def b2_residues(module: EvalModule, points, k21):
    """Sparse per-site residues of the second series at the given points.

    Every product of single-site generators is a composition of partial
    maps (each generator has at most one nonzero per column), so a residue
    costs O(n 2^n) rather than dense 2^n x 2^n products.  The module gives
    only the site maps, so the points may be Fractions or mpmath floats.
    The double-pole residue at each point is e11 e22 - e21 e12 + e22 acting
    in one factor, which vanishes on the vector representation; a nonzero
    value indicates corrupted state and is a hard error.
    """
    n = module.n
    site = module.site_map
    residues = []
    for s in range(n):
        double = {}
        _add_term(double, 1, _compose(site(1, 1, s), site(2, 2, s)))
        _add_term(double, -1, _compose(site(2, 1, s), site(1, 2, s)))
        _add_term(double, 1, site(2, 2, s))
        if any(x != 0 for x in double.values()):
            raise InternalConsistencyError(
                f"double-pole residue at point {points[s]} did not cancel")
        acc = {}
        for t in range(n):
            if t == s:
                continue
            weight = 1 / (points[s] - points[t])
            _add_term(acc, weight, _compose(site(1, 1, s), site(2, 2, t)))
            _add_term(acc, weight, _compose(site(1, 1, t), site(2, 2, s)))
            _add_term(acc, -weight, _compose(site(2, 1, s), site(1, 2, t)))
            _add_term(acc, -weight, _compose(site(2, 1, t), site(1, 2, s)))
        if k21 != 0:
            _add_term(acc, -k21, site(2, 1, s))
        residues.append({key: x for key, x in acc.items() if x != 0})
    return residues


def u_coefficients(points, residues):
    """Sparse U_1..U_n: U_i = sum_s [u^{n-i}] cofactor_s * residue_s.

    cofactor_s = prod_{t != s} (u - b_t); generic over the scalar type of
    the points, like b2_residues.
    """
    n = len(points)
    cofactors = [UniPoly.from_roots(
        [p for t, p in enumerate(points) if t != s]) for s in range(n)]
    return [_combine([c.coefficient(n - i) for c in cofactors], residues)
            for i in range(1, n + 1)]


def bethe_b2_series(module: EvalModule, kmat: KMatrix) -> OperatorSeries:
    """Second series, assembled per-site with exact sparse residues."""
    return OperatorSeries(
        module, b2_residues(module, module.points, kmat.k21), "B2")


class UniversalOperator:
    """The pair (W, [U_1..U_n]) of the second-order operator of a module.

    Represents d^2/du^2 - (W'/W) d/du + U(u)/W(u) with
    W = prod (u - b_s) and U(u) = sum_i U_i u^{n-i}.
    """

    def __init__(self, module: EvalModule, kmat: KMatrix):
        self.module = module
        self.kmat = kmat
        self.series = bethe_b2_series(module, kmat)
        self.w_poly = UniPoly.from_roots(module.points)
        self._u_list = None
        self._coeff_cache = {}

    @property
    def w(self):
        return self.w_poly

    @property
    def u_list(self):
        """The dense U_1..U_n, built on first use."""
        if self._u_list is None:
            dim = self.module.dim
            self._u_list = [
                Matrix.from_entries(dim, dim, u) for u in u_coefficients(
                    self.module.points, self.series.sparse_residues)]
        return self._u_list

    @property
    def u(self):
        return self.u_list

    def u_polynomial(self):
        n = self.module.n
        return UniPoly([self.u_list[n - 1 - p] for p in range(n)])

    def bethe_coefficient(self, i, j) -> Matrix:
        """Coefficient of u^{-j} of the i-th series on this module."""
        if (i, j) in self._coeff_cache:
            return self._coeff_cache[(i, j)]
        dim = self.module.dim
        if j == 0:
            value = Matrix.zeros(dim, dim)
        elif i == 1:
            value = -self.module.power_sum(j - 1) * Matrix.identity(dim)
        else:
            value = self.series.coefficient(j)
        self._coeff_cache[(i, j)] = value
        return value


def universal_operator(module: EvalModule, kmat: KMatrix) -> UniversalOperator:
    return UniversalOperator(module, kmat)


def bethe_coefficient(module: EvalModule, i, j, kmat: KMatrix) -> Matrix:
    if i not in (1, 2):
        raise ValueError("series index must be 1 or 2")
    if i == 1:
        if j == 0:
            return Matrix.zeros(module.dim, module.dim)
        return -module.power_sum(j - 1) * Matrix.identity(module.dim)
    return bethe_b2_series(module, kmat).coefficient(j)


def b2_coefficients_via_products(module: EvalModule, kmat: KMatrix, jmax):
    """Independent series-product route to the B2 coefficients.

    Multiplies the current-algebra series coefficientwise using the cached
    e_ab tensor t^r matrices; used as a cross-check of the partial-fraction
    assembly.
    """
    gen = module.generator_matrix
    dim = module.dim
    out = {}
    for j in range(1, jmax + 1):
        total = Matrix.zeros(dim, dim)
        for r in range(0, j - 1):
            p = j - 2 - r
            total = total + gen(1, 1, r) * gen(2, 2, p)
            total = total - gen(2, 1, r) * gen(1, 2, p)
        if j >= 2:
            total = total + (j - 1) * gen(2, 2, j - 2)
        if kmat.k21 != 0:
            total = total - kmat.k21 * gen(2, 1, j - 1)
        out[j] = total
    return out


def u_reconstruction_check(op: UniversalOperator, samples=None):
    """U(u) = W(u) B2(u) as an exact rational-function identity.

    Checked at 2n+1 rational points distinct from every evaluation point.
    """
    module = op.module
    n = module.n
    if samples is None:
        samples, candidate = [], Fraction(1, 7)
        while len(samples) < 2 * n + 1:
            if candidate not in module.points:
                samples.append(candidate)
            candidate += 1
    u_poly = op.u_polynomial()
    failures = []
    for u0 in samples:
        w_val = op.w_poly(Fraction(u0))
        lhs = _poly_eval_matrix(u_poly, Fraction(u0), module.dim)
        rhs = w_val * op.series.evaluate(u0)
        if not (lhs - rhs).is_zero():
            failures.append(str(u0))
    return {"name": "u_reconstruction", "pass": not failures,
            "failures": failures}


def _poly_eval_matrix(poly: UniPoly, point, dim) -> Matrix:
    total = Matrix.zeros(dim, dim)
    power = Fraction(1)
    for c in poly.coeffs:
        if isinstance(c, Matrix):
            total = total + power * c
        elif c != 0:
            total = total + (power * c) * Matrix.identity(dim)
        power *= point
    return total


def commutativity_check(module: EvalModule, kmat: KMatrix, jmax) -> dict:
    """All brackets of the quadratic-series coefficients vanish exactly.

    For the zero twist the coefficients additionally commute with the
    constant gl2 generators.
    """
    op = universal_operator(module, kmat)
    coeffs = [op.bethe_coefficient(2, j) for j in range(1, jmax + 1)]
    failures = []
    for a in range(len(coeffs)):
        for b in range(a + 1, len(coeffs)):
            if not (coeffs[a] * coeffs[b] - coeffs[b] * coeffs[a]).is_zero():
                failures.append(f"[B2{a + 1}, B2{b + 1}] != 0")
    if kmat.k21 == 0:
        for (a, b) in GENERATORS:
            g = module.generator_matrix(a, b, 0)
            for j, c in enumerate(coeffs, start=1):
                if not (c * g - g * c).is_zero():
                    failures.append(f"[B2{j}, e{a}{b}] != 0")
    return {"name": f"commutativity_{kmat.label}", "pass": not failures,
            "failures": failures}


def nilp_formula_check(module: EvalModule, jmax) -> dict:
    """Twisted-minus-plain coefficients equal the lowering currents exactly.

    Also certifies the matrix statement that each difference strictly lowers
    the gl2 weight in the weight-major basis order.
    """
    twisted = universal_operator(module, KMatrix.nilpotent())
    plain = universal_operator(module, KMatrix.zero())
    failures = []
    for j in range(1, jmax + 1):
        diff = twisted.bethe_coefficient(2, j) - plain.bethe_coefficient(2, j)
        expected = module.generator_matrix(2, 1, j - 1)
        if diff != expected:
            failures.append(f"B2{j} difference mismatch")
        for row in range(module.dim):
            for col in range(module.dim):
                if diff.data[row][col] == 0:
                    continue
                m_row = module.basis[row].bit_count()
                m_col = module.basis[col].bit_count()
                if m_row != m_col + 1:
                    failures.append(
                        f"entry ({row},{col}) of B2{j} difference is not "
                        "weight-lowering")
    return {"name": "nilp_formula", "pass": not failures, "failures": failures}


def irrep_bethe_image(weight: WeightLabel) -> UniPoly:
    """Minimal polynomial of the lowering generator on the irreducible.

    Equals t^(lam1 - lam2 + 1); the image of the twisted Bethe algebra on the
    evaluation module of the irreducible is the truncated polynomial ring of
    that order.
    """
    rep = build_irrep(weight)
    # The highest vector u_0 is cyclic for e21: e21 u_i = (i+1) u_{i+1}.
    certificate = krylov_minpoly(rep.e21, [1] + [0] * (rep.dim - 1))
    if certificate is None:
        raise InternalConsistencyError("highest vector is not cyclic for e21")
    minpoly = certificate[0]
    expected = UniPoly.monomial(weight.lam1 - weight.lam2 + 1)
    if minpoly != expected:
        raise InternalConsistencyError(
            f"minimal polynomial {minpoly} of the lowering generator on "
            f"({weight.lam1},{weight.lam2}) is not t^{weight.lam1 - weight.lam2 + 1}")
    return minpoly


def apply_bethe_symbolic(i, j, kmat: KMatrix, vec: SymbolicVector):
    """Apply a standard generator to a symbolic vector via current products."""
    if j == 0:
        return SymbolicVector(vec.n, {}, vec.degree_bound)
    if i == 1:
        out = symbolic_action((1, 1), j - 1, vec)
        out = out + symbolic_action((2, 2), j - 1, vec)
        return out.scale(Fraction(-1))
    total = SymbolicVector(vec.n, {}, vec.degree_bound)
    for r in range(0, j - 1):
        p = j - 2 - r
        total = total + symbolic_action((1, 1), r, symbolic_action((2, 2), p, vec))
        total = total - symbolic_action((2, 1), r, symbolic_action((1, 2), p, vec))
    if j >= 2:
        total = total + symbolic_action((2, 2), j - 2, vec).scale(Fraction(j - 1))
    if kmat.k21 != 0:
        total = total - symbolic_action((2, 1), j - 1, vec).scale(kmat.k21)
    return total
