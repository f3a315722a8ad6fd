"""Exact substrate: rings, polynomials, q-series, matrices, eigenspaces."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe_gl2.errors import (NotInvertibleError,
                              PrecisionInsufficientError, RingMismatchError,
                              ShapeError)
from bethe_gl2.linalg import (Matrix, charpoly, generalized_eigenspace,
                              kernel_basis, krylov_minpoly, rank, rref,
                              solve_unique)
from bethe_gl2.multipoly import MultiPoly
from bethe_gl2.nilpotent import NilpotentElement, nilpotent_invert
from bethe_gl2.numeric import (MAX_PRECISION, joint_split_mp,
                               snap_to_rational, to_mp,
                               with_precision_escalation)
from bethe_gl2.qseries import QSeries, geometric, qseries_pochhammer
from bethe_gl2.unipoly import (UniPoly, is_squarefree, laurent_at_infinity,
                               poly_gcd, poly_wronskian)

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12)


def nilp_st(order):
    return st.lists(fractions_st, min_size=order + 1, max_size=order + 1) \
        .map(lambda cs: NilpotentElement(order, cs))


# -- nilpotent ring ----------------------------------------------------

def test_invert_scalar():
    x = NilpotentElement(1, [Fraction(2)])
    assert nilpotent_invert(x) == NilpotentElement(1, [Fraction(1, 2)])


def test_invert_one_plus_b_order1():
    x = NilpotentElement(1, [1, 1])
    assert nilpotent_invert(x) == NilpotentElement(1, [1, -1])


def test_invert_one_plus_b_order2():
    x = NilpotentElement(2, [1, 1])
    assert nilpotent_invert(x) == NilpotentElement(2, [1, -1, 1])


def test_invert_requires_unit():
    with pytest.raises(NotInvertibleError):
        NilpotentElement.b(2).inverse()


def test_b_powers():
    for d in range(0, 5):
        b = NilpotentElement.b(d)
        assert not (b ** d).is_zero()
        assert (b ** (d + 1)).is_zero()


def test_order_mismatch():
    with pytest.raises(RingMismatchError):
        NilpotentElement(1, [1]) + NilpotentElement(2, [1])


@settings(max_examples=60, deadline=None)
@given(nilp_st(2), nilp_st(2), nilp_st(2))
def test_nilpotent_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * NilpotentElement.constant(2, 1) == x


@settings(max_examples=40, deadline=None)
@given(nilp_st(3))
def test_nilpotent_inverse_roundtrip(x):
    if x.coeffs[0] == 0:
        return
    assert x * x.inverse() == NilpotentElement.constant(3, 1)


# -- multivariate polynomials ------------------------------------------

def mp_st(variables):
    exps = st.tuples(*[st.integers(0, 3) for _ in variables])
    return st.dictionaries(exps, fractions_st, max_size=4).map(
        lambda terms: MultiPoly(variables, terms))


@settings(max_examples=50, deadline=None)
@given(mp_st(("x", "y")), mp_st(("x", "y")), mp_st(("x", "y")))
def test_multipoly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * MultiPoly.const(("x", "y"), 1) == p


def test_multipoly_substitute():
    p = MultiPoly.var(("x", "y"), "x") * 2 + \
        MultiPoly.var(("x", "y"), "y") ** 2
    value = p.substitute({"x": Fraction(3), "y": Fraction(2)}, Fraction(1))
    assert value == Fraction(10)


def test_multipoly_extract_linear():
    variables = ("x", "y")
    p = 3 * MultiPoly.var(variables, "x") + \
        MultiPoly.var(variables, "y") ** 2 + MultiPoly.const(variables, 5)
    a, rest = p.extract_linear("x")
    assert a == MultiPoly.const(variables, 3)
    assert rest == MultiPoly.var(variables, "y") ** 2 + 5


def test_multipoly_var_mismatch():
    with pytest.raises(RingMismatchError):
        MultiPoly.var(("x",), "x") + MultiPoly.var(("y",), "y")


# -- univariate polynomials and the Wronskian --------------------------

def test_wronskian_ring_mismatch():
    f = UniPoly([NilpotentElement(1, [1]), NilpotentElement(1, [1])])
    g = UniPoly([NilpotentElement(2, [1]), NilpotentElement(2, [1])])
    with pytest.raises(RingMismatchError):
        poly_wronskian(f, g)


def test_wronskian_examples():
    u = UniPoly([0, 1])
    assert poly_wronskian(u, UniPoly([1, 0, 1])) == UniPoly([-1, 0, 1])
    assert poly_wronskian(u, u).is_zero()
    assert poly_wronskian(UniPoly([1]), u) == UniPoly([1])


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions_st, min_size=1, max_size=4),
       st.lists(fractions_st, min_size=1, max_size=4),
       st.lists(fractions_st, min_size=1, max_size=3))
def test_wronskian_antisymmetry_and_product_rule(fs, gs, hs):
    f, g, h = UniPoly(fs), UniPoly(gs), UniPoly(hs)
    assert poly_wronskian(f, g) == -poly_wronskian(g, f)
    assert poly_wronskian(h * f, h * g) == h * h * poly_wronskian(f, g)


def test_laurent_expansion():
    num = UniPoly([Fraction(1)])
    den = UniPoly([Fraction(-1), Fraction(1)])
    assert laurent_at_infinity(num, den, 4) == [1, 1, 1, 1]
    with pytest.raises(ShapeError):
        laurent_at_infinity(den, num, 2)


def test_laurent_times_denominator_recovers_numerator():
    rng = random.Random(5)
    den = UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(3)]
                  + [Fraction(1)])
    num = UniPoly([Fraction(rng.randint(-4, 4)) for _ in range(3)])
    order = 9
    series = laurent_at_infinity(num, den, order)
    # sum_j c_j u^{-j} * den == num up to the truncation window.
    for power in range(den.degree(), den.degree() - order + 2, -1):
        acc = Fraction(0)
        for j, c in enumerate(series, start=1):
            k = power + j
            if 0 <= k <= den.degree():
                acc += den.coefficient(k) * c
        if 0 <= power <= num.degree():
            acc -= num.coefficient(power)
        if power >= 0:
            assert acc == 0


def test_gcd_and_squarefree():
    f = UniPoly([0, 1]) * UniPoly([0, 1]) * UniPoly([-1, 1])
    assert poly_gcd(f, f.derivative()) == UniPoly([0, 1])
    assert not is_squarefree(f)
    assert is_squarefree(UniPoly([-1, 0, 1]))


# -- q-series -----------------------------------------------------------

def test_pochhammer_examples():
    assert qseries_pochhammer(0, 4) == QSeries.one(4)
    assert qseries_pochhammer(1, 4) == QSeries(0, [1, -1, 0, 0, 0], 4)
    assert qseries_pochhammer(2, 4) == QSeries(0, [1, -1, -1, 1, 0], 4)
    with pytest.raises(ValueError):
        qseries_pochhammer(-1, 4)


def test_qseries_inverse_and_geometric():
    one_minus_q = QSeries.one(8) - QSeries.q_power(1, 8)
    assert one_minus_q.inverse() == geometric(1, 8)
    series = qseries_pochhammer(3, 10)
    assert series * series.inverse() == QSeries.one(10)


def test_qseries_brute_vs_closed_ratio():
    # 1/((1-q)(1-q^2)) counts partitions into parts of size <= 2.
    closed = (geometric(1, 12) * geometric(2, 12)).truncate(10)
    for e in range(11):
        brute = sum(1 for a in range(e + 1) if (e - a) % 2 == 0)
        assert closed.coefficient(e) == brute


# -- exact matrices ------------------------------------------------------

def test_generalized_eigenspace_examples():
    eye = Matrix.identity(2)
    assert generalized_eigenspace(eye, 1).cols == 2
    jordan = Matrix([[0, 1], [0, 0]])
    assert generalized_eigenspace(jordan, 0, exponent=2).cols == 2
    one_step = generalized_eigenspace(jordan, 0, exponent=1)
    assert one_step.columns() == [[Fraction(1), Fraction(0)]]
    with pytest.raises(ShapeError):
        generalized_eigenspace(Matrix([[1, 2, 3], [4, 5, 6]]), 1)


def test_generalized_eigenspace_annihilation():
    rng = random.Random(11)
    nil = Matrix([[0, rng.randint(1, 5), rng.randint(-3, 3)],
                  [0, 0, rng.randint(1, 4)], [0, 0, 0]])
    m = nil + 2 * Matrix.identity(3)
    basis = generalized_eigenspace(m, 2)
    assert basis.cols == 3
    shifted = m - 2 * Matrix.identity(3)
    assert ((shifted ** 3) * basis).is_zero()


def test_kernel_reduced_echelon():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert all(x == 0 for x in m.apply(vec))
    # Echelon form is idempotent under re-reduction.
    from bethe_gl2.linalg import rref
    reduced, _ = rref(basis)
    assert reduced == basis


def _reference_kernel(mat):
    """RREF basis of ker mat: null vectors of rref(mat), reduced again."""
    m, pivots = rref(mat.data)
    vectors = []
    for fc in (c for c in range(mat.cols) if c not in pivots):
        v = [Fraction(0)] * mat.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        vectors.append(v)
    reduced, _ = rref(vectors) if vectors else ([], [])
    return [row for row in reduced if any(x != 0 for x in row)]


@st.composite
def low_rank_matrices(draw):
    """Random rows x cols rational matrices of rank at most inner."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    inner = draw(st.integers(1, max(rows, cols)))
    left = draw(st.lists(st.lists(fractions_st, min_size=inner,
                                  max_size=inner),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(fractions_st, min_size=cols,
                                   max_size=cols),
                          min_size=inner, max_size=inner))
    return Matrix(left) * Matrix(right)


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices())
def test_kernel_basis_is_reduced_echelon_kernel(mat):
    basis = kernel_basis(mat)
    assert len(basis) == mat.cols - rank(mat)
    for vec in basis:
        assert all(x == 0 for x in mat.apply(vec))
    if basis:
        assert rref(basis)[0] == basis
    assert basis == _reference_kernel(mat)


@st.composite
def planted_jordan(draw, eigenvalues="any"):
    """(P J P^-1, [(eigenvalue, size)], P) for the blocks planted in J.

    The dimension is at most 8.  eigenvalues="distinct" gives every block
    its own eigenvalue; "repeated" makes the last block repeat the first
    block's eigenvalue.
    """
    values = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3,
                           unique=True))
    if eigenvalues == "distinct":
        sizes = [(lam, draw(st.integers(1, 2))) for lam in values]
    else:
        most = 6 if eigenvalues == "repeated" else 8
        sizes = draw(st.lists(
            st.tuples(st.sampled_from(values), st.integers(1, 3)),
            min_size=1, max_size=4).filter(
                lambda bs: sum(size for _, size in bs) <= most))
        if eigenvalues == "repeated":
            sizes.append((sizes[0][0], draw(st.integers(1, 2))))
    dim = sum(size for _, size in sizes)
    jordan = Matrix.zeros(dim, dim)
    start = 0
    for lam, size in sizes:
        for i in range(start, start + size):
            jordan.data[i][i] = Fraction(lam)
            if i > start:
                jordan.data[i - 1][i] = Fraction(1)
        start += size
    # P = L U with unit triangular factors is always invertible.
    lower, upper = Matrix.identity(dim), Matrix.identity(dim)
    for i in range(dim):
        for j in range(i):
            lower.data[i][j] = draw(fractions_st)
            upper.data[j][i] = draw(fractions_st)
    p = lower * upper
    p_inv = Matrix.from_columns([
        solve_unique(p, [int(i == j) for i in range(dim)])
        for j in range(dim)])
    return p * jordan * p_inv, sizes, p


@settings(max_examples=60, deadline=None)
@given(planted_jordan(), st.integers(1, 4))
def test_generalized_eigenspace_matches_explicit_power(planted, exponent):
    m, blocks, _ = planted
    n = m.rows
    for lam in sorted({x for x, _ in blocks}) + [3]:
        shifted = m - lam * Matrix.identity(n)
        full = generalized_eigenspace(m, lam)
        assert full.columns() == _reference_kernel(shifted ** n)
        assert full.cols == sum(size for x, size in blocks if x == lam)
        partial = generalized_eigenspace(m, lam, exponent=exponent)
        assert partial.columns() == _reference_kernel(shifted ** exponent)


def _poly_apply(mat, poly, v):
    """poly(mat) v by Horner's rule."""
    out = [Fraction(0)] * len(v)
    for c in reversed(poly.coeffs):
        out = [a + c * x for a, x in zip(mat.apply(out), v)]
    return out


def test_charpoly_and_minpoly():
    m = Matrix([[2, 1], [0, 2]])
    assert charpoly(m) == UniPoly([4, -4, 1])
    assert krylov_minpoly(m, [0, 1]) == (UniPoly([4, -4, 1]), [])
    # A scalar matrix has no cyclic vector in dimension 2.
    diag = Matrix([[3, 0], [0, 3]])
    assert krylov_minpoly(diag, [1, 1]) is None


@settings(max_examples=30, deadline=None)
@given(st.lists(fractions_st, min_size=1, max_size=8))
def test_krylov_minpoly_of_companion_matrix(coeffs):
    # The companion matrix of x^m + sum c_i x^i maps e_i to e_(i+1).
    m = len(coeffs)
    companion = Matrix.zeros(m, m)
    for i in range(1, m):
        companion.data[i][i - 1] = Fraction(1)
    for i, c in enumerate(coeffs):
        companion.data[i][m - 1] = -c
    e0 = [1] + [0] * (m - 1)
    assert krylov_minpoly(companion, e0) == (UniPoly(coeffs + [1]), [])


@settings(max_examples=30, deadline=None)
@given(planted_jordan("distinct"),
       st.lists(st.lists(fractions_st, max_size=8), max_size=3))
def test_krylov_minpoly_of_planted_jordan_blocks(planted, extra_coeffs):
    m, blocks, p = planted
    n = m.rows
    # J e_i = lam e_i + e_(i-1) inside a block, so the sum of the last
    # vectors of the blocks is cyclic for J, and P times it for m.
    ends = {sum(size for _, size in blocks[:b + 1]) - 1
            for b in range(len(blocks))}
    v = p.apply([Fraction(int(i in ends)) for i in range(n)])
    polys = [UniPoly(cs[:n]) for cs in extra_coeffs]
    mu, coords = krylov_minpoly(m, v, [_poly_apply(m, q, v) for q in polys])
    expected = UniPoly.from_roots(
        [Fraction(lam) for lam, size in blocks for _ in range(size)])
    assert mu == expected
    assert coords == polys


@settings(max_examples=20, deadline=None)
@given(planted_jordan("repeated"),
       st.lists(fractions_st, min_size=8, max_size=8))
def test_krylov_minpoly_rejects_repeated_eigenvalue_blocks(planted, entries):
    # Two blocks share an eigenvalue, so no vector is cyclic.
    m, _, _ = planted
    assert krylov_minpoly(m, entries[:m.rows]) is None


def test_solve_unique():
    m = Matrix([[1, 1], [0, 1], [1, 0]])
    assert solve_unique(m, [3, 2, 1]) == [Fraction(1), Fraction(2)]
    assert solve_unique(m, [3, 2, 2]) is None


def test_krylov_algebra_dimension():
    # e3 is cyclic for the nilpotent Jordan block, so Q[J] has dimension 3.
    jordan = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    mu, _ = krylov_minpoly(jordan, [0, 0, 1])
    assert mu == UniPoly.monomial(3)


# -- numeric joint eigenspaces -------------------------------------------

def test_joint_single_diagonal():
    with mpmath.mp.workprec(128):
        spaces = joint_split_mp([to_mp(Matrix([[1, 0], [0, 2]]))])
    values = sorted(float(v[0].real if hasattr(v[0], "real") else v[0])
                    for v, _ in spaces)
    assert values == [1.0, 2.0]
    assert all(b.cols == 1 for _, b in spaces)


def test_joint_jordan_block():
    with mpmath.mp.workprec(128):
        spaces = joint_split_mp([to_mp(Matrix([[3, 1], [0, 3]]))])
    assert len(spaces) == 1
    assert spaces[0][1].cols == 2


def test_joint_pair_diagonals():
    # Brute-force oracle over the standard basis: eigenvalue pairs are
    # (1,4), (1,5), (2,5) each with a one-dimensional space.
    a = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    b = Matrix([[4, 0, 0], [0, 5, 0], [0, 0, 5]])
    with mpmath.mp.workprec(128):
        spaces = joint_split_mp([to_mp(a), to_mp(b)])
    got = sorted((round(float(v[0].real if hasattr(v[0], 'real') else v[0])),
                  round(float(v[1].real if hasattr(v[1], 'real') else v[1])))
                 for v, _ in spaces)
    assert got == [(1, 4), (1, 5), (2, 5)]


def test_stalled_eig_is_a_typed_precision_error(monkeypatch):
    # mpmath raises a bare RuntimeError when its QR iteration stalls; the
    # split reports it as a precision shortfall, retried up to the cap.
    precisions = []

    def stalled(*args, **kwargs):
        precisions.append(mpmath.mp.prec)
        raise RuntimeError("qr: failed to converge")

    def split(prec):
        with mpmath.mp.workprec(prec):
            return joint_split_mp([to_mp(Matrix([[1, 0], [0, 2]]))])

    monkeypatch.setattr(mpmath, "eig", stalled)
    with pytest.raises(PrecisionInsufficientError):
        with_precision_escalation(split, 128)
    assert precisions == [128, 256, 512, MAX_PRECISION]


def test_snap_to_rational():
    with mpmath.mp.workprec(128):
        value = mpmath.mpf(1) / 3
        assert snap_to_rational(value, 128) == Fraction(1, 3)
        assert snap_to_rational(mpmath.sqrt(2), 128) is None
