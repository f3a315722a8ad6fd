"""Representations of gl2 and its current algebra on the spaces used here.

Covers: irreducibles with a fixed integral basis, the tensor power of the
vector representation with evaluation-module actions at distinct rational
points, singular vectors, the polynomial (symbolic) module with its grading,
and Molien-style counting of graded weight multiplicities used as the brute
oracle for character formulas.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (DegreeBoundError, InvalidWeightError, RepeatedPointError,
                     ShapeError)
from .linalg import Matrix, kernel_basis, rref
from .qseries import QSeries, geometric, qseries_pochhammer

GENERATORS = ((1, 1), (1, 2), (2, 1), (2, 2))

# Single-site action of e_ab on V = span{v+, v-}: e_ab maps v_b to v_a
# (indices: 0 = v+, 1 = v-), killing the other basis vector.
_SITE_ACTION = {
    (1, 1): (0, 0),
    (1, 2): (1, 0),
    (2, 1): (0, 1),
    (2, 2): (1, 1),
}


@dataclass(frozen=True)
class WeightLabel:
    """Partition (lam1, lam2) with at most two parts."""
    lam1: int
    lam2: int

    def __post_init__(self):
        if not (self.lam1 >= self.lam2 >= 0):
            raise InvalidWeightError(f"({self.lam1},{self.lam2})")

    @property
    def n(self):
        return self.lam1 + self.lam2

    @property
    def k(self):
        return self.lam2

    @property
    def d(self):
        return self.lam1 - self.lam2

    @property
    def size(self):
        return self.lam1 + self.lam2


def syt_count(weight: WeightLabel) -> int:
    """Number of standard Young tableaux of the two-row shape, by hook lengths."""
    lam1, lam2 = weight.lam1, weight.lam2
    hooks = 1
    for j in range(1, lam1 + 1):
        hooks *= lam1 - j + 1 + (1 if j <= lam2 else 0)
    for j in range(1, lam2 + 1):
        hooks *= lam2 - j + 1
    assert factorial(weight.size) % hooks == 0
    return factorial(weight.size) // hooks


@dataclass(frozen=True)
class IrrepMatrices:
    weight: WeightLabel
    dim: int
    e11: Matrix
    e12: Matrix
    e21: Matrix
    e22: Matrix

    def generator(self, a, b):
        return {(1, 1): self.e11, (1, 2): self.e12,
                (2, 1): self.e21, (2, 2): self.e22}[(a, b)]


def build_irrep(weight: WeightLabel) -> IrrepMatrices:
    """Irreducible of highest weight (lam1, lam2) in an integral weight basis.

    Basis u_0 (highest) ... u_N, N = lam1 - lam2, with
    e21 u_i = (i+1) u_{i+1} and e12 u_i = (N - i + 1) u_{i-1}.
    """
    big_n = weight.lam1 - weight.lam2
    dim = big_n + 1
    e11 = Matrix([[Fraction(weight.lam1 - i) if i == j else Fraction(0)
                   for j in range(dim)] for i in range(dim)])
    e22 = Matrix([[Fraction(weight.lam2 + i) if i == j else Fraction(0)
                   for j in range(dim)] for i in range(dim)])
    e21 = Matrix.zeros(dim, dim)
    e12 = Matrix.zeros(dim, dim)
    for i in range(big_n):
        e21.data[i + 1][i] = Fraction(i + 1)
        e12.data[i][i + 1] = Fraction(big_n - i)
    return IrrepMatrices(weight, dim, e11, e12, e21, e22)


class EvalModule:
    """Tensor product of vector representations evaluated at distinct points.

    The basis of 2^n spin configurations is ordered weight-major: masks sorted
    by (popcount, mask), so higher gl2-weight (fewer minus factors) comes
    first and weight-lowering operators are strictly block-subdiagonal.
    """

    def __init__(self, n, points):
        points = [Fraction(p) for p in points]
        if len(points) != n:
            raise ShapeError(f"expected {n} points, got {len(points)}")
        if len(set(points)) != n:
            raise RepeatedPointError(
                "evaluation points must be pairwise distinct "
                "(repeated points are out of scope)")
        self.n = n
        self.points = points
        self.dim = 1 << n
        self.basis = sorted(range(self.dim),
                            key=lambda mask: (mask.bit_count(), mask))
        self.position = {mask: i for i, mask in enumerate(self.basis)}
        self._site_cache = {}
        self._gen_cache = {}

    # -- basis bookkeeping ---------------------------------------------

    def weight_space_indices(self, m):
        return [i for i, mask in enumerate(self.basis)
                if mask.bit_count() == m]

    def elementary_symmetric(self, s):
        """a_s with prod (u - b_i) = u^n + sum_s (-1)^s a_s u^{n-s}."""
        total = Fraction(0)
        for combo in itertools.combinations(self.points, s):
            term = Fraction(1)
            for x in combo:
                term *= x
            total += term
        return total

    def power_sum(self, r):
        return sum((p ** r for p in self.points), Fraction(0))

    # -- actions ---------------------------------------------------------

    def site_map(self, a, b, site):
        """e_ab acting in the given tensor factor, as a partial map col -> row.

        The single-site generator sends each basis vector to a basis vector
        or to zero, so its matrix has at most one entry 1 per column; the
        columns it kills are absent from the map.
        """
        key = (a, b, site)
        if key not in self._site_cache:
            src, dst = _SITE_ACTION[(a, b)]
            bit = 1 << site
            self._site_cache[key] = {
                col: self.position[(mask & ~bit) | (dst << site)]
                for col, mask in enumerate(self.basis)
                if (mask >> site) & 1 == src}
        return self._site_cache[key]

    def site_matrix(self, a, b, site):
        """e_ab acting in the given tensor factor only."""
        return Matrix.from_entries(
            self.dim, self.dim,
            {(row, col): 1
             for col, row in self.site_map(a, b, site).items()})

    def generator_matrix(self, a, b, r):
        """Matrix of e_ab tensor t^r: sum_s b_s^r * e_ab^(s)."""
        key = (a, b, r)
        if key not in self._gen_cache:
            entries = {}
            for site in range(self.n):
                weight = self.points[site] ** r
                for col, row in self.site_map(a, b, site).items():
                    entries[(row, col)] = entries.get((row, col), 0) + weight
            self._gen_cache[key] = Matrix.from_entries(
                self.dim, self.dim, entries)
        return self._gen_cache[key]

    def descriptor(self):
        return {"n": self.n,
                "points": [_frac_str(p) for p in self.points]}


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def singular_subspace(module: EvalModule, weight: WeightLabel) -> Matrix:
    """Exact basis of ker(e12 t^0) within the given weight space.

    Empty when the weight does not occur; otherwise the dimension is the
    tableau count of the shape.
    """
    if weight.size != module.n:
        return Matrix.zeros(module.dim, 0)
    m = weight.k
    idx = module.weight_space_indices(m)
    if not idx:
        return Matrix.zeros(module.dim, 0)
    raise_mat = module.generator_matrix(1, 2, 0)
    # Restrict the raising operator to the weight-m space; its kernel there
    # consists of the singular vectors of weight (n-m, m).
    rows = [[raise_mat.data[i][j] for j in idx] for i in range(module.dim)]
    small = Matrix(rows)
    kern = kernel_basis(small)
    cols = []
    for vec in kern:
        full = [Fraction(0)] * module.dim
        for value, j in zip(vec, idx):
            full[j] = value
        cols.append(full)
    return Matrix.from_columns(cols) if cols else Matrix.zeros(module.dim, 0)


# ---------------------------------------------------------------------------
# The symbolic module: V^{tensor n} (x) Q[z_1..z_n]
# ---------------------------------------------------------------------------

class SymbolicVector:
    """Vector with polynomial coefficients; graded by deg(z-part) - popcount."""

    __slots__ = ("n", "terms", "degree_bound")

    def __init__(self, n, terms=None, degree_bound=64):
        self.n = n
        self.degree_bound = degree_bound
        self.terms = {}
        for (mask, mono), c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if sum(mono) > degree_bound:
                raise DegreeBoundError(
                    f"z-degree {sum(mono)} exceeds bound {degree_bound}")
            self.terms[(mask, tuple(mono))] = c

    @classmethod
    def basis_vector(cls, n, mask, degree_bound=64):
        return cls(n, {(mask, (0,) * n): Fraction(1)},
                   degree_bound=degree_bound)

    def degrees(self):
        return {sum(mono) - mask.bit_count()
                for (mask, mono) in self.terms}

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, Fraction(0)) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return SymbolicVector(self.n, terms, self.degree_bound)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return SymbolicVector(
            self.n, {k: c * v for k, v in self.terms.items()},
            self.degree_bound)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    __hash__ = None


def symbolic_action(generator, r, vec: SymbolicVector) -> SymbolicVector:
    """Apply e_ab tensor t^r: sum_s z_s^r times the site action at s."""
    a, b = generator
    src, dst = _SITE_ACTION[(a, b)]
    out = {}
    for (mask, mono), c in vec.terms.items():
        for site in range(vec.n):
            if (mask >> site) & 1 != src:
                continue
            new_mask = (mask & ~(1 << site)) | (dst << site)
            new_mono = list(mono)
            new_mono[site] += r
            key = (new_mask, tuple(new_mono))
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return SymbolicVector(vec.n, out, vec.degree_bound)


def permute_symbolic(vec: SymbolicVector, perm) -> SymbolicVector:
    """Simultaneous permutation of tensor factors and variables.

    perm maps positions 0..n-1; the image places factor perm^{-1}(i) and
    exponent perm^{-1}(i) at position i.
    """
    n = vec.n
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    out = {}
    for (mask, mono), c in vec.terms.items():
        new_mask = 0
        new_mono = [0] * n
        for i in range(n):
            src = inv[i]
            if (mask >> src) & 1:
                new_mask |= 1 << i
            new_mono[i] = mono[src]
        key = (new_mask, tuple(new_mono))
        out[key] = out.get(key, Fraction(0)) + c
    return SymbolicVector(n, out, vec.degree_bound)


def symmetrize(vec: SymbolicVector) -> SymbolicVector:
    """Average of all simultaneous permutations (projector onto invariants)."""
    n = vec.n
    total = SymbolicVector(n, {}, vec.degree_bound)
    count = 0
    for perm in itertools.permutations(range(n)):
        total = total + permute_symbolic(vec, perm)
        count += 1
    return total.scale(Fraction(1, count))


# ---------------------------------------------------------------------------
# Molien counting and brute-force graded characters
# ---------------------------------------------------------------------------

def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _cycle_type_count(ctype, n):
    """Number of permutations of S_n with the given cycle type."""
    denom = 1
    mult = {}
    for length in ctype:
        denom *= length
        mult[length] = mult.get(length, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return factorial(n) // denom


def _fixed_weight_trace(ctype, m):
    """Trace of a permutation of the given cycle type on the weight-m space.

    Counts spin configurations of popcount m constant on every cycle:
    the coefficient of x^m in prod (1 + x^len).
    """
    coeffs = [0] * (sum(ctype) + 1)
    coeffs[0] = 1
    for length in ctype:
        nxt = list(coeffs)
        for e in range(len(coeffs) - length):
            if coeffs[e]:
                nxt[e + length] += coeffs[e]
        coeffs = nxt
    return coeffs[m] if m < len(coeffs) else 0


def _invariant_poly_series(ctype, order):
    """Molien factor of the z-permutation action: prod 1/(1 - q^len)."""
    out = QSeries.one(order)
    for length in ctype:
        out = out * geometric(length, order)
    return out


def molien_series(n, m, order) -> QSeries:
    """Graded dimensions (z-degree only) of (V^{(x)n}[n-m, m] (x) C[z])^{S_n}."""
    total = QSeries.const(0, order)
    for ctype in _partitions(n):
        count = _cycle_type_count(ctype, n)
        trace = _fixed_weight_trace(ctype, m)
        if trace == 0:
            continue
        total = total + (count * trace) * _invariant_poly_series(ctype, order)
    return Fraction(1, factorial(n)) * total


def molien_graded_weight_dimension(n, m, j) -> int:
    """Dimension of the z-degree-j piece of the invariant weight-(n-m,m) space."""
    if not (0 <= m <= n) or j < 0:
        return 0
    value = molien_series(n, m, j).coefficient(j)
    assert value.denominator == 1
    return int(value)


def symmetrizer_weight_dimension(n, m, j) -> int:
    """Rank cross-check of the Molien count for small n: explicit projector."""
    monos = [mono for mono in itertools.product(range(j + 1), repeat=n)
             if sum(mono) == j]
    masks = [mask for mask in range(1 << n) if mask.bit_count() == m]
    index = {}
    for mask in masks:
        for mono in monos:
            index[(mask, mono)] = len(index)
    rows = []
    for (mask, mono) in index:
        vec = SymbolicVector(n, {(mask, mono): Fraction(1)},
                             degree_bound=max(64, j))
        sym = symmetrize(vec)
        row = [Fraction(0)] * len(index)
        for key, c in sym.terms.items():
            row[index[key]] = c
        rows.append(row)
    _, pivots = rref(rows)
    return len(pivots)


def brute_isotypical_character(n, k, order) -> QSeries:
    """Graded character of the weight-(n-k, k) isotypic part of the invariants.

    Molien-count oracle: singular multiplicities in a fixed z-degree are the
    weight-space dimension minus the next higher weight-space dimension (the
    raising operator preserves z-degree and surjects onto higher weights);
    multiply by the weight string of each irreducible and shift by the
    popcount grading.
    """
    if 2 * k > n:
        raise InvalidWeightError(f"k = {k} exceeds n/2 = {n / 2}")
    inner = order + n + 1
    sing = molien_series(n, k, inner)
    if k >= 1:
        sing = sing - molien_series(n, k - 1, inner)
    string = QSeries.const(0, inner)
    for i in range(n - 2 * k + 1):
        string = string + QSeries(-i, [1] + [0] * (inner + i), inner)
    shifted = sing * string * QSeries(-k, [1] + [0] * (inner + k), inner)
    return shifted.truncate(order)


def char_isotypical_closed(n, k, order) -> QSeries:
    """Closed form for the graded character of an isotypic component.

    The same expression also gives the character of the corresponding
    deformed component, so a single helper serves both comparisons.
    """
    inner = order + 2 * n + 4
    one = QSeries.one(inner)
    num = one - QSeries.q_power(n - 2 * k + 1, inner)
    series = num * num * geometric(1, inner)
    series = series * qseries_pochhammer(n - k + 1, inner).inverse()
    series = series * qseries_pochhammer(k, inner).inverse()
    shift = QSeries(2 * k - n, [1] + [0] * (inner + n - 2 * k), inner)
    return (series * shift).truncate(order)


def char_bethe_zero_closed(n, k, order) -> QSeries:
    """Closed form for the graded character of the zero-twist Bethe image."""
    inner = order + 2 * n + 4
    one = QSeries.one(inner)
    series = one - QSeries.q_power(n - 2 * k + 1, inner)
    series = series * qseries_pochhammer(n - k + 1, inner).inverse()
    series = series * qseries_pochhammer(k, inner).inverse()
    shift = QSeries(2 * k - n, [1] + [0] * (inner + n - 2 * k), inner)
    return (series * shift).truncate(order)
