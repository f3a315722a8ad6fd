"""Exact dense linear algebra over Q.

Everything here is Fraction arithmetic: echelon forms, kernels,
generalized eigenspaces, characteristic polynomials, Krylov certificates
of cyclic vectors (which give the minimal polynomial and the polynomials
expressing other vectors), and incremental span bases.
Numeric (high-precision float) routines live in `numeric`.
"""

from fractions import Fraction

from .errors import ShapeError
from .unipoly import UniPoly


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ShapeError("ragged rows")
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(1 if i == j else 0) for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """Dense matrix from sparse {(row, col): value} entries."""
        zero = Fraction(0)
        data = [[zero] * cols for _ in range(rows)]
        for (i, j), x in entries.items():
            data[i][j] = Fraction(x)
        mat = cls.__new__(cls)
        mat.rows, mat.cols, mat.data = rows, cols, data
        return mat

    @classmethod
    def from_columns(cls, columns):
        if not columns:
            return cls.zeros(0, 0)
        n = len(columns[0])
        return cls([[Fraction(col[i]) for col in columns] for i in range(n)])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeError(
                    f"({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})")
            ot = other.data
            out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
            for i, row in enumerate(self.data):
                out_i = out[i]
                for k, a in enumerate(row):
                    if a == 0:
                        continue
                    rk = ot[k]
                    for j, b in enumerate(rk):
                        if b != 0:
                            out_i[j] += a * b
            return Matrix(out)
        if isinstance(other, (int, Fraction)):
            return Matrix([[a * other for a in row] for row in self.data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Matrix([[other * a for a in row] for row in self.data])
        return NotImplemented

    def __rsub__(self, other):
        if other == 0:
            return -self
        return NotImplemented

    def __radd__(self, other):
        if other == 0:
            return self
        return NotImplemented

    def __pow__(self, exponent):
        if self.rows != self.cols:
            raise ShapeError("powers need a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix power")
        result = Matrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self.data == other.data
        if other == 0:
            return self.is_zero()
        return NotImplemented

    __hash__ = None

    def is_zero(self):
        return all(a == 0 for row in self.data for a in row)

    def apply(self, vector):
        return [sum((a * x for a, x in zip(row, vector) if a != 0),
                    Fraction(0)) for row in self.data]

    def trace(self):
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch")

    def __repr__(self):
        return "Matrix(" + ", ".join(str(row) for row in self.data) + ")"


def rref(rows):
    """Reduced row echelon form of a copy of rows; returns (rows, pivots).

    Scaling and elimination run only over the nonzero support of the pivot
    row, so sparse rows cost in proportion to their nonzeros.
    """
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        inv = 1 / row[c]
        # Entries left of c vanish in rows r and below.
        support = [(j, row[j] * inv) for j in range(c + 1, n_cols)
                   if row[j] != 0]
        row[c] = Fraction(1)
        for j, x in support:
            row[j] = x
        for i in range(n_rows):
            other = m[i]
            f = other[c]
            if i != r and f != 0:
                for j, x in support:
                    other[j] -= f * x
                other[c] = Fraction(0)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat.data)[1])


def kernel_basis(mat: Matrix):
    """Basis of the right null space, as a list of vectors.

    The basis is in reduced echelon form: stacking the vectors as rows and
    row-reducing returns them unchanged, so results are deterministic.  It
    is read off one echelon form of mat with its columns reversed: there
    each null vector has its 1 at a free column and its other entries at
    pivot columns to the left, which are the later columns of mat.
    """
    n_cols = mat.cols
    m, pivots = rref([row[::-1] for row in mat.data])
    free = sorted(set(range(n_cols)) - set(pivots), reverse=True)
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[n_cols - 1 - fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if pc > fc:
                break
            v[n_cols - 1 - pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve_unique(mat: Matrix, rhs):
    """The unique solution of mat * x = rhs, or None if none/ambiguous."""
    aug = [row + [b] for row, b in zip(mat.data, rhs)]
    m, pivots = rref(aug)
    if mat.cols in pivots:
        return None  # inconsistent
    if len(pivots) != mat.cols:
        return None  # underdetermined
    x = [Fraction(0)] * mat.cols
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x


def same_row_space(rows_a, rows_b):
    ra, pa = rref(rows_a)
    rb, pb = rref(rows_b)
    ra = [r for r in ra if any(x != 0 for x in r)]
    rb = [r for r in rb if any(x != 0 for x in r)]
    return ra == rb


def generalized_eigenspace(mat: Matrix, eigenvalue, exponent=None):
    """Basis columns of ker (mat - eigenvalue I)^exponent, reduced echelon.

    exponent defaults to the ambient dimension.  No power is formed: with
    S = mat - eigenvalue I, the chain grows as ker S^(k+1) = ker(A_k S),
    where the rows of A_k span the annihilator of ker S^k, until it
    stabilizes (at the nilpotency index) or reaches the exponent.
    """
    if mat.rows != mat.cols:
        raise ShapeError("generalized eigenspace of a non-square matrix")
    n = mat.rows
    if exponent is None:
        exponent = n
    shifted = mat - eigenvalue * Matrix.identity(n)
    basis = kernel_basis(shifted)
    for _ in range(1, exponent):
        if not 0 < len(basis) < n:
            break
        annihilator = Matrix(kernel_basis(Matrix(basis)))
        nxt = kernel_basis(annihilator * shifted)
        if len(nxt) == len(basis):
            break
        basis = nxt
    return Matrix.from_columns(basis) if basis else Matrix.zeros(n, 0)


def charpoly(mat: Matrix) -> UniPoly:
    """Characteristic polynomial det(u I - mat) by Faddeev-LeVerrier."""
    if mat.rows != mat.cols:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = mat.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m_k = Matrix.identity(n)
    for k in range(1, n + 1):
        m_k = mat * m_k
        c = -m_k.trace() / k
        coeffs[n - k] = c
        m_k = m_k + c * Matrix.identity(n)
    return UniPoly(coeffs)


def krylov_minpoly(mat: Matrix, v, extra_vectors=()):
    """Exact Krylov certificate that v is a cyclic vector of mat.

    One echelon form of the columns v, Av, ..., A^m v (m = mat.rows),
    followed by extra_vectors.  Returns None when the first m columns are
    dependent, i.e. v is not cyclic.  Otherwise returns (mu, coords): mu is
    the monic minimal polynomial of mat, and coords[i] is the polynomial Q_i
    of degree < m with Q_i(mat) v = extra_vectors[i].
    """
    if mat.rows != mat.cols:
        raise ShapeError("Krylov sequence of a non-square matrix")
    m = mat.rows
    columns = [list(v)]
    for _ in range(m):
        columns.append(mat.apply(columns[-1]))
    columns.extend(extra_vectors)
    reduced, pivots = rref(list(zip(*columns)))
    if pivots[:m] != list(range(m)):
        return None
    coords = [UniPoly([reduced[i][c] for i in range(m)])
              for c in range(m, len(columns))]
    mu = UniPoly.monomial(m) - coords[0]
    return mu, coords[1:]


class SpanBasis:
    """Incremental echelon basis of a subspace of Q^n."""

    def __init__(self):
        self.rows = []      # echelon rows, each with its pivot column
        self.pivots = []

    def _reduce(self, vector):
        v = list(map(Fraction, vector))
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        pivot = next((i for i, a in enumerate(v) if a != 0), None)
        if pivot is None:
            return None
        inv = Fraction(1) / v[pivot]
        return [a * inv for a in v], pivot

    def add(self, vector):
        """Insert vector; returns True when it enlarged the span."""
        reduced = self._reduce(vector)
        if reduced is None:
            return False
        v, p = reduced
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def dimension(self):
        return len(self.rows)
