"""High-precision numerics: joint generalized eigenspaces and snapping.

Exact matrices stay exact as long as possible; only the final splitting of
a deformed isotypic block into eigenleaves, whose eigenvalues are generically
irrational, runs in mpmath arithmetic.  Precision is explicit everywhere and
doubles on a PrecisionInsufficientError up to a hard cap.
"""

from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import PrecisionInsufficientError
from .linalg import Matrix

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024


def default_tolerance(precision):
    return mpmath.mpf(2) ** (-(precision // 2))


def to_mp(mat: Matrix) -> mpmath.matrix:
    out = mpmath.matrix(mat.rows, mat.cols)
    for i in range(mat.rows):
        for j in range(mat.cols):
            out[i, j] = mpmath.mpmathify(mat.data[i][j])
    return out


def sparse_to_mp(dim, entries) -> mpmath.matrix:
    """Dense dim x dim mpmath matrix from sparse {(row, col): value} entries."""
    out = mpmath.matrix(dim, dim)
    for (i, j), x in entries.items():
        out[i, j] = x
    return out


def snap_to_rational(value, precision, max_denominator=10 ** 6):
    """Nearest small-denominator rational, or None when not close enough.

    Closeness threshold is 2^(-precision/3), per the leaf-coefficient
    snapping policy; complex values snap only when essentially real.
    """
    tol = mpmath.mpf(2) ** (-(precision // 3))
    if isinstance(value, mpmath.mpc):
        if abs(value.imag) > tol:
            return None
        value = value.real
    approx = Fraction(mpmath.nstr(value, 50)).limit_denominator(max_denominator)
    if abs(value - mpmath.mpmathify(approx)) > tol:
        return None
    return approx


def _orthonormal_columns(b):
    q, _ = mpmath.qr(b)
    out = mpmath.matrix(b.rows, b.cols)
    for i in range(b.rows):
        for j in range(b.cols):
            out[i, j] = q[i, j]
    return out


def _singular_values(a):
    if any(isinstance(a[i, j], mpmath.mpc)
           for i in range(a.rows) for j in range(a.cols)):
        s = mpmath.svd_c(a, compute_uv=False)
    else:
        s = mpmath.svd_r(a, compute_uv=False)
    return sorted((mpmath.mpf(x) for x in s))


def _kernel_columns(a, dim, slack):
    """Columns spanning the dim smallest right-singular directions of a.

    The dim smallest singular values must sit below slack (relative to the
    largest) and be separated from the rest by a large relative gap.
    """
    complexish = any(isinstance(a[i, j], mpmath.mpc)
                     for i in range(a.rows) for j in range(a.cols))
    if complexish:
        _, s, v = mpmath.svd_c(a)
    else:
        _, s, v = mpmath.svd_r(a)
    order = sorted(range(len(s)), key=lambda i: abs(s[i]))
    scale = max(abs(s[i]) for i in range(len(s)))
    scale = scale if scale > 1 else mpmath.mpf(1)
    small = [abs(s[order[i]]) for i in range(dim)]
    if small and small[-1] > slack * scale:
        raise PrecisionInsufficientError(
            f"kernel singular value {small[-1]} above {slack * scale}")
    if len(s) > dim and abs(s[order[dim]]) < 100 * max(
            small[-1], slack * slack * scale):
        raise PrecisionInsufficientError("singular value gap too small")
    cols = mpmath.matrix(v.cols, dim)
    for j in range(dim):
        row = order[j]
        for i in range(v.cols):
            cols[i, j] = mpmath.conj(v[row, i])
    return cols


def conj_transpose(a):
    out = mpmath.matrix(a.cols, a.rows)
    for i in range(a.rows):
        for j in range(a.cols):
            out[j, i] = mpmath.conj(a[i, j])
    return out


def lstsq_mp(a, b):
    """Least squares via normal equations (qr_solve trips on zero patterns).

    Systems here are tiny and well-conditioned at working precision.
    Returns (solution column, residual norm).
    """
    ah = conj_transpose(a)
    x = mpmath.lu_solve(ah * a, ah * b)
    residual = mpmath.norm(a * x - b)
    return x, residual


def cluster_values(values, tol):
    """Group numerically equal values; returns list of (center, members)."""
    values = list(values)
    parents = list(range(len(values)))

    def find(i):
        while parents[i] != i:
            parents[i] = parents[parents[i]]
            i = parents[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= tol:
                parents[find(i)] = find(j)
    groups = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for idx in groups.values():
        center = sum(values[i] for i in idx) / len(idx)
        clusters.append((center, idx))
    clusters.sort(key=lambda cv: (mpmath.re(cv[0]), mpmath.im(cv[0])))
    return clusters


def _restrict(m_num, basis):
    """Restriction of m_num to the span of the orthonormal columns of basis.

    Raises PrecisionInsufficientError when the span is visibly not invariant.
    """
    bh = conj_transpose(basis)
    r = bh * (m_num * basis)
    residual = m_num * basis - basis * r
    scale = mpmath.mnorm(m_num, 1) + 1
    if mpmath.mnorm(residual, 1) > mpmath.mpf(2) ** (-mp.prec // 4) * scale:
        raise PrecisionInsufficientError("subspace not numerically invariant")
    return r


def block_restrictions(mats_num, kernel_of, dim):
    """Restrictions of mats_num to the dim-dimensional kernel of kernel_of.

    The kernel's singular-value bound and gap, and the invariance of its
    span under every matrix, are checked; a failure of either is a
    PrecisionInsufficientError.  Must run inside an mp.workprec block.
    """
    slack = mpmath.mpf(2) ** (-(mp.prec // 4))
    basis = _orthonormal_columns(_kernel_columns(kernel_of, dim, slack))
    return [_restrict(m, basis) for m in mats_num]


def _merge_radius(subdim, scale):
    """Eigenvalue merge radius for a possibly defective subspace.

    Computed eigenvalues of a Jordan block of size m scatter like
    eps^(1/m); Jordan sizes here are bounded by the leaf dimension, at most
    6 at the supported module sizes.  Cluster means are still eps-accurate,
    so downstream kernels stay sharp despite the generous radius.
    """
    m = max(2, min(subdim, 6))
    return scale * mpmath.mpf(2) ** (-(mp.prec // (2 * m)))


def joint_split_mp(mats_num):
    """Joint generalized eigenspace split of pre-converted mpmath matrices.

    Must run inside an mp.workprec block.  Returns (eigenvalue tuple, basis)
    pairs with orthonormal column bases whose union spans the space.
    """
    n = mats_num[0].rows if mats_num else 0
    slack = mpmath.mpf(2) ** (-(mp.prec // 4))
    spaces = [((), mpmath.eye(n))]
    for m_num in mats_num:
        scale = mpmath.mnorm(m_num, 1) + 1
        refined = []
        for values, basis in spaces:
            dim = basis.cols
            r = _restrict(m_num, basis)
            if dim == 1:
                # mpmath.eig ignores the no-vector flags on 1x1 input
                eigs = [r[0, 0]]
            else:
                try:
                    eigs = mpmath.eig(r, left=False, right=False)
                except RuntimeError as exc:
                    # mpmath's QR iteration stalls on near-scalar clusters.
                    raise PrecisionInsufficientError(
                        f"eigenvalues of a {dim}x{dim} restriction: {exc}")
            radius = _merge_radius(dim, scale)
            clusters = cluster_values(eigs, radius)
            if len(clusters) > 1:
                centers = [c for c, _ in clusters]
                sep = min(abs(a - b)
                          for i, a in enumerate(centers)
                          for b in centers[i + 1:])
                if sep <= 10 * radius:
                    raise PrecisionInsufficientError(
                        f"cluster separation {sep} below margin")
            for center, members in clusters:
                mult = len(members)
                if mult == dim:
                    refined.append((values + (center,), basis))
                    continue
                shifted = r - center * mpmath.eye(dim)
                power = mpmath.eye(dim)
                for _ in range(mult):
                    power = power * shifted
                cols = _kernel_columns(power, mult, slack)
                refined.append(
                    (values + (center,),
                     _orthonormal_columns(basis * cols)))
        spaces = refined
    total = sum(b.cols for _, b in spaces)
    if total != n:
        raise PrecisionInsufficientError(
            f"subspace dimensions sum to {total}, expected {n}")
    union = mpmath.matrix(n, n)
    col = 0
    for _, b in spaces:
        for j in range(b.cols):
            for i in range(n):
                union[i, col] = b[i, j]
            col += 1
    smin = _singular_values(union)[0]
    if smin < slack:
        raise PrecisionInsufficientError(
            f"basis union nearly singular (sigma_min = {smin})")
    return spaces


def with_precision_escalation(fn, precision=DEFAULT_PRECISION,
                              maximum=MAX_PRECISION):
    """Run fn(precision), doubling the precision while it reports shortfall."""
    while True:
        try:
            return fn(precision)
        except PrecisionInsufficientError:
            if precision >= maximum:
                raise
            precision *= 2
