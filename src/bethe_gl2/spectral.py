"""Spectral decompositions of the twisted Bethe family on evaluation modules.

Two layers: deformed isotypic blocks are exact generalized eigenspaces of
the quadratic coefficient over Q; the splitting of a block into eigenleaves,
whose joint eigenvalues are generically irrational, runs at explicit mpmath
precision with escalation.  Leaf data can be snapped back to rationals when
a theorem guarantees rationality.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .betheop import (KMatrix, UniversalOperator, b2_residues, u_coefficients,
                      universal_operator)
from .errors import (GenericityError, MatchCountError,
                     PrecisionInsufficientError, TheoremViolationError)
from .gl2rep import EvalModule, WeightLabel, singular_subspace, syt_count
from .linalg import (Matrix, charpoly, generalized_eigenspace, kernel_basis,
                     rref, same_row_space)
from .numeric import (DEFAULT_PRECISION, MAX_PRECISION, block_restrictions,
                      conj_transpose, default_tolerance, joint_split_mp,
                      lstsq_mp, snap_to_rational, sparse_to_mp, to_mp,
                      with_precision_escalation)
from .unipoly import UniPoly, is_squarefree, poly_wronskian


def weight_labels(n):
    return [WeightLabel(n - k, k) for k in range(n // 2 + 1)]


def block_eigenvalue(weight: WeightLabel) -> Fraction:
    """Central character value k(n-k+1) of the quadratic coefficient."""
    return Fraction(weight.k * (weight.n - weight.k + 1))


def _column_pivots(basis: Matrix):
    pivots = []
    for j in range(basis.cols):
        col = basis.column(j)
        pivots.append(next(i for i, x in enumerate(col) if x != 0))
    return pivots


def restrict_exact(mat: Matrix, basis: Matrix, pivots) -> Matrix:
    """Matrix of mat on the invariant span of basis columns, exactly.

    Columns of basis are reduced-echelon, so the pivot rows of mat*basis are
    the coordinates; invariance is verified exactly.
    """
    image = mat * basis
    restricted = Matrix([[image.data[p][j] for j in range(basis.cols)]
                         for p in pivots])
    if basis * restricted != image:
        raise TheoremViolationError("subspace is not invariant")
    return restricted


class IsotypicBlock:
    """Deformed isotypic component of an evaluation module."""

    def __init__(self, operator: UniversalOperator, weight, basis):
        self.operator = operator
        self.module = operator.module
        self.weight = weight
        self.eigenvalue = block_eigenvalue(weight)
        self.basis = basis
        self.pivots = _column_pivots(basis)
        self._residues_restricted = None
        self._u_restricted = None

    @property
    def dim(self):
        return self.basis.cols

    def _residues(self):
        if self._residues_restricted is None:
            self._residues_restricted = [
                restrict_exact(res, self.basis, self.pivots)
                for res in self.operator.series.residues]
        return self._residues_restricted

    def u_restricted(self):
        """Restrictions of U_1..U_n to the block, exact."""
        if self._u_restricted is None:
            self._u_restricted = [restrict_exact(u, self.basis, self.pivots)
                                  for u in self.operator.u]
        return self._u_restricted

    def bethe_restricted(self, j) -> Matrix:
        """Restriction of the u^{-j} coefficient of the quadratic series."""
        acc = Matrix.zeros(self.dim, self.dim)
        for point, res in zip(self.module.points, self._residues()):
            acc = acc + point ** (j - 1) * res
        return acc


def deformed_isotypical_decomposition(module: EvalModule, kmat: KMatrix):
    """Exact generalized-eigenspace blocks of the quadratic coefficient.

    Each block is computed as ker (B22 - lam)^e with the exponent the theorem
    gives: e = d + 1 for the nilpotent twist, e = 1 for the zero twist.  Each
    such kernel lies in its generalized eigenspace, so when the dimensions
    match (d+1) times the tableau count and exhaust the module, every kernel
    is the whole generalized eigenspace, and for the zero twist an honest
    eigenspace.  A mismatch is a theorem violation.
    """
    op = universal_operator(module, kmat)
    b22 = op.bethe_coefficient(2, 2)
    blocks = []
    total = 0
    for weight in weight_labels(module.n):
        exponent = weight.d + 1 if kmat.k21 != 0 else 1
        basis = generalized_eigenspace(b22, block_eigenvalue(weight), exponent)
        expected = (weight.d + 1) * syt_count(weight)
        if basis.cols != expected:
            raise TheoremViolationError(
                f"block ({weight.lam1},{weight.lam2}) has dimension "
                f"{basis.cols}, expected {expected}")
        blocks.append(IsotypicBlock(op, weight, basis))
        total += basis.cols
    if total != module.dim:
        raise TheoremViolationError(
            f"blocks span dimension {total} of {module.dim}")
    return blocks


def triangular_block_basis(block: IsotypicBlock):
    """Certify the filtration shape of a deformed block and build the basis.

    For every weight level, the part of the block supported on that level
    and lower must project onto exactly the honest isotypic weight piece.
    Returns (matrix of w_i columns, report); each w_i is a weight vector of
    the zero-twist component plus strictly lower-weight corrections.
    """
    module = block.module
    n = module.n
    weight = block.weight
    # The twist term lowers weight by exactly one, so on each weight level
    # the block's B22 equals the plain one (checked by nilp_formula_check).
    b22 = block.operator.bethe_coefficient(2, 2)
    lam = block.eigenvalue
    columns = []
    failures = []
    block_rows = [block.basis.column(j) for j in range(block.dim)]
    for m in range(weight.k, n - weight.k + 1):
        low_indices = [i for i in range(module.dim)
                       if module.basis[i].bit_count() >= m]
        level = [i for i in range(module.dim)
                 if module.basis[i].bit_count() == m]
        # Part of the block supported on weight <= (n-m, m).
        sub = _subspace_with_support(block_rows, low_indices, module.dim)
        projected = [[v[i] for i in level] for v in sub]
        projected_r, piv = rref(projected)
        projected_r = [r for r in projected_r if any(x != 0 for x in r)]
        # Honest isotypic piece at this weight: eigenspace of the plain
        # quadratic coefficient restricted to the weight space.
        restricted = Matrix([[b22.data[i][j] for j in level]
                             for i in level])
        target = kernel_basis(
            restricted - lam * Matrix.identity(len(level)))
        if not same_row_space(projected_r, target):
            failures.append(f"weight level {m}")
            continue
        for tvec in target:
            lift = _lift_through_projection(sub, level, tvec)
            columns.append(lift)
    ok = not failures and len(columns) == block.dim
    report = {"name": "triangular_block_basis", "pass": ok,
              "failures": failures}
    basis = Matrix.from_columns(columns) if columns else Matrix.zeros(
        module.dim, 0)
    return basis, report


def _subspace_with_support(vectors, allowed, dim):
    """Basis of the subspace of span(vectors) supported on allowed indices."""
    banned = [i for i in range(dim) if i not in set(allowed)]
    if not vectors:
        return []
    if not banned:
        reduced, _ = rref(vectors)
        return [r for r in reduced if any(x != 0 for x in r)]
    constraint = Matrix([[v[i] for v in vectors] for i in banned])
    combos = kernel_basis(constraint)
    out = []
    for combo in combos:
        vec = [Fraction(0)] * dim
        for c, v in zip(combo, vectors):
            if c != 0:
                vec = [x + c * y for x, y in zip(vec, v)]
        out.append(vec)
    reduced, _ = rref(out) if out else ([], [])
    return [r for r in reduced if any(x != 0 for x in r)]


def _lift_through_projection(sub_vectors, level, target):
    """A vector of span(sub_vectors) whose level-coordinates equal target."""
    system = Matrix([[v[i] for v in sub_vectors] for i in level])
    aug = [row + [t] for row, t in zip(system.data, target)]
    reduced, pivots = rref(aug)
    ncols = len(sub_vectors)
    if ncols in pivots:
        raise TheoremViolationError("projection target not attained")
    combo = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        combo[c] = reduced[r][-1]
    dim = len(sub_vectors[0])
    vec = [Fraction(0)] * dim
    for c, v in zip(combo, sub_vectors):
        if c != 0:
            vec = [x + c * y for x, y in zip(vec, v)]
    return vec


# ---------------------------------------------------------------------------
# Eigenleaves
# ---------------------------------------------------------------------------

@dataclass
class EigenLeaf:
    """Joint generalized eigenspace of the twisted family inside a block.

    basis columns live in block coordinates and are orthonormal; phi maps
    j to the scalar part of the u^{-j} series coefficient on the leaf.
    """
    block: IsotypicBlock
    basis: object
    values: tuple
    phi: dict
    n_matrix: object
    precision: int
    nilpotency_residual: object

    @property
    def dim(self):
        return self.basis.cols

    def restrict(self, exact_matrix_on_block):
        """Numeric restriction of an exact block matrix to the leaf."""
        m_num = to_mp(exact_matrix_on_block)
        bh = conj_transpose(self.basis)
        return bh * (m_num * self.basis)


def _matrix_norm(a):
    return mpmath.mnorm(a, 1) if a.rows and a.cols else mpmath.mpf(0)


def eigenleaf_decomposition(block: IsotypicBlock,
                            precision=DEFAULT_PRECISION):
    """Split a block into eigenleaves at the given starting precision.

    The index family is the restriction of U_2..U_n; precision doubles on
    clustering failures up to the global cap.  Leaf count and dimensions are
    checked against the tableau count and weight string length.
    """
    def attempt(prec):
        u_ops = block.u_restricted()
        mats = u_ops[1:]  # U_2..U_n
        with mp.workprec(prec):
            tol = default_tolerance(prec)
            if mats:
                spaces = joint_split_mp([to_mp(m) for m in mats])
            else:
                spaces = [((), mpmath.eye(block.dim))]
            leaves = []
            n1 = to_mp(u_ops[0]) if u_ops else mpmath.eye(block.dim)
            for values, basis in spaces:
                bh = conj_transpose(basis)
                n_mat = bh * (n1 * basis)
                d = basis.cols - 1
                power = mpmath.eye(basis.cols)
                for _ in range(d):
                    power = power * n_mat
                if d >= 0 and basis.cols > 1 and _matrix_norm(power) <= tol:
                    # Below the cap this is a precision shortfall: a split
                    # at too low a precision can return subspaces that are
                    # not leaves, on which N dies early.
                    error = (PrecisionInsufficientError if prec < MAX_PRECISION
                             else TheoremViolationError)
                    raise error(
                        "nilpotent generator vanished before its index")
                residual = _matrix_norm(power * n_mat)
                scale = max(_matrix_norm(n1), mpmath.mpf(1))
                if residual > tol * scale:
                    raise PrecisionInsufficientError(
                        f"nilpotency residual {residual}")
                phi = {}
                for j in range(2, block.module.n + 1):
                    rj = bh * (to_mp(block.bethe_restricted(j)) * basis)
                    phi[j] = sum(rj[i, i] for i in range(rj.rows)) / rj.rows
                leaves.append(EigenLeaf(
                    block, basis, values, phi, n_mat, prec, residual))
        expected = syt_count(block.weight)
        if len(leaves) != expected:
            raise TheoremViolationError(
                f"{len(leaves)} leaves for ({block.weight.lam1},"
                f"{block.weight.lam2}), expected {expected}")
        leaf_dim = block.weight.d + 1
        if any(leaf.dim != leaf_dim for leaf in leaves):
            raise TheoremViolationError("leaf dimension mismatch")
        return leaves

    return with_precision_escalation(attempt, precision)


@dataclass
class LeafOperator:
    """Leaf data of the second-order operator: U_i as powers of the nilpotent.

    coeffs[i-1][j] is the coefficient of N^j in U_i restricted to the leaf;
    entries are Fractions where snapping succeeded, else mpmath floats.
    exact is True when every coefficient snapped.
    """
    leaf: EigenLeaf
    w_poly: UniPoly
    coeffs: list
    exact: bool
    residual: object

    @property
    def d(self):
        return self.leaf.dim - 1

    def u_elements(self):
        from .nilpotent import NilpotentElement
        return [NilpotentElement(self.d, row) for row in self.coeffs]

    def scalar_parts(self):
        """c_{i0} for i = 2..n (the scalar second-order operator data)."""
        return [row[0] for row in self.coeffs[1:]]


def decompose_in_nilpotent_powers(mat_num, n_mat, tol):
    """Least-squares coefficients of mat_num in the basis I, N, ..., N^d.

    Returns (coefficients, residual); residual above tol means the matrix is
    not a polynomial in the nilpotent at working precision.
    """
    size = n_mat.rows
    d = size - 1
    basis = []
    power = mpmath.eye(size)
    for _ in range(d + 1):
        basis.append(power)
        power = power * n_mat
    rows = size * size
    a = mpmath.matrix(rows, d + 1)
    b = mpmath.matrix(rows, 1)
    for idx in range(rows):
        i, j = divmod(idx, size)
        for col, mat in enumerate(basis):
            a[idx, col] = mat[i, j]
        b[idx, 0] = mat_num[i, j]
    if d == 0:
        return [mat_num[0, 0]], mpmath.mpf(0)
    x, residual = lstsq_mp(a, b)
    return [x[i, 0] for i in range(d + 1)], residual


def leaf_operator(leaf: EigenLeaf) -> LeafOperator:
    """Express each restricted U_i as a polynomial in the leaf nilpotent.

    The linear coefficient vector of U_1 must snap to (0, 1, 0, ...), and the
    snapped constant of U_2 must equal the block eigenvalue exactly.
    """
    block = leaf.block
    module = block.module
    n = module.n
    weight = block.weight
    with mp.workprec(leaf.precision):
        tol = default_tolerance(leaf.precision)
        scale = mpmath.mpf(1)
        coeff_rows = []
        exact = True
        worst = mpmath.mpf(0)
        u_ops = block.u_restricted()
        for i in range(1, n + 1):
            restricted = leaf.restrict(u_ops[i - 1])
            coeffs, residual = decompose_in_nilpotent_powers(
                restricted, leaf.n_matrix, tol)
            scale = max(scale, _matrix_norm(restricted))
            if residual > tol * scale:
                raise GenericityError(
                    f"U_{i} is not a polynomial in N (residual {residual}); "
                    "regenerate the evaluation points")
            worst = max(worst, residual)
            row = []
            for c in coeffs:
                snapped = snap_to_rational(c, leaf.precision)
                if snapped is None:
                    row.append(c)
                else:
                    row.append(snapped)
            # Re-verify: a nearby small-denominator rational can sit within
            # the snap threshold of a genuinely irrational coefficient, so
            # snaps only survive if they reproduce the restriction.
            if any(isinstance(c, Fraction) for c in row):
                recon = mpmath.zeros(leaf.dim, leaf.dim)
                power = mpmath.eye(leaf.dim)
                for c in row:
                    recon += mpmath.mpmathify(c) * power
                    power = power * leaf.n_matrix
                if _matrix_norm(recon - restricted) > tol * scale:
                    row = list(coeffs)
            if not all(isinstance(c, Fraction) for c in row):
                exact = False
            coeff_rows.append(row)
        # U_1 is the nilpotent itself.
        u1 = coeff_rows[0]
        expected_u1 = [Fraction(0), Fraction(1)] + [Fraction(0)] * (leaf.dim - 2)
        if leaf.dim == 1:
            expected_u1 = [Fraction(0)]
        u1_exact = all(isinstance(c, Fraction) for c in u1)
        if u1_exact:
            if u1 != expected_u1[:len(u1)]:
                raise TheoremViolationError(
                    f"U_1 on the leaf decomposed as {u1}, expected N itself")
        else:
            drift = max(abs(mpmath.mpmathify(c) - mpmath.mpmathify(e))
                        for c, e in zip(u1, expected_u1))
            if drift > tol * scale:
                raise TheoremViolationError(
                    f"U_1 on the leaf decomposed as {u1}, expected N itself")
            coeff_rows[0] = expected_u1[:len(u1)]
        c20 = coeff_rows[1][0] if n >= 2 else None
        expected_c20 = block_eigenvalue(weight)
        if c20 is not None:
            if isinstance(c20, Fraction):
                if c20 != expected_c20:
                    raise TheoremViolationError(
                        f"c_20 = {c20}, expected {expected_c20}")
            elif abs(c20 - mpmath.mpmathify(expected_c20)) > tol * scale:
                raise TheoremViolationError(
                    f"c_20 = {c20} not within tolerance of {expected_c20}")
            else:
                coeff_rows[1][0] = expected_c20
    w_poly = UniPoly.from_roots(module.points)
    return LeafOperator(leaf, w_poly, coeff_rows, exact, worst)


# ---------------------------------------------------------------------------
# The singular spectrum
# ---------------------------------------------------------------------------

def singular_restriction(module: EvalModule, weight: WeightLabel):
    """Exact restrictions of the plain quadratic coefficients to sing[weight].

    Returns (basis, [restriction of B^0_{2j} for j = 2..n]).
    """
    basis = singular_subspace(module, weight)
    if basis.cols == 0:
        return basis, []
    pivots = _column_pivots(basis)
    op0 = universal_operator(module, KMatrix.zero())
    mats = [restrict_exact(op0.bethe_coefficient(2, j), basis, pivots)
            for j in range(2, module.n + 1)]
    return basis, mats


def singular_spectrum_identity(block: IsotypicBlock, sing_mats, coeffs):
    """Exact link between a deformed block and the plain singular spectrum.

    Y is sum_j c_j B_{2j} on the block and Y0 the same combination of the
    plain coefficients on the singular space (sing_mats and coeffs run over
    j = 2..n).  charpoly(Y0) must be squarefree and charpoly(Y) must equal
    charpoly(Y0)^(d+1): the leaves then have dimension d+1 and their scalars
    are the points of the simple plain spectrum.  The minimal polynomial of
    Y cannot stand in for charpoly(Y), since Y need not be regular (block
    (2,0) at points -3, 3).  Returns a failure message, or None.
    """
    if not sing_mats:
        return None
    weight = block.weight
    y = sum(c * block.bethe_restricted(j) for j, c in enumerate(coeffs, 2))
    y0 = sum(c * m for c, m in zip(coeffs, sing_mats))
    plain = charpoly(y0)
    if not is_squarefree(plain):
        return f"spectrum of {weight} combination not simple"
    if charpoly(y) != plain ** (weight.d + 1):
        return (f"block {weight} charpoly is not the singular charpoly "
                "to the power d+1")
    return None


def singular_spectrum_match(blocks, seed=0):
    """Singular dimensions and the exact singular-spectrum identity per block.

    The singular space of each weight has dimension #SYT, and every deformed
    block satisfies singular_spectrum_identity for a seeded random rational
    combination of the coefficients.
    """
    rng = random.Random(seed)
    failures = []
    for block in blocks:
        weight = block.weight
        basis, mats = singular_restriction(block.module, weight)
        count = syt_count(weight)
        if basis.cols != count:
            failures.append(f"sing dim {basis.cols} != {count} at {weight}")
            continue
        coeffs = [Fraction(rng.randint(1, 99), rng.randint(1, 9))
                  for _ in mats]
        failure = singular_spectrum_identity(block, mats, coeffs)
        if failure:
            failures.append(failure)
    return {"name": "singular_spectrum_match", "pass": not failures,
            "failures": failures}


# ---------------------------------------------------------------------------
# Pairs of polynomials -> leaves (the roundtrip)
# ---------------------------------------------------------------------------

@dataclass
class RoundtripResult:
    """The matched leaf of a polynomial pair.

    matched_index counts the leaves of all blocks in block order (the
    leaves of lower k first).
    """
    mode: str
    points: list
    match_count: int
    matched_index: int
    target_scalars: list


def leaf_from_polynomials(f0: UniPoly, g0: UniPoly,
                          precision=DEFAULT_PRECISION,
                          match_tol_exponent=40):
    """Locate the unique leaf whose scalar operator is built from (f0, g0).

    The evaluation points are the roots of the Wronskian normalized by its
    actual leading coefficient.  Rational roots give the exact pipeline;
    irrational (real) roots switch to the numeric-module pipeline, flagged
    by mode="numeric".  Every leaf has c_20 equal to its block eigenvalue
    k(n-k+1), distinct for k <= n/2, so only the block of weight (n-k, k)
    with k = deg f0 can hold the match and only that block is split.
    """
    k = f0.degree()
    n = k + g0.degree() - 1
    d = n - 2 * k
    if d < 0:
        raise GenericityError("degree pattern requires deg g0 >= deg f0 + 1")
    if f0.leading() != 1 or g0.leading() != 1:
        raise GenericityError("both polynomials must be monic")
    wr = poly_wronskian(f0, g0)
    if wr.degree() != n:
        raise GenericityError("Wronskian degree collapsed; pair is degenerate")
    lc = wr.leading()
    wr_monic = wr.scale(Fraction(1) / lc)
    if not is_squarefree(wr_monic):
        raise GenericityError("Wronskian is not squarefree")
    target_poly = poly_wronskian(f0.derivative(), g0.derivative()).scale(
        Fraction(1) / lc)
    target = [target_poly.coefficient(n - i) for i in range(2, n + 1)]
    weight = WeightLabel(n - k, k)
    offset = sum(syt_count(WeightLabel(n - j, j)) for j in range(k))
    match_tol = mpmath.mpf(2) ** (-match_tol_exponent)
    with mp.workprec(precision):
        roots = mpmath.polyroots(
            [mpmath.mpmathify(wr_monic.coefficient(p))
             for p in range(n, -1, -1)], maxsteps=200, extraprec=precision)
        reals = []
        for r in roots:
            if abs(mpmath.im(r)) > mpmath.mpf(2) ** (-precision // 4):
                raise GenericityError("Wronskian has non-real roots")
            reals.append(mpmath.re(r))
        snapped = [snap_to_rational(r, precision) for r in reals]
        if all(s is not None for s in snapped) and \
                all(wr_monic(s) == 0 for s in snapped) and \
                len(set(snapped)) == n:
            blocks = deformed_isotypical_decomposition(
                EvalModule(n, snapped), KMatrix.nilpotent())
            scalars = [[mpmath.mpmathify(c)
                        for c in leaf_operator(leaf).scalar_parts()]
                       for leaf in eigenleaf_decomposition(blocks[k],
                                                           precision)]
            mode, points = "exact", snapped
        else:
            entries = with_precision_escalation(
                lambda prec: numeric_leaf_scalars(reals, prec, weight),
                precision)
            scalars = [entry["scalars"] for entry in entries]
            mode, points = "numeric", reals
        matches = []
        for idx, cs in enumerate(scalars):
            dist = max((abs(c - mpmath.mpmathify(t))
                        for c, t in zip(cs, target)), default=mpmath.mpf(0))
            if dist < match_tol:
                matches.append(offset + idx)
    if len(matches) != 1:
        raise MatchCountError(
            f"{len(matches)} leaves matched the scalar operator")
    return RoundtripResult(mode, points, len(matches), matches[0], target)


def numeric_leaf_scalars(points_mpf, precision, weight):
    """Leaf scalar data of one deformed block of a numeric evaluation module.

    The residues and U_1..U_n come from the exact sparse assembly run on
    mpf points.  The block of the given weight is the numeric kernel of
    (U_2 - lam)^(d+1) at its known dimension (d+1) * syt_count; the integer
    gaps between block eigenvalues keep that kernel well conditioned.  On
    the block U_2 is lam plus a nilpotent, so only U_3..U_n split it.
    Reports per leaf the dimension and the scalar parts of U_2..U_n.
    """
    n = len(points_mpf)
    structure = EvalModule(n, range(n))
    with mp.workprec(precision):
        pts = [mpmath.mpmathify(p) for p in points_mpf]
        residues = b2_residues(structure, pts, KMatrix.nilpotent().k21)
        u_mats = [sparse_to_mp(structure.dim, u)
                  for u in u_coefficients(pts, residues)]
        lam = mpmath.mpmathify(block_eigenvalue(weight))
        shifted = u_mats[1] - lam * mpmath.eye(structure.dim)
        dim = (weight.d + 1) * syt_count(weight)
        block_u = block_restrictions(u_mats, shifted ** (weight.d + 1), dim)
        spaces = joint_split_mp(block_u[2:]) if n > 2 else [
            ((), mpmath.eye(dim))]
        out = []
        for _, basis in spaces:
            bh = conj_transpose(basis)
            out.append({"dim": basis.cols, "scalars": [
                sum((bh * (u * basis))[r, r] for r in range(basis.cols))
                / basis.cols for u in block_u[1:]]})
        return out
