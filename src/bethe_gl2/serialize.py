"""Shared JSON conventions.

Rationals serialize as "p/q" strings (bare "p" when q = 1); nilpotent-ring
elements as arrays of coefficient strings by power of b; matrices as
row-major nested arrays; multivariate polynomials as sorted term lists;
q-series as {"lowest": int, "coeffs": [...]}.  Everything is deterministic:
terms are emitted in graded lexicographic order and floats in fixed-width
mpmath string form.
"""

from fractions import Fraction

import mpmath

from .linalg import Matrix
from .multipoly import MultiPoly
from .nilpotent import NilpotentElement
from .qseries import QSeries
from .unipoly import UniPoly


def fraction_to_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_fraction(s) -> Fraction:
    return Fraction(s)


def scalar_to_json(x, digits=30):
    if isinstance(x, (int, Fraction)):
        return fraction_to_str(x)
    return mpmath.nstr(mpmath.mpmathify(x), digits)


def nilpotent_to_json(x: NilpotentElement, digits=30):
    return [coeff_to_json(c, digits) for c in x.coeffs]


def coeff_to_json(c, digits=30):
    if isinstance(c, MultiPoly):
        return multipoly_to_json(c)
    return scalar_to_json(c, digits)


def multipoly_to_json(p: MultiPoly):
    return {"vars": list(p.vars),
            "terms": [{"exps": list(exps), "coeff": fraction_to_str(c)}
                      for exps, c in p.sorted_terms()]}


def matrix_to_json(m: Matrix):
    return [[fraction_to_str(x) for x in row] for row in m.data]


def unipoly_to_json(p: UniPoly, digits=30):
    out = []
    for c in p.coeffs:
        if isinstance(c, NilpotentElement):
            out.append(nilpotent_to_json(c, digits))
        else:
            out.append(coeff_to_json(c, digits))
    return out


def qseries_to_json(s: QSeries):
    return {"lowest": s.lo,
            "coeffs": [fraction_to_str(c) for c in s.coeffs]}
