"""Sparse multivariate polynomials over Q with a fixed, ordered variable set.

Monomials are exponent tuples aligned with the variable tuple; no zero
coefficients are ever stored.  Display and serialization order terms in
graded lexicographic order of the exponent tuples, so printed forms and
golden files are deterministic.
"""

from fractions import Fraction

from .errors import RingMismatchError


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != len(self.vars):
                raise ValueError("exponent tuple does not match variable set")
            c = Fraction(c)
            if c != 0:
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables, value):
        value = Fraction(value)
        if value == 0:
            return cls(variables)
        zero = (0,) * len(tuple(variables))
        return cls(variables, {zero: value})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def as_constant(self):
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if all(e == 0 for e in exps):
                return c
        return None

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def extract_linear(self, name):
        """Split into (a, rest) with self = a*name + rest, name absent from both.

        Raises ValueError if self is not linear in the variable.
        """
        i = self.vars.index(name)
        a_terms, rest_terms = {}, {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                rest_terms[exps] = c
            elif exps[i] == 1:
                stripped = exps[:i] + (0,) + exps[i + 1:]
                a_terms[stripped] = a_terms.get(stripped, Fraction(0)) + c
            else:
                raise ValueError(f"not linear in {name}")
        return MultiPoly(self.vars, a_terms), MultiPoly(self.vars, rest_terms)

    def homogeneous_degree(self, weights):
        """Common weighted degree of all terms, or None (zero poly or mixed).

        weights maps variable name -> integer degree.
        """
        degs = {
            sum(w * e for w, e in zip((weights[v] for v in self.vars), exps))
            for exps in self.terms
        }
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise RingMismatchError(
                    f"variable sets differ: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.const(self.vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def substitute(self, values, one):
        """Evaluate with each variable replaced by values[name] in a target ring.

        `one` is the multiplicative identity of the target ring; variables with
        zero exponent everywhere need no entry in `values`.
        """
        total = None
        for exps, c in self.sorted_terms():
            term = None
            for name, e in zip(self.vars, exps):
                if e == 0:
                    continue
                factor = values[name]
                piece = factor
                for _ in range(e - 1):
                    piece = piece * factor
                term = piece if term is None else term * piece
            if term is None:
                term = one
            term = c * term
            total = term if total is None else total + term
        if total is None:
            total = 0 * one
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps) if e)
            if mono:
                parts.append(f"({c})*{mono}" if c != 1 else mono)
            else:
                parts.append(f"{c}")
        return " + ".join(parts)
