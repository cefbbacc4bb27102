"""Exact multivariate polynomials over the integers.

A polynomial in ``n`` variables x1..xn is stored sparsely as a dict mapping
exponent vectors (length-``n`` tuples of non-negative ints) to *nonzero*
integer coefficients.  The zero polynomial has an empty dict and degree -1
by convention.  All arithmetic is exact Python-int arithmetic.

Canonical term order is graded lexicographic, descending: higher total
degree first, ties broken by comparing exponent vectors as tuples (larger
first).  ``format_poly`` prints in that order, e.g. ``x1^4 - 3*x1^2*x2 - 7``.

The text grammar accepted by :func:`parse_poly`::

    poly := term (('+'|'-') term)*
    term := [integer] ('*'? var)*
    var  := 'x' index ('^' exponent)?

Degree and variable-count caps (default 12 each) are enforced at parse
time only; internal operations such as products may exceed them freely.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError

MAX_DEGREE = 12
MAX_NVARS = 12


def _glex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class IntPoly:
    """Sparse integer polynomial in a fixed number of variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, int] | None = None):
        if n < 0:
            raise InputError("number of variables must be >= 0", n=n)
        self.n = int(n)
        clean: dict[tuple, int] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise InputError("bad exponent vector", exps=list(exps), n=n)
                c = int(c)
                if c:
                    clean[exps] = clean.get(exps, 0) + c
                    if not clean[exps]:
                        del clean[exps]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "IntPoly":
        return cls(n, {})

    @classmethod
    def const(cls, n: int, c: int) -> "IntPoly":
        return cls(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "IntPoly":
        """The monomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise InputError("variable index out of range", i=i, n=n)
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=lambda t: _glex_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPoly(self.n, out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return IntPoly(self.n, out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(self.n, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise InputError("negative power", k=k)
        result = IntPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _check_compatible(self, other: "IntPoly") -> None:
        if not isinstance(other, IntPoly) or other.n != self.n:
            raise InputError("mixed variable counts in polynomial arithmetic")

    # -- calculus and structure -------------------------------------------

    def partial(self, i: int) -> "IntPoly":
        """Partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise InputError("variable index out of range", i=i, n=self.n)
        j = i - 1  # distinct monomials differentiate to distinct monomials
        return IntPoly(self.n, {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                                for e, c in self.terms.items() if e[j]})

    def leading_form(self) -> "IntPoly":
        """The homogeneous part of top degree (zero poly for the zero poly)."""
        d = self.degree()
        if d < 0:
            return IntPoly.zero(self.n)
        return IntPoly(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def eval(self, point: Sequence) -> int | Fraction:
        """Evaluate at a point of ints or Fractions (exact)."""
        if len(point) != self.n:
            raise InputError("point has wrong length", got=len(point), n=self.n)
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                if ei:
                    v *= xi**ei
            total += v
        return total

    def shift(self, v: Sequence[int]) -> "IntPoly":
        """Return f(x + v) for an integer vector v, expanded exactly."""
        if len(v) != self.n:
            raise InputError("shift vector has wrong length", got=len(v), n=self.n)
        v = [int(c) for c in v]
        if all(c == 0 for c in v):
            return self
        out: dict[tuple, int] = {}
        for exps, c in self.terms.items():
            rows = []
            for i, e in enumerate(exps):
                rows.append(
                    [(j, math.comb(e, j) * v[i] ** (e - j)) for j in range(e + 1)]
                )
            for combo in itertools.product(*rows):
                coef = c
                for _, b in combo:
                    coef *= b
                if coef:
                    ne = tuple(j for j, _ in combo)
                    out[ne] = out.get(ne, 0) + coef
        return IntPoly(self.n, out)

    def __repr__(self):
        return f"IntPoly({self.n}, {format_poly(self)!r})"


# -- difference operators ---------------------------------------------------


def diff_y(f: IntPoly, y: Sequence[int]) -> IntPoly:
    """First difference f(x+y) - f(x)."""
    return f.shift(y) - f


def diff_yz(f: IntPoly, y: Sequence[int], z: Sequence[int]) -> IntPoly:
    """Second difference f(x+y+z) - f(x+y) - f(x+z) + f(x).

    Symmetric in y and z, and equal to diff_y(diff_y(f, y), z).
    """
    yz = [a + b for a, b in zip(y, z)]
    return f.shift(yz) - f.shift(y) - f.shift(z) + f


def directional_form(F: IntPoly, y: Sequence[int]) -> IntPoly:
    """The contraction y . grad F = sum_i y_i dF/dx_i."""
    if len(y) != F.n:
        raise InputError("direction vector has wrong length", got=len(y), n=F.n)
    out = IntPoly.zero(F.n)
    for i, yi in enumerate(y, start=1):
        if yi:
            out = out + F.partial(i) * int(yi)
    return out


def hessian_form(F: IntPoly, y: Sequence[int], z: Sequence[int]) -> IntPoly:
    """The bilinear contraction sum_{i,j} d2F/dx_i dx_j . y_i z_j."""
    return directional_form(directional_form(F, y), z)


# -- parsing and printing ----------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*^]))", re.ASCII
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise InputError("unexpected character in polynomial", at=pos, near=rest[:8])
        pos = m.end()
        for kind in ("int", "var", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens


def parse_poly(text: str, n: int) -> IntPoly:
    """Parse polynomial text with variables x1..xn.

    Enforces the variable-count and total-degree caps; raises InputError
    with a position hint on malformed input.
    """
    if n > MAX_NVARS:
        raise InputError("too many variables", n=n, cap=MAX_NVARS)
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty polynomial text")
    terms: dict[tuple, int] = {}
    i = 0

    def parse_term(sign: int) -> None:
        nonlocal i
        coeff = sign
        exps = [0] * n
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise InputError("misplaced '*' in polynomial", index=i)
                i += 1
                expect_factor = True
                continue
            if kind == "int":
                if saw_factor and not expect_factor:
                    raise InputError("unexpected integer in term", index=i)
                coeff *= int(val)
                saw_factor = True
                expect_factor = False
                i += 1
                continue
            if kind == "var":
                idx = int(val[1:])
                if not 1 <= idx <= n:
                    raise InputError("variable index out of range", var=val, n=n)
                e = 1
                i += 1
                if (
                    i + 1 < len(tokens)
                    and tokens[i] == ("op", "^")
                    and tokens[i + 1][0] == "int"
                ):
                    e = int(tokens[i + 1][1])
                    i += 2
                elif i < len(tokens) and tokens[i] == ("op", "^"):
                    raise InputError("'^' must be followed by an integer", index=i)
                exps[idx - 1] += e
                saw_factor = True
                expect_factor = False
                continue
            raise InputError("unexpected token in term", token=val, index=i)
        if not saw_factor:
            raise InputError("empty term in polynomial", index=i)
        if sum(exps) > MAX_DEGREE:
            raise InputError(
                "term degree exceeds cap", degree=sum(exps), cap=MAX_DEGREE
            )
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff

    sign = 1
    if tokens and tokens[0] == ("op", "-"):
        sign = -1
        i = 1
    elif tokens and tokens[0] == ("op", "+"):
        i = 1
    parse_term(sign)
    while i < len(tokens):
        kind, val = tokens[i]
        if kind != "op" or val not in "+-":
            raise InputError("expected '+' or '-' between terms", token=val, index=i)
        i += 1
        parse_term(1 if val == "+" else -1)
    return IntPoly(n, terms)


def format_poly(f: IntPoly) -> str:
    """Canonical text form: graded-lex descending, '*' between factors."""
    if f.is_zero():
        return "0"
    pieces = []
    for k, (exps, c) in enumerate(f.sorted_terms()):
        mag = abs(c)
        factors = []
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if k == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def poly_from_coeff_list(n: int, entries: Iterable[tuple[Sequence[int], int]]) -> IntPoly:
    """Build a polynomial from (exponent-vector, coefficient) pairs."""
    return IntPoly(n, {tuple(e): c for e, c in entries})
