"""Bihomogeneous polynomials in k[s,t;u,v] with the bigrading of P1 x P1.

The quadric x0*x3 = x1*x2 in P3 is identified with P1 x P1 by sending
x0, x1, x2, x3 to su, sv, tu, tv.  The coordinate ring of the quadric is
never represented as a quotient ring: its degree-d piece is the space of
forms of bidegree (d, d), where the defining relation holds identically.
This removes every Groebner computation from the package.  A `BiForm` is
built, parsed, printed and evaluated, and carries no arithmetic: multiplying
by a form is a matrix in the fixed monomial bases below
(`linecoh.coh_action` with i = 0), and sums are sums of coefficient vectors.

A monomial of bidegree (a, b) is s^i t^(a-i) u^j v^(b-j) and is stored as
the exponent pair (i, j).  Bases are ordered with i descending then j
descending, so for bidegree (1, 1) the basis reads su, sv, tu, tv.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .exactla import QhorrocksError

BiDegree = tuple[int, int]


class ParseError(QhorrocksError, ValueError):
    """Raised on malformed polynomial or file text."""

    exit_code = 2


def deg_add(d: BiDegree, e: BiDegree) -> BiDegree:
    return (d[0] + e[0], d[1] + e[1])


def deg_sub(d: BiDegree, e: BiDegree) -> BiDegree:
    return (d[0] - e[0], d[1] - e[1])


def deg_valid(d: BiDegree) -> bool:
    return d[0] >= 0 and d[1] >= 0


@lru_cache(maxsize=None)
def monomial_basis(d: BiDegree) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (i, j) of bidegree d, i descending then j descending; empty if d is invalid."""
    a, b = d
    if a < 0 or b < 0:
        return ()
    return tuple((i, j) for i in range(a, -1, -1) for j in range(b, -1, -1))


@lru_cache(maxsize=None)
def monomial_index(d: BiDegree) -> dict[tuple[int, int], int]:
    return {m: k for k, m in enumerate(monomial_basis(d))}


def space_dim(d: BiDegree) -> int:
    a, b = d
    return (a + 1) * (b + 1) if a >= 0 and b >= 0 else 0


def sq_piece(d: int) -> tuple[tuple[int, int], ...]:
    """Monomial basis of the degree-d piece of the quadric's coordinate ring."""
    return monomial_basis((d, d))


@dataclass(frozen=True)
class BiForm:
    """A form of fixed bidegree; coeffs maps (i, j) to a nonzero scalar.

    A bidegree with a negative component is allowed and forces the zero form,
    which is what matrix entries between incompatible twists store.
    """

    field: object
    deg: BiDegree
    coeffs: tuple[tuple[tuple[int, int], object], ...]  # sorted by basis order

    @staticmethod
    def make(field, deg: BiDegree, coeffs: dict) -> "BiForm":
        a, b = deg
        clean = {}
        for (i, j), c in coeffs.items():
            c = field.scalar(c)
            if c == 0:
                continue
            if not (0 <= i <= a and 0 <= j <= b):
                raise ValueError(f"monomial ({i},{j}) outside bidegree {deg}")
            clean[(i, j)] = c
        if clean and not deg_valid(deg):
            raise ValueError(f"nonzero form needs a valid bidegree, got {deg}")
        idx = monomial_index(deg)
        items = tuple(sorted(clean.items(), key=lambda kv: idx[kv[0]]))
        return BiForm(field, deg, items)

    @staticmethod
    def zero(field, deg: BiDegree) -> "BiForm":
        return BiForm(field, deg, ())

    @staticmethod
    def constant(field, c) -> "BiForm":
        return BiForm.make(field, (0, 0), {(0, 0): c})

    @staticmethod
    def variable(field, name: str) -> "BiForm":
        return BiForm.make(field, *_VARIABLES[name])

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_vector(self):
        """Coefficients in monomial_basis(self.deg) order, as a field vector."""
        f = self.field
        n = space_dim(self.deg)
        v = f.zeros(n, 1)[:, 0]
        idx = monomial_index(self.deg)
        for m, c in self.coeffs:
            v[idx[m]] = c
        return v

    @staticmethod
    def from_vector(field, deg: BiDegree, vec) -> "BiForm":
        """The form with coefficients vec in monomial_basis(deg) order; the inverse of coefficient_vector."""
        terms = ((m, field.scalar(c)) for m, c in zip(monomial_basis(deg), vec) if c != 0)
        return BiForm(field, deg, tuple((m, c) for m, c in terms if c != 0))

    def evaluate(self, s, t, u, v):
        """Value at scalar coordinates; the zero form of any bidegree gives 0.

        Only the sampled fibre check `MonadPresentation.fiberwise_injective`
        evaluates forms.
        """
        f = self.field
        a, b = self.deg
        total = f.scalar(0)
        for (i, j), c in self.coeffs:
            total = f.scalar(total + c * s**i * t ** (a - i) * u**j * v ** (b - j))
        return total

    def __str__(self):
        return format_biform(self)

    def constant_value(self):
        """The scalar value of a bidegree-(0,0) form."""
        if self.deg != (0, 0):
            raise ValueError(f"not a constant form: bidegree {self.deg}")
        return self.coeffs[0][1] if self.coeffs else self.field.scalar(0)


_VARIABLES = {
    "s": ((1, 0), {(1, 0): 1}),
    "t": ((1, 0), {(0, 0): 1}),
    "u": ((0, 1), {(0, 1): 1}),
    "v": ((0, 1), {(0, 0): 1}),
    # coordinates of the ambient P3, restricted to the quadric
    "x0": ((1, 1), {(1, 1): 1}),
    "x1": ((1, 1), {(1, 0): 1}),
    "x2": ((1, 1), {(0, 1): 1}),
    "x3": ((1, 1), {(0, 0): 1}),
}


_TOKEN = re.compile(r"\s*([+-]|[0-9]+(?:/[0-9]+)?|x[0-3]|[stuv]|\^|\*)")


def parse_biform(field, text: str, expected_deg: BiDegree | None = None) -> BiForm:
    """Parse `3*s^2*u - t^2*v` style text; exponent 1 may be left implicit.

    Constants other than 0 are only allowed in bidegree (0, 0); `0` parses in
    any expected bidegree.  All terms must share one bidegree, which must
    match expected_deg when that is given.
    """
    terms = _split_terms(text)
    acc: dict[tuple[int, int], object] = {}
    deg = None
    for sign, term in terms:
        c, mono_deg, mono = _parse_term(field, term)
        if sign == "-":
            c = field.neg(c)
        if c == 0:
            continue
        if deg is None:
            deg = mono_deg
        elif deg != mono_deg:
            raise ParseError(f"mixed bidegrees {deg} and {mono_deg} in {text!r}")
        acc[mono] = field.scalar(acc.get(mono, 0) + c)
    if deg is None:
        if expected_deg is None:
            raise ParseError(f"cannot infer the bidegree of the zero form in {text!r}")
        deg = expected_deg
    if expected_deg is not None and deg != expected_deg:
        raise ParseError(f"form {text!r} has bidegree {deg}, expected {expected_deg}")
    return BiForm.make(field, deg, acc)


def _split_terms(text: str) -> list[tuple[str, str]]:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    out = []
    sign = "+"
    buf = []
    for ch in text:
        if ch in "+-" and buf:
            out.append((sign, "".join(buf)))
            sign, buf = ch, []
        elif ch in "+-" and not buf:
            sign = "-" if (sign == "-") != (ch == "-") else "+"
        else:
            buf.append(ch)
    if not buf:
        raise ParseError(f"trailing sign in {text!r}")
    out.append((sign, "".join(buf)))
    return [(sg, tm.strip()) for sg, tm in out if tm.strip()]


def _parse_term(field, term: str):
    pos = 0
    coeff = field.scalar(1)
    saw_coeff = False
    exps = {"s": 0, "t": 0, "u": 0, "v": 0}
    factors = []
    while pos < len(term):
        m = _TOKEN.match(term, pos)
        if not m:
            raise ParseError(f"bad token at {term[pos:]!r}")
        tok = m.group(1)
        pos = m.end()
        if tok == "*":
            continue
        if tok == "^":
            em = re.match(r"\s*([0-9]+)", term[pos:])
            if not em or not factors:
                raise ParseError(f"dangling exponent in {term!r}")
            for var in factors[-1]:
                exps[var] += int(em.group(1)) - 1
            pos += em.end()
            continue
        if tok in "+-":
            raise ParseError(f"unexpected sign inside term {term!r}")
        if re.fullmatch(r"[0-9]+(?:/[0-9]+)?", tok):
            if saw_coeff:
                raise ParseError(f"two coefficients in {term!r}")
            coeff = field.scalar(tok)
            saw_coeff = True
            continue
        if tok.startswith("x"):
            k = int(tok[1])
            pair = [("s", "u"), ("s", "v"), ("t", "u"), ("t", "v")][k]
            for var in pair:
                exps[var] += 1
            factors.append(pair)
            continue
        exps[tok] += 1
        factors.append((tok,))
    a = exps["s"] + exps["t"]
    b = exps["u"] + exps["v"]
    if coeff == 0:
        return field.scalar(0), (0, 0), (0, 0)
    return coeff, (a, b), (exps["s"], exps["u"])


def format_biform(f: BiForm) -> str:
    if f.is_zero():
        return "0"
    a, b = f.deg
    parts = []
    for (i, j), c in f.coeffs:
        factors = []
        for var, e in (("s", i), ("t", a - i), ("u", j), ("v", b - j)):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}^{e}")
        cs = f.field.format_scalar(c)
        if not factors:
            term = cs
        elif cs == "1":
            term = "*".join(factors)
        elif cs == "-1":
            term = "-" + "*".join(factors)
        else:
            term = cs + "*" + "*".join(factors)
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out

