"""Section-vanishing stability and jumping lines for rank-two kernel bundles.

A rank-two bundle with trivial determinant presented by a matrix out of the
two spinor blocks is stable in the strong (le Potier) sense exactly when it
has no sections after the three twists (0,0), (1,-1), (-1,1).  The two
square blocks of the presenting matrix have determinants that are binary
forms in s,t and in u,v; their zeros locate the jumping lines in the two
rulings, and a double root in both blocks witnesses a bundle that no
restricted null-correlation bundle hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiForm
from .exactla import PrimeField, QhorrocksError
from .linecoh import FormMatrix, spinor_kind
from .presheaf import KerPresentation


class ShapeMismatch(QhorrocksError, ValueError):
    """Presentation does not have the two square spinor blocks."""

    exit_code = 3


@dataclass
class BinaryFormReport:
    """A binary form in one coordinate pair with its root structure."""

    form: BiForm
    pair: str  # "st" or "uv"
    is_zero: bool
    has_repeated_root: bool
    roots: list[tuple[tuple[int, int], int]]  # projective root, multiplicity (split part)
    unfactored_degree: int  # degree of the part without roots in the base field

    def describe(self) -> str:
        if self.is_zero:
            return "0"
        bits = [str(self.form)]
        if self.roots:
            pts = ", ".join(f"[{a}:{b}]^{m}" if m > 1 else f"[{a}:{b}]" for (a, b), m in self.roots)
            bits.append(f"roots {pts}")
        if self.unfactored_degree:
            bits.append(f"irreducible part of degree {self.unfactored_degree}")
        bits.append("repeated root" if self.has_repeated_root else "distinct roots")
        return "; ".join(bits)


@dataclass
class StabilityReport:
    h0: int
    h0_right: int  # twist (1,-1)
    h0_left: int  # twist (-1,1)
    stable: bool
    det_st: BinaryFormReport | None = None
    det_uv: BinaryFormReport | None = None


def le_potier_check(p: KerPresentation) -> StabilityReport:
    """The three section counts deciding stability of a rank-2, c1 = 0 kernel."""
    if p.rank != 2:
        raise ShapeMismatch(f"rank {p.rank} presentation, need rank 2")
    c1 = tuple(sum(t[k] for t in p.A) - sum(t[k] for t in p.B) for k in (0, 1))
    if c1 != (0, 0):
        raise ShapeMismatch(f"determinant twist {c1}, need (0, 0)")
    h0 = p.h0_dim((0, 0))
    h0r = p.h0_dim((1, -1))
    h0l = p.h0_dim((-1, 1))
    report = StabilityReport(h0, h0r, h0l, stable=(h0 == 0 and h0r == 0 and h0l == 0))
    try:
        d1, d2 = jumping_determinants(p)
        report.det_st, report.det_uv = d1, d2
    except ShapeMismatch:
        pass
    return report


def jumping_determinants(p: KerPresentation) -> tuple[BinaryFormReport, BinaryFormReport]:
    """Determinants of the two spinor blocks of the presenting matrix.

    The columns whose twist is of O(0,1) type pair with the target through
    s,t entries and must form a square block; likewise the O(1,0)-type
    columns through u,v entries.  Row and column operations by constants
    change the determinants by nonzero scalars only.
    """
    cols2 = [j for j, t in enumerate(p.A) if spinor_kind(t) == 2]
    cols1 = [j for j, t in enumerate(p.A) if spinor_kind(t) == 1]
    n = len(p.B)
    if len(cols2) != n or len(cols1) != n or len(cols2) + len(cols1) != len(p.A):
        raise ShapeMismatch(f"need square spinor blocks, found {len(cols2)} + {len(cols1)} against {n} rows")
    if len(set(p.A[j] for j in cols2)) > 1 or len(set(p.A[j] for j in cols1)) > 1 or len(set(p.B)) > 1:
        raise ShapeMismatch("block twists must be uniform for a determinant to be a binary form")
    g1 = _block_det(p.g, cols2)
    g2 = _block_det(p.g, cols1)
    return (_binary_report(g1, "st"), _binary_report(g2, "uv"))


def _block_det(g: FormMatrix, cols: list[int]) -> BiForm:
    """Leibniz determinant of a square block of a form matrix."""
    import itertools

    field = g.field
    n = g.rows
    deg = None
    total = None
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = BiForm.constant(field, sign)
        for i in range(n):
            term = term * g.entries[i][cols[perm[i]]]
        total = term if total is None else total + term
    return total


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _binary_report(f: BiForm, pair: str) -> BinaryFormReport:
    """Root multiplicities of a binary form, exactly.

    Over a prime field the linear factors are found by scanning the
    projective line (the fields in use are small enough); repeated roots in
    the remaining part are detected by a gcd with the derivative, which is
    exact in characteristic larger than the degree.
    """
    field = f.field
    if f.is_zero():
        return BinaryFormReport(f, pair, True, True, [], 0)
    a, b = f.deg
    deg = a if pair == "st" else b
    if (pair == "st" and b != 0) or (pair == "uv" and a != 0):
        raise ShapeMismatch(f"form {f} is not a binary form in {pair}")
    coeffs = _binary_coeffs(f, pair, deg)
    roots, rest = _binary_roots(field, coeffs)
    repeated = any(m > 1 for _, m in roots)
    if not repeated and len(rest) > 2:
        repeated = _has_repeated_factor(field, rest)
    return BinaryFormReport(f, pair, False, repeated, roots, len(rest) - 1)


def _binary_coeffs(f: BiForm, pair: str, deg: int) -> list:
    """Coefficients c[k] of x^k y^(deg-k) for the active pair."""
    field = f.field
    out = [field.scalar(0)] * (deg + 1)
    for (i, j), c in f.coeffs:
        k = i if pair == "st" else j
        out[k] = c
    return out


def _binary_roots(field, coeffs):
    """Projective roots over the base field with multiplicities, plus the rootless part."""
    roots = []
    work = list(coeffs)
    # a root at [1:0] is a vanishing top coefficient
    while len(work) > 1 and work[-1] == 0:
        _bump(roots, (1, 0))
        work = work[:-1]
    if isinstance(field, PrimeField):
        while len(work) > 1:
            found = _first_root_mod_p(field, work)
            if found is None:
                break
            _bump(roots, (found, 1))
            work = _deflate(field, work, found)
    else:
        # rational root theorem: a root a/b of the content-cleared form has a
        # dividing its lowest nonzero coefficient and b its leading one
        den = math.lcm(*(Fraction(c).denominator for c in work))
        ends = [int(c * den) for c in work if c != 0]
        cands = {Fraction(sg * a, b) for a in _divisors(ends[0]) for b in _divisors(ends[-1]) for sg in (1, -1)}
        for x in [Fraction(0)] + sorted(cands, key=lambda x: (abs(x), x < 0)):
            while len(work) > 1 and _eval_poly(field, work, x) == 0:
                _bump(roots, (x, 1))
                work = _deflate(field, work, x)
    return roots, work


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
    return small + [abs(n) // d for d in small]


_ROOT_BLOCK = 1 << 16  # values per sweep step, so memory stays flat in p


def _first_root_mod_p(field, coeffs):
    """Smallest root of the dehomogenised polynomial, by a vectorised sweep over blocks of F_p."""
    import numpy as np

    for start in range(0, field.p, _ROOT_BLOCK):
        xs = np.arange(start, min(start + _ROOT_BLOCK, field.p), dtype=np.int64)
        total = np.zeros_like(xs)
        for c in reversed(coeffs):
            total = (total * xs + int(c)) % field.p
        hits = np.nonzero(total == 0)[0]
        if hits.shape[0]:
            return start + int(hits[0])
    return None


def _bump(roots, pt):
    for k, (q, m) in enumerate(roots):
        if q == pt:
            roots[k] = (q, m + 1)
            return
    roots.append((pt, 1))


def _eval_poly(field, coeffs, x):
    # coeffs[k] multiplies x^k; substitute y = 1
    total = field.scalar(0)
    p = field.scalar(1)
    for c in coeffs:
        total = field.scalar(total + c * p)
        p = field.scalar(p * x)
    return total


def _deflate(field, coeffs, x):
    """Synthetic division by (X - x) in the dehomogenised variable."""
    n = len(coeffs) - 1
    out = [field.scalar(0)] * n
    out[n - 1] = coeffs[n]
    for k in range(n - 2, -1, -1):
        out[k] = field.scalar(coeffs[k + 1] + x * out[k + 1])
    return out


def _has_repeated_factor(field, coeffs) -> bool:
    deriv = [field.scalar(coeffs[k] * k) for k in range(1, len(coeffs))]
    g = _poly_gcd(field, coeffs, deriv)
    return len(g) > 1


def _poly_gcd(field, a, b):
    a = _trim(a)
    b = _trim(b)
    while len(b) > 1 or (len(b) == 1 and b[0] != 0):
        a, b = b, _poly_mod(field, a, b)
        b = _trim(b)
        if len(b) == 1 and b[0] == 0:
            break
    return _trim(a)


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(field, a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = field.inv(lb)
    while len(a) - 1 >= db and any(x != 0 for x in a):
        da, la = len(a) - 1, a[-1]
        q = field.scalar(la * inv)
        for k in range(db + 1):
            a[da - db + k] = field.scalar(a[da - db + k] - q * b[k])
        a = _trim(a)
        if len(a) == 1 and a[0] == 0:
            break
    return a
