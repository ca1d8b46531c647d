"""Cohomology of split bundles on the quadric via the Kunneth formula.

On P1 with coordinates s, t the cohomology of O(p) has a canonical monomial
model: H0 is spanned by s^i t^j with i, j >= 0 and i + j = p, while H1 is
spanned by the "negative cone" monomials with i, j <= -1 and i + j = p.
Multiplication by a form adds exponents and truncates anything that leaves
the cone; `coh_action` is the one place that multiplies monomials, and a
product of form matrices (`FormMatrix.compose`) is its action on section
vectors.  Tensoring two copies gives every H^i of O(a, b) on P1 x P1 an
explicit finite monomial basis:

    H0: all four exponents >= 0
    H1: s,t exponents >= 0 and u,v exponents <= -1, or the mirror image
    H2: all four exponents <= -1

All higher machinery reduces its cohomology questions to matrices of this
multiplication action, so no Cech complex appears anywhere in the package.

A twist (a, b) denotes the line bundle O(a, b).  The two spinor line bundles
are O(1, 0) and O(0, 1); O(d) means O(d, d).  The ACM twists, those with no
intermediate cohomology in any diagonal twist, are exactly |a - b| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exactla import Matrix, QhorrocksError
from .bipoly import BiForm, deg_add, deg_sub

Twist = tuple[int, int]
SplitBundle = tuple[Twist, ...]

SIGMA1: Twist = (1, 0)
SIGMA2: Twist = (0, 1)


class MalformedMatrix(QhorrocksError, ValueError):
    """Raised when a form matrix entry does not fit its twist slot."""

    exit_code = 2


def is_acm_twist(t: Twist) -> bool:
    return abs(t[0] - t[1]) <= 1


def is_free_twist(t: Twist) -> bool:
    return t[0] == t[1]


def spinor_kind(t: Twist) -> int | None:
    """1 for twists of O(1,0), 2 for twists of O(0,1), None otherwise."""
    gap = t[0] - t[1]
    if gap == 1:
        return 1
    if gap == -1:
        return 2
    return None


def spinor_shift(side: int, d: int) -> Twist:
    """The twist (d, d) plus the spinor twist of side 1 (O(1,0)) or side 2 (O(0,1))."""
    return deg_add((d, d), SIGMA1 if side == 1 else SIGMA2)


def euler_char(s: SplitBundle) -> int:
    """chi of a direct sum of line bundles; (a+1)(b+1) per summand."""
    return sum((a + 1) * (b + 1) for a, b in s)


def _h01(p: int) -> int:
    return max(p + 1, 0)


def _h11(p: int) -> int:
    return max(-p - 1, 0)


def kunneth_dim(i: int, t: Twist) -> int:
    a, b = t
    if i == 0:
        return _h01(a) * _h01(b)
    if i == 1:
        return _h01(a) * _h11(b) + _h11(a) * _h01(b)
    if i == 2:
        return _h11(a) * _h11(b)
    return 0


@dataclass(frozen=True)
class CohBasis:
    """Ordered monomial basis of H^i(O(twist)); monomials are (ps, pt, pu, pv)."""

    i: int
    twist: Twist
    monomials: tuple[tuple[int, int, int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.monomials)


@lru_cache(maxsize=None)
def coh_basis(i: int, t: Twist) -> CohBasis:
    a, b = t
    monos: list[tuple[int, int, int, int]] = []
    if i == 0:
        monos = [(ps, a - ps, pu, b - pu) for ps in range(a, -1, -1) for pu in range(b, -1, -1)]
        if a < 0 or b < 0:
            monos = []
    elif i == 1:
        if a >= 0 and b <= -2:
            monos += [(ps, a - ps, pu, b - pu) for ps in range(a, -1, -1) for pu in range(-1, b, -1)]
        if a <= -2 and b >= 0:
            monos += [(ps, a - ps, pu, b - pu) for ps in range(-1, a, -1) for pu in range(b, -1, -1)]
    elif i == 2:
        if a <= -2 and b <= -2:
            monos = [(ps, a - ps, pu, b - pu) for ps in range(-1, a, -1) for pu in range(-1, b, -1)]
    basis = CohBasis(i, t, tuple(monos))
    assert basis.dim == kunneth_dim(i, t)
    return basis


@lru_cache(maxsize=None)
def _coh_index(i: int, t: Twist) -> dict[tuple[int, int, int, int], int]:
    return {m: k for k, m in enumerate(coh_basis(i, t).monomials)}


@lru_cache(maxsize=None)
def _coh_action_cached(f: BiForm, i: int, t: Twist) -> Matrix:
    field = f.field
    src = coh_basis(i, t)
    dst_twist = deg_add(t, f.deg)
    dst_idx = _coh_index(i, dst_twist)
    (fa, fb) = f.deg
    m = field.zeros(kunneth_dim(i, dst_twist), src.dim)
    for col, (ps, pt, pu, pv) in enumerate(src.monomials):
        for (fi, fj), c in f.coeffs:
            tgt = (ps + fi, pt + fa - fi, pu + fj, pv + fb - fj)
            k = dst_idx.get(tgt)
            if k is not None:
                m[k, col] = field.scalar(m[k, col] + c)
    return Matrix(field, m)


def coh_action(f: BiForm, i: int, t: Twist) -> Matrix:
    """Matrix of cup product with f: H^i(O(t)) -> H^i(O(t + deg f)).

    Monomials multiply by adding exponents; products leaving the cone drop to
    zero.  Functorial: coh_action(f*g) = coh_action(f) o coh_action(g).
    """
    return _coh_action_cached(f, i, t)


@dataclass(frozen=True)
class FormMatrix:
    """A matrix of forms between split bundles, entry (i, j): O(src_j) -> O(dst_i).

    Entry bidegrees are forced to dst_i - src_j; slots where that has a
    negative component must hold the zero form.  Construction validates all
    of this up front so malformed matrices fail early.
    """

    field: object
    src: SplitBundle
    dst: SplitBundle
    entries: tuple[tuple[BiForm, ...], ...]  # [dst index][src index]

    def __post_init__(self):
        if len(self.entries) != len(self.dst):
            raise MalformedMatrix("row count != number of target summands")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.src):
                raise MalformedMatrix("column count != number of source summands")
            for j, f in enumerate(row):
                want = deg_sub(self.dst[i], self.src[j])
                if f.deg != want:
                    raise MalformedMatrix(f"entry ({i},{j}) has bidegree {f.deg}, slot needs {want}")
                if not f.is_zero() and (want[0] < 0 or want[1] < 0):
                    raise MalformedMatrix(f"entry ({i},{j}) must be zero for twist gap {want}")

    @staticmethod
    def make(field, src: SplitBundle, dst: SplitBundle, rows) -> "FormMatrix":
        out = []
        for i, row in enumerate(rows):
            r = []
            for j, f in enumerate(row):
                want = deg_sub(dst[i], src[j])
                if isinstance(f, BiForm):
                    r.append(f)
                elif f == 0:
                    r.append(BiForm.zero(field, want))
                else:
                    raise MalformedMatrix(f"entry ({i},{j}) is not a form")
            out.append(tuple(r))
        return FormMatrix(field, tuple(src), tuple(dst), tuple(out))

    @staticmethod
    def zero(field, src: SplitBundle, dst: SplitBundle) -> "FormMatrix":
        rows = [[BiForm.zero(field, deg_sub(d, s)) for s in src] for d in dst]
        return FormMatrix(field, tuple(src), tuple(dst), tuple(tuple(r) for r in rows))

    @staticmethod
    def from_sections(field, src: SplitBundle, dst: SplitBundle, sections) -> "FormMatrix":
        """The matrix whose column j is the section vector sections[j] of H0(dst(-src_j)).

        A section vector lists its summands' coefficients in monomial_basis
        order, one summand after another, as induced_h lays out H0; summands
        without sections give the zero form of their slot.
        """
        cols = []
        for (a, b), vec in zip(src, sections):
            forms, k = [], 0
            for t in dst:
                deg = deg_sub(t, (a, b))
                d = kunneth_dim(0, deg)
                forms.append(BiForm.from_vector(field, deg, vec[k : k + d]))
                k += d
            cols.append(forms)
        rows = tuple(zip(*cols)) if cols else ((),) * len(dst)
        return FormMatrix(field, tuple(src), tuple(dst), rows)

    def section(self, j: int) -> np.ndarray:
        """Column j as a section vector of H0(dst(-src_j)); the inverse of from_sections."""
        vecs = [row[j].coefficient_vector() for row in self.entries]
        return np.concatenate(vecs) if vecs else self.field.zeros(0, 1)[:, 0]

    @property
    def rows(self) -> int:
        return len(self.dst)

    @property
    def cols(self) -> int:
        return len(self.src)

    def compose(self, other: "FormMatrix") -> "FormMatrix":
        """self o other, defined when other.dst == self.src.

        Column k is induced_h(self, 0, -other.src[k]) applied to the section
        vector of column k of other, so coh_action does every product.
        """
        if other.dst != self.src:
            raise MalformedMatrix("composition twist mismatch")
        return _map_sections(self, other, self.dst, Matrix.__matmul__)

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)

    def dual(self) -> "FormMatrix":
        """Transpose with negated twists: O(-dst) -> O(-src)."""
        src = tuple((-a, -b) for a, b in self.dst)
        dst = tuple((-a, -b) for a, b in self.src)
        rows = tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        return FormMatrix(self.field, src, dst, rows)

    def select_columns(self, idx) -> "FormMatrix":
        src = tuple(self.src[j] for j in idx)
        rows = tuple(tuple(self.entries[i][j] for j in idx) for i in range(self.rows))
        return FormMatrix(self.field, src, self.dst, rows)

    def __repr__(self):
        return f"FormMatrix({list(self.src)} -> {list(self.dst)})"


def form_hstack(blocks: list[FormMatrix]) -> FormMatrix:
    field, dst = blocks[0].field, blocks[0].dst
    src = tuple(t for b in blocks for t in b.src)
    rows = tuple(tuple(f for b in blocks for f in b.entries[i]) for i in range(len(dst)))
    return FormMatrix(field, src, dst, rows)


def form_vstack(blocks: list[FormMatrix]) -> FormMatrix:
    field, src = blocks[0].field, blocks[0].src
    dst = tuple(t for b in blocks for t in b.dst)
    rows = tuple(row for b in blocks for row in b.entries)
    return FormMatrix(field, src, dst, rows)


def split_dims(i: int, s: SplitBundle, e: Twist) -> list[int]:
    """Per-summand H^i dimensions of the bundle twisted by e."""
    return [kunneth_dim(i, deg_add(t, e)) for t in s]


def split_dim(i: int, s: SplitBundle, e: Twist) -> int:
    return sum(split_dims(i, s, e))


def induced_h(m: FormMatrix, i: int, e: Twist) -> Matrix:
    """Block matrix of H^i(src(e)) -> H^i(dst(e)) induced by a form matrix."""
    field = m.field
    rd = split_dims(i, m.dst, e)
    cd = split_dims(i, m.src, e)
    out = field.zeros(sum(rd), sum(cd))
    r0 = 0
    for bi in range(m.rows):
        c0 = 0
        for bj in range(m.cols):
            if rd[bi] and cd[bj]:
                block = coh_action(m.entries[bi][bj], i, deg_add(m.src[bj], e))
                out[r0 : r0 + rd[bi], c0 : c0 + cd[bj]] = block.a
            c0 += cd[bj]
        r0 += rd[bi]
    return Matrix(field, out)


def _map_sections(m: FormMatrix, x: FormMatrix, dst: SplitBundle, op) -> FormMatrix:
    """The form matrix x.src -> dst whose columns of source twist t are op(induced_h(m, 0, -t), S_t).

    S_t holds the section vectors of the columns of x with source twist t,
    so each distinct twist costs one induced matrix and one call of op.
    """
    cols = [None] * x.cols
    for t in dict.fromkeys(x.src):
        idx = [k for k, s in enumerate(x.src) if s == t]
        sections = Matrix.from_columns(x.field, [x.section(k) for k in idx])
        for k, col in zip(idx, op(induced_h(m, 0, (-t[0], -t[1])), sections).columns()):
            cols[k] = col
    return FormMatrix.from_sections(x.field, x.src, dst, cols)


def constant_pairing(s: SplitBundle, t: Twist, sections: Matrix, cosections: Matrix) -> Matrix:
    """Composites O(t) -> s -> O(t) as scalars: entry (i, j) is cosection j after section i.

    Columns of sections lie in H0(s(-t)), columns of cosections in H0(s^v(t)).
    A product of the two has a constant term only through a summand of twist
    exactly t, where each side is one constant coordinate, so the pairing is
    S^T C restricted to those coordinates.
    """
    dims = split_dims(0, s, (-t[0], -t[1]))
    codims = split_dims(0, tuple((-a, -b) for a, b in s), t)
    at = [k for k, a in enumerate(s) if a == t]
    rows = sections.a[[sum(dims[:k]) for k in at]]
    cols = cosections.a[[sum(codims[:k]) for k in at]]
    return Matrix(sections.field, sections.field.matmul(rows.T, cols))


def h0_mult_on_split(s: SplitBundle, f: BiForm, e: Twist) -> Matrix:
    """Multiplication by f on H0 of a shifted split bundle, summand by summand."""
    field = f.field
    rd = [kunneth_dim(0, deg_add(deg_add(t, e), f.deg)) for t in s]
    cd = split_dims(0, s, e)
    out = field.zeros(sum(rd), sum(cd))
    r0 = c0 = 0
    for k, t in enumerate(s):
        if rd[k] and cd[k]:
            block = coh_action(f, 0, deg_add(t, e))
            out[r0 : r0 + rd[k], c0 : c0 + cd[k]] = block.a
        r0 += rd[k]
        c0 += cd[k]
    return Matrix(field, out)


@dataclass
class SurjectivityReport:
    surjective: bool
    twist: Twist  # the twist that certified the answer
    coker_dim: int  # of the section map there


def sheaf_surjective(m: FormMatrix) -> SurjectivityReport:
    """Decide whether a split-bundle map g: A -> B is onto as a map of sheaves.

    Onto: where every twist of B(e) is >= (0, 0), evaluation H0(B(e)) ->
    B(e)_x is onto and factors through g_x once H0(g(e)) is onto, so a zero
    section cokernel there proves g onto.  Not onto: an onto g has its kernel
    resolved by the Buchsbaum-Rim complex (Eisenbud, The Geometry of
    Syzygies, appendix A2), with C2 = wedge^(b+1) A (x) det B^v and
    C3 = wedge^(b+2) A (x) B^v (x) det B^v for b = rank B, and on the surface
    H1(C2(e)) = H2(C3(e)) = 0 forces H1(ker g(e)) = 0 (Maclagan and Smith,
    "Multigraded Castelnuovo-Mumford regularity", J. reine angew. Math. 571,
    2004).  Both vanish at the e* where all their twists are >= (-1, -1), so
    a nonzero section cokernel at e* proves g not onto.  The walk
    e_k = min(e0 + (k, k), e*) from the least globally generated twist e0
    stops at the first zero cokernel, skipping twists with h0(A) < h0(B).
    """
    if m.rows == 0:
        return SurjectivityReport(True, (0, 0), 0)
    b, e0, e_star = m.rows, [], []
    for k in (0, 1):
        src, dst = sorted(t[k] for t in m.src), [t[k] for t in m.dst]
        e0.append(-min(dst))
        c2 = [sum(dst) - 1 - sum(src[: b + 1])] if len(src) > b else []
        c3 = [sum(dst) + max(dst) - 1 - sum(src[: b + 2])] if len(src) > b + 1 else []
        e_star.append(max([e0[k]] + c2 + c3))
    e_star = tuple(e_star)
    for step in range(max(e_star[0] - e0[0], e_star[1] - e0[1]) + 1):
        e = (min(e0[0] + step, e_star[0]), min(e0[1] + step, e_star[1]))
        if e != e_star and split_dim(0, m.src, e) < split_dim(0, m.dst, e):
            continue
        mat = induced_h(m, 0, e)
        coker = mat.rows - mat.rank()
        if coker == 0 or e == e_star:
            return SurjectivityReport(coker == 0, e, coker)
