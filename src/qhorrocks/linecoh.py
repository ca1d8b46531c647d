"""Cohomology of split bundles on the quadric via the Kunneth formula.

On P1 with coordinates s, t the cohomology of O(p) has a canonical monomial
model: H0 is spanned by s^i t^j with i, j >= 0 and i + j = p, while H1 is
spanned by the "negative cone" monomials with i, j <= -1 and i + j = p.
Multiplication by a form adds exponents and truncates anything that leaves
the cone.  Tensoring two copies gives every H^i of O(a, b) on P1 x P1 an
explicit finite monomial basis:

    H0: all four exponents >= 0
    H1: s,t exponents >= 0 and u,v exponents <= -1, or the mirror image
    H2: all four exponents <= -1

Every dimension comes from `split_h`, the one Kunneth formula, and every
layout from `split_offsets`: the blocks of H^i(s(e)) follow the summands of
s in order, monomials in `coh_basis` order.  A `FormMatrix` stores each
column as its section vector in that layout of H0, so building one from
sections and reading a column back are plain storage and a plain read.

`_mult_index` is the one place that multiplies monomials.  It is cached by
(i, bidegree, source twist), never by coefficients, so its size is bounded
by the twists a run visits, and it holds (row, col, monomial) triplets: a
form with coefficient vector c acts on H^i(O(t)) by out[row, col] =
c[monomial], one fancy assignment with no sums, over F_p and Q alike.
`coh_action`, `induced_h`, `h0_mult_on_split` and, through `induced_h`,
`FormMatrix.compose` all go through it.  A table costs the Kunneth
arithmetic plus the ranks no surjectivity certificate forces; no Cech
complex appears anywhere in the package.

A twist (a, b) denotes the line bundle O(a, b).  The two spinor line bundles
are O(1, 0) and O(0, 1); O(d) means O(d, d).  The ACM twists, those with no
intermediate cohomology in any diagonal twist, are exactly |a - b| <= 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .exactla import Matrix, QhorrocksError
from .bipoly import BiDegree, BiForm, deg_add, deg_sub, monomial_basis, monomial_index

Twist = tuple[int, int]
SplitBundle = tuple[Twist, ...]

SIGMA1: Twist = (1, 0)
SIGMA2: Twist = (0, 1)


class MalformedMatrix(QhorrocksError, ValueError):
    """Raised when a form matrix entry does not fit its twist slot."""

    exit_code = 2


class InternalInvariantViolation(QhorrocksError, RuntimeError):
    """A step the theory guarantees to succeed did not; indicates invalid input."""

    exit_code = 1


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


def euler_char(s: SplitBundle, e: Twist = (0, 0)) -> int:
    """chi of a direct sum of line bundles twisted by e; (a+1)(b+1) per twisted summand O(a, b)."""
    return sum((a + e[0] + 1) * (b + e[1] + 1) for a, b in s)


def split_h(s: SplitBundle, e: Twist) -> tuple[int, int, int]:
    """(h0, h1, h2) of the split bundle s twisted by e: the one Kunneth formula.

    A summand O(t) has a = t0 + e0 + 1 sections on the first P1 when a > 0 and
    -a classes in H1 when a < 0, b likewise on the second, so it adds a*b to h0
    when both are positive, a*b to h2 when both are negative, -a*b to h1 else.
    """
    e0, e1 = e
    h0 = h1 = h2 = 0
    for t0, t1 in s:
        a, b = t0 + e0 + 1, t1 + e1 + 1
        if a > 0 and b > 0:
            h0 += a * b
        elif a < 0 and b < 0:
            h2 += a * b
        else:
            h1 -= a * b
    return h0, h1, h2


def kunneth_dim(i: int, t: Twist) -> int:
    return split_h((t,), (0, 0))[i] if 0 <= i <= 2 else 0


def split_dims(i: int, s: SplitBundle, e: Twist) -> list[int]:
    """Per-summand H^i dimensions of the bundle twisted by e."""
    return [split_h((t,), e)[i] for t in s] if 0 <= i <= 2 else [0] * len(s)


def split_dim(i: int, s: SplitBundle, e: Twist) -> int:
    return split_h(s, e)[i] if 0 <= i <= 2 else 0


def split_offsets(i: int, s: SplitBundle, e: Twist) -> list[int]:
    """Where each summand's block starts in H^i(s(e)), monomials in coh_basis order; the last entry is the total.

    Every layout in the package is one of these: induced_h lays out H^i this
    way, and a section vector of H0(dst(-t)), a column of a FormMatrix with
    source twist t, is laid out by split_offsets(0, dst, -t).
    """
    return list(accumulate(split_dims(i, s, e), initial=0))


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
    if basis.dim != kunneth_dim(i, t):
        raise InternalInvariantViolation(f"H{i} of O{t} has {basis.dim} monomials, not its Kunneth dimension")
    return basis


@lru_cache(maxsize=None)
def _mult_index(i: int, deg: BiDegree, t: Twist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cup product of a form of bidegree deg on H^i(O(t)), as (rows, cols, monomials).

    Source monomial cols[n] times monomial monomials[n] of monomial_basis(deg)
    is target monomial rows[n] of H^i(O(t + deg)); products that leave the
    cone drop out.  For a fixed source monomial each form monomial hits a
    different target, so a form with coefficient vector c acts by the matrix
    with out[rows, cols] = c[monomials], with no sums.  The cache is keyed by
    shape, never by coefficients, so it is bounded by the twists a run visits.
    """
    dst = {m: k for k, m in enumerate(coh_basis(i, deg_add(t, deg)).monomials)}
    fa, fb = deg
    hits = [
        (k, col, n)
        for col, (ps, pt, pu, pv) in enumerate(coh_basis(i, t).monomials)
        for n, (fi, fj) in enumerate(monomial_basis(deg))
        if (k := dst.get((ps + fi, pt + fa - fi, pu + fj, pv + fb - fj))) is not None
    ]
    index = tuple(np.array(x, dtype=np.intp) for x in (zip(*hits) if hits else ((), (), ())))
    for x in index:
        x.flags.writeable = False
    return index


def _mult_into(block: np.ndarray, i: int, deg: BiDegree, t: Twist, coeffs: np.ndarray) -> None:
    """Write the matrix of the form with coefficients coeffs on H^i(O(t)) into the zero block."""
    rows, cols, monos = _mult_index(i, deg, t)
    block[rows, cols] = coeffs[monos]


def coh_action(f: BiForm, i: int, t: Twist) -> Matrix:
    """Matrix of cup product with f: H^i(O(t)) -> H^i(O(t + deg f)).

    Monomials multiply by adding exponents; products leaving the cone drop to
    zero.  Functorial: coh_action(f*g) = coh_action(f) o coh_action(g).
    """
    out = f.field.zeros(kunneth_dim(i, deg_add(t, f.deg)), kunneth_dim(i, t))
    _mult_into(out, i, f.deg, t, f.coefficient_vector())
    return Matrix(f.field, out)


def _neg(t: Twist) -> Twist:
    return (-t[0], -t[1])


def _column_offsets(src: SplitBundle, dst: SplitBundle) -> list[list[int]]:
    """split_offsets(0, dst, -t) for each source twist t: where the slots of that column start."""
    by_twist = {t: split_offsets(0, dst, _neg(t)) for t in set(src)}
    return [by_twist[t] for t in src]


def _vector(field, parts) -> np.ndarray:
    """The parts one after another, as a new read-only reduced vector in the field's storage."""
    out = field.reduce(np.concatenate([field.zeros(0, 1)[:, 0], *parts]))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FormMatrix:
    """A matrix of forms between split bundles, entry (i, j): O(src_j) -> O(dst_i).

    Column j is stored as its section vector in H0(dst(-src_j)): the
    coefficients of entry (i, j) in monomial_basis(dst_i - src_j) order, one
    target summand after another (split_offsets(0, dst, -src_j)).  A slot
    whose bidegree has a negative component has no coefficients, so it holds
    the zero form.  `make` builds a matrix from forms and checks their
    bidegrees; `entries` reads the forms back.
    """

    field: object
    src: SplitBundle
    dst: SplitBundle
    sections: tuple[np.ndarray, ...]  # one per source summand

    def __post_init__(self):
        if len(self.sections) != len(self.src):
            raise MalformedMatrix("column count != number of source summands")
        for j, (vec, o) in enumerate(zip(self.sections, self._offsets)):
            if vec.shape != (o[-1],):
                raise MalformedMatrix(f"column {j} is not a section vector of H0(dst{_neg(self.src[j])})")

    @staticmethod
    def make(field, src: SplitBundle, dst: SplitBundle, rows) -> "FormMatrix":
        """The matrix with entry (i, j) rows[i][j], a BiForm of bidegree dst_i - src_j or 0."""
        src, dst, rows = tuple(src), tuple(dst), [tuple(r) for r in rows]
        if len(rows) != len(dst):
            raise MalformedMatrix("row count != number of target summands")
        offs = _column_offsets(src, dst)
        cols = [field.zeros(o[-1], 1)[:, 0] for o in offs]
        for i, row in enumerate(rows):
            if len(row) != len(src):
                raise MalformedMatrix("column count != number of source summands")
            for j, f in enumerate(row):
                want = deg_sub(dst[i], src[j])
                if not isinstance(f, BiForm):
                    if f != 0:
                        raise MalformedMatrix(f"entry ({i},{j}) is not a form")
                    continue
                if f.deg != want:
                    raise MalformedMatrix(f"entry ({i},{j}) has bidegree {f.deg}, slot needs {want}")
                if not f.is_zero() and (want[0] < 0 or want[1] < 0):
                    raise MalformedMatrix(f"entry ({i},{j}) must be zero for twist gap {want}")
                index = monomial_index(want)
                for m, c in f.coeffs:
                    cols[j][offs[j][i] + index[m]] = c
        for vec in cols:
            vec.flags.writeable = False
        return FormMatrix(field, src, dst, tuple(cols))

    @staticmethod
    def zero(field, src: SplitBundle, dst: SplitBundle) -> "FormMatrix":
        return FormMatrix.from_sections(field, src, dst, [field.zeros(o[-1], 1)[:, 0] for o in _column_offsets(src, dst)])

    @staticmethod
    def from_sections(field, src: SplitBundle, dst: SplitBundle, sections) -> "FormMatrix":
        """The matrix whose column j is the section vector sections[j] of H0(dst(-src_j))."""
        return FormMatrix(field, tuple(src), tuple(dst), tuple(_vector(field, [v]) for v in sections))

    def section(self, j: int) -> np.ndarray:
        """Column j as a section vector of H0(dst(-src_j)), read-only; the inverse of from_sections."""
        return self.sections[j]

    @cached_property
    def _offsets(self) -> list[list[int]]:
        return _column_offsets(self.src, self.dst)

    @cached_property
    def _nonzero_slots(self) -> list[tuple[int, int, BiDegree, np.ndarray]]:
        """(k, j, bidegree, coefficients) of every entry (k, j) that is not the zero form."""
        return [
            (k, j, deg_sub(self.dst[k], self.src[j]), vec[o[k] : o[k + 1]])
            for j, (vec, o) in enumerate(zip(self.sections, self._offsets))
            for k in dict.fromkeys(bisect_right(o, n) - 1 for n in vec.nonzero()[0].tolist())
        ]

    @cached_property
    def entries(self) -> tuple[tuple[BiForm, ...], ...]:
        """The forms, [dst index][src index], read off the section vectors once per matrix.

        Only formatting, stability's determinants and summand stripping read
        forms; every product goes through _mult_index.
        """
        return tuple(
            tuple(BiForm.from_vector(self.field, deg_sub(d, t), v[o[k] : o[k + 1]]) for t, v, o in zip(self.src, self.sections, self._offsets))
            for k, d in enumerate(self.dst)
        )

    @property
    def rows(self) -> int:
        return len(self.dst)

    @property
    def cols(self) -> int:
        return len(self.src)

    def compose(self, other: "FormMatrix") -> "FormMatrix":
        """self o other, defined when other.dst == self.src.

        Column k is induced_h(self, 0, -other.src[k]) applied to the section
        vector of column k of other, so _mult_index does every product.
        """
        if other.dst != self.src:
            raise MalformedMatrix("composition twist mismatch")
        return _map_sections(self, other, self.dst, Matrix.__matmul__)

    def is_zero(self) -> bool:
        return not any(vec.any() for vec in self.sections)

    def dual(self) -> "FormMatrix":
        """Transpose with negated twists: O(-dst) -> O(-src); each slot keeps its bidegree and coefficients."""
        return self._dual

    @cached_property
    def _dual(self) -> "FormMatrix":
        cols = [_vector(self.field, [v[o[k] : o[k + 1]] for v, o in zip(self.sections, self._offsets)]) for k in range(self.rows)]
        return FormMatrix(self.field, tuple(_neg(t) for t in self.dst), tuple(_neg(t) for t in self.src), tuple(cols))

    def select_columns(self, idx) -> "FormMatrix":
        return FormMatrix(self.field, tuple(self.src[j] for j in idx), self.dst, tuple(self.sections[j] for j in idx))

    def __eq__(self, other):
        return (
            isinstance(other, FormMatrix)
            and (self.field, self.src, self.dst) == (other.field, other.src, other.dst)
            and all(np.array_equal(a, b) for a, b in zip(self.sections, other.sections))
        )

    def __repr__(self):
        return f"FormMatrix({list(self.src)} -> {list(self.dst)})"


def form_hstack(blocks: list[FormMatrix]) -> FormMatrix:
    src = tuple(t for b in blocks for t in b.src)
    return FormMatrix(blocks[0].field, src, blocks[0].dst, tuple(v for b in blocks for v in b.sections))


def form_vstack(blocks: list[FormMatrix]) -> FormMatrix:
    """Blocks stacked on one source: each column's section vector is the blocks' ones in order."""
    field, src = blocks[0].field, blocks[0].src
    dst = tuple(t for b in blocks for t in b.dst)
    return FormMatrix(field, src, dst, tuple(_vector(field, [b.sections[j] for b in blocks]) for j in range(len(src))))


def induced_h(m: FormMatrix, i: int, e: Twist) -> Matrix:
    """Block matrix of H^i(src(e)) -> H^i(dst(e)) induced by a form matrix."""
    rows, cols = split_offsets(i, m.dst, e), split_offsets(i, m.src, e)
    out = m.field.zeros(rows[-1], cols[-1])
    for k, j, deg, coeffs in m._nonzero_slots:
        if rows[k] < rows[k + 1] and cols[j] < cols[j + 1]:
            _mult_into(out[rows[k] : rows[k + 1], cols[j] : cols[j + 1]], i, deg, deg_add(m.src[j], e), coeffs)
    return Matrix(m.field, out)


def _map_sections(m: FormMatrix, x: FormMatrix, dst: SplitBundle, op) -> FormMatrix:
    """The form matrix x.src -> dst whose columns of source twist t are op(induced_h(m, 0, -t), S_t).

    S_t holds the section vectors of the columns of x with source twist t,
    so each distinct twist costs one induced matrix and one call of op.
    """
    cols = [None] * x.cols
    for t in dict.fromkeys(x.src):
        idx = [k for k, s in enumerate(x.src) if s == t]
        sections = Matrix.from_columns(x.field, [x.section(k) for k in idx])
        for k, col in zip(idx, op(induced_h(m, 0, _neg(t)), sections).columns()):
            cols[k] = col
    return FormMatrix.from_sections(x.field, x.src, dst, cols)


def constant_pairing(s: SplitBundle, t: Twist, sections: Matrix, cosections: Matrix) -> Matrix:
    """Composites O(t) -> s -> O(t) as scalars: entry (i, j) is cosection j after section i.

    Columns of sections lie in H0(s(-t)), columns of cosections in H0(s^v(t)).
    A product of the two has a constant term only through a summand of twist
    exactly t, where each side is one constant coordinate, so the pairing is
    S^T C restricted to those coordinates.
    """
    offs, cooffs = split_offsets(0, s, _neg(t)), split_offsets(0, tuple(_neg(a) for a in s), t)
    at = [k for k, a in enumerate(s) if a == t]
    rows = sections.a[[offs[k] for k in at]]
    cols = cosections.a[[cooffs[k] for k in at]]
    return Matrix(sections.field, sections.field.matmul(rows.T, cols))


def h0_mult_on_split(s: SplitBundle, f: BiForm, e: Twist) -> Matrix:
    """Multiplication by f on H0 of a shifted split bundle, summand by summand."""
    rows, cols = split_offsets(0, s, deg_add(e, f.deg)), split_offsets(0, s, e)
    out, coeffs = f.field.zeros(rows[-1], cols[-1]), f.coefficient_vector()
    for k, t in enumerate(s):
        if rows[k] < rows[k + 1] and cols[k] < cols[k + 1]:
            _mult_into(out[rows[k] : rows[k + 1], cols[k] : cols[k + 1]], 0, f.deg, deg_add(t, e), coeffs)
    return Matrix(f.field, out)


@dataclass
class SurjectivityReport:
    """The answer of sheaf_surjective and the twist that certified it.

    When surjective, B(twist) is globally generated and H0 of the map is
    onto at twist, hence at every twist >= it componentwise.
    """

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
