"""Bundles presented by maps of split bundles, with cohomology as linear algebra.

Two presentations are supported.  A kernel presentation stores a surjective
map of split bundles g: A -> B and stands for E = ker g, which is locally
free because the base is a smooth surface.  A monad presentation stores
kappa: K -> A and a surjection psi: A -> B with psi o kappa = 0 and kappa
fiberwise injective; it stands for ker(psi) / im(kappa).

Every cohomology group of E is realised inside section spaces of A and B:

  * H0(E(e)) is the kernel of the induced section-level matrix of g.
  * H1(E(e)) is modelled as coker(H0(A(e)) -> H0(B(e))) whenever H1(A(e))
    vanishes; representatives are honest section vectors of B(e).  This is
    the "coker model" that replaces Cech cochains throughout the package.
  * H2(E(e)) sits inside H2(A(e)) as the kernel of the induced H2 matrix
    when H1(B(e)) vanishes; only its dimension is ever needed.

When a vanishing hypothesis fails, dimension counts still come out of the
long exact sequence (both a cokernel and a kernel term), so tables never
need the hypothesis; only the *model* with explicit representatives does.

Connecting maps along the two pulled-back Euler sequences

    0 -> O(-1,0) -> 2 O -> O(1,0) -> 0      (s,t factor)
    0 -> O(0,-1) -> 2 O -> O(0,1) -> 0      (u,v factor)

are evaluated by one explicit section-level chase (lift, apply the
presentation map, divide by the Koszul column), which is exact linear
algebra because the middle terms are free.  The same chase serves both
directions of the pipeline: synthesis runs it on all sections of a spinor
twist (delta_matrix), and extraction runs it on the columns of a monad's
differential to find their H1 classes (MonadPresentation.h1k_map).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactla import Matrix, NoSolution, QhorrocksError, hstack, quotient_data, vstack
from .bipoly import BiForm, deg_add, deg_sub
from .linecoh import (
    FormMatrix,
    InternalInvariantViolation,
    SplitBundle,
    SurjectivityReport,
    Twist,
    _map_sections,
    constant_pairing,
    euler_char,
    h0_mult_on_split,
    induced_h,
    is_acm_twist,
    is_free_twist,
    kunneth_dim,
    sheaf_surjective,
    split_dim,
    split_h,
    spinor_shift,
)


class PrereqVanishingFailed(QhorrocksError, RuntimeError):
    """A coker/kernel model was requested at a shift where its hypothesis fails."""

    exit_code = 3


class NotSurjective(QhorrocksError, ValueError):
    """The presenting map is not surjective as a map of sheaves."""

    exit_code = 2


class NotGammaForm(QhorrocksError, ValueError):
    """A monad, or a kernel presentation whose middle term is not a sum of ACM twists."""

    exit_code = 3


class VerificationFailed(QhorrocksError, RuntimeError):
    """A recomputation check (table additivity, module match) failed."""

    exit_code = 1


@dataclass
class CokerModel:
    """H1 of a presented bundle at one shift, as a quotient of sections of B.

    reps holds one representative column per basis class; proj is the
    projection from the ambient section space with proj @ reps = identity.
    """

    e: Twist
    ambient: int
    reps: Matrix
    proj: Matrix

    @property
    def dim(self) -> int:
        return self.reps.cols


class KerPresentation:
    """E = ker(g: A -> B) for a sheaf-surjective map of split bundles.

    Where H1 of A vanishes (at every diagonal twist when A is ACM), H1 of E
    is the cokernel of H0(g), and `h1_model` gives it as a coker model.
    """

    def __init__(self, g: FormMatrix, verify: bool = True):
        self.g = g
        self.field = g.field
        self.A: SplitBundle = g.src
        self.B: SplitBundle = g.dst
        self.rank = len(self.A) - len(self.B)
        self._cache: dict = {}
        if verify and not (rep := self.onto).surjective:
            raise NotSurjective(f"not onto: section cokernel of dimension {rep.coker_dim} at twist {rep.twist}")

    @cached_property
    def onto(self) -> SurjectivityReport:
        """sheaf_surjective(g), kept: computed at load time, or at the first forced rank when unverified."""
        return sheaf_surjective(self.g)

    def __repr__(self):
        return f"KerPresentation({list(self.A)} -> {list(self.B)})"

    # -- induced section-level matrices --------------------------------
    def h_matrix(self, i: int, e: Twist) -> Matrix:
        key = ("hmat", i, e)
        if key not in self._cache:
            self._cache[key] = induced_h(self.g, i, e)
        return self._cache[key]

    # -- H0 -------------------------------------------------------------
    def _h0_rank(self, e: Twist) -> int:
        """Rank of H0(g(e)): h0(B(e)) where the certificate proves it onto, else eliminated."""
        if _h0_onto(self.onto, e):
            return split_dim(0, self.B, e)
        return self.h_matrix(0, e).rank()

    def h0_space(self, e: Twist) -> Matrix:
        """Columns: a basis of H0(E(e)) inside H0(A(e))."""
        key = ("h0", e)
        if key not in self._cache:
            n = split_dim(0, self.A, e)
            injective = self._h0_rank(e) == n
            self._cache[key] = Matrix.zeros(self.field, n, 0) if injective else self.h_matrix(0, e).kernel_matrix()
        return self._cache[key]

    def h0_dim(self, e: Twist) -> int:
        return split_dim(0, self.A, e) - self._h0_rank(e)

    def cosection_space(self, t: Twist) -> Matrix:
        """Columns: a basis of Hom(E, O(t)) inside H0(A^v(t)), as coset representatives.

        Uses Hom(E, L) = coker(Hom(B, L) -> Hom(A, L)), which is exact once
        Ext^1(B, L) vanishes; that holds whenever each twist of B differs from
        the ACM twist L by a diagonal shift, in particular for free B.
        """
        key = ("cosec", t)
        if key not in self._cache:
            if not is_acm_twist(t):
                raise ValueError(f"{t} is not an ACM twist")
            for b in self.B:
                if kunneth_dim(1, deg_sub(t, b)) != 0:
                    raise PrereqVanishingFailed(f"Ext^1(O{b}, O{t}) is nonzero")
            mat = induced_h(self.g.dual(), 0, t)  # Hom(B, L) -> Hom(A, L), injective when g is onto
            rank = mat.cols if self.onto.surjective else mat.rank()
            self._cache[key] = _coker_data(self.field, mat.rows, rank, lambda: mat)[0]
        return self._cache[key]

    # -- H1 -------------------------------------------------------------
    def h1_model(self, e: Twist) -> CokerModel:
        key = ("h1model", e)
        if key not in self._cache:
            if split_dim(1, self.A, e) != 0:
                raise PrereqVanishingFailed(f"H1 of the middle term is nonzero at shift {e}")
            n = split_dim(0, self.B, e)
            coker = _coker_data(self.field, n, self._h0_rank(e), lambda: self.h_matrix(0, e))
            self._cache[key] = CokerModel(e, n, *coker)
        return self._cache[key]

    def h1_dim(self, e: Twist) -> int:
        a1 = split_dim(1, self.A, e)
        return (split_dim(0, self.B, e) - self._h0_rank(e)) + (a1 - self.h_matrix(1, e).rank() if a1 else 0)

    # -- H2 -------------------------------------------------------------
    def h2_dim(self, e: Twist) -> int:
        # H3 vanishes on a surface, so H2 of an onto g is onto
        _, b1, b2 = split_h(self.B, e)
        rank2 = b2 if self.onto.surjective else self.h_matrix(2, e).rank()
        return (split_dim(2, self.A, e) - rank2) + (b1 - self.h_matrix(1, e).rank() if b1 else 0)

    def dims_at(self, e: Twist) -> tuple[int, int, int]:
        """(h0_dim(e), h1_dim(e), h2_dim(e)) from one Kunneth pass per bundle, with the same ranks."""
        a0, a1, a2 = split_h(self.A, e)
        b0, b1, b2 = split_h(self.B, e)
        r0 = b0 if _h0_onto(self.onto, e) else self.h_matrix(0, e).rank()
        r1 = self.h_matrix(1, e).rank() if a1 or b1 else 0
        r2 = b2 if self.onto.surjective else self.h_matrix(2, e).rank()
        return (a0 - r0, (b0 - r0) + (a1 - r1), (a2 - r2) + (b1 - r1))

    # -- module action on the H1 model ----------------------------------
    def mult_model(self, f: BiForm, e: Twist) -> Matrix:
        """Multiplication by f from the H1 model at e to the one at e + deg f."""
        src = self.h1_model(e)
        dst = self.h1_model(deg_add(e, f.deg))
        if dst.dim == 0:
            return Matrix.zeros(self.field, 0, src.dim)
        mul = h0_mult_on_split(self.B, f, e)
        return dst.proj @ (mul @ src.reps)

    # -- support of the diagonal H1 module -----------------------------
    def h1_diagonal_support(self) -> tuple[int, int]:
        """Smallest window [lo, hi] outside which H1(E(d,d)) vanishes.

        The cokernel part is a quotient of the section module of B, which is
        generated where its summands first acquire sections; so once both
        that degree and the finite twist ranges carrying H1 of A are passed,
        the first vanishing degree certifies vanishing everywhere above it.
        """
        coker_gens = []
        a_ranges = []
        for b1, b2 in self.B:
            coker_gens.append(-min(b1, b2))
        for a1, a2 in self.A:
            if a1 - a2 >= 2:
                a_ranges.extend([-a1, -a2 - 2])
            elif a2 - a1 >= 2:
                a_ranges.extend([-a2, -a1 - 2])
        cands = coker_gens + a_ranges
        if not cands:
            return (0, -1)
        settled = max(coker_gens + [x + 1 for x in a_ranges])
        return support_window(lambda d: self.h1_dim((d, d)), min(cands), settled, "diagonal H1")

    def table(self, lo: int, hi: int) -> dict:
        """h^i over diagonal twists and both spinor strips for d in [lo, hi]."""
        return _strip_table(self.dims_at, lo, hi)


def _h0_onto(rep: SurjectivityReport, e: Twist) -> bool:
    """Whether rep proves H0 of its map onto at e, which it does at every e >= rep.twist."""
    return rep.surjective and e[0] >= rep.twist[0] and e[1] >= rep.twist[1]


def _coker_data(field, rows: int, rank: int, span) -> tuple[Matrix, Matrix]:
    """quotient_data of the column span of the matrix span() of that rank; not built when the rank fills it."""
    if rank == rows:
        return Matrix.zeros(field, rows, 0), Matrix.zeros(field, 0, rows)
    return quotient_data(span())


def support_window(dim_at, start: int, settled: int, what: str) -> tuple[int, int]:
    """Smallest [lo, hi] holding every degree d >= start with dim_at(d) > 0; (0, -1) if none.

    The caller has proved that past `settled` one vanishing degree certifies
    vanishing in every degree above it, so the scan stops at the first zero
    there; VerificationFailed if none comes within 64 degrees of `settled`.
    """
    found = []
    for d in range(start, settled + 65):
        if dim_at(d):
            found.append(d)
        elif d > settled:
            return (found[0], found[-1]) if found else (0, -1)
    raise VerificationFailed(f"{what} support did not close")


def _strip_table(dims_at, lo: int, hi: int) -> dict:
    """dims_at(e) keyed by (kind, d): kind "o" at (d, d), "s1" and "s2" on the two spinor strips."""
    return {
        (kind, d): dims_at(e)
        for d in range(lo, hi + 1)
        for kind, e in (("o", (d, d)), ("s1", spinor_shift(1, d)), ("s2", spinor_shift(2, d)))
    }


def line_bundle_table(t: Twist, lo: int, hi: int) -> dict:
    """The table a plain line bundle O(t) would give; for comparisons."""
    return _strip_table(lambda e: split_h((t,), e), lo, hi)


# ---------------------------------------------------------------------------
# form-level solving


def solve_form_system(u: FormMatrix, wt: FormMatrix) -> FormMatrix:
    """The unique-shape solve U X = Wt for form matrices.

    X runs from wt.src to u.src.  Each column is one exact linear system in
    the monomial coefficients of its entries, and columns with the same
    source twist share one matrix, so they are solved together; NoSolution
    propagates when a column of Wt is outside the image (the caller
    interprets that as an Ext obstruction or a module mismatch).
    """
    if u.dst != wt.dst:
        raise ValueError("targets differ")
    return _map_sections(u, wt, u.src, Matrix.solve_matrix)


# ---------------------------------------------------------------------------
# Hom spaces against ACM line bundles, summand detection, stripping


def _candidate_acm_twists(a: SplitBundle) -> list[Twist]:
    lo = min(min(t) for t in a)
    hi = max(max(t) for t in a)
    out = []
    for x in range(lo, hi + 1):
        for y in range(lo, hi + 1):
            if abs(x - y) <= 1:
                out.append((x, y))
    return out


def find_acm_summand(p: KerPresentation):
    """First ACM line bundle twist that splits off, with its section and retraction.

    At each candidate twist t the composition pairing Hom(O(t), E) x Hom(E, O(t)) -> k
    is read off the section and cosection bases (constant_pairing); O(t) splits off
    exactly when some entry is nonzero, since a nonzero composite in Hom(O(t), O(t)) = k
    rescales to the identity.  Only the chosen pair is built as form matrices.
    """
    if p.rank <= 0 or not p.A:
        return None
    for twist in _candidate_acm_twists(p.A):
        neg = (-twist[0], -twist[1])
        sections, cosections = p.h0_space(neg), p.cosection_space(twist)
        pairing = constant_pairing(p.A, twist, sections, cosections)
        if pairing.is_zero():
            continue
        i, j = (int(x) for x in np.argwhere(pairing.a != 0)[0])
        phi = FormMatrix.from_sections(p.field, (twist,), p.A, [sections.a[:, i]])
        # cosection j, scaled so that pi o phi = 1, as one column O(-twist) -> A^v
        scaled = p.field.reduce(cosections.a[:, j] * p.field.inv(pairing.a[i, j]))
        pi = FormMatrix.from_sections(p.field, (neg,), tuple((-a, -b) for a, b in p.A), [scaled]).dual()
        return twist, phi, pi
    return None


def strip_acm(p: KerPresentation):
    """Remove ACM line bundle summands until none is detected.

    Whenever some O(t) splits off through a pair (phi, pi) with pi o phi = 1,
    the retraction must carry a unit on a middle summand of the same twist
    (a constant composite needs matching twists on both sides).  A column
    operation centred on that unit splits the presentation as (smaller
    presentation) + (identity on O(t)), so the target stays free and the
    middle term shrinks by one summand per round.  Each removal is verified
    by table additivity h^i(E) = h^i(E') + h^i(O(t)) over the twist window.
    """
    if isinstance(p, MonadPresentation):
        raise NotGammaForm("summand stripping applies to gamma-form bundle files")
    if not all(is_free_twist(t) for t in p.B):
        raise VerificationFailed("summand stripping needs a free target")
    removed: list[Twist] = []
    current = p
    while (found := find_acm_summand(current)) is not None:
        twist, phi, pi = found
        lo, hi = _table_window(current)
        before = current.table(lo, hi)
        nxt = KerPresentation(_split_off_unit(current.g, twist, phi, pi), verify=False)
        after = nxt.table(lo, hi)
        summand = line_bundle_table(twist, lo, hi)
        for key in before:
            if tuple(before[key]) != tuple(x + y for x, y in zip(after[key], summand[key])):
                raise VerificationFailed(f"table additivity broke at {key} while removing O{twist}")
        removed.append(twist)
        current = nxt
    return current, removed


def _split_off_unit(g: FormMatrix, twist: Twist, phi: FormMatrix, pi: FormMatrix) -> FormMatrix:
    """One column reduction: drop the split O(twist) from the middle term.

    pi o phi = 1 forces some middle summand j0 with the same twist where
    both pi_j0 and phi_j0 are nonzero constants.  After normalising
    pi_j0 = 1, replacing column j by column j - (pi_j) . column j0 makes the
    retraction the j0-th coordinate, so the kernel of the reduced matrix is
    the complement of O(twist) in the kernel of g.  Each product pi_j .
    column j0 is taken on the section vector of column j0.

    find_acm_summand passes a unit coset vector as pi, so every strip_acm
    call subtracts zero; only the direct test
    test_split_off_unit_subtracts_multiples_of_the_pivot_column reaches the general update.
    """
    field = g.field
    j0 = None
    for j, t in enumerate(g.src):
        if t == twist and not pi.entries[0][j].is_zero() and not phi.entries[j][0].is_zero():
            j0 = j
            break
    if j0 is None:
        raise InternalInvariantViolation("split pair without a unit pivot")
    pivot = field.reduce(g.section(j0) * field.neg(field.inv(pi.entries[0][j0].constant_value())))
    keep = [j for j in range(len(g.src)) if j != j0]
    cols = [
        field.reduce(g.section(j) + h0_mult_on_split(g.dst, pi.entries[0][j], (-twist[0], -twist[1])) @ pivot)
        for j in keep
    ]
    return FormMatrix.from_sections(field, tuple(g.src[j] for j in keep), g.dst, cols)


def _table_window(p: KerPresentation) -> tuple[int, int]:
    vals = [x for t in (list(p.A) + list(p.B)) for x in t]
    lo = min(vals) - 2
    hi = max(vals) + 2
    return lo, hi


# ---------------------------------------------------------------------------
# spinor sequences: connecting maps and H1 chases


def delta_matrix(p: KerPresentation, j: int, d: int) -> tuple[Matrix, Matrix]:
    """All of H0(F x Sigma_j(-d)) and the matrix of the connecting map on it.

    Returns (sections, delta) where sections columns form the kernel basis at
    the source shift and delta maps them into coordinates of the H1 model at
    the target shift (_euler_chase).  For j = 2 the sections live in
    H0(A(-d, -d+1)) and the classes in H1(F(-d, -d-1)); mirrored for j = 1.
    """
    sections = p.h0_space((-d, -d + 1) if j == 2 else (-d + 1, -d))
    return sections, _euler_chase(p, j, d, sections)


def _euler_chase(p: KerPresentation, j: int, d: int, sections: Matrix) -> Matrix:
    """The connecting map of the j-th Euler sequence of F = ker g, twisted by -d, on given sections.

    For j = 2 the sequence is 0 -> F(-d, -d-1) -> 2 F(-d, -d) -> F(-d, -d+1) -> 0
    with [u, v] on the right; j = 1 mirrors it with [s, t].  Columns of
    sections lie in H0(F(-d, -d+1)) inside H0(A(-d, -d+1)); the result holds
    their classes in coordinates of the H1 model at (-d, -d-1).  Synthesis
    runs it on all sections (delta_matrix), extraction on the columns of a
    monad's kappa (MonadPresentation.h1k_map).

    Chase, on all sections at once: lift over [u, v] through sections of
    2 A(-d, -d) (possible because H1 of A vanishes at the target shift, which
    its H1 model requires), push into B, and divide the resulting pair by
    the Koszul column (-v, u)^T, which is exact on sections.
    """
    field = p.field
    e_mid = (-d, -d)
    if j == 2:
        e_dst = (-d, -d - 1)
        f1, f2 = BiForm.variable(field, "u"), BiForm.variable(field, "v")
    else:
        e_dst = (-d - 1, -d)
        f1, f2 = BiForm.variable(field, "s"), BiForm.variable(field, "t")
    model = p.h1_model(e_dst)
    mul = hstack([h0_mult_on_split(p.A, f1, e_mid), h0_mult_on_split(p.A, f2, e_mid)])
    lifted = mul.solve_matrix(sections)
    n = split_dim(0, p.A, e_mid)
    g0 = p.h_matrix(0, e_mid)
    pushed = vstack([g0 @ Matrix(field, lifted.a[:n]), g0 @ Matrix(field, lifted.a[n:])])
    koszul = vstack([-h0_mult_on_split(p.B, f2, e_dst), h0_mult_on_split(p.B, f1, e_dst)])
    try:
        h = koszul.solve_matrix(pushed)
    except NoSolution as exc:
        raise InternalInvariantViolation("Koszul factorisation failed; input was not a section") from exc
    return model.proj @ h


# ---------------------------------------------------------------------------
# monads


def _powers(field, x: np.ndarray, top: int) -> np.ndarray:
    """out[n, e] = x[n] ** e for e = 0 .. top."""
    out = field.zeros(x.shape[0], top + 1)
    out[:, 0] = field.scalar(1)
    for e in range(1, top + 1):
        out[:, e] = field.reduce(out[:, e - 1] * x)
    return out


class MonadPresentation:
    """E = ker(psi) / im(kappa) for split bundles K -> A -> B.

    kappa must be fiberwise injective, that is, its dual must be onto as a
    map of sheaves; verify=True proves it with sheaf_surjective.
    """

    def __init__(self, kappa: FormMatrix, psi: FormMatrix, verify: bool = True):
        if kappa.dst != psi.src:
            raise ValueError("kappa and psi do not share the middle bundle")
        self.kappa = kappa
        self.psi = psi
        self.field = psi.field
        self.K: SplitBundle = kappa.src
        self.A: SplitBundle = psi.src
        self.B: SplitBundle = psi.dst
        self.rank = len(self.A) - len(self.B) - len(self.K)
        if not psi.compose(kappa).is_zero():
            raise ValueError("psi o kappa is nonzero")
        self.fbar = KerPresentation(psi, verify=verify)
        self._cache: dict = {}
        if verify and not (rep := self.dual_onto).surjective:
            raise ValueError(f"kappa drops rank: its dual has a section cokernel at twist {rep.twist}")

    @cached_property
    def dual_onto(self) -> SurjectivityReport:
        """sheaf_surjective(kappa^v), kept like KerPresentation.onto; when onto, kappa is injective."""
        return sheaf_surjective(self.kappa.dual())

    def __repr__(self):
        return f"MonadPresentation({list(self.K)} -> {list(self.A)} -> {list(self.B)})"

    def fiberwise_injective(self, rng=None, samples: int = 50) -> bool:
        """Sampled only: kappa has full rank at random points with four nonzero coordinates.

        The points are drawn first, four nonzero scalars each, and kappa is
        evaluated at all of them at once, one entry at a time: entry (k, j)
        of bidegree (a, b) has the coefficients c[a - i, b - j] of s^i t^(a-i)
        u^j v^(b-j) in its slice of section j, so its values are the row sums
        of (S c) * U, with S[n, r] = s_n^(a-r) t_n^r and U[n, q] = u_n^(b-q) v_n^q.
        """
        rng = rng or random.Random(20003)
        if not self.K:
            return True
        fld = self.field
        coords = []
        while len(coords) < 4 * samples:
            x = fld.random_scalar(rng)
            if x != 0:
                coords.append(x)
        slots = [(k, j, (a, b), c.reshape(a + 1, b + 1)) for k, j, (a, b), c in self.kappa._nonzero_slots]
        top = max((max(deg) for _, _, deg, _ in slots), default=0)
        s, t, u, v = (_powers(fld, x, top) for x in fld.array([coords[n::4] for n in range(4)]))
        vals = fld.zeros(samples, len(self.A) * len(self.K)).reshape(samples, len(self.A), len(self.K))
        for k, j, (a, b), c in slots:
            left = fld.reduce(s[:, a::-1] * t[:, : a + 1])
            right = fld.reduce(u[:, b::-1] * v[:, : b + 1])
            vals[:, k, j] = fld.reduce(fld.reduce(fld.matmul(left, c) * right).sum(axis=1))
        for point in vals:
            if Matrix(fld, point).rank() < len(self.K):
                return False
        return True

    # -- connecting data --------------------------------------------------
    def h1k_map(self, e: Twist) -> Matrix:
        """Matrix H1(K(e)) -> H1 coker model of ker(psi) at shift e.

        A summand O(k) of K with H1(O(k + e)) nonzero must carry the one class
        of its Euler sequence there: k + e = (0, -2) when k0 - k1 = 1 (the
        j = 2 sequence at d = k0), k + e = (-2, 0) when k0 - k1 = -1 (j = 1 at
        d = k1).  So every such summand has the same twist, and its kappa
        column, a section of ker(psi)(-k), goes through _euler_chase with the
        others in one batch; each class comes out with delta_matrix's sign.
        """
        key = ("h1k", e)
        if key in self._cache:
            return self._cache[key]
        live = [(i, k) for i, k in enumerate(self.K) if kunneth_dim(1, deg_add(k, e)) > 0]
        if not live:
            out = Matrix.zeros(self.field, self.fbar.h1_dim(e), 0)
            self._cache[key] = out
            return out
        self.fbar.h1_model(e)  # PrereqVanishingFailed unless H1(A(e)) = 0, as the chase needs
        for _, k in live:
            if kunneth_dim(1, deg_add(k, e)) > 1:
                raise InternalInvariantViolation(f"unsupported shift {e} for summand {k}")
            if abs(k[0] - k[1]) != 1:
                raise InternalInvariantViolation(f"column twist {k} is not of spinor type")
            if deg_add(k, e) != ((0, -2) if k[0] - k[1] == 1 else (-2, 0)):
                raise InternalInvariantViolation(f"H1 of summand {k} at shift {e} is not its Euler class")
        k = live[0][1]
        j, d = (2, k[0]) if k[0] - k[1] == 1 else (1, k[1])
        sections = Matrix.from_columns(self.field, [self.kappa.section(i) for i, _ in live])
        out = _euler_chase(self.fbar, j, d, sections)
        self._cache[key] = out
        return out

    def _h2_kappa(self, e: Twist, h2k: int) -> int:
        """The rank of H2(K(e)) -> H2(ker psi)(e), where h2k = h2(K(e)).

        That is the rank of H2(kappa) into H2(A(e)): psi o kappa = 0, and H1(B(e)) = 0 embeds H2(ker psi) there.
        By Serre duality H2(kappa(e)) is the transpose of H0(kappa^v(-e - (2, 2))), so it is
        injective wherever the dual certificate proves that onto.
        """
        if h2k and split_dim(1, self.B, e) != 0:
            raise PrereqVanishingFailed(f"H1 of the target is nonzero at shift {e}")
        if not h2k or _h0_onto(self.dual_onto, (-e[0] - 2, -e[1] - 2)):
            return h2k
        return induced_h(self.kappa, 2, e).rank()

    def _h0_kappa(self, e: Twist, h0k: int) -> int:
        """The rank of H0(kappa(e)), where h0k = h0(K(e)); H0 is left exact, so an injective kappa stays so."""
        return h0k if self.dual_onto.surjective else induced_h(self.kappa, 0, e).rank()

    # h0_dim, h1_dim and dims_at read only the rank and column count of h1k_map(e), both 0 where h1(K(e)) = 0
    def h0_dim(self, e: Twist) -> int:
        k0, k1, _ = split_h(self.K, e)
        c1 = self.h1k_map(e) if k1 else Matrix.zeros(self.field, 0, 0)
        return (self.fbar.h0_dim(e) - self._h0_kappa(e, k0)) + (c1.cols - c1.rank())

    def h1_dim(self, e: Twist) -> int:
        _, k1, h2k = split_h(self.K, e)
        r1 = self.h1k_map(e).rank() if k1 else 0
        return (self.fbar.h1_dim(e) - r1) + (h2k - self._h2_kappa(e, h2k))

    def h2_dim(self, e: Twist) -> int:
        return self.fbar.h2_dim(e) - self._h2_kappa(e, split_dim(2, self.K, e))

    def dims_at(self, e: Twist) -> tuple[int, int, int]:
        """(h0_dim(e), h1_dim(e), h2_dim(e)) from one Kunneth pass over K, checked against chi."""
        k0, k1, k2 = split_h(self.K, e)
        r0 = self._h0_kappa(e, k0)
        c1 = self.h1k_map(e) if k1 else Matrix.zeros(self.field, 0, 0)
        r2 = self._h2_kappa(e, k2)
        f0, f1, f2 = self.fbar.dims_at(e)
        h0, h1, h2 = (f0 - r0) + (c1.cols - c1.rank()), (f1 - c1.rank()) + (k2 - r2), f2 - r2
        if h0 - h1 + h2 != euler_char(self.A, e) - euler_char(self.B, e) - euler_char(self.K, e):
            raise InternalInvariantViolation(f"Euler characteristic mismatch at {e}")
        return (h0, h1, h2)

    def table(self, lo: int, hi: int) -> dict:
        return _strip_table(self.dims_at, lo, hi)

    def h2_kappa_injective(self) -> bool:
        """Exact certificate that H2 of kappa is injective at every diagonal twist.

        By Serre duality this is surjectivity of the dual map on all
        sections of the dual of K.  That section module is generated in the
        degrees where each dual summand first has sections, so checking the
        cokernel on the finite degree range between the smallest and largest
        such degree decides all twists at once.  Needs every twist of B to
        be ACM (true for the free targets produced in this package).  Degrees
        at or past the dual's certificate twist are onto without a check.
        """
        if not self.K:
            return True
        if not all(is_acm_twist(t) for t in self.B):
            raise PrereqVanishingFailed("certificate needs ACM target twists")
        firsts = [max(k) for k in self.K]
        dual = self.kappa.dual()
        for f in range(min(firsts), max(firsts) + 1):
            if _h0_onto(self.dual_onto, (f, f)):
                break
            m = induced_h(dual, 0, (f, f))
            if m.rows - m.rank() != 0:
                return False
        return True
