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
    when H1(B(e)) vanishes.

When a vanishing hypothesis fails, dimension counts still come out of the
long exact sequence (both a cokernel and a kernel term), so tables never
need the hypothesis; only the *model* with explicit representatives does.

Connecting maps along the two pulled-back Euler sequences

    0 -> O(-1,0) -> 2 O -> O(1,0) -> 0      (s,t factor)
    0 -> O(0,-1) -> 2 O -> O(0,1) -> 0      (u,v factor)

are evaluated by an explicit section-level chase (lift, apply the
presentation map, divide by the Koszul column), which is exact linear
algebra because the middle terms are free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exactla import Matrix, NoSolution, QhorrocksError, hstack, quotient_data, vstack
from .bipoly import BiForm, deg_add, deg_sub
from .linecoh import (
    FormMatrix,
    SplitBundle,
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
    spinor_shift,
)


class PrereqVanishingFailed(QhorrocksError, RuntimeError):
    """A coker/kernel model was requested at a shift where its hypothesis fails."""

    exit_code = 3


class NotSurjective(QhorrocksError, ValueError):
    """The presenting map is not surjective as a map of sheaves."""

    exit_code = 2


class VerificationFailed(QhorrocksError, RuntimeError):
    """A recomputation check (table additivity, module match) failed."""

    exit_code = 1


class InternalInvariantViolation(QhorrocksError, RuntimeError):
    """A step the theory guarantees to succeed did not; indicates invalid input."""

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

    gamma_form is true when every twist of A is ACM and every twist of B is
    free; then H1 of A vanishes in all diagonal twists and the coker model
    of H1(E) exists everywhere it is nonzero.
    """

    def __init__(self, g: FormMatrix, verify: bool = True):
        self.g = g
        self.field = g.field
        self.A: SplitBundle = g.src
        self.B: SplitBundle = g.dst
        self.rank = len(self.A) - len(self.B)
        self.gamma_form = all(is_acm_twist(t) for t in self.A) and all(is_free_twist(t) for t in self.B)
        self._cache: dict = {}
        if verify and not (rep := sheaf_surjective(g)).surjective:
            raise NotSurjective(f"not onto: section cokernel of dimension {rep.coker_dim} at twist {rep.twist}")

    def __repr__(self):
        return f"KerPresentation({list(self.A)} -> {list(self.B)})"

    # -- induced section-level matrices --------------------------------
    def h_matrix(self, i: int, e: Twist) -> Matrix:
        key = ("hmat", i, e)
        if key not in self._cache:
            self._cache[key] = induced_h(self.g, i, e)
        return self._cache[key]

    # -- H0 -------------------------------------------------------------
    def h0_space(self, e: Twist) -> Matrix:
        """Columns: a basis of H0(E(e)) inside H0(A(e))."""
        key = ("h0", e)
        if key not in self._cache:
            self._cache[key] = self.h_matrix(0, e).kernel_matrix()
        return self._cache[key]

    def h0_dim(self, e: Twist) -> int:
        m = self.h_matrix(0, e)
        return m.cols - m.rank()

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
            mat = induced_h(self.g.dual(), 0, t)  # Hom(B, L) -> Hom(A, L)
            self._cache[key] = quotient_data(self.field, mat.rows, list(mat.columns()))[0]
        return self._cache[key]

    # -- H1 -------------------------------------------------------------
    def h1_model(self, e: Twist) -> CokerModel:
        key = ("h1model", e)
        if key not in self._cache:
            if split_dim(1, self.A, e) != 0:
                raise PrereqVanishingFailed(f"H1 of the middle term is nonzero at shift {e}")
            m = self.h_matrix(0, e)
            reps, proj = quotient_data(self.field, m.rows, list(m.columns()))
            self._cache[key] = CokerModel(e, m.rows, reps, proj)
        return self._cache[key]

    def h1_dim(self, e: Twist) -> int:
        m0 = self.h_matrix(0, e)
        coker0 = m0.rows - m0.rank()
        if split_dim(1, self.A, e) == 0:
            return coker0
        m1 = self.h_matrix(1, e)
        return coker0 + (m1.cols - m1.rank())

    # -- H2 -------------------------------------------------------------
    def h2_model(self, e: Twist) -> Matrix:
        """Columns: a basis of H2(E(e)) inside H2(A(e)); needs H1(B(e)) = 0."""
        key = ("h2model", e)
        if key not in self._cache:
            if split_dim(1, self.B, e) != 0:
                raise PrereqVanishingFailed(f"H1 of the target is nonzero at shift {e}")
            self._cache[key] = self.h_matrix(2, e).kernel_matrix()
        return self._cache[key]

    def h2_dim(self, e: Twist) -> int:
        m2 = self.h_matrix(2, e)
        ker2 = m2.cols - m2.rank()
        if split_dim(1, self.B, e) == 0:
            return ker2
        m1 = self.h_matrix(1, e)
        return ker2 + (m1.rows - m1.rank())

    def dims_at(self, e: Twist) -> tuple[int, int, int]:
        return (self.h0_dim(e), self.h1_dim(e), self.h2_dim(e))

    # -- module action on the H1 model ----------------------------------
    def mult_model(self, f: BiForm, e: Twist) -> Matrix:
        """Multiplication by f from the H1 model at e to the one at e + deg f."""
        src = self.h1_model(e)
        dst = self.h1_model(deg_add(e, f.deg))
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
    return _strip_table(lambda e: tuple(kunneth_dim(i, deg_add(t, e)) for i in (0, 1, 2)), lo, hi)


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


def lift_lambda(psi: FormMatrix, gamma: "KerPresentation") -> FormMatrix:
    """A lift L1 -> A with g o lift = psi, for presentations sharing the target.

    Both maps must present the same module minimally over the *same* chosen
    surjection; the induced map on every diagonal H1 piece is then checked to
    be an isomorphism (by dimension, since it is onto by construction).
    NoSolution signals a module mismatch.
    """
    if psi.dst != gamma.B:
        raise ValueError("the two presentations do not share a target")
    lam = solve_form_system(gamma.g, psi)
    psi_pres = KerPresentation(psi, verify=False)
    lo, hi = psi_pres.h1_diagonal_support()
    for d in range(lo, hi + 1):
        if psi_pres.h1_dim((d, d)) != gamma.h1_dim((d, d)):
            raise VerificationFailed(f"lift does not induce an H1 isomorphism at degree {d}")
    return lam


# ---------------------------------------------------------------------------
# Hom spaces against ACM line bundles, summand detection, stripping


def hom_line_to_ker(p: KerPresentation, twist: Twist) -> list[FormMatrix]:
    """Basis of Hom(O(twist), E) as single-column form matrices into A."""
    sections = p.h0_space((-twist[0], -twist[1]))
    return [FormMatrix.from_sections(p.field, (twist,), p.A, [vec]) for vec in sections.columns()]


def hom_ker_to_line(p: KerPresentation, twist: Twist) -> list[FormMatrix]:
    """Basis of Hom(E, O(twist)) as single-row form matrices on A (see cosection_space)."""
    dual_a, neg = tuple((-a, -b) for a, b in p.A), (-twist[0], -twist[1])
    cosections = p.cosection_space(twist)
    return [FormMatrix.from_sections(p.field, (neg,), dual_a, [vec]).dual() for vec in cosections.columns()]


def summand_pairing(p: KerPresentation, twist: Twist) -> tuple[Matrix, list[FormMatrix], list[FormMatrix]]:
    """The composition pairing Hom(O(t), E) x Hom(E, O(t)) -> k.

    Entry (i, j) is the scalar pi_j o phi_i.  O(t) splits off E exactly when
    some entry is nonzero (a nonzero composite in Hom(L, L) = k rescales to
    the identity).
    """
    pairing = constant_pairing(p.A, twist, p.h0_space((-twist[0], -twist[1])), p.cosection_space(twist))
    return pairing, hom_line_to_ker(p, twist), hom_ker_to_line(p, twist)


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
    """First ACM line bundle twist that splits off, with its section and retraction."""
    if p.rank <= 0 or not p.A:
        return None
    for twist in _candidate_acm_twists(p.A):
        pairing, phis, pis = summand_pairing(p, twist)
        if pairing.is_zero():
            continue
        nz = np.argwhere(pairing.a != 0)
        i, j = int(nz[0][0]), int(nz[0][1])
        pi = pis[j].dual()  # the cosection as one column O(-twist) -> A^v
        scaled = p.field.reduce(pi.section(0) * p.field.inv(pairing.a[i, j]))
        return twist, phis[i], FormMatrix.from_sections(p.field, pi.src, pi.dst, [scaled]).dual()
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


def _koszul_data(field, kind: int, q: int):
    """Inclusion and projection of the pulled-back Euler sequence at twist q.

    kind 2: 0 -> O(q, q-1) -> 2 O(q) -> O(q, q+1) -> 0 with [-v, u]^T and [u, v]
    kind 1: 0 -> O(q-1, q) -> 2 O(q) -> O(q+1, q) -> 0 with [-t, s]^T and [s, t]
    """
    two = ((q, q), (q, q))
    if kind == 2:
        left = (q, q - 1)
        right = (q, q + 1)
        mv = BiForm.make(field, (0, 1), {(0, 0): -1})
        pu = BiForm.make(field, (0, 1), {(0, 1): 1})
        pv = BiForm.make(field, (0, 1), {(0, 0): 1})
        inc = FormMatrix(field, (left,), two, ((mv,), (pu,)))
        proj = FormMatrix(field, two, (right,), ((pu, pv),))
    else:
        left = (q - 1, q)
        right = (q + 1, q)
        mt = BiForm.make(field, (1, 0), {(0, 0): -1})
        ps = BiForm.make(field, (1, 0), {(1, 0): 1})
        pt = BiForm.make(field, (1, 0), {(0, 0): 1})
        inc = FormMatrix(field, (left,), two, ((mt,), (ps,)))
        proj = FormMatrix(field, two, (right,), ((ps, pt),))
    return left, right, inc, proj


def delta_matrix(p: KerPresentation, j: int, d: int) -> tuple[Matrix, Matrix]:
    """All of H0(F x Sigma_j(-d)) and the matrix of the connecting map on it.

    Returns (sections, delta) where sections columns form the kernel basis at
    the source shift and delta maps them into coordinates of the H1 model at
    the target shift.  For j = 2 the sections live in H0(A(-d, -d+1)) and the
    classes in H1(F(-d, -d-1)); mirrored for j = 1.

    Chase, on all sections at once: lift over [u, v] through sections of
    2 A(-d) (possible because the twists of A there are ACM), push into B,
    and divide the resulting pair by the Koszul column (-v, u)^T, which is
    exact on sections.
    """
    field = p.field
    if j == 2:
        e_src, e_mid, e_dst = (-d, -d + 1), (-d, -d), (-d, -d - 1)
        f1, f2 = BiForm.variable(field, "u"), BiForm.variable(field, "v")
    else:
        e_src, e_mid, e_dst = (-d + 1, -d), (-d, -d), (-d - 1, -d)
        f1, f2 = BiForm.variable(field, "s"), BiForm.variable(field, "t")
    sections = p.h0_space(e_src)
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
    return sections, model.proj @ h


def h1_spinor_class_of_column(p: KerPresentation, col: FormMatrix, e: Twist) -> np.ndarray:
    """Push the one H1 class of a spinor-inverse column through the presentation.

    col is a single-column map O(k) -> A whose composite with g vanishes,
    where O(k + e) has the one-dimensional H1 of an O(0,-2)-type twist.  The
    class of the column's H1 at shift e lands in the coker model of the
    presented bundle; the return value is its ambient section vector in B(e).

    The computation extends the column along its Euler sequence (solvable
    since the relevant Ext^1 against A vanishes for free or ACM-compatible
    A), pushes to B, and divides by the Koszul projection.
    """
    field = p.field
    (k,) = col.src
    gap = k[0] - k[1]
    if abs(gap) != 1:
        raise InternalInvariantViolation(f"column twist {k} is not of spinor type")
    kind = 2 if gap == 1 else 1
    q = k[0] if kind == 2 else k[1]
    tw = deg_add(k, e)
    if kunneth_dim(1, tw) != 1:
        raise InternalInvariantViolation(f"no one-dimensional H1 at twist {tw}")
    left, right, inc, proj = _koszul_data(field, kind, q)
    try:
        xdual = solve_form_system(inc.dual(), col.dual())
    except NoSolution as exc:
        raise InternalInvariantViolation("spinor column does not extend over its Euler sequence") from exc
    x = xdual.dual()
    gx = p.g.compose(x)  # 2 O(q) -> B, kills the inclusion
    try:
        hdual = solve_form_system(proj.dual(), gx.dual())
    except NoSolution as exc:
        raise InternalInvariantViolation("pushed section does not factor through the Koszul column") from exc
    return hdual.dual().section(0)  # O(right) -> B, and right = -e


# ---------------------------------------------------------------------------
# monads


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
        if verify and not (rep := sheaf_surjective(kappa.dual())).surjective:
            raise ValueError(f"kappa drops rank: its dual has a section cokernel at twist {rep.twist}")

    def __repr__(self):
        return f"MonadPresentation({list(self.K)} -> {list(self.A)} -> {list(self.B)})"

    def fiberwise_injective(self, rng=None, samples: int = 50) -> bool:
        """Sampled only: kappa has full rank at random points with four nonzero coordinates."""
        rng = rng or random.Random(20003)
        if not self.K:
            return True
        for _ in range(samples):
            point = []
            while len(point) < 4:
                x = self.field.random_scalar(rng)
                if x != 0:
                    point.append(x)
            vals = [[f.evaluate(*point) for f in row] for row in self.kappa.entries]
            if Matrix.make(self.field, vals).rank() < len(self.K):
                return False
        return True

    # -- connecting data --------------------------------------------------
    def h1k_map(self, e: Twist) -> Matrix:
        """Matrix H1(K(e)) -> H1 coker model of ker(psi) at shift e."""
        key = ("h1k", e)
        if key in self._cache:
            return self._cache[key]
        live = [(j, k) for j, k in enumerate(self.K) if kunneth_dim(1, deg_add(k, e)) > 0]
        if not live:
            out = Matrix.zeros(self.field, self.fbar.h1_dim(e), 0)
            self._cache[key] = out
            return out
        model = self.fbar.h1_model(e)
        cols = []
        for j, k in live:
            if kunneth_dim(1, deg_add(k, e)) > 1:
                raise InternalInvariantViolation(f"unsupported shift {e} for summand {k}")
            vec = h1_spinor_class_of_column(self.fbar, self.kappa.select_columns([j]), e)
            cols.append(model.proj @ vec)
        out = Matrix.from_columns(self.field, cols, rows_dim=model.dim)
        self._cache[key] = out
        return out

    def h2k_map(self, e: Twist) -> Matrix:
        """Matrix H2(K(e)) -> H2(ker psi)(e) in the H2 kernel-model basis."""
        key = ("h2k", e)
        if key in self._cache:
            return self._cache[key]
        full = induced_h(self.kappa, 2, e)
        if full.cols == 0:
            out = Matrix.zeros(self.field, self.fbar.h2_dim(e), 0)
        else:
            basis = self.fbar.h2_model(e)
            out = basis.solve_matrix(full) if basis.cols else Matrix.zeros(self.field, 0, full.cols)
        self._cache[key] = out
        return out

    def h0_dim(self, e: Twist) -> int:
        r0 = induced_h(self.kappa, 0, e).rank()
        c1 = self.h1k_map(e)
        return (self.fbar.h0_dim(e) - r0) + (c1.cols - c1.rank())

    def h1_dim(self, e: Twist) -> int:
        c1 = self.h1k_map(e)
        c2 = self.h2k_map(e)
        return (self.fbar.h1_dim(e) - c1.rank()) + (c2.cols - c2.rank())

    def h2_dim(self, e: Twist) -> int:
        c2 = self.h2k_map(e)
        return self.fbar.h2_dim(e) - c2.rank()

    def dims_at(self, e: Twist) -> tuple[int, int, int]:
        h0, h1, h2 = self.h0_dim(e), self.h1_dim(e), self.h2_dim(e)
        chi = (
            euler_char(tuple(deg_add(t, e) for t in self.A))
            - euler_char(tuple(deg_add(t, e) for t in self.B))
            - euler_char(tuple(deg_add(t, e) for t in self.K))
        )
        if h0 - h1 + h2 != chi:
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
        be ACM (true for the free targets produced in this package).
        """
        if not self.K:
            return True
        if not all(is_acm_twist(t) for t in self.B):
            raise PrereqVanishingFailed("certificate needs ACM target twists")
        firsts = [max(k) for k in self.K]
        dual = self.kappa.dual()
        for f in range(min(firsts), max(firsts) + 1):
            m = induced_h(dual, 0, (f, f))
            if m.rows - m.rank() != 0:
                return False
        return True
