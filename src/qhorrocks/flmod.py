"""Finite-length graded modules over the quadric's coordinate ring.

A module is stored degreewise: dimensions on a support window plus the four
multiplication operators x0..x3 (each a matrix M_d -> M_{d+1}).  Validity
means all operator pairs commute and x0 x3 = x1 x2, which are exactly the
degree-two relations of the coordinate ring.

The central construction is the minimal free presentation.  Generators are
coset bases of M_d modulo the image of degree d-1; relations are found
degreewise as new kernel generators of the chosen surjection pi from the
free module L0, in degrees lo..hi+1 only.  No relation is new past hi+1:
for d >= hi+2 both M_{d-1} and M_d vanish, so ker pi_{d-1} and ker pi_d are
all of H0(L0(d-1, d-1)) and H0(L0(d, d)); every generator degree is at most
hi <= d-2, and x0..x3 carry the first space onto the second because the
section ring of O(1,1) is generated in degree one.  (This is the elementary
form of the fact that the first syzygies of a finite-length module sit at
most one degree above its top degree.)  The bound is then checked by
recomputing the cokernel.  Sheafifying the presentation gives the associated
bundle F with H1 module M.  Of its two spinor-twisted companion modules
only what the triple reads is kept: the coker models of the presentation on
each side, and the two operators per piece whose common kernel is the socle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactla import Matrix, QhorrocksError, hstack, quotient_data
from .bipoly import BiForm, monomial_basis
from .linecoh import FormMatrix, SplitBundle, h0_mult_on_split, spinor_shift, split_h
from .presheaf import CokerModel, KerPresentation, MonadPresentation, VerificationFailed, support_window


class InvalidModule(QhorrocksError, ValueError):
    """A module whose operators break commutation, the quadric relation, or finiteness."""

    exit_code = 2


class BoundExceeded(QhorrocksError, RuntimeError):
    """The recomputed cokernel of a minimal presentation disagrees with the module."""

    exit_code = 1


X_FORMS = ("x0", "x1", "x2", "x3")


class FinLengthModule:
    """dims[d] and operators ops[(k, d)]: M_d -> M_{d+1} for k in 0..3."""

    def __init__(self, fld, dims: dict[int, int], ops: dict[tuple[int, int], Matrix]):
        self.field = fld
        self.dims = {d: n for d, n in dims.items() if n > 0}
        self.ops = dict(ops)
        if self.dims:
            self.lo = min(self.dims)
            self.hi = max(self.dims)
        else:
            self.lo, self.hi = 0, -1

    def __repr__(self):
        return f"FinLengthModule({ {d: self.dims[d] for d in sorted(self.dims)} })"

    @property
    def is_zero(self) -> bool:
        return not self.dims

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def support(self):
        return sorted(self.dims)

    def op(self, k: int, d: int) -> Matrix:
        m = self.ops.get((k, d))
        if m is None:
            return Matrix.zeros(self.field, self.dim(d + 1), self.dim(d))
        return m

    def validation_report(self) -> list[str]:
        bad = []
        for d in range(self.lo, self.hi + 1):
            for k in range(4):
                m = self.op(k, d)
                if m.rows != self.dim(d + 1) or m.cols != self.dim(d):
                    bad.append(f"x{k} at degree {d} has shape {m.rows}x{m.cols}")
        for d in range(self.lo - 1, self.hi + 1):
            pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
            for i, j in pairs:
                lhs = self.op(i, d + 1) @ self.op(j, d)
                rhs = self.op(j, d + 1) @ self.op(i, d)
                if lhs != rhs:
                    bad.append(f"x{i} x{j} != x{j} x{i} out of degree {d}")
            quad_l = self.op(0, d + 1) @ self.op(3, d)
            quad_r = self.op(1, d + 1) @ self.op(2, d)
            if quad_l != quad_r:
                bad.append(f"x0 x3 != x1 x2 out of degree {d}")
        return bad

    def validate(self) -> "FinLengthModule":
        bad = self.validation_report()
        if bad:
            raise InvalidModule("; ".join(bad))
        return self


def minimal_generators(m: FinLengthModule) -> dict[int, tuple[Matrix, Matrix]]:
    """Per degree: (coset representative columns, projection) of M_d / (x . M_{d-1})."""
    out = {}
    for d in m.support():
        reps, proj = quotient_data(hstack([m.op(k, d - 1) for k in range(4)]))
        if reps.cols:
            out[d] = (reps, proj)
    return out


@dataclass
class MinimalPresentation:
    """Free presentation data of a module, sheafified to a kernel bundle.

    pi gives the chosen surjection from sections of L0 onto the module,
    degree by degree; its kernel is exactly the image of the section-level
    map of psi (that equality is what `verified_window` certifies).
    """

    module: FinLengthModule
    L1: SplitBundle
    L0: SplitBundle
    psi: FormMatrix
    F: KerPresentation
    pi: dict[int, Matrix]
    verified_window: tuple[int, int]
    generators: list[tuple[int, np.ndarray]]  # (degree, representative in M_d), in L0 order

    def pi_at(self, d: int) -> Matrix:
        if d in self.pi:
            return self.pi[d]
        amb = split_h(self.L0, (d, d))[0]
        return Matrix.zeros(self.module.field, self.module.dim(d), amb)


def _last_factor(i: int, j: int) -> tuple[int, tuple[int, int]]:
    """One factor x_k of the monomial s^i t^(k-i) u^j v^(k-j), and the (i, j) of its cofactor.

    x0..x3 = su, sv, tu, tv; on a module that satisfies the commutation and
    quadric relations every factor order gives the same product.
    """
    if i and j:
        return 0, (i - 1, j - 1)
    if i:
        return 1, (i - 1, j)
    if j:
        return 2, (i, j - 1)
    return 3, (0, 0)


def _pi_matrices(m: FinLengthModule, generators) -> dict[int, Matrix]:
    """Section-level surjections H0(L0(d,d)) -> M_d on the support window lo..hi.

    Column (g, i, j) is the image of generator g under s^i t^(k-i) u^j v^(k-j),
    computed as one operator applied to a column one degree below.
    """
    pi = {}
    below: dict[int, dict] = {}  # generator index -> {(i, j): column of pi at d - 1}
    for d in range(m.lo, m.hi + 1):
        here = {}
        for g, (gdeg, gvec) in enumerate(generators):
            k = d - gdeg
            if k == 0:
                here[g] = {(0, 0): gvec}
            elif k > 0:
                here[g] = {}
                for i, j in monomial_basis((k, k)):
                    x, src = _last_factor(i, j)
                    here[g][(i, j)] = m.op(x, d - 1) @ below[g][src]
        cols = [col for block in here.values() for col in block.values()]
        pi[d] = Matrix.from_columns(m.field, cols, rows_dim=m.dim(d))
        below = here
    return pi


def minimal_presentation(m: FinLengthModule) -> MinimalPresentation:
    """Minimal free presentation of a finite-length module, verified by recomputation.

    Relations are collected degreewise: at each degree the kernel of the
    chosen surjection is compared against the span of the multiples of the
    relations already found, and a coset basis of the gap becomes the new
    relation columns.  The scan covers lo..hi+1 and no further: for
    d >= hi+2, M_{d-1} = M_d = 0 makes both kernels the whole section spaces
    of L0, and since every generator sits in degree <= d-2, x0..x3 carry
    H0(L0(d-1, d-1)) onto H0(L0(d, d)), so degree d holds no new relation.
    The cokernel of psi is then recomputed on lo..hi+3 and must equal M
    there; BoundExceeded reports a mismatch.
    """
    m.validate()
    fld = m.field
    if m.is_zero:
        empty = FormMatrix.zero(fld, (), ())
        return MinimalPresentation(m, (), (), empty, KerPresentation(empty, verify=False), {}, (0, -1), [])
    gens = minimal_generators(m)
    generators = [(d, vec) for d in sorted(gens) for vec in gens[d][0].columns()]
    pi = _pi_matrices(m, generators)
    L0: SplitBundle = tuple((-d, -d) for d, _ in generators)
    bound = m.hi + 1
    rel_cols: list[tuple[int, np.ndarray]] = []  # (degree, vector in H0(L0(d,d)))
    below = Matrix.zeros(fld, 0, 0)  # kernel of pi at d - 1
    for d in range(m.lo, bound + 1):
        pi_d = pi[d] if d in pi else Matrix.zeros(fld, 0, split_h(L0, (d, d))[0])
        ker = pi_d.kernel_matrix()
        known = Matrix.zeros(fld, ker.cols, 0)
        if ker.cols and below.cols:
            mults = [h0_mult_on_split(L0, BiForm.variable(fld, x), (d - 1, d - 1)) for x in X_FORMS]
            known = ker.solve_matrix(hstack([mul @ below for mul in mults]))
        reps, _proj = quotient_data(known)
        rel_cols.extend((d, ker @ vec) for vec in reps.columns())
        below = ker
    L1: SplitBundle = tuple((-d, -d) for d, _ in rel_cols)
    psi = FormMatrix.from_sections(fld, L1, L0, [vec for _, vec in rel_cols])
    fpres = KerPresentation(psi, verify=False)
    for d in range(m.lo, bound + 3):
        mat = fpres.h_matrix(0, (d, d))
        coker = mat.rows - mat.rank()
        if coker != m.dim(d):
            raise BoundExceeded(f"recomputed cokernel has dimension {coker} at degree {d}, not {m.dim(d)}")
    return MinimalPresentation(m, L1, L0, psi, fpres, pi, (m.lo, bound + 2), generators)


# ---------------------------------------------------------------------------
# module of a presented bundle


@dataclass
class ModelledModule:
    """A module together with the coker models its coordinates came from."""

    module: FinLengthModule
    models: dict[int, CokerModel]


def module_from_bundle(rep) -> ModelledModule:
    """H1 of a presented bundle as a finite-length module in coker-model coordinates.

    For a kernel presentation the pieces are the diagonal coker models and
    the operators come from multiplication on representatives.  For a monad
    the differential's H2 must be injective on all diagonal twists (decided
    by the exact dual certificate); H1 of the monad then agrees with H1 of
    ker(psi) and the same model data applies.
    """
    fld = rep.field
    if isinstance(rep, MonadPresentation):
        if not rep.h2_kappa_injective():
            raise VerificationFailed("H2 of the monad differential is not injective; H1 model invalid")
        kp = rep.fbar
    else:
        kp = rep
    lo, hi = kp.h1_diagonal_support()
    if hi < lo:
        return ModelledModule(FinLengthModule(fld, {}, {}), {})
    if isinstance(rep, MonadPresentation):
        for d in range(lo, hi + 1):
            if split_h(rep.K, (d, d))[1] and rep.h1k_map((d, d)).cols:
                raise VerificationFailed("H1 of K meets the diagonal window")
    dims = {}
    models = {}
    for d in range(lo, hi + 1):
        model = kp.h1_model((d, d))
        if model.dim:
            dims[d] = model.dim
            models[d] = model
    ops = {}
    for d in dims:
        for k, name in enumerate(X_FORMS):
            f = BiForm.variable(fld, name)
            ops[(k, d)] = kp.mult_model(f, (d, d))
    mod = FinLengthModule(fld, dims, ops)
    mod.validate()
    return ModelledModule(mod, models)


# ---------------------------------------------------------------------------
# spinor companion modules


# side -> the variable pair whose common kernel is the socle of that companion module
KILLERS = {1: ("u", "v"), 2: ("s", "t")}


@dataclass
class CompanionModules:
    """The two spinor-twisted companion modules of the bundle F of a presentation.

    fam[side][d] is the coker model of H1(F(spinor_shift(side, d))), kept
    only where it is nonzero: side 1 is the O(1,0) twist, side 2 the O(0,1)
    twist.  kill[side][d] holds the two operators KILLERS[side] out of that
    piece into H1(F(d+1, d+1)), in coker-model coordinates; their common
    kernel is the socle.
    """

    pres: MinimalPresentation
    fam: dict[int, dict[int, CokerModel]]
    kill: dict[int, dict[int, tuple[Matrix, Matrix]]]


def _spinor_support(pres: MinimalPresentation) -> tuple[int, int]:
    """Degree window holding both spinor-shifted H1 families.

    Both families are quotients of the section module of the free target,
    which is generated at the generator degrees; the first degree past the
    top generator where both families vanish certifies vanishing above.
    """
    if not pres.L0:
        return (0, -1)
    kp = pres.F
    gen_degs = [-b1 for b1, _ in pres.L0]

    def both(d):
        return kp.h1_dim((d + 1, d)) + kp.h1_dim((d, d + 1))

    return support_window(both, min(gen_degs), max(gen_degs), "spinor-twisted module")


def sigma_modules(pres: MinimalPresentation) -> CompanionModules:
    """Companion modules of the associated bundle at the two spinor shifts.

    The presentation has free source and target, so every required vanishing
    holds and both families live in coker models of one presentation.
    Support windows are scanned from the twist data and verified to close.
    """
    fld = pres.module.field
    kp = pres.F
    lo, hi = _spinor_support(pres)
    fam, kill = {1: {}, 2: {}}, {1: {}, 2: {}}
    for side in (1, 2):
        forms = [BiForm.variable(fld, v) for v in KILLERS[side]]
        for d in range(lo, hi + 1):
            e = spinor_shift(side, d)
            model = kp.h1_model(e)
            if model.dim:
                fam[side][d] = model
                kill[side][d] = tuple(kp.mult_model(f, e) for f in forms)
    return CompanionModules(pres, fam, kill)


def socle_subspace(t: CompanionModules, side: int) -> dict[int, Matrix]:
    """Per degree: the classes of one companion module killed by both of its operators.

    Side 1: the O(1,0)-shifted family killed by u and v; side 2: the
    O(0,1)-shifted family killed by s and t.
    """
    fld = t.pres.module.field
    out = {}
    for d, pair in t.kill[side].items():
        basis = Matrix(fld, np.concatenate([op.a for op in pair], axis=0)).kernel_matrix()
        if basis.cols:
            out[d] = basis
    return out


# ---------------------------------------------------------------------------
# commuting maps of modules


def _commuting_space(m1: FinLengthModule, m2: FinLengthModule) -> tuple[list, dict]:
    """Kernel basis of the linear conditions phi_{d+1} x_k = x_k' phi_d.

    phi_d: M1_d -> M2_d is stored row-major at layout[d] = (offset, rows,
    cols), so the condition block of x_k out of degree d is
    kron(I, x_k^T) on phi_{d+1} minus kron(x_k', I) on phi_d.
    """
    fld = m1.field
    degrees = sorted(set(m1.support()) | set(m2.support()))
    layout = {}
    total = 0
    for d in degrees:
        n1, n2 = m1.dim(d), m2.dim(d)
        layout[d] = (total, n2, n1)
        total += n1 * n2
    blocks = []
    for d in degrees:
        r, c = m2.dim(d + 1), m1.dim(d)  # shape of the condition block
        if r == 0 or c == 0:
            continue
        (off1, _, n1), (off, n2, _) = layout[d + 1], layout[d]
        for k in range(4):
            block = fld.zeros(r * c, total)
            block[:, off1 : off1 + r * n1] = np.kron(Matrix.identity(fld, r).a, m1.op(k, d).a.T)
            block[:, off : off + n2 * c] -= np.kron(m2.op(k, d).a, Matrix.identity(fld, c).a)
            blocks.append(fld.reduce(block))
    mat = Matrix(fld, np.concatenate(blocks)) if blocks else Matrix.zeros(fld, 0, total)
    return mat.kernel_basis(), layout


def _vec_to_maps(fld, vec, layout) -> dict[int, Matrix]:
    return {d: Matrix(fld, vec[off : off + n2 * n1].reshape(n2, n1).copy()) for d, (off, n2, n1) in layout.items()}
