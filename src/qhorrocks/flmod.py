"""Finite-length graded modules over the quadric's coordinate ring.

A module is stored degreewise: dimensions on a support window plus the four
multiplication operators x0..x3 (each a matrix M_d -> M_{d+1}).  Validity
means all operator pairs commute and x0 x3 = x1 x2, which are exactly the
degree-two relations of the coordinate ring.

The central construction is the minimal free presentation.  Generators are
coset bases of M_d modulo the image of degree d-1; relations are found
degreewise as new kernel generators of the chosen surjection from the free
module, up to a bound that is then verified by recomputing the cokernel (and
escalated twice if the dimensions do not come back equal).  Sheafifying the
presentation gives the associated bundle F with H1 module M, from which the
two spinor-twisted companion modules and their socles are computed through
the coker models of the presentation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exactla import FieldMismatch, Matrix, quotient_data
from .bipoly import BiForm, monomial_basis, monomial_factor_path
from .linecoh import FormMatrix, SplitBundle, h0_mult_on_split, induced_h, split_dims
from .presheaf import CokerModel, KerPresentation, MonadPresentation, VerificationFailed


class InvalidModule(ValueError):
    """A module whose operators break commutation, the quadric relation, or finiteness."""


class BoundExceeded(RuntimeError):
    """Relation search outgrew its escalation budget."""


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

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def support(self):
        return sorted(self.dims)

    def op(self, k: int, d: int) -> Matrix:
        m = self.ops.get((k, d))
        if m is None:
            return Matrix.zeros(self.field, self.dim(d + 1), self.dim(d))
        return m

    def monomial_op(self, d: int, i: int, j: int, k: int) -> Matrix:
        """Action of s^i t^(k-i) u^j v^(k-j) from M_d to M_{d+k}."""
        out = Matrix.identity(self.field, self.dim(d))
        deg = d
        for xk in monomial_factor_path(i, j, k):
            out = self.op(xk, deg) @ out
            deg += 1
        return out

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
        images = []
        for k in range(4):
            images.extend(list(m.op(k, d - 1).columns()))
        reps, proj = quotient_data(m.field, m.dim(d), images)
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
    gen_degrees: tuple[int, ...]
    rel_degrees: tuple[int, ...]
    verified_window: tuple[int, int]
    generators: list[tuple[int, np.ndarray]]  # (degree, representative in M_d), in L0 order

    def pi_at(self, d: int) -> Matrix:
        if d in self.pi:
            return self.pi[d]
        amb = sum(split_dims(0, self.L0, (d, d)))
        return Matrix.zeros(self.module.field, self.module.dim(d), amb)


def _pi_matrices(m: FinLengthModule, gens: dict[int, tuple[Matrix, Matrix]], lo: int, hi: int):
    """Section-level surjections H0(L0(d,d)) -> M_d for the chosen generators."""
    gen_list = [(d, vec) for d in sorted(gens) for vec in gens[d][0].columns()]
    pi = {}
    for d in range(lo, hi + 1):
        cols = []
        for gdeg, gvec in gen_list:
            k = d - gdeg
            if k < 0:
                continue
            for (i, j) in monomial_basis((k, k)):
                cols.append(m.monomial_op(gdeg, i, j, k) @ gvec)
        if cols:
            pi[d] = Matrix.from_columns(m.field, cols, rows_dim=m.dim(d))
        else:
            pi[d] = Matrix.zeros(m.field, m.dim(d), 0)
    return gen_list, pi


def minimal_presentation(m: FinLengthModule, escalations: int = 2) -> MinimalPresentation:
    """Minimal free presentation of a finite-length module, verified by recomputation.

    Relations are collected degreewise: at each degree the kernel of the
    chosen surjection is compared against the span of the multiples of the
    relations already found, and a coset basis of the gap becomes the new
    relation columns.  The scan runs to hi + 3 and the resulting cokernel is
    recomputed; on mismatch the bound grows by 2, twice, before giving up.
    """
    m.validate()
    fld = m.field
    if m.is_zero:
        empty = FormMatrix.zero(fld, (), ())
        pres = KerPresentation(empty, verify=False)
        return MinimalPresentation(m, (), (), empty, pres, {}, (), (), (0, -1), [])
    gens = minimal_generators(m)
    bound = m.hi + 3
    for attempt in range(escalations + 1):
        result = _presentation_attempt(m, gens, bound)
        if result is not None:
            return result
        bound += 2
    raise BoundExceeded(f"relation search failed even at degree bound {bound}")


def _presentation_attempt(m: FinLengthModule, gens, bound: int):
    fld = m.field
    gen_list, pi = _pi_matrices(m, gens, m.lo, bound + 1)
    gen_degrees = tuple(d for d, _ in gen_list)
    L0: SplitBundle = tuple((-d, -d) for d in gen_degrees)
    rel_cols: list[tuple[int, np.ndarray]] = []  # (degree, vector in H0(L0(d,d)))
    kernels: dict[int, Matrix] = {}
    for d in range(m.lo, bound + 1):
        ker = pi[d].kernel_matrix()
        kernels[d] = ker
        carried = []
        if d - 1 in kernels and kernels[d - 1].cols:
            for k, name in enumerate(X_FORMS):
                f = BiForm.variable(fld, name)
                mul = h0_mult_on_split(L0, f, (d - 1, d - 1))
                carried.extend(list((mul @ kernels[d - 1]).columns()))
        if ker.cols == 0:
            continue
        if carried:
            coords = ker.solve_matrix(Matrix.from_columns(fld, carried, rows_dim=ker.rows))
            _reps, proj = quotient_data(fld, ker.cols, list(coords.columns()))
        else:
            _reps, proj = quotient_data(fld, ker.cols, [])
        for vec in _reps.columns():
            rel_cols.append((d, ker @ vec))
    rel_degrees = tuple(d for d, _ in rel_cols)
    L1: SplitBundle = tuple((-d, -d) for d in rel_degrees)
    psi = FormMatrix.from_sections(fld, L1, L0, [vec for _, vec in rel_cols])
    # verify: the recomputed cokernel has the module's dimensions, then vanishes
    for d in range(m.lo, bound + 3):
        mat = induced_h(psi, 0, (d, d))
        if mat.rows - mat.rank() != m.dim(d):
            return None
    fpres = KerPresentation(psi, verify=False)
    return MinimalPresentation(
        m, L1, L0, psi, fpres, pi, gen_degrees, rel_degrees, (m.lo, bound + 2), gen_list
    )


# ---------------------------------------------------------------------------
# module of a presented bundle


@dataclass
class ModelledModule:
    """A module together with the coker models its coordinates came from."""

    module: FinLengthModule
    models: dict[int, CokerModel]
    source: object


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
        return ModelledModule(FinLengthModule(fld, {}, {}), {}, rep)
    if isinstance(rep, MonadPresentation):
        for d in range(lo, hi + 1):
            if rep.h1k_map((d, d)).cols:
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
    return ModelledModule(mod, models, rep)


# ---------------------------------------------------------------------------
# spinor companion modules


@dataclass
class TriDiagModule:
    """The diagonal module plus its two spinor-shifted companions and cross actions.

    m10[d] models H1(F x O(1,0) twisted by d), m01[d] the O(0,1) mirror, and
    m00[d] the diagonal piece.  Cross operators follow the variable bidegrees:
    s, t map m00 -> m10 and m01 -> m00(+1); u, v map m00 -> m01 and m10 -> m00(+1).
    """

    pres: MinimalPresentation
    m00: dict[int, CokerModel]
    m10: dict[int, CokerModel]
    m01: dict[int, CokerModel]
    ops: dict[tuple[str, str, int], Matrix]
    diag_iso: dict[int, Matrix]  # m00 model coords -> the module's own coordinates

    def dim10(self, d):
        return self.m10[d].dim if d in self.m10 else 0

    def dim01(self, d):
        return self.m01[d].dim if d in self.m01 else 0

    def op(self, var: str, family: str, d: int) -> Matrix:
        key = (var, family, d)
        if key in self.ops:
            return self.ops[key]
        src, dst = _op_shapes(self, var, family, d)
        return Matrix.zeros(self.pres.module.field, dst, src)

    def support10(self):
        return sorted(self.m10)

    def support01(self):
        return sorted(self.m01)


def _op_shapes(t: TriDiagModule, var: str, family: str, d: int):
    if family == "00":
        src = t.m00[d].dim if d in t.m00 else 0
        dst = t.dim10(d) if var in ("s", "t") else t.dim01(d)
    elif family == "10":
        src = t.dim10(d)
        dst = t.m00[d + 1].dim if d + 1 in t.m00 else 0
    else:
        src = t.dim01(d)
        dst = t.m00[d + 1].dim if d + 1 in t.m00 else 0
    return src, dst


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
    lo = min(gen_degs)
    top = max(gen_degs)
    d = lo
    hi = lo - 1
    cap = top + 64
    while d <= cap:
        total = kp.h1_dim((d + 1, d)) + kp.h1_dim((d, d + 1))
        if total:
            hi = d
        elif d > top:
            return (lo, hi)
        d += 1
    raise VerificationFailed("spinor-twisted module support did not close")


def sigma_modules(pres: MinimalPresentation) -> TriDiagModule:
    """Companion modules of the associated bundle at the two spinor shifts.

    The presentation has free source and target, so every required vanishing
    holds and all three families live in coker models of one presentation.
    Support windows are scanned from the twist data and verified to close.
    """
    fld = pres.module.field
    kp = pres.F
    m00 = {}
    diag_iso = {}
    for d in pres.module.support():
        model = kp.h1_model((d, d))
        m00[d] = model
        diag_iso[d] = pres.pi_at(d) @ model.reps
    m10 = {}
    m01 = {}
    lo, hi = _spinor_support(pres)
    for d in range(lo, hi + 1):
        model = kp.h1_model((d + 1, d))
        if model.dim:
            m10[d] = model
        model = kp.h1_model((d, d + 1))
        if model.dim:
            m01[d] = model
    ops = {}
    forms = {v: BiForm.variable(fld, v) for v in "stuv"}
    for d in m00:
        ops[("s", "00", d)] = kp.mult_model(forms["s"], (d, d))
        ops[("t", "00", d)] = kp.mult_model(forms["t"], (d, d))
        ops[("u", "00", d)] = kp.mult_model(forms["u"], (d, d))
        ops[("v", "00", d)] = kp.mult_model(forms["v"], (d, d))
    for d in m10:
        ops[("u", "10", d)] = kp.mult_model(forms["u"], (d + 1, d))
        ops[("v", "10", d)] = kp.mult_model(forms["v"], (d + 1, d))
    for d in m01:
        ops[("s", "01", d)] = kp.mult_model(forms["s"], (d, d + 1))
        ops[("t", "01", d)] = kp.mult_model(forms["t"], (d, d + 1))
    return TriDiagModule(pres, m00, m10, m01, ops, diag_iso)


def socle_subspace(t: TriDiagModule, which: str) -> dict[int, Matrix]:
    """Kernel of the opposite variable pair on one spinor family, per degree.

    which = "m10": elements of the O(1,0)-shifted family killed by u and v.
    which = "m01": elements of the O(0,1)-shifted family killed by s and t.
    """
    fld = t.pres.module.field
    out = {}
    fam = t.m10 if which == "m10" else t.m01
    pair = ("u", "v") if which == "m10" else ("s", "t")
    for d, model in fam.items():
        stacked = np.concatenate([t.op(pair[0], which[1:], d).a, t.op(pair[1], which[1:], d).a], axis=0)
        basis = Matrix(fld, stacked).kernel_matrix()
        if basis.cols:
            out[d] = basis
    return out


# ---------------------------------------------------------------------------
# isomorphism of modules


def _commuting_space(m1: FinLengthModule, m2: FinLengthModule) -> tuple[list, dict]:
    """Kernel basis of the linear conditions phi_{d+1} x_k = x_k' phi_d."""
    fld = m1.field
    degrees = sorted(set(m1.support()) | set(m2.support()))
    layout = {}
    total = 0
    for d in degrees:
        n1, n2 = m1.dim(d), m2.dim(d)
        layout[d] = (total, n2, n1)
        total += n1 * n2
    rows = []
    for d in degrees:
        for k in range(4):
            x1 = m1.op(k, d)
            x2 = m2.op(k, d)
            r1, c1 = m2.dim(d + 1), m1.dim(d)  # shape of the condition block
            if r1 == 0 or c1 == 0:
                continue
            for i in range(r1):
                for j in range(c1):
                    row = fld.zeros(1, total)[0, :]
                    off, n2d1, n1d1 = layout.get(d + 1, (None, 0, 0))
                    if off is not None and n2d1 and n1d1:
                        for a in range(n1d1):
                            if x1.a[a, j] != 0:
                                row[off + i * n1d1 + a] = fld.scalar(row[off + i * n1d1 + a] + x1.a[a, j])
                    offd, n2d, n1d = layout.get(d, (None, 0, 0))
                    if offd is not None and n2d and n1d:
                        for b in range(n2d):
                            if x2.a[i, b] != 0:
                                row[offd + b * n1d + j] = fld.scalar(row[offd + b * n1d + j] - x2.a[i, b])
                    rows.append(row)
    if not rows:
        mat = Matrix.zeros(fld, 0, total)
    else:
        arr = fld.zeros(len(rows), total)
        for i, r in enumerate(rows):
            arr[i, :] = r
        mat = Matrix(fld, arr)
    return mat.kernel_basis(), layout


def _vec_to_maps(fld, vec, layout) -> dict[int, Matrix]:
    out = {}
    for d, (off, n2, n1) in layout.items():
        a = fld.zeros(n2, n1)
        for i in range(n2):
            for j in range(n1):
                a[i, j] = vec[off + i * n1 + j]
        out[d] = Matrix(fld, a)
    return out


def _sample_iso(m1: FinLengthModule, basis, layout, trials: int, rng, accept):
    """First random combination of `basis` that is invertible in every degree and accepted.

    Each trial draws one scalar per basis vector, in basis order.  Returns
    (trial number, degreewise maps, accept(maps)) for the first trial whose
    maps are invertible and where accept returns something other than None;
    None if no trial succeeds.
    """
    if not basis:
        return None
    fld = m1.field
    for trial in range(1, trials + 1):
        vec = fld.zeros(len(basis[0]), 1)[:, 0]
        for b in basis:
            vec = fld.reduce(vec + b * fld.random_scalar(rng))
        maps = _vec_to_maps(fld, vec, layout)
        if all(maps[d].rank() == m1.dim(d) for d in m1.support()):
            found = accept(maps)
            if found is not None:
                return trial, maps, found
    return None


def module_iso(m1: FinLengthModule, m2: FinLengthModule, trials: int = 200, rng=None):
    """A degreewise isomorphism commuting with all four operators, or None.

    The commuting maps form a linear space, and random combinations are
    sampled until one is invertible in every degree.  None therefore means
    "no isomorphism found", which is conclusive only when the dimensions
    already disagree.
    """
    if m1.field != m2.field:
        raise FieldMismatch(f"{m1.field} vs {m2.field}")
    if m1.dims != m2.dims:
        return None
    if m1.is_zero:
        return {}
    basis, layout = _commuting_space(m1, m2)
    found = _sample_iso(m1, basis, layout, trials, rng or random.Random(11), lambda maps: maps)
    return None if found is None else found[1]
