"""Invariant triples of bundles on the quadric: extraction, synthesis, comparison.

A bundle E without split ACM line-bundle summands is classified by the
triple (M, W, V): its diagonal H1 module M, plus one graded subspace inside
each spinor-twisted companion module of the associated bundle F of M.  W
lives in the O(1,0)-companion and consists of classes killed by u and v;
V mirrors it.  The placement rule ties abstract degree d of W to companion
degree -1 - d; equivalently, a W class in companion degree m accounts for
one O(d, d+1) summand of the ACM middle term of E and one O(d, d-1) column
of its differential, d = -1 - m.

Extraction realises the subspace as the kernel of the comparison map from
the companion modules of F into the twisted H1 of E.  The comparison is a
chain map (lambda, rho) from the minimal presentation of M onto the given
presentation of E; rho is built directly on the chosen module generators,
so the induced map on every H1 piece is onto by construction and kernels
are computed by exact preimages.  For a monad the subspace comes instead
from pushing the one-dimensional H1 of each differential column through
the presentation, and is carried back along the same comparison.

Synthesis walks the opposite way: pick sections of the spinor-twisted F
whose connecting classes hit the requested subspaces, stack them into a
differential out of spinor-inverse twists, enlarge the middle term by a
free part until the dual map is onto on all sections, and return the monad.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exactla import FieldMismatch, Matrix, NoSolution, QhorrocksError, hstack, preimage_basis, quotient_data, span_basis, subspace_equal
from .bipoly import BiForm
from .linecoh import (
    FormMatrix,
    SplitBundle,
    Twist,
    constant_pairing,
    form_hstack,
    form_vstack,
    h0_mult_on_split,
    induced_h,
    is_acm_twist,
    is_free_twist,
    spinor_kind,
    spinor_shift,
    split_h,
)
from .presheaf import (
    InternalInvariantViolation,
    KerPresentation,
    MonadPresentation,
    NotGammaForm,
    VerificationFailed,
    delta_matrix,
    find_acm_summand,
    solve_form_system,
)
from .flmod import (
    FinLengthModule,
    MinimalPresentation,
    ModelledModule,
    KILLERS,
    CompanionModules,
    _commuting_space,
    _vec_to_maps,
    minimal_presentation,
    module_from_bundle,
    sigma_modules,
)


class NotMinimalGamma(QhorrocksError, ValueError):
    """Input presentation still carries ACM summands or a non-minimal shape."""

    exit_code = 3


class LiftFailed(QhorrocksError, RuntimeError):
    """No section maps onto a requested connecting class; socle data invalid."""

    exit_code = 1


class ExactnessViolation(QhorrocksError, AssertionError):
    """The four-term alternating dimension sum failed in some degree."""

    exit_code = 1


@dataclass
class HorrocksTriple:
    """(M, W, V) in the canonical coordinates of M's minimal presentation.

    T holds the two companion modules of the presentation: T.fam[1] the
    O(1,0) side, T.fam[2] the O(0,1) side.  W maps companion degree m to a
    matrix whose columns span the chosen subspace of the side-1 piece there,
    in its coker-model coordinates; V likewise for side 2.
    """

    pres: MinimalPresentation
    T: CompanionModules
    W: dict[int, Matrix]
    V: dict[int, Matrix]

    @property
    def module(self) -> FinLengthModule:
        return self.pres.module

    @staticmethod
    def build(m: FinLengthModule, w_vectors: dict[int, list], v_vectors: dict[int, list]) -> "HorrocksTriple":
        pres = minimal_presentation(m)
        triple = HorrocksTriple(pres, sigma_modules(pres), {}, {})
        for side, name, vectors in ((1, "W", w_vectors), (2, "V", v_vectors)):
            fam, sub = _side(triple, side)
            for d, vecs in vectors.items():
                if vecs:
                    dim = fam[d].dim if d in fam else 0
                    _check_lengths(name, d, vecs, dim)
                    sub[d] = span_basis(m.field, [np.asarray(v) for v in vecs], dim)
        return triple.validate()

    def validate(self) -> "HorrocksTriple":
        for side, name in ((1, "W"), (2, "V")):
            fam, sub = _side(self, side)
            for d, basis in sub.items():
                if d not in fam and basis.cols:
                    raise ValueError(f"{name} touches the empty companion degree {d}")
                for var, op in zip(KILLERS[side], self.T.kill[side].get(d, ())):
                    if not (op @ basis).is_zero():
                        raise ValueError(f"{name} at degree {d} is not killed by {var}")
        return self

    def w_dim(self, d: int) -> int:
        return self.W[d].cols if d in self.W else 0

    def v_dim(self, d: int) -> int:
        return self.V[d].cols if d in self.V else 0

    def abstract_w_dims(self) -> dict[int, int]:
        """Abstract grading of W: degree d sits in companion degree -1 - d."""
        return {-1 - m: b.cols for m, b in self.W.items() if b.cols}

    def abstract_v_dims(self) -> dict[int, int]:
        return {-1 - m: b.cols for m, b in self.V.items() if b.cols}

    def summary(self) -> str:
        dims = {d: self.module.dim(d) for d in self.module.support()}
        return f"M {dims}; W {{{_dims_str(self.W)}}}; V {{{_dims_str(self.V)}}}"


def _side(triple: HorrocksTriple, side: int) -> tuple[dict, dict[int, Matrix]]:
    """Companion family and chosen subspace of spinor side 1 (W) or side 2 (V)."""
    return triple.T.fam[side], (triple.W if side == 1 else triple.V)


def _dims_str(sub: dict[int, Matrix]) -> str:
    return ", ".join(f"{d}: {m.cols}" for d, m in sorted(sub.items()) if m.cols)


def _check_lengths(name: str, d: int, vecs, dim: int):
    for v in vecs:
        if len(v) != dim:
            raise ValueError(
                f"{name} vector at degree {d} has {len(v)} coordinates; the companion piece there has dimension {dim}"
            )


@dataclass
class AcmType:
    """Multiplicities of the ACM middle term: O(i+1,i), O(j,j+1) and free parts."""

    mu: dict[int, int]
    nu: dict[int, int]
    free: dict[int, int]


def acm_type(rep: KerPresentation, triple: HorrocksTriple | None = None) -> AcmType:
    """Read the spinor/free multiplicities off a minimal kernel presentation.

    Cross-checked against the triple when one is supplied: the abstract W
    dimensions must equal the O(0,1)-type counts and V the O(1,0)-type
    counts, degree by degree.
    """
    mu: dict[int, int] = {}
    nu: dict[int, int] = {}
    free: dict[int, int] = {}
    for t in rep.A:
        kind = spinor_kind(t)
        if kind == 1:
            mu[t[1]] = mu.get(t[1], 0) + 1
        elif kind == 2:
            nu[t[0]] = nu.get(t[0], 0) + 1
        elif is_free_twist(t):
            free[t[0]] = free.get(t[0], 0) + 1
        else:
            raise NotGammaForm(f"middle twist {t} is not ACM")
    if triple is not None:
        if triple.abstract_w_dims() != nu or triple.abstract_v_dims() != mu:
            raise NotMinimalGamma(
                f"presentation multiplicities mu={mu}, nu={nu} disagree with the triple "
                f"W={triple.abstract_w_dims()}, V={triple.abstract_v_dims()}"
            )
    return AcmType(mu, nu, free)


# ---------------------------------------------------------------------------
# extraction


def _rho_from_generators(pres: MinimalPresentation, mm: ModelledModule, target: SplitBundle) -> FormMatrix:
    """Columns of the comparison L0' -> B: the chosen generator representatives.

    Generator g of the module in degree d has a representative section of
    B(d, d); as a map O(-d) -> B that section is a column of forms.  The
    induced map on section spaces then covers the identity of the module by
    construction, so the induced map on every H1 piece is an isomorphism.
    """
    sections = [mm.models[d].reps @ vec for d, vec in pres.generators]
    return FormMatrix.from_sections(pres.module.field, pres.L0, target, sections)


@dataclass
class Extraction:
    triple: HorrocksTriple
    mm: ModelledModule
    rho: FormMatrix


def extract_invariants(rep) -> Extraction:
    """The invariant triple of a presented bundle without ACM summands.

    Kernel presentations must have an ACM middle term and split off no ACM
    line bundle (strip them with `strip_acm` first).  The subspaces come
    out in the canonical coordinates of the module's own minimal
    presentation, so two bundles can be compared by comparing triples.
    Only the subspace step depends on the input: the kernel of the
    comparison for a kernel presentation, the transported images of the
    differential's H1 classes for a monad.

    The comparison is the chain map (lambda, rho) from the minimal
    presentation psi: L1 -> L0 of M to g: A -> B, and only rho is built.
    The lift lambda with g o lambda = rho o psi always exists: a relation
    r = sum f_i g_i of M in degree d (a column of psi) maps under rho to
    sum f_i [rep(g_i)], which is 0 in the coker model of H1(E(d, d)).  A is
    ACM (free, for a monad's ker psi), so H1(A(d, d)) = 0 and that model is
    exact; hence rho o psi (r) lies in the image of H0(g).  Nothing reads
    lambda, so it is not solved for; the tests check that it solves.
    """
    monad = isinstance(rep, MonadPresentation)
    if not monad:
        if not all(is_acm_twist(t) for t in rep.A):
            raise NotGammaForm(f"middle twists {list(rep.A)} are not all ACM")
        found = find_acm_summand(rep)
        if found is not None:
            raise NotMinimalGamma(f"presentation still splits off O{found[0]}; strip it first")
    mm = module_from_bundle(rep)
    pres = minimal_presentation(mm.module)
    triple = HorrocksTriple(pres, sigma_modules(pres), {}, {})
    if mm.module.is_zero:
        return Extraction(triple, mm, FormMatrix.zero(rep.field, (), rep.B))
    rho = _rho_from_generators(pres, mm, rep.B)
    subspaces = _transported_images if monad else _kernel_subspaces
    for side in (1, 2):
        fam, sub = _side(triple, side)
        sub.update(subspaces(rep, fam, rho, side))
    return Extraction(triple.validate(), mm, rho)


def _kernel_subspaces(rep: KerPresentation, fam: dict, rho: FormMatrix, side: int) -> dict[int, Matrix]:
    """Per degree: kernel of the comparison on one spinor companion family."""
    out = {}
    for d, model in fam.items():
        e = spinor_shift(side, d)
        img = induced_h(rep.g, 0, e).column_space_basis()
        pre = preimage_basis(induced_h(rho, 0, e), img)
        basis = (model.proj @ pre).column_space_basis()
        if basis.cols:
            out[d] = basis
    return out


def _transported_images(monad: MonadPresentation, fam: dict, rho: FormMatrix, side: int) -> dict[int, Matrix]:
    """Images of the differential's H1 classes, moved to canonical coordinates.

    The classes live in the coker models of ker(psi); the comparison map is
    an isomorphism on each companion piece, so solving against its matrix
    carries them back to the models of the canonical presentation.
    """
    out = {}
    for d in sorted({-1 - k[side - 1] for k in monad.K if spinor_kind(k) == side}):
        span = monad.h1k_map(spinor_shift(side, d)).column_space_basis()
        if span.cols == 0:
            continue
        if d not in fam:
            raise InternalInvariantViolation(f"classes found outside the companion support at degree {d}")
        model = fam[d]
        e = spinor_shift(side, d)
        tau = monad.fbar.h1_model(e).proj @ (induced_h(rho, 0, e) @ model.reps)
        if tau.rows != tau.cols or tau.rank() != tau.rows:
            raise InternalInvariantViolation("comparison map is not an isomorphism on a companion piece")
        out[d] = tau.solve_matrix(span).column_space_basis()
    return out


# ---------------------------------------------------------------------------
# synthesis


def synthesize(triple: HorrocksTriple, rng=None) -> MonadPresentation:
    """A bundle with the given invariants, as a monad K -> L1 + L' -> L0.

    Steps: find sections of the spinor-twisted associated bundle whose
    connecting classes equal the requested basis vectors (solvable exactly
    because the vectors are socle classes); stack them as a differential
    out of spinor-inverse twists; append free rows until the dual map is
    onto on all sections (decided by the exact generation-degree bound);
    return the verified monad.
    """
    triple.validate()
    pres = triple.pres
    fld = triple.module.field
    psi = pres.psi
    twists: list[Twist] = []
    columns = []
    for j, sub in ((1, triple.V), (2, triple.W)):
        # V pairs with O(1,0)-inverse columns, W with O(0,1)-inverse columns
        for m in sorted(sub):
            basis = sub[m]
            if basis.cols == 0:
                continue
            dpl = -1 - m
            sections, delta = delta_matrix(pres.F, j, dpl)
            try:
                coeff = delta.solve_matrix(basis)
            except NoSolution as exc:
                raise LiftFailed(f"no section hits the requested class at degree {m}") from exc
            e = spinor_shift(j, -dpl)
            for vec in (sections @ coeff).columns():
                twists.append((-e[0], -e[1]))
                columns.append(vec)
    theta = FormMatrix.from_sections(fld, tuple(twists), pres.L1, columns)
    rows = _free_closure_rows(theta) if theta.src else FormMatrix.zero(fld, (), ())
    kappa = form_vstack([theta, rows]) if rows.dst else theta
    psibar = form_hstack([psi, FormMatrix.zero(fld, rows.dst, pres.L0)]) if rows.dst else psi
    monad = MonadPresentation(kappa, psibar, verify=False)
    if not monad.fiberwise_injective(rng):
        raise VerificationFailed("synthesised differential drops rank at a sampled point")
    _verify_synthesis(monad, triple)
    return monad


def _free_closure_rows(theta: FormMatrix) -> FormMatrix:
    """Free rows making the dual of the differential onto on all sections.

    The section module of the dual of K is generated between the first and
    last degrees where its summands acquire sections, so it suffices to close
    the cokernel on that degree range: at each degree the missing cosets lift
    to rows into a free line bundle, and once a degree is fully covered its
    multiples cover everything the next degree inherits.
    """
    fld = theta.field
    dual = theta.dual()  # L1^v -> K^v
    firsts = [max(k) for k in theta.src]
    fmin, fmax = min(firsts), max(firsts)
    twists, columns = [], []
    for f in range(fmin, fmax + 1):
        killed = [induced_h(dual, 0, (f, f))]
        if f > fmin:
            # the previous degree is fully covered, so its image under the
            # four coordinate multiplications joins the killed span
            for name in ("x0", "x1", "x2", "x3"):
                killed.append(h0_mult_on_split(dual.dst, BiForm.variable(fld, name), (f - 1, f - 1)))
        reps, _proj = quotient_data(hstack(killed))
        for vec in reps.columns():
            twists.append((-f, -f))
            columns.append(vec)
    # each coset representative is a column O(-f, -f) -> K^v, so a row K -> O(f, f)
    return FormMatrix.from_sections(fld, tuple(twists), dual.dst, columns).dual()


def _verify_synthesis(monad: MonadPresentation, triple: HorrocksTriple):
    mm = module_from_bundle(monad)
    want = {d: triple.module.dim(d) for d in triple.module.support()}
    got = {d: mm.module.dim(d) for d in mm.module.support()}
    if want != got:
        raise VerificationFailed(f"synthesised module has dimensions {got}, wanted {want}")


# ---------------------------------------------------------------------------
# comparison of triples


@dataclass
class TripleIsoWitness:
    maps: dict[int, Matrix]
    phi0: FormMatrix
    phi1: FormMatrix
    trials_used: int


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def triple_iso(t1: HorrocksTriple, t2: HorrocksTriple, trials: int = 200, rng=None):
    """A module isomorphism matching both subspaces, or None after the trials.

    The maps commuting with the operators form a linear space, and so does
    its subspace of maps whose induced action carries W into W' and V into
    V' (the induced action on each companion piece is linear in the map).
    The search solves for that subspace exactly and then samples it for an
    element invertible in every degree, so only invertibility is randomised.
    Each trial draws one scalar per admissible basis vector, in basis order,
    and the first trial whose maps are invertible in every degree and lift
    to a chain map matching both subspaces wins.  None is a negative search
    report, not a proof of non-isomorphism.
    """
    _check_trials(trials)
    m1, m2 = t1.module, t2.module
    if m1.field != m2.field:
        raise FieldMismatch(f"{m1.field} vs {m2.field}")
    if m1.dims != m2.dims:
        return None
    if any(t1.w_dim(d) != t2.w_dim(d) for d in set(t1.W) | set(t2.W)):
        return None
    if any(t1.v_dim(d) != t2.v_dim(d) for d in set(t1.V) | set(t2.V)):
        return None
    if m1.is_zero:
        empty = FormMatrix.zero(m1.field, (), ())
        return TripleIsoWitness({}, empty, empty, 0)
    basis, layout = _commuting_space(m1, m2)
    admissible = _subspace_constrained_basis(t1, t2, basis, layout)
    if not admissible:
        return None
    rng = rng or random.Random(101)
    fld = m1.field
    stacked = Matrix.from_columns(fld, admissible)
    for trial in range(1, trials + 1):
        maps = _vec_to_maps(fld, stacked @ [fld.random_scalar(rng) for _ in admissible], layout)
        if all(maps[d].rank() == m1.dim(d) for d in m1.support()):
            found = _try_lift_and_match(t1, t2, maps)
            if found is not None:
                return TripleIsoWitness(maps, *found, trial)
    return None


def _phi0_from_maps(t1: HorrocksTriple, t2: HorrocksTriple, maps: dict[int, Matrix]) -> FormMatrix:
    """Chain-map head L0 -> L0' covering the given degreewise module maps.

    Generator columns are lifted through the target surjection, which is
    onto M_d in every degree by construction, so each lift exists; the lift
    is linear in the maps because the particular solution of a fixed matrix
    is.
    """
    sections = [t2.pres.pi_at(d).solve(maps[d] @ gvec) for d, gvec in t1.pres.generators]
    return FormMatrix.from_sections(t1.module.field, t1.pres.L0, t2.pres.L0, sections)


def _companion_map(phi0: FormMatrix, fam1: dict, fam2: dict, side: int, d: int) -> Matrix:
    """The map phi0 induces from one companion piece at degree d to the other, in coker-model coordinates."""
    return fam2[d].proj @ (induced_h(phi0, 0, spinor_shift(side, d)) @ fam1[d].reps)


def _subspace_constrained_basis(t1, t2, basis, layout):
    """Basis of commuting maps whose induced action maps W1 into W2, V1 into V2.

    A map qualifies when, on every piece where W1 or V1 is nonzero, the
    projection killing W2 or V2 kills the image; those projections depend
    only on the triples, so each is built once for all basis maps.
    """
    fld = t1.module.field
    checks = []  # (side, d, families, the W1 or V1 basis at d, the projection killing t2's subspace there)
    for side in (1, 2):
        (fam1, sub1), (fam2, sub2) = _side(t1, side), _side(t2, side)
        for d in sorted(sub1):
            if sub1[d].cols == 0 or d not in fam2:
                continue  # nothing to carry, or the image lies in a zero piece of t2's companion module
            _, kill = quotient_data(sub2.get(d, Matrix.zeros(fld, fam2[d].dim, 0)))
            checks.append((side, d, fam1, fam2, sub1[d], kill))
    if not checks:
        return list(basis)
    constraint_cols = []
    for b in basis:
        phi0 = _phi0_from_maps(t1, t2, _vec_to_maps(fld, b, layout))
        entries = [(kill @ (_companion_map(phi0, fam1, fam2, side, d) @ sub)).a.reshape(-1) for side, d, fam1, fam2, sub, kill in checks]
        constraint_cols.append(np.concatenate(entries))
    coeffs = Matrix.from_columns(fld, constraint_cols).kernel_matrix()
    return list((Matrix.from_columns(fld, basis) @ coeffs).columns())


def _try_lift_and_match(t1: HorrocksTriple, t2: HorrocksTriple, maps: dict[int, Matrix]):
    phi0 = _phi0_from_maps(t1, t2, maps)
    try:
        phi1 = solve_form_system(t2.pres.psi, phi0.compose(t1.pres.psi))
    except NoSolution:
        return None
    for side in (1, 2):
        (fam1, sub1), (fam2, sub2) = _side(t1, side), _side(t2, side)
        for d in sorted(set(fam1) | set(fam2)):
            dim1 = fam1[d].dim if d in fam1 else 0
            if dim1 != (fam2[d].dim if d in fam2 else 0):
                return None
            if dim1 == 0:
                continue
            induced = _companion_map(phi0, fam1, fam2, side, d)
            if induced.rank() != dim1:
                return None
            b1, b2 = (sub.get(d, Matrix.zeros(phi0.field, dim1, 0)) for sub in (sub1, sub2))
            if b1.cols != b2.cols or (b1.cols and not subspace_equal(induced @ b1, b2)):
                return None
    return phi0, phi1


# ---------------------------------------------------------------------------
# four-term exactness and the round trip


def four_term_check(rep: KerPresentation, extraction: Extraction) -> dict:
    """Alternating dimension sums of the comparison sequence, per side and degree.

    For each spinor side the sequence  K-part -> companion -> H1(E twisted)
    -> H1(middle twisted)  must be exact, so the alternating sum of
    dimensions vanishes degreewise.  Raises on the first violation.
    """
    out = {}
    twist_vals = [x for tw in (list(rep.A) + list(rep.B)) for x in tw]
    rep_lo = -max(twist_vals) - 2
    rep_hi = -min(twist_vals) + 2
    for side in (1, 2):
        fam, sub = _side(extraction.triple, side)
        degrees = sorted(set(fam) | set(sub))
        lo = min(degrees + [rep_lo])
        hi = max(degrees + [rep_hi])
        for d in range(lo, hi + 1):
            e = spinor_shift(side, d)
            kdim = sub[d].cols if d in sub else 0
            mdim = fam[d].dim if d in fam else 0
            edim = rep.h1_dim(e)
            adim = split_h(rep.A, e)[1]
            total = kdim - mdim + edim - adim
            out[(side, d)] = (kdim, mdim, edim, adim)
            if total != 0:
                raise ExactnessViolation(f"side {side}, degree {d}: {kdim} - {mdim} + {edim} - {adim} != 0")
    return out


def monad_has_acm_summand(monad: MonadPresentation) -> bool:
    """Conservative split test for monads.

    The composition pairing is evaluated on the representatives carried by
    the middle term, which detects every split the middle term can see.  A
    composite O(l) -> A -> O(l) is a constant only through a summand of A of
    twist exactly l (constant_pairing), so the pairing is empty at every
    other twist and only the ACM twists of A are tried, in ascending order.
    """
    if monad.rank <= 0:
        return False
    return any(_monad_pairing_nonzero(monad, l) for l in sorted({t for t in monad.A if is_acm_twist(t)}))


def _monad_pairing_nonzero(monad: MonadPresentation, l: Twist) -> bool:
    sections = monad.fbar.h0_space((-l[0], -l[1]))
    cosections = induced_h(monad.kappa.dual(), 0, l).kernel_matrix()
    return not constant_pairing(monad.A, l, sections, cosections).is_zero()


@dataclass
class RoundtripReport:
    ok: bool
    monad: MonadPresentation
    extracted: "Extraction"
    witness: TripleIsoWitness | None
    notes: list[str]


def roundtrip(triple: HorrocksTriple, trials: int = 200, rng=None) -> RoundtripReport:
    """synthesize -> summand check -> extract -> compare against the input."""
    _check_trials(trials)
    rng = rng or random.Random(7)
    notes = []
    monad = synthesize(triple, rng=rng)
    notes.append(f"monad K={list(monad.K)} middle={list(monad.A)}")
    if monad_has_acm_summand(monad):
        return RoundtripReport(False, monad, None, None, notes + ["ACM summand detected after synthesis"])
    extraction = extract_invariants(monad)
    notes.append(f"extracted {extraction.triple.summary()}")
    witness = triple_iso(triple, extraction.triple, trials=trials, rng=rng)
    ok = witness is not None
    if not ok:
        notes.append("no isomorphism of triples found")
    return RoundtripReport(ok, monad, extraction, witness, notes)
