"""Plain-Python references the tests check the library against.

Forms are multiplied and added here on their coefficient dicts, term by
term, with no use of the library's multiplication kernel
(`linecoh._mult_index`), so a product computed by the library can be
compared with one computed independently.  `coh_action_by_terms` and the
block loops built on it are the kernel as it was before form matrices were
stored as section vectors: one dense block per entry form.
"""

import itertools

import numpy as np

from qhorrocks.bipoly import BiForm, deg_add
from qhorrocks import exactla
from qhorrocks.exactla import Matrix, NoSolution, hstack
from qhorrocks.linecoh import FormMatrix, coh_basis, induced_h, kunneth_dim, spinor_shift, split_dim, split_dims
from qhorrocks.presheaf import (
    InternalInvariantViolation,
    KerPresentation,
    MonadPresentation,
    PrereqVanishingFailed,
    VerificationFailed,
    _candidate_acm_twists,
    solve_form_system,
)


def form_mul(f: BiForm, g: BiForm) -> BiForm:
    """f * g: exponent pairs add, coefficients multiply."""
    field = f.field
    acc = {}
    for (i1, j1), c1 in f.coeffs:
        for (i2, j2), c2 in g.coeffs:
            m = (i1 + i2, j1 + j2)
            acc[m] = field.scalar(acc.get(m, 0) + c1 * c2)
    return BiForm.make(field, (f.deg[0] + g.deg[0], f.deg[1] + g.deg[1]), acc)


def form_add(f: BiForm, g: BiForm) -> BiForm:
    assert f.deg == g.deg, (f.deg, g.deg)
    acc = dict(f.coeffs)
    for m, c in g.coeffs:
        acc[m] = f.field.scalar(acc.get(m, 0) + c)
    return BiForm.make(f.field, f.deg, acc)


def form_scale(f: BiForm, c) -> BiForm:
    return BiForm.make(f.field, f.deg, {m: f.field.scalar(x * f.field.scalar(c)) for m, x in f.coeffs})


def form_compose(m: FormMatrix, n: FormMatrix) -> FormMatrix:
    """m o n, entry (i, k) the sum over j of m[i][j] * n[j][k]."""
    assert n.dst == m.src
    rows = []
    for i, d in enumerate(m.dst):
        row = []
        for k, s in enumerate(n.src):
            acc = BiForm.zero(m.field, (d[0] - s[0], d[1] - s[1]))
            for j in range(m.cols):
                acc = form_add(acc, form_mul(m.entries[i][j], n.entries[j][k]))
            row.append(acc)
        rows.append(tuple(row))
    return FormMatrix.make(m.field, n.src, m.dst, tuple(rows))


def leibniz_det(g: FormMatrix, cols) -> BiForm:
    """Determinant of the square block of g on the given columns."""
    field, n = g.field, g.rows
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = BiForm.constant(field, (-1) ** inversions)
        for i in range(n):
            term = form_mul(term, g.entries[i][cols[perm[i]]])
        total = term if total is None else form_add(total, term)
    return total


def coh_action_by_terms(f: BiForm, i: int, t) -> Matrix:
    """Cup product with f on H^i(O(t)), term by term: each product of monomials is looked up and added."""
    field, (fa, fb) = f.field, f.deg
    src, dst = coh_basis(i, t), coh_basis(i, deg_add(t, f.deg))
    index = {m: k for k, m in enumerate(dst.monomials)}
    out = field.zeros(dst.dim, src.dim)
    for col, (ps, pt, pu, pv) in enumerate(src.monomials):
        for (fi, fj), c in f.coeffs:
            k = index.get((ps + fi, pt + fa - fi, pu + fj, pv + fb - fj))
            if k is not None:
                out[k, col] = field.scalar(out[k, col] + c)
    return Matrix(field, out)


def induced_h_by_blocks(m: FormMatrix, i: int, e) -> Matrix:
    """induced_h assembled from one coh_action_by_terms block per entry form."""
    rd, cd = [kunneth_dim(i, deg_add(t, e)) for t in m.dst], [kunneth_dim(i, deg_add(t, e)) for t in m.src]
    out = m.field.zeros(sum(rd), sum(cd))
    for bi in range(m.rows):
        for bj in range(m.cols):
            if rd[bi] and cd[bj]:
                block = coh_action_by_terms(m.entries[bi][bj], i, deg_add(m.src[bj], e))
                out[sum(rd[:bi]) : sum(rd[: bi + 1]), sum(cd[:bj]) : sum(cd[: bj + 1])] = block.a
    return Matrix(m.field, out)


def h0_mult_on_split_by_blocks(s, f: BiForm, e) -> Matrix:
    """h0_mult_on_split with one coh_action_by_terms block per summand."""
    rd = [kunneth_dim(0, deg_add(deg_add(t, e), f.deg)) for t in s]
    cd = [kunneth_dim(0, deg_add(t, e)) for t in s]
    out = f.field.zeros(sum(rd), sum(cd))
    for k, t in enumerate(s):
        if rd[k] and cd[k]:
            out[sum(rd[:k]) : sum(rd[: k + 1]), sum(cd[:k]) : sum(cd[: k + 1])] = coh_action_by_terms(f, 0, deg_add(t, e)).a
    return Matrix(f.field, out)


def identity_form_matrix(field, s) -> FormMatrix:
    """The identity of the split bundle s, built from section vectors."""
    cols = []
    for j, t in enumerate(s):
        dims = split_dims(0, s, (-t[0], -t[1]))
        vec = field.zeros(sum(dims), 1)[:, 0]
        vec[sum(dims[:j])] = field.scalar(1)
        cols.append(vec)
    return FormMatrix.from_sections(field, tuple(s), tuple(s), cols)


def twisted(m: FormMatrix, e) -> FormMatrix:
    """m on both bundles twisted by e: the same section vectors."""
    src = tuple((a + e[0], b + e[1]) for a, b in m.src)
    dst = tuple((a + e[0], b + e[1]) for a, b in m.dst)
    return FormMatrix.from_sections(m.field, src, dst, [m.section(j) for j in range(m.cols)])


def evaluate(f: BiForm, s, t, u, v):
    """The value of f at scalar coordinates, term by term; the zero form of any bidegree gives 0."""
    field, (a, b) = f.field, f.deg
    total = field.scalar(0)
    for (i, j), c in f.coeffs:
        total = field.scalar(total + c * s**i * t ** (a - i) * u**j * v ** (b - j))
    return total


def fiberwise_injective_by_entries(monad, rng, samples: int = 50) -> bool:
    """MonadPresentation.fiberwise_injective with every entry form evaluated at each point on its own.

    The points are drawn one at a time and the first point of lower rank
    stops the draws, so the rng moves as far as the library's only when
    every point passes.
    """
    if not monad.K:
        return True
    for _ in range(samples):
        point = []
        while len(point) < 4:
            x = monad.field.random_scalar(rng)
            if x != 0:
                point.append(x)
        vals = [[evaluate(f, *point) for f in row] for row in monad.kappa.entries]
        if Matrix.make(monad.field, vals).rank() < len(monad.K):
            return False
    return True


def random_matrix(field, rng, rows: int, cols: int) -> Matrix:
    a = field.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = field.random_scalar(rng)
    return Matrix(field, a)


def augmented_solve(m: Matrix, rhs: Matrix) -> Matrix:
    """m @ X = rhs read out of one elimination of [m | rhs], free variables zero; NoSolution when a pivot lands in rhs."""
    r, pivots = exactla._rref(m.field, hstack([m, rhs]).a)
    x = m.field.zeros(m.cols, rhs.cols)
    for i, pc in enumerate(pivots):
        if pc >= m.cols:
            raise NoSolution("rhs outside column space")
        x[pc, :] = r[i, m.cols :]
    return Matrix(m.field, x)


def monad_h1_h2_by_h2_model(monad, e) -> tuple[int, int]:
    """h1 and h2 of a monad at e, with H2(kappa) solved in a kernel basis of H2(psi).

    The basis spans H2(ker psi) inside H2(A(e)), which needs H1(B(e)) = 0;
    PrereqVanishingFailed when that fails and H2(K(e)) is nonzero.
    """
    full = induced_h(monad.kappa, 2, e)
    if full.cols == 0:
        c2 = Matrix.zeros(monad.field, monad.fbar.h2_dim(e), 0)
    else:
        if split_dim(1, monad.B, e) != 0:
            raise PrereqVanishingFailed(f"H1 of the target is nonzero at shift {e}")
        basis = induced_h(monad.psi, 2, e).kernel_matrix()
        c2 = basis.solve_matrix(full) if basis.cols else Matrix.zeros(monad.field, 0, full.cols)
    c1 = monad.h1k_map(e)
    h1 = (monad.fbar.h1_dim(e) - c1.rank()) + (c2.cols - c2.rank())
    return h1, monad.fbar.h2_dim(e) - c2.rank()


def summand_pairing(p, twist):
    """The composition pairing Hom(O(t), E) x Hom(E, O(t)) -> k, with both Hom bases.

    phis[i] is the section i of E(-t) as a column O(t) -> A, pis[j] the
    cosection j (see KerPresentation.cosection_space) as a row A -> O(t), and
    entry (i, j) is the constant pis[j] o phis[i], composed with form_compose.
    """
    neg = (-twist[0], -twist[1])
    dual_a = tuple((-a, -b) for a, b in p.A)
    phis = [FormMatrix.from_sections(p.field, (twist,), p.A, [vec]) for vec in p.h0_space(neg).columns()]
    pis = [FormMatrix.from_sections(p.field, (neg,), dual_a, [vec]).dual() for vec in p.cosection_space(twist).columns()]
    pairing = p.field.zeros(len(phis), len(pis))
    for i, phi in enumerate(phis):
        for j, pi in enumerate(pis):
            pairing[i, j] = form_compose(pi, phi).entries[0][0].constant_value()
    return Matrix(p.field, pairing), phis, pis


def find_acm_summand_ungated(p):
    """find_acm_summand as a plain scan: the full summand pairing at every candidate twist."""
    if p.rank <= 0 or not p.A:
        return None
    for twist in _candidate_acm_twists(p.A):
        pairing, phis, pis = summand_pairing(p, twist)
        if pairing.is_zero():
            continue
        i, j = (int(x) for x in np.argwhere(pairing.a != 0)[0])
        pi = pis[j].dual()
        scaled = p.field.reduce(pi.section(0) * p.field.inv(pairing.a[i, j]))
        return twist, phis[i], FormMatrix.from_sections(p.field, pi.src, pi.dst, [scaled]).dual()
    return None


def lift_lambda(psi: FormMatrix, gamma) -> FormMatrix:
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
        inc = FormMatrix.make(field, (left,), two, ((mv,), (pu,)))
        proj = FormMatrix.make(field, two, (right,), ((pu, pv),))
    else:
        left = (q - 1, q)
        right = (q + 1, q)
        mt = BiForm.make(field, (1, 0), {(0, 0): -1})
        ps = BiForm.make(field, (1, 0), {(1, 0): 1})
        pt = BiForm.make(field, (1, 0), {(0, 0): 1})
        inc = FormMatrix.make(field, (left,), two, ((mt,), (ps,)))
        proj = FormMatrix.make(field, two, (right,), ((ps, pt),))
    return left, right, inc, proj


def h1_spinor_class_of_column(p, col: FormMatrix, e) -> np.ndarray:
    """Push the one H1 class of a spinor-inverse column through the presentation, one form solve at a time.

    col is a single-column map O(k) -> A whose composite with g vanishes,
    where O(k + e) has the one-dimensional H1 of an O(0,-2)-type twist.  The
    column is extended along its Euler sequence by a form solve, pushed to B,
    and divided by the Koszul projection by a second form solve; the return
    value is the ambient section vector of the class in B(e).
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


def h1k_map_by_columns(monad, e) -> Matrix:
    """MonadPresentation.h1k_map with each kappa column chased on its own by h1_spinor_class_of_column.

    The chase extends the column by the Koszul inclusion [-v, u]^T, where
    h1k_map lifts over [u, v] and divides by (-v, u)^T, so every class here is
    -1 times h1k_map's.
    """
    live = [(j, k) for j, k in enumerate(monad.K) if kunneth_dim(1, deg_add(k, e)) > 0]
    if not live:
        return Matrix.zeros(monad.field, monad.fbar.h1_dim(e), 0)
    model = monad.fbar.h1_model(e)
    cols = []
    for j, k in live:
        if kunneth_dim(1, deg_add(k, e)) > 1:
            raise InternalInvariantViolation(f"unsupported shift {e} for summand {k}")
        vec = h1_spinor_class_of_column(monad.fbar, monad.kappa.select_columns([j]), e)
        cols.append(model.proj @ vec)
    return Matrix.from_columns(monad.field, cols, rows_dim=model.dim)


def _ker_dims(g: FormMatrix, e) -> tuple[int, int, int]:
    """h0, h1, h2 of ker g at e from the long exact sequence of g, every rank eliminated."""
    m0, m1, m2 = (induced_h(g, i, e) for i in (0, 1, 2))
    r0, r1, r2 = m0.rank(), m1.rank(), m2.rank()
    return m0.cols - r0, (m0.rows - r0) + (m1.cols - r1), (m2.cols - r2) + (m1.rows - r1)


def eliminated_dims(rep, e) -> tuple[int, int, int]:
    """h0, h1, h2 of a presentation at e with every rank eliminated, as tables were made before forced ranks.

    For a monad the connecting map H1(K(e)) -> H1(ker psi(e)) comes from
    `h1k_map`; H2(kappa) is ranked into H2(A(e)), which needs H1(B(e)) = 0
    when H2(K(e)) is nonzero (PrereqVanishingFailed otherwise).
    """
    if not isinstance(rep, MonadPresentation):
        return _ker_dims(rep.g, e)
    k0, k2 = induced_h(rep.kappa, 0, e), induced_h(rep.kappa, 2, e)
    if k2.cols and split_dim(1, rep.B, e) != 0:
        raise PrereqVanishingFailed(f"H1 of the target is nonzero at shift {e}")
    (f0, f1, f2), c1, r2 = _ker_dims(rep.psi, e), rep.h1k_map(e), k2.rank()
    return (f0 - k0.rank()) + (c1.cols - c1.rank()), (f1 - c1.rank()) + (k2.cols - r2), f2 - r2


def eliminated_table(rep, lo: int, hi: int) -> dict:
    """rep.table(lo, hi) computed by eliminated_dims."""
    return {
        (kind, d): eliminated_dims(rep, e)
        for d in range(lo, hi + 1)
        for kind, e in (("o", (d, d)), ("s1", spinor_shift(1, d)), ("s2", spinor_shift(2, d)))
    }


def dims_by_parts(rep, e) -> tuple[int, int, int]:
    """(h0_dim(e), h1_dim(e), h2_dim(e)), for a monad checked against chi(A) - chi(B) - chi(K) as dims_at checks it."""
    dims = (rep.h0_dim(e), rep.h1_dim(e), rep.h2_dim(e))
    if isinstance(rep, MonadPresentation):
        chi = [sum((a + e[0] + 1) * (b + e[1] + 1) for a, b in s) for s in (rep.A, rep.B, rep.K)]
        if dims[0] - dims[1] + dims[2] != chi[0] - chi[1] - chi[2]:
            raise InternalInvariantViolation(f"Euler characteristic mismatch at {e}")
    return dims


def table_by_parts(rep, lo: int, hi: int) -> dict:
    """rep.table(lo, hi) with each entry from dims_by_parts."""
    return {
        (kind, d): dims_by_parts(rep, e)
        for d in range(lo, hi + 1)
        for kind, e in (("o", (d, d)), ("s1", spinor_shift(1, d)), ("s2", spinor_shift(2, d)))
    }


def h2_kappa_injective_scan(monad) -> bool:
    """h2_kappa_injective's cokernel check at every degree of its range, none skipped."""
    firsts = [max(k) for k in monad.K]
    dual = monad.kappa.dual()
    mats = [induced_h(dual, 0, (f, f)) for f in range(min(firsts, default=0), max(firsts, default=-1) + 1)]
    return all(m.rank() == m.rows for m in mats)
