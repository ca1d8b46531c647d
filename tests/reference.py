"""Plain-Python references the tests check the library against.

Forms are multiplied and added here on their coefficient dicts, term by
term, with no use of the library's multiplication kernel
(`linecoh.coh_action`), so a product computed by the library can be
compared with one computed independently.
"""

import itertools

import numpy as np

from qhorrocks.bipoly import BiForm
from qhorrocks.exactla import Matrix
from qhorrocks.linecoh import FormMatrix, induced_h, split_dim, split_dims
from qhorrocks.presheaf import PrereqVanishingFailed, _candidate_acm_twists, summand_pairing


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
    return FormMatrix(m.field, n.src, m.dst, tuple(rows))


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


def random_matrix(field, rng, rows: int, cols: int) -> Matrix:
    a = field.zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = field.random_scalar(rng)
    return Matrix(field, a)


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
