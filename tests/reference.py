"""Plain-Python references the tests check the library against.

Forms are multiplied and added here on their coefficient dicts, term by
term, with no use of the library's multiplication kernel
(`linecoh.coh_action`), so a product computed by the library can be
compared with one computed independently.
"""

import itertools

from qhorrocks.bipoly import BiForm
from qhorrocks.exactla import Matrix
from qhorrocks.linecoh import FormMatrix, split_dims


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
