import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qhorrocks import exactla
from qhorrocks.exactla import (
    DEFAULT_PRIME,
    Matrix,
    NoSolution,
    PrimeField,
    RationalField,
    _rank,
    _rref,
    get_field,
    hstack,
    preimage_basis,
    quotient_data,
    span_basis,
    subspace_equal,
)
from reference import augmented_solve, random_matrix

F = PrimeField(DEFAULT_PRIME)
Q = RationalField()


def test_get_field():
    assert get_field("p=7").p == 7
    assert get_field(5).p == 5
    assert isinstance(get_field("rationals"), RationalField)


@pytest.mark.parametrize("p", [0, 1, 4, 32004, 2**31 + 1, 4294967311])
def test_prime_field_rejects_composites_and_oversized_primes(p):
    # 4294967311 is prime, but (p - 1)**2 overflows the int64 row update
    with pytest.raises(ValueError):
        PrimeField(p)


def test_matmul_near_the_size_limit_does_not_overflow():
    big = PrimeField(2147483647)
    p = big.p
    # 3 (p - 1)**2 exceeds 2**63 unless the inner dimension is split
    assert big.matmul(big.array([[p - 1] * 3]), big.array([[p - 1]] * 3)).tolist() == [[3]]
    a = random_matrix(big, random.Random(1), 3, 40)
    b = random_matrix(big, random.Random(2), 40, 2)
    exact = [[sum(int(a.a[i, k]) * int(b.a[k, j]) for k in range(40)) % p for j in range(2)] for i in range(3)]
    assert big.matmul(a.a, b.a).tolist() == exact


def test_rank_identity_and_zero():
    assert Matrix.identity(F, 2).rank() == 2
    assert Matrix.zeros(F, 3, 4).rank() == 0


def test_rank_dependent_rows_over_q():
    # hand elimination: second row is twice the first
    m = Matrix.make(Q, [[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert Matrix.identity(F, 3).kernel_basis() == []


def test_kernel_zero_matrix():
    ker = Matrix.zeros(F, 2, 3).kernel_basis()
    assert len(ker) == 3
    assert sorted(tuple(int(x) for x in v) for v in ker) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_kernel_single_equation():
    # one equation in three unknowns: two independent solutions
    m = Matrix.make(F, [[1, 1, 0]])
    ker = m.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert np.all((m @ v) % F.p == 0)


def test_solve_identity():
    m = Matrix.identity(F, 3)
    rhs = F.array([[4], [5], [6]])[:, 0]
    assert np.all(m.solve(rhs) == rhs)


def test_solve_no_solution():
    m = Matrix.make(F, [[1, 0], [0, 0]])
    with pytest.raises(NoSolution):
        m.solve(F.array([[0], [1]])[:, 0])


def test_solve_mod_5():
    # 2 * 3 = 6 = 1 mod 5
    f5 = PrimeField(5)
    m = Matrix.make(f5, [[2]])
    assert int(m.solve(f5.array([[1]])[:, 0])[0]) == 3


def test_solve_reproduces_rhs_exactly():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(F, rng, 5, 7)
        x = random_matrix(F, rng, 7, 1)
        rhs = (m @ x).a[:, 0]
        sol = m.solve(rhs)
        assert np.all((m @ sol) == rhs)


def test_rank_nullity_random():
    rng = random.Random(11)
    for field in (F, PrimeField(5), Q):
        for _ in range(25):
            r, c = rng.randrange(1, 8), rng.randrange(1, 8)
            m = random_matrix(field, rng, r, c)
            assert m.rank() + len(m.kernel_basis()) == c


def test_quotient_trivial_subspace():
    reps, proj = quotient_data(Matrix.zeros(F, 3, 0))
    assert proj == Matrix.identity(F, 3)
    assert reps == Matrix.identity(F, 3)


def test_quotient_full_subspace():
    reps, proj = quotient_data(Matrix.identity(F, 2))
    assert proj.rows == 0 and reps.cols == 0


def test_quotient_kills_subspace():
    v = F.array([[1], [1], [0]])[:, 0]
    reps, proj = quotient_data(Matrix.from_columns(F, [v]))
    assert proj.rows == 2
    assert np.all((proj @ v) == 0)
    # projection of the coset representatives is the identity
    assert (proj @ reps) == Matrix.identity(F, 2)
    assert proj.rank() == 2


def test_quotient_over_rationals():
    v = Q.array([[1], [2]])[:, 0]
    reps, proj = quotient_data(Matrix.from_columns(Q, [v]))
    assert proj.rows == 1
    assert np.all(proj @ v == 0)


def test_span_and_subspace_equal():
    a = Matrix.make(F, [[1, 0], [1, 1], [0, 2]])
    b = Matrix.make(F, [[1, 1], [2, 0], [2, -2]])
    # b columns = {a1 + a2, 2 a1 - ... } hand-cooked to span the same plane
    assert subspace_equal(a, hstack([a, a]))
    assert span_basis(F, list(a.columns()), 3).cols == 2
    assert not subspace_equal(a, Matrix.identity(F, 3))
    assert subspace_equal(b, b)


def test_preimage_basis():
    m = Matrix.make(F, [[1, 0, 0], [0, 1, 0]])
    target = Matrix.make(F, [[1], [0]])
    pre = preimage_basis(m, target)
    # {x : (x0, x1) in span{(1,0)}} = {x1 = 0}: dimension 2
    assert pre.cols == 2
    for v in pre.columns():
        assert int(v[1]) == 0


def test_solve_matrix_multi_rhs():
    rng = random.Random(3)
    m = random_matrix(F, rng, 4, 4)
    x = random_matrix(F, rng, 4, 3)
    sol = m.solve_matrix(m @ x)
    assert (m @ sol) == (m @ x)


# ---------------------------------------------------------------------------
# the elimination kernel and its read-outs against a plain-Python reference

# F_2147483647 and F_3037000493 (the largest accepted prime) allow only two
# and one int64 row updates between reductions, so elimination reduces mid-run
FIELDS = [PrimeField(2), PrimeField(5), F, PrimeField(2147483647), PrimeField(3037000493), Q]


def reference_rref(field, a):
    """Reference Gauss-Jordan on lists of scalars: the rref rows (zero rows last) and the pivot columns."""
    rows = [[field.scalar(x) for x in row] for row in a.tolist()]
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        i = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.scalar(x * inv) for x in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[c] != 0:
                rows[k] = [field.scalar(x - row[c] * y) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def field_scalars(field):
    """Entries from the whole field, with 0, 1 and -1 drawn often."""
    if field.p is None:
        return st.sampled_from([0, 1, -1]).map(Fraction) | st.fractions(-1000, 1000, max_denominator=1000)
    return st.sampled_from([0, 1, field.p - 1]) | st.integers(0, field.p - 1)


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    """Matrices up to 12 x 12, empty ones included; about half are products through a narrower inner dimension."""
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    r = draw(st.integers(0, 12)) if rows is None else rows
    c = draw(st.integers(0, 12)) if cols is None else cols

    def block(h, w):
        entries = draw(st.lists(field_scalars(field), min_size=h * w, max_size=h * w))
        return field.array(np.array(entries, dtype=object).reshape(h, w))

    if draw(st.booleans()):
        return Matrix(field, block(r, c))
    k = draw(st.integers(0, max(0, min(r, c) - 1)))  # rank at most k
    return Matrix(field, field.matmul(block(r, k), block(k, c)))


READOUTS = settings(max_examples=80, deadline=None)


def assert_matches_reference(m):
    rows, pivots = reference_rref(m.field, m.a)
    r, got = _rref(m.field, m.a)
    assert got == tuple(pivots)
    assert r.shape == m.a.shape and r.tolist() == rows
    assert m.rank() == len(pivots)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_and_rank_match_the_reference(m):
    assert_matches_reference(m)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_rref_matches_the_reference_on_seeded_matrices(field):
    rng = random.Random(5)
    # (rows, cols, inner): a product through an inner dimension has rank at most inner; None is a plain draw
    for rows, cols, inner in [(12, 12, None), (5, 12, None), (12, 5, None), (12, 12, 7), (9, 12, 3), (6, 6, 0), (0, 4, None), (4, 0, None)]:
        if inner is None:
            m = random_matrix(field, rng, rows, cols)
        else:
            m = random_matrix(field, rng, rows, inner) @ random_matrix(field, rng, inner, cols)
        assert_matches_reference(m)


@READOUTS
@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in m.kernel_basis():
        assert not np.any(m @ v != 0)


def reference_kernel(m):
    """Reference read-out: for each non-pivot column f, e_f minus the pivot rows' entries in column f."""
    r, pivots = reference_rref(m.field, m.a)
    out = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = m.field.zeros(m.cols, 1)[:, 0]
        v[f] = m.field.scalar(1)
        for i, pc in enumerate(pivots):
            v[pc] = m.field.neg(r[i][f])
        out.append(v)
    return out


@READOUTS
@given(matrices())
def test_kernel_and_quotient_read_out_the_reference_basis(m):
    want = [[m.field.scalar(x) for x in v] for v in reference_kernel(m)]
    assert [list(v) for v in m.kernel_basis()] == want
    # the rows of m span the subspace, so the projection's rows are its kernel basis
    _reps, proj = quotient_data(Matrix(m.field, m.a.T))
    assert [list(row) for row in proj.a] == want


@READOUTS
@given(matrices())
def test_quotient_projection_inverts_reps_and_kills_the_subspace(m):
    # the subspace is the column span of m inside an ambient space of dimension m.rows
    reps, proj = quotient_data(m)
    assert reps.cols == m.rows - m.rank()
    assert proj @ reps == Matrix.identity(m.field, reps.cols)
    assert (proj @ m).is_zero()


@READOUTS
@given(matrices())
def test_span_and_column_space_basis_read_out_the_reference_rref(m):
    rows, pivots = reference_rref(m.field, m.a.T)
    want = rows[: len(pivots)]
    assert [list(v) for v in span_basis(m.field, list(m.columns()), m.rows).columns()] == want
    assert [list(v) for v in m.column_space_basis().columns()] == want


@READOUTS
@given(matrices(), st.data())
def test_multi_column_solve_matches_per_column_solve(m, data):
    k = data.draw(st.integers(1, 3))
    x = data.draw(matrices(m.field, m.cols, k))
    if data.draw(st.booleans()):
        rhs = m @ x  # consistent right-hand sides
    else:
        rhs = data.draw(matrices(m.field, m.rows, k))
    per_column = []
    for j in range(k):
        try:
            per_column.append(m.solve(rhs.col(j)))
        except NoSolution:
            with pytest.raises(NoSolution):
                m.solve_matrix(rhs)
            return
    sol = m.solve_matrix(rhs)
    for j in range(k):
        assert np.all(sol.col(j) == per_column[j])


def reference_solve(m, rhs):
    """Reference read-out of [m | rhs]: None when a pivot lands in rhs, else pivot variable i from row i and free variables 0."""
    rows, pivots = reference_rref(m.field, np.concatenate([m.a, rhs.a], axis=1))
    if any(c >= m.cols for c in pivots):
        return None
    x = [[m.field.scalar(0)] * rhs.cols for _ in range(m.cols)]
    for i, c in enumerate(pivots):
        x[c] = rows[i][m.cols :]
    return x


@READOUTS
@given(matrices(), st.data())
def test_solve_reads_out_the_reference_rref_of_the_augmented_matrix(m, data):
    # several right-hand sides against one Matrix, all served by the transform of its first solve
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):
            rhs = m @ data.draw(matrices(m.field, m.cols, k))
        else:
            rhs = data.draw(matrices(m.field, m.rows, k))
        want = reference_solve(m, rhs)
        if want is None:
            with pytest.raises(NoSolution):
                m.solve_matrix(rhs)
            with pytest.raises(NoSolution):
                augmented_solve(m, rhs)
        else:
            assert m.solve_matrix(rhs).a.tolist() == want
            assert augmented_solve(m, rhs).a.tolist() == want


@READOUTS
@given(st.data())
def test_rational_products_match_the_dense_object_product(data):
    # RationalField.matmul forms the products of nonzero entries only; numpy's object matmul forms them all
    k = data.draw(st.integers(0, 12))
    a, b = data.draw(matrices(Q, cols=k)), data.draw(matrices(Q, rows=k))
    want = a.a @ b.a if k else Q.zeros(a.rows, b.cols)
    assert Q.matmul(a.a, b.a).tolist() == want.tolist()


@pytest.mark.parametrize("field", [F, Q], ids=lambda f: f.name)
def test_one_elimination_serves_every_solve_and_kernel_read_out(field, monkeypatch):
    rng = random.Random(12)
    m = random_matrix(field, rng, 6, 4) @ random_matrix(field, rng, 4, 9)
    calls = []
    rref = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda f, a, **kw: calls.append(a.shape) or rref(f, a, **kw))
    for _ in range(5):
        rhs = m @ random_matrix(field, rng, 9, 2)
        assert m @ m.solve_matrix(rhs) == rhs
        assert np.all(m @ m.solve(rhs.col(0)) == rhs.col(0))
        with pytest.raises(NoSolution):
            m.solve_matrix(random_matrix(field, rng, 6, 1))  # rank 4 of 6: a random column is outside
    assert m.rank() + len(m.kernel_basis()) == 9
    assert calls == [(6, 6 + 9)]  # [m | I], once


# ---------------------------------------------------------------------------
# the rank: structural pivots, then elimination of what is left


def sparse_entries(field):
    """Nonzero field elements, over F_p stored as any int64 (p and p + 1 are 0 and 1 unreduced, -1 is p - 1)."""
    if field.p is None:
        return field_scalars(field).filter(lambda x: x != 0)
    return st.sampled_from([1, -1, field.p, field.p + 1]) | st.integers(1, field.p - 1)


@st.composite
def sparse_arrays(draw):
    """A field and a mostly zero array up to 14 x 14, with planted chains, row and column singletons and zero lines."""
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    a = field.zeros(r, c)
    if r == 0 or c == 0:
        return field, a
    entry = sparse_entries(field)
    cells = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1))
    for i, j in draw(st.lists(cells, max_size=r * c // 3)):
        a[i, j] = draw(entry)
    if draw(st.booleans()):  # an upper-bidiagonal chain from a random corner
        i0, j0 = draw(cells)
        for k in range(min(r - i0, c - j0)):
            a[i0 + k, j0 + k] = draw(entry)
            if j0 + k + 1 < c:
                a[i0 + k, j0 + k + 1] = draw(entry)
    for i, j in draw(st.lists(cells, max_size=3)):  # row singletons
        a[i, :] = 0
        a[i, j] = draw(entry)
    for i, j in draw(st.lists(cells, max_size=3)):  # column singletons
        a[:, j] = 0
        a[i, j] = draw(entry)
    for i, j in draw(st.lists(cells, max_size=2)):  # a zero row and a zero column
        a[i, :] = 0
        a[:, j] = 0
    return field, a


@settings(max_examples=400, deadline=None)
@given(sparse_arrays())
def test_rank_of_sparse_arrays_matches_the_reference(fa):
    field, a = fa
    assert _rank(field, a) == len(reference_rref(field, a)[1])


def band(field, n: int, below: int = 0) -> np.ndarray:
    """An upper-bidiagonal chain, 1 on the diagonal and -1 above it, with 1 on the first `below` places below it."""
    a = field.zeros(n, n)
    for k in range(n):
        a[k, k] = field.scalar(1)
        if k + 1 < n:
            a[k, k + 1] = field.scalar(-1)
        if k < below:
            a[k + 1, k] = field.scalar(1)
    return a


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_rank_fixed_shapes(field, monkeypatch):
    rng = random.Random(4)
    dense = random_matrix(field, rng, 12, 15).a.copy()
    dense[dense == 0] = field.scalar(1)  # every entry nonzero, so no row or column is a singleton
    cases = [band(field, 40), band(field, 9, below=8), dense, field.zeros(0, 5), field.zeros(5, 0)]
    want = [len(reference_rref(field, a)[1]) for a in cases]
    calls = []
    rref = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda f, a, **kw: calls.append(a.shape) or rref(f, a, **kw))
    assert [_rank(field, a) for a in cases] == want
    # the chain peels to nothing, the tridiagonal one leaves no singleton, the dense block has none
    assert calls == [(9, 9), (12, 15)]


def test_rank_of_a_long_chain_needs_no_elimination(monkeypatch):
    a = band(F, 300)
    monkeypatch.setattr(exactla, "_rref", None)
    assert _rank(F, a) == 300
    a[-1, -1] = 0
    assert _rank(F, a) == 299


# ---------------------------------------------------------------------------
# the two phases of _rref: sparse rows, then a dense tail once an update fills in


@st.composite
def wide_sparse_arrays(draw):
    """A field and an array up to 40 x 80 with 1-3 nonzeros per column and up to 3 planted rows dense from some column on."""
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(1, 40)), draw(st.integers(1, 80))
    a = field.zeros(r, c)
    entry = sparse_entries(field)
    for j in range(c):
        for i in draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3)):
            a[i, j] = draw(entry)
    for i, j0 in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)), max_size=3)):
        a[i, j0:] = draw(st.lists(entry, min_size=c - j0, max_size=c - j0))
    return field, a


# no shrink phase: each example runs reference_rref on up to 40 x 80 entries, so shrinking a failure takes minutes
@settings(max_examples=120, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(wide_sparse_arrays(), st.sampled_from([0, 4, 32, 256, exactla.SPARSE_UPDATE_LIMIT]))
def test_sparse_elimination_and_its_dense_tail_match_the_reference(fa, limit):
    # a lower limit moves the switch to the dense tail to an earlier column (0: the first pivot column
    # hit by two rows); the result may not depend on where the switch falls
    field, a = fa
    rows, pivots = reference_rref(field, a)
    with mock.patch.object(exactla, "SPARSE_UPDATE_LIMIT", limit):
        r, got = _rref(field, a)
        assert _rref(field, a, reduced=False)[1] == got
        assert _rank(field, a) == len(pivots)
    assert got == tuple(pivots)
    assert r.tolist() == rows


def tail_after_sparse_pivots(field, rng, lead: int = 5, rows: int = 80, width: int = 70, inner: int = 12) -> np.ndarray:
    """A chain of `lead` sparse rows over a block with no zero entry and rank at most `inner`.

    Row j < lead holds (j, j) and (j, j + 1), and row rows // 2 + j, a block
    row, holds (rows // 2 + j, j): the leading columns are cheap sparse
    pivots that leave the block dense.  At column `lead` every block row is
    hit, so one update would touch about rows * width entries, past
    SPARSE_UPDATE_LIMIT.  No row or column is a singleton, so `_rank` peels
    nothing and hands the whole array to `_rref`.
    """
    def nonzero():
        return field.scalar(rng.randrange(1, 50)) or field.scalar(1)

    a = field.zeros(rows, lead + width)
    for j in range(lead):
        a[j, j] = nonzero()
        a[j, j + 1] = nonzero()
        a[rows // 2 + j, j] = nonzero()
    base = field.zeros(rows - lead, inner)
    for i in range(rows - lead):
        for k in range(inner):
            base[i, k] = nonzero()
    a[lead:, lead:] = base[:, [k % inner for k in range(width)]]  # repeated columns
    return a


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_dense_tail_takes_over_after_sparse_pivots(field, monkeypatch):
    # F_3037000493 has PrimeField._block == 1: the tail reduces the whole block before every update.
    # Over Q elimination stays sparse: a dense loop on Fraction objects would do the same arithmetic, zeros included.
    a = tail_after_sparse_pivots(field, random.Random(6))
    rows, pivots = reference_rref(field, a)
    switches = []
    dense = exactla._rref_dense
    monkeypatch.setattr(exactla, "_rref_dense", lambda f, b, start, piv, reduced: switches.append((start, len(piv), reduced)) or dense(f, b, start, piv, reduced))
    r, got = _rref(field, a)
    assert got == tuple(pivots) and r.tolist() == rows
    assert _rank(field, a) == len(pivots)
    assert switches == ([(5, 5, True), (5, 5, False)] if field.p else [])


def test_dense_input_goes_straight_to_the_dense_loop(monkeypatch):
    # every row hits the first column with about 300 nonzeros, so the first update is priced past
    # SPARSE_UPDATE_LIMIT from the nonzero pattern and no row dict is built; rank 30 keeps the reference quick
    rng = random.Random(8)
    a = (random_matrix(F, rng, 300, 30) @ random_matrix(F, rng, 30, 300)).a
    rows, pivots = reference_rref(F, a)
    switches = []
    dense = exactla._rref_dense
    monkeypatch.setattr(exactla, "_rref_dense", lambda f, b, start, piv, reduced: switches.append((start, len(piv), reduced)) or dense(f, b, start, piv, reduced))
    monkeypatch.setattr(exactla, "_rows_array", None)
    r, got = _rref(F, a)
    assert got == tuple(pivots) and r.tolist() == rows
    assert switches == [(0, 0, True)]


# ---------------------------------------------------------------------------
# frozen arrays and the remembered rank


@pytest.mark.parametrize("field", [F, Q], ids=lambda f: f.name)
def test_rank_is_remembered_by_rank_and_kernel_read_outs(field, monkeypatch):
    rng = random.Random(9)
    m = random_matrix(field, rng, 5, 3) @ random_matrix(field, rng, 3, 7)
    fresh = Matrix(field, m.a.copy())
    r0 = m.rank()
    m.kernel_basis()
    assert m.rank() == r0
    m.kernel_matrix()
    assert m.rank() == r0
    fresh.kernel_matrix()
    calls = []
    monkeypatch.setattr(exactla, "_rref", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(exactla, "_rank", lambda *args, **kwargs: calls.append(args))
    assert fresh.rank() == r0 == 3 and m.rank() == r0
    assert calls == []


@pytest.mark.parametrize("field", [F, Q], ids=lambda f: f.name)
def test_matrix_arrays_are_frozen_and_read_outs_still_work(field):
    m = Matrix.make(field, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        m.a[0, 0] = field.scalar(7)
    x = Matrix.make(field, [[1, 0, 2], [1, 1, 0]])
    rhs = m @ x
    assert m @ m.solve_matrix(rhs) == rhs
    assert m.column_space_basis().cols == 2
    reps, proj = quotient_data(m)  # a read-only array
    assert reps.cols == 1 and (proj @ m).is_zero()
