import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhorrocks.exactla import (
    DEFAULT_PRIME,
    Matrix,
    NoSolution,
    PrimeField,
    RationalField,
    _rref,
    get_field,
    hstack,
    preimage_basis,
    quotient_data,
    random_matrix,
    span_basis,
    subspace_equal,
)

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
    reps, proj = quotient_data(F, 3, [])
    assert proj == Matrix.identity(F, 3)
    assert reps == Matrix.identity(F, 3)


def test_quotient_full_subspace():
    vecs = list(Matrix.identity(F, 2).columns())
    reps, proj = quotient_data(F, 2, vecs)
    assert proj.rows == 0 and reps.cols == 0


def test_quotient_kills_subspace():
    v = F.array([[1], [1], [0]])[:, 0]
    reps, proj = quotient_data(F, 3, [v])
    assert proj.rows == 2
    assert np.all((proj @ v) == 0)
    # projection of the coset representatives is the identity
    assert (proj @ reps) == Matrix.identity(F, 2)
    assert proj.rank() == 2


def test_quotient_over_rationals():
    v = Q.array([[1], [2]])[:, 0]
    reps, proj = quotient_data(Q, 2, [v])
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
# properties of the elimination read-outs over F_32003, F_5 and Q


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    field = draw(st.sampled_from([F, PrimeField(5), Q])) if field is None else field
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 6)) if cols is None else cols
    entries = draw(st.lists(st.integers(-2, 2), min_size=r * c, max_size=r * c))
    return Matrix(field, field.array(np.array(entries, dtype=object).reshape(r, c)))


READOUTS = settings(max_examples=80, deadline=None)


@READOUTS
@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in m.kernel_basis():
        assert not np.any(m @ v != 0)


def reference_kernel(m):
    """Reference read-out: for each non-pivot column f, e_f minus the pivot rows' entries in column f."""
    r, pivots = _rref(m.field, m.a)
    out = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = m.field.zeros(m.cols, 1)[:, 0]
        v[f] = m.field.scalar(1)
        for i, pc in enumerate(pivots):
            v[pc] = m.field.neg(r[i, f])
        out.append(v)
    return out


@READOUTS
@given(matrices())
def test_kernel_and_quotient_read_out_the_reference_basis(m):
    want = [[m.field.scalar(x) for x in v] for v in reference_kernel(m)]
    assert [list(v) for v in m.kernel_basis()] == want
    # the rows of m span the subspace, so the projection's rows are its kernel basis
    _reps, proj = quotient_data(m.field, m.cols, list(m.a))
    assert [list(row) for row in proj.a] == want


@READOUTS
@given(matrices())
def test_quotient_projection_inverts_reps_and_kills_the_subspace(m):
    # the subspace is the column span of m inside an ambient space of dimension m.rows
    reps, proj = quotient_data(m.field, m.rows, list(m.columns()))
    assert reps.cols == m.rows - m.rank()
    assert proj @ reps == Matrix.identity(m.field, reps.cols)
    assert (proj @ m).is_zero()


def reference_span_basis(field, vectors):
    """Reference read-out: Gauss-Jordan on the vectors as rows of plain lists, nonzero rows in pivot order."""
    rows = [[field.scalar(x) for x in v] for v in vectors]
    basis = []
    for c in range(len(rows[0]) if rows else 0):
        i = next((k for k, row in enumerate(rows) if row[c] != 0), None)
        if i is None:
            continue
        inv = field.inv(rows[i][c])
        piv = [field.scalar(x * inv) for x in rows.pop(i)]
        rows = [[field.scalar(x - row[c] * y) for x, y in zip(row, piv)] for row in rows]
        basis = [[field.scalar(x - row[c] * y) for x, y in zip(row, piv)] for row in basis] + [piv]
    return basis


@READOUTS
@given(matrices())
def test_span_and_column_space_basis_read_out_the_reference_rref(m):
    want = reference_span_basis(m.field, m.columns())
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
