import numpy as np
import pytest

from qhorrocks.exactla import DEFAULT_PRIME, Matrix, PrimeField
from qhorrocks.bipoly import BiForm, parse_biform
from qhorrocks.linecoh import (
    FormMatrix,
    MalformedMatrix,
    coh_action,
    coh_basis,
    euler_char,
    form_vstack,
    induced_h,
    is_acm_twist,
    kunneth_dim,
    sheaf_surjective,
    split_dim,
    spinor_kind,
)

F = PrimeField(DEFAULT_PRIME)


def bf(text, deg=None):
    return parse_biform(F, text, deg)


def fm(src, dst, rows):
    return FormMatrix.make(F, tuple(src), tuple(dst), [[bf(x, None if x != "0" else None) if isinstance(x, str) and x != "0" else x for x in row] for row in rows])


def gamma_matrix(src, dst, rows_text):
    rows = []
    for i, row in enumerate(rows_text):
        r = []
        for j, cell in enumerate(row):
            want = (dst[i][0] - src[j][0], dst[i][1] - src[j][1])
            r.append(parse_biform(F, cell, want))
        rows.append(r)
    return FormMatrix.make(F, tuple(src), tuple(dst), rows)


def test_kunneth_dims_match_finite_length_values():
    # H1 of O(-2,0) twisted by d: one dimensional exactly at d = 0
    for d in range(-5, 6):
        expect = 1 if d == 0 else 0
        assert kunneth_dim(1, (d - 2, d)) == expect
    # H1 of O(-3,0): two dimensions in degrees 0 and 1
    for d in range(-5, 6):
        expect = 2 if d in (0, 1) else 0
        assert kunneth_dim(1, (d - 3, d)) == expect


def test_h0_values():
    assert kunneth_dim(0, (1, 0)) == 2
    assert kunneth_dim(0, (1, 1)) == 4


def test_euler_alternating_sum():
    for a in range(-5, 6):
        for b in range(-5, 6):
            total = kunneth_dim(0, (a, b)) - kunneth_dim(1, (a, b)) + kunneth_dim(2, (a, b))
            assert total == (a + 1) * (b + 1)


def test_serre_duality_window():
    for a in range(-5, 6):
        for b in range(-5, 6):
            for i in (0, 1, 2):
                assert kunneth_dim(i, (a, b)) == kunneth_dim(2 - i, (-2 - a, -2 - b))


def test_acm_twists_are_exactly_gap_at_most_one():
    for a in range(-5, 6):
        for b in range(-5, 6):
            vanish = all(kunneth_dim(1, (a + d, b + d)) == 0 for d in range(-8, 9))
            assert vanish == is_acm_twist((a, b))
    assert spinor_kind((3, 2)) == 1 and spinor_kind((-1, 0)) == 2 and spinor_kind((2, 2)) is None


def test_coh_basis_h1_single_monomial():
    basis = coh_basis(1, (0, -2))
    assert basis.monomials == ((0, 0, -1, -1),)


def test_coh_basis_h2_serre_point():
    basis = coh_basis(2, (-2, -2))
    assert basis.monomials == ((-1, -1, -1, -1),)


def test_coh_basis_h0_empty_for_mixed_negative():
    assert coh_basis(0, (-1, 5)).dim == 0


def test_coh_action_identity():
    one = BiForm.constant(F, 1)
    for i in (0, 1, 2):
        for t in ((2, 2), (0, -2), (-2, -3)):
            m = coh_action(one, i, t)
            assert m == Matrix.identity(F, kunneth_dim(i, t))


def test_coh_action_truncation_rule():
    # u on H1(O(0,-3)) -> H1(O(0,-2)): u^-1 v^-2 dies, u^-2 v^-1 maps to u^-1 v^-1
    u = bf("u")
    src = coh_basis(1, (0, -3))
    assert src.monomials == ((0, 0, -1, -2), (0, 0, -2, -1))
    m = coh_action(u, 1, (0, -3))
    assert m.rows == 1 and m.cols == 2
    assert [int(x) for x in m.a[0]] == [0, 1]


def test_coh_action_to_zero_target():
    su = bf("s*u")
    m = coh_action(su, 2, (-2, -2))
    assert m.rows == 0 and m.cols == 1


def test_coh_action_functorial_quadric_relation():
    x0, x1, x2, x3 = (bf(n) for n in ("x0", "x1", "x2", "x3"))
    for i in (1, 2):
        for t in ((-3, -1), (-4, -2), (1, -3)):
            lhs = coh_action(x3, i, (t[0] + 1, t[1] + 1)) @ coh_action(x0, i, t)
            rhs = coh_action(x2, i, (t[0] + 1, t[1] + 1)) @ coh_action(x1, i, t)
            assert lhs == rhs


def test_split_dim_examples():
    # 4 O(-1) shifted by (1,0): no sections
    assert split_dim(0, ((-1, -1),) * 4, (1, 0)) == 0
    # 2 Sigma2 + 2 Sigma1 at shift 0: 8 sections
    assert split_dim(0, ((0, 1), (0, 1), (1, 0), (1, 0)), (0, 0)) == 8


def test_form_matrix_rejects_bad_degree():
    # slot needs bidegree (1,0) but the entry is a (0,1)-form
    with pytest.raises(MalformedMatrix):
        FormMatrix.make(F, ((0, 0),), ((1, 0),), [[bf("u")]])
    # a nonzero form cannot even be built at a bidegree with a negative part
    with pytest.raises(ValueError):
        BiForm.make(F, (-1, 1), {(0, 0): 1})


def test_form_matrix_compose_and_dual():
    g = gamma_matrix([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]])
    ident = FormMatrix.identity(F, ((-1, 0), (-1, 0)))
    assert g.compose(ident).entries == g.entries
    d = g.dual()
    assert d.src == ((0, 0),) and d.dst == ((1, 0), (1, 0))
    assert d.entries[0][0].coeffs == g.entries[0][0].coeffs


def test_induced_h_functorial():
    # H0-level composition of [s,t] after the Koszul inclusion [-t, s]^T is zero
    g = gamma_matrix([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]])
    inc = gamma_matrix([(-2, 0)], [(-1, 0), (-1, 0)], [["0-t"], ["s"]])
    comp = g.compose(inc)
    assert comp.is_zero()
    for e in [(2, 1), (3, 3)]:
        lhs = induced_h(g, 0, e) @ induced_h(inc, 0, e)
        assert np.all(lhs.a == 0)


def test_sheaf_surjective_koszul_pair():
    g = gamma_matrix([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]])
    assert sheaf_surjective(g).surjective


def test_sheaf_surjective_single_section_fails():
    g = gamma_matrix([(-1, 0)], [(0, 0)], [["s"]])
    assert not sheaf_surjective(g).surjective


def test_sheaf_surjective_example2_matrix():
    src = [(0, 1), (0, 1), (1, 0), (1, 0)]
    dst = [(1, 1), (1, 1)]
    g = gamma_matrix(src, dst, [["s", "t", "u", "v"], ["0-t", "s-2*t", "v", "0"]])
    assert sheaf_surjective(g).surjective


def test_euler_char():
    assert euler_char(((0, 0),)) == 1
    assert euler_char(((-1, -1),)) == 0
    lhs = euler_char(((0, 1), (0, 1), (1, 0), (1, 0)))
    rhs = euler_char(((1, 1), (1, 1)))
    assert lhs - rhs == 0
