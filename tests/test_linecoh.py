import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhorrocks.exactla import DEFAULT_PRIME, Matrix, PrimeField, RationalField
from qhorrocks.bipoly import BiForm, monomial_basis, parse_biform
from qhorrocks.linecoh import (
    FormMatrix,
    MalformedMatrix,
    coh_action,
    coh_basis,
    constant_pairing,
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


# ---------------------------------------------------------------------------
# the section layout of form matrices and the constant pairing, over F_32003, F_5 and Q

FIELDS = st.sampled_from([F, PrimeField(5), RationalField()])
TWISTS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
BUNDLES = st.lists(TWISTS, max_size=3).map(tuple)
LAYOUT = settings(max_examples=60, deadline=None)


def neg(t):
    return (-t[0], -t[1])


def draw_vector(data, field, n):
    return field.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))


def draw_form_matrix(data, field, src, dst):
    rows = []
    for d in dst:
        row = []
        for s in src:
            deg = (d[0] - s[0], d[1] - s[1])
            coeffs = {m: data.draw(st.integers(-3, 3)) for m in monomial_basis(deg)}
            row.append(BiForm.make(field, deg, coeffs))
        rows.append(row)
    return FormMatrix.make(field, src, dst, rows)


@LAYOUT
@given(st.data())
def test_from_sections_and_section_are_inverse(data):
    field, src, dst = data.draw(FIELDS), data.draw(BUNDLES), data.draw(BUNDLES)
    sections = [draw_vector(data, field, split_dim(0, dst, neg(t))) for t in src]
    m = FormMatrix.from_sections(field, src, dst, sections)
    assert (m.src, m.dst) == (src, dst)
    for j, vec in enumerate(sections):
        assert m.section(j).tolist() == vec.tolist()
    forms = draw_form_matrix(data, field, src, dst)
    again = FormMatrix.from_sections(field, src, dst, [forms.section(j) for j in range(len(src))])
    assert again.entries == forms.entries


@LAYOUT
@given(st.data())
def test_section_layout_is_the_h0_layout_of_induced_h(data):
    field, src, dst, e = data.draw(FIELDS), data.draw(BUNDLES), data.draw(BUNDLES), data.draw(TWISTS)
    m = draw_form_matrix(data, field, src, dst)
    x = draw_vector(data, field, split_dim(0, src, e))
    column = FormMatrix.from_sections(field, (neg(e),), m.src, [x])
    assert (induced_h(m, 0, e) @ x).tolist() == m.compose(column).section(0).tolist()


@LAYOUT
@given(st.data())
def test_constant_pairing_is_the_composite(data):
    field, t = data.draw(FIELDS), data.draw(TWISTS)
    s = data.draw(BUNDLES) + ((t,) if data.draw(st.booleans()) else ())
    dual = tuple(neg(a) for a in s)
    ns, nc = split_dim(0, s, neg(t)), split_dim(0, dual, t)
    sections = Matrix.from_columns(
        field, [draw_vector(data, field, ns) for _ in range(data.draw(st.integers(0, 3)))], rows_dim=ns
    )
    cosections = Matrix.from_columns(
        field, [draw_vector(data, field, nc) for _ in range(data.draw(st.integers(0, 3)))], rows_dim=nc
    )
    got = constant_pairing(s, t, sections, cosections)
    assert (got.rows, got.cols) == (sections.cols, cosections.cols)
    for i, svec in enumerate(sections.columns()):
        phi = FormMatrix.from_sections(field, (t,), s, [svec])
        for j, cvec in enumerate(cosections.columns()):
            pi = FormMatrix.from_sections(field, (neg(t),), dual, [cvec]).dual()
            assert got.a[i, j] == pi.compose(phi).entries[0][0].constant_value()
