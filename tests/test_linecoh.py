import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhorrocks import exactla, linecoh
from qhorrocks.exactla import DEFAULT_PRIME, Matrix, PrimeField, RationalField
from qhorrocks.bipoly import BiForm, monomial_basis, parse_biform
from qhorrocks.linecoh import (
    FormMatrix,
    InternalInvariantViolation,
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
    split_dims,
    split_h,
    spinor_kind,
)
from qhorrocks.fixtures import fixture_names, load_fixture
from reference import form_add, form_compose, form_mul, form_scale, identity_form_matrix, twisted

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
    ident = identity_form_matrix(F, ((-1, 0), (-1, 0)))
    assert ident.entries == ((bf("1"), bf("0", (0, 0))), (bf("0", (0, 0)), bf("1")))
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
    # [s]: O(-1,0) -> O; one source summand against one target gives no
    # Buchsbaum-Rim terms, so the globally generated twist (0,0) decides
    g = gamma_matrix([(-1, 0)], [(0, 0)], [["s"]])
    rep = sheaf_surjective(g)
    assert (rep.surjective, rep.twist, rep.coker_dim) == (False, (0, 0), 1)


def count_ranks(monkeypatch) -> list:
    calls = []
    rank = exactla._rank

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return rank(*args, **kwargs)

    monkeypatch.setattr(exactla, "_rank", counting)
    return calls


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sheaf_surjective_accepts_deep_koszul_pairs(monkeypatch, k):
    # (s^k, t^k): 2 O(-k,0) -> O is onto; a window starting one above the
    # target twist, blind to the source twists, rejected it for k = 3 and 4.
    # The sections first cover O(a, 0) at a = 2k-1, which is also the first
    # twist with as many source sections as target ones, so the walk skips
    # every twist before it and computes one rank.
    g = gamma_matrix([(-k, 0), (-k, 0)], [(0, 0)], [[f"s^{k}", f"t^{k}"]])
    calls = count_ranks(monkeypatch)
    rep = sheaf_surjective(g)
    assert (rep.surjective, rep.twist, rep.coker_dim) == (True, (2 * k - 1, 0), 0)
    assert len(calls) == 1


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


def test_euler_char_of_a_twist_is_that_of_the_twisted_summands():
    s = ((0, 1), (-3, 2), (1, -4))
    for e in ((0, 0), (2, -1), (-5, 3)):
        assert euler_char(s, e) == euler_char(tuple((a + e[0], b + e[1]) for a, b in s))


TWISTS = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=200, deadline=None)
@given(st.lists(TWISTS, max_size=6).map(tuple), TWISTS, st.integers(-1, 3))
def test_split_h_counts_the_monomials_of_every_summand(s, e, i):
    # coh_basis lists the monomials of H^i(O(t)); __wrapped__ skips its cache,
    # which these twists would fill with tens of thousands of entries
    shifted = [(a + e[0], b + e[1]) for a, b in s]
    counts = [len(coh_basis.__wrapped__(i, t).monomials) for t in shifted]
    assert [kunneth_dim(i, t) for t in shifted] == counts
    assert split_dims(i, s, e) == counts
    assert split_dim(i, s, e) == sum(counts)
    h = split_h(s, e)
    assert (h[i] if 0 <= i <= 2 else 0) == sum(counts)
    assert h[0] - h[1] + h[2] == euler_char(s, e)
    # Serre duality with the canonical bundle O(-2, -2)
    dual = tuple((-a - 2, -b - 2) for a, b in shifted)
    assert split_h(dual, (0, 0)) == h[::-1]


def test_coh_basis_checks_its_monomial_count_against_kunneth(monkeypatch):
    monkeypatch.setattr(linecoh, "kunneth_dim", lambda i, t: 7)
    with pytest.raises(InternalInvariantViolation, match=r"^H0 of O\(1, 1\) has 4 monomials"):
        coh_basis.__wrapped__(0, (1, 1))


def test_coh_basis_check_survives_python_dash_o():
    code = (
        "from qhorrocks import linecoh\n"
        "linecoh.kunneth_dim = lambda i, t: 7\n"
        "try:\n"
        "    linecoh.coh_basis.__wrapped__(0, (1, 1))\n"
        "except linecoh.InternalInvariantViolation:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "raised\n", "")


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


def draw_form_matrix(data, field, src, dst, zero_slots=False):
    rows = []
    for d in dst:
        row = []
        for s in src:
            deg = (d[0] - s[0], d[1] - s[1])
            if zero_slots and data.draw(st.booleans()):
                deg_basis = ()
            else:
                deg_basis = monomial_basis(deg)
            coeffs = {m: data.draw(st.integers(-3, 3)) for m in deg_basis}
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


# the product of form matrices, against the coefficient-dict reference product

PRODUCT_FIELDS = st.sampled_from([PrimeField(2), PrimeField(5), F, RationalField()])


def with_repeats(data, bundle):
    """bundle with some of its twists repeated, in a drawn order."""
    extra = data.draw(st.lists(st.sampled_from(bundle), max_size=3)) if bundle else []
    return tuple(data.draw(st.permutations(list(bundle) + extra)))


@LAYOUT
@given(st.data())
def test_section_layout_is_the_h0_layout_of_induced_h(data):
    field, src, dst, e = data.draw(PRODUCT_FIELDS), data.draw(BUNDLES), data.draw(BUNDLES), data.draw(TWISTS)
    m = draw_form_matrix(data, field, src, dst, zero_slots=True)
    x = draw_vector(data, field, split_dim(0, src, e))
    column = FormMatrix.from_sections(field, (neg(e),), m.src, [x])
    assert (induced_h(m, 0, e) @ x).tolist() == form_compose(m, column).section(0).tolist()


@LAYOUT
@given(st.data())
def test_compose_is_the_reference_product(data):
    field = data.draw(PRODUCT_FIELDS)
    src, mid, dst = with_repeats(data, data.draw(BUNDLES)), data.draw(BUNDLES), data.draw(BUNDLES)
    m = draw_form_matrix(data, field, mid, dst, zero_slots=True)
    n = draw_form_matrix(data, field, src, mid, zero_slots=True)
    got = m.compose(n)
    assert (got.src, got.dst) == (src, dst)
    assert got.entries == form_compose(m, n).entries


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), F, RationalField()], ids=lambda f: f.name)
@pytest.mark.parametrize(
    "src, mid, dst",
    [
        ((), ((0, 0), (-1, 0)), ((1, 1),)),  # empty source
        (((-1, -1), (-1, -1)), (), ((0, 0),)),  # empty middle: the zero map
        (((-1, -1),), ((0, 0),), ()),  # empty target
        # repeated source twists, and zero slots where (0,1) meets (2,0)
        (((-1, 0), (-2, -1), (-1, 0), (-2, -1)), ((0, 0), (0, 1)), ((1, 1), (2, 0))),
    ],
)
def test_compose_edge_shapes(field, src, mid, dst):
    def full(s_, d_, k):
        rows = []
        for i, d in enumerate(d_):
            row = []
            for j, s in enumerate(s_):
                deg = (d[0] - s[0], d[1] - s[1])
                basis = monomial_basis(deg)
                row.append(BiForm.make(field, deg, {m: 1 + (i + 2 * j + k + q) % 3 for q, m in enumerate(basis)}))
            rows.append(row)
        return FormMatrix.make(field, s_, d_, rows)

    m, n = full(mid, dst, 0), full(src, mid, 1)
    got = m.compose(n)
    assert (got.src, got.dst) == (src, dst)
    assert got.entries == form_compose(m, n).entries
    if not mid:
        assert got.is_zero()


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


# ---------------------------------------------------------------------------
# sheaf surjectivity, over F_5, F_32003 and Q

SURJ = settings(max_examples=25, deadline=None)


def koszul_row_blocks(data, field):
    """Rows into O with no common zero: (s^k, t^k), (u^k, v^k) or (su, sv, tu, tv)."""
    rows = []
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["st", "uv", "mixed"]))
        k = data.draw(st.integers(1, 2))
        if kind == "st":
            rows.append([BiForm.make(field, (k, 0), {(k, 0): 1}), BiForm.make(field, (k, 0), {(0, 0): 1})])
        elif kind == "uv":
            rows.append([BiForm.make(field, (0, k), {(0, k): 1}), BiForm.make(field, (0, k), {(0, 0): 1})])
        else:
            rows.append([BiForm.make(field, (1, 1), {m: 1}) for m in ((1, 1), (1, 0), (0, 1), (0, 0))])
    return rows


def draw_koszul_surjection(data, field):
    """A block-diagonal Koszul-type surjection onto n O, mixed by an invertible constant matrix, then twisted."""
    blocks = koszul_row_blocks(data, field)
    n = len(blocks)
    src = tuple((-f.deg[0], -f.deg[1]) for row in blocks for f in row)
    dst = ((0, 0),) * n
    zero = [BiForm.zero(field, (-t[0], -t[1])) for t in src]
    diag, c0 = [], 0
    for row in blocks:
        diag.append(zero[:c0] + row + zero[c0 + len(row) :])
        c0 += len(row)
    p = Matrix.make(field, [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)])
    assume(p.rank() == n)
    rows = []
    for i in range(n):
        row = []
        for j in range(len(src)):
            acc = zero[j]
            for k in range(n):
                acc = form_add(acc, form_scale(diag[k][j], p.a[i, k]))
            row.append(acc)
        rows.append(row)
    return twisted(FormMatrix.make(field, src, dst, rows), data.draw(TWISTS))


@SURJ
@given(st.data())
def test_koszul_surjections_are_accepted(data):
    g = draw_koszul_surjection(data, data.draw(FIELDS))
    rep = sheaf_surjective(g)
    assert rep.surjective and rep.coker_dim == 0


@SURJ
@given(st.data())
def test_a_common_linear_factor_in_one_row_is_rejected(data):
    field = data.draw(FIELDS)
    g = draw_koszul_surjection(data, field)
    i = data.draw(st.integers(0, g.rows - 1))
    side = data.draw(st.sampled_from([(1, 0), (0, 1)]))
    coeffs = {m: data.draw(st.integers(-2, 2)) for m in monomial_basis(side)}
    assume(any(field.scalar(c) != 0 for c in coeffs.values()))
    form = BiForm.make(field, side, coeffs)
    rows = [tuple(form_mul(f, form) for f in row) if r == i else row for r, row in enumerate(g.entries)]
    dst = tuple((t[0] + side[0], t[1] + side[1]) if r == i else t for r, t in enumerate(g.dst))
    rep = sheaf_surjective(FormMatrix(field, g.src, dst, tuple(rows)))
    assert not rep.surjective and rep.coker_dim > 0


@SURJ
@given(st.data())
def test_onto_at_a_twist_stays_onto_one_step_up(data):
    g = draw_koszul_surjection(data, data.draw(FIELDS))
    rep = sheaf_surjective(g)
    for step in ((1, 0), (0, 1)):
        mat = induced_h(g, 0, (rep.twist[0] + step[0], rep.twist[1] + step[1]))
        assert mat.rank() == mat.rows


@SURJ
@given(st.data())
def test_a_vanishing_first_window_of_sixteen_twists_is_accepted(data):
    # the old test's first window: twists (lo..lo+3)^2 with lo one above the
    # largest target twist; all sixteen cokernels zero proves onto
    field = data.draw(FIELDS)
    dst = tuple(data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=2)))
    twists = st.tuples(st.integers(-1, 0), st.integers(-1, 0))
    src = tuple(data.draw(st.lists(twists, min_size=len(dst) + 1, max_size=len(dst) + 3)))
    g = draw_form_matrix(data, field, src, dst)
    lo = 1 + max(max(t) for t in dst)
    window = [(a, b) for a in range(lo, lo + 4) for b in range(lo, lo + 4)]
    if all(induced_h(g, 0, e).rank() == split_dim(0, dst, e) for e in window):
        assert sheaf_surjective(g).surjective


@pytest.mark.parametrize("field", [F, RationalField()], ids=["p=32003", "Q"])
@pytest.mark.parametrize("name", fixture_names())
def test_sheaf_surjective_decides_fixtures_in_two_eliminations(monkeypatch, field, name):
    g = load_fixture(name, field).g
    calls = count_ranks(monkeypatch)
    assert sheaf_surjective(g).surjective
    assert len(calls) <= 2
