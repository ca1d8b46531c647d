import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhorrocks import exactla
from qhorrocks.exactla import (
    DEFAULT_PRIME,
    Matrix,
    PrimeField,
    RationalField,
    hstack,
    span_basis,
    subspace_equal,
    vstack,
)
from qhorrocks.bipoly import BiForm, monomial_basis, parse_biform
from qhorrocks.fixtures import fixture_names, load_fixture
from qhorrocks.linecoh import (
    FormMatrix,
    form_hstack,
    form_vstack,
    euler_char,
    h0_mult_on_split,
    induced_h,
    is_acm_twist,
    kunneth_dim,
    spinor_shift,
    split_dim,
)
from qhorrocks.presheaf import (
    KerPresentation,
    MonadPresentation,
    NotSurjective,
    PrereqVanishingFailed,
    delta_matrix,
    find_acm_summand,
    hom_ker_to_line,
    hom_line_to_ker,
    lift_lambda,
    line_bundle_table,
    solve_form_system,
    strip_acm,
    summand_pairing,
    _split_off_unit,
)
from reference import form_add, form_compose, form_mul, form_scale, identity_form_matrix

F = PrimeField(DEFAULT_PRIME)


def gm(src, dst, rows_text, field=F):
    rows = []
    for i, row in enumerate(rows_text):
        r = []
        for j, cell in enumerate(row):
            want = (dst[i][0] - src[j][0], dst[i][1] - src[j][1])
            r.append(parse_biform(field, cell, want))
        rows.append(r)
    return FormMatrix.make(field, tuple(src), tuple(dst), rows)


def omega1():
    # kernel of [x0 x1 x2 x3]: 4 O(-1) -> O, the restricted cotangent bundle
    return KerPresentation(gm([(-1, -1)] * 4, [(0, 0)], [["x0", "x1", "x2", "x3"]]))


def o_minus_2_0():
    # kernel of [s t]: 2 O(-1,0) -> O, which is O(-2,0)
    return KerPresentation(gm([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]]))


def lepotier():
    src = [(0, 1), (0, 1), (1, 0), (1, 0)]
    dst = [(1, 1), (1, 1)]
    return KerPresentation(gm(src, dst, [["s", "t", "u", "v"], ["0-t", "s-2*t", "v", "0"]]))


def test_not_surjective_rejected():
    with pytest.raises(NotSurjective, match=r"dimension 1 at twist \(0, 0\)$"):
        KerPresentation(gm([(-1, 0)], [(0, 0)], [["s"]]))


def test_empty_source_onto_a_nonzero_target_rejected():
    # 0 -> O has cokernel O, so it presents no bundle
    with pytest.raises(NotSurjective, match=r"dimension 1 at twist \(0, 0\)$"):
        KerPresentation(FormMatrix.zero(F, (), ((0, 0),)))


def test_omega1_h1_model_dims():
    p = omega1()
    assert p.gamma_form
    assert p.h1_model((0, 0)).dim == 1
    assert p.h1_model((1, 1)).dim == 0
    # no sections of the target at strongly negative shifts
    assert p.h1_model((-1, -1)).dim == 0


def test_omega1_h1_model_via_independent_rank():
    # independent oracle: the 9x16 multiplication matrix at shift (1,1) built
    # from raw monomial dictionaries, rank computed by the generic kernel
    p = omega1()
    mono_srcs = [(i, j) for i in (1, 0) for j in (1, 0)]  # su, sv, tu, tv exponents
    basis_src = [(i, j) for i in (1, 0) for j in (1, 0)]
    # H0(4 O(-1)(1,1)) has the four (0,0)-pieces; H0(O(1,1)) is 4-dim; at shift
    # (1,1) the map sends the g-th unit to the g-th coordinate monomial
    m = induced_h(p.g, 0, (1, 1))
    assert m.rows == 4 and m.cols == 4 and m.rank() == 4
    m2 = induced_h(p.g, 0, (2, 2))
    assert m2.rows == 9 and m2.cols == 16 and m2.rank() == 9


def test_omega1_h2_vanishes():
    p = omega1()
    assert p.h2_dim((0, 0)) == 0
    assert p.h2_model((0, 0)).cols == 0


def test_h0_of_free_presentation_is_identity_kernel():
    # B empty: E = A itself
    g = FormMatrix.zero(F, ((0, 0), (-1, -1)), ())
    p = KerPresentation(g)
    assert p.h0_dim((0, 0)) == 1
    # after the shift (1,1): h0(O(1,1)) = 4 and h0(O(0,0)) = 1
    assert p.h0_dim((1, 1)) == kunneth_dim(0, (1, 1)) + kunneth_dim(0, (0, 0))


def test_euler_check_everywhere():
    for pres in (omega1(), o_minus_2_0(), lepotier()):
        for d in range(-3, 4):
            for e in ((d, d), (d + 1, d), (d, d + 1)):
                h0, h1, h2 = pres.dims_at(e)
                chi = euler_char(tuple((a + e[0], b + e[1]) for a, b in pres.A))
                chi -= euler_char(tuple((a + e[0], b + e[1]) for a, b in pres.B))
                assert h0 - h1 + h2 == chi


def test_o20_table_matches_line_bundle():
    p = o_minus_2_0()
    assert p.table(-4, 4) == line_bundle_table((-2, 0), -4, 4)


@pytest.mark.parametrize("field", [F, RationalField()], ids=["p=32003", "Q"])
@pytest.mark.parametrize("name", fixture_names())
def test_fixture_tables_rank_every_section_matrix_structurally(monkeypatch, field, name):
    # every section matrix of these tables peels to nothing: no elimination
    pres = load_fixture(name, field)
    calls = []
    rref = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda f, a, **kw: calls.append(a.shape) or rref(f, a, **kw))
    pres.table(-7, 7)
    assert calls == []


def test_lepotier_stability_sections():
    p = lepotier()
    assert p.h0_dim((0, 0)) == 0
    assert p.h0_dim((1, -1)) == 0
    assert p.h0_dim((-1, 1)) == 0
    # chi forces six sections at (1,1) once h1 = h2 = 0 there
    assert p.dims_at((1, 1)) == (6, 0, 0)


def test_lepotier_module_dims():
    p = lepotier()
    assert p.h1_dim((-1, -1)) == 2
    assert all(p.h1_dim((d, d)) == 0 for d in (-3, -2, 0, 1, 2))
    assert p.h1_diagonal_support() == (-1, -1)


def test_mult_model_functorial():
    p = omega1()
    s = parse_biform(F, "s")
    u = parse_biform(F, "u")
    su = parse_biform(F, "s*u")
    lhs = p.mult_model(u, (1, 0)) @ p.mult_model(s, (0, 0))
    assert lhs == p.mult_model(su, (0, 0))


def test_mult_model_zero_into_zero_target():
    p = omega1()
    x0 = parse_biform(F, "x0")
    m = p.mult_model(x0, (0, 0))
    assert m.rows == 0 and m.cols == 1


def test_solve_form_system_identity():
    ident = identity_form_matrix(F, ((0, 0), (-1, -1)))
    wt = gm([(-1, -1), (-2, -2)], [(0, 0), (-1, -1)], [["x0", "x0*x3"], ["1", "x1"]])
    x = solve_form_system(ident, wt)
    assert ident.compose(x).entries == wt.entries


def test_solve_form_system_koszul_divisibility():
    # U = [u, v]: 2 O -> O(0,1); Wt = [u*v]: O(0,-1) -> O(0,1)
    u_mat = gm([(0, 0), (0, 0)], [(0, 1)], [["u", "v"]])
    wt = gm([(0, -1)], [(0, 1)], [["u*v"]])
    x = solve_form_system(u_mat, wt)
    assert u_mat.compose(x).entries == wt.entries


def test_solve_form_system_no_solution():
    u_mat = gm([(-1, 0)], [(0, 0)], [["s"]])
    wt = gm([(-1, -1)], [(0, 0)], [["x3"]])  # tv is not a multiple of s
    from qhorrocks.exactla import NoSolution

    with pytest.raises(NoSolution):
        solve_form_system(u_mat, wt)


def test_lift_lambda_identity_case():
    p = o_minus_2_0()
    lam = lift_lambda(p.g, p)
    assert p.g.compose(lam).entries == p.g.entries


def test_lift_lambda_omega1_to_o20():
    # lift the minimal free presentation of k through the [s,t] presentation:
    # columns pair u,v against the generators, as in the direct check
    psi = omega1().g
    gamma = o_minus_2_0()
    lam = lift_lambda(psi, gamma)
    assert gamma.g.compose(lam).entries == psi.entries


def test_hom_spaces_and_pairing_detect_constructed_summand():
    # append an O summand with zero column: E' = E + O
    base = o_minus_2_0()
    src = list(base.A) + [(0, 0)]
    g2 = gm(src, [(0, 0)], [["s", "t", "0"]])
    p = KerPresentation(g2)
    pairing, phis, pis = summand_pairing(p, (0, 0))
    assert not pairing.is_zero()
    found = find_acm_summand(p)
    assert found is not None and found[0] == (0, 0)


def test_pairing_zero_for_stable_bundle():
    p = lepotier()
    for tw in ((0, 0), (1, 0), (0, 1), (1, 1), (-1, -1), (0, -1), (-1, 0)):
        pairing, _, _ = summand_pairing(p, tw)
        assert pairing.is_zero()


def test_strip_acm_removes_padded_line_bundles():
    base = lepotier()
    lo, hi = -3, 3
    want = base.table(lo, hi)
    for extra in ((-1, -1), (1, 0), (-2, -1)):
        src = list(base.A) + [extra]
        g2 = form_hstack([base.g, FormMatrix.zero(F, (extra,), base.B)])
        padded = KerPresentation(g2, verify=False)
        stripped, removed = strip_acm(padded)
        assert removed == [extra]
        assert stripped.table(lo, hi) == want


def draw_mixed_pad(data, below=True):
    """A fixture E = ker g, an ACM twist l and E + O(l) presented by [g | g o h].

    l is a twist of A, or with below=True also one step below one.  h: O(l) -> A
    is drawn, so the pad column holds form multiples of the other columns:
    [g | 0] after an automorphism of the middle term.
    """
    field = data.draw(st.sampled_from([F, PrimeField(5), RationalField()]))
    base = load_fixture(data.draw(st.sampled_from(fixture_names())), field)
    steps = [(0, 0), (1, 0), (0, 1), (1, 1)] if below else [(0, 0)]
    twists = {(a[0] - d[0], a[1] - d[1]) for a in base.A for d in steps}
    l = data.draw(st.sampled_from(sorted(t for t in twists if is_acm_twist(t))))

    def forms(src, dst):
        deg = (dst[0] - src[0], dst[1] - src[1])
        return BiForm.make(field, deg, {m: data.draw(st.integers(-2, 2)) for m in monomial_basis(deg)})

    h = FormMatrix.make(field, (l,), base.A, [[forms(l, t)] for t in base.A])
    pad = form_compose(base.g, h)
    assume(not pad.is_zero())
    return base, l, h, form_hstack([base.g, pad]), forms


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_strip_acm_removes_a_pad_mixed_into_the_other_columns(data):
    base, l, _h, padded, _forms = draw_mixed_pad(data)
    stripped, removed = strip_acm(KerPresentation(padded, verify=False))
    assert removed == [l]
    assert stripped.table(-3, 3) == base.table(-3, 3)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_split_off_unit_subtracts_multiples_of_the_pivot_column(data):
    # find_acm_summand's retractions are unit coset vectors, one nonzero
    # entry each, so strip_acm never asks for a nonzero update; here
    # pi = (xi, 1 + xi o h) retracts onto phi = (-h, 1) for any xi: A -> O(l)
    base, l, h, padded, forms = draw_mixed_pad(data, below=False)
    field = padded.field
    xi = [forms(t, l) for t in base.A]
    assume(not all(f.is_zero() for f in xi))
    xi_h = form_compose(FormMatrix.make(field, base.A, (l,), [xi]), h).entries[0][0]
    pi_row = xi + [form_add(BiForm.constant(field, 1), xi_h)]
    minus = [form_scale(row[0], -1) for row in h.entries]
    phi = FormMatrix.make(field, (l,), padded.src, [[f] for f in minus] + [[BiForm.constant(field, 1)]])
    pi = FormMatrix.make(field, padded.src, (l,), [pi_row])
    assert form_compose(pi, phi).entries[0][0] == BiForm.constant(field, 1)
    j0 = next(j for j, t in enumerate(padded.src) if t == l and not pi_row[j].is_zero() and not phi.entries[j][0].is_zero())
    c = field.neg(field.inv(pi_row[j0].constant_value()))
    keep = [j for j in range(padded.cols) if j != j0]
    want = [
        [form_add(row[j], form_scale(form_mul(row[j0], pi_row[j]), c)) for j in keep] for row in padded.entries
    ]
    reduced = _split_off_unit(padded, l, phi, pi)
    assert reduced.entries == FormMatrix.make(field, tuple(padded.src[j] for j in keep), padded.dst, want).entries
    assert KerPresentation(reduced, verify=False).table(-3, 3) == base.table(-3, 3)


def test_strip_acm_keeps_stable_bundle():
    p = lepotier()
    stripped, removed = strip_acm(p)
    assert removed == []
    assert stripped is p


def test_strip_acm_on_free_bundle_strips_everything():
    g = FormMatrix.zero(F, ((0, 0), (1, 1)), ())
    p = KerPresentation(g)
    stripped, removed = strip_acm(p)
    assert sorted(removed) == [(0, 0), (1, 1)]
    assert stripped.rank == 0


def test_prereq_vanishing_guard():
    # A has a gap-2 twist after a spinor shift: the model must refuse
    src = [(-1, 0), (-1, 0), (0, -1)]
    g = gm(src, [(0, 0)], [["s", "t", "v"]])
    p = KerPresentation(g)
    with pytest.raises(PrereqVanishingFailed):
        p.h1_model((0, -1))  # O(0,-1)(0,-1) = O(0,-2) has H1
    # dims still available through the long exact sequence
    assert p.h1_dim((0, -1)) >= 0


def test_connecting_delta_on_omega1():
    # delta: H0(F x O(0,1)(1)) -> H1(F x O(1,0)) hits the full 2-dim piece
    p = omega1()
    sections, delta = delta_matrix(p, 2, -1)
    assert sections.cols == 2
    assert delta.rows == 2 and delta.rank() == 2


def _delta_column(p, j, w, d):
    """Reference: the connecting map on one section vector, chased on its own.

    Lift w over (f1, f2) through sections of 2 A(-d, -d), push into B and
    divide by the Koszul column (-f2, f1)^T; return H1 model coordinates.
    """
    e_mid = (-d, -d)
    e_dst = (-d, -d - 1) if j == 2 else (-d - 1, -d)
    f1, f2 = (BiForm.variable(p.field, v) for v in ("uv" if j == 2 else "st"))
    lifted = hstack([h0_mult_on_split(p.A, f1, e_mid), h0_mult_on_split(p.A, f2, e_mid)]).solve(w)
    n = split_dim(0, p.A, e_mid)
    g0 = induced_h(p.g, 0, e_mid)
    pushed = np.concatenate([g0 @ lifted[:n], g0 @ lifted[n:]])
    h = vstack([h0_mult_on_split(p.B, form_scale(f2, -1), e_dst), h0_mult_on_split(p.B, f1, e_dst)]).solve(pushed)
    return p.h1_model(e_dst).proj @ h


@pytest.mark.parametrize("field", [F, PrimeField(5), RationalField()], ids=lambda f: f.name)
@pytest.mark.parametrize("forms", [["x0", "x1", "x2", "x3"], ["x0", "x2", "x1", "x3"]], ids=["omega1", "mirror"])
@pytest.mark.parametrize("j", [1, 2])
def test_delta_matrix_matches_per_vector_chase(field, forms, j):
    # the mirror swaps s <-> u and t <-> v, which exchanges x1 and x2; at
    # d = -1 both H0(F x Sigma_j(-d)) and the target H1 are nonzero
    p = KerPresentation(gm([(-1, -1)] * 4, [(0, 0)], [forms], field=field))
    d = -1
    sections, delta = delta_matrix(p, j, d)
    e_src = (-d, -d + 1) if j == 2 else (-d + 1, -d)
    assert sections == p.h0_space(e_src) and sections.cols > 0
    assert delta.cols == sections.cols and not delta.is_zero()
    for k in range(sections.cols):
        assert list(delta.col(k)) == list(_delta_column(p, j, sections.col(k), d))


def test_image_h1_split_mirror_case():
    # K = O(-1,-2) into the omega1 presentation: the onechase column spans a
    # 1-dim subspace of the 2-dim degree-0 spinor piece
    p = omega1()
    sections, delta = delta_matrix(p, 2, -1)
    # build kappa from the first section
    kappa = FormMatrix.from_sections(F, ((-1, -2),), p.A, [sections.col(0)])
    images = MonadPresentation(kappa, p.g, verify=False).h1k_map(spinor_shift(1, 0))
    assert images.rows == 2 and images.cols == 1 and images.rank() == 1


def test_monad_degenerate_equals_kernel():
    p = omega1()
    kappa = FormMatrix.zero(F, (), p.A)
    monad = MonadPresentation(kappa, p.g)
    for d in range(-2, 3):
        for e in ((d, d), (d + 1, d), (d, d + 1)):
            assert monad.dims_at(e) == p.dims_at(e)


@pytest.mark.parametrize("column", [["s*u", "s*v"], ["s*u", "t*v"]], ids=["line s=0", "two points"])
def test_monad_rejects_kappa_degenerate_off_the_sampled_torus(column):
    # kappa: O(-1,-1) -> 2 O drops rank on the line s = 0, or at the two
    # points where su = tv = 0; neither meets a point with all four
    # coordinates nonzero, so only the exact test sees it
    kappa = gm([(-1, -1)], [(0, 0), (0, 0)], [[column[0]], [column[1]]])
    psi = FormMatrix.zero(F, kappa.dst, ())
    with pytest.raises(ValueError, match=r"kappa drops rank: .* at twist \(0, 0\)$"):
        MonadPresentation(kappa, psi)


def test_monad_degenerate_agrees_on_random_presentations():
    # a monad with no differential is its own kernel presentation
    rng = random.Random(42)
    done = 0
    while done < 20:
        base = rng.choice((0, 1))
        dst = tuple((base, base) for _ in range(rng.choice((1, 2))))
        cands = [(base - 1, base), (base, base - 1), (base - 1, base - 1), (base - 2, base - 2)]
        src = tuple(rng.choice(cands) for _ in range(len(dst) + rng.randrange(1, 3)))
        rows = []
        for i in range(len(dst)):
            row = []
            for j in range(len(src)):
                want = (dst[i][0] - src[j][0], dst[i][1] - src[j][1])
                row.append(BiForm.make(F, want, {m: rng.randrange(F.p) for m in monomial_basis(want)}))
            rows.append(row)
        g = FormMatrix.make(F, src, dst, rows)
        from qhorrocks.linecoh import sheaf_surjective

        if not sheaf_surjective(g).surjective:
            continue
        p = KerPresentation(g, verify=False)
        monad = MonadPresentation(FormMatrix.zero(F, (), src), g)
        for d in range(-2, 2):
            for e in ((d, d), (d + 1, d), (d, d + 1)):
                assert monad.dims_at(e) == p.dims_at(e)
        done += 1


def test_monad_rejects_nonchain():
    g = omega1().g
    kappa = gm([(-2, -2)], [(-1, -1)] * 4, [["x0"], ["0"], ["0"], ["0"]])
    with pytest.raises(ValueError):
        MonadPresentation(kappa, g)


def test_serre_duality_between_presentation_and_dual_monad():
    # h^i of the kernel bundle against h^(2-i) of its dual, realised as the
    # middle homology of the dual complex: two independent code paths
    for make in (omega1, o_minus_2_0, lepotier):
        p = make()
        a_dual = tuple((-a, -b) for (a, b) in p.A)
        dual = MonadPresentation(p.g.dual(), FormMatrix.zero(F, a_dual, ()), verify=False)
        for d in range(-3, 4):
            for e in ((d, d), (d + 1, d), (d, d + 1)):
                se = (-2 - e[0], -2 - e[1])
                assert p.h0_dim(e) == dual.h2_dim(se)
                assert p.h1_dim(e) == dual.h1_dim(se)
                assert p.h2_dim(e) == dual.h0_dim(se)
