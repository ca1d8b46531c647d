import functools
import random
from pathlib import Path

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
    split_h,
)
from qhorrocks.presheaf import (
    InternalInvariantViolation,
    KerPresentation,
    MonadPresentation,
    NotGammaForm,
    NotSurjective,
    PrereqVanishingFailed,
    delta_matrix,
    find_acm_summand,
    line_bundle_table,
    solve_form_system,
    strip_acm,
    _split_off_unit,
)
from qhorrocks import presheaf, textio
from qhorrocks.generate import random_triple
from qhorrocks.horrocks import synthesize
from reference import (
    eliminated_dims,
    eliminated_table,
    fiberwise_injective_by_entries,
    find_acm_summand_ungated,
    h2_kappa_injective_scan,
    form_add,
    form_compose,
    form_mul,
    form_scale,
    h1k_map_by_columns,
    identity_form_matrix,
    lift_lambda,
    monad_h1_h2_by_h2_model,
    summand_pairing,
    table_by_parts,
)

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
    assert induced_h(p.g, 2, (0, 0)).kernel_matrix().cols == 0


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


def test_empty_read_outs_make_no_elimination(monkeypatch):
    # the rank of the section matrix says the space is zero, so no RREF runs
    p = omega1()
    assert p.h1_model((0, 0)).dim == 1
    calls = []
    rref = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda f, a, **kw: calls.append(a.shape) or rref(f, a, **kw))
    assert p.h1_model((1, 1)).dim == 0 and p.h1_model((1, 1)).proj.a.shape == (0, 4)
    assert p.h0_space((1, 1)).a.shape == (4, 0)
    assert p.mult_model(parse_biform(F, "x0"), (0, 0)).a.shape == (0, 1)
    assert calls == []


def test_mult_model_checks_the_target_model_before_its_dimension():
    # E = O(-2,0) has no H1 at (1,-2), but A(1,-2) = 2 O(0,-2) does, so the
    # target has no coker model there; the source at (0,-2) has one
    p = o_minus_2_0()
    assert p.h1_dim((1, -2)) == 0
    assert p.h1_model((0, -2)).dim == 0
    with pytest.raises(PrereqVanishingFailed, match=r"shift \(1, -2\)$"):
        p.mult_model(parse_biform(F, "s"), (0, -2))


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


def draw_mixed_pad(data, below=True, fields=(F, PrimeField(5), RationalField())):
    """A fixture E = ker g, an ACM twist l and E + O(l) presented by [g | g o h].

    l is a twist of A, or with below=True also one step below one.  h: O(l) -> A
    is drawn, so the pad column holds form multiples of the other columns:
    [g | 0] after an automorphism of the middle term.
    """
    field = data.draw(st.sampled_from(fields))
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_find_acm_summand_matches_the_ungated_scan(data):
    # the rank gates skip only twists where the pairing is empty, so the
    # gated search returns the scan's twist, section and retraction
    kind = data.draw(st.sampled_from(["zero", "mixed"]))
    fields = (PrimeField(2), PrimeField(5), F, RationalField())
    if kind == "mixed":
        _base, _l, _h, g, _forms = draw_mixed_pad(data, fields=fields)
    else:
        base = load_fixture(data.draw(st.sampled_from(fixture_names())), data.draw(st.sampled_from(fields)))
        twists = {(a[0] - d[0], a[1] - d[1]) for a in base.A for d in ((0, 0), (1, 0), (0, 1), (1, 1))}
        l = data.draw(st.sampled_from(sorted(t for t in twists if is_acm_twist(t))))
        g = form_hstack([base.g, FormMatrix.zero(base.field, (l,), base.B)])
    found = find_acm_summand(KerPresentation(g, verify=False))
    assert found is not None
    assert found == find_acm_summand_ungated(KerPresentation(g, verify=False))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), F, RationalField()], ids=lambda f: f.name)
def test_find_acm_summand_matches_the_ungated_scan_on_fixtures(field):
    for name in fixture_names():
        found = find_acm_summand(load_fixture(name, field))
        assert found == find_acm_summand_ungated(load_fixture(name, field)), name


def test_find_acm_summand_builds_hom_bases_only_at_the_returned_twist(monkeypatch):
    built = []

    class Recording(FormMatrix):
        """FormMatrix whose from_sections records the source twists of each map it builds."""

        @staticmethod
        def from_sections(field, src, dst, sections):
            built.append(tuple(src))
            return FormMatrix.from_sections(field, src, dst, sections)

    monkeypatch.setattr(presheaf, "FormMatrix", Recording)
    assert find_acm_summand(lepotier()) is None
    assert built == []
    base = lepotier()
    padded = KerPresentation(form_hstack([base.g, FormMatrix.zero(F, ((1, 0),), base.B)]), verify=False)
    assert find_acm_summand(padded)[0] == (1, 0)
    # phi is built as a column O(1,0) -> A, pi as the dual of a column O(-1,0) -> A^v
    assert sorted(built) == [((-1, 0),), ((1, 0),)]


def test_find_acm_summand_checks_ext1_at_a_twist_without_sections():
    # E = ker [u^2, v^2] = O(1,0) and B = O(1,4).  At the first candidate
    # (1, 1), E(-1,-1) has no sections, but Ext^1(O(1,4), O(1,1)) =
    # H1(O(0,-3)) is nonzero, so the Hom model fails there
    p = KerPresentation(gm([(1, 2), (1, 2)], [(1, 4)], [["u^2", "v^2"]]))
    assert p.h0_dim((-1, -1)) == 0
    with pytest.raises(PrereqVanishingFailed, match=r"Ext\^1\(O\(1, 4\), O\(1, 1\)\) is nonzero"):
        find_acm_summand(p)


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


def test_strip_acm_refuses_a_monad_with_an_exit3_error():
    monad = textio.parse_bundle_text((CORPUS / "t00.monad").read_text())
    with pytest.raises(NotGammaForm, match="^summand stripping applies to gamma-form bundle files$") as info:
        strip_acm(monad)
    assert info.value.exit_code == 3


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


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "roundtrip"
CORPUS_MONADS = sorted(f.name for f in CORPUS.glob("*.monad"))
CORPUS_MONADS_WITH_K = sorted(
    f.name for f in CORPUS.glob("*.monad") if any(l.startswith("K: (") for l in f.read_text().splitlines())
)


def _assert_monad_h1_h2_match_the_h2_model_solve(monad, lo=-4, hi=4):
    for d in range(lo, hi + 1):
        for e in ((d, d), spinor_shift(1, d), spinor_shift(2, d)):
            assert (monad.h1_dim(e), monad.h2_dim(e)) == monad_h1_h2_by_h2_model(monad, e), e


@pytest.mark.parametrize("name", CORPUS_MONADS_WITH_K)
def test_monad_h1_h2_match_the_h2_model_solve_on_corpus_monads(name):
    monad = textio.parse_bundle_text((CORPUS / name).read_text())
    assert monad.K
    _assert_monad_h1_h2_match_the_h2_model_solve(monad)


def test_corpus_has_monads_with_k():
    assert len(CORPUS_MONADS_WITH_K) >= 20


@pytest.mark.parametrize("field", [PrimeField(5), RationalField()], ids=lambda f: f.name)
@pytest.mark.parametrize("dims", [{0: 2}, {0: 3}, {0: 2, 1: 1}], ids=str)
@pytest.mark.parametrize("seed", range(2))
def test_monad_h1_h2_match_the_h2_model_solve_on_synthesized_monads(field, dims, seed):
    rng = random.Random(seed)
    monad = synthesize(random_triple(field, rng, dims), rng=rng)
    assert monad.K
    _assert_monad_h1_h2_match_the_h2_model_solve(monad)


def test_monad_table_refuses_a_target_with_h1_where_h2_of_k_lives():
    # K = O -> 2 O(0,1) + O -> O(0,2) is the Koszul complex of (u, v) plus
    # an O, so E = O.  At (-3, -2), H2(K) = H2(O(-3,-2)) is nonzero and so
    # is H1(B) = H1(O(-3,0)): H2(ker psi) need not embed in H2(A) there
    a = [(0, 1), (0, 1), (0, 0)]
    monad = MonadPresentation(gm([(0, 0)], a, [["0-v"], ["u"], ["0"]]), gm(a, [(0, 2)], [["u", "v", "0"]]))
    assert monad.dims_at((0, 0)) == (1, 0, 0)
    with pytest.raises(PrereqVanishingFailed, match=r"H1 of the target is nonzero at shift \(-3, -2\)$"):
        monad.table(-4, 4)
    with pytest.raises(PrereqVanishingFailed, match=r"H1 of the target is nonzero at shift \(-2, -2\)$"):
        monad.h2_dim((-2, -2))
    with pytest.raises(PrereqVanishingFailed):
        monad_h1_h2_by_h2_model(monad, (-2, -2))


# forced ranks: H0 of an onto g at e >= c and its H2 everywhere, H0 of kappa,
# and H2 of kappa where -e - (2, 2) >= c', against every rank eliminated


def _certificate_windows(rep):
    """Windows of one to five degrees around c, and around where c' starts forcing H2(kappa)."""
    if isinstance(rep, MonadPresentation):
        c, dual = rep.fbar.onto, rep.dual_onto
        assert c.surjective and dual.surjective
        return [max(c.twist), -max(dual.twist) - 2]
    assert rep.onto.surjective
    return [max(rep.onto.twist)]


@functools.lru_cache(maxsize=None)
def _synthesized_monad(field, dims, seed):
    rng = random.Random(seed)
    return synthesize(random_triple(field, rng, dict(dims)), rng=rng)


ALL_FIELDS = [PrimeField(2), PrimeField(5), F, RationalField()]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tables_match_the_eliminated_reference_across_both_certificates(data):
    source = data.draw(st.sampled_from(["fixture", "corpus", "synthesized"]))
    if source == "fixture":
        rep = load_fixture(data.draw(st.sampled_from(fixture_names())), data.draw(st.sampled_from(ALL_FIELDS)))
    elif source == "corpus":
        rep = textio.parse_bundle_text((CORPUS / data.draw(st.sampled_from(CORPUS_MONADS))).read_text())
    else:
        field = data.draw(st.sampled_from([PrimeField(2), PrimeField(5), RationalField()]))
        dims = data.draw(st.sampled_from([((0, 2),), ((0, 2), (1, 1)), ((-1, 1), (0, 2))]))
        rep = _synthesized_monad(field, dims, data.draw(st.integers(0, 3)))
    centre = data.draw(st.sampled_from(_certificate_windows(rep)))
    lo, hi = centre - data.draw(st.integers(1, 2)), centre + data.draw(st.integers(0, 2))
    assert rep.table(lo, hi) == eliminated_table(rep, lo, hi)


@pytest.mark.parametrize("name", CORPUS_MONADS)
def test_corpus_monad_tables_match_the_eliminated_reference(name):
    monad = textio.parse_bundle_text((CORPUS / name).read_text())
    for centre in _certificate_windows(monad):
        assert monad.table(centre - 2, centre + 2) == eliminated_table(monad, centre - 2, centre + 2)


def test_unverified_map_that_is_not_onto_eliminates_every_rank():
    # [s]: O(-1,0) -> O misses the line s = 0, so no H0 rank is forced;
    # forcing one at (2, 2) would give h1 = 0 there, not h0(O_line(2, 2)) = 3
    p = KerPresentation(gm([(-1, 0)], [(0, 0)], [["s"]]), verify=False)
    assert not p.onto.surjective
    assert p.table(-4, 4) == eliminated_table(p, -4, 4)
    assert p.dims_at((2, 2))[1] == 3
    # the zero map O -> O is onto on no H2, and its dual is injective on no H0
    zero = KerPresentation(FormMatrix.zero(F, ((0, 0),), ((0, 0),)), verify=False)
    assert zero.table(-4, 4) == eliminated_table(zero, -4, 4)
    assert zero.h2_dim((-3, -3)) == 4 and zero.cosection_space((0, 0)).cols == 1


def test_unverified_monad_whose_kappa_drops_rank_eliminates_every_rank():
    # kappa = 0 on K = O(-1,-1) is not injective; forcing the H0 rank of
    # kappa at (1, 1) would subtract h0(K(1,1)) = 1 from h0
    p = omega1()
    monad = MonadPresentation(FormMatrix.zero(F, ((-1, -1),), p.A), p.g, verify=False)
    assert not monad.dual_onto.surjective
    for d in range(-4, 5):
        for e in ((d, d), spinor_shift(1, d), spinor_shift(2, d)):
            assert (monad.h0_dim(e), monad.h1_dim(e), monad.h2_dim(e)) == eliminated_dims(monad, e)
    assert monad.h0_dim((1, 1)) == p.h0_dim((1, 1))
    assert not monad.h2_kappa_injective() and not h2_kappa_injective_scan(monad)


# table_by_parts composes h0_dim, h1_dim and h2_dim per twist, each with its
# own split sums and ranks; dims_at takes one split_h pass per bundle, and must
# give the same tables and refusals with no more eliminations

NON_SPINOR_MONAD = (
    "field p=32003\nbundle monad\nK: (1,-2)\nA: (2,-1) (2,-1) (2,-1) (2,-1)\nB:\n"
    "kappa:\n[x0]\n[x1]\n[x2]\n[x3]\ng:\n"
)


def _not_onto(rep):
    """rep's map with a zero row onto an extra O appended, so its certificate says "not onto"."""
    return form_vstack([rep.g, FormMatrix.zero(rep.field, rep.A, ((0, 0),))])


def _table_input(source):
    kind, name, field = source
    if kind == "fixture":
        return load_fixture(name, field)
    if kind == "corpus":
        return textio.parse_bundle_text((CORPUS / name).read_text())
    if kind == "text":
        return textio.parse_bundle_text(name)
    if kind == "not-onto":
        return KerPresentation(_not_onto(load_fixture(name, field)), verify=False)
    if kind == "kappa-not-onto":
        # kappa = 0 on K = O(-1,-1) drops rank everywhere
        g = load_fixture(name, field).g
        return MonadPresentation(FormMatrix.zero(field, ((-1, -1),), g.src), g, verify=False)
    if kind == "psi-not-onto":
        psi = _not_onto(load_fixture(name, field))
        return MonadPresentation(FormMatrix.zero(field, ((-1, -1),), psi.src), psi, verify=False)
    if kind == "koszul-monad":
        a = [(0, 1), (0, 1), (0, 0)]
        return MonadPresentation(gm([(0, 0)], a, [["0-v"], ["u"], ["0"]]), gm(a, [(0, 2)], [["u", "v", "0"]]))
    assert kind == "line"
    return KerPresentation(gm([(-1, 0)], [(0, 0)], [["s"]]), verify=False)


TABLE_INPUTS = (
    [("fixture", name, field) for field in (F, PrimeField(5), RationalField()) for name in fixture_names()]
    + [("corpus", name, None) for name in CORPUS_MONADS]
    + [("not-onto", name, field) for field in (F, PrimeField(5)) for name in ("lepotier", "omega1")]
    + [("kappa-not-onto", "omega1", F), ("kappa-not-onto", "lepotier", PrimeField(5))]
    + [("psi-not-onto", "omega1", F), ("line", "s", F), ("text", NON_SPINOR_MONAD, None), ("koszul-monad", None, F)]
)


def _table(rep, lo, hi):
    return rep.table(lo, hi)


def _table_or_refusal(table, rep, lo=-8, hi=8):
    try:
        return table(rep, lo, hi)
    except (InternalInvariantViolation, PrereqVanishingFailed) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "source", TABLE_INPUTS, ids=lambda s: "-".join(str(x).split("\n")[0] for x in s if x is not None)
)
def test_single_pass_tables_match_the_by_parts_reference_with_no_more_eliminations(monkeypatch, source):
    mine, ref = _table_input(source), _table_input(source)
    calls, built = [], []
    for name in ("_rank", "_rref"):
        orig = getattr(exactla, name)
        monkeypatch.setattr(exactla, name, lambda *a, _o=orig, _n=name, **kw: calls.append(_n) or _o(*a, **kw))
    h_matrix = KerPresentation.h_matrix
    monkeypatch.setattr(KerPresentation, "h_matrix", lambda p, i, e: built.append((p, i, e)) or h_matrix(p, i, e))
    got = _table_or_refusal(_table, mine)
    mine_calls, mine_built, calls[:], built[:] = list(calls), list(built), [], []
    want = _table_or_refusal(table_by_parts, ref)
    assert got == want
    assert mine_calls or source[0] not in ("not-onto", "line")  # every rank eliminated, and the spy sees it
    for name in ("_rank", "_rref"):
        assert mine_calls.count(name) <= calls.count(name), name
    for p, i, e in mine_built:
        assert i != 1 or split_h(p.A, e)[1] or split_h(p.B, e)[1], e


def test_single_pass_table_inputs_cover_refusals_and_eliminated_ranks():
    inputs = {s[0]: _table_input(s) for s in TABLE_INPUTS[-10:]}
    assert not inputs["not-onto"].onto.surjective and not inputs["line"].onto.surjective
    assert all(isinstance(inputs[kind].table(-8, 8), dict) for kind in ("not-onto", "line"))
    # a monad is checked against chi, which a kappa or psi that is not onto breaks
    assert not inputs["kappa-not-onto"].dual_onto.surjective and inputs["kappa-not-onto"].fbar.onto.surjective
    assert not inputs["psi-not-onto"].fbar.onto.surjective
    for kind in ("kappa-not-onto", "psi-not-onto"):
        assert _table_or_refusal(_table, inputs[kind])[1].startswith("Euler characteristic mismatch at ")
    assert _table_or_refusal(_table, inputs["koszul-monad"]) == (
        PrereqVanishingFailed,
        "H1 of the target is nonzero at shift (-3, -2)",
    )
    assert _table_or_refusal(_table, inputs["text"], 0, 0) == (
        InternalInvariantViolation,
        "unsupported shift (0, 0) for summand (1, -2)",
    )
    assert _table_or_refusal(table_by_parts, inputs["text"], 0, 0) == _table_or_refusal(_table, inputs["text"], 0, 0)


@pytest.mark.parametrize("name", CORPUS_MONADS_WITH_K)
def test_h2_kappa_injective_skips_degrees_past_the_dual_certificate(monkeypatch, name):
    monad = textio.parse_bundle_text((CORPUS / name).read_text())
    c = monad.dual_onto.twist
    calls = []
    induced = presheaf.induced_h
    monkeypatch.setattr(presheaf, "induced_h", lambda m, i, e: calls.append(e) or induced(m, i, e))
    assert monad.h2_kappa_injective() and h2_kappa_injective_scan(monad)
    assert all(not (e[0] >= c[0] and e[1] >= c[1]) for e in calls)


def test_lepotier_wide_table_takes_forced_ranks_from_the_certificate(monkeypatch):
    p = load_fixture("lepotier", F)
    calls = []
    induced = presheaf.induced_h
    monkeypatch.setattr(presheaf, "induced_h", lambda m, i, e: calls.append((m, i, e)) or induced(m, i, e))
    table = p.table(-20, 20)
    c = p.onto.twist
    mine = [(i, e) for m, i, e in calls if m is p.g]
    assert mine and not [e for i, e in mine if i == 2]
    assert not [e for i, e in mine if i == 0 and e[0] >= c[0] and e[1] >= c[1]]
    assert table == eliminated_table(p, -20, 20)


# h1k_map runs delta_matrix's chase on the kappa columns.  The per-column
# form solve it replaced (reference.h1k_map_by_columns) extends each column
# by the Koszul inclusion instead, so every class comes out negated.


def _h1k_or_none(h1k, monad, e):
    """h1k(monad, e), or None where the coker model at e is refused."""
    try:
        return h1k(monad, e)
    except PrereqVanishingFailed:
        return None


def _assert_h1k_map_negates_the_column_chase(monad, lo=-6, hi=6) -> int:
    """Compare on every strip twist of [lo, hi]; returns how many matrices had entries."""
    nonempty = 0
    for d in range(lo, hi + 1):
        for e in ((d, d), spinor_shift(1, d), spinor_shift(2, d)):
            ours = _h1k_or_none(MonadPresentation.h1k_map, monad, e)
            ref = _h1k_or_none(h1k_map_by_columns, monad, e)
            if ours is None or ref is None:
                assert ours is None and ref is None, e
                continue
            assert ours == -ref, e
            nonempty += ours.rows > 0 and ours.cols > 0
    return nonempty


@pytest.mark.parametrize("name", CORPUS_MONADS)
def test_h1k_map_negates_the_column_chase_on_corpus_monads(name):
    monad = textio.parse_bundle_text((CORPUS / name).read_text())
    _assert_h1k_map_negates_the_column_chase(monad)


def test_h1k_map_column_chase_comparison_sees_nonzero_classes():
    total = sum(
        _assert_h1k_map_negates_the_column_chase(textio.parse_bundle_text((CORPUS / name).read_text()))
        for name in CORPUS_MONADS_WITH_K[:6]
    )
    assert total > 0


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_h1k_map_negates_the_column_chase_on_synthesized_monads(data):
    field = data.draw(st.sampled_from([PrimeField(2), PrimeField(5), RationalField()]))
    dims = data.draw(st.sampled_from([((0, 2),), ((0, 2), (1, 1)), ((-1, 1), (0, 2))]))
    monad = _synthesized_monad(field, dims, data.draw(st.integers(0, 3)))
    _assert_h1k_map_negates_the_column_chase(monad, -4, 4)


def test_h1k_map_refuses_a_summand_whose_h1_is_not_its_euler_class():
    # K = O(0,-1) carries the class of the j = 2 Euler sequence at (0, -1),
    # where K(e) = O(0,-2).  At (-2, 1), K(e) = O(-2,0) has a one-dimensional
    # H1 as well, but no chase of K's column lands there
    monad = MonadPresentation(gm([(0, -1)], [(1, 1)], [["s*u^2"]]), FormMatrix.zero(F, ((1, 1),), ()), verify=False)
    assert (monad.h1k_map((0, -1)).rows, monad.h1k_map((0, -1)).cols) == (0, 1)
    with pytest.raises(InternalInvariantViolation, match=r"^H1 of summand \(0, -1\) at shift \(-2, 1\) is not its Euler class$"):
        monad.h1k_map((-2, 1))


def test_monad_h0_and_h1_skip_h1k_map_where_k_has_no_h1(monkeypatch):
    # where h1(K(e)) = 0, h1k_map has no column to chase and contributes
    # nothing; the old path still built and ranked fbar's H1 to size it
    monads = [textio.parse_bundle_text((CORPUS / name).read_text()) for name in CORPUS_MONADS_WITH_K[:8]]
    twists = [e for d in range(-4, 5) for e in ((d, d), spinor_shift(1, d), spinor_shift(2, d))]
    want = {}
    for k, monad in enumerate(monads):
        for e in twists:
            try:
                want[k, e] = eliminated_dims(monad, e)[:2]
            except (PrereqVanishingFailed, InternalInvariantViolation) as exc:
                want[k, e] = type(exc)
    calls = []
    chase = MonadPresentation.h1k_map
    monkeypatch.setattr(MonadPresentation, "h1k_map", lambda self, e: calls.append(e) or chase(self, e))
    live = 0
    for k, monad in enumerate(monads):
        for e in twists:
            calls.clear()
            try:
                got = (monad.h0_dim(e), monad.h1_dim(e))
            except (PrereqVanishingFailed, InternalInvariantViolation) as exc:
                got = type(exc)
            assert got == want[k, e], (CORPUS_MONADS_WITH_K[k], e)
            if split_h(monad.K, e)[1] == 0:
                assert calls == [], (CORPUS_MONADS_WITH_K[k], e)
            live += bool(calls)
    assert live > 0


# fiberwise_injective evaluates kappa at all its points at once from the
# section slices; the oracle evaluates every entry form at each point in turn


@pytest.mark.parametrize("name", CORPUS_MONADS_WITH_K)
def test_fibre_sampler_answers_and_draws_as_the_per_entry_oracle_on_corpus_monads(name):
    monad = textio.parse_bundle_text((CORPUS / name).read_text())
    for seed in range(3):
        ours, ref = random.Random(seed), random.Random(seed)
        assert monad.fiberwise_injective(ours) is fiberwise_injective_by_entries(monad, ref) is True
        assert ours.getstate() == ref.getstate()  # the draws after the check, triple_iso's among them, do not move


@pytest.mark.parametrize("field", [PrimeField(5), RationalField()], ids=lambda f: f.name)
def test_fibre_sampler_fails_at_the_same_points_as_the_per_entry_oracle(field):
    # (s - t) u and (s - t) v vanish together where s = t: over F_5 a point
    # drops rank with probability 1/4, over Q (draws in -20..20) with 1/40.
    # One entry s^2 u + 2 s t v + 3 t^2 u drops rank on its zero set, which
    # moves if any exponent of s, t, u or v is read off the wrong place.
    # samples=1 compares the answer at each single point.
    a = ((0, 0), (0, 0))
    psi = gm(a, (), [], field)
    monads = [
        MonadPresentation(gm(((-1, -1),), a, [["s*u - t*u"], ["s*v - t*v"]], field), psi, verify=False),
        MonadPresentation(gm(((-1, -1),), a, [["s*u"], ["t*v"]], field), psi, verify=False),
        MonadPresentation(gm(((-2, -1),), a[:1], [["s^2*u + 2*s*t*v + 3*t^2*u"]], field), gm(a[:1], (), [], field), verify=False),
    ]
    answers = []
    for seed in range(40):
        for monad in monads:
            for samples in (1, 50):
                ours, ref = random.Random(seed), random.Random(seed)
                got = monad.fiberwise_injective(ours, samples)
                assert got is fiberwise_injective_by_entries(monad, ref, samples)
                if got:
                    assert ours.getstate() == ref.getstate()
                answers.append(got)
    assert False in answers and True in answers


def test_fibre_sampler_refuses_a_kappa_with_a_zero_column_at_its_first_point():
    zeroed = textio.parse_bundle_text((CORPUS / "t11.monad").read_text())
    kappa = FormMatrix.from_sections(F, zeroed.K, zeroed.A, [np.zeros_like(zeroed.kappa.section(0)), *zeroed.kappa.sections[1:]])
    zeroed = MonadPresentation(kappa, zeroed.psi, verify=False)
    assert zeroed.fiberwise_injective(random.Random(1)) is fiberwise_injective_by_entries(zeroed, random.Random(1)) is False


@pytest.mark.parametrize("name", CORPUS_MONADS)
def test_monad_has_acm_summand_answers_on_corpus_monads(name):
    from qhorrocks.horrocks import monad_has_acm_summand

    monad = textio.parse_bundle_text((CORPUS / name).read_text())
    assert not monad_has_acm_summand(monad)
    # the same monad with O(l) added to its middle term, for l a twist of A
    l = monad.A[0]
    kappa = form_vstack([monad.kappa, FormMatrix.zero(F, monad.K, (l,))])
    psi = form_hstack([monad.psi, FormMatrix.zero(F, (l,), monad.B)])
    assert monad_has_acm_summand(MonadPresentation(kappa, psi, verify=False))
