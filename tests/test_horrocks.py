import random
from pathlib import Path

import numpy as np
import pytest

from qhorrocks import textio
from qhorrocks.exactla import DEFAULT_PRIME, Matrix, PrimeField, RationalField, subspace_equal
from qhorrocks.bipoly import parse_biform
from qhorrocks.linecoh import FormMatrix, form_hstack
from qhorrocks.fixtures import fixture_names, load_fixture
from qhorrocks.presheaf import KerPresentation, MonadPresentation, line_bundle_table, solve_form_system, strip_acm
from qhorrocks.flmod import FinLengthModule, minimal_presentation, module_from_bundle, sigma_modules
from qhorrocks.horrocks import (
    ExactnessViolation,
    HorrocksTriple,
    LiftFailed,
    NotMinimalGamma,
    acm_type,
    extract_invariants,
    four_term_check,
    monad_has_acm_summand,
    roundtrip,
    synthesize,
    triple_iso,
)
from reference import augmented_solve

F = PrimeField(DEFAULT_PRIME)


def gm(src, dst, rows_text):
    rows = []
    for i, row in enumerate(rows_text):
        r = []
        for j, cell in enumerate(row):
            want = (dst[i][0] - src[j][0], dst[i][1] - src[j][1])
            r.append(parse_biform(F, cell, want))
        rows.append(r)
    return FormMatrix.make(F, tuple(src), tuple(dst), rows)


def case_presentation(name):
    table = {
        "omega1": ([(-1, -1)] * 4, [(0, 0)], [["x0", "x1", "x2", "x3"]]),
        "omega2-2": ([(-1, 0), (-1, 0), (0, -1), (0, -1)], [(0, 0)], [["s", "t", "u", "v"]]),
        "o-20": ([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]]),
        "case4": ([(-1, 0), (-1, -1), (-1, -1)], [(0, 0)], [["s", "x2", "x3"]]),
        "case5": ([(-1, 0), (-1, 0), (0, -1)], [(0, 0)], [["s", "t", "u"]]),
        "case6": ([(-1, 0), (0, -1), (-1, -1)], [(0, 0)], [["s", "u", "x3"]]),
        "lepotier": (
            [(0, 1), (0, 1), (1, 0), (1, 0)],
            [(1, 1), (1, 1)],
            [["s", "t", "u", "v"], ["0-t", "s-2*t", "v", "0"]],
        ),
    }
    src, dst, rows = table[name]
    return KerPresentation(gm(src, dst, rows))


def k_module(*degree_dims):
    return FinLengthModule(F, dict(degree_dims), {})


def test_extract_o20():
    ext = extract_invariants(case_presentation("o-20"))
    t = ext.triple
    assert {d: t.module.dim(d) for d in t.module.support()} == {0: 1}
    assert t.w_dim(0) == 2 and t.v_dim(0) == 0
    at = acm_type(case_presentation("o-20"), t)
    assert at.nu == {-1: 2} and at.mu == {} and at.free == {}


def test_acm_type_free_middle_term():
    p = case_presentation("omega1")
    ext = extract_invariants(p)
    at = acm_type(p, ext.triple)
    assert at.mu == {} and at.nu == {} and at.free == {-1: 4}


def test_extraction_comparison_covers_surjection():
    # the comparison columns were chosen on module generators, so projecting
    # their induced section map recovers the presentation's surjection
    from qhorrocks.linecoh import induced_h

    ext = extract_invariants(case_presentation("lepotier"))
    pres = ext.triple.pres
    for d in pres.module.support():
        lhs = ext.mm.models[d].proj @ induced_h(ext.rho, 0, (d, d))
        assert lhs == pres.pi_at(d)


def test_lift_lambda_case4():
    from reference import lift_lambda

    psi = case_presentation("omega1").g
    gamma = case_presentation("case4")
    lam = lift_lambda(psi, gamma)
    assert gamma.g.compose(lam).entries == psi.entries


def test_extract_case_table():
    # middle-term multiplicities (mu, nu) at abstract degree -1 and the
    # matching subspace dimensions
    expected = {
        "omega2-2": ((2, 2), 2, 2),
        "o-20": ((0, 2), 2, 0),
        "case4": ((0, 1), 1, 0),
        "case5": ((1, 2), 2, 1),
    }
    for name, ((mu, nu), wdim, vdim) in expected.items():
        p = case_presentation(name)
        ext = extract_invariants(p)
        t = ext.triple
        assert t.w_dim(0) == wdim, name
        assert t.v_dim(0) == vdim, name
        at = acm_type(p, t)
        assert at.mu.get(-1, 0) == mu, name
        assert at.nu.get(-1, 0) == nu, name


def test_extract_case6():
    ext = extract_invariants(case_presentation("case6"))
    assert ext.triple.w_dim(0) == 1 and ext.triple.v_dim(0) == 1


def test_extract_lepotier():
    ext = extract_invariants(case_presentation("lepotier"))
    t = ext.triple
    assert {d: t.module.dim(d) for d in t.module.support()} == {-1: 2}
    assert t.w_dim(-1) == 2 and t.v_dim(-1) == 2
    assert t.T.fam[1][-1].dim == 4 and t.T.fam[2][-1].dim == 4


def test_extract_refuses_unstripped():
    base = case_presentation("o-20")
    g2 = form_hstack([base.g, FormMatrix.zero(F, ((-1, -1),), base.B)])
    padded = KerPresentation(g2, verify=False)
    with pytest.raises(NotMinimalGamma):
        extract_invariants(padded)


def test_extract_agrees_after_stripping():
    for name in ("o-20", "lepotier"):
        base = case_presentation(name)
        ext0 = extract_invariants(base)
        for extra in ((-1, -1), (1, 0), (-2, -1)):
            g2 = form_hstack([base.g, FormMatrix.zero(F, (extra,), base.B)])
            padded = KerPresentation(g2, verify=False)
            stripped, removed = strip_acm(padded)
            assert removed == [extra]
            ext1 = extract_invariants(stripped)
            assert triple_iso(ext0.triple, ext1.triple, trials=60, rng=random.Random(3)) is not None


def test_extract_free_bundle_trivial():
    p = KerPresentation(FormMatrix.zero(F, ((0, 0),), ()))
    stripped, removed = strip_acm(p)
    ext = extract_invariants(stripped)
    assert ext.triple.module.is_zero


def test_triple_build_rejects_non_socle():
    # the Example 2 companion piece is all socle, so take a random quotient
    # module whose side-1 companion has classes that u or v does not kill
    from tests.test_flmod import _quotient_module

    mq = _quotient_module(random.Random(31), {0: 2, 1: 2})
    pres = minimal_presentation(mq)
    t = sigma_modules(pres)
    from qhorrocks.flmod import socle_subspace

    soc = socle_subspace(t, 1)
    for d, model in t.fam[1].items():
        if d not in soc or soc[d].cols < model.dim:
            # found a degree with a non-socle direction: pick a vector outside
            full = Matrix.identity(F, model.dim)
            bad = None
            for col in full.columns():
                killed = all(
                    (op @ Matrix.from_columns(F, [col], rows_dim=model.dim)).is_zero() for op in t.kill[1][d]
                )
                if not killed:
                    bad = col
                    break
            if bad is not None:
                with pytest.raises(ValueError):
                    HorrocksTriple.build(mq, {d: [bad]}, {})
                return
    pytest.skip("random module had a full socle everywhere")


def test_synthesize_o20_from_triple():
    # M = k in degree 0, W the full companion piece, V = 0: the bundle must
    # have the exact table of O(-2,0) and reproduce its triple
    ext = extract_invariants(case_presentation("o-20"))
    monad = synthesize(ext.triple, rng=random.Random(5))
    assert monad.rank == 1
    table = monad.table(-4, 4)
    assert table == line_bundle_table((-2, 0), -4, 4)
    ext2 = extract_invariants(monad)
    assert triple_iso(ext.triple, ext2.triple, trials=200, rng=random.Random(6)) is not None


def test_synthesize_trivial_triple_returns_associated_bundle():
    m = k_module((0, 1))
    triple = HorrocksTriple.build(m, {}, {})
    monad = synthesize(triple)
    assert list(monad.K) == []
    # E = F: the restricted cotangent bundle, rank 3 with H1 = k at 0
    assert monad.rank == 3
    assert monad.h1_dim((0, 0)) == 1 and monad.h0_dim((0, 0)) == 0


def test_synthesize_case5_middle_term():
    # W full (2-dim), V one-dimensional: middle term gains two free rows
    ext = extract_invariants(case_presentation("case5"))
    monad = synthesize(ext.triple, rng=random.Random(9))
    assert monad.rank == 2
    assert sorted(monad.K) == [(-2, -1), (-1, -2), (-1, -2)]
    # the free closure adds two O(-1) rows, matching the known diagram shape
    assert sorted(monad.A) == [(-1, -1)] * 6


def test_synthesize_rank2_point_case():
    # W and V both one-dimensional: a rank-2 bundle whose twist by O(1) has
    # a single section
    ext = extract_invariants(case_presentation("case6"))
    monad = synthesize(ext.triple, rng=random.Random(11))
    assert monad.rank == 2
    assert monad.h0_dim((1, 1)) == 1


def test_path_agreement_cases():
    # the kernel-side extraction and the monad-side extraction give the same
    # subspaces in the canonical coordinates
    for name in ("omega2-2", "o-20", "case4", "case5"):
        ext = extract_invariants(case_presentation(name))
        monad = synthesize(ext.triple, rng=random.Random(13))
        ext2 = extract_invariants(monad)
        assert set(ext.triple.W) == set(ext2.triple.W), name
        assert set(ext.triple.V) == set(ext2.triple.V), name
        for d in ext.triple.W:
            assert subspace_equal(ext.triple.W[d], ext2.triple.W[d]), name
        for d in ext.triple.V:
            assert subspace_equal(ext.triple.V[d], ext2.triple.V[d]), name


def test_four_term_cases():
    for name in ("omega1", "omega2-2", "o-20", "case4", "case5", "case6", "lepotier"):
        p = case_presentation(name)
        ext = extract_invariants(p)
        four_term_check(p, ext)


def test_triple_iso_self_and_conjugate():
    ext = extract_invariants(case_presentation("lepotier"))
    assert triple_iso(ext.triple, ext.triple, trials=50, rng=random.Random(1)) is not None


def test_validate_names_the_subspace_the_degree_and_the_variable():
    from qhorrocks.generate import random_module

    t = HorrocksTriple.build(random_module(F, random.Random(3), {0: 2, 1: 2}), {}, {})
    with pytest.raises(ValueError, match=r"^W touches the empty companion degree 5$"):
        HorrocksTriple(t.pres, t.T, {5: Matrix.identity(F, 1)}, {}).validate()
    seen = set()
    for side, name in ((1, "W"), (2, "V")):
        for d, ops in t.T.kill[side].items():
            dim = t.T.fam[side][d].dim
            for k, var in enumerate("uv" if side == 1 else "st"):
                # a class killed by the operator before var, but not by var
                space = ops[0].kernel_matrix() if k else Matrix.identity(F, dim)
                hit = [j for j, col in enumerate((ops[k] @ space).columns()) if col.any()]
                if not hit:
                    continue
                sub = {d: Matrix.from_columns(F, [list(space.columns())[hit[0]]], rows_dim=dim)}
                w, v = (sub, {}) if side == 1 else ({}, sub)
                with pytest.raises(ValueError, match=rf"^{name} at degree {d} is not killed by {var}$"):
                    HorrocksTriple(t.pres, t.T, w, v).validate()
                seen.add((name, var))
    assert seen == {("W", "u"), ("W", "v"), ("V", "s"), ("V", "t")}


def test_triple_iso_finds_conjugated_subspaces():
    # move W and V by the companion action of a random module automorphism;
    # the search must recover an isomorphism of triples
    from reference import random_matrix
    from qhorrocks.linecoh import induced_h
    from qhorrocks.horrocks import HorrocksTriple, _phi0_from_maps

    ext = extract_invariants(case_presentation("lepotier"))
    t = ext.triple
    rng = random.Random(77)
    while True:
        phi = random_matrix(F, rng, 2, 2)
        if phi.rank() == 2:
            break
    maps = {-1: phi}
    phi0 = _phi0_from_maps(t, t, maps)
    w2 = {}
    for d, basis in t.W.items():
        ind = t.T.fam[1][d].proj @ (induced_h(phi0, 0, (d + 1, d)) @ t.T.fam[1][d].reps)
        w2[d] = ind @ basis
    v2 = {}
    for d, basis in t.V.items():
        ind = t.T.fam[2][d].proj @ (induced_h(phi0, 0, (d, d + 1)) @ t.T.fam[2][d].reps)
        v2[d] = ind @ basis
    moved = HorrocksTriple(t.pres, t.T, w2, v2).validate()
    assert triple_iso(t, moved, trials=100, rng=random.Random(78)) is not None


def test_triple_iso_distinguishes_split_from_stable():
    split = KerPresentation(
        gm(
            [(0, 1), (0, 1), (1, 0), (1, 0)],
            [(1, 1), (1, 1)],
            [["s", "t", "0", "0"], ["0", "0", "u", "v"]],
        )
    )
    stable = case_presentation("lepotier")
    e1 = extract_invariants(split)
    e2 = extract_invariants(stable)
    assert e1.triple.w_dim(-1) == 2 and e1.triple.v_dim(-1) == 2
    assert triple_iso(e1.triple, e2.triple, trials=120, rng=random.Random(2)) is None


def test_roundtrip_fixture_triples():
    for name in ("o-20", "omega2-2", "case5"):
        ext = extract_invariants(case_presentation(name))
        report = roundtrip(ext.triple, trials=200, rng=random.Random(17))
        assert report.ok, (name, report.notes)


def test_monad_has_no_summand_on_synthesized_fixture():
    ext = extract_invariants(case_presentation("omega2-2"))
    monad = synthesize(ext.triple, rng=random.Random(19))
    assert not monad_has_acm_summand(monad)


# extract_invariants no longer solves for the lift lambda of its comparison
# (rho o psi = g o lambda); its docstring proves the lift exists, and these
# tests keep that invariant checked


def _assert_the_comparison_lifts(rep):
    ext = extract_invariants(rep)
    g = (rep.fbar if isinstance(rep, MonadPresentation) else rep).g
    target = ext.rho.compose(ext.triple.pres.psi)
    lam = solve_form_system(g, target)
    assert g.compose(lam).entries == target.entries


@pytest.mark.parametrize("field", [PrimeField(5), F, RationalField()], ids=lambda f: f.name)
@pytest.mark.parametrize("name", fixture_names())
def test_the_comparison_lifts_over_the_presentation_on_fixtures(name, field):
    _assert_the_comparison_lifts(load_fixture(name, field))


ROUNDTRIP_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "roundtrip"


@pytest.mark.parametrize("name", sorted(f.name for f in ROUNDTRIP_CORPUS.glob("*.monad")))
def test_the_comparison_lifts_over_ker_psi_on_corpus_monads(name):
    _assert_the_comparison_lifts(textio.parse_bundle_text((ROUNDTRIP_CORPUS / name).read_text()))


def _corpus_witness(name):
    report = roundtrip(textio.parse_triple_text((ROUNDTRIP_CORPUS / name).read_text()), rng=random.Random(7))
    assert report.ok, (name, report.notes)
    return report.witness


@pytest.mark.parametrize("name", sorted(f.name for f in ROUNDTRIP_CORPUS.glob("*.triple"))[:4])
def test_witness_is_the_one_the_augmented_solve_finds(name, monkeypatch):
    # every solve reads a cached transform; the RREF is unique, so the witness equals the one found by
    # eliminating [A | B] afresh on every solve, with the same rng draws
    got = _corpus_witness(name)
    monkeypatch.setattr(Matrix, "solve_matrix", augmented_solve)
    want = _corpus_witness(name)
    assert got.maps == want.maps and got.trials_used == want.trials_used
    assert got.phi0 == want.phi0 and got.phi1 == want.phi1


# ---------------------------------------------------------------------------
# Hom(t1, t2) against every module map, over F_2


def enumerated_hom(t1, t2):
    """Every module map M1 -> M2 over F_2 carrying W1 into W2 and V1 into V2, as layout vectors.

    A piece of t1's companion module with no counterpart in t2 maps to zero,
    so a subspace there constrains nothing.
    """
    from itertools import product

    from qhorrocks.flmod import _commuting_space, _vec_to_maps
    from qhorrocks.horrocks import _phi0_from_maps, _side
    from qhorrocks.linecoh import induced_h, spinor_shift

    fld, m1, m2 = t1.module.field, t1.module, t2.module
    _, layout = _commuting_space(m1, m2)
    total = sum(n2 * n1 for _, n2, n1 in layout.values())
    found = set()
    for bits in product((0, 1), repeat=total):
        vec = fld.array(list(bits))
        maps = _vec_to_maps(fld, vec, layout)
        zero = lambda r, c: Matrix.zeros(fld, r, c)
        if any(
            not (maps.get(d + 1, zero(m2.dim(d + 1), m1.dim(d + 1))) @ m1.op(k, d)
                 - m2.op(k, d) @ maps[d]).is_zero()
            for d in m1.support()
            for k in range(4)
            if m1.dim(d + 1) or m2.dim(d + 1)
        ):
            continue
        phi0 = _phi0_from_maps(t1, t2, maps)
        ok = True
        for side in (1, 2):
            (fam1, sub1), (fam2, sub2) = _side(t1, side), _side(t2, side)
            for d, basis in sub1.items():
                if not basis.cols or d not in fam2:
                    continue
                image = fam2[d].proj @ (induced_h(phi0, 0, spinor_shift(side, d)) @ (fam1[d].reps @ basis))
                target = sub2.get(d, Matrix.zeros(fld, fam2[d].dim, 0))
                both = Matrix(fld, np.concatenate([target.a, image.a], axis=1))
                ok = ok and both.rank() == target.rank()
        if ok:
            found.add(tuple(int(x) for x in bits))
    return found


def span_over_f2(vectors, n):
    from itertools import product

    out = set()
    for coeffs in product((0, 1), repeat=len(vectors)):
        acc = np.zeros(n, dtype=np.int64)
        for c, v in zip(coeffs, vectors):
            acc = (acc + c * np.asarray(v, dtype=np.int64)) % 2
        out.add(tuple(int(x) for x in acc))
    return out


def test_constrained_basis_ignores_w_where_the_target_has_no_companion_piece():
    # M1 = k in degree 0 has companion pieces of dimension 2 at degree 0 on
    # both sides; M2 (x1, x2 nonzero from degree -1 to 0) has them only at
    # degree -1.  So W1 at degree 0 maps into a zero piece and constrains
    # nothing: Hom(t1, t2) is the whole one-dimensional space of module maps.
    from qhorrocks.flmod import _commuting_space
    from qhorrocks.horrocks import _subspace_constrained_basis

    F2 = PrimeField(2)
    one, zero = Matrix.make(F2, [[1]]), Matrix.make(F2, [[0]])
    m1 = FinLengthModule(F2, {0: 1}, {})
    m2 = FinLengthModule(F2, {-1: 1, 0: 1}, {(0, -1): zero, (1, -1): one, (2, -1): one, (3, -1): zero})
    t1 = HorrocksTriple.build(m1, {0: [[1, 0]]}, {0: [[0, 1]]})
    t2 = HorrocksTriple.build(m2, {}, {})
    assert 0 in t1.T.fam[1] and 0 in t1.T.fam[2] and 0 not in t2.T.fam[1] and 0 not in t2.T.fam[2]
    basis, layout = _commuting_space(m1, m2)
    got = _subspace_constrained_basis(t1, t2, basis, layout)
    n = sum(n2 * n1 for _, n2, n1 in layout.values())
    want = enumerated_hom(t1, t2)
    assert len(want) == 2
    assert span_over_f2(got, n) == want
    # the reverse direction and the endomorphisms go through the other branches
    for a, b in ((t2, t1), (t1, t1), (t2, t2)):
        basis, layout = _commuting_space(a.module, b.module)
        n = sum(n2 * n1 for _, n2, n1 in layout.values())
        assert span_over_f2(_subspace_constrained_basis(a, b, basis, layout), n) == enumerated_hom(a, b)
