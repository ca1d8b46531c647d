"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single pass line on success (visible with pytest -s);
a failure raises with the offending values.
"""

import random
import time

import pytest

from qhorrocks.exactla import DEFAULT_PRIME, Matrix, PrimeField, subspace_equal
from qhorrocks.bipoly import parse_biform
from qhorrocks.linecoh import (
    FormMatrix,
    form_hstack,
    is_acm_twist,
    kunneth_dim,
    sheaf_surjective,
)
from qhorrocks.presheaf import KerPresentation, line_bundle_table, strip_acm
from qhorrocks.flmod import FinLengthModule, minimal_presentation, module_from_bundle, sigma_modules, socle_subspace
from qhorrocks.horrocks import (
    HorrocksTriple,
    acm_type,
    extract_invariants,
    four_term_check,
    monad_has_acm_summand,
    roundtrip,
    synthesize,
    triple_iso,
)
from qhorrocks.stability import jumping_determinants, le_potier_check
from qhorrocks.fixtures import fixture_names, load_fixture
from qhorrocks.qcli import random_triple
from qhorrocks import textio

F = PrimeField(DEFAULT_PRIME)

GAMMA_FIXTURES = ("omega1", "omega2-2", "o-20", "case4", "case5", "case6", "lepotier", "split-sum", "null-corr-family")


def _ok(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def test_criterion_01_kunneth_acm_suite():
    for a in range(-5, 6):
        for b in range(-5, 6):
            h = [kunneth_dim(i, (a, b)) for i in (0, 1, 2)]
            assert h[0] - h[1] + h[2] == (a + 1) * (b + 1), (a, b)
            for i in (0, 1, 2):
                assert h[i] == kunneth_dim(2 - i, (-2 - a, -2 - b)), (a, b, i)
            vanishes = all(kunneth_dim(1, (a + d, b + d)) == 0 for d in range(-8, 9))
            assert vanishes == is_acm_twist((a, b)), (a, b)
    _ok(1, "kunneth, serre duality, acm classification")


def test_criterion_02_spinor_finite_length_values():
    for d in range(-6, 7):
        assert kunneth_dim(1, (d - 2, d)) == (1 if d == 0 else 0)
        assert kunneth_dim(1, (d - 3, d)) == (2 if d in (0, 1) else 0)
    # cross-check through a presentation of O(-2,0)
    mm = module_from_bundle(load_fixture("o-20", F))
    assert {d: mm.module.dim(d) for d in mm.module.support()} == {0: 1}
    _ok(2, "spinor inverse square and cube cohomology modules")


def test_criterion_03_minimal_presentation_of_k():
    m = FinLengthModule(F, {0: 1}, {})
    pres = minimal_presentation(m)
    assert pres.L0 == ((0, 0),)
    assert pres.L1 == ((-1, -1),) * 4
    entries = sorted(str(pres.psi.entries[0][j]) for j in range(4))
    assert entries == ["s*u", "s*v", "t*u", "t*v"]
    t = sigma_modules(pres)
    assert {d: t.dim10(d) for d in t.m10} == {0: 2}
    assert {d: t.dim01(d) for d in t.m01} == {0: 2}
    _ok(3, "minimal presentation of k and its companion modules")


def test_criterion_04_case_table():
    expected = {
        "omega2-2": (2, 2, 2, 2),
        "o-20": (0, 2, 2, 0),
        "case4": (0, 1, 1, 0),
        "case5": (1, 2, 2, 1),
    }
    for name, (mu, nu, wdim, vdim) in expected.items():
        p = load_fixture(name, F)
        ext = extract_invariants(p)
        at = acm_type(p, ext.triple)
        assert at.mu.get(-1, 0) == mu, name
        assert at.nu.get(-1, 0) == nu, name
        assert ext.triple.w_dim(0) == wdim, name
        assert ext.triple.v_dim(0) == vdim, name
    _ok(4, "gamma case table multiplicities and subspace dimensions")


def test_criterion_05_synthesis_matches_unbalanced_line_bundle():
    m = FinLengthModule(F, {0: 1}, {})
    pres = minimal_presentation(m)
    t = sigma_modules(pres)
    soc = socle_subspace(t, "m10")
    triple = HorrocksTriple.build(m, {0: list(soc[0].columns())}, {})
    monad = synthesize(triple, rng=random.Random(55))
    assert monad.rank == 1
    assert monad.table(-4, 4) == line_bundle_table((-2, 0), -4, 4)
    ext = extract_invariants(monad)
    assert triple_iso(triple, ext.triple, trials=200, rng=random.Random(56)) is not None
    _ok(5, "synthesis from (k, full socle, 0) reproduces O(-2,0)")


def test_criterion_06_explicit_rank_two_bundle():
    p = load_fixture("lepotier", F)
    assert sheaf_surjective(p.g).surjective
    mm = module_from_bundle(p)
    assert {d: mm.module.dim(d) for d in mm.module.support()} == {-1: 2}
    rep = le_potier_check(p)
    assert (rep.h0, rep.h0_right, rep.h0_left) == (0, 0, 0) and rep.stable
    d1, d2 = jumping_determinants(p)
    assert d1.has_repeated_root and d1.roots == [((1, 1), 2)]
    assert d2.has_repeated_root and d2.roots == [((1, 0), 2)]
    _ok(6, "explicit 2x4 matrix: surjective, stable, double roots in both blocks")


def _random_gamma_bundle(rng):
    """A random stripped gamma-form presentation, by rejection sampling."""
    from qhorrocks.bipoly import BiForm, monomial_basis

    while True:
        nrows = rng.choice((1, 1, 2))
        base = rng.choice((0, 1))
        dst = tuple((base, base) for _ in range(nrows))
        cands = [(base - 1, base), (base, base - 1), (base - 1, base - 1), (base - 2, base - 1), (base - 1, base - 2)]
        ncols = rng.randrange(nrows + 1, nrows + 4)
        src = tuple(rng.choice(cands) for _ in range(ncols))
        rows = []
        for i in range(nrows):
            row = []
            for j in range(ncols):
                want = (dst[i][0] - src[j][0], dst[i][1] - src[j][1])
                coeffs = {m: rng.randrange(F.p) for m in monomial_basis(want) if rng.random() < 0.8}
                row.append(BiForm.make(F, want, coeffs))
            rows.append(row)
        try:
            g = FormMatrix.make(F, src, dst, rows)
            if any(all(g.entries[i][j].is_zero() for i in range(nrows)) for j in range(ncols)):
                continue
            if not sheaf_surjective(g).surjective:
                continue
            p = KerPresentation(g, verify=False)
            stripped, _removed = strip_acm(p)
            if stripped.rank < 1 or not stripped.A:
                continue
            mm = module_from_bundle(stripped)
            if mm.module.is_zero or sum(mm.module.dims.values()) > 9:
                continue
            return stripped
        except Exception:
            continue


def test_criterion_07_four_term_exactness():
    for name in GAMMA_FIXTURES:
        p = load_fixture(name, F)
        ext = extract_invariants(p)
        four_term_check(p, ext)
    rng = random.Random(2024)
    for k in range(25):
        p = _random_gamma_bundle(rng)
        ext = extract_invariants(p, check_stripped=False)
        four_term_check(p, ext)
    _ok(7, "four-term alternating sums vanish on fixtures and 25 random bundles")


def test_criterion_08_roundtrip_random_triples():
    rng = random.Random(4070)
    done = 0
    while done < 25:
        support = rng.randrange(1, 4)
        lo = rng.randrange(-1, 2)
        dims = {}
        for k in range(support):
            dims[lo + k] = rng.randrange(1, 4)
        try:
            triple = random_triple(F, rng, dims)
        except Exception:
            continue
        start = time.monotonic()
        report = roundtrip(triple, trials=200, rng=rng)
        elapsed = time.monotonic() - start
        assert report.ok, (dims, report.notes)
        assert elapsed < 120.0, (dims, elapsed)
        done += 1
    _ok(8, "25 random triples pass synthesize -> verify -> extract -> compare")


def test_criterion_09_acm_stripping():
    pads = ((-1, -1), (1, 0), (-2, -1))
    for name in GAMMA_FIXTURES:
        base = load_fixture(name, F)
        base_table = base.table(-3, 3)
        base_triple_text = textio.format_triple_text(extract_invariants(base).triple)
        for pad in pads:
            g2 = form_hstack([base.g, FormMatrix.zero(F, (pad,), base.B)])
            padded = KerPresentation(g2, verify=False)
            stripped, removed = strip_acm(padded)
            assert removed == [pad], (name, pad)
            assert stripped.table(-3, 3) == base_table, (name, pad)
            text = textio.format_triple_text(extract_invariants(stripped).triple)
            assert text == base_triple_text, (name, pad)
    _ok(9, "padding by O(-1), O(1,0), O(-2,-1) strips back exactly")


def test_criterion_10_path_agreement():
    for name in ("omega2-2", "o-20", "case4", "case5"):
        ext = extract_invariants(load_fixture(name, F))
        monad = synthesize(ext.triple, rng=random.Random(99))
        ext2 = extract_invariants(monad)
        assert set(ext.triple.W) == set(ext2.triple.W), name
        assert set(ext.triple.V) == set(ext2.triple.V), name
        for d in ext.triple.W:
            assert subspace_equal(ext.triple.W[d], ext2.triple.W[d]), (name, "W", d)
        for d in ext.triple.V:
            assert subspace_equal(ext.triple.V[d], ext2.triple.V[d]), (name, "V", d)
    _ok(10, "kernel-side and monad-side extraction give equal subspaces")
