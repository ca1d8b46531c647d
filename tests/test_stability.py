import random
from pathlib import Path

import pytest

from qhorrocks.exactla import DEFAULT_PRIME, PrimeField, RationalField
from qhorrocks.bipoly import parse_biform
from qhorrocks.fixtures import load_fixture
from qhorrocks.linecoh import FormMatrix, spinor_kind
from qhorrocks import textio
from qhorrocks.presheaf import KerPresentation
from qhorrocks.stability import ShapeMismatch, jumping_determinants, le_potier_check
from reference import leibniz_det

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


SRC = [(0, 1), (0, 1), (1, 0), (1, 0)]
DST = [(1, 1), (1, 1)]


def lepotier():
    return KerPresentation(gm(SRC, DST, [["s", "t", "u", "v"], ["0-t", "s-2*t", "v", "0"]]))


def split_sum():
    return KerPresentation(gm(SRC, DST, [["s", "t", "0", "0"], ["0", "0", "u", "v"]]))


def family_member():
    return KerPresentation(gm(SRC, DST, [["s", "t", "u", "v"], ["0-t", "s-t", "v", "0"]]))


def test_lepotier_is_stable():
    rep = le_potier_check(lepotier())
    assert (rep.h0, rep.h0_right, rep.h0_left) == (0, 0, 0)
    assert rep.stable


def test_split_sum_is_not_stable():
    rep = le_potier_check(split_sum())
    assert rep.h0 == 0
    assert rep.h0_right == 1  # section of E(1,-1) from the O(-1,1) summand
    assert not rep.stable


def test_rank_guard():
    p = KerPresentation(gm([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]]))
    with pytest.raises(ShapeMismatch):
        le_potier_check(p)


def test_lepotier_determinants():
    d1, d2 = jumping_determinants(lepotier())
    # det of [[s, t], [-t, s-2t]] is s^2 - 2 s t + t^2 = (s - t)^2
    assert str(d1.form) in ("s^2 - 2*s*t + t^2", "s^2 + 32001*s*t + t^2")
    assert d1.has_repeated_root
    assert d1.roots == [((1, 1), 2)]
    # det of [[u, v], [v, 0]] is -v^2
    assert d2.has_repeated_root
    assert d2.roots == [((1, 0), 2)]


def test_family_member_determinants():
    d1, d2 = jumping_determinants(family_member())
    # s^2 - s t + t^2 has discriminant -3, nonzero in the field
    assert not d1.has_repeated_root
    assert d2.has_repeated_root


def test_determinant_scaling_invariance():
    rng = random.Random(3)
    base = lepotier()
    d1, d2 = jumping_determinants(base)
    # conjugate by constant row/column operations: scale a column and swap rows
    rows = [["0-t", "s-2*t", "v", "0"], ["s", "t", "u", "v"]]
    swapped = KerPresentation(gm(SRC, DST, rows))
    e1, e2 = jumping_determinants(swapped)
    assert e1.has_repeated_root == d1.has_repeated_root
    assert e2.has_repeated_root == d2.has_repeated_root
    assert e1.roots == d1.roots


@pytest.mark.parametrize("field", [F, RationalField()], ids=lambda f: f.name)
@pytest.mark.parametrize("name", ["lepotier", "null-corr-family", "split-sum"])
def test_block_determinants_match_the_reference_leibniz_determinant(field, name):
    p = load_fixture(name, field)
    d_st, d_uv = jumping_determinants(p)
    assert d_st.form == leibniz_det(p.g, [j for j, t in enumerate(p.A) if spinor_kind(t) == 2])
    assert d_uv.form == leibniz_det(p.g, [j for j, t in enumerate(p.A) if spinor_kind(t) == 1])


def test_split_sum_determinants_vanish():
    # the degenerate blocks of the split bundle have zero determinant, the
    # determinant-level witness of instability
    d1, d2 = jumping_determinants(split_sum())
    assert d1.is_zero and d2.is_zero


def test_diagonal_block_determinant():
    # diagonal blocks multiply out: det [[s,0],[0,t]] = s*t with two simple roots
    p = KerPresentation(
        gm(SRC, DST, [["s", "0", "u", "0"], ["0", "t", "0", "v"]]), verify=False
    )
    d1, d2 = jumping_determinants(p)
    assert str(d1.form) == "s*t"
    assert sorted(d1.roots) == [((0, 1), 1), ((1, 0), 1)]
    assert not d1.has_repeated_root and not d2.has_repeated_root


def test_zero_block_flagged():
    p = KerPresentation(
        gm(SRC, DST, [["s", "t", "u", "v"], ["0", "0", "v", "u"]]), verify=False
    )
    d1, d2 = jumping_determinants(p)
    assert d1.is_zero and d1.has_repeated_root


def test_rational_field_repeated_root_detection():
    q = RationalField()
    g = gm(SRC, DST, [["s", "t", "u", "v"], ["0-t", "s-2*t", "v", "0"]], field=q)
    p = KerPresentation(g, verify=False)
    d1, d2 = jumping_determinants(p)
    assert d1.has_repeated_root and d2.has_repeated_root
    assert d1.roots == [((1, 1), 2)]


def test_stability_report_carries_determinants():
    rep = le_potier_check(lepotier())
    assert rep.det_st is not None and rep.det_uv is not None
    assert rep.det_st.has_repeated_root and rep.det_uv.has_repeated_root


def test_summand_permutation_leaves_report_invariant():
    # permute the middle-term summands (swap the two u,v columns and the two
    # s,t columns): section counts and root structure must not move
    base = le_potier_check(lepotier())
    permuted = KerPresentation(
        gm(SRC, DST, [["t", "s", "v", "u"], ["s-2*t", "0-t", "0", "v"]])
    )
    rep = le_potier_check(permuted)
    assert (rep.h0, rep.h0_right, rep.h0_left) == (base.h0, base.h0_right, base.h0_left)
    assert rep.stable == base.stable
    assert rep.det_st.has_repeated_root == base.det_st.has_repeated_root
    assert sorted(rep.det_st.roots) == sorted(base.det_st.roots)


def test_root_sweep_memory_stays_flat_in_p():
    import tracemalloc

    from qhorrocks.stability import _first_root_mod_p

    big = PrimeField(1_000_003)  # p = 3 mod 4, so x^2 + 1 has no root and the sweep covers all of F_p
    tracemalloc.start()
    try:
        assert _first_root_mod_p(big, [1, 0, 1]) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_root_sweep_finds_the_smallest_root_past_the_first_block():
    from qhorrocks.stability import _first_root_mod_p

    big = PrimeField(1_000_003)
    # (x - 200000)(x - 900000)(x^2 + 1), coefficients of x^0 .. x^4
    r1, r2 = 200_000, 900_000
    coeffs = [r1 * r2, -(r1 + r2), r1 * r2 + 1, -(r1 + r2), 1]
    assert _first_root_mod_p(big, [c % big.p for c in coeffs]) == r1
    small = PrimeField(101)
    for x in range(101):
        assert _first_root_mod_p(small, [(-x) % 101, 1]) == x


@pytest.mark.parametrize(
    "text, root",
    [("2*s - t", (1, 2)), ("s - 12*t", (12, 1)), ("6*s^2 - 5*s*t + t^2", (1, 3)), ("9*s^3 - s*t^2", (-1, 3))],
)
def test_rational_roots_match_the_prime_field(text, root):
    # the rational root theorem finds every root over Q, however large its
    # numerator or denominator, as the sweep finds every root mod p
    from fractions import Fraction

    from qhorrocks.stability import _binary_report

    q, p = RationalField(), PrimeField(DEFAULT_PRIME)
    over_q = _binary_report(parse_biform(q, text), "st")
    over_p = _binary_report(parse_biform(p, text), "st")
    assert over_q.unfactored_degree == over_p.unfactored_degree == 0
    assert len(over_q.roots) == len(over_p.roots)
    assert ((Fraction(*root), 1), 1) in over_q.roots
    assert ((p.scalar(root[0] * p.inv(root[1])), 1), 1) in over_p.roots


def test_le_potier_check_refuses_a_monad():
    # t00 has rank 2, and c1 read off A and B alone would be (-14, -14); K makes it (-4, -4)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "roundtrip" / "t00.monad"
    with pytest.raises(ShapeMismatch, match="^stability report needs a gamma-form bundle file$") as info:
        le_potier_check(textio.parse_bundle_text(path.read_text()))
    assert info.value.exit_code == 3
