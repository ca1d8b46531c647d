import random

import numpy as np
import pytest

from qhorrocks.exactla import DEFAULT_PRIME, Matrix, PrimeField, RationalField
from qhorrocks.linecoh import coh_action
from qhorrocks.bipoly import (
    BiForm,
    ParseError,
    format_biform,
    monomial_basis,
    parse_biform,
    space_dim,
    sq_piece,
)
from reference import form_add, form_mul

F = PrimeField(DEFAULT_PRIME)


def bf(text, deg=None):
    return parse_biform(F, text, deg)


def test_monomial_basis_order():
    assert monomial_basis((0, 0)) == ((0, 0),)
    # bidegree (1,1) reads su, sv, tu, tv
    assert monomial_basis((1, 1)) == ((1, 1), (1, 0), (0, 1), (0, 0))
    assert monomial_basis((-1, 2)) == ()


def test_space_dims():
    assert space_dim((2, 3)) == 12
    assert space_dim((-1, 5)) == 0


def test_sq_piece_hilbert_function():
    # the quadric's coordinate ring has Hilbert function (d+1)^2
    for d in range(0, 9):
        assert len(sq_piece(d)) == (d + 1) ** 2
    assert [m for m in sq_piece(1)] == [(1, 1), (1, 0), (0, 1), (0, 0)]


def test_variables_and_aliases():
    s = BiForm.variable(F, "s")
    u = BiForm.variable(F, "u")
    x0 = BiForm.variable(F, "x0")
    assert form_mul(s, u).coeffs == x0.coeffs
    assert form_mul(s, u).deg == (1, 1)


def test_parse_simple():
    f = bf("3*s^2*u - t^2*v")
    assert f.deg == (2, 1)
    assert dict(f.coeffs) == {(2, 1): 3, (0, 0): F.p - 1}


def test_parse_x_aliases():
    assert bf("x3").coeffs == bf("t*v").coeffs
    assert bf("x0^2").coeffs == bf("s^2*u^2").coeffs
    assert dict(bf("s-2*t").coeffs) == {(1, 0): 1, (0, 0): F.p - 2}


def test_parse_zero_needs_expected_degree():
    z = parse_biform(F, "0", (1, 0))
    assert z.is_zero() and z.deg == (1, 0)
    with pytest.raises(ParseError):
        parse_biform(F, "0")


def test_parse_constant_only_in_degree_zero():
    c = bf("5")
    assert c.deg == (0, 0)
    with pytest.raises(ParseError):
        parse_biform(F, "5", (1, 0))


def test_parse_rejects_mixed_degrees():
    with pytest.raises(ParseError):
        bf("s + u")


def test_format_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        deg = (rng.randrange(0, 3), rng.randrange(0, 3))
        coeffs = {m: rng.randrange(0, F.p) for m in monomial_basis(deg) if rng.random() < 0.5}
        f = BiForm.make(F, deg, coeffs)
        assert parse_biform(F, format_biform(f), deg).coeffs == f.coeffs


def test_rational_coefficients():
    q = RationalField()
    f = parse_biform(q, "1/2*s - 3*t")
    g = form_add(f, f)
    assert format_biform(g) == "s - 6*t"


def test_mult_matrix_one_is_identity():
    one = BiForm.constant(F, 1)
    m = coh_action(one, 0, (2, 1))
    assert m == Matrix.identity(F, 6)


def test_mult_matrix_single_variable():
    s = BiForm.variable(F, "s")
    m = coh_action(s, 0, (0, 0))
    # t-degree (1,0) basis is [s, t]; multiplying 1 by s selects the s slot
    assert m.rows == 2 and m.cols == 1
    assert int(m.a[0, 0]) == 1 and int(m.a[1, 0]) == 0


def test_mult_matrix_su_unit_column():
    su = bf("s*u")
    m = coh_action(su, 0, (0, 0))
    basis = monomial_basis((1, 1))
    col = m.col(0)
    assert [int(x) for x in col] == [1 if mono == (1, 1) else 0 for mono in basis]


def test_mult_matrix_composition_law():
    rng = random.Random(9)
    for _ in range(10):
        dg = (rng.randrange(0, 2), rng.randrange(0, 2))
        dh = (rng.randrange(0, 2), rng.randrange(0, 2))
        g = BiForm.make(F, dg, {m: rng.randrange(F.p) for m in monomial_basis(dg)})
        h = BiForm.make(F, dh, {m: rng.randrange(F.p) for m in monomial_basis(dh)})
        src = (1, 1)
        lhs = coh_action(g, 0, (src[0] + dh[0], src[1] + dh[1])) @ coh_action(h, 0, src)
        assert lhs == coh_action(form_mul(g, h), 0, src)


def test_mult_matrix_additive():
    f1 = bf("s*u")
    f2 = bf("t*v")
    lhs = coh_action(form_add(f1, f2), 0, (1, 1))
    assert lhs == coh_action(f1, 0, (1, 1)) + coh_action(f2, 0, (1, 1))


def test_quadric_relation_between_diagonal_pieces():
    # su * tv = sv * tu as maps between any two diagonal pieces
    x0, x1, x2, x3 = (bf(n) for n in ("x0", "x1", "x2", "x3"))
    for d in range(0, 4):
        lhs = coh_action(x0, 0, (d + 1, d + 1)) @ coh_action(x3, 0, (d, d))
        rhs = coh_action(x1, 0, (d + 1, d + 1)) @ coh_action(x2, 0, (d, d))
        assert lhs == rhs


def test_evaluate():
    f = bf("s*u - t*v")
    assert int(f.evaluate(1, 1, 1, 1)) == 0
    assert int(f.evaluate(2, 1, 3, 1)) == 5
