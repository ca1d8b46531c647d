import random
from pathlib import Path

import numpy as np
import pytest

from qhorrocks.exactla import DEFAULT_PRIME, FieldMismatch, Matrix, PrimeField, RationalField
from qhorrocks import textio
from qhorrocks.bipoly import BiForm, parse_biform
from qhorrocks.linecoh import FormMatrix, spinor_shift
from qhorrocks.presheaf import KerPresentation, MonadPresentation, PrereqVanishingFailed
from qhorrocks.generate import random_module
from qhorrocks.flmod import (
    X_FORMS,
    FinLengthModule,
    InvalidModule,
    minimal_generators,
    minimal_presentation,
    module_from_bundle,
    module_iso,
    sigma_modules,
    socle_subspace,
)

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


def k_module(*degree_dims):
    dims = dict(degree_dims)
    return FinLengthModule(F, dims, {})


def test_k0_is_valid():
    m = k_module((0, 1))
    assert m.validation_report() == []
    assert sum(m.dims.values()) == 1


def test_two_step_module_valid():
    # k + k in degrees 0, 1 with x0 the only nonzero action
    ops = {(0, 0): Matrix.make(F, [[1]])}
    m = FinLengthModule(F, {0: 1, 1: 1}, ops)
    assert m.validation_report() == []


def test_noncommuting_module_invalid():
    # x0 and x1 both act M_0 -> M_1, but x0 x1 != x1 x0 out of degree 0
    ops = {
        (0, 0): Matrix.make(F, [[1], [0]]),
        (1, 0): Matrix.make(F, [[0], [1]]),
        (0, 1): Matrix.make(F, [[0, 1]]),
        (1, 1): Matrix.make(F, [[0, 0]]),
    }
    m = FinLengthModule(F, {0: 1, 1: 2, 2: 1}, ops)
    with pytest.raises(InvalidModule):
        m.validate()


def test_quadric_relation_enforced():
    # x0, x3 nonzero with x0 x3 != x1 x2 = 0
    ops = {
        (0, 0): Matrix.make(F, [[1]]),
        (3, 0): Matrix.make(F, [[1]]),
        (0, 1): Matrix.make(F, [[0]]),
        (1, 1): Matrix.make(F, [[0]]),
        (2, 1): Matrix.make(F, [[0]]),
        (3, 1): Matrix.make(F, [[1]]),
    }
    m = FinLengthModule(F, {0: 1, 1: 1, 2: 1}, ops)
    bad = m.validation_report()
    assert any("x0 x3" in b for b in bad)


def test_minimal_generators_k0():
    gens = minimal_generators(k_module((0, 1)))
    assert list(gens) == [0]
    assert gens[0][0].cols == 1


def test_minimal_generators_k2_minus1():
    gens = minimal_generators(k_module((-1, 2)))
    assert list(gens) == [-1]
    assert gens[-1][0].cols == 2


def test_minimal_generators_skip_reachable_degrees():
    ops = {(0, 0): Matrix.make(F, [[1]])}
    m = FinLengthModule(F, {0: 1, 1: 1}, ops)
    gens = minimal_generators(m)
    assert list(gens) == [0]


def test_minimal_presentation_k0():
    pres = minimal_presentation(k_module((0, 1)))
    assert pres.L0 == ((0, 0),)
    assert pres.L1 == ((-1, -1),) * 4
    # the four relation columns are exactly the coordinate forms
    names = sorted(str(pres.psi.entries[0][j]) for j in range(4))
    assert names == ["s*u", "s*v", "t*u", "t*v"]


def test_minimal_presentation_k2_minus1():
    pres = minimal_presentation(k_module((-1, 2)))
    assert pres.L0 == ((1, 1), (1, 1))
    assert len(pres.L1) == 8 and all(t == (0, 0) for t in pres.L1)


def test_minimal_presentation_of_zero():
    pres = minimal_presentation(k_module())
    assert pres.L0 == () and pres.L1 == ()


def test_minimal_presentation_truncated_square_free_quotient():
    # the coordinate ring modulo all quadrics, truncated: one generator and
    # nine relation columns in degree two, verified by recomputation
    from qhorrocks.bipoly import BiForm
    from qhorrocks.linecoh import h0_mult_on_split

    ops = {}
    gens = ((0, 0),)
    for k, name in enumerate(("x0", "x1", "x2", "x3")):
        ops[(k, 0)] = h0_mult_on_split(gens, BiForm.variable(F, name), (0, 0))
    m = FinLengthModule(F, {0: 1, 1: 4}, ops).validate()
    pres = minimal_presentation(m)
    assert pres.L0 == ((0, 0),)
    assert pres.L1 == ((-2, -2),) * 9


PRESENTATION_FIELDS = [PrimeField(2), PrimeField(5), F, RationalField()]
# the last two have a gap in their support
PRESENTATION_DIMS = [{0: 2, 1: 3}, {-1: 1, 0: 2, 1: 1}, {0: 1, 2: 2}, {-1: 2, 1: 1, 2: 1}]


def _random_presented(F, dims, seed):
    m = random_module(F, random.Random(seed), dims)
    assert m.dims == dims
    return m, minimal_presentation(m)


@pytest.mark.parametrize("dims", PRESENTATION_DIMS, ids=str)
@pytest.mark.parametrize("F", PRESENTATION_FIELDS, ids=lambda f: f.name)
def test_minimal_presentation_relations_stop_one_degree_above_the_top(F, dims):
    m, pres = _random_presented(F, dims, 31)
    assert pres.L1
    assert all(a >= -m.hi - 1 and b >= -m.hi - 1 for a, b in pres.L1)


@pytest.mark.parametrize("dims", PRESENTATION_DIMS, ids=str)
@pytest.mark.parametrize("F", PRESENTATION_FIELDS, ids=lambda f: f.name)
def test_minimal_presentation_pi_is_a_module_surjection(F, dims):
    from qhorrocks.bipoly import BiForm
    from qhorrocks.linecoh import h0_mult_on_split

    m, pres = _random_presented(F, dims, 32)
    for d in range(m.lo - 1, m.hi + 1):
        assert pres.pi_at(d).rank() == m.dim(d)
        for k, name in enumerate(X_FORMS):
            mul = h0_mult_on_split(pres.L0, BiForm.variable(F, name), (d, d))
            assert pres.pi_at(d + 1) @ mul == m.op(k, d) @ pres.pi_at(d), (d, k)


@pytest.mark.parametrize("dims", PRESENTATION_DIMS, ids=str)
@pytest.mark.parametrize("F", PRESENTATION_FIELDS, ids=lambda f: f.name)
def test_minimal_presentation_cokernel_is_the_module(F, dims):
    from qhorrocks.linecoh import induced_h

    m, pres = _random_presented(F, dims, 33)
    assert pres.verified_window == (m.lo, m.hi + 3)
    for d in range(m.lo - 1, m.hi + 4):
        mat = induced_h(pres.psi, 0, (d, d))
        assert mat.rows - mat.rank() == m.dim(d), d


def test_minimal_presentation_roundtrip_dims():
    # a module with a nontrivial operator: S(Q)/(ideal) truncated by hand;
    # dims 1, 1 with x0 acting as identity
    ops = {(0, 0): Matrix.make(F, [[1]])}
    m = FinLengthModule(F, {0: 1, 1: 1}, ops).validate()
    pres = minimal_presentation(m)
    mm = module_from_bundle(pres.F)
    assert {d: mm.module.dim(d) for d in mm.module.support()} == {0: 1, 1: 1}
    # and the recovered operators act the same after the canonical iso
    iso = module_iso(m, mm.module, trials=50, rng=random.Random(1))
    assert iso is not None


def test_minimal_presentation_no_units_no_zero_columns():
    rng = random.Random(23)
    for _ in range(5):
        pres = _random_presentation(rng)
        for j in range(len(pres.L1)):
            col = [pres.psi.entries[i][j] for i in range(len(pres.L0))]
            assert any(not f.is_zero() for f in col)
            for f in col:
                if f.deg == (0, 0):
                    assert f.is_zero()


def _random_presentation(rng):
    dims = {0: rng.randrange(1, 3), 1: rng.randrange(1, 4)}
    return minimal_presentation(_quotient_module(rng, dims))


def _quotient_module(rng, target_dims, F=F):
    """Random quotient of a free module: dims as requested, operators induced."""
    from qhorrocks.bipoly import BiForm
    from qhorrocks.linecoh import h0_mult_on_split, split_dims
    from qhorrocks.exactla import quotient_data, span_basis

    lo, hi = min(target_dims), max(target_dims)
    n0 = target_dims[lo]
    L0 = tuple((-lo, -lo) for _ in range(n0))
    kill: dict[int, Matrix] = {}
    proj: dict[int, Matrix] = {}
    reps: dict[int, Matrix] = {}
    dims: dict[int, int] = {}
    for d in range(lo, hi + 2):
        amb = sum(split_dims(0, L0, (d, d)))
        want = target_dims.get(d, 0) if d <= hi else 0
        if d == lo:
            killed = []
        else:
            carried = []
            prev_kill = kill[d - 1]
            for name in ("x0", "x1", "x2", "x3"):
                mul = h0_mult_on_split(L0, BiForm.variable(F, name), (d - 1, d - 1))
                if prev_kill.cols:
                    carried.extend(list((mul @ prev_kill).columns()))
            killed = list(span_basis(F, carried, amb).columns())
            guard = 0
            while amb - span_basis(F, killed, amb).cols > want:
                v = F.zeros(amb, 1)[:, 0]
                for i in range(amb):
                    v[i] = F.random_scalar(rng)
                killed.append(v)
                guard += 1
                if guard > 200:
                    raise RuntimeError("random module construction stalled")
        kill[d] = span_basis(F, killed, amb)
        r, p = quotient_data(kill[d])
        reps[d], proj[d] = r, p
        dims[d] = r.cols
    ops = {}
    for d in range(lo, hi + 1):
        for k, name in enumerate(("x0", "x1", "x2", "x3")):
            mul = h0_mult_on_split(L0, BiForm.variable(F, name), (d, d))
            ops[(k, d)] = proj[d + 1] @ (mul @ reps[d])
    m = FinLengthModule(F, {d: n for d, n in dims.items() if d <= hi and n}, ops)
    return m.validate()


def test_module_from_bundle_examples():
    # the restricted cotangent presentation gives k in degree 0
    p = KerPresentation(gm([(-1, -1)] * 4, [(0, 0)], [["x0", "x1", "x2", "x3"]]))
    mm = module_from_bundle(p)
    assert {d: mm.module.dim(d) for d in mm.module.support()} == {0: 1}
    # the [s,t] kernel is O(-2,0): same module
    p2 = KerPresentation(gm([(-1, 0), (-1, 0)], [(0, 0)], [["s", "t"]]))
    mm2 = module_from_bundle(p2)
    assert {d: mm2.module.dim(d) for d in mm2.module.support()} == {0: 1}


def test_module_from_bundle_lepotier():
    src = [(0, 1), (0, 1), (1, 0), (1, 0)]
    dst = [(1, 1), (1, 1)]
    p = KerPresentation(gm(src, dst, [["s", "t", "u", "v"], ["0-t", "s-2*t", "v", "0"]]))
    mm = module_from_bundle(p)
    assert {d: mm.module.dim(d) for d in mm.module.support()} == {-1: 2}


def test_module_from_bundle_free_is_zero():
    p = KerPresentation(FormMatrix.zero(F, ((0, 0), (2, 2)), ()))
    mm = module_from_bundle(p)
    assert mm.module.is_zero


def _companion_dims(t):
    return {side: {d: model.dim for d, model in t.fam[side].items()} for side in (1, 2)}


def test_sigma_modules_omega1():
    pres = minimal_presentation(k_module((0, 1)))
    t = sigma_modules(pres)
    assert _companion_dims(t) == {1: {0: 2}, 2: {0: 2}}


def test_sigma_modules_example2():
    pres = minimal_presentation(k_module((-1, 2)))
    t = sigma_modules(pres)
    assert _companion_dims(t) == {1: {-1: 4}, 2: {-1: 4}}


def test_sigma_modules_free_module():
    pres = minimal_presentation(k_module())
    t = sigma_modules(pres)
    assert _companion_dims(t) == {1: {}, 2: {}} and t.kill == {1: {}, 2: {}}


def test_presentation_roundtrip_exact_through_canonical_iso():
    # the chosen surjection identifies the recomputed cokernel module with
    # the input exactly: operators match through pi on the coker-model
    # representatives, on the nose
    m = _quotient_module(random.Random(17), {0: 2, 1: 3})
    pres = minimal_presentation(m)
    iso = {d: pres.pi_at(d) @ pres.F.h1_model((d, d)).reps for d in m.support()}
    mm = module_from_bundle(pres.F)
    for d in mm.module.support():
        if m.dim(d + 1) == 0:
            continue
        for k in range(4):
            lhs = iso[d + 1] @ mm.module.op(k, d)
            rhs = m.op(k, d) @ iso[d]
            assert lhs == rhs, (d, k)


def test_sigma_cross_operators_compose_to_diagonal():
    # s out of the diagonal, then u out of the O(1,0) companion, is x0, and
    # friends; the diagonal operators are computed here from the presentation
    pres = minimal_presentation(_quotient_module(random.Random(5), {0: 2, 1: 2}))
    t = sigma_modules(pres)
    kp = pres.F
    mm = module_from_bundle(kp)

    def companion(side, k, d):
        if d in t.kill[side]:
            return t.kill[side][d][k]
        assert kp.h1_model(spinor_shift(side, d)).dim == 0
        return Matrix.zeros(F, kp.h1_model((d + 1, d + 1)).dim, 0)

    def diagonal(var, d):
        return kp.mult_model(BiForm.variable(F, var), (d, d))

    for d in mm.module.support():
        x0, x3 = mm.module.op(0, d), mm.module.op(3, d)
        assert companion(1, 0, d) @ diagonal("s", d) == x0
        assert companion(2, 0, d) @ diagonal("u", d) == x0
        assert companion(1, 1, d) @ diagonal("t", d) == x3
        assert companion(2, 1, d) @ diagonal("v", d) == x3


def test_socle_full_for_omega1():
    pres = minimal_presentation(k_module((0, 1)))
    t = sigma_modules(pres)
    soc = socle_subspace(t, 1)
    assert list(soc) == [0] and soc[0].cols == 2
    soc2 = socle_subspace(t, 2)
    assert list(soc2) == [0] and soc2[0].cols == 2


def test_socle_example2_full():
    pres = minimal_presentation(k_module((-1, 2)))
    t = sigma_modules(pres)
    soc = socle_subspace(t, 1)
    assert soc[-1].cols == 4


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("F", PRESENTATION_FIELDS, ids=lambda f: f.name)
def test_socle_annihilation_property(F, side):
    # the socle is the whole common kernel of the two variables of the other
    # factor, multiplied here straight from the presentation
    _m, pres = _random_presented(F, {0: 2, 1: 3}, 7)
    t = sigma_modules(pres)
    soc = socle_subspace(t, side)
    assert set(soc) <= set(t.fam[side])
    for d, model in t.fam[side].items():
        basis = soc.get(d, Matrix.zeros(F, model.dim, 0))
        ops = [pres.F.mult_model(BiForm.variable(F, var), spinor_shift(side, d)) for var in ("uv" if side == 1 else "st")]
        for op in ops:
            assert (op @ basis).is_zero()
        stacked = Matrix(F, np.concatenate([op.a for op in ops], axis=0))
        assert basis.cols == model.dim - stacked.rank() == basis.rank()


def test_module_iso_self():
    m = _quotient_module(random.Random(9), {0: 2, 1: 2})
    iso = module_iso(m, m, trials=50, rng=random.Random(2))
    assert iso is not None
    for d in m.support():
        assert iso[d].rank() == m.dim(d)


def test_module_iso_degree_mismatch():
    assert module_iso(k_module((0, 1)), k_module((1, 1))) is None


def test_module_iso_rejects_modules_over_different_fields():
    with pytest.raises(FieldMismatch):
        module_iso(k_module((0, 1)), FinLengthModule(PrimeField(7), {0: 1}, {}))


@pytest.mark.parametrize("F", [F, PrimeField(5), RationalField()], ids=lambda f: f.name)
def test_module_iso_conjugated(F):
    m = _quotient_module(random.Random(13), {0: 2, 1: 3}, F)
    rng = random.Random(4)
    # conjugate by random invertible degreewise maps
    from reference import random_matrix

    conj = {}
    for d in m.support():
        while True:
            c = random_matrix(F, rng, m.dim(d), m.dim(d))
            if c.rank() == m.dim(d):
                conj[d] = c
                break
    ops = {}
    for (k, d), op in m.ops.items():
        if d in conj and (d + 1) in conj:
            inv = conj[d + 1].solve_matrix(Matrix.identity(F, m.dim(d + 1)))
            ops[(k, d)] = inv @ (op @ conj[d])
        else:
            ops[(k, d)] = op
    m2 = FinLengthModule(F, dict(m.dims), ops).validate()
    iso = module_iso(m, m2, trials=200, rng=random.Random(6))
    assert iso is not None
    for d in m.support():
        if m.dim(d + 1) == 0:
            continue
        for k in range(4):
            assert (iso[d + 1] @ m.op(k, d)) == (m2.op(k, d) @ iso[d])


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "roundtrip"


def test_module_from_bundle_chases_h1k_map_only_where_k_has_h1(monkeypatch):
    calls = []
    chase = MonadPresentation.h1k_map
    monkeypatch.setattr(MonadPresentation, "h1k_map", lambda self, e: calls.append(e) or chase(self, e))
    # a spinor twist of K has no H1 at any diagonal twist, so the corpus monads need no chase at all
    for path in sorted(CORPUS.glob("*.monad"))[:6]:
        assert module_from_bundle(textio.parse_bundle_text(path.read_text())).module.dims
    assert calls == []
    # O(2, 0) added to K and A by the identity, with psi zero on it: H1(O(2, 0)(-2, -2)) = 1 lies in the
    # window, and the chase there refuses as it always did, before the window check could
    m = textio.parse_bundle_text((CORPUS / "t01.monad").read_text())
    one = BiForm.constant(m.field, 1)
    kappa = FormMatrix.make(m.field, m.K + ((2, 0),), m.A + ((2, 0),), [(*row, 0) for row in m.kappa.entries] + [(0,) * len(m.K) + (one,)])
    psi = FormMatrix.make(m.field, m.A + ((2, 0),), m.B, [(*row, 0) for row in m.psi.entries])
    with pytest.raises(PrereqVanishingFailed, match=r"H1 of the middle term is nonzero at shift \(-2, -2\)"):
        module_from_bundle(MonadPresentation(kappa, psi))
    assert calls == [(-2, -2)]
