"""Seeded random modules and triples, for property tests and benchmark corpora.

Both generators draw every random choice from the `rng` they are given, so
a seed fixes the output.  A dimension request that cannot be met raises
ValueError.
"""

from __future__ import annotations

from .exactla import Matrix, quotient_data, span_basis
from .bipoly import BiForm
from .linecoh import h0_mult_on_split, split_h
from .flmod import X_FORMS, FinLengthModule, minimal_presentation, sigma_modules, socle_subspace
from .horrocks import HorrocksTriple


def random_module(field, rng, dims: dict[int, int]) -> FinLengthModule:
    """A random module with the requested piece dimensions.

    Built as a random quotient of a free module with one generator block per
    requested degree: degreewise, a random complement of the carried
    relations is killed until the piece has the requested dimension.
    """
    for d, n in dims.items():
        if n < 0:
            raise ValueError(f"negative dimension {n} requested at degree {d}")
    lo, hi = min(dims), max(dims)
    gens = tuple((-d, -d) for d in sorted(dims) for _ in range(dims[d]))
    kill: dict[int, Matrix] = {}
    reps: dict[int, Matrix] = {}
    proj: dict[int, Matrix] = {}
    got: dict[int, int] = {}
    for d in range(lo, hi + 2):
        amb = split_h(gens, (d, d))[0]
        want = dims.get(d, 0) if d <= hi else 0
        killed = []
        if d - 1 in kill and kill[d - 1].cols:
            for name in X_FORMS:
                mul = h0_mult_on_split(gens, BiForm.variable(field, name), (d - 1, d - 1))
                killed.extend(list((mul @ kill[d - 1]).columns()))
        killed = list(span_basis(field, killed, amb).columns())
        guard = 0
        while amb - span_basis(field, killed, amb).cols > want:
            v = field.zeros(amb, 1)[:, 0]
            for i in range(amb):
                v[i] = field.random_scalar(rng)
            killed.append(v)
            guard += 1
            if guard > 500:
                raise ValueError("random module generation stalled")
        kill[d] = span_basis(field, killed, amb)
        r, p = quotient_data(kill[d])
        reps[d], proj[d] = r, p
        got[d] = r.cols
    for d, n in dims.items():
        if got.get(d, 0) != n:
            raise ValueError(f"requested dimension {n} at degree {d} is not attainable")
    ops = {}
    for d in range(lo, hi + 1):
        for k, name in enumerate(X_FORMS):
            mul = h0_mult_on_split(gens, BiForm.variable(field, name), (d, d))
            ops[(k, d)] = proj[d + 1] @ (mul @ reps[d])
    m = FinLengthModule(field, {d: n for d, n in got.items() if d <= hi and n}, ops)
    return m.validate()


def random_triple(field, rng, dims: dict[int, int]) -> HorrocksTriple:
    """A random module with random admissible socle subspaces on both sides."""
    m = random_module(field, rng, dims)
    pres = minimal_presentation(m)
    t = sigma_modules(pres)
    triple = HorrocksTriple(pres, t, {}, {})
    for side, sub in ((1, triple.W), (2, triple.V)):
        fam = t.fam[side]
        for d, basis in socle_subspace(t, side).items():
            take = rng.randrange(0, basis.cols + 1)
            vecs = [basis @ [field.random_scalar(rng) for _ in range(basis.cols)] for _ in range(take)]
            span = span_basis(field, vecs, fam[d].dim)
            if span.cols:
                sub[d] = span
    return triple.validate()
