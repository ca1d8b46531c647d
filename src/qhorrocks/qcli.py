"""Command line front end.

Subcommands mirror the library pipeline:

    cohomology   table of h0, h1, h2 over the diagonal and spinor strips
    invariants   extract the triple of a bundle file (prints a triple file)
    synthesize   build a monad bundle file from a triple file
    roundtrip    synthesize, re-extract and compare against the input triple
    strip-acm    remove split ACM line bundle summands from a gamma bundle
    iso          compare the triples of two bundle or triple files
    stability    section-vanishing test and jumping determinants
    random-module / random-triple   seeded generators for property testing
    examples     list the built-in fixture names

Files may be paths or `example:<name>` references to the built-in corpus.
Exit codes: 0 success, 1 property or verification failure, 2 parse,
validation or undecided-input error, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import random
import sys

from .exactla import DEFAULT_PRIME, FieldMismatch, NoSolution, get_field
from .bipoly import ParseError
from .linecoh import Undecided
from .presheaf import (
    InternalInvariantViolation,
    MonadPresentation,
    NotSurjective,
    PrereqVanishingFailed,
    VerificationFailed,
    strip_acm,
)
from .flmod import BoundExceeded, InvalidModule
from .horrocks import (
    ExactnessViolation,
    HorrocksTriple,
    LiftFailed,
    NotGammaForm,
    NotMinimalGamma,
    extract_invariants,
    roundtrip,
    synthesize,
    triple_iso,
)
from .generate import random_module, random_triple
from .stability import ShapeMismatch, le_potier_check
from . import fixtures, textio


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read_source(token: str, field) -> str:
    if token.startswith("example:") or token in fixtures.fixture_names():
        name = token.split(":", 1)[1] if ":" in token else token
        try:
            rep = fixtures.load_fixture(name, field)
        except KeyError as exc:
            raise CliError(str(exc), 2) from exc
        return textio.format_bundle_text(rep)
    try:
        with open(token, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {token}: {exc}", 2) from exc


def _load_bundle(token: str, args):
    text = _read_source(token, get_field(args.field))
    try:
        return textio.parse_bundle_text(text)
    except (ParseError, NotSurjective, ValueError) as exc:
        raise CliError(f"bundle load failed: {exc}", 2) from exc


def _load_triple(token: str, args) -> HorrocksTriple:
    text = _read_source(token, get_field(args.field))
    try:
        return textio.parse_triple_text(text)
    except (ParseError, InvalidModule, ValueError) as exc:
        raise CliError(f"triple load failed: {exc}", 2) from exc


def _load_any(token: str, args):
    text = _read_source(token, get_field(args.field))
    lines = [l for l in text.splitlines() if l.strip()]
    if len(lines) < 2:
        raise CliError(f"{token}: not a module, bundle or triple file", 2)
    try:
        if lines[1].strip() == "triple":
            return textio.parse_triple_text(text)
        return textio.parse_bundle_text(text)
    except (ParseError, InvalidModule, NotSurjective, ValueError) as exc:
        raise CliError(f"load failed: {exc}", 2) from exc


def _parse_window(spec: str) -> tuple[int, int]:
    lo, hi = spec.split("..")
    return int(lo), int(hi)


def _emit(records: bool, pairs, text_lines):
    if records:
        for k, v in pairs:
            print(f"{k}={v}")
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def cmd_cohomology(args) -> int:
    rep = _load_bundle(args.bundle, args)
    lo, hi = _parse_window(args.window)
    table = rep.table(lo, hi)
    pairs = []
    lines = [f"{'d':>4} | {'O(d)':^11} | {'S1(d)':^11} | {'S2(d)':^11}", "-" * 48]
    for d in range(lo, hi + 1):
        cells = []
        for kind in ("o", "s1", "s2"):
            h = table[(kind, d)]
            cells.append(f"{h[0]:>3} {h[1]:>3} {h[2]:>3}")
            for i in (0, 1, 2):
                pairs.append((f"h{i}.{kind}.{d}", h[i]))
        lines.append(f"{d:>4} | {cells[0]} | {cells[1]} | {cells[2]}")
    _emit(args.format == "records", pairs, ["cohomology (h0 h1 h2 per column)"] + lines)
    return 0


def cmd_invariants(args) -> int:
    rep = _load_bundle(args.bundle, args)
    ext = extract_invariants(rep)
    if args.format == "records":
        t = ext.triple
        pairs = [("module.dims", " ".join(f"{d}:{t.module.dim(d)}" for d in t.module.support()))]
        for d in sorted(t.W):
            pairs.append((f"W.dim.{d}", t.W[d].cols))
        for d in sorted(t.V):
            pairs.append((f"V.dim.{d}", t.V[d].cols))
        _emit(True, pairs, [])
    else:
        sys.stdout.write(textio.format_triple_text(ext.triple))
    return 0


def cmd_synthesize(args) -> int:
    triple = _load_triple(args.triple, args)
    monad = synthesize(triple, rng=random.Random(args.seed))
    sys.stdout.write(textio.format_bundle_text(monad))
    return 0


def cmd_roundtrip(args) -> int:
    triple = _load_triple(args.triple, args)
    report = roundtrip(triple, trials=args.trials, rng=random.Random(args.seed))
    pairs = [("ok", int(report.ok))]
    lines = []
    for note in report.notes:
        lines.append(note)
    lines.append("roundtrip: " + ("pass" if report.ok else "FAIL"))
    _emit(args.format == "records", pairs, lines)
    return 0 if report.ok else 1


def cmd_strip_acm(args) -> int:
    rep = _load_bundle(args.bundle, args)
    if isinstance(rep, MonadPresentation):
        raise CliError("summand stripping applies to gamma-form bundle files", 3)
    stripped, removed = strip_acm(rep)
    for t in removed:
        print(f"# removed O{t}", file=sys.stderr)
    sys.stdout.write(textio.format_bundle_text(stripped))
    return 0


def cmd_iso(args) -> int:
    left = _load_any(args.left, args)
    right = _load_any(args.right, args)
    t1 = left if isinstance(left, HorrocksTriple) else extract_invariants(left).triple
    t2 = right if isinstance(right, HorrocksTriple) else extract_invariants(right).triple
    witness = triple_iso(t1, t2, trials=args.trials, rng=random.Random(args.seed))
    if witness is None:
        _emit(args.format == "records", [("isomorphic", 0), ("trials", args.trials)],
              [f"no isomorphism found in {args.trials} trials (not a disproof)"])
        return 1
    _emit(args.format == "records", [("isomorphic", 1), ("trials", witness.trials_used)],
          [f"isomorphic (found at trial {witness.trials_used})"])
    return 0


def cmd_stability(args) -> int:
    rep = _load_bundle(args.bundle, args)
    if isinstance(rep, MonadPresentation):
        raise CliError("stability report needs a gamma-form bundle file", 3)
    report = le_potier_check(rep)
    pairs = [
        ("h0", report.h0),
        ("h0.right", report.h0_right),
        ("h0.left", report.h0_left),
        ("stable", int(report.stable)),
    ]
    lines = [
        f"h0(E) = {report.h0}, h0(E(1,-1)) = {report.h0_right}, h0(E(-1,1)) = {report.h0_left}",
        "le Potier stable" if report.stable else "not le Potier stable",
    ]
    if report.det_st is not None:
        pairs.append(("det.st.repeated", int(report.det_st.has_repeated_root)))
        pairs.append(("det.uv.repeated", int(report.det_uv.has_repeated_root)))
        lines.append(f"det(st block): {report.det_st.describe()}")
        lines.append(f"det(uv block): {report.det_uv.describe()}")
    _emit(args.format == "records", pairs, lines)
    return 0


def _parse_dims(spec: str) -> dict[int, int]:
    out = {}
    for chunk in spec.split(","):
        n, d = chunk.strip().split("@")
        if int(n):
            out[int(d)] = int(n)
    if not out:
        raise CliError("empty dimension specification", 2)
    return out


def cmd_random_module(args) -> int:
    field = get_field(args.field)
    m = random_module(field, random.Random(args.seed), _parse_dims(args.dims))
    sys.stdout.write(textio.format_module_text(m))
    return 0


def cmd_random_triple(args) -> int:
    field = get_field(args.field)
    t = random_triple(field, random.Random(args.seed), _parse_dims(args.dims))
    sys.stdout.write(textio.format_triple_text(t))
    return 0


def cmd_examples(args) -> int:
    for name in fixtures.fixture_names():
        print(name)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qhorrocks", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default=str(DEFAULT_PRIME),
                       help="field for built-in examples and generators: a prime or 'rationals'")
        p.add_argument("--format", choices=("text", "records"), default="text")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("cohomology", help="h0/h1/h2 table over diagonal and spinor strips")
    p.add_argument("bundle")
    p.add_argument("--window", default="-4..4")
    common(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("invariants", help="extract the classifying triple")
    p.add_argument("bundle")
    common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("synthesize", help="build a monad from a triple file")
    p.add_argument("triple")
    common(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("roundtrip", help="synthesize then re-extract and compare")
    p.add_argument("triple")
    common(p)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("strip-acm", help="remove split ACM line bundle summands")
    p.add_argument("bundle")
    common(p)
    p.set_defaults(fn=cmd_strip_acm)

    p = sub.add_parser("iso", help="decide isomorphism of two bundles or triples")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("stability", help="section vanishing and jumping determinants")
    p.add_argument("bundle")
    common(p)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("random-module", help="seeded random module, e.g. --dims 1@0")
    p.add_argument("--dims", required=True, help="dimension spec n@d[,n@d...]")
    common(p)
    p.set_defaults(fn=cmd_random_module)

    p = sub.add_parser("random-triple", help="seeded random triple with admissible subspaces")
    p.add_argument("--dims", required=True)
    common(p)
    p.set_defaults(fn=cmd_random_triple)

    p = sub.add_parser("examples", help="list built-in example names")
    common(p)
    p.set_defaults(fn=cmd_examples)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NotMinimalGamma, NotGammaForm, ShapeMismatch, PrereqVanishingFailed) as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    except (ParseError, InvalidModule, NotSurjective, Undecided, FieldMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        VerificationFailed,
        InternalInvariantViolation,
        LiftFailed,
        BoundExceeded,
        ExactnessViolation,
        NoSolution,
    ) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
