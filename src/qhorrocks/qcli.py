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
Exit codes: 0 success, 1 property or verification failure, 2 parse or
validation error (a map that is not onto included), 3 precondition violation,
141 standard output closed by its reader (128 + SIGPIPE, as shells report).
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys

from .exactla import DEFAULT_PRIME, QhorrocksError, get_field
from .presheaf import strip_acm
from .horrocks import HorrocksTriple, extract_invariants, roundtrip, synthesize, triple_iso
from .generate import random_module, random_triple
from .stability import le_potier_check
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
            raise CliError(exc.args[0], 2) from exc
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
    except ValueError as exc:
        raise CliError(f"bundle load failed: {exc}", 2) from exc


def _load_triple(token: str, args) -> HorrocksTriple:
    text = _read_source(token, get_field(args.field))
    try:
        return textio.parse_triple_text(text)
    except ValueError as exc:
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
    except ValueError as exc:
        raise CliError(f"load failed: {exc}", 2) from exc


def _parse_window(spec: str) -> tuple[int, int]:
    match = re.fullmatch(r"([+-]?\d+)\.\.([+-]?\d+)", spec.strip())
    if match is None or int(match[1]) > int(match[2]):
        raise CliError(f"invalid window {spec!r}: expected lo..hi with integers lo <= hi", 2)
    return int(match[1]), int(match[2])


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
    given = {}
    for chunk in spec.split(","):
        match = re.fullmatch(r"\s*([+-]?\d+)@([+-]?\d+)\s*", chunk)
        if match is None:
            raise CliError(f"invalid --dims chunk {chunk!r}: expected n@d with integers n and d", 2)
        n, d = int(match[1]), int(match[2])
        if d in given:
            raise CliError(f"--dims chunk {chunk!r} repeats degree {d}", 2)
        given[d] = n
    out = {d: n for d, n in given.items() if n}
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


_OPTIONS = {
    "field": dict(default=str(DEFAULT_PRIME), help="field for built-in examples and generators: a prime or 'rationals'"),
    "format": dict(choices=("text", "records"), default="text"),
    "seed": dict(type=int, default=1),
    "trials": dict(type=int, default=200),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qhorrocks", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, positionals=(), options=()):
        """A subcommand that registers only the shared options its handler reads."""
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        for opt in options:
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
        p.set_defaults(fn=fn)
        return p

    p = command("cohomology", cmd_cohomology, "h0/h1/h2 table over diagonal and spinor strips",
                ["bundle"], ["field", "format"])
    p.add_argument("--window", default="-4..4")
    command("invariants", cmd_invariants, "extract the classifying triple", ["bundle"], ["field", "format"])
    command("synthesize", cmd_synthesize, "build a monad from a triple file", ["triple"], ["field", "seed"])
    command("roundtrip", cmd_roundtrip, "synthesize then re-extract and compare",
            ["triple"], ["field", "format", "seed", "trials"])
    command("strip-acm", cmd_strip_acm, "remove split ACM line bundle summands", ["bundle"], ["field"])
    command("iso", cmd_iso, "decide isomorphism of two bundles or triples",
            ["left", "right"], ["field", "format", "seed", "trials"])
    command("stability", cmd_stability, "section vanishing and jumping determinants",
            ["bundle"], ["field", "format"])
    p = command("random-module", cmd_random_module, "seeded random module, e.g. --dims 1@0",
                options=["field", "seed"])
    p.add_argument("--dims", required=True, help="dimension spec n@d[,n@d...]")
    p = command("random-triple", cmd_random_triple, "seeded random triple with admissible subspaces",
                options=["field", "seed"])
    p.add_argument("--dims", required=True)
    command("examples", cmd_examples, "list built-in example names")
    return ap


_EXIT_LABELS = {1: "verification failed", 2: "error", 3: "precondition"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(args) -> int:
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (QhorrocksError, ValueError) as exc:
        code = exc.exit_code if isinstance(exc, QhorrocksError) else 2
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
