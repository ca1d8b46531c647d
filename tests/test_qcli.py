import builtins
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qhorrocks.exactla import DEFAULT_PRIME, NoSolution, PrimeField, QhorrocksError
from qhorrocks import bipoly, exactla, flmod, horrocks, linecoh, presheaf, qcli, stability, textio, fixtures
from qhorrocks.qcli import main, random_module, random_triple
from qhorrocks.flmod import BoundExceeded
from qhorrocks.presheaf import InternalInvariantViolation
from qhorrocks.horrocks import ExactnessViolation, LiftFailed
from qhorrocks.flmod import FinLengthModule
from qhorrocks.horrocks import extract_invariants

F = PrimeField(DEFAULT_PRIME)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_module_file_roundtrip():
    m = random_module(F, random.Random(3), {0: 2, 1: 2})
    text = textio.format_module_text(m)
    m2 = textio.parse_module_text(text)
    assert textio.format_module_text(m2) == text


def test_bundle_file_roundtrip():
    rep = fixtures.load_fixture("lepotier", F)
    text = textio.format_bundle_text(rep)
    rep2 = textio.parse_bundle_text(text)
    assert textio.format_bundle_text(rep2) == text


def test_monad_file_roundtrip():
    from qhorrocks.horrocks import synthesize

    ext = extract_invariants(fixtures.load_fixture("o-20", F))
    monad = synthesize(ext.triple, rng=random.Random(2))
    text = textio.format_bundle_text(monad)
    monad2 = textio.parse_bundle_text(text)
    assert textio.format_bundle_text(monad2) == text


def test_triple_file_roundtrip():
    ext = extract_invariants(fixtures.load_fixture("case5", F))
    text = textio.format_triple_text(ext.triple)
    t2 = textio.parse_triple_text(text)
    assert textio.format_triple_text(t2) == text


def test_fixture_files_all_roundtrip():
    for name in fixtures.fixture_names():
        rep = fixtures.load_fixture(name, F)
        text = textio.format_bundle_text(rep)
        assert textio.format_bundle_text(textio.parse_bundle_text(text)) == text


def test_cli_cohomology_omega1(capsys):
    code, out, err = run_cli(capsys, "cohomology", "example:omega1", "--window=-2..2")
    assert code == 0
    # the h1 column of the diagonal shows a single 1 at degree 0
    rows = [l for l in out.splitlines() if l.strip() and l.lstrip()[0] in "-0123456789"]
    h1_by_degree = {}
    for row in rows:
        parts = row.split("|")
        if len(parts) == 4:
            d = int(parts[0])
            h1_by_degree[d] = int(parts[1].split()[1])
    assert h1_by_degree == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}


def test_cli_cohomology_records(capsys):
    code, out, err = run_cli(capsys, "cohomology", "lepotier", "--window", "0..0", "--format", "records")
    assert code == 0
    records = dict(line.split("=") for line in out.splitlines())
    assert records["h0.o.0"] == "0"


def test_cli_invariants_o20(capsys):
    code, out, err = run_cli(capsys, "invariants", "example:o-20")
    assert code == 0
    t = textio.parse_triple_text(out)
    assert t.w_dim(0) == 2 and t.v_dim(0) == 0


def test_cli_invariants_lepotier_records(capsys):
    code, out, err = run_cli(capsys, "invariants", "example:lepotier", "--format", "records")
    assert code == 0
    records = dict(line.split("=") for line in out.splitlines())
    assert records["W.dim.-1"] == "2" and records["V.dim.-1"] == "2"


def test_cli_invariants_unstripped_exit3(capsys, tmp_path):
    base = fixtures.load_fixture("o-20", F)
    from qhorrocks.linecoh import FormMatrix, form_hstack
    from qhorrocks.presheaf import KerPresentation

    g2 = form_hstack([base.g, FormMatrix.zero(F, ((-1, -1),), base.B)])
    padded = KerPresentation(g2, verify=False)
    path = tmp_path / "padded.bundle"
    path.write_text(textio.format_bundle_text(padded))
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 3
    assert "strip" in err


def test_cli_strip_then_invariants(capsys, tmp_path):
    base = fixtures.load_fixture("lepotier", F)
    from qhorrocks.linecoh import FormMatrix, form_hstack
    from qhorrocks.presheaf import KerPresentation

    g2 = form_hstack([base.g, FormMatrix.zero(F, ((1, 0),), base.B)])
    padded = KerPresentation(g2, verify=False)
    path = tmp_path / "padded.bundle"
    path.write_text(textio.format_bundle_text(padded))
    code, out, err = run_cli(capsys, "strip-acm", str(path))
    assert code == 0
    assert "removed O(1, 0)" in err
    stripped = textio.parse_bundle_text(out)
    assert len(stripped.A) == 4


def test_cli_synthesize_and_roundtrip(capsys, tmp_path):
    code, out, err = run_cli(capsys, "invariants", "example:o-20")
    assert code == 0
    path = tmp_path / "t.triple"
    path.write_text(out)
    code, out2, err = run_cli(capsys, "synthesize", str(path), "--seed", "4")
    assert code == 0
    monad = textio.parse_bundle_text(out2)
    assert monad.rank == 1
    code, out3, err = run_cli(capsys, "roundtrip", str(path), "--trials", "150", "--seed", "5")
    assert code == 0
    assert "pass" in out3


def test_cli_iso_split_vs_stable(capsys):
    code, out, err = run_cli(capsys, "iso", "example:split-sum", "example:lepotier", "--trials", "80")
    assert code == 1
    code, out, err = run_cli(capsys, "iso", "example:lepotier", "example:lepotier")
    assert code == 0


def test_cli_stability(capsys):
    code, out, err = run_cli(capsys, "stability", "example:lepotier")
    assert code == 0
    assert "le Potier stable" in out and "repeated root" in out
    code, out, err = run_cli(capsys, "stability", "example:split-sum")
    assert code == 0
    assert "not le Potier stable" in out
    code, out, err = run_cli(capsys, "stability", "example:null-corr-family")
    assert code == 0
    assert "le Potier stable" in out.splitlines()[1]
    assert "distinct roots" in out


def test_cli_stability_rank_guard(capsys):
    code, out, err = run_cli(capsys, "stability", "example:omega1")
    assert code == 3


@pytest.mark.parametrize(
    "command, says",
    [("strip-acm", "summand stripping applies to gamma-form bundle files"), ("stability", "stability report needs a gamma-form bundle file")],
)
def test_cli_refuses_a_monad_file_where_a_gamma_form_is_needed(capsys, command, says):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "roundtrip" / "t00.monad"
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out, err) == (3, "", f"precondition: {says}\n")


def test_cli_random_module_k0(capsys):
    code, out, err = run_cli(capsys, "random-module", "--dims", "1@0", "--seed", "7")
    assert code == 0
    m = textio.parse_module_text(out)
    assert {d: m.dim(d) for d in m.support()} == {0: 1}
    # k in degree 0 has zero operators: reproduced exactly
    code2, out2, err2 = run_cli(capsys, "random-module", "--dims", "1@0", "--seed", "8")
    assert out2 == out


def test_cli_random_module_seed_stability(capsys):
    a = run_cli(capsys, "random-module", "--dims", "2@0,2@1", "--seed", "11")
    b = run_cli(capsys, "random-module", "--dims", "2@0,2@1", "--seed", "11")
    c = run_cli(capsys, "random-module", "--dims", "2@0,2@1", "--seed", "12")
    assert a == b
    assert a[1] != c[1]


def test_cli_random_triple_loads_and_validates(capsys):
    code, out, err = run_cli(capsys, "random-triple", "--dims", "2@0,1@1", "--seed", "3")
    assert code == 0
    t = textio.parse_triple_text(out)
    t.validate()


def test_cli_examples_list(capsys):
    code, out, err = run_cli(capsys, "examples")
    assert code == 0
    names = out.split()
    assert "lepotier" in names and "omega1" in names and len(names) == 9


def test_each_subcommand_registers_only_the_options_it_reads():
    import argparse

    want = {
        "cohomology": {"--field", "--format", "--window"},
        "invariants": {"--field", "--format"},
        "synthesize": {"--field", "--seed"},
        "roundtrip": {"--field", "--format", "--seed", "--trials"},
        "strip-acm": {"--field"},
        "iso": {"--field", "--format", "--seed", "--trials"},
        "stability": {"--field", "--format"},
        "random-module": {"--field", "--seed", "--dims"},
        "random-triple": {"--field", "--seed", "--dims"},
        "examples": set(),
    }
    (sub,) = [a for a in qcli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == want
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--seed", "3"])
    assert exc.value.code == 2


def test_cli_bad_file_exit2(capsys, tmp_path):
    path = tmp_path / "bad.bundle"
    path.write_text("field p=32003\nbundle gamma\nA: (0,0)\nB: (0,0)\ng:\n[not a poly]\n")
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 2


def test_cli_unknown_example_message_is_not_quoted(capsys):
    code, out, err = run_cli(capsys, "cohomology", "example:nonexistent")
    names = ", ".join(fixtures.fixture_names())
    assert (code, out) == (2, "")
    assert err == f"error: unknown example 'nonexistent'; available: {names}\n"


# bundle files that used to load as a different bundle: the extra row was
# dropped, the junk between the pairs skipped, the monad sections ignored
MISREAD = {
    "extra-row": "A: (-1,0) (-1,0)\nB: (0,0)\ng:\n[s, t]\n[t, s]\n",
    "twist-junk": "A: (-1,0) junk (-1,0)\nB: (0,0)\ng:\n[s, t]\n",
    "kappa-in-gamma": "K: (-2,-1)\nA: (-1,0) (-1,0)\nB: (0,0)\nkappa:\n[t]\n[0-s]\ng:\n[s, t]\n",
}


@pytest.mark.parametrize("name", MISREAD)
def test_cli_bundle_file_that_would_load_as_another_bundle_exit2(capsys, tmp_path, name):
    path = tmp_path / f"{name}.bundle"
    path.write_text("field p=32003\nbundle gamma\n" + MISREAD[name])
    code, out, err = run_cli(capsys, "cohomology", str(path), "--window=0..0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


O20_ROWS = "A: (-1,0) (-1,0)\nB: (0,0)\ng:\n[{}*s, t]\n"
TRIPLE_BODY = "triple\nmodule\ndegrees 0..1\ndim 0: 1\ndim 1: 1\nx0 0: {}\nx1 0: 1\nx2 0: 1\nx3 0: 1\n"


MALFORMED = {
    "zero.bundle": "field p=32003\nbundle gamma\n" + O20_ROWS.format("1/0"),
    "p.bundle": "field p=32003\nbundle gamma\n" + O20_ROWS.format("1/32003"),
    "q.bundle": "field rationals\nbundle gamma\n" + O20_ROWS.format("1/0"),
    "module.triple": "field p=32003\n" + TRIPLE_BODY.format("1/0"),
    "q.triple": "field rationals\n" + TRIPLE_BODY.format("1/0"),
    "sub.triple": "field p=32003\ntriple\nmodule\ndegrees 0..0\ndim 0: 1\nV 0: 1/0,1\n",
    "bare.bundle": "field\nbundle gamma\n" + O20_ROWS.format("1"),
    "bare.triple": "field\n" + TRIPLE_BODY.format("1"),
}


@pytest.mark.parametrize(
    "command, name",
    [("invariants", n) for n in MALFORMED if n.endswith(".bundle")]
    + [("synthesize", n) for n in MALFORMED if n.endswith(".triple")]
    + [("iso", "bare.triple")],
)
def test_cli_malformed_scalar_or_header_exit2(capsys, tmp_path, command, name):
    path = tmp_path / name
    path.write_text(MALFORMED[name])
    paths = [str(path)] * (2 if command == "iso" else 1)
    code, out, err = run_cli(capsys, command, *paths)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_iso_of_triples_over_different_fields_exit2(capsys, tmp_path):
    paths = []
    for field in ("32003", "7"):
        code, out, err = run_cli(capsys, "random-triple", "--dims", "1@0", "--seed", "2", "--field", field)
        assert code == 0
        paths.append(tmp_path / f"p{field}.triple")
        paths[-1].write_text(out)
    code, out, err = run_cli(capsys, "iso", str(paths[0]), str(paths[1]))
    assert code == 2
    assert "PrimeField(32003) vs PrimeField(7)" in err


def test_cli_rejects_composite_field(capsys):
    code, out, err = run_cli(capsys, "invariants", "example:o-20", "--field", "32004")
    assert code == 2
    assert "not a prime: 32004" in err


@pytest.mark.parametrize(
    "argv, says",
    [
        (["random-module", "--dims=-1@0"], "negative dimension -1"),
        (["random-triple", "--dims", "1@0,2@0", "--seed", "1"], "--dims chunk '2@0' repeats degree 0"),
        (["random-module", "--dims", "0@1,1@0,1@+1"], "--dims chunk '1@+1' repeats degree 1"),
        (["random-triple", "--dims", "1@0,x"], "invalid --dims chunk 'x'"),
        (["random-module", "--dims", "1@0,,1@1"], "invalid --dims chunk ''"),
        (["random-module", "--dims", "1@0@1"], "invalid --dims chunk '1@0@1'"),
        (["iso", "example:o-20", "example:o-20", "--trials", "0"], "trials must be at least 1"),
        (["roundtrip", "TRIPLE", "--trials=-3"], "trials must be at least 1"),
        (["cohomology", "example:o-20", "--window=2..-2"], "invalid window '2..-2'"),
        (["cohomology", "example:o-20", "--window=5"], "invalid window '5'"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_rejects_bad_sizes_up_front_exit2(capsys, tmp_path, argv, says):
    path = tmp_path / "t.triple"
    path.write_text("field p=32003\n" + TRIPLE_BODY.format("1"))
    code, out, err = run_cli(capsys, *[str(path) if a == "TRIPLE" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and says in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "exc_type, code",
    [
        (InternalInvariantViolation, 1),
        (LiftFailed, 1),
        (BoundExceeded, 1),
        (ExactnessViolation, 1),
        (NoSolution, 1),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_cli_maps_library_failures_to_exit_codes(capsys, monkeypatch, exc_type, code):
    def failing(args):
        raise exc_type("injected failure")

    monkeypatch.setattr(qcli, "cmd_examples", failing)
    got, out, err = run_cli(capsys, "examples")
    assert got == code
    assert "injected failure" in err
    assert "Traceback" not in err


LIBRARY_MODULES = [exactla, bipoly, linecoh, presheaf, flmod, horrocks, stability]


def readme_exit_table():
    """(exception name, exit code) for every name in the README's exit-code table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d) \| (.+) \|$", text, flags=re.M)
    return [(name, int(code)) for code, names in rows for name in re.findall(r"`(\w+)`", names)]


def exception_class(name):
    owner = next((mod for mod in LIBRARY_MODULES if hasattr(mod, name)), builtins)
    return getattr(owner, name)


@pytest.mark.parametrize("name, code", readme_exit_table())
def test_cli_exit_codes_match_the_readme_table(capsys, monkeypatch, name, code):
    exc_type = exception_class(name)

    def failing(args):
        raise exc_type("injected failure")

    monkeypatch.setattr(qcli, "cmd_examples", failing)
    got, out, err = run_cli(capsys, "examples")
    assert got == code
    assert err.endswith(": injected failure\n") and err.count("\n") == 1


def test_readme_exit_table_names_every_library_exception():
    documented = {name for name, _code in readme_exit_table()}
    defined = {
        value.__name__
        for mod in LIBRARY_MODULES
        for value in vars(mod).values()
        if isinstance(value, type) and issubclass(value, QhorrocksError) and value is not QhorrocksError
    }
    assert len(defined) == 15 and defined <= documented


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qhorrocks", "examples"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "omega1" in proc.stdout


def test_cli_t11_wide_table_matches_its_golden(capsys):
    # tests/data/t11-16.cohomology was printed by the code that eliminated every rank
    root = Path(__file__).resolve().parents[1]
    code, out, err = run_cli(capsys, "cohomology", str(root / "perfbench/corpus/roundtrip/t11.monad"), "--window=-16..16")
    assert (code, err) == (0, "")
    assert out == (root / "tests/data/t11-16.cohomology").read_text()


@pytest.mark.parametrize(
    "source, golden",
    [("example:lepotier", "lepotier-200.cohomology"), ("perfbench/corpus/roundtrip/t08.monad", "t08-200.cohomology")],
)
def test_cli_200_wide_tables_match_their_goldens(capsys, source, golden):
    # dimensions reach 10^5 here, so a sign or bound slip in split_h shows
    root = Path(__file__).resolve().parents[1]
    path = source if source.startswith("example:") else str(root / source)
    code, out, err = run_cli(capsys, "cohomology", path, "--window=-200..200")
    assert (code, err) == (0, "")
    assert out == (root / "tests/data" / golden).read_text()


def test_cli_field_switch(capsys):
    code, out, err = run_cli(capsys, "invariants", "example:o-20", "--field", "rationals")
    assert code == 0
    assert out.startswith("field rationals")
    t = textio.parse_triple_text(out)
    assert t.w_dim(0) == 2


def test_small_prime_pipeline():
    f101 = PrimeField(101)
    ext = extract_invariants(fixtures.load_fixture("lepotier", f101))
    assert ext.triple.w_dim(-1) == 2 and ext.triple.v_dim(-1) == 2


def test_cli_closed_pipe_exits_141_without_a_traceback():
    # the reader of stdout is gone before the first write, so every run sees EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qhorrocks", "cohomology", "example:o-20", "--window=-1..1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# K = O(1,-2) is no spinor-inverse twist.  At (0, 0) its H1 is two-dimensional,
# at (-1, 0) it is one-dimensional; the dimension is checked first
NON_SPINOR_MONAD = (
    "field p=32003\nbundle monad\nK: (1,-2)\nA: (2,-1) (2,-1) (2,-1) (2,-1)\nB:\n"
    "kappa:\n[x0]\n[x1]\n[x2]\n[x3]\ng:\n"
)


def test_cli_cohomology_refuses_a_non_spinor_summand_by_its_h1_dimension(capsys, tmp_path):
    path = tmp_path / "nonspinor.monad"
    path.write_text(NON_SPINOR_MONAD)
    code, out, err = run_cli(capsys, "cohomology", str(path), "--window=0..0")
    assert (code, out, err) == (1, "", "verification failed: unsupported shift (0, 0) for summand (1, -2)\n")


def test_h1k_map_checks_the_h1_dimension_before_the_spinor_type():
    monad = textio.parse_bundle_text(NON_SPINOR_MONAD)
    with pytest.raises(InternalInvariantViolation, match=r"^unsupported shift \(0, 0\) for summand \(1, -2\)$"):
        monad.h1k_map((0, 0))
    with pytest.raises(InternalInvariantViolation, match=r"^column twist \(1, -2\) is not of spinor type$"):
        monad.h1k_map((-1, 0))
