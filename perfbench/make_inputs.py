"""Regenerate the benchmark corpus: frozen inputs, goldens and provenance.

    python3 perfbench/make_inputs.py                       # checked-in corpus, seed 4070
    python3 perfbench/make_inputs.py --seed 11 --out DIR   # a held-out corpus

The roundtrip triples are the criterion-08 corpus of the acceptance suite:
the same generator loop, with the same shared random stream, so seed 4070
gives exactly the 25 triples that test runs.  Fixture and rational inputs
are the built-in fixtures written out as bundle files; the cohomology items
read four of those fixture files and the two smallest monads of the roundtrip
corpus in place, so only their goldens are stored under cohomology/.
Goldens are the outputs of the workload items on the library that ran this
script; MANIFEST.json records which library that was (version and a digest
of every source file), so a corpus can be traced to the code that made it.
Run the benchmark on another corpus with `run.py --corpus DIR`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import workloads as wl
from qhorrocks import PrimeField, RationalField, fixtures, textio
from qhorrocks.horrocks import roundtrip
from qhorrocks.qcli import random_triple

ROUNDTRIP_TRIPLES = 25
FIXTURE_WINDOW = (-7, 7)
COHOMOLOGY_BUNDLES = ("lepotier", "split-sum", "null-corr-family", "omega1")
COHOMOLOGY_MONADS = 2
MONAD_WINDOW = (-6, 6)
RATIONAL_FIXTURES = ("case5", "o-20", "omega1")  # one triple each with V, with W only, with M only


def criterion_08_corpus(field, seed: int):
    """(triple, monad text) pairs, generated exactly as the acceptance test does."""
    rng = random.Random(seed)
    out = []
    while len(out) < ROUNDTRIP_TRIPLES:
        support = rng.randrange(1, 4)
        lo = rng.randrange(-1, 2)
        dims = {lo + k: rng.randrange(1, 4) for k in range(support)}
        try:
            triple = random_triple(field, rng, dims)
        except Exception:
            continue
        report = roundtrip(triple, trials=wl.ISO_TRIALS, rng=rng)
        if not report.ok:
            raise SystemExit(f"triple {len(out)} fails its roundtrip: {report.notes}")
        out.append((triple, textio.format_bundle_text(report.monad)))
    return out


def provenance() -> dict:
    digest = hashlib.sha256()
    files = {}
    for path in sorted((wl.SRC / "qhorrocks").glob("*.py")):
        data = path.read_bytes()
        files[path.name] = hashlib.sha256(data).hexdigest()[:16]
        digest.update(path.name.encode() + b"\0" + data)
    return {"library_digest": digest.hexdigest()[:16], "sources": files, **wl.environment()}


def write_item(out: Path, workload: str, item: wl.Item, suffix: str, shared: str | None = None) -> dict:
    """Compute the item's goldens with the current library and write its files.

    `shared` names an input file another workload already wrote (relative to
    this workload's folder); the item then refers to it instead of a copy.
    """
    check, monad = wl.RUNNERS[workload](item, random.Random(0))
    folder = out / workload
    folder.mkdir(parents=True, exist_ok=True)
    if shared is None:
        (folder / f"{item.name}{suffix}").write_text(item.text)
    (folder / f"{item.name}.golden").write_text(check)
    if monad is not None:
        (folder / f"{item.name}.monad").write_text(item.monad or monad)
        if item.monad is not None and monad != item.monad:
            print(f"warning: {workload}/{item.name}: monad from the parsed triple differs from the generator's", file=sys.stderr)
    entry = {"name": item.name, "input": shared or f"{item.name}{suffix}"}
    if item.window is not None:
        entry["window"] = list(item.window)
    print(f"{workload}/{item.name}: {check.splitlines()[0] if check else ''}", flush=True)
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=4070, help="criterion-08 generator seed (default 4070)")
    ap.add_argument("--out", type=Path, default=wl.CORPUS, help="corpus directory to (re)write")
    args = ap.parse_args(argv)
    fp = PrimeField()
    manifest = {"seed": args.seed, "generated_by": provenance(), "workloads": {}}
    print(f"library {manifest['generated_by']['qhorrocks']} digest {manifest['generated_by']['library_digest']}")
    work = manifest["workloads"]

    work["fixtures"] = [
        write_item(args.out, "fixtures", wl.Item(n, textio.format_bundle_text(fixtures.load_fixture(n, fp)), ""), ".bundle")
        for n in fixtures.fixture_names()
    ]
    qq = RationalField()
    work["rationals"] = [
        write_item(args.out, "rationals", wl.Item(n, textio.format_bundle_text(fixtures.load_fixture(n, qq)), ""), ".bundle")
        for n in RATIONAL_FIXTURES
    ]

    corpus = criterion_08_corpus(fp, args.seed)
    work["roundtrip"] = [
        write_item(args.out, "roundtrip", wl.Item(f"t{k:02d}", textio.format_triple_text(t), "", monad=m), ".triple")
        for k, (t, m) in enumerate(corpus)
    ]

    # cohomology inputs are files the fixtures and roundtrip workloads already hold
    coh = [
        (wl.Item(n, textio.format_bundle_text(fixtures.load_fixture(n, fp)), "", window=FIXTURE_WINDOW), f"../fixtures/{n}.bundle")
        for n in COHOMOLOGY_BUNDLES
    ]
    monads = [(textio.parse_bundle_text(m), k, m) for k, (_t, m) in enumerate(corpus)]
    monads = sorted((len(rep.A) + len(rep.K), k, m) for rep, k, m in monads if rep.K)
    coh += [
        (wl.Item(f"monad-t{k:02d}", m, "", window=MONAD_WINDOW), f"../roundtrip/t{k:02d}.monad")
        for _size, k, m in monads[:COHOMOLOGY_MONADS]
    ]
    work["cohomology"] = [write_item(args.out, "cohomology", item, ".bundle", shared) for item, shared in coh]

    (args.out / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {sum(len(v) for v in work.values())} items to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
