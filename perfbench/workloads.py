"""Workload items of the qhorrocks benchmark.

Importing this module puts the checkout's own `src/` first on `sys.path`
and imports `qhorrocks` from there, so the benchmark always measures the
sources next to it, never an installed copy.  BLAS and OpenMP threads are
capped at the number of CPUs before numpy loads.

Every item is a function of (item, rng) returning (check, monad): `check`
is the canonical text compared with the item's golden file, and `monad` is
the synthesised monad text (roundtrip only, else None), compared separately
because monad byte-identity is reported but is not a failure.

Library calls go through module attributes (`horrocks.synthesize`, not an
imported name) so that the tracer in `tracer.py` sees them.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CORPUS = HERE / "corpus"

if not (SRC / "qhorrocks" / "__init__.py").is_file():
    raise SystemExit(f"qhorrocks sources not found under {SRC}")

NPROC = os.cpu_count() or 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qhorrocks  # noqa: E402
from qhorrocks import exactla, horrocks, linecoh, presheaf, stability, textio  # noqa: E402

if Path(qhorrocks.__file__).resolve().parent != SRC / "qhorrocks":
    raise SystemExit(f"imported qhorrocks from {qhorrocks.__file__}, not from {SRC}")

PADS = ((-1, -1), (1, 0), (-2, -1))
RANK_TWO = ("lepotier", "split-sum", "null-corr-family")
RATIONAL_WINDOW = (-2, 2)
ISO_TRIALS = 200


@dataclass
class Item:
    name: str
    text: str  # input file: a bundle or triple in the library's text format
    golden: str  # expected `check` text
    monad: str | None = None  # expected monad text (roundtrip)
    window: tuple[int, int] | None = None  # table window (cohomology)


# ---------------------------------------------------------------------------
# canonical output texts


def table_text(table: dict) -> str:
    rows = sorted(table, key=lambda k: (k[1], k[0]))
    return "".join(f"{kind} {d}: {' '.join(map(str, table[(kind, d)]))}\n" for kind, d in rows)


def four_term_text(dims: dict) -> str:
    return "".join(f"four-term side {s} degree {d}: {' '.join(map(str, v))}\n" for (s, d), v in sorted(dims.items()))


# ---------------------------------------------------------------------------
# items


def fixture_item(item: Item, rng) -> tuple[str, None]:
    """Parse, extract, format, four-term check, strip three padded copies; stability on rank two."""
    base = textio.parse_bundle_text(item.text)
    ext = horrocks.extract_invariants(base)
    out = [textio.format_triple_text(ext.triple), four_term_text(horrocks.four_term_check(base, ext))]
    for pad in PADS:
        padded = linecoh.form_hstack([base.g, linecoh.FormMatrix.zero(base.field, (pad,), base.B)])
        stripped, removed = presheaf.strip_acm(presheaf.KerPresentation(padded, verify=False))
        out.append(f"strip {pad}: removed {removed}\n")
        out.append(textio.format_bundle_text(stripped))
    if item.name in RANK_TWO:
        rep = stability.le_potier_check(base)
        out.append(f"stability h0 {rep.h0} right {rep.h0_right} left {rep.h0_left} stable {rep.stable}\n")
        for det in stability.jumping_determinants(base):
            out.append(f"jumping {det.pair}: {det.describe()}\n")
    return "".join(out), None


def roundtrip_item(item: Item, rng) -> tuple[str, str]:
    """Parse a triple, synthesise, summand check, extract from the monad, compare, format."""
    triple = textio.parse_triple_text(item.text)
    monad = horrocks.synthesize(triple, rng=rng)
    if horrocks.monad_has_acm_summand(monad):
        check = "ok False: ACM summand after synthesis\n"
    else:
        ext = horrocks.extract_invariants(monad)
        witness = horrocks.triple_iso(triple, ext.triple, trials=ISO_TRIALS, rng=rng)
        check = f"ok {witness is not None}: extracted {ext.triple.summary()}\n"
    return check, textio.format_bundle_text(monad)


def cohomology_item(item: Item, rng) -> tuple[str, None]:
    """Cohomology table of a freshly parsed bundle over the item's window."""
    rep = textio.parse_bundle_text(item.text)
    lo, hi = item.window
    return table_text(rep.table(lo, hi)), None


def rationals_item(item: Item, rng) -> tuple[str, None]:
    """Extraction, four-term check and a small table over Q."""
    rep = textio.parse_bundle_text(item.text)
    ext = horrocks.extract_invariants(rep)
    out = [textio.format_triple_text(ext.triple), four_term_text(horrocks.four_term_check(rep, ext))]
    out.append(table_text(rep.table(*RATIONAL_WINDOW)))
    return "".join(out), None


RUNNERS = {
    "fixtures": fixture_item,
    "roundtrip": roundtrip_item,
    "cohomology": cohomology_item,
    "rationals": rationals_item,
}


# ---------------------------------------------------------------------------
# warm-up: fills the library's process-global caches before timing


def warm_up(workload: str, items: list[Item]) -> list[tuple[Item, str, str | None]]:
    """Untimed work done in set-up; returns (item, check, monad) for every item it ran.

    cohomology: every induced section matrix the tables will ask for, which
    warms the global `coh_action` cache without eliminating anything.
    rationals: parsing the first item and its table, which runs the rational
    elimination path (a whole item over Q takes 1.5 s, and set-up runs three
    times).  The other workloads: their first item.
    """
    if workload == "cohomology":
        for item in items:
            rep = textio.parse_bundle_text(item.text)
            mats = [rep.kappa, rep.psi] if isinstance(rep, presheaf.MonadPresentation) else [rep.g]
            lo, hi = item.window
            for m in mats:
                for d in range(lo, hi + 1):
                    for e in ((d, d), (d + 1, d), (d, d + 1)):
                        for i in (0, 1, 2):
                            linecoh.induced_h(m, i, e)
        return []
    if workload == "rationals":
        textio.parse_bundle_text(items[0].text).table(*RATIONAL_WINDOW)
        return []
    return [(item, *RUNNERS[workload](item, random.Random(0))) for item in items[:1]]


def clear_library_caches() -> None:
    """Empty every lru_cache in the library."""
    for name, mod in list(sys.modules.items()):
        if name != "qhorrocks" and not name.startswith("qhorrocks."):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


# ---------------------------------------------------------------------------
# corpus files


def load_corpus(workload: str, corpus: Path = CORPUS) -> list[Item]:
    """Items of one workload, in manifest order, with their goldens."""
    manifest = json.loads((corpus / "MANIFEST.json").read_text())
    items = []
    for entry in manifest["workloads"][workload]:
        base = corpus / workload / entry["name"]
        monad = base.with_suffix(".monad")
        window = entry.get("window")
        items.append(
            Item(
                name=entry["name"],
                text=(corpus / workload / entry["input"]).read_text(),
                golden=base.with_suffix(".golden").read_text(),
                monad=monad.read_text() if monad.is_file() else None,
                window=tuple(window) if window else None,
            )
        )
    if not items:
        raise SystemExit(f"no items for workload {workload!r} in {corpus}")
    return items


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU facts recorded with every run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "prime": exactla.DEFAULT_PRIME,
        "qhorrocks": qhorrocks.__version__,
    }
