"""The qhorrocks benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Workloads (inputs frozen under perfbench/corpus, see make_inputs.py):
  fixtures    the 9 built-in bundles: extract, format, four-term check, strip
              three padded copies, stability on the rank-two ones
  roundtrip   the 25 criterion-08 triples: synthesise, summand check,
              extract from the monad, triple isomorphism, format
  cohomology  wide-window cohomology tables of four fixtures and two monads
  rationals   three fixtures over Q: extract, four-term check, table -2..2

Load is a closed loop with one caller: each item starts when the previous one
ends.  A run is a fixed number of whole passes over the workload's items,
PASSES per 20 s of --seconds (at least one), so both sides of a comparison
do the same work and report the same percentiles.  On a 2-CPU VM at the seed
commit a pass takes about 1.5 s (fixtures), 33 s (roundtrip), 4.5 s
(cohomology) and 4.4 s (rationals), so one run of each workload takes about
two minutes together.  Each pass runs the items in an order shuffled from
--seed, and each item gets its own random stream derived from the seed and
its index.  Every output is compared with its golden file; a mismatch or an
exception counts as a failed item.  `items_per_s` is the items of one pass
over the sum of the items' median times, so a few seconds of a slow host
during one pass do not move it the way they move a mean or a single pass.

`item_tail_ms` is the highest percentile with TAIL_BEYOND samples above it,
but never below the median; the percentile and n are printed beside it.  At
--seconds 20 that is p86 of 72 samples on fixtures and p80 of 50 on
roundtrip.  Seven roundtrip triples take 1.6 to 9.4 s each and the other 18
under 0.3 s, so the roundtrip tail always falls on one of the seven; at the
seed commit it is t06 (about 2.2 s, half of it in delta_matrix), while the
two heaviest (t02, t03) show in `items_per_s`.  Cohomology (p58 of 12) and
rationals (p53 of 15, three items) have too few items for a tail of their
own, so there the metric sits at or just above the median.

Set-up (import, reading the corpus, warm-up) is done three times with the
library caches emptied in between, and `setup_s` is the median import time
(this process's own import and four more, each in a fresh interpreter) plus
the median of the three.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many passes
untraced, then as many again with spans recorded around the library's public
functions (tracer.py), prints the per-layer metrics and the
tracing overhead, and writes the spans as JSON lines under perfbench/.out/.
The last line of output is always one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {kind: {m["name"]: m["unit"] for m in BENCH[kind]} for kind in ("end_to_end", "per_layer")}
SETUP_REPS = 3
IMPORT_REPS = 5  # import timings, each but the first in a fresh interpreter
PASSES = {"fixtures": 8, "roundtrip": 2, "cohomology": 2, "rationals": 5}  # per 20 s of --seconds
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it


@dataclass
class Phase:
    samples: list[float] = field(default_factory=list)  # seconds per item, in run order
    by_item: dict[str, list[float]] = field(default_factory=dict)  # the same samples, per item
    failures: list[tuple[str, str]] = field(default_factory=list)
    monads_identical: bool = True
    pass_walls: list[float] = field(default_factory=list)
    wall: float = 0.0

    @property
    def items_per_s(self) -> float:
        """Items of one pass over the sum of the per-item median times."""
        return len(self.by_item) / sum(statistics.median(v) for v in self.by_item.values())

    def add(self, item, seconds: float) -> None:
        self.samples.append(seconds)
        self.by_item.setdefault(item.name, []).append(seconds)


def check_output(item, check: str, monad, phase: Phase) -> None:
    if check != item.golden:
        phase.failures.append((item.name, "output differs from golden"))
    if item.monad is not None and monad != item.monad:
        phase.monads_identical = False


def measure(items, runner, seed: int, passes: int, tracer=None) -> Phase:
    """`passes` closed-loop passes over the items."""
    phase = Phase()
    order_rng = random.Random(seed)
    start = time.perf_counter()
    while len(phase.pass_walls) < passes:
        pass_start = time.perf_counter()
        order = list(range(len(items)))
        order_rng.shuffle(order)
        for idx in order:
            item = items[idx]
            rng = random.Random(f"{seed}/{idx}")
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    check, monad = runner(item, rng)
                else:
                    check, monad = tracer.run_item(f"{len(phase.pass_walls)}/{item.name}", runner, item, rng)
            except Exception as exc:  # any failing item is counted, and the run goes on
                phase.add(item, time.perf_counter() - t0)
                phase.failures.append((item.name, f"{type(exc).__name__}: {exc}"))
                continue
            phase.add(item, time.perf_counter() - t0)
            check_output(item, check, monad, phase)
        phase.pass_walls.append(time.perf_counter() - pass_start)
    phase.wall = time.perf_counter() - start
    return phase


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)  # never below the median
    idx = n - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / n, beyond


def layer_values(tracer, phase: Phase, untraced: Phase) -> dict[str, float]:
    from tracer import ITEM_SPAN

    per_pass = 1.0 / len(phase.pass_walls)
    values = {}
    for layer, st in tracer.stats.items():
        values[f"{layer}.calls"] = st.calls * per_pass
        values[f"{layer}.self_s"] = st.self_ns * 1e-9 * per_pass
    stats = tracer.stats
    elim, coh, mp = stats["exactla.elim"], stats["linecoh.coh_action"], stats["flmod.minimal_presentation"]
    values["exactla.elim.entries"] = elim.entries * per_pass
    values["exactla.elim.large_share"] = elim.large_ns / elim.self_ns if elim.self_ns else 0.0
    values["exactla.elim.repeat_ratio"] = elim.repeats / elim.calls if elim.calls else 0.0
    values["linecoh.coh_action.repeat_ratio"] = coh.repeats / coh.calls if coh.calls else 0.0
    values["flmod.minimal_presentation.repeat_calls"] = mp.repeats * per_pass
    values["horrocks.triple_iso.trials"] = stats["horrocks.triple_iso"].trials * per_pass
    del values[f"{ITEM_SPAN}.calls"], values[f"{ITEM_SPAN}.self_s"]
    untraced_ns = stats[ITEM_SPAN].self_ns  # item time that no traced span covers
    layers_ns = sum(st.self_ns for name, st in stats.items() if name != ITEM_SPAN)
    harness_s = phase.wall - sum(phase.samples)  # the loop and golden checks between items
    values["harness.self_s"] = harness_s * per_pass
    values["harness.untraced_s"] = untraced_ns * 1e-9 * per_pass
    values["trace.accounted_share"] = ((layers_ns + tracer.trace_ns) * 1e-9 + harness_s) / phase.wall
    values["trace.overhead_pct"] = 100.0 * (untraced.items_per_s - phase.items_per_s) / untraced.items_per_s
    return values


def import_seconds(first: float) -> float:
    """Median import time: `first` from this process, the rest each from a fresh interpreter."""
    code = "import time; t0 = time.perf_counter(); import workloads; print(time.perf_counter() - t0)"
    times = [first]
    for _ in range(IMPORT_REPS - 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def report_failures(label: str, failures) -> None:
    for name, why in failures[:10]:
        print(f"FAILED {label} {name}: {why}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qhorrocks benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=tuple(PASSES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", type=Path, default=HERE / "corpus", help="corpus directory (default: the frozen one)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads as wl

    import_s = import_seconds(time.perf_counter() - t0)
    runner = wl.RUNNERS[args.workload]

    reps = []
    warm_failures = Phase()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.clear_library_caches()
        items = wl.load_corpus(args.workload, args.corpus)
        warm = wl.warm_up(args.workload, items)
        reps.append(time.perf_counter() - t0)
    for item, check, monad in warm:
        check_output(item, check, monad, warm_failures)
    setup_s = import_s + statistics.median(reps)

    env = wl.environment()
    print(f"workload {args.workload}: {len(items)} items, seed {args.seed}, budget {args.seconds:g} s, trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup: median import of {IMPORT_REPS} {import_s:.3f} s + median of {SETUP_REPS} (read corpus, warm up) {[round(r, 3) for r in reps]}")

    passes = max(1, round(PASSES[args.workload] * args.seconds / 20.0))
    if args.trace:  # the traced run measures twice, untraced then traced, at half length each
        passes = max(1, passes // 2)
    phase = measure(items, runner, args.seed, passes)
    phases = [phase]
    n = len(phase.samples)
    tail_ms, tail_pct, beyond = tail(phase.samples)
    e2e = {
        "items_per_s": phase.items_per_s,
        "item_p50_ms": 1000.0 * statistics.median(phase.samples),
        "item_tail_ms": 1000.0 * tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = len(phase.failures)
    print(f"measured {n} items in {len(phase.pass_walls)} passes, {phase.wall:.3f} s")
    for name, unit in UNITS["end_to_end"].items():
        extra = f"  (p{tail_pct:.1f}, n={n}, {beyond} beyond)" if name == "item_tail_ms" else ""
        print(f"{name} = {e2e[name]:.6g} {unit}{extra}")
    print(f"failed_ratio = {failed / n:.6g} -  ({failed} of {n})")
    if args.workload == "roundtrip":
        print(f"monads_identical = {str(phase.monads_identical).lower()}  (against the corpus monad goldens; not a failure)")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS["end_to_end"].items()}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(items, runner, args.seed, passes, tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        for target in tracer.missing:
            print(f"trace: target not found: {target}", file=sys.stderr)
        values = layer_values(tracer, traced, phase)
        print(f"traced {len(traced.samples)} items in {len(traced.pass_walls)} passes, {traced.wall:.3f} s")
        print(
            f"tracing overhead: items_per_s traced {traced.items_per_s:.6g} - untraced {phase.items_per_s:.6g}"
            f" = {traced.items_per_s - phase.items_per_s:.6g} 1/s ({values['trace.overhead_pct']:.2f} % slower)"
        )
        metrics = {}
        for name, unit in UNITS["per_layer"].items():
            metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
            print(f"{name} = {metrics[name]['value']:.6g} {unit}")
        out = HERE / ".out"
        out.mkdir(exist_ok=True)
        spans = out / f"{args.workload}.spans.jsonl"
        tracer.write(spans)
        print(f"wrote {len(tracer.spans)} spans to {spans.relative_to(HERE.parent)}")

    attempted = sum(len(p.samples) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for label, p in (("warm-up", warm_failures), *(("measured", p) for p in phases)):
        report_failures(label, p.failures)
    correct = failed == 0 and not warm_failures.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
