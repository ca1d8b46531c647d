"""Spans around the public functions of the qhorrocks modules, added from outside.

`Tracer.install()` replaces every traced function, in each library module
namespace or class that holds it, with a wrapper that records a span
(name, start, end, parent, item) and per-layer counters; `uninstall()` puts
the originals back.  Spans stay in memory until `write()` dumps them as JSON
lines.  A span's self time is its duration minus the time its child spans
cover.  Work the tracer adds after a call (hashing inputs to detect repeats)
is booked to the tracer, not to the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LARGE_ENTRIES = 16384  # an elimination input above this many entries counts as large
ITEM_SPAN = "harness.item"

# layer -> (module, attribute) of every function it covers; a dotted attribute names a method
TARGETS = {
    "exactla.elim": [("exactla", "_rref")],
    "exactla.kernel_basis": [("exactla", "Matrix.kernel_basis")],
    "exactla.matmul": [("exactla", "PrimeField.matmul"), ("exactla", "RationalField.matmul")],
    "bipoly.mult_matrix": [("bipoly", "mult_matrix")],
    "linecoh.induced_h": [("linecoh", "induced_h")],
    "linecoh.coh_action": [("linecoh", "coh_action")],
    "linecoh.sheaf_surjective": [("linecoh", "sheaf_surjective")],
    "presheaf.h_matrix": [("presheaf", "KerPresentation.h_matrix")],
    "presheaf.h1_model": [("presheaf", "KerPresentation.h1_model")],
    "presheaf.h1k_map": [("presheaf", "MonadPresentation.h1k_map")],
    "presheaf.delta_matrix": [("presheaf", "delta_matrix")],
    "presheaf.connecting_delta_spinor": [("presheaf", "connecting_delta_spinor")],
    "presheaf.image_h1_split": [("presheaf", "image_h1_split")],
    "presheaf.monad_init": [("presheaf", "MonadPresentation.__init__")],
    "presheaf.strip_acm": [("presheaf", "strip_acm")],
    "presheaf.summand_pairing": [("presheaf", "summand_pairing")],
    "flmod.minimal_presentation": [("flmod", "minimal_presentation")],
    "flmod.sigma_modules": [("flmod", "sigma_modules")],
    "flmod.module_from_bundle": [("flmod", "module_from_bundle")],
    "flmod.socle_subspace": [("flmod", "socle_subspace")],
    "horrocks.synthesize": [("horrocks", "synthesize")],
    "horrocks.extract_invariants": [("horrocks", "extract_invariants")],
    "horrocks.triple_iso": [("horrocks", "triple_iso")],
    "horrocks.monad_has_acm_summand": [("horrocks", "monad_has_acm_summand")],
    "horrocks.four_term_check": [("horrocks", "four_term_check")],
    "stability.le_potier_check": [("stability", "le_potier_check")],
    "stability.jumping_determinants": [("stability", "jumping_determinants")],
    "textio.format": [("textio", f"format_{k}_text") for k in ("module", "bundle", "triple")],
    "textio.parse": [("textio", f"parse_{k}_text") for k in ("module", "bundle", "triple")],
}


def _array_key(a) -> int:
    if a.dtype == object:
        return hash((a.shape, tuple(a.ravel().tolist())))
    return hash((a.shape, a.dtype.str, a.tobytes()))


def _module_key(m) -> int:
    ops = tuple(sorted((k, _array_key(op.a)) for k, op in m.ops.items()))
    return hash((tuple(sorted(m.dims.items())), ops))


class LayerStat:
    __slots__ = ("calls", "self_ns", "repeats", "entries", "large_ns", "trials")

    def __init__(self):
        self.calls = self.self_ns = self.repeats = self.entries = self.large_ns = self.trials = 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent id or None, item id)
        self.stats: dict[str, LayerStat] = defaultdict(LayerStat)
        self.missing: list[str] = []
        self.trace_ns = 0  # time spent hashing inputs after calls
        self._stack: list[list] = []  # [span id, child ns]
        self._item = None
        self._seen: dict[int, set] = defaultdict(set)  # per item, keyed by the layer's stat
        self._patches: list = []
        self._item_call = self._wrap(ITEM_SPAN, lambda fn, *args: fn(*args), None)

    # -- observers: counters that need the call's arguments or result -----
    def _repeat(self, stat: LayerStat, key) -> None:
        seen = self._seen[id(stat)]
        if key in seen:
            stat.repeats += 1
        else:
            seen.add(key)

    def _observe_elim(self, stat, args, kwargs, result, self_ns):
        a = args[1]
        n = a.shape[0] * a.shape[1]
        stat.entries += n
        if n > LARGE_ENTRIES:
            stat.large_ns += self_ns
        self._repeat(stat, _array_key(a))

    def _observe_coh_action(self, stat, args, kwargs, result, self_ns):
        self._repeat(stat, hash(args))

    def _observe_minimal_presentation(self, stat, args, kwargs, result, self_ns):
        self._repeat(stat, _module_key(args[0]))

    def _observe_triple_iso(self, stat, args, kwargs, result, self_ns):
        if result is not None:
            stat.trials += result.trials_used
        else:
            stat.trials += args[2] if len(args) > 2 else kwargs.get("trials", 200)

    # -- spans ---------------------------------------------------------------
    def _wrap(self, name: str, fn, observe):
        spans, stack, stat = self.spans, self._stack, self.stats[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns = dur - frame[1]
                spans[sid] = (name, start, end, parent, self._item)
                stat.calls += 1
                stat.self_ns += self_ns
                extra = 0
                if observe is not None:
                    observe(stat, args, kwargs, result, self_ns)
                    extra = clock() - end
                    self.trace_ns += extra
                if stack:
                    stack[-1][1] += dur + extra

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_item(self, item_id, fn, *args):
        """Call fn(*args) as the root span of one workload item."""
        self._item = item_id
        self._seen.clear()
        return self._item_call(fn, *args)

    def install(self) -> None:
        observers = {
            "exactla.elim": self._observe_elim,
            "linecoh.coh_action": self._observe_coh_action,
            "flmod.minimal_presentation": self._observe_minimal_presentation,
            "horrocks.triple_iso": self._observe_triple_iso,
        }
        modules = [m for n, m in sys.modules.items() if n == "qhorrocks" or n.startswith("qhorrocks.")]
        for layer, targets in TARGETS.items():
            for modname, attr in targets:
                owner = sys.modules.get(f"qhorrocks.{modname}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(layer, fn, observers.get(layer))
                holders = [owner] if path else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, name, fn))
                            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patches):
            setattr(holder, name, fn)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "item": item}))
                fh.write("\n")
