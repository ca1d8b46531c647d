"""Every library name the benchmark harness reaches for resolves in the package.

`perfbench/tracer.py` wraps the functions its TARGETS table names, and the
benchmark scripts import library names directly; a renamed or deleted
function would otherwise show only when a traced benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# traced targets whose functions left the library on purpose (ROADMAP item 9)
STALE_TARGETS = {
    "bipoly.mult_matrix",
    "presheaf.connecting_delta_spinor",
    "presheaf.image_h1_split",
    "presheaf.summand_pairing",
}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [target for targets in tracer.TARGETS.values() for target in targets]


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_target_resolves_except_the_stale_ones():
    missing = set()
    for modname, attr in _tracer_targets():
        if _resolve(importlib.import_module(f"qhorrocks.{modname}"), attr) is None:
            missing.add(f"{modname}.{attr}")
    assert missing <= STALE_TARGETS


def _library_imports(path: Path):
    """(module, name) of every `from qhorrocks... import name` in a script."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "qhorrocks":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("script", ["make_inputs.py", "workloads.py"])
def test_benchmark_scripts_library_imports_resolve(script):
    imports = list(_library_imports(PERFBENCH / script))
    for modname, name in imports:
        module = importlib.import_module(modname)
        if not hasattr(module, name) and hasattr(module, "__path__"):
            importlib.import_module(f"{modname}.{name}")  # a submodule, loaded as `from package import name` would
        assert hasattr(module, name), (script, modname, name)
    if script == "make_inputs.py":
        assert ("qhorrocks.qcli", "random_triple") in imports
