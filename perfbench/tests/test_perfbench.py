"""Smoke test of the benchmark harness on a one-item slice of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def one_item_corpus(tmp_path_factory) -> Path:
    """A copy of the frozen corpus whose manifest keeps only the first item of each workload."""
    corpus = tmp_path_factory.mktemp("slice") / "corpus"
    shutil.copytree(ROOT / "perfbench" / "corpus", corpus)
    manifest = json.loads((corpus / "MANIFEST.json").read_text())
    manifest["workloads"] = {name: entries[:1] for name, entries in manifest["workloads"].items()}
    (corpus / "MANIFEST.json").write_text(json.dumps(manifest))
    return corpus


def run_bench(workload: str, corpus: Path, *extra: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "0", "--corpus", str(corpus), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_and_units(workload, one_item_corpus):
    result, text = run_bench(workload, one_item_corpus)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio = 0 " in text


def test_traced_run_reports_every_layer_metric(one_item_corpus):
    result, text = run_bench("fixtures", one_item_corpus, "--trace", "1")
    assert result["correct"] is True
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["exactla.elim.calls"] > 0 and values["horrocks.extract_invariants.self_s"] > 0
    # untraced item time is under 1 % here (share 0.993 measured on this one-item slice)
    assert 0.97 < values["trace.accounted_share"] < 1.0
    assert "tracing overhead" in text


def test_layer_map_names_benchmark_metrics():
    layer_map = json.loads((ROOT / "perfbench" / "layers.json").read_text())["map"]
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert set(layer_map) <= per_layer
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end and set(entry["on"]) <= workloads


def test_corrupted_golden_counts_as_failure(one_item_corpus, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(one_item_corpus, corpus)
    first = json.loads((corpus / "MANIFEST.json").read_text())["workloads"]["fixtures"][0]["name"]
    golden = corpus / "fixtures" / f"{first}.golden"
    golden.write_text(golden.read_text() + "corrupted\n")
    result, text = run_bench("fixtures", corpus)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "failed_ratio = 1 " in text
