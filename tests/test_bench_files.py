"""The ``BENCH_<n>.json`` files at the repository root, each the measured
record of a speed-up claim: every one must parse, carry the fields a claim
is read from, and claim an end-to-end metric on a workload that
``BENCHMARK.json`` declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted((p for p in ROOT.glob("BENCH_*.json")
                      if re.fullmatch(r"BENCH_\d+\.json", p.name)),
                     key=lambda p: int(p.stem.split("_")[1]))
KEYS = {"what", "parent_commit", "command", "protocol", "machine", "claim",
        "workloads", "counts"}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_claims_a_declared_metric(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads(path.read_text())
    assert KEYS <= bench.keys(), KEYS - bench.keys()
    claim = bench["claim"]
    assert claim["metric"] in {m["name"] for m in benchmark["end_to_end"]}
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
