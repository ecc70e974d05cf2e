"""``benchmarks/report.py`` judges each record by its benchmark's own gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_REPORT = Path(__file__).resolve().parent.parent / "benchmarks" / "report.py"


@pytest.fixture(scope="module")
def report():
    spec = importlib.util.spec_from_file_location("_bench_report", _REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dataset_gen(workers: int, speedup: float, identical: bool) -> dict:
    return {"samples": 30000, "workers": workers, "speedup": speedup,
            "identical_labels": identical, "speedup_target": 2.0}


@pytest.mark.parametrize("record, status, passes", [
    (_dataset_gen(2, 0.84, True), "not gated (< 4 workers)", True),
    (_dataset_gen(4, 1.9, True), "**FAIL**", False),
    (_dataset_gen(2, 3.0, False), "**FAIL**", False),
], ids=["2-workers-not-gated", "4-workers-below-target", "labels-diverge"])
def test_dataset_gen_gated_as_the_bench_gates(report, tmp_path, record,
                                              status, passes):
    (tmp_path / "BENCH_dataset_gen.json").write_text(json.dumps(record))
    text, all_ok = report.build_report(str(tmp_path))
    row = next(line for line in text.splitlines()
               if line.startswith("| dataset_gen"))
    assert row.rstrip(" |").endswith(status)
    assert all_ok is passes
