"""Benchmarks: extension ablations (deployment methods, metrics, tolerance).

Not paper figures — these regenerate the reproduction's design-choice
studies, quantifying (a) the Method-1 vs Method-2 deployment gap,
(b) metric-dependent optimal-design shifts, and (c) the epsilon-cheapest
oracle rule's cost/stability trade-off.
"""

from __future__ import annotations

from repro.experiments.ablations import (run_deployment_ablation,
                                         run_metric_ablation,
                                         run_tolerance_ablation)

from .conftest import run_once


def test_ablation_deployment_methods(benchmark, scale, workspace):
    out = run_once(benchmark, run_deployment_ablation, scale, workspace)
    print("\n" + out["table"])
    for name, entry in out["results"].items():
        assert entry["method1"].total_latency <= \
            entry["method2"].total_latency + 1e-9, name


def test_ablation_optimisation_metric(benchmark, scale):
    out = run_once(benchmark, run_metric_ablation, scale)
    print("\n" + out["table"])
    stats = out["stats"]
    assert stats["energy"]["mean_pes"] <= stats["latency"]["mean_pes"]
    benchmark.extra_info["mean_pes"] = {
        metric: round(entry["mean_pes"], 1)
        for metric, entry in stats.items()}


def test_ablation_oracle_tolerance(benchmark, scale):
    out = run_once(benchmark, run_tolerance_ablation, scale)
    print("\n" + out["table"])
    stats = out["stats"]
    # Looser tolerance -> cheaper configs, bounded extra cost.
    assert stats[0.10]["mean_pes"] <= stats[0.0]["mean_pes"]
    assert stats[0.10]["mean_cost_ratio"] <= 1.10 + 1e-9
