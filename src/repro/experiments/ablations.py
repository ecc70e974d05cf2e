"""Extension ablations beyond the paper's figures.

Three studies the paper's design choices imply but do not plot:

* :func:`run_deployment_ablation` — Method 1 vs Method 2 (§III-E mentions
  both; Fig. 7 demonstrates only Method 1).  Method 1 should dominate by
  construction; the interesting quantity is *how much* Method 2 gives up.
* :func:`run_metric_ablation` — the DSE formulation is metric-agnostic
  (§III-A fixes latency as the reward); re-labelling with energy / EDP
  shifts the optimal-design distribution toward smaller configurations.
* :func:`run_tolerance_ablation` — the oracle's epsilon-cheapest rule:
  label stability and resource savings as the tolerance grows.
"""

from __future__ import annotations

import numpy as np

from ..core import DeploymentEvaluator
from ..dse import DSEProblem, ExhaustiveOracle
from ..workloads import build_workload
from .common import get_datasets, get_problem, get_v2
from .harness import Workspace, get_scale, render_table

__all__ = ["run_deployment_ablation", "run_metric_ablation",
           "run_tolerance_ablation"]


def run_deployment_ablation(scale=None,
                            workspace: Workspace | None = None) -> dict:
    """Method 1 vs Method 2 vs oracle across the held-out models."""
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = get_problem()
    train, _ = get_datasets(scale, workspace, problem)
    model = get_v2(scale, train, workspace, problem)
    evaluator = DeploymentEvaluator(problem)

    rows = []
    results = {}
    for name in scale.deployment_models:
        workload = build_workload(name)
        tuples = evaluator.layer_inputs(workload)
        pe, l2 = model.predict_indices(tuples)
        m1 = evaluator.method1(workload, pe, l2)
        m2 = evaluator.method2(workload, pe, l2)
        oracle = evaluator.oracle_deployment(workload)
        results[name] = {"method1": m1, "method2": m2, "oracle": oracle}
        rows.append([name,
                     m1.total_latency / oracle.total_latency,
                     m2.total_latency / oracle.total_latency])

    table = render_table(["model", "method1 / oracle", "method2 / oracle"],
                         rows, title="Deployment ablation (lower is better)")
    return {"results": results, "table": table, "rows": rows}


def run_metric_ablation(scale=None, workspace: Workspace | None = None,
                        samples: int = 2000) -> dict:
    """How the optimal-design distribution shifts with the DSE metric."""
    scale = get_scale(scale)
    rng = np.random.default_rng(scale.seed)
    base = DSEProblem()
    inputs = base.sample_inputs(samples, rng)

    stats = {}
    rows = []
    for metric in ("latency", "energy", "edp"):
        problem = DSEProblem(metric=metric)
        oracle = ExhaustiveOracle(problem)
        result = oracle.solve(inputs)
        mean_pe = float(problem.space.pe_choices[result.pe_idx].mean())
        mean_l2 = float(problem.space.l2_choices[result.l2_idx].mean())
        distinct = len(np.unique(result.pe_idx * problem.space.n_l2
                                 + result.l2_idx))
        stats[metric] = {"mean_pes": mean_pe, "mean_l2_kb": mean_l2,
                         "distinct_optima": distinct}
        rows.append([metric, mean_pe, mean_l2, distinct])

    table = render_table(
        ["metric", "mean optimal PEs", "mean optimal L2 (KB)",
         "distinct optima"],
        rows, title="Optimisation-metric ablation")
    return {"stats": stats, "table": table, "inputs": inputs}


def run_tolerance_ablation(scale=None, samples: int = 2000,
                           tolerances=(0.0, 0.02, 0.05, 0.10)) -> dict:
    """Label stability / resource cost of the epsilon-cheapest oracle rule."""
    scale = get_scale(scale)
    rng = np.random.default_rng(scale.seed)
    problem = DSEProblem()
    inputs = problem.sample_inputs(samples, rng)

    reference = ExhaustiveOracle(problem, tolerance=0.0).solve(inputs)
    rows = []
    stats = {}
    for tol in tolerances:
        result = ExhaustiveOracle(problem, tolerance=tol).solve(inputs)
        pes = problem.space.pe_choices[result.pe_idx]
        cost_ratio = float((result.best_cost
                            / np.maximum(reference.best_cost, 1e-12)).mean())
        distinct = len(np.unique(result.pe_idx * problem.space.n_l2
                                 + result.l2_idx))
        stats[tol] = {"mean_pes": float(pes.mean()),
                      "mean_cost_ratio": cost_ratio,
                      "distinct_optima": distinct}
        rows.append([tol, float(pes.mean()), cost_ratio, distinct])

    table = render_table(
        ["tolerance", "mean optimal PEs", "cost vs strict optimum",
         "distinct optima"],
        rows, title="Oracle tolerance ablation")
    return {"stats": stats, "table": table}
