"""Figure 7: model-level deployment latency on unseen DNNs/LLMs.

Every technique produces per-layer hardware recommendations for held-out
models (ResNet-50, Llama2-7B, Llama3-8B, ...) which are evaluated two ways
with the MAESTRO-style cost model:

* **folded** — deployment Method 1 (§III-E): one configuration for the
  whole model, chosen by evaluating each candidate on all layers;
* **per-layer** — each layer runs on its own recommended configuration
  (a reconfigurable/partitionable accelerator), which exposes raw
  per-layer prediction quality without Method 1's candidate-pool rescue.

Latencies are normalised to AIRCHITECT v2 (= 1.0) as in the paper's plot;
the exhaustive deployment oracle is the attainable lower bound.

Paper shape to reproduce: v2 never loses to a baseline, VAESA+BO is the
closest baseline, and the mean baseline-to-v2 ratio is > 1 (the paper
reports ~1.7x at GPU scale).  An honest reproduction note: Method-1
folding is remarkably robust — evaluating every candidate with the true
cost model rescues even mediocre predictors — so the folded spread is
much tighter than the per-layer spread.
"""

from __future__ import annotations

import numpy as np

from ..core import DeploymentEvaluator
from ..dse import ExhaustiveOracle
from ..search.bo import BOConfig
from ..workloads import build_workload
from .common import (get_datasets, get_gandse, get_problem, get_v1, get_v2,
                     get_vaesa)
from .harness import Workspace, get_scale, render_table

__all__ = ["run_fig7"]

_METHODS = ("airchitect_v2", "vaesa_bo", "gandse", "airchitect_v1")


def _pooled_predictions(predict, layer_tuples: np.ndarray,
                        n_dataflows: int) -> tuple[np.ndarray, np.ndarray]:
    """Predict configs for every (layer, dataflow) pair and pool them."""
    pe_all, l2_all = [], []
    for df in range(n_dataflows):
        tuples = layer_tuples.copy()
        tuples[:, 3] = df
        pe, l2 = predict(tuples)
        pe_all.append(pe)
        l2_all.append(l2)
    return np.concatenate(pe_all), np.concatenate(l2_all)


def run_fig7(scale=None, workspace: Workspace | None = None) -> dict:
    """Deployment-latency comparison across techniques and unseen models."""
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = get_problem()
    train, _ = get_datasets(scale, workspace, problem)
    oracle = ExhaustiveOracle(problem)
    evaluator = DeploymentEvaluator(problem)
    space = problem.space

    v2 = get_v2(scale, train, workspace, problem)
    v1 = get_v1(scale, train, workspace, problem)
    gandse = get_gandse(scale, train, workspace, problem)
    vaesa = get_vaesa(scale, train, workspace, problem)
    predictors = {"airchitect_v2": v2.predict_indices,
                  "airchitect_v1": v1.predict_indices,
                  "gandse": gandse.predict_indices}

    n_df = problem.bounds.n_dataflows
    bo_cfg = BOConfig(iterations=scale.bo_iterations)

    folded: dict[str, dict[str, float]] = {}
    per_layer: dict[str, dict[str, float]] = {}
    for name in scale.deployment_models:
        workload = build_workload(name)
        tuples = evaluator.layer_inputs(workload)
        counts = workload.count_array()

        def layer_cost(pe_idx: np.ndarray, l2_idx: np.ndarray) -> float:
            """Count-weighted latency of each layer on its own config."""
            total = 0.0
            for i, (p, l) in enumerate(zip(pe_idx, l2_idx)):
                lat = evaluator.layer_latencies(
                    _single_layer(workload, i),
                    int(space.pe_choices[p]), int(space.l2_choices[l]))
                total += float(lat[0]) * counts[i]
            return total

        fold_entry: dict[str, float] = {}
        layer_entry: dict[str, float] = {}
        for method, predict in predictors.items():
            pe, l2 = predict(tuples)
            layer_entry[method] = layer_cost(pe, l2)
            pe_pool, l2_pool = _pooled_predictions(predict, tuples, n_df)
            fold_entry[method] = evaluator.method1(
                workload, pe_pool, l2_pool).total_latency

        # VAESA+BO: latent-space search per unique layer.
        rng = np.random.default_rng(scale.seed + 97)
        pe_list, l2_list = [], []
        for row in tuples:
            pe_i, l2_i, _ = vaesa.search(row, rng, bo_cfg, oracle=oracle)
            pe_list.append(pe_i)
            l2_list.append(l2_i)
        pe_arr, l2_arr = np.array(pe_list), np.array(l2_list)
        layer_entry["vaesa_bo"] = layer_cost(pe_arr, l2_arr)
        fold_entry["vaesa_bo"] = evaluator.method1(
            workload, pe_arr, l2_arr).total_latency

        fold_entry["oracle"] = evaluator.oracle_deployment(
            workload).total_latency
        # Per-layer oracle: each layer's strict flexible-dataflow optimum
        # (the true lower bound of layer_cost).
        layers = workload.layer_array()
        per_df = [oracle.cost_model.evaluate_grid(
            layers[:, 0], layers[:, 1], layers[:, 2], df,
            space.pe_choices, space.l2_choices).latency_cycles
            for df in range(n_df)]
        best = np.min(np.stack(per_df), axis=0).reshape(len(layers), -1)
        layer_entry["oracle"] = float(
            (best.min(axis=1) * counts).sum())

        folded[name] = fold_entry
        per_layer[name] = layer_entry

    def normalise(table):
        return {name: {m: vals[m] / vals["airchitect_v2"]
                       for m in (*_METHODS, "oracle")}
                for name, vals in table.items()}

    norm_folded = normalise(folded)
    norm_layer = normalise(per_layer)
    baselines = [m for m in _METHODS if m != "airchitect_v2"]
    mean_folded = float(np.mean([norm_folded[n][m] for n in folded
                                 for m in baselines]))
    mean_layer = float(np.mean([norm_layer[n][m] for n in per_layer
                                for m in baselines]))

    def rows_of(norm):
        return [[name] + [norm[name][m] for m in (*_METHODS, "oracle")]
                for name in norm]

    table = (render_table(["model"] + list(_METHODS) + ["oracle"],
                          rows_of(norm_folded),
                          title="Fig. 7 (folded, Method 1): latency "
                                "normalised to v2")
             + "\n\n"
             + render_table(["model"] + list(_METHODS) + ["oracle"],
                            rows_of(norm_layer),
                            title="Fig. 7 (per-layer): latency normalised "
                                  "to v2"))
    return {"latencies": folded, "per_layer_latencies": per_layer,
            "normalized": norm_folded, "normalized_per_layer": norm_layer,
            "mean_baseline_ratio": mean_folded,
            "mean_baseline_ratio_per_layer": mean_layer, "table": table}


def _single_layer(workload, index: int):
    """A one-layer view of a workload (for per-layer evaluation)."""
    from ..workloads import ModelWorkload
    return ModelWorkload(name=f"{workload.name}[{index}]",
                         layers=(workload.layers[index],),
                         counts=(1,))
