"""The ``pipeline`` workload: what ``repro train`` does, end to end.

A fresh child process imports the program and builds the layer zoo (its
set-up), then labels a zoo-derived dataset with the exhaustive oracle on
``nproc`` workers, splits it, fits stage 1 and stage 2 of a ``small``
AIRCHITECT v2 and evaluates it on the held-out split.  Nothing is cached
between runs: every child gets a fresh working directory.

A run starts SETUPS such children.  Each is timed to its set-up and then
labels the same rows; the last one goes on to train and evaluate.  The
labelling rate is the median over the children, so that one slow process
does not set a run's figure.  Training and evaluation use fixed-size
parts of the two splits.

Run as a script, this file is that child:
``python perfbench/pipeline.py --seed N [--label-only] [--trace]``.
It prints ``READY`` once set up, then one JSON result line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

LABEL_ROWS = 20_000        # ~2.5 s of labelling on 2 cores
TEST_FRACTION = 0.2
TRAIN_ROWS = 8_000         # of the train split, fitted
TEST_ROWS = 2_000          # of the held-out split, evaluated
STAGE1_EPOCHS = 2          # the small scale's 20/16 epochs take minutes;
STAGE2_EPOCHS = 3          # these keep every stage in a ~20 s run
CHECK_ROWS = 256           # labels re-solved serially after the timed part
SETUPS = 5                 # fresh processes timed per run
PHASES = ("data", "forward", "backward", "optimizer")


# ----------------------------------------------------------------------
# Child process
# ----------------------------------------------------------------------
def _child(seed: int, label_only: bool, trace: bool) -> None:
    import dataclasses
    import resource

    import numpy as np

    from repro.core import (AirchitectV2, Stage1Trainer, Stage2Trainer,
                            evaluate_model)
    from repro.dse import (DSEProblem, ExhaustiveOracle,
                           generate_workload_dataset)
    from repro.experiments.common import stage_configs
    from repro.experiments.harness import get_scale
    from repro.train import ProfilerCallback, ThroughputMonitor
    from repro.workloads import all_training_layers

    layers = all_training_layers()
    print("READY", flush=True)

    timer = None
    if trace:
        from layers import LayerTimer, install_pipeline
        timer = LayerTimer()
        install_pipeline(timer)

    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    dataset = generate_workload_dataset(problem, layers, rng,
                                        target_count=LABEL_ROWS,
                                        num_workers=os.cpu_count() or 1)
    labelled = time.perf_counter()
    if label_only:
        print(json.dumps({"rows": len(dataset), "label_s": labelled - start}),
              flush=True)
        return

    scale = get_scale("small")
    s1_config, s2_config = stage_configs(scale)
    s1_config = dataclasses.replace(s1_config, epochs=STAGE1_EPOCHS,
                                    seed=seed)
    s2_config = dataclasses.replace(s2_config, epochs=STAGE2_EPOCHS,
                                    seed=seed + 1)
    monitors = {1: ThroughputMonitor(), 2: ThroughputMonitor()}
    profilers = {1: ProfilerCallback(), 2: ProfilerCallback()} \
        if timer is not None else {}

    def callbacks(stage):
        return (monitors[stage],) + ((profilers[stage],) if profilers
                                     else ())

    train, test = dataset.split(TEST_FRACTION, rng)
    train = train.subset(np.arange(TRAIN_ROWS))
    test = test.subset(np.arange(TEST_ROWS))
    model = AirchitectV2(scale.model_config(), problem,
                         np.random.default_rng(seed + 17))
    Stage1Trainer(model, s1_config).train(train, callbacks=callbacks(1))
    Stage2Trainer(model, s2_config).train(train, callbacks=callbacks(2))
    trained = time.perf_counter()
    metrics = evaluate_model(model, test)
    end = time.perf_counter()

    # Correctness: the sharded labels of a sampled subset must equal a
    # serial solve on a fresh, cache-less oracle.
    pick = np.random.default_rng(seed + 1).choice(
        len(dataset), size=min(CHECK_ROWS, len(dataset)), replace=False)
    serial = ExhaustiveOracle(problem, cache_size=0).solve(
        dataset.inputs[pick])
    mismatches = int(np.sum(
        (serial.pe_idx != dataset.pe_idx[pick])
        | (serial.l2_idx != dataset.l2_idx[pick])
        | (serial.best_cost != dataset.best_cost[pick])))

    result = {
        "rows": len(dataset), "train_rows": len(train),
        "test_rows": len(test),
        "label_s": labelled - start,
        "stage1_epochs": monitors[1].epochs,
        "stage2_epochs": monitors[2].epochs,
        "stage1_samples_per_s": monitors[1].mean_samples_per_sec,
        "stage2_samples_per_s": monitors[2].mean_samples_per_sec,
        "train_s": trained - labelled,
        "evaluate_s": end - trained,
        "pipeline_s": end - start,
        "accuracy": metrics.accuracy,
        "pe_accuracy": metrics.pe_accuracy,
        "l2_accuracy": metrics.l2_accuracy,
        "mean_regret": metrics.mean_regret,
        "checked_rows": len(pick), "label_mismatches": mismatches,
        # The labelling pool's workers have been reaped by now, so the
        # children's figure is the largest worker's peak.
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        / 1024.0,
    }
    if timer is not None:
        result["layers"] = timer.snapshot()
        result["phases"] = {
            stage: {phase: cb.profiler.total_seconds(phase)
                    for phase in PHASES}
            for stage, cb in profilers.items()}
    print(json.dumps(result), flush=True)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _spawn(seed: int, workdir, label_only: bool, trace: bool, timeout_s):
    """Start a child, return (set-up seconds, result dict or None)."""
    args = [sys.executable, os.path.abspath(__file__), "--seed", str(seed)]
    if label_only:
        args.append("--label-only")
    if trace:
        args.append("--trace")
    start = time.perf_counter()
    proc = subprocess.Popen(args, cwd=workdir, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"pipeline child failed (exit {code})")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def run(seed: int, trace: bool) -> dict:
    """SETUPS fresh children set up and label; the last one also trains
    and evaluates."""
    from common import fresh_dir, remove_dir

    workdir = fresh_dir("pipeline")
    try:
        runs = [_spawn(seed, workdir, True, False, 120)
                for _ in range(SETUPS - 1)]
        runs.append(_spawn(seed, workdir, False, trace, 150))
    finally:
        remove_dir(workdir)
    result = runs[-1][1]
    result["setups_s"] = [setup_s for setup_s, _ in runs]
    result["label_rows_per_s"] = [child["rows"] / child["label_s"]
                                  for _, child in runs]
    return result


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args()
    _child(opts.seed, opts.label_only, opts.trace)
