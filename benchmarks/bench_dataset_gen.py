"""Dataset labelling throughput: sharded multiprocessing vs serial oracle.

The acceptance gate of the parallel labelling path: labelling a
random Table-I input batch through :class:`repro.dse.ShardedLabeller` with
>= 4 workers must be >= 2x faster than the serial
:meth:`ExhaustiveOracle.solve`, with bit-identical labels.

The win is process fan-out alone, so the speedup is bounded by the core
count.  A one-shot serial pass can still be slower than the same rows in
shard-sized passes, so the serial baseline is the faster of the two.  A
host with fewer than four cores cannot run four workers in parallel:
there the run checks that the labels are identical but cannot exercise
the speedup gate.

Run standalone to record the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_dataset_gen.py \
        --samples 40000 --workers 4 --output BENCH_dataset_gen.json

from the repository root (the record's ``host`` block names the machine,
BLAS and git revision it was measured on), or under pytest (the test is
marked ``slow``)::

    pytest benchmarks/bench_dataset_gen.py --benchmark-only -m slow -s
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import pytest

from bench_train_step import host_stamp
from repro.dse import DSEProblem, ExhaustiveOracle, ShardedLabeller

SPEEDUP_TARGET = 2.0
WORKERS_DEFAULT = 4


def run_bench(samples: int = 40000, workers: int = WORKERS_DEFAULT,
              seed: int = 0) -> dict:
    problem = DSEProblem()
    inputs = problem.sample_inputs(samples, np.random.default_rng(seed))

    # Serial baselines: cold oracles, cache disabled so we measure the grid
    # solve itself (the dataset-generation workload labels each row once).
    # Chunked solves the pool's shards one after another in this process.
    serial_oracle = ExhaustiveOracle(problem, cache_size=0)
    start = time.perf_counter()
    serial = serial_oracle.solve(inputs)
    serial_elapsed = time.perf_counter() - start

    with ShardedLabeller(ExhaustiveOracle(problem, cache_size=0),
                         num_workers=workers) as labeller:
        chunk_oracle = ExhaustiveOracle(problem, cache_size=0)
        start = time.perf_counter()
        chunked = [chunk_oracle.solve(rows)
                   for _, rows in labeller.shard(inputs)]
        chunked_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        sharded = labeller.label(inputs)
        sharded_elapsed = time.perf_counter() - start
        pool_workers = labeller.num_workers

    identical = all(
        np.array_equal(getattr(serial, name), np.concatenate(
            [getattr(r, name) for r in chunked]))
        and np.array_equal(getattr(serial, name), getattr(sharded, name))
        for name in ("pe_idx", "l2_idx", "best_cost"))
    baseline = min(serial_elapsed, chunked_elapsed)
    return {"samples": samples,
            "workers": pool_workers,
            "serial_elapsed_s": serial_elapsed,
            "chunked_serial_elapsed_s": chunked_elapsed,
            "sharded_elapsed_s": sharded_elapsed,
            "serial_samples_per_sec": samples / max(serial_elapsed, 1e-12),
            "sharded_samples_per_sec": samples / max(sharded_elapsed, 1e-12),
            "speedup": baseline / max(sharded_elapsed, 1e-12),
            "identical_labels": identical,
            "speedup_target": SPEEDUP_TARGET,
            "host": host_stamp()}


@pytest.mark.slow
def test_sharded_labelling_beats_serial(benchmark):
    """>= 2x labelling throughput on >= 4 workers, bit-identical labels."""
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print(json.dumps(result, indent=2))
    assert result["identical_labels"]
    if result["workers"] >= 4:
        assert result["speedup"] >= SPEEDUP_TARGET


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=40000)
    parser.add_argument("--workers", type=int, default=WORKERS_DEFAULT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="also write the JSON record to this path "
                             "(e.g. BENCH_dataset_gen.json)")
    args = parser.parse_args(argv)

    result = run_bench(samples=args.samples, workers=args.workers,
                       seed=args.seed)
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if not result["identical_labels"]:
        print("FAIL: sharded labels diverge from the serial oracle",
              file=sys.stderr)
        return 1
    if result["workers"] >= 4 and result["speedup"] < SPEEDUP_TARGET:
        print(f"FAIL: speedup {result['speedup']:.2f}x < "
              f"{SPEEDUP_TARGET:.0f}x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
