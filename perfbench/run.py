"""Benchmark of the AIRCHITECT v2 reproduction: its pipeline and its
serving path, end to end and (in a traced run) layer by layer.

    python3 perfbench/run.py --workload {pipeline,predict,sweep} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Report lines (host stamp, the
workload's named metrics with units, failure counts, correctness) come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload untraced and traced and prints each one's report and the
tracing overhead.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import (BenchmarkError, emit, hermetic_environ, host_stamp,
                    median, require_source, tail)

WORKLOADS = ("pipeline", "predict", "sweep")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB",
              "throughput_per_s": "1/s", "latency_ms": "ms"}
PER_LAYER = {
    # pipeline: labelling
    "dse.label_s": "s", "dse.label.pool_start_s": "s",
    "dse.label.shards_s": "s", "dse.label.shards": "count",
    "dse.label.cache_import_s": "s",
    # pipeline: training
    "train.stage1.epoch_s": "s", "train.stage2.epoch_s": "s",
    **{f"train.stage{stage}.{phase}_s": "s" for stage in (1, 2)
       for phase in ("data", "forward", "backward", "optimizer")},
    "nn.encoder.forward_s": "s", "nn.perf_head.forward_s": "s",
    "nn.decoder.forward_s": "s",
    # pipeline: evaluation
    "core.evaluate.predict_s": "s", "dse.cost_at_s": "s",
    # serving: per HTTP request of the measured phase
    "serving.transport_ms": "ms", "serving.handle_predict_ms": "ms",
    "serving.queue_wait_ms": "ms", "serving.batch_rows": "rows",
    "core.predict_indices_ms": "ms", "core.predict_indices.calls": "count",
    "nn.perf_head.forward_ms": "ms", "core.decode_ms": "ms",
    "dse.serve.cost_at_ms": "ms", "dse.oracle.solve_ms": "ms",
    "dse.oracle.hit_rate": "ratio", "serving.rejected": "count",
    "serving.sweep.prepare_s": "s", "serving.sweep.engine_s": "s",
    "serving.sweep.cost_s": "s", "serving.sweep.serialize_s": "s",
    "registry.load_s": "s",
    # the benchmark itself
    "predict.generator_late_ms": "ms",
    "traced.throughput_per_s": "1/s", "traced.latency_ms": "ms",
}
REJECTED = (429, 503, 504)


def _ms_per(layers: dict, name: str, requests: int) -> float:
    return 1e3 * layers["total_s"].get(name, 0.0) / max(requests, 1)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
def pipeline(seed: int, seconds: int, trace: bool) -> dict:
    import pipeline as workload

    res = workload.run(seed, trace)      # fixed work, not bounded by time
    # Untraced: the median over every child.  Traced: the traced child
    # alone, so that the overhead compares like with like.
    label_rows_per_s = (res["rows"] / res["label_s"] if trace
                        else median(res["label_rows_per_s"]))
    e2e = {"setup_s": median(res["setups_s"]),
           "peak_rss_mb": res["peak_rss_mb"],
           "throughput_per_s": label_rows_per_s,
           "latency_ms": 1e3 * res["pipeline_s"]}
    report = {
        "pipeline_s": (res["pipeline_s"], "s"),
        "label_rows_per_s": (label_rows_per_s, "rows/s"),
        "stage1_samples_per_s": (res["stage1_samples_per_s"], "samples/s"),
        "stage2_samples_per_s": (res["stage2_samples_per_s"], "samples/s"),
        "evaluate_s": (res["evaluate_s"], "s"),
        "accuracy": (res["accuracy"], "ratio"),
        "mean_regret": (res["mean_regret"], "ratio"),
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failed = int(res["label_mismatches"] > 0)
    out = {"e2e": e2e, "report": report, "attempted": 1, "failed": failed,
           "correct": res["label_mismatches"] == 0,
           "checks": {"labels_checked": res["checked_rows"],
                      "label_mismatches": res["label_mismatches"],
                      "accuracy": res["accuracy"],
                      "pe_accuracy": res["pe_accuracy"],
                      "l2_accuracy": res["l2_accuracy"]},
           "failures": {"pipeline": {"attempted": 1,
                                     "succeeded": 1 - failed,
                                     "failed": failed}}}
    if trace:
        layers, phases = res["layers"], res["phases"]
        total = layers["total_s"]
        per = {
            "dse.label_s": total.get("dse.label", 0.0),
            "dse.label.pool_start_s": total.get("dse.label.pool_start", 0.0),
            "dse.label.shards_s": total.get("dse.label.shards", 0.0),
            "dse.label.shards": layers["units"].get("dse.label.shards", 0),
            "dse.label.cache_import_s":
                total.get("dse.label.cache_import", 0.0),
            "nn.encoder.forward_s": total.get("nn.encoder.forward", 0.0),
            "nn.perf_head.forward_s": total.get("nn.perf_head.forward", 0.0),
            "nn.decoder.forward_s": total.get("nn.decoder.forward", 0.0),
            "core.evaluate.predict_s": total.get("core.predict_indices", 0.0),
            "dse.cost_at_s": total.get("dse.cost_at", 0.0),
        }
        for stage in (1, 2):
            per[f"train.stage{stage}.epoch_s"] = median(
                [e["seconds"] for e in res[f"stage{stage}_epochs"]])
            for phase, value in phases[str(stage)].items():
                per[f"train.stage{stage}.{phase}_s"] = value
        out["layers"] = per
    return out


# ----------------------------------------------------------------------
# predict / sweep
# ----------------------------------------------------------------------
def _serving_common(res: dict, attempted: int, failed: int) -> dict:
    bad_exits = sum(code != 0 for code in res["server_exits"])
    return {"attempted": attempted + len(res["server_exits"]),
            "failed": failed + bad_exits,
            "server_exits": res["server_exits"]}


def predict(seed: int, seconds: int, trace: bool) -> dict:
    import serving

    res = serving.run_predict(seed, seconds, trace)
    outcomes = res["outcomes"]
    failed = sum(not o.ok for o in outcomes) + res["mismatches"]
    e2e = {"setup_s": median(res["setups_s"]),
           "peak_rss_mb": res["peak_rss_mb"],
           "throughput_per_s": res["predict_max_rps"],
           "latency_ms": res["predict_p50_ms"]}
    tail_doc = res["predict_tail"]
    report = {
        "predict_p50_ms": (res["predict_p50_ms"], "ms"),
        f"predict_p{tail_doc['percentile']:g}_ms": (tail_doc["ms"], "ms"),
        "predict_samples_at_reference": (tail_doc["n"], "count"),
        "predict_max_rps": (res["predict_max_rps"], "req/s"),
        "predict_connections": (res["connections"], "count"),
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    out = {"e2e": e2e, "report": report,
           **_serving_common(res, len(outcomes), failed),
           "correct": res["mismatches"] == 0
           and all(c == 0 for c in res["server_exits"]),
           "checks": {"answers_checked": sum(o.ok for o in outcomes),
                      "mismatches": res["mismatches"]},
           "failures": {f"rate_{s['rate']:g}": {
               k: s[k] for k in ("attempted", "succeeded", "failed")}
               for s in res["steps"]},
           "ladder": res["steps"]}
    if trace:
        layers = res["layers"]
        ok = [o for o in res["reference_outcomes"] if o.ok]
        preds = [p for o in ok for p in o.doc["predictions"]]
        total = layers["total_s"]
        handle_calls = max(layers["calls"].get("serving.handle_predict", 0),
                           1)
        service_ms = 1e3 * sum(o.done - o.sent for o in ok) / max(len(ok), 1)
        out["layers"] = {
            "serving.transport_ms": service_ms
            - 1e3 * total.get("serving.handle_predict", 0.0) / handle_calls,
            "serving.handle_predict_ms":
                1e3 * layers["self_s"].get("serving.handle_predict", 0.0)
                / handle_calls,
            "serving.queue_wait_ms": sum(p["queue_wait_ms"] for p in preds)
            / max(len(preds), 1),
            "serving.batch_rows": sum(p["batch_size"] for p in preds)
            / max(len(preds), 1),
            "serving.rejected": sum(o.status in REJECTED for o in outcomes),
            "predict.generator_late_ms": 1e3 * tail(res["late_s"])[1],
            **_engine_layers(res, len(ok)),
        }
    return out


def sweep(seed: int, seconds: int, trace: bool) -> dict:
    import serving

    res = serving.run_sweep(seed, seconds, trace)
    e2e = {"setup_s": median(res["setups_s"]),
           "peak_rss_mb": res["peak_rss_mb"],
           "throughput_per_s": res["sweep_rows_per_s"],
           "latency_ms": res["sweep_first_chunk_ms"]}
    report = {
        "sweep_rows_per_s": (res["sweep_rows_per_s"], "rows/s"),
        "sweep_first_chunk_ms": (res["sweep_first_chunk_ms"], "ms"),
        "sweep_requests": (res["requests"], "count"),
        "sweep_rows_per_request": (serving.SWEEP_ROWS, "rows"),
        "setup_s": (e2e["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    out = {"e2e": e2e, "report": report,
           **_serving_common(res, res["requests"], res["failed"]),
           "correct": res["mismatched_rows"] == 0
           and all(c == 0 for c in res["server_exits"]),
           "checks": {"sweeps_checked": res["requests"],
                      "mismatched_rows": res["mismatched_rows"]},
           "failures": {"sweep": {"attempted": res["requests"],
                                  "succeeded": res["succeeded"],
                                  "failed": res["failed"]}}}
    if trace:
        layers = res["layers"]
        total = layers["total_s"]
        count = res["requests"]
        prepare = total.get("serving.sweep.prepare", 0.0) / count
        engine = total.get("core.predict_indices", 0.0) / count
        cost = total.get("dse.cost_at", 0.0) / count
        out["layers"] = {
            "serving.sweep.prepare_s": prepare,
            "serving.sweep.engine_s": engine,
            "serving.sweep.cost_s": cost,
            "serving.sweep.serialize_s":
                sum(res["elapsed_s"]) / len(res["elapsed_s"])
                - prepare - engine - cost,
            **_engine_layers(res, count),
        }
    return out


def _engine_layers(res: dict, requests: int) -> dict:
    layers = res["layers"]
    return {
        "core.predict_indices_ms": _ms_per(layers, "core.predict_indices",
                                           requests),
        "core.predict_indices.calls":
            layers["calls"].get("core.predict_indices", 0),
        "nn.perf_head.forward_ms": _ms_per(layers, "nn.perf_head.forward",
                                           requests),
        "core.decode_ms": _ms_per(layers, "core.decode", requests),
        "dse.serve.cost_at_ms": _ms_per(layers, "dse.cost_at", requests),
        "dse.oracle.solve_ms": _ms_per(layers, "dse.oracle.solve", requests),
        "dse.oracle.hit_rate": layers["oracle_hit_rate"],
        "registry.load_s": layers["registry_load_s"],
    }


RUNNERS = {"pipeline": pipeline, "predict": predict, "sweep": sweep}


# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    out = RUNNERS[name](seed, seconds, trace)
    emit({key: {"value": value, "unit": unit}
          for key, (value, unit) in out["report"].items()}, f"{name} metrics")
    emit(out["failures"], f"{name} failures")
    emit({"correct": out["correct"], **out["checks"]}, f"{name} correctness")
    if "ladder" in out:
        emit(out["ladder"], f"{name} ladder")
    if trace:
        per = dict.fromkeys(PER_LAYER, 0.0)
        per.update(out["layers"])
        per["traced.throughput_per_s"] = out["e2e"]["throughput_per_s"]
        per["traced.latency_ms"] = out["e2e"]["latency_ms"]
        metrics = {key: {"value": per[key], "unit": unit}
                   for key, unit in PER_LAYER.items()}
    else:
        metrics = {key: {"value": out["e2e"][key], "unit": unit}
                   for key, unit in END_TO_END.items()}
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if out["correct"] else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, and the tracing overhead."""
    code = 0
    for name in WORKLOADS:
        finals = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1]
                            if not line.startswith("host:")), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                code = 1
                break
            finals[trace] = json.loads(lines[-1])
            emit(finals[trace], f"{name} trace={trace}")
        else:
            overhead = {}
            for key in ("throughput_per_s", "latency_ms"):
                plain = finals[0]["metrics"][key]["value"]
                traced = finals[1]["metrics"][f"traced.{key}"]["value"]
                overhead[key] = {"untraced": plain, "traced": traced,
                                 "change": traced / plain - 1.0}
            emit(overhead, f"{name} tracing overhead")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    hermetic_environ()
    emit(host_stamp(), "host")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
