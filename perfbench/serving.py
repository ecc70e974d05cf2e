"""The ``predict`` and ``sweep`` workloads: ``repro serve`` as a subprocess.

Set-up writes an untrained ``small`` v2 artifact from a fixed seed into a
fresh registry (forward cost depends on shape, not on trained weights),
starts ``python -m repro serve --registry DIR --port 0`` with no
behaviour flags, and counts it ready at the first ``/predict`` answered
after ``/healthz`` first returns 200 — the registry loads the artifact on
that first request.  Set-up runs :data:`SETUPS` times; the last server
takes the load and is stopped with SIGTERM.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from client import open_loop, stream_sweep
from common import fresh_dir, median, remove_dir, tail

MODEL_ID = "v2_small"
ARTIFACT_SEED = 7
SETUPS = 3
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

# predict: single-row bodies from the held-out evaluation models, sent open
# loop.  No traffic is recorded in the repository, so the rates and the mix
# are assumptions, chosen as follows (see README.md):
# * the reference rate sits inside the default transport's measured
#   capacity (about 38 req/s on a 2-core host), so its latency is the cost
#   of one request rather than of a queue;
# * half the bodies ask for the predicted cost, so the plain path and the
#   cost-model path weigh the same;
# * a tenth ask for the oracle optimum, the expensive reference the model
#   replaces; at this share most of them miss the oracle's LRU.
# After the reference step a coarse ladder climbs until a step misses the
# latency limit or grows a backlog; the gap between the last passing and the
# first failing rate is then bisected down to RESOLUTION.
REFERENCE_RATE = 20.0
LADDER = (30.0, 50.0, 80.0, 120.0, 180.0, 270.0, 400.0)
RESOLUTION = 1.08          # first failing over last passing rate, at most
LATENCY_LIMIT_MS = 200.0
LIMIT_PERCENTILE = 95.0
REFERENCE_SHARE = 0.5      # of --seconds, at the reference rate
STEP_SHARE = 0.075         # of --seconds, for every other step
COST_SHARE = 0.5           # bodies asking for with_cost
ORACLE_SHARE = 0.1         # bodies asking for with_oracle (and the cost)

# sweep: one set of explicit rows per run, sampled over the Table-I ranges
# and streamed closed loop.  The count is not a multiple of the server's
# 1024-row chunk, so the last chunk of every request is a partial one.
SWEEP_ROWS = 8000


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
def write_artifact(registry_dir: Path) -> None:
    from repro.core import AirchitectV2
    from repro.dse import DSEProblem
    from repro.experiments.harness import get_scale
    from repro.registry import ModelRegistry

    model = AirchitectV2(get_scale("small").model_config(), DSEProblem(),
                         np.random.default_rng(ARTIFACT_SEED))
    ModelRegistry(registry_dir).save(model, MODEL_ID, scale="small")


def load_artifact(registry_dir: Path):
    from repro.registry import ModelRegistry
    return ModelRegistry(registry_dir).load(MODEL_ID)


def _get(port: int, path: str, timeout: float = 5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process (or its traced launcher)."""

    def __init__(self, workdir: Path, registry_dir: Path, trace: bool,
                 index: int):
        self.trace_out = workdir / f"layers-{index}.json"
        self.log = workdir / f"serve-{index}.log"
        launcher = ([str(Path(__file__).with_name("serve_traced.py")),
                     str(self.trace_out)] if trace
                    else ["-m", "repro", "serve"])
        args = [sys.executable, *launcher,
                "--registry", str(registry_dir), "--port", "0"]
        self.port = None
        self.peak_rss_mb = None
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(args, cwd=workdir,
                                         stdout=subprocess.DEVNULL,
                                         stderr=log)
        try:
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early "
                                   f"({self.proc.returncode}); see {self.log}")
            if self.port is None:
                found = re.search(r"http://127\.0\.0\.1:(\d+)",
                                  self.log.read_text())
                if found:
                    self.port = int(found.group(1))
            else:
                try:
                    if _get(self.port, "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
            time.sleep(0.005)
        else:
            raise RuntimeError("repro serve did not become healthy")
        body = json.dumps({"workloads": [{"m": 64, "n": 64, "k": 64}]})
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("POST", "/predict", body=body.encode())
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"first /predict answered {response.status}")

    def stats(self) -> dict:
        return json.loads(_get(self.port, "/stats")[1])

    def stop(self) -> int:
        """SIGTERM, wait, and return the exit code (peak RSS read first)."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
            kb = re.search(r"VmHWM:\s+(\d+)", status)
            self.peak_rss_mb = int(kb.group(1)) / 1024.0 if kb else None
        except OSError:
            pass
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -9

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def layers(self) -> dict:
        """Layer totals so far, from a traced server."""
        trigger = Path(f"{self.trace_out}.snap")
        trigger.touch()
        deadline = time.monotonic() + 10.0
        while trigger.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server wrote no layer snapshot")
            time.sleep(0.005)
        return json.loads(self.trace_out.read_text())


def _since(after: dict, before: dict) -> dict:
    """Layer totals accumulated between two snapshots."""
    return {kind: {name: value - before[kind].get(name, 0)
                   for name, value in totals.items()}
            for kind, totals in after.items()}


def _hit_rate(after: dict, before: dict) -> float:
    hits = after["oracle_cache"]["hits"] - before["oracle_cache"]["hits"]
    misses = after["oracle_cache"]["misses"] \
        - before["oracle_cache"]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _serve(workdir: Path, trace: bool):
    """Write the artifact, time SETUPS starts, return the last server."""
    registry_dir = workdir / "registry"
    write_artifact(registry_dir)
    setups, exits = [], []
    for index in range(SETUPS):
        server = Server(workdir, registry_dir, trace, index)
        setups.append(server.setup_s)
        if index < SETUPS - 1:
            exits.append(server.stop())
    return server, registry_dir, setups, exits


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------
def predict_requests(seed: int, step: int, count: int):
    """Rows drawn from the evaluation models' layers (shapes repeat), the
    flags each body asks for, and the bodies, for one ladder step."""
    from repro.dse import DSEProblem
    from repro.workloads import evaluation_workloads

    problem = DSEProblem()
    shapes = np.unique(np.concatenate(
        [w.layer_array() for w in evaluation_workloads()]), axis=0)
    m, n, k = problem.clamp_inputs(shapes[:, 0], shapes[:, 1], shapes[:, 2])
    rng = np.random.default_rng([seed, step])
    pick = rng.integers(0, len(shapes), size=count)
    dataflow = rng.integers(0, problem.bounds.n_dataflows, size=count)
    rows = np.stack([m[pick], n[pick], k[pick], dataflow], axis=1)
    bodies, kinds = [], []
    for row, draw in zip(rows.tolist(), rng.random(count)):
        with_oracle = bool(draw < ORACLE_SHARE)
        with_cost = bool(draw < COST_SHARE)
        bodies.append(json.dumps({
            "workloads": [dict(zip(("m", "n", "k", "dataflow"), row))],
            "with_cost": with_cost, "with_oracle": with_oracle}).encode())
        kinds.append((with_cost, with_oracle))
    return rows, kinds, bodies


def _step_passes(step) -> bool:
    if any(not o.ok for o in step.outcomes):
        return False        # a failed request misses the limit
    lat = [o.latency_s * 1e3 for o in step.outcomes]
    if np.percentile(lat, LIMIT_PERCENTILE) > LATENCY_LIMIT_MS:
        return False
    quarter = max(1, len(lat) // 4)
    # A growing backlog shows as the step's last requests waiting longer
    # than its first ones.
    return median(lat[-quarter:]) <= median(lat[:quarter]) \
        + LATENCY_LIMIT_MS / 2


def _achieved_rate(step) -> float:
    done = sorted(o.done for o in step.outcomes if o.ok)
    if len(done) < 2 or done[-1] <= done[0]:
        return 0.0
    return (len(done) - 1) / (done[-1] - done[0])


def _check_predictions(registry_dir, rows, kinds, outcomes) -> int:
    """Mismatches between served answers and the in-process engine."""
    from repro.core import BatchedDSEPredictor
    from repro.dse import ExhaustiveOracle

    model = load_artifact(registry_dir)
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    pe, l2 = BatchedDSEPredictor(model).predict_indices(unique)
    pes, l2_kb = model.problem.space.values(pe, l2)
    oracle = ExhaustiveOracle(model.problem)
    cost = oracle.cost_at(unique, pe, l2)
    optimum = oracle.solve(unique)
    opt_pes, opt_l2 = model.problem.space.values(optimum.pe_idx,
                                                 optimum.l2_idx)
    bad = 0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        i = int(inverse[outcome.index])
        with_cost, with_oracle = kinds[outcome.index]
        preds = outcome.doc.get("predictions") or [{}]
        got = preds[0]
        want = {"m": int(unique[i, 0]), "n": int(unique[i, 1]),
                "k": int(unique[i, 2]), "dataflow": int(unique[i, 3]),
                "pe_idx": int(pe[i]), "l2_idx": int(l2[i]),
                "num_pes": int(pes[i]), "l2_kb": int(l2_kb[i])}
        if with_cost or with_oracle:
            want["predicted_cost"] = float(cost[i])
        if with_oracle:
            want.update(oracle_num_pes=int(opt_pes[i]),
                        oracle_l2_kb=int(opt_l2[i]),
                        oracle_cost=float(optimum.best_cost[i]))
        if len(preds) != 1 or any(got.get(key) != value
                                  for key, value in want.items()):
            bad += 1
    return bad


def run_predict(seed: int, seconds: int, trace: bool) -> dict:
    workdir = fresh_dir("predict")
    server = layers = None
    steps, rows, kinds = [], [], []
    connections = os.cpu_count() or 1

    def run_step(rate: float, share: float) -> bool:
        step_rows, step_kinds, bodies = predict_requests(
            seed, len(steps), max(2, int(rate * seconds * share)))
        step = open_loop("127.0.0.1", server.port, bodies, rate, connections)
        for outcome in step.outcomes:
            outcome.index += len(kinds)
        rows.append(step_rows)
        kinds.extend(step_kinds)
        step.passed = _step_passes(step)
        steps.append(step)
        return step.passed

    try:
        server, registry_dir, setups, exits = _serve(workdir, trace)
        if trace:
            start_layers, start_stats = server.layers(), server.stats()
        run_step(REFERENCE_RATE, REFERENCE_SHARE)
        if trace:
            # Per-layer numbers cover the reference step only, the one
            # whose latency the end-to-end metric reports.
            layers = _since(server.layers(), start_layers)
            layers["registry_load_s"] = \
                start_layers["total_s"].get("registry.load", 0.0)
            layers["oracle_hit_rate"] = _hit_rate(server.stats(),
                                                  start_stats)
        passing, failing = REFERENCE_RATE, None
        for rate in LADDER:
            if not run_step(rate, STEP_SHARE):
                failing = rate
                break
            passing = rate
        while failing is not None and failing / passing > RESOLUTION:
            rate = math.sqrt(passing * failing)
            if run_step(rate, STEP_SHARE):
                passing = rate
            else:
                failing = rate
        exits.append(server.stop())
        rows = np.concatenate(rows)
        outcomes = [o for step in steps for o in step.outcomes]
        mismatches = _check_predictions(registry_dir, rows, kinds, outcomes)
    finally:
        if server is not None:
            server.kill()
        remove_dir(workdir)

    reference = steps[0]
    passed = [s for s in steps if s.passed]
    top = max(passed, key=lambda s: s.rate) if passed else reference
    ref_lat = [o.latency_s * 1e3 for o in reference.outcomes if o.ok]
    q, tail_ms = tail(ref_lat)
    return {
        "setups_s": setups, "server_exits": exits,
        "peak_rss_mb": server.peak_rss_mb,
        "connections": connections,
        "steps": [{
            "rate": s.rate, "attempted": len(s.outcomes),
            "succeeded": sum(o.ok for o in s.outcomes),
            "failed": sum(not o.ok for o in s.outcomes),
            "p50_ms": median([o.latency_s * 1e3 for o in s.outcomes]),
            f"p{LIMIT_PERCENTILE:g}_ms": float(np.percentile(
                [o.latency_s * 1e3 for o in s.outcomes], LIMIT_PERCENTILE)),
            "achieved_rps": _achieved_rate(s), "passed": s.passed}
            for s in steps],
        "predict_p50_ms": median(ref_lat),
        "predict_tail": {"percentile": q, "ms": tail_ms, "n": len(ref_lat)},
        "predict_max_rps": _achieved_rate(top),
        "outcomes": outcomes, "reference_outcomes": reference.outcomes,
        "late_s": [x for s in steps for x in s.late_s],
        "mismatches": mismatches, "layers": layers if trace else None,
    }


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _check_sweep(model, rows, results) -> list[int]:
    """Mismatched rows per request.  Every row must come back in order with
    the in-process engine's predictions and costs, computed chunk by chunk
    as the server chunked it."""
    from repro.core import BatchedDSEPredictor
    from repro.dse import ExhaustiveOracle

    engine = BatchedDSEPredictor(model)
    oracle = ExhaustiveOracle(model.problem)
    expected = {}
    bad = []
    for result in results:
        if result is None or result.status != 200 \
                or result.summary is None or "error" in result.summary \
                or sum(c["count"] for c in result.chunks) != len(rows):
            bad.append(len(rows))
            continue
        want = []
        for chunk in result.chunks:
            span = (chunk["start"], chunk["count"])
            if span not in expected:
                sub = rows[span[0]:span[0] + span[1]]
                pe, l2 = engine.predict_indices(sub)
                expected[span] = np.column_stack(
                    [sub, pe, l2, oracle.cost_at(sub, pe, l2)])
            want.append(expected[span])
        got = np.array([[p["m"], p["n"], p["k"], p["dataflow"], p["pe_idx"],
                         p["l2_idx"], p.get("predicted_cost", np.nan)]
                        for c in result.chunks for p in c["predictions"]],
                       dtype=np.float64)
        want = np.concatenate(want)
        if got.shape != want.shape or np.any(want[:, :4] != rows):
            bad.append(len(rows))
            continue
        bad.append(int(np.sum(np.any(got != want, axis=1))))
    return bad


def run_sweep(seed: int, seconds: int, trace: bool) -> dict:
    from repro.dse import DSEProblem

    workdir = fresh_dir("sweep")
    server = layers = None
    rows = DSEProblem().sample_inputs(SWEEP_ROWS, np.random.default_rng(seed))
    body = json.dumps({
        "workloads": [dict(zip(("m", "n", "k", "dataflow"), r))
                      for r in rows.tolist()],
        "with_cost": True}).encode()
    try:
        server, registry_dir, setups, exits = _serve(workdir, trace)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        results = []
        if trace:
            start_layers, start_stats = server.layers(), server.stats()
        began = time.perf_counter()
        while not results or time.perf_counter() - began < seconds:
            try:
                results.append(stream_sweep(conn, body))
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                results.append(None)
        conn.close()
        if trace:
            layers = _since(server.layers(), start_layers)
            layers["registry_load_s"] = \
                start_layers["total_s"].get("registry.load", 0.0)
            layers["oracle_hit_rate"] = _hit_rate(server.stats(),
                                                  start_stats)
        exits.append(server.stop())
        mismatches = _check_sweep(load_artifact(registry_dir), rows, results)
    finally:
        if server is not None:
            server.kill()
        remove_dir(workdir)

    # Timing counts every request that streamed all its rows back; a
    # request with any wrong row is also a failure.
    timed = [r for r in results if r is not None and r.status == 200
             and sum(c["count"] for c in r.chunks) == len(rows)]
    if not timed:
        raise RuntimeError("no /sweep request streamed its rows back")
    succeeded = sum(not bad for bad in mismatches)
    return {
        "setups_s": setups, "server_exits": exits,
        "peak_rss_mb": server.peak_rss_mb,
        "requests": len(results), "succeeded": succeeded,
        "failed": len(results) - succeeded,
        "mismatched_rows": sum(mismatches),
        "sweep_rows_per_s": median([len(rows) / r.elapsed_s for r in timed]),
        "sweep_first_chunk_ms": median([r.first_chunk_s * 1e3
                                        for r in timed]),
        "elapsed_s": [r.elapsed_s for r in timed],
        "layers": layers,
    }
