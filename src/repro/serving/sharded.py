"""Shard large design-space sweeps across worker processes.

Python-side forward passes hold the GIL, so beyond one core the batched
engine scales with *processes*, not threads.  The executor:

* writes the model's state dict once (``save_module``) and has each
  worker rebuild + load it in its pool initializer — one model load per
  worker, amortised over every shard that worker serves;
* splits the sweep into one contiguous shard per worker, maps them over
  the pool, and reassembles the results by shard index so the output
  matches the single-process
  :meth:`~repro.core.BatchedDSEPredictor.predict_indices` exactly;
* returns design indices only: pricing them is the caller's, with its
  own oracle (the server prices ``/sweep`` chunks in-process, so the
  oracle's LRU/persistent cache keeps accumulating);
* falls back to the single-process engine when ``num_workers <= 1``, the
  sweep is smaller than two minimum shards, or the platform refuses to
  spawn a pool (sandboxes without ``fork``);
* survives worker failure: shards run under a
  :class:`~repro.faults.PoolSupervisor` with a per-shard timeout, so a
  SIGKILLed or hung worker costs one timeout + a pool rebuild (capped
  exponential backoff), the missing shards are re-dispatched, and after
  repeated pool failure the remainder degrades to the in-process
  engine — results bit-identical to the fault-free run either way,
  because shards are pure functions of their rows reassembled by index.

Each worker runs its OpenBLAS on one thread.  A forked worker inherits
the parent's BLAS thread pool, so N workers would each run the parent's
thread count on the same cores; the engine's products at micro-batch
1024 gain nothing from a second BLAS thread, and on a 2-core host two
workers of two threads each were slower than one process.

The worker pool and the model-state temp directory are torn down by
``close()`` (idempotent), by the context manager, or — as a last
resort — by a ``weakref.finalize`` hook at garbage collection or
interpreter exit, so abandoned executors never leak processes or
``repro_shard_*`` directories.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import time
import warnings
import weakref

import numpy as np

from .. import blas
from ..core import AirchitectV2, BatchedDSEPredictor
from ..faults import PoolBrokenError, PoolSupervisor, RetryPolicy, fire
from ..nn import load_module, save_module

__all__ = ["ShardedSweepExecutor"]

# Per-worker-process engine, installed by _init_worker (one per pool
# process; plain module global because pool workers are single-threaded).
_WORKER_ENGINE: BatchedDSEPredictor | None = None


def _init_worker(config, problem, state_path: str, micro_batch_size: int) -> None:
    global _WORKER_ENGINE
    # A terminal Ctrl-C lands on the whole foreground process *group*,
    # workers included; dying mid-IPC can wedge the parent's
    # pool.terminate()/join().  The parent owns worker lifecycle, so
    # workers ignore SIGINT and wait to be terminated.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The pool's processes are the parallelism: one BLAS thread each, so
    # N workers never run N times the parent's BLAS threads on its cores.
    blas.set_num_threads(1)
    model = AirchitectV2(config, problem, np.random.default_rng(0))
    load_module(model, state_path)
    model.eval()
    _WORKER_ENGINE = BatchedDSEPredictor(model,
                                         micro_batch_size=micro_batch_size)


def _run_shard(args: tuple[int, np.ndarray]) -> tuple[int, np.ndarray, np.ndarray]:
    shard_idx, inputs = args
    hit = fire("pool.worker_crash")
    if hit is not None:
        os._exit(int(hit.get("exit_code", 47)))     # SIGKILL-equivalent
    hit = fire("pool.shard_hang")
    if hit is not None:
        time.sleep(float(hit.get("hang_s", 3600.0)))
    pe_idx, l2_idx = _WORKER_ENGINE.predict_indices(inputs)
    return shard_idx, pe_idx, l2_idx


def _cleanup_dir(state_dir) -> None:
    """Remove the model-state temp dir (finalizer-safe: tolerates reruns)."""
    if state_dir is not None and os.path.isdir(state_dir.name):
        state_dir.cleanup()


class ShardedSweepExecutor:
    """Run :meth:`BatchedDSEPredictor.predict_indices` on N processes.

    Parameters
    ----------
    model:
        The trained :class:`AirchitectV2` to replicate into workers.
    num_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8.  ``<= 1``
        means single-process (no pool is ever created).
    micro_batch_size:
        Forwarded to each worker's engine.
    min_shard_size:
        Sweeps under ``2 * min_shard_size`` rows skip the pool: process
        fan-out costs more than it saves on tiny batches.  Larger sweeps
        get one shard per worker, never under this many rows.
    mp_context:
        ``multiprocessing`` start method (default ``"fork"`` where
        available — workers inherit nothing mutable, so fork is safe and
        avoids re-importing the world per worker).
    registry / labels:
        Optional :class:`~repro.obs.MetricsRegistry` (plus label
        names/values, e.g. ``{"model": ...}``) into which the
        supervisor publishes its recovery counters
        (``repro_retry_total``, ``repro_pool_rebuilds_total``,
        ``repro_pool_degraded_total``).
    shard_timeout_s:
        Per-shard wall-clock budget; a shard with no result by then is
        treated as lost (its worker was killed or hung) and re-dispatched
        on a rebuilt pool.  ``None`` disables the timeout (a lost worker
        then blocks forever — only for debugging).  Spurious timeouts are
        safe: the retry recomputes the same rows bit-identically.
    retry:
        :class:`~repro.faults.RetryPolicy` governing pool rebuilds and
        backoff before degrading to in-process execution.
    """

    def __init__(self, model: AirchitectV2, num_workers: int | None = None,
                 micro_batch_size: int = 1024, min_shard_size: int = 256,
                 mp_context: str | None = None,
                 registry=None, labels: dict | None = None,
                 shard_timeout_s: float | None = 120.0,
                 retry: RetryPolicy | None = None):
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, 8)
        self.model = model
        self.problem = model.problem
        self.num_workers = max(1, int(num_workers))
        self.micro_batch_size = micro_batch_size
        self.min_shard_size = max(1, int(min_shard_size))
        if mp_context is None:
            mp_context = "fork" if "fork" in \
                multiprocessing.get_all_start_methods() else "spawn"
        self.mp_context = mp_context
        self._fallback = BatchedDSEPredictor(model,
                                             micro_batch_size=micro_batch_size)
        self._state_dir: tempfile.TemporaryDirectory | None = None
        self._state_finalizer: weakref.finalize | None = None
        self._supervisor = PoolSupervisor(
            self._make_pool, shard_timeout_s=shard_timeout_s, retry=retry,
            name="sweep-pool", registry=registry,
            labels={**{str(k): str(v) for k, v in (labels or {}).items()},
                    "component": "sweep"})

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def _pool(self):
        """The supervisor's live pool (None when running single-process)."""
        return self._supervisor.pool

    def _make_pool(self):
        """Pool factory for the supervisor; ``None`` = stay single-process.

        Called again after every supervised teardown, so a rebuilt pool
        reuses the already-saved model state."""
        if self.num_workers <= 1:
            return None
        if self._state_dir is None:
            self._state_dir = tempfile.TemporaryDirectory(
                prefix="repro_shard_")
            # Last-resort cleanup at GC/interpreter exit: an abandoned
            # executor must not leak its state dir (the supervisor owns
            # the matching hook for worker processes).
            self._state_finalizer = weakref.finalize(self, _cleanup_dir,
                                                     self._state_dir)
            save_module(self.model,
                        os.path.join(self._state_dir.name, "model.npz"))
        state_path = os.path.join(self._state_dir.name, "model.npz")
        try:
            ctx = multiprocessing.get_context(self.mp_context)
            return ctx.Pool(
                self.num_workers, initializer=_init_worker,
                initargs=(self.model.config, self.problem, state_path,
                          self.micro_batch_size))
        except (OSError, ValueError) as exc:
            warnings.warn(f"could not start a {self.num_workers}-worker "
                          f"pool ({exc}); falling back to single-process "
                          f"sweeps", RuntimeWarning, stacklevel=3)
            self.num_workers = 1
            return None

    def _ensure_pool(self):
        """Create the worker pool once; ``None`` means run single-process."""
        if self.num_workers <= 1:
            return None
        return self._supervisor.ensure()

    def close(self) -> None:
        """Terminate the pool and remove the state dir; idempotent and
        exception-safe even when the pool's workers have been killed."""
        self._supervisor.close()
        if self._state_finalizer is not None:
            self._state_finalizer()    # no-op if the finalizer already ran
            self._state_finalizer = None
        self._state_dir = None

    def __enter__(self) -> "ShardedSweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def shard(self, inputs: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Contiguous, order-preserving shards: one per worker (rounded
        up), never under ``min_shard_size`` rows."""
        shard_size = max(self.min_shard_size,
                         -(-len(inputs) // self.num_workers))
        return [(i, inputs[start:start + shard_size])
                for i, start in enumerate(range(0, len(inputs), shard_size))]

    def _run_pooled(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map shards over the supervised pool.

        Shards reassemble by index, so completion order is irrelevant;
        shards the pool lost for good (worker churn outlasting the retry
        policy) are recomputed in-process — same rows, same deterministic
        forward pass, bit-identical output."""
        shards = self.shard(inputs)
        pe_idx = np.empty(len(inputs), dtype=np.int64)
        l2_idx = np.empty(len(inputs), dtype=np.int64)
        offsets = np.cumsum([0] + [len(rows) for _, rows in shards])
        try:
            results = self._supervisor.run(_run_shard, shards)
        except PoolBrokenError as exc:
            results = exc.completed
            for idx in exc.pending:
                pe, l2 = self._fallback.predict_indices(shards[idx][1])
                results[idx] = (idx, pe, l2)
        for idx, pe, l2 in results.values():
            sl = slice(offsets[idx], offsets[idx + 1])
            pe_idx[sl], l2_idx[sl] = pe, l2
        return pe_idx, l2_idx

    def predict_indices(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sharded one-shot DSE over pre-built (batch, 4) input tuples."""
        inputs = np.atleast_2d(np.asarray(inputs))
        pool = self._ensure_pool() \
            if len(inputs) >= 2 * self.min_shard_size else None
        if pool is None:
            return self._fallback.predict_indices(inputs)
        return self._run_pooled(inputs)
