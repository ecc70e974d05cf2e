"""Per-layer timing from outside the program, for traced runs only.

:class:`LayerTimer` replaces chosen public functions of the program's
modules with wrappers that add each call's wall time to a named total.
Nested wrapped calls on the same thread are subtracted from their
caller's *self* time, so ``handle_predict``'s self time excludes the cost
model and the wait for its batcher future.  Totals stay in memory and are
written once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class LayerTimer:
    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._stacks = threading.local()

    def wrap(self, owner, attr: str, name: str, units=None) -> None:
        """Time every call of ``owner.attr`` under ``name``.  ``units``
        maps the call's arguments to a work count (e.g. shards)."""
        original = getattr(owner, attr)
        timer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = getattr(timer._stacks, "frames", None)
            if stack is None:
                stack = timer._stacks.frames = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with timer._lock:
                    timer.total_s[name] += elapsed
                    timer.self_s[name] += elapsed - children
                    timer.calls[name] += 1
                    if units is not None:
                        timer.units[name] += units(*args, **kwargs)

        setattr(owner, attr, timed)

    def snapshot(self) -> dict:
        with self._lock:
            return {"total_s": dict(self.total_s),
                    "self_s": dict(self.self_s),
                    "calls": dict(self.calls),
                    "units": dict(self.units)}

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.snapshot(), out)


def install_model(timer: LayerTimer) -> None:
    """The model's top-level blocks and its decode step."""
    from repro.core.model import (AirchitectDecoder, AirchitectEncoder,
                                  AirchitectV2, PerformanceHead)
    timer.wrap(AirchitectEncoder, "forward", "nn.encoder.forward")
    timer.wrap(PerformanceHead, "forward", "nn.perf_head.forward")
    timer.wrap(AirchitectDecoder, "forward", "nn.decoder.forward")
    timer.wrap(AirchitectV2, "decode_logits", "core.decode")


def install_pipeline(timer: LayerTimer) -> None:
    """Labelling, its process pool and cache import, and evaluation."""
    import repro.dse.dataset as dataset
    from repro.core import BatchedDSEPredictor
    from repro.dse import ExhaustiveOracle
    from repro.faults import PoolSupervisor

    install_model(timer)
    # generate_workload_dataset calls the name it imported.
    timer.wrap(dataset, "label_inputs", "dse.label")
    timer.wrap(PoolSupervisor, "ensure", "dse.label.pool_start")
    timer.wrap(PoolSupervisor, "run", "dse.label.shards",
               units=lambda self, func, tasks: len(tasks))
    timer.wrap(ExhaustiveOracle, "import_cache", "dse.label.cache_import")
    timer.wrap(ExhaustiveOracle, "cost_at", "dse.cost_at")
    timer.wrap(BatchedDSEPredictor, "predict_indices", "core.predict_indices")


def install_serving(timer: LayerTimer) -> None:
    """The server's request path, engine, cost model and artifact load."""
    import concurrent.futures

    from repro.core import BatchedDSEPredictor
    from repro.dse import ExhaustiveOracle
    from repro.registry import ModelRegistry
    from repro.serving import DSEServer

    install_model(timer)
    timer.wrap(DSEServer, "handle_predict", "serving.handle_predict")
    timer.wrap(DSEServer, "prepare_sweep", "serving.sweep.prepare")
    # The handler thread blocks here while its rows wait in the batcher
    # queue and run through the engine; nesting removes that wait from
    # handle_predict's self time.
    timer.wrap(concurrent.futures.Future, "result", "serving.future_wait")
    timer.wrap(BatchedDSEPredictor, "predict_indices", "core.predict_indices")
    timer.wrap(ExhaustiveOracle, "cost_at", "dse.cost_at")
    timer.wrap(ExhaustiveOracle, "solve", "dse.oracle.solve")
    timer.wrap(ModelRegistry, "load", "registry.load")
