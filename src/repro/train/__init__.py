"""``repro.train`` — the unified training engine.

One :class:`TrainLoop` runtime (epoch/batch driving, Adam + cosine
schedules, gradient clipping, loss-history accounting, verbose reporting)
drives every trainer in the reproduction — stage-1, stage-2 and the three
baselines — via small :class:`TrainTask` adapters, with a callback system
for resumable checkpoints, early stopping and throughput statistics.

``python -m repro train`` is the CLI entry point.
"""

from .callbacks import (Callback, Checkpointer, EarlyStopping,
                        ProfilerCallback, ThroughputMonitor)
from .checkpoint import (CheckpointCorruptError, CheckpointMismatchError,
                         checkpoint_exists, load_checkpoint,
                         previous_checkpoint_path, save_checkpoint)
from .loop import OptimSpec, StepContext, TrainLoop, TrainTask

__all__ = [
    "TrainLoop", "TrainTask", "OptimSpec", "StepContext",
    "Callback", "Checkpointer", "EarlyStopping", "ThroughputMonitor",
    "ProfilerCallback",
    "save_checkpoint", "load_checkpoint", "checkpoint_exists",
    "previous_checkpoint_path",
    "CheckpointMismatchError", "CheckpointCorruptError",
]
