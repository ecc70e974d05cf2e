"""Shared experiment plumbing: cached datasets and trained models.

All table/figure runners pull their data and models from here, so a suite
of benchmarks trains each model once.  Caching is on-disk (see
:class:`repro.experiments.harness.Workspace`) keyed by scale name + seed.

Training runs through the unified :mod:`repro.train` engine: every model
getter checkpoints into the workspace while fitting, so an interrupted
experiment resumes mid-run instead of retraining from scratch (checkpoints
are deleted once the final model is cached).  Dataset generation accepts
``num_workers`` to shard oracle labelling across processes.
"""

from __future__ import annotations

import numpy as np

from ..baselines import (GANDSE, GANDSEConfig, AirchitectV1, V1Config, VAESA,
                         VAESAConfig, train_gandse, train_v1, train_vaesa)
from ..core import (AirchitectV2, Stage1Config, Stage1Trainer, Stage2Config,
                    Stage2Trainer)
from ..dse import (DSEDataset, DSEProblem, ExhaustiveOracle,
                   generate_workload_dataset)
from ..workloads import all_training_layers
from .harness import ExperimentScale, Workspace, get_scale

__all__ = ["get_problem", "get_datasets", "get_v2", "get_v1", "get_gandse",
           "get_vaesa", "stage_configs"]


def get_problem() -> DSEProblem:
    """The canonical Table-I problem instance."""
    return DSEProblem()


def get_datasets(scale, workspace: Workspace | None = None,
                 problem: DSEProblem | None = None,
                 num_workers: int = 1) -> tuple[DSEDataset, DSEDataset]:
    """(train, test) datasets from the 105-workload zoo, cached on disk.

    ``num_workers > 1`` shards the oracle labelling across processes
    (bit-identical labels, so the cache key does not depend on it).
    """
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = problem or get_problem()

    train_path = workspace.dataset_key(scale, "train")
    test_path = workspace.dataset_key(scale, "test")
    if workspace.has(train_path) and workspace.has(test_path):
        return DSEDataset.load(train_path), DSEDataset.load(test_path)

    rng = np.random.default_rng(scale.seed)
    total = scale.train_samples + scale.test_samples
    dataset = generate_workload_dataset(problem, all_training_layers(), rng,
                                        target_count=total,
                                        num_workers=num_workers)
    train, test = dataset.split(scale.test_samples / len(dataset), rng)
    train.save(train_path)
    test.save(test_path)
    return train, test


def stage_configs(scale, use_contrastive: bool = True,
                  use_perf: bool = True) -> tuple[Stage1Config, Stage2Config]:
    """Stage-1/2 training configs at the given scale."""
    scale = get_scale(scale)
    s1 = Stage1Config(epochs=scale.stage1_epochs,
                      use_contrastive=use_contrastive, use_perf=use_perf,
                      seed=scale.seed)
    s2 = Stage2Config(epochs=scale.stage2_epochs, seed=scale.seed + 1)
    return s1, s2


def _cached_model(workspace: Workspace, scale: ExperimentScale, tag: str,
                  build, train):
    """Generic build-or-load through the workspace's model registry:
    ``build()`` makes the module, ``train(model, checkpoint)`` fits it
    (only when no artifact exists); whatever it returns is ignored, so
    loss histories never reach the manifest.

    The fitted model is registered as a manifested artifact (kind,
    config, scale + seed fingerprint), so ``repro serve --registry``
    can discover and route to it; pre-registry workspace caches (plain
    ``save_module`` archives at the same path) still load bit-identically.

    ``checkpoint`` is a workspace path stem the trainer may checkpoint
    into (``<stem>_<stage>.npz``); an interrupted fit resumes from it on
    the next call, and all ``<stem>*`` files are removed once the final
    model is cached.
    """
    registry = workspace.registry
    model_id = workspace.model_id(scale, tag)
    model = build()
    if registry.has(model_id):
        registry.load_into(model_id, model)
        model.eval()
        return model
    checkpoint = workspace.checkpoint_key(scale, tag)
    train(model, checkpoint)
    registry.save(model, model_id, scale=scale.name,
                  fingerprint={"scale": scale.name, "seed": int(scale.seed),
                               "tag": tag})
    for stale in checkpoint.parent.glob(checkpoint.name + "*"):
        stale.unlink()
    return model


def get_v2(scale, train_set: DSEDataset, workspace: Workspace | None = None,
           problem: DSEProblem | None = None, head_style: str = "uov",
           num_buckets: int = 16, use_contrastive: bool = True,
           use_perf: bool = True, tag: str | None = None,
           callbacks=()) -> AirchitectV2:
    """Train (or load) an AIRCHITECT v2 variant.

    ``callbacks`` (e.g. a :class:`repro.train.ThroughputMonitor`) are
    attached to both stage fits; they only fire when the model is actually
    trained, not when it loads from the workspace cache.
    """
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = problem or get_problem()
    tag = tag or (f"v2_{head_style}_k{num_buckets}"
                  f"_c{int(use_contrastive)}p{int(use_perf)}")

    def build() -> AirchitectV2:
        rng = np.random.default_rng(scale.seed + 17)
        config = scale.model_config(head_style=head_style,
                                    num_buckets=num_buckets)
        return AirchitectV2(config, problem, rng)

    def fit(model: AirchitectV2, checkpoint) -> None:
        s1, s2 = stage_configs(scale, use_contrastive, use_perf)
        Stage1Trainer(model, s1).train(
            train_set, callbacks=callbacks,
            checkpoint_path=f"{checkpoint}_stage1.npz")
        Stage2Trainer(model, s2).train(
            train_set, callbacks=callbacks,
            checkpoint_path=f"{checkpoint}_stage2.npz")

    return _cached_model(workspace, scale, tag, build, fit)


def get_v1(scale, train_set: DSEDataset, workspace: Workspace | None = None,
           problem: DSEProblem | None = None,
           head_style: str = "joint", callbacks=()) -> AirchitectV1:
    """Train (or load) the AIRCHITECT v1 baseline."""
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = problem or get_problem()

    def build() -> AirchitectV1:
        rng = np.random.default_rng(scale.seed + 29)
        config = V1Config(epochs=scale.baseline_epochs, head_style=head_style,
                          seed=scale.seed)
        return AirchitectV1(config, problem, rng)

    return _cached_model(
        workspace, scale, f"v1_{head_style}", build,
        lambda model, ckpt: train_v1(model, train_set, callbacks=callbacks,
                                     checkpoint_path=f"{ckpt}.npz"))


def get_gandse(scale, train_set: DSEDataset,
               workspace: Workspace | None = None,
               problem: DSEProblem | None = None, callbacks=()) -> GANDSE:
    """Train (or load) the GANDSE baseline."""
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = problem or get_problem()

    def build() -> GANDSE:
        rng = np.random.default_rng(scale.seed + 41)
        config = GANDSEConfig(epochs=scale.baseline_epochs, seed=scale.seed)
        return GANDSE(config, problem, rng)

    return _cached_model(
        workspace, scale, "gandse", build,
        lambda model, ckpt: train_gandse(model, train_set, callbacks=callbacks,
                                         checkpoint_path=f"{ckpt}.npz"))


def get_vaesa(scale, train_set: DSEDataset,
              workspace: Workspace | None = None,
              problem: DSEProblem | None = None, callbacks=()) -> VAESA:
    """Train (or load) the VAESA baseline."""
    scale = get_scale(scale)
    workspace = workspace or Workspace()
    problem = problem or get_problem()

    def build() -> VAESA:
        rng = np.random.default_rng(scale.seed + 53)
        config = VAESAConfig(epochs=scale.baseline_epochs, seed=scale.seed)
        return VAESA(config, problem, rng)

    return _cached_model(
        workspace, scale, "vaesa", build,
        lambda model, ckpt: train_vaesa(model, train_set, callbacks=callbacks,
                                        checkpoint_path=f"{ckpt}.npz"))
