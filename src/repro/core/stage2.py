"""Stage-2 training: decoder + UOV heads over the frozen encoder (§III-D).

The encoder's weights are frozen ("to prevent the backpropagation of
gradients") and the decoder learns to map latent points to hardware
configurations.  The loss depends on the head style:

* ``uov``            — Unification Loss (Eq. 3) per head, summed.
* ``classification`` — cross-entropy per head, summed.
* ``joint``          — one cross-entropy over the 768-way label.
* ``regression``     — MSE against the normalised choice index.

Epoch/batch driving is the unified :class:`repro.train.TrainLoop`; the
freeze/unfreeze protocol lives in the task's fit hooks.

Because the encoder is frozen for the entire fit, the fused fast path
(:func:`repro.nn.fused_enabled`) precomputes every sample's embedding
once (lazily, after any checkpoint resume) and fancy-indexes it per
batch — bit-identical to re-running the encoder every step, and the
single biggest win in ``benchmarks/bench_train_step.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..dse import DSEDataset
from ..train import OptimSpec, TrainLoop, TrainTask
from .model import AirchitectV2

__all__ = ["Stage2Config", "Stage2Trainer"]


@dataclass
class Stage2Config:
    """Stage-2 optimisation hyper-parameters (paper: 100 epochs, a=0.75, g=1)."""

    epochs: int = 20
    batch_size: int = 256
    lr: float = 1e-3
    alpha: float = 0.75
    gamma: float = 1.0
    grad_clip: float = 5.0
    seed: int = 1


class _Stage2Task(TrainTask):
    """Decoder training over frozen encoder embeddings."""

    name = "stage2"
    history_keys = ("loss",)

    # Rows per forward pass when precomputing the frozen-encoder embedding
    # cache (bounds peak memory; the encoder is row-wise, so chunking does
    # not change a single bit of any embedding).
    EMBED_CHUNK = 8192

    def __init__(self, trainer: "Stage2Trainer", dataset: DSEDataset):
        self.trainer = trainer
        self.model = trainer.model
        self.dataset = dataset
        config = trainer.config
        self.epochs = config.epochs
        self.seed = config.seed
        self._embed_cache: np.ndarray | None = None
        # The one-shot cache is only valid when the frozen encoder is
        # deterministic: active dropout redraws its mask every forward
        # (train mode fires it regardless of requires_grad), so caching
        # would freeze one noise realisation and skip the rng draws.
        self._embed_cacheable = not any(
            isinstance(m, nn.Dropout) and m.p > 0
            for m in self.model.encoder.modules())

    def on_fit_begin(self) -> None:
        self.model.encoder.requires_grad_(False)   # the paper's frozen encoder
        self.model.perf_head.requires_grad_(False)

    def loader(self, rng: np.random.Generator) -> nn.DataLoader:
        cfg = self.trainer.config
        pe_t, l2_t = self.trainer._targets(self.dataset)
        # Row indices ride along so the fast path can slice the embedding
        # cache; the extra array does not touch the rng stream.
        data = nn.ArrayDataset(self.dataset.inputs, pe_t, l2_t,
                               np.arange(len(self.dataset)))
        return nn.DataLoader(data, cfg.batch_size, shuffle=True, rng=rng)

    def _embeddings(self, idx: np.ndarray) -> nn.Tensor:
        """Batch embeddings from the one-shot frozen-encoder cache.

        Stage 2 trains the decoder against a *frozen* encoder, so every
        sample's embedding is constant for the whole fit; computing them
        once (lazily, after any checkpoint resume has restored the weights)
        and fancy-indexing per batch is bit-identical to re-running the
        encoder every step — the encoder is row-wise, so neither chunking
        nor batch composition changes any value.
        """
        if self._embed_cache is None:
            inputs = self.dataset.inputs
            with nn.no_grad():
                chunks = [self.model.embed(inputs[i:i + self.EMBED_CHUNK]).numpy()
                          for i in range(0, len(inputs), self.EMBED_CHUNK)]
            self._embed_cache = (chunks[0] if len(chunks) == 1
                                 else np.concatenate(chunks, axis=0))
        return nn.Tensor(self._embed_cache[idx])

    def on_fit_end(self) -> None:
        self.model.encoder.requires_grad_(True)
        self.model.perf_head.requires_grad_(True)
        self._embed_cache = None

    def optim_specs(self) -> dict[str, OptimSpec]:
        cfg = self.trainer.config
        return {"main": OptimSpec(self.model.decoder.parameters(), cfg.lr,
                                  schedule=nn.cosine_schedule(cfg.epochs),
                                  grad_clip=cfg.grad_clip)}

    def batch_step(self, batch, step, rng) -> dict[str, float]:
        xb, pb, lb, idx = batch
        if nn.fused_enabled() and self._embed_cacheable:
            embedding = self._embeddings(idx)
        else:
            embedding = self.model.embed(xb)
        pe_logits, l2_logits = self.model.decoder(embedding.detach())
        loss = self.trainer._loss(pe_logits, l2_logits, pb, lb)
        step.apply(loss)
        return {"loss": loss.item()}


class Stage2Trainer:
    """Trains the decoder (and heads) with the encoder frozen."""

    def __init__(self, model: AirchitectV2, config: Stage2Config | None = None):
        self.model = model
        self.config = config or Stage2Config()
        self.unification = nn.UnificationLoss(self.config.alpha, self.config.gamma)

    # ------------------------------------------------------------------
    def _targets(self, dataset: DSEDataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-head training targets for the configured head style."""
        model = self.model
        style = model.config.head_style
        space = model.problem.space
        if style == "uov":
            return (model.pe_codec.encode(dataset.pe_idx),
                    model.l2_codec.encode(dataset.l2_idx))
        if style == "classification":
            return dataset.pe_idx, dataset.l2_idx
        if style == "joint":
            return dataset.joint_labels(space.n_l2), np.zeros(len(dataset))
        # regression: normalised indices in [0, 1]
        return (dataset.pe_idx / max(space.n_pe - 1, 1),
                dataset.l2_idx / max(space.n_l2 - 1, 1))

    def _loss(self, pe_logits, l2_logits, pe_target, l2_target):
        style = self.model.config.head_style
        if style == "uov":
            return (self.unification(pe_logits, pe_target)
                    + self.unification(l2_logits, l2_target))
        if style == "classification":
            return (nn.cross_entropy(pe_logits, pe_target)
                    + nn.cross_entropy(l2_logits, l2_target))
        if style == "joint":
            return nn.cross_entropy(pe_logits, pe_target)
        pe_pred = pe_logits.sigmoid().squeeze(-1)
        l2_pred = l2_logits.sigmoid().squeeze(-1)
        return nn.mse_loss(pe_pred, pe_target) + nn.mse_loss(l2_pred, l2_target)

    # ------------------------------------------------------------------
    def train(self, dataset: DSEDataset, verbose: bool = False,
              callbacks=(), checkpoint_path=None, checkpoint_every: int = 1,
              resume: bool = True) -> dict:
        """Run stage-2 training; returns a history dict of per-epoch losses."""
        loop = TrainLoop(_Stage2Task(self, dataset), callbacks=callbacks)
        return loop.fit(verbose=verbose, checkpoint_path=checkpoint_path,
                        checkpoint_every=checkpoint_every, resume=resume)
