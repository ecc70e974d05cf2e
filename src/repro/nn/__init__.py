"""``repro.nn`` — a compact numpy deep-learning substrate.

Implements everything the AIRCHITECT v2 reproduction needs from a DL
framework: an autograd :class:`Tensor`, transformer layers, losses
(including the paper's InfoNCE and Unification losses), optimisers and data
pipelines, so the reproduction runs on numpy alone instead of PyTorch.
"""

from . import functional, fused, init
from .attention import (DownsampleUnit, FeedForward, MultiHeadSelfAttention,
                        TransformerBlock, TransformerStack, UpsampleUnit)
from .fused import fused_enabled, fused_kernels
from .data import ArrayDataset, DataLoader, train_test_split
from .layers import (Dropout, Embedding, GELU, Identity, LayerNorm, Linear,
                     ReLU, Sigmoid, Tanh)
from .losses import (InfoNCELoss, UnificationLoss,
                     binary_cross_entropy_with_logits, cross_entropy,
                     l1_loss, mse_loss)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import (Adam, AdamW, LRScheduler, Optimizer, SGD, clip_grad_norm,
                    cosine_schedule, step_schedule, warmup_cosine_schedule)
from .serialization import load_module, save_module
from .tensor import Tensor, as_tensor, concat, no_grad, stack, where

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "where", "no_grad",
    "functional", "fused", "fused_enabled", "fused_kernels", "init",
    "Module", "ModuleList", "Parameter", "Sequential",
    "Linear", "LayerNorm", "Embedding", "Dropout",
    "ReLU", "GELU", "Tanh", "Sigmoid", "Identity",
    "MultiHeadSelfAttention", "FeedForward", "TransformerBlock",
    "TransformerStack", "DownsampleUnit", "UpsampleUnit",
    "mse_loss", "l1_loss", "cross_entropy",
    "binary_cross_entropy_with_logits", "InfoNCELoss", "UnificationLoss",
    "Optimizer", "SGD", "Adam", "AdamW", "LRScheduler", "clip_grad_norm",
    "cosine_schedule", "step_schedule", "warmup_cosine_schedule",
    "ArrayDataset", "DataLoader", "train_test_split",
    "save_module", "load_module",
]
