"""Fused forward/backward kernels for the ``repro.nn`` training hot path.

Every kernel here collapses a chain of 4-10 autograd nodes — the op-by-op
compositions in :mod:`repro.nn.tensor` / :mod:`repro.nn.functional` /
:mod:`repro.nn.losses` — into ONE graph node with a hand-written backward.
The payoff is Python overhead, not FLOPs: each composed op allocates a
result ``Tensor``, a backward closure and graph bookkeeping, and the
training models are small enough that this per-op overhead dominates the
step time.

Bit-identity contract
---------------------
The fused kernels are **bit-identical** to the compositions they replace
(asserted op-by-op and end-to-end in ``tests/nn/test_fused.py``):

* the forward replays the exact numpy expressions of the composed chain in
  the same order (in-place ``out=`` is used only on arrays the kernel owns,
  which cannot change values);
* the backward replays the chain's closure expressions in the exact order
  the backward DFS would fire them, including the *arrival order* of
  gradient contributions into shared operands — floating-point addition is
  not associative, so this order is part of the contract;
* every chain fused here has a single tensor input, so it occupies a
  contiguous run of the backward DFS post-order; collapsing it cannot
  reorder any other node's firing slot (``scaled_matmul`` keeps the
  composed matmul's parent tuple for the same reason);
* an N-D operand times a 2-D one is ONE flat 2-D GEMM, forward and
  backward, everywhere it runs — ``linear`` here and the composed
  ``Tensor.__matmul__`` both call
  :func:`~repro.nn.tensor.flat_matmul` and
  :func:`~repro.nn.tensor.flat_matmul_grads`, so the weight gradient is
  ``x2.T @ g2`` on both paths (changing that rule changes the
  weight-gradient summation order, so it lives in one place);
* when no backward will be recorded (``no_grad``, or no input requires
  grad), ``gelu`` and ``layer_norm`` take a no-grad path: the same
  expressions in the same order, written with ``out=`` into one owned
  buffer (layer norm needs a second for the squares), and no closure or
  saved arrays.  The forward bits are those of the grad path.

The module-level switch (:func:`fused_enabled` / :func:`fused_kernels`)
drops the whole stack — kernels, flat-arena optimisers, DataLoader fast
path — back to the op-by-op reference implementation;
``benchmarks/bench_train_step.py`` uses that as its frozen baseline.
"""

from __future__ import annotations

import math

import numpy as np

from .switches import Switch
from .tensor import (Tensor, _unbroadcast, flat_matmul, flat_matmul_grads,
                     is_grad_enabled)

__all__ = ["fused_enabled", "fused_kernels", "linear", "gelu", "layer_norm",
           "softmax", "log_softmax", "normalize", "matmul", "scaled_matmul",
           "bce_with_logits", "l1_mean", "mse_mean", "nll_mean",
           "unification_loss", "split_heads", "merge_heads"]


_FUSED = Switch(True, name="fused_kernels")


def fused_enabled() -> bool:
    """Whether the fused fast path (kernels, arenas, loader) is active."""
    return _FUSED.enabled


def fused_kernels(enabled: bool = True):
    """Enable/disable the fused fast path within a scope.

    Returns an exception-safe context manager: ``with fused_kernels(False):``
    runs the frozen op-by-op reference implementation (same bits, more
    Python) — the baseline the training benchmark measures against — and
    the override is popped even if the body raises, so a failing test can
    never leak a disabled fast path into the rest of the process.
    """
    return _FUSED(enabled)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """``x @ W + b`` as one node (composed: matmul + broadcast add).

    The product is one flat 2-D GEMM over all leading axes, forward and
    backward (:func:`~repro.nn.tensor.flat_matmul` and
    :func:`~repro.nn.tensor.flat_matmul_grads`, which the composed matmul
    also runs).
    """
    xd, wd = x.data, weight.data
    out = flat_matmul(xd, wd)
    if bias is not None:
        np.add(out, bias.data, out=out)

    def backward(grad: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(_unbroadcast(grad, bias.data.shape))
        gx, gw = flat_matmul_grads(xd, wd, grad, x.requires_grad,
                                   weight.requires_grad)
        if gx is not None:
            x._accumulate_owned(gx)
        if gw is not None:
            weight._accumulate_owned(gw)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def _records(*inputs: Tensor) -> bool:
    """Whether ``Tensor._make`` will record a backward for this op — when
    it will not, a kernel can skip everything only backward reads."""
    return is_grad_enabled() and any(t.requires_grad for t in inputs)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU as one node (composed: 9 elementwise nodes)."""
    xd = x.data
    if not _records(x):
        # Same expressions, same order, in one owned buffer.
        out = np.multiply(xd, xd)
        np.multiply(out, xd, out=out)
        np.multiply(out, 0.044715, out=out)
        np.add(xd, out, out=out)
        np.multiply(out, _GELU_C, out=out)
        np.tanh(out, out=out)
        np.add(out, 1.0, out=out)
        np.multiply(xd, out, out=out)
        np.multiply(out, 0.5, out=out)
        return Tensor._make(out, (x,), None)
    x2 = xd * xd
    t = np.tanh((xd + (x2 * xd) * 0.044715) * _GELU_C)
    tp = t + 1.0
    out = xd * tp
    np.multiply(out, 0.5, out=out)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gp = grad * 0.5
        x._accumulate_owned(gp * tp)                 # from x * (tanh + 1)
        gs = gp
        np.multiply(gs, xd, out=gs)                  # gp is dead: reuse
        np.multiply(gs, 1.0 - t ** 2, out=gs)
        np.multiply(gs, _GELU_C, out=gs)
        x._accumulate_owned(gs.copy())               # from x + 0.044715 x^3
        gx3 = gs
        np.multiply(gx3, 0.044715, out=gx3)
        x._accumulate_owned(gx3 * x2)                # from x^2 * x
        gq = gx3
        np.multiply(gq, xd, out=gq)
        np.multiply(gq, xd, out=gq)
        x._accumulate_owned(gq)                      # from x * x (both
        x._accumulate(gq)                            #  operand slots)

    return Tensor._make(out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Last-axis layer norm as one node (composed: ~10 nodes)."""
    xd, gd = x.data, gamma.data
    inv = 1.0 / xd.shape[-1]
    mean = xd.sum(axis=-1, keepdims=True) * inv
    if not _records(x, gamma, beta):
        # Same expressions, same order: centred, normed and the output
        # share one owned buffer; only the squares need a second one.
        out = np.subtract(xd, mean)
        sq = out * out
        var = sq.sum(axis=-1, keepdims=True) * inv
        sd = np.sqrt(var + eps)
        np.divide(out, sd, out=out)
        np.multiply(out, gd, out=out)
        np.add(out, beta.data, out=out)
        return Tensor._make(out, (x, gamma, beta), None)
    centred = xd - mean
    sq = centred * centred
    var = sq.sum(axis=-1, keepdims=True) * inv
    sd = np.sqrt(var + eps)
    normed = centred / sd
    out = normed * gd
    np.add(out, beta.data, out=out)

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate_owned(_unbroadcast(grad, beta.data.shape))
        gn = grad * gd
        if gamma.requires_grad:
            gamma._accumulate_owned(_unbroadcast(grad * normed, gd.shape))
        gc = gn / sd
        gsd = _unbroadcast(-gn * centred / (sd ** 2), sd.shape)
        gsq = np.broadcast_to((gsd * 0.5 / sd) * inv, sq.shape)
        gc = gc + gsq * centred
        gc = gc + gsq * centred
        if x.requires_grad:
            x._accumulate_owned(gc)
            gsum1 = _unbroadcast(-gc, mean.shape) * inv
            x._accumulate(np.broadcast_to(gsum1, xd.shape))

    return Tensor._make(out, (x, gamma, beta), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax as one node (composed: shift/exp/sum/div)."""
    xd = x.data
    exps = np.exp(xd - xd.max(axis=axis, keepdims=True))
    s = exps.sum(axis=axis, keepdims=True)
    out = exps / s

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        ge = grad / s
        gs = _unbroadcast(-grad * exps / (s ** 2), s.shape)
        ge = ge + np.broadcast_to(gs, exps.shape)
        x._accumulate_owned(ge * exps)

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted log-softmax as one node (composed: shift + logsumexp)."""
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    m2 = shifted.max(axis=axis, keepdims=True)
    e = np.exp(shifted - m2)
    se = e.sum(axis=axis, keepdims=True)
    lse = np.log(se) + m2
    out = shifted - lse

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gse = _unbroadcast(-grad, lse.shape) / se
        gt = np.broadcast_to(gse, e.shape) * e
        x._accumulate_owned(grad + gt)

    return Tensor._make(out, (x,), backward)


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """L2 normalisation as one node (composed: square/sum/sqrt/add/div)."""
    xd = x.data
    q = xd * xd
    norm = np.sqrt(q.sum(axis=axis, keepdims=True))
    den = norm + eps
    out = xd / den

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate_owned(grad / den)
        gden = _unbroadcast(-grad * xd / (den ** 2), den.shape)
        gq = np.broadcast_to((gden * 0.5 / norm), q.shape)
        gx = gq * xd
        x._accumulate(gx)
        x._accumulate(gx)

    return Tensor._make(out, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for ndim >= 2 operands as one node with owned-gradient
    handover (the composed ``__matmul__``'s expressions, minus the
    defensive first-arrival copies)."""
    ad, bd = a.data, b.data
    out = ad @ bd

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(_unbroadcast(grad @ np.swapaxes(bd, -1, -2),
                                             ad.shape))
        if b.requires_grad:
            g = grad if grad.ndim > 1 else np.expand_dims(grad, -1)
            b._accumulate_owned(_unbroadcast(np.swapaxes(ad, -1, -2) @ g,
                                             bd.shape))

    return Tensor._make(out, (a, b), backward)


def scaled_matmul(a: Tensor, b: Tensor, scale: float) -> Tensor:
    """``(a @ b) * scale`` as one node (attention score kernel).

    Both operands must be ndim >= 2 (the composed matmul's 1-D special
    cases are not replicated here — the dispatcher falls back for those).
    """
    ad, bd = a.data, b.data
    out = ad @ bd
    np.multiply(out, scale, out=out)

    def backward(grad: np.ndarray) -> None:
        gm = grad * scale
        if a.requires_grad:
            a._accumulate_owned(_unbroadcast(gm @ np.swapaxes(bd, -1, -2),
                                             ad.shape))
        if b.requires_grad:
            g = gm if gm.ndim > 1 else np.expand_dims(gm, -1)
            b._accumulate_owned(_unbroadcast(np.swapaxes(ad, -1, -2) @ g,
                                             bd.shape))

    return Tensor._make(out, (a, b), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise stable BCE-from-logits as one node (composed: 9 nodes).

    Replays ``softplus(x) - x * q`` with softplus(x) =
    ``relu(x) + log(1 + exp(-|x|))``.  Gradient arrivals into ``logits``
    follow the composed DFS order: relu slot, abs slot, then the ``x * q``
    product slot.
    """
    xd = logits.data
    mask = xd > 0
    e = np.exp(-np.abs(xd))
    v = e + 1.0
    out = xd * mask + np.log(v) - xd * targets

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        logits._accumulate_owned(grad * mask)
        gax = -(grad / v * e)
        logits._accumulate(gax * np.sign(xd))
        logits._accumulate(-grad * targets)

    return Tensor._make(out, (logits,), backward)


def l1_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """``|pred - target|.mean()`` as one node (composed: sub/abs/sum/mul)."""
    d = pred.data - target
    a = np.abs(d)
    n = a.size
    out = a.sum() * (1.0 / n)

    def backward(grad: np.ndarray) -> None:
        if not pred.requires_grad:
            return
        ga = np.broadcast_to(grad * (1.0 / n), a.shape)
        pred._accumulate_owned(_unbroadcast(ga * np.sign(d), pred.data.shape))

    return Tensor._make(out, (pred,), backward)


def mse_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """``((pred - target) ** 2).mean()`` as one node."""
    d = pred.data - target
    sq = d * d
    n = sq.size
    out = sq.sum() * (1.0 / n)

    def backward(grad: np.ndarray) -> None:
        if not pred.requires_grad:
            return
        gsq = np.broadcast_to(grad * (1.0 / n), sq.shape)
        gd = gsq * d
        gd = gd + gsq * d
        pred._accumulate_owned(_unbroadcast(gd, pred.data.shape))

    return Tensor._make(out, (pred,), backward)


def unification_loss(logits: Tensor, q: np.ndarray, alpha: float) -> Tensor:
    """The paper's Unification Loss (gamma == 1) as one node.

    Collapses the composed sigmoid + BCE + focal-weighting + ``where`` +
    reduction chain (~15 nodes per head).  The backward replays the
    composed DFS firing order: the ``where``/product slots, the ``q - u``
    and ``u * (1 - alpha)`` arrivals into the sigmoid output, the sigmoid
    slot, and finally the BCE chain's three arrivals into ``logits``.
    """
    xd = logits.data
    # Sigmoid, replaying the composed numerically-stable form.
    clipped = np.clip(xd, -60, 60)
    eneg = np.exp(-clipped)
    epos = np.exp(clipped)
    u = np.where(xd >= 0, 1.0 / (1.0 + eneg), epos / (1.0 + epos))
    # Elementwise BCE from logits (same expressions as bce_with_logits).
    mask = xd > 0
    e = np.exp(-np.abs(xd))
    v = e + 1.0
    bce = xd * mask + np.log(v) - xd * q
    d = q - u
    gap = np.abs(d)
    m1 = gap * alpha
    m3 = u * (1.0 - alpha)
    pos = q > 0
    w = np.where(pos, m1 * bce, m3 * bce)
    s1 = w.sum(axis=-1)
    n = s1.size
    out = s1.sum() * (1.0 / n)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        gs1 = np.broadcast_to(grad * (1.0 / n), s1.shape)
        gw = np.broadcast_to(np.expand_dims(gs1, -1), w.shape)
        gm2 = _unbroadcast(gw * pos, w.shape)
        gm4 = _unbroadcast(gw * ~pos, w.shape)
        gbce = gm2 * m1
        gd = (gm2 * bce) * alpha * np.sign(d)
        gu = -gd
        gbce = gbce + gm4 * m3
        gu = gu + (gm4 * bce) * (1.0 - alpha)
        logits._accumulate_owned(gu * u * (1.0 - u))
        logits._accumulate(gbce * mask)
        gax = -(gbce / v * e)
        logits._accumulate(gax * np.sign(xd))
        logits._accumulate(-gbce * q)

    return Tensor._make(out, (logits,), backward)


def split_heads(x: Tensor, num_heads: int, head_dim: int) -> Tensor:
    """(batch, seq, dim) -> (batch, heads, seq, head_dim) as one node.

    Pure data movement (reshape + swapaxes), so bit-identity is automatic;
    fusing just drops one node and closure per projection.
    """
    b, s, dim = x.data.shape
    out = x.data.reshape(b, s, num_heads, head_dim).swapaxes(1, 2)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.swapaxes(1, 2).reshape(b, s, dim))

    return Tensor._make(out, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(batch, heads, seq, head_dim) -> (batch, seq, dim) as one node."""
    b, h, s, hd = x.data.shape
    out = x.data.swapaxes(1, 2).reshape(b, s, h * hd)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(b, s, h, hd).swapaxes(1, 2))

    return Tensor._make(out, (x,), backward)


def nll_mean(log_probs: Tensor, onehot: np.ndarray) -> Tensor:
    """``-(log_probs * onehot).sum(-1).mean()`` as one node (CE tail)."""
    p = log_probs.data * onehot
    s1 = p.sum(axis=-1)
    n = s1.size
    out = -(s1.sum() * (1.0 / n))

    def backward(grad: np.ndarray) -> None:
        if not log_probs.requires_grad:
            return
        gs1 = np.broadcast_to((-grad) * (1.0 / n), s1.shape)
        gp = np.broadcast_to(np.expand_dims(gs1, -1), p.shape)
        log_probs._accumulate_owned(gp * onehot)

    return Tensor._make(out, (log_probs,), backward)
