"""Per-op lowerings for the compiled schedule.

Every supported op gets a *builder* that turns an IR :class:`~.ir.Node`
into a pair of tight closures — ``fwd(st)`` writing ``st.vals[idx]`` and
``bwd(st, grad)`` routing gradient arrivals — plus static flags the
liveness/arena and fusion passes consume.

The builders mirror the exact numpy expressions of the eager ops in
:mod:`repro.nn.tensor` and the fused kernels in :mod:`repro.nn.fused`,
**including the order of gradient arrivals into shared operands**: this
is what makes replay bit-identical to the op-by-op reference (floating
point addition is not associative, so both the expressions and the
arrival order are part of the contract).  ``out=`` buffers from the
arena are used only where the fused kernels already used in-place
writes, or for pure ufunc results — never in a way that could change a
value.

Flags
-----
``view``
    The forward output aliases parent storage (reshape/transpose/...).
    View nodes never get arena buffers and share their parent's
    liveness root.
``ewise_unary``
    Single-parent elementwise op; the fusion pass groups maximal chains
    of these into one schedule entry (see :mod:`.fusion`).
``reads_parents_bwd`` / ``reads_out_bwd``
    The backward closure reads the parents' (resp. its own) forward
    value — extends those buffers' lifetimes into the backward timeline.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import _unbroadcast, flat_matmul, flat_matmul_grads
from .ir import CaptureError, InputRef

__all__ = ["OPS", "OpDef"]

_GELU_C = math.sqrt(2.0 / math.pi)


class OpDef:
    __slots__ = ("name", "build", "view", "ewise_unary",
                 "reads_parents_bwd", "reads_out_bwd", "out_ok")

    def __init__(self, name, build, view=False, ewise_unary=False,
                 reads_parents_bwd=False, reads_out_bwd=False, out_ok=False):
        self.name = name
        self.build = build
        self.view = view
        self.ewise_unary = ewise_unary
        self.reads_parents_bwd = reads_parents_bwd
        self.reads_out_bwd = reads_out_bwd
        self.out_ok = out_ok


OPS: dict[str, OpDef] = {}


def _op(name, **flags):
    def register(build):
        OPS[name] = OpDef(name, build, **flags)
        return build
    return register


def _reader(value):
    """Resolve a sanitized kwarg: static constant or per-step input."""
    if isinstance(value, InputRef):
        pos = value.pos
        return lambda st: st.ins[pos]
    return lambda st: value


def _static(value, what):
    if isinstance(value, InputRef):
        raise CaptureError(f"{what} must be static, got a step input")
    return value


# ----------------------------------------------------------------------
# Eager arithmetic
# ----------------------------------------------------------------------
@_op("add", out_ok=True)
def _add(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            st.vals[i] = st.vals[a] + st.vals[b]
    else:
        def fwd(st):
            st.vals[i] = np.add(st.vals[a], st.vals[b], out=buf)

    def bwd(st, grad):
        if ka is not None:
            ka(st, _unbroadcast(grad, sa))
        if kb is not None:
            kb(st, _unbroadcast(grad, sb))
    return fwd, bwd


@_op("sub", out_ok=True)
def _sub(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            st.vals[i] = st.vals[a] - st.vals[b]
    else:
        def fwd(st):
            st.vals[i] = np.subtract(st.vals[a], st.vals[b], out=buf)

    def bwd(st, grad):
        if ka is not None:
            ka(st, _unbroadcast(grad, sa))
        if kb is not None:
            kb(st, _unbroadcast(-grad, sb))
    return fwd, bwd


@_op("mul", reads_parents_bwd=True, out_ok=True)
def _mul(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            st.vals[i] = st.vals[a] * st.vals[b]
    else:
        def fwd(st):
            st.vals[i] = np.multiply(st.vals[a], st.vals[b], out=buf)

    def bwd(st, grad):
        if ka is not None:
            ka(st, _unbroadcast(grad * st.vals[b], sa))
        if kb is not None:
            kb(st, _unbroadcast(grad * st.vals[a], sb))
    return fwd, bwd


@_op("div", reads_parents_bwd=True, out_ok=True)
def _div(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            st.vals[i] = st.vals[a] / st.vals[b]
    else:
        def fwd(st):
            st.vals[i] = np.divide(st.vals[a], st.vals[b], out=buf)

    def bwd(st, grad):
        if ka is not None:
            ka(st, _unbroadcast(grad / st.vals[b], sa))
        if kb is not None:
            kb(st, _unbroadcast(-grad * st.vals[a] / (st.vals[b] ** 2), sb))
    return fwd, bwd


@_op("neg", ewise_unary=True, out_ok=True)
def _neg(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            st.vals[i] = -st.vals[a]
    else:
        def fwd(st):
            st.vals[i] = np.negative(st.vals[a], out=buf)

    def bwd(st, grad):
        ka(st, -grad)
    return fwd, bwd


@_op("pow", ewise_unary=True, reads_parents_bwd=True)
def _pow(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    exponent = _static(n.meta["exponent"], "pow exponent")

    def fwd(st):
        st.vals[i] = st.vals[a] ** exponent

    def bwd(st, grad):
        ka(st, grad * exponent * st.vals[a] ** (exponent - 1))
    return fwd, bwd


@_op("matmul", reads_parents_bwd=True)
def _matmul(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    if len(sa) >= 2 and len(sb) == 2:
        return _flat_matmul_lowering(n, cx)
    ka, kb = cx.sink(a), cx.sink(b)

    def fwd(st):
        st.vals[i] = st.vals[a] @ st.vals[b]

    def bwd(st, grad):
        va, vb = st.vals[a], st.vals[b]
        if ka is not None:
            if vb.ndim == 1:
                ga = np.expand_dims(grad, -1) * vb
            else:
                ga = grad @ np.swapaxes(vb, -1, -2)
            if va.ndim == 1 and ga.ndim > 1:
                ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
            ka(st, _unbroadcast(ga, sa))
        if kb is not None:
            if va.ndim == 1:
                gb = (np.multiply.outer(va, grad) if grad.ndim == 1
                      else va[:, None] * grad)
            else:
                g = grad if grad.ndim > 1 else np.expand_dims(grad, -1)
                gb = np.swapaxes(va, -1, -2) @ g
                if vb.ndim == 1:
                    gb = gb.squeeze(-1)
                    gb = (gb.sum(axis=tuple(range(gb.ndim - 1)))
                          if gb.ndim > 1 else gb)
            kb(st, _unbroadcast(gb, sb))
    return fwd, bwd


def _flat_matmul_lowering(n, cx):
    """The (..., k) @ (k, n) case of ``matmul``: one flat 2-D GEMM, as in
    :func:`~repro.nn.tensor.flat_matmul`."""
    i = n.idx
    a, b = n.parents
    ka, kb = cx.sink(a), cx.sink(b)

    def fwd(st):
        st.vals[i] = flat_matmul(st.vals[a], st.vals[b])

    def bwd(st, grad):
        _flat_matmul_grads(st, grad, st.vals[a], st.vals[b], ka, kb)
    return fwd, bwd


def _flat_matmul_grads(st, grad, xd, wd, kx, kw):
    """Route the gradients of ``flat_matmul(xd, wd)`` into the sinks."""
    gx, gw = flat_matmul_grads(xd, wd, grad, kx is not None, kw is not None)
    if gx is not None:
        kx(st, gx)
    if gw is not None:
        kw(st, gw)


# ----------------------------------------------------------------------
# Eager elementwise functions
# ----------------------------------------------------------------------
@_op("exp", ewise_unary=True, reads_out_bwd=True)
def _exp(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        st.vals[i] = np.exp(st.vals[a])

    def bwd(st, grad):
        ka(st, grad * st.vals[i])
    return fwd, bwd


@_op("log", ewise_unary=True, reads_parents_bwd=True)
def _log(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        st.vals[i] = np.log(st.vals[a])

    def bwd(st, grad):
        ka(st, grad / st.vals[a])
    return fwd, bwd


@_op("sqrt", ewise_unary=True, reads_out_bwd=True)
def _sqrt(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        st.vals[i] = np.sqrt(st.vals[a])

    def bwd(st, grad):
        ka(st, grad * 0.5 / st.vals[i])
    return fwd, bwd


@_op("abs", ewise_unary=True, reads_parents_bwd=True)
def _abs(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        st.vals[i] = np.abs(st.vals[a])

    def bwd(st, grad):
        ka(st, grad * np.sign(st.vals[a]))
    return fwd, bwd


@_op("tanh", ewise_unary=True, reads_out_bwd=True)
def _tanh(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        st.vals[i] = np.tanh(st.vals[a])

    def bwd(st, grad):
        ka(st, grad * (1.0 - st.vals[i] ** 2))
    return fwd, bwd


@_op("sigmoid", ewise_unary=True, reads_out_bwd=True)
def _sigmoid(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        va = st.vals[a]
        st.vals[i] = np.where(va >= 0,
                              1.0 / (1.0 + np.exp(-np.clip(va, -60, 60))),
                              np.exp(np.clip(va, -60, 60))
                              / (1.0 + np.exp(np.clip(va, -60, 60))))

    def bwd(st, grad):
        out = st.vals[i]
        ka(st, grad * out * (1.0 - out))
    return fwd, bwd


@_op("relu", ewise_unary=True)
def _relu(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)

    def fwd(st):
        va = st.vals[a]
        mask = va > 0
        st.saved[i] = mask
        st.vals[i] = va * mask

    def bwd(st, grad):
        ka(st, grad * st.saved[i])
    return fwd, bwd


@_op("clip", ewise_unary=True)
def _clip(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    low = _static(n.meta["low"], "clip bound")
    high = _static(n.meta["high"], "clip bound")

    def fwd(st):
        va = st.vals[a]
        st.vals[i] = np.clip(va, low, high)
        st.saved[i] = (va >= low) & (va <= high)

    def bwd(st, grad):
        ka(st, grad * st.saved[i])
    return fwd, bwd


@_op("maximum")
def _maximum(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)

    def fwd(st):
        va, vb = st.vals[a], st.vals[b]
        st.vals[i] = np.maximum(va, vb)
        self_mask = (va > vb) + 0.5 * (va == vb)
        st.saved[i] = (self_mask, 1.0 - self_mask)

    def bwd(st, grad):
        self_mask, other_mask = st.saved[i]
        if ka is not None:
            ka(st, _unbroadcast(grad * self_mask, sa))
        if kb is not None:
            kb(st, _unbroadcast(grad * other_mask, sb))
    return fwd, bwd


# ----------------------------------------------------------------------
# Eager reductions
# ----------------------------------------------------------------------
@_op("sum")
def _sum(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "sum axis")
    keepdims = _static(n.meta["keepdims"], "sum keepdims")

    def fwd(st):
        st.vals[i] = st.vals[a].sum(axis=axis, keepdims=keepdims)

    def bwd(st, grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        ka(st, np.broadcast_to(g, sa).copy())
    return fwd, bwd


@_op("max", reads_parents_bwd=True, reads_out_bwd=True)
def _max(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "max axis")
    keepdims = _static(n.meta["keepdims"], "max keepdims")

    def fwd(st):
        st.vals[i] = st.vals[a].max(axis=axis, keepdims=keepdims)

    def bwd(st, grad):
        g = grad
        out = st.vals[i]
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
            out = np.expand_dims(out, axis=axis)
        mask = (st.vals[a] == out)
        counts = mask.sum(axis=axis if axis is not None else None,
                          keepdims=True)
        ka(st, np.broadcast_to(g, sa) * mask / counts)
    return fwd, bwd


# ----------------------------------------------------------------------
# Eager shape manipulation (views)
# ----------------------------------------------------------------------
@_op("reshape", view=True)
def _reshape(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    shape = _static(n.meta["shape"], "reshape shape")

    def fwd(st):
        st.vals[i] = st.vals[a].reshape(shape)

    def bwd(st, grad):
        ka(st, grad.reshape(sa))
    return fwd, bwd


@_op("transpose", view=True)
def _transpose(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    axes = _static(n.meta["axes"], "transpose axes")
    inverse = None if axes is None else np.argsort(axes)

    def fwd(st):
        st.vals[i] = st.vals[a].transpose(axes)

    def bwd(st, grad):
        ka(st, grad.transpose(inverse))
    return fwd, bwd


@_op("swapaxes", view=True)
def _swapaxes(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    ax_a = _static(n.meta["a"], "swapaxes axis")
    ax_b = _static(n.meta["b"], "swapaxes axis")

    def fwd(st):
        st.vals[i] = st.vals[a].swapaxes(ax_a, ax_b)

    def bwd(st, grad):
        ka(st, grad.swapaxes(ax_a, ax_b))
    return fwd, bwd


@_op("getitem", view=True)
def _getitem(n, cx):
    i = n.idx
    (a,) = n.parents
    dtype = cx.dtype(a)
    sa = cx.shape(a)
    ka = cx.sink(a)
    index = n.meta["index"]
    if isinstance(index, (tuple, list)) and any(
            isinstance(v, InputRef) for v in index):
        raise CaptureError("getitem with a step-varying compound index")
    get_index = _reader(index)

    def fwd(st):
        st.vals[i] = st.vals[a][get_index(st)]

    def bwd(st, grad):
        full = np.zeros(sa, dtype=dtype)
        np.add.at(full, get_index(st), grad)
        ka(st, full)
    return fwd, bwd


@_op("expand_dims", view=True)
def _expand_dims(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "expand_dims axis")

    def fwd(st):
        st.vals[i] = np.expand_dims(st.vals[a], axis)

    def bwd(st, grad):
        ka(st, np.squeeze(grad, axis=axis))
    return fwd, bwd


@_op("squeeze", view=True)
def _squeeze(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "squeeze axis")

    def fwd(st):
        st.vals[i] = np.squeeze(st.vals[a], axis=axis)

    def bwd(st, grad):
        ka(st, np.expand_dims(grad, axis=axis))
    return fwd, bwd


# ----------------------------------------------------------------------
# Eager module-level ops
# ----------------------------------------------------------------------
@_op("concat")
def _concat(n, cx):
    i = n.idx
    parents = n.parents
    axis = _static(n.meta["axis"], "concat axis")
    sizes = [cx.shape(p)[axis] for p in parents]
    offsets = np.cumsum([0] + sizes)
    sinks = [cx.sink(p) for p in parents]
    ndim = len(n.shape)

    def fwd(st):
        st.vals[i] = np.concatenate([st.vals[p] for p in parents], axis=axis)

    def bwd(st, grad):
        for sink, start, stop in zip(sinks, offsets[:-1], offsets[1:]):
            if sink is not None:
                index = [slice(None)] * ndim
                index[axis] = slice(start, stop)
                sink(st, grad[tuple(index)])
    return fwd, bwd


@_op("stack")
def _stack(n, cx):
    i = n.idx
    parents = n.parents
    axis = _static(n.meta["axis"], "stack axis")
    sinks = [cx.sink(p) for p in parents]

    def fwd(st):
        st.vals[i] = np.stack([st.vals[p] for p in parents], axis=axis)

    def bwd(st, grad):
        slabs = np.moveaxis(grad, axis, 0)
        for sink, slab in zip(sinks, slabs):
            if sink is not None:
                sink(st, slab)
    return fwd, bwd


@_op("where")
def _where(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    get_cond = _reader(n.meta["cond"])

    def fwd(st):
        st.vals[i] = np.where(get_cond(st), st.vals[a], st.vals[b])

    def bwd(st, grad):
        cond = get_cond(st)
        if ka is not None:
            ka(st, _unbroadcast(grad * cond, sa))
        if kb is not None:
            kb(st, _unbroadcast(grad * (~cond), sb))
    return fwd, bwd


# ----------------------------------------------------------------------
# Fused kernels (repro.nn.fused) — already single nodes; the lowering
# replays the identical kernel expressions over the planned buffers.
# ----------------------------------------------------------------------
@_op("fused.linear", reads_parents_bwd=True, out_ok=True)
def _fused_linear(n, cx):
    i = n.idx
    has_bias = len(n.parents) == 3
    if has_bias:
        x, w, b = n.parents
        sb = cx.shape(b)
        kb = cx.sink(b)
    else:
        x, w = n.parents
        kb = None
    kx, kw = cx.sink(x), cx.sink(w)
    buf = cx.buf(i)
    if buf is None:
        if has_bias:
            def fwd(st):
                out = flat_matmul(st.vals[x], st.vals[w])
                np.add(out, st.vals[b], out=out)
                st.vals[i] = out
        else:
            def fwd(st):
                st.vals[i] = flat_matmul(st.vals[x], st.vals[w])
    else:
        # The arena buffer is C-contiguous, so its 2-D reshape is a view.
        buf2 = buf.reshape(-1, buf.shape[-1])
        if has_bias:
            def fwd(st):
                xd = st.vals[x]
                np.matmul(xd.reshape(-1, xd.shape[-1]), st.vals[w], out=buf2)
                np.add(buf, st.vals[b], out=buf)
                st.vals[i] = buf
        else:
            def fwd(st):
                xd = st.vals[x]
                np.matmul(xd.reshape(-1, xd.shape[-1]), st.vals[w], out=buf2)
                st.vals[i] = buf

    def bwd(st, grad):
        if kb is not None:
            kb(st, _unbroadcast(grad, sb))
        _flat_matmul_grads(st, grad, st.vals[x], st.vals[w], kx, kw)
    return fwd, bwd


@_op("fused.gelu", ewise_unary=True, reads_parents_bwd=True, out_ok=True)
def _fused_gelu(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    buf = cx.buf(i)

    def fwd(st):
        xd = st.vals[a]
        x2 = xd * xd
        t = np.tanh((xd + (x2 * xd) * 0.044715) * _GELU_C)
        tp = t + 1.0
        if buf is None:
            out = xd * tp
        else:
            out = np.multiply(xd, tp, out=buf)
        np.multiply(out, 0.5, out=out)
        st.vals[i] = out
        st.saved[i] = (x2, t, tp)

    def bwd(st, grad):
        xd = st.vals[a]
        x2, t, tp = st.saved[i]
        gp = grad * 0.5
        ka(st, gp * tp)
        gs = gp
        np.multiply(gs, xd, out=gs)
        np.multiply(gs, 1.0 - t ** 2, out=gs)
        np.multiply(gs, _GELU_C, out=gs)
        ka(st, gs.copy())
        gx3 = gs
        np.multiply(gx3, 0.044715, out=gx3)
        ka(st, gx3 * x2)
        gq = gx3
        np.multiply(gq, xd, out=gq)
        np.multiply(gq, xd, out=gq)
        ka(st, gq)
        ka(st, gq)
    return fwd, bwd


@_op("fused.layer_norm", reads_parents_bwd=True, out_ok=True)
def _fused_layer_norm(n, cx):
    i = n.idx
    x, gamma, beta = n.parents
    sg, sb = cx.shape(gamma), cx.shape(beta)
    kx, kg, kb = cx.sink(x), cx.sink(gamma), cx.sink(beta)
    eps = _static(n.meta["eps"], "layer_norm eps")
    x_shape = cx.shape(x)
    inv = 1.0 / x_shape[-1]
    mean_shape = x_shape[:-1] + (1,)
    buf = cx.buf(i)

    def fwd(st):
        xd = st.vals[x]
        mean = xd.sum(axis=-1, keepdims=True) * inv
        centred = xd - mean
        sq = centred * centred
        var = sq.sum(axis=-1, keepdims=True) * inv
        sd = np.sqrt(var + eps)
        normed = centred / sd
        if buf is None:
            out = normed * st.vals[gamma]
        else:
            out = np.multiply(normed, st.vals[gamma], out=buf)
        np.add(out, st.vals[beta], out=out)
        st.vals[i] = out
        st.saved[i] = (centred, sd, normed)

    def bwd(st, grad):
        centred, sd, normed = st.saved[i]
        if kb is not None:
            kb(st, _unbroadcast(grad, sb))
        gn = grad * st.vals[gamma]
        if kg is not None:
            kg(st, _unbroadcast(grad * normed, sg))
        gc = gn / sd
        gsd = _unbroadcast(-gn * centred / (sd ** 2), mean_shape)
        gsq = np.broadcast_to((gsd * 0.5 / sd) * inv, x_shape)
        gc = gc + gsq * centred
        gc = gc + gsq * centred
        if kx is not None:
            kx(st, gc)
            gsum1 = _unbroadcast(-gc, mean_shape) * inv
            kx(st, np.broadcast_to(gsum1, x_shape))
    return fwd, bwd


@_op("fused.softmax", out_ok=True)
def _fused_softmax(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "softmax axis")
    s_shape = list(n.shape)
    s_shape[axis] = 1
    s_shape = tuple(s_shape)
    buf = cx.buf(i)

    def fwd(st):
        xd = st.vals[a]
        exps = np.exp(xd - xd.max(axis=axis, keepdims=True))
        s = exps.sum(axis=axis, keepdims=True)
        if buf is None:
            st.vals[i] = exps / s
        else:
            st.vals[i] = np.divide(exps, s, out=buf)
        st.saved[i] = (exps, s)

    def bwd(st, grad):
        exps, s = st.saved[i]
        ge = grad / s
        gs = _unbroadcast(-grad * exps / (s ** 2), s_shape)
        ge = ge + np.broadcast_to(gs, exps.shape)
        ka(st, ge * exps)
    return fwd, bwd


@_op("fused.log_softmax")
def _fused_log_softmax(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "log_softmax axis")
    lse_shape = list(n.shape)
    lse_shape[axis] = 1
    lse_shape = tuple(lse_shape)

    def fwd(st):
        xd = st.vals[a]
        shifted = xd - xd.max(axis=axis, keepdims=True)
        m2 = shifted.max(axis=axis, keepdims=True)
        e = np.exp(shifted - m2)
        se = e.sum(axis=axis, keepdims=True)
        lse = np.log(se) + m2
        st.vals[i] = shifted - lse
        st.saved[i] = (e, se)

    def bwd(st, grad):
        e, se = st.saved[i]
        gse = _unbroadcast(-grad, lse_shape) / se
        gt = np.broadcast_to(gse, e.shape) * e
        ka(st, grad + gt)
    return fwd, bwd


@_op("fused.normalize", reads_parents_bwd=True)
def _fused_normalize(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    axis = _static(n.meta["axis"], "normalize axis")
    eps = _static(n.meta["eps"], "normalize eps")
    x_shape = cx.shape(a)
    den_shape = list(x_shape)
    den_shape[axis] = 1
    den_shape = tuple(den_shape)

    def fwd(st):
        xd = st.vals[a]
        q = xd * xd
        norm = np.sqrt(q.sum(axis=axis, keepdims=True))
        den = norm + eps
        st.vals[i] = xd / den
        st.saved[i] = (norm, den)

    def bwd(st, grad):
        xd = st.vals[a]
        norm, den = st.saved[i]
        ka(st, grad / den)
        gden = _unbroadcast(-grad * xd / (den ** 2), den_shape)
        gq = np.broadcast_to((gden * 0.5 / norm), x_shape)
        gx = gq * xd
        ka(st, gx)
        ka(st, gx)
    return fwd, bwd


@_op("fused.matmul", reads_parents_bwd=True, out_ok=True)
def _fused_matmul(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            st.vals[i] = st.vals[a] @ st.vals[b]
    else:
        def fwd(st):
            st.vals[i] = np.matmul(st.vals[a], st.vals[b], out=buf)

    def bwd(st, grad):
        if ka is not None:
            ka(st, _unbroadcast(grad @ np.swapaxes(st.vals[b], -1, -2), sa))
        if kb is not None:
            g = grad if grad.ndim > 1 else np.expand_dims(grad, -1)
            kb(st, _unbroadcast(np.swapaxes(st.vals[a], -1, -2) @ g, sb))
    return fwd, bwd


@_op("fused.scaled_matmul", reads_parents_bwd=True, out_ok=True)
def _fused_scaled_matmul(n, cx):
    i = n.idx
    a, b = n.parents
    sa, sb = cx.shape(a), cx.shape(b)
    ka, kb = cx.sink(a), cx.sink(b)
    scale = _static(n.meta["scale"], "scaled_matmul scale")
    buf = cx.buf(i)
    if buf is None:
        def fwd(st):
            out = st.vals[a] @ st.vals[b]
            np.multiply(out, scale, out=out)
            st.vals[i] = out
    else:
        def fwd(st):
            np.matmul(st.vals[a], st.vals[b], out=buf)
            np.multiply(buf, scale, out=buf)
            st.vals[i] = buf

    def bwd(st, grad):
        gm = grad * scale
        if ka is not None:
            ka(st, _unbroadcast(gm @ np.swapaxes(st.vals[b], -1, -2), sa))
        if kb is not None:
            g = gm if gm.ndim > 1 else np.expand_dims(gm, -1)
            kb(st, _unbroadcast(np.swapaxes(st.vals[a], -1, -2) @ g, sb))
    return fwd, bwd


@_op("fused.bce_with_logits", reads_parents_bwd=True)
def _fused_bce(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    get_q = _reader(n.meta["target"])

    def fwd(st):
        xd = st.vals[a]
        q = get_q(st)
        mask = xd > 0
        e = np.exp(-np.abs(xd))
        v = e + 1.0
        st.vals[i] = xd * mask + np.log(v) - xd * q
        st.saved[i] = (mask, e, v)

    def bwd(st, grad):
        xd = st.vals[a]
        mask, e, v = st.saved[i]
        ka(st, grad * mask)
        gax = -(grad / v * e)
        ka(st, gax * np.sign(xd))
        ka(st, -grad * get_q(st))
    return fwd, bwd


@_op("fused.l1_mean")
def _fused_l1_mean(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    get_t = _reader(n.meta["target"])

    def fwd(st):
        d = st.vals[a] - get_t(st)
        a_arr = np.abs(d)
        st.vals[i] = a_arr.sum() * (1.0 / a_arr.size)
        st.saved[i] = d

    def bwd(st, grad):
        d = st.saved[i]
        ga = np.broadcast_to(grad * (1.0 / d.size), d.shape)
        ka(st, _unbroadcast(ga * np.sign(d), sa))
    return fwd, bwd


@_op("fused.mse_mean")
def _fused_mse_mean(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    get_t = _reader(n.meta["target"])

    def fwd(st):
        d = st.vals[a] - get_t(st)
        sq = d * d
        st.vals[i] = sq.sum() * (1.0 / sq.size)
        st.saved[i] = d

    def bwd(st, grad):
        d = st.saved[i]
        gsq = np.broadcast_to(grad * (1.0 / d.size), d.shape)
        gd = gsq * d
        gd = gd + gsq * d
        ka(st, _unbroadcast(gd, sa))
    return fwd, bwd


@_op("fused.nll_mean")
def _fused_nll_mean(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    get_onehot = _reader(n.meta["onehot"])

    def fwd(st):
        onehot = get_onehot(st)
        p = st.vals[a] * onehot
        s1 = p.sum(axis=-1)
        st.vals[i] = -(s1.sum() * (1.0 / s1.size))
        st.saved[i] = (s1.shape, p.shape)

    def bwd(st, grad):
        s1_shape, p_shape = st.saved[i]
        count = 1
        for dim in s1_shape:
            count *= dim
        gs1 = np.broadcast_to((-grad) * (1.0 / count), s1_shape)
        gp = np.broadcast_to(np.expand_dims(gs1, -1), p_shape)
        ka(st, gp * get_onehot(st))
    return fwd, bwd


@_op("fused.unification_loss", reads_parents_bwd=True)
def _fused_unification(n, cx):
    i = n.idx
    (a,) = n.parents
    sa = cx.shape(a)
    ka = cx.sink(a)
    get_q = _reader(n.meta["q"])
    alpha = _static(n.meta["alpha"], "unification alpha")

    def fwd(st):
        xd = st.vals[a]
        q = get_q(st)
        clipped = np.clip(xd, -60, 60)
        eneg = np.exp(-clipped)
        epos = np.exp(clipped)
        u = np.where(xd >= 0, 1.0 / (1.0 + eneg), epos / (1.0 + epos))
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
        st.vals[i] = s1.sum() * (1.0 / s1.size)
        st.saved[i] = (u, mask, e, v, bce, d, m1, m3, pos,
                       s1.shape, w.shape)

    def bwd(st, grad):
        xd = st.vals[a]
        q = get_q(st)
        (u, mask, e, v, bce, d, m1, m3, pos,
         s1_shape, w_shape) = st.saved[i]
        count = 1
        for dim in s1_shape:
            count *= dim
        gs1 = np.broadcast_to(grad * (1.0 / count), s1_shape)
        gw = np.broadcast_to(np.expand_dims(gs1, -1), w_shape)
        gm2 = _unbroadcast(gw * pos, w_shape)
        gm4 = _unbroadcast(gw * ~pos, w_shape)
        gbce = gm2 * m1
        gd = (gm2 * bce) * alpha * np.sign(d)
        gu = -gd
        gbce = gbce + gm4 * m3
        gu = gu + (gm4 * bce) * (1.0 - alpha)
        ka(st, gu * u * (1.0 - u))
        ka(st, gbce * mask)
        gax = -(gbce / v * e)
        ka(st, gax * np.sign(xd))
        ka(st, -gbce * q)
    return fwd, bwd


@_op("fused.split_heads", view=True)
def _fused_split_heads(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    b, s, dim = cx.shape(a)
    num_heads = _static(n.meta["num_heads"], "split_heads num_heads")
    head_dim = _static(n.meta["head_dim"], "split_heads head_dim")

    def fwd(st):
        st.vals[i] = (st.vals[a].reshape(b, s, num_heads, head_dim)
                      .swapaxes(1, 2))

    def bwd(st, grad):
        ka(st, grad.swapaxes(1, 2).reshape(b, s, dim))
    return fwd, bwd


@_op("fused.merge_heads", out_ok=True)
def _fused_merge_heads(n, cx):
    i = n.idx
    (a,) = n.parents
    ka = cx.sink(a)
    b, h, s, hd = cx.shape(a)
    buf = cx.buf(i)
    buf4 = None if buf is None else buf.reshape(b, s, h, hd)
    if buf is None:
        def fwd(st):
            st.vals[i] = st.vals[a].swapaxes(1, 2).reshape(b, s, h * hd)
    else:
        def fwd(st):
            # Pure data movement into the planned buffer: identical
            # values to the reshape-copy of the non-contiguous view.
            np.copyto(buf4, st.vals[a].swapaxes(1, 2))
            st.vals[i] = buf

    def bwd(st, grad):
        ka(st, grad.reshape(b, s, h, hd).swapaxes(1, 2))
    return fwd, bwd
