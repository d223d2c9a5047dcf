"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The engine holds the ops a model, a loss or ``gradcheck`` records: ``add``,
``sub``, ``mul``, ``div``, ``matmul`` and ``relu``; the reductions ``sum``
and ``mean``, and ``max`` and ``logsumexp`` over one given axis; and
``reshape``, ``transpose``, ``permute_rows`` and ``gather_rows``.  The two
fused ops, ``spanlab.perm.sinkhorn`` and ``spanlab.nn.LSTMCell.run``, are
each one op of their own, recorded through ``_record`` with VJPs that replay
their rounds or steps, so a span-desk forward and loss record 15 tape entries
where the same arithmetic as primitive ops recorded 414.  Ops record on the
active ``GradTape`` one vector-Jacobian product (VJP) per input, which maps
the output's gradient to that input's contribution.  ``GradTape.gradient`` is
the only way back: it replays the VJPs in reverse order, pruned to the work
its sources need, running an op's VJP for input ``i`` only when that input is
a source or depends on one.  Pruning keeps the bits, because every consumer
of a tensor that depends on a source depends on it too, so each such tensor
receives the same contributions in the same order as in a full replay.
Elementwise ops broadcast by NumPy's rule, and each operand's gradient is
summed back over the axes it was broadcast along; shapes that do not
broadcast raise ``ShapeMismatch``.  A Python or NumPy scalar operand is a
constant 0-d ``Tensor`` under the same rule, so ``x - 1.0`` records one
``sub`` and ``-x`` is ``0.0 - x``.  An operand array of rank 1 or more raises
``ShapeMismatch`` on either side of an operator, because ``Tensor`` opts out
of NumPy's ufunc dispatch.
"""

from __future__ import annotations

import struct
import threading
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "ShapeMismatch",
    "DomainError",
    "TapeError",
    "finite_difference_check",
    "read_tensor_blob",
    "write_tensor_blob",
]


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the named op."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {self.shapes}")


class DomainError(ValueError):
    """Input values outside the mathematical domain of the op."""


class TapeError(RuntimeError):
    """Misuse of a gradient tape (non-scalar loss, off-tape leaf, ...)."""


_STATE = threading.local()


def _active_tape():
    stack = getattr(_STATE, "tapes", None)
    return stack[-1] if stack else None


class Tensor:
    """A dense float64 array, optionally participating in gradient tapes.

    The wrapped array must never be mutated while a tape that saw it is still
    alive; optimizers therefore replace ``data`` instead of updating in place.
    """

    __slots__ = ("data",)
    # NumPy's operators defer to the reflected ones here instead of building
    # an object array of Tensors
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeMismatch("item", self.shape)
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        divisor = _operand("div", other)
        if np.any(divisor.data == 0.0):
            raise DomainError("div: divisor has zero entries")
        return _div(self, divisor)

    def __neg__(self):
        return 0.0 - self

    def __matmul__(self, other):
        return _matmul(self, other)

    # -- nonlinearities ---------------------------------------------------

    def relu(self):
        x = self.data
        return _record("relu", (self,), np.maximum(x, 0.0),
                       (lambda g: (x > 0.0) * g,))

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.shape
        out = np.sum(self.data, axis=axis, keepdims=keepdims)
        return _record("sum", (self,), out,
                       (lambda g: _spread(g, shape, axis, keepdims),))

    def mean(self, axis=None, keepdims=False):
        shape = self.shape
        count = self.size if axis is None else shape[axis]
        out = np.mean(self.data, axis=axis, keepdims=keepdims)
        return _record("mean", (self,), out,
                       (lambda g: _spread(g, shape, axis, keepdims) / count,))

    def max(self, axis, keepdims=False):
        """Max over one axis; the gradient flows to the first maximal entry."""
        x = self.data
        out = np.max(x, axis=axis, keepdims=keepdims)
        idx = np.expand_dims(np.argmax(x, axis=axis), axis)

        def vjp(g):
            grad = np.zeros_like(x)
            gg = g if keepdims else np.expand_dims(g, axis)
            np.put_along_axis(grad, idx, gg, axis=axis)
            return grad

        return _record("max", (self,), out, (vjp,))

    def logsumexp(self, axis, keepdims=False):
        """Stable log-sum-exp; the softmax its gradient needs is formed only
        when the tape runs its VJP."""
        x = self.data
        m = np.max(x, axis=axis, keepdims=True)
        lse = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
        out = lse if keepdims else np.squeeze(lse, axis=axis)

        def vjp(g):
            gg = g if keepdims else np.expand_dims(g, axis)
            return np.exp(x - lse) * gg

        return _record("logsumexp", (self,), out, (vjp,))

    # -- shape manipulation -----------------------------------------------

    def reshape(self, shape):
        old = self.shape
        if int(np.prod(shape, dtype=np.int64)) != self.size:
            raise ShapeMismatch("reshape", old, shape)
        return _record("reshape", (self,), self.data.reshape(shape),
                       (lambda g: g.reshape(old),))

    def transpose(self):
        """Swap the last two axes (plain transpose for matrices)."""
        if self.ndim < 2:
            raise ShapeMismatch("transpose", self.shape)
        return _record("transpose", (self,), np.swapaxes(self.data, -1, -2),
                       (lambda g: np.swapaxes(g, -1, -2),))

    def permute_rows(self, perm):
        """Reorder rows by a permutation (per batch element for rank 3).

        ``perm`` is an index array of shape (n,) for a rank-2 tensor or
        (B, n) for rank-3; each row of it must be a permutation of 0..n-1.
        """
        perm = np.asarray(perm, dtype=np.int64)
        x = self.data
        if x.ndim not in (2, 3) or perm.shape != x.shape[:-1]:
            raise ShapeMismatch("permute_rows", x.shape, perm.shape)
        # rank 3 reorders per batch element: x[arange(B)[:, None], perm]
        batch = (np.arange(x.shape[0])[:, None],) * (x.ndim - 2)
        inv = np.argsort(perm, axis=-1, kind="stable")
        return _record("permute_rows", (self,), x[(*batch, perm)],
                       (lambda g: g[(*batch, inv)],))

    def gather_rows(self, idx):
        """Select rows (with repetition allowed) from a rank-2 tensor."""
        idx = np.asarray(idx, dtype=np.int64)
        x = self.data
        if x.ndim != 2 or idx.ndim != 1:
            raise ShapeMismatch("gather_rows", x.shape, idx.shape)

        def vjp(g):
            grad = np.zeros_like(x)
            np.add.at(grad, idx, g)
            return grad

        return _record("gather_rows", (self,), x[idx], (vjp,))


# ---------------------------------------------------------------------------
# op plumbing


def _record(name, inputs, out_data, vjps):
    """Wrap ``out_data`` as the output of op ``name``; ``vjps[i]`` maps the
    output's gradient to the gradient contribution of ``inputs[i]``."""
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape._record(name, inputs, out, vjps)
    return out


def _operand(op, other):
    """``other`` itself if it is a Tensor, else the scalar as a constant 0-d
    Tensor."""
    if isinstance(other, Tensor):
        return other
    arr = np.asarray(other, dtype=np.float64)
    if arr.ndim != 0:
        raise ShapeMismatch(op, arr.shape)
    return Tensor(arr)


def _binary(op, a, b, fn, grad_a, grad_b):
    """Elementwise ``fn`` on NumPy-broadcast operands, either of which may be
    a scalar; ``grad_a(g, da, db)`` and ``grad_b(g, da, db)`` give the operand
    gradients at the broadcast shape."""
    a, b = _operand(op, a), _operand(op, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(op, a.shape, b.shape) from None
    da, db = a.data, b.data
    return _record(op, (a, b), fn(da, db), (
        lambda g: _unbroadcast(grad_a(g, da, db), da.shape),
        lambda g: _unbroadcast(grad_b(g, da, db), db.shape),
    ))


def _unbroadcast(g, shape):
    """Sum a gradient over the axes along which ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    padded = (1,) * (g.ndim - len(shape)) + shape
    axes = tuple(k for k, s in enumerate(padded) if s == 1)
    return np.sum(g, axis=axes, keepdims=True).reshape(shape)


def _add(a, b):
    return _binary("add", a, b, np.add,
                   lambda g, da, db: g, lambda g, da, db: g)


def _sub(a, b):
    return _binary("sub", a, b, np.subtract,
                   lambda g, da, db: g, lambda g, da, db: -g)


def _mul(a, b):
    return _binary("mul", a, b, np.multiply,
                   lambda g, da, db: g * db, lambda g, da, db: g * da)


def _div(a, b):
    return _binary("div", a, b, np.divide,
                   lambda g, da, db: g / db,
                   lambda g, da, db: -g * da / (db * db))


def _matmul(a, b):
    """Rank-2 or batched rank-3 product; a rank-2 right operand is shared by
    every matrix of a rank-3 batch and its gradient summed over the batch."""
    if not isinstance(b, Tensor):
        raise ShapeMismatch("matmul", a.shape, np.shape(b))
    da, db = a.data, b.data
    ok = (
        da.ndim in (2, 3)
        and db.ndim in (2, da.ndim)
        and da.shape[-1] == db.shape[-2]
        and (db.ndim == 2 or da.shape[:-2] == db.shape[:-2])
    )
    if not ok:
        raise ShapeMismatch("matmul", da.shape, db.shape)

    return _record("matmul", (a, b), da @ db, (
        lambda g: g @ np.swapaxes(db, -1, -2),
        lambda g: _unbroadcast(np.swapaxes(da, -1, -2) @ g, db.shape),
    ))


def _spread(g, shape, axis, keepdims):
    if axis is None:
        return np.full(shape, np.asarray(g).reshape(()))
    gg = g if keepdims else np.expand_dims(g, axis)
    return np.broadcast_to(gg, shape).copy()


# ---------------------------------------------------------------------------
# gradient tape


class _TapeOp(NamedTuple):
    name: str
    inputs: tuple  # id() of each input
    output: int  # id() of the output
    vjps: tuple


class GradTape:
    """Ordered record of primitive ops; replayed in reverse by ``gradient``,
    the only gradient entry point.

    Used as a context manager::

        with GradTape() as tape:
            loss = model_loss(...)
        grads = tape.gradient(loss, params)

    One tape is single-owner: use it from one thread at a time.  Ops executed
    while no tape is active are value-only and record nothing.  The tape keys
    tensors by ``id()`` and holds every tensor it saw, so no id is reused
    while the tape is alive.
    """

    def __init__(self):
        self._ops = []
        self._tensors = {}  # id -> Tensor

    def __enter__(self):
        stack = getattr(_STATE, "tapes", None)
        if stack is None:
            stack = _STATE.tapes = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tapes.pop()
        return False

    def _record(self, name, inputs, output, vjps):
        keys = []
        for t in inputs:
            keys.append(id(t))
            self._tensors[id(t)] = t
        self._tensors[id(output)] = output
        self._ops.append(_TapeOp(name, tuple(keys), id(output), vjps))

    def gradient(self, loss, sources):
        """Gradients of a scalar loss w.r.t. specific tensors on the tape
        (zero for sources the loss does not depend on).

        Only the backward work the sources need is done.  A forward sweep
        marks a tensor live when it is a source or the output of an op with
        a live input; the reverse sweep then calls an op's VJP for input
        ``i`` only when that input is live.  The gradients are bit-identical
        to those of a full replay: every consumer of a live tensor is live,
        so each live tensor receives the same contributions in the same
        order, and only contributions to dead tensors are skipped.
        """
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise TapeError("gradient: loss must be a scalar Tensor")
        if id(loss) not in self._tensors:
            raise TapeError("gradient: loss was not computed on this tape")
        for s in sources:
            if id(s) not in self._tensors:
                raise TapeError("gradient: source tensor is not on this tape")
        live = {id(s) for s in sources}
        ops = []
        for op in self._ops:
            if not live.isdisjoint(op.inputs):
                live.add(op.output)
                ops.append(op)
        grads = {id(loss): np.ones_like(loss.data)}
        for op in reversed(ops):
            g = grads.get(op.output)
            if g is None:
                continue
            for key, vjp in zip(op.inputs, op.vjps):
                if key in live:
                    contrib = vjp(g)
                    have = grads.get(key)
                    grads[key] = contrib if have is None else have + contrib
        return [Tensor(grads[id(s)] if id(s) in grads else np.zeros_like(s.data))
                for s in sources]


# ---------------------------------------------------------------------------
# verification oracle


def finite_difference_check(f, x, h=1e-5):
    """Max relative error between the tape gradient of ``f`` and central
    differences at ``x``.

    ``f`` maps the Tensor ``x`` to a scalar Tensor using taped ops only.  The
    reported error is max_k |g_k - ghat_k| / max(1e-8, |g_k| + |ghat_k|).
    """
    if h <= 0:
        raise ValueError("finite_difference_check: h must be positive")
    x.data = np.ascontiguousarray(x.data)  # the probe below writes via a flat view
    with GradTape() as tape:
        loss = f(x)
    if not np.isfinite(loss.data).all():
        raise DomainError("finite_difference_check: f returned non-finite value")
    analytic = tape.gradient(loss, [x])[0].data

    flat = x.data.reshape(-1)
    fd = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = f(x).item()
        flat[k] = orig - h
        down = f(x).item()
        flat[k] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise DomainError("finite_difference_check: f returned non-finite value")
        fd[k] = (up - down) / (2.0 * h)
    fd = fd.reshape(x.shape)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom))


# ---------------------------------------------------------------------------
# tensor blob serialization

_BLOB_MAGIC = b"SPTN"
_BLOB_VERSION = 1


class BlobFormatError(ValueError):
    """Malformed tensor blob."""


def write_tensor_blob(path, array):
    """Write a float64 array: magic 'SPTN', u32 version, u32 rank, u64
    extents, then row-major little-endian float64 payload."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_BLOB_MAGIC)
        fh.write(struct.pack("<II", _BLOB_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor_blob(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != _BLOB_MAGIC:
        raise BlobFormatError(f"{path}: bad magic")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != _BLOB_VERSION:
        raise BlobFormatError(f"{path}: unsupported version {version}")
    header_end = 12 + 8 * rank
    if len(raw) < header_end:
        raise BlobFormatError(f"{path}: truncated header")
    shape = struct.unpack_from(f"<{rank}Q", raw, 12)
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    payload = raw[header_end:]
    if len(payload) != 8 * count:
        raise BlobFormatError(f"{path}: payload size mismatch")
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    return arr
