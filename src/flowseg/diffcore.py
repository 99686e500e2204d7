"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every operation validates its inputs, produces a finite result, and records
a backward closure on the implicit tape, a graph of ``Node``s apart from the
values: each node holds its parents' nodes, its closure and its grad slot.
A closure keeps only the arrays its math reads, so a value that none reads
is freed once the forward code drops its tensor.  The grad slot of each node
is the only gradient store: during a walk it holds an interior node's
pending gradient, and after it only leaves keep theirs, accumulating across
backward calls until explicitly zeroed.  One gradient array may sit in the
slots of several nodes, so none is ever written in place.  The module holds
no state: disjoint graphs may be walked in different threads, and one thread
walks a given graph at a time.  Tensor value buffers are frozen after
creation; updates replace the buffer rather than mutating it, so a recorded
graph can always be replayed.  An operation whose parents all need no grad
records nothing, so a computation on detached tensors keeps no tape.
``bias_act`` is [tanh](skip + c + b) as one node in the place of c's, a conv
or matmul output, so the tape keeps neither c nor the sums.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the operation's domain (log <= 0, div by 0)."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


def _finite_or_raise(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op} produced a non-finite value")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes that broadcasting introduced."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _norm_axis(axis: int, ndim: int, op: str) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} out of range for ndim {ndim}")
    return axis % ndim


class Node:
    """One vertex of the tape: the parents' nodes, the backward closure (None
    on a leaf) and the gradient slot.  It refers to its tensor's value only
    weakly, so ``data`` reads empty once no tensor or closure holds it."""

    __slots__ = ("parents", "backward", "grad", "_value")

    def __init__(self, parents: tuple["Node", ...],
                 backward: Callable[[np.ndarray], None] | None, value: np.ndarray):
        self.parents, self.backward, self.grad = parents, backward, None
        self._value = weakref.ref(value)

    @property
    def data(self) -> np.ndarray:
        value = self._value()
        return np.empty(0) if value is None else value


class Tensor:
    """A float64 array plus, when it needs a gradient, its tape node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        _finite_or_raise(arr, "tensor construction")
        self.data = _freeze(arr)
        self._node = Node((), None, self.data) if requires_grad else None

    @classmethod
    def _from_op(cls, arr: np.ndarray, parents: tuple[Node | None, ...],
                 backward: Callable[[np.ndarray], None] | None) -> "Tensor":
        """A tensor on the parents' nodes that are not None, with no node if all are."""
        out = cls.__new__(cls)
        out.data = _freeze(np.ascontiguousarray(arr, dtype=np.float64))
        parents = tuple(p for p in parents if p is not None)
        out._node = Node(parents, backward, out.data) if parents else None
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        """The node's closure; assigning it replaces the closure a walk runs."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None]) -> None:
        self._node.backward = fn

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """A view of the same values with no tape linkage."""
        return Tensor._from_op(self.data, (), None)

    def __deepcopy__(self, memo) -> "Tensor":
        """A deep copy is ``detach()``: it shares the read-only value buffer."""
        return self.detach()

    def assign(self, arr: np.ndarray) -> None:
        """Replace the value buffer of a leaf (parameter update)."""
        if self._node is not None and self._node.parents:
            raise ValueError("assign is only valid on leaf tensors")
        arr = np.array(arr, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign shape {arr.shape} != tensor shape {self.data.shape}")
        _finite_or_raise(arr, "assign")
        self.data = _freeze(arr)
        if self._node is not None:
            self._node._value = weakref.ref(self.data)

    # -- binary elementwise ops (numpy broadcasting) ------------------------

    def _binary(self, other, fwd, grad_a, grad_b, op: str) -> "Tensor":
        """fwd(a, b) on self and other; ``grad_a(a, b)`` gives a's gradient map."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        try:
            res = fwd(a, b)
        except ValueError as exc:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform") from exc
        return _record(_finite_or_raise(res, op), (self, grad_a(a, b)), (other, grad_b(a, b)))

    def __add__(self, other):
        return self._binary(other, np.add, lambda a, b: lambda g: g,
                            lambda a, b: lambda g: g, "add")

    def __radd__(self, other):
        return Tensor(other).__add__(self)

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda a, b: lambda g: g,
                            lambda a, b: np.negative, "sub")

    def __rsub__(self, other):
        return Tensor(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(other, np.multiply,
                            lambda a, b: lambda g: g * b, lambda a, b: lambda g: g * a, "mul")

    def __rmul__(self, other):
        return Tensor(other).__mul__(self)

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        if np.any(other.data == 0.0):
            raise DomainError("div: denominator contains zero")
        return self._binary(other, np.divide,
                            lambda a, b: lambda g: g / b,
                            lambda a, b: lambda g: -g * a / (b * b), "div")

    def __rtruediv__(self, other):
        return Tensor(other).__truediv__(self)

    def __neg__(self):
        return _record(-self.data, (self, np.negative))

    # -- unary elementwise ops ----------------------------------------------

    def exp(self) -> "Tensor":
        res = _finite_or_raise(np.exp(self.data), "exp")
        return _record(res, (self, lambda g: g * res))

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise DomainError("log: operand contains values <= 0")
        x = self.data
        return _record(np.log(x), (self, lambda g: g / x))

    def tanh(self) -> "Tensor":
        res = np.tanh(self.data)
        return _record(res, (self, lambda g: g * (1.0 - res * res)))

    def square(self) -> "Tensor":
        x = self.data
        return _record(_finite_or_raise(x * x, "square"), (self, lambda g: g * 2.0 * x))

    # -- contractions ---------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
        return _record(_finite_or_raise(a @ b, "matmul"),
                       (self, lambda g: g @ b.T), (other, lambda g: a.T @ g))

    def __matmul__(self, other):
        return self.matmul(other)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        res = np.asarray(self.data.sum(axis=axis, keepdims=keepdims))
        _finite_or_raise(res, "sum")
        shape = self.data.shape
        # the gradient (a 0-d result is stored as (1,)) takes back the summed
        # axes at length 1, then expands over them
        axes = np.arange(len(shape)) if axis is None else np.atleast_1d(axis) % len(shape)
        kept = tuple(1 if i in axes else n for i, n in enumerate(shape))
        return _record(res, (self, lambda g: np.broadcast_to(g.reshape(kept), shape).copy()))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else int(np.prod(np.take(self.shape, axis)))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int) -> "Tensor":
        axis_n = _norm_axis(axis, self.data.ndim, "max")
        res = np.asarray(self.data.max(axis=axis_n))
        idx = self.data.argmax(axis=axis_n)
        shape = self.data.shape

        def grad(g: np.ndarray) -> np.ndarray:
            # gradient routes to the first maximal element along the axis
            full = np.zeros(shape)
            np.put_along_axis(full, np.expand_dims(idx, axis_n),
                              np.expand_dims(g.reshape(idx.shape), axis_n), axis=axis_n)
            return full

        return _record(res, (self, grad))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            res = self.data.reshape(shape)
        except ValueError as exc:
            raise ShapeError(f"reshape: cannot view {self.data.shape} as {shape}") from exc
        src = self.data.shape
        return _record(res, (self, lambda g: g.reshape(src)))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        if sorted(axes) != list(range(self.data.ndim)):
            raise ShapeError(
                f"transpose: axes {axes} is not a permutation for shape {self.data.shape}")
        inverse = tuple(np.argsort(axes))
        return _record(np.ascontiguousarray(self.data.transpose(axes)),
                       (self, lambda g: np.ascontiguousarray(g.transpose(inverse))))

    def broadcast(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(shape)
        try:
            res = np.broadcast_to(self.data, shape)
        except ValueError as exc:
            raise ShapeError(f"broadcast: cannot expand {self.data.shape} to {shape}") from exc
        # the gradient is summed back over the broadcast axes by _record
        return _record(res.copy(), (self, lambda g: g))

    def slice(self, axis: int, start: int, stop: int) -> "Tensor":
        axis_n = _norm_axis(axis, self.data.ndim, "slice")
        n = self.data.shape[axis_n]
        if not (0 <= start < stop <= n):
            raise ShapeError(f"slice: [{start}:{stop}] invalid for axis {axis} of length {n}")
        key = tuple(slice(None) if i != axis_n else slice(start, stop)
                    for i in range(self.data.ndim))
        shape = self.data.shape

        def grad(g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape)
            full[key] = g
            return full

        return _record(self.data[key].copy(), (self, grad))

    def softmax(self, axis: int) -> "Tensor":
        axis_n = _norm_axis(axis, self.data.ndim, "softmax")
        shifted = self.data - self.data.max(axis=axis_n, keepdims=True)
        e = np.exp(shifted)
        res = e / e.sum(axis=axis_n, keepdims=True)

        def grad(g: np.ndarray) -> np.ndarray:
            dot = (g * res).sum(axis=axis_n, keepdims=True)
            return (g - dot) * res

        return _record(res, (self, grad))


def _record(res: np.ndarray, *pairs: tuple[Tensor, Callable]) -> Tensor:
    """res on each (tensor, grad) pair's tensor that needs a gradient; grad
    maps the upstream gradient to it, summed back over broadcast axes.  Only
    the maps of those tensors are kept, so the tape keeps only what they read."""
    kept = [(t._node, grad, t.shape) for t, grad in pairs if t._node is not None]

    def backward(g: np.ndarray) -> None:
        for node, grad, shape in kept:
            _accumulate(node, _unbroadcast(grad(g), shape))

    return Tensor._from_op(res, tuple(node for node, _, _ in kept), backward)


def _accumulate(node: Node, g: np.ndarray) -> None:
    """Add g to the grad slot of node, never in place: a closure may hand the
    same array to two parents."""
    node.grad = g if node.grad is None else node.grad + g


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate tensors along an axis."""
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    axis_n = _norm_axis(axis, tensors[0].data.ndim, "concat")
    try:
        res = np.concatenate([t.data for t in tensors], axis=axis_n)
    except ValueError as exc:
        shapes = [t.data.shape for t in tensors]
        raise ShapeError(f"concat: shapes {shapes} do not conform on axis {axis}") from exc
    offsets = np.cumsum([0] + [t.data.shape[axis_n] for t in tensors])
    keys = [tuple(slice(None) if i != axis_n else slice(a, b) for i in range(res.ndim))
            for a, b in zip(offsets[:-1], offsets[1:])]
    return _record(res, *[(t, lambda g, key=key: g[key]) for t, key in zip(tensors, keys)])


def _taps(x: np.ndarray) -> list[np.ndarray]:
    """Nine (B, C, H*(W+2)) views of x zero-padded to rows W+2 wide laid end to
    end, one row above and two below: tap (ky, kx) starts at ky*(W+2)+kx."""
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 3, w + 2))
    xp[:, :, 1:h + 1, 1:w + 1] = x
    xp = xp.reshape(b, c, -1)
    return [xp[:, :, ky * (w + 2) + kx:][:, :, :h * (w + 2)]
            for ky in range(3) for kx in range(3)]


def _correlate(taps: list[np.ndarray], w: np.ndarray, width: int) -> np.ndarray:
    """3x3 correlation from ``_taps``: nine GEMMs per item, wrapped row ends cropped."""
    (b, c_in, n), c_out = taps[0].shape, w.shape[0]
    out = np.empty((b, c_out, n // (width + 2), width))
    acc, tmp = np.empty((c_out, n)), np.empty((c_out, n))
    w_taps = w.transpose(2, 3, 0, 1).reshape(9, c_out, c_in)
    # one channel: a broadcast product rounds once, as the rank-1 GEMM does
    product = np.multiply if c_in == 1 else np.matmul
    # overflow is reported by _finite_or_raise, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(b):
            acc.fill(0.0)
            for wk, xk in zip(w_taps, taps):
                product(wk, xk[i], out=tmp)
                acc += tmp
            out[i] = acc.reshape(c_out, -1, width + 2)[..., :width]
    return out


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """2D cross-correlation, 3x3 kernel, stride 1, zero padding 1.

    x: (B, C_in, H, W), w: (C_out, C_in, 3, 3) -> (B, C_out, H, W).
    """
    xa, wa = x.data, w.data
    if xa.ndim != 4 or wa.ndim != 4:
        raise ShapeError(f"conv2d: expected 4D input and kernel, got {xa.shape} and {wa.shape}")
    if wa.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d: kernel must be 3x3, got {wa.shape}")
    if xa.shape[1] != wa.shape[1]:
        raise ShapeError(f"conv2d: input channels {xa.shape} do not match kernel {wa.shape}")
    x_taps = _taps(xa)
    res = _finite_or_raise(_correlate(x_taps, wa, xa.shape[3]), "conv2d")
    # dw reads x's own buffer, not a padded copy (backward pads it again), and
    # dx the flipped kernel: each is kept only when its gradient is needed
    nx, nw = x._node, w._node
    x_kept = None if nw is None else xa
    w_flip = None if nx is None else wa[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)

    def backward(g: np.ndarray) -> None:
        g_taps = _taps(g)
        if nw is not None:
            # the centre tap of g is g in rows W+2 wide, zero past column W
            dw = [(g_taps[4] @ xk.transpose(0, 2, 1)).sum(axis=0) for xk in _taps(x_kept)]
            _accumulate(nw, np.stack(dw, axis=-1).reshape(dw[0].shape + (3, 3)))
        if nx is not None:
            # full correlation of the upstream gradient with the flipped kernel
            _accumulate(nx, _correlate(g_taps, w_flip, g.shape[3]))

    return Tensor._from_op(res, (nx, nw), backward)


def bias_act(c: Tensor, b: Tensor, *, tanh: bool = False,
             skip: Tensor | None = None) -> Tensor:
    """[tanh](skip + (c + b)), b broadcast over axis 1, as one node that takes
    the place of c's node: it gets that node's parents and runs its closure,
    so nothing keeps c.  A tanh node keeps its output, the identity nothing."""
    if (b.ndim != 1 or c.ndim < 2 or c.shape[1] != b.shape[0]
            or skip is not None and skip.shape != c.shape):
        raise ShapeError(f"bias_act: shapes {c.shape}, {b.shape} and skip "
                         f"{None if skip is None else skip.shape} do not conform")
    res = np.add(c.data, b.data.reshape((1, -1) + (1,) * (c.ndim - 2)))
    if skip is not None:
        np.add(skip.data, res, out=res)
    _finite_or_raise(res, "bias_act")
    if tanh:
        np.tanh(res, out=res)
    y = res if tanh else None
    ns, nb, nc = None if skip is None else skip._node, b._node, c._node
    inner, c_backward = (nc.parents, nc.backward) if nc is not None else ((), None)
    if nc is not None and c_backward is None:  # a leaf stays a parent and takes gs
        inner, c_backward = (nc,), lambda g: _accumulate(nc, g)

    def backward(g: np.ndarray) -> None:
        gs = g if y is None else g * (1.0 - y * y)
        if ns is not None:
            _accumulate(ns, gs)
        if nb is not None:
            _accumulate(nb, gs.sum(axis=(0,) + tuple(range(2, gs.ndim))))
        if c_backward is not None:
            c_backward(gs)

    return Tensor._from_op(res, (ns,) + inner + (nb,), backward)


def trace(root: Tensor) -> list[Node]:
    """Topologically ordered nodes of the tape below root (parents before
    children); empty when root needs no gradient."""
    order: list[Node] = []
    seen: set[Node] = set()
    stack = [(root._node, False)] if root._node is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def tape_nbytes(root: Tensor) -> int:
    """Bytes of the distinct buffers that the values of the nodes below root
    still hold, each view's base counted once: every leaf, and each op output
    that a closure keeps or a caller still holds.  An array that a closure
    keeps but that is no node's value (an OU path's Horner sum) is not counted."""
    buffers = {}
    for node in trace(root):
        arr = node.data
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        buffers[id(arr)] = arr.nbytes
    return sum(buffers.values())


def backward(loss: Tensor) -> None:
    """Reverse-propagate from a scalar loss into leaf .grad buffers.

    Each tape node is visited exactly once, in reverse topological order;
    contributions from multiple consumers are summed in the node's grad slot
    before its own backward closure takes them.  No interior node keeps a
    grad afterwards, even when a closure raises.  Leaf gradients accumulate
    additively across calls until zero_grad.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: root does not require grad")
    order = trace(loss)
    _accumulate(loss._node, np.ones(loss.data.shape))
    try:
        for node in reversed(order):
            if node.backward is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node.backward(g)
    finally:
        for node in order:
            if node.backward is not None:
                node.grad = None


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        if t._node is not None:
            t._node.grad = None


def grad_check(fn: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3) -> float:
    """Max relative error of the tape gradient against fourth-order central
    differences (O(eps^4) error), summed in +-eps pairs so an unused input reads 0."""
    leaf = Tensor(x.data, requires_grad=True)
    out = fn(leaf)
    if out.data.size != 1:
        raise ShapeError(f"grad_check: fn must return a scalar, got shape {out.shape}")
    backward(out)
    analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros(leaf.data.shape)

    flat = x.data.ravel()
    numeric = np.zeros(flat.size)
    for i in range(flat.size):
        bumped = flat.copy()
        for step, coef in ((1.0, 8.0), (-1.0, -8.0), (2.0, -1.0), (-2.0, 1.0)):
            bumped[i] = flat[i] + step * eps
            numeric[i] += coef / (12.0 * eps) * fn(Tensor(bumped.reshape(x.data.shape))).item()

    a, n = analytic.ravel(), numeric
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return float(np.max(np.abs(a - n) / denom)) if flat.size else 0.0
