"""Reverse-mode differentiation over named parameter collections.

A deliberately small tape: enough primitives for MLPs and the losses built
on them (add, multiply, divide, matmul, tanh over Taylor jets, SiLU,
square, sum, plus reshape/take/concat plumbing). All arithmetic is float64.
Operations do not check their results: a NaN/inf propagates like numpy's,
and the training loop checks the loss and the gradients once per step.

Each primitive is one function that takes Tensors and plain arrays alike.
Only the Tensor operands enter the tape as parents; constants stay plain
arrays, so no node is recorded for a value that has no gradient. With no
Tensor operand a primitive returns a plain ndarray, so the same forward
code runs on plain arrays and on tape nodes (training). A Tensor has the
operators its callers apply: ``+``, ``*`` and ``@`` on either side,
``Tensor - x`` and ``x / Tensor``. Tensors opt out of numpy's ufunc
protocol (NEP 13), so ``ndarray (op) Tensor`` goes to the Tensor's
reflected operator, and ``x - Tensor``, ``Tensor / x``, ``-Tensor`` and
``np.sin(Tensor)`` raise ``TypeError`` instead of escaping the tape.
"""

import numpy as np


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """One node of the reverse-mode tape."""

    __slots__ = ("value", "grad", "op", "_parents", "_vjps")

    def __init__(self, value, op="leaf", parents=(), vjps=()):
        self.value = np.asarray(value, dtype=float)
        self.grad = None
        self.op = op
        self._parents = parents
        self._vjps = vjps

    @property
    def shape(self):
        return self.value.shape

    def sum(self):
        x = self.value
        return Tensor(x.sum(), "sum", (self,),
                      (lambda g: np.broadcast_to(g, x.shape),))

    def reshape(self, shape):
        old = self.value.shape
        return Tensor(self.value.reshape(shape), "reshape", (self,),
                      (lambda g: np.asarray(g).reshape(old),))

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, multiply(other, -1.0))

    def __rtruediv__(self, other):
        return divide(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    # NEP 13: numpy defers ``ndarray (op) Tensor`` to the reflected
    # operators above and refuses to apply ufuncs to a Tensor.
    __array_ufunc__ = None

    def __repr__(self):
        return "Tensor(op=%s, shape=%s)" % (self.op, self.value.shape)


def value_of(x):
    """Detach: plain ndarray (or scalar) view of a Tensor or array."""
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def _node(value, op, operands, vjps):
    """A tape node for ``value`` whose parents are the Tensor operands
    (each with its VJP), or ``value`` itself when there are none."""
    pairs = [(x, f) for x, f in zip(operands, vjps) if isinstance(x, Tensor)]
    if not pairs:
        return value
    parents, fns = zip(*pairs)
    return Tensor(value, op, parents, fns)


def add(a, b):
    av, bv = value_of(a), value_of(b)
    return _node(av + bv, "add", (a, b),
                 (lambda g: _unbroadcast(g, av.shape),
                  lambda g: _unbroadcast(g, bv.shape)))


def multiply(a, b):
    av, bv = value_of(a), value_of(b)
    return _node(av * bv, "multiply", (a, b),
                 (lambda g: _unbroadcast(g * bv, av.shape),
                  lambda g: _unbroadcast(g * av, bv.shape)))


def divide(a, b):
    # true division, so tape values round as numpy's a / b does
    # (49 * (1 / 49) != 1, but 49 / 49 == 1)
    av, bv = value_of(a), value_of(b)
    y = av / bv
    return _node(y, "divide", (a, b),
                 (lambda g: _unbroadcast(g / bv, av.shape),
                  lambda g: _unbroadcast(-g * y / bv, bv.shape)))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul takes 2-D operands, got %d-D @ %d-D"
                         % (av.ndim, bv.ndim))
    return _node(av @ bv, "matmul", (a, b),
                 (lambda g: g @ bv.T, lambda g: av.T @ g))


def concat(a, b):
    """Join the columns of two 2-D values: [a, b]."""
    av, bv = value_of(a), value_of(b)
    na = av.shape[1]
    return _node(np.concatenate([av, bv], axis=1), "concat", (a, b),
                 (lambda g: g[:, :na], lambda g: g[:, na:]))


def take(x, index):
    """``x[index]`` for a basic index; the backward scatters into zeros."""
    xv = value_of(x)

    def vjp(g):
        full = np.zeros(xv.shape)
        full[index] = g
        return full

    return _node(xv[index], "take", (x,), (vjp,))


def tanh_jet(u, bias):
    """tanh on the jets (u0, u', u'') stacked as the 3n rows of ``u``: the
    jets (h, s u', s (u'' - 2 h u'^2)) of h = tanh(u0 + bias), s = 1 - h^2."""
    uv, bv = value_of(u), value_of(bias)
    n = uv.shape[0] // 3
    du, ddu = uv[n:2 * n], uv[2 * n:]
    h = np.tanh(uv[:n] + bv)
    s = 1.0 - h * h
    w = ddu - (2.0 * h) * (du * du)
    last = [None, None]

    def vjp(g):  # the three row blocks of d/du, shared with the bias VJP
        if last[0] is not g:
            g0, g1, g2 = g[:n], g[n:2 * n], g[2 * n:]
            last[:] = g, (s * (g0 - (2.0 * h) * (g1 * du + g2 * w)
                               - (2.0 * s) * (du * du) * g2),
                          s * (g1 - (4.0 * h) * du * g2), s * g2)
        return last[1]

    return _node(np.concatenate([h, s * du, s * w]), "tanh_jet", (u, bias),
                 (lambda g: np.concatenate(vjp(g)),
                  lambda g: _unbroadcast(vjp(g)[0], bv.shape)))


def sigmoid(x, out):
    """1 / (1 + exp(-x)) into ``out`` (which may be ``x``), with numpy's SIMD
    exp; below x = -709 (-88 in float32), exp(-x) overflows to inf and gives
    expit's 0."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def silu(x):
    """x * sigmoid(x)."""
    xv = value_of(x)
    s = sigmoid(xv, np.empty_like(xv))
    return _node(xv * s, "silu", (x,),
                 (lambda g: g * (s * (1.0 + xv * (1.0 - s))),))


def square(x):
    xv = value_of(x)
    return _node(xv * xv, "square", (x,), (lambda g: g * (2.0 * xv),))


def backward(out):
    """Accumulate d(out)/d(leaf) into ``.grad`` over the graph below ``out``."""
    if not isinstance(out, Tensor):
        raise TypeError("backward expects a Tensor")
    if out.value.shape != ():
        raise ValueError("backward requires a scalar output")

    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    out.grad = np.ones(())
    for node in reversed(order):
        # every consumer of ``node`` precedes it, so its grad is set
        for parent, vjp in zip(node._parents, node._vjps):
            g = np.asarray(vjp(node.grad), dtype=float)
            parent.grad = g if parent.grad is None else parent.grad + g


# parameter collections --------------------------------------------------

class ParameterSet(dict):
    """Parameters read from outside the program: name -> float64 array,
    each checked to be finite. Parameters built inside are plain dicts."""

    def __init__(self, entries):
        for name, arr in entries.items():
            a = np.array(arr, dtype=float)
            if not np.all(np.isfinite(a)):
                raise ValueError("parameter %r contains non-finite entries" % name)
            self[name] = a


def evaluate_with_gradients(loss_fn, params):
    """Forward-evaluate ``loss_fn`` and return (value, gradients).

    The gradients are a dict with the names and shapes of ``params``.

    ``loss_fn`` receives a mapping name -> Tensor leaf and must return a
    scalar Tensor built from supported primitives.
    """
    leaves = {name: Tensor(arr.copy()) for name, arr in params.items()}
    out = loss_fn(leaves)
    backward(out)
    grads = {}
    for name, leaf in leaves.items():
        g = leaf.grad
        grads[name] = np.zeros_like(leaf.value) if g is None else np.asarray(g, float)
    return float(out.value), grads


def finite_difference_gradient(loss_fn, params, step=1e-5):
    """Central-difference gradient oracle, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be positive")
    arrays = {name: np.array(arr, dtype=float) for name, arr in params.items()}
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(value_of(loss_fn(arrays)))
            flat[i] = keep - step
            lo = float(value_of(loss_fn(arrays)))
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_error(g1, g2):
    """Worst-case relative discrepancy between two gradient maps.

    Denominators are clamped below by 1e-4 so that roundoff noise on
    near-zero gradients is compared absolutely. Returns (error, name).
    """
    worst = 0.0
    worst_name = ""
    for name in g1:
        a, b = np.asarray(g1[name]), np.asarray(g2[name])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
        err = np.abs(a - b) / denom
        if err.size and err.max() >= worst:
            worst = float(err.max())
            worst_name = name
    return worst, worst_name
