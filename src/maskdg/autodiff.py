"""Reverse-mode automatic differentiation over numpy arrays.

A minimal tape: each operation returns a ``Var`` holding the forward value
and a closure that pushes the output adjoint back onto its parents. One tape
lives for the duration of one loss evaluation; ``backward`` topologically
sorts the graph reachable from the output and accumulates ``.grad`` on every
node that requires it.

Only the operations the mask/attention networks need are implemented, each
with an exact vector-Jacobian product. Softmax stabilization shifts use
detached constants, which leaves gradients exact.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """A node on the tape: float64 value, optional adjoint."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph traversal -------------------------------------------------

    def _topo(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self, seed=None):
        """Accumulate adjoints into `.grad` for every reachable node.

        Grads of the reachable subgraph are reset first, so calling backward
        from two different outputs of the same tape gives independent
        results.
        """
        if not self.requires_grad:
            raise ValueError("output does not depend on any tracked variable")
        order = self._topo()
        for node in order:
            node.grad = None
        if seed is None:
            seed = np.ones_like(self.data)
        self.grad = np.asarray(seed, dtype=np.float64).reshape(self.data.shape)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, contrib in node._vjp(node.grad):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.array(contrib, dtype=np.float64)
                else:
                    parent.grad += contrib

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_var(other)
        out_data = self.data + other.data

        def vjp(g):
            return ((self, _unbroadcast(g, self.data.shape)),
                    (other, _unbroadcast(g, other.data.shape)))

        return Var(out_data, parents=(self, other), vjp=vjp)

    __radd__ = __add__

    def __neg__(self):
        return Var(-self.data, parents=(self,), vjp=lambda g: ((self, -g),))

    def __sub__(self, other):
        return self + (-as_var(other))

    def __rsub__(self, other):
        return as_var(other) + (-self)

    def __mul__(self, other):
        other = as_var(other)
        out_data = self.data * other.data
        a_data, b_data = self.data, other.data

        def vjp(g):
            return ((self, _unbroadcast(g * b_data, a_data.shape)),
                    (other, _unbroadcast(g * a_data, b_data.shape)))

        return Var(out_data, parents=(self, other), vjp=vjp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_var(other)
        a_data, b_data = self.data, other.data
        out_data = a_data / b_data

        def vjp(g):
            return ((self, _unbroadcast(g / b_data, a_data.shape)),
                    (other, _unbroadcast(-g * a_data / (b_data * b_data),
                                         b_data.shape)))

        return Var(out_data, parents=(self, other), vjp=vjp)

    def __matmul__(self, other):
        other = as_var(other)
        a_data, b_data = self.data, other.data
        out_data = a_data @ b_data

        def vjp(g):
            if b_data.ndim == 1:          # (n, k) @ (k,) -> (n,)
                ga = np.outer(g, b_data) if a_data.ndim == 2 else g * b_data
                gb = a_data.T @ g if a_data.ndim == 2 else g * a_data
            else:                          # (n, k) @ (k, m) -> (n, m)
                ga = g @ b_data.T
                gb = a_data.T @ g
            return ((self, ga.reshape(a_data.shape)),
                    (other, gb.reshape(b_data.shape)))

        return Var(out_data, parents=(self, other), vjp=vjp)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def constant(x) -> Var:
    return Var(x, requires_grad=False)


def param(x) -> Var:
    """Wrap a parameter array as a tracked leaf."""
    return Var(x, requires_grad=True)


class Params:
    """Base of the parameter containers. Subclasses list their leaves as
    stable (name, leaf) pairs in `named()` and rebuild themselves with a
    function applied to every leaf in `map(fn)`, so one container type holds
    either the arrays or their tape Vars."""

    def __getitem__(self, name: str):
        return dict(self.named())[name]

    def num_params(self) -> int:
        return sum(arr.size for _, arr in self.named())

    def grads(self) -> dict:
        """Adjoints of a container of Vars by name, zero where none arrived."""
        return {name: v.grad if v.grad is not None else np.zeros_like(v.data)
                for name, v in self.named()}


def param_vars(p: Params, track: bool) -> Params:
    """`p` with every array wrapped as a tracked leaf or as a constant."""
    return p.map(param if track else constant)


# -- nonlinearities -------------------------------------------------------

def relu(x: Var) -> Var:
    mask = x.data > 0
    return Var(x.data * mask, parents=(x,), vjp=lambda g: ((x, g * mask),))


def leaky_relu(x: Var, slope: float = 0.2) -> Var:
    factor = np.where(x.data > 0, 1.0, slope)
    return Var(x.data * factor, parents=(x,), vjp=lambda g: ((x, g * factor),))


def elu(x: Var, alpha: float = 1.0) -> Var:
    pos = x.data > 0
    expm1 = alpha * np.expm1(np.minimum(x.data, 0.0))
    out_data = np.where(pos, x.data, expm1)
    local = np.where(pos, 1.0, expm1 + alpha)
    return Var(out_data, parents=(x,), vjp=lambda g: ((x, g * local),))


def sigmoid(x: Var) -> Var:
    # Stable in both tails.
    s = np.where(x.data >= 0,
                 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                 np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
    return Var(s, parents=(x,), vjp=lambda g: ((x, g * s * (1.0 - s)),))


def exp(x: Var) -> Var:
    e = np.exp(x.data)
    return Var(e, parents=(x,), vjp=lambda g: ((x, g * e),))


def log(x: Var) -> Var:
    d = x.data
    return Var(np.log(d), parents=(x,), vjp=lambda g: ((x, g / d),))


# -- shape / indexing -----------------------------------------------------

def gather_rows(x: Var, index: np.ndarray) -> Var:
    """Select rows x[index]; the adjoint scatter-adds back."""
    index = np.asarray(index, dtype=np.int64)
    out_data = x.data[index]

    return Var(out_data, parents=(x,),
               vjp=lambda g: ((x, sum_rows(g, index, x.data.shape[0])),))


def stable_order(ids: np.ndarray, num_ids: int) -> np.ndarray:
    """np.argsort(ids, kind="stable"), as a radix sort when ids fit in 16 bits."""
    if num_ids <= 1 << 16:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")


def sum_rows(x: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """out[i] = sum of the rows x[j] with index[j] == i: np.add.at into
    zeros, done as a stable sort and one np.add.reduceat."""
    counts = np.bincount(index, minlength=num_rows)
    rows = np.flatnonzero(counts)
    out = np.zeros((num_rows,) + x.shape[1:])
    if rows.size:
        starts = (np.cumsum(counts) - counts)[rows]
        out[rows] = np.add.reduceat(x[stable_order(index, num_rows)], starts,
                                    axis=0)
    return out


def segment_sum(x: Var, segment_ids: np.ndarray, num_segments: int) -> Var:
    """Sum rows of x into `num_segments` buckets; adjoint is a gather."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = sum_rows(x.data, segment_ids, num_segments)
    return Var(out_data, parents=(x,), vjp=lambda g: ((x, g[segment_ids]),))


def concat(vars_, axis: int = 0) -> Var:
    vars_ = [as_var(v) for v in vars_]
    out_data = np.concatenate([v.data for v in vars_], axis=axis)
    sizes = [v.data.shape[axis] for v in vars_]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple((v, p) for v, p in zip(vars_, pieces))

    return Var(out_data, parents=tuple(vars_), vjp=vjp)


def slice1d(x: Var, start: int, stop: int) -> Var:
    out_data = x.data[start:stop]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return ((x, gx),)

    return Var(out_data, parents=(x,), vjp=vjp)


def take_per_row(x: Var, cols: np.ndarray) -> Var:
    """x[i, cols[i]] for each row i."""
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out_data = x.data[rows, cols]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[rows, cols] = g          # one entry per row: no duplicates
        return ((x, gx),)

    return Var(out_data, parents=(x,), vjp=vjp)


def reshape(x: Var, shape) -> Var:
    old = x.data.shape
    return Var(x.data.reshape(shape), parents=(x,),
               vjp=lambda g: ((x, g.reshape(old)),))


def transpose(x: Var) -> Var:
    return Var(x.data.T, parents=(x,), vjp=lambda g: ((x, g.T),))


# -- reductions -----------------------------------------------------------

def vsum(x: Var, axis=None, keepdims: bool = False) -> Var:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            gx = np.broadcast_to(g, x.data.shape).copy()
        else:
            g2 = g if keepdims else np.expand_dims(g, axis)
            gx = np.broadcast_to(g2, x.data.shape).copy()
        return ((x, gx),)

    return Var(out_data, parents=(x,), vjp=vjp)


def vmean(x: Var) -> Var:
    return vsum(x) * (1.0 / x.data.size)


def logsumexp_rows(x: Var) -> Var:
    """Row-wise log-sum-exp of a 2-D tensor, stabilized by a detached max."""
    shift = x.data.max(axis=1, keepdims=True)
    z = exp(x - constant(shift))
    return log(vsum(z, axis=1)) + constant(shift[:, 0])


def dropout(x: Var, rate: float, rng: np.random.Generator) -> Var:
    """Inverted dropout; the drawn mask rides the tape as a constant."""
    if rate <= 0.0:
        return x
    return x * constant(dropout_keep(rng, x.data.shape, rate))


def dropout_keep(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout scale: 0 with probability `rate`, else 1/(1-rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)
