"""Reverse-mode automatic differentiation over numpy arrays.

A minimal tape: each operation returns a ``Var`` holding the forward value
and a closure that pushes the output adjoint back onto its parents. One tape
lives for the duration of one loss evaluation; ``backward`` topologically
sorts the graph reachable from the output and accumulates ``.grad`` on every
node that requires it.

The tape records whole layers only: each is one op with a hand-written
vector-Jacobian product, built on `Var` in its own module: the scorer in
`masknet`, each attention layer (with its dropout and, in the last, the
classifier head) and the cross-entropy in `tasknet`. What remains here is the
tape itself, the parameter containers, the dropout scale `dropout_keep`, and
the segment helpers `stable_order` and `sum_rows` that the VJPs share.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A node on the tape: float64 value, optional adjoint."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = parents
        self._vjp = vjp

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

    flat = None     # the buffer behind every array of a `packed` container

    def grads(self) -> dict:
        """Adjoints of a container of Vars by name, zero where none arrived."""
        return {name: v.grad if v.grad is not None else np.zeros_like(v.data)
                for name, v in self.named()}


def param_vars(p: Params, track: bool) -> Params:
    """`p` with every array wrapped as a tracked leaf or as a constant."""
    return p.map(param if track else constant)


def packed(p: Params) -> Params:
    """A copy of `p` whose arrays are views into one contiguous buffer,
    `.flat`, in named() order, so an optimiser moves them all at once."""
    arrays = [arr for _, arr in p.named()]
    flat = np.concatenate([arr.ravel() for arr in arrays])
    parts = np.split(flat, np.cumsum([arr.size for arr in arrays])[:-1])
    views = {id(a): part.reshape(a.shape) for a, part in zip(arrays, parts)}
    out = p.map(lambda arr: views[id(arr)])
    out.flat = flat
    return out


# -- indexing -------------------------------------------------------------

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


def dropout_keep(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout scale: 0 with probability `rate`, else 1/(1-rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)
