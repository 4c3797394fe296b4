"""Adversarial edge scorer.

Every non-self-loop edge (u, v) gets a score in (0, 1): both endpoint
features are projected and ReLU'd, concatenated in edge order, and pushed
through a two-layer MLP with a sigmoid head. Self-loops are never scored;
they ride along with a fixed value of 1 so a node can always hear itself.
The whole scorer is one tape op with a hand-written VJP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tasknet
from .graph import EdgeOrigin, write_atomic


@dataclass
class MaskNetParams(ad.Params):
    """Projection (d -> d') plus scoring MLP (2d' -> hidden -> 1)."""

    proj_w: np.ndarray
    proj_b: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray

    def named(self):
        """Stable (name, array) iteration used by optimizers and gradchecks."""
        return [
            ("proj_w", self.proj_w), ("proj_b", self.proj_b),
            ("mlp_w1", self.mlp_w1), ("mlp_b1", self.mlp_b1),
            ("mlp_w2", self.mlp_w2), ("mlp_b2", self.mlp_b2),
        ]

    def map(self, fn) -> "MaskNetParams":
        return MaskNetParams(*(fn(arr) for _, arr in self.named()))


@dataclass
class EdgeMask:
    """Per-edge scores aligned to an edge list.

    values: full-length vector, one entry per edge; self-loop entries fixed
        at 1 and excluded from the sparsity mean.
    scorable: boolean vector marking the scored (non-self-loop) entries.
    """

    values: np.ndarray
    scorable: np.ndarray

    def mean_scorable(self) -> float:
        if not self.scorable.any():
            return 0.0
        return float(self.values[self.scorable].mean())


def _uniform_fan_in(rng: np.random.Generator, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


def init_masknet(d: int, d_prime: int, hidden: int,
                 rng: np.random.Generator) -> MaskNetParams:
    """Seeded init: weights uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases."""
    if min(d, d_prime, hidden) < 1:
        raise ValueError("all dimensions must be >= 1")
    return MaskNetParams(
        proj_w=_uniform_fan_in(rng, (d_prime, d)),
        proj_b=np.zeros(d_prime),
        mlp_w1=_uniform_fan_in(rng, (hidden, 2 * d_prime)),
        mlp_b1=np.zeros(hidden),
        mlp_w2=_uniform_fan_in(rng, (1, hidden)),
        mlp_b2=np.zeros(1),
    )


def _score_edges(pv: MaskNetParams, X: np.ndarray, edges: np.ndarray):
    """The whole scorer as one tape op with a hand-written VJP: a full-length
    mask holding the score of each non-self-loop edge and 1 at each
    self-loop, and the boolean vector of the scored entries. Without a VJP
    to record, the edges run in blocks of `rows` (the last also takes the
    remainder) whose (rows, 2d') pairs fit in tasknet._CHUNK_BYTES. `rows`
    is a multiple of 64 and no block is shorter, so each row meets the same
    BLAS kernels as in one pass: the scores match it to the bit.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    src, dst = edges[:, 0], edges[:, 1]
    if edges.size and max(src.max(), dst.max()) >= X.shape[0]:
        raise ValueError("edge endpoint outside feature matrix")
    scorable = src != dst
    src, dst = src[scorable], dst[scorable]
    params = [v for _, v in pv.named()]
    W0, b0, W1, b1, W2, b2 = (v.data for v in params)
    taped = any(v.requires_grad for v in params)
    X = np.asarray(X, dtype=np.float64)
    # Allocated before the (E, .) temporaries, so that they are freed from
    # the top of the heap; allocated after them, it raised peak RSS.
    values = np.ones(scorable.shape[0])
    s = np.empty(src.size)
    pre0 = X @ W0.T + b0
    z = pre0 * (pre0 > 0)
    rows = max(1, tasknet._CHUNK_BYTES // (8 * 2 * z.shape[1]) // 64) * 64
    blocks = 1 if taped else max(1, src.size // rows)
    cuts = [i * rows for i in range(blocks)] + [src.size]
    for lo, hi in zip(cuts, cuts[1:]):   # taped: one block, read by the VJP
        pair = np.concatenate([z[src[lo:hi]], z[dst[lo:hi]]], axis=1)
        pre1 = pair @ W1.T + b1
        h = pre1 * (pre1 > 0)
        logit = (h @ W2.T + b2).reshape(-1)
        t = np.exp(-np.abs(logit))                   # stable in both tails
        s[lo:hi] = np.where(logit >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    values[scorable] = s
    if not taped:
        return ad.Var(values), scorable

    def vjp(g):
        # Trained checkpoints depend bit for bit on this arithmetic order:
        # weight grads as (a.T @ g).T, sigmoid as g * s * (1 - s), and the
        # two endpoint halves scattered separately, then added.
        g_logit = (g[scorable] * s * (1.0 - s)).reshape(-1, 1)
        g_pre1 = (g_logit @ W2) * (pre1 > 0)
        g_pair = g_pre1 @ W1
        half = z.shape[1]
        g_z = (ad.sum_rows(g_pair[:, :half], src, z.shape[0])
               + ad.sum_rows(g_pair[:, half:], dst, z.shape[0]))
        g_pre0 = g_z * (pre0 > 0)
        grads = [(X.T @ g_pre0).T, g_pre0.sum(axis=0),
                 (pair.T @ g_pre1).T, g_pre1.sum(axis=0),
                 (h.T @ g_logit).T, g_logit.sum(axis=0)]
        return tuple(zip(params, grads))

    return ad.Var(values, parents=tuple(params), vjp=vjp), scorable


def mask_forward_var(p: MaskNetParams, X: np.ndarray, edges: np.ndarray):
    """Tape version of the scorer for gradient computation.

    Returns (mask_var, scorable, pv): mask_var is the full-length mask with
    constant ones at self-loop positions, wherever they sit, and pv the
    MaskNetParams of parameter Vars.
    """
    pv = ad.param_vars(p, track=True)
    return (*_score_edges(pv, X, edges), pv)


def mask_forward(p: MaskNetParams, X: np.ndarray, edges: np.ndarray) -> EdgeMask:
    """Score every non-self-loop edge; self-loop entries are fixed at 1."""
    mask, scorable = _score_edges(ad.param_vars(p, track=False), X, edges)
    return EdgeMask(values=mask.data, scorable=scorable)


def dump_mask_csv(path, edges: np.ndarray, mask: EdgeMask) -> None:
    """Write 'src,dst,origin,s' rows for offline mask analysis."""
    rows = [f"{src},{dst},{EdgeOrigin(origin).name},{repr(float(s))}\n"
            for (src, dst, origin), s in zip(np.asarray(edges), mask.values)]
    write_atomic(path, "src,dst,origin,s\n" + "".join(rows))
