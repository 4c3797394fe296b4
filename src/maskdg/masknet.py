"""Adversarial edge scorer.

Every non-self-loop edge (u, v) gets a score in (0, 1): both endpoint
features are projected and ReLU'd, concatenated in edge order, and pushed
through a two-layer MLP with a sigmoid head. Self-loops are never scored;
they ride along with a fixed value of 1 so a node can always hear itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


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

    @property
    def num_scorable(self) -> int:
        return int(self.scorable.sum())

    def mean_scorable(self) -> float:
        if self.num_scorable == 0:
            return 0.0
        return float(self.values[self.scorable].mean())


def _uniform_fan_in(rng: np.random.Generator, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


def init_masknet(d: int, d_prime: int = 128, hidden: int = 64,
                 rng: np.random.Generator | None = None) -> MaskNetParams:
    """Seeded init: weights uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases."""
    if min(d, d_prime, hidden) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = rng or np.random.default_rng()
    return MaskNetParams(
        proj_w=_uniform_fan_in(rng, (d_prime, d)),
        proj_b=np.zeros(d_prime),
        mlp_w1=_uniform_fan_in(rng, (hidden, 2 * d_prime)),
        mlp_b1=np.zeros(hidden),
        mlp_w2=_uniform_fan_in(rng, (1, hidden)),
        mlp_b2=np.zeros(1),
    )


def _score_edges(pv: MaskNetParams, x: ad.Var, src: np.ndarray,
                 dst: np.ndarray) -> ad.Var:
    z = ad.relu(x @ ad.transpose(pv.proj_w) + pv.proj_b)
    pair = ad.concat([ad.gather_rows(z, src), ad.gather_rows(z, dst)], axis=1)
    h = ad.relu(pair @ ad.transpose(pv.mlp_w1) + pv.mlp_b1)
    logit = h @ ad.transpose(pv.mlp_w2) + pv.mlp_b2
    return ad.sigmoid(ad.reshape(logit, (-1,)))


def mask_forward_var(p: MaskNetParams, X: np.ndarray, edges: np.ndarray,
                     track: bool = True):
    """Tape version of the scorer for gradient computation.

    Returns (mask_var, scorable, pv): mask_var is the full-length mask with
    constant ones at self-loop positions, pv the MaskNetParams of parameter
    Vars. Requires self-loops to sit in a contiguous tail, which is how
    enriched edge lists are built.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    src, dst = edges[:, 0], edges[:, 1]
    scorable = src != dst
    k = int(scorable.sum())
    if k and not scorable[:k].all():
        raise ValueError("self-loops must form a contiguous tail")
    pv = ad.param_vars(p, track)
    x = ad.constant(X)
    scores = _score_edges(pv, x, src[:k], dst[:k])
    if k < edges.shape[0]:
        ones = ad.constant(np.ones(edges.shape[0] - k))
        full = ad.concat([scores, ones], axis=0)
    else:
        full = scores
    return full, scorable, pv


def mask_forward(p: MaskNetParams, X: np.ndarray, edges: np.ndarray) -> EdgeMask:
    """Score every non-self-loop edge; self-loop entries are fixed at 1."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    src, dst = edges[:, 0], edges[:, 1]
    if edges.size and max(src.max(), dst.max()) >= X.shape[0]:
        raise ValueError("edge endpoint outside feature matrix")
    scorable = src != dst
    values = np.ones(edges.shape[0])
    if scorable.any():
        pv = ad.param_vars(p, track=False)
        scores = _score_edges(pv, ad.constant(X), src[scorable], dst[scorable])
        values[scorable] = scores.data
    return EdgeMask(values=values, scorable=scorable)


def dump_mask_csv(path, edges: np.ndarray, mask: EdgeMask) -> None:
    """Write 'src,dst,origin,s' rows for offline mask analysis."""
    from .graph import EdgeOrigin

    with open(path, "w") as f:
        f.write("src,dst,origin,s\n")
        for (src, dst, origin), s in zip(np.asarray(edges), mask.values):
            f.write(f"{src},{dst},{EdgeOrigin(origin).name},{repr(float(s))}\n")
