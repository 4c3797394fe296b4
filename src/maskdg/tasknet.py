"""Mask-aware multi-head graph attention classifier.

Edges are (src, dst) with messages flowing src -> dst; attention normalizes
over each node's incoming edges, so every node needs at least one in-edge
(self-loops guarantee this). The per-edge mask value enters twice: scaled by
a learnable scalar inside the attention logit, and multiplying the message,
so a zero mask nullifies the edge's contribution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import autodiff as ad
from .graph import UNLABELED

LEAKY_SLOPE = 0.2


class NonFiniteError(FloatingPointError):
    """A forward intermediate went non-finite; carries layer/head location."""

    def __init__(self, layer: int, head: int):
        super().__init__(f"non-finite activation at layer {layer}, head {head}")
        self.layer = layer
        self.head = head


@dataclass
class TaskNetConfig:
    layers: int = 2
    heads: int = 8
    head_dim: int = 64
    activation: str = "elu"          # "elu" or "relu"
    attn_dropout: float = 0.6
    layer_dropout: float = 0.5

    def __post_init__(self):
        if self.layers < 1 or self.heads < 1 or self.head_dim < 1:
            raise ValueError("layers, heads and head_dim must be >= 1")
        if self.activation not in ("elu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (0.0 <= self.attn_dropout < 1.0
                and 0.0 <= self.layer_dropout < 1.0):
            raise ValueError("attn_dropout and layer_dropout must lie in "
                             "[0, 1)")


@dataclass
class HeadParams:
    """One attention head: feature transform W, attention vector a
    (length 2*head_dim + 1, last slot reads the mask channel), and the
    scalar mask weight."""

    W: np.ndarray
    a: np.ndarray
    w: np.ndarray


@dataclass
class TaskNetParams(ad.Params):
    layers: List[List[HeadParams]]
    out_w: np.ndarray

    def named(self):
        out = []
        for l, heads in enumerate(self.layers):
            for k, h in enumerate(heads):
                out.append((f"layer{l}.head{k}.W", h.W))
                out.append((f"layer{l}.head{k}.a", h.a))
                out.append((f"layer{l}.head{k}.w", h.w))
        out.append(("out_w", self.out_w))
        return out

    def map(self, fn) -> "TaskNetParams":
        return TaskNetParams(
            layers=[[HeadParams(fn(h.W), fn(h.a), fn(h.w)) for h in heads]
                    for heads in self.layers],
            out_w=fn(self.out_w),
        )


def init_tasknet(d: int, num_classes: int, cfg: TaskNetConfig,
                 rng: np.random.Generator | None = None) -> TaskNetParams:
    """Uniform fan-in init for W, a and the output head; mask weights start at 1."""
    rng = rng or np.random.default_rng()
    layers = []
    d_in = d
    for l in range(cfg.layers):
        heads = []
        for _ in range(cfg.heads):
            wb = 1.0 / np.sqrt(d_in)
            ab = 1.0 / np.sqrt(2 * cfg.head_dim + 1)
            heads.append(HeadParams(
                W=rng.uniform(-wb, wb, size=(cfg.head_dim, d_in)),
                a=rng.uniform(-ab, ab, size=(2 * cfg.head_dim + 1,)),
                w=np.ones(1),
            ))
        layers.append(heads)
        d_in = cfg.heads * cfg.head_dim
    ob = 1.0 / np.sqrt(cfg.head_dim)
    out_w = rng.uniform(-ob, ob, size=(num_classes, cfg.head_dim))
    return TaskNetParams(layers=layers, out_w=out_w)


class EdgeSegments:
    """An edge list sorted by destination (CSR), for segment reductions.

    Edge tensors are laid out edge-last, (..., H, F, E), so every sum and
    maximum over a node's in-edges is one np.add.reduceat /
    np.maximum.reduceat along the contiguous last axis. The sort is stable,
    so a node's in-edges keep their input order and its sums do not depend
    on how nodes are numbered. Gathers along the edge axis go through
    `take`: `x[..., idx]` would return an edge-major array behind an
    (..., H, F, E) view, and every later reduction would run strided.

    `src_order` is the stable order of the sorted edges by source, and
    `dst_by_src` their destinations in that order; `sum_by_src` reduces
    values laid out in that order per source node.
    """

    def __init__(self, edges: np.ndarray, num_nodes: int):
        edges = np.asarray(edges, dtype=np.int64)
        src, dst = edges[:, 0], edges[:, 1]
        deg = np.bincount(dst, minlength=num_nodes)
        if (deg == 0).any():
            raise ValueError(
                f"node {int(np.argmin(deg))} has no incoming edges: attention "
                f"softmax over an empty set (enable self-loops)"
            )
        self.order = ad.stable_order(dst, num_nodes)
        self.src, self.dst = src[self.order], dst[self.order]
        self.starts = np.cumsum(deg) - deg
        self.num_nodes = num_nodes
        out_deg = np.bincount(self.src, minlength=num_nodes)
        self.src_order = ad.stable_order(self.src, num_nodes)
        self.dst_by_src = self.dst[self.src_order]
        self._src_rows = np.flatnonzero(out_deg)      # nodes with out-edges
        self._src_starts = (np.cumsum(out_deg) - out_deg)[self._src_rows]

    @staticmethod
    def take(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """x[..., idx] as a C-contiguous array."""
        return np.take(x, idx, axis=-1)

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-destination sums: (..., E) -> (..., N)."""
        return np.add.reduceat(x, self.starts, axis=-1)

    def sum_by_src(self, x: np.ndarray) -> np.ndarray:
        """Per-source sums of (..., E) values in `src_order`: (..., N), zero
        for nodes without out-edges."""
        out = np.zeros(x.shape[:-1] + (self.num_nodes,))
        out[..., self._src_rows] = np.add.reduceat(x, self._src_starts,
                                                   axis=-1)
        return out

    def softmax(self, e: np.ndarray) -> np.ndarray:
        """Stable softmax of (..., E) edge logits over each node's in-edges."""
        shift = np.maximum.reduceat(e, self.starts, axis=-1)
        ex = np.exp(e - self.take(shift, self.dst))
        return ex / self.take(self.sum(ex), self.dst)


def edge_softmax(logits: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Numerically stable softmax of edge logits grouped by destination node."""
    seg = EdgeSegments(np.stack([dst, dst], axis=1), num_nodes)
    alpha = np.empty(seg.order.size)
    alpha[seg.order] = seg.softmax(
        np.asarray(logits, dtype=np.float64)[seg.order])
    return alpha


def gat_layer(h: ad.Var, heads: List[HeadParams], mask: ad.Var,
              seg: EdgeSegments, activation: str, final: bool,
              keep: Optional[np.ndarray] = None, layer: int = 0) -> ad.Var:
    """All heads of one mask-aware attention layer as a single tape op with
    a hand-written VJP.

    h: (..., N, D) input; mask: (..., E) in input edge order, where a leading
    mask-batch axis is carried through (forward only); keep: (H, E) attention
    dropout scale or None. Hidden layers return the (..., N, H*d_h) concat
    of the activated heads, the final layer their mean. Inside, node tensors
    are (..., H, F, N) and edge tensors (..., H, F, E). Raises
    NonFiniteError naming `layer` and the first head whose sums went
    non-finite.
    """
    H, d_h = len(heads), heads[0].W.data.shape[0]
    W = np.concatenate([hp.W.data for hp in heads])           # (H d_h, D)
    a = np.stack([hp.a.data for hp in heads])                 # (H, 2 d_h + 1)
    w = np.concatenate([hp.w.data for hp in heads])           # (H,)
    P = a[:, :2 * d_h].reshape(H, 2, d_h)                     # (H, 2, d_h)
    c = (a[:, 2 * d_h] * w)[:, None, None]                    # (H, 1, 1)
    take = seg.take

    x = h.data
    z = (W @ np.swapaxes(x, -1, -2)).reshape(x.shape[:-2] + (H, d_h, -1))
    # Source and destination scores of every head and node: (..., H, 2, N).
    s = P @ z
    m = take(mask.data, seg.order)[..., None, None, :]       # (..., 1, 1, E)
    raw = (take(s[..., :1, :], seg.src) + take(s[..., 1:, :], seg.dst)
           + m * c)
    slope = np.where(raw > 0, 1.0, LEAKY_SLOPE)
    alpha = seg.softmax(raw * slope)                          # (..., H, 1, E)
    keep = 1.0 if keep is None else take(keep, seg.order)[:, None, :]
    kept = alpha * keep
    coef = m * kept
    z_src = take(z, seg.src)                                  # (..., H, d_h, E)
    agg = seg.sum(coef * z_src)                               # (..., H, d_h, N)
    if not np.isfinite(agg.sum()):      # any non-finite entry shows in the sum
        bad = ~np.isfinite(agg.reshape(-1, H, d_h, agg.shape[-1])).all(
            axis=(0, 2, 3))
        if bad.any():
            raise NonFiniteError(layer=layer, head=int(np.argmax(bad)))
    pos = agg > 0
    if activation == "elu":
        neg = np.expm1(np.minimum(agg, 0.0))
        out, dact = np.where(pos, agg, neg), np.where(pos, 1.0, neg + 1.0)
    else:
        out, dact = agg * pos, pos
    out = (out.sum(axis=-3) * (1.0 / H) if final
           else out.reshape(out.shape[:-3] + (H * d_h, -1)))
    out = np.swapaxes(out, -1, -2)

    params = [v for hp in heads for v in (hp.W, hp.a, hp.w)]
    want_params = any(v.requires_grad for v in params)
    if not (want_params or h.requires_grad or mask.requires_grad):
        return ad.Var(out)

    def vjp(g):
        g = g.T * (1.0 / H) if final else g.T.reshape(agg.shape)
        g_agg = g * dact                                      # (H, d_h, N)
        g_msg = take(g_agg, seg.dst)                          # (H, d_h, E)
        g_coef = (g_msg * z_src).sum(axis=-2, keepdims=True)  # (H, 1, E)
        g_alpha = g_coef * m * keep
        g_shift = take(seg.sum(g_alpha * alpha), seg.dst)     # (H, 1, E)
        g_raw = alpha * (g_alpha - g_shift) * slope
        grads = []
        if mask.requires_grad:
            g_m = np.empty(m.shape[-1])
            g_m[seg.order] = (g_coef * kept + g_raw * c).sum(axis=(0, 1))
            grads.append((mask, g_m))
        if not (want_params or h.requires_grad):
            return grads
        # Edge terms summed by source, gathered straight into source order
        # rather than permuting the (H, d_h, E) product.
        order = seg.src_order
        g_s = np.concatenate([seg.sum_by_src(take(g_raw, order)),
                              seg.sum(g_raw)], axis=-2)       # (H, 2, N)
        g_z = (seg.sum_by_src(take(g_agg, seg.dst_by_src)
                              * take(coef, order))
               + np.swapaxes(P, 1, 2) @ g_s).reshape(H * d_h, -1)
        if h.requires_grad:
            grads.append((h, g_z.T @ W))
        if want_params:
            g_W = g_z @ x
            g_P = g_s @ np.swapaxes(z, 1, 2)                  # (H, 2, d_h)
            g_c = (g_raw * m).sum(axis=(1, 2))
            for k, hp in enumerate(heads):
                grads += [(hp.W, g_W[k * d_h:(k + 1) * d_h]),
                          (hp.a, np.concatenate([g_P[k].ravel(),
                                                 g_c[k] * w[k:k + 1]])),
                          (hp.w, g_c[k] * a[k, 2 * d_h:])]
        return grads

    return ad.Var(out, parents=(h, mask, *params), vjp=vjp)


def _forward(pv: TaskNetParams, X: np.ndarray, seg: EdgeSegments,
             mask: ad.Var, cfg: TaskNetConfig,
             dropout_rng: Optional[np.random.Generator]) -> ad.Var:
    h = ad.constant(X)
    for l, heads in enumerate(pv.layers):
        final = l == len(pv.layers) - 1
        keep = None
        if dropout_rng is not None and cfg.attn_dropout > 0:
            keep = ad.dropout_keep(dropout_rng, (len(heads), seg.src.size),
                                   cfg.attn_dropout)
        h = gat_layer(h, heads, mask, seg, cfg.activation, final, keep, l)
        if dropout_rng is not None and not final:
            h = ad.dropout(h, cfg.layer_dropout, dropout_rng)
    return h @ ad.transpose(pv.out_w)


def tasknet_forward_var(pv: TaskNetParams, X: np.ndarray, edges: np.ndarray,
                        mask: ad.Var, cfg: TaskNetConfig,
                        dropout_rng: Optional[np.random.Generator] = None) -> ad.Var:
    """Tape forward pass producing (N, C) logits.

    `pv` comes from ad.param_vars(); `mask` is a full-length Var aligned to
    `edges`. Passing dropout_rng=None means evaluation mode.
    """
    return _forward(pv, X, EdgeSegments(edges, X.shape[0]), mask, cfg,
                    dropout_rng)


def tasknet_forward(p: TaskNetParams, X: np.ndarray, edges: np.ndarray,
                    mask_values: np.ndarray, cfg: TaskNetConfig) -> np.ndarray:
    """Evaluation-mode logits as a plain array (no dropout, no gradients)."""
    out = tasknet_forward_var(ad.param_vars(p, track=False), X, edges,
                              ad.constant(mask_values), cfg, dropout_rng=None)
    return out.data


def cross_entropy_var(logits: ad.Var, labels: np.ndarray) -> ad.Var:
    """Mean negative log-likelihood over labeled nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    keep = np.flatnonzero(labels != UNLABELED)
    if keep.size == 0:
        raise ValueError("cross entropy undefined: no labeled nodes")
    sub = ad.gather_rows(logits, keep)
    lse = ad.logsumexp_rows(sub)
    picked = ad.take_per_row(sub, labels[keep])
    return ad.vmean(lse - picked)


def _mean_nll(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean negative log-likelihood over labeled nodes of (..., N, C) logits,
    one value per leading batch index."""
    labels = np.asarray(labels, dtype=np.int64)
    keep = np.flatnonzero(labels != UNLABELED)
    if keep.size == 0:
        raise ValueError("cross entropy undefined: no labeled nodes")
    sub = np.asarray(logits, dtype=np.float64)[..., keep, :]
    mx = sub.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(sub - mx).sum(axis=-1)) + mx[..., 0]
    return (lse - sub[..., np.arange(keep.size), labels[keep]]).mean(axis=-1)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(_mean_nll(logits, labels))


# Byte budget of the widest per-chunk edge tensor in loss_over_masks: large
# mask batches run in row chunks so that peak memory stays flat.
_CHUNK_BYTES = 1 << 20


def loss_over_masks(p: TaskNetParams, X: np.ndarray, edges: np.ndarray,
                    labels: np.ndarray, masks: np.ndarray,
                    cfg: TaskNetConfig) -> np.ndarray:
    """Evaluation-mode cross-entropy for each row of a (B, E) mask batch,
    through the same layer as tasknet_forward, in fixed-size row chunks."""
    masks = np.atleast_2d(np.asarray(masks, dtype=np.float64))
    seg = EdgeSegments(edges, X.shape[0])
    pv = ad.param_vars(p, track=False)
    width = len(p.layers[0]) * p.out_w.shape[1]
    rows = max(1, _CHUNK_BYTES // (8 * masks.shape[1] * width))
    return np.concatenate([
        _mean_nll(_forward(pv, X, seg, ad.constant(masks[i:i + rows]), cfg,
                           None).data, labels)
        for i in range(0, masks.shape[0], rows)])
