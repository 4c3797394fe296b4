"""Mask-aware multi-head graph attention classifier.

Edges are (src, dst) with messages flowing src -> dst; attention normalizes
over each node's incoming edges, so every node needs at least one in-edge
(self-loops guarantee this). The per-edge mask value enters twice: scaled by
a learnable scalar inside the attention logit, and multiplying the message,
so a zero mask nullifies the edge's contribution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from . import autodiff as ad
from .graph import UNLABELED

LEAKY_SLOPE = 0.2

# Byte budget of the widest edge tensor of a forward-only pass, which runs in
# blocks (mask rows in loss_over_masks, edges in gat_layer and masknet), of
# the int64 view of the mask rows loss_over_masks groups at once, of the
# (rows, E) mask block the weak-duality oracle fills for each such group
# (`mask_block_rows`), and of the (H, N, N) per-head matrix through which
# gat_layer's VJP takes its dense path.
_CHUNK_BYTES = 1 << 20


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
    attn_dropout: float = 0.6
    layer_dropout: float = 0.5

    def __post_init__(self):
        if self.layers < 1 or self.heads < 1 or self.head_dim < 1:
            raise ValueError("layers, heads and head_dim must be >= 1")
        if not (0.0 <= self.attn_dropout < 1.0
                and 0.0 <= self.layer_dropout < 1.0):
            raise ValueError("attn_dropout and layer_dropout must lie in "
                             "[0, 1)")


@dataclass
class LayerParams:
    """The heads of one attention layer stacked on axis 0: W (H, d_h, D),
    a (H, 2*d_h + 1), whose last slot reads the mask channel, and w (H,)."""

    W: np.ndarray
    a: np.ndarray
    w: np.ndarray


@dataclass
class TaskNetParams(ad.Params):
    layers: List[LayerParams]
    out_w: np.ndarray

    def named(self):
        return [(f"layer{l}.{leaf}", getattr(lp, leaf))
                for l, lp in enumerate(self.layers)
                for leaf in "Waw"] + [("out_w", self.out_w)]

    def map(self, fn) -> "TaskNetParams":
        return TaskNetParams(
            layers=[LayerParams(fn(lp.W), fn(lp.a), fn(lp.w))
                    for lp in self.layers],
            out_w=fn(self.out_w),
        )


def init_tasknet(d: int, num_classes: int, cfg: TaskNetConfig,
                 rng: np.random.Generator) -> TaskNetParams:
    """Uniform fan-in init (per head: W, then a); mask weights start at 1."""
    H, d_h = cfg.heads, cfg.head_dim
    layers, d_in = [], d
    for _ in range(cfg.layers):
        lp = LayerParams(np.empty((H, d_h, d_in)), np.empty((H, 2 * d_h + 1)),
                         np.ones(H))
        wb, ab = 1.0 / np.sqrt(d_in), 1.0 / np.sqrt(2 * d_h + 1)
        for k in range(H):
            lp.W[k] = rng.uniform(-wb, wb, size=(d_h, d_in))
            lp.a[k] = rng.uniform(-ab, ab, size=(2 * d_h + 1,))
        layers.append(lp)
        d_in = H * d_h
    ob = 1.0 / np.sqrt(d_h)
    out_w = rng.uniform(-ob, ob, size=(num_classes, d_h))
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

    `src_order` is the stable order of the sorted edges by source;
    `sum_by_src` reduces values laid out in that order per source node.
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
        self._src_rows = np.flatnonzero(out_deg)      # nodes with out-edges
        self._src_starts = (np.cumsum(out_deg) - out_deg)[self._src_rows]
        self.first = 0

    def blocks(self, max_edges: int) -> List["EdgeSegments"]:
        """[self] if it holds at most `max_edges` edges, else forward-only
        runs of consecutive destinations holding at most that many (or one
        node): source ids stay, destinations count from the run's `first`."""
        bounds = np.append(self.starts, self.src.size)
        if bounds[-1] <= max_edges:
            return [self]
        runs, lo = [], 0
        while lo < self.num_nodes:
            hi = np.searchsorted(bounds, bounds[lo] + max_edges, "right") - 1
            hi = max(int(hi), lo + 1)
            run, (e0, e1) = object.__new__(EdgeSegments), bounds[[lo, hi]]
            run.order, run.src = self.order[e0:e1], self.src[e0:e1]
            run.dst, run.starts = self.dst[e0:e1] - lo, self.starts[lo:hi] - e0
            run.first, run.num_nodes = lo, hi - lo
            runs.append(run)
            lo = hi
        return runs

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

    @cached_property
    def cells(self) -> Optional[np.ndarray]:
        """Each edge's flat (dst, src) cell, dst * N + src, or None when a
        cell holds two edges. An O(E + N^2) count, so read only for graphs
        small enough for gat_layer's dense backward."""
        cells = self.dst * self.num_nodes + self.src
        if np.bincount(cells, minlength=self.num_nodes ** 2).max() > 1:
            return None
        return cells

    def softmax(self, e: np.ndarray) -> np.ndarray:
        """Stable softmax of (..., E) edge logits over each node's in-edges,
        computed in e's buffer, which it returns."""
        e -= self.take(np.maximum.reduceat(e, self.starts, axis=-1), self.dst)
        np.exp(e, out=e)
        e /= self.take(self.sum(e), self.dst)
        return e


def _into(op, a: np.ndarray, b, inplace: bool = True) -> np.ndarray:
    """op(a, b), written into a's buffer when `inplace` and b's mask-batch
    axis does not widen the shape."""
    if inplace and np.broadcast_shapes(a.shape, np.shape(b)) == a.shape:
        return op(a, b, out=a)
    return op(a, b)


def gat_layer(h: ad.Var, lp: LayerParams, mask: ad.Var,
              seg: EdgeSegments, keep: Optional[np.ndarray] = None,
              out_keep: Optional[np.ndarray] = None,
              out_w: Optional[ad.Var] = None, layer: int = 0) -> ad.Var:
    """All heads of one mask-aware attention layer as a single tape op with
    a hand-written VJP.

    h: (..., N, D) input; mask: (..., E) in input edge order, where a leading
    mask-batch axis is carried through (forward only); keep: (H, E) attention
    dropout scale or None. A hidden layer returns the (..., N, H*d_h) concat
    of the ELU-activated heads, times the layer dropout scale `out_keep` when
    given. Giving the (C, d_h) classifier head `out_w` makes this the final
    layer, which returns the (..., N, C) logits of the heads' mean. Inside,
    node tensors are (..., H, F, N) and edge tensors (..., H, F, E). Raises
    NonFiniteError naming `layer` and the first head whose sums went
    non-finite. Without a VJP to record, the edge stage runs over
    `seg.blocks` whose (..., H, d_h, E) tensors fit in _CHUNK_BYTES; every
    node's softmax and sum see the same operands, so the bits match one pass.
    The VJP forms the coefficient and message gradients as dense per-head
    products through one (H, N, N) matrix when it fits _CHUNK_BYTES and no
    (dst, src) cell holds two edges, else over the CSR edges. The forward
    stays CSR: a dense sum over a node's in-edges would add them in node-id
    order, so relabelling the nodes would change its bits.
    """
    H, d_h, D = lp.W.data.shape
    W = lp.W.data.reshape(H * d_h, D)                         # a view
    a, w = lp.a.data, lp.w.data                         # (H, 2 d_h + 1), (H,)
    P = a[:, :2 * d_h].reshape(H, 2, d_h)                     # (H, 2, d_h)
    c = (a[:, 2 * d_h] * w)[:, None, None]                    # (H, 1, 1)
    take = seg.take
    params = [lp.W, lp.a, lp.w]
    want_params = any(v.requires_grad for v in params)
    final = out_w is not None
    head = [out_w] if final else []
    taped = any(v.requires_grad for v in (h, mask, *head, *params))

    x = h.data
    z = (W @ np.swapaxes(x, -1, -2)).reshape(x.shape[:-2] + (H, d_h, -1))
    # Source and destination scores of every head and node: (..., H, 2, N).
    s = P @ z
    rows = np.broadcast(z[..., 0, 0, 0], mask.data[..., 0]).size  # mask rows
    runs = [seg] if taped else seg.blocks(_CHUNK_BYTES // (8 * rows * H * d_h))
    parts = []
    # The edge stage runs in place; taped, it has one run, and alpha, kept
    # and coef, which the VJP reads, stay apart.
    for run in runs:
        m = take(mask.data, run.order)[..., None, None, :]   # (..., 1, 1, E)
        dst_s = s[..., 1:, run.first:run.first + run.num_nodes]
        raw = take(s[..., :1, :], run.src)
        raw += take(dst_s, run.dst)
        raw = _into(np.add, raw, m * c)
        raw_pos = raw > 0 if taped else None
        # The leaky ReLU as a maximum: the bits of raw * (1 or LEAKY_SLOPE).
        alpha = run.softmax(np.maximum(raw, LEAKY_SLOPE * raw, out=raw))
        drop = 1.0 if keep is None else take(keep, run.order)[:, None, :]
        kept = (alpha if keep is None
                else _into(np.multiply, alpha, drop, not taped))
        coef = _into(np.multiply, kept, m, not taped)
        msg = _into(np.multiply, take(z, run.src), coef)     # (..., H, d_h, E)
        parts.append(run.sum(msg))                           # (..., H, d_h, N)
    agg = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if not np.isfinite(agg.sum()):      # any non-finite entry shows in the sum
        bad = ~np.isfinite(agg.reshape(-1, H, d_h, agg.shape[-1])).all(
            axis=(0, 2, 3))
        if bad.any():
            raise NonFiniteError(layer=layer, head=int(np.argmax(bad)))
    pos = agg > 0
    neg = np.expm1(np.minimum(agg, 0.0))
    out = np.where(pos, agg, neg)
    out = (out.sum(axis=-3) * (1.0 / H) if final
           else out.reshape(out.shape[:-3] + (H * d_h, -1)))
    out = np.swapaxes(out, -1, -2)
    y = out @ out_w.data.T if final else out
    if out_keep is not None:
        y = y * out_keep
    if not taped:
        return ad.Var(y)
    dact = np.where(pos, 1.0, neg + 1.0)

    def vjp(g):
        if final:
            grads = [(out_w, (out.T @ g).T)]
            g = (g @ out_w.data).T * (1.0 / H)
        else:
            grads = []
            g = (g if out_keep is None else g * out_keep).T.reshape(agg.shape)
        g_agg = g * dact                                      # (H, d_h, N)
        n = seg.num_nodes
        cells = seg.cells if 8 * H * n * n <= _CHUNK_BYTES else None
        if cells is not None:
            # Dense: g_coef is G = g_agg^T z at each edge's (dst, src) cell.
            dense = np.swapaxes(g_agg, 1, 2) @ z              # (H, N, N)
            g_coef = take(dense.reshape(H, -1), cells)[:, None, :]
        else:
            # The messages' sources are gathered again rather than kept on
            # the tape: only node tensors and (H, 1, E) factors outlive the
            # forward.
            g_msg = take(g_agg, seg.dst)                      # (H, d_h, E)
            prod = take(z, seg.src)
            prod *= g_msg
            g_coef = prod.sum(axis=-2, keepdims=True)         # (H, 1, E)
            del prod
        g_alpha = g_coef * m * drop
        g_shift = take(seg.sum(g_alpha * alpha), seg.dst)     # (H, 1, E)
        g_raw = alpha * (g_alpha - g_shift)
        np.multiply(g_raw, LEAKY_SLOPE, out=g_raw, where=~raw_pos)
        if mask.requires_grad:
            g_m = np.empty(m.shape[-1])
            g_m[seg.order] = (g_coef * kept + g_raw * c).sum(axis=(0, 1))
            grads.append((mask, g_m))
        if not (want_params or h.requires_grad):
            return grads
        # Edge terms summed by source; on the CSR path the message gradient
        # is scaled in place and gathered into source order once.
        order = seg.src_order
        g_s = np.concatenate([seg.sum_by_src(take(g_raw, order)),
                              seg.sum(g_raw)], axis=-2)       # (H, 2, N)
        if cells is not None:
            # The messages' part is g_agg @ A, where A holds coef at each
            # edge's (dst, src) cell and zero elsewhere; A reuses G's buffer.
            dense.fill(0.0)
            dense.reshape(H, -1)[:, cells] = coef.reshape(H, -1)
            g_zm = g_agg @ dense
        else:
            g_msg *= coef
            g_zm = seg.sum_by_src(take(g_msg, order))
        g_z = (g_zm + np.swapaxes(P, 1, 2) @ g_s).reshape(H * d_h, -1)
        if h.requires_grad:
            grads.append((h, g_z.T @ W))
        if want_params:
            g_P = g_s @ np.swapaxes(z, 1, 2)                  # (H, 2, d_h)
            g_c = (g_raw * m).sum(axis=(1, 2))                # (H,)
            grads += [(lp.W, (g_z @ x).reshape(H, d_h, D)),
                      (lp.a, np.concatenate([g_P.reshape(H, 2 * d_h),
                                             (g_c * w)[:, None]], axis=1)),
                      (lp.w, g_c * a[:, 2 * d_h])]
        return grads

    return ad.Var(y, parents=(h, mask, *head, *params), vjp=vjp)


def tasknet_forward_var(pv: TaskNetParams, X: np.ndarray, edges: np.ndarray,
                        mask: ad.Var, cfg: TaskNetConfig,
                        dropout_rng: Optional[np.random.Generator] = None,
                        seg: Optional[EdgeSegments] = None) -> ad.Var:
    """Tape forward pass producing (N, C) logits.

    `pv` comes from ad.param_vars(); `mask` is a full-length Var aligned to
    `edges`. Passing dropout_rng=None means evaluation mode; otherwise each
    layer draws its attention dropout, then a hidden layer its layer
    dropout. `seg` is `EdgeSegments(edges, N)` when a caller has built it
    already.
    """
    seg = seg or EdgeSegments(edges, X.shape[0])
    h = ad.constant(X)
    for l, lp in enumerate(pv.layers):
        final = l == len(pv.layers) - 1
        keep = out_keep = None
        if dropout_rng is not None and cfg.attn_dropout > 0:
            keep = ad.dropout_keep(dropout_rng, (cfg.heads, seg.src.size),
                                   cfg.attn_dropout)
        if dropout_rng is not None and cfg.layer_dropout > 0 and not final:
            width = cfg.heads * cfg.head_dim
            out_keep = ad.dropout_keep(dropout_rng, (seg.num_nodes, width),
                                       cfg.layer_dropout)
        h = gat_layer(h, lp, mask, seg, keep, out_keep,
                      pv.out_w if final else None, l)
    return h


def tasknet_forward(p: TaskNetParams, X: np.ndarray, edges: np.ndarray,
                    mask_values: np.ndarray, cfg: TaskNetConfig) -> np.ndarray:
    """Evaluation-mode logits as a plain array (no dropout, no gradients)."""
    return tasknet_forward_var(ad.param_vars(p, track=False), X, edges,
                               ad.constant(mask_values), cfg).data


def _nll_terms(logits: np.ndarray, labels: np.ndarray):
    """Negative log-likelihood of each labeled node of (..., N, C) logits:
    the (..., K) terms and the indices of the K labeled rows."""
    labels = np.asarray(labels, dtype=np.int64)
    keep = np.flatnonzero(labels != UNLABELED)
    if keep.size == 0:
        raise ValueError("cross entropy undefined: no labeled nodes")
    sub = np.asarray(logits, dtype=np.float64)[..., keep, :]
    mx = sub.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(sub - mx).sum(axis=-1)) + mx[..., 0]
    return lse - sub[..., np.arange(keep.size), labels[keep]], keep


def _nll_mean(terms: np.ndarray) -> np.ndarray:
    """The mean of (..., K) terms over the last axis."""
    # A (B, K) batch comes out F-ordered; its row sums would round unlike
    # the one-graph (K,) sum. Summing a C-ordered copy gives the same bits.
    return np.ascontiguousarray(terms).sum(axis=-1) * (1.0 / terms.shape[-1])


def cross_entropy_var(logits: ad.Var, labels: np.ndarray) -> ad.Var:
    """Mean negative log-likelihood over labeled nodes as one tape op."""
    terms, keep = _nll_terms(logits.data, labels)

    def vjp(g):
        # The forward's shifted exponentials, recomputed rather than kept on
        # the tape: (g/n / rowsum) * exp, minus g/n at each label.
        sub = logits.data[keep]
        ex = np.exp(sub - sub.max(axis=1, keepdims=True))
        g_mean = g * (1.0 / keep.size)
        onehot = np.zeros_like(ex)
        onehot[np.arange(keep.size), np.asarray(labels)[keep]] = -g_mean
        g_logits = np.zeros(logits.data.shape)
        g_logits[keep] = (g_mean / ex.sum(axis=1))[:, None] * ex + onehot
        return ((logits, g_logits),)

    return ad.Var(_nll_mean(terms), parents=(logits,), vjp=vjp)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(_nll_mean(_nll_terms(logits, labels)[0]))


def _field(seg: EdgeSegments, v: int, layers: int) -> np.ndarray:
    """Input-order indices of the edges whose mask entries node v's logits
    read: the edges into v's (layers - 1)-hop upstream closure."""
    near = np.zeros(seg.num_nodes, dtype=bool)
    near[v] = True
    for _ in range(layers - 1):
        near[seg.src[near[seg.dst]]] = True
    return seg.order[near[seg.dst]]


def _group_firsts(bits: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """For each row of an (R, ·) int array, the first row with the same
    entries in `columns`. A column constant over the rows cannot split a
    group, so it is skipped; the rest are read as strided views, sorted
    together and compared one at a time, so no (R, columns) copy is made.
    With no varying column every row is in row 0's group."""
    cols = [c for c in (bits[:, j] for j in columns) if (c != c[:1]).any()]
    if not cols:
        return np.zeros(bits.shape[0], dtype=np.int64)
    order = np.lexsort(cols)                   # stable: groups keep row order
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for c in cols:
        ranked = c[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    firsts = np.empty_like(order)
    firsts[order] = order[new][np.cumsum(new) - 1]
    return firsts


def mask_block_rows(num_edges: int) -> int:
    """Rows of one block of a (B, num_edges) mask batch that
    loss_over_masks groups at once: as many as fit _CHUNK_BYTES, at least
    one."""
    return max(1, _CHUNK_BYTES // (8 * num_edges))


def loss_over_masks(p: TaskNetParams, X: np.ndarray, edges: np.ndarray,
                    labels: np.ndarray, masks: np.ndarray,
                    cfg: TaskNetConfig) -> np.ndarray:
    """Evaluation-mode cross-entropy for each row of a (B, E) mask batch,
    through the same layer as tasknet_forward.

    A node's logits read only its `_field` of the mask, and gat_layer's
    softmaxes, sums and matmuls are local to a node and a row. So within a
    block of rows whose (rows, E) int64 view fits _CHUNK_BYTES, the rows
    whose field entries have the same bits (compared as int64, so -0.0 and
    0.0 stay apart) share that node's terms: forwarding the union of each
    node's group leaders, in slices of rows whose widest edge tensor fits
    _CHUNK_BYTES, gives every row's terms, and every non-finite value the
    block's rows would have met. A NonFiniteError names the layer, and the
    first head in it, that went non-finite in the first such slice of
    leaders to meet a non-finite value.
    """
    masks = np.atleast_2d(np.asarray(masks, dtype=np.float64))
    seg = EdgeSegments(edges, X.shape[0])
    pv = ad.param_vars(p, track=False)
    width = cfg.heads * cfg.head_dim
    rows = max(1, _CHUNK_BYTES // (8 * masks.shape[1] * width))  # a slice
    block = mask_block_rows(masks.shape[1])
    fields = [_field(seg, v, len(p.layers)) for v in range(seg.num_nodes)]

    def block_loss(part: np.ndarray) -> np.ndarray:
        bits = part.view(np.int64)
        firsts = [_group_firsts(bits, field) for field in fields]
        leaders = np.zeros(part.shape[0], dtype=bool)
        for f in firsts:
            leaders[f] = True
        union = part[leaders]
        terms, keeps = zip(*(_nll_terms(tasknet_forward_var(
            pv, X, edges, ad.constant(union[i:i + rows]), cfg, None, seg).data,
            labels) for i in range(0, union.shape[0], rows)))
        keep = keeps[0]
        at = (np.cumsum(leaders) - 1)[np.stack([firsts[v] for v in keep], 1)]
        return _nll_mean(np.concatenate(terms)[at, np.arange(keep.size)])

    out = np.empty(masks.shape[0])
    for i in range(0, masks.shape[0], block):
        out[i:i + block] = block_loss(masks[i:i + block])
    return out
