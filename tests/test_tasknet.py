import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskdg import autodiff as ad
from maskdg import tasknet
from maskdg.gradients import finite_diff_check, grad_tasknet
from maskdg.graph import EdgeOrigin, make_edges
from maskdg.tasknet import (
    EdgeSegments,
    LayerParams,
    NonFiniteError,
    TaskNetConfig,
    TaskNetParams,
    cross_entropy,
    cross_entropy_var,
    gat_layer,
    init_tasknet,
    loss_over_masks,
    tasknet_forward,
    tasknet_forward_var,
)
from maskdg.theory import iter_mask_grid

rng = np.random.default_rng(42)


def graph_with_loops(pairs, n):
    e = make_edges(pairs, EdgeOrigin.ORIGINAL)
    loops = make_edges([(i, i) for i in range(n)], EdgeOrigin.SELF_LOOP)
    return np.vstack([e, loops])


def edge_softmax(logits, dst, num_nodes):
    """Softmax of edge logits grouped by destination node, through
    `EdgeSegments.softmax`, in input edge order."""
    seg = EdgeSegments(np.stack([dst, dst], axis=1), num_nodes)
    alpha = np.empty(seg.order.size)
    alpha[seg.order] = seg.softmax(
        np.asarray(logits, dtype=np.float64)[seg.order])
    return alpha


# -- independent reference implementation ----------------------------------
# A maskless GAT written as dense per-node loops; used as the oracle for the
# all-ones-mask equivalence check. Attention logits use only the first
# 2*head_dim entries of each attention vector.

def reference_gat_forward(params: TaskNetParams, X, edges, cfg: TaskNetConfig):
    src, dst = edges[:, 0], edges[:, 1]
    n = X.shape[0]
    d_h = params.out_w.shape[1]

    def act(x):     # ELU
        return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))

    h = X
    for l, lp in enumerate(params.layers):
        final = l == len(params.layers) - 1
        outs = []
        for k in range(lp.W.shape[0]):
            hp = head(lp, k)
            z = h @ hp.W.T
            agg = np.zeros((n, d_h))
            for u in range(n):
                incoming = np.flatnonzero(dst == u)
                logits = []
                for e in incoming:
                    raw = hp.a[:d_h] @ z[src[e]] + hp.a[d_h:2 * d_h] @ z[u]
                    logits.append(raw if raw > 0 else 0.2 * raw)
                logits = np.array(logits)
                alpha = np.exp(logits - logits.max())
                alpha /= alpha.sum()
                agg[u] = sum(a * z[src[e]] for a, e in zip(alpha, incoming))
            outs.append(act(agg))
        h = np.mean(outs, axis=0) if final else np.concatenate(outs, axis=1)
    return h @ params.out_w.T


def small_params(d, c, cfg, seed=0):
    return init_tasknet(d, c, cfg, np.random.default_rng(seed))


def head(lp, k):
    """Head k of a stacked layer as views: W (d_h, D), a (2*d_h + 1,) and
    w (1,)."""
    return SimpleNamespace(W=lp.W[k], a=lp.a[k], w=lp.w[k:k + 1])


def layer_params(heads):
    """A layer of tracked leaves stacked from per-head (W, a, w) arrays."""
    W, a, w = zip(*heads)
    return LayerParams(ad.param(np.stack(W)), ad.param(np.stack(a)),
                       ad.param(np.concatenate(w)))


def test_init_draws_each_head_s_W_then_a_into_stacked_layers():
    # The rng stream of a per-head init: each head draws its W, then its a,
    # layer by layer, then the output head; the mask weights start at 1.
    cfg = TaskNetConfig(layers=3, heads=3, head_dim=2)
    d, c = 5, 4
    ours = np.random.default_rng(8)
    p = init_tasknet(d, c, cfg, ours)
    ref = np.random.default_rng(8)
    d_in = d
    for lp in p.layers:
        assert (lp.W.shape, lp.a.shape, lp.w.shape) == \
            ((3, 2, d_in), (3, 5), (3,))
        for k in range(cfg.heads):
            wb, ab = 1.0 / np.sqrt(d_in), 1.0 / np.sqrt(2 * cfg.head_dim + 1)
            np.testing.assert_array_equal(
                lp.W[k], ref.uniform(-wb, wb, size=(cfg.head_dim, d_in)))
            np.testing.assert_array_equal(
                lp.a[k], ref.uniform(-ab, ab, size=(2 * cfg.head_dim + 1,)))
        np.testing.assert_array_equal(lp.w, np.ones(cfg.heads))
        d_in = cfg.heads * cfg.head_dim
    ob = 1.0 / np.sqrt(cfg.head_dim)
    np.testing.assert_array_equal(
        p.out_w, ref.uniform(-ob, ob, size=(c, cfg.head_dim)))
    assert ours.bit_generator.state == ref.bit_generator.state
    assert [name for name, _ in p.named()] == [
        f"layer{l}.{leaf}" for l in range(3) for leaf in "Waw"] + ["out_w"]


def test_single_node_self_loop_passes_features_through():
    cfg = TaskNetConfig(layers=1, heads=1, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(2, 2, cfg)
    X = rng.normal(size=(1, 2))
    edges = make_edges([(0, 0)], EdgeOrigin.SELF_LOOP)
    logits = tasknet_forward(p, X, edges, np.ones(1), cfg)
    z = p.layers[0].W[0] @ X[0]
    expected = p.out_w @ np.where(z > 0, z, np.expm1(np.minimum(z, 0)))
    np.testing.assert_allclose(logits[0], expected, rtol=1e-12)


def test_zero_mask_kills_message_exactly():
    # A zero-mask edge contributes exactly nothing to the aggregation. It
    # still occupies softmax mass, so the oracle keeps the edge in the
    # attention normalization but drops its message term entirely.
    cfg = TaskNetConfig(layers=1, heads=1, head_dim=4,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=1)
    hp = head(p.layers[0], 0)
    X = rng.normal(size=(2, 3))
    edges = graph_with_loops([(0, 1)], 2)          # (0,1), (0,0), (1,1)
    mask = np.array([0.0, 1.0, 1.0])
    out = tasknet_forward(p, X, edges, mask, cfg)

    z = X @ hp.W.T
    d_h = 4

    def logit(s_idx, d_idx, s_val):
        raw = hp.a[:d_h] @ z[s_idx] + hp.a[d_h:2 * d_h] @ z[d_idx] \
            + hp.a[2 * d_h] * hp.w[0] * s_val
        return raw if raw > 0 else 0.2 * raw

    e01, e11 = logit(0, 1, 0.0), logit(1, 1, 1.0)
    alpha11 = np.exp(e11 - max(e01, e11)) / (
        np.exp(e01 - max(e01, e11)) + np.exp(e11 - max(e01, e11)))
    agg1 = alpha11 * z[1]                          # no z[0] term at all
    expected = p.out_w @ np.where(agg1 > 0, agg1, np.expm1(np.minimum(agg1, 0)))
    np.testing.assert_allclose(out[1], expected, rtol=1e-14)
    # and scaling the masked edge's source features leaves only the
    # softmax-mass effect: the message itself carries zero weight
    X2 = X.copy()
    X2[0] *= 3.0
    z2 = X2 @ hp.W.T
    e01b = logit_from(hp, z2, 0, 1, 0.0, d_h)
    alpha11b = np.exp(e11 - max(e01b, e11)) / (
        np.exp(e01b - max(e01b, e11)) + np.exp(e11 - max(e01b, e11)))
    out2 = tasknet_forward(p, X2, edges, mask, cfg)
    agg1b = alpha11b * z2[1]
    expected2 = p.out_w @ np.where(agg1b > 0, agg1b,
                                   np.expm1(np.minimum(agg1b, 0)))
    np.testing.assert_allclose(out2[1], expected2, rtol=1e-14)


def logit_from(hp, z, s_idx, d_idx, s_val, d_h):
    raw = hp.a[:d_h] @ z[s_idx] + hp.a[d_h:2 * d_h] @ z[d_idx] \
        + hp.a[2 * d_h] * hp.w[0] * s_val
    return raw if raw > 0 else 0.2 * raw


def test_all_ones_mask_with_zero_mask_weight_matches_reference_gat():
    cfg = TaskNetConfig(layers=2, heads=3, head_dim=4,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(5, 3, cfg, seed=2)
    for lp in p.layers:
        lp.w[...] = 0.0     # silence the mask channel
    X = rng.normal(size=(6, 5))
    edges = graph_with_loops([(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 0)], 6)
    ours = tasknet_forward(p, X, edges, np.ones(edges.shape[0]), cfg)
    ref = reference_gat_forward(p, X, edges, cfg)
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_edge_softmax_rows_sum_to_one_and_shift_invariance():
    dst = np.array([0, 0, 1, 1, 1, 2])
    logits = rng.normal(size=6) * 10
    alpha = edge_softmax(logits, dst, 3)
    sums = np.zeros(3)
    np.add.at(sums, dst, alpha)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    shift = rng.normal(size=3)
    alpha_shifted = edge_softmax(logits + shift[dst], dst, 3)
    np.testing.assert_allclose(alpha_shifted, alpha, rtol=1e-12)


def test_disconnected_component_is_isolated():
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=3)
    X = rng.normal(size=(4, 3))
    edges = graph_with_loops([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
    mask = np.ones(edges.shape[0])
    base = tasknet_forward(p, X, edges, mask, cfg)
    X2 = X.copy()
    X2[2:] += rng.normal(size=(2, 3))
    perturbed = tasknet_forward(p, X2, edges, mask, cfg)
    np.testing.assert_array_equal(perturbed[:2], base[:2])
    assert not np.array_equal(perturbed[2:], base[2:])


def test_forward_reproducible_bit_exact():
    cfg = TaskNetConfig(layers=2, heads=4, head_dim=5,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(4, 3, cfg, seed=4)
    X = np.random.default_rng(11).normal(size=(10, 4))
    pairs = [(i, (i + 3) % 10) for i in range(10)]
    edges = graph_with_loops(pairs, 10)
    mask = np.random.default_rng(12).uniform(size=edges.shape[0])
    mask[-10:] = 1.0
    a = tasknet_forward(p, X, edges, mask, cfg)
    b = tasknet_forward(p, X, edges, mask, cfg)
    np.testing.assert_array_equal(a, b)


def test_permutation_equivariance():
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=5)
    n = 7
    X = rng.normal(size=(n, 3))
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 3)]
    edges = graph_with_loops(pairs, n)
    mask = np.ones(edges.shape[0])
    base = tasknet_forward(p, X, edges, mask, cfg)

    perm = np.random.default_rng(6).permutation(n)
    X_p = X[np.argsort(perm)]      # node i of base sits at row perm^-1...
    # relabel: new_id = position of old id in perm
    relabel = np.empty(n, dtype=int)
    relabel[perm] = np.arange(n)
    X_p = np.empty_like(X)
    X_p[relabel] = X
    edges_p = edges.copy()
    edges_p[:, 0] = relabel[edges[:, 0]]
    edges_p[:, 1] = relabel[edges[:, 1]]
    out_p = tasknet_forward(p, X_p, edges_p, mask, cfg)
    np.testing.assert_array_equal(out_p[relabel], base)


def test_isolated_node_without_self_loop_errors():
    cfg = TaskNetConfig(layers=1, heads=1, head_dim=2,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(2, 2, cfg)
    X = rng.normal(size=(3, 2))
    edges = make_edges([(0, 1), (1, 0)], EdgeOrigin.ORIGINAL)
    with pytest.raises(ValueError, match="no incoming"):
        tasknet_forward(p, X, edges, np.ones(2), cfg)


def test_zero_out_weight_gives_zero_logits():
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 1, cfg, seed=7)
    p.out_w[...] = 0.0
    X = rng.normal(size=(4, 3))
    edges = graph_with_loops([(0, 1), (2, 3)], 4)
    logits = tasknet_forward(p, X, edges, np.ones(edges.shape[0]), cfg)
    np.testing.assert_array_equal(logits, 0.0)


# -- cross entropy ---------------------------------------------------------

def test_uniform_logits_loss_is_log_num_classes():
    logits = np.zeros((7, 5))
    labels = np.arange(7) % 5
    assert cross_entropy(logits, labels) == pytest.approx(np.log(5), abs=1e-12)


def test_large_margin_loss_approaches_zero():
    logits = np.full((3, 4), -50.0)
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 50.0
    assert cross_entropy(logits, labels) < 1e-12


def test_hand_computed_two_class_case():
    logits = np.array([[2.0, 0.0]])
    labels = np.array([0])
    expected = -np.log(np.exp(2) / (np.exp(2) + 1))
    assert cross_entropy(logits, labels) == pytest.approx(expected, abs=1e-12)
    assert cross_entropy(logits, labels) == pytest.approx(0.126928, abs=1e-6)


def test_unlabeled_nodes_are_skipped():
    logits = np.array([[2.0, 0.0], [100.0, -100.0]])
    both = cross_entropy(logits, np.array([0, -1]))
    only = cross_entropy(logits[:1], np.array([0]))
    assert both == pytest.approx(only)


def test_no_labels_is_an_error():
    with pytest.raises(ValueError, match="no labeled"):
        cross_entropy(np.zeros((2, 2)), np.array([-1, -1]))


def test_cross_entropy_var_grad_is_softmax_minus_onehot_on_labeled_rows():
    logits = np.random.default_rng(21).normal(size=(7, 4)) * 3
    labels = np.array([2, -1, 0, 3, -1, 1, 2])
    v = ad.param(logits.copy())
    loss = cross_entropy_var(v, labels)
    assert loss.data.tobytes() == np.float64(
        cross_entropy(logits, labels)).tobytes()
    loss.backward()
    labeled = labels != -1
    np.testing.assert_array_equal(v.grad[~labeled], 0.0)
    soft = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    onehot = np.eye(4)[labels[labeled]]
    np.testing.assert_allclose(v.grad[labeled],
                               (soft[labeled] - onehot) / labeled.sum(),
                               rtol=0, atol=1e-12)


# -- batched mask evaluation -------------------------------------------------

def test_loss_over_masks_agrees_with_single_forward():
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=8)
    # 25 labeled nodes: past 8, numpy's row sums stop being plain left folds,
    # so a batch summed in another memory order would round differently.
    n = 30
    edges = graph_with_loops([(i, (i + 1 + i % 3) % n) for i in range(n)], n)
    for seed in range(4):
        g = np.random.default_rng(seed)
        X = g.normal(size=(n, 3))
        labels = g.integers(0, 2, size=n)
        labels[::7] = -1
        masks = g.uniform(size=(5, edges.shape[0]))
        masks[:, -n:] = 1.0
        single = [cross_entropy(tasknet_forward(p, X, edges, m, cfg), labels)
                  for m in masks]
        for batch in (1, 2, 5):     # same bits at every batch size
            np.testing.assert_array_equal(
                loss_over_masks(p, X, edges, labels, masks[:batch], cfg),
                single[:batch])


def test_loss_over_masks_rows_do_not_depend_on_chunking(monkeypatch):
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=8)
    n = 5
    X = np.random.default_rng(4).normal(size=(n, 3))
    edges = graph_with_loops([(0, 1), (1, 2), (3, 4), (4, 0)], n)
    labels = np.array([0, 1, 0, 1, -1])
    masks = np.random.default_rng(13).uniform(size=(40, edges.shape[0]))
    masks[:, -n:] = 1.0
    row_bytes = 8 * edges.shape[0] * cfg.heads * cfg.head_dim
    assert tasknet._CHUNK_BYTES // row_bytes > 40     # one chunk
    whole = loss_over_masks(p, X, edges, labels, masks, cfg)
    monkeypatch.setattr(tasknet, "_CHUNK_BYTES", 7 * row_bytes)
    chunked = loss_over_masks(p, X, edges, labels, masks, cfg)   # 6 chunks
    np.testing.assert_array_equal(chunked, whole)
    for i in range(masks.shape[0]):
        single = cross_entropy(tasknet_forward(p, X, edges, masks[i], cfg),
                               labels)
        assert abs(whole[i] - single) <= 1e-12


def plain_loss_over_masks(p, X, edges, labels, masks, cfg):
    """loss_over_masks without grouping rows: each chunk of rows through one
    forward, then the mean NLL over labeled nodes, summed C-ordered."""
    seg = EdgeSegments(edges, X.shape[0])
    pv = ad.param_vars(p, track=False)
    width = cfg.heads * cfg.head_dim
    rows = max(1, tasknet._CHUNK_BYTES // (8 * masks.shape[1] * width))
    keep = np.flatnonzero(labels != -1)
    out = []
    for i in range(0, masks.shape[0], rows):
        sub = tasknet_forward_var(pv, X, edges, ad.constant(masks[i:i + rows]),
                                  cfg, seg=seg).data[:, keep, :]
        mx = sub.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(sub - mx).sum(axis=-1)) + mx[..., 0]
        nll = lse - sub[..., np.arange(keep.size), labels[keep]]
        out.append(np.ascontiguousarray(nll).sum(axis=-1) * (1.0 / keep.size))
    return np.concatenate(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loss_over_masks_matches_a_plain_forward_per_chunk(data):
    layers = data.draw(st.sampled_from([1, 2]), "layers")
    n = data.draw(st.integers(2, 6), "nodes")
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]), min_size=1, max_size=8, unique=True),
        "edges")
    seed = data.draw(st.integers(0, 2 ** 16), "seed")
    unlabeled = data.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                          .filter(lambda u: not all(u)), "unlabeled")
    coarse = data.draw(st.booleans(), "coarse")
    batch = data.draw(st.integers(1, 60), "batch")
    rows = data.draw(st.integers(1, 9), "rows per forward slice")
    # Rows are grouped in blocks whose (rows, E) int64 view fits the budget,
    # heads * head_dim forward slices' worth of rows, so with a width above
    # 1 a block's group leaders go through several forward slices.
    heads = data.draw(st.integers(1, 3), "heads")
    head_dim = data.draw(st.integers(1, 2), "head_dim")
    cfg = TaskNetConfig(layers=layers, heads=heads, head_dim=head_dim,
                        attn_dropout=0.0, layer_dropout=0.0)
    g = np.random.default_rng(seed)
    p = small_params(3, 3, cfg, seed=seed)
    edges = graph_with_loops(pairs, n)
    X = g.normal(size=(n, 3))
    labels = np.where(unlabeled, -1, g.integers(0, 3, size=n))
    if coarse:      # rows repeat on a node's field, with signed zeros
        masks = g.choice([0.0, -0.0, 0.5, 1.0], size=(batch, edges.shape[0]))
    else:           # every row distinct on every field
        masks = g.uniform(size=(batch, edges.shape[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tasknet, "_CHUNK_BYTES",
                   rows * 8 * edges.shape[0] * cfg.heads * cfg.head_dim)
        got = loss_over_masks(p, X, edges, labels, masks, cfg)
        want = plain_loss_over_masks(p, X, edges, labels, masks, cfg)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_loss_over_masks_groups_rows_on_their_bits(monkeypatch):
    # Two rows that differ only by 0.0 against -0.0 in one entry of a node's
    # field are equal as floats but not as int64 bits; grouping compares the
    # bits, so each row is forwarded as a group leader of its own.
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=5)
    edges = graph_with_loops([(0, 1), (1, 2)], 3)
    X = np.random.default_rng(5).normal(size=(3, 3))
    masks = np.ones((2, edges.shape[0]))
    masks[:, 0] = [0.0, -0.0]
    forward, forwarded = tasknet.tasknet_forward_var, []

    def spy(pv, X, edges, mask, *args):
        forwarded.append(mask.data.copy())
        return forward(pv, X, edges, mask, *args)

    monkeypatch.setattr(tasknet, "tasknet_forward_var", spy)
    loss_over_masks(p, X, edges, np.array([0, 1, 0]), masks, cfg)
    np.testing.assert_array_equal(np.concatenate(forwarded).view(np.int64),
                                  masks.view(np.int64))


def reference_firsts(keys, columns):
    """The first row whose entries in `columns` equal each row's, through a
    dict keyed by those entries."""
    seen = {}
    return [seen.setdefault(tuple(row), i)
            for i, row in enumerate(keys[:, columns].tolist())]


NEG_ZERO = int(np.array(-0.0).view(np.int64))      # the bits of -0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_firsts_matches_a_dict_of_first_rows(data):
    rows = data.draw(st.integers(0, 30), "rows")
    width = data.draw(st.integers(1, 5), "width")
    # A small pool makes rows repeat; 0 and NEG_ZERO are 0.0 and -0.0.
    cells = data.draw(st.lists(st.sampled_from([0, NEG_ZERO, 1, -1, 7]),
                               min_size=rows * width,
                               max_size=rows * width), "cells")
    keys = np.array(cells, dtype=np.int64).reshape(rows, width)
    constant = data.draw(st.lists(st.booleans(), min_size=width,
                                  max_size=width), "constant columns")
    keys[:, constant] = keys[:1, constant]
    columns = np.array(data.draw(st.lists(st.integers(0, width - 1),
                                          unique=True), "columns"), dtype=int)
    got = tasknet._group_firsts(keys, columns)
    assert got.shape == (rows,)
    np.testing.assert_array_equal(got, reference_firsts(keys, columns))


@pytest.mark.parametrize("floats, columns, want", [
    # constant columns only: every row in row 0's group
    ([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]], [0, 1], [0, 0, 0]),
    # no columns at all
    ([[0.5], [1.0]], [], [0, 0]),
    # a constant column beside one varying column, rows repeating
    ([[1.0, 0.5], [1.0, 0.0], [1.0, 0.5], [1.0, 0.0]], [0, 1], [0, 1, 0, 1]),
    # -0.0 and 0.0 are equal floats with different bits
    ([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]], [0, 1], [0, 1, 0]),
    # a column left out cannot split a group
    ([[0.0, 1.0], [0.5, 1.0], [0.0, 0.5]], [0], [0, 1, 0]),
    # two varying columns, rows repeating out of order
    ([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]], [0, 1],
     [0, 1, 2, 1, 0]),
])
def test_group_firsts_cases(floats, columns, want):
    keys = np.array(floats).view(np.int64)
    columns = np.array(columns, dtype=int)
    np.testing.assert_array_equal(tasknet._group_firsts(keys, columns), want)
    assert reference_firsts(keys, columns) == want


def test_a_block_constant_on_every_field_forwards_one_leader(monkeypatch):
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=6)
    edges = graph_with_loops([(0, 1), (1, 2), (2, 0)], 3)
    X = np.random.default_rng(6).normal(size=(3, 3))
    labels = np.array([0, 1, 1])
    masks = np.tile(np.random.default_rng(6).uniform(size=edges.shape[0]),
                    (9, 1))
    forward, forwarded = tasknet.tasknet_forward_var, []

    def spy(pv, X, edges, mask, *args):
        forwarded.append(mask.data.copy())
        return forward(pv, X, edges, mask, *args)

    single = cross_entropy(tasknet_forward(p, X, edges, masks[0], cfg), labels)
    monkeypatch.setattr(tasknet, "tasknet_forward_var", spy)
    out = loss_over_masks(p, X, edges, labels, masks, cfg)
    assert [m.shape[0] for m in forwarded] == [1]
    np.testing.assert_array_equal(out, np.full(9, single))


def test_loss_over_masks_of_an_empty_batch_is_empty():
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=3)
    edges = graph_with_loops([(0, 1), (1, 2)], 3)
    X = np.random.default_rng(3).normal(size=(3, 3))
    out = loss_over_masks(p, X, edges, np.array([0, 1, 0]),
                          np.empty((0, edges.shape[0])), cfg)
    assert out.shape == (0,) and out.dtype == np.float64


def test_loss_over_masks_memory_stays_within_the_block_budget():
    # The criterion-4 grid: 21^4 masks over 4 scorable edges and 3 self-loops
    # (10.4 MiB). Beside its (B,) output, one call holds a block's grouping
    # bookkeeping, bounded by _CHUNK_BYTES; grouping the whole batch in one
    # pass peaks near 16.6 MiB.
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=7)
    edges = graph_with_loops([(0, 1), (1, 2), (2, 0), (1, 0)], 3)
    X = np.random.default_rng(7).normal(size=(3, 3))
    grid = np.vstack(list(iter_mask_grid(4, 0.05)))
    masks = np.ones((grid.shape[0], edges.shape[0]))
    masks[:, :4] = grid
    tracemalloc.start()
    try:
        out = loss_over_masks(p, X, edges, np.array([0, 1, 0]), masks, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (21 ** 4,)
    assert peak < out.nbytes + 2 * tasknet._CHUNK_BYTES


def test_nonfinite_value_feeding_only_unlabeled_nodes_is_raised():
    """A row that meets a non-finite value raises NonFiniteError although
    its loss terms come from other rows. loss_over_masks forwards a block's
    group leaders in slices; the error names the layer, and the first head
    within it, that went non-finite in the first slice to meet a non-finite
    value. Here the block's leaders are rows 0 and 4, in one slice or (one
    row per slice) two, and both name layer 0, head 1, as the plain
    per-chunk forward does."""
    # Head 1 reads the mask channel with weight 1e10, so the planted 1e300
    # on edge 2 -> 3 sends its logit to +inf and node 3's softmax to NaN.
    # Node 3 is unlabeled and feeds no other node: row 4 matches row 0 on
    # every labeled node's field, and only node 3's own groups reach it.
    cfg = TaskNetConfig(layers=2, heads=4, head_dim=2,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=5)
    for k, a in enumerate(p.layers[0].a):
        a[-1] = {1: 1e10, 3: -1e10}.get(k, 0.0)
    edges = graph_with_loops([(0, 1), (1, 0), (2, 3)], 4)
    X = np.random.default_rng(2).normal(size=(4, 3))
    labels = np.array([0, 1, 0, -1])
    masks = np.ones((6, edges.shape[0]))
    masks[4, 2] = 1e300
    # The default budget, then one-row slices in blocks of heads * head_dim
    # = 8 rows.
    for budget in (tasknet._CHUNK_BYTES, edge_bytes(cfg) * edges.shape[0]):
        raised = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tasknet, "_CHUNK_BYTES", budget)
            for fn in (plain_loss_over_masks, loss_over_masks):
                with np.errstate(all="ignore"), \
                        pytest.raises(NonFiniteError) as info:
                    fn(p, X, edges, labels, masks, cfg)
                raised.append((info.value.layer, info.value.head))
        assert raised == [(0, 1), (0, 1)], budget


# -- the edge-last layout ------------------------------------------------------

def scatter_graph():
    """Edges in random order; node 5 has in-edges but no out-edges, and
    node 0 sends 20 or more edges, so its source segment is long."""
    r = np.random.default_rng(17)
    src = np.concatenate([np.zeros(20, int), r.integers(0, 5, size=40)])
    dst = r.integers(0, 6, size=60)
    pairs = [(int(s), int(d)) for s, d in zip(src, dst)] + [(0, 5)]
    pairs += [(i, i) for i in range(5)]
    perm = r.permutation(len(pairs))
    return make_edges([pairs[i] for i in perm], EdgeOrigin.ORIGINAL), 6


def test_source_scatter_matches_add_at_and_sum_rows():
    edges, n = scatter_graph()
    seg = EdgeSegments(edges, n)
    E = seg.src.size
    r = np.random.default_rng(5)
    # Small integers sum exactly in any order, so np.add.at is a bit-exact
    # reference for where every edge's value lands.
    x = r.integers(-50, 50, size=(2, 3, E)).astype(np.float64)
    ref = np.zeros((2, 3, n))
    np.add.at(ref.T, seg.src, x.T)
    out = seg.sum_by_src(seg.take(x, seg.src_order))
    np.testing.assert_array_equal(out, ref)
    assert not out[..., 5].any()                 # no out-edges: zeros
    # On general floats it adds in the order of the row-wise sum_rows.
    x = r.normal(size=(2, 3, E)) * np.exp(r.normal(size=E) * 4)
    rows = ad.sum_rows(x.reshape(-1, E).T, seg.src, n)
    np.testing.assert_array_equal(seg.sum_by_src(seg.take(x, seg.src_order)),
                                  rows.T.reshape(2, 3, n))


def test_edge_gathers_are_contiguous(monkeypatch):
    edges, n = scatter_graph()
    seg = EdgeSegments(edges, n)
    z = np.random.default_rng(2).normal(size=(n, 3, 2)).transpose(1, 2, 0)
    fancy = z[..., seg.src]
    assert not fancy.flags.c_contiguous          # edge-major behind the view
    taken = seg.take(z, seg.src)
    assert taken.flags.c_contiguous
    np.testing.assert_array_equal(taken, fancy)

    # every gather in the layer, forward and backward, goes through take
    gathered = []

    def spy(x, idx):
        out = np.take(x, idx, axis=-1)
        gathered.append(out)
        return out

    monkeypatch.setattr(seg, "take", spy)
    r = np.random.default_rng(3)
    H, d_h = 3, 2
    lp = layer_params([(r.normal(size=(d_h, 4)), r.normal(size=2 * d_h + 1),
                        np.ones(1)) for _ in range(H)])
    x = ad.param(r.normal(size=(n, 4)))
    mask = ad.param(r.uniform(size=seg.src.size))
    gat_layer(x, lp, mask, seg).backward()
    assert (H, d_h, seg.src.size) in [g.shape for g in gathered]   # z_src
    assert all(g.flags.c_contiguous for g in gathered)


# -- the fused layer's hand-written gradient ------------------------------------

# (final layer, attention dropout, layer dropout); a final layer tracks its
# classifier head, a hidden one may scale its output by the layer dropout.
VJP_CASES = [(False, False, False), (True, True, False), (False, True, False),
             (True, False, False), (False, False, True), (False, True, True)]


# the ids name the layer's one activation, ELU
@pytest.mark.parametrize(
    "final,dropout,layer_dropout", VJP_CASES,
    ids=[f"elu-{f}-{d}" + ("-layer-dropout" if l else "")
         for f, d, l in VJP_CASES])
def test_gat_layer_vjp_matches_finite_differences(final, dropout,
                                                  layer_dropout):
    r = np.random.default_rng(21)
    n, d, H, d_h, C = 6, 4, 3, 2, 3
    # node 5's only in-edge is its self-loop
    edges = graph_with_loops([(0, 1), (1, 2), (2, 0), (3, 1), (4, 3),
                              (0, 4), (5, 2), (2, 3)], n)
    E = edges.shape[0]
    arrays = {"x": r.normal(size=(n, d)), "mask": r.uniform(size=E)}
    W, a, w = zip(*[(r.normal(size=(d_h, d)), r.normal(size=2 * d_h + 1),
                     r.normal(size=1)) for _ in range(H)])
    arrays.update(W=np.stack(W), a=np.stack(a), w=np.concatenate(w))
    if final:
        arrays["out_w"] = r.normal(size=(C, d_h))
    keep = ad.dropout_keep(np.random.default_rng(3), (H, E), 0.4) \
        if dropout else None
    out_keep = ad.dropout_keep(np.random.default_rng(4), (n, H * d_h), 0.4) \
        if layer_dropout else None
    seg = EdgeSegments(edges, n)
    weight = r.normal(size=(n, C if final else H * d_h))

    def layer(wrap):
        v = {name: wrap(arr) for name, arr in arrays.items()}
        lp = LayerParams(v["W"], v["a"], v["w"])
        return gat_layer(v["x"], lp, v["mask"], seg, keep, out_keep,
                         v.get("out_w")), v

    # seeding backward with `weight` differentiates sum(weight * output)
    out, v = layer(ad.param)
    out.backward(weight)
    analytic = {name: var.grad for name, var in v.items()}
    report = finite_diff_check(
        lambda: float((layer(ad.constant)[0].data * weight).sum()),
        list(arrays.items()), analytic, h=1e-5, tol=1e-6)
    assert report.passed, list(report.lines())


def test_network_gradient_with_dropout_matches_finite_differences():
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.3, layer_dropout=0.2)
    p = small_params(4, 3, cfg, seed=6)
    n = 6
    r = np.random.default_rng(7)
    X = r.normal(size=(n, 4))
    edges = graph_with_loops([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], n)
    mask = r.uniform(size=edges.shape[0])
    labels = np.array([0, 1, 2, 0, -1, 1])
    bundle = grad_tasknet(p, X, edges, mask, labels, cfg,
                          np.random.default_rng(11))

    def loss_fn():
        logits = tasknet_forward_var(ad.param_vars(p, track=False), X, edges,
                                     ad.constant(mask), cfg,
                                     np.random.default_rng(11))
        return cross_entropy(logits.data, labels)

    report = finite_diff_check(loss_fn, p.named(), bundle.grads, h=1e-5,
                               tol=1e-6)
    assert report.passed, list(report.lines())


def test_dropout_draws_match_per_head_sequential_draws():
    # One (H, E) attention-dropout draw per layer equals H successive (E,)
    # draws, and a hidden layer then draws its (N, H*d_h) layer dropout:
    # the rng stream is the same as drawing head by head, and the logits are
    # those of the layers applied with the keeps drawn in that order.
    cfg = TaskNetConfig(layers=2, heads=3, head_dim=2,
                        attn_dropout=0.5, layer_dropout=0.5)
    p = small_params(3, 2, cfg, seed=2)
    n = 4
    X = np.random.default_rng(1).normal(size=(n, 3))
    edges = graph_with_loops([(0, 1), (1, 2), (2, 3)], n)
    E = edges.shape[0]
    pv, mask = ad.param_vars(p, track=False), ad.constant(np.ones(E))
    ours = np.random.default_rng(99)
    logits = tasknet_forward_var(pv, X, edges, mask, cfg, ours).data
    ref = np.random.default_rng(99)
    h, seg = ad.constant(X), EdgeSegments(edges, n)
    for layer, lp in enumerate(pv.layers):
        keep = (np.stack([ref.random(E) for _ in range(cfg.heads)])
                >= 0.5) / 0.5
        if layer < cfg.layers - 1:
            out_keep = (ref.random((n, cfg.heads * cfg.head_dim)) >= 0.5) / 0.5
            h = gat_layer(h, lp, mask, seg, keep, out_keep)
        else:
            h = gat_layer(h, lp, mask, seg, keep, out_w=pv.out_w)
    assert ours.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(logits, h.data)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    np.testing.assert_array_equal(a.random((3, E)),
                                  np.stack([b.random(E) for _ in range(3)]))


def test_forward_with_prebuilt_segments_equals_forward_without():
    # A caller may build EdgeSegments once and reuse it across passes.
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.3, layer_dropout=0.2)
    p = small_params(4, 3, cfg, seed=8)
    n = 6
    r = np.random.default_rng(9)
    X = r.normal(size=(n, 4))
    edges = graph_with_loops([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                              (5, 3), (1, 4)], n)
    mask = r.uniform(size=edges.shape[0])
    seg = EdgeSegments(edges, n)

    def run(seg):
        pv = ad.param_vars(p, track=True)
        out = tasknet_forward_var(pv, X, edges, ad.constant(mask), cfg,
                                  np.random.default_rng(4), seg)
        out.backward()
        return out.data, pv.grads()

    want, want_grads = run(None)
    for _ in range(2):
        got, got_grads = run(seg)
        np.testing.assert_array_equal(got, want)
        for name in want_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name])


# -- what the tape keeps -----------------------------------------------------------

def test_taped_step_keeps_no_message_tensor_on_the_tape():
    # A (H, d_h, E) tensor costs E * H * d_h * 8 bytes; the step needs two
    # at a time (a gather and its product) and may keep none on the tape.
    # About 30 edges per node keep the node tensors small beside them.
    cfg = TaskNetConfig(layers=2, heads=4, head_dim=64,
                        attn_dropout=0.0, layer_dropout=0.0)
    r = np.random.default_rng(12)
    n = 400
    pairs = {(int(s), int(d)) for s, d in r.integers(0, n, size=(12_000, 2))
             if s != d}
    edges = graph_with_loops(sorted(pairs), n)
    E = edges.shape[0]
    assert E >= 10_000
    p = small_params(16, 3, cfg, seed=1)
    X, labels = r.normal(size=(n, 16)), r.integers(0, 3, size=n)
    mask, seg = r.uniform(size=E), EdgeSegments(edges, n)
    tracemalloc.start()
    try:
        grad_tasknet(p, X, edges, mask, labels, cfg, seg=seg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * E * cfg.heads * cfg.head_dim * 8


def test_backward_twice_gives_the_same_bits_and_leaves_the_forward_intact():
    # The VJP scales one of its buffers in place; the tensors it captured
    # from the forward must come out of a sweep unchanged.
    edges, n = scatter_graph()
    r = np.random.default_rng(13)
    H, d_h = 3, 2
    lp = layer_params([(r.normal(size=(d_h, 4)), r.normal(size=2 * d_h + 1),
                        r.normal(size=1)) for _ in range(H)])
    x = ad.param(r.normal(size=(n, 4)))
    mask = ad.param(r.uniform(size=edges.shape[0]))
    keep = ad.dropout_keep(np.random.default_rng(2), (H, edges.shape[0]), 0.3)
    out = gat_layer(x, lp, mask, EdgeSegments(edges, n), keep)
    cells = dict(zip(out._vjp.__code__.co_freevars,
                     (c.cell_contents for c in out._vjp.__closure__)))
    forward = {k: cells[k].copy() for k in ("alpha", "coef", "z")}
    leaves = [x, mask, lp.W, lp.a, lp.w]
    seed = r.normal(size=out.data.shape)
    sweeps = []
    for _ in range(2):
        out.backward(seed)
        sweeps.append([v.grad.copy() for v in leaves])
    for first, second in zip(*sweeps):
        np.testing.assert_array_equal(first, second)
    for k, before in forward.items():
        np.testing.assert_array_equal(cells[k], before)


# -- non-finite values --------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_weight_is_reported_at_its_layer_and_head(bad):
    cfg = TaskNetConfig(layers=3, heads=4, head_dim=2,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=5)
    p.layers[1].W[2, 0, 1] = bad
    X = np.random.default_rng(0).normal(size=(4, 3))
    edges = graph_with_loops([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
        tasknet_forward(p, X, edges, np.ones(edges.shape[0]), cfg)
    assert (info.value.layer, info.value.head) == (1, 2)


# -- forward-only passes in blocks of destination nodes ------------------------

def hub_graph():
    """40 nodes in shuffled edge order: random edges, a self-loop at every
    node, and node 7 with 60 in-edges, so that some runs hold one node."""
    r = np.random.default_rng(31)
    n = 40
    pairs = [(int(s), int(d)) for s, d in r.integers(0, n, size=(160, 2))]
    pairs += [(int(s), 7) for s in r.integers(0, n, size=60)]
    pairs += [(i, i) for i in range(n)]
    perm = r.permutation(len(pairs))
    return make_edges([pairs[i] for i in perm], EdgeOrigin.ORIGINAL), n


def edge_bytes(cfg, batch=1):
    """Bytes per edge of the widest edge tensor of one layer."""
    return 8 * batch * cfg.heads * cfg.head_dim


def test_forward_in_runs_of_destinations_is_bit_identical(monkeypatch):
    cfg = TaskNetConfig(layers=3, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    edges, n = hub_graph()
    p = small_params(5, 3, cfg, seed=2)
    r = np.random.default_rng(6)
    X, mask = r.normal(size=(n, 5)), r.uniform(size=edges.shape[0])
    whole = tasknet_forward(p, X, edges, mask, cfg)
    monkeypatch.setattr(tasknet, "_CHUNK_BYTES", 25 * edge_bytes(cfg))
    runs = EdgeSegments(edges, n).blocks(25)
    assert len(runs) > 5
    assert any(r.num_nodes == 1 and r.src.size > 25 for r in runs)   # node 7
    assert all(r.src.size <= 25 for r in runs if r.num_nodes > 1)
    np.testing.assert_array_equal(tasknet_forward(p, X, edges, mask, cfg),
                                  whole)


def test_batched_masks_in_runs_of_destinations_are_bit_identical(monkeypatch):
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    edges, n = hub_graph()
    p = small_params(5, 3, cfg, seed=4)
    r = np.random.default_rng(8)
    X = r.normal(size=(n, 5))
    labels = r.integers(0, 3, size=n)
    masks = r.uniform(size=(3, edges.shape[0]))

    def logits():
        return tasknet_forward_var(ad.param_vars(p, track=False), X, edges,
                                   ad.constant(masks), cfg).data

    whole = logits()
    singles = [cross_entropy(tasknet_forward(p, X, edges, m, cfg), labels)
               for m in masks]
    # 3 mask rows share the budget: runs of at most 20 edges
    monkeypatch.setattr(tasknet, "_CHUNK_BYTES", 20 * edge_bytes(cfg, 3))
    np.testing.assert_array_equal(logits(), whole)
    # loss_over_masks now takes one mask row per chunk, in runs of 60 edges;
    # a one-row chunk gives the single-mask forward's bits
    np.testing.assert_array_equal(
        loss_over_masks(p, X, edges, labels, masks, cfg), singles)


@pytest.mark.parametrize("final", [False, True], ids=["hidden", "final"])
@pytest.mark.parametrize("dropout", [False, True], ids=["", "keep"])
@pytest.mark.parametrize("batched_input", [False, True],
                         ids=["x", "batched-x"])
def test_taped_layer_has_the_bits_of_the_forward_only_layer(
        monkeypatch, final, dropout, batched_input):
    # The forward-only edge stage runs in place, in runs of destinations,
    # and over a (B, E) mask batch; the taped one keeps its factors apart.
    # A (B, E) mask against an unbatched input widens the logits, which
    # then cannot be summed in place.
    r = np.random.default_rng(23)
    edges, n = hub_graph()
    E, H, d_h, d = edges.shape[0], 3, 2, 4
    arrays = [r.normal(size=(H, d_h, d)), r.normal(size=(H, 2 * d_h + 1)),
              r.normal(size=H)]
    out_w = r.normal(size=(3, d_h)) if final else None
    keep = ad.dropout_keep(np.random.default_rng(3), (H, E), 0.4) \
        if dropout else None
    masks = r.uniform(-1.0, 2.0, size=(2, E))
    x = r.normal(size=(2, n, d) if batched_input else (n, d))
    seg = EdgeSegments(edges, n)

    def layer(wrap, x, mask):
        head = None if out_w is None else wrap(out_w)
        return gat_layer(wrap(x), LayerParams(*map(wrap, arrays)),
                         wrap(mask), seg, keep, out_w=head).data

    monkeypatch.setattr(tasknet, "_CHUNK_BYTES", 25 * 8 * 2 * H * d_h)
    assert len(seg.blocks(25)) > 5
    batch = layer(ad.constant, x, masks)
    for b, mask in enumerate(masks):
        xb = x[b] if batched_input else x
        taped = layer(ad.param, xb, mask)
        np.testing.assert_array_equal(taped, layer(ad.constant, xb, mask))
        np.testing.assert_array_equal(taped, batch[b])


def test_nonfinite_head_in_a_later_run_is_named_as_in_one_pass(monkeypatch):
    # The mask logit weight is +1e10 in head 1, -1e10 in head 3 and 0 in the
    # others. A mask value of +1e300 sends head 1's logit to +inf (its
    # softmax goes NaN), -1e300 does the same to head 3; the -inf logits of
    # the other sign get weight zero. Head 3 breaks at a node in the first
    # run, head 1 only in the last: the layer still names head 1.
    cfg = TaskNetConfig(layers=2, heads=4, head_dim=2,
                        attn_dropout=0.0, layer_dropout=0.0)
    edges, n = hub_graph()
    p = small_params(5, 3, cfg, seed=3)
    for k, a in enumerate(p.layers[0].a):
        a[-1] = {1: 1e10, 3: -1e10}.get(k, 0.0)
    mask = np.ones(edges.shape[0])
    mask[np.flatnonzero(edges[:, 1] == 0)[0]] = -1e300
    mask[np.flatnonzero(edges[:, 1] == n - 1)[0]] = 1e300
    X = np.random.default_rng(1).normal(size=(n, 5))
    assert len(EdgeSegments(edges, n).blocks(25)) > 2
    for budget in (25 * edge_bytes(cfg), 1 << 20):
        monkeypatch.setattr(tasknet, "_CHUNK_BYTES", budget)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            tasknet_forward(p, X, edges, mask, cfg)
        assert (info.value.layer, info.value.head) == (0, 1)
