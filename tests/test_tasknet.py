import numpy as np
import pytest

from maskdg import autodiff as ad
from maskdg import tasknet
from maskdg.gradients import finite_diff_check, grad_tasknet
from maskdg.graph import EdgeOrigin, make_edges
from maskdg.tasknet import (
    EdgeSegments,
    HeadParams,
    NonFiniteError,
    TaskNetConfig,
    TaskNetParams,
    cross_entropy,
    edge_softmax,
    gat_layer,
    init_tasknet,
    loss_over_masks,
    tasknet_forward,
    tasknet_forward_var,
)

rng = np.random.default_rng(42)


def graph_with_loops(pairs, n):
    e = make_edges(pairs, EdgeOrigin.ORIGINAL)
    loops = make_edges([(i, i) for i in range(n)], EdgeOrigin.SELF_LOOP)
    return np.vstack([e, loops])


# -- independent reference implementation ----------------------------------
# A maskless GAT written as dense per-node loops; used as the oracle for the
# all-ones-mask equivalence check. Attention logits use only the first
# 2*head_dim entries of each attention vector.

def reference_gat_forward(params: TaskNetParams, X, edges, cfg: TaskNetConfig):
    src, dst = edges[:, 0], edges[:, 1]
    n = X.shape[0]
    d_h = params.out_w.shape[1]

    def act(x):
        if cfg.activation == "elu":
            return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
        return np.maximum(x, 0.0)

    h = X
    for l, heads in enumerate(params.layers):
        final = l == len(params.layers) - 1
        outs = []
        for hp in heads:
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


def test_single_node_self_loop_passes_features_through():
    cfg = TaskNetConfig(layers=1, heads=1, head_dim=3, activation="elu",
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(2, 2, cfg)
    X = rng.normal(size=(1, 2))
    edges = make_edges([(0, 0)], EdgeOrigin.SELF_LOOP)
    logits = tasknet_forward(p, X, edges, np.ones(1), cfg)
    z = p.layers[0][0].W @ X[0]
    expected = p.out_w @ np.where(z > 0, z, np.expm1(np.minimum(z, 0)))
    np.testing.assert_allclose(logits[0], expected, rtol=1e-12)


def test_zero_mask_kills_message_exactly():
    # A zero-mask edge contributes exactly nothing to the aggregation. It
    # still occupies softmax mass, so the oracle keeps the edge in the
    # attention normalization but drops its message term entirely.
    cfg = TaskNetConfig(layers=1, heads=1, head_dim=4,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=1)
    hp = p.layers[0][0]
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
    cfg = TaskNetConfig(layers=2, heads=3, head_dim=4, activation="elu",
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(5, 3, cfg, seed=2)
    for heads in p.layers:
        for hp in heads:
            hp.w[...] = 0.0     # silence the mask channel
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


# -- batched mask evaluation -------------------------------------------------

def test_loss_over_masks_agrees_with_single_forward():
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=8)
    n = 5
    X = rng.normal(size=(n, 3))
    edges = graph_with_loops([(0, 1), (1, 2), (3, 4), (4, 0)], n)
    labels = np.array([0, 1, 0, 1, -1])
    masks = np.random.default_rng(13).uniform(size=(6, edges.shape[0]))
    masks[:, -n:] = 1.0
    batched = loss_over_masks(p, X, edges, labels, masks, cfg)
    for i in range(masks.shape[0]):
        logits = tasknet_forward(p, X, edges, masks[i], cfg)
        np.testing.assert_allclose(batched[i], cross_entropy(logits, labels),
                                   rtol=1e-12)


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
    np.testing.assert_array_equal(seg.dst_by_src, seg.dst[seg.src_order])
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
    heads = [HeadParams(ad.param(r.normal(size=(d_h, 4))),
                        ad.param(r.normal(size=2 * d_h + 1)),
                        ad.param(np.ones(1))) for _ in range(H)]
    x = ad.param(r.normal(size=(n, 4)))
    mask = ad.param(r.uniform(size=seg.src.size))
    ad.vsum(gat_layer(x, heads, mask, seg, "elu", False)).backward()
    assert (H, d_h, seg.src.size) in [g.shape for g in gathered]   # z_src
    assert all(g.flags.c_contiguous for g in gathered)


# -- the fused layer's hand-written gradient ------------------------------------

@pytest.mark.parametrize("activation,final,dropout", [
    ("elu", False, False), ("elu", True, True),
    ("relu", False, True), ("relu", True, False)])
def test_gat_layer_vjp_matches_finite_differences(activation, final, dropout):
    r = np.random.default_rng(21)
    n, d, H, d_h = 6, 4, 3, 2
    # node 5's only in-edge is its self-loop
    edges = graph_with_loops([(0, 1), (1, 2), (2, 0), (3, 1), (4, 3),
                              (0, 4), (5, 2), (2, 3)], n)
    E = edges.shape[0]
    arrays = {"x": r.normal(size=(n, d)), "mask": r.uniform(size=E)}
    for k in range(H):
        arrays[f"W{k}"] = r.normal(size=(d_h, d))
        arrays[f"a{k}"] = r.normal(size=2 * d_h + 1)
        arrays[f"w{k}"] = r.normal(size=1)
    keep = ad.dropout_keep(np.random.default_rng(3), (H, E), 0.4) \
        if dropout else None
    seg = EdgeSegments(edges, n)
    out_dim = d_h if final else H * d_h
    weight = r.normal(size=(n, out_dim))

    def loss(wrap):
        v = {name: wrap(arr) for name, arr in arrays.items()}
        heads = [HeadParams(v[f"W{k}"], v[f"a{k}"], v[f"w{k}"])
                 for k in range(H)]
        out = gat_layer(v["x"], heads, v["mask"], seg, activation, final,
                        keep)
        return ad.vsum(out * ad.constant(weight)), v

    total, v = loss(ad.param)
    total.backward()
    analytic = {name: var.grad for name, var in v.items()}
    report = finite_diff_check(lambda: float(loss(ad.constant)[0].data),
                               list(arrays.items()), analytic, h=1e-5,
                               tol=1e-6)
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
    # the rng stream is the same as drawing head by head.
    cfg = TaskNetConfig(layers=2, heads=3, head_dim=2,
                        attn_dropout=0.5, layer_dropout=0.5)
    p = small_params(3, 2, cfg, seed=2)
    n = 4
    X = np.random.default_rng(1).normal(size=(n, 3))
    edges = graph_with_loops([(0, 1), (1, 2), (2, 3)], n)
    E = edges.shape[0]
    ours = np.random.default_rng(99)
    tasknet_forward_var(ad.param_vars(p, track=False), X, edges,
                        ad.constant(np.ones(E)), cfg, ours)
    ref = np.random.default_rng(99)
    for layer in range(cfg.layers):
        for _ in range(cfg.heads):
            ref.random(E)
        if layer < cfg.layers - 1:
            ref.random((n, cfg.heads * cfg.head_dim))
    assert ours.bit_generator.state == ref.bit_generator.state
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    np.testing.assert_array_equal(a.random((3, E)),
                                  np.stack([b.random(E) for _ in range(3)]))


# -- non-finite values --------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_weight_is_reported_at_its_layer_and_head(bad):
    cfg = TaskNetConfig(layers=3, heads=4, head_dim=2,
                        attn_dropout=0.0, layer_dropout=0.0)
    p = small_params(3, 2, cfg, seed=5)
    p.layers[1][2].W[0, 1] = bad
    X = np.random.default_rng(0).normal(size=(4, 3))
    edges = graph_with_loops([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError) as info:
        tasknet_forward(p, X, edges, np.ones(edges.shape[0]), cfg)
    assert (info.value.layer, info.value.head) == (1, 2)
