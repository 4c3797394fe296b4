import numpy as np
import pytest

from maskdg import tasknet
from maskdg.graph import EdgeOrigin, make_edges
from maskdg.masknet import (EdgeMask, MaskNetParams, init_masknet,
                            mask_forward, mask_forward_var)


def edges_with_loops(pairs, n):
    e = make_edges(pairs, EdgeOrigin.ORIGINAL)
    loops = make_edges([(i, i) for i in range(n)], EdgeOrigin.SELF_LOOP)
    return np.vstack([e, loops])


def test_parameter_count_matches_shape_arithmetic():
    p = init_masknet(d=6775, d_prime=128, hidden=64, rng=np.random.default_rng(0))
    expected = 6775 * 128 + 128 + 256 * 64 + 64 + 64 * 1 + 1
    assert sum(arr.size for _, arr in p.named()) == expected


def test_same_seed_gives_identical_params():
    a = init_masknet(5, 4, 3, np.random.default_rng(17))
    b = init_masknet(5, 4, 3, np.random.default_rng(17))
    for (_, x), (_, y) in zip(a.named(), b.named()):
        np.testing.assert_array_equal(x, y)


def test_minimal_dims_are_valid():
    p = init_masknet(1, 1, 1, np.random.default_rng(0))
    assert p.proj_w.shape == (1, 1)
    assert p.mlp_w1.shape == (1, 2)
    assert p.mlp_w2.shape == (1, 1)


def test_invalid_dims_rejected():
    with pytest.raises(ValueError):
        init_masknet(0, 4, 4, np.random.default_rng(0))


def zero_params(d, d_prime=4, hidden=3):
    p = init_masknet(d, d_prime, hidden, np.random.default_rng(0))
    for _, arr in p.named():
        arr[...] = 0.0
    return p


def test_all_zero_weights_score_half_everywhere():
    p = zero_params(d=3)
    X = np.random.default_rng(1).normal(size=(4, 3))
    mask = mask_forward(p, X, edges_with_loops([(0, 1), (2, 3), (1, 0)], 4))
    np.testing.assert_allclose(mask.values[mask.scorable], 0.5)
    np.testing.assert_allclose(mask.values[~mask.scorable], 1.0)


def test_reversed_edge_generally_scores_differently():
    p = init_masknet(3, 4, 3, np.random.default_rng(2))
    X = np.random.default_rng(3).normal(size=(2, 3))
    mask = mask_forward(p, X, make_edges([(0, 1), (1, 0)], EdgeOrigin.ORIGINAL))
    assert mask.values[0] != mask.values[1]


def test_hand_built_toy_matches_sigmoid_of_sum():
    # Projection is the identity on 1-dim features; the MLP adds its two
    # inputs. Score for edge (0, 1) with x = (1, 2) is sigmoid(1 + 2).
    p = MaskNetParams(
        proj_w=np.array([[1.0]]), proj_b=np.zeros(1),
        mlp_w1=np.array([[1.0, 1.0]]), mlp_b1=np.zeros(1),
        mlp_w2=np.array([[1.0]]), mlp_b2=np.zeros(1),
    )
    X = np.array([[1.0], [2.0]])
    mask = mask_forward(p, X, make_edges([(0, 1)], EdgeOrigin.ORIGINAL))
    assert mask.values[0] == pytest.approx(1 / (1 + np.exp(-3.0)), abs=1e-12)
    assert mask.values[0] == pytest.approx(0.95257, abs=5e-6)


def test_scores_strictly_inside_unit_interval():
    p = init_masknet(4, 8, 4, np.random.default_rng(5))
    X = np.random.default_rng(6).normal(size=(10, 4)) * 50
    mask = mask_forward(p, X, edges_with_loops([(i, (i + 1) % 10) for i in range(10)], 10))
    scored = mask.values[mask.scorable]
    assert np.all(scored > 0.0) and np.all(scored < 1.0)


def test_forward_is_deterministic():
    p = init_masknet(3, 4, 3, np.random.default_rng(7))
    X = np.random.default_rng(8).normal(size=(5, 3))
    edges = edges_with_loops([(0, 1), (1, 2), (3, 4)], 5)
    a = mask_forward(p, X, edges)
    b = mask_forward(p, X, edges)
    np.testing.assert_array_equal(a.values, b.values)


def test_permuting_edges_permutes_scores_identically():
    p = init_masknet(3, 4, 3, np.random.default_rng(9))
    X = np.random.default_rng(10).normal(size=(6, 3))
    pairs = [(0, 1), (2, 3), (4, 5), (1, 4)]
    edges = make_edges(pairs, EdgeOrigin.ORIGINAL)
    perm = np.array([2, 0, 3, 1])
    base = mask_forward(p, X, edges)
    shuffled = mask_forward(p, X, edges[perm])
    np.testing.assert_allclose(shuffled.values, base.values[perm], rtol=1e-15)


def test_mean_scorable_ignores_self_loops():
    values = np.array([0.2, 0.4, 1.0, 1.0])
    mask = EdgeMask(values=values, scorable=np.array([True, True, False, False]))
    assert mask.mean_scorable() == pytest.approx(0.3)
    loops_only = EdgeMask(values=values, scorable=np.zeros(4, dtype=bool))
    assert loops_only.mean_scorable() == 0.0


def hub_instance():
    # Node 0 is the source of three edges and the destination of two, so the
    # scorer's VJP scatters several rows into the same node from both
    # endpoint halves. Self-loops form the tail.
    p = init_masknet(3, 4, 5, np.random.default_rng(11))
    X = np.random.default_rng(12).normal(size=(5, 3))
    edges = edges_with_loops([(0, 1), (0, 2), (3, 0), (0, 4), (2, 0), (1, 3)],
                             5)
    return p, X, edges


def test_scorer_jacobian_rows_match_central_differences():
    p, X, edges = hub_instance()
    mask_var, scorable, pv = mask_forward_var(p, X, edges)
    h = 1e-6
    for e in np.flatnonzero(scorable):
        seed = np.zeros(edges.shape[0])
        seed[e] = 1.0
        mask_var.backward(seed)
        for (name, arr), (_, v) in zip(p.named(), pv.named()):
            num = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = mask_forward(p, X, edges).values[e]
                arr[idx] = orig - h
                down = mask_forward(p, X, edges).values[e]
                arr[idx] = orig
                num[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(v.grad, num, rtol=1e-6,
                                       atol=1e-9, err_msg=f"{name} row {e}")
    assert mask_var.data.tobytes() == mask_forward(p, X, edges).values.tobytes()


def test_self_loop_seed_gives_zero_scorer_gradient():
    p, X, edges = hub_instance()
    mask_var, scorable, pv = mask_forward_var(p, X, edges)
    np.testing.assert_array_equal(mask_var.data[~scorable], 1.0)
    seed = np.zeros(edges.shape[0])
    seed[np.flatnonzero(~scorable)[2]] = 1.0
    mask_var.backward(seed)
    for name, v in pv.named():
        np.testing.assert_array_equal(v.grad, 0.0, err_msg=name)


def test_scores_in_edge_blocks_are_bit_identical(monkeypatch):
    # 64-row blocks over 300 scored edges (the last block takes 108), with
    # self-loops spread through the edge list. With blocks of 59 rows, two
    # scores differ in the last bit: BLAS treats rows by their offset. The
    # budget holds the (64, h) per-edge terms of one block.
    r = np.random.default_rng(12)
    n, d_prime, hidden = 30, 4, 32
    pairs = [(int(s), int(d)) for s, d in r.integers(0, n, size=(600, 2))
             if s != d][:300]
    pairs += [(i, i) for i in range(n)]
    edges = make_edges([pairs[i] for i in r.permutation(len(pairs))],
                       EdgeOrigin.ORIGINAL)
    p = init_masknet(5, d_prime, hidden, np.random.default_rng(4))
    X = r.normal(size=(n, 5))
    whole = mask_forward(p, X, edges)
    assert whole.scorable.sum() == 300
    assert np.flatnonzero(~whole.scorable)[0] < edges.shape[0] - n
    monkeypatch.setattr(tasknet, "_CHUNK_BYTES", 64 * 8 * hidden)
    blocked = mask_forward(p, X, edges)
    np.testing.assert_array_equal(blocked.values, whole.values)
    np.testing.assert_array_equal(blocked.scorable, whole.scorable)
    np.testing.assert_array_equal(whole.values[~whole.scorable], 1.0)


def concat_form(p, X, edges, seed):
    """The scorer with the endpoint rows of each edge concatenated, (E, 2d')
    @ mlp_w1.T, and its VJP for the adjoint `seed`: the reference the
    node-side split of mlp_w1 must match. Returns the full-length mask and
    the gradients by name."""
    src, dst = edges[:, 0], edges[:, 1]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pre0 = X @ p.proj_w.T + p.proj_b
    z = pre0 * (pre0 > 0)
    pair = np.concatenate([z[src], z[dst]], axis=1)
    pre1 = pair @ p.mlp_w1.T + p.mlp_b1
    h = pre1 * (pre1 > 0)
    s = 1.0 / (1.0 + np.exp(-(h @ p.mlp_w2.T + p.mlp_b2).reshape(-1)))
    values = np.ones(edges.shape[0])
    values[keep] = s
    g_logit = (seed[keep] * s * (1.0 - s))[:, None]
    g_pre1 = (g_logit @ p.mlp_w2) * (pre1 > 0)
    g_pair = g_pre1 @ p.mlp_w1
    g_z = np.zeros_like(z)
    np.add.at(g_z, src, g_pair[:, :z.shape[1]])
    np.add.at(g_z, dst, g_pair[:, z.shape[1]:])
    g_pre0 = g_z * (pre0 > 0)
    grads = {"proj_w": g_pre0.T @ X, "proj_b": g_pre0.sum(axis=0),
             "mlp_w1": g_pre1.T @ pair, "mlp_b1": g_pre1.sum(axis=0),
             "mlp_w2": g_logit.T @ h, "mlp_b2": g_logit.sum(axis=0)}
    return values, grads


def test_node_side_split_matches_the_endpoint_concat():
    # Node 0 is a hub, the endpoint of every edge but two; node 10 has only
    # its self-loop and node 11 no edge at all, so both get zero rows in the
    # scatter of the VJP. The self-loops sit at random places in the list.
    r = np.random.default_rng(21)
    n = 12
    pairs = [(0, i) for i in range(1, 10)] + [(i, 0) for i in range(2, 10)]
    pairs += [(3, 7), (8, 5)] + [(i, i) for i in range(11)]
    edges = make_edges([pairs[i] for i in r.permutation(len(pairs))],
                       EdgeOrigin.ORIGINAL)
    p = init_masknet(6, 5, 7, np.random.default_rng(22))
    X = r.normal(size=(n, 6))
    seed = r.normal(size=edges.shape[0])
    want, want_grads = concat_form(p, X, edges, seed)
    mask_var, scorable, pv = mask_forward_var(p, X, edges)
    mask_var.backward(seed)
    forward = mask_forward(p, X, edges)
    np.testing.assert_array_equal(scorable, edges[:, 0] != edges[:, 1])
    np.testing.assert_array_equal(forward.values, mask_var.data)
    # The two forms sum the same products in another order (u[src] + v[dst]
    # against one dot product over 2d'), and the sigmoid is written
    # differently: within 4 ulp of 1.0 for a score in (0, 1).
    np.testing.assert_allclose(forward.values, want, rtol=0,
                               atol=4 * np.finfo(float).eps)
    for name, v in pv.named():
        np.testing.assert_allclose(v.grad, want_grads[name], rtol=1e-12,
                                   atol=1e-15, err_msg=name)
    assert (pv.mlp_w1.grad != 0).any(axis=0).all()   # both halves reached


def test_taped_scorer_builds_no_per_edge_endpoint_concat():
    # 4,000 scored edges at d' = 64, h = 8: one (E, 2d') float64 array is
    # 4,096,000 bytes. The concat form kept the pairs on the tape and built
    # their adjoint in the VJP: it peaked at 11,696,089 bytes here. The
    # node-side split keeps (E, h) per-edge terms only and peaks at
    # 1,240,830 bytes (numpy 2.4.6); the cap is half of one (E, 2d') array.
    import tracemalloc

    r = np.random.default_rng(31)
    n, num_edges, d_prime, hidden = 200, 4000, 64, 8
    src = r.integers(0, n, size=num_edges)
    dst = (src + r.integers(1, n, size=num_edges)) % n
    edges = make_edges(list(zip(src.tolist(), dst.tolist())),
                       EdgeOrigin.ORIGINAL)
    p = init_masknet(8, d_prime, hidden, np.random.default_rng(32))
    X = r.normal(size=(n, 8))
    seed = r.normal(size=num_edges)
    concat_bytes = num_edges * 2 * d_prime * 8
    tracemalloc.start()
    try:
        mask_var, _, pv = mask_forward_var(p, X, edges)
        mask_var.backward(seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert concat_bytes == 4_096_000
    assert peak < concat_bytes // 2, peak
