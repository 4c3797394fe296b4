import numpy as np
import pytest

from maskdg import autodiff as ad


def numeric_grad(f, x, h=1e-6):
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def check_op(build, x, rtol=1e-6, atol=1e-8):
    """Compare tape gradient of sum(build(Var(x))) against central differences."""
    v = ad.param(x.copy())
    out = ad.vsum(build(v))
    out.backward()
    num = numeric_grad(lambda arr: ad.vsum(build(ad.constant(arr))).data, x)
    np.testing.assert_allclose(v.grad, num, rtol=rtol, atol=atol)


rng = np.random.default_rng(0)
C43 = rng.normal(size=(4, 3))
C42 = rng.normal(size=(4, 2))


@pytest.mark.parametrize("build", [
    lambda v: v + ad.constant(C43),
    lambda v: v * ad.constant(C43),
    lambda v: v * v,
    lambda v: -v,
    lambda v: v - ad.constant(C43),
    lambda v: v / ad.constant(C43 + 3.0),
    lambda v: ad.constant(C43 + 3.0) / (v + 5.0),
    lambda v: ad.relu(v),
    lambda v: ad.sigmoid(v),
    lambda v: ad.exp(v),
    lambda v: ad.log(v + 5.0),
    lambda v: ad.vsum(v, axis=1, keepdims=True) * v,
    lambda v: ad.vmean(v) * ad.vsum(v),
    lambda v: ad.reshape(v, (3, 4)) @ ad.constant(C42),
])
def test_elementwise_ops_match_finite_differences(build):
    x = rng.normal(size=(4, 3)) + 0.3
    check_op(build, x)


def test_matmul_grad_both_sides():
    a = ad.param(rng.normal(size=(3, 4)))
    b = ad.param(rng.normal(size=(4, 2)))
    C = rng.normal(size=(3, 2))
    out = ad.vsum((a @ b) * ad.constant(C))
    out.backward()
    num_a = numeric_grad(lambda arr: float(np.sum((arr @ b.data) * C)), a.data)
    num_b = numeric_grad(lambda arr: float(np.sum((a.data @ arr) * C)), b.data)
    np.testing.assert_allclose(a.grad, num_a, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, num_b, rtol=1e-6, atol=1e-8)


def test_matvec_grad():
    a = ad.param(rng.normal(size=(5, 3)))
    x = ad.param(rng.normal(size=(3,)))
    w = rng.normal(size=(5,))
    out = ad.vsum((a @ x) * ad.constant(w))
    out.backward()
    np.testing.assert_allclose(a.grad, np.outer(w, x.data), rtol=1e-12)
    np.testing.assert_allclose(x.grad, a.data.T @ w, rtol=1e-12)


def test_gather_scatter_roundtrip_grad():
    x = ad.param(rng.normal(size=(4, 3)))
    idx = np.array([0, 2, 2, 1, 3, 0])
    w = rng.normal(size=(6, 3))
    out = ad.vsum(ad.gather_rows(x, idx) * ad.constant(w))
    out.backward()
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, w)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_concat_and_slice_grads():
    a = ad.param(rng.normal(size=(3, 2)))
    b = ad.param(rng.normal(size=(3, 4)))
    cat = ad.concat([a, b], axis=1)
    w = rng.normal(size=(3, 6))
    ad.vsum(cat * ad.constant(w)).backward()
    np.testing.assert_allclose(a.grad, w[:, :2])
    np.testing.assert_allclose(b.grad, w[:, 2:])

    v = ad.param(rng.normal(size=(7,)))
    ad.vsum(ad.slice1d(v, 2, 5) * ad.constant(np.array([1.0, 2.0, 3.0]))).backward()
    expected = np.zeros(7)
    expected[2:5] = [1.0, 2.0, 3.0]
    np.testing.assert_allclose(v.grad, expected)


def test_take_per_row_grad():
    x = ad.param(rng.normal(size=(4, 3)))
    cols = np.array([2, 0, 1, 1])
    w = rng.normal(size=(4,))
    ad.vsum(ad.take_per_row(x, cols) * ad.constant(w)).backward()
    expected = np.zeros((4, 3))
    expected[np.arange(4), cols] = w
    np.testing.assert_allclose(x.grad, expected)


def test_logsumexp_matches_reference_and_grad():
    x = rng.normal(size=(5, 4)) * 10
    v = ad.param(x.copy())
    out = ad.vsum(ad.logsumexp_rows(v))
    ref = np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1)) \
        + x.max(axis=1)
    np.testing.assert_allclose(out.data, ref.sum(), rtol=1e-12)
    out.backward()
    softmax = np.exp(x - x.max(axis=1, keepdims=True))
    softmax /= softmax.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(v.grad, softmax, rtol=1e-10)


def test_backward_twice_from_different_outputs_is_independent():
    x = ad.param(np.array([1.0, 2.0, 3.0]))
    y = x * x
    z = ad.vsum(y)
    z.backward()
    first = x.grad.copy()
    z2 = ad.vsum(y * ad.constant(np.array([1.0, 1.0, 1.0])))
    z2.backward()
    np.testing.assert_allclose(x.grad, first)


def test_backward_with_seed_extracts_jacobian_rows():
    x = ad.param(np.array([0.5, -0.3]))
    y = ad.sigmoid(x)
    seed = np.array([1.0, 0.0])
    y.backward(seed)
    s = 1 / (1 + np.exp(-0.5))
    np.testing.assert_allclose(x.grad, [s * (1 - s), 0.0], rtol=1e-12)


def test_dropout_eval_identity_and_train_scaling():
    x = ad.param(np.ones((1000,)))
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x
    out = ad.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 2.0)
    assert abs(out.data.mean() - 1.0) < 0.1


def test_requires_grad_propagates_and_constants_stop():
    x = ad.param(np.ones(3))
    c = ad.constant(np.ones(3))
    assert (x + c).requires_grad
    assert not (c * 2.0).requires_grad
    with pytest.raises(ValueError):
        ad.vsum(c).backward()
