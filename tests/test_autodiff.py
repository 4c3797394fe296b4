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
    """Compare tape gradient of sum(build(Var(x))) against central differences;
    backward's default all-ones seed is the adjoint of that sum."""
    v = ad.param(x.copy())
    build(v).backward()
    num = numeric_grad(lambda arr: build(ad.constant(arr)).data.sum(), x)
    np.testing.assert_allclose(v.grad, num, rtol=rtol, atol=atol)


rng = np.random.default_rng(0)
C43 = rng.normal(size=(4, 3))
C42 = rng.normal(size=(4, 2))


# The generic arithmetic that glues the layer ops together: same-shape
# products, transpose, matmul and dropout.
@pytest.mark.parametrize("build", [
    lambda v: (v * ad.constant(C43)) * v,
    lambda v: v * ad.constant(C43),
    lambda v: v * v,
    lambda v: ad.constant(C43) * v,
    lambda v: (v @ ad.constant(C43.T @ C43)) * ad.constant(C43),
    lambda v: ad.transpose(ad.transpose(v) * ad.constant(C43.T)),
    lambda v: ad.dropout(v * v, 0.3, np.random.default_rng(2)),
    lambda v: ad.transpose(v) @ ad.constant(C42),
    lambda v: ad.constant(C42.T) @ v,
    lambda v: (ad.constant(np.ones((4, 4))) @ v) * v,
    lambda v: ad.dropout(v, 0.5, np.random.default_rng(1)),
])
def test_elementwise_ops_match_finite_differences(build):
    x = rng.normal(size=(4, 3)) + 0.3
    check_op(build, x)


def test_matmul_grad_both_sides():
    a = ad.param(rng.normal(size=(3, 4)))
    b = ad.param(rng.normal(size=(4, 2)))
    C = rng.normal(size=(3, 2))
    ((a @ b) * ad.constant(C)).backward()
    num_a = numeric_grad(lambda arr: float(np.sum((arr @ b.data) * C)), a.data)
    num_b = numeric_grad(lambda arr: float(np.sum((a.data @ arr) * C)), b.data)
    np.testing.assert_allclose(a.grad, num_a, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, num_b, rtol=1e-6, atol=1e-8)


def test_gather_scatter_roundtrip_grad():
    # The adjoint of the row gather x[idx] is the scatter-add sum_rows.
    idx = np.array([0, 2, 2, 1, 3, 0])
    w = rng.normal(size=(6, 3))
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, w)
    np.testing.assert_allclose(ad.sum_rows(w, idx, 4), expected, rtol=1e-12)
    np.testing.assert_array_equal(ad.sum_rows(w, idx, 6)[4:], 0.0)


def test_backward_twice_from_different_outputs_is_independent():
    x = ad.param(np.array([1.0, 2.0, 3.0]))
    y = x * x
    y.backward()
    first = x.grad.copy()
    (y * ad.constant(np.array([1.0, 1.0, 1.0]))).backward()
    np.testing.assert_allclose(x.grad, first)


def test_backward_with_seed_extracts_jacobian_rows():
    x = ad.param(np.array([0.5, -0.3]))
    y = x * x
    y.backward(np.array([1.0, 0.0]))
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])
    y.backward(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(x.grad, [0.0, -0.6])


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
    assert (x * c).requires_grad
    assert not (c * c).requires_grad
    with pytest.raises(ValueError):
        c.backward()
