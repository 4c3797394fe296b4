import numpy as np
import pytest

from maskdg import autodiff as ad


def product(x, y):
    """Elementwise x * y as one tape op with a hand-written VJP, the way the
    layer ops are built."""
    return ad.Var(x.data * y.data, parents=(x, y),
                  vjp=lambda g: ((x, g * y.data), (y, g * x.data)))


rng = np.random.default_rng(0)


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
    y = product(x, x)
    y.backward()
    first = x.grad.copy()
    np.testing.assert_array_equal(first, [2.0, 4.0, 6.0])   # both parents
    product(y, ad.constant(np.array([1.0, 1.0, 1.0]))).backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_with_seed_extracts_jacobian_rows():
    x = ad.param(np.array([0.5, -0.3]))
    y = product(x, x)
    y.backward(np.array([1.0, 0.0]))
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])
    y.backward(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(x.grad, [0.0, -0.6])


def test_dropout_eval_identity_and_train_scaling():
    assert (ad.dropout_keep(np.random.default_rng(0), (1000,), 0.0) == 1).all()
    keep = ad.dropout_keep(np.random.default_rng(0), (1000,), 0.5)
    assert set(np.unique(keep)) == {0.0, 2.0}
    assert abs(keep.mean() - 1.0) < 0.1


def test_requires_grad_propagates_and_constants_stop():
    x = ad.param(np.ones(3))
    c = ad.constant(np.ones(3))
    assert product(x, c).requires_grad
    assert not product(c, c).requires_grad
    with pytest.raises(ValueError):
        c.backward()
    y = product(x, c)
    y.backward()
    assert c.grad is None
