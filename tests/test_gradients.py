import numpy as np
import pytest

from maskdg import autodiff as ad
from maskdg.gradients import finite_diff_check, grad_masknet, grad_tasknet
from maskdg.masknet import mask_forward, mask_forward_var
from maskdg.tasknet import (cross_entropy, cross_entropy_var, tasknet_forward,
                            tasknet_forward_var)
from maskdg.theory import (eight_node_fixture, gradient_audit,
                           masknet_gradient_identity)


def test_tasknet_gradient_matches_finite_differences():
    audit = gradient_audit(8)
    assert audit.tasknet.passed, list(audit.tasknet.lines())


def test_masknet_gradient_matches_finite_differences():
    audit = gradient_audit(3)
    assert audit.masknet.passed, list(audit.masknet.lines())


def test_grad_tasknet_never_touches_mask_params():
    task, maskp, X, edges, labels, cfg = eight_node_fixture(1)
    mask = mask_forward(maskp, X, edges)
    before = {n: a.copy() for n, a in maskp.named()}
    bundle = grad_tasknet(task, X, edges, mask.values, labels, cfg)
    assert set(bundle.grads) == {n for n, _ in task.named()}
    for n, a in maskp.named():
        np.testing.assert_array_equal(a, before[n])


def test_grad_masknet_never_touches_task_params():
    task, maskp, X, edges, labels, cfg = eight_node_fixture(2)
    before = {n: a.copy() for n, a in task.named()}
    bundle = grad_masknet(task, maskp, X, edges, labels, 0.01, cfg)
    assert set(bundle.grads) == {n for n, _ in maskp.named()}
    for n, a in task.named():
        np.testing.assert_array_equal(a, before[n])


def test_mask_grad_zero_on_self_loops():
    task, maskp, X, edges, labels, cfg = eight_node_fixture(4)
    bundle = grad_masknet(task, maskp, X, edges, labels, 0.0, cfg)
    n_loops = int((edges[:, 0] == edges[:, 1]).sum())
    np.testing.assert_array_equal(bundle.mask_grad[-n_loops:], 0.0)
    assert np.any(bundle.mask_grad[:-n_loops] != 0.0)


def test_mean_gradient_is_uniform_over_scorable_edges():
    # The lam * mean(s) term adds the scorer's VJP of lam/m on every scored
    # edge and nothing on the self-loop tail.
    task, maskp, X, edges, labels, cfg = eight_node_fixture(3)
    lam = 2.0
    with_mean = grad_masknet(task, maskp, X, edges, labels, lam, cfg).grads
    without = grad_masknet(task, maskp, X, edges, labels, 0.0, cfg).grads
    mask_var, scorable, mpv = mask_forward_var(maskp, X, edges)
    mask_var.backward(np.where(scorable, lam / scorable.sum(), 0.0))
    for name, v in mpv.named():
        np.testing.assert_allclose(with_mean[name] - without[name], v.grad,
                                   rtol=1e-9, atol=1e-15)


def two_sweep_grad_masknet(task, maskp, X, edges, labels, lam, cfg):
    """The adversary's gradient as two backward sweeps over one tape: the
    classifier reads the scorer's output directly, the loss is swept for
    d(loss)/d(s), then -loss + lam * mean(s) is built on the tape and swept
    through both networks."""
    mask_var, scorable, mpv = mask_forward_var(maskp, X, edges)
    m = int(scorable.sum())
    logits = tasknet_forward_var(ad.param_vars(task, track=False), X, edges,
                                 mask_var, cfg)
    loss = cross_entropy_var(logits, labels)
    loss.backward()
    mask_grad = np.zeros(mask_var.data.shape)
    mask_grad[scorable] = mask_var.grad[scorable]

    def mean_vjp(g):
        gs = np.zeros(mask_var.data.shape)
        gs[:m] = g * (1.0 / m)
        return ((mask_var, gs),)

    mean = ad.Var(mask_var.data[:m].sum() * (1.0 / m), parents=(mask_var,),
                  vjp=mean_vjp)
    objective = ad.Var(-loss.data + mean.data * lam, parents=(loss, mean),
                       vjp=lambda g: ((loss, -g), (mean, g * lam)))
    objective.backward()
    return mpv.grads(), mask_grad, float(loss.data), float(objective.data)


@pytest.mark.parametrize("dropped", [0, 3])
@pytest.mark.parametrize("lam", [0.0, 0.01, 1e3])
def test_one_sweep_grad_masknet_equals_two_sweeps_bit_for_bit(lam, dropped):
    # Dropping 3 edges leaves 13 scored ones, where lam / m and lam * (1 / m)
    # differ in the last bit for lam = 0.01 and 1e3.
    task, maskp, X, edges, labels, cfg = eight_node_fixture(11)
    edges = edges[dropped:]
    bundle = grad_masknet(task, maskp, X, edges, labels, lam, cfg)
    grads, mask_grad, loss, objective = two_sweep_grad_masknet(
        task, maskp, X, edges, labels, lam, cfg)
    assert bundle.grads.keys() == grads.keys()
    for name in grads:
        np.testing.assert_array_equal(bundle.grads[name], grads[name])
    np.testing.assert_array_equal(bundle.mask_grad, mask_grad)
    assert (bundle.loss, bundle.objective) == (loss, objective)


def test_two_path_identity_direct_vs_jacobian_product():
    # Direct reverse accumulation of the adversarial objective must agree
    # with assembling it from d(loss)/d(s) and the explicit Jacobian of the
    # scorer, row by row.
    task, maskp, X, edges, labels, cfg = eight_node_fixture(5)
    assert masknet_gradient_identity(task, maskp, X, edges, labels, 0.02,
                                     cfg) <= 1e-10


def test_descent_direction_reduces_loss():
    task, maskp, X, edges, labels, cfg = eight_node_fixture(6)
    mask = mask_forward(maskp, X, edges)
    bundle = grad_tasknet(task, X, edges, mask.values, labels, cfg)
    before = bundle.loss
    step = 1e-3
    for name, arr in task.named():
        arr -= step * bundle.grads[name]
    after = cross_entropy(tasknet_forward(task, X, edges, mask.values, cfg),
                          labels)
    assert after < before


def test_large_lambda_pushes_all_scores_down():
    task, maskp, X, edges, labels, cfg = eight_node_fixture(7)
    before = mask_forward(maskp, X, edges).mean_scorable()
    bundle = grad_masknet(task, maskp, X, edges, labels, 1e3, cfg)
    step = 1e-3
    for name, arr in maskp.named():
        arr -= step * bundle.grads[name]
    after = mask_forward(maskp, X, edges).mean_scorable()
    assert after < before


def test_finite_diff_check_on_quadratic_is_tiny():
    x = np.random.default_rng(8).normal(size=(4,))
    A = np.diag([1.0, 2.0, 3.0, 4.0])

    def loss_fn():
        return float(0.5 * x @ A @ x)

    report = finite_diff_check(loss_fn, [("x", x)], {"x": A @ x},
                               h=1e-4, tol=1e-8)
    assert report.max_rel_error <= 1e-8


def test_finite_diff_check_flags_corrupted_gradient():
    x = np.random.default_rng(9).normal(size=(4,))

    def loss_fn():
        return float(np.sum(x ** 2))

    wrong = {"x": 2 * x + 0.5}
    report = finite_diff_check(loss_fn, [("x", x)], wrong, h=1e-4, tol=1e-4)
    assert not report.passed


def test_finite_diff_check_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_check(lambda: 0.0, [], {}, h=0.0)


def test_gradients_flow_into_w_out_when_rest_is_flat():
    # With a zero output head, logits vanish for every class, the softmax is
    # uniform, and the only nonzero gradient is the one into the head itself.
    task, maskp, X, edges, labels, cfg = eight_node_fixture(10)
    task.out_w[...] = 0.0
    mask = mask_forward(maskp, X, edges)
    bundle = grad_tasknet(task, X, edges, mask.values, labels, cfg)
    assert bundle.loss == pytest.approx(np.log(3), abs=1e-12)
    for name, _ in task.named():
        if name == "out_w":
            assert np.any(bundle.grads[name] != 0.0)
        else:
            np.testing.assert_allclose(bundle.grads[name], 0.0, atol=1e-15)


def test_grad_masknet_takes_self_loops_anywhere():
    # The same edges with the self-loops moved off the tail: the scorer
    # gradients agree and d(loss)/d(s) follows the permutation.
    task, maskp, X, edges, labels, cfg = eight_node_fixture(12)
    perm = np.random.default_rng(0).permutation(edges.shape[0])
    assert (edges[perm, 0] == edges[perm, 1])[:-8].any()
    base = grad_masknet(task, maskp, X, edges, labels, 0.05, cfg)
    moved = grad_masknet(task, maskp, X, edges[perm], labels, 0.05, cfg)
    np.testing.assert_allclose(moved.mask_grad, base.mask_grad[perm],
                               rtol=1e-12, atol=1e-15)
    for name in base.grads:
        np.testing.assert_allclose(moved.grads[name], base.grads[name],
                                   rtol=1e-10, atol=1e-15)
    assert moved.objective == pytest.approx(base.objective, rel=1e-12)
