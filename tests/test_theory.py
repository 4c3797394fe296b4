import re
import tracemalloc

import numpy as np
import pytest

from maskdg import tasknet, theory
from maskdg.graph import EdgeOrigin, make_edges
from maskdg.masknet import init_masknet
from maskdg.tasknet import TaskNetConfig, init_tasknet, loss_over_masks
from maskdg.theory import (
    SurrogateProblem,
    dual_upper_bound,
    iter_mask_grid,
    kkt_check,
    masknet_gradient_identity,
    surrogate_kkt_instance,
    surrogate_optimal_mask,
    tasknet_mask_loss_fn,
)


# -- surrogate closed form ---------------------------------------------------

def test_indicator_mask_simple_case():
    prob = SurrogateProblem(c=np.array([0.5, 0.1, -0.2]), tau=0.3)
    s_star, value = surrogate_optimal_mask(prob)
    np.testing.assert_array_equal(s_star, [1.0, 0.0, 0.0])
    assert value == pytest.approx(0.2)


def test_tie_resolves_to_zero():
    prob = SurrogateProblem(c=np.array([0.3, 0.7]), tau=0.3)
    s_star, _ = surrogate_optimal_mask(prob)
    assert s_star[0] == 0.0 and s_star[1] == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_indicator_matches_grid_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    prob = SurrogateProblem(c=rng.normal(scale=0.5, size=m),
                            base_loss=float(rng.normal()),
                            tau=float(rng.uniform(0, 0.4)))
    _, value = surrogate_optimal_mask(prob)
    best = max(float(prob.penalized_objective(batch).max())
               for batch in iter_mask_grid(m, 0.05))
    assert value >= best - 1e-12
    assert value == pytest.approx(best, abs=1e-12)


# -- weak duality --------------------------------------------------------------
# The affine instances below keep the default tau = 0, at which
# `penalized_objective` is the loss base_loss + s @ c itself.

def test_affine_dual_bound_example():
    prob = SurrogateProblem(c=np.array([0.5, 0.1]), rho=0.5)
    report = dual_upper_bound(prob.penalized_objective, m=2, rho=0.5,
                              lambda_grid=[0.0, 0.5, 1.0, 5.0])
    assert report.primal == pytest.approx(0.5)
    np.testing.assert_array_equal(report.primal_point, [1.0, 0.0])
    assert report.all_hold
    # lam = 0 relaxes to the unconstrained grid max
    assert report.dual_values[0.0] == pytest.approx(0.6)
    assert report.dual_values[0.0] >= report.primal


def test_dual_bound_holds_on_random_affine_instances():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        prob = SurrogateProblem(c=rng.normal(size=m), rho=float(rng.uniform(0.2, 1.0)))
        report = dual_upper_bound(prob.penalized_objective, m=m, rho=prob.rho,
                                  lambda_grid=[0.0, 0.5, 1.0, 5.0],
                                  resolution=0.1)
        assert report.all_hold


def test_dual_bound_on_real_tasknet_instance():
    rng = np.random.default_rng(3)
    n = 3
    pairs = [(0, 1), (1, 0), (1, 2), (2, 0)]
    edges = np.vstack([
        make_edges(pairs, EdgeOrigin.ORIGINAL),
        make_edges([(i, i) for i in range(n)], EdgeOrigin.SELF_LOOP),
    ])
    X = rng.normal(size=(n, 3))
    labels = np.array([0, 1, 0])
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    task = init_tasknet(3, 2, cfg, rng)
    fn = tasknet_mask_loss_fn(task, X, edges, labels, cfg)
    report = dual_upper_bound(fn, m=len(pairs), rho=0.5,
                              lambda_grid=[0.0, 0.5, 1.0, 5.0],
                              resolution=0.1)
    assert report.all_hold
    assert np.isfinite(report.primal)


def criterion4_instance(seed=7):
    """One of criterion 4's three-node classifiers: 4 scorable edges and 3
    self-loops."""
    rng = np.random.default_rng(seed)
    edges = np.vstack([
        make_edges([(0, 1), (1, 2), (2, 0), (1, 0)], EdgeOrigin.ORIGINAL),
        make_edges([(j, j) for j in range(3)], EdgeOrigin.SELF_LOOP),
    ])
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    X = rng.normal(size=(3, 3))
    labels = np.array([0, 1, 0])
    return init_tasknet(3, 2, cfg, rng), X, edges, labels, cfg


def test_dual_bound_memory_stays_within_a_mask_block():
    # The criterion-4 grid is 21^4 masks; streamed, the oracle holds one grid
    # chunk, one (block, E) mask buffer and a block's grouping bookkeeping,
    # where expanding a whole chunk to (B, E) peaked near 20 MiB.
    tracemalloc.start()
    try:
        fn = tasknet_mask_loss_fn(*criterion4_instance())
        report = dual_upper_bound(fn, m=4, rho=0.5,
                                  lambda_grid=[0.0, 0.5, 1.0, 5.0],
                                  resolution=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_hold
    assert peak < 6 * 2 ** 20


def test_mask_loss_fn_matches_loss_over_masks_across_blocks(monkeypatch):
    # 110 rows in blocks of 40 (the last one short): the fn's losses are the
    # bits of one loss_over_masks call on the expanded (B, E) batch, and the
    # buffer it reuses carries nothing from one call to the next.
    task, X, edges, labels, cfg = criterion4_instance()
    monkeypatch.setattr(tasknet, "_CHUNK_BYTES", 40 * 8 * edges.shape[0])
    rng = np.random.default_rng(0)
    batch = rng.choice([0.0, 0.5, 1.0], size=(110, 4))
    other = rng.uniform(size=(97, 4))
    full = np.ones((batch.shape[0], edges.shape[0]))
    full[:, :4] = batch
    want = loss_over_masks(task, X, edges, labels, full, cfg)
    fn = tasknet_mask_loss_fn(task, X, edges, labels, cfg)
    first = fn(batch)
    fn(other)
    again = fn(batch)
    for got in (first, again):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_cap_enforced():
    with pytest.raises(ValueError, match="grid too large"):
        list(iter_mask_grid(7))


def test_grid_enumerates_exactly():
    pts = np.vstack(list(iter_mask_grid(2, resolution=0.5)))
    assert pts.shape == (9, 2)
    expected = {(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)}
    assert set(map(tuple, pts)) == expected


def division_mask_rows(m, resolution, start, stop):
    """Grid rows start..stop-1 built point by point from each index's base-L
    digits, by an int64 `%` and `//` per column: the reference order."""
    levels = np.round(np.arange(0.0, 1.0 + resolution / 2, resolution), 12)
    rem = np.arange(start, stop, dtype=np.int64)
    pts = np.empty((rem.size, m))
    for col in range(m - 1, -1, -1):
        pts[:, col] = levels[rem % levels.size]
        rem = rem // levels.size
    return pts


@pytest.mark.parametrize("cap", [1, 7, 1000, 200_000])
@pytest.mark.parametrize("resolution", [0.05, 0.25, 0.3, 1.0])
@pytest.mark.parametrize("m", range(1, 6))
def test_grid_matches_base_l_digits_chunk_by_chunk(m, resolution, cap,
                                                   monkeypatch):
    # Each chunk against the reference rows at the same offsets. Caps of 1,
    # 7 and 1000 points split the columns into leading settings and a
    # trailing product at every place; a chunk holds at least one column, so
    # only a cap below L is exceeded. Past 2,000 chunks (21^3 points and
    # more at a cap of 1 or 7) only the first 2,000 are compared.
    monkeypatch.setattr(theory, "GRID_CHUNK", cap)
    L = np.arange(0.0, 1.0 + resolution / 2, resolution).size
    offset = 0
    for i, got in enumerate(iter_mask_grid(m, resolution)):
        if i == 2000:
            break
        assert 0 < got.shape[0] <= max(cap, L) and got.flags.c_contiguous
        want = division_mask_rows(m, resolution, offset, offset + len(got))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        offset += len(got)
    else:
        assert offset == L ** m


@pytest.mark.parametrize("resolution", [0.0, -0.1, 1.5, np.nan, np.inf])
def test_grid_resolution_outside_unit_interval_rejected(resolution):
    with pytest.raises(ValueError, match="resolution"):
        next(iter_mask_grid(2, resolution))


@pytest.mark.parametrize("resolution", [0.0, -0.1, np.nan])
def test_dual_bound_rejects_an_empty_grid(resolution):
    prob = SurrogateProblem(c=np.array([0.5, 0.1]))
    with pytest.raises(ValueError, match="resolution"):
        dual_upper_bound(prob.penalized_objective, 2, 0.5, [0.0, 1.0],
                         resolution=resolution)


@pytest.mark.parametrize("rho", [-0.1, -1.0, np.nan])
def test_dual_bound_rejects_a_budget_no_grid_mask_meets(rho):
    # Below the all-zero mask's mean of 0 the primal has no feasible point:
    # the bound would compare D(lam) with P = -inf and always "hold".
    prob = SurrogateProblem(c=np.array([0.5, 0.1]))
    with pytest.raises(ValueError, match="budget"):
        dual_upper_bound(prob.penalized_objective, 2, rho, [0.0, 1.0])


@pytest.mark.parametrize("loss_fn, message", [
    (lambda b: np.full(len(b), np.nan), "loss nan at mask [0.0, 0.0]"),
    (lambda b: np.where(b[:, 0] > 0.5, np.nan, b.sum(axis=1)),
     "loss nan at mask [0.55, 0.0]"),
    (lambda b: np.where(b[:, 1] == 1.0, np.inf, 0.0),
     "loss inf at mask [0.0, 1.0]"),
], ids=["nan-everywhere", "nan-past-half", "inf"])
def test_dual_bound_rejects_a_non_finite_loss(loss_fn, message):
    # A NaN never beats -inf in the running maxima, so NaN losses would leave
    # the primal and every dual at -inf and the bound always "holding".
    with pytest.raises(ValueError, match=re.escape(message)):
        dual_upper_bound(loss_fn, 2, 0.5, [0.0, 1.0])


def test_negative_multiplier_rejected():
    prob = SurrogateProblem(c=np.array([0.1]))
    with pytest.raises(ValueError):
        dual_upper_bound(prob.penalized_objective, 1, 0.5, [-1.0])


def test_dual_bound_rejects_an_empty_multiplier_grid():
    # With no multiplier there is nothing to check, so no bound may "hold".
    prob = SurrogateProblem(c=np.array([0.5, 0.1]))
    with pytest.raises(ValueError, match="lambda grid is empty"):
        dual_upper_bound(prob.penalized_objective, 2, 0.5, [])


@pytest.mark.parametrize("m", [0, -1])
def test_grid_rejects_fewer_than_one_edge(m):
    with pytest.raises(ValueError, match="m >= 1"):
        next(iter_mask_grid(m))


def test_dual_bound_rejects_a_mask_of_no_edges():
    # A grid over no edges is one empty row whose mean is NaN: no point is
    # feasible, and the bound would "hold" with primal -inf.
    with pytest.raises(ValueError, match="m >= 1"):
        dual_upper_bound(lambda b: np.zeros(len(b)), 0, 0.5, [0.0, 1.0])
    task, X, edges, labels, cfg = criterion4_instance()
    loops = edges[edges[:, 0] == edges[:, 1]]
    fn = tasknet_mask_loss_fn(task, X, loops, labels, cfg)
    with pytest.raises(ValueError, match="m >= 1"):
        dual_upper_bound(fn, 0, 0.5, [0.0, 1.0])


# -- strong duality on the surrogate --------------------------------------------

def surrogate_dual_value(prob: SurrogateProblem, lam: float) -> float:
    """Analytic dual of the budgeted surrogate:
    base + lam * rho + sum_e max(c_e - lam/m, 0), for lam >= 0."""
    return prob.base_loss + lam * prob.rho + float(
        np.maximum(prob.c - lam / prob.m, 0.0).sum())


@pytest.mark.parametrize("seed", range(5))
def test_surrogate_strong_duality_at_breakpoints(seed):
    # D(lam) is piecewise linear in lam with breakpoints at m * c_e, so a
    # lambda grid containing the breakpoints hits the exact dual optimum.
    rng = np.random.default_rng(seed + 10)
    m = int(rng.integers(2, 5))
    c = np.abs(rng.normal(scale=0.5, size=m)) + 0.05
    budget_edges = int(rng.integers(1, m + 1))
    prob = SurrogateProblem(c=c, rho=budget_edges / m)
    report = dual_upper_bound(prob.penalized_objective, m=m, rho=prob.rho,
                              lambda_grid=[0.0], resolution=0.05)
    lam_grid = [0.0] + [m * ce for ce in c]
    duals = [surrogate_dual_value(prob, lam) for lam in lam_grid]
    assert min(duals) >= report.primal - 1e-9
    assert min(duals) == pytest.approx(report.primal, abs=1e-9)


# -- KKT certificates -------------------------------------------------------------

def test_analytic_surrogate_certificate_passes():
    prob = SurrogateProblem(c=np.array([0.9, 0.4, -0.3, 0.05]), tau=0.2)
    s_star, lam_star, rho = surrogate_kkt_instance(prob)
    cert = kkt_check(prob.c, s_star, lam_star, rho, tol=1e-9)
    assert cert.passed
    assert cert.cases == ["one", "one", "zero", "zero"]
    assert np.all(cert.mu >= 0) and np.all(cert.nu >= 0)


def test_interior_edges_with_unequal_gradients_fail():
    s_star = np.array([0.5, 0.5])
    grad = np.array([0.3, 0.1])
    cert = kkt_check(grad, s_star, lam_star=0.4, rho=0.5, tol=1e-9)
    assert not cert.stationarity_ok
    assert not cert.passed
    assert any(r > 0 for r in cert.stationarity_residuals)


def test_budget_slack_with_positive_multiplier_is_flagged():
    s_star = np.array([0.0, 0.0, 1.0])
    grad = np.array([-1.0, -1.0, 1.0])
    cert = kkt_check(grad, s_star, lam_star=0.9, rho=0.9, tol=1e-9)
    assert abs(cert.complementary_slackness) > 1e-9
    assert not cert.passed


def test_interior_case_requires_exact_threshold():
    m = 3
    lam = 0.6
    grad = np.full(m, lam / m)
    s_star = np.array([0.5, 0.5, 0.5])
    cert = kkt_check(grad, s_star, lam_star=lam, rho=0.5, tol=1e-9)
    assert cert.stationarity_ok
    assert cert.passed


def test_certificate_lines_render():
    prob = SurrogateProblem(c=np.array([0.9, -0.1]), tau=0.2)
    s_star, lam_star, rho = surrogate_kkt_instance(prob)
    cert = kkt_check(prob.c, s_star, lam_star, rho)
    text = list(cert.lines())
    assert len(text) == 3
    assert "lambda*" in text[0]


def test_degenerate_all_masked_instance_rejected():
    prob = SurrogateProblem(c=np.array([-1.0, -2.0]), tau=0.5)
    with pytest.raises(ValueError, match="degenerate"):
        surrogate_kkt_instance(prob)


# -- two-path gradient identity -----------------------------------------------------

def tiny_instance(seed, lam=0.01):
    rng = np.random.default_rng(seed)
    n = 4
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)]
    edges = np.vstack([
        make_edges(pairs, EdgeOrigin.ORIGINAL),
        make_edges([(i, i) for i in range(n)], EdgeOrigin.SELF_LOOP),
    ])
    X = rng.normal(size=(n, 3))
    labels = rng.integers(0, 2, size=n)
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    task = init_tasknet(3, 2, cfg, rng)
    maskp = init_masknet(3, 4, 3, rng)
    return task, maskp, X, edges, labels, cfg


@pytest.mark.parametrize("seed", range(4))
def test_gradient_identity_small(seed):
    task, maskp, X, edges, labels, cfg = tiny_instance(seed)
    dev = masknet_gradient_identity(task, maskp, X, edges, labels, 0.01, cfg)
    assert dev <= 1e-10


def test_gradient_identity_lambda_zero_reduces_to_loss_term():
    task, maskp, X, edges, labels, cfg = tiny_instance(99)
    dev = masknet_gradient_identity(task, maskp, X, edges, labels, 0.0, cfg)
    assert dev <= 1e-10


def test_single_edge_score_jacobian_sign():
    # Through the final sigmoid, d(score)/d(pre-activation) is positive, so
    # bumping the last-layer bias must raise the score: the corresponding
    # Jacobian entry is strictly positive on a one-edge instance.
    from maskdg.masknet import mask_forward_var

    rng = np.random.default_rng(5)
    maskp = init_masknet(2, 3, 2, rng)
    X = rng.normal(size=(2, 2))
    edges = make_edges([(0, 1)], EdgeOrigin.ORIGINAL)
    mask_var, scorable, mpv = mask_forward_var(maskp, X, edges)
    mask_var.backward(np.array([1.0]))
    assert mpv.mlp_b2.grad[0] > 0.0
    s = mask_var.data[0]
    assert mpv.mlp_b2.grad[0] == pytest.approx(s * (1 - s), rel=1e-12)
