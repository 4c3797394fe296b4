"""The instances behind acceptance criteria 1-5, defined once.

`maskdg gradcheck`, `maskdg oracle` and criteria 1-5 of the acceptance
suite call these functions with their defaults. Each returns the instance
parameters it used, what it measured, and `passed` (the gate's tolerance
holds). `seed` is an offset added to the pinned seed; 0 runs the gate.
"""

from types import SimpleNamespace

import numpy as np

from .gradients import finite_diff_check, grad_masknet, grad_tasknet
from .graph import EdgeOrigin, coalesce, make_edges
from .masknet import init_masknet, mask_forward
from .tasknet import TaskNetConfig, cross_entropy, init_tasknet, tasknet_forward
from .theory import (SurrogateProblem, dual_upper_bound, iter_mask_grid,
                     kkt_check, masknet_gradient_identity,
                     surrogate_kkt_instance, surrogate_optimal_mask,
                     tasknet_mask_loss_fn)

LAM = 0.01      # the scorer's sparsity coefficient in criteria 1 and 2


def eight_node_fixture(seed: int = 0):
    """8 nodes, 16 scorable enriched edges (8 original + 4 kNN + 4 spectral)
    plus self-loops, a 2-layer classifier and a scorer."""
    rng = np.random.default_rng(seed)
    edges = np.vstack([
        coalesce(np.vstack([
            make_edges([(i, (i + 1) % 8) for i in range(8)],
                       EdgeOrigin.ORIGINAL),
            make_edges([(0, 2), (3, 5), (6, 1), (7, 4)], EdgeOrigin.KNN),
            make_edges([(2, 6), (6, 2), (1, 5), (5, 1)], EdgeOrigin.SPECTRAL),
        ])),
        make_edges([(i, i) for i in range(8)], EdgeOrigin.SELF_LOOP),
    ])
    X = rng.normal(size=(8, 5))
    labels = rng.integers(0, 3, size=8)
    cfg = TaskNetConfig(layers=2, heads=2, head_dim=4,
                        attn_dropout=0.0, layer_dropout=0.0)
    task = init_tasknet(5, 3, cfg, rng)
    maskp = init_masknet(5, 6, 4, rng)
    return task, maskp, X, edges, labels, cfg


def gradient_audit(seed: int = 0) -> SimpleNamespace:
    """Criterion 1: both gradients against central differences; `signal`
    holds each side's largest entry, so a vacuous audit fails."""
    task, maskp, X, edges, labels, cfg = eight_node_fixture(seed)
    s = mask_forward(maskp, X, edges).values
    t_grads = grad_tasknet(task, X, edges, s, labels, cfg).grads
    m_grads = grad_masknet(task, maskp, X, edges, labels, LAM, cfg).grads

    def task_loss():
        return cross_entropy(tasknet_forward(task, X, edges, s, cfg), labels)

    def mask_objective():
        mk = mask_forward(maskp, X, edges)
        ce = cross_entropy(
            tasknet_forward(task, X, edges, mk.values, cfg), labels)
        return -ce + LAM * mk.mean_scorable()

    h = 1e-4
    t_rep = finite_diff_check(task_loss, task.named(), t_grads, h=h, tol=1e-4)
    m_rep = finite_diff_check(mask_objective, maskp.named(), m_grads,
                              h=h, tol=1e-4)
    signal = [max(float(np.abs(g).max()) for g in grads.values())
              for grads in (t_grads, m_grads)]
    return SimpleNamespace(
        seed=seed, h=h, tasknet=t_rep, masknet=m_rep, signal=signal,
        passed=(t_rep.passed and m_rep.passed
                and signal[0] > 1e-6 and signal[1] > 1e-8))


def two_path_deviations(seed: int = 0) -> SimpleNamespace:
    """Criterion 2: direct vs explicitly assembled scorer gradient."""
    seeds = list(range(seed, seed + 10))
    devs = []
    for s in seeds:
        *instance, cfg = eight_node_fixture(s)
        devs.append(masknet_gradient_identity(*instance, LAM, cfg))
    return SimpleNamespace(seeds=seeds, deviations=devs,
                           passed=max(devs) <= 1e-10)


def surrogate_gaps(seed: int = 0) -> SimpleNamespace:
    """Criterion 3: the indicator mask's value against the grid maximum of
    the penalized affine objective, on 100 random instances."""
    seed, resolution = 123 + seed, 0.05
    rng = np.random.default_rng(seed)
    values, best = np.zeros(100), np.zeros(100)
    for i in range(100):
        m = int(rng.integers(1, 6))
        prob = SurrogateProblem(c=rng.normal(scale=0.5, size=m),
                                base_loss=float(rng.normal()),
                                tau=float(rng.uniform(0.0, 0.4)))
        values[i] = surrogate_optimal_mask(prob)[1]
        best[i] = max(float(prob.penalized_objective(batch).max())
                      for batch in iter_mask_grid(m, resolution))
    return SimpleNamespace(
        seed=seed, resolution=resolution, values=values, grid_maxima=best,
        passed=bool(np.all(values >= best - 1e-12)
                    and np.all(np.abs(values - best) <= 1e-9)))


def weak_duality(seed: int = 0) -> SimpleNamespace:
    """Criterion 4: grid-estimated worst-case loss against the penalized
    bound for four multipliers, on 20 three-node classifiers."""
    seed += 7
    rng = np.random.default_rng(seed)
    edges = np.vstack([
        make_edges([(0, 1), (1, 2), (2, 0), (1, 0)], EdgeOrigin.ORIGINAL),
        make_edges([(j, j) for j in range(3)], EdgeOrigin.SELF_LOOP),
    ])
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    reports = []
    for _ in range(20):
        X = rng.normal(size=(3, 3))
        labels = rng.integers(0, 2, size=3)
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        task = init_tasknet(3, 2, cfg, rng)
        fn = tasknet_mask_loss_fn(task, X, edges, labels, cfg)
        reports.append(dual_upper_bound(fn, m=4, rho=0.5,
                                        lambda_grid=[0.0, 0.5, 1.0, 5.0],
                                        resolution=0.05, tol=1e-9))
    return SimpleNamespace(seed=seed, reports=reports,
                           passed=all(r.all_hold for r in reports))


def kkt_certificates(seed: int = 0) -> SimpleNamespace:
    """Criterion 5: analytic certificates on 20 signed surrogate draws (an
    all-zero indicator mask is counted as degenerate), and a negative
    control with one kept edge nudged into the interior."""
    seed += 11
    rng = np.random.default_rng(seed)
    certs, degenerate = [], 0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        prob = SurrogateProblem(c=rng.normal(scale=0.5, size=m),
                                tau=float(rng.uniform(0.0, 0.2)))
        if surrogate_optimal_mask(prob)[0].sum() == 0:
            degenerate += 1
            continue
        s_star, lam_star, rho = surrogate_kkt_instance(prob)
        certs.append(kkt_check(prob.c, s_star, lam_star, rho, tol=1e-9))
    prob = SurrogateProblem(c=np.array([0.8, 0.5, -0.2]), tau=0.1)
    s_star, lam_star, rho = surrogate_kkt_instance(prob)
    s_star[0] = 0.5
    corrupted = kkt_check(prob.c, s_star, lam_star, rho, tol=1e-9)
    return SimpleNamespace(
        seed=seed, certificates=certs, degenerate=degenerate,
        corrupted=corrupted,
        passed=all(c.passed for c in certs) and not corrupted.passed)


ORACLES = {
    "surrogate": surrogate_gaps,
    "dual_bound": weak_duality,
    "kkt": kkt_certificates,
    "grad_identity": two_path_deviations,
}
