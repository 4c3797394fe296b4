"""Executable checks of the robust-optimization story behind the adversary,
and the instances behind acceptance criteria 1-5.

Everything here runs at desk scale: losses over masks are enumerated on a
grid, so the statements are verified against brute force rather than taken
on faith. The worst-case problem maximizes the loss over masks subject to a
mean budget; its Lagrangian relaxation uses loss(s) - lam * (mean(s) - rho),
whose maximum over the box upper-bounds the constrained maximum for every
nonnegative multiplier.

The instances at the end back `maskdg gradcheck`, `maskdg oracle` and
criteria 1-5 of the acceptance suite. Each returns its parameters, what it
measured, and `passed`; `seed` offsets the pinned seed, and 0 is the gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Sequence

import numpy as np

from .gradients import finite_diff_check, grad_masknet, grad_tasknet
from .graph import EdgeOrigin, coalesce, make_edges
from .masknet import (MaskNetParams, init_masknet, mask_forward,
                      mask_forward_var)
from .tasknet import (TaskNetConfig, TaskNetParams, cross_entropy,
                      init_tasknet, loss_over_masks, mask_block_rows,
                      tasknet_forward)

GRID_EDGE_CAP = 6
GRID_CHUNK = 20_000     # most points in one iter_mask_grid chunk
DEFAULT_RESOLUTION = 0.05
KKT_BOUNDARY_TOL = 1e-9
LAM = 0.01      # the scorer's sparsity coefficient in criteria 1 and 2


@dataclass
class SurrogateProblem:
    """Affine model of the loss in the mask, linearized at s = 0."""

    c: np.ndarray           # per-edge loss sensitivity at s = 0
    base_loss: float = 0.0
    tau: float = 0.0        # penalty per unit of mask mass, lambda / m
    rho: float = 1.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        if not np.all(np.isfinite(self.c)):
            raise ValueError("sensitivities must be finite")
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")

    @property
    def m(self) -> int:
        return self.c.size

    def penalized_objective(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(s)
        return self.base_loss + s @ self.c - self.tau * s.sum(axis=1)


def surrogate_optimal_mask(prob: SurrogateProblem):
    """Closed-form maximizer of the penalized affine objective.

    Each edge is kept iff its sensitivity strictly beats the penalty rate;
    exact ties resolve to 0. Returns (mask, objective value).
    """
    s_star = (prob.c > prob.tau).astype(np.float64)
    value = prob.base_loss + float(np.maximum(prob.c - prob.tau, 0.0).sum())
    return s_star, value


def iter_mask_grid(m: int, resolution: float = DEFAULT_RESOLUTION):
    """Yield chunks of the full grid {0, resolution, ..., 1}^m, in row-major
    order: the last column varies fastest.

    The trailing columns, as many as keep L^(tail - 1) <= GRID_CHUNK (at
    least one), are a Cartesian product written by broadcasting each level
    vector along its axis; each chunk is that product under one setting of
    the leading columns, with the first trailing column cut into runs of as
    many levels as fit GRID_CHUNK points (at least one).
    """
    if m < 1:
        raise ValueError(f"a mask grid needs m >= 1 edges, got m={m}")
    if m > GRID_EDGE_CAP:
        raise ValueError(f"grid too large: m={m} exceeds cap {GRID_EDGE_CAP}")
    if not (np.isfinite(resolution) and 0 < resolution <= 1):
        raise ValueError(f"resolution must lie in (0, 1], got {resolution}")
    levels = np.round(np.arange(0.0, 1.0 + resolution / 2, resolution), 12)
    L = levels.size
    tail = m
    while tail > 1 and L ** (tail - 1) > GRID_CHUNK:
        tail -= 1
    run = max(1, GRID_CHUNK // L ** (tail - 1))   # levels per chunk
    for lead in itertools.product(levels, repeat=m - tail):
        for start in range(0, L, run):
            first = levels[start:start + run]
            pts = np.empty((first.size,) + (L,) * (tail - 1) + (m,))
            pts[..., :m - tail] = lead
            pts[..., m - tail] = first.reshape((-1,) + (1,) * (tail - 1))
            for col in range(1, tail):
                axis = (L,) + (1,) * (tail - 1 - col)  # levels along axis col
                pts[..., m - tail + col] = levels.reshape(axis)
            yield pts.reshape(-1, m)


@dataclass
class DualBoundReport:
    primal: float
    primal_point: np.ndarray
    dual_values: Dict[float, float]
    holds: Dict[float, bool]
    rho: float
    resolution: float

    @property
    def all_hold(self) -> bool:
        return all(self.holds.values())


def dual_upper_bound(loss_fn: Callable[[np.ndarray], np.ndarray], m: int,
                     rho: float, lambda_grid: Sequence[float],
                     resolution: float = DEFAULT_RESOLUTION,
                     tol: float = 1e-9) -> DualBoundReport:
    """Grid-estimate the budget-constrained maximum P and the penalized
    maxima D(lam), then check P <= D(lam) + tol for each multiplier.

    loss_fn maps a (B, m) mask batch to (B,) loss values. The all-zero mask,
    of mean 0, is the grid's cheapest, so a budget below it (or NaN) leaves P
    without a feasible point and raises ValueError. So does a non-finite
    loss, which no maximum would notice; the first is named with its mask.
    """
    lambda_grid = [float(l) for l in lambda_grid]
    if not lambda_grid:
        raise ValueError("lambda grid is empty")
    if any(l < 0 for l in lambda_grid):
        raise ValueError("multipliers must be nonnegative")
    if not rho >= -1e-12:
        raise ValueError(f"no grid mask meets the budget rho={rho}")
    primal = -np.inf
    primal_point = None
    duals = {l: -np.inf for l in lambda_grid}
    for batch in iter_mask_grid(m, resolution):
        losses = np.asarray(loss_fn(batch), dtype=np.float64)
        bad = ~np.isfinite(losses)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"loss {losses[k]} at mask {batch[k].tolist()}")
        means = batch.mean(axis=1)
        feasible = means <= rho + 1e-12
        if feasible.any():
            k = np.argmax(np.where(feasible, losses, -np.inf))
            if losses[k] > primal:
                primal = float(losses[k])
                primal_point = batch[k].copy()
        for lam in lambda_grid:
            cand = losses - lam * (means - rho)
            duals[lam] = max(duals[lam], float(cand.max()))
    holds = {lam: primal <= duals[lam] + tol for lam in lambda_grid}
    return DualBoundReport(primal=primal, primal_point=primal_point,
                           dual_values=duals, holds=holds, rho=rho,
                           resolution=resolution)


def tasknet_mask_loss_fn(task: TaskNetParams, X: np.ndarray,
                         edges: np.ndarray, labels: np.ndarray,
                         cfg: TaskNetConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt the classifier to a loss over scorable-mask batches; self-loop
    tail entries ride along fixed at 1.

    A batch runs in blocks of `mask_block_rows` rows, one loss_over_masks
    call each, so every call groups exactly the block it gets and the losses
    are those of one call on the whole (B, E) batch. The blocks are written
    into the scorable columns of one (block, E) buffer of ones, made on the
    first call and kept: a fresh buffer per block is returned to the system
    and faulted back in each time.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    scorable = edges[:, 0] != edges[:, 1]
    m = int(scorable.sum())
    block = None

    def fn(batch: np.ndarray) -> np.ndarray:
        nonlocal block
        batch = np.atleast_2d(batch)
        if batch.shape[1] != m:
            raise ValueError(f"expected {m} scorable mask entries")
        if block is None:
            E = edges.shape[0]
            block = np.ones((mask_block_rows(E), E))
        out = np.empty(batch.shape[0])
        for i in range(0, batch.shape[0], block.shape[0]):
            part = block[:batch.shape[0] - i]       # the last may be short
            part[:, scorable] = batch[i:i + part.shape[0]]
            out[i:i + part.shape[0]] = loss_over_masks(task, X, edges, labels,
                                                       part, cfg)
        return out

    return fn


@dataclass
class KKTCertificate:
    """Per-edge stationarity classification of a candidate optimal mask.

    Never asserts global optimality: the loss is non-concave in the mask, so
    these are necessary conditions for local optima only.
    """

    s_star: np.ndarray
    lam_star: float
    mu: np.ndarray
    nu: np.ndarray
    cases: List[str]
    stationarity_residuals: np.ndarray
    complementary_slackness: float
    primal_feasible: bool
    dual_feasible: bool
    tol: float

    @property
    def stationarity_ok(self) -> bool:
        return bool(np.all(self.stationarity_residuals <= self.tol))

    @property
    def passed(self) -> bool:
        return (self.stationarity_ok and self.primal_feasible
                and self.dual_feasible
                and abs(self.complementary_slackness) <= self.tol)

    def lines(self):
        yield (f"lambda*={self.lam_star:.6g} cs_residual="
               f"{self.complementary_slackness:.3e} "
               f"primal={'ok' if self.primal_feasible else 'VIOLATED'} "
               f"dual={'ok' if self.dual_feasible else 'VIOLATED'}")
        for e, (case, res) in enumerate(zip(self.cases,
                                            self.stationarity_residuals)):
            flag = "ok" if res <= self.tol else "VIOLATED"
            yield f"edge {e}: case={case:8s} residual={res:.3e} {flag}"


def kkt_check(grad: np.ndarray, s_star: np.ndarray, lam_star: float,
              rho: float, tol: float = 1e-9) -> KKTCertificate:
    """Check the first-order conditions of the budgeted mask problem.

    grad is d(loss)/d(s) at s_star. Interior edges must sit exactly at the
    threshold lam*/m; fully masked edges (s within KKT_BOUNDARY_TOL of 0)
    must fall at or below it; fully kept edges (within KKT_BOUNDARY_TOL of
    1) at or above it. Box multipliers are recovered from the stationarity
    residuals.
    """
    grad = np.asarray(grad, dtype=np.float64)
    s_star = np.asarray(s_star, dtype=np.float64)
    thr = lam_star / s_star.size
    above, below = np.maximum(grad - thr, 0.0), np.maximum(thr - grad, 0.0)
    zero = s_star <= KKT_BOUNDARY_TOL
    one = ~zero & (s_star >= 1.0 - KKT_BOUNDARY_TOL)
    residuals = np.where(zero, above, np.where(one, below, np.abs(grad - thr)))
    mu = np.where(one, above, 0.0)
    nu = np.where(zero, below, 0.0)
    cases = np.where(zero, "zero", np.where(one, "one", "interior")).tolist()
    mean_s = float(s_star.mean())
    primal = (mean_s <= rho + tol
              and np.all(s_star >= -tol) and np.all(s_star <= 1.0 + tol))
    dual = lam_star >= 0
    cs = lam_star * (mean_s - rho)
    return KKTCertificate(s_star=s_star, lam_star=lam_star, mu=mu, nu=nu,
                          cases=cases, stationarity_residuals=residuals,
                          complementary_slackness=cs, primal_feasible=primal,
                          dual_feasible=dual, tol=tol)


def surrogate_kkt_instance(prob: SurrogateProblem):
    """Analytic certificate construction: the indicator mask, lam* = m * tau
    and rho set to the active budget satisfy every condition exactly.

    Requires at least one kept edge; with everything masked the budget is
    slack for any valid rho and the multiplier construction breaks down.
    """
    s_star, _ = surrogate_optimal_mask(prob)
    lam_star = prob.m * prob.tau
    if lam_star > 0 and s_star.sum() == 0:
        raise ValueError("degenerate instance: indicator mask is all-zero")
    rho = float(s_star.mean()) if lam_star > 0 else prob.rho
    return s_star, lam_star, rho


def masknet_gradient_identity(task: TaskNetParams, maskp: MaskNetParams,
                              X: np.ndarray, edges: np.ndarray,
                              labels: np.ndarray, lam: float,
                              cfg: TaskNetConfig) -> float:
    """Max deviation between the direct adversary gradient and its explicit
    chain-rule assembly (-dL/ds + lam/m) @ (ds/dp).

    The Jacobian of the scorer is materialized row by row with one-hot
    backward seeds, so the two paths share no accumulation order.
    """
    direct = grad_masknet(task, maskp, X, edges, labels, lam, cfg)

    mask_var, scorable, mpv = mask_forward_var(maskp, X, edges)
    scored = np.flatnonzero(scorable)
    jac = {name: np.zeros((scored.size,) + arr.shape)
           for name, arr in maskp.named()}
    for row, e in enumerate(scored):
        seed = np.zeros(mask_var.data.shape)
        seed[e] = 1.0
        mask_var.backward(seed)
        for name, v in mpv.named():
            if v.grad is not None:
                jac[name][row] = v.grad
    coeff = -direct.mask_grad[scored] + lam / scored.size
    worst = 0.0
    for name, _ in maskp.named():
        assembled = np.tensordot(coeff, jac[name], axes=1)
        worst = max(worst, float(np.max(np.abs(assembled - direct.grads[name]))))
    return worst


# -- the instances behind acceptance criteria 1-5 -----------------------


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
