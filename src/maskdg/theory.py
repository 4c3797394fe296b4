"""Executable checks of the robust-optimization story behind the adversary.

Everything here runs at desk scale: losses over masks are enumerated on a
grid, so the statements are verified against brute force rather than taken
on faith. The worst-case problem maximizes the loss over masks subject to a
mean budget; its Lagrangian relaxation uses loss(s) - lam * (mean(s) - rho),
whose maximum over the box upper-bounds the constrained maximum for every
nonnegative multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from .gradients import grad_masknet
from .masknet import MaskNetParams, mask_forward_var
from .tasknet import TaskNetConfig, TaskNetParams, loss_over_masks

GRID_EDGE_CAP = 6
DEFAULT_RESOLUTION = 0.05


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

    def loss(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(s)
        return self.base_loss + s @ self.c


def surrogate_optimal_mask(prob: SurrogateProblem):
    """Closed-form maximizer of the penalized affine objective.

    Each edge is kept iff its sensitivity strictly beats the penalty rate;
    exact ties resolve to 0. Returns (mask, objective value).
    """
    s_star = (prob.c > prob.tau).astype(np.float64)
    value = prob.base_loss + float(np.maximum(prob.c - prob.tau, 0.0).sum())
    return s_star, value


def iter_mask_grid(m: int, resolution: float = DEFAULT_RESOLUTION,
                   chunk: int = 200_000):
    """Yield chunks of the full grid {0, resolution, ..., 1}^m, in row-major
    order: the last column varies fastest.

    Column `col` holds each level for a run of L ** (m - 1 - col) points,
    cycling through the L levels, so a chunk's column is the level vector
    rotated to the chunk's first run, tiled over the runs the chunk touches
    and repeated run by run, with the first and last runs cut to the chunk.
    """
    if m > GRID_EDGE_CAP:
        raise ValueError(f"grid too large: m={m} exceeds cap {GRID_EDGE_CAP}")
    if not (np.isfinite(resolution) and 0 < resolution <= 1):
        raise ValueError(f"resolution must lie in (0, 1], got {resolution}")
    levels = np.round(np.arange(0.0, 1.0 + resolution / 2, resolution), 12)
    L = levels.size
    total = L ** m
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        pts = np.empty((stop - start, m))
        for col in range(m):
            run = L ** (m - 1 - col)
            first, last = start // run, (stop - 1) // run
            touched = last - first + 1
            cycle = np.tile(np.roll(levels, -(first % L)), -(-touched // L))
            if run == 1:    # np.repeat by a count per element is 3x slower
                pts[:, col] = cycle[:touched]
                continue
            counts = np.full(touched, run)
            counts[0] -= start - first * run
            counts[-1] -= (last + 1) * run - stop
            pts[:, col] = np.repeat(cycle[:touched], counts)
        yield pts


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
    without a feasible point and raises ValueError.
    """
    lambda_grid = [float(l) for l in lambda_grid]
    if any(l < 0 for l in lambda_grid):
        raise ValueError("multipliers must be nonnegative")
    if not rho >= -1e-12:
        raise ValueError(f"no grid mask meets the budget rho={rho}")
    primal = -np.inf
    primal_point = None
    duals = {l: -np.inf for l in lambda_grid}
    for batch in iter_mask_grid(m, resolution):
        losses = np.asarray(loss_fn(batch), dtype=np.float64)
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
    tail entries ride along fixed at 1."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    scorable = edges[:, 0] != edges[:, 1]
    m = int(scorable.sum())

    def fn(batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(batch)
        if batch.shape[1] != m:
            raise ValueError(f"expected {m} scorable mask entries")
        full = np.ones((batch.shape[0], edges.shape[0]))
        full[:, scorable] = batch
        return loss_over_masks(task, X, edges, labels, full, cfg)

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
              rho: float, tol: float = 1e-9,
              boundary_tol: float = 1e-9) -> KKTCertificate:
    """Check the first-order conditions of the budgeted mask problem.

    grad is d(loss)/d(s) at s_star. Interior edges must sit exactly at the
    threshold lam*/m; fully masked edges must fall at or below it; fully
    kept edges at or above it. Box multipliers are recovered from the
    stationarity residuals.
    """
    grad = np.asarray(grad, dtype=np.float64)
    s_star = np.asarray(s_star, dtype=np.float64)
    thr = lam_star / s_star.size
    above, below = np.maximum(grad - thr, 0.0), np.maximum(thr - grad, 0.0)
    zero = s_star <= boundary_tol
    one = ~zero & (s_star >= 1.0 - boundary_tol)
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

    mask_var, scorable, mpv = mask_forward_var(maskp, X, edges, track=True)
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
