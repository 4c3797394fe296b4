"""Gradient computation for both networks, plus finite-difference auditing.

Two entry points mirror the two phases of the alternating game:

* grad_tasknet: d(loss)/d(classifier params) with the mask held constant.
* grad_masknet: d(-loss + lam * mean(s))/d(scorer params) with the classifier
  frozen; also exposes d(loss)/d(s), which the optimality checks consume.

The detach contracts are structural: the frozen side is wrapped as tape
constants, so no gradient can exist for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from . import autodiff as ad
from . import masknet, tasknet

FD_ABS_FLOOR = 1e-8


@dataclass
class GradientBundle:
    """Per-parameter gradients keyed by the params' named() labels."""

    grads: Dict[str, np.ndarray]
    loss: float
    objective: float
    mask_grad: Optional[np.ndarray] = None   # d(loss)/d(s), zero on self-loops


def grad_tasknet(task: tasknet.TaskNetParams, X: np.ndarray, edges: np.ndarray,
                 mask_values: np.ndarray, labels: np.ndarray,
                 cfg: tasknet.TaskNetConfig,
                 dropout_rng: Optional[np.random.Generator] = None,
                 seg: Optional[tasknet.EdgeSegments] = None) -> GradientBundle:
    """Exact reverse-accumulation gradient of the classification loss w.r.t.
    the classifier; the mask enters as a constant edge attribute."""
    pv = ad.param_vars(task, track=True)
    logits = tasknet.tasknet_forward_var(pv, X, edges, ad.constant(mask_values),
                                         cfg, dropout_rng, seg)
    loss = tasknet.cross_entropy_var(logits, labels)
    loss.backward()
    return GradientBundle(grads=pv.grads(), loss=float(loss.data),
                          objective=float(loss.data))


def grad_masknet(task: tasknet.TaskNetParams, maskp: masknet.MaskNetParams,
                 X: np.ndarray, edges: np.ndarray, labels: np.ndarray,
                 lam: float, cfg: tasknet.TaskNetConfig,
                 dropout_rng: Optional[np.random.Generator] = None,
                 seg: Optional[tasknet.EdgeSegments] = None) -> GradientBundle:
    """Gradient of -loss + lam * mean(s) w.r.t. the scorer only.

    The frozen classifier reads a leaf copy of the mask, so one backward
    sweep from the loss gives d(loss)/d(s); the scorer's VJP then runs once,
    seeded with d(objective)/d(s) = -d(loss)/d(s) + lam/m on the m scored
    entries (self-loops are never scored).
    """
    mask_var, scorable, mpv = masknet.mask_forward_var(maskp, X, edges)
    m = int(scorable.sum())
    if m == 0:
        raise ValueError("no scorable edges: adversary has nothing to mask")
    mask_leaf = ad.param(mask_var.data)
    logits = tasknet.tasknet_forward_var(ad.param_vars(task, track=False), X,
                                         edges, mask_leaf, cfg, dropout_rng,
                                         seg)
    loss = tasknet.cross_entropy_var(logits, labels)
    loss.backward()
    mask_grad = np.where(scorable, mask_leaf.grad, 0.0)

    seed = -mask_leaf.grad
    seed[scorable] += lam * (1.0 / m)
    mask_var.backward(seed)
    objective = -loss.data + mask_var.data[scorable].sum() * (1.0 / m) * lam
    return GradientBundle(grads=mpv.grads(), loss=float(loss.data),
                          objective=float(objective), mask_grad=mask_grad)


@dataclass
class FiniteDiffReport:
    per_tensor: Dict[str, float]
    checked: Dict[str, int]
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def lines(self):
        for name in self.per_tensor:
            status = "ok" if self.per_tensor[name] <= self.tol else "FAIL"
            yield (f"{name:28s} coords={self.checked[name]:5d} "
                   f"max_rel_err={self.per_tensor[name]:.3e} {status}")


def finite_diff_check(loss_fn: Callable[[], float], named_params,
                      analytic: Dict[str, np.ndarray], h: float = 1e-4,
                      tol: float = 1e-4) -> FiniteDiffReport:
    """Central-difference audit of an analytic gradient.

    Mutates each parameter coordinate in place by +/-h, calls loss_fn, and
    restores it. The error metric is |fd - g| / max(|fd|, |g|, floor) with
    floor = FD_ABS_FLOOR / tol, so absolute errors below FD_ABS_FLOOR always
    pass.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    floor = FD_ABS_FLOOR / tol
    per_tensor, checked = {}, {}
    for name, arr in named_params:
        flat = arr.reshape(-1)
        worst = 0.0
        gflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(fd - gflat[i])
            worst = max(worst, float(err / max(abs(fd), abs(gflat[i]), floor)))
        per_tensor[name] = worst
        checked[name] = flat.size
    overall = max(per_tensor.values()) if per_tensor else 0.0
    return FiniteDiffReport(per_tensor=per_tensor, checked=checked,
                            max_rel_error=overall, tol=tol)
