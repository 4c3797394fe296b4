"""Adam with bias correction. Weight decay enters as an L2 term added to
the gradient (classic, not decoupled)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad

# The moment decay rates and the denominator's epsilon of Kingma & Ba (2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: Optional[np.ndarray] = None    # moments, flat in named() order
    v: Optional[np.ndarray] = None
    step: int = 0


def adam_step(state: AdamState, params: ad.Params,
              grads: Dict[str, np.ndarray], lr: float,
              weight_decay: float = 0.0) -> None:
    """One in-place Adam update of `params` (built by `ad.packed`): the
    grads are gathered in named() order and `params.flat` moves at once,
    each entry by the bits a per-tensor update would give it."""
    named, w = params.named(), params.flat
    if w is None or any(arr.base is not w for _, arr in named):
        raise ValueError("adam_step needs parameters packed by ad.packed")
    if state.m is None:
        state.m, state.v = np.zeros_like(w), np.zeros_like(w)
    elif state.m.shape != w.shape:
        raise ValueError(f"{state.m.size} moments for {w.size} parameters")
    state.step += 1
    g = np.concatenate([grads[name].ravel() for name, _ in named])
    if weight_decay:
        g += weight_decay * w
    m, v = state.m, state.v
    m *= BETA1
    m += (1 - BETA1) * g
    v *= BETA2
    v += (1 - BETA2) * g * g
    denom = np.sqrt(v / (1 - BETA2 ** state.step))
    denom += EPS
    w -= lr * (m / (1 - BETA1 ** state.step)) / denom
