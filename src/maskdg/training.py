"""Alternating min-max training, evaluation and the ablation runners.

One epoch walks every source domain: re-sample the enriched edge set, take
n_descent Adam steps on the classifier against the current (detached) mask,
then n_ascent steps on the scorer against the frozen classifier. The target
graph is never read; parameters are a pure function of (sources, config,
seed).
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .autodiff import packed
from .enrich import EnrichConfig, Enricher
from .gradients import grad_masknet, grad_tasknet
from .graph import UNLABELED, DomainDataset, EdgeOrigin, Graph, write_atomic
from .masknet import EdgeMask, MaskNetParams, init_masknet, mask_forward
from .optim import AdamState, adam_step
from .tasknet import (EdgeSegments, TaskNetConfig, TaskNetParams,
                      init_tasknet, tasknet_forward)


@dataclass
class TrainConfig:
    epochs: int = 200
    lr_task: float = 1e-3
    lr_mask: float = 1e-3
    weight_decay_task: float = 5e-4
    sparsity: float = 1e-3            # lambda in the adversary's objective
    n_descent: int = 5
    n_ascent: int = 1
    enrich: EnrichConfig = field(default_factory=EnrichConfig)
    tasknet: TaskNetConfig = field(default_factory=TaskNetConfig)
    mask_d_prime: int = 128
    mask_hidden: int = 64
    mask_enabled: bool = True         # False: s fixed at 1, no ascent steps
    seed: int = 0
    dual_rho: Optional[float] = None  # enables dual ascent of lambda
    dual_step: float = 0.0
    inference_mask_mode: str = "all-ones"   # or "masknet"

    def __post_init__(self):
        if (self.epochs < 0 or self.n_descent < 1 or self.n_ascent < 1
                or self.seed < 0):
            raise ValueError("epochs >= 0, n_descent >= 1, n_ascent >= 1, "
                             "seed >= 0")
        if not (self.lr_task > 0 and self.lr_mask > 0
                and self.sparsity >= 0 and self.weight_decay_task >= 0):
            raise ValueError("need lr_task, lr_mask > 0, sparsity, "
                             "weight_decay_task >= 0")
        if self.mask_d_prime < 1 or self.mask_hidden < 1:
            raise ValueError("mask_d_prime and mask_hidden must be >= 1")
        if self.inference_mask_mode not in ("all-ones", "masknet"):
            raise ValueError("inference_mask_mode must be all-ones or masknet")
        if self.dual_rho is not None:
            rho = self.dual_rho
            if isinstance(rho, bool) or not isinstance(rho, (int, float)) \
                    or not 0 < rho <= 1:
                raise ValueError(f"dual_rho must be null or a number in "
                                 f"(0, 1], got {rho!r}")
            if self.dual_step <= 0:
                raise ValueError("dual ascent needs a positive dual_step")


@dataclass
class TrainedModel:
    task: TaskNetParams
    mask: MaskNetParams
    cfg: TrainConfig
    final_lambda: float


@dataclass
class TrainResult:
    model: TrainedModel
    history: List[dict]      # one history.csv row per epoch


def dual_ascent_lambda(lam: float, mean_s: float, rho: float,
                       step: float) -> float:
    """Projected multiplier update: lam + step * (mean_s - rho), clipped at 0.
    TrainConfig has checked that step > 0 and rho lies in (0, 1]."""
    return max(0.0, lam + step * (mean_s - rho))


def f1_metrics(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> dict:
    """Micro/macro F1 over labeled nodes. Classes absent from both the
    predictions and the truth contribute an F1 of 0 to the macro average."""
    keep = y_true != UNLABELED
    y_true, y_pred = y_true[keep], y_pred[keep]
    if y_true.size == 0:
        raise ValueError("no labeled nodes to score")
    acc = float(np.mean(y_true == y_pred))
    per_class = []
    for c in range(num_classes):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom > 0 else 0.0)
    return {"micro_f1": acc, "macro_f1": float(np.mean(per_class)),
            "accuracy": acc}


# A mask value below this counts as pruning its edge.
PRUNE_THRESHOLD = 0.5


def mask_statistics(edges: np.ndarray, mask: EdgeMask) -> dict:
    """For the scored edges of each origin (ORIGINAL, KNN, SPECTRAL): their
    count, mean mask value and percentage below PRUNE_THRESHOLD; None for
    an origin with no scored edge."""
    stats = {}
    for origin in (EdgeOrigin.ORIGINAL, EdgeOrigin.KNN, EdgeOrigin.SPECTRAL):
        values = mask.values[mask.scorable & (edges[:, 2] == int(origin))]
        stats[origin.name] = None if values.size == 0 else {
            "edges": int(values.size),
            "mean_mask": float(values.mean()),
            "pruned_pct": 100.0 * float(np.mean(values < PRUNE_THRESHOLD)),
        }
    return stats


def _mask_or_ones(model_mask, X, edges, enabled: bool) -> np.ndarray:
    if not enabled:
        return np.ones(edges.shape[0])
    return mask_forward(model_mask, X, edges).values


def inference_graph(cfg: TrainConfig, graph: Graph) -> np.ndarray:
    """The deterministic (E, 3) inference edges of `graph`: the training
    config's enrichment with every nonzero sampling ratio forced to 1, and
    the spectral k-means seeded from the config seed."""
    e_cfg = replace(cfg.enrich,
                    gamma_knn=1.0 if cfg.enrich.gamma_knn > 0 else 0.0,
                    gamma_spec=1.0 if cfg.enrich.gamma_spec > 0 else 0.0)
    rng = np.random.default_rng(cfg.seed)
    return Enricher(graph, e_cfg, rng).sample(rng).enriched_edges


def evaluate(model: TrainedModel, graph: Graph,
             mask_mode: Optional[str] = None) -> dict:
    """Score the inference graph of `graph` with dropout off.

    The mask is all-ones by default; "masknet" applies the trained scorer
    instead.
    """
    cfg = model.cfg
    mode = mask_mode or cfg.inference_mask_mode
    if not cfg.mask_enabled:
        mode = "all-ones"      # the scorer was never trained
    edges = inference_graph(cfg, graph)
    mask_values = _mask_or_ones(model.mask, graph.features, edges,
                                mode == "masknet")
    logits = tasknet_forward(model.task, graph.features, edges, mask_values,
                             cfg.tasknet)
    preds = logits.argmax(axis=1)
    return f1_metrics(graph.labels, preds, graph.num_classes)


def tasknet_descent_step(task: TaskNetParams, s: np.ndarray,
                         X: np.ndarray, edges: np.ndarray, labels: np.ndarray,
                         cfg: TrainConfig, state: AdamState,
                         dropout_rng: Optional[np.random.Generator] = None,
                         seg: Optional[EdgeSegments] = None) -> float:
    """One Adam update of the classifier against the mask values `s`, held
    constant. Returns the loss."""
    bundle = grad_tasknet(task, X, edges, s, labels, cfg.tasknet, dropout_rng,
                          seg)
    if not np.isfinite(bundle.loss):
        raise FloatingPointError(f"loss={bundle.loss!r}")
    adam_step(state, task, bundle.grads, cfg.lr_task, cfg.weight_decay_task)
    return bundle.loss


def masknet_ascent_step(task: TaskNetParams, maskp: MaskNetParams,
                        X: np.ndarray, edges: np.ndarray, labels: np.ndarray,
                        lam: float, cfg: TrainConfig, state: AdamState,
                        dropout_rng: Optional[np.random.Generator] = None,
                        seg: Optional[EdgeSegments] = None) -> float:
    """One Adam update of the scorer against the frozen classifier,
    minimizing -loss + lam * mean(s). Returns the objective value."""
    bundle = grad_masknet(task, maskp, X, edges, labels, lam, cfg.tasknet,
                          dropout_rng, seg)
    if not np.isfinite(bundle.objective):
        raise FloatingPointError(f"objective={bundle.objective!r}")
    adam_step(state, maskp, bundle.grads, cfg.lr_mask)
    return bundle.objective


def train(dataset: DomainDataset, cfg: TrainConfig) -> TrainResult:
    """Run the alternating optimization over all source domains."""
    sources = dataset.source_graphs
    d, c = sources[0].num_features, sources[0].num_classes

    ss = np.random.SeedSequence(cfg.seed)
    s_task, s_mask, s_enrich, s_loop = ss.spawn(4)
    # packed: each Adam step moves one network's buffer at once
    task = packed(init_tasknet(d, c, cfg.tasknet,
                               np.random.default_rng(s_task)))
    maskp = packed(init_masknet(d, cfg.mask_d_prime, cfg.mask_hidden,
                                np.random.default_rng(s_mask)))
    enrichers = [Enricher(g, cfg.enrich, np.random.default_rng(child))
                 for g, child in zip(sources, s_enrich.spawn(len(sources)))]
    loop_rng = np.random.default_rng(s_loop)

    task_state, mask_state = AdamState(), AdamState()
    lam = cfg.sparsity
    history = []

    for epoch in range(cfg.epochs):
        losses, objectives, means = [], [], []
        for dom_idx, g in enumerate(sources):
            edges = enrichers[dom_idx].sample(loop_rng).enriched_edges
            X, labels = g.features, g.labels
            try:
                # fixed: the edges across all steps, the scorer across descent
                seg = EdgeSegments(edges, X.shape[0])
                s = _mask_or_ones(maskp, X, edges, cfg.mask_enabled)
                for _ in range(cfg.n_descent):
                    losses.append(tasknet_descent_step(
                        task, s, X, edges, labels, cfg, task_state, loop_rng,
                        seg))
                if cfg.mask_enabled:
                    for _ in range(cfg.n_ascent):
                        objectives.append(masknet_ascent_step(
                            task, maskp, X, edges, labels, lam, cfg,
                            mask_state, loop_rng, seg))
                    means.append(mask_forward(maskp, X, edges).mean_scorable())
                    if cfg.dual_rho is not None:
                        lam = dual_ascent_lambda(lam, means[-1], cfg.dual_rho,
                                                 cfg.dual_step)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"non-finite value at epoch {epoch}, domain "
                    f"{g.domain_id!r}: {exc}") from exc
        history.append({
            "epoch": epoch,
            "task_loss": float(np.mean(losses)) if losses else float("nan"),
            "mask_objective": (float(np.mean(objectives)) if objectives
                               else None),
            "mean_mask": float(np.mean(means)) if means else None,
            "lambda": lam,
            "descent_steps": len(losses),
            "ascent_steps": len(objectives),
        })

    model = TrainedModel(task=task, mask=maskp, cfg=cfg, final_lambda=lam)
    return TrainResult(model=model, history=history)


def final_mean_mask(model: TrainedModel, graphs: Sequence[Graph]) -> float:
    """Mean scorable mask value over the inference graphs of `graphs`."""
    vals = [mask_forward(model.mask, g.features,
                         inference_graph(model.cfg, g)).mean_scorable()
            for g in graphs]
    return float(np.mean(vals))


def ablate_lambda(dataset: DomainDataset, cfg: TrainConfig,
                  grid: Sequence[float]) -> List[dict]:
    """Train once per sparsity coefficient with a shared seed; report target
    metrics and the final mean mask value."""
    if not grid:
        raise ValueError("lambda grid is empty")
    rows = []
    for lam in grid:
        result = train(dataset, replace(cfg, sparsity=float(lam)))
        row = {"lambda": float(lam),
               "mean_mask": final_mean_mask(result.model,
                                            dataset.source_graphs)}
        if dataset.target_graph is not None:
            row.update(evaluate(result.model, dataset.target_graph))
        rows.append(row)
    return rows


_2X2_CELLS = (
    ("original", "no-mask"),
    ("original", "mask"),
    ("union", "no-mask"),
    ("union", "mask"),
)


def ablate_2x2(dataset: DomainDataset, cfg: TrainConfig) -> List[dict]:
    """The four {original, union} x {no-mask, mask} configurations under one
    seed. original = no feature-derived edges; no-mask = plain ERM training
    with s fixed at 1."""
    rows = []
    for structure, masking in _2X2_CELLS:
        cell_cfg = replace(
            cfg,
            enrich=(replace(cfg.enrich, gamma_knn=0.0, gamma_spec=0.0)
                    if structure == "original" else cfg.enrich),
            mask_enabled=(masking == "mask"),
        )
        result = train(dataset, cell_cfg)
        row = {
            "structure": structure,
            "masking": masking,
            "inference_mask": ("all-ones" if masking == "no-mask"
                               else cfg.inference_mask_mode),
        }
        if dataset.target_graph is not None:
            row.update(evaluate(result.model, dataset.target_graph))
        rows.append(row)
    return rows


# -- config and checkpoint serialization -----------------------------------

# Settings that were once configurable, by config class, each with the one
# value the code still implements; stored configs that carry them keep
# loading.
_RETIRED = {
    EnrichConfig: {"kernel_bandwidth": "median", "add_self_loops": True,
                   "solver_cap": 5000},
    TaskNetConfig: {"activation": "elu"},
    TrainConfig: {"adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8},
}


def typed_config(cls, data: dict, where: str = ""):
    """cls(**data) once each value fits its field's default: a config field
    takes a dict, loaded alike; an int field an int, a float field an int or
    float within the float64 range (not NaN or infinite), only a bool field
    a bool. A retired key is dropped at its one value, any other unknown key
    rejected. Errors name each key's dotted path, prefixed by `where`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where.rstrip('.') or 'config'} must be an "
                         f"object, got {data!r}")
    data = dict(data)
    for key, only in _RETIRED.get(cls, {}).items():
        value = data.pop(key, only)
        if type(value) is not type(only) or value != only:
            raise ValueError(f"{where}{key} is no longer configurable: "
                             f"only {only!r} is supported, got {value!r}")
    defaults = vars(cls())
    unknown = sorted(where + key for key in set(data) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for name, value in data.items():
        default = defaults[name]
        want = type(default)
        if dataclasses.is_dataclass(default):
            data[name] = typed_config(want, value, f"{where}{name}.")
        elif want in (bool, int, float) and not (
                isinstance(value, (int, float) if want is float else want)
                and isinstance(value, bool) == (want is bool)
                and (want is not float or abs(value) <= sys.float_info.max)):
            kind = f"finite {want.__name__}" if want is float else want.__name__
            raise ValueError(f"{where}{name} must be {kind}, got {value!r}")
    return cls(**data)


CHECKPOINT_VERSION = 2


def _arrays(model: TrainedModel) -> dict:
    """The model's tensors by checkpoint key, in named() order."""
    return {f"{prefix}.{name}": arr
            for prefix, params in (("task", model.task), ("mask", model.mask))
            for name, arr in params.named()}


def save_checkpoint(path, model: TrainedModel) -> None:
    """Single-file npz: parameter tensors under task./mask. prefixes plus a
    JSON metadata entry (config, final lambda, version)."""
    arrays = _arrays(model)
    meta = {"version": CHECKPOINT_VERSION, "final_lambda": model.final_lambda,
            "config": dataclasses.asdict(model.cfg)}
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    write_atomic(path, buf.getvalue())


def load_checkpoint(path) -> TrainedModel:
    """A checkpoint of this version or of version 1, which kept each head of
    task.layer{l}.{W,a,w} under task.layer{l}.head{k}.{W,a,w} (w of shape
    (1,)). A missing array is a KeyError, an unexpected one a ValueError."""
    with np.load(Path(path), allow_pickle=False) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    if meta["version"] not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    cfg = typed_config(TrainConfig, meta["config"])
    d, c = arrays["mask.proj_w"].shape[1], arrays["task.out_w"].shape[0]
    model = TrainedModel(
        init_tasknet(d, c, cfg.tasknet, np.random.default_rng(0)),
        init_masknet(d, cfg.mask_d_prime, cfg.mask_hidden,
                     np.random.default_rng(0)), cfg, meta["final_lambda"])
    heads = range(cfg.tasknet.heads) if meta["version"] == 1 else ()
    for key, arr in _arrays(model).items():
        if heads and key.startswith("task.layer"):      # e.g. task.layer0.W
            join = np.concatenate if key.endswith(".w") else np.stack
            arr[...] = join([arrays.pop(f"{key[:-2]}.head{k}{key[-2:]}")
                             for k in heads])
        else:
            arr[...] = arrays.pop(key)
    if arrays:
        raise ValueError(f"unexpected arrays {sorted(arrays)}")
    return model
