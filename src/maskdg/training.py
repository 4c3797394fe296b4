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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .enrich import EnrichConfig, EnrichedGraph, Enricher
from .gradients import grad_masknet, grad_tasknet
from .graph import UNLABELED, DomainDataset, EdgeOrigin, Graph
from .masknet import EdgeMask, MaskNetParams, init_masknet, mask_forward
from .optim import AdamState, adam_step
from .tasknet import (TaskNetConfig, TaskNetParams, init_tasknet,
                      tasknet_forward)


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    dual_rho: Optional[float] = None  # enables dual ascent of lambda
    dual_step: float = 0.0
    inference_mask_mode: str = "all-ones"   # or "masknet"

    def __post_init__(self):
        if self.epochs < 0 or self.n_descent < 1 or self.n_ascent < 1:
            raise ValueError("epochs >= 0, n_descent >= 1, n_ascent >= 1")
        if self.sparsity < 0:
            raise ValueError("sparsity must be >= 0")
        if self.mask_d_prime < 1 or self.mask_hidden < 1:
            raise ValueError("mask_d_prime and mask_hidden must be >= 1")
        if self.inference_mask_mode not in ("all-ones", "masknet"):
            raise ValueError("inference_mask_mode must be all-ones or masknet")
        if self.dual_rho is not None:
            if not (0 < self.dual_rho <= 1):
                raise ValueError("dual_rho must lie in (0, 1]")
            if self.dual_step <= 0:
                raise ValueError("dual ascent needs a positive dual_step")


@dataclass
class Metrics:
    micro_f1: float
    macro_f1: float
    accuracy: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class MaskStats:
    pruned_aug_pct: Optional[float]
    pruned_orig_pct: Optional[float]
    retained_aug_pct: Optional[float]
    threshold: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class EpochRecord:
    epoch: int
    task_loss: float
    mask_objective: Optional[float]
    mean_mask: Optional[float]
    lam: float
    descent_steps: int
    ascent_steps: int


@dataclass
class TrainedModel:
    task: TaskNetParams
    mask: MaskNetParams
    cfg: TrainConfig
    final_lambda: float


@dataclass
class TrainResult:
    model: TrainedModel
    history: List[EpochRecord]


def dual_ascent_lambda(lam: float, mean_s: float, rho: float,
                       step: float) -> float:
    """Projected multiplier update: lam + step * (mean_s - rho), clipped at 0."""
    if step <= 0:
        raise ValueError("dual step must be positive")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    return max(0.0, lam + step * (mean_s - rho))


def f1_metrics(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> Metrics:
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
    return Metrics(micro_f1=acc, macro_f1=float(np.mean(per_class)), accuracy=acc)


def mask_statistics(enriched, mask: EdgeMask, threshold: float = 0.5) -> MaskStats:
    """Fraction of edges falling below the prune threshold, split into the
    original topology versus the feature-derived additions."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    edges = np.asarray(enriched.enriched_edges)
    scorable = mask.scorable
    origins = edges[:, 2]
    values = mask.values
    is_orig = scorable & (origins == int(EdgeOrigin.ORIGINAL))
    is_aug = scorable & ((origins == int(EdgeOrigin.KNN))
                         | (origins == int(EdgeOrigin.SPECTRAL)))

    def pruned_pct(sel):
        if not sel.any():
            return None
        return 100.0 * float(np.mean(values[sel] < threshold))

    aug = pruned_pct(is_aug)
    return MaskStats(
        pruned_aug_pct=aug,
        pruned_orig_pct=pruned_pct(is_orig),
        retained_aug_pct=None if aug is None else 100.0 - aug,
        threshold=threshold,
    )


def _mask_or_ones(model_mask, X, edges, enabled: bool) -> np.ndarray:
    if not enabled:
        return np.ones(edges.shape[0])
    return mask_forward(model_mask, X, edges).values


def inference_graph(cfg: TrainConfig, graph: Graph) -> EnrichedGraph:
    """The deterministic inference edge set of `graph`: the training
    config's enrichment with every nonzero sampling ratio forced to 1, and
    the spectral k-means seeded from the config seed."""
    e_cfg = replace(cfg.enrich,
                    gamma_knn=1.0 if cfg.enrich.gamma_knn > 0 else 0.0,
                    gamma_spec=1.0 if cfg.enrich.gamma_spec > 0 else 0.0)
    rng = np.random.default_rng(cfg.seed)
    return Enricher(graph, e_cfg, rng).sample(rng)


def evaluate(model: TrainedModel, graph: Graph,
             mask_mode: Optional[str] = None) -> Metrics:
    """Score the inference graph of `graph` with dropout off.

    The mask is all-ones by default; "masknet" applies the trained scorer
    instead.
    """
    cfg = model.cfg
    mode = mask_mode or cfg.inference_mask_mode
    if not cfg.mask_enabled:
        mode = "all-ones"      # the scorer was never trained
    edges = inference_graph(cfg, graph).enriched_edges
    if mode == "masknet":
        mask_values = mask_forward(model.mask, graph.features, edges).values
    else:
        mask_values = np.ones(edges.shape[0])
    logits = tasknet_forward(model.task, graph.features, edges, mask_values,
                             cfg.tasknet)
    preds = logits.argmax(axis=1)
    return f1_metrics(graph.labels, preds, graph.num_classes)


def aggregate_metrics(per_domain: Dict[str, Metrics]) -> dict:
    """Worst-case and average micro/macro across domains."""
    micros = [m.micro_f1 for m in per_domain.values()]
    macros = [m.macro_f1 for m in per_domain.values()]
    return {
        "per_domain": {k: m.to_dict() for k, m in per_domain.items()},
        "worst_micro_f1": min(micros),
        "avg_micro_f1": float(np.mean(micros)),
        "worst_macro_f1": min(macros),
        "avg_macro_f1": float(np.mean(macros)),
    }


def tasknet_descent_step(task: TaskNetParams, s: np.ndarray,
                         X: np.ndarray, edges: np.ndarray, labels: np.ndarray,
                         cfg: TrainConfig, state: AdamState,
                         dropout_rng: Optional[np.random.Generator] = None) -> float:
    """One Adam update of the classifier against the mask values `s`, held
    constant. Returns the loss."""
    bundle = grad_tasknet(task, X, edges, s, labels, cfg.tasknet, dropout_rng)
    if not np.isfinite(bundle.loss):
        raise FloatingPointError(f"loss={bundle.loss!r}")
    adam_step(state, task.named(), bundle.grads, cfg.lr_task,
              cfg.weight_decay_task, cfg.adam_beta1, cfg.adam_beta2,
              cfg.adam_eps)
    return bundle.loss


def masknet_ascent_step(task: TaskNetParams, maskp: MaskNetParams,
                        X: np.ndarray, edges: np.ndarray, labels: np.ndarray,
                        lam: float, cfg: TrainConfig, state: AdamState,
                        dropout_rng: Optional[np.random.Generator] = None) -> float:
    """One Adam update of the scorer against the frozen classifier,
    minimizing -loss + lam * mean(s). Returns the objective value."""
    bundle = grad_masknet(task, maskp, X, edges, labels, lam, cfg.tasknet,
                          dropout_rng)
    if not np.isfinite(bundle.objective):
        raise FloatingPointError(f"objective={bundle.objective!r}")
    adam_step(state, maskp.named(), bundle.grads, cfg.lr_mask, 0.0,
              cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    return bundle.objective


def train(dataset: DomainDataset, cfg: TrainConfig) -> TrainResult:
    """Run the alternating optimization over all source domains."""
    sources = dataset.source_graphs
    d = sources[0].num_features
    c = sources[0].num_classes

    ss = np.random.SeedSequence(cfg.seed)
    s_task, s_mask, s_enrich, s_loop = ss.spawn(4)
    task = init_tasknet(d, c, cfg.tasknet, np.random.default_rng(s_task))
    maskp = init_masknet(d, cfg.mask_d_prime, cfg.mask_hidden,
                         np.random.default_rng(s_mask))
    enrichers = [Enricher(g, cfg.enrich, np.random.default_rng(child))
                 for g, child in zip(sources, s_enrich.spawn(len(sources)))]
    loop_rng = np.random.default_rng(s_loop)

    task_state = AdamState()
    mask_state = AdamState()
    lam = cfg.sparsity
    history: List[EpochRecord] = []

    use_dropout = (cfg.tasknet.attn_dropout > 0 or cfg.tasknet.layer_dropout > 0)
    for epoch in range(cfg.epochs):
        losses, objectives, means = [], [], []
        descent_count = ascent_count = 0
        for dom_idx, g in enumerate(sources):
            enriched = enrichers[dom_idx].sample(loop_rng)
            edges = enriched.enriched_edges
            X, labels = g.features, g.labels
            drng = loop_rng if use_dropout else None
            try:
                # the scorer and the edges are fixed across the descent steps
                s = _mask_or_ones(maskp, X, edges, cfg.mask_enabled)
                for _ in range(cfg.n_descent):
                    losses.append(tasknet_descent_step(
                        task, s, X, edges, labels, cfg, task_state, drng))
                    descent_count += 1
                if cfg.mask_enabled:
                    for _ in range(cfg.n_ascent):
                        objectives.append(masknet_ascent_step(
                            task, maskp, X, edges, labels, lam, cfg,
                            mask_state, drng))
                        ascent_count += 1
                    final_mask = mask_forward(maskp, X, edges)
                    means.append(final_mask.mean_scorable())
                    if cfg.dual_rho is not None:
                        lam = dual_ascent_lambda(lam, means[-1], cfg.dual_rho,
                                                 cfg.dual_step)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"non-finite value at epoch {epoch}, domain "
                    f"{g.domain_id!r}: {exc}") from exc
        history.append(EpochRecord(
            epoch=epoch,
            task_loss=float(np.mean(losses)) if losses else float("nan"),
            mask_objective=float(np.mean(objectives)) if objectives else None,
            mean_mask=float(np.mean(means)) if means else None,
            lam=lam,
            descent_steps=descent_count,
            ascent_steps=ascent_count,
        ))

    model = TrainedModel(task=task, mask=maskp, cfg=cfg, final_lambda=lam)
    return TrainResult(model=model, history=history)


def final_mean_mask(model: TrainedModel, graphs: Sequence[Graph]) -> float:
    """Mean scorable mask value over the inference graphs of `graphs`."""
    vals = [mask_forward(model.mask, g.features,
                         inference_graph(model.cfg, g).enriched_edges
                         ).mean_scorable()
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
            m = evaluate(result.model, dataset.target_graph)
            row.update(m.to_dict())
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
            row.update(evaluate(result.model, dataset.target_graph).to_dict())
        rows.append(row)
    return rows


# -- config and checkpoint serialization -----------------------------------

def config_to_dict(cfg: TrainConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["enrich"] = dataclasses.asdict(cfg.enrich)
    out["tasknet"] = dataclasses.asdict(cfg.tasknet)
    return out


def config_from_dict(data: dict) -> TrainConfig:
    data = dict(data)
    enrich = EnrichConfig(**data.pop("enrich", {}))
    tasknet = TaskNetConfig(**data.pop("tasknet", {}))
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(enrich=enrich, tasknet=tasknet, **data)


CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: TrainedModel) -> None:
    """Single-file npz: parameter tensors under task./mask. prefixes plus a
    JSON metadata entry (config, final lambda, version)."""
    arrays = {}
    for name, arr in model.task.named():
        arrays[f"task.{name}"] = arr
    for name, arr in model.mask.named():
        arrays[f"mask.{name}"] = arr
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(model.cfg),
        "final_lambda": model.final_lambda,
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path) -> TrainedModel:
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        cfg = config_from_dict(meta["config"])
        d = data["mask.proj_w"].shape[1]
        c = data["task.out_w"].shape[0]
        task = init_tasknet(d, c, cfg.tasknet, np.random.default_rng(0))
        maskp = init_masknet(d, cfg.mask_d_prime, cfg.mask_hidden,
                             np.random.default_rng(0))
        for name, arr in task.named():
            arr[...] = data[f"task.{name}"]
        for name, arr in maskp.named():
            arr[...] = data[f"mask.{name}"]
    return TrainedModel(task=task, mask=maskp, cfg=cfg,
                        final_lambda=meta["final_lambda"])
