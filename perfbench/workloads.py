"""The three benchmark workloads, driven from outside through maskdg's
public functions.

Each workload has a set-up function `setup_<name>(seed, tiny, workdir)` that
builds every input from the seed alone and returns a case object with:

* `run()` - one timed iteration; returns the iteration's output;
* `check(output, first)` - names of the output checks that failed, given
  this iteration's output and the first iteration's (for repeatability);
* `report(output, run_s)` - workload-specific figures printed beside the
  end-to-end metrics, as {name: (value, unit)}.

The program only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

from maskdg import cli, theory, training
from maskdg.enrich import EnrichConfig
from maskdg.graph import DomainDataset, EdgeOrigin, make_edges, save_graph
from maskdg.masknet import init_masknet
from maskdg.synth import SynthConfig, generate
from maskdg.tasknet import TaskNetConfig, init_tasknet

# The acceptance harness configuration of the criterion-8 study, run for
# DG_EPOCHS epochs instead of the harness's 20: the epochs are identical
# work, and a run needs many short iterations to be steady on a noisy host.
DG_EPOCHS = 2
HARNESS_ENRICH = EnrichConfig(k=5, clusters=6, gamma_knn=0.3, gamma_spec=0.3)
HARNESS_TASKNET = TaskNetConfig(layers=2, heads=4, head_dim=8,
                                attn_dropout=0.0, layer_dropout=0.0)


def _f1_ok(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) \
        and 0.0 <= value <= 1.0


# -- dg_2x2: one leave-one-out scenario of the {original, union} x
#    {no-mask, mask} study --------------------------------------------------

def adam_steps_2x2(cfg: training.TrainConfig, num_sources: int) -> int:
    """Adam steps one ablate_2x2 takes: two no-mask cells (descent only) and
    two mask cells (descent plus ascent)."""
    per_domain_epoch = 2 * cfg.n_descent + 2 * (cfg.n_descent + cfg.n_ascent)
    return cfg.epochs * num_sources * per_domain_epoch


@dataclass
class DG2x2:
    dataset: DomainDataset
    cfg: training.TrainConfig
    steps: int

    def run(self) -> List[dict]:
        return training.ablate_2x2(self.dataset, self.cfg)

    def check(self, rows, first) -> List[str]:
        failed = []
        if len(rows) != 4:
            failed.append(f"row_count={len(rows)}")
        for row in rows:
            for key in ("micro_f1", "macro_f1", "accuracy"):
                if not _f1_ok(row.get(key)):
                    failed.append(f"f1_range:{row.get('structure')}+"
                                  f"{row.get('masking')}:{key}")
        if first is not None and rows != first:
            failed.append("rows_differ_from_first_iteration")
        return failed

    def report(self, rows, run_s) -> dict:
        union_mask = [r for r in rows if (r["structure"], r["masking"])
                      == ("union", "mask")]
        out = {"steps_per_s": (self.steps / run_s, "1/s")}
        if union_mask:
            out["heldout_micro_f1"] = (union_mask[0]["micro_f1"], "ratio")
        return out


def setup_dg_2x2(seed: int, tiny: bool, workdir: Path) -> DG2x2:
    nodes = 30 if tiny else 120
    graphs = generate(SynthConfig(seed=seed,
                                  nodes_per_domain=nodes)).source_graphs
    dataset = DomainDataset(graphs[:2], graphs[2])
    cfg = training.TrainConfig(
        epochs=1 if tiny else DG_EPOCHS, lr_task=5e-3, lr_mask=5e-3,
        n_descent=5, n_ascent=1, enrich=HARNESS_ENRICH,
        tasknet=HARNESS_TASKNET, mask_d_prime=16, mask_hidden=8, seed=seed,
        inference_mask_mode="masknet")
    return DG2x2(dataset, cfg, adam_steps_2x2(cfg, len(dataset.source_graphs)))


# -- citation_eval: `maskdg eval` in-process at citation scale ----------------

@dataclass
class CitationEval:
    checkpoint: Path
    graph: Path
    workdir: Path

    def run(self) -> dict:
        out = Path(tempfile.mkdtemp(prefix="eval-", dir=self.workdir))
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(["eval", "--checkpoint", str(self.checkpoint),
                                 "--graph", str(self.graph),
                                 "--out", str(out)])
            path = out / "metrics.json"
            metrics = path.read_bytes() if path.exists() else b""
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"code": code, "stderr": stderr.getvalue(), "metrics": metrics}

    def check(self, result, first) -> List[str]:
        failed = []
        if result["code"] != 0:
            failed.append(f"exit_code={result['code']}")
        if "Traceback" in result["stderr"]:
            failed.append("traceback_on_stderr")
        try:
            payload = json.loads(result["metrics"])
            for mode in ("all-ones", "masknet"):
                for key in ("micro_f1", "macro_f1", "accuracy"):
                    if not _f1_ok(payload[mode][key]):
                        failed.append(f"f1_range:{mode}:{key}")
        except (ValueError, KeyError, TypeError):
            failed.append("metrics_json_unreadable")
        if first is not None and result["metrics"] != first["metrics"]:
            failed.append("metrics_json_differs_from_first_iteration")
        return failed

    def report(self, result, run_s) -> dict:
        return {}


# Nodes of the citation graph: Cora's sparsity, classes and a 16-feature
# slice at 800 rather than Cora's 2.7k nodes, so that one iteration takes
# about 1 s rather than 19 s (a run needs many short iterations to be
# steady on a noisy host) and enrichment still does most of the work.
CITATION_NODES = 800


def setup_citation_eval(seed: int, tiny: bool, workdir: Path) -> CitationEval:
    # Cora-like sparsity: 7 classes, about 5 directed edges per node.
    synth = SynthConfig(seed=seed,
                        nodes_per_domain=150 if tiny else CITATION_NODES,
                        num_classes=7, feature_dim=16, num_domains=1,
                        spurious_strength=0.005, backbone_degree=3.0)
    g = generate(synth).source_graphs[0]
    cfg = training.TrainConfig(
        enrich=EnrichConfig(k=10, clusters=7, gamma_knn=0.3, gamma_spec=0.3),
        tasknet=HARNESS_TASKNET, mask_d_prime=16, mask_hidden=8, seed=seed)
    rng = np.random.default_rng(seed)
    task = init_tasknet(g.num_features, g.num_classes, cfg.tasknet, rng)
    mask = init_masknet(g.num_features, cfg.mask_d_prime, cfg.mask_hidden, rng)
    case = CitationEval(workdir / "citation.ckpt", workdir / "citation.graph",
                        workdir)
    save_graph(g, case.graph)
    training.save_checkpoint(case.checkpoint, training.TrainedModel(
        task=task, mask=mask, cfg=cfg, final_lambda=cfg.sparsity))
    return case


# -- duality_grid: the criterion-4 weak-duality oracle ------------------------

DUALITY_LAMBDAS = (0.0, 0.5, 1.0, 5.0)


def grid_size(m: int, resolution: float) -> int:
    """Masks in the grid {0, resolution, ..., 1}^m, counted as the oracle
    lays it out."""
    return np.arange(0.0, 1.0 + resolution / 2, resolution).size ** m


@dataclass
class DualityGrid:
    loss_fn: Callable
    m: int
    resolution: float

    @property
    def masks(self) -> int:
        return grid_size(self.m, self.resolution)

    def run(self):
        return theory.dual_upper_bound(self.loss_fn, m=self.m, rho=0.5,
                                       lambda_grid=DUALITY_LAMBDAS,
                                       resolution=self.resolution, tol=1e-9)

    def check(self, report, first) -> List[str]:
        return [] if report.all_hold else ["weak_duality"]

    def report(self, report, run_s) -> dict:
        return {"masks_per_s": (self.masks / run_s, "1/s")}


def setup_duality_grid(seed: int, tiny: bool, workdir: Path) -> DualityGrid:
    """A seeded 3-node classifier over 4 scorable edges plus self-loops."""
    rng = np.random.default_rng(seed)
    n = 3
    edges = np.vstack([
        make_edges([(0, 1), (1, 2), (2, 0), (1, 0)], EdgeOrigin.ORIGINAL),
        make_edges([(j, j) for j in range(n)], EdgeOrigin.SELF_LOOP),
    ])
    cfg = TaskNetConfig(layers=1, heads=2, head_dim=3,
                        attn_dropout=0.0, layer_dropout=0.0)
    X = rng.normal(size=(n, 3))
    labels = rng.integers(0, 2, size=n)
    if len(set(labels.tolist())) < 2:
        labels[0] = 1 - labels[0]
    task = init_tasknet(3, 2, cfg, rng)
    fn = theory.tasknet_mask_loss_fn(task, X, edges, labels, cfg)
    return DualityGrid(fn, m=4, resolution=0.25 if tiny else 0.05)


SETUPS = {
    "dg_2x2": setup_dg_2x2,
    "citation_eval": setup_citation_eval,
    "duality_grid": setup_duality_grid,
}

# Set-ups timed together as one setup_s sample, so that each sample lasts
# 0.05 s or more at full size.
SETUP_BATCH = {
    "dg_2x2": 10,
    "citation_eval": 1,
    "duality_grid": 2000,
}
