"""Command-line entry point.

One executable, subcommand per workflow. Every run resolves its
configuration (file + flag overrides), writes a manifest first, then writes
artifacts that reference the manifest hash; given the same manifest the
metric artifacts are byte-identical. Wall-clock timings go to a separate
file so they never perturb the deterministic outputs.

Exit codes: 0 ok, 1 config/input error, 2 runtime numeric failure,
3 acceptance-style check failure (gradcheck / oracle).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import __version__, checks
from .enrich import EnrichConfig, Enricher
from .graph import (DomainDataset, Graph, GraphFormatError, edge_stats,
                    load_dataset, load_graph, save_graph)
from .masknet import dump_mask_csv, mask_forward
from .synth import SynthConfig, generate, verify_shift
from .tasknet import TaskNetConfig
from .training import (TrainConfig, TrainedModel, ablate_2x2, ablate_lambda,
                       config_from_dict, config_to_dict, evaluate,
                       inference_graph, load_checkpoint, mask_statistics,
                       save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3


class ConfigError(Exception):
    pass


# -- config plumbing --------------------------------------------------------

_SCALAR_TYPES = (int, float, str, bool)


def _flag_name(*parts) -> str:
    return "--" + "-".join(p.replace("_", "-") for p in parts)


def _add_config_flags(parser: argparse.ArgumentParser, cls, prefix=()) -> None:
    """One flag per dataclass field; nested configs get prefixed flags.

    Destinations carry a 'cfg::' marker so override keys are recognizable in
    the parsed namespace regardless of nesting depth.
    """
    for f in dataclasses.fields(cls):
        if f.name in ("enrich", "tasknet"):
            sub = {"enrich": EnrichConfig, "tasknet": TaskNetConfig}[f.name]
            _add_config_flags(parser, sub, prefix + (f.name,))
            continue
        parser.add_argument(_flag_name(*prefix, f.name),
                            dest="::".join(("cfg",) + prefix + (f.name,)),
                            default=None, metavar="V")


def _coerce(value: str, current):
    """The flag string as the type of the field's current value; raises
    ValueError when it does not parse as that type."""
    if isinstance(current, bool):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(current, int) and not isinstance(current, bool):
        return int(value)
    if isinstance(current, float):
        return float(value)
    if current is None:
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            return value
    return value


def _config_overrides(args, data: dict) -> None:
    """Write the parsed 'cfg::' flags into the (nested) dict `data`,
    coerced to each field's type."""
    for key, value in vars(args).items():
        if not key.startswith("cfg::") or value is None:
            continue
        parts = key.split("::")[1:]
        node = data
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        try:
            node[parts[-1]] = _coerce(value, node.get(parts[-1]))
        except ValueError:
            raise ConfigError(f"{_flag_name(*parts)}: bad value {value!r}") \
                from None


def resolve_train_config(args) -> TrainConfig:
    data = config_to_dict(TrainConfig())
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data.update(json.loads(path.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _config_overrides(args, data)
    try:
        return config_from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def read_graph_arg(spec: str) -> Graph:
    """A graph argument is either a serialized graph file or a
    'features.csv:edges.txt:labels.txt' triplet."""
    if ":" in spec and not Path(spec).exists():
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"expected file or feat:edges:labels, got {spec!r}")
        return load_dataset(parts[0], parts[1], parts[2],
                            domain_id=Path(parts[0]).stem)
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"graph file not found: {path}")
    return load_graph(path)


def read_checkpoint_arg(spec: str) -> TrainedModel:
    path = Path(spec)
    try:
        return load_checkpoint(path)
    except (OSError, EOFError, zipfile.BadZipFile, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"{path}: not a readable checkpoint ({exc})") from None


def _check_enrichable(cfg: EnrichConfig, graphs) -> None:
    """Reject, before any work starts, a graph the enrichment config cannot
    be applied to."""
    for g in graphs:
        try:
            cfg.check_graph(g)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# -- manifest / artifacts -----------------------------------------------------

def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


class RunContext:
    """Output directory plus the manifest-before-results protocol."""

    def __init__(self, out_dir: Path, subcommand: str, config: dict, seed,
                 artifacts=()):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.started = time.time()
        self.subcommand = subcommand
        manifest = {
            "tool_version": __version__,
            "subcommand": subcommand,
            "config": config,
            "seed": seed,
            "artifacts": list(artifacts),
        }
        self.manifest_path = self.out / "manifest.json"
        self.manifest_path.write_bytes(_json_bytes(manifest))
        self.manifest_sha = hashlib.sha256(
            self.manifest_path.read_bytes()).hexdigest()

    def write_json(self, name: str, payload: dict) -> Path:
        payload = dict(payload)
        payload["manifest_sha256"] = self.manifest_sha
        path = self.out / name
        path.write_bytes(_json_bytes(payload))
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text)
        return path

    def finish(self) -> None:
        (self.out / "timings.json").write_bytes(_json_bytes({
            "subcommand": self.subcommand,
            "seconds": time.time() - self.started,
        }))


# -- subcommands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    data = dataclasses.asdict(SynthConfig())
    _config_overrides(args, data)
    try:
        cfg = SynthConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synth settings: {exc}") from None
    ctx = RunContext(args.out, "synth", dataclasses.asdict(cfg), cfg.seed)
    ds = generate(cfg)
    paths = []
    for g in ds.source_graphs:
        p = ctx.out / f"{g.domain_id}.graph"
        save_graph(g, p)
        paths.append(str(p))
    report = verify_shift(ds) if ds.num_domains > 1 else {}
    ctx.write_json("shift_report.json", {"graphs": paths, "shift": report})
    ctx.finish()
    print(f"wrote {len(paths)} domains to {ctx.out}")
    return EXIT_OK


def cmd_enrich(args) -> int:
    try:
        cfg = EnrichConfig(k=args.k, clusters=args.clusters,
                           gamma_knn=args.gamma_knn, gamma_spec=args.gamma_spec)
    except ValueError as exc:
        raise ConfigError(f"bad enrichment settings: {exc}") from None
    g = read_graph_arg(args.graph)
    _check_enrichable(cfg, [g])
    ctx = RunContext(args.out, "enrich",
                     {"enrich": dataclasses.asdict(cfg), "graph": args.graph},
                     args.seed)
    rng = np.random.default_rng(args.seed)
    enriched = Enricher(g, cfg, rng).sample(rng)
    out_graph = Graph(g.features, enriched.enriched_edges, g.labels,
                      g.num_classes, g.domain_id)
    path = ctx.out / "enriched.graph"
    save_graph(out_graph, path)
    stats = edge_stats(g, enriched)
    ctx.write_json("edge_stats.json", stats.to_dict())
    ctx.finish()
    print(f"enriched graph -> {path}")
    for origin, count in stats.counts.items():
        print(f"  {origin:10s} {count}")
    if stats.edge_increase_pct is not None:
        print(f"  increase   {stats.edge_increase_pct:.1f}%")
    return EXIT_OK


def _load_sources_target(args, cfg: TrainConfig) -> DomainDataset:
    sources = tuple(read_graph_arg(s) for s in args.source)
    target = read_graph_arg(args.target) if args.target else None
    _check_enrichable(cfg.enrich, sources + ((target,) if target else ()))
    return DomainDataset(source_graphs=sources, target_graph=target)


def cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    ds = _load_sources_target(args, cfg)
    ctx = RunContext(args.out, "train", config_to_dict(cfg), cfg.seed,
                     artifacts=["model.ckpt", "history.csv", "metrics.json",
                                "mask_dump.csv"])
    result = train(ds, cfg)
    ckpt = ctx.out / "model.ckpt"
    save_checkpoint(ckpt, result.model)

    lines = ["epoch,task_loss,mask_objective,mean_mask,lambda,descent_steps,ascent_steps"]
    for r in result.history:
        lines.append(f"{r.epoch},{r.task_loss!r},{r.mask_objective!r},"
                     f"{r.mean_mask!r},{r.lam!r},{r.descent_steps},{r.ascent_steps}")
    ctx.write_text("history.csv", "\n".join(lines) + "\n")

    metrics = {"final_lambda": result.model.final_lambda,
               "checkpoint": ckpt.name}
    g0 = ds.source_graphs[0]
    enriched = inference_graph(cfg, g0)
    mask = mask_forward(result.model.mask, g0.features, enriched.enriched_edges)
    dump_mask_csv(ctx.out / "mask_dump.csv", enriched.enriched_edges, mask)
    metrics["mask_stats"] = mask_statistics(enriched, mask).to_dict()
    if ds.target_graph is not None:
        for mode in ("all-ones", "masknet"):
            m = evaluate(result.model, ds.target_graph, mask_mode=mode)
            metrics[f"target_{mode.replace('-', '_')}"] = m.to_dict()
    ctx.write_json("metrics.json", metrics)
    ctx.finish()
    print(f"checkpoint -> {ckpt}")
    if ds.target_graph is not None:
        print(json.dumps({k: v for k, v in metrics.items()
                          if k.startswith("target_")}, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = read_checkpoint_arg(args.checkpoint)
    g = read_graph_arg(args.graph)
    _check_enrichable(model.cfg.enrich, [g])
    ctx = RunContext(args.out, "eval",
                     {"checkpoint": args.checkpoint, "graph": args.graph},
                     model.cfg.seed)
    payload = {}
    for mode in ("all-ones", "masknet"):
        payload[mode] = evaluate(model, g, mask_mode=mode).to_dict()
    ctx.write_json("metrics.json", payload)
    ctx.finish()
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_ablate_lambda(args) -> int:
    cfg = resolve_train_config(args)
    ds = _load_sources_target(args, cfg)
    try:
        grid = [float(x) for x in args.grid.split(",")]
    except ValueError:
        raise ConfigError(f"--grid: bad value {args.grid!r}") from None
    if not all(0.0 <= lam < np.inf for lam in grid):
        raise ConfigError(f"--grid: sparsity values must be finite and >= 0, "
                          f"got {args.grid!r}")
    ctx = RunContext(args.out, "ablate-lambda",
                     {"train": config_to_dict(cfg), "grid": grid}, cfg.seed)
    rows = ablate_lambda(ds, cfg, grid)
    ctx.write_json("lambda_table.json", {"rows": rows})
    header = sorted({k for r in rows for k in r})
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(repr(r.get(k)) for k in header))
    ctx.write_text("lambda_table.csv", "\n".join(lines) + "\n")
    ctx.finish()
    for r in rows:
        print(r)
    return EXIT_OK


def cmd_ablate_2x2(args) -> int:
    cfg = resolve_train_config(args)
    ds = _load_sources_target(args, cfg)
    ctx = RunContext(args.out, "ablate-2x2", config_to_dict(cfg), cfg.seed)
    rows = ablate_2x2(ds, cfg)
    ctx.write_json("ablation_2x2.json", {"rows": rows})
    ctx.finish()
    for r in rows:
        print(r)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ctx = RunContext(args.out, "gradcheck", {}, args.seed)
    audit = checks.gradient_audit(args.seed)
    print("\n".join([*audit.tasknet.lines(), *audit.masknet.lines()]))
    ctx.write_json("gradcheck.json", {
        "tasknet": audit.tasknet.per_tensor,
        "masknet": audit.masknet.per_tensor,
        "tol": audit.tasknet.tol, "passed": audit.passed,
    })
    ctx.finish()
    print("gradcheck:", "PASS" if audit.passed else "FAIL")
    return EXIT_OK if audit.passed else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    names = ([n for n in checks.ORACLES if getattr(args, n)]
             or list(checks.ORACLES))
    ctx = RunContext(args.out, "oracle", {"checks": names}, args.seed)
    results = {n: checks.ORACLES[n](args.seed).passed for n in names}
    for name, ok in results.items():
        print(f"{name:14s} {'PASS' if ok else 'FAIL'}")
    ctx.write_json("oracle.json", {"results": results})
    ctx.finish()
    return EXIT_OK if all(results.values()) else EXIT_CHECK_FAILED


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskdg",
        description="Adversarial edge masking on enriched graphs for "
                    "domain-generalizing node classification.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default="maskdg_out",
                       help="output directory (env MASKDG_OUT overrides)")

    p = subs.add_parser("synth", help="generate a multi-domain dataset")
    _add_config_flags(p, SynthConfig)
    add_out(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("enrich", help="build the feature-enriched graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--clusters", type=int, default=100)
    p.add_argument("--gamma-knn", type=float, default=0.1)
    p.add_argument("--gamma-spec", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_enrich)

    for name, fn, needs_grid in (("train", cmd_train, False),
                                 ("ablate-lambda", cmd_ablate_lambda, True),
                                 ("ablate-2x2", cmd_ablate_2x2, False)):
        p = subs.add_parser(name)
        p.add_argument("--config", help="JSON training config")
        p.add_argument("--source", action="append", required=True,
                       help="source graph (repeatable)")
        p.add_argument("--target", help="held-out graph")
        if needs_grid:
            p.add_argument("--grid", default="0,1e-5,1e-4,1e-3,1e-2,1e-1",
                           help="comma-separated sparsity values")
        _add_config_flags(p, TrainConfig)
        add_out(p)
        p.set_defaults(func=fn)

    p = subs.add_parser("eval", help="score a checkpoint on a graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    add_out(p)
    p.set_defaults(func=cmd_eval)

    seed_help = "offset added to each check's pinned seed (0 runs the gate)"
    p = subs.add_parser("gradcheck", help="finite-difference audit")
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    add_out(p)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("oracle", help="optimality and duality checks")
    for name in checks.ORACLES:
        p.add_argument(_flag_name(name), dest=name, action="store_true")
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    add_out(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    import os

    parser = build_parser()
    args = parser.parse_args(argv)
    if os.environ.get("MASKDG_OUT") and hasattr(args, "out"):
        args.out = os.environ["MASKDG_OUT"]
    try:
        return args.func(args)
    except (ConfigError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
