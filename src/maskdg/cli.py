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
import functools
import hashlib
import json
import os
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import __version__, theory
from .enrich import EnrichConfig, Enricher
from .graph import (UNLABELED, DomainDataset, Graph, GraphFormatError,
                    edge_stats, load_dataset, load_graph, save_graph,
                    write_atomic)
from .masknet import dump_mask_csv, mask_forward
from .synth import SynthConfig, generate, verify_shift
from .training import (TrainConfig, TrainedModel, ablate_2x2, ablate_lambda,
                       evaluate, inference_graph, load_checkpoint,
                       mask_statistics, save_checkpoint, train, typed_config)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3

# One-pass BLAS products change their last bits with the thread count, so
# the manifest records these settings (None where unset).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end as ConfigError (exit 1);
    argparse itself would exit 2, the code of a numeric failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# -- config plumbing --------------------------------------------------------

def _flag_name(*parts) -> str:
    return "--" + "-".join(p.replace("_", "-") for p in parts)


def _add_config_flags(parser: argparse.ArgumentParser, cls, prefix=()) -> None:
    """One flag per dataclass field; a field whose default is a config gets
    prefixed flags for its own fields instead.

    Destinations carry a 'cfg::' marker so override keys are recognizable in
    the parsed namespace regardless of nesting depth.
    """
    for name, default in vars(cls()).items():
        if dataclasses.is_dataclass(default):
            _add_config_flags(parser, type(default), prefix + (name,))
            continue
        parser.add_argument(_flag_name(*prefix, name),
                            dest="::".join(("cfg",) + prefix + (name,)),
                            default=None, metavar="V")


def _seed(value: str) -> int:
    """The argparse type of --seed: a nonnegative int."""
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value!r}")
    return seed


def _coerce(value: str, default):
    """The flag string as the type of the field's default; raises ValueError
    when it does not parse as that type."""
    if isinstance(default, bool):
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if default is None:
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            return value
    return value


def _config_overrides(args, data: dict, defaults) -> None:
    """Write the parsed 'cfg::' flags into the (nested) dict `data`, each
    coerced to the type of its field's default in the config `defaults`."""
    for key, value in vars(args).items():
        if not key.startswith("cfg::") or value is None:
            continue
        parts = key.split("::")[1:]
        node = data
        for depth, p in enumerate(parts[:-1], 1):
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"bad configuration: "
                                  f"{'.'.join(parts[:depth])} must be an "
                                  f"object, got {node!r}")
        try:
            node[parts[-1]] = _coerce(
                value, functools.reduce(getattr, parts, defaults))
        except ValueError:
            raise ConfigError(f"{_flag_name(*parts)}: bad value {value!r}") \
                from None


def resolve_config(args, cls=TrainConfig):
    """The run's `cls` config: its defaults, updated from the --config file
    where the subcommand takes one, then from the flags; each value checked
    as a checkpoint's stored config is."""
    defaults = cls()
    data = dataclasses.asdict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        data.update(loaded)
    _config_overrides(args, data, defaults)
    try:
        return typed_config(cls, data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def read_graph_arg(spec: str) -> Graph:
    """A graph argument is either a serialized graph file or a
    'features.csv:edges.txt:labels.txt' triplet, whose domain id is the
    feature file's stem, undecodable bytes read as U+FFFD."""
    if ":" in spec and not Path(spec).exists():
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"expected file or feat:edges:labels, got {spec!r}")
        return load_dataset(parts[0], parts[1], parts[2],
                            domain_id=os.fsencode(Path(parts[0]).stem)
                            .decode(errors="replace"))
    return load_graph(spec)


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


def _check_run_graphs(cfg: EnrichConfig, graphs) -> None:
    """As _check_enrichable; each graph also needs a labeled node."""
    for g in graphs:
        if not (g.labels != UNLABELED).any():
            raise ConfigError(f"graph {g.domain_id!r} has no labeled node")
    _check_enrichable(cfg, graphs)


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
            "blas_threads": {var: os.environ.get(var)
                             for var in BLAS_THREAD_VARS},
        }
        self.manifest_path = self.out / "manifest.json"
        write_atomic(self.manifest_path, _json_bytes(manifest))
        self.manifest_sha = hashlib.sha256(
            self.manifest_path.read_bytes()).hexdigest()

    def write_json(self, name: str, payload: dict) -> Path:
        payload = dict(payload)
        payload["manifest_sha256"] = self.manifest_sha
        path = self.out / name
        write_atomic(path, _json_bytes(payload))
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        write_atomic(path, text)
        return path

    def finish(self, **extra) -> None:
        """Write timings.json: the run's wall seconds and any `extra`
        wall-clock entries, such as each oracle check's seconds."""
        write_atomic(self.out / "timings.json", _json_bytes({
            "subcommand": self.subcommand,
            "seconds": time.time() - self.started,
            **extra,
        }))


# -- subcommands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = resolve_config(args, SynthConfig)
    names = [f"domain{i}.graph" for i in range(cfg.num_domains)]
    ctx = RunContext(args.out, "synth", dataclasses.asdict(cfg), cfg.seed,
                     artifacts=names + ["shift_report.json"])
    ds = generate(cfg)
    for name, g in zip(names, ds.source_graphs):
        save_graph(g, ctx.out / name)
    report = verify_shift(ds) if ds.num_domains > 1 else {}
    # Names relative to --out, so the report does not depend on where it is.
    ctx.write_json("shift_report.json", {"graphs": names, "shift": report})
    ctx.finish()
    print(f"wrote {len(names)} domains to {ctx.out}")
    return EXIT_OK


def cmd_enrich(args) -> int:
    cfg = resolve_config(args, EnrichConfig)
    g = read_graph_arg(args.graph)
    _check_enrichable(cfg, [g])
    ctx = RunContext(args.out, "enrich",
                     {"enrich": dataclasses.asdict(cfg), "graph": args.graph},
                     args.seed, artifacts=["enriched.graph", "edge_stats.json"])
    rng = np.random.default_rng(args.seed)
    enriched = Enricher(g, cfg, rng).sample(rng).enriched_edges
    out_graph = dataclasses.replace(g, edges=enriched)
    path = ctx.out / "enriched.graph"
    save_graph(out_graph, path)
    stats = edge_stats(g, enriched)
    ctx.write_json("edge_stats.json", stats)
    ctx.finish()
    print(f"enriched graph -> {path}")
    for origin, count in stats["counts"].items():
        print(f"  {origin:10s} {count}")
    if stats["edge_increase_pct"] is not None:
        print(f"  increase   {stats['edge_increase_pct']:.1f}%")
    return EXIT_OK


def _load_sources_target(args, cfg: TrainConfig) -> DomainDataset:
    sources = tuple(read_graph_arg(s) for s in args.source)
    target = read_graph_arg(args.target) if args.target else None
    try:
        ds = DomainDataset(source_graphs=sources, target_graph=target)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _check_run_graphs(cfg.enrich, sources + ((target,) if target else ()))
    return ds


def _evaluate_modes(model: TrainedModel, graph: Graph) -> dict:
    """The metrics of `model` on `graph` under each inference mask mode."""
    return {mode: evaluate(model, graph, mask_mode=mode)
            for mode in ("all-ones", "masknet")}


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    ds = _load_sources_target(args, cfg)
    ctx = RunContext(args.out, "train", dataclasses.asdict(cfg), cfg.seed,
                     artifacts=["model.ckpt", "history.csv", "metrics.json",
                                "mask_dump.csv"])
    result = train(ds, cfg)
    ckpt = ctx.out / "model.ckpt"
    save_checkpoint(ckpt, result.model)

    lines = ["epoch,task_loss,mask_objective,mean_mask,lambda,descent_steps,ascent_steps"]
    lines += [",".join(map(repr, row.values())) for row in result.history]
    ctx.write_text("history.csv", "\n".join(lines) + "\n")

    g0 = ds.source_graphs[0]
    edges = inference_graph(cfg, g0)
    mask = mask_forward(result.model.mask, g0.features, edges)
    dump_mask_csv(ctx.out / "mask_dump.csv", edges, mask)
    metrics = {"final_lambda": result.model.final_lambda,
               "checkpoint": ckpt.name,
               "mask_stats": mask_statistics(edges, mask)}
    print(f"checkpoint -> {ckpt}")
    if ds.target_graph is not None:
        metrics["target"] = _evaluate_modes(result.model, ds.target_graph)
        print(json.dumps(metrics["target"], indent=2))
    ctx.write_json("metrics.json", metrics)
    ctx.finish()
    return EXIT_OK


def cmd_eval(args) -> int:
    model = read_checkpoint_arg(args.checkpoint)
    g = read_graph_arg(args.graph)
    for what, have, want in (("features", g.num_features,
                              model.mask.proj_w.shape[1]),
                             ("classes", g.num_classes,
                              model.task.out_w.shape[0])):
        if have != want:
            raise ConfigError(f"{args.graph}: {have} {what}, the checkpoint "
                              f"{want}")
    _check_run_graphs(model.cfg.enrich, [g])
    ctx = RunContext(args.out, "eval",
                     {"checkpoint": args.checkpoint, "graph": args.graph},
                     model.cfg.seed, artifacts=["metrics.json"])
    payload = _evaluate_modes(model, g)
    ctx.write_json("metrics.json", payload)
    ctx.finish()
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_ablate_lambda(args) -> int:
    cfg = resolve_config(args)
    ds = _load_sources_target(args, cfg)
    try:
        grid = [float(x) for x in args.grid.split(",")]
    except ValueError:
        raise ConfigError(f"--grid: bad value {args.grid!r}") from None
    if not all(0.0 <= lam < np.inf for lam in grid):
        raise ConfigError(f"--grid: sparsity values must be finite and >= 0, "
                          f"got {args.grid!r}")
    ctx = RunContext(args.out, "ablate-lambda",
                     {"train": dataclasses.asdict(cfg), "grid": grid}, cfg.seed,
                     artifacts=["lambda_table.json"])
    rows = ablate_lambda(ds, cfg, grid)
    ctx.write_json("lambda_table.json", {"rows": rows})
    ctx.finish()
    for r in rows:
        print(r)
    return EXIT_OK


def cmd_ablate_2x2(args) -> int:
    cfg = resolve_config(args)
    ds = _load_sources_target(args, cfg)
    ctx = RunContext(args.out, "ablate-2x2", dataclasses.asdict(cfg), cfg.seed,
                     artifacts=["ablation_2x2.json"])
    rows = ablate_2x2(ds, cfg)
    ctx.write_json("ablation_2x2.json", {"rows": rows})
    ctx.finish()
    for r in rows:
        print(r)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ctx = RunContext(args.out, "gradcheck", {}, args.seed,
                     artifacts=["gradcheck.json"])
    audit = theory.gradient_audit(args.seed)
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
    names = ([n for n in theory.ORACLES if getattr(args, n)]
             or list(theory.ORACLES))
    ctx = RunContext(args.out, "oracle", {"checks": names}, args.seed,
                     artifacts=["oracle.json"])
    results, seconds = {}, {}
    for name in names:
        start = time.perf_counter()
        results[name] = theory.ORACLES[name](args.seed).passed
        seconds[name] = time.perf_counter() - start
        print(f"{name:14s} {'PASS' if results[name] else 'FAIL'}")
    ctx.write_json("oracle.json", {"results": results})
    ctx.finish(checks=seconds)
    return EXIT_OK if all(results.values()) else EXIT_CHECK_FAILED


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_config_flags(p, EnrichConfig)
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--seed", type=_seed, default=0, help=seed_help)
    add_out(p)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("oracle", help="optimality and duality checks")
    for name in theory.ORACLES:
        p.add_argument(_flag_name(name), dest=name, action="store_true")
    p.add_argument("--seed", type=_seed, default=0, help=seed_help)
    add_out(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if os.environ.get("MASKDG_OUT") and hasattr(args, "out"):
            args.out = os.environ["MASKDG_OUT"]
        for arg in argv:
            try:
                os.fsencode(arg)
            except UnicodeEncodeError:
                raise ConfigError(f"argument {arg!r} cannot be encoded as a "
                                  f"file name") from None
        return args.func(args)
    except (ConfigError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
