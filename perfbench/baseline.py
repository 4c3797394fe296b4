"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Every workload runs untraced on seeds 1-10 and traced on seed 0. Each run
is `perfbench/run.py` in its own process, exactly as the benchmark command
runs it. For every workload and end-to-end metric the output gives
the values, their median and quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median; for every workload the per-layer metrics of one
traced run; the environment; and which end-to-end metric each layer should
move, on which workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))
TRACE_SEED = 0

# Which end-to-end metric each group of layer metrics should move, where it
# does most of its work, and where it should be absent or small.
LAYER_MAP = [
    {"layers": ["autodiff.*", "gradients.*", "optim.*",
                "training.tasknet_descent_step.*",
                "training.masknet_ascent_step.*"],
     "moves": ["run_s"], "works_in": ["dg_2x2"],
     "absent_in": ["citation_eval", "duality_grid"]},
    {"layers": ["tasknet.tasknet_forward_var.*"],
     "moves": ["run_s"], "works_in": ["dg_2x2", "citation_eval"],
     "absent_in": ["duality_grid"]},
    {"layers": ["tasknet.loss_over_masks.*", "theory.*"],
     "moves": ["run_s"], "works_in": ["duality_grid"],
     "absent_in": ["dg_2x2", "citation_eval"]},
    {"layers": ["enrich.*", "graph.coalesce.*"],
     "moves": ["run_s", "peak_rss_mb"], "works_in": ["citation_eval"],
     "absent_in": ["duality_grid"], "small_in": ["dg_2x2"]},
    {"layers": ["masknet.*"],
     "moves": ["run_s"], "works_in": ["citation_eval", "dg_2x2"],
     "absent_in": ["duality_grid"]},
    {"layers": ["cli.main.*", "graph.load_graph.*"],
     "moves": ["run_s"], "works_in": ["citation_eval"],
     "absent_in": ["dg_2x2", "duality_grid"]},
]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"command": spec["command"], "run_seconds": seconds,
           "seeds": SEEDS, "layer_map": LAYER_MAP, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v
                                   in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(workload, TRACE_SEED, seconds, 1)
        out["env"] = traced["env"]
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summarize(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
            "per_layer": {"seed": TRACE_SEED,
                          **{k: v["value"]
                             for k, v in traced["metrics"].items()}},
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"  {name:12s} median {s['median']:.6g} spread "
                  f"{s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
