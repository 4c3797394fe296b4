"""Record the benchmark over several seeds into BENCH_<tag>.json.

    python3 tools/bench_record.py --tag baseline --seeds 1 2 3

Run from anywhere; the benchmark runs from the repository root. For each
seed it runs `perfbench/run.py --workload all` twice: with `--trace 0` for
the end-to-end metrics, measured with tracing off, and with `--trace 1` for
the per-layer metrics. It reads each run's last-line JSON and its `env`
lines, and writes BENCH_<tag>.json at the repository root: for every
workload and metric the median across seeds, the quartiles and their
distance (IQR), the per-seed values, the seeds and the environment (numpy,
BLAS and its thread count, cores).

Exit codes: 0 when every run passed its checks, 1 when a run failed one,
2 when a run printed no result or the runs disagree on the environment.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


class RunError(Exception):
    pass


def run_bench(seed: int, trace: int) -> dict:
    """One `--workload all` run: its result JSON, with the environments its
    workloads printed under "envs"."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", "all", "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunError(f"{' '.join(cmd[1:])} printed no result "
                       f"(exit {proc.returncode})") from None
    result["envs"] = [json.loads(line[len("env "):]) for line in lines
                      if line.startswith("env ")]
    if not result["envs"]:
        raise RunError(f"{' '.join(cmd[1:])} printed no environment")
    return result


def spread(values: List[float]) -> dict:
    """Median, quartiles and IQR of the per-seed values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def summarise(plain: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Per workload, {"end_to_end": {...}, "per_layer": {...}}, each metric
    summarised across seeds (runs in seed order)."""
    out: Dict[str, dict] = {}
    for level, runs in (("end_to_end", plain), ("per_layer", traced)):
        for key in runs[0]["metrics"]:
            workload, metric = key.split(".", 1)
            values = [run["metrics"][key]["value"] for run in runs]
            figure = spread(values)
            figure["unit"] = runs[0]["metrics"][key]["unit"]
            out.setdefault(workload, {"end_to_end": {}, "per_layer": {}})
            out[workload][level][metric] = figure
    return out


def tag(value: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", value):
        raise argparse.ArgumentTypeError(f"not a file-name tag: {value!r}")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", type=tag, required=True,
                   help="names the output file BENCH_<tag>.json")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    plain, traced = [], []
    try:
        for seed in args.seeds:
            for trace, runs in ((0, plain), (1, traced)):
                runs.append(run_bench(seed, trace))
                print(f"seed {seed} trace {trace}: "
                      f"{runs[-1]['failed']} of {runs[-1]['attempted']} "
                      f"iterations failed", flush=True)
        envs = [env for run in plain + traced for env in run.pop("envs")]
        if any(env != envs[0] for env in envs):
            raise RunError(f"runs report different environments: {envs}")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs = plain + traced
    record = {
        "tag": args.tag,
        "command": "perfbench/run.py --workload all --trace 0|1",
        "seeds": args.seeds,
        "environment": envs[0],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "workloads": summarise(plain, traced),
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
