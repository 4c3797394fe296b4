"""Record the benchmark over several seeds into BENCH_<tag>.json.

    python3 tools/bench_record.py --tag baseline --seeds 1 2 3
    python3 tools/bench_record.py --tag ab --seeds 101 102 --against HEAD

Run from anywhere; the benchmark runs from the repository root, for the
`run_seconds` that BENCHMARK.json sets. For each seed and workload it runs
`perfbench/run.py --workload <name>` twice: with `--trace 0` for the
end-to-end metrics, measured with tracing off, and with `--trace 1` for
the per-layer metrics. It reads each run's last-line JSON and its `env`
lines, and writes BENCH_<tag>.json at the repository root: for every
workload and metric the median across seeds, the quartiles and their
distance (IQR), the per-seed values, the seeds, the commands and the
environment (numpy, BLAS and its thread count, cores). Each run that
failed a check is listed under "failures" with its side, workload, seed
and trace mode, its attempted and failed counts, and the names of the
checks it printed as `FAIL <workload> iteration <n>: <check>`.

`--against REV` also measures the committed files of REV, extracted by
`git archive` into a temporary directory, against the working tree: each
untraced run becomes a pair, REV and working tree each with its own
`perfbench/run.py`, the side that runs first alternating from seed to
seed. It also runs an A/A control: REV extracted a second time, into
another directory, run between REV and the working tree, so that each
seed gives a REV-against-REV pair at the same seed and run length. The
record gains an "against" entry: per workload and end-to-end metric, the
median and quartiles of each side, the pairs the working tree wins (ties
count for neither) and the ratio of its median to REV's; next to them,
under "control", the second copy's wins against REV, its ratio of medians
and its IQR, so that a claimed gain can be told from the spread two
copies of one program show; and each side's median reference kernel
time, so that it can be told from a change of the time scale. Pick seeds
not used while the change was built.

Every record also names the code the working tree ran, under "change":
its HEAD commit, the SHA-256 of `git diff HEAD --binary` and whether it
held untracked files, all read before the first run.

Exit codes: 0 when every run passed its checks, 1 when a run failed one,
2 when a run printed no result, the runs disagree on the environment, git
cannot describe the working tree or REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_LINE = re.compile(r"^\s+reference_s\s+(\S+)")
FAIL_LINE = re.compile(r"^FAIL \S+ iteration \d+: (.+)$")


class RunError(Exception):
    pass


def run_bench(root: Path, workload: str, seed: int, trace: int,
              seconds: float) -> dict:
    """One run of `root`'s benchmark: its result JSON, with the environment
    it printed under "envs", its median reference kernel time under
    "reference_s" and the checks it failed, one per FAIL line, under
    "checks"."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
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
    result["reference_s"] = [float(m.group(1)) for m in
                             map(REFERENCE_LINE.match, lines) if m]
    if not result["reference_s"]:
        raise RunError(f"{' '.join(cmd[1:])} printed no reference_s")
    result["checks"] = [m.group(1) for m in map(FAIL_LINE.match, lines) if m]
    return result


def spread(values: List[float]) -> dict:
    """Median, quartiles and IQR of the per-seed values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def summarise(plain: Dict[str, List[dict]],
              traced: Dict[str, List[dict]]) -> Dict[str, dict]:
    """Per workload, {"end_to_end": {...}, "per_layer": {...}}, each metric
    summarised across that workload's runs (in seed order)."""
    out: Dict[str, dict] = {}
    for level, by_workload in (("end_to_end", plain), ("per_layer", traced)):
        for workload, runs in by_workload.items():
            figures = out.setdefault(workload,
                                     {"end_to_end": {}, "per_layer": {}})
            for metric, first in runs[0]["metrics"].items():
                figure = spread([run["metrics"][metric]["value"]
                                 for run in runs])
                figure["unit"] = first["unit"]
                figures[level][metric] = figure
    return out


def compare(pairs: List[tuple], better: Dict[str, str],
            control: Optional[List[dict]] = None) -> dict:
    """The A/B of one workload from its (REV run, working-tree run) pairs:
    per end-to-end metric both sides' spreads, the working tree's wins out
    of the pairs and the ratio of its median to REV's, and, given the runs
    of a second copy of REV at the same seeds, that copy's wins, ratio and
    IQR against REV's runs under "control"; and each side's reference
    kernel times."""
    out = {"pairs": len(pairs), "metrics": {}}
    for metric, direction in better.items():
        sign = 1 if direction == "lower" else -1
        base = [a["metrics"][metric]["value"] for a, _ in pairs]

        def versus_base(runs):
            values = [run["metrics"][metric]["value"] for run in runs]
            return values, {
                "wins": sum(sign * (y - x) < 0 for x, y in zip(base, values)),
                "ratio_of_medians": (statistics.median(values)
                                     / statistics.median(base))}

        new, figures = versus_base(b for _, b in pairs)
        out["metrics"][metric] = {
            "unit": pairs[0][0]["metrics"][metric]["unit"],
            "better": direction,
            "against": spread(base),
            "change": spread(new),
            **figures,
        }
        if control is not None:
            copy, figures = versus_base(control)
            out["metrics"][metric]["control"] = {
                **figures, "iqr": spread(copy)["iqr"]}
    out["reference_s"] = {
        side: spread([run["reference_s"][0] for run in runs])
        for side, runs in zip(("against", "change"), zip(*pairs))}
    return out


def git(*args) -> bytes:
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise RunError(f"git {' '.join(args)}: "
                       f"{proc.stderr.decode().strip()}")
    return proc.stdout


def tree_state() -> dict:
    """The code the working tree holds: its HEAD commit, the SHA-256 of its
    diff against HEAD and whether it has untracked files."""
    return {
        "head": git("rev-parse", "--verify", "HEAD").decode().strip(),
        "diff_sha256": hashlib.sha256(
            git("diff", "HEAD", "--binary")).hexdigest(),
        "untracked": bool(git("ls-files", "--others", "--exclude-standard")),
    }


def extract(rev: str, dest: Path) -> str:
    """Write the files committed at `rev` into `dest`; returns the commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    # The "data" filter exists from Python 3.10.12 and 3.11.4 on; older
    # releases extract git's own archive unfiltered.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, **safe)
    return commit


def benchmark() -> dict:
    """BENCHMARK.json: the workloads, the run length and each end-to-end
    metric's better direction."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tag(value: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", value):
        raise argparse.ArgumentTypeError(f"not a file-name tag: {value!r}")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", type=tag, required=True,
                   help="names the output file BENCH_<tag>.json")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--against", metavar="REV",
                   help="also run alternating pairs against this commit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = benchmark()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    plain, traced, others, controls = ({name: [] for name in names}
                                       for _ in range(4))
    failures = []

    def bench(side: str, root: Path, name: str, seed: int,
              trace: int) -> dict:
        run = run_bench(root, name, seed, trace, seconds)
        checks = run.pop("checks")
        if run["failed"]:
            failures.append({
                "side": side, "workload": name, "seed": seed, "trace": trace,
                "attempted": run["attempted"], "failed": run["failed"],
                "checks": checks})
        return run

    commit = None
    try:
        change = tree_state()
        with tempfile.TemporaryDirectory() as tmp:
            sides = [("change", ROOT, plain)]
            if args.against is not None:
                commit = extract(args.against, Path(tmp) / "against")
                extract(commit, Path(tmp) / "control")
                sides = [("against", Path(tmp) / "against", others),
                         ("control", Path(tmp) / "control", controls),
                         *sides]
            for i, seed in enumerate(args.seeds):
                for name in names:
                    for side, root, into in (sides if i % 2 == 0
                                             else sides[::-1]):
                        into[name].append(bench(side, root, name, seed, 0))
                    traced[name].append(bench("change", ROOT, name, seed, 1))
                    print(f"seed {seed} {name}: run_s " + ", ".join(
                        f"{into[name][-1]['metrics']['run_s']['value']:.4g}"
                        f" {side}" for side, _, into in sides), flush=True)
        runs = [run for side in (plain, traced, others, controls)
                for workload in side.values() for run in workload]
        envs = [env for run in runs for env in run.pop("envs")]
        if any(env != envs[0] for env in envs):
            raise RunError(f"runs report different environments: {envs}")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    each = (f"perfbench/run.py --workload <workload> --seed <seed> "
            f"--seconds {seconds}")
    record = {
        "tag": args.tag,
        "command": f"{each} --trace 0|1, for each seed and workload",
        "seeds": args.seeds,
        "seconds": seconds,
        "environment": envs[0],
        "change": change,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "failures": failures,
        "workloads": summarise(plain, traced),
    }
    if commit is not None:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        record["against"] = {
            "rev": args.against, "commit": commit,
            "command": f"{each} --trace 0 from REV's files, from a second "
                       f"copy of them (the control) and from the working "
                       f"tree, for each seed and workload, in that order "
                       f"for the 1st, 3rd, ... seed and reversed for the "
                       f"others",
            "workloads": {name: compare(list(zip(others[name], plain[name])),
                                        better, controls[name])
                          for name in names}}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
