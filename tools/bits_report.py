"""Fingerprint the bits of maskdg's deterministic outputs.

    python3 tools/bits_report.py
    python3 tools/bits_report.py --against HEAD

Run from anywhere. In a child process at OPENBLAS_NUM_THREADS=1 (and the
other BLAS thread counts at 1), it computes and prints one SHA-256 per item:

* `dg_2x2 seed S`: the `ablate_2x2` rows of the dg_2x2 benchmark workload;
* `citation_eval seed S`: the `metrics.json` of the citation_eval benchmark
  workload, less `manifest_sha256` (the manifest records the environment);
* `weak_duality(K)`: the reports of `theory.weak_duality(K)`;

for S in 1, 5, 11 and K in 0, 1. Rows and reports are hashed as JSON with
sorted keys, and every float is written in its shortest exact form, so an
item changes exactly when one of its bits does. The workloads are built by
`perfbench/workloads.py`, as the benchmark builds them; `--tiny` builds
them at the benchmark's `--tiny` sizes instead.

`--against REV` also extracts the committed files of REV by `git archive`,
as `tools/bench_record.py` does, fingerprints them the same way, prints
both sides and lists the items that differ.

Exit codes: 0 when no item differs, 1 when one does, 2 when a child fails
or REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Dict

import bench_record

ROOT = bench_record.ROOT
SEEDS = (1, 5, 11)
DUALITY_SEEDS = (0, 1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class ChildError(Exception):
    pass


def plain(obj):
    """`obj` as JSON-ready values: dataclasses and namespaces as dicts of
    their fields, arrays as nested lists, dict keys as strings."""
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif isinstance(obj, SimpleNamespace):
        obj = vars(obj)
    if hasattr(obj, "tolist"):                   # numpy arrays and scalars
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def digest(obj) -> str:
    """SHA-256 of `obj` as sorted-key JSON; floats keep every bit through
    `repr`."""
    text = json.dumps(plain(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def items(tiny: bool) -> Dict[str, str]:
    """Every item's fingerprint, from the maskdg and `workloads` this
    process imports; runs in the child."""
    import workloads
    from maskdg import theory

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            case = workloads.setup_dg_2x2(seed, tiny, Path(tmp))
            out[f"dg_2x2 seed {seed}"] = digest(case.run())
        for seed in SEEDS:
            case = workloads.setup_citation_eval(seed, tiny, Path(tmp))
            result = case.run()
            if result["code"] != 0:
                raise ChildError(f"citation_eval seed {seed} exited "
                                 f"{result['code']}: {result['stderr']}")
            metrics = json.loads(result["metrics"])
            metrics.pop("manifest_sha256")
            out[f"citation_eval seed {seed}"] = digest(metrics)
    for seed in DUALITY_SEEDS:
        out[f"weak_duality({seed})"] = digest(theory.weak_duality(seed))
    return out


def fingerprint(root: Path, tiny: bool) -> Dict[str, str]:
    """`items` of the code under `root`, computed in a child process that
    imports maskdg from `root/src` and the workloads from `root/perfbench`
    with every BLAS thread count at 1."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        str(path) for path in (root / "src", root / "perfbench",
                               Path(__file__).parent))
    code = ("import json, bits_report; "
            f"print(json.dumps(bits_report.items({tiny!r})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        raise ChildError(f"fingerprinting {root} failed (exit "
                         f"{proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def differing(ours: Dict[str, str], theirs: Dict[str, str]) -> list:
    """The items whose fingerprints differ or that one side lacks."""
    return [name for name in sorted(set(ours) | set(theirs))
            if ours.get(name) != theirs.get(name)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV",
                   help="also fingerprint this commit and list what differs")
    p.add_argument("--tiny", action="store_true",
                   help="build the workloads at the benchmark's tiny sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ours = fingerprint(ROOT, args.tiny)
        theirs = None
        if args.against is not None:
            with tempfile.TemporaryDirectory() as tmp:
                commit = bench_record.extract(args.against, Path(tmp))
                theirs = fingerprint(Path(tmp), args.tiny)
    except (ChildError, bench_record.RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if theirs is None:
        for name, sha in ours.items():
            print(f"{sha}  {name}")
        return 0
    print(f"working tree against {args.against} ({commit[:12]}):")
    for name in ours:
        same = "same" if theirs.get(name) == ours[name] else "DIFFERS"
        print(f"{ours[name]}  {theirs.get(name, '-'):64s}  {same:7s}  {name}")
    changed = differing(ours, theirs)
    print("differ: " + (", ".join(changed) if changed else "none"))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
