import contextlib
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def run_result(**values):
    return {"metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def test_summary_takes_median_and_quartiles_across_seeds():
    plain = {"a": [run_result(run_s=v) for v in (4.0, 1.0, 3.0, 2.0, 5.0)]}
    traced = {"a": [run_result(**{"x.calls": 6.0}) for _ in range(5)]}
    summary = bench_record.summarise(plain, traced)
    run_s = summary["a"]["end_to_end"]["run_s"]
    assert run_s["median"] == 3.0
    assert (run_s["q1"], run_s["q3"], run_s["iqr"]) == (2.0, 4.0, 2.0)
    assert run_s["values"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert run_s["unit"] == "s"
    assert summary["a"]["per_layer"]["x.calls"]["iqr"] == 0.0


def test_one_seed_has_zero_spread():
    figure = bench_record.spread([0.5])
    assert (figure["median"], figure["q1"], figure["q3"], figure["iqr"]) \
        == (0.5, 0.5, 0.5, 0.0)


@pytest.mark.parametrize("tag", ["../up", "", "a/b", "-x"])
def test_tag_must_be_a_file_name(tag):
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--tag", tag, "--seeds", "1"])


# -- --against REV: alternating pairs ------------------------------------------

WORKLOADS = ("dg_2x2", "citation_eval", "duality_grid")


def timed(run_s, reference_s, rss=50.0):
    run = run_result(run_s=run_s, setup_s=0.01)
    run["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    run.update(attempted=3, failed=0, reference_s=[reference_s],
               envs=[{"numpy": "x"}], checks=[])
    return run


def test_compare_counts_wins_and_ratio_of_medians():
    pairs = [(timed(a, 0.03, 50.0), timed(b, 0.031, r))
             for a, b, r in ((1.0, 0.8, 50.0), (1.2, 0.9, 49.0),
                             (0.9, 1.0, 51.0), (1.1, 1.1, 50.0))]
    out = bench_record.compare(pairs, {"run_s": "lower",
                                       "peak_rss_mb": "lower"})
    run_s = out["metrics"]["run_s"]
    assert out["pairs"] == 4
    assert run_s["wins"] == 2                     # the tie counts for neither
    assert run_s["against"]["median"] == 1.05
    assert run_s["change"]["median"] == 0.95
    assert run_s["ratio_of_medians"] == 0.95 / 1.05
    assert out["metrics"]["peak_rss_mb"]["wins"] == 1
    assert out["reference_s"]["against"]["median"] == 0.03
    assert out["reference_s"]["change"]["median"] == 0.031
    higher = bench_record.compare(pairs, {"run_s": "higher"})
    assert higher["metrics"]["run_s"]["wins"] == 1


def test_reference_time_is_read_from_the_printed_figures():
    line = f"  {'reference_s':18s} {0.0312345:14.6g} {'s':6s} median"
    assert bench_record.REFERENCE_LINE.match(line).group(1) == "0.0312345"
    assert not bench_record.REFERENCE_LINE.match("  run_s   0.2 s")


def fake_bench(monkeypatch, tmp_path):
    """Fakes the benchmark's runs, BENCHMARK.json and, for --against, the
    temporary directory (`tmp_path / "tmp"`) and the extraction of REV into
    it; REV's runs are slower than the working tree's and the control
    copy's slower still. Returns the lists the runs and extractions are
    logged to."""
    calls, extracted = [], []
    run_s = {"rev": 1.0, "control": 1.1, "tree": 0.8}

    def fake_run(root, workload, seed, trace, seconds):
        side = {"against": "rev", "control": "control"}.get(root.name, "tree")
        calls.append((seed, trace, side, workload, seconds))
        if trace:
            return {"attempted": 1, "failed": 0, "envs": [{"numpy": "x"}],
                    "checks": [],
                    "metrics": {"a.calls": {"value": 2.0, "unit": "count"}}}
        return timed(run_s[side], 0.032 if side == "tree" else 0.03)

    def fake_extract(rev, dest):
        extracted.append((rev, dest))
        dest.mkdir(parents=True)
        return "c0ffee"

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_bench", fake_run)
    monkeypatch.setattr(bench_record, "extract", fake_extract)
    monkeypatch.setattr(bench_record, "tree_state", lambda: {
        "head": "beef", "diff_sha256": "0" * 64, "untracked": False})
    monkeypatch.setattr(bench_record.tempfile, "TemporaryDirectory",
                        lambda: contextlib.nullcontext(str(tmp_path / "tmp")))
    monkeypatch.setattr(bench_record, "benchmark", lambda: {
        "run_seconds": 2,
        "workloads": [{"name": w} for w in WORKLOADS],
        "end_to_end": [{"name": m, "better": "lower"}
                       for m in ("setup_s", "run_s", "peak_rss_mb")]})
    return calls, extracted


def test_record_runs_each_workload_at_the_benchmark_length(tmp_path,
                                                           monkeypatch):
    calls, extracted = fake_bench(monkeypatch, tmp_path)
    assert bench_record.main(["--tag", "t", "--seeds", "4", "5"]) == 0
    assert calls == [(seed, trace, "tree", w, 2) for seed in (4, 5)
                     for w in WORKLOADS for trace in (0, 1)]
    assert extracted == []
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert "against" not in record
    assert record["seconds"] == 2
    assert "--seconds 2 --trace 0|1" in record["command"]
    e2e = record["workloads"]["citation_eval"]["end_to_end"]
    assert e2e["run_s"]["values"] == [0.8, 0.8]
    assert record["attempted"] == 2 * 3 * (3 + 1)
    assert record["change"] == {"head": "beef", "diff_sha256": "0" * 64,
                                "untracked": False}


def test_against_alternates_sides_and_records_both(tmp_path, monkeypatch):
    calls, extracted = fake_bench(monkeypatch, tmp_path)
    assert bench_record.main(["--tag", "t", "--seeds", "4", "5",
                              "--against", "HEAD~1"]) == 0
    # REV is extracted twice, the second time by the commit it resolved to
    tmp = tmp_path / "tmp"
    assert extracted == [("HEAD~1", tmp / "against"),
                         ("c0ffee", tmp / "control")]
    untraced = [c for c in calls if c[1] == 0]
    assert [c[2] for c in untraced[:3]] == ["rev", "control", "tree"]
    assert [c[2] for c in untraced[9:12]] == ["tree", "control", "rev"]
    assert {c[3] for c in untraced} == set(WORKLOADS)
    assert [c[:3] for c in calls if c[1] == 1] == \
        [(seed, 1, "tree") for seed in (4, 5) for _ in WORKLOADS]
    assert all(c[4] == 2 for c in calls)
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    ab = record["against"]
    assert (ab["rev"], ab["commit"]) == ("HEAD~1", "c0ffee")
    assert "--seconds 2 --trace 0 from REV" in ab["command"]
    run_s = ab["workloads"]["dg_2x2"]["metrics"]["run_s"]
    assert (run_s["wins"], run_s["ratio_of_medians"]) == (2, 0.8)
    # the control: the second copy of REV against REV at the same seeds
    assert run_s["control"] == {"wins": 0, "ratio_of_medians": 1.1,
                                "iqr": 0.0}
    assert ab["workloads"]["citation_eval"]["reference_s"]["change"][
        "median"] == 0.032
    # the end-to-end summary is the working tree's side of the pairs
    e2e = record["workloads"]["duality_grid"]["end_to_end"]
    assert e2e["run_s"]["values"] == [0.8, 0.8]
    assert record["workloads"]["dg_2x2"]["per_layer"]["a.calls"][
        "median"] == 2.0
    assert record["attempted"] == 2 * 3 * (3 * 3 + 1)


def test_control_figures_come_from_the_copy_against_rev_pairs():
    pairs = [(timed(a, 0.03), timed(b, 0.03))
             for a, b in ((1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 1.1))]
    control = [timed(v, 0.03) for v in (0.9, 1.3, 0.9, 1.2)]
    out = bench_record.compare(pairs, {"run_s": "lower"}, control)
    figure = out["metrics"]["run_s"]["control"]
    assert figure["wins"] == 1                    # the tie counts for neither
    assert figure["ratio_of_medians"] == 1.0       # both medians 1.05
    assert figure["iqr"] == bench_record.spread([0.9, 1.3, 0.9, 1.2])["iqr"]
    assert "control" not in bench_record.compare(pairs, {"run_s": "lower"})[
        "metrics"]["run_s"]


def test_record_names_each_run_that_failed(tmp_path, monkeypatch):
    fake_bench(monkeypatch, tmp_path)
    passing = bench_record.run_bench

    def failing(root, workload, seed, trace, seconds):
        run = passing(root, workload, seed, trace, seconds)
        if (root.name, workload, seed, trace) == ("against", "duality_grid",
                                                  5, 0):
            run.update(failed=2, checks=["weak_duality", "raised:ValueError"])
        if (root.name, workload, seed) == ("control", "citation_eval", 4):
            run.update(failed=1, checks=["exit_code=1"])
        if (workload, seed, trace) == ("dg_2x2", 4, 1):
            run.update(failed=1, checks=["coverage"])
        return run

    monkeypatch.setattr(bench_record, "run_bench", failing)
    assert bench_record.main(["--tag", "t", "--seeds", "4", "5",
                              "--against", "HEAD~1"]) == 1
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["failed"] == 4
    assert record["failures"] == [
        {"side": "change", "workload": "dg_2x2", "seed": 4, "trace": 1,
         "attempted": 1, "failed": 1, "checks": ["coverage"]},
        {"side": "control", "workload": "citation_eval", "seed": 4,
         "trace": 0, "attempted": 3, "failed": 1, "checks": ["exit_code=1"]},
        {"side": "against", "workload": "duality_grid", "seed": 5, "trace": 0,
         "attempted": 3, "failed": 2,
         "checks": ["weak_duality", "raised:ValueError"]}]


def test_run_reads_the_failed_checks_from_its_fail_lines(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "print('env {}')\n"
        "print('FAIL duality_grid iteration 3: weak_duality')\n"
        "print('FAIL duality_grid iteration 7: raised:ValueError')\n"
        "print('  reference_s   0.03 s median')\n"
        "print('{\"attempted\": 9, \"failed\": 2, \"metrics\": {}}')\n")
    run = bench_record.run_bench(tmp_path, "duality_grid", 1, 0, 1)
    assert (run["attempted"], run["failed"]) == (9, 2)
    assert run["checks"] == ["weak_duality", "raised:ValueError"]


def git_repo(path):
    """A repository at `path` with a.txt committed as "one\\n"; returns a
    function that runs git in it."""
    path.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c",
                               "user.email=t@t", *args], cwd=path, check=True,
                              capture_output=True).stdout

    git("init", "-q")
    (path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    return git


def test_extract_writes_the_committed_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    git_repo(repo)
    (repo / "a.txt").write_text("two\n")             # not committed
    monkeypatch.setattr(bench_record, "ROOT", repo)
    dest = tmp_path / "out"
    commit = bench_record.extract("HEAD", dest)
    assert len(commit) == 40
    assert (dest / "a.txt").read_text() == "one\n"
    with pytest.raises(bench_record.RunError):
        bench_record.extract("no-such-rev", tmp_path / "none")
    # releases before 3.10.12 / 3.11.4 have no extraction filters
    monkeypatch.delattr(bench_record.tarfile, "data_filter")
    bench_record.extract("HEAD", tmp_path / "old")
    assert (tmp_path / "old" / "a.txt").read_text() == "one\n"


def test_tree_state_names_the_commit_the_diff_and_untracked_files(
        tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    git = git_repo(repo)
    monkeypatch.setattr(bench_record, "ROOT", repo)
    head = git("rev-parse", "HEAD").decode().strip()
    clean = bench_record.tree_state()
    assert clean == {"head": head,
                     "diff_sha256": hashlib.sha256(b"").hexdigest(),
                     "untracked": False}
    (repo / "a.txt").write_text("two\n")
    edited = bench_record.tree_state()
    assert edited["diff_sha256"] == hashlib.sha256(
        git("diff", "HEAD", "--binary")).hexdigest() != clean["diff_sha256"]
    assert not edited["untracked"]
    (repo / "b.txt").write_text("new\n")
    assert bench_record.tree_state() == {**edited, "untracked": True}
    (repo / ".gitignore").write_text("b.txt\n.gitignore\n")
    assert bench_record.tree_state() == edited      # ignored: not counted
    monkeypatch.setattr(bench_record, "ROOT", tmp_path / "none")
    with pytest.raises(bench_record.RunError):
        bench_record.tree_state()


def test_benchmark_spec_gives_workloads_and_directions():
    spec = bench_record.benchmark()
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert {m["better"] for m in spec["end_to_end"]} <= {"lower", "higher"}
