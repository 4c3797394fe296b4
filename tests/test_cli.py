import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maskdg import theory
from maskdg.cli import build_parser, main
from maskdg.enrich import EnrichConfig
from maskdg.gradients import FiniteDiffReport
from maskdg.graph import UNLABELED, EdgeOrigin, load_graph, save_graph
from maskdg.tasknet import TaskNetConfig
from maskdg.training import TrainConfig, train


COMMON = [
    "--epochs", "2", "--n-descent", "2", "--lr-task", "5e-3",
    "--enrich-k", "3", "--enrich-clusters", "3",
    "--enrich-gamma-knn", "0.3", "--enrich-gamma-spec", "0.3",
    "--tasknet-heads", "2", "--tasknet-head-dim", "4",
    "--tasknet-attn-dropout", "0", "--tasknet-layer-dropout", "0",
    "--mask-d-prime", "8", "--mask-hidden", "4",
]


@pytest.fixture(scope="module")
def domains(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--num-domains", "3", "--nodes-per-domain", "40",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    return [out / f"domain{i}.graph" for i in range(3)]


def test_synth_writes_graphs_and_manifest(domains):
    for p in domains:
        assert p.exists()
        g = load_graph(p)
        assert g.num_nodes == 40
    report = json.loads((domains[0].parent / "shift_report.json").read_text())
    assert "manifest_sha256" in report
    manifest = json.loads((domains[0].parent / "manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["config"]["nodes_per_domain"] == 40


def test_shift_report_does_not_depend_on_the_output_directory(tmp_path):
    reports = []
    for out in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        assert main(["synth", "--num-domains", "2", "--nodes-per-domain",
                     "20", "--seed", "4", "--out", str(out)]) == 0
        reports.append((out / "shift_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["graphs"] == ["domain0.graph",
                                                "domain1.graph"]


def test_manifest_records_the_blas_thread_settings(tmp_path, monkeypatch):
    # Reruns are bit-identical only at one BLAS thread count, so a rerun at
    # another count must show in the manifest.
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    manifests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / threads
        assert main(["synth", "--num-domains", "1", "--nodes-per-domain",
                     "20", "--seed", "1", "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": None,
                                            "MKL_NUM_THREADS": None}
    assert manifests[1]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "2"
    manifests[1]["blas_threads"] = manifests[0]["blas_threads"]
    assert manifests[0] == manifests[1]


def test_enrich_subcommand_writes_stats(domains, tmp_path):
    out = tmp_path / "enr"
    rc = main(["enrich", "--graph", str(domains[0]), "--k", "3",
               "--clusters", "3", "--gamma-knn", "0.5", "--gamma-spec", "0.5",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    stats = json.loads((out / "edge_stats.json").read_text())
    assert stats["counts"]["SELF_LOOP"] == 40
    assert stats["counts"]["KNN"] > 0
    g = load_graph(out / "enriched.graph")
    assert g.num_edges == sum(stats["counts"].values())


def subcommand_options(name):
    subparsers = next(a for a in build_parser()._actions
                      if a.dest == "command")
    return {opt for a in subparsers.choices[name]._actions
            for opt in a.option_strings} - {"-h", "--help"}


def config_flags(cls, prefix="--"):
    """One flag per leaf field of the config `cls`: a field whose default is
    a config contributes its own fields' flags, prefixed by its name."""
    flags = set()
    for f in dataclasses.fields(cls):
        default = getattr(cls(), f.name)
        name = prefix + f.name.replace("_", "-")
        flags |= (config_flags(type(default), name + "-")
                  if dataclasses.is_dataclass(default) else {name})
    return flags


def test_enrich_flags_are_one_per_enrich_config_field():
    assert subcommand_options("enrich") == (
        {"--graph", "--seed", "--out"} | config_flags(EnrichConfig))


def test_train_flags_are_one_per_leaf_config_field():
    flags = config_flags(TrainConfig)
    assert len(flags) == 23
    assert {"--epochs", "--enrich-k", "--tasknet-heads"} <= flags
    assert subcommand_options("train") == (
        {"--config", "--source", "--target", "--out"} | flags)


def run_train(domains, out, extra=()):
    return main(["train",
                 "--source", str(domains[0]), "--source", str(domains[1]),
                 "--target", str(domains[2]),
                 *COMMON, *extra, "--out", str(out)])


def test_train_pipeline_artifacts(domains, tmp_path):
    out = tmp_path / "run"
    assert run_train(domains, out) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics["target"]) == {"all-ones", "masknet"}
    assert 0.0 <= metrics["target"]["all-ones"]["micro_f1"] <= 1.0
    assert set(metrics["mask_stats"]) == {"ORIGINAL", "KNN", "SPECTRAL"}
    assert (out / "model.ckpt").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 3      # header + 2 epochs
    mask_rows = (out / "mask_dump.csv").read_text().splitlines()
    assert mask_rows[0] == "src,dst,origin,s"
    assert len(mask_rows) > 1


@pytest.mark.parametrize("extra", [(), ("--mask-enabled", "false")],
                         ids=["mask", "no-mask"])
def test_history_header_names_the_keys_of_each_epoch_row(
        domains, tmp_path, monkeypatch, extra):
    from maskdg import cli
    results = []

    def recording(ds, cfg):
        results.append(train(ds, cfg))
        return results[-1]

    monkeypatch.setattr(cli, "train", recording)
    out = tmp_path / "run"
    assert run_train(domains, out, extra) == 0
    header = (out / "history.csv").read_text().splitlines()[0]
    assert len(results[0].history) == 2
    for row in results[0].history:
        assert header == ",".join(row)


def test_same_config_gives_byte_identical_outputs(domains, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_train(domains, out1) == 0
    assert run_train(domains, out2) == 0
    for name in ("metrics.json", "model.ckpt", "history.csv",
                 "manifest.json", "mask_dump.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_manifest_written_and_referenced(domains, tmp_path):
    out = tmp_path / "m"
    run_train(domains, out)
    import hashlib

    sha = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["manifest_sha256"] == sha


@pytest.mark.parametrize("command", ["synth", "enrich", "train", "eval",
                                     "ablate-lambda", "ablate-2x2",
                                     "gradcheck", "oracle"])
def test_manifest_lists_the_files_the_run_writes(domains, trained_checkpoint,
                                                 tmp_path, command):
    d0, d1, d2 = map(str, domains)
    argv = {
        "synth": ["--num-domains", "2", "--nodes-per-domain", "20"],
        "enrich": ["--graph", d0, "--k", "3", "--clusters", "3"],
        "train": ["--source", d0, "--source", d1, "--target", d2, *COMMON],
        "eval": ["--checkpoint", str(trained_checkpoint), "--graph", d2],
        "ablate-lambda": ["--source", d0, "--target", d2, *COMMON,
                          "--epochs", "1", "--grid", "0"],
        "ablate-2x2": ["--source", d0, "--target", d2, *COMMON,
                       "--epochs", "1"],
        "gradcheck": [],
        "oracle": ["--kkt"],
    }[command]
    out = tmp_path / "o"
    assert main([command, *argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(
        p.name for p in out.iterdir()
        if p.name not in ("manifest.json", "timings.json"))


def test_target_labels_unread_during_training(domains, tmp_path):
    # read-audit: corrupting target labels must not change the checkpoint
    tgt = load_graph(domains[2])
    corrupted = dataclasses.replace(tgt,
                                    labels=(tgt.labels + 1) % tgt.num_classes)
    cpath = tmp_path / "corrupt.graph"
    save_graph(corrupted, cpath)
    out1, out2 = tmp_path / "clean", tmp_path / "dirty"
    assert run_train(domains, out1) == 0
    assert main(["train", "--source", str(domains[0]),
                 "--source", str(domains[1]), "--target", str(cpath),
                 *COMMON, "--out", str(out2)]) == 0
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["train", "--source", str(tmp_path / "absent.graph"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "absent.graph" in capsys.readouterr().err


def test_bad_config_file_exits_1(domains, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc = main(["train", "--config", str(cfg), "--source", str(domains[0]),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_unknown_config_key_exits_1(domains, tmp_path):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({"not_a_field": 3}))
    rc = main(["train", "--config", str(cfg), "--source", str(domains[0]),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_config_file_plus_flag_override(domains, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 1, "n_descent": 2, "lr_task": 5e-3,
        "mask_d_prime": 8, "mask_hidden": 4,
        "enrich": {"k": 3, "clusters": 3, "gamma_knn": 0.3, "gamma_spec": 0.3},
        "tasknet": {"heads": 2, "head_dim": 4,
                    "attn_dropout": 0.0, "layer_dropout": 0.0},
    }))
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg), "--source", str(domains[0]),
               "--epochs", "2", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2        # flag wins
    assert manifest["config"]["enrich"]["k"] == 3   # file value kept
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 3


def test_eval_subcommand_reports_both_modes(domains, tmp_path):
    out = tmp_path / "train"
    run_train(domains, out)
    eval_out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(out / "model.ckpt"),
               "--graph", str(domains[2]), "--out", str(eval_out)])
    assert rc == 0
    metrics = json.loads((eval_out / "metrics.json").read_text())
    assert set(metrics) >= {"all-ones", "masknet"}


def test_gradcheck_passes_and_writes_report(tmp_path):
    # the report holds criterion 1's numbers; --seed offsets its pinned seed
    for seed in (0, 2):
        out = tmp_path / f"gc{seed}"
        assert main(["gradcheck", "--seed", str(seed), "--out", str(out)]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        audit = theory.gradient_audit(seed)
        assert report["passed"] is True
        assert report["tasknet"] == audit.tasknet.per_tensor
        assert report["masknet"] == audit.masknet.per_tensor


def test_a_failing_check_exits_3(tmp_path, capsys, monkeypatch):
    bad = FiniteDiffReport({"out_w": 1.0}, {"out_w": 1}, 1.0, 1e-4)
    monkeypatch.setattr(theory, "gradient_audit", lambda seed:
                        SimpleNamespace(tasknet=bad, masknet=bad, passed=False))
    monkeypatch.setitem(theory.ORACLES, "kkt",
                        lambda seed: SimpleNamespace(passed=False))
    assert main(["gradcheck", "--out", str(tmp_path / "gc")]) == 3
    assert "gradcheck: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
    assert report["passed"] is False
    assert main(["oracle", "--kkt", "--out", str(tmp_path / "orc")]) == 3
    assert "kkt            FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "orc" / "oracle.json").read_text())
    assert report["results"] == {"kkt": False}


def test_oracle_subset_runs_only_the_named_check(tmp_path):
    out = tmp_path / "orc"
    assert main(["oracle", "--kkt", "--out", str(out)]) == 0
    results = json.loads((out / "oracle.json").read_text())["results"]
    assert results == {"kkt": True}


def test_oracle_all_checks_pass(tmp_path, monkeypatch, oracle_runs):
    # `maskdg oracle` runs every check at seed 0; what each check returns
    # is the session's one run of it, which criteria 2-5 assert on.
    calls = []

    def spy(name):
        def run(seed):
            calls.append((name, seed))
            return oracle_runs[name][0]
        return run

    for name in list(theory.ORACLES):
        monkeypatch.setitem(theory.ORACLES, name, spy(name))
    out = tmp_path / "orc"
    assert main(["oracle", "--out", str(out)]) == 0
    assert calls == [(name, 0) for name in theory.ORACLES]
    results = json.loads((out / "oracle.json").read_text())["results"]
    assert results == {name: result.passed
                       for name, (result, _) in oracle_runs.items()}
    assert results == dict.fromkeys(theory.ORACLES, True)


def test_oracle_times_each_check_in_timings_only(tmp_path, monkeypatch):
    # The second run's checks take longer; oracle.json keeps its bytes and
    # timings.json holds one entry per selected check.
    import time

    def check(delay):
        def run(seed):
            time.sleep(delay)
            return SimpleNamespace(passed=True)
        return run

    written = []
    for delay in (0.0, 0.05):
        for name in theory.ORACLES:
            monkeypatch.setitem(theory.ORACLES, name, check(delay))
        out = tmp_path / f"orc{delay}"
        assert main(["oracle", "--kkt", "--surrogate", "--out", str(out)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings["checks"]) == ["kkt", "surrogate"]
        assert all(s >= delay for s in timings["checks"].values())
        written.append((out / "oracle.json").read_bytes())
    assert written[0] == written[1]
    assert set(json.loads(written[0])) == {"results", "manifest_sha256"}


def test_ablate_lambda_runs_grid(domains, tmp_path):
    out = tmp_path / "lam"
    rc = main(["ablate-lambda",
               "--source", str(domains[0]), "--target", str(domains[2]),
               *COMMON, "--grid", "0,0.1", "--out", str(out)])
    assert rc == 0
    table = json.loads((out / "lambda_table.json").read_text())
    assert [r["lambda"] for r in table["rows"]] == [0.0, 0.1]
    assert sorted(p.name for p in out.iterdir()) == [
        "lambda_table.json", "manifest.json", "timings.json"]


def test_ablate_2x2_emits_four_rows(domains, tmp_path):
    out = tmp_path / "ab"
    rc = main(["ablate-2x2",
               "--source", str(domains[0]), "--target", str(domains[2]),
               *COMMON, "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "ablation_2x2.json").read_text())["rows"]
    assert len(rows) == 4


def test_out_env_var_override(domains, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("MASKDG_OUT", str(target))
    rc = main(["oracle", "--kkt", "--out", "ignored"])
    assert rc == 0
    assert (target / "oracle.json").exists()


@pytest.mark.parametrize("argv,laplacian_cap", [
    (["enrich", "--k", "0"], None),
    (["enrich", "--k", "40"], None),
    (["enrich", "--k", "41"], None),
    (["enrich", "--k", "3", "--clusters", "41"], None),
    (["train", *COMMON, "--enrich-clusters", "41"], None),
    (["train", *COMMON], 39),
], ids=["enrich-k-0", "enrich-k-N", "enrich-k-over-N", "enrich-clusters-over-N",
        "train-clusters-over-N", "train-N-over-solver-cap"])
def test_enrichment_inputs_out_of_range_exit_1(domains, tmp_path, capsys,
                                               monkeypatch, argv,
                                               laplacian_cap):
    # each synth domain has 40 nodes
    if laplacian_cap is not None:
        monkeypatch.setattr("maskdg.enrich.LAPLACIAN_CAP", laplacian_cap)
    flag = "--graph" if argv[0] == "enrich" else "--source"
    rc = main([argv[0], flag, str(domains[0]), *argv[1:],
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()     # rejected before any work


@pytest.mark.parametrize("argv", [
    ["synth", "--num-domains", "0"],
    ["synth", "--nodes-per-domain", "-3"],
    ["train", "--epochs", "abc"],
    ["ablate-lambda", "--grid", "a,b"],
    ["ablate-lambda", "--grid", "-1"],
    ["train", "--mask-d-prime", "0"],
    ["train", "--tasknet-attn-dropout", "1.5"],
    ["train", "--tasknet-layer-dropout", "1.5"],
    ["train", "--mask-enabled", "maybe"],
    ["synth", "--backbone-degree", "inf"],
    ["synth", "--spurious-strength", "nan"],
    ["synth", "--center-separation", "nan"],
    ["synth", "--seed", "-1"],
    ["enrich", "--k", "abc"],
    ["synth", "--backbone-degree", "1e9"],
    ["synth", "--nodes-per-domain", "5", "--backbone-degree", "4.5"],
    ["synth", "--spurious-strengths", "[NaN,1,2]"],
    ["synth", "--spurious-strengths", "[0.1,0.2,-0.1]"],
    ["synth", "--spurious-strengths", "[0.1,Infinity,0.2]"],
    ["synth", "--spurious-strength", "1.5"],
    ["synth", "--spurious-strength", "0.9"],
    ["train", "--dual-rho", "true", "--dual-step", "1"],
    ["train", "--dual-rho", "x", "--dual-step", "1"],
], ids=["synth-no-domains", "synth-negative-nodes", "train-epochs-not-int",
        "grid-not-numbers", "grid-negative", "train-mask-d-prime-0",
        "train-attn-dropout-over-1", "train-layer-dropout-over-1",
        "train-mask-enabled-not-bool", "synth-backbone-degree-inf",
        "synth-spurious-strength-nan", "synth-center-separation-nan",
        "synth-seed-negative", "enrich-k-not-int", "synth-backbone-degree-1e9",
        "synth-backbone-degree-over-nodes", "synth-spurious-strengths-nan",
        "synth-spurious-strengths-negative", "synth-spurious-strengths-inf",
        "synth-spurious-strength-over-1",
        "synth-spurious-strength-ramped-over-1", "train-dual-rho-bool",
        "train-dual-rho-string"])
def test_configuration_values_out_of_range_exit_1(domains, tmp_path, capsys,
                                                  argv):
    source = {"synth": [], "enrich": ["--graph", str(domains[0])]}.get(
        argv[0], ["--source", str(domains[0])])
    rc = main([argv[0], *source, *argv[1:], "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()     # rejected before any work


@pytest.mark.parametrize("argv, message", [
    (["train", "--enrich-solver-cap", "39"],
     "error: maskdg: unrecognized arguments: --enrich-solver-cap 39"),
    (["enrich", "--seed", "abc"],
     "error: maskdg enrich: argument --seed: invalid int value: 'abc'"),
    (["oracle", "--seed", "abc"],
     "error: maskdg oracle: argument --seed: invalid int value: 'abc'"),
    (["eval", "--graph", "g.graph"], "error: maskdg eval: the following "
                                     "arguments are required: --checkpoint"),
    (["enrich", "--seed", "-1"], "error: maskdg enrich: argument --seed: "
                                 "must be >= 0, got '-1'"),
    (["gradcheck", "--seed", "-1"], "error: maskdg gradcheck: argument "
                                    "--seed: must be >= 0, got '-1'"),
    (["oracle", "--kkt", "--seed", "-20"], "error: maskdg oracle: argument "
                                           "--seed: must be >= 0, got '-20'"),
], ids=["unknown-flag", "enrich-seed-not-int", "oracle-seed-not-int",
        "missing-required-flag", "enrich-seed-negative",
        "gradcheck-seed-negative", "oracle-seed-negative"])
def test_usage_errors_exit_1(domains, tmp_path, capsys, argv, message):
    if argv[0] == "train":
        argv = [*argv, "--source", str(domains[0])]
    elif argv[0] == "enrich":
        argv = [*argv, "--graph", str(domains[0])]
    rc = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == message + "\n"
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--help"])
    assert info.value.code == 0
    assert "--source" in capsys.readouterr().out


def test_mask_dump_describes_the_inference_graph(domains, tmp_path):
    from maskdg.training import inference_graph, load_checkpoint

    out = tmp_path / "run"
    assert run_train(domains, out) == 0
    model = load_checkpoint(out / "model.ckpt")
    edges = inference_graph(model.cfg, load_graph(domains[0]))
    rows = [r.split(",") for r in
            (out / "mask_dump.csv").read_text().splitlines()[1:]]
    assert [(int(a), int(b), o) for a, b, o, _ in rows] == [
        (a, b, EdgeOrigin(o).name) for a, b, o in edges.tolist()]
    stats = json.loads((out / "metrics.json").read_text())["mask_stats"]
    for origin, st in stats.items():
        s = [float(v) for a, b, o, v in rows if o == origin and a != b]
        assert st == {"edges": len(s), "mean_mask": pytest.approx(np.mean(s)),
                      "pruned_pct": pytest.approx(
                          100.0 * sum(v < 0.5 for v in s) / len(s))}, origin


# -- malformed graph and checkpoint inputs: "error: <path>...", exit 1 -------

def write_triplet(graph_path, where):
    """The graph at `graph_path` as feat.csv, edges.txt (each undirected
    pair once) and labels.txt in `where`; returns the three paths."""
    g = load_graph(graph_path)
    paths = [where / "feat.csv", where / "edges.txt", where / "labels.txt"]
    paths[0].write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in g.features.tolist()))
    paths[1].write_text("".join(f"{u} {v}\n" for u, v, _ in g.edges.tolist()
                                if u <= v))
    paths[2].write_text("".join(f"{y}\n" for y in g.labels.tolist()))
    return paths


@pytest.mark.parametrize("argv, message", [
    ("enrich --graph cut.graph", "cut.graph:21: file ends inside the X block"),
    ("enrich --graph bogus.graph", "bogus.graph:{row}: expected 'src dst ORI"),
    ("train --source cut.graph", "cut.graph:21: file ends inside the X block"),
    ("eval --checkpoint absent.ckpt --graph cut.graph",
     "absent.ckpt: not a readable checkpoint ([Errno 2] No such file"),
    ("eval --checkpoint junk.ckpt --graph cut.graph",
     "junk.ckpt: not a readable checkpoint"),
    ("enrich --graph feat.csv:edges.txt:huge.txt",
     "huge.txt:1: expected an integer label, got '99999999999999999999999'"),
    ("enrich --graph bom.csv:edges.txt:labels.txt",
     "bom.csv:1: expected 8 feature values, got '\ufffd\ufffd"),
    ("enrich --graph dir.csv:edges.txt:labels.txt", "dir.csv: Is a directory"),
    ("enrich --graph dir.graph", "dir.graph: Is a directory"),
    ("train --source d0.graph --target narrow.graph",
     "domain 'narrow' disagrees on feature dim or class count"),
    ("ablate-2x2 --source d0.graph --target classes.graph",
     "domain 'classes' disagrees on feature dim or class count"),
    ("ablate-lambda --source featureless.graph",
     "domain 'featureless' has no features"),
    ("train --source unlabeled.graph",
     "graph 'unlabeled' has no labeled node"),
    ("train --source d0.graph --target unlabeled.graph",
     "graph 'unlabeled' has no labeled node"),
    ("eval --checkpoint model.ckpt --graph narrow.graph",
     "narrow.graph: 7 features, the checkpoint 8"),
    ("eval --checkpoint model.ckpt --graph unlabeled.graph",
     "graph 'unlabeled' has no labeled node"),
    ("eval --checkpoint model.ckpt --graph classes.graph",
     "classes.graph: 4 classes, the checkpoint 3"),
], ids=["cut-graph", "bogus-origin", "train-cut-source", "missing-checkpoint",
        "non-npz-checkpoint", "triplet-label-overflow",
        "triplet-non-utf8-features", "triplet-directory", "graph-directory",
        "target-feature-count", "target-class-count", "source-no-features",
        "source-unlabeled", "target-unlabeled", "eval-feature-count",
        "eval-unlabeled", "eval-class-count"])
def test_malformed_input_exits_1(domains, trained_checkpoint, tmp_path,
                                 capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    g = load_graph(domains[0])
    for name, graph in {
            "d0": g,
            "narrow": dataclasses.replace(g, features=g.features[:, 1:]),
            "classes": dataclasses.replace(g, num_classes=g.num_classes + 1),
            "featureless": dataclasses.replace(g, features=g.features[:, :0]),
            "unlabeled": dataclasses.replace(
                g, labels=np.full(g.num_nodes, UNLABELED))}.items():
        save_graph(dataclasses.replace(graph, domain_id=name),
                   tmp_path / f"{name}.graph")
    (tmp_path / "model.ckpt").write_bytes(trained_checkpoint.read_bytes())
    lines = domains[0].read_text().splitlines()
    row = next(i for i, l in enumerate(lines) if l.startswith("edges ")) + 1
    (tmp_path / "cut.graph").write_text("\n".join(lines[:20]) + "\n")
    lines[row] = lines[row].rsplit(" ", 1)[0] + " BOGUS"
    (tmp_path / "bogus.graph").write_text("\n".join(lines) + "\n")
    (tmp_path / "junk.ckpt").write_text("not an npz archive\n")
    feat, _, labels = write_triplet(domains[0], tmp_path)
    (tmp_path / "huge.txt").write_text(
        "99999999999999999999999\n" + labels.read_text().split("\n", 1)[1])
    (tmp_path / "bom.csv").write_bytes(b"\xff\xfe" + feat.read_bytes())
    (tmp_path / "dir.csv").mkdir()
    (tmp_path / "dir.graph").mkdir()
    rc = main(argv.split() + ["--out", "out"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: " + message.format(row=row + 1)), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_triplet_with_an_undecodable_file_name_gets_a_replacement_domain_id(
        domains, tmp_path, capsys):
    feat, edges, labels = write_triplet(domains[0], tmp_path)
    odd = feat.rename(tmp_path / os.fsdecode(b"\xff.csv"))
    out = tmp_path / "o"
    rc = main(["enrich", "--graph", f"{odd}:{edges}:{labels}", "--k", "3",
               "--clusters", "3", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    g = load_graph(out / "enriched.graph")
    assert g.domain_id == "\ufffd"
    save_graph(g, tmp_path / "again.graph")
    assert (tmp_path / "again.graph").read_bytes() == \
        (out / "enriched.graph").read_bytes()


@pytest.mark.parametrize("argv", [
    ["enrich", "--graph", "\ud800.graph", "--out", "out"],
    ["enrich", "--graph", "\ud800.csv:e.txt:l.txt", "--out", "out"],
    ["synth", "--num-domains", "1", "--out", "\ud800"],
], ids=["graph-file", "triplet", "out-dir"])
def test_an_argument_no_file_name_can_carry_exits_1(tmp_path, capsys,
                                                    monkeypatch, argv):
    # a lone surrogate outside U+DC80-U+DCFF has no bytes under
    # surrogateescape; only an in-process caller can pass one
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument '\\ud800"), err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.booleans(), at=st.integers(0, 10 ** 6),
       junk=st.binary(min_size=1, max_size=8))
def test_cut_or_corrupted_graph_exits_0_or_1(domains, tmp_path, capsys,
                                             cut, at, junk):
    raw = domains[0].read_bytes()
    at %= len(raw)
    path = tmp_path / "fuzz.graph"
    path.write_bytes(raw[:at] if cut else raw[:at] + junk + raw[at + len(junk):])
    rc = main(["enrich", "--graph", str(path), "--k", "3", "--clusters", "3",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1) and "Traceback" not in err
    assert rc == 0 or err.startswith("error: "), err


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, 2), cut=st.booleans(), at=st.integers(0, 10 ** 6),
       junk=st.binary(min_size=1, max_size=8))
def test_cut_or_corrupted_triplet_exits_0_or_1(domains, tmp_path, capsys,
                                               which, cut, at, junk):
    paths = write_triplet(domains[0], tmp_path)
    raw = paths[which].read_bytes()
    at %= len(raw)
    paths[which].write_bytes(raw[:at] if cut
                             else raw[:at] + junk + raw[at + len(junk):])
    rc = main(["enrich", "--graph", ":".join(map(str, paths)), "--k", "3",
               "--clusters", "3", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1) and "Traceback" not in err
    assert rc == 0 or err.startswith("error: "), err


# -- a numeric failure, and only one, exits 2 ---------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_training_exits_2_naming_the_epoch(domains, tmp_path,
                                                     capsys):
    rc = run_train(domains, tmp_path / "run", ["--lr-task", "1e200"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("numeric failure: non-finite value at epoch "), err
    assert "Traceback" not in err


def test_a_runtime_error_is_not_reported_as_a_numeric_failure(
        domains, tmp_path, monkeypatch):
    from maskdg import cli

    def broken(ds, cfg):
        raise NotImplementedError("a bug, not a numeric failure")

    monkeypatch.setattr(cli, "train", broken)
    with pytest.raises(NotImplementedError):
        run_train(domains, tmp_path / "run")


# -- artifacts are replaced whole or not at all; memory exhaustion exits 1 ---

@pytest.fixture(scope="module")
def trained_checkpoint(domains, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_train(domains, out) == 0
    return out / "model.ckpt"


def artifact_writers(domains, checkpoint, out):
    from maskdg.cli import RunContext
    from maskdg.masknet import EdgeMask, dump_mask_csv
    from maskdg.training import load_checkpoint, save_checkpoint

    graph = load_graph(domains[0])
    model = load_checkpoint(checkpoint)
    ctx = RunContext(out, "test", {}, 0)
    mask = EdgeMask(values=np.full(graph.num_edges, 0.5),
                    scorable=np.ones(graph.num_edges, bool))
    return {
        "save_graph": lambda p: save_graph(graph, p),
        "save_checkpoint": lambda p: save_checkpoint(p, model),
        "dump_mask_csv": lambda p: dump_mask_csv(p, graph.edges, mask),
        "write_json": lambda p: ctx.write_json(p.name, {"x": 1}),
        "write_text": lambda p: ctx.write_text(p.name, "text\n"),
        "finish": lambda p: ctx.finish(),
    }


@pytest.mark.parametrize("writer", ["save_graph", "save_checkpoint",
                                    "dump_mask_csv", "write_json",
                                    "write_text", "finish"])
def test_failed_replace_keeps_the_old_artifact(domains, trained_checkpoint,
                                               tmp_path, monkeypatch, writer):
    import os

    writers = artifact_writers(domains, trained_checkpoint, tmp_path)
    path = tmp_path / ("timings.json" if writer == "finish" else "artifact")
    path.write_bytes(b"old contents")
    before = sorted(p.name for p in tmp_path.iterdir())

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        writers[writer](path)
    assert path.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    monkeypatch.undo()
    writers[writer](path)
    assert path.read_bytes() != b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_out_of_memory_exits_1_without_traceback(tmp_path, capsys,
                                                 monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr("maskdg.cli.generate", exhausted)
    rc = main(["synth", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: out of memory: Unable to allocate 7.45 GiB for "
                   "an array\n")


# -- config values of the wrong type, in a config file or a checkpoint -------

SMALL_CONFIG = {
    "epochs": 2, "n_descent": 2, "lr_task": 5e-3,
    "mask_d_prime": 8, "mask_hidden": 4,
    "enrich": {"k": 3, "clusters": 3, "gamma_knn": 0.3, "gamma_spec": 0.3},
    "tasknet": {"heads": 2, "head_dim": 4,
                "attn_dropout": 0.0, "layer_dropout": 0.0},
}
INT_FIELDS = ("seed", "epochs", "n_descent", "n_ascent", "mask_d_prime",
              "mask_hidden", "enrich.k", "enrich.clusters", "tasknet.layers",
              "tasknet.heads", "tasknet.head_dim")


def with_values(config, pairs):
    """A copy of a nested config dict with each dotted field set."""
    config = json.loads(json.dumps(config))
    for field, value in pairs:
        *path, name = field.split(".")
        node = config
        for part in path:
            node = node.setdefault(part, {})
        node[name] = value
    return config


def run_train_config(domains, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main(["train", "--config", str(path),
                 "--source", str(domains[0]), "--source", str(domains[1]),
                 "--out", str(tmp_path / "out")])


def run_eval_config(domains, tmp_path, checkpoint, config):
    """`maskdg eval` of `checkpoint` with its stored config replaced."""
    with np.load(checkpoint) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["config"] = config
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = tmp_path / "edited.ckpt"
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    return main(["eval", "--checkpoint", str(path), "--graph",
                 str(domains[2]), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("pairs", [
    [("seed", 1.5)], [("seed", -1)], [("epochs", 1.5)],
    [("tasknet.heads", 2.0)], [("enrich.k", 2.5)], [("n_ascent", True)],
    [("lr_task", "fast")], [("mask_enabled", 1)],
    [("dual_rho", True), ("dual_step", 1.0)],
    [("dual_rho", "x"), ("dual_step", 1.0)],
], ids=["seed-float", "seed-negative", "epochs-float", "heads-float",
        "k-float", "n-ascent-bool", "lr-string", "mask-enabled-int",
        "dual-rho-bool", "dual-rho-string"])
def test_config_file_value_of_wrong_type_exits_1(domains, tmp_path, capsys,
                                                 pairs):
    rc = run_train_config(domains, tmp_path,
                          with_values(SMALL_CONFIG, pairs))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: bad configuration: "), err
    assert not (tmp_path / "out").exists()


def test_config_file_integer_valued_float_takes_a_float_flag(domains,
                                                            tmp_path):
    # the flag is typed by the field's default, not by the file's value 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(with_values(SMALL_CONFIG,
                                           [("lr_task", 1), ("epochs", 1)])))
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--lr-task", "0.005",
                 "--source", str(domains[0]), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["lr_task"] == 0.005


@pytest.mark.parametrize("nested, flag", [
    ({"tasknet": None}, ["--tasknet-heads", "2"]),
    ({"enrich": 3}, ["--enrich-k", "2"]),
], ids=["tasknet-null", "enrich-int"])
def test_nested_config_not_an_object_with_its_flag_exits_1(
        domains, tmp_path, capsys, nested, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_CONFIG, **nested}))
    rc = main(["train", "--config", str(path), *flag,
               "--source", str(domains[0]), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and next(iter(nested)) in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"epochs"', "3", "null"])
def test_config_file_that_is_not_an_object_exits_1(domains, tmp_path, capsys,
                                                    text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc = main(["train", "--config", str(path), "--source", str(domains[0]),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: "), text


@pytest.mark.parametrize("pairs", [
    [("enrich.k", 2.5)], [("enrich.clusters", 3.5)], [("seed", 1.5)],
    [("seed", -1)],
], ids=["k-float", "clusters-float", "seed-float", "seed-negative"])
def test_checkpoint_config_value_of_wrong_type_exits_1(
        domains, trained_checkpoint, tmp_path, capsys, pairs):
    with np.load(trained_checkpoint) as data:
        config = json.loads(bytes(data["meta"]).decode())["config"]
    rc = run_eval_config(domains, tmp_path, trained_checkpoint,
                         with_values(config, pairs))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "not a readable checkpoint" in err


# The settings that are no longer configurable, at the one value each still
# takes; checkpoints written before they went carry them.
RETIRED = [("enrich.kernel_bandwidth", "median"),
           ("enrich.add_self_loops", True), ("enrich.solver_cap", 5000),
           ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_eps", 1e-8),
           ("tasknet.activation", "elu")]


def test_checkpoint_with_retired_enrich_keys_evaluates_identically(
        domains, trained_checkpoint, tmp_path):
    with np.load(trained_checkpoint) as data:
        config = json.loads(bytes(data["meta"]).decode())["config"]
    for node, cls in ((config, TrainConfig), (config["enrich"], EnrichConfig),
                      (config["tasknet"], TaskNetConfig)):
        assert set(node) == {f.name for f in dataclasses.fields(cls)}
    outputs = []
    for name, stored in (("current", config),
                         ("retired", with_values(config, RETIRED))):
        (tmp_path / name).mkdir()
        assert run_eval_config(domains, tmp_path / name, trained_checkpoint,
                               stored) == 0
        lines = (tmp_path / name / "out" / "metrics.json").read_bytes()
        outputs.append([line for line in lines.splitlines()
                        if b'"manifest_sha256"' not in line])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("pair", [("enrich.kernel_bandwidth", 0.5),
                                  ("enrich.add_self_loops", False),
                                  ("enrich.solver_cap", 10000),
                                  ("adam_beta1", 0.95), ("adam_beta2", 0.99),
                                  ("adam_eps", 1e-6),
                                  ("tasknet.activation", "relu")],
                         ids=["bandwidth-0.5", "self-loops-false",
                              "solver-cap-10000", "beta1-0.95", "beta2-0.99",
                              "eps-1e-6", "activation-relu"])
def test_checkpoint_with_retired_enrich_key_at_another_value_exits_1(
        domains, trained_checkpoint, tmp_path, capsys, pair):
    with np.load(trained_checkpoint) as data:
        config = json.loads(bytes(data["meta"]).decode())["config"]
    rc = run_eval_config(domains, tmp_path, trained_checkpoint,
                         with_values(config, [pair]))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and pair[0] in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


NON_FINITE_OR_OUT_OF_RANGE = [
    [("sparsity", float("nan"))], [("lr_task", float("inf"))],
    [("weight_decay_task", -float("inf"))], [("dual_step", float("nan"))],
    [("tasknet.attn_dropout", float("nan"))],
    [("enrich.gamma_knn", float("inf"))], [("lr_mask", 0.0)],
    [("weight_decay_task", -1e-4)], [("lr_task", 10 ** 400)],
]
NON_FINITE_IDS = ["sparsity-nan", "lr-task-inf", "weight-decay-minus-inf",
                  "dual-step-nan", "attn-dropout-nan", "gamma-knn-inf",
                  "lr-mask-0", "weight-decay-negative",
                  "lr-task-int-past-float64"]


@pytest.mark.parametrize("pairs", NON_FINITE_OR_OUT_OF_RANGE,
                         ids=NON_FINITE_IDS)
def test_config_file_float_not_finite_or_out_of_range_exits_1(
        domains, tmp_path, capsys, pairs):
    rc = run_train_config(domains, tmp_path,
                          with_values(SMALL_CONFIG, pairs))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: bad configuration: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()     # rejected before any work


@pytest.mark.parametrize("pairs", NON_FINITE_OR_OUT_OF_RANGE[:3],
                         ids=NON_FINITE_IDS[:3])
def test_checkpoint_config_float_not_finite_exits_1(
        domains, trained_checkpoint, tmp_path, capsys, pairs):
    with np.load(trained_checkpoint) as data:
        config = json.loads(bytes(data["meta"]).decode())["config"]
    rc = run_eval_config(domains, tmp_path, trained_checkpoint,
                         with_values(config, pairs))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "not a readable checkpoint" in err
    assert "Traceback" not in err


CONFIG_VALUES = st.one_of(st.integers(-3, 4), st.floats(-4, 4),
                          st.booleans(), st.none(), st.text(max_size=2))
FUZZ_PAIRS = st.lists(st.tuples(st.sampled_from(INT_FIELDS), CONFIG_VALUES),
                      min_size=1, max_size=2)


def assert_exit_0_or_1(rc, err):
    assert rc in (0, 1) and "Traceback" not in err
    assert rc == 0 or err.startswith("error: "), err


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=FUZZ_PAIRS)
def test_fuzzed_config_file_exits_0_or_1(domains, tmp_path, capsys, pairs):
    rc = run_train_config(domains, tmp_path,
                          with_values(SMALL_CONFIG, pairs))
    assert_exit_0_or_1(rc, capsys.readouterr().err)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=FUZZ_PAIRS)
def test_fuzzed_checkpoint_config_exits_0_or_1(domains, trained_checkpoint,
                                               tmp_path, capsys, pairs):
    with np.load(trained_checkpoint) as data:
        config = json.loads(bytes(data["meta"]).decode())["config"]
    rc = run_eval_config(domains, tmp_path, trained_checkpoint,
                         with_values(config, pairs))
    assert_exit_0_or_1(rc, capsys.readouterr().err)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_checkpoint_bytes_exit_0_or_1(domains, trained_checkpoint,
                                                tmp_path, capsys, data):
    raw = bytearray(trained_checkpoint.read_bytes())
    raw = raw[:data.draw(st.integers(1, len(raw)), label="length")]
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                         st.integers(1, 255)), max_size=6),
                      label="flips")
    for pos, bits in flips:
        raw[pos] ^= bits
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(bytes(raw))
    rc = main(["eval", "--checkpoint", str(path), "--graph", str(domains[2]),
               "--out", str(tmp_path / "out")])
    assert_exit_0_or_1(rc, capsys.readouterr().err)
