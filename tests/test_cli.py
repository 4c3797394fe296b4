import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maskdg import checks
from maskdg.cli import main
from maskdg.gradients import FiniteDiffReport
from maskdg.graph import EdgeOrigin, load_graph, save_graph


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


def run_train(domains, out, extra=()):
    return main(["train",
                 "--source", str(domains[0]), "--source", str(domains[1]),
                 "--target", str(domains[2]),
                 *COMMON, *extra, "--out", str(out)])


def test_train_pipeline_artifacts(domains, tmp_path):
    out = tmp_path / "run"
    assert run_train(domains, out) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "target_all_ones" in metrics and "target_masknet" in metrics
    assert 0.0 <= metrics["target_all_ones"]["micro_f1"] <= 1.0
    assert (out / "model.ckpt").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 3      # header + 2 epochs
    mask_rows = (out / "mask_dump.csv").read_text().splitlines()
    assert mask_rows[0] == "src,dst,origin,s"
    assert len(mask_rows) > 1


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


def test_target_labels_unread_during_training(domains, tmp_path):
    # read-audit: corrupting target labels must not change the checkpoint
    tgt = load_graph(domains[2])
    corrupted = tgt.with_labels((tgt.labels + 1) % tgt.num_classes)
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
        audit = checks.gradient_audit(seed)
        assert report["passed"] is True
        assert report["tasknet"] == audit.tasknet.per_tensor
        assert report["masknet"] == audit.masknet.per_tensor


def test_a_failing_check_exits_3(tmp_path, capsys, monkeypatch):
    bad = FiniteDiffReport({"out_w": 1.0}, {"out_w": 1}, 1.0, 1e-4)
    monkeypatch.setattr(checks, "gradient_audit", lambda seed:
                        SimpleNamespace(tasknet=bad, masknet=bad, passed=False))
    monkeypatch.setitem(checks.ORACLES, "kkt",
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

    for name in list(checks.ORACLES):
        monkeypatch.setitem(checks.ORACLES, name, spy(name))
    out = tmp_path / "orc"
    assert main(["oracle", "--out", str(out)]) == 0
    assert calls == [(name, 0) for name in checks.ORACLES]
    results = json.loads((out / "oracle.json").read_text())["results"]
    assert results == {name: result.passed
                       for name, (result, _) in oracle_runs.items()}
    assert results == dict.fromkeys(checks.ORACLES, True)


def test_ablate_lambda_runs_grid(domains, tmp_path):
    out = tmp_path / "lam"
    rc = main(["ablate-lambda",
               "--source", str(domains[0]), "--target", str(domains[2]),
               *COMMON, "--grid", "0,0.1", "--out", str(out)])
    assert rc == 0
    table = json.loads((out / "lambda_table.json").read_text())
    assert [r["lambda"] for r in table["rows"]] == [0.0, 0.1]
    assert (out / "lambda_table.csv").exists()


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


@pytest.mark.parametrize("argv", [
    ["enrich", "--k", "0"],
    ["enrich", "--k", "40"],
    ["enrich", "--k", "41"],
    ["enrich", "--k", "3", "--clusters", "41"],
    ["train", *COMMON, "--enrich-clusters", "41"],
    ["train", *COMMON, "--enrich-solver-cap", "39"],
], ids=["enrich-k-0", "enrich-k-N", "enrich-k-over-N", "enrich-clusters-over-N",
        "train-clusters-over-N", "train-N-over-solver-cap"])
def test_enrichment_inputs_out_of_range_exit_1(domains, tmp_path, capsys,
                                               argv):
    # each synth domain has 40 nodes
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
], ids=["synth-no-domains", "synth-negative-nodes", "train-epochs-not-int",
        "grid-not-numbers", "grid-negative", "train-mask-d-prime-0",
        "train-attn-dropout-over-1", "train-layer-dropout-over-1",
        "train-mask-enabled-not-bool"])
def test_configuration_values_out_of_range_exit_1(domains, tmp_path, capsys,
                                                  argv):
    source = [] if argv[0] == "synth" else ["--source", str(domains[0])]
    rc = main([argv[0], *source, *argv[1:], "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()     # rejected before any work


def test_mask_dump_describes_the_inference_graph(domains, tmp_path):
    from maskdg.training import inference_graph, load_checkpoint

    out = tmp_path / "run"
    assert run_train(domains, out) == 0
    model = load_checkpoint(out / "model.ckpt")
    edges = inference_graph(model.cfg, load_graph(domains[0])).enriched_edges
    rows = [r.split(",") for r in
            (out / "mask_dump.csv").read_text().splitlines()[1:]]
    assert [(int(a), int(b), o) for a, b, o, _ in rows] == [
        (a, b, EdgeOrigin(o).name) for a, b, o in edges.tolist()]


# -- malformed graph and checkpoint inputs: "error: <path>...", exit 1 -------

@pytest.mark.parametrize("argv, message", [
    ("enrich --graph cut.graph", "cut.graph:21: file ends inside the X block"),
    ("enrich --graph bogus.graph", "bogus.graph:{row}: expected 'src dst ORI"),
    ("train --source cut.graph", "cut.graph:21: file ends inside the X block"),
    ("eval --checkpoint absent.ckpt --graph cut.graph",
     "absent.ckpt: not a readable checkpoint ([Errno 2] No such file"),
    ("eval --checkpoint junk.ckpt --graph cut.graph",
     "junk.ckpt: not a readable checkpoint"),
], ids=["cut-graph", "bogus-origin", "train-cut-source", "missing-checkpoint",
        "non-npz-checkpoint"])
def test_malformed_input_exits_1(domains, tmp_path, capsys, monkeypatch,
                                 argv, message):
    monkeypatch.chdir(tmp_path)
    lines = domains[0].read_text().splitlines()
    row = next(i for i, l in enumerate(lines) if l.startswith("edges ")) + 1
    (tmp_path / "cut.graph").write_text("\n".join(lines[:20]) + "\n")
    lines[row] = lines[row].rsplit(" ", 1)[0] + " BOGUS"
    (tmp_path / "bogus.graph").write_text("\n".join(lines) + "\n")
    (tmp_path / "junk.ckpt").write_text("not an npz archive\n")
    rc = main(argv.split() + ["--out", "out"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: " + message.format(row=row + 1)), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
