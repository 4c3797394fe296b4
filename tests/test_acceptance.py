"""End-to-end acceptance suite.

One test per criterion, each at its pinned tolerance, printing a PASS line
(visible with -s). The long-running domain-generalization study sits last.
"""

import time
from dataclasses import replace

import numpy as np

from maskdg import theory
from maskdg.enrich import EnrichConfig
from maskdg.graph import DomainDataset, EdgeOrigin, make_edges
from maskdg.synth import SynthConfig, generate
from maskdg.tasknet import (TaskNetConfig, cross_entropy, init_tasknet,
                            tasknet_forward)
from maskdg.training import (TrainConfig, ablate_2x2, evaluate,
                             final_mean_mask, save_checkpoint, train)

from tests.test_tasknet import edge_softmax, reference_gat_forward


# Criteria 1-5 run the instances of `maskdg.theory`, the same ones `maskdg
# gradcheck` and `maskdg oracle` run; criteria 2-5 read the session's one
# run of them (the `oracle_runs` fixture). Each test restates the instance
# parameters and the tolerance as literals against what the check measured.

def test_criterion_1_gradient_correctness_within_10s():
    edges = theory.eight_node_fixture(0)[3]
    assert np.bincount(edges[:, 2], minlength=4).tolist() == [8, 4, 4, 8]
    start = time.monotonic()
    audit = theory.gradient_audit()
    elapsed = time.monotonic() - start
    assert (audit.seed, audit.h) == (0, 1e-4)
    for report in (audit.tasknet, audit.masknet):
        # the tolerance also sets the error metric's floor (1e-8 / tol)
        assert report.tol == 1e-4
        assert max(report.per_tensor.values()) <= 1e-4, list(report.lines())
    # non-vacuous: real gradient signal on both sides
    assert audit.signal[0] > 1e-6 and audit.signal[1] > 1e-8
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS gradients match finite differences "
          f"(task {audit.tasknet.max_rel_error:.2e}, mask "
          f"{audit.masknet.max_rel_error:.2e}, {elapsed:.1f}s)")


def test_criterion_2_two_path_identity_10_seeds(oracle_runs):
    report = oracle_runs["grad_identity"][0]
    assert report.seeds == list(range(10))
    worst = max(report.deviations)
    assert worst <= 1e-10, worst
    print(f"\nACCEPTANCE 2 PASS two-path adversary gradient identity "
          f"(max deviation {worst:.2e} over 10 seeds)")


def test_criterion_3_surrogate_indicator_attains_grid_max(oracle_runs):
    report, elapsed = oracle_runs["surrogate"]
    assert (report.seed, report.resolution) == (123, 0.05)
    value, best = report.values, report.grid_maxima
    assert value.shape == best.shape == (100,)
    assert np.all(value >= best - 1e-12), np.flatnonzero(value < best - 1e-12)
    assert np.all(np.abs(value - best) <= 1e-9), np.abs(value - best).max()
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS indicator mask attains the grid maximum on "
          f"100 affine instances ({elapsed:.1f}s)")


def test_criterion_4_weak_duality_on_real_tasknet_instances(oracle_runs):
    result = oracle_runs["dual_bound"][0]
    assert (result.seed, len(result.reports)) == (7, 20)
    for i, report in enumerate(result.reports):
        assert (report.rho, report.resolution) == (0.5, 0.05)
        assert report.primal_point.shape == (4,)
        assert list(report.dual_values) == [0.0, 0.5, 1.0, 5.0]
        for lam, dual in report.dual_values.items():
            assert report.primal <= dual + 1e-9, (i, lam, report.primal, dual)
    print("\nACCEPTANCE 4 PASS weak duality holds on 20 classifier instances "
          "x 4 multipliers (grid 0.05)")


def test_criterion_5_kkt_certificates_and_negative_control(oracle_runs):
    report = oracle_runs["kkt"][0]
    assert report.seed == 11
    assert len(report.certificates) + report.degenerate == 20
    for cert in report.certificates:
        assert cert.tol == 1e-9     # also bounds primal feasibility
        assert cert.stationarity_residuals.max() <= 1e-9, list(cert.lines())
        assert abs(cert.complementary_slackness) <= 1e-9
        assert cert.primal_feasible and cert.dual_feasible
    # corrupted certificate: a kept edge nudged into the interior
    bad = report.corrupted
    assert bad.s_star.tolist() == [0.5, 1.0, 0.0] and bad.tol == 1e-9
    assert bad.stationarity_residuals.max() > 1e-9
    print("\nACCEPTANCE 5 PASS analytic certificates verify at 1e-9; "
          "corrupted certificate rejected")


def test_criterion_6_mechanism_invariants():
    rng = np.random.default_rng(3)
    # softmax: rows sum to one within 1e-12, exact shift invariance
    dst = np.repeat(np.arange(5), 4)
    logits = rng.normal(size=20) * 8
    alpha = edge_softmax(logits, dst, 5)
    sums = np.zeros(5)
    np.add.at(sums, dst, alpha)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    shift = rng.normal(size=5)
    np.testing.assert_allclose(edge_softmax(logits + shift[dst], dst, 5),
                               alpha, rtol=1e-12)

    # zero mask kills the message exactly: output invariant to the masked
    # edge's source transform output
    cfg = TaskNetConfig(layers=1, heads=1, head_dim=4,
                        attn_dropout=0.0, layer_dropout=0.0)
    task = init_tasknet(3, 2, cfg, np.random.default_rng(0))
    # logits no longer read the source embedding
    task.layers[0].a[0, :4] = 0.0
    X = rng.normal(size=(2, 3))
    edges = np.vstack([make_edges([(0, 1)], EdgeOrigin.ORIGINAL),
                       make_edges([(0, 0), (1, 1)], EdgeOrigin.SELF_LOOP)])
    mask = np.array([0.0, 1.0, 1.0])
    out1 = tasknet_forward(task, X, edges, mask, cfg)
    X2 = X.copy()
    X2[0] *= 7.0        # changes z_src of the masked edge only
    out2 = tasknet_forward(task, X2, edges, mask, cfg)
    np.testing.assert_array_equal(out1[1], out2[1])

    # all-ones mask with silenced mask channel equals the reference GAT
    cfg2 = TaskNetConfig(layers=2, heads=3, head_dim=4,
                         attn_dropout=0.0, layer_dropout=0.0)
    p2 = init_tasknet(5, 3, cfg2, np.random.default_rng(4))
    for lp in p2.layers:
        lp.w[...] = 0.0
    X5 = rng.normal(size=(6, 5))
    pairs = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 0)]
    edges6 = np.vstack([make_edges(pairs, EdgeOrigin.ORIGINAL),
                        make_edges([(i, i) for i in range(6)],
                                   EdgeOrigin.SELF_LOOP)])
    ours = tasknet_forward(p2, X5, edges6, np.ones(edges6.shape[0]), cfg2)
    ref = reference_gat_forward(p2, X5, edges6, cfg2)
    assert np.max(np.abs(ours - ref)) <= 1e-10

    # permutation equivariance, exact
    n = 6
    perm = np.random.default_rng(9).permutation(n)
    relabel = np.empty(n, dtype=int)
    relabel[perm] = np.arange(n)
    Xp = np.empty_like(X5)
    Xp[relabel] = X5
    edges_p = edges6.copy()
    edges_p[:, 0] = relabel[edges6[:, 0]]
    edges_p[:, 1] = relabel[edges6[:, 1]]
    outp = tasknet_forward(p2, Xp, edges_p, np.ones(edges_p.shape[0]), cfg2)
    np.testing.assert_array_equal(outp[relabel], ours)
    print("\nACCEPTANCE 6 PASS mechanism invariants (zero-message nullity, "
          "softmax rows, maskless equivalence <=1e-10, permutation equivariance)")


SPARSITY_FIXTURE = TrainConfig(
    epochs=15, lr_task=5e-3, lr_mask=5e-3, n_descent=5, n_ascent=1,
    enrich=EnrichConfig(k=4, clusters=4, gamma_knn=0.4, gamma_spec=0.4),
    tasknet=TaskNetConfig(layers=2, heads=2, head_dim=6,
                          attn_dropout=0.0, layer_dropout=0.0),
    mask_d_prime=12, mask_hidden=8, seed=11,
)


def test_criterion_7_sparsity_response_and_uniform_loss():
    labels = np.arange(12) % 4
    assert abs(cross_entropy(np.zeros((12, 4)), labels) - np.log(4)) <= 1e-12

    graphs = generate(SynthConfig(seed=11, nodes_per_domain=60)).source_graphs
    ds = DomainDataset(graphs[:2], graphs[2])
    means = {}
    for lam in (0.0, 1e-1):
        result = train(ds, replace(SPARSITY_FIXTURE, sparsity=lam))
        means[lam] = final_mean_mask(result.model, ds.source_graphs)
    assert means[1e-1] < means[0.0], means
    print(f"\nACCEPTANCE 7 PASS sparsity response: mean(s)@0.1="
          f"{means[1e-1]:.4f} < mean(s)@0={means[0.0]:.4f}; "
          f"uniform loss = ln C")


HARNESS_ENRICH = EnrichConfig(k=5, clusters=6, gamma_knn=0.3, gamma_spec=0.3)
HARNESS_TASKNET = TaskNetConfig(layers=2, heads=4, head_dim=8,
                                attn_dropout=0.0, layer_dropout=0.0)


def harness_cfg(seed):
    return TrainConfig(
        epochs=20, lr_task=5e-3, lr_mask=5e-3, n_descent=5, n_ascent=1,
        enrich=HARNESS_ENRICH, tasknet=HARNESS_TASKNET,
        mask_d_prime=16, mask_hidden=8, seed=seed,
        inference_mask_mode="masknet",
    )


def test_criterion_8_desk_scale_domain_generalization():
    start = time.monotonic()
    cells = {}
    for seed in range(5):
        graphs = generate(SynthConfig(seed=seed)).source_graphs
        for held in range(3):
            sources = tuple(g for i, g in enumerate(graphs) if i != held)
            ds = DomainDataset(sources, graphs[held])
            for row in ablate_2x2(ds, harness_cfg(seed)):
                key = (row["structure"], row["masking"])
                cells.setdefault(key, []).append(row["micro_f1"])
    elapsed = time.monotonic() - start
    table = {k: float(np.mean(v)) for k, v in cells.items()}
    full = table[("union", "mask")]
    erm = table[("original", "no-mask")]
    margin_pp = 100 * (full - erm)
    print("\nACCEPTANCE 8 2x2 table (mean held-out micro-F1, 5 seeds x "
          "3 scenarios):")
    for (structure, masking), v in sorted(table.items()):
        print(f"  {structure:9s} {masking:8s} {v:.4f}")
    print(f"  margin union+mask vs original+no-mask: {margin_pp:+.1f} pp "
          f"({elapsed:.0f}s)")
    assert full >= erm, table
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    if margin_pp < 2.0:
        print("  WARNING: margin below the +2pp soft target; investigate")
    print("ACCEPTANCE 8 PASS")


def test_criterion_9_bit_identical_checkpoints_and_metrics(tmp_path):
    graphs = generate(SynthConfig(seed=4, nodes_per_domain=40)).source_graphs
    ds = DomainDataset(graphs[:2], graphs[2])
    cfg = replace(SPARSITY_FIXTURE, epochs=3, seed=9)
    blobs, metrics = [], []
    for run in range(2):
        result = train(ds, cfg)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(path, result.model)
        blobs.append(path.read_bytes())
        metrics.append(evaluate(result.model, ds.target_graph))
    assert blobs[0] == blobs[1]
    assert metrics[0] == metrics[1]
    print("\nACCEPTANCE 9 PASS bit-identical checkpoints and metrics "
          "across reruns")


def test_criterion_10_source_isolation():
    graphs = generate(SynthConfig(seed=5, nodes_per_domain=40)).source_graphs
    tgt = graphs[2]
    corrupted = replace(tgt, labels=(tgt.labels + 1) % tgt.num_classes)
    cfg = replace(SPARSITY_FIXTURE, epochs=3, seed=10)
    r1 = train(DomainDataset(graphs[:2], tgt), cfg)
    r2 = train(DomainDataset(graphs[:2], corrupted), cfg)
    for (n1, a), (n2, b) in zip(r1.model.task.named(), r2.model.task.named()):
        assert n1 == n2
        np.testing.assert_array_equal(a, b)
    for (_, a), (_, b) in zip(r1.model.mask.named(), r2.model.mask.named()):
        np.testing.assert_array_equal(a, b)
    print("\nACCEPTANCE 10 PASS target-label mutation changes no trained "
          "parameter")
