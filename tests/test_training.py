import dataclasses
import json
import re

import numpy as np
import pytest

from maskdg import autodiff as ad
from maskdg.enrich import EnrichConfig
from maskdg.graph import DomainDataset, EdgeOrigin, Graph, coalesce, make_edges
from maskdg.masknet import EdgeMask, mask_forward
from maskdg.optim import AdamState, adam_step
from maskdg.tasknet import (TaskNetConfig, cross_entropy, init_tasknet,
                            tasknet_forward)
from maskdg.training import (
    TrainConfig,
    ablate_2x2,
    ablate_lambda,
    dual_ascent_lambda,
    evaluate,
    f1_metrics,
    final_mean_mask,
    inference_graph,
    load_checkpoint,
    mask_statistics,
    save_checkpoint,
    train,
    typed_config,
)


# -- adam -------------------------------------------------------------------

@dataclasses.dataclass
class Vec(ad.Params):
    x: np.ndarray

    def named(self):
        return [("x", self.x)]

    def map(self, fn):
        return Vec(fn(self.x))


def packed_vec(values):
    return ad.packed(Vec(np.array(values, dtype=np.float64)))


def test_adam_zero_gradient_leaves_params_unchanged():
    p = packed_vec([1.0, -2.0])
    state = AdamState()
    adam_step(state, p, {"x": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(p.x, [1.0, -2.0])


def test_adam_first_step_matches_hand_formula():
    p = packed_vec([0.0])
    state = AdamState()
    adam_step(state, p, {"x": np.array([1.0])}, lr=0.1)
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert p.x[0] == pytest.approx(expected, abs=1e-15)
    assert p.x[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_constant_gradient_update_approaches_lr():
    p = packed_vec([0.0])
    state = AdamState()
    g = {"x": np.array([3.0])}
    prev = p.x[0]
    for _ in range(400):
        prev = p.x[0]
        adam_step(state, p, g, lr=0.05)
    assert abs(prev - p.x[0]) == pytest.approx(0.05, rel=1e-4)


def test_adam_weight_decay_adds_l2_pull():
    p = packed_vec([10.0])
    state = AdamState()
    adam_step(state, p, {"x": np.array([0.0])}, lr=0.1, weight_decay=0.5)
    assert p.x[0] < 10.0   # decay alone produces a shrink step


def per_tensor_adam(state, named_params, grads, lr, weight_decay, t,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one tensor at a time, moments in `state` by name."""
    for name, arr in named_params:
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * arr
        m, v = state.setdefault(name, (np.zeros_like(arr),
                                       np.zeros_like(arr)))
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_fused_adam_is_bit_identical_to_per_tensor_adam():
    cfg = TaskNetConfig(layers=2, heads=3, head_dim=4)
    task = ad.packed(init_tasknet(5, 3, cfg, np.random.default_rng(0)))
    ref = [(name, arr.copy()) for name, arr in task.named()]
    fused, moments = AdamState(), {}
    rng = np.random.default_rng(1)
    for t in range(1, 6):
        grads = {name: rng.normal(size=arr.shape) for name, arr in ref}
        adam_step(fused, task, grads, lr=1e-2, weight_decay=5e-3)
        per_tensor_adam(moments, ref, grads, 1e-2, 5e-3, t)
        for (name, arr), (_, want) in zip(task.named(), ref):
            np.testing.assert_array_equal(arr, want, err_msg=name)
    assert fused.step == 5


def test_adam_state_rejects_parameters_of_another_size():
    state = AdamState()
    adam_step(state, packed_vec([1.0, 2.0]), {"x": np.ones(2)}, lr=0.1)
    with pytest.raises(ValueError, match="moments"):
        adam_step(state, packed_vec([1.0, 2.0, 3.0]), {"x": np.ones(3)},
                  lr=0.1)
    assert state.step == 1


def test_adam_rejects_parameters_outside_their_buffer():
    p = packed_vec([1.0])
    with pytest.raises(ValueError, match="packed"):
        adam_step(AdamState(), Vec(np.array([1.0])), {"x": np.ones(1)},
                  lr=0.1)
    p.x = np.array([1.0])     # rebound: no longer a view of p.flat
    with pytest.raises(ValueError, match="packed"):
        adam_step(AdamState(), p, {"x": np.ones(1)}, lr=0.1)


NAMES_2X3 = [f"layer{l}.{leaf}" for l in range(2) for leaf in "Waw"] \
    + ["out_w"]


@pytest.mark.parametrize("name", NAMES_2X3)
@pytest.mark.parametrize("entry", [0, -1], ids=["first", "last"])
def test_adam_names_the_first_tensor_its_update_made_non_finite(name, entry):
    cfg = TaskNetConfig(layers=2, heads=3, head_dim=4)
    task = ad.packed(init_tasknet(5, 3, cfg, np.random.default_rng(0)))
    grads = {n: np.ones_like(arr) for n, arr in task.named()}
    grads[name].reshape(-1)[entry] = np.nan
    grads["out_w"][-1, -1] = np.inf            # a later tensor's, if any
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=f"^non-finite update of {re.escape(name)}$"):
        adam_step(AdamState(), task, grads, lr=0.1)


# -- fixtures ----------------------------------------------------------------

def toy_graph(seed, n=20, d=4, c=2, domain="dom"):
    rng = np.random.default_rng(seed)
    centers = np.eye(c, d) * 3.0
    labels = rng.integers(0, c, size=n)
    X = centers[labels] + rng.normal(size=(n, d))
    pairs = set()
    for i in range(n):
        j = int(rng.integers(0, n))
        if i != j:
            pairs |= {(i, j), (j, i)}
    edges = coalesce(make_edges(sorted(pairs), EdgeOrigin.ORIGINAL))
    return Graph(X, edges, labels, c, domain)


def small_cfg(**over):
    base = dict(
        epochs=2,
        n_descent=2,
        n_ascent=1,
        enrich=EnrichConfig(k=2, clusters=2, gamma_knn=0.5, gamma_spec=0.5),
        tasknet=TaskNetConfig(layers=2, heads=2, head_dim=4,
                              attn_dropout=0.0, layer_dropout=0.0),
        mask_d_prime=4,
        mask_hidden=4,
        seed=7,
    )
    base.update(over)
    return TrainConfig(**base)


def two_domain_dataset(target=True):
    graphs = [toy_graph(1, domain="a"), toy_graph(2, domain="b")]
    tgt = toy_graph(3, domain="t") if target else None
    return DomainDataset(source_graphs=tuple(graphs), target_graph=tgt)


# -- training loop ------------------------------------------------------------

def test_train_smoke_history_length():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=1))
    assert len(result.history) == 1
    rec = result.history[0]
    assert np.isfinite(rec["task_loss"])
    assert rec["mean_mask"] is not None and 0 < rec["mean_mask"] < 1


def test_alternation_counts_match_config():
    ds = two_domain_dataset()
    cfg = small_cfg(epochs=3, n_descent=4, n_ascent=2)
    result = train(ds, cfg)
    for rec in result.history:
        assert rec["descent_steps"] == 4 * len(ds.source_graphs)
        assert rec["ascent_steps"] == 2 * len(ds.source_graphs)


def test_no_mask_mode_runs_zero_ascent_steps():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(mask_enabled=False))
    for rec in result.history:
        assert rec["ascent_steps"] == 0
        assert rec["mean_mask"] is None


def test_scorer_runs_once_before_the_descent_steps_and_once_after_ascent(
        monkeypatch):
    from maskdg import training
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return mask_forward(*args, **kwargs)

    monkeypatch.setattr(training, "mask_forward", counting)
    train(two_domain_dataset(), small_cfg(epochs=2, n_descent=3))
    assert len(calls) == 2 * 2 * 2          # epochs x domains x 2


def test_training_is_bit_deterministic():
    ds = two_domain_dataset()
    cfg = small_cfg()
    a = train(ds, cfg)
    b = train(ds, cfg)
    for (n1, p1), (n2, p2) in zip(a.model.task.named(), b.model.task.named()):
        assert n1 == n2
        np.testing.assert_array_equal(p1, p2)
    for (n1, p1), (n2, p2) in zip(a.model.mask.named(), b.model.mask.named()):
        np.testing.assert_array_equal(p1, p2)
    assert ([r["task_loss"] for r in a.history]
            == [r["task_loss"] for r in b.history])


def test_target_labels_never_influence_training():
    graphs = [toy_graph(1, domain="a"), toy_graph(2, domain="b")]
    tgt = toy_graph(3, domain="t")
    corrupted = dataclasses.replace(tgt,
                                    labels=(tgt.labels + 1) % tgt.num_classes)
    cfg = small_cfg()
    r1 = train(DomainDataset(tuple(graphs), tgt), cfg)
    r2 = train(DomainDataset(tuple(graphs), corrupted), cfg)
    for (_, p1), (_, p2) in zip(r1.model.task.named(), r2.model.task.named()):
        np.testing.assert_array_equal(p1, p2)
    for (_, p1), (_, p2) in zip(r1.model.mask.named(), r2.model.mask.named()):
        np.testing.assert_array_equal(p1, p2)


def test_descent_reduces_loss_on_convex_like_fixture():
    # single linear-ish case: 1-layer net, fixed mask, small lr
    ds = DomainDataset((toy_graph(5, n=16),))
    cfg = small_cfg(
        epochs=5, n_descent=5, mask_enabled=False,
        enrich=EnrichConfig(k=2, clusters=2, gamma_knn=0.0, gamma_spec=0.0),
        tasknet=TaskNetConfig(layers=1, heads=1, head_dim=4,
                              attn_dropout=0.0, layer_dropout=0.0),
    )
    result = train(ds, cfg)
    losses = [r["task_loss"] for r in result.history]
    assert losses[-1] < losses[0]


def test_ascent_step_increases_loss_for_small_lr():
    # after warming the classifier, one adversary step should not reduce the
    # classification loss it attacks (smooth toy instance, tiny lr)
    ds = DomainDataset((toy_graph(6, n=14),))
    warm = small_cfg(epochs=3, sparsity=0.0, lr_mask=1e-4)
    result = train(ds, warm)
    g = ds.source_graphs[0]
    from maskdg.enrich import Enricher
    from maskdg.gradients import grad_masknet

    rng = np.random.default_rng(0)
    enriched = Enricher(g, warm.enrich, rng).sample(rng)
    edges = enriched.enriched_edges
    model = result.model
    before_mask = mask_forward(model.mask, g.features, edges)
    before = cross_entropy(
        tasknet_forward(model.task, g.features, edges, before_mask.values,
                        warm.tasknet), g.labels)
    bundle = grad_masknet(model.task, model.mask, g.features, edges, g.labels,
                          0.0, warm.tasknet)
    for name, arr in model.mask.named():
        arr -= 1e-4 * bundle.grads[name]
    after_mask = mask_forward(model.mask, g.features, edges)
    after = cross_entropy(
        tasknet_forward(model.task, g.features, edges, after_mask.values,
                        warm.tasknet), g.labels)
    assert after >= before


def test_huge_sparsity_penalty_shrinks_mean_mask():
    ds = DomainDataset((toy_graph(7, n=14),))
    cfg = small_cfg(epochs=4, sparsity=1e3)
    result = train(ds, cfg)
    means = [r["mean_mask"] for r in result.history]
    assert means[-1] < means[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_with_context():
    ds = two_domain_dataset()
    cfg = small_cfg(lr_task=1e200, epochs=3, n_descent=8)
    with pytest.raises(FloatingPointError, match="epoch"):
        train(ds, cfg)


def test_nonfinite_weight_aborts_naming_epoch_domain_layer_and_head(
        monkeypatch):
    from maskdg import training
    from maskdg.tasknet import NonFiniteError

    real_init = training.init_tasknet

    def poisoned_init(*args, **kwargs):
        p = real_init(*args, **kwargs)
        p.layers[1].W[2, 0, 0] = np.nan
        return p

    monkeypatch.setattr(training, "init_tasknet", poisoned_init)
    cfg = small_cfg(tasknet=TaskNetConfig(layers=2, heads=3, head_dim=2,
                                          attn_dropout=0.0,
                                          layer_dropout=0.0))
    with pytest.raises(FloatingPointError, match="epoch 0, domain 'a'") as info:
        train(two_domain_dataset(), cfg)
    cause = info.value.__cause__
    assert isinstance(cause, NonFiniteError)
    assert (cause.layer, cause.head) == (1, 2)
    assert "layer 1, head 2" in str(info.value)


def test_nonfinite_scorer_weight_aborts_naming_the_scorer(monkeypatch):
    # The NaN scores of a poisoned scorer used to surface in the classifier
    # as "non-finite activation at layer 0, head 0".
    from maskdg import training
    from maskdg.tasknet import NonFiniteError

    real_init = training.init_masknet

    def poisoned_init(*args, **kwargs):
        p = real_init(*args, **kwargs)
        p.mlp_w1[0, 0] = np.nan
        return p

    monkeypatch.setattr(training, "init_masknet", poisoned_init)
    with pytest.raises(FloatingPointError, match="epoch 0, domain 'a'") as info:
        train(two_domain_dataset(), small_cfg())
    assert "non-finite edge score in the mask scorer" in str(info.value)
    assert not isinstance(info.value.__cause__, NonFiniteError)


def _step_fixture():
    g = toy_graph(20, n=12)
    from maskdg.enrich import Enricher
    from maskdg.masknet import init_masknet
    from maskdg.tasknet import init_tasknet

    cfg = small_cfg(epochs=1)
    rng = np.random.default_rng(0)
    enriched = Enricher(g, cfg.enrich, rng).sample(rng)
    r = np.random.default_rng(1)
    task = ad.packed(init_tasknet(g.num_features, g.num_classes,
                                  cfg.tasknet, r))
    maskp = ad.packed(init_masknet(g.num_features, cfg.mask_d_prime,
                                   cfg.mask_hidden, r))
    return g, enriched, cfg, task, maskp


def test_descent_step_leaves_scorer_untouched():
    from maskdg.training import tasknet_descent_step

    g, enriched, cfg, task, maskp = _step_fixture()
    before = {n: a.copy() for n, a in maskp.named()}
    s = mask_forward(maskp, g.features, enriched.enriched_edges).values
    loss = tasknet_descent_step(task, s, g.features,
                                enriched.enriched_edges, g.labels, cfg,
                                AdamState())
    assert np.isfinite(loss)
    for n, a in maskp.named():
        np.testing.assert_array_equal(a, before[n])


def test_ascent_step_leaves_classifier_untouched():
    from maskdg.training import masknet_ascent_step

    g, enriched, cfg, task, maskp = _step_fixture()
    before = {n: a.copy() for n, a in task.named()}
    obj = masknet_ascent_step(task, maskp, g.features,
                              enriched.enriched_edges, g.labels, 0.01, cfg,
                              AdamState())
    assert np.isfinite(obj)
    for n, a in task.named():
        np.testing.assert_array_equal(a, before[n])


# -- dual ascent ---------------------------------------------------------------

def test_dual_ascent_fixed_point():
    assert dual_ascent_lambda(0.3, mean_s=0.5, rho=0.5, step=1.0) == 0.3


def test_dual_ascent_projection_at_zero():
    assert dual_ascent_lambda(0.0, mean_s=0.2, rho=0.5, step=1.0) == 0.0


def test_dual_ascent_arithmetic():
    assert dual_ascent_lambda(0.1, mean_s=0.6, rho=0.5, step=1.0) \
        == pytest.approx(0.2)


def test_dual_ascent_in_training_moves_lambda():
    ds = DomainDataset((toy_graph(8, n=12),))
    cfg = small_cfg(epochs=2, dual_rho=0.01, dual_step=1.0)
    result = train(ds, cfg)
    assert result.model.final_lambda != cfg.sparsity


# -- metrics -------------------------------------------------------------------

def test_perfect_predictions_score_one():
    y = np.array([0, 1, 2, 1, 0])
    m = f1_metrics(y, y.copy(), 3)
    assert m["micro_f1"] == m["macro_f1"] == m["accuracy"] == 1.0


def test_constant_prediction_on_balanced_classes():
    y_true = np.repeat(np.arange(5), 10)
    y_pred = np.zeros(50, dtype=int)
    m = f1_metrics(y_true, y_pred, 5)
    assert m["micro_f1"] == pytest.approx(0.2)
    assert m["macro_f1"] == pytest.approx((2 * 0.2 / 1.2) / 5, abs=1e-12)


def test_unlabeled_rows_excluded_from_metrics():
    y_true = np.array([0, 1, -1])
    y_pred = np.array([0, 1, 0])
    m = f1_metrics(y_true, y_pred, 2)
    assert m["accuracy"] == 1.0


def test_metrics_need_labels():
    with pytest.raises(ValueError):
        f1_metrics(np.array([-1]), np.array([0]), 2)


def test_inference_mask_modes_differ_after_training():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=3, sparsity=10.0))
    tgt = ds.target_graph
    all_ones = evaluate(result.model, tgt, mask_mode="all-ones")
    masked = evaluate(result.model, tgt, mask_mode="masknet")
    # trained mask is far from 1, so the two modes see different graphs;
    # metrics may coincide by luck, so compare logits instead
    from maskdg.enrich import Enricher
    cfg = result.model.cfg
    e_cfg = dataclasses.replace(cfg.enrich, gamma_knn=1.0, gamma_spec=1.0)
    rng = np.random.default_rng(cfg.seed)
    enr = Enricher(tgt, e_cfg, rng).sample(rng)
    lg1 = tasknet_forward(result.model.task, tgt.features, enr.enriched_edges,
                          np.ones(enr.enriched_edges.shape[0]), cfg.tasknet)
    mv = mask_forward(result.model.mask, tgt.features, enr.enriched_edges)
    lg2 = tasknet_forward(result.model.task, tgt.features, enr.enriched_edges,
                          mv.values, cfg.tasknet)
    assert not np.allclose(lg1, lg2)


def test_inference_graph_takes_every_edge_of_each_enabled_origin():
    from maskdg.enrich import knn_edges
    g = toy_graph(4)
    cfg = small_cfg(enrich=EnrichConfig(k=3, clusters=2, gamma_knn=0.2,
                                        gamma_spec=0.0))
    edges = inference_graph(cfg, g)
    np.testing.assert_array_equal(edges, inference_graph(cfg, g))
    pairs = set(map(tuple, edges[:, :2]))
    assert set(map(tuple, knn_edges(g.features, 3)[:, :2])) <= pairs
    assert set(map(tuple, g.edges[:, :2])) <= pairs
    assert not (edges[:, 2] == int(EdgeOrigin.SPECTRAL)).any()


def test_evaluation_is_deterministic():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=1))
    a = evaluate(result.model, ds.target_graph)
    b = evaluate(result.model, ds.target_graph)
    assert a == b


# -- mask statistics ------------------------------------------------------------

def _stats_fixture(values):
    edges = np.vstack([
        make_edges([(0, 1), (1, 0)], EdgeOrigin.ORIGINAL),
        make_edges([(0, 2), (2, 0)], EdgeOrigin.KNN),
        make_edges([(1, 2)], EdgeOrigin.SPECTRAL),
        make_edges([(0, 0)], EdgeOrigin.SELF_LOOP),
    ])
    scorable = edges[:, 0] != edges[:, 1]
    return edges, EdgeMask(values=np.asarray(values), scorable=scorable)


SCORED_ORIGINS = ("ORIGINAL", "KNN", "SPECTRAL")


def test_mask_stats_all_high_prunes_nothing():
    edges, mask = _stats_fixture([0.9] * 5 + [1.0])
    st = mask_statistics(edges, mask)
    assert [st[o]["pruned_pct"] for o in SCORED_ORIGINS] == [0.0] * 3


def test_mask_stats_all_low_prunes_everything():
    edges, mask = _stats_fixture([0.1] * 5 + [1.0])
    st = mask_statistics(edges, mask)
    assert [st[o]["pruned_pct"] for o in SCORED_ORIGINS] == [100.0] * 3


def test_mask_stats_mixed_counts_match_enumeration():
    # KNN and SPECTRAL are pruned differently: one of two KNN edges, the
    # one SPECTRAL edge; the old lumped share was (1 + 1) / 3 of them
    edges, mask = _stats_fixture([0.9, 0.2, 0.4, 0.8, 0.3, 1.0])
    st = mask_statistics(edges, mask)
    assert st == {
        "ORIGINAL": {"edges": 2, "mean_mask": pytest.approx(0.55),
                     "pruned_pct": 50.0},
        "KNN": {"edges": 2, "mean_mask": pytest.approx(0.6),
                "pruned_pct": 50.0},
        "SPECTRAL": {"edges": 1, "mean_mask": 0.3, "pruned_pct": 100.0},
    }
    lumped = sum(st[o]["edges"] * st[o]["pruned_pct"]
                 for o in ("KNN", "SPECTRAL")) / 3
    assert lumped == pytest.approx(100 * 2 / 3)


@pytest.mark.parametrize("present", [(0, 1, 2), (0, 2), (1,)])
def test_mask_stats_match_a_loop_over_the_edges(present):
    # an origin missing from the edges reads None; values exactly at the
    # threshold are kept; self-loops are never counted
    r = np.random.default_rng(len(present))
    n = 12
    pairs = r.integers(0, n, size=(80, 2))
    origins = r.choice(present, size=80)
    edges = np.column_stack([pairs, np.where(pairs[:, 0] == pairs[:, 1],
                                             int(EdgeOrigin.SELF_LOOP),
                                             origins)])
    values = np.where(r.random(80) < 0.2, 0.5, r.random(80))
    scorable = edges[:, 0] != edges[:, 1]
    values[~scorable] = 1.0
    st = mask_statistics(edges, EdgeMask(values=values, scorable=scorable))
    assert list(st) == list(SCORED_ORIGINS)
    for name in SCORED_ORIGINS:
        vals = [float(v) for (u, w, o), v in zip(edges.tolist(), values)
                if u != w and EdgeOrigin(o).name == name]
        if not vals:
            assert st[name] is None, name
            continue
        pruned = sum(v < 0.5 for v in vals)
        assert st[name] == {"edges": len(vals),
                            "mean_mask": pytest.approx(sum(vals) / len(vals)),
                            "pruned_pct": 100.0 * (pruned / len(vals))}, name


# -- ablations -------------------------------------------------------------------

def test_ablate_lambda_emits_row_per_value():
    ds = two_domain_dataset()
    rows = ablate_lambda(ds, small_cfg(epochs=1), [0.0, 0.1])
    assert [r["lambda"] for r in rows] == [0.0, 0.1]
    assert all("mean_mask" in r and "micro_f1" in r for r in rows)


def test_ablate_lambda_empty_grid_rejected():
    with pytest.raises(ValueError):
        ablate_lambda(two_domain_dataset(), small_cfg(), [])


def test_ablate_lambda_sparsity_pressure_is_monotone_at_extremes():
    ds = DomainDataset((toy_graph(9, n=14),), toy_graph(10, n=14))
    rows = ablate_lambda(ds, small_cfg(epochs=4), [0.0, 1e2])
    assert rows[1]["mean_mask"] < rows[0]["mean_mask"]


def test_ablate_2x2_emits_four_cells():
    ds = two_domain_dataset()
    rows = ablate_2x2(ds, small_cfg(epochs=1))
    cells = {(r["structure"], r["masking"]) for r in rows}
    assert cells == {("original", "no-mask"), ("original", "mask"),
                     ("union", "no-mask"), ("union", "mask")}
    assert all("micro_f1" in r for r in rows)


# -- checkpoints ------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=1))
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, result.model)
    loaded = load_checkpoint(p)
    for (n1, a), (n2, b) in zip(result.model.task.named(),
                                loaded.task.named()):
        assert n1 == n2
        np.testing.assert_array_equal(a, b)
    for (_, a), (_, b) in zip(result.model.mask.named(), loaded.mask.named()):
        np.testing.assert_array_equal(a, b)
    assert (dataclasses.asdict(loaded.cfg)
            == dataclasses.asdict(result.model.cfg))
    assert loaded.final_lambda == result.model.final_lambda


def test_checkpoint_bytes_are_run_independent(tmp_path):
    ds = two_domain_dataset()
    cfg = small_cfg(epochs=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, train(ds, cfg).model)
    save_checkpoint(p2, train(ds, cfg).model)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bytes_with_dropout_are_run_independent(tmp_path):
    ds = two_domain_dataset()
    cfg = small_cfg(epochs=2, tasknet=TaskNetConfig(
        layers=2, heads=2, head_dim=4, attn_dropout=0.4, layer_dropout=0.3))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, train(ds, cfg).model)
    save_checkpoint(p2, train(ds, cfg).model)
    assert p1.read_bytes() == p2.read_bytes()
    nodrop = tmp_path / "c.ckpt"
    save_checkpoint(nodrop, train(ds, small_cfg(epochs=2)).model)
    assert load_checkpoint(p1).task.out_w.tobytes() != \
        load_checkpoint(nodrop).task.out_w.tobytes()


def test_checkpoint_with_legacy_rng_state_loads(tmp_path):
    # earlier checkpoints also stored the training loop's rng state in meta
    ds = two_domain_dataset()
    p, legacy = tmp_path / "model.ckpt", tmp_path / "legacy.ckpt"
    save_checkpoint(p, train(ds, small_cfg(epochs=1)).model)
    with np.load(p) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert "rng_state" not in meta
    meta["rng_state"] = np.random.default_rng(0).bit_generator.state
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with legacy.open("wb") as f:
        np.savez(f, **arrays)
    for mode in ("all-ones", "masknet"):
        assert evaluate(load_checkpoint(legacy), ds.target_graph, mode) == \
            evaluate(load_checkpoint(p), ds.target_graph, mode)


def test_config_roundtrip_through_dict():
    cfg = small_cfg(sparsity=0.5, dual_rho=0.3, dual_step=2.0)
    again = typed_config(TrainConfig, dataclasses.asdict(cfg))
    assert dataclasses.asdict(again) == dataclasses.asdict(cfg)


@pytest.mark.parametrize("value", [True, False, "x", [0.5]])
def test_dual_rho_must_be_a_number_or_null(value):
    # A bool used to pass as rho = 1 (or 0), a string to fail in `<`.
    message = re.escape(f"dual_rho must be null or a number in (0, 1], "
                        f"got {value!r}")
    with pytest.raises(ValueError, match=message):
        TrainConfig(dual_rho=value, dual_step=1.0)
    with pytest.raises(ValueError, match=message):
        typed_config(TrainConfig, {"dual_rho": value, "dual_step": 1.0})
    assert TrainConfig(dual_rho=1, dual_step=1.0).dual_rho == 1


def test_config_rejects_unknown_keys():
    data = dataclasses.asdict(small_cfg())
    data["learning_rate"] = 1.0
    with pytest.raises(ValueError, match="unknown config"):
        typed_config(TrainConfig, data)
    data = dataclasses.asdict(small_cfg())
    data["tasknet"]["width"] = 3
    with pytest.raises(ValueError, match=r"\['tasknet\.width'\]"):
        typed_config(TrainConfig, data)


def test_final_mean_mask_in_unit_interval():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=1))
    v = final_mean_mask(result.model, ds.source_graphs)
    assert 0.0 < v < 1.0
