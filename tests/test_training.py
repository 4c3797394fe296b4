import dataclasses
import numpy as np
import pytest

from maskdg.enrich import EnrichConfig
from maskdg.graph import DomainDataset, EdgeOrigin, Graph, coalesce, make_edges
from maskdg.masknet import EdgeMask, mask_forward
from maskdg.optim import AdamState, adam_step
from maskdg.tasknet import TaskNetConfig, cross_entropy, tasknet_forward
from maskdg.training import (
    TrainConfig,
    ablate_2x2,
    ablate_lambda,
    config_from_dict,
    config_to_dict,
    dual_ascent_lambda,
    evaluate,
    f1_metrics,
    final_mean_mask,
    load_checkpoint,
    mask_statistics,
    save_checkpoint,
    train,
)


# -- adam -------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    x = np.array([1.0, -2.0])
    state = AdamState()
    adam_step(state, [("x", x)], {"x": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(x, [1.0, -2.0])


def test_adam_first_step_matches_hand_formula():
    x = np.array([0.0])
    state = AdamState()
    adam_step(state, [("x", x)], {"x": np.array([1.0])}, lr=0.1)
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert x[0] == pytest.approx(expected, abs=1e-15)
    assert x[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_constant_gradient_update_approaches_lr():
    x = np.array([0.0])
    state = AdamState()
    g = {"x": np.array([3.0])}
    prev = x[0]
    for _ in range(400):
        prev = x[0]
        adam_step(state, [("x", x)], g, lr=0.05)
    assert abs(prev - x[0]) == pytest.approx(0.05, rel=1e-4)


def test_adam_weight_decay_adds_l2_pull():
    x = np.array([10.0])
    state = AdamState()
    adam_step(state, [("x", x)], {"x": np.array([0.0])}, lr=0.1,
              weight_decay=0.5)
    assert x[0] < 10.0   # decay alone produces a shrink step


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
    assert np.isfinite(rec.task_loss)
    assert rec.mean_mask is not None and 0 < rec.mean_mask < 1


def test_alternation_counts_match_config():
    ds = two_domain_dataset()
    cfg = small_cfg(epochs=3, n_descent=4, n_ascent=2)
    result = train(ds, cfg)
    for rec in result.history:
        assert rec.descent_steps == 4 * len(ds.source_graphs)
        assert rec.ascent_steps == 2 * len(ds.source_graphs)


def test_no_mask_mode_runs_zero_ascent_steps():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(mask_enabled=False))
    for rec in result.history:
        assert rec.ascent_steps == 0
        assert rec.mean_mask is None


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
    assert [r.task_loss for r in a.history] == [r.task_loss for r in b.history]


def test_target_labels_never_influence_training():
    graphs = [toy_graph(1, domain="a"), toy_graph(2, domain="b")]
    tgt = toy_graph(3, domain="t")
    corrupted = tgt.with_labels((tgt.labels + 1) % tgt.num_classes)
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
    losses = [r.task_loss for r in result.history]
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
    means = [r.mean_mask for r in result.history]
    assert means[-1] < means[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_with_context():
    ds = two_domain_dataset()
    cfg = small_cfg(lr_task=1e200, epochs=3, n_descent=8)
    with pytest.raises(RuntimeError, match="epoch"):
        train(ds, cfg)


def test_nonfinite_weight_aborts_naming_epoch_domain_layer_and_head(
        monkeypatch):
    from maskdg import training
    from maskdg.tasknet import NonFiniteError

    real_init = training.init_tasknet

    def poisoned_init(*args, **kwargs):
        p = real_init(*args, **kwargs)
        p.layers[1][2].W[0, 0] = np.nan
        return p

    monkeypatch.setattr(training, "init_tasknet", poisoned_init)
    cfg = small_cfg(tasknet=TaskNetConfig(layers=2, heads=3, head_dim=2,
                                          attn_dropout=0.0,
                                          layer_dropout=0.0))
    with pytest.raises(RuntimeError, match="epoch 0, domain 'a'") as info:
        train(two_domain_dataset(), cfg)
    cause = info.value.__cause__
    assert isinstance(cause, NonFiniteError)
    assert (cause.layer, cause.head) == (1, 2)
    assert "layer 1, head 2" in str(info.value)


def _step_fixture():
    g = toy_graph(20, n=12)
    from maskdg.enrich import Enricher
    from maskdg.masknet import init_masknet
    from maskdg.tasknet import init_tasknet

    cfg = small_cfg(epochs=1)
    rng = np.random.default_rng(0)
    enriched = Enricher(g, cfg.enrich, rng).sample(rng)
    r = np.random.default_rng(1)
    task = init_tasknet(g.num_features, g.num_classes, cfg.tasknet, r)
    maskp = init_masknet(g.num_features, cfg.mask_d_prime, cfg.mask_hidden, r)
    return g, enriched, cfg, task, maskp


def test_descent_step_leaves_scorer_untouched():
    from maskdg.training import tasknet_descent_step

    g, enriched, cfg, task, maskp = _step_fixture()
    before = {n: a.copy() for n, a in maskp.named()}
    loss = tasknet_descent_step(task, maskp, g.features,
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
    assert m.micro_f1 == m.macro_f1 == m.accuracy == 1.0


def test_constant_prediction_on_balanced_classes():
    y_true = np.repeat(np.arange(5), 10)
    y_pred = np.zeros(50, dtype=int)
    m = f1_metrics(y_true, y_pred, 5)
    assert m.micro_f1 == pytest.approx(0.2)
    assert m.macro_f1 == pytest.approx((2 * 0.2 / 1.2) / 5, abs=1e-12)


def test_unlabeled_rows_excluded_from_metrics():
    y_true = np.array([0, 1, -1])
    y_pred = np.array([0, 1, 0])
    m = f1_metrics(y_true, y_pred, 2)
    assert m.accuracy == 1.0


def test_metrics_need_labels():
    with pytest.raises(ValueError):
        f1_metrics(np.array([-1]), np.array([0]), 2)


def test_aggregate_metrics_worst_and_average():
    from maskdg.training import Metrics, aggregate_metrics

    agg = aggregate_metrics({
        "a": Metrics(micro_f1=0.8, macro_f1=0.7, accuracy=0.8),
        "b": Metrics(micro_f1=0.6, macro_f1=0.5, accuracy=0.6),
    })
    assert agg["worst_micro_f1"] == 0.6
    assert agg["avg_micro_f1"] == pytest.approx(0.7)
    assert agg["worst_macro_f1"] == 0.5
    assert set(agg["per_domain"]) == {"a", "b"}


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


def test_evaluation_is_deterministic():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=1))
    a = evaluate(result.model, ds.target_graph)
    b = evaluate(result.model, ds.target_graph)
    assert a == b


# -- mask statistics ------------------------------------------------------------

class _FakeEnriched:
    def __init__(self, edges):
        self.enriched_edges = edges


def _stats_fixture(values):
    edges = np.vstack([
        make_edges([(0, 1), (1, 0)], EdgeOrigin.ORIGINAL),
        make_edges([(0, 2), (2, 0)], EdgeOrigin.KNN),
        make_edges([(1, 2)], EdgeOrigin.SPECTRAL),
        make_edges([(0, 0)], EdgeOrigin.SELF_LOOP),
    ])
    scorable = edges[:, 0] != edges[:, 1]
    return _FakeEnriched(edges), EdgeMask(values=np.asarray(values),
                                          scorable=scorable)


def test_mask_stats_all_high_prunes_nothing():
    enr, mask = _stats_fixture([0.9] * 5 + [1.0])
    st = mask_statistics(enr, mask)
    assert st.pruned_aug_pct == 0.0
    assert st.pruned_orig_pct == 0.0
    assert st.retained_aug_pct == 100.0


def test_mask_stats_all_low_prunes_everything():
    enr, mask = _stats_fixture([0.1] * 5 + [1.0])
    st = mask_statistics(enr, mask)
    assert st.pruned_aug_pct == 100.0
    assert st.pruned_orig_pct == 100.0
    assert st.retained_aug_pct == 0.0


def test_mask_stats_mixed_counts_match_enumeration():
    enr, mask = _stats_fixture([0.9, 0.2, 0.4, 0.8, 0.3, 1.0])
    st = mask_statistics(enr, mask, threshold=0.5)
    assert st.pruned_orig_pct == pytest.approx(50.0)     # one of two originals
    assert st.pruned_aug_pct == pytest.approx(100 * 2 / 3)
    assert st.retained_aug_pct == pytest.approx(100 - 100 * 2 / 3)


def test_mask_stats_threshold_validation():
    enr, mask = _stats_fixture([0.5] * 5 + [1.0])
    with pytest.raises(ValueError):
        mask_statistics(enr, mask, threshold=0.0)


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
    assert config_to_dict(loaded.cfg) == config_to_dict(result.model.cfg)
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


def test_config_roundtrip_through_dict():
    cfg = small_cfg(sparsity=0.5, dual_rho=0.3, dual_step=2.0)
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def test_config_rejects_unknown_keys():
    data = config_to_dict(small_cfg())
    data["learning_rate"] = 1.0
    with pytest.raises(ValueError, match="unknown config"):
        config_from_dict(data)


def test_final_mean_mask_in_unit_interval():
    ds = two_domain_dataset()
    result = train(ds, small_cfg(epochs=1))
    v = final_mean_mask(result.model, ds.source_graphs)
    assert 0.0 < v < 1.0
