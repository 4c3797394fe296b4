import numpy as np
import pytest

from maskdg.graph import DomainDataset
from maskdg.synth import SynthConfig, edge_homophily, generate, verify_shift


def softmax_regression_accuracy(train_X, train_y, test_X, test_y, C,
                                steps=300, lr=0.5):
    """Tiny full-batch softmax regression, the feature-only oracle."""
    W = np.zeros((C, train_X.shape[1]))
    b = np.zeros(C)
    onehot = np.eye(C)[train_y]
    for _ in range(steps):
        logits = train_X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        err = (probs - onehot) / train_X.shape[0]
        W -= lr * err.T @ train_X
        b -= lr * err.sum(axis=0)
    preds = (test_X @ W.T + b).argmax(axis=1)
    return float(np.mean(preds == test_y))


def test_default_generator_shapes():
    ds = generate(SynthConfig(seed=1))
    assert ds.num_domains == 3
    for g in ds.source_graphs:
        assert g.num_nodes == 120
        assert g.num_features == 8
        assert g.num_classes == 3
        assert g.num_edges > 0
        assert np.all(g.labels >= 0)


def test_generation_is_seed_deterministic():
    a = generate(SynthConfig(seed=5))
    b = generate(SynthConfig(seed=5))
    for g1, g2 in zip(a.source_graphs, b.source_graphs):
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(g1.labels, g2.labels)


def per_pair_spurious_pairs(n, strength, groups, rng):
    """The spurious wiring drawn one pair at a time, in row-major order."""
    membership = rng.permutation(n) % groups
    pairs = set()
    for g in range(groups):
        members = np.flatnonzero(membership == g)
        for a in range(members.size):
            for b in range(a + 1, members.size):
                if rng.random() < strength:
                    pairs.add((int(members[a]), int(members[b])))
    return pairs


@pytest.mark.parametrize("cfg", [
    SynthConfig(seed=7),
    SynthConfig(seed=5, nodes_per_domain=400, num_classes=7, feature_dim=16,
                num_domains=1, spurious_strength=0.005, backbone_degree=3.0),
], ids=["defaults", "citation-like"])
def test_spurious_wiring_draws_as_one_draw_per_pair(monkeypatch, cfg):
    from maskdg import synth

    got = generate(cfg)
    monkeypatch.setattr(synth, "_spurious_pairs", per_pair_spurious_pairs)
    want = generate(cfg)
    for g1, g2 in zip(got.source_graphs, want.source_graphs):
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(g1.labels, g2.labels)


def test_feature_only_oracle_beats_90pct_on_every_domain():
    ds = generate(SynthConfig(seed=2))
    train = ds.source_graphs[0]
    for g in ds.source_graphs:
        acc = softmax_regression_accuracy(
            train.features, train.labels, g.features, g.labels, 3)
        assert acc > 0.9, f"{g.domain_id}: {acc}"


def test_zero_spurious_strength_makes_domains_statistically_alike():
    cfg = SynthConfig(seed=3, spurious_strengths=(0.0, 0.0, 0.0))
    ds = generate(cfg)
    homs = [edge_homophily(g) for g in ds.source_graphs]
    assert max(homs) - min(homs) < 0.1     # sampling noise only
    for h in homs:
        assert h > 0.8       # pure homophilous backbone


def test_spurious_wiring_lowers_homophily_per_strength():
    cfg = SynthConfig(seed=4, spurious_strengths=(0.0, 0.6, 0.0))
    ds = generate(cfg)
    homs = [edge_homophily(g) for g in ds.source_graphs]
    assert homs[1] < homs[0] - 0.2
    assert homs[1] < homs[2] - 0.2


def test_spurious_component_touches_only_edges():
    base = SynthConfig(seed=6, spurious_strengths=(0.0, 0.0, 0.0))
    wired = SynthConfig(seed=6, spurious_strengths=(0.5, 0.5, 0.5))
    a, b = generate(base), generate(wired)
    for g1, g2 in zip(a.source_graphs, b.source_graphs):
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(g1.labels, g2.labels)
        assert g2.num_edges > g1.num_edges


def test_verify_shift_identical_graphs_all_zero():
    ds = generate(SynthConfig(seed=7, num_domains=1))
    g = ds.source_graphs[0]
    twin = DomainDataset(source_graphs=(g, g))
    report = verify_shift(twin)
    assert report["feature_distance"] == pytest.approx(0.0, abs=1e-12)
    assert report["structural_distance"] == pytest.approx(0.0, abs=1e-12)
    assert report["homophily_gap"] == 0.0


def test_verify_shift_on_generated_data():
    ds = generate(SynthConfig(seed=8))
    report = verify_shift(ds)
    assert report["feature_distance"] < report["structural_distance"]
    assert len(report["per_domain_homophily"]) == 3


def test_verify_shift_needs_two_domains():
    ds = generate(SynthConfig(seed=9, num_domains=1))
    with pytest.raises(ValueError, match="two domains"):
        verify_shift(ds)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_classes=1)
    with pytest.raises(ValueError):
        SynthConfig(homophily=1.5)
    with pytest.raises(ValueError):
        SynthConfig(spurious_strengths=(0.1,), num_domains=3)
    with pytest.raises(ValueError, match=r"nodes_per_domain - 1"):
        SynthConfig(nodes_per_domain=10, backbone_degree=9.5)
    for strengths in ((0.1, float("nan"), 0.2), (0.1, 1.5, 0.2),
                      (-0.1, 0.0, 0.0)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SynthConfig(spurious_strengths=strengths)
    with pytest.raises(ValueError, match="numbers"):
        SynthConfig(spurious_strengths=(0.1, True, 0.2))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SynthConfig(spurious_strength=float("inf"))
    # three domains ramp the scalar to 0.5x, 1x and 1.5x: 0.9 reaches 1.35
    with pytest.raises(ValueError, match=r"\[0, 1\], got 1.35"):
        SynthConfig(spurious_strength=0.9, num_domains=3)
    assert SynthConfig(spurious_strength=0.9, num_domains=1) \
        .domain_strengths() == [0.9]
    assert max(SynthConfig(spurious_strength=2 / 3).domain_strengths()) <= 1


def test_largest_backbone_degree_still_generates():
    ds = generate(SynthConfig(nodes_per_domain=10, backbone_degree=9.0,
                              num_domains=1, seed=2))
    assert ds.source_graphs[0].num_edges > 0
