"""Multi-domain graph families with invariant features and shifting structure.

Every domain draws node features from the same class-conditional Gaussians
(shared centers, shared class balance), so the feature and label channels
are domain-invariant. Edges come in two parts: an invariant homophilous
backbone whose wiring rate is shared, and a spurious component that differs
per domain. The spurious mechanism partitions nodes into random "confounder"
groups and wires densely inside them regardless of class, with a per-domain
strength, which is exactly the kind of structure a classifier can overfit
to on sources and lose on the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import DomainDataset, EdgeOrigin, Graph, coalesce, make_edges


@dataclass
class SynthConfig:
    nodes_per_domain: int = 120
    num_classes: int = 3
    feature_dim: int = 8
    center_separation: float = 3.0
    homophily: float = 0.9           # invariant backbone wiring rate
    backbone_degree: float = 2.0     # avg undirected degree of the backbone
    spurious_strength: float = 0.35  # base intra-confounder wiring probability
    spurious_strengths: Optional[Sequence[float]] = None   # explicit per-domain
    confounder_groups: int = 6
    num_domains: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.nodes_per_domain < self.num_classes:
            raise ValueError("nodes_per_domain must be >= num_classes")
        if self.feature_dim < 1 or self.confounder_groups < 1:
            raise ValueError("feature_dim and confounder_groups must be >= 1")
        if not 0 <= self.homophily <= 1:
            raise ValueError("homophily must lie in [0, 1]")
        if self.num_domains < 1:
            raise ValueError("need at least one domain")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.backbone_degree > self.nodes_per_domain - 1:
            raise ValueError("backbone_degree must be <= nodes_per_domain - 1")
        if self.spurious_strengths is not None:
            if len(self.spurious_strengths) != self.num_domains:
                raise ValueError("one spurious strength per domain")
            if any(isinstance(s, bool) or not isinstance(s, (int, float))
                   for s in self.spurious_strengths):
                raise ValueError("spurious strengths must be numbers")
        # the strengths in use: a ramped scalar reaches 1.5x its value
        for s in self.domain_strengths():
            if not 0 <= s <= 1:
                raise ValueError(f"spurious strengths must lie in [0, 1], "
                                 f"got {s!r}")

    def domain_strengths(self) -> list:
        if self.spurious_strengths is not None:
            return [float(s) for s in self.spurious_strengths]
        if self.num_domains == 1:
            return [self.spurious_strength]
        # ramp the strength so aggregate statistics shift across domains too
        return [self.spurious_strength * (0.5 + i / (self.num_domains - 1))
                for i in range(self.num_domains)]


def _class_centers(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    dirs = rng.normal(size=(cfg.feature_dim, cfg.num_classes))
    if cfg.num_classes <= cfg.feature_dim:
        # orthogonal centers keep every class pair equally separable
        dirs, _ = np.linalg.qr(dirs)
    else:
        dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    return cfg.center_separation * dirs.T[:cfg.num_classes]


def _backbone_pairs(labels, cfg: SynthConfig, rng: np.random.Generator):
    n = labels.size
    by_class = [np.flatnonzero(labels == c) for c in range(cfg.num_classes)]
    target = int(round(cfg.backbone_degree * n / 2))
    pairs = set()
    attempts = 0
    while len(pairs) < target and attempts < 50 * target:
        attempts += 1
        i = int(rng.integers(n))
        if rng.random() < cfg.homophily:
            pool = by_class[labels[i]]
            j = int(pool[rng.integers(pool.size)])
        else:
            j = int(rng.integers(n))
        if i == j:
            continue
        pairs.add((min(i, j), max(i, j)))
    return pairs


def _spurious_pairs(n: int, strength: float, groups: int,
                    rng: np.random.Generator):
    """Each pair of a confounder group's members, (a, b) in row-major order
    with a < b, wired with probability `strength`: one draw per pair."""
    membership = rng.permutation(n) % groups
    pairs = set()
    for g in range(groups):
        members = np.flatnonzero(membership == g)
        a, b = np.triu_indices(members.size, 1)
        hit = rng.random(a.size) < strength
        pairs.update(zip(members[a[hit]].tolist(), members[b[hit]].tolist()))
    return pairs


def _make_domain(centers, strength, cfg: SynthConfig,
                 rng: np.random.Generator, domain_id: str) -> Graph:
    n = cfg.nodes_per_domain
    labels = rng.permutation(np.arange(n) % cfg.num_classes)
    X = centers[labels] + rng.normal(size=(n, cfg.feature_dim))
    pairs = _backbone_pairs(labels, cfg, rng)
    pairs |= _spurious_pairs(n, strength, cfg.confounder_groups, rng)
    directed = [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]
    edges = coalesce(make_edges(directed, EdgeOrigin.ORIGINAL)) \
        if directed else np.empty((0, 3), np.int64)
    return Graph(X, edges, labels, cfg.num_classes, domain_id)


def generate(cfg: SynthConfig) -> DomainDataset:
    """Draw all domains. The feature channel is identical in distribution
    across domains; only the spurious edge component varies."""
    ss = np.random.SeedSequence(cfg.seed)
    s_centers, *s_domains = ss.spawn(cfg.num_domains + 1)
    centers = _class_centers(cfg, np.random.default_rng(s_centers))
    strengths = cfg.domain_strengths()
    graphs = tuple(
        _make_domain(centers, strengths[i], cfg,
                     np.random.default_rng(s_domains[i]), f"domain{i}")
        for i in range(cfg.num_domains)
    )
    return DomainDataset(source_graphs=graphs, target_graph=None)


def edge_homophily(g: Graph) -> float:
    if g.num_edges == 0:
        return 0.0
    src, dst = g.edges[:, 0], g.edges[:, 1]
    return float(np.mean(g.labels[src] == g.labels[dst]))


def _degree_hist(g: Graph, max_degree: int) -> np.ndarray:
    deg = np.bincount(g.edges[:, 0], minlength=g.num_nodes)
    hist = np.bincount(np.minimum(deg, max_degree), minlength=max_degree + 1)
    return hist / hist.sum()


def verify_shift(ds: DomainDataset) -> dict:
    """Quantify what moved across domains.

    feature_distance: class-conditional mean discrepancy between domains,
    normalized by the within-domain spread of class means (so ~0 means the
    feature channel is invariant). structural_distance: the larger of the
    homophily gap and the degree-histogram total-variation distance.
    """
    graphs = list(ds.source_graphs)
    if ds.target_graph is not None:
        graphs.append(ds.target_graph)
    if len(graphs) < 2:
        raise ValueError("need at least two domains to compare")
    C = graphs[0].num_classes

    class_means = []
    for g in graphs:
        class_means.append(np.array([
            g.features[g.labels == c].mean(axis=0) for c in range(C)]))
    scale = np.mean([np.linalg.norm(cm[a] - cm[b])
                     for cm in class_means
                     for a in range(C) for b in range(a + 1, C)])
    feat_gaps = []
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            gap = np.linalg.norm(class_means[i] - class_means[j], axis=1)
            feat_gaps.append(gap.mean())
    feature_distance = float(np.mean(feat_gaps) / scale)

    homs = [edge_homophily(g) for g in graphs]
    hom_gap = max(homs) - min(homs)
    max_deg = max(int(np.bincount(g.edges[:, 0],
                                  minlength=g.num_nodes).max())
                  for g in graphs)
    hists = [_degree_hist(g, max_deg) for g in graphs]
    tv = max(0.5 * np.abs(hists[i] - hists[j]).sum()
             for i in range(len(graphs)) for j in range(i + 1, len(graphs)))
    return {
        "per_domain_homophily": homs,
        "homophily_gap": float(hom_gap),
        "degree_tv_distance": float(tv),
        "feature_distance": feature_distance,
        "structural_distance": float(max(hom_gap, tv)),
    }
