import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskdg import enrich as enrich_mod
from maskdg.enrich import (
    EnrichConfig,
    Enricher,
    knn_edges,
    sample_edges,
    spectral_edges,
)
from maskdg.graph import EdgeOrigin, Graph, coalesce, edge_stats, make_edges
from maskdg.synth import SynthConfig, generate


def brute_force_knn(X, k):
    """O(N^2 d) oracle: cosine similarities by direct loops, ties by index."""
    n = X.shape[0]
    out = []
    for i in range(n):
        sims = []
        for j in range(n):
            if j == i:
                continue
            ni, nj = np.linalg.norm(X[i]), np.linalg.norm(X[j])
            s = 0.0 if ni == 0 or nj == 0 else float(X[i] @ X[j] / (ni * nj))
            sims.append((-s, j))
        sims.sort()
        out.extend((i, j) for _, j in sims[:k])
    return sorted(out)


def test_knn_matches_spec_example():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    edges = knn_edges(X, 1)
    got = sorted(map(tuple, edges[:, :2]))
    assert got == [(0, 1), (1, 0), (2, 0)]


def test_knn_complete_graph_when_k_is_n_minus_1():
    X = np.random.default_rng(0).normal(size=(5, 3))
    edges = knn_edges(X, 4)
    got = set(map(tuple, edges[:, :2]))
    assert got == {(i, j) for i in range(5) for j in range(5) if i != j}


def test_knn_identical_rows_all_point_to_lowest_index():
    X = np.ones((4, 3))
    edges = knn_edges(X, 1)
    got = sorted(map(tuple, edges[:, :2]))
    assert got == [(0, 1), (1, 0), (2, 0), (3, 0)]


def test_knn_k_too_large_errors():
    with pytest.raises(ValueError, match="k too large"):
        knn_edges(np.zeros((3, 2)), 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_knn_agrees_with_brute_force_oracle(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(5, 40))
    X = g.normal(size=(n, 4))
    X[g.random(n) < 0.1] = 0.0          # some zero-norm rows
    k = int(g.integers(1, min(6, n - 1) + 1))
    edges = knn_edges(X, k)
    got = sorted(map(tuple, edges[:, :2]))
    assert got == brute_force_knn(X, k)


def test_knn_out_degree_is_exactly_k():
    X = np.random.default_rng(3).normal(size=(12, 5))
    edges = knn_edges(X, 4)
    counts = np.bincount(edges[:, 0], minlength=12)
    assert (counts == 4).all()


def lexsort_knn(X, k):
    """The full-row sort knn_edges replaced: the reference for its output,
    array and order."""
    n = X.shape[0]
    norms = np.linalg.norm(X, axis=1)
    unit = X / np.where(norms > 0, norms, 1.0)[:, None]
    sim = unit @ unit.T
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    np.fill_diagonal(sim, -np.inf)
    cols = np.broadcast_to(np.arange(n), (n, n))
    targets = np.lexsort((cols, -sim), axis=1)[:, :k]
    return make_edges(np.column_stack([np.repeat(np.arange(n), k),
                                       targets.reshape(-1)]), EdgeOrigin.KNN)


def tie_heavy_features(kind, seed=0):
    g = np.random.default_rng(seed)
    if kind == "duplicates":
        base = g.normal(size=(6, 4))
        return base[g.integers(0, 6, size=23)]
    if kind == "zero_rows":
        X = g.normal(size=(23, 4))
        X[g.random(23) < 0.4] = 0.0
        return X
    if kind == "constant":       # every similarity is exactly 1.0
        return np.full((23, 4), 2.0)
    return g.integers(-1, 2, size=(23, 3)).astype(float)   # integer-valued


@pytest.mark.parametrize("kind", ["duplicates", "zero_rows", "integers",
                                  "constant"])
@pytest.mark.parametrize("k", [1, 3, 22])
def test_knn_top_k_is_bit_identical_to_the_full_sort(kind, k):
    X = tie_heavy_features(kind)
    np.testing.assert_array_equal(knn_edges(X, k), lexsort_knn(X, k))


def broadcast_sq(X, Y):
    return ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)


# Rows per block at N = 10: one (every block is mirrored), not a multiple,
# equal, more.
@pytest.mark.parametrize("rows", [1, 3, 10, 16])
def test_blocked_distances_match_the_broadcast(monkeypatch, rows):
    X = np.random.default_rng(rows).normal(size=(10, 4))
    Y = X[:7] * 1.5
    monkeypatch.setattr(enrich_mod, "_BLOCK_BYTES", rows * 8 * 10 * 4)
    sq = enrich_mod._pairwise_sq_distances(X)
    np.testing.assert_array_equal(sq, broadcast_sq(X, X))
    monkeypatch.setattr(enrich_mod, "_BLOCK_BYTES", rows * 8 * 7 * 4)
    np.testing.assert_array_equal(enrich_mod._pairwise_sq_distances(X, Y),
                                  broadcast_sq(X, Y))
    dist = np.sqrt(broadcast_sq(X, X))
    assert enrich_mod._median_pairwise_distance(sq) \
        == float(np.median(dist[np.triu_indices(10, k=1)]))


# Feature widths on each side of numpy's pairwise-sum cases: one by one
# below 8, 8 strided accumulators and a remainder up to 128, halves beyond.
@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 17, 127, 128, 129, 300])
def test_plane_sums_have_the_broadcast_bits_at_every_width(monkeypatch, d):
    monkeypatch.setattr(enrich_mod, "_BLOCK_BYTES", 5 * 8 * 4 * 23)  # 5 rows
    r = np.random.default_rng(d)
    # scales that differ by feature make the order of the sum show
    X = r.normal(size=(23, d)) * np.exp(r.normal(size=d) * 3)
    Y = X[:6] * 1.5 + 0.25
    np.testing.assert_array_equal(enrich_mod._pairwise_sq_distances(X),
                                  broadcast_sq(X, X))
    np.testing.assert_array_equal(enrich_mod._pairwise_sq_distances(X, Y),
                                  broadcast_sq(X, Y))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 10])  # 1, 3, 6, 10, 36, 45 pairs
def test_median_distance_is_numpys_median(n):
    X = np.random.default_rng(n).normal(size=(n, 3))
    X[n // 2] = X[0]                                 # a zero distance
    sq = broadcast_sq(X, X)
    want = float(np.median(np.sqrt(sq[np.triu_indices(n, k=1)])))
    assert enrich_mod._median_pairwise_distance(sq) == want


@pytest.mark.parametrize("bandwidth", ["median", 0.05])   # 0.05: A underflows
@pytest.mark.parametrize("kind", ["duplicates", "zero_rows", "integers"])
def test_laplacian_matches_the_textbook_expression(monkeypatch, bandwidth,
                                                   kind):
    X = tie_heavy_features(kind, seed=1)
    n = X.shape[0]
    monkeypatch.setattr(enrich_mod, "_BLOCK_BYTES", 5 * 8 * n * X.shape[1])
    if bandwidth == "median":
        dist = np.sqrt(broadcast_sq(X, X))
        zeta = float(np.median(dist[np.triu_indices(n, k=1)])) or 1.0
    else:
        zeta = bandwidth
    affinity = np.exp(-broadcast_sq(X, X) / (2.0 * zeta * zeta))
    inv_sqrt = 1.0 / np.sqrt(affinity.sum(axis=1))
    expected = np.eye(n) - inv_sqrt[:, None] * affinity * inv_sqrt[None, :]
    got = enrich_mod._normalized_laplacian(X, bandwidth)
    np.testing.assert_array_equal(got, expected)
    assert not np.signbit(got[expected == 0]).any()     # +0.0, as eye - x


def test_spectral_peak_memory_is_quadratic_not_cubic():
    # the (N, N, d) broadcast needs at least 128 * N^2 * 8 bytes here, so
    # only the bounded version may ever run at this size
    n, d = 1000, 64
    X = np.random.default_rng(0).normal(size=(n, d))
    tracemalloc.start()
    try:
        spectral_edges(X, 4, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n * 8


def adjusted_rand_index(a, b):
    """Symmetric agreement between two clusterings, 1.0 = identical."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.size
    classes_a, classes_b = np.unique(a), np.unique(b)
    table = np.array([[np.sum((a == ca) & (b == cb)) for cb in classes_b]
                      for ca in classes_a])
    comb = lambda x: x * (x - 1) / 2
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(n)
    max_index = (sum_a + sum_b) / 2
    return (sum_ij - expected) / (max_index - expected)


def test_spectral_separates_two_gaussian_blobs():
    g = np.random.default_rng(7)
    blob_a = g.normal(size=(10, 3)) * 0.1
    blob_b = g.normal(size=(10, 3)) * 0.1 + 10.0
    X = np.vstack([blob_a, blob_b])
    truth = np.array([0] * 10 + [1] * 10)
    edges = spectral_edges(X, 2, rng=np.random.default_rng(0))
    assert edges.shape[0] == 2 * 10 * 9
    # recover cluster assignment from the edge structure
    partner = {i: {i} for i in range(20)}
    for s, d, _ in edges:
        partner[s].add(d)
    labels = np.array([0 if 0 in partner[i] else 1 for i in range(20)])
    assert adjusted_rand_index(labels, truth) == 1.0


def test_spectral_symmetric_as_directed_relation():
    X = np.random.default_rng(8).normal(size=(15, 4))
    edges = spectral_edges(X, 3, rng=np.random.default_rng(1))
    pairs = set(map(tuple, edges[:, :2]))
    assert all((d, s) in pairs for s, d in pairs)


def test_spectral_singleton_clusters_give_no_edges():
    X = np.random.default_rng(9).normal(size=(6, 3)) * 10
    edges = spectral_edges(X, 6, rng=np.random.default_rng(2))
    assert edges.shape[0] == 0


def test_spectral_identical_features_collapse_to_one_cluster():
    X = np.ones((8, 3)) * 2.5
    edges = spectral_edges(X, 2, rng=np.random.default_rng(3))
    assert edges.shape[0] == 8 * 7


def test_spectral_rejects_oversized_input(monkeypatch):
    monkeypatch.setattr(enrich_mod, "LAPLACIAN_CAP", 10)
    X = np.zeros((12, 2))
    with pytest.raises(ValueError, match="cap"):
        spectral_edges(X, 2, rng=np.random.default_rng(0))


def test_spectral_needs_enough_nodes():
    with pytest.raises(ValueError, match="at least"):
        spectral_edges(np.zeros((3, 2)), 5, rng=np.random.default_rng(0))


# -- the spectral solver: block Krylov path against the dense eigh oracle ----

def citation_features(seed, n=800):
    """Features of the Cora-like graph of the citation benchmark."""
    synth = SynthConfig(seed=seed, nodes_per_domain=n, num_classes=7,
                        feature_dim=16, num_domains=1,
                        spurious_strength=0.005, backbone_degree=3.0)
    return generate(synth).source_graphs[0].features


@pytest.fixture
def krylov_everywhere(monkeypatch):
    """Lets the Krylov path run on graphs of any size."""
    monkeypatch.setattr(enrich_mod, "_KRYLOV_SHARE", 2.0)
    monkeypatch.setattr(enrich_mod, "_MIN_BLOCKS", 1)


def krylov_runs(lap, clusters):
    return enrich_mod._krylov_eigenpairs(lap, clusters) is not None


def dense_eigenpairs(lap, clusters):
    eigvals, eigvecs = np.linalg.eigh(lap)
    return eigvals[:clusters], eigvecs[:, :clusters]


def edges_both_paths(monkeypatch, X, clusters, seed=0):
    """spectral_edges and the rng state after it, as it runs and with the
    Krylov path switched off."""
    out = []
    for dense in (False, True):
        rng = np.random.default_rng(seed)
        with monkeypatch.context() as m:
            if dense:
                m.setattr(enrich_mod, "_krylov_eigenpairs",
                          lambda lap, clusters: None)
            edges = spectral_edges(X, clusters, rng=rng)
        out.append((edges, rng.bit_generator.state))
    return out


def assert_same_subspace(got, want):
    """Same eigenvalues, orthonormal vectors, and the same projector onto
    the directions spectral_edges keeps (eigenvalue < 1 - 1e-10: the
    eigenvectors of eigenvalue 1 are any basis of a degenerate space)."""
    (vals, vecs), (ref_vals, ref_vecs) = got, want
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(vals.size), rtol=0,
                               atol=1e-12)
    keep, ref_keep = vals < 1.0 - 1e-10, ref_vals < 1.0 - 1e-10
    np.testing.assert_array_equal(keep, ref_keep)
    np.testing.assert_allclose(vecs[:, keep] @ vecs[:, keep].T,
                               ref_vecs[:, keep] @ ref_vecs[:, keep].T,
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed,n,clusters",
                         [(1, 800, 7), (5, 800, 7), (11, 800, 7),
                          (3, 1200, 30)])
def test_krylov_path_matches_eigh_on_citation_graphs(monkeypatch, seed, n,
                                                    clusters):
    X = citation_features(seed, n)
    lap = enrich_mod._normalized_laplacian(X, "median")
    assert krylov_runs(lap, clusters)
    assert_same_subspace(enrich_mod._leading_eigenpairs(lap, clusters),
                         dense_eigenpairs(lap, clusters))
    (krylov, krylov_rng), (dense, dense_rng) = edges_both_paths(
        monkeypatch, X, clusters, seed)
    np.testing.assert_array_equal(krylov, dense)
    assert krylov_rng == dense_rng


def spectral_fixtures():
    g = np.random.default_rng(7)
    blobs = np.vstack([g.normal(size=(10, 3)) * 0.1,
                       g.normal(size=(10, 3)) * 0.1 + 10.0])
    return {
        "blobs": (blobs, 2),
        "random": (np.random.default_rng(8).normal(size=(15, 4)), 3),
        "singletons": (np.random.default_rng(9).normal(size=(6, 3)) * 10, 6),
        "identical": (np.ones((8, 3)) * 2.5, 2),
        "n1000": (np.random.default_rng(0).normal(size=(1000, 64)), 4),
    }


@pytest.mark.parametrize("name", sorted(spectral_fixtures()))
def test_krylov_path_gives_the_eigh_edges_on_the_fixtures(
        monkeypatch, krylov_everywhere, name):
    X, clusters = spectral_fixtures()[name]
    lap = enrich_mod._normalized_laplacian(X, "median")
    assert krylov_runs(lap, clusters)
    assert_same_subspace(enrich_mod._leading_eigenpairs(lap, clusters),
                         dense_eigenpairs(lap, clusters))
    (krylov, krylov_rng), (dense, dense_rng) = edges_both_paths(
        monkeypatch, X, clusters)
    np.testing.assert_array_equal(krylov, dense)
    assert krylov_rng == dense_rng


def test_rank_deficient_affinity_drops_the_same_directions(krylov_everywhere):
    # 3 distinct rows, 5 clusters: L has eigenvalue 1 N - 3 times, and the
    # filter must keep the same 3 directions on both paths. (The edges may
    # differ: k-means has to split copies of one row, and the solver's
    # rounding noise decides how, on either path.)
    X = np.random.default_rng(3).normal(size=(3, 4)).repeat(10, axis=0)
    lap = enrich_mod._normalized_laplacian(X, "median")
    assert krylov_runs(lap, 5)
    got = enrich_mod._leading_eigenpairs(lap, 5)
    assert (got[0] < 1.0 - 1e-10).sum() == 3
    assert_same_subspace(got, dense_eigenpairs(lap, 5))


@pytest.mark.parametrize("n,clusters", [(20, 2), (40, 3), (60, 2), (60, 4),
                                        (120, 6), (150, 7)])
def test_small_graphs_take_the_dense_path(n, clusters):
    # the sizes of the unit, acceptance and benchmark graphs (dg_2x2: 120
    # nodes, 6 clusters) whose edges must stay bit-identical
    X = np.random.default_rng(n).normal(size=(n, 5))
    lap = enrich_mod._normalized_laplacian(X, "median")
    assert not krylov_runs(lap, clusters)
    got = enrich_mod._leading_eigenpairs(lap, clusters)
    for a, b in zip(got, dense_eigenpairs(lap, clusters)):
        np.testing.assert_array_equal(a, b)


def test_unmet_residual_falls_back_to_eigh_bit_for_bit(monkeypatch):
    lap = enrich_mod._normalized_laplacian(citation_features(1, 300),
                                           "median")
    assert krylov_runs(lap, 7)
    monkeypatch.setattr(enrich_mod, "_RITZ_TOL", 0.0)
    assert not krylov_runs(lap, 7)
    got = enrich_mod._leading_eigenpairs(lap, 7)
    for a, b in zip(got, dense_eigenpairs(lap, 7)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("path", ["dense", "krylov"])
@pytest.mark.parametrize("kind", ["identical", "far_blobs"])
def test_an_informative_direction_always_remains(monkeypatch, request, path,
                                                 kind):
    # L always has eigenvalue 0 (eigenvector D^1/2 1), so the filter keeps
    # at least one direction
    if path == "krylov":
        request.getfixturevalue("krylov_everywhere")
    else:
        monkeypatch.setattr(enrich_mod, "_krylov_eigenpairs",
                            lambda lap, clusters: None)
    g = np.random.default_rng(4)
    if kind == "identical":
        X = np.full((12, 3), -7.0)
    else:
        # most pairs lie within a blob, so the median bandwidth makes every
        # cross-blob affinity underflow to 0: eigenvalue 0 twice
        X = np.vstack([g.normal(size=(10, 3)), g.normal(size=(3, 3)) + 1e4])
    lap = enrich_mod._normalized_laplacian(X, "median")
    assert krylov_runs(lap, 3) == (path == "krylov")
    vals, _ = enrich_mod._leading_eigenpairs(lap, 3)
    assert (vals < 1.0 - 1e-10).sum() >= 1
    assert spectral_edges(X, 3, rng=np.random.default_rng(0)).shape[0] > 0


@pytest.mark.parametrize("path", ["dense", "krylov"])
def test_more_components_than_clusters_stay_sane(monkeypatch, request, path):
    # 4 components, 2 clusters: eigenvalue 0 has multiplicity 4, a tie
    # across the clusters boundary, so each solver returns its own basis of
    # a 2-dimensional part of that space and the edges may differ between
    # the paths; on either, a component lies wholly inside one cluster
    if path == "krylov":
        request.getfixturevalue("krylov_everywhere")
    else:
        monkeypatch.setattr(enrich_mod, "_krylov_eigenpairs",
                            lambda lap, clusters: None)
    g = np.random.default_rng(6)
    X = np.vstack([g.normal(size=(8, 3)) * 0.1 + 1e3 * i for i in range(4)])
    lap = enrich_mod._normalized_laplacian(X, 1.0)
    assert krylov_runs(lap, 2) == (path == "krylov")
    vals, vecs = enrich_mod._leading_eigenpairs(lap, 2)
    np.testing.assert_allclose(vals, 0.0, atol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)
    edges = spectral_edges(X, 2, bandwidth=1.0, rng=np.random.default_rng(0))
    pairs = {(int(s), int(d)) for s, d in edges[:, :2]}
    assert len(pairs) == edges.shape[0]
    assert all(s != d and (d, s) in pairs for s, d in pairs)
    component = np.arange(32) // 8
    assert all((s, d) in pairs for s in range(32) for d in range(32)
               if s != d and component[s] == component[d])
    assert 4 * 8 * 7 <= len(pairs) < 32 * 31


def test_sample_identity_and_empty():
    edges = make_edges([(0, 1), (1, 2), (2, 0)], EdgeOrigin.KNN)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(sample_edges(edges, 1.0, rng), edges)
    assert sample_edges(edges, 0.0, rng).shape[0] == 0


def test_sample_is_seed_deterministic():
    edges = make_edges([(i, (i + 1) % 100) for i in range(100)], EdgeOrigin.KNN)
    a = sample_edges(edges, 0.1, np.random.default_rng(5))
    b = sample_edges(edges, 0.1, np.random.default_rng(5))
    assert a.shape[0] == 10
    np.testing.assert_array_equal(a, b)
    c = sample_edges(edges, 0.1, np.random.default_rng(6))
    assert not np.array_equal(a, c)


def test_sample_rejects_bad_ratio():
    with pytest.raises(ValueError):
        sample_edges(np.empty((0, 3), np.int64), 1.5, np.random.default_rng(0))


def ring_graph(n=8, d=3, seed=0):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, d))
    pairs = []
    for i in range(n):
        pairs += [(i, (i + 1) % n), ((i + 1) % n, i)]
    edges = coalesce(make_edges(pairs, EdgeOrigin.ORIGINAL))
    return Graph(X, edges, g.integers(0, 2, size=n), 2, "ring")


def scorable_count(eg):
    return int(np.sum(eg.enriched_edges[:, 0] != eg.enriched_edges[:, 1]))


def test_enrich_zero_gammas_gives_original_plus_loops():
    g = ring_graph()
    cfg = EnrichConfig(k=2, clusters=2, gamma_knn=0.0, gamma_spec=0.0)
    rng = np.random.default_rng(0)
    eg = Enricher(g, cfg, rng).sample(rng)
    assert scorable_count(eg) == g.num_edges
    np.testing.assert_array_equal(eg.enriched_edges[:g.num_edges], g.edges)
    tail = eg.enriched_edges[g.num_edges:]
    assert (tail[:, 0] == tail[:, 1]).all()
    assert (tail[:, 2] == int(EdgeOrigin.SELF_LOOP)).all()
    assert tail.shape[0] == g.num_nodes


def test_enrich_edgeless_graph_with_nothing_sampled_gives_the_loops():
    g = Graph(np.random.default_rng(0).normal(size=(6, 3)),
              np.empty((0, 3), np.int64), np.zeros(6, np.int64), 2, "bare")
    cfg = EnrichConfig(k=2, clusters=2, gamma_knn=0.0, gamma_spec=0.0)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(
        Enricher(g, cfg, rng).sample(rng).enriched_edges,
        make_edges([(i, i) for i in range(6)], EdgeOrigin.SELF_LOOP))


def test_enrich_original_origin_wins_over_knn():
    g = ring_graph()
    cfg = EnrichConfig(k=2, clusters=2, gamma_knn=1.0, gamma_spec=0.0)
    rng = np.random.default_rng(0)
    eg = Enricher(g, cfg, rng).sample(rng)
    scorable = eg.enriched_edges[:scorable_count(eg)]
    original_pairs = set(map(tuple, g.edges[:, :2]))
    for s, d, o in scorable:
        if (s, d) in original_pairs:
            assert o == int(EdgeOrigin.ORIGINAL)


def test_enrich_is_bit_deterministic_under_seed():
    g = ring_graph(n=12)
    cfg = EnrichConfig(k=3, clusters=3, gamma_knn=0.5, gamma_spec=0.5)
    a, b = (Enricher(g, cfg, rng).sample(rng)
            for rng in (np.random.default_rng(42), np.random.default_rng(42)))
    np.testing.assert_array_equal(a.enriched_edges, b.enriched_edges)


def test_enricher_resample_redraws_subsets_without_recompute():
    g = ring_graph(n=20, seed=4)
    cfg = EnrichConfig(k=5, clusters=4, gamma_knn=0.3, gamma_spec=0.3)
    enr = Enricher(g, cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    first = enr.sample(rng)
    second = enr.sample(rng)
    assert not np.array_equal(first.enriched_edges, second.enriched_edges)
    # full sets untouched by sampling
    assert enr.full_knn.shape[0] == 20 * 5


def test_enrich_stats_pipeline():
    g = ring_graph(n=10, seed=5)
    cfg = EnrichConfig(k=3, clusters=2, gamma_knn=1.0, gamma_spec=0.0)
    rng = np.random.default_rng(0)
    eg = Enricher(g, cfg, rng).sample(rng)
    stats = edge_stats(g, eg.enriched_edges)
    total_scorable = sum(v for k, v in stats["counts"].items()
                         if k != "SELF_LOOP")
    assert total_scorable == scorable_count(eg)
    assert stats["edge_increase_pct"] == pytest.approx(
        100.0 * (scorable_count(eg) - g.num_edges) / g.num_edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1.0))
def test_sample_size_is_floor_of_ratio(seed, ratio):
    edges = make_edges([(i, (i + 1) % 40) for i in range(40)], EdgeOrigin.KNN)
    out = sample_edges(edges, ratio, np.random.default_rng(seed))
    assert out.shape[0] == int(np.floor(ratio * 40))


def test_citation_scale_defaults_smoke():
    # 2,703 nodes under the default knobs (k=10, 100 clusters, 10% sampling):
    # the dense pipeline must complete and emit a growth report in a
    # plausible band; the exact percentage depends on the random graph.
    rng = np.random.default_rng(0)
    n = 2703
    centers = rng.normal(size=(12, 16)) * 4
    X = centers[rng.integers(0, 12, size=n)] + rng.normal(size=(n, 16))
    pairs = set()
    while len(pairs) < 5278:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    directed = [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]
    g = Graph(X, coalesce(make_edges(directed, EdgeOrigin.ORIGINAL)),
              rng.integers(0, 5, size=n), 5, "citation-scale")
    cfg = EnrichConfig(k=10, clusters=100, gamma_knn=0.1, gamma_spec=0.1)
    eg = Enricher(g, cfg, rng).sample(rng)
    stats = edge_stats(g, eg.enriched_edges)
    assert stats["counts"]["SELF_LOOP"] == n
    assert stats["counts"]["KNN"] > 0 and stats["counts"]["SPECTRAL"] > 0
    assert 10.0 < stats["edge_increase_pct"] < 200.0
