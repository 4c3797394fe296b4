from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskdg.graph import (
    EdgeOrigin,
    Graph,
    GraphFormatError,
    DomainDataset,
    coalesce,
    edge_stats,
    load_dataset,
    load_graph,
    make_edges,
    save_graph,
    UNLABELED,
)


def write_inputs(tmp_path, features, edges, labels):
    fpath = tmp_path / "feat.csv"
    epath = tmp_path / "edges.txt"
    lpath = tmp_path / "labels.txt"
    fpath.write_text("\n".join(",".join(str(v) for v in row) for row in features) + "\n")
    epath.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    lpath.write_text("\n".join(str(y) for y in labels) + "\n")
    return fpath, epath, lpath


def test_load_symmetrizes_undirected_edges(tmp_path):
    f, e, l = write_inputs(tmp_path, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                           [(0, 1), (1, 2)], [0, 1, -1])
    g = load_dataset(f, e, l, "toy")
    assert g.num_nodes == 3
    assert g.num_edges == 4
    got = set(map(tuple, g.edges[:, :2]))
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert (g.edges[:, 2] == int(EdgeOrigin.ORIGINAL)).all()
    assert list(g.labels != UNLABELED) == [True, True, False]


def test_load_counts_scale_like_citation_network(tmp_path):
    # an undirected edge list of E unique pairs yields 2E directed entries
    rng = np.random.default_rng(0)
    n, e = 40, 60
    pairs = set()
    while len(pairs) < e:
        u, v = sorted(rng.integers(0, n, size=2))
        if u != v:
            pairs.add((int(u), int(v)))
    f, ep, l = write_inputs(tmp_path, rng.normal(size=(n, 3)).tolist(),
                            sorted(pairs), rng.integers(0, 5, size=n).tolist())
    g = load_dataset(f, ep, l)
    assert g.num_edges == 2 * e


def test_load_empty_edge_file(tmp_path):
    f, e, l = write_inputs(tmp_path, [[0.0], [1.0], [2.0]], [], [0, 0, 1])
    e.write_text("")
    g = load_dataset(f, e, l)
    assert g.num_nodes == 3
    assert g.num_edges == 0


def test_load_deduplicates_repeated_edges(tmp_path):
    f, e, l = write_inputs(tmp_path, [[0.0], [1.0]], [(0, 1), (0, 1)], [0, 1])
    g = load_dataset(f, e, l)
    assert g.num_edges == 2
    assert set(map(tuple, g.edges[:, :2])) == {(0, 1), (1, 0)}


def test_load_reports_file_and_line_on_bad_edge(tmp_path):
    f, e, l = write_inputs(tmp_path, [[0.0], [1.0]], [(0, 1)], [0, 1])
    e.write_text("0 1\n5 0\n")
    with pytest.raises(GraphFormatError, match=r"edges.txt:2"):
        load_dataset(f, e, l)


def test_load_reports_dimension_mismatch(tmp_path):
    f, e, l = write_inputs(tmp_path, [[0.0], [1.0]], [(0, 1)], [0, 1])
    f.write_text("0.0,1.0\n2.0\n")
    with pytest.raises(GraphFormatError, match=r"feat.csv:2"):
        load_dataset(f, e, l)


def test_load_missing_file(tmp_path):
    f, e, l = write_inputs(tmp_path, [[0.0]], [], [0])
    with pytest.raises(GraphFormatError,
                       match="absent.csv: No such file or directory"):
        load_dataset(tmp_path / "absent.csv", e, l)


def test_make_edges_same_array_from_ndarray_list_and_generator():
    pairs = np.array([[3, 1], [0, 2], [2, 2]])
    want = np.array([[3, 1, 1], [0, 2, 1], [2, 2, 1]])
    for given_pairs in (pairs, pairs.tolist(), (tuple(p) for p in pairs)):
        got = make_edges(given_pairs, EdgeOrigin.KNN)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert make_edges(np.empty((0, 2)), EdgeOrigin.KNN).shape == (0, 3)
    assert make_edges([], EdgeOrigin.KNN).shape == (0, 3)


def test_coalesce_precedence_original_beats_spectral():
    edges = np.vstack([
        make_edges([(1, 2)], EdgeOrigin.ORIGINAL),
        make_edges([(1, 2)], EdgeOrigin.SPECTRAL),
    ])
    out = coalesce(edges)
    assert out.shape[0] == 1
    assert tuple(out[0]) == (1, 2, int(EdgeOrigin.ORIGINAL))


def test_coalesce_keeps_distinct_directions():
    edges = make_edges([(2, 1), (1, 2)], EdgeOrigin.KNN)
    out = coalesce(edges)
    assert out.shape[0] == 2


def test_coalesce_empty():
    out = coalesce(np.empty((0, 3), dtype=np.int64))
    assert out.shape == (0, 3)


origins = st.sampled_from([EdgeOrigin.ORIGINAL, EdgeOrigin.KNN,
                           EdgeOrigin.SPECTRAL])
edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), origins), max_size=40)


@settings(max_examples=100, deadline=None)
@given(edge_lists)
def test_coalesce_idempotent(items):
    edges = np.array([(u, v, int(o)) for u, v, o in items],
                     dtype=np.int64).reshape(-1, 3)
    once = coalesce(edges)
    np.testing.assert_array_equal(coalesce(once), once)


@settings(max_examples=100, deadline=None)
@given(edge_lists)
def test_coalesce_survivor_has_max_precedence(items):
    edges = np.array([(u, v, int(o)) for u, v, o in items],
                     dtype=np.int64).reshape(-1, 3)
    out = coalesce(edges)
    survivors = {(u, v): o for u, v, o in out}
    for u, v, o in items:
        assert survivors[(u, v)] <= int(o)
    assert len(survivors) == len({(u, v) for u, v, _ in items})


def lexsort_coalesce(edges):
    """The 3-key lexsort coalesce replaced: the reference for its output,
    array and order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    if edges.shape[0] == 0:
        return edges
    edges = edges[np.lexsort((edges[:, 2], edges[:, 1], edges[:, 0]))]
    keep = np.ones(edges.shape[0], dtype=bool)
    keep[1:] = (edges[1:, 0] != edges[:-1, 0]) | (edges[1:, 1] != edges[:-1, 1])
    return edges[keep]


@st.composite
def unsorted_edges_with_repeats(draw):
    ids = st.one_of(st.integers(0, 5), st.integers(0, 2 ** 20))
    rows = draw(st.lists(st.tuples(ids, ids, st.sampled_from(list(EdgeOrigin))),
                         min_size=1, max_size=40))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    return draw(st.permutations(rows + [rows[i] for i in repeats]))


@settings(max_examples=200, deadline=None)
@given(unsorted_edges_with_repeats())
def test_coalesce_equals_the_lexsort_reference(items):
    edges = np.array([(u, v, int(o)) for u, v, o in items], dtype=np.int64)
    got = coalesce(edges)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, lexsort_coalesce(edges))


def test_coalesce_key_fills_int64_exactly_and_rejects_one_more_id():
    # spans 2**32 * 2**31 * 1 = 2**63: the largest key is 2**63 - 1
    fits = make_edges([(2 ** 32 - 1, 2 ** 31 - 1), (0, 0), (2 ** 32 - 1, 0)],
                      EdgeOrigin.KNN)
    np.testing.assert_array_equal(coalesce(fits), lexsort_coalesce(fits))
    shifted = make_edges([(-5, 7), (2 ** 32 - 6, 2 ** 31 + 6)], EdgeOrigin.KNN)
    np.testing.assert_array_equal(coalesce(shifted), lexsort_coalesce(shifted))
    for pairs in ([(2 ** 32, 2 ** 31 - 1), (0, 0)], [(0, 0), (2 ** 40, 2 ** 40)]):
        with pytest.raises(ValueError, match="int64 key"):
            coalesce(make_edges(pairs, EdgeOrigin.ORIGINAL))


def random_graph(seed=0, n=6):
    rng = np.random.default_rng(seed)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(10, 2))
             if a != b}
    edges = coalesce(make_edges(sorted(pairs), EdgeOrigin.ORIGINAL))
    labels = rng.integers(0, 3, size=n)
    labels[0] = -1
    return Graph(rng.normal(size=(n, 4)), edges, labels, 3, "rand")


def test_save_load_roundtrip_bit_exact(tmp_path):
    g = random_graph(seed=1)
    p = tmp_path / "g.graph"
    save_graph(g, p)
    g2 = load_graph(p)
    np.testing.assert_array_equal(g.features, g2.features)
    np.testing.assert_array_equal(g.edges, g2.edges)
    np.testing.assert_array_equal(g.labels, g2.labels)
    assert g.num_classes == g2.num_classes
    assert g.domain_id == g2.domain_id
    # second cycle produces identical bytes
    p2 = tmp_path / "g2.graph"
    save_graph(g2, p2)
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("domain_id", [" padded ", "", "a  b\t", "domain x"])
def test_save_load_keeps_the_domain_id_as_written(tmp_path, domain_id):
    p = tmp_path / "g.graph"
    save_graph(replace(random_graph(seed=1), domain_id=domain_id), p)
    assert load_graph(p).domain_id == domain_id


@pytest.mark.parametrize("domain_id", ["a\nb", "a\rb", "a\r\nb", "\n"])
def test_graph_rejects_a_line_break_in_its_domain_id(domain_id):
    with pytest.raises(GraphFormatError, match="line break"):
        replace(random_graph(seed=1), domain_id=domain_id)


@pytest.mark.parametrize("domain_id", ["\udcff", "a\ud800b"])
def test_graph_rejects_a_domain_id_that_is_not_utf8(domain_id):
    with pytest.raises(GraphFormatError, match="not valid UTF-8"):
        replace(random_graph(seed=1), domain_id=domain_id)


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(GraphFormatError):
        Graph(np.zeros((2, 1)), make_edges([(0, 5)], EdgeOrigin.ORIGINAL),
              np.zeros(2, dtype=int), 1)


def test_graph_rejects_nonfinite_features():
    X = np.zeros((2, 2))
    X[0, 0] = np.nan
    with pytest.raises(GraphFormatError):
        Graph(X, np.empty((0, 3), np.int64), np.zeros(2, dtype=int), 1)


def test_graph_rejects_duplicate_pairs():
    edges = np.array([[0, 1, 0], [0, 1, 1]], dtype=np.int64)
    with pytest.raises(GraphFormatError):
        Graph(np.zeros((2, 1)), edges, np.zeros(2, dtype=int), 1)


def test_graph_is_immutable():
    g = random_graph()
    with pytest.raises(ValueError):
        g.features[0, 0] = 3.0


def test_dataset_requires_consistent_dims():
    a = random_graph(seed=1)
    rng = np.random.default_rng(2)
    b = Graph(rng.normal(size=(4, 5)), np.empty((0, 3), np.int64),
              rng.integers(0, 3, size=4), 3, "other")
    with pytest.raises(ValueError, match="disagrees"):
        DomainDataset(source_graphs=(a, b))
    bare = replace(a, features=a.features[:, :0])
    with pytest.raises(ValueError, match="'rand' has no features"):
        DomainDataset(source_graphs=(bare,))


def test_edge_stats_arithmetic():
    g = random_graph(seed=3)
    n_extra = 4
    extra = [(i, (i + 2) % g.num_nodes) for i in range(n_extra)]
    enriched = coalesce(np.vstack([g.edges, make_edges(extra, EdgeOrigin.KNN)]))
    added = enriched.shape[0] - g.num_edges
    stats = edge_stats(g, enriched)
    assert stats.edge_increase_pct == pytest.approx(100.0 * added / g.num_edges)
    assert stats.avg_degree_delta == pytest.approx(added / g.num_nodes)
    assert sum(stats.counts.values()) == enriched.shape[0]


def test_edge_stats_specific_percentages():
    feats = np.zeros((100, 1))
    labels = np.zeros(100, dtype=int)
    base_pairs = [(i, (i + 1) % 100) for i in range(100)]
    g = Graph(feats, make_edges(base_pairs, EdgeOrigin.ORIGINAL), labels, 1)
    extra = [(i, (i + 7) % 100) for i in range(58)]
    enriched = coalesce(np.vstack([g.edges, make_edges(extra, EdgeOrigin.SPECTRAL)]))
    stats = edge_stats(g, enriched)
    assert stats.edge_increase_pct == pytest.approx(58.0)


def test_edge_stats_identical_graphs_zero_increase():
    g = random_graph(seed=4)
    stats = edge_stats(g, g.edges)
    assert stats.edge_increase_pct == pytest.approx(0.0)


def test_edge_stats_empty_before_is_undefined():
    g = Graph(np.zeros((3, 1)), np.empty((0, 3), np.int64),
              np.zeros(3, dtype=int), 1)
    stats = edge_stats(g, make_edges([(0, 1)], EdgeOrigin.KNN))
    assert stats.edge_increase_pct is None
    assert asdict(stats)["edge_increase_pct"] is None
