"""Immutable graph values, dataset ingestion and the on-disk graph format.

A graph is a dense float64 feature matrix plus a directed edge list. Every
edge carries an origin tag so that downstream mask statistics can tell
original topology apart from feature-derived additions. Undirected inputs
are symmetrized at load time; all mutation happens by constructing new
graphs.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

UNLABELED = -1


class EdgeOrigin(enum.IntEnum):
    """Provenance of a directed edge. Lower value = higher coalesce precedence."""

    ORIGINAL = 0
    KNN = 1
    SPECTRAL = 2
    SELF_LOOP = 3


class GraphFormatError(ValueError):
    """Raised when an input file cannot be parsed into a valid graph."""


@dataclass(frozen=True)
class Graph:
    """A node-attributed directed graph.

    features: (N, d) float64, all entries finite.
    edges: (E, 3) int64 rows of (src, dst, origin); unique (src, dst) pairs,
        sorted by (src, dst).
    labels: (N,) int64 class ids in [0, C) or UNLABELED.
    """

    features: np.ndarray
    edges: np.ndarray
    labels: np.ndarray
    num_classes: int
    domain_id: str = "default"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise GraphFormatError("feature matrix must be 2-dimensional")
        if not np.all(np.isfinite(feats)):
            raise GraphFormatError("feature matrix contains non-finite entries")
        n = feats.shape[0]
        if labels.shape != (n,):
            raise GraphFormatError(
                f"label count {labels.shape} does not match node count {n}"
            )
        bad = labels[(labels != UNLABELED) & ((labels < 0) | (labels >= self.num_classes))]
        if bad.size:
            raise GraphFormatError(f"label {bad[0]} outside [0, {self.num_classes})")
        if edges.size:
            if edges[:, :2].min() < 0 or edges[:, :2].max() >= n:
                raise GraphFormatError("edge endpoint outside [0, N)")
            pairs = edges[:, 0] * n + edges[:, 1]
            if np.unique(pairs).size != pairs.size:
                raise GraphFormatError("duplicate (src, dst) pairs after coalescing")
        feats.setflags(write=False)
        edges.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class DomainDataset:
    """A family of graphs sharing feature dimension and class count."""

    source_graphs: tuple
    target_graph: Optional[Graph] = None

    def __post_init__(self):
        graphs = tuple(self.source_graphs)
        if not graphs:
            raise ValueError("need at least one source graph")
        d = graphs[0].num_features
        c = graphs[0].num_classes
        for g in graphs + ((self.target_graph,) if self.target_graph else ()):
            if g.num_features != d or g.num_classes != c:
                raise ValueError(
                    f"domain {g.domain_id!r} disagrees on feature dim or class count"
                )
        object.__setattr__(self, "source_graphs", graphs)

    @property
    def num_domains(self) -> int:
        return len(self.source_graphs)


@dataclass
class EdgeOriginStats:
    """Per-origin edge counts and the relative growth due to enrichment.

    Growth percentages are computed over genuine (non-self-loop) edges;
    self-loops are bookkeeping, not structure.
    """

    counts: dict
    edge_increase_pct: Optional[float]
    avg_degree_delta: float


def coalesce(edges: np.ndarray) -> np.ndarray:
    """Deduplicate a directed edge list.

    When the same (src, dst) pair appears with several origins, the one with
    highest precedence survives (ORIGINAL > KNN > SPECTRAL > SELF_LOOP).
    Output is sorted by (src, dst) so edge indices are reproducible.

    One int64 key per row, (src, dst, origin) in mixed radix: equal keys are
    equal rows, so the sort may be unstable. ValueError if a key passes int64.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    if edges.shape[0] == 0:
        return edges
    cols = edges.T            # per column: axis=0 over (E, 3) is ~10x slower
    lo = [int(c.min()) for c in cols]
    s0, s1, s2 = (int(c.max()) - low + 1 for c, low in zip(cols, lo))
    if s0 * s1 * s2 > 2 ** 63:
        raise ValueError("edge ids span too wide a range for an int64 key")
    key = ((cols[0] - lo[0]) * s1 + (cols[1] - lo[1])) * s2 + (cols[2] - lo[2])
    key.sort()
    pair = key // s2
    first = np.concatenate(([True], pair[1:] != pair[:-1]))   # one per pair
    key, pair = key[first], pair[first]
    return np.column_stack([pair // s1, pair % s1, key % s2]) + lo


def make_edges(pairs: Iterable, origin: EdgeOrigin) -> np.ndarray:
    """Build an (E, 3) edge array from (src, dst) pairs with one origin tag.

    An ndarray converts directly; only other iterables go through a list.
    """
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    tags = np.full((arr.shape[0], 1), int(origin), dtype=np.int64)
    return np.hstack([arr, tags])


def edge_stats(before: Graph, after) -> EdgeOriginStats:
    """Compare edge counts before/after enrichment.

    `after` is anything exposing `.enriched_edges` (or a raw edge array).
    """
    enriched = getattr(after, "enriched_edges", after)
    enriched = np.asarray(enriched, dtype=np.int64).reshape(-1, 3)
    counts = {origin.name: int(np.sum(enriched[:, 2] == int(origin)))
              for origin in EdgeOrigin}
    n_before = before.num_edges
    n_after = sum(counts[o.name] for o in EdgeOrigin if o is not EdgeOrigin.SELF_LOOP)
    if n_before == 0:
        increase = None
    else:
        increase = 100.0 * (n_after - n_before) / n_before
    delta = (n_after - n_before) / before.num_nodes if before.num_nodes else 0.0
    return EdgeOriginStats(counts=counts, edge_increase_pct=increase,
                           avg_degree_delta=delta)


def _parse_float_row(line: str, path, lineno: int) -> list:
    text = line.replace(",", " ")
    try:
        return [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{lineno}: bad feature value ({exc})") from None


def load_dataset(feature_file, edge_file, label_file, domain_id: str = "default",
                 num_classes: Optional[int] = None) -> Graph:
    """Load a graph from separate feature / edge / label files.

    The edge file lists undirected pairs; each becomes two directed entries
    tagged ORIGINAL. Parse errors report file and line number.
    """
    feature_file = Path(feature_file)
    edge_file = Path(edge_file)
    label_file = Path(label_file)
    for p in (feature_file, edge_file, label_file):
        if not p.exists():
            raise GraphFormatError(f"input file not found: {p}")

    rows = []
    with feature_file.open() as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            row = _parse_float_row(line, feature_file, lineno)
            if rows and len(row) != len(rows[0]):
                raise GraphFormatError(
                    f"{feature_file}:{lineno}: expected {len(rows[0])} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise GraphFormatError(f"{feature_file}: no feature rows")
    features = np.asarray(rows, dtype=np.float64)
    n = features.shape[0]

    labels = []
    with label_file.open() as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                labels.append(int(line.strip()))
            except ValueError:
                raise GraphFormatError(
                    f"{label_file}:{lineno}: label must be an integer"
                ) from None
    if len(labels) != n:
        raise GraphFormatError(
            f"{label_file}: {len(labels)} labels for {n} nodes"
        )
    labels = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        observed = labels[labels != UNLABELED]
        num_classes = int(observed.max()) + 1 if observed.size else 1

    pairs = []
    with edge_file.open() as f:
        for lineno, line in enumerate(f, start=1):
            text = line.replace(",", " ").strip()
            if not text:
                continue
            toks = text.split()
            if len(toks) != 2:
                raise GraphFormatError(
                    f"{edge_file}:{lineno}: expected 'src dst', got {line.strip()!r}"
                )
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise GraphFormatError(
                    f"{edge_file}:{lineno}: endpoints must be integers"
                ) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"{edge_file}:{lineno}: edge ({u},{v}) outside [0,{n})"
                )
            pairs.append((u, v))
            if u != v:
                pairs.append((v, u))

    edges = coalesce(make_edges(pairs, EdgeOrigin.ORIGINAL)) if pairs else \
        np.empty((0, 3), dtype=np.int64)
    return Graph(features, edges, labels, num_classes, domain_id)


def write_atomic(path, data) -> None:
    """Write `data` (bytes, or str as UTF-8) to `path` by way of a temporary
    file in the same directory and os.replace: readers see the old file or
    the new one, never a part, and a failed write leaves no temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# On-disk graph format: a line-oriented text file. Floats are written with
# repr() so a save/load cycle is bit-exact.

_MAGIC = "maskdg-graph v1"


def save_graph(g: Graph, path) -> None:
    lines = [
        _MAGIC,
        f"nodes {g.num_nodes}",
        f"features {g.num_features}",
        f"classes {g.num_classes}",
        f"domain {g.domain_id}",
        "X",
    ]
    for row in g.features:
        lines.append(" ".join(repr(float(x)) for x in row))
    lines.append("labels")
    lines.extend(str(int(y)) for y in g.labels)
    lines.append(f"edges {g.num_edges}")
    for src, dst, origin in g.edges:
        lines.append(f"{src} {dst} {EdgeOrigin(origin).name}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    """Read a graph file; any malformed, truncated or inconsistent input
    raises GraphFormatError naming the file and, where there is one, the
    line."""
    path = Path(path)
    if not path.exists():
        raise GraphFormatError(f"graph file not found: {path}")
    lines = path.read_text(errors="replace").splitlines()
    if not lines or lines[0] != _MAGIC:
        raise GraphFormatError(f"{path}:1: not a graph file (missing header)")

    def fail(idx: int, what: str) -> GraphFormatError:
        return GraphFormatError(f"{path}:{idx + 1}: {what}")

    def expect(idx: int, key: str) -> str:
        if idx >= len(lines) or not lines[idx].startswith(key):
            raise fail(idx, f"expected '{key} ...'")
        return lines[idx][len(key):].strip()

    def count(idx: int, key: str) -> int:
        text = expect(idx, key)
        if not (text.isascii() and text.isdigit()):
            raise fail(idx, f"'{key}' needs a nonnegative integer")
        return int(text)

    def need(end: int, block: str) -> None:
        if len(lines) < end:
            raise fail(len(lines), f"file ends inside the {block} block")

    n = count(1, "nodes")
    d = count(2, "features")
    c = count(3, "classes")
    domain = expect(4, "domain")
    expect(5, "X")
    need(6 + n, "X")
    feat_rows = []
    for i in range(n):
        feat_rows.append(_parse_float_row(lines[6 + i], path, 7 + i))
    try:
        features = np.asarray(feat_rows, dtype=np.float64).reshape(n, d)
    except ValueError:
        i = next(i for i, row in enumerate(feat_rows) if len(row) != d)
        raise fail(6 + i, f"expected {d} feature values, "
                          f"got {len(feat_rows[i])}") from None
    idx = 6 + n
    expect(idx, "labels")
    need(idx + 1 + n, "labels")
    labels = []
    try:
        for i in range(n):
            labels.append(int(lines[idx + 1 + i]))
    except ValueError:
        raise fail(idx + 1 + i, "label must be an integer") from None
    idx += 1 + n
    num_edges = count(idx, "edges")
    need(idx + 1 + num_edges, "edges")
    edges = np.empty((num_edges, 3), dtype=np.int64)
    try:
        for i in range(num_edges):
            toks = lines[idx + 1 + i].split()
            edges[i] = (int(toks[0]), int(toks[1]), int(EdgeOrigin[toks[2]]))
    except (ValueError, KeyError, IndexError, OverflowError):
        raise fail(idx + 1 + i, "expected 'src dst ORIGIN', got "
                                f"{lines[idx + 1 + i]!r}") from None
    try:
        return Graph(features, edges, labels, c, domain)
    except (GraphFormatError, OverflowError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
