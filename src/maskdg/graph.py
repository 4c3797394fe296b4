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
        if "\n" in self.domain_id or "\r" in self.domain_id:
            raise GraphFormatError("domain id contains a line break")
        try:
            self.domain_id.encode()
        except UnicodeEncodeError:
            raise GraphFormatError("domain id is not valid UTF-8") from None
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
            pairs = np.sort(edges[:, 0] * n + edges[:, 1])
            if (pairs[1:] == pairs[:-1]).any():
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
        if d < 1:
            raise ValueError(f"domain {graphs[0].domain_id!r} has no features")
        for g in graphs + ((self.target_graph,) if self.target_graph else ()):
            if g.num_features != d or g.num_classes != c:
                raise ValueError(
                    f"domain {g.domain_id!r} disagrees on feature dim or class count"
                )
        object.__setattr__(self, "source_graphs", graphs)

    @property
    def num_domains(self) -> int:
        return len(self.source_graphs)


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


def edge_stats(before: Graph, enriched: np.ndarray) -> dict:
    """The per-origin counts of the enriched (E, 3) edges of `before`, and
    the growth due to enrichment: edge_increase_pct (None when `before` has
    no genuine edge) and avg_degree_delta.

    Growth is computed over genuine (non-self-loop) edges on both sides;
    self-loops are bookkeeping, not structure.
    """
    counts = {origin.name: int(np.sum(enriched[:, 2] == int(origin)))
              for origin in EdgeOrigin}
    n_before, n_after = (int(np.sum(e[:, 0] != e[:, 1]))
                         for e in (before.edges, enriched))
    return {
        "counts": counts,
        "edge_increase_pct": (100.0 * (n_after - n_before) / n_before
                              if n_before else None),
        "avg_degree_delta": ((n_after - n_before) / before.num_nodes
                             if before.num_nodes else 0.0),
    }


def _read_lines(path) -> list:
    """(line number, text) of each line of a text file, undecodable bytes
    replaced; a file that cannot be read raises GraphFormatError."""
    try:
        with open(path, errors="replace") as f:
            text = f.read()
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc.strerror or exc}") from None
    lines = text.split("\n")     # text mode already turned \r\n and \r into \n
    if lines[-1] == "":
        lines.pop()
    return list(enumerate(lines, start=1))


def _parse_rows(path, rows, parse, expected: str, out):
    """out[i] = parse(text) for the i-th (line number, text) row; `out` is a
    list, or an int64 array that rejects a value past its range. A row that
    fails raises GraphFormatError "<path>:<line>: expected <expected>, ..."."""
    try:
        for i, (lineno, text) in enumerate(rows):
            out[i] = parse(text)
    except (ValueError, KeyError, IndexError, OverflowError):
        raise GraphFormatError(f"{path}:{lineno}: expected {expected}, "
                               f"got {text!r}") from None
    return out


def _read_features(path, rows, width: Optional[int] = None) -> np.ndarray:
    """The (rows, width) float64 block of comma- or space-separated values;
    `width` defaults to the first row's, so `rows` must not be empty."""
    if width is None:
        width = len(rows[0][1].replace(",", " ").split())

    def parse(text):
        row = text.replace(",", " ").split()
        if len(row) != width:
            raise ValueError
        return list(map(float, row))

    out = _parse_rows(path, rows, parse, f"{width} feature values",
                      [None] * len(rows))
    return np.asarray(out, dtype=np.float64).reshape(len(rows), width)


def _graph(path, *fields) -> Graph:
    """Graph(*fields), its complaints prefixed with `path`."""
    try:
        return Graph(*fields)
    except (GraphFormatError, OverflowError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def load_dataset(feature_file, edge_file, label_file,
                 domain_id: str = "default") -> Graph:
    """Load a graph from separate feature / edge / label files; blank lines
    are skipped.

    The edge file lists undirected pairs; each becomes two directed entries
    tagged ORIGINAL. Errors report file and line number.
    """
    feature_rows, edge_rows, label_rows = (
        [row for row in _read_lines(p) if row[1].strip()]
        for p in (feature_file, edge_file, label_file))
    if not feature_rows:
        raise GraphFormatError(f"{feature_file}: no feature rows")
    features = _read_features(feature_file, feature_rows)
    n = features.shape[0]
    if len(label_rows) != n:
        raise GraphFormatError(
            f"{label_file}: {len(label_rows)} labels for {n} nodes")
    labels = _parse_rows(label_file, label_rows, int, "an integer label",
                         np.empty(n, dtype=np.int64))
    observed = labels[labels != UNLABELED]
    num_classes = int(observed.max()) + 1 if observed.size else 1

    def pair(text):
        u, v = map(int, text.replace(",", " ").split())
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError
        return u, v

    pairs = _parse_rows(edge_file, edge_rows, pair, f"'src dst' in [0, {n})",
                        np.empty((len(edge_rows), 2), dtype=np.int64))
    edges = coalesce(make_edges(np.vstack([pairs, pairs[:, ::-1]]),
                                EdgeOrigin.ORIGINAL))
    return _graph(f"{feature_file}:{edge_file}:{label_file}", features, edges,
                  labels, num_classes, domain_id)


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


def _edge_row(text: str) -> tuple:
    src, dst, origin = text.split()        # ValueError unless three tokens
    return int(src), int(dst), EdgeOrigin[origin]


def load_graph(path) -> Graph:
    """Read a graph file; any malformed, truncated or inconsistent input
    raises GraphFormatError naming the file and, where there is one, the
    line."""
    rows = _read_lines(path)
    if not rows or rows[0][1] != _MAGIC:
        raise GraphFormatError(f"{path}:1: not a graph file (missing header)")

    def fail(idx: int, what: str) -> GraphFormatError:
        return GraphFormatError(f"{path}:{idx + 1}: {what}")

    def expect(idx: int, key: str) -> str:
        if idx >= len(rows) or not rows[idx][1].startswith(key):
            raise fail(idx, f"expected '{key.strip()} ...'")
        return rows[idx][1][len(key):]

    def count(idx: int, key: str) -> int:
        text = expect(idx, key).strip()
        if not (text.isascii() and text.isdigit()):
            raise fail(idx, f"'{key}' needs a nonnegative integer")
        return int(text)

    def block(start: int, size: int, name: str) -> list:
        if len(rows) < start + size:
            raise fail(len(rows), f"file ends inside the {name} block")
        return rows[start:start + size]

    n = count(1, "nodes")
    d = count(2, "features")
    c = count(3, "classes")
    domain = expect(4, "domain ")
    expect(5, "X")
    features = _read_features(path, block(6, n, "X"), d)
    idx = 6 + n
    expect(idx, "labels")
    labels = _parse_rows(path, block(idx + 1, n, "labels"), int,
                         "an integer label", np.empty(n, dtype=np.int64))
    idx += 1 + n
    num_edges = count(idx, "edges")
    edges = _parse_rows(path, block(idx + 1, num_edges, "edges"), _edge_row,
                        "'src dst ORIGIN'",
                        np.empty((num_edges, 3), dtype=np.int64))
    return _graph(path, features, edges, labels, c, domain)
