"""Feature-derived edge construction and the enriched graph.

Two complementary similarity structures are unioned with the original
topology: a cosine kNN graph (local) and complete digraphs inside spectral
clusters of the features (global). Full edge sets are computed once per
graph; training re-samples subsets each epoch, so the expensive spectral
step never repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import EdgeOrigin, Graph, coalesce, make_edges

# Most nodes whose (N, N) Laplacian buffer spectral_edges will build.
LAPLACIAN_CAP = 5000
_KMEANS_MAX_ITER = 100


@dataclass
class EnrichConfig:
    k: int = 10
    clusters: int = 100
    gamma_knn: float = 0.1
    gamma_spec: float = 0.1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.clusters < 2:
            raise ValueError("cluster count must be >= 2")
        for name in ("gamma_knn", "gamma_spec"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def check_graph(self, g: Graph) -> None:
        """Raise ValueError unless `g` can be enriched with this config: the
        kNN set needs k < N, the spectral set clusters <= N and N within
        LAPLACIAN_CAP, the cap on its (N, N) Laplacian buffer."""
        n, name = g.num_nodes, g.domain_id
        if self.gamma_knn > 0 and self.k >= n:
            raise ValueError(f"graph {name!r} has {n} nodes; kNN needs "
                             f"k < {n}, got k={self.k}")
        if self.gamma_spec > 0 and self.clusters > n:
            raise ValueError(f"graph {name!r} has {n} nodes, fewer than "
                             f"the {self.clusters} spectral clusters")
        if self.gamma_spec > 0 and n > LAPLACIAN_CAP:
            raise ValueError(f"graph {name!r} has {n} nodes, more than the "
                             f"(N, N) Laplacian cap ({LAPLACIAN_CAP})")


@dataclass(frozen=True)
class EnrichedGraph:
    """A graph's edges coalesced with its feature-derived edges.

    Self-loops occupy a contiguous tail (one per node); they are bookkeeping
    for attention, not scorable structure.
    """

    enriched_edges: np.ndarray


def knn_edges(X: np.ndarray, k: int) -> np.ndarray:
    """Directed edges (i, j) to each node's k most cosine-similar peers.

    Ties break toward the lowest index; all-zero feature rows have
    similarity 0 to everything. Each row's k-th best similarity comes from
    a partition, not a full sort: every strictly better column is kept,
    plus the lowest-index ties at that value, and the k survivors are
    ordered by (-similarity, column).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    if k >= n:
        raise ValueError(f"k too large: k={k} with {n} nodes")
    norms = np.linalg.norm(X, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = X / safe[:, None]
    sim = unit @ unit.T
    sim[norms == 0, :] = 0.0
    sim[:, norms == 0] = 0.0
    np.fill_diagonal(sim, -np.inf)
    kth = np.partition(sim, n - k, axis=1)[:, n - k, None]
    keep = sim >= kth
    crowded = np.flatnonzero(keep.sum(axis=1) > k)   # rows to tie-break
    better = sim[crowded] > kth[crowded]
    ties = keep[crowded] & ~better
    room = k - better.sum(axis=1, keepdims=True)
    keep[crowded] = better | (ties & (np.cumsum(ties, axis=1) <= room))
    src, cols = np.nonzero(keep)               # k per row, row-major
    neg_sim = -sim[src, cols].reshape(n, k)
    cols = cols.reshape(n, k)
    targets = np.take_along_axis(cols, np.lexsort((cols, neg_sim), axis=1),
                                 axis=1)
    return make_edges(np.column_stack([src, targets.reshape(-1)]),
                      EdgeOrigin.KNN)


# Budget for the (rows, M) planes that one distance block works in: the
# plane being added and the three accumulators besides the output block.
_BLOCK_BYTES = 1 << 20
# numpy's pairwise sum adds runs of up to this many values from 8 strided
# accumulators and splits longer runs in two.
_PAIRWISE_BLOCK = 128
# The ufunc buffer size while the planes are built. numpy runs a broadcast
# subtraction whose rows are shorter than its buffer (8,192 elements by
# default) through copies in that buffer; at 16 it reads the operands in
# place, which halved the time of the N = 800 distance matrix (numpy 2.4).
# Elementwise results do not depend on it.
_UFUNC_BUFSIZE = 16


def _sq_plane(at, bt, k, out):
    """(a_k - b_k)^2 of feature plane k over a block, written into out."""
    np.subtract(at[k], bt[k], out=out)
    return np.multiply(out, out, out=out)


def _plane_sum(at, bt, lo, n, out, spare):
    """out = the sum of the squared planes lo, ..., lo + n - 1, added in the
    order in which numpy's pairwise sum adds n contiguous values: one by one
    below 8; up to _PAIRWISE_BLOCK from 8 strided accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by one; beyond
    that, two halves cut at a multiple of 8. `spare` holds free buffers of
    out's shape: the plane and three accumulators."""
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        _plane_sum(at, bt, lo, half, out, spare)
        out += _plane_sum(at, bt, lo + half, n - half, np.empty_like(out),
                          spare)
        return out
    plane = spare[0]
    if n < 8:
        out.fill(0.0)
        for k in range(lo, lo + n):
            out += _sq_plane(at, bt, k, plane)
        return out
    top = lo + n - n % 8

    def strided(j, acc):
        _sq_plane(at, bt, lo + j, acc)
        for k in range(lo + j + 8, top, 8):
            acc += _sq_plane(at, bt, k, plane)
        return acc

    r1, r2, r3 = spare[1:4]
    strided(0, out)
    out += strided(1, r1)
    strided(2, r1)
    r1 += strided(3, r2)
    out += r1                          # (r0 + r1) + (r2 + r3)
    strided(4, r1)
    r1 += strided(5, r2)
    strided(6, r2)
    r2 += strided(7, r3)
    r1 += r2                           # (r4 + r5) + (r6 + r7)
    out += r1
    for k in range(top, lo + n):
        out += _sq_plane(at, bt, k, plane)
    return out


def _pairwise_sq_distances(X: np.ndarray, Y: Optional[np.ndarray] = None
                           ) -> np.ndarray:
    """(N, M) squared Euclidean distances from the rows of X to those of Y
    (default X), one feature plane at a time over row blocks whose working
    planes fit _BLOCK_BYTES. The planes are added in the order of numpy's
    pairwise sum over d contiguous values, so every entry has the bits of
    the broadcast ((X[:, None] - Y[None]) ** 2).sum(axis=2). Against X
    itself a block takes only the columns j >= i and is mirrored; against Y
    the (M, N) transpose is built, so that the N rows of X run along a
    block's contiguous axis. Both keep the bits: a - b == -(b - a).

    The Gram form |x|^2 + |y|^2 - 2x.y is avoided on purpose: its rounding
    moves distances by ~1e-15 relative, enough to change k-means
    assignments.
    """
    mirror = Y is None or Y is X
    A, B = (X, X) if mirror else (Y, X)
    out = np.empty((A.shape[0], B.shape[0]))
    at = A.T[:, :, None]                              # (d, rows, 1)
    bt = np.ascontiguousarray(B.T)[:, None, :]        # (d, 1, columns)
    rows = max(1, _BLOCK_BYTES // (8 * 4 * B.shape[0]))
    scratch = np.empty(4 * rows * B.shape[0])
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for i in range(0, A.shape[0], rows):
            j = i if mirror else 0
            block = out[i:i + rows, j:]
            spare = [scratch[p * block.size:(p + 1) * block.size].reshape(
                block.shape) for p in range(4)]
            _plane_sum(at[:, i:i + rows], bt[..., j:], 0, A.shape[1], block,
                       spare)
            if mirror:
                out[i + rows:, i:i + rows] = out[i:i + rows, i + rows:].T
    finally:
        np.setbufsize(bufsize)
    return out if mirror else out.T


def _median_pairwise_distance(sq: np.ndarray) -> float:
    """Median distance over the node pairs i < j of a squared-distance
    matrix: np.median's float, from one partition of the squared values at
    h = count // 2 (a square root keeps their order). Even counts average
    the roots of the largest value below h and the value at h."""
    n = sq.shape[0]
    upper = sq[np.arange(n)[:, None] < np.arange(n)]
    h = upper.size // 2
    upper.partition(h)
    b = np.sqrt(upper[h])
    if upper.size % 2:
        return float(b)
    return float((np.sqrt(upper[:h].max()) + b) / 2)


def _normalized_laplacian(X: np.ndarray, bandwidth) -> np.ndarray:
    """I - D^-1/2 A D^-1/2 for the RBF affinity A of X, built in place in
    the one (N, N) squared-distance buffer; same bits as the textbook
    expression."""
    buf = _pairwise_sq_distances(X)
    if bandwidth == "median":
        zeta = _median_pairwise_distance(buf)
        if zeta <= 0:
            zeta = 1.0
    else:
        zeta = float(bandwidth)
    np.negative(buf, out=buf)
    buf /= 2.0 * zeta * zeta
    np.exp(buf, out=buf)                       # the affinity A
    inv_sqrt = 1.0 / np.sqrt(buf.sum(axis=1))
    buf *= inv_sqrt[:, None]
    buf *= inv_sqrt[None, :]
    diag = 1.0 - buf.diagonal()
    np.subtract(0.0, buf, out=buf)             # 0 - a, not -a: keeps +0.0
    np.fill_diagonal(buf, diag)
    return buf


def _kmeans_pp_init(emb: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = emb.shape[0]
    centers = np.empty((k, emb.shape[1]))
    centers[0] = emb[rng.integers(n)]
    d2 = ((emb - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = emb[rng.integers(n)]
            continue
        probs = d2 / total
        centers[j] = emb[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((emb - centers[j]) ** 2).sum(axis=1))
    return centers


def _kmeans(emb: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd rounds from a k-means++ start, _KMEANS_MAX_ITER at most."""
    centers = _kmeans_pp_init(emb, k, rng)
    assign = np.zeros(emb.shape[0], dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = _pairwise_sq_distances(emb, centers)
        new_assign = d2.argmin(axis=1)
        for j in range(k):
            members = new_assign == j
            if members.any():
                centers[j] = emb[members].mean(axis=0)
            else:
                # re-seed an empty cluster from the farthest point
                far = d2.min(axis=1).argmax()
                centers[j] = emb[far]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


# The Krylov path stops when every Ritz pair has a residual
# |L v - theta v|_2 <= _RITZ_TOL (|L|_2 <= 2). Its basis may hold at most
# _KRYLOV_SHARE * N columns, about the width at which it costs as much as
# the dense eigh (0.32-0.41 N measured), so a run that gives up costs at
# most about one more eigh. It does not start when _MIN_BLOCKS blocks, the
# depth it typically needs, would pass that: the dense eigh is cheaper.
_RITZ_TOL = 1e-13
_KRYLOV_SHARE = 0.35
_MIN_BLOCKS = 12
_START_SEED = 0


def _krylov_eigenpairs(lap: np.ndarray, clusters: int):
    """The `clusters` smallest eigenpairs of `lap` by block Krylov
    Rayleigh-Ritz, or None where the dense eigh is to take over.

    The basis grows by blocks M q = q - lap @ q of M = I - L, each
    orthogonalised against it; lap @ q is kept, so the Rayleigh-Ritz matrix
    costs no further (N, N) product. The Gaussian start block has a part
    along every eigenvector (almost surely), and the powers of M bring in
    those of the smallest eigenvalues of L first.
    """
    n = lap.shape[0]
    block = clusters + 1
    cap = int(_KRYLOV_SHARE * n)
    if block * _MIN_BLOCKS > cap:
        return None
    basis = np.empty((n, cap))
    lap_basis = np.empty((n, cap))
    ritz = np.empty((cap, cap))     # upper triangle of basis.T @ lap @ basis
    start = np.random.default_rng(_START_SEED).standard_normal((n, block))
    q = np.linalg.qr(start)[0]
    m = checked = 0
    while True:
        lq = lap @ q
        basis[:, m:m + q.shape[1]] = q
        lap_basis[:, m:m + q.shape[1]] = lq
        m += q.shape[1]
        ritz[:m, m - q.shape[1]:m] = basis[:, :m].T @ lq
        # Next block: project out the basis, drop the directions it (nearly)
        # spans already, project again so that rounding left by the first
        # pass is not magnified by the normalisation.
        y = q - lq
        y -= basis[:, :m] @ (basis[:, :m].T @ y)
        u, s, _ = np.linalg.svd(y, full_matrices=False)
        q = u[:, s > 1e-10]
        q -= basis[:, :m] @ (basis[:, :m].T @ q)
        q = np.linalg.qr(q)[0]
        last = not q.shape[1] or m + q.shape[1] > cap
        # A Ritz check costs O(m^3): once the basis is wide, space them by a
        # quarter of its width.
        if m >= clusters and (last or m - checked >= max(block, checked // 4)):
            checked = m
            theta, w = np.linalg.eigh(ritz[:m, :m], UPLO="U")
            theta, w = theta[:clusters], w[:, :clusters]
            vecs = basis[:, :m] @ w
            resid = lap_basis[:, :m] @ w - vecs * theta
            if np.linalg.norm(resid, axis=0).max() <= _RITZ_TOL:
                return theta, vecs
        if last:
            return None


def _leading_eigenpairs(lap: np.ndarray, clusters: int):
    """The `clusters` smallest eigenvalues of the normalized Laplacian `lap`,
    ascending, and orthonormal eigenvectors for them.

    k-means reads the row-normalized embedding only through distances and
    means, which a rotation of the basis within the leading subspace leaves
    unchanged; so the Krylov path only has to pin that subspace down, which
    its residual bound does. Small graphs, and large ones the Krylov path
    gives up on, take the dense eigh.
    """
    try:
        found = _krylov_eigenpairs(lap, clusters)
        if found is not None:
            return found
        eigvals, eigvecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition failed: {exc}") from exc
    return eigvals[:clusters], eigvecs[:, :clusters]


def spectral_edges(X: np.ndarray, clusters: int, bandwidth="median", *,
                   rng: np.random.Generator) -> np.ndarray:
    """All directed intra-cluster pairs after spectral clustering of X.

    RBF affinity with a median-distance bandwidth by default, symmetric
    normalized Laplacian, eigenvectors of the smallest eigenvalues,
    row-normalized embedding, then seeded k-means.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < clusters:
        raise ValueError(f"need at least {clusters} nodes, got {n}")
    if n > LAPLACIAN_CAP:
        raise ValueError(
            f"{n} nodes exceeds the (N, N) Laplacian cap ({LAPLACIAN_CAP})"
        )
    lap = _normalized_laplacian(X, bandwidth)
    eigvals, eigvecs = _leading_eigenpairs(lap, clusters)
    # Eigenvalue 1 marks kernel-null directions (the RBF kernel is PSD, so
    # the normalized affinity spectrum lives in [0, 1]). Their eigenvectors
    # are an arbitrary orthonormal basis carrying no similarity structure;
    # keeping them would split degenerate inputs on solver noise. Eigenvalue
    # 0, with eigenvector D^1/2 1, is always there, so one direction stays.
    emb = eigvecs[:, eigvals < 1.0 - 1e-10]
    row_norm = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(row_norm > 0, row_norm, 1.0)[:, None]
    assign = _kmeans(emb, clusters, rng)
    pairs = []
    for c in np.unique(assign):
        members = np.flatnonzero(assign == c)
        if members.size < 2:
            continue
        src = np.repeat(members, members.size)
        dst = np.tile(members, members.size)
        keep = src != dst
        pairs.append(np.column_stack([src[keep], dst[keep]]))
    if not pairs:
        return np.empty((0, 3), dtype=np.int64)
    return make_edges(np.vstack(pairs), EdgeOrigin.SPECTRAL)


def sample_edges(edges: np.ndarray, ratio: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement of floor(ratio * |edges|) edges."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    if ratio >= 1.0:
        return edges
    take = int(np.floor(ratio * edges.shape[0]))
    if take == 0:
        return edges[:0]
    idx = rng.choice(edges.shape[0], size=take, replace=False)
    return edges[np.sort(idx)]


class Enricher:
    """Per-graph cache of the full kNN and spectral edge sets.

    Construction pays the quadratic/cubic precomputation once; `sample`
    draws fresh subsets, coalesces them against the original edges and
    appends self-loops.
    """

    def __init__(self, g: Graph, cfg: EnrichConfig, rng: np.random.Generator):
        self.graph = g
        self.cfg = cfg
        self.full_knn = (knn_edges(g.features, cfg.k)
                         if cfg.gamma_knn > 0 else np.empty((0, 3), np.int64))
        self.full_spectral = (
            spectral_edges(g.features, cfg.clusters, rng=rng)
            if cfg.gamma_spec > 0 else np.empty((0, 3), np.int64))

    def sample(self, rng: np.random.Generator) -> EnrichedGraph:
        cfg, g = self.cfg, self.graph
        union = np.vstack([
            g.edges,
            sample_edges(self.full_knn, cfg.gamma_knn, rng),
            sample_edges(self.full_spectral, cfg.gamma_spec, rng)])
        # self-loops live in the tail
        merged = coalesce(union[union[:, 0] != union[:, 1]])
        loops = make_edges(np.arange(g.num_nodes).repeat(2).reshape(-1, 2),
                           EdgeOrigin.SELF_LOOP)
        return EnrichedGraph(np.vstack([merged, loops]))
