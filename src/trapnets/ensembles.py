"""Generators for the graph families driving the experiments.

Gasket graphs with exact triangular-lattice coordinates, random-conductance
paths on a symmetric integer window, uniform labeled trees via Prufer
decoding with a deterministic plane structure (root at label 1, children in
label order), depth-first coding functions, tilted trees, pointset-driven
surplus-edge attachment, and largest components of the near-critical
Erdos-Renyi graph.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    InvalidBounds,
    InvalidWindow,
    LevelTooLarge,
    TooLargeForEnumeration,
    TrapnetsError,
)
from .networks import ElectricalNetwork, add_unit_edges, build_network
from .rng import as_generator

_SQRT3_2 = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# Sierpinski gasket graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GasketGraph:
    network: ElectricalNetwork
    coords: dict            # vertex id -> planar coordinates in the unit triangle
    lattice: dict           # vertex id -> integer (a, b) pair at scale 2^level
    corners: tuple          # ids of the three outer corners; corners[0] is the root
    level: int


def sierpinski(n: int) -> GasketGraph:
    """Level-n gasket graph with unit conductances, rooted at the origin corner.

    Vertices live on the triangular lattice spanned by (1, 0) and
    (1/2, sqrt(3)/2); edges join vertices a Euclidean distance 2^-n apart.
    """
    if not 0 <= n <= 9:
        raise LevelTooLarge("gasket levels above 9 are not supported")
    size = 2 ** n
    cells = [(0, 0)]
    s = size
    while s > 1:
        s //= 2
        cells = [c for (a, b) in cells for c in ((a, b), (a + s, b), (a, b + s))]
    verts = set()
    edge_pairs = set()
    for a, b in cells:
        c0, c1, c2 = (a, b), (a + 1, b), (a, b + 1)
        verts.update((c0, c1, c2))
        edge_pairs.update((tuple(sorted((c0, c1))), tuple(sorted((c0, c2))),
                           tuple(sorted((c1, c2)))))
    order = sorted(verts)
    ids = {p: i for i, p in enumerate(order)}
    edges = [(ids[p], ids[q], 1.0) for p, q in sorted(edge_pairs)]
    net = build_network(range(len(order)), edges, root=ids[(0, 0)])
    coords = {ids[(a, b)]: ((a + 0.5 * b) / size, _SQRT3_2 * b / size) for a, b in order}
    lattice = {ids[p]: p for p in order}
    corners = (ids[(0, 0)], ids[(size, 0)], ids[(0, size)])
    return GasketGraph(net, coords, lattice, corners, n)


# ---------------------------------------------------------------------------
# Random conductance path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformConductanceLaw:
    """Conductances uniform on [c_min, c_max], rescaled so E[1/zeta] = 1."""

    c_min: float
    c_max: float

    def __post_init__(self):
        if not 0 < self.c_min <= self.c_max:
            raise InvalidBounds("need 0 < c_min <= c_max")

    @property
    def inverse_mean(self) -> float:
        if self.c_min == self.c_max:
            return 1.0 / self.c_min
        return math.log(self.c_max / self.c_min) / (self.c_max - self.c_min)

    def sample(self, rng, size=None):
        raw = rng.uniform(self.c_min, self.c_max, size)
        return raw * self.inverse_mean


@dataclass(frozen=True)
class ConductancePath:
    network: ElectricalNetwork
    coords: dict            # vertex id -> (float position,)
    window: int


def conductance_path(window: int, law: UniformConductanceLaw, rng_or_stream,
                     values: np.ndarray | None = None) -> ConductancePath:
    """Path on {-window, ..., window} with i.i.d. conductances, rooted at 0.

    ``values`` overrides sampling with a precomputed conductance array of
    length 2 * window (used to couple windows across scale levels).
    """
    if window < 1:
        raise TrapnetsError("window must be at least 1")
    rng = as_generator(rng_or_stream)
    if values is None:
        values = law.sample(rng, size=2 * window)
    if len(values) != 2 * window:
        raise TrapnetsError("need one conductance per edge")
    ids = list(range(-window, window + 1))
    edges = [(i, i + 1, float(values[k])) for k, i in enumerate(range(-window, window))]
    net = build_network(ids, edges, root=0)
    coords = {i: (float(i),) for i in ids}
    return ConductancePath(net, coords, window)


# ---------------------------------------------------------------------------
# Labeled and plane trees
# ---------------------------------------------------------------------------

def prufer_decode(seq, m: int) -> list:
    """Edges of the labeled tree on [m] encoded by a Prufer sequence."""
    if m == 1:
        return []
    if m == 2:
        return [(1, 2)]
    deg = [1] * (m + 1)
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(1, m + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def uniform_cayley_tree(m: int, rng_or_stream) -> list:
    """Uniform labeled tree on [m] (edge list) via Prufer decoding."""
    if m < 1:
        raise TrapnetsError("tree size must be at least 1")
    rng = as_generator(rng_or_stream)
    if m <= 2:
        return prufer_decode([], m)
    seq = [int(v) for v in rng.integers(1, m + 1, size=m - 2)]
    return prufer_decode(seq, m)


@dataclass(frozen=True)
class PlaneTree:
    """Rooted plane tree in depth-first order.

    ``parent[i]`` is the depth-first index of the parent of the i-th visited
    vertex (-1 for the root); ``labels[i]`` is its original label.
    """

    parent: tuple
    labels: tuple

    @property
    def size(self) -> int:
        return len(self.parent)

    def outdegrees(self) -> np.ndarray:
        k = np.zeros(self.size, dtype=int)
        for p in self.parent[1:]:
            k[p] += 1
        return k

    def network(self) -> ElectricalNetwork:
        """Unit-conductance network on the labels, rooted at the root's label."""
        edges = [(self.labels[self.parent[i]], self.labels[i], 1.0)
                 for i in range(1, self.size)]
        return build_network(sorted(self.labels), edges, root=self.labels[0])


def as_plane_tree(edges, m: int, root_label: int = 1) -> PlaneTree:
    """Plane structure of a labeled tree: root at ``root_label``, children by label."""
    adj: dict = {v: [] for v in range(1, m + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    parent = []
    labels = []
    index_of: dict = {}
    stack = [(root_label, -1)]
    while stack:
        label, par = stack.pop()
        index_of[label] = len(labels)
        labels.append(label)
        parent.append(par)
        children = [w for w in adj[label] if par == -1 or w != labels[par]]
        for w in reversed(children):
            stack.append((w, index_of[label]))
    if len(labels) != m:
        raise TrapnetsError("edge list is not a tree on [m]")
    return PlaneTree(tuple(parent), tuple(labels))


@dataclass(frozen=True)
class CodingData:
    """Depth-first coding functions of a plane tree at integer arguments."""

    height: np.ndarray        # H(i), distance of v_i to the root
    walk: np.ndarray          # X(i) for i = 0..m, the Lukasiewicz path
    outdegree_counts: dict    # k -> N^(k)(i) array over i = 0..m-1
    area: int                 # a(T) = sum_{i=1}^{m-1} X(i)


def coding_functions(tree: PlaneTree) -> CodingData:
    m = tree.size
    k = tree.outdegrees()
    walk = np.zeros(m + 1, dtype=int)
    np.cumsum(k - 1, out=walk[1:])
    height = np.zeros(m, dtype=int)
    for i in range(1, m):
        height[i] = height[tree.parent[i]] + 1
    outdeg_counts = {}
    for kk in np.unique(k):
        outdeg_counts[int(kk)] = np.cumsum(k == kk)
    return CodingData(height, walk, outdeg_counts, int(walk[1:m].sum()))


def _prufer_code(k: int, m: int) -> list:
    """The k-th Prufer code on [m] in lexicographic order."""
    return [1 + (k // m ** e) % m for e in range(m - 3, -1, -1)]


@lru_cache(maxsize=8)
def _plane_tree_areas(m: int) -> np.ndarray:
    """a(T) of every labeled tree on [m] as a plane tree (:func:`as_plane_tree`),
    in the lexicographic order of the Prufer codes.

    With d the depth-first index, a(T) is the sum over non-root vertices v of
    d(v) - d(parent of v) - 1: the sizes of the subtrees of v's siblings with
    smaller labels.  The codes are decoded side by side (Prufer decoding roots
    the tree at m), rerooted at 1, and summed over sibling pairs.
    """
    if m <= 2:
        return np.zeros(1, dtype=int)
    count = m ** (m - 2)
    rows = np.arange(count)
    # Row k is _prufer_code(k, m).
    codes = np.array([1 + (rows // m ** e) % m for e in range(m - 3, -1, -1)]).T
    degree = np.ones((count, m + 1), dtype=int)
    degree[:, 0] = 0
    for j in range(m - 2):
        degree[rows, codes[:, j]] += 1
    up = np.zeros((count, m + 1), dtype=int)      # parents toward m
    for j in range(m - 2):
        leaf = np.argmax(degree == 1, axis=1)
        up[rows, leaf] = codes[:, j]
        degree[rows, leaf] = 0
        degree[rows, codes[:, j]] -= 1
    up[rows, np.argmax(degree == 1, axis=1)] = m
    # Reverse the path from 1 to m; 0 marks the root.
    parent = up.copy()
    parent[:, 1] = 0
    cur = np.ones(count, dtype=int)
    for _ in range(m - 1):
        live = cur != m
        nxt = up[rows, cur]
        parent[rows[live], nxt[live]] = cur[live]
        cur = np.where(live, nxt, cur)
    size = np.ones((count, m + 1), dtype=int)
    for v in range(2, m + 1):
        anc = parent[:, v]
        for _ in range(m - 1):
            size[rows, anc] += 1
            anc = parent[rows, anc]
    area = np.zeros(count, dtype=int)
    for v in range(3, m + 1):
        for u in range(2, v):
            area += np.where(parent[:, u] == parent[:, v], size[:, u], 0)
    return area


def tilted_tree(m: int, p: float, rng_or_stream) -> PlaneTree:
    """Labeled tree reweighted by (1 - p)^(-a(T)).

    Exact: every labeled tree on [m] is enumerated, which limits m to 8.
    """
    if not 0 < p < 1:
        raise TrapnetsError("p must lie in (0, 1)")
    if m < 1:
        raise TrapnetsError("tree size must be at least 1")
    if m > 8:
        raise TooLargeForEnumeration("enumeration supports m <= 8")
    rng = as_generator(rng_or_stream)
    areas = _plane_tree_areas(m)
    weights = (1.0 - p) ** (-areas.astype(float))
    weights /= weights.sum()
    k = int(rng.choice(len(areas), p=weights))
    return as_plane_tree(prufer_decode(_prufer_code(k, m), m), m)


def binomial_pointset_under_walk(walk: np.ndarray, p: float, rng_or_stream) -> tuple:
    """Lattice points strictly under the walk, each kept with probability p.

    Candidates are the (x, y) with integer x and 0 <= y < walk(x); there are
    a(T) of them for a Lukasiewicz path, and the result has no duplicates by
    construction.
    """
    if not 0 < p < 1:
        raise TrapnetsError("p must lie in (0, 1)")
    rng = as_generator(rng_or_stream)
    points = []
    for x in range(len(walk) - 1):
        h = int(walk[x])
        if h <= 0:
            continue
        for y in np.flatnonzero(rng.random(h) < p):
            points.append((x, int(y)))
    return tuple(points)


def attachment_markers(walk: np.ndarray, points) -> list:
    """Map each kept point (x, y) to the marker pair (x, z) with z the first
    index at or after x where the walk comes back down to height y."""
    hits: dict = {}
    for z, h in enumerate(walk):
        hits.setdefault(int(h), []).append(z)
    markers = []
    for x, y in points:
        if not 0 <= y < walk[x]:
            raise TrapnetsError(f"point ({x}, {y}) is not strictly under the walk")
        row = hits[int(y)]
        markers.append((x, row[bisect_left(row, x)]))
    return markers


def surplus_attachment(tree: PlaneTree, p: float, rng_or_stream) -> ElectricalNetwork:
    """Attach surplus edges sampled from the pointset under the depth-first walk.

    Each marker joins the x-th vertex in depth-first order to the vertex at
    the walk's first return below it; a marked pair that already carries an
    edge ends up with conductance 2.
    """
    rng = as_generator(rng_or_stream)
    walk = coding_functions(tree).walk
    points = binomial_pointset_under_walk(walk, p, rng)
    markers = [(tree.labels[x], tree.labels[z]) for x, z in attachment_markers(walk, points)]
    return add_unit_edges(tree.network(), markers)


# ---------------------------------------------------------------------------
# Critical Erdos-Renyi largest component
# ---------------------------------------------------------------------------

def er_edge_probability(n: int, lam: float) -> float:
    """Edge probability 1/n + lam * n^(-4/3) of the critical window."""
    return 1.0 / n + lam * n ** (-4.0 / 3.0)


def er_largest_component(n: int, lam: float, rng_or_stream) -> ElectricalNetwork:
    """Largest component of G(n, 1/n + lam * n^(-4/3)) with unit conductances.

    Vertices are labeled 1..n; ties between equal-sized components go to the
    one containing the smallest label, which also becomes the root.  Edges
    are found by geometric skips over the n(n-1)/2 pairs in row order, one
    uniform per skip; the uniforms are drawn in blocks, so a numpy generator
    passed in is left further along its stream than the skips need.
    """
    if n < 2:
        raise TrapnetsError("need at least two vertices")
    p = er_edge_probability(n, lam)
    if not 0.0 < p < 1.0:
        raise InvalidWindow(f"edge probability {p} outside (0, 1)")
    rng = as_generator(rng_or_stream)
    total_pairs = n * (n - 1) // 2
    expected = p * total_pairs
    block = int(expected + 4.0 * math.sqrt(expected)) + 16
    log_q = math.log1p(-p)
    chunks = []
    last = -1
    while last < total_pairs:
        tails = 1.0 - rng.random(block)
        # math.log, not np.log: the two differ in the last bit on some inputs.
        gaps = np.fromiter(map(math.log, tails), float, block) / log_q
        skips = 1 + np.minimum(gaps, total_pairs).astype(np.int64)
        idx = last + np.cumsum(skips)
        last = int(idx[-1])
        chunks.append(idx[idx < total_pairs])
    idx = np.concatenate(chunks)
    row_starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    i = np.searchsorted(row_starts, idx, side="right") - 1
    j = i + 1 + (idx - row_starts[i])
    graph = coo_matrix((np.ones(len(idx)), (i, j)), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    sizes = np.bincount(comp)
    # The first vertex in a largest component holds that component's smallest label.
    champion = comp[np.argmax(sizes[comp] == sizes.max())]
    members = np.flatnonzero(comp == champion) + 1
    keep = comp[i] == champion
    comp_edges = [(a, b, 1.0) for a, b in zip((i[keep] + 1).tolist(), (j[keep] + 1).tolist())]
    return build_network(members.tolist(), comp_edges, root=int(members[0]))
