"""Finite electrical networks and their resistance geometry.

An electrical network is a finite connected graph with symmetric positive
edge conductances and a distinguished root.  The module computes effective
resistances (pointwise, between sets, and to ball complements), quotients
networks by fusing vertex classes, adds unit edges, and exposes the
resistance metric as a :class:`FiniteMetricSpace` together with metric
entropy (covering numbers).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DisconnectedGraph,
    EmptyClass,
    EmptySet,
    NonpositiveConductance,
    NumericalFailure,
    OverlappingClasses,
    PairNotDistinct,
    SelfLoop,
    TrapnetsError,
    UnknownVertex,
)

_BALL_SNAP = 1e-12
# Networks with at least this many vertices are large: their grounded inverse
# comes from a sparse LU factorization, and the slow modes of the Green's
# operator (see dynamics.Generator) from Lanczos iteration.  Both crossovers
# were measured at one BLAS thread.  Grounded inverse, dense Cholesky against
# sparse LU: 0.60 against 0.75 ms on critical ER components of 64-127
# vertices, 1.75 against 1.16 ms at 128-191, 7.6 against 3.9 ms at 256-319,
# 1.06 against 1.72 ms on gasket level 4 (123 vertices) and 13.5 against
# 7.6 ms on level 5 (366).  Given the inverse, full eigh of M against
# Lanczos: 1.7 against 3.3 ms at 64-127 vertices, 4.3 against 3.4 ms at
# 128-191, 13.7 against 4.0 ms at 256-319; Lanczos certified t = a*c on
# every one of the 70 ER components of 128-511 vertices at alpha 0.5.
LARGE_FROM = 128


def ball_tolerance(r: float) -> float:
    """Relative snap width for ball-membership tests.

    Distances within this width of the radius are treated as exactly equal to
    it, so radii chosen at realized distances behave like the exact metric
    despite factorization rounding.  An infinite radius has width zero, so
    its balls, open or closed, hold every finite distance.
    """
    return _BALL_SNAP * max(1.0, abs(r)) if math.isfinite(r) else 0.0


def ball_mask(row, radius: float, closed: bool = False):
    """Membership of each distance in ``row`` (an array or one distance) in
    the ball of ``radius``.

    The open ball keeps distances below ``radius`` by more than
    :func:`ball_tolerance`; the closed ball keeps those at most that width
    above it.  A distance that rounds onto the radius is therefore on the
    sphere, whichever way the solver's last bit fell.
    """
    tol = ball_tolerance(radius)
    return row <= radius + tol if closed else row < radius - tol


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A rooted finite metric space given by an explicit distance matrix."""

    point_ids: tuple
    dist: np.ndarray
    root: object

    def __post_init__(self):
        n = len(self.point_ids)
        if self.dist.shape != (n, n):
            raise TrapnetsError("distance matrix shape does not match points")
        if self.root not in self._index:
            raise UnknownVertex(f"root {self.root!r} is not a point")

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.point_ids)}

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownVertex(f"unknown point {point!r}") from None

    def has_point(self, point) -> bool:
        return point in self._index

    def distance(self, p, q) -> float:
        return float(self.dist[self.index(p), self.index(q)])

    def distances(self, ps, qs) -> np.ndarray:
        """Matrix of ``distance(p, q)`` over ``p`` in ps (rows) and ``q`` in qs."""
        return self.dist[np.ix_([self.index(p) for p in ps], [self.index(q) for q in qs])]

    def root_distance(self, p) -> float:
        return self.distance(self.root, p)

    def validate(self, tol: float = 1e-9) -> None:
        """Check the metric axioms; raises on violation."""
        d = self.dist
        if np.any(np.abs(np.diag(d)) > 0):
            raise TrapnetsError("nonzero diagonal")
        if not np.array_equal(d, d.T):
            raise TrapnetsError("distance matrix is not symmetric")
        off = d[~np.eye(len(self.point_ids), dtype=bool)]
        if off.size and off.min() <= 0:
            raise TrapnetsError("zero or negative off-diagonal distance")
        # d(x,y) <= d(x,z) + d(z,y) for all triples, vectorized over z.
        detour = d[:, None, :] + d.T[None, :, :]          # [x, y, z] -> d(x,z) + d(z,y)
        if np.any(d[:, :, None] > detour + tol):
            raise TrapnetsError("triangle inequality violated")


class ElectricalNetwork:
    """Finite vertex set with symmetric positive conductances and a root.

    Instances are immutable after construction; all query methods are
    read-only and safe to share across workers.  A single-vertex network
    (no edges) is allowed as a degenerate case.
    """

    def __init__(self, vertex_ids: Sequence[int], conductances: Mapping, root: int):
        self.vertex_ids = tuple(vertex_ids)
        self._index = {v: i for i, v in enumerate(self.vertex_ids)}
        self.root = root
        self._cond = dict(conductances)
        self._adj: dict = {v: {} for v in self.vertex_ids}
        for (u, v), w in self._cond.items():
            self._adj[u][v] = w
            self._adj[v][u] = w

    # -- construction-time state is private; everything below is read-only --

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def index(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def conductance(self, u, v) -> float:
        self.index(u), self.index(v)
        key = (u, v) if (u, v) in self._cond else (v, u)
        return self._cond.get(key, 0.0)

    def neighbors(self, v) -> dict:
        self.index(v)
        return dict(self._adj[v])

    def total_conductance(self, v) -> float:
        """mu(x) = sum_y mu(x,y), the total conductance at a vertex."""
        return float(self.total_conductance_vector[self.index(v)])

    def edges(self) -> list:
        """Edges as (u, v, weight) with u, v in stored (canonical) order."""
        return [(u, v, w) for (u, v), w in self._cond.items()]

    @cached_property
    def edge_arrays(self):
        """(i_idx, j_idx, weights) arrays over stored edges, for vectorized builds."""
        if not self._cond:
            return (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        iu = np.array([self._index[u] for (u, _) in self._cond], dtype=int)
        iv = np.array([self._index[v] for (_, v) in self._cond], dtype=int)
        w = np.array(list(self._cond.values()))
        return iu, iv, w

    @cached_property
    def total_conductance_vector(self) -> np.ndarray:
        """mu(x) for every vertex, in vertex order.

        Each vertex sums its edge weights in stored edge order (the ends of
        edge k are added before those of edge k + 1), so every mu(x) and the
        Laplacian diagonal round the same way.
        """
        out = np.zeros(self.n_vertices)
        iu, iv, w = self.edge_arrays
        np.add.at(out, np.column_stack((iu, iv)).ravel(), np.repeat(w, 2))
        return out

    @cached_property
    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.n_vertices, self.n_vertices))
        iu, iv, w = self.edge_arrays
        lap[iu, iv] = -w
        lap[iv, iu] = -w
        np.fill_diagonal(lap, self.total_conductance_vector)
        return lap

    @cached_property
    def green_matrix(self) -> np.ndarray:
        """Root-grounded inverse g of the Laplacian: zero root row and column,
        and on the other vertices the inverse of the Laplacian restricted to
        them, which is positive definite on a connected network.

        Below ``LARGE_FROM`` vertices it is solved through one dense Cholesky
        factorization of the restricted Laplacian.  From ``LARGE_FROM`` on it
        is solved through one sparse LU factorization (SuperLU, diagonal
        pivots, minimum-degree ordering of A^T + A) of the Laplacian with the
        root row and column replaced by those of the identity; the dense
        Laplacian is never formed, and the bits of g do not depend on the
        BLAS thread count.  Either factorization refuses a grounded Laplacian
        that is not positive definite in floating point, such as conductances
        spread beyond double precision, with :class:`NumericalFailure`:
        Cholesky when it meets a nonpositive pivot, the LU when SuperLU finds
        the factor singular or any pivot (a diagonal entry of U) is not
        positive.  With diagonal pivots the diagonal of U is the squared
        diagonal of the Cholesky factor in the same ordering, so both apply
        the same test.
        """
        n = self.n_vertices
        root = self.index(self.root)
        if n >= LARGE_FROM:
            return self._sparse_green(root)
        keep = np.arange(n) != root
        g = np.zeros((n, n))
        try:
            factor = scipy.linalg.cho_factor(self.laplacian[np.ix_(keep, keep)])
            g[np.ix_(keep, keep)] = scipy.linalg.cho_solve(factor, np.eye(n - 1))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"grounded Laplacian is not positive definite: {exc}") from exc
        return g

    def _sparse_green(self, root: int) -> np.ndarray:
        """:attr:`green_matrix` from one sparse LU factorization."""
        n = self.n_vertices
        iu, iv, w = self.edge_arrays
        off_root = (iu != root) & (iv != root)
        iu, iv, w = iu[off_root], iv[off_root], w[off_root]
        diag = self.total_conductance_vector.copy()
        diag[root] = 1.0
        ends = np.arange(n)
        grounded = scipy.sparse.csc_matrix(
            (np.concatenate((-w, -w, diag)),
             (np.concatenate((iu, iv, ends)), np.concatenate((iv, iu, ends)))),
            shape=(n, n))
        try:
            lu = scipy.sparse.linalg.splu(grounded, permc_spec="MMD_AT_PLUS_A",
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise NumericalFailure(f"grounded Laplacian is not positive definite: {exc}") from exc
        if not np.all(lu.U.diagonal() > 0.0):
            raise NumericalFailure("grounded Laplacian is not positive definite: "
                                   "nonpositive pivot in its sparse LU factor")
        g = lu.solve(np.eye(n))
        g[root, root] = 0.0
        return g

    @cached_property
    def resistance_matrix(self) -> np.ndarray:
        """All-pairs effective resistance R(x, y) = g_xx + g_yy - 2 g_xy, with g
        the :attr:`green_matrix` (which raises :class:`NumericalFailure` when
        the factorization fails)."""
        g = self.green_matrix
        d = np.diag(g)
        r = d[:, None] + d[None, :] - 2.0 * g
        r = 0.5 * (r + r.T)
        np.fill_diagonal(r, 0.0)
        return r

    @cached_property
    def resistance_space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace(self.vertex_ids, self.resistance_matrix, self.root)


def build_network(vertices: Iterable[int], weighted_edges: Iterable, root: int) -> ElectricalNetwork:
    """Validate and build an electrical network.

    ``weighted_edges`` holds (u, v, weight) triples; the symmetric closure is
    taken, so each unordered pair may be listed once in either orientation.
    """
    vertex_ids = tuple(vertices)
    if not vertex_ids:
        raise EmptySet("a network needs at least one vertex")
    if len(set(vertex_ids)) != len(vertex_ids):
        raise TrapnetsError("duplicate vertex ids")
    known = set(vertex_ids)
    if root not in known:
        raise UnknownVertex(f"root {root!r} is not a vertex")
    cond: dict = {}
    for u, v, w in weighted_edges:
        if u not in known or v not in known:
            raise UnknownVertex(f"edge ({u!r}, {v!r}) references unknown vertex")
        if u == v:
            raise SelfLoop(f"self-loop at {u!r}")
        if not 0 < w < math.inf:
            raise NonpositiveConductance(
                f"edge ({u!r}, {v!r}) has weight {w}; conductances must be finite and positive")
        key = (u, v) if (v, u) not in cond else (v, u)
        if key in cond and cond[key] != w:
            raise TrapnetsError(f"conflicting weights for edge ({u!r}, {v!r})")
        cond[key] = float(w)
    net = ElectricalNetwork(vertex_ids, cond, root)
    # Connectivity check by breadth-first search from the root.
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in net._adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(seen) != len(vertex_ids):
        raise DisconnectedGraph(
            f"graph has {len(vertex_ids) - len(seen)} vertices unreachable from the root")
    return net


def effective_resistance(net: ElectricalNetwork, x, y) -> float:
    """R(x, y), read from :attr:`ElectricalNetwork.resistance_matrix`."""
    return float(net.resistance_matrix[net.index(x), net.index(y)])


def resistance_between_sets(net: ElectricalNetwork, a_set: Iterable, b_set: Iterable) -> float:
    """R(A, B): inverse of the minimum energy of f with f=1 on A, f=0 on B.

    Returns 0 when the sets intersect (the feasible set is empty and the
    supremum convention makes the resistance vanish).
    """
    a = list(dict.fromkeys(a_set))
    b = list(dict.fromkeys(b_set))
    if not a or not b:
        raise EmptySet("both vertex sets must be nonempty")
    ia = [net.index(v) for v in a]
    ib = [net.index(v) for v in b]
    if set(ia) & set(ib):
        return 0.0
    n = net.n_vertices
    lap = net.laplacian
    boundary = set(ia) | set(ib)
    interior = [i for i in range(n) if i not in boundary]
    f = np.zeros(n)
    f[ia] = 1.0
    if interior:
        rhs = -lap[np.ix_(interior, ia)].sum(axis=1)
        try:
            f[interior] = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(str(exc)) from exc
    energy = float(f @ lap @ f)
    if energy <= 0:
        raise NumericalFailure("vanishing Dirichlet energy on a connected network")
    return 1.0 / energy


def boundary_resistance(net: ElectricalNetwork, x, r: float) -> float:
    """R({x}, complement of the open resistance ball B(x, r)).

    Returns ``math.inf`` when the ball already covers the whole vertex set;
    the non-explosion functional saturates there.
    """
    if not r > 0:
        raise TrapnetsError("radius must be positive")
    outside = ~ball_mask(net.resistance_matrix[net.index(x)], r)
    complement = [v for v, out in zip(net.vertex_ids, outside) if out]
    if not complement:
        return math.inf
    return resistance_between_sets(net, [x], complement)


@dataclass(frozen=True)
class EntropyCount:
    """Covering number result; ``exact`` is False for the greedy fallback."""

    count: int
    exact: bool


def metric_entropy(space: FiniteMetricSpace, delta: float) -> EntropyCount:
    """Minimum number of closed delta-balls (centered at points) covering the space.

    Exhaustive set-cover search for at most 20 points, greedy
    upper bound (flagged) beyond; minimum set cover is NP-hard in general.
    """
    if not delta > 0:
        raise TrapnetsError("delta must be positive")
    n = len(space.point_ids)
    covers = ball_mask(space.dist, delta, closed=True)
    masks = [int(sum(1 << j for j in range(n) if covers[i, j])) for i in range(n)]
    full = (1 << n) - 1

    covered = 0
    greedy = 0
    while covered != full:
        best = max(range(n), key=lambda i: bin(masks[i] & ~covered).count("1"))
        covered |= masks[best]
        greedy += 1

    if n > 20:
        return EntropyCount(greedy, exact=False)
    for k in range(1, greedy):
        for combo in itertools.combinations(range(n), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return EntropyCount(k, exact=True)
    return EntropyCount(greedy, exact=True)


@dataclass(frozen=True)
class FusedNetwork:
    """Quotient network together with the canonical projection of vertex ids."""

    network: ElectricalNetwork
    canonical_map: dict = field(compare=False)


def fuse(net: ElectricalNetwork, classes: Sequence[Iterable]) -> FusedNetwork:
    """Quotient the network by identifying each class to a single vertex.

    Conductances aggregate additively across class boundaries and edges
    internal to a class are dropped.  Each fused class is represented by its
    smallest member id; untouched vertices keep their ids.
    """
    cleaned = []
    seen: set = set()
    for cls in classes:
        members = list(dict.fromkeys(cls))
        if not members:
            raise EmptyClass("fused classes must be nonempty")
        for v in members:
            net.index(v)
            if v in seen:
                raise OverlappingClasses(f"vertex {v!r} appears in two classes")
            seen.add(v)
        cleaned.append(members)

    canonical = {v: v for v in net.vertex_ids}
    for members in cleaned:
        rep = min(members)
        for v in members:
            canonical[v] = rep

    quotient_ids = list(dict.fromkeys(canonical[v] for v in net.vertex_ids))
    agg: dict = {}
    for (u, v), w in net._cond.items():
        pu, pv = canonical[u], canonical[v]
        if pu == pv:
            continue
        key = (pu, pv) if (pv, pu) not in agg else (pv, pu)
        agg[key] = agg.get(key, 0.0) + w
    quotient = ElectricalNetwork(quotient_ids, agg, canonical[net.root])
    return FusedNetwork(quotient, canonical)


def add_unit_edges(net: ElectricalNetwork, pairs: Sequence) -> ElectricalNetwork:
    """Increment by one the conductance of each listed pair (create at 1)."""
    seen = set()
    cond = dict(net._cond)
    for u, v in pairs:
        net.index(u), net.index(v)
        if u == v:
            raise PairNotDistinct(f"pair ({u!r}, {v!r}) is not a distinct pair")
        key = frozenset((u, v))
        if key in seen:
            raise PairNotDistinct(f"pair ({u!r}, {v!r}) listed twice")
        seen.add(key)
        store = (u, v) if (v, u) not in cond else (v, u)
        cond[store] = cond.get(store, 0.0) + 1.0
    return ElectricalNetwork(net.vertex_ids, cond, net.root)
