"""Reference computations that the benchmark checks trapnets against.

Each function here recomputes a quantity by a different route than the
program takes: matrix exponentials of the rate matrix instead of an
eigendecomposition, grounded Laplacian solves instead of the pseudo-inverse,
gasket vertices generated by their own recursion, and Prohorov distances
from networkx max-flow.  Only graph construction and the random streams are
shared with the program, since they define the inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve

SQRT3_2 = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# Trap-model kernels
# ---------------------------------------------------------------------------

def rate_matrix(net, nu: np.ndarray):
    """Q(x, y) = mu(x, y) / nu(x) with zero row sums, and mu(x) per vertex."""
    index = {v: i for i, v in enumerate(net.vertex_ids)}
    n = len(index)
    q = np.zeros((n, n))
    mu = np.zeros(n)
    for u, v, w in net.edges():
        i, j = index[u], index[v]
        q[i, j] += w / nu[i]
        q[j, i] += w / nu[j]
        mu[i] += w
        mu[j] += w
    q[np.diag_indices(n)] = -mu / nu
    return q, mu


class ExpmKernels:
    """Transition matrices exp(Q t) of one trap environment, memoized by t."""

    def __init__(self, net, nu):
        self.nu = np.asarray(nu, dtype=float)
        self.q, self.mu = rate_matrix(net, self.nu)
        self.root = list(net.vertex_ids).index(net.root)
        self.q_norm = float(np.max(self.mu / self.nu))    # largest exit rate
        self._cache = {}

    def kernel(self, t: float) -> np.ndarray:
        if t not in self._cache:
            self._cache[t] = expm(self.q * t)
        return self._cache[t]

    def aging_phi(self, s: float, t: float, unit: float) -> float:
        if s == t:
            return 1.0
        lo, hi = min(s, t), max(s, t)
        row = self.kernel(unit * lo)[self.root]
        return float(row @ np.diag(self.kernel(unit * (hi - lo))))

    def subaging_psi(self, s: float, t: float, unit: float, holding: float) -> float:
        row = self.kernel(unit * t)[self.root]
        return float(row @ np.exp(-self.mu * holding * s / self.nu))


# ---------------------------------------------------------------------------
# Gasket geometry and coupled traps
# ---------------------------------------------------------------------------

def gasket_lattice(n: int) -> set:
    """Vertices of the level-n gasket as integer (a, b) pairs at scale 2^n."""
    pts = {(0, 0), (1, 0), (0, 1)}
    for k in range(1, n + 1):
        half = 2 ** (k - 1)
        pts = {(a + da, b + db) for a, b in pts for da, db in ((0, 0), (half, 0), (0, half))}
    return pts


def gasket_point(a: int, b: int, scale: int) -> tuple:
    return ((a + 0.5 * b) / scale, SQRT3_2 * b / scale)


def coupled_keys(graphs: dict) -> tuple:
    """Top-level lattice key of every vertex, numbered by first appearance.

    ``graphs`` maps level -> GasketGraph in increasing level order; vertex
    v of level n sits at lattice point lattice[v] * 2^(top - n).
    """
    top = max(graphs)
    order = {}
    keys = {}
    for n, g in graphs.items():
        scale = 2 ** (top - n)
        keys[n] = [order.setdefault(tuple(c * scale for c in g.lattice[v]), len(order))
                   for v in g.network.vertex_ids]
    return keys, len(order)


def pareto_from_uniforms(u: np.ndarray, alpha: float) -> np.ndarray:
    """Pareto(alpha) traps with u_min = 1 from upper-tail uniforms in (0, 1]."""
    return np.asarray(u, dtype=float) ** (-1.0 / alpha)


# ---------------------------------------------------------------------------
# Resistances
# ---------------------------------------------------------------------------

def root_resistances(net) -> np.ndarray:
    """R(root, x) for every vertex from the root-grounded Laplacian."""
    index = {v: i for i, v in enumerate(net.vertex_ids)}
    n = len(index)
    lap = np.zeros((n, n))
    for u, v, w in net.edges():
        i, j = index[u], index[v]
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    r = index[net.root]
    keep = [i for i in range(n) if i != r]
    green = solve(lap[np.ix_(keep, keep)], np.eye(n - 1), assume_a="pos")
    out = np.zeros(n)
    out[keep] = np.diag(green)
    return out


# ---------------------------------------------------------------------------
# Distances between sets and measures
# ---------------------------------------------------------------------------

def _segments(root_distances):
    """(radius kept, weight) pieces of the integral of exp(-r) dr over r > 0."""
    cuts = sorted({d for d in root_distances if d > 0})
    prev = 0.0
    for b in cuts:
        yield prev, math.exp(-prev) - math.exp(-b)
        prev = b
    yield prev, math.exp(-prev)


def local_hausdorff(a_pts: np.ndarray, b_pts: np.ndarray, root: np.ndarray) -> float:
    """Integral of exp(-r) min(1, Hausdorff of the closed root r-balls) for planar sets."""
    ra = np.linalg.norm(a_pts - root, axis=1)
    rb = np.linalg.norm(b_pts - root, axis=1)
    total = 0.0
    for kept, weight in _segments(np.concatenate((ra, rb))):
        a, b = a_pts[ra <= kept], b_pts[rb <= kept]
        if len(a) == 0 and len(b) == 0:
            h = 0.0
        elif len(a) == 0 or len(b) == 0:
            h = math.inf
        else:
            d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
            h = max(d.min(axis=1).max(), d.min(axis=0).max())
        total += weight * min(1.0, h)
    return total


def _max_flow(wa, wb, allowed) -> float:
    import networkx as nx

    g = nx.DiGraph()
    for i, w in enumerate(wa):
        g.add_edge("s", ("a", i), capacity=float(w))
    for j, w in enumerate(wb):
        g.add_edge(("b", j), "t", capacity=float(w))
    for i, j in zip(*np.nonzero(allowed)):
        g.add_edge(("a", int(i)), ("b", int(j)))     # no capacity: unbounded
    return float(nx.maximum_flow_value(g, "s", "t"))


def prohorov(wa: np.ndarray, wb: np.ndarray, cross: np.ndarray) -> float:
    """inf{eps : mu(A) <= nu(A^eps) + eps and nu(B) <= mu(B^eps) + eps for all A, B}.

    By max-flow min-cut, the worst mass excess at radius eps is
    max(mu(X), nu(X)) - maxflow(eps), which does not increase with eps, so the
    first distance level where it falls below the level is found by bisection.
    """
    if len(wa) == 0 and len(wb) == 0:
        return 0.0
    if len(wa) == 0 or len(wb) == 0:
        return float(np.sum(wa) + np.sum(wb))
    levels = np.unique(np.concatenate(([0.0], cross.ravel())))
    top = max(wa.sum(), wb.sum())
    excess = {}

    def worst(k):
        if k not in excess:
            excess[k] = max(top - _max_flow(wa, wb, cross <= levels[k]), 0.0)
        return excess[k]

    last = len(levels) - 1
    if worst(last) > levels[last]:
        return worst(last)
    lo, hi = 0, last
    while lo < hi:
        mid = (lo + hi) // 2
        if worst(mid) <= levels[mid]:
            hi = mid
        else:
            lo = mid + 1
    best = float(levels[lo])
    if lo > 0:
        best = min(best, worst(lo - 1))
    return best


def vague(wa, ra, wb, rb, cross) -> float:
    """Integral of exp(-r) min(1, Prohorov of the closed root r-restrictions) dr."""
    total = 0.0
    for kept, weight in _segments(np.concatenate((ra, rb))):
        ia, ib = ra <= kept, rb <= kept
        total += weight * min(1.0, prohorov(wa[ia], wb[ib], cross[np.ix_(ia, ib)]))
    return total


def dis_distance(pa, wa, pb, wb, root) -> float:
    """Vague distance of two planar measures joined with that of their point maps.

    The point map lifts atom (x, w) to a unit atom at (x, w) in the plane
    times the half-line with metric |log v - log w|, under the max metric
    and rooted at (root, 1).
    """
    ra = np.linalg.norm(pa - root, axis=1)
    rb = np.linalg.norm(pb - root, axis=1)
    cross = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    base = vague(wa, ra, wb, rb, cross)
    la, lb = np.log(wa), np.log(wb)
    lifted_cross = np.maximum(cross, np.abs(la[:, None] - lb[None, :]))
    lifted = vague(np.ones(len(wa)), np.maximum(ra, np.abs(la)),
                   np.ones(len(wb)), np.maximum(rb, np.abs(lb)), lifted_cross)
    return max(base, lifted)
