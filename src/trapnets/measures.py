"""Metric structures for discrete measures on rooted finite carriers.

Implements the Prohorov metric (exact, via a feasibility scan driven by
bipartite max-flow), the root-localized vague metric, the combined
measure-and-atoms distance, Hausdorff and local Hausdorff set distances,
and correspondence distortion with metric gluing.

Each probe of the Prohorov scan first brackets the max flow between two
cheap bounds, the value of the proportional flow below and the
neighbourhood capacities above (:func:`_flow_bounds`).  A probe that the
bracket decides with room to spare, a margin that covers Edmonds-Karp's
stopping tolerance and the rounding of both computations
(:func:`_bracket_margin`), runs no max-flow at all.  Every distance
returned is still a level or an Edmonds-Karp deficiency, so the values
are those of a scan that flows every probe.

A carrier is any object exposing ``root``, ``distance(p, q)``, the cross
matrix ``distances(ps, qs)``, ``root_distance(p)`` and ``has_point(p)``;
:class:`~trapnets.networks.FiniteMetricSpace` is the concrete finite case.

:class:`DiscreteMeasure` is the one measure type.  A point measure on
S x (0, inf) is a :class:`DiscreteMeasure` on :class:`ProductCarrier` (S)
whose atoms are ``(x, v)`` pairs, each carrying one unit of weight per
point at that pair: the point map p(nu) of :func:`dis_measure_distance`
and the Poisson random measure of :func:`~trapnets.traps.truncated_prm`
both take this form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CarrierMismatch, NotACorrespondence, SupportMismatch, TrapnetsError
from .networks import FiniteMetricSpace, ball_mask

_FLOW_TOL = 1e-12


class ProductCarrier:
    """Base space times the positive half-line with |log v - log w| and max metric.

    Points are ``(p, w)`` pairs with ``p`` on the base carrier and ``w > 0``.
    The root is ``(base root, 1)``.
    """

    def __init__(self, base):
        if base is None:
            raise CarrierMismatch("a product carrier needs a base carrier")
        self.base = base
        self.root = (base.root, 1.0)

    def has_point(self, point) -> bool:
        p, w = point
        return self.base.has_point(p) and w > 0

    def distance(self, a, b) -> float:
        (p, v), (q, w) = a, b
        return max(self.base.distance(p, q), abs(math.log(v) - math.log(w)))

    def distances(self, a_pts, b_pts) -> np.ndarray:
        """Matrix of ``distance(a, b)`` over ``a`` in a_pts and ``b`` in b_pts."""
        base = self.base.distances([p for p, _ in a_pts], [q for q, _ in b_pts])
        log_a = np.array([math.log(v) for _, v in a_pts])
        log_b = np.array([math.log(w) for _, w in b_pts])
        return np.maximum(base, np.abs(log_a[:, None] - log_b[None, :]))

    def root_distance(self, a) -> float:
        return self.distance(self.root, a)


class DiscreteMeasure:
    """Finite map atom -> positive weight over a carrier's points.

    A weight that is not finite and positive raises :class:`SupportMismatch`,
    and a total weight that overflows raises :class:`TrapnetsError`.
    """

    def __init__(self, carrier, atoms: dict):
        for p, w in atoms.items():
            if not 0 < w < math.inf:
                raise SupportMismatch(f"atom {p!r} has weight {w}, not finite and positive")
            if carrier is not None and not carrier.has_point(p):
                raise TrapnetsError(f"atom {p!r} is not a carrier point")
        self.carrier = carrier
        self.atoms = dict(atoms)
        if not math.isfinite(self.total()):
            raise TrapnetsError("the total weight overflows")

    def total(self) -> float:
        return float(sum(self.atoms.values()))

    def restrict(self, r: float) -> "DiscreteMeasure":
        """Keep atoms in the closed root ball of radius r (open-ball rule).

        On a finite carrier the closure of B(root, r) adds no points, so the
        retained set is exactly {x : d(root, x) < r}.
        """
        if not r > 0:
            raise TrapnetsError("radius must be positive")
        if self.carrier is None:
            raise CarrierMismatch("restricting to a root ball needs a carrier")
        keep = {p: w for p, w in self.atoms.items()
                if ball_mask(self.carrier.root_distance(p), r)}
        return DiscreteMeasure(self.carrier, keep)


# ---------------------------------------------------------------------------
# Prohorov metric
# ---------------------------------------------------------------------------

def _max_bipartite_flow(left: np.ndarray, right: np.ndarray, allowed: np.ndarray) -> float:
    """Max flow source -> left atoms -> right atoms -> sink (Edmonds-Karp).

    Cross arcs have effectively infinite capacity, so the min cut picks a set
    A of left atoms and pays ``left(A^c) + right(neighborhood of A)``; their
    forward residual never limits a path and is not stored.

    The residual network stays bipartite: ``src`` and ``snk`` hold what the
    source and sink arcs can still carry, and ``flow[i, j]`` what the
    backward arc from right atom j to left atom i can carry.  The BFS layers
    alternate left -> right through ``allowed`` and right -> left through
    ``flow``, and each node's parent is the lowest-index node of the previous
    layer that reaches it, so the shortest augmenting paths are the ones a
    node-by-node scan of the full residual matrix would find.
    """
    src = np.array(left, dtype=float)
    snk = np.array(right, dtype=float)
    flow = np.zeros(allowed.shape)
    left_parent = np.zeros(len(src), dtype=int)     # right parent; -1 is the source
    right_parent = np.zeros(len(snk), dtype=int)
    total = 0.0
    while True:
        frontier = src > _FLOW_TOL
        seen_left = frontier.copy()
        seen_right = np.zeros(len(snk), dtype=bool)
        left_parent[:] = -1
        end = -1
        while True:
            hit = allowed & frontier[:, None]
            fresh = hit.any(axis=0) & ~seen_right
            if not fresh.any():
                break
            right_parent[fresh] = hit[:, fresh].argmax(axis=0)
            seen_right |= fresh
            open_sink = fresh & (snk > _FLOW_TOL)
            first = int(open_sink.argmax())
            if open_sink[first]:
                end = first
                break
            back = (flow > _FLOW_TOL) & fresh
            frontier = back.any(axis=1) & ~seen_left
            left_parent[frontier] = back[frontier].argmax(axis=1)
            seen_left |= frontier
        if end < 0:
            return float(total)
        forward, backward = [], []
        j = end
        while True:
            i = right_parent[j]
            forward.append((i, j))
            if left_parent[i] < 0:
                break
            j = left_parent[i]
            backward.append((i, j))
        # i is now the left atom that the source arc feeds.
        bottleneck = min(snk[end], src[i], *(flow[a] for a in backward))
        snk[end] -= bottleneck
        for a in forward:
            flow[a] += bottleneck
        for a in backward:
            flow[a] -= bottleneck
        src[i] -= bottleneck
        total += bottleneck


def _check_same_carrier(a, b):
    if a.carrier is None or b.carrier is None or a.carrier is not b.carrier:
        raise CarrierMismatch("measures live on different carriers")


def _atom_arrays(mu: DiscreteMeasure):
    pts = list(mu.atoms.keys())
    w = np.array([mu.atoms[p] for p in pts], dtype=float)
    return pts, w


def _flow_bounds(left: np.ndarray, right: np.ndarray, allowed: np.ndarray) -> tuple:
    """(lower, upper) around the max flow of :func:`_max_bipartite_flow`.

    ``upper`` is min(sum_i min(a_i, (A b)_i), sum_j min(b_j, (a^T A)_j)): a
    left atom sends no more than it holds nor than its neighbours can take,
    and likewise for right atoms.  ``lower`` is the value of the
    proportional flow: left atom i sends a_i b_j / (A b)_i to each allowed j,
    and each right atom j then keeps at most b_j of what it receives.
    """
    a = allowed.astype(float)
    reach = a @ right
    inflow = left @ a
    upper = min(np.minimum(left, reach).sum(), np.minimum(right, inflow).sum())
    share = np.divide(left, reach, out=np.zeros_like(left), where=reach > 0)
    lower = np.minimum(right, right * (share @ a)).sum()
    return float(lower), float(upper)


def _bracket_margin(n_left: int, n_right: int, tot: float, top_level: float) -> float:
    """How far a float deficiency may stray from the bracket of :func:`_flow_bounds`.

    With F the exact max flow, the bracket's exact values satisfy
    L <= F <= U.  What :func:`prohorov` compares are floats, and this margin
    bounds the distance between each float and its exact value, summed:

    - Stopping tolerance.  Edmonds-Karp stops when no augmenting path runs
      through residuals above ``_FLOW_TOL``.  Its last search splits the
      atoms into reached and unreached ones, and that cut's capacity is at
      least F.  Across the cut, the flow falls short of the capacity only
      by the source arcs of unreached left atoms, the sink arcs of reached
      right atoms and the backward arcs from unreached left to reached right
      atoms, each at most ``_FLOW_TOL``: at most ``arcs * _FLOW_TOL`` with
      ``arcs = n_left + n_right + n_left * n_right``.
    - Rounding of Edmonds-Karp.  Replayed in exact arithmetic, the same
      augmentations give a flow whose value is the exact sum of the
      bottlenecks and whose residuals differ from the stored ones by the
      rounding errors of their updates.  Every stored residual and the
      running total stay at most ``tot`` in size, so an update rounds by at
      most u * tot, u = 2^-53.  An augmenting path updates at most
      2 min(n_left, n_right) + 2 values, the total included.  Each
      augmentation empties a source, sink or backward arc, and shortest
      augmenting paths empty an arc at most (n_left + n_right + 2) / 2
      times, so there are at most ``arcs * (n_left + n_right + 2) / 2``
      augmentations.  The sum of all update errors bounds how far the
      float total is from the replayed flow's value, and how far that
      value can fall below the cut above or exceed a minimum cut.
    - Rounding of the bounds.  The products A b and a^T A and the sums over
      n_left n_right terms of mass at most ``tot`` put U within
      ``arcs * u * tot`` of its exact value, and the quotients and products
      of the proportional flow put L within ``(2 (n_left + n_right) + 2) u
      tot`` of its own.
    - Rounding of the comparisons.  ``tot - L``, ``tot - U``, ``tot - flow``
      and ``level -+ margin`` each round by at most u * tot or u * level,
      and no level probed exceeds ``top_level``.

    The returned margin doubles the sum of these terms, which covers their
    second-order products and the rounding of the margin itself.
    """
    arcs = n_left + n_right + n_left * n_right
    augmentations = arcs * (n_left + n_right + 2) // 2
    updates = (augmentations * (2 * min(n_left, n_right) + 2) + arcs
               + 2 * (n_left + n_right) + 6)
    unit = np.finfo(float).eps / 2
    return 2.0 * (arcs * _FLOW_TOL + unit * (float(updates) * tot + top_level))


def prohorov(mu: DiscreteMeasure, nu: DiscreteMeasure, *, cap: float = math.inf) -> float:
    """Exact Prohorov distance P between finite discrete measures, capped: min(cap, P).

    The infimum over eps of the two-sided enlargement conditions is attained
    inside the finite set of pairwise atom distances joined with the max-flow
    mass deficiencies (Strassen, Ann. Math. Statist. 36, 1965), so a
    monotone scan over distance levels is exact.  The deficiency at level k
    is max(tot - F_k, 0), with tot the larger total mass and F_k the max
    flow through the atom pairs at distance at most the level.  It is
    decreasing while the level increases, which makes the feasibility
    predicate ``deficiency <= level`` monotone and lets the scan
    binary-search.

    Every deficiency is at least the mass gap |mu(X) - nu(X)|, so
    P >= |mu(X) - nu(X)|, and a gap of at least ``cap`` returns ``cap``
    without a flow.  Otherwise the scan first probes the last level below
    ``cap``: when that level is infeasible, the next level settles
    min(cap, P); when it is feasible, only the levels below it are
    searched.  The default ``cap`` of infinity gives P itself.

    A probe first brackets F_k between the bounds L_k <= F_k <= U_k of
    :func:`_flow_bounds`.  It is feasible without a flow when
    ``tot - L_k <= level - margin`` and infeasible without a flow when
    ``tot - U_k > level + margin``, where the margin of
    :func:`_bracket_margin` covers Edmonds-Karp's stopping tolerance and
    the rounding of both computations, so the bracket never contradicts
    the Edmonds-Karp deficiency.  Otherwise Edmonds-Karp runs, at most once
    per level and call.  When level k is the first feasible one, P is the
    deficiency at level k - 1 if that is below level k, and level k if
    not; that deficiency is flowed only when ``tot - U_{k-1}`` leaves it
    possible.  Every value returned is a level or an Edmonds-Karp
    deficiency, the same as when every probe runs a flow.
    """
    if not cap > 0:
        raise TrapnetsError("cap must be positive")
    _check_same_carrier(mu, nu)
    pa, wa = _atom_arrays(mu)
    pb, wb = _atom_arrays(nu)
    sa, sb = wa.sum(), wb.sum()
    if not pa or not pb:
        return min(cap, float(sa + sb))
    if abs(sa - sb) >= cap:
        return float(cap)
    cross = mu.carrier.distances(pa, pb)
    levels = np.unique(np.concatenate(([0.0], cross.ravel())))
    tot = max(sa, sb)
    margin = _bracket_margin(len(pa), len(pb), tot, levels[-1])
    brackets: dict = {}
    deficiencies: dict = {}

    def bracket(k: int) -> tuple:
        """(tot - U_k, tot - L_k), which holds the deficiency up to the margin."""
        if k not in brackets:
            lower, upper = _flow_bounds(wa, wb, cross <= levels[k])
            brackets[k] = (tot - upper, tot - lower)
        return brackets[k]

    def deficiency(k: int) -> float:
        if k not in deficiencies:
            flow = _max_bipartite_flow(wa, wb, cross <= levels[k])
            deficiencies[k] = float(max(tot - flow, 0.0))
        return deficiencies[k]

    def feasible(k: int) -> bool:
        least, most = bracket(k)
        if most <= levels[k] - margin:
            return True
        if least > levels[k] + margin:
            return False
        return deficiency(k) <= levels[k]

    def settle(k: int) -> float:
        """min(cap, P) when k is the first feasible level."""
        if k > 0 and bracket(k - 1)[0] < levels[k] + margin and deficiency(k - 1) < levels[k]:
            return min(cap, deficiency(k - 1))
        return min(cap, float(levels[k]))

    # hi is the last level below cap; levels[0] = 0 < cap.
    lo, hi = 0, int(np.searchsorted(levels, cap)) - 1
    if not feasible(hi):
        if hi + 1 == len(levels):
            return min(cap, deficiency(hi))
        return settle(hi + 1) if feasible(hi + 1) else float(cap)
    # Find the first level where deficiency <= level (monotone predicate).
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return settle(lo)


def prohorov_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Subset-enumeration Prohorov distance on at most 12 atoms in all; a cross-check oracle."""
    _check_same_carrier(mu, nu)
    pa, wa = _atom_arrays(mu)
    pb, wb = _atom_arrays(nu)
    if len(pa) + len(pb) > 12:
        raise TrapnetsError("combined support too large for brute force")
    if not pa and not pb:
        return 0.0
    if not pa:
        return float(wb.sum())
    if not pb:
        return float(wa.sum())
    cross = mu.carrier.distances(pa, pb)
    levels = np.unique(np.concatenate(([0.0], cross.ravel())))

    def worst_deficiency(eps: float) -> float:
        worst = 0.0
        for masses, other, dmat in ((wa, wb, cross), (wb, wa, cross.T)):
            n = len(masses)
            for bits in range(1, 1 << n):
                sel = [(bits >> i) & 1 for i in range(n)]
                mass = sum(m for m, s in zip(masses, sel) if s)
                near = (dmat[np.array(sel, dtype=bool)] <= eps).any(axis=0)
                worst = max(worst, mass - float(other[near].sum()))
        return worst

    best = math.inf
    for k, lev in enumerate(levels):
        d = worst_deficiency(lev)
        cand = max(float(lev), d)
        nxt = levels[k + 1] if k + 1 < len(levels) else math.inf
        if cand < nxt or k + 1 == len(levels):
            best = min(best, cand)
    return best


# ---------------------------------------------------------------------------
# Vague metric and friends
# ---------------------------------------------------------------------------

def _breakpoint_segments(root_distances: Iterable[float]):
    """Yield (included_max, weight) pairs for the exponential radius integral.

    Segment k covers radii (b_k, b_{k+1}] where the restriction keeps atoms
    with root distance <= b_k; the final segment has weight exp(-b_last).
    """
    bps = sorted({d for d in root_distances if d > 0})
    prev = 0.0
    for b in bps:
        yield prev, math.exp(-prev) - math.exp(-b)
        prev = b
    yield prev, math.exp(-prev)


def vague_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Integral of exp(-r) * min(1, Prohorov of the r-restrictions) dr, exactly.

    The integrand is piecewise constant in r with breakpoints at realized
    root distances, so the integral reduces to a finite sum.  Each term asks
    :func:`prohorov` only for min(1, P) through ``cap=1.0``, so at most one
    flow per term runs at a distance level of 1 or more.
    """
    _check_same_carrier(mu, nu)
    carrier = mu.carrier
    rds = {p: carrier.root_distance(p) for p in itertools.chain(mu.atoms, nu.atoms)}
    total = 0.0
    for included, weight in _breakpoint_segments(rds.values()):
        if weight == 0.0:
            continue
        mu_r = DiscreteMeasure(carrier, {p: w for p, w in mu.atoms.items() if rds[p] <= included})
        nu_r = DiscreteMeasure(carrier, {p: w for p, w in nu.atoms.items() if rds[p] <= included})
        total += weight * prohorov(mu_r, nu_r, cap=1.0)
    return total


def dis_measure_distance(nu1: DiscreteMeasure, nu2: DiscreteMeasure) -> float:
    """Vague distance joined with the vague distance of the point maps.

    The point maps live on the product of the carrier with the positive
    half-line carrying |log v - log w|, rooted at weight 1; colliding atoms
    keep this distance bounded away from zero even when the plain vague
    distance vanishes.
    """
    _check_same_carrier(nu1, nu2)
    base = vague_distance(nu1, nu2)
    product = ProductCarrier(nu1.carrier)
    lifted1 = DiscreteMeasure(product, {atom: 1.0 for atom in nu1.atoms.items()})
    lifted2 = DiscreteMeasure(product, {atom: 1.0 for atom in nu2.atoms.items()})
    return max(base, vague_distance(lifted1, lifted2))


# ---------------------------------------------------------------------------
# Hausdorff distances
# ---------------------------------------------------------------------------

def hausdorff(a_set: Sequence, b_set: Sequence, carrier) -> float:
    """Hausdorff distance; infinity when exactly one side is empty."""
    a = list(a_set)
    b = list(b_set)
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    d = carrier.distances(a, b)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def local_hausdorff(a_set: Sequence, b_set: Sequence, carrier) -> float:
    """Exponentially weighted integral of clamped restricted Hausdorff distances."""
    a = list(a_set)
    b = list(b_set)
    rds = {p: carrier.root_distance(p) for p in itertools.chain(a, b)}
    total = 0.0
    for included, weight in _breakpoint_segments(rds.values()):
        if weight == 0.0:
            continue
        a_r = [p for p in a if rds[p] <= included]
        b_r = [p for p in b if rds[p] <= included]
        total += weight * min(1.0, hausdorff(a_r, b_r, carrier))
    return total


# ---------------------------------------------------------------------------
# Correspondences, distortion, gluing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Correspondence:
    """Relation between the point sets of two finite metric spaces."""

    relation: frozenset

    @staticmethod
    def of(pairs: Iterable) -> "Correspondence":
        return Correspondence(frozenset(pairs))


def _check_covers(corr: Correspondence, space_a: FiniteMetricSpace, space_b: FiniteMetricSpace):
    left = {p for p, _ in corr.relation}
    right = {q for _, q in corr.relation}
    if left != set(space_a.point_ids) or right != set(space_b.point_ids):
        raise NotACorrespondence("relation must cover both point sets")
    for p, q in corr.relation:
        space_a.index(p), space_b.index(q)


def distortion(corr: Correspondence, space_a: FiniteMetricSpace, space_b: FiniteMetricSpace) -> float:
    """sup over related pairs of |d_A(u, u') - d_B(x, x')|.

    One max over the grid of related pairs (p, q) with p at or before q in
    sorted order, which is every unordered pair once.
    """
    _check_covers(corr, space_a, space_b)
    pairs = sorted(corr.relation)
    ia = np.array([space_a.index(u) for u, _ in pairs])
    ib = np.array([space_b.index(x) for _, x in pairs])
    p, q = np.triu_indices(len(ia))
    return float(np.abs(space_a.dist[ia[p], ia[q]] - space_b.dist[ib[p], ib[q]]).max(initial=0.0))


def glue(corr: Correspondence, space_a: FiniteMetricSpace, space_b: FiniteMetricSpace,
         slack: float) -> FiniteMetricSpace:
    """Disjoint-union metric space with cross distances through the relation.

    Cross distance: inf over related (u', x') of
    d_A(u, u') + dis(C)/2 + slack + d_B(x', x).  Any positive slack keeps the
    two copies at positive distance, and dis(C)/2 preserves the triangle
    inequality.  Points are tagged ("A", id) / ("B", id); root is the image
    of A's root.
    """
    if not slack > 0:
        raise TrapnetsError("slack must be positive")
    _check_covers(corr, space_a, space_b)
    half_dis = 0.5 * distortion(corr, space_a, space_b) + slack
    na, nb = len(space_a.point_ids), len(space_b.point_ids)
    cross = np.full((na, nb), math.inf)
    for u, x in corr.relation:
        iu, ix = space_a.index(u), space_b.index(x)
        cross = np.minimum(cross, space_a.dist[:, iu][:, None] + half_dis + space_b.dist[ix, :][None, :])
    dist = np.zeros((na + nb, na + nb))
    dist[:na, :na] = space_a.dist
    dist[na:, na:] = space_b.dist
    dist[:na, na:] = cross
    dist[na:, :na] = cross.T
    ids = tuple(("A", p) for p in space_a.point_ids) + tuple(("B", q) for q in space_b.point_ids)
    return FiniteMetricSpace(ids, dist, ("A", space_a.root))
