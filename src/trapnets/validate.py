"""Cross-module invariant suite backing the ``validate`` CLI command.

Each check runs a seeded randomized battery and returns (name, ok, detail).
The quick profile trims sizes so the whole suite stays interactive; the full
profile matches the documented invariant sizes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from . import dynamics, measures, networks, traps
from .ensembles import sierpinski
from .errors import NumericalFailure
from .experiments import default_scales
from .measures import DiscreteMeasure
from .networks import FiniteMetricSpace
from .rng import RngStream
from .traps import TrapLaw


def random_connected_network(n: int, rng: np.random.Generator,
                             dyadic: bool = False) -> networks.ElectricalNetwork:
    """Random tree plus extra edges; weights dyadic (k/16) when asked, so
    sums in cross-check oracles are exact in binary floating point."""
    def weight():
        if dyadic:
            return float(rng.integers(1, 33)) / 16.0
        return float(rng.uniform(0.2, 3.0))

    ids = list(range(n))
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v, weight()))
    existing = {frozenset((u, v)) for u, v, _ in edges}
    extra = int(rng.integers(0, max(n // 2, 1)))
    for _ in range(extra):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v and frozenset((u, v)) not in existing:
            existing.add(frozenset((u, v)))
            edges.append((u, v, weight()))
    return networks.build_network(ids, edges, root=0)


def random_measure_pair(space: FiniteMetricSpace, rng: np.random.Generator,
                        max_atoms: int = 6):
    """Two dyadic-weight measures on a shared carrier (for exact flow checks)."""
    pts = list(space.point_ids)
    def one():
        k = int(rng.integers(1, max_atoms + 1))
        chosen = rng.choice(len(pts), size=min(k, len(pts)), replace=False)
        return DiscreteMeasure(space, {pts[i]: float(rng.integers(1, 33)) / 16.0
                                       for i in chosen})
    return one(), one()


def _check_network_suite(seed: int, count: int, max_n: int):
    rng = RngStream(seed).child(1).generator()
    worst_tri = 0.0
    for _ in range(count):
        n = int(rng.integers(3, max_n + 1))
        net = random_connected_network(n, rng)
        r = net.resistance_matrix
        if not np.array_equal(r, r.T):
            return False, "resistance matrix not exactly symmetric"
        viol = np.max(r[:, :, None] - (r[:, None, :] + r[None, :, :]).transpose(1, 0, 2))
        worst_tri = max(worst_tri, float(viol))
        if viol > 1e-9:
            return False, f"triangle violation {viol:.2e}"
    return True, f"worst triangle residual {worst_tri:.2e}"


def _check_rayleigh(seed: int, count: int):
    rng = RngStream(seed).child(2).generator()
    for _ in range(count):
        n = int(rng.integers(3, 15))
        net = random_connected_network(n, rng)
        pairs = []
        for _ in range(2):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and frozenset((u, v)) not in {frozenset(p) for p in pairs}:
                pairs.append((u, v))
        if not pairs:
            continue
        bigger = networks.add_unit_edges(net, pairs)
        if np.max(bigger.resistance_matrix - net.resistance_matrix) > 1e-9:
            return False, "resistance increased after adding edges"
    return True, "monotone on all instances"


def _check_fusing(seed: int, count: int):
    rng = RngStream(seed).child(3).generator()
    for _ in range(count):
        n = int(rng.integers(4, 15))
        net = random_connected_network(n, rng)
        edges = net.edges()
        u, v, w = edges[int(rng.integers(0, len(edges)))]
        fused = networks.fuse(net, [[u, v]])
        cmap = fused.canonical_map
        qr = fused.network.resistance_matrix
        qidx = {p: i for i, p in enumerate(fused.network.vertex_ids)}
        r = net.resistance_matrix
        for i, x in enumerate(net.vertex_ids):
            for j, y in enumerate(net.vertex_ids):
                rq = qr[qidx[cmap[x]], qidx[cmap[y]]]
                if rq > r[i, j] + 1e-9:
                    return False, "fusing increased a distance"
                if r[i, j] > rq + 1.0 / w + 1e-9:
                    return False, "sandwich inequality violated"
    return True, "contraction and sandwich hold"


def _check_entropy_bound(seed: int, count: int):
    rng = RngStream(seed).child(4).generator()
    checked = 0
    for _ in range(count):
        n = int(rng.integers(3, 13))
        net = random_connected_network(n, rng)
        space = net.resistance_space
        x = net.vertex_ids[int(rng.integers(0, n))]
        r = float(rng.uniform(0.1, 1.0)) * float(net.resistance_matrix.max())
        res = networks.boundary_resistance(net, x, r)
        ent = networks.metric_entropy(space, r / 2.0)
        if not ent.exact:
            continue
        checked += 1
        bound = r / (4.0 * ent.count)
        if res < bound - 1e-9:
            return False, f"entropy bound violated: {res} < {bound}"
    return True, f"bound held on {checked} instances"


def _check_between_sets(seed: int, count: int):
    rng = RngStream(seed).child(5).generator()
    for _ in range(count):
        n = int(rng.integers(4, 12))
        net = random_connected_network(n, rng)
        ids = list(net.vertex_ids)
        rng.shuffle(ids)
        ka = int(rng.integers(1, 3))
        kb = int(rng.integers(1, 3))
        a, b = ids[:ka], ids[ka:ka + kb]
        direct = networks.resistance_between_sets(net, a, b)
        fused = networks.fuse(net, [a, b]) if (len(a) > 1 or len(b) > 1) else None
        if fused is None:
            other = networks.effective_resistance(net, a[0], b[0])
        else:
            other = networks.effective_resistance(
                fused.network, fused.canonical_map[a[0]], fused.canonical_map[b[0]])
        if abs(direct - other) > 1e-9:
            return False, f"set resistance mismatch {direct} vs {other}"
    return True, "Dirichlet solve agrees with fused network"


def _check_prohorov(seed: int, count: int):
    rng = RngStream(seed).child(6).generator()
    base = random_connected_network(8, rng, dyadic=True)
    space = base.resistance_space
    for _ in range(count):
        mu, nu = random_measure_pair(space, rng, max_atoms=5)
        flow = measures.prohorov(mu, nu)
        brute = measures.prohorov_bruteforce(mu, nu)
        if flow != brute:
            return False, f"flow {flow} != brute {brute}"
    return True, "flow equals brute force exactly"


def _check_prohorov_brackets(seed: int, count: int):
    """Flow-bound brackets hold the Edmonds-Karp deficiency at every level.

    The pairs carry Pareto(0.8) weights on a resistance space or on its
    product carrier.  Rounded up to sixteenths the weights stay heavy-tailed
    and every sum is exact, so there ``prohorov`` must equal the brute force.
    """
    rng = RngStream(seed).child(19).generator()
    space = random_connected_network(10, rng).resistance_space
    product = measures.ProductCarrier(space)
    pts = space.point_ids
    probes = decided = 0
    for trial in range(count):
        carrier = product if trial % 2 else space

        def one():
            chosen = rng.choice(len(pts), size=int(rng.integers(1, 7)), replace=False)
            return [((pts[i], float(rng.pareto(0.8)) + 1e-3) if carrier is product else pts[i],
                     float(rng.pareto(0.8)) + 1e-3) for i in chosen]

        rows_a, rows_b = one(), one()
        for grid in (None, 16.0):
            mu, nu = (DiscreteMeasure(carrier, {p: (math.ceil(w * grid) / grid if grid else w)
                                                for p, w in rows}) for rows in (rows_a, rows_b))
            pa, wa = measures._atom_arrays(mu)
            pb, wb = measures._atom_arrays(nu)
            cross = carrier.distances(pa, pb)
            levels = np.unique(np.concatenate(([0.0], cross.ravel())))
            tot = max(wa.sum(), wb.sum())
            margin = measures._bracket_margin(len(pa), len(pb), tot, levels[-1])
            for level in levels:
                allowed = cross <= level
                lower, upper = measures._flow_bounds(wa, wb, allowed)
                flowed = max(tot - measures._max_bipartite_flow(wa, wb, allowed), 0.0)
                if not tot - upper - margin <= flowed <= tot - lower + margin:
                    return False, (f"deficiency {flowed} outside [{tot - upper}, {tot - lower}] "
                                   f"+- {margin:.1e} at level {level}")
                probes += 1
                decided += bool(tot - lower <= level - margin or tot - upper > level + margin)
            if grid:
                flow, brute = measures.prohorov(mu, nu), measures.prohorov_bruteforce(mu, nu)
                if flow != brute:
                    return False, f"flow {flow} != brute {brute} on sixteenths"
    return True, f"brackets hold at {probes} levels and decide {decided} of them; flow equals brute"


def _check_collision(count: int = 20):
    pts = tuple(range(count + 1))
    coords = np.array([0.0] + [1.0 / k for k in range(1, count + 1)])
    dist = np.abs(coords[:, None] - coords[None, :])
    space = FiniteMetricSpace(pts, dist, 0)
    target = DiscreteMeasure(space, {0: 2.0})
    floor = math.inf
    last_vague = None
    for k in range(1, count + 1):
        nu = DiscreteMeasure(space, {0: 1.0, k: 1.0})
        last_vague = measures.vague_distance(nu, target)
        floor = min(floor, measures.dis_measure_distance(nu, target))
    ok = last_vague < 0.05 and floor > 0.2
    return ok, f"vague tail {last_vague:.3f}, dis floor {floor:.3f}"


def _check_glue(seed: int, count: int):
    rng = RngStream(seed).child(12).generator()
    for _ in range(count):
        na, nb = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        sa = random_connected_network(na, rng).resistance_space
        sb = random_connected_network(nb, rng).resistance_space
        pairs = {(p, sb.point_ids[int(rng.integers(0, nb))]) for p in sa.point_ids}
        pairs |= {(sa.point_ids[int(rng.integers(0, na))], q) for q in sb.point_ids}
        corr = measures.Correspondence.of(pairs)
        glued = measures.glue(corr, sa, sb, slack=float(rng.uniform(0.01, 0.5)))
        glued.validate(tol=1e-12)
    return True, "glued spaces satisfy metric axioms"


def _check_scaling_identity(seed: int, count: int):
    rng = RngStream(seed).child(13).generator()
    worst = 0.0
    for _ in range(count):
        alpha = float(rng.uniform(0.1, 0.9))
        law = TrapLaw(alpha)
        b = float(rng.uniform(1.0, 1e6))
        u = float(rng.uniform(0.05, 50.0))
        c = traps.scaling_constant(law, b)
        if c * u < law.u_min:
            continue
        resid = traps.scaling_identity_residual(law, b, u)
        worst = max(worst, abs(resid) / u ** (-alpha))
    if worst > 1e-13:
        return False, f"relative residual {worst:.2e}"
    return True, f"max relative residual {worst:.2e}"


def _check_kernel_suite(seed: int, count: int):
    rng = RngStream(seed).child(14).generator()
    stream = RngStream(seed).child(15)
    for i in range(count):
        n = int(rng.integers(2, 9))
        net = random_connected_network(n, rng)
        law = TrapLaw(0.5)
        env = traps.make_environment(net, law, 1.0, 2.0, stream.child(i))
        gen = env.generator
        t = float(rng.uniform(0.05, 5.0))
        k1 = dynamics.transition_kernel(gen, t)
        k2 = dynamics.transition_kernel(gen, t / 2.0)
        ck = np.max(np.abs(k2.matrix @ k2.matrix - k1.matrix))
        if ck > 1e-9:
            return False, f"Chapman-Kolmogorov residual {ck:.2e}"
        diag = np.diag(k1.density_matrix())
        if np.min(diag) <= 1e-300:
            return False, "diagonal density not positive"
        # On-diagonal a priori bound over root balls containing x.
        space = net.resistance_space
        row = net.resistance_matrix[net.index(net.root)]
        for r in np.quantile(row[row > 0], [0.5, 1.0]):
            inside = np.flatnonzero(networks.ball_mask(row, r, closed=True))
            nu_ball = gen.nu_values[inside].sum()
            bound = 2.0 * r / t + math.sqrt(2.0) / nu_ball
            if np.max(diag[inside]) > bound + 1e-9:
                return False, "on-diagonal upper bound violated"
    return True, "kernel invariants hold"


def green_operator_kernel(gen: dynamics.Generator, t: float):
    """(P_t, theta): the kernel at time t from a full eigendecomposition of the
    Green's operator M = P D^(1/2) G D^(1/2) P, with G the inverse of the
    Laplacian grounded at the heaviest trap (by numpy), and the ascending
    eigenvalues theta = 1/lambda of M.

    Slow eigenvalues of M keep their relative accuracy, where the dense
    generator's eigenvalues carry an absolute rounding of about eps |Q|.
    Modes with theta <= 0 are rounding of the null direction sqrt(nu) or of
    fast modes, and get weight 0.
    """
    net, nu = gen.net, gen.nu_values
    s = np.sqrt(nu)
    u = s / np.linalg.norm(s)
    proj = np.eye(len(nu)) - np.outer(u, u)
    keep = np.arange(len(nu)) != np.argmax(nu)
    green = np.zeros((len(nu), len(nu)))
    green[np.ix_(keep, keep)] = np.linalg.inv(net.laplacian[np.ix_(keep, keep)])
    m = proj @ (s[:, None] * green * s[None, :]) @ proj
    theta, vecs = np.linalg.eigh(0.5 * (m + m.T))
    positive = theta > 0
    weights = np.zeros_like(theta)
    weights[positive] = np.exp(-t / theta[positive])
    kernel = (vecs / s[:, None] * weights) @ (vecs * s[:, None]).T + gen.stationary
    return kernel, theta


def _check_truncated_kernels(seed: int):
    """Gasket level 5 at t = a*c, two Pareto(0.5) trap draws: the certified
    slow-mode kernels against a full eigendecomposition of the Green's
    operator (1e-9), with rows summing to 1 (1e-10)."""
    net = sierpinski(5).network
    law = TrapLaw(0.5)
    scale = default_scales("sierpinski", 5, law)
    stream = RngStream(seed).child(16)
    worst = 0.0
    for i in range(2):
        env = traps.make_environment(net, law, scale.a, scale.b, stream.child(i))
        gen = env.generator
        t = env.scale.a * env.scale.c
        slow = gen._slow_modes
        if slow is gen._green_modes or t < slow.t_min:
            return False, f"draw {i}: truncation not certified at t = a*c"
        kernel = gen.kernel_matrix(t)
        reference = green_operator_kernel(gen, t)[0]
        rows = np.max(np.abs(kernel.sum(axis=1) - 1.0))
        if rows > 1e-10:
            return False, f"draw {i}: truncated rows deviate from 1 by {rows:.2e}"
        gap = max(np.max(np.abs(kernel - reference)),
                  np.max(np.abs(gen.kernel_diagonal(t) - np.diag(reference))))
        worst = max(worst, gap)
        if gap > 1e-9:
            return False, f"draw {i}: truncated kernel differs from the reference by {gap:.2e}"
    return True, f"worst gap to the Green's operator kernel {worst:.2e}"


def _check_kernel_paths(seed: int):
    """Gasket level 3, one Pareto(0.2) trap draw (nu spans about 1e6 to 1e13),
    t on a log grid from 1e-6 a*c to 10 a*c: every kernel call raises
    :class:`NumericalFailure` or matches its reference.  Below the
    generator/Green's operator crossover the served kernels must equal
    expm(Q t) exactly; above it, they must match the full eigendecomposition
    of the Green's operator within twice the first-order model
    n eps |M|_F 4 e^(-2) / t that each of the two computations carries."""
    net = sierpinski(3).network
    law = TrapLaw(0.2)
    scale = default_scales("sierpinski", 3, law)
    env = traps.make_environment(net, law, scale.a, scale.b, RngStream(seed).child(17))
    gen = env.generator
    served = {"generator": 0, "Green's operator": 0, "refused": 0}
    worst = 0.0
    for t in env.scale.a * env.scale.c * np.logspace(-6, 1, 15):
        try:
            kernel, diag = gen.kernel_matrix(t), gen.kernel_diagonal(t)
        except NumericalFailure:
            served["refused"] += 1
            continue
        if gen._takes_generator(t):
            side, reference, bound = "generator", scipy.linalg.expm(gen.matrix * t), 0.0
        else:
            side, reference = "Green's operator", green_operator_kernel(gen, t)[0]
            bound = 1e-12 + 2.0 * gen._floor() * 4.0 * math.exp(-2.0) / t
        served[side] += 1
        gap = max(np.max(np.abs(kernel - reference)),
                  np.max(np.abs(diag - np.diag(reference))))
        if gap > bound:
            return False, (f"{side} kernel at t = {t:.3e} differs from its reference "
                           f"by {gap:.2e} > {bound:.2e}")
        if bound > 0:
            worst = max(worst, gap / bound)
    counts = ", ".join(f"{k} {v}" for k, v in served.items())
    return True, f"{counts}; worst Green's operator gap {worst:.2f} of its bound"


def _check_jump_chain(seed: int):
    """Gasket level 2, one Pareto(0.5) trap draw: ``simulate_marginal`` at
    t = a*c / 10 against ``kernel_row``, each frequency within 5 sigma + 1/n
    of its kernel value, and ``exit_time_bound_check`` from the root (radius
    the 60% quantile of its resistances, delta a tenth of the boundary
    resistance, horizon a*c / 100) with its 99% upper limit within the
    bound, both over 20,000 paths."""
    n_paths = 20_000
    net = sierpinski(2).network
    law = TrapLaw(0.5)
    scale = default_scales("sierpinski", 2, law)
    stream = RngStream(seed).child(18)
    env = traps.make_environment(net, law, scale.a, scale.b, stream.child(0))
    gen, root, unit = env.generator, net.root, env.scale.a * env.scale.c
    t = 0.1 * unit
    freq = dynamics.simulate_marginal(gen, root, t, stream.child(1), n_paths)
    exact = gen.kernel_row(root, t)
    sigma = np.sqrt(exact * (1.0 - exact) / n_paths)
    z = np.abs(freq - exact) / (5.0 * sigma + 1.0 / n_paths)
    worst = int(np.argmax(z))
    if z[worst] > 1.0:
        return False, (f"state {net.vertex_ids[worst]!r} at t = {t:.3e}: frequency "
                       f"{freq[worst]:.5f} against kernel {exact[worst]:.5f}")
    row = net.resistance_matrix[net.index(root)]
    radius = float(np.quantile(row[row > 0], 0.6))
    delta = 0.1 * networks.boundary_resistance(net, root, radius)
    res = dynamics.exit_time_bound_check(env, root, radius, delta, 0.01 * unit,
                                         stream.child(2), n_paths)
    if not res.holds:
        return False, f"exit probability upper limit {res.ci_high:.4f} > bound {res.bound:.4f}"
    return True, (f"worst marginal gap {z[worst]:.2f} of 5 sigma + 1/n; exit upper limit "
                  f"{res.ci_high:.4f} <= bound {res.bound:.4f}")


def _check_gasket(max_level: int):
    prev = None
    for n in range(0, max_level + 1):
        g = sierpinski(n)
        expected = (3 ** (n + 1) + 3) // 2
        if g.network.n_vertices != expected:
            return False, f"level {n} has {g.network.n_vertices} vertices"
        degrees = [g.network.total_conductance(v) for v in g.network.vertex_ids]
        corners = set(g.corners)
        for v, d in zip(g.network.vertex_ids, degrees):
            if v not in corners and d != 4.0:
                return False, "interior degree differs from 4"
        if n <= 4:
            r = networks.effective_resistance(g.network, g.corners[0], g.corners[1])
            if prev is not None and abs(r / prev - 5.0 / 3.0) > 1e-9:
                return False, f"resistance ratio off at level {n}"
            prev = r
    return True, "counts, degrees, and decimation ratio verified"


def run_suite(seed: int = 0, quick: bool = True):
    """Run all invariant checks; returns list of (name, ok, detail)."""
    count = 25 if quick else 100
    checks = [
        ("network.metric_axioms", lambda: _check_network_suite(seed, count, 30 if not quick else 15)),
        ("network.rayleigh_monotonicity", lambda: _check_rayleigh(seed, count)),
        ("network.fusing_sandwich", lambda: _check_fusing(seed, count)),
        ("network.entropy_lower_bound", lambda: _check_entropy_bound(seed, count)),
        ("network.between_sets_cross_check", lambda: _check_between_sets(seed, count)),
        ("measures.prohorov_flow_vs_brute", lambda: _check_prohorov(seed, count if quick else 200)),
        ("measures.prohorov_brackets", lambda: _check_prohorov_brackets(seed, count)),
        ("measures.atom_collision_detection", lambda: _check_collision(100)),
        ("measures.glue_metric_axioms", lambda: _check_glue(seed, count)),
        ("traps.scaling_identity", lambda: _check_scaling_identity(seed, count if quick else 100)),
        ("dynamics.kernel_invariants", lambda: _check_kernel_suite(seed, 10 if quick else 40)),
        ("dynamics.truncated_kernels", lambda: _check_truncated_kernels(seed)),
        ("dynamics.kernel_paths", lambda: _check_kernel_paths(seed)),
        ("dynamics.jump_chain", lambda: _check_jump_chain(seed)),
        ("ensembles.gasket_closed_forms", lambda: _check_gasket(4 if quick else 8)),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # pragma: no cover
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
