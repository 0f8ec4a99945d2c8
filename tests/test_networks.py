import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import trapnets
from trapnets import (
    add_unit_edges,
    boundary_resistance,
    build_network,
    effective_resistance,
    fuse,
    metric_entropy,
    resistance_between_sets,
    sierpinski,
)
from trapnets.ensembles import as_plane_tree, er_largest_component, uniform_cayley_tree
from trapnets.errors import (
    DisconnectedGraph,
    EmptyClass,
    EmptySet,
    NonpositiveConductance,
    NumericalFailure,
    OverlappingClasses,
    PairNotDistinct,
    SelfLoop,
    UnknownVertex,
)
from trapnets.networks import LARGE_FROM, ball_mask
from trapnets.rng import RngStream
from trapnets.validate import random_connected_network


def series(*rs):
    return sum(rs)


def parallel(*rs):
    return 1.0 / sum(1.0 / r for r in rs)


class TestBuildNetwork:
    def test_valid_path(self, unit_path3):
        assert unit_path3.n_vertices == 3
        assert unit_path3.conductance(1, 2) == 1.0
        assert unit_path3.conductance(2, 1) == 1.0  # symmetric closure

    def test_zero_weight_rejected(self):
        with pytest.raises(NonpositiveConductance):
            build_network([1, 2], [(1, 2, 0.0)], root=1)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_nonfinite_weight_rejected(self, weight):
        with pytest.raises(NonpositiveConductance, match=f"weight {weight}"):
            build_network([1, 2], [(1, 2, weight)], root=1)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_network([1, 2, 3], [(1, 2, 1.0)], root=1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_network([1, 2], [(1, 1, 1.0), (1, 2, 1.0)], root=1)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            build_network([1, 2], [(1, 5, 1.0)], root=1)
        with pytest.raises(UnknownVertex):
            build_network([1, 2], [(1, 2, 1.0)], root=9)

    def test_singleton_allowed(self):
        net = build_network([7], [], root=7)
        assert net.total_conductance(7) == 0.0
        assert net.resistance_matrix.tolist() == [[0.0]]


class TestEffectiveResistance:
    def test_series_path(self, unit_path3):
        assert effective_resistance(unit_path3, 1, 3) == pytest.approx(2.0, abs=1e-12)

    def test_triangle_series_parallel(self, unit_triangle):
        # Oracle: edge in parallel with the two-edge detour.
        expected = parallel(1.0, series(1.0, 1.0))
        for x, y in itertools.combinations([1, 2, 3], 2):
            assert effective_resistance(unit_triangle, x, y) == pytest.approx(expected, abs=1e-12)

    def test_single_edge(self):
        net = build_network([0, 1], [(0, 1, 4.0)], root=0)
        assert effective_resistance(net, 0, 1) == pytest.approx(0.25, abs=1e-14)

    def test_same_vertex(self, unit_path3):
        assert effective_resistance(unit_path3, 2, 2) == 0.0

    def test_matrix_agrees_with_pointwise(self):
        # Reference: the independent Dirichlet solve between singletons.
        rng = RngStream(11).generator()
        net = random_connected_network(12, rng)
        r = net.resistance_matrix
        for x, y in [(0, 5), (3, 11), (7, 2)]:
            assert r[net.index(x), net.index(y)] == pytest.approx(
                resistance_between_sets(net, [x], [y]), abs=1e-10)


class TestResistanceOracles:
    def test_all_pairs_against_networkx(self):
        import networkx as nx

        rng = RngStream(12).generator()
        for _ in range(10):
            net = random_connected_network(int(rng.integers(2, 16)), rng)
            g = nx.Graph()
            g.add_nodes_from(net.vertex_ids)
            g.add_weighted_edges_from(net.edges())
            for x, y in itertools.combinations(net.vertex_ids, 2):
                expected = nx.resistance_distance(g, x, y, weight="weight", invert_weight=False)
                assert effective_resistance(net, x, y) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("level", [2, 3])
    def test_gasket_against_mpmath(self, level):
        # R(x, y) = g_xx + g_yy - 2 g_xy from the root-grounded inverse at 30 digits.
        import mpmath as mp

        net = sierpinski(level).network
        n, ir = net.n_vertices, net.index(net.root)
        keep = [i for i in range(n) if i != ir]
        with mp.workdps(30):
            inv = mp.inverse(mp.matrix([[net.laplacian[i, j] for j in keep] for i in keep]))
            g = mp.zeros(n, n)
            for a, i in enumerate(keep):
                for b, j in enumerate(keep):
                    g[i, j] = inv[a, b]
            for i, j in itertools.combinations(range(n), 2):
                expected = float(g[i, i] + g[j, j] - 2 * g[i, j])
                assert net.resistance_matrix[i, j] == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def spread_path(n, weak):
        """Path 0-1-...-(n-1) rooted at 0, edge (0, 1) of conductance ``weak``
        and the others 1; 3 vertices take the dense factorization, 130 the
        sparse one."""
        edges = [(0, 1, weak)] + [(i, i + 1, 1.0) for i in range(1, n - 1)]
        return build_network(range(n), edges, root=0)

    @pytest.mark.parametrize("n", [3, 130])
    def test_spread_conductances(self, n):
        # Exact R(0, 1) is 1e9; the smallest nonzero Laplacian eigenvalue is
        # about 1e-9 of the largest, below any fixed relative eigen-threshold.
        net = self.spread_path(n, 1e-9)
        assert net.resistance_matrix[0, 1] == pytest.approx(
            resistance_between_sets(net, [0], [1]), rel=1e-6)

    @pytest.mark.parametrize("n", [3, 130])
    def test_spread_beyond_double_precision_raises(self, n):
        net = self.spread_path(n, 1e-17)
        with pytest.raises(NumericalFailure):
            net.resistance_matrix

    def test_tree_green_is_lowest_common_ancestor_depth(self):
        # On a unit-conductance tree grounded at its root, G(x, y) is the
        # resistance from the root to where the paths to x and y part: the
        # depth of their lowest common ancestor.
        m = 240
        tree = as_plane_tree(uniform_cayley_tree(m, RngStream(31)), m)
        net = tree.network()
        assert net.n_vertices >= LARGE_FROM
        # above[i, j]: the j-th visited vertex is a non-root ancestor of, or
        # equal to, the i-th; common ones count the depth of the LCA.
        above = np.zeros((m, m))
        for i in range(1, m):
            above[i] = above[tree.parent[i]]
            above[i, i] = 1.0
        order = [net.index(label) for label in tree.labels]
        g = net.green_matrix[np.ix_(order, order)]
        lca_depth = above @ above.T
        np.testing.assert_allclose(g, lca_depth, rtol=0, atol=1e-12 * lca_depth.max())

    @staticmethod
    def dense_green(net):
        n, root = net.n_vertices, net.index(net.root)
        keep = np.arange(n) != root
        g = np.zeros((n, n))
        factor = scipy.linalg.cho_factor(net.laplacian[np.ix_(keep, keep)])
        g[np.ix_(keep, keep)] = scipy.linalg.cho_solve(factor, np.eye(n - 1))
        return g

    def test_large_green_matches_dense_cholesky(self):
        # The sparse LU path against the dense Cholesky it replaces from
        # LARGE_FROM vertices on.  Both are backward stable; the worst gap
        # seen over gasket level 5 and 40 critical ER components of 128 or
        # more vertices was 2.5e-13 max|G|, so the bound is 1e-12 max|G|.
        stream = RngStream(41)
        er = next(net for net in (er_largest_component(4000, 0.0, stream.child(k))
                                  for k in range(100))
                  if net.n_vertices >= LARGE_FROM and len(net.edges()) > net.n_vertices)
        for net in (er, sierpinski(5).network):
            g, ref = net.green_matrix, self.dense_green(net)
            root = net.index(net.root)
            assert not g[root].any() and not g[:, root].any()
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


_GREEN_DIGEST = """
import hashlib
from trapnets import sierpinski
from trapnets.ensembles import er_largest_component
from trapnets.networks import LARGE_FROM
from trapnets.rng import RngStream

nets = [sierpinski(5).network]
stream = RngStream(43)
k = 0
while len(nets) < 11:
    net = er_largest_component(4000, 0.0, stream.child(k))
    k += 1
    if net.n_vertices >= LARGE_FROM:
        nets.append(net)
print(hashlib.sha256(b"".join(net.green_matrix.tobytes() for net in nets)).hexdigest())
"""


def test_large_green_bits_do_not_depend_on_blas_threads():
    # The sparse factorization makes no threaded BLAS call, so the grounded
    # inverse of gasket level 5 and of ten critical ER components of
    # LARGE_FROM or more vertices has the same bytes at one and two threads.
    src = str(Path(trapnets.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _GREEN_DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1


class TestResistanceBetweenSets:
    def test_singletons_match_pointwise(self, unit_triangle):
        assert resistance_between_sets(unit_triangle, [1], [3]) == pytest.approx(
            effective_resistance(unit_triangle, 1, 3), abs=1e-12)

    def test_path5_fused_series_oracle(self):
        net = build_network(range(1, 6), [(i, i + 1, 1.0) for i in range(1, 5)], root=1)
        # Fusing {4, 5} leaves three unit edges in series between 1 and the class.
        assert resistance_between_sets(net, [1], [4, 5]) == pytest.approx(3.0, abs=1e-12)

    def test_overlap_is_zero(self, unit_path3):
        assert resistance_between_sets(unit_path3, [1, 2], [2, 3]) == 0.0

    def test_empty_rejected(self, unit_path3):
        with pytest.raises(EmptySet):
            resistance_between_sets(unit_path3, [], [1])


class TestBoundaryResistance:
    def test_ball_covers_everything(self, unit_path3):
        assert boundary_resistance(unit_path3, 2, 1.5) == math.inf

    def test_infinite_radius_covers_everything(self, unit_path3):
        assert boundary_resistance(unit_path3, 1, math.inf) == math.inf
        row = np.array([0.0, 1.0, 1e300])
        for closed in (False, True):
            assert ball_mask(row, math.inf, closed=closed).all()

    def test_path_root_ball(self, unit_path3):
        # B(1, 1) = {1}; oracle: direct grounded solve for R({1}, {2, 3}).
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        f = np.array([1.0, 0.0, 0.0])
        oracle = 1.0 / float(f @ lap @ f)
        assert boundary_resistance(unit_path3, 1, 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_entropy_lower_bound(self, unit_path3):
        r = 1.0
        ent = metric_entropy(unit_path3.resistance_space, r / 2)
        assert ent.exact
        assert boundary_resistance(unit_path3, 1, r) >= r / (4 * ent.count) - 1e-12


def brute_force_cover(space, delta):
    n = len(space.point_ids)
    covers = space.dist <= delta + 1e-12 * max(1.0, delta)
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if covers[list(combo)].any(axis=0).all():
                return k
    raise AssertionError("no cover found")


class TestMetricEntropy:
    def test_single_point(self):
        from trapnets.networks import FiniteMetricSpace

        space = FiniteMetricSpace((0,), np.zeros((1, 1)), 0)
        res = metric_entropy(space, 0.5)
        assert res.count == 1 and res.exact

    def test_two_points(self):
        from trapnets.networks import FiniteMetricSpace

        space = FiniteMetricSpace((0, 1), np.array([[0.0, 3.0], [3.0, 0.0]]), 0)
        res = metric_entropy(space, 1.0)
        assert res.count == 2 and res.exact

    def test_delta_at_a_rounded_distance_covers(self):
        # 0.1 + 0.2 rounds above 0.3; the snapped closed ball still reaches it.
        from trapnets.networks import FiniteMetricSpace

        d = 0.1 + 0.2
        space = FiniteMetricSpace((0, 1), np.array([[0.0, d], [d, 0.0]]), 0)
        assert metric_entropy(space, 0.3).count == 1

    def test_path_matches_exhaustive_oracle(self, unit_path3):
        space = unit_path3.resistance_space
        for delta in (0.4, 1.0, 2.0):
            assert metric_entropy(space, delta).count == brute_force_cover(space, delta)

    def test_greedy_flag_beyond_limit(self):
        rng = RngStream(3).generator()
        net = random_connected_network(25, rng)
        res = metric_entropy(net.resistance_space, 0.3)
        assert not res.exact
        assert res.count >= 1


class TestFuse:
    def test_path_fused_endpoints(self, unit_path3):
        fused = fuse(unit_path3, [[1, 3]])
        net = fused.network
        assert net.n_vertices == 2
        assert net.conductance(1, 2) == 2.0
        assert effective_resistance(net, 1, 2) == pytest.approx(parallel(1.0, 1.0), abs=1e-12)
        assert fused.canonical_map == {1: 1, 2: 2, 3: 1}

    def test_fuse_singletons_identity(self, unit_triangle):
        fused = fuse(unit_triangle, [[1], [2]])
        assert fused.network.vertex_ids == unit_triangle.vertex_ids
        assert sorted(fused.network.edges()) == sorted(unit_triangle.edges())

    def test_triangle_sandwich(self, unit_triangle):
        fused = fuse(unit_triangle, [[1, 2]])
        r_g = effective_resistance(unit_triangle, 1, 2)
        r_f = effective_resistance(fused.network, fused.canonical_map[1], fused.canonical_map[2])
        assert r_f <= r_g + 1e-12
        assert r_g <= r_f + 1.0 / unit_triangle.conductance(1, 2) + 1e-12

    def test_errors(self, unit_path3):
        with pytest.raises(OverlappingClasses):
            fuse(unit_path3, [[1, 2], [2, 3]])
        with pytest.raises(EmptyClass):
            fuse(unit_path3, [[]])


class TestAddUnitEdges:
    def test_close_the_path(self, unit_path3):
        closed = add_unit_edges(unit_path3, [(1, 3)])
        # Oracle: direct dense solve on the triangle Laplacian.
        lap = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        rhs = np.array([1.0, 0.0])
        v = np.linalg.solve(lap[:2, :2], rhs)  # ground vertex 3
        assert effective_resistance(closed, 1, 3) == pytest.approx(float(v[0]), abs=1e-12)
        assert effective_resistance(unit_path3, 1, 3) == pytest.approx(2.0, abs=1e-12)

    def test_empty_list_identity(self, unit_path3):
        same = add_unit_edges(unit_path3, [])
        assert sorted(same.edges()) == sorted(unit_path3.edges())

    def test_parallel_edge_becomes_two(self, unit_path3):
        doubled = add_unit_edges(unit_path3, [(1, 2)])
        assert doubled.conductance(1, 2) == 2.0

    def test_errors(self, unit_path3):
        with pytest.raises(PairNotDistinct):
            add_unit_edges(unit_path3, [(1, 1)])
        with pytest.raises(PairNotDistinct):
            add_unit_edges(unit_path3, [(1, 2), (2, 1)])
        with pytest.raises(UnknownVertex):
            add_unit_edges(unit_path3, [(1, 9)])


class TestRandomSuite:
    def test_one_total_conductance(self):
        # mu(x) per vertex, the mu vector and the Laplacian diagonal round the
        # same way; the Laplacian equals the edge-by-edge reference build.
        rng = RngStream(23).generator()
        for _ in range(40):
            net = random_connected_network(int(rng.integers(2, 31)), rng)
            mu = net.total_conductance_vector
            assert all(net.total_conductance(v) == m for v, m in zip(net.vertex_ids, mu))
            assert np.array_equal(np.diag(net.laplacian), mu)
            ref = np.zeros((net.n_vertices, net.n_vertices))
            for u, v, w in net.edges():
                iu, iv = net.index(u), net.index(v)
                ref[iu, iv] -= w
                ref[iv, iu] -= w
                ref[iu, iu] += w
                ref[iv, iv] += w
            assert np.array_equal(net.laplacian, ref)

    def test_metric_axioms(self):
        rng = RngStream(21).generator()
        for _ in range(30):
            net = random_connected_network(int(rng.integers(3, 31)), rng)
            r = net.resistance_matrix
            assert np.array_equal(r, r.T)
            assert np.all(np.diag(r) == 0)
            viol = r[:, :, None] - (r[:, None, :] + r[None, :, :]).transpose(1, 0, 2)
            assert viol.max() <= 1e-9

    def test_rayleigh_monotonicity(self):
        rng = RngStream(22).generator()
        for _ in range(30):
            net = random_connected_network(int(rng.integers(3, 16)), rng)
            u, v = rng.choice(net.n_vertices, size=2, replace=False)
            bigger = add_unit_edges(net, [(int(u), int(v))])
            assert np.max(bigger.resistance_matrix - net.resistance_matrix) <= 1e-9


class TestFiniteMetricSpaceValidate:
    def test_detects_triangle_violation(self):
        from trapnets.networks import FiniteMetricSpace
        from trapnets.errors import TrapnetsError

        bad = FiniteMetricSpace((0, 1, 2),
                                np.array([[0.0, 1.0, 3.0],
                                          [1.0, 0.0, 1.0],
                                          [3.0, 1.0, 0.0]]), 0)
        with pytest.raises(TrapnetsError):
            bad.validate()

    def test_detects_asymmetry_and_bad_diagonal(self):
        from trapnets.networks import FiniteMetricSpace
        from trapnets.errors import TrapnetsError

        asym = FiniteMetricSpace((0, 1), np.array([[0.0, 1.0], [2.0, 0.0]]), 0)
        with pytest.raises(TrapnetsError):
            asym.validate()
        degen = FiniteMetricSpace((0, 1), np.zeros((2, 2)), 0)
        with pytest.raises(TrapnetsError):
            degen.validate()

    def test_accepts_valid_space(self, unit_path3):
        unit_path3.resistance_space.validate(tol=1e-9)
