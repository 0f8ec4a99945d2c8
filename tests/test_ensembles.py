import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from trapnets import (
    as_plane_tree,
    build_network,
    coding_functions,
    conductance_path,
    effective_resistance,
    er_largest_component,
    sierpinski,
    surplus_attachment,
    tilted_tree,
    uniform_cayley_tree,
)
from trapnets.ensembles import UniformConductanceLaw, prufer_decode
from trapnets.errors import InvalidBounds, InvalidWindow, LevelTooLarge, TooLargeForEnumeration
from trapnets.rng import RngStream


class TestSierpinski:
    @pytest.mark.parametrize("n,count", [(0, 3), (1, 6), (2, 15), (3, 42)])
    def test_vertex_counts(self, n, count):
        g = sierpinski(n)
        assert g.network.n_vertices == count
        assert g.network.n_vertices == (3 ** (n + 1) + 3) // 2

    def test_interior_degrees(self):
        g = sierpinski(3)
        corners = set(g.corners)
        for v in g.network.vertex_ids:
            expected = 2.0 if v in corners else 4.0
            assert g.network.total_conductance(v) == expected

    def test_root_is_origin_corner(self):
        g = sierpinski(2)
        assert g.network.root == g.corners[0]
        assert g.coords[g.network.root] == (0.0, 0.0)

    def test_corner_resistance_level2(self):
        g = sierpinski(2)
        expected = (2.0 / 3.0) * (5.0 / 3.0) ** 2
        r = effective_resistance(g.network, g.corners[0], g.corners[1])
        assert r == pytest.approx(expected, abs=1e-9)

    def test_decimation_ratio(self):
        prev = None
        for n in range(4):
            g = sierpinski(n)
            r = effective_resistance(g.network, g.corners[0], g.corners[2])
            if prev is not None:
                assert r / prev == pytest.approx(5.0 / 3.0, abs=1e-9)
            prev = r

    def test_level_too_large(self):
        # The message states the range and the value, below it as above it.
        for n in (10, -1):
            with pytest.raises(LevelTooLarge, match=f"from 0 to 9, got {n}"):
                sierpinski(n)

    def test_nesting_of_coordinates(self):
        c2 = set(sierpinski(2).coords.values())
        c3 = set(sierpinski(3).coords.values())
        assert c2 <= c3


class TestConductancePath:
    def test_constant_law_gives_unit_path(self):
        law = UniformConductanceLaw(2.0, 2.0)
        g = conductance_path(4, law, RngStream(1))
        for i in range(-4, 4):
            assert g.network.conductance(i, i + 1) == pytest.approx(1.0)

    def test_series_resistance(self):
        law = UniformConductanceLaw(0.5, 2.0)
        g = conductance_path(6, law, RngStream(2))
        total = sum(1.0 / g.network.conductance(i, i + 1) for i in range(-6, 6))
        assert effective_resistance(g.network, -6, 6) == pytest.approx(total, rel=1e-10)

    def test_normalized_inverse_mean(self):
        law = UniformConductanceLaw(0.5, 2.0)
        rng = RngStream(3).generator()
        draws = law.sample(rng, 200_000)
        inv = 1.0 / draws
        assert abs(inv.mean() - 1.0) <= 3 * inv.std() / math.sqrt(len(inv))

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            UniformConductanceLaw(0.0, 1.0)


def edge_set(edges):
    return frozenset(frozenset(e) for e in edges)


class TestCayleyTrees:
    def test_m2_unique_edge(self):
        assert uniform_cayley_tree(2, RngStream(4)) == [(1, 2)]

    def test_prufer_bijection_m4(self):
        seen = set()
        for seq in itertools.product(range(1, 5), repeat=2):
            seen.add(edge_set(prufer_decode(list(seq), 4)))
        assert len(seen) == 16  # 4^2 distinct labeled trees

    def test_m3_uniform_frequencies(self):
        counts = Counter()
        stream = RngStream(5)
        n = 30_000
        for k in range(n):
            counts[edge_set(uniform_cayley_tree(3, stream.child(k)))] += 1
        assert len(counts) == 3
        chi = sum((c - n / 3) ** 2 / (n / 3) for c in counts.values())
        assert stats.chi2.sf(chi, 2) > 0.01

    def test_degree_fractions_poisson(self):
        # Degrees of a uniform labeled tree follow 1 + Poisson(1) in the limit.
        m, trees = 2000, 40
        stream = RngStream(6)
        degree_counts = Counter()
        total = 0
        for k in range(trees):
            edges = uniform_cayley_tree(m, stream.child(k))
            deg = Counter()
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            degree_counts.update(deg.values())
            total += m
        for k in range(1, 6):
            p = math.exp(-1.0) / math.factorial(k - 1)
            sigma = math.sqrt(p * (1 - p) / total)
            assert abs(degree_counts[k] / total - p) <= 3.5 * sigma


class TestCodingFunctions:
    def test_root_with_two_leaves(self):
        tree = as_plane_tree([(1, 2), (1, 3)], 3)
        cd = coding_functions(tree)
        assert list(cd.walk) == [0, 1, 0, -1]
        assert cd.area == 1
        assert list(cd.height) == [0, 1, 1]

    def test_path_tree(self):
        tree = as_plane_tree([(1, 2), (2, 3)], 3)
        cd = coding_functions(tree)
        assert list(cd.walk) == [0, 0, 0, -1]
        assert cd.area == 0
        assert list(cd.height) == [0, 1, 2]

    def test_leaf_count(self):
        stream = RngStream(7)
        for k in range(10):
            m = 12
            tree = as_plane_tree(uniform_cayley_tree(m, stream.child(k)), m)
            cd = coding_functions(tree)
            leaves = sum(1 for d in tree.outdegrees() if d == 0)
            assert cd.outdegree_counts[0][m - 1] == leaves

    def test_lukasiewicz_property(self):
        stream = RngStream(8)
        for k in range(50):
            m = int(stream.child(k, 0).generator().integers(1, 40))
            tree = as_plane_tree(uniform_cayley_tree(m, stream.child(k, 1)), m)
            walk = coding_functions(tree).walk
            assert walk[m] == -1
            assert np.all(walk[:m] >= 0)

    def test_area_integral_identity(self):
        # a(T) equals m * integral_0^1 X(m t) dt for the step walk.
        stream = RngStream(9)
        for k in range(20):
            m = int(stream.child(k, 0).generator().integers(2, 25))
            tree = as_plane_tree(uniform_cayley_tree(m, stream.child(k, 1)), m)
            cd = coding_functions(tree)
            # exact integral of the step function X(floor(u)) over [0, m]
            integral = float(cd.walk[:m].sum())
            assert cd.area == integral == float(cd.walk[1:m].sum())


def tilted_law(m, p):
    """Exact tilted probabilities (1 - p)^(-a(T)) / Z of the labeled trees on
    [m], keyed by edge set, with a(T) from the coding functions."""
    trees = [prufer_decode(code, m) for code in itertools.product(range(1, m + 1), repeat=m - 2)]
    weights = [(1.0 - p) ** (-coding_functions(as_plane_tree(edges, m)).area) for edges in trees]
    z = sum(weights)
    return {edge_set(t): w / z for t, w in zip(trees, weights)}


def tilted_counts(m, p, stream, n):
    """Edge sets of n tilted trees on [m], drawn from stream.child(k)."""
    counts = Counter()
    for k in range(n):
        tree = tilted_tree(m, p, stream.child(k))
        counts[edge_set((tree.labels[tree.parent[i]], tree.labels[i]) for i in range(1, m))] += 1
    return counts


class TestTiltedTree:
    def test_m3_enumerated_probabilities(self):
        p = 0.4
        law = tilted_law(3, p)
        star = edge_set([(1, 2), (1, 3)])
        assert law[star] == pytest.approx((1 - p) ** -1 / (2 + (1 - p) ** -1))
        n = 20_000
        counts = tilted_counts(3, p, RngStream(10), n)
        chi = sum((counts[t] - n * q) ** 2 / (n * q) for t, q in law.items())
        assert stats.chi2.sf(chi, 2) > 0.01

    def test_p_to_zero_recovers_uniform(self):
        """Chi-square against the uniform law at the 0.01 level: false-failure
        rate about 1%; 1 failure at 200 seeds (1011-1210, seed 1193)."""
        n = 15_000
        counts = tilted_counts(3, 1e-9, RngStream(11), n)
        chi = sum((c - n / 3) ** 2 / (n / 3) for c in counts.values())
        assert stats.chi2.sf(chi, 2) > 0.01

    def test_m4_enumerated_probabilities(self):
        """All 16 labeled trees on [4] against their exact tilted weights,
        chi-square at the 0.01 level: false-failure rate about 1%; 1 failure
        at 200 seeds (1012-1211, seed 1067)."""
        p = 0.3
        law = tilted_law(4, p)
        assert len(law) == 16
        n = 20_000
        counts = tilted_counts(4, p, RngStream(12), n)
        assert set(counts) <= set(law)
        chi = sum((counts[t] - n * q) ** 2 / (n * q) for t, q in law.items())
        assert stats.chi2.sf(chi, len(law) - 1) > 0.01

    def test_enumeration_limit(self):
        with pytest.raises(TooLargeForEnumeration):
            tilted_tree(9, 0.5, RngStream(13))


class TestSurplusAttachment:
    def test_zero_area_tree_unchanged(self):
        tree = as_plane_tree([(1, 2), (2, 3)], 3)  # a(T) = 0: nothing under the walk
        net = surplus_attachment(tree, 0.99, RngStream(14))
        assert edge_set((u, v) for u, v, _ in net.edges()) == edge_set([(1, 2), (2, 3)])

    def test_star_becomes_triangle_when_marked(self):
        tree = as_plane_tree([(1, 2), (1, 3)], 3)  # a(T) = 1: one lattice point
        # With p close to 1 the point is almost surely present.
        for k in range(50):
            net = surplus_attachment(tree, 0.999, RngStream(15).child(k))
            if len(net.edges()) == 3:
                assert edge_set((u, v) for u, v, _ in net.edges()) == \
                    edge_set([(1, 2), (1, 3), (2, 3)])
                break
        else:
            raise AssertionError("marker never sampled at p = 0.999")

    def test_marker_count_binomial(self):
        # Number of surplus markers is Binomial(a(T), p).
        tree = as_plane_tree([(1, 2), (1, 3), (1, 4)], 4)  # star: a(T) = 3
        a = coding_functions(tree).area
        p = 0.37
        stream = RngStream(16)
        n = 8000
        extra = []
        for k in range(n):
            net = surplus_attachment(tree, p, stream.child(k))
            extra.append(sum(w for _, _, w in net.edges()) - 3)
        mean = np.mean(extra)
        sigma = math.sqrt(a * p * (1 - p) / n)
        assert abs(mean - a * p) <= 3 * sigma


def conditioned_er_law_m3(p):
    """Exact law of G(3, p) conditioned on connectivity over the 4 graphs."""
    trees = [[(1, 2), (2, 3)], [(1, 2), (1, 3)], [(1, 3), (2, 3)]]
    z = 3 * p ** 2 * (1 - p) + p ** 3
    law = {edge_set(t): p ** 2 * (1 - p) / z for t in trees}
    law[edge_set([(1, 2), (1, 3), (2, 3)])] = p ** 3 / z
    return law


class TestTiltedSurplusPipeline:
    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_m3_matches_conditioned_er(self, p):
        law = conditioned_er_law_m3(p)
        counts = Counter()
        stream = RngStream(17)
        n = 30_000
        for k in range(n):
            tree = tilted_tree(3, p, stream.child(0, k))
            net = surplus_attachment(tree, p, stream.child(1, k))
            counts[edge_set((u, v) for u, v, _ in net.edges())] += 1
        chi = sum((counts[g] - n * q) ** 2 / (n * q) for g, q in law.items())
        assert stats.chi2.sf(chi, 3) > 0.01


class TestErLargestComponent:
    def test_window_validation(self):
        lam_boundary = (1.0 - 0.5) * 2.0 ** (4.0 / 3.0)
        with pytest.raises(InvalidWindow):
            er_largest_component(2, lam_boundary, RngStream(18))

    def test_surplus_nonnegative(self):
        stream = RngStream(19)
        for k in range(20):
            net = er_largest_component(300, 0.5, stream.child(k))
            assert len(net.edges()) - net.n_vertices + 1 >= 0

    def test_root_is_smallest_label(self):
        net = er_largest_component(500, 1.0, RngStream(20))
        assert net.root == min(net.vertex_ids)

    @pytest.mark.parametrize("k, root", [(81, 1), (14, 6)])
    def test_tie_goes_to_smallest_label(self, k, root):
        # Two largest components of equal size; the one holding the smaller
        # label wins (k = 81: size-10 components with smallest labels 1 and 3).
        net = er_largest_component(100, 0.0, RngStream(7).child(100, k))
        assert net.root == root == min(net.vertex_ids)

    @pytest.mark.parametrize("n, digest", [
        (50, "d4250d9209ba064502d304510c5bf08cccb19c9307f16a46b8ec733f584973a3"),
        (1000, "55c746ce776517f3d8782696978a416e0e4dc97a727dc39612e2994469daaa8d"),
        (4000, "f03cdf806fcb996c62366e2fcc5337961c0ab7bf5c4b9937e5c42f0d2f98dbd6"),
    ])
    def test_pinned_components(self, n, digest):
        # Streams whose largest component is unique, so no tie rule applies.
        import hashlib

        net = er_largest_component(n, 0.0, RngStream(5).child(n))
        seen = hashlib.sha256(repr((net.vertex_ids, net.edges(), net.root)).encode())
        assert seen.hexdigest() == digest

    def test_component_size_scaling(self):
        # Median of |C1| n^(-2/3) stays within a factor 2 across n.
        stream = RngStream(21)
        medians = {}
        for n, reps in ((1000, 40), (10000, 15)):
            sizes = [er_largest_component(n, 0.0, stream.child(n, k)).n_vertices
                     for k in range(reps)]
            medians[n] = np.median(sizes) / n ** (2.0 / 3.0)
        ratio = medians[1000] / medians[10000]
        assert 0.5 <= ratio <= 2.0


class TestPointsetAndMarkers:
    def test_pointset_strictly_under_walk(self):
        from trapnets import binomial_pointset_under_walk, coding_functions

        tree = as_plane_tree([(1, 2), (1, 3), (1, 4)], 4)
        walk = coding_functions(tree).walk
        pts = binomial_pointset_under_walk(walk, 0.8, RngStream(22))
        assert len(set(pts)) == len(pts)
        for x, y in pts:
            assert 0 <= y < walk[x]

    def test_pointset_count_binomial(self):
        from trapnets import binomial_pointset_under_walk, coding_functions

        tree = as_plane_tree([(1, 2), (1, 3), (1, 4), (1, 5)], 5)  # a(T) = 6
        cd = coding_functions(tree)
        p = 0.3
        stream = RngStream(23)
        counts = [len(binomial_pointset_under_walk(cd.walk, p, stream.child(k)))
                  for k in range(6000)]
        mean, var = np.mean(counts), cd.area * p * (1 - p)
        assert abs(mean - cd.area * p) <= 3 * math.sqrt(var / len(counts))

    def test_marker_first_return(self):
        from trapnets import attachment_markers

        walk = np.array([0, 1, 2, 1, 1, 0, -1])
        assert attachment_markers(walk, [(1, 0)]) == [(1, 5)]
        assert attachment_markers(walk, [(2, 1)]) == [(2, 3)]
        with pytest.raises(Exception):
            attachment_markers(walk, [(0, 0)])  # not under the walk
