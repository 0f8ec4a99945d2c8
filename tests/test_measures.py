import hashlib
import math

import numpy as np
import pytest

from trapnets import (
    Correspondence,
    DiscreteMeasure,
    dis_measure_distance,
    distortion,
    glue,
    hausdorff,
    local_hausdorff,
    prohorov,
    prohorov_bruteforce,
    vague_distance,
)
from trapnets.errors import CarrierMismatch, NotACorrespondence, TrapnetsError
from trapnets.measures import ProductCarrier, _max_bipartite_flow
from trapnets.networks import FiniteMetricSpace
from trapnets.rng import RngStream
from trapnets.validate import random_connected_network, random_measure_pair

from conftest import line_space


class TestProhorov:
    def test_identity(self):
        space = line_space([0.0, 1.0, 2.5])
        mu = DiscreteMeasure(space, {0: 1.0, 2: 0.5})
        assert prohorov(mu, mu) == 0.0

    @pytest.mark.parametrize("d", [0.25, 0.75, 3.0])
    def test_two_diracs(self, d):
        # Case analysis of the enlargement condition: eps >= min(d, 1).
        space = line_space([0.0, d])
        mu = DiscreteMeasure(space, {0: 1.0})
        nu = DiscreteMeasure(space, {1: 1.0})
        assert prohorov(mu, nu) == pytest.approx(min(d, 1.0), abs=1e-14)

    def test_mass_gap(self):
        # delta_x vs 2 delta_x: the set {x} forces eps >= 1.
        space = line_space([0.0])
        mu = DiscreteMeasure(space, {0: 1.0})
        nu = DiscreteMeasure(space, {0: 2.0})
        assert prohorov(mu, nu) == pytest.approx(1.0, abs=1e-14)

    def test_flow_equals_bruteforce_dyadic(self):
        rng = RngStream(31).generator()
        space = random_connected_network(7, rng, dyadic=True).resistance_space
        for _ in range(60):
            mu, nu = random_measure_pair(space, rng, max_atoms=5)
            assert prohorov(mu, nu) == prohorov_bruteforce(mu, nu)

    def test_metric_axioms(self):
        rng = RngStream(32).generator()
        space = random_connected_network(6, rng).resistance_space
        triples = [random_measure_pair(space, rng, 4)[0] for _ in range(3)]
        a, b, c = triples
        assert prohorov(a, b) == pytest.approx(prohorov(b, a), abs=1e-14)
        assert prohorov(a, c) <= prohorov(a, b) + prohorov(b, c) + 1e-12
        assert prohorov(a, a) == 0.0

    def test_flow_equals_networkx(self):
        import networkx as nx

        rng = RngStream(33).generator()
        for trial in range(150):
            n_l, n_r = (int(k) for k in rng.integers(1, 13, size=2))
            left = rng.pareto(0.8, n_l) + 1e-3
            right = rng.pareto(0.8, n_r) + 1e-3
            allowed = rng.random((n_l, n_r)) < rng.uniform(0.05, 0.8)
            if trial % 3 == 0:
                allowed[int(rng.integers(n_l))] = False
                allowed[:, int(rng.integers(n_r))] = False
            g = nx.DiGraph()
            g.add_nodes_from(["s", "t"])
            for i, w in enumerate(left):
                g.add_edge("s", ("l", i), capacity=float(w))
            for j, w in enumerate(right):
                g.add_edge(("r", j), "t", capacity=float(w))
            for i, j in zip(*np.nonzero(allowed)):
                g.add_edge(("l", int(i)), ("r", int(j)))     # no capacity: unbounded
            expected = nx.maximum_flow_value(g, "s", "t")
            assert _max_bipartite_flow(left, right, allowed) == pytest.approx(expected, rel=1e-12)

    def test_pinned_heavy_tailed_values(self):
        # sha256 of prohorov and vague_distance on Pareto-weighted measure
        # pairs, half of them on the product carrier.  The carriers are points
        # on a line, so the digest pins the measure metrics and not the
        # resistance solver.
        rng = RngStream(51).generator()
        values = []
        for _ in range(200):
            space = line_space(rng.random(int(rng.integers(3, 9))))
            product = ProductCarrier(space)
            pts = space.point_ids

            def one(lift):
                k = min(int(rng.integers(1, 7)), len(pts))
                chosen = rng.choice(len(pts), size=k, replace=False)
                if lift:
                    return DiscreteMeasure(product, {
                        (pts[i], float(rng.pareto(0.8)) + 1e-3): 0.1 * float(rng.pareto(0.8)) + 1e-3
                        for i in chosen})
                return DiscreteMeasure(space, {pts[i]: 0.1 * float(rng.pareto(0.8)) + 1e-3
                                               for i in chosen})

            lift = bool(rng.integers(0, 2))
            mu, nu = one(lift), one(lift)
            values += [prohorov(mu, nu), vague_distance(mu, nu)]
        digest = hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()
        assert digest == "9fc023fa99a3eda6481b2e8d8bbfb29e877185f9b1a3af196f047f3a5138f743"

    @staticmethod
    def _capped_cases():
        """Seeded measure pairs on a resistance space, a line and its product carrier."""
        rng = RngStream(52).generator()
        space = random_connected_network(7, rng).resistance_space
        pairs = [random_measure_pair(space, rng, max_atoms=6) for _ in range(40)]
        line = line_space(np.sort(rng.random(8)) * 3.0)
        product = ProductCarrier(line)
        pts = line.point_ids
        for _ in range(40):
            k, extra = int(rng.integers(1, 5)), int(rng.integers(0, 2))
            # Unit atoms: the mass gap is exactly 0 or 1.
            a = rng.choice(len(pts), size=k, replace=False)
            b = rng.choice(len(pts), size=k + extra, replace=False)
            pairs.append((DiscreteMeasure(line, {pts[i]: 1.0 for i in a}),
                          DiscreteMeasure(line, {pts[i]: 1.0 for i in b})))
            # Shared atoms with different weights.
            pairs.append((DiscreteMeasure(line, {pts[i]: float(rng.pareto(1.5)) + 0.05 for i in a}),
                          DiscreteMeasure(line, {pts[i]: float(rng.pareto(1.5)) + 0.05 for i in a})))
            lifted = [DiscreteMeasure(product, {(pts[i], float(rng.pareto(0.8)) + 1e-3):
                                                0.2 * float(rng.pareto(0.8)) + 1e-3 for i in c})
                      for c in (a, b)]
            pairs.append(tuple(lifted))
        # Restrictions to small balls, some of them empty on one side or both.
        for mu, nu in list(pairs[:40]):
            for r in (1e-9, 0.3, 1.0):
                pairs.append((mu.restrict(r), nu.restrict(r)))
        return pairs

    @pytest.mark.parametrize("cap", [0.3, 1.0, 2.0])
    def test_capped_search_is_exact(self, cap):
        cases = self._capped_cases()
        assert any(not mu.atoms or not nu.atoms for mu, nu in cases)
        assert any(prohorov(mu, nu) > cap for mu, nu in cases)
        for mu, nu in cases:
            assert prohorov(mu, nu, cap=cap) == min(cap, prohorov(mu, nu))

    def test_capped_search_flows_each_level_once(self, monkeypatch):
        flowed = []

        def recording(left, right, allowed):
            flowed.append(allowed.tobytes())
            return _max_bipartite_flow(left, right, allowed)

        monkeypatch.setattr("trapnets.measures._max_bipartite_flow", recording)
        gaps = 0
        for mu, nu in self._capped_cases():
            for cap in (1.0, math.inf):
                flowed.clear()
                prohorov(mu, nu, cap=cap)
                if abs(mu.total() - nu.total()) >= cap:
                    gaps += 1
                    assert flowed == []
                # Each level adds the atom pairs at that distance, so one
                # level's allowed matrix differs from every other level's.
                assert len(set(flowed)) == len(flowed)
        assert gaps > 0

    def test_cap_must_be_positive(self):
        space = line_space([0.0, 1.0])
        mu = DiscreteMeasure(space, {0: 1.0})
        with pytest.raises(TrapnetsError):
            prohorov(mu, mu, cap=0.0)

    def test_carrier_mismatch(self):
        s1 = line_space([0.0, 1.0])
        s2 = line_space([0.0, 1.0])
        with pytest.raises(CarrierMismatch):
            prohorov(DiscreteMeasure(s1, {0: 1.0}), DiscreteMeasure(s2, {0: 1.0}))


class TestCarrierDistances:
    def test_cross_matrix_equals_pairwise(self):
        rng = RngStream(34).generator()
        space = random_connected_network(9, rng).resistance_space
        product = ProductCarrier(space)
        for _ in range(20):
            ps = [space.point_ids[i] for i in rng.integers(0, 9, size=int(rng.integers(1, 6)))]
            qs = [space.point_ids[i] for i in rng.integers(0, 9, size=int(rng.integers(1, 6)))]
            for carrier, a, b in (
                    (space, ps, qs),
                    (product, [(p, float(rng.pareto(0.8)) + 1e-3) for p in ps],
                     [(q, float(rng.pareto(0.8)) + 1e-3) for q in qs])):
                d = carrier.distances(a, b)
                assert d.shape == (len(a), len(b))
                assert all(d[i, j] == carrier.distance(x, y)
                           for i, x in enumerate(a) for j, y in enumerate(b))

    def test_product_needs_a_base_carrier(self):
        with pytest.raises(CarrierMismatch):
            ProductCarrier(None)


class TestRestrict:
    def test_identity_beyond_diameter(self):
        space = line_space([0.0, 1.0, 2.0])
        mu = DiscreteMeasure(space, {0: 1.0, 2: 2.0})
        assert mu.restrict(10.0).atoms == mu.atoms

    def test_drops_far_atom(self):
        space = line_space([0.0, 1.0])
        nu = DiscreteMeasure(space, {0: 1.0, 1: 1.0})
        assert nu.restrict(0.5).atoms == {0: 1.0}

    def test_open_ball_rule(self):
        # Atoms exactly at the radius are excluded: closure adds no points.
        space = line_space([0.0, 1.0, 2.0])
        counting = DiscreteMeasure(space, {0: 1.0, 1: 1.0, 2: 1.0})
        assert set(counting.restrict(1.0).atoms) == {0}
        assert set(counting.restrict(1.5).atoms) == {0, 1}

    def test_needs_a_carrier(self):
        with pytest.raises(CarrierMismatch):
            DiscreteMeasure(None, {1: 1.0}).restrict(1.0)


class TestVagueDistance:
    def test_identity(self):
        space = line_space([0.0, 0.5])
        mu = DiscreteMeasure(space, {0: 2.0, 1: 1.0})
        assert vague_distance(mu, mu) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_collision_formula(self, n):
        space = line_space([0.0, 1.0 / n])
        nu = DiscreteMeasure(space, {0: 1.0, 1: 1.0})
        target = DiscreteMeasure(space, {0: 2.0})
        expected = (1.0 - math.exp(-1.0 / n)) + math.exp(-1.0 / n) * min(1.0 / n, 1.0)
        assert vague_distance(nu, target) == pytest.approx(expected, rel=1e-12)

    def test_hand_integrated_two_atom_example(self):
        # Unit atoms at two points both at distance 1 from the root and at
        # distance 2 from each other: restrictions agree (empty) below r = 1
        # and differ by a clamped Prohorov distance of 1 above, so the value
        # is exactly exp(-1).
        dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        space = FiniteMetricSpace((0, 1, 2), dist, 0)
        mu = DiscreteMeasure(space, {1: 1.0})
        nu = DiscreteMeasure(space, {2: 1.0})
        assert vague_distance(mu, nu) == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestDisMeasureDistance:
    def test_identity(self):
        space = line_space([0.0, 1.0])
        nu = DiscreteMeasure(space, {0: 1.0, 1: 2.0})
        assert dis_measure_distance(nu, nu) == 0.0

    def test_collision_bounded_below(self):
        # Vague distance decays but the atom collision keeps the combined
        # distance bounded away from zero (the constant is computed here,
        # not asserted a priori).
        values = []
        vagues = []
        for n in (1, 10, 100):
            space = line_space([0.0, 1.0 / n])
            nu = DiscreteMeasure(space, {0: 1.0, 1: 1.0})
            target = DiscreteMeasure(space, {0: 2.0})
            vagues.append(vague_distance(nu, target))
            values.append(dis_measure_distance(nu, target))
        assert vagues[-1] < 0.05
        floor = min(values)
        assert floor > 0.2
        assert all(v >= floor - 1e-12 for v in values)

    def test_weight_scaling_moves_log_coordinate(self):
        space = line_space([0.0, 1.0])
        product = ProductCarrier(space)
        assert product.distance((0, 1.0), (0, math.e)) == pytest.approx(1.0, abs=1e-12)
        assert product.distance((0, 2.0), (0, 2.0 * math.e)) == pytest.approx(1.0, abs=1e-12)


class TestHausdorff:
    def test_equal_sets(self):
        space = line_space([0.0, 1.0, 2.0])
        assert hausdorff([0, 2], [0, 2], space) == 0.0

    def test_singletons(self):
        space = line_space([0.0, 1.5])
        assert hausdorff([0], [1], space) == 1.5

    def test_subset(self):
        space = line_space([0.0, 1.0, 5.0])
        # sup over the larger set of the distance to the smaller one.
        assert hausdorff([0], [0, 1, 2], space) == 5.0

    def test_empty_side_clamped_in_local(self):
        space = line_space([0.0, 1.0])
        assert hausdorff([], [0], space) == math.inf
        assert local_hausdorff([], [0], space) <= 1.0

    def test_local_identity(self):
        space = line_space([0.0, 1.0, 2.0])
        assert local_hausdorff([0, 1], [0, 1], space) == 0.0


class TestDistortionGlue:
    def test_identity_correspondence(self):
        space = line_space([0.0, 1.0, 2.0])
        corr = Correspondence.of((p, p) for p in space.point_ids)
        assert distortion(corr, space, space) == 0.0

    def test_two_singletons(self):
        a = FiniteMetricSpace((0,), np.zeros((1, 1)), 0)
        b = FiniteMetricSpace((9,), np.zeros((1, 1)), 9)
        corr = Correspondence.of([(0, 9)])
        assert distortion(corr, a, b) == 0.0
        glued = glue(corr, a, b, slack=0.125)
        assert glued.distance(("A", 0), ("B", 9)) == pytest.approx(0.125, abs=1e-15)

    def test_path3_vs_path2_cover(self):
        a = line_space([0.0, 1.0, 2.0])
        b = line_space([0.0, 1.0])
        corr = Correspondence.of([(0, 0), (1, 1), (2, 1)])
        assert distortion(corr, a, b) == pytest.approx(1.0, abs=1e-15)

    def test_glue_metric_axioms(self):
        rng = RngStream(36).generator()
        for _ in range(20):
            na, nb = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            sa = random_connected_network(na, rng).resistance_space
            sb = random_connected_network(nb, rng).resistance_space
            pairs = {(p, sb.point_ids[int(rng.integers(0, nb))]) for p in sa.point_ids}
            pairs |= {(sa.point_ids[int(rng.integers(0, na))], q) for q in sb.point_ids}
            glued = glue(Correspondence.of(pairs), sa, sb, slack=float(rng.uniform(0.01, 1.0)))
            glued.validate(tol=1e-12)

    def test_not_a_correspondence(self):
        a = line_space([0.0, 1.0])
        b = line_space([0.0])
        with pytest.raises(NotACorrespondence):
            distortion(Correspondence.of([(0, 0)]), a, b)


class TestAtomPairingCharacterization:
    def test_converging_point_maps_pair_atoms(self):
        # A constructed sequence whose point maps converge vaguely: matched
        # atoms and weights converge too (the convergence characterization).
        space = line_space([0.0, 1.0, 1.1, 1.01, 1.001])
        target = DiscreteMeasure(space, {0: 1.0, 1: 2.0})
        seq_points = [2, 3, 4]  # positions 1.1, 1.01, 1.001 approaching 1.0
        dists = []
        for k, p in enumerate(seq_points):
            nu = DiscreteMeasure(space, {0: 1.0, p: 2.0 + 1.0 / (k + 2)})
            dists.append(dis_measure_distance(nu, target))
            # matched atom: the unique non-root atom
            atom_pos, atom_w = [(q, w) for q, w in nu.atoms.items() if q != 0][0]
            assert abs(space.distance(atom_pos, 1)) == pytest.approx(
                [0.1, 0.01, 0.001][k], abs=1e-12)
        assert dists == sorted(dists, reverse=True)
        assert dists[-1] < dists[0]


class TestVagueCharacterization:
    def test_vague_zero_iff_restricted_prohorov_zero(self):
        # Constructed sequence converging vaguely: restricted Prohorov
        # distances vanish at every probe radius; and a sequence with a
        # persistent restricted discrepancy keeps the vague distance away
        # from zero.
        space = line_space([0.0, 0.5, 0.5 + 1e-3, 0.5 + 1e-6, 2.0])
        target = DiscreteMeasure(space, {0: 1.0, 1: 1.0})
        approx_points = [2, 3]  # atoms sliding onto position 0.5
        vagues = []
        for k, p in enumerate(approx_points):
            nu = DiscreteMeasure(space, {0: 1.0, p: 1.0})
            vagues.append(vague_distance(nu, target))
            for r in (0.25, 1.0, 3.0):
                d = prohorov(nu.restrict(r), target.restrict(r))
                assert d <= [1e-3, 1e-6][k] + 1e-12
        assert vagues[1] < vagues[0]

        stuck = DiscreteMeasure(space, {0: 1.0, 4: 1.0})  # atom stays at 2.0
        assert prohorov(stuck.restrict(3.0), target.restrict(3.0)) >= 1.0
        assert vague_distance(stuck, target) >= math.exp(-2.0) * 1.0 - 1e-12
