import math

import numpy as np
import pytest
from scipy import stats

from trapnets import (
    TrapLaw,
    build_network,
    pareto_sample,
    sample_trap,
    scaling_constant,
    scaling_identity_residual,
    sierpinski,
    traps,
    truncated_prm,
)
from trapnets.errors import InvalidScale, InvalidTruncation, SupportMismatch, TrapnetsError
from trapnets.measures import DiscreteMeasure
from trapnets.rng import RngStream
from trapnets.traps import ScaleTriple, TrapEnvironment

from conftest import line_space


class TestParetoSample:
    def test_inverse_cdf_endpoint(self):
        law = TrapLaw(0.5, u_min=2.0)
        assert law.quantile(1.0) == pytest.approx(2.0)

    def test_inverse_cdf_quarter(self):
        law = TrapLaw(0.5)
        assert law.quantile(0.25) == pytest.approx(16.0)

    def test_empirical_tail(self):
        law = TrapLaw(0.5)
        rng = RngStream(41).generator()
        draws = pareto_sample(law, rng, size=1_000_000)
        p_hat = np.mean(draws >= 10.0)
        p0 = 10.0 ** -0.5
        sigma = math.sqrt(p0 * (1 - p0) / len(draws))
        assert abs(p_hat - p0) <= 3 * sigma

    def test_support(self):
        law = TrapLaw(0.3, u_min=1.5)
        draws = pareto_sample(law, RngStream(42).generator(), size=1000)
        assert np.all(draws >= 1.5)

    def test_invalid_alpha(self):
        with pytest.raises(TrapnetsError):
            TrapLaw(1.2)


class TestScalingConstant:
    def test_tail_inversion(self):
        assert scaling_constant(TrapLaw(0.5), 100.0) == pytest.approx(10_000.0)

    def test_b_equal_one(self):
        law = TrapLaw(0.7, u_min=3.0)
        assert scaling_constant(law, 1.0) == pytest.approx(3.0)

    def test_invalid_scale(self):
        with pytest.raises(InvalidScale):
            scaling_constant(TrapLaw(0.5), 0.5)

    def test_identity_exact_at_u2(self):
        law = TrapLaw(0.5)
        c = scaling_constant(law, 100.0)
        assert 100.0 * law.tail(2.0 * c) == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_identity_residual_random(self):
        rng = RngStream(43).generator()
        for _ in range(100):
            law = TrapLaw(float(rng.uniform(0.1, 0.9)))
            b = float(rng.uniform(1.0, 1e8))
            u = float(rng.uniform(0.01, 100.0))
            if scaling_constant(law, b) * u < law.u_min:
                continue
            resid = scaling_identity_residual(law, b, u)
            assert abs(resid) <= 1e-13 * u ** (-law.alpha)


class TestSampleTrap:
    def test_single_vertex(self):
        net = build_network([5], [], root=5)
        nu = sample_trap(net, TrapLaw(0.5), RngStream(44))
        assert set(nu.atoms) == {5} and nu.atoms[5] >= 1.0

    def test_reproducible(self, unit_path3):
        law = TrapLaw(0.5)
        a = sample_trap(unit_path3, law, RngStream(7, 3))
        b = sample_trap(unit_path3, law, RngStream(7, 3))
        assert a.atoms == b.atoms
        c = sample_trap(unit_path3, law, RngStream(7, 4))
        assert c.atoms != a.atoms

    def test_full_support_above_floor(self, unit_triangle):
        law = TrapLaw(0.4, u_min=2.0)
        nu = sample_trap(unit_triangle, law, RngStream(45))
        assert all(w >= 2.0 for w in nu.atoms.values())


class TestTrapEnvironment:
    @pytest.mark.parametrize("extra, drop", [(999, None), (None, 0)])
    def test_support_other_than_the_vertices_refused(self, extra, drop):
        net = sierpinski(1).network
        atoms = {v: 1.0 for v in net.vertex_ids if v != drop}
        if extra is not None:
            atoms[extra] = 1.0
        with pytest.raises(SupportMismatch):
            TrapEnvironment(net, DiscreteMeasure(None, atoms), ScaleTriple(1.0, 1.0, 1.0))


class TestTruncatedPRM:
    def test_expected_atom_count(self):
        """Mean total count within 3 sigma: false-failure rate about 0.3%;
        no failure at 100 seeds."""
        space = line_space([0.0, 1.0])
        base = DiscreteMeasure(space, {0: 2.0, 1: 1.0})
        alpha, v_floor = 0.5, 0.25
        reps = 4000
        stream = RngStream(49)
        counts = [truncated_prm(base, alpha, v_floor, stream.child(k)).total()
                  for k in range(reps)]
        lam = base.total() * v_floor ** -alpha
        sigma = math.sqrt(lam / reps)
        assert abs(np.mean(counts) - lam) <= 3 * sigma

    def test_void_probability_chi_square(self):
        """Chi-square over three thresholds at the 0.01 level, fresh streams
        per replica: false-failure rate about 1%; no failure at 100 seeds."""
        space = line_space([0.0, 1.0])
        base = DiscreteMeasure(space, {0: 2.0, 1: 1.0})
        alpha, v_floor = 0.5, 0.25
        reps = 4000
        stream = RngStream(50)
        chi = 0.0
        dof = 0
        for u in (0.5, 1.0, 3.0):
            observed = 0
            for k in range(reps):
                pi = truncated_prm(base, alpha, v_floor, stream.child(int(u * 100), k))
                if all(w <= u for _, w in pi.atoms):
                    observed += 1
            p0 = math.exp(-base.total() * u ** -alpha)
            expected = reps * p0
            chi += (observed - expected) ** 2 / expected \
                + ((reps - observed) - (reps - expected)) ** 2 / (reps - expected)
            dof += 1
        assert stats.chi2.sf(chi, dof) > 0.01

    def test_per_atom_counts_and_weights(self):
        """Each atom's mean count is mass * v_floor^(-alpha) within 4 sigma,
        its share of weights above 1.0 is (1.0 / v_floor)^(-alpha) within 4
        sigma, and no weight lies below the floor.  Unequal masses make a
        weight handed to the wrong atom show in the counts.  Six 4-sigma
        bounds: false-failure rate about 4e-4; no failure at 100 seeds."""
        space = line_space([0.0, 1.0, 2.0])
        masses = {0: 3.0, 1: 1.0, 2: 0.25}
        alpha, v_floor, reps = 0.5, 0.25, 2000
        stream = RngStream(54)
        counts = {p: 0.0 for p in masses}
        above = {p: 0.0 for p in masses}
        for k in range(reps):
            pi = truncated_prm(DiscreteMeasure(space, masses), alpha, v_floor, stream.child(k))
            for (p, v), w in pi.atoms.items():
                assert v >= v_floor
                counts[p] += w
                above[p] += w * (v > 1.0)
        share = v_floor ** alpha
        for p, mass in masses.items():
            lam = mass * v_floor ** -alpha
            assert abs(counts[p] / reps - lam) <= 4 * math.sqrt(lam / reps)
            sigma = math.sqrt(share * (1 - share) / counts[p])
            assert abs(above[p] / counts[p] - share) <= 4 * sigma

    def test_draw_layout_pinned(self):
        # One poisson call over the atoms in insertion order, then one block
        # of uniforms handed out in that order.  Changing the layout moves
        # every PRM draw, so this test makes such a change deliberate.
        space = line_space([0.0, 1.0, 2.0, 3.0])
        masses = {2: 0.5, 0: 2.0, 3: 1e-3, 1: 1.0}
        alpha, v_floor = 0.6, 0.3
        for k in range(5):
            rng = RngStream(55, k).generator()
            counts = rng.poisson(np.array(list(masses.values())) * v_floor ** -alpha)
            weights = v_floor * (1.0 - rng.random(counts.sum())) ** (-1.0 / alpha)
            expected: dict = {}
            at = 0
            for p, count in zip(masses, counts):
                for v in weights[at:at + count]:
                    expected[(p, float(v))] = expected.get((p, float(v)), 0.0) + 1.0
                at += count
            base = DiscreteMeasure(space, masses)
            assert truncated_prm(base, alpha, v_floor, RngStream(55, k)).atoms == expected
            # A caller's generator is left just past those two calls.
            shared = RngStream(55, k).generator()
            truncated_prm(base, alpha, v_floor, shared)
            assert shared.random() == rng.random()

    def test_void_chi_square_with_one_shared_generator(self):
        """Void frequencies when successive ``truncated_prm`` calls draw from
        one generator per threshold.  Chi-square over three
        thresholds at the 0.01 level: false-failure rate about 1%; no
        failure at 100 seeds."""
        space = line_space([0.0, 1.0])
        base = DiscreteMeasure(space, {0: 2.0, 1: 1.0})
        alpha, v_floor = 0.5, 0.25
        reps = 4000
        chi = 0.0
        for u in (0.5, 1.0, 3.0):
            rng = RngStream(56).child(int(u * 100)).generator()
            observed = sum(all(w <= u for _, w in truncated_prm(base, alpha, v_floor, rng).atoms)
                           for _ in range(reps))
            expected = reps * math.exp(-base.total() * u ** -alpha)
            chi += (observed - expected) ** 2 / expected \
                + ((reps - observed) - (reps - expected)) ** 2 / (reps - expected)
        assert stats.chi2.sf(chi, 3) > 0.01

    def test_possible_empty(self):
        space = line_space([0.0])
        base = DiscreteMeasure(space, {0: 0.01})
        pi = truncated_prm(base, 0.5, 5.0, RngStream(51))
        assert pi.carrier.base is space
        assert all(w >= 5.0 for _, w in pi.atoms)

    def test_invalid_floor(self):
        space = line_space([0.0])
        base = DiscreteMeasure(space, {0: 1.0})
        with pytest.raises(InvalidTruncation, match="must be positive"):
            truncated_prm(base, 0.5, 0.0, RngStream(52))
        # 1e20 expected weights, past the block budget (and past the rates
        # numpy's poisson takes).
        with pytest.raises(InvalidTruncation, match="expects 1e[+]20 weights"):
            truncated_prm(base, 0.5, 1e-40, RngStream(52))

    def test_batched_core_counts_and_voids(self, monkeypatch):
        """Replicas of ``traps._prm_blocks`` with the block budget lowered to
        1000 weights, so about 150 replicas per block: each block within
        the budget, the per-replica total count's mean and variance both
        lam within 4 sigma, and a chi-square over the bins of each
        replica's largest weight (void probabilities at three thresholds)
        at the 0.01 level.  False-failure rate about 1%; no failure at
        seeds 57-156."""
        monkeypatch.setattr(traps, "_PRM_BLOCK_WEIGHTS", 1000)
        masses = np.array([2.0, 1.0, 0.25])
        alpha, v_floor, reps = 0.5, 0.25, 20_000
        lam = masses.sum() * v_floor ** -alpha
        rng = RngStream(57).generator()
        totals, largest = [], []
        for counts, weights in traps._prm_blocks(masses, alpha, v_floor, reps, rng):
            assert len(counts) * lam <= 1000 and np.all(weights >= v_floor)
            rows = counts.sum(axis=1)
            top = np.full(len(counts), v_floor)
            np.maximum.at(top, np.repeat(np.arange(len(counts)), rows), weights)
            totals.append(rows)
            largest.append(top)
        totals, largest = np.concatenate(totals), np.concatenate(largest)
        assert len(totals) == reps
        assert abs(totals.mean() - lam) <= 4 * math.sqrt(lam / reps)
        assert abs(totals.var(ddof=1) - lam) <= 4 * math.sqrt((lam + 2 * lam ** 2) / reps)
        thresholds = np.array([0.5, 1.0, 3.0])
        void = np.exp(-masses.sum() * thresholds ** -alpha)
        expected = reps * np.diff(np.concatenate([[0.0], void, [1.0]]))
        observed = np.bincount(np.searchsorted(thresholds, largest), minlength=4)
        assert stats.chi2.sf(((observed - expected) ** 2 / expected).sum(), 3) > 0.01


class TestPiVoidProbabilities:
    def test_chi_square_over_replicas(self, unit_triangle):
        # Void probability of the trap point process over A x (u, inf) equals
        # (1 - P(xi/c > u))^{#A} exactly; chi-square across thresholds.
        law = TrapLaw(0.5)
        b = 9.0
        c = scaling_constant(law, b)
        reps = 10_000
        rng = RngStream(53).generator()
        draws = law.quantile(1.0 - rng.random((reps, 3)))
        chi = 0.0
        dof = 0
        for u in (0.3, 0.7, 1.5):
            observed = int(np.all(draws <= c * u, axis=1).sum())
            p0 = (1.0 - law.tail(c * u)) ** 3
            expected = reps * p0
            chi += (observed - expected) ** 2 / expected \
                + ((reps - observed) - (reps - expected)) ** 2 / (reps - expected)
            dof += 1
        assert stats.chi2.sf(chi, dof) > 0.01


class TestSmallMassExpectationDirection:
    def test_bound_and_gap_decrease(self):
        # E[M_eps(pi_n)] stays below (alpha/(1-alpha)) mass eps^(1-alpha)
        # c_n^(-alpha) ... for the exact Pareto law the bound holds at every n
        # and the gap to it shrinks along the level sequence.  M_eps is the
        # total of the rescaled trap weights at most eps, over the whole
        # gasket.
        from trapnets import sierpinski

        law = TrapLaw(0.5)
        eps = 0.5
        reps = 300
        gaps = []
        for n in (1, 2, 3):
            g = sierpinski(n)
            b = 3.0 ** n
            c = scaling_constant(law, b)
            rng = RngStream(54).child(n).generator()
            m_vals = []
            for _ in range(reps):
                weights = law.quantile(1.0 - rng.random(g.network.n_vertices)) / c
                m_vals.append(float(weights[weights <= eps].sum()))
            bound = (law.alpha / (1 - law.alpha)) * g.network.n_vertices \
                * eps ** (1 - law.alpha) * c ** -law.alpha
            mean = float(np.mean(m_vals))
            sigma = float(np.std(m_vals) / math.sqrt(reps))
            assert mean <= bound + 3 * sigma
            gaps.append(bound - mean)
        assert gaps[0] >= gaps[1] - 1e-3 >= gaps[2] - 2e-3
