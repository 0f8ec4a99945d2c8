import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from trapnets import dynamics
from trapnets import (
    Generator,
    TrapLaw,
    aging_phi,
    build_network,
    exit_time_bound,
    exit_time_bound_check,
    make_environment,
    return_probability_bounds_check,
    scaled_surface,
    sierpinski,
    simulate_path,
    subaging_psi,
    transition_kernel,
)
from trapnets.dynamics import simulate_marginal
from trapnets.errors import (
    NonpositiveTime,
    NumericalFailure,
    PreconditionViolated,
    SupportMismatch,
)
from trapnets.measures import DiscreteMeasure
from trapnets.networks import ElectricalNetwork
from trapnets.rng import RngStream
from trapnets.traps import ScaleTriple, TrapEnvironment
from trapnets.validate import green_operator_kernel, random_connected_network

from conftest import two_state_kernel


def two_state_env(c=1.0, nu1=2.0, nu2=4.0, a=1.0, b=1.0):
    net = build_network([1, 2], [(1, 2, c)], root=1)
    nu = DiscreteMeasure(None, {1: nu1, 2: nu2})
    return TrapEnvironment(net, nu, ScaleTriple(a, b, 1.0))


class TestGenerator:
    def test_rate_formula(self):
        env = two_state_env()
        q = env.generator.matrix
        assert q[0, 1] == pytest.approx(1.0 / 2.0)
        assert q[1, 0] == pytest.approx(1.0 / 4.0)
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-15)

    def test_uniform_trap_is_simple_walk(self, unit_path3):
        nu = DiscreteMeasure(None, {1: 1.0, 2: 1.0, 3: 1.0})
        q = Generator(unit_path3, nu).matrix
        assert q[0, 1] == 1.0 and q[1, 0] == 1.0 and q[1, 2] == 1.0

    def test_detailed_balance(self):
        rng = RngStream(61).generator()
        for _ in range(20):
            net = random_connected_network(int(rng.integers(2, 10)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(62))
            gen = env.generator
            q = gen.matrix
            res = gen.nu_values[:, None] * q - (gen.nu_values[:, None] * q).T
            assert np.max(np.abs(res)) < 1e-12

    def test_support_mismatch(self, unit_path3):
        with pytest.raises(SupportMismatch):
            Generator(unit_path3, DiscreteMeasure(None, {1: 1.0, 2: 1.0}))

    def test_infinite_trap_refused(self, unit_path3):
        # TrapLaw.quantile gives inf for u below 10^(-308 alpha).
        with pytest.raises(SupportMismatch, match="finite"):
            Generator(unit_path3, DiscreteMeasure(None, {1: 1.0, 2: math.inf, 3: 1.0}))

    def test_green_norm_overflow_raises_numerical_failure(self):
        # Traps near 1e160 put |M|_F^2 past the float range.
        net = sierpinski(2).network
        atoms = {v: 2.0 for v in net.vertex_ids}
        atoms[3], atoms[5] = 1e160, 1e160 / 3
        gen = Generator(net, DiscreteMeasure(None, atoms))
        with pytest.raises(NumericalFailure, match="overflows"):
            aging_phi(gen, net.root, 1e3, 2e3)


class TestTransitionKernel:
    def test_time_zero_identity(self):
        env = two_state_env()
        k = transition_kernel(env.generator, 0.0)
        assert np.array_equal(k.matrix, np.eye(2))

    @pytest.mark.parametrize("t", [0.05, 0.7, 3.0])
    def test_two_state_closed_form(self, t):
        env = two_state_env(c=1.5, nu1=2.0, nu2=5.0)
        k = transition_kernel(env.generator, t)
        assert np.allclose(k.matrix, two_state_kernel(1.5, 2.0, 5.0, t), atol=1e-12)

    def test_stationary_at_large_time(self):
        rng = RngStream(63).generator()
        net = random_connected_network(5, rng)
        env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(64))
        k = transition_kernel(env.generator, 1e6)
        target = env.generator.stationary
        assert np.max(np.abs(k.matrix - target[None, :])) < 1e-8

    def test_invariants_on_random_instances(self):
        rng = RngStream(65).generator()
        for i in range(15):
            net = random_connected_network(int(rng.integers(2, 12)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(66).child(i))
            gen = env.generator
            t = float(rng.uniform(0.01, 10.0))
            k = transition_kernel(gen, t)
            assert np.max(np.abs(k.matrix.sum(axis=1) - 1.0)) <= 1e-10
            dens = k.density_matrix()
            assert np.max(np.abs(dens - dens.T)) <= 1e-10
            half = transition_kernel(gen, t / 2.0)
            assert np.max(np.abs(half.matrix @ half.matrix - k.matrix)) <= 1e-9

    def test_positivity(self):
        rng = RngStream(67).generator()
        for i in range(10):
            net = random_connected_network(int(rng.integers(2, 8)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(68).child(i))
            for t in (1e-3, 1.0, 1e5):
                diag = np.diag(transition_kernel(env.generator, t).density_matrix())
                assert np.all(diag > 1e-300)

    def test_negative_time_rejected(self):
        env = two_state_env()
        with pytest.raises(NonpositiveTime):
            transition_kernel(env.generator, -1.0)


class TestOnDiagonalBounds:
    def test_a_priori_upper_bound(self):
        # p(t, x, x) <= 2 r / t + sqrt(2) / nu(root r-ball) for x in the ball.
        rng = RngStream(69).generator()
        for i in range(20):
            net = random_connected_network(int(rng.integers(3, 10)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(70).child(i))
            gen = env.generator
            row = net.resistance_matrix[net.index(net.root)]
            t = float(rng.uniform(0.05, 5.0))
            diag = np.diag(transition_kernel(gen, t).density_matrix())
            for r in np.quantile(row[row > 0], [0.4, 1.0]):
                inside = np.flatnonzero(row <= r + 1e-12)
                bound = 2.0 * r / t + math.sqrt(2.0) / gen.nu_values[inside].sum()
                assert np.max(diag[inside]) <= bound + 1e-9

    def test_continuity_modulus(self):
        # |p(t,x,y) - p(t',x',y')| against the kernel-regularity bound with
        # the time-derivative term evaluated at the smaller time.
        rng = RngStream(71).generator()
        for i in range(10):
            net = random_connected_network(int(rng.integers(3, 8)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(72).child(i))
            gen = env.generator
            r = net.resistance_matrix
            times = sorted(float(x) for x in rng.uniform(0.2, 3.0, size=2))
            t1, t2 = times
            p1 = transition_kernel(gen, t1).density_matrix()
            p2 = transition_kernel(gen, t2).density_matrix()
            phalf = transition_kernel(gen, t1 / 2.0).density_matrix()
            n = net.n_vertices
            for _ in range(10):
                x, y, x2, y2 = (int(rng.integers(0, n)) for _ in range(4))
                lhs = abs(p1[x, y] - p2[x2, y2])
                rhs = (math.sqrt(p1[x, x] * r[y, y2] / t1)
                       + math.sqrt(p2[y2, y2] * r[x, x2] / t1)
                       + 2.0 * (t2 - t1) * math.sqrt(phalf[x2, x2] * phalf[y2, y2]) / t1)
                assert lhs <= rhs + 1e-9


class TestSimulatePath:
    def test_single_vertex_never_jumps(self):
        net = build_network([3], [], root=3)
        nu = DiscreteMeasure(None, {3: 2.0})
        env = TrapEnvironment(net, nu, ScaleTriple(1.0, 1.0, 1.0))
        path = simulate_path(env.generator, 3, 7.0, RngStream(73))
        assert path.states == (3,) and path.durations == (7.0,)

    def test_two_state_marginal_matches_closed_form(self):
        env = two_state_env(c=1.0, nu1=1.0, nu2=3.0)
        t = 0.8
        emp = simulate_marginal(env.generator, 1, t, RngStream(74), 100_000)
        exact = two_state_kernel(1.0, 1.0, 3.0, t)[0]
        sigma = np.sqrt(exact * (1 - exact) / 100_000)
        assert np.all(np.abs(emp - exact) <= 3 * sigma)

    def test_mean_holding_time(self):
        # First holding interval per path only: completed holds before a fixed
        # horizon are length-biased, the first one is a clean exponential.
        env = two_state_env(c=2.0, nu1=3.0, nu2=1.0)
        rng = RngStream(75)
        holds = []
        for k in range(4000):
            path = simulate_path(env.generator, 1, 40.0, rng.child(k))
            if len(path.durations) > 1:
                holds.append(path.durations[0])
        mean = 3.0 / 2.0  # nu({x}) / mu(x)
        sigma = mean / math.sqrt(len(holds))  # exponential: std = mean
        assert abs(np.mean(holds) - mean) <= 3 * sigma

    def test_adjacent_states(self, unit_path3):
        env = make_environment(unit_path3, TrapLaw(0.5), 1.0, 2.0, RngStream(76))
        path = simulate_path(env.generator, 1, 30.0, RngStream(77))
        for a, b in zip(path.states, path.states[1:]):
            assert unit_path3.conductance(a, b) > 0
        assert all(d > 0 for d in path.durations)
        assert sum(path.durations) == pytest.approx(30.0)


class TestAgingPhi:
    def test_diagonal_is_one(self):
        env = two_state_env()
        assert aging_phi(env.generator, 1, 0.7, 0.7) == 1.0

    @pytest.mark.parametrize("s,t", [(0.5, 1.5), (2.0, 0.4)])
    def test_two_state_closed_form(self, s, t):
        env = two_state_env(c=1.2, nu1=2.0, nu2=3.0)
        lo, hi = min(s, t), max(s, t)
        ks = two_state_kernel(1.2, 2.0, 3.0, lo)
        kd = two_state_kernel(1.2, 2.0, 3.0, hi - lo)
        expected = ks[0, 0] * kd[0, 0] + ks[0, 1] * kd[1, 1]
        assert aging_phi(env.generator, 1, s, t) == pytest.approx(expected, abs=1e-10)
        assert aging_phi(env.generator, 1, s, t) == aging_phi(env.generator, 1, t, s)

    def test_large_time_limit(self):
        rng = RngStream(78).generator()
        net = random_connected_network(5, rng)
        env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(79))
        gen = env.generator
        s = 0.6
        row = gen.kernel_row(net.root, s)
        expected = float(row @ gen.stationary)
        assert aging_phi(gen, net.root, s, 1e7) == pytest.approx(expected, abs=1e-8)

    def test_positive(self):
        env = two_state_env()
        assert aging_phi(env.generator, 1, 0.01, 40.0) > 0.0

    def test_rejects_nonpositive_times(self):
        env = two_state_env()
        with pytest.raises(NonpositiveTime):
            aging_phi(env.generator, 1, 0.0, 1.0)


class TestSubagingPsi:
    def test_zero_window_is_one(self):
        env = two_state_env()
        assert subaging_psi(env.generator, 1, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("s,t", [(0.3, 0.9), (2.0, 0.2)])
    def test_two_state_closed_form(self, s, t):
        c, nu1, nu2 = 1.4, 2.0, 5.0
        env = two_state_env(c=c, nu1=nu1, nu2=nu2)
        kt = two_state_kernel(c, nu1, nu2, t)
        expected = math.exp(-c * s / nu1) * kt[0, 0] + math.exp(-c * s / nu2) * kt[0, 1]
        assert subaging_psi(env.generator, 1, s, t) == pytest.approx(expected, abs=1e-10)

    def test_monte_carlo_identity_scaled(self):
        # Empirical P(no jump during [a c t, a c t + c s]) from paths matches
        # the exact rescaled sub-aging value within 3 sigma.
        a_n, c_n = 2.0, 3.0
        net = build_network([1, 2], [(1, 2, 1.0)], root=1)
        nu = DiscreteMeasure(None, {1: 2.0, 2: 4.0})
        env = TrapEnvironment(net, nu, ScaleTriple(a_n, 1.0, c_n))
        s, t = 0.4, 0.5
        exact = subaging_psi(env.generator, 1, s, t, time_unit=a_n * c_n, holding_unit=c_n)
        horizon = a_n * c_n * t + c_n * s
        n_paths = 20_000
        rng = RngStream(80)
        hits = 0
        for k in range(n_paths):
            path = simulate_path(env.generator, 1, horizon + 1e-9, rng.child(k))
            if path.jumps_in(a_n * c_n * t, horizon) == 0:
                hits += 1
        emp = hits / n_paths
        sigma = math.sqrt(exact * (1 - exact) / n_paths)
        assert abs(emp - exact) <= 3 * sigma

    def test_rejects_bad_times(self):
        env = two_state_env()
        with pytest.raises(NonpositiveTime):
            subaging_psi(env.generator, 1, -0.1, 1.0)
        with pytest.raises(NonpositiveTime):
            subaging_psi(env.generator, 1, 1.0, 0.0)


class TestScaledSurface:
    def test_aging_diagonal_ones(self, unit_triangle):
        env = make_environment(unit_triangle, TrapLaw(0.5), 2.0, 4.0, RngStream(81))
        surface = scaled_surface(env, 1, [0.5, 1.0], [0.5, 1.0], "aging")
        assert surface.values[0, 0] == 1.0 and surface.values[1, 1] == 1.0

    def test_values_in_unit_interval(self, unit_triangle):
        env = make_environment(unit_triangle, TrapLaw(0.5), 2.0, 4.0, RngStream(82))
        for mode in ("aging", "subaging"):
            surface = scaled_surface(env, 1, [0.2, 1.0, 2.0], [0.3, 1.0, 4.0], mode)
            assert np.all(surface.values >= 0.0) and np.all(surface.values <= 1.0)

    def test_grid_refinement_continuity(self, unit_triangle):
        # Max neighbor jump shrinks as the grid refines (continuity surrogate).
        env = make_environment(unit_triangle, TrapLaw(0.5), 1.0, 2.0, RngStream(83))
        jumps = []
        for k in (4, 8, 16):
            ts = list(np.linspace(0.5, 2.5, k))
            surface = scaled_surface(env, 1, [1.0], ts, "aging")
            jumps.append(np.max(np.abs(np.diff(surface.values[0]))))
        assert jumps[0] >= jumps[1] >= jumps[2]


class TestExitTimeBound:
    def test_zero_horizon(self, unit_triangle):
        env = make_environment(unit_triangle, TrapLaw(0.5), 1.0, 2.0, RngStream(84))
        res = exit_time_bound_check(env, 1, 0.5, 0.1, 0.0, RngStream(85), 500)
        assert res.empirical == 0.0
        assert res.ci_high <= res.bound or res.bound > 1.0

    def test_full_ball_degenerates(self, unit_triangle):
        env = make_environment(unit_triangle, TrapLaw(0.5), 1.0, 2.0, RngStream(86))
        res = exit_time_bound_check(env, 1, 100.0, 0.1, 5.0, RngStream(87), 100)
        assert res.empirical == 0.0 and res.bound == 0.0 and res.holds

    def test_delta_out_of_range(self, unit_triangle):
        env = make_environment(unit_triangle, TrapLaw(0.5), 1.0, 2.0, RngStream(88))
        with pytest.raises(PreconditionViolated):
            exit_time_bound_check(env, 1, 0.5, 10.0, 1.0, RngStream(89), 10)

    def test_delta_below_snap_width(self):
        # The open delta-ball is empty by the snap rule; the centre keeps it
        # from having zero mass.
        net = sierpinski(2).network
        env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(88))
        bound = exit_time_bound(env, net.root, 0.5, 1e-13, 1.0)
        assert math.isfinite(bound) and bound > 0

    def test_bound_holds_on_random_instances(self):
        rng = RngStream(90).generator()
        for i in range(15):
            net = random_connected_network(int(rng.integers(4, 12)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(91).child(i))
            row = net.resistance_matrix[net.index(net.root)]
            r = float(np.quantile(row[row > 0], 0.6))
            from trapnets import boundary_resistance

            res_c = boundary_resistance(net, net.root, r)
            if math.isinf(res_c):
                continue
            delta = 0.5 * res_c
            horizon = float(rng.uniform(0.1, 2.0))
            res = exit_time_bound_check(env, net.root, r, delta, horizon,
                                        RngStream(92).child(i), 1500)
            assert res.ci_high <= res.bound + 1e-12


class TestReturnProbabilityBounds:
    def test_two_state_exact(self):
        env = two_state_env(c=1.0, nu1=2.0, nu2=6.0)
        for t in (0.1, 1.0, 25.0):
            chk = return_probability_bounds_check(env, 1, t, eps=0.2)
            assert chk.stationary_bound_holds
            expected = two_state_kernel(1.0, 2.0, 6.0, t)[0, 0]
            assert chk.kernel_value == pytest.approx(expected, abs=1e-12)

    def test_kernel_value_is_the_kernel_row_entry(self):
        env = make_environment(sierpinski(2).network, TrapLaw(0.5), 1.0, 2.0, RngStream(96))
        for x in env.network.vertex_ids[:5]:
            for t in (0.0, 0.3, 4.0):
                chk = return_probability_bounds_check(env, x, t, eps=0.2)
                row = env.generator.kernel_row(x, t)
                assert chk.kernel_value == row[env.network.index(x)]

    def test_stationary_limit_attained(self):
        env = two_state_env()
        chk = return_probability_bounds_check(env, 1, 1e8, eps=0.1)
        assert chk.kernel_value == pytest.approx(chk.stationary_bound, abs=1e-10)

    def test_both_bounds_on_random_instances(self):
        rng = RngStream(93).generator()
        for i in range(25):
            net = random_connected_network(int(rng.integers(2, 10)), rng)
            env = make_environment(net, TrapLaw(0.5), 1.0, 2.0, RngStream(94).child(i))
            x = net.vertex_ids[int(rng.integers(0, net.n_vertices))]
            t = float(rng.uniform(0.01, 20.0))
            eps = float(rng.uniform(0.1, 2.0))
            chk = return_probability_bounds_check(env, x, t, eps,
                                                  RngStream(95).child(i), 400)
            assert chk.stationary_bound_holds
            assert chk.local_bound_holds


class TestPhiMonteCarloCrossCheck:
    def test_empirical_same_site_probability(self):
        # P(X(s) = X(t)) from sampled paths against the exact kernel value.
        env = two_state_env(c=1.0, nu1=1.5, nu2=3.0)
        s, t = 0.5, 1.3
        exact = aging_phi(env.generator, 1, s, t)
        rng = RngStream(96)
        hits = 0
        n_paths = 20_000
        for k in range(n_paths):
            path = simulate_path(env.generator, 1, t + 1e-9, rng.child(k))
            if path.state_at(s) == path.state_at(t):
                hits += 1
        sigma = math.sqrt(exact * (1 - exact) / n_paths)
        assert abs(hits / n_paths - exact) <= 3 * sigma


class TestPinnedJumpChain:
    """Exact outputs of the four jump-chain entry points on a pinned gasket
    environment; any change in the order of random draws moves them."""

    @pytest.fixture
    def gasket_env(self):
        net = sierpinski(2).network
        env = make_environment(net, TrapLaw(0.5), (5 / 3) ** 2, 9.0, RngStream(5))
        return env, net.root, env.scale.a * env.scale.c

    def test_simulate_path(self, gasket_env):
        env, root, unit = gasket_env
        path = simulate_path(env.generator, root, 0.2 * unit, RngStream(11))
        assert path.states == (0, 5, 6, 1, 2, 1, 2, 3, 7, 3, 4, 8, 4, 8, 11, 8, 4, 8, 7,
                               8, 3, 2, 6)
        assert path.durations == (
            1.919722187665318, 2.1604448085899586, 5.5686406765202054, 3.702695893212498,
            0.013711251323980704, 0.5946736412294532, 0.04747258594063546,
            0.16472540865179158, 3.2594090282732924, 1.5049526338204042,
            0.5427449647770889, 4.698748099421601, 1.176858003879573, 4.373177414533741,
            1.2717359090235685, 0.6340128482063347, 1.1454143809368464,
            1.6185894582611013, 4.621118013518832, 2.106627091993771,
            0.041609981816252646, 0.1359405915120028, 3.6969751268917577)

    def test_simulate_marginal(self, gasket_env):
        env, root, unit = gasket_env
        freq = simulate_marginal(env.generator, root, 0.05 * unit, RngStream(12), 40)
        counts = np.array([21, 3, 0, 0, 0, 1, 7, 3, 0, 0, 1, 4, 0, 0, 0])
        assert np.array_equal(freq, counts / 40)

    def test_exit_time_empirical(self, gasket_env):
        env, root, unit = gasket_env
        res = exit_time_bound_check(env, root, 1.4, 0.2, 0.02 * unit, RngStream(13), 200)
        assert res.empirical == 8 / 200

    def test_return_local_bound(self, gasket_env):
        env, root, unit = gasket_env
        chk = return_probability_bounds_check(env, root, 0.05 * unit, 1.4, RngStream(14), 200)
        assert chk.local_bound == -0.09428436671377685


class TestJumpChainDigests:
    """sha256 of the jump-chain outputs on a gasket level-3 environment, so a
    change in any draw, table entry or float operation shows."""

    @staticmethod
    def digest(obj) -> str:
        return hashlib.sha256(repr(obj).encode()).hexdigest()

    def test_pinned_digests(self):
        net = sierpinski(3).network
        env = make_environment(net, TrapLaw(0.5), (5 / 3) ** 3, 27.0, RngStream(31))
        root, unit = net.root, env.scale.a * env.scale.c
        path = simulate_path(env.generator, root, 0.5 * unit, RngStream(32))
        assert self.digest((path.states, path.durations)) == (
            "77082eb870fba2928627d151e7a994ac62e40e1166cd197b2e13ee47e8b58555")
        freq = simulate_marginal(env.generator, root, 0.1 * unit, RngStream(33), 500)
        assert hashlib.sha256(freq.tobytes()).hexdigest() == (
            "209a9268f26e428c96936ff709c2bdaf0ca897c24a8165c31b1258a744ba6bd5")
        res = exit_time_bound_check(env, root, 2.0, 0.3, 0.05 * unit, RngStream(34), 300)
        assert self.digest((res.empirical, res.ci_low, res.ci_high, res.bound)) == (
            "c4c6e5165a19a781e1ccb1d20493752d96f4a86edf8e1df02e8e2d43941e030c")


class TestJumpChainEdges:
    def test_uniform_at_last_cumulative_rounding_picks_last_neighbour(self):
        # At the centre of a star with 10 unit edges the cumulative jump
        # probabilities sum to 1 - 2^-53 in floating point; a uniform equal to
        # that value must still pick a neighbour.
        class Draws:
            def exponential(self, mean):
                return 0.5 * mean

            def random(self):
                return 1.0 - 2.0 ** -53

        net = build_network(list(range(11)), [(0, k, 1.0) for k in range(1, 11)], root=0)
        gen = Generator(net, DiscreteMeasure(None, {v: 1.0 for v in range(11)}))
        path = simulate_path(gen, 0, 1.2, Draws())
        assert path.states == (0, 10, 0, 10, 0, 10)

    def test_marginal_rejects_no_paths(self):
        env = two_state_env()
        with pytest.raises(PreconditionViolated):
            simulate_marginal(env.generator, 1, 1.0, RngStream(1), 0)

    def test_exit_check_rejects_negative_paths(self, unit_triangle):
        env = make_environment(unit_triangle, TrapLaw(0.5), 1.0, 2.0, RngStream(2))
        with pytest.raises(PreconditionViolated):
            exit_time_bound_check(env, 1, 0.5, 0.1, 1.0, RngStream(3), -4)

    @pytest.mark.parametrize("stream, n_paths", [(RngStream(4), -1), (None, 200)])
    def test_return_check_rejects_paths_it_cannot_run(self, stream, n_paths):
        env = two_state_env()
        with pytest.raises(PreconditionViolated):
            return_probability_bounds_check(env, 1, 1.0, 0.2, stream, n_paths)


class TestNonFiniteTimes:
    """An infinite or NaN time is refused, not answered with NaN kernels or a
    jump chain that never reaches its horizon."""

    @pytest.fixture(scope="class")
    def env(self):
        return make_environment(sierpinski(2).network, TrapLaw(0.5), (5 / 3) ** 2, 9.0,
                                RngStream(3))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_every_entry_point_refuses(self, env, t):
        gen, root = env.generator, env.network.root
        for call in (lambda: gen.kernel_row(root, t), lambda: gen.kernel_diagonal(t),
                     lambda: gen.kernel_matrix(t), lambda: transition_kernel(gen, t),
                     lambda: return_probability_bounds_check(env, root, t, 0.5),
                     lambda: simulate_path(gen, root, t, RngStream(1)),
                     lambda: simulate_marginal(gen, root, t, RngStream(1), 10),
                     lambda: aging_phi(gen, root, 1.0, t),
                     lambda: subaging_psi(gen, root, 1.0, t)):
            with pytest.raises(NonpositiveTime):
                call()


class MpKernels:
    """Kernels of the trap chain from an mpmath eigendecomposition of the
    symmetrized generator at dps digits."""

    def __init__(self, env, dps=60):
        net = env.network
        self.env, self.dps, self.n = env, dps, net.n_vertices
        with mp.workdps(dps):
            self.nu = [mp.mpf(env.nu.atoms[v]) for v in net.vertex_ids]
            self.mu = [mp.mpf(0)] * self.n
            sym = mp.zeros(self.n, self.n)
            for x, y, w in net.edges():
                i, j = net.index(x), net.index(y)
                self.mu[i] += w
                self.mu[j] += w
                sym[i, j] = sym[j, i] = mp.mpf(w) / mp.sqrt(self.nu[i] * self.nu[j])
            for i in range(self.n):
                sym[i, i] = -self.mu[i] / self.nu[i]
            self.lam, self.vec = mp.eigsy(sym)

    def row(self, x, t):
        lam, vec, nu = self.lam, self.vec, self.nu
        with mp.workdps(self.dps):
            e = [mp.exp(lam[k] * t) for k in range(self.n)]
            return [mp.sqrt(nu[y] / nu[x]) * mp.fsum(vec[x, k] * vec[y, k] * e[k]
                                                     for k in range(self.n))
                    for y in range(self.n)]

    def diagonal(self, t):
        with mp.workdps(self.dps):
            e = [mp.exp(self.lam[k] * t) for k in range(self.n)]
            return [mp.fsum(self.vec[x, k] ** 2 * e[k] for k in range(self.n))
                    for x in range(self.n)]

    def two_point(self):
        """phi(1, 2) and psi(1, 1) at scale a*c, from the root."""
        env = self.env
        with mp.workdps(self.dps):
            unit, c = mp.mpf(env.scale.a) * mp.mpf(env.scale.c), mp.mpf(env.scale.c)
            first = self.row(env.network.index(env.network.root), unit)
            phi = mp.fsum(p * d for p, d in zip(first, self.diagonal(unit)))
            psi = mp.fsum(p * mp.exp(-self.mu[x] * c / self.nu[x]) for x, p in enumerate(first))
            return float(phi), float(psi)


def root_row_and_diagonal(gen, modes, t):
    """Root row and diagonal at time t from spectral data (eigvals, back, fwd),
    computed as Generator computes them, without its checks."""
    eigvals, back, fwd = modes
    i = gen.net.index(gen.net.root)
    return ((back[i] * np.exp(eigvals * t)) @ fwd,
            np.einsum("xk,kx->x", back * np.exp(eigvals * t), fwd))


def unchecked_two_point(gen, unit, c):
    """phi(1, 2) and psi(1, 1) from the computation the crossover picks at
    t = unit, without the checks of Generator."""
    if gen._takes_generator(unit):
        kernel = scipy.linalg.expm(gen.matrix * unit)
        row, diag = kernel[gen.net.index(gen.net.root)], np.diag(kernel)
    else:
        row, diag = root_row_and_diagonal(gen, gen._green_modes[1:], unit)
    decay = np.exp(-gen.net.total_conductance_vector * c / gen.nu_values)
    return row @ diag, row @ decay


class TestKernelPaths:
    """exp(Q t) below the generator/Green's operator crossover, the Green's
    operator above it, and a refusal where neither passes."""

    @staticmethod
    def probe_env(level, alpha):
        """Traps from the stream of the benchmark's small-alpha probes; at
        alpha 0.05 they span about 1e49."""
        return make_environment(sierpinski(level).network, TrapLaw(alpha), (5 / 3) ** level,
                                3.0 ** level, RngStream(11).child(1))

    @pytest.mark.parametrize("alpha", [0.5, 0.2, 0.1, 0.05])
    @pytest.mark.parametrize("level", [2, 3])
    def test_two_point_functions_match_mpmath(self, level, alpha):
        env = self.probe_env(level, alpha)
        root = env.network.root
        gen, unit, c = env.generator, env.scale.a * env.scale.c, env.scale.c
        exact = MpKernels(env).two_point()
        try:
            values = (aging_phi(gen, root, 1.0, 2.0, time_unit=unit),
                      subaging_psi(gen, root, 1.0, 1.0, time_unit=unit, holding_unit=c))
        except NumericalFailure:
            # A refusal is warranted: the values would be off.
            values = unchecked_two_point(gen, unit, c)
            assert max(abs(v - e) for v, e in zip(values, exact)) > dynamics._ROW_SUM_TOL
            return
        assert max(abs(v - e) for v, e in zip(values, exact)) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 0.2, 0.1, 0.05])
    @pytest.mark.parametrize("level", [2, 3])
    def test_short_times_match_mpmath(self, level, alpha):
        """Below the crossover every served root row and diagonal is within
        1e-10 of the mpmath kernels, and a call is refused only where the
        rounding model eps |S| t of exp(Q t) exceeds 1e-10.  The times run on
        a log grid from 1e-6 a*c (six decades below the crossover where that
        is earlier) up to the crossover, plus t = 1, which every probe
        serves."""
        env = self.probe_env(level, alpha)
        gen, root = env.generator, env.network.root
        crossover = math.sqrt(gen._green.norm / gen._generator_norm)
        start = min(1e-6 * env.scale.a * env.scale.c, 1e-6 * crossover)
        exact, i = MpKernels(env), env.network.index(root)
        served = 0
        for t in [1.0, *np.geomspace(start, (1 - 1e-9) * crossover, 8)]:
            assert gen._takes_generator(t)
            try:
                row, diag = gen.kernel_row(root, t), gen.kernel_diagonal(t)
            except NumericalFailure:
                assert np.finfo(float).eps * gen._generator_norm * t > 1e-10
                continue
            served += 1
            assert np.max(np.abs(row - np.array(exact.row(i, t), dtype=float))) <= 1e-10
            assert np.max(np.abs(diag - np.array(exact.diagonal(t), dtype=float))) <= 1e-10
        assert served >= 1

    @pytest.mark.parametrize("level, alpha, past", [
        (3, 0.5, 2.0), (3, 0.5, None),
        pytest.param(3, 0.2, 2.0, marks=pytest.mark.xfail(
            strict=True, reason="Green's operator kernels just past the crossover are off "
                                "by 4.9e-10 against the mpmath kernels")),
        (3, 0.2, None), (5, 0.5, 2.0), (5, 0.5, None),
    ])
    def test_chapman_kolmogorov_across_the_crossover(self, level, alpha, past):
        """P_(s+t) = P_s P_t within 1e-10 with P_s from exp(Q s) below the
        crossover and P_t from the Green's operator above it, at t = past
        times the crossover or, with past None, at t = a*c."""
        env = self.probe_env(level, alpha)
        gen = env.generator
        crossover = math.sqrt(gen._green.norm / gen._generator_norm)
        t = env.scale.a * env.scale.c if past is None else past * crossover
        assert not gen._takes_generator(t)
        for s in (0.1 * crossover, 0.5 * crossover):
            assert gen._takes_generator(s)
            product = gen.kernel_matrix(s) @ gen.kernel_matrix(t)
            assert np.max(np.abs(gen.kernel_matrix(s + t) - product)) <= 1e-10


class TestTruncatedKernels:
    """Gasket level 5 (366 vertices) takes its kernels at aging times from the
    certified slow modes of the Green's operator; elsewhere from the dense
    eigendecomposition."""

    @pytest.fixture(scope="class")
    def level5(self):
        return sierpinski(5).network

    @staticmethod
    def env(net, alpha, draw):
        return make_environment(net, TrapLaw(alpha), (5 / 3) ** 5, 3.0 ** 5,
                                RngStream(72).child(round(100 * alpha), draw))

    @staticmethod
    def green_oracle(gen, t):
        """Root row, diagonal and ascending eigenvalues theta of the Green's
        operator, from its full dense eigendecomposition."""
        kernel, theta = green_operator_kernel(gen, t)
        return kernel[gen.net.index(gen.net.root)], np.diag(kernel), theta

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    @pytest.mark.parametrize("draw", [0, 1])
    def test_agrees_with_expm_dense_and_green_oracle(self, level5, alpha, draw):
        env = self.env(level5, alpha, draw)
        gen, root = env.generator, level5.root
        unit, c = env.scale.a * env.scale.c, env.scale.c
        mu = level5.total_conductance_vector
        decay = np.exp(-mu * c / gen.nu_values)
        q_norm = float(np.max(mu / gen.nu_values))
        t_min, eigvals = gen._slow_modes[:2]
        theta = self.green_oracle(gen, unit)[2]
        # Lanczos found the top modes of M, none skipped.
        assert np.allclose(-1.0 / eigvals[:-1], theta[-len(eigvals) + 1:], rtol=1e-10, atol=0)
        for k in (1, 2):
            t = k * unit
            assert t_min <= t
            row, diag = gen.kernel_row(root, t), gen.kernel_diagonal(t)
            phi = aging_phi(gen, root, k, 2 * k, time_unit=unit)
            psi = subaging_psi(gen, root, 1.0, k, time_unit=unit, holding_unit=c)
            exact = scipy.linalg.expm(gen.matrix * t)
            tol = 1e-12 + 100 * np.finfo(float).eps * q_norm * t
            references = (
                (tol, exact[0], np.diag(exact)),
                (1e-10, *self.green_oracle(gen, t)[:2]),
            )
            for bound, ref_row, ref_diag in references:
                for value, reference in ((row, ref_row), (diag, ref_diag),
                                         (phi, ref_row @ ref_diag), (psi, ref_row @ decay)):
                    assert np.max(np.abs(value - reference)) <= bound

    @staticmethod
    def symmetric_nu(level5, kind):
        """Traps invariant under the gasket's three-corner symmetry: uniform, or
        one Pareto(0.5) draw per orbit of the symmetry.  Its two-dimensional
        representation makes eigenvalues repeat."""
        gasket = sierpinski(5)
        size = 2 ** gasket.level

        def orbit(v):
            a, b = gasket.lattice[v]
            return tuple(sorted((a, b, size - a - b)))

        orbits = sorted({orbit(v) for v in level5.vertex_ids})
        if kind == "uniform":
            draw = dict.fromkeys(orbits, 1.0)
        else:
            uniforms = RngStream(73).generator().random(len(orbits))
            draw = dict(zip(orbits, map(float, (1.0 - uniforms) ** -2.0)))
        return DiscreteMeasure(None, {v: draw[orbit(v)] for v in level5.vertex_ids})

    @staticmethod
    def omitted_max(found, theta):
        """Largest eigenvalue of the oracle spectrum theta left after taking
        out, for each Lanczos eigenvalue, the nearest oracle eigenvalue."""
        rest = list(theta)
        for value in found:
            rest.pop(int(np.argmin(np.abs(np.array(rest) - value))))
        return max(rest)

    @pytest.mark.parametrize("kind", ["uniform", "orbit draws"])
    @pytest.mark.parametrize("drop", [0, 1])
    def test_certificate_covers_repeated_and_missed_modes(self, level5, monkeypatch, kind, drop):
        """With symmetric traps the slow eigenvalues repeat, and a single
        Lanczos start vector need not see every copy; ``drop`` removes the top
        Lanczos mode to act out such a miss.  The certified time must still
        exceed cut * theta for every eigenvalue theta of M left out, and the
        kernels must match expm at the times where the left-out modes would
        matter (theta_16 * cut, the certificate ignoring them) and beyond."""
        lanczos = dynamics._lanczos

        def missing_top(apply, v0):
            theta, vecs = lanczos(apply, v0)
            return theta[:len(theta) - drop], vecs[:, :len(theta) - drop]

        monkeypatch.setattr(dynamics, "_lanczos", missing_top)
        gen = Generator(level5, self.symmetric_nu(level5, kind))
        nu, root = gen.nu_values, level5.root
        t_min, eigvals = gen._slow_modes[:2]
        found = -1.0 / eigvals[:-1]
        theta = self.green_oracle(gen, 1.0)[2]
        cut = dynamics._TRUNCATION_EXP + 0.5 * math.log(nu.sum() / nu.min())
        # The oracle has the top eigenvalue twice: the symmetry repeats it.
        assert theta[-2] == pytest.approx(theta[-1], rel=1e-9)
        assert t_min >= cut * self.omitted_max(found, theta)
        q_norm = float(np.max(level5.total_conductance_vector / nu))
        for t in (cut * found[0], 2 * cut * found[0], t_min, 2 * t_min):
            exact = scipy.linalg.expm(gen.matrix * t)
            tol = 1e-12 + 100 * np.finfo(float).eps * q_norm * t
            assert np.max(np.abs(gen.kernel_row(root, t) - exact[0])) <= tol
            assert np.max(np.abs(gen.kernel_diagonal(t) - np.diag(exact))) <= tol

    def test_one_trap_holding_nearly_all_of_nu(self, level5):
        """Deepening one trap by 1e12 leaves the slow modes nearly where they
        were, while D^(1/2) G D^(1/2), grounded at the root, would exceed M by
        about that factor and |M|_F^2 would drown in its rounding.  Grounded at
        the heaviest trap, the certified time stays put and the kernels keep
        their digits."""
        env = self.env(level5, 0.5, 0)
        atoms = dict(env.nu.atoms)
        atoms[sierpinski(5).corners[1]] *= 1e12
        gen = Generator(level5, DiscreteMeasure(None, atoms))
        t_min = gen._slow_modes[0]
        assert t_min <= 2 * env.generator._slow_modes[0]
        for t in (t_min, 2 * t_min):
            reference = green_operator_kernel(gen, t)[0]
            kernel = gen.kernel_matrix(t)
            assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-10
            assert np.max(np.abs(kernel - reference)) <= 1e-10
            assert np.max(np.abs(gen.kernel_diagonal(t) - np.diag(reference))) <= 1e-10

    @pytest.mark.parametrize("failure", [None, "no convergence", "factorization"])
    def test_uncertified_calls_take_the_dense_path(self, level5, monkeypatch, failure):
        """An uncertified or unconverged Lanczos run gives way to the full
        eigendecomposition of the Green's operator, bit for bit; a failed
        grounded factorization leaves exp(Q t) within its bound, bit for bit,
        and a refusal beyond it."""
        env = self.env(level5, 0.5, 0)
        gen, unit, root = env.generator, env.scale.a * env.scale.c, level5.root
        if failure == "factorization":
            def fail(net):
                raise NumericalFailure("grounded Laplacian is not positive definite")
            monkeypatch.setattr(ElectricalNetwork, "green_matrix", property(fail))
            # exp(Q t) serves t = 1; at a c its rounding model is past the bound.
            assert np.finfo(float).eps * gen._generator_norm * unit > dynamics._ROW_SUM_TOL
            with pytest.raises(NumericalFailure):
                gen.kernel_row(root, unit)
            t = 1.0
            exact = scipy.linalg.expm(gen.matrix * t)
            d_row, d_diag = exact[level5.index(root)], np.diag(exact)
        else:
            if failure == "no convergence":
                monkeypatch.setattr(dynamics, "_LANCZOS_STEPS", 20)
            t = 0.01 * unit if failure is None else unit
            assert not gen._takes_generator(t)
            if failure is None:
                assert t < gen._slow_modes.t_min
            else:
                assert gen._slow_modes is gen._green_modes
            assert gen._green_modes.t_min <= t
            d_row, d_diag = root_row_and_diagonal(gen, gen._green_modes[1:], t)
        assert np.array_equal(gen.kernel_row(root, t), d_row)
        assert np.array_equal(gen.kernel_diagonal(t), d_diag)

    @pytest.mark.parametrize("draw", [0, 1])
    def test_rows_sum_to_one(self, level5, draw):
        env = self.env(level5, 0.5, draw)
        for share in (0.01, 1.0, 2.0):
            kernel = env.generator.kernel_matrix(share * env.scale.a * env.scale.c)
            assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("share", [1.0, 0.01])
    def test_values_do_not_depend_on_earlier_calls(self, level5, share):
        env = self.env(level5, 0.5, 1)
        t = share * env.scale.a * env.scale.c
        late = Generator(level5, env.nu)
        late.kernel_row(level5.root, 2 * t)
        fresh = Generator(level5, env.nu)
        assert np.array_equal(late.kernel_row(level5.root, t), fresh.kernel_row(level5.root, t))
        assert np.array_equal(late.kernel_diagonal(t), fresh.kernel_diagonal(t))

    def test_fresh_generators_are_bit_identical(self, level5):
        env = self.env(level5, 0.5, 0)
        t = env.scale.a * env.scale.c
        one, two = Generator(level5, env.nu), Generator(level5, env.nu)
        assert np.array_equal(one.kernel_row(level5.root, t), two.kernel_row(level5.root, t))
        assert np.array_equal(one.kernel_diagonal(t), two.kernel_diagonal(t))
        assert np.array_equal(one.kernel_matrix(t), two.kernel_matrix(t))
