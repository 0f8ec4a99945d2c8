import hashlib
import math
import sys

import numpy as np
import pytest

from trapnets.ensembles import UniformConductanceLaw, conductance_path, sierpinski
from trapnets.errors import ConfigError
from trapnets.experiments import (
    _ENSEMBLES,
    ExperimentConfig,
    ResultTable,
    bootstrap_ci,
    default_scales,
    run_aging_experiment,
    run_metric_convergence,
    run_subaging_experiment,
    run_trap_convergence,
    run_two_point_experiment,
)
from trapnets.networks import ball_tolerance
from trapnets.rng import RngStream
from trapnets.serialize import network_to_json
from trapnets.traps import TrapLaw


def gasket_config(**overrides):
    raw = {"ensemble": "sierpinski", "levels": [1, 2, 3], "alpha": 0.5,
           "seed": 9, "replicas": 12, "s_grid": [1.0], "t_grid": [2.0]}
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"ensemble": "nope", "levels": [1], "alpha": 0.5, "seed": 0})
        with pytest.raises(ConfigError):
            gasket_config(levels=[3, 2])
        with pytest.raises(ConfigError):
            gasket_config(alpha=1.5)
        with pytest.raises(ConfigError):
            gasket_config(replicas=0)
        with pytest.raises(ConfigError):
            gasket_config(sampler="sobol", ensemble="er_component", levels=[100])

    def test_sobol_needs_power_of_two_replicas(self):
        # Sobol points keep their balance only in runs of 2^k.
        for replicas in (3, 12):
            with pytest.raises(ConfigError, match="config key 'replicas'"):
                gasket_config(sampler="sobol", replicas=replicas)
        for replicas in (1, 2, 16):
            assert gasket_config(sampler="sobol", replicas=replicas).replicas == replicas

    @pytest.mark.parametrize("field, value", [
        ("t_grid", [-1.0]), ("t_grid", [2.0, 0.0]), ("t_grid", [float("nan")]),
        ("s_grid", [-0.5]), ("s_grid", [1.0, -1e-9]),
        ("workers", 0), ("workers", -2),
    ])
    def test_bad_grids_and_workers_rejected(self, field, value):
        with pytest.raises(ConfigError):
            gasket_config(**{field: value})

    @pytest.mark.parametrize("key, value", [
        ("levels", [1.5, 2]), ("levels", "12"), ("levels", [True, 2]),
        ("t_grid", 2), ("s_grid", ["1"]), ("alpha", "0.5"), ("seed", "3"),
        ("replicas", 2.7), ("replicas", True), ("workers", 1.0), ("bootstrap", None),
        ("boxes", [[1.0]]), ("boxes", 1.0), ("path_bounds", [0.5]),
        ("boxes", [[1.0, 0.0]]), ("boxes", [[1.0, -0.5]]), ("boxes", [[0.0, 1.0]]),
        ("boxes", [[0.5, 1.0], [-1.0, 1.0]]), ("bootstrap", -3),
    ])
    def test_malformed_values_rejected_by_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            gasket_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("alpha", float("nan")), ("t_grid", [float("inf")]), ("s_grid", [1.0, float("nan")]),
        ("path_bounds", [0.5, float("inf")]), ("path_bounds", [2.0, 0.5]),
        ("path_bounds", [0.0, 1.0]), ("prm_floor", -1.0), ("prm_floor", 0.0),
        ("prm_floor", 10 ** 400), ("boxes", [[float("inf"), 1.0]]),
        ("t_grid", []), ("s_grid", []), ("s_grid", [1.0, 1.0]), ("t_grid", [2.0, 0.5, 2.0]),
    ])
    def test_out_of_range_values_rejected_by_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            gasket_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("ensemble", "x"), ("ensemble", 5), ("levels", []), ("levels", [2, 1]),
        ("levels", [1, 1]), ("alpha", 1.5), ("alpha", 0.0), ("replicas", 0),
        ("sampler", "x"), ("sampler", ["mc"]), ("t_grid", [-1]), ("t_grid", [0.0]),
        ("s_grid", [-1]), ("workers", 0), ("boxes", [[0.0, 1.0]]), ("bootstrap", -1),
        ("prm_floor", 0.0), ("path_bounds", [2.0, 0.5]), ("experiment", ["aging"]),
        ("experiment", ""), ("out", 5), ("out", ""),
    ])
    def test_each_key_rule_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be "):
            gasket_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("lambda", float("nan")), ("lambda", -100.0), ("lambda", 1e9), ("levels", [1, 40]),
    ])
    def test_er_edge_probability_outside_the_unit_interval(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            gasket_config(**{"ensemble": "er_component", "levels": [40, 80], key: value})

    @pytest.mark.parametrize("kind, levels", [
        ("sierpinski", [-1, 1]), ("sierpinski", [1, 10]), ("conductance_path", [-1, 1]),
        ("cayley_tree", [0, 2]), ("er_component", [1, 2]),
    ])
    def test_levels_outside_the_kind_range_rejected(self, kind, levels):
        with pytest.raises(ConfigError, match=f"config key 'levels' must be .* for {kind}"):
            gasket_config(ensemble=kind, levels=levels)

    @pytest.mark.parametrize("key, value", [("replica", 100), ("u_min", 2.0)])
    def test_unknown_keys_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            gasket_config(**{key: value})

    def test_default_scales(self):
        law = TrapLaw(0.5)
        s = default_scales("sierpinski", 3, law)
        assert s.a == pytest.approx((5.0 / 3.0) ** 3)
        assert s.b == pytest.approx(27.0)
        assert s.c == pytest.approx(27.0 ** 2)
        s = default_scales("er_component", 1000, law)
        assert s.a == pytest.approx(10.0)
        assert s.b == pytest.approx(100.0)


class TestNestedLevels:
    @pytest.mark.parametrize("kind", ["sierpinski", "conductance_path"])
    @pytest.mark.parametrize("n", range(4))
    def test_level_sites_nest(self, kind, n):
        config = gasket_config(ensemble=kind, levels=[n, n + 1])
        low, high = (_ENSEMBLES[kind].level(config, m, 4) for m in (n, n + 1))
        position = dict(zip(high.sites, high.coords.values()))
        assert set(low.sites) <= set(position)
        # A shared site has one scaled position at both levels.
        assert all(position[site] == c for site, c in zip(low.sites, low.coords.values()))

    @pytest.mark.parametrize("n", range(5))
    def test_independent_draw_is_the_level_with_top_n(self, n):
        config = gasket_config(ensemble="conductance_path", levels=[n])
        stream = RngStream(31).child(n)
        law = UniformConductanceLaw(*config.path_bounds)
        built = _ENSEMBLES["conductance_path"].level(config, n, n).network(stream)
        assert network_to_json(built) == network_to_json(conductance_path(2 ** n, law,
                                                                          stream).network)
        built = _ENSEMBLES["sierpinski"].level(config, n, n).network(stream)
        assert network_to_json(built) == network_to_json(sierpinski(n).network)


class TestResultTable:
    def test_ci_brackets(self):
        table = ResultTable()
        with pytest.raises(Exception):
            table.add(1, 0, 0.0, 0.0, "x", 1.0, ci_low=2.0, ci_high=3.0)

    def test_bootstrap_ci_brackets_mean(self):
        rng = RngStream(1).generator()
        values = rng.random(50)
        mean, lo, hi = bootstrap_ci(values, rng)
        assert lo <= mean <= hi


class TestAgingExperiments:
    def test_bit_identical_reruns(self):
        a = run_aging_experiment(gasket_config()).to_csv()
        b = run_aging_experiment(gasket_config()).to_csv()
        assert a == b

    def test_seed_changes_output(self):
        a = run_aging_experiment(gasket_config()).to_csv()
        b = run_aging_experiment(gasket_config(seed=10)).to_csv()
        assert a != b

    def test_values_in_unit_interval_and_cis_bracket(self):
        table = run_aging_experiment(gasket_config(replicas=6))
        assert table.rows
        for row in table.rows:
            assert row.ci_low <= row.value <= row.ci_high
            if row.statistic == "phi":
                assert 0.0 <= row.value <= 1.0

    def test_single_replica_rows(self):
        table = run_aging_experiment(gasket_config(levels=[2], replicas=1,
                                                   s_grid=[1.0], t_grid=[1.5, 2.0]))
        assert len(table.select("phi")) == 2

    def test_subaging_zero_window_column(self):
        table = run_subaging_experiment(gasket_config(s_grid=[0.0, 1.0], replicas=4))
        for row in table.select("psi"):
            if row.s == 0.0:
                assert row.value == 1.0
            assert row.value <= 1.0

    def test_workers_do_not_change_results(self):
        a = run_two_point_experiment(gasket_config(replicas=8)).to_csv()
        b = run_two_point_experiment(gasket_config(replicas=8, workers=3)).to_csv()
        assert a == b
        # Level 5 takes the truncated path: the threads share the network, its
        # grounded factor and concurrent Lanczos iterations.
        a = run_two_point_experiment(gasket_config(levels=[5], replicas=6)).to_csv()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = run_two_point_experiment(gasket_config(levels=[5], replicas=6, workers=3)).to_csv()
        finally:
            sys.setswitchinterval(interval)
        assert a == b

    def test_stabilization_rows_present(self):
        table = run_aging_experiment(gasket_config())
        diffs = table.select("phi_stabilization_diff")
        assert len(diffs) == 2  # three levels -> two successive differences

    def test_cayley_ensemble_runs(self):
        cfg = ExperimentConfig.from_dict({
            "ensemble": "cayley_tree", "levels": [10, 20], "alpha": 0.5,
            "seed": 3, "replicas": 3, "s_grid": [1.0], "t_grid": [2.0]})
        table = run_aging_experiment(cfg)
        assert len(table.select("phi")) == 6

    def test_sobol_sampler_runs_and_is_deterministic(self):
        a = run_aging_experiment(gasket_config(sampler="sobol", replicas=8)).to_csv()
        b = run_aging_experiment(gasket_config(sampler="sobol", replicas=8)).to_csv()
        assert a == b


class TestTrapConvergence:
    def test_sobol_sampler_refused(self):
        with pytest.raises(ConfigError, match="sobol"):
            run_trap_convergence(gasket_config(sampler="sobol", replicas=8))

    def test_pareto_residual_identically_zero_ish(self):
        table = run_trap_convergence(gasket_config(levels=[1, 2], replicas=2000))
        residuals = [abs(r.value) for r in table.select("scaling_identity_residual")]
        assert residuals and max(residuals) < 1e-12

    @pytest.mark.parametrize("levels, alpha, boxes", [
        ([0, 1], 0.5, ()),                     # level 0: c = 1, default u = 0.5
        ([1], 0.99, ((1.0, 0.01), (1.0, 1.0))),
    ])
    def test_residual_rows_only_where_the_identity_holds(self, levels, alpha, boxes):
        # The identity b P(xi / c > u) = u^(-alpha) needs c u >= u_min; a box
        # below that gets void rows but no residual row.
        cfg = gasket_config(levels=levels, alpha=alpha, replicas=20, boxes=boxes)
        table = run_trap_convergence(cfg)
        rows = table.select("scaling_identity_residual")
        assert rows and max(abs(r.value) for r in rows) < 1e-12
        law = cfg.law()
        left_out = 0
        for n in levels:
            c = default_scales("sierpinski", n, law).c
            written = {r.t for r in rows if r.n == n}
            probed = {r.t for r in table.select("pi_void_expected") if r.n == n}
            assert written == {u for u in probed if c * u >= law.u_min}
            left_out += len(probed - written)
        assert left_out

    @pytest.mark.parametrize("kind, levels", [("cayley_tree", [1, 2]), ("er_component", [2, 3])])
    def test_one_vertex_level_gets_default_boxes(self, kind, levels):
        # Level 1 of the tree, and the largest component of G(2, 1/2) at seed
        # 0, are single vertices: no other point gives a default radius.
        cfg = gasket_config(ensemble=kind, levels=levels, seed=0, replicas=20)
        table = run_trap_convergence(cfg)
        assert {r.n for r in table.select("pi_void_empirical")} == set(levels)

    def test_void_pvalues_not_systematically_rejected(self):
        table = run_trap_convergence(gasket_config(levels=[2], replicas=4000))
        agg = [r.value for r in table.select("pi_void_aggregate_pvalue")]
        assert agg and all(p > 0.01 for p in agg)
        prm = [r.value for r in table.select("prm_void_aggregate_pvalue")]
        assert prm and all(p > 0.01 for p in prm)

    def test_empty_box_void_probability_one(self):
        # A radius inside the ball's snap width leaves even the root on the
        # sphere: the box has no vertices, so the void event is certain.
        cfg = gasket_config(levels=[1], replicas=50, boxes=((1e-13, 1.0),))
        table = run_trap_convergence(cfg)
        rows = table.select("pi_void_empirical")
        assert rows and all(r.value == 1.0 for r in rows)

    def test_default_box_radius_ties_are_outside(self):
        # Default radii are quantiles of the realized root resistances; at
        # level 3 and seed 3 the radius 0.51872 equals the resistance of two
        # vertices, which the open box must leave out however they rounded.
        import networkx as nx

        cfg = gasket_config(levels=[1, 2, 3], seed=3, replicas=6)
        law = cfg.law()
        scale = default_scales("sierpinski", 3, law)
        net = sierpinski(3).network
        g = nx.Graph()
        g.add_weighted_edges_from(net.edges())
        scaled = [nx.resistance_distance(g, net.root, v, weight="weight", invert_weight=False)
                  / scale.a for v in net.vertex_ids if v != net.root]
        rows = [row for row in run_trap_convergence(cfg).select("pi_void_expected")
                if row.n == 3 and abs(row.s - 0.51872) < 1e-9]
        assert rows
        for row in rows:
            count = math.log(row.value) / math.log(1.0 - law.tail(scale.c * row.t))
            inside = 1 + sum(d < row.s - ball_tolerance(row.s) for d in scaled)
            assert round(count) == inside


class TestMetricConvergence:
    def test_gasket_local_hausdorff_bound(self):
        table = run_metric_convergence(gasket_config(levels=[1, 2, 3], replicas=2))
        rows = sorted(table.select("vertex_local_hausdorff"), key=lambda r: r.n)
        assert len(rows) == 2
        for row in rows:
            n_prev = row.n - 1
            assert row.value <= 2.0 ** -n_prev + 1e-12

    def test_trap_dmdis_decays(self):
        table = run_metric_convergence(gasket_config(levels=[1, 2, 3], replicas=3))
        by_level = {}
        for r in table.select("trap_dmdis"):
            by_level.setdefault(r.n, []).append(r.value)
        levels = sorted(by_level)
        means = [float(np.mean(by_level[n])) for n in levels]
        assert means[-1] < means[0]

    def test_identical_levels_give_zero(self):
        # Degenerate check through the API: a single level yields no pairs;
        # construct the distance directly instead.
        from trapnets.measures import DiscreteMeasure, dis_measure_distance
        from trapnets import sierpinski
        from trapnets.networks import FiniteMetricSpace

        g = sierpinski(2)
        pts = sorted(g.coords.values())
        arr = np.array(pts)
        dist = np.sqrt(((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2))
        space = FiniteMetricSpace(tuple(range(len(pts))), dist, 0)
        atoms = {i: 1.0 + 0.1 * i for i in range(len(pts))}
        nu = DiscreteMeasure(space, atoms)
        assert dis_measure_distance(nu, nu) == 0.0

    @pytest.mark.parametrize("kind", ["sierpinski", "conductance_path"])
    def test_sobol_sampler_honored(self, kind):
        cfg = {"ensemble": kind, "levels": [1, 2], "replicas": 4}
        a = run_metric_convergence(gasket_config(sampler="sobol", **cfg)).to_csv()
        b = run_metric_convergence(gasket_config(sampler="sobol", **cfg)).to_csv()
        assert a == b
        assert a != run_metric_convergence(gasket_config(**cfg)).to_csv()

    def test_er_skipped_with_report(self):
        cfg = ExperimentConfig.from_dict({
            "ensemble": "er_component", "levels": [50], "alpha": 0.5,
            "seed": 1, "replicas": 1})
        table = run_metric_convergence(cfg)
        assert table.select("skipped_no_common_embedding")

    def test_path_ensemble_supported(self):
        cfg = ExperimentConfig.from_dict({
            "ensemble": "conductance_path", "levels": [1, 2], "alpha": 0.5,
            "seed": 2, "replicas": 2})
        table = run_metric_convergence(cfg)
        assert table.select("vertex_local_hausdorff")
        assert table.select("trap_dmdis")


class TestFailureHandling:
    def test_replica_failures_flushed_and_counted(self, monkeypatch):
        import trapnets.experiments as ex
        from trapnets.errors import NumericalFailure

        calls = {"n": 0}
        real = ex._scaled_phi

        def flaky(env, root, s, t):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalFailure("injected")
            return real(env, root, s, t)

        monkeypatch.setattr(ex, "_scaled_phi", flaky)
        table = ex.run_aging_experiment(gasket_config(levels=[1, 2], replicas=4))
        assert table.failures == 1
        assert len(table.select("phi")) == 7  # one of eight evaluations lost

    def test_one_failure_costs_one_cell(self):
        # aging_phi refuses s = 0; the s = 0.5 values of the same replica and
        # level are kept, and each refused cell counts once.
        table = run_aging_experiment(gasket_config(replicas=3, s_grid=[0.0, 0.5]))
        assert table.failures == 9
        phi = table.select("phi")
        assert len(phi) == 9 and {r.s for r in phi} == {0.5}
        assert {r.n for r in table.select("phi_annealed_mean")} == {1, 2, 3}

    def test_stabilization_diffs_skip_a_level_without_means(self, monkeypatch):
        import trapnets.experiments as ex
        from trapnets.errors import NumericalFailure

        real = ex._scaled_phi

        def level_2_fails(env, root, s, t):
            if env.network.n_vertices == sierpinski(2).network.n_vertices:
                raise NumericalFailure("injected")
            return real(env, root, s, t)

        monkeypatch.setattr(ex, "_scaled_phi", level_2_fails)
        table = ex.run_aging_experiment(gasket_config(levels=[1, 2, 3, 4], replicas=2))
        means = {r.n: r.value for r in table.select("phi_annealed_mean")}
        assert sorted(means) == [1, 3, 4]
        diffs = table.select("phi_stabilization_diff")
        assert [(r.n, r.value) for r in diffs] == [(4, abs(means[4] - means[3]))]


class TestPathEnsembleTwoPoint:
    def test_conductance_path_aging_runs(self):
        cfg = ExperimentConfig.from_dict({
            "ensemble": "conductance_path", "levels": [1, 2, 3], "alpha": 0.5,
            "seed": 5, "replicas": 4, "s_grid": [1.0], "t_grid": [2.0]})
        table = run_aging_experiment(cfg)
        values = [r.value for r in table.select("phi")]
        assert len(values) == 12 and all(0.0 <= v <= 1.0 for v in values)
        assert run_aging_experiment(cfg).to_csv() == table.to_csv()


class TestWindowCertification:
    def test_path_window_exit_bound_rows(self):
        cfg = ExperimentConfig.from_dict({
            "ensemble": "conductance_path", "levels": [6, 8], "alpha": 0.8,
            "seed": 4, "replicas": 2, "s_grid": [0.1], "t_grid": [0.1]})
        table = run_aging_experiment(cfg)
        rows = {r.n: r.value for r in table.select("window_exit_bound")}
        assert set(rows) == {6, 8}
        assert all(0.0 <= v <= 1.0 for v in rows.values())
        # the wider window certifies a smaller exit probability
        assert rows[8] <= rows[6]

    def test_one_boundary_solve_per_level(self, monkeypatch):
        from trapnets import networks

        solves = []
        real = networks.resistance_between_sets

        def counting(*args):
            solves.append(args)
            return real(*args)

        monkeypatch.setattr(networks, "resistance_between_sets", counting)
        cfg = ExperimentConfig.from_dict({
            "ensemble": "conductance_path", "levels": [2, 3], "alpha": 0.5,
            "seed": 4, "replicas": 1, "s_grid": [1.0], "t_grid": [2.0]})
        table = run_aging_experiment(cfg)
        assert len(table.select("window_exit_bound")) == 2
        assert len(solves) == 2

    def test_tables_reproducible(self):
        cfg = gasket_config(levels=[1, 2], replicas=30)
        assert run_trap_convergence(cfg).to_csv() == run_trap_convergence(cfg).to_csv()
        assert run_metric_convergence(cfg).to_csv() == run_metric_convergence(cfg).to_csv()


# sha256 of ``to_csv()`` plus the failure count, per (experiment, ensemble,
# sampler), recorded before the runners shared one ensemble table.  Any change
# to a random stream, to the numbering of the coupling keys or to row order
# moves a digest.  The values also depend on the floating-point results of
# the installed numpy/scipy build; re-record them from a known-good commit
# if a platform change alone moves them.
PINNED_DIGESTS = {
    ("aging", "sierpinski", "mc"):
        "81c445805c3b5324295e2809ca80a26b802bb189fd899c02e03e7e59249d0528",
    ("aging", "sierpinski", "sobol"):
        "526dde5e017a2c276db2a649183f44362278d7ad1f95ecb5710d1f137dc9fcd0",
    ("aging", "conductance_path", "mc"):
        "e85adf1d142f38d5e80d8474092639d15ea1d5a688581f0cf8420c02ca528347",
    ("aging", "conductance_path", "sobol"):
        "e3a37dae42b1b31dc2b1b80da2ca316c2a03c9426a942d75313092afdbcfba4e",
    ("aging", "cayley_tree", "mc"):
        "f650ce0612c42d7016d267fda5af0e19a020cd6056e30a76880a268c054effb7",
    ("aging", "er_component", "mc"):
        "eb65cd2ece2b41e1efb14c0465ba01d689b60aa0654b87825a1e4e192b0f7e68",
    ("subaging", "sierpinski", "mc"):
        "de1aeee263cc5cf1302afda6d8f069f852f1b0f2a60d77fc93eb3e04bdfa39a0",
    ("subaging", "sierpinski", "sobol"):
        "fb46fcc8d5650c5c167547d7e2415cbbfe805f25273e558e1b4051f0a9106dcb",
    ("subaging", "conductance_path", "mc"):
        "4e53265e4ecfc4cda8114a87180ef22ab5f1576847df0d0cec58f02c5acd3d43",
    ("subaging", "conductance_path", "sobol"):
        "089353520a22793c3f0f35370ab36483ce3c7498e4f13c0d02c255fea288d43a",
    ("subaging", "cayley_tree", "mc"):
        "0aeaac8409a0cfc2a87c5a06968ca7ac5eac72d9967db4f7d71cb27aba953286",
    ("subaging", "er_component", "mc"):
        "db48230d888eb01ba56dc87d36121935285733c66f9f70fd772d8f64f878efc4",
    ("two_point", "sierpinski", "mc"):
        "225c1aa1942430545de0a1fc9fad735671880c0dd20e65293d95bffb378654a2",
    ("two_point", "sierpinski", "sobol"):
        "4723d1bc82dd94280988b1c9a10d74822756e29e765efc57f763926687d6ab5e",
    ("two_point", "conductance_path", "mc"):
        "b0615b0cc91332b941b9072536ab5e295ef0c60d0c483ddca8bcc729d273e9f3",
    ("two_point", "conductance_path", "sobol"):
        "41291c0a01da183ca3e4ff1dd4974adf807fbe92f0b3b5c7113ad65cfdb37129",
    ("two_point", "cayley_tree", "mc"):
        "6eb064346f59c260d587d6af7d64a6474e62ecd6b2e484d9e8b55b5210784256",
    ("two_point", "er_component", "mc"):
        "95ab6cd4598b73af59df7e5398743f4b7993afc19b746e5a6fa803b737717be0",
    ("traps", "sierpinski", "mc"):
        "9cd58d6ea12a017dcc227d8b8ec820645418ff415cf9a4e8312eb85d2cd48577",
    ("traps", "conductance_path", "mc"):
        "83d41ae9639e811d69e04b9073fbff5017b6bd2a029818079daa208309d99730",
    ("traps", "cayley_tree", "mc"):
        "48086ca2f61e77ec7e783b34341766e2721cb1c2345d8114cde68b8c7bf1342c",
    ("traps", "er_component", "mc"):
        "1efe639c79caab2f2af12de5e8f55a23a2dddcca9fd1d5c486b7c3c28e448f43",
    ("metrics", "sierpinski", "mc"):
        "e5050c76ff302febd0cdfec98377eba9ded0db4b9adf9f5f21ed177b98d5aec9",
    ("metrics", "conductance_path", "mc"):
        "41e2765a2a8e70c4e0de63035db92fc3a61df062dec57330cc1e78c3a0aacdd1",
    ("metrics", "cayley_tree", "mc"):
        "9f0d882a67c0db23d7b6aa8f42e5522088de5040d9426c5d700ce9a006dc6fb5",
    ("metrics", "er_component", "mc"):
        "9f0d882a67c0db23d7b6aa8f42e5522088de5040d9426c5d700ce9a006dc6fb5",
}

_DIGEST_RUNNERS = {
    "aging": run_aging_experiment,
    "subaging": run_subaging_experiment,
    "two_point": run_two_point_experiment,
    "traps": run_trap_convergence,
    "metrics": run_metric_convergence,
}
_DIGEST_LEVELS = {"sierpinski": [1, 2, 3], "conductance_path": [1, 2, 3],
                  "cayley_tree": [8, 16], "er_component": [40, 80]}


def test_pinned_csv_digests():
    moved = []
    for (experiment, kind, sampler), expected in PINNED_DIGESTS.items():
        for workers in (1, 2):
            config = ExperimentConfig.from_dict({
                "ensemble": kind, "levels": _DIGEST_LEVELS[kind], "alpha": 0.6,
                "seed": 5, "workers": workers, "sampler": sampler, "bootstrap": 50,
                "replicas": 40 if experiment == "traps" else 4, "t_grid": [1.0, 2.0],
                "s_grid": [0.0, 0.5] if experiment == "subaging" else [0.5, 1.5]})
            table = _DIGEST_RUNNERS[experiment](config)
            payload = table.to_csv() + f"failures={table.failures}\n"
            if hashlib.sha256(payload.encode()).hexdigest() != expected:
                moved.append((experiment, kind, sampler, workers))
    assert not moved
