import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapnets
from trapnets.cli import main
from trapnets.ensembles import surplus_attachment, tilted_tree
from trapnets.experiments import ExperimentConfig, run_two_point_experiment
from trapnets.rng import RngStream
from trapnets.serialize import (
    discrete_measure_from_json,
    environment_to_json,
    network_from_json,
    network_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def gasket_file(tmp_path):
    path = tmp_path / "g.json"
    code = main(["generate", "--ensemble", "sierpinski", "--level", "2",
                 "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_sierpinski_valid_json(self, gasket_file):
        payload = json.loads(gasket_file.read_text())
        assert set(payload) >= {"vertices", "edges", "root"}
        net = network_from_json(gasket_file.read_text())
        assert net.n_vertices == 15

    def test_er_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--ensemble", "er", "--size", "50"])
        assert err.value.code == 2

    def test_er_with_seed(self, tmp_path):
        out = tmp_path / "er.json"
        assert main(["generate", "--ensemble", "er", "--size", "50",
                     "--seed", "4", "--out", str(out)]) == 0
        net = network_from_json(out.read_text())
        assert net.n_vertices >= 1

    def test_cayley_is_unit_tree_rooted_at_1(self, tmp_path):
        out = tmp_path / "tree.json"
        assert main(["generate", "--ensemble", "cayley", "--size", "12",
                     "--seed", "5", "--out", str(out)]) == 0
        net = network_from_json(out.read_text())
        edges = list(net.edges())
        assert sorted(net.vertex_ids) == list(range(1, 13))
        assert net.root == 1
        assert len(edges) == 11
        assert all(w == 1.0 for _, _, w in edges)
        # size - 1 edges that connect every label make a tree.
        reached, frontier = {1}, [1]
        while frontier:
            for w in net.neighbors(frontier.pop()):
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        assert reached == set(range(1, 13))

    @pytest.mark.parametrize("ensemble", ["sierpinski", "path", "cayley", "tilted", "er"])
    def test_every_ensemble_runs_at_its_defaults(self, tmp_path, ensemble):
        out = tmp_path / "net.json"
        assert main(["generate", "--ensemble", ensemble, "--seed", "1", "--out", str(out)]) == 0
        assert network_from_json(out.read_text()).n_vertices >= 1

    def test_tilted_draws_tree_and_surplus_from_child_streams(self, tmp_path):
        out = tmp_path / "tilted.json"
        assert main(["generate", "--ensemble", "tilted", "--size", "8", "--p", "0.5",
                     "--seed", "3", "--out", str(out)]) == 0
        tree = tilted_tree(8, 0.5, RngStream(3).child(0))
        expected = surplus_attachment(tree, 0.5, RngStream(3).child(1))
        assert out.read_text() == network_to_json(expected)


class TestRoundTrips:
    def test_network_json_bit_exact(self, gasket_file):
        text = gasket_file.read_text()
        net = network_from_json(text)
        again = network_to_json(net, coords=None)
        assert network_from_json(again).edges() == net.edges()
        assert network_to_json(network_from_json(again)) == again

    def test_environment_round_trip(self, gasket_file):
        from trapnets import TrapLaw, make_environment
        from trapnets.rng import RngStream

        net = network_from_json(gasket_file.read_text())
        env = make_environment(net, TrapLaw(0.5), 1.0, 9.0, RngStream(5))
        payload = json.loads(environment_to_json(env, seed=5))
        assert network_from_json(json.dumps(payload["network"])).edges() == net.edges()
        assert {int(v): float(w) for v, w in payload["weights"].items()} == env.nu.atoms
        assert payload["scale"] == [env.scale.a, env.scale.b, env.scale.c]
        assert payload["seed"] == 5

    def test_measure_round_trip(self, gasket_file):
        net = network_from_json(gasket_file.read_text())
        space = net.resistance_space
        from trapnets.measures import DiscreteMeasure

        mu = DiscreteMeasure(space, {0: 1.5, 3: 0.25})
        text = json.dumps([{"point": p, "weight": w} for p, w in mu.atoms.items()])
        back = discrete_measure_from_json(text, space)
        assert back.atoms == mu.atoms


class TestDynamicsCommands:
    def test_aging_row_deterministic(self, capsys, gasket_file):
        args = ["aging", "--net", str(gasket_file), "--alpha", "0.5",
                "--seed", "7", "--s", "1", "--t", "2"]
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "s,t,value"
        s, t, value = lines[1].split(",")
        assert (s, t) == ("1", "2") and 0.0 <= float(value) <= 1.0

    def test_subaging_zero_window(self, capsys, gasket_file):
        code, out, _ = run_cli(capsys, "subaging", "--net", str(gasket_file),
                               "--alpha", "0.5", "--seed", "3",
                               "--s", "0", "--t", "1")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "1"

    def test_simulate_writes_path(self, capsys, gasket_file):
        code, out, _ = run_cli(capsys, "simulate", "--net", str(gasket_file),
                               "--alpha", "0.5", "--seed", "11",
                               "--horizon", "5.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,duration"
        durations = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(durations) == pytest.approx(5.0)

    @pytest.mark.parametrize("flag", ["--horizon", "--kernel-at"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_simulate_non_finite_time_exits_1(self, capsys, gasket_file, flag, value):
        code, out, err = run_cli(capsys, "simulate", "--net", str(gasket_file),
                                 "--alpha", "0.5", "--seed", "11", flag, value)
        assert code == 1 and out == ""
        assert "error:" in err and "finite" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_subaging_non_finite_window_exits_1(self, capsys, gasket_file, value):
        code, out, err = run_cli(capsys, "subaging", "--net", str(gasket_file),
                                 "--alpha", "0.5", "--seed", "3", "--s", value, "--t", "1")
        assert code == 1 and out == ""
        assert "error:" in err and "finite" in err

    def test_aging_non_finite_times_exit_1(self, capsys, gasket_file):
        code, out, err = run_cli(capsys, "aging", "--net", str(gasket_file),
                                 "--alpha", "0.5", "--seed", "3", "--s", "inf", "--t", "inf")
        assert code == 1 and out == ""
        assert "error:" in err and "finite" in err

    def test_missing_seed_exits_2(self, gasket_file):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--net", str(gasket_file), "--alpha", "0.5",
                  "--horizon", "1.0"])
        assert err.value.code == 2


class TestResistanceCommand:
    def test_pairwise(self, capsys, gasket_file):
        code, out, _ = run_cli(capsys, "resistance", "--net", str(gasket_file),
                               "--source", "0", "--target", "14")
        assert code == 0
        value = float(out.strip())
        assert value == pytest.approx((2.0 / 3.0) * (5.0 / 3.0) ** 2, abs=1e-9)

    @pytest.mark.parametrize("text", [
        pytest.param('{"vertices": [1, 2], "edges": ', id="truncated"),
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param('{"vertices": [1, 2], "edges": [[1, 2, Infinity]], "root": 1}',
                     id="infinite-conductance"),
    ])
    def test_malformed_network_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "net.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "resistance", "--net", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_whole_matrix_bytes(self, capsys, tmp_path):
        path = tmp_path / "g1.json"
        assert main(["generate", "--ensemble", "sierpinski", "--level", "1",
                     "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "resistance", "--net", str(path))
        assert code == 0
        assert out == (
            ",0,1,2,3,4,5\n"
            "0,0,0.611111111111111,1.11111111111111,0.611111111111111,0.833333333333333,"
            "1.11111111111111\n"
            "1,0.611111111111111,0,0.611111111111111,0.444444444444444,0.444444444444444,"
            "0.833333333333333\n"
            "2,1.11111111111111,0.611111111111111,0,0.833333333333333,0.611111111111111,"
            "1.11111111111111\n"
            "3,0.611111111111111,0.444444444444444,0.833333333333333,0,0.444444444444444,"
            "0.611111111111111\n"
            "4,0.833333333333333,0.444444444444444,0.611111111111111,0.444444444444444,0,"
            "0.611111111111111\n"
            "5,1.11111111111111,0.833333333333333,1.11111111111111,0.611111111111111,"
            "0.611111111111111,0\n")

    def test_boundary(self, capsys, gasket_file):
        code, out, _ = run_cli(capsys, "resistance", "--net", str(gasket_file),
                               "--source", "0", "--boundary", "100.0")
        assert code == 0 and out.strip() == "inf"

    def test_boundary_infinite_radius(self, capsys, gasket_file):
        code, out, _ = run_cli(capsys, "resistance", "--net", str(gasket_file),
                               "--source", "0", "--boundary", "inf")
        assert code == 0 and out.strip() == "inf"


class TestMetricsCommand:
    def test_distances_printed(self, capsys, tmp_path, gasket_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([{"point": 0, "weight": 1.0}]))
        b.write_text(json.dumps([{"point": 0, "weight": 2.0}]))
        code, out, _ = run_cli(capsys, "metrics", "--net", str(gasket_file),
                               "--measure-a", str(a), "--measure-b", str(b))
        assert code == 0
        values = dict(line.split(",") for line in out.strip().splitlines())
        assert set(values) == {"prohorov", "vague", "dis_measure"}
        assert float(values["prohorov"]) == pytest.approx(1.0)


    @pytest.mark.parametrize("text, message", [
        ('[{"point": 0, "weight": ', "malformed measure JSON"),
        ('{"point": 0}', "measure JSON must be a list"),
        ('[1]', "measure JSON row 1 is not an object"),
        ('[{"weight": 1.0}]', "is not an object with point and weight"),
        ('[{"point": [0], "weight": 1.0}]', "point [0] is not a number"),
        ('[{"point": 0, "weight": "x"}]', "weight 'x' is not a number"),
    ], ids=["truncated", "object", "number_row", "no_point", "list_point", "string_weight"])
    def test_truncated_measure_exits_1(self, capsys, tmp_path, gasket_file, text, message):
        a = tmp_path / "a.json"
        a.write_text(text)
        code, out, err = run_cli(capsys, "metrics", "--net", str(gasket_file),
                                 "--measure-a", str(a), "--measure-b", str(a))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert message in err


class TestExperimentCommand:
    def test_runs_config_and_writes_csv(self, capsys, tmp_path):
        cfg = {"experiment": "aging", "ensemble": "sierpinski", "levels": [1, 2],
               "alpha": 0.5, "seed": 2, "replicas": 3,
               "s_grid": [1.0], "t_grid": [2.0],
               "out": str(tmp_path / "table.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 0
        text = (tmp_path / "table.csv").read_text()
        assert text.splitlines()[0] == "n,replica,s,t,statistic,value,ci_low,ci_high"
        assert "phi_annealed_mean" in text

    def test_two_point_writes_runner_csv(self, capsys, tmp_path):
        cfg = {"experiment": "two_point", "ensemble": "sierpinski", "levels": [1, 2],
               "alpha": 0.5, "seed": 2, "replicas": 3,
               "out": str(tmp_path / "table.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 0
        expected = run_two_point_experiment(ExperimentConfig.from_dict(cfg)).to_csv()
        assert (tmp_path / "table.csv").read_text() == expected

    @pytest.mark.parametrize("field, value", [
        ("t_grid", [-1.0]), ("workers", 0), ("levels", [1.5, 2]),
        ("boxes", [[1.0, 0.0]]), ("boxes", [[1.0, -0.5]]), ("boxes", [[0.0, 1.0]]),
        ("bootstrap", -3),
        # A field of None writes the value as the whole file.
        pytest.param(None, "[1, 2]", id="not-an-object"),
        pytest.param(None, '{"ensemble": ', id="truncated"),
        ("out", 5), ("experiment", ["aging"]), ("sampler", "mc"), ("sampler", "sobol"),
    ])
    def test_invalid_config_exits_1(self, capsys, tmp_path, field, value):
        cfg = {"experiment": "two_point", "ensemble": "sierpinski", "levels": [1, 2],
               "alpha": 0.5, "seed": 2, "replicas": 3,
               "out": str(tmp_path / "table.csv"), field: value}
        path = tmp_path / "cfg.json"
        path.write_text(value if field is None else json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        assert not (tmp_path / "table.csv").exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("ensemble, key, value", [
        ("er_component", "lambda", float("nan")),
        ("er_component", "lambda", -100.0),
        ("conductance_path", "path_bounds", [0.5, float("inf")]),
        ("conductance_path", "path_bounds", [2.0, 0.5]),
        ("sierpinski", "prm_floor", -1.0),
    ])
    def test_out_of_range_value_exits_1_naming_the_key(self, capsys, tmp_path,
                                                       ensemble, key, value):
        cfg = {"experiment": "two_point", "ensemble": ensemble, "levels": [3, 4],
               "alpha": 0.5, "seed": 2, "replicas": 3, key: value,
               "out": str(tmp_path / "table.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        assert not (tmp_path / "table.csv").exists()
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_prm_floor_too_small_exits_1(self, capsys, tmp_path):
        # At floor 1e-40 a PRM sample expects 1e20 weights: one error line,
        # not numpy's "lam value too large".
        cfg = {"experiment": "traps", "ensemble": "sierpinski", "levels": [1],
               "alpha": 0.5, "seed": 1, "replicas": 5, "prm_floor": 1e-40,
               "out": str(tmp_path / "table.csv")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        assert not (tmp_path / "table.csv").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "expects 1e+20 weights" in err[0]

    @pytest.mark.parametrize("experiment", ["aging", "subaging", "two_point", "traps", "metrics"])
    @pytest.mark.parametrize("ensemble, levels", [
        ("sierpinski", [0, 1]), ("conductance_path", [0, 1]),
        ("cayley_tree", [1, 2]), ("er_component", [2, 3]),
    ])
    def test_smallest_accepted_levels_run(self, capsys, tmp_path, experiment, ensemble, levels):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": experiment, "ensemble": ensemble,
                                    "levels": levels, "alpha": 0.5, "seed": 0, "replicas": 2}))
        assert main(["experiment", "--config", str(path),
                     "--out", str(tmp_path / "table.csv")]) == 0
        assert (tmp_path / "table.csv").read_text().startswith("n,replica,")

    def test_small_alpha_overflow_counts_failures(self, tmp_path):
        # At alpha 0.01 traps reach the float range: infinite traps and
        # overflowing norms are counted as failures, not raised, and print no
        # numpy warning.  A subprocess shows what a user would see on stderr.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "two_point", "ensemble": "sierpinski",
                                    "levels": [1, 2, 3, 4], "alpha": 0.01, "seed": 3,
                                    "replicas": 20, "out": str(tmp_path / "table.csv")}))
        src = str(Path(trapnets.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "trapnets", "experiment", "--config",
                               str(path)], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert "replica failures" in done.stderr
        assert (tmp_path / "table.csv").read_text().startswith("n,replica,")

    def test_unknown_type_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "nope", "ensemble": "sierpinski",
                                    "levels": [1], "alpha": 0.5, "seed": 0}))
        assert main(["experiment", "--config", str(path)]) == 2


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--seed", "0")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10


class TestKernelDump:
    def test_dense_kernel_csv(self, capsys, gasket_file):
        code, out, _ = run_cli(capsys, "simulate", "--net", str(gasket_file),
                               "--alpha", "0.5", "--seed", "2",
                               "--kernel-at", "1.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16  # header + 15 states
        row = [float(x) for x in lines[1].split(",")[1:]]
        assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_simulate_without_horizon_is_usage_error(self, capsys, gasket_file):
        code, _, err = run_cli(capsys, "simulate", "--net", str(gasket_file),
                               "--alpha", "0.5", "--seed", "2")
        assert code == 2 and "horizon" in err


class TestWeightedNetworkRoundTrip:
    def test_irrational_weights_bit_exact(self, tmp_path):
        import math

        from trapnets import build_network

        net = build_network([1, 2, 3],
                            [(1, 2, math.pi), (2, 3, 1.0 / 3.0)], root=1)
        text = network_to_json(net)
        back = network_from_json(text)
        assert back.conductance(1, 2) == math.pi
        assert network_to_json(back) == text


class TestImportCost:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats takes most of a second and about 33 MiB to import; the
        # package uses none of it, so no command should pay for it.
        src = str(Path(trapnets.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("trapnets", "trapnets.cli"):
            code = f"import sys, {module}; sys.exit('scipy.stats' in sys.modules)"
            assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0, module
