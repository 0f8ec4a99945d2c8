"""The benchmark workloads: inputs, one timed round, and the output checks.

A workload turns the seed into plain input data (``make_inputs``, part of
set-up), runs one round of program calls on those inputs (``run_round``,
the timed region; every round builds its own graphs, environments and
generators, so all rounds do the same work), and checks one round's
outputs (``check``) against ``oracles`` and against properties the method
must have.  ``check`` returns the round's attempted and failed operation
counts together with every violation it found.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from trapnets import cli, dynamics, ensembles, experiments, networks
from trapnets.errors import TrapnetsError
from trapnets.measures import DiscreteMeasure
from trapnets.rng import RngStream
from trapnets.traps import ScaleTriple, TrapEnvironment

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

ALPHA = 0.5
KERNEL_TOL_FACTOR = 100.0  # kernels against expm: factor on eps * |Q| * t, see kernel_tol
PROBE_TOL = 1e-8          # small-alpha probes against the mpmath oracle
EXACT_TOL = 1e-12         # recomputed aggregates and distances
CSV_REL_TOL = 1e-12       # closed forms against 15-digit CSV values
PVALUE_FLOOR = 1e-6       # aggregate chi-square p-values
MARGINAL_Z = 5.0          # Gillespie marginal against the expm kernel row
PATHS_ENV_SEED = 21       # pinned trap environments of paths_gasket
TRAP_BOXES = tuple((r, u) for r in (0.25, 0.45, 0.7, 1.1, 10.0) for u in (0.4, 0.8, 1.6, 3.2))


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, bool], dict]
    run_round: Callable[[dict], dict]
    fingerprint: Callable[[dict], str]
    check: Callable[[dict, dict], tuple]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _gasket_scales(n: int, alpha: float = ALPHA):
    a, b = (5.0 / 3.0) ** n, 3.0 ** n
    return a, b, b ** (1.0 / alpha)


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def kernel_tol(kern, t: float) -> float:
    """Allowed gap between a double-precision kernel value at time t and expm.

    Rounding moves each eigenvalue of Q by about eps * |Q|, which moves
    exp(lambda t) by about eps * |Q| * t; the allowance is KERNEL_TOL_FACTOR
    times that, plus an absolute 1e-12.
    """
    return 1e-12 + KERNEL_TOL_FACTOR * np.finfo(float).eps * kern.q_norm * t


# ---------------------------------------------------------------------------
# Two-point experiments (gasket and critical Erdos-Renyi)
# ---------------------------------------------------------------------------

def _two_point_config(kind, levels, seed, replicas, **extra) -> dict:
    return dict(ensemble=kind, levels=list(levels), alpha=ALPHA, seed=seed,
                replicas=replicas, s_grid=[1.0], t_grid=[1.0, 2.0], workers=1, **extra)


def _table_rows(table) -> list:
    return [(r.n, r.replica, r.s, r.t, r.statistic, r.value, r.ci_low, r.ci_high)
            for r in table.rows]


def _run_two_point(config: dict):
    table = experiments.run_two_point_experiment(experiments.ExperimentConfig.from_dict(config))
    return table, table.to_csv()


def _check_two_point(config: dict, table, csv_text: str, environment, sample) -> list:
    """Checks shared by both two-point workloads.

    ``environment(rep, slot, n)`` rebuilds (network, traps, a, c) of one
    replica and level; ``sample`` lists the replicas recomputed with expm.
    """
    from oracles import ExpmKernels

    errors = []
    levels, reps = config["levels"], config["replicas"]
    grid = [(s, t) for s in config["s_grid"] for t in config["t_grid"]]
    if table.failures:
        errors.append(f"runner reported {table.failures} replica failures")
    per_replica = {}
    for n, rep, s, t, stat, value, lo, hi in _table_rows(table):
        if rep >= 0:
            per_replica[(stat, n, rep, s, t)] = value
    expected = len(levels) * reps * len(grid) * 2
    if len(per_replica) != expected:
        errors.append(f"{len(per_replica)} replica values, expected {expected}")
    for key, value in per_replica.items():
        if not 0.0 <= value <= 1.0:
            errors.append(f"{key} = {value} outside [0, 1]")
        stat, _, _, s, t = key
        if stat == "phi" and s == t and value != 1.0:
            errors.append(f"{key} = {value!r}, phi(s, s) must be exactly 1")

    means = {}
    for r in table.rows:
        if r.statistic.endswith("_annealed_mean"):
            stat = r.statistic[: -len("_annealed_mean")]
            vals = [per_replica[(stat, r.n, k, r.s, r.t)] for k in range(reps)]
            mean = math.fsum(vals) / len(vals)
            means[(stat, r.n, r.s, r.t)] = r.value
            if not _close(r.value, mean, EXACT_TOL):
                errors.append(f"{r.statistic} at n={r.n} is {r.value}, replica mean {mean}")
            if not r.ci_low <= r.value <= r.ci_high:
                errors.append(f"{r.statistic} at n={r.n} lies outside its interval")
    if len(means) != len(levels) * len(grid) * 2:
        errors.append(f"{len(means)} annealed means, expected {len(levels) * len(grid) * 2}")
    diffs = {(r.statistic, r.n, r.s, r.t): r.value for r in table.rows
             if r.statistic.endswith("_stabilization_diff")}
    if len(diffs) != (len(levels) - 1) * len(grid) * 2:
        errors.append(f"{len(diffs)} stabilization diffs")
    for (name, n, s, t), value in diffs.items():
        stat = name[: -len("_stabilization_diff")]
        prev = levels[levels.index(n) - 1]
        gap = abs(means[(stat, n, s, t)] - means[(stat, prev, s, t)])
        if not _close(value, gap, EXACT_TOL):
            errors.append(f"{name} at n={n} is {value}, gap of means {gap}")

    parsed = list(csv.reader(io.StringIO(csv_text)))
    if len(parsed) != len(table.rows) + 1 or any(
            not _close(float(row[5]), r.value, 1e-14 * max(1.0, abs(r.value)))
            for row, r in zip(parsed[1:], table.rows)):
        errors.append("CSV does not reproduce the table")

    for rep in sample:
        for slot, n in enumerate(levels):
            net, nu, a, c = environment(rep, slot, n)
            kern = ExpmKernels(net, nu)
            tol = kernel_tol(kern, a * c * max(max(s, t) for s, t in grid))
            for s, t in grid:
                ref = {"phi": kern.aging_phi(s, t, a * c),
                       "psi": kern.subaging_psi(s, t, a * c, c)}
                for stat, value in ref.items():
                    got = per_replica.get((stat, n, rep, s, t))
                    if got is None or not _close(got, value, tol):
                        errors.append(f"{stat}(n={n}, replica {rep}, s={s}, t={t}) = {got}, "
                                      f"expm gives {value}")
    return errors


# -- two_point_gasket ----------------------------------------------------------

def _probe_inputs() -> list:
    from small_alpha_oracle import probe_environment

    oracle = json.loads((HERE / "small_alpha_oracle.json").read_text())
    probes = []
    for rec in oracle["probes"]:
        _, nu, a, c = probe_environment(rec["level"], rec["alpha"])
        probes.append(dict(rec, nu=nu, a=a, c=c))
    return probes


def gasket_inputs(seed: int, quick: bool) -> dict:
    levels = [1, 2, 3, 4] if quick else [1, 2, 3, 4, 5]
    return {"config": _two_point_config("sierpinski", levels, seed, 8 if quick else 50),
            "probes": _probe_inputs()}


def _evaluate_probe(probe: dict):
    net = ensembles.sierpinski(probe["level"]).network
    nu = DiscreteMeasure(None, dict(zip(net.vertex_ids, probe["nu"])))
    a, c = probe["a"], probe["c"]
    env = TrapEnvironment(net, nu, ScaleTriple(a, 3.0 ** probe["level"], c))
    try:
        if probe["function"] == "aging_phi":
            return dynamics.aging_phi(env.generator, net.root, probe["s"], probe["t"],
                                      time_unit=a * c)
        return dynamics.subaging_psi(env.generator, net.root, probe["s"], probe["t"],
                                     time_unit=a * c, holding_unit=c)
    except TrapnetsError:
        return None


def gasket_round(inp: dict) -> dict:
    table, csv_text = _run_two_point(inp["config"])
    return {"table": table, "csv": csv_text,
            "probes": [_evaluate_probe(p) for p in inp["probes"]]}


def two_point_fingerprint(out: dict) -> str:
    return _digest((_table_rows(out["table"]), out["csv"], out.get("probes")))


def gasket_check(inp: dict, out: dict) -> tuple:
    from oracles import coupled_keys, gasket_lattice, pareto_from_uniforms
    from small_alpha_oracle import nu_digest

    config = inp["config"]
    levels, seed, reps = config["levels"], config["seed"], config["replicas"]
    graphs = {n: ensembles.sierpinski(n) for n in levels}
    errors = []
    for n, g in graphs.items():
        if set(g.lattice.values()) != gasket_lattice(n) or len(g.network.edges()) != 3 ** (n + 1):
            errors.append(f"level-{n} gasket graph has the wrong vertices or edges")
    keys, n_keys = coupled_keys(graphs)

    def environment(rep, slot, n):
        u = 1.0 - RngStream(seed).child(rep).child(0).generator().random(n_keys)
        a, _, c = _gasket_scales(n)
        return graphs[n].network, pareto_from_uniforms(u[keys[n]], ALPHA), a, c

    errors += _check_two_point(config, out["table"], out["csv"], environment,
                               sorted({0, reps // 2, reps - 1}))
    failed = 0
    for probe, value in zip(inp["probes"], out["probes"]):
        if nu_digest(probe["nu"]) != probe["nu_sha256"]:
            errors.append(f"probe environment at level {probe['level']}, alpha {probe['alpha']} "
                          f"differs from the oracle's; rerun small_alpha_oracle.py")
        if value is None or not _close(value, float(probe["value"]), PROBE_TOL):
            failed += 1
    attempted = len(levels) * reps * 4 + len(inp["probes"])
    return attempted, failed, errors


# -- two_point_er ---------------------------------------------------------------

def er_inputs(seed: int, quick: bool) -> dict:
    return {"config": _two_point_config("er_component", [1000, 4000], seed,
                                        10 if quick else 400, **{"lambda": 0.0})}


def er_round(inp: dict) -> dict:
    table, csv_text = _run_two_point(inp["config"])
    return {"table": table, "csv": csv_text}


def er_check(inp: dict, out: dict) -> tuple:
    import networkx as nx

    from oracles import pareto_from_uniforms

    config = inp["config"]
    seed, reps = config["seed"], config["replicas"]
    errors = []

    def environment(rep, slot, n):
        base = RngStream(seed).child(rep)
        net = ensembles.er_largest_component(n, config["lambda"], base.child(2, slot))
        g = nx.Graph()
        g.add_nodes_from(net.vertex_ids)
        g.add_edges_from((u, v) for u, v, _ in net.edges())
        if not nx.is_connected(g) or any(w != 1.0 for _, _, w in net.edges()):
            errors.append(f"ER component n={n}, replica {rep} is disconnected or weighted")
        u = 1.0 - base.child(3, slot).generator().random(net.n_vertices)
        a, b = n ** (1.0 / 3.0), n ** (2.0 / 3.0)
        return net, pareto_from_uniforms(u, ALPHA), a, b ** (1.0 / ALPHA)

    errors += _check_two_point(config, out["table"], out["csv"], environment,
                               sorted({0, reps - 1}))
    return len(config["levels"]) * reps * 4, 0, errors


# ---------------------------------------------------------------------------
# metric_gasket
# ---------------------------------------------------------------------------

def metric_inputs(seed: int, quick: bool) -> dict:
    return {"config": dict(ensemble="sierpinski", levels=[1, 2] if quick else [2, 3],
                           alpha=ALPHA, seed=seed, replicas=1 if quick else 12, workers=1)}


def metric_round(inp: dict) -> dict:
    table = experiments.run_metric_convergence(experiments.ExperimentConfig.from_dict(inp["config"]))
    return {"table": table, "csv": table.to_csv()}


def metric_fingerprint(out: dict) -> str:
    return _digest((_table_rows(out["table"]), out["csv"]))


def metric_check(inp: dict, out: dict) -> tuple:
    from oracles import (coupled_keys, dis_distance, gasket_lattice, gasket_point,
                         local_hausdorff, pareto_from_uniforms)

    config = inp["config"]
    lo, hi = config["levels"]
    seed, reps = config["seed"], config["replicas"]
    errors = []
    rows = _table_rows(out["table"])
    lh = [r for r in rows if r[4] == "vertex_local_hausdorff"]
    dmdis = {r[1]: r[5] for r in rows if r[4] == "trap_dmdis"}
    if len(lh) != 1 or sorted(dmdis) != list(range(reps)) or len(rows) != 1 + reps:
        errors.append(f"unexpected rows {[(r[4], r[1]) for r in rows]}")
    for r in rows:
        if not 0.0 <= r[5] <= 1.0:
            errors.append(f"{r[4]} (replica {r[1]}) = {r[5]} outside [0, 1]")

    def planar(n):
        pts = sorted(gasket_lattice(n))
        return np.array([gasket_point(a, b, 2 ** n) for a, b in pts])

    root = np.zeros(2)
    if lh:
        ref = local_hausdorff(planar(lo), planar(hi), root)
        if not _close(lh[0][5], ref, EXACT_TOL):
            errors.append(f"vertex_local_hausdorff = {lh[0][5]}, recomputed {ref}")

    graphs = {n: ensembles.sierpinski(n) for n in (lo, hi)}
    keys, n_keys = coupled_keys(graphs)
    u = 1.0 - RngStream(seed).child(0, 0).generator().random(n_keys)
    sides = []
    for n, g in graphs.items():
        pts = np.array([gasket_point(*g.lattice[v], 2 ** n) for v in g.network.vertex_ids])
        sides.append((pts, pareto_from_uniforms(u[keys[n]], ALPHA) / _gasket_scales(n)[2]))
    ref = dis_distance(sides[0][0], sides[0][1], sides[1][0], sides[1][1], root)
    if 0 in dmdis and not _close(dmdis[0], ref, EXACT_TOL):
        errors.append(f"trap_dmdis (replica 0) = {dmdis[0]}, recomputed {ref}")
    return 1 + reps, 0, errors


# ---------------------------------------------------------------------------
# trap_gasket: the traps experiment through the CLI and its CSV
# ---------------------------------------------------------------------------

def trap_inputs(seed: int, quick: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"trap_gasket-{seed}-{os.getpid()}"
    config = {"experiment": "traps", "ensemble": "sierpinski",
              "levels": [2, 3] if quick else [2, 3, 4], "alpha": ALPHA, "seed": seed,
              "replicas": 200 if quick else 400, "boxes": [list(b) for b in TRAP_BOXES],
              "prm_floor": 0.2, "workers": 1, "out": str(OUT_DIR / f"{tag}.csv")}
    path = OUT_DIR / f"{tag}.json"
    path.write_text(json.dumps(config))
    return {"config": config, "config_path": str(path)}


def trap_round(inp: dict) -> dict:
    code = cli.main(["experiment", "--config", inp["config_path"]])
    text = Path(inp["config"]["out"]).read_text()
    return {"code": code, "csv": text, "rows": list(csv.DictReader(io.StringIO(text)))}


def trap_fingerprint(out: dict) -> str:
    return _digest((out["code"], out["csv"]))


def trap_check(inp: dict, out: dict) -> tuple:
    from oracles import root_resistances

    config = inp["config"]
    reps, floor = config["replicas"], config["prm_floor"]
    errors = []
    if out["code"] != 0:
        errors.append(f"trapnets experiment exited with code {out['code']}")
    values = {}
    for row in out["rows"]:
        key = (int(row["n"]), float(row["s"]), float(row["t"]), row["statistic"])
        values[key] = float(row["value"])
    attempted = sum(1 for k in values if k[3].endswith("_void_empirical"))

    def expect(key, ref):
        got = values.get(key)
        if got is None or not _close(got, ref, CSV_REL_TOL * max(abs(ref), 1e-300)):
            errors.append(f"{key} = {got}, closed form gives {ref}")

    for n in config["levels"]:
        a, b, c = _gasket_scales(n)
        dist = root_resistances(ensembles.sierpinski(n).network) / a
        for r, u in TRAP_BOXES:
            if np.any(np.abs(dist - r) < 1e-9 * r):
                errors.append(f"level {n}: a resistance lies on the box radius {r}")
            size = int(np.sum(dist < r))
            if size == 0:
                expect((n, r, u, "pi_void_empirical"), 1.0)
                continue
            expect((n, r, u, "pi_void_expected"), (1.0 - (c * u) ** -ALPHA) ** size)
            if u >= floor:
                expect((n, r, u, "prm_void_expected"), math.exp(-size / b * u ** -ALPHA))
            resid = values.get((n, r, u, "scaling_identity_residual"))
            if resid is None or abs(resid) > 1e-13 * u ** -ALPHA:
                errors.append(f"scaling identity residual {resid} at level {n}, u={u}")
        for stat in ("pi_void_aggregate_pvalue", "prm_void_aggregate_pvalue"):
            p = values.get((n, 0.0, 0.0, stat))
            if p is None or not PVALUE_FLOOR < p <= 1.0:
                errors.append(f"{stat} at level {n} is {p}, floor {PVALUE_FLOOR}")
    for (n, r, u, stat), v in values.items():
        if stat.endswith("_void_empirical") and (
                not 0.0 <= v <= 1.0 or abs(v * reps - round(v * reps)) > 1e-6):
            errors.append(f"{stat} at level {n}, box ({r}, {u}) = {v} is not a frequency")
    return attempted, 0, errors


# ---------------------------------------------------------------------------
# paths_gasket: the four jump-chain entry points
# ---------------------------------------------------------------------------

# level -> (paths, aging times t of: path horizon, marginal, exit, return; paths per check)
PATH_PLAN = {3: (20, 1.0, 1.0, 0.01, 0.01, 2000), 4: (20, 0.1, 0.1, 0.01, 0.01, 500)}
PATH_PLAN_QUICK = {3: (5, 1.0, 1.0, 0.01, 0.01, 300), 4: (5, 0.1, 0.1, 0.01, 0.01, 60)}


def paths_inputs(seed: int, quick: bool) -> dict:
    from trapnets import TrapLaw, make_environment

    plan = PATH_PLAN_QUICK if quick else PATH_PLAN
    envs = {}
    for n in plan:
        net = ensembles.sierpinski(n).network
        a, b, _ = _gasket_scales(n)
        env = make_environment(net, TrapLaw(ALPHA), a, b, RngStream(PATHS_ENV_SEED).child(n))
        envs[n] = [env.nu.atoms[v] for v in net.vertex_ids]
    return {"seed": seed, "plan": plan, "nu": envs}


def _paths_level(n: int, nu: list, plan: tuple, seed: int) -> dict:
    k_paths, t_path, t_marg, t_exit, t_ret, n_check = plan
    net = ensembles.sierpinski(n).network
    a, b, c = _gasket_scales(n)
    env = TrapEnvironment(net, DiscreteMeasure(None, dict(zip(net.vertex_ids, nu))),
                          ScaleTriple(a, b, c))
    gen, root, unit = env.generator, net.root, a * c
    stream = RngStream(seed).child(n)
    paths = [dynamics.simulate_path(gen, root, unit * t_path, stream.child(0, k))
             for k in range(k_paths)]
    marginal = dynamics.simulate_marginal(gen, root, unit * t_marg, stream.child(1), n_check)
    row = net.resistance_matrix[net.index(root)]
    radius = float(np.quantile(row[row > 0], 0.6))
    delta = 0.1 * networks.boundary_resistance(net, root, radius)
    exit_check = dynamics.exit_time_bound_check(env, root, radius, delta, unit * t_exit,
                                                stream.child(2), n_check)
    ret = dynamics.return_probability_bounds_check(env, root, unit * t_ret, 0.5 * radius,
                                                   stream.child(3), n_check)
    return {"paths": paths, "marginal": marginal, "exit": exit_check, "return": ret}


def paths_round(inp: dict) -> dict:
    return {n: _paths_level(n, inp["nu"][n], plan, inp["seed"]) for n, plan in inp["plan"].items()}


def paths_fingerprint(out: dict) -> str:
    return _digest([(n, [(p.states, p.durations) for p in lv["paths"]], lv["marginal"].tobytes(),
                     lv["exit"], lv["return"]) for n, lv in out.items()])


def paths_check(inp: dict, out: dict) -> tuple:
    from oracles import ExpmKernels

    errors = []
    attempted = 0
    for n, plan in inp["plan"].items():
        k_paths, t_path, t_marg, t_exit, t_ret, n_check = plan
        lv = out[n]
        attempted += k_paths + 3 * n_check
        net = ensembles.sierpinski(n).network
        nu = np.array(inp["nu"][n])
        a, _, c = _gasket_scales(n)
        edges = {frozenset((u, v)) for u, v, _ in net.edges()}
        for k, path in enumerate(lv["paths"]):
            horizon = a * c * t_path
            steps_ok = all(frozenset(p) in edges for p in zip(path.states, path.states[1:]))
            if (path.states[0] != net.root or not steps_ok
                    or len(path.states) != len(path.durations)
                    or any(d <= 0 for d in path.durations[:-1]) or path.durations[-1] < 0
                    or not _close(math.fsum(path.durations), horizon, 1e-9 * horizon)):
                errors.append(f"level {n}: path {k} is not a jump-chain path to the horizon")
        kern = ExpmKernels(net, nu)
        p = kern.kernel(a * c * t_marg)[kern.root]
        emp = lv["marginal"]
        slack = MARGINAL_Z * np.sqrt(np.maximum(p * (1 - p), 0.0) / n_check) + 1.0 / n_check
        if not np.all(np.abs(emp - p) <= slack) or not _close(emp.sum(), 1.0, 1e-9):
            worst = float(np.max(np.abs(emp - p) - slack))
            errors.append(f"level {n}: marginal misses the expm row by {worst:.3g} beyond its bound")
        ex = lv["exit"]
        if not (ex.ci_low <= ex.empirical <= ex.ci_high <= ex.bound):
            errors.append(f"level {n}: exit check {ex} breaks ci_high <= bound")
        ret = lv["return"]
        p_xx = float(kern.kernel(a * c * t_ret)[kern.root, kern.root])
        stationary = nu[kern.root] / nu.sum()
        if not p_xx >= stationary or not _close(ret.kernel_value, p_xx,
                                                kernel_tol(kern, a * c * t_ret)):
            errors.append(f"level {n}: return probability {ret.kernel_value}, expm {p_xx}, "
                          f"nu(x)/nu(V) {stationary}")
        if not (ret.stationary_bound_holds and ret.local_bound_holds):
            errors.append(f"level {n}: return probability bounds do not hold: {ret}")
    return attempted, 0, errors


WORKLOADS = {w.name: w for w in (
    Workload("two_point_gasket", gasket_inputs, gasket_round, two_point_fingerprint, gasket_check),
    Workload("two_point_er", er_inputs, er_round, two_point_fingerprint, er_check),
    Workload("metric_gasket", metric_inputs, metric_round, metric_fingerprint, metric_check),
    Workload("trap_gasket", trap_inputs, trap_round, trap_fingerprint, trap_check),
    Workload("paths_gasket", paths_inputs, paths_round, paths_fingerprint, paths_check),
)}
