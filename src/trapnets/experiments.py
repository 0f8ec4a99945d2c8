"""Batch experiment driver: seeded, declarative, deterministic tables.

A single JSON config describes the ensemble, the trap law, the level
sequence with its scaling constants, the evaluation grids and replica
counts; ``_CONFIG_KEYS`` lists every key it may hold, with that key's own
rule.  Runners emit flat result tables with one row per statistic; all
randomness flows through (seed, stream) pairs so reruns are bit-identical
regardless of worker scheduling.

Ensembles are decided in one place.  ``_SCALES`` gives each kind's space
and mass normalizations; the nested kinds in ``COUPLED`` get their level
graphs and each replica's coupled trap uniforms and conductances from
``_build_coupled_levels``; every other network comes from
``_level_network``.  The two-point runner maps its replicas over one
thread pool of ``workers`` threads and collects them in replica order.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

import numpy as np
from scipy.special import chdtrc

from .dynamics import _exit_time_bound, _scaled_phi, _scaled_psi
from .ensembles import (
    UniformConductanceLaw,
    conductance_path,
    er_edge_probability,
    er_largest_component,
    sierpinski,
    uniform_cayley_tree,
    as_plane_tree,
)
from .errors import ConfigError, TrapnetsError
from .measures import DiscreteMeasure, dis_measure_distance, local_hausdorff
from .networks import FiniteMetricSpace, ball_mask, boundary_resistance
from .rng import RngStream
from .traps import (
    ScaleTriple,
    TrapEnvironment,
    TrapLaw,
    pareto_sample,
    scaling_constant,
    truncated_prm,
)
from .serialize import csv_text, format_value

# Space and mass normalizations (a, b) of each ensemble at size parameter n.
_SCALES = {
    "sierpinski": lambda n: ((5.0 / 3.0) ** n, 3.0 ** n),
    "conductance_path": lambda n: (2.0 ** n, 2.0 ** n),
    "cayley_tree": lambda n: (float(n) ** 0.5, float(n)),
    "er_component": lambda n: (float(n) ** (1.0 / 3.0), float(n) ** (2.0 / 3.0)),
}
KINDS = tuple(_SCALES)
# Ensembles whose levels nest, so replicas share trap uniforms across levels.
COUPLED = ("sierpinski", "conductance_path")


def default_scales(kind: str, level: int, law: TrapLaw) -> ScaleTriple:
    """Per-ensemble space and mass normalizations with the derived trap scale."""
    if kind not in _SCALES:
        raise ConfigError(f"unknown ensemble kind {kind!r}")
    a, b = _SCALES[kind](level)
    return ScaleTriple(a, b, scaling_constant(law, max(b, 1.0)))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    levels: tuple
    alpha: float
    seed: int
    replicas: int = 1
    s_grid: tuple = (1.0,)
    t_grid: tuple = (2.0,)
    lam: float = 0.0                      # ER window parameter
    path_bounds: tuple = (0.5, 2.0)       # conductance law support
    boxes: tuple = ()                     # (radius, u) pairs for trap stats
    prm_floor: float = 0.25
    workers: int = 1
    bootstrap: int = 400
    sampler: str = "mc"                   # "mc" or "sobol" (nested ensembles)
    experiment: str = "aging"             # the runner the command line picks
    out: str | None = None                # CSV path; None keeps the command line's --out

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Config from its JSON object; a missing key keeps its field's default.

        Each key's own rule is checked by its row of ``_CONFIG_KEYS``; the
        rules checked here read two keys.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        values = {}
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            name, convert = _CONFIG_KEYS[key]
            values[name] = convert(key, value)
        for key, (name, _) in _CONFIG_KEYS.items():
            if name in _REQUIRED and name not in values:
                raise ConfigError(f"config missing field {key!r}")
        config = ExperimentConfig(**values)
        if config.sampler == "sobol" and config.kind not in COUPLED:
            raise ConfigError("the sobol sampler needs a nested ensemble")
        if config.kind == "er_component":
            for n in config.levels:
                if n < 2:
                    raise ConfigError(f"config key 'levels' needs at least 2 vertices "
                                      f"for er_component, got {n}")
                p = er_edge_probability(n, config.lam)
                if not 0 < p < 1:
                    raise ConfigError(f"config key 'lambda' gives edge probability {p} "
                                      f"outside (0, 1) at level {n}")
        return config

    def law(self) -> TrapLaw:
        return TrapLaw(self.alpha)


def _integer(key, value) -> int:
    """Conversion of a JSON integer; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value)


def _number(key, value) -> float:
    """Conversion of a JSON number to a finite float; bools are refused."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")


def _text(key, value) -> str:
    """Conversion of a nonempty JSON string."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty string, got {value!r}")
    return value


def _sequence(convert, length=None):
    """Conversion of a list whose items go through ``convert``; ``length``
    fixes the number of items."""
    def sequence(key, value) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            shape = "a list" if length is None else f"a list of {length} items"
            raise ConfigError(f"config key {key!r} must be {shape}, got {value!r}")
        return tuple(convert(key, item) for item in value)
    return sequence


def _rule(convert, must: str, holds):
    """Conversion by ``convert``, then the key's own rule: ``holds`` of the
    converted value, which the error message states as ``must``."""
    def checked(key, value):
        converted = convert(key, value)
        if not holds(converted):
            raise ConfigError(f"config key {key!r} must be {must}, got {value!r}")
        return converted
    return checked


def _grid(sign: str, holds):
    """A time grid: nonempty, no value twice (a repeat would count its
    replicas twice in the bootstrap), each time ``holds``."""
    def valid(grid):
        return grid != () and len(set(grid)) == len(grid) and all(map(holds, grid))
    return _rule(_sequence(_number), f"a nonempty list of distinct {sign} times", valid)


# JSON key -> (ExperimentConfig field, conversion that also checks the key's
# own rule).  Each default is the field's default.
_CONFIG_KEYS = {
    "ensemble": ("kind", _rule(_text, f"one of {KINDS}", KINDS.__contains__)),
    "levels": ("levels", _rule(_sequence(_integer), "a nonempty, strictly increasing list",
                               lambda n: n != () and list(n) == sorted(set(n)))),
    "alpha": ("alpha", _rule(_number, "in (0, 1)", lambda alpha: 0.0 < alpha < 1.0)),
    "seed": ("seed", _integer),
    "replicas": ("replicas", _rule(_integer, ">= 1", lambda n: n >= 1)),
    "s_grid": ("s_grid", _grid("nonnegative", lambda s: s >= 0)),
    "t_grid": ("t_grid", _grid("positive", lambda t: t > 0)),
    "lambda": ("lam", _number),
    "path_bounds": ("path_bounds", _rule(_sequence(_number, 2), "[c_min, c_max] with "
                                         "0 < c_min <= c_max", lambda b: 0 < b[0] <= b[1])),
    "boxes": ("boxes", _rule(_sequence(_sequence(_number, 2)),
                             "a list of [radius, u] pairs, both positive",
                             lambda boxes: all(r > 0 and u > 0 for r, u in boxes))),
    "prm_floor": ("prm_floor", _rule(_number, "positive", lambda v: v > 0)),
    "workers": ("workers", _rule(_integer, ">= 1", lambda n: n >= 1)),
    "bootstrap": ("bootstrap", _rule(_integer, ">= 0", lambda n: n >= 0)),
    "sampler": ("sampler", _rule(_text, "'mc' or 'sobol'", ("mc", "sobol").__contains__)),
    "experiment": ("experiment", _text),
    "out": ("out", _text),
}
_REQUIRED = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}


@dataclass(frozen=True)
class Row:
    n: int
    replica: int
    s: float
    t: float
    statistic: str
    value: float
    ci_low: float
    ci_high: float


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    failures: int = 0

    def add(self, n, replica, s, t, statistic, value, ci_low=None, ci_high=None):
        v = float(value)
        lo = v if ci_low is None else float(ci_low)
        hi = v if ci_high is None else float(ci_high)
        if not (lo <= v <= hi):
            raise TrapnetsError("confidence bounds must bracket the value")
        self.rows.append(Row(int(n), int(replica), float(s), float(t), statistic, v, lo, hi))

    def select(self, statistic: str) -> list:
        return [r for r in self.rows if r.statistic == statistic]

    def to_csv(self) -> str:
        return csv_text(["n", "replica", "s", "t", "statistic", "value", "ci_low", "ci_high"],
                        ([r.n, r.replica, format_value(r.s), format_value(r.t), r.statistic,
                          format_value(r.value), format_value(r.ci_low), format_value(r.ci_high)]
                         for r in self.rows))


def bootstrap_ci(values: np.ndarray, rng: np.random.Generator,
                 n_boot: int = 400, level: float = 0.95):
    """Percentile bootstrap interval for the mean, degenerate for one value."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if len(values) < 2 or n_boot < 1:
        return mean, mean, mean
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    means = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1 - level) / 2, (1 + level) / 2])
    return mean, min(float(lo), mean), max(float(hi), mean)


# ---------------------------------------------------------------------------
# Ensemble construction with coupled trap uniforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LevelGraph:
    network: Callable             # shared conductances -> the level's network
    root: object
    coords: dict                  # vertex -> scaled position, in vertex order
    coupling: np.ndarray          # index of each vertex in the coupling table


def _build_coupled_levels(config: ExperimentConfig):
    """Level graphs of a nested ensemble, and each replica's coupled draws.

    Gasket and path levels nest: every vertex sits at a position of the top
    level, and each position gets one key (numbered in level order, then
    vertex order), so a replica's trap uniforms are shared across levels.
    Gasket networks are fixed; path networks cut their window out of one
    draw of conductances per integer edge of the top window.  Returns the
    level graphs and two functions of the replica index: its trap uniforms
    in (0, 1], one per key, and its shared conductances (None for the
    gasket).  The uniforms are a Sobol row under the sobol sampler, and
    otherwise come from the replica's stream ``child(rep, 0)``.
    """
    law = UniformConductanceLaw(*config.path_bounds)
    top = max(config.levels)
    keys: dict = {}
    out = []
    for n in config.levels:
        scale = 2 ** (top - n)
        if config.kind == "sierpinski":
            g = sierpinski(n)
            vertices = g.network.vertex_ids
            positions = [(g.lattice[v][0] * scale, g.lattice[v][1] * scale) for v in vertices]
            coords = {v: g.coords[v] for v in vertices}
            root = g.network.root

            def network(zeta, net=g.network):
                return net
        else:
            window = 2 ** n
            offset = 2 ** top - window
            vertices = range(-window, window + 1)
            positions = [i * scale for i in vertices]
            coords = {i: (i / 2.0 ** n,) for i in vertices}
            root = 0

            def network(zeta, w=window, o=offset):
                return conductance_path(w, law, None, values=zeta[o:o + 2 * w]).network
        coupling = np.array([keys.setdefault(p, len(keys)) for p in positions])
        out.append(_LevelGraph(network, root, coords, coupling))
    streams = RngStream(config.seed)
    if config.sampler == "sobol":
        sobol = 1.0 - _sobol_uniforms(config, len(keys))

        def uniforms(rep):
            return sobol[rep]
    else:
        def uniforms(rep):
            return 1.0 - streams.child(rep, 0).generator().random(len(keys))
    if config.kind == "sierpinski":
        return out, uniforms, lambda rep: None
    return out, uniforms, lambda rep: law.sample(streams.child(rep, 1).generator(), 2 * 2 ** top)


def _level_network(config: ExperimentConfig, n: int, stream: RngStream):
    """One network of the ensemble at size parameter n, drawn from stream."""
    if config.kind == "sierpinski":
        return sierpinski(n).network
    if config.kind == "conductance_path":
        return conductance_path(2 ** n, UniformConductanceLaw(*config.path_bounds), stream).network
    if config.kind == "cayley_tree":
        return as_plane_tree(uniform_cayley_tree(n, stream), n).network()
    return er_largest_component(n, config.lam, stream)


def _sobol_uniforms(config: ExperimentConfig, n_keys: int) -> np.ndarray:
    """Scrambled low-discrepancy uniforms, one row per replica.

    Rows are shared across levels exactly like the plain coupled streams, so
    the stabilization diagnostics keep their common-random-number structure
    while the annealed means converge much faster than plain Monte Carlo.
    """
    # Imported here: scipy.stats takes most of a second to import, and only
    # sobol configs need it.
    from scipy.stats import qmc

    stream = RngStream(config.seed).child(42)
    seed_seq = np.random.SeedSequence([stream.seed & (2**63 - 1), stream.stream])
    sampler = qmc.Sobol(d=n_keys, scramble=True,
                        seed=np.random.Generator(np.random.Philox(seed_seq)))
    return sampler.random(config.replicas)


def _two_point_runner(config: ExperimentConfig, evaluators: dict) -> ResultTable:
    """Shared machinery of the aging and sub-aging experiments.

    ``evaluators`` maps a statistic name to a function (env, root, s, t) ->
    value; all statistics share each replica's trap environment and spectral
    factorization.  ``failures`` counts the cells, one statistic of one
    replica at one level and (s, t), whose evaluation raised a
    :class:`TrapnetsError`; a level whose environment cannot be built fails
    all of its cells.  A stabilization diff compares two consecutive levels
    of the config, and is left out unless both have annealed means.
    """
    law = config.law()
    table = ResultTable()
    scales = {n: default_scales(config.kind, n, law) for n in config.levels}
    coupled = config.kind in COUPLED
    if coupled:
        level_graphs, uniforms, conductances = _build_coupled_levels(config)

    cells = [(s, t, stat, evaluate) for s in config.s_grid for t in config.t_grid
             for stat, evaluate in evaluators.items()]

    def run_replica(rep: int):
        out = []
        base = RngStream(config.seed).child(rep)
        if coupled:
            u, zeta = uniforms(rep), conductances(rep)
        for slot, n in enumerate(config.levels):
            try:
                if coupled:
                    lg = level_graphs[slot]
                    net, root = lg.network(zeta), lg.root
                    traps = law.quantile(u[lg.coupling])
                else:
                    net = _level_network(config, n, base.child(2, slot))
                    root = net.root
                    traps = pareto_sample(law, base.child(3, slot).generator(), net.n_vertices)
                nu = DiscreteMeasure(None, dict(zip(net.vertex_ids, map(float, traps))))
                env = TrapEnvironment(net, nu, scales[n])
            except TrapnetsError:
                out += [(n, rep, s, t, stat, None) for s, t, stat, _ in cells]
                continue
            for s, t, stat, evaluate in cells:
                out.append((n, rep, s, t, stat, _cell(evaluate, env, root, s, t)))
            if config.kind == "conductance_path" and rep == 0:
                # Spatial-truncation diagnostic: the exit-time bound for
                # leaving the window within the longest probed horizon
                # certifies (heuristically) that the finite path stands
                # in for the infinite one when it is well below 1e-3.
                out.append((n, rep, 0.0, 0.0, "window_exit_bound",
                            _cell(_window_exit_bound, env, config)))
        return out

    # Results are read in replica order, so the table does not depend on
    # scheduling.  They are read after the pool has finished: waiting on each
    # future in turn would wake this thread, and take the interpreter lock
    # from the workers, once per replica.
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        futures = [pool.submit(run_replica, rep) for rep in range(config.replicas)]
    results = [f.result() for f in futures]

    values: dict = {}
    for out in results:
        for n, r, s, t, stat, v in out:
            if v is None:
                table.failures += 1
                continue
            table.add(n, r, s, t, stat, v)
            values.setdefault((stat, n, s, t), []).append(v)

    boot_rng = RngStream(config.seed).child(10**6).generator()
    means: dict = {}
    for (stat, n, s, t) in sorted(values):
        if stat not in evaluators:
            continue
        mean, lo, hi = bootstrap_ci(np.array(values[(stat, n, s, t)]), boot_rng,
                                    n_boot=config.bootstrap)
        table.add(n, -1, s, t, stat + "_annealed_mean", mean, lo, hi)
        means[(stat, n, s, t)] = mean
    for stat in evaluators:
        for s in config.s_grid:
            for t in config.t_grid:
                for prev, n in zip(config.levels, config.levels[1:]):
                    if (stat, prev, s, t) in means and (stat, n, s, t) in means:
                        table.add(n, -1, s, t, stat + "_stabilization_diff",
                                  abs(means[(stat, n, s, t)] - means[(stat, prev, s, t)]))
    return table


def _cell(evaluate, *args):
    """evaluate(*args), or None when it raises a :class:`TrapnetsError`."""
    try:
        return evaluate(*args)
    except TrapnetsError:
        return None


def _window_exit_bound(env, config: ExperimentConfig) -> float:
    """Exit bound for leaving the truncated path window over the probed horizon."""
    net = env.network
    row = net.resistance_matrix[net.index(net.root)]
    r = float(min(row[0], row[-1]))  # vertex order is -window .. window
    res = boundary_resistance(net, net.root, r)
    horizon = (env.scale.a * env.scale.c * max(config.t_grid)
               + env.scale.c * max(config.s_grid))
    return min(_exit_time_bound(env, net.root, res, 0.5 * res, horizon), 1.0)


def run_aging_experiment(config: ExperimentConfig) -> ResultTable:
    """Annealed aging function on the (s, t) grid with stabilization diagnostics."""
    return _two_point_runner(config, {"phi": _scaled_phi})


def run_subaging_experiment(config: ExperimentConfig) -> ResultTable:
    """Annealed sub-aging function; probes holding over windows of length c*s."""
    return _two_point_runner(config, {"psi": _scaled_psi})


def run_two_point_experiment(config: ExperimentConfig) -> ResultTable:
    """Both two-point functions in one pass, sharing each replica's spectral data."""
    return _two_point_runner(config, {"phi": _scaled_phi, "psi": _scaled_psi})


# ---------------------------------------------------------------------------
# Trap statistics
# ---------------------------------------------------------------------------

def _default_boxes(space: FiniteMetricSpace, a: float) -> tuple:
    """(scaled radius, threshold u) pairs spanning the carrier."""
    scaled = np.sort(space.dist[space.index(space.root)]) / a
    radii = [float(r) for r in np.quantile(scaled[1:], [0.35, 0.75]) if r > 0] or [1.0]
    radii.append(float(scaled.max()) + 1.0)
    thresholds = (0.5, 1.0, 2.0)
    return tuple((r, u) for r in radii for u in thresholds)


def run_trap_convergence(config: ExperimentConfig) -> ResultTable:
    """Void probabilities of the trap point process and the truncated PRM.

    For each configured box A x (u, inf): the empirical void frequency over
    replicas against (1 - P(xi/c > u))^#A, a per-box chi-square p-value, the
    aggregate chi-square over boxes, and the exact scaling-identity residual.
    The chi-square laws need independent replicas, so the sobol sampler is
    refused.
    """
    if config.sampler == "sobol":
        raise ConfigError("the traps experiment needs independent replicas, "
                          "so it does not take the sobol sampler")
    law = config.law()
    table = ResultTable()
    for n in config.levels:
        scale = default_scales(config.kind, n, law)
        net = _level_network(config, n, RngStream(config.seed).child(7, n))
        space = net.resistance_space
        boxes = config.boxes or _default_boxes(space, scale.a)
        root_row = space.dist[space.index(space.root)] / scale.a

        masks = []
        for r, u in boxes:
            masks.append((np.flatnonzero(ball_mask(root_row, r)), float(u)))

        reps = config.replicas
        cells: list = []
        for box_id, ((idx, u), (r, _)) in enumerate(zip(masks, boxes)):
            if len(idx) == 0:
                table.add(n, -1, r, u, "pi_void_empirical", 1.0)
                continue
            # Fresh replicas per box so the per-box chi-square cells are
            # independent and the aggregate statistic has its nominal law.
            rng = RngStream(config.seed).child(8, n, box_id).generator()
            draws = pareto_sample(law, rng, (reps, len(idx)))
            void = np.all(draws <= scale.c * u, axis=1)
            p0 = (1.0 - law.tail(scale.c * u)) ** len(idx)
            _void_rows(table, cells, "pi", n, r, u, int(void.sum()), reps, p0)
            table.add(n, -1, r, u, "scaling_identity_residual",
                      law_residual(law, scale, u))
        _aggregate_row(table, cells, "pi", n)

        # Truncated PRM against the limit void probabilities.
        prm_rng = RngStream(config.seed).child(9, n)
        cells = []
        for box_id, ((idx, u), (r, _)) in enumerate(zip(masks, boxes)):
            if len(idx) == 0 or u < config.prm_floor:
                continue
            base_mass = len(idx) / scale.b
            base = DiscreteMeasure(space, {space.point_ids[i]: 1.0 / scale.b for i in idx})
            observed = 0
            for rep in range(reps):
                pi = truncated_prm(base, config.alpha, config.prm_floor,
                                   prm_rng.child(box_id, rep))
                if all(w <= u for _, w in pi.atoms):
                    observed += 1
            p0 = math.exp(-base_mass * u ** (-config.alpha))
            _void_rows(table, cells, "prm", n, r, u, observed, reps, p0)
        _aggregate_row(table, cells, "prm", n)
    return table


def _void_rows(table: ResultTable, cells: list, name: str, n, r, u,
               observed: int, reps: int, p0: float) -> None:
    """Rows for one box's void frequency against its probability p0; when
    0 < p0 < 1, also its chi-square p-value, with the cell appended to cells."""
    expected = reps * p0
    table.add(n, -1, r, u, name + "_void_empirical", observed / reps)
    table.add(n, -1, r, u, name + "_void_expected", p0)
    if 0.0 < p0 < 1.0:
        chi = ((observed - expected) ** 2 / expected
               + ((reps - observed) - (reps - expected)) ** 2 / (reps - expected))
        cells.append(chi)
        table.add(n, -1, r, u, name + "_void_pvalue", float(chdtrc(1, chi)))


def _aggregate_row(table: ResultTable, cells: list, name: str, n) -> None:
    """Aggregate chi-square p-value over the boxes of one level, if any."""
    if cells:
        table.add(n, -1, 0.0, 0.0, name + "_void_aggregate_pvalue",
                  float(chdtrc(len(cells), sum(cells))))


def law_residual(law: TrapLaw, scale: ScaleTriple, u: float) -> float:
    """b * P(xi / c > u) - u^(-alpha); identically zero for the Pareto tail."""
    return scale.b * law.tail(scale.c * u) - u ** (-law.alpha)


# ---------------------------------------------------------------------------
# Metric convergence
# ---------------------------------------------------------------------------

def run_metric_convergence(config: ExperimentConfig) -> ResultTable:
    """Distances between consecutive levels embedded in their common carrier.

    Requires an ensemble with a canonical embedding (gasket: plane; path:
    line); other ensembles are skipped with a report row.
    """
    table = ResultTable()
    if config.kind not in COUPLED:
        table.add(0, -1, 0.0, 0.0, "skipped_no_common_embedding", 1.0)
        return table
    law = config.law()
    level_graphs, uniforms, _ = _build_coupled_levels(config)
    scales = [default_scales(config.kind, n, law) for n in config.levels]

    # Common carrier: union of scaled coordinates over all levels.
    all_pts = sorted({c for lg in level_graphs for c in lg.coords.values()})
    pt_index = {c: i for i, c in enumerate(all_pts)}
    arr = np.array(all_pts, dtype=float)
    dist = np.sqrt(((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2))
    first = level_graphs[0]
    carrier = FiniteMetricSpace(tuple(range(len(all_pts))), dist, pt_index[first.coords[first.root]])
    points = [[pt_index[c] for c in lg.coords.values()] for lg in level_graphs]

    for slot in range(len(config.levels) - 1):
        m = config.levels[slot + 1]
        table.add(m, -1, 0.0, 0.0, "vertex_local_hausdorff",
                  local_hausdorff(points[slot], points[slot + 1], carrier))
        for rep in range(config.replicas):
            u = uniforms(rep)
            measures = []
            for s in (slot, slot + 1):
                traps = law.quantile(u[level_graphs[s].coupling]) / scales[s].c
                measures.append(DiscreteMeasure(carrier, dict(zip(points[s], map(float, traps)))))
            table.add(m, rep, 0.0, 0.0, "trap_dmdis", dis_measure_distance(*measures))
    return table
