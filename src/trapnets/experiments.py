"""Batch experiment driver: seeded, declarative, deterministic tables.

A single JSON config describes the ensemble, the trap law, the level
sequence with its scaling constants, the evaluation grids and replica
counts; ``_CONFIG_KEYS`` lists every key it may hold, with that key's own
rule.  Runners emit flat result tables with one row per statistic; all
randomness flows through (seed, stream) pairs so reruns are bit-identical
regardless of worker scheduling.

Each ensemble kind's row of ``_ENSEMBLES`` owns every decision that
depends on the kind.  A nested kind (gasket, path) has a level builder,
which places each vertex at a site of the top level; built with top = n it
is also the kind's independent draw, ``_Ensemble.draw``.  The two-point
runner takes each replica's levels from one draw, maps its replicas over one
thread pool of ``workers`` threads and collects them in replica order.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import chdtrc

from .dynamics import _exit_time_bound, _scaled_phi, _scaled_psi
from .ensembles import (
    GASKET_LEVELS,
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
    _prm_blocks,
    pareto_sample,
    sample_trap,
    scaling_constant,
    scaling_identity_residual,
)
from .serialize import csv_text, format_value


@dataclass(frozen=True)
class _LevelGraph:
    network: Callable     # stream -> the level's network (the stream draws path conductances)
    root: object
    coords: dict          # vertex -> scaled position, in vertex order
    sites: list           # each vertex's site on the top level, in vertex order


def _gasket_level(config, n: int, top: int) -> _LevelGraph:
    """Gasket level n; its sites are lattice points of level ``top``."""
    g, scale = sierpinski(n), 2 ** (top - n)
    # sierpinski numbers its vertices in the order of its coords and lattice.
    return _LevelGraph(lambda stream: g.network, g.network.root, g.coords,
                       [(a * scale, b * scale) for a, b in g.lattice.values()])


def _path_level(config, n: int, top: int) -> _LevelGraph:
    """Path window 2^n; its sites are integer points of window 2^top, and its
    network cuts the window out of the stream's conductances for the top window."""
    law = UniformConductanceLaw(*config.path_bounds)
    window, offset = 2 ** n, 2 ** top - 2 ** n

    def network(stream):
        zeta = law.sample(stream.generator(), 2 * 2 ** top)
        return conductance_path(window, law, None, values=zeta[offset:offset + 2 * window]).network

    vertices = range(-window, window + 1)
    return _LevelGraph(network, 0, {i: (i / window,) for i in vertices},
                       [i * 2 ** (top - n) for i in vertices])


def _er_edge_probabilities(config) -> None:
    for n in config.levels:
        p = er_edge_probability(n, config.lam)
        if not 0 < p < 1:
            raise ConfigError(f"config key 'lambda' gives edge probability {p} "
                              f"outside (0, 1) at level {n}")


@dataclass(frozen=True)
class _Ensemble:
    scales: Callable                # level n -> space and mass normalizations (a, b)
    levels: tuple                   # lowest and highest level it builds
    network: Callable | None = None  # other kinds: (config, n, stream) -> independent draw
    level: Callable | None = None   # nested kinds: (config, n, top) -> _LevelGraph
    check: Callable = lambda config: None  # config -> None; raises ConfigError
    window_exit_bound: bool = False  # the two-point runner adds window-exit rows

    def draw(self, config, n: int, stream):
        """The kind's independent draw of level n from ``stream``; a nested
        kind's is its level built with top = n."""
        if self.level is None:
            return self.network(config, n, stream)
        return self.level(config, n, n).network(stream)


_ENSEMBLES = {
    "sierpinski": _Ensemble(lambda n: ((5.0 / 3.0) ** n, 3.0 ** n), GASKET_LEVELS,
                            level=_gasket_level),
    "conductance_path": _Ensemble(lambda n: (2.0 ** n, 2.0 ** n), (0, math.inf),
                                  level=_path_level, window_exit_bound=True),
    "cayley_tree": _Ensemble(
        lambda n: (float(n) ** 0.5, float(n)), (1, math.inf),
        lambda config, n, stream: as_plane_tree(uniform_cayley_tree(n, stream), n).network()),
    "er_component": _Ensemble(
        lambda n: (float(n) ** (1.0 / 3.0), float(n) ** (2.0 / 3.0)), (2, math.inf),
        lambda config, n, stream: er_largest_component(n, config.lam, stream),
        check=_er_edge_probabilities),
}
KINDS = tuple(_ENSEMBLES)


def default_scales(kind: str, level: int, law: TrapLaw) -> ScaleTriple:
    """Per-ensemble space and mass normalizations with the derived trap scale."""
    if kind not in _ENSEMBLES:
        raise ConfigError(f"unknown ensemble kind {kind!r}")
    a, b = _ENSEMBLES[kind].scales(level)
    return ScaleTriple(a, b, scaling_constant(law, b))


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
    experiment: str = "aging"             # the runner the command line picks
    out: str | None = None                # CSV path; None keeps the command line's --out

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Config from its JSON object; a missing key keeps its field's default.

        Each key's own rule is checked by its row of ``_CONFIG_KEYS``, a key
        not listed there is refused by name, and the ensemble's row checks
        the levels and its own rules.
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
        ensemble = _ENSEMBLES[config.kind]
        low, high = ensemble.levels
        if not all(low <= n <= high for n in config.levels):
            span = f">= {low}" if high == math.inf else f"from {low} to {high}"
            raise ConfigError(f"config key 'levels' must be {span} for {config.kind}, "
                              f"got {list(config.levels)}")
        ensemble.check(config)
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


def bootstrap_ci(values: np.ndarray, rng: np.random.Generator, n_boot: int = 400):
    """95% percentile bootstrap interval for the mean, degenerate for one value."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if len(values) < 2 or n_boot < 1:
        return mean, mean, mean
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    means = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1 - 0.95) / 2, (1 + 0.95) / 2])
    return mean, min(float(lo), mean), max(float(hi), mean)


# ---------------------------------------------------------------------------
# Ensemble construction with coupled trap uniforms
# ---------------------------------------------------------------------------

def _build_coupled_levels(config: ExperimentConfig):
    """Level graphs of a nested ensemble, and each replica's coupled traps.

    Each site of the top level gets one key (numbered in level order, then
    vertex order), so a replica's trap uniforms in (0, 1] are shared across
    levels.  Returns the level graphs and a function of the replica index:
    its traps at each level, in vertex order.  The uniforms are one draw per
    key from the replica's stream ``child(rep, 0)``, so replicas are iid.
    """
    law, top = config.law(), max(config.levels)
    graphs = [_ENSEMBLES[config.kind].level(config, n, top) for n in config.levels]
    keys: dict = {}
    couplings = [np.array([keys.setdefault(site, len(keys)) for site in g.sites])
                 for g in graphs]

    def traps(rep):
        u = 1.0 - RngStream(config.seed).child(rep, 0).generator().random(len(keys))
        return [law.quantile(u[c]) for c in couplings]
    return graphs, traps


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
    table = ResultTable()
    scales = {n: default_scales(config.kind, n, config.law()) for n in config.levels}
    replica_levels = _replica_levels(config)
    cells = [(s, t, stat, evaluate) for s in config.s_grid for t in config.t_grid
             for stat, evaluate in evaluators.items()]

    def run_replica(rep: int):
        out = []
        level = replica_levels(rep)
        for slot, n in enumerate(config.levels):
            try:
                env = TrapEnvironment(*level(slot), scales[n])
            except TrapnetsError:
                out += [(n, rep, s, t, stat, None) for s, t, stat, _ in cells]
                continue
            for s, t, stat, evaluate in cells:
                out.append((n, rep, s, t, stat, _cell(evaluate, env, env.network.root, s, t)))
            if _ENSEMBLES[config.kind].window_exit_bound and rep == 0:
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


def _replica_levels(config: ExperimentConfig):
    """One draw per replica: replica index -> (level slot -> the level's
    network and trap measure).  Nested networks come from the replica's
    stream ``child(rep, 1)``; other kinds draw each level's network from
    ``child(rep, 2, slot)`` and its traps from ``child(rep, 3, slot)``."""
    law, streams, ensemble = config.law(), RngStream(config.seed), _ENSEMBLES[config.kind]
    if ensemble.level is None:
        def independent(rep, slot):
            net = ensemble.draw(config, config.levels[slot], streams.child(rep, 2, slot))
            return net, sample_trap(net, law, streams.child(rep, 3, slot))
        return lambda rep: partial(independent, rep)
    graphs, traps = _build_coupled_levels(config)

    def coupled(stream, xi, slot):
        net = graphs[slot].network(stream)
        return net, DiscreteMeasure(None, dict(zip(net.vertex_ids, map(float, xi[slot]))))
    return lambda rep: partial(coupled, streams.child(rep, 1), traps(rep))


def _cell(evaluate, *args):
    """evaluate(*args), or None when it raises a :class:`TrapnetsError`."""
    try:
        return evaluate(*args)
    except TrapnetsError:
        return None


def _window_exit_bound(env, config: ExperimentConfig) -> float:
    """Spatial-truncation diagnostic: the exit-time bound for leaving the path
    window within the longest probed horizon.  Well below 1e-3, it certifies
    (heuristically) that the finite path stands in for the infinite one."""
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

def _default_boxes(root_row: np.ndarray) -> tuple:
    """(radius, threshold u) pairs spanning the carrier, from the scaled root distances."""
    others = np.sort(root_row)[1:]      # the root itself is left out
    radii = [float(r) for r in np.quantile(others, [0.35, 0.75]) if r > 0] if len(others) else []
    radii = (radii or [1.0]) + [float(root_row.max()) + 1.0]
    return tuple((r, u) for r in radii for u in (0.5, 1.0, 2.0))


def run_trap_convergence(config: ExperimentConfig) -> ResultTable:
    """Void probabilities of the trap point process and the truncated PRM.

    For each configured box A x (u, inf): the empirical void frequency over
    replicas against (1 - P(xi/c > u))^#A, a per-box chi-square p-value, the
    aggregate chi-square over boxes, and the scaling-identity residual where
    the identity holds (c u >= u_min).

    Level n's network is the kind's independent draw from ``child(7, n)``.
    Each side draws one stream per box, ``child(8, n, box)`` for the traps
    and ``child(9, n, box)`` for the PRM.  The traps are one (replicas,
    #A) block of Pareto draws.  The PRM replicas are drawn by
    ``traps._prm_blocks`` over #A atoms of mass 1/b, in consecutive blocks
    of replicas, each one ``poisson`` call of shape (rows, #A) and one block
    of weights handed out row-major; a replica is void when none of its
    weights exceeds u.  Distinct boxes have distinct streams, so the per-box
    chi-square cells are independent and the aggregate statistic has its
    nominal law.
    """
    law = config.law()
    table = ResultTable()
    for n in config.levels:
        scale = default_scales(config.kind, n, law)
        net = _ENSEMBLES[config.kind].draw(config, n, RngStream(config.seed).child(7, n))
        space = net.resistance_space
        root_row = space.dist[space.index(space.root)] / scale.a
        boxes = config.boxes or _default_boxes(root_row)

        masks = [(r, float(u), np.flatnonzero(ball_mask(root_row, r))) for r, u in boxes]

        reps = config.replicas
        cells: list = []
        for box_id, (r, u, idx) in enumerate(masks):
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
            residual = _cell(scaling_identity_residual, law, scale.b, u)
            if residual is not None:
                table.add(n, -1, r, u, "scaling_identity_residual", residual)
        _aggregate_row(table, cells, "pi", n)

        # Truncated PRM against the limit void probabilities.
        cells = []
        for box_id, (r, u, idx) in enumerate(masks):
            if len(idx) == 0 or u < config.prm_floor:
                continue
            masses = np.full(len(idx), 1.0 / scale.b)
            rng = RngStream(config.seed).child(9, n, box_id).generator()
            observed = 0
            for counts, weights in _prm_blocks(masses, config.alpha, config.prm_floor, reps, rng):
                # A replica is void unless one of its weights exceeds u.
                owner = np.repeat(np.arange(len(counts)), counts.sum(axis=1))
                observed += len(counts) - len(np.unique(owner[weights > u]))
            p0 = math.exp(-len(idx) / scale.b * u ** (-config.alpha))
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


# ---------------------------------------------------------------------------
# Metric convergence
# ---------------------------------------------------------------------------

def run_metric_convergence(config: ExperimentConfig) -> ResultTable:
    """Distances between consecutive levels embedded in their common carrier.

    Requires an ensemble with a canonical embedding (gasket: plane; path:
    line); other ensembles are skipped with a report row.
    """
    table = ResultTable()
    if _ENSEMBLES[config.kind].level is None:
        table.add(0, -1, 0.0, 0.0, "skipped_no_common_embedding", 1.0)
        return table
    level_graphs, traps = _build_coupled_levels(config)
    scales = [default_scales(config.kind, n, config.law()) for n in config.levels]

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
            xi = traps(rep)
            measures = [DiscreteMeasure(carrier, dict(zip(points[s],
                                                          map(float, xi[s] / scales[s].c))))
                        for s in (slot, slot + 1)]
            table.add(m, rep, 0.0, 0.0, "trap_dmdis", dis_measure_distance(*measures))
    return table
