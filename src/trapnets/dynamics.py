"""The trap-model continuous-time Markov chain and its two-point functions.

The chain jumps from x to y at rate mu(x, y) / nu({x}); its speed measure is
the trap measure nu, so conductance symmetry gives detailed balance and the
nu^(1/2)-conjugated generator is symmetric.  Transition kernels come from one
eigendecomposition of that symmetric matrix, making evaluation at many times
cheap and stable; path samples come from the exact (Gillespie) jump chain.

Aging and sub-aging two-point functions accept explicit time and holding
units so that the rescaled quantities (walk observed at times a*c*t, holding
probed over windows c*s) never mix scales implicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    NonpositiveTime,
    NumericalFailure,
    PreconditionViolated,
    SupportMismatch,
    TrapnetsError,
)
from .measures import DiscreteMeasure
from .networks import ElectricalNetwork, ball_mask, boundary_resistance
from .rng import as_generator

_ROW_SUM_TOL = 1e-10
_DENSITY_SYM_TOL = 1e-10


class Generator:
    """Rate matrix q(x, y) = mu(x, y) / nu({x}) with its spectral data."""

    def __init__(self, net: ElectricalNetwork, nu: DiscreteMeasure):
        for v in net.vertex_ids:
            if nu.atoms.get(v, 0.0) <= 0.0:
                raise SupportMismatch(f"nu must charge every vertex; {v!r} missing")
        extra = set(nu.atoms) - set(net.vertex_ids)
        if extra:
            raise SupportMismatch(f"nu charges non-vertices {sorted(map(repr, extra))}")
        self.net = net
        self.nu_values = np.array([nu.atoms[v] for v in net.vertex_ids])
        self.nu = nu

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.net.n_vertices
        q = np.zeros((n, n))
        iu, iv, w = self.net.edge_arrays
        q[iu, iv] = w / self.nu_values[iu]
        q[iv, iu] = w / self.nu_values[iv]
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    @cached_property
    def stationary(self) -> np.ndarray:
        return self.nu_values / self.nu_values.sum()

    @cached_property
    def _spectral(self):
        # Symmetrize with D^(1/2) Q D^(-1/2); eigenvalues are <= 0 and the
        # top eigenvector is sqrt(nu).
        sqrt_nu = np.sqrt(self.nu_values)
        sym = self.matrix * (sqrt_nu[:, None] / sqrt_nu[None, :])
        sym = 0.5 * (sym + sym.T)
        try:
            eigvals, eigvecs = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(str(exc)) from exc
        eigvals = np.minimum(eigvals, 0.0)
        # A connected network has exactly one zero mode; pin it so kernels at
        # very large times land exactly on the stationary projector.
        eigvals[-1] = 0.0
        back = eigvecs / sqrt_nu[:, None]       # D^(-1/2) U
        fwd = (eigvecs * sqrt_nu[:, None]).T    # U^T D^(1/2)
        return eigvals, back, fwd

    def kernel_matrix(self, t: float) -> np.ndarray:
        if t < 0:
            raise NonpositiveTime("time must be nonnegative")
        n = self.net.n_vertices
        if t == 0.0:
            return np.eye(n)
        eigvals, back, fwd = self._spectral
        return (back * np.exp(eigvals * t)) @ fwd

    def kernel_row(self, start, t: float) -> np.ndarray:
        """Row P_t(start, .) without forming the full matrix."""
        if t < 0:
            raise NonpositiveTime("time must be nonnegative")
        i = self.net.index(start)
        if t == 0.0:
            row = np.zeros(self.net.n_vertices)
            row[i] = 1.0
            return row
        eigvals, back, fwd = self._spectral
        return (back[i] * np.exp(eigvals * t)) @ fwd

    def kernel_diagonal(self, t: float) -> np.ndarray:
        if t < 0:
            raise NonpositiveTime("time must be nonnegative")
        if t == 0.0:
            return np.ones(self.net.n_vertices)
        eigvals, back, fwd = self._spectral
        return np.einsum("xk,kx->x", back * np.exp(eigvals * t), fwd)


def generator(net: ElectricalNetwork, nu: DiscreteMeasure) -> Generator:
    return Generator(net, nu)


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic matrix P_t with access to the nu-density p(t, x, y)."""

    time: float
    matrix: np.ndarray
    generator: Generator

    def __post_init__(self):
        rows = self.matrix.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > _ROW_SUM_TOL:
            raise NumericalFailure(
                f"kernel rows deviate from 1 by {np.max(np.abs(rows - 1.0)):.3e}")
        dens = self.density_matrix()
        if np.max(np.abs(dens - dens.T)) > _DENSITY_SYM_TOL:
            raise NumericalFailure("transition density is not symmetric")

    def probability(self, x, y) -> float:
        net = self.generator.net
        return float(self.matrix[net.index(x), net.index(y)])

    def density(self, x, y) -> float:
        net = self.generator.net
        return float(self.matrix[net.index(x), net.index(y)]
                     / self.generator.nu_values[net.index(y)])

    def density_matrix(self) -> np.ndarray:
        return self.matrix / self.generator.nu_values[None, :]


def transition_kernel(gen: Generator, t: float) -> TransitionKernel:
    if t < 0:
        raise NonpositiveTime("time must be nonnegative")
    return TransitionKernel(t, gen.kernel_matrix(t), gen)


@dataclass(frozen=True)
class PathSample:
    """Piecewise-constant trajectory: states with their holding durations."""

    states: tuple
    durations: tuple
    start: object
    horizon: float

    def state_at(self, t: float):
        if not 0 <= t <= self.horizon:
            raise TrapnetsError("time outside the simulated horizon")
        acc = 0.0
        for s, d in zip(self.states, self.durations):
            acc += d
            if t < acc:
                return s
        return self.states[-1]

    def jump_times(self) -> list:
        times = []
        acc = 0.0
        for d in self.durations[:-1]:
            acc += d
            times.append(acc)
        return times

    def jumps_in(self, a: float, b: float) -> int:
        return sum(1 for t in self.jump_times() if a < t <= b)


def _gillespie_tables(gen: Generator):
    net = gen.net
    means = []
    targets = []
    cums = []
    for i, (v, mu_x) in enumerate(zip(net.vertex_ids, net.total_conductance_vector)):
        nbrs = net.neighbors(v)
        if mu_x == 0.0:
            means.append(math.inf)
            targets.append([])
            cums.append(np.array([]))
            continue
        means.append(gen.nu_values[i] / mu_x)
        items = list(nbrs.items())
        targets.append([net.index(y) for y, _ in items])
        probs = np.array([w for _, w in items]) / mu_x
        cums.append(np.cumsum(probs))
    return means, targets, cums


def _run_chain(tables, i: int, horizon: float, rng, inside=None, visits=None) -> int:
    """Run the jump chain from state index i; return the index it stops in.

    Draws one exponential holding time per state entered and one scalar
    uniform per jump, and jumps only while the clock stays below the horizon.
    With ``inside``, the run stops right after the first jump out of that set
    of indices, drawing no holding time there.  With ``visits``, each state
    entered is appended as (index, holding time cut at the horizon).
    """
    means, targets, cums = tables
    t = 0.0
    while True:
        hold = rng.exponential(means[i]) if means[i] < math.inf else math.inf
        if t + hold >= horizon:
            if visits is not None:
                visits.append((i, horizon - t))
            return i
        if visits is not None:
            visits.append((i, hold))
        t += hold
        i = targets[i][int(np.searchsorted(cums[i], rng.random(), side="right"))]
        if inside is not None and i not in inside:
            return i


def simulate_path(gen: Generator, start, horizon: float, rng_or_stream) -> PathSample:
    """Exact jump-chain simulation up to the horizon.

    Holding at x is exponential with mean nu({x}) / mu(x); jumps go to y with
    probability mu(x, y) / mu(x).
    """
    if not horizon > 0:
        raise TrapnetsError("horizon must be positive")
    net = gen.net
    visits: list = []
    _run_chain(_gillespie_tables(gen), net.index(start), horizon,
               as_generator(rng_or_stream), visits=visits)
    states = tuple(net.vertex_ids[i] for i, _ in visits)
    return PathSample(states, tuple(d for _, d in visits), start, horizon)


def simulate_marginal(gen: Generator, start, t: float, rng_or_stream, n_paths: int) -> np.ndarray:
    """Empirical distribution of the state at time t over n_paths runs."""
    if not t > 0:
        raise NonpositiveTime("time must be positive")
    rng = as_generator(rng_or_stream)
    tables = _gillespie_tables(gen)
    counts = np.zeros(gen.net.n_vertices)
    i0 = gen.net.index(start)
    for _ in range(n_paths):
        counts[_run_chain(tables, i0, t, rng)] += 1
    return counts / n_paths


# ---------------------------------------------------------------------------
# Aging and sub-aging two-point functions
# ---------------------------------------------------------------------------

def aging_phi(gen: Generator, root, s: float, t: float, time_unit: float = 1.0) -> float:
    """P(X(time_unit * s) = X(time_unit * t)) started at the root; exact.

    For s <= t this is sum_x P_s'(root, x) P_{t'-s'}(x, x); the event is
    symmetric in (s, t) and equals one on the diagonal.
    """
    if not (s > 0 and t > 0):
        raise NonpositiveTime("aging times must be positive")
    if not time_unit > 0:
        raise TrapnetsError("time unit must be positive")
    if s == t:
        return 1.0
    lo, hi = (s, t) if s < t else (t, s)
    row = gen.kernel_row(root, time_unit * lo)
    diag = gen.kernel_diagonal(time_unit * (hi - lo))
    return float(np.clip(row @ diag, 0.0, 1.0))


def subaging_psi(gen: Generator, root, s: float, t: float,
                 time_unit: float = 1.0, holding_unit: float = 1.0) -> float:
    """P(no move during [T, T + holding_unit * s]) for T = time_unit * t; exact.

    Equals sum_x exp(-mu(x) * s / nu~({x})) P_T(root, x) with the holding-
    rescaled trap nu~ = nu / holding_unit, by the memoryless holding times.
    """
    if s < 0:
        raise NonpositiveTime("sub-aging window must be nonnegative")
    if not t > 0:
        raise NonpositiveTime("observation time must be positive")
    if not (time_unit > 0 and holding_unit > 0):
        raise TrapnetsError("scale units must be positive")
    if s == 0:
        return 1.0
    row = gen.kernel_row(root, time_unit * t)
    mu_tot = gen.net.total_conductance_vector
    decay = np.exp(-mu_tot * (holding_unit * s) / gen.nu_values)
    return float(np.clip(row @ decay, 0.0, 1.0))


@dataclass(frozen=True)
class AgingSurface:
    """Two-point function values on an (s, t) grid."""

    s_grid: tuple
    t_grid: tuple
    values: np.ndarray
    mode: str

    def rows(self):
        for i, s in enumerate(self.s_grid):
            for j, t in enumerate(self.t_grid):
                yield s, t, float(self.values[i, j])


def scaled_surface(env, root, s_grid: Sequence[float], t_grid: Sequence[float],
                   mode: str) -> AgingSurface:
    """Evaluate the rescaled two-point function on a grid.

    Aging mode evaluates at walk times a*c*s and a*c*t; sub-aging mode probes
    holding over [a*c*t, a*c*t + c*s].
    """
    if mode not in ("aging", "subaging"):
        raise TrapnetsError(f"unknown surface mode {mode!r}")
    gen = env.generator
    unit = env.scale.a * env.scale.c
    values = np.empty((len(s_grid), len(t_grid)))
    for i, s in enumerate(s_grid):
        for j, t in enumerate(t_grid):
            if mode == "aging":
                values[i, j] = aging_phi(gen, root, s, t, time_unit=unit)
            else:
                values[i, j] = subaging_psi(gen, root, s, t, time_unit=unit,
                                            holding_unit=env.scale.c)
    return AgingSurface(tuple(s_grid), tuple(t_grid), values, mode)


# ---------------------------------------------------------------------------
# Inequality checks (exit times and return probabilities)
# ---------------------------------------------------------------------------

def _wilson_interval(successes: int, n: int, z: float = 2.5758293035489004):
    """Wilson score interval; default z is the two-sided 99% quantile."""
    if n == 0:
        return 0.0, 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return phat, max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class ExitTimeCheck:
    empirical: float
    ci_low: float
    ci_high: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.ci_high <= self.bound


def exit_time_bound(env, x, r: float, delta: float, horizon: float) -> float:
    """Resistance-volume bound on P(exit the open r-ball around x by the horizon):
    4 delta / R(x, B(x, r)^c)
    + 4 T / (nu(B(x, delta)) * (R(x, B(x, r)^c) - delta)).

    Requires 0 < delta < R(x, B(x, r)^c).  Zero when the ball covers the
    whole space (the exit time is infinite).
    """
    return _exit_time_bound(env, x, boundary_resistance(env.network, x, r), delta, horizon)


def _exit_time_bound(env, x, res: float, delta: float, horizon: float) -> float:
    """exit_time_bound given res = R(x, B(x, r)^c), so callers solve for it once."""
    if horizon < 0:
        raise PreconditionViolated("horizon must be nonnegative")
    if math.isinf(res):
        return 0.0
    if not 0 < delta < res:
        raise PreconditionViolated(
            f"delta must lie in (0, R(x, ball complement)) = (0, {res})")
    net = env.network
    ix = net.index(x)
    small_ball = ball_mask(net.resistance_matrix[ix], delta)
    # The centre belongs to its ball even when the snap width exceeds delta.
    small_ball[ix] = True
    nu_small = float(sum(env.generator.nu_values[small_ball]))
    return 4.0 * delta / res + 4.0 * horizon / (nu_small * (res - delta))


def exit_time_bound_check(env, x, r: float, delta: float, horizon: float,
                          rng_or_stream, n_paths: int) -> ExitTimeCheck:
    """Monte Carlo exit-time probability against the resistance-volume bound.

    When the ball covers the whole space both sides degenerate to zero.
    """
    res = boundary_resistance(env.network, x, r)
    bound = _exit_time_bound(env, x, res, delta, horizon)
    if math.isinf(res):
        return ExitTimeCheck(0.0, 0.0, 0.0, 0.0)
    phat, lo, hi = _exit_interval(env, x, r, horizon, rng_or_stream, n_paths)
    return ExitTimeCheck(phat, lo, hi, bound)


def _exit_interval(env, x, radius: float, horizon: float, rng_or_stream, n_paths: int):
    """Wilson interval of the share of runs from x that leave the open
    radius-ball by the horizon."""
    ix = env.network.index(x)
    row = env.network.resistance_matrix[ix]
    # The centre belongs to its ball even when the snap width exceeds the radius.
    ball = set(np.flatnonzero(ball_mask(row, radius))) | {ix}
    tables = _gillespie_tables(env.generator)
    rng = as_generator(rng_or_stream)
    exits = sum(_run_chain(tables, ix, horizon, rng, inside=ball) not in ball
                for _ in range(n_paths))
    return _wilson_interval(exits, n_paths)


@dataclass(frozen=True)
class ReturnProbabilityCheck:
    stationary_bound_holds: bool
    local_bound_holds: bool
    kernel_value: float
    stationary_bound: float
    local_bound: float


def return_probability_bounds_check(env, x, t: float, eps: float,
                                    rng_or_stream=None, n_paths: int = 0) -> ReturnProbabilityCheck:
    """Check P_t(x, x) >= nu({x})/nu(total) and the trace-localized refinement.

    The refinement subtracts the exit probability of the eps-ball, estimated
    by Monte Carlo with its 99% upper confidence limit as slack; with
    ``n_paths == 0`` the exit probability is conservatively taken to be 1.
    """
    if not t >= 0:
        raise NonpositiveTime("time must be nonnegative")
    if not eps > 0:
        raise TrapnetsError("eps must be positive")
    gen = env.generator
    net = env.network
    ix = net.index(x)
    p_xx = float(gen.kernel_row(x, t)[ix])
    stat_bound = float(gen.stationary[ix])

    closed_ball = np.flatnonzero(ball_mask(net.resistance_matrix[ix], eps, closed=True))
    nu_ball = float(gen.nu_values[closed_ball].sum())
    mass_ratio = float(gen.nu_values[ix]) / nu_ball
    if n_paths > 0 and rng_or_stream is not None:
        exit_ci_high = _exit_interval(env, x, eps, t, rng_or_stream, n_paths)[2]
    else:
        exit_ci_high = 1.0
    local_bound = mass_ratio - exit_ci_high
    return ReturnProbabilityCheck(
        stationary_bound_holds=p_xx >= stat_bound - 1e-12,
        local_bound_holds=p_xx >= local_bound - 1e-12,
        kernel_value=p_xx,
        stationary_bound=stat_bound,
        local_bound=local_bound,
    )
