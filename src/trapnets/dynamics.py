"""The trap-model continuous-time Markov chain and its two-point functions.

The chain jumps from x to y at rate mu(x, y) / nu({x}); its speed measure is
the trap measure nu, so conductance symmetry gives detailed balance and the
nu^(1/2)-conjugated generator is symmetric.  Transition kernels are sums over
eigenmodes of that symmetric matrix, from one of two paths (see
:class:`Generator`): a dense eigendecomposition, or on networks of at least
``_TRUNCATE_FROM`` vertices the few slow modes that a certified truncation
keeps at the time asked.  Path samples come from the exact (Gillespie) jump
chain.

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

# Networks with at least this many vertices try the truncated spectral path.
# Measured crossover (one BLAS thread, critical ER components, the slow modes
# including the network's own grounded inverse against dense eigh): 7.6
# against 4.9 ms at 128-191 vertices, 10.1 against 8.8 ms at 192-255, 12.3
# against 12.1 ms at 256-319, 20.9 against 23.1 ms at 320-383; with the
# inverse shared, as on a gasket level, 3.7-5.1 ms.  Gasket level 5 (366
# vertices, shared inverse): 7.1 against 27.2 ms.
_TRUNCATE_FROM = 256
# Slow modes asked of the one Lanczos run, besides the stationary mode.  At
# t = a*c the certificate held with 16 modes for every one of 60 trap draws
# at each of alpha 0.3, 0.5 and 0.8 on gasket level 5 (which needed at most
# 10 modes below the cut), and for 43 of 44 critical ER components of 256 or
# more vertices at alpha 0.5.
_SLOW_MODES = 16
# Lanczos steps before the truncated path gives way to the dense one (gasket
# level 5 converged in 28-56 steps for alpha 0.3-0.8, critical ER components
# in 32-48), and the Ritz residual it must reach, relative to the largest
# Ritz value.
_LANCZOS_STEPS = 96
_LANCZOS_TOL = 1e-14
# Omitted modes leave at most exp(-_TRUNCATION_EXP) of L1 mass in any row.
_TRUNCATION_EXP = 36.0


class Generator:
    """Rate matrix q(x, y) = mu(x, y) / nu({x}) with its spectral data.

    Kernels at time t are sum_k exp(-lambda_k t) over eigenmodes of the
    symmetrized generator, taken from one of two paths:

    - Truncated, on networks of at least ``_TRUNCATE_FROM`` vertices: the
      stationary mode plus the ``_SLOW_MODES`` largest eigenvalues
      theta = 1/lambda of the Green's operator M = P D^(1/2) G D^(1/2) P
      (D = diag(nu), G the network's grounded inverse of the Laplacian,
      moved to ground at the heaviest trap, P the projection off sqrt(nu)),
      from Lanczos iteration with one product by G per step.  Every
      eigenvalue of M they leave out is at most
      rest = (|M|_F^2 - sum theta^2)^(1/2), since the squares of all
      eigenvalues sum to |M|_F^2.  That holds whatever the iteration
      missed, such as copies of a repeated eigenvalue (symmetric traps on a
      symmetric network) that one start vector cannot reach.  The modes
      serve every time t >= rest * cut, cut = 36 + ln(nu(V) / min nu) / 2:
      each omitted mode then has exp(-lambda t) sqrt(nu(V) / nu(x)) <=
      exp(-36), which bounds the L1 error of every kernel row
      (Cauchy-Schwarz in l2(nu)) and the error of the diagonal.  The bound
      assumes only that the Ritz pairs converged (the residual test of
      :func:`_lanczos`) and that rounding of |M|_F^2 stays below the
      n eps |D^(1/2) G D^(1/2)|_F^2 allowed for it.
    - Dense, everywhere else: one eigendecomposition of the symmetrized
      generator.  It serves smaller networks, times below the certified
      one, and networks where the iteration does not converge or the
      grounded factorization fails.

    The iteration runs at most once per generator, from a fixed start
    vector, so values do not depend on the order of calls or on threads.
    """

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

    @cached_property
    def _slow_modes(self):
        """(t_min, eigvals, back, fwd) of the slow modes, or None.

        The top eigenpairs theta = 1/lambda of the Green's operator
        M = P D^(1/2) G D^(1/2) P, by Lanczos from a fixed start vector, plus
        the stationary mode.  Every eigenvalue of M they omit, found or not,
        is at most rest = (|M|_F^2 - sum theta^2)^(1/2), and kernels from
        them are certified at times t >= rest * cut.  None when the iteration
        does not converge or the grounded factorization fails.
        """
        nu = self.nu_values
        sqrt_nu = np.sqrt(nu)
        u = sqrt_nu / np.linalg.norm(sqrt_nu)
        try:
            root_grounded = self.net.green_matrix
        except NumericalFailure:
            return None
        # M does not depend on the vertex G is grounded at, since P kills
        # D^(1/2) 1.  Grounded at the root, D^(1/2) G D^(1/2) can exceed |M|
        # by 1e15 when one trap holds nearly all of nu, and M loses every
        # digit to cancellation; grounded at the heaviest trap it stays
        # within a few times |M|.
        z = int(np.argmax(nu))
        green = root_grounded - root_grounded[:, [z]]
        green -= root_grounded[z]
        green += root_grounded[z, z]

        def green_operator(x):
            y = sqrt_nu * (green @ (sqrt_nu * (x - u * (u @ x))))
            return y - u * (u @ y)

        v0 = np.random.default_rng(0).standard_normal(len(nu))
        top = _lanczos(green_operator, v0 - u * (u @ v0))
        if top is None or not top[0][0] > 0:
            return None
        theta, vecs = top
        # |M|_F^2 = |N|_F^2 - 2 |N u|^2 + (u.N u)^2 for N = D^(1/2) G D^(1/2),
        # with an allowance of n eps |N|_F^2 for its rounding.
        n_u = sqrt_nu * (green @ (sqrt_nu * u))
        n_frobenius = nu @ (green * green) @ nu
        frobenius = n_frobenius - 2.0 * (n_u @ n_u) + (u @ n_u) ** 2
        rest = math.sqrt(max(frobenius - theta @ theta, 0.0)
                         + len(nu) * np.finfo(float).eps * n_frobenius)
        cut = _TRUNCATION_EXP + 0.5 * math.log(nu.sum() / nu.min())
        eigvals = np.append(-1.0 / theta, 0.0)
        vecs = np.column_stack((vecs, u))
        return rest * cut, eigvals, vecs / sqrt_nu[:, None], (vecs * sqrt_nu[:, None]).T

    def _modes(self, t: float):
        """(eigvals, back, fwd) whose kernels are certified at time t."""
        if self.net.n_vertices >= _TRUNCATE_FROM:
            slow = self._slow_modes
            if slow is not None and t >= slow[0]:
                return slow[1:]
        return self._spectral

    def kernel_matrix(self, t: float) -> np.ndarray:
        if t < 0:
            raise NonpositiveTime("time must be nonnegative")
        n = self.net.n_vertices
        if t == 0.0:
            return np.eye(n)
        eigvals, back, fwd = self._modes(t)
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
        eigvals, back, fwd = self._modes(t)
        return (back[i] * np.exp(eigvals * t)) @ fwd

    def kernel_diagonal(self, t: float) -> np.ndarray:
        if t < 0:
            raise NonpositiveTime("time must be nonnegative")
        if t == 0.0:
            return np.ones(self.net.n_vertices)
        eigvals, back, fwd = self._modes(t)
        return np.einsum("xk,kx->x", back * np.exp(eigvals * t), fwd)


def _lanczos(apply, v0: np.ndarray):
    """Top ``_SLOW_MODES`` eigenpairs (ascending) of a symmetric operator, or
    None when they do not converge within ``_LANCZOS_STEPS`` steps.

    Lanczos iteration with full reorthogonalization (classical Gram-Schmidt,
    twice), checked every four steps: the top Ritz pairs are accepted once
    each residual |beta_m s_mi| is at most ``_LANCZOS_TOL`` times the largest
    Ritz value (Saad, Numerical Methods for Large Eigenvalue Problems, 2011,
    ch. 6).  Only numpy's BLAS runs here.  ARPACK
    (``scipy.sparse.linalg.eigsh``) calls scipy's own OpenBLAS thread pool;
    with two BLAS threads, alternating it with numpy's ``eigh`` on the
    smaller gasket levels made 100 replicas of levels 1-5 take 3.0-3.5 s,
    against 2.8 s on the dense path alone and 1.0 s with this iteration.
    """
    k, steps = _SLOW_MODES, _LANCZOS_STEPS
    basis = np.zeros((steps, len(v0)))
    basis[0] = v0 / np.linalg.norm(v0)
    tri = np.zeros((steps, steps))
    for j in range(steps):
        w = apply(basis[j])
        tri[j, j] = basis[j] @ w
        for _ in range(2):
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        beta = np.linalg.norm(w)
        m = j + 1
        if m >= k and m % 4 == 0:
            theta, ritz = np.linalg.eigh(tri[:m, :m])
            if np.all(beta * np.abs(ritz[-1, -k:]) <= _LANCZOS_TOL * theta[-1]):
                return theta[-k:], basis[:m].T @ ritz[:, -k:]
        if m < steps:
            tri[j, m] = tri[m, j] = beta
            basis[m] = w / beta
    return None


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
