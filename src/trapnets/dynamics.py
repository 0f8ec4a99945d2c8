"""The trap-model continuous-time Markov chain and its two-point functions.

The chain jumps from x to y at rate mu(x, y) / nu({x}); its speed measure is
the trap measure nu, so conductance symmetry gives detailed balance and the
nu^(1/2)-conjugated generator is symmetric.  Transition kernels come from one
of two computations chosen per call (see :class:`Generator`): the matrix
exponential of the rate matrix at short times, and the eigenmodes of the
Green's operator at long times, where only the slow modes survive.  A call
that its computation does not serve within its error bound raises
:class:`NumericalFailure`.  Network size (``networks.LARGE_FROM``) picks how
the Green's operator is computed: from ``LARGE_FROM`` vertices on, the
grounded inverse comes from a sparse LU factorization and the slow modes
from Lanczos iteration; below it, from a dense Cholesky factorization and a
full eigendecomposition.  Path samples come from the exact (Gillespie) jump
chain.

Aging and sub-aging two-point functions accept explicit time and holding
units so that the rescaled quantities (walk observed at times a*c*t, holding
probed over windows c*s) never mix scales implicitly.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    NonpositiveTime,
    NumericalFailure,
    PreconditionViolated,
    SupportMismatch,
    TrapnetsError,
)
from .measures import DiscreteMeasure
from .networks import LARGE_FROM, ElectricalNetwork, ball_mask, boundary_resistance
from .rng import as_generator

_ROW_SUM_TOL = 1e-10
_DENSITY_SYM_TOL = 1e-10

# Slow modes asked of the one Lanczos run, besides the stationary mode.  At
# t = a*c the certificate held with 16 modes for every one of 60 trap draws
# at each of alpha 0.3, 0.5 and 0.8 on gasket level 5 (which needed at most
# 10 modes below the cut), and for 43 of 44 critical ER components of 256 or
# more vertices at alpha 0.5.
_SLOW_MODES = 16
# Lanczos steps before the dense eigendecomposition of the Green's operator
# takes over (gasket level 5 converged in 28-56 steps for alpha 0.3-0.8,
# critical ER components in 32-48), and the Ritz residual it must reach,
# relative to the largest Ritz value.
_LANCZOS_STEPS = 96
_LANCZOS_TOL = 1e-14
# Omitted modes leave at most exp(-_TRUNCATION_EXP) of L1 mass in any row.
_TRUNCATION_EXP = 36.0


class _Green(NamedTuple):
    """What both eigensolvers of the Green's operator share.

    M = P N P with N = D^(1/2) G D^(1/2), G the inverse of the Laplacian
    grounded at the heaviest trap, and P the projection off u.
    """

    green: np.ndarray       # G
    u: np.ndarray           # sqrt(nu) / |sqrt(nu)|
    n_u: np.ndarray         # N u
    frobenius: float        # |M|_F^2
    trace: float            # trace M
    n_frobenius: float      # |N|_F^2, which scales the rounding of |M|_F^2
    n_trace: float          # trace N, which scales the rounding of trace M

    @property
    def norm(self) -> float:
        """|M|_F."""
        return math.sqrt(max(self.frobenius, 0.0))


class _GreenModes(NamedTuple):
    """Modes of the Green's operator: kernels (back * exp(eigvals t)) @ fwd,
    certified at every time t >= t_min."""

    t_min: float
    eigvals: np.ndarray
    back: np.ndarray
    fwd: np.ndarray


class Generator:
    """Rate matrix q(x, y) = mu(x, y) / nu({x}) with its transition kernels.

    Kernels at time t come from one of two computations:

    - Short times: exp(Q t) by scaling and squaring (``scipy.linalg.expm``;
      Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 2009).  Its first-order
      rounding model is eps |S| t, with |S| Gershgorin's bound on the
      symmetrized generator S = D^(1/2) Q D^(-1/2) (D = diag(nu)).
    - The Green's operator M = P D^(1/2) G D^(1/2) P (G the inverse of the
      Laplacian grounded at the heaviest trap, P the projection off
      sqrt(nu)), whose eigenvalues are theta = 1/lambda for the eigenvalues
      -lambda of S.  Its first-order model is eps |M| 4e^(-2) / t, 4e^(-2) / t
      being the Lipschitz constant of theta -> exp(-t / theta).  That model
      does not refuse calls: the slow modes of M keep their relative accuracy
      (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 1992).  On gasket
      level 3 with alpha 0.05 and traps spanning 4e49, phi and psi at t = a*c
      match a 60-digit oracle within 2e-16, where the model allows 4e-5.

    A call at time t takes exp(Q t) when t^2 <= |M|_F / |S|, where the two
    models cross up to the constant 4e^(-2), and the Green's operator
    otherwise.  A network whose grounded factorization fails has |M|
    infinite and always takes exp(Q t); traps whose |M|_F^2 overflows raise
    :class:`NumericalFailure`.  The modes of M go back to P_t
    through D^(-1/2) and D^(1/2), which can amplify rounding in the
    eigenvectors by up to (nu(V) / min nu)^(1/2).  Every call therefore
    checks its kernels at time t: the largest row-sum residual
    |sum_y P_t(x, y) - 1|, plus eps |S| t for exp(Q t), must stay within
    ``_ROW_SUM_TOL``, or the call raises :class:`NumericalFailure`.

    The network size decides how G is factorized (see
    :attr:`ElectricalNetwork.green_matrix`: dense Cholesky below
    ``LARGE_FROM`` vertices, sparse LU from it on) and how M is
    eigendecomposed.  Below ``LARGE_FROM`` vertices, and as the fallback
    above it, M is eigendecomposed in full.  Eigenvalues at or below the
    floor n eps |M|_F are rounding and are dropped, so these kernels are
    certified at t >= floor * cut, cut = 36 + ln(nu(V) / min nu) / 2, and a
    call below that raises :class:`NumericalFailure`.  From ``LARGE_FROM``
    vertices on, the stationary mode plus the ``_SLOW_MODES`` largest
    eigenvalues of M come from Lanczos iteration with one product by G per
    step, Ritz values at or below the floor dropped.  Every eigenvalue of M they leave out is
    at most rest = min(rest_F, rest_T), rest_F = (|M|_F^2 - sum theta^2)^(1/2)
    and rest_T = trace M - sum theta, since M is positive semidefinite.  That
    holds whatever the iteration missed, such as copies of a repeated
    eigenvalue (symmetric traps on a symmetric network) that one start
    vector cannot reach.  The modes serve every time t >= rest * cut: each
    omitted mode then has exp(-lambda t) sqrt(nu(V) / nu(x)) <= exp(-36),
    which bounds the L1 error of every kernel row (Cauchy-Schwarz in
    l2(nu)) and the error of the diagonal.  The bound assumes that the Ritz
    pairs converged (the residual test of :func:`_lanczos`) and that the
    rounding of |M|_F^2 and trace M stays below the n eps |N|_F^2 and
    n eps trace N allowed for it (N = D^(1/2) G D^(1/2)).  Calls the Lanczos
    modes do not certify or whose rows fail the check, and every call after
    a run that does not converge, take the full eigendecomposition of M.

    Each eigendecomposition runs at most once per generator, the iteration
    from a fixed start vector, so values do not depend on the order of calls
    or on threads.
    """

    def __init__(self, net: ElectricalNetwork, nu: DiscreteMeasure):
        for v in net.vertex_ids:
            if not 0.0 < nu.atoms.get(v, 0.0) < math.inf:
                raise SupportMismatch(f"nu must give every vertex a finite positive mass; "
                                      f"{v!r} has {nu.atoms.get(v)!r}")
        extra = set(nu.atoms) - set(net.vertex_ids)
        if extra:
            raise SupportMismatch(f"nu charges non-vertices {sorted(map(repr, extra))}")
        self.net = net
        self.nu_values = np.array([nu.atoms[v] for v in net.vertex_ids])

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

    def _spectral(self, t: float) -> np.ndarray:
        """The kernel matrix exp(Q t) at a time t below the crossover, checked.

        (The benchmark tracer in ``perfbench/spans.py`` times this method by
        its name.)
        """
        kernel = scipy.linalg.expm(self.matrix * t)
        _check(np.finfo(float).eps * self._generator_norm * t
               + float(np.max(np.abs(kernel.sum(axis=1) - 1.0))), t)
        return kernel

    @cached_property
    def _generator_norm(self) -> float:
        """Gershgorin bound on |S|_2: the largest absolute row sum of S."""
        nu, n = self.nu_values, self.net.n_vertices
        iu, iv, w = self.net.edge_arrays
        off = w / np.sqrt(nu[iu] * nu[iv])
        rows = (self.net.total_conductance_vector / nu
                + np.bincount(iu, off, n) + np.bincount(iv, off, n))
        return float(rows.max())

    @cached_property
    def _green(self) -> _Green | None:
        """The Green's operator data, or None when the grounded factorization
        fails."""
        try:
            root_grounded = self.net.green_matrix
        except NumericalFailure:
            return None
        nu = self.nu_values
        sqrt_nu = np.sqrt(nu)
        u = sqrt_nu / np.linalg.norm(sqrt_nu)
        # M does not depend on the vertex G is grounded at, since P kills
        # D^(1/2) 1.  Grounded at the root, D^(1/2) G D^(1/2) can exceed |M|
        # by 1e15 when one trap holds nearly all of nu, and M loses every
        # digit to cancellation; grounded at the heaviest trap it stays
        # within a few times |M|.
        z = int(np.argmax(nu))
        green = root_grounded - root_grounded[:, [z]]
        green -= root_grounded[z]
        green += root_grounded[z, z]
        n_u = sqrt_nu * (green @ (sqrt_nu * u))
        u_n_u = float(u @ n_u)
        try:
            with np.errstate(over="raise"):
                n_frobenius = float(nu @ (green * green) @ nu)
                # |M|_F^2 = |N|_F^2 - 2 |N u|^2 + (u.N u)^2.
                frobenius = n_frobenius - 2.0 * (n_u @ n_u) + u_n_u ** 2
        except (FloatingPointError, OverflowError) as exc:
            raise NumericalFailure(f"|M|_F^2 overflows: traps up to {nu.max():.3e}") from exc
        n_trace = float(nu @ np.diag(green))
        # trace M = trace N - u.N u.
        return _Green(green, u, n_u, frobenius, n_trace - u_n_u, n_frobenius, n_trace)

    def _green_record(self, rest: float, theta: np.ndarray, vecs: np.ndarray) -> _GreenModes:
        """Modes theta = 1/lambda of M plus the stationary one, certified from
        rest * cut on when rest bounds every eigenvalue of M left out."""
        nu = self.nu_values
        sqrt_nu = np.sqrt(nu)
        cut = _TRUNCATION_EXP + 0.5 * math.log(nu.sum() / nu.min())
        eigvals = np.append(-1.0 / theta, 0.0)
        vecs = np.column_stack((vecs, self._green.u))
        return _GreenModes(rest * cut, eigvals, vecs / sqrt_nu[:, None],
                           (vecs * sqrt_nu[:, None]).T)

    def _floor(self) -> float:
        """Eigenvalues of M at or below n eps |M|_F are rounding."""
        return self.net.n_vertices * np.finfo(float).eps * self._green.norm

    @cached_property
    def _green_modes(self) -> _GreenModes:
        """Full dense eigendecomposition of the Green's operator."""
        g = self._green
        sqrt_nu = np.sqrt(self.nu_values)
        # M = P N P = N - u w^T - w u^T with w = N u - (u.N u) u / 2.
        w = g.n_u - 0.5 * float(g.u @ g.n_u) * g.u
        m = sqrt_nu[:, None] * g.green * sqrt_nu[None, :]
        m -= g.u[:, None] * w[None, :]
        m -= w[:, None] * g.u[None, :]
        try:
            theta, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(str(exc)) from exc
        floor = self._floor()
        keep = theta > floor
        return self._green_record(floor, theta[keep], vecs[:, keep])

    @cached_property
    def _slow_modes(self) -> _GreenModes:
        """Lanczos slow modes of the Green's operator on networks of at least
        ``LARGE_FROM`` vertices, converged; else :attr:`_green_modes`."""
        if self.net.n_vertices < LARGE_FROM:
            return self._green_modes
        g = self._green
        u, sqrt_nu = g.u, np.sqrt(self.nu_values)

        def green_operator(x):
            y = sqrt_nu * (g.green @ (sqrt_nu * (x - u * (u @ x))))
            return y - u * (u @ y)

        v0 = np.random.default_rng(0).standard_normal(len(u))
        top = _lanczos(green_operator, v0 - u * (u @ v0))
        if top is None:
            return self._green_modes
        theta, vecs = top
        keep = theta > self._floor()
        theta, vecs = theta[keep], vecs[:, keep]
        slack = len(u) * np.finfo(float).eps
        rest_f = math.sqrt(max(g.frobenius - theta @ theta, 0.0) + slack * g.n_frobenius)
        rest_t = max(g.trace - theta.sum(), 0.0) + slack * g.n_trace
        return self._green_record(min(rest_f, rest_t), theta, vecs)

    def _takes_generator(self, t: float) -> bool:
        """The crossover rule: t^2 <= |M|_F / |S|, with |M| infinite when the
        grounded factorization fails."""
        return self._green is None or t * t * self._generator_norm <= self._green.norm

    def _modes(self, t: float):
        """(eigvals, back, fwd) of the Green's operator whose kernels at time t
        pass their check."""
        slow = self._slow_modes
        if t >= slow.t_min and _row_error(slow[1:], t) <= _ROW_SUM_TOL:
            return slow[1:]
        green = self._green_modes
        if t < green.t_min:
            raise NumericalFailure(
                f"Green's operator kernels are certified from t = {green.t_min:.3e}, "
                f"not at t = {t:.3e}")
        _check(_row_error(green[1:], t), t)
        return green[1:]

    def kernel_matrix(self, t: float) -> np.ndarray:
        _check_time(t)
        if t == 0.0:
            return np.eye(self.net.n_vertices)
        if self._takes_generator(t):
            return self._spectral(t)
        eigvals, back, fwd = self._modes(t)
        return (back * np.exp(eigvals * t)) @ fwd

    def kernel_row(self, start, t: float) -> np.ndarray:
        """Row P_t(start, .); past the crossover without forming the full
        matrix."""
        _check_time(t)
        i = self.net.index(start)
        if t == 0.0:
            row = np.zeros(self.net.n_vertices)
            row[i] = 1.0
            return row
        if self._takes_generator(t):
            return self._spectral(t)[i].copy()
        eigvals, back, fwd = self._modes(t)
        return (back[i] * np.exp(eigvals * t)) @ fwd

    def kernel_diagonal(self, t: float) -> np.ndarray:
        _check_time(t)
        if t == 0.0:
            return np.ones(self.net.n_vertices)
        if self._takes_generator(t):
            return self._spectral(t).diagonal().copy()
        eigvals, back, fwd = self._modes(t)
        return np.einsum("xk,kx->x", back * np.exp(eigvals * t), fwd)


def _check_time(t: float) -> None:
    if not 0 <= t < math.inf:
        raise NonpositiveTime(f"time must be finite and nonnegative, got {t!r}")


def _check(error: float, t: float) -> None:
    """Refuse kernels at time t whose error bound exceeds ``_ROW_SUM_TOL`` or
    is NaN."""
    if not error <= _ROW_SUM_TOL:
        raise NumericalFailure(f"kernels at t = {t:.3e} may be off by {error:.1e}")


def _row_error(modes, t: float) -> float:
    """Largest |sum_y P_t(x, y) - 1| of the kernels from (eigvals, back, fwd)."""
    eigvals, back, fwd = modes
    return float(np.max(np.abs(back @ (np.exp(eigvals * t) * fwd.sum(axis=1)) - 1.0)))


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


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic matrix P_t with access to the nu-density p(t, x, y)."""

    time: float
    matrix: np.ndarray
    generator: Generator

    def __post_init__(self):
        rows = np.max(np.abs(self.matrix.sum(axis=1) - 1.0))
        if not rows <= _ROW_SUM_TOL:
            raise NumericalFailure(f"kernel rows deviate from 1 by {rows:.3e}")
        dens = self.density_matrix()
        if not np.max(np.abs(dens - dens.T)) <= _DENSITY_SYM_TOL:
            raise NumericalFailure("transition density is not symmetric")

    def density_matrix(self) -> np.ndarray:
        return self.matrix / self.generator.nu_values[None, :]


def transition_kernel(gen: Generator, t: float) -> TransitionKernel:
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


def _gillespie_tables(gen: Generator) -> list:
    """One entry per state: (mean holding time, neighbour indices, cumulative
    jump probabilities), as plain Python values.  The last cumulative
    probability is exactly 1.0, so every uniform in [0, 1) picks a neighbour."""
    net = gen.net
    tables = []
    for v, nu_x, mu_x in zip(net.vertex_ids, gen.nu_values.tolist(),
                             net.total_conductance_vector.tolist()):
        if mu_x == 0.0:
            tables.append((math.inf, [], []))
            continue
        items = net.neighbors(v).items()
        cum = list(itertools.accumulate(w / mu_x for _, w in items))
        cum[-1] = 1.0
        tables.append((nu_x / mu_x, [net.index(y) for y, _ in items], cum))
    return tables


def _run_chain(tables: list, i: int, horizon: float, rng, inside=None, visits=None) -> int:
    """Run the jump chain from state index i; return the index it stops in.

    Draws one exponential holding time per state entered and one scalar
    uniform per jump, and jumps only while the clock stays below the horizon.
    With ``inside``, the run stops right after the first jump out of that set
    of indices, drawing no holding time there.  With ``visits``, each state
    entered is appended as (index, holding time cut at the horizon).
    """
    t = 0.0
    while True:
        mean, targets, cum = tables[i]
        hold = rng.exponential(mean) if mean < math.inf else math.inf
        if t + hold >= horizon:
            if visits is not None:
                visits.append((i, horizon - t))
            return i
        if visits is not None:
            visits.append((i, hold))
        t += hold
        i = targets[bisect_right(cum, rng.random())]
        if inside is not None and i not in inside:
            return i


def simulate_path(gen: Generator, start, horizon: float, rng_or_stream) -> PathSample:
    """Exact jump-chain simulation up to the horizon.

    Holding at x is exponential with mean nu({x}) / mu(x); jumps go to y with
    probability mu(x, y) / mu(x).
    """
    if not 0 < horizon < math.inf:
        raise NonpositiveTime(f"horizon must be finite and positive, got {horizon!r}")
    net = gen.net
    visits: list = []
    _run_chain(_gillespie_tables(gen), net.index(start), horizon,
               as_generator(rng_or_stream), visits=visits)
    states = tuple(net.vertex_ids[i] for i, _ in visits)
    return PathSample(states, tuple(d for _, d in visits), start, horizon)


def simulate_marginal(gen: Generator, start, t: float, rng_or_stream, n_paths: int) -> np.ndarray:
    """Empirical distribution of the state at time t over n_paths runs."""
    if not 0 < t < math.inf:
        raise NonpositiveTime(f"time must be finite and positive, got {t!r}")
    if n_paths < 1:
        raise PreconditionViolated("n_paths must be at least 1")
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

def _probability(value) -> float:
    """A computed probability: rounding past [0, 1] is snapped, a value more
    than ``_ROW_SUM_TOL`` outside raises :class:`NumericalFailure`."""
    value = float(value)
    if not -_ROW_SUM_TOL <= value <= 1.0 + _ROW_SUM_TOL:
        raise NumericalFailure(f"probability {value!r} lies outside [0, 1]")
    return min(max(value, 0.0), 1.0)


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
    return _probability(row @ diag)


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
    return _probability(row @ decay)


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


def _scaled_phi(env, root, s: float, t: float) -> float:
    """Aging function of a trap environment at walk times a*c*s and a*c*t."""
    return aging_phi(env.generator, root, s, t, time_unit=env.scale.a * env.scale.c)


def _scaled_psi(env, root, s: float, t: float) -> float:
    """Sub-aging function of a trap environment: holding probed over
    [a*c*t, a*c*t + c*s]."""
    return subaging_psi(env.generator, root, s, t, time_unit=env.scale.a * env.scale.c,
                        holding_unit=env.scale.c)


def scaled_surface(env, root, s_grid: Sequence[float], t_grid: Sequence[float],
                   mode: str) -> AgingSurface:
    """Evaluate the rescaled two-point function on a grid.

    Aging mode evaluates at walk times a*c*s and a*c*t; sub-aging mode probes
    holding over [a*c*t, a*c*t + c*s].
    """
    if mode not in ("aging", "subaging"):
        raise TrapnetsError(f"unknown surface mode {mode!r}")
    evaluate = _scaled_phi if mode == "aging" else _scaled_psi
    values = np.empty((len(s_grid), len(t_grid)))
    for i, s in enumerate(s_grid):
        for j, t in enumerate(t_grid):
            values[i, j] = evaluate(env, root, s, t)
    return AgingSurface(tuple(s_grid), tuple(t_grid), values, mode)


# ---------------------------------------------------------------------------
# Inequality checks (exit times and return probabilities)
# ---------------------------------------------------------------------------

def _wilson_interval(successes: int, n: int, z: float = 2.5758293035489004):
    """Wilson score interval; default z is the two-sided 99% quantile."""
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
    if n_paths < 1:
        raise PreconditionViolated("n_paths must be at least 1")
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
    _check_time(t)
    if not eps > 0:
        raise TrapnetsError("eps must be positive")
    if n_paths < 0 or (n_paths > 0 and rng_or_stream is None):
        raise PreconditionViolated("n_paths must be 0, or positive with a random stream")
    gen = env.generator
    net = env.network
    ix = net.index(x)
    p_xx = float(gen.kernel_row(x, t)[ix])
    stat_bound = float(gen.stationary[ix])

    closed_ball = np.flatnonzero(ball_mask(net.resistance_matrix[ix], eps, closed=True))
    nu_ball = float(gen.nu_values[closed_ball].sum())
    mass_ratio = float(gen.nu_values[ix]) / nu_ball
    if n_paths > 0:
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
