"""Heavy-tailed trap environments, their scaling constants, and the
truncated Poisson random measure of the limit trap point process.

The trap law is an exact Pareto tail: P(xi > u) = (u / u_min)^(-alpha) for
u >= u_min with alpha in (0, 1).  For this law the mass scaling constant
c(b) = u_min * b^(1/alpha) turns the tail identity
b * P(xi / c > u) = u^(-alpha) into an exact finite-size statement rather
than a limit, which the test-suite exploits.

The truncated Poisson random measure is a point measure on S x (0, inf).
Like every point measure in the package it is a
:class:`~trapnets.measures.DiscreteMeasure` on a
:class:`~trapnets.measures.ProductCarrier`, the form the point map takes in
:func:`~trapnets.measures.dis_measure_distance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidScale, InvalidTruncation, TrapnetsError
from .measures import DiscreteMeasure, ProductCarrier
from .networks import ElectricalNetwork
from .rng import as_generator


@dataclass(frozen=True)
class TrapLaw:
    """Pareto trap-depth law: exact power tail above ``u_min``."""

    alpha: float
    u_min: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise TrapnetsError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.u_min > 0:
            raise TrapnetsError("u_min must be positive")

    def tail(self, u: float) -> float:
        """P(xi > u)."""
        if u <= self.u_min:
            return 1.0
        return (u / self.u_min) ** (-self.alpha)

    def quantile(self, u: np.ndarray | float):
        """Inverse tail: value at upper-tail probability ``u`` in (0, 1]."""
        return self.u_min * np.asarray(u, dtype=float) ** (-1.0 / self.alpha)


def pareto_sample(law: TrapLaw, rng: np.random.Generator, size=None):
    """Inverse-CDF draw(s): u_min * U^(-1/alpha) with U uniform on (0, 1]."""
    u = 1.0 - rng.random(size)
    out = law.quantile(u)
    return float(out) if size is None else out


def scaling_constant(law: TrapLaw, b: float) -> float:
    """c(b) = inf{u > 0 : P(xi > u) < 1/b}; equals u_min * b^(1/alpha)."""
    if not b >= 1.0:
        raise InvalidScale(f"mass scale must be >= 1, got {b}")
    return law.u_min * b ** (1.0 / law.alpha)


def scaling_identity_residual(law: TrapLaw, b: float, u: float) -> float:
    """Residual of b * P(xi / c(b) > u) - u^(-alpha), zero for the Pareto tail.

    Valid for c(b) * u >= u_min; computed through the generic tail function,
    so it exercises the same code path as the samplers and vanishes up to
    floating-point rounding.
    """
    c = scaling_constant(law, b)
    if c * u < law.u_min:
        raise TrapnetsError("identity only holds for u >= u_min / c")
    return b * law.tail(c * u) - u ** (-law.alpha)


@dataclass(frozen=True)
class ScaleTriple:
    """Space, mass, and trap-depth normalization constants."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class TrapEnvironment:
    """A network with a fully supported trap measure and its scaling triple."""

    network: ElectricalNetwork
    nu: DiscreteMeasure
    scale: ScaleTriple

    def __post_init__(self):
        # Building the generator checks that nu charges exactly the vertices.
        self.generator

    @cached_property
    def generator(self):
        from .dynamics import Generator

        return Generator(self.network, self.nu)


def sample_trap(net: ElectricalNetwork, law: TrapLaw, rng_or_stream) -> DiscreteMeasure:
    """One i.i.d. Pareto trap per vertex, in vertex insertion order."""
    rng = as_generator(rng_or_stream)
    draws = pareto_sample(law, rng, size=net.n_vertices)
    atoms = {v: float(x) for v, x in zip(net.vertex_ids, draws)}
    return DiscreteMeasure(None, atoms)


def make_environment(net: ElectricalNetwork, law: TrapLaw, a: float, b: float,
                     rng_or_stream) -> TrapEnvironment:
    """Sample a trap and package it with the (a, b, c) scaling triple."""
    nu = sample_trap(net, law, rng_or_stream)
    return TrapEnvironment(net, nu, ScaleTriple(a, b, scaling_constant(law, b)))


def truncated_prm(base: DiscreteMeasure, alpha: float, v_floor: float,
                  rng_or_stream) -> DiscreteMeasure:
    """Poisson random measure with intensity base(dx) * alpha v^(-1-alpha) dv,
    truncated to weights v >= v_floor.

    Per atom x of the base measure, the atom count is
    Poisson(base({x}) * v_floor^(-alpha)) and each weight is an independent
    v_floor * U^(-1/alpha) draw, so voids over A x (u, inf) have probability
    exp(-base(A) u^(-alpha)) exactly for every u >= v_floor.  The result
    lives on ``ProductCarrier(base.carrier)`` with one unit of weight per
    draw at each (x, v), so ``total()`` counts the draws.
    """
    if not v_floor > 0:
        raise InvalidTruncation("v_floor must be positive")
    if not 0.0 < alpha < 1.0:
        raise TrapnetsError("alpha must lie in (0, 1)")
    carrier = ProductCarrier(base.carrier)
    rng = as_generator(rng_or_stream)
    rate = v_floor ** (-alpha)
    atoms: dict = {}
    for p, mass in base.atoms.items():
        count = int(rng.poisson(mass * rate))
        if count:
            u = 1.0 - rng.random(count)
            for v in v_floor * u ** (-1.0 / alpha):
                atom = (p, float(v))
                atoms[atom] = atoms.get(atom, 0.0) + 1.0
    return DiscreteMeasure(carrier, atoms)
