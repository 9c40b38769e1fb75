"""Certificate design: from the damping gain and the domain's Poincare
constant to trigger weights, a Lyapunov cross-weight, decay margins, and the
certified overshoot/rate pair.

The pipeline is pure arithmetic.  Feasibility of the cross-weight interval
is decided by comparing its two endpoints directly; the certificate's
diagnostics record the interval, its uncapped upper end, the weights'
suprema and the number of shrinks that led there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigurationError, DataFormatError, DesignFailureError, InfeasibleDomainError, WavetrigError
from .grid import C_OMEGA_SOURCES, Grid, discrete_poincare_constant, poincare_constant

__all__ = [
    "DesignInput",
    "StabilityCertificate",
    "gamma_bounds",
    "epsilon_interval",
    "margins",
    "certified_constants",
    "build_certificate",
    "c_omega_fits",
    "vdot_bound_rhs",
    "SQRT2",
]

SQRT2 = math.sqrt(2.0)

# A first-try interval can be degenerate to the last bit (it is exactly a
# point for alpha = 1 with half-of-supremum weights), so feasibility demands
# a minimal relative width rather than a strict float comparison.
_MIN_REL_WIDTH = 1e-12

_SHRINK_BUDGET = 60


@dataclass(frozen=True)
class DesignInput:
    """Inputs of the design pipeline.

    ``s_gamma0``/``s_gamma1`` place the trigger weights that fraction of the
    way into their admissible open intervals; ``theta_margin > 1`` scales the
    threshold decay rate above its strict lower bound (smaller margins
    inflate the overshoot).
    """

    alpha: float
    c_omega: float
    c_omega_source: str = "user"
    s_gamma0: float = 0.5
    s_gamma1: float = 0.5
    theta_margin: float = 1.5

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigurationError(f"damping gain must be positive, got {self.alpha}")
        if not self.c_omega > 0:
            raise ConfigurationError(f"Poincare constant must be positive, got {self.c_omega}")
        if not (0 < self.s_gamma0 < 1 and 0 < self.s_gamma1 < 1):
            raise ConfigurationError("safety fractions must lie in (0, 1)")
        if not self.theta_margin > 1:
            raise ConfigurationError("theta_margin must exceed 1")
        if self.c_omega_source not in C_OMEGA_SOURCES:
            raise ConfigurationError(f"c_omega_source {self.c_omega_source!r} is not one of {C_OMEGA_SOURCES}")


@dataclass(frozen=True)
class StabilityCertificate:
    """Full output of the design pipeline.

    Guarantees, for the closed loop run with these trigger parameters:
    ``c1*E <= V <= c2*E`` along trajectories, ``dV/dt <= -beta*E +
    (alpha/2)(1+alpha*eps)*eta0``, and the energy envelope
    ``E(t) <= overshoot * exp(-decay_rate * t) * E(0)``.
    """

    alpha: float
    c_omega: float
    c_omega_source: str
    gamma0: float
    gamma1: float
    epsilon: float
    nu0: float
    nu1: float
    beta: float
    c1: float
    c2: float
    theta: float
    mu: float
    overshoot: float
    decay_rate: float
    s_gamma0: float
    s_gamma1: float
    theta_margin: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        checks = [
            self.c_omega < SQRT2,
            0 < self.epsilon < 1.0 / self.c_omega,
            self.nu0 > 0,
            self.nu1 > 0,
            self.beta == min(self.nu0, self.nu1),
            0 < self.c1 < 1 < self.c2,
            self.theta > self.beta / self.c2,
            self.mu > 0,
            self.decay_rate > 0,
            self.overshoot > 1,
        ]
        if not all(checks):
            raise DesignFailureError(f"certificate invariants violated: {self}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "StabilityCertificate":
        """A certificate read from a file, as :func:`build_certificate` makes it
        from its own inputs, the fields of :class:`DesignInput`.  Raises
        DataFormatError unless every other field but ``diagnostics`` equals the
        designer's to the last bit."""
        try:
            cert = cls(**d)
            made = build_certificate(DesignInput(*(getattr(cert, f.name) for f in fields(DesignInput))))
        except (TypeError, ArithmeticError, WavetrigError) as exc:
            raise DataFormatError(f"not a valid certificate: {exc}") from exc
        mismatched = [f.name for f in fields(cls)
                      if f.name != "diagnostics" and getattr(made, f.name) != getattr(cert, f.name)]
        if mismatched:
            raise DataFormatError(f"certificate values {mismatched} are not what design makes from its inputs")
        return made


def gamma_bounds(alpha: float, c_omega: float) -> tuple[float, float]:
    """Strict upper bounds for the trigger weights (gamma0_sup, gamma1_sup).

    The split at ``alpha = 2`` reflects which of the two interval endpoints
    binds; below it the position weight must also clear the
    ``2*(2 - alpha^2)`` factor and the velocity weight is capped at 1/2.
    """
    if not alpha > 0:
        raise ConfigurationError(f"damping gain must be positive, got {alpha}")
    if not 0 < c_omega < SQRT2:
        raise InfeasibleDomainError(
            f"certificate requires C_Omega < sqrt(2); got C_Omega = {c_omega}"
        )
    csq = c_omega * c_omega
    if alpha < 2:
        g0 = (2.0 - csq) / (csq * max(alpha * alpha + alpha * c_omega, 2.0 * (2.0 - alpha * alpha)))
        g1 = 0.5
    else:
        g0 = (2.0 - csq) / (alpha * alpha * csq + alpha * csq * c_omega)
        g1 = 1.0
    return g0, g1


def _epsilon_hi_uncapped(alpha: float, gamma1: float) -> float:
    # the cross-weight at which the velocity margin nu1 vanishes
    return alpha * (1.0 - gamma1) / (2.0 + alpha * alpha * gamma1)


def epsilon_interval(alpha: float, c_omega: float, gamma0: float, gamma1: float) -> tuple[float, float]:
    """Open interval of admissible Lyapunov cross-weights.

    ``lo`` makes the position margin nu0 vanish; the uncapped ``hi`` makes
    the velocity margin nu1 vanish; the cap 1/C_Omega keeps the lower
    equivalence constant c1 positive.  Returns (lo, hi); the caller decides
    emptiness (lo >= hi signals that the weights must shrink).
    """
    csq = c_omega * c_omega
    den = 2.0 - csq * (1.0 + alpha * alpha * gamma0)
    if den <= 0:
        raise ConfigurationError(
            f"position weight {gamma0} too large: 2 - C^2(1 + alpha^2 gamma0) = {den} <= 0"
        )
    lo = alpha * gamma0 * csq / den
    hi = min(_epsilon_hi_uncapped(alpha, gamma1), 1.0 / c_omega)
    return lo, hi


def margins(alpha: float, c_omega: float, gamma0: float, gamma1: float, eps: float) -> tuple[float, float, float]:
    """Decay margins (nu0, nu1) and their minimum beta.

    Negative values are returned unchanged; they flag an infeasible
    cross-weight rather than raising.
    """
    csq = c_omega * c_omega
    nu0 = 2.0 * eps - alpha * gamma0 * csq - eps * csq * (1.0 + alpha * alpha * gamma0)
    nu1 = 2.0 * alpha - 2.0 * eps - alpha * (gamma1 + 1.0) - alpha * alpha * eps * gamma1
    return nu0, nu1, min(nu0, nu1)


def certified_constants(alpha: float, c_omega: float, gamma0: float, gamma1: float, eps: float, theta: float) -> dict:
    """nu0, nu1, beta, c1, c2, mu, overshoot and decay_rate of the certificate
    at this design point."""
    nu0, nu1, beta = margins(alpha, c_omega, gamma0, gamma1, eps)
    c1 = 1.0 - eps * c_omega
    c2 = 1.0 + eps * c_omega + eps * alpha * c_omega * c_omega
    mu = alpha * (1.0 + eps) / (2.0 * (theta - beta / c2))
    return dict(nu0=nu0, nu1=nu1, beta=beta, c1=c1, c2=c2, mu=mu,
                overshoot=(c2 / c1) * (1.0 + mu), decay_rate=beta / c2)


def build_certificate(inp: DesignInput) -> StabilityCertificate:
    """Run the full design pipeline.

    Weights start at the requested fraction of their suprema and are halved
    geometrically whenever the cross-weight interval comes up empty; the
    cross-weight is the interval midpoint, which keeps both margins away
    from their zero boundaries without solving an optimization problem.
    """
    alpha, c = inp.alpha, inp.c_omega
    g0_sup, g1_sup = gamma_bounds(alpha, c)  # raises if C_Omega >= sqrt(2)
    gamma0 = inp.s_gamma0 * g0_sup
    gamma1 = inp.s_gamma1 * g1_sup
    for shrink in range(_SHRINK_BUDGET):
        lo, hi = epsilon_interval(alpha, c, gamma0, gamma1)
        if hi - lo > _MIN_REL_WIDTH * max(hi, abs(lo)):
            break
        gamma0 *= 0.5
        gamma1 *= 0.5
    else:
        raise DesignFailureError(
            f"no feasible cross-weight interval after {_SHRINK_BUDGET} shrinks "
            f"(alpha={alpha}, C_Omega={c}); last interval ({lo}, {hi})"
        )

    eps = 0.5 * (lo + hi)
    # everything but mu is independent of theta, which is placed from beta/c2
    d = certified_constants(alpha, c, gamma0, gamma1, eps, math.inf)
    if not (d["nu0"] > 0 and d["nu1"] > 0):
        raise DesignFailureError(
            f"margins not positive at interval midpoint: nu0={d['nu0']}, nu1={d['nu1']} "
            f"(alpha={alpha}, C_Omega={c}, gamma0={gamma0}, gamma1={gamma1}, eps={eps})"
        )
    theta = inp.theta_margin * d["beta"] / d["c2"]
    diagnostics = {
        "interval_lo": lo,
        "interval_hi": hi,
        "interval_hi_uncapped": _epsilon_hi_uncapped(alpha, gamma1),
        "shrink_iterations": shrink,
        "gamma0_sup": g0_sup,
        "gamma1_sup": g1_sup,
    }
    return StabilityCertificate(
        alpha=alpha,
        c_omega=c,
        c_omega_source=inp.c_omega_source,
        gamma0=gamma0,
        gamma1=gamma1,
        epsilon=eps,
        theta=theta,
        **certified_constants(alpha, c, gamma0, gamma1, eps, theta),
        s_gamma0=inp.s_gamma0,
        s_gamma1=inp.s_gamma1,
        theta_margin=inp.theta_margin,
        diagnostics=diagnostics,
    )


def c_omega_fits(cert: StabilityCertificate, g: Grid) -> bool:
    """Whether the certificate's C_Omega is the grid's by its source: a grid-derived one is
    ``poincare_constant(g, source)`` to the last bit, and a ``user`` one at least the discrete one."""
    try:
        if cert.c_omega_source == "user":
            return cert.c_omega >= discrete_poincare_constant(g)
        return cert.c_omega == poincare_constant(g, cert.c_omega_source)
    except ConfigurationError:  # g has no constant of that source
        return False


def vdot_bound_rhs(cert: StabilityCertificate, energy: float, eta0_value: float) -> float:
    """Certified upper bound on dV/dt at a state with the given energy and
    trigger threshold value."""
    return -cert.beta * energy + 0.5 * cert.alpha * (1.0 + cert.alpha * cert.epsilon) * eta0_value
