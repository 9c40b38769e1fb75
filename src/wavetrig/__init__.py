"""Event-triggered damping control of the linear wave equation.

A field solver, exact in time in the grid's sine basis, with sample-and-hold
velocity feedback, an event trigger that refreshes the sample only when the
measured deviation outgrows a state-dependent allowance, a designer that
turns the damping gain and the domain's Poincare constant into a certified
exponential-decay guarantee, and checkers that validate that guarantee on
recorded trajectories.
"""

from .design import DesignInput, StabilityCertificate, build_certificate, epsilon_interval, gamma_bounds, margins, vdot_bound_rhs
from .dynamics import IntegratorConfig, cfl_max_dt, simulate
from .grid import Field, Grid, Interval, Rectangle, build_grid, discrete_poincare_constant, poincare_constant
from .lyapunov import (
    CheckReport,
    RunRecord,
    check_envelope,
    check_equivalence,
    check_trigger_invariant,
    check_vdot,
)
from .trigger import (
    DwellStats,
    EventLog,
    TriggerParams,
    eta0,
    initial_threshold_scale,
    zeno_report,
)

__version__ = "0.1.0"

__all__ = [
    "DesignInput", "StabilityCertificate", "build_certificate", "epsilon_interval",
    "gamma_bounds", "margins", "vdot_bound_rhs",
    "IntegratorConfig", "cfl_max_dt", "simulate",
    "Field", "Grid", "Interval", "Rectangle", "build_grid", "discrete_poincare_constant", "poincare_constant",
    "CheckReport", "RunRecord", "check_envelope", "check_equivalence",
    "check_trigger_invariant", "check_vdot",
    "DwellStats", "EventLog", "TriggerParams", "eta0", "initial_threshold_scale", "zeno_report",
]
