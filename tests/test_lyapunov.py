import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wavetrig as wt
from wavetrig.dynamics import build_record
from wavetrig.errors import ConfigurationError
from wavetrig.grid import Field, eigenvalues, l2_norm_sq
from wavetrig.initial import sine_mode
from wavetrig.lyapunov import RunRecord, energy_lyapunov, modal_rows, norm_sums


GRID = wt.build_grid(wt.Interval(1.0, 49))
C_GRID = wt.discrete_poincare_constant(GRID)
CERT = wt.build_certificate(wt.DesignInput(alpha=1.0, c_omega=C_GRID, c_omega_source="discrete"))

finite_floats = st.floats(-1e2, 1e2, allow_nan=False, allow_infinity=False, width=64)
field_values = hnp.arrays(np.float64, GRID.num_interior, elements=finite_floats)


def e_and_v(z, v, g, eps=0.0, alpha=0.0):
    """(E, V) of the state (z, v) on ``g``, its norms summed as the step kernel sums them."""
    nz, ngz, nv, _, zv = (g.weight * norm_sums(modal_rows(g, z.values, v.values, np.sqrt(eigenvalues(g))))).tolist()
    return energy_lyapunov(nz, nv, ngz, zv, eps, alpha)


def fields_from(zv, vv):
    return Field(zv, GRID), Field(vv, GRID)


# -------------------------------------------------------------- functionals

def test_energy_zero_state():
    z, v = fields_from(np.zeros(49), np.zeros(49))
    assert e_and_v(z, v, GRID)[0] == 0.0


def test_energy_potential_only():
    g = wt.build_grid(wt.Interval(1.0, 999))
    assert e_and_v(sine_mode(g, 1), Field(np.zeros(999), g), g)[0] == pytest.approx(np.pi ** 2 / 4, rel=1e-3)


def test_energy_kinetic_only():
    g = wt.build_grid(wt.Interval(1.0, 999))
    assert e_and_v(Field(np.zeros(999), g), sine_mode(g, 1), g)[0] == pytest.approx(0.25, rel=1e-6)


def test_lyapunov_term_by_term():
    # z = v = sin(pi x), eps = 0.2, alpha = 1:
    # V = 1/4 + pi^2/4 + 0.1 * 1/2 + 0.2 * 1/2
    g = wt.build_grid(wt.Interval(1.0, 999))
    f = sine_mode(g, 1)
    expected = 0.25 + np.pi ** 2 / 4 + 0.05 + 0.1
    assert e_and_v(f, f, g, 0.2, 1.0)[1] == pytest.approx(expected, rel=1e-3)


def test_lyapunov_zero_state():
    z, v = fields_from(np.zeros(49), np.zeros(49))
    assert e_and_v(z, v, GRID, 0.2, 1.0)[1] == 0.0


def test_lyapunov_dominates_energy_without_velocity():
    z, v = fields_from(sine_mode(GRID, 1).values, np.zeros(49))
    e, lyap = e_and_v(z, v, GRID, 0.2, 1.0)
    assert lyap >= e


@settings(max_examples=100, deadline=None)
@given(zv=field_values, vv=field_values)
def test_lyapunov_minus_energy_identity(zv, vv):
    z, v = fields_from(zv, vv)
    eps, alpha = 0.3, 1.2
    e, lyap = e_and_v(z, v, GRID, eps, alpha)
    rhs = 0.5 * eps * alpha * l2_norm_sq(z, GRID) + eps * GRID.weight * np.dot(z.values, v.values)
    # exact identity; the difference lyap - e cancels, so scale by the operands
    assert abs((lyap - e) - rhs) <= 1e-12 * max(1.0, abs(lyap), abs(e))


@settings(max_examples=100, deadline=None)
@given(zv=field_values, vv=field_values)
def test_sandwich_holds_for_every_state_with_discrete_constant(zv, vv):
    e, v = e_and_v(*fields_from(zv, vv), GRID, CERT.epsilon, CERT.alpha)
    assert CERT.c1 * e <= v * (1 + 1e-12) + 1e-300
    assert v <= CERT.c2 * e * (1 + 1e-12) + 1e-300


# ------------------------------------------------------------------- checks

def test_check_equivalence_passes_on_flagship_run(a1_record):
    rep = wt.check_equivalence(a1_record, rel_tol=1e-12)
    assert rep.passed and rep.n_violations == 0


def test_check_equivalence_flags_undersized_constant(grid199):
    # the zero-mean Wirtinger value L/(2 pi) is below the Dirichlet constant,
    # so the sandwich it induces must be reported as violated on a real run
    cw = wt.poincare_constant(grid199, "wirtinger")
    cert = wt.build_certificate(wt.DesignInput(alpha=1.0, c_omega=cw, c_omega_source="wirtinger"))
    z0 = sine_mode(grid199, 1)
    z1 = Field(np.zeros(grid199.num_interior), grid199)
    scale = wt.initial_threshold_scale(z0, z1, cert.epsilon, 1.0, grid199, "v0")
    params = wt.TriggerParams.from_certificate(cert, scale)
    integ = wt.IntegratorConfig(t_end=10.0, dt=0.5 * grid199.spacings[0])
    rec = wt.simulate(z0, z1, 1.0, grid199, integ, params, cert)
    rep = wt.check_equivalence(rec)
    assert not rep.passed
    assert rep.n_violations > 0


def test_check_equivalence_needs_certificate(grid199):
    z0 = sine_mode(grid199, 1)
    z1 = Field(np.zeros(grid199.num_interior), grid199)
    integ = wt.IntegratorConfig(t_end=1.0, dt=0.5 * grid199.spacings[0])
    rec = wt.simulate(z0, z1, 0.0, grid199, integ, mode="uncontrolled")
    with pytest.raises(ConfigurationError):
        wt.check_equivalence(rec)


def _synthetic_record(t, energy, lyap, eta, cert, events_at=()):
    n = t.size
    ev = np.zeros(n, dtype=bool)
    ev[list(events_at)] = True
    nan = np.full(n, np.nan)
    return RunRecord(
        t=t, energy=energy, lyapunov=lyap, norm_z_sq=nan.copy(), norm_v_sq=nan.copy(),
        norm_gradz_sq=nan.copy(), norm_e_sq=nan.copy(), inner_zv=nan.copy(), eta0=eta,
        trigger_value=nan.copy(), event=ev, certificate=cert,
        trigger=None, mode="event-triggered", dt=float(t[1] - t[0]),
    )


def test_check_vdot_constant_series_passes():
    t = np.linspace(0.0, 1.0, 101)
    const = np.full(101, 2.0)
    rec = _synthetic_record(t, np.zeros(101), const, np.ones(101), CERT)
    rep = wt.check_vdot(rec)
    assert rep.passed


def test_check_vdot_counts_violations_on_rising_series():
    # V rising at slope 1 with E = 1 violates dV/dt <= -beta E
    t = np.linspace(0.0, 1.0, 101)
    rec = _synthetic_record(t, np.ones(101), t.copy(), np.zeros(101), CERT)
    rep = wt.check_vdot(rec)
    assert not rep.passed
    assert rep.n_violations == rep.n_checked
    assert rep.worst == pytest.approx(1.0 + CERT.beta, rel=1e-9)


def test_check_vdot_excludes_event_neighborhoods():
    t = np.linspace(0.0, 1.0, 101)
    v = np.ones(101)
    v[50:] = 2.0  # jump at an event: would fail a centered difference
    rec = _synthetic_record(t, np.ones(101), v, np.ones(101), CERT, events_at=(0, 50))
    rep = wt.check_vdot(rec)
    assert rep.passed
    assert rep.details["excluded_steps"] >= 3


@settings(max_examples=100, deadline=None)
@given(ev=hnp.arrays(bool, st.integers(3, 12)))
def test_check_vdot_skips_exactly_the_interior_steps_next_to_an_event(ev):
    n = ev.size
    t = np.linspace(0.0, 1.0, n)
    rec = _synthetic_record(t, np.ones(n), np.ones(n), np.ones(n), CERT, events_at=np.flatnonzero(ev))
    skipped = {i for j in np.flatnonzero(ev) for i in (j - 1, j, j + 1) if 1 <= i <= n - 2}
    assert wt.check_vdot(rec).details["excluded_steps"] == len(skipped)
    # an event column of 0/1 integers marks the same steps
    as_ints = dataclasses.replace(rec, event=ev.astype(np.int64))
    assert wt.check_vdot(as_ints).details["excluded_steps"] == len(skipped)


def test_check_vdot_zero_tolerance_reports_count(a1_record):
    rep = wt.check_vdot(a1_record, c_tol=0.0)
    assert rep.n_checked > 0
    assert rep.n_violations >= 0  # count is reported either way


def test_check_envelope_passes_on_flagship_run(a1_record):
    rep = wt.check_envelope(a1_record)
    assert rep.passed
    assert rep.details["delta_emp"] >= rep.details["decay_rate"]


def test_check_envelope_at_t0_allows_overshoot(a1_record):
    cert = a1_record.certificate
    assert cert.overshoot > 1
    assert a1_record.energy[0] <= cert.overshoot * a1_record.energy[0]


def test_check_envelope_fails_for_conservative_run(grid199, a1_certificate):
    # alpha = 0 conserves energy; any positive-rate envelope is crossed at
    # t > ln(K)/delta
    z0 = sine_mode(grid199, 1)
    z1 = Field(np.zeros(grid199.num_interior), grid199)
    integ = wt.IntegratorConfig(t_end=40.0, dt=0.5 * grid199.spacings[0])
    rec = wt.simulate(z0, z1, 0.0, grid199, integ, mode="uncontrolled")
    rec = dataclasses.replace(rec, certificate=a1_certificate)
    rep = wt.check_envelope(rec)
    assert not rep.passed
    t_cross = math.log(a1_certificate.overshoot) / a1_certificate.decay_rate
    first_violation = np.flatnonzero(
        rec.energy > a1_certificate.overshoot * np.exp(-a1_certificate.decay_rate * rec.t) * rec.energy[0]
    )[0]
    assert rec.t[first_violation] == pytest.approx(t_cross, rel=0.05)


def test_check_envelope_checks_the_v_bound(a1_record):
    rep = wt.check_envelope(a1_record)
    assert rep.passed
    assert rep.details["v_violations"] == 0
    assert rep.details["v_worst"] <= 1.0 + 1e-9
    # V alone above its bound fails the check, with E inside its envelope
    cert = a1_record.certificate
    t = a1_record.t
    v_env = a1_record.lyapunov[0] * ((1 + cert.mu) * np.exp(-cert.decay_rate * t) - cert.mu * np.exp(-cert.theta * t))
    bumped = a1_record.lyapunov.copy()
    bumped[-1] = 1.01 * v_env[-1]
    rep = wt.check_envelope(dataclasses.replace(a1_record, lyapunov=bumped))
    assert not rep.passed
    assert rep.n_violations == rep.details["v_violations"] == 1
    # worst is the larger ratio, so a FAIL never prints a worst inside the bound
    assert rep.details["e_worst"] <= 1.0
    assert rep.worst == rep.details["v_worst"] > 1.0


def test_check_envelope_fails_a_step_whose_rows_pass():
    # E falls from 1 to 1e-6 over one step of dt = 10 under a hold with
    # ||h||^2 = 2: both rows lie inside the envelope, but nothing in the
    # record keeps E between them below ((1 + 1e-3 + 10) / 2)^2 = 30.3
    cols = {"norm_z_sq": np.zeros(2), "norm_gradz_sq": np.array([0.0, 2e-6]), "norm_v_sq": np.array([2.0, 0.0]),
            "norm_e_sq": np.zeros(2), "inner_zv": np.zeros(2), "event": np.array([True, False])}
    rec = build_record(cols, CERT, None, "event-triggered", 10.0)
    rep = wt.check_envelope(rec)
    assert max(rep.details["e_worst"], rep.details["v_worst"]) <= 1 < rep.details["e_sup_worst"] == rep.worst
    assert not rep.passed and rep.n_violations == 1


def test_check_envelope_worst_is_nan_when_either_ratio_is(a1_record):
    v = a1_record.lyapunov.copy()
    v[2] = np.nan
    rep = wt.check_envelope(dataclasses.replace(a1_record, lyapunov=v))
    assert rep.details["e_worst"] <= 1.0 and math.isnan(rep.details["v_worst"])
    assert math.isnan(rep.worst)


def test_delta_emp_is_the_least_squares_slope(a1_record):
    # np.polyfit (LAPACK least squares) is the reference of the closed form
    t, e = a1_record.t, a1_record.energy
    fit = t >= 0.5 * t[-1]
    want = -np.polyfit(t[fit], np.log(e[fit]), 1)[0]
    got = wt.check_envelope(a1_record).details["delta_emp"]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_check_trigger_invariant_on_flagship_run(a1_record):
    rep = wt.check_trigger_invariant(a1_record)
    assert rep.passed and rep.n_violations == 0


@pytest.mark.parametrize("check, series, at_event, violations", [
    (wt.check_equivalence, "lyapunov", False, 1),
    (wt.check_vdot, "energy", False, 1),
    # the row, and the row after it, where the step that reads E at the row ends
    (wt.check_envelope, "energy", False, 2),
    (wt.check_envelope, "lyapunov", False, 1),
    (wt.check_trigger_invariant, "trigger_value", False, 1),
    (wt.check_trigger_invariant, "trigger_value", True, 1),
], ids=["equivalence", "vdot", "envelope-E", "envelope-V", "trigger-quiet", "trigger-fired"])
def test_a_nan_in_a_checks_input_is_a_violation(a1_record, check, series, at_event, violations):
    # a NaN compares false with any bound, so a check counting rows where the
    # bound fails would pass it; each counts rows where a bound that reads the
    # NaN does not hold
    events = np.flatnonzero(a1_record.event)
    quiet = next(r for r in range(2, a1_record.t.size) if not a1_record.event[r - 1:r + 2].any())
    row = events[1] if at_event else quiet
    col = getattr(a1_record, series).copy()
    col[row] = np.nan
    assert check(a1_record).n_violations == 0
    rep = check(dataclasses.replace(a1_record, **{series: col}))
    assert not rep.passed and rep.n_violations == violations


def test_a_nan_in_v_fails_only_the_differences_that_read_it(a1_record):
    # the vdot tolerance is scaled by the largest finite |V|, so one NaN row
    # fails the two centred differences across it, not every row
    row = next(r for r in range(3, a1_record.t.size - 3) if not a1_record.event[r - 2:r + 3].any())
    v = a1_record.lyapunov.copy()
    v[row] = np.nan
    rep = wt.check_vdot(dataclasses.replace(a1_record, lyapunov=v))
    assert rep.details["tolerance"] == wt.check_vdot(a1_record).details["tolerance"]
    assert not rep.passed and rep.n_violations == 2 and math.isnan(rep.worst)


def test_check_report_counts_its_rows():
    rep = wt.CheckReport("x", np.array([True, False, True, False]), 0.5, {"k": 1})
    assert (rep.n_checked, rep.n_violations, rep.passed) == (4, 2, False)
    assert rep.to_dict() == {
        "name": "x", "passed": False, "n_checked": 4, "n_violations": 2, "worst": 0.5, "details": {"k": 1},
    }
    empty = wt.CheckReport("y", np.zeros(0, dtype=bool), -math.inf)
    assert (empty.n_checked, empty.n_violations, empty.passed) == (0, 0, True)


def test_check_trigger_invariant_rejects_other_modes(grid199):
    z0 = sine_mode(grid199, 1)
    z1 = Field(np.zeros(grid199.num_interior), grid199)
    integ = wt.IntegratorConfig(t_end=1.0, dt=0.5 * grid199.spacings[0])
    rec = wt.simulate(z0, z1, 0.0, grid199, integ, mode="uncontrolled")
    with pytest.raises(ConfigurationError):
        wt.check_trigger_invariant(rec)


def test_checks_reject_degenerate_series():
    t = np.array([0.0])
    one = np.zeros(1)
    rec = RunRecord(
        t=t, energy=one.copy(), lyapunov=one.copy(), norm_z_sq=one.copy(),
        norm_v_sq=one.copy(), norm_gradz_sq=one.copy(), norm_e_sq=one.copy(),
        inner_zv=one.copy(), eta0=one.copy(), trigger_value=one.copy(), event=np.zeros(1, dtype=bool),
        certificate=CERT, trigger=None, mode="event-triggered", dt=0.1,
    )
    for check in (wt.check_equivalence, wt.check_vdot, wt.check_envelope):
        with pytest.raises(ConfigurationError):
            check(rec)


def test_run_record_validates_lengths():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ConfigurationError):
        RunRecord(
            t=t, energy=np.zeros(10), lyapunov=np.zeros(11), norm_z_sq=np.zeros(11),
            norm_v_sq=np.zeros(11), norm_gradz_sq=np.zeros(11), norm_e_sq=np.zeros(11),
            inner_zv=np.zeros(11), eta0=np.zeros(11), trigger_value=np.zeros(11), event=np.zeros(11, dtype=bool),
            certificate=None, trigger=None, mode="uncontrolled", dt=0.1,
        )


def test_run_record_series_are_frozen(a1_record):
    with pytest.raises(ValueError):
        a1_record.energy[0] = 1.0
