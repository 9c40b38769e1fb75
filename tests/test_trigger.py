import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavetrig as wt
from wavetrig.dynamics import WaveState
from wavetrig.errors import ConfigurationError
from wavetrig.grid import Field, h1_seminorm_sq, l2_norm_sq
from wavetrig.initial import bump, sine_mode
from wavetrig.lyapunov import energy_lyapunov
from wavetrig.trigger import EventLog, check_schedule, hold_rows, predicate_from_norms


@pytest.fixture()
def params():
    return wt.TriggerParams(gamma0=0.1, gamma1=0.25, theta=0.1, eta0_scale=1.0)


def make_state(g, z, v, held, t=0.0):
    return WaveState(t=t, z=z, v=v, held=held, k=0, t_k=0.0)


def deviation(s):
    """e = v - held, the difference simulate's loop takes."""
    return Field(s.v.values - s.held.values, s.v.grid)


def predicate(s, params, g):
    """The firing predicate at ``s`` from its squared norms."""
    norm_e_sq, norm_z_sq, norm_v_sq = (l2_norm_sq(f, g) for f in (deviation(s), s.z, s.v))
    return predicate_from_norms(norm_e_sq, norm_z_sq, norm_v_sq, wt.eta0(s.t, params), params)


# -------------------------------------------------------------------- params

@pytest.mark.parametrize("bad", [
    dict(gamma0=0.0), dict(gamma1=-1.0), dict(theta=0.0), dict(eta0_scale=0.0),
])
def test_params_must_be_positive(bad):
    kwargs = dict(gamma0=0.1, gamma1=0.25, theta=0.1, eta0_scale=1.0)
    kwargs.update(bad)
    with pytest.raises(ConfigurationError):
        wt.TriggerParams(**kwargs)


def test_params_from_certificate_keeps_theta_above_floor():
    cert = wt.build_certificate(wt.DesignInput(alpha=1.0, c_omega=0.5))
    p = wt.TriggerParams.from_certificate(cert, eta0_scale=2.0)
    assert p.theta > cert.beta / cert.c2
    assert (p.gamma0, p.gamma1, p.eta0_scale) == (cert.gamma0, cert.gamma1, 2.0)


# ---------------------------------------------------------------------- eta0

def test_eta0_at_zero_is_scale(params):
    assert wt.eta0(0.0, params) == params.eta0_scale


def test_eta0_exponential_value():
    p = wt.TriggerParams(gamma0=0.1, gamma1=0.25, theta=0.1, eta0_scale=1.0)
    assert wt.eta0(10.0, p) == pytest.approx(math.exp(-1.0))


def test_eta0_strictly_decreasing_and_positive(params):
    ts = np.linspace(0.0, 50.0, 200)
    vals = np.array([wt.eta0(t, params) for t in ts])
    assert (vals > 0).all()
    assert (np.diff(vals) < 0).all()


def test_eta0_rejects_negative_time(params):
    with pytest.raises(Exception):
        wt.eta0(-1.0, params)


# ---------------------------------------------------------------- deviation

def test_deviation_zero_after_event():
    g = wt.build_grid(wt.Interval(1.0, 49))
    v = sine_mode(g, 1)
    s = make_state(g, sine_mode(g, 2), v, v.copy())
    s2 = dataclasses.replace(s, held=s.v.copy(), k=s.k + 1, t_k=s.t)
    assert np.all(deviation(s2).values == 0.0)


def test_deviation_norm_of_half_sample():
    # v = sin(pi x), held = sin(pi x)/2 -> ||e||^2 = ||sin||^2 / 4 = 1/8
    g = wt.build_grid(wt.Interval(1.0, 999))
    v = sine_mode(g, 1)
    held = Field(0.5 * v.values, g)
    s = make_state(g, sine_mode(g, 1), v, held)
    e = deviation(s)
    assert l2_norm_sq(e, g) == pytest.approx(0.125, abs=1e-9)


# ------------------------------------------------------------------ predicate

def test_predicate_direct_arithmetic():
    p = wt.TriggerParams(gamma0=0.1, gamma1=0.25, theta=0.1, eta0_scale=1.0)
    value = predicate_from_norms(0.3, 0.5, 0.4, 0.1, p)
    assert value == pytest.approx(0.3 - 0.05 - 0.1 - 0.1)
    assert value >= 0  # fires
    value2 = predicate_from_norms(0.3, 0.5, 0.4, 0.2, p)
    assert value2 == pytest.approx(-0.05)
    assert value2 < 0  # does not fire


# squared norms as the step loop has them: finite, subnormal or overflowed to inf
squared_norms = st.floats(min_value=0.0)
positive = st.floats(min_value=0.0, exclude_min=True)


@settings(max_examples=500, deadline=None)
@given(ne=st.floats(), nz=squared_norms, nv=squared_norms, eta0=positive.filter(math.isfinite),
       gamma0=positive, gamma1=positive)
def test_predicate_fires_only_where_the_deviation_reaches_the_floor(ne, nz, nv, eta0, gamma0, gamma1):
    # the premise on which simulate's scan passes a row with ||e||^2 < eta0
    # untested: each difference of the predicate rounds to at most ||e||^2,
    # and fl(x - eta0) >= 0 only if x >= eta0. Tried at a drawn ||e||^2 and
    # at the floor and its neighbours, where the predicate is near 0
    p = wt.TriggerParams(gamma0=gamma0, gamma1=gamma1, theta=1.0, eta0_scale=1.0)
    for e in (ne, eta0, math.nextafter(eta0, 0.0), math.nextafter(eta0, math.inf)):
        if predicate_from_norms(e, nz, nv, eta0, p) >= 0.0:
            assert e >= eta0


def test_trigger_value_never_fires_right_after_event(params):
    g = wt.build_grid(wt.Interval(1.0, 49))
    v = sine_mode(g, 1)
    s = make_state(g, sine_mode(g, 1), v, Field(np.zeros(49), g))
    s = dataclasses.replace(s, held=s.v.copy(), k=s.k + 1, t_k=s.t)
    assert predicate(s, params, g) < 0


def test_trigger_value_matches_norms(params):
    g = wt.build_grid(wt.Interval(1.0, 99))
    z, v = sine_mode(g, 1), sine_mode(g, 2)
    s = make_state(g, z, v, Field(np.zeros(99), g), t=0.5)
    expected = (
        l2_norm_sq(v, g)
        - params.gamma0 * l2_norm_sq(z, g)
        - params.gamma1 * l2_norm_sq(v, g)
        - wt.eta0(0.5, params)
    )
    assert predicate(s, params, g) == pytest.approx(expected, rel=1e-14)


# ----------------------------------------------------- initial threshold scale

def test_threshold_scale_variants_differ_by_position_term():
    g = wt.build_grid(wt.Interval(1.0, 199))
    z0, z1 = sine_mode(g, 1), sine_mode(g, 2)
    eps, alpha = 0.3, 1.5
    full = wt.initial_threshold_scale(z0, z1, eps, alpha, g, "v0")
    reduced = wt.initial_threshold_scale(z0, z1, eps, alpha, g, "reduced")
    assert full - reduced == pytest.approx(0.5 * eps * alpha * l2_norm_sq(z0, g), rel=1e-12)
    with pytest.raises(ConfigurationError):
        wt.initial_threshold_scale(z0, z1, eps, alpha, g, "bogus")


def test_threshold_scale_v0_is_initial_lyapunov():
    g = wt.build_grid(wt.Interval(1.0, 199))
    z0, z1 = sine_mode(g, 1), sine_mode(g, 3)
    eps, alpha = 0.25, 1.0
    assert wt.initial_threshold_scale(z0, z1, eps, alpha, g, "v0") == pytest.approx(
        # the nodal norms: sums over the grid, not over the sine coefficients
        energy_lyapunov(
            l2_norm_sq(z0, g), l2_norm_sq(z1, g), h1_seminorm_sq(z0, g), g.weight * float(np.dot(z0.values, z1.values)),
            eps, alpha,
        )[1], rel=1e-14
    )


# -------------------------------------------------------------------- zeno

def event_log(*rows):
    """An EventLog of (t, predicate, ||e||^2, eta0) rows."""
    return EventLog(*np.array(rows, dtype=float).reshape(-1, 4).T)


def test_zeno_empty_log_is_degenerate():
    with pytest.raises(ConfigurationError):
        wt.zeno_report(event_log(), horizon=1.0)


def test_zeno_single_event_reports_horizon_dwell():
    log = event_log((0.0, -1.0, 0.0, 1.0))
    stats = wt.zeno_report(log, horizon=7.5)
    assert stats.event_count == 1
    assert stats.min_dwell == stats.mean_dwell == stats.max_dwell == 7.5


def test_zeno_floor_violation_counted():
    log = event_log(
        (0.0, -1.0, 0.0, 1.0),
        (0.5, 0.2, 0.9, 0.4),   # fine: ||e||^2 = 0.9 >= eta0 = 0.4
        (1.5, 0.1, 0.3, 0.35),  # violation: 0.3 < 0.35
    )
    stats = wt.zeno_report(log, horizon=2.0)
    assert stats.floor_violations == 1
    assert not stats.floor_ok


def test_zeno_floor_counts_a_nan_deviation():
    # a NaN deviation at an event does not reach the floor
    log = event_log((0.0, -1.0, 0.0, 1.0), (0.5, np.nan, np.nan, 0.4), (1.0, 0.2, 0.9, 0.4))
    stats = wt.zeno_report(log, horizon=2.0)
    assert stats.floor_violations == 1 and not stats.floor_ok


def test_zeno_requires_increasing_times():
    log = event_log((0.0, -1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.5), (0.5, 0.0, 1.0, 0.5))
    with pytest.raises(ConfigurationError):
        wt.zeno_report(log, horizon=2.0)


def test_zeno_constant_dwell():
    log = event_log(*((0.25 * k, 0.0, 1.0, 0.5) for k in range(5)))
    stats = wt.zeno_report(log, horizon=1.0)
    assert stats.event_count == 5
    assert stats.min_dwell == pytest.approx(0.25)


def test_hold_rows_counts_the_period_in_steps_of_dt():
    # continuous damping holds every row; a periodic run every P rows, the
    # steps that reach the period, rounded as the horizon is; the other modes
    # hold on no schedule after t = 0
    assert hold_rows("continuous-damping", 0.01, None, 100) == 1
    # 0.0015 / 0.0005 is 3 to rounding: a hold every 3 rows, never 4
    assert hold_rows("periodic", 0.0005, 0.0015, 20001) == 3
    assert hold_rows("periodic", 0.01, 0.07, 100) == 7
    assert hold_rows("periodic", 0.01, 0.075, 100) == 8
    assert hold_rows("periodic", 0.01, 1e-300, 100) == 1  # a period below dt holds every row
    # capped at the record's rows, so a huge period neither overflows nor holds after t = 0
    assert hold_rows("periodic", 0.005, 1e308, 2001) == 2001
    for mode in ("event-triggered", "uncontrolled"):
        assert hold_rows(mode, 0.01, 0.07, 100) == 100


@pytest.mark.parametrize("mode", ["periodic", "continuous-damping"])
def test_schedule_check_replays_the_policy_from_the_flags(mode):
    g = wt.build_grid(wt.Interval(1.0, 49))
    z0 = sine_mode(g, 1)
    z1 = Field(np.zeros(g.num_interior), g)
    rec = wt.simulate(z0, z1, 1.0, g, wt.IntegratorConfig(t_end=1.0), mode=mode, period=0.1)
    report = check_schedule(rec)
    assert report.passed and report.n_violations == 0 and report.worst == -math.inf
    event = rec.event.copy()
    row = int(np.flatnonzero(event)[3])
    event[row] = False
    report = check_schedule(dataclasses.replace(rec, event=event))
    # the rows due do not depend on the flags: the cleared row is the one violation
    assert not report.passed and report.worst == rec.t[row] and report.n_violations == 1


def test_schedule_check_holds_an_uncontrolled_run_to_its_t0_sample():
    # its hold is sampled at t = 0 alone: a second event is the one violation
    g = wt.build_grid(wt.Interval(1.0, 49))
    rec = wt.simulate(sine_mode(g, 1), bump(g), 1.0, g, wt.IntegratorConfig(t_end=1.0), mode="uncontrolled")
    report = check_schedule(rec)
    assert report.passed and report.details == {"n_events": 1, "n_due": 1}
    event = rec.event.copy()
    event[50] = True
    report = check_schedule(dataclasses.replace(rec, event=event))
    assert not report.passed and report.worst == rec.t[50] and report.n_violations == 1


@pytest.mark.parametrize("mode", ["event-triggered"])
def test_schedule_check_leaves_other_modes_to_their_own_checks(mode):
    g = wt.build_grid(wt.Interval(1.0, 49))
    params = wt.TriggerParams(gamma0=0.2, gamma1=0.2, theta=0.5, eta0_scale=0.2)
    z1 = Field(np.zeros(g.num_interior), g)
    rec = wt.simulate(sine_mode(g, 1), z1, 1.0, g, wt.IntegratorConfig(t_end=0.1), params, mode=mode)
    with pytest.raises(ConfigurationError):
        check_schedule(rec)
