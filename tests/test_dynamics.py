import dataclasses
import math

import numpy as np
import pytest

import wavetrig as wt
from wavetrig import dynamics
from wavetrig.cli import run_from_config
from wavetrig.config import RunConfig
from wavetrig.errors import BlowUpError, ConfigurationError, DegenerateInitialDataError, ShapeError
from wavetrig.grid import Field, eigenvalues, h1_seminorm_sq, l2_norm_sq, sine_transform
from wavetrig.initial import bump, sine_mode
from wavetrig.trigger import predicate_from_norms


def zero_field(g):
    return Field(np.zeros(g.num_interior), g)


def standing_wave_state(g):
    return dynamics.WaveState(t=0.0, z=sine_mode(g, 1), v=zero_field(g), held=zero_field(g), k=0, t_k=0.0)


# ----------------------------------------------------------------------- CFL

def test_cfl_interval():
    g = wt.build_grid(wt.Interval(1.0, 99))
    assert wt.cfl_max_dt(g) == pytest.approx(0.01)


def test_cfl_square():
    g = wt.build_grid(wt.Rectangle(1.0, 1.0, 99, 99))
    assert wt.cfl_max_dt(g) == pytest.approx(0.01 / np.sqrt(2))


def test_cfl_positive_for_any_grid():
    for shape in (wt.Interval(3.0, 7), wt.Rectangle(2.0, 0.5, 5, 11)):
        assert wt.cfl_max_dt(wt.build_grid(shape)) > 0


def test_integrator_config_validation():
    g = wt.build_grid(wt.Interval(1.0, 99))
    cfg = wt.IntegratorConfig(t_end=1.0, cfl_fraction=0.5)
    assert cfg.resolve_dt(g) == pytest.approx(0.005)
    assert wt.IntegratorConfig(t_end=1.0, dt=0.004, cfl_fraction=0.5).resolve_dt(g) == 0.004
    with pytest.raises(ConfigurationError):
        wt.IntegratorConfig(t_end=1.0, dt=0.008, cfl_fraction=0.5).resolve_dt(g)
    with pytest.raises(ConfigurationError):
        wt.IntegratorConfig(t_end=0.0)
    with pytest.raises(ConfigurationError):
        wt.IntegratorConfig(t_end=1.0, cfl_fraction=1.5)


# ---------------------------------------------------------------------- step

def test_equilibrium_stays_zero():
    g = wt.build_grid(wt.Interval(1.0, 49))
    s = dynamics.WaveState(t=0.0, z=zero_field(g), v=zero_field(g), held=zero_field(g), k=0, t_k=0.0)
    for _ in range(10):
        s = dynamics.step(s, 0.005, 1.0)
    assert np.all(s.z.values == 0.0) and np.all(s.v.values == 0.0)


def test_step_time_reversible():
    g = wt.build_grid(wt.Interval(1.0, 99))
    s0 = dynamics.WaveState(t=0.0, z=sine_mode(g, 1), v=sine_mode(g, 3), held=zero_field(g), k=0, t_k=0.0)
    dt = 0.5 * g.spacings[0]
    s = s0
    for _ in range(2):
        s = dynamics.step(s, dt, 0.0)
    for _ in range(2):
        s = dynamics.step(s, -dt, 0.0)
    # each step transforms in and out of the sine basis: a mode's rounding
    # reaches v multiplied by its frequency, up to 2/h
    np.testing.assert_allclose(s.z.values, s0.z.values, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(s.v.values, s0.v.values, rtol=1e-12, atol=1e-13)


def test_step_keeps_hold_by_reference():
    g = wt.build_grid(wt.Interval(1.0, 49))
    s = standing_wave_state(g)
    s2 = dynamics.step(s, 0.005, 1.0)
    assert s2.held is s.held
    assert (s2.k, s2.t_k) == (s.k, s.t_k)


def test_step_states_own_their_memory():
    # the kernel's buffers are views of one block; a kept state must not pin it
    g = wt.build_grid(wt.Rectangle(1.0, 0.8, 15, 11))
    s0 = dynamics.WaveState(t=0.0, z=sine_mode(g, 1), v=bump(g), held=zero_field(g), k=0, t_k=0.0)
    s1 = dynamics.step(s0, 0.01, 1.0)
    s2 = dynamics.step(s1, 0.01, 1.0)
    for s in (s1, s2):
        assert s.z.values.flags.owndata and s.v.values.flags.owndata
    for a in (s1.z, s1.v):
        for b in (s2.z, s2.v, s2.held):
            assert not np.shares_memory(a.values, b.values)
    assert not np.shares_memory(s2.z.values, s2.v.values)


def test_step_rejects_dt_above_cfl():
    g = wt.build_grid(wt.Interval(1.0, 49))
    with pytest.raises(ConfigurationError):
        dynamics.step(standing_wave_state(g), 2 * wt.cfl_max_dt(g), 0.0)


def test_step_rejects_negative_alpha():
    g = wt.build_grid(wt.Interval(1.0, 49))
    with pytest.raises(ConfigurationError):
        dynamics.step(standing_wave_state(g), 0.005, -1.0)


def test_energy_near_conserved_without_control():
    # undriven standing wave over t in [0, 10]: drift < 1e-3 relative
    g = wt.build_grid(wt.Interval(1.0, 199))
    integ = wt.IntegratorConfig(t_end=10.0, dt=0.5 * g.spacings[0])
    rec = wt.simulate(sine_mode(g, 1), zero_field(g), 0.0, g, integ, mode="uncontrolled")
    drift = np.max(np.abs(rec.energy - rec.energy[0])) / rec.energy[0]
    assert drift < 1e-3
    assert rec.energy[0] == pytest.approx(np.pi ** 2 / 4, rel=1e-3)


def test_zero_gain_conserves_energy_even_with_trigger_active():
    # alpha = 0 under the event policy: events may fire but carry no
    # control influence, so the run stays conservative
    g = wt.build_grid(wt.Interval(1.0, 199))
    params = wt.TriggerParams(gamma0=0.1, gamma1=0.1, theta=0.3, eta0_scale=0.5)
    integ = wt.IntegratorConfig(t_end=10.0, dt=0.5 * g.spacings[0])
    rec = wt.simulate(sine_mode(g, 1), zero_field(g), 0.0, g, integ, params, mode="event-triggered")
    drift = np.max(np.abs(rec.energy - rec.energy[0])) / rec.energy[0]
    assert drift < 1e-3


def test_flow_is_exact_in_time():
    # undamped, sine mode 3 is a stencil eigenvector: it stays cos(w3 t)
    # times itself, and dt and dt/2 reach the same state; a leapfrog's z
    # misses by 4e-5 at t = 1
    g = wt.build_grid(wt.Interval(1.0, 49))
    phi = sine_mode(g, 3).values
    w3 = math.sqrt(eigenvalues(g)[2])
    dt = 0.5 * g.spacings[0]

    def run(h, steps):
        s = dynamics.WaveState(t=0.0, z=Field(phi, g), v=zero_field(g), held=zero_field(g), k=0, t_k=0.0)
        for _ in range(steps):
            s = dynamics.step(s, h, 0.0)
        return s

    coarse, fine = run(dt, 100), run(dt / 2, 200)
    t = 100 * dt
    np.testing.assert_allclose(coarse.z.values, math.cos(w3 * t) * phi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(coarse.v.values, -w3 * math.sin(w3 * t) * phi, rtol=0, atol=1e-12 * w3)
    np.testing.assert_allclose(fine.z.values, coarse.z.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fine.v.values, coarse.v.values, rtol=0, atol=1e-12 * w3)
    # simulate's kernel: ||z||^2 = cos^2(w3 t) ||phi||^2 at every row
    rec = wt.simulate(Field(phi, g), zero_field(g), 0.0, g, wt.IntegratorConfig(t_end=t, dt=dt), mode="uncontrolled")
    want = np.cos(w3 * rec.t) ** 2 * l2_norm_sq(Field(phi, g), g)
    np.testing.assert_allclose(rec.norm_z_sq, want, rtol=0, atol=1e-12 * want[0])


# -------------------------------------------------------------- convergence

def _standing_wave_errors(times_half):
    """Max-norm state error against the exact standing wave at t = 1."""
    errors = []
    for n in (49, 99, 199):
        g = wt.build_grid(wt.Interval(1.0, n))
        dt = 0.5 * g.spacings[0]
        steps = int(round(1.0 / dt))
        s = standing_wave_state(g)
        for _ in range(steps):
            s = dynamics.step(s, dt, 0.0)
        t = steps * dt
        [x] = g.axes()
        z_exact = np.cos(np.pi * t) * np.sin(np.pi * x)
        v_exact = -np.pi * np.sin(np.pi * t) * np.sin(np.pi * x)
        err_z = np.max(np.abs(s.z.values - z_exact))
        err_v = np.max(np.abs(s.v.values - v_exact))
        errors.append(max(err_z, err_v) if not times_half else err_z)
    return errors


def test_second_order_convergence_of_state():
    errors = _standing_wave_errors(times_half=False)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_position_superconverges_at_phase_null():
    # t = 1 is an extremum of cos(pi t): the leading phase error cancels in
    # the position and the observed drop factor is 16, not 4; pin it so a
    # regression to generic second-order behavior is visible
    errors = _standing_wave_errors(times_half=True)
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.8 <= coarse / fine <= 19.2


# ------------------------------------------------------------------ simulate

@pytest.fixture(scope="module")
def small_setup():
    g = wt.build_grid(wt.Interval(1.0, 49))
    c = wt.discrete_poincare_constant(g)
    cert = wt.build_certificate(wt.DesignInput(alpha=1.0, c_omega=c, c_omega_source="discrete"))
    z0, z1 = sine_mode(g, 1), zero_field(g)
    scale = wt.initial_threshold_scale(z0, z1, cert.epsilon, 1.0, g, "v0")
    params = wt.TriggerParams.from_certificate(cert, scale)
    integ = wt.IntegratorConfig(t_end=8.0, dt=0.5 * g.spacings[0])
    return g, cert, params, z0, z1, integ


def replay(rec, z0, z1, alpha):
    """(step index, post-step state) of the run ``rec`` replayed with public
    step calls, the hold refreshed with a fresh sample at the record's events;
    each state is yielded before its refresh, as the record's rows are."""
    s = dynamics.WaveState(t=0.0, z=z0.copy(), v=z1.copy(), held=z1.copy(), k=0, t_k=0.0)
    for i in range(rec.n_steps + 1):
        if i:  # row 0 is the initial state
            s = dynamics.step(s, rec.dt, alpha)
            s.t = rec.t[i]
        yield i, s
        if rec.event[i]:
            s = dataclasses.replace(s, held=s.v.copy(), k=s.k + 1, t_k=s.t)


def test_simulate_refuses_zero_initial_data(small_setup):
    g, cert, params, _, z1, integ = small_setup
    with pytest.raises(DegenerateInitialDataError):
        wt.simulate(zero_field(g), zero_field(g), 1.0, g, integ, params, cert)


def test_simulate_is_deterministic(small_setup):
    g, cert, params, z0, z1, integ = small_setup
    a = wt.simulate(z0, z1, 1.0, g, integ, params, cert)
    b = wt.simulate(z0, z1, 1.0, g, integ, params, cert)
    for name in ("t", "energy", "lyapunov", "norm_e_sq", "eta0", "trigger_value"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    np.testing.assert_array_equal(a.events.times, b.events.times)


def test_simulate_event_bookkeeping(small_setup):
    g, cert, params, z0, z1, integ = small_setup
    rec = wt.simulate(z0, z1, 1.0, g, integ, params, cert)
    assert rec.event[0]
    assert rec.events.times[0] == 0.0
    idx = np.flatnonzero(rec.event)
    # predicate nonnegative at every fired step except the seed event
    assert (rec.trigger_value[idx[1:]] >= 0).all()
    # strictly negative strictly between events
    mask = np.ones(rec.t.size, dtype=bool)
    mask[idx] = False
    assert (rec.trigger_value[mask] < 0).all()
    assert len(rec.events) == idx.size
    assert len(rec.events) < rec.n_steps
    # the event log is the event rows
    for got, column in zip(
        (rec.events.times, rec.events.predicate_values, rec.events.norm_e_sq_values, rec.events.eta0_values),
        (rec.t, rec.trigger_value, rec.norm_e_sq, rec.eta0),
    ):
        np.testing.assert_array_equal(got, column[idx])


def test_simulate_periodic_mode(small_setup):
    g, cert, params, z0, z1, integ = small_setup
    rec = wt.simulate(z0, z1, 1.0, g, integ, params, cert, mode="periodic", period=0.5)
    dwells = np.diff(rec.events.times)
    assert np.allclose(dwells, 0.5, atol=rec.dt)
    with pytest.raises(ConfigurationError):
        wt.simulate(z0, z1, 1.0, g, integ, params, cert, mode="periodic")


def test_simulate_uncontrolled_samples_once_at_t0(small_setup):
    # the hold is sampled at t = 0 and never refreshed, with gain 0: the
    # record has the columns of every mode, one event and ||v - z1||^2
    g, cert, params, z0, z1, integ = small_setup
    rec = wt.simulate(z0, z1, 1.0, g, integ, mode="uncontrolled")
    assert len(rec.events) == 1 and np.flatnonzero(rec.event).tolist() == [0]
    # z1 = 0 is the sample held, so the deviation is v itself
    assert rec.norm_e_sq.tobytes() == rec.norm_v_sq.tobytes() and rec.norm_v_sq.max() > 0
    # no trigger drives the run
    assert np.isnan(rec.eta0).all() and np.isnan(rec.trigger_value).all()


def test_simulate_continuous_updates_every_step(small_setup):
    g, cert, params, z0, z1, integ = small_setup
    rec = wt.simulate(z0, z1, 1.0, g, integ, params, cert, mode="continuous-damping")
    assert len(rec.events) == rec.n_steps + 1
    # damping removes energy monotonically up to the scheme's dt^2 wiggle
    assert np.diff(rec.energy).max() <= rec.dt ** 2 * rec.energy[0]


def test_simulate_rejects_event_mode_without_params(small_setup):
    g, cert, params, z0, z1, integ = small_setup
    with pytest.raises(ConfigurationError):
        wt.simulate(z0, z1, 1.0, g, integ, mode="event-triggered")


def test_simulate_refuses_initial_data_of_another_grid():
    # the 20x10 fields hold the 200 values the 10x20 grid takes, on other nodes
    g = wt.build_grid(wt.Rectangle(1.0, 2.0, 10, 20))
    other = wt.build_grid(wt.Rectangle(2.0, 1.0, 20, 10))
    ours, theirs = (sine_mode(g, 1), bump(g)), (sine_mode(other, 1), bump(other))
    for z0, z1 in ((theirs[0], ours[1]), (ours[0], theirs[1])):
        with pytest.raises(ShapeError):
            wt.simulate(z0, z1, 1.0, g, wt.IntegratorConfig(t_end=0.1), mode="continuous-damping")


def test_simulate_refuses_a_certificate_for_another_alpha(small_setup):
    # V would be built with the cross-weight of alpha = 2 on a run with alpha = 1
    g, cert, params, z0, z1, integ = small_setup
    cert2 = wt.build_certificate(wt.DesignInput(alpha=2.0, c_omega=cert.c_omega, c_omega_source="discrete"))
    with pytest.raises(ConfigurationError, match="alpha"):
        wt.simulate(z0, z1, 1.0, g, integ, params, cert2)


def test_simulate_blowup_reports_step_index(small_setup):
    # sample-and-hold damping far beyond 2/dt is unstable and must be
    # reported as a blow-up with the failing step, not as NaN output
    g, cert, params, z0, z1, integ = small_setup
    with pytest.raises(BlowUpError) as err:
        wt.simulate(z0, z1, 5000.0, g, integ, mode="continuous-damping")
    assert err.value.step == 183
    assert err.value.time == 183 * integ.dt


# budgets of the simulate loop's block buffers: one step a block, ten steps
# on n = 49 and three on the 15x11 rectangle, and the default
BUDGETS = pytest.mark.parametrize("budget", [0, 48 * 165 * 3, dynamics._BLOCK_BYTES], ids=["k1", "small", "default"])


@BUDGETS
@pytest.mark.parametrize("mode, period, step", [("continuous-damping", None, 183), ("periodic", 0.05, 646)])
def test_blowup_step_does_not_depend_on_the_block_size(small_setup, monkeypatch, budget, mode, period, step):
    # the blow-up above at each budget; a periodic hold with a five-step
    # period blows up in the first row of a five-step block
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", budget)
    g, cert, params, z0, z1, integ = small_setup
    with pytest.raises(BlowUpError) as err:
        wt.simulate(z0, z1, 5000.0, g, integ, mode=mode, period=period)
    assert err.value.step == step
    assert err.value.time == step * integ.dt


@BUDGETS
def test_event_triggered_blowup_step_does_not_depend_on_the_block_size(small_setup, monkeypatch, budget):
    # the first hold after t = 0 samples a v_hat whose rest point -alpha
    # v_hat / w overflows at alpha = 1e308; the rows after it are not
    # finite, and the scan, which passes rows below the eta0 floor only in
    # blocks whose norms are all finite, names the same step at every budget
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", budget)
    g, cert, params, z0, z1, integ = small_setup
    with pytest.raises(BlowUpError) as err:
        wt.simulate(z0, z1, 1e308, g, integ, params)
    assert err.value.step == 31


def test_a_nan_position_below_the_eta0_floor_is_a_blow_up(small_setup, monkeypatch):
    # a NaN in 1/w of the highest mode makes z_hat NaN from step 1 on, while
    # v_hat, and with it the deviation, stays finite and far below eta0:
    # the floor alone would pass the row, the block's non-finite norms do not
    init = dynamics._Modal.__init__

    def poisoned(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._winv[:, -1] = np.nan

    monkeypatch.setattr(dynamics._Modal, "__init__", poisoned)
    g, cert, params, z0, z1, integ = small_setup
    with pytest.raises(BlowUpError) as err:
        wt.simulate(z0, z1, 1.0, g, integ, params, cert)
    assert err.value.step == 1


def test_simulate_runs_on_when_only_the_norms_overflow(small_setup):
    # entries near 1e160 are finite, their squared norms overflow to inf:
    # that is not a blow-up of the state, so the run goes on
    g, cert, params, z0, z1, integ = small_setup
    big = Field(1e160 * z0.values, g)
    short = wt.IntegratorConfig(t_end=5 * integ.dt, dt=integ.dt)
    with np.errstate(over="ignore"):  # the t = 0 norms overflow too
        rec = wt.simulate(big, z1, 1.0, g, short, mode="uncontrolled")
    assert rec.n_steps == 5
    assert np.isinf(rec.norm_z_sq).all() and np.isinf(rec.energy).all()
    # public step() raises on a non-finite entry; the replay takes all 5 steps
    replayed = [i for i, s in replay(rec, big, z1, 0.0)]
    assert replayed == [0, 1, 2, 3, 4, 5]


def test_wavestate_validation():
    g = wt.build_grid(wt.Interval(1.0, 49))
    other = wt.build_grid(wt.Interval(2.0, 49))
    with pytest.raises(ConfigurationError):
        dynamics.WaveState(t=0.0, z=sine_mode(g, 1), v=sine_mode(other, 1), held=zero_field(g), k=0, t_k=0.0)
    with pytest.raises(ConfigurationError):
        dynamics.WaveState(t=1.0, z=sine_mode(g, 1), v=zero_field(g), held=zero_field(g), k=0, t_k=2.0)


def triggered_run(shape):
    g = wt.build_grid(shape)
    z0, z1 = sine_mode(g, 1), bump(g)
    params = wt.TriggerParams(gamma0=0.2, gamma1=0.2, theta=0.5, eta0_scale=0.2)
    rec = wt.simulate(z0, z1, 1.0, g, wt.IntegratorConfig(t_end=2.0), params)
    assert 3 <= len(rec.events) < rec.n_steps // 5
    return g, z0, z1, params, rec


SHAPES = pytest.mark.parametrize(
    "shape", [wt.Interval(1.0, 49), wt.Rectangle(1.0, 0.8, 15, 11)], ids=["interval", "rectangle"]
)


@SHAPES
def test_simulate_and_public_step_share_one_kernel(shape):
    # replaying an event-triggered run with public step calls and fresh
    # samples reproduces every recorded norm, row 0 included, to 1e-12
    # relative, and the predicate to 1e-12 of the terms it sums: the public
    # step transforms in and out of the sine basis on every call
    g, z0, z1, params, rec = triggered_run(shape)
    for i, s in replay(rec, z0, z1, 1.0):
        nz, nv = l2_norm_sq(s.z, g), l2_norm_sq(s.v, g)
        ne = l2_norm_sq(Field(s.v.values - s.held.values, g), g)
        eta = wt.eta0(s.t, params)
        got = np.array((nz, nv, ne))
        want = np.array((rec.norm_z_sq[i], rec.norm_v_sq[i], rec.norm_e_sq[i]))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"step {i}")
        scale = ne + params.gamma0 * nz + params.gamma1 * nv + eta
        assert abs(predicate_from_norms(ne, nz, nv, eta, params) - rec.trigger_value[i]) <= 1e-12 * scale, f"step {i}"


@SHAPES
def test_simulate_records_the_gradient_norm_of_each_state(shape):
    # the recorded norm_gradz_sq is w_q sum lam z_hat^2 (Parseval); it must be
    # the forward-difference seminorm of that step's z, the initial z0 of
    # row 0 included
    g, z0, z1, params, rec = triggered_run(shape)
    for i, s in replay(rec, z0, z1, 1.0):
        want = h1_seminorm_sq(s.z, g)
        assert abs(rec.norm_gradz_sq[i] - want) <= 1e-12 * want, f"step {i}"


@SHAPES
def test_v0_threshold_scale_is_the_recorded_v0(shape):
    # the eta0 scale (the initial data's norm sums) and row 0 (the step
    # kernel's buffers) take every norm by one function, lyapunov.norm_sums:
    # the v0 scale is V[0] and the reduced one V[0] with alpha = 0,
    # E[0] + eps <z, v>[0], bit for bit
    g = wt.build_grid(shape)
    z0, z1 = sine_mode(g, 1), bump(g)  # a nonzero cross term <z, v>
    cert = wt.build_certificate(wt.DesignInput(alpha=1.0, c_omega=wt.discrete_poincare_constant(g)))
    for variant in ("v0", "reduced"):
        scale = wt.initial_threshold_scale(z0, z1, cert.epsilon, 1.0, g, variant)
        params = wt.TriggerParams.from_certificate(cert, scale)
        rec = wt.simulate(z0, z1, 1.0, g, wt.IntegratorConfig(t_end=0.1), params, cert)
        assert rec.inner_zv[0] != 0
        want = rec.lyapunov[0] if variant == "v0" else rec.energy[0] + cert.epsilon * rec.inner_zv[0]
        assert np.float64(scale).tobytes() == want.tobytes() == rec.eta0[0].tobytes(), variant


@SHAPES
def test_kernel_with_the_hold_left_out_holds_v(shape):
    # simulate's hold starts as z1, its v: the kernel takes it from v_hat
    # with no transform of its own, and every buffer is the one a hold of
    # v given as a field makes
    g = wt.build_grid(shape)
    z, v = sine_mode(g, 1).values, bump(g).values
    dt = 0.5 * wt.cfl_max_dt(g)
    left_out, given = dynamics._Modal(g, z, v, None, 1.0, dt, 8), dynamics._Modal(g, z, v, v, 1.0, dt, 8)
    for kernel in (left_out, given):
        kernel.advance(8)
    for name in ("held", "rows", "q", "_wp", "_phase"):
        assert getattr(left_out, name).tobytes() == getattr(given, name).tobytes(), name


def assert_record_is_the_anchor_loop(g, z0, z1, rec, params, span, alpha):
    """The norm columns (``RunRecord.COLUMNS``) and events of the run ``rec``
    of gain ``alpha`` are, bit for bit, those of a loop written with the
    kernel's arithmetic, one row at a time: each row is its anchor times
    exp(-i w r dt), r rows on, from a table of cos and sin of r (-w dt),
    r = 1..span; the anchors are t = 0, every hold and every span-th row
    after an anchor.  The loop decides its own events: a periodic hold
    every ceil(period / dt) rows, and an uncontrolled run's at t = 0 alone."""
    dt, period = rec.dt, rec.meta["period"]
    w = np.sqrt(eigenvalues(g))
    winv = 1.0 / w
    angle = np.arange(1.0, span + 1.0)[:, None] * (w * -dt)
    phase = np.empty(angle.shape, complex)
    phase.real, phase.imag = np.cos(angle), np.sin(angle)
    zh, vh = sine_transform(z0.values, g), sine_transform(z1.values, g)
    held, wz = vh.copy(), zh * w
    wp = held * winv * -alpha
    anchor = np.empty(w.size, complex)
    anchor.real, anchor.imag = wz - wp, vh
    sums, events, r = [], [], 0
    for row in range(rec.t.size):
        if row:
            if r == span:
                anchor, r = q, 0
            q, r = anchor * phase[r], r + 1
            wz = q.real + wp
            zh, vh = wz * winv, q.imag.copy()
        rows = np.array([zh, wz, vh, vh - held])
        sums.append([*np.vecdot(rows, rows), np.vecdot(zh, vh)])
        nz, nv, ne = (g.weight * sums[-1][k] for k in (0, 2, 3))
        if not row:  # unconditional, and a hold of z1 there changes nothing
            events.append(True)
            continue
        if rec.mode == "event-triggered":
            fire = predicate_from_norms(ne, nz, nv, wt.eta0(row * dt, params), params) >= 0.0
        elif rec.mode == "periodic":
            fire = row % math.ceil(period / dt) == 0
        else:
            fire = rec.mode == "continuous-damping"
        events.append(fire)
        if fire:
            held = vh.copy()
            wp = held * winv * -alpha
            q.real = wz - wp
            anchor, r = q, 0
    assert np.array_equal(rec.event, events)
    for name, col in zip(wt.RunRecord.COLUMNS, np.array(sums).T * g.weight):
        assert getattr(rec, name).tobytes() == col.tobytes(), (rec.mode, name)


def anchored_run(shape, mode):
    g = wt.build_grid(shape)
    z0, z1 = sine_mode(g, 1), bump(g)
    params = wt.TriggerParams(gamma0=0.2, gamma1=0.2, theta=0.5, eta0_scale=0.2)
    rec = wt.simulate(z0, z1, 1.0, g, wt.IntegratorConfig(t_end=2.0), params, mode=mode, period=0.1)
    assert (rec.event[1:].sum() >= 2) == (mode != "uncontrolled")  # events after t = 0 cut blocks
    return g, z0, z1, params, rec, 0.0 if mode == "uncontrolled" else 1.0  # the gain the loop runs with


@pytest.mark.parametrize("budget", ["small", "default"])
@pytest.mark.parametrize("mode", dynamics.MODES)
@SHAPES
def test_record_does_not_depend_on_the_block_size(shape, mode, budget, monkeypatch):
    # blocks of up to T rows, each one product from its anchor, give the
    # record of a loop of one row at a time from the same anchors, bit for
    # bit: T = 3 (small), and the default 167 on n = 49 and 49 on 15x11
    m = wt.build_grid(shape).num_interior
    span = 3 if budget == "small" else dynamics._BLOCK_BYTES // (48 * m)
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 48 * m * span)
    blocks = record_blocks(monkeypatch)
    g, z0, z1, params, rec, alpha = anchored_run(shape, mode)
    longest = max(k for k, _ in blocks)  # periodic blocks end at the due rows
    assert longest == span if mode in ("event-triggered", "uncontrolled") else longest <= span
    assert_record_is_the_anchor_loop(g, z0, z1, rec, params, span, alpha)


def record_blocks(monkeypatch) -> list:
    """The (k, start) of every kernel advance from here on."""
    blocks, advance = [], dynamics._Modal.advance

    def recorded(self, k=1, start=0):
        blocks.append((k, start))
        return advance(self, k, start)

    monkeypatch.setattr(dynamics._Modal, "advance", recorded)
    return blocks


@pytest.mark.parametrize("mode", ["event-triggered", "continuous-damping"])
def test_simulate_steps_the_default_config_in_few_blocks(mode, monkeypatch):
    # the kernel work of the default run (n = 199, 4,000 steps), counted,
    # not timed, so the bounds hold exactly
    blocks = record_blocks(monkeypatch)
    run_from_config(RunConfig(mode=mode))
    if mode == "continuous-damping":  # it fires every step: one step a block
        assert blocks == [(1, 0)] * 4000
    else:  # whole 41-row blocks from each anchor, cut at its 9 events
        assert len(blocks) <= 101 and sum(k for k, _ in blocks) <= 4120


def test_periodic_blocks_end_where_the_period_falls_due(monkeypatch):
    # a periodic block stops at the row the hold is refreshed, so no row is
    # stepped past an event: the rows stepped are the run's steps
    blocks = record_blocks(monkeypatch)
    rec, _ = run_from_config(RunConfig(mode="periodic", period=0.1, domain={"kind": "interval", "length": 1.0, "n": 49}))
    assert rec.n_steps == 1000 and rec.event.sum() == 101
    assert sum(k for k, _ in blocks) == rec.n_steps


def test_periodic_hold_is_counted_in_rows():
    # 0.0015 is 3 steps of dt = 0.0005 to rounding; as differences of the
    # rounded times k dt, 63 of the holds once came one row late
    cfg = RunConfig(mode="periodic", period=0.0015, t_end=10.0, domain={"kind": "interval", "length": 1.0, "n": 999})
    rec, summary = run_from_config(cfg)
    assert rec.dt == 0.0005 and rec.n_steps == 20000
    assert rec.event.sum() == 6667 and set(np.diff(np.flatnonzero(rec.event))) == {3}
    assert summary["checks_passed"]


def test_eta0_column_is_the_scalar_floor_at_every_row():
    # simulate fills the column with one call on the array of row times; an
    # entry must be the scalar call's, bit for bit (np.exp would move some
    # entries by an ulp, and the golden hashes with them)
    g = wt.build_grid(wt.Interval(1.0, 49))
    params = wt.TriggerParams(gamma0=0.2, gamma1=0.2, theta=0.5, eta0_scale=0.2)
    rec = wt.simulate(sine_mode(g, 1), bump(g), 1.0, g, wt.IntegratorConfig(t_end=20.0), params)
    assert rec.t.size > 1000 and rec.event[1:].any()
    want = [wt.eta0(i * rec.dt, params) for i in range(rec.t.size)]
    assert rec.eta0.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("shape, size", [
    (wt.Rectangle(1.0, 1.0, 127, 127), 3),
    (wt.Interval(1.0, 199), 3),
    (wt.Rectangle(1.0, 1.0, 15, 15), 1),  # one step: a plane of 225 * 8 bytes, 8 past a line
    (wt.Interval(1.0, 199), dynamics._BLOCK_BYTES // (48 * 199)),  # the default budget, 41 steps
], ids=["127x127", "n199", "15x15-one-step", "n199-default"])
def test_kernel_buffers_start_on_cache_lines(shape, size):
    # numpy aligns to 16 bytes only; a step's time on 127x127 depended on
    # where in a cache line malloc happened to start each buffer.  The four
    # planes of the rows (z_hat, w z_hat, v_hat, e_hat) each start on a line
    # too, and a block row stays contiguous inside its plane, so a block is
    # one flat loop a plane; so is each of the three (size, M) tiles
    g = wt.build_grid(shape)
    z = sine_mode(g, 1).values
    kernel = dynamics._Modal(g, z, z, z, 1.0, wt.cfl_max_dt(g), size)
    names = ["held", "rows", "_wp", "_phase", "_winv", "q"]
    if kernel._anchor is not None:  # a phase table of more than one row
        names.append("_anchor")
    for name in names:
        assert getattr(kernel, name).ctypes.data % 64 == 0, name
    m = g.num_interior
    assert kernel.rows.shape == (4, size, m) and kernel.rows.strides[1:] == (8 * m, 8)
    assert [plane.ctypes.data % 64 for plane in kernel.rows] == [0] * 4
    for name in ("held", "_wp", "_winv"):
        assert getattr(kernel, name).shape == (size, m) and getattr(kernel, name).flags.c_contiguous, name


def test_kernel_on_127x127_keeps_the_one_row_tables():
    # the phase table takes the place of the rotation exp(-i w dt), at its
    # size and bit for bit, and the turn needs no anchor buffer: every row
    # is the anchor of the next.  The tiles are one row, the vectors they hold
    g = wt.build_grid(wt.Rectangle(1.0, 1.0, 127, 127))
    m, dt = g.num_interior, wt.cfl_max_dt(g)
    size = max(1, dynamics._BLOCK_BYTES // (48 * m))
    z = sine_mode(g, 1).values
    kernel = dynamics._Modal(g, z, z, z, 1.0, dt, size)
    assert size == 1 and kernel._anchor is None
    for name in ("held", "_wp", "_winv"):
        assert getattr(kernel, name).shape == (1, m), name
    angle = np.sqrt(eigenvalues(g)) * -dt
    assert kernel._phase.shape == (1, m)
    assert kernel._phase[0].real.tobytes() == np.cos(angle).tobytes()
    assert kernel._phase[0].imag.tobytes() == np.sin(angle).tobytes()


def test_one_row_phase_table_turns_as_the_sequential_product(monkeypatch):
    # with T = 1 every row anchors the next, so each row is the row before
    # times exp(-i w dt): the turn of a loop of single products, in every
    # mode on both shapes
    monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 0)
    blocks = record_blocks(monkeypatch)
    for shape in (wt.Interval(1.0, 49), wt.Rectangle(1.0, 0.8, 15, 11)):
        for mode in dynamics.MODES:
            g, z0, z1, params, rec, alpha = anchored_run(shape, mode)
            assert_record_is_the_anchor_loop(g, z0, z1, rec, params, 1, alpha)
    assert {k for k, _ in blocks} == {1}


def test_step_builds_a_one_row_phase_table():
    # a public step reads one row of the table, and builds no more
    g = wt.build_grid(wt.Interval(1.0, 199))
    z = sine_mode(g, 1).values
    kernel = dynamics._Modal(g, z, z, z, 1.0, wt.cfl_max_dt(g), size=1)
    assert kernel._phase.shape == (1, 199) and kernel._anchor is None


def test_uncontrolled_energy_drifts_by_rounding_only():
    # the exact flow conserves E, so its drift is rounding: once a product
    # for each anchor (every 41 rows at n = 199), not once for each row.
    # A turn of one product a row drifted by 8.5e-13 here
    rec, _ = run_from_config(RunConfig(mode="uncontrolled", t_end=40.0))
    assert rec.n_steps == 16000
    assert np.max(np.abs(rec.energy - rec.energy[0])) / rec.energy[0] <= 1e-13


@pytest.mark.parametrize("mode", ["event-triggered", "continuous-damping"])
def test_in_place_hold_matches_a_replay_with_fresh_samples(mode):
    # the kernel copies each new sample into its one hold buffer; the replay
    # through public step calls keeps a fresh array per sample
    cfg = RunConfig(domain={"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 31, "ny": 31}, mode=mode)
    rec, _ = run_from_config(cfg)
    assert rec.event.sum() >= 10
    g = cfg.build_grid()
    z0, z1 = sine_mode(g, 1), zero_field(g)
    ne, fired = [], []
    for i, s in replay(rec, z0, z1, cfg.alpha):
        nz, nv = l2_norm_sq(s.z, g), l2_norm_sq(s.v, g)
        ne.append(l2_norm_sq(Field(s.v.values - s.held.values, g), g))
        eta = wt.eta0(s.t, rec.trigger)
        fired.append(i == 0 or mode != "event-triggered" or predicate_from_norms(ne[-1], nz, nv, eta, rec.trigger) >= 0)
    # v - held cancels, and the rounding of v is relative to the energy,
    # sqrt(||v||^2 + ||grad z||^2), not to ||e||
    bound = 1e-12 * (rec.norm_e_sq + np.sqrt(rec.norm_e_sq * rec.energy))
    assert (np.abs(np.array(ne) - rec.norm_e_sq) <= bound).all()
    np.testing.assert_array_equal(fired, rec.event)
