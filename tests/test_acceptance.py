"""Acceptance suite.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (visible under
``pytest tests/test_acceptance.py -s`` or by running this file directly)
and asserts at its stated tolerance.

Scenario A1: unit interval, n = 199, alpha = 1, discrete Poincare constant,
half-of-supremum trigger weights, theta margin 1.5, eta0 scaled by the full
initial Lyapunov value, z0 = sin(pi x), z1 = 0, dt = dx/2, horizon 40.
"""

import json
import math

import numpy as np
import pytest

import wavetrig as wt
from wavetrig.cli import main
from wavetrig.config import RunConfig
from wavetrig.dynamics import WaveState, step
from wavetrig.errors import InfeasibleDomainError
from wavetrig.grid import Field, apply_laplacian, h1_seminorm_sq, l2_norm_sq
from wavetrig.initial import sine_mode

ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
C_VALUES = (0.1, 0.3, 0.5, 1.0, 1.3)


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def zero_field(g):
    return Field(np.zeros(g.num_interior), g)


# ------------------------------------------------------------------------ A1

def test_a1_envelope(a1_record):
    rep = wt.check_envelope(a1_record, rel_tol=1e-9)
    _line("A1 envelope", rep.passed and rep.n_violations == 0,
          f"E(t) <= K exp(-delta t) E(0): violations={rep.n_violations}, worst ratio={rep.worst:.4g}")


def test_a1_sandwich(a1_record):
    rep = wt.check_equivalence(a1_record, rel_tol=1e-12)
    _line("A1 sandwich", rep.passed and rep.n_violations == 0,
          f"c1 E <= V <= c2 E at 1e-12: violations={rep.n_violations}, worst rel={rep.worst:.3e}")


def test_a1_trigger_invariant(a1_record):
    rep = wt.check_trigger_invariant(a1_record)
    _line("A1 trigger invariant", rep.passed and rep.n_violations == 0,
          f"inter-event predicate < 0, event predicate >= 0: violations={rep.n_violations}")


def test_a1_vdot(a1_record):
    rep = wt.check_vdot(a1_record)
    _line("A1 vdot bound", rep.passed and rep.n_violations == 0,
          f"dV/dt <= -beta E + (alpha/2)(1+alpha eps) eta0 away from events: "
          f"violations={rep.n_violations}, worst margin={rep.worst:.3e} (tol={rep.details['tolerance']:.3e})")


def test_a1_empirical_rate(a1_record):
    rep = wt.check_envelope(a1_record)
    delta_emp = rep.details["delta_emp"]
    delta = a1_record.certificate.decay_rate
    _line("A1 empirical rate", delta_emp >= delta,
          f"delta_emp={delta_emp:.4g} >= delta={delta:.4g}")


def test_a1_event_economy(a1_record):
    n_events = len(a1_record.events)
    _line("A1 event economy", n_events < a1_record.n_steps,
          f"events={n_events} < steps={a1_record.n_steps} "
          f"(update ratio {n_events / a1_record.n_steps:.4f})")


# ------------------------------------------------------------------------ A2

def test_a2_feasibility_grid():
    failures = []
    for alpha in ALPHAS:
        for c in C_VALUES:
            cert = wt.build_certificate(wt.DesignInput(alpha=alpha, c_omega=c))
            if not (cert.decay_rate > 0 and cert.overshoot > 1 and cert.nu0 > 0 and cert.nu1 > 0):
                failures.append((alpha, c))
    refused = 0
    for c in (math.sqrt(2.0), 1.5):
        try:
            wt.build_certificate(wt.DesignInput(alpha=1.0, c_omega=c))
        except InfeasibleDomainError:
            refused += 1
    _line("A2 feasibility grid", not failures and refused == 2,
          f"25/25 cells feasible (delta>0, K>1, nu>0), refused C in {{sqrt2, 1.5}}: "
          f"failures={failures}, refusals={refused}/2")


# ------------------------------------------------------------------------ A3

def test_a3_boundary_identities():
    worst = 0.0
    for alpha in ALPHAS:
        for c in C_VALUES:
            cert = wt.build_certificate(wt.DesignInput(alpha=alpha, c_omega=c))
            lo, _ = wt.epsilon_interval(alpha, c, cert.gamma0, cert.gamma1)
            hi_unc = cert.diagnostics["interval_hi_uncapped"]
            nu0_lo, _, _ = wt.margins(alpha, c, cert.gamma0, cert.gamma1, lo)
            _, nu1_hi, _ = wt.margins(alpha, c, cert.gamma0, cert.gamma1, hi_unc)
            worst = max(
                worst,
                abs(nu0_lo) / max(1.0, 2 * lo, alpha * cert.gamma0 * c * c),
                abs(nu1_hi) / max(1.0, 2 * alpha),
            )
    _line("A3 boundary identities", worst <= 1e-10,
          f"nu0(lo) = 0 and nu1(hi) = 0 on the A2 grid: worst residual={worst:.3e} (tol 1e-10)")


# ------------------------------------------------------------------------ A4

def test_a4_integrator_order():
    errors = []
    for n in (49, 99, 199):
        g = wt.build_grid(wt.Interval(1.0, n))
        dt = 0.5 * g.spacings[0]
        steps = int(round(1.0 / dt))
        s = WaveState(t=0.0, z=sine_mode(g, 1), v=zero_field(g), held=zero_field(g), k=0, t_k=0.0)
        for _ in range(steps):
            s = step(s, dt, 0.0)
        t = steps * dt
        [x] = g.axes()
        err_z = np.max(np.abs(s.z.values - np.cos(np.pi * t) * np.sin(np.pi * x)))
        err_v = np.max(np.abs(s.v.values - (-np.pi) * np.sin(np.pi * t) * np.sin(np.pi * x)))
        errors.append(max(err_z, err_v))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(3.2 <= r <= 4.8 for r in ratios)
    _line("A4 integrator order", ok,
          f"state error vs standing wave at t=1 drops 4x +/- 20% per halving: "
          f"ratios={[f'{r:.3f}' for r in ratios]}")


# ------------------------------------------------------------------------ A5

def test_a5_discrete_analysis_lemmas():
    rng = np.random.default_rng(12345)
    worst_poincare = worst_sbp = worst_cs = 0.0
    for n in (49, 199, 999):
        g = wt.build_grid(wt.Interval(1.0, n))
        c_sq = wt.discrete_poincare_constant(g) ** 2
        for _ in range(100):
            f = Field(rng.standard_normal(g.num_interior), g)
            h = Field(rng.standard_normal(g.num_interior), g)
            l2 = l2_norm_sq(f, g)
            h1 = h1_seminorm_sq(f, g)
            worst_poincare = max(worst_poincare, l2 - c_sq * h1)
            sbp = g.weight * np.dot(apply_laplacian(f, g).values, f.values)
            worst_sbp = max(worst_sbp, abs(sbp + h1) / max(abs(sbp), h1, 1e-30))
            ip = g.weight * np.dot(f.values, h.values)
            worst_cs = max(worst_cs, ip * ip - l2 * l2_norm_sq(h, g))
    ok = worst_poincare <= 0.0 and worst_sbp <= 1e-12 and worst_cs <= 1e-12
    _line("A5 discrete lemmas", ok,
          f"Poincare slack={worst_poincare:.3e} (<=0), summation-by-parts rel={worst_sbp:.3e} "
          f"(<=1e-12), Cauchy-Schwarz slack={worst_cs:.3e}")


# ------------------------------------------------------------------------ A6

def test_a6_poincare_convergence_and_wirtinger_counterexample():
    c = wt.discrete_poincare_constant(wt.build_grid(wt.Interval(1.0, 999)))
    within = abs(c - 1 / math.pi) <= 0.01 / math.pi
    # pinned counterexample: sin(pi x) on n = 99 has ||f||^2 ~ 1/2 but
    # (L/2pi)^2 ||grad f||^2 ~ 1/8, so the interval value L/(2 pi) fails
    g = wt.build_grid(wt.Interval(1.0, 99))
    f = sine_mode(g, 1)
    cw_sq = wt.poincare_constant(g, "wirtinger") ** 2
    lhs = l2_norm_sq(f, g)
    rhs = cw_sq * h1_seminorm_sq(f, g)
    violated = lhs > rhs
    _line("A6 Poincare constant", within and violated,
          f"C(1,999)={c:.6f} within 1% of 1/pi={1/math.pi:.6f}; "
          f"L/(2pi) violated by sin(pi x): {lhs:.4f} > {rhs:.4f}")


# ------------------------------------------------------------------------ A7

def test_a7_zeno_diagnostics(a1_record):
    stats = wt.zeno_report(a1_record.events, horizon=float(a1_record.t[-1]))
    dwell_ok = stats.min_dwell >= a1_record.dt * (1 - 1e-12)
    idx = np.flatnonzero(a1_record.event)
    pred = a1_record.trigger_value
    fired_ok = bool((pred[idx[1:]] >= 0).all())
    prev_ok = bool((pred[idx[1:] - 1] < 0).all())
    floor_ok = stats.floor_ok
    ok = dwell_ok and fired_ok and prev_ok and floor_ok
    _line("A7 Zeno diagnostics", ok,
          f"min dwell={stats.min_dwell:.4g} >= dt={a1_record.dt}; events fire on (and only on) "
          f"predicate >= 0 with predicate < 0 one step before: {fired_ok and prev_ok}; "
          f"deviation floor ||e||^2 >= eta0 at events: violations={stats.floor_violations}")


# ------------------------------------------------------------------------ A8

def test_a8_baselines(grid199, a1_certificate, a1_record):
    g = grid199
    z0, z1 = sine_mode(g, 1), zero_field(g)
    scale = wt.initial_threshold_scale(z0, z1, a1_certificate.epsilon, 1.0, g, "v0")
    params = wt.TriggerParams.from_certificate(a1_certificate, scale)
    integ = wt.IntegratorConfig(t_end=40.0, dt=0.5 * g.spacings[0])
    cont = wt.simulate(z0, z1, 1.0, g, integ, params, a1_certificate, mode="continuous-damping")
    max_rise = float(np.diff(cont.energy).max())
    slack = cont.dt ** 2 * cont.energy[0]
    monotone = max_rise <= slack
    more_updates = len(cont.events) > len(a1_record.events)

    integ10 = wt.IntegratorConfig(t_end=10.0, dt=0.5 * g.spacings[0])
    unc = wt.simulate(z0, z1, 0.0, g, integ10, mode="uncontrolled")
    drift = float(np.max(np.abs(unc.energy - unc.energy[0])) / unc.energy[0])
    conservative = drift < 1e-3
    ok = monotone and more_updates and conservative
    _line("A8 baselines", ok,
          f"continuous damping: max per-step dE={max_rise:.3e} <= dt^2 E0={slack:.3e}, "
          f"updates {len(cont.events)} > {len(a1_record.events)} events; "
          f"uncontrolled drift={drift:.3e} < 1e-3")


# ------------------------------------------------------------------------ A9

def test_a9_determinism(tmp_path):
    cfg = RunConfig(
        domain={"kind": "interval", "length": 1.0, "n": 199},
        alpha=1.0,
        z0={"kind": "sine", "k": 1},
        z1={"kind": "zero"},
        dt=0.0025,
        cfl_fraction=0.5,
        t_end=40.0,
        out=str(tmp_path / "r1"),
    )
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code1 = main(["simulate", "--config", str(path), "--out", str(tmp_path / "r1")])
    code2 = main(["simulate", "--config", str(path), "--out", str(tmp_path / "r2")])
    b1 = (tmp_path / "r1" / "series.csv").read_bytes()
    b2 = (tmp_path / "r2" / "series.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    _line("A9 determinism", ok,
          f"two identical A1 invocations: exit codes ({code1}, {code2}), "
          f"series.csv byte-identical={b1 == b2} ({len(b1)} bytes)")


if __name__ == "__main__":
    import sys

    grid = wt.build_grid(wt.Interval(1.0, 199))
    c = wt.discrete_poincare_constant(grid)
    cert = wt.build_certificate(
        wt.DesignInput(alpha=1.0, c_omega=c, c_omega_source="discrete")
    )
    z0 = sine_mode(grid, 1)
    z1 = zero_field(grid)
    s = wt.initial_threshold_scale(z0, z1, cert.epsilon, 1.0, grid, "v0")
    record = wt.simulate(
        z0, z1, 1.0, grid, wt.IntegratorConfig(t_end=40.0, dt=0.5 * grid.spacings[0]),
        wt.TriggerParams.from_certificate(cert, s), cert,
    )

    import tempfile
    from pathlib import Path

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        checks = [
            (test_a1_envelope, (record,)),
            (test_a1_sandwich, (record,)),
            (test_a1_trigger_invariant, (record,)),
            (test_a1_vdot, (record,)),
            (test_a1_empirical_rate, (record,)),
            (test_a1_event_economy, (record,)),
            (test_a2_feasibility_grid, ()),
            (test_a3_boundary_identities, ()),
            (test_a4_integrator_order, ()),
            (test_a5_discrete_analysis_lemmas, ()),
            (test_a6_poincare_convergence_and_wirtinger_counterexample, ()),
            (test_a7_zeno_diagnostics, (record,)),
            (test_a8_baselines, (grid, cert, record)),
            (test_a9_determinism, (Path(tmp),)),
        ]
        for fn, args in checks:
            try:
                fn(*args)
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
