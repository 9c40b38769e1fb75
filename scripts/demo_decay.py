#!/usr/bin/env python3
"""End-to-end demo on the flagship scenario: design a certificate for the
unit interval, run the event-triggered loop, and print what the certificate
promised versus what the trajectory did.

Usage: python scripts/demo_decay.py [--n 199] [--alpha 1.0] [--t-end 40] [--out runs/demo]
"""

import argparse

import numpy as np

import wavetrig as wt
from wavetrig.grid import Field
from wavetrig.initial import sine_mode
from wavetrig.runio import save_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=199)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--t-end", dest="t_end", type=float, default=40.0)
    ap.add_argument("--out", default=None, help="optional run directory")
    args = ap.parse_args()

    g = wt.build_grid(wt.Interval(1.0, args.n))
    c = wt.discrete_poincare_constant(g)
    cert = wt.build_certificate(wt.DesignInput(alpha=args.alpha, c_omega=c, c_omega_source="discrete"))
    print(f"domain: unit interval, n={args.n}, C_Omega={c:.6f} (discrete)")
    print(f"design: gamma0={cert.gamma0:.4g} gamma1={cert.gamma1:.4g} eps={cert.epsilon:.4g} "
          f"beta={cert.beta:.4g} theta={cert.theta:.4g}")
    print(f"promise: E(t) <= {cert.overshoot:.4g} * exp(-{cert.decay_rate:.4g} t) * E(0)")

    z0 = sine_mode(g, 1)
    z1 = Field(np.zeros(g.num_interior), g)
    scale = wt.initial_threshold_scale(z0, z1, cert.epsilon, args.alpha, g, "v0")
    params = wt.TriggerParams.from_certificate(cert, scale)
    integ = wt.IntegratorConfig(t_end=args.t_end, dt=0.5 * g.spacings[0])
    rec = wt.simulate(z0, z1, args.alpha, g, integ, params, cert)

    env = wt.check_envelope(rec)
    eq = wt.check_equivalence(rec)
    vd = wt.check_vdot(rec)
    stats = wt.zeno_report(rec.events, horizon=float(rec.t[-1]))
    print(f"run: {rec.n_steps} steps, {stats.event_count} events "
          f"(update ratio {stats.event_count / rec.n_steps:.4f}), "
          f"dwell min/mean/max = {stats.min_dwell:.3g}/{stats.mean_dwell:.3g}/{stats.max_dwell:.3g}")
    print(f"measured: E(0)={rec.energy[0]:.4g} -> E(t_end)={rec.energy[-1]:.4g}, "
          f"delta_emp={env.details['delta_emp']:.4g} (certified {cert.decay_rate:.4g})")
    for rep in (env, eq, vd):
        print(f"check {rep.name}: {'PASS' if rep.passed else 'FAIL'} "
              f"({rep.n_violations} violations over {rep.n_checked} steps)")
    if args.out:
        save_run(rec, args.out)
        print(f"run persisted to {args.out}")


if __name__ == "__main__":
    main()
