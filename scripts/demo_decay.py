#!/usr/bin/env python3
"""End-to-end demo on the flagship scenario: ``wavetrig simulate`` designs a
certificate for the unit interval, runs the event-triggered loop and checks
the record; the demo then prints what the certificate promised versus what
the trajectory did, read back from the run directory.

Usage: python scripts/demo_decay.py [--n 199] [--alpha 1.0] [--t-end 40] [--out runs/demo]
"""

import argparse
import sys

from wavetrig.cli import main as cli_main
from wavetrig.runio import load_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=199)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--t-end", dest="t_end", type=float, default=40.0)
    ap.add_argument("--out", default="runs/demo")
    args = ap.parse_args()

    code = cli_main([
        "simulate",
        "--n", str(args.n),
        "--alpha", str(args.alpha),
        "--t-end", str(args.t_end),
        "--out", args.out,
    ])
    if code > 1:  # no run directory was written
        return code
    rec, summary = load_run(args.out)
    cert, checks = rec.certificate, summary["checks"]
    zeno = checks["zeno"]
    print(f"domain: unit interval, n={args.n}, C_Omega={cert.c_omega:.6f} ({cert.c_omega_source})")
    print(f"design: gamma0={cert.gamma0:.4g} gamma1={cert.gamma1:.4g} eps={cert.epsilon:.4g} "
          f"beta={cert.beta:.4g} theta={cert.theta:.4g}")
    print(f"promise: E(t) <= {cert.overshoot:.4g} * exp(-{cert.decay_rate:.4g} t) * E(0)")
    print(f"run: {rec.n_steps} steps, {zeno['event_count']} events "
          f"(update ratio {zeno['event_count'] / rec.n_steps:.4f}), "
          f"dwell min/mean/max = {zeno['min_dwell']:.3g}/{zeno['mean_dwell']:.3g}/{zeno['max_dwell']:.3g}")
    print(f"measured: E(0)={rec.energy[0]:.4g} -> E(t_end)={rec.energy[-1]:.4g}, "
          f"delta_emp={checks['envelope']['details']['delta_emp']:.4g} (certified {cert.decay_rate:.4g})")
    for name, rep in checks.items():
        if name == "zeno":
            counts = f"{rep['floor_violations']} dwell-floor violations"
        else:
            counts = f"{rep['n_violations']} violations over {rep['n_checked']} steps"
        print(f"check {name}: {'PASS' if rep['passed'] else 'FAIL'} ({counts})")
    return code


if __name__ == "__main__":
    sys.exit(main())
