"""Golden outputs: the files that ``wavetrig simulate`` writes for a fixed set
of small configurations, pinned by sha256.

The set covers the four modes, both eta0 variants, a rectangle, initial data
loaded from ``.npy`` files and a run under a pre-built ``--certificate``.
``summary.json`` is hashed without its ``wall_clock_s`` entry.  Every run is
made in its own working directory with relative paths, so the config echo in
the summary does not depend on where the test runs.

The hashes pin the floating-point result of one numpy/OpenBLAS build on
x86-64; another BLAS kernel may sum the dot products in another order.

The ``series.csv`` and ``summary.json`` hashes were re-recorded when the
simulate loop began to take the gradient norm of every step after the first
from summation by parts, ``-w <L z, z>`` against the ``L z`` the step kernel
already holds, instead of summing the squared forward differences.  That
moved the last bits of the ``E``, ``V`` and ``norm_gradz_sq`` columns (at
most 3.3e-15 relative on these cases) and the check margins in the summary
computed from them; every other column, every ``events.csv`` and every check
verdict stayed bit-identical.

They were re-recorded again when the discrete Poincare constant came from
the closed-form smallest eigenvalue of the stencil, lowered by a 1e-12
relative margin, instead of an inverse power iteration corrected by its
residual.  C_Omega fell by 3.9e-10 relative on the interval and by 9.9e-11
on the rectangle, so every certificate number moved, and with them the
``eta0``, ``trigger_value`` and (with a cross term) ``V`` columns and the
summary.  The ``uncontrolled`` case, which builds no certificate, kept all
three hashes; every ``events.csv`` and every check verdict stayed the same.

They were re-recorded a third time when the stencil became
reciprocal-weighted neighbour sums, ``sum (back + forward) / h^2 - 2 z
sum 1/h^2``, on contiguous slices of the flat field, in place of
``(back - 2 z + forward) / h^2`` per axis on a ghost-padded copy.  The
largest change of any ``series.csv`` entry, relative to the largest
magnitude in its column, was 3.2e-14 (``norm_e_sq``; ``E``, ``V`` and
``norm_gradz_sq`` 2.0e-14, ``trigger_value`` 9.0e-15, ``norm_z_sq`` and
``norm_v_sq`` 3.7e-15; ``t``, ``eta0`` and ``event`` unchanged), and the
summary's check margins moved with them.  Every ``events.csv`` hash,
every exit code and every check verdict stayed the same, and so did the
``uncontrolled`` summary, which has no check margins.

They were re-recorded a fourth time when the ``t = 0`` row came from the
step kernel's buffers, like every other row, and the initial-data norms
behind the eta0 scale took the gradient norm by the kernel's summation by
parts, ``-w <L z, z>``, instead of summing squared forward differences.
Row 0 of ``E``, ``V`` and ``norm_gradz_sq`` moved, and every row of
``eta0`` and ``trigger_value`` with the scale; the largest change relative
to its column's largest magnitude was 4.7e-15.  ``V[0]`` still equals
``eta0[0]`` bit for bit on the ``v0`` cases.  Every ``events.csv`` hash,
every exit code and every check verdict stayed the same, and so did the
``uncontrolled`` summary.
"""

import hashlib
import json

import numpy as np
import pytest

from wavetrig.cli import main

BASE = {"domain": {"kind": "interval", "length": 1.0, "n": 49}, "t_end": 3.0}

CASES = {
    "event-triggered": {},
    "continuous-damping": {"mode": "continuous-damping"},
    "periodic-matched": {"mode": "periodic"},
    "periodic-fixed": {"mode": "periodic", "period": 0.25},
    "uncontrolled": {"mode": "uncontrolled"},
    "v0-cross": {"alpha": 2.0, "z1": {"kind": "bump"}},
    "reduced-cross": {"alpha": 2.0, "z1": {"kind": "bump"}, "design": {"eta0_variant": "reduced"}},
    "reduced": {"z0": {"kind": "bump"}, "design": {"eta0_variant": "reduced"}},
    "rectangle": {"domain": {"kind": "rectangle", "a": 1.0, "b": 0.8, "nx": 15, "ny": 11}, "t_end": 2.0},
    "file": {"alpha": 0.5, "z0": {"kind": "file", "path": "z0.npy"}, "z1": {"kind": "file", "path": "z1.npy"}},
    "certificate": {"certificate_path": "cert/certificate.json"},
}


# sha256 of (series.csv, events.csv, summary.json); every case exits 0
GOLDEN = {
    "event-triggered": (
        "f1d0fc9f72733ed471f9eab72d5f20b1c85fcccdbaf742dcbde7d53e79d42dee",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "9326dfbf4f50523681aa9a530e056fac72d58708173af92d43f451d6eb88376f",
    ),
    "continuous-damping": (
        "5cbb6623d4dd1915621a0f9c6bd2c3a229653df25e44966a1eac1cf7e1c5193c",
        "0e313f3c8fa9e124251f1475ec942a9aa3d5961c3df1b8079a0071d680df7f5e",
        "5f897666b824f9dba2f9fadf89ad95c9f5b92c955ef086e322d56c513908d2a2",
    ),
    "periodic-matched": (
        "8f09a8ebf1858625a8dc0f8e4912d14a627357605d9f8bcab11c6cb9d88b5d2b",
        "5a52610557ddb125ea48713bad019aefda2156d1074b77f49395a4915d977119",
        "e9c29cd4a42a9b632b0c79bbc6981d29e20892428a49aaf2cc86673341cc5c9c",
    ),
    "periodic-fixed": (
        "21fa72c45b734671e0f3f24d7b800706579488b687f2816103f0b86b055aa0b6",
        "4cb0363583b93983cd5faa7584c670ef905d1dbbc70d41897cb23e31561ba7cf",
        "28fd29200f74bfdaee5f641e55415095d9e08207408cd954471d15428af80baa",
    ),
    "uncontrolled": (
        "80bd00a6beeed79bd5bdfb54f09ff1287700578ece4b1fdeda954c08369f962c",
        "06296cb6887fc937be326eac6773c49c7146f672eb3e3a8cae8d839a8f05b551",
        "b491554e38337db5bb789a04143da696b8ec948ad659e08d7ea43c9e06b366b2",
    ),
    "v0-cross": (
        "b258e4631e300c9a7a69f87c35f3f5cfbebe88fa5d4e157db39a9ad38649e2bd",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "beefb3df79e2703e62512600f6ce834fd96c3f9b7887d863bd2b8d03c31dc036",
    ),
    "reduced-cross": (
        "dd8472a16ccd889943bdd542a983a93557385df55817b8a3af77880c1cbbb5af",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "289c5dbeff81ed8f29b5427a1ecd8e43e346163e1365fd89429c1108fd1e8fa6",
    ),
    "reduced": (
        "c75877707421988687fc98abc7e3900c87735e36b4e66afec442c1ba6f6427df",
        "5672aed8f0dd8da4fbafbaf2e101beec9b1c54ca44831c547c9d4de5f6067e15",
        "ae4d0deed8225aaceb3f0983598f4383df13b69afb379041977b2d74aba071ec",
    ),
    "rectangle": (
        "badf81d6cd36f75fffb65e03d7a72baec52ca8f99ff602d07c60eb9bd7305298",
        "c162191ef63f56d89da650a7ffc37dacf2dc3d37491a0df958cde249b37eddd5",
        "5e0e135ba0fd74b370515fd34b0acea47914ca86fc456e1b34700cb693b1dd30",
    ),
    "file": (
        "860ea82eb46c5cbb970e41b66a5be80d738c3d66c274e78435ff9e99e5221af7",
        "32776535309ed3bf568d6e59a9a45b0b6adaa2b7835da151a40dde8c7e1b9858",
        "b2996b4abd43972c27673bf972bf14be9deb85a6705d3a47a8d7b50cf6d7259f",
    ),
    "certificate": (
        "f1d0fc9f72733ed471f9eab72d5f20b1c85fcccdbaf742dcbde7d53e79d42dee",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "63c53d2510151c72959a4208fa876d6c6843f538c6fb344bc4a5a82e392eca20",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str) -> dict:
    """Run one case in the current directory; returns its fingerprint."""
    cfg = {**BASE, **CASES[name]}
    rng = np.random.default_rng(7)
    np.save("z0.npy", rng.standard_normal(49))
    np.save("z1.npy", rng.standard_normal(49))
    with open("config.json", "w") as fh:
        json.dump(cfg, fh)
    if "certificate_path" in cfg:
        assert main(["design", "--config", "config.json", "--out", "cert"]) == 0
    code = main(["simulate", "--config", "config.json", "--out", "run"])
    with open("run/summary.json") as fh:
        summary = json.load(fh)
    del summary["wall_clock_s"]
    with open("run/series.csv", "rb") as fh:
        series = fh.read()
    with open("run/events.csv", "rb") as fh:
        events = fh.read()
    return {
        "exit": code,
        "series": _sha(series),
        "events": _sha(events),
        "summary": _sha(json.dumps(summary, sort_keys=True).encode()),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_outputs_match_golden_hashes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_case(name)
    assert got["exit"] == 0
    assert (got["series"], got["events"], got["summary"]) == GOLDEN[name]
