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
        "3ebc10b34e10ddfae748b2c463f91accd45c7d991782ab81a4f0857cf9ff1679",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "a753505c86a19e8365feef2dcb5e307908c11d0e81891835cb9ff7c55191edba",
    ),
    "continuous-damping": (
        "480f6a0fa1d7b1cde1230932ff3b77d12a500cf64200e8f309a67342efac987d",
        "0e313f3c8fa9e124251f1475ec942a9aa3d5961c3df1b8079a0071d680df7f5e",
        "3112008ac335991e1c32b53240e448af3c228f2701169ad53cf12c27c8a15cd0",
    ),
    "periodic-matched": (
        "64919e3f0458124c743acc8e467fb5045aa451fd000f5dfa0bf038591cfb2ff7",
        "5a52610557ddb125ea48713bad019aefda2156d1074b77f49395a4915d977119",
        "ac786e8880450f30c5f229fa38371f97623e614df10fedfd62d38ea474c8f08f",
    ),
    "periodic-fixed": (
        "22f84125d1e610b431d30aa0822b3610635ea7cf0a462abcd5bc25d218781eae",
        "4cb0363583b93983cd5faa7584c670ef905d1dbbc70d41897cb23e31561ba7cf",
        "1eb6f43fd76be321a189a0f65013250df8b74e0cfd6738663ed2a75d6018d8fe",
    ),
    "uncontrolled": (
        "622d4d2cc59f3b3140ffef2d154b334437386bf12849cbcf3fa69853a554236b",
        "06296cb6887fc937be326eac6773c49c7146f672eb3e3a8cae8d839a8f05b551",
        "b491554e38337db5bb789a04143da696b8ec948ad659e08d7ea43c9e06b366b2",
    ),
    "v0-cross": (
        "5b1bdc6b90de9d74053b74401b155d6eeea338bd0ce023f0f99c2b0e175725e0",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "5c89d1d0ca1a7d74784219824f6195310c27c4fa55e13a59b16f2f61b59c3cee",
    ),
    "reduced-cross": (
        "b60e456d887f1b7b03f90defda6d08cd8db28c8fe914eeafeb65c7450998a7f9",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "27860a468d04a5d1f54f6452c340eb15605f2ff60877783ab03d05cecb023003",
    ),
    "reduced": (
        "facc8e57c9cd6e2bd237822198aad005da8a48b971940504f60578fdd9e64eb8",
        "5672aed8f0dd8da4fbafbaf2e101beec9b1c54ca44831c547c9d4de5f6067e15",
        "662e9490fe0f4658b9bb9efb1a5e97f1fc86ae27607555949a22315907966b7f",
    ),
    "rectangle": (
        "958bd2a2313e112e2f16efb28ce0a583b8183a470ab89c57f6b989c54fc0b678",
        "c162191ef63f56d89da650a7ffc37dacf2dc3d37491a0df958cde249b37eddd5",
        "a4cdc3e7bf3abd0e5e58091e6ef6fdfc4114806adb9d5b8fc11bcfdc40bc402a",
    ),
    "file": (
        "285cdfc358cd67594cfdd58b742b5c779fb11d460208c3ae06a64386de5d7a2f",
        "32776535309ed3bf568d6e59a9a45b0b6adaa2b7835da151a40dde8c7e1b9858",
        "ebeec933ca4c1199d4834d30de9222fdb285f60e236c5b884dee50be6faa08b8",
    ),
    "certificate": (
        "3ebc10b34e10ddfae748b2c463f91accd45c7d991782ab81a4f0857cf9ff1679",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "c2beb53de4e960eca6844ea8397afb22567c6cf75742ee71afbbdede456e6a91",
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
