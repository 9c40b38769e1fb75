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
        "bab38169ad3f201d8e6306485ddcc5113f6291545fdadd3c172b7889b0e71e7d",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "96156242d59e51ae01809f19b8bba7c6008d0a37184f38cc46956c27e9ccab45",
    ),
    "continuous-damping": (
        "1a481202660475089ed9a8834d2058929e6edfd0d4463a3c681f1bef315d3955",
        "0e313f3c8fa9e124251f1475ec942a9aa3d5961c3df1b8079a0071d680df7f5e",
        "519c900d4b65335dea78181122dafde71514de560214fb7a1c5dda5ff1978740",
    ),
    "periodic-matched": (
        "3b3b28e04f485aeff7b7d63da31ec756ce24fdcc83f833d53825a83a7056f350",
        "5a52610557ddb125ea48713bad019aefda2156d1074b77f49395a4915d977119",
        "e760b146245389d7aa07e889225ac2323f95522cf8a91a5ddf8cc66385fedbb6",
    ),
    "periodic-fixed": (
        "f64d1bd75390b9b6c2e03084c3e64f83752696ee9368746515e0aeabbfd8cc80",
        "4cb0363583b93983cd5faa7584c670ef905d1dbbc70d41897cb23e31561ba7cf",
        "f0d4254fb4b932314d69e083558f727c58a992fa0b5b132d63aff05ad5300f62",
    ),
    "uncontrolled": (
        "6f23a61364df7b1ac89ffaa89ecb1de9a814e87e511ea2a688fce13a4f486f27",
        "06296cb6887fc937be326eac6773c49c7146f672eb3e3a8cae8d839a8f05b551",
        "b491554e38337db5bb789a04143da696b8ec948ad659e08d7ea43c9e06b366b2",
    ),
    "v0-cross": (
        "cbdf79ae9f71192f6185a907324fcb302e67b4e5767b388b07fc1b6f07429cfe",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "54afa2e538c67c487af8a9ae984cf46bbe2fe2d224828f24a8a17568b8b61e4e",
    ),
    "reduced-cross": (
        "8c9d4e12256e8eeb065f0097b77523d4336a8ad203e991e91ba04e0677dcdba2",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "f0d09d73dd11cf9f3a6aa3650e11d6349a79b9222f93d10c9601da1c0c5a2437",
    ),
    "reduced": (
        "ebdb49c772568fb1aebdff83cc1666815cb0435154a1ea0ed22acc329254eb8a",
        "5672aed8f0dd8da4fbafbaf2e101beec9b1c54ca44831c547c9d4de5f6067e15",
        "843f8de7c53c43731d2ee477f6525f3a8331ad66d157bae1fd20ff11b34f257a",
    ),
    "rectangle": (
        "83a1ec7dfaecfbf589846558ce76c2ea9fed23fa60a22d4d9b348e19d6d4c56f",
        "c162191ef63f56d89da650a7ffc37dacf2dc3d37491a0df958cde249b37eddd5",
        "2a0e8e53000567388065e594c44ac7f1fca794555730c7446243054e4f4eaab3",
    ),
    "file": (
        "8062573824d9426fd224d3afb0e3c95433e5a3e347435592b2254df5ca1bcd8e",
        "32776535309ed3bf568d6e59a9a45b0b6adaa2b7835da151a40dde8c7e1b9858",
        "ffaa559aac8e71d59ea128bfc77deb53534d3cd3d2e6d049a06b601d38bbd459",
    ),
    "certificate": (
        "bab38169ad3f201d8e6306485ddcc5113f6291545fdadd3c172b7889b0e71e7d",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "397916118255b98e3292ad3f37b707ef9b94b9ec51d24ba153fee1cd98970d2a",
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
