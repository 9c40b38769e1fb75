"""Golden outputs: the files that ``wavetrig simulate`` writes for a fixed set
of small configurations, pinned by sha256.

The set covers the four modes, both eta0 variants, a rectangle, initial data
loaded from ``.npy`` files and a run under a pre-built ``--certificate``.
``summary.json`` is hashed without its ``wall_clock_s`` entry.  Every run is
made in its own working directory with relative paths, so the config echo in
the summary does not depend on where the test runs.

The hashes pin the floating-point result of one numpy/OpenBLAS build on
x86-64; another BLAS kernel may sum the dot products in another order.
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
        "1cb73f2d7e4cc5db1c324fa89d0baf69e939fab1c6d259dee54c1fdd41d160c7",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "4d401d1764050265a7e4d0cef97d8d0d773297e508ba49052e9f8d346db31e85",
    ),
    "continuous-damping": (
        "6e9b96c129d71da5459911be1530cc5f54cb11c27e74d1ae9f9dd692413e029e",
        "0e313f3c8fa9e124251f1475ec942a9aa3d5961c3df1b8079a0071d680df7f5e",
        "20bcfabb4ce9a3ab664fa04bf67324b50a8efe31a3f396b6a402a8eaab6c4dd7",
    ),
    "periodic-matched": (
        "f3a373d59e096d33a85288aba3c6af522cd761cfc9cb4db37f90eda09b06503d",
        "5a52610557ddb125ea48713bad019aefda2156d1074b77f49395a4915d977119",
        "26378a67612982ea4b1849598a09b0d725ddac86e301d0a17dd0eee510c36c82",
    ),
    "periodic-fixed": (
        "8f9fe99499380db72d52ca2ec11611258401e41020db3980cafd2fb47d2f3b44",
        "4cb0363583b93983cd5faa7584c670ef905d1dbbc70d41897cb23e31561ba7cf",
        "84329eda82c13f6fb428b23e5274ee873f8a22753585d7cea2671af3df278f38",
    ),
    "uncontrolled": (
        "d958af19116eebc8ef254124aad592ddb5586a4eb3c8f75b5e6712344fee32a2",
        "06296cb6887fc937be326eac6773c49c7146f672eb3e3a8cae8d839a8f05b551",
        "b491554e38337db5bb789a04143da696b8ec948ad659e08d7ea43c9e06b366b2",
    ),
    "v0-cross": (
        "c078a09dca6fc54a847eb90c7372624af0c6eb302e2114d070476058bd925e87",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "62bd34bb4d08930cad4fe1ae8569c5cd5b69d40882aff38c09b4278f6b0b487f",
    ),
    "reduced-cross": (
        "5b204789504120eab39de174765e736baf5120661a65c7ad08ad4e69f0d54b17",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "09347c540cd011fade07e97aa8b4faaa8b358cf0ecda34c7fa0b41027f88a860",
    ),
    "reduced": (
        "293fef7d5c04c350a61fb90017d7a0b1dc31f8ea1a50c6b9eaf020cc762a0308",
        "5672aed8f0dd8da4fbafbaf2e101beec9b1c54ca44831c547c9d4de5f6067e15",
        "d5211b53088af8360b0b5c41aa8e143238b7956618655cabc4fcebc410f66a45",
    ),
    "rectangle": (
        "69f77b0029a0db0b3993de235599d00342268811527a7b9297f5506c1c78fc9d",
        "c162191ef63f56d89da650a7ffc37dacf2dc3d37491a0df958cde249b37eddd5",
        "0ce511c71a1b0e17c44e3b3d7ba3f66b44457e3165222fb5ecfd1df4c489ef45",
    ),
    "file": (
        "9d28dbd3ae2702b69aa265bfbcb66432c6218a90206fe36bf386b9447055f8ec",
        "32776535309ed3bf568d6e59a9a45b0b6adaa2b7835da151a40dde8c7e1b9858",
        "ffaa559aac8e71d59ea128bfc77deb53534d3cd3d2e6d049a06b601d38bbd459",
    ),
    "certificate": (
        "1cb73f2d7e4cc5db1c324fa89d0baf69e939fab1c6d259dee54c1fdd41d160c7",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "6289ee445d720c4d3c29ddac28e8abbd529c7d5c05cd39baeff18cdcf083c0be",
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
