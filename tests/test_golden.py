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

They were re-recorded a fifth time when the leapfrog gave way to the exact
flow in the stencil's sine basis: each mode turns by ``exp(-i w dt)`` per
step, every norm is a weighted dot product of sine coefficients (Parseval)
and the initial data reach that basis through numpy's pocketfft.  The
leapfrog's time error is gone, so on smooth data every norm column moved
by its O(dt^2) size: the largest change of a ``series.csv`` entry,
relative to the largest magnitude in its column, was 5.7e-3 (``norm_e_sq``
on ``rectangle``; ``trigger_value`` 5.6e-3, ``norm_v_sq`` 3.1e-3, ``E`` and
``V`` 2.7e-3, ``norm_z_sq`` and ``norm_gradz_sq`` 2.2e-3), ``eta0`` moved
in its last bits (4.6e-15) and ``t`` not at all.  Two ``events.csv``
moved: ``reduced`` (a narrow bump as z0) from 24 to 23 events, parting at
event 2 (0.25 to 0.24), and ``file`` (random nodal data, all modes up to
``w dt`` near 1, where the leapfrog's phase error is O(1)) from 146 to
148, parting at event 10 (0.22 to 0.21).  Every summary moved as well: the
envelope check reports the bound on ``V`` (``v_violations``, ``v_worst``)
and ``meta.grid`` gives ``lam1`` and ``poincare_margin``.  Every exit code
and every check verdict stayed the same, and the bound on ``V`` holds on
every case with a certificate.

The ``summary.json`` hashes of the ten cases with events were re-recorded
when the ``zeno`` report lost its ``quantization_dt`` entry, which always
repeated the run's ``dt``.  With that one entry put back, each new summary
hashes to its old value; every ``series.csv`` and ``events.csv`` hash, and
the ``uncontrolled`` summary, stayed the same.

The ``series.csv`` hashes were re-recorded once more when the file came to
hold only what the step loop computes, ``norm_z_sq, norm_gradz_sq,
norm_v_sq, norm_e_sq, inner_zv, event`` (an uncontrolled run writes no
``norm_e_sq`` and no ``event``), and ``load_run`` began to rebuild ``t``,
E, V, ``eta0`` and ``trigger_value`` from it.  The numbers did not move:
:func:`test_load_run_rebuilds_the_simulated_record` checks that every
series of the loaded record, the rebuilt ones included, is the simulated
one bit for bit.  Every ``events.csv`` and ``summary.json`` hash stayed the
same.  ``v0-cross`` and ``reduced-cross`` now share a ``series.csv``: their
eta0 variants differ only in the threshold scale, which the summary holds.

Every ``summary.json`` hash was re-recorded once more when the summary
stopped saying a fact twice.  Five keys went, each a copy of another:
``update_count`` (``event_count``), the top-level ``period``
(``meta.period``), ``delta_emp``
(``checks.envelope.details.delta_emp``), ``eta0_variant``
(``config.design.eta0_variant``) and ``meta.n_steps`` (``n_steps``).  So
did the certificate's ``diagnostics.feasibility_expansions``, which no
code read.  With those six entries put back, each new summary hashes to
its old value; every ``series.csv`` and ``events.csv`` hash stayed the
same.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wavetrig.cli import main, run_from_config
from wavetrig.config import load_config
from wavetrig.lyapunov import RunRecord
from wavetrig.runio import _parse_series, load_run

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
        "1fdb1e8d5e210aba5d8ec415e89ca585c14a6adfa1701751d5c0bb9e722a3611",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "68c24ac359425474f4ada6d5ef9d0a7d3cc5d8d6659779384592acfcfd214315",
    ),
    "continuous-damping": (
        "bee3d2e45a83ca42db8fb258969439f21687176febcebb26bba9054229a89ed4",
        "0e313f3c8fa9e124251f1475ec942a9aa3d5961c3df1b8079a0071d680df7f5e",
        "0afe652591020c9756c9c0980168ce01b26d94b334dac8dce342d8b9ab5f57ab",
    ),
    "periodic-matched": (
        "aebde1cc0bf4bb6f19d3f55712b780c3c3a12ddb461d3f2a712a3099f8065880",
        "5a52610557ddb125ea48713bad019aefda2156d1074b77f49395a4915d977119",
        "fce97979a5c2de898682752d0436d77f6628f05a8c581141812a811e55982456",
    ),
    "periodic-fixed": (
        "38e8c4b0c82c423f376ab5d55de0b7df9eae0cfaf47e5d15171b11b5622f60f9",
        "4cb0363583b93983cd5faa7584c670ef905d1dbbc70d41897cb23e31561ba7cf",
        "70c8bc45c48ca6d12c2634b3f4cfd86235b3a77b927e6f1d0b50035a2ca066dc",
    ),
    "uncontrolled": (
        "10f1ba7d2b4a7cbd0399eeb3ef6c0bd1c8b5fdc8cd7ba1b1aba8a48cd52bf7d2",
        "06296cb6887fc937be326eac6773c49c7146f672eb3e3a8cae8d839a8f05b551",
        "09c53fe308dc114672ee9bc99487aa070a458eb1529595b92b5ffefacef8529b",
    ),
    "v0-cross": (
        "1a77a0606a76a1669456b038c97a719703712b7cca967460abd0f04f1c6eacab",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "d9e1d9c3c3592ac81d901db022a29bfb71e6d24291823ab6394a2a4e4ad07d79",
    ),
    "reduced-cross": (
        "1a77a0606a76a1669456b038c97a719703712b7cca967460abd0f04f1c6eacab",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "377c378fb117dc7ad7f851a1862c1c33dc1a988d62c23fb02477bac0284b1c2d",
    ),
    "reduced": (
        "b0eb7a0246262cd7c1ba5d765cb3128b1af83bb0e18708af4334087a21d6fe49",
        "8dda0caab6adebffb309784ecb88b93022f08b25955da089b943fc567bdb2aa0",
        "8b495fcd394951b18b3d90c3d1f3252094e4084eb118a4a0883e1176234d1585",
    ),
    "rectangle": (
        "e17793e240198fcf40effb9171df773efc543e92a2096025a6fa9000bf5f9dd4",
        "c162191ef63f56d89da650a7ffc37dacf2dc3d37491a0df958cde249b37eddd5",
        "14ecb64a8f39a76e5a7a1818a4c7fbdb9b9d6ebd80f1f1ac10ff7a6ff8f14fbe",
    ),
    "file": (
        "f855a1320eb80ee948531e0e67ad55e6054c71e784677f0d1fce3a2bca47fc7e",
        "d28572d72940f585040167cd9d8ec7eaee874ea7944c73ce476c41cb7282290f",
        "c096e045d807926763a92b7b1972a1816cee7b7bebafd5c453aee41d8a508ef5",
    ),
    "certificate": (
        "1fdb1e8d5e210aba5d8ec415e89ca585c14a6adfa1701751d5c0bb9e722a3611",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "7f2d3e7af7104382ea0e377812061d8483fd27d811519c68e4df075f23befa0d",
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_load_run_rebuilds_the_simulated_record(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_case(name)
    simulated, _ = run_from_config(load_config("config.json"))
    loaded, _ = load_run("run")
    for series in RunRecord.SERIES:
        want, got = getattr(simulated, series), getattr(loaded, series)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), series


@pytest.mark.parametrize("name", sorted(CASES))
def test_series_reader_matches_loadtxt(name, tmp_path, monkeypatch):
    # np.loadtxt, which load_run used before its own reader, is the reference
    monkeypatch.chdir(tmp_path)
    run_case(name)
    columns = _parse_series(Path("run/series.csv"))
    reference = np.loadtxt("run/series.csv", delimiter=",", skiprows=1, comments=None, ndmin=2).T
    assert len(columns) == len(reference)
    for got, want in zip(columns.values(), reference):
        assert got.tobytes() == want.tobytes()
