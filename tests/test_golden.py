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
norm_v_sq, norm_e_sq, inner_zv, event`` (an uncontrolled run then wrote no
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

The ``series.csv`` hashes of every case but ``continuous-damping`` were
re-recorded when the step kernel came to turn a block as an anchor state
times a phase table, ``exp(-i w r dt)`` for ``r = 1..T`` (``T`` is 167 on
the 49-node interval and 49 on the 15x11 rectangle; see
``dynamics._BLOCK_BYTES``), in place of one product per row.  The hashes
now also pin numpy's ``cos`` and ``sin`` of the table's angles
``r (-w dt)``.  Rounding now enters once per anchor, not once per row, so
every norm moved at rounding level, toward the exact flow.  The largest
change of any entry, relative to the largest magnitude in its column, was
2.3e-14 (``uncontrolled``, ``norm_z_sq``); by case: ``uncontrolled``
2.3e-14, ``periodic-matched`` 1.1e-14 (``trigger_value``),
``event-triggered`` and ``certificate`` 7.2e-15 (``norm_e_sq``), ``file``
7.3e-15 (``trigger_value``), ``v0-cross`` and ``reduced-cross`` 5.3e-15
(``norm_v_sq``), ``periodic-fixed`` 5.0e-15 (``norm_e_sq``), ``reduced``
4.5e-15 (``inner_zv``) and ``rectangle`` 1.9e-15 (``E``).  Continuous
damping holds at every row, so each of its rows is its own anchor and its
series did not move.  Every ``events.csv`` hash, every exit code and every
check verdict stayed the same.  The summaries of the nine cases with check
margins moved with the series.  At the same time the continuous-damping
and periodic summaries gained the gating ``schedule`` check; with that
entry taken out, the ``continuous-damping`` summary hashes to its old
value.  The ``uncontrolled`` summary, which has neither, kept its hash.

No hash moved when every block came to start at an anchor: the anchors,
the holds and every ``T``-th row after one, stayed on the same rows.

The ``summary.json`` hashes of the ten cases with a certificate were
re-recorded when the reports lost the outputs that no code read and the
empirical rate stopped calling LAPACK:

- the ``zeno`` report's ``histogram_edges`` and ``histogram_counts`` went,
  and so did the certificate's ``diagnostics.trace``;
- the envelope check's ``worst`` became the larger of its E and V ratios.
  It reads 1 on every case, because the V bound equals ``V(0)`` at
  ``t = 0``. The E ratio it held moved to ``details.e_worst``;
- ``delta_emp`` became the closed-form least-squares slope, two
  ``np.add.reduce`` sums over the centred times, in place of
  ``np.polyfit``. It moved in its last bits, at most 6.3e-15 relative
  (``file``), and ``delta_ratio`` with it.

With those entries put back as they were, each new summary hashes to its
old value. Every ``series.csv`` and ``events.csv`` hash, and the
``uncontrolled`` summary, stayed the same. With no LAPACK call left on a
run's path, the ``rectangle`` case now writes the same three files under
OpenBLAS's Haswell kernels as under the AVX-512 ones
(:func:`test_rectangle_hashes_the_same_under_the_haswell_blas_kernels`).

Every ``summary.json`` hash was re-recorded when the summary came to store
the trigger as one number.  The top-level ``eta0_scale`` replaced the
``trigger`` entry, whose ``gamma0``, ``gamma1`` and ``theta`` repeated the
certificate's, and ``event_count``, which repeated
``checks.zeno.event_count``, went.  With ``event_count`` and ``trigger``
put back and ``eta0_scale`` taken out, each new summary hashes to its old
value, the ``uncontrolled`` one (``trigger`` null) included; every
``series.csv`` and ``events.csv`` hash stayed the same.

Every ``summary.json`` hash was re-recorded when ``meta.grid`` gained
``lengths``: ``load_run`` rebuilds the run's grid from its lengths and
counts, refuses a ``meta.grid`` that is not that grid's, and checks the
certificate's ``C_Omega`` against the grid.  With ``meta.grid.lengths``
taken out, each new summary hashes to its old value, the ``uncontrolled``
one included; every ``series.csv`` and ``events.csv`` hash stayed the same.

Every ``summary.json`` hash but the ``uncontrolled`` one was re-recorded
when the envelope check came to cover all of ``[0, T]``: its details gained
``e_sup_worst``, the largest ratio of ``lyapunov.sup_energy_bound`` between
rows to the envelope.  With that one entry taken out, each new summary
hashes to its old value; every ``series.csv`` and ``events.csv`` hash
stayed the same.

The ``summary.json`` hashes were re-recorded, and the ``uncontrolled``
case's three hashes with them, when an uncontrolled run came to be
recorded as every other run is: it samples the hold once, at ``t = 0``,
with gain 0.  Its ``series.csv`` gained the ``norm_e_sq`` and ``event``
columns (``||v - z1||^2``, and one event at row 0), and its other four
columns are byte-identical to the old file's; its ``events.csv`` holds
that one event, and its summary the gating ``schedule`` check and the
``zeno`` report that it now gets.  At the same time ``meta.alpha``, a
copy of the certificate's ``alpha`` (0 for an uncontrolled run), left
every summary.  With ``meta.alpha`` put back, each controlled case's new
summary hashes to its old value; every controlled ``series.csv`` and
``events.csv`` hash stayed the same.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavetrig.cli import main, run_from_config
from wavetrig.config import load_config
from wavetrig.grid import eigenvalues, sine_transform
from wavetrig.initial import build_field
from wavetrig.lyapunov import RunRecord, sup_energy_bound
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
        "2d9b3062b65ddf398767b3150e4a2c99420cb6bbd7f5ef70db57808f49bcfac9",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "5adc6c8f5c18846c76a4bae8f9c71d2f6ea5023af79a6e3684e40d8e5001b809",
    ),
    "continuous-damping": (
        "bee3d2e45a83ca42db8fb258969439f21687176febcebb26bba9054229a89ed4",
        "0e313f3c8fa9e124251f1475ec942a9aa3d5961c3df1b8079a0071d680df7f5e",
        "1103dd534a94e32fc46a5ad68bcef23821b9a2fa86df4f143248d35bdf20be12",
    ),
    "periodic-matched": (
        "466ddcc642e9fb3ecff01040fc3c9670569f155f1bd2595db9fc7ae3542ed638",
        "5a52610557ddb125ea48713bad019aefda2156d1074b77f49395a4915d977119",
        "aa2807a6e3a0a3ea200f4755fb6269c3bcb22789f888cba696ee52bd5f7dfb27",
    ),
    "periodic-fixed": (
        "e2c51478ac171be80ac61cbf359020ce23479f3236e75d3666bc899954b1c981",
        "4cb0363583b93983cd5faa7584c670ef905d1dbbc70d41897cb23e31561ba7cf",
        "aa7db465f9d0c41b9ac641b32bf9517be38227e555a91c8b06f99fa279bcb3a8",
    ),
    "uncontrolled": (
        "101b5fbdaf39f79fc6d512d15ac69b0124f422b580038f59bd220452eb05cda4",
        "ca090ce49e7e16403bb485040576726f3ab7262057dbb0f4790509d9cd56bada",
        "a609d3f3b76c34ea95676cf2eb6825802a6977b1c254263ef4af4e0aa070ee70",
    ),
    "v0-cross": (
        "85860132844d27044d5e2feac3e7be22684db6851099e34803e553b5c1f8a97c",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "79f9a6cfafde1853fff9ec2d4d6141c4bbb2e04113dba8f2f57be6e93cc9e4ef",
    ),
    "reduced-cross": (
        "85860132844d27044d5e2feac3e7be22684db6851099e34803e553b5c1f8a97c",
        "ea9b3a0b5c6d836bef6558b698aa7b7f40f3f15a7d8578c39478770171193337",
        "23f8a559ef41a73ebbfb83afeaa6ec9ba4e3ee306c1d41ea75dcdc2d61eda724",
    ),
    "reduced": (
        "10e4d564af9ec46892ecf3553225a57eb54b131eab4369833ea8f71a1cc65f2b",
        "8dda0caab6adebffb309784ecb88b93022f08b25955da089b943fc567bdb2aa0",
        "184fd3bf9e56fcb70dc72e712abedba33353cbddb9b31ed8903d75763bcc37cc",
    ),
    "rectangle": (
        "c99203fcbb779a2e1d05ed65ea8ecd33148297f4ad95d717e288ad3b9ddc9519",
        "c162191ef63f56d89da650a7ffc37dacf2dc3d37491a0df958cde249b37eddd5",
        "75965e16ddd26bfd252645cab40042069e928c181a2841b9c0ccbbaca5aaee8e",
    ),
    "file": (
        "7954b52829f614abeb96d9a6226a8f5e99849d5413f0228eccd2498eb6fc62b4",
        "d28572d72940f585040167cd9d8ec7eaee874ea7944c73ce476c41cb7282290f",
        "8f5e6f46553465f4b14393c1653025ccd7caecd8e2308d82b0c453e9ef7236c0",
    ),
    "certificate": (
        "2d9b3062b65ddf398767b3150e4a2c99420cb6bbd7f5ef70db57808f49bcfac9",
        "307c07ebc4b51b6ac44c18b526ce3ad81c1ebffd39922c42c2b62763025aee54",
        "f806bb894ec7a63cad6e88c3c82a1901d2a330fd4ac76a65984564ef7962d6e4",
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


@pytest.mark.parametrize("name", sorted(set(CASES) - {"uncontrolled"}))
def test_sup_energy_bound_lies_above_the_exact_flow(name, tmp_path, monkeypatch):
    # between rows the hold h is constant and each mode turns in closed form
    # about its rest point p = -alpha h_hat / lam: E sampled at dt/64 stays
    # under the bound that check_envelope holds to the envelope
    monkeypatch.chdir(tmp_path)
    run_case(name)
    cfg = load_config("config.json")
    rec, _ = run_from_config(cfg)
    g = cfg.build_grid()
    lam = eigenvalues(g)
    w = np.sqrt(lam)
    zh, vh = (sine_transform(build_field(g, spec).values, g) for spec in (cfg.z0, cfg.z1))
    phase = w * rec.dt * np.arange(1, 65)[:, None] / 64  # row 63 is the next row
    cos, sin = np.cos(phase), np.sin(phase)
    bound = sup_energy_bound(rec, rec.certificate.alpha)
    for i in range(rec.n_steps):
        if rec.event[i]:
            held = vh
        p = -rec.certificate.alpha * held / lam
        z = p + (zh - p) * cos + vh / w * sin
        v = vh * cos - (zh - p) * w * sin
        energy = 0.5 * g.weight * np.sum(v * v + lam * z * z, axis=1)
        assert energy.max() <= bound[i] * (1 + 1e-12), f"step {i}"
        zh, vh = z[-1], v[-1]


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


def test_rectangle_hashes_the_same_under_the_haswell_blas_kernels(tmp_path):
    # OpenBLAS takes its Haswell kernels on a CPU without AVX-512, and they
    # round a dot product differently. The rectangle's norms agree under
    # both, so its files must too: nothing else on its path calls BLAS or
    # LAPACK. The two processes are compared with each other, not with GOLDEN.
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    env.pop("OPENBLAS_CORETYPE", None)
    script = "import json, test_golden; print(json.dumps(test_golden.run_case('rectangle')))"
    got = []
    for name, extra in (("default", {}), ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=cwd, env={**env, **extra}, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        got.append(json.loads(proc.stdout.splitlines()[-1]))
    assert got[0]["exit"] == 0
    assert got[0] == got[1]
