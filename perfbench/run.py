"""wavetrig benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload interval-long --seed 0 --seconds 30 --trace 0

Workloads (inputs.py): ``interval-long`` (n=199 interval, 16,000 steps),
``rect-127`` (127x127 rectangle, 1,811 steps) and ``sweep-16`` (4 alphas x
4 lengths at n=99; 12 feasible cells, 4 refused).  BENCHMARK.json leaves
``sweep-16`` out: its 2-thread pool follows the load on the other core,
which the reference loop below does not see, and its throughput spread
20-26% from run to run.  It runs by name, for the sweep path.

One operation drives the CLI in-process through ``wavetrig.cli.main``:
``simulate`` into a run directory, then ``verify`` of it; for ``sweep-16``
the whole ``sweep`` plus ``verify`` of every feasible cell.  The verify
calls repeat until 0.4 s of verify time has accrued.  The first
operation is a warm-up whose outputs are the reference for the byte
comparison; operations then repeat until ``--seconds`` have passed.  Set-up
is timed apart, in fresh interpreters (probe.py).

``--trace 0`` prints the end-to-end metrics, medians over the operations.
Throughput is given per reference-loop time (unit ``1/ref``, see
``reference_s``): steps or rows done in the time the machine takes for
that fixed loop, timed next to each call.  Wall-clock steps/s and rows/s
are printed too, but not gated.  ``setup_s`` is the probes' wall time
scaled the same way, to a machine on which the reference loop takes
REF_NOMINAL_S; the measured wall time is printed too.  ``peak_rss_mb`` is
as measured.

``--trace 1`` prints the per-layer metrics: each round runs one CLI
operation, the same work through the public calls with a span around each
(pipeline.py), and that work again with no spans; spans and self times go
to ``.perfbench_out/<workload>-seed<seed>.trace.json``.  The set-up probes
give ``wavetrig.import_s``, ``grid.poincare_s``, ``design.certificate_s`` and
``initial.build_s`` (first calls in a fresh interpreter); timed loops at the
workload's size give ``grid.*_us`` and ``dynamics.step_us``; the traced
operations give the rest, as totals per operation (summed over the cells of
a sweep).  ``cli.sweep_speedup`` is the serial public-call time of the
simulate phase over the wall time of the CLI command that does the same
work, ``cli.sweep_workers`` the threads that command started (0 without a
pool), ``cli.overhead_s`` the CLI operation's wall time minus the traced
layer spans, and ``trace.overhead_frac`` the traced over the untraced
public-call operation, minus one.

An operation fails on a non-zero exit code, a ``verify`` verdict that
disagrees with ``checks_passed`` in ``summary.json``, a ``checks_passed``
that is not true, ``series.csv``/``events.csv`` bytes that differ from the
warm-up's, or, on ``sweep-16``, a feasible-cell count other than 12.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when an operation failed and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# One process makes the load: the only threads beside the main one are the
# sweep's own pool.  BLAS pools would otherwise spread rect-127's dot
# products over both cores and leave spinning threads behind them.
# Set before numpy is first imported; probes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_ENV_AT_START = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
os.environ.update({name: "1" for name in BLAS_THREAD_VARS})

import inputs  # noqa: E402
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 8  # fresh interpreters per run; setup_s is their median
MIN_OPS = 3  # timed operations (trace rounds) per run, however short --seconds is
VERIFY_MIN_S = 0.4
# verify parses and checks one row per step whatever the grid, work that is
# bound by the interpreter, so its reference loop runs on small arrays
SERIES_REF_NODES = 199
# set-up times are scaled to a machine on which reference_s(SERIES_REF_NODES)
# takes this long; only a scale (the loop took 37-60 ms on a 2-vCPU Xeon)
REF_NOMINAL_S = 0.05
PROBE_TIMEOUT_S = 60


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _summary(xs) -> dict:
    """Median, quartiles and sample count of a list of samples."""
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = _median(xs)
    return {"median": _median(xs), "q1": q1, "q3": q3, "n": len(xs)}


# --- the program under test, driven through its CLI --------------------------


class ThreadWatch:
    """Counts the threads started while active: the sweep's worker pool."""

    def __enter__(self):
        self.idents: set[int] = set()
        threading.setprofile(self._first_call)
        return self

    def _first_call(self, frame, event, arg):
        self.idents.add(threading.get_ident())
        sys.setprofile(None)  # one call per thread is enough

    def __exit__(self, *exc):
        threading.setprofile(None)
        return False


def _cli(argv: list[str]) -> tuple[int, float, str]:
    """Run ``wavetrig.cli.main(argv)``: (exit code, wall seconds, output)."""
    import wavetrig.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = wavetrig.cli.main(argv)
    return code, time.perf_counter() - t0, buf.getvalue()


def fingerprint(out: Path, rundirs: list[Path]) -> str:
    """sha256 over each run directory's name, series.csv and events.csv."""
    h = hashlib.sha256()
    for d in sorted(rundirs):
        h.update(str(d.relative_to(out)).encode())
        h.update((d / "series.csv").read_bytes())
        h.update((d / "events.csv").read_bytes())
    return h.hexdigest()


def _verify_all(out: Path, rundirs: list[Path], res: dict):
    """Gate and verify every run directory of an operation.  The verify
    calls repeat until VERIFY_MIN_S of verify time has accrued, so that a
    short verify (21 ms on rect-127) is not one noisy sample."""
    res.update(verify_s=0.0, verify_passes=0, verified_rows=0, steps=0, series_bytes=0)
    rows, passed = {}, {}
    for d in rundirs:
        summary = json.loads((d / "summary.json").read_text())
        passed[d] = summary.get("checks_passed")
        if passed[d] is not True:
            res["failures"].append(f"{d.name}: summary.json has checks_passed = {passed[d]!r}")
        series = (d / "series.csv").read_bytes()
        rows[d] = series.count(b"\n") - 1
        res["steps"] += int(summary["n_steps"])
        res["series_bytes"] += len(series)
    while True:
        res["verify_passes"] += 1
        for d in rundirs:
            code, wall, _text = _cli(["verify", str(d)])
            res["verify_s"] += wall
            res["verified_rows"] += rows[d]
            if code not in (0, 1) or (code == 0) != passed[d]:
                res["failures"].append(f"{d.name}: verify exited {code}, summary says checks_passed = {passed[d]!r}")
        if res["verify_s"] >= VERIFY_MIN_S or res["failures"] or not rundirs:
            break
    res["fingerprint"] = fingerprint(out, rundirs)


def cli_single(inp: dict, out: Path) -> tuple[dict, list[Path]]:
    """``wavetrig simulate``: (result so far, run directories to verify)."""
    code, wall, text = _cli(["simulate", "--config", str(inp["config"]), "--out", str(out)])
    res = {"sim_s": wall, "workers": 0, "failures": []}
    if code != 0:
        res["failures"].append(f"simulate exited {code}: {text.strip()[-300:]}")
    return res, [out]


def cli_sweep(inp: dict, out: Path) -> tuple[dict, list[Path]]:
    """``wavetrig sweep``: (result so far, the cell directories it wrote).

    The sweep exits 0 even when a feasible cell fails its checks, so every
    cell's summary is read later."""
    spec = inp["spec"]
    argv = ["sweep", "--config", str(inp["config"]), "--out", str(out),
            "--alphas", ",".join(f"{a:g}" for a in spec["alphas"]),
            "--lengths", ",".join(f"{x:g}" for x in spec["lengths"])]
    with ThreadWatch() as watch:
        code, wall, text = _cli(argv)
    res = {"sim_s": wall, "workers": len(watch.idents), "failures": []}
    if code != 0:
        res["failures"].append(f"sweep exited {code}: {text.strip()[-300:]}")
    with open(out / "sweep.csv") as fh:
        feasible = sum(int(line.split(",")[3]) for line in fh.readlines()[1:])
    rundirs = sorted(out.glob("cell_*"))
    if feasible != spec["feasible_cells"] or len(rundirs) != feasible:
        res["failures"].append(
            f"sweep.csv lists {feasible} feasible cells and {len(rundirs)} cell directories exist; "
            f"expected {spec['feasible_cells']}"
        )
    return res, rundirs


@dataclass
class _Sample:
    values: np.ndarray
    t: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def reference_s(nodes: int) -> float:
    """Wall time of a fixed loop that gauges how fast the machine runs at
    the moment (37-60 ms on a 2-vCPU Xeon).

    On a shared host the same work takes up to 1.5x longer from one minute
    to the next; dividing by this loop's time, taken next to each timed
    call, removes most of that.  Each iteration does the kind of work a
    simulate step does, once on a 199-node array (interpreter-bound, like
    the CSV and per-step overhead) and once on an array of the workload's
    size (array-bound on large grids): a dataclass, a ghost-padded stencil,
    a finiteness check, a reduction and float formatting.  It calls no
    BLAS routine and no wavetrig code, so no change to the program can
    alter it."""
    iters = max(1, round(60_000 / (38 + 0.006 * nodes)))
    arrays = [np.sin(np.linspace(0.0, np.pi, n + 2)[1:-1]) for n in (199, nodes)]
    velocities = [np.zeros(z.size) for z in arrays]
    out = []
    t0 = time.perf_counter()
    for i in range(iters):
        for k, z in enumerate(arrays):
            padded = np.zeros(z.size + 2)
            padded[1:-1] = z
            velocities[k] = velocities[k] + 1e-3 * (padded[:-2] - 2.0 * z + padded[2:])
            arrays[k] = z = z + 1e-3 * velocities[k]
            sample = _Sample(z, i * 1e-3)
            if np.isfinite(sample.values).all():
                out.append(format(float((z * z).sum()), ".17e"))
    return time.perf_counter() - t0


def cli_operation(inp: dict, out: Path, expected: str | None) -> dict:
    """One gated operation, with the reference loop timed just before its
    simulate phase (at the workload's grid size) and on both sides of its
    verify phase (at SERIES_REF_NODES); an exception counts as a failure,
    not a crash."""
    op = cli_sweep if "alphas" in inp["spec"] else cli_single
    nodes = inputs.nodes(inp["spec"])
    try:
        ref_sim_s = reference_s(nodes)
        res, rundirs = op(inp, out)
        res["ref_sim_s"] = ref_sim_s
        ref_verify_s = reference_s(SERIES_REF_NODES)
        _verify_all(out, rundirs, res)
        res["ref_verify_s"] = 0.5 * (ref_verify_s + reference_s(SERIES_REF_NODES))
    except Exception:  # the benchmark must finish and count the failure
        return {"failures": [traceback.format_exc(limit=3)]}
    if expected is not None and res["fingerprint"] != expected:
        res["failures"].append("series.csv/events.csv differ from the warm-up operation's")
    return res


# --- set-up in fresh interpreters --------------------------------------------


def probe_setup(inp: dict) -> dict:
    """Start a fresh interpreter that prepares the first run (the first cell
    for a sweep).  Returns its ``spans``, ``wall`` (the time from process
    start to ready) and ``ref_s``, the reference loop timed on both sides."""
    spec = inp["spec"]
    argv = [sys.executable, str(HERE / "probe.py"), str(inp["config"])]
    if "alphas" in spec:
        argv += [repr(spec["alphas"][0]), repr(spec["lengths"][0])]
    ref_s = reference_s(SERIES_REF_NODES)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    ref_s = 0.5 * (ref_s + reference_s(SERIES_REF_NODES))
    return {"spans": json.loads(line), "wall": wall, "ref_s": ref_s}


# --- runs --------------------------------------------------------------------


def _timed_ops(inp: dict, work: Path, seconds: float, one_round) -> tuple[list, list, list]:
    """Warm-up, then rounds until ``seconds`` have passed (at least MIN_OPS),
    with SETUP_REPS set-up probes spread evenly over that time so that a
    slow spell of the machine does not land on all of them.
    Returns (CLI operation results, per-round extras, probes)."""
    warm = cli_operation(inp, work / "op0", None)
    shutil.rmtree(work / "op0", ignore_errors=True)
    expected = warm.get("fingerprint")
    ops, extras, probes = [warm], [], []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(probes) < SETUP_REPS and elapsed >= len(probes) * seconds / SETUP_REPS:
            probes.append(probe_setup(inp))
            continue
        if len(extras) >= MIN_OPS and elapsed >= seconds:
            break
        i = len(ops)
        res = cli_operation(inp, work / f"op{i}", expected)
        shutil.rmtree(work / f"op{i}", ignore_errors=True)
        ops.append(res)
        extras.append(one_round(i, res, expected))
    while len(probes) < SETUP_REPS:
        probes.append(probe_setup(inp))
    return ops, extras, probes


def untraced(inp: dict, work: Path, seconds: float) -> dict:
    ops, _, setup = _timed_ops(inp, work, seconds, lambda i, res, ref: None)
    timed = [r for r in ops[1:] if not r["failures"]]
    samples = {
        "setup_s": [p["wall"] * REF_NOMINAL_S / p["ref_s"] for p in setup],
        "setup_wall_s": [p["wall"] for p in setup],
        "simulate_steps_per_ref": [r["steps"] * r["ref_sim_s"] / r["sim_s"] for r in timed],
        "verify_rows_per_ref": [r["verified_rows"] * r["ref_verify_s"] / r["verify_s"] for r in timed],
        "simulate_steps_per_s": [r["steps"] / r["sim_s"] for r in timed],
        "verify_rows_per_s": [r["verified_rows"] / r["verify_s"] for r in timed],
        "reference_s": [r["ref_sim_s"] for r in timed],
    }
    metrics = {
        "simulate_steps_per_ref": (_median(samples["simulate_steps_per_ref"]), "1/ref"),
        "verify_rows_per_ref": (_median(samples["verify_rows_per_ref"]), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (_median(samples["setup_s"]), "s"),
    }
    wall_clock = {name: (_median(samples[name]), unit) for name, unit in
                  (("simulate_steps_per_s", "1/s"), ("verify_rows_per_s", "1/s"),
                   ("setup_wall_s", "s"), ("reference_s", "s"))}
    return {"ops": ops, "metrics": metrics, "wall_clock": wall_clock, "samples": samples}


def _per_call_us(fn, repeats: int = 7, batch_s: float = 0.01) -> float:
    """Median time of one call, from ``repeats`` batches of ~batch_s."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= batch_s / 4 or n >= 1 << 20:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return _median(times) * 1e6


def kernel_metrics(inp: dict) -> dict:
    """Grid kernels and one public ``step`` at the workload's size (the first
    cell for a sweep), plus the eigensolver residual and stencil counts
    computed from array sizes."""
    import pipeline
    from wavetrig import dynamics, grid

    spec = inp["spec"]
    cell = (spec["alphas"][0], spec["lengths"][0]) if "alphas" in spec else None
    p = pipeline.prepare(inp["config"], pipeline.Tracer(enabled=False), cell)
    g, z = p.grid, p.z0
    dt = dynamics.IntegratorConfig(t_end=p.cfg.t_end, cfl_fraction=p.cfg.cfl_fraction).resolve_dt(g)
    state = dynamics.WaveState(t=0.0, z=p.z0.copy(), v=p.z1.copy(), held=p.z1.copy(), k=0, t_k=0.0)
    m = g.num_interior
    return {
        "grid.poincare_resid": (grid.smallest_laplacian_eigenpair(g)[2], "1"),
        "grid.laplacian_us": (_per_call_us(lambda: grid.apply_laplacian(z, g)), "us"),
        "grid.h1_us": (_per_call_us(lambda: grid.h1_seminorm_sq(z, g)), "us"),
        "grid.l2_us": (_per_call_us(lambda: grid.l2_norm_sq(z, g)), "us"),
        # second differences: 4 flops a node per axis, plus the sum of axes
        "grid.laplacian_flops_computed": (float(m * (5 * g.ndim - 1)), "flop"),
        # read the field and write the result once, 8-byte floats
        "grid.laplacian_bytes_computed": (float(16 * m), "B"),
        "dynamics.step_us": (_per_call_us(lambda: dynamics.step(state, dt, p.cfg.alpha)), "us"),
    }


def traced(inp: dict, work: Path, seconds: float) -> dict:
    import pipeline

    tr = pipeline.Tracer()
    off = pipeline.Tracer(enabled=False)

    def one_round(i: int, res: dict, expected: str) -> dict:
        cli_verify_s = res.get("verify_s", 0.0) / max(1, res.get("verify_passes", 1))
        row = {"op": f"op{i}", "cli_s": res.get("sim_s", 0.0) + cli_verify_s,
               "cli_sim_s": res.get("sim_s", 0.0), "workers": res.get("workers", 0)}
        for name, tracer in (("traced", tr), ("untraced", off)):
            out = work / f"{name}{i}"
            tracer.op = f"op{i}"
            t0 = time.perf_counter()
            try:
                info = pipeline.operation(inp, out, tracer)
            except Exception:  # counted as a failed operation, like a CLI crash
                res["failures"].append(traceback.format_exc(limit=3))
                break
            row[f"{name}_s"] = time.perf_counter() - t0
            if fingerprint(out, info["rundirs"]) != expected:
                info["failures"].append(f"{name} public-call outputs differ from the CLI's")
            if name == "traced":
                row["info"] = info
                row["series_bytes"] = sum((d / "series.csv").stat().st_size for d in info["rundirs"])
            res["failures"].extend(info["failures"])
            shutil.rmtree(out, ignore_errors=True)
        return row

    ops, rounds, setup = _timed_ops(inp, work, seconds, one_round)
    for k, p in enumerate(setup):
        for name, (start, end) in p["spans"].items():
            tr.spans.append([name, start, end, None, f"setup{k}"])
    spans = tr.self_times()
    rounds = [r for r, res in zip(rounds, ops[1:]) if not res["failures"]]
    if not rounds:
        return {"ops": ops, "metrics": {}, "spans": spans}

    def per_op(name: str, prefix: str = "op") -> list[float]:
        """Total duration of the spans called ``name`` in each operation
        whose id starts with ``prefix`` (``setup`` for the probes)."""
        totals: dict[str, float] = {}
        for s in spans:
            if s["name"] == name and s["op"].startswith(prefix):
                totals[s["op"]] = totals.get(s["op"], 0.0) + s["dur"]
        return list(totals.values())

    def span_s(op: str, layers: bool) -> float:
        """Duration of an operation's layer spans (layers=True), or of its
        op.simulate span: the serial public-call time of the command."""
        return sum(s["dur"] for s in spans if s["op"] == op
                   and (not s["name"].startswith("op") if layers else s["name"] == "op.simulate"))

    info = rounds[0]["info"]
    sim_s = _median(per_op("dynamics.simulate"))
    untraced_s = _median([r["untraced_s"] for r in rounds])
    metrics = {
        "wavetrig.import_s": (_median(per_op("wavetrig.import", "setup")), "s"),
        "grid.poincare_s": (_median(per_op("grid.poincare", "setup")), "s"),
        **kernel_metrics(inp),
        "dynamics.simulate_s": (sim_s, "s"),
        "dynamics.steps": (float(info["steps"]), "count"),
        "dynamics.us_per_step": (sim_s / info["steps"] * 1e6, "us"),
        "trigger.threshold_scale_s": (_median(per_op("trigger.threshold_scale")), "s"),
        "trigger.zeno_s": (_median(per_op("trigger.zeno")), "s"),
        "trigger.events": (float(info["events"]), "count"),
        "trigger.update_ratio": (info["events"] / info["steps"], "ratio"),
        "design.certificate_s": (_median(per_op("design.certificate", "setup")), "s"),
        "design.shrink_iterations": (float(info["shrink_iterations"]), "count"),
        "initial.build_s": (_median(per_op("initial.build", "setup")), "s"),
        "lyapunov.checks_s": (_median(per_op("lyapunov.checks")), "s"),
        "lyapunov.violations": (float(max(r["info"]["violations"] for r in rounds)), "count"),
        "runio.save_s": (_median(per_op("runio.save")), "s"),
        "runio.series_bytes": (float(rounds[0]["series_bytes"]), "B"),
        "runio.load_s": (_median(per_op("runio.load")), "s"),
        "cli.sweep_workers": (float(max(r["workers"] for r in rounds)), "count"),
        "cli.sweep_speedup": (_median([span_s(r["op"], False) / r["cli_sim_s"] for r in rounds]), "ratio"),
        "cli.overhead_s": (_median([r["cli_s"] - span_s(r["op"], True) for r in rounds]), "s"),
        "trace.overhead_frac": ((_median([r["traced_s"] for r in rounds]) - untraced_s) / untraced_s, "ratio"),
    }
    return {"ops": ops, "metrics": metrics, "spans": spans}


# --- provenance and output ---------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(threads_env: str | None, ops: list[dict]) -> dict:
    import numpy
    import scipy

    workers = [r["workers"] for r in ops if "workers" in r]
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # removed from the environment so that the default path is measured
        "WAVETRIG_THREADS": "unset" if threads_env is None else f"unset (was {threads_env!r})",
        "blas_threads": {name: f"1 (was {old!r})" for name, old in BLAS_ENV_AT_START.items()},
        "sweep_workers": max(workers, default=0),
    }


def _print_metrics(metrics: dict, samples: dict):
    for name, (value, unit) in metrics.items():
        n = len(samples.get(name, ())) or 1
        print(f"{name:32s} {value:14.6g} {unit:6s} (median of {n})" if n > 1 else f"{name:32s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavetrig" / "__init__.py").is_file():
        print(f"error: no wavetrig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    threads_env = os.environ.pop("WAVETRIG_THREADS", None)
    import pipeline  # noqa: F401  imported (and byte-compiled) outside every timed region
    import wavetrig.cli  # noqa: F401

    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS_DIR))
    try:
        inp = inputs.generate(args.workload, args.seed, work / "inputs")
        result = (traced if args.trace else untraced)(inp, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = result["ops"]
    failed = [r for r in ops if r["failures"]]
    prov = provenance(threads_env, ops)
    inputs_rec = {"seed": args.seed, "sha256": inp["files"]}
    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(inp['files'])}")
    print(f"provenance {json.dumps(prov)}")
    for r in failed:
        print("FAILED: " + "; ".join(r["failures"]), file=sys.stderr)
    _print_metrics(result["metrics"], result.get("samples", {}))
    if "wall_clock" in result:
        print("wall clock, not gated (it follows the machine's speed of the moment):")
        _print_metrics(result["wall_clock"], result["samples"])
    print(f"{'fail_frac':32s} {len(failed) / len(ops):14.6g} ratio  ({len(failed)} failed of {len(ops)} attempted)")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload, "inputs": inputs_rec, "provenance": prov, "trace": args.trace,
        "seconds": args.seconds, "attempted": len(ops), "failed": len(failed),
        "failures": [r["failures"] for r in failed],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "samples": {k: {"values": v, **_summary(v)} for k, v in result.get("samples", {}).items()},
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_trace(OUT_DIR / f"{stem}.trace.json", result["spans"], prov, inputs_rec)
        print(f"spans and self times written to {OUT_DIR.name}/{stem}.trace.json")

    correct = not failed and bool(result["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def write_trace(path: Path, spans: list[dict], prov: dict, inputs_rec: dict):
    """Spans, and each layer's self time (a layer is the span name up to its
    first dot), as the median over the traced operations and, apart, over
    the set-up probes."""
    per_layer: dict[tuple[str, str], dict[str, float]] = {}
    for s in spans:
        kind = "setup" if s["op"].startswith("setup") else "operation"
        ops = per_layer.setdefault((kind, s["name"].split(".")[0]), {})
        ops[s["op"]] = ops.get(s["op"], 0.0) + s["self"]
    self_times: dict[str, dict[str, float]] = {"operation": {}, "setup": {}}
    for (kind, layer), ops in sorted(per_layer.items()):
        self_times[kind][layer] = _median(list(ops.values()))
    path.write_text(json.dumps({
        "provenance": prov, "inputs": inputs_rec, "self_time_s": self_times, "spans": spans,
    }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
