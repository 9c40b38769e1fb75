"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload, a short run with --trace 0 and --trace 1 must print
exactly the metric names and units of BENCHMARK.json and fail no
operation.  A corrupted series.csv must count as a failed operation, and
a directory holding only BENCHMARK.json and perfbench/ must make run.py
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
SCRATCH = ROOT / ".perfbench_runs"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def check_metric_names(bench: dict) -> list[str]:
    errors = []
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    # every workload the benchmark can run, also those BENCHMARK.json leaves out
    sys.path.insert(0, str(HERE))
    import inputs

    for w in sorted(inputs.WORKLOADS):
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", w, "--seed", "0", "--seconds", "1", "--trace", str(trace))
            tag = f"{w} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                errors.append(f"{tag}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{tag}: metrics {got} != BENCHMARK.json {expected[trace]}")
            if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
                errors.append(f"{tag}: exit {proc.returncode}, {result['failed']} of {result['attempted']} failed")
            print(f"{tag}: {result['attempted']} attempted, {result['failed']} failed", flush=True)
    return errors


def check_corruption_fails() -> list[str]:
    """A series.csv altered between simulate and verify fails the gate."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs
    import run

    original = run._cli

    def corrupting_cli(argv):
        result = original(argv)
        if argv[0] == "simulate":
            path = Path(argv[argv.index("--out") + 1]) / "series.csv"
            lines = path.read_text().splitlines(keepends=True)
            mid = len(lines) // 2
            fields = lines[mid].split(",")
            fields[1] = f"{2.0 * float(fields[1]):.17e}"  # double the energy E
            lines[mid] = ",".join(fields)
            path.write_text("".join(lines))
        return result

    errors = []
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        inp = inputs.generate("interval-long", 0, work / "inputs")
        clean = run.cli_operation(inp, work / "clean", None)
        if clean["failures"]:
            errors.append(f"clean operation failed: {clean['failures']}")
        run._cli = corrupting_cli
        try:
            res = run.cli_operation(inp, work / "corrupt", clean["fingerprint"])
        finally:
            run._cli = original
        reasons = " | ".join(res["failures"])
        print(f"corrupted series.csv: {reasons}", flush=True)
        if "verify exited 1" not in reasons:
            errors.append("verify did not reject the corrupted series")
        if "differ from the warm-up" not in reasons:
            errors.append("the byte comparison did not flag the corrupted series")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources run.py must fail and print no result."""
    SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "interval-long", "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}", flush=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py ran without the program's sources"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_directory() + check_corruption_fails() + check_metric_names(bench)
    for e in errors:
        print("SELF-TEST FAILURE: " + e, file=sys.stderr)
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
