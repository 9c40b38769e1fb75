import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavetrig as wt
import wavetrig.cli as wavetrig_cli
import wavetrig.config as wavetrig_config
from wavetrig import runio
from wavetrig.cli import build_parser, main
from wavetrig.config import DesignSpec, RunConfig, load_config
from wavetrig.design import DesignInput, build_certificate, certified_constants
from wavetrig.dynamics import MODES, build_record
from wavetrig.errors import ConfigurationError, WavetrigError
from wavetrig.grid import C_OMEGA_SOURCES, grid_meta
from wavetrig.runio import SERIES_COLUMNS, load_run, read_certificate, save_run
from wavetrig.trigger import ETA0_VARIANTS, check_schedule, threshold_scale


def small_config(tmp_path, **overrides):
    cfg = RunConfig(
        domain={"kind": "interval", "length": 1.0, "n": 49},
        alpha=1.0,
        t_end=5.0,
        dt=None,
        cfl_fraction=0.5,
        out=str(tmp_path / "run"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return cfg, path


# -------------------------------------------------------------------- config

def test_config_round_trips_losslessly(tmp_path):
    cfg = RunConfig(
        domain={"kind": "rectangle", "a": 2.0, "b": 1.0, "nx": 9, "ny": 7},
        alpha=0.75,
        z0={"kind": "bump"},
        z1={"kind": "sine", "k": 2},
        dt=0.001,
        t_end=3.5,
        design=DesignSpec(s_gamma0=0.4, theta_margin=2.0, comega_source="user", comega_value=0.3),
        mode="periodic",
        period=0.25,
        out="elsewhere",
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alpha": 1.0, "mystery": True}))
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_config_validates_mode_and_sources():
    with pytest.raises(ConfigurationError):
        RunConfig(mode="sometimes")
    with pytest.raises(ConfigurationError):
        DesignSpec(comega_source="user")
    with pytest.raises(ConfigurationError):
        DesignSpec(eta0_variant="fancy")


@pytest.mark.parametrize("bad", [
    {"domain": {"kind": "interval", "length": 1.0, "n": "abc"}},
    {"alpha": "x"},
    {"design": {"bogus": 1}},
    {"z0": {"kind": "sine", "k": "x"}},
    {"z0": {"kind": "sine", "k": 1.5}},
    {"domain": {"kind": "interval", "length": 1.0, "n": 49.7}},
    {"domain": {"kind": "interval", "length": 1.0, "n": True}},
    {"domain": {"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 15.5, "ny": 11}},
    {"domain": {"kind": "interval", "length": True, "n": 49}},
    {"domain": {"kind": "interval", "length": "1.0", "n": 49}},
    {"domain": {"kind": "interval", "length": math.inf, "n": 49}},
    {"domain": {"kind": "rectangle", "a": True, "b": 1.0, "nx": 15, "ny": 11}},
    {"domain": {"kind": "rectangle", "a": 1.0, "b": "1.0", "nx": 15, "ny": 11}},
    {"domain": {"kind": "rectangle", "a": 1.0, "b": math.inf, "nx": 15, "ny": 11}},
    {"alpha": 0},
    {"alpha": -1},
    {"alpha": math.nan},
    {"design": {"s_gamma0": 2}},
    {"design": {"theta_margin": 0.5}},
    {"t_end": math.inf},
    {"domain": {"kind": "interval", "length": 1.0, "n": 49, "lenght": 9}},
    {"domain": {"kind": "interval", "length": 1.0, "n": 49, "nx": 15}},
    {"domain": {"kind": ["interval"], "length": 1.0, "n": 49}},
    {"z0": {"kind": "sine", "k": 1, "amplitude": 5}},
    {"z1": {"kind": "zero", "k": 2}},
    {"z1": {"kind": {"sine": 1}}},
    {"domain": {"kind": "interval", "n": 49}},
    {"z0": {"kind": "file"}},
])
def test_malformed_config_exits_64(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 64
    assert "configuration error" in capsys.readouterr().err


def test_integer_valued_float_node_counts_are_accepted():
    assert RunConfig(domain={"kind": "interval", "length": 1.0, "n": 49.0}).build_grid().counts == (49,)
    rect = RunConfig(domain={"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 15.0, "ny": 11})
    assert rect.build_grid().counts == (15, 11)


def test_cli_choices_are_the_owning_tuples():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("design", "simulate", "sweep"):
        options = sub.choices[command]._option_string_actions
        assert options["--mode"].choices is MODES
        assert options["--comega-source"].choices is C_OMEGA_SOURCES
        assert options["--eta0-variant"].choices is ETA0_VARIANTS
    assert wavetrig_config.C_OMEGA_SOURCES is C_OMEGA_SOURCES


# -------------------------------------------------------------------- design

def test_cmd_design_writes_certificate(tmp_path, capsys):
    _, path = small_config(tmp_path)
    code = main(["design", "--config", str(path), "--out", str(tmp_path / "cert")])
    assert code == 0
    cert = read_certificate(tmp_path / "cert" / "certificate.json")
    assert cert.decay_rate > 0
    assert cert.c_omega_source == "discrete"
    assert "decay_rate" in capsys.readouterr().out


def test_cmd_design_infeasible_domain_exits_2(tmp_path):
    _, path = small_config(tmp_path)
    code = main(["design", "--config", str(path), "--comega-source", "user",
                 "--comega-value", "1.5"])
    assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    (["design"], 2, "infeasible domain"),
    (["simulate"], 2, "infeasible domain"),
    (["simulate", "--mode", "uncontrolled"], 64, "counts (199,) has no CFL bound"),
], ids=["design", "simulate", "simulate-uncontrolled"])
def test_a_grid_whose_lam1_underflows_exits_with_a_documented_code(tmp_path, capsys, argv, code, message):
    # at length 1e300 the stencil's 4/h^2, and with it lam1, underflows to 0: C_Omega is
    # infinite, so no certificate exists, and an uncontrolled run has no CFL bound
    assert main([*argv, "--length", "1e300", "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_design_missing_config_exits_64(tmp_path, capsys):
    assert main(["design", "--config", str(tmp_path / "absent.json")]) == 64
    assert capsys.readouterr().err.startswith("usage error: config file not found")


def test_usage_error_exits_64():
    assert main(["simulate", "--mode", "florp"]) == 64


def _error_classes(cls=WavetrigError) -> list:
    return [cls, *(c for sub in cls.__subclasses__() for c in _error_classes(sub))]


def test_error_classes_carry_the_exit_codes_the_cli_documents():
    documented = {int(code) for code in re.findall(r"^  (\d+) ", wavetrig_cli.__doc__, re.M)}
    assert documented == {0, 1, 2, 3, 4, 5, 64, 65, 66, 73}
    assert {cls.exit_code for cls in _error_classes()} == documented - {0, 1}


@pytest.mark.parametrize("command", ["simulate", "design", "sweep"])
def test_an_out_that_cannot_be_created_exits_73(tmp_path, capsys, command):
    # a directory cannot be made under a regular file
    _, path = small_config(tmp_path, t_end=1.0)
    (tmp_path / "file").write_text("")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "file" / "x")]
    if command == "sweep":
        argv += ["--alphas", "1", "--lengths", "1"]
    assert main(argv) == 73
    assert capsys.readouterr().err.startswith(f"output error: cannot write {tmp_path / 'file' / 'x'}")


@pytest.mark.parametrize("missing", ["certificate", "run-directory", "initial-data"])
def test_missing_input_under_a_configs_directory_exits_66(tmp_path, capsys, missing):
    configs = tmp_path / "configs"
    configs.mkdir()
    z0 = {"kind": "file", "path": str(configs / "z0.npy")} if missing == "initial-data" else {"kind": "sine", "k": 1}
    _, path = small_config(tmp_path, z0=z0)
    argv = {
        "certificate": ["simulate", "--config", str(path), "--certificate", str(configs / "cert.json")],
        "run-directory": ["verify", str(configs / "run1")],
        "initial-data": ["simulate", "--config", str(path)],
    }[missing]
    assert main(argv) == 66
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("unreadable, code, label", [
    ("config", 64, "configuration error"),
    ("certificate", 65, "data format error"),
    ("summary", 65, "data format error"),
    ("initial-data", 65, "data format error"),
])
def test_unreadable_input_exits_with_its_code(sim_run, tmp_path, capsys, unreadable, code, label):
    # a file that is not UTF-8; initial data whose path is a directory
    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    (rundir / "summary.json").write_bytes(not_utf8.read_bytes())
    z0 = {"kind": "file", "path": str(tmp_path)} if unreadable == "initial-data" else {"kind": "sine", "k": 1}
    _, path = small_config(tmp_path, z0=z0, out=str(tmp_path / "out"))
    argv = {
        "config": ["simulate", "--config", str(not_utf8)],
        "certificate": ["simulate", "--config", str(path), "--certificate", str(not_utf8)],
        "summary": ["verify", str(rundir)],
        "initial-data": ["simulate", "--config", str(path)],
    }[unreadable]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(f"{label}: ")


# ------------------------------------------------------------------ simulate

@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sim")
    cfg, path = small_config(tmp_path)
    code = main(["simulate", "--config", str(path)])
    return code, cfg, tmp_path


def test_cmd_simulate_exit_and_files(sim_run):
    code, cfg, tmp_path = sim_run
    assert code == 0
    rundir = tmp_path / "run"
    assert (rundir / "series.csv").is_file()
    assert (rundir / "events.csv").is_file()
    assert (rundir / "summary.json").is_file()
    header = (rundir / "series.csv").read_text().splitlines()[0]
    assert header == ",".join(SERIES_COLUMNS)


def test_summary_contents(sim_run):
    _, cfg, tmp_path = sim_run
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["checks_passed"] is True
    assert summary["checks"]["zeno"]["event_count"] < summary["n_steps"]
    assert summary["certificate"]["decay_rate"] > 0
    assert summary["config"]["alpha"] == 1.0
    assert {"equivalence", "vdot", "envelope", "trigger-invariant", "zeno"} <= set(summary["checks"])
    # how C_Omega was bounded: 1/sqrt(lam1 (1 - margin)) on this grid
    grid = summary["meta"]["grid"]
    assert grid["lam1"] == wt.grid.eigenvalues(cfg.build_grid())[0]
    assert grid["poincare_margin"] == wt.grid.POINCARE_MARGIN
    assert summary["certificate"]["c_omega"] == 1.0 / math.sqrt(grid["lam1"] * (1.0 - grid["poincare_margin"]))


def test_cmd_verify_round_trip(sim_run, capsys):
    _, cfg, tmp_path = sim_run
    assert main(["verify", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4 and "FAIL" not in out


def test_simulate_takes_four_sine_transforms(tmp_path, monkeypatch):
    # z0 and z1 once each for the eta0 scale and once each for the step
    # kernel, whose hold starts as z1's transform with none of its own
    calls = []
    transform = wt.grid.sine_transform

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return transform(*args, **kwargs)

    monkeypatch.setattr(wt.grid, "sine_transform", counted)
    assert main(["simulate", "--t-end", "1", "--out", str(tmp_path / "run")]) == 0
    assert calls == [199] * 4


def test_envelope_line_shows_the_margin_of_a_passing_run(tmp_path, capsys):
    # worst is 1 on every passing run, the V bound being V(0) at t = 0; the
    # E ratios after the parenthesis, at the rows and with the bound between
    # them on all of [0, T], are the margins, below 1 on the default run
    assert main(["simulate", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 0
    line = re.search(r"^envelope: .*$", capsys.readouterr().out, re.M).group()
    match = re.fullmatch(r"envelope: PASS \(violations=0 worst=(\S+)\) e_worst=(\S+) at the rows, (\S+) on all of \[0, T\]", line)
    assert match, line
    details = json.loads((tmp_path / "run" / "summary.json").read_text())["checks"]["envelope"]["details"]
    assert float(match[2]) == float(f"{details['e_worst']:.3e}") < 1 == float(match[1])
    assert float(match[2]) <= float(match[3]) == float(f"{details['e_sup_worst']:.3e}") < 1


def test_cmd_verify_reproduces_saved_reports(sim_run):
    _, cfg, tmp_path = sim_run
    record, summary = load_run(tmp_path / "run")
    from wavetrig.cli import run_checks

    reports, ok = run_checks(record)
    assert ok
    saved = summary["checks"]
    for name in ("equivalence", "vdot", "envelope"):
        assert reports[name]["worst"] == saved[name]["worst"]


def test_cmd_verify_missing_dir_exits_66(tmp_path):
    assert main(["verify", str(tmp_path / "not-there")]) == 66


def _scale_column(series, name, factor, rows=slice(None)):
    """Multiply the cells of the named column of ``series`` (a series.csv) in ``rows`` by ``factor``."""
    header, *lines = series.read_text().splitlines()
    j = header.split(",").index(name)
    for i in range(len(lines))[rows]:
        cells = lines[i].split(",")
        cells[j] = format(float(cells[j]) * factor, ".17e")
        lines[i] = ",".join(cells)
    series.write_text("\n".join([header, *lines]) + "\n")


def test_cmd_verify_corrupted_energy_exits_1(tmp_path):
    cfg, path = small_config(tmp_path, out=str(tmp_path / "c-run"))
    assert main(["simulate", "--config", str(path)]) == 0
    _scale_column(tmp_path / "c-run" / "series.csv", "norm_gradz_sq", 1e3, slice(399, 400))  # E and V at one row
    assert main(["verify", str(tmp_path / "c-run")]) == 1


# column of series.csv -> the rows tripled and the checks that then fail.  Row
# 0 fixes the threshold scale, so norm_z_sq and norm_gradz_sq, the two columns
# not 0 there on this run, are tripled from row 1 on; in every row they are
# refused (test_verify_refuses_a_tripled_column_that_moves_the_threshold_scale)
TRIPLED_COLUMN_FAILS = {
    "norm_z_sq": (slice(1, None), {"equivalence", "envelope", "trigger-invariant"}),
    "norm_gradz_sq": (slice(1, None), {"vdot", "envelope"}),
    "norm_v_sq": (slice(None), {"vdot", "envelope", "trigger-invariant"}),
    "norm_e_sq": (slice(None), {"trigger-invariant"}),
    "inner_zv": (slice(None), {"equivalence"}),
}


@pytest.mark.parametrize("column, rows, fails", [(c, *v) for c, v in TRIPLED_COLUMN_FAILS.items()],
                         ids=TRIPLED_COLUMN_FAILS.keys())
def test_verify_fails_a_tripled_primitive_column(tmp_path, capsys, column, rows, fails):
    # E, V, eta0 and the predicate are rebuilt on load from what the loop
    # computes, so no derived column can be edited to hide the tamper
    assert main(["simulate", "--n", "49", "--t-end", "3", "--out", str(tmp_path / "run")]) == 0
    _scale_column(tmp_path / "run" / "series.csv", column, 3.0, rows)
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 1
    assert set(re.findall(r"^(\S+): FAIL", capsys.readouterr().out, re.M)) == fails


@pytest.mark.parametrize("column", ["norm_z_sq", "norm_gradz_sq"])
def test_verify_refuses_a_tripled_column_that_moves_the_threshold_scale(tmp_path, capsys, column):
    # the summary's eta0_scale must be V at row 0, which the tamper moves
    assert main(["simulate", "--n", "49", "--t-end", "3", "--out", str(tmp_path / "run")]) == 0
    _scale_column(tmp_path / "run" / "series.csv", column, 3.0)
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 65
    assert "eta0_scale" in capsys.readouterr().err


def test_verify_refuses_a_threshold_scale_that_is_not_positive(tmp_path, capsys):
    # row 0 given a V below 0 and the summary that V as its eta0_scale: no trigger has
    # that scale, and the run is refused as data (65), not as a configuration (64)
    rundir = tmp_path / "run"
    assert main(["simulate", "--n", "49", "--t-end", "3", "--out", str(rundir)]) == 0
    series = rundir / "series.csv"
    header, row0, *rows = series.read_text().splitlines(True)
    series.write_text(header + _cell(4, "-1.00000000000000000e+03")(row0) + "".join(rows))  # inner_zv
    summary = json.loads((rundir / "summary.json").read_text())
    z, gz, v = (float(cell) for cell in row0.split(",")[:3])
    cert = summary["certificate"]
    summary["eta0_scale"] = threshold_scale((z, v, gz, -1e3), cert["epsilon"], cert["alpha"], "v0")
    assert summary["eta0_scale"] < 0
    (rundir / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(rundir)]) == 65
    assert "eta0_scale" in capsys.readouterr().err


# The one-cell tamper census: row 150 of one column scaled by each factor of
# TAMPER_LADDER.  The bounds are each column's smallest rejected factor as
# measured; a stronger check may lower them, never raise them
TAMPER_LADDER = (1.001, 1.01, 1.1, 2.0, 10.0, 100.0, 1e4)
TAMPER_SMALLEST_REJECTED = {
    "norm_z_sq": 100.0,
    "norm_gradz_sq": 10.0,
    "norm_v_sq": 1.1,
    "norm_e_sq": 1e4,
    "inner_zv": 10.0,
}


def test_one_cell_tamper_census(tmp_path, capsys):
    rundir = tmp_path / "run"
    assert main(["simulate", "--n", "49", "--t-end", "3", "--out", str(rundir)]) == 0
    series = rundir / "series.csv"
    clean = series.read_bytes()
    codes = {}
    for column in TAMPER_SMALLEST_REJECTED:
        for factor in TAMPER_LADDER:
            series.write_bytes(clean)
            _scale_column(series, column, factor, slice(150, 151))
            codes[column, factor] = main(["verify", str(rundir)])
    capsys.readouterr()
    smallest = {c: min((f for f in TAMPER_LADDER if codes[c, f]), default=math.inf) for c in TAMPER_SMALLEST_REJECTED}
    with capsys.disabled():
        print("\ncolumn          " + "".join(f"{f:>7g}" for f in TAMPER_LADDER) + "  smallest rejected")
        for c in TAMPER_SMALLEST_REJECTED:
            print(f"{c:<16}" + "".join(f"{codes[c, f]:>7}" for f in TAMPER_LADDER) + f"  {smallest[c]:g}")
    assert set(codes.values()) <= {0, 1}  # a rejection is a failed check, never a refused file
    for column, bound in TAMPER_SMALLEST_REJECTED.items():
        assert smallest[column] <= bound, column


def test_verify_refuses_an_event_triggered_summary_without_certificate_and_trigger(sim_run, tmp_path, capsys):
    # with neither, no check would read the norms: a tripled norm_v_sq once passed
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    _scale_column(rundir / "series.csv", "norm_v_sq", 3.0)
    summary = json.loads((rundir / "summary.json").read_text())
    (rundir / "summary.json").write_text(json.dumps(dict(summary, certificate=None, eta0_scale=None)))
    assert main(["verify", str(rundir)]) == 65
    assert "lacks its certificate or eta0_scale" in capsys.readouterr().err


@pytest.mark.parametrize("mode, keys", [
    ("periodic", ("certificate",)),
    ("periodic", ("eta0_scale",)),
    ("continuous-damping", ("certificate",)),
    ("continuous-damping", ("eta0_scale",)),
    ("uncontrolled", ("certificate",)),
    ("uncontrolled", ("eta0_scale",)),
    ("uncontrolled", ("certificate", "eta0_scale")),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_verify_refuses_a_summary_whose_certificate_and_trigger_do_not_fit_its_mode(tmp_path, capsys, mode, keys):
    # a controlled run is checked against both entries (periodic's gating equivalence check reads
    # the certificate), an uncontrolled one against neither: a controlled run's entry is set to
    # null, an uncontrolled run is given the periodic run's
    for m in {"periodic", mode}:
        _, path = small_config(tmp_path, mode=m, t_end=3.0, out=str(tmp_path / m))
        assert main(["simulate", "--config", str(path)]) == 0
    periodic = json.loads((tmp_path / "periodic" / "summary.json").read_text())
    summary = json.loads((tmp_path / mode / "summary.json").read_text())
    summary.update({key: periodic[key] if mode == "uncontrolled" else None for key in keys})
    (tmp_path / mode / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / mode)]) == 65
    assert "data format error" in capsys.readouterr().err


def match_events(rundir):
    """Rewrite events.csv as save_run writes it for the edited series.csv, so that
    only the checks can refuse an edit of the event flags."""
    event = runio._parse_series(rundir / "series.csv")["event"]
    dt = json.loads((rundir / "summary.json").read_text())["dt"]
    times = (np.arange(event.size) * dt)[event == 1]
    runio.write_table(rundir / "events.csv", runio._event_table(times), ints=("k",))


def _event_flag(value):
    return lambda line: line.rsplit(",", 1)[0] + f",{value}\n"  # the event column is the last


def _first_cell(text):
    return lambda line: text + line[line.index(","):]


def _cell(column, text):
    return lambda line: ",".join(text if k == column else cell for k, cell in enumerate(line.split(",")))


# (line of series.csv, edit): line 0 is the header, line 1 row 0, the
# unconditional event at t = 0, and line -1 the last row. The file is
# rewritten with "\n" line ends, which the reader accepts; it refuses every
# cell the writer's "%.17e" and "%d" cannot have written, where np.loadtxt
# took "1.5" or " 1e0"
SERIES_TAMPERS = {
    "non-numeric": (3, lambda line: line.replace("e-", "x-", 1)),
    "ragged": (3, lambda line: line.split(",", 1)[1]),
    "comment": (3, lambda line: "#" + line),  # a comment is not a row
    "event-flag-7": (1, _event_flag(7)),
    "no-event-at-t0": (1, _event_flag(0)),
    "short-decimal": (3, _first_cell("1.5")),
    "leading-space": (3, lambda line: " " + line),
    "trailing-space": (3, lambda line: line.replace(",", " ,", 1)),
    "plus-sign": (3, lambda line: "+" + line),
    "upper-case-e": (3, lambda line: line.replace("e", "E", 1)),
    "underscore": (3, _first_cell("1_0")),
    "blank-line": (3, lambda line: "\n" + line),
    "float-event": (3, _event_flag("0.00000000000000000e+00")),
    "cut-last-line": (-1, lambda line: line[:len(line) // 2]),
    "non-utf8-header": (0, lambda line: line.replace("_", "\udcff", 1)),  # the byte 0xff
    # norm_e_sq is a sum of squares: never negative, and never NaN in a run that did not blow up
    "negative-norm": (3, _cell(3, "-1.00000000000000000e+00")),
    "nan-norm": (3, _cell(3, "nan")),
}


@pytest.mark.parametrize("row, corrupt", SERIES_TAMPERS.values(), ids=SERIES_TAMPERS.keys())
def test_cmd_verify_malformed_series_exits_65(tmp_path, row, corrupt):
    cfg, path = small_config(tmp_path, out=str(tmp_path / "m-run"))
    assert main(["simulate", "--config", str(path)]) == 0
    series = tmp_path / "m-run" / "series.csv"
    lines = series.read_text().splitlines(True)
    lines[row] = corrupt(lines[row])
    series.write_text("".join(lines), errors="surrogateescape")
    assert main(["verify", str(tmp_path / "m-run")]) == 65


# (line of events.csv, edit): line 0 is the header, line 1 the event at t = 0
EVENTS_TAMPERS = {
    "k-of-event-1-is-7": (2, _first_cell("7")),
    "t-k-of-event-1-moved": (2, _cell(1, "1.00000000000000000e+00")),
    "dwell-of-event-1-nan": (2, lambda line: line.rsplit(",", 1)[0] + ",nan\n"),
    "header-renamed": (0, lambda line: line.replace("t_k", "t")),
    "last-event-dropped": (-1, lambda line: ""),
    "last-event-twice": (-1, lambda line: line + line),
    "trailing-blank-line": (-1, lambda line: line + "\n"),
}


@pytest.mark.parametrize("row, corrupt", EVENTS_TAMPERS.values(), ids=EVENTS_TAMPERS.keys())
def test_cmd_verify_refuses_an_events_table_that_is_not_the_records(sim_run, tmp_path, capsys, row, corrupt):
    # events.csv is the event table of series.csv's flags, as save_run writes it
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    events = rundir / "events.csv"
    lines = events.read_text().splitlines(True)
    lines[row] = corrupt(lines[row])
    events.write_text("".join(lines))
    capsys.readouterr()
    assert main(["verify", str(rundir)]) == 65
    assert "is not the event table of" in capsys.readouterr().err


def test_cmd_verify_reads_events_csv_with_either_line_end_and_needs_it(sim_run, tmp_path):
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    events = rundir / "events.csv"
    events.write_bytes(events.read_bytes().replace(b"\r\n", b"\n"))
    assert main(["verify", str(rundir)]) == 0
    events.unlink()
    assert main(["verify", str(rundir)]) == 66


def test_cmd_verify_fails_a_nan_in_inner_zv(tmp_path, capsys):
    # <z, v> sums products of either sign, which can overflow to inf - inf:
    # load_run takes a NaN there, and V, built from it, fails the checks
    # that read it; no line prints a NaN next to PASS
    cfg, path = small_config(tmp_path, t_end=3.0, out=str(tmp_path / "run"))
    assert main(["simulate", "--config", str(path)]) == 0
    series = tmp_path / "run" / "series.csv"
    lines = series.read_text().splitlines(True)
    lines[151] = _cell(4, "nan")(lines[151])  # row 150
    series.write_text("".join(lines))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 1
    out = capsys.readouterr().out
    assert "equivalence: FAIL" in out
    assert not [line for line in out.splitlines() if "PASS" in line and "nan" in line]


def test_cmd_verify_accepts_the_writers_cells_with_either_line_end(tmp_path):
    # the tampers above rewrite the file with "\n" line ends: unedited, that
    # copy verifies, and so does one whose lines end in "\n" and "\r\n" by turns
    cfg, path = small_config(tmp_path, out=str(tmp_path / "run"))
    assert main(["simulate", "--config", str(path)]) == 0
    series = tmp_path / "run" / "series.csv"
    lines = series.read_bytes().split(b"\r\n")[:-1]
    series.write_bytes(b"".join(line + b"\r\n"[k % 2:] for k, line in enumerate(lines)))
    assert main(["verify", str(tmp_path / "run")]) == 0
    series.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["verify", str(tmp_path / "run")]) == 0


def test_simulate_uncontrolled_writes_the_series_of_every_mode(tmp_path):
    # every mode writes one header: an uncontrolled run holds its t = 0 sample
    # of v with gain 0, so its one event is row 0's and norm_e_sq is ||v - z1||^2
    cfg, path = small_config(tmp_path, mode="uncontrolled", out=str(tmp_path / "unc"))
    assert main(["simulate", "--config", str(path)]) == 0
    header = (tmp_path / "unc" / "series.csv").read_text().splitlines()[0]
    assert header == ",".join(SERIES_COLUMNS)
    record, _ = load_run(tmp_path / "unc")
    assert np.flatnonzero(record.event).tolist() == [0]
    assert np.isfinite(record.norm_e_sq).all() and record.norm_e_sq[0] == 0.0 and record.norm_e_sq.max() > 0
    # conservative baseline: energy drift below 1e-3 relative
    drift = np.max(np.abs(record.energy - record.energy[0])) / record.energy[0]
    assert drift < 1e-3


def test_verify_checks_an_uncontrolled_runs_schedule_and_dwell(tmp_path, capsys):
    # the hold is sampled at t = 0 alone: verify gates that schedule and reports one event
    _, path = small_config(tmp_path, mode="uncontrolled", t_end=3.0)
    assert main(["simulate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "schedule: PASS" in out and "zeno: PASS (events=1 " in out
    # a copy with a second event, at row 200, rebuilt and saved as a run is: its schedule fails
    record, _ = load_run(tmp_path / "run")
    columns = {name: getattr(record, name).copy() for name in SERIES_COLUMNS}
    columns["event"][200] = True
    save_run(build_record(columns, None, None, "uncontrolled", record.dt, record.meta), tmp_path / "extra")
    assert main(["verify", str(tmp_path / "extra")]) == 1
    assert "schedule: FAIL (violations=1 worst=2.000e+00)" in capsys.readouterr().out


def test_verify_refuses_an_uncontrolled_run_without_the_hold_columns(tmp_path, capsys):
    # an uncontrolled run was once written without norm_e_sq and event; no reader keeps that layout
    _, path = small_config(tmp_path, mode="uncontrolled", t_end=1.0)
    assert main(["simulate", "--config", str(path)]) == 0
    series = tmp_path / "run" / "series.csv"
    rows = [line.split(",") for line in series.read_text().splitlines()]
    series.write_text("".join(",".join(row[:3] + row[4:5]) + "\r\n" for row in rows))
    assert series.read_text().splitlines()[0] == "norm_z_sq,norm_gradz_sq,norm_v_sq,inner_zv"
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 65
    assert "unexpected series header" in capsys.readouterr().err


# each fails at once: 4.26 PiB of rows (beyond the address space), more rows than an array
# may have, and a step count that overflows
@pytest.mark.parametrize("flags", [
    ["--t-end", "1e12"], ["--dt", "1e-300", "--t-end", "1"], ["--dt", "1e-320", "--t-end", "1e300"],
], ids=["4.26-PiB", "beyond-max-dimension", "overflowing-count"])
def test_a_horizon_that_cannot_be_recorded_is_refused_before_anything_is_written(tmp_path, capsys, flags):
    out = tmp_path / "h"
    assert main(["simulate", *flags, "--n", "49", "--out", str(out)]) == 64
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reports_a_horizon_that_cannot_be_recorded_as_a_failed_cell(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--alphas", "1", "--lengths", "1", "--t-end", "1e12", "--n", "49", "--out", str(out)]) == 1
    assert "cell alpha=1 L=1 failed: the 100000000000001 rows" in capsys.readouterr().err
    assert len((out / "sweep.csv").read_text().splitlines()) == 2
    assert not (out / "cell_a1_L1").exists()


def test_simulate_degenerate_data_exits_5(tmp_path):
    cfg, path = small_config(tmp_path, z0={"kind": "zero"}, z1={"kind": "zero"})
    assert main(["simulate", "--config", str(path)]) == 5


def test_simulate_blowup_exits_4(tmp_path):
    # hold-based damping far beyond 2/dt destabilizes the explicit scheme
    cfg, path = small_config(tmp_path, mode="continuous-damping", alpha=5000.0)
    assert main(["simulate", "--config", str(path)]) == 4


def test_simulate_with_preloaded_certificate(tmp_path):
    cfg, path = small_config(tmp_path)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    code = main([
        "simulate", "--config", str(path),
        "--certificate", str(tmp_path / "cert" / "certificate.json"),
        "--out", str(tmp_path / "pre"),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "pre" / "summary.json").read_text())
    assert summary["certificate"]["c_omega_source"] == "discrete"


@pytest.mark.parametrize("flags", [[], ["--mode", "uncontrolled"], ["--mode", "periodic", "--period", "0.1"], "given"],
                         ids=["default", "uncontrolled", "periodic", "given-certificate"])
def test_set_up_is_the_set_up_that_simulate_records(tmp_path, flags):
    # config.set_up is the one statement of a run's grid, certificate and dt,
    # for simulate and for verify's echo check alike
    if flags == "given":
        assert main(["design", "--out", str(tmp_path / "cert")]) == 0
        flags = ["--certificate", str(tmp_path / "cert" / "certificate.json")]
    out = tmp_path / "run"
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cfg = RunConfig.from_dict(summary["config"])
    given = read_certificate(cfg.certificate_path) if cfg.certificate_path else None
    grid, cert, integ = wavetrig_config.set_up(cfg, given)
    assert grid_meta(grid) == summary["meta"]["grid"]
    stored = summary["certificate"]
    assert (cert is None) == (stored is None) == (cfg.mode == "uncontrolled")
    assert cert is None or cert.to_dict() == stored
    assert integ.resolve_dt(grid) == summary["dt"]


@pytest.mark.parametrize("overrides, flags, code, message", [
    ({"domain": {"kind": "interval", "length": 1.0, "n": 1}}, ["--certificate", "missing.json"], 66, "certificate file"),
    ({"t_end": -1.0}, [], 64, "horizon must be positive"),
    ({"domain": {"kind": "interval", "length": 5.0, "n": 19}}, [], 2, "requires C_Omega < sqrt(2)"),
], ids=["certificate-before-domain", "horizon-before-initial-data", "design-before-initial-data"])
def test_simulate_reports_the_first_fault_of_its_set_up(tmp_path, capsys, overrides, flags, code, message):
    # config.set_up runs before the initial data is read, and a controlled
    # run's --certificate file is read before set_up
    cfg, path = small_config(tmp_path, z0={"kind": "file", "path": str(tmp_path / "missing.npy")}, **overrides)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), *flags, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_certificate_for_another_alpha(tmp_path):
    cfg, path = small_config(tmp_path)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    code = main([
        "simulate", "--config", str(path), "--alpha", "4",
        "--certificate", str(tmp_path / "cert" / "certificate.json"),
        "--out", str(tmp_path / "a4"),
    ])
    assert code == 64
    assert not (tmp_path / "a4").exists()


def test_simulate_refuses_certificate_for_another_grid(tmp_path, capsys):
    # designed for length 0.3 (C_Omega 0.0955); the length 1 run needs 0.318
    cfg, path = small_config(tmp_path)
    assert main(["design", "--config", str(path), "--length", "0.3", "--out", str(tmp_path / "cert")]) == 0
    code = main([
        "simulate", "--config", str(path), "--length", "1",
        "--certificate", str(tmp_path / "cert" / "certificate.json"),
        "--out", str(tmp_path / "L1"),
    ])
    assert code == 64
    assert "does not fit this run" in capsys.readouterr().err
    assert not (tmp_path / "L1").exists()


@pytest.mark.parametrize("option", [["--n", "31"], ["--length", "2"]], ids=["n", "length"])
def test_interval_overrides_on_a_rectangle_config_exit_64(tmp_path, capsys, option):
    # they would put the default interval in place of the configured rectangle
    cfg, path = small_config(tmp_path, domain={"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 15, "ny": 15})
    assert main(["simulate", "--config", str(path), *option]) == 64
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("c_omega_scale, code", [(1.0, 0), (1.5, 0), (1 - 1e-9, 64)],
                         ids=["equal", "larger", "smaller"])
def test_simulate_user_certificate_needs_at_least_the_discrete_c_omega(tmp_path, c_omega_scale, code):
    # design refuses the smaller C_Omega itself, so that certificate is written
    # as design would have written it, for simulate --certificate to refuse
    cfg, path = small_config(tmp_path)
    c = c_omega_scale * wt.discrete_poincare_constant(cfg.build_grid())
    cfg.design.comega_source = "user"
    cfg.design.comega_value = c
    (tmp_path / "user.json").write_text(json.dumps(cfg.to_dict()))
    assert main(["design", "--config", str(tmp_path / "user.json"), "--out", str(tmp_path / "cert")]) == code
    if code:
        runio.write_certificate(build_certificate(DesignInput(cfg.alpha, c, "user")), tmp_path / "cert" / "certificate.json")
    got = main([
        "simulate", "--config", str(path),
        "--certificate", str(tmp_path / "cert" / "certificate.json"),
        "--out", str(tmp_path / "u"),
    ])
    assert got == code
    assert (tmp_path / "u").exists() == (code == 0)


def test_simulate_accepts_a_certificate_with_the_old_feasibility_diagnostic(tmp_path):
    # certificate.json files written before diagnostics.feasibility_expansions went still load
    cfg, path = small_config(tmp_path)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    cert_path = tmp_path / "cert" / "certificate.json"
    cert = json.loads(cert_path.read_text())
    cert["diagnostics"]["feasibility_expansions"] = {
        "gamma0_coeff_alpha_sq_minus_2": 1.9, "gamma0_coeff_minus_alpha_sq_plus_2": 1.8,
    }
    cert_path.write_text(json.dumps(cert))
    assert main(["simulate", "--config", str(path), "--certificate", str(cert_path), "--out", str(tmp_path / "c")]) == 0


def _resealed(cert: dict, **point) -> dict:
    """``cert`` moved to another design point, with theta and every derived
    number recomputed, so that only the admissibility checks can refuse it."""
    d = dict(cert, **point)
    args = [d[k] for k in ("alpha", "c_omega", "gamma0", "gamma1", "epsilon")]
    free = certified_constants(*args, math.inf)
    d["theta"] = 1.5 * free["beta"] / free["c2"]
    return {**d, **certified_constants(*args, d["theta"])}


CERTIFICATE_TAMPERS = {
    "decay-x50": lambda c: dict(c, decay_rate=50 * c["decay_rate"], overshoot=1.01),
    "gamma1-at-sup": lambda c: _resealed(c, gamma0=0.1, gamma1=0.5, epsilon=0.1),
    "theta-at-floor": lambda c: dict(c, theta=c["beta"] / c["c2"]),
    # consistent with the stored margins, but theta - beta/c2 is 0 once re-derived
    "theta-at-rederived-floor": lambda c: dict(
        c, nu0=c["beta"] / 2, nu1=c["beta"] / 2, beta=c["beta"] / 2, theta=c["beta"] / c["c2"]
    ),
    "missing-key": lambda c: {k: v for k, v in c.items() if k != "mu"},
    "unknown-source": lambda c: dict(c, c_omega_source="bogus"),
    # admissible, and every number consistent with the moved gamma0, but not what design makes
    "gamma0-x0.9-resealed": lambda c: _resealed(c, gamma0=0.9 * c["gamma0"]),
}


@pytest.mark.parametrize("tamper", CERTIFICATE_TAMPERS.values(), ids=CERTIFICATE_TAMPERS.keys())
def test_simulate_refuses_a_tampered_certificate(tmp_path, capsys, tamper):
    cfg, path = small_config(tmp_path)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    cert_path = tmp_path / "cert" / "certificate.json"
    cert_path.write_text(json.dumps(tamper(json.loads(cert_path.read_text()))))
    code = main(["simulate", "--config", str(path), "--certificate", str(cert_path), "--out", str(tmp_path / "t")])
    assert code == 65
    assert "data format error" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("tamper", CERTIFICATE_TAMPERS.values(), ids=CERTIFICATE_TAMPERS.keys())
def test_verify_refuses_a_tampered_certificate_in_the_summary(sim_run, tmp_path, capsys, tamper):
    _, cfg, run_root = sim_run
    rundir = shutil.copytree(run_root / "run", tmp_path / "run")
    summary = json.loads((rundir / "summary.json").read_text())
    summary["certificate"] = tamper(summary["certificate"])
    (rundir / "summary.json").write_text(json.dumps(summary))
    assert main(["verify", str(rundir)]) == 65
    assert "data format error" in capsys.readouterr().err


def _old_trigger(s: dict) -> dict:
    """The trigger block that a summary carried before the threshold scale was stored alone."""
    return dict({k: s["certificate"][k] for k in ("gamma0", "gamma1", "theta")}, eta0_scale=s["eta0_scale"])


def _redesigned(s: dict, source: str) -> dict:
    """The summary with its certificate designed by ``source`` for 0.999 times its
    C_Omega and eta0_scale refitted to it: consistent with everything but the grid."""
    c = s["certificate"]
    cert = build_certificate(DesignInput(c["alpha"], 0.999 * c["c_omega"], source))
    record, _ = load_run(s["config"]["out"])  # the untouched run
    row0 = tuple(float(getattr(record, name)[0]) for name in ("norm_z_sq", "norm_v_sq", "norm_gradz_sq", "inner_zv"))
    scale = threshold_scale(row0, cert.epsilon, cert.alpha, s["config"]["design"]["eta0_variant"])
    return dict(s, certificate=cert.to_dict(), eta0_scale=scale)


def _grid_meta(s: dict, **changes) -> dict:
    """The summary with ``meta.grid`` changed: a key set, or removed where its value is None."""
    grid = {k: v for k, v in dict(s["meta"]["grid"], **changes).items() if v is not None}
    return dict(s, meta=dict(s["meta"], grid=grid))


def _echo(s: dict, key: str, value) -> dict:
    """The summary with ``key`` of its config echo, "section.key" when nested, set to ``value``."""
    section, _, name = key.rpartition(".")
    config = json.loads(json.dumps(s["config"]))
    (config[section] if section else config)[name] = value
    return dict(s, config=config)


SUMMARY_TAMPERS = {
    "not-an-object": lambda s: [1, 2],
    "empty-certificate": lambda s: dict(s, certificate={}),
    "unknown-mode": lambda s: dict(s, mode="bogus-mode"),
    "no-mode": lambda s: {k: v for k, v in s.items() if k != "mode"},
    # relabelled uncontrolled, it still carries its certificate and eta0_scale
    "uncontrolled-with-event-columns": lambda s: dict(s, mode="uncontrolled"),
    "no-dt": lambda s: {k: v for k, v in s.items() if k != "dt"},
    "dt-string": lambda s: dict(s, dt=str(s["dt"])),
    "dt-bool": lambda s: dict(s, dt=True),
    "dt-zero": lambda s: dict(s, dt=0.0),
    "dt-negative": lambda s: dict(s, dt=-s["dt"]),
    "dt-beyond-float": lambda s: dict(s, dt=10 ** 400),
    "dt-tripled": lambda s: dict(s, dt=3 * s["dt"]),
    "n-steps-one-more": lambda s: dict(s, n_steps=s["n_steps"] + 1),
    "n-steps-one-less": lambda s: dict(s, n_steps=s["n_steps"] - 1),
    "n-steps-float": lambda s: dict(s, n_steps=float(s["n_steps"])),
    "no-n-steps": lambda s: {k: v for k, v in s.items() if k != "n_steps"},
    "no-meta": lambda s: {k: v for k, v in s.items() if k != "meta"},
    "t-end-string": lambda s: dict(s, meta=dict(s["meta"], t_end=str(s["meta"]["t_end"]))),
    "t-end-beyond-float": lambda s: dict(s, meta=dict(s["meta"], t_end=10 ** 400)),
    "t-end-doubled": lambda s: dict(s, meta=dict(s["meta"], t_end=2 * s["meta"]["t_end"])),
    "t-end-halved": lambda s: dict(s, meta=dict(s["meta"], t_end=s["meta"]["t_end"] / 2)),
    # an event-triggered run is checked against both
    "certificate-null": lambda s: dict(s, certificate=None),
    "eta0-scale-null": lambda s: dict(s, eta0_scale=None),
    # the trigger is the certificate's weights with the threshold scale, which is V at row 0, to the last bit
    "eta0-scale-string": lambda s: dict(s, eta0_scale=str(s["eta0_scale"])),
    "eta0-scale-bool": lambda s: dict(s, eta0_scale=True),
    "eta0-scale-negative": lambda s: dict(s, eta0_scale=-s["eta0_scale"]),
    "eta0-scale-nan": lambda s: dict(s, eta0_scale=math.nan),
    "eta0-scale-times-0.99": lambda s: dict(s, eta0_scale=0.99 * s["eta0_scale"]),
    "eta0-scale-one-ulp-more": lambda s: dict(s, eta0_scale=math.nextafter(s["eta0_scale"], math.inf)),
    # a summary written before the scale was stored alone: its trigger block is not read
    "eta0-scale-missing-old-trigger": lambda s: dict(
        {k: v for k, v in s.items() if k != "eta0_scale"}, trigger=_old_trigger(s)
    ),
    # the certificate's C_Omega is its grid's by its source, and the grid is the one meta.grid names
    "c-omega-0.999-discrete": lambda s: _redesigned(s, "discrete"),
    "c-omega-0.999-user": lambda s: _redesigned(s, "user"),
    "lam1-one-ulp-more": lambda s: _grid_meta(s, lam1=math.nextafter(s["meta"]["grid"]["lam1"], math.inf)),
    "spacing-one-ulp-more": lambda s: _grid_meta(
        s, spacings=[math.nextafter(h, math.inf) for h in s["meta"]["grid"]["spacings"]]
    ),
    "lengths-missing": lambda s: _grid_meta(s, lengths=None),
    **{
        f"grid-without-{key}": lambda s, key=key: _grid_meta(s, **{key: None})
        for key in ("counts", "spacings", "lam1", "poincare_margin")
    },
    "count-string": lambda s: _grid_meta(s, counts=[str(n) for n in s["meta"]["grid"]["counts"]]),
    "no-grid": lambda s: dict(s, meta={k: v for k, v in s["meta"].items() if k != "grid"}),
    # its lam1 underflows to 0, so it has no Poincare constant to fit
    "grid-of-length-1e300": lambda s: dict(
        s, meta=dict(s["meta"], grid=grid_meta(wt.build_grid(wt.Interval(1e300, 49))))
    ),
    # its h^2 underflows to 0: no grid has those lengths
    "grid-of-length-1e-200": lambda s: _grid_meta(s, lengths=[1e-200]),
    # the config echo names the run's grid and designs its certificate
    "echo-s-gamma0-0.4": lambda s: _echo(s, "design.s_gamma0", 0.4),
    "echo-theta-margin-2": lambda s: _echo(s, "design.theta_margin", 2.0),
    "echo-comega-source-closed-form": lambda s: _echo(s, "design.comega_source", "dirichlet-closed-form"),
    "echo-n-one-more": lambda s: _echo(s, "domain.n", s["config"]["domain"]["n"] + 1),
    "echo-alpha-2": lambda s: _echo(s, "alpha", 2.0),
    "echo-s-gamma0-1.5": lambda s: _echo(s, "design.s_gamma0", 1.5),
    "echo-unknown-key": lambda s: _echo(s, "bogus", 1),
    "echo-a-list": lambda s: dict(s, config=[1]),
    # and sets up its mode, horizon, dt, the period it names and the eta0 variant of its threshold scale
    "echo-t-end-99": lambda s: _echo(s, "t_end", 99.0),
    "echo-mode-periodic": lambda s: _echo(s, "mode", "periodic"),
    "echo-dt-0.001": lambda s: _echo(s, "dt", 0.001),
    "echo-period-0.5": lambda s: _echo(s, "period", 0.5),
    "echo-cfl-fraction-0.25": lambda s: _echo(s, "cfl_fraction", 0.25),
    "echo-eta0-variant-reduced": lambda s: _echo(s, "design.eta0_variant", "reduced"),
    # relabelled periodic with a positive period, the echo left as it was
    "periodic-period-0.5-echo-unedited": lambda s: dict(s, mode="periodic", meta=dict(s["meta"], period=0.5)),
    # the event-triggered run relabelled periodic: a periodic run needs a positive period
    **{
        f"periodic-period-{label}": lambda s, p=p: dict(s, mode="periodic", meta=dict(s["meta"], period=p))
        for label, p in (("null", None), ("zero", 0), ("negative", -1), ("string", "0.5"), ("bool", True))
    },
}


@pytest.mark.parametrize("tamper", SUMMARY_TAMPERS.values(), ids=SUMMARY_TAMPERS.keys())
def test_verify_refuses_a_malformed_summary(sim_run, tmp_path, capsys, tamper):
    _, cfg, run_root = sim_run
    rundir = shutil.copytree(run_root / "run", tmp_path / "run")
    summary = json.loads((rundir / "summary.json").read_text())
    (rundir / "summary.json").write_text(json.dumps(tamper(summary)))
    assert main(["verify", str(rundir)]) == 65
    assert "data format error" in capsys.readouterr().err


def _without_echo(s):
    """The summary with its config echo removed, as perfbench writes summaries."""
    return {k: v for k, v in s.items() if k != "config"} if isinstance(s, dict) else s


# the tampers that edit the echo, and so leave a summary with none as it was; and
# a relabel that only the echo contradicts: with no echo the relabelled run is read
# as a periodic one, and fails its schedule check
ECHO_TAMPERS = {name for name in SUMMARY_TAMPERS if name.startswith("echo-")}
ECHO_ONLY_RELABEL = "periodic-period-0.5-echo-unedited"


@pytest.mark.parametrize("name", [name for name in SUMMARY_TAMPERS if name not in ECHO_TAMPERS])
def test_verify_refuses_a_malformed_summary_with_no_echo(sim_run, tmp_path, capsys, name):
    # the same edits on a summary with no config echo: config.set_up is given its own keys
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    summary = json.loads((rundir / "summary.json").read_text())
    (rundir / "summary.json").write_text(json.dumps(_without_echo(SUMMARY_TAMPERS[name](summary))))
    if name == ECHO_ONLY_RELABEL:
        assert main(["verify", str(rundir)]) == 1
        return
    assert main(["verify", str(rundir)]) == 65
    assert "data format error" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, key", [("n-steps-one-more", "n_steps"), ("lam1-one-ulp-more", "meta.grid")])
@pytest.mark.parametrize("echo", [True, False], ids=["echo", "no-echo"])
def test_a_refused_set_up_names_its_key_and_what_set_the_run_up(sim_run, tmp_path, capsys, tamper, key, echo):
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    summary = SUMMARY_TAMPERS[tamper](json.loads((rundir / "summary.json").read_text()))
    (rundir / "summary.json").write_text(json.dumps(summary if echo else _without_echo(summary)))
    assert main(["verify", str(rundir)]) == 65
    err = capsys.readouterr().err
    assert f"summary {key} of" in err and ("its config echo" if echo else "its own keys") in err


@pytest.mark.parametrize("overrides", [
    *({"mode": mode} for mode in MODES),
    {"domain": {"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 15, "ny": 15}},
], ids=[*MODES, "rect-15x15"])
def test_a_run_whose_summary_has_no_echo_verifies(tmp_path, overrides):
    _, path = small_config(tmp_path, t_end=3.0, **overrides)
    assert main(["simulate", "--config", str(path)]) == 0
    summary_path = tmp_path / "run" / "summary.json"
    summary_path.write_text(json.dumps(_without_echo(json.loads(summary_path.read_text()))))
    assert main(["verify", str(tmp_path / "run")]) == 0


def test_verify_refuses_a_tripled_dt_in_a_summary_with_no_echo(sim_run, tmp_path, capsys):
    # dt and meta.t_end tripled, and events.csv rewritten on the tripled time axis, so
    # that n_steps, the row count and the event table all agree: the run's own grid
    # does not allow that dt at any CFL fraction, so the time axis is refused, not checked
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    record, summary = load_run(rundir)
    summary = _without_echo(summary)
    summary["dt"] *= 3
    summary["meta"]["t_end"] *= 3
    (rundir / "summary.json").write_text(json.dumps(summary))
    runio.write_table(rundir / "events.csv", runio._event_table(np.flatnonzero(record.event) * summary["dt"]), ints=("k",))
    assert main(["verify", str(rundir)]) == 65
    assert "exceeds cfl_fraction * cfl_max_dt" in capsys.readouterr().err


def test_verify_checks_the_echo_of_a_run_given_no_certificate(tmp_path, capsys):
    # a --certificate run's certificate is not what its config designs, so its
    # echo's design is not compared; without certificate_path the same edit
    # exits 65, and a summary with no echo (perfbench's) is set up from its own keys
    cfg, path = small_config(tmp_path, t_end=1.0)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    cert = str(tmp_path / "cert" / "certificate.json")
    assert main(["simulate", "--config", str(path), "--certificate", cert, "--out", str(tmp_path / "pre")]) == 0
    summary_path = tmp_path / "pre" / "summary.json"
    s = json.loads(summary_path.read_text())
    for key, value in (("design.s_gamma0", 0.4), ("design.theta_margin", 2.0), ("design.comega_source", "wirtinger")):
        s = _echo(s, key, value)
    summary_path.write_text(json.dumps(s))
    assert main(["verify", str(tmp_path / "pre")]) == 0
    summary_path.write_text(json.dumps(_echo(s, "certificate_path", None)))
    assert main(["verify", str(tmp_path / "pre")]) == 65
    assert "config echo" in capsys.readouterr().err
    summary_path.write_text(json.dumps({k: v for k, v in s.items() if k != "config"}))
    assert main(["verify", str(tmp_path / "pre")]) == 0


@pytest.mark.parametrize("key, value", [("t_end", 99.0), ("design.eta0_variant", "reduced")], ids=["t-end-99", "reduced"])
def test_verify_checks_the_set_up_of_a_run_given_a_certificate(tmp_path, capsys, key, value):
    # the stored certificate stands in for the file the echo names; the rest of the set-up is compared
    cfg, path = small_config(tmp_path, t_end=1.0)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    cert = str(tmp_path / "cert" / "certificate.json")
    assert main(["simulate", "--config", str(path), "--certificate", cert, "--out", str(tmp_path / "pre")]) == 0
    assert main(["verify", str(tmp_path / "pre")]) == 0
    summary_path = tmp_path / "pre" / "summary.json"
    summary_path.write_text(json.dumps(_echo(json.loads(summary_path.read_text()), key, value)))
    assert main(["verify", str(tmp_path / "pre")]) == 65
    assert "data format error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["design", "simulate"])
def test_a_user_c_omega_below_the_grids_is_refused_before_anything_is_written(tmp_path, capsys, command):
    # 0.1 is under the n = 49 grid's discrete 0.318: a certificate designed from it certifies nothing
    out = tmp_path / "u"
    code = main([command, "--comega-source", "user", "--comega-value", "0.1", "--n", "49", "--t-end", "1", "--out", str(out)])
    assert code == 64
    assert "does not fit this run" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reports_a_user_c_omega_below_the_grids_as_a_failed_cell(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--alphas", "1", "--lengths", "1", "--comega-source", "user", "--comega-value", "0.1",
        "--n", "49", "--t-end", "1", "--out", str(out),
    ])
    assert code == 1
    assert "does not fit this run" in capsys.readouterr().err
    assert (out / "sweep.csv").read_text().splitlines()[1].split(",")[2:4] == ["1.00000000000000006e-01", "0"]
    assert not (out / "cell_a1_L1").exists()


def test_a_wirtinger_run_fails_its_checks_on_simulate_and_verify(tmp_path, capsys):
    # the undersized constant is the grid's by its source: the run is set up and
    # written, and its checks fail, rather than its data being refused
    _, path = small_config(tmp_path, t_end=1.0)
    assert main(["simulate", "--config", str(path), "--comega-source", "wirtinger"]) == 1
    assert main(["verify", str(tmp_path / "run")]) == 1
    assert "equivalence: FAIL" in capsys.readouterr().out


def test_verify_accepts_a_summary_with_the_keys_that_repeated_others(sim_run, tmp_path, capsys):
    # summaries written before these copies went carry them; verify reads none of them
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    s = json.loads((rundir / "summary.json").read_text())
    s.update(
        event_count=s["checks"]["zeno"]["event_count"],
        trigger=_old_trigger(s),
        update_count=s["checks"]["zeno"]["event_count"],
        period=s["meta"]["period"],
        delta_emp=s["checks"]["envelope"]["details"]["delta_emp"],
        eta0_variant=s["config"]["design"]["eta0_variant"],
        meta=dict(s["meta"], n_steps=s["n_steps"], alpha=s["certificate"]["alpha"]),
    )
    (rundir / "summary.json").write_text(json.dumps(s))
    assert main(["verify", str(rundir)]) == 0
    assert "FAIL" not in capsys.readouterr().out


OLD_SERIES_HEADER = "t,E,V,norm_z_sq,norm_v_sq,norm_gradz_sq,norm_e_sq,eta0,trigger_value,event"


def test_verify_refuses_the_old_series_layout(sim_run, tmp_path, capsys):
    # the derived columns t, E, V, eta0 and trigger_value are no longer
    # read: a file that carries them is refused, not half read
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    record, _ = load_run(rundir)
    columns = [getattr(record, name) for name in
               ("t", "energy", "lyapunov", "norm_z_sq", "norm_v_sq", "norm_gradz_sq", "norm_e_sq", "eta0", "trigger_value")]
    rows = [",".join(format(c[i], ".17e") for c in columns) + f",{int(record.event[i])}" for i in range(record.t.size)]
    (rundir / "series.csv").write_text("\n".join([OLD_SERIES_HEADER, *rows]) + "\n")
    assert main(["verify", str(rundir)]) == 65
    assert ",".join(SERIES_COLUMNS) in capsys.readouterr().err


def test_verify_refuses_a_controlled_mode_on_a_plant_only_series(tmp_path):
    cfg, path = small_config(tmp_path, mode="uncontrolled", t_end=1.0)
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    (tmp_path / "run" / "summary.json").write_text(json.dumps(dict(summary, mode="event-triggered")))
    assert main(["verify", str(tmp_path / "run")]) == 65


def test_verify_fails_a_flipped_event_flag_whatever_the_summary_mode(sim_run, tmp_path):
    # an unknown mode would turn the trigger invariant off; it is refused instead
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    lines = (rundir / "series.csv").read_text().splitlines()
    cells = lines[10].split(",")
    cells[-1] = str(1 - int(cells[-1]))  # the event column
    lines[10] = ",".join(cells)
    (rundir / "series.csv").write_text("\n".join(lines) + "\n")
    assert main(["verify", str(rundir)]) == 65  # events.csv no longer fits the series
    match_events(rundir)
    assert main(["verify", str(rundir)]) == 1
    summary = json.loads((rundir / "summary.json").read_text())
    (rundir / "summary.json").write_text(json.dumps(dict(summary, mode="bogus-mode")))
    assert main(["verify", str(rundir)]) == 65


@pytest.mark.parametrize("mode, period, keep", [
    ("continuous-damping", None, lambda row: row % 2 == 0),  # every second flag cleared: 151 of 301 left
    ("periodic", 0.1, lambda row: row == 0),  # every flag after t = 0 cleared
], ids=["continuous-damping", "periodic"])
def test_verify_fails_a_schedule_its_policy_did_not_make(tmp_path, capsys, mode, period, keep):
    # the flags of a continuous-damping or periodic run are replayed from its
    # policy; before that check, both copies printed only PASS lines
    _, path = small_config(tmp_path, mode=mode, period=period, t_end=3.0)
    assert main(["simulate", "--config", str(path)]) == 0
    series = tmp_path / "run" / "series.csv"
    header, *lines = series.read_text().splitlines()
    lines = [line if keep(row) else _event_flag(0)(line).rstrip("\n") for row, line in enumerate(lines)]
    series.write_text("\n".join([header, *lines]) + "\n")
    match_events(tmp_path / "run")
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 1
    assert "schedule: FAIL" in capsys.readouterr().out


def test_verify_fails_an_event_triggered_run_relabelled_periodic(sim_run, tmp_path, capsys):
    # a positive period makes the summary well formed, but the event-triggered
    # flags are not that period's
    # (the echo says so too: with the echo left as it was, the summary is refused)
    rundir = shutil.copytree(sim_run[2] / "run", tmp_path / "run")
    s = _echo(_echo(json.loads((rundir / "summary.json").read_text()), "mode", "periodic"), "period", 0.5)
    (rundir / "summary.json").write_text(json.dumps(dict(s, mode="periodic", meta=dict(s["meta"], period=0.5))))
    capsys.readouterr()
    assert main(["verify", str(rundir)]) == 1
    assert "schedule: FAIL" in capsys.readouterr().out


def test_verify_checks_a_periodic_summary_with_a_huge_period(tmp_path, capsys):
    # P is capped at the record's rows: the only hold due is t = 0's, so the
    # run's flags fail the schedule, with no overflow on the way
    _, path = small_config(tmp_path, mode="periodic", period=0.1, t_end=3.0)
    assert main(["simulate", "--config", str(path)]) == 0
    s = json.loads((tmp_path / "run" / "summary.json").read_text())
    (tmp_path / "run" / "summary.json").write_text(json.dumps(dict(s, meta=dict(s["meta"], period=1e308))))
    assert main(["verify", str(tmp_path / "run")]) == 65  # the echo still says 0.1
    s = _echo(s, "period", 1e308)
    (tmp_path / "run" / "summary.json").write_text(json.dumps(dict(s, meta=dict(s["meta"], period=1e308))))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "run")]) == 1
    assert "schedule: FAIL" in capsys.readouterr().out
    record, _ = load_run(tmp_path / "run")
    assert check_schedule(record).details == {"n_events": int(record.event.sum()), "n_due": 1}


def test_dwell_floor_is_counted_in_rows():
    # a continuous-damping record of 80,000 steps of dt = 0.0005: many of its
    # dwells, as differences of the rounded times k dt, read below dt, but
    # every event is one row after the one before
    m, dt = 80001, 0.0005
    ones = np.ones(m)
    columns = dict(zip(wt.RunRecord.COLUMNS, (ones,) * 5), event=np.ones(m, dtype=bool))
    record = build_record(columns, None, None, "continuous-damping", dt, meta={"period": None})
    assert np.diff(record.events.times).min() < dt * (1.0 - 1e-12)
    reports, ok = wavetrig_cli.run_checks(record)
    assert ok and reports["zeno"]["passed"] and reports["schedule"]["passed"]


def test_simulate_periodic_uses_matched_mean_dwell(tmp_path):
    cfg, path = small_config(tmp_path, mode="periodic", out=str(tmp_path / "per"))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "per" / "summary.json").read_text())
    assert summary["meta"]["period"] > 0
    assert summary["checks"]["zeno"]["event_count"] >= 2


def test_event_triggered_run_keeps_a_period_it_is_given(tmp_path):
    # only a periodic summary must carry a positive period; another mode records what it was given
    _, path = small_config(tmp_path, t_end=3.0)
    assert main(["simulate", "--config", str(path), "--period", "0.5"]) == 0
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["meta"]["period"] == 0.5
    assert main(["verify", str(tmp_path / "run")]) == 0


def test_simulate_determinism_byte_identical(tmp_path):
    cfg, path = small_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "series.csv").read_bytes()
    b2 = (tmp_path / "r2" / "series.csv").read_bytes()
    assert b1 == b2


def test_bump_and_file_initial_data(tmp_path):
    g = wt.build_grid(wt.Interval(1.0, 49))
    nodal = np.sin(np.pi * g.axes()[0])
    np.save(tmp_path / "z0.npy", nodal)
    cfg, path = small_config(
        tmp_path,
        z0={"kind": "file", "path": str(tmp_path / "z0.npy")},
        z1={"kind": "bump"},
        out=str(tmp_path / "filerun"),
    )
    assert main(["simulate", "--config", str(path)]) == 0


def _corrupt_npy(edit):
    def write(path):
        np.save(path, np.ones(49))
        path.write_bytes(edit(path.read_bytes()))
    return write


@pytest.mark.parametrize("name, write", [
    ("z0.txt", lambda p: p.write_text("a b c\n")),
    ("z0.txt", lambda p: p.write_text("1 2\n3\n")),
    ("z0.npy", _corrupt_npy(lambda b: b[:-8])),
    ("z0.npy", _corrupt_npy(lambda b: b[:10] + b"X" * 20 + b[30:])),
    ("z0.npy", _corrupt_npy(lambda b: b"")),
    ("z0.npy", _corrupt_npy(lambda b: b"not an array")),
    ("z0.npy", lambda p: np.save(p, np.ones(48))),
    ("z0.txt", lambda p: p.write_text("nan " * 49)),
], ids=["text-non-numeric", "text-ragged", "npy-truncated", "npy-bad-header", "npy-empty", "npy-garbage",
        "wrong-size", "non-finite"])
def test_malformed_initial_data_file_exits_65(tmp_path, capsys, name, write):
    write(tmp_path / name)
    cfg, path = small_config(tmp_path, z0={"kind": "file", "path": str(tmp_path / name)})
    assert main(["simulate", "--config", str(path)]) == 65
    assert "data format error" in capsys.readouterr().err


# --------------------------------------------------------------------- sweep

def test_cmd_sweep_table(tmp_path):
    cfg, path = small_config(tmp_path, t_end=3.0)
    code = main([
        "sweep", "--config", str(path), "--alphas", "0.5,1,2", "--lengths", "1,5",
        "--out", str(tmp_path / "sweep"),
    ])
    assert code == 0
    raw = (tmp_path / "sweep" / "sweep.csv").read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n") == 7  # lines end as in series.csv and events.csv
    lines = raw.decode().splitlines()
    assert lines[0] == "alpha,L,C_Omega,feasible,delta,K,events,delta_emp"
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    # L = 1 cells are feasible, L = 5 has C_Omega ~ 5/pi > sqrt(2)
    by_length = {(float(r[0]), float(r[1])): int(r[3]) for r in rows}
    for alpha in (0.5, 1.0, 2.0):
        assert by_length[(alpha, 1.0)] == 1
        assert by_length[(alpha, 5.0)] == 0
    # per-cell run directories exist for feasible cells
    assert (tmp_path / "sweep" / "cell_a1_L1" / "series.csv").is_file()


def test_cmd_sweep_exits_1_when_a_feasible_cell_fails_its_checks(tmp_path):
    # the undersized wirtinger constant breaks the sandwich c1 E <= V <= c2 E
    cfg, path = small_config(tmp_path, t_end=3.0)
    code = main([
        "sweep", "--config", str(path), "--alphas", "1,4", "--lengths", "1,3",
        "--comega-source", "wirtinger", "--out", str(tmp_path / "sweep"),
    ])
    summary = json.loads((tmp_path / "sweep" / "cell_a1_L1" / "summary.json").read_text())
    assert summary["checks"]["equivalence"]["passed"] is False
    assert code == 1


@pytest.mark.parametrize("options, source, c_omega", [
    (["--comega-source", "dirichlet-closed-form"], "dirichlet-closed-form", 1.0 / math.pi),
    (["--comega-source", "user", "--comega-value", "0.6"], "user", 0.6),
    (["--comega-source", "user", "--comega-value", "1.5"], "user", 1.5),  # above sqrt(2): infeasible
], ids=["dirichlet-closed-form", "user", "user-infeasible"])
def test_cmd_sweep_uses_the_configured_c_omega(tmp_path, options, source, c_omega):
    cfg, path = small_config(tmp_path, t_end=3.0)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--alphas", "1", "--lengths", "1", *options, "--out", str(out)])
    assert code == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == c_omega
    feasible = c_omega < math.sqrt(2)
    assert int(row[3]) == feasible
    if feasible:
        cert = json.loads((out / "cell_a1_L1" / "summary.json").read_text())["certificate"]
        assert (cert["c_omega"], cert["c_omega_source"]) == (c_omega, source)
    else:
        assert not (out / "cell_a1_L1").exists()


@pytest.mark.parametrize("domain, code", [
    ({"length": 1.0, "n": 49}, 0),  # no "kind": an interval, as simulate and design take it
    ({"kind": "rectangle", "a": 1.0, "b": 1.0, "nx": 15, "ny": 15}, 64),
], ids=["kind-less-interval", "rectangle"])
def test_cmd_sweep_runs_a_kind_less_interval_and_refuses_a_rectangle(tmp_path, domain, code):
    cfg, path = small_config(tmp_path, domain=domain, t_end=1.0)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--alphas", "1", "--lengths", "1", "--out", str(out)]) == code
    assert (out / "cell_a1_L1" / "series.csv").is_file() == (code == 0)
    if code == 0:
        assert (out / "sweep.csv").read_text().splitlines()[1].split(",")[3] == "1"


def test_cmd_sweep_refuses_certificate(tmp_path):
    cfg, path = small_config(tmp_path)
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "cert")]) == 0
    code = main([
        "sweep", "--config", str(path), "--alphas", "1,4", "--lengths", "1,3",
        "--certificate", str(tmp_path / "cert" / "certificate.json"),
        "--out", str(tmp_path / "sweep"),
    ])
    assert code == 64
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


def test_cmd_sweep_refuses_uncontrolled_mode(tmp_path, capsys):
    # an uncontrolled cell has no certificate to fill delta and K from
    cfg, path = small_config(tmp_path)
    code = main([
        "sweep", "--config", str(path), "--alphas", "1", "--lengths", "1", "--mode", "uncontrolled",
        "--out", str(tmp_path / "sweep"),
    ])
    assert code == 64
    assert "uncontrolled" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("z0_file, code", [("missing", 66), ("directory", 65), ("garbage", 65)])
def test_cmd_sweep_initial_data_error_is_the_sweeps_not_a_cells(tmp_path, capsys, z0_file, code):
    # every cell reads the same initial data, so its error ends the sweep with
    # the code simulate gives it, not as a failed cell (exit 1)
    z0 = tmp_path / "z0.npy"
    if z0_file == "directory":
        z0.mkdir()
    elif z0_file == "garbage":
        z0.write_bytes(b"not an npy file")
    cfg, path = small_config(tmp_path, z0={"kind": "file", "path": str(z0)})
    assert main(["simulate", "--config", str(path)]) == code
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--alphas", "1,2", "--lengths", "1", "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("lengths", ["5,6", "1,6"], ids=["no-feasible-cell", "one-feasible-cell"])
def test_cmd_sweep_reads_its_initial_data_before_it_writes(tmp_path, capsys, lengths):
    # a cell reads the initial data only after its design, which an infeasible
    # cell (L = 5 or 6) never passes: the sweep reads it first, so a missing
    # file exits 66 with no --out directory, whichever cells are feasible
    cfg, path = small_config(tmp_path, z0={"kind": "file", "path": str(tmp_path / "nope.npy")})
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--alphas", "1", "--lengths", lengths, "--t-end", "1", "--out", str(out)])
    assert code == 66
    assert "nope.npy" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sweep_refuses_a_node_count_no_cell_can_use(tmp_path, capsys):
    # the initial data are read on a grid of the sweep's n, so an n below 2 is
    # the sweep's configuration error (exit 64), not a failed row per cell
    out = tmp_path / "sweep"
    assert main(["sweep", "--alphas", "1", "--lengths", "1,2", "--n", "1", "--t-end", "1", "--out", str(out)]) == 64
    assert "2 or more nodes" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sweep_empty_list_exits_64(tmp_path):
    cfg, path = small_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--alphas", "", "--lengths", "1"]) == 64


def test_cmd_sweep_requires_lists(tmp_path):
    cfg, path = small_config(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 64


@pytest.mark.parametrize("alphas, lengths, values", [
    ("1", "1,1.0000001", "lengths 1.0 and 1.0000001"),
    ("1,1", "1", "alphas 1.0 and 1.0"),
], ids=["lengths", "alphas"])
def test_cmd_sweep_refuses_values_that_share_a_cell_directory(tmp_path, capsys, alphas, lengths, values):
    # cell directories name their values as {:g} prints them: the second cell
    # would overwrite the first's run while sweep.csv listed both
    out = tmp_path / "sweep"
    code = main(["sweep", "--alphas", alphas, "--lengths", lengths, "--n", "49", "--t-end", "1", "--out", str(out)])
    assert code == 64
    assert values in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alphas, lengths, message", [
    ("nan,1", "1", "bad alpha list 'nan,1': every alpha must be a finite number"),
    ("1", "inf", "bad length list 'inf': every length must be a finite number"),
    ("1", "1,-inf", "bad length list '1,-inf': every length must be a finite number"),
    ("1,x", "1", "bad alpha list '1,x': could not convert string to float: 'x'"),
], ids=["nan-alpha", "inf-length", "minus-inf-length", "not-a-number"])
def test_cmd_sweep_refuses_a_list_value_that_is_not_a_finite_number(tmp_path, capsys, alphas, lengths, message):
    # a cell of a non-finite value cannot be designed: the sweep is refused
    # before any cell runs, not written with that cell as a failed one
    out = tmp_path / "sweep"
    code = main(["sweep", "--alphas", alphas, "--lengths", lengths, "--n", "19", "--t-end", "1", "--out", str(out)])
    assert code == 64
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--alphas", "0,1", "--lengths", "1"], "bad alpha list '0,1': every alpha must be a finite number above 0"),
    (["--alphas", "1", "--lengths", "0,1"], "bad length list '0,1': every length must be a finite number above 0"),
    (["--alphas=-1,1", "--lengths", "1"], "bad alpha list '-1,1': every alpha must be a finite number above 0"),
], ids=["zero-alpha", "zero-length", "negative-alpha"])
def test_cmd_sweep_refuses_a_list_value_that_is_not_positive(tmp_path, capsys, argv, message):
    # no cell of such a value can run (simulate --alpha 0 exits 64): the sweep
    # is refused before its directory is made, not run with a failed cell
    out = tmp_path / "sweep"
    assert main(["sweep", *argv, "--n", "19", "--t-end", "1", "--out", str(out)]) == 64
    assert message in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------- subprocess

def test_cli_import_does_not_load_scipy():
    code = "import sys, wavetrig.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_subprocess_smoke(tmp_path):
    cfg, path = small_config(tmp_path, out=str(tmp_path / "sub"))
    proc = subprocess.run(
        [sys.executable, "-m", "wavetrig", "simulate", "--config", str(path), "--t-end", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "run written" in proc.stdout


def test_the_shared_parser_leaks_nothing_between_calls(tmp_path):
    # main builds its parser once per process; a periodic run and a usage
    # error before a default run leave no trace in that run's files
    a, b, fresh = (str(tmp_path / name) for name in ("a", "b", "fresh"))
    argv = ["simulate", "--n", "49", "--t-end", "3"]
    assert main(["simulate", "--mode", "periodic", "--period", "0.1", "--n", "49", "--t-end", "3", "--out", a]) == 0
    assert main(["simulate", "--no-such-flag"]) == 64
    assert main([*argv, "--out", b]) == 0
    src = str(Path(wt.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "wavetrig", *argv, "--out", fresh],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("series.csv", "events.csv"):
        assert (Path(b) / name).read_bytes() == (Path(fresh) / name).read_bytes(), name
    defaults = vars(build_parser().parse_args(["simulate"]))
    assert all(defaults[key.split(".")[-1]] is None for key in wavetrig_cli._OVERRIDES)
    assert build_parser() is build_parser()
