"""Boundary fuzz: every file ``wavetrig`` reads (a config, a ``--certificate``,
a run directory's ``summary.json``) is mutated key by key and replaced by raw
bytes, and ``main`` must answer with a documented exit code, never an
exception.

Values come from a small fixed pool on an ``n = 49``, ``t_end = 1`` base, so
no example builds a large grid or runs many steps.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrig.cli import main
from wavetrig.config import RunConfig
from wavetrig.dynamics import MODES

CODES = {0, 1, 2, 3, 4, 5, 64, 65, 66}

DELETE = object()  # a mutation that removes the key
POOL = [None, True, 0, -1, 2, 49, 0.5, math.nan, math.inf, "1", [], {}, DELETE,
        *MODES, "file", "rectangle", "user", "reduced"]

FUZZ = settings(derandomize=True, deadline=None, max_examples=120)


def _paths(d: dict, prefix=()) -> list[tuple]:
    """Every key path of a nested dict, plus two keys per level that may be
    absent: an unknown one and the ``path`` a file initial data takes."""
    out = [(*prefix, "unknown"), (*prefix, "path")]
    for key, value in d.items():
        out.append((*prefix, key))
        if isinstance(value, dict):
            out += _paths(value, (*prefix, key))
    return out


def _mutate(base: dict, edits) -> dict:
    d = copy.deepcopy(base)
    for path, value in edits:
        node = d
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue  # an earlier edit replaced a parent
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return d


def mutations(base: dict, fixed=()):
    paths = [p for p in _paths(base) if p[0] not in fixed]
    return st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(POOL)), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A config, the certificate designed for it and a run made with it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = RunConfig(domain={"kind": "interval", "length": 1.0, "n": 49}, t_end=1.0, out=str(root / "out"))
    (root / "config.json").write_text(json.dumps(cfg.to_dict()))
    assert main(["design", "--config", str(root / "config.json"), "--out", str(root / "cert")]) == 0
    assert main(["simulate", "--config", str(root / "config.json"), "--out", str(root / "run")]) == 0
    return {
        "root": root,
        "config": cfg.to_dict(),
        "certificate": json.loads((root / "cert" / "certificate.json").read_text()),
        "summary": json.loads((root / "run" / "summary.json").read_text()),
    }


def _simulate(base, config: bytes | None = None, certificate: bytes | None = None) -> int:
    root = base["root"]
    args = ["simulate", "--config", str(root / "config.json"), "--out", str(root / "fuzz-out")]
    if config is not None:
        (root / "fuzz-config.json").write_bytes(config)
        args[2] = str(root / "fuzz-config.json")
    if certificate is not None:
        (root / "fuzz-cert.json").write_bytes(certificate)
        args += ["--certificate", str(root / "fuzz-cert.json")]
    return main(args)


def _verify(base, summary: bytes) -> int:
    (base["root"] / "run" / "summary.json").write_bytes(summary)
    return main(["verify", str(base["root"] / "run")])


def _dump(d: dict) -> bytes:
    return json.dumps(d).encode()


@FUZZ
@given(data=st.data())
def test_mutated_config_exits_with_a_documented_code(base, data):
    # out stays in the test's directory; every other key may change
    edits = data.draw(mutations(base["config"], fixed=("out",)))
    assert _simulate(base, config=_dump(_mutate(base["config"], edits))) in CODES


@FUZZ
@given(data=st.data())
def test_mutated_certificate_exits_with_a_documented_code(base, data):
    edits = data.draw(mutations(base["certificate"]))
    assert _simulate(base, certificate=_dump(_mutate(base["certificate"], edits))) in CODES


@FUZZ
@given(data=st.data())
def test_mutated_summary_exits_with_a_documented_code(base, data):
    edits = data.draw(mutations(base["summary"]))
    assert _verify(base, _dump(_mutate(base["summary"], edits))) in CODES


@pytest.mark.parametrize("target", ["config", "certificate", "summary"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(raw=st.one_of(st.binary(max_size=40), st.sampled_from([b"\xff\xfe{}", b"[1, 2]", b"null", b"{}", b"1e999"])))
def test_raw_bytes_exit_with_a_documented_code(base, target, raw):
    code = _verify(base, raw) if target == "summary" else _simulate(base, **{target: raw})
    assert code in CODES
