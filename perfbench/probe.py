"""Set-up probe: a fresh interpreter imports wavetrig and prepares one run
(config, grid, C_Omega, certificate, initial data, trigger parameters),
then prints each public call's span as one JSON line: name -> [start,
end] in seconds on this process's perf_counter clock.

    python3 perfbench/probe.py <config.json> [<alpha> <length>]

With alpha and length it prepares that sweep cell.  run.py times the
probe from process start to that line.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import wavetrig.cli  # noqa: E402,F401  the CLI imports every module of the package

t_imported = time.perf_counter()

import pipeline  # noqa: E402

tr = pipeline.Tracer()
cell = (float(sys.argv[2]), float(sys.argv[3])) if len(sys.argv) == 4 else None
if pipeline.prepare(Path(sys.argv[1]), tr, cell) is None:
    sys.exit("probe: the cell is infeasible")
spans = {"wavetrig.import": [t0, t_imported]}
for name, start, end, _parent, _op in tr.spans:
    spans[name] = [start, end]
print(json.dumps(spans), flush=True)
