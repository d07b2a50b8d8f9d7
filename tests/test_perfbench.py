"""The benchmark's tracer contract, checked against the library.

`perfbench/spans.py` patches sparsebeam entry points by name, and the
workloads call the public API.  One traced round per workload, run the
way `perfbench/run.py` runs its probe rounds, fails here when a renamed
or re-signed entry point would otherwise show up only as a failed
benchmark run.  Nothing is written under perfbench/ (no `finish`, no
bytecode).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        mp.setattr(sys, "dont_write_bytecode", True)
        import clock
        import spans
        import workloads

        yield clock, spans, workloads


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_round_restores_every_patch(perfbench, name):
    clock, spans, workloads = perfbench
    wl = workloads.WORKLOADS[name]
    tr = spans.Tracer()
    state = wl.setup(1, tr)
    tr.install()
    patched = list(tr._saved)
    try:
        oks = wl.run_round(state, 0, clock.UnitClock(wl.reference), tr)
    finally:
        tr.uninstall()
    tr.units = len(oks)
    assert oks and all(oks)
    assert isinstance(spans.layer_metrics(tr), dict)
    assert patched and all(getattr(owner, attr) is original for owner, attr, original in patched)
