"""`tools/snapshot.py`, the byte-identity check between two trees: it
must give the same tree on every run, or a diff against another tree
shows noise instead of a change."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "snapshot.py"


def _tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))}


def test_snapshot_is_deterministic(tmp_path):
    spec = importlib.util.spec_from_file_location("snapshot", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([str(tmp_path / "a")]) == 0
    assert tool.main([str(tmp_path / "b")]) == 0
    first, second = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert first == second

    runs = []
    for symbols, subcarriers, heads, time_bias in tool.GRIDS:
        tag = f"{symbols}x{subcarriers}h{heads}l{time_bias}"
        runs += [f"masks-doppler-{tag}", f"graph-{tag}"]
        if heads == 2:
            runs += [f"masks-fixed-{tag}", f"masks-fixed-causal-{tag}"]
    files = [f"{run}.json" for run in runs] + ["histogram.csv", "channel.bin", "beamform.csv"]
    sweeps = ["sweep", "sweep-default"]
    files += [f"{sweep}.{ext}" for sweep in sweeps for ext in ("csv", "json")]
    runs += ["masks-printed", "histogram", "histogram-printed", "channel", "beamform", "beamform-printed", *sweeps,
             "graph-quiet"]
    failures = {"beamform-inf": 1, "sweep-repeated": 2, "masks-over-cap": 3}
    stdouts = [f"{run}.stdout" for run in [*runs, *failures]]
    assert sorted(first) == sorted(files + stdouts + [f"{run}.stderr" for run in failures])
    assert all(first[f"{run}.stdout"].startswith(b"exit 0\n") for run in runs)
    assert first["graph-quiet.stdout"] == b"exit 0\n"
    for run, code in failures.items():
        assert first[f"{run}.stdout"] == f"exit {code}\n".encode()
        assert b"error: " in first[f"{run}.stderr"].splitlines()[-1]
    for sweep in sweeps:
        assert b'"build"' not in first[f"{sweep}.json"] and b'"timestamp"' not in first[f"{sweep}.json"]
    assert first["sweep-default.csv"].count(b"\n") == 1 + 7 * 2 * 3
