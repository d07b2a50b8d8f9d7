"""Write the outputs that must stay byte-stable into one directory.

Usage: PYTHONPATH=<tree>/src python tools/snapshot.py OUT

Every command runs in process through `sparsebeam.cli.cli_dispatch`,
inside OUT so that the paths it reports are the same in any OUT.  Each
command's exit code and stdout go to `<name>.stdout`, and its stderr,
when there is any, to `<name>.stderr`, beside the file it writes:

- `masks` JSON on 17 of the grids whose hop diameters the tests lock
  (the canonical slot with 3 and 4 heads among them), and
  fixed-strided masks, causal and not, on the 2-head ones;
- `graph --report` JSON on the same grids, and on the 4096-token 64x64
  grid at 2 and 3 heads (no masks JSON), whose searches run in several
  chunks;
- the attended-keys histogram CSV;
- two `attn-check` runs, whose stdout gives the kernel's deviations
  from the dense oracle and from central differences to 4 digits: the
  default 4x6 grid, whose residue head has padded slots, and 8x8 with
  3 heads;
- a `channel` file of the default slot, and the `beamform` CSV of zf,
  mmse and opt on it;
- a small sweep's CSV, and its JSON without the build hash and the
  timestamp, which change with every build and run;
- the same for a sweep on the default axes (7 SNR points, both velocity
  ranges, zf, mmse and opt at the default 100 optimizer steps) at 3
  realizations and a finite estimation SNR;
- one run of each failure exit: `beamform --snr-db inf` (1), a repeated
  `sweep --methods` entry (2) and `masks` over the token cap (3), and
  one `graph --quiet` run.  argparse wraps its usage line at the
  terminal width, so the snapshot pins `COLUMNS` to 80.

The default grid's masks, the histogram and the beamform CSV are also
printed to stdout.  Two trees give the same outputs when their
snapshots are byte-identical (`diff -r A B`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from sparsebeam.cli import cli_dispatch

# (L, K, heads, lambda) of 17 grids whose hop diameters the tests lock
GRIDS = [
    (14, 48, 2, 2.0),
    (2, 3, 2, 2.0),
    (4, 6, 2, 1.0),
    (4, 4, 2, 2.0),
    (3, 5, 1, 1.0),
    (8, 8, 3, 2.0),
    (5, 7, 2, 4.0),
    (6, 5, 4, 2.0),
    (1, 9, 2, 2.0),
    (9, 1, 2, 2.0),
    (7, 11, 3, 1.5),
    (14, 48, 3, 1.0),
    (14, 48, 3, 2.0),
    (14, 48, 3, 4.0),
    (14, 48, 4, 1.0),
    (14, 48, 4, 2.0),
    (14, 48, 4, 4.0),
]

# heads of the 64x64 grids whose reports are kept without their masks
LARGE_GRAPH_HEADS = (2, 3)


def _run(name: str, argv: list) -> None:
    """Run one command and keep its exit code and stdout as `<name>.stdout`
    and its stderr, unless empty, as `<name>.stderr`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_dispatch(argv)
    Path(f"{name}.stdout").write_text(f"exit {code}\n{stdout.getvalue()}", encoding="utf-8", newline="\n")
    if stderr.getvalue():
        Path(f"{name}.stderr").write_text(stderr.getvalue(), encoding="utf-8", newline="\n")


def snapshot(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            _commands()
    finally:
        os.chdir(cwd)


def _commands() -> None:
    for symbols, subcarriers, heads, time_bias in GRIDS:
        tag = f"{symbols}x{subcarriers}h{heads}l{time_bias}"
        grid = ["--L", str(symbols), "--K", str(subcarriers), "--heads", str(heads), "--lambda", str(time_bias)]
        patterns = {"doppler": []}
        if heads == 2:
            patterns.update({"fixed": ["--pattern", "fixed"], "fixed-causal": ["--pattern", "fixed", "--causal"]})
        for pattern, flags in patterns.items():
            name = f"masks-{pattern}-{tag}"
            _run(name, ["masks", *grid, *flags, "--out", f"{name}.json"])
        _run(f"graph-{tag}", ["graph", *grid, "--report", f"graph-{tag}.json"])
    for heads in LARGE_GRAPH_HEADS:
        _run(f"graph-64x64h{heads}", ["graph", "--L", "64", "--K", "64", "--heads", str(heads),
                                      "--report", f"graph-64x64h{heads}.json"])
    _run("masks-printed", ["masks"])
    _run("histogram", ["histogram", "--out", "histogram.csv"])
    _run("histogram-printed", ["histogram"])
    _run("attn-check", ["attn-check"])
    _run("attn-check-8x8h3", ["attn-check", "--L", "8", "--K", "8", "--heads", "3", "--grad-trials", "1",
                              "--model-dim", "6"])
    _run("channel", ["channel", "--realizations", "3", "--v-min", "30", "--v-max", "40", "--seed", "5",
                     "--out", "channel.bin"])
    beamform = ["beamform", "--channel", "channel.bin", "--method", "zf", "--method", "mmse", "--method", "opt",
                "--est-snr-db", "15", "--seed", "2"]
    _run("beamform", [*beamform, "--csv", "beamform.csv"])
    _run("beamform-printed", beamform)
    _sweep("sweep", ["--snr-db=-5,20", "--realizations", "6", "--est-snr-db", "15", "--opt-iterations", "20",
                     "--seed", "7"])
    _sweep("sweep-default", ["--realizations", "3", "--est-snr-db", "10", "--seed", "4"])
    _run("beamform-inf", [*beamform, "--snr-db", "inf", "--csv", "beamform-inf.csv"])
    _run("sweep-repeated", ["sweep", "--methods", "zf,zf"])
    _run("masks-over-cap", ["masks", "--L", "300", "--K", "300"])
    _run("graph-quiet", ["graph", "--quiet"])


def _sweep(name: str, flags: list) -> None:
    """Run one sweep into `<name>.csv` and `<name>.json`, and drop the
    JSON's build hash and timestamp."""
    _run(name, ["sweep", *flags, "--out", f"{name}.csv", "--json", f"{name}.json"])
    sweep_json = Path(f"{name}.json")
    payload = json.loads(sweep_json.read_text(encoding="utf-8"))
    del payload["metadata"]["build"], payload["metadata"]["timestamp"]
    sweep_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: snapshot.py OUT", file=sys.stderr)
        return 2
    snapshot(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
