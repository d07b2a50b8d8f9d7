"""Command-line entry points.

Subcommands: masks, graph, attn-check, histogram, channel, beamform,
sweep.  Exit codes: 0 success, 1 validation failure, 2 usage error,
3 io or resource-limit error.  `--config FILE` reads flat key = value
lines; each entry of the running subcommand becomes its flag, inserted
right after the subcommand name, so argparse parses a config value
exactly as it parses the flag (a switch takes true or false).  A key
whose flag is also on the command line is ignored, so explicit flags
win.  A key of another subcommand is skipped; a key that names no flag
of any subcommand, or a malformed line, is a usage error.

Reports go to stdout through this module's logger, `sparsebeam.cli`,
at INFO; `--quiet` sets its level to WARNING.  An error goes to stderr
as `error: ...`, whatever `--quiet` says.  Data a command prints in
place of a file is output, not a report, and `--quiet` keeps it.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

import numpy as np

from . import _buildinfo
from .attention import EmbeddingBlock, attended_keys_histogram, dense_masked_oracle, gradient_check, sparse_attention_forward
from .beamforming import OptimizerConfig
from .bench import KNOWN_METHODS, SweepConfig, _fmt, _noise_power, _write_text, export_report, pilot_and_target, run_sweep, score
from .channel import DopplerConfig, OfdmConfig, add_estimation_error, generate_channel_batch, read_channel_file, write_channel_file
from .errors import ResourceLimitError, SingularChannelError
from .graph import connectivity_report, verify_partition
from .masks import DEFAULT_TOKEN_CAP, GridSpec, build_doppler_masks, build_fixed_strided_masks

_log = logging.getLogger(__name__)
_log.propagate = False  # `cli_dispatch`'s handler is the only one that prints a report

# attn-check gates: the acceptance suite's kernel tolerances
_FORWARD_TOL = 1e-12
_GRADIENT_TOL = 1e-5


def load_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment.  Keys are long flag
    names with dashes written as underscores; values stay strings."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = body.split("=", 1)
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value file of flag values; explicit flags win")
    parser.add_argument("--seed", type=_at_least(0), default=0)
    parser.add_argument("--quiet", action="store_true")


def _add_grid_args(parser):
    parser.add_argument("--L", type=int, default=OfdmConfig.symbols, help="OFDM symbols (time axis)")
    parser.add_argument("--K", type=int, default=OfdmConfig.subcarriers, help="subcarriers (frequency axis)")
    parser.add_argument("--heads", type=int, default=GridSpec.heads)
    parser.add_argument("--lambda", dest="time_bias", type=float, default=GridSpec.time_bias, help="time bias factor")


def _snr_list(text: str) -> tuple:
    """`--snr-db` value: comma-separated numbers, at least one."""
    try:
        return tuple(float(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _method_list(text: str) -> tuple:
    """`--methods` value: comma-separated known methods, each named once."""
    methods = tuple(text.split(","))
    if not set(methods) <= set(KNOWN_METHODS) or len(set(methods)) < len(methods):
        raise argparse.ArgumentTypeError(f"expected distinct methods among {','.join(KNOWN_METHODS)}, got {text!r}")
    return methods


def _at_least(low: int):
    """Flag type: an integer >= `low`, so a seed is one numpy takes and
    an `attn-check` run checks something."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


class _AppendOnce(argparse.Action):
    """`--method`: repeatable, but each method is named once, as in `--methods`."""

    def __call__(self, parser, namespace, value, option_string=None):
        seen = getattr(namespace, self.dest) or []
        if value in seen:
            raise argparse.ArgumentError(self, f"{value!r} is named twice")
        setattr(namespace, self.dest, [*seen, value])


def _grid_from(args) -> GridSpec:
    return GridSpec(symbols=args.L, subcarriers=args.K, heads=args.heads, time_bias=args.time_bias)


def _emit(path, text: str) -> bool:
    """Write `text` to `path`, or print it when there is no path; True
    when a file was written."""
    if path:
        _write_text(path, text)
        return True
    print(text, end="")
    return False


def _cmd_masks(args) -> int:
    grid = _grid_from(args)
    if args.pattern == "doppler":
        if args.causal:
            raise ValueError("--causal applies to --pattern fixed only")
        masks = build_doppler_masks(grid, max_tokens=args.max_tokens)
    else:
        masks = build_fixed_strided_masks(grid, causal=args.causal, max_tokens=args.max_tokens)
    if _emit(args.out, json.dumps(masks.to_json_dict()) + "\n"):
        report = masks.validation_report()
        _log.info(f"wrote {args.out}: {masks.head_count} heads x {masks.tokens} tokens, "
                  f"empty rows per head {report['empty_rows_per_head']}, "
                  f"row classes per head {report['row_classes_per_head']}")
    return 0


def _cmd_graph(args) -> int:
    grid = _grid_from(args)
    masks = build_doppler_masks(grid)
    partition = verify_partition(masks)
    report = connectivity_report(grid, maskset=masks, sample=args.sample, seed=args.seed)
    if args.report:
        _write_text(args.report, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    if args.mode in ("directed", "both"):
        _log.info(f"directed diameter: {report.directed.diameter}")
    if args.mode in ("undirected", "both"):
        _log.info(f"undirected diameter: {report.undirected.diameter}")
    _log.info(f"stride {report.global_stride}, bridging heads {report.bridging_heads}, "
              f"fully connected: {report.fully_connected}, hop bound <= heads: {report.hop_bound_satisfied}")
    if not partition.passed:
        _log.info(f"partition check FAILED with witness {partition.witness}")
        return 1
    if not report.theorem_consistent:
        _log.info("connectivity check FAILED: bridging holds but the union graph is disconnected")
        return 1
    return 0


def _cmd_attn_check(args) -> int:
    grid = _grid_from(args)
    masks = build_doppler_masks(grid)
    worst_forward = 0.0
    for trial in range(args.trials):
        block = EmbeddingBlock.random(grid.tokens, args.model_dim, grid.heads, seed=(args.seed, trial))
        sparse = sparse_attention_forward(block, masks)
        dense = dense_masked_oracle(block, masks)
        worst_forward = max(worst_forward, float(np.abs(sparse.output - dense.output).max()))
    worst_grad = 0.0
    for trial in range(args.grad_trials):
        block = EmbeddingBlock.random(grid.tokens, args.model_dim, grid.heads, seed=(args.seed, 1000 + trial))
        worst_grad = max(worst_grad, gradient_check(block, masks))
    _log.info(f"max forward deviation vs dense oracle: {worst_forward:.3e}")
    _log.info(f"max gradient relative error: {worst_grad:.3e}")
    if worst_forward > _FORWARD_TOL or worst_grad > _GRADIENT_TOL:
        _log.info("attention check FAILED")
        return 1
    return 0


def _cmd_histogram(args) -> int:
    grid = _grid_from(args)
    masks = build_doppler_masks(grid)
    lines = ["head,row_length,query_count"]
    for head, counts in enumerate(attended_keys_histogram(masks)):
        lines += [f"{head},{length},{count}" for length, count in counts.items()]
    if _emit(args.out, "\n".join(lines) + "\n"):
        _log.info(f"wrote {args.out} ({masks.tokens} queries per head)")
    return 0


def _cmd_channel(args) -> int:
    ofdm = OfdmConfig.from_resource_blocks(
        args.rb,
        symbols=args.symbols,
        subcarrier_spacing_hz=args.subcarrier_spacing,
        tti_s=args.tti,
        num_taps=args.taps,
        delay_spread_s=args.delay_spread,
    )
    doppler = DopplerConfig(carrier_hz=args.fc, velocity_mps=(args.v_min, args.v_max))
    batch = generate_channel_batch(ofdm, doppler, args.m, args.n, args.realizations, args.seed)
    write_channel_file(args.out, batch, args.seed)
    power = float((np.abs(batch) ** 2).mean())
    _log.info(f"wrote {args.out}: {batch.shape} complex128, mean |H|^2 = {power:.4f}")
    return 0


def _cmd_beamform(args) -> int:
    if not math.isfinite(args.snr_db):
        raise ValueError(f"--snr-db must be finite, got {args.snr_db}")
    sigma2 = _noise_power(args.snr_db)
    batch, meta = read_channel_file(args.channel)
    symbols, subcarriers = pilot_and_target(meta["symbols"], meta["subcarriers"])
    pilot, target = batch[:, symbols, subcarriers].swapaxes(0, 1)
    estimate = np.stack([add_estimation_error(h, args.est_snr_db, (args.seed, r)) for r, h in enumerate(pilot)])
    try:
        scores = score(args.method, estimate, target, sigma2, OptimizerConfig(iterations=args.opt_iterations))
    except SingularChannelError as exc:
        bad = np.flatnonzero(exc.singular).tolist()
        raise SingularChannelError(f"{exc} on realization(s) {bad} of {args.channel}", exc.singular) from exc
    header = ["realization", "method", "snr_db", "sum_rate_bpshz"]
    header += [f"per_ue_sinr_db_{k}" for k in range(meta["users"])]
    lines = [",".join(header)]
    for r in range(meta["realizations"]):
        for method in args.method:
            rates, gammas = scores[method]
            sinr_db = ",".join(_fmt(10.0 * np.log10(g)) for g in gammas[r])
            lines.append(f"{r},{method},{_fmt(args.snr_db)},{_fmt(rates[r])},{sinr_db}")
    if _emit(args.csv, "\n".join(lines) + "\n"):
        _log.info(f"wrote {args.csv} ({meta['realizations']} realizations)")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        snr_db_list=args.snr_db,
        realizations=args.realizations,
        est_snr_db=args.est_snr_db,
        methods=args.methods,
        seed=args.seed,
        optimizer=OptimizerConfig(iterations=args.opt_iterations),
    )
    result = run_sweep(config, progress=lambda vr, snr: _log.info(f"  velocity {vr} snr {snr} dB done"))
    export_report(result, "csv", args.out)
    _log.info(f"wrote {args.out} ({len(result.points)} points)")
    if args.json:
        export_report(result, "json", args.json)
        _log.info(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebeam",
        description="Doppler-aware sparse attention masks and beamformer benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"sparsebeam {_buildinfo.VERSION} build {_buildinfo.build_hash()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("masks", help="build sparse masks and export them as JSON")
    _add_common(p)
    _add_grid_args(p)
    p.add_argument("--pattern", choices=("doppler", "fixed"), default="doppler")
    p.add_argument("--causal", action="store_true", help="causal variant of the fixed pattern")
    p.add_argument("--max-tokens", type=int, default=DEFAULT_TOKEN_CAP)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_masks)

    p = sub.add_parser("graph", help="connectivity report for the Doppler-aware masks")
    _add_common(p)
    _add_grid_args(p)
    p.add_argument("--mode", choices=("directed", "undirected", "both"), default="both")
    p.add_argument("--sample", action="store_true", help="sampled sources above the BFS cap")
    p.add_argument("--report", help="write the full report JSON here")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("attn-check", help="sparse forward vs dense oracle plus gradient check")
    _add_common(p)
    _add_grid_args(p)
    p.set_defaults(L=4, K=6)  # desk-scale default grid for kernel checks
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--grad-trials", type=_at_least(1), default=3)
    p.add_argument("--model-dim", type=int, default=8)
    p.set_defaults(handler=_cmd_attn_check)

    p = sub.add_parser("histogram", help="attended-keys-per-query histogram as CSV")
    _add_common(p)
    _add_grid_args(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_histogram)

    p = sub.add_parser("channel", help="generate Doppler channel realizations to a binary file")
    _add_common(p)
    p.add_argument("--v-min", type=float, default=DopplerConfig.velocity_mps[0])
    p.add_argument("--v-max", type=float, default=DopplerConfig.velocity_mps[1])
    p.add_argument("--fc", type=float, default=DopplerConfig.carrier_hz)
    p.add_argument("--rb", type=int, default=OfdmConfig.subcarriers // 12, help="resource blocks (12 subcarriers each)")
    p.add_argument("--symbols", type=int, default=OfdmConfig.symbols)
    p.add_argument("--taps", type=int, default=OfdmConfig.num_taps)
    p.add_argument("--subcarrier-spacing", type=float, default=OfdmConfig.subcarrier_spacing_hz)
    p.add_argument("--tti", type=float, default=OfdmConfig.tti_s)
    p.add_argument("--delay-spread", type=float, default=OfdmConfig.delay_spread_s)
    p.add_argument("--m", type=int, default=SweepConfig.rx_antennas, help="receive antennas")
    p.add_argument("--n", type=int, default=SweepConfig.users, help="single-antenna users")
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_channel)

    p = sub.add_parser("beamform", help="per-realization beamformer rates on a channel file's realizations")
    _add_common(p)
    p.add_argument("--channel", required=True, help="file written by `sparsebeam channel`")
    p.add_argument("--method", action=_AppendOnce, choices=KNOWN_METHODS, required=True)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--est-snr-db", type=float, default=SweepConfig.est_snr_db)
    p.add_argument("--opt-iterations", type=int, default=OptimizerConfig.iterations)
    p.add_argument("--csv")
    p.set_defaults(handler=_cmd_beamform)

    p = sub.add_parser("sweep", help="full beamformer comparison sweep to CSV/JSON")
    _add_common(p)
    p.add_argument("--snr-db", type=_snr_list, default=SweepConfig.snr_db_list, help="comma-separated SNR grid in dB")
    p.add_argument("--realizations", type=int, default=SweepConfig.realizations)
    p.add_argument("--methods", type=_method_list, default=SweepConfig.methods, help="comma-separated subset of zf,mmse,opt")
    p.add_argument("--est-snr-db", type=float, default=SweepConfig.est_snr_db)
    p.add_argument("--opt-iterations", type=int, default=OptimizerConfig.iterations)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--json", help="also write the JSON mirror here")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def _subcommands(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_keys(subparser) -> dict:
    """Config key -> flag action: the flag's dest and its long name,
    dashes as underscores (`time_bias` and `lambda` both name --lambda)."""
    return {
        name.lstrip("-").replace("-", "_"): action
        for action in subparser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
        for name in (action.dest, *action.option_strings)
    }


def _with_config(parser, argv: list, config: dict) -> list:
    """`argv` with the running subcommand's config entries inserted as
    flag tokens right after the subcommand name.  One config file may
    serve several subcommands, so a key of another one is skipped."""
    subcommands = _subcommands(parser)
    unknown = sorted(set(config).difference(*(_config_keys(p) for p in subcommands.values())))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), None)
    if at is None or argv[at] not in subcommands:
        return argv  # argparse reports the missing or unknown subcommand
    keys = _config_keys(subcommands[argv[at]])
    options = {flag for action in keys.values() for flag in action.option_strings}
    given = set()
    for token in argv[at + 1 :]:
        name = token.split("=", 1)[0]
        if name in options:
            given.add(name)
        else:  # argparse also takes a unique prefix of a long flag
            hits = [flag for flag in options if name.startswith("--") and flag.startswith(name)]
            if len(hits) == 1:
                given.add(hits[0])
    tokens = []
    for key, value in config.items():
        action = keys.get(key)
        if action is None or given.intersection(action.option_strings):
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")  # one token, so a value may start with '-'
        elif value.lower() not in ("true", "false"):
            raise ValueError(f"config key {key} is a switch: expected true or false, got {value!r}")
        elif value.lower() == "true":
            tokens.append(flag)
    return [*argv[: at + 1], *tokens, *argv[at + 1 :]]


def cli_dispatch(argv) -> int:
    """Parse and run; returns the process exit code instead of exiting."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    try:
        known, _ = pre.parse_known_args(argv)
        parser = build_parser()
        if known.config:
            argv = _with_config(parser, argv, load_config_file(known.config))
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors (2) and on --help/--version (0)
        return int(exc.code or 0)
    except OSError as exc:
        return _fail(exc, 3)
    except ValueError as exc:  # a bad config entry
        return _fail(exc, 2)
    # bound to the sys.stdout of this call, so a redirect around it holds
    handler = logging.StreamHandler(sys.stdout)
    _log.addHandler(handler)
    _log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        return int(args.handler(args) or 0)
    except (ResourceLimitError, OSError) as exc:
        return _fail(exc, 3)
    except (ValueError, RuntimeError) as exc:
        return _fail(exc, 1)
    finally:
        _log.removeHandler(handler)


def _fail(exc: Exception, code: int) -> int:
    """Write `exc` to stderr as the one error line and return exit `code`."""
    print(f"error: {exc}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
