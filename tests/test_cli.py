"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import dataclasses
import json
import logging
import sys

import numpy as np
import pytest

from sparsebeam import (
    DopplerConfig,
    OfdmConfig,
    OptimizerConfig,
    SparseMaskSet,
    SweepConfig,
    add_estimation_error,
    cli,
    generate_channel_batch,
    mmse_combiner,
    optimize_sum_rate,
    power_project,
    read_channel_file,
    sinr,
    sum_rate,
    write_channel_file,
    zf_combiner,
)
from sparsebeam.bench import CSV_HEADER, SweepResult
from sparsebeam.cli import _subcommands, build_parser, cli_dispatch, load_config_file

CHANNEL = "<channel file>"  # stands for the `channel_file` fixture's path in a command


@pytest.fixture(scope="module")
def channel_file(tmp_path_factory):
    """Four realizations of an 8-antenna, 2-user, 2x12 slot at 30-40 m/s."""
    batch = generate_channel_batch(OfdmConfig(symbols=2, subcarriers=12), DopplerConfig(velocity_mps=(30.0, 40.0)), 8, 2, 4, 7)
    path = tmp_path_factory.mktemp("channel") / "channels.bin"
    write_channel_file(path, batch, 7)
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["masks", "--bogus"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_token_cap_is_resource_error(self, capsys):
        assert cli_dispatch(["masks", "--L", "300", "--K", "300"]) == 3

    def test_version_exits_zero(self, capsys):
        assert cli_dispatch(["--version"]) == 0
        assert "sparsebeam" in capsys.readouterr().out

    def test_validation_failure_is_one(self, tmp_path):
        # fixed pattern demands exactly two heads
        assert cli_dispatch(["masks", "--pattern", "fixed", "--heads", "3", "--L", "2", "--K", "3"]) == 1

    def test_missing_config_file_is_io_error(self):
        assert cli_dispatch(["masks", "--config", "/nonexistent/conf", "--L", "2", "--K", "2"]) == 3

    @pytest.mark.parametrize("name", sorted(_subcommands(build_parser())))
    def test_every_subcommand_help_exits_zero(self, capsys, name):
        assert cli_dispatch([name, "--help"]) == 0

    @pytest.mark.parametrize("name", sorted(_subcommands(build_parser())))
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, capsys, name, seed):
        # `sweep` and `channel` used to exit 1 with numpy's message for a
        # negative seed, and `graph` ignored it and exited 0
        assert cli_dispatch([name, "--seed", seed]) == 2
        assert "--seed: expected an integer >= 0" in capsys.readouterr().err


class TestMasksCommand:
    def test_writes_schema_compliant_json(self, tmp_path):
        out = tmp_path / "masks.json"
        code = cli_dispatch(["masks", "--L", "2", "--K", "3", "--heads", "2", "--lambda", "2",
                             "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["grid"] == {"L": 2, "K": 3, "p": 2, "lambda": 2.0, "pattern": "doppler_aware"}
        assert [h["head"] for h in payload["heads"]] == [0, 1]
        assert payload["heads"][0]["rows"][0] == [0, 3]
        restored = SparseMaskSet.from_json_dict(payload)
        assert restored.tokens == 6

    def test_reports_empty_rows_and_row_classes(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        assert cli_dispatch(["masks", "--L", "2", "--K", "3", "--out", str(out)]) == 0
        assert "empty rows per head [0, 2], row classes per head [3, 3]" in capsys.readouterr().out

    def test_fixed_pattern(self, tmp_path):
        out = tmp_path / "fixed.json"
        code = cli_dispatch(["masks", "--L", "2", "--K", "3", "--pattern", "fixed", "--causal",
                             "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["grid"]["pattern"] == "fixed_strided"
        assert payload["causal"] is True

    def test_causal_doppler_pattern_rejected(self, tmp_path, capsys):
        out = tmp_path / "masks.json"
        assert cli_dispatch(["masks", "--L", "2", "--K", "3", "--causal", "--out", str(out), "--quiet"]) == 1
        assert "--causal" in capsys.readouterr().err
        assert not out.exists()


class TestGraphCommand:
    def test_canonical_grid_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = cli_dispatch(["graph", "--L", "14", "--K", "48", "--heads", "2", "--lambda", "2",
                             "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fully connected: True" in out
        payload = json.loads(report.read_text())
        assert payload["global_stride"] == 26
        assert payload["fully_connected"] is True
        assert payload["undirected_diameter"] == 3


class TestAttnCheckCommand:
    def test_passes_on_default_grid(self, capsys):
        code = cli_dispatch(["attn-check", "--trials", "3", "--grad-trials", "1", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max forward deviation" in out

    def test_forward_gate_is_the_acceptance_tolerance(self, monkeypatch, capsys):
        # the gate used to be 1e-6, so a forward off by 1e-9 passed
        exact = cli.sparse_attention_forward

        def off(block, masks):
            result = exact(block, masks)
            return dataclasses.replace(result, output=result.output + 1e-9)

        monkeypatch.setattr(cli, "sparse_attention_forward", off)
        assert cli_dispatch(["attn-check", "--trials", "1", "--grad-trials", "1"]) == 1
        out = capsys.readouterr().out
        assert "max forward deviation vs dense oracle: 1.000e-09" in out and "attention check FAILED" in out

    @pytest.mark.parametrize("flag", ["--tol-forward", "--tol-grad"])
    def test_tolerances_are_not_settable(self, capsys, flag):
        assert cli_dispatch(["attn-check", "--trials", "1", "--grad-trials", "1", flag, "1"]) == 2

    @pytest.mark.parametrize("flags", [["--trials", "0", "--grad-trials", "0"], ["--trials", "0"],
                                       ["--grad-trials", "0"], ["--trials", "-1"], ["--grad-trials", "-2"]])
    def test_a_run_checks_something(self, capsys, flags):
        # zero or negative trial counts would report a deviation of 0
        # without checking anything
        assert cli_dispatch(["attn-check", *flags]) == 2
        assert "expected an integer >= 1" in capsys.readouterr().err

    def test_zero_model_dim_rejected(self, capsys):
        assert cli_dispatch(["attn-check", "--model-dim", "0", "--trials", "1", "--grad-trials", "1"]) == 1
        assert "head_dim must be >= 1" in capsys.readouterr().err


class TestHistogramCommand:
    def test_csv_matches_canonical_distribution(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = cli_dispatch(["histogram", "--L", "14", "--K", "48", "--out", str(out), "--quiet"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "head,row_length,query_count"
        rows = {tuple(map(int, line.split(","))) for line in lines[1:]}
        assert (0, 26, 572) in rows
        assert (0, 25, 100) in rows


class TestChannelCommand:
    def test_writes_readable_file(self, tmp_path):
        out = tmp_path / "channels.bin"
        code = cli_dispatch(["channel", "--v-min", "0", "--v-max", "10", "--rb", "1",
                             "--symbols", "2", "--realizations", "3", "--m", "2", "--n", "1",
                             "--seed", "5", "--out", str(out), "--quiet"])
        assert code == 0
        batch, meta = read_channel_file(out)
        assert batch.shape == (3, 2, 12, 2, 1)
        assert meta["seed"] == 5

    @pytest.mark.parametrize("flags", [["--m", "0", "--n", "2"], ["--m", "2", "--n", "0"]])
    def test_empty_antenna_or_user_axis_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "c.bin"
        code = cli_dispatch(["channel", *flags, "--rb", "1", "--symbols", "2", "--out", str(out), "--quiet"])
        assert code == 1
        name = "antennas" if flags[1] == "0" else "users"
        assert capsys.readouterr().err == f"error: {name} must be an integer >= 1, got 0\n"
        assert not out.exists()

    def test_zero_resource_blocks_rejected(self, tmp_path, capsys):
        assert cli_dispatch(["channel", "--rb", "0", "--out", str(tmp_path / "c.bin"), "--quiet"]) == 1
        assert "need at least one resource block" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--v-min", "nan", "--v-max", "nan"],
            ["--fc", "inf"],
            ["--v-max", "inf"],
            ["--tti", "nan"],
            ["--delay-spread", "nan"],
            ["--subcarrier-spacing", "inf"],
        ],
    )
    def test_nonfinite_mobility_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "c.bin"
        code = cli_dispatch(["channel", *flags, "--rb", "1", "--symbols", "2", "--realizations", "1",
                             "--m", "1", "--n", "1", "--out", str(out), "--quiet"])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


    def test_seed_beyond_file_header_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.bin"
        code = cli_dispatch(["channel", "--seed", str(2**64), "--rb", "1", "--symbols", "2", "--m", "1", "--n", "1",
                             "--out", str(out), "--quiet"])
        assert code == 1
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()


class TestBeamformCommand:
    def test_csv_columns(self, tmp_path, channel_file):
        out = tmp_path / "rates.csv"
        code = cli_dispatch(["beamform", "--channel", str(channel_file), "--method", "zf", "--method", "mmse",
                             "--snr-db", "10", "--csv", str(out), "--quiet"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "realization,method,snr_db,sum_rate_bpshz,per_ue_sinr_db_0,per_ue_sinr_db_1"
        assert len(lines) == 1 + 4 * 2

    def test_deterministic(self, tmp_path, channel_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli_dispatch(["beamform", "--channel", str(channel_file), "--method", "opt", "--est-snr-db", "10",
                                 "--opt-iterations", "5", "--csv", str(path), "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("method", ["zf", "mmse", "opt"])
    def test_nan_snr_rejected(self, tmp_path, capsys, channel_file, method):
        out = tmp_path / "rates.csv"
        code = cli_dispatch(["beamform", "--channel", str(channel_file), "--method", method, "--snr-db", "nan",
                             "--opt-iterations", "2", "--csv", str(out), "--quiet"])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["inf", "1e400", "-inf"])
    def test_infinite_snr_rejected(self, tmp_path, capsys, channel_file, snr):
        # as in the sweep: an infinite SNR would score a noise-free link
        out = tmp_path / "rates.csv"
        for method in ("zf", "mmse", "opt"):
            assert cli_dispatch(["beamform", "--channel", str(channel_file), "--method", method, f"--snr-db={snr}",
                                 "--csv", str(out), "--quiet"]) == 1
            assert "--snr-db must be finite" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("snr, power", [("1e300", "0"), ("-1e300", "inf")])
    def test_snr_beyond_the_noise_power_range_rejected(self, tmp_path, capsys, channel_file, snr, power):
        # 10 ** (-snr / 10) underflows to 0 above about 3240 dB and overflows
        # below about -3080 dB
        out = tmp_path / "rates.csv"
        for method in ("zf", "mmse", "opt"):
            assert cli_dispatch(["beamform", "--channel", str(channel_file), "--method", method, f"--snr-db={snr}",
                                 "--csv", str(out), "--quiet"]) == 1
            assert f"SNR {float(snr):g} dB gives noise power {power}" in capsys.readouterr().err
            assert not out.exists()

    def test_scores_the_files_pilot_and_target(self, tmp_path):
        # `channel` then `beamform`: each row equals the library combiner
        # built from symbol 0 (plus the (seed, r) estimation error) and
        # scored at the last symbol, both at the centre subcarrier
        path, out = tmp_path / "c.bin", tmp_path / "rates.csv"
        assert cli_dispatch(["channel", "--rb", "1", "--symbols", "4", "--realizations", "3", "--m", "4", "--n", "2",
                             "--v-min", "30", "--v-max", "40", "--seed", "9", "--out", str(path), "--quiet"]) == 0
        assert cli_dispatch(["beamform", "--channel", str(path), "--method", "zf", "--method", "mmse", "--method", "opt",
                             "--snr-db", "5", "--est-snr-db", "10", "--opt-iterations", "7", "--seed", "3",
                             "--csv", str(out), "--quiet"]) == 0
        batch, _ = read_channel_file(path)
        pilot, target = batch[:, 0, 6], batch[:, 3, 6]
        sigma2 = 10.0 ** (-5.0 / 10.0)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(row[0]), row[1]) for row in rows] == [(r, m) for r in range(3) for m in ("zf", "mmse", "opt")]
        for row in rows:
            r = int(row[0])
            est = add_estimation_error(pilot[r], 10.0, (3, r))
            if row[1] == "zf":
                w = power_project(zf_combiner(est))
            elif row[1] == "mmse":
                w = power_project(mmse_combiner(est, sigma2))
            else:
                w = optimize_sum_rate(est, target[r], sigma2, OptimizerConfig(iterations=7)).combiner
            assert row[3] == format(sum_rate(w, target[r], sigma2), ".12g")
            assert row[4:] == [format(10.0 * np.log10(g), ".12g") for g in sinr(w, target[r], sigma2)]

    def test_repeated_method_is_usage_error(self, tmp_path, capsys, channel_file):
        # each row would be written twice; `sweep --methods` rejects repeats too
        out = tmp_path / "rates.csv"
        code = cli_dispatch(["beamform", "--channel", str(channel_file), "--method", "zf", "--method", "mmse",
                             "--method", "zf", "--csv", str(out), "--quiet"])
        assert code == 2
        assert "'zf' is named twice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_channel_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["beamform", "--method", "zf"]) == 2
        assert "--channel" in capsys.readouterr().err

    def test_bad_channel_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 80)
        assert cli_dispatch(["beamform", "--channel", str(path), "--method", "zf", "--quiet"]) == 1
        assert "bad magic" in capsys.readouterr().err

    def test_singular_realization_named(self, tmp_path, capsys):
        batch = generate_channel_batch(OfdmConfig(symbols=2, subcarriers=12), DopplerConfig(), 4, 2, 3, 5)
        batch[1, ..., 0] = 0.0  # user 0 of realization 1 vanishes: its Gram matrix is singular
        path, out = tmp_path / "c.bin", tmp_path / "rates.csv"
        write_channel_file(path, batch, 5)
        assert cli_dispatch(["beamform", "--channel", str(path), "--method", "zf", "--csv", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "ill-conditioned" in err and "zf on realization(s) [1] of" in err
        assert not out.exists()


class TestSweepCommand:
    def test_small_sweep_writes_csv_and_json(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        code = cli_dispatch(["sweep", "--snr-db", "0,20", "--realizations", "4",
                             "--methods", "zf,mmse", "--out", str(csv_path),
                             "--json", str(json_path), "--quiet"])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2
        payload = json.loads(json_path.read_text())
        assert len(payload["points"]) == 8

    @pytest.mark.parametrize("snr", ["nan", "inf", "0,nan"])
    def test_nonfinite_snr_rejected(self, tmp_path, capsys, snr):
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(["sweep", "--snr-db", snr, "--realizations", "2", "--methods", "zf,mmse",
                             "--out", str(out), "--quiet"])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("methods", ["zf", "opt"])
    @pytest.mark.parametrize("snr, power", [("5,1e300", "0"), ("-1e300", "inf")])
    def test_snr_beyond_the_noise_power_range_rejected(self, tmp_path, capsys, methods, snr, power):
        # zf used to score a noise-free link, and opt to fail late without
        # naming the SNR
        out = tmp_path / "sweep.csv"
        code = cli_dispatch(["sweep", f"--snr-db={snr}", "--realizations", "2", "--methods", methods,
                             "--out", str(out), "--quiet"])
        assert code == 1
        assert f"SNR {float(snr.split(',')[-1]):g} dB gives noise power {power}" in capsys.readouterr().err
        assert not out.exists()


class TestDefaultsComeFromTheConfigs:
    """A command run without flags uses the library configs' defaults."""

    def test_sweep_runs_the_default_config(self, tmp_path, monkeypatch, capsys):
        seen = []

        def capture(config, progress=None):
            seen.append(config)
            return SweepResult(points=[], seed=config.seed, version="v", build="b", timestamp="t")

        monkeypatch.setattr(cli, "run_sweep", capture)
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["sweep"]) == 0
        assert seen == [SweepConfig()]
        assert (tmp_path / "sweep.csv").read_text() == CSV_HEADER + "\n"

    def test_channel_draws_the_default_slot(self, tmp_path):
        out = tmp_path / "c.bin"
        assert cli_dispatch(["channel", "--out", str(out), "--quiet"]) == 0
        _, meta = read_channel_file(out)
        assert (meta["symbols"], meta["subcarriers"], meta["antennas"], meta["users"]) == (14, 48, 8, 2)
        assert (meta["realizations"], meta["seed"]) == (1, 0)

    def test_masks_export_the_canonical_grid(self, tmp_path):
        out = tmp_path / "masks.json"
        assert cli_dispatch(["masks", "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["grid"] == {"L": 14, "K": 48, "p": 2, "lambda": 2.0, "pattern": "doppler_aware"}


@pytest.mark.parametrize(
    "command, out_flag",
    [(["masks", "--L", "2", "--K", "3"], "--out"), (["histogram", "--L", "2", "--K", "3"], "--out"),
     (["beamform", "--channel", CHANNEL, "--method", "zf", "--method", "mmse"], "--csv")],
    ids=["masks", "histogram", "beamform"],
)
def test_stdout_equals_file(tmp_path, capsys, channel_file, command, out_flag):
    # without a file flag the command prints exactly the file's bytes
    command = [str(channel_file) if token == CHANNEL else token for token in command]
    out = tmp_path / "out"
    assert cli_dispatch([*command, out_flag, str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert cli_dispatch([*command, "--quiet"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


class TestReports:
    """Reports go through the `sparsebeam.cli` logger to the stdout of the
    call; errors go to stderr."""

    HISTOGRAM = ["histogram", "--L", "2", "--K", "3"]

    def test_each_dispatch_reports_once(self, tmp_path, capsys):
        root = logging.getLogger()
        extra = logging.StreamHandler(sys.stdout)
        root.addHandler(extra)
        level = root.level
        root.setLevel(logging.INFO)
        try:
            for attempt in range(2):
                out = tmp_path / f"hist{attempt}.csv"
                assert cli_dispatch([*self.HISTOGRAM, "--out", str(out)]) == 0
                assert capsys.readouterr().out == f"wrote {out} (6 queries per head)\n"
        finally:
            root.removeHandler(extra)
            root.setLevel(level)
        assert logging.getLogger("sparsebeam.cli").handlers == []

    def test_quiet_silences_reports_but_not_errors(self, tmp_path, capsys):
        assert cli_dispatch([*self.HISTOGRAM, "--out", str(tmp_path / "hist.csv"), "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")
        assert cli_dispatch(["graph", "--L", "2", "--K", "3", "--heads", "0", "--quiet"]) == 1
        assert capsys.readouterr() == ("", "error: heads must be an integer >= 1, got 0\n")
        # a later run without --quiet reports again
        assert cli_dispatch(["graph", "--L", "2", "--K", "3"]) == 0
        assert "fully connected" in capsys.readouterr().out


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("L = 2\nK = 3\nlambda = 2.0  # comment\n")
        out = tmp_path / "hist.csv"
        code = cli_dispatch(["histogram", "--config", str(conf), "--K", "5",
                             "--out", str(out), "--quiet"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        # L = 2 from config, --K flag wins over config's 3
        total = sum(int(line.split(",")[2]) for line in lines[1:] if line.split(",")[0] == "0")
        assert total == 2 * 5

    def test_parser(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("alpha = 0.5\nname = hello\nflag = true\nn = 7\n")
        values = load_config_file(conf)
        assert values == {"alpha": "0.5", "name": "hello", "flag": "true", "n": "7"}

    def test_malformed_line_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("just words\n")
        with pytest.raises(ValueError):
            load_config_file(conf)

    @pytest.mark.parametrize(
        "body, named",
        [("sampels = 4\n", "sampels"), ("just words\n", "key = value"), ("handler = x\n", "handler")],
    )
    def test_bad_config_is_usage_error(self, tmp_path, capsys, body, named):
        conf = tmp_path / "bad.conf"
        conf.write_text(body)
        assert cli_dispatch(["histogram", "--config", str(conf), "--quiet"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, body, named",
        [(["masks", "--L", "2", "--K", "2"], "pattern = bogus\n", "argument --pattern: invalid choice: 'bogus'"),
         (["graph", "--L", "2", "--K", "3"], "mode = sideways\n", "argument --mode: invalid choice: 'sideways'")],
    )
    def test_config_value_outside_choices_is_usage_error(self, tmp_path, capsys, command, body, named):
        conf = tmp_path / "bad.conf"
        conf.write_text(body)
        assert cli_dispatch([*command, "--config", str(conf), "--quiet"]) == 2
        assert named in capsys.readouterr().err

    def test_config_value_inside_choices_accepted(self, tmp_path, capsys):
        conf = tmp_path / "fixed.conf"
        conf.write_text("pattern = fixed\n")
        out = tmp_path / "m.json"
        assert cli_dispatch(["masks", "--config", str(conf), "--L", "2", "--K", "2", "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text())["grid"]["pattern"] == "fixed_strided"

    def test_key_of_another_subcommand_accepted(self, tmp_path, capsys):
        conf = tmp_path / "shared.conf"
        conf.write_text("L = 2\nK = 3\nheads = 1\nv_min = 1.0\nopt_iterations = 5\n")
        assert cli_dispatch(["histogram", "--config", str(conf), "--quiet"]) == 0


def _run_to_file(argv, out_flag, out):
    """Exit code of `argv`, plus the output file's bytes on success."""
    code = cli_dispatch([*argv, out_flag, str(out)] if out_flag else argv)
    return code, out.read_bytes() if code == 0 and out_flag else None


class TestConfigParsedLikeFlags:
    """A config entry reaches argparse as the flag itself, so both paths
    give the same exit code and, on success, the same output bytes."""

    @pytest.mark.parametrize(
        "command, entry, flags, out_flag, expected",
        [
            (["masks", "--K", "3"], "L = 2.5", ["--L", "2.5"], "--out", 2),
            (["attn-check"], "trials = 2.0", ["--trials", "2.0"], None, 2),
            (["sweep", "--realizations", "2", "--methods", "zf"], "snr_db = 5", ["--snr-db", "5"], "--out", 0),
            (["masks", "--L", "2", "--K", "2"], "pattern = bogus", ["--pattern", "bogus"], "--out", 2),
            (["graph", "--L", "2", "--K", "3"], "mode = sideways", ["--mode", "sideways"], "--report", 2),
            (["masks", "--L", "2", "--K", "3"], "lambda = 4", ["--lambda", "4"], "--out", 0),
            (["masks", "--L", "2", "--K", "3"], "time_bias = 4", ["--lambda", "4"], "--out", 0),
            (["masks", "--L", "2", "--K", "3"], "heads = 0", ["--heads", "0"], "--out", 1),
            (["beamform", "--channel", CHANNEL], "method = zf", ["--method", "zf"], "--csv", 0),
            (["beamform", "--channel", CHANNEL, "--method", "mmse"], "method = zf", [], "--csv", 0),
            (["beamform", "--channel", CHANNEL, "--meth", "mmse"], "method = zf", [], "--csv", 0),
            (["beamform", "--channel", CHANNEL, "--method", "zf"], "method = zf", [], "--csv", 0),
            (["masks", "--L", "2", "--K", "3"], "quiet = no", ["--quiet", "no"], "--out", 2),
            (["masks", "--L", "2", "--K", "3", "--pattern", "fixed"], "causal = true", ["--causal"], "--out", 0),
            (["masks", "--L", "2", "--K", "3", "--pattern", "fixed"], "causal = False", [], "--out", 0),
            (["sweep", "--realizations", "2", "--methods", "zf"], "snr-db = 1,abc", ["--snr-db", "1,abc"], "--out", 2),
            (["sweep", "--realizations", "2", "--methods", "zf"], "snr-db =", ["--snr-db", ""], "--out", 2),
            (["sweep", "--realizations", "2", "--snr-db", "5"], "methods = zf,bogus", ["--methods", "zf,bogus"], "--out", 2),
            (["sweep", "--realizations", "2", "--snr-db", "5"], "methods =", ["--methods", ""], "--out", 2),
            (["sweep", "--realizations", "2", "--snr-db", "5"], "methods = zf,zf", ["--methods", "zf,zf"], "--out", 2),
        ],
        ids=["int", "trials", "untyped", "pattern", "mode", "lambda", "time_bias", "range",
             "append", "explicit-append-wins", "abbreviated-append-wins", "explicit-append-replaces-same", "switch", "switch-true", "switch-false",
             "snr-list-not-numbers", "snr-list-empty", "method-list-unknown", "method-list-empty",
             "method-list-repeated"],
    )
    def test_config_equals_flag(self, tmp_path, capsys, channel_file, command, entry, flags, out_flag, expected):
        command = [str(channel_file) if token == CHANNEL else token for token in command]
        conf = tmp_path / "run.conf"
        conf.write_text(entry + "\n")
        via_config = _run_to_file([*command, "--config", str(conf)], out_flag, tmp_path / "config.out")
        config_err = capsys.readouterr().err
        via_flag = _run_to_file([*command, *flags], out_flag, tmp_path / "flag.out")
        assert via_config == via_flag
        assert via_config[0] == expected
        if expected == 0 and out_flag:
            assert via_config[1]
        if expected == 2:
            key, value = (part.strip() for part in entry.split("="))
            assert key in config_err and value in config_err
