"""Sweep harness: determinism, aggregation arithmetic, export formats,
and the batched cell engine against the scalar per-realization protocol."""

import math

import pytest
from reference import sweep_points_reference

from sparsebeam import OptimizerConfig, SweepConfig, bench, export_report, load_report_json, run_sweep, sweep_optimizer_config
from sparsebeam.bench import CSV_HEADER, SweepResult


SMALL = SweepConfig(
    snr_db_list=(0.0, 20.0),
    velocity_ranges=((0.0, 10.0),),
    realizations=12,
    methods=("zf", "mmse"),
    seed=123,
)


@pytest.fixture(scope="module")
def small_result():
    return run_sweep(SMALL, timestamp="1970-01-01T00:00:00+00:00")


class TestRunSweep:
    def test_point_grid_shape(self, small_result):
        assert len(small_result.points) == 2 * 1 * 2  # methods x velocity x snr
        methods = {p.method for p in small_result.points}
        assert methods == {"zf", "mmse"}

    def test_repeat_is_identical(self, small_result):
        again = run_sweep(SMALL, timestamp="1970-01-01T00:00:00+00:00")
        assert again == small_result

    def test_mmse_at_least_zf_low_snr(self, small_result):
        by_key = {(p.method, p.snr_db): p for p in small_result.points}
        assert by_key[("mmse", 0.0)].mean_sum_rate >= by_key[("zf", 0.0)].mean_sum_rate - 3 * by_key[("zf", 0.0)].stderr

    def test_realization_counts_and_finiteness(self, small_result):
        for p in small_result.points:
            assert p.realizations == 12
            assert math.isfinite(p.mean_sum_rate) and math.isfinite(p.stderr)
            assert len(p.per_ue_mean_sinr) == 2
            assert p.resampled == 0

    def test_opt_beats_zf_at_high_snr_perfect_csi(self):
        cfg = SweepConfig(
            snr_db_list=(20.0,),
            velocity_ranges=((0.0, 10.0),),
            realizations=25,
            methods=("zf", "opt"),
            seed=7,
        )
        result = run_sweep(cfg, timestamp="t")
        by_method = {p.method: p.mean_sum_rate for p in result.points}
        assert by_method["opt"] >= by_method["zf"] - 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(methods=("zf", "dirty"))
        with pytest.raises(ValueError):
            SweepConfig(realizations=0)
        with pytest.raises(ValueError):
            SweepConfig(snr_db_list=())


def _as_dicts(points):
    return [p.to_json_dict() for p in points]


# Each config stresses one axis of the engine; all use both velocity ranges.
ORACLE_CONFIGS = {
    "est_snr_10db": dict(est_snr_db=10.0),
    "one_user_four_antennas": dict(users=1, rx_antennas=4),
    "four_users_sixteen_antennas": dict(users=4, rx_antennas=16),
    "fd_gradient": dict(optimizer=OptimizerConfig(gradient="fd", iterations=3)),
    "weights_random_init_no_lookahead": dict(
        optimizer=OptimizerConfig(
            gradient="analytic", iterations=20, optimize_weights=True, lookahead_every=0
        )
    ),
}


class TestBatchedEngine:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_points_equal_scalar_reference(self, name):
        fields = dict(snr_db_list=(-5.0, 20.0), realizations=12, seed=17, optimizer=sweep_optimizer_config(20))
        fields.update(ORACLE_CONFIGS[name])
        config = SweepConfig(**fields)
        assert _as_dicts(run_sweep(config, timestamp="t").points) == _as_dicts(sweep_points_reference(config))

    def test_forced_resample_matches_reference(self, monkeypatch):
        # realization 3's first draw loses user 0, so ZF is singular there;
        # 1000 realizations keep one resample inside the 0.1% budget
        original = bench._generate_true

        def lose_user_zero(*args, **kwargs):
            out = original(*args, **kwargs)
            if tuple(args[4].bit_generator.seed_seq.entropy[-2:]) == (3, 0):
                out[..., 0] = 0.0
            return out

        monkeypatch.setattr(bench, "_generate_true", lose_user_zero)
        config = SweepConfig(
            snr_db_list=(10.0,),
            velocity_ranges=((30.0, 40.0),),
            realizations=1000,
            seed=2,
            optimizer=sweep_optimizer_config(2),
        )
        batched = run_sweep(config, timestamp="t").points
        assert [p.resampled for p in batched] == [1, 1, 1]
        assert _as_dicts(batched) == _as_dicts(sweep_points_reference(config))

    def test_more_users_than_antennas_exhausts_attempts(self):
        config = SweepConfig(
            snr_db_list=(10.0,), velocity_ranges=((0.0, 10.0),), rx_antennas=2, users=4, realizations=2, methods=("zf",)
        )
        with pytest.raises(RuntimeError, match="64 attempts"):
            run_sweep(config, timestamp="t")

    def test_progress_once_per_cell(self):
        calls = []
        run_sweep(SMALL, timestamp="t", progress=lambda vr, snr: calls.append((vr, snr)))
        assert calls == [((0.0, 10.0), 0.0), ((0.0, 10.0), 20.0)]


class TestExportReport:
    def test_csv_columns_and_rows(self, small_result, tmp_path):
        path = tmp_path / "sweep.csv"
        export_report(small_result, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER == "method,snr_db,v_min,v_max,mean_sum_rate,stderr,realizations"
        assert len(lines) == 1 + len(small_result.points)

    def test_csv_byte_identical_across_runs(self, small_result, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_report(small_result, "csv", a)
        export_report(run_sweep(SMALL, timestamp="ignored"), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_result_header_only(self, tmp_path):
        empty = SweepResult(points=[], seed=0, version="v", build="b", timestamp="t")
        path = tmp_path / "empty.csv"
        export_report(empty, "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_json_round_trip(self, small_result, tmp_path):
        path = tmp_path / "sweep.json"
        export_report(small_result, "json", path)
        assert load_report_json(path) == small_result

    def test_unknown_format(self, small_result, tmp_path):
        with pytest.raises(ValueError):
            export_report(small_result, "xml", tmp_path / "x")

    def test_metadata_recorded(self, small_result):
        payload = small_result.to_json_dict()["metadata"]
        assert payload["seed"] == 123
        assert payload["version"] and payload["build"]
