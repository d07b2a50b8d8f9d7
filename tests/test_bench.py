"""Sweep harness: determinism, aggregation arithmetic, export formats,
and the batched cell engine against the scalar per-realization protocol."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from reference import sweep_points_reference

from sparsebeam import (
    OptimizerConfig,
    SweepConfig,
    bench,
    export_report,
    run_sweep,
)
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

    def test_equality_sees_timestamp_and_rates(self, small_result):
        assert dataclasses.replace(small_result, timestamp="t") != small_result
        points = list(small_result.points)
        points[1] = dataclasses.replace(points[1], mean_sum_rate=points[1].mean_sum_rate + 1e-12)
        assert dataclasses.replace(small_result, points=points) != small_result

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

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="once"):
            SweepConfig(methods=("zf", "zf"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(methods=("zf", "dirty"))
        with pytest.raises(ValueError):
            SweepConfig(realizations=0)
        with pytest.raises(ValueError):
            SweepConfig(snr_db_list=())
        for snr in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                SweepConfig(snr_db_list=(0.0, snr))

    @pytest.mark.parametrize("axis", ["rx_antennas", "users"])
    def test_empty_antenna_or_user_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=f"{axis} must be an integer >= 1"):
            SweepConfig(snr_db_list=(10.0,), velocity_ranges=((0.0, 10.0),), realizations=2, **{axis: 0})

    @pytest.mark.parametrize("field", ["realizations", "rx_antennas", "users"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0), "2", None],
                             ids=["2.5", "float", "True", "float64", "str", "None"])
    def test_counts_must_be_non_bool_integers(self, field, value):
        # a float or a bool used to construct and then die in the sweep
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SweepConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = SweepConfig(realizations=np.int64(3), rx_antennas=np.int32(4), users=np.uint8(2))
        assert (config.realizations, config.rx_antennas, config.users) == (3, 4, 2)

    @pytest.mark.parametrize("est_snr_db", [math.nan, -math.inf])
    def test_estimation_snr_must_be_finite_or_inf(self, est_snr_db):
        with pytest.raises(ValueError, match="est_snr_db must be finite or \\+inf"):
            SweepConfig(est_snr_db=est_snr_db)

    def test_zf_needs_as_many_antennas_as_users(self):
        # every zf draw would be singular, so the sweep would redraw in vain
        with pytest.raises(ValueError, match="zf needs rx_antennas >= users"):
            SweepConfig(rx_antennas=2, users=4, methods=("zf",))
        with pytest.raises(ValueError, match="zf needs rx_antennas >= users"):
            SweepConfig(rx_antennas=2, users=4)

    def test_regularized_methods_run_with_more_users_than_antennas(self):
        config = SweepConfig(
            snr_db_list=(10.0,), velocity_ranges=((0.0, 10.0),), rx_antennas=2, users=4, realizations=3,
            methods=("mmse", "opt"), optimizer=OptimizerConfig(iterations=2),
        )
        points = run_sweep(config, timestamp="t").points
        assert [p.method for p in points] == ["mmse", "opt"]
        for p in points:
            assert p.resampled == 0 and len(p.per_ue_mean_sinr) == 4
            assert math.isfinite(p.mean_sum_rate) and p.mean_sum_rate > 0


def _as_dicts(points):
    return [p.to_json_dict() for p in points]


# Each config stresses one axis of the engine; all use both velocity ranges.
ORACLE_CONFIGS = {
    "est_snr_10db": dict(est_snr_db=10.0),
    "one_user_four_antennas": dict(users=1, rx_antennas=4),
    "four_users_sixteen_antennas": dict(users=4, rx_antennas=16),
    "fd_gradient": dict(optimizer=OptimizerConfig(gradient="fd", iterations=3)),
}


class TestBatchedEngine:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_points_equal_scalar_reference(self, name):
        fields = dict(snr_db_list=(-5.0, 20.0), realizations=12, seed=17, optimizer=OptimizerConfig(iterations=20))
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
            optimizer=OptimizerConfig(iterations=2),
        )
        batched = run_sweep(config, timestamp="t").points
        assert [p.resampled for p in batched] == [1, 1, 1]
        assert _as_dicts(batched) == _as_dicts(sweep_points_reference(config))

    def test_resample_beyond_budget_raises_before_redraw(self, monkeypatch):
        # below 999 realizations one resample already exceeds 0.1% of the
        # cell's draws, so the singular realization is never drawn again
        original = bench._generate_true
        draws = []

        def lose_user_zero(*args, **kwargs):
            out = original(*args, **kwargs)
            draws.append(tuple(args[4].bit_generator.seed_seq.entropy[-2:]))
            if draws[-1] == (3, 0):
                out[..., 0] = 0.0
            return out

        monkeypatch.setattr(bench, "_generate_true", lose_user_zero)
        config = SweepConfig(snr_db_list=(10.0,), velocity_ranges=((30.0, 40.0),), realizations=12, methods=("zf",))
        with pytest.raises(RuntimeError, match="resample rate above 0.1%: 1 resamples"):
            run_sweep(config, timestamp="t")
        assert draws == [(r, 0) for r in range(12)]

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
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == small_result.to_json_dict()

    def test_unknown_format(self, small_result, tmp_path):
        with pytest.raises(ValueError):
            export_report(small_result, "xml", tmp_path / "x")

    def test_metadata_recorded(self, small_result):
        payload = small_result.to_json_dict()["metadata"]
        assert payload["seed"] == 123
        assert payload["version"] and payload["build"]

    def test_package_metadata_reads_the_one_version(self):
        import warnings

        from setuptools.config.pyprojecttoml import read_configuration

        import sparsebeam

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools flags its [tool.setuptools] table as beta
            project = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")["project"]
        assert project["version"] == sparsebeam.__version__


# (method, v_min, snr_db) -> (mean_sum_rate, stderr) of
# run_sweep(SweepConfig(realizations=8, seed=5)) under sparsebeam 0.1.0,
# whose rate was the per-user mean of the two users' rates.
PER_USER_MEAN_LOCK = {
    ('zf', 0.0, -10.0): (0.6922229546692766, 0.08102219395743286),
    ('mmse', 0.0, -10.0): (0.7578422925632298, 0.06821221851258735),
    ('opt', 0.0, -10.0): (0.7664369232393476, 0.068123512559027),
    ('zf', 0.0, -5.0): (1.7206086740403013, 0.03399113058370343),
    ('mmse', 0.0, -5.0): (1.764076183897768, 0.026728233446225616),
    ('opt', 0.0, -5.0): (1.7814688568930224, 0.027280223395379843),
    ('zf', 0.0, 0.0): (3.161460950855189, 0.10822240341344831),
    ('mmse', 0.0, 0.0): (3.1716628267938063, 0.10746852319390061),
    ('opt', 0.0, 0.0): (3.1907758404332798, 0.10718870841478437),
    ('zf', 0.0, 5.0): (4.234205093981412, 0.1864267664636077),
    ('mmse', 0.0, 5.0): (4.271353633191295, 0.17062113612760985),
    ('opt', 0.0, 5.0): (4.333214078854553, 0.17732750336372993),
    ('zf', 0.0, 10.0): (5.86730582316698, 0.1735947852512799),
    ('mmse', 0.0, 10.0): (5.872453535435869, 0.17418880343481935),
    ('opt', 0.0, 10.0): (5.984794158550422, 0.12105648889006808),
    ('zf', 0.0, 15.0): (7.456151793564664, 0.1491805440320202),
    ('mmse', 0.0, 15.0): (7.460673916142942, 0.1494746634502502),
    ('opt', 0.0, 15.0): (7.582891214394149, 0.12633577230751405),
    ('zf', 0.0, 20.0): (8.416098979631625, 0.34400444334988306),
    ('mmse', 0.0, 20.0): (8.412283174367028, 0.34566120481133233),
    ('opt', 0.0, 20.0): (8.589968926292581, 0.3377881261114386),
    ('zf', 30.0, -10.0): (0.5417974945587215, 0.057934163927931985),
    ('mmse', 30.0, -10.0): (0.5650503800578355, 0.06075166311105953),
    ('opt', 30.0, -10.0): (0.7918653841979411, 0.05342234666490376),
    ('zf', 30.0, -5.0): (1.2196554412112923, 0.12506976903976227),
    ('mmse', 30.0, -5.0): (1.231647876749796, 0.1227406864635511),
    ('opt', 30.0, -5.0): (1.6415187702023157, 0.08636490028319505),
    ('zf', 30.0, 0.0): (1.9939857859193428, 0.12796028321642222),
    ('mmse', 30.0, 0.0): (2.0218097787005367, 0.12002063592815627),
    ('opt', 30.0, 0.0): (2.6988987559653417, 0.08581686489665713),
    ('zf', 30.0, 5.0): (2.958993529372502, 0.1329577166584739),
    ('mmse', 30.0, 5.0): (2.960420684764515, 0.1335686261401065),
    ('opt', 30.0, 5.0): (4.496466742468578, 0.11101375160338584),
    ('zf', 30.0, 10.0): (3.702790420589615, 0.3716210483186489),
    ('mmse', 30.0, 10.0): (3.716143585896362, 0.3719055344234889),
    ('opt', 30.0, 10.0): (5.88666914128498, 0.14388332466871903),
    ('zf', 30.0, 15.0): (4.688354800206162, 0.3823369438253337),
    ('mmse', 30.0, 15.0): (4.687571723925153, 0.38183383511120333),
    ('opt', 30.0, 15.0): (7.429933611588275, 0.17096448999592703),
    ('zf', 30.0, 20.0): (4.353003100913507, 0.4084374046955877),
    ('mmse', 30.0, 20.0): (4.351985152429986, 0.40873058160974973),
    ('opt', 30.0, 20.0): (8.316730411769667, 0.21031979495374756),
}


class TestSumRateLock:
    def test_two_user_sweep_is_exactly_twice_the_per_user_mean(self):
        points = run_sweep(SweepConfig(realizations=8, seed=5), timestamp="t").points
        assert len(points) == len(PER_USER_MEAN_LOCK)
        for p in points:
            mean_rate, stderr = PER_USER_MEAN_LOCK[(p.method, p.v_min, p.snr_db)]
            assert (p.mean_sum_rate, p.stderr) == (2 * mean_rate, 2 * stderr), (p.method, p.v_min, p.snr_db)
