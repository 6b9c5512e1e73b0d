import dataclasses
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from test_csv_equivalence import reference_cmd_region
from zrbr import harness
from zrbr.cli import main
from zrbr.config import SimConfig
from zrbr.evolution import run_simulation
from zrbr.errors import ConfigurationError, ZRBRError
from zrbr.exponents import RegionScan, region_scan
from zrbr.harness import (
    EXIT_CAP_EXCEEDED,
    EXIT_OK,
    EXIT_VALIDATION,
    INEQUALITY_CAPS,
    SNAPSHOT_MAGIC,
    cmd_epsilon_scaling,
    cmd_fuzz,
    cmd_norms,
    cmd_picard,
    cmd_region,
    cmd_simulate,
    config_from_dict,
    format_float,
    load_config,
    read_snapshot,
    write_snapshot,
)
from zrbr.model import ModelParams, ZRState
from zrbr.spectral import ComplexField, Grid, to_physical

BASE_DOC = {
    "dim": 2,
    "n": 16,
    "length": 4 * np.pi,
    "dt": 1e-3,
    "t_end": 0.02,
    "sigma2": -1.0,
    "W": 1.0,
    "D": 0.5,
    "epsilon": 1.0,
    "recipe": "gaussian",
    "width": 1.0,
    "normalize_h1": 1.0,
    "diagnostics_stride": 5,
}


def write_config(tmp_path, doc=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc if doc is not None else BASE_DOC))
    return str(path)


class TestConfigLoading:
    def test_unknown_keys_are_hard_errors(self):
        with pytest.raises(ConfigurationError, match="typo_key"):
            config_from_dict({**BASE_DOC, "typo_key": 1})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/cfg.json")
        # a directory raised a raw IsADirectoryError
        with pytest.raises(ConfigurationError, match=f"{tmp_path}.*cannot be read"):
            load_config(str(tmp_path))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(str(p))
        # bytes that are not UTF-8 raised a raw UnicodeDecodeError
        p.write_bytes(b'{"n": \xff\xfe}')
        with pytest.raises(ConfigurationError, match=f"{p} is not valid JSON"):
            load_config(str(p))
        # a repeated key ran its last value
        p.write_text('{"n": 32, "n": 64}')
        with pytest.raises(ConfigurationError, match="repeats the key 'n'"):
            load_config(str(p))

    def test_echo_round_trips_input(self):
        cfg, echo = config_from_dict(BASE_DOC)
        assert echo == BASE_DOC
        assert cfg.params.sigma2 == -1.0

    def test_seed_override(self):
        doc = {**BASE_DOC, "recipe": "random-band-limited", "seed": 1}
        cfg, echo = config_from_dict(doc, seed_override=99)
        assert cfg.seed == 99
        assert echo["seed"] == 99
        # int() ran 2.7 as seed 2, True as 1, "3" as 3 and 4.9 as 4
        for seed in (2.7, True, "3", np.float64(4.9)):
            with pytest.raises(ConfigurationError, match="seed must be an integer"):
                config_from_dict(doc, seed_override=seed)


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=1e8, size=50):
        assert float(format_float(x)) == x
    assert float(format_float(0.1)) == 0.1


class TestSnapshots:
    def test_write_read_roundtrip_exact(self, tmp_path):
        grid = Grid(2, 8, 5.0)
        rng = np.random.default_rng(1)
        st = ZRState(
            ComplexField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)),
            ComplexField(grid, rng.normal(size=grid.shape) + 0j),
            ComplexField(grid, rng.normal(size=grid.shape) + 0j),
        )
        path = str(tmp_path / "state.bin")
        write_snapshot(path, st)
        back = read_snapshot(path)
        np.testing.assert_array_equal(back.psi.values, st.psi.values)
        np.testing.assert_array_equal(back.rho.values, st.rho.values)
        assert back.grid == grid

    @staticmethod
    def _snapshot_bytes(tmp_path, dim=2):
        grid = Grid(dim, 8, 5.0)
        rng = np.random.default_rng(2)
        st = ZRState(*(ComplexField(grid, rng.normal(size=grid.shape) + 0j) for _ in range(3)))
        path = str(tmp_path / "good.bin")
        write_snapshot(path, st)
        with open(path, "rb") as fh:
            return fh.read()

    def _read_bytes(self, tmp_path, data):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        return read_snapshot(str(path))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_truncated_header_rejected(self, tmp_path, dim):
        data = self._snapshot_bytes(tmp_path, dim)
        header = 12 + 4 * dim + 8
        for cut in (6, 12, 14, header - 1):
            with pytest.raises(ConfigurationError, match="header is truncated"):
                self._read_bytes(tmp_path, data[:cut])

    def test_truncated_field_rejected(self, tmp_path):
        data = self._snapshot_bytes(tmp_path)
        # inside the first field, and one byte short of the last
        for cut in (len(data) // 4, len(data) - 1):
            with pytest.raises(ConfigurationError, match="truncated"):
                self._read_bytes(tmp_path, data[:cut])

    def test_trailing_bytes_rejected(self, tmp_path):
        data = self._snapshot_bytes(tmp_path)
        with pytest.raises(ConfigurationError, match="trailing bytes"):
            self._read_bytes(tmp_path, data + bytes(16))

    def test_non_cubic_shape_rejected(self, tmp_path):
        # a well-sized body for an 8 x 16 grid, which Grid(2, 8) cannot hold
        data = (SNAPSHOT_MAGIC + struct.pack("<IIIId", 1, 2, 8, 16, 5.0)
                + bytes(3 * 16 * 8 * 16))
        with pytest.raises(ConfigurationError, match="not cubic"):
            self._read_bytes(tmp_path, data)

    @pytest.mark.parametrize("length", [float("inf"), float("nan")])
    def test_non_finite_length_rejected(self, tmp_path, length):
        # an inf length read back as a state on an infinite box
        data = (SNAPSHOT_MAGIC + struct.pack("<IIIId", 1, 2, 8, 8, length)
                + bytes(3 * 16 * 8 * 8))
        with pytest.raises(ConfigurationError, match="^length must be finite"):
            self._read_bytes(tmp_path, data)

    def test_bad_dimension_rejected(self, tmp_path):
        data = SNAPSHOT_MAGIC + struct.pack("<IIIIIId", 1, 4, 8, 8, 8, 8, 5.0)
        with pytest.raises(ConfigurationError, match="dimension"):
            self._read_bytes(tmp_path, data)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ConfigurationError):
            read_snapshot(str(path))

    @pytest.mark.parametrize("space", ["physical", "frequency"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_gives_physical_fields_exactly(self, tmp_path, seed, dim, space):
        # seeded grids and full-spectrum fields in either representation
        rng = np.random.default_rng(seed)
        grid = Grid(dim, int(rng.choice([4, 8])), float(rng.uniform(1.0, 30.0)))
        st = ZRState(*(ComplexField(grid, rng.normal(size=grid.shape)
                                    + 1j * rng.normal(size=grid.shape), space)
                       for _ in range(3)))
        path = str(tmp_path / "state.bin")
        write_snapshot(path, st)
        back = read_snapshot(path)
        assert back.grid == grid
        for name in ("psi", "rho", "phi"):
            field = getattr(back, name)
            assert field.space == "physical"
            assert field.values.tobytes() == to_physical(getattr(st, name)).values.tobytes()


class TestHorizon:
    def test_horizon_must_be_whole_steps(self, tmp_path):
        # 1.0 / 0.3 steps would silently stop at t = 0.9.
        doc = {**BASE_DOC, "dt": 0.3, "t_end": 1.0}
        with pytest.raises(ConfigurationError, match="whole number of steps"):
            config_from_dict(doc)
        argv = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "simulate"]
        assert main(argv) == EXIT_VALIDATION


class TestNonFiniteConfig:
    @pytest.mark.parametrize("key, value, reason", [
        ("dt", float("nan"), "finite"),
        ("dt", float("inf"), "finite"),
        ("t_end", float("nan"), "finite"),
        ("t_end", float("inf"), "finite"),
        ("blowup_factor", float("nan"), "finite"),
        ("blowup_factor", float("inf"), "finite"),
        ("blowup_factor", 0.0, "positive"),
        ("blowup_factor", -2.0, "positive"),
    ])
    def test_rejected_by_name(self, tmp_path, key, value, reason):
        doc = {**BASE_DOC, key: value}
        with pytest.raises(ConfigurationError, match=f"{key} must be {reason}"):
            config_from_dict(doc)
        argv = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "simulate"]
        assert main(argv) == EXIT_VALIDATION


class TestConfigTypes:
    @pytest.mark.parametrize("key, value, kind", [
        ("dt", "0.1", "a number"),
        ("diagnostics_stride", 1.5, "an integer"),
        ("n", True, "an integer"),
        ("dt", True, "a number"),
        ("sigma2", False, "a number"),
        ("dealias", 1, "true or false"),
        ("recipe", 3, "a string"),
        ("mode", "x", "a list"),
        ("dt", None, "a number"),
        ("dim", None, "an integer"),
    ])
    def test_wrong_type_rejected(self, tmp_path, key, value, kind):
        doc = {**BASE_DOC, key: value}
        with pytest.raises(ConfigurationError, match=f"{key} must be {kind}"):
            config_from_dict(doc)
        argv = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "simulate"]
        assert main(argv) == EXIT_VALIDATION

    @pytest.mark.parametrize("mode", [["a", 1], [1.5, 0], [True, 0]])
    def test_mode_components_must_be_integers(self, tmp_path, mode):
        doc = {**BASE_DOC, "recipe": "plane-wave", "mode": mode}
        with pytest.raises(ConfigurationError, match="mode components must be integers"):
            config_from_dict(doc)
        argv = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "simulate"]
        assert main(argv) == EXIT_VALIDATION

    def test_int_for_float_and_null_where_default_is_none(self):
        cfg, _ = config_from_dict({**BASE_DOC, "t_end": 1, "dt": 1, "length": 12,
                                   "normalize_h1": None, "seed": None})
        assert cfg.t_end == 1.0 and cfg.length == 12.0
        assert cfg.normalize_h1 is None and cfg.seed is None


class TestNonFinitePhysics:
    @pytest.mark.parametrize("key, value, reason", [
        ("sigma2", float("nan"), "sigma2 must be finite"),
        ("sigma2", float("inf"), "sigma2 must be finite"),
        ("D", float("nan"), "D must be finite"),
        ("D", float("-inf"), "D must be finite"),
        ("W", float("inf"), "W must be finite"),
        ("epsilon", float("inf"), "epsilon must be finite"),
        ("length", float("inf"), "length must be finite"),
        ("length", float("nan"), "length must be finite"),
        ("length", 0.0, "length must be positive"),
        ("width", 0.0, "width must be positive"),
        ("width", -1.0, "width must be positive"),
        ("width", float("nan"), "width must be finite"),
        ("amplitude", float("nan"), "amplitude must be finite"),
        ("amplitude", float("inf"), "amplitude must be finite"),
        ("normalize_h1", float("nan"), "normalize_h1 must be finite"),
        ("normalize_h1", -2.0, "normalize_h1 must be positive"),
        ("normalize_h1", 0.0, "normalize_h1 must be positive"),
    ])
    def test_rejected_by_name(self, tmp_path, key, value, reason):
        doc = {**BASE_DOC, key: value}
        with pytest.raises(ZRBRError, match=reason):
            config_from_dict(doc)
        argv = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "simulate"]
        assert main(argv) == EXIT_VALIDATION


class TestSimulate:
    def test_zero_horizon_emits_single_row(self, tmp_path):
        cfg, echo = config_from_dict({**BASE_DOC, "t_end": 0.0})
        code, report = cmd_simulate(cfg, echo, str(tmp_path / "out"))
        assert code == EXIT_OK
        csv = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
        assert len(csv) == 2  # header + t=0 row
        assert report["payload"]["n_rows"] == 1

    def test_runs_are_byte_identical(self, tmp_path):
        for tag in ("a", "b"):
            cfg, echo = config_from_dict(BASE_DOC)
            cmd_simulate(cfg, echo, str(tmp_path / tag))
        assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (
            tmp_path / "b" / "diagnostics.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_divergence_reported_with_exit_code(self, tmp_path):
        cfg, echo = config_from_dict({**BASE_DOC, "blowup_factor": 0.5, "t_end": 0.01})
        code, report = cmd_simulate(cfg, echo, str(tmp_path / "out"))
        assert code == 3
        assert report["payload"]["diverged_at"] is not None


    def test_divergence_payload_names_field_and_factor(self, tmp_path):
        _, report = cmd_simulate(*config_from_dict(BASE_DOC), str(tmp_path / "a"))
        assert report["payload"]["diverged_field"] is None
        assert report["payload"]["growth_factor"] is None

        doc = {**BASE_DOC, "blowup_factor": 0.5, "t_end": 0.01}
        for tag in ("b", "c"):
            code, report = cmd_simulate(*config_from_dict(doc), str(tmp_path / tag))
            assert code == 3
        payload = report["payload"]
        assert list(payload)[-2:] == ["diverged_field", "growth_factor"]
        assert payload["diverged_field"] == "psi"
        assert payload["growth_factor"] > 0.5
        saved = json.loads((tmp_path / "c" / "report.json").read_text())["payload"]
        assert saved["diverged_field"] == payload["diverged_field"]
        assert saved["growth_factor"] == payload["growth_factor"]
        assert (tmp_path / "b" / "report.json").read_bytes() == (
            tmp_path / "c" / "report.json"
        ).read_bytes()

    def test_drift_and_step_phase_in_report(self, tmp_path, fft_calls):
        cfg, echo = config_from_dict(BASE_DOC)
        run_simulation(cfg)
        run_ffts = len(fft_calls)
        fft_calls.clear()
        _, report = cmd_simulate(cfg, echo, str(tmp_path / "a"))
        assert len(fft_calls) == run_ffts  # the report keys take no FFT
        payload = report["payload"]
        lines = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        for key, column in (("mass_drift", 1), ("energy_drift", 2)):
            x = rows[:, column]
            assert payload[key] == pytest.approx(np.max(np.abs(x - x[0])) / abs(x[0]), rel=1e-12)
        assert 0.0 < payload["mass_drift"] < 1e-10
        assert payload["energy_drift"] > 0.0
        # 16 points on 4 pi: the Nyquist corner has |xi|^2 = 2 * 4^2
        assert payload["dt_xi2_max"] == pytest.approx(1e-3 * 32.0, rel=1e-15)
        saved = json.loads((tmp_path / "a" / "report.json").read_text())["payload"]
        assert {k: saved[k] for k in ("mass_drift", "energy_drift", "dt_xi2_max")} == {
            k: payload[k] for k in ("mass_drift", "energy_drift", "dt_xi2_max")}

        _, report = cmd_simulate(*config_from_dict({**BASE_DOC, "recipe": "zero"}),
                                 str(tmp_path / "b"))
        assert report["payload"]["mass_drift"] is None
        assert report["payload"]["energy_drift"] is None
        saved = (tmp_path / "b" / "report.json").read_text()
        assert '"mass_drift": null' in saved and '"energy_drift": null' in saved

    def test_report_names_configured_blowup_factor(self, tmp_path):
        _, report = cmd_simulate(*config_from_dict(BASE_DOC), str(tmp_path / "a"))
        assert report["divergence_proxy"] == (
            "sup-norm growth factor 1e6 over the initial field"
        )
        doc = {**BASE_DOC, "blowup_factor": 0.5, "t_end": 0.01}
        _, report = cmd_simulate(*config_from_dict(doc), str(tmp_path / "b"))
        assert report["divergence_proxy"] == (
            "sup-norm growth factor 0.5 over the initial field"
        )
        _, report = cmd_epsilon_scaling(*config_from_dict(doc), [1.0, 0.5], str(tmp_path / "c"))
        assert report["divergence_proxy"] == (
            "sup-norm growth factor 0.5 over the initial field"
        )


def test_reports_without_a_proxy_do_not_name_one(tmp_path):
    """Only simulate and epsilon-scaling run the divergence proxy."""
    cfg, echo = config_from_dict({**BASE_DOC, "normalize_h1": 1e-3})
    reports = [
        cmd_region(2, 1e-2, str(tmp_path / "region"))[1],
        cmd_fuzz(10, 0, str(tmp_path / "fuzz"))[1],
        cmd_picard(cfg, echo, [0.1], 2, str(tmp_path / "picard"), n_time=16)[1],
        cmd_norms("zero", 1.0, 0.6, "schrodinger", 0, str(tmp_path / "norms"))[1],
    ]
    for report in reports:
        assert "divergence_proxy" not in report
        saved = json.loads((tmp_path / report["command"] / "report.json").read_text())
        assert "divergence_proxy" not in saved



def _written(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("command, args", [
    (cmd_region, (np.int64(2), 1e-2)),
    (cmd_fuzz, (np.int64(10), 0)),
    (cmd_fuzz, (10, np.int64(0))),
    (cmd_norms, ("random-band-limited", 1.0, 0.6, "schrodinger", np.int64(0))),
], ids=["region-d", "fuzz-n", "fuzz-seed", "norms-seed"])
def test_numpy_integer_arguments_write_the_same_bytes(tmp_path, command, args):
    # The validators accept numpy integers, so the report writer must too.
    plain = tuple(int(a) if isinstance(a, np.integer) else a for a in args)
    command(*plain, str(tmp_path / "plain"))
    command(*args, str(tmp_path / "numpy"))
    written = _written(tmp_path / "numpy")
    assert "report.json" in written
    assert written == _written(tmp_path / "plain")


class TestEpsilonScaling:
    def test_constant_proxy_and_zero_slope(self, tmp_path):
        cfg, echo = config_from_dict(BASE_DOC)
        code, report = cmd_epsilon_scaling(cfg, echo, [1.0, 0.5], str(tmp_path / "out"))
        assert code == EXIT_OK
        rows = report["payload"]["rows"]
        assert [r["T_proxy"] for r in rows] == [BASE_DOC["t_end"]] * 2
        assert report["payload"]["alpha_hat"] == 0.0
        assert report["payload"]["t_proxy_nondecreasing"]

    def test_runs_differ_from_config_only_in_epsilon(self, tmp_path, monkeypatch):
        doc = {**BASE_DOC, "blowup_factor": 50.0, "dealias": False, "seed": 4}
        cfg, echo = config_from_dict(doc)
        cfg.params = dataclasses.replace(cfg.params, D=0.3)
        seen = []
        monkeypatch.setattr(harness, "run_simulation", seen.append)
        cmd_epsilon_scaling(cfg, echo, [1.0, 0.25], str(tmp_path / "out"))
        assert [c.params.epsilon for c in seen] == [1.0, 0.25]
        for run in seen:
            assert dataclasses.replace(run, params=cfg.params) == cfg
            assert dataclasses.replace(run.params, epsilon=cfg.params.epsilon) == cfg.params

    def test_progress_on_stderr_and_outputs_byte_identical(self, tmp_path, capsys):
        # one stderr line per epsilon, with its T_proxy (both runs diverge);
        # report.json and epsilon_scaling.csv gain nothing from it
        cfg, echo = config_from_dict({**BASE_DOC, "dt": 1e-2, "t_end": 2.0, "amplitude": 2.0,
                                      "normalize_h1": None, "blowup_factor": 3.0})
        for tag in ("a", "b"):
            _, report = cmd_epsilon_scaling(cfg, echo, [2.0, 0.5], str(tmp_path / tag))
            lines = capsys.readouterr().err.splitlines()
            rows = report["payload"]["rows"]
            assert 0.0 < rows[0]["T_proxy"] < rows[1]["T_proxy"] < cfg.t_end
            assert lines == [f"epsilon-scaling epsilon={r['epsilon']:g}: run {k}/2, "
                             f"T_proxy {r['T_proxy']:g}" for k, r in enumerate(rows, 1)]
        for name in ("report.json", "epsilon_scaling.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_list_must_descend(self, tmp_path):
        cfg, echo = config_from_dict(BASE_DOC)
        with pytest.raises(ConfigurationError):
            cmd_epsilon_scaling(cfg, echo, [0.5, 1.0], str(tmp_path / "out"))
        with pytest.raises(ConfigurationError):
            cmd_epsilon_scaling(cfg, echo, [], str(tmp_path / "out"))


class TestRegionCommand:
    def test_csv_row_count_matches_lattice(self, tmp_path):
        res = 5e-3
        code, report = cmd_region(2, res, str(tmp_path / "out"))
        assert code == EXIT_OK
        n_b1 = len(np.arange(0.5 + res, 1.0, res))
        n_b2 = len(np.arange(0.0, 0.5 + 0.5 * res, res))
        lines = (tmp_path / "out" / "region_d2.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == n_b1 * n_b2
        assert report["payload"]["reference_box_contained"]

    def test_d3_report_carries_witnesses(self, tmp_path):
        _, report = cmd_region(3, 5e-3, str(tmp_path / "out"))
        assert not report["payload"]["reference_box_contained"]
        assert report["payload"]["witnesses"]

    def test_coarse_resolution_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_region(2, 0.05, str(tmp_path / "out"))

    # 1e-6 is a lattice of 2.5e11 samples, over region_scan's cap: it is
    # refused before any array is made
    @pytest.mark.parametrize("resolution", ["0", "nan", "-0.001", "inf", "0.05", "1e-6"])
    def test_bad_resolution_exit_code(self, tmp_path, resolution):
        out = tmp_path / "out"
        argv = ["--out", str(out), "region", "--d", "2", "--resolution", resolution]
        assert main(argv) == EXIT_VALIDATION
        assert not (out / "region_d2.csv").exists()

    def test_csv_builds_no_per_sample_string(self, tmp_path, monkeypatch):
        # cmd_region writes the violated ids from the scan's codes; the list
        # of per-sample strings is never built
        def refuse(_scan):
            raise AssertionError("violated_ids read")

        monkeypatch.setattr(RegionScan, "violated_ids", property(refuse))
        cmd_region(3, 5e-3, str(tmp_path / "new"))
        reference_cmd_region(3, 5e-3, str(tmp_path / "ref"))
        for name in ("region_d3.csv", "report.json"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_holds_the_scan_and_one_row_of_text(self, tmp_path):
        # The call perfbench's verify workload times.  The CSV is written one
        # b1 row at a time, so the traced peak is region_scan's result plus
        # one block of the scan (about 2 MiB) or one row's text (about
        # 0.1 MiB); the whole table's text, or the scan's whole-lattice
        # temporaries, would add more than 30 MiB.
        tracemalloc.start()
        try:
            scan = region_scan(3, 1e-3)
            result = tracemalloc.get_traced_memory()[0]
            del scan
            tracemalloc.reset_peak()
            cmd_region(3, 1e-3, str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result + 3 * 2**20


class TestFuzzCommand:
    def test_deterministic_reports(self, tmp_path):
        for tag in ("a", "b"):
            cmd_fuzz(200, 77, str(tmp_path / tag))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_progress_line_per_dimension_inequality_and_branch(self, tmp_path, capsys):
        _, report = cmd_fuzz(50, 1, str(tmp_path / "out"))
        assert capsys.readouterr().err.splitlines() == [
            f"fuzz d={r['d']}: {r['inequality']} branch {r['branch']}, max ratio "
            f"{r['max_ratio']:.6g} (cap {r['cap']:g})" for r in report["payload"]["results"]]
        assert len(report["payload"]["results"]) == 16

    def test_cap_exceeded_signals_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setitem(INEQUALITY_CAPS, "ineq1", 1e-12)
        code, report = cmd_fuzz(50, 1, str(tmp_path / "out"))
        assert code == EXIT_CAP_EXCEEDED
        flagged = [r for r in report["payload"]["results"] if not r["within_cap"]]
        assert flagged

    def test_known_false_ineq3_does_not_decide_exit_code(self, tmp_path, monkeypatch):
        # ineq3 over its default cap, as the resonant witness (1+|xi|^2)/3 at
        # |xi| = 10 puts it; every other result is the real fuzz at small n
        fuzz = harness.verify_symbolic_inequalities

        def resonant_ineq3(n, seed, d, progress):
            return [dataclasses.replace(r, max_ratio=101.0 / 3.0) if r.inequality == "ineq3"
                    else r for r in fuzz(n, seed, d)]

        monkeypatch.setattr(harness, "verify_symbolic_inequalities", resonant_ineq3)
        code, report = cmd_fuzz(200, 77, str(tmp_path / "out"))
        assert code == EXIT_OK
        results = report["payload"]["results"]
        over = [r for r in results if not r["within_cap"]]
        assert len(over) == 4  # d = 2, 3 and both branches
        assert all(r["inequality"] == "ineq3" and r["known_false"] for r in over)
        assert not any(r["known_false"] for r in results if r["inequality"] != "ineq3")
        assert "(1+|xi|^2)/3" in report["payload"]["known_false"]["ineq3"]


class TestPicardCommand:
    def test_contraction_table(self, tmp_path):
        doc = {**BASE_DOC, "normalize_h1": 1e-3, "t_end": 0.0}
        cfg, echo = config_from_dict(doc)
        code, report = cmd_picard(cfg, echo, [0.1], 3, str(tmp_path / "out"), n_time=32)
        assert code == EXIT_OK
        per_T = report["payload"]["per_T"]
        assert len(per_T) == 1
        assert per_T[0]["contraction_factor"] < 1.0

    def test_component_diffs_table(self, tmp_path):
        doc = {**BASE_DOC, "normalize_h1": 1e-3, "t_end": 0.0}
        cfg, echo = config_from_dict(doc)
        for tag in ("a", "b"):
            _, report = cmd_picard(cfg, echo, [0.1, 0.2], 3, str(tmp_path / tag), n_time=32)
        for row in report["payload"]["per_T"]:
            table = row["component_diffs"]
            assert sorted(table) == sorted(
                ["psi", "rho_plus", "rho_minus", "varphi_plus", "varphi_minus"])
            assert [max(d) for d in zip(*table.values())] == row["diffs"]
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_progress_on_stderr_and_outputs_byte_identical(self, tmp_path, capsys):
        # one stderr line per T and iteration, with its largest difference;
        # report.json and picard.csv gain nothing from it
        cfg, echo = config_from_dict({**BASE_DOC, "normalize_h1": 1e-3, "t_end": 0.0})
        for tag in ("a", "b"):
            _, report = cmd_picard(cfg, echo, [0.1, 0.2], 3, str(tmp_path / tag), n_time=32)
            lines = capsys.readouterr().err.splitlines()
            assert [line.split(",")[0] for line in lines] == [
                f"picard T={T}: iteration {k}/3" for T in (0.1, 0.2) for k in (1, 2, 3)]
            shown = [float(line.rsplit(" ", 1)[1]) for line in lines]
            diffs = [d for row in report["payload"]["per_T"] for d in row["diffs"]]
            assert shown == pytest.approx(diffs, rel=1e-3)
        for name in ("report.json", "picard.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_peak_stays_under_five_window_stacks(self, tmp_path):
        # three Duhamel stacks, the groups at t >= 0 (one stack) and a block
        # of workspace; the whole-window iteration held about seventeen
        cfg, echo = config_from_dict({**BASE_DOC, "n": 64, "length": 16 * np.pi,
                                      "normalize_h1": 1e-3, "t_end": 0.0})
        stack = 256 * 64**2 * 16  # bytes of one (n_time, 64, 64) complex stack
        tracemalloc.start()
        try:
            cmd_picard(cfg, echo, [0.05], 4, str(tmp_path / "out"), n_time=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * stack

    @pytest.mark.parametrize("iters", ["0", "-1", "1"])
    def test_fewer_than_two_iterations_exit_code(self, tmp_path, capsys, iters):
        # With fewer than two differences there is no ratio to report.
        doc = {**BASE_DOC, "normalize_h1": 1e-3, "t_end": 0.0}
        out = tmp_path / "out"
        argv = ["--config", write_config(tmp_path, doc), "--out", str(out),
                "picard", "--iters", iters, "--n-time", "8"]
        assert main(argv) == EXIT_VALIDATION
        assert "at least 2 iterations" in capsys.readouterr().err
        assert not out.exists()


class TestNormsCommand:
    def test_zero_recipe_all_zero(self, tmp_path):
        code, report = cmd_norms("zero", 1.0, 0.6, "schrodinger", 0, str(tmp_path / "out"))
        assert code == EXIT_OK
        p = report["payload"]
        assert p["xsb_norm"] == 0.0
        assert p["ys_norm"] == 0.0
        assert p["embedding_ratio"] == 0.0

    @pytest.mark.parametrize("recipe, calls", [
        ("cutoff-free", ["fft", "ifftn"]),
        ("random-band-limited", ["ifft", "fft", "ifftn"]),
    ], ids=["cutoff-free", "random-band-limited"])
    def test_each_transform_taken_once(self, tmp_path, fft_calls, recipe, calls):
        # the generator's time inverse, one time fft of the spatial
        # coefficients for xsb_norm and ys_norm, and the mixed norm's values
        cmd_norms(recipe, 1.0, 0.6, "schrodinger", 0, str(tmp_path / "out"))
        assert fft_calls == calls

    def test_unknown_recipe_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_norms("fractal", 1.0, 0.6, "schrodinger", 0, str(tmp_path / "out"))

    @pytest.mark.parametrize("recipe", ["cutoff-free", "random-band-limited"])
    def test_negative_seed_rejected(self, tmp_path, recipe):
        with pytest.raises(ConfigurationError, match=r"seed must be an integer >= 0, got -1"):
            cmd_norms(recipe, 1.0, 0.6, "schrodinger", -1, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_unknown_dispersion_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cmd_norms("zero", 1.0, 0.6, "elastic", 0, str(tmp_path / "out"))

    @pytest.mark.parametrize("option, value", [
        ("--s", "nan"), ("--s", "inf"), ("--s", "-inf"), ("--b", "nan"), ("--b", "inf"),
    ])
    def test_non_finite_exponent_exit_code(self, tmp_path, capsys, option, value):
        out = tmp_path / "out"
        assert main(["--out", str(out), "norms", f"{option}={value}"]) == EXIT_VALIDATION
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, at", [
        (["--s", "200"], "s=200, b=0.6"),
        (["--b", "400"], "s=1, b=400"),
        (["--s", "1", "--b", "100"], "s=1, b=100"),
    ])
    def test_overflowing_weight_exit_code(self, tmp_path, capsys, argv, at):
        # The X^{s,b} weight overflows float64: a named error, not NaN or
        # Infinity in a report that is no longer JSON (nor a RuntimeWarning,
        # which pytest makes an error).
        out = tmp_path / "out"
        assert main(["--out", str(out), "norms", *argv]) == EXIT_VALIDATION
        assert f"error: X^{{s,b}} norm overflows float64 at {at}\n" in capsys.readouterr().err
        assert not out.exists()


class TestCli:
    def test_validation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {**BASE_DOC, "bogus": 1})
        assert main(["--config", path, "simulate"]) == EXIT_VALIDATION
        # each exited 1 with a raw error, or (the repeated key) ran n = 64
        binary, repeated = tmp_path / "binary.json", tmp_path / "repeated.json"
        binary.write_bytes(bytes(range(128, 256)))
        repeated.write_text('{"n": 32, "n": 64}')
        for config, named in ((binary, binary), (tmp_path, tmp_path), (repeated, "'n'")):
            capsys.readouterr()
            assert main(["--config", str(config), "simulate"]) == EXIT_VALIDATION
            assert str(named) in capsys.readouterr().err
        argv = ["--out", path, "region", "--d", "2", "--resolution", "1e-2"]
        assert main(argv) == EXIT_VALIDATION
        assert f"output path {path} is not a directory" in capsys.readouterr().err
        # a report.json that is a directory exited 1 with a raw IsADirectoryError
        (tmp_path / "taken" / "report.json").mkdir(parents=True)
        argv[1] = str(tmp_path / "taken")
        assert main(argv) == EXIT_VALIDATION
        assert f"output file {argv[1]}/report.json is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate"], ["region", "--d", "2"], ["fuzz", "--n", "10"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_file_refused_before_any_step(self, tmp_path, capsys, monkeypatch,
                                              command, under):
        # refused before the command runs: a step that runs fails the test
        def entered(*args, **kwargs):
            raise AssertionError("a step ran")

        for name in ("run_simulation", "region_scan", "verify_symbolic_inequalities"):
            monkeypatch.setattr(harness, name, entered)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = str(taken / "sub") if under else str(taken)
        argv = ["--config", write_config(tmp_path), "--out", out, *command]
        assert main(argv) == EXIT_VALIDATION
        assert f"output path {out} is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "kept" and sorted(os.listdir(tmp_path)) == \
            ["cfg.json", "taken"]

    def test_threads_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["--threads", "2", "simulate"])
        assert err.value.code == EXIT_VALIDATION

    def test_missing_config_is_validation_error(self):
        assert main(["simulate"]) == EXIT_VALIDATION

    def test_simulate_and_norms_commands(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "sim")
        assert main(["--config", path, "--out", out, "simulate"]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        out2 = str(tmp_path / "norms")
        assert main(["--seed", "3", "--out", out2, "norms", "--recipe", "one-mode"]) == EXIT_OK

    @pytest.mark.parametrize("command", [
        ["simulate"], ["epsilon-scaling", "--eps", "1.0"], ["picard", "--iters", "1"],
        ["fuzz", "--n", "10"], ["norms"],
    ])
    def test_negative_seed_option_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = ["--config", write_config(tmp_path), "--seed", "-1", "--out", str(out)]
        assert main(argv + command) == EXIT_VALIDATION
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fuzz", "--n", "0"],
        ["region", "--d", "2", "--resolution", "0.5"],
        ["norms", "--recipe", "nope"],
        ["picard", "--T", "2.0"],
        ["picard", "--n-time", "7"],
    ])
    def test_rejected_command_leaves_no_output_directory(self, tmp_path, command):
        out = tmp_path / "out"
        argv = ["--config", write_config(tmp_path), "--out", str(out)]
        assert main(argv + command) == EXIT_VALIDATION
        assert not out.exists()

    def test_negative_seed_in_config_rejected(self, tmp_path):
        doc = {**BASE_DOC, "recipe": "random-band-limited", "seed": -5}
        with pytest.raises(ConfigurationError, match="seed must be non-negative"):
            config_from_dict(doc)
        argv = ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "simulate"]
        assert main(argv) == EXIT_VALIDATION

    def test_region_command(self, tmp_path):
        out = str(tmp_path / "reg")
        code = main(["--out", out, "region", "--d", "2", "--resolution", "0.005"])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "reg" / "report.json").read_text())
        assert report["command"] == "region"
