import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coldcloud
import oracles
from coldcloud import cli, mc_oracle
from coldcloud.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, load_config, main

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, **kwargs):
    """A fresh interpreter that imports this coldcloud; scipy is not loaded
    until the code run there loads it."""
    package_root = os.path.dirname(os.path.dirname(coldcloud.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300, **kwargs)


def base_config(**overrides):
    cfg = {
        "cloud": {"n_total": 1e6, "sigma_r": 1e-3, "sigma_v": 0.1, "g": 9.81},
        "beam": {"w0": 100e-6, "lambda": 852e-9},
        "optical": {"delta": 10.0, "s_m0": 0.2},
        "cavity": {"kappa": 5e6, "tau_c": 1e-9},
        "grids": {
            "t": {"start": 0.0, "stop": 0.02, "num": 6},
            "T": [0.005, 0.01],
            "tau": {"start": -2e-3, "stop": 2e-3, "num": 21},
            "omega": {"start": 0.0, "stop": 8000.0, "num": 9},
        },
        "mc": {"realizations": 200, "seed": 42},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_missing_waist_names_the_field(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["beam"]["w0"]
        code = main(["sigma", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "beam.w0" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["mean", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_sigma_v_and_temperature_conflict(self, tmp_path, capsys):
        cfg = base_config()
        cfg["cloud"]["temperature"] = 1e-5
        cfg["cloud"]["mass"] = 2.2e-25
        assert main(["mean", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "cloud.sigma_v" in capsys.readouterr().err

    def test_thermal_cloud_accepted(self, tmp_path):
        cfg = base_config()
        del cfg["cloud"]["sigma_v"]
        cfg["cloud"]["temperature"] = 1e-5
        cfg["cloud"]["mass"] = 2.2069e-25
        parsed = load_config(write_config(tmp_path, cfg))
        assert parsed.cloud.sigma_v == pytest.approx(
            np.sqrt(1.380649e-23 * 1e-5 / 2.2069e-25), rel=1e-9
        )

    def test_bad_grid_spec(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grids"]["t"] = {"start": 0.0, "stop": 0.01}
        assert main(["mean", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "grids.t" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, tmp_path, capsys, literal):
        text = json.dumps(base_config()).replace('"n_total": 1000000.0', f'"n_total": {literal}')
        assert literal in text
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["mean", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config field 'cloud.n_total'" in capsys.readouterr().err
        assert not (tmp_path / "mean.csv").exists()

    @pytest.mark.parametrize("literal",
                             ["1e400", "1" + "0" * 400, "-1" + "0" * 400, "true", "NaN"],
                             ids=["1e400", "int401", "-int401", "true", "NaN"])
    def test_grid_entry_beyond_float_range_rejected(self, tmp_path, capsys, literal):
        # an integer too large for a float is a config error, as in a scalar
        # field, not a failure of the computation
        text = json.dumps(base_config()).replace('"T": [0.005, 0.01]', f'"T": [0.005, {literal}]')
        assert literal in text
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["mean", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config field 'grids.T'" in capsys.readouterr().err
        assert not (tmp_path / "mean.csv").exists()

    def test_tolerance_of_wrong_type_rejected_at_load(self, tmp_path, capsys):
        cfg = base_config(tolerances={"mc_sigma": "abc"})
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "tolerances.mc_sigma" in capsys.readouterr().err

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        cfg = base_config(tolerances={"mc_sigmas": 3.0})
        path = write_config(tmp_path, cfg)
        assert main(["mean", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "tolerances.mc_sigmas" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        "cloud.G",                # ran without gravity when it was ignored
        "optics",                 # a misspelt optional section
        "grids.omega.spaceing",   # a grid range
        "grids.omgea",
        "mc.sed",
    ])
    def test_unknown_key_rejected_with_its_path(self, tmp_path, capsys, field):
        cfg = base_config()
        *sections, key = field.split(".")
        target = cfg
        for section in sections:
            target = target[section]
        target[key] = 9.81
        path = write_config(tmp_path, cfg)
        assert main(["mean", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"config field '{field}': unknown key" in capsys.readouterr().err
        assert not (tmp_path / "mean.csv").exists()

    @pytest.mark.parametrize("name,entry", [
        *((name, {"start": -1e308, "stop": 1e308, "num": 5}) for name in ("t", "T", "tau", "omega")),
        # geomspace(max, max, 3) rounds its middle point up to inf
        ("omega", {"start": sys.float_info.max, "stop": sys.float_info.max, "num": 3,
                   "spacing": "log"}),
    ], ids=["t", "T", "tau", "omega", "omega-log"])
    def test_range_whose_grid_leaves_the_float_range(self, tmp_path, capsys, name, entry):
        # at stop - start beyond the float range, linspace gave [nan, inf,
        # inf, inf, 1e308]: a NaN delay dropped silently or an omega the run
        # rejected
        cfg = base_config()
        cfg["grids"][name] = entry
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mean", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"config field 'grids.{name}': " in capsys.readouterr().err
        assert not (tmp_path / "mean.csv").exists()

    def test_range_too_large_to_allocate(self, tmp_path, capsys):
        # numpy refuses 1e15 points (7 PiB) before allocating any of them
        cfg = base_config()
        cfg["grids"]["omega"] = {"start": 0.0, "stop": 1e5, "num": 10**15}
        path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config field 'grids.omega': "), err

    @pytest.mark.parametrize("realizations", [1, 2])
    def test_fewer_than_three_realizations_rejected(self, tmp_path, capsys, realizations):
        # the library's ensembles need at least 3 realizations
        cfg = base_config(mc={"realizations": realizations, "seed": 1})
        path = write_config(tmp_path, cfg)
        assert main(["mc", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "mc.realizations" in capsys.readouterr().err

    def test_negative_sigma_r_reported_with_section(self, tmp_path, capsys):
        cfg = base_config()
        cfg["cloud"]["sigma_r"] = -1.0
        assert main(["mean", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "cloud" in capsys.readouterr().err


class TestShippedConfigs:
    def test_every_config_loads_with_validate_tolerances(self):
        # perfbench/checks.py reads mc_sigma and fail_sigma, and the bench's
        # desk config sets fail_points: each key must stay accepted
        paths = sorted((ROOT / "configs").glob("*.json"))
        paths += sorted((ROOT / "perfbench" / "configs").glob("*.json"))
        assert len(paths) >= 4
        for path in paths:
            tolerances = load_config(str(path)).tolerances
            assert {"mc_sigma", "fail_sigma"} <= set(tolerances), path


class TestConfigTable:
    def test_docstring_layout_names_the_table_keys(self):
        # the config layout of the cli docstring, one section per entry at
        # its indent: each names exactly its keys, and grids the range keys
        layout = cli.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
        sections = re.findall(r'^ {6}"(\w+)":(.*?)(?=^ {6}"|\Z)', layout, re.M | re.S)
        assert [name for name, _ in sections] == list(cli._CONFIG)
        for name, text in sections:
            keys = set(cli._CONFIG[name][0]) | (set(cli._RANGE) if name == "grids" else set())
            assert set(re.findall(r'"(\w+)":', text)) == keys, name


class TestNullSections:
    """An optional section given as null reads exactly as one left out."""

    @staticmethod
    def shipped(name):
        return json.loads((ROOT / "configs" / name).read_text())

    @pytest.mark.parametrize("section", ["optical", "cavity", "grids", "tolerances"])
    def test_null_section_runs_as_absent(self, tmp_path, capsys, section):
        default, desk = self.shipped("default.json"), self.shipped("validate_desk.json")
        desk["mc"]["realizations"] = 3
        runs = [(sub, default) for sub in ("mean", "sigma", "saturated", "variance",
                                           "covariance", "spectrum", "detuning-spectrum")]
        runs += [("mc", desk), ("validate", desk)]
        for sub, cfg in runs:
            absent = {key: value for key, value in cfg.items() if key != section}
            results = []
            for label, variant in (("absent", absent), ("null", {**absent, section: None})):
                out = tmp_path / f"{sub}-{label}"
                code = main([sub, "--config", write_config(tmp_path, variant, f"{label}.json"),
                             "--out", str(out)])
                results.append((code, {p.name: p.read_bytes() for p in out.glob("*.csv")}))
            assert results[0] == results[1], sub
        capsys.readouterr()

    def test_null_mc_section_loads_as_absent(self, tmp_path):
        # run as a subcommand, either config would draw 10**4 realizations
        absent = {key: value for key, value in self.shipped("default.json").items()
                  if key != "mc"}
        loaded = [load_config(write_config(tmp_path, variant, f"{label}.json"))
                  for label, variant in (("absent", absent), ("null", {**absent, "mc": None}))]
        for field in dataclasses.fields(cli.RunConfig):
            if field.name != "raw":
                values = [getattr(run, field.name) for run in loaded]
                if isinstance(values[0], np.ndarray):
                    np.testing.assert_array_equal(*values, err_msg=field.name)
                else:
                    assert values[0] == values[1], field.name


class TestCurveSubcommands:
    def test_sigma_contract(self, tmp_path):
        code = main(["sigma", "--config", write_config(tmp_path, base_config()), "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "sigma.csv").read_text().splitlines()
        assert lines[0] == (
            "t_s,sigma_general,sigma_small_waist,sigma_long_rayleigh,sigma_high_temperature"
        )
        assert len(lines) == 1 + 6
        manifest = json.loads((tmp_path / "sigma_manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["tau_r_s"] == pytest.approx(0.01)
        assert derived["tau_g_s"] == pytest.approx(0.028832080782326, rel=1e-9)
        assert derived["tau_w0_s"] == pytest.approx(5e-4)
        assert derived["zeta"] == pytest.approx((0.01 / 0.028832080782326) ** 2, rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()

    def test_mean_variance_covariance_saturated(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        for sub, filename in (
            ("mean", "mean.csv"),
            ("variance", "variance.csv"),
            ("covariance", "covariance.csv"),
            ("saturated", "saturated.csv"),
        ):
            assert main([sub, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
            assert (tmp_path / filename).exists()

    def test_spectrum_has_both_frequency_columns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0].split(",")
        assert "omega_rad_s" in header and "omega_hz" in header
        data = np.genfromtxt(tmp_path / "spectrum.csv", delimiter=",", names=True)
        np.testing.assert_allclose(
            data["omega_hz"] * 2.0 * np.pi, data["omega_rad_s"], rtol=1e-15
        )

    def test_detuning_spectrum_and_regime_flag(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        assert main(["detuning-spectrum", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "detuning_spectrum_manifest.json").read_text())
        per_t = manifest["per_fall_time"]
        assert len(per_t) == 2
        for entry in per_t.values():
            assert set(entry) == {"cooperativity", "detuning_shift_rad_s", "linear_regime"}
        # each entry is the library's scalar calls at its T, bit for bit
        cfg = load_config(cfg_path)
        inp = coldcloud.EffNumInputs(cfg.cloud, cfg.beam)
        for t in cfg.big_t_grid:
            n = coldcloud.mean_number(inp, float(t))
            assert per_t[f"{t:.17g}"] == {
                "cooperativity": coldcloud.cooperativity(cfg.cavity, cfg.beam, n),
                "detuning_shift_rad_s":
                    coldcloud.detuning_shift(cfg.cavity, cfg.beam, cfg.optical, n),
                "linear_regime":
                    coldcloud.is_linear_regime(cfg.cavity, cfg.optical, inp, float(t)),
            }

    def test_detuning_spectrum_at_zero_delta_is_a_config_error(self, tmp_path, capsys):
        # the dispersive formulas divide by delta; the other subcommands
        # take delta = 0
        cfg_path = write_config(tmp_path, base_config(optical={"delta": 0.0, "s_m0": 0.2}))
        code = main(["detuning-spectrum", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "optical.delta" in capsys.readouterr().err
        for sub in ("mean", "saturated"):
            assert main([sub, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK

    def test_spectrum_where_the_series_damping_underflows(self, tmp_path):
        # at T = 90 ms the spectrum series has c = 205 and exp(-4c) is below
        # the float range; the spectrum must still come out positive
        cfg = base_config()
        cfg["grids"]["T"] = [0.09]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        data = np.genfromtxt(tmp_path / "spectrum.csv", delimiter=",", names=True)
        assert np.all(data["spectrum_series_s"] > 0.0)
        assert np.all(data["normalized_spectrum_s"] > 0.0)

    @pytest.mark.parametrize("sub", ["mean", "spectrum"])
    def test_unsquarable_fall_time_writes_the_free_cloud_bytes(self, tmp_path, sub):
        # at g = 1e-300, tau_g^2 would overflow; the run is the g = 0 run
        runs = {}
        for g in (0.0, 1e-300):
            cfg = base_config()
            cfg["cloud"]["g"] = g
            out = tmp_path / str(g)
            assert main([sub, "--config", write_config(tmp_path, cfg, f"{g}.json"),
                         "--out", str(out)]) == EXIT_OK
            runs[g] = (out / f"{sub}.csv").read_bytes()
        assert runs[1e-300] == runs[0.0]

    def test_fall_time_blocks_equal_scalar_calls(self, tmp_path):
        # one array call per column; each T block keeps exactly the delays
        # with |tau| <= 2T, so both sampling times stay nonnegative
        cfg = base_config()
        cfg["grids"]["T"] = [0.0, 0.0005, 0.005, 0.02759]
        cfg_path = write_config(tmp_path, cfg)
        for sub in ("covariance", "spectrum"):
            assert main([sub, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        run = load_config(cfg_path)
        inp = coldcloud.EffNumInputs(run.cloud, run.beam)
        cov = np.genfromtxt(tmp_path / "covariance.csv", delimiter=",", names=True)
        spec = np.genfromtxt(tmp_path / "spectrum.csv", delimiter=",", names=True)
        kept = np.abs(run.tau_grid) <= 2.0 * run.big_t_grid[:, None]
        assert cov.size == np.count_nonzero(kept) < kept.size
        np.testing.assert_array_equal(cov["T_s"], np.repeat(run.big_t_grid, kept.sum(axis=1)))
        for big_t, keep in zip(run.big_t_grid, kept):
            tau = run.tau_grid[keep]
            block = cov[cov["T_s"] == big_t]
            np.testing.assert_array_equal(block["tau_s"], tau)
            if tau.size:
                np.testing.assert_array_equal(block["covariance_exact"],
                                              coldcloud.covariance_exact(inp, big_t, tau))
                np.testing.assert_array_equal(
                    block["covariance_quasistationary"],
                    coldcloud.covariance_quasistationary(inp, big_t, tau))
            block = spec[spec["T_s"] == big_t]
            series, normalized = coldcloud.spectra(inp, big_t, run.omega_grid)
            np.testing.assert_array_equal(block["omega_rad_s"], run.omega_grid)
            np.testing.assert_array_equal(block["spectrum_series_s"], series)
            np.testing.assert_array_equal(block["normalized_spectrum_s"], normalized)
            np.testing.assert_array_equal(
                block["spectrum_exponential_s"],
                coldcloud.spectrum_exponential(inp, big_t, run.omega_grid))

    def test_gravity_beyond_the_float_range(self, tmp_path, capsys):
        # at g = 1e300, tau_g^2 underflows to 0 and 1/tau_g^2 is inf: the
        # cloud leaves the beam at once, so counts are 0 after t = 0.  Each
        # subcommand writes finite CSVs or names what left the float range,
        # and numpy warns of nothing
        cfg = base_config()
        cfg["cloud"]["g"] = 1e300
        cfg_path = write_config(tmp_path, cfg)
        codes = {}
        for sub in ("mean", "sigma", "variance", "saturated", "covariance", "spectrum",
                    "detuning-spectrum"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes[sub] = main([sub, "--config", cfg_path, "--out", str(tmp_path)])
            err = capsys.readouterr().err
            if codes[sub] == EXIT_OK:
                values = np.loadtxt(tmp_path / f"{sub.replace('-', '_')}.csv", delimiter=",",
                                    skiprows=1, ndmin=2)
                assert np.all(np.isfinite(values)) and err == "", sub
            else:
                assert codes[sub] == EXIT_FAIL and err.count("\n") == 1, (sub, err)
                assert "is not finite" in err or "leaves the float range" in err, err
        assert codes["mean"] == codes["sigma"] == codes["saturated"] == EXIT_OK
        mean = np.loadtxt(tmp_path / "mean.csv", delimiter=",", skiprows=1)
        assert mean[0, 1] > 0.0 and np.all(mean[1:, 1] == 0.0)

    @pytest.mark.parametrize("sub", ["covariance", "spectrum", "detuning-spectrum"])
    @pytest.mark.parametrize("field,value", [("sigma_v", 1e300), ("sigma_r", 1e-300)])
    def test_time_scales_whose_squares_underflow(self, tmp_path, capsys, sub, field, value):
        # tau_r^2 (and at sigma_v = 1e300 tau_w^2 too) underflows to 0: the
        # zero-time count n0 divides by it.  The run writes finite CSVs, or
        # names the column or the series parameter that left the float range
        cfg = base_config()
        cfg["cloud"][field] = value
        code = main([sub, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if code == EXIT_OK:
            values = np.loadtxt(tmp_path / f"{sub.replace('-', '_')}.csv", delimiter=",",
                                skiprows=1, ndmin=2)
            assert np.all(np.isfinite(values))
        else:
            assert code == EXIT_FAIL and err.count("\n") == 1, err
            assert "is not finite" in err or "series parameter c" in err, err

    def test_rayleigh_length_underflow_is_a_config_error(self, tmp_path):
        # w0 = 1e-300: pi*w0^2/lambda underflows to 0; the run stops at the
        # config instead of printing numpy's divide warning
        good = write_config(tmp_path, base_config(), "good.json")
        cfg = base_config()
        cfg["beam"]["w0"] = 1e-300
        bad = write_config(tmp_path, cfg, "bad.json")
        for sub in ("mean", "spectrum"):
            result = run_python(["-m", "coldcloud.cli", sub, "--config", good,
                                 "--out", str(tmp_path / "out")])
            assert (result.returncode, result.stderr) == (EXIT_OK, "")
            result = run_python(["-m", "coldcloud.cli", sub, "--config", bad,
                                 "--out", str(tmp_path / "out")])
            assert result.returncode == EXIT_CONFIG
            assert result.stderr.startswith("error: config field 'beam': w0 = 1e-300 ")
            assert result.stderr.count("\n") == 1

    def test_arithmetic_errors_in_the_config_are_config_errors(self, tmp_path, capsys):
        # w0 = 1.34e154: w0^2 leaves the float range.  w0 = 1e-30 at
        # sigma_v = 1e300: tau_w = w0/(2 sigma_v) underflows to 0, and the
        # omega grid derived from 8/tau_w leaves the float range
        big = base_config()
        big["beam"]["w0"] = 1.3407807929942597e154
        narrow = base_config()
        narrow["beam"]["w0"] = 1e-30
        narrow["cloud"]["sigma_v"] = 1e300
        del narrow["grids"]["omega"]
        for cfg, message in (
                (big, "config field 'beam': w0 = 1.3407807929942597e+154 gives a Rayleigh length "
                      "pi*w0^2/wavelength that leaves the float range"),
                (narrow, "config field 'grids.omega': the grid derived from the cloud time scales "
                         "leaves the float range; give it in the config")):
            assert main(["mean", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"
        # a given grid is not derived
        narrow["grids"]["omega"] = [0.0, 1.0]
        run = load_config(write_config(tmp_path, narrow))
        np.testing.assert_array_equal(run.omega_grid, [0.0, 1.0])

    @pytest.mark.parametrize("sub,section,key,value", [
        ("covariance", "cloud", "sigma_v", 1e300),
        ("spectrum", "grids", "T", [1e300]),
    ])
    def test_one_error_line_and_no_warnings(self, tmp_path, sub, section, key, value):
        # numpy overflows on the way to the non-finite result; stderr holds
        # only the error line
        cfg = base_config()
        cfg[section][key] = value
        result = run_python(["-m", "coldcloud.cli", sub, "--config", write_config(tmp_path, cfg),
                             "--out", str(tmp_path)])
        assert result.returncode == EXIT_FAIL
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith(f"error in {sub}: ")

    def test_counts_beyond_the_float_range_are_zero(self, tmp_path, capsys):
        # at t = 1e300, t^2 and t^4 overflow and the true counts underflow to
        # 0; the t = 0 row keeps the bytes of a run without that time.  The
        # variance/mean ratio of two zeros is its closed-form limit,
        # exp(-tau_w^2/(2 tau_g^2))/2
        rows = {}
        for grid in ([0.0], [0.0, 1e300]):
            cfg = base_config()
            cfg["grids"]["t"] = grid
            cfg_path = write_config(tmp_path, cfg)
            for sub in ("mean", "variance", "sigma", "saturated"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert main([sub, "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
                assert capsys.readouterr().err == ""
                rows[sub, len(grid)] = (tmp_path / f"{sub}.csv").read_text().splitlines()
        ts = coldcloud.time_scales(load_config(cfg_path).cloud, load_config(cfg_path).beam)
        limit = 0.5 * math.exp(-ts.tau_w**2 / (2.0 * ts.tau_g**2))
        for sub in ("mean", "variance", "sigma", "saturated"):
            assert rows[sub, 2][:2] == rows[sub, 1]
            last = [float(v) for v in rows[sub, 2][2].split(",")]
            expected = [0.0] * (len(last) - 1)
            if sub == "variance":
                expected[-1] = pytest.approx(limit, rel=1e-15)
            assert last == [1e300, *expected], sub

    @pytest.mark.parametrize("g", [9.81, 0.0])
    def test_variance_over_mean_matches_mpmath(self, tmp_path, g):
        # var/mean loses digits as the fall factors shrink, up to 2.5% where
        # the variance is subnormal (t near 0.78 s at g = 9.81)
        cfg = json.loads((ROOT / "configs" / "default.json").read_text())
        cfg["cloud"]["g"] = g
        cfg["grids"]["t"] = [*np.linspace(0.0, 0.8, 33).tolist(), 0.7842822061337682]
        assert main(["variance", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = np.loadtxt(tmp_path / "variance.csv", delimiter=",", skiprows=1)
        run = load_config(str(tmp_path / "config.json"))
        expected = [oracles.variance_over_mean_mp(run.cloud, run.beam, t) for t in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 3], expected, rtol=1e-15, atol=0.0)

    def test_covariance_without_valid_pairs(self, tmp_path, capsys):
        cfg = base_config()
        cfg["grids"]["T"] = [0.0, 0.0004]
        cfg["grids"]["tau"] = [-1e-3, 1e-3]
        code = main(["covariance", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == EXIT_FAIL
        assert "no valid (T, tau) pairs" in capsys.readouterr().err
        assert not (tmp_path / "covariance.csv").exists()

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["mean", "--config", write_config(tmp_path, base_config()),
                     "--out", str(taken)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--out" in err[0]

    def test_unwritable_data_file_fails_the_subcommand(self, tmp_path, capsys):
        (tmp_path / "mean.csv").mkdir()
        code = main(["mean", "--config", write_config(tmp_path, base_config()),
                     "--out", str(tmp_path)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error in mean:")

    def test_ensemble_too_large_to_allocate_fails_the_subcommand(self, tmp_path, capsys):
        # numpy refuses the rows of 1e15 realizations before allocating any
        cfg = base_config(mc={"realizations": 10**15, "seed": 1})
        code = main(["mc", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == EXIT_FAIL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error in mc: out of memory"), err
        assert not (tmp_path / "mc_stats.csv").exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("COLDCLOUD_OUT_DIR", str(target))
        assert main(["mean", "--config", write_config(tmp_path, base_config())]) == EXIT_OK
        assert (target / "mean.csv").exists()


class TestWriteCsv:
    """The bytes of write_csv: every cell as format(v, ".17g") of the
    column's Python value, one row per line, across block boundaries."""

    @staticmethod
    def reference(header, columns):
        lines = [",".join(header)]
        lines += [",".join(format(v, ".17g") for v in row)
                  for row in zip(*(col.tolist() for col in columns))]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("rows", [0, 1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                                      cli._CSV_BLOCK_ROWS + 1])
    def test_cells_are_17_significant_digits(self, tmp_path, rows):
        # -0.0, the least subnormal, 0.1 (which repr writes as "0.1") and
        # the powers of ten where 17 digits switch to an exponent
        special = np.array([-0.0, 5e-324, 0.1, 1e16, 1e17, -2.5, 1.7976931348623157e308])
        floats = np.resize(special, rows)
        ints = np.arange(rows) * 987654321 - 2**53 - 1
        flags = (np.arange(rows) % 3 == 0).astype(float)
        header = ["x", "n", "flag"]
        path = tmp_path / "out.csv"
        cli.write_csv(str(path), header, [floats, ints, flags])
        assert path.read_bytes() == self.reference(header, [floats, ints, flags])

    def test_integer_only_columns(self, tmp_path):
        ints = np.array([0, -1, 2**53 + 1, 10**17])
        path = tmp_path / "out.csv"
        cli.write_csv(str(path), ["n", "m"], [ints, ints[::-1]])
        assert path.read_bytes() == self.reference(["n", "m"], [ints, ints[::-1]])


class TestFlags:
    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--threads", "0"),
                                            ("--threads", "-5")])
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # the same bounds as the config's mc.seed; no threads are started
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--config", cfg_path, "--out", str(out), flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_lowest_accepted_values(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        argv = ["mean", "--config", cfg_path, "--out", str(tmp_path), "--seed", "0",
                "--threads", "1"]
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "mean_manifest.json").read_text())
        assert (manifest["seed"], manifest["threads"]) == (0, 1)


class TestMonteCarloSubcommands:
    def mc_config(self):
        return {
            "cloud": {"n_total": 2000.0, "sigma_r": 1e-3, "sigma_v": 0.1, "g": 9.81},
            "beam": {"w0": 40e-6, "lambda": 1e-9},
            "grids": {"t": [0.0, 0.008, 0.016]},
            "mc": {"realizations": 1200, "seed": 20250801},
        }

    def half_widths(self, cfg):
        """The beam window's y and z half-width c * w(K * sigma_x(t)) per grid
        time of an mc_config, c = 5 and K = 10."""
        z_r = math.pi * cfg["beam"]["w0"] ** 2 / cfg["beam"]["lambda"]
        sigma_r, sigma_v = cfg["cloud"]["sigma_r"], cfg["cloud"]["sigma_v"]
        return [pytest.approx(5.0 * cfg["beam"]["w0"] * math.hypot(
                    1.0, 10.0 * math.hypot(sigma_r, sigma_v * t) / z_r), rel=1e-15)
                for t in cfg["grids"]["t"]]

    def test_mc_outputs(self, tmp_path):
        cfg = self.mc_config()
        cfg_path = write_config(tmp_path, cfg)
        assert main(["mc", "--config", cfg_path, "--out", str(tmp_path), "--threads", "2"]) == EXIT_OK
        stats = np.genfromtxt(tmp_path / "mc_stats.csv", delimiter=",", names=True)
        assert stats.shape == (3,)
        cov = np.genfromtxt(tmp_path / "mc_covariance.csv", delimiter=",", names=True)
        assert cov.shape == (9,)
        # the beam window of the sampler and its bound on the dropped weight
        manifest = json.loads((tmp_path / "mc_manifest.json").read_text())
        tails = math.exp(-2.0 * 5.0**2) + math.erfc(10.0 / math.sqrt(2.0))
        assert manifest["beam_window"] == {"beam_cut": 5.0, "axial_cut": 10.0,
                                           "dropped_weight_bound": 2000.0 * 3 * tails,
                                           "half_width_m": self.half_widths(cfg)}

    @pytest.mark.parametrize("config,parts", [("default.json", 21), ("validate_desk.json", 1)])
    def test_manifest_records_sub_clouds(self, tmp_path, config, parts):
        # each realization that proposes more than 2**14 mean atoms from the
        # bands of the beam window's boxes, which hold sum_i M_i of the
        # cloud, is drawn as independent sub-clouds of at most that mean
        cfg = json.loads((ROOT / "configs" / config).read_text())
        cfg["mc"]["realizations"] = 3
        cfg_path = write_config(tmp_path, cfg)
        assert main(["mc", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "mc_manifest.json").read_text())
        assert manifest["sub_clouds"] == parts
        assert manifest["draw"] == "bands"
        share = {"default.json": 0.3432, "validate_desk.json": 0.004234}[config]
        assert manifest["proposed_share"] == pytest.approx(share, rel=1e-3)

    def test_manifest_records_a_full_draw(self, tmp_path):
        # a 1 mm waist: the window boxes hold more than the cloud, which is
        # drawn whole
        cfg = json.loads((ROOT / "configs" / "validate_desk.json").read_text())
        cfg["mc"]["realizations"] = 3
        cfg["beam"]["w0"] = 1e-3
        cfg_path = write_config(tmp_path, cfg)
        assert main(["mc", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "mc_manifest.json").read_text())
        assert (manifest["draw"], manifest["proposed_share"]) == ("full", 1.0)

    def test_capped_time_grid_spans_an_unsorted_list(self, tmp_path):
        # more than 8 listed times are replaced by 5 evenly spaced ones over
        # the list's whole range, whatever its order
        cfg = self.mc_config()
        cfg["grids"]["t"] = [0.008, 0.0, 0.016, 0.002, 0.012, 0.004, 0.01, 0.006, 0.014]
        times = load_config(write_config(tmp_path, cfg)).mc_times
        np.testing.assert_array_equal(times, np.linspace(0.0, 0.016, 5))

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = write_config(tmp_path, self.mc_config())
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        main(["mc", "--config", cfg_path, "--out", str(out1)])
        main(["mc", "--config", cfg_path, "--out", str(out2), "--seed", "777"])
        main(["mc", "--config", cfg_path, "--out", str(out3), "--seed", "777"])
        assert (out1 / "mc_stats.csv").read_bytes() != (out2 / "mc_stats.csv").read_bytes()
        assert (out2 / "mc_stats.csv").read_bytes() == (out3 / "mc_stats.csv").read_bytes()

    def test_validate_passes_and_reports(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.mc_config())
        code = main(["validate", "--config", cfg_path, "--out", str(tmp_path), "--threads", "2"])
        out = capsys.readouterr().out
        assert "checks passed" in out
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["all_pass"] is True
        assert not report["hard_failure"]
        assert code == EXIT_OK
        # the worst of the checks, and how likely noise alone makes it
        worst = max(report["checks"], key=lambda check: abs(check["z"]))
        assert (report["worst_check"], report["worst_z"]) == (worst["name"], worst["z"])
        assert 0.0 < report["familywise_p"] <= 1.0
        assert f"validate: worst check {worst['name']}: z = " in out
        manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
        assert manifest["beam_window"]["dropped_weight_bound"] < 1e-15
        assert manifest["sub_clouds"] == 1
        assert manifest["draw"] == "bands" and 0.0 < manifest["proposed_share"] < 1.0

    def test_validate_names_a_defect(self, tmp_path, monkeypatch, capsys):
        # a closed-form mean 10% too high against a correct sampler; 4x the
        # realizations of mc_config put the expected worst z near 9, far
        # beyond the p < 1e-6 mark at about 5.6
        true_mean = cli.mean_number
        monkeypatch.setattr(cli, "mean_number", lambda inp, t: 1.1 * true_mean(inp, t))
        cfg = self.mc_config()
        cfg["mc"]["realizations"] *= 4
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_FAIL
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert ".mean[" in report["worst_check"]
        assert report["familywise_p"] < 1e-6
        assert report["worst_check"] in capsys.readouterr().out

    def test_validate_names_variance_and_covariance_defects(self, tmp_path, monkeypatch):
        # closed-form variance and covariance both 10% too high, at the
        # unchanged 3-sigma bound.  Delays of 0.1 and 0.2 ms, well inside the
        # beam crossing time w0/sigma_v = 0.4 ms, keep the covariances 8/9 and
        # 2/3 of the variance; 6000 realizations of about 4 atoms in the beam
        # move each z by about -5 (they read -3.8 to -4.8, and +0.3 to +0.7
        # against the true closed forms)
        for name in ("variance", "covariance_exact"):
            monkeypatch.setattr(cli, name, lambda *args, true=getattr(cli, name): 1.1 * true(*args))
        cfg = self.mc_config()
        cfg["cloud"].update(n_total=1e4, g=0.0)
        cfg["grids"]["t"] = [0.0, 1e-4, 2e-4]
        cfg["mc"]["realizations"] = 6000
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_FAIL
        report = json.loads((tmp_path / "validate_report.json").read_text())
        failed = {check["name"].split("[")[0] for check in report["checks"] if not check["pass"]}
        assert {"gravity.variance", "gravity.covariance"} <= failed

    def test_validate_detects_wrong_physics(self, tmp_path):
        # corrupt the comparison by claiming a different atom number than
        # the sampler actually uses: z-scores must blow up
        cfg = self.mc_config()
        cfg["mc"]["realizations"] = 800
        cfg["tolerances"] = {"mc_sigma": 0.0001, "fail_sigma": 0.001, "fail_points": 1}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_FAIL

    def test_validate_names_the_checks_without_data(self, tmp_path, capsys):
        # by t = 0.1 s the desk cloud has fallen ~5 sigma_r below the beam
        # and the Poisson box: no counts, zero standard errors
        cfg = json.loads((ROOT / "configs" / "validate_desk.json").read_text())
        cfg["grids"]["t"] = [0.0, 0.05, 0.1]
        cfg["mc"]["realizations"] = 50
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main(["validate", "--config", cfg_path, "--out", str(out)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert "column z_score is not finite" not in err
        for name in ("gravity.mean[t=0.1]", "gravity.variance[t=0.1]",
                     "gravity.covariance[t=0,t'=0.1]", "gravity.poisson_ratio[t=0.1]"):
            assert name in err
        assert "gravity.mean[t=0]," not in err
        assert not (out / "validate.csv").exists()

    def test_validate_without_data_prints_only_its_error(self, tmp_path):
        # the case above from the command line, numpy errors at their
        # defaults: no RuntimeWarning comes before the error line
        cfg = json.loads((ROOT / "configs" / "validate_desk.json").read_text())
        cfg["grids"]["t"] = [0.0, 0.05, 0.1]
        cfg["mc"]["realizations"] = 50
        cfg_path = write_config(tmp_path, cfg)
        result = run_python(["-m", "coldcloud.cli", "validate", "--config", cfg_path,
                             "--out", str(tmp_path / "out")])
        assert result.returncode == EXIT_FAIL
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error in validate: "), lines

    def test_validate_manifest_records_the_poisson_box(self, tmp_path):
        # the Poisson checks count the beam window's box at each grid time:
        # |y|, |z| up to c * w(K * sigma_x(t)), x unbounded
        cfg = self.mc_config()
        cfg["mc"]["realizations"] = 30
        cfg_path = write_config(tmp_path, cfg)
        main(["validate", "--config", cfg_path, "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
        assert manifest["beam_window"]["half_width_m"] == self.half_widths(cfg)
        main(["mc", "--config", cfg_path, "--out", str(tmp_path)])
        mc = json.loads((tmp_path / "mc_manifest.json").read_text())
        assert set(manifest) - set(mc) == {"all_pass", "free_branch"}
        assert manifest["beam_window"] == mc["beam_window"]

    def test_validate_manifest_describes_the_free_branch_draw(self, tmp_path, capsys):
        # the free branch draws with its own plan: on the desk config it
        # proposes a share of 0.00447 of the cloud, the gravity branch 0.00423
        desk = json.loads((ROOT / "configs" / "validate_desk.json").read_text())
        desk["mc"]["realizations"] = 1000
        cfg_path = write_config(tmp_path, desk)
        main(["validate", "--config", cfg_path, "--out", str(tmp_path)])
        capsys.readouterr()
        manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
        cfg = load_config(cfg_path)
        free = dataclasses.replace(cfg.cloud, g=0.0)
        assert manifest["free_branch"] == mc_oracle.window_draw(free, cfg.beam, cfg.mc_times)
        assert manifest["free_branch"]["proposed_share"] != manifest["proposed_share"]


class TestPoissonBox:
    """validate's Poisson count, the atoms inside the beam window's box at
    each grid time of the desk config's gravity branch, against the box's
    closed-form mass."""

    def z_of_box_mean(self, n_realizations=2000, seed=20250801):
        """(box mean - mass) / SE per grid time.  The box is |y|, |z| <= h_i,
        the beam window's half-width, with x unbounded, so the mass is
        n * prod_{d=y,z} (erf((h_i - mu_d)/(s sqrt 2)) - erf((-h_i - mu_d)/(s sqrt 2)))/2
        with s^2 = sigma_r^2 + sigma_v^2 t^2 and mu = (0, -g t^2/2)."""
        cfg = load_config(str(ROOT / "configs" / "validate_desk.json"))
        cloud, times = cfg.cloud, cfg.mc_times
        report = mc_oracle.ensemble_stats(cloud, cfg.beam, times, n_realizations, seed).poisson
        half = mc_oracle._beam_window(cloud, cfg.beam, times)[1]
        mass = []
        for t, h in zip(times, half):
            s_sqrt2 = math.sqrt(2.0 * (cloud.sigma_r**2 + (cloud.sigma_v * t) ** 2))
            mass.append(cloud.n_total * math.prod(
                0.5 * (math.erf((h - m) / s_sqrt2) - math.erf((-h - m) / s_sqrt2))
                for m in (0.0, -0.5 * cloud.g * t**2)))
        return (report.mean - mass) / np.sqrt(report.variance / n_realizations)

    def test_box_mean_matches_its_mass(self):
        assert np.all(np.abs(self.z_of_box_mean()) < 4.0)

    def test_box_mean_sees_a_window_that_cuts_too_much(self, monkeypatch):
        # the sampler's window shrunk to 0.9 of its width while the mass stays
        # that of the full window's box: ~19% of the box goes undrawn.  The
        # ensemble's draws all follow the one plan of its windows
        true_plan = mc_oracle._draw_plan
        monkeypatch.setattr(mc_oracle, "_draw_plan",
                            lambda c, times, lo, hi: true_plan(c, times, 0.9 * lo, 0.9 * hi))
        assert np.min(self.z_of_box_mean()) < -5.0


# each subcommand on a small config in one fresh interpreter, spectrum last:
# the package and every other subcommand run on numpy alone
_FRESH_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import coldcloud, coldcloud.cli

cfg_dir, out = sys.argv[1:3]
runs = [("mean", "curves"), ("sigma", "curves"), ("saturated", "curves"),
        ("saturated", "strong"), ("variance", "curves"), ("covariance", "curves"),
        ("spectrum", "curves"), ("detuning-spectrum", "curves"), ("mc", "mc"),
        ("validate", "mc")]
codes = {}
for sub, cfg in runs:
    codes[sub + "/" + cfg] = coldcloud.cli.main(
        [sub, "--config", f"{cfg_dir}/{cfg}.json", "--out", f"{out}/{sub}"])
print(json.dumps(codes))
"""


class TestNumpyOnlyRuns:
    @pytest.fixture(scope="class")
    def fresh_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fresh")
        strong = base_config()
        strong["optical"]["s_m0"] = 2.0  # every layer near the waist is radial
        for name, cfg in (("curves", base_config()), ("strong", strong),
                          ("mc", TestMonteCarloSubcommands().mc_config())):
            write_config(tmp, cfg, f"{name}.json")
        result = run_python(["-c", _FRESH_RUN, str(tmp), str(tmp / "out")], check=True)
        return tmp / "out", json.loads(result.stdout.splitlines()[-1])

    def test_no_subcommand_loads_scipy(self, fresh_run):
        # the gravity series of spectrum and detuning-spectrum included
        _, codes = fresh_run
        assert len(codes) == 10 and set(codes.values()) == {EXIT_OK}, codes

    def test_manifest_records_versions_and_stage_times(self, fresh_run):
        out, _ = fresh_run
        mean = json.loads((out / "mean" / "mean_manifest.json").read_text())
        spectrum = json.loads((out / "spectrum" / "spectrum_manifest.json").read_text())
        detuning = json.loads(
            (out / "detuning-spectrum" / "detuning_spectrum_manifest.json").read_text())
        for manifest in (mean, spectrum, detuning):
            assert manifest["scipy"] is None
            assert manifest["python"] == ".".join(map(str, sys.version_info[:3]))
            assert manifest["numpy"] == np.__version__
            for stage in ("load_s", "compute_s", "write_s"):
                assert manifest[stage] >= 0.0


_FAULT_COUNT = """
import json, resource
import numpy as np
import coldcloud

def faults(run):
    run()  # warm-up: the heap grows to its working size here
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

cloud = coldcloud.CloudParams(1e6, 1e-3, 0.1, 9.81)
beam = coldcloud.BeamParams(100e-6, 852e-9)
inp = coldcloud.EffNumInputs(cloud, beam)
omega = np.linspace(0.0, 16000.0, 2000)
# the spectrum first: once a large block has been freed, the MC arrays
# raise malloc's thresholds on their own
print(json.dumps({
    "spectra": faults(lambda: coldcloud.spectra(inp, 0.048, omega)),
    "mc": faults(lambda: coldcloud.ensemble_stats(cloud, beam, [0.0, 0.0075, 0.015], 4, seed=2)),
}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_realizations_reuse_heap_memory():
    # once import coldcloud has raised malloc's trim threshold the heap keeps
    # the arrays of the spectral series: a few page faults a call, not ~575.
    # The MC blocks (at most 2**14 mean proposed atoms, a few MB) fault 0
    # times either way; whole 1e6-atom realizations took ~1.2e4 without the
    # raised threshold
    faults = json.loads(run_python(["-c", _FAULT_COUNT], check=True).stdout)
    assert faults["mc"] < 1000, faults
    assert faults["spectra"] < 100, faults


# any finite float, with the extremes of the float range drawn often
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300, 1e308]),
)
# grid entries: either sign, near zero and near the ends of the float range
grid_values = st.sampled_from([-sys.float_info.max, -1e300, -1.0, 0.0, 5e-324, 1e-3, 1.0, 1e300,
                               sys.float_info.max])
# range bounds at both ends of the float range: a constant grid there, or
# a stop - start that leaves it
range_bounds = st.sampled_from([-sys.float_info.max, sys.float_info.max])


def drawn(kind, numbers=finite_values):
    """Config values of a cli._CONFIG kind: integers from two below the
    least up to 50 (no grid longer than that) and two floats; grids as
    ranges, whose required keys are always drawn, or as short lists."""
    if kind == "number":
        return numbers
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind == "grid":
        required = {key: drawn(k, range_bounds)
                    for key, (k, default) in cli._RANGE.items() if default is cli._REQUIRED}
        optional = {key: drawn(k) for key, (k, _) in cli._RANGE.items() if key not in required}
        return st.one_of(st.fixed_dictionaries(required, optional=optional),
                         st.lists(grid_values, min_size=1, max_size=5))
    return st.sampled_from([*range(kind - 2, 51), float(kind), 2.5])


# every key of the config table, by its kind.  An example overrides any of
# the grids and at most three other keys, so that most examples load
KINDS = {(section, key): kind
         for section, (table, _) in cli._CONFIG.items() for key, (kind, _) in table.items()}
SCALARS = sorted(field for field, kind in KINDS.items() if kind != "grid")
overrides = st.tuples(
    st.lists(st.sampled_from(SCALARS), max_size=3, unique=True).flatmap(
        lambda fields: st.fixed_dictionaries({field: drawn(KINDS[field]) for field in fields})),
    st.fixed_dictionaries({}, optional={field: drawn(kind) for field, kind in KINDS.items()
                                        if kind == "grid"}),
).map(lambda parts: {**parts[0], **parts[1]})


class TestFuzzedScalarFields:
    @settings(max_examples=150)
    @given(overrides=overrides)
    def test_finite_csv_or_one_line_error(self, overrides):
        # Monte Carlo sizes only load, as no subcommand run here draws; a
        # drawn temperature or mass replaces sigma_v
        cfg = base_config()
        if ("cloud", "temperature") in overrides or ("cloud", "mass") in overrides:
            del cfg["cloud"]["sigma_v"]
            cfg["cloud"].update(temperature=1e-5, mass=2.2e-25)
        for (section, key), value in overrides.items():
            cfg.setdefault(section, {})[key] = value
        with tempfile.TemporaryDirectory() as out:
            cfg_path = os.path.join(out, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                json.dump(cfg, handle)
            # a config that loads holds finite grids only
            with contextlib.suppress(cli.ConfigError):
                run = load_config(cfg_path)
                for grid in (run.t_grid, run.big_t_grid, run.tau_grid, run.omega_grid,
                             run.mc_times):
                    assert np.all(np.isfinite(grid)), grid
            for sub in ("mean", "variance", "sigma", "saturated"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([sub, "--config", cfg_path, "--out", out])
                if code == EXIT_OK:
                    values = np.loadtxt(os.path.join(out, f"{sub}.csv"), delimiter=",",
                                        skiprows=1, ndmin=2)
                    assert np.all(np.isfinite(values)), sub
                else:
                    assert code in (EXIT_FAIL, EXIT_CONFIG)
                    lines = err.getvalue().strip().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error"), lines
