import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coldcloud
from coldcloud import cli
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
    def test_non_finite_number_rejected(self, tmp_path, literal):
        text = json.dumps(base_config()).replace('"n_total": 1000000.0', f'"n_total": {literal}')
        assert literal in text
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["mean", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
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

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("COLDCLOUD_OUT_DIR", str(target))
        assert main(["mean", "--config", write_config(tmp_path, base_config())]) == EXIT_OK
        assert (target / "mean.csv").exists()


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

    def test_mc_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, self.mc_config())
        assert main(["mc", "--config", cfg_path, "--out", str(tmp_path), "--threads", "2"]) == EXIT_OK
        stats = np.genfromtxt(tmp_path / "mc_stats.csv", delimiter=",", names=True)
        assert stats.shape == (3,)
        cov = np.genfromtxt(tmp_path / "mc_covariance.csv", delimiter=",", names=True)
        assert cov.shape == (9,)

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

    def test_validate_names_a_defect(self, tmp_path, monkeypatch, capsys):
        # a closed-form mean 10% too high against a correct sampler
        true_mean = cli.mean_number
        monkeypatch.setattr(cli, "mean_number", lambda inp, t: 1.1 * true_mean(inp, t))
        cfg_path = write_config(tmp_path, self.mc_config())
        assert main(["validate", "--config", cfg_path, "--out", str(tmp_path)]) == EXIT_FAIL
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert ".mean[" in report["worst_check"]
        assert report["familywise_p"] < 1e-6
        assert report["worst_check"] in capsys.readouterr().out

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


# each subcommand on a small config in one fresh interpreter, spectrum last:
# the package and every other subcommand run on numpy alone
_FRESH_RUN = """
import json, sys
import coldcloud, coldcloud.cli

cfg_dir, out = sys.argv[1:3]
runs = [("mean", "curves"), ("sigma", "curves"), ("saturated", "curves"),
        ("saturated", "strong"), ("variance", "curves"), ("covariance", "curves"),
        ("mc", "mc"), ("validate", "mc")]
codes = {}
for sub, cfg in runs:
    codes[sub + "/" + cfg] = coldcloud.cli.main(
        [sub, "--config", f"{cfg_dir}/{cfg}.json", "--out", f"{out}/{sub}"])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes["spectrum/curves"] = coldcloud.cli.main(
    ["spectrum", "--config", f"{cfg_dir}/curves.json", "--out", f"{out}/spectrum"])
print(json.dumps({"codes": codes, "scipy_before_spectrum": scipy,
                  "special_after_spectrum": "scipy.special" in sys.modules}))
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

    def test_scipy_loads_only_for_the_spectral_series(self, fresh_run):
        _, run = fresh_run
        assert set(run["codes"].values()) == {EXIT_OK}, run["codes"]
        assert run["scipy_before_spectrum"] == []
        assert run["special_after_spectrum"]

    def test_manifest_records_versions_and_stage_times(self, fresh_run):
        out, _ = fresh_run
        mean = json.loads((out / "mean" / "mean_manifest.json").read_text())
        spectrum = json.loads((out / "spectrum" / "spectrum_manifest.json").read_text())
        assert mean["scipy"] is None
        assert isinstance(spectrum["scipy"], str) and spectrum["scipy"]
        for manifest in (mean, spectrum):
            assert manifest["python"] == ".".join(map(str, sys.version_info[:3]))
            assert manifest["numpy"] == np.__version__
            for stage in ("load_s", "compute_s", "write_s"):
                assert manifest[stage] >= 0.0


_FAULT_COUNT = """
import resource, coldcloud
cloud = coldcloud.CloudParams(1e4, 1e-3, 0.1, 9.81)
beam = coldcloud.BeamParams(10e-6, 1e-9)
coldcloud.ensemble_stats(cloud, beam, [0.0, 0.01], 20, seed=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
coldcloud.ensemble_stats(cloud, beam, [0.0, 0.01], 200, seed=2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_realizations_reuse_heap_memory():
    # each realization allocates ~0.5 MB; once import coldcloud has raised
    # malloc's trim threshold the heap keeps it, and page faults stay near
    # zero instead of ~100 per realization
    assert int(run_python(["-c", _FAULT_COUNT], check=True).stdout) < 2000


FUZZED_FIELDS = [
    ("cloud", "n_total"), ("cloud", "sigma_r"), ("cloud", "sigma_v"), ("cloud", "g"),
    ("beam", "w0"), ("beam", "lambda"), ("optical", "delta"), ("optical", "s_m0"),
    ("cavity", "kappa"), ("cavity", "tau_c"),
]
# any finite float, with the extremes of the float range drawn often
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300, 1e308]),
)


class TestFuzzedScalarFields:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150)
    @given(overrides=st.fixed_dictionaries(
        {}, optional={field: finite_values for field in FUZZED_FIELDS}))
    def test_finite_csv_or_one_line_error(self, overrides):
        # grids and Monte Carlo sizes stay fixed: only the physics varies
        cfg = base_config()
        for (section, key), value in overrides.items():
            cfg[section][key] = value
        with tempfile.TemporaryDirectory() as out:
            cfg_path = os.path.join(out, "config.json")
            with open(cfg_path, "w", encoding="utf-8") as handle:
                json.dump(cfg, handle)
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
