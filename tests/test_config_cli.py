import csv
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from gpcbf import cli
from gpcbf import config as config_mod
from gpcbf import plants
from gpcbf import validate as validate_mod
from gpcbf.errors import ConfigError
from gpcbf.experiment import run_benchmark

# The controller and disturbance keys each plant's scenario reads.
PLANT_KEYS = {
    "acc": {"controller": ["v_d", "lambda_rate"]},
    "suspension": {
        "controller": ["lqr_q", "lqr_r"],
        "disturbance": ["amplitude", "start", "width"],
    },
    "synthetic": {"controller": ["target"]},
}
# Another plant's keys, by test id: each must fail as unknown in its section.
OTHER_PLANT_KEYS = {
    f"{plant}-{section}.{key}_of_{other}": (
        plant,
        f"{section}:\n  {key}: 1.0",
        f"{section}: unknown keys ['{key}']",
    )
    for plant in PLANT_KEYS
    for other, sections in PLANT_KEYS.items()
    if other != plant
    for section, keys in sections.items()
    for key in keys
}


def _section_keys(data: dict) -> dict:
    """The controller and disturbance keys of a config's plain data."""
    return {name: list(data[name]) for name in ("controller", "disturbance") if name in data}


class TestConfigSchema:
    @pytest.mark.parametrize("plant", ["acc", "suspension", "synthetic"])
    def test_round_trip_identity(self, plant):
        cfg = config_mod.defaults(plant)
        text = config_mod.dump(cfg)
        reparsed = config_mod.from_dict(yaml.safe_load(text))
        assert reparsed == cfg
        assert config_mod.to_dict(reparsed) == config_mod.to_dict(cfg)

    def test_unknown_top_level_key_rejected(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["plnat"] = "acc"
        with pytest.raises(ConfigError, match="plnat"):
            config_mod.from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["gp"]["lenghtscales"] = [1.0]
        with pytest.raises(ConfigError, match="lenghtscales"):
            config_mod.from_dict(data)

    def test_bad_plant_rejected(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["plant"] = "rocket"
        with pytest.raises(ConfigError):
            config_mod.from_dict(data)

    def test_gains_char_coeffs_exclusive(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["hocbf"]["char_coeffs"] = [4.0, 3.75]
        with pytest.raises(ConfigError):
            config_mod.from_dict(data)

    def test_signal_variance_count_checked(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["gp"]["signal_variances"] = [1.0, 1.0]
        with pytest.raises(ConfigError):
            config_mod.from_dict(data)

    def test_signal_variance_count_is_r_plus_m(self, tmp_path, monkeypatch, capsys):
        # One signal variance per base kernel, q = r + m: a two-input
        # synthetic plant takes four, and its three defaults exit 2.
        cfg = config_mod.defaults("synthetic")
        monkeypatch.setitem(plants.DIMENSIONS, "synthetic", (2, 2, 2))
        cfg.gp.signal_variances = [1.0, 1.0, 1.0e-4, 1.0e-4]
        assert cfg.validate() is cfg
        path = tmp_path / "three.yaml"
        path.write_text("plant: synthetic\n")
        assert cli.main(["run", str(path)]) == 2
        assert "gp.signal_variances must have 4 entries" in capsys.readouterr().err

    def test_dt_vs_control_period(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["sim"]["dt"] = 0.1
        data["sim"]["control_period"] = 0.01
        with pytest.raises(ConfigError):
            config_mod.from_dict(data)

    @pytest.mark.parametrize("plant", ["acc", "suspension", "synthetic"])
    def test_plant_alone_gives_its_defaults(self, plant):
        assert config_mod.from_dict({"plant": plant}) == config_mod.defaults(plant)

    def test_one_key_keeps_the_plant_defaults(self):
        cfg = config_mod.from_dict({"plant": "suspension", "sim": {"horizon": 5.0}})
        expected = config_mod.defaults("suspension")
        expected.sim.horizon = 5.0
        assert cfg == expected

    @pytest.mark.parametrize(
        "plant, hocbf, gains",
        [
            ("suspension", {"gains": [20.0, 19.75]}, [20.0, 19.75]),
            ("acc", {"char_coeffs": [4.0, 3.75]}, [1.5, 2.5]),
        ],
    )
    def test_setting_one_gain_form_clears_the_other(self, plant, hocbf, gains):
        cfg = config_mod.from_dict({"plant": plant, "hocbf": hocbf})
        assert cfg.hocbf.resolve_gains() == pytest.approx(gains)
        assert cfg.hocbf.threshold == config_mod.defaults(plant).hocbf.threshold

    def test_other_plants_sections_fail_validate(self):
        with pytest.raises(ConfigError, match="^controller: plant suspension takes"):
            config_mod.ExperimentConfig(plant="suspension").validate()
        cfg = config_mod.defaults("suspension")
        cfg.disturbance = config_mod.NoDisturbanceConfig()
        with pytest.raises(ConfigError, match="^disturbance: plant suspension takes"):
            cfg.validate()
        acc = config_mod.defaults("acc")
        acc.controller = config_mod.SyntheticControllerConfig()
        with pytest.raises(ConfigError, match="^controller: plant acc takes"):
            acc.validate()

    def test_comments_allowed_in_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("# benchmark setup\nplant: synthetic\n")
        cfg = config_mod.load(path)
        assert cfg.plant == "synthetic"


class TestCli:
    @pytest.mark.parametrize("plant", ["acc", "suspension", "synthetic"])
    def test_print_defaults_parses(self, plant, capsys):
        rc = cli.main(["print-defaults", "--plant", plant])
        assert rc == 0
        out = capsys.readouterr().out
        cfg = config_mod.from_dict(yaml.safe_load(out))
        assert cfg == config_mod.defaults(plant)

    @pytest.mark.parametrize("plant", ["acc", "suspension", "synthetic"])
    def test_run_config_yaml_holds_only_its_plants_keys(self, plant, tmp_path, capsys):
        cfg = config_mod.defaults(plant)
        cfg.sim.horizon = 0.1
        cfg.episodic.max_episodes = 1
        run_benchmark(cfg, str(tmp_path))
        path = tmp_path / "config.yaml"
        assert _section_keys(yaml.safe_load(path.read_text())) == PLANT_KEYS[plant]
        assert config_mod.load(path) == cfg

    def test_run_prints_progress_lines_on_stdout(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "synthetic.yaml"
        path.write_text("plant: synthetic\nsim:\n  horizon: 0.5\n")
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert re.fullmatch(r"benchmark synthetic: \d+\.\ds wall", lines[0])
        for line, arm in zip(lines[1:4], ("nominal", "gp", "oracle")):
            assert re.fullmatch(
                rf"  {arm}: completed, min_h=\S+, viol=None, rms_vs_oracle=\S+", line
            )
        assert lines[4] == "  dataset: 0 rows over 1 episodes"
        assert logging.getLogger("gpcbf").handlers == []

    def test_run_benchmark_logs_instead_of_printing(self, tmp_path, capsys, caplog):
        cfg = config_mod.defaults("synthetic")
        cfg.sim.horizon = 0.5
        with caplog.at_level(logging.INFO, logger="gpcbf"):
            run_benchmark(cfg, str(tmp_path))
        assert capsys.readouterr().out == ""
        messages = [r.getMessage() for r in caplog.records if r.name == "gpcbf.experiment"]
        assert messages[0].startswith("benchmark synthetic: ") and len(messages) == 5

    def test_run_missing_config_exits_2(self, capsys):
        assert cli.main(["run", "/nonexistent/config.yaml"]) == 2

    def test_run_output_dir_that_cannot_be_made_exits_1(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "synthetic.yaml"
        path.write_text("plant: synthetic\n")
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(blocker / "out"))
        assert cli.main(["run", str(path)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime failure: ")
        assert logging.getLogger("gpcbf").handlers == []

    @pytest.mark.parametrize(
        "plant, section, key",
        [
            ("acc", "gp:\n  bogus_key: 1", "bogus_key"),
            ("acc", "filter:\n  delta: 0.05", "delta"),
            ("acc", "filter:\n  soft_weight: 10", "soft_weight"),
            ("acc", "filter:\n  solver_max_iter: 100", "solver_max_iter"),
            ("acc", "sim:\n  seed: 0", "seed"),
            ("acc", "filter:\n  solver_tol: 1.0e-8", "solver_tol"),
            ("acc", "gp:\n  jitter_schedule: [0.0]", "jitter_schedule"),
            ("acc", "gp:\n  noise_variance: null", "gp.noise_variance"),
            ("acc", "sim:\n  x0: [20.0, 100.0, 0.0]", "sim.x0"),
            ("acc", "gp:\n  lengthscales: [8.0, 40.0, 1.0]", "gp.lengthscales"),
            ("synthetic", "controller:\n  target: [1.5, 0.0, 0.0]", "controller.target"),
            ("acc", "sim:\n  dt: 0.003\n  control_period: 0.01", "sim.control_period"),
            # round(1.5) and round(2.5) both give 2 holds.
            ("synthetic", "sim:\n  horizon: 0.015", "sim.horizon"),
            ("synthetic", "sim:\n  horizon: 0.025", "sim.horizon"),
            ("synthetic", "sim:\n  horizon: .inf", "sim.horizon"),
            # ratios that overflow to inf are no whole multiples
            ("acc", "sim:\n  dt: 5.0e-324\n  control_period: 1.0", "sim.control_period"),
            ("acc", "sim:\n  horizon: 1.0e+308\n  control_period: 1.0e-2", "sim.horizon"),
            ("synthetic", "filter:\n  beta: .nan", "filter.beta"),
            ("synthetic", "gp:\n  noise_variance: .nan", "gp.noise_variance"),
            ("synthetic", "gp:\n  lengthscales: [.nan, 2.0]", "gp.lengthscales"),
            ("synthetic", "gp:\n  signal_variances: [1.0, .nan, 1.0e-4]", "gp.signal_variances"),
            ("synthetic", "sim:\n  x0: [.nan, 0.0]", "sim.x0"),
            ("synthetic", "sim:\n  x0: [a, 0.0]", "sim.x0"),
            ("synthetic", "episodic:\n  label_stride: 1.5", "episodic.label_stride"),
            ("synthetic", "episodic:\n  max_episodes: 2.5", "episodic.max_episodes"),
            ("synthetic", "filter:\n  trace: \"yes\"", "filter.trace"),
            ("synthetic", "sim: [unclosed", "bad.yaml"),
            ("synthetic", "sim:\n  horizon: 0.0", "sim.horizon"),
            ("synthetic", "output:\n  dir: ''", "output.dir"),
            # Three gains with four signal variances is consistent with m + r,
            # but every plant's barrier has relative degree 2.
            (
                "synthetic",
                "hocbf:\n  gains: [1.0, 2.0, 3.0]\ngp:\n  signal_variances: [1.0, 1.0, 1.0, 1.0e-4]",
                "hocbf.gains",
            ),
            (
                "acc",
                "hocbf:\n  char_coeffs: [6.0, 11.0, 6.0]\ngp:\n  signal_variances: [4.0, 1.0, 0.25, 1.0e-7]",
                "hocbf.char_coeffs",
            ),
        ]
        + list(OTHER_PLANT_KEYS.values()),
        ids=[
            "gp-bogus_key",
            "filter-delta",
            "filter-soft_weight",
            "filter-solver_max_iter",
            "sim-seed",
            "filter-solver_tol",
            "gp-jitter_schedule",
            "gp-noise_variance_null",
            "sim-x0_length",
            "gp-lengthscales_length",
            "controller-target_length",
            "sim-control_period_not_multiple_of_dt",
            "sim-horizon_1.5_holds",
            "sim-horizon_2.5_holds",
            "sim-horizon_inf",
            "sim-control_period_over_dt_overflows",
            "sim-horizon_over_control_period_overflows",
            "filter-beta_nan",
            "gp-noise_variance_nan",
            "gp-lengthscales_nan",
            "gp-signal_variances_nan",
            "sim-x0_nan",
            "sim-x0_string",
            "episodic-label_stride_float",
            "episodic-max_episodes_float",
            "filter-trace_string",
            "yaml-syntax_error",
            "sim-horizon_zero",
            "output-dir_empty",
            "hocbf-three_gains",
            "hocbf-three_char_coeffs",
        ]
        + list(OTHER_PLANT_KEYS),
    )
    def test_run_invalid_config_exits_2(self, plant, section, key, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(f"plant: {plant}\n{section}\n")
        assert cli.main(["run", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_validate_reports_json(self, capsys):
        rc = cli.main(["validate", "kernel", "--seed", "1"])
        out = capsys.readouterr().out
        reports = json.loads(out)
        assert rc == 0
        assert reports[0]["suite"] == "kernel"
        assert reports[0]["passed"]

    def test_validate_dispatches_through_suite_table(self, monkeypatch, capsys):
        names = ["kernel", "solver", "decomposition", "feasibility"]
        assert list(validate_mod.SUITES) == names
        calls = []

        def stub(name):
            def suite(seed):
                calls.append((name, seed))
                return {"suite": name, "passed": True}

            return suite

        for name in names:
            monkeypatch.setitem(validate_mod.SUITES, name, stub(name))
        for name in names:
            calls.clear()
            assert validate_mod.run_suite(name, seed=3) == [{"suite": name, "passed": True}]
            assert calls == [(name, 3)]
        calls.clear()
        assert [r["suite"] for r in validate_mod.run_suite("all", seed=4)] == names
        assert calls == [(name, 4) for name in names]
        assert cli.main(["validate", "solver", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out) == [{"suite": "solver", "passed": True}]
        with pytest.raises(ValueError, match="bogus"):
            validate_mod.run_suite("bogus")
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "bogus"])
        assert exc.value.code == 2

    def test_print_defaults_and_config_error_load_no_scipy(self, tmp_path):
        # Both commands exit before any numerics, so they must not pay for
        # importing scipy through the suites or the experiment runner.
        bad = tmp_path / "bad.yaml"
        bad.write_text("plant: synthetic\nsim:\n  horizon: 0.0\n")
        code = (
            "import sys\n"
            "from gpcbf import cli\n"
            "assert cli.main(['print-defaults', '--plant', 'suspension']) == 0\n"
            f"assert cli.main(['run', {str(bad)!r}]) == 2\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("plant: suspension\n")
        assert "config error:" in proc.stderr

    def test_synthetic_run_end_to_end(self, tmp_path, monkeypatch, capsys):
        cfg = config_mod.defaults("synthetic")
        path = tmp_path / "syn.yaml"
        path.write_text(config_mod.dump(cfg))
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["run", str(path)]) == 0
        out_dir = tmp_path / "out"
        for name in ("nominal.csv", "gp.csv", "oracle.csv", "summary.csv", "dataset.csv", "config.yaml"):
            assert (out_dir / name).exists()
        # zero mismatch: the three arms coincide within solver tolerance
        us = {}
        for arm in ("nominal", "gp", "oracle"):
            with open(out_dir / f"{arm}.csv") as fh:
                us[arm] = np.array([float(r["u_1"]) for r in csv.DictReader(fh)])
        np.testing.assert_allclose(us["nominal"], us["oracle"], atol=1e-8)
        np.testing.assert_allclose(us["gp"], us["oracle"], atol=1e-8)
        episodes = sorted(out_dir.glob("gp_episode_*.csv"))
        assert episodes and (out_dir / "gp.csv").read_bytes() == episodes[-1].read_bytes()

    def test_summary_recomputable_from_csvs(self, tmp_path, monkeypatch, capsys):
        cfg = config_mod.defaults("synthetic")
        path = tmp_path / "syn.yaml"
        path.write_text(config_mod.dump(cfg))
        out_dir = tmp_path / "out"
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(out_dir))
        assert cli.main(["run", str(path)]) == 0

        with open(out_dir / "summary.csv") as fh:
            summary = {row["arm"]: row for row in csv.DictReader(fh)}
        with open(out_dir / "oracle.csv") as fh:
            oracle_rows = list(csv.DictReader(fh))
        for arm in ("nominal", "gp", "oracle"):
            with open(out_dir / f"{arm}.csv") as fh:
                rows = list(csv.DictReader(fh))
            h = np.array([float(r["h"]) for r in rows])
            assert float(summary[arm]["min_h"]) == pytest.approx(h.min(), rel=1e-12)
            n = min(len(rows), len(oracle_rows))
            du = np.array(
                [float(rows[k]["u_1"]) - float(oracle_rows[k]["u_1"]) for k in range(n)]
            )
            rms = float(np.sqrt(np.mean(du**2)))
            assert float(summary[arm]["rms_dev_from_oracle"]) == pytest.approx(rms, abs=1e-12)
