import csv
import json

import numpy as np
import pytest
import yaml

from gpcbf import cli
from gpcbf import config as config_mod
from gpcbf.errors import ConfigError


class TestConfigSchema:
    @pytest.mark.parametrize("plant", ["acc", "suspension", "synthetic"])
    def test_round_trip_identity(self, plant):
        cfg = config_mod.defaults(plant)
        text = config_mod.dump(cfg)
        reparsed = config_mod.from_dict(yaml.safe_load(text))
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

    def test_dt_vs_control_period(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["sim"]["dt"] = 0.1
        data["sim"]["control_period"] = 0.01
        with pytest.raises(ConfigError):
            config_mod.from_dict(data)

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
        assert cfg.plant == plant

    def test_run_missing_config_exits_2(self, capsys):
        assert cli.main(["run", "/nonexistent/config.yaml"]) == 2

    @pytest.mark.parametrize(
        "section",
        [
            "gp:\n  bogus_key: 1",
            "filter:\n  delta: 0.05",
            "filter:\n  soft_weight: 10",
            "filter:\n  solver_max_iter: 100",
            "sim:\n  seed: 0",
            "filter:\n  solver_tol: 1.0e-8",
            "gp:\n  jitter_schedule: [0.0]",
        ],
        ids=[
            "gp-bogus_key",
            "filter-delta",
            "filter-soft_weight",
            "filter-solver_max_iter",
            "sim-seed",
            "filter-solver_tol",
            "gp-jitter_schedule",
        ],
    )
    def test_run_invalid_config_exits_2(self, section, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(f"plant: acc\n{section}\n")
        assert cli.main(["run", str(path)]) == 2

    def test_validate_reports_json(self, capsys):
        rc = cli.main(["validate", "kernel", "--seed", "1"])
        out = capsys.readouterr().out
        reports = json.loads(out)
        assert rc == 0
        assert reports[0]["suite"] == "kernel"
        assert reports[0]["passed"]

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
