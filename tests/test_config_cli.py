import csv
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _leaves(section, path=()):
    """(key path, declared type, value) of every leaf field of a config section."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, (*path, f.name))
        else:
            yield (*path, f.name), f.type, value


# Each leaf field of each plant's defaults, the fields its printed YAML holds.
LEAVES = [
    (plant, *leaf)
    for plant in config_mod.PLANT_SECTIONS
    for leaf in _leaves(config_mod.defaults(plant))
]


def _invalid_values(declared, value):
    """Values that a field of the declared type, holding value, must reject."""
    if declared is float:
        return st.sampled_from([math.nan, math.inf, -math.inf])
    if declared is int:
        return st.sampled_from([1.5, True])
    if declared is bool:
        return st.just("yes")
    if declared is str:
        return st.just(1.5)
    entries = [0.0] if value is None else value  # list or Optional[list]
    nan_entry = st.integers(0, len(entries) - 1).map(
        lambda i: [*entries[:i], math.nan, *entries[i + 1 :]]
    )
    return nan_entry | st.just(1.0)


def _invalid_leaf(leaf):
    """(plant, key path, invalid value) for one of LEAVES."""
    plant, path, declared, value = leaf
    return _invalid_values(declared, value).map(lambda invalid: (plant, path, invalid))


def _section_keys(data: dict) -> dict:
    """The controller and disturbance keys of a config's plain data."""
    return {name: list(data[name]) for name in ("controller", "disturbance") if name in data}


class TestConfigSchema:
    @pytest.mark.parametrize("plant", ["acc", "suspension"])
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
        # acc plant takes four, and its three defaults exit 2.
        cfg = config_mod.defaults("acc")
        monkeypatch.setitem(plants.DIMENSIONS, "acc", (2, 2, 2))
        cfg.gp.signal_variances = [4.0, 0.25, 1.0e-7, 1.0e-7]
        assert cfg.validate() is cfg
        path = tmp_path / "three.yaml"
        path.write_text("plant: acc\n")
        assert cli.main(["run", str(path)]) == 2
        assert "gp.signal_variances must have 4 entries" in capsys.readouterr().err

    def test_dt_vs_control_period(self):
        data = config_mod.to_dict(config_mod.defaults("acc"))
        data["sim"]["dt"] = 0.1
        data["sim"]["control_period"] = 0.01
        with pytest.raises(ConfigError):
            config_mod.from_dict(data)

    @pytest.mark.parametrize("plant", ["acc", "suspension"])
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
        acc.controller = config_mod.SuspensionControllerConfig()
        with pytest.raises(ConfigError, match="^controller: plant acc takes"):
            acc.validate()

    def test_comments_allowed_in_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("# benchmark setup\nplant: suspension\n")
        cfg = config_mod.load(path)
        assert cfg.plant == "suspension"


class TestCli:
    @pytest.mark.parametrize("plant", ["acc", "suspension"])
    def test_print_defaults_parses(self, plant, capsys):
        rc = cli.main(["print-defaults", "--plant", plant])
        assert rc == 0
        out = capsys.readouterr().out
        cfg = config_mod.from_dict(yaml.safe_load(out))
        assert cfg == config_mod.defaults(plant)

    @pytest.mark.parametrize("plant", ["acc", "suspension"])
    def test_run_config_yaml_holds_only_its_plants_keys(self, plant, tmp_path, capsys):
        cfg = config_mod.defaults(plant)
        cfg.sim.horizon = 0.1
        cfg.episodic.max_episodes = 1
        run_benchmark(cfg, str(tmp_path))
        path = tmp_path / "config.yaml"
        assert _section_keys(yaml.safe_load(path.read_text())) == PLANT_KEYS[plant]
        assert config_mod.load(path) == cfg

    def test_run_prints_progress_lines_on_stdout(self, tmp_path, monkeypatch, capsys):
        # The nominal arm first violates after 5 s, so in 0.5 s no arm
        # violates and training ends after one episode.
        path = tmp_path / "acc.yaml"
        path.write_text("plant: acc\nsim:\n  horizon: 0.5\n")
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert re.fullmatch(r"benchmark acc: \d+\.\ds wall", lines[0])
        for line, arm in zip(lines[1:4], ("nominal", "gp", "oracle")):
            assert re.fullmatch(
                rf"  {arm}: completed, min_h=\S+, viol=None, rms_vs_oracle=\S+", line
            )
        assert lines[4] == "  dataset: 0 rows over 1 episodes"
        assert logging.getLogger("gpcbf").handlers == []

    def test_run_benchmark_logs_instead_of_printing(self, tmp_path, capsys, caplog):
        cfg = config_mod.defaults("acc")
        cfg.sim.horizon = 0.5
        with caplog.at_level(logging.INFO, logger="gpcbf"):
            run_benchmark(cfg, str(tmp_path))
        assert capsys.readouterr().out == ""
        messages = [r.getMessage() for r in caplog.records if r.name == "gpcbf.experiment"]
        assert messages[0].startswith("benchmark acc: ") and len(messages) == 5

    def test_run_missing_config_exits_2(self, capsys):
        assert cli.main(["run", "/nonexistent/config.yaml"]) == 2

    def test_run_output_dir_that_cannot_be_made_exits_1(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "acc.yaml"
        path.write_text("plant: acc\n")
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
            ("acc", "sim:\n  dt: 0.003\n  control_period: 0.01", "sim.control_period"),
            # round(1.5) and round(2.5) both give 2 holds.
            ("acc", "sim:\n  horizon: 0.015", "sim.horizon"),
            ("suspension", "sim:\n  horizon: 0.025", "sim.horizon"),
            ("acc", "sim:\n  horizon: .inf", "sim.horizon"),
            # ratios that overflow to inf are no whole multiples
            ("acc", "sim:\n  dt: 5.0e-324\n  control_period: 1.0", "sim.control_period"),
            ("acc", "sim:\n  horizon: 1.0e+308\n  control_period: 1.0e-2", "sim.horizon"),
            ("acc", "filter:\n  beta: .nan", "filter.beta"),
            ("suspension", "gp:\n  noise_variance: .nan", "gp.noise_variance"),
            ("suspension", "gp:\n  lengthscales: [.nan, 0.5, 3.0, 10.0]", "gp.lengthscales"),
            ("acc", "gp:\n  signal_variances: [4.0, .nan, 1.0e-7]", "gp.signal_variances"),
            ("suspension", "sim:\n  x0: [0.0, .nan, 0.0, 0.0]", "sim.x0"),
            ("acc", "sim:\n  x0: [a, 100.0]", "sim.x0"),
            ("suspension", "episodic:\n  label_stride: 1.5", "episodic.label_stride"),
            ("acc", "episodic:\n  max_episodes: 2.5", "episodic.max_episodes"),
            ("suspension", "filter:\n  trace: \"yes\"", "filter.trace"),
            ("acc", "sim: [unclosed", "bad.yaml"),
            ("suspension", "sim:\n  horizon: 0.0", "sim.horizon"),
            ("acc", "output:\n  dir: ''", "output.dir"),
            # A nominal LQR law needs R > 0 and Q >= 0; a bump needs a width.
            ("suspension", "controller:\n  lqr_r: 0", "controller.lqr_r"),
            ("suspension", "controller:\n  lqr_r: -1", "controller.lqr_r"),
            ("suspension", "controller:\n  lqr_q: -1", "controller.lqr_q"),
            # Weights that validate, but whose Riccati equation has no stabilizing solution.
            ("suspension", "controller:\n  lqr_q: 1.0e+300", "controller.lqr_q"),
            ("suspension", "controller:\n  lqr_r: 1.0e-300", "controller.lqr_r"),
            ("suspension", "disturbance:\n  width: 0", "disturbance.width"),
            ("suspension", "disturbance:\n  width: -1", "disturbance.width"),
            ("synthetic", "", "unknown plant 'synthetic'"),
            # Three gains with four signal variances is consistent with m + r,
            # but every plant's barrier has relative degree 2.
            (
                "suspension",
                "hocbf:\n  gains: [1.0, 2.0, 3.0]\ngp:\n  signal_variances: [1.0e-4, 1.0e-2, 1.0e-2, 1.0e-6]",
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
            "controller-lqr_r_zero",
            "controller-lqr_r_negative",
            "controller-lqr_q_negative",
            "controller-lqr_q_without_stabilizing_gain",
            "controller-lqr_r_without_stabilizing_gain",
            "disturbance-width_zero",
            "disturbance-width_negative",
            "plant-synthetic_unknown",
            "hocbf-three_gains",
            "hocbf-three_char_coeffs",
        ]
        + list(OTHER_PLANT_KEYS),
    )
    def test_run_invalid_config_exits_2(self, plant, section, key, tmp_path, monkeypatch, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(f"plant: {plant}\n{section}\n")
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["run", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=st.sampled_from(LEAVES).flatmap(_invalid_leaf))
    def test_run_exits_2_on_any_leaf_made_invalid(self, case, tmp_path, monkeypatch, capsys):
        # One leaf of a plant's printed defaults set to a value of the wrong
        # type: a non-finite float, a non-integer, a non-bool, a non-string,
        # or a NaN entry or a bare scalar for a list.
        plant, path, invalid = case
        config = yaml.safe_load(config_mod.dump(config_mod.defaults(plant)))
        section = config
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = invalid
        file = tmp_path / "bad.yaml"
        file.write_text(yaml.safe_dump(config, sort_keys=False))
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(tmp_path / "out"))
        capsys.readouterr()
        assert cli.main(["run", str(file)]) == 2
        assert ".".join(path) in capsys.readouterr().err

    def test_print_defaults_of_unknown_plant_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["print-defaults", "--plant", "synthetic"])
        assert exc.value.code == 2

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
        assert cli.main(["validate", "bogus"]) == 2
        assert "unknown suite 'bogus'" in capsys.readouterr().err

    def test_print_defaults_and_config_error_load_no_scipy(self, tmp_path):
        # Both commands exit before any numerics, so they must not pay for
        # importing scipy through the suites or the experiment runner.
        bad = tmp_path / "bad.yaml"
        bad.write_text("plant: acc\nsim:\n  horizon: 0.0\n")
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

    def test_run_end_to_end(self, tmp_path, monkeypatch, capsys):
        cfg = config_mod.defaults("acc")
        cfg.sim.horizon = 0.5
        path = tmp_path / "acc.yaml"
        path.write_text(config_mod.dump(cfg))
        monkeypatch.setenv("GPCBF_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["run", str(path)]) == 0
        out_dir = tmp_path / "out"
        for name in ("nominal.csv", "gp.csv", "oracle.csv", "summary.csv", "dataset.csv", "config.yaml"):
            assert (out_dir / name).exists()
        # No arm violates in 0.5 s, so training stops after its first
        # episode, which runs the nominal arm's filter: the three files match.
        episodes = sorted(out_dir.glob("gp_episode_*.csv"))
        assert [p.name for p in episodes] == ["gp_episode_1.csv"]
        nominal = (out_dir / "nominal.csv").read_bytes()
        assert (out_dir / "gp.csv").read_bytes() == episodes[0].read_bytes() == nominal

    def test_summary_recomputable_from_csvs(self, tmp_path, monkeypatch, capsys):
        cfg = config_mod.defaults("acc")
        cfg.sim.horizon = 0.5
        path = tmp_path / "acc.yaml"
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
