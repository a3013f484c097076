import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relclock
from relclock import cli

# Directory holding the relclock package this process imported (src/ when run
# uninstalled). Put first on the child's PYTHONPATH so `python -m relclock.cli`
# runs the same source tree, whatever the working directory or install mode.
PACKAGE_ROOT = str(Path(relclock.__file__).resolve().parents[1])


def child_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def run_cli(*args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "relclock.cli", *args],
        capture_output=True,
        text=True,
        env=child_env() if env is None else env,
        cwd=cwd,
    )


def load_preset(name):
    return cli.load_config(cli.preset_path(name))


PRESETS = [
    "conditional_identity",
    "qubit_decay",
    "three_spin",
    "detect_event",
    "zurek_n8",
    "revival_suppression",
    "physical_evolve",
]


class TestValidate:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_bundled_presets_are_clean(self, preset):
        assert cli.validate_config(load_preset(preset)) == []

    def test_zero_window_named_violation(self):
        cfg = load_preset("physical_evolve")
        cfg["clock"]["delta_C"] = 0
        violations = cli.validate_config(cfg)
        assert "clock.delta_C must be > 0" in violations

    def test_undefined_environment_named_violation(self):
        cfg = load_preset("zurek_n8")
        del cfg["environment"]
        violations = cli.validate_config(cfg)
        assert any("references undefined environment" in v for v in violations)

    def test_unknown_query_kind(self):
        cfg = load_preset("conditional_identity")
        cfg["queries"].append({"kind": "nope"})
        assert any("unknown kind" in v for v in cli.validate_config(cfg))

    @pytest.mark.parametrize(
        "preset, mutate, message",
        [
            ("qubit_decay", lambda c: c["queries"][0].update(record_stride=0),
             "query 0 (master-evolve) record_stride must be at least 1"),
            ("qubit_decay", lambda c: c["queries"][0].update(record_stride=-1),
             "query 0 (master-evolve) record_stride must be at least 1"),
            ("qubit_decay", lambda c: c["queries"][0].pop("T_end"),
             "query 0 (master-evolve) needs T_end > 0"),
            ("qubit_decay", lambda c: c["queries"][1].update(T_values=[]),
             "query 1 (decay-scan) needs T_values, a nonempty list of numbers"),
            ("physical_evolve", lambda c: c["queries"][0].pop("T_values"),
             "query 0 (physical-evolve) needs T_values, a nonempty list of numbers"),
            ("physical_evolve", lambda c: c["clock"].update(tau="4"), "clock.tau must be > 0"),
            ("conditional_identity", lambda c: c.update(queries=[1]), "query 0 must be an object"),
            ("conditional_identity", lambda c: c["system"].update(initial_state="foo"),
             "system.initial_state 'foo' is not a named state"),
            ("conditional_identity", lambda c: c.update(output=5), "output must be a JSON object"),
            ("conditional_identity", lambda c: c["output"].update(dir=5), "output.dir must be a string"),
        ],
    )
    def test_per_kind_and_type_violations_named(self, preset, mutate, message):
        cfg = load_preset(preset)
        mutate(cfg)
        assert message in cli.validate_config(cfg)

    def test_validate_subcommand_exit_codes(self, tmp_path):
        good = cli.preset_path("conditional_identity")
        res = run_cli("validate", str(good))
        assert res.returncode == 0, res.stdout + res.stderr
        payload = json.loads(res.stdout)
        assert payload["valid"] and payload["violations"] == []

        bad = tmp_path / "bad.json"
        cfg = load_preset("physical_evolve")
        cfg["clock"]["delta_C"] = 0
        bad.write_text(json.dumps(cfg))
        res = run_cli("validate", str(bad))
        assert res.returncode == 1, res.stdout + res.stderr
        assert "clock.delta_C must be > 0" in json.loads(res.stdout)["violations"]

    @pytest.mark.parametrize(
        "preset, mutate, message",
        [
            ("zurek_n8", lambda c: c.update(environment={"n_spins": 14, "mode": "factorial"}),
             "environment.n_spins 14 exceeds 13: the dimension 2^(n_spins+1) must stay within the cap 16384"),
            ("zurek_n8", lambda c: c.update(environment={"n_spins": 15, "mode": "incommensurate"}),
             "environment.n_spins 15 exceeds the 14 spins of the incommensurate mode"),
            ("conditional_identity", lambda c: c["queries"][0].update(projector="sideways"),
             "query 0 (conditional-prob) projector 'sideways' is not a named projector"),
            ("conditional_identity", lambda c: c["queries"][0].pop("projector"),
             "query 0 (conditional-prob) needs a projector"),
            # values the runners would convert with float() or int()
            ("conditional_identity", lambda c: c["queries"][0].update(T0="one"),
             "query 0 (conditional-prob) T0 must be a number"),
            ("detect_event", lambda c: c["queries"][0].update(n_particles="ten"),
             "query 0 (detect-event) n_particles must be an integer"),
            ("detect_event", lambda c: c["queries"][0].update(alpha=None),
             "query 0 (detect-event) alpha must be a number"),
            ("detect_event", lambda c: c["queries"][1].update(t_star="7.7"),
             "query 1 (detect-event) t_star must be a number"),
            ("zurek_n8", lambda c: c["environment"].update(n_spins=12.5),
             "environment.n_spins must be an integer"),
            ("zurek_n8", lambda c: c["queries"][0].update(t_max=[12.0]),
             "query 0 (zurek) t_max must be a number"),
            ("zurek_n8", lambda c: c["queries"][0].update(n_points=480.5),
             "query 0 (zurek) n_points must be an integer"),
            ("zurek_n8", lambda c: c["queries"][0].update(samples="100"),
             "query 0 (zurek) samples must be an integer"),
            ("physical_evolve", lambda c: c["clock"].update(grid_points=40.7),
             "clock.grid_points must be an integer"),
            ("qubit_decay", lambda c: c["queries"][0].update(record_stride=2.5),
             "query 0 (master-evolve) record_stride must be an integer"),
            ("qubit_decay", lambda c: c["queries"][1].update(omega="2"),
             "query 1 (decay-scan) omega must be a number"),
            ("revival_suppression", lambda c: c["queries"][0].update(planck_per_unit=True),
             "query 0 (revival-suppression) planck_per_unit must be a number"),
        ],
    )
    def test_configs_that_cannot_run_are_violations(self, tmp_path, preset, mutate, message):
        cfg = load_preset(preset)
        mutate(cfg)
        assert message in cli.validate_config(cfg)
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli.run_config(cfg, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_integral_floats_are_integers(self):
        cfg = load_preset("zurek_n8")
        cfg["environment"]["n_spins"] = 8.0
        cfg["queries"][0]["n_points"] = 481.0
        assert cli.validate_config(cfg) == []

    @pytest.mark.parametrize("mode", ["incommensurate", "factorial", "harmonic"])
    def test_largest_environment_within_the_cap_is_clean(self, mode):
        cfg = load_preset("zurek_n8")
        cfg["environment"] = {"n_spins": 13, "mode": mode}
        assert cli.validate_config(cfg) == []


class TestRun:
    def test_identity_conditional_prob_artifact(self, tmp_path):
        res = run_cli("run", str(cli.preset_path("conditional_identity")), "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        lines = (tmp_path / "q00_conditional-prob.csv").read_text().splitlines()
        assert lines[0] == "T0,value"
        assert float(lines[1].split(",")[1]) == 1.0

    def test_three_spin_lattice_artifact(self, tmp_path):
        res = run_cli("run", str(cli.preset_path("three_spin")), "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        payload = json.loads((tmp_path / "q00_property-lattice.json").read_text())
        verdicts = {c["label"]: c["included"] for c in payload["candidates"]}
        assert verdicts == {"spin1-up": True, "2opposite3": True, "spin2-up": False}

    def test_qubit_decay_regression_recovers_exponent(self, tmp_path):
        res = run_cli("run", str(cli.preset_path("qubit_decay")), "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        lines = (tmp_path / "q00_master-evolve.csv").read_text().splitlines()[2:]
        rows = [[float(x) for x in line.split(",")] for line in lines]
        t = np.array([r[0] for r in rows])
        re01 = np.array([r[3] for r in rows])
        im01 = np.array([r[4] for r in rows])
        mag = np.hypot(re01, im01)
        keep = t > 0.5
        x = np.log(t[keep])
        y = np.log(-np.log(mag[keep] / mag[0]))
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(2.0 / 3.0, rel=0.02)

    def test_detect_event_pair(self, tmp_path):
        res = run_cli("run", str(cli.preset_path("detect_event")), "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        coherent = json.loads((tmp_path / "q00_detect-event.json").read_text())
        dephased = json.loads((tmp_path / "q01_detect-event.json").read_text())
        assert not coherent["event_occurred"]
        assert dephased["event_occurred"]
        assert sum(dephased["outcome_probabilities"].values()) == pytest.approx(1.0, abs=1e-8)

    def test_zurek_artifact_oracle_residuals(self, tmp_path):
        res = run_cli("run", str(cli.preset_path("zurek_n8")), "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        lines = (tmp_path / "q00_zurek.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("oracle_residual")
        residuals = [float(line.split(",")[idx]) for line in lines[1:]]
        assert max(residuals) <= 1e-9

    def test_revival_suppression_artifact(self, tmp_path):
        res = run_cli("run", str(cli.preset_path("revival_suppression")), "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr
        payload = json.loads((tmp_path / "q00_revival-suppression.json").read_text())
        assert payload["T_revival"] == pytest.approx(720.0)
        assert payload["N_min"] > payload["N"]

    @pytest.mark.parametrize("preset", ["qubit_decay", "detect_event", "conditional_identity"])
    def test_byte_identical_reruns(self, tmp_path, preset):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = run_cli("run", str(cli.preset_path(preset)), "--out", str(out))
            assert res.returncode == 0, res.stdout + res.stderr
        names = sorted(p.name for p in out1.iterdir())
        assert names and names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_runtime_failure_emits_error_json(self, tmp_path):
        cfg = load_preset("conditional_identity")
        cfg["queries"][0]["T0"] = 1000.0
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        res = run_cli("run", str(bad), "--out", str(tmp_path / "out"))
        assert res.returncode == 1, res.stdout + res.stderr
        payload = json.loads(res.stdout)
        assert payload["query_index"] == 0
        assert payload["kind"] == "conditional-prob"

    def test_invalid_config_rejected_before_running(self, tmp_path):
        cfg = load_preset("physical_evolve")
        cfg["clock"]["delta_C"] = 0
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        res = run_cli("run", str(bad), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        assert "delta_C" in json.loads(res.stdout)["message"]

    @pytest.mark.parametrize(
        "section, value, fragment",
        [
            ("system", {"name": "qubit-sz", "initial_state": "foo"}, "initial_state"),
            # passes validate; the environment builder rejects it
            ("environment", {"n_spins": 20, "mode": "incommensurate"}, "environment"),
        ],
    )
    def test_builder_failure_emits_config_error_json(self, tmp_path, section, value, fragment):
        cfg = load_preset("zurek_n8")
        cfg[section] = value
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        res = run_cli("run", str(bad), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        payload = json.loads(res.stdout)
        assert payload["error"] == "ConfigError"
        assert fragment in payload["message"]

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda c: {**c, "output": 5}, "output must be a JSON object"),
            (lambda c: [c], "config must be a JSON object"),
        ],
    )
    def test_malformed_output_section_emits_config_error_json(self, tmp_path, mutate, fragment):
        # No --out and no RELCLOCK_OUT: the output directory would have to come
        # from the config itself, which is not an object with an output dict.
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(mutate(load_preset("conditional_identity"))))
        env = child_env()
        env.pop("RELCLOCK_OUT", None)
        res = run_cli("run", str(bad), env=env, cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        payload = json.loads(res.stdout)
        assert payload["error"] == "ConfigError"
        assert fragment in payload["message"]
        assert not (tmp_path / "artifacts").exists()

    def test_env_var_output_dir(self, tmp_path):
        # No --out: the output directory must come from RELCLOCK_OUT. The child
        # runs in tmp_path so that the preset's own output.dir, if it were used
        # instead, lands there and not in the repository.
        res = run_cli(
            "run",
            str(cli.preset_path("conditional_identity")),
            env=child_env(RELCLOCK_OUT=str(tmp_path / "envout")),
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stdout + res.stderr
        assert (tmp_path / "envout" / "q00_conditional-prob.csv").exists()

    def test_preset_name_resolution(self, tmp_path):
        res = run_cli("run", "three_spin", "--out", str(tmp_path))
        assert res.returncode == 0, res.stdout + res.stderr

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_preset_runs_inside_budget(self, preset, tmp_path):
        import time

        cfg = load_preset(preset)
        t0 = time.perf_counter()
        paths = cli.run_config(cfg, tmp_path)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert all(p.exists() for p in paths)
