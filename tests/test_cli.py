import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relclock as rc
from relclock import cli

# Directory holding the relclock package this process imported (src/ when run
# uninstalled). Put first on the child's PYTHONPATH so `python -m relclock.cli`
# runs the same source tree, whatever the working directory or install mode.
PACKAGE_ROOT = str(Path(rc.__file__).resolve().parents[1])


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


# a 4-level system with an explicit Hamiltonian and an embedded initial state
FOUR_LEVEL = {
    "hamiltonian": {"dims": [4], "re": np.diag([0.0, 1.0, 2.0, 3.0]).tolist(), "im": np.zeros((4, 4)).tolist()},
    "initial_state": {"dims": [4], "re": np.full((4, 4), 0.25).tolist(), "im": np.zeros((4, 4)).tolist()},
}


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

    @pytest.mark.parametrize("kind", [[], {"kind": "zurek"}], ids=["list", "dict"])
    def test_unhashable_query_kind_is_unknown(self, kind):
        cfg = load_preset("conditional_identity")
        cfg["queries"].append({"kind": kind})
        assert cli.validate_config(cfg) == [f"query 1: unknown kind {kind!r}"]

    @pytest.mark.parametrize(
        "preset, mutate, message",
        [
            ("qubit_decay", lambda c: c["queries"][0].update(record_stride=0),
             "query 0 (master-evolve) record_stride must be at least 1"),
            ("qubit_decay", lambda c: c["queries"][0].update(record_stride=-1),
             "query 0 (master-evolve) record_stride must be at least 1"),
            ("zurek_n8", lambda c: c["queries"][0].update(n_points=0),
             "query 0 (zurek) n_points must be at least 1"),
            ("zurek_n8", lambda c: c["queries"][0].update(samples=0),
             "query 0 (zurek) samples must be at least 1"),
            ("detect_event", lambda c: c["queries"][0].update(n_particles=0),
             "query 0 (detect-event) n_particles must be at least 1"),
            ("detect_event", lambda c: c["queries"][1].update(n_particles=-1),
             "query 1 (detect-event) n_particles must be at least 1"),
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

    def test_seed_checked_like_every_integer_key(self):
        cfg = load_preset("zurek_n8")
        cfg["seed"] = True
        assert "seed must be a nonnegative integer" in cli.validate_config(cfg)
        cfg["seed"] = 3.0
        assert cli.validate_config(cfg) == []

    # json reads integers of any size; one beyond the float range is no number
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda c, v: c.update(seed=v), "seed must be a nonnegative integer"),
            (lambda c, v: c["queries"][0].update(n_points=v), "query 0 (zurek) n_points must be an integer"),
            (lambda c, v: c["queries"][0].update(t_max=v), "query 0 (zurek) t_max must be a number"),
        ],
        ids=["seed", "n_points", "t_max"],
    )
    def test_integers_beyond_the_float_range_are_violations(self, tmp_path, mutate, message):
        cfg = load_preset("zurek_n8")
        mutate(cfg, 10**400)
        assert message in cli.validate_config(cfg)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        res = run_cli("validate", str(path))
        assert res.returncode == 1, res.stdout + res.stderr
        assert message in json.loads(res.stdout)["violations"]

    def test_dims_whose_product_wraps_in_int64_are_violations(self, tmp_path):
        # 3 * 6148914691236517206 = 2^64 + 2, which int64 arithmetic wraps to the 2 rows given
        dims = [3, 6148914691236517206]
        cfg = load_preset("qubit_decay")
        cfg["system"] = {
            "hamiltonian": {"dims": dims, "re": rc.SIGMA_Z.real.tolist(), "im": np.zeros((2, 2)).tolist()},
            "initial_state": {"dims": dims, "re": np.full((2, 2), 0.5).tolist(), "im": np.zeros((2, 2)).tolist()},
        }
        messages = [f"system.{key} dims {dims} multiply to {2**64 + 2}, but its matrix has 2 rows"
                    for key in ("hamiltonian", "initial_state")]
        assert cli.validate_config(cfg) == messages
        with pytest.raises(cli.ConfigError, match="multiply to"):
            cli.run_config(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        path = tmp_path / "wrapped.json"
        path.write_text(json.dumps(cfg))
        res = run_cli("validate", str(path))
        assert res.returncode == 1, res.stdout + res.stderr
        assert json.loads(res.stdout)["violations"] == messages

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

        # an unhashable kind is a violation, not a traceback
        cfg = load_preset("conditional_identity")
        cfg["queries"][0]["kind"] = []
        bad.write_text(json.dumps(cfg))
        res = run_cli("validate", str(bad))
        assert res.returncode == 1, res.stdout + res.stderr
        assert json.loads(res.stdout) == {"valid": False, "violations": ["query 0: unknown kind []"]}

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
            # sections and systems the runners read
            ("qubit_decay", lambda c: c.pop("system"),
             "query 0 (master-evolve) requires the system section"),
            ("conditional_identity", lambda c: c.pop("system"),
             "query 0 (conditional-prob) requires the system section"),
            ("qubit_decay", lambda c: c.update(system={"name": "three-spin"}),
             "query 0 (master-evolve) needs a system hamiltonian, and the three-spin preset has none"),
            ("physical_evolve", lambda c: c["queries"][0].update(T_values=c["queries"][0]["T_values"][::-1]),
             "query 0 (physical-evolve) T_values must be strictly increasing"),
            ("detect_event", lambda c: c["queries"][0].update(system_state="foo"),
             "query 0 (detect-event) system_state 'foo' is not 'coherent' or 'dephased'"),
            # named qubit projectors on systems that are not qubits
            ("conditional_identity",
             lambda c: (c.update(system={"name": "three-spin"}), c["queries"][0].update(projector="up")),
             "query 0 (conditional-prob) projector 'up' acts on a qubit, and the system has dimension 8"),
            ("conditional_identity",
             lambda c: (c.update(system=FOUR_LEVEL), c["queries"][0].update(projector="minus")),
             "query 0 (conditional-prob) projector 'minus' acts on a qubit, and the system has dimension 4"),
        ],
    )
    def test_configs_that_cannot_run_are_violations(self, tmp_path, preset, mutate, message):
        cfg = load_preset(preset)
        mutate(cfg)
        assert message in cli.validate_config(cfg)
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli.run_config(cfg, tmp_path)
        assert not any(tmp_path.iterdir())

    # Python's json reads NaN and Infinity, which no runner can use
    @pytest.mark.parametrize(
        "value, mutations",
        [
            (math.nan, [
                ("qubit_decay", lambda c, v: c["queries"][1].update(omega=v),
                 "query 1 (decay-scan) omega must be a number"),
                ("detect_event", lambda c, v: c["queries"][0].update(alpha=v),
                 "query 0 (detect-event) alpha must be a number"),
            ]),
            (math.inf, [
                ("qubit_decay", lambda c, v: c["queries"][1].update(T_values=[1.0, 2.0, v]),
                 "query 1 (decay-scan) needs T_values, a nonempty list of numbers"),
                ("physical_evolve", lambda c, v: c["clock"].update(tau=v), "clock.tau must be > 0"),
            ]),
        ],
        ids=["nan", "infinity"],
    )
    def test_non_finite_numbers_are_violations(self, tmp_path, capsys, value, mutations):
        for preset, mutate, message in mutations:
            cfg = load_preset(preset)
            mutate(cfg, value)
            path = tmp_path / f"{preset}.json"
            path.write_text(json.dumps(cfg))
            assert "NaN" in path.read_text() or "Infinity" in path.read_text()
            assert cli.main(["validate", str(path)]) == 1
            assert message in json.loads(capsys.readouterr().out)["violations"]
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
            assert message in json.loads(capsys.readouterr().out)["message"]
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system", [{"name": "three-spin"}, FOUR_LEVEL], ids=["three-spin", "four-level"])
    def test_identity_projector_on_any_system_dimension(self, tmp_path, system):
        cfg = load_preset("conditional_identity")
        cfg["system"] = system
        assert cli.validate_config(cfg) == []
        (path,) = cli.run_config(cfg, tmp_path)
        assert float(path.read_text().splitlines()[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

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


def value_paths(node, path=()):
    """The key or index path of every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


DELETE = object()

# one of each JSON type, plus strings that name real choices so that mutants
# get past the first checks; numbers are never larger than the value replaced
# (below), since validate sets no size limits yet.  Integers beyond the float
# range, which json reads, are no numbers to validate and are drawn anywhere.
REPLACEMENTS = [
    DELETE, None, "", "x", "ideal", "harmonic", "three-spin", "identity", "dephased", "zurek",
    [], [0.5], {}, {"kind": "zurek"}, True, False, math.nan, 0, -1, 0.5, 10**400, -10**400,
]


@st.composite
def mutated_presets(draw):
    """A bundled preset with one value deleted or replaced."""
    cfg = load_preset(draw(st.sampled_from(PRESETS)))
    *parents, key = draw(st.sampled_from(list(value_paths(cfg))))
    holder = reduce(lambda node, k: node[k], parents, cfg)
    value = draw(st.sampled_from(REPLACEMENTS))
    if value is DELETE:
        del holder[key]
    else:
        assume(not (cli._is_number(value) and cli._is_number(holder[key]) and value > holder[key]))
        holder[key] = copy.deepcopy(value)
    return cfg


class TestMutatedPresets:
    @settings(max_examples=300, deadline=None)
    @given(mutated_presets())
    def test_validate_never_raises_and_clean_configs_run_or_fail_structured(self, cfg):
        violations = cli.validate_config(cfg)
        assert isinstance(violations, list)
        if violations:
            return
        with tempfile.TemporaryDirectory() as out:
            try:
                cli.run_config(cfg, Path(out))
            except (cli.QueryError, cli.ConfigError):
                pass


def embedded(matrix):
    m = np.asarray(matrix, dtype=complex)
    return {"dims": [m.shape[0]], "re": m.real.tolist(), "im": m.imag.tolist()}


PSI = np.array([0.6, 0.8j])


class TestBuilders:
    """Builder branches that no bundled preset reaches, each run in-process
    against the library call on the same inputs."""

    @pytest.mark.parametrize(
        "system, projector, want",
        [
            ("qubit-sz", "up", np.diag([1.0, 0.0])),
            ("qubit-sz", "minus", np.array([[0.5, -0.5], [-0.5, 0.5]])),
            ("qubit-sz", {"interval": [0.5, 1.5], "observable": embedded(rc.SIGMA_X)},
             rc.interval_projector(rc.Observable.from_matrix(rc.SIGMA_X), 0.5, 1.5)),
            ("qubit-sz", embedded(np.outer(PSI, PSI.conj())), np.outer(PSI, PSI.conj())),
            ("qubit-sx", "up", np.diag([1.0, 0.0])),
        ],
        ids=["named-up", "named-minus", "interval", "embedded-matrix", "qubit-sx"],
    )
    def test_conditional_prob_projector_forms(self, tmp_path, system, projector, want):
        cfg = load_preset("conditional_identity")
        cfg["system"] = {"name": system}
        cfg["queries"][0]["projector"] = projector
        assert cli.validate_config(cfg) == []
        (path,) = cli.run_config(cfg, tmp_path)
        value = float(path.read_text().splitlines()[1].split(",")[1])
        # the presets' default initial states: plus for qubit-sz, up for qubit-sx
        h, init = (rc.SIGMA_Z, [[0.5, 0.5], [0.5, 0.5]]) if system == "qubit-sz" else (rc.SIGMA_X, [[1, 0], [0, 0]])
        clock = rc.build_ideal_clock(48, tau=4.0)
        rho = clock.rho0.tensor(rc.DensityOperator.from_matrix(init, (2,)))
        assert value == rc.conditional_probability(rho, want, clock, 1.0, h_system=rc.Observable.from_matrix(h))

    def test_harmonic_environment(self, tmp_path):
        cfg = load_preset("zurek_n8")
        cfg["environment"] = {"n_spins": 4, "mode": "harmonic", "coupling": 0.7}
        cfg["queries"][0].update(t_max=5.0, n_points=41)
        (path,) = cli.run_config(cfg, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re_z,im_z,abs_z,re_coherence,im_coherence,oracle_residual"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        env = rc.make_harmonic_model(4, g=0.7)
        t = np.linspace(0.0, 5.0, 41)
        z = rc.interference_factor(env, t)
        exact = rc.exact_reduced_coherence(env, t)
        assert np.array_equal(table[:, 0], t)
        assert np.array_equal(table[:, 1], z.real) and np.array_equal(table[:, 2], z.imag)
        assert np.array_equal(table[:, 4], exact.real) and np.array_equal(table[:, 5], exact.imag)


# Modules a process gains from importing relclock and from validating a preset,
# by top-level package, minus the standard library; run in a fresh interpreter.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import relclock
after_import = set(sys.modules)
from relclock import cli
assert cli.main(["validate", "conditional_identity"]) == 0
def outside(names):
    return sorted({m.split(".")[0] for m in names} - set(sys.stdlib_module_names))
print(json.dumps([outside(after_import - before), outside(set(sys.modules) - before)]))
"""


class TestImportFootprint:
    def test_import_and_validate_load_only_numpy(self):
        # set-up time is a gated benchmark metric: scipy and other packages stay test-only
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=child_env())
        assert res.returncode == 0, res.stdout + res.stderr
        on_import, on_validate = json.loads(res.stdout.splitlines()[-1])
        assert on_import == ["numpy", "relclock"]
        assert on_validate == ["numpy", "relclock"]


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
