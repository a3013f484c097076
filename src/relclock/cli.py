"""Config-driven experiment runner.

``relclock run config.json [--out DIR]`` executes every query of the config in
order and writes one artifact file per query (CSV for tabular results, JSON
for records).  ``relclock validate config.json`` statically checks the
config and lists every violated invariant without executing anything.

A config is a single JSON document::

    {
      "seed": 0,
      "system": {"name": "qubit-sz", "initial_state": "plus"},
      "clock": {"type": "ideal", "grid_points": 48, "tau": 4.0},
      "accuracy": {"a": 0.3333333333333333, "t_planck": 0.01},
      "environment": {"n_spins": 8, "mode": "incommensurate"},
      "queries": [{"kind": "conditional-prob", "projector": "identity", "T0": 1.0}],
      "output": {"dir": "artifacts"}
    }

Matrices embed as {"dims": [...], "re": [[...]], "im": [[...]]}.  Identical
config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import fixtures
from .clocks import AccuracyLaw, ClockModel, build_free_particle_clock, build_ideal_clock, clock_densities
from .dephasing import (
    _PRIMES,
    DIMENSION_CAP,
    SpinEnvironmentModel,
    exact_reduced_coherence,
    interference_factor,
    make_factorial_model,
    make_harmonic_model,
    make_incommensurate_model,
    reduced_system_state,
    revival_suppression,
)
from .events import actualized_properties, detect_event
from .relational import (
    EvolutionSetup,
    Trajectory,
    _write_csv,
    conditional_probability,
    master_evolve,
    offdiag_decay_factor,
    physical_time_state,
)
from .states import (
    DensityOperator,
    Observable,
    SIGMA_X,
    SIGMA_Z,
    interval_projector,
    operator_from_json,
)

_NAMED_STATES = {
    "up": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "down": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "plus": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "minus": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    "mixed": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
}

# the pure named states are their own projectors
_NAMED_PROJECTORS = {k: _NAMED_STATES[k] for k in ("up", "down", "plus", "minus")}


# dimension of each named system preset
_PRESET_DIMS = {"qubit-sz": 2, "qubit-sx": 2, "three-spin": fixtures.THREE_SPIN_SPACE.total_dim}


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def preset_path(name: str) -> Path:
    """Path of a bundled preset config (with or without the .json suffix)."""
    fname = name if name.endswith(".json") else f"{name}.json"
    ref = resources.files("relclock").joinpath("presets").joinpath(fname)
    with resources.as_file(ref) as p:
        return Path(p)


# -- builders ------------------------------------------------------------------

def _initial_state(init, dims) -> DensityOperator:
    """A named state ("plus", ...) or an embedded matrix, checked on ``dims``."""
    mat = _NAMED_STATES[init] if isinstance(init, str) else operator_from_json(init)[0]
    return DensityOperator.from_matrix(mat, dims)


def build_system(cfg: dict) -> dict:
    """Returns {'h': Observable | None, 'rho': DensityOperator,
    'essential': family | None, 'candidates': list | None}."""
    spec = cfg.get("system", {})
    name = spec.get("name")
    out: dict = {"h": None, "essential": None, "candidates": None}
    if name == "qubit-sz":
        out["h"] = Observable.from_matrix(SIGMA_Z)
        out["rho"] = _initial_state(spec.get("initial_state", "plus"), (2,))
    elif name == "qubit-sx":
        out["h"] = Observable.from_matrix(SIGMA_X)
        out["rho"] = _initial_state(spec.get("initial_state", "up"), (2,))
    elif name == "three-spin":
        out["rho"] = fixtures.three_spin_state()
        out["essential"] = fixtures.three_spin_essential_family()
        out["candidates"] = fixtures.three_spin_candidates()
    elif name is None and "hamiltonian" in spec:
        h_mat, dims = operator_from_json(spec["hamiltonian"])
        out["h"] = Observable.from_matrix(h_mat, dims)
        init = spec.get("initial_state")
        if init is None:
            raise ConfigError("system.initial_state required with an explicit hamiltonian")
        out["rho"] = _initial_state(init, dims)
    else:
        raise ConfigError(f"unknown system preset {name!r}")
    return out


def build_clock(cfg: dict) -> ClockModel:
    spec = cfg.get("clock")
    if spec is None:
        raise ConfigError("config has no clock section")
    kind = spec.get("type")
    if kind == "ideal":
        return build_ideal_clock(
            grid_points=int(spec.get("grid_points", 64)),
            tau=float(spec["tau"]),
            delta_c=spec.get("delta_C"),
        )
    if kind == "free_particle":
        return build_free_particle_clock(
            grid_points=int(spec.get("grid_points", 256)),
            mass=float(spec["mass"]),
            sigma0=float(spec["sigma0"]),
            delta_c=float(spec["delta_C"]),
            tau=float(spec["tau"]),
        )
    raise ConfigError(f"unknown clock type {kind!r}")


def build_law(cfg: dict) -> AccuracyLaw:
    spec = cfg.get("accuracy")
    if spec is None:
        raise ConfigError("config has no accuracy section")
    return AccuracyLaw(exponent_a=float(spec["a"]), t_planck=float(spec["t_planck"]))


def build_environment(cfg: dict) -> SpinEnvironmentModel:
    spec = cfg.get("environment")
    if spec is None:
        raise ConfigError("config has no environment section")
    n = int(spec["n_spins"])
    mode = spec.get("mode", "incommensurate")
    if mode == "incommensurate":
        return make_incommensurate_model(n)
    if mode == "factorial":
        return make_factorial_model(n, base_period=float(spec.get("base_period", 1.0)))
    if mode == "harmonic":
        return make_harmonic_model(n, g=float(spec.get("coupling", 1.0)))
    raise ConfigError(f"unknown environment mode {mode!r}")


def _parse_projector(spec, system: dict) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "identity":
            return np.eye(system["rho"].dim, dtype=complex)
        if spec in _NAMED_PROJECTORS:
            return _NAMED_PROJECTORS[spec]
        raise ConfigError(f"unknown projector name {spec!r}")
    if "interval" in spec:
        obs_spec = spec["observable"]
        mat, dims = operator_from_json(obs_spec)
        lo, hi = spec["interval"]
        return interval_projector(Observable.from_matrix(mat, dims), float(lo), float(hi))
    return operator_from_json(spec)[0]


# -- query runners --------------------------------------------------------------

def _run_conditional_prob(ctx: dict, q: dict, path: Path) -> None:
    system = ctx["system"]
    clock = ctx["clock"]
    rho = clock.rho0.tensor(system["rho"])
    proj = _parse_projector(q["projector"], system)
    t0 = float(q["T0"])
    value = conditional_probability(rho, proj, clock, t0, h_system=system["h"])
    _write_csv(path, ["T0", "value"], [[t0, value]])


def _run_physical_evolve(ctx: dict, q: dict, path: Path) -> None:
    system = ctx["system"]
    times = [float(t_value) for t_value in q["T_values"]]
    states = [physical_time_state(system["rho"], system["h"], density)
              for density in clock_densities(ctx["clock"], times)]
    Trajectory(times=np.array(times), states=tuple(states)).to_csv(path)


def _run_master_evolve(ctx: dict, q: dict, path: Path) -> None:
    system = ctx["system"]
    source = ctx["law"] if _fundamental_rate(q) else None
    setup = EvolutionSetup(h_system=system["h"], rate_source=source)
    traj = master_evolve(
        system["rho"], setup, float(q["T_end"]), record_stride=int(q.get("record_stride", 1))
    )
    traj.to_csv(path)


def _run_decay_scan(ctx: dict, q: dict, path: Path) -> None:
    law = ctx["law"]
    omega = float(q.get("omega", 1.0))
    rows = [[t, offdiag_decay_factor(omega, law, t)] for t in map(float, q["T_values"])]
    _write_csv(path, ["T", "decay_factor"], rows)


def _run_detect_event(ctx: dict, q: dict, path: Path) -> None:
    clock = ctx["clock"]
    family = fixtures.pointer_family_z()
    if _dephased(q):
        env = ctx["env"]
        rho_sys = reduced_system_state(env, float(q.get("t_star", 1.0)))
        label = f"pointer-z after {env.n_env}-spin dephasing"
    else:
        rho_sys = _initial_state("plus", (2,))
        label = "pointer-z on an isolated coherent qubit"
    rho = clock.rho0.tensor(rho_sys)
    record = detect_event(
        rho,
        family,
        clock,
        float(q["T0"]),
        n_particles=int(q["n_particles"]),
        alpha=float(q["alpha"]),
        observable_label=label,
    )
    path.write_text(record.to_json() + "\n", encoding="utf-8")


def _run_property_lattice(ctx: dict, q: dict, path: Path) -> None:
    system = ctx["system"]
    lattice = actualized_properties(
        system["essential"], system["candidates"], state=system["rho"]
    )
    path.write_text(lattice.to_json() + "\n", encoding="utf-8")


def _run_zurek(ctx: dict, q: dict, path: Path) -> None:
    env = ctx["env"]
    t_max = float(q.get("t_max", 10.0))
    if "samples" in q:
        rng = np.random.default_rng(ctx["seed"])
        t_values = np.sort(rng.uniform(0.0, t_max, int(q["samples"])))
    else:
        t_values = np.linspace(0.0, t_max, int(q.get("n_points", 501)))
    z = interference_factor(env, t_values)
    rows = []
    for t_value, z_value, exact in zip(t_values, z, exact_reduced_coherence(env, t_values)):
        predicted = z_value * env.system_init.matrix[1, 0]
        rows.append(
            [t_value, z_value.real, z_value.imag, abs(z_value), exact.real, exact.imag,
             abs(exact - predicted)]
        )
    _write_csv(
        path,
        ["t", "re_z", "im_z", "abs_z", "re_coherence", "im_coherence", "oracle_residual"],
        rows,
    )


def _run_revival_suppression(ctx: dict, q: dict, path: Path) -> None:
    report = revival_suppression(
        ctx["env"],
        ctx["law"],
        omega=float(q.get("omega", 1.0)),
        planck_per_unit=float(q["planck_per_unit"]),
    )
    path.write_text(report.to_json() + "\n", encoding="utf-8")


def _fundamental_rate(q: dict) -> bool:
    return q.get("rate", "fundamental") == "fundamental"


def _dephased(q: dict) -> bool:
    return q.get("system_state", "coherent") == "dephased"


# kind -> (runner, artifact suffix, config sections the runner reads); a section
# paired with a predicate is read only by the queries the predicate accepts
_KINDS = {
    "conditional-prob": (_run_conditional_prob, "csv", ("system", "clock")),
    "physical-evolve": (_run_physical_evolve, "csv", ("system", "clock")),
    "master-evolve": (_run_master_evolve, "csv", ("system", ("accuracy", _fundamental_rate))),
    "decay-scan": (_run_decay_scan, "csv", ("accuracy",)),
    "detect-event": (_run_detect_event, "json", ("clock", ("environment", _dephased))),
    "property-lattice": (_run_property_lattice, "json", ("system",)),
    "zurek": (_run_zurek, "csv", ("environment",)),
    "revival-suppression": (_run_revival_suppression, "json", ("environment", "accuracy")),
}


def _sections_read(q: dict) -> list[str]:
    """Config sections the runner of query ``q`` (of a known kind) reads."""
    return [s if isinstance(s, str) else s[0]
            for s in _KINDS[q["kind"]][2] if isinstance(s, str) or s[1](q)]


# -- validation -----------------------------------------------------------------

def _is_number(x) -> bool:
    # json parses NaN, Infinity and integers beyond the float range: a number converts to a finite float
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_integer(x) -> bool:
    return _is_number(x) and float(x).is_integer()


def _positive(x) -> bool:
    return _is_number(x) and x > 0


def _dims_product(spec) -> int | None:
    """The product of an embedded operator's dims, or None where validate cannot read them."""
    dims = spec.get("dims") if isinstance(spec, dict) else None
    if isinstance(dims, list) and dims and all(map(_is_integer, dims)):
        return math.prod(int(d) for d in dims)
    return None


def _system_dim(system: dict) -> int | None:
    """Dimension of a system section, or None where validate cannot read one."""
    name = system.get("name")
    if name is not None:
        return _PRESET_DIMS.get(name) if isinstance(name, str) else None
    return _dims_product(system.get("hamiltonian"))


# query values the runners convert with float() or int(): a string fails there
# with a bare ValueError, and int() silently truncates a fraction; every
# integer key is a count, so it must also be at least 1
_NUMBER_KEYS = ("T0", "alpha", "omega", "planck_per_unit", "t_star", "t_max")
_INTEGER_KEYS = ("n_particles", "samples", "n_points", "record_stride")

# what a query reading a missing section is told; a missing clock is one
# message for the whole config
_MISSING_SECTION = {
    "system": "requires the system section",
    "accuracy": "requires the accuracy section",
    "environment": "references undefined environment",
}


def validate_config(cfg: dict) -> list[str]:
    """Static validation; returns one message per violated invariant."""
    if not isinstance(cfg, dict):
        return ["config must be a JSON object"]
    sections = ("system", "clock", "accuracy", "environment", "output")
    violations = [f"{key} must be a JSON object" for key in sections
                  if cfg.get(key) is not None and not isinstance(cfg[key], dict)]
    if violations:
        return violations

    seed = cfg.get("seed", 0)
    if not (_is_integer(seed) and seed >= 0):
        violations.append("seed must be a nonnegative integer")
    out_dir = (cfg.get("output") or {}).get("dir", "artifacts")
    if not isinstance(out_dir, str):
        violations.append("output.dir must be a string")

    clock = cfg.get("clock")
    queries = cfg.get("queries")
    if not isinstance(queries, list) or not queries:
        violations.append("queries must be a nonempty list")
        queries = []
    # kinds are looked up in tuple(_KINDS), which compares with ==: a list or
    # dict kind is then unknown, where hashing it for the dict would raise
    needs_clock = any(
        isinstance(q, dict) and q.get("kind") in tuple(_KINDS) and "clock" in _sections_read(q)
        for q in queries
    )
    if clock is not None:
        kind = clock.get("type")
        if kind not in ("ideal", "free_particle"):
            violations.append(f"clock.type must be 'ideal' or 'free_particle', got {kind!r}")
        if "delta_C" in clock and not _positive(clock["delta_C"]):
            violations.append("clock.delta_C must be > 0")
        if kind == "free_particle":
            for key in ("mass", "sigma0", "delta_C", "tau"):
                if key not in clock:
                    violations.append(f"clock.{key} is required for a free_particle clock")
                elif key in ("mass", "sigma0") and not _positive(clock[key]):
                    violations.append(f"clock.{key} must be > 0")
        if "tau" in clock and not _positive(clock["tau"]):
            violations.append("clock.tau must be > 0")
        if "tau" not in clock:
            violations.append("clock.tau is required")
        grid_points = clock.get("grid_points", 64)
        if not _is_integer(grid_points):
            violations.append("clock.grid_points must be an integer")
        elif grid_points < 8:
            violations.append("clock.grid_points must be at least 8")
    elif needs_clock:
        violations.append("config has no clock section but a query requires one")

    acc = cfg.get("accuracy")
    if acc is not None:
        a = acc.get("a")
        if not (_is_number(a) and 0.0 < a <= 1.0):
            violations.append("accuracy.a must lie in (0, 1]")
        if not _positive(acc.get("t_planck")):
            violations.append("accuracy.t_planck must be > 0")

    env = cfg.get("environment")
    if env is not None:
        n_spins = env.get("n_spins")
        mode = env.get("mode", "incommensurate")
        if not _is_integer(n_spins):
            violations.append("environment.n_spins must be an integer")
        elif n_spins < 1:
            violations.append("environment.n_spins must be at least 1")
        else:
            # qubit plus N spins: 2^(N+1) <= DIMENSION_CAP
            max_spins = DIMENSION_CAP.bit_length() - 2
            if n_spins > max_spins:
                violations.append(
                    f"environment.n_spins {n_spins} exceeds {max_spins}: "
                    f"the dimension 2^(n_spins+1) must stay within the cap {DIMENSION_CAP}"
                )
            if mode == "incommensurate" and n_spins > len(_PRIMES):
                violations.append(
                    f"environment.n_spins {n_spins} exceeds the {len(_PRIMES)} spins "
                    "of the incommensurate mode"
                )
        if mode not in ("incommensurate", "factorial", "harmonic"):
            violations.append(f"environment.mode {mode!r} is not recognized")

    system = cfg.get("system")
    if system is not None:
        name = system.get("name")
        if name is not None and name not in tuple(_PRESET_DIMS):
            violations.append(f"system.name {name!r} is not a known preset")
        if name is None and "hamiltonian" not in system:
            violations.append("system needs either a preset name or a hamiltonian matrix")
        init = system.get("initial_state")
        if isinstance(init, str) and init not in _NAMED_STATES:
            violations.append(f"system.initial_state {init!r} is not a named state")
        for key in ("hamiltonian", "initial_state"):
            spec = system.get(key)
            d = _dims_product(spec)
            rows = spec.get("re") if isinstance(spec, dict) else None
            if d is not None and isinstance(rows, list) and d != len(rows):
                violations.append(f"system.{key} dims {spec['dims']} multiply to {d}, but its matrix has {len(rows)} rows")

    for i, q in enumerate(queries):
        if not isinstance(q, dict):
            violations.append(f"query {i} must be an object")
            continue
        kind = q.get("kind")
        if kind not in tuple(_KINDS):
            violations.append(f"query {i}: unknown kind {kind!r}")
            continue
        for key in _NUMBER_KEYS:
            if key in q and not _is_number(q[key]):
                violations.append(f"query {i} ({kind}) {key} must be a number")
        for key in _INTEGER_KEYS:
            if key in q and not _is_integer(q[key]):
                violations.append(f"query {i} ({kind}) {key} must be an integer")
            elif key in q and q[key] < 1:
                violations.append(f"query {i} ({kind}) {key} must be at least 1")
        for section in _sections_read(q):
            if section in _MISSING_SECTION and cfg.get(section) is None:
                violations.append(f"query {i} ({kind}) {_MISSING_SECTION[section]}")
        if kind in ("master-evolve", "physical-evolve") and (system or {}).get("name") == "three-spin":
            violations.append(
                f"query {i} ({kind}) needs a system hamiltonian, and the three-spin preset has none"
            )
        if kind == "conditional-prob":
            if "T0" not in q:
                violations.append(f"query {i} (conditional-prob) needs T0")
            proj = q.get("projector")
            if proj is None:
                violations.append(f"query {i} (conditional-prob) needs a projector")
            elif isinstance(proj, str) and proj != "identity":
                dim = _system_dim(system or {})
                if proj not in _NAMED_PROJECTORS:
                    violations.append(f"query {i} (conditional-prob) projector {proj!r} is not a named projector")
                elif dim not in (None, 2):
                    violations.append(
                        f"query {i} (conditional-prob) projector {proj!r} acts on a qubit, "
                        f"and the system has dimension {dim}"
                    )
        if kind == "master-evolve":
            if not _positive(q.get("T_end")):
                violations.append(f"query {i} (master-evolve) needs T_end > 0")
        if kind in ("physical-evolve", "decay-scan"):
            t_values = q.get("T_values")
            if not (isinstance(t_values, list) and t_values and all(map(_is_number, t_values))):
                violations.append(f"query {i} ({kind}) needs T_values, a nonempty list of numbers")
            elif kind == "physical-evolve" and any(b <= a for a, b in zip(t_values, t_values[1:])):
                violations.append(f"query {i} (physical-evolve) T_values must be strictly increasing")
        if kind == "detect-event":
            for key in ("T0", "n_particles", "alpha"):
                if key not in q:
                    violations.append(f"query {i} (detect-event) needs {key}")
            state = q.get("system_state", "coherent")
            if state not in ("coherent", "dephased"):
                violations.append(
                    f"query {i} (detect-event) system_state {state!r} is not 'coherent' or 'dephased'"
                )
        if kind == "revival-suppression" and "planck_per_unit" not in q:
            violations.append(f"query {i} (revival-suppression) needs planck_per_unit")
        if kind == "property-lattice" and (system or {}).get("name") != "three-spin":
            violations.append(f"query {i} (property-lattice) needs the three-spin system preset")
    return violations


# -- entry points ----------------------------------------------------------------

def run_config(cfg: dict, out_dir: Path) -> list[Path]:
    violations = validate_config(cfg)
    if violations:
        raise ConfigError("; ".join(violations))
    out_dir.mkdir(parents=True, exist_ok=True)

    ctx: dict = {"seed": int(cfg.get("seed", 0))}
    builders = (("system", "system", build_system), ("clock", "clock", build_clock),
                ("law", "accuracy", build_law), ("env", "environment", build_environment))
    for key, section, build in builders:
        try:
            ctx[key] = build(cfg) if section in cfg else None
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"cannot build {section}: {type(exc).__name__}: {exc}") from exc

    paths = []
    for i, q in enumerate(cfg["queries"]):
        kind = q["kind"]
        run, suffix, _ = _KINDS[kind]
        path = out_dir / f"q{i:02d}_{kind}.{suffix}"
        try:
            run(ctx, q, path)
        except Exception as exc:
            raise QueryError(i, kind, exc) from exc
        paths.append(path)
    return paths


class QueryError(RuntimeError):
    def __init__(self, index: int, kind: str, cause: Exception):
        super().__init__(f"query {index} ({kind}) failed: {cause}")
        self.index = index
        self.kind = kind
        self.cause = cause

    def as_json(self) -> str:
        return json.dumps(
            {
                "error": type(self.cause).__name__,
                "query_index": self.index,
                "kind": self.kind,
                "message": str(self.cause),
            },
            sort_keys=True,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relclock", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every query in a config")
    p_run.add_argument("config", help="path to a config JSON (or a bundled preset name)")
    p_run.add_argument("--out", default=None, help="artifact directory")

    p_val = sub.add_parser("validate", help="statically validate a config")
    p_val.add_argument("config", help="path to a config JSON (or a bundled preset name)")

    args = parser.parse_args(argv)
    config_path = Path(args.config)
    if not config_path.exists():
        try:
            config_path = preset_path(args.config)
        except (FileNotFoundError, ModuleNotFoundError):
            pass
    if not config_path.exists():
        print(json.dumps({"error": "ConfigError", "message": f"cannot read {args.config}"}))
        return 2

    try:
        cfg = load_config(config_path)
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": "ConfigError", "message": f"invalid JSON: {exc}"}))
        return 2

    violations = validate_config(cfg)
    if args.command == "validate":
        print(json.dumps({"valid": not violations, "violations": violations}, sort_keys=True))
        return 0 if not violations else 1
    if violations:
        print(json.dumps({"error": "ConfigError", "message": "; ".join(violations)}, sort_keys=True))
        return 2

    # validated above: cfg is an object, and its output (if any) an object with a string dir
    out_dir = args.out or os.environ.get("RELCLOCK_OUT") or (cfg.get("output") or {}).get("dir", "artifacts")
    try:
        paths = run_config(cfg, Path(out_dir))
    except QueryError as exc:
        print(exc.as_json())
        return 1
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}, sort_keys=True))
        return 2
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
