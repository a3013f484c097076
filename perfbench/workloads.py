"""The benchmark's workloads: seeded inputs, the call under test, and a check
of every result through a path independent of the one being timed.

Each workload yields its queries in blocks with a fixed mix of cost classes,
shuffled by the seed, so that every run sees the same shares of cheap and
expensive queries and its latency quantiles fall at the same places.
Only the generated inputs reach relclock; the seed never does.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import relclock as rc
from relclock import cli

TOL = 1e-9
# master_evolve is RK4 with dt <= 0.01 / omega_max; its truncation error against
# the closed-form dephasing law was at most 5.3e-10 over 60 of these trajectories
MASTER_TOL = 1e-7
# Shared free-particle clock: tau = 2.8 gives the 49-point default time grid
FP_CLOCK = dict(mass=30.0, sigma0=0.5, delta_c=0.35, tau=2.8)
T0_SET = np.round(np.arange(0.6, 2.2001, 0.01), 2)
EVENT_N, EVENT_ALPHA = 10, 0.3
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class CheckFailed(Exception):
    pass


def expect(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


@dataclass
class Query:
    kind: str          # which call runs
    cls: str           # cost class, e.g. "n64-d2"
    key: tuple | None  # (clock, T0) for the repeated-pair share; None when not conditioned
    args: dict
    ref: dict = field(default_factory=dict)  # what the check needs beyond args


# -- independent reference arithmetic --------------------------------------------


def trapezoid(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    return w


def heisenberg(op: np.ndarray, h: np.ndarray | None, t: np.ndarray) -> np.ndarray:
    """e^{iHt} A e^{-iHt} for every t, from numpy's own eigendecomposition."""
    if h is None:
        return np.broadcast_to(op, (t.size,) + op.shape)
    lam, v = np.linalg.eigh(h)
    u = (v[None] * np.exp(-1j * np.outer(t, lam))[:, None, :]) @ v.conj().T
    return u.conj().transpose(0, 2, 1) @ op @ u


def window_weights(clock, lo: float, hi: float, t: np.ndarray) -> np.ndarray:
    """Trapezoid weight times the probability that the FFT-evolved clock packet
    reads in [lo, hi] at each Newtonian time."""
    psi = clock.evolve_state(t)
    mask = (clock.x >= lo) & (clock.x <= hi)
    return trapezoid(t) * np.sum(np.abs(psi[mask]) ** 2, axis=0)


def system_marginal(m: np.ndarray, n_clock: int, d: int) -> np.ndarray:
    return np.einsum("iaib->ab", m.reshape(n_clock, d, n_clock, d))


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", op, rho).real)


def spin_dephasing(n_spins: int, t: np.ndarray) -> np.ndarray:
    """Interference factor of equal-superposition spins with sqrt(prime) couplings."""
    g = np.sqrt(np.array(PRIMES[:n_spins], dtype=float))
    return np.prod(np.cos(2.0 * np.outer(g, np.atleast_1d(t))), axis=0)


# -- random inputs --------------------------------------------------------------------


def rand_pure(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def rand_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_hamiltonian(rng, d: int, spread: float) -> np.ndarray:
    """Random eigenbasis; eigenvalues span exactly [-spread/2, spread/2]."""
    u = rand_unitary(rng, d)
    lam = np.sort(rng.uniform(0.0, 1.0, d))
    lam = spread * ((lam - lam[0]) / (lam[-1] - lam[0]) - 0.5)
    return (u * lam) @ u.conj().T


def rand_family(rng, d: int, members: int):
    """Complete family: ``d`` rank-1 projectors, or a rank-d/2 projector and its complement."""
    u = rand_unitary(rng, d)
    if members == d:
        projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]
    else:
        p = u[:, : d // 2] @ u[:, : d // 2].conj().T
        projs = [p, np.eye(d) - p]
    return rc.ProjectorFamily(labels=tuple(range(len(projs))), projectors=tuple(projs))


def entangled_state(rng, clock, d: int):
    """sum_k a_k (packet boosted by kappa_k) x |k>: clock and system correlated."""
    amps = rand_pure(rng, d)
    kicks = rng.uniform(-2.0, 2.0, d)
    psi = clock.psi0[:, None] * np.exp(1j * np.outer(clock.x, kicks)) * amps[None, :]
    return rc.DensityOperator.from_vector(psi.ravel(), (clock.n, d))


def op_json(m: np.ndarray) -> dict:
    return {"dims": [m.shape[0]], "re": m.real.tolist(), "im": m.imag.tolist()}


class Workload:
    """Shared block scheduling.  ``BLOCK`` lists (cost class, ..., count) slots;
    ``WARMUP`` names the cost classes warmed up once, untimed, during set-up."""

    BLOCK: tuple = ()
    WARMUP: tuple = ()
    pregenerate_blocks = 1

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch

    @property
    def block_size(self) -> int:
        return sum(slot[-1] for slot in self.BLOCK)

    def warmups(self) -> list[Query]:
        return [self.make(slot[:-1], repeat=False) for slot in self.BLOCK if slot[0] in self.WARMUP]

    def stream(self):
        while True:
            slots = [slot[:-1] for slot in self.BLOCK for _ in range(slot[-1])]
            order = self.rng.permutation(len(slots))
            repeats = self.rng.permutation(len(slots)) < len(slots) // 2
            for i, r in zip(order, repeats):
                yield self.make(slots[i], repeat=bool(r))

    def close(self) -> None:
        pass


# -- probabilities ---------------------------------------------------------------------


class Probabilities(Workload):
    """Scalar conditional probabilities of complete families; dense stack path."""

    # (cost class, n_clock, d_sys, members, count per block).  Sorted by cost the
    # block reads n64-d2 (0-80%), n64-d4-m2, n128-d2 (85-95%), n64-d4-m4, so the
    # median falls inside n64-d2 and p90 inside n128-d2.
    BLOCK = (("n64-d2", 64, 2, 2, 16), ("n128-d2", 128, 2, 2, 2),
             ("n64-d4-m2", 64, 4, 2, 1), ("n64-d4-m4", 64, 4, 4, 1))
    WARMUP = ("n64-d2", "n128-d2", "n64-d4-m2")  # one per (n_clock, d_sys)
    pregenerate_blocks = 6

    def setup(self) -> None:
        self.clocks = {n: rc.build_free_particle_clock(n, **FP_CLOCK) for n in (64, 128)}
        self.used: dict[int, list[float]] = {64: [], 128: []}

    def make(self, slot, repeat: bool) -> Query:
        cls, n, d, members = slot
        rng, clock, used = self.rng, self.clocks[n], self.used[n]
        if repeat and used:
            t0 = used[rng.integers(len(used))]
        else:
            fresh = [t for t in T0_SET if t not in used]
            t0 = float(fresh[rng.integers(len(fresh))])
            used.append(t0)
        h = rc.Observable.from_matrix(rand_hamiltonian(rng, d, 2.0))
        family = rand_family(rng, d, members)
        if rng.random() < 0.5:
            sys = rc.DensityOperator.from_vector(rand_pure(rng, d), (d,))
            rho, ref = clock.rho0.tensor(sys), {"sys": sys.matrix}
        else:
            rho, ref = entangled_state(rng, clock, d), {}
        return Query("conditional_probabilities", cls, (n, t0),
                     dict(rho=rho, projectors=family, clock=clock, t0=t0, h_system=h), ref)

    def run(self, q: Query):
        return rc.conditional_probabilities(**q.args)

    def check(self, q: Query, p) -> None:
        family = q.args["projectors"]
        expect(len(p) == len(family) and np.all(np.isfinite(p)), f"bad output {p!r}")
        expect(bool(np.all((p >= 0.0) & (p <= 1.0))), f"probability outside [0, 1]: {p}")
        expect(abs(p.sum() - 1.0) <= TOL, f"complete family sums to {p.sum()!r}")
        if "sys" in q.ref:
            a = q.args
            for proj, value in zip(family.projectors, p):
                f = rc.effective_projector(proj, a["clock"], a["t0"], a["h_system"])
                ref = expectation(f, q.ref["sys"])
                expect(abs(ref - value) <= TOL, f"p = {value!r}, FFT reading-density path gives {ref!r}")


# -- reductions ------------------------------------------------------------------------


class Reductions(Workload):
    """State-producing conditioning: full-space density matrices out."""

    # (cost class, kind, n_clock, count per block).  Sorted by cost: single-window
    # reductions at n = 64 (0-60%), reduce2, history2 and the non-event detections
    # (65-80%), then detect-event, history3 and the n = 128 calls (80-100%).  The
    # median falls inside the first group and p90 inside the last.
    BLOCK = (("n64-rho_mod", "rho_mod", 64, 4), ("n64-reduce1", "reduce1", 64, 4),
             ("n64-reduce1-delta", "reduce1-delta", 64, 4), ("n64-reduce2", "reduce2", 64, 1),
             ("n64-history2", "history2", 64, 1), ("n64-detect-coherent", "detect-coherent", 64, 1),
             ("n64-detect-none", "detect-none", 64, 1), ("n64-detect-event", "detect-event", 64, 1),
             ("n64-history3", "history3", 64, 1), ("n128-reduce1", "reduce1", 128, 1),
             ("n128-rho_mod", "rho_mod", 128, 1))
    WARMUP = ("n64-detect-event", "n128-rho_mod")  # one per (n_clock, d_sys)
    pregenerate_blocks = 10

    def setup(self) -> None:
        self.clocks = {n: rc.build_free_particle_clock(n, **FP_CLOCK) for n in (64, 128)}
        self.env = rc.make_incommensurate_model(EVENT_N)
        self.eps = math.exp(-EVENT_ALPHA * EVENT_N)
        t_scan = np.linspace(0.5, 60.0, 6000)
        # d = |rho_01| = |z(t*)| / 2 for the plus state: keep a factor-2 margin to eps
        z = 0.5 * np.abs(rc.interference_factor(self.env, t_scan))
        self.t_event = t_scan[z < 0.5 * self.eps]
        self.t_none = t_scan[z > 2.0 * self.eps]

    def _qubit(self, branch: str | None = None):
        rng = self.rng
        if branch == "coherent" or (branch is None and rng.random() < 0.5):
            v = rand_pure(rng, 2)
            while branch and abs(v[0] * v[1]) < 2.0 * self.eps:  # keep clear of the event threshold
                v = rand_pure(rng, 2)
            return rc.DensityOperator.from_vector(v, (2,))
        if branch is None:
            t_star = rng.uniform(0.5, 60.0)
        else:
            pool = self.t_event if branch == "event" else self.t_none
            t_star = float(pool[rng.integers(pool.size)])
        return rc.reduced_system_state(self.env, t_star)

    def _projector(self) -> np.ndarray:
        v = rand_pure(self.rng, 2)
        return np.outer(v, v.conj())

    def make(self, slot, repeat: bool) -> Query:
        cls, kind, n = slot
        rng, clock = self.rng, self.clocks[n]
        t0 = float(rng.uniform(0.6, 2.2))
        if kind.startswith("detect"):
            sys = self._qubit(kind.split("-")[1])
            return Query("detect_event", cls, (n, t0),
                         dict(rho=clock.rho0.tensor(sys), family=rc.fixtures.pointer_family_z(),
                              clock=clock, t0=t0, n_particles=EVENT_N, alpha=EVENT_ALPHA),
                         {"sys": sys.matrix, "branch": kind.split("-")[1]})
        sys = self._qubit()
        rho = clock.rho0.tensor(sys)
        h = rc.Observable.from_matrix(rand_hamiltonian(rng, 2, 2.0))
        ref = {"sys": sys.matrix}
        if kind == "rho_mod":
            picture = "heisenberg" if rng.random() < 0.5 else "schrodinger"
            return Query("rho_mod", cls, (n, t0),
                         dict(rho=rho, clock=clock, t0=t0, h_system=h, picture=picture), ref)
        if kind.startswith("history"):
            steps = int(kind[-1])
            times = np.sort(rng.uniform(0.6, 2.2, steps))
            events = [rc.ReductionEvent(q_proj=self._projector(), t0=float(t)) for t in times]
            return Query("history_probability", cls, (n, float(times[0])),
                         dict(rho=rho, clock=clock, events=events, h_system=h), ref)
        events = [rc.ReductionEvent(q_proj=self._projector(), t0=t0,
                                    delta=float(rng.uniform(0.2, 0.5)) if kind == "reduce1-delta" else None)]
        if kind == "reduce2":
            events.append(rc.ReductionEvent(q_proj=None, t0=t0 + float(rng.uniform(-0.2, 0.2)),
                                            delta=float(rng.uniform(0.2, 0.5))))
        return Query("reduce_state", cls, (n, t0),
                     dict(rho=rho, clock=clock, events=events, h_system=h), ref)

    def run(self, q: Query):
        fn = {"reduce_state": rc.reduce_state, "rho_mod": rc.rho_mod,
              "history_probability": rc.history_probability, "detect_event": rc.detect_event}
        return fn[q.kind](**q.args)

    def check(self, q: Query, out) -> None:
        a, sys = q.args, q.ref["sys"]
        clock = a["clock"]
        if q.kind == "detect_event":
            self._check_detect(q, out)
            return
        if q.kind == "history_probability":
            # the chain can only lose probability after its first, independently computed factor
            first = a["events"][0]
            f = rc.effective_projector(first.q_proj, clock, first.t0, a["h_system"])
            p1 = expectation(f, sys)
            expect(0.0 <= out <= p1 + TOL, f"history probability {out!r} exceeds first factor {p1!r}")
            return
        marginal = system_marginal(out.matrix, clock.n, 2)
        t = clock.default_t_grid()
        h = a["h_system"].matrix
        if q.kind == "rho_mod":
            if a["picture"] == "heisenberg":
                ref = sys
            else:
                lam, v = np.linalg.eigh(h)
                u = (v * np.exp(-1j * lam * a["t0"])) @ v.conj().T
                ref = u @ sys @ u.conj().T
        else:
            lo, hi, b = -np.inf, np.inf, np.broadcast_to(np.eye(2, dtype=complex), (t.size, 2, 2))
            for e in a["events"]:
                if e.t0 is not None:
                    half = clock.delta_c if e.delta is None else e.delta
                    lo, hi = max(lo, e.t0 - half), min(hi, e.t0 + half)
                if e.q_proj is not None:
                    b = b @ heisenberg(e.q_proj, h, t)
            w = window_weights(clock, lo, hi, t)
            num = np.einsum("t,tij->ij", w, b @ sys @ b.conj().transpose(0, 2, 1))
            ref = num / num.trace().real
        err = float(np.max(np.abs(marginal - ref)))
        expect(err <= TOL, f"{q.kind} system marginal off the window quadrature by {err:.3e}")

    def _check_detect(self, q: Query, rec) -> None:
        sys = q.ref["sys"]
        d, eps = rec.distinguishability, rec.epsilon
        expect(rec.event_occurred == (d < eps), f"event_occurred={rec.event_occurred} but d={d}, eps={eps}")
        # product input, no system Hamiltonian: d is exactly the system coherence
        expect(abs(d - abs(sys[0, 1])) <= TOL, f"d = {d!r}, |rho_01| = {abs(sys[0, 1])!r}")
        expect(rec.event_occurred == (q.ref["branch"] == "event"), f"unexpected branch for {q.ref['branch']}")
        if rec.event_occurred:
            probs = np.array(list(rec.outcome_probabilities.values()))
            expect(abs(probs.sum() - 1.0) <= TOL, f"outcome probabilities sum to {probs.sum()!r}")
            expect(float(np.max(np.abs(probs - np.diag(sys).real))) <= TOL, "outcomes differ from diag(rho)")


# -- cli-batch ----------------------------------------------------------------------------


NAMED = ("up", "down", "plus", "minus", "mixed")
NAMED_STATES = {k: cli._NAMED_STATES[k].copy() for k in NAMED}
NAMED_PROJECTORS = {"identity": np.eye(2), **{k: cli._NAMED_PROJECTORS[k].copy()
                                               for k in ("up", "down", "plus", "minus")}}


def accuracy_spec(rng, t_planck=None) -> dict:
    a = float(rng.choice([1 / 3, 0.5, 2 / 3]))
    return {"a": a, "t_planck": float(rng.uniform(0.005, 0.03)) if t_planck is None else t_planck}


def spread(spec: dict, T: np.ndarray) -> np.ndarray:
    a, tp = spec["a"], spec["t_planck"]
    return np.where(T > 0, tp ** (2 - 2 * a) * np.abs(T) ** (2 * a), 0.0)


def read_csv(path: Path, max_rows: int | None = None) -> np.ndarray:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")][1:]
    idx = range(len(lines)) if max_rows is None else \
        np.unique(np.linspace(0, len(lines) - 1, min(max_rows, len(lines))).astype(int))
    return np.array([[float(x) for x in lines[i].split(",")] for i in idx])


class CliBatch(Workload):
    """Seeded variants of the seven bundled presets through ``cli.run_config``."""

    # (kind, count per block).  Sorted by cost: decay, revival, lattice (0-20%),
    # physical-evolve (20-60%), conditional-prob and detect (60-75%), master runs
    # (75-95%), zurek.  The median falls inside physical-evolve, which builds no
    # full-space stack, and p90 among the master runs.
    BLOCK = (("decay-scan", 2), ("revival-suppression", 1), ("property-lattice", 1),
             ("physical-evolve", 8), ("conditional-prob", 1), ("detect-event", 2),
             ("master-dim4", 1), ("master-dim8", 1), ("master-qubit", 2), ("zurek", 1))
    WARMUP = tuple(slot[0] for slot in BLOCK)  # one per preset kind
    pregenerate_blocks = 32
    # Knobs that set a query's cost, used in this order whatever the seed, so
    # that every run does the same amount of work; the seed picks the rest.
    PLAN = {
        "master-qubit": [(2.0, 1), (4.0, 5), (6.0, 10), (8.0, 2), (3.0, 7),
                         (5.0, 3), (7.0, 8), (8.0, 10), (2.5, 4), (6.0, 1)],  # (T_end, stride)
        "master-dim4": [(1.0, 1, 2.0), (2.0, 5, 4.0), (3.0, 10, 1.0), (4.0, 2, 3.0), (2.0, 7, 2.5)],
        "master-dim8": [(1.0, 2, 4.0), (2.0, 1, 2.0), (3.0, 6, 1.0), (4.0, 10, 3.0), (1.5, 4, 2.5)],
        "zurek": [(8, 600), (9, 500), (10, 400), (11, 300), (12, 200)],  # (N, points)
        "physical-evolve": [(6.0, 0.4, 0.35, 3), (5.0, 0.45, 0.3, 4), (7.0, 0.35, 0.4, 5),
                            (5.5, 0.5, 0.35, 6), (6.5, 0.4, 0.3, 3)],  # (tau, sigma0, delta_C, #T)
        "detect-event": ["coherent", "event", "none"],
    }

    def setup(self) -> None:
        self.count = 0
        self.artifact_bytes = 0
        self.turn = {kind: 0 for kind in self.PLAN}
        self.eps = math.exp(-EVENT_ALPHA * EVENT_N)
        t_scan = np.linspace(0.5, 60.0, 6000)
        z = 0.5 * np.abs(spin_dephasing(EVENT_N, t_scan))
        self.t_event = t_scan[z < 0.5 * self.eps]
        self.t_none = t_scan[z > 2.0 * self.eps]

    def _knob(self, kind: str):
        i = self.turn[kind]
        self.turn[kind] += 1
        return self.PLAN[kind][i % len(self.PLAN[kind])]

    def make(self, slot, repeat: bool) -> Query:
        (kind,) = slot
        rng = self.rng
        cfg: dict = {"seed": int(rng.integers(2**31))}
        ref: dict = {}
        key = None
        if kind.startswith("master"):
            dim = {"master-qubit": 2, "master-dim4": 4, "master-dim8": 8}[kind]
            t_end, stride, *omega = self._knob(kind)
            if dim == 2:
                name = str(rng.choice(["qubit-sz", "qubit-sx"]))
                init = str(rng.choice(NAMED))
                cfg["system"] = {"name": name, "initial_state": init}
                ref["h"] = (rc.SIGMA_Z if name == "qubit-sz" else rc.SIGMA_X).copy()
                ref["rho0"] = NAMED_STATES[init]
            else:
                h = rand_hamiltonian(rng, dim, omega[0])
                vecs = [rand_pure(rng, dim) for _ in range(2)]
                p = float(rng.uniform(0.5, 1.0))
                rho0 = p * np.outer(vecs[0], vecs[0].conj()) + (1 - p) * np.outer(vecs[1], vecs[1].conj())
                cfg["system"] = {"hamiltonian": op_json(h), "initial_state": op_json(rho0)}
                ref["h"], ref["rho0"] = h, rho0
            cfg["accuracy"] = accuracy_spec(rng)
            cfg["queries"] = [{"kind": "master-evolve", "T_end": t_end, "rate": "fundamental",
                               "record_stride": stride}]
        elif kind == "decay-scan":
            cfg["accuracy"] = accuracy_spec(rng)
            cfg["queries"] = [{"kind": "decay-scan", "omega": float(rng.uniform(0.5, 3.0)),
                               "T_values": np.sort(rng.uniform(0.1, 10.0, int(rng.integers(8, 65)))).tolist()}]
        elif kind == "physical-evolve":
            tau, sigma0, delta_c, n_values = self._knob(kind)
            cfg["system"] = {"name": "qubit-sz", "initial_state": str(rng.choice(NAMED))}
            cfg["clock"] = {"type": "free_particle", "grid_points": 256, "mass": float(rng.uniform(20, 40)),
                            "sigma0": sigma0, "delta_C": delta_c, "tau": tau}
            cfg["queries"] = [{"kind": "physical-evolve",
                               "T_values": np.sort(rng.uniform(1.0, tau - 1.0, n_values)).tolist()}]
        elif kind == "zurek":
            n_spins, points = self._knob(kind)
            cfg["environment"] = {"n_spins": n_spins, "mode": "incommensurate"}
            q = {"kind": "zurek", "t_max": float(rng.uniform(5.0, 20.0))}
            q["samples" if rng.random() < 0.5 else "n_points"] = points
            cfg["queries"] = [q]
        elif kind == "revival-suppression":
            cfg["environment"] = {"n_spins": int(rng.integers(4, 9)), "mode": "factorial",
                                  "base_period": float(rng.uniform(0.5, 2.0))}
            cfg["accuracy"] = accuracy_spec(rng, t_planck=1e-44)
            cfg["queries"] = [{"kind": "revival-suppression", "omega": float(rng.uniform(0.5, 2.0)),
                               "planck_per_unit": float(10 ** rng.uniform(3.0, 8.0))}]
        elif kind == "property-lattice":
            cfg["system"] = {"name": "three-spin"}
            cfg["queries"] = [{"kind": "property-lattice"}]
        elif kind == "conditional-prob":
            grid, tau = 40, float(rng.uniform(3.0, 5.0))
            t0 = self._dial_reading(grid, tau)
            cfg["system"] = {"name": "qubit-sz", "initial_state": str(rng.choice(NAMED))}
            cfg["clock"] = {"type": "ideal", "grid_points": grid, "tau": tau}
            cfg["queries"] = [{"kind": "conditional-prob", "T0": t0,
                               "projector": str(rng.choice(list(NAMED_PROJECTORS)))}]
            key = (json.dumps(cfg["clock"], sort_keys=True), t0)
        elif kind == "detect-event":
            t0 = self._dial_reading(32, 4.0)
            q = {"kind": "detect-event", "T0": t0, "n_particles": EVENT_N, "alpha": EVENT_ALPHA}
            branch = self._knob(kind)
            if branch != "coherent":
                pool = self.t_event if branch == "event" else self.t_none
                q.update(system_state="dephased", t_star=float(pool[rng.integers(pool.size)]))
            cfg["clock"] = {"type": "ideal", "grid_points": 32, "tau": 4.0}
            cfg["environment"] = {"n_spins": EVENT_N, "mode": "incommensurate"}
            cfg["queries"] = [q]
            ref["branch"] = branch
            key = (json.dumps(cfg["clock"], sort_keys=True), t0)
        return Query("run_config", kind, key, {"cfg": cfg}, ref)

    def _dial_reading(self, grid: int, tau: float) -> float:
        """A reading the ideal clock's dial shows: within 0.3 of a grid step
        of a node (its window is 0.45 steps wide), away from both ends."""
        dx = tau / (grid - 4)
        k = self.rng.integers(math.ceil(0.5 / dx), math.floor((tau - 0.5) / dx) + 1)
        return float(dx * (k + self.rng.uniform(-0.3, 0.3)))

    def run(self, q: Query):
        self.count += 1
        q.ref["dir"] = self.scratch / f"q{self.count:05d}"
        return cli.run_config(q.args["cfg"], q.ref["dir"])

    def check(self, q: Query, paths) -> None:
        try:
            self.artifact_bytes += sum(p.stat().st_size for p in paths)
            getattr(self, "_check_" + q.cls.split("-")[0])(q, paths[0])
        finally:
            shutil.rmtree(q.ref["dir"], ignore_errors=True)

    def _check_master(self, q: Query, path: Path) -> None:
        cfg, h, rho0 = q.args["cfg"], q.ref["h"], q.ref["rho0"]
        qspec = cfg["queries"][0]
        rows = read_csv(path, max_rows=64)
        T = rows[:, 0]
        expect(abs(T[0]) < 1e-12 and abs(T[-1] - qspec["T_end"]) < 1e-9, "trajectory grid endpoints")
        d = h.shape[0]
        got = (rows[:, 1::2] + 1j * rows[:, 2::2]).reshape(-1, d, d)
        lam, v = np.linalg.eigh(h)
        omega = lam[:, None] - lam[None, :]
        tilde = v.conj().T @ rho0 @ v
        decay = np.exp(-1j * omega[None] * T[:, None, None]
                       - omega[None] ** 2 * spread(cfg["accuracy"], T)[:, None, None])
        ref = v @ (tilde[None] * decay) @ v.conj().T
        err = float(np.max(np.abs(got - ref)))
        expect(err <= MASTER_TOL, f"master trajectory off the closed form by {err:.3e}")

    def _check_decay(self, q: Query, path: Path) -> None:
        cfg = q.args["cfg"]
        rows = read_csv(path)
        omega = cfg["queries"][0]["omega"]
        ref = np.exp(-(omega ** 2) * spread(cfg["accuracy"], rows[:, 0]))
        expect(np.allclose(rows[:, 1], ref, rtol=1e-12, atol=0.0), "decay factors off exp(-omega^2 b(T))")

    def _check_physical(self, q: Query, path: Path) -> None:
        cfg = q.args["cfg"]
        c = cfg["clock"]
        clock = rc.build_free_particle_clock(c["grid_points"], c["mass"], c["sigma0"], c["delta_C"], c["tau"])
        t = clock.default_t_grid()
        rho0 = NAMED_STATES[cfg["system"]["initial_state"]]
        traj = heisenberg(rho0, -np.asarray(rc.SIGMA_Z), t)  # Schroedinger picture: e^{-iHt} rho e^{iHt}
        rows = read_csv(path)
        for row, T in zip(rows, cfg["queries"][0]["T_values"]):
            w = trapezoid(t) * clock.window_probabilities(T, t)
            ref = np.einsum("t,tij->ij", w / w.sum(), traj)
            got = (row[1::2] + 1j * row[2::2]).reshape(2, 2)
            expect(abs(row[0] - T) < 1e-12 and np.max(np.abs(got - ref)) <= TOL,
                   f"physical-time state at T={T} off the reading-density mixture")

    def _check_zurek(self, q: Query, path: Path) -> None:
        n = q.args["cfg"]["environment"]["n_spins"]
        rows = read_csv(path)
        expect(float(rows[:, 6].max()) <= 1e-10, f"oracle residual {rows[:, 6].max():.3e}")
        z = spin_dephasing(n, rows[:, 0])
        expect(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - z)) <= 1e-10, "interference factor off the product law")

    def _check_revival(self, q: Query, path: Path) -> None:
        cfg = q.args["cfg"]
        env, acc, qs = cfg["environment"], cfg["accuracy"], cfg["queries"][0]
        rec = json.loads(path.read_text(encoding="utf-8"))
        n, a = env["n_spins"], acc["a"]
        t_rev = math.factorial(n) * env["base_period"]  # lcm(1!, ..., N!) = N!
        decay = math.exp(-qs["omega"] ** 2 * (1.0 / qs["planck_per_unit"]) ** (2 - 2 * a) * t_rev ** (2 * a))
        expect(math.isclose(rec["T_revival"], t_rev, rel_tol=1e-12), "revival time is not N! base periods")
        expect(math.isclose(rec["D_rev"], decay, rel_tol=1e-9, abs_tol=1e-300), "decay at revival")
        expect(rec["background"] == 2.0 ** (-n / 2) and rec["suppressed"] == (rec["D_rev"] < rec["background"]),
               "suppression verdict")

    def _check_property(self, q: Query, path: Path) -> None:
        rec = json.loads(path.read_text(encoding="utf-8"))
        verdicts = [(c["label"], c["included"]) for c in rec["candidates"]]
        expect(verdicts == [("spin1-up", True), ("2opposite3", True), ("spin2-up", False)],
               f"three-spin verdicts {verdicts}")
        expect(all(c["transfer_residual"] <= 1e-12 for c in rec["candidates"] if c["included"]),
               "included property does not inherit the pinching")

    def _check_conditional(self, q: Query, path: Path) -> None:
        cfg = q.args["cfg"]
        c, qs = cfg["clock"], cfg["queries"][0]
        clock = rc.build_ideal_clock(c["grid_points"], c["tau"])
        f = rc.effective_projector(NAMED_PROJECTORS[qs["projector"]].astype(complex), clock, qs["T0"],
                                   rc.Observable.from_matrix(rc.SIGMA_Z))
        ref = expectation(f, NAMED_STATES[cfg["system"]["initial_state"]])
        value = read_csv(path)[0, 1]
        expect(abs(value - ref) <= TOL, f"p = {value!r}, FFT reading-density path gives {ref!r}")

    def _check_detect(self, q: Query, path: Path) -> None:
        qs = q.args["cfg"]["queries"][0]
        rec = json.loads(path.read_text(encoding="utf-8"))
        coherence = 0.5 if "t_star" not in qs else 0.5 * abs(spin_dephasing(EVENT_N, qs["t_star"])[0])
        d, eps = rec["distinguishability"], rec["epsilon"]
        expect(rec["event_occurred"] == (d < eps), f"event_occurred={rec['event_occurred']} but d={d}, eps={eps}")
        expect(abs(d - coherence) <= TOL, f"d = {d!r}, |rho_01| = {coherence!r}")
        expect(rec["event_occurred"] == (q.ref["branch"] == "event"), f"unexpected branch for {q.ref['branch']}")
        if rec["event_occurred"]:
            total = sum(rec["outcome_probabilities"].values())
            expect(abs(total - 1.0) <= TOL, f"outcome probabilities sum to {total!r}")

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {"probabilities": Probabilities, "reductions": Reductions, "cli-batch": CliBatch}
