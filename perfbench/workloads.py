"""The four seeded workloads of the oqcsim benchmark.

A workload is a cycle of passes; a pass is a list of jobs run one after
another by a single client (closed loop).  Each job is a user-level call
into oqcsim: an in-process ``oqcsim.cli.main(argv)`` or a public library
call.  A job returns its raw output, and its check raises CheckFailed
when that output is wrong.  Each workload also names golden jobs on fixed
inputs, whose outputs are compared with ``golden.json``.

Every oqcsim function is looked up on its module at call time, so the
tracer's wrappers see the calls.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oqcsim import cli, jones, spin, squeezed, truthtable

# Thresholds of the repository's own tests; none is loosened here.
MANLEY_ROWE_DRIFT = 1e-8
FOCK_MOMENT_ERROR = 1e-8
JONES_MATRIX_ERROR = 1e-10
SPIN_FIDELITY = 1 - 1e-9
RDS_SEPARATION = 2.0
# Agreement of the program's closed form with the formula restated here.
CLOSED_FORM_RTOL = 1e-9

# Golden outputs: per value |got - want| <= RTOL*|want| + atol, where atol
# is ATOL_COLUMN times the column's largest magnitude, and at least
# ATOL_FLOOR.  A tolerance, not byte equality, because float evaluation
# order may change between commits.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL_COLUMN = 1e-9
GOLDEN_ATOL_FLOOR = 1e-12

SMALL_STATE_MEAN = squeezed.DEFAULT_CUTOFF / 100


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    kind: str
    items: int
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    cycle: list  # pass k runs cycle[k % len(cycle)], a list of Jobs
    golden: dict  # key -> callable returning a table (list of rows)
    # share of cross-checked states with mean photon number <= SMALL_STATE_MEAN
    small_state_share: float = 0.0

    def jobs(self, k):
        return self.cycle[k % len(self.cycle)]


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- tables


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """Header-less table of a CSV output; numbers parsed as floats."""
    with open(path) as f:
        lines = f.read().splitlines()
    return [[_cell(c) for c in line.split(",")] for line in lines[1:]]


def report_table(reports):
    """Truth-table report JSON as one row per truth-table row."""
    rows = []
    for rep in reports:
        rows.append([rep["backend"], rep["gate"], str(rep["pass"]), str(rep["error"]), "", "", "", 0.0])
        for r in rep["rows"]:
            rows.append([
                rep["backend"], rep["gate"], "row", "",
                "".join(map(str, r["inputs"])),
                "".join(map(str, r["expected"])),
                "".join(map(str, r["observed"])),
                float(r["margin"]),
            ])
    return rows


def matrix_table(u):
    return [[float(x) for z in row for x in (z.real, z.imag)] for row in np.asarray(u)]


def compare_tables(got, want):
    """Problems found comparing a table with its golden table, column by column."""
    if len(got) != len(want) or any(len(a) != len(b) for a, b in zip(got, want)):
        return ["shape differs from golden"]
    problems = []
    for j in range(len(want[0]) if want else 0):
        g = [row[j] for row in got]
        w = [row[j] for row in want]
        if any(isinstance(x, str) for x in g + w):
            if g != w:
                problems.append(f"column {j} differs from golden")
            continue
        g, w = np.array(g, dtype=float), np.array(w, dtype=float)
        atol = max(GOLDEN_ATOL_COLUMN * float(np.max(np.abs(w))), GOLDEN_ATOL_FLOOR)
        err = np.abs(g - w) - GOLDEN_RTOL * np.abs(w)
        if not np.all(err <= atol):
            problems.append(f"column {j} off golden by {float(np.max(np.abs(g - w))):.3e}")
    return problems


# ---------------------------------------------------------------- helpers


def closed_form(alpha, r, theta):
    """Photon-number (mean, variance) of D(alpha) S(r e^{i theta}) |0>."""
    ch, sh = math.cosh(r), math.sinh(r)
    mean = abs(alpha) ** 2 + sh * sh
    var = abs(alpha * ch - alpha.conjugate() * cmath.exp(1j * theta) * sh) ** 2 + 2 * ch * ch * sh * sh
    return mean, var


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class _Context:
    """Where a workload writes its configs and outputs."""

    def __init__(self, workdir, sink):
        self.workdir = workdir
        self.sink = sink
        self._n = 0

    def config(self, cfg):
        self._n += 1
        path = self.workdir / f"cfg{self._n}.json"
        path.write_text(json.dumps(cfg))
        return str(path), str(self.workdir / f"out{self._n}")

    def cli_job(self, kind, items, argv, check_output):
        """Job running ``oqcsim`` with argv; stdout goes to the sink."""

        def call():
            with contextlib.redirect_stdout(self.sink):
                return cli.main(argv)

        def check(code):
            _require(code == 0, f"{kind}: exit code {code}")
            check_output()

        return Job(kind, items, call, check)

    def run_job(self, kind, items, cfg, check_table):
        cfg_path, out = self.config(cfg)
        return self.cli_job(
            kind, items, ["run", "--config", cfg_path, "--out", out], lambda: check_table(read_csv(out))
        )

    def sweep_job(self, kind, items, cfg, check_table):
        cfg_path, out = self.config(cfg)
        return self.cli_job(
            kind, items, ["sweep", "--config", cfg_path, "--out", out], lambda: check_table(read_csv(out))
        )

    def truthtable_job(self, backends, items, check_reports):
        out = str(self.workdir / f"truthtable-{backends.replace(',', '-')}.json")

        def check():
            with open(out) as f:
                check_reports(json.load(f))

        return self.cli_job(f"truthtable {backends}", items, ["truthtable", "--backends", backends, "--out", out], check)

    def cli_table(self, command, cfg):
        """Golden job: run or sweep ``cfg`` and return its output table."""
        cfg_path, out = self.config(cfg)

        def produce():
            with contextlib.redirect_stdout(self.sink):
                code = cli.main([command, "--config", cfg_path, "--out", out])
            if code != 0:
                raise CheckFailed(f"golden {command}: exit code {code}")
            return read_csv(out)

        return produce

    def truthtable_table(self, backends):
        out = str(self.workdir / "golden-truthtable.json")

        def produce():
            with contextlib.redirect_stdout(self.sink):
                code = cli.main(["truthtable", "--backends", backends, "--out", out])
            if code != 0:
                raise CheckFailed(f"golden truthtable: exit code {code}")
            with open(out) as f:
                return report_table(json.load(f))

        return produce


# ---------------------------------------------------------------- rds_sweep


def _check_rds_sweep(count):
    def check(rows):
        _require(len(rows) == count, f"rds sweep: {len(rows)} rows, expected {count}")
        for row in rows:
            _require(all(math.isfinite(x) for x in row), "rds sweep: non-finite output")
            _require(row[5] < MANLEY_ROWE_DRIFT, f"rds sweep: Manley-Rowe drift {row[5]:.3e}")

    return check


def _rds_sweep_cfg(parameter, params, start, stop, count):
    return {
        "backend": "rds",
        "parameters": dict(params, kappa_b=1.0),
        "sweep": {"parameter": parameter, "start": start, "stop": stop, "count": count},
    }


def build_rds_sweep(rng, ctx):
    two_pi = 2 * math.pi
    sign = rng.choice((1.0, -1.0))
    sweeps = [
        ("beam_amplitude", {}, rng.uniform(0.02, 0.08), rng.uniform(0.2, 0.3)),
        ("kappa_a", {"a1": [rng.uniform(0.05, 0.3), 0.0]}, rng.uniform(0.3, 0.7), rng.uniform(1.5, 2.5)),
        (
            "dk_a",
            {"a1": [rng.uniform(0.05, 0.3), 0.0]},
            sign * two_pi * rng.uniform(400, 700),
            sign * two_pi * rng.uniform(2500, 3500),
        ),
    ]
    cycle = [
        [ctx.sweep_job(f"sweep {p}", 81, _rds_sweep_cfg(p, params, a, b, 81), _check_rds_sweep(81))]
        for p, params, a, b in sweeps
    ]
    golden = {
        "sweep_beam_amplitude": ctx.cli_table("sweep", _rds_sweep_cfg("beam_amplitude", {}, 0.05, 0.25, 5)),
        "sweep_kappa_a": ctx.cli_table("sweep", _rds_sweep_cfg("kappa_a", {"a1": [0.1, 0.0]}, 0.5, 2.0, 5)),
        "sweep_dk_a": ctx.cli_table(
            "sweep", _rds_sweep_cfg("dk_a", {"a1": [0.2, 0.0]}, two_pi * 500, two_pi * 2500, 5)
        ),
    }
    return Workload("rds_sweep", cycle, golden)


# ---------------------------------------------------------------- rds_logic


def _check_not_rows(rows):
    _require(len(rows) == 2, "rds NOT: expected 2 rows")
    for x, y, separation, _ in rows:
        _require(y == 1 - x, f"rds NOT: in={x} out={y}")
        _require(separation >= RDS_SEPARATION, f"rds NOT: separation {separation}")


def _check_cnot_rows(rows):
    _require(len(rows) == 4, "rds CNOT: expected 4 rows")
    for x1, x2, y1, y2, separation, _ in rows:
        _require((y1, y2) == (x1, (x1 + x2) % 2), f"rds CNOT: in={x1}{x2} out={y1}{y2}")
        _require(separation >= RDS_SEPARATION, f"rds CNOT: separation {separation}")


def _check_reports(backends, margins):
    def check(reports):
        _require(len(reports) == 2 * len(backends), "truthtable: wrong report count")
        for rep in reports:
            _require(rep["pass"], f"truthtable: {rep['backend']} {rep['gate']} failed")
            _require(len(rep["rows"]) == (2 if rep["gate"] == "NOT" else 4), "truthtable: wrong row count")
            for row in rep["rows"]:
                _require(margins[rep["backend"]](row["margin"]), f"truthtable: {rep['backend']} margin {row['margin']}")

    return check


def _check_trajectory(samples):
    def check(rows):
        _require(len(rows) == samples, f"trajectory: {len(rows)} rows, expected {samples}")
        n = np.array([row[7] for row in rows])
        drift = float(np.max(np.abs(n - n[0])) / n[0])
        _require(drift < MANLEY_ROWE_DRIFT, f"trajectory: Manley-Rowe drift {drift:.3e}")

    return check


def build_rds_logic(rng, ctx):
    def gate_cfg(gate, amplitude):
        return {"backend": "rds", "parameters": {"gate": gate, "beam_amplitude": amplitude}}

    amplitudes = [rng.uniform(0.02, 0.3) for _ in range(4)]
    trajectory_cfg = {"backend": "rds", "parameters": {"a1": [rng.uniform(0.05, 0.3), 0.0]}}
    # default grid: 100 domains x 16 RK4 steps, both end points sampled
    samples = 100 * 16 + 1
    # Job costs in propagations: trajectory 1, NOT 8, CNOT 10, truth table
    # 12.  With three CNOT runs of six jobs, the median job is a CNOT run,
    # not the boundary between the NOT and CNOT latency clusters.
    jobs = [
        ctx.run_job("run rds not", 1, gate_cfg("not", amplitudes[0]), _check_not_rows),
        ctx.run_job("run rds cnot", 1, gate_cfg("cnot", amplitudes[1]), _check_cnot_rows),
        ctx.run_job("run rds cnot", 1, gate_cfg("cnot", amplitudes[2]), _check_cnot_rows),
        ctx.run_job("run rds cnot", 1, gate_cfg("cnot", amplitudes[3]), _check_cnot_rows),
        ctx.truthtable_job("rds", 1, _check_reports(["rds"], {"rds": lambda m: m >= RDS_SEPARATION})),
        ctx.run_job("run rds trajectory", 1, trajectory_cfg, _check_trajectory(samples)),
    ]
    golden = {
        "truthtable_rds": ctx.truthtable_table("rds"),
        "trajectory": ctx.cli_table(
            "run", {"backend": "rds", "parameters": {"a1": [0.2, 0.0], "sample_stride": 40}}
        ),
        "run_not": ctx.cli_table("run", gate_cfg("not", 0.15)),
        "run_cnot": ctx.cli_table("run", gate_cfg("cnot", 0.25)),
    }
    return Workload("rds_logic", [jobs], golden)


# ---------------------------------------------------------------- fock_oracle


def _stratified_state(rng, i, j, cells=3):
    """State with |alpha| in cell i of [0, 3] and r in cell j of [0, 1.5]."""
    mag = 3.0 * (i + rng.random()) / cells
    alpha = cmath.rect(mag, rng.uniform(0, 2 * math.pi))
    r = 1.5 * (j + rng.random()) / cells
    return alpha, r, rng.uniform(0, 2 * math.pi)


def _fock_library_job(alpha, r, theta):
    def call():
        s = squeezed.SqueezedStateParams(alpha, r, theta)
        st = squeezed.closed_form_stats(s)
        return st, squeezed.distribution_moments(squeezed.fock_distribution(s))

    def check(out):
        st, (mean, var) = out
        want_mean, want_var = closed_form(alpha, r, theta)
        _require(
            _close(st.mean_n, want_mean, CLOSED_FORM_RTOL) and _close(st.var_n, want_var, CLOSED_FORM_RTOL),
            "closed_form_stats disagrees with the closed form",
        )
        _require(
            abs(mean - st.mean_n) < FOCK_MOMENT_ERROR and abs(var - st.var_n) < FOCK_MOMENT_ERROR,
            f"Fock moments off closed form by {abs(mean - st.mean_n):.2e}, {abs(var - st.var_n):.2e}",
        )

    return Job("fock cross-check", 1, call, check)


def _check_distribution(alpha, r, theta):
    def check(rows):
        _require(len(rows) == squeezed.DEFAULT_CUTOFF + 1, "distribution: wrong row count")
        p = np.array([row[1] for row in rows])
        n = np.arange(len(p))
        mean = float(np.dot(n, p))
        var = float(np.dot(n**2, p)) - mean**2
        want_mean, want_var = closed_form(alpha, r, theta)
        _require(
            abs(mean - want_mean) < FOCK_MOMENT_ERROR and abs(var - want_var) < FOCK_MOMENT_ERROR,
            f"distribution moments off closed form by {abs(mean - want_mean):.2e}, {abs(var - want_var):.2e}",
        )

    return check


def _stats_cfg(alpha, r, theta, **extra):
    return {
        "backend": "stats",
        "parameters": dict({"alpha": [alpha.real, alpha.imag], "r": r, "theta": theta}, **extra),
    }


def _check_stats_sweep(alpha, theta, count):
    def check(rows):
        _require(len(rows) == count, "stats sweep: wrong row count")
        for r, mean_n, var_n, q, g2 in rows:
            want_mean, want_var = closed_form(alpha, r, theta)
            _require(
                _close(mean_n, want_mean, CLOSED_FORM_RTOL) and _close(var_n, want_var, CLOSED_FORM_RTOL),
                f"stats sweep: r={r} off closed form",
            )
            _require(_close(q, (var_n - mean_n) / mean_n, CLOSED_FORM_RTOL), "stats sweep: Mandel Q")
            _require(_close(g2, 1 + q / mean_n, CLOSED_FORM_RTOL), "stats sweep: g2(0)")

    return check


def build_fock_oracle(rng, ctx):
    library = [_stratified_state(rng, i, j) for i in range(3) for j in range(3)]
    runs = [_stratified_state(rng, 1, 1), _stratified_state(rng, 2, 2)]
    jobs = [_fock_library_job(*state) for state in library]
    for alpha, r, theta in runs:
        jobs.append(
            ctx.run_job(
                "run stats distribution", 1, _stats_cfg(alpha, r, theta, distribution=True),
                _check_distribution(alpha, r, theta),
            )
        )
    sweep_alpha = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
    sweep_theta = rng.uniform(0, 2 * math.pi)
    sweep_cfg = _stats_cfg(sweep_alpha, 0.0, sweep_theta)
    sweep_cfg["sweep"] = {"parameter": "r", "start": 0.0, "stop": 1.5, "count": 81}
    jobs.append(ctx.sweep_job("sweep stats r", 0, sweep_cfg, _check_stats_sweep(sweep_alpha, sweep_theta, 81)))

    states = library + runs
    small = sum(closed_form(*s)[0] <= SMALL_STATE_MEAN for s in states) / len(states)

    def fock_table(alpha, r, theta):
        return lambda: [[float(x)] for x in squeezed.fock_distribution(squeezed.SqueezedStateParams(alpha, r, theta))]

    golden_sweep = _stats_cfg(1 + 0.5j, 0.0, 0.3)
    golden_sweep["sweep"] = {"parameter": "r", "start": 0.0, "stop": 1.5, "count": 11}
    golden = {
        "fock_coherent": fock_table(2.5 + 0j, 0.0, 0.0),
        "fock_displaced_squeezed": fock_table(1 - 1.5j, 1.2, 2.0),
        "run_distribution": ctx.cli_table("run", _stats_cfg(0.5 + 0.5j, 0.7, 1.0, distribution=True)),
        "sweep_closed_form": ctx.cli_table("sweep", golden_sweep),
    }
    return Workload("fock_oracle", [jobs], golden, small)


# ---------------------------------------------------------------- gate_oracle


def _gate_list(n):
    """(network, permutation) for every NOT target and ordered CNOT pair."""
    gates = [(jones.not_network(n, q), truthtable.not_permutation(n, q)) for q in range(n)]
    for c in range(n):
        for t in range(n):
            if c != t:
                gates.append((jones.cnot_network(n, c, t), truthtable.cnot_permutation(n, c, t)))
    return gates


def _jones_oracle_job(n):
    def call():
        return [
            float(np.max(np.abs(jones.gate_matrix(n, network) - truthtable.permutation_matrix(perm))))
            for network, perm in _gate_list(n)
        ]

    def check(errors):
        _require(max(errors) <= JONES_MATRIX_ERROR, f"jones n={n}: matrix off oracle by {max(errors):.2e}")

    return Job(f"jones oracle n={n}", n * n, call, check)


def _spin_oracle_job(j12):
    def call():
        pairs = (
            (spin.compile_not(0), truthtable.not_permutation(2, 0)),
            (spin.compile_not(1), truthtable.not_permutation(2, 1)),
            (spin.compile_cnot(0, 1, j12), truthtable.cnot_permutation(2, 0, 1)),
            (spin.compile_cnot(1, 0, j12), truthtable.cnot_permutation(2, 1, 0)),
        )
        return [
            spin.gate_fidelity(truthtable.permutation_matrix(perm), spin.sequence_unitary(segs, 2, j12))
            for segs, perm in pairs
        ]

    def check(fidelities):
        _require(min(fidelities) >= SPIN_FIDELITY, f"spin j12={j12}: fidelity {min(fidelities)!r}")

    return Job("spin oracle", 4, call, check)


def _check_spin_sweep(count):
    def check(rows):
        _require(len(rows) == count, "spin sweep: wrong row count")
        _require(all(f >= SPIN_FIDELITY for _, f in rows), "spin sweep: fidelity below threshold")

    return check


def _apply_gates_to_bits(bits, gates):
    bits = list(bits)
    for g in gates:
        if g["type"] == "not":
            bits[g["qubit"]] ^= 1
        else:
            bits[g["target"]] ^= bits[g["control"]]
    return int("".join(map(str, bits)), 2)


def _shuffled_gates(rng, n):
    """A fixed gate multiset in seeded order, so the network length is seed-free."""
    gates = [
        {"type": "not", "qubit": 0},
        {"type": "not", "qubit": n - 1},
        {"type": "cnot", "control": 0, "target": n - 1},
        {"type": "cnot", "control": n - 1, "target": 1},
    ]
    rng.shuffle(gates)
    return gates


def _check_jones_run(index):
    def check(rows):
        power = np.array([row[4] for row in rows])
        _require(abs(power[index] - 1.0) <= JONES_MATRIX_ERROR, f"jones run: power {power[index]!r} at {index}")
        _require(power.sum() - power[index] <= JONES_MATRIX_ERROR, "jones run: power outside the expected slot")

    return check


def _jones_run_cfg(bits, gates):
    return {"backend": "jones", "parameters": {"basis": "".join(map(str, bits)), "gates": gates}}


def build_gate_oracle(rng, ctx):
    jobs = [_jones_oracle_job(n) for n in range(2, 7)]
    for k in range(6):
        jobs.append(_spin_oracle_job((1 if k % 2 == 0 else -1) * 10 ** rng.uniform(-2, 1)))
    jobs.append(
        ctx.truthtable_job(
            "spin,jones",
            0,
            _check_reports(
                ["spin", "jones"],
                {"spin": lambda m: m >= SPIN_FIDELITY, "jones": lambda m: abs(m - 1.0) <= JONES_MATRIX_ERROR},
            ),
        )
    )
    sign = rng.choice((1.0, -1.0))
    sweep_cfg = {
        "backend": "spin",
        "parameters": {"gate": "cnot"},
        "sweep": {"parameter": "j12", "start": sign * rng.uniform(0.01, 0.1), "stop": sign * rng.uniform(1.0, 10.0), "count": 41},
    }
    jobs.append(ctx.sweep_job("sweep spin j12", 0, sweep_cfg, _check_spin_sweep(41)))
    for n in (3, 5):
        bits = [rng.randrange(2) for _ in range(n)]
        gates = _shuffled_gates(rng, n)
        jobs.append(
            ctx.run_job("run jones", 0, _jones_run_cfg(bits, gates), _check_jones_run(_apply_gates_to_bits(bits, gates)))
        )

    golden_sweep = {
        "backend": "spin",
        "parameters": {"gate": "cnot"},
        "sweep": {"parameter": "j12", "start": 0.05, "stop": 1.0, "count": 11},
    }
    golden = {
        "jones_not0_n3": lambda: matrix_table(jones.gate_matrix(3, jones.not_network(3, 0))),
        "jones_cnot02_n3": lambda: matrix_table(jones.gate_matrix(3, jones.cnot_network(3, 0, 2))),
        "jones_cnot21_n3": lambda: matrix_table(jones.gate_matrix(3, jones.cnot_network(3, 2, 1))),
        "spin_cnot_pos": lambda: matrix_table(spin.sequence_unitary(spin.compile_cnot(0, 1, 0.1), 2, 0.1)),
        "spin_cnot_neg": lambda: matrix_table(spin.sequence_unitary(spin.compile_cnot(1, 0, -0.37), 2, -0.37)),
        "truthtable_spin_jones": ctx.truthtable_table("spin,jones"),
        "sweep_spin_j12": ctx.cli_table("sweep", golden_sweep),
        "run_jones": ctx.cli_table(
            "run",
            _jones_run_cfg([1, 0, 1], [{"type": "cnot", "control": 0, "target": 1}, {"type": "not", "qubit": 2}]),
        ),
    }
    return Workload("gate_oracle", [jobs], golden)


FACTORIES = {
    "rds_sweep": build_rds_sweep,
    "rds_logic": build_rds_logic,
    "fock_oracle": build_fock_oracle,
    "gate_oracle": build_gate_oracle,
}


def build(name, seed, workdir, sink):
    """The workload ``name`` with inputs drawn from ``seed``."""
    return FACTORIES[name](random.Random(seed), _Context(workdir, sink))
