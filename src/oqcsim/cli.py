"""Batch command-line front end.

Subcommands: run (execute one experiment config), truthtable (verify the
NOT/CNOT tables across backends), sweep (one-parameter scan), version.
Exit codes: 0 success, 1 physics/calibration failure, 2 config error,
141 stdout closed before the output was written (as a SIGPIPE kill).
Configs are strict JSON: any unknown key is a hard error.  Outputs are
CSV (17 significant digits) or JSON, byte-identical for identical
config + seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, jones, rds, spin
from .squeezed import DEFAULT_CUTOFF, CutoffError, SqueezedStateParams, closed_form_stats, fock_distribution
from .truthtable import (
    CNOT_TABLE,
    NOT_TABLE,
    bits_index,
    cnot_permutation,
    index_bits,
    not_permutation,
    permutation_matrix,
)

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_CONFIG = 2
EXIT_PIPE = 141  # 128 + SIGPIPE

# Largest spin "shots": the multinomial sampler counts in int64.
MAX_SHOTS = 2**63 - 1
# Largest stats "cutoff": the time and memory of a distribution run grow
# in proportion to it, to about 0.8 s and 92 MB at this cap, in CSV or JSON.
MAX_CUTOFF = 10**6


class ConfigError(Exception):
    pass


# Failures of valid configs; any other exception is a bug and propagates.
_PHYSICS_ERRORS = (rds.CalibrationError, rds.DivergenceError, CutoffError, spin.GateCompilationError)


# ---------------------------------------------------------------- config

# Default of a key that must be given.
_REQUIRED = object()


def _parse(section, table, context):
    """Read a JSON object through a {key: (reader, default)} table.

    Unknown keys are errors.  A missing key takes its default, which is
    read like a given value, except that a key whose default is None is
    optional: absent or null, it reads as None.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be an object")
    for key in section:
        if key not in table:
            raise ConfigError(f'unknown key "{key}" in {context}')
    values = {}
    for key, (reader, default) in table.items():
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f'{context} is missing required key "{key}"')
        if value is None and default is None:
            values[key] = None
        else:
            values[key] = reader(value, f'key "{key}" in {context}')
    return values


def _check(test, noun):
    """Reader that returns a JSON value unchanged if it passes test."""

    def read(v, what):
        if not test(v):
            raise ConfigError(f"{what} must be {noun}")
        return v

    return read


def _is_real(v):
    # a JSON integer may be too large for a float; math.isfinite would raise
    return (type(v) is float and math.isfinite(v)) or (type(v) is int and abs(v) <= sys.float_info.max)


def _is_bits(v):
    return isinstance(v, str) and v != "" and set(v) <= {"0", "1"}


def _integer(minimum):
    return _check(lambda v: type(v) is int and v >= minimum, f"an integer >= {minimum}")


def _choice(*options):
    return _check(lambda v: v in options, "one of " + ", ".join(map(json.dumps, options)))


_string = _check(lambda v: isinstance(v, str), "a string")
_boolean = _check(lambda v: isinstance(v, bool), "a boolean")
_list = _check(lambda v: isinstance(v, list), "a list")
_object = _check(lambda v: isinstance(v, dict), "an object")
_bits = _check(_is_bits, "a nonempty bit string")
_finite = _check(_is_real, "a finite number")
_positive = _check(lambda v: _is_real(v) and v > 0, "a positive number")


def _number(v, what):
    return float(_finite(v, what))


def _complex_pair(v, what):
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{what} must be a [re, im] pair")
    return complex(_number(v[0], what), _number(v[1], what))


def _section(table, context):
    return lambda v, what: _parse(v, table, context)


_OUTPUT = {"path": (_string, None), "format": (_choice("csv", "json"), "csv")}
_SWEEP = {
    "parameter": (_string, _REQUIRED),
    "start": (_number, _REQUIRED),
    "stop": (_number, _REQUIRED),
    "count": (_integer(2), _REQUIRED),
}


def load_config(path):
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return _parse(raw, _CONFIG, "config")


# ---------------------------------------------------------------- output


# A table is {column name: numpy array}: equal-length columns, in output
# order.  It is written CHUNK_ROWS rows at a time, so the writer's memory is
# set by the chunk, not by the table.
CHUNK_ROWS = 4096


def _powers(amplitudes):
    """|a|**2 of each amplitude, one scalar at a time: numpy's vectorised abs can differ from it in the last bit."""
    return np.array([abs(a) ** 2 for a in amplitudes], dtype=float)


def _json_cells(column):
    """The cells of a column chunk as values whose %s is their JSON text."""
    if column.dtype.kind in "iu":
        return column.tolist()
    if column.dtype.kind == "f":
        return [v if math.isfinite(v) else "null" for v in column.tolist()]
    return [json.dumps(v) for v in column.tolist()]


def _table_text(table, fmt):
    """Text of a table in fmt: the head, one string per chunk, then the tail.

    A chunk is one %-format: the row template repeated per row, applied to
    the chunk's cells laid out row by row.  CSV writes a float column as
    .17g and any other as %s.  JSON is json.dumps({"columns", "rows"},
    indent=2), a non-finite float written as null.
    """
    names, columns = list(table), list(table.values())
    if fmt == "json":
        head = json.dumps({"columns": names}, indent=2)[:-2] + ',\n  "rows": ['
        row = "\n    [\n" + ",\n".join(["      %s"] * len(names)) + "\n    ]"
        sep, cells = ",", _json_cells
        tail = ("\n  ]" if len(columns[0]) else "]") + "\n}\n"
    else:
        head = ",".join(names) + "\n"
        row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
        sep, cells, tail = "", np.ndarray.tolist, ""
    yield head
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        chunk = [cells(c[start : start + CHUNK_ROWS]) for c in columns]
        n = len(chunk[0])
        values = [None] * (len(chunk) * n)
        for j, c in enumerate(chunk):
            values[j :: len(chunk)] = c
        yield (sep if start else "") + sep.join([row] * n) % tuple(values)
    yield tail


def _write_text(texts, out_path):
    """Write each string of texts in turn to out_path, or to stdout if it is None."""
    if out_path is None:
        for text in texts:
            sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as f:
            f.writelines(texts)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}")


def write_payload(payload, out_path, fmt):
    """Write a table in fmt ("csv" or "json") to out_path, or to stdout if it is None."""
    _write_text(_table_text(payload, fmt), out_path)


# ---------------------------------------------------------------- backends

# a spin index of the 2-spin register
_SPIN_INDEX = _check(lambda v: type(v) is int and v in (0, 1), "0 or 1")
_SHOTS = _check(lambda v: type(v) is int and 0 <= v <= MAX_SHOTS, f"an integer from 0 to {MAX_SHOTS}")
_SPIN = {
    "j12": (_number, 0.1),
    "gate": (_choice("not", "cnot"), None),
    "target": (_SPIN_INDEX, 1),
    "control": (_SPIN_INDEX, 0),
    "initial": (_check(lambda v: _is_bits(v) and len(v) == 2, "a 2-bit string"), "00"),
    "shots": (_SHOTS, 0),
}


def _parse_spin(params):
    q = _parse(params, _SPIN, "spin parameters")
    if q["gate"] != "not" and q["control"] == q["target"]:  # a sweep without a gate runs the cnot
        raise ConfigError("spin parameters: cnot control and target must differ")
    return q


# gate -> (its pulse segments, its permutation oracle), each read from the parsed spin keys
_SPIN_GATES = {
    "not": (lambda q: spin.compile_not(q["target"]), lambda q: not_permutation(2, q["target"])),
    "cnot": (
        lambda q: spin.compile_cnot(q["control"], q["target"], q["j12"]),
        lambda q: cnot_permutation(2, q["control"], q["target"]),
    ),
}


def _spin_fidelity(q, gate):
    """Unitary of a configured spin gate and its fidelity to the permutation."""
    compile_gate, permutation = _SPIN_GATES[gate]
    u = spin.sequence_unitary(compile_gate(q), 2, q["j12"])
    return u, spin.gate_fidelity(permutation_matrix(permutation(q)), u)


def run_spin(q, seed):
    state = spin.SpinState.basis(q["initial"])
    if q["gate"] is not None:
        state = spin.apply_sequence(state, _SPIN_GATES[q["gate"]][0](q), q["j12"])
    amps = state.amplitudes
    basis = [format(i, "02b") for i in range(amps.size)]
    columns = {"basis": np.array(basis), "re": amps.real, "im": amps.imag, "probability": _powers(amps)}
    if q["shots"] > 0:
        counts = spin.measure(state, seed, q["shots"])
        columns["counts"] = np.array([counts.get(b, 0) for b in basis], dtype=np.int64)  # shots fit in int64
    return columns


def _modes(v, what):
    return tuple(_integer(0)(m, what) for m in _list(v, what))


def _pairs(v, what):
    return np.array([_complex_pair(x, what) for x in _list(v, what)], dtype=complex)


_INDEX = (_integer(0), _REQUIRED)
# type -> (constructor, table of its keyword arguments)
_ELEMENTS = {
    "waveplate": (
        jones.Waveplate, {"delta": (_number, 0.0), "theta": (_number, 0.0), "modes": (_modes, None)}
    ),
    "rotator": (jones.Rotator, {"angle": (_number, 0.0), "modes": (_modes, None)}),
    "pbs_swap": (jones.PBSSwap, {"mode_a": _INDEX, "mode_b": _INDEX}),
}
# type -> (network builder called with the qubit count, table of its other arguments)
_GATES = {
    "not": (jones.not_network, {"qubit": _INDEX}),
    "cnot": (jones.cnot_network, {"control": _INDEX, "target": _INDEX}),
}

_JONES = {
    "basis": (_bits, "0"),
    "input": (_pairs, None),
    "elements": (_list, []),
    "gates": (_list, []),
}


def _build(entries, kinds, context, *args):
    """One constructor call per {"type": kind, **arguments} entry."""
    built = []
    for i, entry in enumerate(entries):
        ctx = f"{context}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx} must be an object")
        kind = entry.get("type")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f'{ctx} has unknown type "{kind}"')
        make, table = kinds[kind]
        arguments = _parse({k: v for k, v in entry.items() if k != "type"}, table, ctx)
        built.append(make(*args, **arguments))
    return built


def _parse_jones(params):
    ctx = "jones parameters"
    q = _parse(params, _JONES, ctx)
    try:
        amps = q["input"]
        if amps is None:
            amps = np.zeros(2 ** len(q["basis"]), dtype=complex)
            amps[int(q["basis"], 2)] = 1.0
        reg = jones.encode_state(amps)
        elements = _build(q["elements"], _ELEMENTS, f"{ctx} elements")
        # the configured elements; a generated gate network is valid once its qubits are
        list(jones.check_elements(elements, reg.n_modes))
        for network in _build(q["gates"], _GATES, f"{ctx} gates", reg.n_qubits):
            elements += network
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}")
    return reg, elements


def run_jones(parsed, seed):
    reg, elements = parsed
    amps = jones.apply_network(reg, elements).amplitudes.ravel()  # mode by mode, H then V
    modes, polarizations = np.arange(amps.size) // 2, np.tile(["H", "V"], amps.size // 2)
    return dict(mode=modes, polarization=polarizations, re=amps.real, im=amps.imag, power=_powers(amps))


_LENGTH = 'a positive number or "coherence"'
_COUPLING = rds.default_params()
_RDS = {
    "kappa_a": (_number, _COUPLING.kappa_a),
    "kappa_b": (_number, _COUPLING.kappa_b),
    "dk_a": (_number, _COUPLING.dk_a),
    "dk_b": (_number, _COUPLING.dk_b),
    "n_domains": (_integer(1), rds.DEFAULT_N_DOMAINS),
    "domain_length": (_check(lambda v: v == "coherence" or (_is_real(v) and v > 0), _LENGTH), None),
    "length": (_number, None),
    "grid_file": (_string, None),
    "a1": (_complex_pair, [0.1, 0.0]),
    "a2": (_complex_pair, [0.0, 0.0]),
    "a3": (_complex_pair, [0.0, 0.0]),
    "steps_per_domain": (_integer(1), rds.DEFAULT_STEPS_PER_DOMAIN),
    "sample_stride": (_integer(1), 1),
    "gate": (_choice("not", "cnot"), None),
    "beam_amplitude": (_positive, rds.DEFAULT_BEAM_AMPLITUDE),
}


def _parse_rds(params, load_grid=None):
    """Coupling parameters, domain grid, input fields and the parsed keys.

    A grid_file is read by load_grid, by default rds.DomainGrid.load.
    """
    ctx = "rds parameters"
    q = _parse(params, _RDS, ctx)
    try:
        p = rds.CoupledModeParams(
            kappa_a=q["kappa_a"], kappa_b=q["kappa_b"], dk_a=q["dk_a"], dk_b=q["dk_b"]
        )
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}")

    def domain_length():
        if q["domain_length"] in (None, "coherence"):
            return rds.qpm_domain_length(p.dk_a)
        return float(q["domain_length"])

    # an optional key given as null is absent
    clash = [k for k in ("length", "n_domains", "domain_length") if params.get(k) is not None]
    if q["grid_file"] is not None and clash:
        raise ConfigError(f"{ctx}: grid_file cannot be combined with {', '.join(clash)}")
    if "length" in clash and "n_domains" in clash:
        raise ConfigError(f"{ctx}: n_domains cannot be combined with length")
    try:
        if q["grid_file"] is not None:
            grid = (load_grid or rds.DomainGrid.load)(q["grid_file"])
        elif q["length"] is None:
            dl = domain_length()
            grid = rds.make_periodic_grid(q["n_domains"] * dl, dl)
        elif q["domain_length"] is not None:
            grid = rds.make_periodic_grid(q["length"], domain_length())
        else:
            grid = rds.DomainGrid(np.array([q["length"]]), np.array([1.0]))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{ctx}: invalid grid: {exc}")
    return p, grid, rds.FieldTriple(q["a1"], q["a2"], q["a3"]), q


def run_rds(parsed, seed):
    p, grid, fields, q = parsed
    if q["gate"] is None:
        traj = rds.propagate(fields, grid, p, q["steps_per_domain"])
        last = len(traj.z) - 1
        idx = [*range(0, last, q["sample_stride"]), last]  # every stride-th sample and the last
        parts = traj.fields[idx].view(float).T  # re a1, im a1, re a2, ...
        names = ["re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3"]
        return {"z": traj.z[idx], **dict(zip(names, parts)), "manley_rowe": traj.manley_rowe()[idx]}
    cal, gates = _rds_gates(parsed)
    if q["gate"] == "not":
        names, table, threshold = ["x", "y"], NOT_TABLE, cal.p_th2
    else:
        names, table, threshold = ["x1", "x2", "y1", "y2"], CNOT_TABLE, cal.p_th3
    rows = _gate_rows(gates[q["gate"].upper()], table)
    bits, margins = np.array([r["inputs"] + r["observed"] for r in rows]).T, np.array([r["margin"] for r in rows])
    return dict(zip(names, bits), separation=margins, threshold=np.full(len(rows), threshold))


_CUTOFF = _check(lambda v: type(v) is int and 1 <= v <= MAX_CUTOFF, f"an integer from 1 to {MAX_CUTOFF}")
_STATS = {
    "alpha": (_complex_pair, [0.0, 0.0]),
    "r": (_number, 0.0),
    "theta": (_number, 0.0),
    "cutoff": (_CUTOFF, DEFAULT_CUTOFF),
    "distribution": (_boolean, False),
}


def _parse_stats(params):
    """The squeezed state and the parsed keys."""
    ctx = "stats parameters"
    q = _parse(params, _STATS, ctx)
    try:
        return SqueezedStateParams(alpha=q["alpha"], r=q["r"], theta=q["theta"]), q
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}")


_MOMENTS = ["mean_n", "var_n", "mandel_q", "g2_zero"]


def _moments(s):
    """Photon-number mean, variance, Mandel Q and g2(0) of a squeezed state."""
    st = closed_form_stats(s)
    return [st.mean_n, st.var_n, st.mandel_q, st.g2_zero]


def run_stats(parsed, seed):
    s, q = parsed
    if q["distribution"]:
        p = fock_distribution(s, q["cutoff"])
        return {"n": np.arange(p.size), "p": p}
    row = [s.alpha.real, s.alpha.imag, s.r, s.theta, *_moments(s)]
    return dict(zip(["alpha_re", "alpha_im", "r", "theta", *_MOMENTS], np.array(row)[:, np.newaxis]))


# ---------------------------------------------------------------- truth tables

# A backend's gates map "NOT"/"CNOT" to a function from the input bits of
# one truth-table row to (observed output bits, margin).


def _column_gate(u, margin=None):
    """Gate read off the columns of a two-qubit unitary; NOT acts on qubit 1.

    The observed output is the most probable basis state.  Its margin is
    the given one, or else that state's probability.
    """

    def evaluate(inputs):
        pad = 2 - len(inputs)
        column = u[:, bits_index((0,) * pad + inputs)]
        k = int(np.argmax(np.abs(column) ** 2))
        return index_bits(k, 2)[pad:], float(abs(column[k]) ** 2) if margin is None else margin

    return evaluate


def _gate_rows(gate, table):
    """The gate run on each truth-table row, in input order, as the --out rows of a report."""
    rows = []
    for inputs in sorted(table):
        observed, margin = gate(inputs)
        rows.append(dict(inputs=list(inputs), expected=list(table[inputs]), observed=list(observed), margin=margin))
    return rows


def _spin_gates():
    """Gates of the default spin config, the margin their fidelity."""
    q = _parse_spin({})
    return {name: _column_gate(*_spin_fidelity(q, name.lower())) for name in ("NOT", "CNOT")}


def _jones_gates():
    networks = {"NOT": jones.not_network(2, 1), "CNOT": jones.cnot_network(2, 0, 1)}
    return {name: _column_gate(jones.gate_matrix(2, network)) for name, network in networks.items()}


def _rds_gates(parsed):
    """Calibration of a parsed rds config, and its gates, the margin their level separation."""
    p, grid, _, q = parsed
    cal = rds.calibrate_thresholds(grid, p, q["beam_amplitude"], q["steps_per_domain"])

    def gate(separation):
        return lambda inputs: (rds.calibrated_gate(inputs, cal), separation)

    return cal, {"NOT": gate(cal.separation_sh), "CNOT": gate(cal.separation_th)}


def _report(gate, backend, rows, error=None):
    passed = error is None and all(r["observed"] == r["expected"] for r in rows)
    return {"gate": gate, "backend": backend, "pass": passed, "error": error, "rows": rows}


def verify_truth_tables(backends):
    """One NOT and one CNOT report per backend, all against the same tables, as written to --out.

    A backend whose gates raise a physics error gets one "NOT+CNOT" report
    with the error and no rows instead.
    """
    for b in backends:
        if b not in _GATE_BACKENDS:
            raise ConfigError(f'unknown truth-table backend "{b}"')
    reports = []
    tables = (("NOT", NOT_TABLE), ("CNOT", CNOT_TABLE))
    for b in backends:
        try:
            gates = _GATE_BACKENDS[b]()
            reports.extend([_report(name, b, _gate_rows(gates[name], table)) for name, table in tables])
        except _PHYSICS_ERRORS as exc:  # isolate failures per backend
            reports.append(_report("NOT+CNOT", b, [], str(exc)))
    return reports


# ---------------------------------------------------------------- sweeps

# A sweep substitutes each swept value into the raw parameters and parses
# them again, so every row is validated like a run, and every row is
# validated before any is computed.


def _swept(params, name, value):
    """Raw parameters of one row: beam_amplitude sets a1 = [value, 0], alpha_re/alpha_im one part of alpha."""
    if name == "beam_amplitude":
        return dict(params, a1=[value, 0.0])
    if name in ("alpha_re", "alpha_im"):
        alpha = params.get("alpha", _STATS["alpha"][1])
        if isinstance(alpha, list) and len(alpha) == 2:  # any other alpha fails its parse
            alpha = [value, alpha[1]] if name == "alpha_re" else [alpha[0], value]
        return dict(params, alpha=alpha)
    return dict(params, **{name: value})


def _rds_sweep(rows):
    """Every row parsed, then one kernel call for every row (see rds.propagate_many).

    No sweep parameter names the grid file, so a grid_file is read once.
    """
    load_grid = functools.cache(rds.DomainGrid.load)
    parsed = [_parse_rds(row, load_grid) for row in rows]
    cases = [(fields, grid, p) for p, grid, fields, _ in parsed]
    final, drift = rds.propagate_many(cases, parsed[0][3]["steps_per_domain"])
    p1, p2, p3 = np.abs(final) ** 2
    p1_in = np.array([abs(fields.a1) ** 2 for fields, _, _ in cases])
    efficiency = np.divide(p2, p1_in, out=np.zeros_like(p2), where=p1_in > 0)
    return {"p1_out": p1, "p2_out": p2, "p3_out": p3, "efficiency_sh": efficiency, "manley_drift": drift}


def _stats_sweep(rows):
    parsed = [_parse_stats(row) for row in rows]
    return dict(zip(_MOMENTS, np.array([_moments(s) for s, _ in parsed]).T))


def _spin_sweep(rows):
    """Fidelity of the configured gate, CNOT by default, against its permutation.

    Every row is parsed and compiled, so each fails as its run would.  Only
    j12 varies, so every row has the same gate and permutation, and the rows
    that share their hard rotations (a CNOT's z-rotations follow the sign of
    j12) make one propagation.
    """
    parsed = [_parse_spin(row) for row in rows]
    compile_gate, permutation = _SPIN_GATES[parsed[0]["gate"] or "cnot"]
    sequences = [compile_gate(q) for q in parsed]
    groups = {}
    rotations = None
    for i, segments in enumerate(sequences):
        key = tuple(s for s in segments if isinstance(s, spin.HardRotation))
        if key != rotations:  # equal consecutive keys compare by identity, without hashing
            rotations, members = key, groups.setdefault(key, [])
        members.append(i)
    ideal = permutation_matrix(permutation(parsed[0]))
    fidelity = np.empty(len(parsed))
    for members in groups.values():
        unitaries = spin.sequence_unitaries([sequences[i] for i in members], 2, [parsed[i]["j12"] for i in members])
        fidelity[members] = [spin.gate_fidelity(ideal, u) for u in unitaries]
    return {"fidelity": fidelity}


def run_sweep(cfg):
    sweep = cfg["sweep"]
    if sweep is None:
        raise ConfigError("sweep command requires a sweep section in the config")
    backend, name = cfg["backend"], sweep["parameter"]
    _, _, names, evaluate, _ = BACKENDS[backend]
    if not names:
        raise ConfigError(f'backend "{backend}" has no sweepable parameters')
    if name not in names:
        raise ConfigError(f'unknown sweep parameter "{name}" for backend {backend}')
    if not math.isfinite(sweep["stop"] - sweep["start"]):
        raise ConfigError("sweep stop - start must be a finite number")
    values = np.linspace(sweep["start"], sweep["stop"], sweep["count"])
    return dict(value=values, **evaluate([_swept(cfg["parameters"], name, value) for value in values.tolist()]))


# ---------------------------------------------------------------- the backend table

# backend -> (parser of its parameters, runner of the parsed parameters and the
# seed, which returns a table, sweep parameters, evaluator of the raw sweep
# rows, which parses every row before it evaluates any and returns their
# table, builder of its truth-table gates, or None).  The truthtable command
# defaults to the backends with gates, in this order.
BACKENDS = {
    "spin": (_parse_spin, run_spin, ("j12",), _spin_sweep, _spin_gates),
    "jones": (_parse_jones, run_jones, (), None, _jones_gates),
    "rds": (
        _parse_rds, run_rds, ("length", "dk_a", "kappa_a", "beam_amplitude"), _rds_sweep,
        lambda: _rds_gates(_parse_rds({}))[1],
    ),
    "stats": (_parse_stats, run_stats, ("r", "theta", "alpha_re", "alpha_im"), _stats_sweep, None),
}
_GATE_BACKENDS = {b: gates for b, (_, _, _, _, gates) in BACKENDS.items() if gates is not None}

_CONFIG = {
    "backend": (_choice(*BACKENDS), _REQUIRED),
    "parameters": (_object, {}),
    "output": (_section(_OUTPUT, "output"), None),
    "seed": (_integer(0), 0),
    "sweep": (_section(_SWEEP, "sweep"), None),
}


# ---------------------------------------------------------------- commands


def cmd_run(args):
    """Write the output of one config: a run, or its sweep for the sweep command."""
    cfg = load_config(args.config)
    if args.command == "sweep":
        payload = run_sweep(cfg)
    elif cfg["sweep"] is not None:
        raise ConfigError("config contains a sweep section; use the sweep command")
    else:
        parse, run, _, _, _ = BACKENDS[cfg["backend"]]
        seed = cfg["seed"] if args.seed is None else _integer(0)(args.seed, "--seed")
        payload = run(parse(cfg["parameters"]), seed)
    output = cfg["output"] or _parse({}, _OUTPUT, "output")
    write_payload(payload, output["path"] if args.out is None else args.out, output["format"])
    return EXIT_OK


def cmd_truthtable(args):
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    if not backends:
        raise ConfigError("no backends requested")
    reports = verify_truth_tables(backends)
    for rep in reports:
        tag = f"[{rep['backend']}] {rep['gate']}:"
        if rep["error"] is not None:
            print(f"{tag} ERROR {rep['error']}", file=sys.stderr)
            continue
        for row in rep["rows"]:
            inputs, expected, observed = ("".join(map(str, row[k])) for k in ("inputs", "expected", "observed"))
            print(f"{tag} in={inputs} expected={expected} observed={observed} margin={row['margin']:.12g}")
        print(f"{tag} {'PASS' if rep['pass'] else 'FAIL'}")
    if args.out:
        _write_text([json.dumps(reports, indent=2) + "\n"], args.out)
    return EXIT_OK if all(r["pass"] for r in reports) else EXIT_PHYSICS


def cmd_version(args):
    print(__version__)
    return EXIT_OK


@functools.cache  # built on the first call, then reused: parse_args leaves a parser as it was
def build_parser():
    parser = argparse.ArgumentParser(
        prog="oqcsim", description="Deterministic quantum-gate simulation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_tt = sub.add_parser("truthtable", help="verify NOT/CNOT tables across backends")
    p_tt.add_argument("--backends", default=",".join(_GATE_BACKENDS))
    p_tt.add_argument("--out", default=None)
    p_tt.set_defaults(func=cmd_truthtable)

    p_sw = sub.add_parser("sweep", help="run a one-parameter sweep")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_run)

    p_v = sub.add_parser("version", help="print the package version")
    p_v.set_defaults(func=cmd_version)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _PHYSICS_ERRORS as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the exit flush prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
