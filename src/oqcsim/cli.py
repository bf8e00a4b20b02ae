"""Batch command-line front end.

Subcommands: run (execute one experiment config), truthtable (verify the
NOT/CNOT tables across backends), sweep (one-parameter scan), version.
Exit codes: 0 success, 1 physics/calibration failure, 2 config error.
Configs are strict JSON: any unknown key is a hard error.  Outputs are
CSV (17 significant digits) or JSON, byte-identical for identical
config + seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, jones, rds, spin
from .squeezed import DEFAULT_CUTOFF, CutoffError, SqueezedStateParams, closed_form_stats, fock_distribution
from .truthtable import (
    CNOT_TABLE,
    NOT_TABLE,
    TruthTableReport,
    TruthTableRow,
    bits_index,
    cnot_permutation,
    index_bits,
    not_permutation,
    permutation_matrix,
)

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_CONFIG = 2

BACKENDS = ("spin", "jones", "rds", "stats")

# Cap on reported level-separation margins so JSON output stays finite.
MARGIN_CAP = 1e30
# Largest spin "shots": the multinomial sampler counts in int64.
MAX_SHOTS = 2**63 - 1
# Largest stats "cutoff": the time and memory of a distribution run grow
# in proportion to it, to about 260 MB at this cap.
MAX_CUTOFF = 10**6


class ConfigError(Exception):
    pass


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
_CONFIG = {
    "backend": (_choice(*BACKENDS), _REQUIRED),
    "parameters": (_object, {}),
    "output": (_section(_OUTPUT, "output"), None),
    "seed": (_integer(0), 0),
    "sweep": (_section(_SWEEP, "sweep"), None),
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


def _fmt_csv(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def payload_csv(payload):
    lines = [",".join(payload["columns"])]
    for row in payload["rows"]:
        lines.append(",".join(_fmt_csv(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def payload_json(payload):
    safe = {
        "columns": payload["columns"],
        "rows": [[_json_safe(v) for v in row] for row in payload["rows"]],
    }
    return json.dumps(safe, indent=2) + "\n"


def _write_text(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}")


def write_payload(payload, out_path, fmt):
    _write_text(payload_json(payload) if fmt == "json" else payload_csv(payload), out_path)


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
    return _parse(params, _SPIN, "spin parameters")


def _spin_gate(q, gate):
    """Pulse segments of a configured spin gate and its permutation oracle."""
    if gate == "not":
        return spin.compile_not(q["target"]), not_permutation(2, q["target"])
    c, t = q["control"], q["target"]
    return spin.compile_cnot(c, t, q["j12"]), cnot_permutation(2, c, t)


def _spin_fidelity(q, gate):
    """Unitary of a configured spin gate and its fidelity to the permutation."""
    segments, perm = _spin_gate(q, gate)
    u = spin.sequence_unitary(segments, 2, q["j12"])
    return u, spin.gate_fidelity(permutation_matrix(perm), u)


def run_spin(params, seed):
    q = _parse_spin(params)
    state = spin.SpinState.basis(q["initial"])
    if q["gate"] is not None:
        state = spin.apply_sequence(state, _spin_gate(q, q["gate"])[0], q["j12"])
    columns = ["basis", "re", "im", "probability"]
    counts = None
    if q["shots"] > 0:
        counts = spin.measure(state, seed, q["shots"])
        columns.append("counts")
    rows = []
    for i, a in enumerate(state.amplitudes):
        bits = format(i, "02b")
        row = [bits, a.real, a.imag, abs(a) ** 2]
        if counts is not None:
            row.append(counts.get(bits, 0))
        rows.append(row)
    return {"columns": columns, "rows": rows}


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
    amps = q["input"]
    if amps is None:
        amps = np.zeros(2 ** len(q["basis"]), dtype=complex)
        amps[int(q["basis"], 2)] = 1.0
    try:
        reg = jones.encode_state(amps)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}")
    elements = _build(q["elements"], _ELEMENTS, f"{ctx} elements")
    for network in _build(q["gates"], _GATES, f"{ctx} gates", reg.n_qubits):
        elements += network
    return reg, elements


def run_jones(params, seed):
    reg, elements = _parse_jones(params)
    reg = jones.apply_network(reg, elements)
    rows = [list(r) for r in jones.register_csv_rows(reg)]
    return {"columns": ["mode", "polarization", "re", "im", "power"], "rows": rows}


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
    "beam_amplitude": (_number, rds.DEFAULT_BEAM_AMPLITUDE),
}


def _parse_rds(params):
    """Coupling parameters, domain grid, input fields and the parsed keys."""
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
            grid = rds.DomainGrid.load(q["grid_file"])
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


def run_rds(params, seed):
    p, grid, fields, q = parsed = _parse_rds(params)
    if q["gate"] is None:
        traj = rds.propagate(fields, grid, p, q["steps_per_domain"])
        columns = ["z", "re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3", "manley_rowe"]
        return {"columns": columns, "rows": [list(r) for r in traj.csv_rows(q["sample_stride"])]}
    cal, gates = _rds_gates(parsed)
    if q["gate"] == "not":
        columns, table, threshold = ["x", "y"], NOT_TABLE, cal.p_th2
    else:
        columns, table, threshold = ["x1", "x2", "y1", "y2"], CNOT_TABLE, cal.p_th3
    rows = [[*r.inputs, *r.observed, r.margin, threshold] for r in _gate_rows(gates[q["gate"].upper()], table)]
    return {"columns": columns + ["separation", "threshold"], "rows": rows}


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


def run_stats(params, seed):
    s, q = _parse_stats(params)
    if q["distribution"]:
        p = fock_distribution(s, q["cutoff"])
        return {"columns": ["n", "p"], "rows": [[int(n), float(x)] for n, x in enumerate(p)]}
    row = [s.alpha.real, s.alpha.imag, s.r, s.theta, *_moments(s)]
    return {"columns": ["alpha_re", "alpha_im", "r", "theta", *_MOMENTS], "rows": [row]}


_RUNNERS = {"spin": run_spin, "jones": run_jones, "rds": run_rds, "stats": run_stats}


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
    """The gate run on each truth-table row, in input order."""
    return [TruthTableRow(inputs, table[inputs], *gate(inputs)) for inputs in sorted(table)]


def _spin_gates():
    """Gates of the default spin config, the margin their fidelity."""
    q = _parse_spin({})
    return {name: _column_gate(*_spin_fidelity(q, name.lower())) for name in ("NOT", "CNOT")}


def _jones_gates():
    networks = {"NOT": jones.not_network(2, 1), "CNOT": jones.cnot_network(2, 0, 1)}
    return {name: _column_gate(jones.gate_matrix(2, network)) for name, network in networks.items()}


def _rds_gates(parsed):
    """Calibration of a parsed rds config and its threshold gates, the margin their level separation."""
    p, grid, _, q = parsed
    cal = rds.calibrate_thresholds(grid, p, q["beam_amplitude"], q["steps_per_domain"])

    def gate(separation):
        return lambda inputs: (rds.calibrated_gate(inputs, cal), min(separation, MARGIN_CAP))

    return cal, {"NOT": gate(cal.separation_sh), "CNOT": gate(cal.separation_th)}


_GATE_BUILDERS = {"spin": _spin_gates, "jones": _jones_gates, "rds": lambda: _rds_gates(_parse_rds({}))[1]}


def verify_truth_tables(backends=("spin", "jones", "rds")):
    """One NOT and one CNOT report per backend, all against the same tables."""
    for b in backends:
        if b not in _GATE_BUILDERS:
            raise ConfigError(f'unknown truth-table backend "{b}"')
    reports = []
    tables = (("NOT", NOT_TABLE), ("CNOT", CNOT_TABLE))
    for b in backends:
        try:
            gates = _GATE_BUILDERS[b]()
            reports.extend([TruthTableReport(name, b, _gate_rows(gates[name], table)) for name, table in tables])
        except Exception as exc:  # isolate failures per backend
            reports.append(TruthTableReport("NOT+CNOT", b, rows=[], error=str(exc)))
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


def _rds_sweep(parsed):
    """One kernel call for every row (see rds.propagate_many)."""
    cases = [(fields, grid, p) for p, grid, fields, _ in parsed]
    final, drift = rds.propagate_many(cases, parsed[0][3]["steps_per_domain"])
    rows = []
    for (fields, _, _), (p1, p2, p3), d in zip(cases, (np.abs(final) ** 2).T.tolist(), drift.tolist()):
        p1_in = abs(fields.a1) ** 2
        rows.append([p1, p2, p3, p2 / p1_in if p1_in > 0 else 0.0, d])
    return ["p1_out", "p2_out", "p3_out", "efficiency_sh", "manley_drift"], rows


def _stats_sweep(parsed):
    return _MOMENTS, [_moments(s) for s, _ in parsed]


def _spin_sweep(parsed):
    """Fidelity of the configured gate, CNOT by default, against its permutation."""
    return ["fidelity"], [[_spin_fidelity(q, q["gate"] or "cnot")[1]] for q in parsed]


# backend -> (row parser, sweep parameters, evaluator of the parsed rows: (columns, rows))
_SWEEPS = {
    "rds": (_parse_rds, ("length", "dk_a", "kappa_a", "beam_amplitude"), _rds_sweep),
    "stats": (_parse_stats, ("r", "theta", "alpha_re", "alpha_im"), _stats_sweep),
    "spin": (_parse_spin, ("j12",), _spin_sweep),
}


def run_sweep(cfg):
    sweep = cfg["sweep"]
    if sweep is None:
        raise ConfigError("sweep command requires a sweep section in the config")
    backend, name = cfg["backend"], sweep["parameter"]
    if backend not in _SWEEPS:
        raise ConfigError(f'backend "{backend}" has no sweepable parameters')
    parse, names, evaluate = _SWEEPS[backend]
    if name not in names:
        raise ConfigError(f'unknown sweep parameter "{name}" for backend {backend}')
    if not math.isfinite(sweep["stop"] - sweep["start"]):
        raise ConfigError("sweep stop - start must be a finite number")
    values = [float(v) for v in np.linspace(sweep["start"], sweep["stop"], sweep["count"])]
    parsed = [parse(_swept(cfg["parameters"], name, value)) for value in values]
    columns, rows = evaluate(parsed)
    return {"columns": ["value", *columns], "rows": [[value, *row] for value, row in zip(values, rows)]}


# ---------------------------------------------------------------- commands


def cmd_run(args):
    """Write the output of one config: a run, or its sweep for the sweep command."""
    cfg = load_config(args.config)
    if args.command == "sweep":
        payload = run_sweep(cfg)
    elif cfg["sweep"] is not None:
        raise ConfigError("config contains a sweep section; use the sweep command")
    else:
        seed = cfg["seed"] if args.seed is None else args.seed
        payload = _RUNNERS[cfg["backend"]](cfg["parameters"], seed)
    output = cfg["output"] or _parse({}, _OUTPUT, "output")
    write_payload(payload, output["path"] if args.out is None else args.out, output["format"])
    return EXIT_OK


def cmd_truthtable(args):
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    if not backends:
        raise ConfigError("no backends requested")
    reports = verify_truth_tables(backends)
    for rep in reports:
        if rep.error is not None:
            print(f"[{rep.backend}] {rep.gate}: ERROR {rep.error}", file=sys.stderr)
            continue
        for row in rep.rows:
            bits_in = "".join(map(str, row.inputs))
            print(
                f"[{rep.backend}] {rep.gate}: in={bits_in} "
                f"expected={''.join(map(str, row.expected))} "
                f"observed={''.join(map(str, row.observed))} "
                f"margin={row.margin:.12g}"
            )
        print(f"[{rep.backend}] {rep.gate}: {'PASS' if rep.passed else 'FAIL'}")
    if args.out:
        _write_text(json.dumps([r.to_dict() for r in reports], indent=2) + "\n", args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PHYSICS


def cmd_version(args):
    print(__version__)
    return EXIT_OK


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
    p_tt.add_argument("--backends", default="spin,jones,rds")
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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (rds.CalibrationError, rds.DivergenceError, CutoffError, spin.GateCompilationError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
