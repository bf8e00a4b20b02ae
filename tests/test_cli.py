import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oqcsim
from oqcsim import cli, jones, rds, spin, squeezed

RDS_FAST = {
    "n_domains": 10,
    "steps_per_domain": 8,
    "sample_stride": 20,
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


def test_run_rds_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    cfg = write_config(
        tmp_path,
        "rds.json",
        {"backend": "rds", "parameters": dict(RDS_FAST), "output": {"path": str(out)}},
    )
    assert cli.main(["run", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z,re_a1,im_a1,re_a2,im_a2,re_a3,im_a3,manley_rowe"
    assert len(lines) > 2


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "bad.json", {"backend": "rds", "parameters": {"kapa": 1.0}}
    )
    assert cli.main(["run", "--config", cfg]) == 2
    assert '"kapa"' in capsys.readouterr().err


def test_unknown_top_level_key(tmp_path):
    cfg = write_config(
        tmp_path, "bad.json", {"backend": "rds", "parameters": {}, "seeed": 1}
    )
    assert cli.main(["run", "--config", cfg]) == 2


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_calibration_failure_exit_code(tmp_path, capsys):
    params = dict(RDS_FAST)
    params.update({"kappa_a": 0.0, "gate": "cnot"})
    cfg = write_config(tmp_path, "cal.json", {"backend": "rds", "parameters": params})
    assert cli.main(["run", "--config", cfg]) == 1
    assert "not separable" in capsys.readouterr().err


def test_rds_gate_mode_outputs_truth_table(tmp_path):
    out = tmp_path / "not.csv"
    params = dict(RDS_FAST)
    params["gate"] = "not"
    cfg = write_config(
        tmp_path,
        "not.json",
        {"backend": "rds", "parameters": params, "output": {"path": str(out)}},
    )
    assert cli.main(["run", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,y")
    assert lines[1].split(",")[:2] == ["0", "1"]
    assert lines[2].split(",")[:2] == ["1", "0"]


def test_run_spin_with_measurement(tmp_path):
    out = tmp_path / "spin.csv"
    for shots in (100, cli.MAX_SHOTS):
        cfg = write_config(
            tmp_path,
            "spin.json",
            {
                "backend": "spin",
                "parameters": {"gate": "cnot", "initial": "10", "shots": shots},
                "seed": 5,
                "output": {"path": str(out)},
            },
        )
        assert cli.main(["run", "--config", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "basis,re,im,probability,counts"
        row11 = lines[4].split(",")
        assert row11[0] == "11"
        assert float(row11[3]) == pytest.approx(1.0, abs=1e-9)
        assert row11[4] == str(shots)


def test_run_jones_with_elements(tmp_path):
    out = tmp_path / "jones.csv"
    cfg = write_config(
        tmp_path,
        "jones.json",
        {
            "backend": "jones",
            "parameters": {
                "basis": "10",
                "elements": [{"type": "waveplate", "delta": 0.0, "theta": 0.0}],
                "gates": [{"type": "cnot", "control": 0, "target": 1}],
            },
            "output": {"path": str(out)},
        },
    )
    assert cli.main(["run", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,polarization,re,im,power"
    # |10> -> |11> = (mode 1, V)
    row = dict()
    for line in lines[1:]:
        cells = line.split(",")
        row[(cells[0], cells[1])] = float(cells[4])
    assert row[("1", "V")] == pytest.approx(1.0, abs=1e-12)


def test_stats_distribution_below_its_tail_is_physics_error(tmp_path, capsys):
    params = {"r": 0.75, "cutoff": 3, "distribution": True}
    cfg = write_config(tmp_path, "cutoff.json", {"backend": "stats", "parameters": params})
    assert cli.main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("physics error:"), captured.err


def test_run_stats_row(tmp_path):
    out = tmp_path / "stats.json"
    cfg = write_config(
        tmp_path,
        "stats.json",
        {
            "backend": "stats",
            "parameters": {"alpha": [2.0, 0.0], "r": 0.0},
            "output": {"path": str(out), "format": "json"},
        },
    )
    assert cli.main(["run", "--config", cfg]) == 0
    payload = json.loads(out.read_text())
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert row["mean_n"] == pytest.approx(4.0)
    assert row["mandel_q"] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_vacuum_keeps_nan_q_and_g2(tmp_path, capsys, fmt):
    # alpha 0 and r 0: Q and g2(0) are 0/0, written null in JSON and nan in CSV
    cfg = write_config(tmp_path, "vacuum.json", {"backend": "stats", "parameters": {}, "output": {"format": fmt}})
    assert cli.main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["mean_n"] == 0.0 and row["mandel_q"] is None and row["g2_zero"] is None
    else:
        header, line = out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert row["mean_n"] == "0" and row["mandel_q"] == "nan" and row["g2_zero"] == "nan"


def test_deterministic_outputs_byte_identical(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = write_config(
            tmp_path,
            f"cfg_{name}.json",
            {
                "backend": "spin",
                "parameters": {"gate": "cnot", "initial": "10", "shots": 1000},
                "seed": 42,
                "output": {"path": str(out)},
            },
        )
        assert cli.main(["run", "--config", cfg]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def csv_reference(payload):
    """CSV text value by value: floats as .17g and anything else as str."""

    def value(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    return "".join(",".join(map(value, row)) + "\n" for row in [payload["columns"], *payload["rows"]])


def json_reference(payload):
    """JSON document value by value: a non-finite float is null."""
    rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in payload["rows"]]
    return json.dumps({"columns": payload["columns"], "rows": rows}, indent=2) + "\n"


REFERENCES = {"csv": csv_reference, "json": json_reference}


def written(payload, fmt, dest, tmp_path, capsys):
    """The bytes write_payload writes, to a file or to stdout."""
    capsys.readouterr()
    out = tmp_path / "out.txt" if dest == "file" else None
    cli.write_payload(payload, None if out is None else str(out), fmt)
    stdout = capsys.readouterr().out
    if out is None:
        return stdout.encode()
    assert stdout == ""
    return out.read_bytes()


def column_table(**columns):
    """A payload of numpy columns, and the same table as a list of rows of Python values."""
    rows = [list(row) for row in zip(*(a.tolist() for a in columns.values()))]
    names = list(columns)
    return {"columns": names, "rows": cli.ArrayRows(*columns.values())}, {"columns": names, "rows": rows}


def test_csv_payload_is_byte_identical_to_value_by_value(tmp_path, capsys):
    nan, inf = math.nan, math.inf
    payload, reference = column_table(
        a=np.array([0.1 + 0.2, nan, -inf, 1.7976931348623157e308]),
        b=np.array([1e22, inf, -0.0, 5e-324]),
        # shots up to 2**63 - 1, which %.17g would round
        c=np.array([1, 2**63 - 1, -(2**63), 123456789012345678], dtype=np.int64),
        d=np.array([True, False, True, False]),
        e=np.array(["not", "%s%%", None, "x"], dtype=object),
    )
    assert written(payload, "csv", "stdout", tmp_path, capsys) == csv_reference(reference).encode()


K = cli.CHUNK_ROWS
ROW_COUNTS = [0, 1, K - 1, K, K + 1, 2 * K + 1]
FLOATS = [0.1 + 0.2, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, np.float64(0.1), np.float64(math.nan)]
INTS = [1, 2**63 - 1, -(2**63), 7, 123456789012345678]
OBJECTS = ["x", "%s%%", None, "not"]


@pytest.mark.parametrize("dest", ["file", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_written_rows_are_byte_identical_to_value_by_value(tmp_path, capsys, n, fmt, dest):
    # a float, an int64, a bool and an object column, each cycling through its values
    def cycle(values, dtype):
        return np.array([values[i % len(values)] for i in range(n)], dtype=dtype)

    payload, reference = column_table(
        a=cycle(FLOATS, float), b=cycle(INTS, np.int64), c=cycle([True, False], bool), d=cycle(OBJECTS, object)
    )
    assert written(payload, fmt, dest, tmp_path, capsys) == REFERENCES[fmt](reference).encode()


@pytest.mark.parametrize("dest", ["file", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_written_array_rows_are_byte_identical_to_value_by_value(tmp_path, capsys, n, fmt, dest):
    floats = np.array([float(FLOATS[i % len(FLOATS)]) for i in range(n)])
    ints = np.arange(n, dtype=np.int64) * (2**62 // max(n, 1)) - 2**62
    columns = ["n", "p", "k"]
    rows = [[int(i), float(x), int(k)] for i, x, k in zip(range(n), floats, ints)]
    reference = REFERENCES[fmt]({"columns": columns, "rows": rows})
    payload = {"columns": columns, "rows": cli.ArrayRows(np.arange(n), floats, ints)}
    assert written(payload, fmt, dest, tmp_path, capsys) == reference.encode()


# Row-by-row references: each runner's table built one row at a time from
# the library calls, as (column names, rows) of its parameters and seed.


def jones_rows(params, seed):
    reg, elements = cli._parse_jones(params)
    reg = jones.apply_network(reg, elements)
    rows = []
    for m in range(reg.n_modes):
        for p, label in ((jones.H, "H"), (jones.V, "V")):
            a = reg.amplitudes[m, p]
            rows.append([m, label, a.real, a.imag, abs(a) ** 2])
    return ["mode", "polarization", "re", "im", "power"], rows


def spin_rows(params, seed):
    state = spin.SpinState.basis(params["initial"])
    gate = params.get("gate")
    if gate == "not":
        state = spin.apply_sequence(state, spin.compile_not(params["target"]), params["j12"])
    elif gate == "cnot":
        state = spin.apply_sequence(state, spin.compile_cnot(params["control"], params["target"], params["j12"]), params["j12"])
    rows = [[format(i, "02b"), a.real, a.imag, abs(a) ** 2] for i, a in enumerate(state.amplitudes)]
    if params.get("shots", 0) == 0:
        return ["basis", "re", "im", "probability"], rows
    counts = spin.measure(state, seed, params["shots"])
    return ["basis", "re", "im", "probability", "counts"], [row + [counts.get(row[0], 0)] for row in rows]


def rds_gate_rows(params, seed):
    p, grid, _, q = cli._parse_rds(params)
    cal = rds.calibrate_thresholds(grid, p, q["beam_amplitude"], q["steps_per_domain"])
    if q["gate"] == "not":
        names, table, separation, threshold = ["x", "y"], cli.NOT_TABLE, cal.separation_sh, cal.p_th2
    else:
        names, table, separation, threshold = ["x1", "x2", "y1", "y2"], cli.CNOT_TABLE, cal.separation_th, cal.p_th3
    rows = [[*x, *rds.calibrated_gate(x, cal), separation, threshold] for x in sorted(table)]
    return names + ["separation", "threshold"], rows


def trajectory_rows(params, seed):
    """Every sample_stride-th sample and the last: z, the parts of a1, a2 and a3, and the Manley-Rowe flux."""
    p, grid, fields, q = cli._parse_rds(params)
    traj = rds.propagate(fields, grid, p, q["steps_per_domain"])
    n = traj.manley_rowe()
    idx = list(range(0, len(traj.z), q["sample_stride"]))
    if idx[-1] != len(traj.z) - 1:
        idx.append(len(traj.z) - 1)
    rows = []
    for i in idx:
        a1, a2, a3 = traj.fields[i]
        rows.append([traj.z[i], a1.real, a1.imag, a2.real, a2.imag, a3.real, a3.imag, n[i]])
    return ["z", "re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3", "manley_rowe"], rows


def stats_rows(params, seed):
    s, q = cli._parse_stats(params)
    if q["distribution"]:
        return ["n", "p"], [[n, p] for n, p in enumerate(squeezed.fock_distribution(s, q["cutoff"]).tolist())]
    st = squeezed.closed_form_stats(s)
    row = [s.alpha.real, s.alpha.imag, s.r, s.theta, st.mean_n, st.var_n, st.mandel_q, st.g2_zero]
    return ["alpha_re", "alpha_im", "r", "theta", "mean_n", "var_n", "mandel_q", "g2_zero"], [row]


_amplitudes = np.random.default_rng(5).normal(size=(64, 2))  # [re, im] pairs
RANDOM_INPUT = (_amplitudes / np.linalg.norm(_amplitudes)).tolist()
SPIN_CNOT = {"gate": "cnot", "control": 0, "target": 1, "j12": -0.37, "initial": "10"}
RUNS = {
    "jones-basis-1": (jones_rows, {"basis": "1"}),
    "jones-gates-3": (jones_rows, {"basis": "101", "gates": [{"type": "cnot", "control": 0, "target": 2}]}),
    "jones-elements-6": (
        jones_rows,
        {"basis": "110010", "elements": [{"type": "waveplate", "delta": 0.7, "theta": 0.3}, {"type": "rotator", "angle": 0.2}]},
    ),
    "jones-input-3": (jones_rows, {"input": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8]] + [[0.0, 0.0]] * 5}),
    # 64 random amplitudes: numpy's vectorised abs differs from the scalar one in the last bit of some
    "jones-input-6": (jones_rows, {"input": RANDOM_INPUT, "gates": [{"type": "not", "qubit": 2}]}),
    "spin-basis": (spin_rows, {"initial": "01"}),
    "spin-not-shots": (spin_rows, {"gate": "not", "target": 0, "j12": 0.1, "initial": "11", "shots": 1000}),
    "spin-cnot-max-shots": (spin_rows, dict(SPIN_CNOT, shots=cli.MAX_SHOTS)),
    "rds-not": (rds_gate_rows, {"gate": "not"}),
    "rds-cnot": (rds_gate_rows, {"gate": "cnot"}),
    "rds-not-faint-beam": (rds_gate_rows, {"gate": "not", "beam_amplitude": 1e-40}),
    **{
        f"trajectory-stride-{stride}": (trajectory_rows, {"a1": [0.2, 0.0], "kappa_b": 1.0, "sample_stride": stride})
        for stride in (1, 7, 40, 10**6)
    },
    "stats-vacuum": (stats_rows, {}),
    "stats-row": (stats_rows, {"alpha": [1.3, -0.4], "r": 0.6, "theta": 0.9}),
    "stats-distribution": (stats_rows, {"alpha": [2.0, 0.5], "r": 0.3, "cutoff": 400, "distribution": True}),
}


@pytest.mark.parametrize("case", RUNS)
def test_run_output_is_byte_identical_to_row_by_row(tmp_path, case):
    reference, params = RUNS[case]
    columns, rows = reference(params, 11)
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        cfg = {"backend": case.split("-")[0].replace("trajectory", "rds"), "parameters": params, "seed": 11}
        cfg["output"] = {"path": str(out), "format": fmt}
        assert cli.main(["run", "--config", write_config(tmp_path, "run.json", cfg)]) == 0
        assert out.read_bytes() == REFERENCES[fmt]({"columns": columns, "rows": rows}).encode(), fmt


def test_distribution_run_memory_is_set_by_the_distribution(tmp_path):
    # the writer holds one chunk of rows: a run peaks about where fock_distribution does
    params = {"alpha": [30.0, 0.0], "r": 0.5, "cutoff": 10**5}
    cfg = write_config(
        tmp_path, "dist.json", {"backend": "stats", "parameters": dict(params, distribution=True)}
    )
    state = squeezed.SqueezedStateParams(complex(*params["alpha"]), params["r"])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        squeezed.fock_distribution(state, params["cutoff"])
        fock_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 0
        run_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "p.csv").read_text().splitlines()) == params["cutoff"] + 2
    assert run_peak < 1.2 * fock_peak, (run_peak, fock_peak)


def test_truthtable_command_passes(capsys):
    assert cli.main(["truthtable", "--backends", "spin,jones"]) == 0
    out = capsys.readouterr().out
    assert "[spin] CNOT: PASS" in out
    assert "[jones] NOT: PASS" in out


def test_truthtable_unknown_backend():
    assert cli.main(["truthtable", "--backends", "spin,bogus"]) == 2


def test_truthtable_defaults_to_every_backend_with_gates(capsys):
    assert cli.main(["truthtable"]) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if line.endswith(": PASS")]
    assert verdicts == [f"[{b}] {gate}: PASS" for b in ("spin", "jones", "rds") for gate in ("NOT", "CNOT")]


@pytest.mark.parametrize(
    "argv,cfg,line",
    [
        (
            ["sweep"],
            {"backend": "jones", "parameters": {}, "sweep": {"parameter": "theta", "start": 0, "stop": 1, "count": 3}},
            'backend "jones" has no sweepable parameters',
        ),
        (
            ["sweep"],
            {"backend": "rds", "parameters": {}, "sweep": {"parameter": "bogus", "start": 0, "stop": 1, "count": 3}},
            'unknown sweep parameter "bogus" for backend rds',
        ),
        (["run"], {"backend": "bogus"}, 'key "backend" in config must be one of "spin", "jones", "rds", "stats"'),
        (["sweep"], {"backend": "stats"}, "sweep command requires a sweep section in the config"),
        (
            ["run"],
            {"backend": "stats", "sweep": {"parameter": "r", "start": 0, "stop": 1, "count": 3}},
            "config contains a sweep section; use the sweep command",
        ),
        (["truthtable", "--backends", "stats"], None, 'unknown truth-table backend "stats"'),
        (["truthtable", "--backends", "spin,bogus"], None, 'unknown truth-table backend "bogus"'),
        (["truthtable", "--backends", " , "], None, "no backends requested"),
    ],
    ids=[
        "jones-not-sweepable",
        "unknown-sweep-parameter",
        "unknown-backend",
        "sweep-without-section",
        "run-with-sweep-section",
        "truthtable-backend-without-gates",
        "truthtable-unknown-backend",
        "truthtable-no-backends",
    ],
)
def test_dispatch_errors_are_exact_config_error_lines(tmp_path, capsys, argv, cfg, line):
    if cfg is not None:
        argv = argv + ["--config", write_config(tmp_path, "dispatch.json", cfg)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


@pytest.mark.parametrize("params", [{"shots": 10}, {}], ids=["shots", "no-shots"])
def test_negative_seed_override_is_config_error(tmp_path, capsys, params):
    cfg = write_config(tmp_path, "spin.json", {"backend": "spin", "parameters": params})
    assert cli.main(["run", "--config", cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "config error: --seed must be an integer >= 0\n")


def test_sweep_length_monotone_efficiency(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "backend": "rds",
            "parameters": {"dk_a": 0.0, "dk_b": 0.0, "kappa_b": 0.0, "a1": [0.05, 0.0]},
            "sweep": {"parameter": "length", "start": 0.01, "stop": 0.2, "count": 10},
            "output": {"path": str(out)},
        },
    )
    assert cli.main(["sweep", "--config", cfg]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    eff = [float(r[4]) for r in rows]
    assert all(b > a for a, b in zip(eff, eff[1:]))


def test_sweep_dk_peaks_at_phase_matching(tmp_path):
    out = tmp_path / "dk.csv"
    cfg = write_config(
        tmp_path,
        "dk.json",
        {
            "backend": "rds",
            "parameters": {"kappa_b": 0.0, "length": 0.05, "a1": [0.1, 0.0],
                           "steps_per_domain": 512},
            "sweep": {"parameter": "dk_a", "start": -400.0, "stop": 400.0, "count": 9},
            "output": {"path": str(out)},
        },
    )
    assert cli.main(["sweep", "--config", cfg]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    values = [float(r[0]) for r in rows]
    eff = [float(r[4]) for r in rows]
    assert values[int(np.argmax(eff))] == pytest.approx(0.0, abs=1e-12)


def test_sweep_count_one_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        "c1.json",
        {
            "backend": "rds",
            "parameters": {},
            "sweep": {"parameter": "length", "start": 0.1, "stop": 0.2, "count": 1},
        },
    )
    assert cli.main(["sweep", "--config", cfg]) == 2


def test_sweep_unknown_parameter(tmp_path):
    cfg = write_config(
        tmp_path,
        "unk.json",
        {
            "backend": "rds",
            "parameters": {},
            "sweep": {"parameter": "bogus", "start": 0.1, "stop": 0.2, "count": 3},
        },
    )
    assert cli.main(["sweep", "--config", cfg]) == 2


def test_jones_has_no_sweepable_parameters(tmp_path):
    cfg = write_config(
        tmp_path,
        "js.json",
        {
            "backend": "jones",
            "parameters": {"basis": "0"},
            "sweep": {"parameter": "theta", "start": 0.0, "stop": 1.0, "count": 3},
        },
    )
    assert cli.main(["sweep", "--config", cfg]) == 2


def test_run_rejects_sweep_section(tmp_path):
    cfg = write_config(
        tmp_path,
        "rs.json",
        {
            "backend": "stats",
            "parameters": {},
            "sweep": {"parameter": "r", "start": 0.0, "stop": 1.0, "count": 3},
        },
    )
    assert cli.main(["run", "--config", cfg]) == 2


def test_sweep_stats_r(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sr.json",
        {
            "backend": "stats",
            "parameters": {"alpha": [2.0, 0.0]},
            "sweep": {"parameter": "r", "start": 0.0, "stop": 1.0, "count": 5},
        },
    )
    assert cli.main(["sweep", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,mean_n,var_n,mandel_q,g2_zero"
    assert len(lines) == 6


def test_version_command(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip() == oqcsim.__version__


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == oqcsim.__version__


SPIN_SWEEP = {"parameter": "j12", "start": 0.1, "stop": 1.0, "count": 3}
# the third of five values is dk_a = 0, for which the default QPM grid is undefined
DK_THROUGH_ZERO = {"parameter": "dk_a", "start": -3000.0, "stop": 3000.0, "count": 5}
# stop - start overflows a float, though start and stop are finite
OVERFLOWING_RANGE = {"start": -1e308, "stop": 1e308, "count": 2}


@pytest.mark.parametrize(
    "command,cfg,out",
    [
        ("sweep", {"backend": "spin", "parameters": {"bogus": 1}, "sweep": SPIN_SWEEP}, None),
        ("sweep", {"backend": "spin", "parameters": {"gate": "frob"}, "sweep": SPIN_SWEEP}, None),
        ("run", {"backend": "spin", "parameters": {"b0": 1.0, "gate": "cnot"}}, None),
        ("sweep", {"backend": "spin", "parameters": {}, "sweep": dict(SPIN_SWEEP, parameter="b0")}, None),
        ("sweep", {"backend": "spin", "parameters": {"gate": "not", "target": 5}, "sweep": SPIN_SWEEP}, None),
        (
            "sweep",
            {
                "backend": "stats",
                "parameters": {"alpha": 5},
                "sweep": {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "count": 3},
            },
            None,
        ),
        ("run", {"backend": "jones", "parameters": {"basis": "10", "elements": [
            {"type": "waveplate", "delta": 1.0, "modes": ["x"]}]}}, None),
        ("run", {"backend": "jones", "parameters": {"basis": "10", "elements": [
            {"type": "rotator", "angle": 1.0, "modes": 5}]}}, None),
        ("run", {"backend": "jones", "parameters": {"basis": "10", "elements": [
            {"type": "waveplate", "delta": 1.0, "modes": [1, 1]}]}}, None),
        ("run", {"backend": "rds", "parameters": dict(RDS_FAST, a1=[float("nan"), 0.0])}, None),
        ("run", {"backend": "rds", "parameters": dict(RDS_FAST, a1=[True, 0.0])}, None),
        ("run", {"backend": "jones", "parameters": {"input": [[float("nan"), 0.0], [0.0, 0.0]]}}, None),
        # a norm beyond float range is not normalized, without numpy's overflow warning
        ("run", {"backend": "jones", "parameters": {"input": [[1e200, 0.0], [0.0, 0.0]]}}, None),
        ("run", {"backend": "rds", "parameters": dict(RDS_FAST, grid_file=["g.txt"])}, None),
        ("run", {"backend": "stats", "parameters": {"r": 10**400}}, None),
        ("run", {"backend": "stats", "parameters": {}, "output": {"path": ["x.csv"]}}, None),
        ("run", {"backend": "stats", "parameters": {}}, "missing/x.csv"),
        (
            "sweep",
            {
                "backend": "rds",
                "parameters": {"grid_file": "grid.txt", "steps_per_domain": 8},
                "sweep": {"parameter": "length", "start": 0.001, "stop": 0.01, "count": 3},
            },
            None,
        ),
        ("run", {"backend": "rds", "parameters": {
            "grid_file": "grid.txt", "length": 0.5, "n_domains": 7, "steps_per_domain": 8}}, None),
        ("run", {"backend": "rds", "parameters": {"grid_file": "inf-grid.txt"}}, None),
        ("sweep", {"backend": "rds", "parameters": {}, "sweep": DK_THROUGH_ZERO}, None),
        ("run", {"backend": "rds", "parameters": {"length": 0.0035, "n_domains": 7}}, None),
        ("run", {"backend": "rds", "parameters": {"n_domains": None}}, None),
        ("run", {"backend": "stats", "parameters": {"alpha": [1e160, 0], "r": 0.3}}, None),
        ("run", {"backend": "stats", "parameters": {"alpha": [1e160, 0], "distribution": True}}, None),
        ("run", {"backend": "stats", "parameters": {"r": 200}}, None),
        ("run", {"backend": "stats", "parameters": {"r": 400}}, None),
        ("run", {"backend": "stats", "parameters": {"r": 800}}, None),
        ("run", {"backend": "stats", "parameters": {"r": 1e-160}}, None),
        ("run", {"backend": "stats", "parameters": {"r": 1e-170}}, None),
        ("run", {"backend": "stats", "parameters": {"alpha": [1e-170, 0]}}, None),
        ("run", {"backend": "spin", "parameters": {"shots": 10**29}}, None),
        ("run", {"backend": "spin", "parameters": {"shots": 2**63}}, None),
        (
            "sweep",
            {
                "backend": "stats",
                "parameters": {},
                "sweep": {"parameter": "r", "start": 0.0, "stop": 1e300, "count": 5},
            },
            None,
        ),
        *[
            ("sweep", {"backend": backend, "parameters": {}, "sweep": dict(OVERFLOWING_RANGE, parameter=name)}, None)
            for backend, name in (("rds", "kappa_a"), ("stats", "r"), ("spin", "j12"))
        ],
        ("run", {"backend": "stats", "parameters": {"cutoff": cli.MAX_CUTOFF + 1}}, None),
        ("run", {"backend": "rds", "parameters": {"gate": "not", "beam_amplitude": 0.0}}, None),
        ("run", {"backend": "jones", "parameters": {"basis": "10", "elements": [
            {"type": "waveplate", "delta": 1.0, "modes": [99]}]}}, None),
        ("run", {"backend": "jones", "parameters": {"basis": "10", "elements": [
            {"type": "pbs_swap", "mode_a": 1, "mode_b": 1}]}}, None),
        ("run", {"backend": "jones", "parameters": {"basis": "10", "gates": [{"type": "not", "qubit": 5}]}}, None),
        ("run", {"backend": "jones", "parameters": {"basis": "1" * 70}}, None),
        ("run", {"backend": "spin", "parameters": {"gate": "cnot", "control": 1, "target": 1}}, None),
        ("run", {"backend": "rds", "parameters": {"domain_length": 1e308}}, None),
        ("run", {"backend": "rds", "parameters": {"length": 1.0, "domain_length": 5e-324}}, None),
    ],
    ids=[
        "spin-sweep-unknown-key",
        "spin-sweep-unknown-gate",
        "spin-b0",
        "spin-sweep-b0",
        "spin-sweep-target-out-of-range",
        "stats-sweep-alpha-not-pair",
        "jones-modes-not-ints",
        "jones-modes-not-list",
        "jones-modes-repeated",
        "rds-a1-nan",
        "rds-a1-bool",
        "jones-input-nan",
        "jones-input-norm-overflows",
        "rds-grid-file-not-string",
        "stats-r-beyond-float-range",
        "output-path-not-string",
        "out-dir-missing",
        "rds-sweep-length-with-grid-file",
        "rds-grid-file-with-length",
        "grid-file-inf-length",
        "rds-sweep-dk-a-through-zero-on-qpm-grid",
        "rds-n-domains-with-length",
        "rds-n-domains-null",
        "stats-alpha-moments-overflow",
        "stats-alpha-distribution-moments-overflow",
        "stats-r-200-variance-overflow",
        "stats-r-400-moments-overflow",
        "stats-r-800-moments-overflow",
        "stats-g2-overflow",
        "stats-r-mean-underflow",
        "stats-alpha-mean-underflow",
        "spin-shots-1e29",
        "spin-shots-2-to-63",
        "stats-sweep-r-to-1e300",
        "sweep-range-overflows-rds",
        "sweep-range-overflows-stats",
        "sweep-range-overflows-spin",
        "stats-cutoff-above-cap",
        "rds-gate-beam-amplitude-zero",
        "jones-mode-out-of-range",
        "jones-pbs-swap-same-mode",
        "jones-not-qubit-out-of-range",
        "jones-basis-70-bits",
        "spin-cnot-control-equals-target",
        "rds-domain-count-overflows",
        "rds-domain-count-overflows-subnormal-domain",
    ],
)
def test_malformed_config_is_one_line_config_error(tmp_path, monkeypatch, capsys, command, cfg, out):
    # a valid 3-domain grid, so a config that names it fails only on its own keys
    (tmp_path / "grid.txt").write_text("5e-4 1\n5e-4 -1\n5e-4 1\n")
    (tmp_path / "inf-grid.txt").write_text("5e-4 1\ninf -1\n")
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", write_config(tmp_path, "bad.json", cfg)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), captured.err


def test_runner_value_error_is_a_bug_not_a_config_error(tmp_path, monkeypatch):
    def broken(parsed, seed):
        raise ValueError("a library bug")

    parse, _, *rest = cli.BACKENDS["stats"]
    monkeypatch.setitem(cli.BACKENDS, "stats", (parse, broken, *rest))
    cfg = write_config(tmp_path, "stats.json", {"backend": "stats"})
    with pytest.raises(ValueError, match="a library bug"):
        cli.main(["run", "--config", cfg])


def test_one_parser_serves_consecutive_calls(tmp_path, monkeypatch, capsys):
    # the parser is built once per process: no call may leave a value for the next
    seeds = []

    def recording(parsed, seed):
        seeds.append(seed)
        return run(parsed, seed)

    parse, run, *rest = cli.BACKENDS["stats"]
    monkeypatch.setitem(cli.BACKENDS, "stats", (parse, recording, *rest))
    cfg = write_config(tmp_path, "stats.json", {"backend": "stats", "seed": 7})
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["run", "--config", cfg, "--seed", "5"]) == 0
    assert cli.main(["run", "--config", cfg]) == 0
    assert seeds == [5, 7]
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus", "--config", cfg])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["run", "--config", cfg]) == 0
    assert seeds == [5, 7, 7]
    out = capsys.readouterr().out
    assert out.startswith("alpha_re,") and out.count("\n") == 2


def test_gate_builder_type_error_is_a_bug_not_a_failed_gate(monkeypatch):
    def broken():
        raise TypeError("a library bug")

    monkeypatch.setitem(cli._GATE_BACKENDS, "jones", broken)
    with pytest.raises(TypeError, match="a library bug"):
        cli.verify_truth_tables(("spin", "jones"))


def test_stats_cutoff_cap_still_parses(tmp_path, capsys):
    # distribution false: the cutoff is read but no recurrence runs
    assert cli._parse_stats({"cutoff": cli.MAX_CUTOFF})[1]["cutoff"] == 10**6
    cfg = write_config(tmp_path, "cap.json", {"backend": "stats", "parameters": {"cutoff": cli.MAX_CUTOFF}})
    assert cli.main(["run", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "params",
    [
        {"length": None, "n_domains": 5},
        {"grid_file": "grid.txt", "length": None},
        {"grid_file": "grid.txt", "domain_length": None},
    ],
    ids=["length-null-with-n-domains", "grid-file-with-length-null", "grid-file-with-domain-length-null"],
)
def test_null_optional_rds_key_counts_as_absent(tmp_path, monkeypatch, capsys, params):
    (tmp_path / "grid.txt").write_text("5e-4 1\n5e-4 -1\n5e-4 1\n")
    monkeypatch.chdir(tmp_path)
    outputs = []
    for given in (params, {k: v for k, v in params.items() if v is not None}):
        cfg = write_config(tmp_path, "null.json", {"backend": "rds", "parameters": dict(given, steps_per_domain=8)})
        assert cli.main(["run", "--config", cfg]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("run", {"backend": "rds", "parameters": {"kappa_a": 1e200}}),
        ("run", {"backend": "rds", "parameters": {"a1": [1e200, 0.0]}}),
        # a1 is finite, but |a1|^2 is not
        ("run", {"backend": "rds", "parameters": {"a1": [1e155, 0.0]}}),
        ("sweep", {
            "backend": "rds",
            "parameters": {"kappa_a": 1e200},
            "sweep": {"parameter": "beam_amplitude", "start": 0.02, "stop": 0.3, "count": 5},
        }),
        ("run", {"backend": "rds", "parameters": {"kappa_a": 1e200, "gate": "not"}}),
        ("run", {"backend": "rds", "parameters": {"beam_amplitude": 1e200, "gate": "cnot"}}),
        # the bright level a gate reads underflows its threshold to 0: SH for NOT, TH for CNOT
        ("run", {"backend": "rds", "parameters": {"gate": "not", "beam_amplitude": 1e-80}}),
        ("run", {"backend": "rds", "parameters": {"gate": "cnot", "beam_amplitude": 1e-80}}),
        # without SFG the TH level is 0 at any beam
        ("run", {"backend": "rds", "parameters": {"gate": "cnot", "kappa_b": 0.0}}),
    ],
    ids=[
        "run-kappa-a",
        "run-a1",
        "run-a1-square-overflows",
        "sweep-beam-amplitude",
        "gate-kappa-a",
        "gate-beam-amplitude",
        "gate-not-levels-underflow",
        "gate-cnot-levels-underflow",
        "gate-cnot-without-sfg",
    ],
)
def test_diverging_rds_integration_is_one_line_physics_error(tmp_path, capsys, recwarn, command, cfg):
    argv = [command, "--config", write_config(tmp_path, "diverge.json", cfg)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("physics error:"), captured.err
    assert len(recwarn) == 0


# below |j12| of about 4.4e-309 the CNOT delay pi/(4|j12|) overflows to inf
@pytest.mark.parametrize(
    "command,cfg",
    [
        ("run", {"backend": "spin", "parameters": {"gate": "cnot", "j12": 0.0}}),
        ("run", {"backend": "spin", "parameters": {"gate": "cnot", "j12": 1e-320}}),
        ("run", {"backend": "spin", "parameters": {"gate": "cnot", "j12": -1e-310}}),
        ("sweep", {
            "backend": "spin",
            "parameters": {},
            "sweep": {"parameter": "j12", "start": 5e-324, "stop": 1e-300, "count": 3},
        }),
    ],
    ids=["run-j12-zero", "run-j12-subnormal", "run-j12-negative-tiny", "sweep-j12-from-subnormal"],
)
def test_uncompilable_spin_cnot_is_one_line_physics_error(tmp_path, capsys, command, cfg):
    argv = [command, "--config", write_config(tmp_path, "spin.json", cfg)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("physics error: CNOT is uncompilable"), captured.err


def test_truthtable_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["truthtable", "--backends", "jones", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")


def run_module_with_warnings_as_errors(*args):
    root = Path(__file__).parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "oqcsim.cli", *args],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_entry_point_runs_without_warnings():
    result = run_module_with_warnings_as_errors("version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == oqcsim.__version__
    assert result.stderr == ""


def test_overflowing_distribution_is_one_line_physics_error_without_warnings(tmp_path):
    # the amplitudes overflow float range; numpy must not warn before the tail check fails
    params = {"alpha": [1e150, 0], "distribution": True}
    cfg = write_config(tmp_path, "overflow.json", {"backend": "stats", "parameters": params})
    result = run_module_with_warnings_as_errors("run", "--config", cfg)
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("physics error:"), result.stderr


@pytest.fixture
def kernel_widths(monkeypatch):
    """Batch width of every call of the rds RK4 kernel."""
    widths = []
    kernel = rds.rk4

    def counted(fields, *args, **kwargs):
        widths.append(np.shape(fields)[1])
        return kernel(fields, *args, **kwargs)

    monkeypatch.setattr(rds, "rk4", counted)
    return widths


@pytest.mark.parametrize("gate", ["not", "cnot"])
def test_rds_gate_run_is_one_kernel_call(tmp_path, capsys, kernel_widths, gate):
    cfg = write_config(tmp_path, "gate.json", {"backend": "rds", "parameters": {"gate": gate}})
    assert cli.main(["run", "--config", cfg]) == 0
    assert kernel_widths == [1]


# amplitudes whose thresholds are nonzero, so the gates reproduce their tables
@pytest.mark.parametrize("amplitude", [rds.DEFAULT_BEAM_AMPLITUDE, 1e-20])
@pytest.mark.parametrize("gate", ["not", "cnot"])
def test_rds_gate_columns_are_read_from_the_bright_levels(tmp_path, capsys, gate, amplitude):
    cfg = {"backend": "rds", "parameters": {"gate": gate, "beam_amplitude": amplitude}}
    assert cli.main(["run", "--config", write_config(tmp_path, "gate.json", cfg)]) == 0
    p = rds.default_params()
    final = rds.propagate_many([(rds.FieldTriple(2 * amplitude, 0.0, 0.0), rds.default_grid(p), p)])[0]
    bright = float(abs(final[1 if gate == "not" else 2, 0]) ** 2)
    threshold = bright * 1e-15
    expected = [(bright / threshold) ** 2, threshold]
    assert expected[1] > 0.0
    table = cli.NOT_TABLE if gate == "not" else cli.CNOT_TABLE
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert {tuple(map(int, row[:-2])) for row in rows} == {x + y for x, y in table.items()}
    for row in rows:
        assert [float(x) for x in row[-2:]] == expected


@pytest.mark.parametrize(
    "params",
    [{"kappa_b": 0.0}, {"beam_amplitude": 1e-51}],
    ids=["pure-shg-crystal", "th-level-underflows"],
)
def test_rds_not_reads_only_its_own_channel(tmp_path, capsys, kernel_widths, params):
    # the TH threshold is 0 here, but a NOT reads the SH channel alone
    cfg = {"backend": "rds", "parameters": dict(params, gate="not")}
    assert cli.main(["run", "--config", write_config(tmp_path, "not.json", cfg)]) == 0
    captured = capsys.readouterr()
    rows = [row.split(",") for row in captured.out.splitlines()[1:]]
    assert {(int(x), int(y)) for x, y, _, _ in rows} == {x + y for x, y in cli.NOT_TABLE.items()}
    assert all(float(separation) >= 2.0 and float(threshold) > 0.0 for _, _, separation, threshold in rows)
    assert captured.err == "" and kernel_widths == [1]


def test_rds_grid_file_gate_run_reads_the_file_once(tmp_path, monkeypatch, capsys):
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text("".join(f"5e-4 {(-1) ** i:+d}\n" for i in range(10)))
    loads = []
    load = rds.DomainGrid.load

    def counted(cls, path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(rds.DomainGrid, "load", classmethod(counted))
    params = {"grid_file": str(grid_file), "gate": "cnot", "steps_per_domain": 8}
    cfg = write_config(tmp_path, "gate.json", {"backend": "rds", "parameters": params})
    assert cli.main(["run", "--config", cfg]) == 0
    assert loads == [str(grid_file)]


def test_rds_grid_file_sweep_reads_the_file_once_per_sweep(tmp_path, monkeypatch, capsys):
    # three alternating domains of 2**-11 m, the grid of the inline keys below
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text("0.00048828125 1\n0.00048828125 -1\n0.00048828125 1\n")
    inline = {"length": 3 * 2.0**-11, "domain_length": 2.0**-11, "steps_per_domain": 8}
    loads = []
    load = rds.DomainGrid.load

    def counted(cls, path):
        loads.append(path)
        return load(path)

    params = {"grid_file": str(grid_file), "steps_per_domain": 8}
    sweep = {"parameter": "kappa_a", "start": 0.0, "stop": 2.0, "count": 81}
    cfg = write_config(tmp_path, "sweep.json", {"backend": "rds", "parameters": params, "sweep": sweep})
    # each row builds its own grid
    cfg_inline = write_config(tmp_path, "inline.json", {"backend": "rds", "parameters": inline, "sweep": sweep})
    assert cli.main(["sweep", "--config", cfg_inline]) == 0
    per_row = capsys.readouterr().out

    monkeypatch.setattr(rds.DomainGrid, "load", classmethod(counted))
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert loads == [str(grid_file)]
    assert capsys.readouterr().out == per_row
    # the file may change between calls: the next sweep reads it again
    grid_file.write_text("5e-4 1\n")
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert loads == [str(grid_file)] * 2
    assert capsys.readouterr().out != per_row


def test_rds_truth_table_is_one_kernel_call(capsys, kernel_widths):
    assert cli.main(["truthtable", "--backends", "rds"]) == 0
    assert kernel_widths == [1]


@pytest.mark.parametrize(
    "parameter,params,start,stop",
    [
        ("beam_amplitude", {}, 0.02, 0.3),
        ("kappa_a", {"a1": [0.2, 0.0]}, 0.3, 2.5),
        ("dk_a", {"a1": [0.2, 0.0]}, 2 * np.pi * 500, 2 * np.pi * 3000),
        # periodic grids of 10 to 20 domains of 0.5 mm, padded to the longest
        ("length", {"domain_length": 5e-4}, 5e-3, 1e-2),
    ],
    ids=["beam_amplitude", "kappa_a", "dk_a", "length"],
)
def test_rds_sweep_is_one_kernel_call(tmp_path, capsys, kernel_widths, parameter, params, start, stop):
    sweep = {"parameter": parameter, "start": start, "stop": stop, "count": 81}
    cfg = write_config(tmp_path, "sweep.json", {"backend": "rds", "parameters": params, "sweep": sweep})
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert kernel_widths == [81]
    assert len(capsys.readouterr().out.splitlines()) == 82


@pytest.fixture
def spin_batches(monkeypatch):
    """Sequence count of every call of the spin propagation kernel."""
    batches = []
    kernel = spin._propagate

    def counted(psi, sequences, j12):
        batches.append(len(sequences))
        return kernel(psi, sequences, j12)

    monkeypatch.setattr(spin, "_propagate", counted)
    return batches


@pytest.mark.parametrize(
    "params,start,stop,count,batches",
    [
        ({"gate": "cnot"}, 0.05, 5.0, 41, [41]),
        ({"gate": "cnot", "control": 1, "target": 0}, -5.0, -0.05, 41, [41]),
        # crosses the sign of j12, never hitting 0: the z-rotations flip
        ({}, -1.0, 1.0, 40, [20, 20]),
        ({"gate": "not"}, -1.0, 1.0, 40, [40]),
    ],
    ids=["cnot-positive", "cnot-10-negative", "cnot-across-zero", "not"],
)
def test_spin_sweep_is_one_kernel_call_per_rotation_sequence(
    tmp_path, capsys, spin_batches, params, start, stop, count, batches
):
    sweep = {"parameter": "j12", "start": start, "stop": stop, "count": count}
    cfg = write_config(tmp_path, "sweep.json", {"backend": "spin", "parameters": params, "sweep": sweep})
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert spin_batches == batches
    assert len(capsys.readouterr().out.splitlines()) == count + 1


@pytest.mark.parametrize("count", [2, 41, 200])
@pytest.mark.parametrize(
    "params,start,stop",
    [
        ({"gate": "not", "target": 0}, -2.0, 3.0),
        ({"gate": "cnot"}, 0.01, 10.0),
        ({"gate": "cnot"}, -10.0, -0.01),
        ({"gate": "cnot", "control": 1, "target": 0}, 0.02, 7.0),
        ({"gate": "cnot", "control": 1, "target": 0}, -3.0, 2.9),
    ],
    ids=["not", "cnot-positive", "cnot-negative", "cnot-10-positive", "cnot-10-both-signs"],
)
def test_spin_sweep_rows_are_bitwise_the_per_row_fidelity(params, start, stop, count):
    values = [float(v) for v in np.linspace(start, stop, count)]
    parsed = [cli._parse_spin(dict(params, j12=v)) for v in values]
    _, rows = cli._spin_sweep(parsed)
    assert len(rows) == count
    for q, (fidelity,) in zip(parsed, rows):
        assert fidelity.hex() == cli._spin_fidelity(q, q["gate"])[1].hex()


def test_rds_sliver_domain_takes_steps_per_domain_steps(tmp_path, capsys):
    # 100 coherence lengths and a 1e-11 m sliver: 101 domains of 16 steps each
    cfg = write_config(tmp_path, "sliver.json", {
        "backend": "rds", "parameters": {"domain_length": "coherence", "length": 0.05000000001},
    })
    assert cli.main(["run", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1617


def test_rds_sweep_validates_every_row_before_integrating(tmp_path, capsys, kernel_widths):
    cfg = write_config(tmp_path, "dk.json", {"backend": "rds", "parameters": {}, "sweep": DK_THROUGH_ZERO})
    assert cli.main(["sweep", "--config", cfg]) == 2
    assert kernel_widths == []


def test_stats_sweep_validates_every_row_before_evaluating(tmp_path, monkeypatch, capsys):
    calls = []
    closed_form_stats = cli.closed_form_stats

    def counted(s):
        calls.append(s)
        return closed_form_stats(s)

    monkeypatch.setattr(cli, "closed_form_stats", counted)
    # rows 1 to 4 overflow the photon-number statistics
    sweep = {"parameter": "r", "start": 0.0, "stop": 1e300, "count": 5}
    cfg = write_config(tmp_path, "r.json", {"backend": "stats", "parameters": {}, "sweep": sweep})
    assert cli.main(["sweep", "--config", cfg]) == 2
    assert calls == []


@pytest.mark.parametrize(
    "base,sweep",
    [
        ({"r": 200}, {"parameter": "r", "start": 0.0, "stop": 1.0, "count": 5}),
        ({"alpha": [1e160, 0]}, {"parameter": "alpha_re", "start": 0.0, "stop": 1.0, "count": 5}),
    ],
    ids=["r", "alpha_re"],
)
def test_sweep_ignores_base_value_of_swept_key(tmp_path, capsys, base, sweep):
    outputs = []
    for params in (base, {}):
        cfg = write_config(tmp_path, "base.json", {"backend": "stats", "parameters": params, "sweep": sweep})
        assert cli.main(["sweep", "--config", cfg]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert len(outputs[0].out.splitlines()) == 6


def test_readme_spin_example_runs_as_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "cfg.json", {
        "backend": "spin",
        "parameters": {"gate": "cnot", "initial": "10", "shots": 1000},
        "seed": 42,
        "output": {"path": "out.csv", "format": "csv"},
    })
    assert cli.main(["run", "--config", cfg]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "basis,re,im,probability,counts"
    counts = {row.split(",")[0]: int(row.split(",")[-1]) for row in lines[1:]}
    assert counts == {"00": 0, "01": 0, "10": 0, "11": 1000}


def test_readme_sweep_example_runs_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "sweep.json", {
        "backend": "rds",
        "parameters": {"kappa_b": 0.0, "length": 0.05, "a1": [0.1, 0.0]},
        "sweep": {"parameter": "dk_a", "start": -400.0, "stop": 400.0, "count": 81},
    })
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 82
