import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oqcsim
from oqcsim import cli, rds

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


def test_truthtable_command_passes(capsys):
    assert cli.main(["truthtable", "--backends", "spin,jones"]) == 0
    out = capsys.readouterr().out
    assert "[spin] CNOT: PASS" in out
    assert "[jones] NOT: PASS" in out


def test_truthtable_unknown_backend():
    assert cli.main(["truthtable", "--backends", "spin,bogus"]) == 2


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
        ("sweep", {
            "backend": "rds",
            "parameters": {"kappa_a": 1e200},
            "sweep": {"parameter": "beam_amplitude", "start": 0.02, "stop": 0.3, "count": 5},
        }),
        ("run", {"backend": "rds", "parameters": {"kappa_a": 1e200, "gate": "not"}}),
        ("run", {"backend": "rds", "parameters": {"beam_amplitude": 1e200, "gate": "cnot"}}),
        # the bright levels are so small that their 1e-30 dark floors underflow to 0
        ("run", {"backend": "rds", "parameters": {"gate": "not", "beam_amplitude": 1e-75}}),
        ("run", {"backend": "rds", "parameters": {"gate": "cnot", "beam_amplitude": 1e-80}}),
    ],
    ids=[
        "run-kappa-a",
        "run-a1",
        "sweep-beam-amplitude",
        "gate-kappa-a",
        "gate-beam-amplitude",
        "gate-not-levels-underflow",
        "gate-cnot-levels-underflow",
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
    assert kernel_widths == [3]


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


def test_rds_truth_table_is_one_kernel_call(capsys, kernel_widths):
    assert cli.main(["truthtable", "--backends", "rds"]) == 0
    assert kernel_widths == [3]


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
