"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line once its assertions hold
(visible with pytest -s or in captured output on failure).
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from oqcsim import cli, jones, rds, spin
from oqcsim.squeezed import (
    SqueezedStateParams,
    closed_form_stats,
    distribution_moments,
    fock_distribution,
)
from oqcsim.truthtable import cnot_permutation, not_permutation, permutation_matrix


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_truth_table_conformance(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["truthtable", "--backends", "spin,jones,rds", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 6
    for rep in reports:
        assert rep["pass"], rep
        n_rows = 2 if rep["gate"] == "NOT" else 4
        assert len(rep["rows"]) == n_rows
        for row in rep["rows"]:
            assert row["observed"] == row["expected"]
            if rep["backend"] == "spin":
                assert row["margin"] >= 1 - 1e-9
            if rep["backend"] == "rds":
                assert row["margin"] >= 2.0
            if rep["backend"] == "rds" and rep["gate"] == "NOT":
                assert row["margin"] >= 100.0
    with capsys.disabled():
        report(1, "truth tables pass on all backends; spin fidelity >= 1-1e-9, "
                  "rds SH separation >= 100")


def test_criterion_2_norm_and_power_preservation(capsys):
    rng = np.random.default_rng(12345)
    for _ in range(500):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = spin.SpinState(amps / np.linalg.norm(amps))
        j12 = rng.normal()
        for _ in range(rng.integers(1, 6)):
            if rng.random() < 0.5:
                seg = spin.HardRotation(
                    int(rng.integers(2)), rng.uniform(0, 2 * math.pi), 3 * rng.normal()
                )
            else:
                seg = spin.FreeCouplingEvolution(abs(rng.normal()))
            state = spin.apply_sequence(state, [seg], j12)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
    for _ in range(500):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        reg = jones.encode_state(amps / np.linalg.norm(amps))
        for _ in range(rng.integers(1, 6)):
            choice = rng.integers(3)
            if choice == 0:
                e = jones.Waveplate(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
            elif choice == 1:
                e = jones.Rotator(rng.uniform(0, 2 * math.pi))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                e = jones.PBSSwap(int(a), int(b))
            reg = jones.apply_network(reg, [e])
        assert abs(np.sum(np.abs(reg.amplitudes) ** 2) - 1.0) < 1e-10
    with capsys.disabled():
        report(2, "1000 randomized spin/jones sequences preserve norm within 1e-10")


def test_criterion_3_manley_rowe(capsys):
    p = rds.default_params()
    grid = rds.default_grid(p)
    traj = rds.propagate(rds.FieldTriple(0.2, 0.0, 0.0), grid, p)
    n = traj.manley_rowe()
    drift = np.max(np.abs(n - n[0])) / n[0]
    assert drift < 1e-8

    # convergence exponent measured where truncation dominates roundoff
    ps = rds.CoupledModeParams(1.0, 1.0, math.pi / 0.5, math.pi / 0.5)
    gs = rds.make_periodic_grid(2.0, 0.5)

    def mr_drift(steps_per_domain):
        t = rds.propagate(rds.FieldTriple(1.2, 0.0, 0.0), gs, ps, steps_per_domain)
        m = t.manley_rowe()
        return np.max(np.abs(m - m[0])) / m[0]

    exponent = math.log2(mr_drift(8) / mr_drift(16))
    assert 3.5 <= exponent <= 4.5
    with capsys.disabled():
        report(3, f"Manley-Rowe drift {drift:.2e} < 1e-8; "
                  f"step-halving exponent {exponent:.2f} in [3.5, 4.5]")


def test_criterion_4_undepleted_pump_oracle(capsys):
    kappa_a, a1 = 1.0, 1.0
    pairs = [
        (dk, length)
        for dk in (0.0, 10.0, 40.0, 100.0, 400.0)
        for length in (0.005, 0.01, 0.03, 0.05)
    ]
    assert len(pairs) == 20
    for dk, length in pairs:
        assert kappa_a * abs(a1) * length <= 0.05
        p = rds.CoupledModeParams(kappa_a, 0.0, dk, 0.0)
        grid = rds.DomainGrid(np.array([length]), np.array([1.0]))
        # resolve both the envelope (200 steps) and the mismatch oscillation (40 per period)
        steps = max(200, math.ceil(40 * dk * length / (2 * math.pi)))
        final = rds.propagate(rds.FieldTriple(a1, 0.0, 0.0), grid, p, steps).final
        x = dk * length / 2
        expected = (kappa_a / 2) ** 2 * abs(a1) ** 4 * length**2 * np.sinc(x / np.pi) ** 2
        assert abs(abs(final.a2) ** 2 - expected) <= 0.01 * expected + 1e-30
    with capsys.disabled():
        report(4, "simulated SHG matches the sinc^2 closed form within 1% on 20 (dk, L) pairs")


def test_criterion_5_qpm_effectiveness(capsys):
    p = rds.CoupledModeParams(1.0, 0.0, 2 * math.pi * 1e3, 0.0)
    ratio = rds.qpm_enhancement_check(p, 100)
    assert abs(ratio - 2 / math.pi) / (2 / math.pi) < 0.05
    unpoled = rds.qpm_enhancement_check(p, 100, poled=False)
    assert unpoled < 0.01
    with capsys.disabled():
        report(5, f"QPM coupling ratio {ratio:.4f} within 5% of 2/pi; "
                  f"unpoled ratio {unpoled:.1e} shows no growth")


def test_criterion_6_gate_compilation(capsys):
    j12 = 0.1
    cnot_u = spin.sequence_unitary(spin.compile_cnot(0, 1, j12), 2, j12)
    ideal = permutation_matrix(cnot_permutation(2, 0, 1))
    fid = spin.gate_fidelity(ideal, cnot_u)
    assert fid >= 1 - 1e-9
    not_u = spin.sequence_unitary(spin.compile_not(1), 2, j12)
    fid_inv = spin.gate_fidelity(np.eye(4), not_u @ not_u)
    assert fid_inv >= 1 - 1e-9
    with capsys.disabled():
        report(6, f"compiled CNOT fidelity {fid:.12f}; NOT^2 identity fidelity {fid_inv:.12f}")


def test_criterion_7_photon_statistics_oracle(capsys):
    mags = np.linspace(0.0, 3.0, 5)
    rs = np.linspace(0.0, 1.5, 5)
    thetas = np.linspace(0.0, 2 * math.pi, 4, endpoint=False)
    for mag, r, theta in itertools.product(mags, rs, thetas):
        s = SqueezedStateParams(complex(mag), float(r), float(theta))
        st = closed_form_stats(s)
        mean, var = distribution_moments(fock_distribution(s))
        assert abs(mean - st.mean_n) < 1e-8
        assert abs(var - st.var_n) < 1e-8
    q_sub = closed_form_stats(SqueezedStateParams(3.0, 0.5, 0.0)).mandel_q
    q_vac = closed_form_stats(SqueezedStateParams(0.0, 1.0, 0.0)).mandel_q
    assert q_sub < 0.0 < q_vac
    with capsys.disabled():
        report(7, "closed form matches Fock oracle to 1e-8 on the 5x5x4 grid; "
                  f"Q={q_sub:.3f} (amplitude-squeezed) and Q={q_vac:.3f} (squeezed vacuum)")


def test_criterion_8_encoding_round_trip(capsys):
    rng = np.random.default_rng(888)
    for _ in range(100):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = jones.decode_state(jones.encode_state(amps))
        assert np.max(np.abs(out - amps)) < 1e-12
    a, b = 1 / math.sqrt(3), math.sqrt(2 / 3)
    ghz = np.zeros(8, dtype=complex)
    ghz[0], ghz[7] = a, b
    reg = jones.encode_state(ghz)
    assert reg.amplitudes[0, jones.H] == a
    assert reg.amplitudes[3, jones.V] == b
    occupied = np.abs(reg.amplitudes) > 0
    assert occupied.sum() == 2
    with capsys.disabled():
        report(8, "encode/decode identity to 1e-12 on 100 random 3-qubit states; "
                  "a|000>+b|111> occupies exactly (mode 0, H) and (mode 3, V)")


def test_criterion_9_determinism(capsys, tmp_path):
    configs = {
        "spin": {
            "backend": "spin",
            "parameters": {"gate": "cnot", "initial": "10", "shots": 5000},
            "seed": 7,
        },
        "rds": {
            "backend": "rds",
            "parameters": {"n_domains": 10, "steps_per_domain": 8},
            "seed": 7,
        },
        "stats": {
            "backend": "stats",
            "parameters": {"alpha": [1.0, 0.5], "r": 0.8, "theta": 0.3},
            "seed": 7,
        },
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}_{attempt}.csv"
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
    with capsys.disabled():
        report(9, "repeated runs with fixed seed produce byte-identical outputs")
