import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from oqcsim import spin
from oqcsim.truthtable import (
    cnot_permutation,
    not_permutation,
    permutation_matrix,
)


def random_state(rng, n=2):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return spin.SpinState(amps / np.linalg.norm(amps))


def reference_sequence_unitary(segments, n, j12):
    """The np.kron composition that sequence_unitary replaced.

    Each segment becomes a full 2**n x 2**n matrix and multiplies the
    product so far; kept as the reference the batched kernel is tested against.
    """
    u = np.eye(2**n, dtype=complex)
    for seg in segments:
        if isinstance(seg, spin.HardRotation):
            step = np.eye(1, dtype=complex)
            for k in range(n):
                rot = spin._rotation_matrix(seg.axis_angle, seg.rotation_angle)
                step = np.kron(step, rot if k == seg.spin else np.eye(2))
        else:
            step = np.diag(np.exp(-1j * j12 * np.array([1.0, -1.0, -1.0, 1.0]) * seg.duration))
        u = step @ u
    return u


def test_evolve_matches_expm_oracle():
    rng = np.random.default_rng(42)
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    for _ in range(100):
        j12, t = rng.normal(), abs(rng.normal())
        expected = expm(-1j * j12 * zz * t)
        u = spin.sequence_unitary([spin.FreeCouplingEvolution(t)], 2, j12)
        assert np.max(np.abs(u - expected)) < 1e-10


def test_hard_rotation_x_pi_is_sigma_x_up_to_phase():
    seg = spin.HardRotation(1, 0.0, math.pi)
    out = spin.apply_sequence(spin.SpinState.basis("00"), [seg], 0.0)
    assert abs(out.amplitudes[1] - (-1j)) < 1e-12


def test_hard_rotation_unitary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        seg = spin.HardRotation(0, rng.uniform(0, 2 * math.pi), rng.normal() * 4)
        u = spin._rotation_matrix(seg.axis_angle, seg.rotation_angle)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def uncached_rotation(axis_angle, rotation_angle):
    """The hard-rotation formula, built anew on every call."""
    axis = math.cos(axis_angle) * spin.SIGMA_X + math.sin(axis_angle) * spin.SIGMA_Y
    half = 0.5 * rotation_angle
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * axis


def test_cached_rotation_is_bitwise_the_formula():
    rng = np.random.default_rng(19)
    angles = [0.0, -0.0, math.pi, -math.pi / 2, math.pi / 2, 0, 2] + list(rng.normal(size=6) * 4)
    for axis_angle, rotation_angle in itertools.product(angles, repeat=2):
        want = uncached_rotation(axis_angle, rotation_angle).tobytes()
        # twice: the second call is served from the cache
        for _ in range(2):
            assert spin._rotation_matrix(axis_angle, rotation_angle).tobytes() == want


def test_cached_rotation_is_read_only_and_matrix_is_a_copy():
    assert not spin._rotation_matrix(0.3, 1.1).flags.writeable
    # the unitary of one rotation has the cached matrix's values in an array of its own
    m = spin.sequence_unitary([spin.HardRotation(0, 0.3, 1.1)], 1, 0.0)
    assert np.array_equal(m, spin._rotation_matrix(0.3, 1.1))
    m[:] = 0.0
    assert spin._rotation_matrix(0.3, 1.1).tobytes() == uncached_rotation(0.3, 1.1).tobytes()


def test_compile_cnot_returns_a_fresh_list_of_cached_segments():
    first = spin.compile_cnot(0, 1, 0.3)
    want = list(first)
    first[0] = spin.HardRotation(1, 1.0, 1.0)
    first.append(spin.FreeCouplingEvolution(2.0))
    del first[5:9]
    assert spin.compile_cnot(0, 1, 0.3) == want
    # the rotations are the same objects from call to call, only the delay is new
    again = spin.compile_cnot(0, 1, 0.7)
    assert all(a is b for a, b in zip(again, want) if isinstance(a, spin.HardRotation))
    assert isinstance(spin._hadamard_segments(1), tuple) and isinstance(spin._rz_segments(0, math.pi), tuple)


def test_batched_unitaries_are_bitwise_each_sequence_alone():
    rng = np.random.default_rng(27)
    for _ in range(20):
        rotations = [
            spin.HardRotation(int(rng.integers(2)), rng.uniform(0, 2 * math.pi), rng.normal() * 3)
            for _ in range(rng.integers(1, 8))
        ]
        slots = sorted(rng.choice(len(rotations) + 1, size=rng.integers(1, 3), replace=False))
        count = int(rng.integers(1, 60))
        couplings = list(rng.normal(size=count))
        sequences = []
        for _ in range(count):
            segs = list(rotations)
            for k in reversed(slots):
                segs.insert(k, spin.FreeCouplingEvolution(abs(rng.normal())))
            sequences.append(segs)
        batch = spin.sequence_unitaries(sequences, 2, couplings)
        assert batch.shape == (count, 4, 4)
        for segs, j12, u in zip(sequences, couplings, batch):
            assert u.tobytes() == spin.sequence_unitary(segs, 2, j12).tobytes()


@pytest.mark.parametrize(
    "second",
    [
        [spin.HardRotation(0, 0.0, 1.0), spin.FreeCouplingEvolution(1.0)],
        [spin.FreeCouplingEvolution(1.0), spin.FreeCouplingEvolution(1.0)],
        [spin.HardRotation(1, 0.0, 1.0), spin.HardRotation(1, 0.0, 1.0)],
        [spin.HardRotation(1, 0.0, 1.0)],
    ],
    ids=["other-rotation", "coupling-for-rotation", "rotation-for-coupling", "shorter"],
)
def test_batch_rejects_sequences_without_shared_rotations(second):
    first = [spin.HardRotation(1, 0.0, 1.0), spin.FreeCouplingEvolution(0.5)]
    with pytest.raises(ValueError):
        spin.sequence_unitaries([first, second], 2, [0.1, 0.2])


def test_batch_needs_one_coupling_per_sequence():
    segs = spin.compile_cnot(0, 1, 0.1)
    for couplings in ([0.1], [0.1, 0.1, 0.1]):
        with pytest.raises(ValueError, match="2 sequences need as many couplings"):
            spin.sequence_unitaries([segs, segs], 2, couplings)


def test_free_evolution_zero_is_identity():
    state = spin.SpinState(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
    out = spin.apply_sequence(state, [spin.FreeCouplingEvolution(0.0)], 0.4)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_free_evolution_matches_expm_oracle():
    j12 = 0.8
    tau = math.pi / (4 * j12)
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    oracle = expm(-1j * j12 * zz * tau)
    for i in range(4):
        amps = np.zeros(4, dtype=complex)
        amps[i] = 1.0
        out = spin.apply_sequence(spin.SpinState(amps), [spin.FreeCouplingEvolution(tau)], j12)
        assert np.max(np.abs(out.amplitudes - oracle @ amps)) < 1e-12


def test_spin_state_rejects_nan():
    with pytest.raises(ValueError):
        spin.SpinState(np.array([math.nan, 0.0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: spin.HardRotation(0, 0.0, math.inf),
        lambda: spin.sequence_unitary([spin.HardRotation(0, math.nan, 1.0)], 2, 0.1),
        lambda: spin.sequence_unitary([spin.FreeCouplingEvolution(1.0)], 2, math.nan),
    ],
    ids=["rotation-angle", "axis-angle", "j12"],
)
def test_nonfinite_pulse_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_sequence_leaves_input_state_unchanged():
    state = random_state(np.random.default_rng(43))
    before = state.amplitudes.tobytes()
    spin.apply_sequence(state, spin.compile_cnot(0, 1, 0.3), 0.3)
    assert state.amplitudes.tobytes() == before
    # the last segment is invalid, after the others have acted
    with pytest.raises(ValueError):
        spin.apply_sequence(state, spin.compile_cnot(0, 1, 0.3) + [spin.HardRotation(2, 0.0, 1.0)], 0.3)
    assert state.amplitudes.tobytes() == before


@pytest.mark.parametrize("j12", [0.1, -0.37, 3.0])
def test_compiled_gates_match_kron_reference(j12):
    for segs in (spin.compile_not(0), spin.compile_not(1), spin.compile_cnot(0, 1, j12), spin.compile_cnot(1, 0, j12)):
        reference = reference_sequence_unitary(segs, 2, j12)
        assert np.max(np.abs(spin.sequence_unitary(segs, 2, j12) - reference)) <= 1e-14
        for k, bits in enumerate(("00", "01", "10", "11")):
            out = spin.apply_sequence(spin.SpinState.basis(bits), segs, j12)
            assert np.max(np.abs(out.amplitudes - reference[:, k])) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_sequences_match_kron_reference(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(30):
        j12 = rng.normal()
        segs = []
        for _ in range(rng.integers(1, 10)):
            if n == 2 and rng.random() < 0.3:
                segs.append(spin.FreeCouplingEvolution(abs(rng.normal())))
            else:
                segs.append(spin.HardRotation(int(rng.integers(n)), rng.uniform(0, 2 * math.pi), rng.normal() * 3))
        reference = reference_sequence_unitary(segs, n, j12)
        assert np.max(np.abs(spin.sequence_unitary(segs, n, j12) - reference)) <= 1e-14


def test_free_evolution_negative_duration_rejected():
    with pytest.raises(ValueError):
        spin.FreeCouplingEvolution(-0.1)


def test_hard_rotation_spin_out_of_range():
    with pytest.raises(ValueError):
        spin.apply_sequence(spin.SpinState.basis("00"), [spin.HardRotation(2, 0.0, 1.0)], 0.0)


def test_compile_not_truth_table():
    segs = spin.compile_not(1)
    for x, y in ((0, 1), (1, 0)):
        out = spin.apply_sequence(spin.SpinState.basis(f"0{x}"), segs, j12=0.1)
        assert out.probabilities()[y] >= 1 - 1e-9


def test_compile_not_fidelity_and_involution():
    segs = spin.compile_not(1)
    u = spin.sequence_unitary(segs, 2, 0.1)
    ideal = permutation_matrix(not_permutation(2, 1))
    assert spin.gate_fidelity(ideal, u) >= 1 - 1e-9
    assert spin.gate_fidelity(np.eye(4), u @ u) >= 1 - 1e-9


@pytest.mark.parametrize("j12", [0.1, -0.25, 3.0])
def test_compile_cnot_truth_table_and_fidelity(j12):
    segs = spin.compile_cnot(0, 1, j12)
    u = spin.sequence_unitary(segs, 2, j12)
    ideal = permutation_matrix(cnot_permutation(2, 0, 1))
    assert spin.gate_fidelity(ideal, u) >= 1 - 1e-9
    assert spin.gate_fidelity(np.eye(4), u @ u) >= 1 - 1e-9
    table = {"00": "00", "01": "01", "10": "11", "11": "10"}
    for bits_in, bits_out in table.items():
        out = spin.apply_sequence(spin.SpinState.basis(bits_in), segs, j12)
        assert out.probabilities()[int(bits_out, 2)] >= 1 - 1e-9


def test_compile_cnot_reversed_orientation():
    segs = spin.compile_cnot(1, 0, 0.1)
    u = spin.sequence_unitary(segs, 2, 0.1)
    ideal = permutation_matrix(cnot_permutation(2, 1, 0))
    assert spin.gate_fidelity(ideal, u) >= 1 - 1e-9


def test_compile_cnot_requires_coupling():
    with pytest.raises(spin.GateCompilationError):
        spin.compile_cnot(0, 1, 0.0)


@pytest.mark.parametrize("j12", [1e308, -1.7e308])
def test_compile_cnot_with_the_largest_couplings(j12):
    # 4 |j12| overflows a float, yet the delay pi/(4|j12|) does not
    u = spin.sequence_unitary(spin.compile_cnot(0, 1, j12), 2, j12)
    ideal = permutation_matrix(cnot_permutation(2, 0, 1))
    assert spin.gate_fidelity(ideal, u) >= 1 - 1e-9


@pytest.mark.parametrize("j12", [5e-324, -1e-310])
def test_compile_cnot_rejects_an_infinite_delay(j12):
    # below |j12| of about 4.4e-309 the delay pi/(4|j12|) overflows
    with pytest.raises(spin.GateCompilationError, match="overflows"):
        spin.compile_cnot(0, 1, j12)


def test_gate_fidelity_examples():
    u = spin.sequence_unitary(spin.compile_cnot(0, 1, 0.1), 2, 0.1)
    assert spin.gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert spin.gate_fidelity(u, np.exp(1j * math.pi / 3) * u) == pytest.approx(1.0, abs=1e-12)
    cnot = permutation_matrix(cnot_permutation(2, 0, 1))
    # direct-trace oracle: |Tr(CNOT)| = 2, so fidelity vs identity is 0.5
    assert abs(np.trace(cnot)) == pytest.approx(2.0, abs=1e-14)
    assert spin.gate_fidelity(np.eye(4), cnot) == pytest.approx(0.5, abs=1e-14)


def test_gate_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        spin.gate_fidelity(np.eye(2), np.eye(4))


def test_measure_deterministic_outcome():
    counts = spin.measure(spin.SpinState.basis("01"), seed=3, shots=1000)
    assert counts == {"01": 1000}


def test_measure_binomial_within_5_sigma():
    bell = spin.SpinState(np.array([1, 0, 0, 1]) / math.sqrt(2))
    shots = 100_000
    counts = spin.measure(bell, seed=7, shots=shots)
    sigma = math.sqrt(shots * 0.25)
    for key in ("00", "11"):
        assert abs(counts[key] - shots / 2) < 5 * sigma
    assert sum(counts.values()) == shots


def test_measure_seed_reproducible():
    bell = spin.SpinState(np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert spin.measure(bell, 11, 500) == spin.measure(bell, 11, 500)


def test_measure_rejects_zero_shots():
    with pytest.raises(ValueError):
        spin.measure(spin.SpinState.basis("00"), seed=0, shots=0)


def test_norm_preserved_under_random_sequences():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        state = random_state(rng)
        j12 = rng.normal()
        for _ in range(rng.integers(1, 8)):
            if rng.random() < 0.5:
                seg = spin.HardRotation(int(rng.integers(2)), rng.uniform(0, 2 * math.pi), rng.normal() * 3)
            else:
                seg = spin.FreeCouplingEvolution(abs(rng.normal()))
            state = spin.apply_sequence(state, [seg], j12)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_state_validation():
    with pytest.raises(ValueError):
        spin.SpinState(np.array([1.0, 0.0, 0.0]))  # not 2**n
    with pytest.raises(ValueError):
        spin.SpinState(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError, match="not normalized"):
        spin.SpinState(np.array([1e200, 0.0]))  # a norm beyond float range, without numpy's warning

