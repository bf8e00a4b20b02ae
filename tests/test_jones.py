import itertools
import math
import re

import numpy as np
import pytest

from oqcsim import jones
from oqcsim.truthtable import cnot_permutation, not_permutation, permutation_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_register(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return jones.encode_state(amps / np.linalg.norm(amps))


def reference_gate_matrix(n, elements):
    """The column-by-column assembly that gate_matrix replaced.

    One basis state, one element and one spatial mode at a time, with no
    use of the batched kernel; kept as the reference it is tested against.
    """
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        amps = np.zeros((dim // 2, 2), dtype=complex)
        amps[k >> 1, k & 1] = 1.0
        for e in elements:
            if isinstance(e, jones.PBSSwap):
                a, b = e.mode_a, e.mode_b
                amps[a, jones.V], amps[b, jones.V] = amps[b, jones.V], amps[a, jones.V]
            else:
                for m in range(dim // 2) if e.modes is None else e.modes:
                    amps[m] = e.jones() @ amps[m]
        for j in range(dim):
            u[j, k] = amps[j >> 1, j & 1]
    return u


def sequential_gate_matrix(n, elements):
    """The element-by-element batched loop that the layer kernel replaced.

    Every element is one pass over the identity batch, in network order;
    kept as the bitwise reference of gate_matrix.
    """
    dim = 2**n
    amps = np.eye(dim, dtype=complex).reshape(dim // 2, 2, dim)
    for e in elements:
        if isinstance(e, jones.PBSSwap):
            amps[[e.mode_a, e.mode_b], jones.V] = amps[[e.mode_b, e.mode_a], jones.V]
        else:
            modes = list(range(dim // 2) if e.modes is None else e.modes)
            amps[modes] = e.jones() @ amps[modes]
    return amps.reshape(dim, dim)


def random_network(rng, n):
    """Waveplates, rotators and PBS swaps on all modes or on random mode subsets."""
    n_modes = 2 ** (n - 1)
    elements = []
    for _ in range(rng.integers(1, 12)):
        modes = None
        if rng.random() < 0.5:
            size = rng.integers(0, n_modes + 1)
            modes = tuple(int(m) for m in rng.choice(n_modes, size=size, replace=False))
        choice = rng.integers(3)
        if choice == 0:
            elements.append(jones.Waveplate(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), modes))
        elif choice == 1:
            elements.append(jones.Rotator(rng.uniform(0, 2 * math.pi), modes))
        elif n_modes > 1:
            a, b = rng.choice(n_modes, size=2, replace=False)
            elements.append(jones.PBSSwap(int(a), int(b)))
    return elements


def test_half_wave_plate_at_45_is_sigma_x():
    m = jones.waveplate_matrix(math.pi, math.pi / 4)
    assert np.max(np.abs(m - SX)) < 1e-12


def test_zero_retardance_is_identity():
    m = jones.waveplate_matrix(0.0, 1.234)
    assert np.max(np.abs(m - np.eye(2))) < 1e-12


def test_quarter_wave_plate_on_axis():
    m = jones.waveplate_matrix(math.pi / 2, 0.0)
    assert np.max(np.abs(m - np.diag([1.0, 1j]))) < 1e-12


def test_elements_unitary_and_su2():
    rng = np.random.default_rng(5)
    for _ in range(50):
        delta, theta = rng.uniform(0, 2 * math.pi, size=2)
        for m in (jones.waveplate_matrix(delta, theta), jones.rotation(theta)):
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def test_encode_ghz_slots():
    a, b = 0.6, 0.8
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = a, b
    reg = jones.encode_state(amps)
    assert reg.n_modes == 4  # 3 qubits need 4 spatial modes
    assert reg.amplitudes[0, jones.H] == a
    assert reg.amplitudes[3, jones.V] == b
    assert np.count_nonzero(reg.amplitudes) == 2


def test_encode_single_qubit():
    reg = jones.encode_state([1.0, 0.0])
    assert reg.n_modes == 1
    assert reg.amplitudes[0, jones.H] == 1.0


def test_encode_rejects_unnormalized():
    with pytest.raises(ValueError):
        jones.encode_state([1.0, 1.0])
    # a norm or power beyond float range is not normalized, and numpy does not warn
    for build in (
        lambda: jones.encode_state([1e200, 0.0]),
        lambda: jones.ModeRegister(np.array([[1e200, 0.0]])),
        lambda: jones.ModeRegister(np.array([[complex(1.7e308, 1.7e308), 0.0]])),
    ):
        with pytest.raises(ValueError, match="not normalized"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: jones.encode_state([math.nan, 0.0]),
        lambda: jones.ModeRegister(np.array([[math.nan, 0.0]])),
    ],
    ids=["encode_state", "ModeRegister"],
)
def test_nan_amplitudes_rejected(build):
    # a NaN norm fails every comparison, so the check must accept, not reject
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: jones.Waveplate(math.nan, 0.0),
        lambda: jones.Waveplate(0.0, math.inf),
        lambda: jones.Rotator(-math.inf, modes=(0,)),
        lambda: jones.gate_matrix(2, [jones.Waveplate(math.nan, 0.0)]),
    ],
    ids=["waveplate-delta", "waveplate-theta", "rotator", "gate_matrix"],
)
def test_nonfinite_element_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_pbs_swap_routes_v_only():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0  # (mode 0, V)
    reg = jones.apply_network(jones.encode_state(amps), [jones.PBSSwap(0, 1)])
    assert reg.amplitudes[1, jones.V] == 1.0
    assert reg.amplitudes[0, jones.V] == 0.0


def test_apply_element_conserves_power_and_leaves_other_modes():
    rng = np.random.default_rng(9)
    reg = random_register(rng, 3)
    out = jones.apply_network(reg, [jones.Waveplate(0.7, 0.3, modes=(1, 2))])
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - np.sum(np.abs(reg.amplitudes) ** 2)) < 1e-10
    assert np.array_equal(out.amplitudes[0], reg.amplitudes[0])
    assert np.array_equal(out.amplitudes[3], reg.amplitudes[3])


def test_global_half_wave_plate_flips_last_qubit():
    # brute force over all 8 basis states through the encode bijection
    hwp = jones.Waveplate(math.pi, math.pi / 4)
    for k in range(8):
        amps = np.zeros(8, dtype=complex)
        amps[k] = 1.0
        out = jones.decode_state(jones.apply_network(jones.encode_state(amps), [hwp]))
        assert abs(out[k ^ 1]) == pytest.approx(1.0, abs=1e-12)


def test_mode_index_out_of_range():
    reg = jones.encode_state([1.0, 0.0])
    with pytest.raises(ValueError):
        jones.apply_network(reg, [jones.Waveplate(1.0, 0.0, modes=(5,))])
    with pytest.raises(ValueError):
        jones.apply_network(reg, [jones.PBSSwap(0, 3)])


@pytest.mark.parametrize("element", [jones.Waveplate(1.0, 0.3, modes=(1, 1)), jones.Rotator(0.4, modes=(0, 1, 0))])
def test_repeated_mode_rejected(element):
    reg = random_register(np.random.default_rng(13), 2)
    with pytest.raises(ValueError):
        jones.apply_network(reg, [element])
    with pytest.raises(ValueError):
        jones.gate_matrix(2, [element])


def test_network_leaves_input_register_unchanged():
    reg = random_register(np.random.default_rng(41), 3)
    before = reg.amplitudes.tobytes()
    jones.apply_network(reg, jones.cnot_network(3, 0, 1) + [jones.Rotator(0.5)])
    assert reg.amplitudes.tobytes() == before
    # the last element is invalid, after the others have acted
    with pytest.raises(ValueError):
        jones.apply_network(reg, jones.not_network(3, 0) + [jones.Rotator(0.5), jones.PBSSwap(0, 4)])
    assert reg.amplitudes.tobytes() == before


@pytest.mark.parametrize("n", range(1, 7))
def test_gate_matrix_matches_column_reference_on_not_and_cnot(n):
    networks = [jones.not_network(n, q) for q in range(n)]
    networks += [jones.cnot_network(n, c, t) for c, t in itertools.permutations(range(n), 2)]
    for network in networks:
        assert np.max(np.abs(jones.gate_matrix(n, network) - reference_gate_matrix(n, network))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_column_reference_on_random_networks(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        network = random_network(rng, n)
        reference = reference_gate_matrix(n, network)
        assert np.max(np.abs(jones.gate_matrix(n, network) - reference)) <= 1e-14
        reg = random_register(rng, n)
        out = jones.decode_state(jones.apply_network(reg, network))
        assert np.max(np.abs(out - reference @ jones.decode_state(reg))) <= 1e-14


def layered_network(rng, n):
    """Elements that stress the layer schedule.

    Plates on all modes (modes=None), on no mode (modes=()), on one mode
    (chains on the same mode) or on random subsets; angles from a small
    set holding both signs of zero, so plates of 0.0 and -0.0 often share
    a layer; and PBS swaps.
    """
    n_modes = 2 ** (n - 1)
    angles = (0.0, -0.0, math.pi, math.pi / 4, -math.pi / 4)

    def angle():
        return angles[rng.integers(len(angles))] if rng.random() < 0.8 else rng.uniform(-math.pi, math.pi)

    elements = []
    for _ in range(rng.integers(1, 25)):
        shape = rng.integers(4)
        if shape == 0:
            modes = None
        elif shape == 1:
            modes = ()
        elif shape == 2:
            modes = (int(rng.integers(n_modes)),)
        else:
            modes = tuple(int(m) for m in rng.choice(n_modes, size=rng.integers(1, n_modes + 1), replace=False))
        choice = rng.integers(3)
        if choice == 0:
            elements.append(jones.Waveplate(angle(), angle(), modes))
        elif choice == 1:
            elements.append(jones.Rotator(angle(), modes))
        elif n_modes > 1:
            a, b = rng.choice(n_modes, size=2, replace=False)
            elements.append(jones.PBSSwap(int(a), int(b)))
    return elements


@pytest.mark.parametrize("n", range(1, 7))
def test_layer_kernel_is_bitwise_the_sequential_loop(n):
    networks = [jones.not_network(n, q) for q in range(n)]
    networks += [jones.cnot_network(n, c, t) for c, t in itertools.permutations(range(n), 2)]
    rng = np.random.default_rng(200 + n)
    networks += [layered_network(rng, n) for _ in range(60)]
    for network in networks:
        assert jones.gate_matrix(n, network).tobytes() == sequential_gate_matrix(n, network).tobytes()


@pytest.mark.parametrize(
    "one,other",
    [
        (jones.Waveplate(math.pi, 0.0, modes=(0,)), jones.Waveplate(math.pi, -0.0, modes=(1,))),
        (jones.Rotator(0.5, modes=(0,)), jones.Rotator(np.float32(0.5), modes=(1,))),
    ],
    ids=["signed-zero", "float32"],
)
def test_equal_angles_of_other_bits_share_a_layer_but_not_a_matrix(one, other):
    # 0.0 == -0.0 and float32(0.5) == 0.5, yet their Jones matrices differ in bits
    assert one.jones().tobytes() != other.jones().tobytes()
    layers = jones._layers([one, other], 2)
    assert len(layers) == 1 and len(layers[0][2]) == 2
    network = [one, other, jones.Rotator(-0.0, modes=(0,)), jones.Rotator(0.0, modes=(1,))]
    assert jones.gate_matrix(2, network).tobytes() == sequential_gate_matrix(2, network).tobytes()


def test_cached_plate_is_bitwise_the_uncached_matrix():
    rng = np.random.default_rng(29)
    angles = [0.0, -0.0, math.pi, math.pi / 4, -math.pi / 2, 2, np.float32(0.5), np.float32(-0.0)]
    angles += list(rng.normal(size=4) * 4)
    elements = [jones.Rotator(a) for a in angles]
    elements += [jones.Waveplate(d, t) for d, t in itertools.product(angles, repeat=2)]
    for element in elements:
        want = element.jones().tobytes()
        # twice: the second call is served from the cache
        for _ in range(2):
            assert jones._plate_matrix(jones._plate_key(element), element).tobytes() == want
            assert jones.gate_matrix(1, [element]).tobytes() == sequential_gate_matrix(1, [element]).tobytes()


def test_cached_plate_is_read_only_and_jones_is_a_copy():
    plate = jones.Waveplate(math.pi, math.pi / 4)
    cached = jones._plate_matrix(jones._plate_key(plate), plate)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0
    m = plate.jones()
    m[:] = 0.0
    want = jones.waveplate_matrix(math.pi, math.pi / 4).tobytes()
    assert jones._plate_matrix(jones._plate_key(plate), plate).tobytes() == want


def test_layers_keep_each_modes_network_order():
    # a chain on mode 0 is three layers; the plate on mode 1 joins the first
    chain = [jones.Rotator(0.1, modes=(0,)), jones.PBSSwap(0, 1), jones.Rotator(0.2, modes=(0,))]
    layers = jones._layers(chain[:1] + [jones.Rotator(0.3, modes=(1,))] + chain[1:], 2)
    assert [(a, b, len(plates)) for a, b, plates in layers] == [([], [], 2), ([0], [1], 0), ([], [], 1)]
    assert jones._layers([jones.Waveplate(1.0, 0.0, modes=())], 2) == []


@pytest.mark.parametrize(
    "element,error,message",
    [
        (jones.PBSSwap(0, 0), ValueError, "invalid PBS mode pair (0, 0)"),
        (jones.PBSSwap(0, 4), ValueError, "invalid PBS mode pair (0, 4)"),
        (jones.PBSSwap(-1, 1), ValueError, "invalid PBS mode pair (-1, 1)"),
        (jones.Waveplate(1.0, 0.3, modes=(1, 1)), ValueError, "invalid mode indices (1, 1) for 4 modes"),
        (jones.Rotator(0.4, modes=(4,)), ValueError, "invalid mode indices (4,) for 4 modes"),
        (jones.Rotator(0.4, modes=(-1,)), ValueError, "invalid mode indices (-1,) for 4 modes"),
        ("hwp", TypeError, "unknown optical element 'hwp'"),
    ],
)
def test_invalid_element_error_messages(element, error, message):
    # the bad element comes last, after elements the schedule has placed
    network = jones.not_network(3, 0) + [element, jones.Rotator(0.5)]
    with pytest.raises(error, match=re.escape(message)):
        jones.gate_matrix(3, network)
    with pytest.raises(error, match=re.escape(message)):
        list(jones.check_elements(network, 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_not_gate_matches_permutation_oracle(n):
    for q in range(n):
        gm = jones.gate_matrix(n, jones.not_network(n, q))
        ideal = permutation_matrix(not_permutation(n, q))
        assert np.max(np.abs(gm - ideal)) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_cnot_gate_matches_permutation_oracle(n):
    for c, t in itertools.permutations(range(n), 2):
        gm = jones.gate_matrix(n, jones.cnot_network(n, c, t))
        ideal = permutation_matrix(cnot_permutation(n, c, t))
        assert np.max(np.abs(gm - ideal)) < 1e-10


def test_not_gate_examples():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0  # |000>
    reg = jones.encode_state(amps)
    out = jones.decode_state(jones.apply_network(reg, jones.not_network(reg.n_qubits, 2)))
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)  # |001>
    amps = np.zeros(8, dtype=complex)
    amps[7] = 1.0  # |111>
    reg = jones.encode_state(amps)
    out = jones.decode_state(jones.apply_network(reg, jones.not_network(reg.n_qubits, 0)))
    assert abs(out[3]) == pytest.approx(1.0, abs=1e-12)  # |011>


def test_not_gate_involution():
    rng = np.random.default_rng(3)
    reg = random_register(rng, 3)
    not_1 = jones.not_network(reg.n_qubits, 1)
    out = jones.apply_network(jones.apply_network(reg, not_1), not_1)
    assert np.max(np.abs(out.amplitudes - reg.amplitudes)) < 1e-12


def test_cnot_superposition_linearity():
    amps = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2)  # (|00> + |10>)/sqrt(2)
    reg = jones.encode_state(amps)
    out = jones.decode_state(jones.apply_network(reg, jones.cnot_network(reg.n_qubits, 0, 1)))
    expected = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_cnot_rejects_equal_control_target():
    reg = jones.encode_state([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        jones.apply_network(reg, jones.cnot_network(reg.n_qubits, 1, 1))


def test_decode_roundtrip_random_states():
    rng = np.random.default_rng(17)
    for _ in range(100):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = jones.decode_state(jones.encode_state(amps))
        assert np.max(np.abs(out - amps)) < 1e-12


def test_decode_after_not_is_permuted_input():
    rng = np.random.default_rng(23)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    reg = jones.encode_state(amps)
    out = jones.decode_state(jones.apply_network(reg, jones.not_network(reg.n_qubits, 2)))
    perm = not_permutation(3, 2)
    assert np.max(np.abs(out[perm] - amps)) < 1e-12


def test_disjoint_elements_commute_exactly():
    rng = np.random.default_rng(31)
    reg = random_register(rng, 3)
    e1 = jones.Waveplate(0.4, 1.1, modes=(0, 1))
    e2 = jones.Rotator(0.9, modes=(2, 3))
    ab = jones.apply_network(jones.apply_network(reg, [e1]), [e2])
    ba = jones.apply_network(jones.apply_network(reg, [e2]), [e1])
    assert np.array_equal(ab.amplitudes, ba.amplitudes)


def test_power_preserved_under_random_networks():
    rng = np.random.default_rng(77)
    for _ in range(200):
        reg = random_register(rng, 3)
        for _ in range(rng.integers(1, 8)):
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
