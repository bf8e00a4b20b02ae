"""Polarization-mode optics on a register of spatial modes.

n qubits live in M = 2**(n-1) spatial modes times two polarizations:
basis index k maps to spatial mode k >> 1 and polarization k & 1
(H = 0, V = 1), i.e. the last qubit is the polarization bit and the
remaining qubits form the spatial-mode index (qubit 0 most significant).
Gates are networks of waveplates, rotators and polarizing beam splitters
acting on classical coherent amplitudes.  A network is applied to a
batch of registers one layer at a time, a layer being elements on
disjoint modes, and every amplitude comes out bitwise as it does when
the elements are applied one by one.  Each plate's Jones matrix is built
once per process, read-only, keyed by the bits of its angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

H, V = 0, 1


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def waveplate_matrix(delta: float, theta: float) -> np.ndarray:
    """Retarder with retardance delta, fast axis at angle theta."""
    return rotation(theta) @ np.diag([1.0, np.exp(1j * delta)]) @ rotation(-theta)


@dataclass(frozen=True)
class Waveplate:
    delta: float
    theta: float
    modes: Optional[Tuple[int, ...]] = None  # None = all spatial modes

    def __post_init__(self):
        if not (math.isfinite(self.delta) and math.isfinite(self.theta)):
            raise ValueError(f"waveplate angles must be finite, got {self.delta!r}, {self.theta!r}")

    def jones(self):
        return waveplate_matrix(self.delta, self.theta)


@dataclass(frozen=True)
class Rotator:
    angle: float
    modes: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"rotator angle must be finite, got {self.angle!r}")

    def jones(self):
        return rotation(self.angle)


@dataclass(frozen=True)
class PBSSwap:
    """PBS pair routing: H stays put, V amplitudes swap between two modes."""

    mode_a: int
    mode_b: int


@dataclass(frozen=True)
class ModeRegister:
    """Complex field amplitudes, shape (M, 2), M a power of two."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[1] != 2:
            raise ValueError("amplitudes must have shape (M, 2)")
        m = amps.shape[0]
        if m < 1 or m & (m - 1):
            raise ValueError(f"mode count {m} is not a power of two")
        with np.errstate(over="ignore"):  # a power too large for a float is inf: not normalized
            power = np.sum(np.abs(amps) ** 2)
        if not abs(power - 1.0) <= 1e-8:
            raise ValueError("total power is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_modes(self):
        return self.amplitudes.shape[0]

    @property
    def n_qubits(self):
        # M = 2**(n-1) modes, so for a power-of-two M this is log2(M) + 1
        return self.n_modes.bit_length()


def encode_state(qubit_amplitudes) -> ModeRegister:
    """Map 2**n qubit amplitudes onto (spatial mode, polarization) slots."""
    amps = np.asarray(qubit_amplitudes, dtype=complex)
    dim = amps.size
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"amplitude count {dim} is not 2**n with n >= 1")
    with np.errstate(over="ignore"):  # a norm too large for a float is inf: not normalized
        norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= 1e-8:
        raise ValueError("input amplitudes are not normalized")
    return ModeRegister(amps.reshape(dim // 2, 2))


def decode_state(reg: ModeRegister) -> np.ndarray:
    """Exact inverse of encode_state."""
    return reg.amplitudes.flatten()


def _plate_key(element):
    """Type and angle bits of a waveplate or rotator: equal keys give bitwise-equal Jones matrices.

    0.0 == -0.0, but the two signs of zero give different signed zeros in
    the matrix, so the angles are keyed by their bit patterns; and by their
    type, since numpy computes a float32 angle's matrix in float32.
    """
    if isinstance(element, Waveplate):
        d, t = element.delta, element.theta
        return type(element), type(d), float(d).hex(), type(t), float(t).hex()
    a = element.angle
    return type(element), type(a), float(a).hex()


def _valid_modes(modes, n_modes):
    """Whether modes are distinct indices in [0, n_modes), without a set for the usual one or two.

    Every listed mode is updated at once, so a repeated mode would be rotated once.
    """
    if len(modes) == 1:
        return 0 <= modes[0] < n_modes
    if len(modes) == 2:
        a, b = modes
        return a != b and 0 <= a < n_modes and 0 <= b < n_modes
    return not modes or (len(set(modes)) == len(modes) and 0 <= min(modes) and max(modes) < n_modes)


def check_elements(elements, n_modes):
    """Yield (element, modes it acts on) for a network on n_modes modes; raise at an invalid element."""
    for element in elements:
        if isinstance(element, PBSSwap):
            a, b = modes = (element.mode_a, element.mode_b)
            if not (0 <= a < n_modes and 0 <= b < n_modes) or a == b:
                raise ValueError(f"invalid PBS mode pair ({a}, {b})")
        elif isinstance(element, (Waveplate, Rotator)):
            modes = element.modes
            if modes is None:
                modes = range(n_modes)
            elif not _valid_modes(modes, n_modes):
                raise ValueError(f"invalid mode indices {element.modes} for {n_modes} modes")
        else:
            raise TypeError(f"unknown optical element {element!r}")
        yield element, modes


def _layers(elements, n_modes):
    """Schedule each checked element as early as it can go.

    An element joins the layer after the last layer that touched any of
    its modes, so the elements of one layer act on disjoint modes and each
    mode still sees its elements in network order.  A layer is
    (PBS modes a, PBS modes b, {plate key: (element, modes)}).  An element
    with no modes touches nothing and is dropped.
    """
    layers = []
    last = [-1] * n_modes  # last layer that touched each mode
    for element, modes in check_elements(elements, n_modes):
        if not modes:
            continue
        k = 1 + max(map(last.__getitem__, modes))
        if k == len(layers):
            layers.append(([], [], {}))
        swaps_a, swaps_b, plates = layers[k]
        if isinstance(element, PBSSwap):
            swaps_a.append(modes[0])
            swaps_b.append(modes[1])
        else:
            plates.setdefault(_plate_key(element), (element, []))[1].extend(modes)
        for m in modes:
            last[m] = k
    return layers


# plate key -> read-only Jones matrix, built once per process
_PLATES = {}
_PLATES_MAX = 1024


def _plate_matrix(key, element):
    """The Jones matrix of a waveplate or rotator with this plate key, from the cache."""
    m = _PLATES.get(key)
    if m is None:
        if len(_PLATES) >= _PLATES_MAX:
            _PLATES.clear()
        m = _PLATES[key] = element.jones()
        m.flags.writeable = False
    return m


def _propagate(amps, elements):
    """Apply elements in network order, in place, to a batch of B registers of shape (M, 2, B).

    The network runs one layer of disjoint elements at a time: all PBS
    swaps of a layer are one indexed assignment, and all plates of a layer
    with the same Jones matrix are one 2x2 product over their modes.  Each
    mode meets the same products in the same order as element by element,
    so the result is bitwise the same.
    """
    for swaps_a, swaps_b, plates in _layers(elements, amps.shape[0]):
        if swaps_a:
            amps[swaps_a + swaps_b, V] = amps[swaps_b + swaps_a, V]
        for key, (element, modes) in plates.items():
            amps[modes] = _plate_matrix(key, element) @ amps[modes]
    return amps


def apply_network(reg: ModeRegister, elements) -> ModeRegister:
    """The network applied to one register, the kernel's batch of one; untouched modes are copied bit-exactly."""
    amps = reg.amplitudes[:, :, np.newaxis].copy()
    return ModeRegister(_propagate(amps, elements)[:, :, 0])


def _spatial_bit(n_qubits, qubit):
    # qubit 0 is the most significant spatial bit; the last qubit is polarization
    return n_qubits - 2 - qubit


def _full_swap(m1, m2):
    # PBS/half-wave-plate interleave exchanging both polarizations of a pair
    hwp = Waveplate(np.pi, np.pi / 4, modes=(m1, m2))
    pbs = PBSSwap(m1, m2)
    return [pbs, hwp, pbs, hwp]


def not_network(n_qubits: int, qubit: int) -> list:
    """Element list realizing NOT on one encoded qubit."""
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range for n={n_qubits}")
    if qubit == n_qubits - 1:
        # polarization qubit: half-wave plate at 45 degrees is exactly sigma_x
        return [Waveplate(np.pi, np.pi / 4)]
    bit = _spatial_bit(n_qubits, qubit)
    n_modes = 2 ** (n_qubits - 1)
    elements = []
    for m in range(n_modes):
        if not (m >> bit) & 1:
            elements += _full_swap(m, m | (1 << bit))
    return elements


def cnot_network(n_qubits: int, control: int, target: int) -> list:
    """Element list realizing CNOT between two encoded qubits."""
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range for n={n_qubits}")
    n_modes = 2 ** (n_qubits - 1)
    pol = n_qubits - 1
    if control == pol:
        # V-conditioned spatial flip: the PBS routing itself is the gate
        bit = _spatial_bit(n_qubits, target)
        return [PBSSwap(m, m | (1 << bit)) for m in range(n_modes) if not (m >> bit) & 1]
    cbit = _spatial_bit(n_qubits, control)
    if target == pol:
        on = tuple(m for m in range(n_modes) if (m >> cbit) & 1)
        return [Waveplate(np.pi, np.pi / 4, modes=on)]
    tbit = _spatial_bit(n_qubits, target)
    elements = []
    for m in range(n_modes):
        if (m >> cbit) & 1 and not (m >> tbit) & 1:
            elements += _full_swap(m, m | (1 << tbit))
    return elements


def gate_matrix(n_qubits: int, elements) -> np.ndarray:
    """The 2**n x 2**n matrix of a network: the network applied to the identity batch."""
    dim = 2**n_qubits
    identity = np.eye(dim, dtype=complex).reshape(dim // 2, 2, dim)
    return _propagate(identity, elements).reshape(dim, dim)
