"""Two-nuclear-spin register simulation.

Gates are compiled from idealized hard pulses in the doubly-rotating
frame, which absorbs the Zeeman terms: instantaneous single-spin
rotations about axes in the xy plane, plus free evolution
exp(-i j12 sz1 sz2 tau) under the j-coupling alone (hbar = 1,
angular-frequency units).  Basis states are ordered |00>, |01>, |10>,
|11> with spin 0 leftmost.

One kernel propagates a batch of sequences that share their hard
rotations, each under its own coupling: `sequence_unitaries` is one call
for a whole j12 sweep, and `sequence_unitary` and `apply_sequence` are
the batch of one.  Rotation matrices and the hard-rotation segments of
the compiled gates are built once per process, read-only or frozen;
only a CNOT's delay is new in each `compile_cnot` list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


class GateCompilationError(ValueError):
    """Requested gate cannot be realized with the given parameters."""


def _check_finite(**values):
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class SpinState:
    """Normalized amplitude vector over the 2**n computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        dim = amps.size
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"dimension {dim} is not 2**n with n >= 1")
        with np.errstate(over="ignore"):  # a norm too large for a float is inf: not normalized
            norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError("state is not normalized")

    @property
    def n_spins(self):
        return self.amplitudes.size.bit_length() - 1

    @classmethod
    def basis(cls, bits: str) -> "SpinState":
        """Computational basis state from a bit string, e.g. '01'."""
        amps = np.zeros(2 ** len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(amps)

    def probabilities(self):
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class HardRotation:
    """Instantaneous rotation exp(-i(theta/2)(cos(phi) sx + sin(phi) sy))."""

    spin: int
    axis_angle: float
    rotation_angle: float

    def __post_init__(self):
        _check_finite(axis_angle=self.axis_angle, rotation_angle=self.rotation_angle)


@functools.lru_cache(maxsize=1024)
def _rotation_matrix(axis_angle, rotation_angle):
    """The read-only matrix of a hard rotation, built once per pair of angles.

    Keyed by value, so 0.0 and -0.0 share an entry.  That is exact: a
    zero angle has cosine 1, so every signed zero its sine yields is added
    to, or subtracted from, a +0 or nonzero term, and both signs give the
    same matrix bits.
    """
    axis = math.cos(axis_angle) * SIGMA_X + math.sin(axis_angle) * SIGMA_Y
    half = 0.5 * rotation_angle
    m = math.cos(half) * np.eye(2) - 1j * math.sin(half) * axis
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class FreeCouplingEvolution:
    """Free evolution under the j-coupling term for a duration tau >= 0."""

    duration: float

    def __post_init__(self):
        if not (self.duration >= 0.0 and math.isfinite(self.duration)):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration}")


PulseSegment = Union[HardRotation, FreeCouplingEvolution]


def _propagate(psi, sequences, j12):
    """Apply R segment sequences that share their hard rotations to a batch of states.

    psi is (2**n, R, B) or (2**n, R * B): states psi[:, r] take sequence r
    under coupling j12[r].  Each shared rotation is applied once to every
    column: rotating spin k is a 2x2 operator on axis 1 of the
    (2**k, 2, rest) view.  Each free evolution is a phase
    exp(-i j12_r zz tau_r) per sequence, the same products as for one.
    """
    if len(j12) != len(sequences):
        raise ValueError(f"{len(sequences)} sequences need as many couplings, got {len(j12)}")
    for j in j12:
        _check_finite(j12=j)
    n = psi.shape[0].bit_length() - 1
    for segs in zip(*sequences, strict=True):
        seg = segs[0]
        if isinstance(seg, HardRotation):
            if segs.count(seg) != len(segs):  # compares by identity first: cached segments are shared objects
                raise ValueError("sequences of a batch must share their hard rotations")
            if not 0 <= seg.spin < n:
                raise ValueError(f"spin index {seg.spin} out of range for n={n}")
            rot = _rotation_matrix(seg.axis_angle, seg.rotation_angle)
            psi = (rot @ psi.reshape(2**seg.spin, 2, -1)).reshape(psi.shape)
        elif isinstance(seg, FreeCouplingEvolution):
            if not all(isinstance(s, FreeCouplingEvolution) for s in segs):
                raise ValueError("sequences of a batch must share their hard rotations")
            if n != 2:
                raise ValueError("coupling evolution is defined for the 2-spin register")
            zz = np.array([[1.0], [-1.0], [-1.0], [1.0]])
            tau = np.array([s.duration for s in segs])
            phase = np.exp(-1j * np.array(j12, dtype=float) * zz * tau)
            psi = (phase[:, :, np.newaxis] * psi.reshape(4, len(segs), -1)).reshape(psi.shape)
        else:
            raise TypeError(f"unknown pulse segment {seg!r}")
    return psi


def sequence_unitaries(sequences, n: int, j12) -> np.ndarray:
    """The (R, 2**n, 2**n) unitaries of R sequences that share their hard rotations, under R couplings.

    One propagation of the identity batch of every sequence: each shared
    rotation is applied once, and every unitary comes out bitwise as
    sequence_unitary gives it alone.
    """
    dim = 2**n
    identity = np.eye(dim, dtype=complex)[:, np.newaxis].repeat(len(sequences), axis=1)
    return np.ascontiguousarray(_propagate(identity, sequences, j12).transpose(1, 0, 2))


def sequence_unitary(segments: Sequence[PulseSegment], n: int, j12: float) -> np.ndarray:
    """Compose segments in application order: the sequence applied to the identity, a batch of one."""
    return _propagate(np.eye(2**n, dtype=complex), [segments], [j12])


def apply_sequence(state, segments, j12):
    return SpinState(_propagate(state.amplitudes[:, np.newaxis], [segments], [j12])[:, 0])


@functools.cache
def _rz_segments(spin, angle):
    # Rz(angle) = Rx(pi/2) Ry(angle) Rx(-pi/2), listed in application order
    return (
        HardRotation(spin, 0.0, -math.pi / 2),
        HardRotation(spin, math.pi / 2, angle),
        HardRotation(spin, 0.0, math.pi / 2),
    )


@functools.cache
def _hadamard_segments(spin):
    # H = Ry(pi/2) * Z up to global phase; Z realized as Rz(pi)
    return _rz_segments(spin, math.pi) + (HardRotation(spin, math.pi / 2, math.pi / 2),)


def compile_not(target: int) -> list:
    """Pulse sequence realizing NOT on one spin (X up to global phase)."""
    if target < 0:
        raise ValueError("target must be a valid spin index")
    return [HardRotation(target, 0.0, math.pi)]


def compile_cnot(control: int, target: int, j12: float) -> list:
    """Pulse sequence realizing CNOT on the 2-spin register.

    Canonical decomposition: basis change on the target, j-coupling delay
    tau = pi/(4|j12|), z-rotations on both spins, closing basis change.
    Requires |j12| large enough for a finite delay, the entangling phase.
    """
    if control == target or not {control, target} <= {0, 1}:
        raise ValueError("control and target must be distinct spins of a 2-spin register")
    if j12 == 0.0:
        raise GateCompilationError("CNOT is uncompilable with j12 = 0 (no coupling)")
    tau = (math.pi / 4.0) / abs(j12)  # pi / (4 |j12|), without overflowing 4 |j12|
    if math.isinf(tau):
        raise GateCompilationError(f"CNOT is uncompilable with j12 = {j12!r} (its delay pi/(4|j12|) overflows)")
    # exp(-i*j12*zz*tau) = exp(-+i*(pi/4)*zz); the z-rotation sign closes CZ
    z_angle = -math.pi / 2 if j12 > 0 else math.pi / 2
    return [
        *_hadamard_segments(target),
        FreeCouplingEvolution(tau),
        *_rz_segments(control, z_angle),
        *_rz_segments(target, z_angle),
        *_hadamard_segments(target),
    ]


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)| / dim, invariant under global phases of u and v."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])


def measure(state: SpinState, seed: int, shots: int) -> dict:
    """Sample basis outcomes; deterministic for a fixed seed.

    Returns a bit-string -> count histogram summing to `shots`.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities()
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("cannot measure a zero-norm state")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / total)
    n = state.n_spins
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c > 0}
