"""Cascaded harmonic generation in a sign-alternating (RDS) crystal.

Field envelopes a1, a2, a3 at the fundamental, second and third harmonic
obey the cascaded SHG + SFG coupled-mode system

    da1/dz = i s(z) [ kA a1* a2 e^{+i dkA z} + kB a2* a3 e^{+i dkB z} ]
    da2/dz = i s(z) [ (kA/2) a1^2 e^{-i dkA z} + kB a1* a3 e^{+i dkB z} ]
    da3/dz = i s(z) [ kB a1 a2 e^{-i dkB z} ]

with s(z) = +/-1 the local domain sign.  Photon-flux normalization makes
N = |a1|^2 + 2|a2|^2 + 3|a3|^2 exactly conserved.  Integration is
classical fixed-step RK4 with steps_per_domain equal steps in every
domain, so the discontinuous s(z) never falls inside a step.

One kernel, `rk4`, integrates a batch of B independent beams, a (3, B)
complex array, through D domains of steps_per_domain steps each: the
domain signs and lengths, couplings and mismatches may differ per column,
and a zero-length domain leaves a column's fields as they are.  The steps
of a domain run in blocks of at most 64: per block, one np.exp gives
e^{i dkA z} and e^{i dkB z} at every midpoint and step end, the other
three phase factors being their conjugates (2 exps per point), and the
photon flux N of the whole block is checked at once.  It keeps a
running max of |N - N0| per column over every step (the Manley-Rowe
drift), and writes a (K, 3, B) trajectory only when asked.  A non-finite
exit field or flux raises DivergenceError.  `propagate` is the batch of
one, with its trajectory.
`propagate_many` pads shorter grids with zero-length domains and makes
one kernel call for any list of cases, so every sweep is a single
integration.

Logic gates use phase coding: a bit b enters as an amplitude factor
(-1)**b, interfered with an equal zero-phase bias beam, and the gate
output is a threshold comparison on the second-harmonic (NOT) or
third-harmonic (CNOT target) output power.  All logic inputs make only
three distinct pumps (2A, 0, -2A), which calibration propagates in one
kernel call and keeps as the logic levels; `calibrated_gate` reads every
gate output from those levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Dark logic levels can be exactly zero (perfect destructive interference);
# they are floored at this fraction of the bright level before ratios.
DARK_FLOOR_RATIO = 1e-30

DEFAULT_STEPS_PER_DOMAIN = 16
DEFAULT_N_DOMAINS = 100
DEFAULT_BEAM_AMPLITUDE = 0.1


class PhaseMatchedError(ValueError):
    """dk = 0: the process is already phase matched, poling is unnecessary."""


class CalibrationError(RuntimeError):
    """Logic levels are not separable; thresholds cannot be set."""


class DivergenceError(ArithmeticError):
    """The integration overflowed: an exit field or the photon flux is not finite."""


@dataclass(frozen=True)
class DomainGrid:
    """Ordered sequence of (length, sign) nonlinear domains."""

    lengths: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        lengths = np.array(self.lengths, dtype=float)
        signs = np.array(self.signs, dtype=float)
        if lengths.size == 0:
            raise ValueError("grid must contain at least one domain")
        if lengths.shape != signs.shape:
            raise ValueError("lengths and signs must have equal shape")
        if not np.all((lengths > 0.0) & np.isfinite(lengths)):
            raise ValueError("all domain lengths must be positive and finite")
        if not np.all(np.isin(signs, (1.0, -1.0))):
            raise ValueError("domain signs must be +1 or -1")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "signs", signs)

    @property
    def n_domains(self):
        return self.lengths.size

    @property
    def total_length(self):
        return float(self.lengths.sum())

    @classmethod
    def load(cls, path) -> "DomainGrid":
        lengths, signs = [], []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                length, sign = line.split()
                lengths.append(float(length))
                signs.append(float(sign))
        return cls(np.array(lengths), np.array(signs))


@dataclass(frozen=True)
class CoupledModeParams:
    kappa_a: float  # SHG coupling, 1/(m * amplitude)
    kappa_b: float  # SFG coupling
    dk_a: float  # k2 - 2 k1, 1/m
    dk_b: float  # k3 - k2 - k1, 1/m

    def __post_init__(self):
        for name in ("kappa_a", "kappa_b", "dk_a", "dk_b"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.kappa_a < 0 or self.kappa_b < 0:
            raise ValueError("coupling coefficients must be >= 0")


@dataclass(frozen=True)
class FieldTriple:
    a1: complex
    a2: complex
    a3: complex


@dataclass
class Trajectory:
    """Sampled fields along the crystal, including both end points."""

    z: np.ndarray
    fields: np.ndarray  # shape (K, 3), complex

    @property
    def final(self) -> FieldTriple:
        a = self.fields[-1]
        return FieldTriple(complex(a[0]), complex(a[1]), complex(a[2]))

    def manley_rowe(self):
        p = np.abs(self.fields) ** 2
        return p[:, 0] + 2 * p[:, 1] + 3 * p[:, 2]

    def csv_rows(self, stride=1):
        rows = []
        n = self.manley_rowe()
        idx = list(range(0, len(self.z), stride))
        if idx[-1] != len(self.z) - 1:
            idx.append(len(self.z) - 1)
        for i in idx:
            a1, a2, a3 = self.fields[i]
            rows.append(
                (self.z[i], a1.real, a1.imag, a2.real, a2.imag, a3.real, a3.imag, n[i])
            )
        return rows


def qpm_domain_length(dk: float) -> float:
    """First-order QPM domain (coherence) length pi/|dk|."""
    if dk == 0.0:
        raise PhaseMatchedError("dk = 0 is already phase matched; poling is unnecessary")
    return math.pi / abs(dk)


def make_periodic_grid(total_length: float, domain_length: float) -> DomainGrid:
    """Equal alternating domains; a final partial domain absorbs the remainder."""
    if not (total_length >= domain_length > 0.0):
        raise ValueError(
            f"need total_length >= domain_length > 0, got {total_length}, {domain_length}"
        )
    n_full = int(total_length / domain_length)
    remainder = total_length - n_full * domain_length
    lengths = [domain_length] * n_full
    if remainder > 1e-12 * total_length:
        lengths.append(remainder)
    signs = [(-1) ** i for i in range(len(lengths))]
    return DomainGrid(np.array(lengths), np.array(signs, dtype=float))


# The right-hand side is five coupling terms, each a product of two field
# factors: conj(a1) a2, conj(a2) a3 | a1 a1, conj(a1) a3 | a1 a2, summed
# in pairs into da1, da2 | da3.  Rows 0-2 of the factor table hold the
# conjugated fields, rows 3-5 the fields.  The term buffer has a sixth row
# of -0, the exact additive identity, so da3 is t4 + (-0) = t4 bit for bit.
_FACTORS = np.array([0, 1, 3, 0, 3, 4, 5, 3, 5, 4])
_FLUX_WEIGHTS = np.array([1.0, 2.0, 3.0])
# The five terms' phase factors e^{i dk z} are e^{i dkA z}, e^{i dkB z} and
# the conjugates of e^{i dkA z}, e^{i dkB z}, e^{i dkB z} (rows 2 and 4).
_LEGS = np.array([0, 1, 0, 1, 1])
# Steps per block: one phase table and one flux check each.
_BLOCK = 64


@np.errstate(over="ignore", invalid="ignore")  # a diverged run raises at the end
def rk4(fields, signs, lengths, steps_per_domain, kappa_a, kappa_b, dk_a, dk_b, trajectory=False):
    """Fixed-step RK4 of B independent field triples, steps_per_domain steps per domain.

    fields is a (3, B) complex array.  The domain signs and lengths are
    (D, B), or (D, 1) for one grid shared by every column, and the
    couplings and mismatches are scalars or (B,).  Each domain takes
    steps_per_domain steps of its length / steps_per_domain, so steps never
    cross a domain boundary and the discontinuous sign profile keeps
    4th-order accuracy.  The steps of a zero-length domain are of size 0:
    the column's fields and z stay put, which pads shorter grids.

    The steps of a domain run in blocks of at most _BLOCK.  Per block, one
    np.exp gives e^{i dkA z} and e^{i dkB z} at every step's midpoint and
    end (the step start reuses the previous step's end), and the other
    three phase factors are their conjugates: 2 exps per point.  The
    positions are running sums from the current z, bitwise those of
    z += h.  Each step writes its fields into a block buffer, and the
    photon flux N of the whole block is then checked for the Manley-Rowe
    drift, so every step counts.  The stages run in buffers allocated once
    per call.

    Returns (final, drift, z, samples): the (3, B) exit fields, the (B,)
    drift max |N - N0| / N0 over every step (0 where N0 = 0), and, only
    when a trajectory is asked for, the (D * steps_per_domain + 1, B)
    sample positions and the matching (K, 3, B) sampled fields (else None
    and None).  Raises ValueError unless steps_per_domain is an integer
    >= 1, and DivergenceError unless the exit fields and the drift are
    finite, which makes every sampled flux finite too.
    """
    integer = isinstance(steps_per_domain, (int, np.integer)) and not isinstance(steps_per_domain, bool)
    if not (integer and steps_per_domain >= 1):
        raise ValueError(f"steps_per_domain must be an integer >= 1, got {steps_per_domain!r}")
    n = int(steps_per_domain)
    a = np.array(fields, dtype=complex)
    width = a.shape[1]
    h_all = np.asarray(lengths, dtype=float) / n
    kappa_a, kappa_b, dk_a, dk_b = (
        np.broadcast_to(np.asarray(x, dtype=float), width) for x in (kappa_a, kappa_b, dk_a, dk_b)
    )
    # i dk of e^{i dkA z} and e^{i dkB z}, and i kappa per coupling term
    phase = 1j * np.array([dk_a, dk_b])
    coupling = 1j * np.array([kappa_a, kappa_b, 0.5 * kappa_a, kappa_b, kappa_b])

    factors = np.empty((6, width), dtype=complex)
    conj_a, stage = factors[:3], factors[3:]
    pairs = np.empty((10, width), dtype=complex)
    left, right = pairs[:5], pairs[5:]
    terms = np.empty((6, width), dtype=complex)
    terms[5] = complex(-0.0, -0.0)
    products, firsts, seconds = terms[:5], terms[0::2], terms[1::2]
    k1, k2, k3, k4 = np.empty((4, 3, width), dtype=complex)
    # z after 0..m steps of a block (row 0 is the current z), the block's
    # midpoint and end positions interleaved, and the fields after each step
    ends = np.zeros((_BLOCK + 1, width))
    points = np.empty((2 * _BLOCK, width))
    block_fields = np.empty((_BLOCK, 3, width), dtype=complex)

    def derivs(c, out):
        # the stage input is already in the field rows
        np.conjugate(stage, out=conj_a)
        factors.take(_FACTORS, axis=0, out=pairs, mode="clip")
        np.multiply(left, right, out=products)
        np.multiply(products, c, out=products)
        np.add(firsts, seconds, out=out)

    def flux(a):
        return _FLUX_WEIGHTS @ (np.abs(a) ** 2)

    n0 = flux(a)
    worst = np.zeros(width)
    e_end = np.ones((5, width), dtype=complex)
    zs = samples = None
    k = 0
    if trajectory:
        zs = np.zeros((1 + h_all.shape[0] * n, width))
        samples = np.empty((zs.shape[0], 3, width), dtype=complex)
        samples[0] = a
    for s, h in zip(signs, h_all):
        c = s * coupling
        half, sixth = 0.5 * h, h / 6.0
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            z, pts = ends[: m + 1], points[: 2 * m]
            z[1:] = h
            np.add.accumulate(z, axis=0, out=z)
            np.add(z[:-1], half, out=pts[0::2])
            pts[1::2] = z[1:]
            e = np.exp(phase * pts[:, None, :]).take(_LEGS, axis=1)
            np.conjugate(e[:, 2::2], out=e[:, 2::2])
            c_first = c * e_end  # the block's first step starts where the last one ended
            e_end = e[-1]
            ce = c * e
            rows = samples[k + 1 : k + 1 + m] if trajectory else block_fields[:m]
            for row, c_start, c_mid, c_end in zip(rows, (c_first, *ce[1::2]), ce[0::2], ce[1::2]):
                stage[...] = a
                derivs(c_start, k1)
                np.multiply(half, k1, out=stage)
                stage += a
                derivs(c_mid, k2)
                np.multiply(half, k2, out=stage)
                stage += a
                derivs(c_mid, k3)
                np.multiply(h, k3, out=stage)
                stage += a
                derivs(c_end, k4)
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= sixth
                a += k2
                row[...] = a
            if trajectory:
                zs[k + 1 : k + 1 + m] = z[1:]
            k += m
            ends[0] = z[-1]
            np.maximum(worst, np.abs(flux(rows) - n0).max(axis=0), out=worst)
    drift = np.divide(worst, n0, out=np.zeros(width), where=n0 > 0)
    if not (np.isfinite(a).all() and np.isfinite(drift).all()):
        raise DivergenceError("RK4 integration diverged: an exit field or the photon flux is not finite")
    return a, drift, zs, samples


def propagate(
    fields: FieldTriple, grid: DomainGrid, params: CoupledModeParams, steps_per_domain: int = DEFAULT_STEPS_PER_DOMAIN
) -> Trajectory:
    """Trajectory of steps_per_domain RK4 steps per domain; the kernel's batch of one."""
    _, _, z, samples = rk4(
        [[fields.a1], [fields.a2], [fields.a3]], grid.signs[:, None], grid.lengths[:, None], steps_per_domain,
        params.kappa_a, params.kappa_b, params.dk_a, params.dk_b, trajectory=True,
    )
    return Trajectory(z[:, 0], samples[:, :, 0])


def propagate_many(cases, steps_per_domain: int = DEFAULT_STEPS_PER_DOMAIN):
    """Exit fields (3, n) and Manley-Rowe drift (n,) of n (fields, grid, params) cases.

    The cases run as the columns of one kernel call, grids of fewer
    domains padded with zero-length domains at the exit.
    """
    depth = max((grid.n_domains for _, grid, _ in cases), default=1)
    a = np.empty((3, len(cases)), dtype=complex)
    signs = np.ones((depth, len(cases)))
    lengths = np.zeros((depth, len(cases)))
    constants = np.empty((4, len(cases)))
    for j, (f, grid, p) in enumerate(cases):
        a[:, j] = f.a1, f.a2, f.a3
        signs[: grid.n_domains, j] = grid.signs
        lengths[: grid.n_domains, j] = grid.lengths
        constants[:, j] = p.kappa_a, p.kappa_b, p.dk_a, p.dk_b
    final, drift, _, _ = rk4(a, signs, lengths, steps_per_domain, *constants)
    return final, drift


def default_params() -> CoupledModeParams:
    """Desk-scale defaults: unit couplings, dk = 2*pi*1e3 1/m on both legs."""
    dk = 2.0 * math.pi * 1e3
    return CoupledModeParams(kappa_a=1.0, kappa_b=1.0, dk_a=dk, dk_b=dk)


def default_grid(params: CoupledModeParams | None = None, n_domains: int = DEFAULT_N_DOMAINS) -> DomainGrid:
    """First-order QPM grid of n_domains coherence lengths."""
    p = params or default_params()
    lc = qpm_domain_length(p.dk_a)
    return make_periodic_grid(n_domains * lc, lc)


def qpm_enhancement_check(
    params: CoupledModeParams,
    n_domains: int,
    steps_per_domain: int = DEFAULT_STEPS_PER_DOMAIN,
    poled: bool = True,
) -> float:
    """SH growth-rate ratio of a (quasi-)phase-matched grid vs perfect matching.

    The grid is n_domains coherence lengths, of alternating sign if poled
    and all +1 if not.  Undepleted regime enforced by scaling the pump so
    kappa_a*|a1|*L = 1e-3; the poled ratio converges to 2/pi as n_domains
    grows, the unpoled (uniform mismatched) ratio decays towards zero.
    """
    if params.dk_a == 0.0:
        raise ValueError("QPM check needs a nonzero dk_a")
    if params.kappa_b != 0.0:
        raise ValueError("QPM check is defined for the pure SHG channel (kappa_b = 0)")
    lc = qpm_domain_length(params.dk_a)
    signs = (-1.0) ** np.arange(n_domains) if poled else np.ones(n_domains)
    grid = DomainGrid(np.full(n_domains, lc), signs)
    total = n_domains * lc
    pump = 1e-3 / (params.kappa_a * total)
    final = propagate_many([(FieldTriple(pump, 0.0, 0.0), grid, params)], steps_per_domain)[0]
    matched_amp = 0.5 * params.kappa_a * pump**2 * total
    return float(abs(final[1, 0])) / matched_amp


@dataclass(frozen=True)
class LogicThresholds:
    """Calibrated decision levels for the SH (NOT) and TH (CNOT) channels.

    sh_levels and th_levels are the SH and TH output powers of the three
    distinct pumps, indexed by the number of 1 bits among the inputs.
    """

    p_th2: float
    p_th3: float
    separation_sh: float
    separation_th: float
    sh_levels: Tuple[float, float, float]
    th_levels: Tuple[float, float, float]


def calibrate_thresholds(
    grid: DomainGrid,
    params: CoupledModeParams,
    beam_amplitude: float,
    steps_per_domain: int = DEFAULT_STEPS_PER_DOMAIN,
) -> LogicThresholds:
    """Simulate all logic inputs and place thresholds between the levels.

    The logic inputs make three distinct pumps (2A, 0 and -2A for beam
    amplitude A), propagated together in one kernel call.  Each threshold
    sits at the geometric mean of the bright and dark output-power levels
    of its channel (dark levels floored, since perfect destructive
    interference yields exactly zero power).  Raises CalibrationError when
    the levels are separated by less than a factor 2, as they are without
    SFG coupling (kappa_b = 0), where every TH level is zero, and when a
    bright level is so small that its dark floor underflows to 0 (beam
    amplitude below about 1e-75 on the default crystal).  Thresholds
    are only valid for this beam amplitude; changing the amplitude
    requires recalibration.
    """
    if beam_amplitude <= 0:
        raise ValueError("beam_amplitude must be positive")

    # the pumps of inputs with 0, 1 and 2 one-bits (a NOT bit's bias beam is a 0)
    pumps = (2.0 * beam_amplitude, 0.0, -2.0 * beam_amplitude)
    cases = [(FieldTriple(a, 0.0, 0.0), grid, params) for a in pumps]
    powers = np.abs(propagate_many(cases, steps_per_domain)[0]) ** 2
    sh, th = (tuple(float(x) for x in p) for p in powers[1:])

    sh_high, sh_low = sh[0], sh[1]
    th_high = min(th[0], th[2])
    th_low = th[1]

    def separation(high, low):
        if high <= 0.0:
            return 0.0
        floor = max(low, high * DARK_FLOOR_RATIO)
        if floor == 0.0:
            raise CalibrationError(
                f"logic levels underflow: dark floor {DARK_FLOOR_RATIO:g} x bright level {high:.3e} is 0; "
                "use a larger beam_amplitude"
            )
        return high / floor

    sep_sh = separation(sh_high, sh_low)
    sep_th = separation(th_high, th_low)
    if sep_sh < 2.0 or sep_th < 2.0:
        raise CalibrationError(
            "logic levels not separable: "
            f"SH bright={sh_high:.3e} dark={sh_low:.3e}, "
            f"TH bright={th_high:.3e} dark={th_low:.3e}"
        )
    p_th2 = math.sqrt(sh_high * max(sh_low, sh_high * DARK_FLOOR_RATIO))
    p_th3 = math.sqrt(th_high * max(th_low, th_high * DARK_FLOOR_RATIO))
    return LogicThresholds(p_th2, p_th3, sep_sh, sep_th, sh, th)


def calibrated_gate(inputs, cal: LogicThresholds):
    """NOT (one input bit) or CNOT (two) read from the calibration's own levels.

    The inputs select their pump's exit powers P2(L) and P3(L).  NOT
    outputs 1 iff P2(L) >= p_th2.  CNOT passes the control through; equal
    bits interfere constructively and drive the cascaded third harmonic
    high, so the XOR target is 1 iff P3(L) < p_th3.
    """
    if len(inputs) not in (1, 2) or any(x not in (0, 1) for x in inputs):
        raise ValueError(f"gate inputs must be one or two bits, each 0 or 1, got {tuple(inputs)}")
    k = int(sum(inputs))
    if len(inputs) == 1:
        return (1 if cal.sh_levels[k] >= cal.p_th2 else 0,)
    return int(inputs[0]), 1 if cal.th_levels[k] < cal.p_th3 else 0
