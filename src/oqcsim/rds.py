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
and a zero-length domain leaves a column's fields as they are.  The
domain sign rides on the step size, so the steps run in blocks that cross
domain boundaries, each with one table of phase factors (one column of
it for parallel beams through one crystal) and one photon-flux check for
the Manley-Rowe drift.  Up to _NARROW columns step one by one on Python
complex scalars, wider batches all at once on numpy ufuncs; rk4's
docstring has the details.  `propagate` is the batch of one, with its
trajectory.  `propagate_many` pads shorter grids with zero-length domains
and makes one kernel call for any list of cases, so every sweep is a
single integration.

Logic gates use phase coding: a bit b enters as an amplitude factor
(-1)**b, interfered with an equal zero-phase bias beam, and the gate
output is a threshold comparison on the second-harmonic (NOT) or
third-harmonic (CNOT target) output power.  All logic inputs make only
three distinct pumps (2A, 0, -2A).  Since (a1, a2, a3) -> (-a1, a2, -a3)
maps solutions to solutions exactly in floating point, calibration
propagates 2A alone in one kernel call.  Its SH and TH powers P2 and P3
are the bright levels of the 2A and -2A pumps, the dark level of the 0
pump is exactly 0, and `calibrated_gate` reads every gate output from
these levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not np.all(np.abs(signs) == 1.0):
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
    if not math.isfinite(total_length / domain_length):
        raise ValueError(f"domain count {total_length} / {domain_length} is not finite")
    n_full = int(total_length / domain_length)
    remainder = total_length - n_full * domain_length
    lengths = np.full(n_full + (remainder > 1e-12 * total_length), domain_length)
    lengths[n_full:] = remainder
    signs = np.ones(lengths.size)
    signs[1::2] = -1.0
    return DomainGrid(lengths, signs)


# The right-hand side is five coupling terms, each a product of two field
# factors (rows 0-2 of the factor table hold the conjugated fields, rows
# 3-5 the fields): conj(a1) a2, a1 a1, a1 a2 | conj(a2) a3, conj(a1) a3,
# added row by row into da1, da2, da3.  The term buffer's sixth row is -0,
# the exact additive identity, so da3 is a1 a2 + (-0) = a1 a2 bit for bit.
_FACTORS = np.array([0, 3, 3, 1, 0, 4, 3, 4, 5, 5])
# The five terms' phase factors e^{i dk z} are e^{i dkA z}, the conjugates
# of e^{i dkA z} and e^{i dkB z} (rows 1 and 2), and e^{i dkB z} twice.
_LEGS = np.array([0, 0, 1, 1, 1])
# Steps per block, and field cells (steps x columns) per block, at most:
# each block makes one phase table and one flux check, and a wide batch's
# tables stay cache-sized (16 steps at 81 columns measured fastest there).
_BLOCK = 128
_CELLS = 1296
# The widest batch whose steps run column by column on Python scalars:
# up to here numpy's per-call dispatch costs more than the arithmetic.
_NARROW = 6


def _same_bits(x):
    """Whether every column of x (last axis) has the bits of the first."""
    return bool((x.view(np.int64) == x[..., :1].view(np.int64)).all())


def _column_steps(fields, steps, coefficients):
    """One column's RK4 steps through a block, on Python complex scalars.

    fields is the column's [a1, a2, a3] and steps its [h / 2, h, h / 6]
    per step, h signed by the step's domain.  coefficients holds the five
    terms' coupling coefficients, in the order of rk4's term rows, at the
    block's start and then at every step's midpoint and end, interleaved.
    The expressions and their order are those of rk4's numpy step body.
    Uses no abs() or **, which raise OverflowError on huge finite values: a
    diverging column turns inf or nan, as in numpy.  Returns a1, a2, a3
    after each step, in one list.
    """
    x1, x2, x3 = fields
    p0, r0, t0, q0, s0 = coefficients[0]
    rows = []
    for (half, h, sixth), (p1, r1, t1, q1, s1), end in zip(steps, coefficients[1::2], coefficients[2::2]):
        b1 = x1.conjugate()
        k11 = b1 * x2 * p0 + x2.conjugate() * x3 * q0
        k12 = x1 * x1 * r0 + b1 * x3 * s0
        k13 = x1 * x2 * t0
        y1, y2, y3 = half * k11 + x1, half * k12 + x2, half * k13 + x3
        b1 = y1.conjugate()
        k21 = b1 * y2 * p1 + y2.conjugate() * y3 * q1
        k22 = y1 * y1 * r1 + b1 * y3 * s1
        k23 = y1 * y2 * t1
        y1, y2, y3 = half * k21 + x1, half * k22 + x2, half * k23 + x3
        b1 = y1.conjugate()
        k31 = b1 * y2 * p1 + y2.conjugate() * y3 * q1
        k32 = y1 * y1 * r1 + b1 * y3 * s1
        k33 = y1 * y2 * t1
        y1, y2, y3 = h * k31 + x1, h * k32 + x2, h * k33 + x3
        p0, r0, t0, q0, s0 = end
        b1 = y1.conjugate()
        k41 = b1 * y2 * p0 + y2.conjugate() * y3 * q0
        k42 = y1 * y1 * r0 + b1 * y3 * s0
        k43 = y1 * y2 * t0
        x1 += (2.0 * (k21 + k31) + k11 + k41) * sixth
        x2 += (2.0 * (k22 + k32) + k12 + k42) * sixth
        x3 += (2.0 * (k23 + k33) + k13 + k43) * sixth
        rows += x1, x2, x3
    return rows


@np.errstate(over="ignore", invalid="ignore")  # a diverged run raises at the end
def rk4(fields, signs, lengths, steps_per_domain, kappa_a, kappa_b, dk_a, dk_b, trajectory=False):
    """Fixed-step RK4 of B independent field triples, steps_per_domain steps per domain.

    fields is a (3, B) complex array.  The domain signs and lengths are
    (D, B), or (D, 1) for one grid shared by every column, and the
    couplings and mismatches are scalars or (B,).  Each domain takes
    steps_per_domain steps of its length / steps_per_domain, so no step
    straddles a domain boundary and the discontinuous sign profile keeps
    4th-order accuracy.  The steps of a zero-length domain are of size 0:
    the column's fields and z stay put, which pads shorter grids.

    The domain sign rides on the step: RK4 of s f with step h is RK4 of f
    with step s h, bit for bit, since s = +/-1 only flips signs and IEEE
    rounding mirrors them.  So each step reads its signed h / 2, h and h / 6
    from a per-domain table (step k lies in domain k // steps_per_domain),
    and a block is any run of at most _BLOCK consecutive steps and _CELLS
    field cells (steps x columns), across domain boundaries.  Per block, one
    np.exp gives e^{i dkA z} and e^{i dkB z} at the block's start and at
    every step's midpoint and end, the other three phase factors being
    their conjugates, and the photon flux N of the whole block is then
    checked for the Manley-Rowe drift.  The positions are running sums of
    the unsigned steps, bitwise those of z += h, so no output depends on
    where the blocks end.  Parallel beams through one crystal (every column
    with the bits of the first in its steps, dk_a and dk_b, as in a
    beam_amplitude or kappa_a sweep) share z and the phase factors as one
    column, broadcast into the coupling table.

    A batch of at most _NARROW columns steps each column through the block
    on Python scalars (_column_steps), reading its steps and its
    phase-and-coupling table as lists.  Wider batches step all columns at
    once with numpy ufuncs into buffers allocated once per call: da1, da2,
    da3 is one add of two contiguous blocks of term rows, and the signed
    steps are complex rows, which no multiply has to cast to x + 0j.  A step
    costs about 4 us on scalars against 30-50 us of numpy dispatch at width
    1, and numpy wins from about 7 columns up (_NARROW is the measured
    crossover).  The two bodies evaluate the same expressions in the same
    order, but numpy's SIMD complex multiply fuses a product into an add,
    so they agree to about 1e-16 relative, not bitwise.

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
    kappa_a, kappa_b, dk_a, dk_b = (
        np.broadcast_to(np.asarray(x, dtype=float), width) for x in (kappa_a, kappa_b, dk_a, dk_b)
    )
    # each domain's signed s h / 2, s h and s h / 6, which step the fields:
    # Python floats per column for the scalar body, complex rows for numpy
    step = np.asarray(lengths, dtype=float) / n
    signed = np.asarray(signs, dtype=float) * step
    narrow = width <= _NARROW
    table = np.empty((len(step), 3, width), dtype=float if narrow else complex)
    table[...] = np.stack((0.5 * signed, signed, signed / 6.0), axis=1)
    domain_steps = table.transpose(2, 0, 1).tolist() if narrow else [tuple(x) for x in table]
    # each domain's h and h / 2, which advance z: one column if all columns
    # have the same bits there and in dk (0.0 and -0.0 differ)
    if all(_same_bits(x) for x in (step, dk_a, dk_b)):
        step, dk_a, dk_b = step[:, :1], dk_a[:1], dk_b[:1]
    half_step, columns = 0.5 * step, step.shape[1]
    n_steps = len(step) * n
    block = max(1, min(_BLOCK, _CELLS // max(width, 1), n_steps))
    # i dk of e^{i dkA z} and e^{i dkB z}, and i kappa per coupling term
    phase = 1j * np.array([dk_a, dk_b])
    coupling = 1j * np.array([kappa_a, 0.5 * kappa_a, kappa_b, kappa_b, kappa_b])

    factors = np.empty((6, width), dtype=complex)
    conj_a, stage = factors[:3], factors[3:]
    pairs = np.empty((10, width), dtype=complex)
    left, right = pairs[:5], pairs[5:]
    terms = np.empty((6, width), dtype=complex)
    terms[5] = complex(-0.0, -0.0)
    products, firsts, seconds = terms[:5], terms[:3], terms[3:]
    k1, k2, k3, k4 = np.empty((4, 3, width), dtype=complex)
    # z after 0..m steps of a block (row 0 is the current z), the block's
    # start, then its midpoint and end positions interleaved, the coupling
    # coefficients there, and the fields after each step
    ends = np.zeros((block + 1, columns))
    points = np.empty((2 * block + 1, columns))
    couplings = np.empty((2 * block + 1, 5, width), dtype=complex)
    block_fields = np.empty((block, 3, width), dtype=complex)

    def derivs(c, out):
        # the stage input is already in the field rows
        np.conjugate(stage, out=conj_a)
        factors.take(_FACTORS, axis=0, out=pairs, mode="clip")
        np.multiply(left, right, out=products)
        np.multiply(products, c, out=products)
        np.add(firsts, seconds, out=out)

    def flux(a):
        # elementwise, so a column's flux does not depend on the batch width
        p = np.abs(a) ** 2
        return p[..., 0, :] + 2.0 * p[..., 1, :] + 3.0 * p[..., 2, :]

    n0 = flux(a)
    worst = np.zeros(width)
    zs = samples = None
    if trajectory:
        zs = np.zeros((1 + n_steps, width))
        samples = np.empty((zs.shape[0], 3, width), dtype=complex)
        samples[0] = a
    for k in range(0, n_steps, block):
        m = min(block, n_steps - k)
        z, pts = ends[: m + 1], points[: 2 * m + 1]
        index = np.arange(k, k + m) // n  # the domain of each step
        z[1:] = step[index]
        np.add.accumulate(z, axis=0, out=z)
        pts[0] = z[0]
        np.add(z[:-1], half_step[index], out=pts[1::2])
        pts[2::2] = z[1:]
        e = np.exp(phase * pts[:, None, :]).take(_LEGS, axis=1)
        np.conjugate(e[:, 1:3], out=e[:, 1:3])
        ce = np.multiply(coupling, e, out=couplings[: 2 * m + 1])
        rows = samples[k + 1 : k + 1 + m] if trajectory else block_fields[:m]
        step_domains = index.tolist()
        if narrow:
            for j, (column_steps, coefficients) in enumerate(zip(domain_steps, ce.transpose(2, 0, 1).tolist())):
                column = _column_steps(a[:, j].tolist(), [column_steps[d] for d in step_domains], coefficients)
                rows[:, :, j] = np.fromiter(column, complex, 3 * m).reshape(m, 3)
                a[:, j] = column[-3:]
        else:
            for row, c_start, c_mid, c_end, d in zip(rows, ce[0::2], ce[1::2], ce[2::2], step_domains):
                half, h, sixth = domain_steps[d]
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

    p2 and p3 are the SH and TH output powers of the bright pumps, 2A and
    -2A, which inputs with 0 or 2 one-bits make; the dark pump 0 of inputs
    with one one-bit gives exactly 0 in both channels.
    """

    p_th2: float
    p_th3: float
    separation_sh: float
    separation_th: float
    p2: float
    p3: float


def _separation(p, threshold):
    # p over the dark floor; 0 for a channel without a threshold, not (0 / 0) ** 2
    return (p / threshold) ** 2 if threshold > 0.0 else 0.0


def calibrate_thresholds(
    grid: DomainGrid,
    params: CoupledModeParams,
    beam_amplitude: float,
    steps_per_domain: int = DEFAULT_STEPS_PER_DOMAIN,
    gates=("NOT", "CNOT"),
) -> LogicThresholds:
    """Simulate all logic inputs and place thresholds between the levels.

    The logic inputs make three distinct pumps (2A, 0 and -2A for beam
    amplitude A).  Only 2A is propagated: (a1, a2, a3) -> (-a1, a2, -a3)
    maps solutions to solutions exactly in floating point, so -2A exits
    with bitwise the powers of 2A, and 0 stays exactly 0.  A gate thus
    reads right if and only if its threshold lies in (0, p], p the bright
    level of its channel.  Each threshold is p * 1e-15, the geometric mean
    of p and a dark floor p * 1e-30 in exact arithmetic, and the separation
    (p / threshold) ** 2 is p over that floor, finite and at most about 4e30.
    A threshold is 0 if its bright level is 0 (every TH level without SFG,
    kappa_b = 0) or below about 2.5e-309 (the TH level at beam amplitudes
    below about 3e-51 on the default crystal); its separation is then 0.
    Raises CalibrationError if and only if a channel read by one of gates
    has a zero threshold: SH for "NOT", TH for "CNOT".  Thresholds are only
    valid for this beam amplitude.
    """
    if beam_amplitude <= 0:
        raise ValueError("beam_amplitude must be positive")

    final = propagate_many([(FieldTriple(2.0 * beam_amplitude, 0.0, 0.0), grid, params)], steps_per_domain)[0]
    p2, p3 = (float(x) for x in np.abs(final[1:, 0]) ** 2)
    p_th2, p_th3 = p2 * 1e-15, p3 * 1e-15
    thresholds = {"NOT": p_th2, "CNOT": p_th3}
    if any(thresholds[gate] == 0.0 for gate in gates):
        raise CalibrationError(
            f"logic levels not separable: SH bright={p2:.3e} dark=0.000e+00, TH bright={p3:.3e} dark=0.000e+00"
        )
    return LogicThresholds(p_th2, p_th3, _separation(p2, p_th2), _separation(p3, p_th3), p2, p3)


def calibrated_gate(inputs, cal: LogicThresholds):
    """NOT (one input bit) or CNOT (two) read from the calibration's own levels.

    The inputs select their pump's exit powers P2(L) and P3(L): the bright
    levels for 0 or 2 one-bits, 0 for one.  NOT outputs 1 iff
    P2(L) >= p_th2.  CNOT passes the control through; equal bits interfere
    constructively and drive the cascaded third harmonic high, so the XOR
    target is 1 iff P3(L) < p_th3.  Raises CalibrationError if the channel
    read has a zero threshold, which no level crosses.
    """
    if len(inputs) not in (1, 2) or any(x not in (0, 1) for x in inputs):
        raise ValueError(f"gate inputs must be one or two bits, each 0 or 1, got {tuple(inputs)}")
    if (cal.p_th2 if len(inputs) == 1 else cal.p_th3) == 0.0:
        channel = "SH" if len(inputs) == 1 else "TH"
        raise CalibrationError(f"logic levels not separable: {channel} threshold is 0")
    bright = sum(inputs) != 1
    if len(inputs) == 1:
        return (1 if (cal.p2 if bright else 0.0) >= cal.p_th2 else 0,)
    return int(inputs[0]), 1 if (cal.p3 if bright else 0.0) < cal.p_th3 else 0
