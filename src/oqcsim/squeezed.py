"""Photon statistics of displaced squeezed states.

Closed-form mean/variance of the photon number, the Mandel Q parameter
and g2(0), and the photon-number distribution from exact number-basis
amplitudes, an independent check on the closed forms.  Conventions:
S(xi) = exp((xi* a^2 - xi a^dag^2)/2) with xi = r e^{i theta},
D(alpha) = exp(alpha a^dag - alpha* a), state |alpha, xi> = D(alpha) S(xi) |0>,
vacuum quadrature variance 1/4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CUTOFF = 400
# |psi_n| is divided by 2**_RESCALE_BITS whenever it passes that.
_RESCALE_BITS = 256
_RESCALE = 2.0**_RESCALE_BITS
_LN2 = math.log(2.0)
# Recurrence indices per coefficient table of fock_distribution.
_BLOCK = 4096


class CutoffError(ValueError):
    """Truncation too small: probability mass leaks past the cutoff."""


@dataclass(frozen=True)
class SqueezedStateParams:
    """A displaced squeezed state; it keeps the photon statistics its validation computes."""

    alpha: complex
    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {self.r}")
        if not (math.isfinite(self.theta) and math.isfinite(abs(complex(self.alpha)))):
            raise ValueError("parameters must be finite")
        try:
            stats = _statistics(self)
            # only the vacuum's Mandel Q and g2(0) are nan by definition; any
            # other state with a zero mean has a mean that underflowed
            vacuum = complex(self.alpha) == 0 and self.r == 0.0
            finite = all(map(math.isfinite, stats[:2] if vacuum else stats))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                "photon-number statistics out of float range: mean, variance, Mandel Q or g2(0)"
            )
        object.__setattr__(self, "_stats", PhotonStatistics(*stats))


@dataclass(frozen=True)
class PhotonStatistics:
    mean_n: float
    var_n: float
    mandel_q: float  # nan for the vacuum
    g2_zero: float  # nan for the vacuum


def _statistics(s: SqueezedStateParams):
    """Photon-number mean, variance, Mandel Q and g2(0); an overflow gives inf or raises OverflowError."""
    alpha = complex(s.alpha)
    ch, sh = math.cosh(s.r), math.sinh(s.r)
    mean_n = abs(alpha) ** 2 + sh**2
    var_n = abs(alpha * ch - alpha.conjugate() * cmath.exp(1j * s.theta) * sh) ** 2 + 2 * ch**2 * sh**2
    if mean_n > 0.0:
        q = (var_n - mean_n) / mean_n
        g2 = 1.0 + q / mean_n
    else:
        q = math.nan
        g2 = math.nan
    return mean_n, var_n, q, g2


def closed_form_stats(s: SqueezedStateParams) -> PhotonStatistics:
    """Exact photon-number mean/variance of a displaced squeezed state, as computed when s was made."""
    return s._stats


def fock_distribution(s: SqueezedStateParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Photon-number probabilities p(0..cutoff) from exact amplitudes.

    The amplitudes psi_n = <n|alpha, xi> obey Yuen's three-term recurrence
    (PRA 13, 2226, 1976), from the eigen-relation of a cosh r + a^dag
    e^{i theta} sinh r with eigenvalue gamma:
    psi_{n+1} = (gamma psi_n - c_n psi_{n-1}) / d_n,
    c_n = e^{i theta} sinh r sqrt(n), d_n = cosh r sqrt(n+1),
    psi_0 = exp(-|alpha|^2/2 - alpha*^2 e^{i theta} tanh r / 2) / sqrt(cosh r).
    The coefficients do not depend on the amplitudes, so they come from
    one np.sqrt table per block of at most _BLOCK indices (whole-cutoff
    tables would double the peak memory at large cutoffs).  psi_0
    underflows for |alpha| above about 38, so the loop starts from
    psi_0 / |psi_0| and divides by _RESCALE whenever |psi_n| passes it,
    recording only the indices where that happens.  Every factor is
    rounded as in the per-step recurrence (np.sqrt and math.sqrt are both
    correctly rounded, and a complex times a real rounds alike in numpy
    and Python), so the amplitudes are bitwise those of the per-step loop.
    With 2 Re log psi_0 = q ln 2 + rem, p_n = |psi_n|^2 e^rem 2^(q + 2 k_n
    _RESCALE_BITS) after k_n rescales: one rounded factor for every bin and
    an exact power of two, where a float log scale would round to an error
    of about ulp(|alpha|^2) shared by every bin above it.  The
    normalization deficit and the top-bin mass serve as the tail check.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    alpha = complex(s.alpha)
    ch, sh = math.cosh(s.r), math.sinh(s.r)
    phase = cmath.exp(1j * s.theta)
    gamma = alpha * ch + alpha.conjugate() * phase * sh
    log_psi0 = -0.5 * abs(alpha) ** 2 - 0.5 * alpha.conjugate() ** 2 * phase * math.tanh(s.r)
    prev, psi = 0.0, cmath.exp(1j * log_psi0.imag) / math.sqrt(ch)
    amplitudes, rescaled_at = [psi], []
    for start in range(0, cutoff, _BLOCK):
        roots = np.sqrt(np.arange(start, min(start + _BLOCK, cutoff) + 1))
        for c, d in zip((phase * sh * roots[:-1]).tolist(), (ch * roots[1:]).tolist()):
            prev, psi = psi, (gamma * psi - c * prev) / d
            if abs(psi) > _RESCALE:
                prev, psi = prev / _RESCALE, psi / _RESCALE
                rescaled_at.append(len(amplitudes))
            amplitudes.append(psi)
    log_p0 = 2.0 * log_psi0.real
    # q is kept within int64: below log_p0 = -2e9, e^rem is 0 (nan where an amplitude overflowed)
    q = round(max(log_p0, -2e9) / _LN2)
    exponents = [q + 2 * _RESCALE_BITS * k for k in range(len(rescaled_at) + 1)]
    # amplitudes near |alpha| ~ 1e150 overflow here; the nan tail raises below
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.abs(amplitudes) ** 2
        del amplitudes  # five times the size of p: the exponents reuse its memory
        p *= np.exp(log_p0 - q * _LN2)
        np.ldexp(p, np.repeat(exponents, np.diff([0, *rescaled_at, cutoff + 1])), out=p)
    tail = max(abs(1.0 - p.sum()), float(p[-1]))
    if not tail <= 1e-10:
        raise CutoffError(f"tail mass {tail:.3e} exceeds 1e-10 at cutoff {cutoff}")
    return p


def distribution_moments(p: np.ndarray):
    """(mean, variance) of a photon-number distribution."""
    n = np.arange(len(p))
    mean = float(np.dot(n, p))
    var = float(np.dot(n**2, p)) - mean**2
    return mean, var


def quadrature_variance(s: SqueezedStateParams, phi: float) -> float:
    """Variance of X_phi = (a e^{-i phi} + a^dag e^{i phi}) / 2.

    Independent of the displacement; minimal value exp(-2r)/4 along the
    squeeze axis phi = theta/2, maximal exp(+2r)/4 orthogonal to it.
    """
    x = phi - s.theta / 2.0
    return 0.25 * (math.exp(-2 * s.r) * math.cos(x) ** 2 + math.exp(2 * s.r) * math.sin(x) ** 2)
