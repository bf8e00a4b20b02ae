"""Photon statistics of displaced squeezed states.

Closed-form mean/variance of the photon number, the Mandel Q parameter
and g2(0), cross-checked elsewhere against a truncated number-basis
construction.  Conventions: S(xi) = exp((xi* a^2 - xi a^dag^2)/2) with
xi = r e^{i theta}, D(alpha) = exp(alpha a^dag - alpha* a), state
|alpha, xi> = D(alpha) S(xi) |0>, vacuum quadrature variance 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CUTOFF = 400


class CutoffError(ValueError):
    """Truncation too small: probability mass leaks past the cutoff."""


@dataclass(frozen=True)
class SqueezedStateParams:
    alpha: complex
    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {self.r}")
        if not (math.isfinite(self.theta) and math.isfinite(abs(complex(self.alpha)))):
            raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class PhotonStatistics:
    mean_n: float
    var_n: float
    mandel_q: float  # nan when mean_n == 0
    g2_zero: float  # nan when mean_n == 0


def closed_form_stats(s: SqueezedStateParams) -> PhotonStatistics:
    """Exact photon-number mean/variance of a displaced squeezed state."""
    alpha = complex(s.alpha)
    ch, sh = math.cosh(s.r), math.sinh(s.r)
    mean_n = abs(alpha) ** 2 + sh**2
    var_n = abs(alpha * ch - alpha.conjugate() * np.exp(1j * s.theta) * sh) ** 2 + 2 * ch**2 * sh**2
    if mean_n > 0.0:
        q = (var_n - mean_n) / mean_n
        g2 = 1.0 + q / mean_n
    else:
        q = math.nan
        g2 = math.nan
    return PhotonStatistics(mean_n, var_n, q, g2)


def fock_distribution(s: SqueezedStateParams, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Photon-number probabilities p(0..cutoff) from the truncated basis.

    Builds D(alpha) S(xi) |0> as the action of two matrix exponentials on
    the vacuum (Al-Mohy & Higham 2011), each generator a sparse matrix on
    the truncated basis: the squeeze generator has the two off-diagonals
    of a^2 and a^dag^2, the displacement generator those of a and a^dag.
    The normalization deficit and the top-bin mass serve as the tail check.
    """
    # scipy loads here, not at import, so `import oqcsim` needs numpy only
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    dim = cutoff + 1
    n = np.arange(1.0, dim)
    a = diags(np.sqrt(n), 1, shape=(dim, dim))
    a2 = diags(np.sqrt(n[1:] * n[:-1]), 2, shape=(dim, dim))
    xi = s.r * np.exp(1j * s.theta)
    alpha = complex(s.alpha)
    squeeze = 0.5 * (np.conj(xi) * a2 - xi * a2.T)
    displace = alpha * a.T - np.conj(alpha) * a
    vacuum = np.zeros(dim, dtype=complex)
    vacuum[0] = 1.0
    # expm_multiply estimates operator norms with random probe vectors from
    # numpy's global generator, and the estimate picks the Taylor degree, so
    # the last bits of psi depend on that state: fix it for the call, then
    # hand the caller's state back.
    state = np.random.get_state()
    np.random.seed(0)
    try:
        psi = expm_multiply(displace, expm_multiply(squeeze, vacuum))
    finally:
        np.random.set_state(state)
    p = np.abs(psi) ** 2
    tail = max(abs(1.0 - p.sum()), float(p[-1]))
    if tail > 1e-10:
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
