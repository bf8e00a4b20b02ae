import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from oqcsim.squeezed import (
    CutoffError,
    SqueezedStateParams,
    closed_form_stats,
    distribution_moments,
    fock_distribution,
    quadrature_variance,
)


def _annihilation(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


# GRID below holds 27 states but only 9 squeezes and 3 displacements, so
# each dense expm factor is built once, keyed by its own parameters.
@functools.lru_cache(maxsize=None)
def _squeezed_vacuum(r, theta, dim):
    a = _annihilation(dim)
    ad = a.T
    xi = r * np.exp(1j * theta)
    return expm(0.5 * (np.conj(xi) * (a @ a) - xi * (ad @ ad)))[:, 0].copy()


@functools.lru_cache(maxsize=None)
def _displacement(alpha, dim):
    a = _annihilation(dim)
    return expm(alpha * a.T - np.conj(alpha) * a)


def fock_state_vector(s, dim):
    """Independent number-basis construction of D(alpha) S(xi) |0>."""
    return _displacement(complex(s.alpha), dim) @ _squeezed_vacuum(s.r, s.theta, dim)


def test_coherent_state_limit():
    st = closed_form_stats(SqueezedStateParams(2.0, 0.0))
    assert st.mean_n == pytest.approx(4.0, abs=1e-14)
    assert st.var_n == pytest.approx(4.0, abs=1e-14)
    assert st.mandel_q == pytest.approx(0.0, abs=1e-14)
    assert st.g2_zero == pytest.approx(1.0, abs=1e-14)


def test_squeezed_vacuum_super_poissonian():
    r = 1.0
    s = SqueezedStateParams(0.0, r)
    st = closed_form_stats(s)
    assert st.mean_n == pytest.approx(math.sinh(r) ** 2, rel=1e-14)
    assert st.var_n == pytest.approx(2 * math.cosh(r) ** 2 * math.sinh(r) ** 2, rel=1e-14)
    # Q = var/mean - 1 = 2*cosh(r)^2 - 1 = cosh(2r) > 0
    assert st.mandel_q == pytest.approx(math.cosh(2 * r), rel=1e-13)
    # cross-check against the truncated number-basis oracle
    mean, var = distribution_moments(fock_distribution(s, 120))
    assert abs(mean - st.mean_n) < 1e-8
    assert abs(var - st.var_n) < 1e-8


def test_amplitude_squeezed_is_sub_poissonian():
    s = SqueezedStateParams(3.0, 0.5, 0.0)
    st = closed_form_stats(s)
    assert st.mandel_q < 0.0
    assert st.g2_zero < 1.0
    mean, var = distribution_moments(fock_distribution(s))
    assert abs(mean - st.mean_n) < 1e-8
    assert abs(var - st.var_n) < 1e-8


def test_vacuum_statistics_undefined():
    st = closed_form_stats(SqueezedStateParams(0.0, 0.0))
    assert st.mean_n == 0.0
    assert math.isnan(st.mandel_q)
    assert math.isnan(st.g2_zero)


def test_poissonian_boundary():
    for alpha in (0.5, 1.0 + 1.0j, -2.0):
        st = closed_form_stats(SqueezedStateParams(alpha, 0.0, 0.7))
        assert st.mandel_q == pytest.approx(0.0, abs=1e-12)


def test_coherent_fock_distribution_is_poisson():
    p = fock_distribution(SqueezedStateParams(1.0, 0.0), 60)
    n = np.arange(len(p))
    poisson = np.exp(-1.0) / np.array([math.factorial(int(k)) for k in n])
    assert np.max(np.abs(p - poisson)) < 1e-9


@pytest.mark.parametrize("r", [0.3, 0.8, 1.4])
def test_squeezed_vacuum_has_no_odd_photons(r):
    p = fock_distribution(SqueezedStateParams(0.0, r, 1.1))
    assert np.max(p[1::2]) < 1e-10


def test_distribution_normalized():
    p = fock_distribution(SqueezedStateParams(2.0 + 1.0j, 1.0, 0.4))
    assert abs(p.sum() - 1.0) < 1e-9


def test_insufficient_cutoff_raises():
    with pytest.raises(CutoffError):
        fock_distribution(SqueezedStateParams(3.0, 1.5), 10)


def test_moments_match_closed_form_over_grid():
    # subset of the full acceptance grid, kept quick
    for mag in (0.0, 1.5, 3.0):
        for r in (0.0, 0.75, 1.5):
            for theta in (0.0, math.pi / 2):
                s = SqueezedStateParams(mag, r, theta)
                st = closed_form_stats(s)
                mean, var = distribution_moments(fock_distribution(s))
                assert abs(mean - st.mean_n) < 1e-8
                assert abs(var - st.var_n) < 1e-8


GRID = [
    SqueezedStateParams(mag * np.exp(0.7j), r, theta)
    for mag, r, theta in itertools.product((0.0, 1.5, 3.0), (0.0, 0.75, 1.5), (0.0, math.pi / 2, 2.0))
]
CONVERGED_DIM = 401


@pytest.fixture(scope="module")
def converged_probabilities():
    """Dense-reference probabilities at dimension 401, built once per state."""
    cache = {}

    def probabilities(s):
        if s not in cache:
            cache[s] = np.abs(fock_state_vector(s, CONVERGED_DIM)) ** 2
        return cache[s]

    return probabilities


def _reference_or_cutoff_error(p, cutoff):
    """The converged probabilities up to cutoff, or None where the tail check must fail."""
    want = p[: cutoff + 1]
    return want if max(abs(1.0 - want.sum()), want[-1]) <= 1e-10 else None


@pytest.mark.parametrize("cutoff", [60, 120, 400])
def test_fock_distribution_matches_dense_reference(converged_probabilities, cutoff):
    for s in GRID:
        want = _reference_or_cutoff_error(converged_probabilities(s), cutoff)
        if want is None:
            with pytest.raises(CutoffError):
                fock_distribution(s, cutoff)
        else:
            assert np.max(np.abs(fock_distribution(s, cutoff) - want)) <= 1e-12, (s, cutoff)


@pytest.mark.parametrize(
    "s,cutoff",
    [
        (SqueezedStateParams(0.0, 0.0), 400),
        (SqueezedStateParams(0.0, 0.0), 1),
        (SqueezedStateParams(1.5 - 0.5j, 0.0, 2.0), 120),
    ],
    ids=["vacuum-400", "vacuum-1", "coherent-zero-squeeze"],
)
def test_fock_distribution_zero_generator_edges(converged_probabilities, s, cutoff):
    p = fock_distribution(s, cutoff)
    assert p.shape == (cutoff + 1,)
    want = _reference_or_cutoff_error(converged_probabilities(s), cutoff)
    assert np.max(np.abs(p - want)) <= 1e-12


@pytest.mark.parametrize("cutoff", [1, 3])
def test_squeezed_vacuum_below_its_tail_raises(cutoff):
    # 23% and 7% of the mass lie above n = 1 and n = 3; a norm-keeping
    # truncation would hide that, since the odd top bin is empty either way
    with pytest.raises(CutoffError):
        fock_distribution(SqueezedStateParams(0.0, 0.75), cutoff)


@pytest.mark.parametrize("mag", [39.0, 50.0])
def test_large_displacement_past_vacuum_underflow(mag):
    # |<0|alpha, xi>|^2 underflows to 0 here; the distribution must not
    s = SqueezedStateParams(mag * np.exp(0.3j), 0.4, 1.0)
    st = closed_form_stats(s)
    mean, var = distribution_moments(fock_distribution(s, 4000))
    assert mean == pytest.approx(st.mean_n, rel=1e-8)
    assert var == pytest.approx(st.var_n, rel=1e-8)


def test_fock_distribution_independent_of_global_random_state():
    # the recurrence draws nothing at random: it neither reads nor moves
    # numpy's global generator
    s = SqueezedStateParams(3.0, 1.2, 2.0)
    outputs = set()
    for seed in range(6):
        np.random.seed(seed)
        outputs.add(fock_distribution(s).tobytes())
        drawn = np.random.random()
        np.random.seed(seed)
        assert drawn == np.random.random()  # the caller's stream is untouched
    assert len(outputs) == 1


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from oqcsim import cli, squeezed
p = squeezed.fock_distribution(squeezed.SqueezedStateParams(1.0 + 0.5j, 0.7, 0.9))
assert abs(p.sum() - 1.0) < 1e-10
sys.exit(cli.main(["run", "--config", sys.argv[1]]))
"""


def test_import_oqcsim_does_not_load_scipy(tmp_path):
    cfg = tmp_path / "stats.json"
    params = {"alpha": [1.0, 0.5], "r": 0.7, "distribution": True}
    cfg.write_text(json.dumps({"backend": "stats", "parameters": params}))
    root = Path(__file__).parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, str(cfg)],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "n,p" and len(lines) == 402


def test_quadrature_variance_vacuum():
    for phi in np.linspace(0, 2 * math.pi, 9):
        assert quadrature_variance(SqueezedStateParams(0.0, 0.0), phi) == pytest.approx(0.25)


def test_quadrature_variance_on_squeeze_axis():
    assert quadrature_variance(SqueezedStateParams(0.0, 1.0), 0.0) == pytest.approx(
        math.exp(-2) / 4, rel=1e-14
    )


def test_quadrature_variance_independent_of_alpha():
    for alpha in (0.0, 2.0, 1.0 - 2.0j):
        v = quadrature_variance(SqueezedStateParams(alpha, 0.6, 0.8), 0.3)
        assert v == pytest.approx(
            quadrature_variance(SqueezedStateParams(0.0, 0.6, 0.8), 0.3), rel=1e-14
        )


def test_quadrature_variance_matches_fock_oracle():
    s = SqueezedStateParams(1.0 + 0.5j, 0.7, 0.9)
    dim = 120
    psi = fock_state_vector(s, dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ad = a.T
    for phi in (0.0, 0.3, 1.1, 2.5):
        x = 0.5 * (a * np.exp(-1j * phi) + ad * np.exp(1j * phi))
        ex = np.vdot(psi, x @ psi).real
        ex2 = np.vdot(psi, x @ (x @ psi)).real
        assert abs((ex2 - ex**2) - quadrature_variance(s, phi)) < 1e-10


def test_uncertainty_product_is_minimal():
    for r in (0.0, 0.5, 1.2):
        s = SqueezedStateParams(1.0, r, 0.4)
        vmin = quadrature_variance(s, s.theta / 2)
        vmax = quadrature_variance(s, s.theta / 2 + math.pi / 2)
        assert abs(vmin * vmax - 1.0 / 16.0) < 1e-12


def test_parameter_validation():
    with pytest.raises(ValueError):
        SqueezedStateParams(0.0, -0.1)
    with pytest.raises(ValueError):
        SqueezedStateParams(0.0, math.nan)
    with pytest.raises(ValueError):
        fock_distribution(SqueezedStateParams(0.0, 0.1), 0)
