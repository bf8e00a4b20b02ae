import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from oqcsim import cli, rds
from oqcsim.rds import CoupledModeParams, DomainGrid, FieldTriple, Trajectory


# The scalar RK4 loop the batched kernel replaced, kept as its reference.


def _derivs(z, a1, a2, a3, s, p):
    ea = cmath.exp(1j * p.dk_a * z)
    eb = cmath.exp(1j * p.dk_b * z)
    d1 = 1j * s * (p.kappa_a * a1.conjugate() * a2 * ea + p.kappa_b * a2.conjugate() * a3 * eb)
    d2 = 1j * s * (0.5 * p.kappa_a * a1 * a1 * ea.conjugate() + p.kappa_b * a1.conjugate() * a3 * eb)
    d3 = 1j * s * (p.kappa_b * a1 * a2 * eb.conjugate())
    return d1, d2, d3


def reference_propagate(
    fields: FieldTriple, grid: DomainGrid, params: CoupledModeParams, steps_per_domain: int
) -> Trajectory:
    """Fixed-step RK4 through the grid, steps_per_domain steps in every domain.

    Steps never cross a domain boundary, preserving 4th-order accuracy
    across the discontinuous sign profile.
    """
    a1, a2, a3 = complex(fields.a1), complex(fields.a2), complex(fields.a3)
    z = 0.0
    zs = [0.0]
    traj = [(a1, a2, a3)]
    for length, s in zip(grid.lengths, grid.signs):
        n_steps = steps_per_domain
        h = length / n_steps
        for _ in range(n_steps):
            k1 = _derivs(z, a1, a2, a3, s, params)
            k2 = _derivs(
                z + 0.5 * h,
                a1 + 0.5 * h * k1[0], a2 + 0.5 * h * k1[1], a3 + 0.5 * h * k1[2],
                s, params,
            )
            k3 = _derivs(
                z + 0.5 * h,
                a1 + 0.5 * h * k2[0], a2 + 0.5 * h * k2[1], a3 + 0.5 * h * k2[2],
                s, params,
            )
            k4 = _derivs(
                z + h,
                a1 + h * k3[0], a2 + h * k3[1], a3 + h * k3[2],
                s, params,
            )
            a1 += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            a2 += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            a3 += h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            z += h
            zs.append(z)
            traj.append((a1, a2, a3))
    return Trajectory(np.array(zs), np.array(traj, dtype=complex))


def sinc(x):
    return np.sinc(x / np.pi)


def undepleted_sh_power(kappa_a, a1, length, dk):
    """Closed-form undepleted-pump second-harmonic power."""
    return (kappa_a / 2) ** 2 * abs(a1) ** 4 * length**2 * sinc(dk * length / 2) ** 2


def single_domain(length):
    return rds.DomainGrid(np.array([length]), np.array([1.0]))


# A batch this wide takes the numpy step body, a narrower one the scalar body.
WIDE = rds._NARROW + 1


def test_zero_fields_stay_exactly_zero():
    p = rds.default_params()
    grid = rds.default_grid(p, n_domains=5)
    traj = rds.propagate(rds.FieldTriple(0.0, 0.0, 0.0), grid, p)
    assert np.all(traj.fields == 0.0)
    final, drift, _, samples = rds.rk4(
        np.zeros((3, WIDE)), grid.signs[:, None], grid.lengths[:, None], rds.DEFAULT_STEPS_PER_DOMAIN,
        p.kappa_a, p.kappa_b, p.dk_a, p.dk_b, trajectory=True,
    )
    assert np.all(samples == 0.0) and np.all(final == 0.0) and np.all(drift == 0.0)


def test_undepleted_oracle_phase_matched():
    kappa_a, length = 1.0, 1e-2  # kappa_a * |a1| * L = 1e-2
    p = rds.CoupledModeParams(kappa_a, 0.0, 0.0, 0.0)
    traj = rds.propagate(rds.FieldTriple(1.0, 0.0, 0.0), single_domain(length), p, 200)
    expected = undepleted_sh_power(kappa_a, 1.0, length, 0.0)
    assert abs(abs(traj.final.a2) ** 2 - expected) / expected < 0.01


def test_undepleted_oracle_mismatched_oscillation():
    kappa_a, dk = 1.0, 50.0
    length = 3 * 2 * math.pi / dk  # three full oscillation periods
    p = rds.CoupledModeParams(kappa_a, 0.0, dk, 0.0)
    traj = rds.propagate(
        rds.FieldTriple(0.05, 0.0, 0.0), single_domain(length), p, 3000
    )
    p2 = np.abs(traj.fields[:, 1]) ** 2
    peak_expected = undepleted_sh_power(kappa_a, 0.05, math.pi / dk, dk)
    assert abs(p2.max() - peak_expected) / peak_expected < 0.01
    # spatial period 2*pi/|dk|: power returns near zero at each period
    period = 2 * math.pi / dk
    for k in (1, 2, 3):
        i = int(np.argmin(np.abs(traj.z - k * period)))
        assert p2[i] < 1e-3 * peak_expected


def test_qpm_domain_length():
    assert rds.qpm_domain_length(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert rds.qpm_domain_length(2 * math.pi * 1e4) == pytest.approx(5e-5, rel=1e-12)
    with pytest.raises(rds.PhaseMatchedError):
        rds.qpm_domain_length(0.0)


def test_make_periodic_grid_exact_fit():
    grid = rds.make_periodic_grid(1.0, 0.25)
    assert np.allclose(grid.lengths, [0.25] * 4)
    assert np.array_equal(grid.signs, [1.0, -1.0, 1.0, -1.0])
    assert grid.total_length == pytest.approx(1.0, abs=1e-15)


def test_make_periodic_grid_truncated_tail():
    grid = rds.make_periodic_grid(1.0, 0.3)
    assert np.allclose(grid.lengths, [0.3, 0.3, 0.3, 0.1])
    assert grid.total_length == pytest.approx(1.0, abs=1e-15)


def test_make_periodic_grid_rejects_short_total():
    with pytest.raises(ValueError):
        rds.make_periodic_grid(0.1, 0.25)


@pytest.mark.parametrize("total,domain", [(math.inf, 1.0), (math.inf, math.inf), (1.0, 5e-324)])
def test_make_periodic_grid_rejects_an_infinite_domain_count(total, domain):
    with pytest.raises(ValueError, match="is not finite"):
        rds.make_periodic_grid(total, domain)


def test_grid_validation():
    with pytest.raises(ValueError):
        rds.DomainGrid(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        rds.DomainGrid(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        rds.DomainGrid(np.array([1.0]), np.array([2.0]))
    for length in (np.inf, np.nan):
        with pytest.raises(ValueError):
            rds.DomainGrid(np.array([1.0, length]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("sign", [math.nan, math.inf, -math.inf, 0.0, -0.0, 2.0])
def test_grid_rejects_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        rds.DomainGrid(np.array([1.0, 1.0]), np.array([1.0, sign]))


def test_periodic_grid_is_bitwise_the_list_built_grid():
    # the arrays make_periodic_grid built from Python lists, one domain at a time
    def list_built(total_length, domain_length):
        n_full = int(total_length / domain_length)
        remainder = total_length - n_full * domain_length
        lengths = [domain_length] * n_full
        if remainder > 1e-12 * total_length:
            lengths.append(remainder)
        return np.array(lengths), np.array([(-1) ** i for i in range(len(lengths))], dtype=float)

    partial = 0
    for n in range(1, 301):
        domain_length = rds.qpm_domain_length(2 * math.pi * (500 + 7 * n))
        for extra in (0.0, 0.37):
            grid = rds.make_periodic_grid((n + extra) * domain_length, domain_length)
            lengths, signs = list_built((n + extra) * domain_length, domain_length)
            assert grid.lengths.tobytes() == lengths.tobytes() and grid.signs.tobytes() == signs.tobytes(), (n, extra)
            partial += grid.n_domains > n
    assert partial >= 300  # every grid with extra = 0.37 ends in a remainder domain


def test_grid_file_roundtrip(tmp_path):
    periodic = rds.make_periodic_grid(1.0, 0.3)
    grid = DomainGrid(periodic.lengths, -periodic.signs)  # first domain negative
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{length:.17g} {int(sign):+d}\n" for length, sign in zip(grid.lengths, grid.signs)))
    loaded = rds.DomainGrid.load(path)
    assert np.array_equal(loaded.lengths, grid.lengths)
    assert np.array_equal(loaded.signs, grid.signs)


def test_propagate_rejects_bad_step():
    p = rds.default_params()
    shg = rds.CoupledModeParams(1.0, 0.0, p.dk_a, 0.0)
    grid = rds.default_grid(p, n_domains=2)
    for steps_per_domain in (0, -1, 2.5):
        with pytest.raises(ValueError):
            rds.propagate(rds.FieldTriple(0.1, 0, 0), grid, p, steps_per_domain)
        with pytest.raises(ValueError):
            rds.propagate_many([(rds.FieldTriple(0.1, 0, 0), grid, p)], steps_per_domain)
        with pytest.raises(ValueError):
            rds.calibrate_thresholds(grid, p, 0.1, steps_per_domain)
        with pytest.raises(ValueError):
            rds.qpm_enhancement_check(shg, 2, steps_per_domain)


def test_manley_rowe_drift_default_config():
    p = rds.default_params()
    grid = rds.default_grid(p)
    traj = rds.propagate(rds.FieldTriple(0.2, 0.0, 0.0), grid, p)
    n = traj.manley_rowe()
    assert np.max(np.abs(n - n[0])) / n[0] < 1e-8


def test_step_halving_fourth_order_convergence():
    # strong-coupling configuration so truncation error dominates roundoff
    p = rds.CoupledModeParams(1.0, 1.0, math.pi / 0.5, math.pi / 0.5)
    grid = rds.make_periodic_grid(2.0, 0.5)

    def drift(steps_per_domain):
        traj = rds.propagate(rds.FieldTriple(1.2, 0.0, 0.0), grid, p, steps_per_domain)
        n = traj.manley_rowe()
        return np.max(np.abs(n - n[0])) / n[0]

    d_coarse = drift(8)
    d_fine = drift(16)
    exponent = math.log2(d_coarse / d_fine)
    assert 3.5 <= exponent <= 4.5


def test_rk4_is_fourth_order_to_its_pinned_error():
    # powers P2, P3 of a 20-domain default grid against 256 steps per domain
    p = rds.default_params()
    case = [(rds.FieldTriple(0.2, 0.0, 0.0), rds.default_grid(p, n_domains=20), p)]

    def powers(steps_per_domain):
        return np.abs(rds.propagate_many(case, steps_per_domain)[0][1:, 0]) ** 2

    exact = powers(256)
    err = {n: np.abs(powers(n) - exact) / exact for n in (8, 16, 32)}
    for coarse, fine in ((8, 16), (16, 32)):
        assert np.all((14 <= err[coarse] / err[fine]) & (err[coarse] / err[fine] <= 18))
    assert err[16][0] <= 2e-6 and err[16][1] <= 4e-6


def test_partial_domain_takes_steps_per_domain_steps():
    # a half-length last domain gets 16 steps like the others, not 32 of every domain
    p = rds.default_params()
    lc = rds.qpm_domain_length(p.dk_a)
    grid = rds.make_periodic_grid(10.5 * lc, lc)
    traj = rds.propagate(rds.FieldTriple(0.2, 0.0, 0.0), grid, p)
    assert grid.n_domains == 11 and traj.z.shape == (11 * 16 + 1,)
    assert traj.z[-1] == pytest.approx(grid.total_length, rel=1e-12)


def test_phase_covariance():
    p = rds.default_params()
    grid = rds.default_grid(p, n_domains=20)
    phi = 0.7
    base = rds.propagate(rds.FieldTriple(0.3, 0.0, 0.0), grid, p).final
    shifted = rds.propagate(rds.FieldTriple(0.3 * np.exp(1j * phi), 0.0, 0.0), grid, p).final
    assert abs(shifted.a2 - base.a2 * np.exp(2j * phi)) < 1e-10
    assert abs(shifted.a3 - base.a3 * np.exp(3j * phi)) < 1e-10


@pytest.mark.parametrize("n_domains", [7, 8])
def test_grid_reversal_symmetry(n_domains):
    p = rds.default_params()
    lc = rds.qpm_domain_length(p.dk_a)
    grid = rds.make_periodic_grid(n_domains * lc, lc)
    fwd = rds.propagate(rds.FieldTriple(0.3, 0.0, 0.0), grid, p).final
    mirror = DomainGrid(grid.lengths[::-1].copy(), -grid.signs[::-1])
    rev = rds.propagate(rds.FieldTriple(0.3, 0.0, 0.0), mirror, p).final
    for a, b in zip((fwd.a1, fwd.a2, fwd.a3), (rev.a1, rev.a2, rev.a3)):
        assert abs(abs(a) ** 2 - abs(b) ** 2) < 1e-10


def test_qpm_enhancement_converges_to_2_over_pi():
    p = rds.CoupledModeParams(1.0, 0.0, 2 * math.pi * 1e3, 0.0)
    ratio = rds.qpm_enhancement_check(p, 100)
    assert abs(ratio - 2 / math.pi) / (2 / math.pi) < 0.05


def test_qpm_enhancement_small_grid_runs():
    p = rds.CoupledModeParams(1.0, 0.0, 2 * math.pi * 1e3, 0.0)
    ratio = rds.qpm_enhancement_check(p, 2)
    assert 0.0 < ratio < 1.0


def test_unpoled_mismatched_sh_bounded_and_non_growing():
    p = rds.CoupledModeParams(1.0, 0.0, 2 * math.pi * 1e3, 0.0)
    ratio = rds.qpm_enhancement_check(p, 100, poled=False)
    assert ratio < 0.01  # ~100 coherence lengths: no cumulative growth
    # bounded by the sinc-squared envelope over the whole trajectory
    lc = rds.qpm_domain_length(p.dk_a)
    total = 100 * lc
    pump = 1e-3 / (p.kappa_a * total)
    grid = rds.DomainGrid(np.array([total]), np.array([1.0]))
    traj = rds.propagate(rds.FieldTriple(pump, 0.0, 0.0), grid, p, 3200)
    bound = undepleted_sh_power(p.kappa_a, pump, lc, p.dk_a)
    assert np.max(np.abs(traj.fields[:, 1]) ** 2) <= bound * 1.01


def test_qpm_enhancement_preconditions():
    with pytest.raises(ValueError):
        rds.qpm_enhancement_check(rds.CoupledModeParams(1.0, 0.0, 0.0, 0.0), 10)
    with pytest.raises(ValueError):
        rds.qpm_enhancement_check(rds.CoupledModeParams(1.0, 1.0, 1.0, 1.0), 10)


@pytest.fixture(scope="module")
def calibrated():
    p = rds.default_params()
    grid = rds.default_grid(p)
    cal = rds.calibrate_thresholds(grid, p, rds.DEFAULT_BEAM_AMPLITUDE)
    return p, grid, cal


def test_calibration_separation(calibrated):
    _, _, cal = calibrated
    assert cal.separation_sh >= 100.0
    assert cal.separation_th >= 2.0
    assert cal.p_th2 > 0.0
    assert cal.p_th3 > 0.0


def test_not_gate_truth_table(calibrated):
    _, _, cal = calibrated
    assert rds.calibrated_gate((0,), cal) == (1,)
    assert rds.calibrated_gate((1,), cal) == (0,)


def test_cnot_gate_truth_table(calibrated):
    _, _, cal = calibrated
    expected = {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}
    for inputs, want in expected.items():
        assert rds.calibrated_gate(inputs, cal) == want


def test_calibration_fails_without_sh_coupling():
    # calibration returns zero thresholds; reading either channel fails
    p = rds.CoupledModeParams(0.0, 1.0, 2 * math.pi * 1e3, 2 * math.pi * 1e3)
    grid = rds.default_grid(rds.default_params(), n_domains=10)
    cal = rds.calibrate_thresholds(grid, p, 0.1)
    for inputs in ((0,), (0, 0)):
        with pytest.raises(rds.CalibrationError):
            rds.calibrated_gate(inputs, cal)


def test_calibration_rejects_nonpositive_amplitude(calibrated):
    p, grid, _ = calibrated
    with pytest.raises(ValueError):
        rds.calibrate_thresholds(grid, p, 0.0)


def test_gate_input_validation(calibrated):
    _, _, cal = calibrated
    with pytest.raises(ValueError):
        rds.calibrated_gate((2,), cal)
    with pytest.raises(ValueError):
        rds.calibrated_gate((0, -1), cal)


def test_calibrated_gate_rejects_invalid_inputs(calibrated):
    _, _, cal = calibrated
    for inputs in [(-1,), (0, 0, 1), (), (1, 2), (0, 0.5)]:
        with pytest.raises(ValueError):
            rds.calibrated_gate(inputs, cal)


def test_cnot_needs_sfg_coupling(calibrated):
    # without SFG the third harmonic stays dark for every pump
    _, grid, _ = calibrated
    p = rds.CoupledModeParams(1.0, 0.0, 2 * math.pi * 1e3, 2 * math.pi * 1e3)
    cal = rds.calibrate_thresholds(grid, p, rds.DEFAULT_BEAM_AMPLITUDE)
    with pytest.raises(rds.CalibrationError, match=r"TH bright=0\.000e\+00 dark=0\.000e\+00"):
        rds.calibrated_gate((0, 0), cal)


@pytest.mark.parametrize("params,amplitude", [((1.0, 0.0), 0.1), ((1.0, 1.0), 1e-51)], ids=["no-sfg", "th-underflows"])
def test_not_calibration_needs_only_the_sh_channel(params, amplitude):
    p = rds.CoupledModeParams(*params, 2 * math.pi * 1e3, 2 * math.pi * 1e3)
    grid = rds.default_grid(p)
    cal = rds.calibrate_thresholds(grid, p, amplitude)
    # the TH channel has no threshold: its separation is 0, not (0 / 0) ** 2
    assert cal.p_th3 == 0.0 and cal.separation_th == 0.0
    assert all(math.isfinite(x) for x in vars(cal).values())
    assert {(x,): rds.calibrated_gate((x,), cal) for x in (0, 1)} == cli.NOT_TABLE
    levels = f"SH bright={cal.p2:.3e} dark=0.000e+00, TH bright={cal.p3:.3e} dark=0.000e+00"
    for inputs in cli.CNOT_TABLE:
        with pytest.raises(rds.CalibrationError, match=f"^logic levels not separable: {re.escape(levels)}$"):
            rds.calibrated_gate(inputs, cal)


def test_manley_drift_does_not_depend_on_the_batch_width():
    # the same columns at other widths: the flux is summed column by column
    p = rds.default_params()
    grid = rds.default_grid(p, n_domains=6)
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        fields = (rng.normal(size=(3, 82)) + 1j * rng.normal(size=(3, 82))) * 0.3
        kappa_a, kappa_b = rng.uniform(0.5, 2.0, 82), rng.uniform(0.0, 2.0, 82)

        def drift(width):
            return rds.rk4(
                fields[:, :width], grid.signs[:, None], grid.lengths[:, None], 4,
                kappa_a[:width], kappa_b[:width], p.dk_a, p.dk_b,
            )[1]

        for base, widths in ((7, range(8, 13)), (80, (81, 82))):
            want = drift(base).tobytes()
            for width in widths:
                assert drift(width)[:base].tobytes() == want, (seed, base, width)


@pytest.mark.parametrize("kappa_b", [1.0, 1e-3])
def test_tiny_beams_read_the_right_table_or_fail_calibration(kappa_b):
    # the bright levels fall as A^4 (SH) and A^6 (TH) down to 0; a threshold
    # that underflowed to 0 would read the dark level 0 as bright, so the
    # read of a channel with a zero threshold raises instead
    p = rds.CoupledModeParams(1.0, kappa_b, 2 * math.pi * 1e3, 2 * math.pi * 1e3)
    grid = rds.default_grid(p)
    calibrated = 0
    for k in range(81):
        cal = rds.calibrate_thresholds(grid, p, 10.0**-k)
        try:
            not_table = {(x,): rds.calibrated_gate((x,), cal) for x in (0, 1)}
            cnot_table = {x: rds.calibrated_gate(x, cal) for x in cli.CNOT_TABLE}
        except rds.CalibrationError:
            assert min(cal.p_th2, cal.p_th3) == 0.0, k
            final = rds.propagate_many([(rds.FieldTriple(2 * 10.0**-k, 0.0, 0.0), grid, p)])[0]
            assert np.min(np.abs(final[1:, 0]) ** 2) < 2.5e-309, k
            continue
        calibrated += 1
        assert 0.0 < cal.p_th2 <= cal.p2 and 0.0 < cal.p_th3 <= cal.p3, k
        assert min(cal.separation_sh, cal.separation_th) >= 2.0, k
        assert max(cal.separation_sh, cal.separation_th) < 5e30, k
        assert not_table == cli.NOT_TABLE, k
        assert cnot_table == cli.CNOT_TABLE, k
    # the TH level underflows to a zero threshold below A of about 3e-51
    assert calibrated >= 40


@pytest.mark.parametrize(
    "kappa_a,a1",
    # a1 = 1e155 is finite, but |a1|^2 is not: Python's abs() and ** raise OverflowError there
    [(1e200, 0.1), (1.0, 1e200), (1.0, 1e155)],
    ids=["kappa_a", "a1", "a1-square-overflows"],
)
def test_diverging_integration_raises(recwarn, kappa_a, a1):
    p = rds.CoupledModeParams(kappa_a, 1.0, 2 * math.pi * 1e3, 2 * math.pi * 1e3)
    grid = rds.default_grid(p, n_domains=5)
    with pytest.raises(rds.DivergenceError):
        rds.propagate(rds.FieldTriple(a1, 0.0, 0.0), grid, p)
    healthy = (rds.FieldTriple(0.1, 0.0, 0.0), grid, rds.default_params())
    diverging = (rds.FieldTriple(a1, 0.0, 0.0), grid, p)
    for batch in ([healthy, diverging], [healthy] * (WIDE - 1) + [diverging]):
        with pytest.raises(rds.DivergenceError):
            rds.propagate_many(batch)
    assert len(recwarn) == 0


def test_trajectory_dump_columns(calibrated):
    # the trajectory dump of a run: every 100th of the 1,601 samples and the last, 8 columns
    p, grid, _ = calibrated
    q = {"gate": None, "steps_per_domain": rds.DEFAULT_STEPS_PER_DOMAIN, "sample_stride": 100}
    table = cli.run_rds((p, grid, rds.FieldTriple(0.1, 0, 0), q), 0)
    names = ["z", "re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3", "manley_rowe"]
    assert list(table) == names
    assert all(len(table[name]) == 17 for name in names)
    assert table["z"][0] == 0.0
    assert table["z"][-1] == pytest.approx(grid.total_length, rel=1e-12)
    assert table["re_a1"][0] == 0.1 and table["im_a1"][0] == 0.0


# ---------------------------------------------------------------- kernel vs scalar reference

# Drift is |N - N0| / N0 with N from fields that agree to ~1e-19, so the two
# drifts may differ only by the rounding of N: a few units of 2**-52.
DRIFT_TOL = 4 * np.finfo(float).eps


def reference_drift(traj):
    n = traj.manley_rowe()
    return float(np.max(np.abs(n - n[0])) / n[0]) if n[0] > 0 else 0.0


def _values(lo, hi, width):
    # a batch of one takes the midpoint, which is dk_a = 0 for the README sweep
    return np.linspace(lo, hi, width) if width > 1 else np.array([(lo + hi) / 2])


def sweep_cases(kind, width):
    """(fields, grid, params) cases of one sweep, as the CLI builds them."""
    p0 = rds.default_params()
    grid0 = rds.default_grid(p0, n_domains=10)
    two_pi = 2 * math.pi
    cases = []
    if kind == "beam_amplitude":
        for v in _values(0.02, 0.3, width):
            cases.append((rds.FieldTriple(v, 0.0, 0.0), grid0, p0))
    elif kind == "kappa_a":
        for v in _values(0.3, 2.5, width):
            p = rds.CoupledModeParams(v, p0.kappa_b, p0.dk_a, p0.dk_b)
            cases.append((rds.FieldTriple(0.2, 0.0, 0.0), grid0, p))
    elif kind == "dk_a_qpm":
        # every column has its own QPM grid of coherence length pi/|dk_a|
        for v in _values(-two_pi * 3000, -two_pi * 500, width):
            p = rds.CoupledModeParams(1.0, 1.0, v, p0.dk_b)
            grid = rds.default_grid(p, n_domains=10)
            cases.append((rds.FieldTriple(0.2, 0.0, 0.0), grid, p))
    else:  # the README sweep: one 5 cm domain, pure SHG, dk_a through 0
        grid = single_domain(0.05)
        for v in _values(-400.0, 400.0, width):
            p = rds.CoupledModeParams(1.0, 0.0, v, p0.dk_b)
            cases.append((rds.FieldTriple(0.1, 0.0, 0.0), grid, p))
    return cases


def assert_matches_reference(cases, final, drift, steps_per_domain=rds.DEFAULT_STEPS_PER_DOMAIN):
    for j, (fields, grid, params) in enumerate(cases):
        ref = reference_propagate(fields, grid, params, steps_per_domain)
        scale = max(abs(fields.a1), abs(fields.a2), abs(fields.a3))
        assert np.max(np.abs(final[:, j] - ref.fields[-1])) <= 1e-12 * scale, j
        assert drift[j] == pytest.approx(reference_drift(ref), abs=DRIFT_TOL), j


SWEEP_KINDS = ["beam_amplitude", "kappa_a", "dk_a_qpm", "dk_a_single_domain"]


@pytest.mark.parametrize("width", [1, 3, 81])
@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_sweep_batch_matches_scalar_reference(kind, width):
    cases = sweep_cases(kind, width)
    final, drift = rds.propagate_many(cases)
    assert final.shape == (3, width) and drift.shape == (width,)
    assert_matches_reference(cases, final, drift)


def test_mixed_schedules_keep_case_order():
    # grids of 10, 1, 10 and 12 domains, interleaved: the shorter ones are
    # padded with zero-length domains, which leave their fields and drift as they are
    qpm = sweep_cases("dk_a_qpm", 3)
    single = sweep_cases("dk_a_single_domain", 3)
    p = rds.default_params()
    periodic = []
    for length in (5e-3, 6e-3):
        grid = rds.make_periodic_grid(length, 5e-4)
        periodic.append((rds.FieldTriple(0.2, 0.0, 0.0), grid, p))
    cases = [qpm[0], single[0], periodic[0], qpm[1], single[1], periodic[1], qpm[2], single[2]]
    final, drift = rds.propagate_many(cases)
    assert_matches_reference(cases, final, drift)


def test_wide_batch_matches_one_case_at_a_time(monkeypatch):
    # every sweep kind and periodic grids of 10, 12 and 12 domains, the last
    # one partial: one wide call takes the numpy step body, one case at a
    # time the scalar body, and both must match the reference
    p = rds.default_params()
    periodic = [
        (rds.FieldTriple(0.2, 0.0, 0.0), rds.make_periodic_grid(length, 5e-4), p) for length in (5e-3, 5.7e-3, 6e-3)
    ]
    cases = [case for kind in SWEEP_KINDS for case in sweep_cases(kind, 3)] + periodic
    assert len(cases) > rds._NARROW
    kernel = rds.rk4
    calls = []

    def with_trajectory(*args):
        calls.append(kernel(*args, trajectory=True))
        return calls[-1]

    def run(batch):
        rds.propagate_many(batch)
        return calls[-1]

    monkeypatch.setattr(rds, "rk4", with_trajectory)
    wide_final, wide_drift, wide_z, wide_samples = run(cases)
    for j, (fields, grid, params) in enumerate(cases):
        final, drift, z, samples = run([(fields, grid, params)])
        ref = reference_propagate(fields, grid, params, rds.DEFAULT_STEPS_PER_DOMAIN)
        k = len(ref.z)
        scale = max(abs(fields.a1), abs(fields.a2), abs(fields.a3))
        for exit_fields in (final[:, 0], ref.fields[-1]):
            assert np.max(np.abs(wide_final[:, j] - exit_fields)) <= 1e-12 * scale, j
        assert np.max(np.abs(final[:, 0] - ref.fields[-1])) <= 1e-12 * scale, j
        for d in (drift[0], reference_drift(ref)):
            assert wide_drift[j] == pytest.approx(d, abs=DRIFT_TOL), j
        assert drift[0] == pytest.approx(reference_drift(ref), abs=DRIFT_TOL), j
        # the padding domains leave z where the grid ends
        assert np.array_equal(z[:, 0], ref.z) and np.array_equal(wide_z[:k, j], ref.z), j
        assert np.all(wide_z[k:, j] == ref.z[-1]), j
        assert np.max(np.abs(wide_samples[:k, :, j] - ref.fields)) <= 1e-12 * scale, j
        assert np.max(np.abs(samples[:, :, 0] - ref.fields)) <= 1e-12 * scale, j


def test_propagate_matches_scalar_reference_trajectory():
    p = rds.default_params()
    grid = rds.default_grid(p)
    fields = rds.FieldTriple(0.2, 0.0, 0.0)
    traj = rds.propagate(fields, grid, p)
    ref = reference_propagate(fields, grid, p, rds.DEFAULT_STEPS_PER_DOMAIN)
    assert np.array_equal(traj.z, ref.z)
    assert traj.fields.shape == ref.fields.shape
    assert np.max(np.abs(traj.fields - ref.fields)) <= 1e-12 * 0.2


def test_calibration_pumps_match_reference_and_zero_pump_stays_zero():
    p = rds.default_params()
    grid = rds.default_grid(p)
    steps = rds.DEFAULT_STEPS_PER_DOMAIN
    a = rds.DEFAULT_BEAM_AMPLITUDE
    cases = [(rds.FieldTriple(pump, 0.0, 0.0), grid, p) for pump in (2 * a, 0.0, -2 * a)]
    final, drift = rds.propagate_many(cases)
    assert_matches_reference(cases, final, drift)
    assert np.all(final[:, 1] == 0.0) and drift[1] == 0.0
    cal = rds.calibrate_thresholds(grid, p, a, steps)
    # the bright levels are those of the 2A and -2A pumps
    for fields, *_ in (cases[0], cases[2]):
        ref = reference_propagate(fields, grid, p, steps).final
        assert cal.p2 == pytest.approx(abs(ref.a2) ** 2, rel=1e-12, abs=0.0)
        assert cal.p3 == pytest.approx(abs(ref.a3) ** 2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "params,grid,steps,amplitude",
    [
        (rds.default_params(), rds.default_grid(), rds.DEFAULT_STEPS_PER_DOMAIN, rds.DEFAULT_BEAM_AMPLITUDE),
        # a partial last domain and an odd step count
        (
            rds.CoupledModeParams(kappa_a=2.3, kappa_b=0.4, dk_a=4.1e3, dk_b=7.7e3),
            rds.make_periodic_grid(0.0123, rds.qpm_domain_length(4.1e3)),
            7,
            0.37,
        ),
        (rds.CoupledModeParams(kappa_a=0.2, kappa_b=1.7, dk_a=2.5e3, dk_b=9e3), single_domain(2e-3), 33, 0.05),
    ],
    ids=["default", "partial-grid-odd-steps", "one-long-domain"],
)
def test_one_pump_levels_are_bitwise_the_three_pump_batch(params, grid, steps, amplitude):
    # the reference: all three pumps 2A, 0 and -2A propagated as one batch
    cases = [(rds.FieldTriple(a, 0.0, 0.0), grid, params) for a in (2 * amplitude, 0.0, -2 * amplitude)]
    powers = np.abs(rds.propagate_many(cases, steps)[0]) ** 2
    cal = rds.calibrate_thresholds(grid, params, amplitude, steps)
    # the bright levels have the bits of the 2A and -2A columns, and the 0 column is exactly 0
    assert np.array([cal.p2, 0.0, cal.p2]).tobytes() == powers[1].tobytes()
    assert np.array([cal.p3, 0.0, cal.p3]).tobytes() == powers[2].tobytes()


# ---------------------------------------------------------------- steps in blocks

# one unpoled domain of four coherence lengths, far more steps than one block
LONG_DOMAIN = 2e-3


def long_domain_cases():
    p = rds.default_params()
    grid = single_domain(LONG_DOMAIN)
    return [(rds.FieldTriple(a1, 0.0, 0.0), grid, p) for a1 in (0.2, -0.1)]


def test_long_domain_blocks_match_scalar_reference():
    cases = long_domain_cases()
    refs = [reference_propagate(*case, 10_000) for case in cases]
    # the narrow batch and a wide one of the same cases, repeated
    for width in (len(cases), WIDE):
        final, drift = rds.propagate_many([cases[j % len(cases)] for j in range(width)], 10_000)
        for j in range(width):
            (fields, _, _), ref = cases[j % len(cases)], refs[j % len(cases)]
            assert np.max(np.abs(final[:, j] - ref.fields[-1])) <= 1e-12 * abs(fields.a1), (width, j)
            assert drift[j] == pytest.approx(reference_drift(ref), abs=DRIFT_TOL), (width, j)
    # the positions of every block continue z += h bit for bit
    fields, grid, p = cases[0]
    traj = rds.propagate(fields, grid, p, 10_000)
    assert traj.z.shape == (10_001,) and np.array_equal(traj.z, refs[0].z)
    assert np.max(np.abs(traj.fields - refs[0].fields)) <= 1e-12 * 0.2


@pytest.mark.parametrize("width", [1, 9, 81])
def test_results_do_not_depend_on_the_block_size(monkeypatch, width):
    # 4 domains of 150 steps: blocks of 5 and 7 steps start and end inside
    # domains, and one block runs through the whole crystal; on a grid and
    # mismatches per column, and on one grid and mismatches that every
    # column shares by value, which take one phase table
    rng = np.random.default_rng(5)
    fields = 0.1 * (rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width)))
    signs = rng.choice([-1.0, 1.0], size=(4, width))
    lengths = rng.uniform(2e-4, 6e-4, size=(4, width))
    lengths[-1, 0] = 0.0  # a padded zero-length domain
    couplings, mismatches = rng.uniform(0.5, 2.0, size=(2, width)), rng.uniform(2e3, 8e3, size=(2, width))
    per_column = (fields, signs, lengths, 150, *couplings, *mismatches)
    grid = np.repeat(rng.uniform(2e-4, 6e-4, size=(4, 1)), width, axis=1)
    one_grid = (fields, signs, grid, 150, *couplings, *np.repeat(mismatches[:, :1], width, axis=1))

    def run(args, block, cells):
        monkeypatch.setattr(rds, "_BLOCK", block)
        monkeypatch.setattr(rds, "_CELLS", cells)
        return [x.tobytes() for x in rds.rk4(*args, trajectory=True)] + [rds.rk4(*args)[1].tobytes()]

    for args in (per_column, one_grid):
        default = run(args, rds._BLOCK, rds._CELLS)
        for block in (1, 5, 7, 4 * 150 + 1):
            assert run(args, block, block * width) == default, block


@pytest.mark.parametrize("trajectory", [False, True])
@pytest.mark.parametrize("width", [7, 9, 81])
def test_one_shared_phase_table_matches_a_table_per_column(monkeypatch, width, trajectory):
    # width beams through one crystal, each column holding the grid and
    # mismatches by value, take one phase table; forced to take a table per
    # column, they must give the same bytes.  (A batch one column wider
    # would not do: the flux matmul may round a column's drift differently
    # at another batch width.)
    rng = np.random.default_rng(7)
    p = rds.default_params()
    grid = rds.make_periodic_grid(10.4 * rds.qpm_domain_length(p.dk_a), rds.qpm_domain_length(p.dk_a))
    fields = 0.2 * (rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width)))
    signs = grid.signs[:, None] * rng.choice([-1.0, 1.0], size=width)
    lengths = np.repeat(grid.lengths[:, None], width, axis=1)
    couplings = rng.uniform(0.5, 2.0, size=(2, width))
    args = (fields, signs, lengths, 16, *couplings, np.full(width, p.dk_a), np.full(width, p.dk_b))
    assert all(rds._same_bits(x) for x in (lengths, *args[-2:]))
    shared = rds.rk4(*args, trajectory=trajectory)
    monkeypatch.setattr(rds, "_same_bits", lambda x: False)
    each = rds.rk4(*args, trajectory=trajectory)
    assert [None if x is None else x.tobytes() for x in shared] == [None if x is None else x.tobytes() for x in each]


def test_signed_zero_mismatches_are_not_one_shared_phase_table():
    # dk_b = 0.0 and -0.0 are equal numbers with different bits: a batch of
    # both takes a phase table per column, and each column has the bytes of
    # the uniform batch of its own sign
    width = 8
    rng = np.random.default_rng(8)
    fields = 0.1 * (rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width)))
    signs = rng.choice([-1.0, 1.0], size=(6, width))
    lengths = np.full((6, width), 3e-4)
    mixed = np.where(np.arange(width) % 3 == 0, -0.0, 0.0)
    assert not rds._same_bits(mixed)
    outputs = rds.rk4(fields, signs, lengths, 8, 1.3, 0.7, 4e3, mixed, trajectory=True)
    for zero in (0.0, -0.0):
        uniform = rds.rk4(fields, signs, lengths, 8, 1.3, 0.7, 4e3, np.full(width, zero), trajectory=True)
        for j in np.flatnonzero(np.signbit(mixed) == np.signbit(zero)):
            assert [x[..., j].tobytes() for x in outputs] == [x[..., j].tobytes() for x in uniform], (zero, j)


def test_trajectory_positions_across_mixed_sign_domains():
    # unequal domains of signs + + - + - -, 70 steps each: blocks cross
    # every boundary, and z stays the reference's running sum bit for bit
    p = rds.CoupledModeParams(kappa_a=1.3, kappa_b=0.7, dk_a=5e3, dk_b=-7e3)
    grid = rds.DomainGrid(np.array([3e-4, 5e-4, 2e-4, 6e-4, 4e-4, 1e-4]), np.array([1.0, 1, -1, 1, -1, -1]))
    fields = rds.FieldTriple(0.2 - 0.1j, 0.05j, 0.02)
    traj = rds.propagate(fields, grid, p, 70)
    ref = reference_propagate(fields, grid, p, 70)
    assert traj.z.tobytes() == ref.z.tobytes()
    assert np.max(np.abs(traj.fields - ref.fields)) <= 1e-12 * 0.3


def test_kernel_memory_does_not_grow_with_domain_steps():
    def peak(cases, n_steps):
        tracemalloc.start()
        try:
            rds.propagate_many(cases, n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a kernel that kept every step's (3, 2) complex fields would grow by
    # 3,000 steps x 96 B = 288,000 B, 4.4 times the bound, and one that kept
    # a per-step table of h / 2, h and h / 6 by 144,000 B; wider ones by more
    p = rds.default_params()
    four_domains = rds.DomainGrid(np.full(4, LONG_DOMAIN / 4), np.array([1.0, -1.0, -1.0, 1.0]))
    for width in (2, WIDE):
        long_domain = (long_domain_cases() * width)[:width]
        assert abs(peak(long_domain, 4_000) - peak(long_domain, 1_000)) < 64 * 1024, width
        # the same step counts, in blocks that cross domain boundaries
        cases = [(fields, four_domains, p) for fields, _, _ in long_domain]
        assert abs(peak(cases, 1_000) - peak(cases, 250)) < 64 * 1024, width
