"""Harmonic-generation threshold logic in a periodically poled crystal.

Shows quasi-phase-matched second-harmonic growth, Manley-Rowe
conservation, and the NOT / CNOT threshold gates read from the calibration.
"""

import math

from oqcsim import rds

params = rds.default_params()
grid = rds.default_grid(params)
print(f"grid: {grid.n_domains} domains, total length {grid.total_length:.6f}")

traj = rds.propagate(rds.FieldTriple(0.2, 0.0, 0.0), grid, params)
n = traj.manley_rowe()
print("Manley-Rowe drift:", float(max(abs(n - n[0])) / n[0]))
print("final |a2|^2:", abs(traj.final.a2) ** 2)

shg = rds.CoupledModeParams(params.kappa_a, 0.0, params.dk_a, 0.0)
ratio = rds.qpm_enhancement_check(shg, 100)
print(f"QPM coupling ratio {ratio:.6f} (ideal 2/pi = {2 / math.pi:.6f})")
print("unpoled ratio:", rds.qpm_enhancement_check(shg, 100, poled=False))

cal = rds.calibrate_thresholds(grid, params, rds.DEFAULT_BEAM_AMPLITUDE)
print("\ncalibrated thresholds:")
print("  pTh2 =", cal.p_th2, " SH separation =", cal.separation_sh)
print("  pTh3 =", cal.p_th3, " TH separation =", cal.separation_th)

print("\nNOT gate (phase-coded pump, SH threshold):")
for x in (0, 1):
    print(f"  x={x} -> y={rds.calibrated_gate((x,), cal)[0]}")

print("\nCNOT gate (two pumps, TH threshold):")
for x1 in (0, 1):
    for x2 in (0, 1):
        print(f"  ({x1},{x2}) -> {rds.calibrated_gate((x1, x2), cal)}")
