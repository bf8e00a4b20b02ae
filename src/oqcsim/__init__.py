"""Deterministic simulators for three quantum-gate constructions:
two-spin NMR pulses, polarization-mode linear optics, and RDS-crystal
harmonic-generation threshold logic, plus squeezed-light photon
statistics, all verified against one NOT/CNOT truth-table oracle.
"""

__version__ = "0.1.0"

from . import jones, rds, spin, squeezed, truthtable

__all__ = ["jones", "rds", "spin", "squeezed", "truthtable"]
