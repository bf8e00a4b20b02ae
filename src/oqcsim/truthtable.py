"""Shared NOT/CNOT truth tables and permutation oracles.

All three gate backends (spin, jones, rds) are checked against the same
tables: NOT is the involutive bit flip, CNOT passes the control through
and XORs it into the target.
"""

from __future__ import annotations

import numpy as np

NOT_TABLE = {(0,): (1,), (1,): (0,)}

CNOT_TABLE = {
    (0, 0): (0, 0),
    (0, 1): (0, 1),
    (1, 0): (1, 1),
    (1, 1): (1, 0),
}


def apply_not(bits, target):
    """Flip bit `target` of a bit tuple."""
    out = list(bits)
    out[target] ^= 1
    return tuple(out)


def apply_cnot(bits, control, target):
    """XOR bit `control` into bit `target`."""
    if control == target:
        raise ValueError("control and target must differ")
    out = list(bits)
    out[target] ^= out[control]
    return tuple(out)


def index_bits(index, n):
    """Basis index -> bit tuple, leftmost qubit first."""
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def bits_index(bits):
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def _qubit_shift(n, qubit):
    """Bit position of a qubit in a basis index, leftmost qubit most significant."""
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    return n - 1 - qubit


def not_permutation(n, target):
    """Index permutation of NOT on qubit `target` of an n-qubit register."""
    return np.arange(2**n) ^ (1 << _qubit_shift(n, target))


def cnot_permutation(n, control, target):
    if control == target:
        raise ValueError("control and target must differ")
    c, t = _qubit_shift(n, control), _qubit_shift(n, target)
    i = np.arange(2**n)
    return i ^ (((i >> c) & 1) << t)


def permutation_matrix(perm):
    """Unitary matrix sending basis vector i to basis vector perm[i]."""
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, np.arange(dim)] = 1.0
    return m

