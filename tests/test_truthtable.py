import itertools

import numpy as np
import pytest

from oqcsim.truthtable import (
    CNOT_TABLE,
    NOT_TABLE,
    apply_cnot,
    apply_not,
    bits_index,
    cnot_permutation,
    index_bits,
    not_permutation,
    permutation_matrix,
)


def test_not_table_is_involutive():
    for (x,), (y,) in NOT_TABLE.items():
        assert NOT_TABLE[(y,)] == (x,)
        assert apply_not((x,), 0) == (y,)


def test_cnot_table_matches_xor():
    for (x1, x2), (y1, y2) in CNOT_TABLE.items():
        assert y1 == x1
        assert y2 == x1 ^ x2
        assert apply_cnot((x1, x2), 0, 1) == (y1, y2)


def test_permutation_matrices_are_unitary_permutations():
    for perm in (not_permutation(3, 1), cnot_permutation(3, 0, 2)):
        m = permutation_matrix(perm)
        assert np.max(np.abs(m.conj().T @ m - np.eye(len(perm)))) == 0.0
        assert sorted(perm) == list(range(len(perm)))


def test_cnot_row_11_maps_to_10():
    assert CNOT_TABLE[(1, 1)] == (1, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_permutations_match_bit_tuple_form(n):
    # the per-index bit-tuple construction the arithmetic replaced
    for t in range(n):
        want = np.array([bits_index(apply_not(index_bits(i, n), t)) for i in range(2**n)])
        got = not_permutation(n, t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for c, t in itertools.permutations(range(n), 2):
        want = np.array([bits_index(apply_cnot(index_bits(i, n), c, t)) for i in range(2**n)])
        got = cnot_permutation(n, c, t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda: not_permutation(3, 3),
        lambda: not_permutation(3, -1),
        lambda: cnot_permutation(3, 0, 3),
        lambda: cnot_permutation(3, -1, 0),
        lambda: cnot_permutation(2, 1, 1),
    ],
    ids=["not-past-top", "not-negative", "cnot-target-past-top", "cnot-negative-control", "cnot-equal"],
)
def test_permutations_reject_bad_qubits(build):
    with pytest.raises(ValueError):
        build()
