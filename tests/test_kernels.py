"""Kernel-level tests: each kernel against an independent numpy reference,
and a digest of every kernel output."""

import hashlib
import math
import random

import numpy as np
import pytest

from qdkd import _kernels_py as kern
from qdkd.errors import DegenerateBranchError


# Independent numpy reference built from matrices and kron, not index tricks.
U_MATS = [
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
]
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
BASIS_KETS = {
    (0, 0): np.array([1, 0], dtype=complex),
    (0, 1): np.array([0, 1], dtype=complex),
    (1, 0): KET_PLUS,
    (1, 1): KET_MINUS,
}
BELL_VECS = np.array(
    [
        [0, 1, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, -1],
    ],
    dtype=complex,
) / np.sqrt(2)


def _full_op(qubit, mat):
    eye = np.eye(2, dtype=complex)
    return np.kron(mat, eye) if qubit == 0 else np.kron(eye, mat)


def _rand_amps(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return tuple(complex(x) for x in v)


def test_bell_amps_values():
    inv = math.sqrt(0.5)  # the correctly rounded double for 1/sqrt(2)
    assert kern.BELL_AMPS[0] == (0, inv, inv, 0)
    assert kern.BELL_AMPS[1] == (0, inv, -inv, 0)
    assert kern.BELL_AMPS[2] == (inv, 0, 0, inv)
    assert kern.BELL_AMPS[3] == (inv, 0, 0, -inv)


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("u", [0, 1, 2, 3])
def test_apply_u_matches_matrix_reference(qubit, u, rng):
    for _ in range(25):
        amps = _rand_amps(rng)
        got = np.array(kern.apply_u(amps, qubit, u))
        want = _full_op(qubit, U_MATS[u]) @ np.array(amps)
        np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("basis", [0, 1])
def test_qubit_probs_match_projector_reference(qubit, basis, rng):
    for _ in range(25):
        amps = _rand_amps(rng)
        p0, p1 = kern.qubit_probs(amps, qubit, basis)
        vec = np.array(amps)
        for bit, p in ((0, p0), (1, p1)):
            ket = BASIS_KETS[(basis, bit)]
            proj = _full_op(qubit, np.outer(ket, ket.conj()))
            assert p == pytest.approx(np.vdot(vec, proj @ vec).real, abs=1e-12)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_bell_probs_match_reference(rng):
    for _ in range(25):
        amps = _rand_amps(rng)
        got = kern.bell_probs(amps)
        want = np.abs(BELL_VECS.conj() @ np.array(amps)) ** 2
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert sum(got) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("qubit", [0, 1])
@pytest.mark.parametrize("basis", [0, 1])
def test_collapse_is_normalized_eigenstate(qubit, basis, rng):
    for _ in range(20):
        amps = _rand_amps(rng)
        bit, collapsed = kern.measure_qubit(amps, qubit, basis, rng.random())
        assert kern.norm_sq(collapsed) == pytest.approx(1.0, abs=1e-12)
        probs = kern.qubit_probs(collapsed, qubit, basis)
        assert probs[bit] == pytest.approx(1.0, abs=1e-12)


def test_collapse_onto_zero_branch_raises():
    zero_zero = (1 + 0j, 0j, 0j, 0j)
    with pytest.raises(DegenerateBranchError):
        kern.collapse_qubit(zero_zero, 1, 0, 1)


def test_bell_fall_through_to_zero_outcome_raises():
    # Unnormalized, so the cumulative probability stops at 0.5: a uniform
    # above it falls through to outcome 3, whose probability is 0.
    amps = (0j, 0.5 + 0j, 0.5 + 0j, 0j)
    with pytest.raises(DegenerateBranchError):
        kern.measure_bell(amps, 0.9)


def test_bell_thresholds_sum_left_to_right():
    # Seeded reports depend on the order of the float sums, not just their
    # values; on the random states other orders round differently.
    for amps in _digest_states():
        p0, p1, p2, _p3 = kern.bell_probs(amps)
        assert kern.bell_thresholds(amps) == (p0, p0 + p1, p0 + p1 + p2)


def test_measure_bell_collapses_to_bell_state(rng):
    for _ in range(20):
        amps = _rand_amps(rng)
        k, collapsed = kern.measure_bell(amps, rng.random())
        assert collapsed == kern.BELL_AMPS[k]


# The 67 distinct states of the float round tables that sessions were built
# from before the tables came from the exact oracle, one per line as the reprs
# of their amplitudes; repr keeps the sign of every zero.
_TABLE_STATES = tuple(
    tuple(complex(z) for z in line.split())
    for line in """
0j (0.7071067811865476+0j) (0.7071067811865476+0j) 0j
0j (-0.7071067811865476-0j) (0.7071067811865476+0j) (-0-0j)
(0.7071067811865476+0j) 0j 0j (0.7071067811865476+0j)
(0.7071067811865476+0j) (-0-0j) 0j (-0.7071067811865476-0j)
0j 0j (1+0j) 0j
0j (1+0j) 0j 0j
(0.5+0j) (0.5+0j) (0.5+0j) (0.5+0j)
(-0.5+0j) (0.5-0j) (0.5+0j) (-0.5+0j)
(-0.5+0j) (0.5+0j) (0.5-0j) (-0.5+0j)
0j (-1+0j) 0j (-0+0j)
0j (-1+0j) 0j 0j
(-0.5+0j) (-0.5+0j) (0.5+0j) (0.5+0j)
(0.5+0j) (-0.5+0j) (0.5+0j) (-0.5+0j)
(-0.5+0j) (-0.5+0j) (0.5-0j) (0.5-0j)
(-0.7071067811865476-0j) 0j (-0-0j) (0.7071067811865476+0j)
(-0.7071067811865476-0j) (-0-0j) (-0-0j) (-0.7071067811865476-0j)
(1+0j) 0j 0j 0j
0j 0j 0j (1+0j)
(0.5+0j) (-0.5+0j) (-0.5+0j) (0.5-0j)
0j (-0+0j) 0j (-1+0j)
0j 0j 0j (-1+0j)
(0.5+0j) (0.5+0j) (-0.5+0j) (-0.5+0j)
(-0-0j) (0.7071067811865476+0j) (-0.7071067811865476-0j) 0j
(-0-0j) (-0.7071067811865476-0j) (-0.7071067811865476-0j) (-0-0j)
0j 0j (0.7071067811865476+0j) (0.7071067811865476+0j)
0j (-0+0j) (0.7071067811865476+0j) (-0.7071067811865476+0j)
0j (-0-0j) (1+0j) (-0-0j)
0j (-0-0j) 0j (-1-0j)
(0.7071067811865476+0j) (0.7071067811865476+0j) 0j 0j
(-0.7071067811865476+0j) (0.7071067811865476-0j) 0j (-0+0j)
(-0.5+0j) (0.5+0j) (-0.5+0j) (0.5+0j)
0j (-1-0j) 0j (-0-0j)
(1+0j) (-0-0j) 0j (-0-0j)
(-0.7071067811865476+0j) (-0.7071067811865476+0j) 0j 0j
(0.7071067811865476+0j) (-0.7071067811865476+0j) 0j (-0+0j)
(-0.5+0j) (-0.5+0j) (-0.5+0j) (-0.5+0j)
0j (1-0j) 0j -0j
(-1+0j) 0j (-0+0j) 0j
(-1+0j) (-0-0j) (-0+0j) (-0-0j)
0j (-0+0j) (-0.7071067811865476+0j) (0.7071067811865476-0j)
0j 0j (-0.7071067811865476+0j) (-0.7071067811865476+0j)
0j -0j 0j (1-0j)
(-0+0j) 0j (-1+0j) 0j
(-0+0j) (-0-0j) (-1+0j) (-0-0j)
(0.7071067811865475+0j) 0j (0.7071067811865475+0j) 0j
0j (0.7071067811865475+0j) 0j (0.7071067811865475+0j)
(0.5+0j) (-0.5-0j) (0.5+0j) (-0.5-0j)
(-0.7071067811865475+0j) 0j (0.7071067811865475+0j) 0j
0j (0.7071067811865475-0j) 0j (-0.7071067811865475+0j)
(-1+0j) 0j 0j 0j
0j (1-0j) 0j 0j
(-0.5+0j) (-0.5+0j) (0.5+0j) (0.5-0j)
(0.5-0j) (-0.5+0j) (-0.5+0j) (0.5+0j)
(0.5-0j) (0.5-0j) (-0.5+0j) (-0.5-0j)
0j (-0.7071067811865475+0j) 0j (0.7071067811865475+0j)
(-0.5+0j) (0.5-0j) (0.5+0j) (-0.5-0j)
0j (-0.7071067811865475+0j) 0j (-0.7071067811865475+0j)
(0.5+0j) (0.5-0j) (0.5+0j) (0.5-0j)
(-0.5+0j) (-0.5-0j) (-0.5+0j) (-0.5-0j)
(0.7071067811865475+0j) 0j (-0.7071067811865475+0j) 0j
0j (-0.7071067811865475+0j) 0j (0.7071067811865475-0j)
0j 0j (-1+0j) 0j
0j 0j 0j (1-0j)
(0.5+0j) (0.5-0j) (-0.5+0j) (-0.5+0j)
(-0.5+0j) (-0.5-0j) (0.5-0j) (0.5-0j)
0j (0.7071067811865475+0j) 0j (-0.7071067811865475+0j)
(0.5+0j) (-0.5-0j) (-0.5+0j) (0.5-0j)
""".strip().splitlines()
)
# Those tables' 247 states in their order: per attack (none, then forward and
# backward Z, X and random), each table's states in the order first met.
_TABLE_ORDER = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 0,
    1, 2, 3, 4, 5, 9, 16, 17, 19, 24, 25, 6, 13, 12, 8, 26, 27, 28, 29, 21, 30, 31, 32, 10,
    33, 34, 35, 18, 36, 37, 38, 39, 20, 40, 41, 42, 43, 0, 1, 2, 3, 6, 7, 11, 12, 18, 21,
    44, 45, 16, 4, 5, 17, 46, 47, 48, 49, 50, 20, 8, 51, 52, 53, 54, 10, 13, 55, 56, 57, 30,
    58, 59, 60, 61, 62, 63, 64, 65, 66, 0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 16, 17, 18, 19,
    21, 24, 25, 13, 8, 26, 27, 28, 29, 30, 31, 32, 44, 45, 46, 47, 48, 49, 50, 20, 51, 52,
    53, 10, 33, 34, 35, 36, 37, 38, 54, 55, 56, 57, 58, 39, 59, 60, 61, 62, 63, 64, 40, 41,
    42, 43, 65, 66, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 19, 10, 11, 12, 13, 14, 15, 37,
    18, 20, 21, 22, 23, 42, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 18, 21, 9, 10, 13, 14, 15,
    30, 35, 16, 17, 19, 20, 22, 23, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16, 17, 18, 19,
    21, 10, 13, 14, 15, 37, 30, 35, 20, 22, 23, 42,
)


def _digest_states():
    """The float tables' states, each also negated and conjugated (which puts
    -0.0 in the parts that were +0.0), then 200 seeded random complex states."""
    states = []
    for i in _TABLE_ORDER:
        amps = _TABLE_STATES[i]
        states += [amps, tuple(-z for z in amps), tuple(z.conjugate() for z in amps)]
    draw = random.Random(20261018).random
    for _ in range(200):
        parts = [(2 * draw() - 1, 2 * draw() - 1) for _ in range(4)]
        s = math.sqrt(sum(x * x + y * y for x, y in parts))
        states.append(tuple(complex(x / s, y / s) for x, y in parts))
    return states


def test_digest_inputs_are_frozen_complex_states():
    assert len(_TABLE_ORDER) == 247 and set(_TABLE_ORDER) == set(range(67))
    assert len({repr(amps) for amps in _TABLE_STATES}) == len(_TABLE_STATES) == 67
    assert all(type(z) is complex for amps in _digest_states() for z in amps)


def _hash_call(digest, kernel, *args):
    """Add the repr of a kernel's output, or the type name of its refusal."""
    try:
        text = repr(kernel(*args))
    except DegenerateBranchError as exc:
        text = type(exc).__name__
    digest.update(text.encode() + b"\n")


# sha-256 over every output of the single-qubit and Bell kernels on
# _digest_states(), recorded before the kernels were written over the index
# pair table. repr round-trips every float and keeps the sign of a zero, so
# this pins the complex arithmetic and the signed zeros off the protocol
# paths too.
KERNEL_DIGEST = "8e880d6c9e1743f56bfdc9ff8a8bd833dc4c0a29bc2ea9eff46db4ef6e7f1364"


def test_kernel_outputs_are_bit_identical():
    digest = hashlib.sha256()
    for amps in _digest_states():
        for qubit in (0, 1):
            for u in range(4):
                _hash_call(digest, kern.apply_u, amps, qubit, u)
            for basis in (0, 1):
                _hash_call(digest, kern.qubit_probs, amps, qubit, basis)
                for bit in (0, 1):
                    _hash_call(digest, kern.collapse_qubit, amps, qubit, basis, bit)
        _hash_call(digest, kern.bell_probs, amps)
        for r in (0.0, 0.3, 0.6, 0.9, 1.0 - 2.0**-53):
            _hash_call(digest, kern.measure_bell, amps, r)
    assert digest.hexdigest() == KERNEL_DIGEST
