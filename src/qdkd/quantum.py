"""Exact two-qubit state-vector mathematics for the protocol.

Provides the four Bell states, the encoding unitaries u0..u3, single-qubit
measurement in the Z/X bases with collapse, and Bell-basis measurement.
All randomness is passed in explicitly as a uniform real in [0, 1), so every
operation is a pure function and runs are reproducible from a seed.
"""

from cmath import isfinite
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import _kernels_py as kernels
from .errors import QdkdError

NORM_TOL = 1e-9


class QubitId(IntEnum):
    """H is the home photon Alice keeps; T is the travel photon."""

    H = 0
    T = 1


class MeasBasis(IntEnum):
    """Z is the computational basis {|0>,|1>}; X is the diagonal {|+>,|->}."""

    Z = 0
    X = 1


class LocalUnitary(IntEnum):
    """The four encoding unitaries; the enum value is the 2-bit label.

    U0 = |0><0|+|1><1|, U1 = |0><0|-|1><1|,
    U2 = |0><1|+|1><0|, U3 = |0><1|-|1><0|.
    """

    U0 = 0
    U1 = 1
    U2 = 2
    U3 = 3

    @property
    def bits(self) -> tuple[int, int]:
        """(amplitude bit, phase bit): the one split of a label into key bits."""
        return (self >> 1) & 1, self & 1

    def matrix(self) -> np.ndarray:
        return np.array(_U_MATRICES[self], dtype=complex)


# The encoding unitaries as integer matrices, straight from their bra-ket
# definitions; the exact oracle enumerates with these entries.
_U_MATRICES = (
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((0, 1), (-1, 0)),
)


class BellOutcome(IntEnum):
    """Bell-measurement outcomes; the enum value is the 2-bit label.

    The first bit separates Psi from Phi ("amplitude" position), the second
    separates + from - ("phase" position).
    """

    PSI_PLUS = 0
    PSI_MINUS = 1
    PHI_PLUS = 2
    PHI_MINUS = 3

    @property
    def symbol(self) -> str:
        return _BELL_SYMBOLS[self]


_BELL_SYMBOLS = ("Ψ+", "Ψ−", "Φ+", "Φ−")


@dataclass(frozen=True, slots=True)
class TwoQubitState:
    """Four complex amplitudes over |ht> in the index order 00, 01, 10, 11.

    Amplitudes must be finite and normalized (sum |amp|^2 = 1 within 1e-9).
    The constructor checks this; kernel outputs, normalized by construction,
    skip the check through _trusted.
    Physical equality is defined only up to a global phase, which ==, comparing
    amplitudes, does not ignore.
    """

    amps: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if len(self.amps) != 4:
            raise QdkdError("a two-qubit state needs exactly 4 amplitudes")
        if not all(isfinite(a) for a in self.amps):
            raise QdkdError("non-finite amplitude")
        n = kernels.norm_sq(self.amps)
        if abs(n - 1.0) > NORM_TOL:
            raise QdkdError(f"state not normalized: sum |amp|^2 = {n!r}")

    @classmethod
    def from_amplitudes(cls, a00, a01, a10, a11) -> "TwoQubitState":
        """Build a state from arbitrary amplitudes, rescaling to unit norm."""
        amps = (complex(a00), complex(a01), complex(a10), complex(a11))
        n = kernels.norm_sq(amps)
        if n < 1e-15:
            raise QdkdError("cannot normalize the zero vector")
        s = n ** 0.5
        return cls(tuple(a / s for a in amps))

    @classmethod
    def computational(cls, h: int, t: int) -> "TwoQubitState":
        """The product basis state |h t>."""
        amps = [0j, 0j, 0j, 0j]
        amps[2 * h + t] = 1 + 0j
        return cls(tuple(amps))

    def norm_sq(self) -> float:
        return kernels.norm_sq(self.amps)


def _trusted(amps) -> TwoQubitState:
    """Wrap kernel output without re-validating it."""
    state = object.__new__(TwoQubitState)
    object.__setattr__(state, "amps", amps)
    return state


def bell_state(outcome: BellOutcome) -> TwoQubitState:
    """The exact amplitude vector of the named Bell state."""
    return _trusted(kernels.BELL_AMPS[outcome])


def apply_local(state: TwoQubitState, qubit: QubitId, u: LocalUnitary) -> TwoQubitState:
    """Apply u on the named qubit (identity on the other)."""
    return _trusted(kernels.apply_u(state.amps, qubit, u))




def measure_qubit(
    state: TwoQubitState, qubit: QubitId, basis: MeasBasis, randomness: float
) -> tuple[int, TwoQubitState]:
    """Measure one qubit; bit 0 iff randomness < p0. Returns (bit, collapsed).

    Bit 0 corresponds to |0> (Z) or |+> (X); bit 1 to |1> or |->.
    """
    bit, amps = kernels.measure_qubit(state.amps, qubit, basis, randomness)
    return bit, _trusted(amps)




def measure_bell(state: TwoQubitState, randomness: float) -> tuple[BellOutcome, TwoQubitState]:
    """Bell-basis measurement; the collapsed state is the outcome's Bell state."""
    k, amps = kernels.measure_bell(state.amps, randomness)
    return BellOutcome(k), _trusted(amps)
