"""Two-qubit state-vector kernels in pure Python.

These are the package's float physics reference: sessions and the exact
oracle do not call them, and the tests check the session's round tables
against them. Keep the operation order, the constants and the branch rule
when editing them; tests/test_kernels.py checks each kernel against a numpy
matrix reference and pins every output, signed zeros included, by digest.

States are plain tuples of 4 complex amplitudes indexed by the basis label
(h, t) in the order 00, 01, 10, 11. Qubit codes: 0 = h (home), 1 = t
(travel). Basis codes: 0 = Z, 1 = X. Bit 0 maps to |0> (Z) or |+> (X).
Bell outcome codes follow the 2-bit labels: 0 = Psi+, 1 = Psi-, 2 = Phi+,
3 = Phi-.

Each single-qubit kernel is written once, over PAIRS: by qubit, the index
pairs (i, j) of the amplitudes whose labels differ only in that qubit, so h
mixes (0, 2) and (1, 3) and t mixes (0, 1) and (2, 3). bell_thresholds is
the one cumulative sum a Bell measurement compares its uniform with; only
measure_bell reads it.
"""

from math import sqrt

from .errors import DegenerateBranchError

INV_SQRT2 = sqrt(0.5)

# By qubit, the amplitude index pairs (|0>, |1> of that qubit) that a
# single-qubit operation mixes.
PAIRS = (((0, 2), (1, 3)), ((0, 1), (2, 3)))

# Bell amplitude vectors in outcome-code order (Psi+, Psi-, Phi+, Phi-).
BELL_AMPS = (
    (0j, complex(INV_SQRT2), complex(INV_SQRT2), 0j),
    (0j, complex(INV_SQRT2), complex(-INV_SQRT2), 0j),
    (complex(INV_SQRT2), 0j, 0j, complex(INV_SQRT2)),
    (complex(INV_SQRT2), 0j, 0j, complex(-INV_SQRT2)),
)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def norm_sq(amps):
    a0, a1, a2, a3 = amps
    return _abs2(a0) + _abs2(a1) + _abs2(a2) + _abs2(a3)


def apply_u(amps, qubit, u):
    """Apply one of the four encoding unitaries to a single qubit.

    u0 = identity, u1 = Z-flip (|1> -> -|1>), u2 = bit swap,
    u3 = swap with sign (|0> -> -|1>, |1> -> |0>): the label's high bit
    swaps each pair, then its low bit negates the pair's |1> amplitude.
    """
    out = list(amps)
    for i, j in PAIRS[qubit]:
        x, y = (amps[j], amps[i]) if u & 2 else (amps[i], amps[j])
        out[i], out[j] = x, (-y if u & 1 else y)
    return tuple(out)


def qubit_probs(amps, qubit, basis):
    """Born probabilities (p0, p1) for measuring one qubit in Z or X."""
    (i0, j0), (i1, j1) = PAIRS[qubit]
    x0, y0, x1, y1 = amps[i0], amps[j0], amps[i1], amps[j1]
    if basis == 0:
        return (_abs2(x0) + _abs2(x1), _abs2(y0) + _abs2(y1))
    return (
        _abs2((x0 + y0) * INV_SQRT2) + _abs2((x1 + y1) * INV_SQRT2),
        _abs2((x0 - y0) * INV_SQRT2) + _abs2((x1 - y1) * INV_SQRT2),
    )


def collapse_qubit(amps, qubit, basis, bit):
    """Renormalized projection onto the (qubit, basis, bit) eigenspace."""
    proj = [0j, 0j, 0j, 0j]
    for i, j in PAIRS[qubit]:
        if basis == 0:
            k = j if bit else i
            proj[k] = amps[k]
        else:
            c = ((amps[i] - amps[j]) if bit else (amps[i] + amps[j])) * INV_SQRT2
            proj[i] = c * INV_SQRT2
            proj[j] = -(c * INV_SQRT2) if bit else c * INV_SQRT2
    n = norm_sq(proj)
    if n < 1e-12:
        raise DegenerateBranchError("collapse onto a ~zero-probability branch")
    s = sqrt(n)
    return (proj[0] / s, proj[1] / s, proj[2] / s, proj[3] / s)


def measure_qubit(amps, qubit, basis, r):
    """Sample one qubit measurement: bit 0 iff r < p0. Returns (bit, amps')."""
    p0, _p1 = qubit_probs(amps, qubit, basis)
    bit = 0 if r < p0 else 1
    return bit, collapse_qubit(amps, qubit, basis, bit)


def bell_probs(amps):
    """Born probabilities over Bell outcomes (Psi+, Psi-, Phi+, Phi-)."""
    a0, a1, a2, a3 = amps
    return (
        _abs2((a1 + a2) * INV_SQRT2),
        _abs2((a1 - a2) * INV_SQRT2),
        _abs2((a0 + a3) * INV_SQRT2),
        _abs2((a0 - a3) * INV_SQRT2),
    )


def bell_thresholds(amps):
    """Cumulative Bell probabilities (p0, p0 + p1, p0 + p1 + p2): a uniform r
    selects the first outcome whose threshold exceeds it, else outcome 3."""
    p0, p1, p2, _p3 = bell_probs(amps)
    acc = p0 + p1
    return (p0, acc, acc + p2)


def measure_bell(amps, r):
    """Sample a Bell-basis measurement. Returns (outcome code, collapsed amps)."""
    for k, acc in enumerate(bell_thresholds(amps)):
        if r < acc:
            return k, BELL_AMPS[k]
    if bell_probs(amps)[3] < 1e-12:
        raise DegenerateBranchError("Bell measurement fell through to a ~zero branch")
    return 3, BELL_AMPS[3]
