"""Two-qubit state-vector kernels in pure Python.

These are the only kernels the package uses. Seeded reports depend on their
exact floating-point results, so keep the operation order, the constants and
the branch selection rule when editing them; tests/test_kernels.py checks
each kernel against a numpy matrix reference.

States are plain tuples of 4 complex amplitudes indexed by the basis label
(h, t) in the order 00, 01, 10, 11. Qubit codes: 0 = h (home), 1 = t
(travel). Basis codes: 0 = Z, 1 = X. Bit 0 maps to |0> (Z) or |+> (X).
Bell outcome codes follow the 2-bit labels: 0 = Psi+, 1 = Psi-, 2 = Phi+,
3 = Phi-.
"""

from math import sqrt

from .errors import DegenerateBranchError

INV_SQRT2 = sqrt(0.5)

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


def inner(a, b):
    """<a|b>, conjugate-linear in the first argument."""
    return (
        a[0].conjugate() * b[0]
        + a[1].conjugate() * b[1]
        + a[2].conjugate() * b[2]
        + a[3].conjugate() * b[3]
    )


def apply_u(amps, qubit, u):
    """Apply one of the four encoding unitaries to a single qubit.

    u0 = identity, u1 = Z-flip (|1> -> -|1>), u2 = bit swap,
    u3 = swap with sign (|0> -> -|1>, |1> -> |0>).
    """
    a0, a1, a2, a3 = amps
    if qubit == 1:
        if u == 0:
            return (a0, a1, a2, a3)
        if u == 1:
            return (a0, -a1, a2, -a3)
        if u == 2:
            return (a1, a0, a3, a2)
        return (a1, -a0, a3, -a2)
    if u == 0:
        return (a0, a1, a2, a3)
    if u == 1:
        return (a0, a1, -a2, -a3)
    if u == 2:
        return (a2, a3, a0, a1)
    return (a2, a3, -a0, -a1)


def qubit_probs(amps, qubit, basis):
    """Born probabilities (p0, p1) for measuring one qubit in Z or X."""
    a0, a1, a2, a3 = amps
    if basis == 0:
        if qubit == 1:
            return (_abs2(a0) + _abs2(a2), _abs2(a1) + _abs2(a3))
        return (_abs2(a0) + _abs2(a1), _abs2(a2) + _abs2(a3))
    if qubit == 1:
        c0 = (a0 + a1) * INV_SQRT2
        c1 = (a2 + a3) * INV_SQRT2
        d0 = (a0 - a1) * INV_SQRT2
        d1 = (a2 - a3) * INV_SQRT2
    else:
        c0 = (a0 + a2) * INV_SQRT2
        c1 = (a1 + a3) * INV_SQRT2
        d0 = (a0 - a2) * INV_SQRT2
        d1 = (a1 - a3) * INV_SQRT2
    return (_abs2(c0) + _abs2(c1), _abs2(d0) + _abs2(d1))


def collapse_qubit(amps, qubit, basis, bit):
    """Renormalized projection onto the (qubit, basis, bit) eigenspace."""
    a0, a1, a2, a3 = amps
    if basis == 0:
        if qubit == 1:
            proj = (a0, 0j, a2, 0j) if bit == 0 else (0j, a1, 0j, a3)
        else:
            proj = (a0, a1, 0j, 0j) if bit == 0 else (0j, 0j, a2, a3)
    elif qubit == 1:
        if bit == 0:
            c0 = (a0 + a1) * INV_SQRT2
            c1 = (a2 + a3) * INV_SQRT2
            proj = (c0 * INV_SQRT2, c0 * INV_SQRT2, c1 * INV_SQRT2, c1 * INV_SQRT2)
        else:
            c0 = (a0 - a1) * INV_SQRT2
            c1 = (a2 - a3) * INV_SQRT2
            proj = (c0 * INV_SQRT2, -(c0 * INV_SQRT2), c1 * INV_SQRT2, -(c1 * INV_SQRT2))
    else:
        if bit == 0:
            c0 = (a0 + a2) * INV_SQRT2
            c1 = (a1 + a3) * INV_SQRT2
            proj = (c0 * INV_SQRT2, c1 * INV_SQRT2, c0 * INV_SQRT2, c1 * INV_SQRT2)
        else:
            c0 = (a0 - a2) * INV_SQRT2
            c1 = (a1 - a3) * INV_SQRT2
            proj = (c0 * INV_SQRT2, c1 * INV_SQRT2, -(c0 * INV_SQRT2), -(c1 * INV_SQRT2))
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


def measure_bell(amps, r):
    """Sample a Bell-basis measurement. Returns (outcome code, collapsed amps)."""
    p0, p1, p2, p3 = bell_probs(amps)
    acc = p0
    if r < acc:
        k = 0
    else:
        acc += p1
        if r < acc:
            k = 1
        else:
            acc += p2
            if r < acc:
                k = 2
            else:
                if p3 < 1e-12:
                    raise DegenerateBranchError("Bell measurement fell through to a ~zero branch")
                k = 3
    return k, BELL_AMPS[k]
