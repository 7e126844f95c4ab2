"""Exact linear algebra for 4-dimensional integer-amplitude states.

Every ray the package handles has integer amplitudes, so each
orthogonality and probability statement is decided with exact integer
and ``fractions.Fraction`` arithmetic, by equality instead of a
tolerance.  The one floating-point routine, :func:`render_hybrid_ket`,
only formats amplitudes in the paper's hybrid polarization/OAM ket
notation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Ket rendering tolerances: a norm below ATOL_ZERO is a zero vector, and a
# coefficient within ATOL_COEFF of zero, one or the real axis is read as such.
ATOL_ZERO = 1e-12
ATOL_COEFF = 1e-9

# Hybrid ket labels for logical basis indices 1..4 (polarization x OAM).
KET_LABELS = ("|H,+1⟩", "|H,−1⟩", "|V,+1⟩", "|V,−1⟩")

MINUS = "−"


class ZeroVectorError(ValueError):
    """Raised when an overlap, canonical form or ket meets a zero vector."""


def _format_coeff(c: complex) -> tuple[str, str]:
    """Split a coefficient into (sign, magnitude text) for ket rendering."""
    if abs(c.imag) > ATOL_COEFF:
        # general complex coefficient: render in parentheses, sign absorbed
        return "+", f"({c.real:.4g}{c.imag:+.4g}i)"
    x = c.real
    sign = "-" if x < 0 else "+"
    mag = abs(x)
    if abs(mag - 1.0) <= ATOL_COEFF:
        return sign, ""
    if abs(mag - round(mag, 4)) < 1e-12:
        text = f"{mag:.4f}".rstrip("0").rstrip(".")
    else:
        text = f"{mag:.4f}"
    return sign, text


def render_hybrid_ket(state) -> str:
    """Render amplitudes in the hybrid polarization/OAM ket basis.

    The amplitudes are scaled to unit norm but their phase is kept, so a
    leading negative amplitude renders as written in the source table.
    Terms appear in logical order, zero amplitudes are omitted, unit
    coefficients are suppressed, and the minus sign is typeset as the
    Unicode minus to match the ket arrows.
    """
    amps = np.asarray(state, dtype=np.complex128)
    norm = float(np.sqrt(np.real(np.vdot(amps, amps))))
    if norm < ATOL_ZERO:
        raise ZeroVectorError("cannot render zero vector")
    amps = amps / norm
    parts = []
    for amp, label in zip(amps, KET_LABELS):
        if abs(amp) <= ATOL_COEFF:
            continue
        sign, mag = _format_coeff(complex(amp))
        parts.append((sign, mag + label))
    out = []
    for i, (sign, term) in enumerate(parts):
        if i == 0:
            out.append((MINUS if sign == "-" else "") + term)
        else:
            out.append((" " + (MINUS if sign == "-" else "+") + " ") + term)
    return "".join(out)


# ---------------------------------------------------------------------------
# Exact arithmetic on integer-amplitude vectors
# ---------------------------------------------------------------------------

def exact_inner(u, v) -> int:
    """Real dot product of two integer amplitude tuples."""
    return sum(int(a) * int(b) for a, b in zip(u, v))


def exact_overlap_sq(u, v) -> Fraction:
    """|<u|v>|^2 for integer amplitude tuples, after exact normalization."""
    nu = exact_inner(u, u)
    nv = exact_inner(v, v)
    if nu == 0 or nv == 0:
        raise ZeroVectorError("zero vector in exact overlap")
    return Fraction(exact_inner(u, v) ** 2, nu * nv)


def exact_born(state, basis_amps) -> tuple[Fraction, ...]:
    """Exact Born probabilities of an integer vector in an integer basis.

    `basis_amps` is a sequence of four integer amplitude tuples that must
    be pairwise orthogonal, so that the probabilities sum to exactly 1.

    Raises:
        ValueError: when the probabilities do not sum to 1, i.e. the basis
            is not complete and orthogonal in exact arithmetic.
    """
    probs = tuple(exact_overlap_sq(b, state) for b in basis_amps)
    if sum(probs) != 1:
        raise ValueError(
            f"basis not complete/orthogonal in exact arithmetic: "
            f"probabilities of {tuple(state)} sum to {sum(probs)}"
        )
    return probs


def exact_entanglement_det(amps) -> int:
    """Determinant a1*a4 - a2*a3 of the 2x2 reshape, for integer amplitudes."""
    a1, a2, a3, a4 = (int(a) for a in amps)
    return a1 * a4 - a2 * a3


def canonical_int_amps(amps) -> tuple[int, ...]:
    """Canonical representative of an integer vector up to scaling and sign."""
    a = [int(x) for x in amps]
    g = 0
    for x in a:
        g = np.gcd(g, abs(x))
    if g == 0:
        raise ZeroVectorError("zero integer vector")
    a = [x // int(g) for x in a]
    lead = next(x for x in a if x != 0)
    if lead < 0:
        a = [-x for x in a]
    return tuple(a)
