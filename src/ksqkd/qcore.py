"""Exact linear algebra for 4-dimensional integer-amplitude states.

Every ray the package handles has integer amplitudes, so each
orthogonality and probability statement is decided with exact integer
and ``fractions.Fraction`` arithmetic, by equality instead of a
tolerance.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class ZeroVectorError(ValueError):
    """Raised when a Born probability or a canonical form meets a zero vector."""


def exact_inner(u, v) -> int:
    """Real dot product of two integer amplitude tuples."""
    return sum(map(operator.mul, map(int, u), map(int, v)))


def exact_born(state, basis_amps) -> tuple[Fraction, ...]:
    """Exact Born probabilities of an integer vector in an integer basis.

    `basis_amps` is a sequence of four integer amplitude tuples that must
    be pairwise orthogonal, so that the probabilities sum to exactly 1.
    Each probability (b.s)^2 / (|b|^2 |s|^2) is held as an integer pair,
    and the sum is decided over the pairs' least common denominator, so
    only the returned probabilities are Fractions.

    Raises:
        ZeroVectorError: when the state or a basis vector is zero.
        ValueError: when the probabilities do not sum to 1, i.e. the basis
            is not complete and orthogonal in exact arithmetic.
    """
    s0, s1, s2, s3 = map(int, state)
    ns = s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3
    pairs = []
    for b in basis_amps:
        b0, b1, b2, b3 = map(int, b)
        pairs.append(((b0 * s0 + b1 * s1 + b2 * s2 + b3 * s3) ** 2,
                      (b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3) * ns))
    if not all(d for _, d in pairs):
        raise ZeroVectorError("zero vector in exact overlap")
    lcd = math.lcm(*(d for _, d in pairs))
    total = sum(n * (lcd // d) for n, d in pairs)
    if total != lcd:
        raise ValueError(
            f"basis not complete/orthogonal in exact arithmetic: "
            f"probabilities of {tuple(state)} sum to {Fraction(total, lcd)}"
        )
    return tuple(Fraction(n, d) for n, d in pairs)


def exact_entanglement_det(amps) -> int:
    """Determinant a1*a4 - a2*a3 of the 2x2 reshape, for integer amplitudes."""
    a1, a2, a3, a4 = (int(a) for a in amps)
    return a1 * a4 - a2 * a3


def canonical_int_amps(amps) -> tuple[int, ...]:
    """Canonical representative of an integer vector up to scaling and sign."""
    a = [int(x) for x in amps]
    g = math.gcd(*a)
    if g == 0:
        raise ZeroVectorError("zero integer vector")
    a = [x // g for x in a]
    lead = next(x for x in a if x != 0)
    if lead < 0:
        a = [-x for x in a]
    return tuple(a)
