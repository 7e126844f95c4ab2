"""Exact linear algebra for 4-dimensional integer-amplitude states.

Every ray the package handles has integer amplitudes, so each
orthogonality and probability statement is decided with exact integer
and ``fractions.Fraction`` arithmetic, by equality instead of a
tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ZeroVectorError(ValueError):
    """Raised when an overlap or a canonical form meets a zero vector."""


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
    g = math.gcd(*a)
    if g == 0:
        raise ZeroVectorError("zero integer vector")
    a = [x // g for x in a]
    lead = next(x for x in a if x != 0)
    if lead < 0:
        a = [-x for x in a]
    return tuple(a)
