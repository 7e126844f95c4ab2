"""Integer lookup tables and the vectorized NumPy round kernel.

The protocol only ever measures KS rays in KS bases, so every Born
probability is an exact multiple of 1/16 and each cumulative Born
numerator is an integer.  An outcome drawn by inverse CDF from a uniform
``u`` is therefore fixed by ``s = floor(16 u)`` alone: ``16 u >= c``
holds exactly when ``s >= c`` for integer ``c``.  ``build_tables``
precomputes the outcome for every (ray, basis, s), and the kernel reads
each round's outcomes with one gather instead of a per-round search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import NoiseSpec
from .ksset import KSSet, SymbolAssignment, exact_basis_probs

# Common denominator of every Born probability among KS18 rays/bases.
PROB_DENOM = 16


@dataclass(frozen=True)
class KernelTables:
    """Integer lookup tables driving the round kernel."""

    pos_table: np.ndarray   # int32[nv, nb], -1 when vector not in basis
    outcome_table: np.ndarray  # int8[nv, nb, 16], 1-based outcome per floor(16u)
    members: np.ndarray     # int32[nb, 4]


def build_tables(ks: KSSet) -> KernelTables:
    """Precompute exact positions and the outcome for every (ray, basis, s).

    Requires every in-set Born probability to be a multiple of 1/16,
    which holds for the builtin set (amplitudes in {-1, 0, 1}).
    """
    nv, nb = len(ks.vectors), len(ks.bases)
    pos = np.full((nv, nb), -1, dtype=np.int32)
    cum = np.zeros((nv, nb, 4), dtype=np.int32)
    members = np.zeros((nb, 4), dtype=np.int32)
    for bi, b in enumerate(ks.bases):
        members[bi] = b.members
        for p, vid in enumerate(b.members):
            pos[vid, bi] = p
    for v in ks.vectors:
        for bi, b in enumerate(ks.bases):
            probs = exact_basis_probs(ks, v.id, b.label)
            acc = Fraction(0)
            for k, pk in enumerate(probs):
                acc += pk
                num = acc * PROB_DENOM
                if num.denominator != 1:
                    raise ValueError(
                        f"probability {pk} of vector {v.id} in basis {b.label} "
                        f"is not a multiple of 1/{PROB_DENOM}"
                    )
                cum[v.id, bi, k] = int(num)
    # The 1-based outcome for s is one more than the count of cumulative
    # numerators at or below s (the loop `while 16u >= cum[k]: k += 1`).
    s = np.arange(PROB_DENOM)[:, None]
    outcome = 1 + (cum[:, :, None, :] <= s).sum(axis=-1)
    return KernelTables(pos, outcome.astype(np.int8), members)


def assignment_table(ks: KSSet, assignment: SymbolAssignment | None) -> np.ndarray:
    table = np.zeros((len(ks.bases), 4), dtype=np.int32)
    if assignment is not None:
        for bi, b in enumerate(ks.bases):
            table[bi] = assignment.symbols[b.label]
    return table


def _index(u: np.ndarray, count: int) -> np.ndarray:
    """Uniform draws mapped to indices 0..count-1 (truncating, like int())."""
    return (u * count).astype(np.intp)


def simulate_rounds(
    tables: KernelTables,
    assign: np.ndarray,
    adversary: str,
    noise: NoiseSpec,
    ua: np.ndarray, ub: np.ndarray, un: np.ndarray, ue: np.ndarray,
) -> dict[str, np.ndarray]:
    """Every round of a session from its uniform draws (float64[n, 2] each).

    Column 0 of ``ua``/``ub`` picks Alice's and Bob's basis, column 1 of
    ``ua`` Alice's state and column 1 of ``ub`` Bob's Born outcome.  The
    ball adversary reads ``ue[:, 0]`` off-home and is unaffected by noise;
    intercept-resend picks Eve's basis and outcome from ``ue``.  Otherwise
    a depolarized round (``un[:, 0] < p``) reads a uniform symbol from
    ``un[:, 1]``.  Returns the RoundLog columns that depend on these
    draws, keyed by field name.
    """
    nb = len(tables.members)
    ba, pos_a = _index(ua[:, 0], nb), _index(ua[:, 1], 4)
    v = tables.members[ba, pos_a]
    bb = _index(ub[:, 0], nb)
    p_pos = tables.pos_table[v, bb]
    sifted = p_pos >= 0

    if adversary == "ball":
        # Unsifted rounds index column -1 here; np.where discards them.
        outcome = np.where(sifted, assign[bb, p_pos], _index(ue[:, 0], 4) + 1)
        a_sym = np.where(sifted, assign[ba, pos_a], 0)
    else:
        fwd = v
        if adversary == "intercept_resend":
            eb = _index(ue[:, 0], nb)
            eve = tables.outcome_table[v, eb, _index(ue[:, 1], PROB_DENOM)]
            fwd = tables.members[eb, eve - 1]
        outcome = tables.outcome_table[fwd, bb, _index(ub[:, 1], PROB_DENOM)]
        if noise.kind == "depolarizing":
            outcome = np.where(un[:, 0] < noise.p, _index(un[:, 1], 4) + 1, outcome)
        a_sym = p_pos + 1  # p_pos is -1 exactly when the round is unsifted

    return {
        "alice_basis": ba.astype(np.int32),
        "alice_state": v,
        "bob_basis": bb.astype(np.int32),
        "bob_outcome": outcome.astype(np.int32),
        "sifted": sifted,
        "alice_symbol": a_sym.astype(np.int32),
        "cross_basis": sifted & (bb != ba),
    }
