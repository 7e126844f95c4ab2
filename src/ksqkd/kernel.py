"""Integer lookup tables and the vectorized NumPy round kernel.

The protocol only ever measures set rays in set bases, so every Born
probability is an exact multiple of ``1/den``, with ``den`` the least
common denominator of ``ksset.born_table`` (4 for the builtin set), and
each cumulative Born numerator is an integer.  An outcome drawn by
inverse CDF from a uniform ``u`` is therefore fixed by
``s = floor(den u)`` alone: ``den u >= c`` holds exactly when ``s >= c``
for integer ``c``.  ``build_tables`` precomputes the outcome for every
(ray, basis, s), and the kernel reads each round's outcomes with one
gather instead of a per-round search.

Every uniform is read only through its cell ``floor(m u)``, computed
once per column as int32 (m is 9, 4 or ``den``).  Each round quantity is
a table entry at an integer combination of those cells, so the kernel
reads every column with ``ndarray.take`` from a flat table that
``build_tables`` lays out once: Alice's state by her incidence
``a = 4 ba + pos``, Bob's sift position by ``(a, bb)``, Eve's forwarded
ray by ``(v, eb, s)`` and Bob's outcome by ``(ray, bb, s)``.

The kernel takes the session config's specs as they are, and draws the
uniforms of only the substreams its branch reads.  The tables and their
set are one ``KernelTables``, a ``typing.NamedTuple`` like every ksqkd
record.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .adversary import AdversarySpec
from .channels import NoiseSpec
from .ksset import KSSet, born_table


class KernelTables(NamedTuple):
    """The flat integer tables ``simulate_rounds`` reads, with their set.

    An incidence ``a = 4 ba + pos`` is Alice's (basis, position) pair;
    ``nv`` and ``nb`` count the set's vectors and bases, and ``den`` is
    the least common denominator of the set's Born probabilities.
    """

    ks: KSSet               # the set the tables were built from
    den: int                # Born slots per (ray, basis): 4 for the builtin set
    state: np.ndarray       # int32[4 nb], the ray of incidence a
    sift_pos: np.ndarray    # int32[4 nb nb], Bob's position of state[a] in bb
                            # at a nb + bb, -1 when the ray is not in bb
    forward: np.ndarray     # int32[nv nb den], Eve's forwarded ray at (v nb + eb) den + s
    outcome: np.ndarray     # int32[nv nb den], 1-based outcome at (v nb + b) den + s


def build_tables(ks: KSSet) -> KernelTables:
    """Precompute exact positions and the outcome for every (ray, basis, s).

    The slots ``s = 0 .. den - 1`` are the cells of ``born_table``'s own
    common denominator, so every cumulative Born numerator is a slot
    boundary for any set whose bases are orthogonal.
    """
    nv, nb = len(ks.vectors), len(ks.bases)
    members = np.array([b.members for b in ks.bases], dtype=np.int32)
    pos = np.full((nv, nb), -1, dtype=np.int32)
    pos[members, np.arange(nb)[:, None]] = np.arange(4)
    den, num = born_table(ks)
    cum = np.cumsum(np.array(num), axis=-1)
    # The 1-based outcome for s is one more than the count of cumulative
    # numerators at or below s (the loop `while den u >= cum[k]: k += 1`).
    s = np.arange(den)[:, None]
    outcome = (1 + (cum[:, :, None, :] <= s).sum(axis=-1)).astype(np.int32)
    state = members.ravel()
    # Eve measuring ray v in basis eb forwards the member her outcome names.
    forward = members[np.arange(nb)[:, None], outcome - 1]
    return KernelTables(
        ks,
        den=den,
        state=state,
        sift_pos=pos[state].ravel(),
        forward=forward.ravel(),
        outcome=outcome.ravel(),
    )


def _cells(u: np.ndarray, count: int) -> np.ndarray:
    """The cell 0..count-1 of each uniform among ``count`` equal cells.

    Truncates like ``int()``.  The cast to int32 is several times faster
    than to intp, and ``take`` accepts int32 indices as they are.
    """
    return (u * count).astype(np.int32)


def simulate_rounds(
    tables: KernelTables,
    adversary: AdversarySpec,
    noise: NoiseSpec,
    draw: Callable[[str], np.ndarray],
) -> dict[str, np.ndarray]:
    """Every round of a session from its uniform draws.

    ``adversary`` and ``noise`` are the session config's specs, and
    ``draw(name)`` returns the named substream's next uniforms, float64[n, 2].
    It is called once per stream read, in this order: ``alice`` and ``bob``
    always, ``noise`` for depolarizing noise off the ball branch,
    ``adversary`` for ball and intercept-resend.  Each stream's uniforms are
    read into their cells and dropped before the next stream is drawn, so
    ``draw`` may hand back the same buffer each time.  Column 0 of
    alice/bob picks each one's basis, column 1 Alice's state and Bob's Born
    outcome.  The ball reads sifted rounds' symbols from its labeling and
    ``adversary[:, 0]`` off-home; intercept-resend picks Eve's basis and
    outcome from ``adversary``.  A depolarized round (``noise[:, 0] < p``)
    reads a uniform symbol from ``noise[:, 1]``.  Returns the RoundLog
    columns, keyed by field name.
    """
    # Each stream is drawn, read into its int32 cells and freed before the
    # next is drawn, so one float64[n, 2] block is alive at a time, not
    # four.  Every draw is the same size and comes before the table
    # gathers, so it gets back the block the one before it freed, at the
    # same address chunk after chunk, and faults no page in again.  Drawn
    # after the gathers, the noisy intercept session re-faulted ~15,600
    # pages per 10^6 rounds.
    nb, den = len(tables.ks.bases), tables.den
    u = draw("alice")
    ba = _cells(u[:, 0], nb)
    a = _cells(u[:, 1], 4)
    del u
    u = draw("bob")
    bb = _cells(u[:, 0], nb)
    if adversary.kind != "ball":
        s_bob = _cells(u[:, 1], den)
    del u
    noisy = noise.kind == "depolarizing" and adversary.kind != "ball"
    if noisy:
        u = draw("noise")
        depolarized = u[:, 0] < noise.p
        noise_sym = _cells(u[:, 1], 4) + 1
        del u
    if adversary.kind != "none":
        u = draw("adversary")
        if adversary.kind == "ball":
            off_home = _cells(u[:, 0], 4) + 1
        else:
            eb, s_eve = _cells(u[:, 0], nb), _cells(u[:, 1], den)
        del u
    a += 4 * ba
    v = tables.state.take(a)
    p_pos = tables.sift_pos.take(a * nb + bb)
    sifted = p_pos >= 0

    if adversary.kind == "ball":
        # symbols[4 bi + p]: the labeling's symbol at position p of basis bi.
        labeling = adversary.ball_assignment.symbols
        symbols = np.array([labeling[b.label] for b in tables.ks.bases],
                           dtype=np.int32).ravel()
        # Unsifted rounds read cell 4 bb - 1 here; np.where discards them.
        outcome = np.where(sifted, symbols.take(4 * bb + p_pos), off_home)
        a_sym = np.where(sifted, symbols.take(a), 0)
    else:
        fwd = v
        if adversary.kind == "intercept_resend":
            cell = (v * nb + eb) * den
            cell += s_eve
            fwd = tables.forward.take(cell)
        cell = (fwd * nb + bb) * den
        cell += s_bob
        outcome = tables.outcome.take(cell)
        if noisy:
            outcome = np.where(depolarized, noise_sym, outcome)
        a_sym = p_pos + 1  # p_pos is -1 exactly when the round is unsifted

    return {
        "alice_basis": ba,
        "alice_state": v,
        "bob_basis": bb,
        "bob_outcome": outcome,
        "sifted": sifted,
        "alice_symbol": a_sym,
        "cross_basis": sifted & (bb != ba),
    }
