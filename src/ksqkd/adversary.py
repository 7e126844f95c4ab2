"""Attack models: classical ball substitution and intercept-resend.

The ball attack replaces the quantum source with pre-labeled classical
"balls": each transmitted system carries, for each of its two home
bases, the symbol a fixed per-basis labeling assigns to it.  The
Kochen-Specker structure forces at least two defective balls (differing
symbols), so cross-basis check rounds betray the attack at rate
defects/18 while same-basis rounds stay error free.

Intercept-resend has Eve measure in a uniformly random KS basis and
forward the obtained eigenstate; full enumeration with exact Born
weights gives its error rates, all of which land above the 1/9
certification threshold.

The per-round behaviour of both attacks lives in the round kernel
(``kernel.simulate_rounds``); this module holds their specification and
the exact intercept-resend rates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import Record
from .ksset import KSSet, SymbolAssignment, born_table

ADVERSARY_KINDS = ("none", "ball", "intercept_resend")

# Certification threshold on w (both overall and cross-basis, strict): a
# session is secure only while its error rates stay below 1/9.  It is
# exact because the float 1/9 lies just below the rational 1/9.
W_THRESHOLD = Fraction(1, 9)


class _AdversarySpecFields(NamedTuple):
    kind: str = "none"
    ball_assignment: SymbolAssignment | None = None


class AdversarySpec(Record, _AdversarySpecFields):
    __slots__ = ()

    def _check(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind == "ball" and self.ball_assignment is None:
            raise ValueError("ball adversary requires a symbol assignment")
        if self.kind != "ball" and self.ball_assignment is not None:
            raise ValueError(f"ball_assignment needs adversary kind 'ball', not {self.kind!r}")


def exact_intercept_resend_w(ks: KSSet) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (w_same, w_cross, w_overall) of intercept-resend by enumeration.

    Sums exact Born weights over Alice's 36 (basis, state) incidences,
    Eve's 9 bases and 4 outcomes, and Bob's sifting bases (the state's
    home bases).  Every weight is read from one Born table, held as
    integer numerators over the table's common denominator, so the sums
    are integer sums and each rate is one Fraction.
    """
    den, num = born_table(ks)
    index = {b.label: bi for bi, b in enumerate(ks.bases)}
    members = [b.members for b in ks.bases]
    # Eve's uniform basis choice weighs every term alike, and Bob's basis
    # is uniform over 9 with only the state's two home bases sifting; the
    # conditional rates divide both factors out, so they are omitted.
    weight = {"same": 0, "cross": 0}
    errors = {"same": 0, "cross": 0}
    for v in ks.vectors:
        for alice_label, _ in ks.incidence[v.id]:
            for eb, eve_probs in enumerate(num[v.id]):
                for k, pk in enumerate(eve_probs):
                    if pk == 0:
                        continue
                    fwd = num[members[eb][k]]
                    for bob_label, pos in ks.incidence[v.id]:
                        cls = "same" if bob_label == alice_label else "cross"
                        weight[cls] += pk * den
                        errors[cls] += pk * (den - fwd[index[bob_label]][pos])
    w_same = Fraction(errors["same"], weight["same"])
    w_cross = Fraction(errors["cross"], weight["cross"])
    w_overall = Fraction(
        errors["same"] + errors["cross"], weight["same"] + weight["cross"]
    )
    return w_same, w_cross, w_overall
