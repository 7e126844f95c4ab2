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

from dataclasses import dataclass
from fractions import Fraction

from . import qcore
from .ksset import KSSet, SymbolAssignment

ADVERSARY_KINDS = ("none", "ball", "intercept_resend")


@dataclass(frozen=True)
class AdversarySpec:
    kind: str = "none"
    ball_assignment: SymbolAssignment | None = None

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.kind == "ball" and self.ball_assignment is None:
            raise ValueError("ball adversary requires a symbol assignment")


def exact_intercept_resend_w(ks: KSSet) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (w_same, w_cross, w_overall) of intercept-resend by enumeration.

    Sums exact Born weights over Alice's 36 (basis, state) incidences,
    Eve's 9 bases and 4 outcomes, and Bob's sifting bases (the state's
    home bases).
    """
    raw = {v.id: v.raw_amps for v in ks.vectors}
    basis_amps = {
        b.label: [raw[i] for i in b.members] for b in ks.bases
    }
    weight = {"same": Fraction(0), "cross": Fraction(0)}
    errors = {"same": Fraction(0), "cross": Fraction(0)}
    n_inc = sum(len(ks.incidence[v.id]) for v in ks.vectors)
    w_eve = Fraction(1, n_inc * len(ks.bases))
    for v in ks.vectors:
        for alice_label, _ in ks.incidence[v.id]:
            for eve_label in basis_amps:
                eve_probs = qcore.exact_born(raw[v.id], basis_amps[eve_label])
                for k, pk in enumerate(eve_probs):
                    if pk == 0:
                        continue
                    fwd = basis_amps[eve_label][k]
                    # Bob's basis is uniform over 9; only the state's two
                    # home bases sift.  Conditional rates divide out the
                    # uniform 1/9 factor, so it is omitted.
                    for bob_label, pos in ks.incidence[v.id]:
                        cls = "same" if bob_label == alice_label else "cross"
                        bob_probs = qcore.exact_born(fwd, basis_amps[bob_label])
                        p_ok = bob_probs[pos]
                        weight[cls] += w_eve * pk
                        errors[cls] += w_eve * pk * (1 - p_ok)
    w_same = errors["same"] / weight["same"]
    w_cross = errors["cross"] / weight["cross"]
    w_overall = (errors["same"] + errors["cross"]) / (weight["same"] + weight["cross"])
    return w_same, w_cross, w_overall
