"""Transmission noise: a one-parameter depolarizing channel.

The round kernel (``kernel.simulate_rounds``) applies it by sampling: a
round is "depolarized" with probability p, and its measurement outcome
is then uniform over the four detectors regardless of basis.  This has
the outcome statistics of rho -> (1-p) rho + p I/4, so every outcome
probability is (1-p) P_Born + p/4 and the rounds stay pure-state.

The single error figure the protocol cares about is w, the probability
of a wrong state identification given a correct-basis measurement.  For
depolarizing noise w = 3p/4 and the transmission fidelity is F = 1 - w.
"""

from __future__ import annotations

from dataclasses import dataclass

NOISE_KINDS = ("none", "depolarizing")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability {self.p} outside [0, 1]")

