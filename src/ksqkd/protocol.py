"""The KS-protected key distribution protocol engine.

One session: Alice sends random KS states, Bob measures in random KS
bases, rounds where the state belongs to Bob's basis survive sifting, a
Bernoulli subset of sifted rounds is sacrificed to estimate error rates,
and the session is certified secure only if both the overall and the
cross-basis error rates sit strictly below 1/9.

Randomness discipline: a master seed derives five independent named
substreams (alice, bob, noise, adversary, check) via numpy
``SeedSequence(seed, spawn_key=(index,))``, each consuming a fixed number
of uniforms per round.  Toggling one component therefore never perturbs
another component's draws, and the whole session is reproducible
bit-for-bit from (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel, ksset
from .adversary import AdversarySpec
from .channels import NoiseSpec
from .ksset import KSSet

# Certification threshold on w (both overall and cross-basis, strict).
W_THRESHOLD_NUM = 1
W_THRESHOLD_DEN = 9

SECURE, INSECURE, INDETERMINATE = "SECURE", "INSECURE", "INDETERMINATE"

# Substream indices of the master seed's spawn keys.
STREAM_INDEX = {"alice": 0, "bob": 1, "noise": 2, "adversary": 3, "check": 4}


@dataclass(frozen=True)
class SessionConfig:
    rounds: int = 100_000
    seed: int = 0
    check_fraction: float = 0.5
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0.0 <= self.check_fraction <= 1.0:
            raise ValueError("check_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        adv: dict = {"kind": self.adversary.kind}
        if self.adversary.ball_assignment is not None:
            adv["ball_assignment"] = {
                lab: list(syms)
                for lab, syms in sorted(self.adversary.ball_assignment.symbols.items())
            }
        return {
            "rounds": self.rounds,
            "seed": self.seed,
            "check_fraction": self.check_fraction,
            "noise": {"kind": self.noise.kind, "p": self.noise.p},
            "adversary": adv,
        }


def substream(seed: int, name: str) -> np.random.Generator:
    """The named substream of a master seed (documented splitting rule)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(STREAM_INDEX[name],))
    )


@dataclass
class RoundLog:
    """Columnar transcript of a session's rounds."""

    index: np.ndarray         # round number 0..n-1
    alice_basis: np.ndarray   # basis index 0..8
    alice_state: np.ndarray   # vector id
    bob_basis: np.ndarray     # basis index 0..8
    bob_outcome: np.ndarray   # 1..4
    sifted: np.ndarray        # bool
    check: np.ndarray         # bool (sifted check rounds)
    alice_symbol: np.ndarray  # 1..4 when sifted, 0 otherwise
    cross_basis: np.ndarray   # bool, meaningful only when sifted

    def __len__(self):
        return len(self.index)


def run_rounds(config: SessionConfig, ks: KSSet | None = None) -> RoundLog:
    """Simulate all rounds of a session through the round kernel."""
    ks = ks or ksset.builtin_ks18()
    tables = kernel.build_tables(ks)
    assign = kernel.assignment_table(ks, config.adversary.ball_assignment)
    n = config.rounds
    ua = substream(config.seed, "alice").random((n, 2))
    ub = substream(config.seed, "bob").random((n, 2))
    un = substream(config.seed, "noise").random((n, 2))
    ue = substream(config.seed, "adversary").random((n, 2))
    uc = substream(config.seed, "check").random(n)
    columns = kernel.simulate_rounds(
        tables, assign, config.adversary.kind, config.noise, ua, ub, un, ue
    )
    return RoundLog(
        index=np.arange(n, dtype=np.int64),
        check=columns["sifted"] & (uc < config.check_fraction),
        **columns,
    )


def wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = errors / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class CheckStats:
    """Error statistics over the sacrificed (check) rounds.

    Rates are None when their conditioning class is empty: an absent
    statistic is undefined, never silently zero.
    """

    n_checks: int
    n_same: int
    n_cross: int
    errors_overall: int
    errors_same: int
    errors_cross: int

    def _rate(self, errors: int, n: int) -> float | None:
        return errors / n if n > 0 else None

    @property
    def w_overall(self) -> float | None:
        return self._rate(self.errors_overall, self.n_checks)

    @property
    def w_same(self) -> float | None:
        return self._rate(self.errors_same, self.n_same)

    @property
    def w_cross(self) -> float | None:
        return self._rate(self.errors_cross, self.n_cross)

    def wilson(self) -> dict[str, tuple[float, float]]:
        return {
            "overall": wilson_interval(self.errors_overall, self.n_checks),
            "same": wilson_interval(self.errors_same, self.n_same),
            "cross": wilson_interval(self.errors_cross, self.n_cross),
        }


def estimate_error_stats(log: RoundLog) -> CheckStats:
    checked = log.sifted & log.check
    err = checked & (log.bob_outcome != log.alice_symbol)
    same = checked & ~log.cross_basis
    cross = checked & log.cross_basis
    return CheckStats(
        n_checks=int(checked.sum()),
        n_same=int(same.sum()),
        n_cross=int(cross.sum()),
        errors_overall=int(err.sum()),
        errors_same=int((err & same).sum()),
        errors_cross=int((err & cross).sum()),
    )


@dataclass(frozen=True)
class Verdict:
    verdict: str               # SECURE / INSECURE / INDETERMINATE
    failed: tuple[str, ...]    # statistics at or above the threshold

    @property
    def certified(self) -> bool | None:
        if self.verdict == INDETERMINATE:
            return None
        return self.verdict == SECURE


def certify(stats: CheckStats) -> Verdict:
    """SECURE iff both w_overall and w_cross are strictly below 1/9.

    The dual test exists because the ball attack's trace concentrates in
    cross-basis rounds (same-basis rounds are error free by construction),
    so w_overall alone would halve the attack's visible signature.
    Exact integer comparison avoids threshold rounding at the boundary.
    """
    if stats.n_checks == 0 or stats.n_cross == 0:
        return Verdict(INDETERMINATE, ())
    failed = []
    if not stats.errors_overall * W_THRESHOLD_DEN < stats.n_checks * W_THRESHOLD_NUM:
        failed.append("w_overall")
    if not stats.errors_cross * W_THRESHOLD_DEN < stats.n_cross * W_THRESHOLD_NUM:
        failed.append("w_cross")
    return Verdict(INSECURE if failed else SECURE, tuple(failed))


def _digits(symbols: np.ndarray) -> str:
    """Single-digit symbols (always 1..4 here) as one decimal string."""
    return (symbols + ord("0")).astype(np.uint8).tobytes().decode("ascii")


def extract_key(log: RoundLog) -> tuple[str, str, float | None]:
    """Keys from sifted non-check rounds, in round order."""
    keep = np.flatnonzero(log.sifted & ~log.check)
    key_a = _digits(log.alice_symbol[keep])
    key_b = _digits(log.bob_outcome[keep])
    agreement = None
    if len(keep):
        agreement = float(
            (log.alice_symbol[keep] == log.bob_outcome[keep]).mean()
        )
    return key_a, key_b, agreement


@dataclass
class SessionReport:
    config: SessionConfig
    rounds_total: int
    rounds_sifted: int
    sift_rate: float
    same_basis_rate: float
    checks_used: int
    w_overall: float | None
    w_same: float | None
    w_cross: float | None
    certified: bool | None     # None when the verdict is INDETERMINATE
    key_alice: str
    key_bob: str
    key_agreement_rate: float | None

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rounds_total": self.rounds_total,
            "rounds_sifted": self.rounds_sifted,
            "sift_rate": self.sift_rate,
            "same_basis_rate": self.same_basis_rate,
            "checks_used": self.checks_used,
            "w_overall": self.w_overall,
            "w_same": self.w_same,
            "w_cross": self.w_cross,
            "certified": self.certified,
            "key_alice": self.key_alice,
            "key_bob": self.key_bob,
            "key_agreement_rate": self.key_agreement_rate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def report_from_log(config: SessionConfig, log: RoundLog) -> SessionReport:
    """Aggregate a round log into the session report."""
    n = len(log)
    n_sifted = int(log.sifted.sum())
    n_same = int((log.sifted & ~log.cross_basis).sum())
    stats = estimate_error_stats(log)
    verdict = certify(stats)
    key_a, key_b, agreement = extract_key(log)
    return SessionReport(
        config=config,
        rounds_total=n,
        rounds_sifted=n_sifted,
        sift_rate=n_sifted / n,
        same_basis_rate=n_same / n,
        checks_used=stats.n_checks,
        w_overall=stats.w_overall,
        w_same=stats.w_same,
        w_cross=stats.w_cross,
        certified=verdict.certified,
        key_alice=key_a,
        key_bob=key_b,
        key_agreement_rate=agreement,
    )


def run_session(config: SessionConfig, ks: KSSet | None = None) -> SessionReport:
    """Run a full session; deterministic given (config, seed)."""
    return report_from_log(config, run_rounds(config, ks))
