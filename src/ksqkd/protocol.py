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

A session runs in chunks of ``CHUNK_ROUNDS`` rounds, so its memory does
not grow with the round count beyond the two key strings.  Each chunk
draws its next uniforms from the same five generators; consecutive
``random`` calls continue one stream, so the draws, and the report, are
bit-for-bit those of one call over all rounds, at any chunk size.  A
chunk is tallied by one count of its rounds' classes (sifted, check,
cross-basis, error).  The report is the session's tally of those counts,
and every figure of the report is read from it.  At 2^14 rounds a
chunk's working set, about 118 B per round, fits a 2 MB L2 cache; on a
2-core x86_64 host 2^13 and 2^15 ran no faster end to end.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernel, ksset
from .adversary import W_THRESHOLD, AdversarySpec
from .channels import NoiseSpec
from .kernel import KernelTables

SECURE, INSECURE, INDETERMINATE = "SECURE", "INSECURE", "INDETERMINATE"

# Substream indices of the master seed's spawn keys.
STREAM_INDEX = {"alice": 0, "bob": 1, "noise": 2, "adversary": 3, "check": 4}

# Rounds drawn, simulated and tallied at a time by run_session.
CHUNK_ROUNDS = 1 << 14


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


def substreams(seed: int) -> dict[str, np.random.Generator]:
    """All five named substreams of a master seed, each at round 0."""
    return {name: substream(seed, name) for name in STREAM_INDEX}


def run_rounds(
    config: SessionConfig,
    tables: KernelTables | None = None,
    streams: dict[str, np.random.Generator] | None = None,
    start: int = 0,
    count: int | None = None,
) -> RoundLog:
    """Simulate ``count`` rounds of a session, from round ``start`` on.

    ``tables`` are the kernel tables of the set to run on; without them
    the builtin set and its tables are built here.  ``streams`` are the
    session's substreams, standing at round ``start``; without them they
    are made here at round 0.  The defaults run every round of the
    session.
    """
    if tables is None:
        tables = kernel.build_tables(ksset.builtin_ks18())
    if streams is None:
        if start:
            raise ValueError("rounds after 0 need the session's streams")
        streams = substreams(config.seed)
    if count is None:
        count = config.rounds - start
    ua = streams["alice"].random((count, 2))
    ub = streams["bob"].random((count, 2))
    un = streams["noise"].random((count, 2))
    ue = streams["adversary"].random((count, 2))
    uc = streams["check"].random(count)
    columns = kernel.simulate_rounds(
        tables, config.adversary, config.noise, ua, ub, un, ue
    )
    return RoundLog(
        index=np.arange(start, start + count, dtype=np.int64),
        check=columns["sifted"] & (uc < config.check_fraction),
        **columns,
    )


def iter_chunks(
    config: SessionConfig, tables: KernelTables | None = None
) -> Iterator[RoundLog]:
    """Every round of a session as logs of ``CHUNK_ROUNDS`` rounds, in order."""
    if tables is None:
        tables = kernel.build_tables(ksset.builtin_ks18())
    streams = substreams(config.seed)
    for start in range(0, config.rounds, CHUNK_ROUNDS):
        count = min(CHUNK_ROUNDS, config.rounds - start)
        yield run_rounds(config, tables, streams, start, count)


def wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = errors / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def _rate(errors: int, n: int) -> float | None:
    return errors / n if n > 0 else None


@dataclass(frozen=True)
class CheckStats:
    """A tally of rounds per class, and every figure read from it.

    ``counts[8*sifted + 4*check + 2*cross + error]`` is the number of
    rounds in that class, as 16 ints: sifted rounds have codes 8-15, check
    rounds 12-15, cross-basis check rounds 14-15, and errors odd codes.
    ``check`` and ``cross`` count only on sifted rounds.  An error is a
    round whose outcome differs from Alice's symbol; on a sifted non-check
    round that is a key digit the keys disagree on.  Rates are None when
    their conditioning class is empty: an absent statistic is undefined,
    never silently zero.
    """

    counts: tuple[int, ...]

    rounds_total = property(lambda self: sum(self.counts))
    rounds_sifted = property(lambda self: sum(self.counts[8:]))
    n_checks = checks_used = property(lambda self: sum(self.counts[12:]))
    n_same = property(lambda self: self.counts[12] + self.counts[13])
    n_cross = property(lambda self: self.counts[14] + self.counts[15])
    errors_overall = property(lambda self: self.counts[13] + self.counts[15])
    errors_same = property(lambda self: self.counts[13])
    errors_cross = property(lambda self: self.counts[15])

    @property
    def sift_rate(self) -> float:
        return self.rounds_sifted / self.rounds_total

    @property
    def same_basis_rate(self) -> float:
        return (sum(self.counts[8:10]) + sum(self.counts[12:14])) / self.rounds_total

    @property
    def w_overall(self) -> float | None:
        return _rate(self.errors_overall, self.n_checks)

    @property
    def w_same(self) -> float | None:
        return _rate(self.errors_same, self.n_same)

    @property
    def w_cross(self) -> float | None:
        return _rate(self.errors_cross, self.n_cross)

    @property
    def certified(self) -> bool | None:
        """None when the verdict is INDETERMINATE."""
        return certify(self).certified

    @property
    def key_agreement_rate(self) -> float | None:
        """Share of key digits, sifted non-check rounds, the keys agree on."""
        return _rate(sum(self.counts[8:12:2]), sum(self.counts[8:12]))

    def wilson(self) -> dict[str, tuple[float, float]]:
        return {
            "overall": wilson_interval(self.errors_overall, self.n_checks),
            "same": wilson_interval(self.errors_same, self.n_same),
            "cross": wilson_interval(self.errors_cross, self.n_cross),
        }


def _tally(log: RoundLog) -> np.ndarray:
    """A log's rounds per class code of ``CheckStats``, in one count."""
    sifted, check, cross = (
        flag.view(np.uint8) for flag in (log.sifted, log.check, log.cross_basis)
    )
    code = 8 * sifted + 4 * check + 2 * cross + (log.bob_outcome != log.alice_symbol)
    return np.bincount(code, minlength=16)


def estimate_error_stats(log: RoundLog) -> CheckStats:
    return CheckStats(tuple(_tally(log).tolist()))


class Verdict(NamedTuple):
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
    Comparing errors·den < n·num in integers, for the threshold num/den,
    avoids threshold rounding at the boundary.
    """
    n_checks, n_cross = stats.n_checks, stats.n_cross
    if n_checks == 0 or n_cross == 0:
        return Verdict(INDETERMINATE, ())
    num, den = W_THRESHOLD.numerator, W_THRESHOLD.denominator
    failed = []
    if not stats.errors_overall * den < n_checks * num:
        failed.append("w_overall")
    if not stats.errors_cross * den < n_cross * num:
        failed.append("w_cross")
    return Verdict(INSECURE if failed else SECURE, tuple(failed))


def _keys(log: RoundLog) -> tuple[str, str]:
    """Both key strings of a log's sifted non-check rounds, in round order.

    Symbols are single digits (always 1..4 here), so each key is one
    decimal string.
    """
    keep = np.flatnonzero(log.sifted & ~log.check)
    return tuple(
        (column.take(keep) + ord("0")).astype(np.uint8).tobytes().decode("ascii")
        for column in (log.alice_symbol, log.bob_outcome)
    )


def extract_key(log: RoundLog) -> tuple[str, str, float | None]:
    """Keys from sifted non-check rounds, in round order."""
    key_a, key_b = _keys(log)
    return key_a, key_b, estimate_error_stats(log).key_agreement_rate


@dataclass(frozen=True)
class SessionReport(CheckStats):
    """A session's tally with its config and its two keys."""

    config: SessionConfig
    key_alice: str
    key_bob: str

    JSON_KEYS = (
        "config", "rounds_total", "rounds_sifted", "sift_rate",
        "same_basis_rate", "checks_used", "w_overall", "w_same", "w_cross",
        "certified", "key_alice", "key_bob", "key_agreement_rate",
    )

    def to_json(self) -> str:
        """Every figure named in ``JSON_KEYS``, in order; the config as a dict."""
        doc = {name: getattr(self, name) for name in self.JSON_KEYS}
        doc["config"] = self.config.to_dict()
        return json.dumps(doc, indent=2) + "\n"


def report_from_log(config: SessionConfig, logs: Iterable[RoundLog]) -> SessionReport:
    """Aggregate a session's round logs, in round order, into its report.

    Each log is tallied and then dropped, so ``logs`` may be a generator
    of chunks; only the key digits are kept.
    """
    counts = np.zeros(16, dtype=np.int64)
    keys_a, keys_b = [], []
    for log in logs:
        counts += _tally(log)
        key_a, key_b = _keys(log)
        keys_a.append(key_a)
        keys_b.append(key_b)
        del log  # freed before the generator simulates the next chunk
    return SessionReport(
        tuple(counts.tolist()), config, "".join(keys_a), "".join(keys_b)
    )


def run_session(
    config: SessionConfig, tables: KernelTables | None = None
) -> SessionReport:
    """Run a full session chunk by chunk; deterministic given (config, seed)."""
    return report_from_log(config, iter_chunks(config, tables))
