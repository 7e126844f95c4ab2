"""The KS-protected key distribution protocol engine.

One session: Alice sends random KS states, Bob measures in random KS
bases, rounds where the state belongs to Bob's basis survive sifting, a
Bernoulli subset of sifted rounds is sacrificed to estimate error rates,
and the session is certified secure only if both the overall and the
cross-basis error rates sit strictly below 1/9.

Randomness discipline: a master seed derives five independent named
substreams (alice, bob, noise, adversary, check) via numpy
``SeedSequence(seed, spawn_key=(index,))``.  Alice, bob and check are
drawn every round, noise and adversary only when that component is
active.  Toggling one component never perturbs another's draws, and a
session is reproducible bit-for-bit from (config, seed).

A session runs in chunks of ``CHUNK_ROUNDS`` rounds, so its memory does
not grow with the round count beyond its packed keys: half a byte per
key round for both keys, about 0.06 B per round at the default check
fraction.  Each chunk draws its next uniforms from the same generators;
consecutive ``random`` calls continue one stream, so the draws, and the
report, are bit-for-bit those of one call over all rounds, at any chunk
size.  A chunk is tallied by one count of its rounds' classes (sifted,
check, cross-basis, error).  The report is the session's tally of those
counts, and every figure of the report is read from it; its JSON is
written in pieces, each key one chunk at a time.

The kernel reads each substream's uniforms into int32 cells and frees
them before it draws the next, so one stream's uniforms are alive at a
time, and none once the check stream is drawn.  A chunk of 2^13 rounds
peaks at about 42 B per round (0.34 MB) with the ball adversary, 59 B
(0.48 MB) with intercept-resend and noise.
On a 2-core x86_64 host, against 2^14, 2^13 cut the peak RSS of a
10^6-round session from 38.0 to 37.1 MB at the same wall time (20 of 40
pairs faster); 2^12 cut 0.5 MB more but ran 3.6% slower (12 of 40 faster).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from . import kernel, ksset
from .adversary import W_THRESHOLD, AdversarySpec
from .channels import NoiseSpec
from .kernel import KernelTables

SECURE, INSECURE, INDETERMINATE = "SECURE", "INSECURE", "INDETERMINATE"

# Substream indices of the master seed's spawn keys.
STREAM_INDEX = {"alice": 0, "bob": 1, "noise": 2, "adversary": 3, "check": 4}

# Rounds drawn, simulated and tallied at a time by run_session.
CHUNK_ROUNDS = 1 << 13


@dataclass(frozen=True)
class SessionConfig:
    rounds: int = 100_000
    seed: int = 0
    check_fraction: float = 0.5
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)

    def __post_init__(self):
        # A session runs on the builtin set: its rounds read a ball labeling
        # of each of its nine bases, and of no other.
        if self.adversary.ball_assignment is not None:
            labels = {label for label, _ in ksset.KS18_BASES}
            named = set(self.adversary.ball_assignment.symbols)
            if missing := sorted(labels - named):
                raise ValueError(f"missing assignments for bases {missing}")
            if unknown := sorted(named - labels):
                raise ValueError(f"assignments for unknown bases {unknown}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0.0 <= self.check_fraction <= 1.0:
            raise ValueError("check_fraction must lie in [0, 1]")
        # A ball session's rounds read the adversary's labeling, not a noisy
        # channel: its noise would be echoed in the report but never applied.
        if self.noise.kind != "none" and self.adversary.kind == "ball":
            raise ValueError(f"noise kind {self.noise.kind!r} needs an adversary "
                             "kind other than 'ball'")

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
    tables: KernelTables,
    streams: dict[str, np.random.Generator],
    start: int,
    count: int,
) -> RoundLog:
    """Simulate ``count`` rounds of a session, from round ``start`` on.

    ``tables`` are the kernel tables of the set to run on, and ``streams``
    the session's substreams, standing at round ``start``.
    """
    columns = kernel.simulate_rounds(tables, config.adversary, config.noise,
                                     lambda name: streams[name].random((count, 2)))
    uc = streams["check"].random(count)
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


def estimate_error_stats(log: RoundLog) -> CheckStats:
    """A log's tally: its rounds per class code of ``CheckStats``, in one count."""
    sifted, check, cross = (
        flag.view(np.uint8) for flag in (log.sifted, log.check, log.cross_basis)
    )
    code = 8 * sifted + 4 * check + 2 * cross + (log.bob_outcome != log.alice_symbol)
    return CheckStats(tuple(np.bincount(code, minlength=16).tolist()))


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


# _KEY_ASCII[side, byte]: the two ASCII key digits of one side (0 Alice,
# 1 Bob) that a byte of packed key rounds holds, its low nibble's first.
_NIBBLES = np.arange(256)[:, None] >> np.array([0, 4]) & 15
_KEY_ASCII = (np.stack([_NIBBLES & 3, _NIBBLES >> 2]) + ord("1")).astype(np.uint8)


def extract_key(log: RoundLog) -> tuple[bytes, int]:
    """A log's key rounds, its sifted non-check rounds in round order, packed.

    A round is the nibble ``(alice - 1) | (bob - 1) << 2`` of its two key
    digits (1..4), two rounds to a byte with the earlier one in the low
    nibble.  Returns the bytes and the number of rounds they hold.
    """
    keep = np.flatnonzero(log.sifted > log.check)  # sifted and not check
    nibble = 4 * log.bob_outcome.take(keep)
    nibble += log.alice_symbol.take(keep)
    nibble -= 5
    pairs = nibble[::2]  # a view: odd rounds go in the high nibbles
    pairs[: len(keep) // 2] |= nibble[1::2] << 4
    return pairs.astype(np.uint8).tobytes(), len(keep)


def _key_digits(chunk: tuple[bytes, int], side: int) -> str:
    """One side's key digits (0 Alice, 1 Bob) of a packed chunk, as text."""
    packed, count = chunk
    pairs = _KEY_ASCII[side].take(np.frombuffer(packed, np.uint8), axis=0)
    return pairs.tobytes()[:count].decode("ascii")


def _json_members(doc: dict) -> str:
    """The members of ``json.dumps(doc, indent=2)``, without its braces."""
    return json.dumps(doc, indent=2)[2:-2]


@dataclass(frozen=True)
class SessionReport(CheckStats):
    """A session's tally with its config and its two keys.

    ``counts`` is the sum of the chunks' ``estimate_error_stats`` counts,
    and ``packed_keys`` holds each chunk's key rounds as ``extract_key``
    packs them, half a byte per round for both keys.
    """

    config: SessionConfig
    packed_keys: tuple[tuple[bytes, int], ...]

    # The JSON members before the two keys and after them, in order.
    JSON_HEAD = (
        "config", "rounds_total", "rounds_sifted", "sift_rate",
        "same_basis_rate", "checks_used", "w_overall", "w_same", "w_cross",
        "certified",
    )
    JSON_TAIL = ("key_agreement_rate",)

    def to_json(self, out: TextIO) -> None:
        """Write the report as ``json.dumps(doc, indent=2)`` writes it, and a newline.

        ``doc`` holds the ``JSON_HEAD`` figures, the config as a dict, then
        ``key_alice`` and ``key_bob``, then the ``JSON_TAIL`` figures.  The
        text is written to ``out`` in pieces, each key one chunk at a time
        (its digits need no escaping), so no whole key is ever built.
        """
        head = {name: getattr(self, name) for name in self.JSON_HEAD}
        head["config"] = self.config.to_dict()
        out.write("{\n" + _json_members(head) + ",\n")
        for side, name in enumerate(("key_alice", "key_bob")):
            out.write(f'  "{name}": "')
            for chunk in self.packed_keys:
                out.write(_key_digits(chunk, side))
            out.write('",\n')
        tail = {name: getattr(self, name) for name in self.JSON_TAIL}
        out.write(_json_members(tail) + "\n}\n")


def report_from_log(config: SessionConfig, logs: Iterable[RoundLog]) -> SessionReport:
    """Aggregate a session's round logs, in round order, into its report.

    Each log is tallied by :func:`estimate_error_stats` and keyed by
    :func:`extract_key`, then dropped, so ``logs`` may be a generator of
    chunks; only its packed key rounds are kept.
    """
    counts = np.zeros(16, dtype=np.int64)
    keys = []
    for log in logs:
        counts += estimate_error_stats(log).counts
        keys.append(extract_key(log))
        del log  # freed before the generator simulates the next chunk
    return SessionReport(tuple(counts.tolist()), config, tuple(keys))


def run_session(
    config: SessionConfig, tables: KernelTables | None = None
) -> SessionReport:
    """Run a full session chunk by chunk; deterministic given (config, seed)."""
    return report_from_log(config, iter_chunks(config, tables))
