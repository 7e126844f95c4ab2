import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from ksqkd import kernel, protocol
from ksqkd.adversary import AdversarySpec
from ksqkd.channels import NoiseSpec
from ksqkd.ksset import SymbolAssignment
from ksqkd.protocol import (
    INDETERMINATE,
    INSECURE,
    SECURE,
    STREAM_INDEX,
    CheckStats,
    SessionConfig,
    certify,
    estimate_error_stats,
    extract_key,
    iter_chunks,
    report_from_log,
    run_rounds,
    run_session,
    substream,
    substreams,
)
from steering import report_text, session_log


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(rounds=0)
        with pytest.raises(ValueError):
            SessionConfig(check_fraction=1.5)
        with pytest.raises(ValueError):
            SessionConfig(seed=-1)

    def test_ball_rejects_noise(self, optimal_witness):
        # The kernel ignores noise on ball rounds, so such a session would
        # echo a noise it never applied.
        ball = AdversarySpec("ball", optimal_witness.witness)
        with pytest.raises(ValueError, match="^noise kind 'depolarizing' needs an "
                                             "adversary kind other than 'ball'$"):
            SessionConfig(noise=NoiseSpec("depolarizing", 0.5), adversary=ball)
        assert SessionConfig(adversary=ball).noise.kind == "none"

    # A session runs on the builtin set, whose rounds read a labeling of each
    # of its nine bases and of no other.  The labeling is checked before
    # every other field, so a config with two faults reports this one.
    def test_ball_labeling_missing_basis(self, optimal_witness):
        symbols = dict(optimal_witness.witness.symbols)
        del symbols["II"]
        ball = AdversarySpec("ball", SymbolAssignment(symbols))
        for rounds in (1, 0):
            with pytest.raises(ValueError, match=r"^missing assignments for bases \['II'\]$"):
                SessionConfig(rounds=rounds, adversary=ball)

    def test_ball_labeling_unknown_basis(self, optimal_witness):
        symbols = {**optimal_witness.witness.symbols, "X": (1, 2, 3, 4)}
        ball = AdversarySpec("ball", SymbolAssignment(symbols))
        for rounds in (1, 0):
            with pytest.raises(ValueError, match=r"^assignments for unknown bases \['X'\]$"):
                SessionConfig(rounds=rounds, adversary=ball)

    def test_substreams_are_independent(self):
        a = substream(5, "alice").random(4)
        b = substream(5, "bob").random(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, substream(5, "alice").random(4))

    def test_substream_draws_are_pinned(self):
        # Every golden report rests on these streams: a change in NumPy's
        # seeding or bit generator fails here by name, not as a diff in
        # every golden.
        first = {
            "alice": ["0x1.e2c8b5ff9abeep-1", "0x1.43ede2f0059d4p-2",
                      "0x1.71d6e34584992p-1"],
            "bob": ["0x1.5ab98be352f88p-1", "0x1.f1a30952d2850p-3",
                    "0x1.39391ab428710p-1"],
            "noise": ["0x1.ad31e03b50111p-1", "0x1.56ef728767d10p-4",
                      "0x1.3c38124bfee6bp-1"],
            "adversary": ["0x1.752e09b791e12p-2", "0x1.05cdefba9ed5cp-1",
                          "0x1.d48ece3c95638p-2"],
            "check": ["0x1.4e526be45992cp-1", "0x1.4bbbd215bd216p-2",
                      "0x1.5018b40979604p-3"],
        }
        assert list(first) == list(STREAM_INDEX)
        for name, expected in first.items():
            assert [u.hex() for u in substream(0, name).random(3)] == expected, name


class TestRunRound:
    def test_same_basis_round_error_free(self, ks18):
        config = SessionConfig(rounds=2000, seed=3, check_fraction=1.0)
        log = session_log(config)
        same = log.sifted & ~log.cross_basis
        assert same.any()
        pos = np.array([
            ks18.bases[b].members.index(v)
            for v, b in zip(log.alice_state[same], log.alice_basis[same])
        ], dtype=int)
        assert np.array_equal(log.bob_outcome[same], pos + 1)
        assert np.array_equal(log.bob_outcome[same], log.alice_symbol[same])

    def test_cross_basis_round_error_free(self, ks18):
        log = session_log(SessionConfig(rounds=5000, seed=3, check_fraction=1.0))
        cross = log.sifted & log.cross_basis
        assert cross.any()
        assert np.array_equal(log.bob_outcome[cross], log.alice_symbol[cross])

    def test_sifting_is_membership(self, ks18):
        log = session_log(SessionConfig(rounds=5000, seed=9))
        for i in range(len(log)):
            members = ks18.bases[log.bob_basis[i]].members
            assert bool(log.sifted[i]) == (log.alice_state[i] in members)

    def test_single_round_view(self):
        # Round i of a session is the last round of the session cut to
        # i + 1 rounds: no round's draws depend on the round count.
        config = SessionConfig(rounds=200, seed=14)
        log = session_log(config)
        for i in (0, 57, 199):
            short = session_log(dataclasses.replace(config, rounds=i + 1))
            for f in dataclasses.fields(log):
                assert getattr(short, f.name)[i] == getattr(log, f.name)[i], f.name


class TestSift:
    def test_rates(self):
        n = 1_000_000
        log = session_log(SessionConfig(rounds=n, seed=31))
        sift_rate = log.sifted.sum() / n
        assert abs(sift_rate - 2 / 9) <= 3 * math.sqrt((2 / 9) * (7 / 9) / n)
        same_rate = (log.sifted & ~log.cross_basis).sum() / n
        assert abs(same_rate - 1 / 9) <= 3 * math.sqrt((1 / 9) * (8 / 9) / n)

    def test_empty(self):
        log = session_log(SessionConfig(rounds=1, seed=0))
        assert len(log) == 1 and log.sifted.shape == (1,)


class TestEstimateErrorStats:
    def test_ideal_channel(self):
        stats = estimate_error_stats(
            session_log(SessionConfig(rounds=50_000, seed=4, check_fraction=1.0))
        )
        assert stats.errors_overall == 0 and stats.w_overall == 0.0

    def test_check_fraction_zero_gives_undefined(self):
        stats = estimate_error_stats(
            session_log(SessionConfig(rounds=10_000, seed=4, check_fraction=0.0))
        )
        assert stats.n_checks == 0
        assert stats.w_overall is None and stats.w_cross is None

    def test_check_fraction_binomial(self):
        log = session_log(SessionConfig(rounds=100_000, seed=4, check_fraction=0.3))
        n_sifted = int(log.sifted.sum())
        n_checks = int(log.check.sum())
        assert abs(n_checks / n_sifted - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n_sifted)

    def test_depolarizing_w(self):
        p = 4 / 27
        stats = estimate_error_stats(session_log(SessionConfig(
            rounds=1_000_000, seed=4, check_fraction=1.0,
            noise=NoiseSpec("depolarizing", p),
        )))
        w = 0.75 * p
        assert abs(stats.w_overall - w) <= 3 * math.sqrt(w * (1 - w) / stats.n_checks)


class TestCertify:
    def stats(self, n_same, e_same, n_cross, e_cross):
        """The tally of check rounds only: same and cross basis, by error."""
        checks = (n_same - e_same, e_same, n_cross - e_cross, e_cross)
        return CheckStats((0,) * 12 + checks)

    def test_clean_stats_secure(self):
        v = certify(self.stats(50, 0, 50, 0))
        assert v.verdict == SECURE and v.certified is True

    def test_exact_threshold_is_insecure(self):
        # w_cross = 1/9 exactly: strict inequality fails
        v = certify(self.stats(0, 0, 900, 100))
        assert v.verdict == INSECURE and "w_cross" in v.failed

    def test_cross_statistic_alone_can_fail(self):
        stats = self.stats(500, 0, 500, 60)
        assert stats.w_overall == 0.06 and stats.w_cross == 0.12
        v = certify(stats)
        assert v.verdict == INSECURE and v.failed == ("w_cross",)

    def test_indeterminate_without_checks(self):
        v = certify(self.stats(0, 0, 0, 0))
        assert v.verdict == INDETERMINATE and v.certified is None

    def test_monotone(self):
        # One more error, of either class or of both, never improves a verdict.
        rng = np.random.default_rng(0)
        order = {SECURE: 0, INSECURE: 1, INDETERMINATE: 0}
        for _ in range(200):
            n_same, n_cross = int(rng.integers(0, 500)), int(rng.integers(1, 500))
            e_same = int(rng.integers(0, n_same + 1))
            e_cross = int(rng.integers(0, n_cross + 1))
            base = certify(self.stats(n_same, e_same, n_cross, e_cross))
            for d_same, d_cross in ((1, 0), (0, 1), (1, 1)):
                if e_same + d_same > n_same or e_cross + d_cross > n_cross:
                    continue
                more = certify(self.stats(
                    n_same, e_same + d_same, n_cross, e_cross + d_cross
                ))
                assert order[more.verdict] >= order[base.verdict]


class TestExtractKey:
    @staticmethod
    def keys(log):
        """Both keys and their agreement rate, as the log's report gives them."""
        report = report_from_log(SessionConfig(rounds=len(log)), [log])
        doc = json.loads(report_text(report))
        return doc["key_alice"], doc["key_bob"], doc["key_agreement_rate"]

    def test_ideal_keys_agree(self):
        log = session_log(SessionConfig(rounds=20_000, seed=5))
        key_a, key_b, agreement = self.keys(log)
        assert key_a == key_b and agreement == 1.0
        assert set(key_a) <= set("1234") and len(key_a) > 0

    def test_noise_reduces_agreement(self):
        p = 0.2
        log = session_log(SessionConfig(
            rounds=1_000_000, seed=5, noise=NoiseSpec("depolarizing", p),
        ))
        key_a, key_b, agreement = self.keys(log)
        keep = log.sifted & ~log.check
        assert key_a == "".join(map(str, log.alice_symbol[keep]))
        assert key_b == "".join(map(str, log.bob_outcome[keep]))
        expect = 1 - 0.75 * p
        n = int(keep.sum())
        assert abs(agreement - expect) <= 3 * math.sqrt(expect * (1 - expect) / n)

    def test_no_rounds_yields_empty_keys(self):
        log = session_log(SessionConfig(rounds=3, seed=13, check_fraction=1.0))
        keep = log.sifted & ~log.check
        assert not keep.any()
        assert extract_key(log) == (b"", 0)
        key_a, key_b, agreement = self.keys(log)
        assert key_a == "" and key_b == "" and agreement is None


class TestRunSession:
    def test_ideal_session(self):
        r = run_session(SessionConfig(rounds=100_000, seed=77))
        assert r.certified is True and r.w_overall == 0.0
        assert r.key_agreement_rate == 1.0
        key_alice = json.loads(report_text(r))["key_alice"]
        assert len(key_alice) == r.rounds_sifted - r.checks_used

    def test_ball_attack_flagged(self, optimal_witness):
        # The optimal attack's cross-basis rate is exactly the 1/9 threshold,
        # so the empirical rate straddles it; this seed's draw lands above.
        r = run_session(SessionConfig(
            rounds=1_000_000, seed=0,
            adversary=AdversarySpec("ball", optimal_witness.witness),
        ))
        assert r.certified is False and r.w_same == 0.0

    def test_reports_are_deterministic(self):
        cfg = SessionConfig(rounds=30_000, seed=99, noise=NoiseSpec("depolarizing", 0.1))
        assert report_text(run_session(cfg)) == report_text(run_session(cfg))

    def test_report_json_round_trips(self):
        r = run_session(SessionConfig(rounds=5_000, seed=1))
        doc = json.loads(report_text(r))
        assert json.dumps(doc, indent=2) + "\n" == report_text(r)
        assert set(doc) == {
            "config", "rounds_total", "rounds_sifted", "sift_rate",
            "same_basis_rate", "checks_used", "w_overall", "w_same", "w_cross",
            "certified", "key_alice", "key_bob", "key_agreement_rate",
        }

    def test_aggregation_order_independent(self):
        # Every count and rate of the report is invariant under a
        # permutation of the log rows; the keys follow the row order.
        cfg = SessionConfig(rounds=20_000, seed=8, noise=NoiseSpec("depolarizing", 0.2))
        log = session_log(cfg)
        perm = np.random.default_rng(0).permutation(len(log))
        shuffled = type(log)(**{
            f.name: getattr(log, f.name)[perm] for f in dataclasses.fields(log)
        })
        a = json.loads(report_text(report_from_log(cfg, [log])))
        b = json.loads(report_text(report_from_log(cfg, [shuffled])))
        assert sorted(a.pop("key_alice")) == sorted(b.pop("key_alice"))
        assert sorted(a.pop("key_bob")) == sorted(b.pop("key_bob"))
        assert a == b

    def test_substream_isolation_across_adversaries(self, optimal_witness):
        base = SessionConfig(rounds=10_000, seed=55)
        logs = [
            session_log(SessionConfig(rounds=10_000, seed=55, adversary=adv))
            for adv in (
                AdversarySpec("none"),
                AdversarySpec("ball", optimal_witness.witness),
                AdversarySpec("intercept_resend"),
            )
        ]
        for log in logs[1:]:
            assert np.array_equal(logs[0].alice_basis, log.alice_basis)
            assert np.array_equal(logs[0].alice_state, log.alice_state)
            assert np.array_equal(logs[0].bob_basis, log.bob_basis)
            assert np.array_equal(logs[0].check, log.check)

    def test_substream_isolation_across_noise(self):
        a = session_log(SessionConfig(rounds=10_000, seed=55))
        b = session_log(SessionConfig(
            rounds=10_000, seed=55, noise=NoiseSpec("depolarizing", 0.5),
        ))
        assert np.array_equal(a.alice_basis, b.alice_basis)
        assert np.array_equal(a.alice_state, b.alice_state)
        assert np.array_equal(a.bob_basis, b.bob_basis)

    @pytest.mark.parametrize("adv,unread", [("ball", "noise"), ("none", "adversary")])
    def test_unread_streams_are_not_drawn(self, ks18, optimal_witness, adv, unread):
        witness = optimal_witness.witness if adv == "ball" else None
        config = SessionConfig(rounds=1_000, seed=55, adversary=AdversarySpec(adv, witness))
        streams = substreams(config.seed)
        run_rounds(config, kernel.build_tables(ks18), streams, 0, config.rounds)
        assert (streams[unread].bit_generator.state
                == substream(config.seed, unread).bit_generator.state)


def intercept_noisy(rounds, seed):
    return SessionConfig(
        rounds=rounds, seed=seed, noise=NoiseSpec("depolarizing", 0.05),
        adversary=AdversarySpec("intercept_resend"),
    )


class TestChunks:
    N = 3_000

    @pytest.fixture(params=["ideal", "ball", "intercept-noisy"])
    def config(self, request, optimal_witness):
        if request.param == "ideal":
            return SessionConfig(rounds=self.N, seed=21)
        if request.param == "ball":
            return SessionConfig(
                rounds=self.N, seed=21,
                adversary=AdversarySpec("ball", optimal_witness.witness),
            )
        return intercept_noisy(self.N, 21)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 15, N])
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, config, chunk):
        whole = report_text(report_from_log(config, [session_log(config)]))
        monkeypatch.setattr(protocol, "CHUNK_ROUNDS", chunk)
        assert report_text(run_session(config)) == whole

    def test_chunk_logs_concatenate_to_the_session_log(self, monkeypatch, config):
        monkeypatch.setattr(protocol, "CHUNK_ROUNDS", 7)
        chunks = list(iter_chunks(config))
        assert [len(c) for c in chunks] == [7] * (self.N // 7) + [self.N % 7]
        whole = session_log(config)
        for f in dataclasses.fields(whole):
            joined = np.concatenate([getattr(c, f.name) for c in chunks])
            assert joined.dtype == getattr(whole, f.name).dtype, f.name
            assert np.array_equal(joined, getattr(whole, f.name)), f.name


def test_memory_does_not_grow_with_rounds(ks18):
    # tracemalloc sees NumPy's data buffers too.  A session holds one chunk
    # at a time and keeps only its packed keys, half a byte per key round
    # for both keys, about 0.06 B per round here; holding the keys as text
    # read 0.23 B per round.
    tables = kernel.build_tables(ks18)

    def traced_peak(rounds):
        tracemalloc.start()
        try:
            run_session(intercept_noisy(rounds, 3), tables)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(1_000_000), traced_peak(4_000_000)
    assert (large - small) / 3_000_000 < 0.1


def test_chunk_working_set(ks18, optimal_witness):
    # The kernel reads each stream's 16 B of uniforms per round into its
    # int32 cells before it draws the next, so one stream's uniforms are
    # alive at a time, and they are freed before the check stream's 8 B are
    # drawn; the log holds 31 B per round.  The peak is 59 B per round with
    # intercept-resend and noise, 42 B with the ball and 47 B with noise
    # alone.  A kernel that drew every stream before reading any peaked at
    # 86-111 B, and an int64 temporary per round column would not fit either.
    tables = kernel.build_tables(ks18)
    rounds = protocol.CHUNK_ROUNDS
    configs = {
        "intercept-noisy": intercept_noisy(4 * rounds, 3),
        "ball": SessionConfig(rounds=4 * rounds, seed=3,
                              adversary=AdversarySpec("ball", optimal_witness.witness)),
        "noisy": SessionConfig(rounds=4 * rounds, seed=3,
                               noise=NoiseSpec("depolarizing", 0.05)),
    }
    run_session(intercept_noisy(1, 3), tables)  # imports numpy.random
    for name, config in configs.items():
        tracemalloc.start()
        try:
            run_session(config, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rounds <= 72, name
