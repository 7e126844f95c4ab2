import dataclasses
import json
import math

import numpy as np
import pytest

from ksqkd.adversary import AdversarySpec
from ksqkd.channels import NoiseSpec
from ksqkd.protocol import (
    INDETERMINATE,
    INSECURE,
    SECURE,
    CheckStats,
    SessionConfig,
    certify,
    estimate_error_stats,
    extract_key,
    report_from_log,
    run_rounds,
    run_session,
    substream,
    wilson_interval,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(rounds=0)
        with pytest.raises(ValueError):
            SessionConfig(check_fraction=1.5)
        with pytest.raises(ValueError):
            SessionConfig(seed=-1)

    def test_substreams_are_independent(self):
        a = substream(5, "alice").random(4)
        b = substream(5, "bob").random(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, substream(5, "alice").random(4))


class TestRunRound:
    def test_same_basis_round_error_free(self, ks18):
        config = SessionConfig(rounds=2000, seed=3, check_fraction=1.0)
        log = run_rounds(config)
        same = log.sifted & ~log.cross_basis
        assert same.any()
        pos = np.array([
            ks18.bases[b].members.index(v)
            for v, b in zip(log.alice_state[same], log.alice_basis[same])
        ], dtype=int)
        assert np.array_equal(log.bob_outcome[same], pos + 1)
        assert np.array_equal(log.bob_outcome[same], log.alice_symbol[same])

    def test_cross_basis_round_error_free(self, ks18):
        log = run_rounds(SessionConfig(rounds=5000, seed=3, check_fraction=1.0))
        cross = log.sifted & log.cross_basis
        assert cross.any()
        assert np.array_equal(log.bob_outcome[cross], log.alice_symbol[cross])

    def test_sifting_is_membership(self, ks18):
        log = run_rounds(SessionConfig(rounds=5000, seed=9))
        for i in range(len(log)):
            members = ks18.bases[log.bob_basis[i]].members
            assert bool(log.sifted[i]) == (log.alice_state[i] in members)

    def test_single_round_view(self):
        # Round i of a session is the last round of the session cut to
        # i + 1 rounds: no round's draws depend on the round count.
        config = SessionConfig(rounds=200, seed=14)
        log = run_rounds(config)
        for i in (0, 57, 199):
            short = run_rounds(dataclasses.replace(config, rounds=i + 1))
            for f in dataclasses.fields(log):
                assert getattr(short, f.name)[i] == getattr(log, f.name)[i], f.name


class TestSift:
    def test_rates(self):
        n = 1_000_000
        log = run_rounds(SessionConfig(rounds=n, seed=31))
        sift_rate = log.sifted.sum() / n
        assert abs(sift_rate - 2 / 9) <= 3 * math.sqrt((2 / 9) * (7 / 9) / n)
        same_rate = (log.sifted & ~log.cross_basis).sum() / n
        assert abs(same_rate - 1 / 9) <= 3 * math.sqrt((1 / 9) * (8 / 9) / n)

    def test_empty(self):
        log = run_rounds(SessionConfig(rounds=1, seed=0))
        assert len(log) == 1 and log.sifted.shape == (1,)


class TestEstimateErrorStats:
    def test_ideal_channel(self):
        stats = estimate_error_stats(
            run_rounds(SessionConfig(rounds=50_000, seed=4, check_fraction=1.0))
        )
        assert stats.errors_overall == 0 and stats.w_overall == 0.0

    def test_check_fraction_zero_gives_undefined(self):
        stats = estimate_error_stats(
            run_rounds(SessionConfig(rounds=10_000, seed=4, check_fraction=0.0))
        )
        assert stats.n_checks == 0
        assert stats.w_overall is None and stats.w_cross is None

    def test_check_fraction_binomial(self):
        log = run_rounds(SessionConfig(rounds=100_000, seed=4, check_fraction=0.3))
        n_sifted = int(log.sifted.sum())
        n_checks = int(log.check.sum())
        assert abs(n_checks / n_sifted - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n_sifted)

    def test_depolarizing_w(self):
        p = 4 / 27
        stats = estimate_error_stats(run_rounds(SessionConfig(
            rounds=1_000_000, seed=4, check_fraction=1.0,
            noise=NoiseSpec("depolarizing", p),
        )))
        w = 0.75 * p
        assert abs(stats.w_overall - w) <= 3 * math.sqrt(w * (1 - w) / stats.n_checks)

    def test_wilson_interval_contains_rate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestCertify:
    def stats(self, n_checks, n_same, n_cross, e_all, e_same, e_cross):
        return CheckStats(n_checks, n_same, n_cross, e_all, e_same, e_cross)

    def test_clean_stats_secure(self):
        v = certify(self.stats(100, 50, 50, 0, 0, 0))
        assert v.verdict == SECURE and v.certified is True

    def test_exact_threshold_is_insecure(self):
        # w_cross = 1/9 exactly: strict inequality fails
        v = certify(self.stats(900, 0, 900, 100, 0, 100))
        assert v.verdict == INSECURE and "w_cross" in v.failed

    def test_cross_statistic_alone_can_fail(self):
        v = certify(self.stats(1000, 500, 500, 50, 0, 60))
        assert v.verdict == INSECURE and v.failed == ("w_cross",)

    def test_indeterminate_without_checks(self):
        v = certify(self.stats(0, 0, 0, 0, 0, 0))
        assert v.verdict == INDETERMINATE and v.certified is None

    def test_monotone(self):
        rng = np.random.default_rng(0)
        order = {SECURE: 0, INSECURE: 1, INDETERMINATE: 0}
        for _ in range(200):
            n = int(rng.integers(1, 500))
            nc = int(rng.integers(1, n + 1))
            e = int(rng.integers(0, n + 1))
            ec = int(rng.integers(0, min(nc, e) + 1))
            base = certify(self.stats(n, n - nc, nc, e, 0, ec))
            for de, dec in ((1, 0), (0, 1), (1, 1)):
                if e + de > n or ec + dec > nc or ec + dec > e + de:
                    continue
                more = certify(self.stats(n, n - nc, nc, e + de, 0, ec + dec))
                assert order[more.verdict] >= order[base.verdict]


class TestExtractKey:
    def test_ideal_keys_agree(self):
        log = run_rounds(SessionConfig(rounds=20_000, seed=5))
        key_a, key_b, agreement = extract_key(log)
        assert key_a == key_b and agreement == 1.0
        assert set(key_a) <= set("1234") and len(key_a) > 0

    def test_noise_reduces_agreement(self):
        p = 0.2
        log = run_rounds(SessionConfig(
            rounds=1_000_000, seed=5, noise=NoiseSpec("depolarizing", p),
        ))
        key_a, key_b, agreement = extract_key(log)
        keep = log.sifted & ~log.check
        assert key_a == "".join(map(str, log.alice_symbol[keep]))
        assert key_b == "".join(map(str, log.bob_outcome[keep]))
        expect = 1 - 0.75 * p
        n = int(keep.sum())
        assert abs(agreement - expect) <= 3 * math.sqrt(expect * (1 - expect) / n)

    def test_no_rounds_yields_empty_keys(self):
        log = run_rounds(SessionConfig(rounds=3, seed=13, check_fraction=1.0))
        keep = log.sifted & ~log.check
        if not keep.any():
            key_a, key_b, agreement = extract_key(log)
            assert key_a == "" and key_b == "" and agreement is None


class TestRunSession:
    def test_ideal_session(self):
        r = run_session(SessionConfig(rounds=100_000, seed=77))
        assert r.certified is True and r.w_overall == 0.0
        assert r.key_agreement_rate == 1.0
        assert len(r.key_alice) == r.rounds_sifted - r.checks_used

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
        assert run_session(cfg).to_json() == run_session(cfg).to_json()

    def test_report_json_round_trips(self):
        r = run_session(SessionConfig(rounds=5_000, seed=1))
        doc = json.loads(r.to_json())
        assert json.dumps(doc, indent=2) + "\n" == r.to_json()
        assert set(doc) == {
            "config", "rounds_total", "rounds_sifted", "sift_rate",
            "same_basis_rate", "checks_used", "w_overall", "w_same", "w_cross",
            "certified", "key_alice", "key_bob", "key_agreement_rate",
        }

    def test_aggregation_order_independent(self):
        # Every count and rate of the report is invariant under a
        # permutation of the log rows; the keys follow the row order.
        cfg = SessionConfig(rounds=20_000, seed=8, noise=NoiseSpec("depolarizing", 0.2))
        log = run_rounds(cfg)
        perm = np.random.default_rng(0).permutation(len(log))
        shuffled = type(log)(**{
            f.name: getattr(log, f.name)[perm] for f in dataclasses.fields(log)
        })
        a = report_from_log(cfg, log).to_dict()
        b = report_from_log(cfg, shuffled).to_dict()
        assert sorted(a.pop("key_alice")) == sorted(b.pop("key_alice"))
        assert sorted(a.pop("key_bob")) == sorted(b.pop("key_bob"))
        assert a == b

    def test_substream_isolation_across_adversaries(self, optimal_witness):
        base = SessionConfig(rounds=10_000, seed=55)
        logs = [
            run_rounds(SessionConfig(rounds=10_000, seed=55, adversary=adv))
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
        a = run_rounds(SessionConfig(rounds=10_000, seed=55))
        b = run_rounds(SessionConfig(
            rounds=10_000, seed=55, noise=NoiseSpec("depolarizing", 0.5),
        ))
        assert np.array_equal(a.alice_basis, b.alice_basis)
        assert np.array_equal(a.alice_state, b.alice_state)
        assert np.array_equal(a.bob_basis, b.bob_basis)
