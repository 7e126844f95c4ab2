import math

import numpy as np
import pytest

from ksqkd.channels import NoiseSpec
from ksqkd.protocol import SessionConfig

import oracles
from oracles import analytic_w
from steering import basis_index, centre, sending, session_log, steer


class TestNoiseSpec:
    def test_defaults(self):
        spec = NoiseSpec()
        assert spec.kind == "none" and spec.p == 0.0

    @pytest.mark.parametrize("kind,p", [("bitflip", 0.1), ("depolarizing", 1.5)])
    def test_validation(self, kind, p):
        with pytest.raises(ValueError):
            NoiseSpec(kind=kind, p=p)


def depolarized(ks, spec, u):
    """Whether the round kernel depolarizes rounds with noise uniform `u`.

    The rounds are same-basis rounds of Alice's first state in basis I,
    which Bob reads as outcome 1 unless depolarized; a depolarized round
    reads symbol 4 from its second noise uniform.
    """
    cols = steer(ks, centre(0, 9), centre(0, 4), centre(0, 9), 0.5,
                 un0=u, un1=0.9, noise=spec)
    assert set(cols["bob_outcome"].tolist()) <= {1, 4}
    return cols["bob_outcome"] == 4


class TestSampling:
    """The sampling form of the channel, as the round kernel applies it."""

    def test_p_zero_never_depolarizes(self, ks18):
        spec = NoiseSpec("depolarizing", 0.0)
        assert not depolarized(ks18, spec, np.linspace(0, 0.999, 50)).any()

    def test_p_one_always_depolarizes(self, ks18):
        spec = NoiseSpec("depolarizing", 1.0)
        assert depolarized(ks18, spec, np.linspace(0, 0.999, 50)).all()

    def test_none_kind_ignores_rand(self, ks18):
        assert not depolarized(ks18, NoiseSpec(), 0.0).any()
        with pytest.raises(ValueError, match="needs a noise kind"):
            NoiseSpec("none", 0.5)

    def test_depolarized_fraction(self, ks18):
        spec = NoiseSpec("depolarizing", 0.4)
        n = 100_000
        u = np.random.default_rng(1).random(n)
        frac = depolarized(ks18, spec, u).mean()
        assert abs(frac - 0.4) <= 3 * math.sqrt(0.4 * 0.6 / n)


class TestDensity:
    """Kernel outcomes against the depolarized state rho -> (1-p) rho + p I/4."""

    def test_identity_map_at_p_zero(self, ks18):
        rng = np.random.default_rng(3)
        draws = rng.random((8, 5000))
        quiet = steer(ks18, *draws)
        idle = steer(ks18, *draws, noise=NoiseSpec("depolarizing", 0.0))
        for name in quiet:
            assert np.array_equal(quiet[name], idle[name]), name

    def test_full_depolarization(self, ks18):
        # (1,1,1,-1) reads (1/4, 1/2, 0, 1/4) in basis VIII; I/4 reads 1/4 each.
        n = 100_000
        un1, ub1 = np.random.default_rng(4).random((2, n))
        outcomes = steer(ks18, *sending(ks18, 15), centre(7, 9), ub1, un0=0.5,
                         un1=un1, noise=NoiseSpec("depolarizing", 1.0))["bob_outcome"]
        assert outcomes.tolist() == ((un1 * 4).astype(int) + 1).tolist()
        for k in range(1, 5):
            assert abs((outcomes == k).mean() - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / n)

    def test_half_depolarized_pure_state(self, ks18):
        # (1,0,0,0) in basis I at p = 1/2: diagonal (5/8, 1/8, 1/8, 1/8)
        n = 100_000
        un0, un1, ub1 = np.random.default_rng(6).random((3, n))
        outcomes = steer(ks18, *sending(ks18, 0), centre(0, 9), ub1, un0=un0,
                         un1=un1, noise=NoiseSpec("depolarizing", 0.5))["bob_outcome"]
        for k, p in enumerate([5 / 8, 1 / 8, 1 / 8, 1 / 8], start=1):
            assert abs((outcomes == k).mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)


class TestAnalyticW:
    def test_zero_noise(self):
        assert analytic_w(NoiseSpec()) == (0.0, 1.0)
        assert analytic_w(NoiseSpec("depolarizing", 0.0)) == (0.0, 1.0)

    def test_threshold_point(self):
        w, f = analytic_w(NoiseSpec("depolarizing", 4 / 27))
        assert w == pytest.approx(1 / 9)
        assert f == pytest.approx(8 / 9)

    def test_full_noise(self):
        w, f = analytic_w(NoiseSpec("depolarizing", 1.0))
        assert w == 0.75 and f == 0.25


class TestSamplingDensityAgreement:
    def test_outcome_distribution_matches_density_diagonal(self, ks18):
        """Kernel outcomes follow the diagonal (1-p) P_Born + p/4 of the
        depolarized state, here (1,1,1,1) measured in basis I."""
        spec = NoiseSpec("depolarizing", 0.3)
        born = oracles.born_numerators(ks18, 4, basis_index(ks18, "I"))
        expect = [(1 - spec.p) * n / 16 + spec.p / 4 for n in born]

        n = 200_000
        rng = np.random.default_rng(8)
        un0, un1, ub1 = rng.random((3, n))
        outcomes = steer(ks18, *sending(ks18, 4), centre(0, 9), ub1,
                         un0=un0, un1=un1, noise=spec)["bob_outcome"]
        for k, p in enumerate(expect, start=1):
            freq = (outcomes == k).mean()
            assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_monte_carlo_w_matches_analytic():
    """Correct-basis error rate of a whole session at p = 0.2."""
    spec = NoiseSpec("depolarizing", 0.2)
    w_expect, _ = analytic_w(spec)
    log = session_log(SessionConfig(rounds=400_000, seed=17, noise=spec))
    errors = log.bob_outcome[log.sifted] != log.alice_symbol[log.sifted]
    total = errors.size
    w = errors.mean()
    assert abs(w - w_expect) <= 3 * math.sqrt(w_expect * (1 - w_expect) / total)
