import json
from fractions import Fraction

import numpy as np
import pytest

from ksqkd.channels import NoiseSpec
from ksqkd.cli import main

import oracles
from steering import basis_index, cells, centre, sending, steer


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


class TestDensity:
    """Kernel outcomes against the depolarized state rho -> (1-p) rho + p I/4."""

    def test_identity_map_at_p_zero(self, ks18):
        rng = np.random.default_rng(3)
        draws = rng.random((8, 5000))
        quiet = steer(ks18, *draws)
        idle = steer(ks18, *draws, noise=NoiseSpec("depolarizing", 0.0))
        for name in quiet:
            assert np.array_equal(quiet[name], idle[name]), name

    @pytest.mark.parametrize("ray,label,p", [
        (0, "I", 0.5),      # (1,0,0,0): (5/8, 1/8, 1/8, 1/8)
        (4, "I", 0.3),      # (1,1,1,1): Born (1/4, 1/4, 1/2, 0)
        (15, "VIII", 1.0),  # (1,1,1,-1): I/4 reads 1/4 each
    ])
    def test_outcome_law_is_the_depolarized_diagonal(self, ks18, ray, label, p):
        """Outcome k has probability exactly (1 - p) P_Born(k) + p/4.

        Every Born cell meets every noise-symbol cell, on the depolarized
        grid (noise uniform p/2) weighted p and the clean one ((1+p)/2)
        weighted 1 - p, as ``oracles.exact_round_distribution`` weighs them.
        """
        bi = basis_index(ks18, label)
        ub1, un1 = (c.ravel() for c in np.meshgrid(cells(16), cells(4), indexing="ij"))
        law = np.zeros(4, dtype=object)
        for weight, un0 in ((Fraction(p), p / 2), (1 - Fraction(p), (1 + p) / 2)):
            outcomes = steer(ks18, *sending(ks18, ray), centre(bi, len(ks18.bases)), ub1,
                             un0=un0, un1=un1, noise=NoiseSpec("depolarizing", p))["bob_outcome"]
            law += [weight * Fraction(int(c), outcomes.size)
                    for c in np.bincount(outcomes, minlength=5)[1:]]
        born = oracles.born_numerators(ks18, ray, bi)
        assert law.tolist() == [(1 - Fraction(p)) * Fraction(n, 16) + Fraction(p) / 4
                                for n in born]


class TestAnalyticW:
    def test_tolerated_noise_meets_the_ball_rate(self, capsys, optimal_witness, ks18):
        # A depolarized round still lands on the correct detector with
        # probability 1/4, so w = p - p/4: the slope of w in p is 3/4.
        slope = Fraction(3, 4)
        _, w_cross, _ = oracles.expected_ball_attack_stats(ks18, optimal_witness.witness)
        p_star = w_cross / slope
        assert p_star == Fraction(4, 27)
        assert main(["analyze"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert Fraction(*doc["tolerated_noise"]) == p_star
