import math

import numpy as np
import pytest

from ksqkd import channels
from ksqkd.channels import (
    DensityOperator,
    NoiseSpec,
    analytic_w,
    apply_noise_density,
)
from ksqkd.qcore import normalize

from steering import centre, steer


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
        assert not depolarized(ks18, NoiseSpec("none", 0.5), 0.0).any()

    def test_depolarized_fraction(self, ks18):
        spec = NoiseSpec("depolarizing", 0.4)
        n = 100_000
        u = np.random.default_rng(1).random(n)
        frac = depolarized(ks18, spec, u).mean()
        assert abs(frac - 0.4) <= 3 * math.sqrt(0.4 * 0.6 / n)


class TestDensity:
    def test_identity_map_at_p_zero(self):
        rho = DensityOperator.from_pure(normalize([1, 0, 0, 1]))
        out = apply_noise_density(rho, NoiseSpec("depolarizing", 0.0))
        assert np.allclose(out.matrix, rho.matrix)

    def test_full_depolarization(self):
        rho = DensityOperator.from_pure(normalize([1, 1, 1, -1]))
        out = apply_noise_density(rho, NoiseSpec("depolarizing", 1.0))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_half_depolarized_pure_state(self):
        rho = DensityOperator.from_pure(normalize([1, 0, 0, 0]))
        out = apply_noise_density(rho, NoiseSpec("depolarizing", 0.5))
        assert np.allclose(np.diag(out.matrix).real, [5 / 8, 1 / 8, 1 / 8, 1 / 8])

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = normalize(rng.normal(size=4) + 1j * rng.normal(size=4))
            rho = DensityOperator.from_pure(v)
            out = apply_noise_density(rho, NoiseSpec("depolarizing", 0.37))
            assert abs(np.trace(out.matrix).real - 1) < 1e-14
            assert np.array_equal(out.matrix, out.matrix.conj().T)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5, 0, 0]))


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
        """Sampling and density forms of the channel predict the same stats."""
        from ksqkd.qcore import born_probabilities, sample_outcomes

        spec = NoiseSpec("depolarizing", 0.3)
        state = ks18.vectors[4].ray  # (1,1,1,1)/2
        basis = ks18.meas_basis("I")
        rho = apply_noise_density(DensityOperator.from_pure(state), spec)
        proj = np.array([
            np.real(r.amps.conj() @ rho.matrix @ r.amps) for r in basis.rays
        ])

        n = 200_000
        rng = np.random.default_rng(8)
        depol = rng.random(n) < spec.p
        u = rng.random(n)
        outcomes = np.where(
            depol, (rng.random(n) * 4).astype(int) + 1,
            sample_outcomes(state, basis, u),
        )
        for k in range(4):
            p = proj[k]
            freq = (outcomes == k + 1).mean()
            assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_monte_carlo_w_matches_analytic(ks18):
    """Correct-basis error rate over all 18 states at p = 0.2."""
    from ksqkd.qcore import sample_outcomes

    spec = NoiseSpec("depolarizing", 0.2)
    w_expect, _ = analytic_w(spec)
    rng = np.random.default_rng(17)
    errors = total = 0
    for v in ks18.vectors:
        for lab, pos in ks18.incidence[v.id]:
            basis = ks18.meas_basis(lab)
            n = 3000
            depol = rng.random(n) < spec.p
            outcomes = np.where(
                depol, (rng.random(n) * 4).astype(int) + 1,
                sample_outcomes(v.ray, basis, rng.random(n)),
            )
            errors += int((outcomes != pos + 1).sum())
            total += n
    w = errors / total
    assert abs(w - w_expect) <= 3 * math.sqrt(w_expect * (1 - w_expect) / total)
