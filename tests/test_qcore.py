import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ksqkd import kernel, ksset, qcore
from ksqkd.adversary import AdversarySpec
from ksqkd.channels import NoiseSpec
from ksqkd.qcore import ZeroVectorError, canonical_int_amps, exact_inner

import oracles
from oracles import exact_overlap_sq
from steering import basis_index, centre, draws, sending, steer

F = Fraction

# Every nonzero integer vector with amplitudes in -2..2.
SMALL_VECTORS = [
    v for v in itertools.product(range(-2, 3), repeat=4) if any(v)
]


def slot_counts(tables, vector_id, bi):
    """How many of the ``den`` outcome-table slots read each outcome."""
    nv, nb = len(tables.ks.vectors), len(tables.ks.bases)
    slots = tables.outcome.reshape(nv, nb, tables.den)[vector_id, bi]
    return tuple(np.bincount(slots, minlength=5)[1:].tolist())


def born(ks, vector_id, label):
    """Exact Born probabilities of a set vector in the basis ``label``."""
    basis = ks.bases[basis_index(ks, label)]
    return qcore.exact_born(ks.vectors[vector_id].raw_amps,
                            [ks.vectors[i].raw_amps for i in basis.members])


class TestNormalize:
    """A ray's canonical integer form: primitive, first nonzero entry > 0."""

    def test_scaling(self):
        assert canonical_int_amps([2, 0, 0, 0]) == (1, 0, 0, 0)

    def test_global_phase_removed(self):
        assert canonical_int_amps([-1, 0, 0, 0]) == (1, 0, 0, 0)

    def test_table_entry(self):
        assert canonical_int_amps([0, 0, 1, -1]) == (0, 0, 1, -1)
        assert canonical_int_amps([0, 0, -3, 3]) == (0, 0, 1, -1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            canonical_int_amps([0, 0, 0, 0])

    def test_idempotent_exactly(self):
        for v in SMALL_VECTORS:
            c = canonical_int_amps(v)
            assert canonical_int_amps(c) == c

    def test_proportional_inputs_identical(self):
        for v in SMALL_VECTORS:
            for k in (-3, -1, 2, 5):
                assert canonical_int_amps([k * x for x in v]) == canonical_int_amps(v)

    def test_unit_norm_and_positive_lead(self):
        for v in SMALL_VECTORS:
            c = canonical_int_amps(v)
            assert math.gcd(*c) == 1
            assert next(x for x in c if x != 0) > 0


class TestInnerProduct:
    def test_self_overlap(self, ks18):
        for v in ks18.vectors:
            assert exact_overlap_sq(v.raw_amps, v.raw_amps) == 1

    def test_orthogonal(self):
        assert exact_inner([1, 0, 0, 0], [0, 1, 0, 0]) == 0
        assert exact_overlap_sq([1, 0, 0, 0], [0, 1, 0, 0]) == 0

    def test_half_overlap(self):
        # <(1,0,0,0)|(1,1,1,1)/2> = 1/2
        assert exact_inner([1, 0, 0, 0], [1, 1, 1, 1]) == 1
        assert exact_overlap_sq([1, 0, 0, 0], [1, 1, 1, 1]) == F(1, 4)


class TestRayEquals:
    """Two integer vectors are one ray iff their squared overlap is 1."""

    def test_sign_flip(self):
        assert exact_overlap_sq([1, 0, 0, 0], [-1, 0, 0, 0]) == 1
        assert canonical_int_amps([1, 0, 0, 0]) == canonical_int_amps([-1, 0, 0, 0])

    def test_orthogonal(self):
        assert exact_overlap_sq([0, 0, 1, 1], [0, 0, 1, -1]) == 0
        assert canonical_int_amps([0, 0, 1, 1]) != canonical_int_amps([0, 0, 1, -1])

    def test_equivalence_relation_on_corpus(self, ks18):
        # The set's rays with a scaled and a negated copy of each.
        corpus = [k * np.array(v.raw_amps) for v in ks18.vectors for k in (1, -1, 2)]
        same = np.array([[exact_overlap_sq(u, v) == 1 for v in corpus] for u in corpus])
        canon = [canonical_int_amps(u) for u in corpus]
        assert (same == np.array([[a == b for b in canon] for a in canon])).all()
        assert same.diagonal().all() and (same == same.T).all()
        # transitive: two steps of "same ray" never leave the relation
        assert ((same.astype(int) @ same.astype(int) > 0) <= same).all()
        assert same.sum() == 18 * 3 * 3


class TestBornProbabilities:
    """Exact Born probabilities, and the outcome table the kernel samples."""

    def check(self, ks, vector_id, label, expect):
        probs = born(ks, vector_id, label)
        assert probs == expect
        tables = kernel.build_tables(ks)
        counts = slot_counts(tables, vector_id, basis_index(ks, label))
        assert counts == tuple(tables.den * p for p in expect)

    def test_eigenstate(self, ks18):
        self.check(ks18, ks18.bases[0].members[0], "I", (F(1), F(0), F(0), F(0)))

    def test_two_half_profile(self, ks18):
        # (1,0,0,0) in basis VIII
        self.check(ks18, 0, "VIII", (F(0), F(1, 2), F(1, 2), F(0)))

    def test_quarter_profile(self, ks18):
        # (1,1,1,1) in basis I
        self.check(ks18, 4, "I", (F(1, 4), F(1, 4), F(1, 2), F(0)))

    def test_sums_to_one_all_pairs(self, ks18):
        for v in ks18.vectors:
            for b in ks18.bases:
                probs = born(ks18, v.id, b.label)
                assert sum(probs) == 1
                assert all(0 <= p <= 1 for p in probs)

    def test_exact_denominators_divide_16(self, ks18):
        for v in ks18.vectors:
            for b in ks18.bases:
                for pr in born(ks18, v.id, b.label):
                    assert 16 % pr.denominator == 0


class TestSampling:
    """Bob's Born outcome as the round kernel draws it."""

    def test_deterministic_outcome(self, ks18):
        # (0,0,1,1), outcome 3 of basis I, measured in basis I
        ua0, ua1 = centre(0, 9), centre(2, 4)
        cols = steer(ks18, ua0, ua1, centre(0, 9), [0.0, 0.3, 0.999])
        assert cols["bob_outcome"].tolist() == [3, 3, 3]

    def test_inverse_cdf_boundaries(self, ks18):
        # (1,0,0,0) in basis VIII has probabilities (0, 1/2, 1/2, 0)
        ua0, ua1 = sending(ks18, 0)
        cols = steer(ks18, ua0, ua1, centre(7, 9), [0.25, 0.5, 0.75])
        assert cols["bob_outcome"].tolist() == [2, 3, 3]  # half-open intervals

    def test_scalar_matches_vectorized(self, ks18):
        # A round's outcome depends on its own draws only, not on the batch.
        tables = kernel.build_tables(ks18)
        eve = AdversarySpec("intercept_resend")
        rng = np.random.default_rng(5)
        ua, ub, un, ue = rng.random((4, 300, 2))
        batch = kernel.simulate_rounds(tables, eve, NoiseSpec(),
                                       draws(ua, ub, un, ue))["bob_outcome"]
        single = [
            kernel.simulate_rounds(tables, eve, NoiseSpec(), draws(
                ua[i:i + 1], ub[i:i + 1], un[i:i + 1], ue[i:i + 1]
            ))["bob_outcome"][0]
            for i in range(300)
        ]
        assert single == batch.tolist()

    def test_empirical_frequencies(self, ks18):
        # (1,1,1,1) in basis I has probabilities (1/4, 1/4, 1/2, 0)
        n = 100_000
        u = np.random.default_rng(11).random(n)
        outcomes = steer(ks18, *sending(ks18, 4), centre(0, 9), u)["bob_outcome"]
        for k, p in enumerate([0.25, 0.25, 0.5, 0.0], start=1):
            freq = (outcomes == k).mean()
            band = 3 * math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= band

    def test_chi_square_all_state_basis_pairs(self, ks18):
        """Sampling law at significance 0.001 over all 162 in-set pairs."""
        n = 100_000
        nb = len(ks18.bases)
        rng = np.random.default_rng(2024)
        for v in ks18.vectors:
            # n rounds of this state in each basis, basis after basis
            bob_basis = np.repeat(np.arange(nb), n)
            outcomes = steer(ks18, *sending(ks18, v.id), centre(bob_basis, nb),
                             rng.random(nb * n))["bob_outcome"].reshape(nb, n)
            for bi, b in enumerate(ks18.bases):
                p = np.array(oracles.born_numerators(ks18, v.id, bi)) / 16
                counts = np.bincount(outcomes[bi], minlength=5)[1:]
                live = p > 0
                assert counts[~live].sum() == 0
                if live.sum() < 2:
                    continue
                expected = n * p[live]
                stat = float((((counts[live] - expected) ** 2) / expected).sum())
                # 2 or 3 live outcomes: the chi-square upper tail at 1 or 2
                # degrees of freedom has a closed form.
                dof = int(live.sum()) - 1
                assert dof in (1, 2)
                pval = math.erfc(math.sqrt(stat / 2)) if dof == 1 else math.exp(-stat / 2)
                assert pval > 0.001, (v.id, b.label, pval)


class TestEntanglement:
    def test_bell_like_state(self):
        assert qcore.exact_entanglement_det([1, 0, 0, 1]) != 0

    def test_product_state(self):
        assert qcore.exact_entanglement_det([1, 0, 0, 0]) == 0

    def test_separable_superposition(self):
        assert qcore.exact_entanglement_det([1, 1, -1, -1]) == 0


class TestExactHelpers:
    def test_exact_born_sums_to_one(self, ks18):
        basis = [ks18.vectors[i].raw_amps for i in ks18.bases[0].members]
        probs = qcore.exact_born((1, 1, 1, 1), basis)
        assert sum(probs) == 1
        assert probs == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0))

    def test_exact_born_unequal_norms(self):
        # Squared norms 4, 2, 2 and 9: the completeness check runs over the
        # least common denominator of 16, 8, 8 and 36.
        basis = ((2, 0, 0, 0), (0, 1, 1, 0), (0, 1, -1, 0), (0, 0, 0, 3))
        assert qcore.exact_born((1, 1, 1, 1), basis) == (F(1, 4), F(1, 2), F(0), F(1, 4))

    def test_incomplete_basis_rejected(self):
        basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 1))
        with pytest.raises(ValueError, match="orthogonal.* sum to 1/2$"):
            qcore.exact_born((1, 1, 1, -1), basis)

    def test_born_table_matches_oracle(self, ks18):
        den, num = ksset.born_table(ks18)
        assert den == 4  # every builtin probability is a multiple of 1/4
        assert [[[n * 4 for n in ps] for ps in row] for row in num] == [
            [oracles.born_numerators(ks18, v.id, bi) for bi in range(len(ks18.bases))]
            for v in ks18.vectors
        ]

    def test_orthogonal_basis_required(self):
        with pytest.raises(ValueError, match="orthogonal"):
            qcore.exact_born((1, 0, 0, 0), [(1, 0, 0, 0)] * 4)

    def test_non_orthogonal_meas_basis_rejected(self):
        basis = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ValueError, match="orthogonal"):
            qcore.exact_born((1, 0, 0, 0), basis)

    def test_zero_vector_rejected(self):
        basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(ZeroVectorError):
            qcore.exact_born((0, 0, 0, 0), basis)
        # A zero basis vector, with the state orthogonal to it or not.
        for state in ((1, 0, 0, 0), (0, 0, 0, 1)):
            with pytest.raises(ZeroVectorError):
                qcore.exact_born(state, basis[:3] + ((0, 0, 0, 0),))
