import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ksqkd import ksset, qcore
from ksqkd.adversary import AdversarySpec, exact_intercept_resend_w
from ksqkd.ksset import SymbolAssignment, build_set
from ksqkd.protocol import SessionConfig, run_session

import oracles
from oracles import expected_ball_attack_stats
from steering import basis_index, centre, make_assignment_with_defects, steer


def ball_round(ks, witness, alice, bob, readout_u=0.5):
    """Kernel columns of ball rounds: Alice's (label, pos) and Bob's label."""
    (alice_label, pos), bob_label = alice, bob
    return steer(
        ks, centre(basis_index(ks, alice_label), 9), centre(pos, 4),
        centre(basis_index(ks, bob_label), 9), 0.5, ue0=readout_u,
        adversary=AdversarySpec("ball", witness),
    )


class TestBallAttackOutcome:
    """Bob's readout of a classical ball, as the round kernel computes it."""

    def test_same_basis_returns_alice_symbol(self, ks18, optimal_witness):
        witness = optimal_witness.witness
        for b in ks18.bases:
            for pos in range(4):
                cols = ball_round(ks18, witness, (b.label, pos), b.label, 0.9)
                assert cols["sifted"][0] and not cols["cross_basis"][0]
                assert cols["bob_outcome"][0] == witness.symbols[b.label][pos]
                assert cols["alice_symbol"][0] == witness.symbols[b.label][pos]

    def test_defective_ball_cross_basis_differs(self, ks18, optimal_witness):
        witness = optimal_witness.witness
        for vid in optimal_witness.defective_vector_ids:
            home, (other, _) = ks18.incidence[vid]
            cols = ball_round(ks18, witness, home, other, 0.0)
            assert cols["sifted"][0] and cols["cross_basis"][0]
            assert cols["bob_outcome"][0] != cols["alice_symbol"][0]

    def test_consistent_ball_cross_basis_matches(self, ks18, optimal_witness):
        witness = optimal_witness.witness
        for v in ks18.vectors:
            if v.id in optimal_witness.defective_vector_ids:
                continue
            home, (other, _) = ks18.incidence[v.id]
            cols = ball_round(ks18, witness, home, other, 0.0)
            assert cols["sifted"][0] and cols["cross_basis"][0]
            assert cols["bob_outcome"][0] == cols["alice_symbol"][0]

    def test_non_home_readout_uniform_and_unsifted(self, ks18, optimal_witness):
        # readout outside home bases is random but those rounds never sift
        vid = ks18.bases[basis_index(ks18, "I")].members[0]
        homes = {lab for lab, _ in ks18.incidence[vid]}
        other = next(b.label for b in ks18.bases if b.label not in homes)
        cols = ball_round(ks18, optimal_witness.witness, ("I", 0), other,
                          np.linspace(0, 0.999, 64))
        assert set(cols["bob_outcome"].tolist()) == {1, 2, 3, 4}
        assert not cols["sifted"].any()
        assert (cols["alice_symbol"] == 0).all()


class TestExpectedBallStats:
    def test_optimal_witness(self, ks18, optimal_witness):
        w_same, w_cross, w_overall = expected_ball_attack_stats(
            ks18, optimal_witness.witness
        )
        assert w_same == 0
        assert w_cross == Fraction(2, 18) == Fraction(1, 9)
        assert w_overall == Fraction(1, 18)

    def test_zero_defect_assignment_on_colorable_set(self):
        toy = build_set((
            ("A", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
            ("B", ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
        ))
        a = SymbolAssignment({"A": (1, 2, 3, 4), "B": (1, 2, 3, 4)})
        assert expected_ball_attack_stats(toy, a) == (0, 0, 0)

    def test_overall_matches_enumeration_over_sifted_pairs(self, ks18, optimal_witness):
        # Count errors over every (ball, bob basis) sifted combination.
        witness = optimal_witness.witness
        errors = sifted = 0
        for v in ks18.vectors:
            for alice_lab, alice_pos in ks18.incidence[v.id]:
                for bob_lab, bob_pos in ks18.incidence[v.id]:
                    sifted += 1
                    if witness.symbols[bob_lab][bob_pos] != witness.symbols[alice_lab][alice_pos]:
                        errors += 1
        assert Fraction(errors, sifted) == Fraction(1, 18)


def intercept_rounds(ks, alice, eve_basis, bob_basis, eve_u, bob_u=0.5):
    """Kernel columns of intercept-resend rounds, bases given by index."""
    alice_basis, alice_pos = alice
    return steer(
        ks, centre(alice_basis, 9), centre(alice_pos, 4), centre(bob_basis, 9),
        bob_u, ue0=centre(eve_basis, 9), ue1=eve_u,
        adversary=AdversarySpec("intercept_resend"),
    )


class TestInterceptResendTransform:
    """Eve's measure-and-forward step, as the round kernel computes it."""

    def test_eigenstate_unchanged(self, ks18):
        # Eve measuring in a home basis of the state forwards the state
        # itself, so Bob sees exactly what he sees without her.
        grid = np.array(list(itertools.product(range(9), range(4), range(9),
                                               np.linspace(0, 0.999, 40))))
        basis, pos, bob, u = grid.T
        alice = (basis.astype(int), pos.astype(int))
        with_eve = intercept_rounds(ks18, alice, alice[0], bob.astype(int), u[::-1], u)
        without = steer(ks18, centre(alice[0], 9), centre(alice[1], 4), centre(bob, 9), u)
        assert np.array_equal(with_eve["bob_outcome"], without["bob_outcome"])

    def test_split_on_wrong_basis(self, ks18):
        # (1,0,0,0) in basis VIII lands on (1,0,1,0) or (1,0,-1,0), half
        # each; Bob measuring in VIII then reads which one Eve forwarded.
        alice = (basis_index(ks18, "I"), 0)
        assert ks18.vectors[ks18.bases[alice[0]].members[0]].raw_amps == (1, 0, 0, 0)
        viii = basis_index(ks18, "VIII")
        n = 4000
        rng = np.random.default_rng(4)
        cols = intercept_rounds(ks18, alice, viii, viii, rng.random(n), rng.random(n))
        outcome = cols["bob_outcome"]
        targets = [pos + 1 for pos, vid in enumerate(ks18.bases[viii].members)
                   if ks18.vectors[vid].raw_amps in ((1, 0, 1, 0), (1, 0, -1, 0))]
        assert sorted(set(outcome.tolist())) == sorted(targets)
        assert abs((outcome == targets[0]).mean() - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_forwarded_ray_always_in_set(self, ks18):
        # The forwarded ray is a member of Eve's basis: Bob measuring in
        # that basis reads it deterministically, whatever his uniform.
        rng = np.random.default_rng(9)
        n = 2000
        alice = (rng.integers(9, size=n), rng.integers(4, size=n))
        basis = rng.integers(9, size=n)
        eve_u = rng.random(n)
        low = intercept_rounds(ks18, alice, basis, basis, eve_u, 0.0)
        high = intercept_rounds(ks18, alice, basis, basis, eve_u, np.nextafter(1.0, 0.0))
        assert np.array_equal(low["bob_outcome"], high["bob_outcome"])


class TestExactInterceptResend:
    def test_exceeds_threshold(self, ks18):
        w_same, w_cross, w_overall = exact_intercept_resend_w(ks18)
        assert w_overall > Fraction(1, 9)
        assert 0 < w_same < 1 and 0 < w_cross < 1

    def test_matches_oracle_on_sub_instances(self, ks18):
        # The last sub-instance keeps all nine bases: the builtin set.
        labels = [b.label for b in ks18.bases]
        checked = 0
        for nb in range(1, len(labels) + 1):
            for keep in itertools.combinations(labels, nb):
                sub = oracles.subset_ks(ksset, ks18, set(keep))
                # Every incidence weighs in same-basis; cross-basis needs
                # a ray with two home bases in the sub-instance.
                if not any(len(inc) > 1 for inc in sub.incidence.values()):
                    continue
                got = exact_intercept_resend_w(sub)
                assert got == oracles.intercept_resend_w(sub), keep
                assert all(type(w) is Fraction for w in got)
                checked += 1
        assert checked == 478

    def test_diagnostic_mode_nondisturbing(self, ks18):
        # Eve measuring in Alice's own basis reads Alice's state with
        # certainty and forwards it, so Bob's exact error is zero in
        # both of the state's home bases.
        raw = [v.raw_amps for v in ks18.vectors]
        for b in ks18.bases:
            amps = [raw[i] for i in b.members]
            for pos, vid in enumerate(b.members):
                probs = qcore.exact_born(raw[vid], amps)
                assert probs == tuple(Fraction(int(k == pos)) for k in range(4))
                for bob_label, bob_pos in ks18.incidence[vid]:
                    bob_basis = ks18.bases[basis_index(ks18, bob_label)]
                    bob = [raw[i] for i in bob_basis.members]
                    assert qcore.exact_born(amps[pos], bob)[bob_pos] == 1

    def test_monte_carlo_matches(self, ks18):
        w_same, w_cross, w_overall = exact_intercept_resend_w(ks18)
        config = SessionConfig(
            rounds=200_000, seed=12, check_fraction=1.0,
            adversary=AdversarySpec("intercept_resend"),
        )
        stats = run_session(config)
        for expect, got, n in (
            (w_same, stats.w_same, stats.n_same),
            (w_cross, stats.w_cross, stats.n_cross),
            (w_overall, stats.w_overall, stats.n_checks),
        ):
            e = float(expect)
            assert abs(got - e) <= 3 * math.sqrt(e * (1 - e) / n)


class TestBallAttackMonteCarlo:
    def test_no_same_basis_errors_over_many_rounds(self, ks18, optimal_witness):
        config = SessionConfig(
            rounds=1_000_000, seed=6, check_fraction=1.0,
            adversary=AdversarySpec("ball", optimal_witness.witness),
        )
        stats = run_session(config)
        assert stats.errors_same == 0

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_w_cross_tracks_defect_count(self, ks18, optimal_witness, extra):
        assignment = (
            optimal_witness.witness if extra == 0
            else make_assignment_with_defects(ks18, optimal_witness.witness, extra)
        )
        d = len(ksset.defective_vectors(ks18, assignment))
        assert d == 2 + extra
        config = SessionConfig(
            rounds=1_000_000, seed=21 + extra, check_fraction=1.0,
            adversary=AdversarySpec("ball", assignment),
        )
        stats = run_session(config)
        expect = d / 18
        assert abs(stats.w_cross - expect) <= 3 * math.sqrt(
            expect * (1 - expect) / stats.n_cross
        )


def test_no_adversary_no_noise_is_error_free():
    stats = run_session(SessionConfig(rounds=100_000, seed=2, check_fraction=1.0))
    assert stats.errors_overall == 0
    assert stats.w_overall == 0.0 and stats.w_same == 0.0 and stats.w_cross == 0.0


def test_adversary_spec_validation():
    with pytest.raises(ValueError):
        AdversarySpec("ball")
    with pytest.raises(ValueError):
        AdversarySpec("mitm")


# Only a ball reads a labeling; any other kind would echo one it never used.
@pytest.mark.parametrize("kind", ["none", "intercept_resend"])
def test_assignment_needs_ball(optimal_witness, kind):
    with pytest.raises(ValueError, match=f"^ball_assignment needs adversary kind 'ball', "
                                         f"not '{kind}'$"):
        AdversarySpec(kind, optimal_witness.witness)
