import itertools
import random
from fractions import Fraction

import pytest

from ksqkd import ksset
from ksqkd.ksset import (
    SymbolAssignment,
    build_set,
    builtin_ks18,
    defective_vectors,
    entanglement_table,
    enumerate_valid_colorings,
    min_symbol_mismatch,
    parity_lower_bound,
    parse_assignment_file,
    parse_set_file,
    verify_ks_structure,
    wrong_basis_profiles,
)

import oracles

ONE_BASIS = (("A", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),)
TWO_DISJOINT = ONE_BASIS + (
    ("B", ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
)


def home_bases(ks, vector_id):
    return {lab for lab, _ in ks.incidence[vector_id]}


def vec_by_amps(ks, amps):
    from ksqkd.qcore import canonical_int_amps

    canon = canonical_int_amps(amps)
    for v in ks.vectors:
        if canonical_int_amps(v.raw_amps) == canon:
            return v
    raise LookupError(amps)


class TestBuiltin:
    def test_counts(self, ks18):
        assert len(ks18.vectors) == 18
        assert len(ks18.bases) == 9
        assert sum(len(ks18.incidence[v.id]) for v in ks18.vectors) == 36

    def test_home_bases_examples(self, ks18):
        assert home_bases(ks18, vec_by_amps(ks18, (1, 0, 0, 0)).id) == {"I", "IX"}
        assert home_bases(ks18, vec_by_amps(ks18, (-1, 1, 1, 1)).id) == {"IV", "V"}

    def test_every_vector_in_two_bases(self, ks18):
        for v in ks18.vectors:
            assert len(home_bases(ks18, v.id)) == 2

    def test_raw_amplitudes_in_range(self, ks18):
        for v in ks18.vectors:
            assert set(v.raw_amps) <= {-1, 0, 1}


class TestVerify:
    def test_builtin_passes(self, ks18):
        report = verify_ks_structure(ks18)
        assert report.ok and report.failures == []

    def test_sign_flip_breaks_bases_I_and_II(self):
        def flip(amps4s):
            return tuple(
                tuple((0, 0, 1, 1) if a == (0, 0, 1, -1) else a for a in amps4)
                for amps4 in amps4s
            )

        broken = [(lab, flip((amps,))[0]) for lab, amps in ksset.KS18_BASES]
        report = verify_ks_structure(build_set(broken))
        bad_bases = {f.split(":")[0] for f in report.failures if "orthogonal" in f}
        assert bad_bases == {"basis I", "basis II"}

    def test_repeated_ray_fails(self):
        bad = (("A", ((1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),)
        report = verify_ks_structure(build_set(bad))
        assert not report.ok
        assert any("orthogonal" in f for f in report.failures)


class TestColorings:
    def test_builtin_has_none(self, ks18):
        assert enumerate_valid_colorings(ks18).count == 0

    def test_single_basis(self):
        res = enumerate_valid_colorings(build_set(ONE_BASIS))
        assert res.count == 4
        assert len(res.colorings) == 4

    def test_two_disjoint_bases(self):
        assert enumerate_valid_colorings(build_set(TWO_DISJOINT)).count == 16

    def test_brute_force_agrees_on_builtin(self, ks18):
        assert oracles.brute_force_coloring_count(ks18) == 0
        assert enumerate_valid_colorings(ks18).count == 0

    def test_brute_force_agrees_on_substructures(self, ks18):
        rng = random.Random(42)
        labels = [b.label for b in ks18.bases]
        for _ in range(20):
            keep = set(labels) - set(rng.sample(labels, rng.randint(1, 3)))
            sub = oracles.subset_ks(ksset, ks18, keep)
            assert (
                enumerate_valid_colorings(sub).count
                == oracles.brute_force_coloring_count(sub)
            )


class TestParityBound:
    def test_builtin(self, ks18):
        assert parity_lower_bound(ks18) == 2

    def test_disjoint_bases(self):
        assert parity_lower_bound(build_set(TWO_DISJOINT)) == 0

    def test_even_basis_count_inapplicable(self, ks18):
        sub = oracles.subset_ks(
            ksset, ks18, {b.label for b in ks18.bases} - {"IX"}
        )
        assert parity_lower_bound(sub) == 0


class TestMinMismatch:
    BUILTIN_WITNESS = {
        "I": (1, 2, 3, 4), "II": (1, 2, 3, 4), "III": (1, 2, 3, 4),
        "IV": (3, 2, 1, 4), "V": (1, 2, 4, 3), "VI": (1, 3, 2, 4),
        "VII": (4, 2, 1, 3), "VIII": (4, 1, 3, 2), "IX": (2, 3, 1, 4),
    }

    def test_builtin_minimum_is_two(self, optimal_witness):
        assert optimal_witness.mismatch_count == 2
        assert len(optimal_witness.defective_vector_ids) == 2

    def test_witness_revalidates(self, ks18, optimal_witness):
        bad = defective_vectors(ks18, optimal_witness.witness)
        assert bad == optimal_witness.defective_vector_ids

    def test_defective_vectors_in_different_basis_pairs(self, ks18, optimal_witness):
        pairs = [
            frozenset(home_bases(ks18, i))
            for i in optimal_witness.defective_vector_ids
        ]
        assert len(set(pairs)) == len(pairs)

    def test_two_disjoint_bases(self):
        assert min_symbol_mismatch(build_set(TWO_DISJOINT)).mismatch_count == 0

    def test_witness_count_mismatch_raises(self, monkeypatch):
        # The witness re-check is an error, not an assert that -O strips.
        monkeypatch.setattr(ksset, "defective_vectors", lambda ks, a: (0,))
        with pytest.raises(RuntimeError):
            min_symbol_mismatch(build_set(TWO_DISJOINT))

    def test_matches_meets_parity_bound(self, ks18, optimal_witness):
        assert optimal_witness.mismatch_count == parity_lower_bound(ks18)

    def test_oracle_equivalence_small_instances(self, ks18):
        rng = random.Random(7)
        labels = [b.label for b in ks18.bases]
        for nb in (2, 3, 4, 5):
            for _ in range(3):
                keep = rng.sample(labels, nb)
                sub = oracles.subset_ks(ksset, ks18, keep)
                assert (
                    min_symbol_mismatch(sub).mismatch_count
                    == oracles.naive_min_mismatch(sub)
                )

    def test_monotone_under_basis_removal(self, ks18):
        for drop in [b.label for b in ks18.bases]:
            sub = oracles.subset_ks(
                ksset, ks18, {b.label for b in ks18.bases} - {drop}
            )
            got = min_symbol_mismatch(sub).mismatch_count
            assert 0 <= got <= 2
            assert got == oracles.defect_subset_min_mismatch(sub, 2)

    def test_deterministic_witness(self, ks18, optimal_witness):
        again = min_symbol_mismatch(builtin_ks18())
        assert again.witness.symbols == optimal_witness.witness.symbols

    def test_builtin_witness_pinned(self, optimal_witness):
        # The ball attack's `ball_assignment = optimal` table; a change here
        # changes every ball-attack report.
        assert optimal_witness.witness.symbols == self.BUILTIN_WITNESS
        assert optimal_witness.defective_vector_ids == [2, 7]

    def test_witness_matches_oracle_small_instances(self, ks18):
        labels = [b.label for b in ks18.bases]
        for nb in (1, 2, 3, 4):
            for keep in itertools.combinations(labels, nb):
                sub = oracles.subset_ks(ksset, ks18, keep)
                rep = min_symbol_mismatch(sub)
                assert rep.witness.symbols == oracles.lex_min_witness(sub), keep
                assert rep.mismatch_count == oracles.naive_min_mismatch(sub), keep

    @pytest.mark.parametrize("ids", [
        ((0, 1, 2, 3), (2, 4, 3, 1), (1, 3, 0, 4), (1, 2, 0, 4)),  # rays in 3-4 bases
        ((0, 0, 2, 3), (0, 1, 2, 3)),  # a basis holding a ray twice ...
        ((0, 1, 2, 3), (0, 0, 2, 3)),  # ... that an earlier basis labeled
    ])
    def test_exact_off_two_bases_per_ray(self, ids):
        # The search counts defective vectors, not clashes with a vector's
        # first symbol, so it stays exact where a ray is not in two bases.
        e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))
        ks = build_set([(f"B{i}", tuple(e[v] for v in m)) for i, m in enumerate(ids)])
        rep = min_symbol_mismatch(ks)
        assert rep.mismatch_count == oracles.naive_min_mismatch(ks) == 1
        assert rep.witness.symbols == oracles.lex_min_witness(ks)

    def test_minimum_independent_of_parity_bound(self, monkeypatch):
        # The search proves the minimum on its own, so the parity bound
        # can be checked against it.
        monkeypatch.setattr(ksset, "parity_lower_bound", lambda ks: 5)
        rep = min_symbol_mismatch(builtin_ks18())
        assert rep.mismatch_count == 2
        assert rep.witness.symbols == self.BUILTIN_WITNESS


class TestSymbolAssignment:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            SymbolAssignment({"I": (1, 1, 2, 3)})

    def test_vector_symbols(self, ks18, optimal_witness):
        for v in ks18.vectors:
            syms = optimal_witness.witness.vector_symbols(ks18, v.id)
            assert len(syms) == 2
            expected_distinct = v.id in optimal_witness.defective_vector_ids
            assert (len(set(syms)) == 2) == expected_distinct


class TestProfiles:
    def test_all_126_entries_allowed(self, ks18):
        report = wrong_basis_profiles(ks18)
        assert len(report.entries) == 126
        assert report.ok

    def test_specific_profiles(self, ks18):
        report = wrong_basis_profiles(ks18)
        by_key = {(e.vector_id, e.basis_label): e.sorted_profile for e in report.entries}
        v100 = vec_by_amps(ks18, (1, 0, 0, 0)).id
        assert by_key[(v100, "VIII")] == (0, 0, Fraction(1, 2), Fraction(1, 2))
        v1111 = vec_by_amps(ks18, (1, 1, 1, 1)).id
        assert by_key[(v1111, "I")] == (
            0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
        )

    def test_violation_detected_on_non_ks_structure(self):
        # basis B is rotated relative to A in a way that misses both profiles
        odd = ONE_BASIS + (
            ("B", ((1, 1, 1, 0), (1, -1, 0, 0), (1, 1, -2, 0), (0, 0, 0, 1))),
        )
        assert not wrong_basis_profiles(build_set(odd)).ok


class TestEntanglement:
    EXPECTED = [
        (-1, 1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1),
        (1, 0, 0, 1), (0, 1, -1, 0), (0, 1, 1, 0),
    ]

    def test_exactly_the_six_flagged(self, ks18):
        table = entanglement_table(ks18)
        flagged = {i for i, f in table.items() if f}
        expected = {vec_by_amps(ks18, a).id for a in self.EXPECTED}
        assert flagged == expected
        assert len(flagged) == 6

    def test_examples(self, ks18):
        table = entanglement_table(ks18)
        assert table[vec_by_amps(ks18, (0, 1, 1, 0)).id]
        assert not table[vec_by_amps(ks18, (1, 0, 1, 0)).id]


class TestSetFiles:
    def test_round_trip(self, ks18, ks18_text):
        again = parse_set_file(ks18_text)
        assert verify_ks_structure(again).ok
        assert [b.members for b in again.bases] == [b.members for b in ks18.bases]

    def test_parse_errors(self):
        with pytest.raises(ksset.SetFormatError):
            parse_set_file("vector 0: 1 0 0\nbasis I: 0 0 0 0\n")
        with pytest.raises(ksset.SetFormatError):
            parse_set_file("basis I: 0 1 2 3\n")
        with pytest.raises(ksset.SetFormatError):
            parse_set_file("not a record\n")
        with pytest.raises(ksset.SetFormatError, match="zero vector"):
            parse_set_file("vector 0: 0 0 0 0\nbasis I: 0 0 0 0\n")

    def test_assignment_file(self, ks18):
        text = "\n".join(
            f"basis {b.label}: 1 2 3 4" for b in ks18.bases
        )
        a = parse_assignment_file(text, ks18)
        assert a.symbols["I"][0] == 1

    def test_assignment_file_missing_basis(self, ks18):
        with pytest.raises(ksset.SetFormatError):
            parse_assignment_file("basis I: 1 2 3 4", ks18)
