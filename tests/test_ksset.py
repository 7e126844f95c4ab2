import gc
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

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

GOLDEN = Path(__file__).parent / "golden"

ONE_BASIS = (("A", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),)
TWO_DISJOINT = ONE_BASIS + (
    ("B", ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
)


def peres24():
    """Peres' 24 rays in R^4 and their 24 orthogonal tetrads of ray indices.

    The rays are the unit vectors, then ``e_i + e_j`` and ``e_i - e_j`` for
    i < j, then ``(1, +-1, +-1, +-1)``; the tetrads come in lexicographic
    order.
    """
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            rays.append(tuple({i: 1, j: sign}.get(k, 0) for k in range(4)))
    rays += [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]
    tetrads = [
        t for t in itertools.combinations(range(len(rays)), 4)
        if all(sum(x * y for x, y in zip(rays[a], rays[b])) == 0
               for a, b in itertools.combinations(t, 2))
    ]
    return rays, tetrads


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
        # Vector 0 fills two slots of basis I and sits in no other basis:
        # it counts as in one basis, not two.
        text = ("vector 0: 1 0 0 0\nvector 1: 0 0 1 0\nvector 2: 0 0 0 1\n"
                "basis I: 0 0 1 2\n")
        assert verify_ks_structure(parse_set_file(text)).failures == [
            "basis I: vectors 0 and 0 not orthogonal",
            "vector 0 appears in 1 bases, expected 2",
            "vector 1 appears in 1 bases, expected 2",
            "vector 2 appears in 1 bases, expected 2",
        ]

    def test_ray_in_three_bases_fails(self):
        # A tenth basis, the standard one, puts its rays in a third basis.
        standard = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        ks = build_set(ksset.KS18_BASES + (("X", standard),))
        assert verify_ks_structure(ks).failures == [
            "vector 0 appears in 3 bases, expected 2",
            "vector 1 appears in 3 bases, expected 2",
            "vector 17 appears in 3 bases, expected 2",
            "vector 18 appears in 1 bases, expected 2",
        ]


class TestColorings:
    def test_builtin_has_none(self, ks18):
        assert enumerate_valid_colorings(ks18).count == 0

    def test_single_basis(self):
        res = enumerate_valid_colorings(build_set(ONE_BASIS))
        assert res.count == 4
        assert len(res.colorings) == 4
        # A basis listing one ray twice: only its two other rays can be picked.
        twice = build_set(
            [("I", ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))]
        )
        res = enumerate_valid_colorings(twice)
        assert res.count == 2 == oracles.brute_force_coloring_count(twice)
        assert res.colorings == [(1,), (2,)]

    def test_two_disjoint_bases(self):
        assert enumerate_valid_colorings(build_set(TWO_DISJOINT)).count == 16

    def test_list_limit(self, monkeypatch):
        bases = (*TWO_DISJOINT,
                 ("C", ((1, 0, 1, 0), (1, 0, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1))),
                 ("D", ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))))
        three = build_set(bases[:3])
        # Every coloring of disjoint bases, listed depth first.
        every = list(itertools.product(*(b.members for b in three.bases)))
        assert enumerate_valid_colorings(three) == ksset.ColoringResult(64, every)
        four = build_set(bases)
        assert enumerate_valid_colorings(four) == ksset.ColoringResult(256, [])
        monkeypatch.setattr(ksset, "COLORING_LIST_LIMIT", 64)
        assert enumerate_valid_colorings(three).colorings == every
        monkeypatch.setattr(ksset, "COLORING_LIST_LIMIT", 63)
        assert enumerate_valid_colorings(three) == ksset.ColoringResult(64, [])

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

    def test_bounds_every_odd_subset(self, ks18):
        # The search starts at the parity bound, so the bound is checked
        # against an oracle that does not read it.  Every odd subset but the
        # whole set holds a ray outside exactly two of its bases, and 255 of
        # the 256 have a minimum below 2; the whole set's is 2.
        labels = [b.label for b in ks18.bases]
        for n in range(1, len(labels) + 1, 2):
            for chosen in itertools.combinations(labels, n):
                sub = oracles.subset_ks(ksset, ks18, set(chosen))
                minimum = oracles.defect_subset_min_mismatch(sub, 2)
                assert parity_lower_bound(sub) <= minimum
        assert minimum == 2

    def test_empty_structure_raises(self):
        with pytest.raises(ValueError, match="empty structure"):
            parity_lower_bound(build_set([]))


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
        assert oracles.defect_subset_min_mismatch(ks, 4) == 1
        assert rep.witness.symbols == oracles.lex_min_witness(ks)

    def test_random_structures_match_oracles(self):
        # The labeling walk must cut no branch that holds an optimum or a
        # coloring, and the search must start at no bound above the minimum:
        # rays in one to four bases, bases holding a ray twice.  The rays (1, i, i^2, i^3) are distinct but
        # not orthogonal; neither search reads amplitudes.
        rng = random.Random(11)
        for _ in range(300):
            rays = [(1, i, i * i, i ** 3) for i in range(rng.randint(4, 10))]
            draw = rng.choices if rng.random() < 0.5 else rng.sample
            ks = build_set(
                [(f"B{b}", tuple(draw(rays, k=4))) for b in range(rng.randint(2, 4))]
            )
            rep = min_symbol_mismatch(ks)
            assert rep.mismatch_count == oracles.naive_min_mismatch(ks)
            assert rep.mismatch_count == oracles.defect_subset_min_mismatch(
                ks, len(ks.vectors))
            assert rep.witness.symbols == oracles.lex_min_witness(ks)
            assert (
                enumerate_valid_colorings(ks).count
                == oracles.brute_force_coloring_count(ks)
            )

    def test_peres_sub_instances_match_oracles(self):
        # Three of the four tetrads around one of Peres' rays, and up to two
        # more: orthogonal sets with a ray in three bases, which the
        # defect-subset oracle ties across all of them.  No set of five or
        # fewer of Peres' tetrads has a positive minimum; the random
        # structures above reach one.
        rays, tetrads = peres24()
        rng = random.Random(3)
        for _ in range(12):
            ray = rng.randrange(len(rays))
            around = [t for t in tetrads if ray in t]
            others = [t for t in tetrads if ray not in t]
            chosen = rng.sample(around, 3) + rng.sample(others, rng.randint(0, 2))
            ks = build_set([(f"T{i}", tuple(rays[v] for v in t))
                            for i, t in enumerate(chosen)])
            assert max(map(len, ks.incidence.values())) >= 3
            minimum = min_symbol_mismatch(ks).mismatch_count
            assert minimum == oracles.naive_min_mismatch(ks)
            assert minimum == oracles.defect_subset_min_mismatch(ks, len(ks.vectors))

    def test_walk_proves_builtin_minimum(self, ks18):
        # The bounds below the parity bound are never walked by the search;
        # walked here, they hold no labeling, so the walk alone proves the
        # builtin minimum of 2.
        choices = [ksset._PERMS[:1]] + [ksset._PERMS] * 8
        assert ksset._walk(ks18, choices, [0, 1], lambda labels: True) is None


class TestWalk:
    """The labeling walk's work and its memory."""

    @pytest.mark.parametrize("path,search,nodes", [
        (None, min_symbol_mismatch, 1299),
        (None, enumerate_valid_colorings, 403),
        (GOLDEN / "repeated.ks", min_symbol_mismatch, 34678),
    ], ids=["mismatch", "colorings", "mismatch-repeated"])
    def test_nodes_visited(self, ks18, path, search, nodes):
        # Calls of the walk's inner `walk`, one per node.  On the builtin
        # set the mismatch search starts at the minimum, and its first leaf
        # lies under the identity, so leaving the first basis unpinned
        # visits the same 1299 nodes.  `repeated.ks` has parity bound 0 and
        # minimum 2, so bounds 0 and 1 are walked; unpinned, they take the
        # search to 802,326 nodes.
        ks = ks18 if path is None else parse_set_file(path.read_text(encoding="utf-8"))
        filename = ksset._walk.__code__.co_filename
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            f = frame.f_code
            if event == "call" and f.co_name == "walk" and f.co_filename == filename:
                count += 1

        sys.setprofile(profile)
        try:
            search(ks)
        finally:
            sys.setprofile(None)
        assert count == nodes

    @pytest.mark.parametrize("search", [min_symbol_mismatch, enumerate_valid_colorings],
                             ids=["mismatch", "colorings"])
    def test_no_cyclic_garbage(self, ks18, search):
        # The walk's tables are freed on return, not by the cyclic collector.
        gc.collect()
        gc.disable()
        try:
            search(ks18)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        with pytest.raises(ksset.SetFormatError, match="expected 4 vector ids"):
            parse_set_file("vector 0: 1 0 0 0\nbasis I: 0 0 0\n")
        with pytest.raises(ksset.SetFormatError, match="unknown record kind 'ray'"):
            parse_set_file("ray 0: 1 0 0 0\nbasis I: 0 0 0 0\n")
        with pytest.raises(ksset.SetFormatError, match="^vector 7 is in no basis$"):
            parse_set_file("vector 0: 1 0 0 0\nvector 7: 0 1 0 0\nbasis I: 0 0 0 0\n")
        # Blank lines and comments are skipped, so no basis record is left.
        with pytest.raises(ksset.SetFormatError, match="no basis records found"):
            parse_set_file("# basis I: 0 0 0 0\n\n   \nvector 0: 1 0 0 0  # one ray\n")

    def test_assignment_file(self, ks18):
        text = "\n".join(
            f"basis {b.label}: 1 2 3 4" for b in ks18.bases
        )
        a = parse_assignment_file(text)
        assert a.symbols["I"][0] == 1
        # Only the format is parsed; which bases a labeling must name is
        # SessionConfig's rule (test_protocol.py::TestConfig).
        assert parse_assignment_file("basis X: 1 2 3 4").symbols == {"X": (1, 2, 3, 4)}

    def test_assignment_file_errors(self):
        with pytest.raises(ksset.SetFormatError, match="unknown record kind 'vector'"):
            parse_assignment_file("vector I: 1 2 3 4\n")
        with pytest.raises(ksset.SetFormatError, match="expected 4 symbols"):
            parse_assignment_file("basis I: 1 2 3\n")
