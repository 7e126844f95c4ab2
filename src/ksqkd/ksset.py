"""The 18-vector / 9-basis Kochen-Specker structure and its combinatorics.

The builtin set is the standard 18-ray KS set in dimension 4, stored as
integer amplitude tuples grouped into nine orthonormal bases.  Every ray
belongs to exactly two bases; that interlinking is what makes a classical
one-symbol-per-ball imitation impossible:

* no 0/1 coloring picks exactly one ray per basis (non-colorability), and
* any per-basis symbol labeling leaves at least two rays whose two
  derived symbols disagree (minimum mismatch = 2).

Both facts come from one depth-first walk over per-basis labelings
(:func:`_walk`): a coloring is a labeling without defects that gives
symbol 1 to the selected ray and 2 to the other three.  All structural
computations here are exact (integers / Fractions).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import Record, qcore
from .qcore import canonical_int_amps

# Basis contents of the builtin set, in table row order (row 1 holds
# outcomes 1-2, row 2 outcomes 3-4).  Shared rays repeat verbatim.
KS18_BASES: tuple[tuple[str, tuple[tuple[int, int, int, int], ...]], ...] = (
    ("I", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    ("II", ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 0, 0), (0, 0, 1, -1))),
    ("III", ((1, 1, 1, 1), (1, -1, 1, -1), (1, 0, -1, 0), (0, 1, 0, -1))),
    ("IV", ((-1, 1, 1, 1), (1, 1, -1, 1), (1, 0, 1, 0), (0, 1, 0, -1))),
    ("V", ((1, 0, 0, 1), (0, 1, -1, 0), (1, 1, 1, -1), (-1, 1, 1, 1))),
    ("VI", ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, -1, -1), (1, -1, 1, -1))),
    ("VII", ((1, 1, 1, -1), (1, 1, -1, 1), (0, 0, 1, 1), (1, -1, 0, 0))),
    ("VIII", ((0, 0, 0, 1), (1, 0, 1, 0), (1, 0, -1, 0), (0, 1, 0, 0))),
    ("IX", ((0, 1, -1, 0), (0, 1, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1))),
)

SYMBOLS = (1, 2, 3, 4)

# The two outcome-probability multisets every wrong-basis measurement of a
# builtin ray must produce.
ALLOWED_WRONG_PROFILES = frozenset({
    (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
})


class SetFormatError(ValueError):
    """Raised for malformed set / assignment files."""


class KSVector(NamedTuple):
    id: int  # index in KSSet.vectors
    raw_amps: tuple[int, int, int, int]
    file_id: int  # the id its set file gives it; `id` for a set built in code


class KSBasisDef(NamedTuple):
    label: str
    members: tuple[int, int, int, int]  # vector ids in outcome order


class KSSet(NamedTuple):
    vectors: tuple[KSVector, ...]
    bases: tuple[KSBasisDef, ...]
    # vector id -> ((basis label, position 0..3), ...)
    incidence: dict[int, tuple[tuple[str, int], ...]]

    def file_ids(self, ids) -> list[int]:
        """The file ids of the vectors with ids `ids`, in order: how every
        report names a vector."""
        return [self.vectors[i].file_id for i in ids]


def build_set(basis_amps) -> KSSet:
    """Assemble a KSSet from (label, 4 integer amplitude tuples) pairs.

    Rays that coincide up to scale and sign are merged into a single
    vector id, so the cross-basis interlinking is structural.
    """
    canon_to_id: dict[tuple[int, ...], int] = {}
    vec_amps: list[tuple[int, int, int, int]] = []
    bases: list[KSBasisDef] = []
    for label, amps4 in basis_amps:
        members = []
        for amps in amps4:
            canon = canonical_int_amps(amps)
            vid = canon_to_id.get(canon)
            if vid is None:
                vid = len(vec_amps)
                canon_to_id[canon] = vid
                vec_amps.append(tuple(int(a) for a in amps))
            members.append(vid)
        bases.append(KSBasisDef(label, tuple(members)))
    vectors = tuple(KSVector(i, amps, i) for i, amps in enumerate(vec_amps))
    incidence = {
        v.id: tuple(
            (b.label, pos) for b in bases for pos in range(4) if b.members[pos] == v.id
        )
        for v in vectors
    }
    return KSSet(vectors, tuple(bases), incidence)


def builtin_ks18() -> KSSet:
    """The canonical 18-vector, 9-basis KS set."""
    return build_set(KS18_BASES)


# ---------------------------------------------------------------------------
# Structure verification
# ---------------------------------------------------------------------------

class VerificationReport(NamedTuple):
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return "structure OK"
        return "\n".join(self.failures)


def verify_ks_structure(ks: KSSet) -> VerificationReport:
    """Exact structural checks; failures are reported, never raised.

    Rays equal up to scale and sign are already one vector, merged by
    :func:`build_set`.  Failures name vectors by their file ids.
    """
    fails = []
    for b in ks.bases:
        for i, j in itertools.combinations(b.members, 2):
            if qcore.exact_inner(ks.vectors[i].raw_amps, ks.vectors[j].raw_amps) != 0:
                u, v = ks.file_ids((i, j))
                fails.append(f"basis {b.label}: vectors {u} and {v} not orthogonal")
    for v in ks.vectors:
        n = len({lab for lab, _ in ks.incidence[v.id]})
        if n != 2:
            fails.append(f"vector {v.file_id} appears in {n} bases, expected 2")
    return VerificationReport(fails)


# ---------------------------------------------------------------------------
# The labeling walk
# ---------------------------------------------------------------------------

def _walk(ks: KSSet, choices, bounds, leaf) -> tuple[int, list] | None:
    """Depth-first search over per-basis labelings with few defective vectors.

    A labeling gives each of a basis's four positions a symbol; a vector
    is defective when two of its positions, in one basis or in two, carry
    different symbols.  Depth k labels basis k with each
    labeling of ``choices[k]`` in turn, and a branch is cut as soon as its
    defect count exceeds the bound, so leaves are reached in lexicographic
    order of the choice indices.  Each leaf's labelings, one per depth, go
    to ``leaf``.  The walk runs at each bound of ``bounds`` in turn and
    stops at the first leaf for which ``leaf`` returns True, returning
    that bound and the leaf's labelings, or returns None once every leaf
    at every bound is visited.
    """
    bases = [b.members for b in ks.bases]
    # The depth that labels each vector first.
    first: dict[int, int] = {}
    for k, members in enumerate(bases):
        for v in members:
            first.setdefault(v, k)
    # Per depth: the vectors labeled at an earlier depth, and per labeling
    # the symbol it gives each of them (0 where it splits one, giving two
    # positions of one basis different symbols), the label writes of the
    # new vectors, and how many of them it splits.
    steps = []
    for k, (members, labelings) in enumerate(zip(bases, choices)):
        old = [v for v in dict.fromkeys(members) if first[v] < k]
        new = [v for v in dict.fromkeys(members) if first[v] == k]
        table = []
        for lab in labelings:
            given = dict(zip(members, lab))
            if len(given) < len(members):
                given.update((v, 0) for v, s in zip(members, lab) if given[v] != s)
            table.append((
                lab,
                tuple([given[v] for v in old]),
                [(v, given[v]) for v in new],
                [given[v] for v in new].count(0),
            ))
        steps.append((old, table))
    # Symbol from a vector's first basis, 0 once the vector is defective.
    # A vector is written at its first depth and read only below it, so
    # only the defect marks need undoing on the way back up.
    labels = [0] * len(ks.vectors)
    chosen: list[tuple[int, ...]] = []

    @functools.cache
    def options(k: int, need: tuple[int, ...], slack: int):
        """Depth k's labelings that add at most ``slack`` defects, in order.

        A labeling adds one defect for each old vector still holding a
        symbol that it gives any other (0 when it splits it), and one for
        each new vector it splits.  Each comes with that count, the label
        writes that apply it and those that undo it.
        """
        old, table = steps[k]
        out = []
        for lab, want, writes, split in table:
            undo = [(v, s) for v, s, w in zip(old, need, want) if s != w and s]
            bad = len(undo) + split
            if bad <= slack:
                out.append((lab, bad, writes + [(v, 0) for v, _ in undo], undo))
        return out

    def walk(k: int, slack: int) -> bool:
        """Walk depth k and below with ``slack`` defects left to spend."""
        if k == len(steps):
            return leaf(chosen)
        need = tuple([labels[v] for v in steps[k][0]])
        for lab, bad, writes, undo in options(k, need, slack):
            for v, s in writes:
                labels[v] = s
            chosen.append(lab)
            if walk(k + 1, slack - bad):
                return True
            chosen.pop()
            for v, s in undo:
                labels[v] = s
        return False

    try:
        for bound in bounds:
            if walk(0, bound):
                return bound, chosen
        return None
    finally:
        # ``walk`` holds itself through its closure cell; unbinding it lets
        # the walk's tables go on return, not at the next cyclic collection.
        del walk


# ---------------------------------------------------------------------------
# Colorings
# ---------------------------------------------------------------------------

# Colorings are listed only when there are at most this many.
COLORING_LIST_LIMIT = 100

# Per basis, the labelings that select one ray: symbol 1 there, 2 elsewhere.
_PICKS = tuple(tuple(1 if p == q else 2 for p in range(4)) for q in range(4))


class ColoringResult(NamedTuple):
    count: int
    colorings: list[tuple[int, ...]]  # selected vector ids per basis, if few


def enumerate_valid_colorings(ks: KSSet) -> ColoringResult:
    """Count one-ray-per-basis selections consistent across shared rays.

    A coloring is a labeling without defects that gives the selected ray
    of each basis symbol 1 and its other rays symbol 2, so the search is
    :func:`_walk` over the four such labelings per basis, in basis order,
    at defect bound 0.  Colorings are listed in depth-first order, as the
    tuple of selected ids per basis.  For the builtin set the count is 0:
    that is the Kochen-Specker obstruction.
    """
    members = [b.members for b in ks.bases]
    found: list[tuple[int, ...]] = []
    count = 0

    def leaf(labels) -> bool:
        nonlocal count
        count += 1
        if count <= COLORING_LIST_LIMIT:
            found.append(tuple(m[lab.index(1)] for m, lab in zip(members, labels)))
        return False

    _walk(ks, [_PICKS] * len(ks.bases), [0], leaf)
    return ColoringResult(count, found if count <= COLORING_LIST_LIMIT else [])


# ---------------------------------------------------------------------------
# Symbol assignments and the mismatch minimum
# ---------------------------------------------------------------------------

class _SymbolAssignmentFields(NamedTuple):
    symbols: dict[str, tuple[int, int, int, int]]  # basis label -> symbols


class SymbolAssignment(Record, _SymbolAssignmentFields):
    """Per-basis bijection from outcome positions to symbols 1..4."""

    __slots__ = ()

    def _check(self):
        for lab, syms in self.symbols.items():
            if sorted(syms) != [1, 2, 3, 4]:
                raise ValueError(f"basis {lab}: symbols {syms} not a bijection")

    def to_dict(self) -> dict[str, list[int]]:
        """The labeling as JSON writes it: symbol lists by sorted basis label."""
        return {lab: list(syms) for lab, syms in sorted(self.symbols.items())}

    def vector_symbols(self, ks: KSSet, vector_id: int) -> tuple[int, ...]:
        """The symbols a vector receives in each of its home bases."""
        return tuple(
            self.symbols[lab][pos] for lab, pos in ks.incidence[vector_id]
        )


def defective_vectors(ks: KSSet, assignment: SymbolAssignment) -> list[int]:
    """Vectors whose derived symbols differ between their home bases."""
    bad = []
    for v in ks.vectors:
        syms = assignment.vector_symbols(ks, v.id)
        if len(set(syms)) > 1:
            bad.append(v.id)
    return bad


class MismatchReport(NamedTuple):
    mismatch_count: int
    defective_vector_ids: list[int]
    witness: SymbolAssignment


def parity_lower_bound(ks: KSSet) -> int:
    """Parity bound on the number of defective vectors.

    With an odd number of bases and every vector in exactly two bases,
    each symbol is written an odd number of times (one per basis) but
    consistent vectors contribute symbol occurrences in pairs, so every
    symbol has at least one defect incidence; defective vectors cover two
    symbols each, forcing at least ceil(4/2) = 2 of them.  When the
    argument does not apply (even basis count, or a vector not in exactly
    two bases) the bound is the trivial 0.
    """
    if not ks.bases or not ks.vectors:
        raise ValueError("empty structure")
    if len(ks.bases) % 2 == 0:
        return 0
    if any(len(ks.incidence[v.id]) != 2 for v in ks.vectors):
        return 0
    return 2


_PERMS = tuple(itertools.permutations(SYMBOLS))


def min_symbol_mismatch(ks: KSSet) -> MismatchReport:
    """Exact minimum number of defective vectors over all symbol labelings.

    One first-hit run of :func:`_walk` over the bijections, in basis
    order, with the first basis pinned to the identity, at bound = b,
    b + 1, ... from the parity bound b until some labeling fits.  The
    bounds below b are excluded by the parity argument, not walked; each
    bound from b on was searched exhaustively before the next, so the
    first leaf, the witness, is the optimum with the lexicographically
    smallest symbol table in basis order.  A global symbol relabeling keeps
    every defect count, so pinning the first basis to the identity loses
    no optimum that could come first, and the witness is deterministic.

    A parity bound above the minimum would report too high a count.  The
    guards against that are ``TestParityBound::test_bounds_every_odd_subset``
    in ``tests/test_ksset.py``, which checks the bound against an
    independent oracle, and ``analyze``'s expectation of 2.
    """
    choices = [_PERMS[:1]] + [_PERMS] * (len(ks.bases) - 1)
    best, perms = _walk(ks, choices, itertools.count(parity_lower_bound(ks)),
                        lambda labels: True)
    witness = SymbolAssignment({b.label: p for b, p in zip(ks.bases, perms)})
    bad = defective_vectors(ks, witness)
    # Re-derive the count from the witness itself as a consistency check.
    if len(bad) != best:
        raise RuntimeError(
            f"witness has {len(bad)} defective vectors, search found {best}"
        )
    return MismatchReport(best, bad, witness)


# ---------------------------------------------------------------------------
# Exact outcome profiles and entanglement flags
# ---------------------------------------------------------------------------

def born_table(ks: KSSet) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """Exact Born probabilities of every set vector in every set basis.

    Returns ``(den, num)``: ``num[v][bi][k] / den`` is the
    :func:`qcore.exact_born` probability of outcome ``k`` of vector id
    ``v`` in ``ks.bases[bi]``, one tuple per (vector, basis) pair, 162 for
    the builtin set.  ``den`` is the least common denominator, 4 for the
    builtin set.
    """
    amps = [v.raw_amps for v in ks.vectors]
    bases = [[amps[i] for i in b.members] for b in ks.bases]
    probs = [[qcore.exact_born(state, basis) for basis in bases] for state in amps]
    den = math.lcm(*(p.denominator for row in probs for ps in row for p in ps))
    num = tuple(
        tuple(tuple(p.numerator * (den // p.denominator) for p in ps) for ps in row)
        for row in probs
    )
    return den, num


class ProfileEntry(NamedTuple):
    vector_id: int
    basis_label: str
    probabilities: tuple[Fraction, ...]  # in outcome order

    @property
    def sorted_profile(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.probabilities))


class ProfileReport(NamedTuple):
    entries: list[ProfileEntry]
    violations: list[ProfileEntry]

    @property
    def ok(self) -> bool:
        return not self.violations


def wrong_basis_profiles(ks: KSSet) -> ProfileReport:
    """Exact outcome profiles of every ray in every non-home basis.

    For the builtin set all 126 profiles are one of the two multisets
    {0, 0, 1/2, 1/2} and {0, 1/4, 1/4, 1/2}.
    """
    entries = []
    violations = []
    den, num = born_table(ks)
    for v in ks.vectors:
        homes = {lab for lab, _ in ks.incidence[v.id]}
        for b, nums in zip(ks.bases, num[v.id]):
            if b.label in homes:
                continue
            e = ProfileEntry(v.id, b.label, tuple(Fraction(n, den) for n in nums))
            entries.append(e)
            if e.sorted_profile not in ALLOWED_WRONG_PROFILES:
                violations.append(e)
    return ProfileReport(entries, violations)


def entanglement_table(ks: KSSet) -> dict[int, bool]:
    """Hybrid-entanglement flag for every vector (exact determinant test)."""
    return {
        v.id: qcore.exact_entanglement_det(v.raw_amps) != 0 for v in ks.vectors
    }


# ---------------------------------------------------------------------------
# Set file I/O
# ---------------------------------------------------------------------------

def _read_records(text: str, record) -> None:
    """Call ``record(kind, name, fields)`` for each ``kind name: fields`` line.

    Blank lines and ``#`` comments are skipped.  A line of another form,
    or a ValueError or IndexError from ``record``, becomes a
    SetFormatError that names the line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        words = head.split()
        try:
            if not colon or len(words) != 2:
                raise ValueError("expected a 'kind name: fields' line")
            record(*words, rest.split())
        except (ValueError, IndexError) as exc:
            raise SetFormatError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc


def parse_set_file(text: str) -> KSSet:
    """Parse the line-oriented set format.

    Records: ``vector <id>: a1 a2 a3 a4`` and ``basis <label>: id1 id2 id3 id4``.
    Blank lines and ``#`` comments are ignored; a vector id or basis
    label defined twice, a vector whose ray, up to scale and sign, is an
    earlier vector's, a basis naming an undefined vector and a vector no
    basis names are errors.  Vectors are numbered in order of first
    appearance in the basis records, and keep their ids as file ids.
    """
    vecs: dict[int, tuple[int, int, int, int]] = {}
    rays: dict[tuple[int, ...], int] = {}  # canonical ray -> file id
    basis_ids: dict[str, tuple[int, ...]] = {}

    def record(kind: str, name: str, fields: list[str]) -> None:
        if kind == "vector":
            if len(fields) != 4:
                raise ValueError("expected 4 amplitudes")
            amps = tuple(int(x) for x in fields)
            if not any(amps):
                raise ValueError("zero vector")
            vid = int(name)
            if vid in vecs:
                raise ValueError(f"vector {vid} defined twice")
            ray = canonical_int_amps(amps)
            if ray in rays:
                raise ValueError(f"vector {vid} repeats the ray of vector {rays[ray]}")
            vecs[vid] = amps
            rays[ray] = vid
        elif kind == "basis":
            if len(fields) != 4:
                raise ValueError("expected 4 vector ids")
            if name in basis_ids:
                raise ValueError(f"basis {name} defined twice")
            basis_ids[name] = tuple(int(x) for x in fields)
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    _read_records(text, record)
    if not basis_ids:
        raise SetFormatError("no basis records found")
    try:
        basis_amps = [
            (label, tuple(vecs[i] for i in ids)) for label, ids in basis_ids.items()
        ]
    except KeyError as exc:
        raise SetFormatError(f"basis references unknown vector id {exc}") from exc
    # Distinct file ids are distinct rays, so `build_set` numbers the rays
    # in this order of first appearance.
    named = dict.fromkeys(i for ids in basis_ids.values() for i in ids)
    if unnamed := sorted(vecs.keys() - named.keys()):
        raise SetFormatError(f"vector {unnamed[0]} is in no basis")
    ks = build_set(basis_amps)
    return ks._replace(vectors=tuple(
        v._replace(file_id=i) for v, i in zip(ks.vectors, named)))


def parse_assignment_file(text: str) -> SymbolAssignment:
    """Parse ``basis <label>: s1 s2 s3 s4`` lines into a SymbolAssignment.

    Blank lines and ``#`` comments are ignored; a basis label given twice
    is an error.  Only the format is checked: which bases a labeling must
    name is ``protocol.SessionConfig``'s rule.
    """
    symbols: dict[str, tuple[int, int, int, int]] = {}

    def record(kind: str, label: str, fields: list[str]) -> None:
        if kind != "basis":
            raise ValueError(f"unknown record kind {kind!r}")
        syms = tuple(int(x) for x in fields)
        if len(syms) != 4:
            raise ValueError("expected 4 symbols")
        if label in symbols:
            raise ValueError(f"basis {label} defined twice")
        symbols[label] = syms

    _read_records(text, record)
    return SymbolAssignment(symbols)
