"""The 18-vector / 9-basis Kochen-Specker structure and its combinatorics.

The builtin set is the standard 18-ray KS set in dimension 4, stored as
integer amplitude tuples grouped into nine orthonormal bases.  Every ray
belongs to exactly two bases; that interlinking is what makes a classical
one-symbol-per-ball imitation impossible:

* no 0/1 coloring picks exactly one ray per basis (non-colorability), and
* any per-basis symbol labeling leaves at least two rays whose two
  derived symbols disagree (minimum mismatch = 2).

All structural computations here are exact (integers / Fractions).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import qcore
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


@dataclass(frozen=True)
class KSVector:
    id: int
    raw_amps: tuple[int, int, int, int]


@dataclass(frozen=True)
class KSBasisDef:
    label: str
    members: tuple[int, int, int, int]  # vector ids in outcome order


@dataclass(frozen=True)
class KSSet:
    vectors: tuple[KSVector, ...]
    bases: tuple[KSBasisDef, ...]
    # vector id -> ((basis label, position 0..3), ...)
    incidence: dict[int, tuple[tuple[str, int], ...]] = field(repr=False)

    def basis(self, label: str) -> KSBasisDef:
        for b in self.bases:
            if b.label == label:
                return b
        raise KeyError(label)


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
    vectors = tuple(KSVector(i, amps) for i, amps in enumerate(vec_amps))
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

@dataclass
class VerificationReport:
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return "structure OK"
        return "\n".join(self.failures)


def verify_ks_structure(ks: KSSet) -> VerificationReport:
    """Exact structural checks; failures are reported, never raised."""
    fails = []
    for b in ks.bases:
        for i, j in itertools.combinations(range(4), 2):
            u = ks.vectors[b.members[i]].raw_amps
            v = ks.vectors[b.members[j]].raw_amps
            if qcore.exact_inner(u, v) != 0:
                fails.append(
                    f"basis {b.label}: vectors {b.members[i]} and {b.members[j]} "
                    "not orthogonal"
                )
    seen = {}
    for v in ks.vectors:
        canon = canonical_int_amps(v.raw_amps)
        if canon in seen:
            fails.append(f"vectors {seen[canon]} and {v.id} are the same ray")
        seen[canon] = v.id
    for v in ks.vectors:
        n = len(ks.incidence[v.id])
        if n != 2:
            fails.append(f"vector {v.id} appears in {n} bases, expected 2")
    total = sum(len(ks.incidence[v.id]) for v in ks.vectors)
    if total != 4 * len(ks.bases):
        fails.append(
            f"incidence count {total} != 4 * {len(ks.bases)} bases"
        )
    return VerificationReport(fails)


# ---------------------------------------------------------------------------
# Colorings
# ---------------------------------------------------------------------------

# Colorings are listed only when there are at most this many.
COLORING_LIST_LIMIT = 100


@dataclass
class ColoringResult:
    count: int
    colorings: list[tuple[int, ...]]  # selected vector ids per basis, if few


def enumerate_valid_colorings(ks: KSSet) -> ColoringResult:
    """Count one-ray-per-basis selections consistent across shared rays.

    The search walks the 4^n per-basis choice tree depth first, pruning a
    branch as soon as a shared ray is selected in one home basis but not
    the other.  A surviving leaf is exactly a valid 0/1 coloring (the
    selected rays get 1).  For the builtin set the count is 0: that is
    the Kochen-Specker obstruction.
    """
    labels = [b.label for b in ks.bases]
    label_pos = {lab: i for i, lab in enumerate(labels)}
    members = [b.members for b in ks.bases]
    n = len(ks.bases)
    found: list[tuple[int, ...]] = []
    count = 0
    picks: list[int] = []

    def consistent(depth: int, vid: int) -> bool:
        # vid picked in basis `depth`; check against already-decided bases
        for lab, _ in ks.incidence[vid]:
            i = label_pos[lab]
            if i < depth and picks[i] != vid:
                return False
        # a ray picked earlier must not sit unpicked in this basis
        for pos in range(4):
            other = members[depth][pos]
            if other == vid:
                continue
            for lab, _ in ks.incidence[other]:
                i = label_pos[lab]
                if i < depth and picks[i] == other:
                    return False
        return True

    def walk(depth: int):
        nonlocal count
        if depth == n:
            count += 1
            if count <= COLORING_LIST_LIMIT:
                found.append(tuple(picks))
            return
        for vid in members[depth]:
            if consistent(depth, vid):
                picks.append(vid)
                walk(depth + 1)
                picks.pop()

    walk(0)
    return ColoringResult(count, found if count <= COLORING_LIST_LIMIT else [])


# ---------------------------------------------------------------------------
# Symbol assignments and the mismatch minimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolAssignment:
    """Per-basis bijection from outcome positions to symbols 1..4."""

    symbols: dict[str, tuple[int, int, int, int]]  # basis label -> symbols

    def __post_init__(self):
        for lab, syms in self.symbols.items():
            if sorted(syms) != [1, 2, 3, 4]:
                raise ValueError(f"basis {lab}: symbols {syms} not a bijection")

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


@dataclass
class MismatchReport:
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


def _search_order(ks: KSSet) -> list[int]:
    """Basis processing order maximizing overlap with labeled vectors."""
    n = len(ks.bases)
    remaining = list(range(n))
    order = [remaining.pop(0)]
    covered = set(ks.bases[order[0]].members)
    while remaining:
        best = max(
            remaining,
            key=lambda i: (len(covered.intersection(ks.bases[i].members)), -i),
        )
        remaining.remove(best)
        order.append(best)
        covered.update(ks.bases[best].members)
    return order

_PERMS = tuple(itertools.permutations(SYMBOLS))


def _first_within(ks: KSSet, order, bound: int) -> list[tuple[int, ...]] | None:
    """The first labeling with at most ``bound`` defective vectors, or None.

    Depth first over the bases in ``order``, each trying its bijections in
    lexicographic order, the first basis pinned to the identity; a branch
    is cut as soon as its defect count exceeds ``bound``.  Leaves are
    reached in lexicographic order of the per-basis symbol table taken in
    ``order``, and the first leaf is returned as one bijection per basis.
    """
    # Per depth: the (position, id) pairs of vectors labeled at an earlier
    # depth and of those labeled here, each at its first position in the
    # basis, and the vectors the basis holds twice (defective whatever the
    # bijection).
    steps, seen = [], set()
    for i in order:
        members = ks.bases[i].members
        firsts = [(p, v) for p, v in enumerate(members) if v not in members[:p]]
        steps.append(([(p, v) for p, v in firsts if v in seen],
                      [(p, v) for p, v in firsts if v not in seen],
                      {v for v in members if members.count(v) > 1}))
        seen.update(members)
    # Symbol from a vector's first basis, 0 once the vector is defective.
    # A vector is written at its first depth and read only below it, so
    # only the defect marks need undoing on the way back up.
    labels = [0] * len(ks.vectors)
    chosen: list[tuple[int, ...]] = []

    @functools.cache
    def options(k: int, need: tuple[int, ...], slack: int):
        """Depth k's bijections, each with the vectors it newly makes defective."""
        old, new, twice = steps[k]
        born_bad = [v for _, v in new if v in twice]
        out = []
        for perm in _PERMS[:1] if k == 0 else _PERMS:
            bad = born_bad + [
                v for (p, v), s in zip(old, need) if s and (v in twice or perm[p] != s)
            ]
            if len(bad) <= slack:
                out.append((perm, bad))
        return out

    def walk(k: int, slack: int) -> bool:
        if k == len(steps):
            return True
        old, new, _ = steps[k]
        for perm, bad in options(k, tuple(labels[v] for _, v in old), slack):
            for p, v in new:
                labels[v] = perm[p]
            saved = [labels[v] for v in bad]
            for v in bad:
                labels[v] = 0
            chosen.append(perm)
            if walk(k + 1, slack - len(bad)):
                return True
            chosen.pop()
            for v, s in zip(bad, saved):
                labels[v] = s
        return False

    return chosen if walk(0, bound) else None


def min_symbol_mismatch(ks: KSSet) -> MismatchReport:
    """Exact minimum number of defective vectors over all symbol labelings.

    Two first-hit searches (:func:`_first_within`).  The value: for
    bound = 0, 1, 2, ... search with the bases in an overlap-maximizing
    order until some labeling fits; each smaller bound was searched
    exhaustively and failed, so the search itself proves the minimum.
    The witness: one more search at that minimum, in basis order, whose
    first leaf is the optimum with the lexicographically smallest symbol
    table in basis order.  A global symbol relabeling keeps every defect
    count, so pinning the first basis to the identity loses no optimum
    that could come first, and the witness is deterministic.
    """
    order = _search_order(ks)
    best = 0
    while _first_within(ks, order, best) is None:
        best += 1
    perms = _first_within(ks, range(len(ks.bases)), best)
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

def exact_basis_probs(ks: KSSet, vector_id: int, basis_label: str):
    """Exact Born probabilities of a set vector in one of the set's bases."""
    b = ks.basis(basis_label)
    state = ks.vectors[vector_id].raw_amps
    return qcore.exact_born(state, [ks.vectors[i].raw_amps for i in b.members])


@dataclass
class ProfileEntry:
    vector_id: int
    basis_label: str
    probabilities: tuple[Fraction, ...]  # in outcome order

    @property
    def sorted_profile(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.probabilities))


@dataclass
class ProfileReport:
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
    for v in ks.vectors:
        homes = {lab for lab, _ in ks.incidence[v.id]}
        for b in ks.bases:
            if b.label in homes:
                continue
            probs = exact_basis_probs(ks, v.id, b.label)
            e = ProfileEntry(v.id, b.label, probs)
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

def parse_set_file(text: str) -> KSSet:
    """Parse the line-oriented set format.

    Records: ``vector <id>: a1 a2 a3 a4`` and ``basis <label>: id1 id2 id3 id4``.
    Blank lines and ``#`` comments are ignored; a vector id or basis
    label defined twice is an error.
    """
    vecs: dict[int, tuple[int, int, int, int]] = {}
    basis_ids: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = line.split(":", 1)
            kind, name = head.split()
            fields = rest.split()
            if kind == "vector":
                if len(fields) != 4:
                    raise ValueError("expected 4 amplitudes")
                amps = tuple(int(x) for x in fields)
                if not any(amps):
                    raise ValueError("zero vector")
                vid = int(name)
                if vid in vecs:
                    raise ValueError(f"vector {vid} defined twice")
                vecs[vid] = amps
            elif kind == "basis":
                if len(fields) != 4:
                    raise ValueError("expected 4 vector ids")
                if name in basis_ids:
                    raise ValueError(f"basis {name} defined twice")
                basis_ids[name] = tuple(int(x) for x in fields)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (ValueError, IndexError) as exc:
            raise SetFormatError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    if not basis_ids:
        raise SetFormatError("no basis records found")
    try:
        basis_amps = [
            (label, tuple(vecs[i] for i in ids)) for label, ids in basis_ids.items()
        ]
    except KeyError as exc:
        raise SetFormatError(f"basis references unknown vector id {exc}") from exc
    return build_set(basis_amps)


def parse_assignment_file(text: str, ks: KSSet) -> SymbolAssignment:
    """Parse ``basis <label>: s1 s2 s3 s4`` lines into a SymbolAssignment."""
    symbols: dict[str, tuple[int, int, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rest = line.split(":", 1)
            kind, label = head.split()
            if kind != "basis":
                raise ValueError(f"unknown record kind {kind!r}")
            syms = tuple(int(x) for x in rest.split())
            if len(syms) != 4:
                raise ValueError("expected 4 symbols")
            symbols[label] = syms
        except (ValueError, IndexError) as exc:
            raise SetFormatError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    missing = {b.label for b in ks.bases} - set(symbols)
    if missing:
        raise SetFormatError(f"missing assignments for bases {sorted(missing)}")
    extra = set(symbols) - {b.label for b in ks.bases}
    if extra:
        raise SetFormatError(f"assignments for unknown bases {sorted(extra)}")
    return SymbolAssignment(symbols)
