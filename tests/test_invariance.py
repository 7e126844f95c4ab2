"""Exact answers do not depend on how a set file numbers, orders or scales
its rays.

Each case writes a set as a set file relabeled at random, with a fixed
``random.Random`` seed: the file's vector ids are permuted, its records
are shuffled, and with them the order of its bases, the positions within
each basis are permuted, and each ray is written as a nonzero integer
multiple of itself.  Every count and rate read from the file must be the
original set's, through the library and through ``verify``, ``color`` and
``mismatch --set``.  Every vector id a command prints is a file id, and
maps back through the relabeling to a ray the original's answer names.

The sets are the builtin set, ``tests/golden/repeated.ks`` (basis I
repeated, so the parity bound is 0), and two sub-instances from
``oracles.subset_ks`` whose first basis is not the builtin's, so the
labeling walk pins another basis.  Both sub-instances are colorable, so
``color`` lists their colorings.

The kernel's exact round distribution, from the tables of four relabeled
builtin files, must be the original's, as exact Fractions, for every
adversary and noise a session accepts.  The optimal ball labeling is
carried through each file's shuffle of positions.  Scaling a ray leaves
every Born ratio, and with it the tables' denominator, unchanged.

Left out:
- Permuting a ray's four coordinates.  That is not a relabeling: some
  permutations act as a CNOT on the polarization and OAM qubits and
  change the entanglement table.
- Scaling single coordinates.  Only a whole ray may be scaled: scaling
  one coordinate breaks orthogonality.
- The witness itself.  The lexicographically first witness follows the
  file's basis order, so a relabeled file may print another optimal
  labeling, with other defective rays.
"""

import functools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ksqkd import kernel, ksset
from ksqkd.adversary import AdversarySpec, exact_intercept_resend_w
from ksqkd.channels import NoiseSpec
from ksqkd.cli import main
from ksqkd.ksset import SymbolAssignment
from oracles import exact_round_distribution, subset_ks

GOLDEN = Path(__file__).parent / "golden"


def relabeled(ks, rng):
    """The text of a set file that writes ``ks`` relabeled as ``rng`` draws,
    and the file id it gives each vector of ``ks``."""
    file_id = list(range(len(ks.vectors)))
    rng.shuffle(file_id)
    records = []
    for v in ks.vectors:
        scale = rng.choice((1, 2, 3)) * rng.choice((1, -1))
        amps = " ".join(str(scale * a) for a in v.raw_amps)
        records.append(f"vector {file_id[v.id]}: {amps}")
    for b in ks.bases:
        members = [file_id[m] for m in b.members]
        rng.shuffle(members)
        records.append(f"basis {b.label}: " + " ".join(map(str, members)))
    rng.shuffle(records)
    return "\n".join(records) + "\n", file_id


def basis_records(text):
    """A set file's basis records, in file order, as (label, ids) pairs."""
    return [(label, [int(i) for i in ids.split()])
            for label, ids in re.findall(r"^basis (\S+): (.*)$", text, re.M)]


def answers(ks):
    """The library's answers for ``ks`` to what `verify`, `color` and
    `mismatch` report: its verify report, colorings and minimum mismatch."""
    return (ksset.verify_ks_structure(ks), ksset.enumerate_valid_colorings(ks),
            ksset.min_symbol_mismatch(ks).mismatch_count)


def counts(ks):
    """Every other count and rate of ``ks``, which must be orthogonal bases."""
    return (ksset.parity_lower_bound(ks), ksset.wrong_basis_profiles(ks).ok,
            sum(ksset.entanglement_table(ks).values()), exact_intercept_resend_w(ks))


@functools.cache
def original(name):
    """A set to relabel, and its answers.  Its file ids are its ids."""
    builtin = ksset.builtin_ks18()
    labels = {b.label for b in builtin.bases}
    ks = {
        "builtin": builtin,
        "repeated": ksset.parse_set_file((GOLDEN / "repeated.ks").read_text()),
        "without-I": subset_ks(ksset, builtin, labels - {"I"}),
        "IV-V-VII": subset_ks(ksset, builtin, {"IV", "V", "VII"}),
    }[name]
    return ks, answers(ks)


def verify_failures(text, file_to_id):
    """`verify`'s failure lines, each id mapped through `file_to_id`."""
    found = Counter()
    for label, a, b in re.findall(r"^basis (\S+): vectors (\d+) and (\d+) not orthogonal$",
                                  text, re.M):
        found["basis", label, frozenset((file_to_id[int(a)], file_to_id[int(b)]))] += 1
    for a, n in re.findall(r"^vector (\d+) appears in (\d+) bases, expected 2$", text, re.M):
        found["vector", file_to_id[int(a)], n] += 1
    assert sum(found.values()) == len(text.splitlines()) - (text == "structure OK\n")
    return found


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def check_commands(capsys, path, ks, want, file_id):
    """`verify`, `color` and `mismatch` on the relabeled file at `path` give
    the answers `want` of the original `ks`, naming rays by the file's ids."""
    text = path.read_text()
    back = {f: i for i, f in enumerate(file_id)}
    report, colorings, min_mismatch = want
    code, out = run(capsys, "verify", "--set", str(path))
    assert code == (0 if report.ok else 1)
    assert verify_failures(out, back) == verify_failures(str(report) + "\n",
                                                         range(len(file_id)))

    code, out = run(capsys, "color", "--set", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["colorings"] == colorings.count
    labels = [label for label, _ in basis_records(text)]
    assert {frozenset(zip(labels, map(back.get, c))) for c in doc["list"]} == {
        frozenset(zip((b.label for b in ks.bases), c)) for c in colorings.colorings}

    code, out = run(capsys, "mismatch", "--set", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["min_mismatch"] == min_mismatch
    # Each defective id is a file id whose ray the printed witness gives two
    # different symbols in its home bases, and no other ray is.
    symbols = {}
    for label, ids in basis_records(text):
        for pos, i in enumerate(ids):
            symbols.setdefault(i, set()).add(doc["witness"][label][pos])
    assert doc["defective_ids"] == sorted(i for i, s in symbols.items() if len(s) > 1)
    assert len(doc["defective_ids"]) == min_mismatch


@pytest.mark.parametrize("seed", range(40))
def test_counts_and_rates(capsys, tmp_path, ks18, seed):
    text, file_id = relabeled(ks18, random.Random(seed))
    ks = ksset.parse_set_file(text)
    assert ks != ks18  # the file relabels the set
    assert ksset.verify_ks_structure(ks).ok
    assert ksset.parity_lower_bound(ks) == 2
    assert ksset.min_symbol_mismatch(ks).mismatch_count == 2
    assert ksset.enumerate_valid_colorings(ks).count == 0
    assert ksset.wrong_basis_profiles(ks).ok
    assert sum(ksset.entanglement_table(ks).values()) == 6
    assert exact_intercept_resend_w(ks) == (Fraction(17, 36),) * 3
    path = tmp_path / "relabeled.ks"
    path.write_text(text)
    assert main(["verify", "--set", str(path)]) == 0
    assert capsys.readouterr().out == "structure OK\n"
    check_commands(capsys, path, *original("builtin"), file_id)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["repeated", "without-I", "IV-V-VII"])
def test_other_sets(capsys, tmp_path, name, seed):
    base, want = original(name)
    text, file_id = relabeled(base, random.Random(seed))
    ks = ksset.parse_set_file(text)
    report, colorings, min_mismatch = answers(ks)
    assert len(report.failures) == len(want[0].failures)
    assert (colorings.count, min_mismatch) == (want[1].count, want[2])
    assert counts(ks) == counts(base)
    path = tmp_path / f"{name}.ks"
    path.write_text(text)
    check_commands(capsys, path, base, want, file_id)


# One ray broken: `verify` names it by the file's id in every failure.
@pytest.mark.parametrize("seed", range(6))
def test_broken_ray_is_named(capsys, tmp_path, ks18, seed):
    rng = random.Random(seed)
    r = rng.randrange(len(ks18.vectors))
    vectors = list(ks18.vectors)
    vectors[r] = vectors[r]._replace(raw_amps=(1, 2, 3, 5))
    broken = ks18._replace(vectors=tuple(vectors))
    text, file_id = relabeled(broken, rng)
    path = tmp_path / "broken.ks"
    path.write_text(text)
    code, out = run(capsys, "verify", "--set", str(path))
    assert code == 1 and out
    for line in out.splitlines():
        assert str(file_id[r]) in re.findall(r"\d+", line.split(":")[1]), line
    check_commands(capsys, path, broken, answers(broken), file_id)


def carried(assignment, original, ks, file_id):
    """``assignment``, a labeling of ``original``, as the same labeling of
    ``ks``, its relabeling with file ids ``file_id``: each ray keeps its
    symbol in each of its bases."""
    back = {f: i for i, f in enumerate(file_id)}
    members = {b.label: b.members for b in original.bases}
    return SymbolAssignment({
        b.label: tuple(assignment.symbols[b.label][members[b.label].index(back[f])]
                       for f in ks.file_ids(b.members))
        for b in ks.bases
    })


# Every adversary and noise pair a session accepts: the ball takes no noise.
DEPOLARIZING = NoiseSpec("depolarizing", 0.25)
SCENARIOS = {
    "none": ("none", NoiseSpec()),
    "depolarizing": ("none", DEPOLARIZING),
    "ball": ("ball", NoiseSpec()),
    "intercept-resend": ("intercept_resend", NoiseSpec()),
    "intercept-resend-depolarizing": ("intercept_resend", DEPOLARIZING),
}


@functools.cache
def original_distribution(scenario):
    """The ball labeling ``scenario`` runs on the builtin set, the optimal
    one or None, and the set's exact round counts in ``scenario``."""
    kind, noise = SCENARIOS[scenario]
    builtin = ksset.builtin_ks18()
    witness = ksset.min_symbol_mismatch(builtin).witness if kind == "ball" else None
    return witness, exact_round_distribution(AdversarySpec(kind, witness), noise).counts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_exact_round_distribution(ks18, scenario, seed):
    text, file_id = relabeled(ks18, random.Random(seed))
    ks = ksset.parse_set_file(text)
    assert kernel.build_tables(ks).den == kernel.build_tables(ks18).den
    kind, noise = SCENARIOS[scenario]
    witness, counts = original_distribution(scenario)
    assignment = carried(witness, ks18, ks, file_id) if witness else None
    assert exact_round_distribution(AdversarySpec(kind, assignment), noise, ks=ks).counts == counts
