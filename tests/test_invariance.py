"""Structural counts and rates do not depend on how a set file numbers,
orders or scales its rays.

Each case writes the builtin set as a set file relabeled at random, with
a fixed ``random.Random`` seed: the file's vector ids are permuted, its
records are shuffled, and with them the order of its bases, the
positions within each basis are permuted, and each ray is written as a
nonzero integer multiple of itself.  Every count and rate read from the
file must be the builtin set's.

Left out:
- Reported vector ids.  Reports name rays by the set's own numbering,
  not by the file's, so an id is not compared.
- Permuting a ray's four coordinates.  That is not a relabeling: some
  permutations act as a CNOT on the polarization and OAM qubits and
  change the entanglement table.
- Scaling single coordinates.  Only a whole ray may be scaled: scaling
  one coordinate breaks orthogonality.
"""

import random
from fractions import Fraction

import pytest

from ksqkd import ksset
from ksqkd.adversary import exact_intercept_resend_w
from ksqkd.cli import main


def relabeled(ks, rng):
    """The text of a set file that writes ``ks`` relabeled as ``rng`` draws."""
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
    return "\n".join(records) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_counts_and_rates(capsys, tmp_path, ks18, seed):
    text = relabeled(ks18, random.Random(seed))
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
