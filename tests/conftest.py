import sys
from pathlib import Path

import pytest

from ksqkd import ksset

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def ks18():
    return ksset.builtin_ks18()


@pytest.fixture(scope="session")
def ks18_text(ks18):
    """The builtin set as a set file, with the set's own vector ids."""
    lines = [f"vector {v.id}: " + " ".join(map(str, v.raw_amps)) for v in ks18.vectors]
    lines += [f"basis {b.label}: " + " ".join(map(str, b.members)) for b in ks18.bases]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def optimal_witness(ks18):
    return ksset.min_symbol_mismatch(ks18)
