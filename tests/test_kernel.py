import dataclasses
import itertools

import numpy as np
import pytest

from ksqkd import kernel, ksset, qcore
from ksqkd.adversary import AdversarySpec
from ksqkd.channels import NoiseSpec
from ksqkd.protocol import SessionConfig

import oracles
from steering import centre, draws, session_log

# The four benchmark scenarios: (adversary kind, noise).  A ball session
# takes no noise.
SCENARIOS = [
    ("none", NoiseSpec()),
    ("none", NoiseSpec("depolarizing", 0.3)),
    ("ball", NoiseSpec()),
    ("intercept_resend", NoiseSpec("depolarizing", 0.15)),
]

# Uniforms at the edges of every 16th, a grid that refines the den = 4
# slots Born outcomes are read from: 0, every k/16 exactly, and the largest
# double below each k/16 (k = 16 gives the largest uniform below 1).
BOUNDARY_U = np.array(sorted(
    {0.0}
    | {k / 16 for k in range(16)}
    | {float(np.nextafter(k / 16, 0.0)) for k in range(1, 17)}
))


def assert_logs_identical(got, want):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def spec(adv, optimal_witness):
    """The adversary of kind ``adv``, with the optimal labeling for a ball."""
    if adv == "ball":
        return AdversarySpec("ball", optimal_witness.witness)
    return AdversarySpec(adv)


def assert_matches_reference(ks, adv, noise, ua, ub, un, ue):
    got = kernel.simulate_rounds(kernel.build_tables(ks), adv, noise,
                                 draws(ua, ub, un, ue))
    want = oracles.reference_round_columns(ks, adv, noise, ua, ub, un, ue)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec("depolarizing", 0.3)],
                         ids=["clean", "noisy"])
@pytest.mark.parametrize("adv,streams", [
    ("none", {"alice", "bob"}),
    ("ball", {"alice", "bob", "adversary"}),  # the ball ignores noise
    ("intercept_resend", {"alice", "bob", "adversary"}),
], ids=["none", "ball", "intercept_resend"])
def test_draws_each_stream_it_reads_once(ks18, optimal_witness, adv, streams, noise):
    if noise.kind == "depolarizing" and adv != "ball":
        streams = streams | {"noise"}
    asked = []

    def draw(name):
        asked.append(name)
        return np.random.default_rng(len(asked)).random((100, 2))

    kernel.simulate_rounds(kernel.build_tables(ks18), spec(adv, optimal_witness),
                           noise, draw)
    assert sorted(asked) == sorted(streams)


@pytest.mark.parametrize("adv,noise", SCENARIOS)
def test_reads_each_stream_before_drawing_the_next(ks18, optimal_witness, adv, noise):
    # Each stream is read into its cells before the next is drawn, so a
    # `draw` that refills one shared buffer gives the columns that distinct
    # arrays give.  A kernel that held two streams at once would read one
    # stream's uniforms as another's.
    rng = np.random.default_rng(11)
    uniforms = {name: rng.random((1000, 2))
                for name in ("alice", "bob", "noise", "adversary")}
    shared = np.empty((1000, 2))

    def refill(name):
        np.copyto(shared, uniforms[name])
        return shared

    tables, adversary = kernel.build_tables(ks18), spec(adv, optimal_witness)
    got = kernel.simulate_rounds(tables, adversary, noise, refill)
    want = kernel.simulate_rounds(tables, adversary, noise, uniforms.__getitem__)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_tables_fill_exact_born_slots(ks18):
    t = kernel.build_tables(ks18)
    assert t.outcome.shape == (18 * 9 * t.den,)
    assert t.outcome.dtype == np.int32
    outcome = t.outcome.reshape(18, 9, t.den)
    assert (np.diff(outcome, axis=2) >= 0).all()
    # Outcome k + 1 fills exactly den p_k of the den slots, with p_k the
    # exact Born probability, here read as sixteenths from the oracle.
    for v in ks18.vectors:
        for bi in range(9):
            counts = np.bincount(outcome[v.id, bi], minlength=5)[1:]
            want = oracles.born_numerators(ks18, v.id, bi)
            assert (counts * (16 // t.den)).tolist() == want, (v.id, bi)


def test_positions_consistent_with_members(ks18):
    t = kernel.build_tables(ks18)
    # Incidence a = 4 ba + pos sends member pos of basis ba, and Bob's
    # position of that ray in basis bb is its index there, or -1.
    members = [b.members for b in ks18.bases]
    assert t.state.tolist() == [v for m in members for v in m]
    sift_pos = t.sift_pos.reshape(36, 9)
    for a, v in enumerate(t.state.tolist()):
        for bb, m in enumerate(members):
            assert sift_pos[a, bb] == (m.index(v) if v in m else -1)
    # Every ray lies in exactly two bases.
    assert (sift_pos >= 0).sum() == 36 * 2


@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("adv,noise", SCENARIOS)
def test_matches_reference_loop(optimal_witness, adv, noise, seed):
    cfg = SessionConfig(rounds=50_000, seed=seed, noise=noise,
                        adversary=spec(adv, optimal_witness))
    assert_logs_identical(session_log(cfg), oracles.reference_run_rounds(cfg))


@pytest.mark.parametrize("adv,noise", [
    ("none", NoiseSpec("depolarizing", 0.25)),
    ("ball", NoiseSpec()),
    ("intercept_resend", NoiseSpec("depolarizing", 0.25)),
])
def test_boundary_uniforms_match_reference(ks18, optimal_witness, adv, noise):
    # Every (Alice basis, position, Bob basis) with Bob's uniform at every
    # boundary value; the adversary and noise columns take boundary values
    # too, including the noise uniform equal to p exactly.
    grid = np.array(list(itertools.product(range(9), range(4), range(9),
                                           range(len(BOUNDARY_U)))))
    n = len(grid)
    rng = np.random.default_rng(5)

    def pick(values):
        return rng.permutation(np.resize(values, n))

    p = noise.p
    draws = {
        "ua": np.column_stack([centre(grid[:, 0], 9), centre(grid[:, 1], 4)]),
        "ub": np.column_stack([centre(grid[:, 2], 9), BOUNDARY_U[grid[:, 3]]]),
        "un": np.column_stack([
            pick([p, np.nextafter(p, 0.0), 0.0, np.nextafter(1.0, 0.0)]),
            pick(BOUNDARY_U),
        ]),
        "ue": np.column_stack([pick(BOUNDARY_U), pick(BOUNDARY_U)]),
    }
    assert_matches_reference(ks18, spec(adv, optimal_witness), noise,
                             draws["ua"], draws["ub"], draws["un"], draws["ue"])


def cells(count):
    """The midpoint uniform of each of ``count`` equal cells of [0, 1)."""
    return centre(np.arange(count), count)


def every_cell(ua0, ua1, ub0, ub1, un0, un1, ue0, ue1):
    """One round per combination of the given uniforms of each draw column.

    Each argument lists the values its column takes; the rounds run over
    their whole product.  Returns (ua, ub, un, ue).
    """
    cols = [c.ravel() for c in np.meshgrid(
        ua0, ua1, ub0, ub1, un0, un1, ue0, ue1, indexing="ij")]
    return tuple(np.column_stack(cols[i:i + 2]) for i in range(0, 8, 2))


# The kernel reads each uniform only through floor(m u), m in {9, 4, den}
# with den = 4 for the builtin set, and the noise draw only through
# `u < p`.  A grid of 16 cells refines den's, so the midpoint of every
# cell feeds it every distinct round there is.
P = 0.25
NOISE_CELLS = np.array([P / 2, (1 + P) / 2])  # depolarized, clean
MID = [0.5]  # a column the scenario never reads


@pytest.mark.parametrize("adv,noise,columns", [
    ("none", NoiseSpec(),
     (cells(9), cells(4), cells(9), cells(16), MID, MID, MID, MID)),
    ("none", NoiseSpec("depolarizing", P),
     (cells(9), cells(4), cells(9), cells(16), NOISE_CELLS, cells(4), MID, MID)),
    # The ball adversary reads no Born slot and ignores noise.
    ("ball", NoiseSpec("depolarizing", P),
     (cells(9), cells(4), cells(9), MID, NOISE_CELLS, cells(4), cells(4), MID)),
    # Noise overrides Eve's forwarded state too; one Eve and Bob slot each.
    ("intercept_resend", NoiseSpec("depolarizing", P),
     (cells(9), cells(4), cells(9), [centre(7, 16)], NOISE_CELLS, cells(4),
      cells(9), [centre(11, 16)])),
], ids=["ideal", "noise", "ball", "intercept-noise"])
def test_every_cell_matches_reference(ks18, optimal_witness, adv, noise, columns):
    assert_matches_reference(ks18, spec(adv, optimal_witness), noise,
                             *every_cell(*columns))


@pytest.mark.parametrize("alice_basis", range(9))
def test_every_intercept_resend_cell_matches_reference(ks18, alice_basis):
    # Every (Alice incidence, Eve basis, Eve slot, Bob basis, Bob slot):
    # 36 x 9 x 16 x 9 x 16 rounds over the nine cases.
    draws = every_cell([centre(alice_basis, 9)], cells(4), cells(9), cells(16),
                       MID, MID, cells(9), cells(16))
    assert_matches_reference(ks18, AdversarySpec("intercept_resend"), NoiseSpec(),
                             *draws)


def test_tables_use_the_sets_own_denominator(ks18):
    t = kernel.build_tables(ks18)
    assert t.den == 4
    assert t.outcome.size == t.forward.size == 18 * 9 * 4
    # Overlaps with (1,1,1,0)-style rays have denominators 3 and 6, so
    # this set's Born grid is sixths; every slot count is exact there.
    odd = ksset.build_set((
        ("A", ((1, 1, 1, 0), (1, -1, 0, 0), (1, 1, -2, 0), (0, 0, 0, 1))),
        ("B", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ))
    t = kernel.build_tables(odd)
    assert t.den == 6
    nv, nb = len(odd.vectors), len(odd.bases)
    outcome = t.outcome.reshape(nv, nb, t.den)
    for v in odd.vectors:
        for bi, b in enumerate(odd.bases):
            probs = qcore.exact_born(
                v.raw_amps, [odd.vectors[i].raw_amps for i in b.members])
            counts = np.bincount(outcome[v.id, bi], minlength=5)[1:]
            assert counts.tolist() == [t.den * p for p in probs], (v.id, bi)


def test_non_orthogonal_basis_rejected():
    # Every probability is a multiple of 1/16, but basis A is not
    # orthogonal: (1,0,0,0) would read 1 + 1/4 in it, past outcome 4.
    skew = ksset.build_set((
        ("A", ((1, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1))),
        ("B", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    ))
    with pytest.raises(ValueError, match="orthogonal"):
        kernel.build_tables(skew)
