"""Independent reference computations used to cross-check the package.

These deliberately take different routes than the implementation under
test: bit-level enumeration for colorings, a vectorized product scan for
the symbol-mismatch minimum and its lexicographically smallest witness, a
graph-coloring formulation for the minimum, a direct squared overlap for
ray equality, closed forms for the ball attack's and the depolarizing
channel's error rates, a nested Fraction enumeration of the
intercept-resend rates that calls ``qcore.exact_born`` itself instead of
reading ``ksset.born_table``, and, for the vectorized round kernel, a
per-round Python loop that searches Born numerators it derives itself
from the set's integer amplitudes, with no use of the kernel's tables.
The exact round distribution takes the kernel's own route on purpose: it
feeds it every cell of the uniforms it reads, to prove the map from cells
to rounds that the kernel owns.
"""

import itertools
from fractions import Fraction

import numpy as np

from ksqkd import kernel, ksset, qcore
from ksqkd.protocol import RoundLog, SessionConfig, SessionReport, estimate_error_stats
from steering import MID, basis_index, cells, draws, every_cell

_PERMS = np.array(list(itertools.permutations((1, 2, 3, 4))), dtype=np.int8)


def brute_force_coloring_count(ks) -> int:
    """Count valid 0/1 colorings by scanning all 2^n bit patterns."""
    nv = len(ks.vectors)
    bits = np.arange(1 << nv, dtype=np.int64)
    ok = np.ones(len(bits), dtype=bool)
    for b in ks.bases:
        ones = np.zeros(len(bits), dtype=np.int8)
        for vid in b.members:
            ones += ((bits >> vid) & 1).astype(np.int8)
        ok &= ones == 1
    return int(ok.sum())


def _ties(ks):
    """(basis, position, basis, position, vector id) for each pair of
    consecutive incidences of a vector: a vector is not defective iff all
    its ties hold."""
    return [
        (basis_index(ks, l1), p1, basis_index(ks, l2), p2, v.id)
        for v in ks.vectors
        for (l1, p1), (l2, p2) in itertools.pairwise(ks.incidence[v.id])
    ]


def _product_scan(ks):
    """Defective-vector count of every labeling, by a vectorized scan.

    The first basis is pinned to the identity labeling (a global symbol
    relabeling never changes the defect count).  The base-24 digits of
    index ``i`` pick the bijections of bases 1..n-1, basis 1 the most
    significant, so indices run in lexicographic order of the symbol
    table in basis order.  A vector is defective when any of its
    incidences differs from its first.  Feasible up to ~5 bases.
    """
    nb = len(ks.bases)
    idx = np.arange(24 ** (nb - 1), dtype=np.int64)
    perm_idx = [np.zeros_like(idx)]
    for b in range(1, nb):
        perm_idx.append((idx // 24 ** (nb - 1 - b)) % 24)
    total = np.zeros(len(idx), dtype=np.int16)
    for v in ks.vectors:
        (lab0, p0), *rest = ks.incidence[v.id]
        first = _PERMS[perm_idx[basis_index(ks, lab0)], p0]
        defective = np.zeros(len(idx), dtype=bool)
        for lab, p in rest:
            defective |= _PERMS[perm_idx[basis_index(ks, lab)], p] != first
        total += defective
    return perm_idx, total


def naive_min_mismatch(ks) -> int:
    """Minimum mismatch by enumerating every per-basis bijection."""
    return int(_product_scan(ks)[1].min())


def lex_min_witness(ks) -> dict:
    """The optimal labeling whose symbol table is lexicographically smallest.

    ``argmin`` returns the first minimal index of the scan, and indices
    run in lexicographic order of the table.
    """
    perm_idx, total = _product_scan(ks)
    i = int(np.argmin(total))
    return {
        b.label: tuple(int(s) for s in _PERMS[perm_idx[k][i]])
        for k, b in enumerate(ks.bases)
    }


def defect_subset_min_mismatch(ks, upper: int) -> int:
    """Minimum mismatch via feasibility of candidate defect sets.

    For k = 0, 1, ... try every k-subset D of shared vectors, those in
    two or more bases: a labeling whose defects all lie inside D exists
    iff the graph whose nodes are the equality-components of basis
    positions (positions tied together by every incidence of each
    non-defective vector) admits a proper 4-coloring in which each
    basis's four components take distinct colors.  The first feasible k
    is the minimum.
    """
    ties = _ties(ks)
    shared_ids = list(dict.fromkeys(vid for *_, vid in ties))

    def feasible(defects: set) -> bool:
        # union-find over (basis index, position) nodes
        nodes = [(b, p) for b in range(len(ks.bases)) for p in range(4)]
        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b1, p1, b2, p2, vid in ties:
            if vid not in defects:
                parent[find((b1, p1))] = find((b2, p2))
        comps = {}
        basis_comps = []
        for b in range(len(ks.bases)):
            row = []
            for p in range(4):
                c = find((b, p))
                comps.setdefault(c, len(comps))
                row.append(comps[c])
            if len(set(row)) != 4:
                return False
            basis_comps.append(row)
        # adjacency: components sharing a basis must differ
        adj = [set() for _ in range(len(comps))]
        for row in basis_comps:
            for a, b in itertools.combinations(row, 2):
                adj[a].add(b)
                adj[b].add(a)
        order = sorted(range(len(comps)), key=lambda c: -len(adj[c]))
        color = [0] * len(comps)

        def walk(i):
            if i == len(order):
                return True
            c = order[i]
            used = {color[nb] for nb in adj[c] if color[nb]}
            for col in (1, 2, 3, 4):
                if col not in used:
                    color[c] = col
                    if walk(i + 1):
                        return True
                    color[c] = 0
            return False

        return walk(0)

    for k in range(upper + 1):
        for d in itertools.combinations(shared_ids, k):
            if feasible(set(d)):
                return k
    raise AssertionError(f"no labeling with at most {upper} defects found")


def subset_ks(ksmod, base_set, labels):
    """Rebuild a sub-instance from a subset of basis labels."""
    chosen = [
        (b.label, tuple(base_set.vectors[i].raw_amps for i in b.members))
        for b in base_set.bases
        if b.label in labels
    ]
    return ksmod.build_set(chosen)


def expected_ball_attack_stats(ks, assignment):
    """Analytic (w_same, w_cross, w_overall) under uniform basis/state draws.

    Same-basis rounds are always consistent.  Conditioned on a sifted
    cross-basis round every vector is equally likely, so the error rate
    is the fraction of vectors whose home-basis symbols differ; overall
    the two sifted classes carry equal weight.
    """
    defects = sum(
        len({assignment.symbols[lab][pos] for lab, pos in ks.incidence[v.id]}) > 1
        for v in ks.vectors
    )
    w_cross = Fraction(defects, len(ks.vectors))
    return Fraction(0), w_cross, w_cross / 2


def intercept_resend_w(ks):
    """Exact (w_same, w_cross, w_overall) of intercept-resend by enumeration.

    Sums exact Born weights over Alice's 36 (basis, state) incidences,
    Eve's 9 bases and 4 outcomes, and Bob's sifting bases (the state's
    home bases).
    """
    raw = {v.id: v.raw_amps for v in ks.vectors}
    basis_amps = {
        b.label: [raw[i] for i in b.members] for b in ks.bases
    }
    weight = {"same": Fraction(0), "cross": Fraction(0)}
    errors = {"same": Fraction(0), "cross": Fraction(0)}
    n_inc = sum(len(ks.incidence[v.id]) for v in ks.vectors)
    w_eve = Fraction(1, n_inc * len(ks.bases))
    for v in ks.vectors:
        for alice_label, _ in ks.incidence[v.id]:
            for eve_label in basis_amps:
                eve_probs = qcore.exact_born(raw[v.id], basis_amps[eve_label])
                for k, pk in enumerate(eve_probs):
                    if pk == 0:
                        continue
                    fwd = basis_amps[eve_label][k]
                    # Bob's basis is uniform over 9; only the state's two
                    # home bases sift.  Conditional rates divide out the
                    # uniform 1/9 factor, so it is omitted.
                    for bob_label, pos in ks.incidence[v.id]:
                        cls = "same" if bob_label == alice_label else "cross"
                        bob_probs = qcore.exact_born(fwd, basis_amps[bob_label])
                        p_ok = bob_probs[pos]
                        weight[cls] += w_eve * pk
                        errors[cls] += w_eve * pk * (1 - p_ok)
    w_same = errors["same"] / weight["same"]
    w_cross = errors["cross"] / weight["cross"]
    w_overall = (errors["same"] + errors["cross"]) / (weight["same"] + weight["cross"])
    return w_same, w_cross, w_overall


def analytic_w(spec):
    """Exact (w, F) of a noise spec.

    A depolarized round still lands on the correct detector with
    probability 1/4, so w = p - p/4 = 3p/4.
    """
    if spec.kind == "none":
        return 0.0, 1.0
    w = 0.75 * spec.p
    return w, 1.0 - w


def exact_overlap_sq(u, v):
    """|<u|v>|^2 of two integer amplitude tuples, as an exact Fraction.

    Computes (u.v)^2 / (|u|^2 |v|^2) directly, with no package code.
    """
    dot = sum(int(x) * int(y) for x, y in zip(u, v))
    norms = sum(int(x) ** 2 for x in u) * sum(int(y) ** 2 for y in v)
    return Fraction(dot * dot, norms)


def born_numerators(ks, vector_id, basis_index):
    """The four Born probabilities of a set vector in a set basis, times 16.

    Each is 16 (b.v)^2 / (|b|^2 |v|^2) in integer arithmetic; a remainder
    or a total other than 16 is an error.
    """
    v = ks.vectors[vector_id].raw_amps
    nums = []
    for m in ks.bases[basis_index].members:
        b = ks.vectors[m].raw_amps
        dot = sum(x * y for x, y in zip(b, v))
        norms = sum(x * x for x in b) * sum(x * x for x in v)
        num, rem = divmod(16 * dot * dot, norms)
        if rem:
            raise ValueError(f"vector {vector_id} in basis {basis_index}: "
                             "probability is not a multiple of 1/16")
        nums.append(num)
    if sum(nums) != 16:
        raise ValueError(f"basis {basis_index} is not complete for vector {vector_id}")
    return nums


def reference_round_columns(ks, adversary, noise, ua, ub, un, ue):
    """Per-round loop twin of ``kernel.simulate_rounds``.

    Reads the same draws and returns the same columns, but takes the set
    ``ks`` in place of the kernel's tables: it finds positions from the
    set's basis members, reads ball symbols from the adversary's
    assignment by basis label, and searches cumulative Born numerators
    from :func:`born_numerators` with the float comparison ``16 u >= c``,
    round by round.
    """
    n = ua.shape[0]
    nb = len(ks.bases)
    mem_t = [list(b.members) for b in ks.bases]
    pos_t = [[-1] * nb for _ in ks.vectors]
    for bi, members in enumerate(mem_t):
        for p, vid in enumerate(members):
            pos_t[vid][bi] = p
    cum_t = [
        [list(itertools.accumulate(born_numerators(ks, v.id, bi))) for bi in range(nb)]
        for v in ks.vectors
    ]
    labels = [b.label for b in ks.bases]
    ua_t, ub_t, un_t, ue_t = ua.tolist(), ub.tolist(), un.tolist(), ue.tolist()
    depolarizing = noise.kind == "depolarizing"
    cols = {
        name: np.zeros(n, dtype=np.int32)
        for name in ("alice_basis", "alice_state", "bob_basis",
                     "bob_outcome", "alice_symbol")
    }
    sifted_col = np.zeros(n, dtype=bool)
    cross_col = np.zeros(n, dtype=bool)

    def search(cum, u):
        t = u * 16.0
        k = 0
        while t >= cum[k]:
            k += 1
        return k

    for i in range(n):
        ua1, ua2 = ua_t[i]
        ub1, ub2 = ub_t[i]
        ba = int(ua1 * nb)
        pos_a = int(ua2 * 4)
        v = mem_t[ba][pos_a]
        bb = int(ub1 * nb)
        p_pos = pos_t[v][bb]
        sifted = p_pos >= 0

        if adversary.kind == "ball":
            symbols = adversary.ball_assignment.symbols
            if sifted:
                outcome = symbols[labels[bb]][p_pos]
                a_sym = symbols[labels[ba]][pos_a]
            else:
                outcome = int(ue_t[i][0] * 4) + 1
                a_sym = 0
        else:
            fwd = v
            if adversary.kind == "intercept_resend":
                eb = int(ue_t[i][0] * nb)
                fwd = mem_t[eb][search(cum_t[v][eb], ue_t[i][1])]
            if depolarizing and un_t[i][0] < noise.p:
                outcome = int(un_t[i][1] * 4) + 1
            else:
                outcome = search(cum_t[fwd][bb], ub2) + 1
            a_sym = p_pos + 1 if sifted else 0

        cols["alice_basis"][i] = ba
        cols["alice_state"][i] = v
        cols["bob_basis"][i] = bb
        cols["bob_outcome"][i] = outcome
        cols["alice_symbol"][i] = a_sym
        sifted_col[i] = sifted
        cross_col[i] = sifted and bb != ba
    return {**cols, "sifted": sifted_col, "cross_basis": cross_col}


def reference_run_rounds(config, ks=None):
    """``steering.session_log`` with the per-round loop in place of the kernel."""
    from ksqkd import ksset, protocol

    ks = ks or ksset.builtin_ks18()
    n = config.rounds
    ua, ub, un, ue = (
        protocol.substream(config.seed, name).random((n, 2))
        for name in ("alice", "bob", "noise", "adversary")
    )
    uc = protocol.substream(config.seed, "check").random(n)
    cols = reference_round_columns(ks, config.adversary, config.noise, ua, ub, un, ue)
    return protocol.RoundLog(
        index=np.arange(n, dtype=np.int64),
        check=cols["sifted"] & (uc < config.check_fraction),
        **cols,
    )


def exact_round_distribution(adversary, noise, checked=True, ks=None):
    """The exact probability of each tallied class of a round on ``ks``,
    the builtin set by default.

    The kernel reads each uniform only through its cell ``floor(m u)``,
    m in {nb, 4, den}, and the noise draw only through ``u < p``.  So the
    midpoint of every cell of the columns a scenario reads, fed through
    the production ``kernel.simulate_rounds``, gives every distinct round
    once, each with the measure of its cell, and :func:`estimate_error_stats`
    tallies them.  With noise, the depolarized grid (noise uniform p/2)
    and the clean one ((1+p)/2) run apart, weighted by ``Fraction(p)``
    and ``1 - Fraction(p)``.  A float64 uniform is a multiple of 2^-53,
    so a cell's measure is 1/m only to within 2^-53: what this proves is
    the map from cells to rounds.

    Every sifted round is a check round when ``checked``, none otherwise.
    Returns a ``SessionReport`` whose counts are Fractions summing to 1,
    so every figure of it is exact.
    """
    tables = kernel.build_tables(ks or ksset.builtin_ks18())
    nb, den = len(tables.ks.bases), tables.den
    born = cells(den) if adversary.kind != "ball" else MID
    eve = {"none": (MID, MID), "ball": (cells(4), MID),
           "intercept_resend": (cells(nb), cells(den))}[adversary.kind]
    if noise.kind == "depolarizing":
        p = Fraction(noise.p)
        grids = [(p, noise.p / 2, cells(4)), (1 - p, (1 + noise.p) / 2, cells(4))]
    else:
        grids = [(Fraction(1), 0.5, MID)]
    total = [Fraction(0)] * 16
    for weight, un0, un1 in grids:
        ua, ub, un, ue = every_cell(cells(nb), cells(4), cells(nb), born,
                                    [un0], un1, *eve)
        columns = kernel.simulate_rounds(tables, adversary, noise,
                                         draws(ua, ub, un, ue))
        log = RoundLog(index=np.arange(len(ua)),
                       check=columns["sifted"] & checked, **columns)
        counts = estimate_error_stats(log).tolist()
        total = [t + weight * Fraction(c, len(ua)) for t, c in zip(total, counts)]
    config = SessionConfig(check_fraction=float(checked), noise=noise,
                           adversary=adversary)
    return SessionReport(tuple(total), config, ())
