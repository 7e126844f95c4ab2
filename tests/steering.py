"""Hand-built uniform draws that steer the round kernel to chosen rounds,
and a whole session's log and report text in one call each."""

import io

import numpy as np

from ksqkd import kernel, ksset, protocol
from ksqkd.adversary import AdversarySpec
from ksqkd.channels import NoiseSpec


def centre(index, count):
    """The uniform in the middle of bin `index` of `count` equal bins."""
    return (np.asarray(index, dtype=float) + 0.5) / count


def basis_index(ks, label):
    """The index of the basis labelled `label` in `ks.bases`."""
    return [b.label for b in ks.bases].index(label)


def sending(ks, vector_id):
    """Alice's two draws that send `vector_id` from its first home basis."""
    label, pos = ks.incidence[vector_id][0]
    return centre(basis_index(ks, label), len(ks.bases)), centre(pos, 4)


def draws(ua, ub, un, ue):
    """The ``draw`` callable of ``kernel.simulate_rounds`` for given uniforms."""
    return {"alice": ua, "bob": ub, "noise": un, "adversary": ue}.__getitem__


def steer(ks, ua0, ua1, ub0, ub1, un0=0.5, un1=0.5, ue0=0.5, ue1=0.5,
          adversary=AdversarySpec(), noise=NoiseSpec()):
    """Kernel columns for rounds whose draws are given column by column.

    Each argument broadcasts to the common round count: ``ua0``/``ub0``
    pick Alice's and Bob's basis, ``ua1`` Alice's position, ``ub1`` Bob's
    Born outcome, ``un0``/``un1`` the noise draw and ``ue0``/``ue1`` the
    adversary's.
    """
    cols = np.broadcast_arrays(*(
        np.asarray(c, dtype=float) for c in (ua0, ua1, ub0, ub1, un0, un1, ue0, ue1)
    ))
    ua, ub, un, ue = (np.column_stack(cols[i:i + 2]) for i in range(0, 8, 2))
    return kernel.simulate_rounds(
        kernel.build_tables(ks), adversary, noise, draws(ua, ub, un, ue)
    )


def session_log(config):
    """Every round of a session on the builtin set, as one log."""
    tables = kernel.build_tables(ksset.builtin_ks18())
    return protocol.run_rounds(config, tables, protocol.substreams(config.seed),
                               0, config.rounds)


def report_text(report):
    """The text ``report.to_json`` writes."""
    out = io.StringIO()
    report.to_json(out)
    return out.getvalue()
