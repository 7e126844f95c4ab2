"""Command line interface: verify / color / mismatch / analyze / simulate /
sweep / intercept.

All outputs are machine-first (JSON or CSV), carry no timestamps, and are
byte-reproducible from their inputs.  Exit codes: 0 success (or SECURE
with --certify), 1 check failure / INSECURE, 2 bad input (including an
unreadable input file or an unwritable --out), 3 INDETERMINATE.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary, ksset, protocol
from .adversary import AdversarySpec
from .channels import NoiseSpec
from .ksset import SetFormatError
from .protocol import SessionConfig

DEFAULTS = {"rounds": 100_000, "seed": 0, "check_fraction": 0.5}

_KNOWN_KEYS = {
    "session": {"rounds", "seed", "check_fraction"},
    "noise": {"kind", "p"},
    "adversary": {"kind", "ball_assignment"},
}


class ConfigError(ValueError):
    pass


def load_config(path: str | None, seed_override: int | None = None) -> SessionConfig:
    """Parse the INI-style session config; unknown keys are rejected."""
    raw = {"session": {}, "noise": {}, "adversary": {}}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                raw[section][key] = value
    try:
        sess = raw["session"]
        rounds = int(sess.get("rounds", DEFAULTS["rounds"]))
        seed = int(sess.get("seed", DEFAULTS["seed"]))
        check_fraction = float(sess.get("check_fraction", DEFAULTS["check_fraction"]))
        noise = NoiseSpec(
            kind=raw["noise"].get("kind", "none"),
            p=float(raw["noise"].get("p", 0.0)),
        )
        adv = _load_adversary(raw["adversary"])
        if seed_override is not None:
            seed = seed_override
        return SessionConfig(
            rounds=rounds, seed=seed, check_fraction=check_fraction,
            noise=noise, adversary=adv,
        )
    except (ValueError, SetFormatError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_adversary(section: dict) -> AdversarySpec:
    kind = section.get("kind", "none")
    if kind != "ball":
        return AdversarySpec(kind=kind)
    source = section.get("ball_assignment", "optimal")
    ks = ksset.builtin_ks18()
    if source == "optimal":
        assignment = ksset.min_symbol_mismatch(ks).witness
    else:
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read ball_assignment {source}: {exc}") from exc
        assignment = ksset.parse_assignment_file(text, ks)
    return AdversarySpec(kind="ball", ball_assignment=assignment)


def _load_set(path: str | None):
    """The set file at `path` (builtin when None); None after an error message."""
    if path is None:
        return ksset.builtin_ks18()
    try:
        return ksset.parse_set_file(Path(path).read_text())
    except (OSError, SetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: cannot read set {path}: {exc}", file=sys.stderr)
    return None


def _emit(text: str, out_path: str | None) -> bool:
    """Write `text` to stdout or `out_path`; False after an error message."""
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    ks = _load_set(args.set)
    if ks is None:
        return 2
    report = ksset.verify_ks_structure(ks)
    print(str(report))
    return 0 if report.ok else 1


def cmd_color(args) -> int:
    ks = _load_set(args.set)
    if ks is None:
        return 2
    result = ksset.enumerate_valid_colorings(ks)
    doc = {"colorings": result.count, "list": [list(c) for c in result.colorings]}
    print(json.dumps(doc, indent=2))
    return 0


def cmd_mismatch(args) -> int:
    ks = _load_set(args.set)
    if ks is None:
        return 2
    rep = ksset.min_symbol_mismatch(ks)
    doc = {
        "min_mismatch": rep.mismatch_count,
        "defective_ids": rep.defective_vector_ids,
        "witness": {lab: list(s) for lab, s in sorted(rep.witness.symbols.items())},
    }
    print(json.dumps(doc, indent=2))
    return 0


# Expected analysis results for the builtin set.
_ANALYZE_EXPECT = {
    "colorings": 0,
    "parity_bound": 2,
    "min_mismatch": 2,
    "profiles_ok": True,
    "entangled_count": 6,
}


def cmd_analyze(args) -> int:
    ks = ksset.builtin_ks18()
    mismatch = ksset.min_symbol_mismatch(ks)
    doc = {
        "colorings": ksset.enumerate_valid_colorings(ks).count,
        "parity_bound": ksset.parity_lower_bound(ks),
        "min_mismatch": mismatch.mismatch_count,
        "defective_ids": mismatch.defective_vector_ids,
        "profiles_ok": ksset.wrong_basis_profiles(ks).ok,
        "entangled_count": sum(ksset.entanglement_table(ks).values()),
    }
    if not _emit(json.dumps(doc, indent=2) + "\n", args.out):
        return 2
    ok = all(doc[k] == v for k, v in _ANALYZE_EXPECT.items())
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    try:
        config = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = protocol.run_session(config)
    if not _emit(report.to_json(), args.out):
        return 2
    if not args.certify:
        return 0
    if report.certified is None:
        return 3
    return 0 if report.certified else 1


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args) -> int:
    if args.param != "noise.p":
        print(f"error: unsupported sweep parameter {args.param!r}", file=sys.stderr)
        return 2
    ok_range = (
        0.0 <= args.start <= args.stop <= 1.0 and args.points >= 2 and args.rounds >= 1
    )
    if not ok_range:
        print("error: need 0 <= start <= stop <= 1 and points >= 2", file=sys.stderr)
        return 2
    # Every point's config is checked before the first session runs.
    configs = []
    for i in range(args.points):
        p = args.start + (args.stop - args.start) * i / (args.points - 1)
        try:
            configs.append(SessionConfig(
                rounds=args.rounds,
                seed=args.seed + i,  # deterministic per (seed, point index)
                check_fraction=args.check_fraction,
                noise=NoiseSpec(kind="depolarizing", p=p),
            ))
        except ValueError as exc:
            print(f"error: sweep point {i}: {exc}", file=sys.stderr)
            return 2
    rows = ["p,w_overall,w_same,w_cross,sift_rate,rounds_sifted,certified"]
    for config in configs:
        p = config.noise.p
        r = protocol.run_session(config)
        certified = {True: "true", False: "false", None: "indeterminate"}[r.certified]
        rows.append(",".join([
            repr(p), _csv_cell(r.w_overall), _csv_cell(r.w_same),
            _csv_cell(r.w_cross), repr(r.sift_rate), str(r.rounds_sifted),
            certified,
        ]))
    return 0 if _emit("\n".join(rows) + "\n", args.out) else 2


def cmd_intercept(args) -> int:
    ks = ksset.builtin_ks18()
    w_same, w_cross, w_overall = adversary.exact_intercept_resend_w(ks)
    # Exact threshold: the float 1/9 lies just below the rational 1/9.
    threshold = Fraction(protocol.W_THRESHOLD_NUM, protocol.W_THRESHOLD_DEN)
    doc = {
        "w_same": [w_same.numerator, w_same.denominator],
        "w_cross": [w_cross.numerator, w_cross.denominator],
        "w_overall": [w_overall.numerator, w_overall.denominator],
        "w_overall_float": float(w_overall),
        "exceeds_threshold": w_overall > threshold,
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ksqkd",
        description="KS-contextuality-protected QKD: analysis and simulation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
        ("verify", cmd_verify, "verify the KS structure of a set"),
        ("color", cmd_color, "enumerate valid 0/1 colorings"),
        ("mismatch", cmd_mismatch, "exact minimum symbol mismatch"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--set", default=None, help="set file (default: builtin)")
        p.set_defaults(fn=fn)

    p = sub.add_parser("analyze", help="full structural analysis of the builtin set")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="run one protocol session")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--certify", action="store_true",
                   help="exit 0/1/3 for SECURE/INSECURE/INDETERMINATE")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep noise.p and report error rates as CSV")
    p.add_argument("--param", default="noise.p")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-fraction", type=float, default=0.5, dest="check_fraction")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("intercept", help="exact intercept-resend error rates")
    p.set_defaults(fn=cmd_intercept)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
