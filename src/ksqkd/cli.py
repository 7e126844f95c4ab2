"""Command line interface: verify / color / mismatch / analyze / simulate /
sweep / intercept.

All outputs are machine-first (JSON or CSV), carry no timestamps, and are
byte-reproducible from their inputs.  Exit codes: 0 success (or SECURE
with --certify), 1 check failure / INSECURE, 2 bad input (including an
unreadable input file, an unwritable --out, or a stdout that cannot be
written: a closed pipe or a full device), 3 INDETERMINATE.  A command
raises ``ConfigError`` for bad input; only ``main`` catches it, printing
``error: <message>`` to stderr and returning 2.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import io
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from . import adversary, ksset
from .adversary import AdversarySpec
from .channels import NoiseSpec
from .ksset import SetFormatError

# `protocol` imports NumPy, which only the commands that run rounds
# (simulate, sweep) need; the exact commands never load it.  Only
# `simulate` reads a config, so `configparser` is imported there too.
if TYPE_CHECKING:
    from .protocol import SessionConfig

# Every config key by section, each with its type; a key the file leaves
# out takes the default of the record it configures.
_KEYS = {
    "session": {"rounds": int, "seed": int, "check_fraction": float},
    "noise": {"kind": str, "p": float},
    "adversary": {"kind": str, "ball_assignment": str},
}


class ConfigError(ValueError):
    """Bad input; `main` exits 2 with its message."""


def load_config(path: str | None, seed_override: int | None = None) -> SessionConfig:
    """Parse the INI-style session config; unknown keys are rejected."""
    import configparser

    from .protocol import SessionConfig

    raw = {section: {} for section in _KEYS}
    if path is not None:
        # Values are literal: no `%` interpolation.  No header can name
        # the default section "", so `[DEFAULT]` is an ordinary section and
        # is rejected as unknown, not applied to every other section.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            parser.read_string(_read(path, "config"), source=path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                raw[section][key] = value
    try:
        typed = {
            section: {key: cast(raw[section][key])
                      for key, cast in keys.items() if key in raw[section]}
            for section, keys in _KEYS.items()
        }
        session = typed["session"]
        noise = NoiseSpec(**typed["noise"])
        adv = _load_adversary(typed["adversary"])
        if seed_override is not None:
            session["seed"] = seed_override
        return SessionConfig(**session, noise=noise, adversary=adv)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_adversary(section: dict) -> AdversarySpec:
    kind = section.get("kind", "none")
    if kind != "ball":
        return AdversarySpec(kind, section.get("ball_assignment"))
    source = section.get("ball_assignment", "optimal")
    if source == "optimal":
        assignment = ksset.min_symbol_mismatch(ksset.builtin_ks18()).witness
    else:
        assignment = ksset.parse_assignment_file(_read(source, "ball_assignment"))
    return AdversarySpec(kind, assignment)


def _read(path: str, what: str) -> str:
    """The text of the input file at `path`, UTF-8 with or without a BOM."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_set(path: str | None):
    """The set file at `path`, or the builtin set when None."""
    if path is None:
        return ksset.builtin_ks18()
    try:
        return ksset.parse_set_file(_read(path, "set"))
    except SetFormatError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(write: Callable[[TextIO], object], out_path: str | None = None) -> None:
    """Call `write` on stdout, or on `out_path` opened for writing.

    Every command writes its output here, so that a stdout that cannot be
    written, a closed pipe or a full device, is bad output, not a traceback.
    """
    if out_path is None:
        try:
            write(sys.stdout)
            # Output stdout still buffers is written here, so that it fails
            # inside this `try`, not in the flush at exit.
            sys.stdout.flush()
        except OSError as exc:
            # The interpreter flushes stdout again at exit; that flush now
            # writes to the null device and cannot change the exit code.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    ks = _load_set(args.set)
    report = ksset.verify_ks_structure(ks)
    _emit(lambda out: print(report, file=out))
    return 0 if report.ok else 1


def cmd_color(args) -> int:
    ks = _load_set(args.set)
    result = ksset.enumerate_valid_colorings(ks)
    doc = {"colorings": result.count, "list": [list(c) for c in result.colorings]}
    _emit(lambda out: print(json.dumps(doc, indent=2), file=out))
    return 0


def cmd_mismatch(args) -> int:
    ks = _load_set(args.set)
    rep = ksset.min_symbol_mismatch(ks)
    doc = {
        "min_mismatch": rep.mismatch_count,
        "defective_ids": rep.defective_vector_ids,
        "witness": {lab: list(s) for lab, s in sorted(rep.witness.symbols.items())},
    }
    _emit(lambda out: print(json.dumps(doc, indent=2), file=out))
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
    text = json.dumps(doc, indent=2) + "\n"
    _emit(lambda out: out.write(text), args.out)
    ok = all(doc[k] == v for k, v in _ANALYZE_EXPECT.items())
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    from . import protocol

    config = load_config(args.config, seed_override=args.seed)
    report = protocol.run_session(config)
    _emit(report.to_json, args.out)
    if not args.certify:
        return 0
    if report.certified is None:
        return 3
    return 0 if report.certified else 1


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def cmd_sweep(args) -> int:
    from . import kernel, protocol

    if args.param != "noise.p":
        raise ConfigError(f"unsupported sweep parameter {args.param!r}")
    for ok, condition in (
        (0.0 <= args.start <= args.stop <= 1.0, "0 <= start <= stop <= 1"),
        (args.points >= 2, "points >= 2"),
    ):
        if not ok:
            raise ConfigError(f"need {condition}")
    # Every point's config is checked before the first session runs.
    configs = []
    last = args.points - 1
    for i in range(args.points):
        # The formula can round the last point past --stop, even out of [0, 1].
        p = args.stop if i == last else args.start + (args.stop - args.start) * i / last
        try:
            configs.append(protocol.SessionConfig(
                rounds=args.rounds,
                seed=args.seed + i,  # deterministic per (seed, point index)
                check_fraction=args.check_fraction,
                noise=NoiseSpec(kind="depolarizing", p=p),
            ))
        except ValueError as exc:
            raise ConfigError(f"sweep point {i}: {exc}") from exc
    # Every point runs on the same set, so its tables are built once.
    tables = kernel.build_tables(ksset.builtin_ks18())
    rows = ["p,w_overall,w_same,w_cross,sift_rate,rounds_sifted,certified"]
    for config in configs:
        p = config.noise.p
        r = protocol.run_session(config, tables)
        certified = {True: "true", False: "false", None: "indeterminate"}[r.certified]
        rows.append(",".join([
            repr(p), _csv_cell(r.w_overall), _csv_cell(r.w_same),
            _csv_cell(r.w_cross), repr(r.sift_rate), str(r.rounds_sifted),
            certified,
        ]))
    text = "\n".join(rows) + "\n"
    _emit(lambda out: out.write(text), args.out)
    return 0


def cmd_intercept(args) -> int:
    ks = ksset.builtin_ks18()
    w_same, w_cross, w_overall = adversary.exact_intercept_resend_w(ks)
    doc = {
        "w_same": [w_same.numerator, w_same.denominator],
        "w_cross": [w_cross.numerator, w_cross.denominator],
        "w_overall": [w_overall.numerator, w_overall.denominator],
        "w_overall_float": float(w_overall),
        "exceeds_threshold": w_overall > adversary.W_THRESHOLD,
    }
    _emit(lambda out: print(json.dumps(doc, indent=2), file=out))
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


def _parse_args(argv) -> argparse.Namespace:
    """Parse `argv`.  What argparse prints to stdout, its help, is written
    through `_emit`, so a stdout that cannot take it is bad output too."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            return build_parser().parse_args(argv)
    finally:
        # Runs as argparse's SystemExit passes; a ConfigError replaces it.
        if text := printed.getvalue():
            _emit(lambda out: out.write(text))


# Whether `main` has registered its exit hook in this process.
_freeze_at_exit = False


def main(argv=None) -> int:
    # The collections the interpreter runs as it exits would walk the 100k+
    # objects NumPy's import made, only to free memory the OS takes back
    # anyway: about 20 ms of each NumPy command.  Frozen objects are skipped.
    # The hook runs on every way out of the process, argparse's SystemExit
    # included, and an in-process caller keeps a normal heap until it exits.
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    # No command calls a BLAS routine, yet OpenBLAS starts a pool of worker
    # threads as NumPy loads, which costs about 65 ms of start-up.  A value
    # the caller set wins.  Reconsider this line if a command ever uses BLAS.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        # One line, whatever the message: configparser's span several.
        print("error:", *map(str.strip, str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
