import atexit
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ksqkd import adversary, cli, kernel, ksset, protocol
from ksqkd.cli import ConfigError, build_parser, load_config, main
from steering import ASCII_LOCALE, child_env

BALL_CONFIG = """\
[session]
rounds = 200000
seed = 3
check_fraction = 0.5

[adversary]
kind = ball
ball_assignment = optimal
"""

NOISE_CONFIG = """\
[session]
rounds = 50000
seed = 3

[noise]
kind = depolarizing
p = 0.25
"""


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out
    return _run


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.rounds == 100_000 and cfg.seed == 0
        assert cfg.check_fraction == 0.5
        assert cfg.noise.kind == "none" and cfg.adversary.kind == "none"

    def test_full_file(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(NOISE_CONFIG)
        cfg = load_config(str(p))
        assert cfg.rounds == 50_000 and cfg.noise.p == 0.25

    # 0 is a seed like any other, not "no override".
    @pytest.mark.parametrize("seed", [42, 0])
    def test_seed_override(self, tmp_path, seed):
        p = tmp_path / "c.ini"
        p.write_text(NOISE_CONFIG)
        assert load_config(str(p), seed_override=seed).seed == seed

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[session]\nrounds = 10\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[eve]\npower = 9000\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_assignment_file(self, tmp_path):
        ks = ksset.builtin_ks18()
        p = tmp_path / "c.ini"
        a = tmp_path / "a.txt"
        a.write_text("\n".join(f"basis {b.label}: 1 2 3 4" for b in ks.bases))
        p.write_text(f"[adversary]\nkind = ball\nball_assignment = {a}\n")
        cfg = load_config(str(p))
        assert cfg.adversary.ball_assignment.symbols["IX"][3] == 4

    @pytest.mark.parametrize("target", ["missing.txt", ".", "binary.txt"])
    def test_unreadable_assignment_file(self, tmp_path, target):
        (tmp_path / "binary.txt").write_bytes(b"basis I: \xff\xfe\n")
        p = tmp_path / "c.ini"
        p.write_text(f"[adversary]\nkind = ball\nball_assignment = {tmp_path / target}\n")
        with pytest.raises(ConfigError, match="ball_assignment"):
            load_config(str(p))


class TestVerify:
    def test_builtin_passes(self, run):
        code, out = run("verify")
        assert code == 0 and "OK" in out

    def test_broken_set_exits_1(self, run, tmp_path, ks18_text):
        # Not vector 2's ray (0 0 1 1): a repeated ray is bad input.
        text = ks18_text.replace(
            "vector 3: 0 0 1 -1", "vector 3: 0 0 1 2"
        )
        p = tmp_path / "bad.ks"
        p.write_text(text)
        code, out = run("verify", "--set", str(p))
        assert code == 1


class TestBadSetFile:
    @pytest.mark.parametrize("command", ["verify", "color", "mismatch"])
    def test_zero_vector_exits_2(self, capsys, tmp_path, ks18_text, command):
        # Exit 1 from verify would read as a failed structural check.
        text = ks18_text.replace(
            "vector 0: 1 0 0 0", "vector 0: 0 0 0 0"
        )
        p = tmp_path / "zero.ks"
        p.write_text(text)
        assert main([command, "--set", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "vector 0: 0 0 0 0" in err

    @pytest.mark.parametrize("command", ["verify", "color", "mismatch"])
    @pytest.mark.parametrize("old,new,record", [
        # Basis II relabelled I: two bases would share one label.
        ("basis II:", "basis I:", "basis I defined twice"),
        # A second vector 1 would silently replace the first.
        ("vector 1: 0 1 0 0\n", "vector 1: 0 1 0 0\nvector 1: 1 1 1 1\n",
         "vector 1 defined twice"),
        # Vector 3 as vector 2's ray, scaled and negated, would merge the two.
        ("vector 3: 0 0 1 -1", "vector 3: 0 0 -2 -2",
         "vector 3 repeats the ray of vector 2"),
    ], ids=["basis-label", "vector-id", "ray"])
    def test_duplicate_record_exits_2(self, capsys, tmp_path, ks18_text,
                                      command, old, new, record):
        p = tmp_path / "dup.ks"
        p.write_text(ks18_text.replace(old, new))
        assert main([command, "--set", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line ") and record in err

    @pytest.mark.parametrize("command", ["verify", "color", "mismatch"])
    def test_non_utf8_exits_2(self, capsys, tmp_path, command):
        p = tmp_path / "binary.ks"
        p.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe")
        assert main([command, "--set", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(p) in err


class TestAnalyze:
    def test_builtin_document(self, run):
        code, out = run("analyze")
        assert code == 0
        doc = json.loads(out)
        assert doc["colorings"] == 0
        assert doc["parity_bound"] == 2
        assert doc["min_mismatch"] == 2
        assert len(doc["defective_ids"]) == 2
        assert doc["profiles_ok"] is True
        assert doc["entangled_count"] == 6

        # The exact rates come last, in the order they are derived.
        assert list(doc)[-3:] == ["ball_w_cross", "threshold", "tolerated_noise"]
        assert doc["ball_w_cross"] == doc["threshold"] == [1, 9]
        assert doc["tolerated_noise"] == [4, 27]

    def test_failed_expectation_exits_1(self, run, monkeypatch):
        monkeypatch.setattr(ksset, "parity_lower_bound", lambda ks: 3)
        code, out = run("analyze")
        assert code == 1 and json.loads(out)["parity_bound"] == 3

    # The ball attack's rate must be the threshold itself: a threshold the
    # derivation does not reach fails `analyze`.
    def test_threshold_off_the_ball_rate_exits_1(self, run, monkeypatch):
        monkeypatch.setattr(adversary, "W_THRESHOLD", Fraction(1, 10))
        code, out = run("analyze")
        doc = json.loads(out)
        assert code == 1 and doc["ball_w_cross"] == [1, 9]
        assert doc["threshold"] == [1, 10] and doc["tolerated_noise"] == [2, 15]


class TestColorMismatch:
    def test_color_builtin(self, run):
        code, out = run("color")
        assert code == 0
        assert json.loads(out) == {"colorings": 0, "list": []}

    def test_mismatch_builtin(self, run):
        code, out = run("mismatch")
        doc = json.loads(out)
        assert code == 0 and doc["min_mismatch"] == 2
        ks = ksset.builtin_ks18()
        witness = ksset.SymbolAssignment(
            {lab: tuple(s) for lab, s in doc["witness"].items()}
        )
        assert ksset.defective_vectors(ks, witness) == doc["defective_ids"]


class TestSimulate:
    def test_ideal_certify_exit_0(self, run):
        code, out = run("simulate", "--certify")
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_ball_attack_certify_exit_1(self, run, tmp_path):
        p = tmp_path / "ball.ini"
        p.write_text(BALL_CONFIG)
        code, out = run("simulate", "--config", str(p), "--certify")
        assert code == 1
        doc = json.loads(out)
        assert doc["certified"] is False and doc["w_same"] == 0.0

    def test_no_checks_certify_exit_3(self, run, tmp_path):
        p = tmp_path / "nochecks.ini"
        p.write_text("[session]\nrounds = 1000\ncheck_fraction = 0\n")
        code, out = run("simulate", "--config", str(p), "--certify")
        assert code == 3
        assert json.loads(out)["certified"] is None

    @pytest.mark.parametrize("target", ["missing.txt", "."])
    def test_unreadable_assignment_certify_exit_2(self, capsys, tmp_path, target):
        # Exit 1 would read as INSECURE under --certify.
        p = tmp_path / "ball.ini"
        p.write_text(f"[adversary]\nkind = ball\nball_assignment = {tmp_path / target}\n")
        assert main(["simulate", "--config", str(p), "--certify"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_repeated_assignment_basis_certify_exit_2(self, capsys, tmp_path, ks18):
        # A second `basis I` line must not silently replace the first.
        a = tmp_path / "a.txt"
        lines = ["basis I: 1 2 3 4", "basis I: 4 3 2 1"]
        lines += [f"basis {b.label}: 1 2 3 4" for b in ks18.bases[1:]]
        a.write_text("\n".join(lines) + "\n")
        p = tmp_path / "ball.ini"
        p.write_text(f"[adversary]\nkind = ball\nball_assignment = {a}\n")
        assert main(["simulate", "--config", str(p), "--certify"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: line 2: ")
        assert "basis I defined twice" in err

    # A labeling must name exactly the nine bases a session runs on.
    @pytest.mark.parametrize("drop,extra,message", [
        ("II", "", "missing assignments for bases ['II']"),
        (None, "basis X: 1 2 3 4\n", "assignments for unknown bases ['X']"),
    ], ids=["without-II", "extra-X"])
    def test_assignment_bases_certify_exit_2(self, capsys, tmp_path, ks18,
                                             drop, extra, message):
        a = tmp_path / "a.txt"
        a.write_text("".join(f"basis {b.label}: 1 2 3 4\n"
                             for b in ks18.bases if b.label != drop) + extra)
        p = tmp_path / "ball.ini"
        p.write_text(f"[adversary]\nkind = ball\nball_assignment = {a}\n")
        assert main(["simulate", "--config", str(p), "--certify"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_non_utf8_config_certify_exit_2(self, capsys, tmp_path):
        # Exit 1 would read as INSECURE under --certify.
        p = tmp_path / "binary.ini"
        p.write_bytes(b"[session]\nrounds = \xff\xfe\n")
        assert main(["simulate", "--config", str(p), "--certify"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(p) in err

    def test_out_file_and_byte_determinism(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _ = run("simulate", "--seed", "9", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["config"]["seed"] == 9

    def test_json_round_trips_to_identical_bytes(self, run):
        _, out = run("simulate", "--seed", "2")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestSweep:
    def test_csv_shape_and_determinism(self, run):
        args = ("sweep", "--start", "0", "--stop", "0.3", "--points", "4",
                "--rounds", "20000")
        code, out1 = run(*args)
        assert code == 0
        _, out2 = run(*args)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "p,w_overall,w_same,w_cross,sift_rate,rounds_sifted,certified"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "0.0" and first[6] == "true"

    def test_rows_track_analytic_w(self, run):
        code, out = run("sweep", "--start", "0", "--stop", "0.3", "--points", "7",
                        "--rounds", "30000")
        assert code == 0
        import math
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            p, w = float(cells[0]), float(cells[1])
            n_checks = int(float(cells[5]) * 0.5)  # roughly half sifted checked
            expect = 0.75 * p
            band = 3 * math.sqrt(max(expect * (1 - expect), 1e-9) / n_checks) + 1e-9
            assert abs(w - expect) <= band

    def test_last_point_is_stop(self, run):
        # 0.2 + 0.8 * 3 / 3 rounds to 1.0000000000000002, outside [0, 1].
        code, out = run("sweep", "--start", "0.2", "--stop", "1.0", "--points", "4",
                        "--rounds", "10")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("1.0,")

    def test_tables_built_once(self, run, monkeypatch):
        calls = []
        build = kernel.build_tables
        monkeypatch.setattr(kernel, "build_tables",
                            lambda ks: calls.append(ks) or build(ks))
        code, out = run("sweep", "--start", "0", "--stop", "0.3", "--points", "4",
                        "--rounds", "10000")
        assert code == 0 and len(calls) == 1
        assert out == (Path(__file__).parent / "golden" / "sweep.out").read_text()

    # The parser cannot import `protocol` without NumPy, so it repeats
    # these defaults.
    def test_defaults_are_session_defaults(self):
        args = build_parser().parse_args(["sweep", "--start", "0", "--stop", "1",
                                          "--points", "2"])
        fields = ("rounds", "seed", "check_fraction")
        assert ({name: getattr(args, name) for name in fields}
                == {name: protocol.SessionConfig._field_defaults[name] for name in fields})


class TestClosedStdout:
    """A stdout that cannot be written is bad output, never a verdict."""

    COMMANDS = ["verify", "color", "mismatch", "analyze", "intercept", "simulate",
                "sweep --start 0 --stop 0.3 --points 2 --rounds 1000",
                "--help", "simulate --help"]

    def run_into(self, tmp_path, command, buffered, stdout):
        # Every command writes through `_emit`: `verify` prints its text,
        # `color`, `mismatch` and `intercept` print one JSON text, `analyze`
        # and `sweep` write theirs whole, `simulate` writes its report in
        # pieces, and argparse's help is written after it exits.  Unbuffered,
        # the first write fails; buffered, `_emit`'s flush does.
        argv = command.split()
        if command == "simulate":
            config = tmp_path / "c.ini"
            config.write_text("[session]\nrounds = 1000\n")
            argv = ["simulate", "--certify", "--config", str(config)]
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run([sys.executable, "-m", "ksqkd.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE,
                              text=True, env=env)
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_2(self, tmp_path, command, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_into(tmp_path, command, buffered, write_end)
        finally:
            os.close(write_end)
        # Exit 1 would read as INSECURE under --certify, and 120 is the
        # interpreter's own code for a failed flush at exit.
        assert result == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_device_exits_2(self, tmp_path, command, buffered):
        # Every write to /dev/full fails with ENOSPC: not a broken pipe, but
        # a stdout that cannot be written all the same.
        with open("/dev/full", "w") as full:
            result = self.run_into(tmp_path, command, buffered, full)
        assert result == (
            2, "error: cannot write stdout: [Errno 28] No space left on device\n")

    def test_other_errors_are_not_stdout_errors(self, monkeypatch):
        # Only a failed write of stdout is bad output; an OSError from
        # anywhere else keeps its traceback.
        def fail(ks):
            raise OSError("not stdout")

        monkeypatch.setattr(adversary, "exact_intercept_resend_w", fail)
        with pytest.raises(OSError, match="not stdout"):
            main(["intercept"])


class TestFreezeAtExit:
    """A CLI process freezes its heap as it exits, so the collections run
    while the interpreter finalizes skip NumPy's objects; a caller that
    runs `main` in-process keeps a normal heap."""

    # Registered before `main` registers its own hook, so it runs after it.
    CHILD = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "from ksqkd.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("argv,code", [
        (["intercept"], 0),
        (["--help"], 0),  # argparse's SystemExit
        (["verify", "--set", "missing.ks"], 2),  # ConfigError
    ], ids=["return", "help", "config-error"])
    def test_child_exits_frozen(self, tmp_path, argv, code):
        proc = subprocess.run([sys.executable, "-c", self.CHILD, *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == code
        label, count = proc.stderr.splitlines()[-1].split()
        assert label == "frozen" and int(count) > 0

    def test_in_process_heap_not_frozen(self, run, monkeypatch):
        # As in a process that has not run `main` yet.
        monkeypatch.setattr(cli, "_freeze_at_exit", False)
        hooks = atexit._ncallbacks()
        for _ in range(2):
            assert run("intercept")[0] == 0
        assert gc.get_freeze_count() == 0
        assert atexit._ncallbacks() == hooks + 1


class TestLocale:
    """Input files are UTF-8 whatever the locale's encoding."""

    COMMENT = "# Kochen\u2013Specker\n"

    def run_in_c_locale(self, *argv):
        return subprocess.run([sys.executable, "-m", "ksqkd.cli", *argv],
                              capture_output=True, text=True, env=child_env(**ASCII_LOCALE))

    def test_set_file_with_non_ascii_comment(self, tmp_path, ks18_text):
        p = tmp_path / "ks18.ks"
        p.write_text(self.COMMENT + ks18_text, encoding="utf-8")
        proc = self.run_in_c_locale("verify", "--set", str(p))
        assert proc.stderr == ""
        assert proc.returncode == 0 and "OK" in proc.stdout

    def test_config_and_assignment_with_non_ascii_comments(self, tmp_path, optimal_witness):
        a = tmp_path / "a.txt"
        a.write_text(self.COMMENT + "".join(
            f"basis {lab}: {' '.join(map(str, syms))}\n"
            for lab, syms in optimal_witness.witness.symbols.items()
        ), encoding="utf-8")
        p = tmp_path / "c.ini"
        p.write_text(self.COMMENT + "[session]\nrounds = 1000\n"
                     f"[adversary]\nkind = ball\nball_assignment = {a}\n",
                     encoding="utf-8")
        out = tmp_path / "report.json"
        proc = self.run_in_c_locale("simulate", "--config", str(p), "--out", str(out))
        assert proc.stderr == ""
        assert proc.returncode == 0
        config = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert config["rounds"] == 1000
        assert config["adversary"]["ball_assignment"] == {
            lab: list(syms) for lab, syms in optimal_witness.witness.symbols.items()
        }


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is not bad input."""

    @pytest.mark.parametrize("marked", ["config", "set", "assignment"])
    def test_same_output_as_without(self, capsys, tmp_path, ks18_text, optimal_witness,
                                    marked):
        files = {name: tmp_path / name for name in ("config", "set", "assignment")}
        texts = {
            "config": "[session]\nrounds = 1000\n[adversary]\nkind = ball\n"
                      f"ball_assignment = {files['assignment']}\n",
            "set": ks18_text,
            "assignment": "".join(f"basis {lab}: {' '.join(map(str, syms))}\n"
                                  for lab, syms in optimal_witness.witness.symbols.items()),
        }
        argv = (["verify", "--set", str(files["set"])] if marked == "set"
                else ["simulate", "--config", str(files["config"])])
        runs = []
        for bom in ("", "\ufeff"):
            for name, path in files.items():
                path.write_text((bom if name == marked else "") + texts[name],
                                encoding="utf-8")
            runs.append((main(argv), *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""


class TestReadme:
    """README's config example loads, and its command lines parse."""

    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_config_example_loads(self, tmp_path):
        (example,) = re.findall(r"```ini\n(.*?)```", self.README, re.DOTALL)
        p = tmp_path / "session.ini"
        p.write_text(example)
        cfg = load_config(str(p))
        assert (cfg.rounds, cfg.seed) == (100_000, 42)
        assert cfg.noise.kind == "depolarizing" and cfg.adversary.kind == "intercept_resend"

    def test_command_lines_parse(self):
        section = self.README.split("## Command line\n", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
        lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
        assert all(argv[0] == "ksqkd" for argv in lines)
        commands = {build_parser().parse_args(argv[1:]).command for argv in lines}
        assert commands == {"verify", "color", "mismatch", "analyze", "simulate", "sweep",
                            "intercept"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
class TestBlasThreads:
    """No command calls BLAS, so the CLI starts NumPy with one BLAS thread."""

    CHILD = (
        "import os, sys\n"
        "from ksqkd import cli\n"
        "code = cli.main(['simulate', '--config', sys.argv[1], '--out', os.devnull])\n"
        "print(code, len(os.listdir('/proc/self/task')),"
        " os.environ['OPENBLAS_NUM_THREADS'])\n"
    )

    def run_simulate(self, tmp_path, **blas_env):
        """Exit code, thread count and OPENBLAS_NUM_THREADS of a child
        that ran `simulate` with only `blas_env` of the BLAS variable."""
        config = tmp_path / "c.ini"
        config.write_text("[session]\nrounds = 1000\n")
        env = child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.update(blas_env)
        proc = subprocess.run([sys.executable, "-c", self.CHILD, str(config)],
                              capture_output=True, text=True, env=env)
        assert proc.stderr == ""
        return proc.stdout.split()

    def test_one_thread_by_default(self, tmp_path):
        assert self.run_simulate(tmp_path) == ["0", "1", "1"]

    def test_caller_value_kept(self, tmp_path):
        code, _, value = self.run_simulate(tmp_path, OPENBLAS_NUM_THREADS="2")
        assert (code, value) == ("0", "2")


class TestIntercept:
    def test_exact_rates(self, run):
        code, out = run("intercept")
        doc = json.loads(out)
        assert code == 0
        assert doc["exceeds_threshold"] is True
        num, den = doc["w_overall"]
        assert num / den > 1 / 9

    @pytest.mark.parametrize("w_overall,exceeds", [
        (Fraction(1, 9), False),
        (Fraction(10**9 + 1, 9 * 10**9), True),
    ])
    def test_threshold_compared_exactly(self, run, monkeypatch, w_overall, exceeds):
        # The float 1/9 lies below the rational 1/9, so a rate of exactly
        # 1/9 must not read as exceeding the threshold.
        monkeypatch.setattr(
            adversary, "exact_intercept_resend_w", lambda ks: (0, 0, w_overall)
        )
        code, out = run("intercept")
        assert code == 0
        assert json.loads(out)["exceeds_threshold"] is exceeds
