import json
from fractions import Fraction

import pytest

from ksqkd import adversary, ksset
from ksqkd.cli import ConfigError, load_config, main

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

    def test_seed_override(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(NOISE_CONFIG)
        assert load_config(str(p), seed_override=42).seed == 42

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
        text = ks18_text.replace(
            "vector 3: 0 0 1 -1", "vector 3: 0 0 1 1"
        )
        p = tmp_path / "bad.ks"
        p.write_text(text)
        code, out = run("verify", "--set", str(p))
        assert code == 1

    def test_garbage_exits_2(self, run, tmp_path):
        p = tmp_path / "garbage.ks"
        p.write_text("what even is this\n")
        code, _ = run("verify", "--set", str(p))
        assert code == 2


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
    ], ids=["basis-label", "vector-id"])
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

    def test_invalid_config_exit_2(self, run, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[session]\nrounds = -5\n")
        code, _ = run("simulate", "--config", str(p))
        assert code == 2

    @pytest.mark.parametrize("target", ["missing.txt", "."])
    def test_unreadable_assignment_certify_exit_2(self, capsys, tmp_path, target):
        # Exit 1 would read as INSECURE under --certify.
        p = tmp_path / "ball.ini"
        p.write_text(f"[adversary]\nkind = ball\nball_assignment = {tmp_path / target}\n")
        assert main(["simulate", "--config", str(p), "--certify"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

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

    def test_invalid_range_exit_2(self, run):
        code, _ = run("sweep", "--start", "0.5", "--stop", "0.1", "--points", "3")
        assert code == 2
        code, _ = run("sweep", "--start", "0", "--stop", "1", "--points", "1")
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ("--check-fraction", "2"),
        ("--seed", "-1"),
        # the last point's seed, 2**64, needs 65 bits
        ("--seed", str(2**64 - 2)),
    ])
    def test_invalid_session_config_exit_2(self, capsys, extra):
        argv = ["sweep", "--start", "0", "--stop", "0.3", "--points", "3",
                "--rounds", "100", *extra]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_unsupported_param_exit_2(self, run):
        code, _ = run("sweep", "--param", "noise.q", "--start", "0",
                      "--stop", "1", "--points", "2")
        assert code == 2


class TestUnwritableOut:
    """A report that cannot be written is bad input, never a verdict."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--certify", "--seed", "1"],
        ["analyze"],
        ["sweep", "--start", "0", "--stop", "0.1", "--points", "2", "--rounds", "100"],
    ], ids=["simulate", "analyze", "sweep"])
    def test_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        assert main([*argv, "--out", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {target}")


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
