import json
import subprocess
import sys

import numpy as np
import pytest

from rankonegames import cli, games, sdp, values
from rankonegames.linalg import matrix_to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMake:
    def test_make_valid_game_file(self, tmp_path, capsys):
        out = tmp_path / "gc3.json"
        code, _, _ = run(capsys, "make", "--family", "gc", "--n", "3", "--out", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["dA"] == 3 and obj["dB"] == 3
        g, p = games.game_from_json(obj)
        assert p is not None
        assert np.allclose(g.m, games.game_gc(3)[0].m)

    def test_bad_n_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "make", "--family", "gc", "--n", "0",
                           "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "usage" in err

    def test_bad_family_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "make", "--family", "nope", "--n", "2",
                         "--out", str(tmp_path / "x.json"))
        assert code == 1

    def test_schur_an_family_has_value_one(self, tmp_path, capsys):
        out = tmp_path / "a2.json"
        code, _, _ = run(capsys, "make", "--family", "schur-an", "--n", "2", "--out", str(out))
        assert code == 0
        g, _ = games.game_from_json(json.loads(out.read_text()))
        assert np.sum(np.linalg.svd(g.m, compute_uv=False)) == pytest.approx(1.0, abs=1e-9)


class TestValue:
    def test_qow_on_gc2(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        code, out, _ = run(capsys, "value", "--game", str(path), "--which", "qow")
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx(1.0, abs=1e-5)

    def test_v_on_gr3(self, tmp_path, capsys):
        path = tmp_path / "gr3.json"
        run(capsys, "make", "--family", "gr", "--n", "3", "--out", str(path))
        code, out, _ = run(capsys, "value", "--game", str(path), "--which", "V")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_game_all_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(
            {"dA": 2, "dB": 2, "M": matrix_to_json(np.zeros((4, 4)))}))
        for which, tol in (("V", 1e-12), ("qow", 1e-6), ("mu", 1e-6)):
            code, out, _ = run(capsys, "value", "--game", str(path), "--which", which)
            assert code == 0
            assert abs(json.loads(out)["value"]) <= tol

    def test_unreadable_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "value", "--game", "/nonexistent.json", "--which", "V")
        assert code == 2

    def test_dump_sdp(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        dump = tmp_path / "program.json"
        code, _, _ = run(capsys, "value", "--game", str(path), "--which", "qow",
                         "--dump-sdp", str(dump))
        assert code == 0
        prog = json.loads(dump.read_text())
        assert set(prog) == {"maximize", "variables", "objective", "psd_constraints"}
        assert [v["name"] for v in prog["variables"]] == ["P", "Q"]
        assert len(prog["psd_constraints"]) == 1
        assert prog["maximize"] is False

    def test_dump_sdp_mu(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        dump = tmp_path / "program.json"
        code, _, _ = run(capsys, "value", "--game", str(path), "--which", "mu",
                         "--dump-sdp", str(dump))
        assert code == 0
        prog = json.loads(dump.read_text())
        assert set(prog) == {"maximize", "variables", "objective", "psd_constraints"}
        # the split dual: cap multipliers of both programs and the split K
        assert [v["name"] for v in prog["variables"]] == ["P1", "Q1", "P2", "Q2", "K"]
        assert prog["variables"][-1] == {"name": "K", "side": 8, "domain": "off-diagonal",
                                         "split": 4}
        assert len(prog["psd_constraints"]) == 2 and not prog["maximize"]

    @pytest.mark.parametrize("argv", [
        ["value", "--which", "V"],
        ["value", "--which", "bracket"],
        ["repeat", "--k", "1"],
        ["repeat", "--k", "1", "--which", "V"],
    ])
    def test_dump_sdp_without_a_program_is_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        dump = tmp_path / "program.json"
        if argv[0] == "repeat":
            argv = argv + ["--out", str(tmp_path / "p.json")]
        code, out, err = run(capsys, argv[0], "--game", str(path), *argv[1:],
                             "--dump-sdp", str(dump))
        assert code == 1
        assert "--dump-sdp" in err and out == ""
        assert not dump.exists()

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        code, out, _ = run(capsys, "value", "--game", str(path), "--which", "V",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["game", "which", "tol"]
        assert len(lines) == 2


class TestSimulate:
    def test_flip_on_gc(self, tmp_path, capsys):
        path = tmp_path / "gc3.json"
        run(capsys, "make", "--family", "gc", "--n", "3", "--out", str(path))
        code, out, _ = run(capsys, "simulate", "--game", str(path),
                           "--strategy", "gc-oneway-flip")
        assert code == 0
        assert json.loads(out)["win_prob"] == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_gcr(self, tmp_path, capsys):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        code, out, _ = run(capsys, "simulate", "--game", str(path), "--strategy", "identity",
                           "--ancilla", "2,2")
        assert code == 0
        assert json.loads(out)["win_prob"] == pytest.approx(0.25, abs=1e-12)

    def test_strategy_file(self, tmp_path, capsys):
        from rankonegames import strategies as st
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        spath = tmp_path / "strategy.json"
        spath.write_text(json.dumps(st.strategy_to_json(st.named_strategy("gcr-oneway", 2))))
        code, out, _ = run(capsys, "simulate", "--game", str(path), "--strategy", str(spath))
        assert code == 0
        assert json.loads(out)["win_prob"] == pytest.approx(0.25 * 1.5 ** 2, abs=1e-12)

    def test_unknown_strategy_io_error(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        code, _, _ = run(capsys, "simulate", "--game", str(path), "--strategy", "bogus")
        assert code == 2


class TestRepeat:
    def test_k1_identity(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        out1 = tmp_path / "p1.json"
        code, _, _ = run(capsys, "repeat", "--game", str(path), "--k", "1", "--out", str(out1))
        assert code == 0
        obj = json.loads(out1.read_text())
        g, p = games.game_from_json(obj)
        assert np.allclose(g.m, games.game_gc(2)[0].m)
        assert p is not None

    def test_square_and_qow(self, tmp_path, capsys):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        out2 = tmp_path / "sq.json"
        code, out, _ = run(capsys, "repeat", "--game", str(path), "--k", "2",
                           "--out", str(out2), "--which", "qow")
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx((1.0 / 16.0) * 1.5 ** 4, abs=1e-4)

    def test_unknown_which_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        out2 = tmp_path / "sq.json"
        code, out, err = run(capsys, "repeat", "--game", str(path), "--k", "2",
                             "--out", str(out2), "--which", "mu")
        assert code == 1
        assert "--which" in err and out == ""
        assert not out2.exists()

    def test_cap_exceeded(self, tmp_path, capsys):
        path = tmp_path / "gcr3.json"
        run(capsys, "make", "--family", "gcr", "--n", "3", "--out", str(path))
        out2 = tmp_path / "big.json"
        code, _, err = run(capsys, "repeat", "--game", str(path), "--k", "2",
                           "--out", str(out2), "--side-cap", "16")
        assert code == 1
        assert "cap" in err


class TestReproduce:
    def test_gaps_suite_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "reproduce", "--suite", "gaps", "--n-max", "2")
        assert code == 0
        rows = json.loads(out)
        assert all(r["pass"] for r in rows)
        quantities = {(r["game"], r["quantity"]) for r in rows}
        assert ("gc", "omega_qow") in quantities
        assert ("gr", "omega_qow") in quantities

    def test_schur_suite_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--suite", "schur")
        assert code == 0
        rows = json.loads(out)
        assert all(r["pass"] for r in rows)
        ks = {r["n"] for r in rows if r["quantity"] == "V"}
        assert ks == {1, 2, 3, 4, 5, 6}

    def test_bad_suite_usage(self, capsys):
        code, _, _ = run(capsys, "reproduce", "--suite", "")
        assert code == 1

    def test_n_max_needs_allow_large(self, capsys):
        code, _, err = run(capsys, "reproduce", "--suite", "gaps", "--n-max", "4")
        assert code == 1
        assert "allow-large" in err

    @pytest.mark.parametrize("suite", ["gaps", "parallel", "all"])
    @pytest.mark.parametrize("n_max", ["1", "0"])
    def test_empty_table_is_usage_error(self, suite, n_max, capsys):
        code, out, err = run(capsys, "reproduce", "--suite", suite, "--n-max", n_max)
        assert code == 1
        assert "--n-max" in err and out == ""


class TestWitnessValidation:
    @pytest.mark.parametrize("argv", [
        ["value", "--which", "qow"],
        ["value", "--which", "mu"],
        ["repeat", "--k", "2", "--which", "qow"],
    ])
    def test_failed_check_exits_3(self, argv, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        checked = []
        monkeypatch.setattr(values, "haagerup_witness_check",
                            lambda w, tol: checked.append(tol) or False)
        if argv[0] == "repeat":
            argv = argv + ["--out", str(tmp_path / "sq.json")]
        code, out, err = run(capsys, argv[0], "--game", str(path), *argv[1:])
        assert code == 3
        assert out == ""
        assert "witness failed validation" in err
        assert checked == [pytest.approx(1e-6)]


class TestSolverStatus:
    def test_singular_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))

        monkeypatch.setattr(sdp, "_factor_schur", lambda schur: None)
        code, out, err = run(capsys, "value", "--game", str(path), "--which", "qow")
        assert code == 3
        assert out == ""
        assert "'singular'" in err


class TestRemovedFlags:
    @pytest.mark.parametrize("command,flag", [
        ("simulate", ["--tol", "1e-7"]),
        ("simulate", ["--seed", "1"]),
        ("simulate", ["--format", "json"]),
        ("simulate", ["--dump-sdp", "x.json"]),
        ("repeat", ["--seed", "1"]),
        ("repeat", ["--format", "json"]),
        ("reproduce", ["--dump-sdp", "x.json"]),
    ])
    def test_flag_is_usage_error(self, command, flag, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        argv = {
            "simulate": ["--game", str(path), "--strategy", "identity"],
            "repeat": ["--game", str(path), "--k", "1", "--out", str(tmp_path / "p.json")],
            "reproduce": ["--suite", "schur"],
        }[command]
        code, _, err = run(capsys, command, *argv, *flag)
        assert code == 1
        assert "unrecognized arguments" in err


class TestTolerance:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["value", "repeat", "reproduce"])
    def test_invalid_tol_is_usage_error(self, command, tol, tmp_path, capsys):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        power = tmp_path / "sq.json"
        argv = {
            "value": ["--game", str(path), "--which", "qow"],
            "repeat": ["--game", str(path), "--k", "2", "--out", str(power), "--which", "qow"],
            "reproduce": ["--suite", "gaps", "--n-max", "2"],
        }[command]
        code, out, err = run(capsys, command, *argv, "--tol", tol)
        assert code == 1
        assert "--tol" in err and out == ""
        assert not power.exists()


class TestSeesawRestarts:
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_is_usage_error(self, tmp_path, capsys, count):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        code, out, err = run(capsys, "value", "--game", str(path), "--which", "bracket",
                             "--seesaw-restarts", count)
        assert code == 1
        assert "--seesaw-restarts" in err and out == ""


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        _, out1, _ = run(capsys, "value", "--game", str(path), "--which", "bracket",
                         "--seesaw-restarts", "4", "--seed", "7")
        _, out2, _ = run(capsys, "value", "--game", str(path), "--which", "bracket",
                         "--seesaw-restarts", "4", "--seed", "7")
        assert out1 == out2

    def test_make_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "make", "--family", "gcr", "--n", "3", "--out", str(a))
        run(capsys, "make", "--family", "gcr", "--n", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_reused_parser_matches_isolated_runs(self, tmp_path, capsys):
        # one process runs all three commands through the same parser; each
        # must print what it prints in a fresh interpreter
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        calls = [["value", "--game", str(path), "--which", "qow"],
                 ["value", "--game", str(path), "--which", "nope"],
                 ["value", "--game", str(path), "--which", "bracket", "--seed", "3"]]
        in_process = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [0, 1, 0]
        for argv, result in zip(calls, in_process):
            code = f"import sys, rankonegames.cli; sys.exit(rankonegames.cli.main({argv!r}))"
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert (done.returncode, done.stdout, done.stderr) == result

    def test_float_formatting_17g(self):
        text = cli.dump_json({"x": 1.0 / 3.0})
        assert text == '{"x":0.33333333333333331}'


class TestImport:
    def test_package_leaves_out_scipy_optimize(self):
        # a fresh interpreter, so modules the tests import do not count
        code = ("import sys, rankonegames, rankonegames.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_bracket_value_loads_no_scipy(self, tmp_path, capsys):
        # the solver is numpy-only: a lazy import inside it would show here
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        code = ("import sys, rankonegames.cli; "
                f"rc = rankonegames.cli.main(['value', '--game', {str(path)!r}, "
                "'--which', 'bracket']); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "0 []"
