import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from rankonegames import cli, games, sdp, values
from rankonegames.linalg import matrix_to_json

from conftest import halve_p


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

    @pytest.mark.parametrize("family, n, code", [
        ("gc", 5, 1), ("gcr", 5, 1), ("schur-an", 3, 1),
        ("gc", 4, 0), ("gr", 4, 0), ("schur-an", 2, 0)])
    def test_side_cap_checked_before_building(self, family, n, code, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", 16)
        out = tmp_path / "g.json"
        rc, _, err = run(capsys, "make", "--family", family, "--n", str(n), "--out", str(out))
        assert rc == code
        assert out.exists() == (code == 0)
        if code:
            assert "usage error" in err and "cap 16" in err


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

    @pytest.mark.parametrize("argv", [["simulate", "--strategy", "identity"],
                                      ["value", "--which", "bracket"]])
    def test_game_at_the_trace_norm_slack(self, argv, tmp_path, capsys):
        # a valid game may exceed trace norm one by TRACE_NORM_SLACK, and its
        # win probabilities by that squared
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"dA": 1, "dB": 1, "M": matrix_to_json(np.array([[1 + 9e-10]]))}))
        code, out, err = run(capsys, argv[0], "--game", str(path), *argv[1:])
        assert code == 0 and "error:" not in err
        json.loads(out)

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
        terms = prog["psd_constraints"][0]["terms"]
        assert all(set(t) == {"var", "left", "sign"} and t["sign"] == 1 for t in terms)

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
        terms = [(c["name"], t) for c in prog["psd_constraints"] for t in c["terms"]]
        assert all(set(t) == {"var", "left", "sign"} for _, t in terms)
        # -K in the plain block is the only negative term
        assert [(name, t["var"]) for name, t in terms if t["sign"] == -1] == [("plain-block", "K")]
        assert all(t["sign"] == 1 for _, t in terms if t["sign"] != -1)

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

    @pytest.mark.parametrize("which, header", [
        pytest.param("V", "game,which,tol,value", id="V"),
        pytest.param("bracket", "game,which,tol,V,qow,qow_bound,mu,mu_bound,omega_star_lower,"
                                "omega_star_lower_provenance,omega_star_upper,"
                                "omega_star_upper_provenance,seesaw_value,identity_value",
                     id="bracket"),
    ])
    def test_csv_format(self, which, header, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        code, out, _ = run(capsys, "value", "--game", str(path), "--which", which,
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == header
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

    def test_game_without_purification(self, tmp_path, capsys):
        g, _ = games.game_gcr(2)
        path = tmp_path / "gcr2.json"
        path.write_text(cli.dump_json(games.game_to_json(g)))
        code, out, _ = run(capsys, "simulate", "--game", str(path), "--strategy", "gcr-oneway")
        assert code == 0
        assert json.loads(out)["win_prob"] == pytest.approx(0.25 * 1.5 ** 2, abs=1e-12)

    @pytest.mark.parametrize("strategy,ancilla", [
        ("identity", "0,1"), ("identity", "-1,2"), ("identity", "2"), ("identity", ""),
        ("gc-oneway-flip", "2,2"), ("gcr-oneway", "1,1")])
    def test_bad_ancilla_is_usage_error(self, strategy, ancilla, tmp_path, capsys):
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        code, out, err = run(capsys, "simulate", "--game", str(path), "--strategy", strategy,
                             f"--ancilla={ancilla}")
        assert code == 1
        assert err.startswith("usage error:") and out == ""


def malformed_game(case):
    """The text of a gc2 game file spoilt in one way."""
    obj = games.game_to_json(*games.game_gc(2))
    if case == "wrong-side":
        obj["dA"] = 3
    elif case == "nan-entry":
        obj["M"]["data"][0] = [float("nan"), 0.0]
    elif case == "top-level-list":
        obj = [1, 2]
    elif case == "non-integer-dA":
        obj["dA"] = "two"
    elif case == "short-purification-entry":
        obj["purification"]["psi"][0] = [1.0]
    elif case == "negative-dims":
        del obj["purification"]
        obj["dA"] = obj["dB"] = -2
    elif case == "fractional-dA":
        obj["dA"] = 2.9
    elif case == "string-dA":
        obj["dA"] = "2"
    elif case == "fractional-dC":
        obj["purification"]["dC"] = 2.5
    elif case == "fractional-rows":
        obj["M"]["rows"] = 4.5
    return json.dumps(obj)


class TestMalformedInput:
    """A malformed game or strategy file exits 2 with an error line."""

    @staticmethod
    def assert_refused(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("case", ["wrong-side", "nan-entry", "top-level-list",
                                      "non-integer-dA", "short-purification-entry",
                                      "negative-dims", "fractional-dA", "string-dA",
                                      "fractional-dC", "fractional-rows"])
    def test_game_file(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(malformed_game(case))
        self.assert_refused(capsys, "value", "--game", str(path), "--which", "V")

    def test_game_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        self.assert_refused(capsys, "value", "--game", str(path), "--which", "V")

    @pytest.mark.parametrize("case", ["missing-key", "invalid-json", "wrong-side-U",
                                      "top-level-list", "fractional-dAp"])
    def test_strategy_file(self, case, tmp_path, capsys):
        from rankonegames import strategies as st
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        n = 3 if case == "wrong-side-U" else 2
        # the identity strategy has trivial ancillas, so 1.5 would truncate to a fit
        name = "identity" if case == "fractional-dAp" else "gc-oneway-flip"
        obj = st.strategy_to_json(st.named_strategy(name, n))
        if case == "missing-key":
            del obj["U"]
        elif case == "fractional-dAp":
            obj["dAp"] = 1.5
        text = {"invalid-json": "{", "top-level-list": "[1, 2]"}.get(case, json.dumps(obj))
        spath = tmp_path / "strategy.json"
        spath.write_text(text)
        self.assert_refused(capsys, "simulate", "--game", str(path), "--strategy", str(spath))

    def test_named_strategy_on_unequal_sides(self, tmp_path, capsys):
        m = np.zeros((6, 6))
        m[0, 0] = 1.0
        path = tmp_path / "g23.json"
        path.write_text(json.dumps(games.game_to_json(games.RankOneGame(2, 3, m))))
        self.assert_refused(capsys, "simulate", "--game", str(path),
                            "--strategy", "gc-oneway-flip")


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

    def test_cap_exceeded(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gcr3.json"
        run(capsys, "make", "--family", "gcr", "--n", "3", "--out", str(path))
        monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", 16)
        out2 = tmp_path / "big.json"
        code, _, err = run(capsys, "repeat", "--game", str(path), "--k", "2",
                           "--out", str(out2))
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("family,n,k,refused", [("gc", 1, 5, True), ("gcr", 1, 5, True),
                                                    ("gc", 2, 2, False)])
    def test_power_checked_against_cap(self, family, n, k, refused, tmp_path, capsys,
                                       monkeypatch):
        # a 1x1 game never outgrows the side cap and gcr1's referee register
        # doubles with each factor, so both are refused by k and d_C
        path = tmp_path / "game.json"
        run(capsys, "make", "--family", family, "--n", str(n), "--out", str(path))
        monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", 16)
        out = tmp_path / "power.json"
        code, stdout, err = run(capsys, "repeat", "--game", str(path), "--k", str(k),
                                "--out", str(out), "--which", "V")
        if refused:
            assert code == 1 and stdout == ""
            assert err.startswith("usage error:") and "cap 16" in err
            assert not out.exists()
        else:
            assert code == 0 and out.exists()

    def test_bad_k_checked_before_reading(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "repeat", "--game", str(tmp_path / "nope.json"),
                                "--k", "0", "--out", str(out))
        assert code == 1
        assert err.startswith("usage error:") and "--k" in err and stdout == ""
        assert not out.exists()


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

    def test_squared_rows_reach_n_max(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--suite", "parallel", "--n-max", "4",
                           "--allow-large", "--format", "csv")
        assert code == 0
        rows = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in out.splitlines()}
        assert rows["gcr^2", "4", "omega_qow"][0] == "0.152587890625"
        assert rows["gcr^2", "4", "omega_qow"][-1] == "true"
        assert rows["gcr^2", "4", "qow_parallel_repetition_gap"][-1] == "true"

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


    def test_oversized_program_exits_3(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(cli.dump_json(games.game_to_json(
            games.RankOneGame(64, 1, np.eye(64) / 64))), encoding="utf-8")
        code, out, err = run(capsys, "value", "--game", str(path), "--which", "qow")
        assert code == 3 and out == ""
        assert err.startswith("solver error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_refused_power_leaves_no_file(self, tmp_path, capsys):
        # the square of an 8 x 1 game has a pairing program of side 64^2 + 1,
        # one above the cap, which is refused after the base game is solved
        path, out_path = tmp_path / "tall.json", tmp_path / "sq.json"
        path.write_text(cli.dump_json(games.game_to_json(
            games.RankOneGame(8, 1, np.eye(8) / 8))), encoding="utf-8")
        code, out, err = run(capsys, "repeat", "--game", str(path), "--k", "2",
                             "--which", "qow", "--out", str(out_path))
        assert code == 3 and out == ""
        assert err.startswith("solver error:") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("which", ["qow", "mu"])
    def test_unchecked_multipliers_exit_3(self, which, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda problem, tol: halve_p(solve(problem, tol=tol)))
        code, out, err = run(capsys, "value", "--game", str(path), "--which", which)
        assert code == 3 and out == ""
        assert "multipliers failed validation" in err


class TestRemovedFlags:
    @pytest.mark.parametrize("command,flag", [
        ("simulate", ["--tol", "1e-7"]),
        ("simulate", ["--seed", "1"]),
        ("simulate", ["--format", "json"]),
        ("simulate", ["--dump-sdp", "x.json"]),
        ("repeat", ["--seed", "1"]),
        ("repeat", ["--format", "json"]),
        ("reproduce", ["--dump-sdp", "x.json"]),
        ("repeat", ["--side-cap", "16"]),
        ("value", ["--out", "copy.json"]),
        ("simulate", ["--out", "copy.json"]),
        ("reproduce", ["--out", "copy.json"]),
    ])
    def test_flag_is_usage_error(self, command, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a flag that is still accepted writes here
        path = tmp_path / "gc2.json"
        run(capsys, "make", "--family", "gc", "--n", "2", "--out", str(path))
        argv = {
            "value": ["--game", str(path), "--which", "V"],
            "simulate": ["--game", str(path), "--strategy", "identity"],
            "repeat": ["--game", str(path), "--k", "1", "--out", str(tmp_path / "p.json")],
            "reproduce": ["--suite", "schur"],
        }[command]
        code, _, err = run(capsys, command, *argv, *flag)
        assert code == 1
        assert "unrecognized arguments" in err


class TestTolerance:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-9"])
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


class TestSeed:
    @pytest.mark.parametrize("seed", ["-1", "x"])
    @pytest.mark.parametrize("command", ["value", "reproduce"])
    def test_invalid_seed_is_usage_error(self, command, seed, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gcr2.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr(sdp, "solve", no_solve)
        argv = {
            "value": ["--game", str(path), "--which", "bracket"],
            "reproduce": ["--suite", "all", "--n-max", "2"],
        }[command]
        code, out, err = run(capsys, command, *argv, "--seed", seed)
        assert code == 1
        assert "--seed" in err and out == ""


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

    # every entry of these files is one correctly rounded sqrt or product, so
    # the bytes do not depend on the BLAS
    @pytest.mark.parametrize("family, k, sha256", [
        pytest.param("gc", 2, "d408a2dfbe0f155ed9885a33d6e3a3ce722f6ff406256e2ceb59dcc9b3acd5b4",
                     id="gc2-k2"),
        pytest.param("gcr", 2, "4a7793f91c4d91858d106d4421e18c01f021789ec834a9b883922be4734597e1",
                     id="gcr2-k2"),
        pytest.param("gcr", 3, "c5758cd55fc303471de15f21d0dc78e2afe9434fd3780d407511f462104cbb45",
                     id="gcr2-k3"),
    ])
    def test_repeat_file_bytes_pinned(self, family, k, sha256, tmp_path, capsys):
        path, power = tmp_path / "g.json", tmp_path / "power.json"
        run(capsys, "make", "--family", family, "--n", "2", "--out", str(path))
        code, _, _ = run(capsys, "repeat", "--game", str(path), "--k", str(k),
                         "--out", str(power))
        assert code == 0
        assert hashlib.sha256(power.read_bytes()).hexdigest() == sha256

    # the power files hold exact products of dyadic entries, so they and the
    # plain reports do not depend on the BLAS; the qow reports print a
    # solver's last bits, as numpy 2.4's OpenBLAS gives them on one thread
    # (x86-64)
    @pytest.mark.parametrize("game, argv, file_sha256, out_sha256", [
        pytest.param("gcr2", ["--k", "2"],
                     "4a7793f91c4d91858d106d4421e18c01f021789ec834a9b883922be4734597e1",
                     "766ec80d16deedf380840cc0aea1d935554f20a70fbba3cb33ce57637dc5af0b",
                     id="gcr2-k2"),
        pytest.param("gcr2", ["--k", "3", "--which", "qow"],
                     "c5758cd55fc303471de15f21d0dc78e2afe9434fd3780d407511f462104cbb45",
                     "7bad92fbf3391730edb08fb95afeda5e54aac2a6006353e6523f9f6e4add5ded",
                     id="gcr2-k3-qow"),
        pytest.param("dyadic23", ["--k", "2"],
                     "6c5487e9fb76c745d46bea59922841162569c83e3b08cbf7c995e6d60451cc67",
                     "e7b06f2e1d45394ef6ef8e26e442e2a069da766f0d1964a61eb9605c211fa811",
                     id="dyadic23-k2"),
        pytest.param("dyadic23", ["--k", "3", "--which", "qow"],
                     "7a5a648875c0cf151b5e98c49c7f874d6b3732447b455f80a5a8686edfb34041",
                     "d550b449ccd077c14b8cf622ea98010a341c25c3db6898a8bae2771b5dd3d709",
                     id="dyadic23-k3-qow"),
    ])
    def test_repeat_bytes_pinned(self, game, argv, file_sha256, out_sha256, tmp_path, capsys,
                                 monkeypatch):
        monkeypatch.chdir(tmp_path)  # the report prints --out as given
        if game == "gcr2":
            run(capsys, "make", "--family", "gcr", "--n", "2", "--out", "g.json")
        else:  # a seeded complex 2x3 game with entries in (Z + iZ) / 128
            rng = np.random.default_rng(29)
            z = rng.integers(-8, 9, size=(6, 6)) + 1j * rng.integers(-8, 9, size=(6, 6))
            g = games.RankOneGame(2, 3, z / 128)
            (tmp_path / "g.json").write_text(cli.dump_json(games.game_to_json(g)) + "\n")
        code, out, _ = run(capsys, "repeat", "--game", "g.json", *argv, "--out", "power.json")
        assert code == 0
        assert hashlib.sha256((tmp_path / "power.json").read_bytes()).hexdigest() == file_sha256
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha256

    @pytest.mark.parametrize("which, sha256", [
        pytest.param("qow", "5595b2c06b3e5fe0c4f2e60af0387d6485627af4e890b6dab8b5108438c00596",
                     id="qow"),
        pytest.param("mu", "1c205241c74f38dcecba2e2e4f7ba5e9cbc225c0a6c5a29a924ce99e0cca29b5",
                     id="mu"),
    ])
    def test_dump_sdp_bytes_pinned(self, which, sha256, tmp_path, capsys):
        path, dump = tmp_path / "gcr2.json", tmp_path / "sdp.json"
        run(capsys, "make", "--family", "gcr", "--n", "2", "--out", str(path))
        code, _, _ = run(capsys, "value", "--game", str(path), "--which", which,
                         "--dump-sdp", str(dump))
        assert code == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == sha256

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
