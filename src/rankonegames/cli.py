"""Command-line front end: build games, compute values, simulate protocols,
and reproduce the desk-scale closed forms as machine-readable tables.

Exit codes: 0 success, 1 usage, 2 I/O, 3 solver failure, 4 reproduction
failure.  Output is deterministic for a fixed --seed: field order is fixed
and floats are printed with 17 significant digits, so identical invocations
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import games, values
from . import strategies as st
from .sdp import SdpError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SOLVER = 3
EXIT_REPRODUCE = 4

FAMILIES = ("gc", "gr", "gcr", "schur-an")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a positive finite float."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text!r}")
    return tol


# -- deterministic serialization -------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dump_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dump_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def dump_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_csv_cell(r[k]) for k in header))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# -- reproduction rows -------------------------------------------------------------

@dataclass
class ReproductionRow:
    game_id: str
    n: int
    quantity: str
    exact_value: float
    computed: float
    tolerance: float

    @property
    def abs_error(self) -> float:
        return abs(self.computed - self.exact_value)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "game": self.game_id,
            "n": self.n,
            "quantity": self.quantity,
            "exact_value": self.exact_value,
            "computed": self.computed,
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


# -- commands ------------------------------------------------------------------------

def _make_family(family: str, n: int):
    if family == "gc":
        return games.game_gc(n)
    if family == "gr":
        return games.game_gr(n)
    if family == "gcr":
        return games.game_gcr(n)
    if family == "schur-an":
        return games.schur_game(games.schur_an_multiplier(n))
    raise UsageError(f"unknown family {family!r}; choose from {FAMILIES}")


def cmd_make(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    g, p = _make_family(args.family, args.n)
    obj = games.game_to_json(g, p)
    obj["family"] = args.family
    obj["n"] = args.n
    text = dump_json(obj)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return EXIT_OK


def _load_game(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IOError(f"cannot read game file {path}: {exc}") from exc
    g, p = games.game_from_json(obj)
    return g, p, obj


def _dump_sdp(path: str, problem) -> None:
    """Write the program about to be solved as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem.to_json(), fh)


def cmd_value(args) -> int:
    if args.seesaw_restarts < 1:
        raise UsageError("--seesaw-restarts must be at least 1")
    if args.dump_sdp and args.which not in ("qow", "mu"):
        raise UsageError("--dump-sdp needs --which qow or mu")
    g, p, _ = _load_game(args.game)
    tol = args.tol
    report = {"game": args.game, "which": args.which, "tol": tol}
    if args.which == "V":
        report["value"] = values.maximal_value(g)
    elif args.which == "qow":
        if args.dump_sdp:
            _dump_sdp(args.dump_sdp, values.haagerup_pairing_program(g))
        res = values.qow_value(g, tol=tol)
        report["value"] = res.value
        report["bound"] = res.bound
        report["solver"] = {"iterations": res.solution.iterations, "gap": res.solution.gap}
    elif args.which == "mu":
        if args.dump_sdp:
            _dump_sdp(args.dump_sdp, values.mu_pairing_program(g))
        res = values.mu_norm(g, tol=tol)
        report["value"] = res.value
        report["bound"] = res.bound
        report["solver"] = {"iterations": res.solution.iterations, "gap": res.solution.gap}
    else:  # bracket
        cfg = values.SeesawConfig(restarts=args.seesaw_restarts, seed=args.seed)
        rep = values.entangled_value_bounds(g, tol=tol, seesaw_cfg=cfg)
        report.update(rep.to_json())
    if args.format == "csv":
        flat = {k: v for k, v in report.items() if not isinstance(v, dict)}
        _write_output(dump_csv([flat]), args.out)
    else:
        _write_output(dump_json(report), args.out)
    return EXIT_OK


def _strategy_for(args, g):
    name = args.strategy
    if name == "identity":
        d_ap, d_bp = 1, 1
        if args.ancilla:
            try:
                d_ap, d_bp = (int(x) for x in args.ancilla.split(","))
            except ValueError as exc:
                raise UsageError("--ancilla expects two integers a,b") from exc
        phi = np.zeros(d_ap * d_bp, dtype=complex)
        phi[0] = 1.0
        return st.EntangledStrategy(d_ap, d_bp, np.eye(g.d_a * d_ap, dtype=complex),
                                    np.eye(g.d_b * d_bp, dtype=complex), phi)
    if name in ("gc-oneway-flip", "gcr-oneway"):
        return st.named_strategy(name, g.d_a)
    if name == "gcr2-swap":
        root = int(round(np.sqrt(g.d_a)))
        if root * root != g.d_a:
            raise UsageError("gcr2-swap needs a squared game (dA a perfect square)")
        return st.named_strategy(name, root)
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return st.strategy_from_json(json.load(fh))
    except OSError as exc:
        raise IOError(f"strategy {name!r} is neither a known name nor a readable file "
                      f"({exc})") from exc


def cmd_simulate(args) -> int:
    g, p, _ = _load_game(args.game)
    if p is None:
        p = games.purify(g)
    s = _strategy_for(args, g)
    if isinstance(s, st.EntangledStrategy):
        w = st.win_prob_entangled(p, s)
    else:
        w = st.win_prob_oneway(p, s)
    report = {"game": args.game, "strategy_name": args.strategy, "win_prob": w,
              "strategy": st.strategy_to_json(s)}
    _write_output(dump_json(report), args.out)
    return EXIT_OK


def cmd_repeat(args) -> int:
    if args.dump_sdp and args.which != "qow":
        raise UsageError("--dump-sdp needs --which qow")
    g, p, obj = _load_game(args.game)
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    try:
        gk = games.game_power(g, args.k, side_cap=args.side_cap)
    except games.GameError as exc:
        raise UsageError(str(exc)) from exc
    pk = games.purification_power(p, args.k) if p is not None else None
    out_obj = games.game_to_json(gk, pk)
    if "family" in obj:
        out_obj["family"] = obj["family"]
        out_obj["n"] = obj.get("n")
    out_obj["power"] = args.k
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dump_json(out_obj) + "\n")
    report = {"out": args.out, "dA": gk.d_a, "dB": gk.d_b, "k": args.k}
    if args.which == "V":
        report["value"] = values.maximal_value(gk)
    elif args.which == "qow":
        if args.dump_sdp:
            _dump_sdp(args.dump_sdp, values.haagerup_pairing_program(gk))
        res = values.qow_value(gk, tol=args.tol)
        report["value"] = res.value
        report["bound"] = res.bound
    if args.which:
        report["which"] = args.which
    sys.stdout.write(dump_json(report) + "\n")
    return EXIT_OK


# -- reproduction suites ---------------------------------------------------------------

def _rows_gaps(n_max: int, tol: float) -> list[ReproductionRow]:
    rows = []
    for n in range(2, n_max + 1):
        gc, _ = games.game_gc(n)
        gr, _ = games.game_gr(n)
        rows.append(ReproductionRow("gc", n, "V", 1.0, values.maximal_value(gc), 1e-9))
        rows.append(ReproductionRow(
            "gc", n, "omega_qow", 1.0, values.qow_value(gc, tol=tol).value, 1e-5))
        rows.append(ReproductionRow("gr", n, "V", 1.0, values.maximal_value(gr), 1e-9))
        qow_gr = values.qow_value(gr, tol=tol).value
        rows.append(ReproductionRow("gr", n, "omega_qow", 1.0 / n ** 2, qow_gr, 1e-5))
        rows.append(ReproductionRow(
            "gr", n, "V_over_qow", float(n ** 2), values.maximal_value(gr) / qow_gr, 1e-2))
        mu_gc = values.mu_norm(gc, tol=tol)
        mu_lo = min(mu_gc.value, mu_gc.bound)
        mu_ub = max(mu_gc.value, mu_gc.bound)
        exact = 1.0 / n ** 2
        # Grothendieck bracket must contain the known entangled value
        rows.append(ReproductionRow(
            "gc", n, "omega_star_bracket_deficit", 0.0,
            max(0.0, mu_lo ** 2 / 4.0 - exact) + max(0.0, exact - mu_ub ** 2), 1e-5))
    return rows


def _rows_parallel(n_max: int, tol: float, seed: int) -> list[ReproductionRow]:
    rows = []
    for n in range(2, n_max + 1):
        g, p = games.game_gcr(n)
        qow = values.qow_value(g, tol=tol).value
        closed = 0.25 * (1.0 + 1.0 / n) ** 2
        rows.append(ReproductionRow("gcr", n, "omega_qow", closed, qow, 1e-5))
        rows.append(ReproductionRow(
            "gcr", n, "win_identity", 1.0 / n ** 2,
            st.win_prob_entangled(p, st.EntangledStrategy(
                1, 1, np.eye(n, dtype=complex), np.eye(n, dtype=complex),
                np.array([1.0 + 0j]))), 1e-12))
        rows.append(ReproductionRow(
            "gcr", n, "win_oneway_flip", closed,
            st.win_prob_oneway(p, st.named_strategy("gcr-oneway", n)), 1e-12))
        p2 = games.tensor_purifications(p, p)
        swap_win = st.win_prob_entangled(p2, st.named_strategy("gcr2-swap", n))
        omega2 = (1.0 / (4 * n ** 2)) * (1.0 + 1.0 / n) ** 2
        rows.append(ReproductionRow("gcr^2", n, "win_double_swap", omega2, swap_win, 1e-12))
        ratio = swap_win / (1.0 / n ** 2) ** 2
        rows.append(ReproductionRow(
            "gcr^2", n, "pr_failure_ratio", (n ** 2 / 4.0) * (1.0 + 1.0 / n) ** 2,
            ratio, 1e-9))
        rows.append(ReproductionRow(
            "gcr^2", n, "pr_ratio_deficit_vs_quarter_n2", 0.0,
            max(0.0, n ** 2 / 4.0 - ratio), 1e-12))
        g2 = games.game_power(g, 2)
        res = st.seesaw_lower_bound(g2, 1, 1, restarts=8, iters=120, seed=seed)
        rows.append(ReproductionRow(
            "gcr^2", n, "seesaw_lower_deficit", 0.0,
            max(0.0, omega2 - res.value), 1e-6))
        if n <= 3:
            # the squared-game program has block side 2 n^4: 162 at n = 3
            # (about 0.6 s) and 512 at n = 4 (about 12 s at 180 MB peak), so these
            # rows stop at n = 3 to keep the table quick; the exact protocol
            # rows above still certify the failure at every n
            qow2 = values.qow_value(g2, tol=tol).value
            rows.append(ReproductionRow(
                "gcr^2", n, "omega_qow", (closed) ** 2, qow2, 1e-4))
            rows.append(ReproductionRow(
                "gcr^2", n, "qow_parallel_repetition_gap", 0.0, abs(qow2 - qow ** 2), 1e-4))
    return rows


def _rows_schur(tol: float, seed: int) -> list[ReproductionRow]:
    rows = []
    ones = np.ones((2, 2))
    for k in range(1, 7):
        phi = games.schur_an_multiplier(k)
        rows.append(ReproductionRow(
            "schur-an", k, "V", 1.0, values.schur_maximal_value(phi), 1e-12))
        witness = np.array([[1.0]])
        for _ in range(k):
            witness = np.kron(witness, ones)
        witness = witness * 2.0 ** (-1.5 * k)
        rows.append(ReproductionRow(
            "schur-an", k, "S_upper_flat_witness", 2.0 ** (-k / 2.0),
            values.schur_s_upper(phi, witness), 1e-12))
    for k in (1, 2):
        phi = games.schur_an_multiplier(k)
        rep = values.schur_equivalence_check(phi, sdp_tol=tol, seed=seed)
        rows.append(ReproductionRow(
            "schur-an", k, "qow_minus_S_squared_deficit", 0.0,
            max(0.0, min(rep.qow, rep.qow_bound) - rep.s_upper ** 2), 1e-5))
    ltw = np.zeros((3, 3), dtype=complex)
    ltw[0, 0] = 0.5
    ltw[1, 1] = ltw[2, 1] = 1.0 / (2.0 * np.sqrt(2.0))
    g_ltw, _ = games.schur_game(games.SchurMatrix(3, ltw))
    recognized = games.is_schur(g_ltw)
    rows.append(ReproductionRow(
        "ltw", 3, "is_schur_recognized", 1.0, 1.0 if recognized is not None else 0.0, 0.0))
    if recognized is not None:
        rows.append(ReproductionRow(
            "ltw", 3, "multiplier_max_abs_error", 0.0,
            float(np.max(np.abs(recognized.phi - ltw))), 1e-10))
    return rows


def cmd_reproduce(args) -> int:
    if args.n_max > 3 and not args.allow_large:
        raise UsageError("--n-max above 3 needs --allow-large")
    if args.n_max < 2 and args.suite != "schur":
        raise UsageError(f"--n-max must be at least 2 for suite {args.suite!r}")
    rows: list[ReproductionRow] = []
    if args.suite in ("gaps", "all"):
        rows.extend(_rows_gaps(args.n_max, args.tol))
    if args.suite in ("parallel", "all"):
        rows.extend(_rows_parallel(args.n_max, args.tol, args.seed))
    if args.suite in ("schur", "all"):
        rows.extend(_rows_schur(args.tol, args.seed))
    dicts = [r.as_dict() for r in rows]
    if args.format == "csv":
        _write_output(dump_csv(dicts), args.out)
    else:
        _write_output(dump_json(dicts), args.out)
    if not all(r.passed for r in rows):
        return EXIT_REPRODUCE
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="game", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_tolerance, default=1e-7,
                       help="SDP duality-gap tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="also write the report to this path")

    p_make = sub.add_parser("make", help="write a canonical game file")
    p_make.add_argument("--family", required=True, choices=FAMILIES)
    p_make.add_argument("--n", type=int, required=True)
    p_make.add_argument("--out", required=True)
    p_make.set_defaults(func=cmd_make)

    p_value = sub.add_parser("value", help="compute a value of a game file")
    p_value.add_argument("--game", required=True)
    p_value.add_argument("--which", required=True, choices=("V", "qow", "mu", "bracket"))
    p_value.add_argument("--seesaw-restarts", type=int, default=20)
    common(p_value)
    p_value.add_argument("--dump-sdp", dest="dump_sdp", default=None,
                         help="write the SDP of --which qow or mu to this path as JSON")
    p_value.set_defaults(func=cmd_value)

    p_sim = sub.add_parser("simulate", help="evaluate a strategy against a game")
    p_sim.add_argument("--game", required=True)
    p_sim.add_argument("--strategy", required=True,
                       help="named protocol (%s) or a strategy JSON file"
                            % "|".join(st.NAMED_STRATEGIES))
    p_sim.add_argument("--ancilla", default=None, help="a,b ancilla dimensions")
    p_sim.add_argument("--out", default=None, help="also write the report to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("repeat", help="tensor-power a game file")
    p_rep.add_argument("--game", required=True)
    p_rep.add_argument("--k", type=int, required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--which", default=None, choices=("V", "qow"),
                       help="also compute V or qow on the power")
    p_rep.add_argument("--side-cap", type=int, default=games.DEFAULT_SIDE_CAP)
    p_rep.add_argument("--tol", type=_tolerance, default=1e-7)
    p_rep.add_argument("--dump-sdp", dest="dump_sdp", default=None,
                       help="write the SDP of --which qow to this path as JSON")
    p_rep.set_defaults(func=cmd_repeat)

    p_repro = sub.add_parser("reproduce", help="reproduce the published closed forms")
    p_repro.add_argument("--suite", required=True, choices=("gaps", "parallel", "schur", "all"))
    p_repro.add_argument("--n-max", dest="n_max", type=int, default=3)
    p_repro.add_argument("--allow-large", action="store_true",
                         help="allow --n-max above 3 (squared-game SDP rows stop at n=3)")
    common(p_repro)
    p_repro.set_defaults(func=cmd_reproduce)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process: parsing keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (IOError, OSError, games.GameError, st.StrategyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except (values.CalculationError, SdpError) as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
