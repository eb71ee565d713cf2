"""The benchmark's workloads: seeded game files, the commands run on them,
and the check each command's output must pass.

Every operation is one in-process call of ``rankonegames.cli.main``.  A
workload's ``setup`` writes its input files into a work directory and
returns the fixed batch of operations; the batch is the same for a given
seed.  A check returns ``None`` when the output is correct and a message
otherwise.  Checks run in batch order and share a per-pass ``ctx`` dict,
which carries the factor values that the multiplicativity checks compare
against and the bracket widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rankonegames import cli, games

TOL = 1e-7
# the SDP tolerance is on the pairing optimum; squared values are quoted to this
VALUE_TOL = 1e-4
CANONICAL = ("gc", "gr", "gcr")


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[object, dict], str | None]


def _random_game(d: int, rng: np.random.Generator) -> games.RankOneGame:
    """A complex game on C^d (x) C^d with Gaussian entries and trace norm one."""
    side = d * d
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m /= np.sum(np.linalg.svd(m, compute_uv=False))
    return games.RankOneGame(d, d, m)


def _write_game(path: Path, g: games.RankOneGame) -> str:
    path.write_text(cli.dump_json(games.game_to_json(g)) + "\n", encoding="utf-8")
    return str(path)


def _make_canonical(work: Path, family: str, n: int) -> str:
    path = str(work / f"{family}{n}.json")
    rc = cli.main(["make", "--family", family, "--n", str(n), "--out", path])
    if rc != 0:
        raise RuntimeError(f"game make --family {family} --n {n} exited {rc}")
    return path


def warmup_op(work: Path) -> Op:
    """A small solve that loads every module the batch uses; its output is not
    checked, because set-up only has to run it."""
    path = _make_canonical(work, "gc", 2)
    return Op("warmup", ["value", "--game", path, "--which", "qow", "--tol", str(TOL)],
              lambda out, ctx: None)


def _check_sdp_sides(out, ctx) -> str | None:
    if not out["bound"] >= out["value"] - TOL:
        return f"bound {out['bound']!r} below value {out['value']!r} - tol"
    return None


# -- repeat-qow ---------------------------------------------------------------------

SQUARED_QOW = {"gcr2": (9.0 / 16.0) ** 2, "gc2": 1.0, "gr2": 1.0 / 16.0}
REPEAT_RANDOM_GAMES = 1


def _check_square_exact(exact: float):
    def check(out, ctx):
        if abs(out["value"] - exact) > VALUE_TOL:
            return f"qow of the square {out['value']!r}, expected {exact!r}"
        return _check_sdp_sides(out, ctx)
    return check


def _check_factor(key: str):
    def check(out, ctx):
        ctx[key] = out["value"]
        return _check_sdp_sides(out, ctx)
    return check


def _check_square_multiplicative(key: str):
    def check(out, ctx):
        if key not in ctx:
            return f"factor {key} was not valued before its square"
        if abs(out["value"] - ctx[key] ** 2) > VALUE_TOL:
            return f"qow of the square {out['value']!r} != factor squared {ctx[key] ** 2!r}"
        return _check_sdp_sides(out, ctx)
    return check


def setup_repeat_qow(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []

    def repeat(name, path, check):
        ops.append(Op(f"repeat {name}", [
            "repeat", "--game", path, "--k", "2", "--which", "qow", "--tol", str(TOL),
            "--out", str(work / f"{name}-sq.json")], check))

    for family in ("gcr", "gc", "gr"):
        name = f"{family}2"
        repeat(name, _make_canonical(work, family, 2), _check_square_exact(SQUARED_QOW[name]))
    for i in range(REPEAT_RANDOM_GAMES):
        name = f"rand2-{i}"
        path = _write_game(work / f"{name}.json", _random_game(2, rng))
        ops.append(Op(f"value {name}", ["value", "--game", path, "--which", "qow",
                                        "--tol", str(TOL)], _check_factor(name)))
        repeat(name, path, _check_square_multiplicative(name))
    return ops


# -- bracket ------------------------------------------------------------------------

BRACKET_RANDOM_2X2 = 12
BRACKET_RANDOM_3X3 = 3
# omega* of gc_2, gr_2 and gcr_2
CANONICAL_OMEGA_STAR = 0.25


def _check_bracket(contains: float | None):
    def check(out, ctx):
        lo, up = out["omega_star_lower"], out["omega_star_upper"]
        ctx.setdefault("widths", []).append(up - lo)
        if not lo <= up:
            return f"bracket lower {lo!r} above upper {up!r}"
        if not up <= out["V"]:
            return f"bracket upper {up!r} above V {out['V']!r}"
        if not out["identity_value"] <= lo:
            return f"identity value {out['identity_value']!r} above lower {lo!r}"
        if contains is not None and not (lo <= contains + TOL and contains - TOL <= up):
            return f"bracket [{lo!r}, {up!r}] misses {contains!r}"
        return None
    return check


def setup_bracket(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    targets = [(f"{f}2", _make_canonical(work, f, 2), CANONICAL_OMEGA_STAR) for f in CANONICAL]
    for d, count in ((2, BRACKET_RANDOM_2X2), (3, BRACKET_RANDOM_3X3)):
        for i in range(count):
            name = f"rand{d}-{i}"
            targets.append((name, _write_game(work / f"{name}.json", _random_game(d, rng)), None))
    cli_seed = str(seed % 2 ** 31)
    return [Op(f"bracket {name}", ["value", "--game", path, "--which", "bracket",
                                   "--tol", str(TOL), "--seed", cli_seed],
               _check_bracket(contains))
            for name, path, contains in targets]


WORKLOADS = {
    "repeat-qow": setup_repeat_qow,
    "bracket": setup_bracket,
}
