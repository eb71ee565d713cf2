"""Shared fixtures: canonical games and a session cache for SDP values."""

import numpy as np
import pytest

from rankonegames import games, values


def make_canonical(family, n, power=1):
    if family == "gc":
        g, p = games.game_gc(n)
    elif family == "gr":
        g, p = games.game_gr(n)
    elif family == "gcr":
        g, p = games.game_gcr(n)
    elif family == "schur-an":
        _, g = games.schur_an_game(n)
        p = None
    else:
        raise ValueError(family)
    if power > 1:
        g = games.game_power(g, power)
        p = games.purification_power(p, power) if p is not None else None
    return g, p


@pytest.fixture(scope="session")
def sdp_cache():
    """Memoized qow/mu results for canonical games, keyed by family spec."""
    cache = {}

    def get(kind, family, n, power=1, tol=1e-7):
        key = (kind, family, n, power, tol)
        if key not in cache:
            g, _ = make_canonical(family, n, power)
            fn = values.qow_value if kind == "qow" else values.mu_norm
            cache[key] = fn(g, tol=tol)
        return cache[key]

    return get


def random_game(d_a, d_b, trace_norm, rng):
    side = d_a * d_b
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m *= trace_norm / np.sum(np.linalg.svd(m, compute_uv=False))
    return games.RankOneGame(d_a, d_b, m)


def halve_p(sol):
    """The solution with every P multiplier halved and its status kept."""
    sol.assignments = {name: x / 2 if name.startswith("P") else x
                       for name, x in sol.assignments.items()}
    return sol
