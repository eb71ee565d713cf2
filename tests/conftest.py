"""Shared fixtures: canonical games and a session cache for SDP values."""

import numpy as np
import pytest

from rankonegames import games, values


def make_canonical(family, n, power=1):
    g, p = games.FAMILIES[family](n)
    if power > 1:
        g = games.game_power(g, power)
        p = games.purification_power(p, power)
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
