import numpy as np
import pytest

from rankonegames import games, linalg as la, strategies as st

import oracles
from conftest import random_game


def identity_strategy(d_a, d_b):
    return st.identity_strategy(d_a, d_b)


class TestWinProbEntangled:
    def test_identity_on_equal_states(self):
        _, p = games.game_gc(2)
        q = games.GamePurification(p.d_a, p.d_b, p.d_c, p.psi, p.psi)
        w = st.win_prob_entangled(games.from_states(q), identity_strategy(2, 2))
        assert w == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_identity_on_gcr(self, n):
        g, _ = games.game_gcr(n)
        w = st.win_prob_entangled(g, identity_strategy(n, n))
        assert w == pytest.approx(1.0 / n ** 2, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_double_swap_on_squared_gcr(self, n):
        g, _ = games.game_gcr(n)
        g2 = games.game_power(g, 2)
        s = st.named_strategy("gcr2-swap", n)
        w = st.win_prob_entangled(g2, s)
        expected = (1.0 / (4 * n ** 2)) * (1.0 + 1.0 / n) ** 2
        assert w == pytest.approx(expected, abs=1e-12)

    def test_identity_equals_overlap(self):
        rng = np.random.default_rng(0)
        g = games.RankOneGame(2, 2, _random_budget_matrix(rng))
        p = games.purify(g)
        w = st.win_prob_entangled(g, identity_strategy(2, 2))
        assert w == pytest.approx(abs(np.vdot(p.gamma, p.psi)) ** 2, abs=1e-12)

    def test_phase_invariance(self):
        g, p = games.game_gcr(2)
        s = identity_strategy(2, 2)
        w0 = st.win_prob_entangled(g, s)
        q = games.GamePurification(p.d_a, p.d_b, p.d_c,
                                   np.exp(1j * 0.7) * p.psi, np.exp(-1j * 0.3) * p.gamma)
        s_phase = st.EntangledStrategy(1, 1, s.u, s.v, np.exp(1j * 1.1) * s.phi)
        assert st.win_prob_entangled(games.from_states(q), s_phase) == pytest.approx(w0, abs=1e-12)

    def test_range_and_unitarity_check(self):
        g, _ = games.game_gc(2)
        with pytest.raises(st.StrategyError):
            st.win_prob_entangled(g, st.EntangledStrategy(
                1, 1, 2.0 * np.eye(2), np.eye(2), np.array([1.0 + 0j])))

    def test_accepted_ceiling_is_the_slack_squared(self):
        # a valid game's trace norm reaches 1 + TRACE_NORM_SLACK, and valid
        # play wins with up to its square; the value is clamped
        edge = np.array([np.sqrt(1.0 + 1.9e-9)])
        assert st._accepted(edge) == 1.0 + st.PROB_SLACK
        with pytest.raises(st.StrategyError, match="exceeds one"):
            st._accepted(np.array([np.sqrt(1.0 + 1e-6)]))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_strategies_within_unit(self, seed):
        rng = np.random.default_rng(seed)
        g, _ = games.game_gcr(2)
        s = st.EntangledStrategy(2, 2, la.random_unitary(4, rng), la.random_unitary(4, rng),
                                 _random_unit(4, rng))
        w = st.win_prob_entangled(g, s)
        assert -1e-15 <= w <= 1.0 + 1e-12


class TestWinProbOneway:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flip_protocol_wins_gc(self, n):
        g, _ = games.game_gc(n)
        s = st.named_strategy("gc-oneway-flip", n)
        assert st.win_prob_oneway(g, s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gcr_oneway_protocol(self, n):
        g, _ = games.game_gcr(n)
        s = st.named_strategy("gcr-oneway", n)
        expected = 0.25 * (1.0 + 1.0 / n) ** 2
        assert st.win_prob_oneway(g, s) == pytest.approx(expected, abs=1e-12)

    def test_identity_oneway_on_equal_states(self):
        _, p = games.game_gc(2)
        q = games.GamePurification(p.d_a, p.d_b, p.d_c, p.psi, p.psi)
        s = st.OneWayStrategy(1, np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert st.win_prob_oneway(games.from_states(q), s) == pytest.approx(1.0, abs=1e-12)

    def test_phase_invariance(self):
        g, p = games.game_gcr(3)
        s = st.named_strategy("gcr-oneway", 3)
        w0 = st.win_prob_oneway(g, s)
        q = games.GamePurification(p.d_a, p.d_b, p.d_c,
                                   np.exp(1j * 0.4) * p.psi, np.exp(1j * 2.2) * p.gamma)
        assert st.win_prob_oneway(games.from_states(q), s) == pytest.approx(w0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(st.StrategyError):
            st.named_strategy("not-a-protocol", 2)


def second_route_case(case):
    """(game, purification) of one kind: purify(g), a canonical family's own
    purification, or purify(g) rotated by a random unitary on C."""
    kind, dims = case.split("-")
    if kind == "family":
        return {"gc3": games.game_gc(3), "gr2": games.game_gr(2), "gcr3": games.game_gcr(3),
                "schur": games.schur_game(games.schur_an_multiplier(1))}[dims]
    d_a, d_b = (int(d) for d in dims.split("x"))
    rng = np.random.default_rng(100 * d_a + d_b)
    g = random_game(d_a, d_b, rng.uniform(0.3, 1.0), rng)
    p = games.purify(g)
    if kind == "rotated":
        w = la.random_unitary(p.d_c, rng)
        psi, gamma = ((x.reshape(-1, p.d_c) @ w.T).reshape(-1) for x in (p.psi, p.gamma))
        p = games.GamePurification(d_a, d_b, p.d_c, psi, gamma)
    return g, p


class TestSecondRoute:
    # the package contracts M; the oracle plays on (psi, gamma) and projects onto gamma
    @pytest.mark.parametrize("d_ap", [1, 2, 3])
    @pytest.mark.parametrize("case", [
        "purify-2x2", "purify-2x3", "purify-3x2", "rotated-2x3", "rotated-3x3",
        "family-gc3", "family-gr2", "family-gcr3", "family-schur"])
    def test_matches_purification_route(self, case, d_ap):
        g, p = second_route_case(case)
        rng = np.random.default_rng(d_ap)
        d_bp = 4 - d_ap
        s = st.EntangledStrategy(d_ap, d_bp, la.random_unitary(g.d_a * d_ap, rng),
                                 la.random_unitary(g.d_b * d_bp, rng),
                                 _random_unit(d_ap * d_bp, rng))
        assert abs(st.win_prob_entangled(g, s) - oracles.win_prob_entangled(p, s)) <= 1e-13
        t = st.OneWayStrategy(d_ap, la.random_unitary(g.d_a * d_ap, rng),
                              la.random_unitary(g.d_b * d_ap, rng))
        assert abs(st.win_prob_oneway(g, t) - oracles.win_prob_oneway(p, t)) <= 1e-13


class TestSeesaw:
    def test_product_game_converges_to_one(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        g = games.RankOneGame(2, 2, m)
        res = st.seesaw_lower_bound(g, restarts=3, iters=60, seed=1)
        assert res.value >= 1.0 - 1e-9

    def test_gc2_reaches_quarter(self):
        g, _ = games.game_gc(2)
        res = st.seesaw_lower_bound(g, 2, 2, restarts=5, iters=80, seed=2)
        assert res.value >= 0.25 - 1e-6

    def test_gcr2_squared_with_trivial_ancilla(self):
        g, _ = games.game_gcr(2)
        g2 = games.game_power(g, 2)
        res = st.seesaw_lower_bound(g2, 1, 1, restarts=8, iters=120, seed=3)
        assert res.value >= (1.0 / 16.0) * 1.5 ** 2 - 1e-6

    def test_monotone_trace_and_reeval(self):
        g, _ = games.game_gcr(2)
        res = st.seesaw_lower_bound(g, 2, 2, restarts=2, iters=60, seed=4)
        trace = res.trace
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-10
        assert res.value >= trace[-1] - 1e-10

    def test_seeded_determinism(self):
        g, _ = games.game_gcr(2)
        r1 = st.seesaw_lower_bound(g, 2, 2, restarts=3, iters=40, seed=5)
        r2 = st.seesaw_lower_bound(g, 2, 2, restarts=3, iters=40, seed=5)
        assert r1.value == r2.value
        assert np.array_equal(r1.strategy.u, r2.strategy.u)


def reference_restart(g, d_ap, d_bp, u, v, iters):
    """One see-saw restart from (u, v), run alone with unstacked einsums: the
    loop that seesaw_lower_bound advances for all restarts at once.  Returns
    the exact value of the strategy it stops at."""
    m4 = g.m.reshape(g.d_a, g.d_b, g.d_a, g.d_b)
    trace = []
    for _ in range(iters):
        u4 = u.reshape(g.d_a, d_ap, g.d_a, d_ap)
        v4 = v.reshape(g.d_b, d_bp, g.d_b, d_bp)
        w = np.einsum("abcd,cuav,dwbz->uwvz", m4, u4, v4).reshape(d_ap * d_bp, d_ap * d_bp)
        wl, _, wr = np.linalg.svd(w)
        y, x = wl[:, 0], wr[0, :].conj()
        yg, xg = y.reshape(d_ap, d_bp).conj(), x.reshape(d_ap, d_bp)
        ku = np.einsum("abcd,dwbz,uw,vz->cuav", m4, v4, yg, xg)
        u, _ = la.polar_maximizer(ku.reshape(g.d_a * d_ap, g.d_a * d_ap).T)
        u4 = u.reshape(g.d_a, d_ap, g.d_a, d_ap)
        kv = np.einsum("abcd,cuav,uw,vz->dwbz", m4, u4, yg, xg)
        v, val = la.polar_maximizer(kv.reshape(g.d_b * d_bp, g.d_b * d_bp).T)
        trace.append(val ** 2)
        if len(trace) > 10 and trace[-1] - trace[-11] <= 1e-9 * max(1.0, abs(trace[-1])):
            break
    strat = st.EntangledStrategy(d_ap, d_bp, u, v, x / np.linalg.norm(x))
    return st.win_prob_entangled(g, strat)


def reference_best(g, d_ap, d_bp, restarts, seed, iters):
    rng = np.random.default_rng(seed)
    best = -np.inf
    for r in range(restarts):
        if r == 0:
            u = np.eye(g.d_a * d_ap, dtype=complex)
            v = np.eye(g.d_b * d_bp, dtype=complex)
        else:
            u = la.random_unitary(g.d_a * d_ap, rng)
            v = la.random_unitary(g.d_b * d_bp, rng)
        best = max(best, reference_restart(g, d_ap, d_bp, u, v, iters))
    return best


def seesaw_case(case):
    if case == "gcr2^2":
        return games.game_power(games.game_gcr(2)[0], 2), 1, 1
    d = 3 if case == "rand3" else 2
    return random_game(d, d, 1.0, np.random.default_rng(17)), d, d


class TestSeesawBatch:
    # three iterations stop every restart short of its optimum, so the value
    # depends on the starts; 200 lets each stop by its own window
    @pytest.mark.parametrize("iters", [3, 200])
    @pytest.mark.parametrize("case", ["rand2", "rand3", "gcr2^2"])
    def test_matches_sequential_reference(self, case, iters):
        g, d_ap, d_bp = seesaw_case(case)
        res = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=6, iters=iters, seed=11)
        expected = reference_best(g, d_ap, d_bp, 6, 11, iters)
        assert res.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("case", ["rand2", "rand3"])
    def test_more_restarts_extend_the_same_starts(self, case):
        g, d_ap, d_bp = seesaw_case(case)
        few = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=5, seed=23)
        many = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=20, seed=23)
        assert many.value >= few.value - 1e-12

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -2}, {"iters": 0}])
    def test_rejects_non_positive_counts(self, kwargs):
        g, _ = games.game_gcr(2)
        with pytest.raises(st.StrategyError):
            st.seesaw_lower_bound(g, **kwargs)


def assert_same_result(a, b):
    assert (a.value, a.restart_index, a.trace, a.converged, a.restarts_run) == \
        (b.value, b.restart_index, b.trace, b.converged, b.restarts_run)
    assert (a.strategy.d_ap, a.strategy.d_bp) == (b.strategy.d_ap, b.strategy.d_bp)
    for name in ("u", "v", "phi"):
        assert np.array_equal(getattr(a.strategy, name), getattr(b.strategy, name))


class TestSeesawTarget:
    # below = 0 puts the target at restart 0's own value, which meets it
    @pytest.mark.parametrize("below", [0.0, 0.1])
    @pytest.mark.parametrize("case", ["rand2", "gcr2^2"])
    def test_target_met_by_restart_zero_stops(self, case, below):
        g, d_ap, d_bp = seesaw_case(case)
        alone = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=1, seed=7)
        res = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=20, seed=7,
                                    target=alone.value - below)
        assert res.restarts_run == 1
        assert_same_result(res, alone)

    @pytest.mark.parametrize("case", ["rand2", "rand3"])
    def test_unreachable_target_runs_every_restart(self, case):
        g, d_ap, d_bp = seesaw_case(case)
        above_v = la.trace_norm(g.m) ** 2 + 0.1
        res = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=6, seed=7, target=above_v)
        plain = st.seesaw_lower_bound(g, d_ap, d_bp, restarts=6, seed=7)
        assert res.restarts_run == plain.restarts_run == 6
        assert_same_result(res, plain)

    def test_negative_seed_rejected(self):
        g, _ = games.game_gcr(2)
        with pytest.raises(st.StrategyError, match="seed"):
            st.seesaw_lower_bound(g, restarts=1, seed=-1)


class TestStrategyJson:
    def test_roundtrip_entangled(self):
        s = st.named_strategy("gcr2-swap", 2)
        back = st.strategy_from_json(st.strategy_to_json(s))
        assert isinstance(back, st.EntangledStrategy)
        assert np.array_equal(back.u, np.asarray(s.u, dtype=complex))

    def test_roundtrip_oneway(self):
        s = st.named_strategy("gc-oneway-flip", 3)
        back = st.strategy_from_json(st.strategy_to_json(s))
        assert isinstance(back, st.OneWayStrategy)
        assert np.array_equal(back.v, np.asarray(s.v, dtype=complex))


def _random_budget_matrix(rng, side=4, tn=0.8):
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return tn * m / la.trace_norm(m)


def _random_unit(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
