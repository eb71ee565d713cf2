"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Desk scale: n in {2, 3} for the SDP families.
"""

import numpy as np
import pytest

from rankonegames import games, linalg as la, sdp, values
from rankonegames import strategies as st

import oracles
from conftest import random_game


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_qow_gc_is_one(sdp_cache):
    for n in (2, 3):
        got = sdp_cache("qow", "gc", n).value
        assert abs(got - 1.0) <= 1e-5, (n, got)
    report(1, "omega_qow(G_C(n)) = 1 within 1e-5 for n = 2, 3")


def test_criterion_02_gr_gap(sdp_cache):
    for n in (2, 3):
        g, _ = games.game_gr(n)
        v = values.maximal_value(g)
        assert abs(v - 1.0) <= 1e-12, (n, v)
        got = sdp_cache("qow", "gr", n).value
        assert abs(got - 1.0 / n ** 2) <= 1e-5, (n, got)
    report(2, "V(G_R) = 1 exactly and omega_qow(G_R(n)) = 1/n^2 within 1e-5")


def test_criterion_03_qow_gcr_and_parallel_repetition(sdp_cache):
    for n in (2, 3):
        got = sdp_cache("qow", "gcr", n).value
        want = 0.25 * (1.0 + 1.0 / n) ** 2
        assert abs(got - want) <= 1e-5, (n, got)
    squared = sdp_cache("qow", "gcr", 2, power=2).value
    want_sq = (1.0 / 16.0) * (1.5) ** 4
    assert abs(squared - want_sq) <= 1e-4, squared
    single = sdp_cache("qow", "gcr", 2).value
    assert abs(squared - single ** 2) <= 1e-4
    report(3, "omega_qow(G_C+R) closed forms and perfect parallel repetition at n = 2")


def test_criterion_04_grothendieck_sandwich(sdp_cache):
    for fam in ("gc", "gcr"):
        mu = sdp_cache("mu", fam, 2).value
        exact = 0.25  # known entangled value at n = 2
        assert mu ** 2 / 4.0 <= exact + 1e-9, (fam, mu)
        assert exact <= mu ** 2 + 1e-5, (fam, mu)
    report(4, "mu^2/4 <= omega* = 1/4 <= mu^2 + 1e-5 for G_C(2) and G_C+R(2)")


def test_criterion_05_parallel_repetition_failure_certificate():
    for n in range(2, 6):
        g, _ = games.game_gcr(n)
        g2 = games.game_power(g, 2)
        win = st.win_prob_entangled(g2, st.named_strategy("gcr2-swap", n))
        want = (1.0 / (4 * n ** 2)) * (1.0 + 1.0 / n) ** 2
        assert abs(win - want) <= 1e-12, (n, win)
        ratio = win / (1.0 / n ** 2) ** 2
        assert ratio >= n ** 2 / 4.0 - 1e-9, (n, ratio)
        assert abs(ratio - (n ** 2 / 4.0) * (1.0 + 1.0 / n) ** 2) <= 1e-9
    report(5, "double-swap certificate on G_C+R(n)^2 exact to 1e-12, ratio >= n^2/4, n = 2..5")


def test_criterion_06_protocol_exactness():
    for n in range(2, 6):
        g, _ = games.game_gc(n)
        assert abs(st.win_prob_oneway(g, st.named_strategy("gc-oneway-flip", n)) - 1.0) <= 1e-12
        q, _ = games.game_gcr(n)
        ident = st.identity_strategy(n, n)
        assert abs(st.win_prob_entangled(q, ident) - 1.0 / n ** 2) <= 1e-12
    report(6, "flip protocol wins G_C with probability 1; identity wins G_C+R with 1/n^2")


def test_criterion_07_multiplicativity():
    rng = np.random.default_rng(77)
    for _ in range(10):
        g = random_game(2, 2, rng.uniform(0.2, 1.0), rng)
        v1 = values.maximal_value(g)
        v2 = values.maximal_value(games.game_tensor(g, g))
        assert abs(v2 - v1 ** 2) <= 1e-10
    for seed in range(5):
        local = np.random.default_rng(500 + seed)
        g = random_game(2, 2, local.uniform(0.3, 1.0), local)
        q1 = values.qow_value(g).value
        q2 = values.qow_value(games.game_tensor(g, g)).value
        assert abs(q2 - q1 ** 2) <= 1e-4, (seed, q1, q2)
    report(7, "V multiplicative to 1e-10 on 10 games; omega_qow to 1e-4 on 5 games")


def test_criterion_08_schur_suite():
    ones = np.ones((2, 2))
    for k in range(1, 7):
        phi = games.schur_an_multiplier(k)
        assert abs(values.schur_maximal_value(phi) - 1.0) <= 1e-12, k
        witness = np.array([[1.0]])
        for _ in range(k):
            witness = np.kron(witness, ones)
        s_up = values.schur_s_upper(phi, witness * 2.0 ** (-1.5 * k))
        assert abs(s_up - 2.0 ** (-k / 2.0)) <= 1e-12, k
    for k in (1, 2):
        g, _ = games.schur_an_game(k)
        qow = values.qow_value(g).value
        assert qow <= (2.0 ** (-k / 2.0)) ** 2 + 1e-5, (k, qow)
    # the three-dimensional coherent-exchange game is recognized as Schur
    ltw = np.zeros((3, 3), dtype=complex)
    ltw[0, 0] = 0.5
    ltw[1, 1] = ltw[2, 1] = 1.0 / (2.0 * np.sqrt(2.0))
    g_ltw, _ = games.schur_game(games.SchurMatrix(3, ltw))
    rec = games.is_schur(g_ltw)
    assert rec is not None and np.max(np.abs(rec.phi - ltw)) <= 1e-12
    report(8, "V(A_k) = 1, S-upper = 2^(-k/2) for k = 1..6; qow <= S^2 at k = 1, 2; "
              "the coherent-exchange multiplier is recognized")


def test_criterion_09_structure_suite():
    rng = np.random.default_rng(9)
    for seed in range(50):
        local = np.random.default_rng(1000 + seed)
        g = random_game(2, 2, local.uniform(0.1, 1.0), local)
        p = games.purify(g)
        assert np.max(np.abs(games.from_states(p).m - g.m)) <= 1e-10

    agreements = 0
    for seed in range(30):
        local = np.random.default_rng(2000 + seed)
        if seed % 2 == 0:
            g = random_game(2, 2, 1.0, local)
            p = games.purify(g)
            u, _, vdag = np.linalg.svd(g.m)
            w = u @ vdag
            gamma = (w.conj().T @ p.psi.reshape(4, p.d_c)).reshape(-1)
            q = games.GamePurification(2, 2, p.d_c, p.psi, gamma)
        else:
            q = games.purify(random_game(2, 2, local.uniform(0.3, 0.95), local))
        predicted = games.check_maximal_value_one(q)
        actual = abs(la.trace_norm(games.from_states(q).m) - 1.0) <= 1e-8
        assert predicted == actual
        agreements += 1
    assert agreements == 30

    for seed in range(10):
        local = np.random.default_rng(3000 + seed)
        u = local.standard_normal((4, 4)) + 1j * local.standard_normal((4, 4))
        sdp_val, _ = oracles.haagerup_norm(u, 2, 2)
        bf_val, mats_a, mats_b = oracles.brute_force_haagerup(u, 2, 2, seed=seed)
        assert abs(sdp_val - bf_val) <= 1e-3 * max(1.0, sdp_val), (seed, sdp_val, bf_val)
        rec = sum(np.kron(a, b) for a, b in zip(mats_a, mats_b))
        assert np.max(np.abs(rec - u)) <= 1e-8
    report(9, "50 purification roundtrips, 30 maximal-value checks, "
              "10 block-form vs brute-force agreements")


def test_criterion_10_sdp_engine_suite():
    rng = np.random.default_rng(10)
    gaps = []
    for _ in range(8):
        c = oracles.random_hermitian(4, rng)
        lam = float(np.linalg.eigvalsh(c)[-1])
        # min t s.t. tI - C >= 0, whose dual block is a density matrix X
        # with tr(CX) = lambda_max(C)
        problem = sdp.SdpProblem(
            variables=[sdp.SdpVariable("t", 1)],
            objective={"t": np.array([[1.0]])},
            psd_constraints=[sdp.PsdConstraint(
                -c, [sdp.PsdTerm("t", e[:, None]) for e in np.eye(4)])],
        )
        sol = sdp.solve(problem, tol=1e-7)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - lam) <= 1e-7 * max(1.0, abs(lam)) * 10
        assert sol.gap <= 1e-7 * max(1.0, abs(sol.primal_value), abs(sol.dual_value))
        [x] = sol.dual_blocks
        assert np.allclose(x, x.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(x)[0] >= -1e-7
        assert abs(np.trace(x).real - 1.0) <= 1e-7
        assert abs(np.trace(c @ x).real - lam) <= 1e-7 * max(1.0, abs(lam)) * 10
        gaps.append(sol.gap)

        embedded = sdp.solve(oracles.embed_complex(problem), tol=1e-7)
        assert embedded.status == "optimal"
        assert abs(embedded.primal_value - sol.primal_value) <= 2e-7 * max(1.0, abs(lam))
    report(10, f"lambda-max oracles to 1e-7, max gap {max(gaps):.2e}, "
               "complex-embedding roundtrips to 2e-7")
