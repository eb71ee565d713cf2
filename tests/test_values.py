import tracemalloc
from functools import reduce

import numpy as np
import pytest

from rankonegames import games, linalg as la, sdp, values
from rankonegames.strategies import seesaw_lower_bound, win_prob_entangled

import oracles
from conftest import halve_p, make_canonical, random_game


class TestMaximalValue:
    @pytest.mark.parametrize("n", [2, 3])
    def test_gr_is_one(self, n):
        g, _ = games.game_gr(n)
        assert values.maximal_value(g) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gcr_is_one(self, n):
        g, _ = games.game_gcr(n)
        assert values.maximal_value(g) == pytest.approx(1.0, abs=1e-12)

    def test_zero_game(self):
        g = games.RankOneGame(2, 2, np.zeros((4, 4)))
        assert values.maximal_value(g) == 0.0


class TestPairingObjective:
    def test_matches_bilinear_pairing(self):
        # tr(C Z) must equal Re <R(M), Z_12> on random Hermitian Z
        rng = np.random.default_rng(0)
        g = random_game(2, 3, 0.9, rng)
        rm = la.realign(g.m, 2, 3)
        c = values._pairing_objective(rm, 2, 3)
        assert np.allclose(c, c.conj().T)
        s = 4 + 9
        for _ in range(5):
            z = oracles.random_hermitian(s, rng)
            expected = np.real(np.sum(rm * z[:4, 4:]))
            assert np.trace(c @ z).real == pytest.approx(expected, abs=1e-12)


def assignment_traces(sol):
    """Sum of Re tr over the returned assignments: the pairing programs'
    objective, whose coefficients are identities (K, off-diagonal, adds 0)."""
    return sum(float(np.trace(x).real) for x in sol.assignments.values())


class TestAcceptance:
    def test_oversized_program_refused_before_allocating(self):
        # side 64^2 + 1 = 4097: the dense block alone would take 268 MB
        g = games.RankOneGame(64, 1, np.eye(64) / 64)
        for build in (values.haagerup_pairing_program, values.mu_pairing_program):
            tracemalloc.start()
            try:
                with pytest.raises(sdp.SdpError, match="side 4097 exceeds the cap 4096"):
                    build(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20

    @pytest.mark.parametrize("value", [values.qow_value, values.mu_norm])
    def test_optimal_status_does_not_vouch_for_the_multipliers(self, value, monkeypatch):
        solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda problem, tol: halve_p(solve(problem, tol=tol)))
        with pytest.raises(values.CalculationError, match="multipliers"):
            value(games.game_gcr(2)[0])


class TestQowValue:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gc_is_one(self, n, sdp_cache):
        res = sdp_cache("qow", "gc", n)
        assert res.value == pytest.approx(1.0, abs=1e-5)
        assert res.solution.gap <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_gr_inverse_square(self, n, sdp_cache):
        res = sdp_cache("qow", "gr", n)
        assert res.value == pytest.approx(1.0 / n ** 2, abs=1e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gcr_closed_form(self, n, sdp_cache):
        res = sdp_cache("qow", "gcr", n)
        assert res.value == pytest.approx(0.25 * (1 + 1.0 / n) ** 2, abs=1e-5)

    def test_witness_validates(self, sdp_cache):
        res = sdp_cache("qow", "gc", 2)
        assert values.haagerup_witness_check(res.witness, 10 * 1e-7)

    def test_program_runs_through_engine(self):
        g, _ = games.game_gc(2)
        problem = values.haagerup_pairing_program(g)
        # the cap-multiplier dual: dA^2 + dB^2 parameters, one PSD block
        assert [(v.name, v.side) for v in problem.variables] == [("P", 2), ("Q", 2)]
        assert len(problem.psd_constraints) == 1 and not problem.maximize
        assert not values.mu_pairing_program(g).equalities
        sol = sdp.solve(problem, tol=1e-7)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("case", ["gcr2^2", "random2^2", "random3"])
    def test_witness_attains_lower_side(self, case, sdp_cache):
        tol = 1e-7
        if case == "gcr2^2":
            g = make_canonical("gcr", 2, power=2)[0]
            res = sdp_cache("qow", "gcr", 2, power=2, tol=tol)
        else:
            rng = np.random.default_rng(7)
            g = (games.game_power(random_game(2, 2, 1.0, rng), 2) if case == "random2^2"
                 else random_game(3, 3, 1.0, rng))
            res = values.qow_value(g, tol=tol)
        w = res.witness
        assert np.real(np.sum(g.m * w.u)) == pytest.approx(np.sqrt(res.value), abs=tol)
        assert values.haagerup_witness_check(w, 10 * tol)
        # both sides are read off the certificate that passed the check
        assert res.value == max(float(np.sum(g.m * w.u).real), 0.0) ** 2
        assert res.bound == max(assignment_traces(res.solution), 0.0) ** 2

    def test_phase_invariance(self):
        g, _ = games.game_gr(2)
        rotated = games.RankOneGame(2, 2, np.exp(1j * 0.9) * g.m)
        assert values.qow_value(g).value == pytest.approx(
            values.qow_value(rotated).value, abs=1e-6)
        assert values.mu_norm(g).value == pytest.approx(
            values.mu_norm(rotated).value, abs=1e-6)

    def test_scale_covariance(self):
        # V, qow and mu^2 all scale by c^2 when M is scaled by c
        rng = np.random.default_rng(1)
        g = random_game(2, 2, 0.8, rng)
        scaled = games.RankOneGame(2, 2, 0.5 * g.m)
        assert values.qow_value(scaled).value == pytest.approx(
            0.25 * values.qow_value(g).value, abs=1e-6)
        assert values.maximal_value(scaled) == pytest.approx(
            0.25 * values.maximal_value(g), abs=1e-10)
        assert values.mu_norm(scaled).value ** 2 == pytest.approx(
            0.25 * values.mu_norm(g).value ** 2, abs=1e-6)


# (case, seed, index) of the seeded games whose mu witness is checked
MU_CASES = [("gcr2", 101, 0), ("rand2", 101, 0), ("rand3", 101, 0),
            # benchmark bracket game rand2-6 at seed 110, where the dual value
            # sat 5.6e-10 above the pairing of the returned witness
            ("rand2", 110, 6)]


class TestMuNorm:
    def test_elementary_product_game(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        res = values.mu_norm(games.RankOneGame(2, 2, m))
        assert res.value == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gc_sandwich(self, n, sdp_cache):
        res = sdp_cache("mu", "gc", n)
        assert 1.0 / n - 1e-5 <= res.value <= 2.0 / n + 1e-5

    def test_zero_game(self):
        res = values.mu_norm(games.RankOneGame(2, 2, np.zeros((4, 4))))
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_mu_below_sqrt_qow(self, sdp_cache):
        for fam, n in (("gc", 2), ("gr", 2), ("gcr", 2)):
            mu = sdp_cache("mu", fam, n).value
            qow = sdp_cache("qow", fam, n).value
            assert mu <= np.sqrt(qow) + 1e-5

    def test_witness_has_both_grams(self, sdp_cache):
        res = sdp_cache("mu", "gc", 2)
        w = res.witness
        assert len(w.grams) == 2
        assert values.haagerup_witness_check(w, 1e-6)

    @pytest.mark.parametrize("case,seed,index", MU_CASES)
    def test_dual_blocks_carry_the_same_off_diagonal(self, case, seed, index):
        # the witness keeps block 0's R(u) alone, and the transposed Grams are
        # checked with it: the split variable K ties the two off-diagonals
        g = seeded_game(case, seed=seed, index=index)
        plain, transposed = values.mu_norm(g).solution.dual_blocks
        na = g.d_a * g.d_a
        assert np.max(np.abs(transposed[:na, na:] - plain[:na, na:])) <= 1e-6
        assert np.max(np.abs(transposed[na:, :na] - plain[na:, :na])) <= 1e-6

    @pytest.mark.parametrize("case,seed,index", MU_CASES)
    def test_witness_attains_lower_side(self, case, seed, index):
        tol = 1e-7
        g = seeded_game(case, seed=seed, index=index)
        res = values.mu_norm(g, tol=tol)
        w = res.witness
        assert res.value == max(float(np.sum(g.m * w.u).real), 0.0)
        assert res.bound == max(assignment_traces(res.solution), 0.0)
        assert res.value <= res.bound
        assert values.haagerup_witness_check(w, 10 * tol)


class TestWitnessCheck:
    zero = np.zeros((4, 4))

    def test_zero_witness(self):
        w = values.HaagerupWitness(2, 2, self.zero, [(self.zero, self.zero)])
        assert values.haagerup_witness_check(w, 1e-9)

    def test_identity_without_grams_fails(self):
        w = values.HaagerupWitness(2, 2, np.eye(4), [(self.zero, self.zero)])
        assert not values.haagerup_witness_check(w, 1e-9)

    def test_overweight_gram_fails(self):
        w = values.HaagerupWitness(2, 2, self.zero, [(5.0 * np.eye(4), self.zero)])
        assert not values.haagerup_witness_check(w, 1e-9)

    @pytest.mark.parametrize("block, side, leg", [
        (0, "A", 2), (0, "B", 1), (1, "A", 1), (1, "B", 2)],
        ids=["gram_a-2", "gram_b-1", "transposed_gram_a-1", "transposed_gram_b-2"])
    def test_each_cap_traces_its_leg(self, block, side, leg):
        # tr_1 (E00 (x) I) = I meets a cap of one and tr_2 (E00 (x) I) = 2 E00
        # breaks it; I (x) E00 does the opposite
        e00_i = np.kron(np.diag([1.0, 0.0]), np.eye(2))
        i_e00 = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        passing, failing = (e00_i, i_e00) if leg == 1 else (i_e00, e00_i)

        def check(y):
            grams = [[self.zero, self.zero], [self.zero, self.zero]]
            grams[block]["AB".index(side)] = y
            return values.haagerup_witness_check(values.HaagerupWitness(2, 2, self.zero, grams),
                                                 1e-9)

        assert check(passing)
        assert not check(failing)

    def test_second_block_is_checked_with_the_first_blocks_u(self):
        # each Gram pair is PSD with its own R(u), but the second one, given
        # R(u) = E00 / 2 of the first, has the principal minor [[0, 1/2], [1/2, 0]]
        e00, e11 = np.diag([0.5, 0.0, 0.0, 0.0]), np.diag([0.0, 0.5, 0.0, 0.0])
        u00, u11 = la.unrealign(e00, 2, 2), la.unrealign(e11, 2, 2)
        for u, y in ((u00, e00), (u11, e11)):
            assert values.haagerup_witness_check(values.HaagerupWitness(2, 2, u, [(y, y)]), 1e-9)
        w = values.HaagerupWitness(2, 2, u00, [(e00, e00), (e11, e11)])
        assert not values.haagerup_witness_check(w, 1e-9)


class TestHaagerupNormAndBruteForce:
    def test_swap_norm_is_dimension(self):
        from rankonegames.strategies import swap_unitary
        val, bound = oracles.haagerup_norm(swap_unitary(2), 2, 2)
        assert val == pytest.approx(2.0, abs=1e-5)
        assert bound == pytest.approx(2.0, abs=1e-5)

    def test_elementary_tensor(self):
        rng = np.random.default_rng(2)
        a = la.random_unitary(2, rng)
        b = la.random_unitary(2, rng)
        val, _ = oracles.haagerup_norm(np.kron(a, b), 2, 2)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_transposed_norm_is_norm_of_transpose(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct, _ = oracles.haagerup_norm(u.T, 2, 2)
        via_flag, _ = oracles.haagerup_norm(u, 2, 2, transposed=True)
        assert via_flag == pytest.approx(direct, abs=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_block_form_against_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sdp_val, _ = oracles.haagerup_norm(u, 2, 2)
        bf_val, mats_a, mats_b = oracles.brute_force_haagerup(u, 2, 2, seed=seed)
        assert abs(sdp_val - bf_val) <= 1e-3 * max(1.0, sdp_val)
        rec = sum(np.kron(a, b) for a, b in zip(mats_a, mats_b))
        assert np.max(np.abs(rec - u)) <= 1e-10
        # brute-force route can only overestimate the infimum
        assert bf_val >= sdp_val - 1e-5


class TestEntangledValueBounds:
    def test_gc2_bracket_contains_quarter(self):
        g, _ = games.game_gc(2)
        rep = values.entangled_value_bounds(g, restarts=6, seed=0)
        assert rep.omega_star_lower <= 0.25 + 1e-6
        assert rep.omega_star_upper >= 0.25 - 1e-5
        assert rep.omega_star_lower <= rep.omega_star_upper + 2e-7
        assert rep.omega_star_lower >= 0.25 - 1e-6  # identity already achieves 1/4

    def test_gcr2_bracket(self):
        g, _ = games.game_gcr(2)
        rep = values.entangled_value_bounds(g, restarts=6, seed=0)
        assert rep.omega_star_lower >= 0.25 - 1e-6
        assert rep.omega_star_upper >= 0.25 - 1e-5
        assert rep.omega_star_lower <= rep.omega_star_upper + 2e-7

    def test_product_game_tight(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        rep = values.entangled_value_bounds(games.RankOneGame(2, 2, m), restarts=2, seed=0)
        assert rep.omega_star_lower == pytest.approx(1.0, abs=1e-6)
        assert rep.omega_star_upper == pytest.approx(1.0, abs=1e-6)

    def test_gcr2_stops_after_restart_zero(self):
        rep = values.entangled_value_bounds(games.game_gcr(2)[0])
        assert rep.solver_info["seesaw_restarts"] == 20
        assert rep.solver_info["seesaw_restarts_run"] == 1

    def test_stalled_restart_zero_runs_every_restart(self):
        # benchmark game rand2-1 at seed 101: restart 0 ends 0.13 below the
        # upper side, and a later restart closes the bracket
        g = seeded_game("rand2", index=1)
        rep = values.entangled_value_bounds(g, seed=101)
        assert rep.solver_info["seesaw_restarts_run"] == 20
        assert rep.omega_star_lower_provenance == "seesaw"
        assert rep.omega_star_lower == seesaw_lower_bound(g, seed=101).value

    def test_upper_side_never_below_the_lower(self):
        # at the trace-norm slack the qow solve can stop within tol below the
        # identity strategy's exact value 1 + 1e-12, which refutes it
        rep = values.entangled_value_bounds(games.RankOneGame(1, 1, np.array([[1.0 + 9e-10]])))
        uppers = {"mu^2": max(rep.mu, rep.mu_bound) ** 2, "qow": max(rep.qow, rep.qow_bound),
                  "V": rep.v}
        assert rep.omega_star_lower <= rep.omega_star_upper
        assert rep.omega_star_upper == uppers[rep.omega_star_upper_provenance]
        assert rep.omega_star_upper == min(x for x in uppers.values()
                                           if x >= rep.omega_star_lower)

    def test_refuted_candidate_is_skipped(self, monkeypatch):
        solved = values.qow_value

        def refuted(g, tol):
            res = solved(g, tol=tol)
            res.value = res.bound = 0.0
            return res

        monkeypatch.setattr(values, "qow_value", refuted)
        rep = values.entangled_value_bounds(games.game_gc(2)[0], restarts=2)
        assert rep.omega_star_lower >= 0.25 - 1e-6  # the identity strategy
        assert rep.omega_star_upper_provenance == "mu^2"
        assert rep.omega_star_upper == max(rep.mu, rep.mu_bound) ** 2

    def test_report_json_fields(self):
        g, _ = games.game_gc(2)
        rep = values.entangled_value_bounds(g)
        obj = rep.to_json()
        for key in ("V", "qow", "mu", "omega_star_lower", "omega_star_upper",
                    "omega_star_lower_provenance", "omega_star_upper_provenance"):
            assert key in obj


class TestNormChain:
    def test_chain_on_canonical_and_random(self, sdp_cache):
        rng = np.random.default_rng(4)
        cases = []
        for fam in ("gc", "gr", "gcr"):
            for n in (2, 3):
                g, _ = make_canonical(fam, n)
                q = sdp_cache("qow", fam, n)
                m = sdp_cache("mu", fam, n)
                cases.append((g, q, m))
        for seed in range(6):
            local = np.random.default_rng(200 + seed)
            g = random_game(2, 2, local.uniform(0.2, 1.0), local)
            cases.append((g, values.qow_value(g), values.mu_norm(g)))
        for g, q, m in cases:
            v = values.maximal_value(g)
            tol = 1e-5
            assert m.value <= np.sqrt(q.value) + tol
            assert q.value <= v + tol
            assert v <= 1.0 + 1e-9

    def test_strategy_below_mu_squared(self, sdp_cache):
        rng = np.random.default_rng(5)
        g, _ = games.game_gcr(2)
        m = sdp_cache("mu", "gcr", 2)
        from rankonegames.strategies import EntangledStrategy
        for seed in range(5):
            local = np.random.default_rng(seed)
            s = EntangledStrategy(2, 2, la.random_unitary(4, local),
                                  la.random_unitary(4, local), _unit(4, local))
            assert win_prob_entangled(g, s) <= m.value ** 2 + 2e-7


class TestMultiplicativity:
    def test_v_multiplicative_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_game(2, 2, rng.uniform(0.2, 1.0), rng)
            g2 = games.game_tensor(g, g)
            assert values.maximal_value(g2) == pytest.approx(
                values.maximal_value(g) ** 2, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_qow_multiplicative(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_game(2, 2, rng.uniform(0.3, 1.0), rng)
        single = values.qow_value(g).value
        squared = values.qow_value(games.game_tensor(g, g)).value
        assert abs(squared - single ** 2) <= 1e-4


# (d_a, d_b, k) of the seeded games valued through qow_power
POWER_CASES = [(2, 2, 2)] * 4 + [(2, 3, 2)] * 3 + [(3, 2, 2)] * 3 + [(2, 2, 3)]


def power_case(index):
    d_a, d_b, k = POWER_CASES[index]
    rng = np.random.default_rng(700 + index)
    return random_game(d_a, d_b, rng.uniform(0.3, 1.0), rng), k


class TestQowPower:
    @pytest.mark.parametrize("case", ["gcr2"] + list(range(len(POWER_CASES))))
    def test_product_bracket_overlaps_direct_solve(self, case):
        g, k = (games.game_gcr(2)[0], 3) if case == "gcr2" else power_case(case)
        product = values.qow_power(g, k)
        direct = values.qow_value(games.game_power(g, k))
        assert product.bound >= product.value
        assert product.value <= direct.bound and direct.value <= product.bound

    def test_first_power_is_the_value(self):
        g, _ = power_case(0)
        power, value = values.qow_power(g, 1), values.qow_value(g)
        assert (power.value, power.bound) == (value.value, value.bound)
        assert np.array_equal(power.witness.u, value.witness.u)
        assert all(np.array_equal(a, b) for a, b in zip(power.witness.grams[0],
                                                          value.witness.grams[0]))

    def test_multipliers_without_the_factor_two_are_refused(self, monkeypatch):
        # P / sqrt 2 and Q / sqrt 2 make the tensored multipliers P (x) P and
        # Q (x) Q, whose block misses the power's off-diagonal by a factor 2
        solved = values.qow_value

        def shrunk(g, tol):
            res = solved(g, tol=tol)
            res.solution.assignments = {name: x / np.sqrt(2.0)
                                        for name, x in res.solution.assignments.items()}
            return res

        monkeypatch.setattr(values, "qow_value", shrunk)
        with pytest.raises(values.CalculationError, match="multipliers"):
            values.qow_power(power_case(0)[0], 2)

    def test_witness_without_the_regrouping_is_refused(self, monkeypatch):
        # plain Kronecker powers leave the multipliers, on one register each,
        # as they are, but not the witness's registers in the game's order
        monkeypatch.setattr(values, "regrouped_kron",
                            lambda factors, dims, power=1: reduce(np.kron, list(factors) * power))
        with pytest.raises(values.CalculationError, match="witness"):
            values.qow_power(power_case(0)[0], 2)

    @pytest.mark.parametrize("case", [4, 10])
    def test_witness_is_the_regrouped_product(self, case):
        g, k = power_case(case)
        z, zk = values.qow_value(g).witness, values.qow_power(g, k).witness
        for got, x, dims in ((zk.u, z.u, (g.d_a, g.d_b)),
                             (zk.grams[0][0], z.grams[0][0], (g.d_a, g.d_a)),
                             (zk.grams[0][1], z.grams[0][1], (g.d_b, g.d_b))):
            assert np.array_equal(got, oracles.iterated_kron([x] * k, [dims] * k))


def seeded_game(case, seed=101, index=0):
    """gcr2, or the complex game the benchmark draws as its 2x2 ("rand2") or
    3x3 ("rand3") input number ``index`` at ``seed``."""
    if case == "gcr2":
        return games.game_gcr(2)[0]
    rng = np.random.default_rng(seed)
    for _ in range(index + (12 if case == "rand3" else 0)):
        random_game(2, 2, 1.0, rng)
    d = 3 if case == "rand3" else 2
    return random_game(d, d, 1.0, rng)


def solve_mu_witness(g):
    """The witness-side mu program, solved at tol 1e-7: a maximization, so its
    certified interval is [primal_value, dual_value]."""
    sol = sdp.solve(oracles.mu_witness_program(g), tol=1e-7)
    assert sol.status == "optimal"
    return sol


def intervals_overlap(a, b, tol):
    return max(min(a), min(b)) <= min(max(a), max(b)) + tol


class TestParity:
    # values and iteration counts at tol 1e-7, where the predictor-corrector
    # stops inside its tolerance (the closed forms are checked separately
    # below): qow, mu of its split dual and witness-side mu, and see-saw
    # values of the sequential restart loop the batched one reproduces
    # (20 restarts, seed 101)
    PINNED = {
        ("gcr2", "qow"): (0.5624999948115326, 8),
        ("gcr2", "mu"): (0.4999999994243527, 9),
        ("gcr2", "mu-witness"): (0.49999998849410626, 9),
        ("rand2", "qow"): (0.5399833496474562, 10),
        ("rand2", "mu"): (0.7299230634821479, 10),
        ("rand2", "mu-witness"): (0.7299229841399363, 11),
        ("rand3", "qow"): (0.3547571429356484, 14),
        ("rand3", "mu"): (0.5873093002355463, 14),
        ("rand3", "mu-witness"): (0.5873092953979944, 15),
        ("gcr2", "seesaw"): (0.2500000000000001, None),
        ("rand2", "seesaw"): (0.532787692169462, None),
        ("rand3", "seesaw"): (0.344931561248761, None),
    }

    @pytest.mark.parametrize("case,which", sorted(PINNED))
    def test_pinned(self, case, which):
        value, iterations = self.PINNED[case, which]
        g = seeded_game(case)
        if which == "seesaw":
            res = seesaw_lower_bound(g, restarts=20, seed=101)
            assert res.value == pytest.approx(value, abs=1e-9)
            return
        if which == "mu-witness":
            sol = solve_mu_witness(g)
            got, its = sol.primal_value, sol.iterations
        else:
            fn = values.qow_value if which == "qow" else values.mu_norm
            res = fn(g, tol=1e-7)
            got, its = res.value, res.solution.iterations
        assert got == pytest.approx(value, abs=1e-8)
        assert abs(its - iterations) <= 1

    @pytest.mark.parametrize("game,which,exact", [
        (games.game_gc(2)[0], "qow", 1.0),
        (games.game_gc(3)[0], "qow", 1.0),
        (games.game_gr(2)[0], "qow", 1.0 / 4.0),
        (games.game_gr(3)[0], "qow", 1.0 / 9.0),
        (games.game_gcr(2)[0], "qow", 9.0 / 16.0),
        (games.game_gcr(3)[0], "qow", 4.0 / 9.0),
        (games.game_gcr(2)[0], "mu", 1.0 / 2.0),
    ], ids=["gc2-qow", "gc3-qow", "gr2-qow", "gr3-qow", "gcr2-qow", "gcr3-qow", "gcr2-mu"])
    def test_exact_value_in_certified_interval(self, game, which, exact):
        # unlike the pins above, this does not depend on where the path stops
        fn = values.qow_value if which == "qow" else values.mu_norm
        res = fn(game, tol=1e-7)
        assert min(res.value, res.bound) - 1e-12 <= exact <= max(res.value, res.bound) + 1e-12

    @pytest.mark.parametrize("case", ["gcr2", "rand2", "rand3"])
    def test_mu_programs_overlap(self, case):
        # the split dual and the witness form certify the same norm
        g = seeded_game(case)
        res = values.mu_norm(g, tol=1e-7)
        sol = solve_mu_witness(g)
        assert intervals_overlap((res.value, res.bound), (sol.primal_value, sol.dual_value),
                                 1e-7)

    def test_mu_near_the_plain_norm(self):
        # benchmark bracket game rand2-6 at seed 110: mu is 5.5e-5 below the
        # plain Haagerup norm, so the optimal split is nearly M2 = 0 and the
        # Schur complement grows ill-conditioned
        g = seeded_game("rand2", seed=110, index=6)
        res = values.mu_norm(g, tol=1e-7)
        assert res.solution.status == "optimal"
        assert np.sqrt(values.qow_value(g).value) - res.value < 1e-4
        sol = solve_mu_witness(g)
        assert intervals_overlap((res.value, res.bound), (sol.primal_value, sol.dual_value),
                                 1e-7)

    def test_seesaw_tie_goes_to_lowest_restart(self):
        # restart 2 is within 2e-14 of the best, and a later restart edges it
        res = seesaw_lower_bound(seeded_game("rand3"), restarts=20, seed=101)
        assert res.restart_index == 2
        assert res.value == pytest.approx(self.PINNED["rand3", "seesaw"][0], abs=1e-9)


def swap_players(g):
    """M[(a,b),(a',b')] -> M[(b,a),(b',a')]."""
    m4 = g.m.reshape(g.d_a, g.d_b, g.d_a, g.d_b)
    return games.RankOneGame(g.d_b, g.d_a, m4.transpose(1, 0, 3, 2).reshape(g.m.shape))


class TestMetamorphic:
    @pytest.mark.parametrize("case", ["rand2", "rand3"])
    def test_conjugation(self, case):
        g = seeded_game(case)
        conj = games.RankOneGame(g.d_a, g.d_b, g.m.conj())
        assert values.qow_value(conj).value == pytest.approx(
            values.qow_value(g).value, abs=1e-6)
        assert values.mu_norm(conj).value == pytest.approx(
            values.mu_norm(g).value, abs=1e-6)

    @pytest.mark.parametrize("case", ["rand2", "rand3"])
    def test_local_unitaries(self, case):
        # M -> (U_A (x) U_B) M (V_A (x) V_B)^dag
        g = seeded_game(case)
        rng = np.random.default_rng(41)
        left = np.kron(la.random_unitary(g.d_a, rng), la.random_unitary(g.d_b, rng))
        right = np.kron(la.random_unitary(g.d_a, rng), la.random_unitary(g.d_b, rng))
        moved = games.RankOneGame(g.d_a, g.d_b, left @ g.m @ right.conj().T)
        assert values.qow_value(moved).value == pytest.approx(
            values.qow_value(g).value, abs=1e-6)
        assert values.mu_norm(moved).value == pytest.approx(
            values.mu_norm(g).value, abs=1e-6)

    @pytest.mark.parametrize("second", ["rand2", "rand3"])
    def test_qow_multiplicative_on_distinct_pairs(self, second):
        g = seeded_game("rand2")
        h = seeded_game(second, index=1)
        assert values.qow_value(games.game_tensor(g, h)).value == pytest.approx(
            values.qow_value(g).value * values.qow_value(h).value, abs=1e-6)

    @pytest.mark.parametrize("first,second", [((101, 0), (102, 1)), ((102, 1), (103, 2))])
    def test_mu_supermultiplicative_and_tight_on_these_pairs(self, first, second):
        # u_G (x) u_H is contractive in both norms, so mu(G (x) H) >= mu(G) mu(H)
        # always; some pairs are strict, but these two meet it.  m = 576
        # programs on the 4x4 registers of the product
        g = seeded_game("rand2", *first)
        h = seeded_game("rand2", *second)
        product = values.mu_norm(g).value * values.mu_norm(h).value
        tensored = values.mu_norm(games.game_tensor(g, h)).value
        assert tensored >= product - 1e-6
        assert tensored == pytest.approx(product, abs=1e-6)

    @pytest.mark.parametrize("case", ["rand2", "rand3"])
    def test_swap_keeps_mu(self, case):
        g = seeded_game(case)
        assert values.mu_norm(swap_players(g)).value == pytest.approx(
            values.mu_norm(g).value, abs=1e-6)

    @pytest.mark.parametrize("case", ["rand2", "rand3"])
    def test_swap_maps_qow_to_transposed_program(self, case):
        g = seeded_game(case)
        sol = sdp.solve(values.haagerup_pairing_program(g, transposed=True), tol=1e-7)
        assert sol.status == "optimal"
        assert values.qow_value(swap_players(g)).value == pytest.approx(
            sol.primal_value ** 2, abs=1e-6)
        assert abs(sol.primal_value ** 2 - values.qow_value(g).value) > 1e-3


class TestSchurQuantities:
    def test_s_upper_an_family(self):
        for k in (1, 2, 3):
            s = games.schur_an_multiplier(k)
            witness = np.ones((2, 2)) * 2.0 ** (-1.5)
            w = witness.copy()
            for _ in range(k - 1):
                w = np.kron(w, witness)
            assert values.schur_s_upper(s, w) == pytest.approx(2.0 ** (-k / 2.0), abs=1e-12)

    def test_s_upper_self_witness(self):
        s = games.schur_an_multiplier(1)
        assert values.schur_s_upper(s, s.phi) == pytest.approx(1.0, abs=1e-12)

    def test_s_upper_domination_enforced(self):
        s = games.schur_an_multiplier(1)
        with pytest.raises(values.CalculationError):
            values.schur_s_upper(s, 0.5 * np.abs(s.phi))

    def test_search_diagonal_matches_exhaustive(self):
        # diagonal multipliers: no phase choice can beat the trace norm
        rng = np.random.default_rng(7)
        d = np.diag(rng.uniform(0.1, 0.4, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        s = games.SchurMatrix(2, d)
        val, psi = values.schur_s_search(s, seed=0)
        tn = la.trace_norm(d)
        assert val == pytest.approx(tn, abs=1e-9)
        # exhaustive phases on the two diagonal entries
        best = min(
            la.trace_norm(np.abs(d) * np.diag([np.exp(1j * a), np.exp(1j * b)]))
            for a in np.linspace(0, 2 * np.pi, 24)
            for b in np.linspace(0, 2 * np.pi, 24))
        assert val <= best + 1e-9

    def test_search_a1_finds_flat_witness(self):
        s = games.schur_an_multiplier(1)
        val, psi = values.schur_s_search(s, seed=0)
        assert val <= 2.0 ** (-0.5) + 1e-6

    def test_search_zero(self):
        s = games.SchurMatrix(2, np.zeros((2, 2)))
        val, psi = values.schur_s_search(s, seed=0)
        assert val == 0.0

    def test_equivalence_check_trivial(self):
        s = games.SchurMatrix(1, np.array([[1.0 + 0j]]))
        rep = values.schur_equivalence_check(s)
        assert rep.v == pytest.approx(1.0, abs=1e-9)
        assert rep.qow == pytest.approx(1.0, abs=1e-5)
        assert rep.s_upper == pytest.approx(1.0, abs=1e-9)
        assert rep.qow_below_s_squared and rep.mu_quarter_below_qow

    def test_equivalence_check_a1(self):
        s = games.schur_an_multiplier(1)
        rep = values.schur_equivalence_check(s)
        assert rep.qow <= 0.5 + 1e-5
        assert rep.qow_below_s_squared

    def test_equivalence_check_ltw(self):
        phi = np.zeros((3, 3), dtype=complex)
        phi[0, 0] = 0.5
        phi[1, 1] = phi[2, 1] = 1.0 / (2 * np.sqrt(2.0))
        rep = values.schur_equivalence_check(games.SchurMatrix(3, phi))
        assert rep.qow_below_s_squared
        assert rep.v == pytest.approx(1.0, abs=1e-9)


def _unit(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
