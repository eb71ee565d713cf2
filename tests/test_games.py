import tracemalloc

import numpy as np
import pytest

from rankonegames import games, linalg as la

import oracles


def random_game(d_a, d_b, trace_norm, rng):
    m = rng.standard_normal((d_a * d_b, d_a * d_b)) + 1j * rng.standard_normal((d_a * d_b, d_a * d_b))
    m *= trace_norm / la.trace_norm(m)
    return games.RankOneGame(d_a, d_b, m)


def basis_state(dims, indices):
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    flat = 0
    for d, i in zip(dims, indices):
        flat = flat * d + i
    v[flat] = 1.0
    return v


class TestFromStates:
    def test_product_state(self):
        psi = basis_state((2, 2, 2), (0, 0, 0))
        p = games.GamePurification(2, 2, 2, psi, psi)
        g = games.from_states(p)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(g.m, expected)
        assert la.trace_norm(g.m) == pytest.approx(1.0)

    def test_gc_states(self):
        n = 3
        g, p = games.game_gc(n)
        assert np.allclose(games.from_states(p).m, g.m, atol=1e-14)

    def test_partial_overlap(self):
        psi = basis_state((2, 2, 2), (0, 0, 0))
        gamma = (basis_state((2, 2, 2), (0, 0, 0)) + basis_state((2, 2, 2), (1, 1, 1))) / np.sqrt(2)
        g = games.from_states(games.GamePurification(2, 2, 2, psi, gamma))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0 / np.sqrt(2)
        assert np.allclose(g.m, expected)
        assert la.trace_norm(g.m) == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)


    def test_squared_gcr3_traces_c_without_the_outer_product(self):
        # |psi><gamma| on (A B C) of gcr3 squared would be 2916^2 complex entries, 136 MB
        g, p = games.game_gcr(3)
        p2 = games.purification_power(p, 2)
        tracemalloc.start()
        try:
            m = games.from_states(p2).m
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert np.allclose(m, games.game_power(g, 2).m, atol=1e-14)


class TestPurify:
    def test_product_case(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        p = games.purify(games.RankOneGame(2, 2, m))
        assert np.allclose(games.from_states(p).m, m, atol=1e-12)

    def test_roundtrip_gc2(self):
        g, _ = games.game_gc(2)
        p = games.purify(g)
        assert np.max(np.abs(games.from_states(p).m - g.m)) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        tn = rng.uniform(0.1, 1.0)
        g = random_game(2, 2, tn, rng)
        p = games.purify(g)
        assert p.d_c <= g.d_a * g.d_b + 2
        assert np.max(np.abs(games.from_states(p).m - g.m)) <= 1e-10

    def test_padding_weight(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0 / np.sqrt(2)
        p = games.purify(games.RankOneGame(2, 2, m))
        psi_c = p.psi.reshape(4, p.d_c)
        # padding slot carries the missing trace-norm weight
        pad = np.linalg.norm(psi_c[:, p.d_c - 2]) ** 2
        assert pad == pytest.approx(1.0 - 1.0 / np.sqrt(2), abs=1e-12)

    def test_overbudget_rejected(self):
        with pytest.raises(games.GameError):
            games.RankOneGame(2, 2, np.eye(4))

    def test_overbudget_support_rejected(self):
        # the trace norm is taken on the nonzero rows and columns only
        rng = np.random.default_rng(7)
        block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = np.zeros((9, 9), dtype=complex)
        m[np.ix_([0, 4], [0, 8])] = block * (1.0 + 1e-6) / la.trace_norm(block)
        with pytest.raises(games.GameError, match="trace norm"):
            games.RankOneGame(3, 3, m)
        games.RankOneGame(3, 3, m / (1.0 + 1e-6))


class TestFamilies:
    def test_gc2_entries(self):
        g, p = games.game_gc(2)
        expected = np.zeros((4, 4))
        for i in range(2):
            expected[i * 2 + 0, 0 * 2 + i] = 0.5
        assert np.allclose(g.m, expected)
        assert p.d_c == 2

    def test_gc1_degenerate(self):
        g, _ = games.game_gc(1)
        assert np.allclose(g.m, [[1.0]])
        gr, _ = games.game_gr(1)
        assert np.allclose(gr.m, g.m)

    def test_gc3_trace_norm(self):
        g, _ = games.game_gc(3)
        assert la.trace_norm(g.m) == pytest.approx(1.0, abs=1e-12)

    def test_gr2_entries(self):
        g, _ = games.game_gr(2)
        expected = np.zeros((4, 4))
        for i in range(2):
            expected[0 * 2 + i, i * 2 + 0] = 0.5
        assert np.allclose(g.m, expected)

    def test_gr3_trace_norm(self):
        g, _ = games.game_gr(3)
        assert la.trace_norm(g.m) == pytest.approx(1.0, abs=1e-12)

    def test_gcr_average_and_overlap(self):
        for n in (1, 2, 3):
            g, p = games.game_gcr(n)
            gc, _ = games.game_gc(n)
            gr, _ = games.game_gr(n)
            assert np.allclose(g.m, (gc.m + gr.m) / 2.0)
            assert np.allclose(games.from_states(p).m, g.m, atol=1e-14)
            overlap = np.vdot(p.gamma, p.psi)
            assert overlap == pytest.approx(1.0 / n, abs=1e-12)

    def test_gcr1_degenerate(self):
        g, _ = games.game_gcr(1)
        expected = np.zeros((1, 1))
        expected[0, 0] = 1.0
        assert np.allclose(g.m, expected)

    def test_bad_n(self):
        with pytest.raises(games.GameError):
            games.game_gc(0)


def published_referee_states(family, n):
    """(M, psi, gamma, d_C) written out from the published formulas.

    G_C: psi = (1/sqrt n) sum_i |i 0>|i>, gamma = (1/sqrt n) sum_i |0 i>|i>.
    G_R: psi and gamma of G_C exchanged.  G_CR: the C register is
    C^n (x) C^2 with flat index 2i + k, slot 0 carrying G_C and slot 1 G_R.
    """
    def ab(a, b):
        return a * n + b

    terms = {"gc": [lambda i: (ab(i, 0), ab(0, i))],
             "gr": [lambda i: (ab(0, i), ab(i, 0))],
             "gcr": [lambda i: (ab(i, 0), ab(0, i)), lambda i: (ab(0, i), ab(i, 0))]}[family]
    k_slots = len(terms)
    d_c = k_slots * n
    m = np.zeros((n * n, n * n), dtype=complex)
    psi = np.zeros(n * n * d_c, dtype=complex)
    gamma = np.zeros(n * n * d_c, dtype=complex)
    for i in range(n):
        for k, term in enumerate(terms):
            r, c = term(i)
            m[r, c] += 1.0 / d_c
            psi[r * d_c + k_slots * i + k] = 1.0 / np.sqrt(d_c)
            gamma[c * d_c + k_slots * i + k] = 1.0 / np.sqrt(d_c)
    return m, psi, gamma, d_c


class TestRefereeStates:
    @pytest.mark.parametrize("family", ["gc", "gr", "gcr"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_states_pinned_exactly(self, family, n):
        g, p = getattr(games, f"game_{family}")(n)
        m, psi, gamma, d_c = published_referee_states(family, n)
        assert p.d_c == d_c
        assert np.array_equal(g.m, m)
        assert np.array_equal(p.psi, psi)
        assert np.array_equal(p.gamma, gamma)


class TestSchur:
    def test_trivial_multiplier(self):
        s = games.SchurMatrix(1, np.array([[1.0]]))
        g, p = games.schur_game(s)
        assert np.allclose(g.m, [[1.0]])
        assert np.allclose(games.from_states(p).m, g.m, atol=1e-12)

    def test_ltw_game_from_states(self):
        # initial (1/sqrt2)|000> + (1/2)(|11>+|22>)|1>_C, final (1/sqrt2)(|000>+|111>)
        psi = np.zeros(3 * 3 * 2, dtype=complex)
        gamma = np.zeros(3 * 3 * 2, dtype=complex)
        psi[(0 * 3 + 0) * 2 + 0] = 1.0 / np.sqrt(2)
        psi[(1 * 3 + 1) * 2 + 1] = 0.5
        psi[(2 * 3 + 2) * 2 + 1] = 0.5
        gamma[(0 * 3 + 0) * 2 + 0] = 1.0 / np.sqrt(2)
        gamma[(1 * 3 + 1) * 2 + 1] = 1.0 / np.sqrt(2)
        g = games.from_states(games.GamePurification(3, 3, 2, psi, gamma))
        s = games.is_schur(g)
        assert s is not None
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.5
        expected[1, 1] = 1.0 / (2.0 * np.sqrt(2))
        expected[2, 1] = 1.0 / (2.0 * np.sqrt(2))
        assert np.allclose(s.phi, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_schur_game_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        phi /= la.trace_norm(phi)
        s = games.SchurMatrix(3, phi)
        g, p = games.schur_game(s)
        assert np.max(np.abs(games.from_states(p).m - g.m)) <= 1e-10
        back = games.is_schur(g)
        assert back is not None
        assert np.max(np.abs(back.phi - phi)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_schur_game_states_are_purify_on_the_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        phi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if seed % 2:
            phi = phi[:, :1] @ phi[:1, :]  # rank one: purify keeps a single slot
        phi *= rng.uniform(0.5, 1.0) / la.trace_norm(phi)
        _, p = games.schur_game(games.SchurMatrix(n, phi))
        q = games.purify(games.RankOneGame(n, 1, phi))
        assert p.d_c == q.d_c
        psi = p.psi.reshape(n, n, p.d_c)
        gamma = p.gamma.reshape(n, n, p.d_c)
        i = np.arange(n)
        assert np.array_equal(psi[i, i], q.psi.reshape(n, q.d_c))
        assert np.array_equal(gamma[i, i], q.gamma.reshape(n, q.d_c))
        off = ~np.eye(n, dtype=bool)
        assert not np.any(psi[off]) and not np.any(gamma[off])

    def test_one_dimensional_is_schur(self):
        s = games.is_schur(games.RankOneGame(1, 1, np.array([[0.5j]])))
        assert s is not None
        assert np.array_equal(s.phi, [[0.5j]])

    def test_gc2_not_schur(self):
        g, _ = games.game_gc(2)
        assert games.is_schur(g) is None

    def test_zero_game(self):
        g = games.RankOneGame(2, 2, np.zeros((4, 4)))
        s = games.is_schur(g)
        assert s is not None
        assert np.allclose(s.phi, np.zeros((2, 2)))

    def test_rectangular_returns_none(self):
        g = games.RankOneGame(1, 2, np.zeros((2, 2)))
        assert games.is_schur(g) is None

    def test_an_family_norms(self):
        s1 = games.schur_an_multiplier(1)
        assert la.trace_norm(s1.phi) == pytest.approx(1.0, abs=1e-12)
        s2 = games.schur_an_multiplier(2)
        assert la.trace_norm(s2.phi) ** 2 == pytest.approx(1.0, abs=1e-12)
        # witness 2^{-9/2} B3 has trace norm 2^{-3/2}
        b = np.ones((2, 2))
        b3 = np.kron(np.kron(b, b), b) * 2.0 ** (-4.5)
        assert la.trace_norm(b3) == pytest.approx(2.0 ** (-1.5), abs=1e-12)


class TestTensor:
    def test_unit_game(self):
        rng = np.random.default_rng(7)
        g = random_game(2, 2, 0.9, rng)
        unit = games.RankOneGame(1, 1, np.array([[1.0]]))
        out = games.game_tensor(g, unit)
        assert np.allclose(out.m, g.m)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        g1 = random_game(2, 2, rng.uniform(0.2, 1.0), rng)
        g2 = random_game(2, 2, rng.uniform(0.2, 1.0), rng)
        out = games.game_tensor(g1, g2)
        assert la.trace_norm(out.m) == pytest.approx(
            la.trace_norm(g1.m) * la.trace_norm(g2.m), abs=1e-10)

    def test_gc_times_gr_pattern(self):
        n = 2
        gc, _ = games.game_gc(n)
        gr, _ = games.game_gr(n)
        out = games.game_tensor(gc, gr)
        expected = np.zeros((16, 16), dtype=complex)
        for i in range(n):
            for j in range(n):
                a_part = np.kron(oracles.ketbra(n, i, n, 0), oracles.ketbra(n, 0, n, j))
                b_part = np.kron(oracles.ketbra(n, 0, n, i), oracles.ketbra(n, j, n, 0))
                expected += np.kron(a_part, b_part) / (n * n)
        assert np.allclose(out.m, expected, atol=1e-14)

    def test_associative_up_to_regrouping(self):
        rng = np.random.default_rng(8)
        gs = [random_game(2, 1, 0.8, rng), random_game(1, 2, 0.9, rng), random_game(2, 2, 0.7, rng)]
        left = games.game_tensor(games.game_tensor(gs[0], gs[1]), gs[2])
        right = games.game_tensor(gs[0], games.game_tensor(gs[1], gs[2]))
        assert np.allclose(left.m, right.m, atol=1e-12)

    def test_power(self):
        g, _ = games.game_gc(2)
        assert games.game_power(g, 1) is g
        sq = games.game_power(g, 2)
        assert la.trace_norm(sq.m) == pytest.approx(1.0, abs=1e-10)
        assert la.trace_norm(sq.m) == pytest.approx(la.trace_norm(g.m) ** 2, abs=1e-10)

    def test_purification_tensor_consistent(self):
        g1, p1 = games.game_gc(2)
        g2, p2 = games.game_gr(2)
        p12 = games.tensor_purifications(p1, p2)
        g12 = games.game_tensor(g1, g2)
        assert np.max(np.abs(games.from_states(p12).m - g12.m)) <= 1e-12

    def test_dimension_cap(self, monkeypatch):
        rng = np.random.default_rng(9)
        g = random_game(8, 8, 0.5, rng)
        monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", 256)
        with pytest.raises(games.GameError):
            games.game_tensor(g, g)

    def test_purification_powers_obey_the_cap(self, monkeypatch):
        monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", 16)
        # only the referee register grows, as 3^k against dA dB = 1
        psi = np.ones(3) / np.sqrt(3)
        p = games.GamePurification(1, 1, 3, psi, psi)
        assert games.purification_power(p, 2).d_c == 9
        with pytest.raises(games.GameError, match="side 27 exceeds the cap 16"):
            games.purification_power(p, 3)
        with pytest.raises(games.GameError, match="side 36 exceeds the cap 16"):
            games.tensor_purifications(games.game_gcr(2)[1], games.game_gcr(3)[1])
        # side-1 factors never reach the cap, so their count is bounded: 4 at cap 16
        _, unit = games.game_gc(1)
        assert games.purification_power(unit, 4).d_c == 1
        with pytest.raises(games.GameError, match="5 factors"):
            games.purification_power(unit, 5)

    def test_cap_checked_before_allocating(self, monkeypatch):
        # gcr3's cube would hold (9 * 6)^3 complex entries per state, 2.5 MB
        _, p = games.game_gcr(3)
        monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", 16)
        tracemalloc.start()
        try:
            with pytest.raises(games.GameError):
                games.purification_power(p, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    @pytest.mark.parametrize("family, n, cap", [
        ("game_gc", 65, None), ("game_gr", 65, None), ("game_gcr", 65, None),
        ("schur_an_game", 3, 16)])
    def test_families_refuse_oversize_before_allocating(self, family, n, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(games, "DEFAULT_SIDE_CAP", cap)
        tracemalloc.start()
        try:
            with pytest.raises(games.GameError, match="exceeds the cap"):
                getattr(games, family)(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestRegroupedKron:
    """The one chained product against oracles.iterated_kron, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2)])
    def test_game_power(self, d_a, d_b, k):
        g = random_game(d_a, d_b, 0.9, np.random.default_rng(10 * d_a + d_b))
        want = oracles.iterated_kron([g.m] * k, [(d_a, d_b)] * k)
        assert np.array_equal(games.regrouped_kron([g.m], [(d_a, d_b)], k), want)
        assert np.array_equal(games.game_power(g, k).m, want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_purification_power(self, k):
        p = games.purify(random_game(2, 3, 0.8, np.random.default_rng(23)))
        pk = games.purification_power(p, k)
        assert p.d_c > 1 and (pk.d_a, pk.d_b, pk.d_c) == (2 ** k, 3 ** k, p.d_c ** k)
        for got, v in ((pk.psi, p.psi), (pk.gamma, p.gamma)):
            assert np.array_equal(got, oracles.iterated_kron([v] * k, [(2, 3, p.d_c)] * k))

    def test_three_distinct_factors(self):
        rng = np.random.default_rng(24)
        gs = [random_game(2, 1, 0.8, rng), random_game(1, 2, 0.9, rng),
              random_game(2, 3, 0.7, rng)]
        dims = [(g.d_a, g.d_b) for g in gs]
        want = oracles.iterated_kron([g.m for g in gs], dims)
        assert np.array_equal(games.regrouped_kron([g.m for g in gs], dims), want)
        assert np.array_equal(games.game_tensor(games.game_tensor(gs[0], gs[1]), gs[2]).m, want)
        ps = [games.game_gc(2)[1], games.game_gr(2)[1], games.purify(gs[2])]
        pdims = [(p.d_a, p.d_b, p.d_c) for p in ps]
        p3 = games.tensor_purifications(games.tensor_purifications(ps[0], ps[1]), ps[2])
        assert np.array_equal(p3.psi, games.regrouped_kron([p.psi for p in ps], pdims))
        assert np.array_equal(p3.gamma, oracles.iterated_kron([p.gamma for p in ps], pdims))

    @pytest.mark.parametrize("k", [2, 3])
    def test_gram_and_multiplier_powers(self, k):
        rng = np.random.default_rng(25)
        gram = oracles.random_hermitian(9, rng)  # on pairs (b, b') of a side-3 register
        assert np.array_equal(games.regrouped_kron([gram], [(3, 3)], k),
                              oracles.iterated_kron([gram] * k, [(3, 3)] * k))
        mult = oracles.random_hermitian(2, rng)  # one register: nothing to regroup
        assert np.array_equal(games.regrouped_kron([mult], [(2,)], k),
                              oracles.iterated_kron([mult] * k, [(2,)] * k))


class TestMaximalValueOne:
    def test_equal_states(self):
        _, p = games.game_gc(2)
        q = games.GamePurification(p.d_a, p.d_b, p.d_c, p.psi, p.psi)
        assert games.check_maximal_value_one(q)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gcr_has_value_one(self, n):
        _, p = games.game_gcr(n)
        assert games.check_maximal_value_one(p)

    def test_partial_overlap_false(self):
        psi = basis_state((2, 2, 2), (0, 0, 0))
        gamma = (basis_state((2, 2, 2), (0, 0, 0)) + basis_state((2, 2, 2), (1, 1, 1))) / np.sqrt(2)
        p = games.GamePurification(2, 2, 2, psi, gamma)
        assert not games.check_maximal_value_one(p)

    def test_agrees_with_trace_norm_on_constructions(self):
        rng = np.random.default_rng(10)
        checked = 0
        for seed in range(30):
            local = np.random.default_rng(seed)
            if seed % 2 == 0:
                # unitary-aligned components: trace norm one by construction
                g = random_game(2, 2, 1.0, local)
                p = games.purify(g)
                u, _, vdag = np.linalg.svd(g.m)
                w = u @ vdag  # unitary aligning the singular bases
                psi_c = p.psi.reshape(4, p.d_c)
                gamma_c = (w.conj().T @ psi_c).reshape(-1)
                q = games.GamePurification(2, 2, p.d_c, p.psi, gamma_c)
            else:
                tn = local.uniform(0.3, 0.95)
                q = games.purify(random_game(2, 2, tn, local))
            predicted = games.check_maximal_value_one(q)
            actual = abs(la.trace_norm(games.from_states(q).m) - 1.0) <= 1e-8
            assert predicted == actual
            checked += 1
        assert checked == 30


class TestJsonFormats:
    def test_game_roundtrip(self, tmp_path):
        g, p = games.game_gcr(2)
        obj = games.game_to_json(g, p)
        back, back_p = games.game_from_json(obj)
        assert np.array_equal(back.m, g.m)
        assert back_p is not None
        assert np.array_equal(back_p.psi, p.psi)

    def test_mismatched_purification_rejected(self):
        g, _ = games.game_gc(2)
        _, p_other = games.game_gr(2)
        obj = games.game_to_json(g, p_other)
        with pytest.raises(games.GameError):
            games.game_from_json(obj)

    def test_missing_key(self):
        with pytest.raises(games.GameError):
            games.game_from_json({"dA": 2})
