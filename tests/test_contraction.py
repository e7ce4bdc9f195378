import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import divrel.contraction
import divrel.identities
from divrel import (
    DivergenceSpec,
    SourceChannelPair,
    brute_force_mu_f,
    chi2_contraction,
    f_divergence,
    make_channel,
    make_distribution,
    markov_mixing_report,
    max_correlation_path_bound,
    maximal_correlation,
    mixture,
    mu_chi2_channel,
    push_forward,
    skew_contraction_sandwich,
    skew_k,
    skew_s,
)
from divrel.contraction import (
    _check_irreducible,
    check_skew_s_integral,
    chi2_contraction_power,
    g_alpha,
    skew_k_factor,
    skew_s_factor,
    stationary_distribution,
)
from divrel.errors import (
    DimensionMismatch,
    DomainError,
    NotIrreducible,
    NotReversible,
    PreconditionViolated,
)

from oracles import (
    BRUTE_NM,
    channel_sup_nelder_mead,
    maximal_correlation_ace,
    nelder_mead_sup,
    two_point_chi2_sup,
)


def bsc(eps):
    return make_channel([[1 - eps, eps], [eps, 1 - eps]])


UNIFORM2 = make_distribution([0, 1], [0.5, 0.5])


def random_reversible_chain(rng, n, laziness=0.75):
    s = rng.random((n, n))
    s = s + s.T
    m = s / s.sum(axis=1, keepdims=True)
    return make_channel(laziness * np.eye(n) + (1 - laziness) * m)


def test_bsc_contraction_exact():
    for eps in (0.05, 0.1, 0.25):
        sc = SourceChannelPair(UNIFORM2, bsc(eps))
        assert abs(chi2_contraction(sc) - (1 - 2 * eps) ** 2) < 1e-14


def test_identity_channel_no_contraction():
    sc = SourceChannelPair(UNIFORM2, make_channel([[1, 0], [0, 1]]))
    assert chi2_contraction(sc) == pytest.approx(1.0, abs=1e-12)


def test_identical_rows_full_contraction():
    sc = SourceChannelPair(UNIFORM2, make_channel([[0.3, 0.7], [0.3, 0.7]]))
    assert chi2_contraction(sc) == pytest.approx(0.0, abs=1e-12)


def test_source_channel_pair_validation():
    w = bsc(0.1)
    with pytest.raises(PreconditionViolated):
        SourceChannelPair(make_distribution([0, 1], [1.0, 0.0]), w)
    from divrel.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        SourceChannelPair(make_distribution([0, 1, 2], [0.3, 0.3, 0.4]), w)


def test_maximal_correlation_bsc():
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    assert maximal_correlation(sc) == pytest.approx(0.8, abs=1e-12)


def test_ace_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = make_channel(rng.dirichlet(np.ones(3), size=3))
        qx = make_distribution([0, 1, 2], rng.dirichlet(np.ones(3) * 3 + 1))
        sc = SourceChannelPair(qx, w)
        assert maximal_correlation_ace(sc) == pytest.approx(
            maximal_correlation(sc), abs=1e-6
        )


def test_ace_independent_pair_zero():
    sc = SourceChannelPair(UNIFORM2, make_channel([[0.3, 0.7], [0.3, 0.7]]))
    assert maximal_correlation_ace(sc) < 1e-7


def test_brute_force_chi2_recovers_spectral_value():
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    est = brute_force_mu_f(DivergenceSpec("CHI2"), sc, n_samples=2000, seed=1)
    assert est.lower <= est.point_estimate <= est.upper
    assert abs(est.point_estimate - 0.64) < 1e-4
    # the ratio is constant along the optimal direction for the quadratic
    # kernel, so only rounding can push the estimate above the true value
    assert est.point_estimate <= 0.64 + 1e-12


def test_brute_force_kl_below_channel_bound():
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    est = brute_force_mu_f(DivergenceSpec("SKEW_K", 1.0), sc, n_samples=2000, seed=1)
    assert est.lower <= 0.64 + 1e-9


def test_brute_force_alphabet_limit():
    n = 7
    w = make_channel(np.full((n, n), 1.0 / n))
    qx = make_distribution(range(n), [1.0 / n] * n)
    with pytest.raises(PreconditionViolated):
        brute_force_mu_f(DivergenceSpec("KL"), SourceChannelPair(qx, w))


def test_sandwich_orders_bsc():
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    for alpha, family in ((1.0, "K"), (0.5, "K"), (0.5, "S"), (0.25, "S")):
        lower, upper_channel, upper_scaled = skew_contraction_sandwich(alpha, family, sc)
        assert lower == pytest.approx(0.64, abs=1e-10)
        assert upper_channel == pytest.approx(0.64, abs=1e-15)
        assert upper_scaled >= lower - 1e-12
        est = brute_force_mu_f(
            DivergenceSpec("SKEW_K" if family == "K" else "SKEW_S", alpha),
            sc, n_samples=800, seed=3,
        )
        # the sup is approached, not attained, so the sampled estimate
        # sits strictly below the spectral floor; 1e-4 is the documented
        # search accuracy
        assert lower - 1e-4 <= est.point_estimate
        assert est.point_estimate <= min(upper_channel, upper_scaled) + 1e-9


def test_prop2_factor_alpha_one_is_inverse_qmin():
    assert skew_k_factor(1.0, 0.2) == pytest.approx(5.0)
    assert skew_s_factor(1.0, 0.2) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        skew_k_factor(0.0, 0.2)


def test_mu_chi2_channel_bsc():
    for eps in (0.05, 0.1, 0.25, 0.4):
        assert mu_chi2_channel(bsc(eps)) == pytest.approx((1 - 2 * eps) ** 2, abs=1e-15)


@pytest.mark.parametrize("rows, want", [
    # the sups of these two lie at an end of the pair's curve, t -> 0 or 1
    ([[1, 0], [0.3, 0.7]], 0.7),
    ([[0.3, 0.7], [1, 0]], 0.7),
    ([[0.8, 0.2, 0], [0, 0.2, 0.8]], 0.8),
    ([[1, 0], [0, 1]], 1.0),
    ([[0.3, 0.7], [0.3, 0.7]], 0.0),
    ([[0.3, 0.7]], 0.0),
])
def test_mu_chi2_channel_exact_cases(rows, want):
    mu = mu_chi2_channel(make_channel(rows))
    assert not math.isnan(mu)
    assert mu == pytest.approx(want, abs=1e-12)


def test_sandwich_rejects_alpha_before_the_channel_sup(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the channel sup ran")

    monkeypatch.setattr(divrel.contraction, "mu_chi2_channel", never)
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    for alpha, family in ((0.0, "K"), (1.5, "S"), (math.nan, "K")):
        with pytest.raises(DomainError):
            skew_contraction_sandwich(alpha, family, sc)


def test_g_alpha_shape():
    assert g_alpha(0.3, 0.1) == pytest.approx(0.03)
    assert g_alpha(0.3, 0.5) == pytest.approx(0.7 * 0.5)
    assert g_alpha(0.3, 0.0) == 0.0
    assert g_alpha(0.3, 1.0) == 0.0
    # both branches meet at s = alpha
    assert g_alpha(0.3, 0.3) == pytest.approx(0.3 * 0.3 + 0.7 * 0.7)
    s = [0.0, 0.1, 0.3, 0.5, 1.0]
    got = g_alpha(0.3, np.array(s))
    assert isinstance(got, np.ndarray) and isinstance(g_alpha(0.3, 0.1), float)
    assert got.tolist() == [g_alpha(0.3, x) for x in s]
    for alpha, nodes in ((0.3, math.nan), (math.nan, 0.5), (0.3, np.array([0.1, math.nan]))):
        with pytest.raises(DomainError):
            g_alpha(alpha, nodes)


def test_skew_s_integral_is_the_identities_one():
    assert divrel.contraction.check_skew_s_integral is divrel.identities.check_skew_s_integral
    assert divrel.contraction.g_alpha is divrel.identities.g_alpha


def test_skew_s_integral_identity():
    p = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
    q = make_distribution([0, 1, 2], [0.4, 0.1, 0.5])
    for alpha in (0.2, 0.5, 0.8, 1.0):
        rep = check_skew_s_integral(alpha, p, q)
        assert rep.passed, rep
    # a 5-atom pair at alpha ~ 0.875, where quad misses the kink of g_alpha
    # at s = alpha unless the interval is split there
    rng = np.random.default_rng(25)
    n = int(rng.integers(2, 9))
    p = make_distribution(range(n), rng.dirichlet(np.ones(n)))
    q = make_distribution(range(n), rng.dirichlet(np.ones(n)))
    rep = check_skew_s_integral(float(rng.uniform(0.05, 0.95)), p, q)
    assert rep.passed, rep


def test_data_processing_random_instances():
    rng = np.random.default_rng(11)
    specs = [
        DivergenceSpec("KL"), DivergenceSpec("CHI2"), DivergenceSpec("TV"),
        DivergenceSpec("JS"), DivergenceSpec("RENYI", 2.0),
    ]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        w = make_channel(rng.dirichlet(np.ones(n), size=n))
        support = tuple(float(i) for i in range(n))
        p = make_distribution(support, rng.dirichlet(np.ones(n)))
        q = make_distribution(support, rng.dirichlet(np.ones(n)))
        py, qy = push_forward(p, w), push_forward(q, w)
        for spec in specs:
            d_in = f_divergence(spec, p, q)
            d_out = f_divergence(spec, py, qy)
            assert d_out <= d_in + 1e-10, spec


def test_stationary_distribution_two_state():
    w = make_channel([[0.9, 0.1], [0.3, 0.7]])
    q = stationary_distribution(w)
    assert np.allclose(q.mass, [0.75, 0.25])


@pytest.mark.parametrize("n", [4, 65, 200])
@pytest.mark.parametrize("laziness", [0.0, 0.75, 0.99])
def test_stationary_distribution_is_the_exact_law_of_reversible_chains(n, laziness):
    # the walk on symmetric weights s has the law of the row sums of s
    for seed in range(3):
        s = np.random.default_rng(seed).random((n, n))
        s = s + s.T
        w = make_channel(laziness * np.eye(n) + (1 - laziness) * s / s.sum(axis=1, keepdims=True))
        exact = s.sum(axis=1) / s.sum()
        q = stationary_distribution(w)
        assert np.max(np.abs(q.mass - exact) / exact) < 1e-12


@pytest.mark.parametrize("rows", [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]])
def test_stationary_distribution_rejects_reducible_chains(rows):
    # a reducible chain makes the balance system singular or its law not unique
    with pytest.raises(NotIrreducible):
        stationary_distribution(make_channel(rows))


def test_power_identity_reversible():
    rng = np.random.default_rng(5)
    w = random_reversible_chain(rng, 4)
    q = stationary_distribution(w)
    mu = chi2_contraction(SourceChannelPair(q, w))
    for n in (2, 5, 10, 20):
        assert abs(chi2_contraction_power(w, q, n) - mu**n) < 1e-9


@pytest.mark.parametrize("n", [-1, 2.5, True, "2"])
def test_power_needs_an_integer_step_count(n):
    # n = -1 would invert the kernel: the swap channel gave 1.0
    with pytest.raises(DomainError, match="step count n"):
        chi2_contraction_power(make_channel([[0, 1], [1, 0]]), UNIFORM2, n)


def test_power_zero_steps_is_the_identity_kernel():
    assert chi2_contraction_power(bsc(0.2), UNIFORM2, np.int64(0)) == pytest.approx(1.0)


def test_mixing_report_stationary_start_is_flat():
    rng = np.random.default_rng(9)
    w = random_reversible_chain(rng, 4)
    q = stationary_distribution(w)
    rep = markov_mixing_report(w, q, 1.0, 10)
    for row in rep["rows"]:
        assert row["k_alpha"] == pytest.approx(0.0, abs=1e-12)
        assert row["s_alpha"] == pytest.approx(0.0, abs=1e-12)


def test_mixing_report_envelopes_two_state():
    w = bsc(0.2)
    p0 = make_distribution([0, 1], [0.9, 0.1])
    rep = markov_mixing_report(w, p0, 1.0, 30)
    assert rep["mu_chi2"] == pytest.approx(0.36, abs=1e-12)
    for row in rep["rows"]:
        assert row["k_alpha"] <= row["k_envelope"] + 1e-12
        assert row["s_alpha"] <= row["s_envelope"] + 1e-12
    ks = [row["k_alpha"] for row in rep["rows"]]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


@pytest.mark.parametrize("n_max", [-1, -2, 2.5, True])
def test_mixing_needs_an_integer_step_count(n_max):
    with pytest.raises(DomainError, match="n_max"):
        markov_mixing_report(bsc(0.2), UNIFORM2, 1.0, n_max)


def test_mixing_report_with_no_steps_has_no_rows():
    assert markov_mixing_report(bsc(0.2), UNIFORM2, 1.0, 0)["rows"] == []


def test_mixing_rejects_non_reversible():
    w = make_channel([[0.2, 0.8, 0.0], [0.0, 0.2, 0.8], [0.8, 0.0, 0.2]])
    p0 = make_distribution([0, 1, 2], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(NotReversible):
        markov_mixing_report(w, p0, 1.0, 5)


def test_mixing_rejects_reducible():
    w = make_channel([[1.0, 0.0], [0.0, 1.0]])
    p0 = UNIFORM2
    with pytest.raises(NotIrreducible):
        markov_mixing_report(w, p0, 1.0, 5)


def test_mixing_rejects_non_square_kernel():
    with pytest.raises(DimensionMismatch, match="square kernel"):
        markov_mixing_report(make_channel([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]), UNIFORM2, 1.0, 5)


def test_mixing_rejects_one_way_chain():
    # state 0 reaches state 1, but nothing leads back to state 0
    w = make_channel([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(NotIrreducible):
        markov_mixing_report(w, UNIFORM2, 1.0, 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)
))
def test_irreducibility_matches_strong_components(pattern):
    n = int(round(len(pattern) ** 0.5))
    support = np.array(pattern, dtype=float).reshape(n, n)
    support[support.sum(axis=1) == 0, 0] = 1.0  # every row needs some mass
    w = make_channel(support / support.sum(axis=1, keepdims=True))
    n_components, _ = connected_components(support > 0, connection="strong")
    if n_components > 1:
        with pytest.raises(NotIrreducible):
            _check_irreducible(w)
    else:
        _check_irreducible(w)


def test_path_bound_identity_channel():
    p = make_distribution([0, 1], [0.3, 0.7])
    rep = max_correlation_path_bound(p, UNIFORM2, make_channel([[1, 0], [0, 1]]))
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)


def test_path_bound_identical_rows():
    p = make_distribution([0, 1], [0.3, 0.7])
    rep = max_correlation_path_bound(p, UNIFORM2, make_channel([[0.4, 0.6], [0.4, 0.6]]))
    assert rep.holds
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)


def test_path_bound_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = make_channel(rng.dirichlet(np.ones(3), size=3))
        p = make_distribution([0, 1, 2], rng.dirichlet(np.ones(3) * 2 + 1))
        q = make_distribution([0, 1, 2], rng.dirichlet(np.ones(3) * 2 + 1))
        rep = max_correlation_path_bound(p, q, w)
        assert rep.holds, rep


def test_source_channel_pair_rejects_an_unreachable_output():
    with pytest.raises(PreconditionViolated, match="output law"):
        SourceChannelPair(UNIFORM2, make_channel([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]))


def test_sandwich_rejects_an_unknown_family():
    with pytest.raises(DomainError, match="'K' or 'S'"):
        skew_contraction_sandwich(0.5, "X", SourceChannelPair(UNIFORM2, bsc(0.1)))


@pytest.mark.parametrize("masses", [[1.0, 0.0], [0.0, 1.0]])
def test_path_bound_rejects_a_law_with_a_zero_mass(masses):
    with pytest.raises(PreconditionViolated, match="strictly positive"):
        max_correlation_path_bound(make_distribution([0, 1], masses), UNIFORM2, bsc(0.1))


def test_path_bound_rejects_laws_of_another_size_than_the_channel_inputs():
    p = make_distribution([0, 1, 2], [0.2, 0.3, 0.5])
    q = make_distribution([0, 1, 2], [0.5, 0.3, 0.2])
    with pytest.raises(DimensionMismatch, match="channel rows"):
        max_correlation_path_bound(p, q, bsc(0.1))


def test_path_bound_preconditions():
    p = make_distribution([0, 1], [0.3, 0.7])
    with pytest.raises(PreconditionViolated):
        max_correlation_path_bound(p, p, bsc(0.1))


@pytest.mark.parametrize("n_grid", [0, 1, -3, 11.0, True])
def test_path_bound_needs_an_integer_grid_of_two_points(n_grid):
    # n_grid = 0 took the sup over an empty grid (0.0); n_grid = 1 checked P alone
    p = make_distribution([0, 1], [0.3, 0.7])
    with pytest.raises(DomainError, match="n_grid"):
        max_correlation_path_bound(p, UNIFORM2, bsc(0.1), n_grid)


def test_large_alphabet_power_iteration_path():
    # the Gram-eigenvalue path against the dense SVD of the same B, on a
    # 70-input channel, reversible chains at their stationary laws, a
    # 1-input pair (mu = 0) and wide and tall channels
    rng = np.random.default_rng(2)
    n = 70
    w = make_channel(rng.dirichlet(np.ones(n), size=n))
    cases = [(make_distribution(range(n), rng.dirichlet(np.ones(n) * 5 + 1)), w)]
    for n in (65, 200):
        w = random_reversible_chain(np.random.default_rng(3), n)
        cases.append((stationary_distribution(w), w))
    cases.append((make_distribution([0], [1.0]), make_channel([[0.3, 0.7]])))
    for n_in, n_out in ((3, 7), (7, 3)):
        w = make_channel(rng.dirichlet(np.ones(n_out), size=n_in))
        cases.append((make_distribution(range(n_in), rng.dirichlet(np.ones(n_in))), w))
    for qx, w in cases:
        qy = qx.mass @ w.matrix
        b = np.sqrt(qx.mass)[:, None] * w.matrix / np.sqrt(qy)[None, :]
        sv = np.append(np.linalg.svd(b, compute_uv=False), 0.0)
        mu = chi2_contraction(SourceChannelPair(qx, w))
        assert mu == pytest.approx(float(sv[1]) ** 2, abs=1e-10), w.matrix.shape


LANCZOS = divrel.contraction._LANCZOS_SIZE


def _gram(qx, w):
    """The smaller Gram matrix of B, as one stack, and its top eigenvector."""
    b = divrel.contraction._normalized_joint(qx[None], w)
    bt = b.transpose(0, 2, 1)
    if b.shape[1] <= b.shape[2]:
        return b @ bt, np.sqrt(qx)
    return bt @ b, np.sqrt(qx @ w)


def _gram_cases(n, rng):
    """(qx, W) whose smaller Gram matrix has n rows: square, tall and wide
    Dirichlet channels, reversible chains of laziness 0, 0.5 and 0.9 at
    their stationary laws, and W = aI + (1 - a)J/n at the uniform law, whose
    deflated Gram matrix is a^2 I."""
    for n_in, n_out in ((n, n), (n + n // 2, n), (n, n + n // 2)):
        yield rng.dirichlet(np.ones(n_in)), rng.dirichlet(np.ones(n_out), size=n_in)
    for laziness in (0.0, 0.5, 0.9):
        w = random_reversible_chain(rng, n, laziness)
        yield stationary_distribution(w).mass, w.matrix
    yield np.full(n, 1.0 / n), 0.3 * np.eye(n) + 0.7 / n


@pytest.mark.parametrize("n", [LANCZOS - 1, LANCZOS, 1000])
def test_lanczos_matches_eigvalsh(n):
    for i, (qx, w) in enumerate(_gram_cases(n, np.random.default_rng([11, n]))):
        gram, top = _gram(qx, w)
        want = min(max(float(np.linalg.eigvalsh(gram[0])[-2]), 0.0), 1.0)
        assert abs(divrel.contraction._deflated_lanczos(gram[0], top) - want) <= 1e-13, (n, i)


@pytest.mark.parametrize("n_in, n_out", [
    (2, 2), (3, 7), (7, 3), (64, 64), (65, 65), (200, 200),
    (LANCZOS - 1, LANCZOS - 1), (LANCZOS - 1, 2 * LANCZOS), (2 * LANCZOS, LANCZOS - 1),
])
def test_below_the_lanczos_size_the_contraction_is_the_dense_eigenvalue(n_in, n_out):
    # bit for bit the batched eigvalsh of the Gram stack
    rng = np.random.default_rng([12, n_in, n_out])
    qx, w = rng.dirichlet(np.ones(n_in)), rng.dirichlet(np.ones(n_out), size=n_in)
    want = float(np.clip(np.linalg.eigvalsh(_gram(qx, w)[0])[:, -2], 0.0, 1.0)[0])
    sc = SourceChannelPair(make_distribution(range(n_in), qx), make_channel(w))
    assert chi2_contraction(sc) == want


def test_lanczos_logs_its_run_and_the_dense_route_logs_nothing(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="divrel.contraction")
    rng = np.random.default_rng(13)
    for n in (LANCZOS - 1, LANCZOS):
        w = make_channel(rng.dirichlet(np.ones(n), size=n))
        chi2_contraction(SourceChannelPair(make_distribution(range(n), rng.dirichlet(np.ones(n))), w))
    uniform = make_distribution(range(LANCZOS), np.full(LANCZOS, 1.0 / LANCZOS))
    chi2_contraction(SourceChannelPair(uniform, make_channel(0.3 * np.eye(LANCZOS) + 0.7 / LANCZOS)))
    # a 3-row Gram matrix ends at n - 1 = 2 steps, before its first test
    monkeypatch.setattr(divrel.contraction, "_LANCZOS_SIZE", 3)
    chi2_contraction(SourceChannelPair(make_distribution([0, 1, 2], [0.2, 0.3, 0.5]),
                                       make_channel(rng.dirichlet(np.ones(3), size=3))))
    records = [r for r in caplog.records if r.name == "divrel.contraction"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    # (Gram rows, steps, final residual bound, how the run ended)
    (size, steps, bound, end), breakdown, exhausted = (r.args for r in records)
    tol = divrel.contraction._LANCZOS_TOL
    assert size == LANCZOS and 0 < steps < LANCZOS - 1 and bound <= tol and end == "converged"
    # aI + (1 - a)J/n: the first step leaves nothing to orthogonalize
    assert breakdown[:2] == (LANCZOS, 1) and breakdown[2] <= tol and breakdown[3] == "converged"
    assert exhausted[:2] == (3, 2) and exhausted[3] == "Krylov space exhausted"
    assert "by Lanczos" in records[0].getMessage()


def test_empty_search_budget_rejected():
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    with pytest.raises(DomainError):
        brute_force_mu_f(DivergenceSpec("KL"), sc, n_samples=0)


def test_brute_force_one_input_rejected():
    sc = SourceChannelPair(make_distribution([0], [1.0]), make_channel([[0.3, 0.7]]))
    with pytest.raises(PreconditionViolated):
        brute_force_mu_f(DivergenceSpec("KL"), sc, n_samples=10)



def test_brute_force_rejects_a_divergence_that_vanishes_identically():
    # K_0(P||Q) = 0 for every pair, so no candidate has a ratio
    sc = SourceChannelPair(make_distribution([0, 1], [0.4, 0.6]), bsc(0.1))
    with pytest.raises(PreconditionViolated):
        brute_force_mu_f(DivergenceSpec("SKEW_K", 0.0), sc, n_samples=50)


def test_search_takes_only_its_draws_from_the_generator(monkeypatch):
    # the refinement draws nothing at random: a generator that can make the
    # Dirichlet draws and nothing else serves the whole search
    generator = np.random.default_rng

    class DrawsOnly:
        def __init__(self, seed):
            self.dirichlet = generator(seed).dirichlet

    monkeypatch.setattr(np.random, "default_rng", DrawsOnly)
    w = make_channel([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    sc = SourceChannelPair(make_distribution([0, 1, 2], [0.2, 0.3, 0.5]), w)
    est = brute_force_mu_f(DivergenceSpec("KL"), sc, n_samples=200, seed=4)
    assert est.lower <= est.point_estimate <= mu_chi2_channel(w)


def test_brute_force_lower_is_max_of_explicit_ratios():
    # the batched search against one validated distribution per draw, scored
    # by the two-distribution kernels, on the same seeded Dirichlet draws
    w = make_channel([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    sc = SourceChannelPair(make_distribution([0, 1, 2], [0.2, 0.3, 0.5]), w)
    for spec in (DivergenceSpec("SKEW_S", 0.5), DivergenceSpec("KL"),
                 DivergenceSpec("RENYI", 2.0)):
        est = brute_force_mu_f(spec, sc, n_samples=300, seed=4)
        rng = np.random.default_rng(4)
        best = -np.inf
        for _ in range(300):
            px = make_distribution([0, 1, 2], rng.dirichlet(np.ones(3)))
            d_in = f_divergence(spec, px, sc.qx)
            d_out = f_divergence(spec, push_forward(px, w), sc.qy)
            if 1e-6 < d_in < np.inf and d_out < np.inf:
                best = max(best, d_out / d_in)
        assert est.lower == pytest.approx(best, rel=1e-12), spec
        assert est.lower <= est.point_estimate


def test_chi2_contraction_rows_in_blocks(monkeypatch):
    # a stack longer than one block is scored block by block, with the same
    # values as one SourceChannelPair per law
    from divrel import contraction, distributions

    rng = np.random.default_rng(8)
    w = make_channel(rng.dirichlet(np.ones(4), size=3))
    px = rng.dirichlet(np.ones(3), size=50)
    monkeypatch.setattr(distributions, "_STACK_ENTRIES", 5 * w.matrix.size)
    got = contraction._chi2_contraction_rows(px, w.matrix)
    want = [chi2_contraction(SourceChannelPair(make_distribution([0, 1, 2], p), w))
            for p in px]
    assert got == pytest.approx(want, abs=1e-14)


def test_mu_chi2_channel_with_a_subnormal_entry():
    # unscaled, t * 5e-324 rounds to 0, and the curve read +inf with a
    # divide-by-zero warning
    w = make_channel([[5e-324, 0.5, 0.5 - 5e-324], [0.0, 0.3, 0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mu = mu_chi2_channel(w)
    assert mu <= 1.0
    assert mu == pytest.approx(mu_chi2_channel(make_channel([[0.5, 0.5], [0.3, 0.7]])),
                               rel=1e-14)


def test_mu_chi2_channel_rejects_unreachable_output():
    # no input law gives output 1 positive mass, so the sup is over nothing
    with pytest.raises(PreconditionViolated, match="column 1"):
        mu_chi2_channel(make_channel([[1, 0], [1, 0]]))
    with pytest.raises(PreconditionViolated, match="column 2"):
        mu_chi2_channel(make_channel([[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]]))


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_mixing_rows_match_per_step_laws(alpha):
    rng = np.random.default_rng(17)
    w = random_reversible_chain(rng, 5)
    p0 = make_distribution(range(5), rng.dirichlet(np.ones(5)))
    rep = markov_mixing_report(w, p0, alpha, 12)
    q = rep["stationary"]
    pn = p0.mass
    assert len(rep["rows"]) == 12
    for n, row in enumerate(rep["rows"], start=1):
        pn = pn @ w.matrix
        law = make_distribution(q.support, pn / pn.sum())
        assert row["n"] == n
        assert row["k_alpha"] == pytest.approx(skew_k(alpha, law, q), rel=1e-12, abs=0)
        assert row["s_alpha"] == pytest.approx(skew_s(alpha, law, q), rel=1e-12, abs=0)


def test_mixing_rejects_initial_law_of_wrong_length():
    with pytest.raises(DimensionMismatch):
        markov_mixing_report(bsc(0.2), make_distribution([0, 1, 2], [0.2, 0.3, 0.5]), 1.0, 3)


def test_path_bound_matches_explicit_mixture_loop():
    rng = np.random.default_rng(33)
    for n_grid in (2, 11, 101):
        w = make_channel(rng.dirichlet(np.ones(4), size=3))
        p = make_distribution([0, 1, 2], rng.dirichlet(np.ones(3) * 2 + 1))
        q = make_distribution([0, 1, 2], rng.dirichlet(np.ones(3) * 2 + 1))
        loop = max(
            maximal_correlation(SourceChannelPair(mixture(p, q, float(s)), w))
            for s in np.linspace(0.0, 1.0, n_grid)
        )
        assert max_correlation_path_bound(p, q, w, n_grid).rhs == pytest.approx(
            loop, rel=1e-12, abs=0)


def test_path_bound_rejects_unreachable_output():
    # no input reaches output 2, so every mixed input has a zero output atom
    w = make_channel([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.3, 0.7, 0.0]])
    p = make_distribution([0, 1, 2], [0.2, 0.3, 0.5])
    q = make_distribution([0, 1, 2], [0.5, 0.3, 0.2])
    with pytest.raises(PreconditionViolated, match="output law"):
        max_correlation_path_bound(p, q, w)


@pytest.mark.parametrize("alpha, first, second", [(1.0, 0, 1), (0.0, 1, 0)])
def test_skew_s_integral_with_infinite_sides(alpha, first, second):
    # S_1(P||Q) = D(P||Q) and S_0(P||Q) = D(Q||P), +inf when the first law has
    # mass where the second has none; the other order stays finite
    laws = (make_distribution([0, 1], [0.5, 0.5]), make_distribution([0, 1], [1.0, 0.0]))
    rep = check_skew_s_integral(alpha, laws[first], laws[second])
    assert rep.lhs == rep.rhs == math.inf and rep.passed
    rep = check_skew_s_integral(alpha, laws[second], laws[first])
    assert math.isfinite(rep.rhs) and rep.passed


def assert_no_worse_than_nelder_mead(monkeypatch, spec, sc, n_samples, seed):
    """brute_force_mu_f against itself with the Nelder-Mead oracle in place
    of the batched refinement, and mu_chi2_channel against a Nelder-Mead
    search of the whole simplex, each law scored by its own SVD."""
    with monkeypatch.context() as m:
        m.setattr(divrel.contraction, "_sampled_sup", nelder_mead_sup(BRUTE_NM))
        want = brute_force_mu_f(spec, sc, n_samples=n_samples, seed=seed)
    est = brute_force_mu_f(spec, sc, n_samples=n_samples, seed=seed)
    assert est.lower == want.lower
    # 1e-4 is the search accuracy that test_sandwich_orders_bsc documents
    assert est.point_estimate >= want.point_estimate - 1e-4
    w = sc.w.matrix
    assert mu_chi2_channel(sc.w) >= channel_sup_nelder_mead(w, n_samples, seed) - 1e-9


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25])
def test_refinement_matches_nelder_mead_on_bsc(monkeypatch, eps):
    sc = SourceChannelPair(UNIFORM2, bsc(eps))
    for spec in (DivergenceSpec("SKEW_K", 1.0), DivergenceSpec("SKEW_K", 0.5),
                 DivergenceSpec("SKEW_S", 0.5), DivergenceSpec("KL"), DivergenceSpec("CHI2")):
        assert_no_worse_than_nelder_mead(monkeypatch, spec, sc, 800, 3)


ORACLE_SPECS = [DivergenceSpec("KL"), DivergenceSpec("CHI2"), DivergenceSpec("SKEW_K", 0.5),
                DivergenceSpec("SKEW_S", 0.5), DivergenceSpec("RENYI", 2.0)]


@pytest.mark.parametrize("which", range(len(ORACLE_SPECS)))
def test_refinement_matches_nelder_mead_on_random_channels(monkeypatch, which):
    # 200 seeded channels with 2-6 inputs and 2-6 outputs, 40 per divergence;
    # among them a 6x5 channel whose chi^2 sup has two local maxima on faces
    # of the simplex (k = 131), which one start alone can miss
    for k in range(which, 200, len(ORACLE_SPECS)):
        rng = np.random.default_rng([2024, k])
        n_in, n_out = rng.integers(2, 7, size=2)
        w = make_channel(rng.dirichlet(np.ones(n_out), size=n_in))
        qx = make_distribution(range(n_in), rng.dirichlet(np.ones(n_in)))
        seed = int(rng.integers(1 << 30))
        assert_no_worse_than_nelder_mead(
            monkeypatch, ORACLE_SPECS[which], SourceChannelPair(qx, w), 300, seed)
        # the value is attained at a two-point law, not overshot
        assert mu_chi2_channel(w) == pytest.approx(two_point_chi2_sup(w.matrix), abs=1e-12)


def test_refinement_stays_within_its_round_budget(monkeypatch):
    # Nelder-Mead spent 7,865 single-law evaluations on this input, at its
    # iteration cap; the batched search makes two kernel calls per round, each
    # of the registry kernel itself
    calls = [0]
    kernel, *domain = divrel.divergences._REGISTRY["SKEW_S"]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setitem(divrel.divergences._REGISTRY, "SKEW_S", (counted, *domain))
    sc = SourceChannelPair(UNIFORM2, bsc(0.14376407702030392))
    est = brute_force_mu_f(DivergenceSpec("SKEW_S", 0.5), sc, n_samples=1500, seed=628404696)
    assert calls[0] <= 2 * (divrel.contraction._MAX_ROUNDS + 2)
    # Nelder-Mead's value; the ratio's rounding noise at the input-divergence
    # floor is about 1e-10 here, while the best draw alone falls 4.5e-9 short
    assert est.point_estimate >= 0.5076155482146442 - 1e-10


@pytest.mark.parametrize("spec", [DivergenceSpec("KL"), DivergenceSpec("SKEW_K", 0.5),
                                  DivergenceSpec("SKEW_S", 0.5), DivergenceSpec("GV", 0.3)])
def test_search_reaches_the_chi2_contraction(spec):
    # f''(1) > 0: the ratio tends to the chi^2 contraction as P -> Qx, which
    # the refinement's start at Qx reaches within the input-divergence floor;
    # the best draws alone leave the KL point 1.2e-5 short on channel 33
    for k in range(60):
        rng = np.random.default_rng([9090, k])
        n_in, n_out = rng.integers(2, 7, size=2)
        w = make_channel(rng.dirichlet(np.ones(n_out), size=n_in))
        sc = SourceChannelPair(make_distribution(range(n_in), rng.dirichlet(np.ones(n_in))), w)
        est = brute_force_mu_f(spec, sc, n_samples=300, seed=int(rng.integers(1 << 30)))
        assert est.point_estimate >= chi2_contraction(sc) - 1e-5, k


def test_searches_log_their_budget(caplog):
    caplog.set_level(logging.DEBUG, logger="divrel.contraction")
    sc = SourceChannelPair(UNIFORM2, bsc(0.1))
    brute_force_mu_f(DivergenceSpec("KL"), sc, n_samples=50, seed=1)
    mu_chi2_channel(make_channel([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]))
    # K_0 vanishes identically, so the best draw scores -inf and nothing is refined
    with pytest.raises(PreconditionViolated):
        brute_force_mu_f(DivergenceSpec("SKEW_K", 0.0), sc, n_samples=30)
    records = [r for r in caplog.records if r.name == "divrel.contraction"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    # (atoms, draws scored, refinement rounds, rows scored, final step, round cap)
    args = [records[0].args, records[2].args]
    assert [a[:2] for a in args] == [(2, 50), (2, 30)]
    _, _, rounds, rows, step, cap = args[0]
    assert 0 < rounds < divrel.contraction._MAX_ROUNDS and rows > rounds
    assert step < divrel.contraction._MIN_STEP and cap == "not reached"
    assert args[1][2:4] == (0, 0) and math.isnan(args[1][4]) and args[1][5] == "not reached"
    assert "draws scored" in records[0].getMessage()
    # the channel sup: (input pairs, bisection steps, final bracket width)
    pairs, steps, width = records[1].args
    assert (pairs, steps) == (3, divrel.contraction._BISECTIONS) and 0 < width < 1e-16
    assert "bisection steps" in records[1].getMessage()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ORACLE_SPECS))
def test_sampled_searches_are_seeded_and_bound_below_by_their_draws(seed, spec):
    rng = np.random.default_rng(seed)
    n_in, n_out = rng.integers(2, 7, size=2)
    w = make_channel(rng.dirichlet(np.ones(n_out), size=n_in))
    sc = SourceChannelPair(make_distribution(range(n_in), rng.dirichlet(np.ones(n_in))), w)
    est = brute_force_mu_f(spec, sc, n_samples=40, seed=seed)
    assert est.lower <= est.point_estimate
    assert brute_force_mu_f(spec, sc, n_samples=40, seed=seed) == est
    mu = mu_chi2_channel(w)
    draws = np.random.default_rng(seed).dirichlet(np.ones(n_in), size=40)
    draws = draws[np.all(draws > 0, axis=1) & np.all(draws @ w.matrix > 0, axis=1)]
    best = divrel.contraction._chi2_contraction_rows(draws, w.matrix).max(initial=-math.inf)
    assert mu >= best - 1e-12


@st.composite
def channels_with_input_laws(draw):
    """A 2-6 x 2-6 channel, some entries zero, every output reachable; a
    positive input law; and a permutation of the inputs and of the outputs."""
    n_in, n_out = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    m = np.array(draw(st.lists(entry, min_size=n_in * n_out, max_size=n_in * n_out)))
    m = m.reshape(n_in, n_out)
    assume(m.any(axis=1).all() and m.any(axis=0).all())
    qx = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_in, max_size=n_in)))
    perms = draw(st.permutations(range(n_in))), draw(st.permutations(range(n_out)))
    return m / m.sum(axis=1, keepdims=True), qx / qx.sum(), perms


@settings(max_examples=300, deadline=None)
@given(channels_with_input_laws())
def test_channel_sup_bounds_every_input_law_and_ignores_letter_order(case):
    m, qx, (perm_in, perm_out) = case
    mu = mu_chi2_channel(make_channel(m))
    sc = SourceChannelPair(make_distribution(range(len(qx)), qx), make_channel(m))
    assert chi2_contraction(sc) <= mu + 1e-12
    permuted = make_channel(m[list(perm_in)][:, list(perm_out)])
    assert abs(mu_chi2_channel(permuted) - mu) <= 1e-15
