import math

import numpy as np
import pytest
import scipy.special

from divrel import (
    PoissonFamily,
    TypeClassProblem,
    d_star,
    kl_moment_lower_bound,
    lambert_w_minus1,
    moments,
    n_star,
    poisson_entropy,
    poisson_kl,
    poisson_pmf,
    redundancy_report,
    sanov_bound,
)
from divrel.applications import poisson_entropy_direct
from divrel.errors import DomainError, PreconditionViolated
from divrel.moment_bounds import MomentTuple, moment_bound_arrays

TCP = TypeClassProblem(
    m_q=40, var_q=20, mean_box=(43, 47), var_box=(18, 22),
    alphabet_size=2, epsilon=1e-10,
)

# 30-digit direct-summation references
H_POISSON_16 = 2.79984674636640488
H_POISSON_32 = 3.1491598981761601
W_AT_MINUS_02 = -2.54264135777352642
W_AT_MINUS_1E5 = -14.163600815810183


def test_poisson_pmf_truncation():
    d, delta = poisson_pmf(16.0)
    assert abs(delta) < 1e-14
    mean, var = moments(d)
    assert mean == pytest.approx(16.0, abs=1e-9)
    assert var == pytest.approx(16.0, abs=1e-8)


def test_poisson_pmf_small_rate_is_near_point_mass():
    d, _ = poisson_pmf(1e-6)
    assert d.mass[0] == pytest.approx(1.0, abs=2e-6)


def test_poisson_pmf_support_grows_with_rate():
    n16 = len(poisson_pmf(16.0)[0])
    n32 = len(poisson_pmf(32.0)[0])
    assert n32 > n16


@pytest.mark.parametrize("tail_tol", [1e-8, 1e-15, 1e-17, 1e-300])
@pytest.mark.parametrize("lam", [1e-6, 0.1, 16.0, 400.0, 1e4])
def test_poisson_pmf_matches_scipy_stats(lam, tail_tol):
    import scipy.stats

    d, delta = poisson_pmf(lam, tail_tol)
    n = len(d) - 1
    np.testing.assert_array_equal(d.support, np.arange(n + 1))
    # the pmf before renormalization, from the mass and the discarded tail
    oracle = scipy.stats.poisson.pmf(np.arange(n + 1), lam)
    assert delta == float(1.0 - oracle.sum())
    assert np.array_equal(d.mass, oracle / oracle.sum())
    assert scipy.stats.poisson.sf(n, lam) < tail_tol
    assert n == 0 or scipy.stats.poisson.sf(n - 1, lam) >= tail_tol


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, 2.0, -1.0, math.nan])
def test_poisson_pmf_rejects_tail_tol_outside_unit_interval(tail_tol):
    with pytest.raises(DomainError):
        poisson_pmf(16.0, tail_tol)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_poisson_functions_reject_bad_rates(lam):
    with pytest.raises(DomainError):
        poisson_pmf(lam)
    with pytest.raises(DomainError):
        poisson_kl(lam, 1.0)
    with pytest.raises(DomainError):
        poisson_kl(1.0, lam)
    with pytest.raises(DomainError):
        poisson_entropy(lam)


def test_poisson_kl_closed_form():
    assert poisson_kl(16, 16) == 0.0
    assert poisson_kl(16, 20) == pytest.approx(0.429703178972643908, rel=1e-14)
    assert poisson_kl(16, 20) != poisson_kl(20, 16)


def test_poisson_kl_matches_truncated_sum():
    import scipy.stats

    ks = np.arange(0, 400)
    for li in (16, 24, 32):
        for lj in (16, 24, 32):
            pi = scipy.stats.poisson.pmf(ks, li)
            pj = scipy.stats.poisson.pmf(ks, lj)
            pos = (pi > 0) & (pj > 0)  # deep-tail pmf underflow
            direct = float(np.sum(pi[pos] * np.log(pi[pos] / pj[pos])))
            assert poisson_kl(li, lj) == pytest.approx(direct, abs=1e-9)


def test_poisson_entropy_against_direct_sum():
    assert poisson_entropy(16.0) == pytest.approx(H_POISSON_16, abs=1e-9)
    assert poisson_entropy(32.0) == pytest.approx(H_POISSON_32, abs=1e-9)
    for lam in (16.0, 24.0, 32.0):
        assert poisson_entropy(lam) == pytest.approx(
            poisson_entropy_direct(lam), abs=1e-6
        )


def test_poisson_entropy_over_an_array_of_rates():
    rates = np.array([[0.5, 16.0], [32.0, 200.0]])
    got = poisson_entropy(rates)
    assert got.shape == rates.shape
    for lam, h in zip(rates.ravel(), got.ravel()):
        assert h == pytest.approx(poisson_entropy(float(lam)), rel=1e-12)
        assert h == pytest.approx(poisson_entropy_direct(float(lam)), abs=1e-9)
    for bad in ([], [16.0, math.nan], [16.0, 0.0]):
        with pytest.raises(DomainError):
            poisson_entropy(bad)


def test_poisson_entropy_increasing():
    hs = [poisson_entropy(float(lam)) for lam in (16, 20, 24, 28, 32)]
    assert hs == sorted(hs)


def test_redundancy_reference_family():
    pf = PoissonFamily((16, 20, 24, 28, 32), (0.2,) * 5)
    rep = redundancy_report(pf)
    assert rep["sum_kl_upper_bits"] == pytest.approx(1.46, abs=0.01)
    assert rep["convexity_upper_bits"] == pytest.approx(1.99, abs=0.01)
    assert 100 * rep["nu_upper_improved"] == pytest.approx(57.0, abs=0.5)
    assert 100 * rep["nu_upper_loose"] == pytest.approx(69.3, abs=0.5)


def test_redundancy_bound_ordering():
    pf = PoissonFamily((16, 20, 24, 28, 32), (0.2,) * 5)
    rep = redundancy_report(pf)
    # direct truth <= mixture-KL bound <= convexity bound, per source and in sum
    assert rep["direct_sum_bits"] <= rep["sum_kl_upper_bits"] + 1e-9
    assert rep["sum_kl_upper_bits"] <= rep["convexity_upper_bits"] + 1e-9
    for row in rep["per_source"]:
        assert row["kl_upper_bits"] <= row["convexity_bits"] + 1e-12


def test_redundancy_single_source():
    rep = redundancy_report(PoissonFamily((16,), (1.0,)))
    assert rep["sum_kl_upper_bits"] == 0.0
    assert rep["direct_sum_bits"] == pytest.approx(0.0, abs=1e-12)
    assert rep["nu_lower_direct"] == pytest.approx(0.0, abs=1e-12)


def test_poisson_family_validation():
    with pytest.raises(DomainError):
        PoissonFamily((16, -1), (0.5, 0.5))
    with pytest.raises(DomainError):
        PoissonFamily((16, 20), (0.5, 0.6))


@pytest.mark.parametrize("lambdas, weights", [
    ((1.0, 2.0), (math.nan, 1.0)),
    ((1.0, 2.0), (math.inf, 0.5)),
    ((math.nan, 2.0), (0.5, 0.5)),
    ((math.inf, 2.0), (0.5, 0.5)),
])
def test_poisson_family_rejects_non_finite_entries(lambdas, weights):
    with pytest.raises(DomainError):
        PoissonFamily(lambdas, weights)


def test_d_star_reference_instance():
    assert d_star(TCP) == pytest.approx(0.203, abs=1e-3)


def test_d_star_point_box_equals_direct_bound():
    tcp = TypeClassProblem(
        m_q=40, var_q=20, mean_box=(45, 45), var_box=(20, 20),
        alphabet_size=2, epsilon=1e-10,
    )
    direct = kl_moment_lower_bound(MomentTuple(45, 20, 40, 20)).bound_nats
    assert d_star(tcp, grid=3) == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(0.521, abs=1e-3)


def test_d_star_monotone_in_box_widening():
    wide = TypeClassProblem(
        m_q=40, var_q=20, mean_box=(43, 47), var_box=(14, 26),
        alphabet_size=2, epsilon=1e-10,
    )
    assert d_star(wide, grid=51) <= d_star(TCP, grid=51) + 1e-12


def test_d_star_below_every_grid_vertex():
    val = d_star(TCP)
    for m_p in np.linspace(43, 47, 9):
        for v_p in np.linspace(18, 22, 9):
            vertex = kl_moment_lower_bound(
                MomentTuple(float(m_p), float(v_p), 40, 20)
            ).bound_nats
            assert val <= vertex + 1e-9


def test_type_class_problem_validation():
    with pytest.raises(PreconditionViolated):
        TypeClassProblem(45, 20, (43, 47), (18, 22), 2, 1e-10)
    with pytest.raises(DomainError):
        TypeClassProblem(40, 20, (47, 43), (18, 22), 2, 1e-10)
    with pytest.raises(DomainError):
        TypeClassProblem(40, 20, (43, 47), (18, 22), 1, 1e-10)
    with pytest.raises(DomainError):
        TypeClassProblem(40, 20, (43, 47), (18, 22), 2, 1.5)


def test_lambert_branch_point_and_exact_preimages():
    assert lambert_w_minus1(-1 / math.e) == -1.0
    assert lambert_w_minus1(-2 * math.exp(-2)) == pytest.approx(-2.0, abs=1e-13)


def test_lambert_reference_values():
    assert lambert_w_minus1(-0.2) == pytest.approx(W_AT_MINUS_02, rel=1e-13)
    assert lambert_w_minus1(-1e-5) == pytest.approx(W_AT_MINUS_1E5, rel=1e-13)


def test_lambert_residual_and_scipy_agreement():
    for y in (-0.36, -0.1, -1e-3, -1e-8, -1.657e-11):
        x = lambert_w_minus1(y)
        assert x <= -1.0
        assert abs(x * math.exp(x) - y) < 1e-13 * abs(y)
        ref = float(scipy.special.lambertw(y, -1).real)
        assert x == pytest.approx(ref, rel=1e-12)


def test_lambert_domain():
    for y in (-1.0, 0.0, 0.5):
        with pytest.raises(DomainError):
            lambert_w_minus1(y)


def test_n_star_reference_instances():
    d = d_star(TCP)
    assert n_star(TCP, d) == 138
    tcp100 = TypeClassProblem(
        m_q=40, var_q=20, mean_box=(43, 47), var_box=(18, 22),
        alphabet_size=100, epsilon=1e-10,
    )
    assert n_star(tcp100, d) == 4170


def test_n_star_is_true_threshold():
    d = d_star(TCP)
    for tcp in (
        TCP,
        TypeClassProblem(40, 20, (43, 47), (18, 22), 100, 1e-10),
        TypeClassProblem(40, 20, (43, 47), (18, 22), 5, 1e-4),
    ):
        n = n_star(tcp, d)
        assert sanov_bound(tcp, n, d) <= tcp.epsilon
        if n > 1:
            assert sanov_bound(tcp, n - 1, d) > tcp.epsilon


def test_sanov_bound_clipping_and_decay():
    d = 0.203
    assert sanov_bound(TCP, 1, d) == 1.0
    values = [sanov_bound(TCP, n, d) for n in (50, 100, 138, 200)]
    assert values == sorted(values, reverse=True)
    assert sanov_bound(TCP, 138, d) <= 1e-10


def test_eta_stays_in_branch_over_parameter_sweep():
    # for epsilon < 1 the transformed argument cannot leave [-1/e, 0),
    # so n_star succeeds across a wide sweep without a branch guard
    for k in (2, 5, 100):
        for eps in (0.5, 1e-4, 1e-12):
            for dv in (1e-3, 0.2, 5.0, 50.0):
                tcp = TypeClassProblem(40, 20, (43, 47), (18, 22), k, eps)
                n = n_star(tcp, dv)
                assert n >= 1
                assert sanov_bound(tcp, n, dv) <= eps


def test_d_star_grid_pass_matches_scalar_loop():
    # the variance range starts at 0, so the grid holds the var_p = 0 branch
    tcp = TypeClassProblem(
        m_q=40, var_q=20, mean_box=(43, 47), var_box=(0, 22),
        alphabet_size=2, epsilon=1e-10,
    )
    grid = 21
    means, variances = np.linspace(43, 47, grid), np.linspace(0, 22, grid)
    loop = [
        kl_moment_lower_bound(MomentTuple(float(m), float(v), 40, 20)).bound_nats
        for m in means for v in variances
    ]
    bounds = moment_bound_arrays(means[:, None], variances[None, :], 40, 20)[-1]
    assert np.array_equal(bounds.ravel(), np.array(loop))
    assert d_star(tcp, grid=grid) == pytest.approx(min(loop), rel=1e-12)
