import functools
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

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
from divrel import applications, distributions
from divrel.errors import DomainError, NonFinite, PreconditionViolated, QuadratureFailure
from divrel.moment_bounds import MomentTuple, moment_bound_arrays

from oracles import (mixture_kl_mpmath, poisson_entropy_direct, poisson_entropy_mpmath,
                     poisson_kl_mpmath)

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


@functools.cache
def _mpmath_pmf(lam: float) -> list:
    """Poisson(lam) at 0..N of tail_tol 1e-300, exp(k ln lam - ln k! - lam)
    at 30 digits."""
    n = len(poisson_pmf(lam, 1e-300)[0])
    with mpmath.workdps(30):
        return [mpmath.exp(k * mpmath.log(lam) - mpmath.loggamma(k + 1) - lam)
                for k in range(n)]


@pytest.mark.parametrize("tail_tol", [1e-8, 1e-15, 1e-17, 1e-300])
@pytest.mark.parametrize("lam", [1e-6, 0.1, 16.0, 400.0, 1e4])
def test_poisson_pmf_matches_scipy_stats(lam, tail_tol):
    import scipy.stats

    d, delta = poisson_pmf(lam, tail_tol)
    n = len(d) - 1
    np.testing.assert_array_equal(d.support, np.arange(n + 1))
    # N is the first atom whose tail lies below tail_tol
    assert scipy.stats.poisson.sf(n, lam) < tail_tol
    assert n == 0 or scipy.stats.poisson.sf(n - 1, lam) >= tail_tol
    # the mass and tail to 30 digits
    with mpmath.workdps(30):
        pmf = _mpmath_pmf(lam)[:n + 1]
        total = mpmath.fsum(pmf)
        oracle = np.array([float(p / total) for p in pmf])
        assert delta == pytest.approx(float(1 - total), rel=0, abs=2e-15)
    # the tail beyond N, never negative, against mpmath's regularized
    # incomplete gamma P(N + 1, lam) at 60 digits where that is a normal float
    assert delta >= 0.0
    with mpmath.workdps(60):
        tail = float(mpmath.gammainc(n + 1, 0, lam, regularized=True))
    if tail >= sys.float_info.min:
        assert delta == pytest.approx(tail, rel=1e-7, abs=0)
    # no atom is further off than under the formula scipy.stats.poisson uses,
    # exp(xlogy(k, lam) - gammaln(k + 1) - lam); atoms below the normal
    # range carry fewer digits in any formula
    ks = np.arange(n + 1.0)
    direct = np.exp(scipy.special.xlogy(ks, lam) - scipy.special.gammaln(ks + 1) - lam)
    normal = oracle >= sys.float_info.min

    def worst(mass):
        return np.max(np.abs(mass[normal] / oracle[normal] - 1.0))

    assert worst(d.mass) <= worst(direct / direct.sum())
    assert worst(d.mass) < 1e-14


def test_poisson_pmf_truncates_where_pdtrc_does():
    # 918 cases: 306 rates from 1e-3 to 3000 and 1e4, three tolerances;
    # N is the first atom whose tail pdtrc(N, lam) lies below tail_tol
    for lam in [*np.geomspace(1e-3, 3000.0, 305), 1e4]:
        for tail_tol in (1e-15, 1e-12, 1e-8):
            d, delta = poisson_pmf(lam, tail_tol)
            n = len(d) - 1
            before, after = scipy.special.pdtrc([n - 1, n], lam)
            assert after < tail_tol and (n == 0 or before >= tail_tol), (lam, tail_tol)
            assert 0.0 <= delta < tail_tol, (lam, tail_tol)


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, 2.0, -1.0, math.nan])
def test_poisson_pmf_rejects_tail_tol_outside_unit_interval(tail_tol):
    with pytest.raises(DomainError):
        poisson_pmf(16.0, tail_tol)


def test_poisson_pmf_rejects_rates_past_its_cap_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        # a window of 1e12 atoms would ask for terabytes
        with pytest.raises(DomainError, match=r"up to 1e\+06"):
            poisson_pmf(1e12)
        with pytest.raises(DomainError, match=r"up to 1e\+06"):
            redundancy_report(PoissonFamily((1e12,), (1.0,)))
        with pytest.raises(DomainError, match=r"up to 1e\+06"):
            poisson_entropy(2e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the closed form allocates nothing per atom and takes every finite rate
    assert poisson_kl(1e12, 2e12) > 0.0


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


def test_poisson_entropy_against_mpmath_and_the_asymptotic_series():
    rates = np.geomspace(1e-12, 1e3, 40)
    for lam, h in zip(rates, poisson_entropy(rates)):
        ref = poisson_entropy_mpmath(float(lam))
        assert abs(h - ref) <= 2e-15 * ref, (lam, h, ref)
    # past rate 1e5 the series is exact to about lam^-4
    for lam in (1e5, 1e6):
        ref = (0.5 * math.log(2.0 * math.pi * math.e * lam) - 1.0 / (12.0 * lam)
               - 1.0 / (24.0 * lam**2) - 19.0 / (360.0 * lam**3))
        assert poisson_entropy(lam) == pytest.approx(ref, rel=2e-15)


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


def test_poisson_kl_is_exact_on_near_equal_rates():
    # lam_i ln(lam_i/lam_j) + lam_j - lam_i cancels about 30 digits at the
    # closest pairs below, so the oracle takes it at 80
    for lam_j in np.geomspace(1e-3, 1e6, 37):
        for gap in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1):
            for lam_i in (lam_j * (1.0 + gap), lam_j * (1.0 - gap)):
                got = poisson_kl(lam_i, lam_j)
                assert got >= 0.0
                want = float(poisson_kl_mpmath(lam_i, lam_j, 80))
                assert got == pytest.approx(want, rel=1e-15, abs=0)
    # lam_i ln(lam_i/lam_j) + lam_j - lam_i in floats gives -3.47e-11 and
    # misses the second pair by 93%
    assert poisson_kl(999999.999, 1e6) == pytest.approx(5.0e-13, rel=1e-6)
    assert poisson_kl(400, 400.000004) == pytest.approx(
        float(poisson_kl_mpmath(400, 400.000004, 80)), rel=1e-15)


# the families of the tests above and 20 seeded ones of up to 40 log-uniform rates
_RNG = np.random.default_rng(21)
FAMILIES = [np.array(f) for f in ((16.0, 20.0, 24.0, 28.0, 32.0), (16.0,),
                                  (0.5, 16.0, 32.0, 200.0), (1e-6, 0.1, 16.0, 400.0, 1e4))]
FAMILIES += [np.exp(_RNG.uniform(math.log(1e-12), math.log(1e4), _RNG.integers(1, 41)))
             for _ in range(20)]


@pytest.mark.parametrize("rates", FAMILIES, ids=range(len(FAMILIES)))
def test_family_rows_are_the_one_rate_pmfs(rates):
    p_a, rel, n, tail, _ = applications._poisson_family(rates, 1e-15)
    rows = applications._pmf_rows(p_a, rel, n)
    assert rows.shape == (len(rates), n.max() + 1)
    for lam, row, n_i, tail_i in zip(rates, rows, n, tail):
        d, delta = poisson_pmf(float(lam))
        assert n_i == len(d) - 1 and tail_i == delta
        assert not row[n_i + 1:].any()
        # a row is renormalized over the family's width, one rate's pmf over its
        # own: the sums may differ in the last bit
        np.testing.assert_allclose(row[:n_i + 1], d.mass, rtol=1e-15, atol=sys.float_info.min)


@pytest.mark.parametrize("rates", FAMILIES, ids=range(len(FAMILIES)))
def test_poisson_entropy_of_a_family_is_the_per_rate_entropy(rates, monkeypatch):
    want = np.array([poisson_entropy(float(lam)) for lam in rates])
    assert poisson_entropy(rates) == pytest.approx(want, rel=1e-15, abs=0)
    # in blocks of a few rows, from the rates in another order
    monkeypatch.setattr(distributions, "_STACK_ENTRIES", 2000)
    assert poisson_entropy(rates[::-1]) == pytest.approx(want[::-1], rel=1e-15, abs=0)


def test_poisson_entropy_memory_stays_bounded_over_a_spread_of_rates():
    import tracemalloc

    # a family of 200 rows as wide as the widest window would take 1.6 GB
    tracemalloc.start()
    try:
        h = poisson_entropy(np.geomspace(1e-12, 1e6, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert np.all(np.diff(h) > 0)


def test_redundancy_with_a_zero_weight_source_far_from_the_others():
    # c = D(P_2||P_1) is about 2e4 nats, so e^-c underflows: the bound of the
    # source of weight 0 is c itself, and its law, which escapes the
    # mixture's support, is left out of the direct column
    rep = redundancy_report(PoissonFamily((1.0, 3000.0), (1.0, 0.0)))
    far = rep["per_source"][1]
    assert far["kl_upper_bits"] == far["convexity_bits"] == poisson_kl(3000.0, 1.0) / math.log(2)
    assert rep["sum_kl_upper_bits"] == rep["convexity_upper_bits"] == 0.0
    assert rep["direct_sum_bits"] == pytest.approx(0.0, abs=1e-15)


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


def test_redundancy_direct_sum_with_subnormal_masses_matches_mpmath():
    # the windows start at atom 0, and their lower tails hold subnormal
    # masses: unscaled, half of 5e-324 rounds to 0 in the mixture and the
    # sum read +inf
    rates, w = (5000.0, 5001.0), np.array([0.5, 0.5])
    laws = [poisson_pmf(x)[0].mass for x in rates]
    assert all(((law > 0.0) & (law < sys.float_info.min)).any() for law in laws)
    # the family pads each window with zeros up to the longest
    stack = np.zeros((2, max(map(len, laws))))
    for row, law in zip(stack, laws):
        row[:len(law)] = law
    want = float(w @ mixture_kl_mpmath(w, stack)) / math.log(2.0)
    assert want == pytest.approx(3.6062868231363639e-05, rel=1e-15)
    rep = redundancy_report(PoissonFamily(rates, tuple(w)))
    assert rep["direct_sum_bits"] == pytest.approx(want, rel=1e-11)


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
    assert d_star(tcp) == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(0.521, abs=1e-3)


def test_d_star_monotone_in_box_widening():
    wide = TypeClassProblem(
        m_q=40, var_q=20, mean_box=(43, 47), var_box=(14, 26),
        alphabet_size=2, epsilon=1e-10,
    )
    assert d_star(wide) <= d_star(TCP) + 1e-12


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


@pytest.mark.parametrize("var_q, var_box", [(-1.0, (18, 22)), (20, (-1.0, 22))])
def test_type_class_problem_rejects_negative_variances(var_q, var_box):
    with pytest.raises(DomainError, match="non-negative"):
        TypeClassProblem(40, var_q, (43, 47), var_box, 2, 1e-10)


def test_lambert_w_names_the_budget_it_ran_out_of(monkeypatch):
    monkeypatch.setattr(applications, "_HALLEY_STEPS", 0)
    with pytest.raises(QuadratureFailure,
                       match=r"budget 0 Halley steps\): \|x e\^x - y\| = 0\.0591 .* target 2e-14"):
        lambert_w_minus1(-0.2)


@pytest.mark.parametrize("shift", [1, -1])
def test_n_star_corrects_a_closed_form_one_step_off(monkeypatch, shift):
    # W moved by d/(k-1) moves the closed-form n by one the other way (to 137
    # or 139); the bracket and the bisection bring it back to the threshold
    d, k = d_star(TCP), TCP.alphabet_size
    exact = applications._w_minus1_of_log
    monkeypatch.setattr(applications, "_w_minus1_of_log",
                        lambda head, tail=0.0: exact(head, tail) + shift * d / (k - 1))
    assert n_star(TCP, d) == 138


def test_sanov_bound_takes_d_star_when_no_floor_is_given():
    assert sanov_bound(TCP, 100) == sanov_bound(TCP, 100, d_star(TCP))


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


# y = -1/e + 10^u near the branch point, where W'(y) = 1/(e^W (W + 1)) is
# unbounded, and y = -10^u down to the smallest normal magnitudes
_LAMBERT_ARGS = st.one_of(
    st.floats(-16.0, -0.45).map(lambda u: -1.0 / math.e + 10.0 ** u),
    st.floats(-300.0, -0.44).map(lambda u: -(10.0 ** u)),
)


@settings(max_examples=300, deadline=None)
@given(_LAMBERT_ARGS)
def test_lambert_against_mpmath(y):
    # the documented residual, in floats as the iteration takes it
    x = lambert_w_minus1(y)
    assert abs(x * math.exp(x) - y) < 1e-13 * abs(y)
    # so x lies within that residual over |(x e^x)'| at W, to first order, of
    # 40-digit W at the same float y: three times that, and 4 ulp of W
    with mpmath.workdps(40):
        w = mpmath.lambertw(y, -1).real
        slope = abs(mpmath.exp(w) * (w + 1))
        err = float(abs(mpmath.mpf(x) - w))
        bound = float(3e-13 * abs(y) / slope) + 4 * math.ulp(float(w))
    assert err <= bound


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


@pytest.mark.parametrize("d", [math.nan, 0.0, -1.0, -math.inf])
def test_sanov_bound_needs_a_positive_floor(d):
    with pytest.raises(DomainError):
        sanov_bound(TCP, 10, d)
    assert sanov_bound(TCP, 10, math.inf) == 0.0


@pytest.mark.parametrize("n", [math.nan, 2.5, True, 0])
def test_sanov_bound_needs_an_integer_sample_size(n):
    with pytest.raises(DomainError):
        sanov_bound(TCP, n, 0.203)


def test_sanov_bound_clipping_and_decay():
    d = 0.203
    assert sanov_bound(TCP, 1, d) == 1.0
    values = [sanov_bound(TCP, n, d) for n in (50, 100, 138, 200)]
    assert values == sorted(values, reverse=True)
    assert sanov_bound(TCP, 138, d) <= 1e-10
    assert sanov_bound(TCP, np.int64(138), d) == sanov_bound(TCP, 138, d)


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
    assert d_star(tcp) == pytest.approx(min(loop), rel=1e-12)


def test_d_star_is_the_minimum_of_a_dense_grid():
    # boxes on both sides of m_q, point boxes and var_lo = 0 among them
    rng = np.random.default_rng(10)
    for i in range(24):
        m_q, var_q = rng.uniform(-20, 20), 10 ** rng.uniform(-2, 2)
        side = 1 if i % 2 else -1
        near = m_q + side * 10 ** rng.uniform(-4, 1)
        width = 0.0 if i % 6 == 0 else rng.uniform(0, 10)
        mean_box = tuple(sorted((near, near + side * width)))
        v_lo = 0.0 if i % 3 == 0 else rng.uniform(0, 30)
        var_box = (v_lo, v_lo + (0.0 if i % 6 == 0 else rng.uniform(0, 30)))
        tcp = TypeClassProblem(m_q, var_q, mean_box, var_box, 2, 1e-10)
        means, variances = np.linspace(*mean_box, 301), np.linspace(*var_box, 301)
        grid = moment_bound_arrays(means[:, None], variances[None, :], m_q, var_q)[-1]
        assert d_star(tcp) == pytest.approx(grid.min(), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("field, value", [
    ("m_q", math.nan), ("m_q", math.inf), ("var_q", math.nan), ("var_q", math.inf),
    ("mean_box", (43, math.inf)), ("mean_box", (math.nan, 47)), ("mean_box", (-math.inf, 37)),
    ("var_box", (18, math.inf)), ("var_box", (math.nan, 22)),
])
def test_type_class_problem_rejects_non_finite_inputs(field, value):
    fields = dict(m_q=40, var_q=20, mean_box=(43, 47), var_box=(18, 22),
                  alphabet_size=2, epsilon=1e-10)
    with pytest.raises(NonFinite):
        TypeClassProblem(**{**fields, field: value})


@pytest.mark.parametrize("k", [2.5, 2.0, True, 1, 0, -3])
def test_type_class_problem_rejects_bad_alphabet_size(k):
    with pytest.raises(DomainError):
        TypeClassProblem(40, 20, (43, 47), (18, 22), k, 1e-10)
    assert TypeClassProblem(40, 20, (43, 47), (18, 22), np.int64(3), 1e-10).alphabet_size == 3


def test_point_mass_reference_law_needs_one_sample():
    # var_q = 0: Q is a point mass at m_q, every P in the box has D(P||Q) = inf
    tcp = TypeClassProblem(40, 0.0, (43, 47), (18, 22), 2, 1e-10)
    d = d_star(tcp)
    assert d == math.inf
    assert n_star(tcp, d) == 1
    assert sanov_bound(tcp, 1, d) == 0.0
    with pytest.raises(DomainError):
        n_star(tcp, math.nan)
