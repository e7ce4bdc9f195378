import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divrel.identities
from divrel import (
    align,
    check_chi2_half_identity,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
    chi_squared,
    f_k_divergence,
    kl,
    make_distribution,
    mixture,
    polylog_f,
)
from divrel.divergences import generic_f_divergence
from divrel.errors import DivrelError, DomainError
from divrel.identities import IdentityReport, check_skew_s_integral, integrate

from conftest import random_pair

P = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
Q = make_distribution([0, 1, 2], [0.4, 0.1, 0.5])

# 30-digit reference values for the polylog kernels
LI2_AT_MINUS_3 = -1.93937542076670895
LI3_AT_MINUS_5_5 = -3.80780464575599856
FK2_PQ = 0.220543718121809251
FK3_PQ = 0.129613418144618624
FK2_R06_P = 0.0620068362148124858


def test_integrate_simple():
    assert integrate(lambda s: s * s, 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-12)
    assert integrate(lambda s: 1.0, 2.0, 2.0) == 0.0


CHECKS = {
    "kl_chi2": lambda p, q: check_kl_chi2_identity(p, q, 0.6),
    "chi2_half": check_chi2_half_identity,
    "gv": lambda p, q: check_gv_identity(p, q, 0.6),
    "recursive_k0": lambda p, q: check_recursive_identity(0, p, q, 0.6),
    "recursive_k2": lambda p, q: check_recursive_identity(2, p, q, 0.6),
    "skew_s": lambda p, q: check_skew_s_integral(0.35, p, q),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_check_makes_one_quadrature_call(monkeypatch, name):
    calls = []

    def counting(f, *edges):
        calls.append(edges)
        return integrate(f, *edges)

    monkeypatch.setattr(divrel.identities, "integrate", counting)
    assert CHECKS[name](P, Q).passed
    assert len(calls) == 1


def test_skew_s_first_round_has_panels_on_both_sides_of_alpha(monkeypatch):
    rounds = []

    def recording(f, *edges):
        def g(s):
            rounds.append(s.copy())
            return f(s)

        return integrate(g, *edges)

    monkeypatch.setattr(divrel.identities, "integrate", recording)
    alpha = 0.35
    assert check_skew_s_integral(alpha, P, Q).passed
    # node-major: column j holds the 15 nodes of panel j
    panels = rounds[0].reshape(15, -1).T
    below = (panels < alpha).all(axis=1)
    above = (panels > alpha).all(axis=1)
    assert (below | above).all()
    assert below.sum() == above.sum() == 4


def test_report_comparison_tolerances():
    r = IdentityReport.compare("x", 1.0, 1.0 + 1e-9)
    assert r.passed
    r = IdentityReport.compare("x", 1.0, 1.01)
    assert not r.passed



def test_report_comparison_with_infinite_sides():
    r = IdentityReport.compare("x", math.inf, math.inf)
    assert (r.abs_err, r.rel_err, r.passed) == (0.0, 0.0, True)
    for lhs, rhs in ((math.inf, 5.0), (5.0, math.inf)):
        r = IdentityReport.compare("x", lhs, rhs)
        assert (r.abs_err, r.rel_err, r.passed) == (math.inf, 1.0, False)


def test_chi2_half_identity_infinite_sides():
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    r = check_chi2_half_identity(p, q)
    assert r.lhs == r.rhs == math.inf
    assert (r.abs_err, r.rel_err, r.passed) == (0.0, 0.0, True)


@pytest.mark.parametrize("lam", [-0.1, 1.1])
def test_recursive_identity_needs_a_weight_in_the_unit_interval(lam):
    with pytest.raises(DomainError, match="mixture weight"):
        check_recursive_identity(1, P, Q, lam)


@pytest.mark.parametrize("check", [
    check_kl_chi2_identity, check_gv_identity,
    lambda p, q, lam: check_recursive_identity(0, p, q, lam),
])
def test_identities_at_lam_one_with_infinite_sides(check):
    # Q lacks an atom of P: D(P||Q) = inf, and the curve is not integrable at s = 1
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    r = check(p, q, 1.0)
    assert r.lhs == r.rhs == math.inf
    assert (r.abs_err, r.rel_err, r.passed) == (0.0, 0.0, True)
    # short of s = 1, and in the other direction, both sides are finite
    for args in ((p, q, 0.999), (q, p, 1.0)):
        r = check(*args)
        assert math.isfinite(r.rhs) and r.passed

def test_kl_chi2_identity_reference_pair():
    for lam in (0.2, 0.5, 1.0):
        rep = check_kl_chi2_identity(P, Q, lam)
        assert rep.passed, rep
        assert rep.lhs == pytest.approx(kl(P, mixture(P, Q, lam)), rel=1e-14)


def test_chi2_half_identity_reference_pair():
    rep = check_chi2_half_identity(P, Q)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.5 * chi_squared(P, Q), rel=1e-14)


def test_gv_identity_reference_pair():
    for lam in (0.3, 0.8, 1.0):
        assert check_gv_identity(P, Q, lam).passed


def test_polylog_kernel_low_orders():
    # closed forms for orders 0 and 1
    assert polylog_f(0, 0.25) == pytest.approx(3.0, rel=1e-14)
    assert polylog_f(1, 0.25) == pytest.approx(math.log(4.0), rel=1e-14)
    assert polylog_f(2, 1.0) == 0.0


def test_polylog_kernel_against_reference():
    # Li_2(-3) corresponds to x = 4, Li_3(-5.5) to x = 6.5
    assert polylog_f(2, 4.0) == pytest.approx(LI2_AT_MINUS_3, rel=1e-11)
    assert polylog_f(3, 6.5) == pytest.approx(LI3_AT_MINUS_5_5, rel=1e-11)


def test_polylog_kernel_domain():
    with pytest.raises(DomainError):
        polylog_f(2, 0.0)
    with pytest.raises(DomainError):
        polylog_f(-1, 0.5)


@pytest.mark.parametrize("k, x", [
    (2.5, 3.0), (0.5, 0.5), (True, 0.5), (False, 0.5), (math.nan, 0.5), (math.inf, 0.5),
    (2, math.inf), (2, math.nan), (3, [0.5, math.inf]), (0, math.inf), (1, math.nan),
])
def test_polylog_kernel_rejects_bad_order_and_non_finite_x(k, x):
    with pytest.raises(DivrelError):
        polylog_f(k, x)


def test_polylog_kernel_accepts_integral_orders_of_any_type():
    assert polylog_f(2.0, 4.0) == polylog_f(2, 4.0) == polylog_f(np.int64(2), 4.0)


def _mp_polylog_kernel(k, x):
    """Li_k(1 - x) from mpmath, with 1 - x formed exactly."""
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.polylog(k, 1 - mpmath.mpf(x)))


def _assert_matches_mpmath(k, xs, rel=1e-13):
    got = polylog_f(k, np.asarray(xs, dtype=float))
    for x, value in zip(xs, np.atleast_1d(got)):
        want = _mp_polylog_kernel(k, x)
        assert abs(value - want) <= rel * abs(want), (k, x, value, want)


@pytest.mark.parametrize("k", range(2, 7))
def test_polylog_kernel_matches_mpmath_on_a_log_grid(k):
    # every region of the closed form: ln-expansion (x < 1/2), series
    # (1/2 <= x <= 1), the weighted alternating sum (1 < x <= 2) and the
    # inversion onto it (x > 2); the edges t -> 0- and t -> -1 from each
    # side, and 1.75, where duplication used to take over
    xs = np.concatenate([np.logspace(-12, 6, 181), [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                         [1 + 2.0 ** -52, 1.75, 2 - 2.0 ** -52, 2 + 2.0 ** -51]])
    _assert_matches_mpmath(k, xs)


@pytest.mark.parametrize("k", [28, 29, 64, 200])
def test_polylog_kernel_high_orders(k):
    # orders past the 28 terms of the ln-expansion, and past 170, where k!
    # is no longer a float
    _assert_matches_mpmath(k, [1e-6, 0.3, 0.9, 1.7, 2.0, 2.5, 1e3, 1e6])



def test_polylog_kernel_top_order():
    # the largest order the registry admits; one past it is rejected
    _assert_matches_mpmath(1000, [1e-6, 0.3, 0.9, 1.7, 2.0, 2.5, 1e3, 1e6])
    with pytest.raises(DomainError):
        polylog_f(1001, 0.5)


def test_polylog_kernel_memory_does_not_grow_with_the_order():
    # the ln-expansion keeps 28 terms at every order: past the 28th they
    # are below 1e-30 relative, so a table of k terms per point only costs
    import tracemalloc

    xs = np.geomspace(1e-6, 1e6, 2000)

    def peak(k):
        polylog_f(k, xs)  # coefficients cached, outside the measurement
        tracemalloc.start()
        try:
            polylog_f(k, xs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1000) <= 2 * peak(28)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.floats(1e-12, 1e6))
def test_polylog_kernel_matches_mpmath_random(k, x):
    _assert_matches_mpmath(k, [x])


def test_polylog_kernel_near_x_zero():
    # a power series stopped once its term falls below 1e-14 misses
    # Li_2(1 - 1e-6) by 3.7e-9 relative, since its tail is term/(1 - y)
    assert polylog_f(2, 1e-6) == pytest.approx(_mp_polylog_kernel(2, 1e-6), rel=1e-13, abs=0)


def test_f_k_divergence_low_orders_collapse():
    # order 0 is the reversed chi-squared, order 1 the reversed KL
    assert f_k_divergence(0, P, Q) == pytest.approx(chi_squared(Q, P), rel=1e-12)
    assert f_k_divergence(1, P, Q) == pytest.approx(kl(Q, P), rel=1e-12)


def _zero_atom_pairs():
    """Pairs with zero atoms on either side, some with infinite values."""
    pairs = [
        ([0.5, 0.5], [1.0, 0.0]),
        ([1.0, 0.0], [0.5, 0.5]),
        ([0.5, 0.5, 0.0], [0.0, 0.3, 0.7]),
        ([0.2, 0.0, 0.8], [0.2, 0.0, 0.8]),
    ]
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = rng.dirichlet(np.ones(5), size=2)
        p[rng.random(5) < 0.3] = 0.0
        q[rng.random(5) < 0.3] = 0.0
        p[0] += 0.1
        q[1] += 0.1
        pairs.append((p / p.sum(), q / q.sum()))
    return [(make_distribution(range(len(p)), p), make_distribution(range(len(q)), q))
            for p, q in pairs]


@pytest.mark.parametrize("k, reversed_closed_form", [(0, chi_squared), (1, kl)])
def test_f_k_divergence_low_orders_with_zero_atoms(k, reversed_closed_form):
    for p, q in _zero_atom_pairs():
        got = f_k_divergence(k, p, q)
        # the Li_k(1 - x) kernel summed atom by atom with its boundary limits
        kernel_sum = generic_f_divergence(lambda t: polylog_f(k, t), p, q, math.inf, 0.0)
        for want in (reversed_closed_form(q, p), kernel_sum):
            if math.isinf(want):
                assert got == math.inf
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    half, point = _zero_atom_pairs()[0]
    assert f_k_divergence(0, half, point) == pytest.approx(1.0, rel=1e-12)


def test_f_k_divergence_oracle_values():
    assert f_k_divergence(2, P, Q) == pytest.approx(FK2_PQ, rel=1e-11)
    assert f_k_divergence(3, P, Q) == pytest.approx(FK3_PQ, rel=1e-11)
    lhs = f_k_divergence(2, mixture(P, Q, 0.6), P)
    assert lhs == pytest.approx(FK2_R06_P, rel=1e-11)


def test_f_k_divergence_zero_mass_handling():
    p = make_distribution([0, 1], [1.0, 0.0])
    q = make_distribution([0, 1], [0.5, 0.5])
    # kernel at 0 diverges for k <= 1 but equals zeta(k) for k >= 2
    assert f_k_divergence(1, p, q) == math.inf
    assert math.isfinite(f_k_divergence(2, p, q))


def test_recursive_identity_reference_pair():
    for k in (0, 1, 2):
        rep = check_recursive_identity(k, P, Q, 0.6)
        assert rep.passed, rep


def test_f_k_monotone_decreasing_in_order():
    r = mixture(P, Q, 0.7)
    values = [f_k_divergence(k, r, P) for k in range(4)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8),
       st.floats(0.05, 1.0))
def test_kl_chi2_identity_random(seed, n, lam):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    assert check_kl_chi2_identity(p, q, lam).passed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_chi2_half_identity_random(seed, n):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    assert check_chi2_half_identity(p, q).passed


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6),
       st.floats(0.05, 1.0))
def test_gv_identity_random(seed, n, lam):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    assert check_gv_identity(p, q, lam).passed


def test_integrand_vanishes_at_small_mixing():
    # chi^2(P || R_s) behaves like s^2 chi^2(Q||P) near s = 0, so the
    # integrand chi^2/s tends to zero rather than diverging
    small = chi_squared(P, mixture(P, Q, 1e-6)) / 1e-6
    assert small == pytest.approx(1e-6 * chi_squared(Q, P), rel=1e-3)


def test_identity_checks_align_unaligned_supports():
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([1, 2], [0.3, 0.7])
    pa, qa = align(p, q)
    assert check_kl_chi2_identity(p, q, 0.5) == check_kl_chi2_identity(pa, qa, 0.5)
    assert check_chi2_half_identity(p, q) == check_chi2_half_identity(pa, qa)
    for k in (0, 1, 2):
        assert check_recursive_identity(k, p, q, 0.5) == check_recursive_identity(k, pa, qa, 0.5)


def test_mixture_path_checks_need_only_the_atoms_of_q_in_p():
    # the path R_s = (1-s)P + sQ stays on the support of P when that
    # support holds every atom of Q; Q is then padded with zero mass
    p = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
    q = make_distribution([0, 2], [0.6, 0.4])
    q3 = make_distribution([0, 1, 2], [0.6, 0.0, 0.4])
    assert check_kl_chi2_identity(p, q, 0.7) == check_kl_chi2_identity(p, q3, 0.7)
    assert check_recursive_identity(1, p, q, 0.7) == check_recursive_identity(1, p, q3, 0.7)
    assert check_gv_identity(p, q, 0.7) == check_gv_identity(p, q3, 0.7)
    assert check_chi2_half_identity(p, q) == check_chi2_half_identity(p, q3)
    with pytest.raises(DomainError):
        check_kl_chi2_identity(p, q3, 1.5)
