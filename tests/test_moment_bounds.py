import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrel import (
    MomentTuple,
    attaining_pair,
    binary_kl,
    chi_squared,
    equal_means_quaternary,
    equal_means_sequence,
    exponential_kl,
    gaussian_kl,
    hcr_lower_bound,
    kl,
    kl_moment_lower_bound,
    make_distribution,
    mixture,
    mixture_variance,
    moments,
)
from divrel.errors import (
    DegenerateVariance,
    DomainError,
    EpsilonTooLarge,
    PreconditionViolated,
)


def test_reference_case_one():
    mt = MomentTuple(45, 20, 40, 20)
    cert = kl_moment_lower_bound(mt)
    assert cert.bound_nats == pytest.approx(0.521, abs=1e-3)
    assert gaussian_kl(mt) == pytest.approx(0.625, abs=1e-3)
    assert exponential_kl(mt) == pytest.approx(1.118, abs=1e-3)


def test_reference_case_two():
    mt = MomentTuple(50, 10, 35, 20)
    assert kl_moment_lower_bound(mt).bound_nats == pytest.approx(2.332, abs=1e-3)
    assert gaussian_kl(mt) == pytest.approx(5.722, abs=1e-3)
    assert exponential_kl(mt) == pytest.approx(3.701, abs=1e-3)


def test_bound_is_binary_kl_of_certificate():
    cert = kl_moment_lower_bound(MomentTuple(3, 2, 1, 5))
    assert cert.bound_nats == pytest.approx(binary_kl(cert.r, cert.s), rel=1e-14)


def test_equal_means_bound_is_zero():
    cert = kl_moment_lower_bound(MomentTuple(5, 1, 5, 9))
    assert cert.bound_nats == 0.0


def test_degenerate_p_variance_branches():
    # positive mean gap
    cert = kl_moment_lower_bound(MomentTuple(2, 0, 0, 1))
    assert cert.r == 1.0
    assert cert.s == pytest.approx(1 / 5)
    assert cert.bound_nats == pytest.approx(-math.log(cert.s), rel=1e-12)
    # negative mean gap
    cert = kl_moment_lower_bound(MomentTuple(-2, 0, 0, 1))
    assert cert.r == 0.0
    assert cert.s == pytest.approx(4 / 5)


def test_attaining_pair_reference_case():
    mt = MomentTuple(45, 20, 40, 20)
    p, q = attaining_pair(mt)
    cert = kl_moment_lower_bound(mt)
    assert kl(p, q) == pytest.approx(cert.bound_nats, abs=1e-13)
    mp_, vp = moments(p)
    mq_, vq = moments(q)
    assert mp_ == pytest.approx(45, abs=1e-10)
    assert vp == pytest.approx(20, abs=1e-9)
    # Q shares the support but not the prescribed moments in general


def test_attaining_pair_preconditions():
    with pytest.raises(PreconditionViolated):
        attaining_pair(MomentTuple(1, 1, 1, 2))
    with pytest.raises(PreconditionViolated):
        attaining_pair(MomentTuple(1, 0, 0, 2))


def test_hcr_bound_below_chi2():
    p = make_distribution([0, 1, 4], [0.2, 0.5, 0.3])
    q = make_distribution([0, 1, 4], [0.5, 0.3, 0.2])
    for lam in (0.2, 0.6, 1.0):
        hcr = hcr_lower_bound(p, q, lam)
        assert hcr <= chi_squared(p, mixture(p, q, lam)) + 1e-12


def test_hcr_degenerate_variance():
    p = make_distribution([1.0], [1.0])
    with pytest.raises(DegenerateVariance):
        hcr_lower_bound(p, p, 0.5)


def test_mixture_variance_formula():
    p = make_distribution([0, 1, 4], [0.2, 0.5, 0.3])
    q = make_distribution([0, 1, 4], [0.5, 0.3, 0.2])
    m_p, v_p = moments(p)
    m_q, v_q = moments(q)
    mt = MomentTuple(m_p, v_p, m_q, v_q)
    for lam in (0.0, 0.3, 0.7, 1.0):
        _, v_mix = moments(mixture(p, q, lam))
        assert mixture_variance(mt, lam) == pytest.approx(v_mix, rel=1e-10)


def test_three_point_sequence_moments_and_decay():
    prev = math.inf
    for eps in (1e-2, 1e-4, 1e-6):
        p, q = equal_means_sequence(2.0, 1.0, 4.0, eps)
        m_p, v_p = moments(p)
        m_q, v_q = moments(q)
        assert m_p == pytest.approx(2.0, abs=1e-9)
        assert m_q == pytest.approx(2.0, abs=1e-8)
        assert v_p == pytest.approx(1.0, abs=1e-9)
        assert v_q == pytest.approx(4.0, rel=1e-7)
        d = kl(p, q)
        assert 0.0 < d < prev
        prev = d


def test_three_point_sequence_rejects_bad_inputs():
    with pytest.raises(PreconditionViolated):
        equal_means_sequence(0.0, 4.0, 1.0, 1e-3)
    with pytest.raises(DomainError):
        equal_means_sequence(0.0, 1.0, 4.0, 0.0)
    with pytest.raises(EpsilonTooLarge):
        equal_means_sequence(0.0, 1.0, 1.0 + 1e-12, 0.9)


def test_quaternary_sequence_moments_and_decay():
    prev = math.inf
    for n in (10, 100, 1000):
        p, q = equal_means_quaternary(3.0, 7.0, n)
        m_p, v_p = moments(p)
        m_q, v_q = moments(q)
        assert m_p == pytest.approx(0.0, abs=1e-9)
        assert m_q == pytest.approx(0.0, abs=1e-9)
        assert v_p == pytest.approx(3.0, rel=1e-9)
        assert v_q == pytest.approx(7.0, rel=1e-9)
        d = kl(p, q)
        assert 0.0 < d < prev
        prev = d


def test_quaternary_small_variance_rescale_branch():
    p, q = equal_means_quaternary(0.5, 0.25, 50)
    _, v_p = moments(p)
    _, v_q = moments(q)
    assert v_p == pytest.approx(0.5, rel=1e-9)
    assert v_q == pytest.approx(0.25, rel=1e-9)


def test_quaternary_kl_closed_form():
    n = 100
    var_p, var_q = 3.0, 7.0
    p, q = equal_means_quaternary(var_p, var_q, n)
    xi = (var_p - 1.0) / (var_q - 1.0)
    assert kl(p, q) == pytest.approx(binary_kl(xi / n, 1.0 / n), rel=1e-10)


def test_negative_variance_rejected():
    with pytest.raises(DomainError):
        MomentTuple(0, -1, 0, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-20, 20), st.floats(0.01, 30),
    st.floats(-20, 20), st.floats(0.01, 30),
)
def test_attainment_random(m_p, v_p, m_q, v_q):
    if abs(m_p - m_q) < 1e-3:
        return
    mt = MomentTuple(m_p, v_p, m_q, v_q)
    cert = kl_moment_lower_bound(mt)
    p, q = attaining_pair(mt)
    assert abs(kl(p, q) - cert.bound_nats) < 1e-12
    mean, var = moments(p)
    assert abs(mean - m_p) < 1e-9 * max(1.0, abs(m_p))
    assert abs(var - v_p) < 1e-8 * max(1.0, v_p)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-20, 20), st.floats(0.0, 30),
    st.floats(-20, 20), st.floats(0.0, 30),
)
def test_bound_below_gaussian_kl(m_p, v_p, m_q, v_q):
    if v_p <= 1e-6 or v_q <= 1e-6:
        return
    mt = MomentTuple(m_p, v_p, m_q, v_q)
    cert = kl_moment_lower_bound(mt)
    assert cert.bound_nats <= gaussian_kl(mt) + 1e-9
    assert cert.bound_nats <= exponential_kl(mt) + 1e-9


def _mp_bound(m_p, v_p, m_q, v_q):
    """d(r||s) from the closed forms at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        m_p, v_p, m_q, v_q = map(mpmath.mpf, (m_p, v_p, m_q, v_q))
        a = m_p - m_q
        b = a * a + v_q - v_p
        v = mpmath.sqrt(v_p + b * b / (4 * a * a))
        r = mpmath.mpf(1) / 2 + b / (4 * a * v)
        s = r - a / (2 * v)
        return float(r * mpmath.log(r / s) + (1 - r) * mpmath.log((1 - r) / (1 - s)))


def test_attaining_pair_with_nearly_equal_means():
    # r and s lie within 1e-9 of 1: 1 - s taken by subtraction puts the
    # variance of Q off by 1.6e-7 and the bound off by 1.8e-7
    mt = MomentTuple(3.338435283642567, 4.587542110086956, 3.338469074067107,
                     1.7904199382549955)
    cert = kl_moment_lower_bound(mt)
    assert cert.bound_nats == pytest.approx(_mp_bound(*vars(mt).values()), rel=1e-12)
    p, q = attaining_pair(mt)
    for dist, (mean, var) in ((p, (mt.m_p, mt.var_p)), (q, (mt.m_q, mt.var_q))):
        assert moments(dist) == pytest.approx((mean, var), rel=1e-12)
    assert kl(p, q) == pytest.approx(cert.bound_nats, rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(0.01, 30), st.floats(-9, 0), st.booleans(),
       st.floats(0.01, 30))
def test_bound_keeps_its_digits_as_the_means_meet(m_p, v_p, log_gap, below, v_q):
    m_q = m_p + (-1 if below else 1) * 10.0 ** log_gap
    if m_q == m_p:
        return
    mt = MomentTuple(m_p, v_p, m_q, v_q)
    assert kl_moment_lower_bound(mt).bound_nats == pytest.approx(
        _mp_bound(m_p, v_p, m_q, v_q), rel=1e-9)
    p, q = attaining_pair(mt)
    assert moments(q)[1] == pytest.approx(v_q, rel=1e-9)
