import math

import mpmath
import numpy as np
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
    DivrelError,
    DomainError,
    EpsilonTooLarge,
    NonFinite,
    PreconditionViolated,
)
from divrel.moment_bounds import moment_bound_arrays

from oracles import (hcr_mpmath, mean_variance_mpmath, moment_bound_integral,
                     moment_bound_mpmath)


@pytest.mark.parametrize("fields", [
    (math.nan, 1, 0, 1), (0, math.nan, 0, 1), (0, 1, math.inf, 1), (0, 1, 0, -math.inf),
    (-math.inf, 1, 0, 1), (0, math.inf, 0, 1),
])
def test_moment_tuple_rejects_non_finite_fields(fields):
    with pytest.raises(NonFinite):
        MomentTuple(*fields)


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


@pytest.mark.parametrize("seed", range(5))
def test_hcr_bound_on_different_supports_matches_mpmath(seed):
    # the bound from the mixture law's own mean and variance, at 50 digits
    rng = np.random.default_rng(seed)
    laws = [make_distribution(np.sort(rng.normal(5.0, 3.0, n)), rng.dirichlet(np.ones(n)))
            for n in (4, 7)]
    lam = float(rng.uniform(0.05, 0.95))
    want = float(hcr_mpmath(*laws, lam)[0])
    assert hcr_lower_bound(*laws, lam) == pytest.approx(want, rel=1e-13)


def _shifted_law(rng):
    """A law of 2 to 8 atoms N(0, 1) 10^U(-3, 3) shifted by +-10^U(0, 12), the
    atoms that the shift rounds together taken once, with Dirichlet masses."""
    shift = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 12.0)
    u = np.unique(shift + 10.0 ** rng.uniform(-3.0, 3.0)
                  * rng.standard_normal(int(rng.integers(2, 9))))
    return make_distribution(u, rng.dirichlet(np.ones(len(u))))


def test_hcr_bound_on_shifted_supports_matches_mpmath_and_stays_below_chi2():
    # E[X^2] - (E X)^2 cancels every digit on such supports; the centered
    # pass keeps the bound within 1e-12 of mpmath. The error left is that of
    # the gap, whose terms p d and q d add up in size to as much as 21,600
    # times its value here
    rng = np.random.default_rng(38)
    for _ in range(3000):
        p = _shifted_law(rng)
        # half the pairs on one support, half on the union of two
        q = (_shifted_law(rng) if rng.random() < 0.5
             else make_distribution(p.support, rng.dirichlet(np.ones(len(p)))))
        lam = float(rng.uniform(0.0, 1.0))
        got = hcr_lower_bound(p, q, lam)
        want, chi2 = hcr_mpmath(p, q, lam)
        assert abs(got - want) <= 1e-12 * want, (p, q, lam, got, want)
        assert got <= chi2 * (1 + 1e-12), (p, q, lam, got, chi2)


def test_moments_on_shifted_supports_match_mpmath():
    rng = np.random.default_rng(39)
    for _ in range(2000):
        p = _shifted_law(rng)
        want = mean_variance_mpmath(p.support, p.mass)[1]
        assert abs(moments(p)[1] - want) <= 1e-13 * want, (p, want)


def test_hcr_degenerate_variance():
    p = make_distribution([1.0], [1.0])
    with pytest.raises(DegenerateVariance):
        hcr_lower_bound(p, p, 0.5)


@pytest.mark.parametrize("lam", [-0.1, 1.5])
def test_hcr_needs_a_weight_in_the_unit_interval(lam):
    p = make_distribution([0, 1], [0.5, 0.5])
    with pytest.raises(DomainError, match="lambda"):
        hcr_lower_bound(p, make_distribution([0, 1], [0.2, 0.8]), lam)


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


@pytest.mark.parametrize("args, error, match", [
    ((0.0, math.nan, 2.0, 0.1), PreconditionViolated, "0 < var_p <= var_q"),
    ((0.0, 1.0, math.nan, 0.1), PreconditionViolated, "0 < var_p <= var_q"),
    ((0.0, 1.0, 2.0, math.nan), DomainError, "eps must be positive"),
])
def test_three_point_sequence_rejects_nan(args, error, match):
    with pytest.raises(error, match=match):
        equal_means_sequence(*args)


def test_three_point_sequence_needs_a_larger_q_variance():
    # var_q = var_p puts the third atom onto the lower one
    with pytest.raises(EpsilonTooLarge, match="collapses"):
        equal_means_sequence(0.0, 1.0, 1.0, 0.1)


@pytest.mark.parametrize("var_p, var_q, n, match", [
    (0.0, 1.0, 10, "positive"), (3.0, -1.0, 10, "positive"),
    (7.0, 3.0, 2, "n > xi"), (3.0, 7.0, 0, "n > xi"),
    # NaN is rejected before the rescaling, which it would skip
    (math.nan, 1.0, 10, "positive"), (math.nan, 0.5, 10, "positive"),
    (1.0, math.nan, 10, "positive"), (math.nan, math.nan, 10, "positive"),
])
def test_quaternary_sequence_rejects_bad_inputs(var_p, var_q, n, match):
    with pytest.raises(PreconditionViolated, match=match):
        equal_means_quaternary(var_p, var_q, n)


@pytest.mark.parametrize("kl_form", [gaussian_kl, exponential_kl])
@pytest.mark.parametrize("mt", [MomentTuple(0.0, 0.0, 1.0, 1.0), MomentTuple(0.0, 1.0, 1.0, 0.0)])
def test_closed_forms_need_positive_variances(kl_form, mt):
    with pytest.raises(DomainError, match="positive variances"):
        kl_form(mt)


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


def test_attaining_pair_with_nearly_equal_means():
    # r and s lie within 1e-9 of 1: 1 - s taken by subtraction puts the
    # variance of Q off by 1.6e-7 and the bound off by 1.8e-7
    mt = MomentTuple(3.338435283642567, 4.587542110086956, 3.338469074067107,
                     1.7904199382549955)
    cert = kl_moment_lower_bound(mt)
    want = float(moment_bound_mpmath(*vars(mt).values()))
    assert cert.bound_nats == pytest.approx(want, rel=1e-12)
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
        float(moment_bound_mpmath(m_p, v_p, m_q, v_q)), rel=1e-9)
    p, q = attaining_pair(mt)
    assert moments(q)[1] == pytest.approx(v_q, rel=1e-9)


# -- the bound as an integral, its monotonicity, and small var_q ----------

moment_means = st.floats(-50, 50)
moment_variances = st.floats(1e-3, 100)


def bound(m_p, var_p, m_q, var_q):
    return float(moment_bound_arrays(m_p, var_p, m_q, var_q)[-1])


def test_bound_equals_integrated_hcr_bound():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m_p, m_q = rng.uniform(-20, 20, 2)
        var_p, var_q = 10 ** rng.uniform(-2, 2, 2)
        assert bound(m_p, var_p, m_q, var_q) == pytest.approx(
            moment_bound_integral(m_p, var_p, m_q, var_q), rel=1e-10, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(moment_means, moment_variances, moment_variances, st.floats(0, 20), st.floats(0, 20))
def test_bound_non_decreasing_in_mean_gap(m_q, var_p, var_q, gap, more):
    near, far = bound(m_q + gap, var_p, m_q, var_q), bound(m_q + gap + more, var_p, m_q, var_q)
    assert near <= far * (1 + 1e-12) + 1e-300
    # the bound depends on the gap only through its square; about m_q = 0 the
    # gaps -gap and +gap are exact, while m_q - gap and m_q + gap round apart
    assert bound(-gap, var_p, 0.0, var_q) == pytest.approx(
        bound(gap, var_p, 0.0, var_q), rel=1e-12, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(moment_means, moment_means, st.floats(0, 100), st.floats(0, 100), moment_variances)
def test_bound_non_increasing_in_var_p(m_p, m_q, var_p, more, var_q):
    assert bound(m_p, var_p + more, m_q, var_q) <= bound(m_p, var_p, m_q, var_q) * (1 + 1e-12)


@pytest.mark.parametrize("var_q", [1.6e-12, 1e-10, 1e-8, 1e-6, 1e-3])
def test_bound_accurate_at_small_var_q(var_q):
    mpmath.mp.dps = 50
    a = mpmath.mpf(3)
    ref = mpmath.quad(lambda s: s * a**2 / ((1 - s) * 22 + s * mpmath.mpf(var_q)
                                            + s * (1 - s) * a**2),
                      [0, 0.5, 0.9, 0.99, 1 - mpmath.mpf(1e-4), 1 - mpmath.mpf(1e-8),
                       1 - mpmath.mpf(1e-12), 1])
    assert bound(43, 22, 40, var_q) == pytest.approx(float(ref), rel=1e-13)


@pytest.mark.parametrize("gap", [1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bound_accurate_at_nearly_equal_means(gap, sign):
    # r -> s as the gap closes: d(r||s) must not be the difference of two
    # terms of size r - s
    mpmath.mp.dps = 50
    a = mpmath.mpf(sign * gap)
    for var_p, var_q in [(2.0, 2.0), (1.0, 3.0), (3.0, 1.0), (0.01, 5.0), (20.0, 0.5), (0.0, 2.0)]:
        ref = mpmath.quad(lambda s: s * a**2 / ((1 - s) * var_p + s * var_q
                                                + s * (1 - s) * a**2), [0, 0.5, 1])
        got = bound(sign * gap, var_p, 0.0, var_q)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0), (var_p, var_q)


def test_bound_at_a_gap_far_below_the_deviations():
    # a^2 = 8.2e-323: b^2/(4a^2) overflows and 1 - r, 1 - s underflow; the
    # bound is about a^2 int_0^1 s/((1-s) var_p + s var_q) ds, 1.1e-322 and
    # 1.3e-321 here
    a = 9.059863746052646e-162
    wide, narrow = bound(0.0, 2.0, a, 0.0625), bound(0.0, 0.0, a, 0.0625)
    assert 1e-322 <= wide <= narrow <= 1.4e-321


def test_bound_infinite_for_point_mass_q():
    # Q is a point mass at 40 and P has mass elsewhere
    assert bound(43, 22, 40, 0.0) == math.inf
    assert bound(43, 0.0, 40, 0.0) == math.inf
    assert kl_moment_lower_bound(MomentTuple(43, 22, 40, 0.0)).s == 0.0
    assert kl_moment_lower_bound(MomentTuple(37, 22, 40, 0.0)).s == 1.0


def test_bound_finite_at_tiny_var_p():
    # r is about 6e-17 against s = 0.94: ln(r/s) must not become log1p(-1)
    tiny = bound(0.0, 1e-15, 4.0, 1.0)
    assert math.isfinite(tiny)
    assert tiny == pytest.approx(bound(0.0, 0.0, 4.0, 1.0), rel=1e-12)


def _moment_tuples(rng, count):
    """count random (m_p, var_p, m_q, var_q) columns over wide scales, with
    var_p = 0, var_q = 0, equal means, means a few ulps apart and gaps whose
    square underflows in turn."""
    m_p = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3, count))
    m_q = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3, count))
    var_p, var_q = 10.0 ** rng.uniform(-8, 8, (2, count))
    kind = np.arange(count) % 8
    var_p[kind == 1] = 0.0
    var_q[kind == 2] = 0.0
    var_p[kind == 6] = var_q[kind == 6] = 0.0
    m_q[kind == 3] = m_p[kind == 3]
    near = kind == 4
    m_q[near] = m_p[near] + rng.integers(-8, 9, near.sum()) * np.spacing(m_p[near])
    tiny = kind == 5
    m_p[tiny] = 0.0
    m_q[tiny] = rng.choice([-1.0, 1.0], tiny.sum()) * 10.0 ** rng.uniform(-170, -150, tiny.sum())
    return m_p, var_p, m_q, var_q


# finite moments, and the values MomentTuple refuses
_moment_or_not = st.one_of(st.floats(-50, 50), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(_moment_or_not, _moment_or_not, _moment_or_not, _moment_or_not)
def test_array_form_raises_where_moment_tuple_does(m_p, var_p, m_q, var_q):
    try:
        cert = kl_moment_lower_bound(MomentTuple(m_p, var_p, m_q, var_q))
    except (NonFinite, DomainError) as exc:
        with pytest.raises(type(exc)):
            moment_bound_arrays(m_p, var_p, m_q, var_q)
        # elementwise: one bad tuple in a column of good ones
        with pytest.raises(type(exc)):
            moment_bound_arrays([1.0, m_p], [1.0, var_p], [0.0, m_q], [2.0, var_q])
    else:
        fields = moment_bound_arrays(m_p, var_p, m_q, var_q)
        assert [float(f) for f in fields] == [cert.r, cert.s, cert.a, cert.b, cert.v,
                                              cert.bound_nats]


def _assert_float_form_is_array_form(columns):
    """The certificate of each tuple of the columns is the array form's, bit
    for bit."""
    fields = moment_bound_arrays(*columns)
    for i, args in enumerate(zip(*(c.tolist() for c in columns))):
        cert = kl_moment_lower_bound(MomentTuple(*args))
        got = (cert.r, cert.s, cert.a, cert.b, cert.v, cert.bound_nats)
        assert all(g == f[i] for g, f in zip(got, fields)), args


def test_float_bound_is_the_array_form_bit_for_bit():
    # the float closed form against the grid form on 24,000 tuples
    columns = _moment_tuples(np.random.default_rng(23), 24_000)
    gap = columns[0] - columns[2]
    assert (gap == 0.0).sum() > 2000 and ((gap != 0.0) & (gap * gap == 0.0)).sum() > 1000
    _assert_float_form_is_array_form(columns)


def _extreme_tuples(count):
    """count seeded (m_p, var_p, m_q, var_q) columns out to the ends of the
    floats: means N(0, 1) 10^U(-5, 5) and variances 10^U(-320, 10), down to
    subnormal ones, where a mass of the bound may be subnormal at any scale."""
    rng = np.random.default_rng(7)
    m_p, m_q = rng.standard_normal((2, count)) * 10.0 ** rng.uniform(-5, 5, (2, count))
    var_p, var_q = 10.0 ** rng.uniform(-320.0, 10.0, (2, count))
    return m_p, var_p, m_q, var_q


def test_float_bound_is_the_array_form_at_extreme_moments_bit_for_bit():
    _assert_float_form_is_array_form(_extreme_tuples(20_000))


def test_bound_at_extreme_moments_matches_mpmath():
    # every 4th tuple where r or s rounds to 0 or the bound is above 700 nats
    # (s below 1e-304), and every 500th of the rest
    columns = _extreme_tuples(20_000)
    r, s, *_, bound = moment_bound_arrays(*columns)
    edge = (np.minimum(r, s) == 0.0) | (bound > 700.0)
    picked = np.union1d(np.flatnonzero(edge)[::4], np.arange(0, len(r), 500))
    assert edge.sum() > 1000 and len(picked) > 300
    for i in picked:
        exact = moment_bound_mpmath(*(float(c[i]) for c in columns))
        assert abs(mpmath.mpf(bound[i]) - exact) <= 1e-13 * exact + 2.0 ** -1072, i


def test_attaining_pair_raises_only_divrel_errors():
    # r rounds to 0 at some of the tiny gaps, and an atom overflows at others
    for args in zip(*(c.tolist() for c in _moment_tuples(np.random.default_rng(23), 24_000))):
        try:
            attaining_pair(MomentTuple(*args))
        except DivrelError as exc:
            # and not NonFinite, which would name atoms the caller never passed
            assert isinstance(exc, (DomainError, PreconditionViolated)), (args, exc)


def test_float_bound_is_the_array_form_on_near_equal_means_bit_for_bit():
    # near-equal means put one or both terms of d(r||s) on the series of g,
    # a row sum per point: one call on 3,000 tuples rounds each as alone
    rng = np.random.default_rng(31)
    count = 3000
    m_p = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3, count))
    m_q = m_p * (1.0 + rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-15, -1, count))
    var_p, var_q = 10.0 ** rng.uniform(-8, 8, (2, count))
    var_p[::3] = 0.0
    close = np.arange(count) % 3 == 1
    var_q[close] = var_p[close] * (1.0 + 10.0 ** rng.uniform(-15, -1, close.sum()))
    fields = moment_bound_arrays(m_p, var_p, m_q, var_q)
    series = 0
    for i, args in enumerate(zip(m_p.tolist(), var_p.tolist(), m_q.tolist(), var_q.tolist())):
        cert = kl_moment_lower_bound(MomentTuple(*args))
        got = (cert.r, cert.s, cert.a, cert.b, cert.v, cert.bound_nats)
        assert all(g == f[i] for g, f in zip(got, fields)), args
        series += cert.a != 0.0 and cert.s > 0.0 and abs(cert.a / (2.0 * cert.v * cert.s)) < 0.125
    assert series > 1000


# attaining pairs as the array form of the bound gave them: (moments, support,
# mass of P, mass of Q)
ATTAINING_PAIRS = [
    ((45, 20, 40, 20), [37.3765246170202, 47.6234753829798],
     [0.25602498176286675, 0.7439750182371333], [0.7439750182371334, 0.2560249817628667]),
    ((50, 10, 35, 20), [33.719116068350544, 50.61421726498279],
     [0.036354755016514785, 0.9636452449834852], [0.9241860751976568, 0.07581392480234332]),
    ((3, 2, 1, 5), [-1.0, 3.5], [0.1111111111111111, 0.8888888888888888],
     [0.5555555555555556, 0.4444444444444444]),
    ((-2, 0.5, 1, 3), [-2.1262751120218772, 1.9596084453552107],
     [0.9690947844576024, 0.030905215542397592], [0.23485946965439872, 0.7651405303456014]),
    ((1, 1e-6, 1.000000001, 2), [0.9999999999999994, 1999998835.5193546],
     [1.0, 2.5000029137041604e-25], [1.0, 5.000005827408321e-19]),
    ((2, 1, 0, 0), [0.0, 2.5], [0.2, 0.8], [1.0, 0.0]),
    ((0, 4, 1e-7, 4), [-1.9999999511501876, 2.0000000488498135],
     [0.5000000122124533, 0.4999999877875468], [0.49999998721245326, 0.5000000127875468]),
]


@pytest.mark.parametrize("moments_, support, mass_p, mass_q", ATTAINING_PAIRS)
def test_attaining_pair_is_unchanged(moments_, support, mass_p, mass_q):
    p, q = attaining_pair(MomentTuple(*moments_))
    assert p.support.tolist() == q.support.tolist() == support
    assert p.mass.tolist() == mass_p
    assert q.mass.tolist() == mass_q


def test_attaining_pair_rejects_a_gap_whose_square_underflows():
    # the bound is 0 there, attained by no pair
    with pytest.raises(PreconditionViolated):
        attaining_pair(MomentTuple(1e-170, 1.0, 0.0, 2.0))
