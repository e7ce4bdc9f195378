"""Divergences against a mixture that contains the law, where a mass of the
law is subnormal: unscaled, (1 - alpha) P + alpha Q rounds 0.5 * 5e-324 to 0
and a divergence that divides by it reads +inf. Every caller forms its
mixture scaled per atom (``divergences._mixture``), so each value stays
finite and within its tolerance of 40-digit mpmath (``oracles``)."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divrel import (
    DivergenceSpec,
    check_chi2_half_identity,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
    concavity_deficit_bounds,
    derivative_checks,
    f_divergence_rows,
    gv_lower_bound,
    gyorfi_vajda,
    jensen_shannon,
    make_channel,
    make_distribution,
    markov_mixing_report,
    mixture_kl_upper,
    mu_chi2_channel,
    renyi,
    skew_k,
    skew_kl_upper,
    skew_s,
)
from divrel.errors import PreconditionViolated
from divrel.identities import check_skew_s_integral

from oracles import (gv_mpmath, mixture_kl_bound_scalar, mixture_kl_mpmath,
                     polylog_path_mpmath, renyi_mpmath, skew_k_mpmath, skew_s_mpmath)
from test_distributions import ODD_MASSES

# the pair of the defect: P holds 5e-324 where Q holds nothing
P = make_distribution([0, 1, 2], [5e-324, 0.5, 0.5 - 5e-324])
Q = make_distribution([0, 1, 2], [0.0, 0.3, 0.7])

# 40-digit mpmath values on (P, Q)
PINNED = {
    "skew_k_05": 0.02041099726012759,
    "js": 0.021005925701837048,
    "skew_k_07": 0.040821994520255159,
    "gv_05": 1 / 6,
}

# the kernels sum terms whose linear parts cancel (``divergences._kl``)
REL, ABS = 1e-12, 1e-15


def test_pinned_values_on_the_pair():
    assert skew_k(0.5, P, Q) == pytest.approx(PINNED["skew_k_05"], rel=1e-14)
    assert jensen_shannon(P, Q) == pytest.approx(PINNED["js"], rel=1e-14)
    assert skew_k(0.7, P, Q) == pytest.approx(PINNED["skew_k_07"], rel=1e-14)
    assert gyorfi_vajda(0.5, P, Q) == pytest.approx(PINNED["gv_05"], rel=1e-14)


def test_pinned_values_match_the_oracles():
    assert skew_k_mpmath(0.5, P.mass, Q.mass) == pytest.approx(PINNED["skew_k_05"], rel=1e-15)
    assert skew_s_mpmath(0.5, P.mass, Q.mass) == pytest.approx(PINNED["js"], rel=1e-15)
    assert skew_k_mpmath(0.7, P.mass, Q.mass) == pytest.approx(PINNED["skew_k_07"], rel=1e-15)
    assert gv_mpmath(0.5, P.mass, Q.mass) == pytest.approx(PINNED["gv_05"], rel=1e-15)


@pytest.mark.parametrize("check, want", [
    (lambda: check_kl_chi2_identity(P, Q, 0.7), PINNED["skew_k_07"]),
    (lambda: check_gv_identity(P, Q, 0.7), PINNED["skew_k_07"]),
    (lambda: check_skew_s_integral(0.5, P, Q), PINNED["js"]),
], ids=["kl_chi2", "gv", "skew_s"])
def test_identity_checks_compare_finite_sides_on_the_pair(check, want):
    rep = check()
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert rep.passed
    assert rep.lhs == pytest.approx(want, rel=1e-14)
    assert rep.rhs == pytest.approx(want, rel=1e-8)


def test_mixture_bounds_hold_on_the_pair():
    rep = mixture_kl_upper(0, [P, Q], [0.5, 0.5])
    assert rep.lhs == pytest.approx(PINNED["skew_k_05"], rel=1e-14)
    assert rep.holds
    out = concavity_deficit_bounds([P, Q], [0.5, 0.5])
    assert out["deficit_kl_form"] == pytest.approx(PINNED["js"], rel=1e-14)
    assert out["deficit_entropy_form"] == pytest.approx(PINNED["js"], rel=1e-13)
    assert out["deficit"] <= out["pairwise_upper"] <= out["classic_upper"]


def test_pairwise_bound_reads_a_finite_kl_at_a_subnormal_mass():
    # Q / P overflows at P's subnormal atom, where D(Q||P) is finite (0.08);
    # an infinite table entry would leave the bound at -ln w_Q = ln 2
    p = make_distribution([0, 1, 2], [5e-324, 0.5, 0.5 - 5e-324])
    q = make_distribution([0, 1, 2], [1e-15, 0.3, 0.7 - 1e-15])
    d_qp = skew_k_mpmath(1.0, q.mass, p.mass)
    want, _ = mixture_kl_bound_scalar(1, [0.5, 0.5], [d_qp, 0.0])
    rep = mixture_kl_upper(1, [p, q], [0.5, 0.5])
    assert rep.rhs == pytest.approx(want, rel=1e-12) and rep.rhs < 0.1
    assert rep.holds


def _odd_pair(seed, n, atom, odd, q_empty):
    """A random pair on n atoms whose P holds the subnormal mass odd at atom,
    and whose Q holds nothing there if q_empty."""
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    other = (atom + 1) % n
    p[other] += p[atom]
    p[atom] = odd
    if q_empty:
        q[other] += q[atom]
        q[atom] = 0.0
    support = np.arange(float(n))
    return make_distribution(support, p), make_distribution(support, q)


def _close(got, want, rel=REL, abs_=ABS):
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=rel, abs=abs_)


# the central difference that derivative_checks takes, at 40 digits
def _mp_slope(lam, a, b, h=1e-5):
    with mpmath.workdps(40):
        up = mpmath.mpf(skew_k_mpmath(lam + h, a, b))
        down = mpmath.mpf(skew_k_mpmath(lam - h, a, b))
        return float((up - down) / (2 * h))


ODD_PAIRS = dict(
    seed=st.integers(0, 10_000), n=st.integers(2, 8), atom=st.integers(0, 7),
    odd=st.sampled_from([x for x in ODD_MASSES if x > 0]), q_empty=st.booleans(),
    alpha=st.floats(0.01, 0.99),
)
# the case that read +inf unscaled: 5e-324 times a weight up to 1/2 rounds to 0
ROUNDS_TO_ZERO = example(seed=0, n=4, atom=1, odd=5e-324, q_empty=True, alpha=0.5)


@settings(max_examples=40, deadline=None)
@given(**ODD_PAIRS)
@ROUNDS_TO_ZERO
def test_divergences_against_a_mixture_with_a_subnormal_mass(seed, n, atom, odd, q_empty,
                                                             alpha):
    p, q = _odd_pair(seed, n, atom % n, odd, q_empty)
    a, b = p.mass, q.mass
    _close(skew_k(alpha, p, q), skew_k_mpmath(alpha, a, b))
    _close(skew_s(alpha, p, q), skew_s_mpmath(alpha, a, b))
    _close(jensen_shannon(p, q), skew_s_mpmath(0.5, a, b))
    _close(gyorfi_vajda(alpha, p, q), gv_mpmath(alpha, a, b))

    rep = gv_lower_bound(alpha, p, q)
    _close(rep.lhs, (1 - alpha) * math.log(1 / (1 - alpha)) * gv_mpmath(alpha, a, b))
    assert rep.holds
    rep = skew_kl_upper(p, q, alpha)
    _close(rep.lhs, skew_k_mpmath(alpha, a, b))
    assert math.isfinite(rep.rhs) and rep.holds

    w = np.array([alpha, 1 - alpha])
    want = mixture_kl_mpmath(w, [a, b])
    for i in (0, 1):
        rep = mixture_kl_upper(i, [p, q], w)
        _close(rep.lhs, want[i])
        assert rep.holds
    out = concavity_deficit_bounds([p, q], w)
    _close(out["deficit_kl_form"], float(w @ want))
    _close(out["deficit_entropy_form"], float(w @ want), abs_=1e-14)


# below order 1, sum p expm1((alpha - 1) ln(p/q)) overflows to +inf where
# ln(p/q) < -709/(1 - alpha), at a subnormal p, and the row read -inf
ORDERS_BELOW_ONE = st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e).filter(lambda a: a < 1.0)


@settings(max_examples=40, deadline=None)
@given(**{**ODD_PAIRS, "alpha": ORDERS_BELOW_ONE})
@example(seed=0, n=2, atom=0, odd=5e-324, q_empty=False, alpha=0.01)
def test_renyi_below_order_one_with_a_subnormal_mass(seed, n, atom, odd, q_empty, alpha):
    p, q = _odd_pair(seed, n, atom % n, odd, q_empty)
    value = renyi(alpha, p, q)
    assert math.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.04])
def test_renyi_below_order_one_at_a_subnormal_mass_against_mpmath(alpha):
    rows = np.array([[5e-324, 1.0 - 5e-324], [0.3, 0.7]])
    half = np.array([0.5, 0.5])
    want = [renyi_mpmath(alpha, row, half) for row in rows]
    assert renyi(alpha, make_distribution([0, 1], rows[0]), make_distribution([0, 1], half)) \
        == pytest.approx(want[0], rel=1e-13)
    got = f_divergence_rows(DivergenceSpec("RENYI", alpha), rows, half)
    assert got.tolist() == pytest.approx(want, rel=1e-13)


# the draws of ODD_PAIRS as one (P, Q) pair, so that a fixed pair can be an example
ODD_PAIR = st.builds(lambda seed, n, atom, odd, q_empty: _odd_pair(seed, n, atom % n, odd,
                                                                   q_empty),
                     **{name: draw for name, draw in ODD_PAIRS.items() if name != "alpha"})


@settings(max_examples=20, deadline=None)
@given(pair=ODD_PAIR, alpha=ODD_PAIRS["alpha"])
@example(pair=_odd_pair(0, 4, 1, 5e-324, True), alpha=0.5)
# the recursive check at k = 0 read lhs = +inf, at k = 1 rhs = +inf
@example(pair=(P, Q), alpha=0.5)
@example(pair=(P, Q), alpha=0.7)
# Q / P overflows at P's subnormal atom: the recursive check at k = 1, 2 raised
@example(pair=(P, make_distribution([0, 1, 2], [0.1, 0.3, 0.6])), alpha=0.7)
def test_identity_checks_with_a_subnormal_mass(pair, alpha):
    p, q = pair
    a, b = p.mass, q.mass
    checks = [(check_kl_chi2_identity(p, q, alpha), skew_k_mpmath(alpha, a, b)),
              (check_gv_identity(p, q, alpha), skew_k_mpmath(alpha, a, b)),
              (check_skew_s_integral(alpha, p, q), skew_s_mpmath(alpha, a, b))]
    for x, y in ((p, q), (q, p)):
        # D_{f_{k+1}}(R_alpha||P) on the lhs
        checks += [(check_recursive_identity(k, x, y, alpha),
                    polylog_path_mpmath(k + 1, alpha, x.mass, y.mass)) for k in (0, 1, 2)]
        rep, want = check_chi2_half_identity(x, y), 0.5 * gv_mpmath(1.0, x.mass, y.mass)
        if math.isinf(want):
            # P has mass where Q has none, or chi^2 passes the float range
            # (0.5^2 / 5e-324): no finite side is right
            assert rep.lhs == rep.rhs == math.inf and rep.passed
        elif want < HALF_MAX / 2:
            # (above, see test_chi2_half_near_the_top_of_the_float_range)
            checks.append((rep, want))
    for rep, want in checks:
        _close(rep.lhs, want)
        assert math.isfinite(rep.rhs) and rep.passed, rep


HALF_MAX = np.finfo(float).max / 2


def test_chi2_half_near_the_top_of_the_float_range():
    # chi^2(P||Q) = 0.15^2 / 2.2e-310 + ... = 1.0e308 lies in the float range,
    # and so does every value of the curve s chi^2(P||Q); the rules' weights
    # sum to 2, so a round takes them on the values scaled by the half-width
    p = make_distribution([0, 1], [0.15, 0.85])
    q = make_distribution([0, 1], [2.2250738585072e-310, 1.0])
    rep = check_chi2_half_identity(p, q)
    assert HALF_MAX / 2 < rep.lhs < math.inf
    assert rep.rhs == pytest.approx(rep.lhs, rel=1e-8) and rep.passed


def test_skew_curve_derivatives_need_a_positive_chi2():
    # chi^2(Q||P) underflows to 0 where the laws differ by a subnormal mass
    # alone, and overflows where Q has mass at P's subnormal atom
    for q in ([0.0, 1.0], [1e-3, 1.0 - 1e-3]):
        with pytest.raises(PreconditionViolated):
            derivative_checks(make_distribution([0, 1], [5e-324, 1.0]),
                              make_distribution([0, 1], q))


@settings(max_examples=20, deadline=None)
@given(**ODD_PAIRS)
@ROUNDS_TO_ZERO
def test_skew_curve_derivatives_with_a_subnormal_mass(seed, n, atom, odd, q_empty, alpha):
    # Q holds nothing at P's subnormal atom, where chi^2(Q||P) would overflow
    p, q = _odd_pair(seed, max(n, 3), atom % max(n, 3), odd, True)
    out = derivative_checks(p, q)
    for row in out["grid"]:
        _close(row["fprime"], _mp_slope(row["lam"], p.mass, q.mass), rel=1e-9, abs_=1e-10)
        # expm1(F)/lam errs relatively as F does, times F e^F/(e^F - 1) <= 3 for
        # F <= ln(1/(1 - lam)), plus rounding; (e^F - 1)/lam would lose up to 1e-9
        lam = row["lam"]
        f, f_mp = skew_k(lam, p, q), skew_k_mpmath(lam, p.mass, q.mass)
        _close(row["lower"], math.expm1(f_mp) / lam, rel=3 * abs(f - f_mp) / f_mp + 1e-15,
               abs_=0.0)
        assert row["holds"]
    assert math.isfinite(out["small_lam_ratio"])


@settings(max_examples=20, deadline=None)
@given(**ODD_PAIRS)
@ROUNDS_TO_ZERO
def test_channel_sup_and_mixing_with_a_subnormal_mass(seed, n, atom, odd, q_empty, alpha):
    p, q = _odd_pair(seed, n, atom % n, odd, q_empty)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mu = mu_chi2_channel(make_channel([p.mass, q.mass]))
    # the channel without the subnormal entry; an output column that neither
    # row then reaches is left out
    rows = np.array([p.mass, q.mass])
    rows[0, atom % n] = 0.0
    mu_plain = mu_chi2_channel(make_channel(rows[:, rows.any(axis=0)]))
    assert 0.0 <= mu <= 1.0
    assert mu == pytest.approx(mu_plain, rel=1e-14, abs=1e-15)

    # a lazy walk with uniform stationary law, started from P
    chain = make_channel(0.5 * np.eye(n) + 0.5 / n)
    rep = markov_mixing_report(chain, p, alpha, 3)
    uniform = np.full(n, 1.0 / n)
    _close(rep["k_alpha_initial"], skew_k_mpmath(alpha, p.mass, uniform))
    _close(rep["s_alpha_initial"], skew_s_mpmath(alpha, p.mass, uniform))
    assert all(math.isfinite(row["k_alpha"]) and math.isfinite(row["s_alpha"])
               for row in rep["rows"])
