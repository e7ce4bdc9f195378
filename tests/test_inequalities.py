import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrel import (
    DivergenceSpec,
    align,
    chi_squared,
    concavity_deficit_bounds,
    conditioned_measure_divergence,
    derivative_checks,
    gv_lower_bound,
    half_chi2_plus_quarter_tv,
    kl,
    make_distribution,
    mixture_kl_upper,
    mixture_of,
    pinsker,
    skew_kl_upper,
    symmetrized_chi2_bound,
    thirds_bound,
)
from divrel.divergences import _skew_k, skew_k
from divrel.errors import DomainError, EmptySet, ZeroProbabilitySet
from divrel.inequalities import (
    InequalityReport,
    _LAM_GRID,
    _mixture_kl_bound,
    _skew_kl_bound,
    pair_slacks,
    skew_kl_convexity_comparison,
)

from conftest import random_pair
from oracles import mixture_kl_bound_scalar

P = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
Q = make_distribution([0, 1, 2], [0.4, 0.1, 0.5])


def every_check(p, q):
    yield pinsker(p, q)
    yield thirds_bound(p, q)
    yield symmetrized_chi2_bound(p, q)
    yield gv_lower_bound(0.5, p, q)
    yield half_chi2_plus_quarter_tv(p, q)
    yield skew_kl_upper(p, q, 0.5)
    yield skew_kl_convexity_comparison(p, q, 0.5)


def test_reference_pair_all_hold():
    for rep in every_check(P, Q):
        assert rep.holds, rep


def test_report_slack_with_infinities():
    rep = InequalityReport("x", math.inf, math.inf)
    assert rep.slack == 0.0 and rep.holds


def test_infinite_chi2_keeps_bounds_checkable():
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    assert chi_squared(p, q) == math.inf
    rep = thirds_bound(p, q)
    assert rep.rhs == math.inf and rep.holds


def test_gv_lower_domain():
    with pytest.raises(DomainError):
        gv_lower_bound(0.0, P, Q)
    with pytest.raises(DomainError):
        gv_lower_bound(1.0, P, Q)


def test_tightness_family_of_half_chi2_quarter_tv():
    # P(1) = e^2, Q(1) = e: both sides shrink together and their ratio
    # approaches 1 from below as e -> 0
    ratios = []
    for e in (0.05, 0.01, 0.002):
        p = make_distribution([0, 1], [1 - e * e, e * e])
        q = make_distribution([0, 1], [1 - e, e])
        rep = half_chi2_plus_quarter_tv(p, q)
        assert rep.holds
        ratios.append(rep.lhs / rep.rhs)
    assert all(r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)


def test_skew_upper_endpoints_are_tight():
    assert skew_kl_upper(P, Q, 0.0).slack == pytest.approx(0.0, abs=1e-12)
    assert skew_kl_upper(P, Q, 1.0).slack == pytest.approx(0.0, abs=1e-12)


def test_skew_upper_beats_convexity_bound():
    for lam in (0.1, 0.5, 0.9):
        assert skew_kl_convexity_comparison(P, Q, lam).holds


def test_the_convexity_bound_is_0_at_lambda_0_where_d_is_infinite():
    # 0 * inf gave NaN, and a comparison that did not hold
    p = make_distribution([0, 1, 2], [0.2, 0.3, 0.5])
    q = make_distribution([0, 1, 2], [1.0, 0.0, 0.0])
    rep = skew_kl_convexity_comparison(p, q, 0.0)
    assert (rep.lhs, rep.rhs, rep.holds) == (0.0, 0.0, True)
    assert skew_kl_convexity_comparison(p, q, 0.5).rhs == math.inf



@pytest.mark.parametrize("lam", [1.5, -1.0])
def test_skew_bounds_reject_lambda_outside_unit_interval(lam):
    with pytest.raises(DomainError):
        skew_kl_upper(P, Q, lam)
    with pytest.raises(DomainError):
        skew_kl_convexity_comparison(P, Q, lam)

def test_derivative_checks_reference_pair():
    out = derivative_checks(P, Q)
    assert all(row["holds"] for row in out["grid"])
    # F'(lam)/lam at small lam approaches chi^2(Q||P)
    assert out["limit_rel_err"] < 1e-3


def test_derivative_checks_evaluates_the_curve_once_per_point(monkeypatch):
    import divrel.inequalities

    rows = []

    def counting(*args):
        out = _skew_k(*args)
        rows.append(out.size)
        return out

    monkeypatch.setattr(divrel.inequalities, "_skew_k", counting)
    derivative_checks(P, Q)
    # per grid point F(lam) and two points for F'(lam); two more for F'(1e-3)
    assert sum(rows) == 3 * len(_LAM_GRID) + 2


@pytest.mark.parametrize("seed", range(10))
def test_derivative_checks_match_the_curve_scored_point_by_point(seed):
    p, q = random_pair(np.random.default_rng(seed), 6)
    out = derivative_checks(p, q)
    h = 1e-5

    def slope(lam):
        return (skew_k(lam + h, p, q) - skew_k(lam - h, p, q)) / (2 * h)

    for row in out["grid"]:
        lam = row["lam"]
        assert row["fprime"] == slope(lam)
        assert row["lower"] == math.expm1(skew_k(lam, p, q)) / lam
    assert out["small_lam_ratio"] == slope(1e-3) / 1e-3


def test_derivative_checks_put_the_pair_on_its_union_support():
    # Q lacks an atom of P, so chi^2(Q||P) is finite and the checks run
    p = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
    q = make_distribution([0, 1], [0.6, 0.4])
    out = derivative_checks(p, q)
    assert out == derivative_checks(*align(p, q))
    assert all(row["holds"] for row in out["grid"])


def test_mixture_kl_upper_dominates_truth():
    dists = [P, Q, make_distribution([0, 1, 2], [0.1, 0.2, 0.7])]
    w = [0.5, 0.2, 0.3]
    mix = mixture_of(dists, w)
    for i in range(3):
        rep = mixture_kl_upper(i, dists, w)
        assert rep.holds
        assert rep.lhs == pytest.approx(kl(dists[i], mix), rel=1e-12)



# a third component of weight 0 whose atom the other two lack
ZERO_WEIGHT = (
    [make_distribution([0, 1, 2], [0.5, 0.5, 0.0]),
     make_distribution([0, 1, 2], [0.25, 0.75, 0.0]),
     make_distribution([0, 1, 2], [0.0, 0.0, 1.0])],
    [0.5, 0.5, 0.0],
)


@pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [1.0, math.nan]])
def test_mixture_weights_must_not_be_nan(weights):
    dists = [make_distribution([0, 1], [0.3, 0.7]), make_distribution([0, 1], [0.6, 0.4])]
    for call in (lambda: mixture_kl_upper(0, dists, weights),
                 lambda: mixture_of(dists, weights),
                 lambda: concavity_deficit_bounds(dists, weights)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("i", [2, -1, 1.5, True, None])
def test_mixture_kl_upper_needs_a_component_index(i):
    # 2 once raised a bare IndexError, and -1 sliced an empty row
    dists = [make_distribution([0, 1], [0.3, 0.7]), make_distribution([0, 1], [0.6, 0.4])]
    with pytest.raises(DomainError, match="component index"):
        mixture_kl_upper(i, dists, [0.5, 0.5])
    one = mixture_kl_upper(1, dists, [0.5, 0.5])
    assert mixture_kl_upper(np.int64(1), dists, [0.5, 0.5]) == one


def test_mixture_kl_upper_with_a_zero_weight_component():
    dists, w = ZERO_WEIGHT
    # the zero-weight law is off the mixture's support: both sides are +inf
    rep = mixture_kl_upper(2, dists, w)
    assert rep.lhs == rep.rhs == math.inf and rep.holds
    # and it adds nothing to the average divergence from the others
    rep = mixture_kl_upper(0, dists, w)
    d = kl(dists[0], dists[1])
    assert rep.rhs == pytest.approx(-math.log(0.5 + 0.5 * math.exp(-d)), rel=1e-14)
    assert rep.holds


def test_mixture_kl_bound_over_all_rows_matches_the_scalar_oracle():
    # random weights with zero entries and KL matrices with infinite entries
    rng = np.random.default_rng(31)
    for _ in range(400):
        k = int(rng.integers(1, 7))
        w = rng.dirichlet(np.ones(k))
        w[rng.random(k) < 0.25] = 0.0
        if not w.any():
            w[rng.integers(k)] = 1.0
        w /= w.sum()
        d = rng.exponential(2.0, (k, k))
        d[rng.random((k, k)) < 0.2] = math.inf
        np.fill_diagonal(d, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tight, convex = _mixture_kl_bound(w, d, w)
        for i in range(k):
            want_tight, want_convex = mixture_kl_bound_scalar(i, w, d[i])
            assert convex[i] == want_convex
            # the oracle's own log loses about 1e-16/c relative
            assert tight[i] == pytest.approx(want_tight, rel=1e-14, abs=0), (w, d[i], i)
        # a subset of the rows gives the same values
        rows = np.flatnonzero(w > 0)
        assert np.array_equal(_mixture_kl_bound(w, d[rows], w[rows])[0], tight[rows])


@pytest.mark.parametrize("a, c", [(0.2, 1e-10), (0.5, 1e-6), (0.9, 0.3), (0.3, 3.0),
                                  (0.0, 0.7), (0.0, 1e3), (1e-300, 800.0), (0.5, 1e4)])
def test_mixture_kl_bound_against_mpmath(a, c):
    # the direct -ln(a + (1-a) e^(-c/(1-a))) loses digits as c -> 0 and is
    # +inf (math.log raises) at a = 0 past c = 745
    import mpmath

    tight, got_c = _mixture_kl_bound(np.array([a, 1.0 - a]), np.array([[0.0, c / (1.0 - a)]]),
                                     np.array([a]))
    with mpmath.workdps(50):
        a_mp, c_mp = mpmath.mpf(a), mpmath.mpf(float(got_c[0]))
        want = -mpmath.log(a_mp + (1 - a_mp) * mpmath.exp(-c_mp / (1 - a_mp)))
    assert tight[0] == pytest.approx(float(want), rel=1e-15, abs=0)


def test_concavity_deficit_with_a_zero_weight_component():
    dists, w = ZERO_WEIGHT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = concavity_deficit_bounds(dists, w)
    two = concavity_deficit_bounds(dists[:2], w[:2])
    for key, value in two.items():
        assert out[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key

def test_concavity_deficit_two_forms_agree():
    dists = [P, Q]
    out = concavity_deficit_bounds(dists, [0.4, 0.6])
    assert out["deficit_entropy_form"] == pytest.approx(
        out["deficit_kl_form"], abs=1e-12
    )
    assert out["deficit"] <= out["pairwise_upper"] + 1e-10
    assert out["deficit"] <= out["classic_upper"] + 1e-10


def test_concavity_deficit_trivial_mixture():
    out = concavity_deficit_bounds([P], [1.0])
    assert out["deficit"] == pytest.approx(0.0, abs=1e-14)
    assert out["classic_upper"] == 0.0


def test_conditioned_measure_closed_forms():
    mu = make_distribution([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    c = [1, 3]
    mass_c = 0.6
    direct, closed = conditioned_measure_divergence(DivergenceSpec("KL"), mu, c)
    assert closed == pytest.approx(math.log(1 / mass_c), rel=1e-14)
    assert direct == pytest.approx(closed, rel=1e-12)
    direct, closed = conditioned_measure_divergence(DivergenceSpec("CHI2"), mu, c)
    assert closed == pytest.approx(1 / mass_c - 1, rel=1e-14)
    assert direct == pytest.approx(closed, rel=1e-12)
    direct, closed = conditioned_measure_divergence(DivergenceSpec("TV"), mu, c)
    assert closed == pytest.approx(2 * (1 - mass_c), rel=1e-14)
    assert direct == pytest.approx(closed, rel=1e-12)


def test_conditioned_measure_renyi_all_orders_agree():
    mu = make_distribution([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    for alpha in (0.5, 2.0, 7.0):
        direct, closed = conditioned_measure_divergence(
            DivergenceSpec("RENYI", alpha), mu, [0, 2]
        )
        assert closed == pytest.approx(math.log(1 / 0.4), rel=1e-12)
        assert direct == pytest.approx(closed, rel=1e-10)


def test_conditioned_measure_chi2_meets_renyi2_link():
    # for conditioned measures the order-2 bound via log(1 + chi^2) is
    # met with equality
    mu = make_distribution([0, 1, 2], [0.5, 0.25, 0.25])
    _, chi2_closed = conditioned_measure_divergence(DivergenceSpec("CHI2"), mu, [0])
    _, r2_closed = conditioned_measure_divergence(
        DivergenceSpec("RENYI", 2.0), mu, [0]
    )
    assert r2_closed == pytest.approx(math.log1p(chi2_closed), rel=1e-12)



def _kl_f(u):
    return u * math.log(u) if u > 0 else 0.0


def _skew_k_f(alpha):
    # K_alpha = sum p ln(p / ((1 - alpha) p + alpha q)) = sum q f(p/q)
    return lambda u: u * math.log(u / ((1 - alpha) * u + alpha)) if u > 0 else 0.0


def _skew_s_f(alpha):
    # alpha K_alpha(P||Q) + (1 - alpha) K_(1-alpha)(Q||P)
    return lambda u: alpha * _skew_k_f(alpha)(u) - (1 - alpha) * math.log((1 - alpha) * u + alpha)


def _polylog_f(k):
    import mpmath

    # f(0) = Li_k(1): zeta(k) for k >= 2, +inf for k = 0, 1
    return lambda u: (float(mpmath.polylog(k, 1 - mpmath.mpf(u))) if u > 0
                      else (math.inf if k < 2 else float(mpmath.zeta(k))))


def _power_mean(alpha):
    """The Renyi divergence ln(sum q (p/q)^alpha) / (alpha - 1) of a
    closed form sum q g(p/q), g(u) = u^alpha."""
    return lambda value: math.log(value) / (alpha - 1)


# tag, param, f with f(0), and the map from sum q f(p/q) to the divergence
CLOSED_FORM_CASES = [
    ("KL", None, _kl_f, None),
    ("CHI2", None, lambda u: (u - 1) ** 2, None),
    ("TV", None, lambda u: abs(u - 1), None),
    # order 0: -ln Q(p > 0), the closed form of g(u) = 1 for u > 0, g(0) = 0
    ("RENYI", 0.0, lambda u: 1.0 if u > 0 else 0.0, lambda value: -math.log(value)),
    ("RENYI", 0.5, lambda u: u ** 0.5, _power_mean(0.5)),
    ("RENYI", 2.0, lambda u: u ** 2, _power_mean(2.0)),
    # order inf: ln max p/q over the atoms of P; the ratio is 1/t on all of them
    ("RENYI", math.inf, None, None),
    ("GV", 0.3, lambda u: (u - 1) ** 2 / (0.3 + 0.7 * u), None),
    ("SKEW_K", 0.3, _skew_k_f(0.3), None),
    ("SKEW_S", 0.3, _skew_s_f(0.3), None),
    ("JS", None, _skew_s_f(0.5), None),
    *(("POLYLOG_F", k, _polylog_f(k), None) for k in (0, 1, 2, 5)),
]


@pytest.mark.parametrize("tag, param, f, to_divergence", CLOSED_FORM_CASES)
@pytest.mark.parametrize("c", [[1, 3], [0], [0, 1, 2, 3]])
def test_conditioned_measure_closed_form_every_tag(tag, param, f, to_divergence, c):
    mu = make_distribution([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    t = float(sum(mu.mass[i] for i in c))
    if f is None:
        want = math.log(1 / t)
    else:
        # t f(1/t) + (1 - t) f(0), the f-divergence of mu_C from mu
        value = t * f(1 / t) + ((1 - t) * f(0.0) if t < 1 else 0.0)
        want = to_divergence(value) if to_divergence else value
    direct, closed = conditioned_measure_divergence(DivergenceSpec(tag, param), mu, c)
    if math.isinf(want):
        assert closed == direct == want
    else:
        assert closed == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert direct == pytest.approx(want, rel=1e-10, abs=1e-14)

def test_conditioned_measure_takes_indices_in_any_order_and_repeated():
    mu = make_distribution([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    for tag in ("KL", "CHI2", "TV"):
        spec = DivergenceSpec(tag)
        want = conditioned_measure_divergence(spec, mu, [1, 3])
        for c in ([3, 1], [3, 1, 3, 1], (1, 1, 3), np.array([3, 1])):
            assert conditioned_measure_divergence(spec, mu, c) == want


def test_conditioned_measure_errors():
    mu = make_distribution([0, 1, 2], [0.5, 0.5, 0.0])
    with pytest.raises(DomainError):
        conditioned_measure_divergence(DivergenceSpec("KL"), mu, [1, -1])
    with pytest.raises(EmptySet):
        conditioned_measure_divergence(DivergenceSpec("KL"), mu, [])
    with pytest.raises(ZeroProbabilitySet):
        conditioned_measure_divergence(DivergenceSpec("KL"), mu, [2])
    with pytest.raises(DomainError):
        conditioned_measure_divergence(DivergenceSpec("KL"), mu, [9])
    # a fraction or a bool once conditioned on atom 1 without a word
    for indices in ([1.7], [True], [0, 1.0], np.array([False, True]), ["1"]):
        with pytest.raises(DomainError, match="integers"):
            conditioned_measure_divergence(DivergenceSpec("KL"), mu, indices)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 8))
def test_sweep_strictly_positive(seed, n):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    for rep in every_check(p, q):
        assert rep.holds, (rep, seed, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 8))
def test_sweep_with_zero_atoms(seed, n):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n, strict=False)
    for rep in every_check(p, q):
        assert rep.holds, (rep, seed, n)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 6), st.floats(0.05, 0.95))
def test_gv_lower_random_theta(seed, n, theta):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    assert gv_lower_bound(theta, p, q).holds


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 5), st.integers(2, 4))
def test_concavity_deficit_random(seed, n, m):
    rng = np.random.default_rng(seed)
    dists = [random_pair(rng, n)[0] for _ in range(m)]
    w = rng.dirichlet(np.ones(m))
    out = concavity_deficit_bounds(dists, w)
    assert out["deficit"] >= -1e-12
    assert abs(out["deficit_entropy_form"] - out["deficit_kl_form"]) < 1e-10
    assert out["deficit"] <= out["pairwise_upper"] + 1e-10
    assert out["deficit"] <= out["classic_upper"] + 1e-10


PAIR_CHECKS = {
    "pinsker": lambda p, q, t: pinsker(p, q),
    "thirds": lambda p, q, t: thirds_bound(p, q),
    "symmetrized_chi2": lambda p, q, t: symmetrized_chi2_bound(p, q),
    "gv_lower": lambda p, q, t: gv_lower_bound(t, p, q),
    "half_chi2_quarter_tv": lambda p, q, t: half_chi2_plus_quarter_tv(p, q),
    "skew_kl_upper": lambda p, q, t: skew_kl_upper(p, q, t),
}


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_stacked_suite_on_padded_stacks_equals_per_pair_calls(t):
    rng = np.random.default_rng(3)
    pairs = [random_pair(rng, int(rng.integers(2, 7)), strict=bool(i % 2)) for i in range(60)]
    # a pair with infinite divergences in both directions
    pairs.append((make_distribution([0, 1], [1.0, 0.0]), make_distribution([0, 1], [0.0, 1.0])))
    P, Q = np.zeros((2, len(pairs), 6))
    for row, (p, q) in enumerate(pairs):
        P[row, :len(p)], Q[row, :len(q)] = p.mass, q.mass
    slacks = pair_slacks(P, Q, t)
    assert list(slacks) == list(PAIR_CHECKS)
    for name, check in PAIR_CHECKS.items():
        expected = np.array([check(p, q, t).slack for p, q in pairs])
        assert np.allclose(slacks[name], expected, rtol=1e-12, atol=1e-15, equal_nan=False), name


@pytest.mark.parametrize("t", [0.0, 1.0, -0.5, math.nan])
def test_stacked_suite_rejects_parameter_outside_unit_interval(t):
    with pytest.raises(DomainError):
        pair_slacks(P.mass[None, :], Q.mass[None, :], t)


@pytest.mark.parametrize("lam, d", [(0.5, 1e-12), (0.3, 1e-15), (0.9, 1e-8), (0.1, 1e-300),
                                    (1.0, 1e-10), (0.25, 1e-5), (0.7, 3.0), (0.5, 50.0),
                                    (0.999, 800.0)])
def test_skew_kl_bound_against_mpmath(lam, d):
    # -ln(1 - lam + lam e^-d) taken directly loses every digit as d -> 0
    import mpmath

    with mpmath.workdps(50):
        want = -mpmath.log1p(mpmath.mpf(lam) * mpmath.expm1(-mpmath.mpf(d)))
    assert float(_skew_kl_bound(lam, d)) == pytest.approx(float(want), rel=2e-15, abs=0)


def test_skew_kl_bound_over_arrays():
    d = np.array([0.0, 0.3, 2.0, math.inf])
    out = _skew_kl_bound(0.4, d)
    expected = [-math.log(0.6 + 0.4 * math.exp(-x)) for x in d]
    assert np.allclose(out, expected, rtol=1e-15)
    assert _skew_kl_bound(1.0, math.inf) == math.inf
