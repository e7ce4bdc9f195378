import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrel import (
    DivergenceSpec,
    align,
    binary_kl,
    chi_squared,
    entropy,
    f_divergence,
    f_divergence_rows,
    f_k_divergence,
    gyorfi_vajda,
    jensen_shannon,
    kl,
    make_distribution,
    mixture,
    renyi,
    skew_k,
    skew_s,
    total_variation,
)
from divrel.divergences import generic_f_divergence
from divrel.errors import DimensionMismatch, DomainError, QuadratureFailure
from divrel.inequalities import conditioned_measure_divergence

from conftest import random_pair
from oracles import binary_kl_mpmath

# reference pair and independently computed values (40-digit arithmetic)
P = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
Q = make_distribution([0, 1, 2], [0.4, 0.1, 0.5])

ORACLE = {
    "kl": 0.51284183297526392,
    "kl_rev": 0.371727892863563428,
    "chi2": 1.78,
    "chi2_rev": 0.653333333333333333,
    "tv": 0.8,
    "renyi2": 1.0224509277025457,
    "renyi_half": 0.224663192677369387,
    "gv_03": 0.686009896536212326,
    "skew_k_03": 0.0300491029191955463,
    "js": 0.102399272148417233,
    "entropy_p": 1.02965301406457353,
    "binary_37": 0.338919144154881445,
}


def test_kl_oracle():
    assert kl(P, Q) == pytest.approx(ORACLE["kl"], rel=1e-14)
    assert kl(Q, P) == pytest.approx(ORACLE["kl_rev"], rel=1e-14)


def test_chi2_oracle():
    assert chi_squared(P, Q) == pytest.approx(ORACLE["chi2"], rel=1e-14)
    assert chi_squared(Q, P) == pytest.approx(ORACLE["chi2_rev"], rel=1e-14)


def test_tv_oracle():
    assert total_variation(P, Q) == pytest.approx(ORACLE["tv"], abs=1e-15)


def test_renyi_oracle():
    assert renyi(2.0, P, Q) == pytest.approx(ORACLE["renyi2"], rel=1e-14)
    assert renyi(0.5, P, Q) == pytest.approx(ORACLE["renyi_half"], rel=1e-14)


def test_renyi_order_one_is_kl():
    assert renyi(1.0, P, Q) == kl(P, Q)


def test_renyi_extensions():
    # order 0: -log of Q-mass where P is positive
    p = make_distribution([0, 1, 2], [0.5, 0.5, 0.0])
    q = make_distribution([0, 1, 2], [0.3, 0.3, 0.4])
    assert renyi(0.0, p, q) == pytest.approx(-math.log(0.6), rel=1e-14)
    # order inf: log of the max likelihood ratio
    assert renyi(math.inf, P, Q) == pytest.approx(math.log(5.0), rel=1e-14)


def test_renyi_infinite_when_unsupported():
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    assert renyi(2.0, p, q) == math.inf
    assert renyi(math.inf, p, q) == math.inf


def test_kl_infinite_on_support_violation():
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    assert kl(p, q) == math.inf
    assert chi_squared(p, q) == math.inf


def test_zero_mass_atom_contributes_nothing():
    p = make_distribution([0, 1, 2], [0.5, 0.5, 0.0])
    q = make_distribution([0, 1, 2], [0.25, 0.25, 0.5])
    # p=0, q>0 atom is finite for KL/chi2
    assert math.isfinite(kl(p, q))
    assert chi_squared(p, q) == pytest.approx(0.25 + 0.25 + 0.5, rel=1e-12)


def test_gv_oracle_and_endpoints():
    assert gyorfi_vajda(0.3, P, Q) == pytest.approx(ORACLE["gv_03"], rel=1e-13)
    assert gyorfi_vajda(1.0, P, Q) == pytest.approx(chi_squared(P, Q), rel=1e-13)
    assert gyorfi_vajda(0.0, P, Q) == pytest.approx(chi_squared(Q, P), rel=1e-13)


def test_gv_matches_scaled_chi2_against_mixture():
    for s in (0.1, 0.5, 0.9):
        direct = gyorfi_vajda(s, P, Q)
        via_mix = chi_squared(P, mixture(P, Q, s)) / s**2
        assert direct == pytest.approx(via_mix, rel=1e-12)


def test_skew_k_oracle():
    assert skew_k(0.3, P, Q) == pytest.approx(ORACLE["skew_k_03"], rel=1e-13)
    assert skew_k(0.0, P, Q) == 0.0
    assert skew_k(1.0, P, Q) == pytest.approx(kl(P, Q), rel=1e-14)


def test_js_oracle_and_symmetry():
    assert jensen_shannon(P, Q) == pytest.approx(ORACLE["js"], rel=1e-13)
    assert jensen_shannon(Q, P) == pytest.approx(jensen_shannon(P, Q), rel=1e-13)
    assert skew_s(0.5, P, Q) == jensen_shannon(P, Q)


def test_entropy_oracle():
    assert entropy(P) == pytest.approx(ORACLE["entropy_p"], rel=1e-14)
    assert entropy(make_distribution([0], [1.0])) == 0.0


def test_binary_kl():
    assert binary_kl(0.3, 0.7) == pytest.approx(ORACLE["binary_37"], rel=1e-14)
    assert binary_kl(0.5, 0.5) == 0.0
    assert binary_kl(0.0, 0.0) == 0.0
    assert binary_kl(1.0, 1.0) == 0.0
    assert binary_kl(0.5, 0.0) == math.inf
    assert binary_kl(0.5, 1.0) == math.inf
    with pytest.raises(DomainError):
        binary_kl(1.5, 0.5)


@pytest.mark.parametrize("r, s", [
    (0.5, 0.5 + 1e-12),
    (1e-3, 1e-3 * (1 + 1e-7)),
    (0.3, 0.3 * (1 - 1e-9)),
    (0.9, 0.9 + 1e-10),
    (1e-8, 1.1e-8),
    (1 - 1e-6, 1 - 1.2e-6),
])
def test_binary_kl_near_equal_pairs_mpmath(r, s):
    # each term of d(r||s) is about +-(r - s), and their sum is (r - s)^2
    # order: summing the two terms as written loses every digit
    want = float(binary_kl_mpmath(r, s))
    assert want > 0
    assert binary_kl(r, s) == pytest.approx(want, rel=1e-13, abs=0)
    assert binary_kl(np.array([r, s]), np.array([s, r]))[0] == binary_kl(r, s)


def test_unaligned_supports_meet_on_their_union():
    # each law lacks an atom of the other: both are padded with zero mass
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 2], [0.5, 0.5])
    assert kl(p, q) == kl(*align(p, q)) == math.inf
    assert total_variation(p, q) == total_variation(*align(p, q)) == 1.0


def test_spec_parse():
    assert DivergenceSpec.parse("renyi:2").tag == "RENYI"
    assert DivergenceSpec.parse("gv:0.5").param == 0.5
    assert DivergenceSpec.parse("kl") == DivergenceSpec("KL")
    with pytest.raises(DomainError):
        DivergenceSpec.parse("nonsense")
    with pytest.raises(DomainError):
        DivergenceSpec("RENYI", -1.0)
    with pytest.raises(DomainError):
        DivergenceSpec("POLYLOG_F", 1.5)
    for text in ("renyi:abc", "polylog:2x"):
        with pytest.raises(DomainError):
            DivergenceSpec.parse(text)


def test_spec_rejects_an_unknown_tag():
    with pytest.raises(DomainError, match="unknown divergence tag 'FOO'"):
        DivergenceSpec("FOO")


def test_spec_domains_come_from_the_registry():
    # every parametric tag takes its endpoints, as its function does
    assert DivergenceSpec("SKEW_K", 0.0).param == 0.0
    assert f_divergence(DivergenceSpec("SKEW_K", 0.0), P, Q) == skew_k(0.0, P, Q) == 0.0
    for tag in ("GV", "SKEW_K", "SKEW_S"):
        for s in (0.0, 1.0):
            DivergenceSpec(tag, s)
        for s in (-0.1, 1.1, math.nan, None):
            with pytest.raises(DomainError):
                DivergenceSpec(tag, s)
    DivergenceSpec("RENYI", math.inf)
    DivergenceSpec("POLYLOG_F", 1000)
    for k in (1001, 1e9, -1, math.inf):
        with pytest.raises(DomainError):
            DivergenceSpec("POLYLOG_F", k)
    for tag in ("KL", "CHI2", "TV", "JS"):
        with pytest.raises(DomainError):
            DivergenceSpec(tag, 3.0)
    assert DivergenceSpec.parse("polylog:2") == DivergenceSpec.parse("polylog_f:2")
    assert DivergenceSpec.parse("skew_s:0.3") == DivergenceSpec("SKEW_S", 0.3)
    with pytest.raises(DomainError):
        DivergenceSpec.parse("kl:3")


def test_parametric_functions_check_the_registry_domain():
    for fn in (gyorfi_vajda, skew_k, skew_s):
        with pytest.raises(DomainError):
            fn(1.5, P, Q)
    with pytest.raises(DomainError):
        renyi(-1.0, P, Q)

def test_f_divergence_dispatch():
    assert f_divergence(DivergenceSpec("KL"), P, Q) == kl(P, Q)
    assert f_divergence(DivergenceSpec("JS"), P, Q) == jensen_shannon(P, Q)
    assert f_divergence(DivergenceSpec("RENYI", 2.0), P, Q) == renyi(2.0, P, Q)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_nonnegativity_and_zero_at_equality(seed, n):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    assert kl(p, q) >= 0.0
    assert chi_squared(p, q) >= 0.0
    assert total_variation(p, q) >= 0.0
    assert kl(p, p) == 0.0
    assert chi_squared(p, p) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6),
       st.floats(0.01, 10.0))
def test_renyi_monotone_in_order(seed, n, alpha):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    lo = renyi(alpha, p, q)
    hi = renyi(alpha + 0.5, p, q)
    assert lo <= hi + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_second_order_renyi_chi2_link(seed, n):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    assert renyi(2.0, p, q) == pytest.approx(
        math.log1p(chi_squared(p, q)), rel=1e-10
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.floats(0.0, 1.0))
def test_skew_s_between_zero_and_symmetric_kl(seed, n, alpha):
    rng = np.random.default_rng(seed)
    p, q = random_pair(rng, n)
    val = skew_s(alpha, p, q)
    assert 0.0 <= val <= kl(p, q) + kl(q, p) + 1e-10


# P puts mass on an atom where Q2 has none, so a Renyi order below 1
# counts the mass P holds off the support of Q2
Q2 = make_distribution([0, 1, 2], [0.5, 0.5, 0.0])


@pytest.mark.parametrize("alpha,q", [
    (1 - 1e-8, Q), (1 + 1e-8, Q), (1 + 2e-9, Q), (1 + 1e-6, Q),
    (1 - 1e-8, Q2), (0.5, Q2),
])
def test_renyi_near_order_one_mpmath(alpha, q):
    # the masses of P sum to exactly 1 in binary, so the oracle's sum needs
    # no normalization; Q's rounding enters only through (1 - alpha)
    with mpmath.workdps(60):
        assert mpmath.fsum(mpmath.mpf(x) for x in P.mass) == 1
        a = mpmath.mpf(alpha)
        z = mpmath.fsum(mpmath.mpf(x) ** a * mpmath.mpf(y) ** (1 - a)
                        for x, y in zip(P.mass, q.mass) if y > 0)
        want = float(mpmath.log(z) / (a - 1))
    assert renyi(alpha, P, q) == pytest.approx(want, rel=1e-12)


def _renyi_mpmath(alpha, a, b, dps=40):
    """D_alpha(a||b) at dps digits for alpha > 1 (alpha = 1: KL), with every
    float mass taken exactly; b > 0 wherever a > 0."""
    with mpmath.workdps(dps):
        pairs = [(mpmath.mpf(float(x)), mpmath.mpf(float(y))) for x, y in zip(a, b) if x > 0]
        if alpha == 1.0:
            return float(mpmath.fsum(x * mpmath.log(x / y) for x, y in pairs))
        if math.isinf(alpha):
            return float(max(mpmath.log(x / y) for x, y in pairs))
        alpha = mpmath.mpf(alpha)
        z = mpmath.fsum(x ** alpha * y ** (1 - alpha) for x, y in pairs)
        return float(mpmath.log(z) / (alpha - 1))


# the mass of P_SUB at atom 0 is subnormal, so p/q overflows there in kl and
# renyi of (Q_SUB, P_SUB); 40-digit values of that pair
P_SUB = make_distribution([0, 1], [5e-324, 1.0])
Q_SUB = make_distribution([0, 1], [0.1, 0.9])
AT_SUBNORMAL = {1.0: 74.11892421874668, 2.0: 739.8349017353932, math.inf: 742.1374868283872}


@pytest.mark.parametrize("alpha", sorted(AT_SUBNORMAL))
def test_kl_and_renyi_at_a_subnormal_denominator_pinned(alpha):
    want = AT_SUBNORMAL[alpha]
    assert _renyi_mpmath(alpha, Q_SUB.mass, P_SUB.mass) == pytest.approx(want, rel=1e-15)
    assert renyi(alpha, Q_SUB, P_SUB) == pytest.approx(want, rel=1e-15)
    if alpha == 1.0:
        assert kl(Q_SUB, P_SUB) == pytest.approx(want, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(0, 7),
       st.sampled_from([5e-324, 1e-320, 2.0 ** -1060, 1e-310]),
       st.sampled_from([1.0, 1.5, 2.0, 7.0, math.inf]))
def test_kl_and_renyi_at_a_subnormal_denominator_mpmath(seed, n, atom, tiny, alpha):
    # q holds a subnormal mass where p holds a normal one
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    atom %= n
    q[(atom + 1) % n] += q[atom] - tiny
    q[atom] = tiny
    p, q = make_distribution(np.arange(n), p), make_distribution(np.arange(n), q)
    got = renyi(alpha, p, q)
    assert math.isfinite(got)
    assert got == pytest.approx(_renyi_mpmath(alpha, p.mass, q.mass), rel=1e-13)


def test_renyi_of_a_large_order_whose_sum_overflows_mpmath():
    p, q = make_distribution([0, 1], [0.5, 0.5]), make_distribution([0, 1], [1e-3, 1 - 1e-3])
    assert renyi(500.0, p, q) == pytest.approx(_renyi_mpmath(500.0, p.mass, q.mass), rel=1e-14)


def test_rows_that_stay_finite_are_scored_as_alone():
    # one row overflows at q's subnormal atom, the other does not
    q = np.array([5e-324, 1.0])
    stack = np.array([[0.1, 0.9], [0.0, 1.0], [5e-324, 1.0]])
    for spec in (DivergenceSpec("KL"), DivergenceSpec("RENYI", 2.0),
                 DivergenceSpec("RENYI", math.inf)):
        rows = f_divergence_rows(spec, stack, q)
        assert np.isfinite(rows).all()
        for row, value in zip(stack, rows):
            assert f_divergence_rows(spec, row[None, :], q)[0] == value


# -- f_divergence_rows against independent per-row formulas ----------------

def _ref_kl(p, q):
    if np.any((p > 0) & (q == 0)):
        return math.inf
    pos = p > 0
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


def _ref_gv(s, p, q):
    """sum (p - q)^2 / ((1 - s) p + s q): infinite where only the
    denominator vanishes, 0 where both masses do."""
    d = (1 - s) * p + s * q
    if np.any((d == 0) & (p != q)):
        return math.inf
    pos = d > 0
    return float(np.sum((p[pos] - q[pos]) ** 2 / d[pos]))


def _ref_renyi(alpha, p, q):
    pos = p > 0
    if alpha == 0:
        return -math.log(np.sum(q[pos])) if np.sum(q[pos]) > 0 else math.inf
    if np.any(pos & (q == 0)) and alpha > 1:
        return math.inf
    if math.isinf(alpha):
        return math.log(np.max(p[pos] / q[pos]))
    both = pos & (q > 0)
    z = np.sum(p[both] ** alpha * q[both] ** (1 - alpha))
    return math.log(z) / (alpha - 1) if z > 0 else math.inf


def _ref_skew_s(alpha, p, q):
    # K_{1-alpha}(Q||P) is a divergence from the same mixture as K_alpha(P||Q)
    m = (1 - alpha) * p + alpha * q
    total = 0.0
    if alpha > 0:
        total += alpha * _ref_kl(p, m)
    if alpha < 1:
        total += (1 - alpha) * _ref_kl(q, m)
    return total


def _ref_polylog(k, p, q):
    total = mpmath.mpf(0)
    for x, y in zip(p, q):
        if y == 0:
            continue  # lim f(u)/u = 0
        if x == 0:
            if k <= 1:
                return math.inf
            total += y * mpmath.zeta(k)
        else:
            total += y * mpmath.re(mpmath.polylog(k, 1 - mpmath.mpf(x) / y))
    return float(total)


ROW_REFERENCES = [
    (DivergenceSpec("KL"), _ref_kl),
    (DivergenceSpec("CHI2"), lambda p, q: _ref_gv(1.0, p, q)),
    (DivergenceSpec("TV"), lambda p, q: float(np.sum(np.abs(p - q)))),
    *((DivergenceSpec("RENYI", a), lambda p, q, a=a: _ref_renyi(a, p, q))
      for a in (0.0, 0.5, 2.0, math.inf)),
    *((DivergenceSpec("GV", s), lambda p, q, s=s: _ref_gv(s, p, q))
      for s in (0.0, 0.3, 1.0, 1e-100, 1e-170)),
    *((DivergenceSpec("SKEW_K", a), lambda p, q, a=a: _ref_kl(p, (1 - a) * p + a * q))
      for a in (0.4, 1.0)),
    *((DivergenceSpec("SKEW_S", a), lambda p, q, a=a: _ref_skew_s(a, p, q))
      for a in (0.0, 0.3, 1.0)),
    (DivergenceSpec("JS"), lambda p, q: _ref_skew_s(0.5, p, q)),
    *((DivergenceSpec("POLYLOG_F", k), lambda p, q, k=k: _ref_polylog(k, p, q))
      for k in (0, 1, 2)),
]


def _stack_with_zeros(rng, m, n):
    """m laws on n atoms; about a third of the atoms carry no mass."""
    x = rng.dirichlet(np.ones(n), size=m)
    x[rng.random((m, n)) < 0.35] = 0.0
    x[np.arange(m), rng.integers(0, n, size=m)] += 0.5
    return x / x.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 6),
       st.sampled_from(range(len(ROW_REFERENCES))))
def test_f_divergence_rows_matches_per_row_formulas(seed, m, n, which):
    spec, ref = ROW_REFERENCES[which]
    rng = np.random.default_rng(seed)
    q = _stack_with_zeros(rng, 1, n)[0]
    # the stack also holds q itself and a law that puts mass only where
    # q has none (an infinite row for most kernels) when q has such atoms
    rows = [_stack_with_zeros(rng, m, n), q[None, :]]
    if np.any(q == 0):
        rows.append((q == 0)[None, :] / np.sum(q == 0))
    P = np.vstack(rows)
    got = f_divergence_rows(spec, P, q)
    assert got.shape == (len(P),)
    for row, value in zip(P, got):
        want = ref(row, q)
        if math.isinf(want):
            assert value == math.inf, (spec, row, q)
        else:
            assert value == pytest.approx(want, rel=1e-9, abs=1e-12), (spec, row, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 6),
       st.sampled_from(range(len(ROW_REFERENCES))))
def test_f_divergence_rows_against_a_stack_of_laws(seed, m, n, which):
    spec, ref = ROW_REFERENCES[which]
    rng = np.random.default_rng(seed)
    P, Q = _stack_with_zeros(rng, m, n), _stack_with_zeros(rng, m, n)
    got = f_divergence_rows(spec, P, Q)
    assert got.shape == (m,)
    for row, q, value in zip(P, Q, got):
        want = ref(row, q)
        if math.isinf(want):
            assert value == math.inf, (spec, row, q)
        else:
            assert value == pytest.approx(want, rel=1e-9, abs=1e-12), (spec, row, q)


@pytest.mark.parametrize("shapes", [((2, 3), (4,)), ((2, 3), (3, 3)), ((3,), (3,)),
                                    ((2, 3), (2, 4))])
def test_f_divergence_rows_rejects_mismatched_shapes(shapes):
    P, q = (np.full(shape, 1.0 / shape[-1]) for shape in shapes)
    with pytest.raises(DimensionMismatch):
        f_divergence_rows(DivergenceSpec("KL"), P, q)


def test_gv_kernel_takes_a_column_of_skews():
    from divrel.divergences import _gv

    p, q = random_pair(np.random.default_rng(8), 5)
    skews = np.array([0.0, 0.3, 1.0, 0.7])
    got = _gv(p.mass[None, :], q.mass, skews[:, None])
    assert got == pytest.approx([gyorfi_vajda(s, p, q) for s in skews], rel=1e-14)


@pytest.mark.parametrize("s", [1e-100, 1e-170, 1e-300])
def test_gv_at_vanishing_skew_is_chi2_of_q_against_p(s):
    # the s -> 0 limit chi^2(Q||P) = 0.09/0.4 + 0.09/0.6 = 0.375, with no
    # division by s^2 to cancel or underflow on the way
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([0, 1], [0.7, 0.3])
    assert abs(f_divergence(DivergenceSpec("GV", s), p, q) / 0.375 - 1) <= 1e-15


def test_zeta_matches_mpmath_at_every_argument_of_the_polylog_tables():
    from divrel.divergences import _zeta

    # zeta(k - m) of the ln-expansion (2 <= k <= 1000, m < 28) and zeta(2j),
    # 2j <= k, of the inversion weights; the pole at 1 is never asked for
    args = ({k - m for k in range(2, 1001) for m in range(28)} | set(range(0, 1001, 2))) - {1}
    for s in sorted(args):
        want = mpmath.zeta(s)
        if s < 0 and s % 2 == 0:
            assert _zeta(s) == 0.0, s  # the trivial zeros, exactly
        else:
            assert abs(_zeta(s) / want - 1) <= 1e-15, s


@pytest.mark.parametrize("k", [2, 3, 7])
def test_series_round_each_point_as_alone(k):
    # every region of Li_k(1 - x), the inversion included, and g's series:
    # a point's value does not depend on the points it is summed beside
    from divrel.divergences import _g_series, _polylog_li

    rng = np.random.default_rng(k)
    x = np.concatenate([rng.uniform(0.0, 3.0, 400), 10.0 ** rng.uniform(-3, 6, 400)])
    for series, points in ((lambda x: _polylog_li(k, x), x),
                           (_g_series, rng.uniform(-0.125, 0.125, 400))):
        alone = [series(points[i:i + 1])[0] for i in range(len(points))]
        assert series(points).tolist() == alone
        assert np.concatenate([series(points[i:i + 3])
                               for i in range(0, len(points), 3)]).tolist() == alone


def _scaled_always(weights, laws):
    """divergences._mixture with the per-atom scaling on every input: the
    laws are divided by c, the power of two at or below each atom's largest
    mass (at least 2^-1022), before they are mixed as _mixture mixes them."""
    pair = isinstance(laws, tuple)
    c = np.maximum(*laws) if pair else laws.max(axis=0)
    np.bitwise_and(c.view(np.int64), 0x7FF0000000000000, out=c.view(np.int64))
    np.maximum(c, 2.0 ** -1022, out=c)
    if pair:
        laws = (laws[0] / c, laws[1] / c)
        return c, laws, weights[0] * laws[0] + weights[1] * laws[1]
    laws = laws / c
    return c, laws, weights @ laws


def _mixture_values(rng, count, tiny):
    """Every value formed against a mixture, on count random pairs of 2-8
    atoms (a third with a zero atom in Q); with tiny, some masses of either
    law are drawn from 1e-320 to 1e-80."""
    import divrel.inequalities as ineq

    out = []
    for i in range(count):
        n = int(rng.integers(2, 9))
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        if i % 3 == 0:
            j = int(rng.integers(n))
            b[(j + 1) % n] += b[j]
            b[j] = 0.0
        if tiny:
            for law in (a, b):
                picked = rng.random(n) < 0.4
                law[picked] = 10.0 ** rng.uniform(-320, -80, picked.sum())
                law[np.argmax(law)] += 1.0 - law.sum()
        p, q = make_distribution(np.arange(n), a), make_distribution(np.arange(n), b)
        alpha = float(rng.choice([0.0, 1e-3, 0.5, 1.0, rng.uniform()]))
        w = float(rng.uniform(0.05, 0.95))
        out += [skew_k(alpha, p, q), skew_s(alpha, p, q), jensen_shannon(p, q),
                gyorfi_vajda(alpha, p, q),
                *ineq.concavity_deficit_bounds([p, q], [w, 1 - w]).values(),
                *(ineq.mixture_kl_upper(k, [p, q], [w, 1 - w]).lhs for k in (0, 1))]
    return out


@pytest.mark.parametrize("count, tiny", [(3000, False), (1000, True)])
def test_unscaled_mixtures_give_the_scaled_values_bit_for_bit(monkeypatch, count, tiny):
    # a mixture whose entries are all at least 2^-448 is formed unscaled
    import divrel.divergences as dv

    got = _mixture_values(np.random.default_rng(17), count, tiny)
    monkeypatch.setattr(dv, "_mixture", _scaled_always)
    want = _mixture_values(np.random.default_rng(17), count, tiny)
    assert np.array_equal(got, want)


def test_mixture_is_scaled_only_where_an_entry_is_small():
    from divrel.divergences import _mixture

    a, b = np.array([[0.2, 0.8, 0.0]]), np.array([0.0, 0.5, 0.5])
    c, laws, m = _mixture((0.5, 0.5), (a, b))
    assert c == 1.0 and laws[0] is a and laws[1] is b
    assert np.array_equal(m, 0.5 * a + 0.5 * b)
    # an atom that both laws leave empty, a mixture entry below 2^-448 and an
    # empty stack take the per-atom scaling
    for weights, laws in (((0.5, 0.5), (a, np.array([0.5, 0.5, 0.0]))),
                          ((0.5, 0.5), (np.array([[1e-140, 1.0, 0.0]]), b)),
                          (np.array([0.4, 0.6]), np.array([[1e-140, 1.0, 0.0], [0.0, 0.5, 0.5]])),
                          ((0.5, 0.5), (np.empty((0, 3)), b))):
        assert isinstance(_mixture(weights, laws)[0], np.ndarray)


# -- a likelihood ratio that overflows: a value in logs, or an error --------

TINY_P = make_distribution([0, 1], [5e-324, 1.0])
TINY_Q = make_distribution([0, 1], [0.1, 0.9])


# NaN at k = 2 and -inf at k = 3 once, then QuadratureFailure
@pytest.mark.parametrize("k, rounded", [(2, 0.10262), (3, 0.10129)])
def test_an_overflowing_ratio_gives_the_polylog_value(k, rounded):
    want = _ref_polylog(k, TINY_Q.mass, TINY_P.mass)
    assert want == pytest.approx(rounded, rel=1e-4)
    assert f_k_divergence(k, TINY_Q, TINY_P) == pytest.approx(want, rel=1e-13)


def test_an_overflowing_ratio_raises_for_a_generic_kernel():
    # +inf before, where sum q f(p/q) = 74.1...: f is known only on t
    with pytest.raises(QuadratureFailure, match="0.1 / 5e-324 overflows at atom 0"):
        generic_f_divergence(lambda t: t * np.log(t), TINY_Q, TINY_P, 0.0, math.inf)


def test_an_overflowing_ratio_leaves_finite_rows_as_they_were():
    # 5e-324 / 0.1 does not overflow (40-digit mpmath below), and a ratio
    # overflowing into a finite row (a kernel bounded at inf) keeps its value
    assert f_k_divergence(2, TINY_P, TINY_Q) == pytest.approx(0.0671420174785132, rel=1e-12)
    bounded = generic_f_divergence(lambda t: np.minimum(t, 1.0), TINY_Q, TINY_P, 0.0, 0.0)
    assert bounded == pytest.approx(5e-324 + 0.9, rel=1e-15)
    # a stack with an overflowed row returns every row, and its finite row
    # bit for bit as that row alone (the polylog series sum each point alone)
    rows = np.array([[0.5, 0.5], [0.1, 0.9]])
    spec = DivergenceSpec("POLYLOG_F", 2)
    got = f_divergence_rows(spec, rows, TINY_P.mass)
    assert got == pytest.approx([_ref_polylog(2, row, TINY_P.mass) for row in rows], rel=1e-13)
    assert got[0] == f_divergence_rows(spec, rows[:1], TINY_P.mass)[0] == 0.5822405264650121


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6), atom=st.integers(0, 5),
       tiny=st.sampled_from([5e-324, 1.5e-320, 2.2250738585072e-310, 1e-300]),
       k=st.integers(2, 6))
def test_polylog_rows_at_a_subnormal_mass_match_mpmath(seed, n, atom, tiny, k):
    # q / p overflows at P's tiny atom: the term is taken in logs
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    atom %= n
    p[(atom + 1) % n] += p[atom] - tiny
    p[atom] = tiny
    got = f_divergence_rows(DivergenceSpec("POLYLOG_F", k), q[None, :], p)[0]
    assert got == pytest.approx(_ref_polylog(k, q, p), rel=1e-13)


@pytest.mark.parametrize("tiny", [5e-324, 1e-310, 1e-300])
@pytest.mark.parametrize("k", [550, 600, 1000])
def test_a_high_order_polylog_at_a_subnormal_mass_matches_mpmath(k, tiny):
    # -inf once, after an overflow in the inversion's L^m/m!, L = ln(1/tiny)
    # about 744: ln tiny now enters its exponent. At k = 1000 the value is
    # near 0, a difference of two terms near 1
    p, q = make_distribution([0, 1], [1.0, 0.0]), make_distribution([0, 1], [tiny, 1.0 - tiny])
    with mpmath.workdps(60):
        want = _ref_polylog(k, p.mass, q.mass)
    got = f_k_divergence(k, p, q)
    assert abs(got - want) <= (3e-13 if k == 1000 else 1e-15 * want)
    conditioned = conditioned_measure_divergence(
        DivergenceSpec("POLYLOG_F", k), make_distribution([0, 1, 2], [tiny, 0.5, 0.5]), [0])
    assert all(abs(x - want) <= (3e-13 if k == 1000 else 1e-15 * want) for x in conditioned)
