import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrel import (
    DivergenceSpec,
    binary_kl,
    chi_squared,
    entropy,
    f_divergence,
    f_divergence_rows,
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
from divrel.errors import DimensionMismatch, DomainError, UnalignedSupports

from conftest import random_pair

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


def test_unaligned_supports_rejected():
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 2], [0.5, 0.5])
    with pytest.raises(UnalignedSupports):
        kl(p, q)


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
      for s in (0.0, 0.3, 1.0)),
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
    got = _gv(p.p[None, :], q.p, skews[:, None])
    assert got == pytest.approx([gyorfi_vajda(s, p, q) for s in skews], rel=1e-14)
