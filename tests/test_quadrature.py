"""The array Gauss-Kronrod quadrature: its contract, its budget, and every
integral it computes against a tight scipy.integrate.quad oracle on the
same integrand."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from divrel import (
    QuadratureConfig,
    check_chi2_half_identity,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
    make_distribution,
    poisson_entropy,
)
from divrel.applications import _ENTROPY_CFG
from divrel.contraction import check_skew_s_integral
from divrel.errors import MaxDepthExceeded, QuadratureFailure
from divrel.identities import DEFAULT_CFG, integrate

from conftest import random_pair


def test_integrand_gets_all_nodes_of_a_round_in_one_call():
    sizes = []

    def f(s):
        sizes.append(s.shape)
        return np.exp(s)

    assert integrate(f, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert all(len(shape) == 1 and shape[0] % 15 == 0 for shape in sizes)


def test_columns_are_integrated_together():
    got = integrate(lambda s: np.column_stack([s, s * s, np.exp(s)]), 0.0, 2.0)
    assert isinstance(got, np.ndarray)
    assert got == pytest.approx([2.0, 8.0 / 3.0, math.exp(2.0) - 1.0], rel=1e-13)


def test_reversed_interval_changes_sign():
    assert integrate(np.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-14)


def test_max_depth_exceeded_names_the_budget_spent():
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14, max_depth=4)
    with pytest.raises(MaxDepthExceeded) as info:
        integrate(lambda s: np.abs(s - 0.3) ** 0.5, 0.0, 1.0, cfg)
    msg = str(info.value)
    assert "[0.0, 1.0]" in msg
    assert "after 4 of max_depth=4 panels" in msg
    assert "error estimate" in msg and "tolerance" in msg


def test_max_depth_bounds_the_panels_scored():
    nodes = []

    def f(s):
        nodes.append(len(s))
        return np.abs(s - 0.3) ** 0.5

    with pytest.raises(MaxDepthExceeded):
        integrate(f, 0.0, 1.0, QuadratureConfig(max_depth=9))
    # the four starting panels plus two halves for each of the five splits
    # that take the count to nine
    assert sum(nodes) == 15 * (4 + 2 * 5)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureFailure):
        integrate(lambda s: np.where(s > 0.5, np.nan, s), 0.0, 1.0)


def test_infinite_integrand_gives_an_infinite_integral():
    assert integrate(lambda s: np.where(s > 0.5, np.inf, s), 0.0, 1.0) == math.inf
    # the finite columns are still integrated to their tolerance
    got = integrate(lambda s: np.column_stack([np.where(s > 0.5, np.inf, s), np.sqrt(s)]),
                    0.0, 1.0)
    assert got[0] == math.inf
    assert got[1] == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_chi2_half_identity_with_an_infinite_curve():
    # chi^2(sP + (1-s)Q || Q) is +inf for every s > 0 when Q lacks an atom of P
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    rep = check_chi2_half_identity(p, q)
    assert rep.lhs == rep.rhs == math.inf


# -- oracle: each rhs against scipy quad (epsrel 1e-13) on the same integrand ----

def _oracle(f, a, b):
    value, _ = scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def _allowance(ref, cfg):
    return max(cfg.abs_tol, cfg.rel_tol * abs(ref))


# scalar integrands in plain Python over the atoms, so that quad's many
# evaluations stay cheap; Li_2(1 - x) is scipy's spence(x)

def _chi2(a, b):
    return sum((x - y) ** 2 / y for x, y in zip(a, b))


def _mix(s, a, b):
    return [(1 - s) * x + s * y for x, y in zip(a, b)]


def _gv(s, a, b):
    return _chi2(a, _mix(s, a, b)) / (s * s)


_POLYLOG_KERNELS = {
    0: lambda x: (1.0 - x) / x,
    1: lambda x: -math.log(x),
    2: lambda x: float(scipy.special.spence(x)),
}


def _polylog_divergence(k, r, p):
    return sum(y * _POLYLOG_KERNELS[k](x / y) for x, y in zip(r, p))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_identity_integrals_match_quad_on_1000_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p, q = random_pair(rng, n)
        a, b = p.p.tolist(), q.p.tolist()
        lam = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.05, 0.95))
        cases = [
            (check_kl_chi2_identity(p, q, lam).rhs,
             [(lambda s: _chi2(a, _mix(s, a, b)) / s, 0.0, lam)]),
            (check_chi2_half_identity(p, q).rhs,
             [(lambda s: _chi2(_mix(s, b, a), b) / s, 0.0, 1.0)]),
            (check_gv_identity(p, q, lam).rhs,
             [(lambda s: s * _gv(s, a, b), 0.0, lam)]),
            (check_skew_s_integral(alpha, p, q).rhs,
             [(lambda s: alpha * s * _gv(s, a, b), 0.0, alpha),
              (lambda s: (1 - alpha) * (1 - s) * _gv(s, a, b), alpha, 1.0)]),
        ]
        for k in (0, 1, 2):
            cases.append((check_recursive_identity(k, p, q, lam).rhs, [(
                lambda s, k=k: _polylog_divergence(k, _mix(s, a, b), a) / s, 0.0, lam,
            )]))
        for rhs, pieces in cases:
            refs = [_oracle(*piece) for piece in pieces]
            assert abs(rhs - sum(refs)) <= sum(_allowance(r, DEFAULT_CFG) for r in refs)


def test_poisson_entropy_matches_quad_on_1000_rates():
    rng = np.random.default_rng(99)
    rates = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 1000))
    got = poisson_entropy(rates)
    assert got.shape == rates.shape
    for lam, h in zip(rates, got):
        def integrand(u):
            t = -math.expm1(-u)
            return (lam - (-math.expm1(-lam * t)) / t) * math.exp(-u) / u

        cutoff = 10.0
        while lam * math.exp(-cutoff) / cutoff > 1e-16:
            cutoff += 10.0
        # quad on pieces that resolve the 1/lam scale near 0
        edges = sorted({0.0, cutoff, *(e for e in (1.0 / lam, 10.0 / lam, 1.0) if e < cutoff)})
        refs = [_oracle(integrand, lo, hi) for lo, hi in zip(edges, edges[1:])]
        ref = lam * (1.0 - math.log(lam)) + sum(refs)
        assert abs(h - ref) <= _allowance(sum(refs), _ENTROPY_CFG), (lam, h, ref)
    assert poisson_entropy(float(rates[0])) == pytest.approx(got[0], rel=1e-12)
