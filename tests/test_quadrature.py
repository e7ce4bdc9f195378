"""The array Gauss-Kronrod quadrature: its contract, its budget, and every
integral it computes against a tight scipy.integrate.quad oracle on the
same integrand; and the Poisson entropy against quad on its integral
representation."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divrel.identities
from divrel import (
    check_chi2_half_identity,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
    make_distribution,
    poisson_entropy,
)
from divrel.contraction import check_skew_s_integral
from divrel.errors import DivrelError, MaxDepthExceeded, QuadratureFailure
from divrel.identities import integrate

from conftest import random_pair
from oracles import integrate_reference


def test_integrand_gets_all_nodes_of_a_round_in_one_call():
    sizes = []

    def f(s):
        sizes.append(s.shape)
        return np.exp(s)

    assert integrate(f, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert all(len(shape) == 1 and shape[0] % 15 == 0 for shape in sizes)


def test_reversed_interval_changes_sign():
    assert integrate(np.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, rel=1e-14)


@pytest.mark.parametrize("edges", [(0.0, 5e-324), (0.0, 1e-322), (0.0, -1e-322),
                                   (1.0, 1.0 + 2.0 ** -50)])
def test_no_node_falls_on_the_left_end(edges):
    # f need only have a limit at edges[0]; on panels of a few ulps the nodes
    # round onto it, and are taken one ulp inside
    nodes = []

    def f(s):
        nodes.append(s.copy())
        return np.ones_like(s)

    integrate(f, *edges)
    assert nodes and not any((s == edges[0]).any() for s in nodes)


def _first_round(*edges):
    """The nodes of the first call of the integrand."""
    calls = []

    def f(s):
        calls.append(s.copy())
        return np.exp(s)

    integrate(f, *edges)
    return calls[0]


def _gauss_kronrod_nodes(lo, hi):
    half = 0.5 * (hi - lo)
    return (divrel.identities._XK[:, None] * half + (lo + half)).ravel()


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 0.7), (0.1, 0.9), (1.0, 0.0), (0.0, 1e-3)])
def test_first_round_panels_are_those_of_linspace(a, b):
    edges = np.linspace(a, b, 5)
    assert np.array_equal(_first_round(a, b), _gauss_kronrod_nodes(edges[:-1], edges[1:]))


def test_inner_edges_split_the_first_round():
    # four panels between each two edges, each edge ending a panel
    edges = (0.0, 0.3, 0.8, 1.0)
    quarters = [np.linspace(lo, hi, 5) for lo, hi in zip(edges, edges[1:])]
    lo = np.concatenate([q[:-1] for q in quarters])
    hi = np.concatenate([q[1:] for q in quarters])
    assert np.array_equal(_first_round(*edges), _gauss_kronrod_nodes(lo, hi))


def test_a_jump_at_an_edge_takes_one_round():
    rounds = []

    def step(s):
        rounds.append(len(s))
        return np.where(s > 0.3, 1.0, 0.0)

    assert integrate(step, 0.0, 0.3, 1.0) == pytest.approx(0.7, rel=1e-14)
    assert rounds == [15 * 8]
    # with no edge there, each round bisects the panel that holds the jump
    rounds.clear()
    assert integrate(step, 0.0, 1.0) == pytest.approx(0.7, rel=1e-10)
    assert len(rounds) > 20


def test_repeated_edges_bound_no_panel():
    assert integrate(np.exp, 0.0, 0.0, 1.0) == integrate(np.exp, 0.0, 1.0, 1.0) \
        == integrate(np.exp, 0.0, 1.0)
    assert integrate(np.exp, 0.5, 0.5, 0.5) == 0.0


def test_max_depth_exceeded_names_the_budget_spent(monkeypatch):
    monkeypatch.setattr(divrel.identities, "_MAX_PANELS", 4)
    with pytest.raises(MaxDepthExceeded) as info:
        integrate(lambda s: np.abs(s - 0.3) ** 0.5, 0.0, 1.0)
    msg = str(info.value)
    assert "[0.0, 1.0]" in msg
    assert "after 4 of 4 panels" in msg
    assert "error estimate" in msg and "tolerance" in msg


def test_max_depth_bounds_the_panels_scored(monkeypatch):
    nodes = []

    def f(s):
        nodes.append(len(s))
        return np.abs(s - 0.3) ** 0.5

    monkeypatch.setattr(divrel.identities, "_MAX_PANELS", 9)
    with pytest.raises(MaxDepthExceeded):
        integrate(f, 0.0, 1.0)
    # the four starting panels plus two halves for each of the five splits
    # that take the count to nine
    assert sum(nodes) == 15 * (4 + 2 * 5)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureFailure):
        integrate(lambda s: np.where(s > 0.5, np.nan, s), 0.0, 1.0)


def test_infinite_integrand_gives_an_infinite_integral():
    assert integrate(lambda s: np.where(s > 0.5, np.inf, s), 0.0, 1.0) == math.inf


def test_chi2_half_identity_with_an_infinite_curve():
    # chi^2(sP + (1-s)Q || Q) is +inf for every s > 0 when Q lacks an atom of P
    p = make_distribution([0, 1], [0.5, 0.5])
    q = make_distribution([0, 1], [1.0, 0.0])
    rep = check_chi2_half_identity(p, q)
    assert rep.lhs == rep.rhs == math.inf


# -- the loop against its earlier array form: the same bits, nodes and errors --

@dataclass(frozen=True)
class RationalCurve:
    """A polynomial over (s - center)^2 + width^2: a spike at center that
    takes a few rounds, many, or the whole panel budget as width falls; at
    width 0 a pole, where a node on it gives an infinite value or 0/0 = NaN."""

    num: tuple
    center: float
    width: float

    def __call__(self, s):
        with np.errstate(all="ignore"):
            return np.polyval(self.num, s) / ((s - self.center) ** 2 + self.width ** 2)


@st.composite
def rational_curves(draw):
    num = draw(st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=1, max_size=4))
    center = draw(st.floats(-0.5, 1.5))
    width = draw(st.sampled_from([0.0, 0.5]) | st.floats(1e-3, 1.0))
    return RationalCurve(tuple(num), center, width)


# repeated, signed-zero and reversed edges among them
_EDGE_POOL = [0.0, -0.0, 0.3, 0.5, 1.0, 1e-3, -1.0]
edge_sets = st.lists(st.sampled_from(_EDGE_POOL) | st.floats(-2.0, 2.0, allow_subnormal=False),
                     min_size=2, max_size=4)


def _outcome(integrator, curve, edges):
    """(value bits, or error class and message; the nodes of every call)."""
    calls = []

    def f(s):
        calls.append(s.copy())
        return curve(s)

    try:
        result = float(integrator(f, *edges)).hex()
    # the suite turns a RuntimeWarning into an error, as inf - inf in a sum
    except (DivrelError, RuntimeWarning) as exc:
        result = (type(exc), str(exc))
    return result, calls


@settings(max_examples=400, deadline=None)
@given(rational_curves(), edge_sets)
# a node that rounds onto edges[0], which both forms take one ulp inside
@example(RationalCurve((1.5, 0.0, 1.5, 1.0), 0.0, 0.625), [2.0, -1.875, 1.0])
@example(RationalCurve((1.0,), 0.375, 0.0), [0.3, -2.0, 0.0])
def test_integrate_matches_its_array_form_bit_for_bit(curve, edges):
    got, got_calls = _outcome(integrate, curve, edges)
    want, want_calls = _outcome(integrate_reference, curve, edges)
    assert got == want
    assert len(got_calls) == len(want_calls)
    assert all(np.array_equal(g, w) for g, w in zip(got_calls, want_calls))


def test_integrate_matches_its_array_form_on_the_identity_curves():
    # the kl-chi2 and skew-S curves of random pairs, split rounds included
    rng = np.random.default_rng(25)
    for _ in range(60):
        p, q = random_pair(rng, int(rng.integers(2, 9)), strict=False)
        a, b = p.mass, q.mass
        lam, alpha = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 0.95))
        for curve, edges in [
            (lambda s: divrel.divergences._gv(a[None, :], b, s[:, None]) * s, (0.0, lam)),
            (lambda s: divrel.identities.g_alpha(alpha, s)
             * divrel.divergences._gv(a[None, :], b, s[:, None]), (0.0, alpha, 1.0)),
        ]:
            got, got_calls = _outcome(integrate, curve, edges)
            want, want_calls = _outcome(integrate_reference, curve, edges)
            assert got == want
            assert [len(c) for c in got_calls] == [len(c) for c in want_calls]


# -- oracle: each rhs against scipy quad (epsrel 1e-13) on the same integrand ----

def _oracle(f, a, b):
    value, _ = scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def _allowance(ref, rel_tol=1e-10, abs_tol=1e-12):
    return max(abs_tol, rel_tol * abs(ref))


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
        a, b = p.mass.tolist(), q.mass.tolist()
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
            assert abs(rhs - sum(refs)) <= sum(_allowance(r) for r in refs)


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
        assert abs(h - ref) <= _allowance(sum(refs), 1e-12, 1e-14), (lam, h, ref)
    assert poisson_entropy(float(rates[0])) == pytest.approx(got[0], rel=1e-12)
