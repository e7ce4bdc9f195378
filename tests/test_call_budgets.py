"""Budgets of numpy work on pair-sized calls, as counts: each holds on any
host, where a timing would not."""

import math

import numpy as np
import pytest

import divrel.contraction
import divrel.distributions
import divrel.divergences
import divrel.identities
import divrel.moment_bounds
from divrel import (MomentTuple, SourceChannelPair, brute_force_mu_f, check_chi2_half_identity,
                    check_kl_chi2_identity, check_recursive_identity, chi2_contraction,
                    kl_moment_lower_bound, make_channel, make_distribution, markov_mixing_report,
                    max_correlation_path_bound, mixture, mu_chi2_channel,
                    skew_contraction_sandwich)
from divrel.distributions import DiscreteDistribution
from divrel.divergences import DivergenceSpec, _polylog_li, f_divergence_rows
from divrel.identities import integrate


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to a list."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _results(monkeypatch, module, name):
    """Wrap module.name so that each call appends its result to a list."""
    results, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


@pytest.fixture
def errstate_entries(monkeypatch):
    entries, real = [], np.errstate

    class Counting:
        def __init__(self, **kwargs):
            self.inner = real(**kwargs)

        def __enter__(self):
            entries.append(1)
            return self.inner.__enter__()

        def __exit__(self, *exc_info):
            return self.inner.__exit__(*exc_info)

    monkeypatch.setattr(np, "errstate", Counting)
    return entries


@pytest.mark.parametrize("f, edges", [
    (np.exp, (0.0, 1.0)),
    (np.exp, (0.0, 0.3, 1.0)),
    # a kink off the edges: many rounds
    (lambda s: np.abs(s - 0.3) ** 0.5, (0.0, 1.0)),
])
def test_integrate_enters_errstate_at_most_once_a_round(errstate_entries, f, edges):
    rounds = []

    def counted(s):
        rounds.append(len(s))
        return f(s)

    integrate(counted, *edges)
    assert 0 < len(errstate_entries) <= len(rounds)


@pytest.mark.parametrize("moments, near_terms", [
    ((45, 20, 40, 20), 0), ((50, 10, 35, 20), 0), ((2, 1, 0, 0), 0), ((3, 0, 1, 5), 0),
    # means 1e-7 apart on unit variances: both terms on the series
    ((0, 4, 1e-7, 4), 2),
    # equal means: every field is 0, and nothing is computed
    ((1, 2, 1, 3), 0),
])
def test_moment_bound_calls_no_array_kernel(monkeypatch, moments, near_terms):
    binary = _counting(monkeypatch, divrel.moment_bounds, "_binary_term")
    series = _counting(monkeypatch, divrel.moment_bounds, "_g_series")
    kl_moment_lower_bound(MomentTuple(*moments))
    assert binary == []
    # one 1-point call per near term: a row's series does not depend on its batch
    assert [len(args[0]) for args in series] == [1] * near_terms


@pytest.mark.parametrize("moments", [
    (45, 20, 40, 20),
    # the reference pair of test_doors.py: a mass of s is subnormal at scale 1
    (2057.2405520276566, 1.0354122601793056e-245, -1353.4166495572242, 1.2902736587e-314),
    # s below 2^-1574: its mass underflows at any scale
    (1e100, 1.0, 0.0, 1e-300),
])
def test_each_form_of_the_moment_bound_takes_its_masses_once(monkeypatch, moments):
    floats = _counting(monkeypatch, divrel.moment_bounds, "_float_masses_and_bound")
    arrays = _counting(monkeypatch, divrel.moment_bounds, "_masses_and_bound")
    kl_moment_lower_bound(MomentTuple(*moments))
    divrel.moment_bounds.moment_bound_arrays(*moments)
    assert len(floats) == len(arrays) == 1


def test_a_law_is_validated_once_a_build(monkeypatch):
    calls = _counting(monkeypatch, divrel.distributions, "validate_mass")
    p = make_distribution([2.0, 0.0, 1.0], [0.2, 0.3, 0.5])
    DiscreteDistribution([0.0, 1.0], [0.4, 0.6])
    make_channel([[0.9, 0.1], [0.2, 0.8]])
    mixture(p, p, 0.5)
    assert len(calls) == 4


def test_contraction_routines_take_no_svd(monkeypatch):
    # every spectral quantity comes from the eigvalsh of the chi^2 contraction
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    w = make_channel([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]])
    sc = SourceChannelPair(make_distribution([0, 1, 2], [0.2, 0.3, 0.5]), w)
    for spec in (DivergenceSpec("KL"), DivergenceSpec("SKEW_K", 0.5)):
        brute_force_mu_f(spec, sc, n_samples=100, seed=1)
    skew_contraction_sandwich(0.5, "S", sc)
    mu_chi2_channel(w)
    # w is symmetric, so reversible at its uniform stationary law
    markov_mixing_report(w, make_distribution([0, 1, 2], [1.0, 0.0, 0.0]), 0.5, 3)
    # a Gram matrix above the Lanczos size
    n = divrel.contraction._LANCZOS_SIZE + 1
    rng = np.random.default_rng(6)
    big = make_channel(rng.dirichlet(np.ones(n), size=n))
    chi2_contraction(SourceChannelPair(make_distribution(range(n), rng.dirichlet(np.ones(n))), big))


def test_eigvalsh_never_gets_a_gram_matrix_at_the_lanczos_size(monkeypatch):
    calls = _counting(monkeypatch, np.linalg, "eigvalsh")
    size = divrel.contraction._LANCZOS_SIZE
    rng = np.random.default_rng(7)

    def law(n):
        return make_distribution(range(n), rng.dirichlet(np.ones(n)))

    # square, wide and tall channels; the first below the size
    for n_in, n_out in ((size - 1, size - 1), (size, size), (size, 2 * size), (2 * size, size)):
        w = make_channel(rng.dirichlet(np.ones(n_out), size=n_in))
        chi2_contraction(SourceChannelPair(law(n_in), w))
    # a stack of three input laws
    w = make_channel(rng.dirichlet(np.ones(size), size=size))
    max_correlation_path_bound(law(size), law(size), w, n_grid=3)
    assert [args[0].shape for args in calls] == [(1, size - 1, size - 1)]


@pytest.mark.parametrize("x, tables, inverted", [
    # t = 1 - x in (1/2, 1): the ln-expansion alone
    ([0.1, 0.2, 0.3], 1, False),
    # t in [0, 1/2]: the power series alone
    ([0.5, 0.7, 1.0], 1, False),
    # t in [-1, 0): the alternating series alone
    ([1.2, 1.9, 2.0], 1, False),
    # y = 1 - x < -1: the alternating series at 1/y, then the inversion
    ([2.5, 4.0, 1e6], 1, True),
    ([0.1, 0.7, 1.5, 3.0], 3, True),
])
def test_polylog_scores_only_the_regions_it_has_points_in(monkeypatch, x, tables, inverted):
    powers = _counting(monkeypatch, divrel.divergences, "_powers")
    inversions = _counting(monkeypatch, divrel.divergences, "_inverted")
    _polylog_li(3, np.array(x))
    assert len(powers) == tables and all(len(args[0]) for args in powers)
    assert len(inversions) == inverted


def test_an_identity_check_validates_no_law(monkeypatch):
    p = make_distribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    q = make_distribution([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
    calls = _counting(monkeypatch, divrel.distributions, "validate_mass")
    check_kl_chi2_identity(p, q, 0.6)
    assert calls == []


def test_chi2_half_integrates_its_line_in_one_round(monkeypatch):
    # the curve chi^2((1-s)Q + sP||Q)/s is the line s chi^2(P||Q), which the
    # first round's four G7/K15 panels integrate exactly, whatever the pair
    curves = _counting(monkeypatch, divrel.identities, "_chi2")
    rng = np.random.default_rng(11)
    for i in range(60):
        n = int(rng.integers(2, 9))
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        if i % 3 == 0:
            a[0] = 0.0
        if i % 5 == 0:
            b[-1] *= 10.0 ** -rng.uniform(3, 12)
        if i % 7 == 0:
            b[0] = 0.0
        support = np.arange(n, dtype=float)
        p, q = (make_distribution(support, x / x.sum()) for x in (a, b))
        curves.clear()
        check_chi2_half_identity(p, q)
        assert [args[0].shape[0] for args in curves] == [60]


# -- the subnormal-mass guards run only where a value needs them -------------

def test_finite_pairs_take_neither_guard(monkeypatch):
    ratios = _counting(monkeypatch, divrel.divergences, "_log_ratio")
    mixtures = _results(monkeypatch, divrel.identities, "_mixture")
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        for spec in (DivergenceSpec("KL"), DivergenceSpec("RENYI", 2.0),
                     DivergenceSpec("RENYI", math.inf), DivergenceSpec("POLYLOG_F", 2),
                     DivergenceSpec("POLYLOG_F", 3)):
            assert np.isfinite(f_divergence_rows(spec, np.stack([a, b]), b)).all()
        support = np.arange(float(n))
        p, q = make_distribution(support, a), make_distribution(support, b)
        for k in (0, 1, 2):
            check_recursive_identity(k, p, q, float(rng.uniform(0.1, 1.0)))
    assert ratios == []
    # a float c = 1, not an array of per-atom scales: the unscaled branch
    assert mixtures and all(isinstance(c, float) for c, _, _ in mixtures)


TINY_P = np.array([5e-324, 1.0])
TINY_Q = np.array([0.1, 0.9])


@pytest.mark.parametrize("spec", [DivergenceSpec("KL"), DivergenceSpec("RENYI", math.inf),
                                  *(DivergenceSpec("POLYLOG_F", k) for k in range(2, 7))])
def test_a_mended_kernel_call_takes_one_log_ratio(monkeypatch, spec):
    # Q / P overflows at P's subnormal atom
    ratios = _counting(monkeypatch, divrel.divergences, "_log_ratio")
    assert math.isfinite(f_divergence_rows(spec, TINY_Q[None, :], TINY_P)[0])
    assert len(ratios) == 1


def test_a_mended_recursive_curve_takes_one_log_ratio_a_call(monkeypatch):
    ratios = _counting(monkeypatch, divrel.divergences, "_log_ratio")
    kernel = _counting(monkeypatch, divrel.identities, "_polylog")
    p = make_distribution([0, 1, 2], [5e-324, 0.5, 0.5 - 5e-324])
    q = make_distribution([0, 1, 2], [0.1, 0.3, 0.6])
    assert check_recursive_identity(2, p, q, 0.7).passed
    # R_s / P overflows at atom 0 on the lhs and in every round of the curve
    assert len(kernel) > 1 and len(ratios) == len(kernel)
