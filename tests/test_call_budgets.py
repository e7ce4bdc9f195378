"""Budgets of numpy work on pair-sized calls, as counts: each holds on any
host, where a timing would not."""

import numpy as np
import pytest

import divrel.distributions
import divrel.divergences
import divrel.moment_bounds
from divrel import (MomentTuple, check_kl_chi2_identity, kl_moment_lower_bound,
                    make_channel, make_distribution, mixture)
from divrel.distributions import DiscreteDistribution
from divrel.divergences import _polylog_li
from divrel.identities import integrate


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to a list."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


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
    assert [len(args[0]) for args in series] == ([near_terms] if near_terms else [])


def test_a_law_is_validated_once_a_build(monkeypatch):
    calls = _counting(monkeypatch, divrel.distributions, "validate_mass")
    p = make_distribution([2.0, 0.0, 1.0], [0.2, 0.3, 0.5])
    DiscreteDistribution([0.0, 1.0], [0.4, 0.6])
    make_channel([[0.9, 0.1], [0.2, 0.8]])
    mixture(p, p, 0.5)
    assert len(calls) == 4


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
