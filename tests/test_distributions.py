import math

import numpy as np
import pytest

from divrel import (
    Channel,
    DiscreteDistribution,
    align,
    make_channel,
    make_distribution,
    mixture,
    moments,
    push_forward,
)
from divrel.distributions import validate_mass
from divrel.errors import (
    DimensionMismatch,
    DuplicateAtom,
    DivrelError,
    NegativeMass,
    NonFinite,
    NonStochastic,
)


def test_valid_distribution():
    d = make_distribution([0.0, 1.0, 2.5], [0.2, 0.3, 0.5])
    assert d.support == (0.0, 1.0, 2.5)
    assert math.isclose(sum(d.mass), 1.0)


def test_unsorted_input_is_sorted():
    d = make_distribution([2.0, 0.0, 1.0], [0.5, 0.2, 0.3])
    assert d.support == (0.0, 1.0, 2.0)
    assert d.mass == (0.2, 0.3, 0.5)


def test_zero_mass_atoms_allowed():
    d = make_distribution([0, 1, 2], [0.5, 0.0, 0.5])
    assert d.mass[1] == 0.0


def test_rejects_negative_mass():
    with pytest.raises(NegativeMass):
        make_distribution([0, 1], [1.1, -0.1])


def test_rejects_bad_sum():
    with pytest.raises(NonStochastic):
        make_distribution([0, 1], [0.5, 0.6])


def test_rejects_duplicate_atom():
    with pytest.raises(DuplicateAtom):
        make_distribution([1.0, 1.0], [0.5, 0.5])


def test_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        make_distribution([0, 1, 2], [0.5, 0.5])


def test_no_silent_renormalization():
    # off by 1e-6 must be rejected, not fixed up
    with pytest.raises(NonStochastic):
        make_distribution([0, 1], [0.5, 0.500001])


def test_json_round_trip():
    d = make_distribution([0.0, 2.0], [0.25, 0.75])
    d2 = DiscreteDistribution.from_json(d.to_json())
    assert d == d2


def test_align_zero_pads_union():
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([1, 2], [0.3, 0.7])
    pa, qa = align(p, q)
    assert pa.support == qa.support == (0.0, 1.0, 2.0)
    assert pa.mass == (0.4, 0.6, 0.0)
    assert qa.mass == (0.0, 0.3, 0.7)


def test_align_noop_on_shared_support():
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([0, 1], [0.1, 0.9])
    assert align(p, q) == (p, q)


def test_mixture_endpoints():
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([0, 1], [0.1, 0.9])
    assert mixture(p, q, 0.0) == p
    assert mixture(p, q, 1.0).mass == q.mass


def test_mixture_interior():
    p = make_distribution([0, 1], [1.0, 0.0])
    q = make_distribution([0, 1], [0.0, 1.0])
    m = mixture(p, q, 0.25)
    assert m.mass == (0.75, 0.25)


def test_moments():
    d = make_distribution([-1.0, 1.0], [0.5, 0.5])
    mean, var = moments(d)
    assert mean == 0.0 and var == 1.0


def test_moments_point_mass():
    mean, var = moments(make_distribution([3.0], [1.0]))
    assert (mean, var) == (3.0, 0.0)


def test_channel_validation():
    with pytest.raises(NonStochastic):
        make_channel([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(NegativeMass):
        make_channel([[1.2, -0.2], [0.5, 0.5]])


def test_channel_json_round_trip():
    w = make_channel([[0.9, 0.1], [0.2, 0.8]])
    assert Channel.from_json(w.to_json()) == w


def test_push_forward():
    w = make_channel([[0.9, 0.1], [0.2, 0.8]])
    p = make_distribution([0, 1], [0.5, 0.5])
    out = push_forward(p, w)
    assert np.allclose(out.p, [0.55, 0.45])


def test_push_forward_dimension_check():
    w = make_channel([[1.0]])
    p = make_distribution([0, 1], [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        push_forward(p, w)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(NonFinite):
        make_distribution([0, 1], [bad, 1.0])
    with pytest.raises(NonFinite):
        DiscreteDistribution((0.0, 1.0), (bad, 1.0))
    with pytest.raises(NonFinite):
        make_distribution([0, bad], [0.5, 0.5])
    with pytest.raises(NonFinite):
        make_channel([[0.5, 0.5], [bad, 1.0]])
    assert issubclass(NonFinite, DivrelError)


def test_validate_mass_checks_whole_stacks():
    good = np.array([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]])
    validate_mass(good)
    validate_mass(good[:0])  # an empty stack has nothing to reject
    for row, error in (([0.5, math.nan], NonFinite), ([1.1, -0.1], NegativeMass),
                       ([0.5, 0.6], NonStochastic)):
        stack = good.copy()
        stack[1] = row
        with pytest.raises(error):
            validate_mass(stack)
