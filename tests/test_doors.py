"""Each public array function converts its arguments once, at entry, and
checks a probability vector there with ``validate_mass``; the search and
quadrature loops behind those doors call none of them again."""

import math

import numpy as np
import pytest

import divrel
from divrel import (
    DivergenceSpec,
    SourceChannelPair,
    binary_kl,
    brute_force_mu_f,
    check_skew_s_integral,
    f_divergence_rows,
    g_alpha,
    make_channel,
    make_distribution,
    moment_bound_arrays,
    polylog_f,
)
from divrel.errors import DivrelError, NonFinite
from divrel.inequalities import pair_slacks

# each door, called with one bad stack x in the place of an array argument
DOORS = {
    "f_divergence_rows": lambda x: f_divergence_rows(DivergenceSpec("KL"), x, [0.5, 0.5]),
    "pair_slacks": lambda x: pair_slacks(x, [[0.5, 0.5]], 0.5),
    "binary_kl": lambda x: binary_kl(x, 0.5),
    "polylog_f": lambda x: polylog_f(2, x),
    "g_alpha": lambda x: g_alpha(0.5, x),
    "moment_bound_arrays": lambda x: moment_bound_arrays(x, 1.0, 0.0, 1.0),
}
BAD = {
    "string": [["0.5", "0.5"]],
    "complex": [[0.5 + 0.5j, 0.5]],
    "ragged": [[0.5, 0.5], [1.0]],
    "nan": [[math.nan, 1.0]],
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_door_rejects_what_is_not_an_array_of_reals(door, bad):
    with pytest.raises(DivrelError):
        DOORS[door](BAD[bad])


def test_a_nan_row_is_no_law():
    with pytest.raises(NonFinite):
        f_divergence_rows(DivergenceSpec("KL"), [[math.nan, 1.0]], [0.5, 0.5])
    with pytest.raises(NonFinite):
        pair_slacks([[0.5, 0.5]], [[math.nan, 1.0]], 0.5)


DOOR_NAMES = ("f_divergence_rows", "validate_mass", "g_alpha")


def _count_door_calls(monkeypatch) -> list:
    """Wraps each door function wherever a divrel module binds it; returns
    the list of the names called since."""
    calls = []
    for module in ("distributions", "divergences", "identities", "inequalities",
                   "contraction"):
        mod = getattr(divrel, module)
        for name in DOOR_NAMES:
            if name in vars(mod):
                def counted(*args, _fn=vars(mod)[name], _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_no_door_runs_inside_a_search_or_a_quadrature(monkeypatch):
    w = make_channel([[0.9, 0.1], [0.1, 0.9]])
    sc = SourceChannelPair(make_distribution([0, 1], [0.5, 0.5]), w)
    rng = np.random.default_rng(5)
    p, q = (make_distribution(range(5), rng.dirichlet(np.ones(5))) for _ in range(2))
    calls = _count_door_calls(monkeypatch)
    for spec in (DivergenceSpec("SKEW_K", 0.5), DivergenceSpec("SKEW_S", 0.5),
                 DivergenceSpec("KL")):
        brute_force_mu_f(spec, sc, n_samples=1500, seed=1)
    assert check_skew_s_integral(0.3, p, q).passed
    assert calls == []
    # the wrappers count a call through a module's binding
    divrel.divergences.f_divergence_rows(DivergenceSpec("KL"), [[0.5, 0.5]], [0.5, 0.5])
    assert calls == ["f_divergence_rows", "validate_mass", "validate_mass"]
