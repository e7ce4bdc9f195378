"""Each public array function converts its arguments once, at entry, and
checks a probability vector there with ``validate_mass``; the search and
quadrature loops behind those doors call none of them again. At the valid
ends of its domain, a public function returns its value or raises a
DivrelError that names the caller's parameter."""

import json
import math
import sys
import time

import mpmath
import numpy as np
import pytest

import divrel
from divrel import (
    DivergenceSpec,
    MomentTuple,
    PoissonFamily,
    SourceChannelPair,
    TypeClassProblem,
    attaining_pair,
    binary_kl,
    brute_force_mu_f,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
    check_skew_s_integral,
    equal_means_quaternary,
    equal_means_sequence,
    f_divergence_rows,
    f_k_divergence,
    g_alpha,
    gaussian_kl,
    gv_lower_bound,
    gyorfi_vajda,
    hcr_lower_bound,
    kl_moment_lower_bound,
    lambert_w_minus1,
    make_channel,
    make_distribution,
    markov_mixing_report,
    max_correlation_path_bound,
    mixture,
    mixture_kl_upper,
    mixture_variance,
    moment_bound_arrays,
    moments,
    n_star,
    poisson_entropy,
    poisson_kl,
    poisson_pmf,
    polylog_f,
    redundancy_report,
    renyi,
    sanov_bound,
    skew_contraction_sandwich,
    skew_k,
    skew_kl_convexity_comparison,
    skew_kl_upper,
    skew_s,
)
from divrel.cli import main
from divrel.contraction import chi2_contraction_power, skew_k_factor, skew_s_factor
from divrel.errors import DimensionMismatch, DivrelError, DomainError, NonFinite
from divrel.inequalities import conditioned_measure_divergence, pair_slacks
from oracles import (binary_kl_mpmath, hcr_mpmath, mean_variance_mpmath, moment_bound_mpmath,
                     n_star_crossing_mpmath, poisson_kl_mpmath)

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


# Scalar doors: every public scalar parameter, as a call with x in its place;
# the other arguments are valid
P = make_distribution([0, 1, 2], [0.2, 0.5, 0.3])
Q = make_distribution([0, 1, 2], [0.5, 0.3, 0.2])
MT = MomentTuple(0.0, 1.0, 1.0, 2.0)
BSC = SourceChannelPair(make_distribution([0, 1], [0.5, 0.5]),
                        make_channel([[0.9, 0.1], [0.1, 0.9]]))
TCP = dict(m_q=40.0, var_q=20.0, mean_box=(43.0, 47.0), var_box=(18.0, 22.0),
           alphabet_size=2, epsilon=1e-10)


def _spec(tag):
    return lambda x: DivergenceSpec(tag, x)


def _tcp(field, index=None):
    def build(x):
        value = x if index is None else tuple(x if i == index else v
                                              for i, v in enumerate(TCP[field]))
        return TypeClassProblem(**{**TCP, field: value})
    return build


SCALAR_DOORS = {
    "mixture.lam": lambda x: mixture(P, Q, x),
    "DivergenceSpec.RENYI": _spec("RENYI"),
    "DivergenceSpec.GV": _spec("GV"),
    "DivergenceSpec.SKEW_K": _spec("SKEW_K"),
    "DivergenceSpec.SKEW_S": _spec("SKEW_S"),
    "DivergenceSpec.POLYLOG_F": _spec("POLYLOG_F"),
    "renyi.alpha": lambda x: renyi(x, P, Q),
    "gyorfi_vajda.s": lambda x: gyorfi_vajda(x, P, Q),
    "skew_k.alpha": lambda x: skew_k(x, P, Q),
    "skew_s.alpha": lambda x: skew_s(x, P, Q),
    "f_k_divergence.k": lambda x: f_k_divergence(x, P, Q),
    "polylog_f.k": lambda x: polylog_f(x, 0.5),
    "polylog_f.x": lambda x: polylog_f(2, x),
    "binary_kl.r": lambda x: binary_kl(x, 0.5),
    "binary_kl.s": lambda x: binary_kl(0.5, x),
    "check_kl_chi2_identity.lam": lambda x: check_kl_chi2_identity(P, Q, x),
    "check_gv_identity.lam": lambda x: check_gv_identity(P, Q, x),
    "check_recursive_identity.k": lambda x: check_recursive_identity(x, P, Q, 0.5),
    "check_recursive_identity.lam": lambda x: check_recursive_identity(1, P, Q, x),
    "check_skew_s_integral.alpha": lambda x: check_skew_s_integral(x, P, Q),
    "g_alpha.alpha": lambda x: g_alpha(x, 0.5),
    "g_alpha.s": lambda x: g_alpha(0.5, x),
    "gv_lower_bound.theta": lambda x: gv_lower_bound(x, P, Q),
    "skew_kl_upper.lam": lambda x: skew_kl_upper(P, Q, x),
    "skew_kl_convexity_comparison.lam": lambda x: skew_kl_convexity_comparison(P, Q, x),
    "mixture_kl_upper.i": lambda x: mixture_kl_upper(x, [P, Q], [0.5, 0.5]),
    "pair_slacks.t": lambda x: pair_slacks([[0.5, 0.5]], [[0.2, 0.8]], x),
    "MomentTuple.m_p": lambda x: MomentTuple(x, 1.0, 0.0, 1.0),
    "MomentTuple.var_p": lambda x: MomentTuple(1.0, x, 0.0, 1.0),
    "MomentTuple.m_q": lambda x: MomentTuple(1.0, 1.0, x, 1.0),
    "MomentTuple.var_q": lambda x: MomentTuple(1.0, 1.0, 0.0, x),
    "hcr_lower_bound.lam": lambda x: hcr_lower_bound(P, Q, x),
    "mixture_variance.lam": lambda x: mixture_variance(MT, x),
    "moment_bound_arrays.m_p": lambda x: moment_bound_arrays(x, 1.0, 0.0, 1.0),
    "moment_bound_arrays.var_q": lambda x: moment_bound_arrays(1.0, 1.0, 0.0, x),
    "equal_means_sequence.m": lambda x: equal_means_sequence(x, 1.0, 4.0, 1e-3),
    "equal_means_sequence.var_p": lambda x: equal_means_sequence(0.0, x, 4.0, 1e-3),
    "equal_means_sequence.var_q": lambda x: equal_means_sequence(0.0, 1.0, x, 1e-3),
    "equal_means_sequence.eps": lambda x: equal_means_sequence(0.0, 1.0, 4.0, x),
    "equal_means_quaternary.var_p": lambda x: equal_means_quaternary(x, 3.0, 10),
    "equal_means_quaternary.var_q": lambda x: equal_means_quaternary(3.0, x, 10),
    "equal_means_quaternary.n": lambda x: equal_means_quaternary(3.0, 7.0, x),
    "brute_force_mu_f.n_samples": lambda x: brute_force_mu_f(DivergenceSpec("KL"), BSC, x),
    "brute_force_mu_f.seed": lambda x: brute_force_mu_f(DivergenceSpec("KL"), BSC, 10, x),
    "markov_mixing_report.alpha": lambda x: markov_mixing_report(BSC.w, BSC.qx, x, 3),
    "markov_mixing_report.n_max": lambda x: markov_mixing_report(BSC.w, BSC.qx, 0.5, x),
    "max_correlation_path_bound.n_grid": lambda x: max_correlation_path_bound(P, Q, make_channel(
        [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]), x),
    "skew_contraction_sandwich.alpha": lambda x: skew_contraction_sandwich(x, "K", BSC),
    "skew_k_factor.alpha": lambda x: skew_k_factor(x, 0.5),
    "skew_k_factor.q_min": lambda x: skew_k_factor(0.5, x),
    "skew_s_factor.alpha": lambda x: skew_s_factor(x, 0.5),
    "skew_s_factor.q_min": lambda x: skew_s_factor(0.5, x),
    "chi2_contraction_power.n": lambda x: chi2_contraction_power(BSC.w, BSC.qx, x),
    "poisson_pmf.lam": lambda x: poisson_pmf(x),
    "poisson_pmf.tail_tol": lambda x: poisson_pmf(3.0, x),
    "poisson_kl.lam_i": lambda x: poisson_kl(x, 3.0),
    "poisson_entropy.lam": lambda x: poisson_entropy(x),
    "PoissonFamily.lambdas": lambda x: PoissonFamily((x, 3.0), (0.5, 0.5)),
    "lambert_w_minus1.y": lambda x: lambert_w_minus1(x),
    "n_star.d": lambda x: n_star(TypeClassProblem(**TCP), x),
    "sanov_bound.n": lambda x: sanov_bound(TypeClassProblem(**TCP), x, 0.1),
    "sanov_bound.d": lambda x: sanov_bound(TypeClassProblem(**TCP), 10, x),
    "TypeClassProblem.m_q": _tcp("m_q"),
    "TypeClassProblem.var_q": _tcp("var_q"),
    "TypeClassProblem.mean_box": _tcp("mean_box", 1),
    "TypeClassProblem.var_box": _tcp("var_box", 0),
    "TypeClassProblem.alphabet_size": _tcp("alphabet_size"),
    "TypeClassProblem.epsilon": _tcp("epsilon"),
}
NOT_REAL = {"string": "a", "complex": 1j, "none": None, "nan": math.nan}
# None is the default of these, and a valid choice: sanov_bound takes d* then
NONE_IS_VALID = {"sanov_bound.d"}


@pytest.mark.parametrize("door, bad", [
    (door, bad) for door in sorted(SCALAR_DOORS) for bad in sorted(NOT_REAL)
    if not (bad == "none" and door in NONE_IS_VALID)])
def test_every_scalar_door_rejects_what_is_not_a_real_number(door, bad):
    with pytest.raises(DivrelError):
        SCALAR_DOORS[door](NOT_REAL[bad])


@pytest.mark.parametrize("k", [-1, 2.5, True, 1000])
def test_the_recursive_order_is_a_polylog_order_below_its_successor(k):
    # -1 once raised IndexError, 2.5 ran k = 2, and 1000 ran order 1001
    with pytest.raises(DomainError, match="order k"):
        check_recursive_identity(k, P, Q, 0.5)


def test_a_whole_float_order_is_still_an_order():
    whole, k2 = (check_recursive_identity(k, P, Q, 0.5) for k in (2.0, 2))
    assert (whole.lhs, whole.rhs, whole.passed) == (k2.lhs, k2.rhs, True)
    assert DivergenceSpec("POLYLOG_F", 2.0).param == 2.0
    with pytest.raises(DomainError):
        DivergenceSpec("POLYLOG_F", True)


@pytest.mark.parametrize("args", [
    (1.35e154, 1.0, 0.0, 1.0), (1e160, 1.0, 0.0, 1.0), (1e200, 1.0, 0.0, 1.0),
    (1e300, 1.0, -1e300, 1.0), (1e308, 1.0, 0.0, 1.0), (1e308, 1.0, -1e308, 1.0),
    # a gap tiny against the variance gap: b/(2a) overflows too
    (1e-160, 1.0, 0.0, 1e150),
])
def test_a_bound_that_overflows_floats_raises_in_both_forms(args):
    with pytest.raises(DomainError, match="mean gap too large for the bound in floats"):
        kl_moment_lower_bound(MomentTuple(*args))
    with pytest.raises(DomainError, match="mean gap too large for the bound in floats"):
        moment_bound_arrays(*args)
    with pytest.raises(DomainError, match="mean gap too large"):
        moment_bound_arrays([0.0, args[0]], 1.0, [0.5, args[2]], [1.0, args[3]])


def test_the_largest_gaps_in_floats_keep_their_bound():
    for gap in (1e154, 1.3e154):
        cert = kl_moment_lower_bound(MomentTuple(gap, 1.0, 0.0, 1.0))
        assert math.isfinite(cert.bound_nats) and cert.r == 1.0
        assert moment_bound_arrays(gap, 1.0, 0.0, 1.0)[5] == cert.bound_nats


def test_the_gaussian_kl_of_an_overflowing_gap_is_infinite():
    assert gaussian_kl(MomentTuple(1e200, 1.0, 0.0, 1.0)) == math.inf
    assert gaussian_kl(MomentTuple(1e308, 1.0, -1e308, 1.0)) == math.inf


@pytest.mark.parametrize("call", [
    lambda: binary_kl([0.1, 0.2], [0.1, 0.2, 0.3]),
    lambda: moment_bound_arrays([1.0, 2.0], 1.0, [0.0, 1.0, 2.0], 1.0),
    lambda: moment_bound_arrays(1.0, [1.0, 2.0], 0.0, [1.0, 2.0, 3.0]),
])
def test_shapes_that_do_not_broadcast_are_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match="do not broadcast"):
        call()


@pytest.mark.parametrize("P, Q", [
    ([[0.5, 0.5]], [[0.5, 0.5], [0.2, 0.8]]), ([[0.5, 0.5]], [[0.2, 0.3, 0.5]]),
    ([0.5, 0.5], [0.2, 0.8]),
])
def test_pair_stacks_of_two_shapes_are_a_dimension_mismatch(P, Q):
    with pytest.raises(DimensionMismatch, match="stacks of one shape"):
        pair_slacks(P, Q, 0.5)


@pytest.mark.parametrize("indices", [[[0], [0, 1]], [[0], [1]], [[0, 1], 2]])
def test_conditioning_indices_are_one_flat_list(indices):
    with pytest.raises(DomainError, match="flat list of integers"):
        conditioned_measure_divergence(DivergenceSpec("KL"), P, indices)


@pytest.mark.parametrize("argv", [
    ["identity-check", "--which", "recursive", "--k", "-1"],
    ["moment-bound", "--mp", "1e200", "--varp", "1", "--mq", "0", "--varq", "1"],
    # r rounds to 0: the attaining pair leaves the floats
    ["moment-bound", "--mp", "0", "--varp", "1e-4", "--mq", "4.768505305131004e-157",
     "--varq", "93790.41571965019", "--attain"],
])
def test_the_cli_calls_that_once_ended_in_a_traceback_exit_1(tmp_path, capsys, argv):
    if argv[0] == "identity-check":
        for name, mass in (("p", [0.4, 0.6]), ("q", [0.7, 0.3])):
            (tmp_path / f"{name}.json").write_text(json.dumps({"support": [0, 1], "mass": mass}))
            argv = argv + [f"--{name}", str(tmp_path / f"{name}.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "Traceback" not in err


# Valid extremes: calls at the ends of each domain, and seeded draws
# log-uniform across it (the probes of the moment and Lambert W rows run down
# to subnormal masses, variances and arguments), each with its exact value as
# an mpf from an mpmath oracle, or the DivrelError it must raise and words of
# its message that name the caller's parameter
_RNG = np.random.default_rng(2020)
_PAIRS = 10.0 ** _RNG.uniform(-320.0, 0.0, (40, 2))
_RATES = 10.0 ** _RNG.uniform(-300.0, 300.0, (40, 2))
_TUPLES = np.column_stack([_RNG.standard_normal((30, 2)) * 10.0 ** _RNG.uniform(-5, 5, (30, 2)),
                           10.0 ** _RNG.uniform(-320.0, 10.0, (30, 2))])[:, [0, 2, 1, 3]]
_W_ARGS = -(10.0 ** _RNG.uniform(-323.3, -300.0, 40))
_MAX = sys.float_info.max
_REFERENCE_PAIR = (2057.2405520276566, 1.0354122601793056e-245, -1353.4166495572242,
                   1.2902736587e-314)
_TCP_HALF = dict(m_q=40.0, var_q=20.0, mean_box=(43.0, 47.0), var_box=(18.0, 22.0),
                 alphabet_size=2, epsilon=0.5)


def _x_exp_x(x):
    """x e^x of a float x, as an mpf: the image that W must give back y of."""
    with mpmath.workdps(40):
        return mpmath.mpf(x) * mpmath.exp(mpmath.mpf(x))


def _mp_gaussian_kl(var_p, var_q, dps=50):
    """KL of N(0, var_p) from N(0, var_q): (ln(var_q/var_p) + var_p/var_q - 1)/2."""
    with mpmath.workdps(dps):
        ratio = mpmath.mpf(var_p) / mpmath.mpf(var_q)
        return +(ratio - 1 - mpmath.log(ratio)) / 2


def _convexity_bits(rates, weights):
    """sum_i w_i sum_j w_j D(P_i||P_j) in bits, from the exact Poisson KL."""
    with mpmath.workdps(60):
        return +mpmath.fsum(a * b * poisson_kl_mpmath(x, y) for x, a in zip(rates, weights)
                            for y, b in zip(rates, weights)) / mpmath.log(2)


def _n_star(d, **tcp):
    return n_star(TypeClassProblem(**{**_TCP_HALF, **tcp}), d)


def _crossing(d, **tcp):
    t = {**_TCP_HALF, **tcp}
    return n_star_crossing_mpmath(t["alphabet_size"], t["epsilon"], d)


EXTREMES = {
    "binary_kl.tiny_s": (lambda: binary_kl(0.018639775369780384, 1.183248132927e-312),
                         binary_kl_mpmath(0.018639775369780384, 1.183248132927e-312)),
    **{f"binary_kl.ends.{r!r}.{s!r}": (lambda r=r, s=s: binary_kl(r, s), binary_kl_mpmath(r, s))
       for r, s in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (5e-324, 0.5),
                    (0.5, 5e-324), (1.0 - 2.0 ** -53, 5e-324), (5e-324, 1.0 - 2.0 ** -53),
                    (1e-300, 1e-310), (1e-310, 1e-300))},
    **{f"binary_kl.probe.{i}": (lambda r=r, s=s: binary_kl(r, s), binary_kl_mpmath(r, s))
       for i, (r, s) in enumerate(_PAIRS)},
    **{f"poisson_kl.ends.{x!r}.{y!r}": (lambda x=x, y=y: poisson_kl(x, y), poisson_kl_mpmath(x, y))
       for x, y in ((1e-300, 1e300), (1e300, 1e-300), (5e-324, _MAX), (_MAX, 5e-324),
                    (_MAX, _MAX), (5e-324, 5e-324), (5e-324, 1.0), (1.0, 5e-324))},
    **{f"poisson_kl.probe.{i}": (lambda x=x, y=y: poisson_kl(x, y), poisson_kl_mpmath(x, y))
       for i, (x, y) in enumerate(_RATES)},
    "redundancy_report.tiny_rate": (
        lambda: redundancy_report(PoissonFamily((1e-320, 100.0), (0.5, 0.5)))[
            "convexity_upper_bits"],
        _convexity_bits((1e-320, 100.0), (0.5, 0.5))),
    "kl_moment_lower_bound.reference": (
        lambda: kl_moment_lower_bound(MomentTuple(*_REFERENCE_PAIR)).bound_nats,
        moment_bound_mpmath(*_REFERENCE_PAIR)),
    **{f"kl_moment_lower_bound.probe.{i}": (
        lambda t=t: kl_moment_lower_bound(MomentTuple(*map(float, t))).bound_nats,
        moment_bound_mpmath(*t)) for i, t in enumerate(_TUPLES)},
    # v finite, 2v not: a tiny gap against a variance gap of 1.9e298
    "kl_moment_lower_bound.two_v_overflows": (
        lambda: kl_moment_lower_bound(MomentTuple(1e-10, 0.0, 0.0, 1.9e298)),
        (DomainError, "mean gap too large")),
    # s below 2^-1574, whose mass underflows at any scale
    **{f"kl_moment_lower_bound.tiny_s.{var_q!r}": (
        lambda var_q=var_q: kl_moment_lower_bound(MomentTuple(1e100, 1.0, 0.0, var_q)).bound_nats,
        moment_bound_mpmath(1e100, 1.0, 0.0, var_q)) for var_q in (1e-300, 5e-324)},
    # r rounds to 0, or an atom of P to +inf
    **{f"attaining_pair.{t!r}": (lambda t=t: attaining_pair(MomentTuple(*t)),
                                 (DomainError, "attaining pair of these moments"))
       for t in ((0.0, 9.496598795388095e-05, 4.768505305131004e-157, 93790.41571965019),
                 (0.0, 1.0, 1e-157, 2.0))},
    # var_q/var_p overflows or underflows
    **{f"gaussian_kl.{var_p!r}.{var_q!r}": (
        lambda var_p=var_p, var_q=var_q: gaussian_kl(MomentTuple(0.0, var_p, 0.0, var_q)),
        _mp_gaussian_kl(var_p, var_q)) for var_p, var_q in ((5e-324, 1.0), (1e-300, 1e300),
                                                             (1e300, 1e-300))},
    **{f"lambert_w_minus1.{y!r}": (lambda y=y: _x_exp_x(lambert_w_minus1(y)), mpmath.mpf(y))
       for y in (-1.0 / math.e + 1e-12, -2.2250738585072014e-308, -1e-308, -1e-309, -1e-310,
                 -1e-315, -1e-320, -1e-323, -5e-324)},
    **{f"lambert_w_minus1.probe.{i}": (lambda y=y: _x_exp_x(lambert_w_minus1(y)), mpmath.mpf(y))
       for i, y in enumerate(map(float, _W_ARGS))},
    **{f"n_star.{d!r}.{tcp}": (lambda d=d, tcp=tcp: _n_star(d, **tcp), _crossing(d, **tcp))
       for d, tcp in ((1e-20, {}), (1e-22, {}), (1e-40, {}), (1e-100, {}), (1e-305, {}),
                      (1e-20, {"alphabet_size": 100}), (1e-3, {}), (1e300, {}), (_MAX, {}),
                      (1e-300, {"epsilon": 1e-300}), (1e-12, {"alphabet_size": 10 ** 6}))},
    "n_star.past_the_float_range": (lambda: _n_star(1e-310), (DomainError, "divergence floor d")),
    "n_star.eta_below_the_floats": (lambda: _n_star(5e-324, alphabet_size=3),
                                    (DomainError, "divergence floor d")),
    **{f"TypeClassProblem.{field}.{box!r}": (
        lambda field=field, box=box: TypeClassProblem(**{**TCP, field: box}),
        (DomainError, words)) for field, box, words in (
            ("mean_box", (43.0,), "mean box"), ("mean_box", 43.0, "mean box"),
            ("mean_box", (43.0, 45.0, 47.0), "mean box"), ("var_box", (18.0,), "variance box"),
            ("mean_box", (47.0, 43.0), "upper mean edge"),
            ("var_box", (22.0, 18.0), "upper variance edge"))},
    **{f"moments.{support!r}": (
        lambda support=support, mass=mass: moments(make_distribution(support, mass))[1],
        mean_variance_mpmath(support, mass)[1])
       for support, mass in [(u, [1.0 / len(u)] * len(u)) for u in (
           [0.0, 1e200], [1e154, 2e154], [-_MAX, _MAX], [1.3e154, -1.3e154], [_MAX], [0.0, 1.0],
           # a shifted support, whose E[X^2] - (E X)^2 cancels every digit
           [1e8, 1e8 + 1.0], [1e10, 1e10 + 1.0, 1e10 + 2.0], [-3e7, -3e7 + 0.5])]
       # an atom of mass 0 far away
       + [([0.0, 1.0, 1e200], [0.5, 0.5, 0.0])]},
    **{f"mixture_variance.{gap!r}.{lam!r}": (
        lambda gap=gap, lam=lam: mixture_variance(MomentTuple(gap, 1.0, 0.0, 1.0), lam),
        1 - mpmath.mpf(lam) + lam + lam * (1 - mpmath.mpf(lam)) * mpmath.mpf(gap) ** 2)
       for gap in (1e200, 1.3e154, _MAX) for lam in (0.0, 0.5, 1.0, 1e-300)},
    # a variance above the floats in a finite bound, a shifted support, and a far atom of mass 0
    **{f"hcr_lower_bound.{name}": (lambda p=p, q=q: hcr_lower_bound(p, q, 0.5),
                                   hcr_mpmath(p, q, 0.5)[0]) for name, p, q in (
        ("overflowing_P", make_distribution([0.0, 1e200], [0.5, 0.5]), Q),
        ("overflowing_Q", P, make_distribution([0.0, 1e200], [0.5, 0.5])),
        ("shifted", make_distribution([1e8, 1e8 + 1.0], [0.5, 0.5]),
         make_distribution([1e8, 1e8 + 1.0], [0.3, 0.7])),
        ("far_atom_of_mass_0", make_distribution([0.0, 1.0, 1e200], [0.5, 0.5, 0.0]),
         make_distribution([0.0, 1.0], [0.3, 0.7])))},
    **{f"hcr_lower_bound.gap.{lam!r}": (
        lambda lam=lam: hcr_lower_bound(make_distribution([1e200], [1.0]),
                                        make_distribution([0.0, 1.0], [0.5, 0.5]), lam),
        hcr_mpmath(make_distribution([1e200], [1.0]),
                   make_distribution([0.0, 1.0], [0.5, 0.5]), lam)[0])
       for lam in (1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0)},
    # a support narrower than 2^-511, whose squared deviations underflow unscaled
    **{f"hcr_lower_bound.narrow.{w!r}": (
        lambda w=w: hcr_lower_bound(make_distribution([0.0, w], [0.5, 0.5]),
                                    make_distribution([0.0, w], [0.3, 0.7]), 0.5),
        mpmath.mpf(1) / 24) for w in (1e-160, 1e-200, 1e-300, 5e-324)},
    # alpha q_min underflows to 0, or a factor overflows where mu = 0
    "skew_k_factor.underflow": (lambda: skew_k_factor(1e-300, 1e-300), mpmath.mpf("1e600")),
    "skew_s_factor.underflow": (
        lambda: skew_s_factor(0.5, 5e-324),
        (mpmath.log(2) / 2) / (mpmath.mpf(1) / 4 * mpmath.mpf(5e-324))),
    **{f"markov_mixing_report.{key}.zero_mu": (
        lambda key=key: math.fsum(row[key] for row in markov_mixing_report(
            make_channel([[1e-10, 1 - 1e-10]] * 2), make_distribution([0, 1], [0.5, 0.5]),
            1e-300, 2)["rows"]),
        mpmath.mpf(0)) for key in ("k_envelope", "s_envelope")},
    "skew_contraction_sandwich.zero_lower": (
        lambda: skew_contraction_sandwich(1e-300, "K", SourceChannelPair(
            make_distribution([0, 1], [1e-10, 1 - 1e-10]), make_channel([[0.5, 0.5]] * 2)))[2],
        mpmath.mpf(0)),
}
# tail-bound evaluations that one n_star call may take: twice log2 of the
# largest n in floats, and a few for the bracket
_TAIL_BOUND_BUDGET = 2 * 1024 + 8


def _exact_enough(value, exact, rel=1e-13) -> bool:
    """value within rel of the mpf exact, give or take a few units of the
    smallest subnormal, which a subnormal result rounds to; +inf only where
    the exact value is above the largest float."""
    if isinstance(value, float) and math.isinf(value):
        return value > 0 and exact > _MAX
    return abs(mpmath.mpf(value) - exact) <= rel * abs(exact) + 2.0 ** -1072


@pytest.mark.parametrize("case", sorted(EXTREMES))
def test_every_valid_extreme_returns_its_value_or_names_its_parameter(case, monkeypatch):
    call, exact = EXTREMES[case]
    calls = []
    tail_bound = divrel.applications._log_tail_bound

    def counted(n, k, d):
        calls.append(n)
        # a loop that would not end fails here, rather than hanging the run
        assert len(calls) <= _TAIL_BOUND_BUDGET, f"n_star past {_TAIL_BOUND_BUDGET} evaluations"
        return tail_bound(n, k, d)

    monkeypatch.setattr(divrel.applications, "_log_tail_bound", counted)
    if isinstance(exact, tuple):
        error, words = exact
        with pytest.raises(error, match=words):
            call()
        return
    value = call()
    if case.startswith("n_star."):
        # the least n past the crossing, which above 2^53 floats know to 1e-16 relative
        assert value >= 1 and abs(value - exact) <= 1e-15 * exact + 1.0
        assert len(calls) <= 2 * max(math.log2(value), 1.0) + 6
    else:
        assert _exact_enough(value, exact), (value, exact)


def test_a_moment_bound_probe_gives_the_same_bits_in_both_forms():
    arrays = moment_bound_arrays(*_TUPLES.T)[5]
    floats = [kl_moment_lower_bound(MomentTuple(*map(float, t))).bound_nats for t in _TUPLES]
    assert arrays.tolist() == floats


def test_the_sample_size_call_that_once_hung_returns_at_once(capsys):
    argv = ["sample-size", "--mq", "44", "--varq", "1", "--mean-box", "44.00000000001", "46",
            "--var-box", "1", "2", "--alphabet", "2", "--epsilon", "0.5", "--format", "json"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    n = json.loads(capsys.readouterr().out)["scalars"]["n_star"]
    # the crossing at d* = 3.86e-23; the closed form alone is 3.4e-17 off
    assert abs(n - mpmath.mpf("1.459068951898444162e24")) <= 1e-15 * n
