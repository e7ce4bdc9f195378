import math
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divrel as D
from divrel import (
    Channel,
    DiscreteDistribution,
    align,
    make_channel,
    make_distribution,
    mixture,
    mixture_of,
    moments,
    push_forward,
)
from divrel.distributions import validate_mass
from divrel.divergences import generic_f_divergence
from divrel.errors import (
    DimensionMismatch,
    DomainError,
    DuplicateAtom,
    DivrelError,
    NegativeMass,
    NonFinite,
    NonStochastic,
)
from divrel.identities import check_skew_s_integral
from divrel.inequalities import skew_kl_convexity_comparison

from oracles import validate_mass_reference


def test_valid_distribution():
    d = make_distribution([0.0, 1.0, 2.5], [0.2, 0.3, 0.5])
    assert np.array_equal(d.support, [0.0, 1.0, 2.5])
    assert math.isclose(sum(d.mass), 1.0)


def test_unsorted_input_is_sorted():
    d = make_distribution([2.0, 0.0, 1.0], [0.5, 0.2, 0.3])
    assert np.array_equal(d.support, [0.0, 1.0, 2.0])
    assert np.array_equal(d.mass, [0.2, 0.3, 0.5])


def test_zero_mass_atoms_allowed():
    d = make_distribution([0, 1, 2], [0.5, 0.0, 0.5])
    assert d.mass[1] == 0.0


def test_rejects_negative_mass():
    with pytest.raises(NegativeMass):
        make_distribution([0, 1], [1.1, -0.1])


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: DiscreteDistribution([0, 1], ["a", 1]), DomainError, id="str-mass"),
    pytest.param(lambda: make_distribution([0, 1], [0.5, 1j]), DomainError, id="complex-mass"),
    pytest.param(lambda: make_distribution([0, 1], np.array([0.5, 0.5 + 0j])), DomainError,
                 id="complex-array"),
    pytest.param(lambda: make_distribution([[0], [1, 2]], [0.5, 0.5]), DimensionMismatch,
                 id="ragged-support"),
    pytest.param(lambda: make_channel([[0.5, 0.5], [1.0]]), DimensionMismatch,
                 id="ragged-channel"),
    pytest.param(lambda: Channel([[0.5, "x"]]), DomainError, id="str-channel"),
    pytest.param(lambda: D.DivergenceSpec("RENYI", "2"), DomainError, id="str-param"),
    pytest.param(lambda: D.DivergenceSpec("GV", [0.5]), DomainError, id="list-param"),
    pytest.param(lambda: D.MomentTuple("a", 1, 2, 3), DomainError, id="str-moment"),
    pytest.param(lambda: D.TypeClassProblem(40, 20, ("a", 47), (18, 22), 2, 1e-10),
                 DomainError, id="str-box-edge"),
    pytest.param(lambda: D.PoissonFamily(("a",), (1.0,)), DomainError, id="str-rate"),
])
def test_input_that_is_no_array_of_real_numbers_raises_a_divrel_error(build, error):
    # a value that is not a real number, or rows of unequal length
    with pytest.raises(error):
        build()


def test_rejects_bad_sum():
    with pytest.raises(NonStochastic):
        make_distribution([0, 1], [0.5, 0.6])


def test_rejects_duplicate_atom():
    with pytest.raises(DuplicateAtom):
        make_distribution([1.0, 1.0], [0.5, 0.5])


def test_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        make_distribution([0, 1, 2], [0.5, 0.5])


@pytest.mark.parametrize("support, mass", [
    ([0.0, 1.0, 2.0], [0.5, 0.5]), ([[0.0, 1.0]], [[0.5, 0.5]]), ([], []),
])
def test_direct_construction_needs_equal_positive_lengths(support, mass):
    # make_distribution checks its own lengths first; this is the class's check
    with pytest.raises(DimensionMismatch, match="equal positive length"):
        DiscreteDistribution(support, mass)


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
    assert np.array_equal(pa.support, [0.0, 1.0, 2.0])
    assert np.array_equal(qa.support, [0.0, 1.0, 2.0])
    assert np.array_equal(pa.mass, [0.4, 0.6, 0.0])
    assert np.array_equal(qa.mass, [0.0, 0.3, 0.7])


def test_align_noop_on_shared_support():
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([0, 1], [0.1, 0.9])
    assert align(p, q) == (p, q)


def test_mixture_endpoints():
    p = make_distribution([0, 1], [0.4, 0.6])
    q = make_distribution([0, 1], [0.1, 0.9])
    assert mixture(p, q, 0.0) == p
    assert np.array_equal(mixture(p, q, 1.0).mass, q.mass)


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan, math.inf])
def test_mixture_weight_outside_the_unit_interval_is_a_domain_error(lam):
    p = make_distribution([0, 1], [0.4, 0.6])
    with pytest.raises(DomainError):
        mixture(p, p, lam)


def test_mixture_interior():
    p = make_distribution([0, 1], [1.0, 0.0])
    q = make_distribution([0, 1], [0.0, 1.0])
    m = mixture(p, q, 0.25)
    assert np.array_equal(m.mass, [0.75, 0.25])


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


@pytest.mark.parametrize("rows", [[0.5, 0.5], [[[1.0]]], np.empty((0, 2))])
def test_channel_must_be_a_non_empty_matrix(rows):
    with pytest.raises(DimensionMismatch, match="2-d"):
        make_channel(rows)


def test_channel_json_round_trip():
    w = make_channel([[0.9, 0.1], [0.2, 0.8]])
    assert Channel.from_json(w.to_json()) == w


def test_push_forward():
    w = make_channel([[0.9, 0.1], [0.2, 0.8]])
    p = make_distribution([0, 1], [0.5, 0.5])
    out = push_forward(p, w)
    assert np.allclose(out.mass, [0.55, 0.45])


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


def _raised(check, m):
    """The class and message that check raises on m, or None."""
    try:
        check(m)
    except DivrelError as exc:
        return type(exc), str(exc)
    return None


# bad laws: each a row, or the middle row of a three-row stack
BAD_MASSES = [
    ([0.5, math.nan], NonFinite, "mass entries must be finite"),
    ([math.inf, 0.0], NonFinite, "mass entries must be finite"),
    ([-math.inf, 1.0], NonFinite, "mass entries must be finite"),
    # sums that would overflow beside an infinite entry
    ([1e308, 1e308, math.inf], NonFinite, "mass entries must be finite"),
    ([1.5, -0.5], NegativeMass, "negative mass entry: -0.5"),
    ([0.5, -0.0, 0.6], NonStochastic, "mass sums to 1.1, not 1"),
    ([2.0, 0.0], NonStochastic, "mass sums to 2.0, not 1"),
    ([0.25, 0.25], NonStochastic, "mass sums to 0.5, not 1"),
    ([1e308, 1e308], NonStochastic, "mass sums to inf, not 1"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("row, error, message", BAD_MASSES)
def test_validate_mass_errors_of_laws_and_stacks(row, error, message):
    row = np.array(row)
    stack = np.stack([np.full(len(row), 1.0 / len(row)), row, np.eye(len(row))[0]])
    for m in (row, stack, stack[None]):
        assert _raised(validate_mass, m) == (error, message) == _raised(validate_mass_reference, m)


@pytest.mark.parametrize("shape, raised", [
    ((0,), (NonStochastic, "mass sums to 0.0, not 1")),
    ((0, 3), None),
    ((3, 0), (NonStochastic, "mass sums to 0.0, not 1")),
    ((2, 0, 4), None),
])
def test_validate_mass_on_empty_laws_and_stacks(shape, raised):
    m = np.zeros(shape)
    assert _raised(validate_mass, m) == raised == _raised(validate_mass_reference, m)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2e-9, 1e-300, -1e-300, 0.25,
                                 math.nan, math.inf, -math.inf, 1e308]) | st.floats(),
                min_size=1, max_size=6),
       st.integers(1, 3))
def test_validate_mass_raises_as_its_reference(entries, rows):
    m = np.array(entries)
    m = m[:len(m) - len(m) % rows].reshape(rows, -1) if rows > 1 and len(m) >= rows else m
    with np.errstate(over="ignore"):
        assert _raised(validate_mass, m) == _raised(validate_mass_reference, m)


# -- the representation: read-only float64 arrays with value equality -------


@st.composite
def laws(draw, max_atoms=8, atoms=st.integers(-20, 20)):
    """(support, mass) of a law on distinct integer-valued atoms, unsorted."""
    support = draw(st.lists(atoms, min_size=1, max_size=max_atoms, unique=True))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(support),
                            max_size=len(support)))
    w = np.asarray(weights) + 1e-3
    return np.asarray(support, dtype=float), w / w.sum()


@settings(max_examples=80, deadline=None)
@given(laws(), st.randoms(use_true_random=False))
def test_shuffled_support_matches_argsort_reference(law, rnd):
    support, mass = law
    order = list(range(len(support)))
    rnd.shuffle(order)
    d = make_distribution(support[order], mass[order])
    ref = np.argsort(support)
    assert np.array_equal(d.support, support[ref])
    assert np.array_equal(d.mass, mass[ref])
    assert d == make_distribution(list(support), list(mass))


@settings(max_examples=40, deadline=None)
@given(laws())
def test_fields_are_read_only_float64_copies(law):
    support, mass = law
    order = np.argsort(support)
    u, m = support[order].copy(), mass[order].copy()
    d = DiscreteDistribution(u, m)
    for field in (d.support, d.mass):
        assert isinstance(field, np.ndarray) and field.dtype == np.float64
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 0.5
    kept = d.mass.copy(), d.support.copy()
    m[:] = 0.0
    u[0] = 99.0
    assert np.array_equal(d.mass, kept[0]) and np.array_equal(d.support, kept[1])


def _dict_union(dists, weights):
    """Reference: each law as an atom -> mass dict, mixed atom by atom."""
    atoms = sorted({float(a) for d in dists for a in d.support})
    tables = [dict(zip(d.support.tolist(), d.mass.tolist())) for d in dists]
    rows = [[t.get(a, 0.0) for a in atoms] for t in tables]
    mix = [sum(w * row[i] for w, row in zip(weights, rows)) for i in range(len(atoms))]
    return atoms, rows, mix


@settings(max_examples=80, deadline=None)
@given(st.lists(laws(max_atoms=6, atoms=st.integers(0, 9)), min_size=1, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_align_and_mixture_of_match_dict_reference(raw, raw_weights):
    dists = [make_distribution(u, m) for u, m in raw]
    w = np.asarray(raw_weights[:len(dists)])
    w = w / w.sum()
    atoms, rows, mix = _dict_union(dists, w)
    got = mixture_of(dists, w)
    assert np.array_equal(got.support, atoms)
    assert np.allclose(got.mass, mix, rtol=1e-12, atol=1e-15)
    pa, qa = align(dists[0], dists[-1])
    ref_atoms, ref_rows, _ = _dict_union([dists[0], dists[-1]], [0.5, 0.5])
    assert np.array_equal(pa.support, ref_atoms) and np.array_equal(qa.support, ref_atoms)
    assert np.array_equal(pa.mass, ref_rows[0]) and np.array_equal(qa.mass, ref_rows[1])


# every public function of two laws, as f(p, q)
TWO_LAW_FUNCTIONS = {
    "kl": D.kl, "chi_squared": D.chi_squared, "total_variation": D.total_variation,
    "renyi": lambda p, q: D.renyi(0.5, p, q),
    "gyorfi_vajda": lambda p, q: D.gyorfi_vajda(0.3, p, q),
    "skew_k": lambda p, q: D.skew_k(0.4, p, q),
    "skew_s": lambda p, q: D.skew_s(0.4, p, q),
    "jensen_shannon": D.jensen_shannon,
    "f_k_divergence": lambda p, q: D.f_k_divergence(2, p, q),
    "f_divergence": lambda p, q: D.f_divergence(D.DivergenceSpec("RENYI", 2.0), p, q),
    "generic_f_divergence": lambda p, q: generic_f_divergence(
        lambda t: t * np.log(t), p, q, 0.0, math.inf),
    "pinsker": D.pinsker, "thirds_bound": D.thirds_bound,
    "symmetrized_chi2_bound": D.symmetrized_chi2_bound,
    "gv_lower_bound": lambda p, q: D.gv_lower_bound(0.3, p, q),
    "half_chi2_plus_quarter_tv": D.half_chi2_plus_quarter_tv,
    "skew_kl_upper": lambda p, q: D.skew_kl_upper(p, q, 0.3),
    "skew_kl_convexity_comparison": lambda p, q: skew_kl_convexity_comparison(p, q, 0.3),
    "derivative_checks": D.derivative_checks,
    "check_kl_chi2_identity": lambda p, q: D.check_kl_chi2_identity(p, q, 0.7),
    "check_chi2_half_identity": D.check_chi2_half_identity,
    "check_gv_identity": lambda p, q: D.check_gv_identity(p, q, 1.0),
    "check_recursive_identity": lambda p, q: D.check_recursive_identity(1, p, q, 0.6),
    "check_skew_s_integral": lambda p, q: check_skew_s_integral(0.3, p, q),
}


def _outcome(f, p, q) -> str:
    """The repr of f(p, q), exact for floats, or the class of its error."""
    try:
        return repr(f(p, q))
    except DivrelError as exc:
        return f"raises {type(exc).__name__}"


@settings(max_examples=40, deadline=None)
@given(laws(max_atoms=4, atoms=st.integers(0, 6)), laws(max_atoms=4, atoms=st.integers(0, 6)))
def test_every_two_law_function_puts_the_pair_on_its_union_support(law_p, law_q):
    assume(set(law_p[0]) & set(law_q[0]) and set(law_p[0]) != set(law_q[0]))
    p, q = make_distribution(*law_p), make_distribution(*law_q)
    pa, qa = align(p, q)
    for name, f in TWO_LAW_FUNCTIONS.items():
        assert _outcome(f, p, q) == _outcome(f, pa, qa), name


@settings(max_examples=60, deadline=None)
@given(laws(), st.integers(0, 7))
def test_json_round_trip_is_equal_and_a_changed_mass_is_not(law, k):
    d = make_distribution(*law)
    e = DiscreteDistribution.from_json(d.to_json())
    assert e == d and not (e != d)
    i = k % len(d)
    if len(d) > 1:
        m = d.mass.copy()
        j = (i + 1) % len(d)
        shift = m[i] / 2
        m[i] -= shift
        m[j] += shift
        assert DiscreteDistribution(d.support, m) != d
    assert d != make_distribution(d.support + 1.0, d.mass)
    assert d != "not a law"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_channel_matrix_is_a_read_only_value(n_in, n_out, seed):
    rows = np.random.default_rng(seed).dirichlet(np.ones(n_out), size=n_in)
    w = make_channel(rows)
    assert isinstance(w.matrix, np.ndarray) and w.matrix.dtype == np.float64
    assert np.array_equal(w.matrix, rows)
    assert (w.n_inputs, w.n_outputs) == (n_in, n_out)
    with pytest.raises(ValueError):
        w.matrix[0, 0] = 0.5
    rows[0, 0] = 7.0
    assert w.matrix[0, 0] != 7.0
    assert Channel.from_json(w.to_json()) == w
    if n_out > 1:
        changed = w.matrix.copy()
        changed[0, :2] = changed[0, 1::-1]
        assert (make_channel(changed) != w) == (changed[0, 0] != changed[0, 1])


def test_laws_and_channels_are_unhashable():
    with pytest.raises(TypeError):
        hash(make_distribution([0, 1], [0.5, 0.5]))
    with pytest.raises(TypeError):
        hash(make_channel([[1.0]]))


# -- the JSON codec: bit for bit, whatever the memory layout -----------------

# floats whose shortest round-trip digits a codec may get wrong: the least
# subnormal, other subnormals, negative zero
ODD_MASSES = [5e-324, 2.2250738585072e-310, 1.5e-320, -0.0]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _with_odd_masses(mass):
    """mass with its first entries replaced by ODD_MASSES, still summing to 1."""
    mass = np.array(mass, dtype=float)
    k = len(ODD_MASSES)
    mass[k] += mass[:k].sum()
    mass[:k] = ODD_MASSES
    return mass


def test_json_round_trip_is_bit_exact_on_a_large_law():
    n = 100_000
    # integer atoms, negative zero, subnormals and +-1e300
    support = np.arange(n, dtype=float) - n // 2
    support[n // 2:n // 2 + 3] = [-0.0, 5e-324, 2.2e-310]
    support[[0, -1]] = [-1e300, 1e300]
    mass = _with_odd_masses(np.random.default_rng(3).dirichlet(np.ones(n)))
    d = make_distribution(support, mass)
    e = DiscreteDistribution.from_json(d.to_json())
    assert np.array_equal(_bits(e.support), _bits(support))
    assert np.array_equal(_bits(e.mass), _bits(mass))


def test_json_round_trip_is_bit_exact_on_a_channel():
    rows = np.random.default_rng(4).dirichlet(np.ones(4), size=1000)
    rows[:3] = [ODD_MASSES[:3] + [1.0], [-0.0, 0.5, 0.5, 0.0], [1e-300, 0.25, 0.75, 0.0]]
    w = make_channel(rows)
    assert np.array_equal(_bits(Channel.from_json(w.to_json()).matrix), _bits(rows))


def test_json_file_format_is_compact_and_reads_integers():
    d = make_distribution([0, 2], [0.25, 0.75])
    assert d.to_json() == '{"support":[0,2],"mass":[0.25,0.75]}'
    assert make_channel([[1, 0]]).to_json() == '{"rows":[[1,0]]}'
    # a file may write its atoms as integers
    assert DiscreteDistribution.from_json('{"support": [0, 2], "mass": [0.25, 0.75]}') == d


# integral floats up to 2^53 are written as integers; past it, negative zero
# and every fraction keep their float text
JSON_INTEGERS = st.integers(-2**53, 2**53).map(float)
JSON_INTEGRAL = st.one_of(JSON_INTEGERS,
                          st.sampled_from([2.0**53 + 2, 1e16, -1e16, 1e300, -1e300, -0.0]))
JSON_REALS = st.one_of(JSON_INTEGRAL, st.just(5e-324),
                       st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()))


def _writes_integers(values) -> bool:
    """The codec's rule, entry by entry: every value integral, within 2^53
    in magnitude, and no negative zero."""
    return all(v.is_integer() and abs(v) <= 2**53
               and not (v == 0 and math.copysign(1.0, v) < 0) for v in map(float, values))


@st.composite
def codec_masses(draw, n):
    """n masses summing to 1: one atom of mass 1 among (signed) zeros, or a
    spread that may hold the least subnormal."""
    if draw(st.booleans()):
        zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
        zeros[draw(st.integers(0, n - 1))] = 1.0
        return np.array(zeros)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    w /= w.sum()
    if n > 1 and draw(st.booleans()):
        w[1] += w[0]
        w[0] = 5e-324
    return w


@st.composite
def codec_laws(draw):
    support = draw(st.one_of(*(st.lists(values, min_size=1, max_size=6, unique=True)
                               for values in (JSON_INTEGERS, JSON_INTEGRAL, JSON_REALS))))
    return make_distribution(support, draw(codec_masses(len(support))))


def _written(text, key):
    """The values under key in text, as Python ints and floats."""
    return np.ravel(np.array(orjson.loads(text)[key], dtype=object)).tolist()


def _to_json(x) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return x.to_json()


@settings(max_examples=150, deadline=None)
@given(codec_laws(), st.integers(1, 4).flatmap(
    lambda k: st.lists(codec_masses(k), min_size=1, max_size=4)))
def test_json_writes_integers_exactly_where_the_round_trip_keeps_every_bit(d, rows):
    w = make_channel(rows)
    # each JSON key and the field it holds
    for x, keys in ((d, {"support": "support", "mass": "mass"}), (w, {"rows": "matrix"})):
        text = _to_json(x)
        back = type(x).from_json(text)
        for key, field in keys.items():
            a = getattr(x, field)
            assert np.array_equal(_bits(getattr(back, field)), _bits(a))
            kinds = {type(v) for v in _written(text, key)}
            assert kinds == ({int} if _writes_integers(a.ravel()) else {float}), (key, text)


def test_fortran_ordered_and_strided_inputs_round_trip():
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(3), size=6)
    wide = np.zeros((6, 6))
    wide[:, ::2] = rows
    mass = np.zeros(10)
    mass[::2] = rng.dirichlet(np.ones(5))
    support = np.arange(10.0)
    for w in (make_channel(np.asfortranarray(rows)), make_channel(wide[:, ::2]),
              make_channel(rows[::2]), Channel(rows.T.T)):
        assert w.matrix.flags.c_contiguous
        assert Channel.from_json(w.to_json()) == w
    for d in (make_distribution(support[::2], mass[::2]),
              DiscreteDistribution(support[::2], mass[::2])):
        assert d.support.flags.c_contiguous and d.mass.flags.c_contiguous
        assert np.array_equal(d.mass, mass[::2])
        assert DiscreteDistribution.from_json(d.to_json()) == d


MALFORMED_LAWS = [
    "[0.5, 0.5]",                                     # an array, not an object
    '{"support": {"a": 1}, "mass": [1.0]}',           # an object as a field
    '{"mass": [0.5, 0.5]}',                           # a missing key
    '{"support": ["0", "1"], "mass": [0.5, 0.5]}',    # numbers written as strings
    '{"support": [0, 1], "mass": [0.5, null]}',
    '"support"',
    "{",
]
MALFORMED_CHANNELS = [
    "[[1.0, 0.0]]",
    '{"rows": {"a": [1.0]}}',
    '{"matrix": [[1.0, 0.0]]}',
    '{"rows": [[1.0], [0.5, 0.5]]}',                  # ragged rows
    '{"rows": [[true, false]]}',
]


@pytest.mark.parametrize("text", MALFORMED_LAWS)
def test_distribution_from_json_rejects_wrong_shape(text):
    with pytest.raises(DivrelError, match="expected a JSON object with numeric support, mass"):
        DiscreteDistribution.from_json(text)


@pytest.mark.parametrize("text", MALFORMED_CHANNELS)
def test_channel_from_json_rejects_wrong_shape(text):
    with pytest.raises(DivrelError, match="expected a JSON object with numeric rows"):
        Channel.from_json(text)
