"""Seeded inputs, operations and output checks for the benchmark workloads.

Inputs are raw numbers and arrays drawn from ``--seed``; divrel objects
are built inside the timed operations, so the library receives only the
generated inputs. Each operation is ``(kind, call, check)``: ``call``
runs the library and returns its result, ``check`` raises ``Failed`` when
the result is wrong, or when divrel's own result says the relation it
checked failed. References are computed here with numpy/scipy formulas
independent of divrel, or are the paper's reference values.

Every failure counts as a failed operation. A failure that matches an
entry of ``KNOWN_DEFECTS`` leaves the run correct; any other makes it
report ``correct: false``.

A workload is a sequence of rounds. Round ``r`` uses ``pool[r % len(pool)]``
so a run can go on for as long as ``--seconds`` asks without generating
inputs inside the timed loop.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.special
import scipy.stats

import divrel as D

# reference problems and values (paper examples and the acceptance suite)
TCP_REF = (40.0, 20.0, (43.0, 47.0), (18.0, 22.0))
D_STAR_REF = 0.203
N_STAR_REF = {2: 138, 100: 4170}
MOMENT_REF = (  # (m_p, var_p, m_q, var_q), bound, gaussian, exponential
    ((45.0, 20.0, 40.0, 20.0), 0.521, 0.625, 1.118),
    ((50.0, 10.0, 35.0, 20.0), 2.332, 5.722, 3.701),
)
REDUNDANCY_REF_RATES = (16.0, 20.0, 24.0, 28.0, 32.0)
REDUNDANCY_REF = {"sum_kl_upper_bits": 1.46, "convexity_upper_bits": 1.99}
NU_REF_PCT = {"nu_upper_improved": 57.0, "nu_upper_loose": 69.3}
BRUTE_SPECS = (("SKEW_K", 1.0), ("SKEW_K", 0.5), ("SKEW_S", 0.5))
BRUTE_GAP = 1e-4

# Messages of the checks that recognise a known defect (see KNOWN_DEFECTS).
SKEW_S_MISS = "skew-S integral misses its own tolerance"
SKEW_S_STUCK = "skew-S integral did not converge"
POWER_MISS = "power iteration misses 1e-10"
# How far a known accuracy defect may take a value before the check treats it
# as a new failure: about 10x the worst error seen over 764 random small-sweep
# pairs (8.7e-4 relative) and over 24 random 200-state chains (3.7e-10).
SKEW_S_BAND = 1e-2
POWER_BAND = 1e-8

# Defects of divrel that the benchmark counts as failed operations without
# routing around them; the fixes belong to the library. Entries are
# (workload, operation kind, failure kind, text the failure message holds).
# A failure that matches no entry makes the run report ``correct: false``.
KNOWN_DEFECTS = (
    # the report's ``passed`` is a numpy.bool_, which json.dumps rejects
    ("cli-session", "identity-check recursive", "error", "is not JSON serializable"),
    # the bound at var_P = 0 is printed as a bare NaN
    ("cli-session", "moment-bound varp=0", "invalid-output", "invalid JSON constant NaN"),
    # quad is not told about g_alpha's kink at s = alpha
    ("cli-session", "identity-check skew-s", "failed", SKEW_S_MISS),
    ("cli-session", "identity-check skew-s", "error", "quadrature did not converge"),
    ("small-sweep", "pair-suite", "failed", SKEW_S_MISS),
    ("small-sweep", "pair-suite", "failed", SKEW_S_STUCK),
    # chi2_contraction above 64 states stops its power iteration early
    ("large-support", "mixing", "failed", POWER_MISS),
)


def known_defect(workload: str, kind: str, failure: tuple[str, str]) -> bool:
    return any(w == workload and k == kind and f == failure[0] and text in failure[1]
               for w, k, f, text in KNOWN_DEFECTS)


class Failed(Exception):
    """An output is wrong, or divrel reports that the relation it checked failed."""


def require(ok, msg: str) -> None:
    if not ok:
        raise Failed(msg)


def close(name: str, got, want, rel: float = 1e-9, abs_: float = 0.0) -> None:
    got, want = float(got), float(want)
    err = abs(got - want)
    require(err <= abs_ or err <= rel * abs(want),
            f"{name}: got {got!r}, want {want!r} (error {err:.3g})")


def lower_estimate(name: str, got, want) -> None:
    """A sampled lower estimate of ``want`` that may fall short by BRUTE_GAP."""
    require(want - BRUTE_GAP <= got <= want, f"{name}: {got!r} is not within "
            f"[{want - BRUTE_GAP!r}, {want!r}]")


def check_skew_s(lhs, rhs, passed, alpha, a, b) -> None:
    """A skew-S integral identity: the closed form must match the reference;
    the integral may miss divrel's tolerance only within SKEW_S_BAND."""
    close("skew-S closed form", lhs, ref_skew_s(alpha, a, b), rel=1e-9, abs_=1e-15)
    close("skew-S integral vs closed form", rhs, lhs, rel=SKEW_S_BAND)
    require(passed, f"{SKEW_S_MISS}: lhs {lhs!r} rhs {rhs!r}")


def strict_json(text: str):
    """Parse JSON as the standard defines it: no bare NaN or Infinity."""
    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")
    return json.loads(text, parse_constant=reject)


# -- numpy references -------------------------------------------------------

def ref_kl(a, b):
    pos = a > 0
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))


def ref_chi2(a, b):
    return float(np.sum((a - b) ** 2 / b))


def ref_skew_k(alpha, a, b):
    return ref_kl(a, (1 - alpha) * a + alpha * b)


def ref_skew_s(alpha, a, b):
    return alpha * ref_skew_k(alpha, a, b) + (1 - alpha) * ref_skew_k(1 - alpha, b, a)


def ref_divergence(spec: str, a, b) -> float:
    name, _, arg = spec.partition(":")
    t = float(arg) if arg else None
    if name == "kl":
        return ref_kl(a, b)
    if name == "chi2":
        return ref_chi2(a, b)
    if name == "tv":
        return float(np.sum(np.abs(a - b)))
    if name == "renyi":
        return float(np.log(np.sum(a**t * b ** (1 - t))) / (t - 1))
    if name == "gv":
        return ref_chi2(a, (1 - t) * a + t * b) / (t * t)
    if name == "skew_k":
        return ref_skew_k(t, a, b)
    if name == "skew_s":
        return ref_skew_s(t, a, b)
    if name == "js":
        return ref_skew_s(0.5, a, b)
    if name == "polylog2":  # Li_2(1 - x) kernel; scipy's spence(x) = Li_2(1 - x)
        return float(np.sum(b * scipy.special.spence(a / b)))
    raise ValueError(spec)


def ref_entropy(a):
    return float(-np.sum(a * np.log(a)))


def ref_mu(rows, qx):
    """Chi^2 contraction: squared second singular value, by full SVD."""
    qy = qx @ rows
    b = np.sqrt(qx)[:, None] * rows / np.sqrt(qy)[None, :]
    return float(np.linalg.svd(b, compute_uv=False)[1] ** 2)


def ref_binary_kl(r, s):
    return sum(x * math.log(x / y) for x, y in ((r, s), (1 - r, 1 - s)) if x > 0)


def reversible_chain(rng, n, lazy):
    """Lazy random walk on symmetric weights, with its stationary law."""
    s = rng.random((n, n))
    s = s + s.T
    m = s / s.sum(axis=1, keepdims=True)
    return lazy * np.eye(n) + (1 - lazy) * m, s.sum(axis=1) / s.sum()


def check_mixing(rep, rows, pi):
    for row in rep["rows"]:
        require(row["k_alpha"] <= row["k_envelope"] + 1e-12,
                f"K envelope broken at n={row['n']}")
        require(row["s_alpha"] <= row["s_envelope"] + 1e-12,
                f"S envelope broken at n={row['n']}")
    mu = ref_mu(rows, pi)
    close("mixing mu_chi2", rep["mu_chi2"], mu, rel=0.0, abs_=POWER_BAND)
    # last, so that this known defect cannot hide another failure
    err = abs(rep["mu_chi2"] - mu)
    require(err <= 1e-10, f"{POWER_MISS}: mu_chi2 {rep['mu_chi2']!r}, "
            f"want {mu!r} (error {err:.3g})")


def check_redundancy(rep, rates, weights):
    bits = [rep["direct_sum_bits"], rep["sum_kl_upper_bits"], rep["convexity_upper_bits"]]
    require(bits[0] <= bits[1] + 1e-9 and bits[1] <= bits[2] + 1e-9,
            f"redundancy bounds out of order: {bits}")
    h = sum(w * scipy.stats.poisson(lam).entropy() for w, lam in zip(weights, rates))
    close("avg_entropy_bits", rep["avg_entropy_bits"], h / math.log(2), rel=1e-8)


def tail_log_bound(n, k, d):
    return (k - 1) * math.log(n + 1.0) - n * d


def check_n_star(n, k, d, eps):
    log_eps = math.log(eps)
    require(tail_log_bound(n, k, d) <= log_eps, f"n*={n} misses epsilon")
    require(n == 1 or tail_log_bound(n - 1, k, d) > log_eps, f"n*={n} is not minimal")


# -- small-sweep ------------------------------------------------------------

SWEEP_PAIRS = 8
SWEEP_POOL = 64


def sweep_pool(seed: int) -> list[dict]:
    return [sweep_round_inputs(np.random.default_rng([seed, r])) for r in range(SWEEP_POOL)]


def sweep_round_inputs(rng) -> dict:
    pairs = []
    for _ in range(SWEEP_PAIRS):
        n = int(rng.integers(2, 9))
        pairs.append({
            "n": n, "a": rng.dirichlet(np.ones(n)), "b": rng.dirichlet(np.ones(n)),
            "lam": float(rng.uniform(0.1, 1.0)), "alpha": float(rng.uniform(0.05, 0.95)),
            "theta": float(rng.uniform(0.05, 0.95)), "w": float(rng.uniform(0.1, 0.9)),
            "subset": sorted(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)),
                                                         replace=False)),
        })
    m_q, var_q = float(rng.uniform(30, 50)), float(rng.uniform(10, 30))
    gap, width = float(rng.uniform(2, 6)), float(rng.uniform(1, 4))
    side = 1.0 if rng.random() < 0.5 else -1.0
    mean_box = tuple(sorted((m_q + side * gap, m_q + side * (gap + width))))
    var_box = (max(1.0, var_q - float(rng.uniform(0, 4))), var_q + float(rng.uniform(0, 4)))
    return {
        "pairs": pairs,
        "brute": {"eps": float(rng.uniform(0.05, 0.3)), "seed": int(rng.integers(1 << 30))},
        "sandwich": {"eps": float(rng.uniform(0.05, 0.3)), "seed": int(rng.integers(1 << 30)),
                     "alpha": float(rng.uniform(0.1, 1.0)),
                     "family": "K" if rng.random() < 0.5 else "S"},
        "tcp": {"m_q": m_q, "var_q": var_q, "mean_box": mean_box, "var_box": var_box,
                "k": 2 if rng.random() < 0.5 else 100},
        "chains": [_chain_inputs(rng, 4, 0.75) for _ in range(2)],
        "rates": np.sort(rng.uniform(5, 60, 5)),
    }


def _chain_inputs(rng, n, lazy):
    rows, pi = reversible_chain(rng, n, lazy)
    return {"rows": rows, "pi": pi, "p0": rng.dirichlet(np.ones(n)),
            "alpha": float(rng.uniform(0.1, 1.0))}


def _pair(c):
    s = np.arange(c["n"], dtype=float)
    return D.make_distribution(s, c["a"]), D.make_distribution(s, c["b"])


def _passed(rep):
    require(rep.passed, f"{rep.name}: lhs {rep.lhs!r} rhs {rep.rhs!r}")


def _identity_reports(c, p, q):
    lam = c["lam"]
    return [
        D.check_kl_chi2_identity(p, q, lam),
        D.check_chi2_half_identity(p, q),
        D.check_gv_identity(p, q, lam),
        *(D.check_recursive_identity(k, p, q, lam) for k in (0, 1, 2)),
    ]


def _inequalities(c, p, q):
    I, w = D.inequalities, [c["w"], 1 - c["w"]]
    reports = [
        I.pinsker(p, q), I.thirds_bound(p, q), I.symmetrized_chi2_bound(p, q),
        I.gv_lower_bound(c["theta"], p, q), I.half_chi2_plus_quarter_tv(p, q),
        I.skew_kl_upper(p, q, c["lam"]), I.skew_kl_convexity_comparison(p, q, c["lam"]),
        I.mixture_kl_upper(0, [p, q], w), I.mixture_kl_upper(1, [p, q], w),
    ]
    deficit = I.concavity_deficit_bounds([p, q], w)
    cond = [I.conditioned_measure_divergence(D.DivergenceSpec(t, a), q, c["subset"])
            for t, a in (("KL", None), ("CHI2", None), ("TV", None), ("RENYI", 2.0))]
    return reports, deficit, cond, I.derivative_checks(p, q)


def _check_inequalities(out):
    reports, deficit, cond, deriv = out
    for rep in reports:
        require(rep.holds, f"{rep.name} violated: lhs {rep.lhs!r} rhs {rep.rhs!r}")
    close("deficit forms", deficit["deficit_entropy_form"], deficit["deficit_kl_form"],
          rel=1e-9, abs_=1e-12)
    require(deficit["deficit"] <= deficit["pairwise_upper"] + 1e-12
            and deficit["pairwise_upper"] <= deficit["classic_upper"] + 1e-12,
            f"concavity deficit bounds out of order: {deficit}")
    for direct, closed in cond:
        close("conditioned measure", direct, closed, rel=1e-9, abs_=1e-12)
    require(all(g["holds"] for g in deriv["grid"]), "skew-curve derivative bound violated")


def _moments(p, q):
    (m_p, v_p), (m_q, v_q) = D.moments(p), D.moments(q)
    mt = D.MomentTuple(m_p, v_p, m_q, v_q)
    cert = D.kl_moment_lower_bound(mt)
    ap, aq = D.attaining_pair(mt)
    refs = []
    for args, *_ in MOMENT_REF:
        rt = D.MomentTuple(*args)
        refs.append((D.kl_moment_lower_bound(rt).bound_nats,
                     D.gaussian_kl(rt), D.exponential_kl(rt)))
    return mt, cert, D.kl(p, q), D.kl(ap, aq), D.moments(ap), D.moments(aq), refs


def _check_moments(out):
    mt, cert, d_pair, d_att, mom_p, mom_q, refs = out
    require(cert.bound_nats <= d_pair + 1e-12,
            f"moment bound {cert.bound_nats!r} exceeds D(P||Q) {d_pair!r}")
    close("D(attaining pair) vs bound", d_att, cert.bound_nats, abs_=1e-12)
    for (mean, var), m, v in ((mom_p, mt.m_p, mt.var_p), (mom_q, mt.m_q, mt.var_q)):
        close("attaining mean", mean, m, rel=1e-9, abs_=1e-9)
        close("attaining var", var, v, rel=1e-9, abs_=1e-9)
    for got, (_, *want) in zip(refs, MOMENT_REF):
        for name, g, w in zip(("bound", "gaussian", "exponential"), got, want):
            close(f"reference {name}", g, w, rel=0.0, abs_=1e-3)


def _pair_op(c):
    """The six identity checks and the skew-S integral, the inequality suite
    and the moment bound with its attaining pair, on one pair: one operation."""
    def call():
        p, q = _pair(c)
        try:
            skew = D.contraction.check_skew_s_integral(c["alpha"], p, q)
        except D.errors.MaxDepthExceeded as exc:  # a known defect, failed in check
            skew = exc
        return _identity_reports(c, p, q), skew, _inequalities(c, p, q), _moments(p, q)

    def check(out):
        reports, skew, ineq, mom = out
        for rep in reports:
            _passed(rep)
        _check_inequalities(ineq)
        _check_moments(mom)
        # last, so that a known defect of the skew-S integral cannot hide another failure
        require(not isinstance(skew, Exception), f"{SKEW_S_STUCK}: {skew}")
        check_skew_s(skew.lhs, skew.rhs, skew.passed, c["alpha"], c["a"], c["b"])

    return ("pair-suite", call, check)


def _bsc(eps):
    u = D.make_distribution([0.0, 1.0], [0.5, 0.5])
    w = D.make_channel([[1 - eps, eps], [eps, 1 - eps]])
    return D.SourceChannelPair(u, w)


def _brute_op(c, tag, alpha):
    target = (1 - 2 * c["eps"]) ** 2

    def call():
        return D.brute_force_mu_f(D.DivergenceSpec(tag, alpha), _bsc(c["eps"]),
                                  n_samples=1500, seed=c["seed"])

    def check(est):
        lower_estimate(f"brute {tag}:{alpha} eps={c['eps']}", est.point_estimate, target)

    return ("brute-force", call, check)


def _sandwich_op(c):
    target = (1 - 2 * c["eps"]) ** 2

    def call():
        return D.skew_contraction_sandwich(c["alpha"], c["family"], _bsc(c["eps"]),
                                           seed=c["seed"])

    def check(out):
        lower, upper_channel, upper_scaled = out
        close("sandwich lower", lower, target, rel=0.0, abs_=1e-10)
        close("channel sup", upper_channel, target, rel=0.0, abs_=1e-6)
        require(upper_scaled >= lower - 1e-12, "scaled upper below the spectral value")

    return ("sandwich", call, check)


def _dstar_op(c, reference: bool):
    if reference:
        m_q, var_q, mean_box, var_box = TCP_REF
        ks = (2, 100)
    else:
        t = c["tcp"]
        m_q, var_q, mean_box, var_box, ks = (t["m_q"], t["var_q"], t["mean_box"],
                                             t["var_box"], (t["k"],))
    eps = 1e-10

    def call():
        tcps = [D.TypeClassProblem(m_q, var_q, mean_box, var_box, k, eps) for k in ks]
        d = D.d_star(tcps[0])
        corners = [D.kl_moment_lower_bound(D.MomentTuple(m, v, m_q, var_q)).bound_nats
                   for m in mean_box for v in var_box]
        return d, [D.n_star(t, d) for t in tcps], corners

    def check(out):
        d, ns, corners = out
        require(0.0 < d <= min(corners) + 1e-12, f"d*={d!r} outside (0, {min(corners)!r}]")
        for k, n in zip(ks, ns):
            check_n_star(n, k, d, eps)
            if reference:
                require(n == N_STAR_REF[k], f"n*(k={k})={n}, want {N_STAR_REF[k]}")
        if reference:
            close("d*", d, D_STAR_REF, rel=0.0, abs_=1e-3)

    return ("d-star", call, check)


def _mixing_op(c, n_max=20):
    def call():
        w = D.make_channel(c["rows"])
        p0 = D.make_distribution(np.arange(len(c["p0"]), dtype=float), c["p0"])
        return D.markov_mixing_report(w, p0, c["alpha"], n_max)

    return ("mixing", call, lambda rep: check_mixing(rep, c["rows"], c["pi"]))


def _redundancy_op(rates, reference: bool):
    weights = [1.0 / len(rates)] * len(rates)

    def call():
        return D.redundancy_report(D.PoissonFamily(tuple(float(x) for x in rates),
                                                   tuple(weights)))

    def check(rep):
        check_redundancy(rep, rates, weights)
        if reference:
            for k, v in REDUNDANCY_REF.items():
                close(k, rep[k], v, rel=0.0, abs_=0.01)
            for k, v in NU_REF_PCT.items():
                close(k, 100 * rep[k], v, rel=0.0, abs_=0.5)

    return ("redundancy", call, check)


def sweep_round(inp: dict, r: int) -> list:
    """One round: a pair suite per pair, with the heavier experiments spread
    between the pairs."""
    brute = [_brute_op(inp["brute"], tag, alpha) for tag, alpha in BRUTE_SPECS]
    heavy = [
        [brute[0], _mixing_op(inp["chains"][0])],
        [_sandwich_op(inp["sandwich"])],
        [brute[1], _redundancy_op(REDUNDANCY_REF_RATES, reference=True)],
        [_dstar_op(inp, reference=r % 2 == 0)],
        [brute[2], _mixing_op(inp["chains"][1])],
        [_redundancy_op(inp["rates"], reference=False)],
    ]
    ops = []
    for i, c in enumerate(inp["pairs"]):
        ops.append(_pair_op(c))
        if i < len(heavy):
            ops += heavy[i]
    return ops


# -- large-support ----------------------------------------------------------

LARGE_SIZES = (10_000, 100_000)
SPECTRAL_SIZES = (64, 65, 200, 800)
CHANNEL_OUTPUTS = 4
LARGE_POOL = 6


def large_pool(seed: int) -> list[dict]:
    return [large_round_inputs(np.random.default_rng([seed, r])) for r in range(LARGE_POOL)]


def large_round_inputs(rng) -> dict:
    pairs = {}
    for n in LARGE_SIZES:
        pairs[n] = {
            "a": rng.dirichlet(np.ones(n)), "b": rng.dirichlet(np.ones(n)),
            "rows": rng.dirichlet(np.ones(CHANNEL_OUTPUTS), size=n),
            "renyi": float(rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 3.0)])),
            "gv": float(rng.uniform(0.1, 0.9)), "skew": float(rng.uniform(0.1, 0.9)),
            "lam": float(rng.uniform(0.1, 0.9)),
        }
    spectral = {n: {"rows": rng.dirichlet(np.ones(n), size=n), "qx": rng.dirichlet(np.ones(n))}
                for n in SPECTRAL_SIZES}
    return {
        "pairs": pairs, "spectral": spectral,
        "chain": _chain_inputs(rng, 200, 0.0),
        "rates": np.sort(rng.uniform(10, 400, 40)),
        "refs": {},
    }


def _ref(inp, key, fn):
    """Reference values are computed once per pool entry, outside the ops."""
    if key not in inp["refs"]:
        inp["refs"][key] = fn()
    return inp["refs"][key]


def large_round(inp: dict, r: int) -> list:
    """Pairs at 1e4 and 1e5 built from arrays and by JSON round trip, every
    divergence kernel on them, mixture and push-forward, the spectral
    contraction across the SVD/power-iteration cutoff, a 200-state chain
    and redundancy over 40 Poisson rates."""
    built = {}
    ops = []
    for n in LARGE_SIZES:
        c = inp["pairs"][n]
        a, b = c["a"], c["b"]
        support = np.arange(n, dtype=float)
        ops += _large_pair_ops(built, n, c, support)
        kernels = [
            ("kl", lambda p, q: D.kl(p, q)),
            ("chi2", lambda p, q: D.chi_squared(p, q)),
            ("tv", lambda p, q: D.total_variation(p, q)),
            (f"renyi:{c['renyi']}", lambda p, q, t=c["renyi"]: D.renyi(t, p, q)),
            (f"gv:{c['gv']}", lambda p, q, t=c["gv"]: D.gyorfi_vajda(t, p, q)),
            (f"skew_k:{c['skew']}", lambda p, q, t=c["skew"]: D.skew_k(t, p, q)),
            (f"skew_s:{c['skew']}", lambda p, q, t=c["skew"]: D.skew_s(t, p, q)),
            ("js", lambda p, q: D.jensen_shannon(p, q)),
        ]
        for spec, fn in kernels:
            ops.append(_kernel_op(inp, built, n, spec, fn, a, b))
        if n == LARGE_SIZES[0]:
            ops.append(_kernel_op(inp, built, n, "polylog2",
                                  lambda p, q: D.f_k_divergence(2, p, q), a, b))
        ops.append(_entropy_op(inp, built, n, a))
        ops += _large_mix_ops(inp, built, n, c, a, b)
    for n in SPECTRAL_SIZES:
        ops += _spectral_ops(inp, built, n)
    ops.append(_mixing_op(inp["chain"]))
    ops.append(_redundancy_op(inp["rates"], reference=False))
    return ops


def _large_pair_ops(built, n, c, support):
    def from_arrays():
        built[n] = (D.make_distribution(support, c["a"]), D.make_distribution(support, c["b"]))
        return built[n]

    def check_arrays(pq):
        for d, x in zip(pq, (c["a"], c["b"])):
            require(np.array_equal(np.asarray(d.mass), x)
                    and np.array_equal(np.asarray(d.support), support),
                    f"distribution at n={n} does not hold its input arrays")

    def round_trip():
        built[("json", n)] = tuple(D.DiscreteDistribution.from_json(d.to_json())
                                   for d in built[n])
        return built[("json", n)]

    def check_trip(pq):
        require(all(d == e for d, e in zip(pq, built[n])), f"JSON round trip changed n={n}")

    return [("build-arrays", from_arrays, check_arrays),
            ("build-json", round_trip, check_trip)]


def _kernel_op(inp, built, n, spec, fn, a, b):
    """``fn`` on the pair built[n] against ``spec`` on (a, b)."""
    return ("divergence", lambda: fn(*built[n]),
            lambda v: close(f"{spec} n={n}", v,
                            _ref(inp, (spec, n), lambda: ref_divergence(spec, a, b)),
                            rel=1e-8))


def _entropy_op(inp, built, n, a):
    return ("divergence", lambda: D.entropy(built[n][0]),
            lambda v: close(f"entropy n={n}", v,
                            _ref(inp, ("entropy", n), lambda: ref_entropy(a)), rel=1e-10))


def _large_mix_ops(inp, built, n, c, a, b):
    lam = c["lam"]

    def mix_check(m):
        require(np.max(np.abs(np.asarray(m.mass) - ((1 - lam) * a + lam * b))) <= 1e-15,
                f"mixture at n={n}")

    def hcr_ref():
        z = (1 - lam) * a + lam * b
        u = np.arange(n, dtype=float)
        m_p, m_z = a @ u, z @ u
        return (m_p - m_z) ** 2 / (z @ (u * u) - m_z * m_z)

    def make_channel():
        built[("w", n)] = D.make_channel(c["rows"])
        return built[("w", n)]

    def push_check(out):
        want = _ref(inp, ("push", n), lambda: a @ c["rows"])
        require(np.allclose(np.asarray(out.mass), want, rtol=1e-12, atol=0.0),
                f"push_forward at n={n}")

    return [
        ("mixture", lambda: D.mixture(built[n][0], built[n][1], lam), mix_check),
        ("moment-bound", lambda: D.hcr_lower_bound(built[n][0], built[n][1], lam),
         lambda v: close(f"hcr n={n}", v, _ref(inp, ("hcr", n), hcr_ref), rel=1e-8)),
        ("build-channel", make_channel,
         lambda w: require(w.n_inputs == n, f"channel rows at n={n}")),
        ("push-forward", lambda: D.push_forward(built[n][0], built[("w", n)]), push_check),
    ]


def _spectral_ops(inp, built, n):
    c = inp["spectral"][n]

    def build():
        built[("sc", n)] = (D.make_channel(c["rows"]),
                            D.make_distribution(np.arange(n, dtype=float), c["qx"]))
        return built[("sc", n)]

    def contract():
        w, qx = built[("sc", n)]
        return D.chi2_contraction(D.SourceChannelPair(qx, w))

    return [
        ("build-channel", build, lambda out: require(out[0].n_inputs == n, "channel size")),
        ("contraction", contract,
         lambda v: close(f"mu_chi2 n={n}", v,
                         _ref(inp, ("mu", n), lambda: ref_mu(c["rows"], c["qx"])),
                         rel=0.0, abs_=1e-10)),
    ]


# -- cli-session ------------------------------------------------------------

CLI_POOL = 4
DIVERGENCE_SPECS = ("kl", "chi2", "tv", "renyi", "gv", "skew_k", "js")


def cli_pool(seed: int, workdir) -> list[list]:
    """Script passes: each pass is the same fixed sequence of calls, with
    inputs drawn from the seed and written as JSON files into workdir."""
    return [cli_pass(np.random.default_rng([seed, r]), workdir, r) for r in range(CLI_POOL)]


def _write(workdir, name, obj) -> str:
    (workdir / name).write_text(json.dumps(obj))
    return name


def _dist_json(a):
    return {"support": list(range(len(a))), "mass": [float(x) for x in a]}


def cli_pass(rng, workdir, r: int) -> list:
    def f(name):
        return f"r{r}-{name}.json"

    n = int(rng.integers(2, 9))
    a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    p, q = _write(workdir, f("p"), _dist_json(a)), _write(workdir, f("q"), _dist_json(b))
    lam, alpha = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.05, 0.95))
    name = DIVERGENCE_SPECS[int(rng.integers(len(DIVERGENCE_SPECS)))]
    spec = {"renyi": f"renyi:{rng.uniform(0.3, 3.0):.6f}", "gv": f"gv:{rng.uniform(0.1, 0.9):.6f}",
            "skew_k": f"skew_k:{rng.uniform(0.1, 0.9):.6f}"}.get(name, name)
    m_p = float(rng.uniform(-10, 10))
    m_q = m_p + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 10))
    var_p, var_q = float(rng.uniform(0.1, 20)), float(rng.uniform(0.1, 20))
    eps = float(rng.uniform(0.05, 0.3))
    bsc = _write(workdir, f("bsc"), {"rows": [[1 - eps, eps], [eps, 1 - eps]]})
    uniform = _write(workdir, f("u2"), _dist_json([0.5, 0.5]))
    chain_rows, chain_pi = reversible_chain(rng, 4, 0.75)
    chain = _write(workdir, f("chain"), {"rows": chain_rows.tolist()})
    p0 = _write(workdir, f("p0"), _dist_json(rng.dirichlet(np.ones(4))))
    mix_alpha = float(rng.uniform(0.1, 1.0))
    alphabet = 2 if rng.random() < 0.5 else 100
    n_mu = int(rng.integers(3, 9))
    mu_mass = rng.dirichlet(np.ones(n_mu))
    mu = _write(workdir, f("mu"), _dist_json(mu_mass))
    indices = sorted(int(i) for i in rng.choice(n_mu, size=int(rng.integers(1, n_mu)),
                                                 replace=False))
    set_spec = ("kl", "chi2", "tv", "renyi:2")[int(rng.integers(4))]
    inequality_seed = int(rng.integers(1 << 30))

    def identity(which, *extra):
        return (f"identity-check {which}",
                ["identity-check", "--which", which, "--p", p, "--q", q, *extra],
                lambda rep: require(rep["scalars"]["passed"] is True,
                                    f"identity {which} did not pass: {rep['scalars']}"))

    def skew_s_check(rep):
        s = rep["scalars"]
        check_skew_s(s["lhs"], s["rhs"], s["passed"], alpha, a, b)

    script = [
        identity("recursive", "--k", "1", "--lam", repr(lam)),
        ("moment-bound varp=0",
         ["moment-bound", "--mp", repr(m_p), "--varp", "0", "--mq", repr(m_q),
          "--varq", repr(var_q)],
         lambda rep: close("moment bound at varp=0", rep["scalars"]["bound_nats"],
                           math.log1p((m_p - m_q) ** 2 / var_q), rel=1e-12)),
        (None, ["divergence", "--spec", spec, "--p", p, "--q", q],
         lambda rep: close(f"divergence {spec}", rep["scalars"]["value_nats"],
                           ref_divergence(spec, a, b), rel=1e-9, abs_=1e-15)),
        identity("kl-chi2", "--lam", repr(lam)),
        identity("chi2-half"),
        identity("gv", "--lam", repr(lam)),
        ("identity-check skew-s",
         ["identity-check", "--which", "skew-s", "--p", p, "--q", q, "--alpha", repr(alpha)],
         skew_s_check),
        (None, ["moment-bound", "--mp", repr(m_p), "--varp", repr(var_p), "--mq", repr(m_q),
          "--varq", repr(var_q), "--attain"],
         lambda rep: _check_cli_moment(rep, m_p, var_p, m_q, var_q)),
        (None, ["inequalities", "--seed", str(inequality_seed)],
         lambda rep: require(all(row["violations"] == 0 for row in rep["rows"]),
                             f"inequality violations: {rep['rows']}")),
        (None, ["contraction", "--channel", bsc, "--input-law", uniform],
         lambda rep: _check_cli_contraction(rep, eps)),
        (None, ["mixing", "--chain", chain, "--p0", p0, "--alpha", repr(mix_alpha)],
         lambda rep: check_mixing({"mu_chi2": rep["scalars"]["mu_chi2"], "rows": rep["rows"]},
                                  chain_rows, chain_pi)),
        (None, ["redundancy", "--lambdas", *(repr(x) for x in REDUNDANCY_REF_RATES)],
         _check_cli_redundancy),
        (None, ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
          "--var-box", "18", "22", "--alphabet", str(alphabet), "--epsilon", "1e-10"],
         lambda rep: _check_cli_sample_size(rep, alphabet)),
        (None, ["set-divergence", "--spec", set_spec, "--mu", mu,
          "--indices", *(str(i) for i in indices)],
         lambda rep: close(f"set-divergence {set_spec}", rep["scalars"]["direct"],
                           rep["scalars"]["closed_form"], rel=1e-9, abs_=1e-12)),
    ]
    return [(kind or argv[0], argv + ["--format", "json"], check)
            for kind, argv, check in script]


def _check_cli_moment(rep, m_p, var_p, m_q, var_q):
    s = rep["scalars"]
    close("bound = d(r||s)", s["bound_nats"], ref_binary_kl(s["r"], s["s"]), rel=1e-12,
          abs_=1e-15)
    g = 0.5 * math.log(var_q / var_p) + 0.5 * (((m_p - m_q) ** 2 + var_p) / var_q - 1)
    close("gaussian_kl", s["gaussian_kl_nats"], g, rel=1e-12)
    ap, aq = s["attaining_p"], s["attaining_q"]
    u = np.asarray(ap["support"])
    pa, qa = np.asarray(ap["mass"]), np.asarray(aq["mass"])
    close("D(attaining pair)", ref_kl(pa, qa), s["bound_nats"], rel=1e-9, abs_=1e-12)
    for mass, m, v in ((pa, m_p, var_p), (qa, m_q, var_q)):
        mean = float(mass @ u)
        close("attaining mean", mean, m, rel=1e-9, abs_=1e-9)
        close("attaining var", float(mass @ (u - mean) ** 2), v, rel=1e-9, abs_=1e-9)


def _check_cli_contraction(rep, eps):
    s = rep["scalars"]
    target = (1 - 2 * eps) ** 2
    close("mu_chi2", s["mu_chi2"], target, rel=0.0, abs_=1e-10)
    close("sandwich_lower", s["sandwich_lower"], target, rel=0.0, abs_=1e-10)
    lower_estimate(f"brute-force eps={eps}", s["brute_force_point"], target)
    require(s["brute_force_lower"] <= s["brute_force_point"], "brute lower above point")


def _check_cli_redundancy(rep):
    s = rep["scalars"]
    for k, v in REDUNDANCY_REF.items():
        close(k, s[k], v, rel=0.0, abs_=0.01)
    close("nu_upper_improved_pct", s["nu_upper_improved_pct"],
          NU_REF_PCT["nu_upper_improved"], rel=0.0, abs_=0.5)
    close("nu_upper_loose_pct", s["nu_upper_loose_pct"],
          NU_REF_PCT["nu_upper_loose"], rel=0.0, abs_=0.5)


def _check_cli_sample_size(rep, alphabet):
    s = rep["scalars"]
    close("d*", s["d_star_nats"], D_STAR_REF, rel=0.0, abs_=1e-3)
    require(s["n_star"] == N_STAR_REF[alphabet],
            f"n*(k={alphabet})={s['n_star']}, want {N_STAR_REF[alphabet]}")
    require(s["tail_bound_at_n_star"] <= 1e-10, "tail bound above epsilon at n*")


# -- registry ---------------------------------------------------------------

IN_PROCESS = {
    "small-sweep": (sweep_pool, sweep_round),
    "large-support": (large_pool, large_round),
}


def build_inputs(workload: str, seed: int, workdir):
    if workload == "cli-session":
        return cli_pool(seed, workdir)
    return IN_PROCESS[workload][0](seed)
