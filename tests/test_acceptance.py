"""End-to-end acceptance suite.

Each test covers one headline criterion, prints a single PASS/FAIL line
with the key numbers, and enforces its runtime budget.
"""

import math
import time

import numpy as np

from divrel import (
    DivergenceSpec,
    MomentTuple,
    PoissonFamily,
    SourceChannelPair,
    TypeClassProblem,
    attaining_pair,
    brute_force_mu_f,
    check_chi2_half_identity,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
    chi2_contraction,
    conditioned_measure_divergence,
    d_star,
    equal_means_quaternary,
    equal_means_sequence,
    exponential_kl,
    gaussian_kl,
    gv_lower_bound,
    half_chi2_plus_quarter_tv,
    kl,
    kl_moment_lower_bound,
    make_channel,
    make_distribution,
    markov_mixing_report,
    moments,
    n_star,
    pinsker,
    redundancy_report,
    skew_kl_upper,
    symmetrized_chi2_bound,
    thirds_bound,
)
from divrel.contraction import chi2_contraction_power, stationary_distribution
from divrel.inequalities import skew_kl_convexity_comparison
from divrel.distributions import DiscreteDistribution

from conftest import random_pair


def announce(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_sample_sizing():
    t0 = time.perf_counter()
    tcp2 = TypeClassProblem(40, 20, (43, 47), (18, 22), 2, 1e-10)
    tcp100 = TypeClassProblem(40, 20, (43, 47), (18, 22), 100, 1e-10)
    d = d_star(tcp2)
    n2 = n_star(tcp2, d)
    n100 = n_star(tcp100, d)
    elapsed = time.perf_counter() - t0
    ok = abs(d - 0.203) <= 1e-3 and n2 == 138 and n100 == 4170 and elapsed < 5.0
    announce(1, "worst-case sample sizing", ok,
             f"d*={d:.4f} nats, n*={n2}/{n100}, {elapsed:.2f}s")


def test_criterion_2_moment_bound_examples():
    t0 = time.perf_counter()
    checks = []
    for mt, b, g, e in (
        (MomentTuple(45, 20, 40, 20), 0.521, 0.625, 1.118),
        (MomentTuple(50, 10, 35, 20), 2.332, 5.722, 3.701),
    ):
        checks += [
            abs(kl_moment_lower_bound(mt).bound_nats - b) <= 1e-3,
            abs(gaussian_kl(mt) - g) <= 1e-3,
            abs(exponential_kl(mt) - e) <= 1e-3,
        ]
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    announce(2, "moment-bound reference instances", ok,
             f"{sum(checks)}/6 values within 1e-3, {elapsed:.2f}s")


def test_criterion_3_redundancy_example():
    t0 = time.perf_counter()
    rep = redundancy_report(PoissonFamily((16, 20, 24, 28, 32), (0.2,) * 5))
    elapsed = time.perf_counter() - t0
    vals = (
        rep["sum_kl_upper_bits"], rep["convexity_upper_bits"],
        100 * rep["nu_upper_improved"], 100 * rep["nu_upper_loose"],
    )
    ok = (
        abs(vals[0] - 1.46) <= 0.01 and abs(vals[1] - 1.99) <= 0.01
        and abs(vals[2] - 57.0) <= 0.5 and abs(vals[3] - 69.3) <= 0.5
        and elapsed < 10.0
    )
    announce(3, "Poisson-mixture code redundancy", ok,
             f"{vals[0]:.3f}/{vals[1]:.3f} bits, "
             f"{vals[2]:.1f}%/{vals[3]:.1f}%, {elapsed:.2f}s")


def test_criterion_4_symmetric_channel_contraction():
    t0 = time.perf_counter()
    uniform = make_distribution([0, 1], [0.5, 0.5])
    spectral_ok, brute_ok = True, True
    worst_gap = 0.0
    for eps in (0.05, 0.1, 0.25):
        w = make_channel([[1 - eps, eps], [eps, 1 - eps]])
        sc = SourceChannelPair(uniform, w)
        target = (1 - 2 * eps) ** 2
        spectral_ok &= abs(chi2_contraction(sc) - target) <= 1e-10
        for tag, alpha in (("SKEW_K", 1.0), ("SKEW_K", 0.5), ("SKEW_S", 0.5)):
            est = brute_force_mu_f(
                DivergenceSpec(tag, alpha), sc, n_samples=1500, seed=0
            )
            gap = target - est.point_estimate
            worst_gap = max(worst_gap, abs(gap))
            brute_ok &= 0.0 <= gap <= 1e-4
    elapsed = time.perf_counter() - t0
    ok = spectral_ok and brute_ok and elapsed < 30.0
    announce(4, "binary symmetric channel contraction", ok,
             f"spectral exact: {spectral_ok}, brute gap <= {worst_gap:.1e}, "
             f"{elapsed:.2f}s")


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p, q = random_pair(rng, n)
        lam = float(rng.uniform(0.1, 1.0))
        reports = [
            check_kl_chi2_identity(p, q, lam),
            check_chi2_half_identity(p, q),
            check_gv_identity(p, q, lam),
        ]
        reports += [check_recursive_identity(k, p, q, lam) for k in (0, 1, 2)]
        failures += sum(0 if r.passed else 1 for r in reports)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    announce(5, "two-path integral identities", ok,
             f"{failures} failures over 200 pairs x 6 checks, {elapsed:.1f}s")


def test_criterion_6_inequality_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        strict = bool(rng.integers(0, 2))
        p, q = random_pair(rng, n, strict=strict)
        lam = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(0.05, 0.95))
        reports = [
            pinsker(p, q),
            thirds_bound(p, q),
            symmetrized_chi2_bound(p, q),
            gv_lower_bound(theta, p, q),
            half_chi2_plus_quarter_tv(p, q),
            skew_kl_upper(p, q, lam),
            skew_kl_convexity_comparison(p, q, lam),
        ]
        violations += sum(0 if r.holds else 1 for r in reports)
        # differential inequality F'(lam) >= (e^F - 1)/lam via central diff
        if not np.array_equal(p.mass, q.mass):
            h = 1e-6
            f = kl(p, DiscreteDistribution(
                p.support,
                tuple((1 - lam) * a + lam * b for a, b in zip(p.mass, q.mass)),
            ))
            fp = (
                kl(p, DiscreteDistribution(
                    p.support,
                    tuple((1 - lam - h) * a + (lam + h) * b
                          for a, b in zip(p.mass, q.mass)),
                ))
                - kl(p, DiscreteDistribution(
                    p.support,
                    tuple((1 - lam + h) * a + (lam - h) * b
                          for a, b in zip(p.mass, q.mass)),
                ))
            ) / (2 * h)
            if math.isfinite(f) and fp < (math.exp(f) - 1.0) / lam - 1e-6:
                violations += 1
        # conditioned-measure closed forms on the same random law
        k = int(rng.integers(1, n))
        idx = list(rng.choice(n, size=k, replace=False))
        if sum(q.mass[i] for i in idx) > 0:
            for spec in (DivergenceSpec("KL"), DivergenceSpec("CHI2"),
                         DivergenceSpec("TV"), DivergenceSpec("RENYI", 2.0)):
                direct, closed = conditioned_measure_divergence(spec, q, idx)
                scale = max(abs(closed), 1.0)
                if abs(direct - closed) > 1e-9 * scale:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    announce(6, "inequality sweep", ok,
             f"{violations} violations over 1000 instances, {elapsed:.1f}s")


def test_criterion_7_attainment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_kl_gap, worst_moment_gap = 0.0, 0.0
    for _ in range(100):
        m_p = float(rng.uniform(-10, 10))
        m_q = m_p + float(rng.choice([-1, 1])) * float(rng.uniform(0.5, 10))
        v_p = float(rng.uniform(0.1, 20))
        v_q = float(rng.uniform(0.1, 20))
        mt = MomentTuple(m_p, v_p, m_q, v_q)
        cert = kl_moment_lower_bound(mt)
        p, q = attaining_pair(mt)
        worst_kl_gap = max(worst_kl_gap, abs(kl(p, q) - cert.bound_nats))
        mean, var = moments(p)
        worst_moment_gap = max(
            worst_moment_gap,
            abs(mean - m_p) / max(1.0, abs(m_p)),
            abs(var - v_p) / max(1.0, v_p),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_kl_gap < 1e-12 and worst_moment_gap < 1e-9
    announce(7, "bound attainment by two-point pairs", ok,
             f"max |KL - bound| = {worst_kl_gap:.1e}, "
             f"max moment error = {worst_moment_gap:.1e}, {elapsed:.2f}s")


def test_criterion_8_markov_mixing():
    t0 = time.perf_counter()
    envelope_bad = 0
    power_bad = 0
    worst_rate_err = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = rng.random((4, 4))
        s = s + s.T
        m = s / s.sum(axis=1, keepdims=True)
        w = make_channel(0.75 * np.eye(4) + 0.25 * m)
        q = stationary_distribution(w)
        # start along the slowest decaying direction so the trajectory is
        # a clean single mode for the decay-rate estimate
        sym = np.sqrt(q.mass)[:, None] * w.matrix / np.sqrt(q.mass)[None, :]
        vecs = np.linalg.eigh((sym + sym.T) / 2)[1]
        psi = vecs[:, -2] / np.sqrt(q.mass)
        p0v = q.mass * (1 + (0.4 / np.max(np.abs(psi))) * psi)
        p0 = make_distribution([0, 1, 2, 3], p0v / p0v.sum())
        rep = markov_mixing_report(w, p0, 1.0, 50)
        mu = rep["mu_chi2"]
        envelope_bad += sum(
            1 for r in rep["rows"]
            if r["k_alpha"] > r["k_envelope"] + 1e-12
            or r["s_alpha"] > r["s_envelope"] + 1e-12
        )
        power_bad += sum(
            1 for n in (2, 5, 10, 20)
            if abs(chi2_contraction_power(w, q, n) - mu**n) > 1e-9
        )
        rate = (rep["rows"][49]["k_alpha"] / rep["rows"][39]["k_alpha"]) ** 0.1
        worst_rate_err = max(worst_rate_err, abs(rate - mu) / mu)
    elapsed = time.perf_counter() - t0
    ok = envelope_bad == 0 and power_bad == 0 and worst_rate_err < 0.05
    announce(8, "Markov mixing envelopes", ok,
             f"{envelope_bad} envelope / {power_bad} power-identity "
             f"violations, rate error <= {worst_rate_err:.2%}, {elapsed:.1f}s")


def test_criterion_9_equal_means_constructions():
    t0 = time.perf_counter()
    moment_ok, decay_ok = True, True
    prev = math.inf
    for eps in (1e-2, 1e-4, 1e-6):
        p, q = equal_means_sequence(1.5, 2.0, 5.0, eps)
        for dist, (m, v) in ((p, (1.5, 2.0)), (q, (1.5, 5.0))):
            mean, var = moments(dist)
            moment_ok &= abs(mean - m) < 1e-7 and abs(var - v) < 1e-5 * v
        d = kl(p, q)
        decay_ok &= 0.0 < d < prev
        prev = d
    prev = math.inf
    for n in (10, 100, 1000):
        p, q = equal_means_quaternary(2.0, 5.0, n)
        for dist, v in ((p, 2.0), (q, 5.0)):
            mean, var = moments(dist)
            moment_ok &= abs(mean) < 1e-9 and abs(var - v) < 1e-9 * v
        d = kl(p, q)
        decay_ok &= 0.0 < d < prev
        prev = d
    elapsed = time.perf_counter() - t0
    ok = moment_ok and decay_ok
    announce(9, "equal-means vanishing-divergence constructions", ok,
             f"moments exact: {moment_ok}, strictly decreasing KL: {decay_ok}, "
             f"{elapsed:.2f}s")
