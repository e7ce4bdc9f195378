"""Independent oracles that the tests check divrel against; divrel itself
never calls them."""

import itertools
import math

import numpy as np

from divrel.applications import poisson_pmf
from divrel.contraction import SourceChannelPair
from divrel.distributions import validate_mass
from divrel.divergences import entropy


def poisson_entropy_direct(lam: float, tail_tol: float = 1e-15) -> float:
    """Entropy of the truncated pmf renormalized to mass 1, in nats.

    An oracle for poisson_entropy only to about 3e-14 absolute (rates up to
    1e4): the renormalization moves the entropy by about the discarded mass
    times its log, so at small rates it is far off relatively (2.2e-9 at
    lam = 1e-9).
    Do not tighten a test against it; ``poisson_entropy_mpmath`` is exact.
    """
    dist, _ = poisson_pmf(lam, tail_tol)
    return entropy(dist)


def poisson_entropy_mpmath(lam: float, dps: int = 40) -> float:
    """Poisson entropy -sum p_k ln p_k in nats, at dps digits from
    ln p_k = k ln lam - lam - ln k!, summed outward from the mode on each
    side until a term falls below 10^-dps of the sum."""
    import mpmath

    with mpmath.workdps(dps):
        lam = mpmath.mpf(lam)
        log_lam, total = mpmath.log(lam), mpmath.mpf(0)
        mode = int(mpmath.floor(lam))
        for ks in (range(mode, -1, -1), itertools.count(mode + 1)):
            for k in ks:
                log_p = k * log_lam - lam - mpmath.loggamma(k + 1)
                term = -mpmath.exp(log_p) * log_p
                total += term
                if term < total * mpmath.mpf(10) ** -dps:
                    break
        return float(total)


# Divergences against a mixture at 40 digits: every float mass is taken
# exactly, so a subnormal mass and its share of the mixture stay positive.

def _mp_kl(p, m):
    """sum p ln(p/m) over the atoms with p > 0 (mpf lists); +inf where m = 0 < p."""
    import mpmath

    total = mpmath.mpf(0)
    for x, y in zip(p, m):
        if x > 0:
            if y == 0:
                return mpmath.inf
            total += x * mpmath.log(x / y)
    return total


def _mp_mixture(alpha, a, b):
    """(a, b, (1 - alpha) a + alpha b) as mpf lists."""
    import mpmath

    a, b = [mpmath.mpf(float(x)) for x in a], [mpmath.mpf(float(x)) for x in b]
    return a, b, [(1 - alpha) * x + alpha * y for x, y in zip(a, b)]


def skew_k_mpmath(alpha: float, a, b, dps: int = 40) -> float:
    """K_alpha(P||Q) = D(P || (1 - alpha) P + alpha Q) for mass vectors a, b."""
    import mpmath

    with mpmath.workdps(dps):
        a, _, m = _mp_mixture(mpmath.mpf(alpha), a, b)
        return float(_mp_kl(a, m))


def skew_s_mpmath(alpha: float, a, b, dps: int = 40) -> float:
    """S_alpha(P||Q) = alpha D(P||M) + (1 - alpha) D(Q||M), M = (1 - alpha) P
    + alpha Q; a side of weight 0 is left out."""
    import mpmath

    with mpmath.workdps(dps):
        alpha = mpmath.mpf(alpha)
        a, b, m = _mp_mixture(alpha, a, b)
        total = mpmath.mpf(0)
        if alpha > 0:
            total += alpha * _mp_kl(a, m)
        if alpha < 1:
            total += (1 - alpha) * _mp_kl(b, m)
        return float(total)


def gv_mpmath(s: float, a, b, dps: int = 40) -> float:
    """sum (a - b)^2 / ((1 - s) a + s b); +inf where only the denominator is 0."""
    import mpmath

    with mpmath.workdps(dps):
        a, b, m = _mp_mixture(mpmath.mpf(s), a, b)
        total = mpmath.mpf(0)
        for x, y, z in zip(a, b, m):
            if z == 0:
                if x != y:
                    return math.inf
            else:
                total += (x - y) ** 2 / z
        return float(total)


def polylog_path_mpmath(k: int, lam: float, a, b, dps: int = 40) -> float:
    """D_{f_k}(R_lam||P) = sum p Li_k(1 - r/p), R_lam = (1 - lam) P + lam Q, for
    an order k >= 1 and mass vectors a of P and b of Q: an atom with p = 0
    adds 0 (Li_k(1 - u)/u -> 0), and one with r = 0 < p adds p zeta(k),
    +inf at k = 1."""
    import mpmath

    with mpmath.workdps(dps):
        a, _, r = _mp_mixture(mpmath.mpf(lam), a, b)
        total = mpmath.mpf(0)
        for x, y in zip(a, r):
            if x > 0:
                if y == 0 and k == 1:
                    return math.inf
                li = mpmath.zeta(k) if y == 0 else mpmath.re(mpmath.polylog(k, 1 - y / x))
                total += x * li
        return float(total)


def mixture_kl_mpmath(w, stack, dps: int = 40) -> list[float]:
    """D(P_i || sum_j w_j P_j) for each row P_i of the (k, n) stack."""
    import mpmath

    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(x)) for x in row] for row in stack]
        w = [mpmath.mpf(float(x)) for x in w]
        m = [mpmath.fsum(wj * row[i] for wj, row in zip(w, rows)) for i in range(len(rows[0]))]
        return [float(_mp_kl(row, m)) for row in rows]


def mixture_kl_bound_scalar(i: int, w, d) -> tuple[float, float]:
    """(-ln(a + (1-a) exp(-c/(1-a))), c) for source i of a mixture with
    weights w, a = w[i], d[j] = D(P_i||P_j) and c = sum_{j != i, w[j] > 0}
    w[j] d[j]: the mixture-KL bound written directly, one source at a time.
    Its log loses digits as c -> 0 (a relative error of about 1e-16/c), and
    e^(-c/(1-a)) underflows at a = 0 past c = 745, where math.log raises."""
    a = w[i]
    c = sum(w[j] * d[j] for j in range(len(w)) if j != i and w[j] > 0)
    if a >= 1.0:
        return 0.0, c
    if math.isinf(c):
        return (math.inf if a == 0.0 else -math.log(a)), c
    return -math.log(a + (1.0 - a) * math.exp(-c / (1.0 - a))), c


def maximal_correlation_ace(
    sc: SourceChannelPair, iters: int = 10_000, tol: float = 1e-14, seed: int = 0
) -> float:
    """Maximal correlation by alternating conditional expectations.

    Direct optimization over centered unit-variance score functions;
    independent of the spectral path, used to cross-validate it.
    """
    qx = sc.qx.mass
    joint = qx[:, None] * sc.w.matrix
    qy = joint.sum(axis=0)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(len(qx))
    prev = 0.0
    for _ in range(iters):
        f = f - np.dot(qx, f)
        # g(y) proportional to E[f(X) | Y=y]
        g = (joint * f[:, None]).sum(axis=0) / qy
        g = g - np.dot(qy, g)
        var_g = np.dot(qy, g * g)
        if var_g <= 0:
            return 0.0
        g /= math.sqrt(var_g)
        f = (joint * g[None, :]).sum(axis=1) / qx
        var_f = np.dot(qx, f * f)
        if var_f <= 0:
            return 0.0
        f /= math.sqrt(var_f)
        corr = float(np.einsum("x,xy,y->", f, joint, g))
        if abs(corr - prev) < tol:
            break
        prev = corr
    return abs(corr)


# Nelder-Mead tolerances and budgets: for the brute-force search, and for the
# channel sup over the whole simplex
BRUTE_NM = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}
CHANNEL_NM = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000}


def nelder_mead_sup(nm_options: dict):
    """A stand-in for divrel.contraction._sampled_sup that refines the best
    Dirichlet draw by scipy's Nelder-Mead in softmax logits, one law per
    evaluation; oracle for the batched refinement (same draws, same lower).
    It ignores the anchor, so that the comparison stays the refinement of
    the best draws against Nelder-Mead from the best draw."""
    import scipy.optimize

    def sampled_sup(score_rows, n, n_samples, seed, anchor=None):
        rng = np.random.default_rng(seed)
        draws = rng.dirichlet(np.ones(n), size=n_samples)
        validate_mass(draws)
        scores = score_rows(draws)
        i = int(np.argmax(scores))
        best, best_px = float(scores[i]), draws[i]
        if best == -math.inf or not np.all(best_px > 0):
            return best, -math.inf

        def neg(z):
            e = np.exp(z - z.max())
            return -float(score_rows((e / e.sum())[None, :])[0])

        res = scipy.optimize.minimize(
            neg, np.log(best_px), method="Nelder-Mead", options=nm_options
        )
        return best, -res.fun

    return sampled_sup


def moment_bound_integral(m_p: float, var_p: float, m_q: float, var_q: float) -> float:
    """The moment lower bound on D(P||Q) as the HCR bound on chi^2(P||R_s),
    R_s = (1-s)P + sQ, integrated through D(P||Q) = int_0^1 chi^2(P||R_s)/s
    ds; oracle for moment_bound_arrays (scipy quad)."""
    import scipy.integrate

    a2 = (m_p - m_q) ** 2

    def integrand(s):
        return s * a2 / ((1 - s) * var_p + s * var_q + s * (1 - s) * a2)

    value, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def svd_chi2_contractions(w: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Chi^2 contraction of the channel matrix w at each law of the stack px,
    the squared second singular value of its normalized joint matrix, one
    SVD per law; -inf where an input or output atom has no mass."""
    qy = px @ w
    ok = np.all(px > 0, axis=1) & np.all(qy > 0, axis=1)
    b = np.sqrt(px[ok])[:, :, None] * w[None] / np.sqrt(qy[ok])[:, None, :]
    out = np.full(len(px), -math.inf)
    out[ok] = np.linalg.svd(b, compute_uv=False)[:, 1] ** 2
    return out


def channel_sup_nelder_mead(w: np.ndarray, n_samples: int, seed: int) -> float:
    """The sup of the chi^2 contraction over all input laws of w: the best of
    n_samples Dirichlet draws, refined by Nelder-Mead (CHANNEL_NM), each
    law scored by its own SVD; oracle for mu_chi2_channel."""
    return max(nelder_mead_sup(CHANNEL_NM)(
        lambda px: svd_chi2_contractions(w, px), len(w), n_samples, seed))


def two_point_chi2_sup(w: np.ndarray) -> float:
    """The best chi^2 contraction of w at an input law on two letters, the
    mass t of the first found per pair by scipy's bounded scalar search and
    scored by SVD; oracle that mu_chi2_channel's value is attained."""
    import scipy.optimize

    best = 0.0
    for x in range(len(w)):
        for x2 in range(x + 1, len(w)):
            rows = w[[x, x2]]
            rows = rows[:, rows.any(axis=0)]

            def neg(t):
                return -float(svd_chi2_contractions(rows, np.array([[t, 1.0 - t]]))[0])

            res = scipy.optimize.minimize_scalar(
                neg, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
            best = max(best, -res.fun)
    return best


# -- frozen references: earlier forms of divrel code, kept so that the tests
# can show a faster form to return the same bits and raise the same errors


def validate_mass_reference(m: np.ndarray) -> None:
    """``distributions.validate_mass`` as four whole-array tests in turn."""
    from divrel.distributions import INPUT_TOL
    from divrel.errors import NegativeMass, NonFinite, NonStochastic

    if not np.all(np.isfinite(m)):
        raise NonFinite("mass entries must be finite")
    if np.any(m < 0):
        raise NegativeMass(f"negative mass entry: {m.min()}")
    sums = m @ np.ones(m.shape[-1])
    bad = np.abs(sums - 1.0) > INPUT_TOL
    if np.any(bad):
        raise NonStochastic(f"mass sums to {float(sums[bad][0])!r}, not 1")


def _gauss_kronrod_reference(f, lo, hi, a, b):
    """A node that rounds onto a, the end where f need only have a limit, is
    taken one ulp toward b, as in ``identities._gauss_kronrod``."""
    from divrel.identities import _EPS50, _RULES, _TINY, _WK, _XK

    half = 0.5 * (hi - lo)
    x = _XK[:, None] * half + (lo + half)
    x[x == a] = math.nextafter(a, b)
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(len(_XK), -1)
    with np.errstate(invalid="ignore", over="ignore"):
        kronrod, gauss = _RULES @ fx
        diff = 200.0 * np.abs(kronrod - gauss)
        spread = _WK @ np.abs(fx - 0.5 * kronrod)
        err = spread * (np.minimum(spread, diff) / np.maximum(spread, _TINY)) ** 1.5
        err = np.maximum(err, _EPS50 * (spread + np.abs(kronrod)))
    return kronrod * half, err * np.abs(half)


def integrate_reference(f, *edges):
    """``identities.integrate`` with array panel ends in every round, four
    arrays that each round masks and concatenates anew."""
    from divrel.errors import MaxDepthExceeded, QuadratureFailure
    from divrel.identities import _ABS_TOL, _MAX_PANELS, _REL_TOL

    a, b = edges[0], edges[-1]
    edges = np.array(edges, dtype=float)
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    if len(edges) < 2:
        return 0.0
    lo = (edges[:-1, None] + np.arange(4.0) * ((edges[1:] - edges[:-1]) / 4.0)[:, None]).ravel()
    hi = np.append(lo[1:], b)
    value, err = _gauss_kronrod_reference(f, lo, hi, a, b)
    while True:
        total = float(value.sum())
        if math.isnan(total):
            raise QuadratureFailure(f"integrand is NaN at a node in [{a}, {b}]")
        if math.isinf(total):
            return total
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        ratio = err / tol
        if ratio.sum() <= 1.0:
            return total
        share = ratio * ((b - a) / (hi - lo))
        split = np.flatnonzero(share > 1.0)
        room = _MAX_PANELS - len(lo)
        if room <= 0:
            raise MaxDepthExceeded(
                f"quadrature did not converge on [{a}, {b}]: error estimate "
                f"{err.sum():.3g} against tolerance {tol:.3g} "
                f"after {len(lo)} of {_MAX_PANELS} panels"
            )
        if not len(split):
            split = np.array([np.argmax(share)])
        if len(split) > room:
            split = split[np.argsort(share[split])[-room:]]
        mid = 0.5 * (lo[split] + hi[split])
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _gauss_kronrod_reference(f, new_lo, new_hi, a, b)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


# Closed forms at the ends of their domains, where a float ratio or
# difference underflows: 1 - r is 1 at 50 digits for r < 1e-50, so the
# complement terms go through log1p, and every float input is taken exactly.

def _mp_binary(r, s):
    """d(r||s) in nats for mpf r, s in [0, 1]: r ln(r/s) + (1-r) ln((1-r)/(1-s)),
    with the complements' log through log1p; +inf at s = 0 < r or s = 1 > r."""
    import mpmath

    total = mpmath.mpf(0)
    if r > 0:
        if s == 0:
            return mpmath.inf
        total += r * (mpmath.log(r) - mpmath.log(s))
    if r < 1:
        if s == 1:
            return mpmath.inf
        total += (1 - r) * (mpmath.log1p(-r) - mpmath.log1p(-s))
    return total


def binary_kl_mpmath(r: float, s: float, dps: int = 80):
    """d(r||s) in nats, an mpf at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        return +_mp_binary(mpmath.mpf(r), mpmath.mpf(s))


def poisson_kl_mpmath(lam_i: float, lam_j: float, dps: int = 60):
    """lam_i ln(lam_i/lam_j) - lam_i + lam_j, an mpf at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        x, y = mpmath.mpf(lam_i), mpmath.mpf(lam_j)
        return +(x * (mpmath.log(x) - mpmath.log(y)) - x + y)


def moment_bound_mpmath(m_p: float, var_p: float, m_q: float, var_q: float, dps: int = 800):
    """The binary-KL lower bound d(r||s) of ``kl_moment_lower_bound``, an mpf
    from its closed form: a = m_p - m_q, b = a^2 + var_q - var_p,
    v = sqrt(var_p + b^2/(4a^2)), r = 1/2 + b/(4av), s = r - a/(2v). At 800
    digits, as r lies within 1e-300 of 1 for the smallest variances."""
    import mpmath

    with mpmath.workdps(dps):
        m_p, var_p, m_q, var_q = map(mpmath.mpf, (m_p, var_p, m_q, var_q))
        a = m_p - m_q
        b = a * a + var_q - var_p
        v = mpmath.sqrt(var_p + b * b / (4 * a * a))
        r = mpmath.mpf(1) / 2 + b / (4 * a * v)
        return +_mp_binary(r, r - a / (2 * v))


def mean_variance_mpmath(support, mass, dps: int = 50):
    """(mean, variance) of the masses, normalized to sum 1, on the support:
    two mpfs at dps digits, every float (or mpf) taken exactly, the variance
    as the centered sum sum m (u - mean)^2."""
    import mpmath

    with mpmath.workdps(dps):
        u, m = [mpmath.mpf(x) for x in support], [mpmath.mpf(x) for x in mass]
        total = mpmath.fsum(m)
        mean = mpmath.fsum(a * x for a, x in zip(m, u)) / total
        return mean, mpmath.fsum(a * (x - mean) ** 2 for a, x in zip(m, u)) / total


def hcr_mpmath(p, q, lam: float, dps: int = 50):
    """(HCR bound, chi^2(P||R)) of two laws with R = (1-lam)P + lam*Q, each
    law's masses normalized first: (lam (E_P X - E_Q X))^2 / Var_R X from
    ``mean_variance_mpmath``, and sum (p - r)^2/r. Two mpfs at dps digits;
    the gap is taken as E_P X - E_Q X, which 1 - lam cannot round away."""
    import mpmath

    with mpmath.workdps(dps):
        support = sorted(set(map(float, p.support)) | set(map(float, q.support)))
        laws = []
        for d in (p, q):
            at = dict(zip(map(float, d.support), map(float, d.mass)))
            mass = [mpmath.mpf(at.get(x, 0.0)) for x in support]
            total = mpmath.fsum(mass)
            laws.append([x / total for x in mass])
        lam = mpmath.mpf(lam)
        r = [(1 - lam) * a + lam * b for a, b in zip(*laws)]
        gap = lam * (mean_variance_mpmath(support, laws[0], dps)[0]
                     - mean_variance_mpmath(support, laws[1], dps)[0])
        chi2 = mpmath.fsum((a - c) ** 2 / c for a, c in zip(laws[0], r) if c > 0)
        return gap ** 2 / mean_variance_mpmath(support, r, dps)[1], chi2


def n_star_crossing_mpmath(k: int, epsilon: float, d: float, dps: int = 50):
    """The real n at which (n+1)^(k-1) exp(-n d) = epsilon on the far side of
    its peak, an mpf: n + 1 = -(k-1) W_-1(eta)/d with
    eta = -(d/(k-1)) e^(-d/(k-1)) epsilon^(1/(k-1)), which mpf holds unrounded."""
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(d) / (k - 1)
        eta = -x * mpmath.exp(-x) * mpmath.mpf(epsilon) ** (mpmath.mpf(1) / (k - 1))
        return +(-(k - 1) * mpmath.re(mpmath.lambertw(eta, -1)) / mpmath.mpf(d) - 1)
