"""Per-layer times of a tree's code, as one row of a BENCH file.

    python3 tools/bench_layers.py TREE OUT

TREE is a checkout of this repository. Each group of timings runs the code
of TREE/src in a fresh interpreter with one BLAS thread. Every time is in
seconds, the minimum over REPEATS repeats of a timeit loop long enough to
take 0.2 s. The row holds

- ``build``: ``make_distribution`` of a law at n = 4, 100, 1e4 and 1e5
  atoms, validation included;
- ``kernels``: ``f_divergence`` of each tag of the divergence registry
  (``_REGISTRY``), with the parameter of PARAMS, on two laws at the same n;
- ``codec``: ``to_json`` and ``from_json``, timed apart, of a law at 1e4
  and 1e5 atoms and of a 1e5 x 4 channel; ``from_json`` reads the text that
  the tree's ``to_json`` writes;
- ``loops``: calls that run a search or a quadrature loop, and one door
  call of the size of a search round: ``brute_force_mu_f`` on BSC(0.1) with
  uniform input at 1,500 draws for each spec of BRUTE_SPECS (the
  benchmark's), ``check_skew_s_integral`` at alpha = 1/2 on the 5-atom pair
  of ``laws(5)``, and ``f_divergence_rows`` of KL on a 144 x 2 stack of
  Dirichlet laws (one refinement round of the search on two input letters)
  against the uniform law;
- ``identities``: each of the seven identity checks of the benchmark's pair
  suite (kl-chi2, chi2-half, gv, recursive at k = 0, 1 and 2, and skew-s),
  as the time of one pass over the IDENTITY_PAIRS seeded pairs of 2-8
  atoms of ``identity_pairs`` divided by their number: seconds per check;
- ``sample_size``: ``d_star`` on the paper's reference box (REFERENCE_TCP),
  ``n_star`` at that d for k = 2 and k = 100 and at d = 1e-20 for k = 2, and
  ``lambert_w_minus1`` at y = -1e-300 and at -1/e + 1e-12;
- ``moments``: ``kl_moment_lower_bound`` at the paper's reference tuple
  (REFERENCE_MOMENTS) and at one with a subnormal var_q, whose mass of s
  is subnormal unless scaled up (SUBNORMAL_MOMENTS), ``attaining_pair`` at
  the reference tuple, and ``moment_bound_arrays`` on the GRID x GRID grid
  of the mean and variance box of REFERENCE_TCP against its (m_q, var_q);
- ``second_moments``: ``moments`` of a law and ``hcr_lower_bound`` at
  lambda = 1/2 of two laws on one support, both from ``laws(n)``, at each n
  of SECOND_MOMENT_SIZES (8 atoms, and the benchmark's large supports);
- the versions of Python, numpy and orjson, the line count of
  TREE/src/divrel (``wc -l`` of its modules), TREE's commit, and whether
  TREE/src differs from that commit.

The row is appended to the JSON list in OUT, which is created if missing,
so that one file holds the rows of a parent and of a head.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

# set before numpy loads BLAS, and inherited by the group processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SIZES = (4, 100, 10_000, 100_000)
CODEC_SIZES = (10_000, 100_000)
CHANNEL_SHAPE = (100_000, 4)
# a parameter inside the domain of each tag that takes one
PARAMS = {"RENYI": 2.0, "GV": 0.5, "SKEW_K": 0.5, "SKEW_S": 0.5, "POLYLOG_F": 2}
# the specs of the benchmark's brute-force operations
BRUTE_SPECS = (("SKEW_K", 1.0), ("SKEW_K", 0.5), ("SKEW_S", 0.5))
REPEATS = 5
IDENTITY_PAIRS = 16
# the paper's sample-size example: reference law, mean and variance box, epsilon
REFERENCE_TCP = dict(m_q=40.0, var_q=20.0, mean_box=(43.0, 47.0), var_box=(18.0, 22.0),
                     epsilon=1e-10)
REFERENCE_MOMENTS = (45.0, 20.0, 40.0, 20.0)
SUBNORMAL_MOMENTS = (2057.2405520276566, 1.0354122601793056e-245, -1353.4166495572242,
                     1.2902736587e-314)
GRID = 301
SECOND_MOMENT_SIZES = (8, 10_000, 100_000)


def best(fn) -> float:
    """The timeit minimum of fn(), in seconds per call."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def laws(n: int):
    """Support 0..n-1 and two Dirichlet mass vectors on it, seeded by n."""
    rng = np.random.default_rng(n)
    return np.arange(n, dtype=float), rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


def group_build() -> dict:
    import divrel as D

    out = {}
    for n in SIZES:
        support, a, _ = laws(n)
        out[str(n)] = best(lambda: D.make_distribution(support, a))
    return out


def group_kernels() -> dict:
    import divrel as D
    from divrel.divergences import _REGISTRY

    out = {}
    for tag in _REGISTRY:
        spec = D.DivergenceSpec(tag, PARAMS.get(tag))
        out[tag] = {}
        for n in SIZES:
            support, a, b = laws(n)
            p, q = D.make_distribution(support, a), D.make_distribution(support, b)
            out[tag][str(n)] = best(lambda: D.f_divergence(spec, p, q))
    return out


def group_codec() -> dict:
    import divrel as D

    cases = {}
    for n in CODEC_SIZES:
        support, a, _ = laws(n)
        cases[f"law.{n}"] = D.make_distribution(support, a)
    rows = np.random.default_rng(CHANNEL_SHAPE[0]).dirichlet(np.ones(CHANNEL_SHAPE[1]),
                                                            size=CHANNEL_SHAPE[0])
    cases["channel.{}x{}".format(*CHANNEL_SHAPE)] = D.make_channel(rows)
    out = {}
    for name, x in cases.items():
        text = x.to_json()
        out[name] = {"to_json": best(x.to_json),
                     "from_json": best(lambda: type(x).from_json(text))}
    return out


def group_loops() -> dict:
    import divrel as D

    sc = D.SourceChannelPair(D.make_distribution([0, 1], [0.5, 0.5]),
                             D.make_channel([[0.9, 0.1], [0.1, 0.9]]))
    out = {}
    for tag, param in BRUTE_SPECS:
        spec = D.DivergenceSpec(tag, param)
        out[f"brute_force_mu_f.{tag}:{param}"] = best(
            lambda: D.brute_force_mu_f(spec, sc, n_samples=1500, seed=0))
    support, a, b = laws(5)
    p, q = D.make_distribution(support, a), D.make_distribution(support, b)
    out["check_skew_s_integral"] = best(lambda: D.check_skew_s_integral(0.5, p, q))
    rows = np.random.default_rng(144).dirichlet(np.ones(2), size=144)
    kl = D.DivergenceSpec("KL")
    out["f_divergence_rows.144x2"] = best(lambda: D.f_divergence_rows(kl, rows, [0.5, 0.5]))
    return out


def identity_pairs(D) -> list:
    """IDENTITY_PAIRS seeded (p, q, lam, alpha) of Dirichlet laws on 2-8 atoms,
    lam in [0.1, 1] and alpha in [0.05, 0.95], drawn as the benchmark draws its
    sweep pairs."""
    rng = np.random.default_rng(IDENTITY_PAIRS)
    pairs = []
    for _ in range(IDENTITY_PAIRS):
        n = int(rng.integers(2, 9))
        p, q = (D.make_distribution(range(n), rng.dirichlet(np.ones(n))) for _ in range(2))
        pairs.append((p, q, float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.05, 0.95))))
    return pairs


def group_identities() -> dict:
    import divrel as D

    checks = {
        "kl-chi2": lambda p, q, lam, _: D.check_kl_chi2_identity(p, q, lam),
        "chi2-half": lambda p, q, *_: D.check_chi2_half_identity(p, q),
        "gv": lambda p, q, lam, _: D.check_gv_identity(p, q, lam),
        **{f"recursive.k{k}": lambda p, q, lam, _, k=k: D.check_recursive_identity(k, p, q, lam)
           for k in (0, 1, 2)},
        "skew-s": lambda p, q, _, alpha: D.check_skew_s_integral(alpha, p, q),
    }
    pairs = identity_pairs(D)
    return {name: best(lambda: [check(*pair) for pair in pairs]) / len(pairs)
            for name, check in checks.items()}


def group_sample_size() -> dict:
    import math

    import divrel as D

    tcp = {k: D.TypeClassProblem(**REFERENCE_TCP, alphabet_size=k) for k in (2, 100)}
    d = D.d_star(tcp[2])
    return {"d_star": best(lambda: D.d_star(tcp[2])),
            "n_star.k2": best(lambda: D.n_star(tcp[2], d)),
            "n_star.k100": best(lambda: D.n_star(tcp[100], d)),
            "n_star.k2.d1e-20": best(lambda: D.n_star(tcp[2], 1e-20)),
            "lambert_w_minus1.-1e-300": best(lambda: D.lambert_w_minus1(-1e-300)),
            "lambert_w_minus1.branch+1e-12": best(lambda: D.lambert_w_minus1(-1 / math.e + 1e-12))}


def group_moments() -> dict:
    import divrel as D

    reference, subnormal = D.MomentTuple(*REFERENCE_MOMENTS), D.MomentTuple(*SUBNORMAL_MOMENTS)
    means = np.linspace(*REFERENCE_TCP["mean_box"], GRID)[:, None]
    variances = np.linspace(*REFERENCE_TCP["var_box"], GRID)[None, :]
    m_q, var_q = REFERENCE_TCP["m_q"], REFERENCE_TCP["var_q"]
    return {"kl_moment_lower_bound.reference": best(lambda: D.kl_moment_lower_bound(reference)),
            "kl_moment_lower_bound.subnormal": best(lambda: D.kl_moment_lower_bound(subnormal)),
            "attaining_pair.reference": best(lambda: D.attaining_pair(reference)),
            f"moment_bound_arrays.{GRID}x{GRID}": best(
                lambda: D.moment_bound_arrays(means, variances, m_q, var_q))}


def group_second_moments() -> dict:
    import divrel as D

    out = {}
    for n in SECOND_MOMENT_SIZES:
        support, a, b = laws(n)
        p, q = D.make_distribution(support, a), D.make_distribution(support, b)
        out[f"moments.{n}"] = best(lambda: D.moments(p))
        out[f"hcr_lower_bound.{n}"] = best(lambda: D.hcr_lower_bound(p, q, 0.5))
    return out


def group_versions() -> dict:
    import orjson

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "orjson": orjson.__version__}


GROUPS = {"versions": group_versions, "build": group_build, "kernels": group_kernels,
          "codec": group_codec, "loops": group_loops, "identities": group_identities,
          "sample_size": group_sample_size, "moments": group_moments,
          "second_moments": group_second_moments}


def run_group(tree: Path, name: str):
    """The result of one group, timed in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, str(tree), "--group", name],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def source_lines(tree: Path) -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((tree / "src" / "divrel").glob("*.py")))


def commit(tree: Path) -> dict:
    """TREE's commit, and whether TREE/src differs from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True).stdout.strip()

    sha = git("rev-parse", "HEAD")
    return {"commit": sha or None,
            "src_changed": bool(git("status", "--porcelain", "--", "src")) if sha else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose code to time")
    parser.add_argument("out", type=Path, nargs="?", help="JSON list to append the row to")
    parser.add_argument("--group", choices=tuple(GROUPS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.group:
        sys.path.insert(0, str(tree / "src"))
        print(json.dumps(GROUPS[args.group]()))
        return 0
    if args.out is None:
        parser.error("OUT is required")

    row = {**commit(tree), "src_divrel_lines": source_lines(tree)}
    row.update((name, run_group(tree, name)) for name in GROUPS)
    rows = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps(rows + [row], indent=1) + "\n")
    codec = row["codec"]
    for name, times in codec.items():
        print(f"{name}: to_json {times['to_json'] * 1e3:.3f} ms, "
              f"from_json {times['from_json'] * 1e3:.3f} ms")
    for name, time in row["loops"].items():
        print(f"{name}: {time * 1e3:.3f} ms")
    for name, time in row["identities"].items():
        print(f"identity {name}: {time * 1e6:.1f} us per pair")
    for name, time in {**row["sample_size"], **row["moments"], **row["second_moments"]}.items():
        print(f"{name}: {time * 1e6:.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
