"""Command-line front end: one subcommand per pipeline, batch-oriented.

Output formats: human table (default), json, csv. Exit codes: 0 success,
1 invalid input (a malformed command line included), 2 numerical failure.
Input files are read by ``from_json``; the report is written with the
stdlib json module.

Every report has one layout, assembled in ``main``: ``command`` (the
subcommand), ``formula`` (a one-line description of what was computed),
``inputs`` (every argument of the subcommand, defaults included, except
``--format``), then the subcommand's own ``scalars`` and/or ``rows``. Each
subcommand registers its runner and formula with its parser. A runner
returns its ``scalars`` and/or ``rows``, and may return a ``formula`` too,
which replaces the registered one where the formula depends on the
arguments (``identity-check`` registers None and returns the formula of its
``--which``).

A runner imports the modules it calls beyond distributions, divergences and
errors, so that a subcommand loads only the divrel modules it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .distributions import Channel, DiscreteDistribution, _check_count
from .divergences import DivergenceSpec, f_divergence
from .errors import DivrelError, QuadratureFailure

# parsed attributes that are not inputs of the computation
_NOT_INPUTS = ("command", "fn", "formula", "format")


def _load(cls, path: str):
    """The DiscreteDistribution or Channel in the JSON file at path."""
    with open(path) as fh:
        return cls.from_json(fh.read())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, DiscreteDistribution):
        # in the keys of its file; not to_json, which would load orjson into
        # a call that reads no file
        return {"support": obj.support.tolist(), "mass": obj.mass.tolist()}
    return obj


def _emit(report: dict, fmt: str) -> None:
    report = _jsonable(report)
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    rows = report.get("rows")
    if fmt == "csv":
        import csv

        table = rows or [report.get("scalars", {})]
        writer = csv.DictWriter(sys.stdout, fieldnames=list(table[0]))
        writer.writeheader()
        writer.writerows(table)
        return
    print(f"command: {report['command']}")
    print(f"formula: {report['formula']}")
    for k, v in report["inputs"].items():
        print(f"  {k}: {v}")
    for k, v in report.get("scalars", {}).items():
        print(f"{k:32s} {v}")
    if rows:
        headers = list(rows[0].keys())
        print("  ".join(f"{h:>14s}" for h in headers))
        for row in rows:
            print("  ".join(f"{_cell(row[h]):>14s}" for h in headers))


def _cell(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _cmd_divergence(args) -> dict:
    spec = DivergenceSpec.parse(args.spec)
    p, q = (_load(DiscreteDistribution, path) for path in (args.p, args.q))
    return {"scalars": {"value_nats": f_divergence(spec, p, q)}}


# --which -> (formula, check of the pair P, Q under the parsed arguments a, by
# the identities module ids)
_IDENTITIES = {
    "kl-chi2": ("D(P||R_lam) vs integral of chi2(P||R_s)/s over (0,lam]",
                lambda ids, a, p, q: ids.check_kl_chi2_identity(p, q, a.lam)),
    "chi2-half": ("chi2(P||Q)/2 vs integral of chi2(sP+(1-s)Q||Q)/s over (0,1]",
                  lambda ids, a, p, q: ids.check_chi2_half_identity(p, q)),
    "gv": ("D(P||R_lam) vs integral of s*D_phi_s(P||Q) over (0,lam]",
           lambda ids, a, p, q: ids.check_gv_identity(p, q, a.lam)),
    "recursive": ("order-(k+1) polylog divergence vs integral of order-k over (0,lam]",
                  lambda ids, a, p, q: ids.check_recursive_identity(a.k, p, q, a.lam)),
    "skew-s": ("S_alpha(P||Q) vs weighted integral of the skew-chi2 curve",
               lambda ids, a, p, q: ids.check_skew_s_integral(a.alpha, p, q)),
}


def _cmd_identity_check(args) -> dict:
    from . import identities

    p, q = (_load(DiscreteDistribution, path) for path in (args.p, args.q))
    formula, check = _IDENTITIES[args.which]
    rep = check(identities, args, p, q)
    return {"formula": formula, "scalars": {k: v for k, v in vars(rep).items() if k != "name"}}


def _cmd_moment_bound(args) -> dict:
    from . import moment_bounds

    mt = moment_bounds.MomentTuple(args.mp, args.varp, args.mq, args.varq)
    cert = moment_bounds.kl_moment_lower_bound(mt)
    spread = args.varp > 0 and args.varq > 0
    scalars = {
        "bound_nats": cert.bound_nats, "r": cert.r, "s": cert.s,
        "gaussian_kl_nats": moment_bounds.gaussian_kl(mt) if spread else math.nan,
        "exponential_kl_nats": moment_bounds.exponential_kl(mt) if spread else math.nan,
    }
    if args.attain:
        scalars["attaining_p"], scalars["attaining_q"] = moment_bounds.attaining_pair(mt)
    return {"scalars": scalars}


def _cmd_inequalities(args) -> dict:
    from . import inequalities

    _check_count("trials", args.trials, 1)
    _check_count("seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    # pairs of 2..6 atoms, zero-padded to 6: a padded atom adds 0 to every
    # kernel. Uniform Dirichlet laws on the first n atoms, drawn all at once as
    # normalized standard exponentials
    n = rng.integers(2, 7, size=args.trials)
    draws = rng.standard_exponential((2, args.trials, 6)) * (np.arange(6) < n[:, None])
    P, Q = draws / draws.sum(axis=-1, keepdims=True)
    return {"rows": [
        {"inequality": name, "trials": args.trials,
         "violations": int(np.count_nonzero(~(slack >= -inequalities.GRACE))),
         "min_slack": float(slack[np.isfinite(slack)].min(initial=math.inf))}
        for name, slack in inequalities.pair_slacks(P, Q, 0.5).items()]}


def _cmd_contraction(args) -> dict:
    from . import contraction

    w = _load(Channel, args.channel)
    qx = _load(DiscreteDistribution, args.input_law)
    sc = contraction.SourceChannelPair(qx, w)
    tag = "SKEW_K" if args.family == "K" else "SKEW_S"
    # first, so that its 2-6 input atoms are checked before the channel sup runs
    est = contraction.brute_force_mu_f(DivergenceSpec(tag, args.alpha), sc,
                                       n_samples=args.brute_budget)
    # the sandwich's lower end is the chi^2 contraction itself
    mu, upper_channel, upper_scaled = contraction.skew_contraction_sandwich(
        args.alpha, args.family, sc)
    return {"scalars": {
        "mu_chi2": mu, "maximal_correlation": math.sqrt(mu), "sandwich_lower": mu,
        "sandwich_upper_channel": upper_channel, "sandwich_upper_scaled": upper_scaled,
        "brute_force_lower": est.lower, "brute_force_point": est.point_estimate,
    }}


def _cmd_mixing(args) -> dict:
    from . import contraction

    w = _load(Channel, args.chain)
    p0 = _load(DiscreteDistribution, args.p0)
    rep = contraction.markov_mixing_report(w, p0, args.alpha, args.n_max)
    keys = ("mu_chi2", "q_min", "k_alpha_initial", "s_alpha_initial")
    return {"scalars": {k: rep[k] for k in keys}, "rows": rep["rows"]}


def _cmd_redundancy(args) -> dict:
    from . import applications

    n = len(args.lambdas)
    weights = [1.0 / n] * n if args.weights == ["uniform"] else args.weights
    pf = applications.PoissonFamily(tuple(args.lambdas), tuple(weights))
    rep = applications.redundancy_report(pf)
    bits = ("sum_kl_upper_bits", "convexity_upper_bits", "direct_sum_bits", "avg_entropy_bits")
    fractions = ("nu_upper_improved", "nu_upper_loose", "nu_lower_direct")
    scalars = {k: rep[k] for k in bits} | {f"{k}_pct": 100.0 * rep[k] for k in fractions}
    return {"scalars": scalars, "rows": rep["per_source"]}


def _cmd_sample_size(args) -> dict:
    from . import applications

    tcp = applications.TypeClassProblem(args.mq, args.varq, tuple(args.mean_box),
                                        tuple(args.var_box), args.alphabet, args.epsilon)
    d = applications.d_star(tcp)
    n = applications.n_star(tcp, d)
    return {"scalars": {"d_star_nats": d, "n_star": n,
                        "tail_bound_at_n_star": applications.sanov_bound(tcp, n, d)}}


def _cmd_set_divergence(args) -> dict:
    from . import inequalities

    spec = DivergenceSpec.parse(args.spec)
    mu = _load(DiscreteDistribution, args.mu)
    direct, closed = inequalities.conditioned_measure_divergence(spec, mu, args.indices)
    return {"scalars": {"direct": direct, "closed_form": closed}}


def _weight(text: str):
    """One --weights token: 'uniform' or a float."""
    return text if text == "uniform" else float(text)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are invalid input, exit 1: its own
    exit 2 would read as a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"invalid input: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: its nine
    subparsers cost most of an in-process ``main`` call, and parsing leaves
    them as they were."""
    parser = _Parser(
        prog="divrel",
        description="Divergence relations toolkit: f-divergences, integral identities, "
                    "moment bounds, contraction coefficients and their applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json", "csv"),
                     default="table", help="output format")

    def command(name, fn, formula, help):
        """The subparser of one subcommand, its runner and formula registered."""
        p = sub.add_parser(name, help=help, parents=[fmt])
        p.set_defaults(fn=fn, formula=formula)
        return p

    p = command("divergence", _cmd_divergence,
                "sum_i q_i f(p_i/q_i) for the selected kernel, in nats",
                "evaluate one divergence (nats)")
    p.add_argument("--spec", required=True,
                   help="kl | chi2 | tv | renyi:a | gv:s | skew_k:a | skew_s:a "
                        "| js | polylog:k")
    for name in ("--p", "--q"):
        p.add_argument(name, required=True, help="JSON file {support, mass}")

    # the formula depends on --which: the runner returns it
    p = command("identity-check", _cmd_identity_check, None,
                "two-path integral identity check")
    p.add_argument("--which", required=True, choices=tuple(_IDENTITIES))
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1, help="polylog order (recursive)")
    p.add_argument("--alpha", type=float, default=0.5, help="skew (skew-s)")

    p = command("moment-bound", _cmd_moment_bound,
                "binary relative entropy d(r||s) from the four moments",
                "moment-based KL lower bound")
    for name in ("--mp", "--varp", "--mq", "--varq"):
        p.add_argument(name, type=float, required=True)
    p.add_argument("--attain", action="store_true",
                   help="also emit the two-point pair attaining the bound")

    p = command("inequalities", _cmd_inequalities,
                "randomized sweep of the divergence inequality suite",
                "randomized inequality sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)

    p = command("contraction", _cmd_contraction,
                "squared second singular value of the normalized joint matrix, "
                "with skew-family sandwich bounds",
                "contraction coefficient report")
    p.add_argument("--channel", required=True, help="JSON file {rows}")
    p.add_argument("--input-law", required=True, help="JSON file {support, mass}")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--family", choices=("K", "S"), default="K")
    p.add_argument("--brute-budget", type=int, default=10_000)

    p = command("mixing", _cmd_mixing,
                "skew divergences to the stationary law vs mu^n decay envelopes",
                "Markov mixing envelope report")
    p.add_argument("--chain", required=True, help="JSON file {rows}, square")
    p.add_argument("--p0", required=True, help="JSON file {support, mass}")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=20)

    p = command("redundancy", _cmd_redundancy,
                "mixture-KL and convexity upper bounds on the mismatched "
                "Shannon-code penalty, in bits",
                "Poisson-mixture code redundancy")
    p.add_argument("--lambdas", type=float, nargs="+", required=True)
    p.add_argument("--weights", type=_weight, nargs="+", default=["uniform"],
                   help="'uniform' or one weight per rate")

    p = command("sample-size", _cmd_sample_size,
                "minimal n with (n+1)^(k-1) exp(-n d*) <= epsilon, "
                "inverted via the secondary Lambert W branch",
                "minimal n for the type-class bound")
    for name in ("--mq", "--varq"):
        p.add_argument(name, type=float, required=True)
    for name in ("--mean-box", "--var-box"):
        p.add_argument(name, type=float, nargs=2, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = command("set-divergence", _cmd_set_divergence,
                "divergence from the conditioned measure: direct evaluation "
                "vs the closed form in the set probability",
                "divergence from a conditioned measure")
    p.add_argument("--spec", required=True)
    p.add_argument("--mu", required=True, help="JSON file {support, mass}")
    p.add_argument("--indices", type=int, nargs="+", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parts = args.fn(args)
    except QuadratureFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DivrelError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
    _emit({"command": args.command, "formula": args.formula, "inputs": inputs, **parts},
          args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
