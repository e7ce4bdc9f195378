"""Command-line front end: one subcommand per pipeline, batch-oriented.

Output formats: human table (default), json, csv. Exit codes: 0 success,
1 invalid input (a malformed command line included), 2 numerical failure.
Every report echoes its inputs and a one-line description of the formula
used. Input files are read by ``from_json``; the report is written with
the stdlib json module.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import applications, contraction, identities, inequalities, moment_bounds
from .distributions import Channel, DiscreteDistribution, align
from .divergences import DivergenceSpec, f_divergence
from .errors import DivrelError, DomainError, MaxDepthExceeded, QuadratureFailure

_NUMERICAL_ERRORS = (MaxDepthExceeded, QuadratureFailure)


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
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
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
        out = io.StringIO()
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        else:
            scalars = report.get("scalars", {})
            writer = csv.DictWriter(out, fieldnames=list(scalars.keys()))
            writer.writeheader()
            writer.writerow(scalars)
        sys.stdout.write(out.getvalue())
        return
    # table
    print(f"command: {report['command']}")
    print(f"formula: {report['formula']}")
    for k, v in report.get("inputs", {}).items():
        print(f"  {k}: {v}")
    for k, v in report.get("scalars", {}).items():
        print(f"{k:32s} {v}")
    if rows:
        headers = list(rows[0].keys())
        print("  ".join(f"{h:>14s}" for h in headers))
        for row in rows:
            print("  ".join(f"{_cell(row[h]):>14s}" for h in headers))


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _cmd_divergence(args) -> dict:
    spec = DivergenceSpec.parse(args.spec)
    p = _load(DiscreteDistribution, args.p)
    q = _load(DiscreteDistribution, args.q)
    pa, qa = align(p, q)
    value = f_divergence(spec, pa, qa)
    return {
        "command": "divergence",
        "formula": "sum_i q_i f(p_i/q_i) for the selected kernel, in nats",
        "inputs": {"spec": args.spec, "p": args.p, "q": args.q},
        "scalars": {"value_nats": value},
    }


def _cmd_identity_check(args) -> dict:
    p = _load(DiscreteDistribution, args.p)
    q = _load(DiscreteDistribution, args.q)
    which = args.which
    if which == "kl-chi2":
        rep = identities.check_kl_chi2_identity(p, q, args.lam)
        formula = "D(P||R_lam) vs integral of chi2(P||R_s)/s over (0,lam]"
    elif which == "chi2-half":
        rep = identities.check_chi2_half_identity(p, q)
        formula = "chi2(P||Q)/2 vs integral of chi2(sP+(1-s)Q||Q)/s over (0,1]"
    elif which == "gv":
        rep = identities.check_gv_identity(p, q, args.lam)
        formula = "D(P||R_lam) vs integral of s*D_phi_s(P||Q) over (0,lam]"
    elif which == "recursive":
        rep = identities.check_recursive_identity(args.k, p, q, args.lam)
        formula = "order-(k+1) polylog divergence vs integral of order-k over (0,lam]"
    elif which == "skew-s":
        rep = contraction.check_skew_s_integral(args.alpha, p, q)
        formula = "S_alpha(P||Q) vs weighted integral of the skew-chi2 curve"
    else:
        raise DivrelError(f"unknown identity {which!r}")
    return {
        "command": "identity-check",
        "formula": formula,
        "inputs": {"which": which, "lam": args.lam, "k": args.k, "alpha": args.alpha},
        "scalars": {
            "lhs": rep.lhs, "rhs": rep.rhs,
            "abs_err": rep.abs_err, "rel_err": rep.rel_err,
            "passed": rep.passed,
        },
    }


def _cmd_moment_bound(args) -> dict:
    mt = moment_bounds.MomentTuple(args.mp, args.varp, args.mq, args.varq)
    cert = moment_bounds.kl_moment_lower_bound(mt)
    scalars = {
        "bound_nats": cert.bound_nats,
        "r": cert.r, "s": cert.s,
        "gaussian_kl_nats": moment_bounds.gaussian_kl(mt)
        if args.varp > 0 and args.varq > 0 else math.nan,
        "exponential_kl_nats": moment_bounds.exponential_kl(mt)
        if args.varp > 0 and args.varq > 0 else math.nan,
    }
    report = {
        "command": "moment-bound",
        "formula": "binary relative entropy d(r||s) from the four moments",
        "inputs": {"mp": args.mp, "varp": args.varp, "mq": args.mq, "varq": args.varq},
        "scalars": scalars,
    }
    if args.attain:
        p, q = moment_bounds.attaining_pair(mt)
        report["scalars"]["attaining_p"], report["scalars"]["attaining_q"] = p, q
    return report


def _cmd_inequalities(args) -> dict:
    if args.trials < 1:
        raise DomainError(f"trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    # pairs of 2..6 atoms, zero-padded to 6: a padded atom adds 0 to every kernel
    P, Q = np.zeros((2, args.trials, 6))
    for p, q in zip(P, Q):
        n = int(rng.integers(2, 7))
        p[:n] = rng.dirichlet(np.ones(n))
        q[:n] = rng.dirichlet(np.ones(n))
    rows = [{"inequality": name, "trials": args.trials,
             "violations": int(np.count_nonzero(~(slack >= -inequalities.GRACE))),
             "min_slack": float(slack[np.isfinite(slack)].min(initial=math.inf))}
            for name, slack in inequalities.pair_slacks(P, Q, 0.5).items()]
    return {
        "command": "inequalities",
        "formula": "randomized sweep of the divergence inequality suite",
        "inputs": {"seed": args.seed, "trials": args.trials},
        "rows": rows,
    }


def _cmd_contraction(args) -> dict:
    w = _load(Channel, args.channel)
    qx = _load(DiscreteDistribution, args.input_law)
    sc = contraction.SourceChannelPair(qx, w)
    mu = contraction.chi2_contraction(sc)
    lower, upper_channel, upper_scaled = contraction.skew_contraction_sandwich(
        args.alpha, args.family, sc
    )
    tag = "SKEW_K" if args.family == "K" else "SKEW_S"
    est = contraction.brute_force_mu_f(
        DivergenceSpec(tag, args.alpha), sc, n_samples=args.brute_budget
    )
    return {
        "command": "contraction",
        "formula": "squared second singular value of the normalized joint matrix, "
                   "with skew-family sandwich bounds",
        "inputs": {
            "channel": args.channel, "input_law": args.input_law,
            "alpha": args.alpha, "family": args.family,
            "brute_budget": args.brute_budget,
        },
        "scalars": {
            "mu_chi2": mu,
            "maximal_correlation": math.sqrt(mu),
            "sandwich_lower": lower,
            "sandwich_upper_channel": upper_channel,
            "sandwich_upper_scaled": upper_scaled,
            "brute_force_lower": est.lower,
            "brute_force_point": est.point_estimate,
        },
    }


def _cmd_mixing(args) -> dict:
    w = _load(Channel, args.chain)
    p0 = _load(DiscreteDistribution, args.p0)
    rep = contraction.markov_mixing_report(w, p0, args.alpha, args.n_max)
    return {
        "command": "mixing",
        "formula": "skew divergences to the stationary law vs mu^n decay envelopes",
        "inputs": {
            "chain": args.chain, "p0": args.p0,
            "alpha": args.alpha, "n_max": args.n_max,
        },
        "scalars": {
            "mu_chi2": rep["mu_chi2"],
            "q_min": rep["q_min"],
            "k_alpha_initial": rep["k_alpha_initial"],
            "s_alpha_initial": rep["s_alpha_initial"],
        },
        "rows": rep["rows"],
    }


def _cmd_redundancy(args) -> dict:
    if args.weights == ["uniform"]:
        weights = [1.0 / len(args.lambdas)] * len(args.lambdas)
    else:
        weights = [float(v) for v in args.weights]
    pf = applications.PoissonFamily(tuple(args.lambdas), tuple(weights))
    rep = applications.redundancy_report(pf)
    return {
        "command": "redundancy",
        "formula": "mixture-KL and convexity upper bounds on the mismatched "
                   "Shannon-code penalty, in bits",
        "inputs": {"lambdas": args.lambdas, "weights": weights},
        "scalars": {
            "sum_kl_upper_bits": rep["sum_kl_upper_bits"],
            "convexity_upper_bits": rep["convexity_upper_bits"],
            "direct_sum_bits": rep["direct_sum_bits"],
            "avg_entropy_bits": rep["avg_entropy_bits"],
            "nu_upper_improved_pct": 100.0 * rep["nu_upper_improved"],
            "nu_upper_loose_pct": 100.0 * rep["nu_upper_loose"],
            "nu_lower_direct_pct": 100.0 * rep["nu_lower_direct"],
        },
        "rows": rep["per_source"],
    }


def _cmd_sample_size(args) -> dict:
    tcp = applications.TypeClassProblem(
        m_q=args.mq, var_q=args.varq,
        mean_box=(args.mean_box[0], args.mean_box[1]),
        var_box=(args.var_box[0], args.var_box[1]),
        alphabet_size=args.alphabet, epsilon=args.epsilon,
    )
    d = applications.d_star(tcp)
    n = applications.n_star(tcp, d)
    return {
        "command": "sample-size",
        "formula": "minimal n with (n+1)^(k-1) exp(-n d*) <= epsilon, "
                   "inverted via the secondary Lambert W branch",
        "inputs": {
            "mq": args.mq, "varq": args.varq,
            "mean_box": args.mean_box, "var_box": args.var_box,
            "alphabet": args.alphabet, "epsilon": args.epsilon,
        },
        "scalars": {
            "d_star_nats": d,
            "n_star": n,
            "tail_bound_at_n_star": applications.sanov_bound(tcp, n, d),
        },
    }


def _cmd_set_divergence(args) -> dict:
    spec = DivergenceSpec.parse(args.spec)
    mu = _load(DiscreteDistribution, args.mu)
    direct, closed = inequalities.conditioned_measure_divergence(
        spec, mu, args.indices
    )
    return {
        "command": "set-divergence",
        "formula": "divergence from the conditioned measure: direct evaluation "
                   "vs the closed form in the set probability",
        "inputs": {"spec": args.spec, "mu": args.mu, "indices": args.indices},
        "scalars": {"direct": direct, "closed_form": closed},
    }


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are invalid input, exit 1: its own
    exit 2 would read as a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"invalid input: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divrel",
        description="Divergence relations toolkit: f-divergences, integral "
                    "identities, moment bounds, contraction coefficients and "
                    "their applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p):
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table", help="output format")

    p = sub.add_parser("divergence", help="evaluate one divergence (nats)")
    p.add_argument("--spec", required=True,
                   help="kl | chi2 | tv | renyi:a | gv:s | skew_k:a | skew_s:a "
                        "| js | polylog:k")
    p.add_argument("--p", required=True, help="JSON file {support, mass}")
    p.add_argument("--q", required=True, help="JSON file {support, mass}")
    add_fmt(p)
    p.set_defaults(fn=_cmd_divergence)

    p = sub.add_parser("identity-check", help="two-path integral identity check")
    p.add_argument("--which", required=True,
                   choices=("kl-chi2", "chi2-half", "gv", "recursive", "skew-s"))
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1, help="polylog order (recursive)")
    p.add_argument("--alpha", type=float, default=0.5, help="skew (skew-s)")
    add_fmt(p)
    p.set_defaults(fn=_cmd_identity_check)

    p = sub.add_parser("moment-bound", help="moment-based KL lower bound")
    p.add_argument("--mp", type=float, required=True)
    p.add_argument("--varp", type=float, required=True)
    p.add_argument("--mq", type=float, required=True)
    p.add_argument("--varq", type=float, required=True)
    p.add_argument("--attain", action="store_true",
                   help="also emit the two-point pair attaining the bound")
    add_fmt(p)
    p.set_defaults(fn=_cmd_moment_bound)

    p = sub.add_parser("inequalities", help="randomized inequality sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    add_fmt(p)
    p.set_defaults(fn=_cmd_inequalities)

    p = sub.add_parser("contraction", help="contraction coefficient report")
    p.add_argument("--channel", required=True, help="JSON file {rows}")
    p.add_argument("--input-law", required=True, help="JSON file {support, mass}")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--family", choices=("K", "S"), default="K")
    p.add_argument("--brute-budget", type=int, default=10_000)
    add_fmt(p)
    p.set_defaults(fn=_cmd_contraction)

    p = sub.add_parser("mixing", help="Markov mixing envelope report")
    p.add_argument("--chain", required=True, help="JSON file {rows}, square")
    p.add_argument("--p0", required=True, help="JSON file {support, mass}")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=20)
    add_fmt(p)
    p.set_defaults(fn=_cmd_mixing)

    p = sub.add_parser("redundancy", help="Poisson-mixture code redundancy")
    p.add_argument("--lambdas", type=float, nargs="+", required=True)
    p.add_argument("--weights", nargs="+", default=["uniform"],
                   help="'uniform' or one weight per rate")
    add_fmt(p)
    p.set_defaults(fn=_cmd_redundancy)

    p = sub.add_parser("sample-size", help="minimal n for the type-class bound")
    p.add_argument("--mq", type=float, required=True)
    p.add_argument("--varq", type=float, required=True)
    p.add_argument("--mean-box", type=float, nargs=2, required=True)
    p.add_argument("--var-box", type=float, nargs=2, required=True)
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    add_fmt(p)
    p.set_defaults(fn=_cmd_sample_size)

    p = sub.add_parser("set-divergence",
                       help="divergence from a conditioned measure")
    p.add_argument("--spec", required=True)
    p.add_argument("--mu", required=True, help="JSON file {support, mass}")
    p.add_argument("--indices", type=int, nargs="+", required=True)
    add_fmt(p)
    p.set_defaults(fn=_cmd_set_divergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DivrelError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
