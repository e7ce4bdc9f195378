import json
import math

import pytest

from divrel.cli import main


def write_dist(tmp_path, name, support, mass):
    path = tmp_path / name
    path.write_text(json.dumps({"support": support, "mass": mass}))
    return str(path)


def write_channel(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


def reject_constant(token):
    raise ValueError(f"invalid JSON constant {token}")


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=reject_constant)


def test_divergence_zero_for_identical_inputs(tmp_path, capsys):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.5])
    code, rep = run_json(capsys, ["divergence", "--spec", "kl", "--p", p, "--q", p])
    assert code == 0
    assert rep["scalars"]["value_nats"] == 0.0


def test_divergence_aligns_supports(tmp_path, capsys):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.5])
    q = write_dist(tmp_path, "q.json", [1, 2], [0.5, 0.5])
    code, rep = run_json(capsys, ["divergence", "--spec", "tv", "--p", p, "--q", q])
    assert code == 0
    assert rep["scalars"]["value_nats"] == pytest.approx(1.0)


def test_divergence_infinity_serialized(tmp_path, capsys):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.5])
    q = write_dist(tmp_path, "q.json", [0, 1], [1.0, 0.0])
    code, rep = run_json(capsys, ["divergence", "--spec", "kl", "--p", p, "--q", q])
    assert code == 0
    assert rep["scalars"]["value_nats"] == "inf"


def test_invalid_distribution_exits_1(tmp_path, capsys):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.6])
    code = main(["divergence", "--spec", "kl", "--p", p, "--q", p])
    assert code == 1
    assert "invalid input" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["divergence", "--spec", "kl", "--p", "/nope", "--q", "/nope"])
    assert code == 1


def test_identity_check(tmp_path, capsys):
    p = write_dist(tmp_path, "p.json", [0, 1, 2], [0.2, 0.5, 0.3])
    q = write_dist(tmp_path, "q.json", [0, 1, 2], [0.4, 0.1, 0.5])
    code, rep = run_json(
        capsys,
        ["identity-check", "--which", "kl-chi2", "--p", p, "--q", q, "--lam", "0.7"],
    )
    assert code == 0
    assert rep["scalars"]["passed"] is True


def test_identity_check_recursive_json(tmp_path, capsys):
    # the report's pass flag is a numpy bool, which json cannot encode as is
    p = write_dist(tmp_path, "p.json", [0, 1, 2], [0.2, 0.5, 0.3])
    q = write_dist(tmp_path, "q.json", [0, 1, 2], [0.4, 0.1, 0.5])
    code, rep = run_json(
        capsys,
        ["identity-check", "--which", "recursive", "--p", p, "--q", q,
         "--k", "1", "--lam", "0.7"],
    )
    assert code == 0
    assert rep["scalars"]["passed"] is True


def test_moment_bound_zero_variance_json_null(capsys):
    code, rep = run_json(
        capsys,
        ["moment-bound", "--mp", "1", "--varp", "0", "--mq", "0", "--varq", "2"],
    )
    assert code == 0
    assert rep["scalars"]["bound_nats"] == pytest.approx(math.log1p(1 / 2))
    assert rep["scalars"]["gaussian_kl_nats"] is None
    assert rep["scalars"]["exponential_kl_nats"] is None


def test_moment_bound_with_attainment(capsys):
    code, rep = run_json(
        capsys,
        ["moment-bound", "--mp", "45", "--varp", "20",
         "--mq", "40", "--varq", "20", "--attain"],
    )
    assert code == 0
    assert rep["scalars"]["bound_nats"] == pytest.approx(0.521, abs=1e-3)
    assert "attaining_p" in rep["scalars"]


def test_inequalities_sweep(capsys):
    code, rep = run_json(capsys, ["inequalities", "--seed", "0", "--trials", "50"])
    assert code == 0
    for row in rep["rows"]:
        assert row["violations"] == 0


def test_inequalities_deterministic(capsys):
    _, rep1 = run_json(capsys, ["inequalities", "--seed", "7", "--trials", "25"])
    _, rep2 = run_json(capsys, ["inequalities", "--seed", "7", "--trials", "25"])
    assert rep1 == rep2


def test_contraction(tmp_path, capsys):
    w = write_channel(tmp_path, "w.json", [[0.9, 0.1], [0.1, 0.9]])
    qx = write_dist(tmp_path, "qx.json", [0, 1], [0.5, 0.5])
    code, rep = run_json(
        capsys,
        ["contraction", "--channel", w, "--input-law", qx,
         "--alpha", "1.0", "--family", "K", "--brute-budget", "500"],
    )
    assert code == 0
    assert rep["scalars"]["mu_chi2"] == pytest.approx(0.64, abs=1e-10)
    assert rep["scalars"]["brute_force_point"] <= 0.64


def test_contraction_zero_budget_exits_1(tmp_path, capsys):
    w = write_channel(tmp_path, "w.json", [[0.9, 0.1], [0.1, 0.9]])
    qx = write_dist(tmp_path, "qx.json", [0, 1], [0.5, 0.5])
    code = main(["contraction", "--channel", w, "--input-law", qx,
                 "--brute-budget", "0"])
    assert code == 1
    assert "invalid input" in capsys.readouterr().err


def test_contraction_one_input_pair_exits_1(tmp_path, capsys):
    w = write_channel(tmp_path, "w.json", [[0.3, 0.7]])
    qx = write_dist(tmp_path, "qx.json", [0], [1.0])
    code = main(["contraction", "--channel", w, "--input-law", qx,
                 "--brute-budget", "50"])
    err = capsys.readouterr().err
    assert code == 1
    assert "invalid input" in err and "Traceback" not in err


def test_contraction_checks_the_input_atoms_before_either_search(tmp_path, capsys,
                                                                monkeypatch):
    from divrel import contraction

    def never(*args, **kwargs):
        raise AssertionError("the channel sup ran")

    monkeypatch.setattr(contraction, "mu_chi2_channel", never)
    rows = [[0.5 + 0.05 * i, 0.5 - 0.05 * i] for i in range(7)]
    w = write_channel(tmp_path, "w.json", rows)
    qx = write_dist(tmp_path, "qx.json", list(range(7)), [1 / 7] * 7)
    code = main(["contraction", "--channel", w, "--input-law", qx])
    err = capsys.readouterr().err
    assert code == 1
    assert "invalid input" in err and "<= 6 atoms" in err


def test_nan_literal_in_input_exits_1(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"support": [0, 1], "mass": [NaN, 1.0]}')
    code = main(["divergence", "--spec", "kl", "--p", str(path), "--q", str(path)])
    assert code == 1
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_literals_in_files_exit_1(tmp_path, capsys, literal):
    # strict JSON has no NaN or Infinity, and 1e400 overflows a double
    p = tmp_path / "p.json"
    p.write_text(f'{{"support": [0, 1], "mass": [{literal}, 1.0]}}')
    w = tmp_path / "w.json"
    w.write_text(f'{{"rows": [[1.0, 0.0], [{literal}, 0.5]]}}')
    for argv in (["divergence", "--spec", "kl", "--p", str(p), "--q", str(p)],
                 ["mixing", "--chain", str(w), "--p0", str(p)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("invalid input:")
    u = write_dist(tmp_path, "u.json", [0, 1], [0.5, 0.5])
    assert main(["contraction", "--channel", str(w), "--input-law", u]) == 1
    assert capsys.readouterr().err.startswith("invalid input:")


@pytest.mark.parametrize("argv", [
    ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
     "--var-box", "18", "22", "--alphabet", "2.5", "--epsilon", "1e-10"],
    ["inequalities", "--trials", "x"],
    [],
    ["redundancy", "--lambdas", "16", "20", "--weights", "x"],
])
def test_malformed_command_lines_exit_1_with_usage(capsys, argv):
    # exit 2 is a numerical failure; argparse would use it for a typo
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: divrel") and "invalid input:" in err


def test_mixing(tmp_path, capsys):
    w = write_channel(tmp_path, "w.json", [[0.8, 0.2], [0.2, 0.8]])
    p0 = write_dist(tmp_path, "p0.json", [0, 1], [0.9, 0.1])
    code, rep = run_json(
        capsys,
        ["mixing", "--chain", w, "--p0", p0, "--alpha", "1.0", "--n-max", "5"],
    )
    assert code == 0
    assert len(rep["rows"]) == 5
    for row in rep["rows"]:
        assert row["k_alpha"] <= row["k_envelope"] + 1e-12


def test_mixing_negative_step_count_exits_1(tmp_path, capsys):
    w = write_channel(tmp_path, "w.json", [[0.8, 0.2], [0.2, 0.8]])
    p0 = write_dist(tmp_path, "p0.json", [0, 1], [0.9, 0.1])
    code = main(["mixing", "--chain", w, "--p0", p0, "--n-max", "-1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("invalid input:")


def test_mixing_non_reversible_exits_1(tmp_path, capsys):
    w = write_channel(
        tmp_path, "w.json",
        [[0.2, 0.8, 0.0], [0.0, 0.2, 0.8], [0.8, 0.0, 0.2]],
    )
    p0 = write_dist(tmp_path, "p0.json", [0, 1, 2], [0.4, 0.3, 0.3])
    code = main(["mixing", "--chain", w, "--p0", p0])
    assert code == 1


def test_redundancy(capsys):
    code, rep = run_json(
        capsys,
        ["redundancy", "--lambdas", "16", "20", "24", "28", "32",
         "--weights", "uniform"],
    )
    assert code == 0
    assert rep["scalars"]["sum_kl_upper_bits"] == pytest.approx(1.46, abs=0.01)
    assert rep["scalars"]["nu_upper_improved_pct"] == pytest.approx(57.0, abs=0.5)


def test_sample_size(capsys):
    code, rep = run_json(
        capsys,
        ["sample-size", "--mq", "40", "--varq", "20",
         "--mean-box", "43", "47", "--var-box", "18", "22",
         "--alphabet", "2", "--epsilon", "1e-10"],
    )
    assert code == 0
    assert rep["scalars"]["d_star_nats"] == pytest.approx(0.203, abs=1e-3)
    assert rep["scalars"]["n_star"] == 138


def test_set_divergence(tmp_path, capsys):
    mu = write_dist(tmp_path, "mu.json", [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    code, rep = run_json(
        capsys,
        ["set-divergence", "--spec", "kl", "--mu", mu, "--indices", "1", "3"],
    )
    assert code == 0
    assert rep["scalars"]["direct"] == pytest.approx(rep["scalars"]["closed_form"])


def test_table_and_csv_formats(tmp_path, capsys):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.5])
    assert main(["divergence", "--spec", "kl", "--p", p, "--q", p]) == 0
    out = capsys.readouterr().out
    assert "value_nats" in out
    assert main(["divergence", "--spec", "kl", "--p", p, "--q", p,
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("value_nats")


def test_json_round_trips(capsys):
    code, rep = run_json(
        capsys,
        ["moment-bound", "--mp", "1", "--varp", "2", "--mq", "0", "--varq", "1"],
    )
    assert code == 0
    assert json.loads(json.dumps(rep)) == rep


def test_identity_check_quadrature_failure_exits_2(tmp_path, capsys, monkeypatch):
    import divrel.identities
    from divrel.errors import MaxDepthExceeded

    def fail(*args, **kwargs):
        raise MaxDepthExceeded("quadrature did not converge: limit reached")

    monkeypatch.setattr(divrel.identities, "integrate", fail)
    p = write_dist(tmp_path, "p.json", [0, 1], [0.4, 0.6])
    q = write_dist(tmp_path, "q.json", [0, 1], [0.7, 0.3])
    code = main(["identity-check", "--which", "kl-chi2", "--p", p, "--q", q])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


def test_divergence_with_an_overflowing_ratio_exits_2(tmp_path, capsys):
    # Q / P overflows at the subnormal atom of P: the polylog sum is not finite
    p = write_dist(tmp_path, "p.json", [0, 1], [5e-324, 1.0])
    q = write_dist(tmp_path, "q.json", [0, 1], [0.1, 0.9])
    code = main(["divergence", "--spec", "polylog:2", "--p", q, "--q", p])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure:") and "overflows at atom 0" in err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_redundancy_non_finite_rate_exits_1(capsys, rate):
    code = main(["redundancy", "--lambdas", rate, "20"])
    assert code == 1
    assert capsys.readouterr().err.startswith("invalid input:")


def test_redundancy_near_equal_rates_print_non_negative_bounds(capsys):
    # the closed form lam_i ln(lam_i/lam_j) + lam_j - lam_i gave -3.47e-11 nats here
    code, rep = run_json(capsys, ["redundancy", "--lambdas", "999999.999", "1e6"])
    assert code == 0
    assert all(row["kl_upper_bits"] >= 0.0 for row in rep["rows"])
    assert rep["scalars"]["sum_kl_upper_bits"] >= 0.0


def test_redundancy_with_subnormal_masses_in_the_lower_tail(capsys):
    # both windows start at atom 0, where the masses are subnormal; the value
    # is an mpmath sum over the same windows (test_applications)
    code, rep = run_json(capsys, ["redundancy", "--lambdas", "5000", "5001"])
    assert code == 0
    assert rep["scalars"]["direct_sum_bits"] == pytest.approx(3.6062868231363639e-05, rel=1e-11)


def test_redundancy_of_equal_rates_with_subnormal_masses_is_zero(capsys):
    code, rep = run_json(capsys, ["redundancy", "--lambdas", "100000", "100000"])
    assert code == 0
    assert abs(rep["scalars"]["direct_sum_bits"]) <= 1e-15


def test_redundancy_rate_past_the_pmf_cap_exits_1(capsys):
    code = main(["redundancy", "--lambdas", "1e12"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("invalid input:") and "1e+06" in err
    assert "Traceback" not in err


def test_identity_check_infinite_sides_json(tmp_path, capsys):
    # chi^2(P||Q) = inf when Q lacks an atom of P; equal infinities agree exactly
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.5])
    q = write_dist(tmp_path, "q.json", [0, 1], [1.0, 0.0])
    code, rep = run_json(
        capsys, ["identity-check", "--which", "chi2-half", "--p", p, "--q", q],
    )
    assert code == 0
    s = rep["scalars"]
    assert s["lhs"] == s["rhs"] == "inf"
    assert s["abs_err"] == 0.0 and s["rel_err"] == 0.0
    assert s["passed"] is True


def test_identity_check_on_different_supports(tmp_path, capsys):
    # P lacks the atom 1 of Q: both are put on {0, 1, 2}
    p = write_dist(tmp_path, "p.json", [0, 2], [0.6, 0.4])
    padded = write_dist(tmp_path, "padded.json", [0, 1, 2], [0.6, 0.0, 0.4])
    q = write_dist(tmp_path, "q.json", [0, 1, 2], [0.2, 0.5, 0.3])
    argv = ["identity-check", "--which", "chi2-half", "--q", q, "--p"]
    code, rep = run_json(capsys, argv + [p])
    assert code == 0
    assert rep["scalars"]["passed"] is True
    assert rep["scalars"] == run_json(capsys, argv + [padded])[1]["scalars"]


@pytest.mark.parametrize("spec", [
    "kl:3", "js:0.5", "polylog:1e9", "polylog:1001", "polylog:1.5", "renyi:-1",
    "renyi", "gv:1.5", "skew_k:-0.1", "skew_s", "nonsense",
])
def test_rejected_specs_exit_1(tmp_path, capsys, spec):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.4, 0.6])
    for argv in (["divergence", "--spec", spec, "--p", p, "--q", p],
                 ["set-divergence", "--spec", spec, "--mu", p, "--indices", "0"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("invalid input:")


@pytest.mark.parametrize("spec", ["gv:0.3", "skew_k:0", "skew_s:0.25", "js", "polylog:3"])
def test_set_divergence_every_tag(tmp_path, capsys, spec):
    mu = write_dist(tmp_path, "mu.json", [0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4])
    code, rep = run_json(
        capsys,
        ["set-divergence", "--spec", spec, "--mu", mu, "--indices", "1", "3"],
    )
    assert code == 0
    assert rep["scalars"]["direct"] == pytest.approx(rep["scalars"]["closed_form"], rel=1e-12)


SAMPLE_SIZE = ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
               "--var-box", "18", "22", "--alphabet", "2", "--epsilon", "1e-10"]


@pytest.mark.parametrize("flag, values", [
    ("--mq", ["nan"]), ("--varq", ["inf"]), ("--mean-box", ["43", "inf"]),
    ("--var-box", ["18", "inf"]), ("--var-box", ["nan", "22"]), ("--alphabet", ["1"]),
    ("--varq", ["-1"]), ("--var-box", ["-1", "22"]),
])
def test_sample_size_bad_inputs_exit_1(capsys, flag, values):
    # the alphabet must be an integer >= 2; the parser itself refuses --alphabet 2.5
    argv = list(SAMPLE_SIZE)
    i = argv.index(flag)
    argv[i + 1:i + 1 + len(values)] = values
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and "divergence floor" not in err


def test_sample_size_lambert_failure_exits_2(capsys, monkeypatch):
    import divrel.applications

    monkeypatch.setattr(divrel.applications, "_HALLEY_STEPS", 0)
    code = main(list(SAMPLE_SIZE))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure:") and "budget 0 Halley steps" in err
    assert "Traceback" not in err


def test_sample_size_point_mass_reference(capsys):
    argv = list(SAMPLE_SIZE)
    argv[argv.index("--varq") + 1] = "0"
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["scalars"]["d_star_nats"] == "inf"
    assert rep["scalars"]["n_star"] == 1


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_inequalities_without_trials_exits_1(capsys, trials):
    assert main(["inequalities", "--trials", trials]) == 1
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--mp", "nan"), ("--varp", "inf"), ("--mq", "inf"), ("--varq", "nan"),
])
def test_moment_bound_non_finite_moments_exit_1(capsys, flag, value):
    argv = ["moment-bound", "--mp", "45", "--varp", "20", "--mq", "40", "--varq", "20"]
    argv[argv.index(flag) + 1] = value
    assert main(argv + ["--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:") and "finite" in captured.err


def test_moment_bound_point_mass_q_is_infinite(capsys):
    code, rep = run_json(
        capsys, ["moment-bound", "--mp", "43", "--varp", "22", "--mq", "40", "--varq", "0"])
    assert code == 0
    assert rep["scalars"]["bound_nats"] == "inf"


@pytest.mark.parametrize("which", ["gv", "kl-chi2", "skew-s", "recursive"])
def test_identity_check_at_the_end_with_infinite_sides(tmp_path, capsys, which):
    p = write_dist(tmp_path, "p.json", [0, 1], [0.5, 0.5])
    q = write_dist(tmp_path, "q.json", [0, 1], [1.0, 0.0])
    code, rep = run_json(capsys, ["identity-check", "--which", which, "--p", p, "--q", q,
                                  "--lam", "1", "--alpha", "1", "--k", "0"])
    assert code == 0
    s = rep["scalars"]
    assert s["lhs"] == s["rhs"] == "inf"
    assert s["passed"] is True


@pytest.mark.parametrize("name, text", [
    ("array.json", "[0.5, 0.5]"),
    ("field.json", '{"support": {"a": 1}, "mass": [1.0]}'),
    ("missing.json", '{"mass": [0.5, 0.5]}'),
])
def test_malformed_json_files_exit_1(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    u = write_dist(tmp_path, "u.json", [0, 1], [0.5, 0.5])
    for argv in (["divergence", "--spec", "kl", "--p", str(path), "--q", str(path)],
                 ["contraction", "--channel", str(path), "--input-law", u],
                 ["mixing", "--chain", str(path), "--p0", u]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and "Traceback" not in err


@pytest.fixture
def files(tmp_path):
    return {
        "p": write_dist(tmp_path, "p.json", [0, 1, 2], [0.2, 0.5, 0.3]),
        "q": write_dist(tmp_path, "q.json", [0, 1, 2], [0.4, 0.1, 0.5]),
        "u": write_dist(tmp_path, "u.json", [0, 1], [0.5, 0.5]),
        "w": write_channel(tmp_path, "w.json", [[0.9, 0.1], [0.1, 0.9]]),
    }


# subcommand -> (its arguments, "{p}" standing for the file p of `files`;
# every option of its parser but --format, in order; the parts it reports)
LAYOUTS = {
    "divergence": (["--spec", "kl", "--p", "{p}", "--q", "{q}"],
                   ["spec", "p", "q"], ["scalars"]),
    "identity-check": (["--which", "gv", "--p", "{p}", "--q", "{q}"],
                       ["which", "p", "q", "lam", "k", "alpha"], ["scalars"]),
    "moment-bound": (["--mp", "45", "--varp", "20", "--mq", "40", "--varq", "20"],
                     ["mp", "varp", "mq", "varq", "attain"], ["scalars"]),
    "inequalities": (["--trials", "5"], ["seed", "trials"], ["rows"]),
    "contraction": (["--channel", "{w}", "--input-law", "{u}", "--brute-budget", "50"],
                    ["channel", "input_law", "alpha", "family", "brute_budget"], ["scalars"]),
    "mixing": (["--chain", "{w}", "--p0", "{u}", "--n-max", "3"],
               ["chain", "p0", "alpha", "n_max"], ["scalars", "rows"]),
    "redundancy": (["--lambdas", "16", "20"], ["lambdas", "weights"], ["scalars", "rows"]),
    "sample-size": (SAMPLE_SIZE[1:],
                    ["mq", "varq", "mean_box", "var_box", "alphabet", "epsilon"], ["scalars"]),
    "set-divergence": (["--spec", "kl", "--mu", "{p}", "--indices", "1"],
                       ["spec", "mu", "indices"], ["scalars"]),
}


@pytest.mark.parametrize("command", LAYOUTS)
def test_report_layout(files, capsys, command):
    args, options, parts = LAYOUTS[command]
    argv = [command] + [a.format(**files) for a in args]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert list(rep) == ["command", "formula", "inputs", *parts]
    assert rep["command"] == command
    assert isinstance(rep["formula"], str) and rep["formula"]
    assert list(rep["inputs"]) == options
    # the table writes the same header: command, formula, then one line per input
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"command: {command}", f"formula: {rep['formula']}"]
    assert [line.split(":")[0].strip() for line in lines[2:2 + len(options)]] == options


def test_inputs_echo_the_parsed_values(files, capsys):
    code, rep = run_json(capsys, ["identity-check", "--which", "recursive", "--p", files["p"],
                                  "--q", files["q"], "--k", "2"])
    assert code == 0
    assert rep["inputs"] == {"which": "recursive", "p": files["p"], "q": files["q"],
                             "lam": 1.0, "k": 2, "alpha": 0.5}
    code, rep = run_json(capsys, ["moment-bound", "--mp", "45", "--varp", "20", "--mq", "40",
                                  "--varq", "20", "--attain"])
    assert rep["inputs"]["attain"] is True


def test_identity_check_formula_per_identity(files, capsys):
    formulas = set()
    for which in ("kl-chi2", "chi2-half", "gv", "recursive", "skew-s"):
        code, rep = run_json(capsys, ["identity-check", "--which", which,
                                      "--p", files["p"], "--q", files["q"]])
        assert code == 0 and rep["inputs"]["which"] == which
        formulas.add(rep["formula"])
    assert len(formulas) == 5


def test_redundancy_echoes_weights_as_numbers(capsys):
    code, rep = run_json(capsys, ["redundancy", "--lambdas", "16", "20", "--weights", "0.3", "0.7"])
    assert code == 0
    assert rep["inputs"]["weights"] == [0.3, 0.7]
    assert [row["weight"] for row in rep["rows"]] == [0.3, 0.7]
    code, rep = run_json(capsys, ["redundancy", "--lambdas", "16", "20"])
    assert rep["inputs"]["weights"] == ["uniform"]
    assert [row["weight"] for row in rep["rows"]] == [0.5, 0.5]
