"""Import cost: ``import divrel`` loads no submodule and each CLI subcommand
only the divrel modules it runs; ``import divrel`` and every subcommand load
numpy and no scipy, only the subcommands that read a file load orjson, and
no code of divrel names scipy.

Every case runs in a fresh interpreter, since the test process itself has
scipy and every module of divrel loaded already.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Imports divrel and divrel.cli, then runs the given CLI calls one after
# another in one interpreter; prints the modules of the given package loaded
# after each step.
SCRIPT = r"""
import json, pathlib, sys

def package_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == sys.argv[3])

workdir = pathlib.Path(sys.argv[1])
(workdir / "p.json").write_text(json.dumps({"support": [0, 1], "mass": [0.4, 0.6]}))
(workdir / "q.json").write_text(json.dumps({"support": [0, 1], "mass": [0.7, 0.3]}))
(workdir / "v.json").write_text(json.dumps({"support": [0, 1], "mass": [0.9, 0.1]}))
(workdir / "w.json").write_text(json.dumps({"rows": [[0.9, 0.1], [0.2, 0.8]]}))
import divrel
steps = [package_modules()]
import divrel.cli
steps.append(package_modules())
for argv in json.loads(sys.argv[2]):
    code = divrel.cli.main([a.format(d=workdir) for a in argv] + ["--format", "json"])
    assert code == 0, (argv, code)
    steps.append(package_modules())
print(json.dumps(steps), file=sys.stderr)
"""


def run_fresh(*args) -> str:
    """The stderr of a fresh interpreter run with the given arguments; it
    must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def loaded_after(tmp_path, calls, package="scipy"):
    """Sets of the package's modules loaded after each step, in one fresh
    interpreter."""
    err = run_fresh("-c", SCRIPT, str(tmp_path), json.dumps(calls), package)
    return [set(step) for step in json.loads(err.splitlines()[-1])]


# the divrel modules that `import divrel.cli` loads, and those that each
# subcommand adds to them (the contraction module imports identities and
# inequalities; applications imports inequalities and moment_bounds)
CLI_MODULES = {"divrel", "divrel.cli", "divrel.distributions", "divrel.divergences",
               "divrel.errors"}
SUBCOMMAND_MODULES = {
    "divergence": (
        ["divergence", "--spec", "kl", "--p", "{d}/p.json", "--q", "{d}/q.json"], ()),
    "identity-check": (
        ["identity-check", "--which", "skew-s", "--p", "{d}/p.json", "--q", "{d}/q.json"],
        ("identities",)),
    "moment-bound": (
        ["moment-bound", "--mp", "45", "--varp", "20", "--mq", "40", "--varq", "20"],
        ("moment_bounds",)),
    "inequalities": (["inequalities", "--trials", "5"], ("inequalities",)),
    "set-divergence": (
        ["set-divergence", "--spec", "kl", "--mu", "{d}/p.json", "--indices", "0"],
        ("inequalities",)),
    "contraction": (
        ["contraction", "--channel", "{d}/w.json", "--input-law", "{d}/p.json",
         "--brute-budget", "20"],
        ("contraction", "identities", "inequalities")),
    "mixing": (
        ["mixing", "--chain", "{d}/w.json", "--p0", "{d}/p.json", "--n-max", "3"],
        ("contraction", "identities", "inequalities")),
    "redundancy": (
        ["redundancy", "--lambdas", "2", "3"],
        ("applications", "inequalities", "moment_bounds")),
    "sample-size": (
        ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
         "--var-box", "18", "22", "--alphabet", "2", "--epsilon", "1e-10"],
        ("applications", "inequalities", "moment_bounds")),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_each_subcommand_loads_only_the_divrel_modules_it_runs(tmp_path, command):
    argv, own = SUBCOMMAND_MODULES[command]
    steps = loaded_after(tmp_path, [argv], package="divrel")
    assert steps == [{"divrel"}, CLI_MODULES, CLI_MODULES | {f"divrel.{m}" for m in own}]


def test_submodule_names_resolve_before_any_other_import():
    run_fresh("-c", """
import sys
import divrel
assert divrel.contraction.check_skew_s_integral is divrel.identities.check_skew_s_integral
assert issubclass(divrel.errors.MaxDepthExceeded, divrel.errors.DivrelError)
assert "divrel.applications" not in sys.modules
""")


def test_first_public_name_binds_the_whole_api():
    run_fresh("-c", """
import importlib
from divrel import kl
import divrel
assert divrel.kl is kl is divrel.divergences.kl
for module, names in divrel._API.items():
    mod = importlib.import_module(f"divrel.{module}")
    assert all(vars(divrel)[name] is getattr(mod, name) for name in names), module
""")


def test_every_identity_check_and_g_alpha_resolve_on_the_package():
    run_fresh("-c", """
import divrel
import divrel.identities as ids
names = [n for n in vars(ids) if n.startswith("check_")] + ["g_alpha"]
assert len(names) == 6, names
assert all(getattr(divrel, n) is getattr(ids, n) for n in names), names
assert {"check_skew_s_integral", "g_alpha"} <= set(divrel.__all__)
""")


def test_dir_lists_the_api_and_loads_nothing():
    run_fresh("-c", """
import sys
import divrel
listed = dir(divrel)
assert set(divrel.__all__) <= set(listed) and {"contraction", "errors"} <= set(listed)
assert [m for m in sys.modules if m.startswith("divrel.")] == []
try:
    divrel.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
""")


# the polylog kernels see the likelihood ratios 0.6/0.3 = 2 (Li_k at -1)
# and 0.6/0.1 = 6 (the inversion formula); set-divergence's mu_C has the
# ratio 1/0.4 = 2.5 on C
NUMPY_ONLY = [
    ["divergence", "--spec", "kl", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["divergence", "--spec", "polylog:2", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["divergence", "--spec", "polylog:3", "--p", "{d}/p.json", "--q", "{d}/v.json"],
    ["moment-bound", "--mp", "45", "--varp", "20", "--mq", "40", "--varq", "20"],
    ["set-divergence", "--spec", "kl", "--mu", "{d}/p.json", "--indices", "0"],
    ["set-divergence", "--spec", "polylog:3", "--mu", "{d}/p.json", "--indices", "0"],
    ["inequalities", "--trials", "5"],
    ["mixing", "--chain", "{d}/w.json", "--p0", "{d}/p.json", "--n-max", "3"],
    ["identity-check", "--which", "kl-chi2", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["identity-check", "--which", "skew-s", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["identity-check", "--which", "gv", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["identity-check", "--which", "chi2-half", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["identity-check", "--which", "recursive", "--k", "2", "--p", "{d}/p.json",
     "--q", "{d}/q.json"],
    ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
     "--var-box", "18", "22", "--alphabet", "2", "--epsilon", "1e-10"],
    ["contraction", "--channel", "{d}/w.json", "--input-law", "{d}/p.json",
     "--brute-budget", "20"],
    ["redundancy", "--lambdas", "2", "3"],
]


def test_import_and_numpy_only_subcommands_load_no_scipy(tmp_path):
    assert loaded_after(tmp_path, NUMPY_ONLY) == [set()] * (2 + len(NUMPY_ONLY))


# the calls that need zeta or the Poisson law, run first in a fresh
# interpreter, so that no earlier call could have loaded a module for them
ZETA_AND_POISSON = [
    ["divergence", "--spec", "polylog:2", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["divergence", "--spec", "polylog:3", "--p", "{d}/p.json", "--q", "{d}/v.json"],
    ["redundancy", "--lambdas", "2", "3"],
    ["identity-check", "--which", "recursive", "--k", "2", "--p", "{d}/p.json",
     "--q", "{d}/q.json"],
]


def test_subcommands_load_only_the_scipy_they_call(tmp_path):
    # zeta and the Poisson pmf and tail are divrel's own: they call no scipy
    steps = loaded_after(tmp_path, ZETA_AND_POISSON)
    assert steps == [set()] * (2 + len(ZETA_AND_POISSON))


def test_set_divergence_polylog_loads_scipy_special_only(tmp_path):
    # mu_C has likelihood ratio 1/0.4 = 2.5 on C: the inversion formula,
    # whose zeta values load no scipy, not even scipy.special
    steps = loaded_after(tmp_path, [["set-divergence", "--spec", "polylog:3",
                                     "--mu", "{d}/p.json", "--indices", "0"]])
    assert steps == [set()] * 3


# the subcommands that read no file; moment-bound --attain writes a law
NO_FILE = [
    ["moment-bound", "--mp", "45", "--varp", "20", "--mq", "40", "--varq", "20", "--attain"],
    ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
     "--var-box", "18", "22", "--alphabet", "2", "--epsilon", "1e-10"],
    ["redundancy", "--lambdas", "2", "3"],
    ["inequalities", "--trials", "5"],
]


def test_only_subcommands_that_read_a_file_load_orjson(tmp_path):
    reads = ["divergence", "--spec", "kl", "--p", "{d}/p.json", "--q", "{d}/q.json"]
    steps = loaded_after(tmp_path, NO_FILE + [reads], package="orjson")
    assert steps[:-1] == [set()] * (2 + len(NO_FILE))
    assert "orjson" in steps[-1]


def test_no_subcommand_loads_numpy_ma(tmp_path):
    # numpy.ma costs a fresh call about 10 ms; np.unique's masked-array check loads it
    calls = [argv for argv, _ in SUBCOMMAND_MODULES.values()]
    steps = loaded_after(tmp_path, calls, package="numpy")
    assert all("numpy.ma" not in step for step in steps)


def test_no_module_of_divrel_names_scipy():
    for path in (SRC / "divrel").glob("*.py"):
        assert "scipy" not in path.read_text(), path.name


def test_no_module_of_divrel_names_scipy_integrate():
    for path in (SRC / "divrel").glob("*.py"):
        assert "scipy.integrate" not in path.read_text(), path.name


def test_no_module_of_divrel_names_scipy_optimize():
    for path in (SRC / "divrel").glob("*.py"):
        assert "scipy.optimize" not in path.read_text(), path.name
