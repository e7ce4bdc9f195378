"""Import cost: ``import divrel`` loads numpy and no scipy, each CLI
subcommand loads only the scipy module it calls, and no code of divrel
uses scipy.integrate.

Every case runs in a fresh interpreter, since the test process itself has
scipy loaded already.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Imports divrel and divrel.cli, then runs the given CLI calls one after
# another in one interpreter; prints the scipy modules loaded after each step.
SCRIPT = r"""
import json, pathlib, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

workdir = pathlib.Path(sys.argv[1])
(workdir / "p.json").write_text(json.dumps({"support": [0, 1], "mass": [0.4, 0.6]}))
(workdir / "q.json").write_text(json.dumps({"support": [0, 1], "mass": [0.7, 0.3]}))
(workdir / "v.json").write_text(json.dumps({"support": [0, 1], "mass": [0.9, 0.1]}))
(workdir / "w.json").write_text(json.dumps({"rows": [[0.9, 0.1], [0.2, 0.8]]}))
import divrel
steps = [scipy_modules()]
import divrel.cli
steps.append(scipy_modules())
for argv in json.loads(sys.argv[2]):
    code = divrel.cli.main([a.format(d=workdir) for a in argv] + ["--format", "json"])
    assert code == 0, (argv, code)
    steps.append(scipy_modules())
print(json.dumps(steps), file=sys.stderr)
"""


def loaded_after(tmp_path, calls):
    """Sets of scipy modules loaded after each step, in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(step) for step in json.loads(proc.stderr.splitlines()[-1])]


NUMPY_ONLY = [
    ["divergence", "--spec", "kl", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["moment-bound", "--mp", "45", "--varp", "20", "--mq", "40", "--varq", "20"],
    ["set-divergence", "--spec", "kl", "--mu", "{d}/p.json", "--indices", "0"],
    ["inequalities", "--trials", "5"],
    ["mixing", "--chain", "{d}/w.json", "--p0", "{d}/p.json", "--n-max", "3"],
    ["identity-check", "--which", "kl-chi2", "--p", "{d}/p.json", "--q", "{d}/q.json"],
]

# each call runs after the ones above it in the same interpreter, so its step
# shows the scipy modules it adds; the polylog kernels see the likelihood
# ratios 0.6/0.3 = 2 (Li_k at -1) and 0.6/0.1 = 6 (the inversion formula)
WITH_SCIPY = [
    ["divergence", "--spec", "polylog:2", "--p", "{d}/p.json", "--q", "{d}/q.json"],
    ["divergence", "--spec", "polylog:3", "--p", "{d}/p.json", "--q", "{d}/v.json"],
    ["redundancy", "--lambdas", "2", "3"],
    ["identity-check", "--which", "recursive", "--k", "2", "--p", "{d}/p.json",
     "--q", "{d}/q.json"],
    ["sample-size", "--mq", "40", "--varq", "20", "--mean-box", "43", "47",
     "--var-box", "18", "22", "--alphabet", "2", "--epsilon", "1e-10"],
    ["contraction", "--channel", "{d}/w.json", "--input-law", "{d}/p.json",
     "--brute-budget", "20"],
]


def test_import_and_numpy_only_subcommands_load_no_scipy(tmp_path):
    assert loaded_after(tmp_path, NUMPY_ONLY) == [set()] * (2 + len(NUMPY_ONLY))


def test_subcommands_load_only_the_scipy_they_call(tmp_path):
    steps = loaded_after(tmp_path, WITH_SCIPY)
    assert steps[1] == set()
    polylog, inversion, redundancy, recursive, sample_size, contraction = steps[2:]
    assert "scipy.special" in polylog
    assert not {"scipy.optimize", "scipy.integrate"} & polylog
    # the later calls add nothing to scipy.special
    assert inversion == redundancy == recursive == polylog
    assert "scipy.optimize" in sample_size
    assert "scipy.integrate" not in contraction
    for loaded in steps:
        # scipy.optimize imports scipy.sparse itself; divrel uses neither
        # scipy.stats nor the csgraph routines
        assert "scipy.stats" not in loaded
        assert "scipy.sparse.csgraph" not in loaded


def test_no_module_of_divrel_names_scipy_integrate():
    for path in (SRC / "divrel").glob("*.py"):
        assert "scipy.integrate" not in path.read_text(), path.name
