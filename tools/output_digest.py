"""Digest of every result the benchmark workloads produce, so that two trees
can be shown to give bit-identical outputs.

    python3 tools/output_digest.py TREE OUT

TREE is a checkout of this repository. The script puts TREE/src first on the
path, imports TREE/perfbench/workloads.py without changing it, and at seeds
4242, 101 and 5005 runs

- every operation of every pool entry of small-sweep and large-support, in
  order, in this process;
- every cli-session call in json, table and csv, one fresh process each.

It writes one JSON line per result to OUT: where it came from, then the
result with every float as hex (an array of more than 16 entries as its
shape, dtype and the SHA-256 of its bytes), or the class and message of what
it raised; a CLI call as its exit code, stdout and stderr. It prints the
number of entries, how many of them raised or exited nonzero, and the
SHA-256 of OUT. Equal digests of two trees mean every result is
bit-identical. BLAS is pinned to one thread, so that no value rounds by the
thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# set before numpy loads BLAS, and inherited by the CLI processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SEEDS = (4242, 101, 5005)
FORMATS = ("json", "table", "csv")
IN_PROCESS = ("small-sweep", "large-support")
# arrays up to this size are written out, larger ones as a hash of their bytes
SMALL_ARRAY = 16
# CLI calls run at most this many processes at once
WORKERS = 2


def canonical(x):
    """x as JSON data that keeps every bit: floats as hex."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (int, np.integer)):
        return int(x)
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, np.ndarray):
        if x.size <= SMALL_ARRAY:
            return {"shape": list(x.shape), "values": canonical(x.ravel().tolist())}
        return {"shape": list(x.shape), "dtype": str(x.dtype),
                "sha256": hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()}
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, BaseException):
        return {"raised": type(x).__name__, "message": str(x)}
    if dataclasses.is_dataclass(x):
        return {"type": type(x).__name__,
                **{f.name: canonical(getattr(x, f.name)) for f in dataclasses.fields(x)}}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def raised(x) -> bool:
    """Whether the canonical result x holds a raised exception anywhere."""
    if isinstance(x, dict):
        return "raised" in x or any(raised(v) for v in x.values())
    return isinstance(x, list) and any(raised(v) for v in x)


def in_process_results(workloads, name: str, seed: int):
    make_pool, make_round = workloads.IN_PROCESS[name]
    for r, inp in enumerate(make_pool(seed)):
        for i, (kind, call, _) in enumerate(make_round(inp, r)):
            try:
                result = call()
            except Exception as exc:  # noqa: BLE001  (the failure is the result)
                result = exc
            yield {"workload": name, "seed": seed, "round": r, "op": i, "kind": kind,
                   "result": canonical(result)}


def cli_results(workloads, src: Path, seed: int):
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        calls = [(r, i, fmt, kind, argv[:-1] + [fmt])
                 for r, script in enumerate(workloads.cli_pool(seed, workdir))
                 for i, (kind, argv, _) in enumerate(script)
                 for fmt in FORMATS]

        def run(call):
            proc = subprocess.run([sys.executable, "-m", "divrel.cli", *call[-1]], cwd=workdir,
                                  env=env, capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        with ThreadPoolExecutor(WORKERS) as pool:
            outputs = list(pool.map(run, calls))
    for (r, i, fmt, kind, argv), (code, out, err) in zip(calls, outputs):
        yield {"workload": "cli-session", "seed": seed, "round": r, "op": i, "kind": kind,
               "format": fmt, "argv": argv,
               "result": {"exit": code, "stdout": out, "stderr": err}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose outputs to digest")
    parser.add_argument("out", type=Path, help="file for the results, one JSON line each")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    count = failed = 0
    with open(args.out, "w") as fh:
        for seed in SEEDS:
            runs = [in_process_results(workloads, name, seed) for name in IN_PROCESS]
            runs.append(cli_results(workloads, tree / "src", seed))
            for entries in runs:
                for entry in entries:
                    fh.write(json.dumps(entry) + "\n")
                    count += 1
                    result = entry["result"]
                    failed += (result["exit"] != 0 if entry["workload"] == "cli-session"
                               else raised(result))
    digest = hashlib.sha256(args.out.read_bytes()).hexdigest()
    print(f"{count} entries, {failed} raised or exited nonzero, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
