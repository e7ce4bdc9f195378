"""divrel benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  cli-session    fresh-process CLI calls of a fixed, seeded script
  small-sweep    in-process paper experiments on pairs with 2..8 atoms
  large-support  in-process kernels on supports of 1e4 and 1e5 atoms

Every workload is a closed loop with one client: the next operation starts
when the previous one has ended. With --trace 0 the run reports the
end-to-end metrics. With --trace 1 it runs a fixed number of rounds, each
untraced and then traced, and reports per-layer numbers from the spans
plus the difference of the two as the tracing overhead.

An operation fails when it raises or exits non-zero, prints invalid JSON,
or its output check fails (see workloads.py); every failure counts in
"failed", and any failure that is not one of workloads.KNOWN_DEFECTS
makes "correct" false.

Times are scaled to a reference host speed, from calibrations timed in
the same process as the work (see hostspeed.py); raw values are printed
beside them. The run reads and writes only inside the checkout that holds
it; spans and scratch inputs go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from child import CALIBRATION

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = 1  # one process, one BLAS thread: the plain single-threaded baseline
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120
# fixed work of a traced run, so its counts repeat exactly for a seed
TRACE_ROUNDS = {"cli-session": 1, "small-sweep": 4, "large-support": 3}
# A measured run goes on past --seconds until it has this many rounds, so
# that op_tail_s, the 11th-slowest operation, falls inside one kind of
# operation and not on the edge between two: on small-sweep among the SKEW_K
# brute-force searches (two a round, behind one SKEW_S search), on
# large-support among the JSON round trips at n=1e5 (one a round, behind one
# f_k_divergence). A cli-session round is one pass of the script (14 calls,
# about 20 s); two passes put op_tail_s above the median.
MIN_ROUNDS = {"cli-session": 2, "small-sweep": 6, "large-support": 7}
FAILURE_KINDS = ("error", "invalid-output", "failed")


def pin_environment() -> dict:
    """Cap BLAS threads for this process and its children; record versions."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def source_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "divrel").glob("*.py")))


# -- one operation ----------------------------------------------------------

class Record:
    """One operation: kind, start, latency in seconds, failure or None, peak RSS."""

    __slots__ = ("kind", "start", "latency", "failure", "rss_mb")

    def __init__(self, kind, start, latency, failure=None, rss_mb=0.0):
        self.kind, self.start, self.latency = kind, start, latency
        self.failure, self.rss_mb = failure, rss_mb


def judge(check, result):
    """Run an output check; return None or (failure kind, message)."""
    import workloads

    try:
        check(result)
    except workloads.Failed as exc:
        return ("failed", str(exc))
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        return ("failed", f"unexpected result shape: {type(exc).__name__}: {exc}")
    return None


def execute(op) -> Record:
    kind, call, check = op
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed operation is counted, the run goes on
        return Record(kind, t0, time.perf_counter() - t0,
                      ("error", f"{type(exc).__name__}: {exc}"))
    latency = time.perf_counter() - t0
    return Record(kind, t0, latency, judge(check, result))


def spawn(cmd, workdir: Path, until_ready=False):
    """Run a child to completion, killed after CHILD_TIMEOUT_S.

    Returns (seconds, exit code, stdout, stderr, peak RSS MiB). The seconds
    run to the child's exit or, with until_ready, to its first stdout line.
    """
    with open(workdir / ".stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline() if until_ready else b""
            ready = time.perf_counter() - t0
            out = first + proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            done = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return (ready if until_ready else done, proc.returncode,
                out.decode(errors="replace"), err.read().decode(errors="replace"),
                usage.ru_maxrss / 1024)


def calibration_in(text: str) -> tuple[float, float] | None:
    """The calibration a child printed, as (median, seconds spent calibrating),
    or None if it ended before printing one."""
    for line in text.splitlines():
        if line.startswith(CALIBRATION):
            return float(line.split()[1]), float(line.split()[2])
    return None


def execute_cli(call, workdir: Path, speed, spans: str = "-") -> Record:
    """Run one CLI call in a fresh process; add the child's calibration to speed."""
    import workloads

    kind, argv, check = call
    cmd = [sys.executable, str(HERE / "child.py"), "cli", spans] + argv
    start = time.perf_counter()
    latency, code, out, err, rss = spawn(cmd, workdir)
    cal = calibration_in(err)
    if cal is not None:  # the child calibrated after the call: not part of it
        latency -= cal[1]
        speed.add(start + latency, cal[0])
    failure = None
    if code != 0:
        text = " ".join(ln.strip() for ln in err.splitlines()
                        if ln.strip() and not ln.startswith(CALIBRATION))
        failure = ("error", f"exit {code}: {text[-500:]}")
    else:
        try:
            report = workloads.strict_json(out)
        except ValueError as exc:
            failure = ("invalid-output", str(exc))
        else:
            failure = judge(check, report)
    return Record(kind, start, latency, failure, rss)


# -- set-up -----------------------------------------------------------------

def parse_importtime(text: str) -> dict:
    """Cumulative import of divrel and divrel.applications, and the summed
    self time of every scipy module, from ``-X importtime`` output."""
    cumulative, scipy_us = {}, 0
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        name = fields[2].strip()
        cumulative[name] = cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return {
        "import.divrel_s": cumulative.get("divrel", 0) / 1e6,
        "import.applications_s": cumulative.get("divrel.applications", 0) / 1e6,
        "import.scipy_s": scipy_us / 1e6,
    }


def measure_setup(workload: str, seed: int, trace: bool):
    """Time fresh interpreters from start to ready: import divrel, build inputs.
    On a traced run the probes also give the import figures."""
    times, imports, speed = [], [], hostspeed.HostSpeed()
    for i in range(SETUP_PROBES):
        workdir = OUT / f"probe-{os.getpid()}-{i}"
        workdir.mkdir(parents=True)
        try:
            cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
            cmd += [str(HERE / "child.py"), "probe", workload, str(seed), str(workdir)]
            t0 = time.perf_counter()
            ready, code, out, err, _ = spawn(cmd, workdir, until_ready=True)
            if code != 0 or not out.startswith("ready\n"):
                raise RuntimeError(f"set-up probe failed (exit {code}): {err[-2000:]}")
            speed.add(t0 + ready, calibration_in(out)[0])
            times.append((t0, ready))
            if trace:
                imports.append(parse_importtime(err))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return times, imports, speed


# -- workloads ----------------------------------------------------------------

def run_in_process(workload, seed, seconds, trace):
    import tracing
    import workloads

    make_pool, make_round = workloads.IN_PROCESS[workload]
    pool = make_pool(seed)

    def rounds(r):
        return make_round(pool[r % len(pool)], r)

    warm = [execute(op) for op in rounds(0)]  # lazy imports and first-call set-up
    if not trace:
        measured, r, speed = [], 0, hostspeed.HostSpeed()
        deadline = time.perf_counter() + seconds
        while True:  # whole rounds, so every run has the same operation mix
            records = []
            for op in rounds(r):
                speed.tick()
                records.append(execute(op))
            measured.append(records)
            r += 1
            if time.perf_counter() >= deadline and r >= MIN_ROUNDS[workload]:
                break
        speed.sample()
        return {"warm": warm, "measured": measured, "speed": speed}
    # each round runs untraced and then traced, so drift in the machine's
    # speed falls on both sides of the overhead alike
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for r in range(TRACE_ROUNDS[workload]):
        untraced += [execute(op) for op in rounds(r)]
        tracer.install()
        try:
            for op in rounds(r):
                tracer.op_id = len(traced)
                traced.append(execute(op))
        finally:
            tracer.uninstall()
    return {"warm": warm, "untraced": untraced, "traced": traced,
            "spans": tracer.arrays()}


def run_cli_session(seed, seconds, trace):
    import numpy as np

    import tracing
    import workloads

    workdir = OUT / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        passes = workloads.cli_pool(seed, workdir)
        speed = hostspeed.HostSpeed()
        if not trace:
            # whole passes, so every run has the same call mix
            measured = []
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or len(measured) < MIN_ROUNDS["cli-session"]:
                calls = passes[len(measured) % len(passes)]
                measured.append([execute_cli(call, workdir, speed) for call in calls])
            return {"warm": [], "measured": measured, "speed": speed}
        untraced, traced, logs = [], [], []
        for r in range(TRACE_ROUNDS["cli-session"]):
            for call in passes[r]:
                untraced.append(execute_cli(call, workdir, speed))
                spans = workdir / f"spans-{len(traced)}.npz"
                traced.append(execute_cli(call, workdir, speed, str(spans)))
                if spans.exists():
                    with np.load(spans) as f:
                        log = {k: f[k] for k in f.files}
                    log["op"][:] = len(traced) - 1
                    logs.append(log)
        return {"warm": [], "untraced": untraced, "traced": traced,
                "spans": tracing.merge(logs)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- report -------------------------------------------------------------------

def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    lat = sorted(latencies)
    if len(lat) <= 10:
        return lat[-1], 100.0
    return lat[-11], 100.0 * (len(lat) - 10) / len(lat)


def failure_summary(records, known) -> list[str]:
    lines, seen = [], set()
    counts = {k: sum(1 for r in records if r.failure and r.failure[0] == k)
              for k in FAILURE_KINDS}
    unknown = sum(1 for r in records if r.failure and not known(r))
    lines.append("failures by kind: " + ", ".join(f"{k}={v}" for k, v in counts.items())
                 + f"; not a known defect: {unknown}")
    for rec in records:
        if rec.failure and (rec.kind, rec.failure[0], known(rec)) not in seen:
            seen.add((rec.kind, rec.failure[0], known(rec)))
            tag = "known defect" if known(rec) else "NOT A KNOWN DEFECT"
            msg = rec.failure[1]  # its end names the exception of a crashed child
            msg = msg if len(msg) <= 300 else "..." + msg[-297:]
            lines.append(f"  {rec.kind} [{rec.failure[0]}, {tag}] {msg}")
    return lines


def kind_summary(records) -> list[str]:
    kinds = {}
    for rec in records:
        kinds.setdefault(rec.kind, []).append(rec.latency)
    return [f"  {kind:16s} n={len(lat):5d} median={statistics.median(lat):.6f} s "
            f"max={max(lat):.6f} s total={sum(lat):.3f} s" for kind, lat in kinds.items()]


def end_to_end(result, setup_times, setup_speed, workload):
    """Rows of (metric, value, samples, note). Times are scaled to the
    reference host speed (see hostspeed.py); the notes give raw values."""
    rounds = result["measured"]
    measured = [rec for rnd in rounds for rec in rnd]
    everything = result["warm"] + measured
    speed = result["speed"]

    def timings(latency):
        lat = [latency(r) for r in measured]
        # the median round's throughput is robust to a slow spell of the host
        throughput = statistics.median(
            len(rnd) / sum(latency(r) for r in rnd) for rnd in rounds)
        return throughput, statistics.median(lat), tail(lat)

    raw = timings(lambda r: r.latency)
    ops, p50, (tail_s, tail_pct) = timings(lambda r: speed.scale(r.start, r.latency))
    setup = [setup_speed.scale(start, ready) for start, ready in setup_times]
    how = f"scaled to reference host speed ({len(speed.durations)} calibrations); raw "
    failed = sum(1 for r in everything if r.failure)
    if workload == "cli-session":
        rss = max(r.rss_mb for r in measured)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(measured)
    rows = [
        ("setup_s", statistics.median(setup), len(setup),
         "median fresh interpreter, start to import divrel + inputs built; scaled: "
         + " ".join(f"{t:.3f}" for t in setup) + "; raw: "
         + " ".join(f"{ready:.3f}" for _, ready in setup_times)),
        ("ops_per_s", ops, len(rounds),
         f"median over rounds of operations / summed operation time; {how}{raw[0]:.4f}"),
        ("op_p50_s", p50, n, f"median operation latency; {how}{raw[1]:.6f}"),
        ("op_tail_s", tail_s, n,
         f"p{tail_pct:.2f}, the highest percentile with >= 10 samples beyond; {how}"
         f"{raw[2][0]:.6f}"),
        ("fail_ratio", failed / len(everything), len(everything),
         f"{failed} failed of {len(everything)} attempted (printed only; JSON carries "
         "success_ratio, which is never 0)"),
        ("success_ratio", 1 - failed / len(everything), len(everything), "1 - fail_ratio"),
        ("peak_rss_mb", rss, n if workload == "cli-session" else 1,
         "largest CLI child" if workload == "cli-session" else "this process"),
    ]
    return rows, everything, failed


def per_layer(result, imports):
    import tracing

    m = tracing.layer_metrics(result["spans"])
    for key in ("import.divrel_s", "import.applications_s", "import.scipy_s"):
        m[key] = statistics.median(d[key] for d in imports)
    untraced = sum(r.latency for r in result["untraced"])
    traced = sum(r.latency for r in result["traced"])
    m["trace.untraced_s"] = untraced
    m["trace.traced_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    m["source.divrel_lines"] = source_lines()
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "divrel" / "__init__.py").is_file():
        print(f"error: no divrel sources under {SRC}", file=sys.stderr)
        return 2
    # workload and metric names, with their units, are those BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    env = pin_environment()
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)

    setup_times, imports, setup_speed = measure_setup(args.workload, args.seed, trace)
    if args.workload == "cli-session":
        result = run_cli_session(args.seed, args.seconds, trace)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, trace)

    print(f"divrel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"loop: closed, one client, "
          f"{'one fresh process per call' if args.workload == 'cli-session' else 'in process'}")
    print(f"source: src/divrel has {source_lines()} lines (informational, not gated)")
    if not trace:
        rows, everything, failed = end_to_end(result, setup_times, setup_speed, args.workload)
        print(f"{'metric':16s} {'value':>14s} {'unit':6s} {'samples':>7s}  note")
        for name, value, samples, note in rows:
            unit = e2e_units.get(name, "ratio")
            print(f"{name:16s} {value:14.6g} {unit:6s} {samples:7d}  {note}")
        metrics = {name: {"value": value, "unit": e2e_units[name]}
                   for name, value, _, _ in rows if name in e2e_units}
        print("operations by kind:")
        for line in kind_summary([rec for rnd in result["measured"] for rec in rnd]):
            print(line)
    else:
        everything = result["warm"] + result["untraced"] + result["traced"]
        failed = sum(1 for r in everything if r.failure)
        layer = per_layer(result, imports)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        import numpy as np

        np.savez_compressed(spans_file, **result["spans"])
        print(f"traced {len(result['traced'])} operations ({layer['spans']} spans, written to "
              f"{spans_file.relative_to(ROOT)}); untraced {layer['trace.untraced_s']:.4f} s, "
              f"traced {layer['trace.traced_s']:.4f} s, "
              f"overhead {layer['trace.overhead_s']:.4f} s on the same operations")
        print(f"divergence kernels timed at n={layer['divergences.n_max']}; bytes are "
              "computed from array sizes (16 B per atom per call), not measured")
        for name, unit in layer_units.items():
            print(f"{name:34s} {layer[name]:14.6g} {unit}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in layer_units.items()}
    import workloads

    def known(rec):
        return workloads.known_defect(args.workload, rec.kind, rec.failure)

    for line in failure_summary(everything, known):
        print(line)
    correct = all(known(r) for r in everything if r.failure)
    print(json.dumps({"correct": correct, "attempted": len(everything), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
