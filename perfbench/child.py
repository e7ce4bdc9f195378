"""Fresh-interpreter children that the benchmark launches.

    python3 perfbench/child.py probe WORKLOAD SEED WORKDIR
        import divrel, build the workload's inputs, print "ready".
    python3 perfbench/child.py cli SPANS DIVREL_ARGS...
        run one divrel CLI call as the console script does. With SPANS
        other than "-", wrap divrel's public functions first and write
        the recorded spans to that file when the call ends.

Both then time hostspeed.calibration_work CALIBRATIONS times and print,
after the CALIBRATION marker, the median and the seconds all of them took:
the probe on stdout, the CLI call on stderr. A child's times are scaled by
this one figure, so it is a median.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CALIBRATION = "perfbench-calibration-s:"
CALIBRATIONS = 5


def probe(workload: str, seed: int, workdir: str) -> int:
    import divrel  # noqa: F401  (the import is what set-up pays for)
    import pathlib

    import workloads

    workloads.build_inputs(workload, seed, pathlib.Path(workdir))
    print("ready", flush=True)
    report_calibration(sys.stdout)
    return 0


def cli(spans: str, argv: list[str]) -> int:
    import divrel.cli

    try:
        if spans == "-":
            return divrel.cli.main(argv)
        return traced_cli(spans, argv)
    finally:
        report_calibration(sys.stderr)


def report_calibration(stream) -> None:
    import time

    import hostspeed

    t0 = time.perf_counter()
    median = hostspeed.calibrate(CALIBRATIONS)
    print(CALIBRATION, repr(median), repr(time.perf_counter() - t0), file=stream, flush=True)


def traced_cli(spans: str, argv: list[str]) -> int:
    import divrel.cli
    import numpy as np

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        return divrel.cli.main(argv)
    finally:
        tracer.uninstall()
        np.savez(spans, **tracer.arrays())


def main() -> int:
    sys.path.insert(0, SRC)
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        return probe(args[0], int(args[1]), args[2])
    if mode == "cli":
        return cli(args[0], args[1:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
