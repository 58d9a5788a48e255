"""One phase of one workload, in a process of its own; prints a JSON result line.

    python3 benchmark/worker.py setup   --workload NAME --seed N --dir DIR [--trace SPANS]
    python3 benchmark/worker.py measure --workload NAME --seed N --dir DIR --seconds S [--trace SPANS]

``setup`` builds the workload's inputs in DIR/setup-<i>, several times, and
keeps the last copy.  ``measure`` runs passes over the workload's commands in
that copy until S seconds have passed.  run.py starts both; a traced phase runs in its
own process so the wrappers never reach an untraced timing.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layerfuse  # noqa: E402
import layerfuse.cli  # noqa: E402
import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, command_argv, write_spec  # noqa: E402

# A set-up runs at least this often, and more while cheap, for a steady median.
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 3.0
MEASURE_MIN_PASSES = 3


class Runner:
    """Runs CLI commands in-process, timing each and counting failures."""

    def __init__(self, tracer):
        self.main = tracer.wrap("cli", layerfuse.cli.main) if tracer else layerfuse.cli.main
        self.attempted = 0
        self.failures = []

    def run(self, argv):
        """Run one command; returns (exit code, stdout, seconds)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.main(argv)
        except Exception:
            code = traceback.format_exc()
        seconds = time.perf_counter() - start
        self.expect(f"`{' '.join(argv)}` exits 0", code == 0, code)
        return code, out.getvalue(), seconds

    def expect(self, description, passed, detail=None):
        self.attempted += 1
        if not passed:
            self.failures.append(description if detail is None else f"{description}: {detail}")

    def check(self, workload, stdouts):
        try:
            checks, recorded = workload.check(stdouts)
        except Exception:
            self.expect(f"{workload.name} checks run", False, traceback.format_exc())
            return {}
        for description, passed in checks:
            self.expect(description, passed)
        return recorded


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def setup_phase(workload, seed, base, runner, tracer):
    times, directory = [], None
    while (len(times) < SETUP_MIN_RUNS or sum(times) < SETUP_MIN_SECONDS) \
            and not runner.failures:
        if directory is not None:
            shutil.rmtree(directory)
        directory = base / f"setup-{len(times)}"
        directory.mkdir()
        os.chdir(directory)
        write_spec(workload)
        times.append(sum(runner.run(command_argv(argv, seed))[2] for argv in workload.setup))
    result = {"setup_s": times, "dir": str(directory), "environment": environment()}
    if tracer:
        result["per_layer"] = tracing.per_layer_metrics(tracer.spans, tracer.counters, len(times))
    return result


def measure_phase(workload, seed, seconds, directory, runner, tracer):
    os.chdir(directory)
    commands = [(name, command_argv(argv, seed)) for name, argv in workload.commands]

    def one_pass():
        stdouts, times = {}, {}
        for name, argv in commands:
            _, stdouts[name], times[name] = runner.run(argv)
        return times, runner.check(workload, stdouts)

    # Flush the set-up's writes so their write-back does not overlap the timing,
    # and warm up: the first pass in a process pays one-off costs users do not repeat.
    os.sync()
    one_pass()
    if tracer:
        tracer.spans.clear()
        tracer.counters.clear()
    passes, per_command, recorded = [], {}, {}
    deadline = time.perf_counter() + seconds
    while len(passes) < MEASURE_MIN_PASSES or time.perf_counter() < deadline:
        times, values = one_pass()
        passes.append(sum(times.values()))
        for store, items in ((per_command, times), (recorded, values)):
            for key, value in items.items():
                store.setdefault(key, []).append(value)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"commands_s": passes, "per_command": per_command, "recorded": recorded,
              "peak_rss_mb": peak_kb / 1024}
    if tracer:
        result["per_layer"] = tracing.per_layer_metrics(tracer.spans, tracer.counters, len(passes))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", default=None, help="write spans to this JSONL file")
    args = parser.parse_args(argv)
    source = Path(layerfuse.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported layerfuse from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{args.phase}")
        tracing.install(tracer, layerfuse)
    runner = Runner(tracer)
    if args.phase == "setup":
        result = setup_phase(workload, args.seed, args.dir.resolve(), runner, tracer)
    else:
        result = measure_phase(workload, args.seed, args.seconds, args.dir.resolve(),
                               runner, tracer)
    if tracer:
        tracer.write(args.trace)
    result.update(attempted=runner.attempted, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
