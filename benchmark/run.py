"""The layerfuse benchmark: one workload per run, end-to-end or traced.

    python3 benchmark/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; layerfuse is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run plus the tracing overhead.  Full results,
the environment and (when traced) every span go to ``.bench_results/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run, set-up included, ends within this many seconds or fails.
RUN_LIMIT_S = 170
# One BLAS thread per process keeps processes x threads within two cores,
# also for the two pool workers of sweep --jobs 2, and steadies the encoder
# workloads (see README.md).
BLAS_THREADS = 1


class BenchmarkError(RuntimeError):
    pass


def available_mb():
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_AVPHYS_PAGES") / 2**20


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(args, env, deadline):
    """Run worker.py with ``args`` as a new process group; returns its JSON result."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"worker {args[0]} did not finish within {timeout:.0f} s") from None
    finally:
        # Sweep pool workers share the child's process group.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args[0]} exited with code {child.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, env, work, results):
    """Set up, then measure; returns (metrics, attempted, failures, details)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    stem = results / f"{workload}-seed{seed}"
    setup = run_child(["setup", *common, "--dir", str(work)]
                      + (["--trace", f"{stem}.setup.spans.jsonl"] if trace else []),
                      env, deadline)
    phases = [("untraced", seconds / 2 if trace else seconds, [])]
    if trace:
        phases.append(("traced", seconds / 2, ["--trace", f"{stem}.spans.jsonl"]))
    runs = {}
    for label, phase_seconds, extra in phases:
        runs[label] = run_child(["measure", *common, "--dir", setup["dir"],
                                 "--seconds", str(phase_seconds), *extra],
                                env, deadline)
    untraced = runs["untraced"]
    if trace:
        traced = runs["traced"]
        metrics = dict(traced["per_layer"])
        for name in tracing.SETUP_METRICS:
            metrics[name] = setup["per_layer"][name]
        metrics[tracing.OVERHEAD] = (statistics.median(traced["commands_s"])
                                     / statistics.median(untraced["commands_s"]) - 1.0)
    else:
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "commands_s": statistics.median(untraced["commands_s"]),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
    attempted = setup["attempted"] + sum(r["attempted"] for r in runs.values())
    failures = setup["failures"] + [f for r in runs.values() for f in r["failures"]]
    details = {"environment": setup["environment"], "setup_s": setup["setup_s"],
               **{f"{label}_commands_s": r["commands_s"] for label, r in runs.items()},
               "per_command": untraced["per_command"], "recorded": untraced["recorded"]}
    return metrics, attempted, failures, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed commands run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "layerfuse" / "__init__.py").is_file():
        print(f"error: no layerfuse sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    expected, available = WORKLOADS[args.workload].expected_peak_mb, available_mb()
    if available < expected:
        print(f"error: workload {args.workload} needs about {expected} MB at its peak but "
              f"only {available:.0f} MB is available; not starting it", file=sys.stderr)
        return 3
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failures, details = measure(
            args.workload, args.seed, args.seconds, args.trace, env, work, results)
    except BenchmarkError as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["environment"].update(seed=args.seed, workload=args.workload, commit=git_commit())
    details.update(metrics=metrics, attempted=attempted, failures=failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    samples = len(details["untraced_commands_s"])
    print(f"workload {args.workload}, seed {args.seed}: {samples} untraced passes timed")
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:>14.6g} {tracing.metric_unit(metric)}")
    for kind in ("per_command", "recorded"):
        for key, values in details[kind].items():
            print(f"  {kind} {key}: median {statistics.median(values):.6g} of {len(values)}")
    print(f"  failed_ratio {len(failures)}/{attempted}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": tracing.metric_unit(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
