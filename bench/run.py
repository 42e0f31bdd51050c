"""Benchmark for ndistal: time to a checked verdict on three workloads.

    python3 bench/run.py [--workload torus|annulus|shift|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it benchmarks the checkout's src/.
Each workload runs in child processes of its own with one BLAS/OpenMP
thread (bench/workloads.py says what each workload runs and why):

  * SETUPS fresh processes each import ndistal, build the workload's systems
    and sample its clouds; setup_s is the median of their times.
  * One process sets up, runs one untimed warm-up pass over the workload's
    analyses, then timed passes (one, more while they fit in S seconds);
    audit_s is the median pass time, peak_rss_mb the process's peak
    resident memory.  Every pass checks every verdict.
  * audit_s and setup_s are wall times scaled to a reference machine speed
    by a calibration task timed between analyses (bench/speed.py says why);
    the raw wall times go to the run record.
  * With --trace 1 that process adds one pass with every public function of
    the analysis layers wrapped (bench/tracing.py) and prints the per-layer
    metrics instead; their times are raw wall times, and trace.overhead_s
    is the traced pass minus the median untraced pass.

It prints a table, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  `failed` counts the
analyses, over the timed passes, that raised or gave another verdict than
the expected one; failed_frac = failed / attempted.  Run records (context,
pass times, mismatches, spans) go to bench/out/.  Exit code 0 on a
measured run, 1 when a child fails, 2 when there is no src/ndistal to
benchmark.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("torus", "annulus", "shift")
SETUPS = 3
DEADLINE_S = 170.0   # one workload's whole run stays under 180 s


class ChildError(RuntimeError):
    pass


def _child(args, env, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildError("out of time before " + " ".join(args))
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise ChildError("timed out: " + " ".join(args)) from None
    if proc.returncode != 0:
        raise ChildError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(name, args, env, context):
    """Run one workload in child processes; print its table and write its
    run record.  Returns the workload's result object."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(args.seed)]
    out_dir = BENCH / "out" / f"{name}-seed{args.seed}"
    setups = [] if args.trace else [
        _child(["setup"] + common, env, deadline) for _ in range(SETUPS)]
    run = _child(["run"] + common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace),
                                     "--out", str(out_dir)], env, deadline)
    audit_s = statistics.median(run["pass_s"])
    n_pass = len(run["pass_s"])
    rows = []
    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in run["per_layer"].items()}
        metrics["trace.overhead_s"] = {
            "value": run["traced_wall_s"] - statistics.median(
                run["wall_pass_s"]), "unit": "s"}
        rows = [(k, m["value"], m["unit"], "1 traced pass")
                for k, m in metrics.items()]
    else:
        metrics = {
            "audit_s": {"value": audit_s, "unit": "s"},
            "setup_s": {"value": statistics.median(
                s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"}}
        rows = [("audit_s", audit_s, "s",
                 f"median of {n_pass} timed pass(es) after 1 warm-up pass, "
                 "at the reference speed"),
                ("audit_wall_s", statistics.median(run["wall_pass_s"]), "s",
                 "the same passes' raw wall time, not scaled"),
                ("setup_s", metrics["setup_s"]["value"], "s",
                 f"median of {len(setups)} fresh processes"),
                ("peak_rss_mb", run["peak_rss_mb"], "MB", "1 process")]
    failed_frac = run["failed"] / run["attempted"]
    rows.append(("failed_frac", failed_frac, "ratio",
                 f"{run['failed']} of {run['attempted']} analyses"))

    print(f"workload {name}  seed {args.seed}  correct {run['correct']}")
    for metric, value, unit, samples in rows:
        print(f"  {metric:<40} {value:>16.6g} {unit:<6} {samples}")
    for label, text in sorted(run["mismatches"].items()):
        print(f"  mismatch {label}: {text}")

    record = dict(context, workload=name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  numpy=run["numpy"], scipy=run["scipy"],
                  clouds=run["clouds"], horizons=run["horizons"],
                  torus_difference_ratio=run.get("difference_ratio"),
                  warmup_s=run["warmup_s"], pass_s=run["pass_s"],
                  wall_pass_s=run["wall_pass_s"],
                  calibration_s=run["calibration_s"],
                  analysis_s=run["analysis_s"], setups=setups,
                  in_process_setup_s=run["setup_s"],
                  correct=run["correct"], mismatches=run["mismatches"],
                  attempted=run["attempted"], failed=run["failed"],
                  failed_frac=failed_frac, metrics=metrics)
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ndistal" / "__init__.py").is_file():
        print(f"no src/ndistal under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    context = {"nproc": os.cpu_count(),
               "cpus_usable": len(os.sched_getaffinity(0)),
               "cpu_model": _cpu_model(),
               "python": platform.python_version(),
               "git_commit": _git_commit()}
    print(f"{context['nproc']} CPUs ({context['cpu_model']}), "
          f"python {context['python']}, commit {context['git_commit']}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args, env, context)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
