"""One benchmark process for one workload; bench/run.py starts it.

    python3 bench/worker.py setup --workload W --seed N
        import ndistal, build the workload's systems and sample its clouds,
        then time the calibration task (speed.py); print the wall time and
        the time at the reference speed, {"wall_s", "setup_s"}.
    python3 bench/worker.py run --workload W --seed N --seconds S
                                --trace 0|1 --out DIR
        set up, run one untimed warm-up pass, then timed passes: one, and
        more while the next one is expected to end within S seconds of the
        first; with --trace 1, one more pass under the tracer.  Prints one
        JSON object; pass_s are the pass times at the reference speed,
        wall_pass_s the raw ones.

Needs the checkout's src/ on PYTHONPATH, which bench/run.py sets.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(name, seed):
    t0 = time.perf_counter()
    import ndistal
    from workloads import WORKLOADS

    if Path(ndistal.__file__).resolve().parent != SRC / "ndistal":
        raise SystemExit(f"ndistal imported from {ndistal.__file__}, "
                         f"not from {SRC}")
    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    return workload, inputs, time.perf_counter() - t0


def _check(passes, known_defects):
    """Fold the outcomes of every pass into (correct, mismatches)."""
    correct = True
    mismatches = {}
    digests = {}
    for outcomes in passes:
        for o in outcomes:
            if o.mismatch is not None:
                mismatches[o.label] = o.mismatch
                if o.label not in known_defects:
                    correct = False
            if o.digest is not None:
                digests.setdefault(o.label.split(":")[0], set()).add(o.digest)
    for scenario, seen in digests.items():
        if len(seen) != 1:
            correct = False
            mismatches[scenario] = "report.json differs between passes"
    return correct, mismatches


def _run(args):
    workload, inputs, setup_s = _setup(args.workload, args.seed)

    import numpy
    import scipy

    from speed import at_reference
    from tracing import Tracer
    from workloads import KNOWN_DEFECTS, run_pass, torus_difference_ratio

    from ndistal.systems import DynSystem

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    t = time.perf_counter()
    warm, _, _ = run_pass(workload, inputs, out_dir)
    warmup_s = time.perf_counter() - t
    timed, wall_s, pass_s, analysis_s, calibration = [], [], [], [], []
    t0 = time.perf_counter()
    while not pass_s or \
            time.perf_counter() - t0 + wall_s[-1] <= args.seconds:
        outcomes, seconds, calibrations = run_pass(workload, inputs, out_dir)
        timed.append(outcomes)
        analysis_s.append(seconds)
        calibration.append(calibrations)
        wall_s.append(sum(seconds.values()))
        pass_s.append(at_reference(list(seconds.values()), calibrations))

    result = {"pass_s": pass_s, "wall_pass_s": wall_s,
              "analysis_s": analysis_s, "calibration_s": calibration,
              "warmup_s": warmup_s,
              "setup_s": setup_s,
              "clouds": workload.clouds, "horizons": workload.horizons,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.trace:
        result["difference_ratio"] = torus_difference_ratio(inputs)
        tracer = Tracer()
        tracer.install()
        for value in inputs.values():
            if isinstance(value, DynSystem):
                tracer.instrument(value)
        try:
            outcomes, seconds, _ = run_pass(workload, inputs, out_dir, tracer)
        finally:
            tracer.uninstall()
        timed.append(outcomes)
        result["traced_wall_s"] = sum(seconds.values())
        result["per_layer"] = tracer.metrics()
        (out_dir / "spans.json").write_text(
            json.dumps(tracer.span_dicts()) + "\n")

    correct, mismatches = _check([warm] + timed, KNOWN_DEFECTS)
    result.update(
        correct=correct, mismatches=mismatches,
        attempted=sum(len(p) for p in timed),
        failed=sum(1 for p in timed for o in p if o.mismatch is not None),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        wall_s = _setup(args.workload, args.seed)[2]
        from speed import REFERENCE_S, calibration_s
        result = {"wall_s": wall_s,
                  "setup_s": wall_s * REFERENCE_S / calibration_s()}
    else:
        result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
