"""Scenario-driven command line front end.

Subcommands:
  run <scenario>   run the analyses listed in a scenario file, write
                   report.json (deterministic), timings.json, and one CSV
                   per tabular result into the output directory.
  list-systems     print the system catalogue with known analytic facts.
  proximal         one-off proximal cell / distality report.
  equicont         one-off N-equicontinuity probe.
  structure        one-off structural audit (minimal sets, expansivity, ...).
  entropy          one-off entropy estimate or bound audit.
  ndiam            one-off N-diameter computation on a sampled cloud.

Scenario files are flat commented text: header lines `key = value`
(system, seed, out, cloud_size) followed by one `[opname]` section per
analysis, each holding `key = value` parameters.  Parameters named
`assert_<field>` (exact match), `assert_<field>_le`, or
`assert_<field>_ge` turn the analysis into a pass/fail check against the
corresponding field of its JSON result.

Exit codes: 0 all asserted analyses pass, 1 some audit failed,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sysmod
import time
from pathlib import Path

import numpy as np

from .entropy import (default_partition, ks_bound_audit,
                      metric_entropy_estimate, uniform_measure,
                      word_count_entropy)
from .equicont import n_equicontinuity_probe, r_set, skew_witness
from .errors import NDistalError, ParameterError
from .ndiameter import diam_n_bounds, diam_n_exact
from .proximal import distality_report, proximal_cell, proximal_quotient
from .structure import (expansivity_probe, minimal_subsystems,
                        periodic_points, prop_3_2_audit, return_profile,
                        theorem_3_5_audit, transitive_check)
from .systems import CATALOGUE_FACTS, get_system


class ScenarioError(ValueError):
    """Raised when a scenario file fails to parse or validate."""


def _jsonable(obj):
    """Convert a result object into plain JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    return repr(obj)


def _parse_value(text):
    """Parse a scenario value: bool, int, float, comma tuple, or string.

    Values wrapped in matching quotes are literal strings, which is the
    only way to write a string containing a comma.
    """
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "null"):
        return None
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_scenario(path):
    """Parse a scenario file into (header dict, list of (op, params, line)).

    Raises ScenarioError with a line number on any malformed line, and on
    a file that cannot be read or is not UTF-8.
    """
    header = {}
    analyses = []
    current = None
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            op = line[1:-1].strip()
            if not op:
                raise ScenarioError(f"line {lineno}: empty section name")
            current = (op, {}, lineno)
            analyses.append(current)
            continue
        if "=" not in line:
            raise ScenarioError(
                f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ScenarioError(f"line {lineno}: empty key")
        parsed = _parse_value(value)
        if current is None:
            header[key] = parsed
        else:
            current[1][key] = parsed
    if "system" not in header:
        raise ScenarioError("scenario is missing the 'system' header key")
    if not analyses:
        raise ScenarioError("scenario lists no analyses")
    return header, analyses


def default_cloud(sys, size=None):
    """Sample the conventional report cloud for a catalogue system."""
    return sys.sampler(sys.cloud_size if size is None else size)


def _indexed_point(cloud, params, key="index"):
    idx = int(params.pop(key, 0))
    if not 0 <= idx < len(cloud):
        raise ParameterError(f"{key}={idx} outside cloud of size {len(cloud)}")
    return cloud[idx]


def _dist_table(report):
    rows = []
    for i, cell in enumerate(report.cells):
        others = [m for m in cell.members if m != cell.base]
        trace = (f"{min(cell.min_dist_trace[m] for m in others):.6e}"
                 if others else "")
        stable = (int(all(cell.stable[m] for m in others))
                  if cell.stable is not None and others else "")
        rows.append([i, cell.base, cell.size(), stable, trace,
                     " ".join(str(m) for m in cell.members)])
    return ("cells", ["index", "base", "size", "stable", "min_trace",
                      "members"], rows)


def _run_distality(sys, cloud, params, seed):
    rep = distality_report(sys, cloud,
                           H=int(params.pop("H", 200)),
                           eps_prox=float(params.pop("eps", 1e-3)),
                           N_max=int(params.pop("N_max", 8)))
    return rep.as_dict(), [_dist_table(rep)]


def _run_proximal_cell(sys, cloud, params, seed):
    x = _indexed_point(cloud, params)
    cell = proximal_cell(sys, x, cloud,
                         H=int(params.pop("H", 200)),
                         eps_prox=float(params.pop("eps", 1e-3)))
    return cell.as_dict(), []


def _run_quotient(sys, cloud, params, seed):
    rep = distality_report(sys, cloud,
                           H=int(params.pop("H", 200)),
                           eps_prox=float(params.pop("eps", 1e-3)),
                           N_max=int(params.pop("N_max", 8)))
    quot = proximal_quotient(rep, sys)
    return quot.as_dict(), []


def _run_equicont(sys, cloud, params, seed):
    grid = params.pop("delta_grid", (0.2, 0.1, 0.05, 0.02, 0.01))
    if isinstance(grid, (int, float)):
        grid = (float(grid),)
    verdict = n_equicontinuity_probe(
        sys, cloud, N=int(params.pop("N", 1)),
        epsilon=float(params.pop("epsilon", 0.2)),
        delta_grid=tuple(float(d) for d in grid),
        H=int(params.pop("H", 200)),
        n_bases=int(params.pop("n_bases", 64)),
        seed=seed)
    rows = [[f"{e['delta']:.6g}", int(e["passed"]),
             int(e["certified_fail"]), f"{e['max_lower']:.6e}",
             f"{e['max_upper']:.6e}"] for e in verdict.per_delta]
    return verdict.as_dict(), [("per_delta", ["delta", "passed",
                                              "certified_fail", "max_lower",
                                              "max_upper"], rows)]


def _run_r_set(sys, cloud, params, seed):
    x = _indexed_point(cloud, params)
    est = r_set(sys, x, float(params.pop("delta", 0.1)), cloud,
                H=int(params.pop("H", 200)))
    return est.as_dict(), []


def _run_skew_witness(sys, cloud, params, seed):
    M, n = skew_witness(int(params.pop("N", 1)),
                        float(params.pop("delta", 0.1)),
                        params.pop("M", None))
    return {"M": M, "n": n}, []


def _gap_bound_from(params):
    """Optional gap_c parameter: syndetic gap bound ceil(gap_c / delta)."""
    gap_c = params.pop("gap_c", None)
    if gap_c is None:
        return None
    c = float(gap_c)
    return lambda d: int(np.ceil(c / d))


def _run_theorem_3_5(sys, cloud, params, seed):
    gap_bound = _gap_bound_from(params)
    rec = theorem_3_5_audit(sys, int(params.pop("N", 3)), cloud,
                            H=int(params.pop("H", 2000)),
                            delta=float(params.pop("delta", 0.05)),
                            gap_bound=gap_bound)
    return rec.as_dict(), []


def _run_prop_3_2(sys, cloud, params, seed):
    rec = prop_3_2_audit(sys, cloud, T_max=int(params.pop("T_max", 50)))
    return rec.as_dict(), []


def _run_minimal(sys, cloud, params, seed):
    gap_bound = _gap_bound_from(params)
    sets = minimal_subsystems(sys, cloud,
                              delta=float(params.pop("delta", 0.05)),
                              H=int(params.pop("H", 2000)),
                              gap_bound=gap_bound)
    rows = [[i, repr(s.representative), len(s.indices),
             f"{s.closeness:.6e}"] for i, s in enumerate(sets)]
    result = {"count": len(sets), "clusters": [s.as_dict() for s in sets]}
    return result, [("clusters", ["index", "representative", "size",
                                  "closeness"], rows)]


def _run_transitive(sys, cloud, params, seed):
    point = transitive_check(sys, cloud,
                             H=int(params.pop("H", 2000)),
                             delta=float(params.pop("delta", 0.05)))
    return {"found": point is not None,
            "point": repr(point) if point is not None else None}, []


def _run_return_profile(sys, cloud, params, seed):
    x = _indexed_point(cloud, params)
    prof = return_profile(sys, x, float(params.pop("delta", 0.1)),
                          H=int(params.pop("H", 500)))
    return prof.as_dict(), []


def _run_expansivity(sys, cloud, params, seed):
    grid = params.pop("delta_grid", (0.25, 0.1, 0.05))
    if isinstance(grid, (int, float)):
        grid = (float(grid),)
    verdict = expansivity_probe(sys, cloud,
                                delta_grid=tuple(float(d) for d in grid),
                                H=int(params.pop("H", 50)))
    return verdict.as_dict(), []


def _run_periodic(sys, cloud, params, seed):
    found = periodic_points(sys, cloud, int(params.pop("T_max", 12)))
    rows = [[i, repr(x), per] for i, (x, per) in enumerate(found)]
    return ({"count": len(found),
             "points": [[repr(x), per] for x, per in found]},
            [("periodic", ["index", "point", "period"], rows)])


def _run_entropy_estimate(sys, cloud, params, seed):
    P = default_partition(cloud, k=int(params.pop("k", 2)))
    mu = uniform_measure(cloud)
    est = metric_entropy_estimate(sys, P, mu,
                                  n_max=int(params.pop("n_max", 64)),
                                  cloud=cloud)
    return est.as_dict(), []


def _run_word_entropy(sys, cloud, params, seed):
    est = word_count_entropy(sys, int(params.pop("n", 12)))
    return est.as_dict(), []


def _run_ks_bound(sys, cloud, params, seed):
    r_list = params.pop("r_list", (0.3, 0.2, 0.1, 0.05))
    if isinstance(r_list, (int, float)):
        r_list = (float(r_list),)
    mu = uniform_measure(cloud)
    rec = ks_bound_audit(sys, cloud, mu,
                         r_list=tuple(float(r) for r in r_list))
    rows = [[f"{e['r']:.6g}",
             f"{e['entropy']:.6e}" if "entropy" in e else "",
             f"{e['closing_bound']:.6e}" if "closing_bound" in e else "",
             e.get("rejected") or e.get("construction_error") or "ok"]
            for e in rec.details.get("entries", [])]
    return rec.as_dict(), [("ks_bound", ["r", "entropy", "closing_bound",
                                         "status"], rows)]


def _run_diam(exact):
    def runner(sys, cloud, params, seed):
        N = int(params.pop("N", 2))
        size = params.pop("size", None)
        pts = cloud if size is None else cloud[:int(size)]
        fn = diam_n_exact if exact else diam_n_bounds
        res = fn(list(pts), sys.dist, N)
        return res.as_dict(), []
    return runner


REGISTRY = {
    "distality_report": _run_distality,
    "proximal_cell": _run_proximal_cell,
    "proximal_quotient": _run_quotient,
    "n_equicontinuity_probe": _run_equicont,
    "r_set": _run_r_set,
    "skew_witness": _run_skew_witness,
    "theorem_3_5_audit": _run_theorem_3_5,
    "prop_3_2_audit": _run_prop_3_2,
    "minimal_subsystems": _run_minimal,
    "transitive_check": _run_transitive,
    "return_profile": _run_return_profile,
    "expansivity_probe": _run_expansivity,
    "periodic_points": _run_periodic,
    "metric_entropy_estimate": _run_entropy_estimate,
    "word_count_entropy": _run_word_entropy,
    "ks_bound_audit": _run_ks_bound,
    "diam_n_exact": _run_diam(True),
    "diam_n_bounds": _run_diam(False),
}


def _lookup_field(result, dotted):
    value = result
    for part in dotted.split("."):
        if isinstance(value, dict) and part in value:
            value = value[part]
        else:
            raise KeyError(dotted)
    return value


def _check_asserts(result, asserts):
    """Evaluate assert_* parameters against a JSON result dict."""
    checks = []
    for key, expected in asserts.items():
        field = key[len("assert_"):]
        op = "eq"
        if field.endswith("_le"):
            field, op = field[:-3], "le"
        elif field.endswith("_ge"):
            field, op = field[:-3], "ge"
        try:
            actual = _lookup_field(result, field)
        except KeyError:
            checks.append({"field": field, "op": op, "expected": expected,
                           "actual": None, "passed": False,
                           "error": "field not found"})
            continue
        if op == "le":
            ok = float(actual) <= float(expected)
        elif op == "ge":
            ok = float(actual) >= float(expected)
        else:
            ok = actual == expected or str(actual) == str(expected)
        checks.append({"field": field, "op": op, "expected": expected,
                       "actual": _jsonable(actual), "passed": bool(ok)})
    passed = all(c["passed"] for c in checks) if checks else None
    return passed, checks


def validate_scenario(header, analyses):
    """Type-check a parsed scenario before any computation runs."""
    try:
        sys = get_system(str(header["system"]))
    except (NDistalError, ValueError) as exc:
        raise ScenarioError(f"unknown or invalid system "
                            f"{header['system']!r}: {exc}")
    for key in header:
        if key not in ("system", "seed", "out", "cloud_size"):
            raise ScenarioError(f"unknown header key {key!r}")
    for op, params, lineno in analyses:
        if op not in REGISTRY:
            raise ScenarioError(f"line {lineno}: unknown analysis op {op!r}")
        for key, value in params.items():
            if key.startswith("assert_"):
                continue
            if not isinstance(value, (bool, int, float, str, tuple,
                                      type(None))):
                raise ScenarioError(
                    f"line {lineno}: bad value for {key!r}: {value!r}")
    return sys


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_scenario(path, seed=None, out=None):
    """Execute a scenario file and write report.json, timings.json, CSVs.

    Returns the process exit code (0 pass, 1 audit failure).
    """
    header, analyses = parse_scenario(path)
    sys = validate_scenario(header, analyses)
    if seed is None:
        seed = int(header.get("seed", 0))
    out_dir = Path(out if out is not None else header.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud = default_cloud(sys, header.get("cloud_size"))

    records = []
    timings = []
    any_fail = False
    for k, (op, params, lineno) in enumerate(analyses):
        params = dict(params)
        size = params.pop("cloud_size", None)
        op_cloud = cloud if size is None else default_cloud(sys, int(size))
        asserts = {key: params.pop(key) for key in list(params)
                   if key.startswith("assert_")}
        record = {"op": op, "params": _jsonable(params)}
        t0 = time.perf_counter()
        try:
            result, tables = REGISTRY[op](sys, op_cloud, params, seed)
            result = _jsonable(result)
            record["result"] = result
            passed, checks = _check_asserts(result, asserts)
            record["passed"] = passed
            if checks:
                record["checks"] = checks
            if passed is False:
                any_fail = True
            for name, cols, rows in tables:
                csv_path = out_dir / f"{k:02d}_{op}_{name}.csv"
                _write_csv(csv_path, cols, rows)
        except NDistalError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["passed"] = False if asserts else None
            if asserts:
                any_fail = True
        timings.append({"op": op, "seconds": time.perf_counter() - t0})
        records.append(record)

    report = {
        "scenario": {"system": str(header["system"]), "seed": seed,
                     "cloud_size": len(cloud),
                     "analyses": [op for op, _, _ in analyses]},
        "analyses": records,
        "summary": {
            "passed": not any_fail,
            "n_failed": sum(1 for r in records if r.get("passed") is False),
            "n_asserted": sum(1 for r in records
                              if r.get("passed") is not None),
        },
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out_dir / "timings.json").write_text(
        json.dumps({"analyses": timings}, indent=2) + "\n")
    return 0 if not any_fail else 1


def list_catalogue(stream=None):
    """Print the system catalogue with known analytic facts."""
    stream = stream or _sysmod.stdout
    width = max(len(name) for name in CATALOGUE_FACTS)
    stream.write(f"{'system':<{width}}  facts\n")
    stream.write(f"{'-' * width}  {'-' * 5}\n")
    for name, facts in CATALOGUE_FACTS.items():
        stream.write(f"{name:<{width}}  {facts}\n")
    return 0


def _oneoff(op, args, extra):
    """Run a single registry op on a system and print its JSON result."""
    sys = get_system(args.system)
    cloud = default_cloud(sys, args.cloud_size)
    result, _tables = REGISTRY[op](sys, cloud, dict(extra), args.seed)
    text = json.dumps(_jsonable(result), sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{op}.json").write_text(text + "\n")
    print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ndistal",
        description="audits for N-distal dynamics on the system catalogue")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probes")
    parser.add_argument("--out", default=None,
                        help="output directory for reports")

    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps a value given before the subcommand from being overwritten
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    p_run = add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a scenario file")

    add_parser("list-systems", help="print the system catalogue")

    def common(p):
        p.add_argument("--system", required=True,
                       help="system id, e.g. annulus3 or rotation{alpha=0.3}")
        p.add_argument("--cloud-size", type=int, default=None)

    p_prox = add_parser("proximal", help="distality report or one cell")
    common(p_prox)
    p_prox.add_argument("--index", type=int, default=None,
                        help="cloud index for a single proximal cell")
    p_prox.add_argument("--H", type=int, default=200)
    p_prox.add_argument("--eps", type=float, default=1e-3)
    p_prox.add_argument("--N-max", type=int, default=8)
    p_prox.add_argument("--quotient", action="store_true",
                        help="also compute the proximal quotient")

    p_eq = add_parser("equicont", help="N-equicontinuity probe")
    common(p_eq)
    p_eq.add_argument("--N", type=int, required=True)
    p_eq.add_argument("--epsilon", type=float, default=0.2)
    p_eq.add_argument("--H", type=int, default=200)
    p_eq.add_argument("--delta-grid", type=float, nargs="+", default=None)

    p_st = add_parser("structure", help="structural audits")
    common(p_st)
    p_st.add_argument("--op", default="theorem_3_5_audit",
                      choices=["theorem_3_5_audit", "prop_3_2_audit",
                               "minimal_subsystems", "transitive_check",
                               "expansivity_probe", "periodic_points"])
    p_st.add_argument("--N", type=int, default=3)
    p_st.add_argument("--H", type=int, default=2000)
    p_st.add_argument("--delta", type=float, default=0.05)
    p_st.add_argument("--T-max", type=int, default=12)

    p_en = add_parser("entropy", help="entropy estimates and bounds")
    common(p_en)
    p_en.add_argument("--op", default="metric_entropy_estimate",
                      choices=["metric_entropy_estimate",
                               "word_count_entropy", "ks_bound_audit"])
    p_en.add_argument("--n-max", type=int, default=64)
    p_en.add_argument("--k", type=int, default=2)
    p_en.add_argument("--n", type=int, default=12)

    p_nd = add_parser("ndiam", help="N-diameter of a sampled cloud")
    common(p_nd)
    p_nd.add_argument("--N", type=int, required=True)
    p_nd.add_argument("--size", type=int, default=None,
                      help="use only the first SIZE cloud points")
    p_nd.add_argument("--bounds", action="store_true",
                      help="greedy bounds instead of exact enumeration")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario, seed=args.seed, out=args.out)
        if args.command == "list-systems":
            return list_catalogue()
        if args.command == "proximal":
            if args.index is not None:
                return _oneoff("proximal_cell", args,
                               {"index": args.index, "H": args.H,
                                "eps": args.eps})
            op = "proximal_quotient" if args.quotient else "distality_report"
            return _oneoff(op, args, {"H": args.H, "eps": args.eps,
                                      "N_max": args.N_max})
        if args.command == "equicont":
            extra = {"N": args.N, "epsilon": args.epsilon, "H": args.H}
            if args.delta_grid:
                extra["delta_grid"] = tuple(args.delta_grid)
            return _oneoff("n_equicontinuity_probe", args, extra)
        if args.command == "structure":
            extra = {}
            if args.op == "theorem_3_5_audit":
                extra = {"N": args.N, "H": args.H, "delta": args.delta}
            elif args.op in ("minimal_subsystems", "transitive_check"):
                extra = {"H": args.H, "delta": args.delta}
            elif args.op in ("prop_3_2_audit", "periodic_points"):
                extra = {"T_max": args.T_max}
            return _oneoff(args.op, args, extra)
        if args.command == "entropy":
            extra = {}
            if args.op == "metric_entropy_estimate":
                extra = {"n_max": args.n_max, "k": args.k}
            elif args.op == "word_count_entropy":
                extra = {"n": args.n}
            return _oneoff(args.op, args, extra)
        if args.command == "ndiam":
            op = "diam_n_bounds" if args.bounds else "diam_n_exact"
            return _oneoff(op, args, {"N": args.N, "size": args.size})
        parser.error(f"unknown command {args.command!r}")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=_sysmod.stderr)
        return 2
    except NDistalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sysmod.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
