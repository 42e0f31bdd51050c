"""Scenario-driven command line front end.

Subcommands:
  run <scenario>   run the analyses listed in a scenario file, write
                   report.json (deterministic) and timings.json into the
                   output directory.
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
corresponding field of its JSON result; a bound must be a number, and a
field that is not one fails its check.

Each analysis declares its parameters once, as the keyword defaults of
its runner.  Sections, the header and one-off flags are bound to those
before anything runs: a name the analysis does not take, or a value not
of its default's kind, exits 2; an absent one takes the default.
`--seed` overrides a scenario's `seed` only when given.

Exit codes: 0 all asserted analyses pass, 1 some audit failed,
2 usage or validation error, a cloud too large for memory, or an output
directory that cannot be written.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys as _sysmod
import time
import typing
from pathlib import Path

import numpy as np

from .entropy import (default_partition, ks_bound_audit,
                      metric_entropy_estimate, uniform_measure,
                      word_count_entropy)
from .equicont import DEFAULT_DELTA_GRID, DEFAULT_H as EQUICONT_H
from .equicont import n_equicontinuity_probe, r_set, skew_witness
from .errors import NDistalError, ParameterError
from .ndiameter import diam_n_bounds_from_matrix, diam_n_exact_from_matrix
from .proximal import (DEFAULT_EPS, DEFAULT_H, ProximalReport,
                       distality_report, proximal_cell, proximal_quotient)
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
    if size is not None and size < 1:
        raise ParameterError(f"cloud_size must be >= 1, got {size}")
    return sys.sampler(sys.cloud_size if size is None else size)


def _indexed_point(cloud, index):
    if not 0 <= index < len(cloud):
        raise ParameterError(
            f"index={index} outside cloud of size {len(cloud)}")
    return cloud[index]


def _run_distality(sys, cloud, seed, *, H=DEFAULT_H, eps=DEFAULT_EPS,
                   N_max=8):
    return distality_report(sys, cloud, H=H, eps_prox=eps, N_max=N_max)


def _run_proximal_cell(sys, cloud, seed, *, index=0, H=DEFAULT_H,
                       eps=DEFAULT_EPS):
    return proximal_cell(sys, _indexed_point(cloud, index), cloud, H=H,
                         eps_prox=eps).as_dict()


def _run_quotient(sys, cloud, seed, *, H=DEFAULT_H, eps=DEFAULT_EPS,
                  N_max=8):
    rep = distality_report(sys, cloud, H=H, eps_prox=eps, N_max=N_max)
    return proximal_quotient(rep, sys).as_dict()


def _run_equicont(sys, cloud, seed, *, N=1, epsilon=0.2,
                  delta_grid=DEFAULT_DELTA_GRID, H=EQUICONT_H, n_bases=64):
    return n_equicontinuity_probe(sys, cloud, N=N, epsilon=epsilon,
                                  delta_grid=delta_grid, H=H,
                                  n_bases=n_bases, seed=seed).as_dict()


def _run_r_set(sys, cloud, seed, *, index=0, delta=0.1, H=EQUICONT_H):
    est = r_set(sys, _indexed_point(cloud, index), delta, cloud, H=H)
    return est.as_dict()


def _run_skew_witness(sys, cloud, seed, *, N=1, delta=0.1,
                      M: int | None = None):
    M, n = skew_witness(N, delta, M)
    return {"M": M, "n": n}


def _gap_bound(gap_c):
    """Syndetic gap bound ceil(gap_c / delta), or None for the default."""
    return None if gap_c is None else lambda d: int(np.ceil(gap_c / d))


def _run_theorem_3_5(sys, cloud, seed, *, N=3, H=2000, delta=0.05,
                     gap_c: float | None = None):
    return theorem_3_5_audit(sys, N, cloud, H=H, delta=delta,
                             gap_bound=_gap_bound(gap_c)).as_dict()


def _run_prop_3_2(sys, cloud, seed, *, T_max=50):
    return prop_3_2_audit(sys, cloud, T_max=T_max).as_dict()


def _run_minimal(sys, cloud, seed, *, delta=0.05, H=2000,
                 gap_c: float | None = None):
    sets = minimal_subsystems(sys, cloud, delta=delta, H=H,
                              gap_bound=_gap_bound(gap_c))
    return {"count": len(sets), "clusters": [s.as_dict() for s in sets]}


def _run_transitive(sys, cloud, seed, *, H=2000, delta=0.05):
    point = transitive_check(sys, cloud, H=H, delta=delta)
    return {"found": point is not None,
            "point": repr(point) if point is not None else None}


def _run_return_profile(sys, cloud, seed, *, index=0, delta=0.1, H=500):
    prof = return_profile(sys, _indexed_point(cloud, index), delta, H=H)
    return prof.as_dict()


def _run_expansivity(sys, cloud, seed, *, delta_grid=(0.25, 0.1, 0.05),
                     H=50):
    return expansivity_probe(sys, cloud, delta_grid=delta_grid,
                             H=H).as_dict()


def _run_periodic(sys, cloud, seed, *, T_max=12):
    found = periodic_points(sys, cloud, T_max)
    return {"count": len(found),
            "points": [[repr(x), per] for x, per in found]}


def _run_entropy_estimate(sys, cloud, seed, *, k=2, n_max=64):
    return metric_entropy_estimate(sys, default_partition(cloud, k=k),
                                   uniform_measure(cloud), n_max=n_max,
                                   cloud=cloud).as_dict()


def _run_word_entropy(sys, cloud, seed, *, n=12):
    return word_count_entropy(sys, n).as_dict()


def _run_ks_bound(sys, cloud, seed, *, r_list=(0.3, 0.2, 0.1, 0.05)):
    return ks_bound_audit(sys, cloud, uniform_measure(cloud),
                          r_list=r_list).as_dict()


def _run_diam(fn):
    def runner(sys, cloud, seed, *, N=2, size: int | None = None):
        if size is not None and size < 0:
            raise ParameterError(f"size must be >= 0, got {size}")
        D = sys.arr_pdist(sys.arr_state(list(cloud[:size])))
        return fn(D, N).as_dict()
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
    "diam_n_exact": _run_diam(diam_n_exact_from_matrix),
    "diam_n_bounds": _run_diam(diam_n_bounds_from_matrix),
}


def _lookup_field(result, dotted):
    value = result
    for part in dotted.split("."):
        if isinstance(value, dict) and part in value:
            value = value[part]
        else:
            raise KeyError(dotted)
    return value


def _assert_op(key):
    """The field an assert_* key names and its comparison: eq, le or ge."""
    field = key[len("assert_"):]
    if field.endswith(("_le", "_ge")):
        return field[:-3], field[-2:]
    return field, "eq"


def _is_number(value):
    """An int or a float: a bound on a bool is a scenario error."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_asserts(result, asserts):
    """Evaluate assert_* parameters against a JSON result dict."""
    checks = []
    for key, expected in asserts.items():
        field, op = _assert_op(key)
        try:
            actual = _lookup_field(result, field)
        except KeyError:
            actual, error = None, "field not found"
        else:
            error = (None if op == "eq" or _is_number(actual)
                     else "not a number")
        if error:
            ok = False
        elif op == "le":
            ok = float(actual) <= float(expected)
        elif op == "ge":
            ok = float(actual) >= float(expected)
        else:
            ok = actual == expected or str(actual) == str(expected)
        checks.append({"field": field, "op": op, "expected": expected,
                       "actual": actual, "passed": bool(ok),
                       **({"error": error} if error else {})})
    passed = all(c["passed"] for c in checks) if checks else None
    return passed, checks


def _header(*, system="", seed=0, out=".", cloud_size: int | None = None):
    """The scenario header keys; a section may set its own cloud_size."""


def _as(kind, value, where):
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ScenarioError(
            f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _bind(fn, params, where):
    """fn's keyword-only parameters, with params converted to their kinds.

    A name fn does not declare, or a value that does not convert exactly
    to the kind of its default, raises ScenarioError.  An int stands for
    a float, a scalar for a 1-tuple, and None only where the default is
    None; such a parameter names its kind in an annotation.
    """
    declared = {name: p for name, p in
                inspect.signature(fn, eval_str=True).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    bound = {name: p.default for name, p in declared.items()}
    for key, value in params.items():
        if key not in declared:
            raise ScenarioError(f"{where}: unknown parameter {key!r} "
                                f"(takes {', '.join(declared)})")
        default, at = declared[key].default, f"{where}: {key}"
        if isinstance(default, tuple):
            items = value if isinstance(value, tuple) else (value,)
            value = tuple(_as(type(default[0]), v, at) for v in items)
        elif default is not None:
            value = _as(type(default), value, at)
        elif value is not None:
            kind = typing.get_args(declared[key].annotation)[0]
            value = _as(kind, value, at)
        bound[key] = value
    return bound


def _analysis_params(params):
    """A section's parameters for its runner: all but cloud_size and the
    assert_* checks."""
    return {key: value for key, value in params.items()
            if key != "cloud_size" and not key.startswith("assert_")}


def validate_scenario(header, analyses):
    """Bind a parsed scenario against the declarations before anything runs.

    Returns the system, the header with its defaults filled in, and per
    analysis the runner's keyword arguments and the section's own cloud
    size (None for the header's cloud).
    """
    header = _bind(_header, header, "header")
    try:
        sys = get_system(header["system"])
    except (NDistalError, ValueError) as exc:
        raise ScenarioError(f"unknown or invalid system "
                            f"{header['system']!r}: {exc}")
    bound = []
    for op, params, lineno in analyses:
        where = op if lineno is None else f"line {lineno}: [{op}]"
        if op not in REGISTRY:
            raise ScenarioError(f"{where}: unknown analysis op")
        for key, value in params.items():
            if (key.startswith("assert_") and _assert_op(key)[1] != "eq"
                    and not _is_number(value)):
                raise ScenarioError(f"{where}: {key} bounds a number, "
                                    f"got {value!r}")
        size = {k: v for k, v in params.items() if k == "cloud_size"}
        bound.append((_bind(REGISTRY[op], _analysis_params(params), where),
                      _bind(_header, size, where)["cloud_size"]))
    return sys, header, bound


def run_scenario(path, seed=None, out=None):
    """Execute a scenario file and write report.json and timings.json.

    seed and out override the header's when given.  Returns the process
    exit code: 0 pass, 1 audit failure or an analysis error, 2 when an
    analysis rejected one of its parameters.  Errors are in the report,
    whose summary passes only when no analysis failed or raised.
    """
    header, analyses = parse_scenario(path)
    sys, header, bound = validate_scenario(header, analyses)
    if seed is None:
        seed = header["seed"]
    out_dir = Path(header["out"] if out is None else out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cloud = default_cloud(sys, header["cloud_size"])

    records = []
    timings = []
    any_fail = bad_params = False
    for (op, params, _), (kwargs, size) in zip(analyses, bound):
        op_cloud = cloud if size is None else default_cloud(sys, size)
        asserts = {key: value for key, value in params.items()
                   if key.startswith("assert_")}
        record = {"op": op, "params": _jsonable(_analysis_params(params))}
        stats = {}
        t0 = time.perf_counter()
        try:
            found = REGISTRY[op](sys, op_cloud, seed, **kwargs)
            if isinstance(found, ProximalReport):
                stats = found.stats()
            result = _jsonable(found)
            record["result"] = result
            passed, checks = _check_asserts(result, asserts)
            record["passed"] = passed
            if checks:
                record["checks"] = checks
            if passed is False:
                any_fail = True
        except NDistalError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["passed"] = False if asserts else None
            any_fail = True
            bad_params |= isinstance(exc, ParameterError)
        timings.append({"op": op, "seconds": time.perf_counter() - t0,
                        **stats})
        records.append(record)

    report = {
        "scenario": {"system": header["system"], "seed": seed,
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
    return 2 if bad_params else 1 if any_fail else 0


def list_catalogue(stream=None):
    """Print the system catalogue with known analytic facts."""
    stream = stream or _sysmod.stdout
    width = max(len(name) for name in CATALOGUE_FACTS)
    stream.write(f"{'system':<{width}}  facts\n")
    stream.write(f"{'-' * width}  {'-' * 5}\n")
    for name, facts in CATALOGUE_FACTS.items():
        stream.write(f"{name:<{width}}  {facts}\n")
    return 0


def _oneoff(op, args, params):
    """Run a single registry op on a system and print its JSON result."""
    sys, header, [(kwargs, _)] = validate_scenario(
        {"system": args.system, "seed": args.seed or 0,
         "cloud_size": args.cloud_size}, [(op, params, None)])
    cloud = default_cloud(sys, header["cloud_size"])
    result = REGISTRY[op](sys, cloud, header["seed"], **kwargs)
    text = json.dumps(_jsonable(result), sort_keys=True, indent=2)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{op}.json").write_text(text + "\n")
    print(text)
    return 0


# one-off flags that set an analysis parameter store under this prefix
_PARAM = "param:"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ndistal",
        description="audits for N-distal dynamics on the system catalogue")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized probes (default: the "
                             "scenario's seed, else 0)")
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

    def common(p, op=None):
        p.add_argument("--system", required=True,
                       help="system id, e.g. annulus3 or rotation{alpha=0.3}")
        p.add_argument("--cloud-size", type=int, default=None)
        if op is not None:
            p.set_defaults(op=op)

    def param(p, flag, **kw):
        # absent unless given, so the op's own default applies; the
        # binder checks the value and rejects a name the op does not take
        name = flag[2:].replace("-", "_")
        p.add_argument(flag, dest=_PARAM + name, metavar=name.upper(),
                       type=_parse_value, default=argparse.SUPPRESS, **kw)

    p_prox = add_parser("proximal", help="distality report or one cell")
    common(p_prox, "distality_report")
    for flag in ("--H", "--eps", "--N-max"):
        param(p_prox, flag)
    one = p_prox.add_mutually_exclusive_group()
    param(one, "--index", help="cloud index for a single proximal cell")
    one.add_argument("--quotient", dest="op", action="store_const",
                     const="proximal_quotient",
                     help="also compute the proximal quotient")

    p_eq = add_parser("equicont", help="N-equicontinuity probe")
    common(p_eq, "n_equicontinuity_probe")
    param(p_eq, "--N", required=True)
    for flag in ("--epsilon", "--H"):
        param(p_eq, flag)
    param(p_eq, "--delta-grid", nargs="+")

    p_st = add_parser("structure", help="structural audits")
    common(p_st)
    p_st.add_argument("--op", default="theorem_3_5_audit",
                      choices=["theorem_3_5_audit", "prop_3_2_audit",
                               "minimal_subsystems", "transitive_check",
                               "expansivity_probe", "periodic_points"])
    for flag in ("--N", "--H", "--delta", "--T-max"):
        param(p_st, flag)

    p_en = add_parser("entropy", help="entropy estimates and bounds")
    common(p_en)
    p_en.add_argument("--op", default="metric_entropy_estimate",
                      choices=["metric_entropy_estimate",
                               "word_count_entropy", "ks_bound_audit"])
    for flag in ("--n-max", "--k", "--n"):
        param(p_en, flag)

    p_nd = add_parser("ndiam", help="N-diameter of a sampled cloud")
    common(p_nd, "diam_n_exact")
    param(p_nd, "--N", required=True)
    param(p_nd, "--size", help="use only the first SIZE cloud points")
    p_nd.add_argument("--bounds", dest="op", action="store_const",
                      const="diam_n_bounds",
                      help="greedy bounds instead of exact enumeration")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario, seed=args.seed, out=args.out)
        if args.command == "list-systems":
            return list_catalogue()
        params = {key[len(_PARAM):]: tuple(v) if isinstance(v, list) else v
                  for key, v in vars(args).items() if key.startswith(_PARAM)}
        # --index asks for one proximal cell instead of the whole report
        op = "proximal_cell" if "index" in params else args.op
        return _oneoff(op, args, params)
    except (ScenarioError, OSError) as exc:
        # OSError: an output directory that cannot be made or written
        print(f"error: {exc}", file=_sysmod.stderr)
        return 2
    except NDistalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sysmod.stderr)
        return 2
    except MemoryError as exc:
        # a cloud or horizon too large for this machine is a usage error
        print(f"error: out of memory: {exc}", file=_sysmod.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
