"""The benchmark's three workloads and the verdict each analysis must give.

A workload is a fixed list of verdict-producing analyses that one caller
runs one after another in one process (a closed loop: each analysis starts
when the previous one returns).  Every expected verdict below comes from
`CATALOGUE_FACTS`, from the acceptance criteria in tests/test_acceptance.py,
or, where a fact is about the whole space and not about a finite cloud, from
how the cloud is built; never from what the program happens to print.

The seed permutes the order of every sampled cloud outside the scenarios.
Cloud order is arbitrary (the library says so where it picks base points),
so each verdict must hold for every seed, and the amount of work does not
depend on it.  The scenario files are the benchmark's own frozen copies and
run with the seed in their header, so their report.json is the same bytes
on every pass.

Why these three workloads:
  torus    skew_torus and rotation on grid clouds.  The vectorized orbit-min
           sweep and the equicontinuity spot checks (a pointwise loop) do
           almost all the work; the shift analytics and structure do none.
  annulus  annulus3.  The fixed-target visit sweep of structure dominates,
           and the same kernels also run on the pointwise path through a
           conjugate, so a gain for one kernel path that costs another
           shows here.
  shift    shift2.  The only workload on the analytic shift kernels and
           their (m, m, 2W+1) memory peak, plus the pointwise symbolic visit
           path; neither the vector sweep nor equicont does any work.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ndistal import cli, entropy, equicont, proximal, structure, systems
from ndistal.points import PointCloud, Torus
from speed import calibration_s

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

# Verdicts known to contradict CATALOGUE_FACTS at the seed commit.  They
# stay in the workload and count in `failed`; they do not make the run
# incorrect, so the benchmark keeps measuring while the defect is open.
KNOWN_DEFECTS = {
    "shift2.distality_report":
        "both the H and the 2H orbit minima sit at the 2^-64 floor, so the "
        "stability filter rejects every edge and the shift reads 'distal'",
}


@dataclass
class Outcome:
    label: str
    mismatch: Optional[str] = None   # None when the verdict is the expected one
    digest: Optional[str] = None     # sha256 of a scenario's report.json


@dataclass
class Analysis:
    label: str
    run: Callable          # (inputs, out_dir) -> list of Outcome
    expected: str          # the expected verdict and where it comes from


@dataclass
class Workload:
    name: str
    build: Callable        # seed -> inputs
    analyses: tuple
    clouds: dict           # cloud label -> size, for the run context
    horizons: dict         # analysis label -> the horizons H it uses


def _permuted(cloud, rng):
    order = rng.permutation(len(cloud))
    return PointCloud(tuple(cloud.points[i] for i in order),
                      cloud.provenance, cloud.system_id)


def _expect(label, ok, got):
    """One outcome: a mismatch reporting `got` unless `ok`."""
    return [Outcome(label, None if ok else f"got {got!r}")]


def _scenario(name, expected):
    path = SCENARIO_DIR / f"{name}.scn"

    def run(inputs, out_dir):
        out = out_dir / name
        code = cli.run_scenario(str(path), out=str(out))
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
        digest = hashlib.sha256(raw).hexdigest()
        outcomes = []
        for rec in report["analyses"]:
            bad = None if rec.get("passed") is True else \
                rec.get("error") or f"asserts failed: {rec.get('checks')}"
            outcomes.append(Outcome(f"{name}:{rec['op']}", bad, digest))
        if code != 0 and all(o.mismatch is None for o in outcomes):
            outcomes.append(Outcome(f"{name}:exit", f"exit code {code}"))
        return outcomes

    return Analysis(f"scenario.{name}", run, expected)


# ---------------------------------------------------------------------------
# torus: skew_torus and rotation on grid clouds
# ---------------------------------------------------------------------------

def _torus_inputs(seed):
    rng = np.random.default_rng(seed)
    skew = systems.get_system("skew_torus")
    rot = systems.get_system("rotation")
    return {"skew": skew, "skew_grid": _permuted(skew.sampler(24), rng),
            "rot": rot, "rot_grid": _permuted(rot.sampler(256), rng)}


def _skew_distality(inp, out_dir):
    rep = proximal.distality_report(inp["skew"], inp["skew_grid"], H=200)
    return _expect("skew_torus.distality_report", rep.verdict == "distal",
                   rep.verdict)


def _rot_distality(inp, out_dir):
    rep = proximal.distality_report(inp["rot"], inp["rot_grid"])
    return _expect("rotation.distality_report", rep.verdict == "distal",
                   rep.verdict)


def _rot_probe(inp, out_dir):
    v = equicont.n_equicontinuity_probe(inp["rot"], inp["rot_grid"], N=1,
                                        epsilon=0.2, seed=0)
    return _expect("rotation.n_equicontinuity_probe",
                   v.passed and all(v.spot_checks),
                   {"passed": v.passed, "spot_checks": v.spot_checks})


def _rot_entropy(inp, out_dir):
    cloud = inp["rot_grid"]
    est = entropy.metric_entropy_estimate(
        inp["rot"], entropy.default_partition(cloud, 2),
        entropy.uniform_measure(cloud), 200, cloud)
    return _expect("rotation.metric_entropy_estimate", est.value <= 0.05,
                   est.value)


TORUS = Workload(
    "torus", _torus_inputs,
    (_scenario("skew_equicont",
               "its asserts: shear witness n=3, and the N=2 probe fails "
               "(skew_torus: not N-equicontinuous for any N)"),
     Analysis("skew_torus.distality_report", _skew_distality,
              "'distal' (skew_torus: distal)"),
     Analysis("rotation.distality_report", _rot_distality,
              "'distal' (rotation: distal, an isometry)"),
     Analysis("rotation.n_equicontinuity_probe", _rot_probe,
              "passes with every spot check true (rotation: "
              "equicontinuous; f^n R_delta(x) = R_delta(f^n x) always)"),
     Analysis("rotation.metric_entropy_estimate", _rot_entropy,
              "value <= 0.05 at n_max=200 (criterion 10; an isometry has "
              "zero entropy)")),
    clouds={"skew_equicont.scn": 576, "skew_torus grid 24x24": 576,
            "rotation grid": 256},
    horizons={"scenario.skew_equicont": (200,),
              "skew_torus.distality_report": (200,),
              "rotation.distality_report": (200,),
              "rotation.n_equicontinuity_probe": (200,),
              "rotation.metric_entropy_estimate": (200,)})


# ---------------------------------------------------------------------------
# annulus: annulus3, its structure audits and a pointwise conjugate
# ---------------------------------------------------------------------------

CONJ_H = 14  # sized so the conjugate takes about a quarter of a pass


def _annulus_inputs(seed):
    rng = np.random.default_rng(seed)
    ann = systems.get_system("annulus3")
    small = _permuted(ann.sampler(16), rng)
    return {"ann": ann,
            "ann_default": _permuted(ann.sampler(256), rng),
            "ann_128": _permuted(ann.sampler(128), rng),
            "ann_16": small,
            "conj": systems.conjugate_system(ann, ann.step, ann.step_inv),
            "conj_image": PointCloud(tuple(ann.step(p) for p in small.points),
                                     "image", ann.id)}


def _ann_distality(inp, out_dir):
    rep = proximal.distality_report(inp["ann"], inp["ann_default"])
    return _expect("annulus3.distality_report",
                   rep.verdict == "3-distal, not 2-distal", rep.verdict)


def _ann_quotient(inp, out_dir):
    rep = proximal.distality_report(inp["ann"], inp["ann_128"], N_max=3)
    q = proximal.proximal_quotient(rep, inp["ann"])
    ok = not q.is_equivalence
    if ok:
        i, j, k = q.violating_triple
        g = rep.graph
        ok = bool(g[i, j] and g[j, k] and not g[i, k])
    return _expect("annulus3.proximal_quotient", ok, q.as_dict())


def _ann_theorem(inp, out_dir):
    rec = structure.theorem_3_5_audit(
        inp["ann"], 3, inp["ann_128"], H=2000,
        gap_bound=lambda d: int(math.ceil(16.0 / d)))
    return _expect("annulus3.theorem_3_5_audit",
                   rec.applicable and rec.passed
                   and rec.details.get("n_minimal") == 2, rec.as_dict())


def _conj_distality(inp, out_dir):
    rep = proximal.distality_report(inp["conj"], inp["conj_image"], H=CONJ_H)
    base = proximal.distality_report(inp["ann"], inp["ann_16"], H=CONJ_H)
    same = [c.size() for c in rep.cells] == [c.size() for c in base.cells]
    return _expect("conjugate.distality_report",
                   rep.verdict == "3-distal, not 2-distal" and same,
                   {"verdict": rep.verdict, "same_cell_sizes": same})


ANNULUS = Workload(
    "annulus", _annulus_inputs,
    (_scenario("annulus3_audit",
               "its asserts: '3-distal, not 2-distal', 2 minimal subsystems, "
               "theorem 3.5 passes (annulus3 facts)"),
     Analysis("annulus3.distality_report", _ann_distality,
              "'3-distal, not 2-distal' (annulus3 facts)"),
     Analysis("annulus3.proximal_quotient", _ann_quotient,
              "not an equivalence, with a valid violating triple "
              "(criterion 7)"),
     Analysis("annulus3.theorem_3_5_audit", _ann_theorem,
              "applicable and passed with 2 proper minimal subsystems "
              "(criterion 8; annulus3: 2 minimal subsystems)"),
     Analysis("conjugate.distality_report", _conj_distality,
              "'3-distal, not 2-distal' with the cell sizes of annulus3 "
              "itself (criterion 5: conjugacy preserves the cells)")),
    clouds={"annulus3_audit.scn": 209, "annulus3 default": 593,
            "annulus3 sampler(128)": 337, "conjugate image sampler(16)": 113},
    horizons={"scenario.annulus3_audit": (200, 2000),
              "annulus3.distality_report": (200,),
              "annulus3.proximal_quotient": (200,),
              "annulus3.theorem_3_5_audit": (200, 2000),
              "conjugate.distality_report": (CONJ_H,)})


# ---------------------------------------------------------------------------
# shift: shift2 on the analytic and the pointwise symbolic paths
# ---------------------------------------------------------------------------

def _shift_inputs(seed):
    rng = np.random.default_rng(seed)
    sh = systems.get_system("shift2")
    return {"shift": sh, "shift_default": _permuted(sh.sampler(4), rng),
            "shift_3": _permuted(sh.sampler(3), rng)}


def _shift_distality(inp, out_dir):
    rep = proximal.distality_report(inp["shift"], inp["shift_default"])
    return _expect("shift2.distality_report",
                   rep.verdict.startswith("not "), rep.verdict)


def _shift_transitive(inp, out_dir):
    # Being within 0.05 means agreeing on the 9 central symbols.  Every
    # sampled word point has at most 7 ones, so its orbit never comes that
    # close to the all-ones fixed point, whose own orbit stays put: the
    # catalogue's transitive point is not in this cloud.
    point = structure.transitive_check(inp["shift"], inp["shift_3"], H=50)
    return _expect("shift2.transitive_check", point is None, point)


SHIFT = Workload(
    "shift", _shift_inputs,
    (_scenario("shift2_suite",
               "its asserts: word-count entropy log 2, expansive at 0.25 "
               "(shift2: expansive, positive entropy log 2)"),
     Analysis("shift2.distality_report", _shift_distality,
              "'not N-distal ...' (shift2: not N-distal for any N)"),
     Analysis("shift2.transitive_check", _shift_transitive,
              "None: no point of this cloud is 0.05-dense within |n| <= 50")),
    clouds={"shift2_suite.scn": 513, "shift2 default sampler(4)": 513,
            "shift2 sampler(3)": 129},
    horizons={"scenario.shift2_suite": (20,),
              "shift2.distality_report": (200,),
              "shift2.transitive_check": (50,)})

WORKLOADS = {w.name: w for w in (TORUS, ANNULUS, SHIFT)}


def run_pass(workload, inputs, out_dir, tracer=None):
    """Run every analysis of the workload once.  Returns the outcomes, each
    analysis's wall time, and the calibration times taken before the first
    analysis and after each one (see speed.py)."""
    outcomes, seconds, calibrations = [], {}, [calibration_s()]
    for analysis in workload.analyses:
        scope = tracer.analysis_span(analysis.label) if tracer \
            else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            try:
                found = analysis.run(inputs, out_dir)
            except Exception as exc:  # a raising analysis counts as failed
                found = [Outcome(analysis.label,
                                 f"raised {type(exc).__name__}: {exc}")]
        seconds[analysis.label] = time.perf_counter() - t0
        calibrations.append(calibration_s())
        for o in found:
            if o.mismatch is not None:
                o.mismatch += f"; expected {analysis.expected}"
        outcomes.extend(found)
    return outcomes, seconds, calibrations


def torus_difference_ratio(inputs):
    """Distinct p - q classes (mod 1) over all ordered pairs, for each torus
    grid cloud: the input property a difference-class sweep would use."""
    ratios = {}
    for key, cloud in inputs.items():
        if not (isinstance(cloud, PointCloud) and cloud.points
                and isinstance(cloud.points[0], Torus)):
            continue
        P = np.array([[p.x, p.y] for p in cloud.points])
        d = np.mod(P[:, None, :] - P[None, :, :], 1.0)
        keys = np.mod(np.round(d * 1e9), 1e9).reshape(-1, 2)
        ratios[key] = len(np.unique(keys, axis=0)) / len(keys)
    return ratios
