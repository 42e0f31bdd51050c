"""The benchmark's tracer, `bench/tracing.py`, on the library's layout.

The tracer wraps each public function at every module attribute bound to
it, builds systems through `ndistal.systems.get_system` and instruments
every pointwise and array method name of a system, `arr_embed` and
`arr_take` included; `bench/run.py --trace 1` breaks when one of these
moves."""

import importlib.util
from pathlib import Path

from ndistal import proximal, systems
from ndistal.systems import Rotation, annulus3, product_system

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_every_family():
    tracing = load_tracing()
    names = tracing.POINTWISE + tracing.ARRAY
    get_system, report = systems.get_system, proximal.distality_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the wrapped get_system instruments what it builds
        built = [systems.get_system(name)
                 for name in ("skew_torus", "annulus3", "shift2")]
        product = tracer.instrument(product_system(Rotation(), annulus3()))
        clouds = [s.sampler(res) for s, res in zip(built, (4, 4, 2))]
        clouds.append(product.cross(Rotation().sampler(4),
                                    annulus3().circles_cloud(4)))
        with tracer.analysis_span("families"):
            for sys, cloud in zip((*built, product), clouds):
                assert all(name in vars(sys) for name in names), sys
                proximal.distality_report(sys, cloud, 10)
    finally:
        tracer.uninstall()
    assert systems.get_system is get_system
    assert proximal.distality_report is report
    assert not any(name in vars(sys) for sys in (*built, product)
                   for name in names)
    metrics = tracer.metrics()
    reports = {k for k, s in enumerate(tracer.spans)
               if s.name == "proximal.distality_report"}
    assert len(reports) == 4
    # each report, one per family, ran the one co-moving kernel, traced
    # as its own span under the report
    assert {s.parent for s in tracer.spans
            if s.name == "kernels.comoving"} == reports
    assert metrics["systems.arr_calls"][0] > 0
