"""The system contracts and the catalogue of example systems.

Every system is an invertible map on a compact metric space together with
an exact metric and a canonical sampler, a subclass of `DynSystem`
(`ndistal.base`).  The families live in their own modules: `torus`
(rotation, skew torus, identity), `annulus`, `shift` and `wrappers`
(product, power, conjugate); this module re-exports their public names.

States.  A system states its map once, as ``iterate(p, n)`` = f^n(p) for
any integer n, and ``arr_iterate(state, n)``, f^n of a whole state in one
jump, bit for bit the state of the points ``iterate`` gives.  A state is
what ``arr_state`` builds from a point list: by default the list itself,
which ``arr_step`` moves one point at a time by ``iterate``; the torus and
annulus systems, products and powers hold numpy states.  ``DynSystem``
derives ``step`` and ``step_inv`` from ``iterate``.

The two metric forms.  A system states its metric once, as the array
metric: ``arr_cdist`` (the distance matrix between two states) and
``arr_edist`` (elementwise distances between two equal-length states).
``DynSystem`` derives ``dist`` as ``arr_edist`` on one-point states, so a
pointwise distance equals the ``arr_cdist`` entry bit for bit, and
``arr_pdist(state)`` as ``arr_cdist(state, state)``.

The three hooks.  The kernels reach orbits only through
``comoving_pairs`` (the extremes over a window |n - centre| <= h, of every
pair or of the pairs that may lie under ``below``), ``visit_minima`` and
``return_distances`` (each point's distance to its own iterates), on
states; the analysis modules step no orbit themselves.  Each default
runs the orbit engine of ``kernels``.  ``below``: the contract of a list
under a threshold is stated at ``DynSystem.comoving_pairs``.  The closed
forms are described at their methods: `ShiftSystem.comoving_pairs`,
`.visit_minima`, `.return_distances` and `.arr_cdist`;
`_TorusBase.comoving_pairs` and `._near_pairs`;
`AnnulusSystem.comoving_pairs`, `.visit_minima`, `.return_distances` and
`._near_pairs`.  The skew torus also overrides
``equicontinuity_witness`` with its shear.

Catalogue (ids):
    rotation       circle rotation by alpha, embedded at y=0 on the torus
    skew_torus     (x, y) -> (x + alpha, y + x) on the 2-torus
    annulus3       two boundary circles plus one wandering orbit between them
    annulusN       boundary circles plus N-2 wandering orbits (4 <= N <= 1024)
    annulus2       one circle plus an orbit approaching it in both directions
    shift2         full shift on two symbols
    identity       identity map on the torus

The default irrational angle is (sqrt(5)-1)/2.
"""

from __future__ import annotations

import re

from .annulus import (ABS, ANNULUS_N_MAX, REACH, SQ, AnnulusSystem, annulus2,
                      annulus3, annulusN)
from .base import GOLDEN, DynSystem
from .errors import ParameterError
from .shift import GCAP, GRID_BITS, ShiftSystem, shift2
from .torus import IdentityTorus, Rotation, SkewTorus
from .wrappers import (CONJUGACY_TOL, ConjugateSystem, PowerSystem,
                       ProductSystem, conjugate_system, power_system,
                       product_system)

CATALOGUE_FACTS = {
    "rotation": "distal (isometry), minimal, equicontinuous; Omega=AP=X; "
                "0 proper minimal subsystems",
    "skew_torus": "distal, minimal, not N-equicontinuous for any N; "
                  "Omega=AP=X; zero entropy",
    "annulus3": "3-distal, not 2-distal; transitive; 2 minimal subsystems "
                "(the two circles); Omega = circles = AP",
    "annulusN": "N-distal, not (N-1)-distal; 2 minimal subsystems; "
                "Omega = circles = AP",
    "annulus2": "2-distal, not distal; 1 minimal subsystem; Omega = circle = AP",
    "shift2": "expansive, not N-distal for any N; transitive; "
              "positive entropy log 2",
    "identity": "distal (1-distal), every point periodic with period 1",
}

_BUILDERS = {
    "rotation": Rotation,
    "skew_torus": SkewTorus,
    "annulus3": annulus3,
    "annulusN": annulusN,
    "annulus2": annulus2,
    "shift2": shift2,
    "identity": IdentityTorus,
}


def catalogue():
    """One instance of every example system with default parameters."""
    return [b() for b in _BUILDERS.values()]


_SPEC_RE = re.compile(r"^(\w+)(?:\{(.*)\})?$")


def _number(text, spec):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    raise ParameterError(f"bad number {text!r} in {spec!r}")


def get_system(spec: str) -> DynSystem:
    """Build a catalogue system from 'name' or 'name{key=value,...}'."""
    m = _SPEC_RE.match(spec.strip())
    if not m or m.group(1) not in _BUILDERS:
        raise ParameterError(f"unknown system spec {spec!r}")
    name, args = m.group(1), {}
    if m.group(2):
        for kv in m.group(2).split(","):
            k, _, v = kv.partition("=")
            if not _:
                raise ParameterError(f"bad parameter {kv!r} in {spec!r}")
            args[k.strip()] = _number(v, spec)
    try:
        return _BUILDERS[name](**args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad parameters for {name}: {exc}") from exc
