"""Isolated calls to the public functions, layer by layer, at genus 0, 1, 2.

The inputs are fixed (they do not follow the workload seed) so the table
reads the same way in every run: the default genus-0 seed, the genus-1
seed, and the well-separated genus-2 curve with the numerators of seed 0.
``project_to_mg`` and ``flow_step`` need an admissible point, and none
exists at genus 2 yet, so they are measured at genus 0 and 1 only.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from whitham.curve import build_curve, homology_basis, integrate_batch
from whitham.deformation import tangent_basis
from whitham.flow import flow_step, project_to_mg, seed_genus0, seed_genus1
from whitham.polyring import roots
from whitham.spectral import PsiFrame, pack_triple, psi, psi_jacobian, unpack_triple

from workloads import genus2_triples

TABLE_SEED = 0
PERTURBATION = 1e-5  # size of the fixed kick that project_to_mg undoes
MIN_REPS, MAX_REPS, MIN_TOTAL_S = 3, 200, 0.1
NO_ADMISSIBLE = {2: ("project_to_mg", "flow_step")}


def _median_ms(fn):
    times = []
    while len(times) < MIN_REPS or (sum(times) < MIN_TOTAL_S and len(times) < MAX_REPS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_table():
    """``layer_ms.<function>.g<k>`` -> median milliseconds of one call."""
    points = (seed_genus0(), seed_genus1(), genus2_triples(TABLE_SEED, 1)[0])
    rng = np.random.default_rng(TABLE_SEED)
    out = {}
    for g, t in enumerate(points):
        cur = build_curve(t.P)
        basis = homology_basis(cur)
        frame = PsiFrame.build(t)
        frame48 = PsiFrame.build(t, quad_order=48)
        row = {
            "roots": lambda: roots(t.P),
            "build_curve": lambda: build_curve(t.P),
            "homology_basis": lambda: homology_basis(cur),
            "integrate_batch": lambda: integrate_batch(cur, [t.b1, t.b2], basis.gamma_plus),
            "psi": lambda: psi(t, frame=frame),
            "psi_jacobian": lambda: psi_jacobian(t, frame=frame48),
            "tangent_basis": lambda: tangent_basis(t),
        }
        if g not in NO_ADMISSIBLE:
            x = pack_triple(t)
            guess = unpack_triple(x + PERTURBATION * rng.standard_normal(x.size), g)
            lattice = psi(t, frame=frame).lattice_integers()
            v = tangent_basis(t)[0][0]
            row["project_to_mg"] = lambda: project_to_mg(guess, lattice_targets=lattice)
            row["flow_step"] = lambda: flow_step(t, v, 0.01, lattice=lattice)
        for name, fn in row.items():
            out[f"layer_ms.{name}.g{g}"] = _median_ms(fn)
    return out


LAYER_NAMES = tuple(
    f"layer_ms.{name}.g{g}"
    for g in range(3)
    for name in ("roots", "build_curve", "homology_basis", "integrate_batch", "psi",
                 "psi_jacobian", "tangent_basis", "project_to_mg", "flow_step")
    if name not in NO_ADMISSIBLE.get(g, ())
)
