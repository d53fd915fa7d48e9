"""Search for genus-1 case-(b) points with a quadratic common factor.

A genus-1 triple is in case (b) with a quadratic common factor G exactly
when every element of the numerator space V(P) is divisible by one weight-2
real section G, and the lattice plane W(P) is the plane its integers span
(see ``whitham.flow.numerator_space``).  This script runs the full chart
solve ``solve_common_factor`` (the (P, G, m1, m2) chart, exact Jacobian,
refreshed frame) from fixed pseudo-random pairs of branch points, each with

* G from the root pair of V(P) that comes closest to being shared
  (``_start_factor``), and
* the lattice integers of the rational plane nearest W(P) with denominator
  at most 12, A-integers 0 (``nearest_integers``; the same rule gives the
  recorded genus-2 quadratic start),

and passes each result through ``confirm_case_b(..., 2)``.

    PYTHONPATH=src python scripts/scan_genus1_base_pair.py

Deterministic (fixed seed).  Each start ends as ``interior`` (confirmed:
validated, classified (b) with deg G = 2, branch points more than
``HEALTH_FLOOR`` from degeneration), ``boundary`` (the solve converged but
the point is not confirmed; the reason is printed), ``stalled`` (the solve
raised: a round lowered the residual by less than 0.1%, or the last round
ended above tolerance) or ``no-start`` (the first basis numerator has no
root more than ``HEALTH_FLOOR`` inside the unit circle, so there is no G to
start from and no solve is run).
Seed 2026, 16 starts, about 20 s on 2 shared cores: 0 interior,
0 boundary, 11 stalled, 5 no-start (starts 1, 2, 5, 7, 10; start 7's
nearest root pair lies at |beta| = 0.9997).  Of the stalled solves, 10
ended at a round that gained less than 0.1%, at residuals 2.3 to 3.7e2,
and one (start 6) used all its rounds and ended at 3.4.  So no genus-1
quadratic-G point is known.
"""

from itertools import combinations

import numpy as np

from whitham.errors import WhithamError
from whitham.flow import HEALTH_FLOOR, confirm_case_b, numerator_space, solve_common_factor
from whitham.polyring import Polynomial, real_section_scale, roots_flat
from whitham.spectral import PsiFrame, SpectralTriple, lattice_order, product_form, unpack_section

GENUS = 1
STARTS = 16
SEED = 2026
MAX_DENOMINATOR = 12


def _start_factor(N):
    """The root pair of the first basis numerator closest to a root of the
    second, among its in-disc roots more than ``HEALTH_FLOOR`` inside the
    unit circle; ``None`` if it has no such root (a G with a root near the
    circle starts the solve next to a degenerate curve)."""
    r1, r2 = (roots_flat(unpack_section(N[:, i], GENUS + 3)) for i in range(2))
    inside = [a for a in r1 if 1.0 - abs(a) > HEALTH_FLOOR]
    if not inside:
        return None
    beta = min(inside, key=lambda a: min(abs(a - c) for c in r2))
    G, _ = real_section_scale(Polynomial.from_roots([beta, 1.0 / np.conj(beta)]))
    return G


def _plane_distance(A, B):
    """Sine of the largest principal angle between the column spaces."""
    s = np.linalg.svd(np.linalg.qr(A)[0].T @ np.linalg.qr(B)[0], compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - s.min() ** 2)))


def nearest_integers(W, g):
    """Lattice integers, in the order of ``psi``, of the rational plane
    nearest the plane W(P) (columns of ``W``: the images of a basis of V(P)
    in the order A.., B.., gamma+, gamma-; its A-rows vanish).

    Candidates are the planes spanned by q times the unit vectors on two
    pivot rows and the rounded rest of the basis of W(P) with that
    echelon form, for q <= ``MAX_DENOMINATOR``; the nearest by principal
    angle wins.  The two basis vectors are the integers of b1 and b2."""
    Wn = W[g:]
    best = None
    for rows in combinations(range(len(Wn)), 2):
        piv = Wn[list(rows)]
        if abs(np.linalg.det(piv)) < 1e-12:
            continue
        C = Wn @ np.linalg.inv(piv)
        for q in range(1, MAX_DENOMINATOR + 1):
            M = np.round(q * C)
            dist = _plane_distance(Wn, M)
            if best is None or dist < best[0]:
                best = (dist, q, M.astype(int))
    _, q, M = best
    # rows: the paths A.., B.., gamma+, gamma-; columns: b1 and b2
    per_path = np.vstack([np.zeros((g, 2), dtype=int), M])
    differential, path = lattice_order(g).T
    return tuple(int(n) for n in per_path[path, differential]), q


def solve_from(alphas):
    """How the chart solve from the branch points ``alphas`` ends, with its
    start: ``(kind, detail, G, integers, q)`` (``G`` is ``None`` for a
    ``no-start``)."""
    zero = Polynomial.zero()
    P = product_form(alphas)
    frame = PsiFrame.build(SpectralTriple(GENUS, P, zero, zero), quad_order=40)
    N, L = numerator_space(P, GENUS, frame)
    G = _start_factor(N)
    integers, q = nearest_integers(L @ N, GENUS)
    if G is None:
        return "no-start", "first basis numerator has no root well inside the disc", G, integers, q
    try:
        triple = solve_common_factor(alphas, G, integers)
    except WhithamError as exc:
        return "stalled", str(exc), G, integers, q
    try:
        confirm_case_b(triple, 2)
    except WhithamError as exc:
        return "boundary", str(exc), G, integers, q
    branch = [a for a in roots_flat(triple.P) if abs(a) < 1.0]
    return "interior", "branch points " + ", ".join(f"{a:.4f}" for a in branch), G, integers, q


def main():
    rng = np.random.default_rng(SEED)
    counts = {"interior": 0, "boundary": 0, "stalled": 0, "no-start": 0}
    for k in range(STARTS):
        alphas = [
            (0.15 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
            for _ in range(2)
        ]
        kind, detail, G, integers, q = solve_from(alphas)
        counts[kind] += 1
        G_roots = ", ".join(f"{abs(z):.3f}" for z in roots_flat(G)) if G is not None else "-"
        print(
            f"{k:2d} {kind:8s} alpha ({alphas[0]:.3f}, {alphas[1]:.3f})  "
            f"|roots of G| {G_roots}  "
            f"integers {integers} (q {q})  {detail}",
            flush=True,
        )
    print(", ".join(f"{kind} {n}" for kind, n in counts.items()) + f" of {STARTS}")


if __name__ == "__main__":
    main()
