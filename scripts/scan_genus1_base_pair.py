"""Search for genus-1 curves whose numerator space has a base pair.

A genus-1 triple is in case (b) with a quadratic common factor G exactly
when every element of the numerator space V(P) is divisible by one weight-2
real section G (see ``whitham.flow.numerator_space``).  This script solves
that condition alone - no lattice conditions - by Gauss-Newton in the two
branch points and G, from fixed pseudo-random starts, and prints where each
solve ends: converged, or the geometry it ran into.

    PYTHONPATH=src python scripts/scan_genus1_base_pair.py

Deterministic (fixed seed).  A start counts as an interior solution
only if it converges with every branch point at least 0.02 from the unit
circle and from the others, and at least 0.02 from zeta = 0.
"""

import numpy as np

from whitham.errors import WhithamError
from whitham.flow import _times_matrix, gauss_newton, numerator_space
from whitham.polyring import Polynomial, real_section_scale, roots_flat
from whitham.spectral import (
    PsiFrame,
    SpectralTriple,
    pack_section,
    product_form,
    unpack_section,
)

G_WEIGHT = 2
STARTS = 16
SEED = 2026
MAX_ITER = 120
# central-difference step of ``central_differences``, relative to max(1, |x_j|)
FD_STEP = 1e-6


def _projector(A):
    """Orthogonal projector onto the column space of A (full column rank)."""
    q, _ = np.linalg.qr(A)
    return q @ q.T


def central_differences(residual):
    """``residual`` (x -> r) in the form ``gauss_newton`` takes, with a
    central-difference Jacobian: the base-pair residual runs through SVD and
    QR projectors and so has no closed-form derivative.  A coordinate whose
    stepped points are inadmissible falls back to a one-sided difference,
    and to a zero column if both are."""

    def with_jacobian(x):
        r = residual(x)

        def jacobian():
            J = np.empty((r.size, x.size))
            for j in range(x.size):
                dx = FD_STEP * max(1.0, abs(x[j]))
                xp = x.copy()
                xp[j] += dx
                xm = x.copy()
                xm[j] -= dx
                try:
                    J[:, j] = (residual(xp) - residual(xm)) / (2.0 * dx)
                except WhithamError:
                    try:
                        J[:, j] = (residual(xp) - r) / dx
                    except WhithamError:
                        try:
                            J[:, j] = (r - residual(xm)) / dx
                        except WhithamError:
                            J[:, j] = 0.0
            return J

        return r, jacobian

    return with_jacobian


def _space(alphas):
    P = product_form(alphas)
    one = Polynomial.one()
    frame = PsiFrame.build(SpectralTriple(1, P, one, one), quad_order=32)
    return numerator_space(P, 1, frame)[0]


def _start_factor(N):
    """The in-disc root pair of the first basis numerator closest to a root
    of the second."""
    r1, r2 = (roots_flat(unpack_section(N[:, i], 4)) for i in range(2))
    beta = min(
        (a for a in r1 if abs(a) < 1.0),
        key=lambda a: min(abs(a - c) for c in r2),
        default=0.5j,
    )
    G, _ = real_section_scale(Polynomial.from_roots([beta, 1.0 / np.conj(beta)]))
    return G


def solve_from(alphas):
    N0 = _space(alphas)

    def unpack(x):
        return [complex(x[0], x[1]), complex(x[2], x[3])]

    def residual(x):
        al = unpack(x)
        if max(abs(a) for a in al) > 0.995:
            raise WhithamError("branch point left the disc")
        N = _space(al)
        B = N @ (N.T @ N0)
        G = unpack_section(x[4:] / np.linalg.norm(x[4:]), G_WEIGHT)
        return (B - _projector(_times_matrix(G, 4 - G_WEIGHT)) @ B).ravel()

    x0 = np.concatenate(
        [np.ravel([[a.real, a.imag] for a in alphas]),
         pack_section(_start_factor(N0), G_WEIGHT)]
    )
    res = gauss_newton(central_differences(residual), x0, tol=1e-10, max_iter=MAX_ITER)
    al = unpack(res.x)
    pts = al + [1.0 / np.conj(a) for a in al]
    circle = min(abs(abs(p) - 1.0) for p in pts)
    sep = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :])
    g_roots = roots_flat(unpack_section(res.x[4:], G_WEIGHT))
    return res, al, circle, sep, g_roots


def main():
    rng = np.random.default_rng(SEED)
    interior = 0
    for k in range(STARTS):
        alphas = [
            (0.15 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
            for _ in range(2)
        ]
        res, al, circle, sep, g_roots = solve_from(alphas)
        near_zero = min(abs(a) for a in al)
        healthy = min(circle, sep, near_zero) >= 0.02
        interior += res.status == "converged" and healthy
        print(
            f"{k:2d} {res.status:9s} |r| {res.norm:.1e}  "
            f"alpha ({al[0]:.3f}, {al[1]:.3f})  circle {circle:.3f}  "
            f"separation {sep:.3f}  min|alpha| {near_zero:.3f}  "
            f"|roots of G| {', '.join(f'{abs(z):.3f}' for z in g_roots)}",
            flush=True,
        )
    print(f"interior solutions: {interior} of {STARTS}")


if __name__ == "__main__":
    main()
