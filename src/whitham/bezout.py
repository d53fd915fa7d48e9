"""Polynomial identities AX - BY = C via confluent Vandermonde systems.

The deformation equations all take this shape.  Writing D = gcd(A, B) and
n = deg(B/D) - 1, the coefficients of the minimal X (degree at most n) solve
the linear system V(B/D) x = h(B/D, C/A): one block of rows per distinct
root beta of B/D, the rows being the monomial row [1, beta, ..., beta^n]
and its successive derivatives, the right-hand entries the successive
derivatives of the rational function C/A at beta.  The matrix is always
nonsingular; conditioning is another matter, which is why roots are
Leja-ordered and a warning is attached when the condition estimate is
large.  Y is recovered from BY = AX - C.  A caller that solves several
systems against one B (the gcd tower of ``deformation``) roots B once and
passes its ``RootSpec`` in.

Solvability requires gcd(A, B) | C; that precondition is checked
numerically and its failure is an error, never a silent least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoSolutionError, RealityViolationError
from .polyring import (
    Polynomial,
    approx_gcd,
    jet_divide,
    poly_jet,
    real_defect,
    roots,
    symmetrize,
)

DIVISIBILITY_RTOL = 1e-8
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class RootSpec:
    """Distinct roots with multiplicities; ``total`` counts them all."""

    entries: tuple  # of (complex root, int multiplicity)

    @property
    def total(self):
        return sum(m for _, m in self.entries)

    @staticmethod
    def of(poly):
        return RootSpec.ordered(roots(poly))

    @staticmethod
    def ordered(rs):
        """The spec of a ``roots`` list, Leja-ordered."""
        return RootSpec(tuple(leja_order(rs)))


def leja_order(root_mults):
    """Max-min (Leja-style) ordering of distinct roots.

    Starts from the largest modulus and greedily appends the root
    maximizing the product of distances to those already placed; this
    materially improves the conditioning of the Vandermonde solve.
    """
    items = list(root_mults)
    if not items:
        return []
    items.sort(key=lambda rm: (-abs(rm[0]), rm[0].real, rm[0].imag))
    ordered = [items.pop(0)]
    while items:
        best = max(
            range(len(items)),
            key=lambda i: (
                sum(np.log(abs(items[i][0] - r) + 1e-300) for r, _ in ordered),
                items[i][0].real,
                items[i][0].imag,
            ),
        )
        ordered.append(items.pop(best))
    return ordered


def confluent_vandermonde(spec, n):
    """The (n+1) x (n+1) confluent Vandermonde matrix at the given roots.

    Row block for a root beta of multiplicity r: d^m/dbeta^m of
    [1, beta, ..., beta^n] for m = 0..r-1.
    """
    if spec.total != n + 1:
        raise ValueError(f"root multiplicities sum to {spec.total}, expected {n + 1}")
    V = np.zeros((n + 1, n + 1), dtype=complex)
    row = 0
    for beta, r in spec.entries:
        for m in range(r):
            for j in range(m, n + 1):
                fac = 1.0
                for t in range(m):
                    fac *= j - t
                V[row, j] = fac * beta ** (j - m)
            row += 1
    return V


def _rhs_vector(spec, Cd, Ad):
    """h(B/D, C/A): derivatives of (C/D)/(A/D) at each root, jet-computed.

    Evaluated on the deflated pair so roots of D inside B do not poison the
    denominator.
    """
    h = np.zeros(spec.total, dtype=complex)
    row = 0
    for beta, r in spec.entries:
        jn = poly_jet(Cd, beta, r)
        jd = poly_jet(Ad, beta, r)
        q = jet_divide(jn, jd)
        fact = 1.0
        for m in range(r):
            h[row] = q[m] * fact
            fact *= m + 1
            row += 1
    return h


@dataclass(frozen=True)
class BezoutSolution:
    X: Polynomial
    Y: Polynomial
    residual: float
    condition: float = 0.0
    warnings: tuple = ()
    x_raw: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class SolutionSpace:
    base: BezoutSolution
    hom_X: Polynomial  # B/D
    hom_Y: Polynomial  # A/D
    param_degree: int

    def member(self, U):
        """Solution (X + U*hom_X, Y + U*hom_Y) for a parameter polynomial U."""
        return self.base.X + U * self.hom_X, self.base.Y + U * self.hom_Y


def _relative_residual(A, B, C, X, Y):
    AX, BY = A * X, B * Y
    scale = max(AX.norm(), BY.norm(), C.norm(), 1e-300)
    return (AX - BY - C).norm() / scale


def minimal_solution(A, B, C, known_gcd=None, spec=None):
    """Unique solution of AX - BY = C with deg X <= deg(B/D) - 1.

    ``known_gcd`` overrides the numerical gcd when coprimality (or a
    specific common factor) is known a priori.  ``spec`` is the
    ``RootSpec.of(B/D)`` when the caller has it already (the gcd tower
    keeps the specs of the divisors it solves against); otherwise B/D is
    rooted here.  A conditioning warning is
    attached when the Vandermonde condition number exceeds the cap; a
    ``NoSolutionError`` is raised when gcd(A, B) fails to divide C.
    """
    D = known_gcd if known_gcd is not None else approx_gcd(A, B)
    if D.degree > 0:
        Cd, rem = C.divmod(D)
        if rem.norm() > DIVISIBILITY_RTOL * max(C.norm(), 1e-300):
            raise NoSolutionError(
                f"gcd(A,B) of degree {D.degree} does not divide C "
                f"(remainder {rem.norm() / max(C.norm(), 1e-300):.2e})"
            )
        Ad = A.deflate(D)
        Bd = B.deflate(D)
    else:
        Cd, Ad, Bd = C, A, B
    warnings = []

    if Bd.degree <= 0:
        # B is (a scalar multiple of) the gcd: X is forced to zero
        X = Polynomial.zero()
        Y = (A * X - C).deflate(B)
        res = _relative_residual(A, B, C, X, Y)
        return BezoutSolution(X, Y, res, 0.0, (), np.zeros(0, dtype=complex))

    if spec is None:
        spec = RootSpec.of(Bd)
    n = Bd.degree - 1
    if spec.total != n + 1:
        # clustered multiplicity bookkeeping disagreed with the degree;
        # rebuild with a tight radius so the system stays square
        spec = RootSpec.ordered(roots(Bd, 1e-13))
        warnings.append("root multiplicity adjusted to match degree")
    V = confluent_vandermonde(spec, n)
    h = _rhs_vector(spec, Cd, Ad)
    x = np.linalg.solve(V, h)
    cond = float(np.linalg.cond(V))
    if cond > CONDITION_CAP:
        warnings.append(f"ill-conditioned Vandermonde system (cond ~ {cond:.2e})")
    X = Polynomial(x)
    Y, rem = (A * X - C).divmod(B)
    res = _relative_residual(A, B, C, X, Y)
    # one pass of polynomial-level iterative refinement when warranted
    if res > 1e-12:
        defect = C - (A * X - B * Y)
        if defect.norm() > 0:
            Dd, _ = defect.divmod(D) if D.degree > 0 else (defect, None)
            h2 = _rhs_vector(spec, Dd, Ad)
            x2 = np.linalg.solve(V, h2)
            X2 = X + Polynomial(x2)
            Y2, _ = (A * X2 - C).divmod(B)
            if _relative_residual(A, B, C, X2, Y2) < res:
                X, Y = X2, Y2
                x = x + x2
                res = _relative_residual(A, B, C, X, Y)
    return BezoutSolution(X, Y, res, cond, tuple(warnings), x)


def realify(A, B, C, a, b, c, sol):
    """Average a solution with its involution image (weights a, b, c).

    For real-section inputs this yields a solution whose components are
    real sections of weights (c-a, c-b); when the minimal solution is
    already real the averaging is the identity up to rounding.
    """
    for p, k, name in ((A, a, "A"), (B, b, "B"), (C, c, "C")):
        # a polynomial over its weight is refused whatever its coefficients
        if p.degree > k or real_defect(p, k) > 1e-8 * max(1.0, p.norm()):
            raise RealityViolationError(f"{name} is not a weight-{k} real section")
    X = symmetrize(sol.X, c - a)
    Y = symmetrize(sol.Y, c - b)
    return BezoutSolution(
        X, Y, _relative_residual(A, B, C, X, Y), sol.condition, sol.warnings, sol.x_raw
    )


def solution_space(A, B, C, a, b, c):
    """All real-section solutions in weights (c-a, c-b), for c >= a+b-d.

    The space is the minimal solution plus U*(B/D, A/D) over real-section
    parameters U of weight c-a-b+d.
    """
    D = approx_gcd(A, B)
    d = D.degree
    if c < a + b - d:
        raise ValueError(f"solution space requires c >= a+b-d ({c} < {a + b - d})")
    base = minimal_solution(A, B, C, known_gcd=D)
    base = realify(A, B, C, a, b, c, base)
    hom_X = B.deflate(D) if d > 0 else B
    hom_Y = A.deflate(D) if d > 0 else A
    return SolutionSpace(base, hom_X, hom_Y, c - a - b + d)
