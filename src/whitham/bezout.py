"""Polynomial identities AX - BY = C via confluent Vandermonde systems.

The deformation equations all take this shape.  Writing D = gcd(A, B) and
n = deg(B/D) - 1, the coefficients of the minimal X (degree at most n) solve
the linear system V(B/D) x = h(B/D, C/A): one block of rows per distinct
root beta of B/D, the rows being the monomial row [1, beta, ..., beta^n]
and its successive derivatives, the right-hand entries the successive
derivatives of the rational function C/A at beta.  The matrix is always
nonsingular; conditioning is another matter, which is why roots are
Leja-ordered and a warning is attached when the condition estimate is
large.  Y is recovered from BY = AX - C.  The matrix depends on the roots
alone, so a ``RootSpec`` carries it: the spec builds its matrix on the
first solve against it and its condition number right after that solve,
and every later solve reuses both.  A caller that solves several systems
against one B (the gcd tower of ``deformation``) roots B once and passes
its ``RootSpec`` in, so the system is built once per divisor.

``minimal_solution`` solves one system (A, B) for a sequence of
right-hand sides: the gcd, the deflations, the spec, the jets of A/D at
the roots and the conditioning warning are done once per call, and one
``np.linalg.solve`` takes one column per right-hand side.  Each column is
then trimmed, checked and refined on its own, so its solution is, bit for
bit, the one a call with that right-hand side alone gives; a column that
leaves the float range raises ``NumericalFailureError``.  ``realify``
takes the solutions of one system likewise and checks A and B once.

Solvability requires gcd(A, B) | C; that precondition is checked
numerically and its failure is an error, never a silent least-squares fit.

``minimal_solution`` and ``realify`` take ``Polynomial``s but form every
intermediate on coefficient arrays (``polyring.c_*``): the product A X is
formed once per column and feeds both Y = (A X - C) / B and the relative
residual (``_residual``).  A solution keeps the coefficients of X and Y
and builds their ``Polynomial``s only when read, and a ``realify``
solution forms its residual only when read.  The results are those of
the ``Polynomial`` operators, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NoSolutionError, NumericalFailureError, RealityViolationError
from .polyring import (
    Polynomial,
    approx_gcd,
    c_add,
    c_deflate,
    c_divmod,
    c_mul,
    c_norm,
    c_sub,
    c_symmetrize,
    jet_divide,
    poly_jet,
    real_defect,
    roots,
    trim,
)

DIVISIBILITY_RTOL = 1e-8
CONDITION_CAP = 1e12


@dataclass(frozen=True)
class RootSpec:
    """Distinct roots with multiplicities; ``total`` counts them all.

    The spec carries its system: ``matrix``, the confluent Vandermonde
    matrix (n = total - 1), and ``condition``, its condition number, each
    built on first use and then kept."""

    entries: tuple  # of (complex root, int multiplicity)

    @property
    def total(self):
        return sum(m for _, m in self.entries)

    @cached_property
    def matrix(self):
        """``confluent_vandermonde(self, total - 1)``, read-only."""
        V = confluent_vandermonde(self, self.total - 1)
        V.flags.writeable = False
        return V

    @cached_property
    def condition(self):
        """``np.linalg.cond`` of ``matrix``."""
        return float(np.linalg.cond(self.matrix))

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
    _check_square(spec, n)
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


def _check_square(spec, n):
    """The system of ``spec`` is (n+1) x (n+1), or ``ValueError``."""
    if spec.total != n + 1:
        raise ValueError(f"root multiplicities sum to {spec.total}, expected {n + 1}")


def _rhs_vector(spec, Cd, jets):
    """h(B/D, C/A): derivatives of (C/D)/(A/D) at each root, jet-computed
    from the coefficients Cd of C/D and the Taylor jets of A/D at each root
    of ``spec`` (``poly_jet`` to the root's multiplicity).

    Evaluated on the deflated pair so roots of D inside B do not poison the
    denominator.
    """
    h = np.zeros(spec.total, dtype=complex)
    row = 0
    for (beta, r), jd in zip(spec.entries, jets):
        q = jet_divide(poly_jet(Cd, beta, r), jd)
        fact = 1.0
        for m in range(r):
            h[row] = q[m] * fact
            fact *= m + 1
            row += 1
    return h


class _Pair:
    """X and Y of a solution, each built as a ``Polynomial`` from the
    coefficient arrays ``x`` and ``y`` when first read."""

    @cached_property
    def X(self):
        return Polynomial(self.x)

    @cached_property
    def Y(self):
        return Polynomial(self.y)


@dataclass(frozen=True)
class BezoutSolution(_Pair):
    """A solution (X, Y) of AX - BY = C: ``x`` and ``y`` are the trimmed
    coefficients of X and Y (``X`` and ``Y`` are their ``Polynomial``s),
    ``x_raw`` the solve's untrimmed X."""

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    residual: float
    condition: float = 0.0
    warnings: tuple = ()
    x_raw: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class RealSolution(_Pair):
    """``realify``'s average of a solution of AX - BY = C, with the
    condition, warnings and ``x_raw`` of the solution averaged; ``system``
    is (A, B, C), from which the relative residual is formed when first
    read."""

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    condition: float
    warnings: tuple
    x_raw: np.ndarray = field(repr=False)
    system: tuple = field(repr=False)

    @cached_property
    def residual(self):
        return _relative_residual(*self.system, self.X, self.Y)


@dataclass(frozen=True)
class SolutionSpace:
    base: RealSolution
    hom_X: Polynomial  # B/D
    hom_Y: Polynomial  # A/D
    param_degree: int

    def member(self, U):
        """Solution (X + U*hom_X, Y + U*hom_Y) for a parameter polynomial U."""
        return self.base.X + U * self.hom_X, self.base.Y + U * self.hom_Y


def _relative_residual(A, B, C, X, Y):
    """|AX - BY - C| / max(|AX|, |BY|, |C|, 1e-300) of a solution (X, Y)."""
    return _residual(A.coeffs, B.coeffs, C.coeffs, C.norm(), c_mul(A.coeffs, X.coeffs), Y.coeffs)


def _residual(a, b, c, c_n, ax, y):
    """``_relative_residual`` on the coefficients a, b, c of A, B, C, given
    |C| = c_n and the product ax of A X, which the caller has formed."""
    by = c_mul(b, y)
    scale = max(c_norm(ax), c_norm(by), c_n, 1e-300)
    return c_norm(c_sub(c_sub(ax, by), c)) / scale


def _quotient_by_gcd(c, c_n, D):
    """The coefficients of C/D, or ``NoSolutionError`` when D fails to
    divide C (|C| = c_n)."""
    cd, rem = c_divmod(c, D.coeffs)
    if c_norm(rem) > DIVISIBILITY_RTOL * max(c_n, 1e-300):
        raise NoSolutionError(
            f"gcd(A,B) of degree {D.degree} does not divide C "
            f"(remainder {c_norm(rem) / max(c_n, 1e-300):.2e})"
        )
    return cd


@np.errstate(over="ignore", invalid="ignore")  # inf or nan past the float range: not finite
def minimal_solution(A, B, Cs, known_gcd=None, spec=None):
    """Unique solutions of AX - BY = C with deg X <= deg(B/D) - 1, one for
    each right-hand side C of the non-empty sequence ``Cs``, in order.

    What the system (A, B) shares is done once per call: the gcd D
    (``known_gcd`` overrides the numerical gcd when coprimality, or a
    specific common factor, is known a priori), the deflations by D, the
    spec (``spec`` is the ``RootSpec.of(B/D)`` when the caller has it
    already: the gcd tower keeps the specs of the divisors it solves
    against, so each builds its system once; otherwise B/D is rooted here),
    the jets of A/D at its roots and the conditioning warning, attached
    when the Vandermonde condition number exceeds the cap.  One
    ``np.linalg.solve`` then takes one column per right-hand side, and each
    column is trimmed, checked and refined alone, so every solution equals,
    bit for bit, the one a call with its C alone gives.  A
    ``NoSolutionError`` is raised when gcd(A, B) fails to divide a C, and a
    ``NumericalFailureError`` when a solution leaves the float range.
    """
    D = known_gcd if known_gcd is not None else approx_gcd(A, B)
    a, b = A.coeffs, B.coeffs
    rhs = [(C.coeffs, C.norm()) for C in Cs]
    if D.degree > 0:
        cds = [_quotient_by_gcd(c, c_n, D) for c, c_n in rhs]
        ad = c_deflate(a, D.coeffs)
        Bd = B.deflate(D)
    else:
        cds, ad, Bd = [c for c, _ in rhs], a, B

    if Bd.degree <= 0:
        # B is (a scalar multiple of) the gcd: X is forced to zero
        X = Polynomial.zero()
        sols = []
        for C in Cs:
            Y = (A * X - C).deflate(B)
            res = _relative_residual(A, B, C, X, Y)
            sols.append(BezoutSolution(X.coeffs, Y.coeffs, res, 0.0, (),
                                       np.zeros(0, dtype=complex)))
        return sols

    warnings = []
    if spec is None:
        spec = RootSpec.of(Bd)
    n = Bd.degree - 1
    if spec.total != n + 1:
        # clustered multiplicity bookkeeping disagreed with the degree;
        # rebuild with a tight radius so the system stays square
        spec = RootSpec.ordered(roots(Bd, 1e-13))
        warnings.append("root multiplicity adjusted to match degree")
    _check_square(spec, n)
    V = spec.matrix
    # the jets of A/D at the roots, which every right-hand side shares
    jets = [poly_jet(ad, beta, r) for beta, r in spec.entries]
    H = np.column_stack([_rhs_vector(spec, cd, jets) for cd in cds])
    xs = np.linalg.solve(V, H).T.copy()
    cond = spec.condition
    if cond > CONDITION_CAP:
        warnings.append(f"ill-conditioned Vandermonde system (cond ~ {cond:.2e})")
    warnings = tuple(warnings)
    sols = []
    for (c, c_n), x in zip(rhs, xs):
        try:
            xc, y, res, x = _refined(a, b, c, c_n, x, D, V, spec, jets)
        except ValueError as exc:  # ``trim`` refuses a coefficient past the float range
            raise NumericalFailureError(f"Bezout solution is not finite ({exc})") from None
        sols.append(BezoutSolution(xc, y, res, cond, warnings, x))
    return sols


def _refined(a, b, c, c_n, x, D, V, spec, jets):
    """One column of ``minimal_solution``: from the solve's X (``x``), the
    trimmed X, Y = (A X - C) / B, the relative residual and the untrimmed
    X, after one pass of polynomial-level iterative refinement when the
    residual exceeds 1e-12 and the pass lowers it."""
    # A X feeds both Y = (A X - C) / B and the residual
    xc = trim(x)
    ax = c_mul(a, xc)
    y = c_divmod(c_sub(ax, c), b)[0]
    res = _residual(a, b, c, c_n, ax, y)
    if res > 1e-12:
        defect = c_sub(c, c_sub(ax, c_mul(b, y)))
        if c_norm(defect) > 0:
            dd = c_divmod(defect, D.coeffs)[0] if D.degree > 0 else defect
            x2 = np.linalg.solve(V, _rhs_vector(spec, dd, jets))
            xc2 = c_add(xc, trim(x2))
            ax2 = c_mul(a, xc2)
            y2 = c_divmod(c_sub(ax2, c), b)[0]
            res2 = _residual(a, b, c, c_n, ax2, y2)
            if res2 < res:
                xc, y, res = xc2, y2, res2
                x = x + x2
    return xc, y, res, x


def realify(A, B, Cs, a, b, c, sols):
    """Average each solution of AX - BY = C (one per C of ``Cs``) with its
    involution image (weights a, b, c); A and B are checked once.

    For real-section inputs this yields a solution whose components are
    real sections of weights (c-a, c-b); when the minimal solution is
    already real the averaging is the identity up to rounding.  A roundoff
    tail of X or Y beyond its weight is dropped first (``_within_weight``).
    The residual of a ``RealSolution`` is formed only when read.
    """
    _check_real(A, a, "A")
    _check_real(B, b, "B")
    out = []
    for C, sol in zip(Cs, sols):
        _check_real(C, c, "C")
        x = c_symmetrize(_within_weight(sol.x, c - a, "X"), c - a)
        y = c_symmetrize(_within_weight(sol.y, c - b, "Y"), c - b)
        out.append(RealSolution(x, y, sol.condition, sol.warnings, sol.x_raw, (A, B, C)))
    return out


def _within_weight(p, k, name):
    """The coefficients p of a solution component cut to its weight k.  A
    tail beyond the weight within the bound of ``_check_real``,
    1e-8 * max(1, |p|), is roundoff of the solve and is dropped; a larger
    one raises ``RealityViolationError``.  Coefficients that fit the
    weight (or a negative weight, which symmetrizing refuses) are returned
    as they are."""
    if k < 0 or p.size <= k + 1:
        return p
    tail = max(np.abs(p[k + 1 :]).tolist())
    if tail > 1e-8 * max(1.0, c_norm(p)):
        raise RealityViolationError(f"{name} exceeds weight {k} by {tail:.3e}")
    return trim(p[: k + 1])


def _check_real(p, k, name):
    """``RealityViolationError`` unless p is a weight-k real section."""
    # a polynomial over its weight is refused whatever its coefficients
    if p.degree > k or real_defect(p, k) > 1e-8 * max(1.0, p.norm()):
        raise RealityViolationError(f"{name} is not a weight-{k} real section")


def solution_space(A, B, C, a, b, c):
    """All real-section solutions in weights (c-a, c-b), for c >= a+b-d.

    The space is the minimal solution plus U*(B/D, A/D) over real-section
    parameters U of weight c-a-b+d.
    """
    D = approx_gcd(A, B)
    d = D.degree
    if c < a + b - d:
        raise ValueError(f"solution space requires c >= a+b-d ({c} < {a + b - d})")
    base = minimal_solution(A, B, [C], known_gcd=D)
    (base,) = realify(A, B, [C], a, b, c, base)
    hom_X = B.deflate(D) if d > 0 else B
    hom_Y = A.deflate(D) if d > 0 else A
    return SolutionSpace(base, hom_X, hom_Y, c - a - b + d)
