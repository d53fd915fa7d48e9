"""Dense univariate complex polynomials and their real-section structure.

Everything downstream is carried by polynomials in the variable zeta with
complex coefficients: the curve polynomial P, the differential numerators
b^i, the deformation data c^i, Q and the gcd tower between them.  A section
of weight k is "real" when its coefficients satisfy q_i = conj(q_{k-i}),
that is when the real involution q_i -> conj(q_{k-i}) fixes it.

Coefficients are stored dense and low-to-high (coeffs[i] multiplies
zeta**i).  The polynomials that get rooted have degree at most the weight
of P, 2g + 2, or of b1 and b2, g + 3: 14 at most through g = 6.  Products
formed on the way (the deformation identities) reach weight 3g + 5, so no
sparse or FFT machinery.
A ``Polynomial`` owns a read-only copy of its coefficients, trimmed in one
pass by ``_trim``, the one trailing-zero rule: coefficients after the last
one of modulus above TRIM_REL * max|c| are cut.

The ``c_`` functions (``c_add``, ``c_sub``, ``c_mul``, ``c_scale``,
``c_divmod``, ``c_deflate``, ``c_derivative``, ``c_symmetrize``,
``c_norm``) do the ring arithmetic on trimmed coefficient arrays.  They use
the kernels the operators use (the same ``np.convolve`` calls and
zero-padded sums) and trim each result by the same rule (``trim``), so a
chain of them gives the coefficients of the chain of operators bit for bit.
The Bezout solves and the deformation identities work on them and build a
``Polynomial`` only for what they return or hand on.

Roots start as the eigenvalues of the monic companion matrix.  They are
accepted by the Aberth backward-error test, |p(z)| <= ABERTH_TARGET *
sum |a_i||z|^i at every root; a start that fails it is refined by
Aberth-Ehrlich iteration until it passes (``NumericalFailureError`` after
``ABERTH_MAX_ITER`` iterations).  A double root then splits by about
sqrt(eps), well inside ``MULTIPLICITY_RADIUS``.

Everything after the start runs on Python complex values over the
coefficient list: the Horner passes, the test, the Aberth-Ehrlich step and
the two Newton polishes.  At these degrees an array form pays numpy's cost
per call more than the arithmetic: a ``roots`` call took 0.38 of the array
form's time at degree 2, 0.70 at degree 8 and 0.89 at degree 14 (random
complex coefficients; Python 3.11, numpy 2.4.6, 2 shared x86-64 cores).
From degree 18 the array form is the faster; no polynomial rooted here
gets there.  Scalar digits also do not depend on the CPU: numpy picks the
SIMD loop of its array complex multiply at run time, and on AVX-512 that
loop differed in the last bit from Python's multiply on 43,842 of 100,000
random pairs, where ``np.complex128`` scalars agreed with Python on all.
Python's ``abs`` of a complex whose modulus leaves the float range raises
``OverflowError``; ``roots`` raises that as ``NumericalFailureError``.

Gcds are matched between root lists (``approx_gcd`` roots its two inputs
and matches them).  The gcd tower ``factor_structure`` roots P, b1 and b2
once each and passes the lists down: a quotient by the exact 1 is the
dividend with its roots, and only a new coefficient vector (a gcd or a
quotient by a factor of positive degree) is rooted again.  It keeps
``roots(P)`` for the curve and the last quotient of b2 with its roots for
the real tower of ``deformation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeBoundError,
    NumericalFailureError,
    RealityViolationError,
    ZeroPolynomialError,
)

# Trailing coefficients below TRIM_REL * max|coeff| are treated as zero.
TRIM_REL = 1e-13

# Root-cluster radii: GCD_CLUSTER_RADIUS matches roots *between* two
# polynomials; MULTIPLICITY_RADIUS merges near-coincident roots of a single
# polynomial into one multiple root.  The latter is looser because a double
# root computed in floating point splits by ~sqrt(eps).
GCD_CLUSTER_RADIUS = 1e-8
MULTIPLICITY_RADIUS = 1e-6

NORM_PLAIN_LO = math.sqrt(np.finfo(float).tiny)
NORM_PLAIN_HI = 1e150

ABERTH_MAX_ITER = 200
ABERTH_TARGET = 1e-12

# ``Polynomial.deflate`` accepts a remainder up to this times the dividend's
# norm; ``real_section_scale`` a real-section defect up to this times the
# rescaled norm
DEFLATE_RTOL = 1e-8
REAL_SCALE_RTOL = 1e-8


class Polynomial:
    """Immutable dense polynomial over the complex floats.

    Parameters
    ----------
    coeffs : sequence of complex
        Low-to-high coefficients; trailing near-zeros are trimmed.
    bound : int, optional
        Nominal degree bound k of the section space this polynomial lives
        in; a larger numerical degree raises ``DegreeBoundError``.  The bound
        may exceed the numerical degree (e.g. a weight-(2g+2) curve
        polynomial branched over zeta=0 has numerical degree 2g+1).

    Attributes
    ----------
    coeffs : read-only complex array
        The trimmed coefficients; ``[0]`` for the zero polynomial.
    degree : int
        Numerical degree, set once by the constructor; the zero polynomial
        reports -1.
    """

    __slots__ = ("coeffs", "degree", "_max_modulus")

    def __init__(self, coeffs, bound=None):
        # a private copy, so that no caller's array aliases the coefficients
        c, degree, scale = _trim(np.array(coeffs, dtype=complex).reshape(-1))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_max_modulus", scale)
        if bound is not None and degree > bound:
            raise DegreeBoundError(f"degree {degree} exceeds nominal bound {bound}")

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__; the default slot-state
        # restore would assign through the __setattr__ above
        return (Polynomial, (self.coeffs,))

    # -- basics ----------------------------------------------------------

    @property
    def is_zero(self):
        return self.degree < 0

    def coeff(self, i):
        """Coefficient of zeta**i (zero beyond the stored length)."""
        if 0 <= i < self.coeffs.size:
            return complex(self.coeffs[i])
        return 0.0 + 0.0j

    def padded(self, n):
        """Coefficient vector padded with zeros to length n."""
        out = np.zeros(n, dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return out

    def norm(self):
        """Euclidean norm of the coefficients (``c_norm``), finite and
        positive for every nonzero polynomial."""
        return _norm(self.coeffs, self._max_modulus)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.size == other.coeffs.size and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which __eq__ already treats as equal
        return hash((self.coeffs + 0.0).tobytes())

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        return Polynomial(_sum(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        other = _as_poly(other)
        return Polynomial(_difference(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if np.isscalar(other):
                return Polynomial(self.coeffs * complex(other))
            other = Polynomial(other)
        return Polynomial(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Polynomial(self.coeffs / complex(scalar))

    def __call__(self, z):
        """Horner evaluation; accepts scalars or arrays."""
        out = _eval_many(self.coeffs, np.asarray(z, dtype=complex))
        return out if out.shape else complex(out)

    def derivative(self):
        return Polynomial(_derivative(self.coeffs))

    def monic(self):
        if self.is_zero:
            raise ZeroPolynomialError("monic of zero polynomial")
        return Polynomial(self.coeffs / self.coeffs[-1])

    # -- division --------------------------------------------------------

    def divmod(self, divisor):
        """Long division: self = q * divisor + r with deg r < deg divisor."""
        divisor = _as_poly(divisor)
        if divisor.is_zero:
            raise ZeroPolynomialError("division by zero polynomial")
        q, r = _long_division(self.coeffs, divisor.coeffs)
        return Polynomial(q), Polynomial(r)

    def deflate(self, factor):
        """Exact division; raises if the remainder exceeds ``DEFLATE_RTOL``."""
        return Polynomial(c_deflate(self.coeffs, _as_poly(factor).coeffs))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_roots(roots):
        p = np.array([1.0 + 0.0j])
        for r in roots:
            p = np.convolve(p, np.array([-complex(r), 1.0]))
        return Polynomial(p)

    @staticmethod
    def zero():
        return Polynomial([0.0])

    @staticmethod
    def one():
        """The constant 1, one shared instance (a ``Polynomial`` is
        immutable)."""
        return _ONE

    @staticmethod
    def zeta():
        """The monomial zeta, one shared instance."""
        return _ZETA

    # -- serialization ---------------------------------------------------

    def to_pairs(self):
        """JSON form: list of [re, im], index = power of zeta."""
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    @staticmethod
    def from_pairs(pairs, bound=None):
        return Polynomial([complex(p[0], p[1]) for p in pairs], bound=bound)


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if np.isscalar(x):
        return Polynomial([complex(x)])
    return Polynomial(x)


# ---------------------------------------------------------------------------
# Coefficient-array arithmetic
# ---------------------------------------------------------------------------
#
# The operators of ``Polynomial`` form their results with the kernels below
# (``_sum``, ``_difference``, ``_product``, ``_derivative``,
# ``_long_division``), and the constructor trims them by ``_trim``.  The
# ``c_`` functions apply the same kernels to trimmed coefficient arrays and
# trim by the same rule, so a chain of them gives the coefficients of the
# corresponding chain of operators bit for bit, with no ``Polynomial`` built
# for an intermediate.  Their arrays are never written to.


def _trim(c):
    """The one trailing-zero rule, on a complex 1-d array ``c``: returns c
    cut after its last coefficient of modulus above TRIM_REL * max|c|, its
    degree and max|c|.  Nothing above the cut gives zeros(1), the zero
    polynomial, with degree -1.  A non-finite coefficient raises
    ``ValueError``."""
    mags = np.abs(c).tolist()
    scale = max(mags, default=0.0)
    # an infinity (or a modulus that overflows) makes the max infinite; max
    # passes over a NaN that is not first, but the sum of the moduli keeps it
    if not math.isfinite(scale) or math.isnan(sum(mags)):
        raise ValueError("non-finite polynomial coefficient")
    cut = TRIM_REL * scale
    if c.size and mags[-1] > cut:
        return c, c.size - 1, scale
    # trailing near-zeros are scanned for only when the last coefficient is one
    kept = [i for i, m in enumerate(mags) if m > cut]
    if not kept:
        return np.zeros(1, dtype=complex), -1, scale
    degree = kept[-1]
    return c[: degree + 1], degree, scale


def trim(c):
    """The coefficients ``Polynomial(c).coeffs`` holds, for a complex 1-d
    array ``c`` (not copied when nothing is cut)."""
    return _trim(c)[0]


def _degree(c):
    """Degree of trimmed coefficients: -1 for the zero polynomial."""
    return -1 if c.size == 1 and c[0] == 0 else c.size - 1


def c_padded(c, n):
    """The coefficients c padded with zeros to length n, as
    ``Polynomial.padded`` gives them (c itself when it has that length)."""
    if c.size == n:
        return c
    out = np.zeros(n, dtype=complex)
    out[: c.size] = c
    return out


def _sum(p, q):
    n = max(p.size, q.size)
    return c_padded(p, n) + c_padded(q, n)


def _difference(p, q):
    n = max(p.size, q.size)
    return c_padded(p, n) - c_padded(q, n)


def _product(p, q):
    if _degree(p) < 0 or _degree(q) < 0:
        return np.zeros(1, dtype=complex)
    return np.convolve(p, q)


def _derivative(c):
    if c.size == 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def _long_division(num, den):
    """(quotient, remainder) of num by the nonzero den, untrimmed."""
    if _degree(num) < _degree(den):
        return np.zeros(1, dtype=complex), num
    num = num.copy()
    qlen = num.size - den.size + 1
    q = np.zeros(qlen, dtype=complex)
    for i in range(qlen - 1, -1, -1):
        q[i] = num[i + den.size - 1] / den[-1]
        num[i : i + den.size] -= q[i] * den
    return q, (num[: den.size - 1] if den.size > 1 else np.zeros(1, dtype=complex))


def _norm(c, m):
    """Euclidean norm of the coefficients ``c`` whose largest modulus is
    ``m``.  The squares are summed as they are while m lies in
    [NORM_PLAIN_LO, NORM_PLAIN_HI] (its square is normal, and fewer than
    1e8 such squares cannot overflow) or while the sum stays finite;
    otherwise the coefficients are divided by m, and their norm is scaled
    back and capped at the largest float."""
    if NORM_PLAIN_LO <= m <= NORM_PLAIN_HI or m == 0.0:
        # the sum np.linalg.norm forms for a complex vector
        return math.sqrt(c.real.dot(c.real) + c.imag.dot(c.imag))
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(c))
    if m > NORM_PLAIN_HI and plain < math.inf:
        return plain
    scaled = float(m) * float(np.linalg.norm(c.view(float) / m))
    return min(scaled, np.finfo(float).max)


def c_add(p, q):
    """Coefficients of p + q."""
    return trim(_sum(p, q))


def c_sub(p, q):
    """Coefficients of p - q."""
    return trim(_difference(p, q))


def c_mul(p, q):
    """Coefficients of p * q."""
    return trim(_product(p, q))


def c_scale(p, s):
    """Coefficients of p * s for a scalar s."""
    return trim(p * complex(s))


def c_derivative(p):
    """Coefficients of p'."""
    return trim(_derivative(p))


def c_divmod(p, q):
    """Coefficients of ``p.divmod(q)``: quotient and remainder."""
    if _degree(q) < 0:
        raise ZeroPolynomialError("division by zero polynomial")
    quo, rem = _long_division(p, q)
    return trim(quo), trim(rem)


def c_deflate(p, f):
    """Coefficients of ``p.deflate(f)``: the quotient, or
    ``NumericalFailureError`` when the remainder exceeds ``DEFLATE_RTOL``
    times |p|.  By the exact constant 1 it is p / 1, with no long division
    and no remainder check: the quotient keeps every value, and takes each
    zero's sign from the complex division, as the long division does."""
    if f.size == 1 and f[0] == 1:
        return p / f[0]
    q, r = c_divmod(p, f)
    scale = max(c_norm(p), 1e-300)
    if c_norm(r) > DEFLATE_RTOL * scale:
        raise NumericalFailureError(
            f"deflation remainder {c_norm(r) / scale:.3e} exceeds {DEFLATE_RTOL:.1e}",
            best=Polynomial(q),
        )
    return q


def c_norm(p):
    """``Polynomial.norm`` of the coefficients p."""
    return _norm(p, max(np.abs(p).tolist()))


def c_symmetrize(p, k):
    """Coefficients of ``symmetrize(p, k)``."""
    return c_scale(c_add(p, trim(_pullback(p, k))), 0.5)


# the instances ``Polynomial.one()`` and ``Polynomial.zeta()`` return
_ONE = Polynomial([1.0])
_ZETA = Polynomial([0.0, 1.0])


# ---------------------------------------------------------------------------
# Real structure
# ---------------------------------------------------------------------------


def _pullback(c, k):
    """The real involution q_i -> conj(q_{k-i}) of the weight-k section with
    coefficients c, untrimmed."""
    degree = _degree(c)
    if degree > k:
        raise DegreeBoundError(f"degree {degree} exceeds weight {k}")
    return np.conj(c_padded(c, k + 1))[::-1]


def real_defect(p, k):
    """max_i |q_i - conj(q_{k-i})|, the distance from being a real section.

    Coefficients beyond the weight (possible as numerical dirt on computed
    polynomials) count toward the defect at full magnitude.
    """
    p = _as_poly(p)
    over = 0.0
    if p.degree > k:
        over = float(np.max(np.abs(p.coeffs[k + 1 :])))
    c = np.zeros(k + 1, dtype=complex)
    m = min(k + 1, p.coeffs.size)
    c[:m] = p.coeffs[:m]
    return max(float(np.max(np.abs(c - np.conj(c[::-1])))), over)


def symmetrize(p, k):
    """Orthogonal projection onto the weight-k real sections."""
    return Polynomial(c_symmetrize(_as_poly(p).coeffs, k))


def real_section_scale(p):
    """Complex unit lambda such that lambda*p is a real section of weight deg p.

    Exists whenever the root multiset of p is invariant under the
    conjugate-inverse involution (true for any gcd of real sections with the
    pairing intact).  Raises if no phase gets close.
    """
    p = _as_poly(p)
    if p.is_zero:
        raise ZeroPolynomialError("cannot scale zero polynomial")
    k = p.degree
    if k == 0:
        # constants: rotate to the positive real axis
        lam = np.sqrt(np.conj(p.coeffs[0]) / abs(p.coeffs[0]))
    else:
        c = p.coeffs
        rev = np.conj(c[::-1])
        # rev = mu * c in the least-squares sense; lambda = sqrt(mu)
        mu = np.vdot(c, rev) / np.vdot(c, c)
        m = abs(mu)
        if m < 1e-8:
            raise RealityViolationError("no real-section phase exists")
        lam = np.sqrt(mu / m)
    if lam.real < 0 or (lam.real == 0 and lam.imag < 0):
        lam = -lam
    q = p * lam
    if real_defect(q, k) > REAL_SCALE_RTOL * max(1.0, q.norm()):
        raise RealityViolationError(
            f"real-section defect {real_defect(q, k):.3e} after rescale"
        )
    return q, complex(lam)


def random_real_section(rng, k, scale=1.0):
    """Random element of the weight-k real sections (test helper)."""
    c = (rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)) * scale
    return symmetrize(Polynomial(c, bound=k), k)


# ---------------------------------------------------------------------------
# Root finding (companion eigenvalues, checked and refined by Aberth-Ehrlich)
# ---------------------------------------------------------------------------


def _eigenvalue_start(coeffs):
    """Eigenvalues of the monic companion matrix of the coefficients (low to
    high, degree at least 2); LAPACK's balancing keeps widely spread root
    moduli (1e-5 .. 1e5) accurate."""
    n = coeffs.size - 1
    A = np.eye(n, k=-1, dtype=complex)
    A[:, -1] = -coeffs[:-1] / coeffs[-1]
    return np.linalg.eigvals(A)


def _aberth(coeffs):
    """All roots of a squarefree-ish polynomial of degree at least 1, as an
    array, with p and p' at them (``_horner3``'s first two) as lists: the
    eigenvalue start, returned as soon as every point passes the
    backward-error test, and otherwise refined by Aberth-Ehrlich's
    simultaneous iteration.  The test and the step run on Python complex
    values over the coefficient list."""
    n = coeffs.size - 1
    a = coeffs.tolist()
    if n == 1:
        z = -a[0] / a[1]
        p, dp = _horner2(a, z)
        return np.array([z]), [p], [dp]
    z = _eigenvalue_start(coeffs).tolist()
    for it in range(ABERTH_MAX_ITER + 1):
        vals = [_horner3(a, zi) for zi in z]
        # |p(z)| measured against sum |a_i||z|^i (backward-error style)
        converged = [abs(p) <= ABERTH_TARGET * max(s, 1e-300) for p, _, s in vals]
        if all(converged):
            return np.array(z), [v[0] for v in vals], [v[1] for v in vals]
        if it == ABERTH_MAX_ITER:
            raise NumericalFailureError("root iteration did not converge", best=np.array(z))
        if it == 0 and np.unique(z).size < n:
            # Aberth's repulsion is undefined between coincident points,
            # which would then converge to one root together: spread them
            z = np.array(z)
            z = z + 1e-3 * np.maximum(1.0, np.abs(z)) * np.exp(2j * np.pi * np.arange(n) / n)
            z = z.tolist()
            continue
        z = [
            zi if ok else zi - _aberth_step(z, i, p, dp)
            for i, (zi, ok, (p, dp, _)) in enumerate(zip(z, converged, vals))
        ]


def _aberth_step(z, i, p, dp):
    """The Aberth-Ehrlich correction of the point z[i], at which the
    polynomial has value p and derivative dp: the Newton step p/dp over
    1 - (p/dp) sum_{j != i} 1/(z[i] - z[j]), or the bare Newton step where
    that denominator vanishes or a point coincides with z[i]."""
    newton = p / dp if dp != 0 else 0.1 + 0.1j
    zi = z[i]
    try:
        pull = 0j
        for j, zj in enumerate(z):
            if j != i:
                pull += 1.0 / (zi - zj)
    except ZeroDivisionError:
        return newton
    denom = 1.0 - newton * pull
    return newton / denom if abs(denom) > 1e-300 else newton


def _horner3(coeffs, z):
    """p(z), p'(z) and sum |a_i||z|^i at the point z (elementwise at an
    array z), in one Horner pass over the coefficients (low to high)."""
    terms = reversed(coeffs)
    p = next(terms)
    dp = 0j
    s = abs(p)
    az = abs(z)
    for a in terms:
        dp = dp * z + p
        p = p * z + a
        s = s * az + abs(a)
    return p, dp, s


def _horner2(coeffs, z):
    """p(z) and p'(z) at the point z, in one Horner pass over the
    coefficients (low to high)."""
    terms = reversed(coeffs)
    p = next(terms)
    dp = 0j
    for a in terms:
        dp = dp * z + p
        p = p * z + a
    return p, dp


def _polish(z, p, dp):
    """One Newton step from z, at which the polynomial has value p and
    derivative dp; skipped where p' vanishes (and p with it, as where a
    start hits a double root) or the step is not below 1e-3 max(1, |z|)."""
    step = p / dp if abs(dp) > 1e-300 else 0.0
    return z - step if abs(step) < 1e-3 * max(1.0, abs(z)) else z


def _eval_many(coeffs, z):
    """Horner evaluation of the coefficients (low to high) at the array z."""
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for a in coeffs[-2::-1]:
        out = out * z + a
    return out


def _cluster(points, rel_radius):
    """Greedy merge of near-coincident points; returns (center, count) pairs."""
    pts = sorted(np.asarray(points, dtype=complex).tolist(), key=lambda z: (z.real, z.imag))
    used = [False] * len(pts)
    out = []
    for i, zi in enumerate(pts):
        if used[i]:
            continue
        group = [zi]
        used[i] = True
        changed = True
        while changed:
            changed = False
            center = sum(group) / len(group)
            scale = max(1.0, abs(center))
            for j, zj in enumerate(pts):
                if not used[j] and abs(zj - center) <= rel_radius * scale:
                    group.append(zj)
                    used[j] = True
                    changed = True
        out.append((sum(group) / len(group), len(group)))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def roots(p, cluster_radius=MULTIPLICITY_RADIUS):
    """All roots of p as (root, multiplicity) pairs.

    Exact zeta-factors are deflated first.  The remaining roots start as the
    eigenvalues of the companion matrix; a start that fails the Aberth
    backward-error test (|p(z)| <= ABERTH_TARGET * sum |a_i||z|^i at every
    root) is refined by Aberth-Ehrlich until it passes.  The roots are then
    Newton-polished twice on the deflated polynomial, the first time with
    the p and p' that the Aberth test computed at them, and merged into
    clusters of relative radius ``cluster_radius``.  All but the start is
    Python complex arithmetic (see the module docstring).
    """
    p = _as_poly(p)
    if p.is_zero:
        raise ZeroPolynomialError("roots of zero polynomial")
    c = p.coeffs
    zero_mult = 0
    while c.size > 1 and abs(c[0]) <= TRIM_REL * p._max_modulus:
        c = c[1:]
        zero_mult += 1
    found = []
    if c.size > 1:
        try:
            z, pv, dv = _aberth(c)
            found = [_polish(*v) for v in zip(z.tolist(), pv, dv)]
            a = c.tolist()
            found = [_polish(zi, *_horner2(a, zi)) for zi in found]
        except OverflowError as exc:
            # Python's abs of a complex whose modulus exceeds the float range
            raise NumericalFailureError(f"root finding overflowed: {exc}") from exc
    out = []
    if zero_mult:
        out.append((0.0 + 0.0j, zero_mult))
    out.extend(_cluster(found, cluster_radius))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def roots_flat(p):
    """Roots expanded with multiplicity."""
    return [r for r, m in roots(p) for _ in range(m)]


# ---------------------------------------------------------------------------
# Approximate gcd and the common-factor tower
# ---------------------------------------------------------------------------


def approx_gcd(p, q):
    """Monic gcd by root-cluster matching (``_gcd_of_roots`` on the roots of
    p and q, at ``GCD_CLUSTER_RADIUS``)."""
    p, q = _as_poly(p), _as_poly(q)
    if p.is_zero and q.is_zero:
        raise ZeroPolynomialError("gcd of two zero polynomials")
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).monic()
    g, _ = _gcd_of_roots(roots(p), roots(q), GCD_CLUSTER_RADIUS)
    return g


def _gcd_of_roots(rp, rq, cluster_radius):
    """Monic gcd of two polynomials from their ``roots`` lists.

    Roots closer than ``cluster_radius`` (relative) are treated as common;
    multiplicities combine by min.  No common root gives the exact
    ``Polynomial.one()``.  Returns the gcd and the borderline near-matches
    (distance within 10x the radius) as (root of p, root of q, distance).
    """
    pairs = []
    for i, (r1, m1) in enumerate(rp):
        for j, (r2, m2) in enumerate(rq):
            d = abs(r1 - r2) / max(1.0, abs(r1), abs(r2))
            pairs.append((d, i, j))
    pairs.sort(key=lambda t: t[0])
    used_p, used_q = set(), set()
    matched = []
    borderline = []
    for d, i, j in pairs:
        if i in used_p or j in used_q:
            continue
        if d <= cluster_radius:
            used_p.add(i)
            used_q.add(j)
            m = min(rp[i][1], rq[j][1])
            matched.append((0.5 * (rp[i][0] + rq[j][0]), m))
        elif d <= 10.0 * cluster_radius:
            borderline.append((rp[i][0], rq[j][0], d))
    if not matched:
        return Polynomial.one(), borderline
    return Polynomial.from_roots([r for r, m in matched for _ in range(m)]), borderline


@dataclass(frozen=True)
class FactorStructure:
    """The gcd tower between P and the differential numerators.

    F divides all three; F1 (resp. F2) the further common part of P and b1
    (resp. b2); G what b1 and b2 still share after that.  All four are
    monic; the quotients of P, b1 and b2 by them are taken in
    ``deformation.build_tower``, after rescaling to real sections.
    ``P_roots`` is ``roots(P)``; ``b2_reduced`` is b2 / (F F2) with its
    roots, the last quotient of b2 the tower rooted.
    """

    F: Polynomial
    F1: Polynomial
    F2: Polynomial
    G: Polynomial
    P_roots: tuple
    b2_reduced: tuple  # (b2 / (F F2), its roots)
    borderline: tuple = ()


def _quotient(p, rp, f):
    """p / f and its roots.  A gcd of degree 0 is the exact 1, so the
    quotient is p itself and keeps the roots ``rp``."""
    if f.degree == 0:
        return p, rp
    q = p.deflate(f)
    return q, roots(q)


def _gcd_roots(g):
    """Roots of a matched gcd g: none for the exact 1."""
    return [] if g.degree == 0 else roots(g)


def factor_structure(P, b1, b2, cluster_radius=GCD_CLUSTER_RADIUS):
    """Compute the gcd tower, first F, then F1 and F2, then G.

    Every gcd is matched from root lists.  P, b1 and b2 are rooted once
    each; a gcd or a quotient is rooted again only when its coefficients
    are new, that is when the factor has positive degree.
    """
    P, b1, b2 = _as_poly(P), _as_poly(b1), _as_poly(b2)
    if P.is_zero or b1.is_zero or b2.is_zero:
        raise ZeroPolynomialError("factor tower of zero polynomial")
    rP, r1 = roots(P), roots(b1)
    F0, _ = _gcd_of_roots(rP, r1, cluster_radius)
    rF0 = _gcd_roots(F0)
    r2 = roots(b2)
    F, info = _gcd_of_roots(rF0, r2, cluster_radius)
    P_F, rP_F = _quotient(P, rP, F)
    b1_F, r1_F = _quotient(b1, r1, F)
    b2_F, r2_F = _quotient(b2, r2, F)
    F1, binfo = _gcd_of_roots(rP_F, r1_F, cluster_radius)
    info.extend(binfo)
    F2, binfo = _gcd_of_roots(rP_F, r2_F, cluster_radius)
    info.extend(binfo)
    _, r1_G = _quotient(b1_F, r1_F, F1)
    b2_G, r2_G = _quotient(b2_F, r2_F, F2)
    G, binfo = _gcd_of_roots(r1_G, r2_G, cluster_radius)
    info.extend(binfo)
    return FactorStructure(F, F1, F2, G, tuple(rP), (b2_G, tuple(r2_G)), tuple(info))


# ---------------------------------------------------------------------------
# Taylor jets (for confluent right-hand sides)
# ---------------------------------------------------------------------------


def poly_jet(p, beta, order):
    """Taylor coefficients of p (a ``Polynomial`` or its coefficients) at
    beta up to t**(order-1), by Horner shifts."""
    work = np.array(p.coeffs if isinstance(p, Polynomial) else p, dtype=complex)
    out = np.zeros(order, dtype=complex)
    for m in range(min(order, work.size)):
        # synthetic division by (zeta - beta); remainder is the next jet coeff
        for i in range(work.size - 2, -1, -1):
            work[i] = work[i] + beta * work[i + 1]
        out[m] = work[0]
        work = work[1:]
        if work.size == 0:
            break
    return out


def jet_divide(num, den):
    """Truncated power-series division num/den (den[0] != 0)."""
    n = num.size
    if abs(den[0]) < 1e-300:
        raise ZeroDivisionError("jet division by series with vanishing constant term")
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = num[k]
        for j in range(1, k + 1):
            if j < den.size:
                acc -= den[j] * out[k - j]
        out[k] = acc / den[0]
    return out
