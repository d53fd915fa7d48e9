"""Whitham tangent vectors: case analysis and the polynomial linear systems.

A period-preserving infinitesimal deformation (P-dot, b1-dot, b2-dot) of a
triple is encoded by a pair of polynomials (c1, c2) of weight g+1 and a
real quadratic Q tied together by

    b1 * c2 - b2 * c1 = Q * P,

and by the pair of identities (one per differential, chat = (zeta^2-1)*c)

    P-dot * b - 2 P * b-dot = 2 P (chat - zeta*chat') + P' * zeta * chat.

Common factors between P, b1, b2 (the gcd tower F, F1, F2, G) both
obstruct and shape the solutions; the deformable cases are

    (a) gcd(b1,b2) = 1, nonconformal: Q ranges over the 2-plane ker R
        inside the real quadratics,
    (b) G = gcd(b1,b2) of degree 1 or 2 not dividing P: Q = G*Q-tilde,
    (e) conformal (P_0 = 0) with gcd(b1,b2) = zeta: Q = Q_1*zeta.

Cases (c), (d), (f) admit no construction here; (c) carries a scalar
obstruction value that is computed and reported.

``polyring.factor_structure`` finds the monic factors of the tower; the
real tower here (``Tower``) rescales them to real sections (at a conformal
point zeta is split off in place of F), carries the triple, the case label
and the reduced parts P-tilde, b1-tilde, b2-tilde, and is built only
through ``build_tower``, the one place that refuses a non-deformable
triple.  Every step of the construction takes the tower alone, so its
triple cannot disagree with its factors.  The tower also carries every
root list the construction needs:
roots(P) from ``factor_structure`` (for the scaling fix) and the
Leja-ordered roots of b2-tilde and of the two divisors 2 F_j P-tilde of
the deformation identities (for the Bezout solves; 2P takes the roots of
P), each ``RootSpec`` with the Vandermonde system its first solve builds,
and the scaling row of P that its first scaling fix builds.  Each is
computed once per tower and passed on, and so is each solve of the
reduced Q-equation (the solve ``r_kernel`` makes to re-check a kernel
vector is the one ``solve_q_equation`` reads for it); nothing is cached
between towers.  The construction works on coefficient arrays
(``polyring.c_*``) and builds a ``Polynomial`` only for the Bezout data and
the parts of the tangent vector it returns.

Each Bezout system is solved once for all the right-hand sides a step
has for it (``bezout.minimal_solution`` takes a sequence): R's row on the
three basis quadratics is one solve, the re-check of both kernel vectors
another, and each deformation identity one solve for every vector built
at the tower (``make_tangents``; ``tangent_basis`` builds its two vectors
there, a flow step its one).  So a case-(a) tangent basis makes four
solves.

Construction pipeline: solve the reduced Q-equation for (c1, c2) at each
parameter choice, feed them into the two reduced identities, solve each
by the confluent-Vandermonde machinery, reconcile each vector's two P-dot
families on the common-solution line, and finally fix the rescaling
freedom (P-dot, b-dot) -> (P-dot + 2sP, b-dot + s b) by requiring the
derivative of the scaling normalization to vanish (plus, at conformal
points, the residue-derivative condition that pins s_0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bezout import RootSpec, minimal_solution, realify
from .curve import _curve_from_roots, residue_condition
from .errors import (
    DegenerateKernelError,
    InternalInconsistencyError,
    NotDeformableError,
    NumericalFailureError,
    RealityViolationError,
    SingularOperatorError,
    UndefinedConformalTypeError,
)
from .polyring import (
    GCD_CLUSTER_RADIUS,
    FactorStructure,
    Polynomial,
    c_add,
    c_deflate,
    c_derivative,
    c_divmod,
    c_mul,
    c_norm,
    c_padded,
    c_scale,
    c_sub,
    c_symmetrize,
    factor_structure,
    real_defect,
    real_section_scale,
    trim,
)
from .spectral import ScalingRow, is_conformal, section_coeffs, unpack_section

# coefficients of 1, zeta and zeta^2 - 1
_ONE = Polynomial.one().coeffs
_ZETA = Polynomial.zeta().coeffs
_ZETA2M1 = Polynomial([-1.0, 0.0, 1.0]).coeffs


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseLabel:
    label: str  # one of a, b, c, d, e, f
    conformal: bool
    factors: FactorStructure
    warnings: tuple = ()

    @property
    def deformable(self):
        return self.label in ("a", "b", "e")


@dataclass(frozen=True)
class CaseAParams:
    """Q in the real quadratics with R(Q) = 0."""

    Q: Polynomial

    def scaled(self, t):
        return CaseAParams(self.Q * t)


@dataclass(frozen=True)
class CaseBLinearParams:
    """Q-tilde in the weight-1 real sections (Q = G * Q-tilde)."""

    Q_tilde: Polynomial

    def scaled(self, t):
        return CaseBLinearParams(self.Q_tilde * t)


@dataclass(frozen=True)
class CaseBQuadParams:
    """(Q-tilde, r) real numbers: Q = q*G, plus r along (b1-tilde, b2-tilde)."""

    q: float
    r: float

    def scaled(self, t):
        return CaseBQuadParams(self.q * t, self.r * t)


@dataclass(frozen=True)
class CaseEParams:
    """(Q_1, r) real numbers at a conformal point: Q = Q_1 * zeta."""

    q1: float
    r: float

    def scaled(self, t):
        return CaseEParams(self.q1 * t, self.r * t)


@dataclass(frozen=True)
class TangentVector:
    P_dot: Polynomial
    b1_dot: Polynomial
    b2_dot: Polynomial
    params: object
    c1: Polynomial
    c2: Polynomial
    Q: Polynomial
    residuals: dict = field(default_factory=dict)
    warnings: tuple = ()

    def norm(self):
        """The Euclidean norm of (P_dot, b1_dot, b2_dot): the root of the sum
        of their norms' squares while that is finite, else their ``hypot``,
        capped at the largest float."""
        norms = [p.norm() for p in (self.P_dot, self.b1_dot, self.b2_dot)]
        try:
            plain = float(np.sqrt(norms[0] ** 2 + norms[1] ** 2 + norms[2] ** 2))
        except OverflowError:  # a square beyond the largest float
            plain = math.inf
        return plain if plain < math.inf else min(math.hypot(*norms), sys.float_info.max)

    def scaled(self, t):
        return TangentVector(
            self.P_dot * t,
            self.b1_dot * t,
            self.b2_dot * t,
            self.params.scaled(t) if self.params is not None else None,
            self.c1 * t,
            self.c2 * t,
            self.Q * t,
            dict(self.residuals),
            self.warnings,
        )

    def to_json_dict(self):
        return {
            "P_dot": self.P_dot.to_pairs(),
            "b1_dot": self.b1_dot.to_pairs(),
            "b2_dot": self.b2_dot.to_pairs(),
            "Q": self.Q.to_pairs(),
            "c1": self.c1.to_pairs(),
            "c2": self.c2.to_pairs(),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(triple, cluster_radius=GCD_CLUSTER_RADIUS):
    """Case label from the gcd tower and the conformality of P.

    Nonconformal: (a) F = G = 1; (b) F = 1, deg G in {1, 2}; (c) deg F = 2,
    G = 1; (d) anything larger.  Conformal: (e) F = zeta with G = 1;
    everything else is (f) (no deformations exist there even when
    deg F*G <= 2).
    """
    fs = factor_structure(triple.P, triple.b1, triple.b2, cluster_radius)
    warnings = tuple(
        f"borderline gcd cluster: |{r1:.4g} - {r2:.4g}| = {d:.2e}"
        for r1, r2, d in fs.borderline
    )
    dF, dG = fs.F.degree, fs.G.degree
    if is_conformal(triple):
        zeta_factor = dF == 1 and abs(fs.F.coeff(0)) <= 1e-8
        label = "e" if (zeta_factor and dG == 0) else "f"
    elif dF == 0 and dG == 0:
        label = "a"
    elif dF == 0 and dG in (1, 2):
        label = "b"
    elif dF == 2 and dG == 0:
        label = "c"
    else:
        label = "d"
        if dF % 2 == 1:
            warnings = warnings + (
                f"odd deg F = {dF} is impossible for exact real sections",
            )
    return CaseLabel(label, is_conformal(triple), fs, warnings)


# ---------------------------------------------------------------------------
# Real-normalized towers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tower:
    """Factor tower with every factor rescaled to a real section, so that
    quotients and the reduced equations stay inside the real sections.
    In the conformal case the zeta factor of F is split off and G must be
    trivial.

    It also carries the Leja-ordered roots of every divisor the Bezout
    solves take: ``b2_spec`` of b2-tilde (the Q-equation and R) and, in
    ``divisors``, the pair (B_i, RootSpec of B_i) of each deformation
    identity, B_i = 2 F_j P-tilde.  So each is rooted once per tower, and
    each spec builds its Vandermonde system once, at its first solve.

    ``scaling_row``, the ``ScalingRow`` of P that the scaling fix of every
    tangent vector reads (the same Pi and index m as a ``PsiFrame`` at the
    triple), is built from the curve of ``P_roots`` on first use and then
    kept; a tower that makes no tangent vector (case (c)) never builds
    it.  ``q_solves`` keeps each solve of the reduced Q-equation under the
    bytes of its right-hand side, so the solve ``r_kernel`` makes to
    re-check a kernel vector is the one ``solve_q_equation`` reads for it."""

    triple: object  # the SpectralTriple the tower was built from
    label: CaseLabel
    F: Polynomial  # 1 in the conformal case, where zeta is split off instead
    F1: Polynomial
    F2: Polynomial
    G: Polynomial
    P_tilde: Polynomial
    b1_tilde: Polynomial
    b2_tilde: Polynomial
    b2_spec: RootSpec
    divisors: tuple  # ((B_1, spec), (B_2, spec))
    # the Q-equation solves made on this tower, by right-hand side
    q_solves: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def conformal(self):
        return self.label.conformal

    @property
    def P_roots(self):
        """``roots(P)``, as the gcd tower found them."""
        return self.label.factors.P_roots

    @cached_property
    def scaling_row(self):
        """``ScalingRow.of`` the curve of P from ``P_roots``, so with the
        reference index a frame at the triple takes.  A P with no curve
        raises the curve's error here, at the first scaling fix."""
        return ScalingRow.of(_curve_from_roots(self.triple.P, self.P_roots))


def _real_factor(p):
    """Gcd factors arrive monic; rotate them onto the real sections so all
    quotients in the tower stay real.  Constants collapse to 1."""
    if p.degree <= 0:
        return Polynomial.one()
    q, _ = real_section_scale(p)
    return q


def _real_tower(triple, lab):
    """The real tower of ``triple`` under its label ``lab``: the one place
    the reduced parts P-tilde, b1-tilde and b2-tilde, and the root lists of
    the Bezout divisors built from them, are computed."""
    fs = lab.factors
    F1 = _real_factor(fs.F1)
    F2 = _real_factor(fs.F2)
    G = _real_factor(fs.G)
    # zeta is not a real section, so at a conformal point it is deflated in
    # place of F and the real factor F is 1
    F = Polynomial.one() if lab.conformal else _real_factor(fs.F)
    Fz = Polynomial.zeta() if lab.conformal else F
    P_tilde = triple.P.deflate(Fz * F1 * F2)
    b1_tilde = triple.b1.deflate(Fz * F1 * G)
    b2_tilde = triple.b2.deflate(Fz * F2 * G)
    # a root list is reused only for identical coefficients: b2-tilde is
    # the gcd tower's last quotient of b2 whenever G is 1 and the real
    # factors equal the monic ones (all 1, or F = zeta at a conformal
    # point), B_1 = 2P whenever F F1 F2 = 1 at a nonconformal point (doubling
    # is exact, so 2P has P's roots to the bit), and B_2 = B_1 whenever
    # F1 = F2
    b2_q, b2_q_roots = fs.b2_reduced
    b2_spec = RootSpec.ordered(b2_q_roots) if b2_tilde == b2_q else RootSpec.of(b2_tilde)
    B1 = 2.0 * F2 * P_tilde
    B2 = 2.0 * F1 * P_tilde
    spec1 = RootSpec.ordered(fs.P_roots) if B1 == 2.0 * triple.P else RootSpec.of(B1)
    spec2 = spec1 if B2 == B1 else RootSpec.of(B2)
    return Tower(triple, lab, F, F1, F2, G, P_tilde, b1_tilde, b2_tilde, b2_spec,
                 ((B1, spec1), (B2, spec2)))


def build_tower(triple, label=None):
    """The real tower of a deformable triple (``label``: its
    ``classify``, computed when not given).

    The one deformability gate: cases (c), (d) and (f) raise
    ``NotDeformableError``.  In case (c) it carries the indicator, the
    scalar whose vanishing would allow deformations: R of the real tower at
    Q = 1."""
    lab = label if label is not None else classify(triple)
    if lab.deformable:
        return _real_tower(triple, lab)
    indicator = None
    if lab.label == "c":
        indicator = r_value(_real_tower(triple, lab), Polynomial.one())
    raise NotDeformableError(
        f"case ({lab.label}) admits no deformation construction",
        case=lab.label,
        indicator=indicator,
    )


# ---------------------------------------------------------------------------
# The R function and its kernel
# ---------------------------------------------------------------------------


def r_value(tw, Q):
    """Leading (degree g+2-d2) coefficient of the minimal interpolant of the
    reduced Q-equation of the tower ``tw``; linear in Q.  Vanishing of R
    makes the solution degree drop to the deformation degree."""
    return _r_last_coefficients(tw.b1_tilde, tw.b2_tilde, [Q * tw.P_tilde], tw.b2_spec)[0]


def _r_last_coefficients(A, B, Cs, spec):
    """R read off the minimal solution of AX - BY = C at each C of ``Cs``,
    all from one solve."""
    if B.degree < 1:
        raise DegenerateKernelError("b2-tilde is degenerate (degree < 1); R undefined")
    sols = minimal_solution(A, B, Cs, known_gcd=Polynomial.one(), spec=spec)
    return [_r_of(sol) for sol in sols]


def _r_of(sol):
    """R read off a minimal solution: the last coefficient of its X."""
    x = sol.x_raw
    return complex(x[-1]) if x.size else 0.0 + 0.0j


def r_kernel(tw):
    """Orthonormal basis (in real coordinates) of the 2-plane of real
    quadratics with R(Q) = 0 on the tower ``tw``.

    The reality relation conj(R) = (-1)^n (prod beta_i) R forces the real
    rank of R on the quadratics to be at most 1; a numerical rank other
    than 1 yields a degeneracy error, never a fabricated basis.
    """
    # R is linear in Q: its row on the basis quadratics, from one solve
    Cs = [unpack_section(e, 2) * tw.P_tilde for e in np.eye(3)]
    vals = _r_last_coefficients(tw.b1_tilde, tw.b2_tilde, Cs, tw.b2_spec)
    M = np.array([[v.real for v in vals], [v.imag for v in vals]])
    U, s, Vt = np.linalg.svd(M)
    scale = max(s[0], 1e-300)
    rank = int(np.sum(s > 1e-10 * scale)) if s[0] > 1e-14 else 0
    if rank != 1:
        raise DegenerateKernelError(
            f"R on the real quadratics has numerical rank {rank}, expected 1 "
            f"(singular values {s})"
        )
    # the basis is a function of R's row direction n, not of the SVD's
    # roundoff-chosen kernel rows: n's sign is fixed by the first axis with
    # |n_k| > 0.5, u1 is the first axis with |n_k| < 0.6 projected onto n's
    # complement, u2 = n x u1.  Both axes exist for any unit n in R^3.
    n = Vt[0]
    n = n if n[int(np.argmax(np.abs(n) > 0.5))] > 0 else -n
    k = int(np.argmax(np.abs(n) < 0.6))
    u1 = np.eye(3)[k] - n[k] * n
    u1 /= np.linalg.norm(u1)
    out = [unpack_section(u, 2) for u in (u1, np.cross(n, u1))]
    # the tower keeps these solves for solve_q_equation at each Q
    for Q, sol in zip(out, _q_solutions(tw, [Q * tw.P_tilde for Q in out])):
        if abs(_r_of(sol)) > 1e-8 * scale * max(1.0, Q.norm()):
            raise DegenerateKernelError("kernel candidate fails R(Q) = 0 re-evaluation")
    return tuple(out)


# ---------------------------------------------------------------------------
# The reduced Q-equation
# ---------------------------------------------------------------------------


# the (label, deg G) of the triples each kind of parameters applies to
PARAMS_CASE = {CaseAParams: ("a", 0), CaseBLinearParams: ("b", 1),
               CaseBQuadParams: ("b", 2), CaseEParams: ("e", 0)}


def _q_solutions(tw, Cs):
    """Minimal solutions of the reduced Q-equation b1-tilde X - b2-tilde Y = C,
    one per right-hand side of ``Cs``: those the tower ``tw`` has not made
    yet are made in one solve and kept (``Tower.q_solves``)."""
    keys = [C.coeffs.tobytes() for C in Cs]
    new = {k: C for k, C in zip(keys, Cs) if k not in tw.q_solves}
    if new:
        sols = minimal_solution(tw.b1_tilde, tw.b2_tilde, list(new.values()),
                                known_gcd=Polynomial.one(), spec=tw.b2_spec)
        tw.q_solves.update(zip(new, sols))
    return [tw.q_solves[k] for k in keys]


def solve_q_equation(tw, params):
    """Construct (c1, c2, Q) for the given case parameters on the tower
    ``tw`` (from ``build_tower``, which refuses cases (c)/(d)/(f)).

    Returns (c1, c2, Q, info) where info carries the consistency residual
    of b1*c2 - b2*c1 = Q*P.  Raises a precondition error when the
    parameters do not fit the tower's case, or when a case-(a) Q has
    R(Q) != 0.
    """
    triple = tw.triple
    g = triple.g
    d1, d2 = tw.F1.degree, tw.F2.degree
    case = PARAMS_CASE.get(type(params))
    if case is None:
        raise TypeError(f"unrecognized deformation parameters: {params!r}")
    if case != (tw.label.label, tw.G.degree):
        raise ValueError(
            f"{type(params).__name__} needs case ({case[0]}) with deg G = {case[1]}, "
            f"not case ({tw.label.label}) with deg G = {tw.G.degree}"
        )

    # the intermediate parts are coefficient arrays (``polyring.c_*``)
    b1t, b2t = tw.b1_tilde.coeffs, tw.b2_tilde.coeffs
    if isinstance(params, CaseAParams):
        Q = params.Q
        if real_defect(Q, 2) > 1e-8 * max(1.0, Q.norm()):
            raise RealityViolationError("Q is not a real quadratic section")
        C = Q * tw.P_tilde
        (sol,) = _q_solutions(tw, [C])
        x = sol.x_raw
        top = abs(x[-1]) if x.size else 0.0
        scale = max(1.0, c_norm(x) if x.size else 0.0)
        if top > 1e-8 * scale:
            raise RealityViolationError(
                f"R(Q) = {x[-1]:.3e} does not vanish; Q is outside the kernel"
            )
        c2t = c_symmetrize(trim(x[:-1]) if x.size > 1 else Polynomial.zero().coeffs, g + 1 - d2)
        c1t = c_divmod(c_sub(c_mul(b1t, c2t), C.coeffs), b2t)[0]
        Q_full = Q
    elif isinstance(params, CaseBLinearParams):
        Qt = params.Q_tilde
        if real_defect(Qt, 1) > 1e-8 * max(1.0, Qt.norm()):
            raise RealityViolationError("Q-tilde is not a weight-1 real section")
        C = Qt * tw.P_tilde
        (sol,) = _q_solutions(tw, [C])
        c2t, c1t = sol.x, sol.y
        Q_full = tw.G * Qt
    else:
        # one real number times G (case b) or zeta (case e), plus r along
        # (b1-tilde, b2-tilde)
        if isinstance(params, CaseBQuadParams):
            q = float(params.q)
            C = tw.P_tilde * q
            Q_full = tw.G * q
        else:
            q = float(params.q1)
            C = Polynomial.zeta() * tw.P_tilde * q
            Q_full = Polynomial([0.0, q])
        a_w, b_w = g + 1 - d1, g + 1 - d2
        c_w = 2 * g + 2 - d1 - d2
        (sol,) = realify(tw.b1_tilde, tw.b2_tilde, [C], a_w, b_w, c_w, _q_solutions(tw, [C]))
        r = float(params.r)
        c2t = c_add(sol.x, c_scale(b2t, r))
        c1t = c_add(sol.y, c_scale(b1t, r))
    try:
        c1 = Polynomial(c_mul(tw.F1.coeffs, c1t))
        c2 = Polynomial(c_mul(tw.F2.coeffs, c2t))
        QP = c_mul(Q_full.coeffs, triple.P.coeffs)
        b1c2 = c_mul(triple.b1.coeffs, c2.coeffs)
        identity = c_sub(c_sub(b1c2, c_mul(triple.b2.coeffs, c1.coeffs)), QP)
    except ValueError as exc:
        # finite inputs: a product left the float range
        raise NumericalFailureError(f"Q-equation solution: {exc}") from exc
    q_res = c_norm(identity) / max(
        c_norm(QP), triple.b1.norm() * max(c2.norm(), 1e-300), 1e-300
    )
    info = {"q_identity": float(q_res)}
    return c1, c2, Q_full, info


# ---------------------------------------------------------------------------
# The deformation identities
# ---------------------------------------------------------------------------


def _twist(chat):
    """chat - zeta chat', on coefficient arrays."""
    return c_sub(chat, c_mul(_ZETA, c_derivative(chat)))


def _empdi_terms(twoP, dPz, chat, twist):
    """2P(chat - zeta chat') + P' zeta chat on coefficient arrays, from
    twoP = 2P, dPz = P' zeta and twist = ``_twist(chat)``."""
    return c_add(c_mul(twoP, twist), c_mul(dPz, chat))


def _empdi_residual(triple, v, i, twoP, dPz, chat, twist):
    """Relative residual of the i-th deformation identity along ``v``, from
    the coefficient arrays ``solve_empdi`` built: twoP = 2P, dPz = P' zeta,
    chat = (zeta^2 - 1) c_i and twist = chat - zeta chat'."""
    b = triple.b1 if i == 1 else triple.b2
    b_dot = v.b1_dot if i == 1 else v.b2_dot
    lhs = c_sub(c_mul(v.P_dot.coeffs, b.coeffs), c_mul(twoP, b_dot.coeffs))
    rhs = _empdi_terms(twoP, dPz, chat, twist)
    scale = max(c_norm(lhs), c_norm(rhs), triple.P.norm() * b.norm() * 1e-6, 1e-300)
    return c_norm(c_sub(lhs, rhs)) / scale


def _residue_tangent_residual(triple, v, i):
    b = triple.b1 if i == 1 else triple.b2
    b_dot = v.b1_dot if i == 1 else v.b2_dot
    # the derivative of the bilinear residue condition along the vector
    val = residue_condition(v.P_dot, b) + residue_condition(triple.P, b_dot)
    scale = max(
        v.P_dot.norm() * b.norm() + triple.P.norm() * b_dot.norm(), 1e-300
    )
    return abs(val) / scale


def _scaling_shift(tw, P_dot):
    """The real rescale parameter t killing the scaling-normalization
    derivative along (P_dot + 2tP, ...) at the tower's triple.

    Uses the numerator of d/dt (Pi_m / P_m) that the scaling row of the
    exact Jacobian also uses (``ScalingRow.numerators``), on the tower's
    ``scaling_row``: alpha_k moves by -P_dot(alpha_k)/P'(alpha_k).
    """
    row = tw.scaling_row
    m = row.index
    (num,) = row.numerators([P_dot])
    t = num / (2.0 * row.P.coeff(m) * row.product.coeff(m))
    return float(t.real), float(abs(t.imag))


@np.errstate(over="ignore", invalid="ignore")  # inf or nan past the float range, refused
def solve_empdi(tw, qs):
    """Solve both deformation identities for a common (P-dot, b1-dot, b2-dot)
    at the triple of the tower ``tw``, for each (c1, c2, Q, params) of
    ``qs``; returns one tangent vector per entry, in order.

    Each identity's reduced Bezout system is solved once for every entry
    (one right-hand side each), and the terms that depend on the tower
    alone are formed once.  Per vector, the P-dot solution families of the
    two identities are reconciled by a dense least-squares over the small
    real parameter polynomials (r, s), and the leftover rescaling freedom
    fixed by the scaling-derivative condition (at conformal points the
    residue-derivative condition first pins the constant part s_0, after
    which the second differential's condition holds automatically).
    """
    triple = tw.triple
    g = triple.g

    # the intermediate parts are coefficient arrays (``polyring.c_*``);
    # Polynomials are built for the Bezout data and the returned vectors
    try:
        chats = [tuple(c_mul(_ZETA2M1, c.coeffs) for c in (c1, c2)) for c1, c2, _, _ in qs]
        twists = [tuple(_twist(ch) for ch in chat) for chat in chats]
    except ValueError as exc:  # finite inputs: a term left the float range
        raise NumericalFailureError(f"deformation identity term: {exc}") from exc
    dP = c_derivative(triple.P.coeffs)
    twoP = c_scale(triple.P.coeffs, 2.0)
    # at a conformal point the tower's zeta split absorbs the zeta of the
    # P' term, and the two end coefficients it removes lower each weight by 2
    Z, shift = (_ONE, 2) if tw.conformal else (_ZETA, 0)
    ZdP = c_mul(c_mul(Z, _ZETA2M1), dP)

    # per identity i, the solution of every entry (sols[i][k]) and the
    # X-generator, Y-generator and parameter weight (hom[i])
    sols = []
    hom = []
    for i, ((B, spec), Fi, bt) in enumerate(zip(tw.divisors, (tw.F1, tw.F2),
                                                (tw.b1_tilde, tw.b2_tilde))):
        FFi = c_mul(tw.F.coeffs, Fi.coeffs)
        A = tw.G * bt
        try:
            Cs = [Polynomial(c_add(c_mul(B.coeffs, tch[i]),
                                   c_mul(ZdP, c_deflate(q[i].coeffs, FFi))))
                  for tch, q in zip(twists, qs)]
        except ValueError as exc:
            # finite inputs: a product left the float range
            raise NumericalFailureError(f"deformation identity right-hand side: {exc}") from exc
        dF = tw.F.degree + Fi.degree
        a_w = g + 3 - dF - shift
        c_w = 3 * g + 5 - dF - shift
        b_w = c_w - (g + 3)
        found = minimal_solution(A, B, Cs, known_gcd=Polynomial.one(), spec=spec)
        sols.append(realify(A, B, Cs, a_w, b_w, c_w, found))
        hom.append((B.coeffs, A.coeffs, c_w - a_w - b_w))

    # reconcile: P1dot + u1*B1 = P2dot + u2*B2 over real-section (u1, u2)
    delta1, delta2 = hom[0][2], hom[1][2]
    n_rows = 2 * g + 3
    cols = []
    for sgn, dlt, (Bgen, _, _) in ((1.0, delta1, hom[0]), (-1.0, delta2, hom[1])):
        for x in np.eye(dlt + 1):
            e = trim(section_coeffs(x, dlt))
            col = c_padded(c_scale(c_mul(e, Bgen), sgn), n_rows)
            cols.append(np.concatenate([col.real, col.imag]))
    M = np.column_stack(cols)
    dPz = c_mul(dP, _ZETA)
    return [_empdi_vector(tw, M, hom, twoP, dPz, pair, q, chat, twist)
            for pair, q, chat, twist in zip(zip(*sols), qs, chats, twists)]


def _empdi_vector(tw, M, hom, twoP, dPz, sols, q, chat, twist):
    """The tangent vector of one entry q = (c1, c2, Q, params) of
    ``solve_empdi``, from the tower's reconciliation matrix ``M``,
    generators ``hom``, 2P and P' zeta, the entry's solution of each
    identity (``sols``), its chat pair and their twists."""
    triple = tw.triple
    g = triple.g
    c1, c2, Q, params = q
    delta1, delta2 = hom[0][2], hom[1][2]
    warnings = [w for sol in sols for w in sol.warnings]
    # the per-vector solve stays one lstsq: a multi-column lstsq is not
    # bit-identical per column
    rhs_poly = c_padded(c_sub(sols[1].x, sols[0].x), 2 * g + 3)
    rhs = np.concatenate([rhs_poly.real, rhs_poly.imag])
    u, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    if not np.isfinite(u).all():
        raise NumericalFailureError("P-dot reconciliation is not finite")
    recon_res = c_norm(M @ u - rhs)
    scale = max(c_norm(sols[0].x), c_norm(sols[1].x), triple.P.norm(), 1.0)
    if recon_res > 1e-6 * scale:
        raise InternalInconsistencyError(
            f"P-dot reconciliation residual {recon_res / scale:.3e}; "
            "input triple is not consistent deformation data"
        )
    u1 = trim(section_coeffs(u[: delta1 + 1], delta1))
    u2 = trim(section_coeffs(u[delta1 + 1 :], delta2))
    P1_dot = c_add(sols[0].x, c_mul(u1, hom[0][0]))
    P2_dot = c_add(sols[1].x, c_mul(u2, hom[1][0]))
    P_dot = c_scale(c_add(P1_dot, P2_dot), 0.5)
    b1_dot = c_add(sols[0].y, c_mul(u1, hom[0][1]))
    b2_dot = c_add(sols[1].y, c_mul(u2, hom[1][1]))

    if tw.conformal:
        # pin s_0 from the first differential's residue-derivative condition
        P1c = triple.P.coeff(1)
        b11 = triple.b1.coeff(1)
        b1d0, Pd0 = complex(b1_dot[0]), complex(P_dot[0])
        try:
            s0 = (P1c * b1d0 - 2.0 * Pd0 * b11) / (3.0 * P1c * b11)
        except ZeroDivisionError:  # P_1 b1_1 below the smallest float: term by term
            s0 = b1d0 / (3.0 * b11) - 2.0 * Pd0 / (3.0 * P1c)
        try:
            u_e = trim(np.array([s0, 0.0, np.conj(s0)], dtype=complex))
            P_over_zeta = c_mul(c_mul(tw.F1.coeffs, tw.F2.coeffs), tw.P_tilde.coeffs)
            P_dot = c_add(P_dot, c_scale(c_mul(u_e, P_over_zeta), 2.0))
            b1_dot = c_add(b1_dot, c_mul(u_e, c_mul(tw.F1.coeffs, tw.b1_tilde.coeffs)))
            b2_dot = c_add(b2_dot, c_mul(u_e, c_mul(tw.F2.coeffs, tw.b2_tilde.coeffs)))
        except ValueError as exc:
            # finite inputs: a product left the float range
            raise NumericalFailureError(f"conformal residue pin: {exc}") from exc

    t, t_imag = _scaling_shift(tw, Polynomial(P_dot))
    if t_imag > 1e-6 * max(1.0, abs(t)):
        warnings.append(f"scaling shift has imaginary part {t_imag:.2e}")
    P_dot = Polynomial(c_add(P_dot, c_scale(triple.P.coeffs, 2.0 * t)))
    b1_dot = Polynomial(c_add(b1_dot, c_scale(triple.b1.coeffs, t)))
    b2_dot = Polynomial(c_add(b2_dot, c_scale(triple.b2.coeffs, t)))

    v = TangentVector(P_dot, b1_dot, b2_dot, params, c1, c2, Q, {}, tuple(warnings))
    t_after, _ = _scaling_shift(tw, P_dot)
    v.residuals.update({
        "empd1": _empdi_residual(triple, v, 1, twoP, dPz, chat[0], twist[0]),
        "empd2": _empdi_residual(triple, v, 2, twoP, dPz, chat[1], twist[1]),
        "residue_tangent_1": _residue_tangent_residual(triple, v, 1),
        "residue_tangent_2": _residue_tangent_residual(triple, v, 2),
        "reconciliation": recon_res / scale,
        "scaling_derivative": abs(t_after) / max(1.0, v.norm()),
        "reality": max(
            real_defect(P_dot, 2 * g + 2),
            real_defect(b1_dot, g + 3),
            real_defect(b2_dot, g + 3),
        )
        / max(v.norm(), 1e-300),
    })
    return v


def make_tangents(tw, params):
    """solve_q_equation at each parameter choice of ``params``, then
    solve_empdi for all of them at once, on the tower ``tw``."""
    solved = [solve_q_equation(tw, p) for p in params]
    vectors = solve_empdi(tw, [(c1, c2, Q, p) for (c1, c2, Q, _), p in zip(solved, params)])
    for v, (*_, info) in zip(vectors, solved):
        v.residuals["q_identity"] = info["q_identity"]
    return vectors


def make_tangent(tw, params):
    """The tangent vector of one parameter choice (``make_tangents``)."""
    return make_tangents(tw, [params])[0]


def tangent_params(tw):
    """The pair of deformation parameters whose tangent vectors span the
    tangent space at the triple of the real tower ``tw``.

    Case (a): the kernel basis of R; case (b) with G linear: the real
    sections {1 + zeta, i - i zeta}; case (b) with G quadratic and case
    (e): the canonical parameter pairs (1, 0) and (0, 1).
    """
    label = tw.label.label
    if label == "a":
        q1, q2 = r_kernel(tw)
        return CaseAParams(q1), CaseAParams(q2)
    if label == "b" and tw.G.degree == 1:
        return (
            CaseBLinearParams(Polynomial([1.0, 1.0])),
            CaseBLinearParams(Polynomial([1j, -1j])),
        )
    if label == "b":
        return CaseBQuadParams(1.0, 0.0), CaseBQuadParams(0.0, 1.0)
    return CaseEParams(1.0, 0.0), CaseEParams(0.0, 1.0)


def tangent_basis(triple):
    """Two independent tangent vectors spanning the deformation parameters
    (those of ``tangent_params``), and their Gram determinant."""
    tw = build_tower(triple)
    vectors = tuple(make_tangents(tw, tangent_params(tw)))
    return vectors, gram_determinant(vectors)


def gram_determinant(vectors):
    """Determinant of the Gram matrix of the coefficient-flattened,
    normalized tangent vectors; the independence certificate."""
    flats = []
    for v in vectors:
        x = np.concatenate(
            [v.P_dot.padded(40), v.b1_dot.padded(40), v.b2_dot.padded(40)]
        )
        n = c_norm(x)
        flats.append(x / max(n, 1e-300))
    G = np.zeros((len(flats), len(flats)))
    for i, a in enumerate(flats):
        for j, b in enumerate(flats):
            G[i, j] = np.real(np.vdot(a, b))
    return float(np.linalg.det(G))


# ---------------------------------------------------------------------------
# Recovery of chat from a tangent vector
# ---------------------------------------------------------------------------


def empdi_operator_matrix(P, g):
    """Matrix of chat -> 2P(chat - zeta chat') + P' zeta chat
    (``_empdi_terms``) on the weight-(g+3) polynomials, one column per
    monomial zeta^m; injective for nonsingular P."""
    twoP, dPz = c_scale(P.coeffs, 2.0), c_mul(c_derivative(P.coeffs), _ZETA)
    chats = [trim(e.astype(complex)) for e in np.eye(g + 4)]
    return np.column_stack(
        [c_padded(_empdi_terms(twoP, dPz, ch, _twist(ch)), 3 * g + 6) for ch in chats]
    )


def recovery_sigma_min(M):
    """Smallest singular value of ``M`` with its nonzero rows normalised:
    the injectivity margin of the recovery operator."""
    row_norms = np.linalg.norm(M, axis=1)
    keep = row_norms > 0
    return float(np.linalg.svd(M[keep] / row_norms[keep, None], compute_uv=False)[-1])


def recover_chat(triple, v):
    """The unique pair (chat1, chat2) reproducing the tangent vector through
    the deformation identities; raises when the operator is numerically
    singular (which would contradict a nonsingular spectral curve)."""
    M = empdi_operator_matrix(triple.P, triple.g)
    smin = recovery_sigma_min(M)
    if smin <= 1e-10:
        raise SingularOperatorError(
            f"homogeneous recovery operator has sigma_min = {smin:.2e}"
        )
    out = []
    for b, b_dot in ((triple.b1, v.b1_dot), (triple.b2, v.b2_dot)):
        rhs_poly = v.P_dot * b - 2.0 * triple.P * b_dot
        rhs = rhs_poly.padded(M.shape[0])
        chat, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        res = np.linalg.norm(M @ chat - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if res > 1e-6:
            raise SingularOperatorError(
                f"chat recovery residual {res:.3e}; tangent data inconsistent"
            )
        out.append(Polynomial(chat))
    return tuple(out)


# ---------------------------------------------------------------------------
# Conformal-type evolution
# ---------------------------------------------------------------------------


def conformal_type_rate(triple, v):
    """tau-dot = Q_0 * tau * P_0 / (b1_0 * b2_0) at a nonconformal point."""
    P0 = triple.P.coeff(0)
    b10 = triple.b1.coeff(0)
    b20 = triple.b2.coeff(0)
    if abs(b10) == 0.0:
        raise UndefinedConformalTypeError("b1_0 = 0: conformal type undefined")
    if is_conformal(triple):
        raise UndefinedConformalTypeError("conformal point: P_0 = 0")
    tau = b20 / b10
    return v.Q.coeff(0) * tau * P0 / (b10 * b20)
