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
the deformation identities (for the Bezout solves).  Each is computed once
per tower and passed on; nothing is cached between calls.

Construction pipeline: solve the reduced Q-equation for (c1, c2) at the
case's parameter choice, feed them into the two reduced identities, solve
each by the confluent-Vandermonde machinery, reconcile the two P-dot
families on the common-solution line, and finally fix the rescaling
freedom (P-dot, b-dot) -> (P-dot + 2sP, b-dot + s b) by requiring the
derivative of the scaling normalization to vanish (plus, at conformal
points, the residue-derivative condition that pins s_0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bezout import RootSpec, minimal_solution, realify
from .curve import _curve_from_roots, residue_condition
from .errors import (
    DegenerateKernelError,
    InternalInconsistencyError,
    NotDeformableError,
    RealityViolationError,
    SingularOperatorError,
    UndefinedConformalTypeError,
)
from .polyring import (
    GCD_CLUSTER_RADIUS,
    FactorStructure,
    Polynomial,
    factor_structure,
    real_defect,
    real_section_scale,
    symmetrize,
)
from .spectral import is_conformal, product_form, scaling_derivative_numerators, unpack_section


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
        return float(
            np.sqrt(
                self.P_dot.norm() ** 2
                + self.b1_dot.norm() ** 2
                + self.b2_dot.norm() ** 2
            )
        )

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
    identity, B_i = 2 F_j P-tilde.  So each is rooted once per tower."""

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

    @property
    def conformal(self):
        return self.label.conformal

    @property
    def P_roots(self):
        """``roots(P)``, as the gcd tower found them."""
        return self.label.factors.P_roots


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
    # point), and B_2 = B_1 whenever F1 = F2
    b2_q, b2_q_roots = fs.b2_reduced
    b2_spec = RootSpec.ordered(b2_q_roots) if b2_tilde == b2_q else RootSpec.of(b2_tilde)
    B1 = 2.0 * F2 * P_tilde
    B2 = 2.0 * F1 * P_tilde
    spec1 = RootSpec.of(B1)
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
    return _r_last_coefficient(tw.b1_tilde, tw.b2_tilde, Q * tw.P_tilde, tw.b2_spec)


def _r_last_coefficient(A, B, C, spec):
    if B.degree < 1:
        raise DegenerateKernelError("b2-tilde is degenerate (degree < 1); R undefined")
    sol = minimal_solution(A, B, C, known_gcd=Polynomial.one(), spec=spec)
    x = sol.x_raw
    return complex(x[-1]) if x.size else 0.0 + 0.0j


def r_kernel(tw):
    """Orthonormal basis (in real coordinates) of the 2-plane of real
    quadratics with R(Q) = 0 on the tower ``tw``.

    The reality relation conj(R) = (-1)^n (prod beta_i) R forces the real
    rank of R on the quadratics to be at most 1; a numerical rank other
    than 1 yields a degeneracy error, never a fabricated basis.
    """
    M = np.zeros((2, 3))
    for j, e in enumerate(np.eye(3)):
        val = r_value(tw, unpack_section(e, 2))
        M[0, j] = val.real
        M[1, j] = val.imag
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
    for Q in out:
        if abs(r_value(tw, Q)) > 1e-8 * scale * max(1.0, Q.norm()):
            raise DegenerateKernelError("kernel candidate fails R(Q) = 0 re-evaluation")
    return tuple(out)


# ---------------------------------------------------------------------------
# The reduced Q-equation
# ---------------------------------------------------------------------------


# the (label, deg G) of the triples each kind of parameters applies to
PARAMS_CASE = {CaseAParams: ("a", 0), CaseBLinearParams: ("b", 1),
               CaseBQuadParams: ("b", 2), CaseEParams: ("e", 0)}


def _q_solution(tw, C):
    """Minimal solution of the reduced Q-equation b1-tilde X - b2-tilde Y = C."""
    return minimal_solution(
        tw.b1_tilde, tw.b2_tilde, C, known_gcd=Polynomial.one(), spec=tw.b2_spec
    )


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

    if isinstance(params, CaseAParams):
        Q = params.Q
        if real_defect(Q, 2) > 1e-8 * max(1.0, Q.norm()):
            raise RealityViolationError("Q is not a real quadratic section")
        C = Q * tw.P_tilde
        x = _q_solution(tw, C).x_raw
        top = abs(x[-1]) if x.size else 0.0
        scale = max(1.0, float(np.linalg.norm(x)) if x.size else 0.0)
        if top > 1e-8 * scale:
            raise RealityViolationError(
                f"R(Q) = {x[-1]:.3e} does not vanish; Q is outside the kernel"
            )
        c2t = symmetrize(Polynomial(x[:-1]) if x.size > 1 else Polynomial.zero(), g + 1 - d2)
        c1t, rem = (tw.b1_tilde * c2t - C).divmod(tw.b2_tilde)
        rem_rel = rem.norm() / max(C.norm(), 1.0)
        Q_full = Q
    elif isinstance(params, CaseBLinearParams):
        Qt = params.Q_tilde
        if real_defect(Qt, 1) > 1e-8 * max(1.0, Qt.norm()):
            raise RealityViolationError("Q-tilde is not a weight-1 real section")
        C = Qt * tw.P_tilde
        sol = _q_solution(tw, C)
        c2t, c1t = sol.X, sol.Y
        rem_rel = sol.residual
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
        sol = realify(tw.b1_tilde, tw.b2_tilde, C, a_w, b_w, c_w, _q_solution(tw, C))
        c2t = sol.X + float(params.r) * tw.b2_tilde
        c1t = sol.Y + float(params.r) * tw.b1_tilde
        rem_rel = sol.residual
    c1 = tw.F1 * c1t
    c2 = tw.F2 * c2t

    q_res = (triple.b1 * c2 - triple.b2 * c1 - Q_full * triple.P).norm() / max(
        (Q_full * triple.P).norm(), triple.b1.norm() * max(c2.norm(), 1e-300), 1e-300
    )
    info = {"q_identity": float(q_res), "solve_residual": float(rem_rel)}
    return c1, c2, Q_full, info


# ---------------------------------------------------------------------------
# The deformation identities
# ---------------------------------------------------------------------------


def _empdi_rhs(P, chat):
    """2P(chat - zeta chat') + P' zeta chat."""
    zeta = Polynomial.zeta()
    return 2.0 * P * (chat - zeta * chat.derivative()) + P.derivative() * zeta * chat


def _empdi_residual(triple, v, i):
    b = triple.b1 if i == 1 else triple.b2
    b_dot = v.b1_dot if i == 1 else v.b2_dot
    c = v.c1 if i == 1 else v.c2
    chat = Polynomial([-1.0, 0.0, 1.0]) * c
    lhs = v.P_dot * b - 2.0 * triple.P * b_dot
    rhs = _empdi_rhs(triple.P, chat)
    scale = max(lhs.norm(), rhs.norm(), triple.P.norm() * b.norm() * 1e-6, 1e-300)
    return (lhs - rhs).norm() / scale


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
    derivative along (P_dot + 2tP, ...) at the tower's triple, whose
    ``roots(P)`` the tower carries.

    Uses the numerator of d/dt (Pi_m / P_m) that the scaling row of the
    exact Jacobian also uses (``scaling_derivative_numerators``): alpha_k
    moves by -P_dot(alpha_k)/P'(alpha_k), and the reference index is the
    largest product-form coefficient (stable across the conformal locus).
    """
    P = tw.triple.P
    alphas = [a for a, _ in _curve_from_roots(P, tw.P_roots).branch_pairs]
    Pi = product_form(alphas)
    m = int(np.argmax(np.abs(Pi.coeffs)))
    (num,) = scaling_derivative_numerators(alphas, P, Pi, m, [P_dot])
    t = num / (2.0 * P.coeff(m) * Pi.coeff(m))
    return float(t.real), float(abs(t.imag))


def solve_empdi(tw, c1, c2, Q, params=None):
    """Solve both deformation identities for a common (P-dot, b1-dot, b2-dot)
    at the triple of the tower ``tw``.

    The two reduced Bezout problems are solved independently, their P-dot
    solution families reconciled by a dense least-squares over the small
    real parameter polynomials (r, s), and the leftover rescaling freedom
    fixed by the scaling-derivative condition (at conformal points the
    residue-derivative condition first pins the constant part s_0, after
    which the second differential's condition holds automatically).
    """
    triple = tw.triple
    g = triple.g
    warnings = []

    zeta = Polynomial.zeta()
    zeta2m1 = Polynomial([-1.0, 0.0, 1.0])
    chat = (zeta2m1 * c1, zeta2m1 * c2)
    dP = triple.P.derivative()
    # at a conformal point the tower's zeta split absorbs the zeta of the
    # P' term, and the two end coefficients it removes lower each weight by 2
    Z, shift = (Polynomial.one(), 2) if tw.conformal else (zeta, 0)

    sols = []
    hom = []
    parts = zip(tw.divisors, chat, (c1, c2), (tw.F1, tw.F2), (tw.b1_tilde, tw.b2_tilde))
    for (B, spec), ch, c, Fi, bt in parts:
        ct = c.deflate(tw.F * Fi)
        A = tw.G * bt
        C = B * (ch - zeta * ch.derivative()) + Z * zeta2m1 * dP * ct
        dF = tw.F.degree + Fi.degree
        a_w = g + 3 - dF - shift
        c_w = 3 * g + 5 - dF - shift
        b_w = c_w - (g + 3)
        sol = minimal_solution(A, B, C, known_gcd=Polynomial.one(), spec=spec)
        sol = realify(A, B, C, a_w, b_w, c_w, sol)
        warnings.extend(sol.warnings)
        sols.append(sol)
        hom.append((B, A, c_w - a_w - b_w))  # X-generator, Y-generator, param weight

    # reconcile: P1dot + u1*B1 = P2dot + u2*B2 over real-section (u1, u2)
    delta1, delta2 = hom[0][2], hom[1][2]
    n_rows = 2 * g + 3
    cols = []
    for sgn, dlt, (Bgen, _, _) in ((1.0, delta1, hom[0]), (-1.0, delta2, hom[1])):
        for x in np.eye(dlt + 1):
            e = unpack_section(x, dlt)
            col = (sgn * (e * Bgen)).padded(n_rows)
            cols.append(np.concatenate([col.real, col.imag]))
    M = np.column_stack(cols)
    rhs_poly = sols[1].X - sols[0].X
    rhs = np.concatenate([rhs_poly.padded(n_rows).real, rhs_poly.padded(n_rows).imag])
    u, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    recon_res = float(np.linalg.norm(M @ u - rhs))
    scale = max(sols[0].X.norm(), sols[1].X.norm(), triple.P.norm(), 1.0)
    if recon_res > 1e-6 * scale:
        raise InternalInconsistencyError(
            f"P-dot reconciliation residual {recon_res / scale:.3e}; "
            "input triple is not consistent deformation data"
        )
    u1 = unpack_section(u[: delta1 + 1], delta1)
    u2 = unpack_section(u[delta1 + 1 :], delta2)
    P1 = sols[0].X + u1 * hom[0][0]
    P2 = sols[1].X + u2 * hom[1][0]
    P_dot = (P1 + P2) * 0.5
    b1_dot = sols[0].Y + u1 * hom[0][1]
    b2_dot = sols[1].Y + u2 * hom[1][1]

    if tw.conformal:
        # pin s_0 from the first differential's residue-derivative condition
        P1c = triple.P.coeff(1)
        b11 = triple.b1.coeff(1)
        s0 = (P1c * b1_dot.coeff(0) - 2.0 * P_dot.coeff(0) * b11) / (3.0 * P1c * b11)
        u_e = Polynomial([s0, 0.0, np.conj(s0)])
        P_over_zeta = tw.F1 * tw.F2 * tw.P_tilde
        P_dot = P_dot + 2.0 * (u_e * P_over_zeta)
        b1_dot = b1_dot + u_e * (tw.F1 * tw.b1_tilde)
        b2_dot = b2_dot + u_e * (tw.F2 * tw.b2_tilde)

    t, t_imag = _scaling_shift(tw, P_dot)
    if t_imag > 1e-6 * max(1.0, abs(t)):
        warnings.append(f"scaling shift has imaginary part {t_imag:.2e}")
    P_dot = P_dot + 2.0 * t * triple.P
    b1_dot = b1_dot + t * triple.b1
    b2_dot = b2_dot + t * triple.b2

    v = TangentVector(P_dot, b1_dot, b2_dot, params, c1, c2, Q, {}, tuple(warnings))
    t_after, _ = _scaling_shift(tw, P_dot)
    v.residuals.update({
        "empd1": _empdi_residual(triple, v, 1),
        "empd2": _empdi_residual(triple, v, 2),
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


def make_tangent(tw, params):
    """solve_q_equation followed by solve_empdi, on the tower ``tw``."""
    c1, c2, Q, info = solve_q_equation(tw, params)
    v = solve_empdi(tw, c1, c2, Q, params=params)
    v.residuals["q_identity"] = info["q_identity"]
    return v


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
    vectors = tuple(make_tangent(tw, p) for p in tangent_params(tw))
    return vectors, gram_determinant(vectors)


def gram_determinant(vectors):
    """Determinant of the Gram matrix of the coefficient-flattened,
    normalized tangent vectors; the independence certificate."""
    flats = []
    for v in vectors:
        x = np.concatenate(
            [v.P_dot.padded(40), v.b1_dot.padded(40), v.b2_dot.padded(40)]
        )
        n = np.linalg.norm(x)
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
    """Matrix of chat -> ``_empdi_rhs(P, chat)`` on the weight-(g+3)
    polynomials, one column per monomial zeta^m; injective for nonsingular
    P."""
    return np.column_stack(
        [_empdi_rhs(P, Polynomial(e)).padded(3 * g + 6) for e in np.eye(g + 4)]
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
