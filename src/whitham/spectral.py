"""Spectral triples (P, b1, b2), their admissibility conditions, and the
condition map Psi.

A candidate triple consists of a curve polynomial P (real section of
weight 2g+2) and differential numerators b1, b2 (real sections of weight
g+3) with at most a simple root at zeta = 0.  Membership in the moduli
set additionally requires: no unit-circle roots and only simple roots of
P, vanishing residues over zeta = 0, all periods and the four closing
integrals on the 2*pi*i lattice, real-linearly independent principal
parts, and the product-form scaling normalization of P.

``psi`` collects every one of those numerical conditions into one vector;
``validate`` grades them against a tolerance profile.  The map is
deterministic given the deterministic homology basis; for derivative work
(``d_psi``, Jacobians, Newton projection) the basis geometry and the
scaling's reference coefficient index are frozen in a ``PsiFrame`` so
nearby triples are measured against identical paths.

Newton projection uses the exact Jacobian: in a frozen frame every column
is a sum over the nodes of the same walks that evaluate Psi.  ``psi_walks``
keeps those walks and assembles the Jacobian only when asked.  The
central-difference ``d_psi`` and ``psi_jacobian`` are kept as its
independent oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curve import (
    CIRCLE_TOL,
    _curve_from_roots,
    build_curve,
    homology_basis,
    residue_condition,
    walk_path,
)
from .errors import (
    CircleRootError,
    DegreeBoundError,
    MultipleRootError,
    RealityViolationError,
    StepSizeError,
    UndefinedConformalTypeError,
    WhithamError,
)
from .polyring import Polynomial, real_defect, roots

TWO_PI = 2.0 * np.pi
# P is conformal (branched over zeta = 0) when |P_0| is below this times |P|
CONFORMAL_RTOL = 1e-9
# the principal parts are independent when their normalized margin clears this
P8_TOL = 1e-10


@dataclass(frozen=True)
class ToleranceProfile:
    """Default thresholds: algebraic identities at 1e-10, integral lattice
    checks at 1e-8 (quadrature error dominates), root separation at 1e-8;
    all CLI-overridable."""

    alg: float = 1e-10
    integral: float = 1e-8
    cluster: float = 1e-8


@dataclass(frozen=True)
class SpectralTriple:
    g: int
    P: Polynomial
    b1: Polynomial
    b2: Polynomial

    def __post_init__(self):
        if self.P.degree > 2 * self.g + 2:
            raise DegreeBoundError("P exceeds weight 2g+2")
        for b in (self.b1, self.b2):
            if b.degree > self.g + 3:
                raise DegreeBoundError("b exceeds weight g+3")

    def weights(self):
        return 2 * self.g + 2, self.g + 3, self.g + 3

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        return {
            "genus": self.g,
            "P": self.P.to_pairs(),
            "b1": self.b1.to_pairs(),
            "b2": self.b2.to_pairs(),
        }

    @staticmethod
    def from_json_dict(d):
        """Parse the JSON schema; raises ``ValueError`` for any other shape
        (not an object, a genus that is not a non-negative integer, a
        coefficient list that is not a list of [re, im] number pairs, or a
        polynomial of higher degree than its weight allows)."""
        if not isinstance(d, dict):
            raise ValueError("a triple must be a JSON object")
        g = d.get("genus")
        if isinstance(g, bool) or not isinstance(g, int) or g < 0:
            raise ValueError(f"genus must be a non-negative integer, not {g!r}")
        polys = []
        for key, bound in (("P", 2 * g + 2), ("b1", g + 3), ("b2", g + 3)):
            pairs = d.get(key)
            if not isinstance(pairs, list) or not all(map(_is_number_pair, pairs)):
                raise ValueError(f"{key} must be a list of [re, im] number pairs")
            try:
                polys.append(Polynomial.from_pairs(pairs, bound=bound))
            except DegreeBoundError as exc:
                raise ValueError(
                    f"{key} has more coefficients than weight {bound} allows"
                ) from exc
        return SpectralTriple(g, *polys)


def _is_number_pair(p):
    return isinstance(p, (list, tuple)) and len(p) == 2 and all(
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max  # finite, and no int beyond float range
        for v in p
    )


# ---------------------------------------------------------------------------
# Real coordinate chart
# ---------------------------------------------------------------------------


def pack_section(p, k):
    """Real coordinates of a weight-k real section: k+1 numbers."""
    c = p.padded(k + 1)
    out = []
    for i in range((k + 1) // 2):
        out.extend((c[i].real, c[i].imag))
    if (k + 1) % 2:
        out.append(c[k // 2].real)
    return np.array(out)


def unpack_section(x, k):
    c = np.zeros(k + 1, dtype=complex)
    j = 0
    for i in range((k + 1) // 2):
        c[i] = complex(x[j], x[j + 1])
        c[k - i] = np.conj(c[i])
        j += 2
    if (k + 1) % 2:
        c[k // 2] = x[j]
    return Polynomial(c, bound=k)


def pack_triple(triple):
    """The 4g+11 real coordinates (2g+3 for P, g+4 for each b)."""
    kP, k1, k2 = triple.weights()
    return np.concatenate(
        [
            pack_section(triple.P, kP),
            pack_section(triple.b1, k1),
            pack_section(triple.b2, k2),
        ]
    )


def unpack_triple(x, g):
    kP, kb = 2 * g + 2, g + 3
    nP, nb = kP + 1, kb + 1
    return SpectralTriple(
        g,
        unpack_section(x[:nP], kP),
        unpack_section(x[nP : nP + nb], kb),
        unpack_section(x[nP + nb :], kb),
    )


# ---------------------------------------------------------------------------
# Scaling normalization
# ---------------------------------------------------------------------------


def product_form(alphas):
    """The normalized polynomial with in-disc branch points ``alphas``:
    the product of (zeta - a)(1 - conj(a) zeta) in the given order, with the
    factor zeta for a = 0 (the branch point paired with infinity)."""
    out = Polynomial.one()
    for a in alphas:
        if abs(a) < 1e-13:
            out = out * Polynomial.zeta()
        else:
            out = out * Polynomial([-a, 1.0]) * Polynomial([1.0, -np.conj(a)])
    return out


def product_form_dot(alphas, P, P_dots):
    """d/dt of ``product_form(alphas)`` as P moves to P + t P_dot, for each
    P_dot of ``P_dots``: each in-disc branch point moves by
    alpha_dot = -P_dot(alpha)/P'(alpha).  The product form of the other
    roots and P'(alpha) are built once per root and shared by every
    direction."""
    alphas = list(alphas)
    dP = P.derivative()
    per_root = [
        (a, dP(a), product_form(alphas[:k] + alphas[k + 1 :]),
         Polynomial([1.0, -np.conj(a)]), Polynomial([-a, 1.0]))
        for k, a in enumerate(alphas)
    ]
    out = []
    for P_dot in P_dots:
        terms = Polynomial.zero()
        for a, dP_a, rest, right, left in per_root:
            a_dot = -P_dot(a) / dP_a
            dpair = Polynomial([-a_dot, 0.0]) * right + left * Polynomial([0.0, -np.conj(a_dot)])
            terms = terms + dpair * rest
        out.append(terms)
    return out


def scaling_derivative_numerators(alphas, P, Pi, m, P_dots):
    """P_m dPi_m - dP_m Pi_m for each P_dot of ``P_dots``: the numerator of
    d/dt (Pi_m / P_m) as P moves to P + t P_dot, where Pi is
    ``product_form(alphas)`` and dPi its ``product_form_dot``."""
    P_m, Pi_m = P.coeff(m), Pi.coeff(m)
    return [
        P_m * dPi.coeff(m) - dP.coeff(m) * Pi_m
        for dP, dPi in zip(P_dots, product_form_dot(alphas, P, P_dots))
    ]


def scaling_value(P, curve=None):
    """Last Psi component: Pi_m / P_m for the product-form Pi.

    At a nonconformal normalized point with m = 0 this is the classical
    prod(-alpha_k) / P_0; the stable index m = argmax |Pi_m| extends it
    across the conformal locus where both of those vanish.
    """
    cur = curve if curve is not None else build_curve(P)
    return _scaling_ratio(P, product_form(a for a, _ in cur.branch_pairs))


def _scaling_ratio(P, Pi, index=None):
    """``scaling_value`` from the product form ``Pi`` of P's curve."""
    if index is None:
        index = int(np.argmax(np.abs(Pi.coeffs)))
    pm = P.coeff(index)
    if pm == 0:
        raise RealityViolationError("scaling reference coefficient of P vanishes")
    return complex(Pi.coeff(index) / pm), index


def normalize(triple):
    """Rescale (P, b1, b2) -> (P/lambda^2, b1/lambda, b2/lambda) so P takes
    the product form; the differentials are unchanged as differentials."""
    cur = build_curve(triple.P)
    s, index = scaling_value(triple.P, cur)
    lam2 = 1.0 / s
    if abs(lam2.imag) > 1e-6 * abs(lam2) or lam2.real <= 0:
        raise RealityViolationError(
            f"scaling factor lambda^2 = {lam2:.6g} is not positive real"
        )
    lam = np.sqrt(lam2.real)
    return SpectralTriple(
        triple.g, triple.P / lam2.real, triple.b1 / lam, triple.b2 / lam
    )


# ---------------------------------------------------------------------------
# The condition map Psi
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiFrame:
    """Frozen evaluation context: cycle geometry, scaling index, quadrature.

    Psi evaluated in one frame is smooth in the triple's coefficients, so
    finite differences and Newton steps are taken inside a frame.
    Rebuilding a frame ``like`` an old one keeps the cycle assignment
    continuous when branch points have moved (and possibly reordered).
    The frame keeps the curve it was built on and that curve's product
    form, which Psi reuses at a triple with the same P.
    """

    basis: object
    scaling_index: int
    quad_order: int = 32
    anchors: tuple = ()
    curve: object = field(default=None, compare=False, repr=False)
    product: object = field(default=None, compare=False, repr=False)

    @staticmethod
    def build(triple, quad_order=32, jitter=0.0, like=None, curve=None):
        """Frame at the triple; ``curve`` is the curve of ``triple.P`` when
        the caller has already built it."""
        cur = curve if curve is not None else build_curve(triple.P)
        anchor = like.anchors if like is not None and like.anchors else None
        basis = homology_basis(cur, jitter=jitter, anchor=anchor)
        Pi = product_form(a for a, _ in cur.branch_pairs)
        _, index = _scaling_ratio(triple.P, Pi)
        anchors = tuple(a for a, _ in basis.cuts)
        if like is not None:
            index = like.scaling_index
        return PsiFrame(basis, index, quad_order, anchors, cur, Pi)

    def curve_of(self, P):
        """The curve of P and its product form: the frame's own when P is
        the one the frame was built at."""
        if self.curve is not None and self.curve.P == P:
            return self.curve, self.product
        cur = build_curve(P)
        return cur, product_form(a for a, _ in cur.branch_pairs)


@dataclass(frozen=True)
class PsiVector:
    """Structured value of the condition map.

    ``periods``: 4g values (A_1..A_g, B_1..B_g for each differential),
    ``closings``: the four closing integrals (gamma+/gamma- per
    differential), ``residues``: both residue-condition values,
    ``scaling``: the normalization ratio (target 1).  Lattice targets are
    the nearest points of 2*pi*i*Z.  ``flatten`` gives the real components;
    they are more than strictly necessary (real parts of periods vanish
    automatically on real sections).
    """

    periods: tuple
    closings: tuple
    residues: tuple
    scaling: complex
    labels: tuple
    integration_error: float = 0.0

    def lattice_values(self):
        return tuple(self.periods) + tuple(self.closings)

    def lattice_integers(self):
        return tuple(int(np.round(v.imag / TWO_PI)) for v in self.lattice_values())

    def lattice_residuals(self):
        return tuple(
            abs(v - TWO_PI * 1j * m)
            for v, m in zip(self.lattice_values(), self.lattice_integers())
        )

    def flatten(self, integers=None):
        """Real residual vector against lattice targets (default: nearest)."""
        vals = self.lattice_values()
        if integers is None:
            integers = self.lattice_integers()
        out = []
        for v, m in zip(vals, integers):
            d = v - TWO_PI * 1j * m
            out.extend((d.real, d.imag))
        for r in self.residues:
            out.extend((r.real, r.imag))
        d = self.scaling - 1.0
        out.extend((d.real, d.imag))
        return np.array(out)


def _psi_paths(frame):
    basis = frame.basis
    return basis.period_cycles() + [basis.gamma_plus, basis.gamma_minus]


def psi(triple, frame=None, quad_order=32):
    """Assemble all period/closing integrals, residue values and the scaling.

    Component order: A_1..A_g, B_1..B_g of the first differential, the
    same for the second, then gamma+/gamma- of the first and of the
    second, both residue values, and the scaling ratio.  The frame sets the
    quadrature order; ``quad_order`` is that of the frame built when none
    is given.  This is the ``vector`` of ``psi_walks``.
    """
    if frame is None:
        frame = PsiFrame.build(triple, quad_order=quad_order)
    return psi_walks(triple, frame).vector


# ---------------------------------------------------------------------------
# Exact Jacobian in a frame (the one Newton uses)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _section_basis(k):
    """Coefficients of ``unpack_section`` of each unit vector (columns): the
    polynomial that one real coordinate of a weight-k section stands for."""
    return np.column_stack([unpack_section(e, k).padded(k + 1) for e in np.eye(k + 1)])


@dataclass(frozen=True)
class PsiWalks:
    """Psi at a triple from one walk per path of a frame (``psi_walks``),
    with the walks kept so that ``jacobian()`` can assemble the exact
    Jacobian from them when, and only when, it is called."""

    triple: SpectralTriple
    frame: PsiFrame
    curve: object
    product: Polynomial
    walks: tuple
    vector: PsiVector

    def jacobian(self):
        """The exact Jacobian of the flattened Psi over the real chart
        (``pack_triple``), in the frame of the walks.

        With the paths frozen, a lattice value of b dzeta/(zeta^2 eta) is
        linear in b, and eta^2 = P gives its P-derivative
        -1/2 b dP dzeta/(zeta^2 eta P); both are sums over the walk's nodes.
        The residue rows are exact (the residue condition is bilinear), and
        the scaling row follows the branch points through
        ``product_form_dot``.
        """
        triple = self.triple
        g = triple.g
        kP, kb = 2 * g + 2, g + 3
        P, bs = triple.P, (triple.b1, triple.b2)
        EP, Eb = _section_basis(kP), _section_basis(kb)
        nP, nb = kP + 1, kb + 1
        b_cols = [slice(nP, nP + nb), slice(nP + nb, None)]
        # d(integral of b_i over path p) in rows [i, p]
        lattice = np.zeros((2, len(self.walks), nP + 2 * nb), dtype=complex)
        for p, w in enumerate(self.walks):
            zs = np.take(w.zs, w.idx_hi, axis=1).ravel()
            wb = (w.w_hi * np.take(w.base, w.idx_hi, axis=1)).ravel()
            inv_P = 1.0 / np.take(w.etas, w.idx_hi, axis=1).ravel() ** 2
            # node weights whose moments sum(f zeta^k) are the b-columns (row
            # 0) and the P-columns of b1 and b2 (rows 1, 2) in the monomial
            # basis
            f = np.stack([wb] + [wb * b(zs) * inv_P for b in bs])
            moments = np.empty((3, max(nP, nb)), dtype=complex)
            zk = np.ones_like(zs)
            for k in range(moments.shape[1]):
                moments[:, k] = f @ zk
                zk *= zs
            for i in range(2):
                lattice[i, p, :nP] = -0.5 * (moments[1 + i, :nP] @ EP)
                lattice[i, p, b_cols[i]] = moments[0, :nb] @ Eb
        P_dots = [Polynomial(c) for c in EP.T]
        residues = np.zeros((2, nP + 2 * nb), dtype=complex)
        for i, b in enumerate(bs):
            residues[i, :nP] = [residue_condition(dP, b) for dP in P_dots]
            residues[i, b_cols[i]] = [residue_condition(P, Polynomial(c)) for c in Eb.T]
        m = self.frame.scaling_index
        alphas = [a for a, _ in self.curve.branch_pairs]
        scaling = np.zeros((1, nP + 2 * nb), dtype=complex)
        scaling[0, :nP] = [
            num / P.coeff(m) ** 2
            for num in scaling_derivative_numerators(alphas, P, self.product, m, P_dots)
        ]
        n = len(self.walks) - 2
        # complex rows in the order of ``PsiVector.flatten``: periods of b1
        # and of b2, closings of b1 and of b2, residues, scaling
        Jc = np.vstack([lattice[0, :n], lattice[1, :n], lattice[0, n:], lattice[1, n:],
                        residues, scaling])
        J = np.empty((2 * Jc.shape[0], Jc.shape[1]))
        J[0::2], J[1::2] = Jc.real, Jc.imag
        return J


def psi_walks(triple, frame):
    """Psi at the triple from one walk per path of the frame, shared by both
    differentials, as a ``PsiWalks`` whose Jacobian is assembled on
    demand."""
    cur, Pi = frame.curve_of(triple.P)
    paths = _psi_paths(frame)
    walks = tuple(walk_path(cur, path, frame.quad_order) for path in paths)
    per_path = [w.integrate((triple.b1, triple.b2)) for w in walks]
    n = len(paths) - 2
    periods, closings, labels = [], [], []
    err = 0.0
    for out, part in ((periods, slice(0, n)), (closings, slice(n, None))):
        for i, tag in ((0, "T1"), (1, "T2")):
            for path, res in zip(paths[part], per_path[part]):
                out.append(res[i].value)
                labels.append(f"{tag}.{path.label}")
                err = max(err, res[i].error)
    residues = (
        residue_condition(triple.P, triple.b1),
        residue_condition(triple.P, triple.b2),
    )
    labels.extend(("res.T1", "res.T2", "scaling"))
    s, _ = _scaling_ratio(triple.P, Pi, frame.scaling_index)
    vector = PsiVector(tuple(periods), tuple(closings), residues, s, tuple(labels), err)
    return PsiWalks(triple, frame, cur, Pi, walks, vector)


# ---------------------------------------------------------------------------
# Directional derivative and Jacobian by central differences in a frame: the
# independent oracle of the exact Jacobian
# ---------------------------------------------------------------------------


def _perturbed(triple, direction, h):
    return SpectralTriple(
        triple.g,
        triple.P + h * direction.P_dot,
        triple.b1 + h * direction.b1_dot,
        triple.b2 + h * direction.b2_dot,
    )


def d_psi(triple, direction, h=1e-5, frame=None, quad_order=48):
    """Central-difference directional derivative of Psi in a frame
    (``quad_order`` is that of the frame built when none is given).

    Lattice components are differenced raw (their integer targets are
    locally constant).  Raises ``StepSizeError`` when the stepped triples
    leave the admissible set.
    """
    if frame is None:
        frame = PsiFrame.build(triple, quad_order=quad_order)
    try:
        hi = psi(_perturbed(triple, direction, h), frame=frame)
        lo = psi(_perturbed(triple, direction, -h), frame=frame)
    except (CircleRootError, MultipleRootError, RealityViolationError) as exc:
        raise StepSizeError(f"step h={h} left the admissible set: {exc}") from exc
    scale = 0.5 / h
    return PsiVector(
        tuple((a - b) * scale for a, b in zip(hi.periods, lo.periods)),
        tuple((a - b) * scale for a, b in zip(hi.closings, lo.closings)),
        tuple((a - b) * scale for a, b in zip(hi.residues, lo.residues)),
        (hi.scaling - lo.scaling) * scale,
        hi.labels,
        max(hi.integration_error, lo.integration_error) / h,
    )


def d_psi_norm(dvec):
    """Euclidean norm of the flattened derivative (targets at zero shift)."""
    out = []
    for v in dvec.lattice_values():
        out.extend((v.real, v.imag))
    for r in dvec.residues:
        out.extend((r.real, r.imag))
    out.extend((dvec.scaling.real, dvec.scaling.imag))
    return float(np.linalg.norm(out))


def psi_jacobian(triple, frame=None, h=1e-6, quad_order=48):
    """Finite-difference Jacobian of the flattened Psi over the real chart,
    in a frame (``quad_order`` is that of the frame built when none is
    given).

    Columns are central differences along every one of the 4g+11
    coordinate directions; the kernel of the true derivative on the
    moduli set is two-dimensional.
    """
    if frame is None:
        frame = PsiFrame.build(triple, quad_order=quad_order)
    integers = psi(triple, frame=frame).lattice_integers()
    x0 = pack_triple(triple)
    g = triple.g
    cols = []
    for j in range(x0.size):
        dx = h * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xp[j] += dx
        xm = x0.copy()
        xm[j] -= dx
        fp = psi(unpack_triple(xp, g), frame=frame).flatten(integers)
        fm = psi(unpack_triple(xm, g), frame=frame).flatten(integers)
        cols.append((fp - fm) / (2.0 * dx))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)
    error: str = ""

    def to_json_dict(self):
        d = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.details:
            d["details"] = self.details
        if self.error:
            d["error"] = self.error
        return d


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    verdict: bool

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed(self):
        return [c.name for c in self.checks if not c.passed]

    def to_json_dict(self):
        return {
            "verdict": "pass" if self.verdict else "fail",
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _margin_check(name, margin, threshold, details):
    """Threshold-type condition: pass iff margin >= threshold; the residual
    is the normalized shortfall (0 when passing)."""
    residual = max(0.0, 1.0 - margin / threshold) if threshold > 0 else 0.0
    return ConditionCheck(
        name, residual, 0.0, margin >= threshold, {**details, "margin": margin}
    )


def validate(triple, tol=None, quad_order=32):
    """Grade every admissibility condition; failures are entries, never
    exceptions (integration failures are recorded per entry)."""
    tol = tol or ToleranceProfile()
    checks = []
    g = triple.g
    kP, kb, _ = triple.weights()

    defect = max(
        real_defect(triple.P, kP) / max(triple.P.norm(), 1e-300),
        real_defect(triple.b1, kb) / max(triple.b1.norm(), 1e-300),
        real_defect(triple.b2, kb) / max(triple.b2.norm(), 1e-300),
    )
    checks.append(
        ConditionCheck("P1_real_sections", defect, tol.alg, defect <= tol.alg)
    )

    # at most a simple root of b^i at zeta = 0
    simple_ok = True
    for name, b in (("b1", triple.b1), ("b2", triple.b2)):
        if b.is_zero or (
            abs(b.coeff(0)) <= tol.alg * b.norm()
            and abs(b.coeff(1)) <= tol.alg * b.norm()
        ):
            simple_ok = False
    checks.append(
        ConditionCheck(
            "U_simple_zero_of_b", 0.0 if simple_ok else 1.0, 0.5, simple_ok
        )
    )

    curve = None
    try:
        root_list = roots(triple.P)
        margins = [abs(abs(r) - 1.0) for r, _ in root_list]
        checks.append(
            _margin_check(
                "P2_no_circle_roots",
                min(margins, default=np.inf),
                CIRCLE_TOL,
                {"roots": len(margins)},
            )
        )
        seps = [
            abs(r1 - r2)
            for i, (r1, _) in enumerate(root_list)
            for (r2, _) in root_list[i + 1 :]
        ]
        multiple = any(m > 1 for _, m in root_list)
        sep_margin = 0.0 if multiple else (min(seps) if seps else np.inf)
        checks.append(
            _margin_check("P3_simple_roots", sep_margin, tol.cluster, {})
        )
        curve = _curve_from_roots(triple.P, root_list)
    except WhithamError as exc:
        checks.append(
            ConditionCheck("curve", 1.0, 0.5, False, {}, error=str(exc))
        )

    for i, b in ((1, triple.b1), (2, triple.b2)):
        r = relative_residue(triple.P, b)
        checks.append(
            ConditionCheck(f"P4_residue_T{i}", r, tol.alg, r <= tol.alg)
        )

    if curve is not None:
        try:
            vec = psi(triple, frame=PsiFrame.build(triple, quad_order=quad_order, curve=curve))
            rows = zip(vec.labels, vec.lattice_integers(), vec.lattice_residuals())
            for k, (lab, m, r) in enumerate(rows):
                name = "P6_period" if k < len(vec.periods) else "P7_closing"
                checks.append(
                    ConditionCheck(
                        f"{name}.{lab}",
                        r,
                        tol.integral,
                        r <= tol.integral,
                        {"integer": m, "quad_error": vec.integration_error},
                    )
                )
            s = abs(vec.scaling - 1.0)
            checks.append(
                ConditionCheck("scaling", s, 10 * tol.alg, s <= 10 * tol.alg)
            )
        except WhithamError as exc:
            checks.append(
                ConditionCheck("P6_P7_integrals", 1.0, 0.5, False, {}, error=str(exc))
            )

        margin = _principal_part_margin(triple)
        checks.append(
            _margin_check("P8_independence", margin, P8_TOL, {"conformal": is_conformal(triple)})
        )

    verdict = all(c.passed for c in checks)
    return ValidationReport(tuple(checks), verdict)


def relative_residue(P, b):
    """|residue condition| / (|P| |b|): the P4 residual of ``validate``."""
    return abs(residue_condition(P, b)) / max(P.norm() * b.norm(), 1e-300)


def is_conformal(triple):
    return abs(triple.P.coeff(0)) <= CONFORMAL_RTOL * max(triple.P.norm(), 1e-300)


def _principal_part_margin(triple):
    """Normalized real-linear independence of the principal parts.

    Over zeta = 0 the principal part of each differential is carried by
    b_m / sqrt(P-data) with m = 0 (unbranched) or m = 1 (branched); the
    pair is independent over R iff Im(conj(b1_m) b2_m) != 0.  The same
    number shows up at infinity by reality; both ends are checked.
    """
    m = 1 if is_conformal(triple) else 0
    k = triple.g + 3
    margins = []
    for i, j in ((m, m), (k - m, k - m)):
        z1, z2 = triple.b1.coeff(i), triple.b2.coeff(j)
        denom = abs(z1) * abs(z2)
        margins.append(abs(np.imag(np.conj(z1) * z2)) / denom if denom > 0 else 0.0)
    return min(margins)


def conformal_type(triple):
    """tau = b2_m / b1_m with m = 0 (nonconformal) or 1 (conformal)."""
    m = 1 if is_conformal(triple) else 0
    denom = triple.b1.coeff(m)
    if abs(denom) == 0.0:
        raise UndefinedConformalTypeError("b1 constant coefficient vanishes")
    return triple.b2.coeff(m) / denom
