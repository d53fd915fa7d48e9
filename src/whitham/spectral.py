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
``validate`` grades them against a tolerance profile.  This module owns
both layouts that the rest of the package indexes: ``lattice_order`` is the
(differential, path) order of Psi's lattice components, which the
residues and the scaling follow, and ``chart_blocks`` is where P, b1 and b2
sit in the 4g+11 real coordinates of ``pack_triple``.  The tangent space is
the two-dimensional kernel of Psi's Jacobian in that chart.  The map is
deterministic given the deterministic homology basis; for derivative work
(Jacobians, Newton projection) the basis geometry and the scaling's
reference coefficient index are frozen in a ``PsiFrame`` so nearby
triples are measured against identical paths.  The scaling normalization
(the product form of the in-disc branch points and its reference index)
is chosen in one place, ``ScalingRow.of``, for frames, Psi, its Jacobian
and the tangent's scaling fix alike.

Psi is evaluated in one place, ``psi_stack``, for one triple
(``psi_walks``) or many (``validate_batch``): the distinct curves of the
triples are walked as one stack (``curve.walk_paths``), which gives each
curve its own walk (``curve.StackWalk``), and a stack that fails is
recovered there, once.  Newton projection uses the exact Jacobian: in a
frozen frame every column is a sum over the nodes of the walk that
evaluates Psi.  ``psi_walks`` keeps that walk and assembles the Jacobian
only when asked; handed the walks of an earlier evaluation in the frame,
alone or beside other curves, it walks on their quadrature grid when the
new branch points leave the subdivision unchanged.  The central-difference
``psi_jacobian`` is kept as its independent oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .curve import (
    CIRCLE_TOL,
    DEFAULT_QUAD_ORDER,
    StackWalk,
    _curve_from_roots,
    _panel_grid,
    build_curve,
    homology_basis,
    residue_condition,
    walk_paths,
)
from .errors import (
    DegreeBoundError,
    NumericalFailureError,
    RealityViolationError,
    UndefinedConformalTypeError,
    WhithamError,
)
from .polyring import Polynomial, _sum, real_defect, roots

TWO_PI = 2.0 * np.pi
# P is conformal (branched over zeta = 0) when |P_0| is below this times |P|
CONFORMAL_RTOL = 1e-9
# the principal parts are independent when their normalized margin clears this
P8_TOL = 1e-10
# a ``validate_batch`` stack takes the paths of consecutive frames while
# their segments total at most this: three genus-2 to eleven genus-0
# frames (a triple on a curve already in the stack adds none); one stack
# per shard of the benchmark corpus.
# A batch holds one stack at a time.  The walk's own arrays grow with the
# stack's panels, but its temporaries only with its largest curve's, as it
# takes a stack one curve at a time; on the benchmark corpus a stack holds
# up to 2.5 times the panels of its largest curve, and a pass peaks at
# 1.58 MB under tracemalloc (1.46 MB at a budget of 34, and 3.21 MB at 68
# when the temporaries spanned the stack)
STACK_SEGMENTS = 68


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
        sections = zip(("P", "b1", "b2"), (self.P, self.b1, self.b2), chart_blocks(self.g))
        for name, poly, (k, _) in sections:
            if poly.degree > k:
                raise DegreeBoundError(f"{name} exceeds weight {k}")

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
        for key, (bound, _) in zip(("P", "b1", "b2"), chart_blocks(g)):
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


def chart_blocks(g):
    """(weight, slice) of P, b1 and b2 in the real chart of genus g
    (``pack_triple``): a weight-k section takes k+1 coordinates, so P takes
    the first 2g+3 and each numerator the next g+4, 4g+11 in all."""
    blocks, start = [], 0
    for k in (2 * g + 2, g + 3, g + 3):
        blocks.append((k, slice(start, start + k + 1)))
        start += k + 1
    return tuple(blocks)


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
    return Polynomial(section_coeffs(x, k), bound=k)


def section_coeffs(x, k):
    """The untrimmed coefficients of ``unpack_section(x, k)``."""
    c = np.zeros(k + 1, dtype=complex)
    j = 0
    for i in range((k + 1) // 2):
        c[i] = complex(x[j], x[j + 1])
        c[k - i] = np.conj(c[i])
        j += 2
    if (k + 1) % 2:
        c[k // 2] = x[j]
    return c


def pack_triple(triple):
    """The 4g+11 real coordinates of the triple, laid out by ``chart_blocks``."""
    sections = zip((triple.P, triple.b1, triple.b2), chart_blocks(triple.g))
    return np.concatenate([pack_section(p, k) for p, (k, _) in sections])


def unpack_triple(x, g):
    return SpectralTriple(g, *(unpack_section(x[cols], k) for k, cols in chart_blocks(g)))


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


def product_form_motion(alphas, P):
    """The per-point part of ``product_form_dot`` at the in-disc branch
    points ``alphas`` of P: the points as one array and, for each root
    alpha, P'(alpha), the coefficients of the product form of the other
    roots, and those of (1 - conj(alpha) zeta) and (zeta - alpha).  Built
    once per point and shared by every direction; P' is evaluated at all
    points in one array call."""
    alphas = list(alphas)
    points = np.array(alphas, dtype=complex)
    dP_at = P.derivative()(points).tolist()
    return points, tuple(
        (a, dP_a, product_form(alphas[:k] + alphas[k + 1 :]).coeffs,
         Polynomial([1.0, -np.conj(a)]).coeffs, np.array([-a, 1.0], dtype=complex))
        for k, (a, dP_a) in enumerate(zip(alphas, dP_at))
    )


@np.errstate(over="ignore", invalid="ignore")  # inf or nan past the float range, refused below
def product_form_dot(motion, P_dots):
    """d/dt of ``product_form(alphas)`` as P moves to P + t P_dot, for each
    P_dot of ``P_dots``, where ``motion`` is ``product_form_motion(alphas,
    P)``: each in-disc branch point moves by alpha_dot =
    -P_dot(alpha)/P'(alpha), with P_dot evaluated at all of them in one
    array call.

    Each direction's terms are summed on coefficient arrays, by the
    ``np.convolve`` calls that the ``Polynomial`` products of
    d/dt (zeta - alpha)(1 - conj(alpha) zeta) times the other roots' product
    form make, and become one ``Polynomial`` at the end."""
    points, per_root = motion
    out = []
    for P_dot in P_dots:
        terms = np.zeros(1, dtype=complex)
        for (a, dP_a, rest, right, left), P_dot_a in zip(per_root, P_dot(points).tolist()):
            a_dot = -P_dot_a / dP_a
            dpair = _sum(np.convolve([-a_dot], right), np.convolve(left, [0.0, -np.conj(a_dot)]))
            terms = _sum(terms, np.convolve(dpair, rest))
        try:
            out.append(Polynomial(terms))
        except ValueError as exc:
            # finite inputs: the branch points' motion left the float range
            raise NumericalFailureError(f"product form derivative: {exc}") from exc
    return out


@dataclass(frozen=True)
class ScalingRow:
    """The scaling component of Psi at the curve of P, Pi_m / P_m, with
    what its derivative along P needs: the product form Pi of the curve's
    in-disc branch points, the reference index m and, built on first use,
    the branch points' ``product_form_motion``.  ``of`` is the one place
    that picks Pi and m; ``numerators`` then costs one loop per
    direction."""

    curve: object
    product: Polynomial
    index: int

    @staticmethod
    def of(curve, index=None):
        """The row at ``curve``; the index defaults to m = argmax |Pi_m|.

        At a nonconformal normalized point with m = 0 the value is the
        classical prod(-alpha_k) / P_0; the stable argmax index extends it
        across the conformal locus, where both of those vanish."""
        Pi = product_form(a for a, _ in curve.branch_pairs)
        return ScalingRow(curve, Pi, int(np.argmax(np.abs(Pi.coeffs))) if index is None else index)

    @property
    def P(self):
        return self.curve.P

    def value(self):
        """The last Psi component, Pi_m / P_m; raises when P_m vanishes."""
        pm = self.P.coeff(self.index)
        if pm == 0:
            raise RealityViolationError("scaling reference coefficient of P vanishes")
        return complex(self.product.coeff(self.index) / pm)

    @cached_property
    def motion(self):
        return product_form_motion([a for a, _ in self.curve.branch_pairs], self.P)

    def numerators(self, P_dots):
        """P_m dPi_m - dP_m Pi_m for each P_dot of ``P_dots``: the numerator
        of d/dt (Pi_m / P_m) as P moves to P + t P_dot, where dPi is the
        ``product_form_dot`` of the row's motion."""
        m = self.index
        P_m, Pi_m = self.P.coeff(m), self.product.coeff(m)
        return [
            P_m * dPi.coeff(m) - dP.coeff(m) * Pi_m
            for dP, dPi in zip(P_dots, product_form_dot(self.motion, P_dots))
        ]


# ---------------------------------------------------------------------------
# The condition map Psi
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiFrame:
    """Frozen evaluation context: cycle geometry, scaling index, quadrature.

    Psi evaluated in one frame is smooth in the triple's coefficients, so
    finite differences and Newton steps are taken inside a frame.
    Rebuilding a frame ``like`` an old one keeps the cycle assignment
    continuous when branch points have moved (and possibly reordered): the
    in-disc ends of the old basis's cuts anchor the new one, and the old
    scaling index is kept.  The frame keeps the ``ScalingRow`` of the curve
    it was built on (``row``; ``row.index`` is the frame's scaling index),
    which Psi reuses at a triple with the same P.
    """

    basis: object
    row: object = field(repr=False)
    quad_order: int = DEFAULT_QUAD_ORDER

    @staticmethod
    def build(triple, quad_order=DEFAULT_QUAD_ORDER, jitter=0.0, like=None, curve=None):
        """Frame at the triple; ``curve`` is the curve of ``triple.P`` when
        the caller has already built it.  Raises ``RealityViolationError``
        when P_m vanishes at the argmax index m, even when ``like`` sets
        the index."""
        cur = curve if curve is not None else build_curve(triple.P)
        anchor = None if like is None else [a for a, _ in like.basis.cuts]
        basis = homology_basis(cur, jitter=jitter, anchor=anchor)
        row = ScalingRow.of(cur)
        row.value()  # checks P_m at the argmax index, before ``like`` sets it
        if like is not None:
            row = replace(row, index=like.row.index)
        return PsiFrame(basis, row, quad_order)

    def row_of(self, P):
        """The ``ScalingRow`` of P at the frame's index: the frame's own when
        P is the one the frame was built at."""
        if self.row.P == P:
            return self.row
        return ScalingRow.of(build_curve(P), self.row.index)


@lru_cache(maxsize=16)
def lattice_order(g):
    """The (differential, path) of each lattice component of Psi at genus g,
    in order, as the rows of a read-only array: A_1..A_g, B_1..B_g of b1
    (differential 0), the same of b2, then gamma+, gamma- of b1 and of b2.
    Paths are indexed as in ``_psi_paths``."""
    periods, closings = range(2 * g), range(2 * g, 2 * g + 2)
    order = np.array([(i, p) for paths in (periods, closings) for i in (0, 1) for p in paths])
    order.flags.writeable = False
    return order


def _psi_paths(basis):
    """The paths of Psi's lattice components in a homology basis: the
    period cycles, then gamma+ and gamma-."""
    return basis.period_cycles() + [basis.gamma_plus, basis.gamma_minus]


@dataclass(frozen=True, eq=False)
class PsiVector:
    """Structured value of the condition map.

    ``values`` holds every component, read-only, in the order of ``psi``;
    ``labels`` names each one (``T1.A1``, ..., ``res.T1``, ``res.T2``,
    ``scaling``).  ``periods`` (4g values), ``closings`` (four) and
    ``residues`` (two) are views of ``values``, and ``scaling``, the
    normalization ratio (target 1), is its last component.  Lattice targets
    are the nearest points of 2*pi*i*Z.  ``flatten`` gives the real
    components; they are more than strictly necessary (real parts of
    periods vanish automatically on real sections).
    """

    values: np.ndarray
    labels: tuple
    integration_error: float

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def periods(self):
        return self.values[:-7]

    @property
    def closings(self):
        return self.values[-7:-3]

    @property
    def residues(self):
        return self.values[-3:-1]

    @property
    def scaling(self):
        return complex(self.values[-1])

    def lattice_integers(self):
        nearest = np.round(self.values[:-3].imag / TWO_PI)
        if not np.all(np.isfinite(nearest)):
            raise NumericalFailureError("Psi is not finite: no nearest lattice integers")
        return tuple(int(m) for m in nearest)

    def lattice_residuals(self):
        # Python's complex abs per component: numpy's moves the last digit
        return tuple(abs(d) for d in self.flatten().view(complex)[:-3].tolist())

    def flatten(self, integers=None):
        """Real residual vector against lattice targets (default: nearest):
        the real and imaginary parts of ``values`` less 2*pi*i*m at the
        lattice components, 0 at the residues and 1 at the scaling."""
        targets = np.zeros_like(self.values)
        targets[:-3] = np.multiply(self.lattice_integers() if integers is None else integers,
                                   TWO_PI * 1j)
        targets[-1] = 1.0
        return (self.values - targets).view(float)

    @np.errstate(over="ignore")
    def residual(self, integers=None):
        """The norm of ``flatten(integers)``, inf past the float range."""
        return float(np.linalg.norm(self.flatten(integers)))


def psi(triple, frame=None, quad_order=DEFAULT_QUAD_ORDER):
    """Assemble all period/closing integrals, residue values and the scaling.

    Component order: the lattice values in ``lattice_order``, both residue
    values, and the scaling ratio.  The frame sets the quadrature order;
    ``quad_order`` is that of the frame built when none is given.  This is
    the ``vector`` of ``psi_walks``.
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


@lru_cache(maxsize=16)
def _section_polys(k):
    """The ``Polynomial`` of each column of ``_section_basis(k)``."""
    return tuple(Polynomial(c) for c in _section_basis(k).T)


@dataclass(frozen=True)
class PsiWalks:
    """Psi at a triple from one walk per path of a frame (``psi_walks``),
    with the walks kept so that ``jacobian()`` can assemble the exact
    Jacobian from them when, and only when, it is called.  ``walks`` is the
    ``curve.StackWalk`` of the frame's paths on the triple's curve, the
    walk of those paths alone whether or not the triple was evaluated in a
    stack beside other curves (``psi_stack``).  It holds the quadrature
    grid that a later evaluation in the frame can take over
    (``psi_walks(..., like=...)``); the grid is freed with the walks.
    ``row`` is the ``ScalingRow`` of the triple's P at the frame's index."""

    triple: SpectralTriple
    frame: PsiFrame
    row: ScalingRow
    walks: StackWalk
    vector: PsiVector

    def jacobian(self):
        """The exact Jacobian of the flattened Psi over the real chart
        (``pack_triple``, columns laid out by ``chart_blocks``), in the frame
        of the walks; complex component k of ``vector`` gives rows 2k (real
        part) and 2k+1 (imaginary part).

        With the paths frozen, a lattice value of b dzeta/(zeta^2 eta) is
        linear in b, and eta^2 = P gives its P-derivative
        -1/2 b dP dzeta/(zeta^2 eta P); both are sums over the walk's nodes
        of the triple's own paths.  The residue rows are exact (the residue
        condition is bilinear), and the scaling row follows the branch
        points through ``row``.
        """
        triple = self.triple
        g = triple.g
        (kP, P_cols), (kb, b1_cols), (_, b2_cols) = chart_blocks(g)
        P, bs, b_cols = triple.P, (triple.b1, triple.b2), (b1_cols, b2_cols)
        EP, Eb = _section_basis(kP), _section_basis(kb)
        nP, nb, width = kP + 1, kb + 1, b2_cols.stop
        walks = self.walks
        _, idx_hi, w_hi, _, _ = _panel_grid(walks.quad_order)
        path_rows = walks.slices()
        # d(integral of b_i over path p) in rows [i, p]
        lattice = np.zeros((2, len(path_rows), width), dtype=complex)
        for p, rows in enumerate(path_rows):
            zs = np.take(walks.zs[rows], idx_hi, axis=1).ravel()
            wb = (w_hi * np.take(walks.base[rows], idx_hi, axis=1)).ravel()
            inv_P = 1.0 / np.take(walks.etas[rows], idx_hi, axis=1).ravel() ** 2
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
                lattice[i, p, P_cols] = -0.5 * (moments[1 + i, :nP] @ EP)
                lattice[i, p, b_cols[i]] = moments[0, :nb] @ Eb
        P_dots = _section_polys(kP)
        residues = np.zeros((2, width), dtype=complex)
        for i, b in enumerate(bs):
            residues[i, P_cols] = [residue_condition(dP, b) for dP in P_dots]
            residues[i, b_cols[i]] = [residue_condition(P, db) for db in _section_polys(kb)]
        m = self.row.index
        scaling = np.zeros((1, width), dtype=complex)
        scaling[0, P_cols] = [_over_square(num, P.coeff(m))
                              for num in self.row.numerators(P_dots)]
        # complex rows in the order of ``psi``
        Jc = np.vstack([lattice[tuple(lattice_order(g).T)], residues, scaling])
        J = np.empty((2 * Jc.shape[0], Jc.shape[1]))
        J[0::2], J[1::2] = Jc.real, Jc.imag
        return J


def _over_square(x, d):
    """x / d**2, or x / d / d where d**2 leaves the float range."""
    try:
        return x / d**2
    except (OverflowError, ZeroDivisionError):
        return x / d / d


def psi_walks(triple, frame, like=None):
    """Psi at the triple from one walk per path of the frame, shared by both
    differentials, as a ``PsiWalks`` whose Jacobian is assembled on
    demand: ``psi_stack`` of the one pair, which raises its error (that of
    the first path that fails walked alone).

    ``like``, the ``PsiWalks`` of an earlier evaluation in the same frame
    (alone or in a stack beside other curves), hands its walks' quadrature
    grid on: the paths are re-probed against the new branch points in one
    pass and, when every verdict is unchanged, walked on that grid without
    subdividing them again (``curve.walk_paths``).  The result is that of
    a fresh evaluation.  Walks in another frame raise ``ValueError``."""
    (walks,) = psi_stack([(triple, frame)], like)
    if isinstance(walks, Exception):
        raise walks
    return walks


def psi_stack(pairs, like=None):
    """``psi_walks`` of each (triple, frame) pair, in order: its
    ``PsiWalks``, or the ``WhithamError`` that walking its curve raised.
    The frames share one quadrature order; ``like`` is as for
    ``psi_walks``, for a stack of one curve.

    Pairs with one frame and the same P, bit for bit, are on one curve,
    which is walked once for all of them: the paths of the distinct curves
    go through one ``curve.walk_paths``, one stack, whose walk of each
    curve integrates b1 and b2 of every pair on it in one pass and is
    paired with that curve.  Every path, and so every ``PsiWalks``, comes
    out as it does evaluated alone.

    A stack whose walk raises a ``WhithamError`` is recovered once: each
    curve's paths are walked alone, in order, up to the first that raises,
    whose error is the curve's and that of every pair on it; the curves
    without an error are then walked once more as one stack.  When no path
    raises alone, the stack's error is raised."""
    on_curve = {}
    for k, (triple, frame) in enumerate(pairs):
        on_curve.setdefault((id(frame), triple.P.coeffs.tobytes()), []).append(k)
    groups = list(on_curve.values())
    frames = [pairs[ks[0]][1] for ks in groups]
    rows = [f.row_of(pairs[ks[0]][0].P) for f, ks in zip(frames, groups)]
    paths = [_psi_paths(f.basis) for f in frames]
    numerators = [[b for k in ks for b in (pairs[k][0].b1, pairs[k][0].b2)] for ks in groups]
    order = frames[0].quad_order

    def walked(cs, grid):
        # curve c's walk and its integrals, by c
        walks = walk_paths([rows[c].curve for c in cs], [paths[c] for c in cs], order, grid)
        return {c: (w, w.integrate(numerators[c])) for c, w in zip(cs, walks)}

    errors = [None] * len(groups)
    try:
        walks = walked(range(len(groups)), None if like is None else like.walks)
    except WhithamError:
        errors = [_first_failure(r.curve, ps, order) for r, ps in zip(rows, paths)]
        if not any(errors):
            raise
        walks = walked([c for c, error in enumerate(errors) if error is None], None)
    out = [None] * len(pairs)
    for c, ks in enumerate(groups):
        for j, k in enumerate(ks):
            out[k] = errors[c]
            if errors[c] is None:
                (triple, frame), (walk, per_path) = pairs[k], walks[c]
                own = [r[2 * j : 2 * j + 2] for r in per_path]  # b1 and b2 of pair k
                vector = _psi_vector(triple, rows[c], paths[c], own)
                out[k] = PsiWalks(triple, frame, rows[c], walk, vector)
    return out


def _first_failure(curve, paths, quad_order):
    """The error of the first of the curve's paths that raises walked alone,
    or None."""
    for path in paths:
        try:
            walk_paths([curve], [[path]], quad_order)
        except WhithamError as exc:
            return exc
    return None


def _psi_vector(triple, row, paths, per_path):
    """The ``PsiVector`` at the triple from the integrals of b1 and b2 over
    each of the frame's paths (``_psi_paths``; ``per_path``, as
    ``StackWalk.integrate`` gives them) and the ``ScalingRow`` of its P:
    the integrals in ``lattice_order``, the residue values, the scaling."""
    order = lattice_order(triple.g).tolist()
    lattice = [per_path[p][i] for i, p in order]
    values = [res.value for res in lattice] + [
        residue_condition(triple.P, triple.b1),
        residue_condition(triple.P, triple.b2),
        row.value(),
    ]
    labels = [f"T{i + 1}.{paths[p].label}" for i, p in order] + ["res.T1", "res.T2", "scaling"]
    err = max([0.0] + [res.error for res in lattice])
    return PsiVector(np.array(values, dtype=complex), tuple(labels), err)


# ---------------------------------------------------------------------------
# Jacobian by central differences in a frame: the independent oracle of the
# exact Jacobian
# ---------------------------------------------------------------------------


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


def validate(triple, tol=None, quad_order=DEFAULT_QUAD_ORDER):
    """Grade every admissibility condition; failures are entries, never
    exceptions (integration failures are recorded per entry).  A lattice
    check (P6, P7) passes only when the quadrature error estimate is within
    ``tol.integral`` too; one whose residual alone would pass is marked
    ``"unresolved": true`` in its details.  This is ``validate_batch`` of
    the one triple."""
    (report,) = validate_batch([triple], tol, quad_order)
    if isinstance(report, Exception):
        raise report
    return report


def validate_batch(triples, tol=None, quad_order=DEFAULT_QUAD_ORDER):
    """``validate`` of each triple, yielded in order: its
    ``ValidationReport``, or the exception that ``validate`` of that triple
    alone raises.  An exception in place of a triple (one that could not be
    read, say) is passed on as its result.

    The triples are graded a stack at a time.  Each triple's algebraic
    checks run and its frame is built as it is taken, and consecutive
    triples join one stack while their frames' paths total at most
    ``STACK_SEGMENTS`` segments.  The curve, its frame and their paths
    depend on P alone, so a triple whose P has the coefficients, bit for
    bit, of one already in the stack takes over that triple's roots, curve,
    frame and paths (or the error building the frame raised) and adds no
    segments.  Then Psi is evaluated at every triple of the stack by one
    ``psi_stack``, which walks the stack's distinct curves together, each
    once, and gives each triple the Psi vector, or the error, that it gets
    alone (a triple on a curve whose walk fails gets that curve's error).
    Last, each triple's lattice, scaling and P8 checks are assembled as
    ``validate`` assembles them, and its report is yielded before the next
    stack is taken, so a batch holds one stack at a time however many
    triples it grades."""
    tol = tol or ToleranceProfile()
    # by_P: the first grading with a curve of each P in the stack, by the
    # bytes of P's coefficients
    stack, size, by_P = [], 0, {}
    for triple in triples:
        if isinstance(triple, Exception):
            g, like = triple, None
        else:
            like = by_P.get(triple.P.coeffs.tobytes())
            g = _isolated(_start, triple, tol, quad_order, like)
        new_paths = _framed(g) and like is None
        segments = sum(len(p.segments) for p in _psi_paths(g.frame.basis)) if new_paths else 0
        if stack and size + segments > STACK_SEGMENTS:
            yield from _graded(stack, tol)
            stack, size, by_P = [], 0, {}
        stack.append(g)
        size += segments
        if isinstance(g, _Grading) and g.curve is not None:
            by_P.setdefault(g.triple.P.coeffs.tobytes(), g)
    yield from _graded(stack, tol)


def _framed(graded):
    """Whether the triple has a frame whose paths are to be walked."""
    return isinstance(graded, _Grading) and isinstance(graded.frame, PsiFrame)


def _graded(stack, tol):
    """The results of a stack: Psi evaluated at its framed triples together,
    then each triple's report (or exception) assembled."""
    framed = [g for g in stack if _framed(g)]
    if framed:
        try:
            evaluations = psi_stack([(g.triple, g.frame) for g in framed])
        except Exception as exc:
            evaluations = [exc] * len(framed)
        for g, evaluation in zip(framed, evaluations):
            g.vector = evaluation if isinstance(evaluation, Exception) else evaluation.vector
    return [_isolated(_finish, g, tol) if isinstance(g, _Grading) else g for g in stack]


def _isolated(stage, *args):
    """``stage(*args)``, or the exception it raises: one triple's failure
    stays its own."""
    try:
        return stage(*args)
    except Exception as exc:
        return exc


@dataclass
class _Grading:
    """One triple of ``validate_batch`` between its stages: the checks so
    far, the roots of P and its curve, its frame (or the error building it
    raised) and, once its stack is evaluated, its Psi vector (or the error
    evaluating Psi raised).  Triples of one stack with the same P hold the
    same roots, curve and frame."""

    triple: SpectralTriple
    checks: list
    root_list: list = None
    curve: object = None
    frame: object = None
    vector: object = None


def _start(triple, tol, quad_order, like=None):
    """The algebraic checks (P1, U, P2, P3 or the curve's error, P4) and,
    at a curve, the frame.  ``like``, a grading with a curve at the same P,
    hands over its roots, curve and frame (or its frame's error)."""
    checks = []
    sections = zip((triple.P, triple.b1, triple.b2), chart_blocks(triple.g))
    defect = max(real_defect(p, k) / max(p.norm(), 1e-300) for p, (k, _) in sections)
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

    grading = _Grading(triple, checks)
    try:
        root_list = roots(triple.P) if like is None else like.root_list
        grading.root_list = root_list
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
        grading.curve = _curve_from_roots(triple.P, root_list) if like is None else like.curve
    except WhithamError as exc:
        checks.append(
            ConditionCheck("curve", 1.0, 0.5, False, {}, error=str(exc))
        )

    for i, b in ((1, triple.b1), (2, triple.b2)):
        r = relative_residue(triple.P, b)
        checks.append(
            ConditionCheck(f"P4_residue_T{i}", r, tol.alg, r <= tol.alg)
        )

    if like is not None:
        grading.frame = like.frame
    elif grading.curve is not None:
        try:
            grading.frame = PsiFrame.build(triple, quad_order=quad_order, curve=grading.curve)
        except WhithamError as exc:
            grading.frame = exc
    return grading


def _finish(grading, tol):
    """The report: the checks so far and, at a curve, the lattice and
    scaling checks of the Psi vector (or the error that building the frame
    or evaluating Psi raised) and P8."""
    triple, checks = grading.triple, grading.checks
    if grading.curve is not None:
        try:
            for outcome in (grading.frame, grading.vector):
                if isinstance(outcome, Exception):
                    raise outcome
            vec = grading.vector
            rows = zip(vec.labels, vec.lattice_integers(), vec.lattice_residuals())
            # a lattice residual is only as good as the quadrature behind it
            resolved = vec.integration_error <= tol.integral
            for k, (lab, m, r) in enumerate(rows):
                name = "P6_period" if k < len(vec.periods) else "P7_closing"
                details = {"integer": m, "quad_error": vec.integration_error}
                if r <= tol.integral and not resolved:
                    details["unresolved"] = True
                checks.append(
                    ConditionCheck(
                        f"{name}.{lab}", r, tol.integral, r <= tol.integral and resolved, details
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
    number shows up at infinity by reality; both ends are checked.  While
    |b1_m| |b2_m| is finite and normal the margin is formed from the
    coefficients as they are; otherwise each is divided by its modulus
    first, so no product leaves the float range.
    """
    m = 1 if is_conformal(triple) else 0
    k = triple.g + 3
    margins = []
    for i, j in ((m, m), (k - m, k - m)):
        z1, z2 = triple.b1.coeff(i), triple.b2.coeff(j)
        denom = abs(z1) * abs(z2)
        if sys.float_info.min <= denom < math.inf:
            margins.append(abs(np.imag(np.conj(z1) * z2)) / denom)
        elif z1 and z2:
            margins.append(abs(np.imag(np.conj(z1 / abs(z1)) * (z2 / abs(z2)))))
        else:
            margins.append(0.0)
    return min(margins)


def conformal_type(triple):
    """tau = b2_m / b1_m with m = 0 (nonconformal) or 1 (conformal)."""
    m = 1 if is_conformal(triple) else 0
    denom = triple.b1.coeff(m)
    if abs(denom) == 0.0:
        raise UndefinedConformalTypeError("b1 constant coefficient vanishes")
    return triple.b2.coeff(m) / denom
