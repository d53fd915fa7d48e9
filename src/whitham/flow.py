"""Newton projection onto the condition level set, seed points, and flows.

One refreshed-frame driver (``_chart_solve``) does every solve: rounds of
Gauss-Newton with a minimum-norm step (the true derivative has a
two-dimensional kernel on the moduli set, so the pseudo-inverse is
rank-truncated) drive the flattened condition map (periods and closings to
their fixed 2*pi*i multiples, residues to 0, scaling to 1) to zero on a
chart of triples, each round in one frame refreshed at the iterate, with the
exact Jacobian (``spectral.psi_walks``, assembled from the residual's walk)
times the chart derivative.  ``project_to_mg`` runs it on the plain
coordinates of a nearby candidate triple.  Seeds:

* genus-0 conformal points are exact (closed form),
* genus-0 nonconformal seeds start from the residue-exact differential
  family and a linear fit of the closing targets,
* the genus-1 seed re-projects a frozen previously converged point,
* the case-(b) points (a common factor G between the differentials) are
  solved for on the (P, G, m1, m2) chart, where b_i = G*m_i, against the
  full condition map from recorded branch points, G and lattice integers
  (``solve_common_factor``), and returned only once validation and
  classification confirm them: the linear-G point at genus 1, the
  quadratic-G point at genus 2 (``seed_common_factor``).

``flow_step``/``trace`` realize finite deformation paths: an explicit
Euler predictor along a constructed tangent vector followed by projection
with the lattice integers held fixed.  A step does no work it throws away:
each point is classified once (its sample's label builds the next step's
tower), the step builds the one tangent vector its rule uses, the guess is
walked once (that walk is Gauss-Newton's first residual; the guess of step
0 is walked in one stack with the start), a round in a kept frame starts
from the walk that ended the round before, every trial walk takes over the
quadrature grid of its round's first walk when its branch points allow (so
the paths of a frame are usually subdivided once, and those of the start
and the first guess once together), and a Jacobian is assembled only where
Gauss-Newton takes a step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curve import DEFAULT_QUAD_ORDER, _curve_from_roots, build_curve, homology_basis, walk_paths
from .deformation import (
    PARAMS_CASE,
    CaseAParams,
    CaseLabel,
    build_tower,
    classify,
    make_tangent,
    r_kernel,
    tangent_params,
)
from .errors import NumericalFailureError, ProjectionFailureError, StepSizeError, WhithamError
from .polyring import Polynomial, real_section_scale, symmetrize
from .spectral import (
    TWO_PI,
    PsiFrame,
    SpectralTriple,
    chart_blocks,
    conformal_type,
    lattice_order,
    pack_section,
    pack_triple,
    product_form,
    psi,
    psi_stack,
    psi_walks,
    unpack_section,
    unpack_triple,
    validate,
)

# Gauss-Newton: the relative singular-value cutoff of the rank-truncated
# solve, the initial trust radius, and the iterations of one round
SVD_CUTOFF = 1e-8
TRUST_RADIUS = 0.1
ROUND_ITERATIONS = 6
# flow steps halve on failure down to this size
H_MIN = 1e-6
# rounds of a chart solve, and the largest initial residual ``project_to_mg``
# accepts
PROJECTION_ROUNDS = 25
CAPTURE_RADIUS = 0.5
# seed points: the quadrature order of their solves and of their validation,
# the projection tolerance of the genus-0 seed and of the others, the lattice
# integers (gamma+, gamma-) of the two genus-0 differentials, and how far the
# case-(b) branch points must stay from degeneration
SEED_QUAD_ORDER = 40
GENUS0_TOL = 1e-11
SEED_TOL = 1e-10
GENUS0_INTEGERS = ((1, 0), (0, 1))
HEALTH_FLOOR = 0.02


# ---------------------------------------------------------------------------
# Gauss-Newton on an arbitrary chart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GNResult:
    x: np.ndarray
    norm: float
    trace: list
    status: str  # converged | maxiter | stalled
    last: tuple  # the evaluation at x: the last accepted one, or the first


def gauss_newton(residual, x0, first, tol):
    """One round of trust-region Gauss-Newton (at most ``ROUND_ITERATIONS``
    steps) with a rank-truncated inner solve, from ``x0`` where the caller
    has already evaluated ``first = residual(x0)``.

    ``residual`` maps a real vector x to an evaluation ``(r, jacobian,
    ...)``: the residual vector, a callable returning its Jacobian at x, and
    anything else the caller wants back, unread here; ``GNResult.last`` is
    the evaluation at the returned x.  ``jacobian`` is called only at
    accepted iterates that have not yet converged, never on a rejected
    trial, so a residual that assembles its Jacobian on demand
    (``spectral.psi_walks``) pays for it only there.  ``residual`` may raise
    ``WhithamError`` for inadmissible points (treated as a rejected trial,
    as is a trial point with a coordinate past the float range).
    The rank truncation makes the two-dimensional tangent kernel of the
    condition map harmless; the trust radius handles the stiff, strongly
    nonlinear lattice components (a full Newton step can wrap integrals
    across lattice cells).  Never raises on slow progress; the caller reads
    ``status``.  Each iterate is evaluated once: its residual and its
    Jacobian come from the same ``residual`` call.
    """
    x = np.asarray(x0, dtype=float).copy()
    last = first
    r, jacobian = first[:2]
    trace = [float(np.linalg.norm(r))]
    delta = TRUST_RADIUS
    for _ in range(ROUND_ITERATIONS):
        if trace[-1] <= tol:
            return GNResult(x, trace[-1], trace, "converged", last)
        J = jacobian()
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        smax = s[0] if s.size else 1.0
        keep = s > SVD_CUTOFF * smax
        coeff = np.where(keep, (U.T @ r) / np.where(keep, s, 1.0), 0.0)
        gn_full = -(Vt.T @ coeff)
        full_len = float(np.linalg.norm(gn_full))
        accepted = False
        for _ in range(26):
            step = gn_full if full_len <= delta else gn_full * (delta / full_len)
            if not np.isfinite(x + step).all():
                # a trial point past the float range is a rejected trial
                delta *= 0.3
                continue
            try:
                trial = residual(x + step)
            except WhithamError:
                delta *= 0.3
                continue
            n_new = float(np.linalg.norm(trial[0]))
            if n_new < trace[-1]:
                pred = float(np.linalg.norm(r + J @ step))
                gain = trace[-1] - n_new
                model_gain = max(trace[-1] - pred, 1e-300)
                x = x + step
                last = trial
                r, jacobian = last[:2]
                trace.append(n_new)
                if gain > 0.5 * model_gain and np.linalg.norm(step) >= 0.99 * min(delta, full_len):
                    delta = min(delta * 2.5, 10.0)
                accepted = True
                break
            delta *= 0.3
            if delta < 1e-13:
                break
        if not accepted:
            return GNResult(x, trace[-1], trace, "stalled", last)
    status = "converged" if trace[-1] <= tol else "maxiter"
    return GNResult(x, trace[-1], trace, status, last)


# ---------------------------------------------------------------------------
# Chart solves with a refreshed frame, and projection onto the moduli set
# ---------------------------------------------------------------------------


def _refreshed_frame(old, triple, integers, current_norm):
    """Rebuild the evaluation frame at the current point, but keep the old
    one if the rebuilt geometry jumps the residual (a corridor detour or
    loop radius change can shift a cycle's homotopy class by whole
    periods; the old frame stays valid until its paths fail outright).

    Returns ``(frame, walks)``: the rebuilt frame with the ``psi_walks`` of
    the triple in it, or the old frame and ``None``."""
    try:
        cand = PsiFrame.build(triple, quad_order=old.quad_order, like=old)
        walks = psi_walks(triple, cand)
    except WhithamError:
        return old, None
    r_cand = walks.vector.residual(integers)
    if r_cand <= max(1.2 * current_norm, current_norm + 0.05):
        return cand, walks
    return old, None


@dataclass(frozen=True)
class ProjectionResult:
    """A finished solve: the triple, its residual norm, and the residual
    norm at the start and after every accepted Gauss-Newton step."""

    triple: SpectralTriple
    residual: float
    trace: list


def _chart_solve(chart, integers, start, tol):
    """Drive the condition map to the lattice ``integers`` (in the order of
    ``psi``) on ``chart = (x0, make_triple, chart_derivative)``: the start,
    the map to triples, and x -> the derivative of ``pack_triple`` of the
    triple (``None``: the identity), from ``start``, the ``psi_walks`` of
    ``make_triple(x0)`` in a frame built at it.  Each round is one
    ``gauss_newton`` call in the frame of the round's first residual,
    refreshed at the iterate before every round but the first.  That first
    residual is a walk already taken at the iterate in its frame: the
    start's, the refreshed frame's, or, when the old frame is kept, the
    previous round's last accepted walk.  Every trial walk of a round is
    handed that first walk, so it takes over its quadrature grid when its
    branch points leave the subdivision unchanged (``psi_walks(...,
    like=...)``).  Returns a ``ProjectionResult``; raises
    ``ProjectionFailureError`` if a round lowers the residual by less than
    0.1% (stalled or crawling) or the residual ends above 10 * ``tol``."""
    x0, make_triple, chart_derivative = chart

    def evaluated(walks, xv):
        r = walks.vector.flatten(integers)
        if chart_derivative is None:
            return r, walks.jacobian, walks
        return r, lambda: walks.jacobian() @ chart_derivative(xv), walks

    first = evaluated(start, x0)
    r0 = float(np.linalg.norm(first[0]))
    x, norm, trace = x0, r0, [r0]
    for k in range(PROJECTION_ROUNDS):
        if trace[-1] <= tol:
            break
        if k:
            _, walks = _refreshed_frame(first[2].frame, make_triple(x), integers, trace[-1])
            if walks is not None:
                first = evaluated(walks, x)

        def residual(xv, like=first[2]):
            return evaluated(psi_walks(make_triple(xv), like.frame, like=like), xv)

        res = gauss_newton(residual, x, first, tol)
        x, norm, first = res.x, res.norm, res.last
        prev = trace[-1]
        trace.extend(res.trace[1:])
        if res.status == "converged":
            break
        if trace[-1] > 0.999 * prev:
            if trace[-1] <= 10 * tol:
                break
            raise ProjectionFailureError(
                f"projection stalled at residual {trace[-1]:.3e}", trace=trace
            )
    if not norm <= 10 * tol:  # nan too
        raise ProjectionFailureError(
            f"projection finished at residual {norm:.3e} > {10 * tol:.1e}", trace=trace
        )
    return ProjectionResult(make_triple(x), norm, trace)


def project_to_mg(guess, lattice_targets=None, tol=1e-10, quad_order=DEFAULT_QUAD_ORDER,
                  start=None):
    """Gauss-Newton projection of a candidate triple onto the moduli set.

    Lattice targets default to the nearest 2*pi*i multiples of the initial
    evaluation; the cycle geometry is rebuilt whenever the iterate has
    moved, but each Jacobian is taken inside one frozen frame.  ``start``,
    the ``psi_walks`` of the guess in a frame built at it, is that initial
    evaluation when the caller has already walked it (``trace`` walks its
    first predictor beside its start).
    """
    g = guess.g
    x0 = pack_triple(guess)
    if start is None:
        # the one walk of the guess, on the chart as Gauss-Newton starts from it
        start = psi_walks(unpack_triple(x0, g), PsiFrame.build(guess, quad_order=quad_order))
    vec = start.vector
    integers = tuple(lattice_targets) if lattice_targets is not None else vec.lattice_integers()
    r0 = vec.residual(integers)
    if not r0 <= CAPTURE_RADIUS:  # nan too
        raise ProjectionFailureError(
            f"initial residual {r0:.3e} outside the capture radius {CAPTURE_RADIUS}",
            trace=[r0],
        )
    chart = (x0, lambda x: unpack_triple(x, g), None)
    return _chart_solve(chart, integers, start, tol)


# ---------------------------------------------------------------------------
# Seed construction
# ---------------------------------------------------------------------------


def differential_family_genus0(alpha, y):
    """Residue-exact numerator over the curve with branch pair (alpha,
    1/conj(alpha)): b = y + x y zeta + conj(x y) zeta^2 + conj(y) zeta^3
    with x = -(1 + |alpha|^2)/(2 alpha)."""
    x = -0.5 / alpha * (1.0 + abs(alpha) ** 2)
    return Polynomial([y, x * y, np.conj(x * y), np.conj(y)], bound=3)


def seed_conformal_genus0(k_plus=1, k_minus=1):
    """Exact conformal genus-0 point: P = zeta and b^i = zeta*(m0 +
    conj(m0) zeta) with m0 = pi(-k_- + i k_+)/4; the two differentials get
    transposed integer pairs so their principal parts stay independent."""
    z = Polynomial.zeta()

    def numerator(kp, km):
        m0 = np.pi * (-km + 1j * kp) / 4.0
        return z * Polynomial([m0, np.conj(m0)])

    return SpectralTriple(0, z, numerator(k_plus, 0), numerator(0, k_minus))


def seed_genus0(alpha=0.42 + 0.18j):
    """Nonconformal genus-0 point: residue-exact family, closings fit to
    ``GENUS0_INTEGERS``, then full projection."""
    P = product_form([alpha])
    cur = build_curve(P)
    basis = homology_basis(cur)
    # closings (gamma+, gamma-) of the numerators at y = 1 and y = i, from one
    # walk of both paths
    (walks,) = walk_paths([cur], [[basis.gamma_plus, basis.gamma_minus]], SEED_QUAD_ORDER)
    closings = walks.integrate([differential_family_genus0(alpha, y) for y in (1.0, 1j)])
    c1, ci = ([res[i].value for res in closings] for i in range(2))
    # the map y -> closings is R-linear; fit 2 real unknowns to 4 real targets
    M = np.array(
        [
            [c1[0].real, ci[0].real],
            [c1[0].imag, ci[0].imag],
            [c1[1].real, ci[1].real],
            [c1[1].imag, ci[1].imag],
        ]
    )
    ys = []
    for mp, mm in GENUS0_INTEGERS:
        t = np.array([0.0, 2 * np.pi * mp, 0.0, 2 * np.pi * mm])
        u, *_ = np.linalg.lstsq(M, t, rcond=None)
        ys.append(complex(u[0], u[1]))
    guess = SpectralTriple(
        0,
        P,
        differential_family_genus0(alpha, ys[0]),
        differential_family_genus0(alpha, ys[1]),
    )
    return project_to_mg(guess, tol=GENUS0_TOL, quad_order=SEED_QUAD_ORDER).triple


# A previously converged genus-1 case-(a) point (periods/closings on the
# lattice to ~4e-12).  Frozen as an initial guess only: every use
# re-projects and re-validates it, so the numbers carry no trust.
_FROZEN_GENUS1_CASE_A = {
    "genus": 1,
    "P": [
        [6.354470589321442e-06, 0.17432162719304517],
        [0.0, 0.0],
        [1.030388029746065, 0.0],
        [0.0, 0.0],
        [6.354470589321442e-06, -0.17432162719304517],
    ],
    "b1": [
        [-0.10265546300845631, 0.2745266475125621],
        [0.0, 0.0],
        [1.0403694936379004, 0.0],
        [0.0, 0.0],
        [-0.10265546300845631, -0.2745266475125621],
    ],
    "b2": [
        [0.4368527534398189, 0.27450698105382765],
        [0.0, 0.0],
        [1.040369493637917, 0.0],
        [0.0, 0.0],
        [0.4368527534398189, -0.27450698105382765],
    ],
}


def seed_genus1():
    """Validated genus-1 case-(a) point: re-projection of a frozen,
    previously converged seed."""
    guess = SpectralTriple.from_json_dict(_FROZEN_GENUS1_CASE_A)
    return project_to_mg(guess, tol=SEED_TOL, quad_order=SEED_QUAD_ORDER).triple


# ---------------------------------------------------------------------------
# Case (b): the common-factor strata
# ---------------------------------------------------------------------------
#
# Over a fixed curve the admissible numerators - residue-free real sections
# of weight g+3 whose lattice values are purely imaginary - form a
# two-dimensional space V(P), and b1, b2 are a basis of it.  The imaginary
# parts of the lattice values (over 2*pi) map V(P) onto a plane W(P).  So a
# triple is in case (b) exactly when every element of V(P) is divisible by
# one real section G of weight 1 or 2 (a property of P alone), and the
# lattice integers enter only through the requirement that W(P) be the
# plane they span.  ``solve_common_factor`` solves for such a triple by the
# one refreshed-frame chart solve, on the (P, G, m1, m2) chart where
# b_i = G*m_i, against the full condition map with the lattice integers held
# fixed; ``confirm_case_b`` checks what comes out, and ``seed_common_factor``
# chains the two.


def numerator_space(P, g, frame):
    """(N, L): an orthonormal basis of V(P) as the columns of N, in the real
    coordinates of weight-(g+3) sections, and the lattice map L sending those
    coordinates to Im/(2*pi) of the lattice values of one differential, in
    the order A_1.., B_1.., gamma+, gamma-.  The A-rows of L vanish
    identically (the A-cycles are invariant under the real structure)."""
    _, (k, b1_cols), _ = chart_blocks(g)
    one = Polynomial.one()
    walks = psi_walks(SpectralTriple(g, P, one, one), frame)
    J = walks.jacobian()
    # the lattice values and the residue are linear in b: the b1-columns of
    # the complex rows of b1's lattice components (in path order) and of its
    # residue
    cols = (J[0::2] + 1j * J[1::2])[:, b1_cols]
    lattice = cols[np.flatnonzero(lattice_order(g)[:, 0] == 0)]
    residue = cols[walks.vector.labels.index("res.T1")]
    cond = np.vstack([residue.real, residue.imag, lattice.real])
    _, s, vt = np.linalg.svd(cond)
    if s[k - 2] < 1e-8 * s[0]:
        raise ProjectionFailureError(
            f"numerator space has dimension > 2 (singular value {s[k - 2]:.2e})"
        )
    return vt[-2:].T, lattice.imag / TWO_PI


def _times_matrix(G, k, d):
    """Real-coordinate matrix of m -> G*m on the weight-k real sections; G is
    a real section of weight ``d``."""
    return np.column_stack(
        [pack_section(G * unpack_section(e, k), k + d) for e in np.eye(k + 1)]
    )


def _geometry_margin(triple):
    """Distance of the branch configuration from degeneration: min of the
    unit-circle margins, the pairwise separations and the distance from
    zeta = 0 (conformal collapse)."""
    pts = build_curve(triple.P).finite_branch_points
    circ = min(abs(abs(p) - 1.0) for p in pts)
    sep = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :])
    return min(circ, sep, min(abs(p) for p in pts))


def _common_factor_chart(triple, G):
    """The (P, G, m1, m2) chart around a triple whose numerators G divides
    (or nearly so), where b_i = G*m_i, in the form ``_chart_solve`` takes:
    its start point, the map to triples, and the map from a chart vector to
    the derivative of the triple's ``pack_triple`` coordinates."""
    g, d = triple.g, G.degree
    kP, km = 2 * g + 2, g + 3 - d
    cuts = np.cumsum([kP + 1, d + 1, km + 1])

    def sections(x):
        return [
            unpack_section(part, k) for part, k in zip(np.split(x, cuts), (kP, d, km, km))
        ]

    def make_triple(x):
        P, Gx, m1, m2 = sections(x)
        return SpectralTriple(g, P, Gx * m1, Gx * m2)

    def chart_derivative(x):
        _, Gx, m1, m2 = sections(x)
        times_G = _times_matrix(Gx, km, d)
        zero_b, zero_m = np.zeros((g + 4, kP + 1)), np.zeros_like(times_G)
        return np.block([
            [np.eye(kP + 1), np.zeros((kP + 1, d + 1 + 2 * (km + 1)))],
            [zero_b, _times_matrix(m1, d, km), times_G, zero_m],
            [zero_b, _times_matrix(m2, d, km), zero_m, times_G],
        ])

    x0 = np.concatenate(
        [pack_section(triple.P, kP), pack_section(G, d)]
        + [pack_section(symmetrize(b.divmod(G)[0], km), km) for b in (triple.b1, triple.b2)]
    )
    return x0, make_triple, chart_derivative


def solve_common_factor(alphas, G, integers):
    """Chart solve for a case-(b) point on the (P, G, m1, m2) chart.

    The start is P = ``product_form(alphas)`` (in-disc branch points
    ``alphas``), the common factor ``G`` (weight 1: one unit-circle root;
    weight 2: an in-disc pair or two unit-circle roots) and b1 = b2 = 0; the
    solve drives the full condition map to the lattice ``integers`` (in the
    order of ``psi``), in a frame built at the start curve and refreshed as
    the branch points move.  At b = 0 the P- and G-columns of the lattice
    and residue rows vanish, so the first steps fit m1 and m2 by linear
    least squares and the trust region then lets P and G move.

    Raises ``ProjectionFailureError`` unless the residual ends within
    10 * ``SEED_TOL``.
    """
    zero = Polynomial.zero()
    start = SpectralTriple(len(alphas) - 1, product_form(alphas), zero, zero)
    frame = PsiFrame.build(start, quad_order=SEED_QUAD_ORDER)
    chart = _common_factor_chart(start, G)
    x0, make_triple, _ = chart
    return _chart_solve(chart, integers, psi_walks(make_triple(x0), frame), SEED_TOL).triple


def confirm_case_b(triple, d_G):
    """Raise ``ProjectionFailureError`` unless the triple validates, is
    classified (b) with a common factor of degree ``d_G``, and keeps its
    branch points more than ``HEALTH_FLOOR`` from degeneration."""
    problems = []
    rep = validate(triple, quad_order=SEED_QUAD_ORDER)
    if not rep.verdict:
        problems.append("validation failed: " + ", ".join(rep.failed()))
    lab = classify(triple)
    if lab.label != "b" or lab.factors.G.degree != d_G:
        problems.append(
            f"classified ({lab.label}) with deg G = {lab.factors.G.degree}, "
            f"not (b) with deg G = {d_G}"
        )
    margin = _geometry_margin(triple)
    if margin <= HEALTH_FLOOR:
        problems.append(f"geometry margin {margin:.3f} <= {HEALTH_FLOOR}")
    if problems:
        raise ProjectionFailureError("case-(b) point not confirmed: " + "; ".join(problems))
    return triple


# Starts for ``solve_common_factor``: in-disc branch points, the roots of the
# common factor G, and the lattice integers in the order of ``psi``, read in
# the frame of the start curve.
#
# linear (genus 1): near the stratum where b1 and b2 share one unit-circle
#   root; A-period integers are always 0 (see numerator_space).  The solve
#   ends at branch points 0.3485-0.4667i, 0.3968-0.1682i and the shared root
#   0.7007-0.7134i; a frame built afresh there picks another homology basis
#   (B -> -B, gamma -> gamma - B), one continued from the start frame keeps
#   these integers.
# quad (genus 2): a rounded point where V(P) has the in-disc base pair
#   (beta, 1/conj(beta)); the integers span the rational plane nearest W(P)
#   there (denominator 8 in the B-coordinates; ``nearest_integers`` in
#   scripts/scan_genus1_base_pair.py gives them).
_CASE_B_STARTS = {
    "linear": (
        (0.45 - 0.45j, 0.3 - 0.1j),
        (np.exp(-0.75j),),
        (0, 1, 0, 1, 1, 0, 0, 4),
    ),
    "quad": (
        (0.2261 + 0.3392j, 0.5044 + 0.489j, 0.0031 + 0.3632j),
        (0.4852 + 0.7685j, 1.0 / (0.4852 - 0.7685j)),
        (0, 0, 8, 0, 0, 0, 0, 8, -21, -9, 16, 23),
    ),
}


def seed_common_factor(kind="linear"):
    """Validated case-(b) point: ``linear`` (genus 1, b1 and b2 share one
    unit-circle root) or ``quad`` (genus 2, they share an in-disc root
    pair).

    Deterministic: ``solve_common_factor`` from the recorded start, then
    ``confirm_case_b``.  No interior genus-1 point with a shared root pair
    is known: ``scripts/scan_genus1_base_pair.py`` runs this chart solve
    from 16 seeded genus-1 starts (seed 2026; G from the numerator space,
    integers from the rational plane nearest W(P)) and ends with 0 interior,
    0 boundary, 11 stalled solves and 5 starts without an in-disc root clear
    of the unit circle to build G from, so the quadratic point is built at
    genus 2.
    """
    alphas, g_roots, integers = _CASE_B_STARTS[kind]
    G, _ = real_section_scale(Polynomial.from_roots(g_roots))
    return confirm_case_b(solve_common_factor(alphas, G, integers), G.degree)


# ---------------------------------------------------------------------------
# Flow
# ---------------------------------------------------------------------------


# the tangent rules of a flow that pick the tangent-basis vector of one
# parameter (``tangent_params``); any other rule is fixed deformation parameters
BASIS_RULES = {"basis0": 0, "basis1": 1}


@dataclass(frozen=True)
class FlowConfig:
    h: float = 1e-2
    steps: int = 10
    params_rule: object = "basis0"  # a key of BASIS_RULES, or a PARAMS_CASE kind
    projection_tol: float = 1e-10
    quad_order: int = DEFAULT_QUAD_ORDER

    def __post_init__(self):
        rule = self.params_rule
        if not (type(rule) in PARAMS_CASE or (isinstance(rule, str) and rule in BASIS_RULES)):
            raise ValueError(
                f"params_rule must be one of {', '.join(BASIS_RULES)} or deformation "
                f"parameters, not {rule!r}"
            )


@dataclass(frozen=True)
class PathSample:
    t: float
    triple: SpectralTriple
    psi_residual: float
    label: CaseLabel  # the sample's ``classify``, which the next step's tower reuses
    tau: complex
    lattice_integers: tuple = ()

    @property
    def case(self):
        return self.label.label

    def to_json_dict(self):
        d = self.triple.to_json_dict()
        return {
            "t": self.t,
            "triple": d,
            "psi_residual": self.psi_residual,
            "case": self.case,
            "tau": [self.tau.real, self.tau.imag],
            "lattice_integers": list(self.lattice_integers),
        }


def _tangent_pack(v, g):
    dots = (v.P_dot, v.b1_dot, v.b2_dot)
    return np.concatenate(
        [pack_section(symmetrize(d, k), k) for d, (k, _) in zip(dots, chart_blocks(g))]
    )


def _rule_tangent(triple, label, rule, v_prev):
    """Resolve the per-step tangent at a triple whose ``classify`` is
    ``label``: one real tower and one ``make_tangent``, for the vector used.

    ``"basis0"``/``"basis1"`` pick the tangent-basis vector of that
    parameter (``tangent_params``) with sign continuity against the
    previous step.  A fixed ``CaseAParams`` rule is projected onto the
    current point's R-kernel first (the projection is basis-independent, so
    the resulting direction field is a continuous function of the point -
    which is what makes traces reversible).  Other fixed parameter objects
    are re-solved as they are.
    """
    tw = build_tower(triple, label)
    if isinstance(rule, str):
        params = tangent_params(tw)[BASIS_RULES[rule]]
    elif isinstance(rule, CaseAParams):
        q1, q2 = r_kernel(tw)
        xref = pack_section(rule.Q, 2)
        x1, x2 = pack_section(q1, 2), pack_section(q2, 2)
        c1, c2 = float(np.dot(xref, x1)), float(np.dot(xref, x2))
        scale = np.hypot(c1, c2)
        if scale < 1e-12 * max(1.0, np.linalg.norm(xref)):
            raise StepSizeError("reference Q is orthogonal to the current kernel")
        lam = np.linalg.norm(xref) / scale
        params = CaseAParams((c1 * q1 + c2 * q2) * lam)
    else:
        params = rule
    v = make_tangent(tw, params)
    if v_prev is not None:
        g = triple.g
        with np.errstate(over="ignore", invalid="ignore"):
            turn = float(np.dot(_tangent_pack(v, g), _tangent_pack(v_prev, g)))
        if not np.isfinite(turn):
            raise NumericalFailureError("tangent orientation is not finite")
        if turn < 0.0:
            v = v.scaled(-1.0)
    return v


def flow_step(triple, v, h, config=None, lattice=None, first=None):
    """Euler predictor along v, then projection with fixed lattice targets:
    a ``PathSample`` whose ``t`` is the step taken (h, halved until it
    projects).  ``first`` is the ``psi_walks`` of the predictor at h in a
    frame built at it, or the error that building the frame or walking it
    raised, when the caller has already tried (``trace`` does at step 0);
    the first try then projects from that walk, or fails with that
    error."""
    cfg = config or FlowConfig()
    g = triple.g
    if lattice is None:
        lattice = psi(triple, frame=PsiFrame.build(triple, quad_order=cfg.quad_order)).lattice_integers()
    step = h
    x0 = pack_triple(triple)
    dv = _tangent_pack(v, g)
    while True:
        try:
            predictor = unpack_triple(x0 + step * dv, g)
            walks, first = first, None
            if isinstance(walks, Exception):
                raise walks
            proj = project_to_mg(
                predictor,
                lattice_targets=lattice,
                tol=cfg.projection_tol,
                quad_order=cfg.quad_order,
                start=walks,
            )
            break
        except WhithamError:
            step *= 0.5
            if abs(step) < H_MIN:
                raise StepSizeError(f"flow step collapsed below h_min = {H_MIN}")
    new = proj.triple
    return PathSample(step, new, proj.residual, classify(new), conformal_type(new), lattice)


def trace(triple, config):
    """Iterate flow steps; emits the full sample sequence (first sample is
    the validated input) plus a status string.  Each point is classified
    once: the label of each sample builds the tower of the next step's
    tangent, and the start's root list builds the curve of its frame.  A
    start whose Psi residual is outside ``CAPTURE_RADIUS`` is off the
    lattice, where no projection converges: once its tangent is built (a
    non-deformable start stops on that first), the flow stops at step 0,
    before any step, and its status names the residual and the radius.

    The start and the first step's Euler predictor, each in a frame built
    at it, are walked as one stack (``psi_stack``), and the predictor's
    walk, or the error building its frame or walking it raised, is the
    first try of step 0 (``flow_step(..., first=...)``).  A start whose
    frame or walk raises raises that error, before one that classifying
    it raises."""
    cfg = config
    try:
        label = classify(triple)
    except Exception:
        # the error of the start's frame or walk, if it has one, comes first
        psi_walks(triple, PsiFrame.build(triple, quad_order=cfg.quad_order))
        raise
    curve = _curve_from_roots(triple.P, label.factors.P_roots)
    pairs = [(triple, PsiFrame.build(triple, quad_order=cfg.quad_order, curve=curve))]
    # step 0's tangent, or the error building it raised, which the loop
    # raises where later steps build theirs; and the predictor's frame, or
    # the error building it raised, which fails the first try
    v = first = None
    if cfg.steps:
        try:
            v = _rule_tangent(triple, label, cfg.params_rule, None)
        except Exception as exc:
            v = exc
        else:
            predictor = unpack_triple(pack_triple(triple) + cfg.h * _tangent_pack(v, triple.g),
                                      triple.g)
            try:
                pairs.append((predictor, PsiFrame.build(predictor, quad_order=cfg.quad_order)))
            except Exception as exc:
                first = exc
    start, *predicted = psi_stack(pairs)
    if isinstance(start, Exception):
        raise start
    if predicted:
        (first,) = predicted
    lattice = start.vector.lattice_integers()
    samples = [
        PathSample(
            0.0,
            triple,
            start.vector.residual(lattice),
            label,
            conformal_type(triple),
            lattice,
        )
    ]
    status = "completed"
    v_prev = None
    for k in range(cfg.steps):
        current = samples[-1]
        try:
            if k:
                v = _rule_tangent(current.triple, current.label, cfg.params_rule, v_prev)
            elif isinstance(v, Exception):
                raise v
            if k == 0 and not current.psi_residual <= CAPTURE_RADIUS:  # nan too
                raise ProjectionFailureError(
                    f"start residual {current.psi_residual:.3e} outside the capture "
                    f"radius {CAPTURE_RADIUS}"
                )
            sample = flow_step(current.triple, v, cfg.h, cfg, lattice, first)
        except WhithamError as exc:
            status = f"stopped at step {k}: {exc}"
            break
        samples.append(replace(sample, t=current.t + sample.t))
        v_prev, first = v, None
    return samples, status
