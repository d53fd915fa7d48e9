"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's solution paths, and instance
generators build data from explicit factors.  The Bezout oracle, one dense
least-squares solve over stacked coefficient convolutions, is
``whitham.cli.dense_bezout``, which the ``oracle`` subcommand runs too.
"""

from collections import namedtuple

import numpy as np

from whitham.errors import (
    CircleRootError,
    DegreeBoundError,
    MultipleRootError,
    RealityViolationError,
    StepSizeError,
)
from whitham.polyring import (
    MULTIPLICITY_RADIUS,
    TRIM_REL,
    Polynomial,
    random_real_section,
    real_section_scale,
)


def reference_coeffs(coeffs, bound=None):
    """The coefficients ``Polynomial(coeffs, bound)`` keeps, by the
    three-pass trim (finiteness, then the scale, then the last kept index)
    that the one-pass constructor replaces."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    if c.size == 0:
        c = np.zeros(1, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite polynomial coefficient")
    scale = np.max(np.abs(c))
    if scale > 0.0:
        keep = np.abs(c) > TRIM_REL * scale
        last = int(np.max(np.nonzero(keep)[0])) if np.any(keep) else -1
    else:
        last = -1
    c = c[: last + 1] if last >= 0 else np.zeros(1, dtype=complex)
    degree = -1 if (c.size == 1 and c[0] == 0) else c.size - 1
    if bound is not None and degree > bound:
        raise DegreeBoundError(f"degree {degree} exceeds nominal bound {bound}")
    return c


def real_pullback(p, k):
    """Action of the real involution on a weight-k section: q_i ->
    conj(q_{k-i}), by reversing the conjugated coefficients.  Applying it
    twice is the identity up to rounding; a section beyond weight k raises
    ``DegreeBoundError``."""
    if p.degree > k:
        raise DegreeBoundError(f"degree {p.degree} exceeds weight {k}")
    return Polynomial(np.conj(p.padded(k + 1))[::-1])


def random_complex_poly(rng, deg):
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    c[-1] += 2.0 * np.sign(c[-1].real or 1.0)  # keep the degree honest
    return Polynomial(c)


def random_bezout_instance(rng, max_deg=8, d_deg=None):
    """Random (A, B, C, D) with forced common factor D and D | C."""
    if d_deg is None:
        d_deg = int(rng.integers(0, 3))
    a1 = int(rng.integers(1, max_deg - d_deg + 1))
    b1 = int(rng.integers(1, max_deg - d_deg + 1))
    c1 = int(rng.integers(0, max_deg - d_deg + 1))
    D = random_complex_poly(rng, d_deg) if d_deg else Polynomial.one()
    A = random_complex_poly(rng, a1) * D
    B1 = random_complex_poly(rng, b1)
    if rng.random() < 0.3 and b1 >= 2:
        # force a multiple root in B/D to exercise the confluent rows
        beta = complex(rng.standard_normal(), rng.standard_normal())
        B1 = Polynomial.from_roots([beta, beta]) * random_complex_poly(rng, b1 - 2)
    B = B1 * D
    C = random_complex_poly(rng, c1) * D
    return A, B, C, D


def random_real_bezout_instance(rng, strict=True):
    """Real-section (A, B, C) with gcd D | C; strict => c < a+b-d.

    Built as C = A*X0 - B*Y0 with real-section X0, Y0, so the minimal
    solution is known to be real.
    """
    d_deg = int(rng.integers(0, 2)) * 2  # even, paired factor
    a1 = int(rng.integers(1, 4))
    b1 = int(rng.integers(2, 5))
    if d_deg:
        alpha = 0.3 + 0.4 * rng.random() + 0.2j * rng.random()
        D = Polynomial.from_roots([alpha, 1 / np.conj(alpha)])
        D, _ = real_section_scale(D)
    else:
        D = Polynomial.one()
    A = random_real_section(rng, a1) * D
    B = random_real_section(rng, b1) * D
    a, b = a1 + d_deg, b1 + d_deg
    if strict:
        x_w = int(rng.integers(0, b1))  # weight of X0, < b - d
        c = a + x_w
    else:
        x_w = b1 + int(rng.integers(0, 2))
        c = a + x_w
    X0 = random_real_section(rng, x_w)
    Y0 = random_real_section(rng, c - b) if c - b >= 0 else Polynomial.zero()
    C = A * X0 - B * Y0
    return A, B, C, D, (a, b, c), (X0, Y0)




def _relative_residual(A, B, C, X, Y):
    """The relative residual of a solution, formed by ``Polynomial``
    operators (the library forms it on coefficient arrays)."""
    AX, BY = A * X, B * Y
    scale = max(AX.norm(), BY.norm(), C.norm(), 1e-300)
    return (AX - BY - C).norm() / scale


def reference_minimal_solution(A, B, C, known_gcd=None, spec=None):
    """``bezout.minimal_solution`` of the one right-hand side C, with its
    system built at every call: a fresh ``confluent_vandermonde`` before the
    solve and a fresh ``np.linalg.cond`` after it, where the library reads
    the ones the spec carries; with a solve of the one column, where the
    library solves every right-hand side of a call together; and with
    every intermediate a ``Polynomial``, where the library works on
    coefficient arrays."""
    from whitham.bezout import (
        CONDITION_CAP,
        DIVISIBILITY_RTOL,
        BezoutSolution,
        RootSpec,
        _rhs_vector,
        confluent_vandermonde,
    )
    from whitham.errors import NoSolutionError
    from whitham.polyring import approx_gcd, poly_jet, roots

    D = known_gcd if known_gcd is not None else approx_gcd(A, B)
    if D.degree > 0:
        Cd, rem = C.divmod(D)
        if rem.norm() > DIVISIBILITY_RTOL * max(C.norm(), 1e-300):
            raise NoSolutionError("gcd(A,B) does not divide C")
        Ad, Bd = A.deflate(D), B.deflate(D)
    else:
        Cd, Ad, Bd = C, A, B
    warnings = []
    if Bd.degree <= 0:
        X = Polynomial.zero()
        Y = (A * X - C).deflate(B)
        return BezoutSolution(X.coeffs, Y.coeffs, _relative_residual(A, B, C, X, Y), 0.0, (),
                              np.zeros(0, dtype=complex))
    if spec is None:
        spec = RootSpec.of(Bd)
    n = Bd.degree - 1
    if spec.total != n + 1:
        spec = RootSpec.ordered(roots(Bd, 1e-13))
        warnings.append("root multiplicity adjusted to match degree")
    V = confluent_vandermonde(spec, n)
    jets = [poly_jet(Ad, beta, r) for beta, r in spec.entries]
    x = np.linalg.solve(V, _rhs_vector(spec, Cd, jets))
    cond = float(np.linalg.cond(V))
    if cond > CONDITION_CAP:
        warnings.append(f"ill-conditioned Vandermonde system (cond ~ {cond:.2e})")
    X = Polynomial(x)
    Y, _ = (A * X - C).divmod(B)
    res = _relative_residual(A, B, C, X, Y)
    if res > 1e-12:
        defect = C - (A * X - B * Y)
        if defect.norm() > 0:
            Dd, _ = defect.divmod(D) if D.degree > 0 else (defect, None)
            x2 = np.linalg.solve(V, _rhs_vector(spec, Dd, jets))
            X2 = X + Polynomial(x2)
            Y2, _ = (A * X2 - C).divmod(B)
            if _relative_residual(A, B, C, X2, Y2) < res:
                X, Y = X2, Y2
                x = x + x2
                res = _relative_residual(A, B, C, X, Y)
    return BezoutSolution(X.coeffs, Y.coeffs, res, cond, tuple(warnings), x)


def reference_roots(p, cluster_radius=MULTIPLICITY_RADIUS):
    """``polyring.roots`` with its Aberth test, Aberth step and Newton
    polishes on numpy arrays, as the library computed them before they moved
    to Python complex values: the same eigenvalue start, constants,
    clustering and order of the output."""
    from whitham.errors import ZeroPolynomialError
    from whitham.polyring import _as_poly, _cluster

    p = _as_poly(p)
    if p.is_zero:
        raise ZeroPolynomialError("roots of zero polynomial")
    c = p.coeffs
    zero_mult = 0
    scale = np.max(np.abs(c))
    while c.size > 1 and abs(c[0]) <= TRIM_REL * scale:
        c = c[1:]
        zero_mult += 1
    found = np.empty(0, complex)
    if c.size > 1:
        found, pv, dv = _reference_aberth(np.ascontiguousarray(c))
        for polish in range(2):
            if polish:
                pv, dv = _reference_horner3(c, found)[:2]
            # p' vanishes (and p with it) where a start hits a double root
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(np.abs(dv) > 1e-300, pv / dv, 0.0)
            mask = np.abs(step) < 1e-3 * np.maximum(1.0, np.abs(found))
            found = found - np.where(mask, step, 0.0)
    out = []
    if zero_mult:
        out.append((0.0 + 0.0j, zero_mult))
    out.extend(_cluster(found, cluster_radius))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _reference_aberth(coeffs):
    """``reference_roots``' Aberth-Ehrlich refinement of the eigenvalue
    start, on arrays."""
    from whitham.errors import NumericalFailureError
    from whitham.polyring import ABERTH_MAX_ITER, ABERTH_TARGET, _eigenvalue_start

    n = coeffs.size - 1
    if n == 1:
        z = np.array([-coeffs[0] / coeffs[1]])
        return (z, *_reference_horner3(coeffs, z)[:2])
    z = _eigenvalue_start(coeffs)
    for it in range(ABERTH_MAX_ITER + 1):
        p, dp, s = _reference_horner3(coeffs, z)
        # |p(z)| measured against sum |a_i||z|^i (backward-error style)
        converged = np.abs(p) <= ABERTH_TARGET * np.maximum(s, 1e-300)
        if np.all(converged):
            return z, p, dp
        if it == ABERTH_MAX_ITER:
            raise NumericalFailureError("root iteration did not converge", best=z)
        if it == 0 and np.unique(z).size < n:
            # Aberth's repulsion is undefined between coincident points,
            # which would then converge to one root together: spread them
            z = z + 1e-3 * np.maximum(1.0, np.abs(z)) * np.exp(2j * np.pi * np.arange(n) / n)
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dp != 0, p / dp, 0.1 + 0.1j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            sums = np.sum(1.0 / diff, axis=1) - 1.0 / np.diag(diff)
            denom = 1.0 - newton * sums
            step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        step[converged] = 0.0
        z = z - step


def _reference_horner3(coeffs, z):
    """p(z), p'(z) and sum |a_i||z|^i at the array z, in one Horner pass
    over the coefficients (low to high)."""
    az = np.abs(z)
    p = np.full(z.shape, coeffs[-1], dtype=complex)
    dp = np.zeros(z.shape, dtype=complex)
    s = np.full(z.shape, abs(coeffs[-1]))
    for a in coeffs[-2::-1]:
        dp = dp * z + p
        p = p * z + a
        s = s * az + abs(a)
    return p, dp, s


def reference_scaling_shift(triple, P_dot):
    """``deformation._scaling_shift`` recomputed from scratch at every call,
    as it was before the tower kept a scaling row: the curve of P, the
    product form of its in-disc branch points, the reference index and the
    root motion of every branch point."""
    from whitham.curve import build_curve
    from whitham.spectral import product_form

    P = triple.P
    alphas = [a for a, _ in build_curve(P).branch_pairs]
    Pi = product_form(alphas)
    m = int(np.argmax(np.abs(Pi.coeffs)))
    dP = P.derivative()
    terms = np.zeros(1, dtype=complex)

    def added(p, q):
        n = max(p.size, q.size)
        return np.pad(p, (0, n - p.size)) + np.pad(q, (0, n - q.size))

    for k, a in enumerate(alphas):
        a_dot = -P_dot(a) / dP(a)
        rest = product_form(alphas[:k] + alphas[k + 1 :]).coeffs
        right = Polynomial([1.0, -np.conj(a)]).coeffs
        left = np.array([-a, 1.0], dtype=complex)
        dpair = added(np.convolve([-a_dot], right), np.convolve(left, [0.0, -np.conj(a_dot)]))
        terms = added(terms, np.convolve(dpair, rest))
    dPi = Polynomial(terms)
    num = P.coeff(m) * dPi.coeff(m) - P_dot.coeff(m) * Pi.coeff(m)
    t = num / (2.0 * P.coeff(m) * Pi.coeff(m))
    return float(t.real), float(abs(t.imag))


def normalize(triple):
    """Rescale (P, b1, b2) -> (P/lambda^2, b1/lambda, b2/lambda) so P takes
    the product form; the differentials are unchanged as differentials."""
    from whitham.curve import build_curve
    from whitham.errors import RealityViolationError
    from whitham.spectral import ScalingRow, SpectralTriple

    lam2 = 1.0 / ScalingRow.of(build_curve(triple.P)).value()
    if abs(lam2.imag) > 1e-6 * abs(lam2) or lam2.real <= 0:
        raise RealityViolationError(
            f"scaling factor lambda^2 = {lam2:.6g} is not positive real"
        )
    lam = np.sqrt(lam2.real)
    return SpectralTriple(
        triple.g, triple.P / lam2.real, triple.b1 / lam, triple.b2 / lam
    )


def reference_empdi_residual(triple, v, i):
    """``deformation._empdi_residual`` with chat, chat - zeta chat' and P'
    rebuilt from the tangent vector, as it was before it took them from
    ``solve_empdi``."""
    b = triple.b1 if i == 1 else triple.b2
    b_dot = v.b1_dot if i == 1 else v.b2_dot
    c = v.c1 if i == 1 else v.c2
    zeta = Polynomial.zeta()
    chat = Polynomial([-1.0, 0.0, 1.0]) * c
    lhs = v.P_dot * b - 2.0 * triple.P * b_dot
    rhs = 2.0 * triple.P * (chat - zeta * chat.derivative()) + triple.P.derivative() * zeta * chat
    scale = max(lhs.norm(), rhs.norm(), triple.P.norm() * b.norm() * 1e-6, 1e-300)
    return (lhs - rhs).norm() / scale


# one path's rows of a ``curve.StackWalk``
PathRows = namedtuple("PathRows", "zs etas base end_sheet")


def per_path(stack):
    """Each path's ``PathRows`` of a ``curve.StackWalk``: the rows from its
    ``first`` row up to the next path's."""
    bounds = [*stack.first, len(stack.zs)]
    return [
        PathRows(stack.zs[a:b], stack.etas[a:b], stack.base[a:b], int(s))
        for a, b, s in zip(bounds[:-1], bounds[1:], stack.end_sheets)
    ]


def reference_walk(curve, path, quad_order):
    """The per-panel walk that ``curve.walk_paths`` stacks: segments split one
    at a time, eta continued panel by panel.  Returns (zs, etas, base,
    end_sheet) with one row per panel."""
    from whitham.curve import _continue_eta, _panel_grid

    P = curve.P
    sing = list(curve.finite_branch_points)
    if all(abs(s) > 1e-12 for s in sing):
        sing.append(0.0 + 0.0j)
    segments = reference_subdivide(path.segments, sing)
    ts = _panel_grid(quad_order)[0]
    p0 = complex(P(segments[0].point(0.0)))
    if abs(p0.imag) <= 1e-13 * abs(p0):
        p0 = complex(p0.real, 0.0)
    eta = path.start_sheet * complex(np.sqrt(p0))
    shape = (len(segments), ts.size)
    zs, etas, base = (np.empty(shape, dtype=complex) for _ in range(3))
    for p, seg in enumerate(segments):
        etas[p] = _reference_walk_eta(P, seg, ts, eta, _continue_eta)
        eta = complex(etas[p, -1])
        zs[p] = seg.point(ts)
        base[p] = seg.velocity(ts)
    ref = complex(np.sqrt(P(segments[-1].point(1.0))))
    end_sheet = 1 if abs(eta - ref) <= abs(eta + ref) else -1
    base /= zs**2 * etas
    return zs, etas, base, end_sheet


def reference_panel_grid(quad_order):
    """The panel grid of the Gauss-Legendre pair that ``curve._panel_grid``
    built before the Gauss-Kronrod pair replaced it: the q-point rule for
    the value, the q // 2-point rule for the error estimate and a coarse
    grid of step 1/8, as (ts, idx_hi, w_hi, idx_lo, w_lo).  Its error rule's
    nodes are not among its value rule's, so a walk patched onto this grid
    gives the right values and meaningless error estimates."""
    q_hi = max(int(quad_order), 2)
    q_lo = max(q_hi // 2, 2)
    t_hi, w_hi = _gl_nodes(q_hi)
    t_lo, w_lo = _gl_nodes(q_lo)
    ts = np.unique(np.concatenate([[0.0, 1.0], t_hi, t_lo, np.linspace(0.0, 1.0, 9)]))
    return ts, np.searchsorted(ts, t_hi), w_hi, np.searchsorted(ts, t_lo), w_lo


def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0, 1]


def reference_subdivide(segments, sing):
    """Depth-first split of one segment at a time, by the rule of
    ``curve._subdivide``."""
    from whitham.curve import ArcSegment
    from whitham.errors import GeometryError

    out = []
    stack = list(segments)
    while stack:
        seg = stack.pop(0)
        if isinstance(seg, ArcSegment) and abs(seg.theta1 - seg.theta0) > np.pi / 4 + 1e-12:
            stack = list(seg.split()) + stack
            continue
        pts = [seg.point(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        own_center = seg.center if isinstance(seg, ArcSegment) else None
        clear = np.inf
        for s in sing:
            if own_center is not None and abs(s - own_center) < 1e-13:
                continue
            clear = min(clear, min(abs(p - s) for p in pts))
        if isinstance(seg, ArcSegment):
            clear = min(clear, seg.radius)
        half = 0.5 * seg.length
        if half > 1e-14 and half > 0.75 * clear:
            if clear < 1e-11:
                raise GeometryError("integration path passes through a singular point")
            stack = list(seg.split()) + stack
            continue
        out.append(seg)
    return out


def _reference_walk_eta(P, seg, ts, eta0, continue_eta):
    """eta along one panel: a vectorized sign walk, or a step-by-step one
    with ``continue_eta`` on each unclear step."""
    from whitham.errors import GeometryError

    vals = np.sqrt(P(seg.point(ts)))
    n = ts.size
    etas = np.empty(n, dtype=complex)
    d_keep = np.abs(vals[1:] - vals[:-1])
    d_flip = np.abs(vals[1:] + vals[:-1])
    lo = np.minimum(d_keep, d_flip)
    hi = np.maximum(d_keep, d_flip)
    mag = np.maximum(np.abs(vals[1:]), np.abs(vals[:-1]))
    clear = (lo <= 0.5 * hi) & (lo <= 0.8 * np.maximum(mag, 1e-300))
    cur = vals[0] if abs(vals[0] - eta0) <= abs(vals[0] + eta0) else -vals[0]
    if abs(cur - eta0) > 0.5 * max(abs(eta0), 1e-300):
        raise GeometryError("continuation lost the sheet at a segment junction")
    etas[0] = cur
    if np.all(clear):
        signs = np.where(d_flip < d_keep, -1.0, 1.0)
        rel = np.concatenate([[1.0 if cur == vals[0] else -1.0], signs])
        etas[:] = np.cumprod(rel) * vals
        return etas
    for k in range(1, n):
        if clear[k - 1]:
            keep = abs(vals[k] - etas[k - 1]) <= abs(vals[k] + etas[k - 1])
            etas[k] = vals[k] if keep else -vals[k]
        else:
            etas[k] = continue_eta(P, seg, float(ts[k - 1]), etas[k - 1], float(ts[k]))
    return etas


def reference_integrate(walk, numerators, quad_order):
    """The per-path integral that ``StackWalk.integrate`` stacks: over one
    path's ``PathRows`` (``per_path``), each numerator evaluated at every
    node, each panel summed on its own by the rules of ``quad_order``, and
    the panel sums added in path order.  Returns (value, error, end sheet)
    per numerator."""
    from whitham.curve import _panel_grid

    _, idx_hi, w_hi, idx_lo, w_lo = _panel_grid(quad_order)
    out = []
    for b in numerators:
        fvals = b(walk.zs) * walk.base
        sums = np.column_stack([
            np.sum(w_hi * np.take(fvals, idx_hi, axis=1), axis=1),
            np.sum(w_lo * np.take(fvals, idx_lo, axis=1), axis=1),
        ])
        hi, lo = np.cumsum(sums, axis=0)[-1]
        out.append((complex(hi), float(abs(hi - lo)), walk.end_sheet))
    return out


def reference_lattice_jacobian(evaluation):
    """The lattice rows of ``PsiWalks.jacobian`` of the ``PsiWalks``
    ``evaluation``, by the moment loop over each path's own rows
    (``per_path``) that it ran when every path's walk was a separate view:
    the real and imaginary part of each complex row, periods of b1 and of
    b2, then closings of b1 and of b2."""
    from whitham.curve import _panel_grid
    from whitham.spectral import _section_basis

    triple = evaluation.triple
    kP, kb = 2 * triple.g + 2, triple.g + 3
    EP, Eb = _section_basis(kP), _section_basis(kb)
    nP, nb = kP + 1, kb + 1
    b_cols = [slice(nP, nP + nb), slice(nP + nb, None)]
    _, idx_hi, w_hi, _, _ = _panel_grid(evaluation.walks.quad_order)
    walks = per_path(evaluation.walks)
    lattice = np.zeros((2, len(walks), nP + 2 * nb), dtype=complex)
    for p, w in enumerate(walks):
        zs = np.take(w.zs, idx_hi, axis=1).ravel()
        wb = (w_hi * np.take(w.base, idx_hi, axis=1)).ravel()
        inv_P = 1.0 / np.take(w.etas, idx_hi, axis=1).ravel() ** 2
        f = np.stack([wb] + [wb * b(zs) * inv_P for b in (triple.b1, triple.b2)])
        moments = np.empty((3, max(nP, nb)), dtype=complex)
        zk = np.ones_like(zs)
        for k in range(moments.shape[1]):
            moments[:, k] = f @ zk
            zk *= zs
        for i in range(2):
            lattice[i, p, :nP] = -0.5 * (moments[1 + i, :nP] @ EP)
            lattice[i, p, b_cols[i]] = moments[0, :nb] @ Eb
    n = len(walks) - 2
    Jc = np.vstack([lattice[0, :n], lattice[1, :n], lattice[0, n:], lattice[1, n:]])
    J = np.empty((2 * Jc.shape[0], Jc.shape[1]))
    J[0::2], J[1::2] = Jc.real, Jc.imag
    return J


def _lattice(vec):
    """The lattice values of the ``PsiVector`` ``vec`` as Python complex
    numbers: its periods, then its closings."""
    return vec.periods.tolist() + vec.closings.tolist()


def reference_lattice_integers(vec):
    """``vec.lattice_integers()`` by the per-component rounding it replaced."""
    from whitham.spectral import TWO_PI

    return tuple(int(np.round(v.imag / TWO_PI)) for v in _lattice(vec))


def reference_lattice_residuals(vec):
    """``vec.lattice_residuals()`` by Python's complex ``abs`` of each
    lattice value less its nearest target, one component at a time."""
    from whitham.spectral import TWO_PI

    return tuple(
        abs(v - TWO_PI * 1j * m) for v, m in zip(_lattice(vec), reference_lattice_integers(vec))
    )


def reference_flatten(vec, integers=None):
    """``vec.flatten(integers)`` by the per-component loop it replaced: real
    and imaginary part of each lattice value less 2*pi*i times its integer
    (default: the nearest), of each residue value, and of the scaling less 1."""
    from whitham.spectral import TWO_PI

    if integers is None:
        integers = reference_lattice_integers(vec)
    out = []
    for v, m in zip(_lattice(vec), integers):
        d = v - TWO_PI * 1j * m
        out.extend((d.real, d.imag))
    for r in vec.residues.tolist():
        out.extend((r.real, r.imag))
    d = vec.scaling - 1.0
    out.extend((d.real, d.imag))
    return np.array(out)


def _perturbed(triple, direction, h):
    from whitham.spectral import SpectralTriple

    return SpectralTriple(
        triple.g,
        triple.P + h * direction.P_dot,
        triple.b1 + h * direction.b1_dot,
        triple.b2 + h * direction.b2_dot,
    )


def d_psi(triple, direction, h=1e-5, frame=None, quad_order=48):
    """Central-difference directional derivative of Psi in a frame
    (``quad_order`` is that of the frame built when none is given): the
    finite-difference oracle of the exact Jacobian along a tangent vector.

    Lattice components are differenced raw (their integer targets are
    locally constant).  Raises ``StepSizeError`` when the stepped triples
    leave the admissible set.
    """
    from whitham.spectral import PsiFrame, PsiVector, psi

    if frame is None:
        frame = PsiFrame.build(triple, quad_order=quad_order)
    try:
        hi = psi(_perturbed(triple, direction, h), frame=frame)
        lo = psi(_perturbed(triple, direction, -h), frame=frame)
    except (CircleRootError, MultipleRootError, RealityViolationError) as exc:
        raise StepSizeError(f"step h={h} left the admissible set: {exc}") from exc
    return PsiVector(
        (hi.values - lo.values) * (0.5 / h),
        hi.labels,
        max(hi.integration_error, lo.integration_error) / h,
    )


def d_psi_norm(dvec):
    """Euclidean norm of the flattened derivative (targets at zero shift)."""
    return float(np.linalg.norm(dvec.values.view(float)))
