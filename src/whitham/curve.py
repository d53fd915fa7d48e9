"""The hyperelliptic curve eta^2 = P(zeta): branch structure, cycles, periods.

The curve is two sheets of the zeta-plane glued along cuts joining each
branch point alpha inside the unit disc to its partner 1/conj(alpha)
outside (a root at zero pairs with one at infinity).  Differentials take
the form b(zeta) dzeta / (zeta^2 eta) with residue-free double poles over
zeta = 0 and infinity.

Nothing here ever evaluates a global branch of the square root along a
cut convention; instead eta is continued analytically along each
integration path from its recorded start sheet, with adaptive bisection
wherever a step would make the sign choice ambiguous.  Cuts matter only
for *constructing* paths in the intended homotopy classes:

* ``A_k`` is a stadium-shaped loop around cut k (k >= 1),
* ``B_k`` is a dog-bone through the in-disc endpoints of cuts 0 and k
  (two full circles joined by a corridor traversed once on each sheet),
* ``gamma_+/-`` run from zeta = +1/-1, once around the in-disc endpoint
  of cut 0, and back, landing on the opposite sheet.

Corridors detour around any branch point or marked point (0, +1, -1) that
comes too close; loops whose radii cannot clear the surrounding geometry
raise ``PathConstructionError`` with a diagnostic.

Paths are walked as one stack (``walk_paths``; one path of one curve is a
stack of one), which gives one walk, a ``StackWalk``, per curve.  The paths
of every curve are split into quadrature panels together, level by level,
each row probed against its own curve's singular set (the sets padded with
inf to one length), so that every path gets the panels it gets alone.  Then
each curve is walked on its own rows: P is evaluated once over its panels x
nodes grid (its ends and a Gauss-Kronrod pair's nodes, ``_panel_grid``); a
panel with an ambiguous step is first walked node by node from its own
principal root, with bisection; and the sheet signs of its panels chain in
one ``cumprod`` that starts afresh at each path's first panel.  A curve's
walk is exactly the walk of its paths alone, its arrays views of the
stack's, and the walk's temporaries are the size of the largest curve's
rows, not of the stack.  A stack fails only where one of its paths fails
alone; it raises the first failure it finds, and ``spectral.psi_stack``
finds which path of which curve fails.  Every numerator is integrated over
all its curve's paths in one pass (``StackWalk.integrate``).  A batch
``validate`` walks its triples this way (``spectral.psi_stack``), several
curves per stack, each curve once with the numerators of all its triples; a
single evaluation is the stack of its one curve.

A walk keeps its quadrature grid: the panels, their nodes and velocities,
and every row the subdivision probed with its verdict.  A later walk of
the same paths on a nearby curve is handed that walk (``like=``); it
re-probes the recorded rows against its own branch points in one pass
and, when no verdict changes, walks on the grid as it is instead of
subdividing again.  A curve's walk hands its grid on as the walk of its
paths alone would, whether or not other curves were walked beside it.
The grid is freed with the walks that hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CircleRootError,
    GeometryError,
    MultipleRootError,
    NumericalFailureError,
    PathConstructionError,
    RealityViolationError,
)
from .polyring import Polynomial, real_defect, roots

DEFAULT_QUAD_ORDER = 32
# a root of P closer than this to the unit circle is on it; an odd-degree P's
# root closer than this to zeta = 0 is the branch point there
CIRCLE_TOL = 1e-8
# a cut passing closer than this to {0, +1, -1} or another cut gets a detour
DETOUR_TRIGGER = 1e-2
# an obstacle this close to a corridor's line, relative to max(1, its
# distance from the start), lies on the line up to rounding: a tie
ROUTE_TIE = 1e-12


# ---------------------------------------------------------------------------
# Path geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex

    def point(self, t):
        return self.z0 + (self.z1 - self.z0) * t

    def velocity(self, t):
        return self.z1 - self.z0

    def reversed(self):
        return LineSegment(self.z1, self.z0)

    def split(self):
        m = self.point(0.5)
        return LineSegment(self.z0, m), LineSegment(m, self.z1)

    @property
    def length(self):
        return abs(self.z1 - self.z0)


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    theta0: float
    theta1: float  # traversed theta0 -> theta1; increasing = counterclockwise

    def point(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return self.center + self.radius * np.exp(1j * th)

    def velocity(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return 1j * (self.theta1 - self.theta0) * self.radius * np.exp(1j * th)

    def reversed(self):
        return ArcSegment(self.center, self.radius, self.theta1, self.theta0)

    def split(self):
        tm = 0.5 * (self.theta0 + self.theta1)
        return (
            ArcSegment(self.center, self.radius, self.theta0, tm),
            ArcSegment(self.center, self.radius, tm, self.theta1),
        )

    @property
    def length(self):
        return self.radius * abs(self.theta1 - self.theta0)


@dataclass(frozen=True)
class PathOnCurve:
    """A zeta-plane path plus the sheet of eta chosen at its start.

    ``start_sheet`` is the sign relative to the principal square root of
    P at the start point.  For closed zeta-projections the end sheet may
    still differ from the start sheet (an odd number of branch points was
    encircled); that is recorded by integration, not assumed.
    """

    segments: tuple
    start_sheet: int = 1
    label: str = ""


def _check_continuity(segments):
    for s0, s1 in zip(segments[:-1], segments[1:]):
        if abs(s0.point(1.0) - s1.point(0.0)) > 1e-9:
            raise PathConstructionError("path segments do not share endpoints")


# ---------------------------------------------------------------------------
# Curve construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperellipticCurve:
    P: Polynomial
    genus: int
    branch_pairs: tuple  # of (alpha in disc, partner 1/conj(alpha) or None for infinity)
    branched_at_zero: bool

    @property
    def finite_branch_points(self):
        pts = []
        for a, p in self.branch_pairs:
            pts.append(a)
            if p is not None:
                pts.append(p)
        return pts


def build_curve(P):
    """Validate P and pair its roots under alpha -> 1/conj(alpha).

    Raises ``CircleRootError`` for roots on the unit circle,
    ``MultipleRootError`` for repeated roots, ``RealityViolationError``
    when P has no roots, a root has no conjugate-inverse partner or P is
    not a real section of the implied weight.
    """
    return _curve_from_roots(P, roots(P))


def _curve_from_roots(P, rs):
    """``build_curve`` of P from its roots ``rs``, as ``roots(P)`` returns
    them."""
    if not rs:
        raise RealityViolationError("P has no branch points")
    for r, m in rs:
        if m > 1:
            raise MultipleRootError(f"repeated root near {r:.6g}")
        if abs(abs(r) - 1.0) < CIRCLE_TOL:
            raise CircleRootError(f"root {r:.6g} on the unit circle")
    deg = P.degree
    genus = (deg - 1) // 2
    weight = 2 * genus + 2
    defect = real_defect(P, weight)
    if defect > 1e-6 * max(1.0, P.norm()):
        raise RealityViolationError(f"P has real-section defect {defect:.3e}")
    flat = [r for r, _ in rs]
    inside = [r for r in flat if abs(r) < 1.0]
    outside = [r for r in flat if abs(r) > 1.0]
    pairs = []
    branched_at_zero = False
    if deg % 2 == 1:
        # odd degree: the partner of the near-zero root sits at infinity
        zero_root = min(inside, key=abs, default=None)
        if zero_root is None or abs(zero_root) > CIRCLE_TOL:
            raise RealityViolationError(
                "odd-degree P without a root at zeta = 0 cannot be paired"
            )
        inside.remove(zero_root)
        pairs.append((0.0 + 0.0j, None))
        branched_at_zero = True
    for a in inside:
        want = 1.0 / np.conj(a)
        best = min(outside, key=lambda r: abs(r - want), default=None)
        if best is None or abs(best - want) > 1e-6 * max(1.0, abs(want)):
            raise RealityViolationError(f"root {a:.6g} has no conjugate-inverse partner")
        outside.remove(best)
        pairs.append((complex(a), complex(best)))
    if outside:
        raise RealityViolationError(f"unpaired roots outside the disc: {outside}")
    pairs.sort(key=lambda ap: (ap[0].real, ap[0].imag))
    return HyperellipticCurve(P, genus, tuple(pairs), branched_at_zero)


# ---------------------------------------------------------------------------
# Cycle construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleBasis:
    a_cycles: tuple
    b_cycles: tuple
    gamma_plus: PathOnCurve
    gamma_minus: PathOnCurve
    cuts: tuple  # (start, end-or-None) per cut, for plotting/diagnostics

    def period_cycles(self):
        return list(self.a_cycles) + list(self.b_cycles)


def _dist_point_segment(p, a, b):
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = np.clip(((p - a) * np.conj(ab)).real / L2, 0.0, 1.0)
    return abs(p - (a + t * ab))


def _route(z0, z1, obstacles, r_det):
    """Straight run z0 -> z1 with deterministic arc detours around obstacles.

    Each obstacle closer than r_det to the open segment is bypassed along
    the circle of radius r_det around it, bulging away from the side the
    obstacle already favors.  Ties bulge counterclockwise; an obstacle
    within ``ROUTE_TIE`` of the line (a real branch point, or zeta = 0, on a
    run along the real axis) is a tie, so that the last bits of a root do
    not choose the side, and with it the homotopy class of the path.
    """
    u = z1 - z0
    L = abs(u)
    if L < 1e-14:
        return []
    u /= L
    hits = []
    for o in obstacles:
        w = (o - z0) * np.conj(u)
        t, delta = w.real, w.imag
        if abs(delta) >= r_det:
            continue
        half = np.sqrt(r_det**2 - delta**2)
        t_in, t_out = t - half, t + half
        if t_out <= 1e-12 or t_in >= L - 1e-12:
            continue
        if t_in < -1e-9 or t_out > L + 1e-9:
            raise PathConstructionError(
                f"obstacle {o:.4g} too close to a corridor endpoint"
            )
        hits.append((t, delta, t_in, t_out, o))
    hits.sort(key=lambda h: h[0])
    for h0, h1 in zip(hits[:-1], hits[1:]):
        if h0[3] > h1[2] - 1e-12:
            raise PathConstructionError("overlapping detours; cannot route corridor")
    segs = []
    cur = z0
    for t, delta, t_in, t_out, o in hits:
        p_in = z0 + u * t_in
        p_out = z0 + u * t_out
        if abs(p_in - cur) > 1e-14:
            segs.append(LineSegment(cur, p_in))
        th_in = float(np.angle(p_in - o))
        th_out = float(np.angle(p_out - o))
        # obstacle on the left: bulge right (clockwise)
        if delta > ROUTE_TIE * max(1.0, abs(o - z0)):
            while th_out > th_in:
                th_out -= 2 * np.pi
        else:
            while th_out < th_in:
                th_out += 2 * np.pi
        segs.append(ArcSegment(o, r_det, th_in, th_out))
        cur = p_out
    if abs(z1 - cur) > 1e-14:
        segs.append(LineSegment(cur, z1))
    return segs


def _loop_radius(center, others, cap):
    clear = min((abs(center - o) for o in others), default=np.inf)
    r = min(cap, 0.45 * clear)
    if r < 1e-6:
        raise PathConstructionError(
            f"no room for a loop around {center:.4g} (clearance {clear:.2e})"
        )
    return r


def _stadium(u, v, offset):
    """Counterclockwise stadium contour at the given offset around [u, v]."""
    direction = (v - u) / abs(v - u)
    n = 1j * direction
    phi = float(np.angle(direction))
    return (
        LineSegment(u - offset * n, v - offset * n),
        ArcSegment(v, offset, phi - np.pi / 2, phi + np.pi / 2),
        LineSegment(v + offset * n, u + offset * n),
        ArcSegment(u, offset, phi + np.pi / 2, phi + 3 * np.pi / 2),
    )


def _reversed_run(segs):
    return tuple(s.reversed() for s in reversed(segs))


def homology_basis(curve, jitter=0.0, anchor=None):
    """Deterministic cycle basis and closing paths for the curve.

    ``jitter`` deterministically rescales loop radii and offsets (used to
    check that lattice membership of periods does not depend on the
    realization).  Cut 0 is the pair at infinity when there is one (a
    branch point at zeta = 0), else the lexicographically first branch
    pair; its in-disc endpoint anchors the B-cycles and the closing paths.

    ``anchor`` (a previous basis's in-disc branch points) reorders the
    pairs by nearest match instead, so that a basis rebuilt along a
    continuous family keeps the same cycle assignment even when the
    lexicographic order of the moving branch points flips; the pair at
    infinity still comes first.  Loops and corridors clear the walk's own
    singular set (``_singular_set``).
    """
    pairs = curve.branch_pairs
    if anchor is not None and len(anchor) == len(pairs):
        remaining = list(pairs)
        ordered = []
        for a_old in anchor:
            best = min(range(len(remaining)), key=lambda i: abs(remaining[i][0] - a_old))
            ordered.append(remaining.pop(best))
        pairs = tuple(ordered)
    # the pair at infinity, which cannot carry an A-cycle, is cut 0
    pairs = tuple(sorted(pairs, key=lambda ap: ap[1] is not None))
    sing = _singular_set(curve).tolist()
    base = pairs[0][0]
    jfac = 1.0 + 0.18 * np.sin(3.7 * jitter + 1.0) * (1.0 if jitter else 0.0)

    def singular(*exclude):
        """The singular set but the excluded points; the only points loops
        must clear.  (+1 and -1 are regular for the integrand.)"""
        return [p for p in sing if all(abs(p - e) > 1e-12 for e in exclude)]

    def corridor_obstacles(*exclude):
        """Singular points plus the marked points +1/-1 (detoured per the
        cut-routing rule even though they are regular)."""
        pts = singular(*exclude)
        for w in (1.0, -1.0):
            if all(abs(w - e) > 1e-12 for e in exclude):
                pts.append(complex(w))
        return pts

    a_cycles = []
    for k in range(1, len(pairs)):
        a, p = pairs[k]
        if p is None:
            raise PathConstructionError("cut to infinity cannot carry an A-cycle")
        cutlen = abs(p - a)
        offset = min(0.1 * cutlen * jfac, 0.45 * _cut_clearance(a, p, singular(a, p)))
        if offset < 1e-6:
            raise PathConstructionError(
                f"cut {k} has no clearance for a stadium contour"
            )
        segs = _stadium(a, p, offset)
        a_cycles.append(PathOnCurve(segs, 1, f"A{k}"))

    b_cycles = []
    for k in range(1, len(pairs)):
        q = pairs[k][0]
        sep = abs(q - base)
        r_p = _loop_radius(base, singular(base), 0.3 * sep * jfac)
        r_q = _loop_radius(q, singular(q), 0.3 * sep * jfac)
        u = (q - base) / sep
        c_p = base + r_p * u
        c_q = q - r_q * u
        r_det = min(r_p, r_q, DETOUR_TRIGGER * 3)
        corridor = tuple(_route(c_p, c_q, corridor_obstacles(base, q), r_det))
        th_p = float(np.angle(u))
        th_q = float(np.angle(-u))
        segs = (
            (ArcSegment(base, r_p, th_p, th_p + 2 * np.pi),)
            + corridor
            + (ArcSegment(q, r_q, th_q, th_q + 2 * np.pi),)
            + _reversed_run(corridor)
        )
        _check_continuity(segs)
        b_cycles.append(PathOnCurve(segs, 1, f"B{k}"))

    closings = []
    for sign, name in ((1.0, "gamma+"), (-1.0, "gamma-")):
        z_base = complex(sign)
        sep = abs(base - z_base)
        if sep < 1e-9:
            raise PathConstructionError("branch point at the base point +/-1")
        r = _loop_radius(base, singular(base), 0.35 * sep * jfac)
        u = (base - z_base) / sep
        c = base - r * u
        r_det = min(r, DETOUR_TRIGGER * 3)
        run = tuple(_route(z_base, c, corridor_obstacles(base, z_base), r_det))
        th = float(np.angle(-u))
        segs = run + (ArcSegment(base, r, th, th + 2 * np.pi),) + _reversed_run(run)
        _check_continuity(segs)
        closings.append(PathOnCurve(segs, 1, name))

    cuts = tuple((a, p) for a, p in pairs)
    return CycleBasis(tuple(a_cycles), tuple(b_cycles), closings[0], closings[1], cuts)


def _cut_clearance(a, p, obstacles):
    return min((_dist_point_segment(o, a, p) for o in obstacles), default=np.inf)


# ---------------------------------------------------------------------------
# Quadrature with analytic continuation of eta
# ---------------------------------------------------------------------------


def _kronrod(n):
    """Ascending nodes and weights on [0, 1] of the (2n+1)-point Kronrod
    extension of the n-point Gauss-Legendre rule (exact to degree 3n+1, the
    Gauss nodes at odd positions), by Laurie's algorithm (Math. Comp. 66,
    1997) and Golub-Welsch; the weight is even, so no diagonal term enters."""
    k = np.arange(1.0, -(-3 * n // 2) + 1)  # up to ceil(3n/2)
    b = np.zeros(2 * n + 1)
    b[0], b[1 : k.size + 1] = 2.0, k**2 / (4.0 * k**2 - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    x, v = np.linalg.eigh(np.diag(np.sqrt(b[1:]), 1), UPLO="U")
    # averaged with its mirror, the rule is symmetric about 1/2 to the last bit
    x, w = 0.5 * (x - x[::-1]), v[0] ** 2
    return 0.5 * (x + 1.0), 0.5 * (w + w[::-1])


_PROBES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
# a path's subdivision gives up when its panels plus the splits made to reach
# them exceed this
MAX_SEGMENTS = 20000


@dataclass(frozen=True)
class Panels:
    """Segments as arrays, one row each: the rows of each path in path
    order, path after path (``path`` holds each row's path index).

    A line runs from ``start`` to ``end`` (angles 0, radius 0); an arc
    (``arc``) has center ``start`` = ``end``, ``radius`` and angles
    ``theta0`` -> ``theta1``.  With these fillers one formula per column
    serves both kinds, and each row computes exactly what its segment's
    ``point``, ``velocity``, ``length`` and ``split`` compute.

    ``levels`` is set by ``_subdivide`` and kept by ``take``: the rows of
    every path probed at each level, with their ``too_close`` verdicts.
    """

    arc: np.ndarray
    start: np.ndarray
    end: np.ndarray
    radius: np.ndarray
    theta0: np.ndarray
    theta1: np.ndarray
    path: np.ndarray
    levels: tuple = ()

    @staticmethod
    def of(*paths):
        """One row per ``LineSegment`` or ``ArcSegment`` of each path (a
        list of segments), in order."""
        rows = [
            (True, s.center, s.center, s.radius, s.theta0, s.theta1)
            if isinstance(s, ArcSegment)
            else (False, s.z0, s.z1, 0.0, 0.0, 0.0)
            for segments in paths
            for s in segments
        ]
        arc, start, end, radius, theta0, theta1 = zip(*rows) if rows else [()] * 6
        return Panels(
            np.array(arc, dtype=bool), np.array(start, dtype=complex), np.array(end, dtype=complex),
            *(np.array(c, dtype=float) for c in (radius, theta0, theta1)),
            np.repeat(np.arange(len(paths)), [len(segments) for segments in paths]),
        )

    def __len__(self):
        return self.arc.size

    def _columns(self):
        return (self.arc, self.start, self.end, self.radius, self.theta0, self.theta1, self.path)

    def take(self, rows):
        """The rows selected by an index, slice or mask, with the same
        ``levels``."""
        return Panels(*(a[rows] for a in self._columns()), self.levels)

    def heads(self):
        """Mask of the rows that start a path."""
        return np.diff(self.path, prepend=-1) != 0

    def segment(self, i):
        """Row i as a ``LineSegment`` or ``ArcSegment``."""
        if self.arc[i]:
            return ArcSegment(self.start[i], self.radius[i], self.theta0[i], self.theta1[i])
        return LineSegment(self.start[i], self.end[i])

    def points(self, ts):
        """Points of every row (rows) at the parameters ts (columns), the
        indices of the arc rows, and exp(i theta) at their points, which an
        arc's velocity reuses; ``exp`` is taken on the arc rows alone."""
        arcs = np.flatnonzero(self.arc)
        zs = self.start[:, None] + (self.end - self.start)[:, None] * ts
        e = np.exp(1j * (self.theta0[arcs, None] + (self.theta1 - self.theta0)[arcs, None] * ts))
        zs[arcs] = self.start[arcs, None] + self.radius[arcs, None] * e
        return zs, arcs, e

    def nodes(self, ts):
        """Points and velocities of every row (rows) at the parameters ts
        (columns)."""
        zs, arcs, e = self.points(ts)
        velocity = np.repeat((self.end - self.start)[:, None], ts.size, axis=1)
        velocity[arcs] = (1j * (self.theta1 - self.theta0) * self.radius)[arcs, None] * e
        return zs, velocity

    def split(self, mask):
        """Each masked row replaced by its two halves."""
        rows = np.flatnonzero(mask)
        first = rows + np.arange(rows.size)  # where each first half lands
        copies = np.repeat(np.arange(len(self)), 1 + mask)
        arc, start, end, radius, theta0, theta1, path = (a[copies] for a in self._columns())
        z0, z1 = self.start[rows], self.end[rows]
        mid = z0 + (z1 - z0) * 0.5  # an arc's center stays put
        th_mid = 0.5 * (self.theta0[rows] + self.theta1[rows])  # a line's angles stay 0
        end[first], start[first + 1] = mid, mid
        theta1[first], theta0[first + 1] = th_mid, th_mid
        return Panels(arc, start, end, radius, theta0, theta1, path)

    def too_close(self, sing):
        """Rows whose half-length exceeds 0.75 times their clearance: the
        distance from five probe points to the singular set (an arc's own
        center is cleared by its radius); and, of those, the rows that pass
        through a singular point.

        ``sing`` holds one singular set per path (row k for path k, padded
        with inf, see ``_padded_sets``); each row is probed against its own
        path's set alone: an inf point is at infinite distance, so the
        padding changes no clearance."""
        half = 0.5 * np.where(
            self.arc, self.radius * np.abs(self.theta1 - self.theta0), np.abs(self.end - self.start)
        )
        probes = self.points(_PROBES)[0]
        sing = sing[self.path]
        dist = np.minimum.reduce(np.abs(probes[:, :, None] - sing[..., None, :]), axis=1,
                                 initial=np.inf)
        dist[self.arc[:, None] & (np.abs(sing - self.start[:, None]) < 1e-13)] = np.inf
        clear = np.minimum.reduce(dist, axis=1, initial=np.inf)
        clear = np.where(self.arc, np.minimum(clear, self.radius), clear)
        close = (half > 1e-14) & (half > 0.75 * clear)
        return close, close & (clear < 1e-11)


def _subdivide(paths, sing):
    """Split the segments of each path (a list of segments per path) until
    each clears the singular set by its half-length, level by level, and
    return the ``Panels`` of all paths, path after path, each in path order.
    ``sing`` holds one singular set per path, padded with inf (see
    ``Panels.too_close``).

    Wide arcs are first halved into arcs of at most pi/4.  Then at each
    level the panels just split (at the first level, all of them) are probed
    against the singular set in one array operation, and those too close to
    it are halved; a panel that stays whole keeps its verdict at the next
    level.  Gauss rules converge geometrically in the ratio of clearance to
    segment size, which the 0.75 factor of ``Panels.too_close`` bounds.

    A row's verdict depends on that row and its own singular set alone, so
    every path gets the panels it gets when subdivided by itself.  Raises
    ``GeometryError`` at the first level where a probed row passes through
    a singular point or a path's panels plus splits exceed
    ``MAX_SEGMENTS``, so a stack fails only where one of its paths fails
    alone.

    The rows probed at each level and their verdicts go to ``levels``.  The
    panels depend on the singular set only through those verdicts: against
    another singular set that gives every probed row the same verdict and
    no row through a singular point, each level splits the same rows, and
    the panels come out the same (see ``StackWalk.holds``).
    """
    panels = Panels.of(*paths)
    segments = np.bincount(panels.path, minlength=len(paths))
    # an arc wider than pi/4 splits whatever its clearance
    while (wide := panels.arc & (np.abs(panels.theta1 - panels.theta0) > np.pi / 4 + 1e-12)).any():
        panels = panels.split(wide)
    splits = np.bincount(panels.path, minlength=len(paths)) - segments
    levels = []
    fresh = np.ones(len(panels), dtype=bool)
    while fresh.any():
        probed = panels.take(fresh)
        close, through = probed.too_close(sing)
        if through.any():
            raise GeometryError("integration path passes through a singular point")
        levels.append((probed, close))
        mask = np.zeros(len(panels), dtype=bool)
        mask[fresh] = close
        splits += np.bincount(panels.path[mask], minlength=splits.size)
        if (splits + np.bincount(panels.path, minlength=splits.size) > MAX_SEGMENTS).any():
            raise GeometryError("segment subdivision did not terminate near a singularity")
        panels = panels.split(mask)
        fresh = np.repeat(mask, 1 + mask)
    return replace(panels, levels=tuple(levels))


def _continue_eta(Ppoly, seg, t0, eta0, t1, depth=0):
    """Analytic continuation of eta along one segment from t0 to t1."""
    z1 = seg.point(t1)
    v = np.sqrt(Ppoly(z1))
    d_plus = abs(v - eta0)
    d_minus = abs(v + eta0)
    best, other = (v, d_plus) if d_plus <= d_minus else (-v, d_minus)
    d_best = min(d_plus, d_minus)
    d_other = max(d_plus, d_minus)
    scale = max(abs(eta0), abs(v))
    if scale == 0.0:
        raise GeometryError("continuation hit a branch point")
    if d_best <= 0.5 * d_other and d_best <= 0.8 * scale:
        return best
    if depth > 48:
        raise NumericalFailureError(
            "sheet ambiguity: eta continuation failed to resolve", best=eta0
        )
    tm = 0.5 * (t0 + t1)
    em = _continue_eta(Ppoly, seg, t0, eta0, tm, depth + 1)
    return _continue_eta(Ppoly, seg, tm, em, t1, depth + 1)


@dataclass(frozen=True)
class IntegrationResult:
    value: complex
    error: float
    end_sheet: int


def _walk_eta(P, panels, ts, zs, eta0):
    """eta at the nodes ``zs`` of the panels of one curve's paths (rows: each
    path's panels in path order, path after path, at the sorted parameters
    ts from 0 to 1), continued along each path from its start value
    ``eta0[k]`` (path k; one number for one path) at its first node.

    Each step keeps or flips the sign of the principal root; inside a panel
    a step is clear when one choice is much closer than the other, and at a
    junction the next panel's first value must lie near the last one.  A
    row with an unclear step is first walked node by node from its own
    principal root (``_walk_row``), which then stands in for the row's
    roots with every step kept.  Then the junction and step signs of the
    rows chain in one ``cumprod``, in place, which starts afresh at each
    path's first row.  The walk is odd in its start value, and a tie
    between the two choices is never taken as clear, so the sign that the
    chain puts on a walked row gives the walk from the eta the row
    continues.  Every step is elementwise or per row, and every sign is
    +-1, so each path comes out as it does walked alone.
    """
    vals = P(zs)
    np.sqrt(vals, out=vals)
    d_keep = np.abs(vals[:, 1:] - vals[:, :-1])
    d_flip = np.abs(vals[:, 1:] + vals[:, :-1])
    # column 0 takes the junction signs, the others the step signs
    signs = np.ones(vals.shape)
    signs[:, 1:][d_flip < d_keep] = -1.0
    lo = np.minimum(d_keep, d_flip)
    hi = np.maximum(d_keep, d_flip)
    mag = np.maximum(np.abs(vals[:, 1:]), np.abs(vals[:, :-1]))
    clear = (lo <= 0.5 * hi) & (lo <= 0.8 * np.maximum(mag, 1e-300))
    for r in np.flatnonzero(~np.all(clear, axis=1)):
        vals[r] = _walk_row(P, panels.segment(r), ts, vals[r], clear[r])
        signs[r, 1:] = 1.0
    heads = panels.heads()
    # the eta each row continues: its path's start value at a path's first
    # row, else the previous row's last value (the chain carries the sign)
    incoming = np.roll(vals[:, -1], 1)
    incoming[heads] = eta0
    signs[:, 0] = _junction_sign(vals[:, 0], incoming)
    chain = signs  # chained in place
    np.cumprod(chain.ravel(), out=chain.ravel())
    # every sign is +-1, so multiplying a path's rows by the chain's value
    # before its first row undoes that prefix exactly
    before = np.concatenate([[1.0], chain[:-1, -1]])
    chain *= before[np.maximum.accumulate(np.where(heads, np.arange(heads.size), 0))][:, None]
    vals *= chain
    return vals


def _junction_sign(first, incoming):
    """Sign that puts each panel's first root value next to the eta it
    continues; raises when neither sign does."""
    sign = np.where(np.abs(first - incoming) <= np.abs(first + incoming), 1.0, -1.0)
    if np.any(np.abs(sign * first - incoming) > 0.5 * np.maximum(np.abs(incoming), 1e-300)):
        raise GeometryError("continuation lost the sheet at a segment junction")
    return sign


def _walk_row(P, seg, ts, vals, clear):
    """eta along one panel with an unclear step, node by node from the
    principal root ``vals[0]``, with ``_continue_eta`` bisecting each
    unclear step."""
    etas = np.empty_like(vals)
    etas[0] = vals[0]
    for k in range(1, ts.size):
        if clear[k - 1]:
            keep = abs(vals[k] - etas[k - 1]) <= abs(vals[k] + etas[k - 1])
            etas[k] = vals[k] if keep else -vals[k]
        else:
            etas[k] = _continue_eta(P, seg, float(ts[k - 1]), etas[k - 1], float(ts[k]))
    return etas


@lru_cache(maxsize=64)
def _panel_grid(quad_order):
    """(ts, idx_hi, w_hi, idx_lo, w_lo): the parameters walked and where each
    rule's nodes sit in them.  Order q selects K_{2n+1} for the value and G_n,
    every second Kronrod node, for the error, n = max(q // 2, 2).  The walk
    visits 0, 1, the Kronrod nodes and, at low orders, a grid of step 1/8
    inside any wider gap, so no sign walk step exceeds 1/8."""
    n = max(int(quad_order) // 2, 2)
    t_k, w_k = _kronrod(n)
    ts = np.concatenate([[0.0], t_k, [1.0]])
    coarse = np.linspace(0.0, 1.0, 9)[1:-1]
    wide = np.diff(ts)[np.searchsorted(ts, coarse) - 1] > 0.125
    ts = np.unique(np.concatenate([ts, coarse[wide]]))
    idx = np.searchsorted(ts, t_k)
    return ts, idx, w_k, idx[1::2], 0.5 * np.polynomial.legendre.leggauss(n)[1]


@dataclass(frozen=True, eq=False)
class StackWalk:
    """The sheet-tracked walk of one curve's paths, as quadrature data, and
    the quadrature grid it was walked on: ``walk_paths`` gives one for each
    curve of a stack, equal to the walk of that curve's paths alone.

    Row p holds panel p of the paths (each path's panels in path order,
    path after path; path k's rows start at ``first[k]``): the nodes ``zs``
    and eta continued to them (``etas``).  The integral of
    b dzeta/(zeta^2 eta) over a panel is sum(w_hi * b(zs) * base) over the
    Kronrod columns ``idx_hi`` of ``_panel_grid(quad_order)``, with
    ``base`` = velocity / (zeta^2 eta) formed there alone; the Gauss rule
    on every second one gives the error estimate.  Path k ends on sheet
    ``end_sheets[k]``.

    The grid is the panels ``_subdivide`` gave the paths and their nodes
    ``zs`` and ``velocity``, both read-only, all views of the stack's.  The
    panels keep the stack's path indices and share the rows it probed at
    each level, with their verdicts (``Panels.levels``); the walk takes out
    its own paths' rows only when its grid is handed on.  A later walk of
    the same paths takes the grid over when ``holds`` says the subdivision
    would come out the same (``walk_paths(..., like=...)``); it lives as
    long as this walk.
    """

    paths: tuple
    quad_order: int
    panels: Panels
    zs: np.ndarray
    velocity: np.ndarray
    etas: np.ndarray
    first: np.ndarray
    end_sheets: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # inf or nan past the float range
    def integrate(self, numerators):
        """``IntegrationResult`` of each numerator (inner lists) over each
        path (outer list), in one pass over the rows.

        The rows' nodes and ``base`` are taken at the Kronrod columns alone,
        then each numerator is evaluated there once and summed by both rules
        (Gauss on every second column) before the next, so at most four
        (rows x Kronrod columns) temporaries are alive at once.  Each
        (numerator, row) pair is summed on its own, contiguous, so it sums
        exactly as the 1-D sum of its panel would.
        Each path's panel sums of a numerator are then added in path order
        by one ``cumsum`` down the rows, padded with -0.0, which leaves
        every sum unchanged, so no sum runs across paths or numerators and
        each path integrates as it does walked alone with that numerator
        alone.  A walk of no paths gives no results.
        """
        _, cols, w_hi, _, w_lo = _panel_grid(self.quad_order)
        first, zs = self.first, self.zs
        lengths = np.diff(first, append=len(zs))
        path = np.repeat(np.arange(first.size), lengths)
        rank = np.arange(len(zs)) - first[path]
        sums = np.full((first.size, lengths.max(initial=1), len(numerators), 2),
                       complex(-0.0, -0.0))
        z = np.take(zs, cols, axis=1)
        denominator = z**2 * np.take(self.etas, cols, axis=1)
        wb = np.take(self.velocity, cols, axis=1) / denominator
        del denominator
        for j, b in enumerate(numerators):
            f = b(z) * wb
            sums[path, rank, j, 0] = np.sum(w_hi * f, axis=-1)
            sums[path, rank, j, 1] = np.sum(w_lo * f[:, 1::2], axis=-1)
            del f
        return [[IntegrationResult(complex(hi), float(abs(hi - lo)), int(s)) for hi, lo in total]
                for total, s in zip(np.cumsum(sums, axis=1)[:, -1], self.end_sheets)]

    @cached_property
    def _probed(self):
        # the rows probed for the walk's own paths, level after level, with
        # path indices counted from its first path (the stack's index of its
        # first row), and their verdicts; built the first time the grid is
        # handed on, so a walk that is never handed on pays nothing for it
        k, n = self.panels.path[0], len(self.paths)
        levels = [(rows.take(mine), close[mine]) for rows, close in self.panels.levels
                  for mine in [(rows.path >= k) & (rows.path < k + n)]]
        rows = Panels(*map(np.concatenate, zip(*(rows._columns() for rows, _ in levels))))
        return replace(rows, path=rows.path - k), np.concatenate([c for _, c in levels])

    def holds(self, sing):
        """Whether ``_subdivide`` of these paths against the singular sets
        ``sing`` (one per path, see ``_padded_sets``) gives these panels:
        every row it probed keeps its verdict and none passes through a
        singular point, all checked in one ``too_close`` call.  A verdict
        depends only on its row and its path's singular set, so this is
        the answer for the walk's paths alone, whatever was walked beside
        them.  A walk of no paths always holds."""
        if not self.paths:
            return True
        rows, verdicts = self._probed
        close, through = rows.too_close(sing)
        return np.array_equal(close, verdicts) and not through.any()


def _singular_set(curve):
    """The points every panel, loop and corridor must clear: the finite
    branch points, and zeta = 0 (the double pole of the differentials)
    unless it is one."""
    sing = list(curve.finite_branch_points)
    if all(abs(s) > 1e-12 for s in sing):
        sing.append(0.0 + 0.0j)
    return np.asarray(sing, dtype=complex)


def _padded_sets(curves, counts):
    """Each curve's ``_singular_set``, padded with inf to one length, as one
    row per path (curve c's ``counts[c]`` paths after those of the curves
    before it)."""
    sets = [_singular_set(c) for c in curves]
    padded = np.full((len(sets), max((s.size for s in sets), default=0)), complex(np.inf, 0.0))
    for row, s in zip(padded, sets):
        row[: s.size] = s
    return np.repeat(padded, counts, axis=0)


def walk_paths(curves, paths, quad_order=DEFAULT_QUAD_ORDER, like=None):
    """Subdivide the paths into panels and continue eta along each from its
    start sheet: one ``StackWalk`` per curve of ``curves``, in order, over
    whose rows every integral over a path of that curve is a weighted sum.

    ``paths`` holds one sequence of paths per curve, and one stack carries
    them all, curve after curve: they are subdivided together (see
    ``_subdivide``), each row against its own curve's singular set, and
    their nodes are placed in one pass.  Every path is checked to start
    off a branch point before any eta is walked; then eta is walked one
    curve at a time (``_walk_eta``), so the walk's temporaries are the size
    of its largest curve's rows.  Each curve's walk is the walk of its
    paths alone, with views of the stack's panels and nodes; a curve with
    no paths gets a walk of no rows.  A stack raises the first failure it
    finds, which is a failure of one of its paths walked alone, though not
    necessarily of the first such path: ``spectral.psi_stack`` finds which
    path and curve fail.  A curve is handed once however many
    differentials are integrated over it: the walk does not depend on the
    numerator, and ``StackWalk.integrate`` takes any number of numerators.

    ``like``, the ``StackWalk`` of an earlier walk of the same paths at the
    same order (another curve, say a nearby iterate's, walked alone or
    beside other curves), hands its grid on: when the grid ``holds``
    against these curves' singular sets, its panels, nodes and velocities
    are walked as they are, without subdividing; else the paths are
    subdivided afresh.  Either way the walks are those of a fresh walk.  A
    grid of other paths or another order raises ``ValueError``.
    """
    groups = [tuple(group) for group in paths]
    paths = tuple(p for group in groups for p in group)
    # curve c's paths are those from ``at[c]`` up to ``at[c + 1]``
    at = np.cumsum([0, *map(len, groups)])
    sing = _padded_sets(curves, np.diff(at))
    ts = _panel_grid(quad_order)[0]
    # (tuples compare their items by identity first, so the paths of one
    # frame compare at no cost)
    if like is not None and (like.quad_order, like.paths) != (quad_order, paths):
        raise ValueError("the grid handed on was walked for other paths or at another order")
    if like is not None and like.holds(sing):
        panels, zs, velocity = like.panels, like.zs, like.velocity
    else:
        panels = _subdivide([path.segments for path in paths], sing)
        zs, velocity = panels.nodes(ts)
        zs.flags.writeable = velocity.flags.writeable = False
    # path k's rows are those from ``bounds[k]`` up to ``bounds[k + 1]``
    bounds = np.append(np.flatnonzero(panels.heads()), len(panels))
    p0 = np.empty(len(paths), dtype=complex)
    for curve, a, b in zip(curves, at, at[1:]):
        p0[a:b] = curve.P(zs[bounds[a:b], 0])
    # P is real at zeta = +-1 (on the unit circle a real section is real up
    # to a phase); at -1 it is negative for even genus, i.e. on the cut of
    # the principal root, where the roundoff sign of the imaginary part would
    # pick the sheet.  Take the upper side.
    p0 = np.where(np.abs(p0.imag) <= 1e-13 * np.abs(p0), p0.real.astype(complex), p0)
    eta0 = np.array([path.start_sheet for path in paths]) * np.sqrt(p0)
    if not eta0.all():
        raise GeometryError("path starts at a branch point")
    walks = []
    for curve, a, b in zip(curves, at, at[1:]):
        rows = slice(bounds[a], bounds[b])
        own = panels.take(rows)
        etas = _walk_eta(curve.P, own, ts, zs[rows], eta0[a:b])
        # the end node as walked: at zeta = -1 the path's own end point may
        # sit on the other side of the principal root's cut
        last = bounds[a + 1 : b + 1] - 1
        ref, eta = np.sqrt(curve.P(zs[last, -1])), etas[last - bounds[a], -1]
        end_sheets = np.where(np.abs(eta - ref) <= np.abs(eta + ref), 1, -1)
        walks.append(StackWalk(paths[a:b], quad_order, own, zs[rows], velocity[rows], etas,
                               bounds[a:b] - bounds[a], end_sheets))
    return walks


def integrate_batch(curve, numerators, path, quad_order=DEFAULT_QUAD_ORDER):
    """Integrals of several differentials b dzeta/(zeta^2 eta) over one path.

    The analytic continuation of eta does not depend on the numerator, so
    the sheet-tracked walk is shared and each b only costs one extra
    evaluation per node.  Each ``error`` is |K - G| on the same panels, in
    effect G's error: 1e4 to 1e6 times the true error at orders 8 and 12 on
    the seeds' paths; above 1e-13 doubling ``quad_order`` moves less.
    """
    return walk_paths([curve], [[path]], quad_order)[0].integrate(numerators)[0]


# ---------------------------------------------------------------------------
# Residues over zeta = 0
# ---------------------------------------------------------------------------


def residue_condition(P, b):
    """P_1 b_0 - 2 P_0 b_1; vanishes iff the differential is residue-free
    over zeta = 0, in both the branched and unbranched cases."""
    return P.coeff(1) * b.coeff(0) - 2.0 * P.coeff(0) * b.coeff(1)
