import dataclasses
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitham.curve import (
    ArcSegment,
    LineSegment,
    PathOnCurve,
    build_curve,
    homology_basis,
    integrate_batch,
    residue_condition,
    walk_paths,
)
from whitham.errors import (
    CircleRootError,
    GeometryError,
    MultipleRootError,
    NumericalFailureError,
    RealityViolationError,
)
from whitham.polyring import Polynomial, random_real_section

from oracles import per_path


def P(*coeffs):
    return Polynomial(list(coeffs))


def pair_poly(*alphas):
    """Product of (zeta - a)(1 - conj(a) zeta) over the given in-disc roots."""
    out = Polynomial.one()
    for a in alphas:
        if a == 0:
            out = out * Polynomial.zeta()
        else:
            out = out * P(-a, 1) * P(1, -np.conj(a))
    return out


def zero_residue(Ppoly, b):
    """res_{zeta=0} of b dzeta / (zeta^2 eta) over an unbranched zeta = 0,
    b_1 - (P_1 / 2 P_0) b_0, read off the residue condition."""
    return -residue_condition(Ppoly, b) / (2.0 * Ppoly.coeff(0))


def circle(center, radius, sheet=1):
    return PathOnCurve(
        (ArcSegment(complex(center), radius, 0.0, 2 * np.pi),), sheet, "circle"
    )


# -- curve construction --------------------------------------------------------


def test_build_curve_real_alpha():
    cur = build_curve(pair_poly(0.5))
    assert cur.genus == 0
    assert len(cur.branch_pairs) == 1
    a, p = cur.branch_pairs[0]
    assert abs(a - 0.5) < 1e-10 and abs(p - 2.0) < 1e-10


def test_build_curve_imaginary_alpha():
    cur = build_curve(pair_poly(0.5j))
    a, p = cur.branch_pairs[0]
    assert abs(a - 0.5j) < 1e-10 and abs(p - 2j) < 1e-10


def test_build_curve_genus_one():
    cur = build_curve(pair_poly(0.3, 0.4j))
    assert cur.genus == 1
    assert len(cur.branch_pairs) == 2
    assert not cur.branched_at_zero


def test_build_curve_conformal():
    cur = build_curve(pair_poly(0.0, 0.4))
    assert cur.genus == 1
    assert cur.branched_at_zero
    assert cur.branch_pairs[0][1] is None


def test_build_curve_circle_root():
    with pytest.raises(CircleRootError):
        build_curve(P(-1j, 1) * pair_poly(0.5))  # simple root at zeta = i


def test_build_curve_multiple_root():
    p = pair_poly(0.5) * pair_poly(0.5)
    with pytest.raises(MultipleRootError):
        build_curve(p)


def test_build_curve_unpaired():
    with pytest.raises(RealityViolationError):
        build_curve(Polynomial.from_roots([0.5, 3.0]))


def test_build_curve_without_branch_points():
    with pytest.raises(RealityViolationError, match="no branch points"):
        build_curve(Polynomial([1.0]))


# -- homology ------------------------------------------------------------------


def test_homology_genus0():
    basis = homology_basis(build_curve(pair_poly(0.5)))
    assert basis.a_cycles == () and basis.b_cycles == ()
    assert basis.gamma_plus.label == "gamma+"


def test_homology_genus1_counts():
    basis = homology_basis(build_curve(pair_poly(0.3, 0.4j)))
    assert len(basis.a_cycles) == 1 and len(basis.b_cycles) == 1


def test_homology_genus2_well_separated():
    cur = build_curve(pair_poly(0.4, -0.45 + 0.2j, 0.35j))
    basis = homology_basis(cur)
    assert len(basis.a_cycles) == 2 and len(basis.b_cycles) == 2
    # every cycle integrates cleanly for a generic differential
    b = random_real_section(np.random.default_rng(0), cur.genus + 3)
    for cyc in basis.period_cycles():
        res = integrate_batch(cur, [b], cyc, 32)[0]
        assert res.error < 1e-9 * max(1.0, abs(res.value))
        assert res.end_sheet == 1


def test_conformal_cut_zero_is_the_pair_at_infinity():
    """On a conformal curve whose other in-disc branch points sort before
    zeta = 0, the pair at infinity is still cut 0: the basis builds, a frame
    rebuilt ``like`` the first keeps it, and ``validate`` integrates."""
    from whitham.spectral import PsiFrame, SpectralTriple, product_form, validate

    rng = np.random.default_rng(23)
    for alphas in ([-0.5], [-0.3 + 0.2j], [-0.35j], [-0.4 + 0.1j, 0.3 + 0.45j]):
        g = len(alphas)
        P = product_form([0.0, *alphas])
        assert build_curve(P).branch_pairs[0][1] is not None
        assert homology_basis(build_curve(P)).cuts[0] == (0j, None)
        t = SpectralTriple(g, P, random_real_section(rng, g + 3), random_real_section(rng, g + 3))
        frame = PsiFrame.build(t)
        assert PsiFrame.build(t, like=frame).basis.cuts[0] == (0j, None)
        assert "P6_P7_integrals" not in [c.name for c in validate(t).checks]


@pytest.mark.parametrize("tilt", [-1e-17, 0.0, 1e-17])
def test_a_detour_round_an_obstacle_on_the_line_ignores_its_rounding(tilt):
    """A closing path at real in-disc branch points runs from +1 along the
    real axis through zeta = 0; the side the last bits of a root put zeta = 0
    on must not choose the detour, and with it the path's homotopy class:
    within ``ROUTE_TIE`` of the line the detour bulges counterclockwise.
    An obstacle clearly on the left of the run bulges clockwise."""
    from whitham.curve import _route

    (arc,) = [s for s in _route(1.0 + 0j, complex(-0.22, tilt), [0j], 0.03)
              if isinstance(s, ArcSegment)]
    assert arc.theta1 > arc.theta0
    (arc,) = [s for s in _route(1.0 + 0j, complex(-0.22, tilt), [-0.01j], 0.03)
              if isinstance(s, ArcSegment)]
    assert arc.theta1 < arc.theta0


def test_homology_jitter_builds():
    cur = build_curve(pair_poly(0.3, 0.4j))
    basis = homology_basis(cur, jitter=1.0)
    assert len(basis.a_cycles) == 1


# -- integration ---------------------------------------------------------------


def test_empty_contour_integrates_to_zero():
    cur = build_curve(pair_poly(0.5, 0.4j))
    b = random_real_section(np.random.default_rng(1), cur.genus + 3)
    # small circle far from branch points, poles outside it
    res = integrate_batch(cur, [b], circle(-0.5 - 0.5j, 0.12), 32)[0]
    assert abs(res.value) < 1e-12
    assert res.end_sheet == 1


def test_one_cut_a_cycle_is_2pi_i():
    # oracle: residue at infinity of dzeta/eta on monic eta^2 = (zeta-a)(zeta-b)
    cur = build_curve(Polynomial.from_roots([0.5, 2.0]))
    b = P(0, 0, 1)  # b dzeta / (zeta^2 eta) = dzeta / eta
    # contour enclosing BOTH branch points of the single cut
    span = circle(1.25, 1.1)
    res = integrate_batch(cur, [b], span, 48)[0]
    assert min(abs(res.value - 2j * np.pi), abs(res.value + 2j * np.pi)) < 1e-10
    # cross-check on a big circle: only the 1/zeta term of 1/eta survives
    big = integrate_batch(cur, [b], circle(0.0, 5.0), 48)[0]
    assert min(abs(big.value - 2j * np.pi), abs(big.value + 2j * np.pi)) < 1e-10


def test_self_convergence_orders():
    from whitham.spectral import _psi_paths

    rng = np.random.default_rng(3)
    cur = build_curve(pair_poly(0.45, -0.3 + 0.25j))
    basis = homology_basis(cur)
    b = random_real_section(rng, cur.genus + 3)
    for cyc in _psi_paths(basis):
        v16 = integrate_batch(cur, [b], cyc, 16)[0].value
        v64 = integrate_batch(cur, [b], cyc, 64)[0].value
        assert abs(v16 - v64) <= 1e-10 * max(1.0, abs(v64))


def test_error_estimate_bounds_doubling():
    cur = build_curve(pair_poly(0.45, -0.3 + 0.25j))
    b = random_real_section(np.random.default_rng(5), cur.genus + 3)
    cyc = homology_basis(cur).a_cycles[0]
    r16 = integrate_batch(cur, [b], cyc, 16)[0]
    v32 = integrate_batch(cur, [b], cyc, 32)[0].value
    assert abs(v32 - r16.value) <= max(r16.error, 1e-14)


def test_sheet_parity():
    cur = build_curve(pair_poly(0.5, -0.4))
    b = random_real_section(np.random.default_rng(7), cur.genus + 3)
    # around one branch point: sheet flips
    res = integrate_batch(cur, [b], circle(0.5, 0.15), 24)[0]
    assert res.end_sheet == -1
    # around two branch points (0.5 and -0.4): sheet restored
    res = integrate_batch(cur, [b], circle(0.05, 0.6), 24)[0]
    assert res.end_sheet == 1


def test_sigma_antisymmetry():
    cur = build_curve(pair_poly(0.3, 0.4j))
    b = random_real_section(np.random.default_rng(9), cur.genus + 3)
    path = homology_basis(cur).gamma_plus
    v = integrate_batch(cur, [b], path, 32)[0].value
    flipped = dataclasses.replace(path, start_sheet=-path.start_sheet)
    w = integrate_batch(cur, [b], flipped, 32)[0].value
    assert abs(v + w) < 1e-10 * max(1.0, abs(v))


def test_path_through_singularity_raises():
    cur = build_curve(pair_poly(0.5))
    b = P(1.0)
    with pytest.raises(GeometryError):
        integrate_batch(
            cur,
            [b],
            PathOnCurve((LineSegment(0.5 - 1.0, 0.5 + 1.0),), 1, "bad"),
            16,
        )


def test_conformal_closing_integrals_exact():
    # eta^2 = zeta, b = zeta*m with m in the weight-1 real sections:
    # the closing integrals have the closed form 8i Im(m0) and -8i Re(m0)
    cur = build_curve(P(0, 1))
    assert cur.branched_at_zero and cur.genus == 0
    basis = homology_basis(cur)
    m0 = np.pi / 4 * 1j
    b1 = Polynomial.zeta() * P(m0, np.conj(m0))
    v_plus = integrate_batch(cur, [b1], basis.gamma_plus, 48)[0].value
    v_minus = integrate_batch(cur, [b1], basis.gamma_minus, 48)[0].value
    assert min(abs(v_plus - 2j * np.pi), abs(v_plus + 2j * np.pi)) < 1e-10
    assert abs(v_minus) < 1e-10
    m0 = -np.pi / 4
    b2 = Polynomial.zeta() * P(m0, np.conj(m0))
    w_plus = integrate_batch(cur, [b2], basis.gamma_plus, 48)[0].value
    w_minus = integrate_batch(cur, [b2], basis.gamma_minus, 48)[0].value
    assert abs(w_plus) < 1e-10
    assert min(abs(w_minus - 2j * np.pi), abs(w_minus + 2j * np.pi)) < 1e-10


def test_gamma_paths_swap_sheet():
    cur = build_curve(pair_poly(0.3, 0.4j))
    basis = homology_basis(cur)
    b = random_real_section(np.random.default_rng(11), cur.genus + 3)
    for path in (basis.gamma_plus, basis.gamma_minus):
        res = integrate_batch(cur, [b], path, 24)[0]
        assert res.end_sheet == -1


# -- residues --------------------------------------------------------------------


def test_residue_closed_form_family():
    # with x = -(1 + |alpha|^2) / (2 alpha), b = y + x y zeta + conj(x y) zeta^2
    # + conj(y) zeta^3 is residue-free for every y
    alpha, y = 0.5, 1.0
    x = -0.5 / alpha * (1 + abs(alpha) ** 2)
    Ppoly = pair_poly(alpha)
    b = P(y, x * y, np.conj(x * y), np.conj(y))
    assert abs(residue_condition(Ppoly, b)) < 1e-14
    assert abs(zero_residue(Ppoly, b)) < 1e-14


def test_residue_zero_coeffs():
    Ppoly = pair_poly(0.5)
    assert residue_condition(Ppoly, P(0, 0, 1.0)) == 0


def test_residue_constant_b():
    Ppoly = pair_poly(0.4 + 0.1j)
    expected = -0.5 * Ppoly.coeff(1) / Ppoly.coeff(0)
    assert abs(zero_residue(Ppoly, P(1.0)) - expected) < 1e-14


def test_residue_branched_at_zero():
    # rephrased condition flags b_0 != 0 over a conformal curve
    assert abs(residue_condition(P(0, 1), P(1.0))) == 1.0
    assert residue_condition(Polynomial.zero(), Polynomial.zero()) == 0


def test_numeric_residue_matches_contour():
    # contour around 0 only: 2*pi*i * (residue quantity) / (sheet * sqrt(P_0))
    Ppoly = pair_poly(0.5, -0.45)
    rng = np.random.default_rng(13)
    b = random_real_section(rng, 5)
    cur = build_curve(Ppoly)
    val = integrate_batch(cur, [b], circle(0.0, 0.2), 48)[0].value
    expected = 2j * np.pi * zero_residue(Ppoly, b) / np.sqrt(
        complex(Ppoly.coeff(0))
    )
    err = min(abs(val - expected), abs(val + expected))
    assert err < 1e-10 * max(1.0, abs(expected))


def test_closing_from_minus_one_is_continuous_at_even_genus():
    """P(-1) is real and negative at even genus, i.e. on the cut of the
    principal square root; the start sheet there must not follow the
    roundoff sign of its imaginary part, or the closing integral flips
    sign under tiny moves of a branch point."""
    alphas = [0.0031 + 0.3632j, 0.2261 + 0.3392j, 0.5044 + 0.489j]
    cur = build_curve(pair_poly(*alphas))
    path = homology_basis(cur).gamma_minus
    b = Polynomial([1.0, 0.5j, 0.2, 0.3, -0.5j, 1.0])
    base = integrate_batch(cur, [b], path, 32)[0].value
    assert cur.P(-1.0).real < 0
    for h in (1e-4, 1e-5, 1e-6, 1e-7):
        moved = build_curve(pair_poly(alphas[0], alphas[1] + h, alphas[2]))
        value = integrate_batch(moved, [b], path, 32)[0].value
        assert abs(value - base) < 1e3 * h * abs(base)


# -- the stacked walk against the per-panel reference ----------------------------


def _assert_walks_equal(walk, ref):
    zs, etas, base, end_sheet = ref
    assert np.array_equal(walk.zs, zs)
    assert np.array_equal(walk.etas, etas)
    assert np.array_equal(walk.base, base)
    assert walk.end_sheet == end_sheet


def test_stacked_walk_matches_per_panel_reference(g1_b_linear, g2_b_quad):
    """Every Psi path of genus 0 to 3, both case-(b) seeds included, walks
    to the same panels, nodes, eta and end sheet as the walk that splits
    one segment and continues eta one panel at a time, both alone and in
    the stack of all paths of its frame."""
    from oracles import reference_walk
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1
    from whitham.spectral import PsiFrame, SpectralTriple, _psi_paths, product_form

    genus3 = product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j])
    one = Polynomial.one()
    points = [seed_genus0(), seed_conformal_genus0(1, 2), seed_genus1(), g1_b_linear,
              g2_b_quad, SpectralTriple(3, genus3, one, one)]
    assert not any(isinstance(t, str) for t in points), points
    for t in points:
        frame = PsiFrame.build(t)
        paths = _psi_paths(frame.basis)
        cur = frame.row.curve
        for order in (16, 32, 48):
            stack = per_path(walk_paths([cur], [paths], order)[0])
            assert len(stack) == len(paths)
            for path, walk in zip(paths, stack):
                ref = reference_walk(cur, path, order)
                _assert_walks_equal(per_path(walk_paths([cur], [[path]], order)[0])[0], ref)
                _assert_walks_equal(walk, ref)


def _walked(walk):
    """The walks, or the class and message of the error raised."""
    try:
        return walk()
    except (GeometryError, NumericalFailureError) as exc:
        return type(exc), str(exc)


def _walked_in_order(cur, paths):
    return _walked(lambda: [per_path(walk_paths([cur], [[path]], 32)[0])[0] for path in paths])


def _same_outcome(stacked, in_order):
    if isinstance(in_order[0], type):
        assert stacked == in_order
        return
    assert len(stacked) == len(in_order)
    for walk, alone in zip(stacked, in_order):
        _assert_walks_equal(walk, (alone.zs, alone.etas, alone.base, alone.end_sheet))


# a curve with branch points 0.5 and 2 (and the pole at 0), and paths that
# clear them (FAR), pass 1e-6 from 0.5 (NEAR: 86 panels, 171 panels and
# splits) or through 0.5 and through 0 (THROUGH, POLE; POLE's midpoint probe
# hits 0 on the first level)
FAR = PathOnCurve((ArcSegment(-0.5 - 0.5j, 0.12, 0.0, 2 * np.pi),), 1, "far")
NEAR = PathOnCurve((LineSegment(-0.4 + 1e-6j, 0.9 + 1e-6j),), 1, "near")
THROUGH = PathOnCurve((LineSegment(0.5 - 0.3j, 0.5 + 0.3j),), 1, "through")
POLE = PathOnCurve((LineSegment(-0.2j, 0.2j),), 1, "pole")


def _psi_over(curves, paths):
    """``spectral.psi_stack`` (``psi_walks`` for one curve) at a genus-0
    triple on each curve, in a frame whose Psi paths are that curve's
    ``paths``: each triple's walks per path, or the class and message of
    its error."""
    from unittest.mock import patch

    import whitham.spectral as spectral

    rng = np.random.default_rng(27)
    pairs = [
        (spectral.SpectralTriple(0, cur.P, random_real_section(rng, 3),
                                 random_real_section(rng, 3)),
         spectral.PsiFrame(tuple(ps), spectral.ScalingRow.of(cur)))
        for cur, ps in zip(curves, paths)
    ]
    with patch.object(spectral, "_psi_paths", list):  # a frame's basis is its paths
        if len(pairs) == 1:
            return [_walked(lambda: _own_walks(spectral.psi_walks(*pairs[0])))]
        return [(type(e), str(e)) if isinstance(e, Exception) else _own_walks(e)
                for e in spectral.psi_stack(pairs)]


def _own_walks(evaluation):
    return per_path(evaluation.walks)


def test_stack_raises_the_first_failing_path_error(monkeypatch):
    """A middle path through a branch point fails the evaluation of Psi
    with the class and message that walking the paths one after another
    raises.  So does an earlier path that loses the sheet in the eta walk
    ahead of a later path that fails to subdivide; and in a stack of two
    curves that both fail, each triple gets its own curve's error."""
    import whitham.curve as curve_mod

    cur = build_curve(Polynomial.from_roots([0.5, 2.0]))
    for paths in ([FAR, THROUGH, NEAR], [NEAR, THROUGH, FAR, POLE]):
        in_order = _walked_in_order(cur, paths)
        assert in_order == (GeometryError, "integration path passes through a singular point")
        assert _psi_over([cur], [paths]) == [in_order]

    # FAR's junctions fail in the eta walk; THROUGH fails on the first level
    # of the subdivision, before any row is walked
    lost = (GeometryError, "continuation lost the sheet at a segment junction")
    far_start = np.sqrt(cur.P(FAR.segments[0].point(0.0)))
    junction_sign = curve_mod._junction_sign

    def lost_on_far(first, incoming):
        if np.any(np.abs(first - far_start) < 1e-12):
            raise GeometryError(lost[1])
        return junction_sign(first, incoming)

    with monkeypatch.context() as patch:
        patch.setattr(curve_mod, "_junction_sign", lost_on_far)
        paths = [FAR, THROUGH]
        assert _walked_in_order(cur, paths) == lost
        assert _psi_over([cur], [paths]) == [lost]

    # NEAR exceeds the segment bound on a late level of ``cur``'s subdivision;
    # POLE passes through the pole of ``other`` on the first level
    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 170)
    other = build_curve(Polynomial.from_roots([0.4, 2.5]))
    over = (GeometryError, "segment subdivision did not terminate near a singularity")
    through = (GeometryError, "integration path passes through a singular point")
    for curves, paths, errors in (([cur, other], [[FAR, NEAR], [POLE]], [over, through]),
                                  ([other, cur], [[POLE], [FAR, NEAR]], [through, over])):
        assert [_walked(lambda: walk_paths([c], [p], 32)) for c, p in zip(curves, paths)] == errors
        assert [_psi_over([c], [p])[0] for c, p in zip(curves, paths)] == errors
        assert _psi_over(curves, paths) == errors


def test_segment_guard_applies_per_path(monkeypatch):
    """``MAX_SEGMENTS`` bounds each path's panels and splits, not the
    stack's: a stack of paths that each fit walks as they walk alone,
    however many panels it holds, and a path beyond the bound fails the
    evaluation of Psi with its own error even when a later path fails on an
    earlier level."""
    import whitham.curve as curve_mod

    cur = build_curve(Polynomial.from_roots([0.5, 2.0]))
    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 171)
    paths = [NEAR, FAR, NEAR]
    stack = per_path(walk_paths([cur], [paths], 32)[0])
    assert sum(len(w.zs) for w in stack) > curve_mod.MAX_SEGMENTS
    _same_outcome(stack, _walked_in_order(cur, paths))
    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 170)
    for paths, message in (
        ([FAR, NEAR, POLE], "segment subdivision did not terminate near a singularity"),
        ([FAR, POLE, NEAR], "integration path passes through a singular point"),
        ([FAR, FAR], None),
    ):
        in_order = _walked_in_order(cur, paths)
        if message is not None:
            assert in_order == (GeometryError, message)
        (evaluated,) = _psi_over([cur], [paths])
        _same_outcome(evaluated, in_order)


def test_unclear_row_falls_back_to_bisection(monkeypatch):
    """A panel that passes 1e-3 from a branch point, not subdivided, has
    unclear sign steps: only that row is walked node by node with the
    bisecting continuation, and eta agrees with the per-panel reference on
    it and on the panels after it."""
    import whitham.curve as curve_mod
    from oracles import _reference_walk_eta
    from whitham.curve import Panels, _continue_eta, _panel_grid, _walk_eta

    Ppoly = Polynomial.from_roots([0.5, 2.0])
    segs = [
        LineSegment(0.1 + 0.3j, 0.2 + 0.001j),
        LineSegment(0.2 + 0.001j, 0.9 + 0.001j),
        LineSegment(0.9 + 0.001j, 0.9 + 0.3j),
        ArcSegment(0.5 + 0.3j, 0.4, 0.0, np.pi / 2),
    ]
    ts = _panel_grid(32)[0]
    panels = Panels.of(segs)
    zs, _ = panels.nodes(ts)
    eta0 = complex(np.sqrt(Ppoly(zs[0, 0])))
    bisected = []

    def counted(P, seg, *args, **kwargs):
        bisected.append(seg)
        return _continue_eta(P, seg, *args, **kwargs)

    monkeypatch.setattr(curve_mod, "_continue_eta", counted)
    etas = _walk_eta(Ppoly, panels, ts, zs, eta0)
    assert bisected and set(bisected) == {segs[1]}
    ref, eta = [], eta0
    for seg in segs:
        ref.append(_reference_walk_eta(Ppoly, seg, ts, eta, _continue_eta))
        eta = complex(ref[-1][-1])
    assert np.array_equal(etas, np.array(ref))


def test_unclear_row_in_a_later_curve_is_bisected_with_its_own_P(monkeypatch):
    """A stack of two curves whose second curve has a panel 1e-3 from its
    branch point 0.5 (the paths left unsubdivided): only that row is walked
    node by node, with the second curve's P, and every row's eta equals the
    walk of its path alone."""
    import whitham.curve as curve_mod
    from whitham.curve import Panels, _continue_eta

    first = build_curve(Polynomial.from_roots([0.4, 2.5]))
    second = build_curve(Polynomial.from_roots([0.5, 2.0]))
    clear = [LineSegment(-0.6 + 0.4j, -0.1 + 0.4j), LineSegment(-0.1 + 0.4j, -0.1 + 0.8j)]
    near = [
        LineSegment(0.1 + 0.3j, 0.2 + 0.001j),
        LineSegment(0.2 + 0.001j, 0.9 + 0.001j),  # 1e-3 from 0.5: unclear steps
        LineSegment(0.9 + 0.001j, 0.9 + 0.3j),
    ]
    walks = [(first, clear), (second, near[:2]), (second, near[1:])]
    bisected = []

    def counted(P, seg, *args, **kwargs):
        bisected.append((P, seg))
        return _continue_eta(P, seg, *args, **kwargs)

    monkeypatch.setattr(curve_mod, "_continue_eta", counted)
    monkeypatch.setattr(curve_mod, "_subdivide", lambda paths, sing: Panels.of(*paths))
    stack = walk_paths([first, second], [[PathOnCurve(tuple(clear))],
                                         [PathOnCurve(tuple(p)) for _, p in walks[1:]]], 32)
    assert bisected
    assert all(P is second.P and seg == near[1] for P, seg in bisected)
    alone = [walk_paths([c], [[PathOnCurve(tuple(p))]], 32)[0].etas for c, p in walks]
    assert np.array_equal(np.concatenate([w.etas for w in stack]), np.concatenate(alone))


def test_stacked_rows_restart_at_each_path():
    """Stacked paths whose unclear rows end one path, start the next and end
    the stack, one path on the other sheet: each path's rows continue from
    its own start value, as the per-panel reference walks that path
    alone."""
    from oracles import _reference_walk_eta
    from whitham.curve import Panels, _continue_eta, _panel_grid, _walk_eta

    Ppoly = Polynomial.from_roots([0.5, 2.0])
    segs = [
        LineSegment(0.1 + 0.3j, 0.2 + 0.001j),
        LineSegment(0.2 + 0.001j, 0.9 + 0.001j),  # 1e-3 from 0.5: unclear steps
        LineSegment(0.9 + 0.001j, 0.9 + 0.3j),
        ArcSegment(0.5 + 0.3j, 0.4, 0.0, np.pi / 2),
    ]
    paths = [segs[:2], segs[1:], segs[2:], segs[:2]]
    sheets = [1, -1, 1, 1]
    ts = _panel_grid(32)[0]
    eta0 = [s * complex(np.sqrt(Ppoly(p[0].point(0.0)))) for s, p in zip(sheets, paths)]
    panels = Panels.of(*paths)
    zs, _ = panels.nodes(ts)
    etas = _walk_eta(Ppoly, panels, ts, zs, eta0)
    ref = []
    for path, eta in zip(paths, eta0):
        for seg in path:
            ref.append(_reference_walk_eta(Ppoly, seg, ts, eta, _continue_eta))
            eta = complex(ref[-1][-1])
    assert np.array_equal(etas, np.array(ref))


def test_stacked_integral_equals_each_path_integral(g1_b_linear, g2_b_quad):
    """``StackWalk.integrate`` evaluates each numerator once over the rows of
    every path and adds each path's panel sums apart: every value, error
    and end sheet equals that path's ``integrate_batch`` and the
    per-path reference, bit for bit, at genus 0 to 3 and at three
    orders."""
    from oracles import reference_integrate
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1
    from whitham.polyring import random_real_section
    from whitham.spectral import PsiFrame, SpectralTriple, _psi_paths, product_form

    genus3 = product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j])
    one = Polynomial.one()
    points = [seed_genus0(), seed_conformal_genus0(1, 2), seed_genus1(), g1_b_linear,
              g2_b_quad, SpectralTriple(3, genus3, one, one)]
    assert not any(isinstance(t, str) for t in points), points
    rng = np.random.default_rng(18)
    for t in points:
        frame = PsiFrame.build(t)
        numerators = (t.b1, t.b2, random_real_section(rng, t.g + 3))
        paths = _psi_paths(frame.basis)
        for order in (16, 32, 48):
            (stack,) = walk_paths([frame.row.curve], [paths], order)
            stacked = stack.integrate(numerators)
            walks = per_path(stack)
            assert len(stacked) == len(walks)
            for path, walk, results in zip(paths, walks, stacked):
                alone = integrate_batch(frame.row.curve, numerators, path, order)
                ref = reference_integrate(walk, numerators, order)
                assert [(r.value, r.error, r.end_sheet) for r in results] == ref
                assert [(r.value, r.error, r.end_sheet) for r in alone] == ref


# -- several curves in one stack ------------------------------------------------


def _stack_points(g1_b_linear, g2_b_quad):
    """The five seed points, a fixed genus-3 triple and a well-separated
    genus-2 triple, both with random real sections as numerators."""
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1
    from whitham.spectral import SpectralTriple, product_form

    assert not any(isinstance(t, str) for t in (g1_b_linear, g2_b_quad))
    rng = np.random.default_rng(2018)
    genus3 = SpectralTriple(3, product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j]),
                            random_real_section(rng, 6), random_real_section(rng, 6))
    genus2 = SpectralTriple(2, pair_poly(0.3 + 0.05j, 0.5j, -0.45 + 0.2j),
                            random_real_section(rng, 5), random_real_section(rng, 5))
    return [seed_genus0(), seed_conformal_genus0(1, 2), seed_genus1(), g1_b_linear,
            g2_b_quad, genus3, genus2]


def test_stack_of_several_curves_matches_each_curve_walked_alone(g1_b_linear, g2_b_quad):
    """One stack of the Psi paths of seven curves (genus 0 to 3), in two
    orders, gives one walk per curve, views of one stack: every path's
    nodes, eta, base and end sheet, and every integral of its own curve's
    numerators with its error, equal those of its curve's walk alone, bit
    for bit, at orders 32 and 48."""
    from whitham.spectral import PsiFrame, _psi_paths

    points = _stack_points(g1_b_linear, g2_b_quad)
    frames = [PsiFrame.build(t) for t in points]
    for order in (32, 48):
        alone = []
        for t, frame in zip(points, frames):
            (walk,) = walk_paths([frame.row.curve], [_psi_paths(frame.basis)], order)
            alone.append((per_path(walk), walk.integrate((t.b1, t.b2))))
        forward = list(range(len(points)))
        for ks in (forward, forward[::-1]):
            stack = walk_paths([frames[k].row.curve for k in ks],
                               [_psi_paths(frames[k].basis) for k in ks], order)
            assert len(stack) == len(ks)
            assert [len(w.zs) for w in stack] == [sum(len(w.zs) for w in alone[k][0]) for k in ks]
            assert all(w.zs.base is stack[0].zs.base is not None for w in stack)
            for k, walk in zip(ks, stack):
                own_walks, own_results = alone[k]
                walks, results = per_path(walk), walk.integrate((points[k].b1, points[k].b2))
                assert len(walks) == len(results) == len(own_walks)
                for w, ref in zip(walks, own_walks):
                    _assert_walks_equal(w, (ref.zs, ref.etas, ref.base, ref.end_sheet))
                for got, ref in zip(results, own_results):
                    assert [(r.value, r.error, r.end_sheet) for r in got] == [
                        (r.value, r.error, r.end_sheet) for r in ref]


def test_stack_integrates_any_number_of_numerators_per_curve(g1_b_linear, g2_b_quad):
    """One stack of seven curves, each with its own number of numerators
    (none to four): every path gets its own curve's integrals, in order,
    equal bit for bit to the per-path reference of that path's rows."""
    from oracles import reference_integrate
    from whitham.spectral import PsiFrame, _psi_paths

    points = _stack_points(g1_b_linear, g2_b_quad)
    frames = [PsiFrame.build(t) for t in points]
    rng = np.random.default_rng(25)
    numerators = [[random_real_section(rng, t.g + 3) for _ in range(k % 5)]
                  for k, t in enumerate(points)]
    stack = walk_paths([f.row.curve for f in frames], [_psi_paths(f.basis) for f in frames], 32)
    results = [r for walk, bs in zip(stack, numerators) for r in walk.integrate(bs)]
    walks = [w for walk in stack for w in per_path(walk)]
    own = [bs for f, bs in zip(frames, numerators) for _ in _psi_paths(f.basis)]
    assert len(results) == len(walks) == len(own)
    for got, walk, bs in zip(results, walks, own):
        assert [(r.value, r.error, r.end_sheet) for r in got] == reference_integrate(walk, bs, 32)
    # a curve with no paths between two others gets a walk of no rows and no
    # results, and the others' walks are as without it
    ends = [frames[0], frames[-1]]
    without = walk_paths([f.row.curve for f in ends], [_psi_paths(f.basis) for f in ends], 32)
    gap = walk_paths([ends[0].row.curve, frames[1].row.curve, ends[1].row.curve],
                     [_psi_paths(ends[0].basis), [], _psi_paths(ends[1].basis)], 32)
    assert len(gap[1].zs) == len(gap[1].paths) == 0
    assert [np.array_equal(w.etas, ref.etas) for w, ref in zip(gap[::2], without)] == [True] * 2
    assert [w.integrate(bs) for w, bs in zip(gap, [numerators[0], numerators[1], numerators[-1]])] \
        == [without[0].integrate(numerators[0]), [], without[1].integrate(numerators[-1])]


def test_stack_of_several_curves_raises_the_failing_curve_error(g1_b_linear, g2_b_quad):
    """A curve whose path passes through a branch point fails a stack of
    several curves with the class and message its own walk raises, and the
    other curves' walks, stacked without it, equal their walks alone."""
    from whitham.spectral import PsiFrame, _psi_paths

    bad = build_curve(Polynomial.from_roots([0.5, 2.0]))
    own_error = _walked(lambda: walk_paths([bad], [[FAR, THROUGH]], 32))
    assert own_error == (GeometryError, "integration path passes through a singular point")
    frames = [PsiFrame.build(t) for t in _stack_points(g1_b_linear, g2_b_quad)[:3]]
    curves = [f.row.curve for f in frames]
    paths = [_psi_paths(f.basis) for f in frames]
    for at in range(len(curves) + 1):
        stacked = _walked(lambda: walk_paths(curves[:at] + [bad] + curves[at:],
                                             paths[:at] + [[FAR, THROUGH]] + paths[at:], 32))
        assert stacked == own_error
    rest = [w for walk in walk_paths(curves, paths, 32) for w in per_path(walk)]
    own = [w for c, p in zip(curves, paths) for w in per_path(walk_paths([c], [p], 32)[0])]
    _same_outcome(rest, own)


@lru_cache(maxsize=1)
def _partition_pool(g1_b_linear, g2_b_quad):
    """(curve, paths, numerators, walk alone, moved curve, its fresh walk) of
    each curve of a pool: the curve of each seed point's frame with that
    frame's Psi paths and b1 and b2, a copy of each with P kicked by 1e-6
    (the same paths and numerators), and a curve with no paths.  A curve is
    moved by a kick of 1e-9 to P, and both walks are at order 32."""
    from whitham.spectral import PsiFrame, _psi_paths

    rng = np.random.default_rng(29)

    def kicked(cur, size):
        return build_curve(cur.P + random_real_section(rng, 2 * cur.genus + 2,
                                                        size * cur.P.norm()))

    entries = []
    for t in _stack_points(g1_b_linear, g2_b_quad)[:5]:
        frame = PsiFrame.build(t)
        paths, cur = _psi_paths(frame.basis), frame.row.curve
        entries += [(cur, paths, (t.b1, t.b2)), (kicked(cur, 1e-6), paths, (t.b1, t.b2))]
    entries.append((build_curve(Polynomial.from_roots([0.5, 2.0])), [], ()))
    pool = []
    for cur, paths, numerators in entries:
        moved = kicked(cur, 1e-9)
        pool.append((cur, paths, numerators, walk_paths([cur], [paths], 32)[0], moved,
                     walk_paths([moved], [paths], 32)[0]))
    return tuple(pool)


def _assert_same_walk(walk, alone):
    """Two walks are the same bit for bit: the panels (path indices counted
    from the walk's first path), the nodes, velocities and eta, each path's
    first row and end sheet, and, for a walk of some paths, the rows its
    subdivision probed with their verdicts."""
    assert walk.paths == alone.paths and walk.quad_order == alone.quad_order
    offset = walk.panels.path[0] if len(walk.panels) else 0
    columns = zip(walk.panels._columns(), alone.panels._columns())
    for got, want in [*columns][:-1] + [(walk.panels.path - offset, alone.panels.path)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for name in ("zs", "velocity", "etas", "first", "end_sheets"):
        got, want = getattr(walk, name), getattr(alone, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    if walk.paths:
        (rows, verdicts), (want_rows, want_verdicts) = walk._probed, alone._probed
        assert verdicts.tobytes() == want_verdicts.tobytes()
        for got, want in zip(rows._columns(), want_rows._columns()):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.permutations(range(11)), st.lists(st.booleans(), min_size=10, max_size=10))
def test_any_partition_of_curves_walks_each_curve_as_alone(g1_b_linear, g2_b_quad, order,
                                                           cuts):
    """Any partition and order of a pool of eleven curves (the seed points'
    frames, perturbed copies and a curve with no paths), each part walked
    by one ``walk_paths`` call: each curve's walk equals the walk of its
    paths alone bit for bit, integrals of b1 and b2 included, and, handed
    as ``like`` to its curve moved by 1e-9, gives that curve's fresh walk
    without subdividing."""
    import whitham.curve as curve_mod

    assert not any(isinstance(t, str) for t in (g1_b_linear, g2_b_quad))
    pool = _partition_pool(g1_b_linear, g2_b_quad)
    parts, part = [], []
    for k, cut in zip(order, [*cuts, True]):
        part.append(pool[k])
        if cut:
            parts, part = parts + [part], []
    subdivide, calls = curve_mod._subdivide, []

    def counted(*args):
        calls.append(1)
        return subdivide(*args)

    for part in parts:
        walks = walk_paths([c for c, *_ in part], [paths for _, paths, *_ in part], 32)
        assert len(walks) == len(part)
        for walk, (_, paths, numerators, alone, moved, fresh) in zip(walks, part):
            _assert_same_walk(walk, alone)
            assert [[(r.value, r.error, r.end_sheet) for r in rs]
                    for rs in walk.integrate(numerators)] == [
                [(r.value, r.error, r.end_sheet) for r in rs] for rs in alone.integrate(numerators)]
            with patch.object(curve_mod, "_subdivide", counted):
                (handed,) = walk_paths([moved], [paths], 32, like=walk)
            assert calls == []
            _assert_same_walk(handed, fresh)


# -- memory of a stack of several curves ------------------------------------------


def _transient_peak(call):
    """What ``call()`` holds at its peak beyond what was held on entry, by
    ``tracemalloc``, and what it returns; a first call, untraced, warms the
    caches."""
    import tracemalloc

    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = call()
        return tracemalloc.get_traced_memory()[1] - entry, out
    finally:
        if started:
            tracemalloc.stop()


def test_stack_temporaries_scale_with_its_largest_curve(g1_b_linear):
    """A stack of four genus-0 and genus-1 curves holds, beyond its own
    arrays, at most 1.25 times the temporaries of its largest curve walked
    alone: in ``StackWalk.integrate`` of each curve's walk in turn and in
    the eta walk of each curve in turn (``_walk_eta``, beyond the eta it
    returns), as ``walk_paths`` takes them."""
    from whitham.curve import _panel_grid, _walk_eta
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1
    from whitham.spectral import PsiFrame, _psi_paths

    assert not isinstance(g1_b_linear, str), g1_b_linear
    points = [seed_genus0(), seed_conformal_genus0(1, 2), seed_genus1(), g1_b_linear]
    frames = [PsiFrame.build(t) for t in points]
    assert len({f.row.curve.P.coeffs.tobytes() for f in frames}) == 4
    ts = _panel_grid(32)[0]

    def peaks(ks):
        curves = [frames[k].row.curve for k in ks]
        stack = walk_paths(curves, [_psi_paths(frames[k].basis) for k in ks], 32)
        numerators = [(points[k].b1, points[k].b2) for k in ks]
        integrate, _ = _transient_peak(
            lambda: [w.integrate(bs) for w, bs in zip(stack, numerators)])
        walk_eta, etas = _transient_peak(lambda: [
            _walk_eta(c.P, w.panels, ts, w.zs, w.etas[w.first, 0]) for c, w in zip(curves, stack)])
        assert [np.array_equal(e, w.etas) for e, w in zip(etas, stack)] == [True] * len(ks)
        return sum(len(w.zs) for w in stack), integrate, walk_eta - sum(e.nbytes for e in etas)

    alone = [peaks([k]) for k in range(4)]
    rows, integrate, walk_eta = peaks(range(4))
    largest = max(alone)
    assert rows == sum(r for r, _, _ in alone) > 2 * largest[0]
    assert integrate <= 1.25 * largest[1]
    assert walk_eta <= 1.25 * largest[2]
