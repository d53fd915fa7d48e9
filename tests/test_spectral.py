import warnings
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitham.curve import build_curve
from whitham.errors import RealityViolationError
from whitham.polyring import Polynomial, random_real_section
from whitham.spectral import (
    PsiFrame,
    ScalingRow,
    SpectralTriple,
    _psi_paths,
    chart_blocks,
    conformal_type,
    pack_section,
    pack_triple,
    product_form,
    product_form_dot,
    product_form_motion,
    psi,
    psi_jacobian,
    psi_walks,
    unpack_triple,
    validate,
    validate_batch,
)


def P(*coeffs):
    return Polynomial(list(coeffs))


def pair_poly(*alphas):
    out = Polynomial.one()
    for a in alphas:
        if a == 0:
            out = out * Polynomial.zeta()
        else:
            out = out * P(-a, 1) * P(1, -np.conj(a))
    return out


def conformal_g0_triple():
    """Exact point: P = zeta, b^i = zeta * m^i with m^i0 = pi(-k_- + i k_+)/4."""
    z = Polynomial.zeta()
    m1 = np.pi / 4 * 1j
    m2 = -np.pi / 4
    b1 = z * P(m1, np.conj(m1))
    b2 = z * P(m2, np.conj(m2))
    return SpectralTriple(0, z, b1, b2)


def lemma_g0_triple(alpha, y1, y2):
    """Residue-exact genus-0 family: b = y + x y z + conj(x y) z^2 + conj(y) z^3."""
    x = -0.5 / alpha * (1 + abs(alpha) ** 2)
    def b(y):
        return P(y, x * y, np.conj(x * y), np.conj(y))
    return SpectralTriple(0, pair_poly(alpha), b(y1), b(y2))


# -- product form --------------------------------------------------------------

PRODUCT_FORM_CASES = {
    "genus0": (0.42 + 0.18j,),
    "genus1": (0.3, 0.4j),
    "genus2": (0.5, -0.45 + 0.2j, 0.25j),
    "conformal-genus0": (0.0,),
    "conformal-genus2": (0.0, 0.4 - 0.3j, -0.35 + 0.1j),
}


@pytest.mark.parametrize("alphas", PRODUCT_FORM_CASES.values(), ids=PRODUCT_FORM_CASES)
def test_product_form_matches_independent_pair_poly(alphas):
    assert np.array_equal(product_form(alphas).coeffs, pair_poly(*alphas).coeffs)


@pytest.mark.parametrize("alphas", PRODUCT_FORM_CASES.values(), ids=PRODUCT_FORM_CASES)
def test_product_form_of_curve_is_the_normalized_P(alphas):
    Pn = pair_poly(*alphas)
    for scale in (1.0, 3.7):
        cur = build_curve(Pn * scale)
        Pi = product_form(a for a, _ in cur.branch_pairs)
        assert Pi.degree == Pn.degree
        assert (Pi - Pn).norm() <= 1e-12 * Pn.norm()


@pytest.mark.parametrize("alphas", PRODUCT_FORM_CASES.values(), ids=PRODUCT_FORM_CASES)
def test_product_form_dot_follows_the_branch_points(alphas):
    """The root-motion derivative against a central difference of the
    product form of the moved curve's branch points."""
    P0 = pair_poly(*alphas)
    P_dot = random_real_section(np.random.default_rng(7), P0.degree + P0.degree % 2)
    h = 1e-6

    def moved(s):
        cur = build_curve(P0 + s * P_dot)
        return product_form(a for a, _ in cur.branch_pairs)

    fd = (moved(h) - moved(-h)) / (2 * h)
    (dot,) = product_form_dot(product_form_motion(alphas, P0), [P_dot])
    assert (dot - fd).norm() <= 1e-7 * max(1.0, fd.norm())


@pytest.mark.parametrize("alphas", PRODUCT_FORM_CASES.values(), ids=PRODUCT_FORM_CASES)
def test_product_form_dot_over_many_directions_is_bit_identical(alphas):
    """One call over several directions gives, coefficient for coefficient,
    the result of one call per direction."""
    P0 = pair_poly(*alphas)
    rng = np.random.default_rng(11)
    P_dots = [random_real_section(rng, P0.degree + P0.degree % 2) for _ in range(5)]
    many = product_form_dot(product_form_motion(alphas, P0), P_dots)
    assert len(many) == len(P_dots)
    for P_dot, dot in zip(P_dots, many):
        (alone,) = product_form_dot(product_form_motion(alphas, P0), [P_dot])
        assert np.array_equal(dot.coeffs, alone.coeffs)


# -- chart ---------------------------------------------------------------------


def test_chart_roundtrip_and_dimension():
    rng = np.random.default_rng(0)
    for g in (0, 1, 2):
        t = SpectralTriple(
            g,
            random_real_section(rng, 2 * g + 2),
            random_real_section(rng, g + 3),
            random_real_section(rng, g + 3),
        )
        x = pack_triple(t)
        assert x.size == 4 * g + 11
        back = unpack_triple(x, g)
        assert (back.P - t.P).norm() < 1e-14
        assert (back.b1 - t.b1).norm() < 1e-14
        assert (back.b2 - t.b2).norm() < 1e-14


def test_json_roundtrip():
    t = conformal_g0_triple()
    back = SpectralTriple.from_json_dict(t.to_json_dict())
    assert (back.P - t.P).norm() == 0
    assert (back.b1 - t.b1).norm() == 0


# -- normalization ---------------------------------------------------------------


def test_normalize_scales_down():
    from oracles import normalize

    base = lemma_g0_triple(0.5, 1.0, 1j)
    doubled = SpectralTriple(0, base.P * 2.0, base.b1, base.b2)
    out = normalize(doubled)
    assert (out.P - base.P).norm() < 1e-12
    assert (out.b1 - base.b1 / np.sqrt(2)).norm() < 1e-12
    s = ScalingRow.of(build_curve(out.P)).value()
    assert abs(s - 1.0) < 1e-12


def test_normalize_fixed_point():
    from oracles import normalize

    t = lemma_g0_triple(0.4 + 0.1j, 1.0, 2j)
    out = normalize(t)
    assert (out.P - t.P).norm() < 1e-10 * t.P.norm()


def test_normalize_conformal_keeps_zeta_factor():
    from oracles import normalize

    t = conformal_g0_triple()
    scaled = SpectralTriple(0, t.P * 3.0, t.b1, t.b2)
    out = normalize(scaled)
    assert abs(out.P.coeff(0)) < 1e-14
    assert (out.P - t.P).norm() < 1e-12
    s = ScalingRow.of(build_curve(out.P)).value()
    assert abs(s - 1.0) < 1e-12


def test_normalize_negative_scale_rejected():
    from oracles import normalize

    t = lemma_g0_triple(0.5, 1.0, 1j)
    flipped = SpectralTriple(0, t.P * (-1.0), t.b1, t.b2)
    with pytest.raises(RealityViolationError):
        normalize(flipped)


# -- psi ---------------------------------------------------------------------------


def test_psi_structure_genus0():
    t = conformal_g0_triple()
    vec = psi(t, quad_order=48)
    assert len(vec.periods) == 0
    assert len(vec.closings) == 4
    assert len(vec.residues) == 2
    assert vec.flatten().size == 8 * t.g + 14


def test_psi_exact_conformal_point_on_lattice():
    vec = psi(conformal_g0_triple(), quad_order=48)
    assert max(vec.lattice_residuals()) < 1e-10
    ints = [abs(m) for m in vec.lattice_integers()]
    assert sorted(ints) == [0, 0, 1, 1]
    assert abs(vec.scaling - 1.0) < 1e-14
    assert max(abs(r) for r in vec.residues) < 1e-14


def test_psi_scale_invariance_except_scaling():
    t = lemma_g0_triple(0.45, 1.2 + 0.3j, -0.7j)
    lam = 1.3
    scaled = SpectralTriple(0, t.P * lam**2, t.b1 * lam, t.b2 * lam)
    frame = PsiFrame.build(t, quad_order=48)
    v0 = psi(t, frame=frame)
    v1 = psi(scaled, frame=frame)
    for a, b in zip(v0.closings, v1.closings):
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))
    assert abs(v1.scaling - v0.scaling / lam**2) < 1e-12


def test_d_psi_zero_direction():
    from oracles import d_psi, d_psi_norm
    from whitham.deformation import TangentVector  # light reuse of the container

    t = conformal_g0_triple()
    zero = TangentVector(
        Polynomial.zero(), Polynomial.zero(), Polynomial.zero(),
        None, Polynomial.zero(), Polynomial.zero(), Polynomial.zero(), {}, ()
    )
    d = d_psi(t, zero, h=1e-5, quad_order=32)
    assert d_psi_norm(d) < 1e-9


def test_d_psi_coordinate_direction_nonzero():
    from oracles import d_psi, d_psi_norm
    from whitham.deformation import TangentVector

    t = lemma_g0_triple(0.45, 1.2 + 0.3j, -0.7j)
    v = TangentVector(
        Polynomial.zero(),
        Polynomial([0.1, 0, 0, 0.1]),
        Polynomial.zero(),
        None, Polynomial.zero(), Polynomial.zero(), Polynomial.zero(), {}, ()
    )
    d = d_psi(t, v, h=1e-5, quad_order=48)
    assert d_psi_norm(d) > 1e-4


# -- validation ---------------------------------------------------------------------


@pytest.mark.parametrize("s", [1.0, 1e150, 1e300])
def test_real_section_check_fails_a_non_real_P_at_every_scale(g0_triple, s):
    """P = s + 2s zeta^2 is not a real section at any scale; the defect is
    measured against a norm that stays finite, so P1 fails at s = 1e300 as
    at s = 1, without an overflow warning."""
    t = SpectralTriple(0, P(s, 0.0, 2.0 * s), g0_triple.b1, g0_triple.b2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (check,) = [c for c in validate(t).checks if c.name == "P1_real_sections"]
    assert not check.passed
    assert check.residual == pytest.approx(1.0 / np.sqrt(5.0))


def test_validate_exact_conformal_point_passes():
    rep = validate(conformal_g0_triple(), quad_order=48)
    assert rep.verdict, rep.failed()


def test_validate_circle_root_fails_P2():
    rng = np.random.default_rng(4)
    bad = SpectralTriple(
        1,
        pair_poly(0.5) * P(-1j, 1),  # simple root at zeta = i, weight 4
        random_real_section(rng, 4),
        random_real_section(rng, 4),
    )
    rep = validate(bad)
    assert not rep.verdict
    assert not rep.check("P2_no_circle_roots").passed


def test_validate_equal_differentials_fail_P8():
    t = conformal_g0_triple()
    twin = SpectralTriple(0, t.P, t.b1, t.b1)
    rep = validate(twin, quad_order=48)
    assert not rep.check("P8_independence").passed


def test_validate_reports_residue_failure():
    t = conformal_g0_triple()
    bad_b = t.b1 + P(0.1)  # nonzero b_0 over a conformal curve
    rep = validate(SpectralTriple(0, t.P, bad_b, t.b2), quad_order=32)
    assert not rep.check("P4_residue_T1").passed


def test_conformal_type():
    t = conformal_g0_triple()
    tau = conformal_type(t)  # b2_1 / b1_1 = (-pi/4) / (pi i/4) = 1j
    assert abs(tau - 1j) < 1e-12
    nt = lemma_g0_triple(0.5, 1.0, 2.0)
    assert abs(conformal_type(nt) - 2.0) < 1e-12


def test_basis_independence_lattice(g1_triple):
    # the basis realization is a choice: re-routed cycles shift each value
    # by a lattice element only, so nearest-lattice residuals stay small
    frame_a = PsiFrame.build(g1_triple, quad_order=40)
    frame_b = PsiFrame.build(g1_triple, quad_order=40, jitter=1.0)
    va = psi(g1_triple, frame=frame_a)
    vb = psi(g1_triple, frame=frame_b)
    assert max(va.lattice_residuals()) < 1e-9
    assert max(vb.lattice_residuals()) < 1e-9


def test_genus1_point_on_lattice(g1_triple):
    vec = psi(g1_triple, quad_order=48)
    assert max(vec.lattice_residuals()) < 1e-9
    assert abs(vec.scaling - 1.0) < 1e-10
    assert validate(g1_triple, quad_order=48).verdict


@pytest.mark.parametrize(
    "point", ["g0_triple", "g0_conformal", "g1_triple", "g1_b_linear", "g2_b_quad"]
)
def test_exact_jacobian_matches_finite_differences(point, request):
    """``psi_walks``' Jacobian against the finite-difference oracle
    ``psi_jacobian`` in the same order-48 frame: the residual half is psi's
    own flattening, and J agrees to the truncation error of h = 1e-7."""
    t = request.getfixturevalue(point)
    assert not isinstance(t, str), t
    frame = PsiFrame.build(t, quad_order=48)
    vec = psi(t, frame=frame)
    ints = vec.lattice_integers()
    walks = psi_walks(t, frame)
    r, J = walks.vector.flatten(ints), walks.jacobian()
    assert np.abs(r - vec.flatten(ints)).max() <= 1e-13
    J_fd = psi_jacobian(t, frame=frame, h=1e-7)
    assert J.shape == J_fd.shape == (r.size, 4 * t.g + 11)
    assert np.abs(J - J_fd).max() <= 1e-8 * np.abs(J_fd).max()


def test_validate_roots_P_once(g1_triple, monkeypatch):
    """``validate`` takes its circle and separation margins, its curve, its
    frame and Psi from one root-finding of P."""
    import sys

    import whitham.polyring as polyring

    calls = []
    roots = polyring.roots

    def counted(*args, **kwargs):
        calls.append(args[0])
        return roots(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("whitham") and getattr(mod, "roots", None) is roots:
            monkeypatch.setattr(mod, "roots", counted)
    assert validate(g1_triple).verdict
    assert len(calls) == 1


def _batch_triples(g1_b_linear, g2_b_quad):
    """Admissible, perturbed, conformal, genus-2 and genus-3 triples, a
    triple with a root of P on the unit circle and one whose P has no
    roots."""
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1

    seeds, synthetic = _grid_points(g1_b_linear, g2_b_quad)
    rng = np.random.default_rng(21)
    g0 = seed_genus0()
    kicked = SpectralTriple(0, g0.P, g0.b1 + random_real_section(rng, 3, 1e-4), g0.b2)
    circle = SpectralTriple(1, P(-1j, 1) * pair_poly(0.5), random_real_section(rng, 4),
                            random_real_section(rng, 4))
    rootless = SpectralTriple(1, P(1.0), random_real_section(rng, 4), random_real_section(rng, 4))
    return [seeds[0], kicked, seed_conformal_genus0(1, 2), circle, *synthetic, seed_genus1(),
            rootless, *seeds[3:]]


def _case_c():
    """Genus 2 with a real quadratic F shared by P, b1 and b2: one of its
    paths needs more panels and splits (105) than any path of
    ``_batch_triples`` (at most 72)."""
    rng = np.random.default_rng(2019)
    F = product_form([0.35 + 0.1j])
    c1, c2 = random_real_section(rng, 3), random_real_section(rng, 3)
    return SpectralTriple(2, F * product_form([0.5, -0.4]), F * c1, F * c2)


@pytest.mark.parametrize("budget", [0, None, 10**6])
def test_validate_batch_equals_validate_of_each_triple(budget, g1_b_linear, g2_b_quad,
                                                       monkeypatch):
    """``validate_batch`` gives each triple the report ``validate`` gives it
    alone, whether each frame is its own stack (budget 0), stacks hold a
    few frames (the default ``STACK_SEGMENTS``) or all frames form one
    stack; the default walks fewer stacks than frames, and each stack walks
    each of its distinct curves once."""
    import whitham.spectral as spectral

    triples = _batch_triples(g1_b_linear, g2_b_quad)
    alone = [validate(t).to_json_dict() for t in triples]
    if budget is not None:
        monkeypatch.setattr(spectral, "STACK_SEGMENTS", budget)
    walks, walk_paths = [], spectral.walk_paths

    def counted(curves, paths, *args, **kwargs):
        assert len({c.P.coeffs.tobytes() for c in curves}) == len(curves)
        walks.append(len(curves))
        return walk_paths(curves, paths, *args, **kwargs)

    monkeypatch.setattr(spectral, "walk_paths", counted)
    assert [r.to_json_dict() for r in validate_batch(triples)] == alone
    framed = len(triples) - 2  # the circle-root and rootless triples have no frame
    # the perturbed copy shares the curve of the point before it, and so its
    # walk, unless budget 0 gives it a stack of its own
    curves = framed if budget == 0 else framed - 1
    assert sum(walks) == curves
    if budget == 0:
        assert len(walks) == framed
    else:
        assert len(walks) < framed
    if budget == 10**6:
        assert walks == [curves]


def test_a_stack_that_raises_is_walked_frame_by_frame(g1_b_linear, g2_b_quad, monkeypatch):
    """With ``MAX_SEGMENTS`` at 100, the case-(c) triple's walk raises; the
    one stack of all frames that holds it raises too and is recovered, so
    that triple's report carries its own walk error and every report equals
    the one ``validate`` gives alone."""
    import whitham.curve as curve_mod
    import whitham.spectral as spectral

    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 100)
    monkeypatch.setattr(spectral, "STACK_SEGMENTS", 10**6)
    triples = _batch_triples(g1_b_linear, g2_b_quad)
    triples.insert(3, _case_c())
    alone = [validate(t).to_json_dict() for t in triples]
    failed = [
        [c["error"] for c in report["checks"] if c["name"] == "P6_P7_integrals"]
        for report in alone
    ]
    assert failed[3] == ["segment subdivision did not terminate near a singularity"]
    assert not any(failed[:3] + failed[4:])
    assert [r.to_json_dict() for r in validate_batch(triples)] == alone


def test_triples_on_a_curve_that_raises_get_its_error(g1_b_linear, g2_b_quad, monkeypatch):
    """With ``MAX_SEGMENTS`` at 100, two triples on the case-(c) P share a
    curve whose walk raises; the one stack of all frames is recovered, both
    triples get the walk error each gets alone, and every other report
    equals the one ``validate`` gives alone."""
    import whitham.curve as curve_mod
    import whitham.spectral as spectral

    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 100)
    monkeypatch.setattr(spectral, "STACK_SEGMENTS", 10**6)
    triples = _batch_triples(g1_b_linear, g2_b_quad)
    case_c = _case_c()
    kick = random_real_section(np.random.default_rng(25), 5, 1e-4)
    triples.insert(3, case_c)
    triples.insert(7, SpectralTriple(2, case_c.P, case_c.b1 + kick, case_c.b2))
    alone = [validate(t).to_json_dict() for t in triples]
    failed = [
        [c["error"] for c in report["checks"] if c["name"] == "P6_P7_integrals"]
        for report in alone
    ]
    error = ["segment subdivision did not terminate near a singularity"]
    assert failed[3] == failed[7] == error
    assert not any(failed[:3] + failed[4:7] + failed[8:])
    assert [r.to_json_dict() for r in validate_batch(triples)] == alone


def test_a_failing_stack_walks_each_path_alone_at_most_once(g1_b_linear, g2_b_quad,
                                                           monkeypatch):
    """With ``MAX_SEGMENTS`` at 100, a stack of every frame of the batch
    triples and the case-(c) triple raises, and is recovered by one walk of
    each path alone, up to its curve's first failure, and one more walk of
    the curves without an error: ``walk_paths`` runs at most 1 + (paths) +
    1 times, no path is subdivided alone twice, and every report equals
    the one ``validate`` gives alone."""
    import whitham.curve as curve_mod
    import whitham.spectral as spectral

    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 100)
    monkeypatch.setattr(spectral, "STACK_SEGMENTS", 10**6)
    triples = _batch_triples(g1_b_linear, g2_b_quad)
    triples.insert(3, _case_c())
    alone = [validate(t).to_json_dict() for t in triples]
    walks, lone, walk_paths, subdivide = [], [], spectral.walk_paths, curve_mod._subdivide

    def counted_walk(curves, paths, *args, **kwargs):
        walks.append(sum(map(len, paths)))
        return walk_paths(curves, paths, *args, **kwargs)

    def counted_subdivide(segments, *args):
        if len(segments) == 1:
            lone.append(segments[0])  # held, so that no two ids coincide
        return subdivide(segments, *args)

    monkeypatch.setattr(spectral, "walk_paths", counted_walk)
    monkeypatch.setattr(curve_mod, "_subdivide", counted_subdivide)
    assert [r.to_json_dict() for r in validate_batch(triples)] == alone
    assert len(walks) > 2 and lone
    assert len(walks) <= 1 + walks[0] + 1
    assert len({id(segments) for segments in lone}) == len(lone)


@pytest.mark.parametrize("budget", [None, 10**6])
def test_triples_on_one_curve_share_its_roots_frame_and_walk(budget, monkeypatch):
    """Triples with one P (admissible points and their perturbed copies, two
    conformal genus-0 points with P = zeta, three genus-2 triples, and a
    pair with another curve between them) get the reports ``validate``
    gives each alone, while each stack, at the default ``STACK_SEGMENTS``
    or as one stack of all, roots each distinct P once, builds one frame
    per distinct curve and hands each distinct curve to ``walk_paths``
    once."""
    import whitham.spectral as spectral
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1

    rng = np.random.default_rng(25)

    def kicked(t):
        return SpectralTriple(t.g, t.P, t.b1 + random_real_section(rng, t.g + 3, 1e-4), t.b2)

    g0, g1 = seed_genus0(), seed_genus1()
    P2 = product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j])
    genus2 = [SpectralTriple(2, P2, random_real_section(rng, 5), random_real_section(rng, 5))
              for _ in range(3)]
    triples = [g0, kicked(g0), seed_conformal_genus0(1, 2), g1, *genus2[:2],
               seed_conformal_genus0(3, 1), kicked(g1), genus2[2]]
    alone = [validate(t).to_json_dict() for t in triples]
    if budget is not None:
        monkeypatch.setattr(spectral, "STACK_SEGMENTS", budget)

    # each call in order: ("start", triple), ("stack", its triples), or the
    # kind and the P's of a call of roots, PsiFrame.build or walk_paths
    events = []

    def logged(kind, stage, what):
        def wrapped(*args, **kwargs):
            events.append((kind, what(*args)))
            return stage(*args, **kwargs)

        return wrapped

    def key(P):
        return P.coeffs.tobytes()

    monkeypatch.setattr(spectral, "_start", logged("start", spectral._start, lambda t, *_: t))
    monkeypatch.setattr(spectral, "_graded", logged(
        "stack", spectral._graded, lambda stack, _: [g.triple for g in stack]))
    monkeypatch.setattr(spectral, "roots", logged("roots", spectral.roots, lambda P: [key(P)]))
    monkeypatch.setattr(spectral.PsiFrame, "build", staticmethod(logged(
        "build", spectral.PsiFrame.build, lambda t: [key(t.P)])))
    monkeypatch.setattr(spectral, "walk_paths", logged(
        "walk", spectral.walk_paths, lambda curves, *_: [key(c.P) for c in curves]))
    assert [r.to_json_dict() for r in validate_batch(triples)] == alone

    # a triple's roots and frame are found in its ``_start``; a stack is
    # walked in its ``_graded``, after the next triple's ``_start``
    calls, stacks, owner = {}, [], None
    for kind, what in events:
        if kind == "start":
            owner = calls.setdefault(id(what), {"roots": [], "build": []})
        elif kind == "stack":
            stacks.append((what, []))
        elif kind == "walk":
            stacks[-1][1].extend(what)
        else:
            owner[kind].extend(what)
    assert sum(len(stack) for stack, _ in stacks) == len(triples)
    for stack, walked in stacks:
        curves = sorted({key(t.P) for t in stack})
        assert sorted(walked) == curves
        for kind in ("roots", "build"):
            assert sorted(k for t in stack for k in calls[id(t)][kind]) == curves
    assert any(len(stack) > len({key(t.P) for t in stack}) for stack, _ in stacks)
    if budget == 10**6:
        assert len(stacks) == 1


@lru_cache(maxsize=1)
def _batch_pool():
    """A fixed pool of triples and the report ``validate`` gives each alone
    with ``MAX_SEGMENTS`` at 100: the genus-0 and genus-1 seeds with
    perturbed copies (equal P), two conformal genus-0 points (both
    P = zeta), two genus-2 triples on one P, a triple with a root of P on
    the unit circle and the case-(c) triple, whose walk raises."""
    import whitham.curve as curve_mod
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1

    rng = np.random.default_rng(26)

    def kicked(t):
        return SpectralTriple(t.g, t.P, t.b1 + random_real_section(rng, t.g + 3, 1e-4), t.b2)

    g0, g1 = seed_genus0(), seed_genus1()
    P2 = product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j])
    genus2 = [SpectralTriple(2, P2, random_real_section(rng, 5), random_real_section(rng, 5))
              for _ in range(2)]
    circle = SpectralTriple(1, P(-1j, 1) * pair_poly(0.5), random_real_section(rng, 4),
                            random_real_section(rng, 4))
    pool = (g0, kicked(g0), seed_conformal_genus0(1, 2), seed_conformal_genus0(3, 1), g1,
            kicked(g1), *genus2, circle, _case_c())
    with patch.object(curve_mod, "MAX_SEGMENTS", 100):
        return pool, tuple(validate(t).to_json_dict() for t in pool)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
# the pool's five curves total 86 segments: budgets up to 90 split it into
# stacks, and larger ones make one stack
@given(st.one_of(st.integers(0, 90), st.integers(0, 10**6)), st.permutations(range(10)))
def test_validate_batch_at_any_budget_and_order_equals_validate(budget, order):
    """For any stack budget and any order of a fixed pool of triples, one of
    whose walks raises, ``validate_batch`` gives each triple the report
    ``validate`` gives it alone."""
    import whitham.curve as curve_mod
    import whitham.spectral as spectral

    pool, alone = _batch_pool()
    assert len(pool) == len(order)
    with patch.object(spectral, "STACK_SEGMENTS", budget), \
            patch.object(curve_mod, "MAX_SEGMENTS", 100):
        reports = [r.to_json_dict() for r in validate_batch([pool[k] for k in order])]
    assert reports == [alone[k] for k in order]


def test_validate_batch_takes_a_stack_at_a_time(g1_b_linear, g2_b_quad, monkeypatch):
    """``validate_batch`` takes its triples only as far as the stack being
    filled and yields that stack's reports before it takes more: with the
    default budget its first report comes before its last triple is taken,
    and with a budget of 0 (a stack per frame) it never holds more than a
    frame, the frameless triples after it and the next triple.  An
    exception in place of a triple is passed on as its result, in order."""
    import whitham.spectral as spectral

    triples = _batch_triples(g1_b_linear, g2_b_quad)
    unreadable = ValueError("not a triple")
    items = [*triples[:2], unreadable, *triples[2:]]
    alone = [validate(t).to_json_dict() for t in triples]

    def held_by(batch):
        """How many items the batch had taken but not yet yielded as it
        yielded each result."""
        taken, held, results = [], [], []

        def feed():
            for item in items:
                taken.append(item)
                yield item

        for result in batch(feed()):
            held.append(len(taken) - len(results))
            results.append(result)
        assert results[2] is unreadable
        assert [r.to_json_dict() for r in results[:2] + results[3:]] == alone
        return held

    assert held_by(validate_batch)[0] < len(items)
    monkeypatch.setattr(spectral, "STACK_SEGMENTS", 0)
    assert max(held_by(validate_batch)) <= 3


# -- Psi on a handed-on quadrature grid ------------------------------------------


def _evaluated(make):
    """The ``PsiWalks`` that ``make()`` returns, or the class and message of
    the ``WhithamError`` it raises."""
    from whitham.errors import WhithamError

    try:
        return make()
    except WhithamError as exc:
        return type(exc), str(exc)


def _assert_same_evaluation(a, b):
    """Two Psi evaluations are the same bit for bit: the nodes, eta, base and
    end sheet of each of their own paths' walks, the Psi vector, its
    integration error and the exact Jacobian (or the same error raised)."""
    if isinstance(b, tuple):
        assert a == b
        return
    from oracles import per_path

    walks_a, walks_b = per_path(a.walks), per_path(b.walks)
    assert len(walks_a) == len(walks_b)
    for wa, wb in zip(walks_a, walks_b):
        for name in ("zs", "etas", "base"):
            assert np.array_equal(getattr(wa, name), getattr(wb, name)), name
        assert wa.end_sheet == wb.end_sheet
    assert np.array_equal(a.vector.flatten(), b.vector.flatten())
    assert a.vector.integration_error == b.vector.integration_error
    assert np.array_equal(a.jacobian(), b.jacobian())


def _grid_points(g1_b_linear, g2_b_quad):
    """The five seed points and a genus-2 and a genus-3 point (branch points
    of the bench corpus, seeded numerators)."""
    from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1

    seeds = [seed_genus0(), seed_conformal_genus0(), seed_genus1(), g1_b_linear, g2_b_quad]
    assert not any(isinstance(t, str) for t in seeds), seeds
    rng = np.random.default_rng(7)
    alphas = [0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j]
    synthetic = [
        SpectralTriple(g, product_form(alphas[: g + 1]), random_real_section(rng, g + 3),
                       random_real_section(rng, g + 3))
        for g in (2, 3)
    ]
    return seeds, synthetic


def test_psi_stack_gives_each_triple_its_evaluation_alone(g1_b_linear, g2_b_quad,
                                                          monkeypatch):
    """``psi_stack`` of the five seed points, a genus-2 and a genus-3 point,
    a perturbed copy of a seed in its frame (same P: one walk of their
    curve) and another seed's P scaled by 1 + 1e-9 in that seed's frame (a
    curve of its own) walks one stack (one ``walk_paths`` call), and gives
    each triple the evaluation ``psi_walks`` gives it alone, bit for bit:
    its own paths' walks, the Psi vector and the exact Jacobian."""
    import whitham.spectral as spectral
    from whitham.spectral import psi_stack

    seeds, synthetic = _grid_points(g1_b_linear, g2_b_quad)
    pairs = [(t, PsiFrame.build(t)) for t in seeds + synthetic]
    t, frame = pairs[2]
    kick = random_real_section(np.random.default_rng(27), t.g + 3, 1e-4)
    pairs.insert(1, (SpectralTriple(t.g, t.P, t.b1 + kick, t.b2), frame))
    t, frame = pairs[0]
    pairs.append((SpectralTriple(t.g, t.P * (1 + 1e-9), t.b1, t.b2), frame))
    walked, walk_paths = [], spectral.walk_paths

    def counted(curves, paths, *args, **kwargs):
        walked.append(sum(map(len, paths)))
        return walk_paths(curves, paths, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "walk_paths", counted)
        stacked = psi_stack(pairs)
    curves = {(id(f), t.P.coeffs.tobytes()): len(_psi_paths(f.basis)) for t, f in pairs}
    assert len(curves) == len(pairs) - 1
    assert walked == [sum(curves.values())]
    assert len({id(e.walks) for e in stacked}) == len(curves)
    assert stacked[1].walks is stacked[3].walks  # the seed and its perturbed copy
    for (t, frame), evaluation in zip(pairs, stacked):
        _assert_same_evaluation(evaluation, psi_walks(t, frame))


def _counted_subdivide(monkeypatch):
    import whitham.curve as curve_mod

    calls = []
    original = curve_mod._subdivide

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(curve_mod, "_subdivide", counted)
    return calls


def test_walk_on_a_handed_on_grid_equals_a_fresh_walk(g1_b_linear, g2_b_quad, monkeypatch):
    """Psi at a triple moved by 1e-12 to 1e-2 (along random directions, and
    along a tangent vector at the seeds) in the frame of the unmoved
    triple, handed the unmoved triple's walks, equals the fresh evaluation
    bit for bit, whether or not it takes the grid over; the smallest moves
    take it over without subdividing."""
    from whitham.deformation import tangent_basis
    from whitham.flow import _tangent_pack

    calls = _counted_subdivide(monkeypatch)
    seeds, synthetic = _grid_points(g1_b_linear, g2_b_quad)
    rng = np.random.default_rng(18)
    taken_over = 0
    for t in seeds + synthetic:
        frame = PsiFrame.build(t)
        x = pack_triple(t)
        earlier = psi_walks(unpack_triple(x, t.g), frame)
        directions = [d / np.linalg.norm(d) for d in rng.standard_normal((2, x.size))]
        if t in seeds:
            tangent = _tangent_pack(tangent_basis(t)[0][0], t.g)
            directions.append(tangent / np.linalg.norm(tangent))
        for d in directions:
            for h in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2):
                moved = unpack_triple(x + h * d, t.g)
                fresh = _evaluated(lambda: psi_walks(moved, frame))
                del calls[:]
                handed = _evaluated(lambda: psi_walks(moved, frame, like=earlier))
                _assert_same_evaluation(handed, fresh)
                if h == 1e-12:
                    assert calls == []
                taken_over += not calls
    assert taken_over > 3 * len(seeds + synthetic)


def _flipped(walks, triple):
    """How many rows probed for the grid of ``walks`` change their verdict
    against the singular set of ``triple``'s curve."""
    from whitham.curve import _padded_sets

    rows, verdicts = walks.walks._probed
    close, _ = rows.too_close(_padded_sets([build_curve(triple.P)], [len(walks.walks.paths)]))
    return int(np.count_nonzero(close != verdicts))


def _first_flip(walks, moved):
    """(lo, hi): steps just short of and just past the first move
    ``moved(h)`` that flips a verdict of the grid of ``walks``, bisected on
    a log scale between 1e-12 and 1e-2."""
    lo, hi = 1e-12, 1e-2
    assert _flipped(walks, moved(lo)) == 0 < _flipped(walks, moved(hi))
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        lo, hi = (mid, hi) if _flipped(walks, moved(mid)) == 0 else (lo, mid)
    return lo, hi


def test_a_flipped_verdict_falls_back_to_subdividing(g1_triple, monkeypatch):
    """A move of the genus-1 seed just large enough to flip a recorded
    verdict re-subdivides the paths (one ``_subdivide`` call) and still
    equals a fresh evaluation; a move just short of it takes the grid
    over.  (A row and its reverse on a B-cycle's corridor flip
    together.)"""
    calls = _counted_subdivide(monkeypatch)
    frame = PsiFrame.build(g1_triple)
    x = pack_triple(g1_triple)
    earlier = psi_walks(g1_triple, frame)
    d = np.random.default_rng(1).standard_normal(x.size)
    d /= np.linalg.norm(d)

    def moved(h):
        return unpack_triple(x + h * d, 1)

    lo, hi = _first_flip(earlier, moved)
    assert 0 < _flipped(earlier, moved(hi)) <= 2
    for h, subdivided in ((lo, []), (hi, [1])):
        fresh = psi_walks(moved(h), frame)
        del calls[:]
        handed = psi_walks(moved(h), frame, like=earlier)
        assert calls == subdivided
        _assert_same_evaluation(handed, fresh)


def test_a_stack_member_hands_its_grid_on(g0_triple, g1_triple, monkeypatch):
    """Each member of one ``psi_stack`` of the genus-0 and genus-1 seeds,
    handed to ``psi_walks`` at its triple moved by 1e-9, takes its grid over
    without subdividing; a move of the genus-1 triple that flips one of its
    member's verdicts subdivides afresh.  Either way the vector, the
    Jacobian and the walk rows equal a fresh evaluation bit for bit.  The
    members' walks are views of one stack, subdivided once, and the rows
    each hands on are those of its walk alone, built once and kept."""
    from whitham.spectral import psi_stack

    calls = _counted_subdivide(monkeypatch)
    pairs = [(t, PsiFrame.build(t)) for t in (g0_triple, g1_triple)]
    members = psi_stack(pairs)
    assert calls == [1]
    assert members[0].walks.zs.base is members[1].walks.zs.base is not None
    d = np.random.default_rng(1).standard_normal(pack_triple(g1_triple).size)
    d /= np.linalg.norm(d)
    for (t, frame), member in zip(pairs, members):
        x = pack_triple(t)

        def moved(h):
            return unpack_triple(x + h * d[: x.size], t.g)

        alone = psi_walks(t, frame).walks
        assert member.walks._probed is member.walks._probed
        (rows, verdicts), (want_rows, want_verdicts) = member.walks._probed, alone._probed
        assert np.array_equal(verdicts, want_verdicts)
        for got, want in zip(rows._columns(), want_rows._columns()):
            assert got.tobytes() == want.tobytes()
        moves = [(1e-9, [])]
        if t.g == 1:
            moves.append((_first_flip(member, moved)[1], [1]))
        for h, subdivided in moves:
            fresh = psi_walks(moved(h), frame)
            del calls[:]
            handed = psi_walks(moved(h), frame, like=member)
            assert calls == subdivided
            _assert_same_evaluation(handed, fresh)


def test_exact_jacobian_equals_the_per_path_moment_loop(g1_b_linear, g2_b_quad):
    """The lattice rows of the exact Jacobian, whose moment loop runs over
    each path's rows of the stacked walk, equal the loop over each path's
    own arrays bit for bit: at the five seeds and at genus 2 and 3, at
    orders 32 and 48, fresh and at P scaled by 1 + 1e-9 in the same frame,
    handed the fresh evaluation's grid."""
    from oracles import reference_lattice_jacobian

    seeds, synthetic = _grid_points(g1_b_linear, g2_b_quad)
    for t in seeds + synthetic:
        scaled = SpectralTriple(t.g, t.P * (1 + 1e-9), t.b1, t.b2)
        for order in (32, 48):
            frame = PsiFrame.build(t, quad_order=order)
            fresh = psi_walks(t, frame)
            for evaluation in (fresh, psi_walks(scaled, frame, like=fresh)):
                ref = reference_lattice_jacobian(evaluation)
                assert np.array_equal(evaluation.jacobian()[: len(ref)], ref)


def test_psi_layout_matches_the_per_component_formulas(g1_b_linear, g2_b_quad):
    """``flatten`` (at the nearest integers and at shifted ones),
    ``lattice_integers`` and ``lattice_residuals`` equal the per-component
    formulas they replaced bit for bit, at the five seeds and
    at genus 2 and 3; ``pack_triple`` lays the sections out as
    ``chart_blocks`` says; and the Jacobian rows of b1's lattice components
    have zero b2-columns, those of b2's zero b1-columns."""
    from oracles import (
        reference_flatten,
        reference_lattice_integers,
        reference_lattice_residuals,
    )

    seeds, synthetic = _grid_points(g1_b_linear, g2_b_quad)
    for t in seeds + synthetic:
        evaluation = psi_walks(t, PsiFrame.build(t))
        vec = evaluation.vector
        ints = vec.lattice_integers()
        assert ints == reference_lattice_integers(vec)
        assert vec.lattice_residuals() == reference_lattice_residuals(vec)
        shifted = tuple(m + k % 3 - 1 for k, m in enumerate(ints))
        for integers in (None, shifted):
            assert vec.flatten(integers).tobytes() == reference_flatten(vec, integers).tobytes()
        blocks = chart_blocks(t.g)
        x = pack_triple(t)
        for p, (k, cols) in zip((t.P, t.b1, t.b2), blocks):
            assert x[cols].tobytes() == pack_section(p, k).tobytes()
        assert x.size == blocks[-1][1].stop == 4 * t.g + 11
        J = evaluation.jacobian()
        b_cols = {"T1": blocks[2][1], "T2": blocks[1][1]}  # the other differential's
        for k, label in enumerate(vec.labels):
            other = b_cols.get(label.split(".")[0])
            if other is not None:
                assert not J[2 * k : 2 * k + 2, other].any(), label


def test_a_grid_of_another_frame_is_refused(g0_triple):
    """Walks of other paths, or of the same paths at another order, cannot
    hand their grid on."""
    from dataclasses import replace

    frame = PsiFrame.build(g0_triple)
    walks = psi_walks(g0_triple, frame)
    jittered = PsiFrame.build(g0_triple, jitter=1.0)
    assert _psi_paths(jittered.basis) != _psi_paths(frame.basis)
    for other in (jittered, replace(frame, quad_order=48)):
        with pytest.raises(ValueError, match="other paths"):
            psi_walks(g0_triple, other, like=walks)
