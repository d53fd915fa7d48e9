import warnings

import numpy as np
import pytest

from whitham.curve import build_curve
from whitham.errors import RealityViolationError
from whitham.polyring import Polynomial, random_real_section
from whitham.spectral import (
    PsiFrame,
    SpectralTriple,
    conformal_type,
    d_psi,
    d_psi_norm,
    normalize,
    pack_triple,
    product_form,
    product_form_dot,
    psi,
    psi_jacobian,
    psi_walks,
    scaling_value,
    unpack_triple,
    validate,
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
    (dot,) = product_form_dot(alphas, P0, [P_dot])
    assert (dot - fd).norm() <= 1e-7 * max(1.0, fd.norm())


@pytest.mark.parametrize("alphas", PRODUCT_FORM_CASES.values(), ids=PRODUCT_FORM_CASES)
def test_product_form_dot_over_many_directions_is_bit_identical(alphas):
    """One call over several directions gives, coefficient for coefficient,
    the result of one call per direction."""
    P0 = pair_poly(*alphas)
    rng = np.random.default_rng(11)
    P_dots = [random_real_section(rng, P0.degree + P0.degree % 2) for _ in range(5)]
    many = product_form_dot(alphas, P0, P_dots)
    assert len(many) == len(P_dots)
    for P_dot, dot in zip(P_dots, many):
        (alone,) = product_form_dot(alphas, P0, [P_dot])
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
    base = lemma_g0_triple(0.5, 1.0, 1j)
    doubled = SpectralTriple(0, base.P * 2.0, base.b1, base.b2)
    out = normalize(doubled)
    assert (out.P - base.P).norm() < 1e-12
    assert (out.b1 - base.b1 / np.sqrt(2)).norm() < 1e-12
    s, _ = scaling_value(out.P)
    assert abs(s - 1.0) < 1e-12


def test_normalize_fixed_point():
    t = lemma_g0_triple(0.4 + 0.1j, 1.0, 2j)
    out = normalize(t)
    assert (out.P - t.P).norm() < 1e-10 * t.P.norm()


def test_normalize_conformal_keeps_zeta_factor():
    t = conformal_g0_triple()
    scaled = SpectralTriple(0, t.P * 3.0, t.b1, t.b2)
    out = normalize(scaled)
    assert abs(out.P.coeff(0)) < 1e-14
    assert (out.P - t.P).norm() < 1e-12
    s, _ = scaling_value(out.P)
    assert abs(s - 1.0) < 1e-12


def test_normalize_negative_scale_rejected():
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
    from whitham.deformation import TangentVector  # light reuse of the container

    t = conformal_g0_triple()
    zero = TangentVector(
        Polynomial.zero(), Polynomial.zero(), Polynomial.zero(),
        None, Polynomial.zero(), Polynomial.zero(), Polynomial.zero(), {}, ()
    )
    d = d_psi(t, zero, h=1e-5, quad_order=32)
    assert d_psi_norm(d) < 1e-9


def test_d_psi_coordinate_direction_nonzero():
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
