import numpy as np
import pytest

from whitham.bezout import RootSpec
from whitham.curve import build_curve, residue_condition
from whitham.deformation import (
    CaseAParams,
    CaseBLinearParams,
    CaseEParams,
    TangentVector,
    _r_last_coefficients,
    _real_tower,
    _residue_tangent_residual,
    _scaling_shift,
    build_tower,
    classify,
    conformal_type_rate,
    empdi_operator_matrix,
    make_tangent,
    r_kernel,
    r_value,
    recover_chat,
    solve_empdi,
    solve_q_equation,
    tangent_basis,
)
from whitham.errors import DegenerateKernelError, NotDeformableError
from whitham.flow import FlowConfig, seed_genus0, seed_genus1, trace
from whitham.polyring import Polynomial, random_real_section, roots_flat
from whitham.spectral import SpectralTriple, pack_triple, product_form, unpack_triple

from oracles import reference_empdi_residual, reference_scaling_shift

RNG = np.random.default_rng(20260808)


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


def random_case_a_triple(rng, g=1):
    """Case-(a)-shaped data: the algebra of the construction works on any
    such triple; only the residue-derivative condition needs true
    moduli-set membership."""
    while True:
        t = SpectralTriple(
            g,
            pair_poly(*(0.3 + 0.4 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1)))),
            random_real_section(rng, g + 3),
            random_real_section(rng, g + 3),
        )
        lab = classify(t)
        if lab.label == "a":
            return t


def conformal_g0_triple():
    z = Polynomial.zeta()
    m1, m2 = np.pi / 4 * 1j, -np.pi / 4
    return SpectralTriple(0, z, z * P(m1, np.conj(m1)), z * P(m2, np.conj(m2)))


# -- classification ------------------------------------------------------------


def test_classify_case_a():
    t = random_case_a_triple(np.random.default_rng(0))
    assert classify(t).label == "a"
    assert classify(t).deformable


def test_classify_case_b_linear():
    g = 1
    rng = np.random.default_rng(1)
    G = P(-1j, 1)  # root at i, on the unit circle
    t = SpectralTriple(
        g, pair_poly(0.3, -0.4), G * random_real_section(rng, g + 2) * 1j,
        G * random_real_section(rng, g + 2) * 1j,
    )
    lab = classify(t)
    assert lab.label == "b"
    assert lab.factors.G.degree == 1


def test_classify_case_c_and_indicator():
    g = 2
    rng = np.random.default_rng(3)
    F = pair_poly(0.35 + 0.1j)
    t = SpectralTriple(
        g,
        F * pair_poly(0.5, -0.4),
        F * random_real_section(rng, g + 1),
        F * random_real_section(rng, g + 1),
    )
    lab = classify(t)
    assert lab.label == "c"
    ind = r_value(_real_tower(t, lab), Polynomial.one())
    assert np.isfinite(ind.real) and abs(ind) > 0
    with pytest.raises(NotDeformableError) as err:
        tangent_basis(t)
    assert err.value.case == "c"
    assert err.value.indicator is not None


def test_case_c_gate_classifies_once(monkeypatch):
    """On a case-(c) triple, ``tangent_basis`` classifies the triple once:
    the gate in ``build_tower`` computes the indicator from the same real
    tower, without classifying again, in one Bezout solve of one
    right-hand side."""
    import whitham.deformation as deformation

    g = 2
    rng = np.random.default_rng(3)
    F = pair_poly(0.35 + 0.1j)
    t = SpectralTriple(
        g,
        F * pair_poly(0.5, -0.4),
        F * random_real_section(rng, g + 1),
        F * random_real_section(rng, g + 1),
    )
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    solves = []
    real = deformation.minimal_solution
    monkeypatch.setattr(deformation, "minimal_solution",
                        lambda A, B, Cs, **k: solves.append(len(Cs)) or real(A, B, Cs, **k))
    monkeypatch.setattr(deformation, "classify", counted)
    with pytest.raises(NotDeformableError) as err:
        tangent_basis(t)
    assert err.value.case == "c"
    assert len(calls) == 1
    assert solves == [1]
    assert err.value.indicator == r_value(_real_tower(t, classify(t)), Polynomial.one())


def test_classify_case_d():
    g = 2
    rng = np.random.default_rng(4)
    G = pair_poly(0.3) * P(-1j, 1)  # cubic common factor of the b's
    t = SpectralTriple(
        g, pair_poly(0.5, -0.45, 0.25j), G * random_real_section(rng, g),
        G * random_real_section(rng, g) * 1j,
    )
    lab = classify(t)
    assert lab.label == "d"
    with pytest.raises(NotDeformableError):
        tangent_basis(t)


def test_classify_case_e():
    lab = classify(conformal_g0_triple())
    assert lab.label == "e"
    assert lab.conformal


def test_classify_case_f():
    # conformal with an extra common pair: F = zeta * (pair), FG too big
    g = 2
    rng = np.random.default_rng(5)
    F_extra = pair_poly(0.45)
    z = Polynomial.zeta()
    t = SpectralTriple(
        g,
        z * F_extra * pair_poly(0.3j),
        z * F_extra * random_real_section(rng, g),
        z * F_extra * random_real_section(rng, g) * 1j,
    )
    lab = classify(t)
    assert lab.conformal
    assert lab.label == "f"


def test_reconstruction_residual_random():
    """The real tower reconstructs the triple: P = F*F1*F2*P-tilde,
    b1 = F*F1*G*b1-tilde and b2 = F*F2*G*b2-tilde, with F replaced by zeta
    at a conformal point, in the cases (a), (b) with linear and with
    quadratic G, and (e)."""
    rng = np.random.default_rng(11)
    triples = [random_case_a_triple(rng, g) for g in (0, 1, 2)]
    G1 = P(-1j, 1)
    G2 = pair_poly(0.4 + 0.2j)
    for _ in range(2):
        triples.append(SpectralTriple(
            1, pair_poly(0.3, -0.4), G1 * random_real_section(rng, 3) * 1j,
            G1 * random_real_section(rng, 3) * 1j,
        ))
        triples.append(SpectralTriple(
            2, pair_poly(0.3, -0.4, 0.5j), G2 * random_real_section(rng, 3),
            G2 * random_real_section(rng, 3),
        ))
    triples.append(conformal_g0_triple())
    seen = set()
    for t in triples:
        tw = build_tower(t)
        seen.add((tw.label.label, tw.G.degree))
        F = Polynomial.zeta() if tw.conformal else tw.F
        for whole, part in (
            (t.P, F * tw.F1 * tw.F2 * tw.P_tilde),
            (t.b1, F * tw.F1 * tw.G * tw.b1_tilde),
            (t.b2, F * tw.F2 * tw.G * tw.b2_tilde),
        ):
            assert (part - whole).norm() < 1e-8 * whole.norm()
    assert seen == {("a", 0), ("b", 1), ("b", 2), ("e", 0)}


# -- the R function ------------------------------------------------------------


def test_r_shape_lagrange_oracle():
    # interpolating f(zeta) = zeta at roots {2, 3}: interpolant is zeta,
    # leading (degree-1) coefficient 1
    B = Polynomial.from_roots([2.0, 3.0])
    (val,) = _r_last_coefficients(Polynomial.one(), B, [Polynomial.zeta()], RootSpec.of(B))
    assert abs(val - 1.0) < 1e-12


def test_r_constant_function_vanishes():
    B = Polynomial.from_roots([2.0, 3.0])
    (val,) = _r_last_coefficients(Polynomial.one(), B, [P(5.0)], RootSpec.of(B))
    assert abs(val) < 1e-12


def test_r_reality_relation():
    rng = np.random.default_rng(11)
    for _ in range(15):
        t = random_case_a_triple(rng)
        tw = build_tower(t)
        Q = random_real_section(rng, 2)
        R = r_value(tw, Q)
        betas = roots_flat(tw.b2_tilde)
        n = tw.b2_tilde.degree - 1
        rel = (-1.0) ** n * np.prod(betas) * R
        assert abs(np.conj(R) - rel) < 1e-8 * max(1.0, abs(R))


def test_r_linearity():
    rng = np.random.default_rng(13)
    t = random_case_a_triple(rng)
    tw = build_tower(t)
    Q1 = random_real_section(rng, 2)
    Q2 = random_real_section(rng, 2)
    for a, b in ((2.0, -1.0), (0.5, 3.0)):
        lhs = r_value(tw, a * Q1 + b * Q2)
        rhs = a * r_value(tw, Q1) + b * r_value(tw, Q2)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_r_kernel_basis():
    rng = np.random.default_rng(17)
    t = random_case_a_triple(rng)
    tw = build_tower(t)
    q1, q2 = r_kernel(tw)
    scale = max(abs(r_value(tw, e)) for e in (P(1, 0, 1), P(1j, 0, -1j), P(0, 1)))
    for q in (q1, q2):
        assert abs(r_value(tw, q)) <= 1e-9 * max(1.0, scale)
    # orthonormal in real coordinates
    from whitham.spectral import pack_section

    x1, x2 = pack_section(q1, 2), pack_section(q2, 2)
    assert abs(np.dot(x1, x1) - 1) < 1e-12
    assert abs(np.dot(x1, x2)) < 1e-12


@pytest.mark.parametrize("seed", [seed_genus0, seed_genus1])
def test_tangent_basis_is_continuous_at_the_first_flow_point(seed):
    """1e-12 moves of the step-1 flow point move the case-(a) tangent basis
    by at most 1e-8: the basis follows R's row direction, not the SVD's
    roundoff-chosen kernel rows, which flipped it by O(1)."""
    samples, _ = trace(seed(), FlowConfig(h=1e-2, steps=1))
    t = samples[1].triple
    assert samples[1].case == "a"

    def flats(triple):
        return [np.concatenate([v.P_dot.padded(12), v.b1_dot.padded(12), v.b2_dot.padded(12)])
                for v in tangent_basis(triple)[0]]

    base = flats(t)
    x = pack_triple(t)
    rng = np.random.default_rng(5)
    for _ in range(4):
        moved = flats(unpack_triple(x + 1e-12 * rng.standard_normal(x.size), t.g))
        for a, b in zip(base, moved):
            assert np.abs(a - b).max() <= 1e-8


def test_r_kernel_degenerate_rank0():
    # b1 a multiple of P makes b1-tilde constant and P-tilde = 1, so the
    # interpolated function is the quadratic Q itself at 4 points: the
    # cubic coefficient vanishes identically and R has rank 0
    g = 1
    rng = np.random.default_rng(19)
    Ppoly = pair_poly(0.3, 0.45j)
    b1 = Ppoly * 1.7
    b2 = random_real_section(rng, g + 3)
    t = SpectralTriple(g, Ppoly, b1, b2)
    assert classify(t).label == "a"
    with pytest.raises(DegenerateKernelError):
        r_kernel(build_tower(t))


# -- Q-equation and deformation identities ----------------------------------------


def test_solve_q_zero_params():
    t = random_case_a_triple(np.random.default_rng(23))
    c1, c2, Q, info = solve_q_equation(build_tower(t), CaseAParams(Polynomial.zero()))
    assert c1.is_zero and c2.is_zero and Q.is_zero


def test_solve_q_case_a_degree_and_residual():
    rng = np.random.default_rng(29)
    for _ in range(5):
        t = random_case_a_triple(rng)
        tw = build_tower(t)
        q1, _ = r_kernel(tw)
        c1, c2, Q, info = solve_q_equation(tw, CaseAParams(q1))
        assert info["q_identity"] < 1e-9
        d2 = tw.F2.degree
        assert c2.degree <= t.g + 1 - d2 + d2  # c2 = F2 * c2-tilde, weight g+1
        ct2 = c2.deflate(tw.F2) if d2 else c2
        assert ct2.degree <= t.g + 1 - d2


def test_solve_q_rejects_nonkernel_Q():
    from whitham.errors import RealityViolationError

    t = random_case_a_triple(np.random.default_rng(31))
    tw = build_tower(t)
    # generic Q has R(Q) != 0
    Q = P(1.0, 0.0, 1.0)
    if abs(r_value(tw, Q)) > 1e-6:
        with pytest.raises(RealityViolationError):
            solve_q_equation(tw, CaseAParams(Q))


def test_kernel_vectors_reuse_the_solve_of_their_r_check(g1_triple, monkeypatch):
    """The Q-equation solve ``r_kernel`` makes to re-check a kernel vector
    is the one ``solve_q_equation`` reads for it: a case-(a)
    ``tangent_basis`` solves 9 right-hand sides in 4 Bezout calls (11 in 6
    when each was solved again), and the tangent of a ``basis0`` flow step
    7 in 4 (8 in 5).  A fixed ``CaseAParams`` rule, projected onto the
    kernel, has a Q of its own and makes its own solve: 8 in 5.  The
    vectors equal those made on a tower that kept no solve."""
    from whitham import deformation
    from whitham.deformation import tangent_params
    from whitham.flow import _rule_tangent

    solves = []
    real = deformation.minimal_solution
    monkeypatch.setattr(deformation, "minimal_solution",
                        lambda A, B, Cs, **k: solves.append(len(Cs)) or real(A, B, Cs, **k))

    def count(fn, *args):
        solves.clear()
        out = fn(*args)
        return (sum(solves), len(solves)), out

    n, (vectors, _) = count(tangent_basis, g1_triple)
    assert n == (9, 4)
    label = classify(g1_triple)
    assert count(_rule_tangent, g1_triple, label, "basis0", None)[0] == (7, 4)
    fixed = CaseAParams(Polynomial([1.0, 0.3, 1.0]))
    assert count(_rule_tangent, g1_triple, label, fixed, None)[0] == (8, 5)
    tw = build_tower(g1_triple)
    for params, v in zip(tangent_params(tw), vectors):
        tw.q_solves.clear()
        assert make_tangent(tw, params).to_json_dict() == v.to_json_dict()


def test_solve_empdi_zero_is_zero():
    t = random_case_a_triple(np.random.default_rng(37))
    zero = Polynomial.zero()
    (v,) = solve_empdi(build_tower(t), [(zero, zero, zero, None)])
    assert v.norm() < 1e-14


def test_solve_empdi_random_case_a():
    rng = np.random.default_rng(41)
    for _ in range(3):
        tw = build_tower(random_case_a_triple(rng))
        v = make_tangent(tw, CaseAParams(r_kernel(tw)[0]))
        assert v.residuals["empd1"] < 1e-9
        assert v.residuals["empd2"] < 1e-9
        assert v.residuals["q_identity"] < 1e-9
        assert v.residuals["reconciliation"] < 1e-9
        assert v.residuals["scaling_derivative"] < 1e-9
        assert v.residuals["reality"] < 1e-9


def test_tangent_linearity_in_params():
    tw = build_tower(random_case_a_triple(np.random.default_rng(43)))
    q1, _ = r_kernel(tw)
    v1 = make_tangent(tw, CaseAParams(q1))
    for lam in (-1.0, 2.0):
        v2 = make_tangent(tw, CaseAParams(q1 * lam))
        assert (v2.P_dot - lam * v1.P_dot).norm() < 1e-8 * max(1.0, v1.norm())
        assert (v2.b1_dot - lam * v1.b1_dot).norm() < 1e-8 * max(1.0, v1.norm())


def test_recover_chat_roundtrip():
    rng = np.random.default_rng(47)
    for _ in range(3):
        t = random_case_a_triple(rng)
        tw = build_tower(t)
        v = make_tangent(tw, CaseAParams(r_kernel(tw)[0]))
        chat1, chat2 = recover_chat(t, v)
        want1 = P(-1, 0, 1) * v.c1
        want2 = P(-1, 0, 1) * v.c2
        assert (chat1 - want1).norm() <= 1e-8 * max(1.0, want1.norm())
        assert (chat2 - want2).norm() <= 1e-8 * max(1.0, want2.norm())
        # the (zeta^2 - 1) factor: recovered chat vanishes at +/-1
        for z in (1.0, -1.0):
            assert abs(chat1(z)) < 1e-8 * max(1.0, chat1.norm())


def test_recover_chat_zero():
    t = random_case_a_triple(np.random.default_rng(53))
    from whitham.deformation import TangentVector

    zero = TangentVector(
        Polynomial.zero(), Polynomial.zero(), Polynomial.zero(),
        None, Polynomial.zero(), Polynomial.zero(), Polynomial.zero(), {}, ()
    )
    chat1, chat2 = recover_chat(t, zero)
    assert chat1.norm() < 1e-12 and chat2.norm() < 1e-12


def test_empdi_operator_kernel_trivial():
    rng = np.random.default_rng(59)
    for g in (0, 1, 3, 5):
        alphas = 0.2 + 0.5 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1))
        Ppoly = pair_poly(*alphas)
        M = empdi_operator_matrix(Ppoly, g)
        rown = np.linalg.norm(M, axis=1)
        Ms = M[rown > 0] / rown[rown > 0, None]
        smin = np.linalg.svd(Ms, compute_uv=False)[-1]
        assert smin > 1e-10


def test_empdi_operator_matrix_applies_the_identity_operator():
    """Column m is the operator 2P(chat - zeta chat') + P' zeta chat
    at chat = zeta^m: the matrix applied to the
    coefficients of chat is the operator applied to chat, and each column
    is the closed form 2(1-m) P zeta^m + P' zeta^(m+1)."""
    rng = np.random.default_rng(61)
    zeta = Polynomial.zeta()
    for g in range(4):
        alphas = 0.2 + 0.5 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1))
        Ppoly = pair_poly(*alphas)
        M = empdi_operator_matrix(Ppoly, g)
        assert M.shape == (3 * g + 6, g + 4)
        for _ in range(3):
            chat = Polynomial(rng.standard_normal(g + 4) + 1j * rng.standard_normal(g + 4))
            want = (2.0 * Ppoly * (chat - zeta * chat.derivative())
                    + Ppoly.derivative() * zeta * chat).padded(3 * g + 6)
            assert np.abs(M @ chat.padded(g + 4) - want).max() <= 1e-12 * np.abs(want).max()
        for m in range(g + 4):
            mono = Polynomial.from_roots([0.0] * m)
            col = 2.0 * (1 - m) * Ppoly * mono + Ppoly.derivative() * zeta * mono
            assert np.array_equal(M[:, m], col.padded(3 * g + 6))


def test_divisibility_ladder():
    # FF^i divides c^i and FG divides Q for constructed tangents
    rng = np.random.default_rng(61)
    t = random_case_a_triple(rng)
    tw = build_tower(t)
    v = make_tangent(tw, CaseAParams(r_kernel(tw)[0]))
    if tw.F2.degree:
        _, rem = v.c2.divmod(tw.F2)
        assert rem.norm() <= 1e-9 * max(1.0, v.c2.norm())


# -- conformal case (e) at the exact genus-0 point ------------------------------


def test_case_e_tangents():
    t = conformal_g0_triple()
    vectors, gram = tangent_basis(t)
    assert len(vectors) == 2
    assert gram > 1e-8
    for v in vectors:
        # Q = Q_1 zeta: the constant coefficient vanishes identically
        assert abs(v.Q.coeff(0)) <= 1e-10 * max(1.0, v.Q.norm())
        assert v.residuals["empd1"] < 1e-9
        assert v.residuals["empd2"] < 1e-9
        # the point is on the moduli set, so the residue-derivative holds,
        # with the i = 2 condition emerging rather than being imposed
        assert v.residuals["residue_tangent_1"] < 1e-9
        assert v.residuals["residue_tangent_2"] < 1e-9


def test_case_e_q_equation_family():
    t = conformal_g0_triple()
    tw = build_tower(t)
    c1a, c2a, Qa, _ = solve_q_equation(tw, CaseEParams(1.0, 0.0))
    c1b, c2b, Qb, _ = solve_q_equation(tw, CaseEParams(1.0, 1.0))
    # the r parameter moves the solution by r*(b1-tilde, b2-tilde) (times F^i)
    d1 = c1b - c1a
    want = tw.F1 * tw.b1_tilde
    assert (d1 - want).norm() < 1e-9 * max(1.0, want.norm())


def test_conformal_type_rate_zero_Q0():
    t = random_case_a_triple(np.random.default_rng(67))
    tw = build_tower(t)
    v = make_tangent(tw, CaseAParams(r_kernel(tw)[0]))
    rate = conformal_type_rate(t, v)
    # Q_0 = 0 gives rate 0
    v0 = v.scaled(0.0)
    assert conformal_type_rate(t, v0) == 0


def test_conformal_type_rate_errors():
    from whitham.errors import UndefinedConformalTypeError

    t = conformal_g0_triple()
    v, _ = tangent_basis(t)
    with pytest.raises(UndefinedConformalTypeError):
        conformal_type_rate(t, v[0])


# -- case (b) on synthetic shaped data -------------------------------------------


def test_case_b_linear_q_equation_shape():
    g = 1
    rng = np.random.default_rng(71)
    G = P(-1j, 1) * np.exp(1j * np.pi / 4)
    while True:
        m1 = random_real_section(rng, g + 2)
        m2 = random_real_section(rng, g + 2)
        t = SpectralTriple(g, pair_poly(0.3, -0.4), G * m1, G * m2)
        lab = classify(t)
        if lab.label == "b" and lab.factors.G.degree == 1:
            break
    Qt = P(1.0, 1.0)
    tw = build_tower(t, lab)
    c1, c2, Q, info = solve_q_equation(tw, CaseBLinearParams(Qt))
    assert info["q_identity"] < 1e-8
    # Q = G * Q-tilde
    q_over_g, rem = Q.divmod(tw.G)
    assert rem.norm() < 1e-9 * max(1.0, Q.norm())


def _inline_scaling_shift(triple, P_dot):
    """The scaling shift written out with the root motion inline."""
    alphas = [a for a, _ in build_curve(triple.P).branch_pairs]
    Pi = product_form(alphas)
    dP = triple.P.derivative()
    terms = Polynomial.zero()
    for k, a in enumerate(alphas):
        a_dot = -P_dot(a) / dP(a)
        rest = product_form(alphas[:k] + alphas[k + 1 :])
        dpair = Polynomial([-a_dot, 0.0]) * Polynomial([1.0, -np.conj(a)]) + Polynomial(
            [-a, 1.0]
        ) * Polynomial([0.0, -np.conj(a_dot)])
        terms = terms + dpair * rest
    m = int(np.argmax(np.abs(Pi.coeffs)))
    Pm = triple.P.coeff(m)
    t = (Pm * terms.coeff(m) - P_dot.coeff(m) * Pi.coeff(m)) / (2.0 * Pm * Pi.coeff(m))
    return float(t.real), float(abs(t.imag))


def _assert_same_shift(got, want):
    """Two (t, |Im t|) pairs of ``_scaling_shift`` agree within 1e-13 of
    max(1, |t|): the scaling row's linear functional sums the root motion in
    another order than the product-form derivative, which moved t by at
    most 5.4e-15 of that scale at the seeds."""
    scale = max(1.0, abs(want[0]))
    assert abs(got[0] - want[0]) <= 1e-13 * scale, (got, want)
    assert abs(got[1] - want[1]) <= 1e-13 * scale, (got, want)


def test_scaling_shift_matches_inline_root_motion(g0_triple, g0_conformal, g1_triple):
    """``_scaling_shift`` through the scaling row's linear functional gives
    the t of the formula with the root motion inline."""
    rng = np.random.default_rng(3)
    for t in (g0_triple, g0_conformal, g1_triple):
        k = 2 * t.g + 2
        P_dots = [random_real_section(rng, k) for _ in range(3)]
        P_dots += [v.P_dot for v in tangent_basis(t)[0]]
        for P_dot in P_dots:
            _assert_same_shift(_scaling_shift(build_tower(t), P_dot),
                               _inline_scaling_shift(t, P_dot))


def test_frame_and_tower_take_the_same_scaling_index(
    g0_triple, g1_triple, g0_conformal, g1_b_linear, g2_b_quad
):
    """A frame built at a triple and the tower's scaling row take the same
    reference index m: at the five seeds and at every conformal seed with
    k+, k- in 1..2."""
    from whitham.flow import seed_conformal_genus0
    from whitham.spectral import PsiFrame

    triples = [g0_triple, g1_triple, g0_conformal, g1_b_linear, g2_b_quad]
    assert not any(isinstance(t, str) for t in triples), triples
    triples += [seed_conformal_genus0(kp, km) for kp in (1, 2) for km in (1, 2)]
    for t in triples:
        assert PsiFrame.build(t).row.index == build_tower(t).scaling_row.index


def test_tower_scaling_row_matches_the_per_call_reference(
    g0_triple, g1_triple, g0_conformal, g1_b_linear, g2_b_quad
):
    """``_scaling_shift`` from the tower's one scaling row gives the shift
    recomputed from the curve of P at every call (``_assert_same_shift``),
    and the deformation-identity residuals equal those rebuilt from the
    vector; at the five seeds and at every conformal seed with k+, k- in
    1..3."""
    from whitham.flow import seed_conformal_genus0

    assert not isinstance(g1_b_linear, str), g1_b_linear
    assert not isinstance(g2_b_quad, str), g2_b_quad
    triples = [g0_triple, g1_triple, g0_conformal, g1_b_linear, g2_b_quad]
    triples += [seed_conformal_genus0(kp, km) for kp in (1, 2, 3) for km in (1, 2, 3)]
    rng = np.random.default_rng(29)
    for t in triples:
        vectors, _ = tangent_basis(t)
        tw = build_tower(t)
        P_dots = [random_real_section(rng, 2 * t.g + 2) for _ in range(3)]
        P_dots += [v.P_dot for v in vectors]
        for P_dot in P_dots:
            _assert_same_shift(_scaling_shift(tw, P_dot), reference_scaling_shift(t, P_dot))
        row = tw.scaling_row
        assert tw.scaling_row is row and row.P is t.P
        for v in vectors:
            for i in (1, 2):
                assert v.residuals[f"empd{i}"] == reference_empdi_residual(t, v, i)


def test_tangent_basis_builds_each_system_once(g1_triple, monkeypatch):
    """One ``tangent_basis`` at the genus-1 seed builds the Vandermonde
    system of each of its two divisors once (11 builds when every solve
    built its own), the product forms of one scaling row once (3; 12 when
    every scaling fix rebuilt them), and roots 3 vectors: P, b1 and b2,
    since B_1 = 2P takes P's roots (4 when 2P was rooted again)."""
    import whitham.bezout as bezout
    import whitham.spectral as spectral

    counts = {"vandermonde": 0, "product_form": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(bezout, "confluent_vandermonde",
                        counted("vandermonde", bezout.confluent_vandermonde))
    pf = counted("product_form", spectral.product_form)
    monkeypatch.setattr(spectral, "product_form", pf)
    seen = _rooted_vectors(monkeypatch)
    tangent_basis(g1_triple)
    assert counts == {"vandermonde": 2, "product_form": 3}
    assert sorted(seen) == sorted(p.coeffs.tobytes() for p in (g1_triple.P, g1_triple.b1,
                                                               g1_triple.b2))


@pytest.mark.parametrize("seed", ["g0_triple", "g1_triple"])
def test_tangent_basis_solves_each_system_once(seed, request, monkeypatch):
    """One ``tangent_basis`` at the genus-0 and genus-1 seeds makes 4
    ``np.linalg.solve`` calls (9 when each right-hand side was solved
    alone): one for R on the three basis quadratics, one re-checking both
    kernel vectors, and one per deformation identity for both vectors.  It
    reality-checks the A and B of each identity once, and each of its two
    right-hand sides once."""
    import whitham.bezout as bezout

    columns = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda V, H: columns.append(H.shape[1] if H.ndim == 2 else 1)
                        or solve(V, H))
    checked = []
    check = bezout._check_real
    monkeypatch.setattr(bezout, "_check_real",
                        lambda p, k, name: checked.append(name) or check(p, k, name))
    tangent_basis(request.getfixturevalue(seed))
    assert columns == [3, 2, 2, 2]
    assert checked == ["A", "B", "C", "C"] * 2


@pytest.mark.parametrize("seed, exponents", [
    # the Q-equation's solution norm
    ("g1_triple", (-10.47, -170.13, 117.29)),
    # the reconciliation residual's norm
    ("g0_triple", (-65.36, -207.55, -153.24)),
])
def test_tangent_norms_at_extreme_scales_raise_no_warning(seed, exponents, request):
    """At a seed point with P, b1 and b2 multiplied by 10**u, where a plain
    sum of squares leaves the float range, ``tangent_basis`` takes its
    norms by ``polyring``'s rule: no RuntimeWarning but those of
    ``polyring``'s divisions, and a result or a ``WhithamError``."""
    import warnings

    from whitham.errors import WhithamError

    t = request.getfixturevalue(seed)
    p, b1, b2 = (10.0**u for u in exponents)
    scaled = SpectralTriple(t.g, t.P * p, t.b1 * b1, t.b2 * b2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            vectors, _ = tangent_basis(scaled)
            assert len(vectors) == 2
        except WhithamError:
            pass
    assert [(w.filename, str(w.message)) for w in caught
            if not w.filename.endswith("polyring.py")] == []


def test_first_divisor_of_a_trivial_tower_takes_the_roots_of_P(g0_triple, g1_triple):
    """With F F1 F2 = 1 at a nonconformal point, B_1 = 2P; its spec, taken
    from roots(P), equals the spec of rooting 2P, root for root."""
    for t in (g0_triple, g1_triple):
        tw = build_tower(t)
        (B1, spec1), _ = tw.divisors
        assert B1 == 2.0 * t.P
        assert spec1 == RootSpec.of(B1)


def test_scaling_row_is_built_at_the_first_scaling_fix(g1_triple, monkeypatch):
    """The tower builds its scaling row when a scaling fix first needs it:
    a P whose curve fails raises that failure from ``solve_empdi``, after
    ``r_kernel`` and both vectors' ``solve_q_equation``, and a case-(c)
    tower, which makes no tangent vector, never builds it."""
    import traceback

    import whitham.deformation as deformation
    from whitham.errors import CircleRootError

    events = []
    failure = CircleRootError("root on the unit circle")
    for name in ("r_kernel", "solve_q_equation"):
        f = getattr(deformation, name)
        monkeypatch.setattr(deformation, name,
                            lambda *a, _f=f, _n=name, **k: events.append(_n) or _f(*a, **k))

    def no_curve(P, rs):
        events.append("curve")
        raise failure

    monkeypatch.setattr(deformation, "_curve_from_roots", no_curve)
    with pytest.raises(CircleRootError) as err:
        tangent_basis(g1_triple)
    assert err.value is failure
    # both vectors' Q-equations are solved before their identities, which
    # are solved together
    assert events == ["r_kernel", "solve_q_equation", "solve_q_equation", "curve"]
    assert "solve_empdi" in [f.name for f in traceback.extract_tb(err.tb)]

    events.clear()
    g = 2
    rng = np.random.default_rng(3)
    F = pair_poly(0.35 + 0.1j)
    t = SpectralTriple(g, F * pair_poly(0.5, -0.4), F * random_real_section(rng, g + 1),
                       F * random_real_section(rng, g + 1))
    with pytest.raises(NotDeformableError) as err:
        build_tower(t)
    assert err.value.case == "c" and events == []


def _rooted_vectors(monkeypatch):
    """Record the coefficient bytes of every ``polyring.roots`` call made
    through any ``whitham`` module."""
    import sys

    import whitham.polyring as polyring

    seen = []
    original = polyring.roots

    def counted(p, *args, **kwargs):
        seen.append(polyring._as_poly(p).coeffs.tobytes())
        return original(p, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("whitham") and getattr(mod, "roots", None) is original:
            monkeypatch.setattr(mod, "roots", counted)
    return seen


def test_classify_roots_P_b1_b2_once_each(g0_triple, monkeypatch):
    """The gcd tower is matched from one root list each of P, b1 and b2;
    at the genus-0 seed every factor is 1, so nothing else is rooted."""
    t = g0_triple
    seen = _rooted_vectors(monkeypatch)
    assert classify(t).label == "a"
    assert sorted(seen) == sorted(p.coeffs.tobytes() for p in (t.P, t.b1, t.b2))


def test_tangent_basis_roots_no_vector_twice(g0_triple, g1_triple, g0_conformal, monkeypatch):
    """The tower carries every root list it computed, so one
    ``tangent_basis`` roots each coefficient vector of degree at least 2 at
    most once.  A linear vector may be rooted again: at the conformal seed
    P = zeta is its own gcd with b1, and that gcd is rooted like any other
    (roots of zeta strip the zero root and run no iteration)."""
    seen = _rooted_vectors(monkeypatch)
    for t in (g0_triple, g1_triple, g0_conformal):
        seen.clear()
        tangent_basis(t)
        # 16 bytes per complex coefficient: keep vectors of degree >= 2
        nonlinear = [c for c in seen if len(c) > 2 * 16]
        assert nonlinear and len(nonlinear) == len(set(nonlinear))


def test_residue_tangent_residual_is_the_derivative_of_the_residue_condition():
    """The tangent residual of the residue condition is the central
    difference of ``residue_condition`` along (P_dot, b_dot), normalized."""
    rng = np.random.default_rng(17)
    zero = Polynomial.zero()
    for g in (0, 1, 2):
        for _ in range(5):
            t = SpectralTriple(g, random_real_section(rng, 2 * g + 2),
                               random_real_section(rng, g + 3), random_real_section(rng, g + 3))
            v = TangentVector(random_real_section(rng, 2 * g + 2), random_real_section(rng, g + 3),
                              random_real_section(rng, g + 3), None, zero, zero, zero)
            h = 1e-3
            for i, b, b_dot in ((1, t.b1, v.b1_dot), (2, t.b2, v.b2_dot)):
                fd = (residue_condition(t.P + h * v.P_dot, b + h * b_dot)
                      - residue_condition(t.P - h * v.P_dot, b - h * b_dot)) / (2 * h)
                scale = v.P_dot.norm() * b.norm() + t.P.norm() * b_dot.norm()
                got = _residue_tangent_residual(t, v, i)
                assert abs(got - abs(fd) / scale) <= 1e-12 * got
