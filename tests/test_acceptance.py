"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np

from whitham.bezout import minimal_solution, solution_space
from whitham.cli import dense_bezout
from whitham.curve import PathOnCurve, ArcSegment, build_curve, homology_basis, integrate_batch
from whitham.deformation import (
    CaseAParams,
    build_tower,
    classify,
    empdi_operator_matrix,
    make_tangent,
    r_kernel,
    r_value,
    recover_chat,
    tangent_basis,
)
from whitham.errors import NotDeformableError
from whitham.flow import FlowConfig, trace
from whitham.polyring import (
    Polynomial,
    approx_gcd,
    random_real_section,
    real_defect,
    roots_flat,
)
from whitham.spectral import (
    PsiFrame,
    SpectralTriple,
    _psi_paths,
    conformal_type,
    pack_triple,
    psi,
    psi_jacobian,
    validate,
)

from oracles import d_psi, d_psi_norm, random_bezout_instance, random_real_bezout_instance


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def pair_poly(*alphas):
    out = Polynomial.one()
    for a in alphas:
        if a == 0:
            out = out * Polynomial.zeta()
        else:
            out = out * Polynomial([-a, 1]) * Polynomial([1, -np.conj(a)])
    return out


# -- 1: Bezout oracle equivalence ------------------------------------------------


def test_criterion_1_bezout_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(500):
        A, B, C, D = random_bezout_instance(rng, max_deg=8, d_deg=k % 3)
        sol = minimal_solution(A, B, [C])[0]
        X_o, _, res_o = dense_bezout(A, B, C, D.degree)
        assert res_o < 1e-8
        worst = max(worst, (sol.X - X_o).norm() / max(1.0, X_o.norm()))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-8 and elapsed < 30.0,
        f"500 instances, max |X - X_oracle| = {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


# -- 2: minimal solutions of real data are real without averaging -----------------


def test_criterion_2_reality():
    rng = np.random.default_rng(102)
    worst = 0.0
    n = 0
    while n < 200:
        A, B, C, D, (a, b, c), _ = random_real_bezout_instance(rng, strict=True)
        if c >= a + b - D.degree:
            continue
        n += 1
        sol = minimal_solution(A, B, [C])[0]
        defect = real_defect(sol.X, c - a) / max(1.0, sol.X.norm())
        worst = max(worst, defect)
    _report(2, worst <= 1e-9, f"200 instances, max real-section defect {worst:.2e} (tol 1e-9)")


# -- 3: solution-space membership ---------------------------------------------------


def test_criterion_3_solution_space():
    rng = np.random.default_rng(103)
    worst = 0.0
    n = 0
    while n < 100:
        A, B, C, D, (a, b, c), _ = random_real_bezout_instance(rng, strict=False)
        if c < a + b - D.degree:
            continue
        n += 1
        space = solution_space(A, B, C, a, b, c)
        for _ in range(5):
            U = random_real_section(rng, max(space.param_degree, 0))
            X, Y = space.member(U)
            res = (A * X - B * Y - C).norm() / max(C.norm(), 1.0)
            worst = max(worst, res)
    _report(3, worst <= 1e-9, f"100 instances x 5 members, max residual {worst:.2e} (tol 1e-9)")


# -- 4: R-reality relation, including confluent continuity ---------------------------


def _random_case_a(rng, g):
    while True:
        t = SpectralTriple(
            g,
            pair_poly(*(0.25 + 0.5 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1)))),
            random_real_section(rng, g + 3),
            random_real_section(rng, g + 3),
        )
        if classify(t).label == "a":
            return t


def test_criterion_4_r_reality():
    rng = np.random.default_rng(104)
    worst = 0.0
    for k in range(200):
        t = _random_case_a(rng, int(rng.integers(0, 3)))
        tw = build_tower(t)
        Q = random_real_section(rng, 2)
        R = r_value(tw, Q)
        betas = roots_flat(tw.b2_tilde)
        n = tw.b2_tilde.degree - 1
        rel = (-1.0) ** n * np.prod(betas) * R
        worst = max(worst, abs(np.conj(R) - rel) / max(1.0, abs(R)))

    # coalescing roots: b2 with a double in-disc pair approached by eps-splits
    worst_conf = 0.0
    for k in range(20):
        g = 1
        beta = 0.35 + 0.3 * rng.random() + 0.25j * rng.random()
        P = pair_poly(0.2 - 0.1j, -0.55 + 0.05j)
        b1 = random_real_section(rng, g + 3)
        pair2 = pair_poly(beta, beta)
        t_limit = SpectralTriple(g, P, b1, pair2)
        Q = random_real_section(rng, 2)
        tw = build_tower(t_limit)
        R_limit = r_value(tw, Q)
        seq = []
        for eps in (1e-3, 1e-4, 1e-5):
            t_eps = SpectralTriple(g, P, b1, pair_poly(beta, beta + eps))
            seq.append(r_value(build_tower(t_eps), Q))
        # the defect is linear in eps; Richardson-extrapolate the last two
        R_ext = seq[2] + (seq[2] - seq[1]) / 9.0
        worst_conf = max(worst_conf, abs(R_ext - R_limit) / max(1.0, abs(R_limit)))
    ok = worst <= 1e-8 and worst_conf <= 1e-6
    _report(
        4,
        ok,
        f"200 instances, reality defect {worst:.2e} (tol 1e-8); "
        f"20 coalescing, continuity {worst_conf:.2e} (tol 1e-6)",
    )


# -- 5: recovery-operator kernel triviality and roundtrip ------------------------------


def test_criterion_5_kernel_triviality(g0_triple, g1_triple):
    rng = np.random.default_rng(105)
    worst_sigma = np.inf
    for _ in range(100):
        g = int(rng.integers(0, 6))
        alphas = 0.2 + 0.55 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1))
        P = pair_poly(*alphas)
        M = empdi_operator_matrix(P, g)
        rn = np.linalg.norm(M, axis=1)
        Ms = M[rn > 0] / rn[rn > 0, None]
        worst_sigma = min(worst_sigma, float(np.linalg.svd(Ms, compute_uv=False)[-1]))

    worst_rt = 0.0
    points = [g0_triple, g1_triple]
    points += [_random_case_a(rng, 1) for _ in range(8)]
    zeta2m1 = Polynomial([-1.0, 0.0, 1.0])
    for t in points:
        tw = build_tower(t)
        v = make_tangent(tw, CaseAParams(r_kernel(tw)[0]))
        chat1, chat2 = recover_chat(t, v)
        for chat, c in ((chat1, v.c1), (chat2, v.c2)):
            want = zeta2m1 * c
            worst_rt = max(worst_rt, (chat - want).norm() / max(1.0, want.norm()))
    ok = worst_sigma > 1e-10 and worst_rt <= 1e-8
    _report(
        5,
        ok,
        f"100 operators, min sigma {worst_sigma:.2e} (> 1e-10); "
        f"roundtrip error {worst_rt:.2e} (tol 1e-8)",
    )


# -- 6: tangent space is two-dimensional -------------------------------------------


def _tangent_point_check(name, triple, quad_order=64):
    t0 = time.perf_counter()
    vectors, gram = tangent_basis(triple)
    assert len(vectors) == 2 and gram >= 1e-8, f"{name}: gram {gram:.2e}"
    frame = PsiFrame.build(triple, quad_order=quad_order)
    worst_d = 0.0
    for v in vectors:
        vn = v.scaled(1.0 / v.norm())
        d = d_psi(triple, vn, h=1e-5, frame=frame)
        worst_d = max(worst_d, d_psi_norm(d))
    J = psi_jacobian(triple, frame=frame, h=1e-6)
    s = np.linalg.svd(J, compute_uv=False)
    s_sorted = np.sort(s)
    nullity_gap = s_sorted[2] / max(s_sorted[1], 1e-300)
    elapsed = time.perf_counter() - t0
    ok = worst_d <= 1e-6 and nullity_gap >= 1e3 and elapsed < 60.0
    detail = (
        f"{name}: |dPsi(v)| {worst_d:.2e} (tol 1e-6), "
        f"sv gap {nullity_gap:.1e} (>= 1e3), {elapsed:.1f}s (< 60s)"
    )
    return ok, detail


def test_criterion_6_tangent_dimension(g0_triple, g0_conformal, g1_triple,
                                        g1_b_linear, g2_b_quad):
    """Case (b) cannot occur at genus 0 (the closed-form genus-0
    differentials share no roots), so the (b) sub-points are sought at
    higher genus: the linear-G point at genus 1, the quadratic-G point at
    genus 2 (no interior genus-1 curve with a shared root pair is known; see
    ``seed_common_factor``).  When a point cannot be constructed and
    confirmed, the fixture carries the reason and the criterion reports the
    failure."""
    points = [
        ("genus0 case(a)", g0_triple),
        ("genus0 case(e)", g0_conformal),
        ("genus1 case(a)", g1_triple),
        ("genus1 case(b) G linear", g1_b_linear),
        ("genus2 case(b) G quadratic", g2_b_quad),
    ]
    details = []
    all_ok = True
    for name, t in points:
        if isinstance(t, str):
            details.append(f"{name}: BLOCKED - {t}")
            all_ok = False
            continue
        ok, detail = _tangent_point_check(name, t)
        details.append(detail)
        all_ok = all_ok and ok
    _report(6, all_ok, "; ".join(details))


# -- 7: conformal constraints --------------------------------------------------------


def test_criterion_7_conformal(g0_conformal):
    vectors, _ = tangent_basis(g0_conformal)
    worst_q0 = 0.0
    worst_rt = 0.0
    worst_rt2 = 0.0
    for v in vectors:
        worst_q0 = max(worst_q0, abs(v.Q.coeff(0)))
        worst_rt = max(worst_rt, v.residuals["residue_tangent_1"])
        # the i = 2 condition is measured, never imposed by the solver
        worst_rt2 = max(worst_rt2, v.residuals["residue_tangent_2"])
    ok = worst_q0 <= 1e-10 and worst_rt <= 1e-9 and worst_rt2 <= 1e-9
    _report(
        7,
        ok,
        f"|Q_0| {worst_q0:.2e} (tol 1e-10); residue-derivative i=1 {worst_rt:.2e}, "
        f"i=2 (automatic) {worst_rt2:.2e} (tol 1e-9)",
    )


# -- 8: genus-0 corpus ----------------------------------------------------------------


def test_criterion_8_genus0_corpus():
    from whitham.flow import differential_family_genus0

    rng = np.random.default_rng(108)
    worst_res = 0.0
    for _ in range(100):
        alpha = (0.15 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
        y1 = rng.standard_normal() + 1j * rng.standard_normal()
        y2 = rng.standard_normal() + 1j * rng.standard_normal()
        P = pair_poly(alpha)
        b1 = differential_family_genus0(alpha, y1)
        b2 = differential_family_genus0(alpha, y2)
        g = approx_gcd(b1, b2)
        assert g.degree == 0, f"common root detected at alpha={alpha}"
        for b in (b1, b2):
            val = abs(P.coeff(1) * b.coeff(0) - 2 * P.coeff(0) * b.coeff(1))
            worst_res = max(worst_res, val / max(1.0, P.norm() * b.norm()))

    # synthetic non-deformable inputs
    errors = 0
    G_big = pair_poly(0.3) * Polynomial([-1j, 1])  # cubic common factor: case (d)
    t_d = SpectralTriple(
        2, pair_poly(0.5, -0.45, 0.25j), G_big * random_real_section(rng, 2),
        G_big * random_real_section(rng, 2) * 1j,
    )
    z = Polynomial.zeta()
    F_extra = pair_poly(0.45)
    t_f = SpectralTriple(
        2, z * F_extra * pair_poly(0.3j), z * F_extra * random_real_section(rng, 2),
        z * F_extra * random_real_section(rng, 2) * 1j,
    )
    for t in (t_d, t_f):
        try:
            tangent_basis(t)
        except NotDeformableError:
            errors += 1
    ok = worst_res <= 1e-12 and errors == 2
    _report(
        8,
        ok,
        f"100 closed-form triples coprime, residue condition {worst_res:.2e} "
        f"(tol 1e-12); non-deformable errors {errors}/2",
    )


# -- 9: period integration ------------------------------------------------------------


def test_criterion_9_periods(g0_triple, g1_triple):
    rng = np.random.default_rng(109)
    worst_conv = 0.0
    count = 0
    while count < 50:
        g = int(rng.integers(1, 3))
        alphas = 0.25 + 0.45 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1))
        try:
            cur = build_curve(pair_poly(*alphas))
            basis = homology_basis(cur)
        except Exception:
            continue
        b = random_real_section(rng, g + 3)
        cycles = _psi_paths(basis)
        cyc = cycles[count % len(cycles)]
        v16 = integrate_batch(cur, [b], cyc, 16)[0].value
        v64 = integrate_batch(cur, [b], cyc, 64)[0].value
        worst_conv = max(worst_conv, abs(v16 - v64) / max(1.0, abs(v64)))
        count += 1

    # one-cut A-cycle of dzeta/eta vs the residue-at-infinity oracle
    cur = build_curve(Polynomial.from_roots([0.5, 2.0]))
    span = PathOnCurve((ArcSegment(1.25, 1.1, 0.0, 2 * np.pi),), 1, "A")
    val = integrate_batch(cur, [Polynomial([0, 0, 1.0])], span, 48)[0].value
    a_err = min(abs(val - 2j * np.pi), abs(val + 2j * np.pi))

    worst_lat = 0.0
    for t in (g0_triple, g1_triple):
        worst_lat = max(worst_lat, max(psi(t, quad_order=48).lattice_residuals()))
    ok = worst_conv <= 1e-10 and a_err <= 1e-10 and worst_lat <= 1e-9
    _report(
        9,
        ok,
        f"50 self-convergence checks {worst_conv:.2e} (tol 1e-10); "
        f"A-cycle vs oracle {a_err:.2e} (tol 1e-10); lattice residuals {worst_lat:.2e} (tol 1e-9)",
    )


# -- 10: flow consistency ---------------------------------------------------------------


def test_criterion_10_flow(g0_triple):
    t0 = time.perf_counter()
    cfg = FlowConfig(h=1e-2, steps=20, params_rule="basis0", quad_order=32,
                     projection_tol=1e-10)
    samples, status = trace(g0_triple, cfg)
    ints0 = samples[0].lattice_integers
    all_valid = status == "completed" and len(samples) == 21
    worst_res = 0.0
    for s in samples:
        worst_res = max(worst_res, s.psi_residual)
        vec = psi(s.triple, quad_order=32)
        all_valid = all_valid and vec.lattice_integers() == ints0
        all_valid = all_valid and validate(s.triple, quad_order=32).verdict

    # reversibility at small h (the flow example's regime)
    vecs, _ = tangent_basis(g0_triple)
    rule = vecs[0].params
    fwd, st1 = trace(g0_triple, FlowConfig(h=1e-4, steps=5, params_rule=rule,
                                           quad_order=32, projection_tol=1e-11))
    bwd, st2 = trace(fwd[-1].triple, FlowConfig(h=-1e-4, steps=5, params_rule=rule,
                                                quad_order=32, projection_tol=1e-11))
    ret_err = float(np.max(np.abs(pack_triple(bwd[-1].triple) - pack_triple(g0_triple))))

    # d tau / dt against the constructed rate, first order in h
    from whitham.deformation import conformal_type_rate
    from whitham.flow import flow_step

    v = vecs[0].scaled(1.0 / vecs[0].norm())
    rate = conformal_type_rate(g0_triple, v)
    tau0 = conformal_type(g0_triple)
    errs = []
    for h in (2e-3, 1e-3):
        sample = flow_step(g0_triple, v, h, FlowConfig(quad_order=32, projection_tol=1e-11))
        errs.append(abs((conformal_type(sample.triple) - tau0) / h - rate))
    tau_ok = errs[1] < 0.75 * errs[0] + 1e-9 * abs(rate)
    elapsed = time.perf_counter() - t0
    ok = all_valid and st1 == st2 == "completed" and ret_err <= 1e-6 and tau_ok
    _report(
        10,
        ok,
        f"20-step trace validated (max residual {worst_res:.2e}), integers constant; "
        f"fwd-bwd return {ret_err:.2e} (tol 1e-6); dtau/dt halving "
        f"{errs[0]:.2e}->{errs[1]:.2e}; {elapsed:.0f}s",
    )


# -- 11: CLI contract ----------------------------------------------------------------


def test_criterion_11_cli(g0_triple, tmp_path):
    from whitham.cli import main

    good = tmp_path / "good_g0.json"
    good.write_text(json.dumps(g0_triple.to_json_dict()), encoding="utf-8")
    rng = np.random.default_rng(111)
    bad_t = SpectralTriple(
        1,
        pair_poly(0.5) * Polynomial([-1j, 1]),
        random_real_section(rng, 4),
        random_real_section(rng, 4),
    )
    bad = tmp_path / "circle_root.json"
    bad.write_text(json.dumps(bad_t.to_json_dict()), encoding="utf-8")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")

    codes = (
        main(["validate", str(good), "--out", str(tmp_path / "g.json"), "--quad-order", "40"]),
        main(["validate", str(bad), "--out", str(tmp_path / "b.json")]),
        main(["validate", str(garbled)]),
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["validate", str(good), "--out", str(out1), "--quad-order", "40"])
    main(["validate", str(good), "--out", str(out2), "--quad-order", "40"])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = codes == (0, 1, 2) and identical
    _report(
        11,
        ok,
        f"exit codes {codes} (expected (0, 1, 2)); byte-identical reports: {identical}",
    )
