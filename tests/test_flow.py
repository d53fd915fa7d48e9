import numpy as np
import pytest

from whitham.deformation import (
    CaseAParams,
    CaseBLinearParams,
    CaseBQuadParams,
    CaseEParams,
    classify,
    conformal_type_rate,
    tangent_basis,
)
from whitham.errors import ProjectionFailureError
from whitham.flow import (
    FlowConfig,
    flow_step,
    project_to_mg,
    trace,
)
from whitham.polyring import Polynomial
from whitham.spectral import (
    PsiFrame,
    SpectralTriple,
    conformal_type,
    pack_triple,
    psi,
    unpack_triple,
    validate,
)


def test_project_exact_point_unchanged(g0_triple):
    res = project_to_mg(g0_triple, tol=1e-10, quad_order=40)
    assert res.residual < 1e-10
    assert (res.triple.P - g0_triple.P).norm() < 1e-8


def test_project_perturbed_recovers(g0_triple):
    rng = np.random.default_rng(0)
    x = pack_triple(g0_triple)
    noisy = unpack_triple(x + 1e-4 * rng.standard_normal(x.size), 0)
    res = project_to_mg(noisy, tol=1e-10, quad_order=40)
    assert res.residual <= 1e-9
    assert validate(res.triple, quad_order=48).verdict


def test_projection_is_retraction(g0_triple):
    rng = np.random.default_rng(1)
    x = pack_triple(g0_triple)
    noisy = unpack_triple(x + 1e-4 * rng.standard_normal(x.size), 0)
    once = project_to_mg(noisy, tol=1e-10, quad_order=40).triple
    twice = project_to_mg(once, tol=1e-10, quad_order=40).triple
    assert (pack_triple(twice) - pack_triple(once)).max() < 1e-8


def test_capture_radius():
    z = Polynomial.zeta()
    junk = SpectralTriple(0, z, z * Polynomial([10.0, 10.0]), z * Polynomial([3j, -3j]))
    with pytest.raises(ProjectionFailureError, match="capture radius"):
        project_to_mg(junk)


def test_one_round_projection_builds_one_frame(g0_triple, monkeypatch):
    """A projection that converges in its first round builds its frame once
    and walks the guess once, one walk per path: the first round works in
    the frame just built at the guess, without refreshing it, and
    Gauss-Newton starts from the walk that measured the guess."""
    import whitham.spectral as spectral

    frames, walked = [], []
    build, walk_path = PsiFrame.build, spectral.walk_path

    def counted_build(*args, **kwargs):
        frames.append(build(*args, **kwargs))
        return frames[-1]

    def counted_walk(curve, *args, **kwargs):
        walked.append(curve.P)
        return walk_path(curve, *args, **kwargs)

    monkeypatch.setattr(PsiFrame, "build", staticmethod(counted_build))
    monkeypatch.setattr(spectral, "walk_path", counted_walk)
    rng = np.random.default_rng(2)
    x = pack_triple(g0_triple)
    noisy = unpack_triple(x + 1e-6 * rng.standard_normal(x.size), 0)
    res = project_to_mg(noisy, tol=1e-10, quad_order=40)
    assert res.residual < 1e-10
    assert len(frames) == 1
    assert sum(P == noisy.P for P in walked) == len(spectral._psi_paths(frames[0]))


def test_crawling_round_ends_the_solve(monkeypatch):
    """A round that lowers the residual by less than 0.1% ends the chart
    solve even when it stopped at its iteration limit, instead of running
    every remaining round at no real progress."""
    from types import SimpleNamespace

    import whitham.flow as flow

    rounds = []

    def crawling(residual, x0, first, tol):
        prev = rounds[-1] if rounds else 1.0
        rounds.append(prev * (1.0 - 1e-4))
        return flow.GNResult(x0, rounds[-1], [prev, rounds[-1]], "maxiter")

    monkeypatch.setattr(flow, "gauss_newton", crawling)
    monkeypatch.setattr(flow, "_refreshed_frame", lambda old, *args: (old, None))
    chart = (np.zeros(1), lambda x: x, None)
    # the walks at the start, as far as the solve reads them: residual norm 1
    start = SimpleNamespace(vector=SimpleNamespace(flatten=lambda integers: np.ones(1)),
                            jacobian=None)
    with pytest.raises(ProjectionFailureError, match="stalled"):
        flow._chart_solve(chart, (), None, start, 1e-10)
    assert len(rounds) == 1


def test_gauss_newton_assembles_jacobians_only_where_it_steps():
    """``gauss_newton`` calls ``jacobian()`` at the start and at each
    accepted iterate that has not converged, never on a rejected trial
    (inadmissible or not lowering the residual) nor at the converged
    point."""
    import whitham.flow as flow
    from whitham.errors import StepSizeError

    target = np.array([0.05, -0.02])
    evaluations = []  # [residual norm or None, jacobian called]

    def residual(x):
        entry = [None, False]
        evaluations.append(entry)
        if len(evaluations) == 2:
            raise StepSizeError("inadmissible trial")
        r = (x - target) * (10.0 if len(evaluations) == 3 else 1.0)
        entry[0] = float(np.linalg.norm(r))

        def jacobian():
            entry[1] = True
            return np.eye(2)

        return r, jacobian

    x0 = np.zeros(2)
    res = flow.gauss_newton(residual, x0, residual(x0), 1e-12)
    assert res.status == "converged"
    accepted = [e for e in evaluations if e[0] in res.trace]
    assert len(accepted) == len(res.trace) < len(evaluations)
    for norm, called in evaluations:
        assert called == (norm in res.trace and norm > 1e-12)
    assert [called for _, called in evaluations].count(True) == len(res.trace) - 1


def _counted(monkeypatch, name):
    """Count the calls of ``whitham.deformation.<name>`` through every
    ``whitham`` module that binds it."""
    import sys

    import whitham.deformation as deformation

    calls = []
    original = getattr(deformation, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("whitham") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_flow_config_takes_only_known_rules():
    """A rule is ``basis0``, ``basis1`` or fixed deformation parameters; any
    other is refused when the config is built, before a trace starts (at
    ``seed_genus0()``, "basis2" used to raise IndexError inside ``trace``,
    "bogus" TypeError after the start frame, and "basis" meant basis0)."""
    fixed = (CaseAParams(Polynomial([1.0, 0.0, 1.0])), CaseBLinearParams(Polynomial([1.0, 1.0])),
             CaseBQuadParams(1.0, 0.0), CaseEParams(1.0, 0.0))
    for rule in ("basis0", "basis1") + fixed:
        assert FlowConfig(params_rule=rule).params_rule is rule
    for rule in ("basis2", "bogus", "basis", "", None, 0, ["basis0"], CaseAParams):
        with pytest.raises(ValueError, match="params_rule"):
            FlowConfig(params_rule=rule)


@pytest.mark.parametrize("rule", ["basis0", "basis1"])
def test_trace_classifies_each_point_once(g1_triple, rule, monkeypatch):
    """A 3-step trace classifies each of its 4 points once and builds one
    tangent vector per step: the one the rule uses."""
    classified = _counted(monkeypatch, "classify")
    tangents = _counted(monkeypatch, "make_tangent")
    samples, status = trace(g1_triple, FlowConfig(h=1e-2, steps=3, params_rule=rule))
    assert status == "completed" and len(samples) == 4
    assert len(classified) == 4
    assert len(tangents) == 3


def test_fixed_rule_classifies_each_point_once(g0_triple, monkeypatch):
    """The fixed ``CaseAParams`` rule builds one tower per point, from the
    point's own label, for both the R-kernel and the tangent vector."""
    rule = tangent_basis(g0_triple)[0][0].params
    classified = _counted(monkeypatch, "classify")
    tangents = _counted(monkeypatch, "make_tangent")
    samples, status = trace(g0_triple, FlowConfig(h=1e-3, steps=2, params_rule=rule))
    assert status == "completed" and len(samples) == 3
    assert len(classified) == 3
    assert len(tangents) == 2


def test_genus2_common_factor_flow_completes(g2_b_quad):
    """The 3-step ``basis0`` flow from the genus-2 quadratic-G point takes
    every step, and every sample validates.  Its second step is halved
    seven times."""
    assert not isinstance(g2_b_quad, str), g2_b_quad
    samples, status = trace(g2_b_quad, FlowConfig(h=1e-2, steps=3, params_rule="basis0"))
    assert status == "completed"
    assert len(samples) == 4
    for s in samples:
        assert validate(s.triple).verdict, validate(s.triple).failed()
    assert samples[2].t - samples[1].t == pytest.approx(1e-2 / 2**7)


def _scan_script():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "scripts" / "scan_genus1_base_pair.py"
    spec = importlib.util.spec_from_file_location("scan_genus1_base_pair", path)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    return scan


def test_scan_integer_rule_gives_the_quad_start():
    """The scan's integer rule (the rational plane nearest W(P)) returns the
    recorded lattice integers of the genus-2 quadratic-G start, with
    denominator q = 8."""
    from whitham.flow import _CASE_B_STARTS, numerator_space
    from whitham.spectral import product_form

    scan = _scan_script()
    alphas, _, integers = _CASE_B_STARTS["quad"]
    P = product_form(alphas)
    zero = Polynomial.zero()
    frame = PsiFrame.build(SpectralTriple(2, P, zero, zero), quad_order=40)
    N, L = numerator_space(P, 2, frame)
    assert scan.nearest_integers(L @ N, 2) == (integers, 8)


def test_scan_start_factor_keeps_off_the_unit_circle():
    """A first numerator whose in-disc roots both lie within ``HEALTH_FLOOR``
    of the unit circle gives no start factor; one root well inside does."""
    from whitham.polyring import roots_flat
    from whitham.spectral import pack_section, product_form

    scan = _scan_script()
    near = [0.995 * np.exp(0.7j), 0.995 * np.exp(-2.1j)]
    second = pack_section(product_form([0.994 * np.exp(0.71j), 0.3]), 4)
    N = np.column_stack([pack_section(product_form(near), 4), second])
    assert scan._start_factor(N) is None
    N[:, 0] = pack_section(product_form([near[0], 0.5]), 4)
    G = scan._start_factor(N)
    assert min(abs(abs(z) - 0.5) for z in roots_flat(G)) < 1e-9


def test_seed_genus0_validates(g0_triple):
    rep = validate(g0_triple, quad_order=48)
    assert rep.verdict, rep.failed()
    assert classify(g0_triple).label == "a"


def test_seed_conformal_genus0_validates(g0_conformal):
    rep = validate(g0_conformal, quad_order=48)
    assert rep.verdict, rep.failed()
    assert classify(g0_conformal).label == "e"


def test_flow_step_zero_stays(g0_triple):
    vecs, _ = tangent_basis(g0_triple)
    cfg = FlowConfig(quad_order=32, projection_tol=1e-10)
    sample, taken = flow_step(g0_triple, vecs[0], 0.0, cfg)
    assert (pack_triple(sample.triple) - pack_triple(g0_triple)).max() < 1e-8


def test_predictor_second_order(g0_triple):
    # || Psi(x + h v) - targets || should scale like h^2 along a tangent
    vecs, _ = tangent_basis(g0_triple)
    v = vecs[0].scaled(1.0 / vecs[0].norm())
    frame = PsiFrame.build(g0_triple, quad_order=48)
    ints = psi(g0_triple, frame=frame).lattice_integers()
    x = pack_triple(g0_triple)
    from whitham.flow import _tangent_pack

    dv = _tangent_pack(v, 0)
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        pred = unpack_triple(x + h * dv, 0)
        errs.append(np.linalg.norm(psi(pred, frame=frame).flatten(ints)))
    assert errs[1] / errs[0] < 0.4  # ~0.25 for clean O(h^2)
    assert errs[2] / errs[1] < 0.4


def test_trace_zero_steps(g0_triple):
    samples, status = trace(g0_triple, FlowConfig(steps=0, quad_order=32))
    assert len(samples) == 1
    assert status == "completed"
    assert samples[0].case == "a"


def test_trace_short_flow(g0_triple):
    cfg = FlowConfig(h=1e-2, steps=5, params_rule="basis0", quad_order=32,
                     projection_tol=1e-10)
    samples, status = trace(g0_triple, cfg)
    assert status == "completed"
    assert len(samples) == 6
    ints0 = samples[0].lattice_integers
    for s in samples:
        assert s.psi_residual < 1e-9
        assert psi(s.triple, quad_order=32).lattice_integers() == ints0
        assert validate(s.triple, quad_order=32).verdict
    # the path actually moves
    assert (pack_triple(samples[-1].triple) - pack_triple(samples[0].triple)).max() > 1e-4


@pytest.mark.parametrize("rule", ["basis0", "basis1"])
@pytest.mark.parametrize("seed", ["g0_triple", "g1_triple"])
def test_flow_from_a_roundoff_moved_input_follows_the_same_path(seed, rule, request):
    """A 3-step flow from an input moved by 1e-12 keeps every sample within
    1e-8 of the unmoved flow's, in the point and in t: the tangent basis
    follows R's row direction, so roundoff cannot flip the step."""
    start = request.getfixturevalue(seed)
    cfg = FlowConfig(h=1e-2, steps=3, params_rule=rule)
    base, status = trace(start, cfg)
    assert status == "completed"
    x = pack_triple(start)
    rng = np.random.default_rng(11)
    moved_x = x + 1e-12 * rng.standard_normal(x.size)
    moved, status = trace(unpack_triple(moved_x, start.g), cfg)
    assert status == "completed"
    assert len(moved) == len(base)
    for a, b in zip(base, moved):
        assert np.abs(pack_triple(a.triple) - pack_triple(b.triple)).max() <= 1e-8
        assert abs(a.t - b.t) <= 1e-8


def test_project_to_mg_trace_runs_from_the_start_residual_to_the_result(g0_triple):
    """The projection's trace starts at the residual of the guess against
    its nearest lattice points and ends at the returned residual."""
    rng = np.random.default_rng(4)
    x = pack_triple(g0_triple)
    noisy = unpack_triple(x + 1e-4 * rng.standard_normal(x.size), 0)
    res = project_to_mg(noisy, tol=1e-10, quad_order=40)
    r0 = float(np.linalg.norm(psi(noisy, quad_order=40).flatten()))
    assert len(res.trace) > 1
    assert res.trace[0] == r0
    assert res.trace[-1] == res.residual <= 1e-9


def test_trace_reversibility_small_h(g0_triple):
    # a fixed kernel-projected parameter rule gives a continuous direction
    # field, so forward/backward traces retrace each other to O(h^2)
    vecs, _ = tangent_basis(g0_triple)
    rule = vecs[0].params
    cfg_fwd = FlowConfig(h=1e-4, steps=3, params_rule=rule, quad_order=32,
                         projection_tol=1e-11)
    fwd, status = trace(g0_triple, cfg_fwd)
    assert status == "completed"
    cfg_bwd = FlowConfig(h=-1e-4, steps=3, params_rule=rule, quad_order=32,
                         projection_tol=1e-11)
    bwd, status = trace(fwd[-1].triple, cfg_bwd)
    assert status == "completed"
    err = np.max(np.abs(pack_triple(bwd[-1].triple) - pack_triple(g0_triple)))
    assert err < 1e-6


def test_tau_drift_matches_rate(g0_triple):
    vecs, _ = tangent_basis(g0_triple)
    v = vecs[0].scaled(1.0 / vecs[0].norm())
    rate = conformal_type_rate(g0_triple, v)
    tau0 = conformal_type(g0_triple)
    errs = []
    for h in (2e-3, 1e-3):
        cfg = FlowConfig(h=h, steps=1, params_rule="basis0", quad_order=32,
                         projection_tol=1e-11)
        sample, _ = flow_step(g0_triple, v, h, cfg)
        fd = (conformal_type(sample.triple) - tau0) / h
        errs.append(abs(fd - rate))
    # first-order accurate: halving h roughly halves the defect
    assert errs[1] < 0.75 * errs[0] + 1e-9 * abs(rate)


def _split_integers(integers, g):
    """Per-differential lattice integers (A.., B.., gamma+, gamma-) from the
    order of ``psi``."""
    n = np.asarray(integers, dtype=float)
    return (
        np.concatenate([n[: 2 * g], n[4 * g : 4 * g + 2]]),
        np.concatenate([n[2 * g : 4 * g], n[4 * g + 2 :]]),
    )


def test_numerator_space_holds_the_numerators(g1_triple):
    """b1, b2 of an admissible triple lie in the two-dimensional space V(P),
    and the lattice map sends them to their integers (A-rows vanish)."""
    from whitham.flow import numerator_space
    from whitham.spectral import pack_section

    g = g1_triple.g
    frame = PsiFrame.build(g1_triple, quad_order=40)
    N, L = numerator_space(g1_triple.P, g, frame)
    assert N.shape == (g + 4, 2)
    assert np.abs(L[:g] @ N).max() < 1e-10
    ints = psi(g1_triple, frame=frame).lattice_integers()
    for b, n in zip((g1_triple.b1, g1_triple.b2), _split_integers(ints, g)):
        x = pack_section(b, g + 3)
        assert np.linalg.norm(x - N @ (N.T @ x)) < 1e-9 * np.linalg.norm(x)
        assert np.abs(L @ x - n).max() < 1e-9


def test_confirm_case_b_rejects_case_a(g1_triple):
    from whitham.flow import confirm_case_b

    with pytest.raises(ProjectionFailureError, match=r"classified \(a\)"):
        confirm_case_b(g1_triple, 1)


@pytest.mark.parametrize("kind, genus, d_G", [("linear", 1, 1), ("quad", 2, 2)])
def test_common_factor_seed(kind, genus, d_G, g1_b_linear, g2_b_quad):
    """The case-(b) seeds are confirmed points on the recorded lattice
    integers, and a fresh construction returns the identical triple.  The
    integers are read in a frame continued from the start curve's: the
    solve runs in that frame, and the branch points move far enough that a
    frame built afresh may pick another homology basis."""
    from whitham.flow import _CASE_B_STARTS, _geometry_margin, seed_common_factor
    from whitham.spectral import product_form

    t = {"linear": g1_b_linear, "quad": g2_b_quad}[kind]
    assert not isinstance(t, str), t
    assert t.g == genus
    lab = classify(t)
    assert lab.label == "b" and lab.factors.G.degree == d_G and not lab.warnings
    assert validate(t, quad_order=40).verdict
    assert _geometry_margin(t) >= 0.02
    alphas, _, integers = _CASE_B_STARTS[kind]
    zero = Polynomial.zero()
    start = PsiFrame.build(SpectralTriple(genus, product_form(alphas), zero, zero), quad_order=40)
    frame = PsiFrame.build(t, quad_order=40, like=start)
    assert psi(t, frame=frame).lattice_integers() == integers
    assert seed_common_factor(kind).to_json_dict() == t.to_json_dict()


@pytest.mark.parametrize("kind, d_G", [("linear", 1), ("quad", 2)])
def test_common_factor_chart_jacobian(kind, d_G, g1_b_linear, g2_b_quad):
    """The (P, G, m1, m2) chart's Jacobian (the exact Psi Jacobian in a fixed
    frame times the chart derivative) against a central difference of the
    residual on the chart."""
    from whitham.flow import _common_factor_chart
    from whitham.polyring import approx_gcd, real_section_scale
    from whitham.spectral import psi_walks

    t = {"linear": g1_b_linear, "quad": g2_b_quad}[kind]
    assert not isinstance(t, str), t
    G, _ = real_section_scale(approx_gcd(t.b1, t.b2))
    assert G.degree == d_G
    frame = PsiFrame.build(t, quad_order=40)
    integers = psi(t, frame=frame).lattice_integers()
    x0, make_triple, chart_derivative = _common_factor_chart(t, G)

    def residual(x):
        return psi_walks(make_triple(x), frame).vector.flatten(integers)

    r = residual(x0)
    J = psi_walks(make_triple(x0), frame).jacobian() @ chart_derivative(x0)
    cols = []
    for j in range(x0.size):
        dx = 1e-7 * max(1.0, abs(x0[j]))
        e = np.zeros(x0.size)
        e[j] = dx
        cols.append((residual(x0 + e) - residual(x0 - e)) / (2 * dx))
    J_fd = np.column_stack(cols)
    assert J.shape == J_fd.shape == (r.size, x0.size)
    assert np.abs(J - J_fd).max() <= 1e-8 * np.abs(J_fd).max()
