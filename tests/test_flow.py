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
    lattice_order,
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
    Gauss-Newton starts from the walk that measured the guess.  Paths are
    counted as they enter the stacked walk."""
    import whitham.spectral as spectral

    frames, walked = [], []
    build, walk_paths = PsiFrame.build, spectral.walk_paths

    def counted_build(*args, **kwargs):
        frames.append(build(*args, **kwargs))
        return frames[-1]

    def counted_walk(curves, paths, *args, **kwargs):
        walked.extend(curve.P for curve, group in zip(curves, paths) for _ in group)
        return walk_paths(curves, paths, *args, **kwargs)

    monkeypatch.setattr(PsiFrame, "build", staticmethod(counted_build))
    monkeypatch.setattr(spectral, "walk_paths", counted_walk)
    rng = np.random.default_rng(2)
    x = pack_triple(g0_triple)
    noisy = unpack_triple(x + 1e-6 * rng.standard_normal(x.size), 0)
    res = project_to_mg(noisy, tol=1e-10, quad_order=40)
    assert res.residual < 1e-10
    assert len(frames) == 1
    assert sum(P == noisy.P for P in walked) == len(spectral._psi_paths(frames[0].basis))


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
        return flow.GNResult(x0, rounds[-1], [prev, rounds[-1]], "maxiter", first)

    monkeypatch.setattr(flow, "gauss_newton", crawling)
    monkeypatch.setattr(flow, "_refreshed_frame", lambda old, *args: (old, None))
    chart = (np.zeros(1), lambda x: x, None)
    # the walks at the start, as far as the solve reads them: residual norm 1
    start = SimpleNamespace(vector=SimpleNamespace(flatten=lambda integers: np.ones(1)),
                            jacobian=None)
    with pytest.raises(ProjectionFailureError, match="stalled"):
        flow._chart_solve(chart, (), start, 1e-10)
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
    every step, every sample validates, and every sample after the start
    has a tangent basis (its step-1 point once failed the reality check of
    ``bezout.realify`` there).  Its second step is halved seven times."""
    assert not isinstance(g2_b_quad, str), g2_b_quad
    samples, status = trace(g2_b_quad, FlowConfig(h=1e-2, steps=3, params_rule="basis0"))
    assert status == "completed"
    assert len(samples) == 4
    for s in samples:
        assert validate(s.triple).verdict, validate(s.triple).failed()
    for s in samples[1:]:
        vectors, gram = tangent_basis(s.triple)
        assert len(vectors) == 2 and gram > 0.0
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


def test_seed_genus0_fits_its_closings_from_one_walk(monkeypatch):
    """``seed_genus0`` walks its two closing paths once, as one stack, for
    both trial numerators."""
    import whitham.flow as flow

    walked = []
    walk_paths = flow.walk_paths

    def counted_walk(curves, paths, *args, **kwargs):
        walked.append(sum(map(len, paths)))
        return walk_paths(curves, paths, *args, **kwargs)

    monkeypatch.setattr(flow, "walk_paths", counted_walk)
    flow.seed_genus0()
    assert walked == [2]


def test_seed_conformal_genus0_validates(g0_conformal):
    rep = validate(g0_conformal, quad_order=48)
    assert rep.verdict, rep.failed()
    assert classify(g0_conformal).label == "e"


def test_flow_step_zero_stays(g0_triple):
    vecs, _ = tangent_basis(g0_triple)
    cfg = FlowConfig(quad_order=32, projection_tol=1e-10)
    sample = flow_step(g0_triple, vecs[0], 0.0, cfg)
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


def test_trace_refuses_a_start_off_the_lattice(tmp_path, monkeypatch):
    """A genus-3 case-(a) triple with random numerators has a Psi residual
    of about 45, far outside the capture radius: the flow stops at step 0
    with a status naming the residual and the radius, without taking a
    step, and the CLI exits 3."""
    import json

    import whitham.flow as flow
    from whitham.cli import main
    from whitham.polyring import random_real_section
    from whitham.spectral import product_form

    rng = np.random.default_rng(2018)
    P = product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j])
    start = SpectralTriple(3, P, random_real_section(rng, 6), random_real_section(rng, 6))

    def no_step(*args, **kwargs):
        raise AssertionError("flow_step called at a start off the lattice")

    monkeypatch.setattr(flow, "flow_step", no_step)
    stacks = _counted_stacks(monkeypatch)
    samples, status = trace(start, FlowConfig(steps=3))
    # the predictor walked beside the start is discarded
    assert [len(pairs) for pairs in stacks] == [2]
    (sample,) = samples
    assert sample.psi_residual > 10 * flow.CAPTURE_RADIUS
    assert status == (f"stopped at step 0: start residual {sample.psi_residual:.3e} outside "
                      f"the capture radius {flow.CAPTURE_RADIUS}")
    f = tmp_path / "off.json"
    f.write_text(json.dumps(start.to_json_dict()), encoding="utf-8")
    out = tmp_path / "flow.jsonl"
    assert main(["flow", str(f), "--steps", "3", "--out", str(out)]) == 3
    assert json.loads(out.read_text().splitlines()[-1]) == {"status": status}


def _counted_stacks(monkeypatch):
    """The pairs of every ``psi_stack`` call that ``trace`` makes."""
    import whitham.flow as flow

    stacks, psi_stack = [], flow.psi_stack

    def counted(pairs, *args, **kwargs):
        stacks.append(list(pairs))
        return psi_stack(pairs, *args, **kwargs)

    monkeypatch.setattr(flow, "psi_stack", counted)
    return stacks


def test_step_0_walks_the_start_and_its_predictor_as_one_stack(g0_triple, monkeypatch):
    """At step 0 the start and the first predictor are walked in one
    ``psi_stack``, and the step equals ``flow_step`` walking its predictor
    itself, bit for bit."""
    from whitham.flow import _rule_tangent

    stacks = _counted_stacks(monkeypatch)
    cfg = FlowConfig(h=1e-2, steps=1)
    samples, status = trace(g0_triple, cfg)
    assert status == "completed" and len(stacks) == 1
    (start, _), (predictor, _) = stacks[0]
    assert start is g0_triple and predictor.P != g0_triple.P
    v = _rule_tangent(g0_triple, samples[0].label, cfg.params_rule, None)
    alone = flow_step(g0_triple, v, cfg.h, cfg, samples[0].lattice_integers)
    assert pack_triple(alone.triple).tobytes() == pack_triple(samples[1].triple).tobytes()
    assert (alone.t, alone.psi_residual) == (samples[1].t, samples[1].psi_residual)


@pytest.mark.parametrize("walk_fails, classify_fails", [(True, False), (True, True), (False, True)])
def test_a_start_that_fails_raises_its_walk_error_first(g0_triple, walk_fails, classify_fails,
                                                        monkeypatch):
    """A start whose walk raises makes ``trace`` raise the error, class and
    message, that walking it alone raises, also when classifying it raises
    too; a start whose walk passes raises its classification's error."""
    import whitham.curve as curve_mod
    import whitham.flow as flow
    from whitham.errors import GeometryError, InternalInconsistencyError, WhithamError
    from whitham.spectral import psi_walks

    if walk_fails:
        # every subdivision against the start's singular set fails, as at a
        # start whose paths pass through a branch point
        alpha = curve_mod.build_curve(g0_triple.P).branch_pairs[0][0]
        subdivide = curve_mod._subdivide

        def failing(paths, sing):
            if np.any(sing == alpha):
                raise GeometryError("integration path passes through a singular point")
            return subdivide(paths, sing)

        monkeypatch.setattr(curve_mod, "_subdivide", failing)
    if classify_fails:
        def no_label(triple):
            raise InternalInconsistencyError("no label")

        monkeypatch.setattr(flow, "classify", no_label)
    with pytest.raises(WhithamError) as alone:
        psi_walks(g0_triple, PsiFrame.build(g0_triple))
        flow.classify(g0_triple)
    with pytest.raises(type(alone.value)) as raised:
        trace(g0_triple, FlowConfig(steps=1))
    assert str(raised.value) == str(alone.value)


def test_a_non_deformable_start_stops_at_step_0(monkeypatch):
    """A case-(c) start gives one sample, its Psi residual from a walk of
    the start alone, and the status of its tower's error."""
    from whitham.deformation import build_tower
    from whitham.errors import NotDeformableError
    from whitham.polyring import random_real_section
    from whitham.spectral import product_form

    rng = np.random.default_rng(3)
    F = product_form([0.35 + 0.1j])
    start = SpectralTriple(2, F * product_form([0.5, -0.4]), F * random_real_section(rng, 3),
                           F * random_real_section(rng, 3))
    with pytest.raises(NotDeformableError) as refused:
        build_tower(start)
    stacks = _counted_stacks(monkeypatch)
    samples, status = trace(start, FlowConfig(steps=2))
    (sample,) = samples
    assert sample.case == "c" and status == f"stopped at step 0: {refused.value}"
    assert [len(pairs) for pairs in stacks] == [1]
    vec = psi(start, frame=PsiFrame.build(start))
    assert sample.psi_residual == float(np.linalg.norm(vec.flatten()))


def test_a_first_predictor_without_a_frame_halves_the_step(g0_triple, monkeypatch):
    """When the frame of step 0's first predictor cannot be built, the step
    halves, as for any failed try."""
    from whitham.errors import PathConstructionError

    built, build = [], PsiFrame.build

    def second_fails(*args, **kwargs):
        built.append(1)
        if len(built) == 2:
            raise PathConstructionError("no frame at the first predictor")
        return build(*args, **kwargs)

    monkeypatch.setattr(PsiFrame, "build", staticmethod(second_fails))
    samples, status = trace(g0_triple, FlowConfig(h=1e-2, steps=1))
    assert status == "completed" and samples[1].t == 0.5e-2


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
    noisy = unpack_triple(x + 3e-3 * rng.standard_normal(x.size), 0)
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
        sample = flow_step(g0_triple, v, h, cfg)
        fd = (conformal_type(sample.triple) - tau0) / h
        errs.append(abs(fd - rate))
    # first-order accurate: halving h roughly halves the defect
    assert errs[1] < 0.75 * errs[0] + 1e-9 * abs(rate)


def _split_integers(integers, g):
    """Per-differential lattice integers (A.., B.., gamma+, gamma-) from the
    order of ``psi``."""
    n = np.asarray(integers, dtype=float)
    differential = lattice_order(g)[:, 0]
    return n[differential == 0], n[differential == 1]


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


def test_a_kept_frame_starts_the_next_round_from_the_last_accepted_walk(g0_triple, monkeypatch):
    """When the refreshed frame is rejected, the next round starts from the
    previous round's last accepted evaluation instead of walking the same
    iterate in the same frame again: a solve of one-step rounds in one
    kept frame walks once at the start and once per Gauss-Newton trial,
    one walk fewer per kept round, and each round's first residual and
    Jacobian are those of a fresh walk of its iterate."""
    import whitham.flow as flow
    import whitham.spectral as spectral
    from whitham.spectral import psi_walks

    walks, trials, rounds = [], [], []
    gauss_newton, walk_paths = flow.gauss_newton, spectral.walk_paths

    def counted_walk(*args, **kwargs):
        walks.append(1)
        return walk_paths(*args, **kwargs)

    def counted_gauss_newton(residual, x0, first, tol):
        rounds.append((x0, first))

        def counted_residual(x):
            trials.append(1)
            return residual(x)

        return gauss_newton(counted_residual, x0, first, tol)

    monkeypatch.setattr(flow, "ROUND_ITERATIONS", 1)
    monkeypatch.setattr(flow, "_refreshed_frame", lambda old, *args: (old, None))
    monkeypatch.setattr(flow, "gauss_newton", counted_gauss_newton)
    monkeypatch.setattr(spectral, "walk_paths", counted_walk)
    rng = np.random.default_rng(4)
    x = pack_triple(g0_triple)
    noisy = unpack_triple(x + 3e-3 * rng.standard_normal(x.size), 0)
    res = project_to_mg(noisy, tol=1e-10, quad_order=40)
    assert res.residual < 1e-10
    assert len(rounds) >= 3
    assert len(walks) == 1 + len(trials)
    frame = PsiFrame.build(noisy, quad_order=40)
    integers = psi(noisy, frame).lattice_integers()
    for x_round, (r, jacobian, _) in rounds:
        fresh = psi_walks(unpack_triple(x_round, 0), frame)
        assert np.array_equal(r, fresh.vector.flatten(integers))
        assert np.array_equal(jacobian(), fresh.jacobian())


@pytest.mark.parametrize("seed", ["g0_triple", "g1_triple"])
def test_one_step_flow_builds_two_frames_and_subdivides_once(seed, request, monkeypatch):
    """A one-step flow builds two frames, the start's and the predictor's,
    and subdivides once: the start and the predictor are walked as one
    stack, and every later walk in the predictor's frame takes over the
    predictor's quadrature grid from its walk in that stack."""
    import whitham.curve as curve_mod

    frames, subdivided = [], []
    build, subdivide = PsiFrame.build, curve_mod._subdivide

    def counted_build(*args, **kwargs):
        frames.append(1)
        return build(*args, **kwargs)

    def counted_subdivide(*args, **kwargs):
        subdivided.append(1)
        return subdivide(*args, **kwargs)

    monkeypatch.setattr(PsiFrame, "build", staticmethod(counted_build))
    monkeypatch.setattr(curve_mod, "_subdivide", counted_subdivide)
    samples, status = trace(request.getfixturevalue(seed), FlowConfig(steps=1))
    assert status == "completed" and len(samples) == 2
    assert len(frames) == 2 and len(subdivided) == 1
