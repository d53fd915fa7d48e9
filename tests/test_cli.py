import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitham.cli import main
from whitham.polyring import Polynomial
from whitham.spectral import SpectralTriple


@pytest.fixture(scope="module")
def good_file(tmp_path_factory, g0_triple):
    p = tmp_path_factory.mktemp("cli") / "good_g0.json"
    p.write_text(json.dumps(g0_triple.to_json_dict()), encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def circle_root_file(tmp_path_factory):
    # simple root on the unit circle: P.2 fails but everything parses
    P = Polynomial([-1j, 1]) * Polynomial([-0.5, 1]) * Polynomial([1, -0.5])
    rng = np.random.default_rng(0)
    from whitham.polyring import random_real_section

    t = SpectralTriple(1, P, random_real_section(rng, 4), random_real_section(rng, 4))
    p = tmp_path_factory.mktemp("cli") / "circle_root.json"
    p.write_text(json.dumps(t.to_json_dict()), encoding="utf-8")
    return p


def test_validate_pass_exit0(good_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", str(good_file), "--out", str(out), "--quad-order", "40"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"


def test_validate_fail_exit1(circle_root_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", str(circle_root_file), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    names = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "P2_no_circle_roots" in names


def test_validate_flags_lattice_checks_the_quadrature_cannot_resolve(g1_triple, tmp_path):
    """At --quad-order 8 the genus-1 seed's quadrature error estimate
    (about 5e-4) is far above tol.integral: every lattice check fails, and
    each one whose residual alone would pass is marked unresolved.  At the
    default order the seed passes and no check is marked."""
    f = tmp_path / "g1.json"
    f.write_text(json.dumps(g1_triple.to_json_dict()), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["validate", str(f), "--out", str(out), "--quad-order", "8"]) == 1
    checks = json.loads(out.read_text())["checks"]
    lattice = [c for c in checks if c["name"].startswith(("P6", "P7"))]
    assert len(lattice) == 8 and not any(c["passed"] for c in lattice)
    for c in lattice:
        assert c["details"]["quad_error"] > c["tolerance"]
        assert c["details"].get("unresolved", False) == (c["residual"] <= c["tolerance"])
    assert any(c["details"].get("unresolved") for c in lattice)
    assert all(c["passed"] for c in checks if c not in lattice)
    assert main(["validate", str(f), "--out", str(out)]) == 0
    assert not any("unresolved" in c.get("details", {})
                   for c in json.loads(out.read_text())["checks"])


def test_parse_error_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    missing_key = tmp_path / "missing.json"
    missing_key.write_text('{"genus": 0}', encoding="utf-8")
    assert main(["validate", str(missing_key)]) == 2
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    pairs = [[0.5, 0.0], [1.0, 0.0]]
    malformed = {
        "top_level_list": [1, 2, 3],
        "null_genus": {"genus": None, "P": pairs, "b1": pairs, "b2": pairs},
        "short_pair": {"genus": 0, "P": [[1]], "b1": pairs, "b2": pairs},
        "string_coeffs": {"genus": 0, "P": "abc", "b1": pairs, "b2": pairs},
        "negative_genus": {"genus": -1, "P": pairs, "b1": pairs, "b2": pairs},
        "overlong_P": {"genus": 0, "P": [[0.5, 0.0]] * 5, "b1": pairs, "b2": pairs},
    }
    for name, data in malformed.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(data), encoding="utf-8")
        for command in ("validate", "classify", "tangent", "flow"):
            assert main([command, str(f)]) == 2, (name, command)


def test_rootless_P_is_a_failed_curve(tmp_path):
    """A P without branch points fails the curve check in ``validate`` and is
    a numerical failure for ``tangent`` and ``flow``, never a traceback."""
    pairs = [[0.5, 0.0], [1.0, 0.0]]
    f = tmp_path / "rootless.json"
    f.write_text(
        json.dumps({"genus": 1, "P": [[1, 0]], "b1": pairs, "b2": pairs}), encoding="utf-8"
    )
    out = tmp_path / "report.json"
    assert main(["validate", str(f), "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["curve"]["passed"]
    assert "no branch points" in checks["curve"]["error"]
    assert main(["tangent", str(f)]) == 3
    assert main(["flow", str(f)]) == 3
    assert main(["classify", str(f)]) in (0, 1, 2, 3)


def _scaled(t, p, b1, b2):
    """The triple with P, b1 and b2 multiplied by p, b1 and b2."""
    return SpectralTriple(t.g, t.P * p, t.b1 * b1, t.b2 * b2)


@pytest.mark.parametrize("seed, factors", [
    # b1 shrunk until a tangent vector's norm squared passes the largest float
    ("g0_conformal", (1.0, 1e-160, 1.0)),
    # the exact Jacobian's scaling row divides by P_m squared, beyond the
    # largest float
    ("g1_b_linear", (10**193.66381858313736, 10**248.54647189169782, 10**241.38933742690062)),
])
def test_overflowing_squares_end_in_an_exit_code(seed, factors, request, tmp_path):
    """``tangent`` and ``flow --steps 1`` at a seed point scaled so that a
    square leaves the float range exit with a contract code, and no
    exception escapes ``main``; a Gauss-Newton trial that overflows is a
    rejected trial, never an input error."""
    t = request.getfixturevalue(seed)
    assert not isinstance(t, str), t
    f = tmp_path / "scaled.json"
    f.write_text(json.dumps(_scaled(t, *factors).to_json_dict()), encoding="utf-8")
    assert main(["tangent", str(f)]) == 0
    assert main(["flow", str(f), "--steps", "1"]) in (0, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed, exponents", [
    # R's row: a Bezout solution of the reduced Q-equation overflows
    ("g0_triple", (228.13, -107.9, 74.27)),
    # the Q-equation's solve at the first tangent parameter overflows
    ("g0_conformal", (98.11, -103.64, -249.25)),
])
def test_an_overflowing_bezout_solution_is_a_numerical_failure(seed, exponents, request,
                                                               tmp_path, capsys):
    """``tangent`` at a seed point with P, b1 and b2 multiplied by 10**u, where
    a Bezout solution leaves the float range, exits 3 with a numerical
    failure, not 2 with an input error (numpy's overflow warnings on the
    way are not raised here)."""
    t = request.getfixturevalue(seed)
    f = tmp_path / "scaled.json"
    f.write_text(json.dumps(_scaled(t, *(10.0**u for u in exponents)).to_json_dict()),
                 encoding="utf-8")
    assert main(["tangent", str(f)]) == 3
    assert "numerical failure: Bezout solution is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed, exponents, command, message", [
    # the right-hand sides of the deformation identities (solve_empdi)
    ("g1_triple", (148.53, -16.03, -98.48), "tangent", "deformation identity right-hand side"),
    # the products of solve_q_equation
    ("g2_b_quad", (-188.55, 233.57, 78.88), "tangent", "Q-equation solution"),
    # the scaling fix's product_form_dot
    ("g2_b_quad", (-44.52, -130.26, -230.97), "tangent", "product form derivative"),
    # the conformal pin of s_0 (solve_empdi, per vector)
    ("g0_conformal", (55.52, -20.48, -182.57), "tangent", "conformal residue pin"),
    # the lattice integers of a NaN start residual (flow.trace)
    ("g0_triple", (-201.65, 233.91, -142.5), "flow", "Psi is not finite"),
])
def test_an_overflow_outside_the_bezout_solve_is_a_numerical_failure(seed, exponents, command,
                                                                     message, request, tmp_path,
                                                                     capsys):
    """At a seed point with P, b1 and b2 multiplied by 10**u, where a
    product of the tangent construction leaves the float range, or Psi at
    the start of a flow is not finite, ``tangent`` and ``flow --steps 1``
    exit 3 with a numerical failure, not 2 with an input error."""
    t = request.getfixturevalue(seed)
    assert not isinstance(t, str), t
    f = tmp_path / "scaled.json"
    f.write_text(json.dumps(_scaled(t, *(10.0**u for u in exponents)).to_json_dict()),
                 encoding="utf-8")
    for cmd in (("tangent",), ("flow", "--steps", "1")):
        capsys.readouterr()
        assert main([cmd[0], str(f), *cmd[1:]]) == 3, cmd
        if cmd[0] == command:
            assert f"numerical failure: {message}" in capsys.readouterr().err


FUZZ_COMMANDS = (("validate",), ("classify",), ("tangent",), ("flow", "--steps", "2"), ("plot",))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.tuples(*[st.floats(-250, 250)] * 3),
       st.sampled_from(["scaled", "cut short", "zeroed"]))
def test_scaled_seed_points_never_raise(tmp_path_factory, g0_triple, g0_conformal, g1_triple,
                                        g1_b_linear, g2_b_quad, seed, exponents, shape):
    """At a seed point (drawn from the five) with P, b1 and b2 multiplied by
    10**u for u in [-250, 250], also with each coefficient list cut short
    by one pair or with every coefficient zeroed, every command exits with
    a contract code and no exception escapes ``main``; a scaled point is
    well-formed input, so ``tangent`` and ``flow`` never call it an input
    error."""
    t = (g0_triple, g0_conformal, g1_triple, g1_b_linear, g2_b_quad)[seed]
    assert not isinstance(t, str), t
    d = _scaled(t, *(10.0**u for u in exponents)).to_json_dict()
    for key in ("P", "b1", "b2"):
        if shape == "cut short":
            d[key] = d[key][:-1]
        elif shape == "zeroed":
            d[key] = [[0.0, 0.0] for _ in d[key]]
    f = tmp_path_factory.getbasetemp() / "scaled_seed.json"
    f.write_text(json.dumps(d), encoding="utf-8")
    for cmd in FUZZ_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            # numpy's overflow warnings, which the command line prints, are not
            # raised here as the suite's warning filter would raise them
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([cmd[0], str(f), *cmd[1:]])
        assert code in (0, 1, 2, 3), (cmd, code)
        if shape == "scaled" and cmd[0] in ("tangent", "flow"):
            assert code != 2, (cmd, exponents)


def test_usage_error_exit2():
    assert main(["not-a-command"]) == 2
    assert main([]) == 2


def test_byte_identical_reports(good_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["validate", str(good_file), "--out", str(out1)]) == 0
    assert main(["validate", str(good_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_command(good_file, tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify", str(good_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["case"] == "a"
    assert data["deformable"] is True


def test_tangent_command(good_file, tmp_path):
    out = tmp_path / "t.json"
    assert main(["tangent", str(good_file), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["deformable"] is True
    assert len(data["vectors"]) == 2
    assert data["gram_determinant"] > 1e-8
    for v in data["vectors"]:
        assert v["residuals"]["empd1"] < 1e-9


def test_tangent_warns_off_the_residue_condition(
    tmp_path, g0_triple, g0_conformal, g1_triple, g1_b_linear, g2_b_quad
):
    """``tangent`` names each numerator that fails the P4 residue test of
    ``validate``, and keeps its exit code; the seed points are residue-free."""
    from whitham.polyring import random_real_section

    rng = np.random.default_rng(0)
    P = Polynomial.one()
    for a in (0.3 + 0.05j, 0.5j, -0.45 + 0.2j):
        P = P * Polynomial([-a, 1.0]) * Polynomial([1.0, -np.conj(a)])
    genus2 = SpectralTriple(2, P, random_real_section(rng, 5), random_real_section(rng, 5))
    seeds = [g0_triple, g0_conformal, g1_triple, g1_b_linear, g2_b_quad]
    for k, t in enumerate([genus2] + seeds):
        f = tmp_path / f"t{k}.json"
        f.write_text(json.dumps(t.to_json_dict()), encoding="utf-8")
        out = tmp_path / f"r{k}.json"
        assert main(["tangent", str(f), "--out", str(out)]) == 0
        warnings = json.loads(out.read_text())["warnings"]
        if t is genus2:
            assert [w.split()[0] for w in warnings] == ["b1", "b2"]
        else:
            assert warnings == []


def test_tangent_not_deformable_exit1(tmp_path):
    from whitham.polyring import random_real_section

    rng = np.random.default_rng(1)
    G = Polynomial([-1j, 1]) * Polynomial([-0.4, 1]) * Polynomial([1, -0.4])
    t = SpectralTriple(
        2,
        Polynomial([-0.5, 1]) * Polynomial([1, -0.5]) * Polynomial([-0.3j, 1])
        * Polynomial([1, 0.3j]) * Polynomial([0.25, 1]) * Polynomial([1, 0.25]),
        G * random_real_section(rng, 2),
        G * random_real_section(rng, 2) * 1j,
    )
    f = tmp_path / "case_d.json"
    f.write_text(json.dumps(t.to_json_dict()), encoding="utf-8")
    out = tmp_path / "t.json"
    assert main(["tangent", str(f), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["deformable"] is False


def test_oracle_command(tmp_path):
    out = tmp_path / "o.json"
    assert main(["oracle", "--seed", "7", "--count", "25", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "pass"
    assert data["seed"] == 7
    assert data["bezout_vs_dense_max_error"] <= 1e-8


def test_plot_command(good_file, tmp_path):
    out = tmp_path / "plot.svg"
    assert main(["plot", str(good_file), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_flow_command_jsonl_and_csv(good_file, tmp_path):
    out = tmp_path / "flow.jsonl"
    code = main(
        ["flow", str(good_file), "--steps", "2", "--dt", "0.005",
         "--out", str(out), "--quad-order", "32"]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert json.loads(lines[-1])["status"] == "completed"
    samples = [json.loads(l) for l in lines[:-1]]
    assert len(samples) == 3
    # schema round-trip: every emitted triple re-parses to an equal value
    for s in samples:
        t = SpectralTriple.from_json_dict(s["triple"])
        assert t.to_json_dict() == s["triple"]
    csv_out = tmp_path / "flow.csv"
    code = main(
        ["flow", str(good_file), "--steps", "1", "--dt", "0.005",
         "--out", str(csv_out), "--format", "csv", "--quad-order", "32"]
    )
    assert code == 0
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0] == "t,tau_re,tau_im,residual"
    assert len(rows) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "{f}"),
        ("classify", "{f}"),
        ("tangent", "{f}"),
        ("flow", "{f}", "--steps", "1"),
        ("flow", "{f}", "--steps", "1", "--format", "csv"),
        ("plot", "{f}"),
        ("oracle", "--seed", "7", "--count", "5"),
    ],
)
def test_stdout_and_out_get_the_same_bytes(argv, good_file, tmp_path, capsysbinary):
    """Every subcommand writes the same report to stdout as to ``--out``,
    and nothing to stdout when ``--out`` is given."""
    argv = [a.format(f=good_file) for a in argv]
    code = main(argv)
    printed = capsysbinary.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == code == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed and printed.endswith(b"\n")


def test_validate_directory_batch(good_file, circle_root_file, tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a_good.json").write_text(good_file.read_text(), encoding="utf-8")
    (d / "b_bad.json").write_text(circle_root_file.read_text(), encoding="utf-8")
    out = tmp_path / "batch.json"
    code = main(["validate", str(d), "--out", str(out), "--quad-order", "32"])
    assert code == 1
    results = json.loads(out.read_text())["results"]
    assert [r["verdict"] for r in results] == ["pass", "fail"]


def test_validate_directory_isolates_malformed_files(good_file, tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a_good.json").write_text(good_file.read_text(), encoding="utf-8")
    (d / "b_list.json").write_text("[1, 2]", encoding="utf-8")
    (d / "c_garbled.json").write_text("{not json", encoding="utf-8")
    out = tmp_path / "batch.json"
    assert main(["validate", str(d), "--out", str(out)]) == 2
    results = json.loads(out.read_text())["results"]
    assert [r["verdict"] for r in results] == ["pass", "input-error", "input-error"]


def test_options_belong_to_the_commands_that_read_them(good_file, tmp_path):
    assert main(["tangent", str(good_file), "--quad-order", "40"]) == 2
    assert main(["validate", str(good_file), "--format", "csv"]) == 2
    assert main(["classify", str(good_file), "--tol-int", "1e-8"]) == 2
    assert main(["flow", str(good_file), "--format", "svg"]) == 2
    assert main(["flow", str(good_file), "--rule", "basis7"]) == 2
    out = tmp_path / "flow.csv"
    code = main(["flow", str(good_file), "--steps", "1", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "t,tau_re,tau_im,residual"


def test_option_values_out_of_domain_exit2(good_file, tmp_path):
    f = str(good_file)
    for argv in (
        ["validate", f, "--quad-order", "0"],
        ["validate", f, "--quad-order", "2"],
        ["flow", f, "--quad-order", "-1"],
        ["validate", f, "--cluster-radius", "-1"],
        ["validate", f, "--tol-int", "nan"],
        ["validate", f, "--tol-alg", "0"],
        ["validate", f, "--tol-alg", "inf"],
        ["flow", f, "--tol-int", "-1e-10"],
        ["classify", f, "--cluster-radius", "0"],
        ["oracle", "--count", "-2"],
        ["oracle", "--count", "0"],
        ["flow", f, "--steps", "0"],
        ["flow", f, "--steps", "-3"],
        ["flow", f, "--dt", "0"],
        ["flow", f, "--dt", "nan"],
    ):
        assert main(argv) == 2, argv
    # the smallest values in the domains are accepted
    out = str(tmp_path / "r.json")
    assert main(["validate", f, "--quad-order", "3", "--out", out]) in (0, 1)
    assert main(["classify", f, "--cluster-radius", "1e-8", "--out", out]) == 0
    assert main(["oracle", "--seed", "1", "--count", "1", "--out", out]) in (0, 1)
    # a negative step is a backward flow
    csv = tmp_path / "back.csv"
    assert main(["flow", f, "--dt", "-0.01", "--steps", "1", "--format", "csv",
                 "--out", str(csv)]) == 0
    assert [r.split(",")[0] for r in csv.read_text().splitlines()[1:]] == ["0.0", "-0.01"]


def test_successive_calls_see_their_own_options(good_file, tmp_path, capsys, monkeypatch):
    """The parser is built once per process, and each ``main`` call still
    gets its own option values and the defaults of what it leaves out."""
    import whitham.cli as cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    out = tmp_path / "flow.csv"
    assert main(["flow", str(good_file), "--steps", "1", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,tau_re,tau_im,residual\n")
    assert main(["oracle", "--seed", "5", "--count", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["count"]) == (5, 5)
    assert main(["flow", str(good_file), "--steps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and json.loads(lines[-1]) == {"status": "completed"}
    assert json.loads(lines[1])["t"] == pytest.approx(1e-2)
    assert main(["classify", str(good_file)]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "a"
    assert len(built) <= 1


def _alone_row(f, tmp_path, capsys):
    """The batch row of file f as ``validate`` of f alone grades it, and its
    exit code."""
    out = tmp_path / "alone.json"
    code = main(["validate", str(f), "--out", str(out)])
    if code == 2:
        message = capsys.readouterr().err
        assert message.startswith("input error: ")
        return {"file": f.name, "verdict": "input-error",
                "failed": [message[len("input error: "):].rstrip("\n")]}, code
    report = json.loads(out.read_text())
    assert code == (0 if report["verdict"] == "pass" else 1)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return {"file": f.name, "verdict": report["verdict"], "failed": failed}, code


@pytest.mark.parametrize("budget", [None, 10**6])
def test_mixed_directory_gets_the_rows_of_each_file_alone(
    budget, g0_triple, g0_conformal, g1_triple, tmp_path, capsys, monkeypatch
):
    """``validate <dir>`` over admissible, perturbed, conformal, genus-2 and
    genus-3 triples, a circle-root triple, a malformed file and a triple
    whose walk raises (``MAX_SEGMENTS`` at 100 fails one path of the
    case-(c) triple) writes, byte for byte, the rows that ``validate`` of
    each file alone gives, in file order, and exits with the worst code."""
    import whitham.curve as curve_mod
    import whitham.spectral as spectral
    from whitham.polyring import random_real_section
    from whitham.spectral import product_form

    monkeypatch.setattr(curve_mod, "MAX_SEGMENTS", 100)
    if budget is not None:
        monkeypatch.setattr(spectral, "STACK_SEGMENTS", budget)
    rng = np.random.default_rng(2018)
    alphas = [0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j]
    genus2, genus3 = (
        SpectralTriple(g, product_form(alphas[: g + 1]), random_real_section(rng, g + 3),
                       random_real_section(rng, g + 3))
        for g in (2, 3)
    )
    kicked = SpectralTriple(1, g1_triple.P, g1_triple.b1,
                            g1_triple.b2 + random_real_section(rng, 4, 1e-4))
    F = product_form([0.35 + 0.1j])
    c1, c2 = random_real_section(rng, 3), random_real_section(rng, 3)
    case_c = SpectralTriple(2, F * product_form([0.5, -0.4]), F * c1, F * c2)
    circle = SpectralTriple(1, Polynomial([-1j, 1]) * product_form([0.5]),
                            random_real_section(rng, 4), random_real_section(rng, 4))
    d = tmp_path / "batch"
    d.mkdir()
    triples = {"a_g0": g0_triple, "b_g1_perturbed": kicked, "c_conformal": g0_conformal,
               "d_case_c": case_c, "e_genus2": genus2, "f_circle": circle, "h_genus3": genus3,
               "i_g1": g1_triple}
    for name, t in triples.items():
        (d / f"{name}.json").write_text(json.dumps(t.to_json_dict()), encoding="utf-8")
    (d / "g_garbled.json").write_text("{not json", encoding="utf-8")
    alone = [_alone_row(f, tmp_path, capsys) for f in sorted(d.glob("*.json"))]
    rows = [row for row, _ in alone]
    assert [r["verdict"] for r in rows] == ["pass", "fail", "pass", "fail", "fail", "fail",
                                            "input-error", "fail", "pass"]
    assert "P6_P7_integrals" in rows[3]["failed"]
    out = tmp_path / "batch.json"
    code = main(["validate", str(d), "--out", str(out)])
    assert code == max(c for _, c in alone) == 2
    assert out.read_text(encoding="utf-8") == json.dumps({"results": rows}, indent=2) + "\n"
