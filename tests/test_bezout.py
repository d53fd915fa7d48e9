import numpy as np
import pytest

from whitham.bezout import (
    BezoutSolution,
    RootSpec,
    _relative_residual,
    confluent_vandermonde,
    leja_order,
    minimal_solution,
    realify,
    solution_space,
)
from whitham.cli import dense_bezout
from whitham.errors import NoSolutionError
from whitham.polyring import Polynomial, approx_gcd, random_real_section, real_defect

from oracles import (
    random_bezout_instance,
    random_complex_poly,
    random_real_bezout_instance,
    reference_minimal_solution,
)


def P(*coeffs):
    return Polynomial(list(coeffs))


# -- confluent Vandermonde ----------------------------------------------------


def test_vandermonde_single_point():
    V = confluent_vandermonde(RootSpec(((2.0 + 0j, 1),)), 0)
    assert np.allclose(V, [[1.0]])


def test_vandermonde_double_root_derivative_row():
    beta = 1.7 - 0.3j
    V = confluent_vandermonde(RootSpec(((beta, 2),)), 1)
    assert np.allclose(V, [[1.0, beta], [0.0, 1.0]])


def test_vandermonde_two_points_det():
    V = confluent_vandermonde(RootSpec(((1.0 + 0j, 1), (2.0 + 0j, 1))), 1)
    assert np.allclose(V, [[1.0, 1.0], [1.0, 2.0]])
    assert abs(np.linalg.det(V) - 1.0) < 1e-14


def test_vandermonde_shape_error():
    with pytest.raises(ValueError):
        confluent_vandermonde(RootSpec(((1.0 + 0j, 1),)), 1)


def test_vandermonde_nonsingular_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        spec = RootSpec(tuple((p, int(m)) for p, m in zip(pts, (2, 1, 3))))
        V = confluent_vandermonde(spec, spec.total - 1)
        assert np.linalg.cond(V) < 1e12


def test_leja_order_starts_at_max_modulus():
    pts = [(0.1 + 0j, 1), (5.0 + 0j, 1), (1.0 + 1j, 1)]
    assert leja_order(pts)[0][0] == 5.0 + 0j


# -- minimal solutions ---------------------------------------------------------


def test_minimal_solution_linear_example():
    sol = minimal_solution(P(1, 1), P(-1, 1), P(2))
    assert (sol.X - P(1)).norm() < 1e-12
    assert (sol.Y - P(1)).norm() < 1e-12
    assert sol.residual < 1e-12


def test_minimal_solution_common_factor_case():
    # A = B = C = zeta: the gcd forces X = 0, Y = -1
    sol = minimal_solution(P(0, 1), P(0, 1), P(0, 1))
    assert sol.X.is_zero
    assert (sol.Y - P(-1)).norm() < 1e-12


def test_minimal_solution_division_example():
    sol = minimal_solution(P(1), P(0, 0, 1), P(1, 0, 0, 1))
    assert (sol.X - P(1)).norm() < 1e-12
    assert (sol.Y - P(0, -1)).norm() < 1e-12


def test_minimal_solution_takes_the_spec_of_B_and_owns_X():
    """A caller's ``RootSpec.of(B/D)`` gives the solution of rooting B/D
    inside, bit for bit; X owns its coefficients apart from ``x_raw``."""
    rng = np.random.default_rng(5)
    one = Polynomial.one()
    for _ in range(10):
        A, B, C, _ = random_bezout_instance(rng, d_deg=0)
        sol = minimal_solution(A, B, C, known_gcd=one)
        given = minimal_solution(A, B, C, known_gcd=one, spec=RootSpec.of(B))
        assert (given.X, given.Y, given.residual) == (sol.X, sol.Y, sol.residual)
        assert not np.shares_memory(sol.x_raw, sol.X.coeffs)


def _assert_same_solution(got, want):
    for name in ("X", "Y"):
        assert getattr(got, name).coeffs.tobytes() == getattr(want, name).coeffs.tobytes()
    assert got.x_raw.tobytes() == want.x_raw.tobytes()
    assert (got.residual, got.condition, got.warnings) == (
        want.residual, want.condition, want.warnings)


def test_spec_carried_system_matches_a_fresh_build():
    """Every solve against one spec reads the Vandermonde matrix and
    condition number the spec carries, and gives, bit for bit, the solution
    (X, Y, x_raw, condition, warnings) of building both afresh for that
    solve; roots of multiplicity 1 to 3, some systems past the condition
    cap."""
    rng = np.random.default_rng(17)
    one = Polynomial.one()
    capped = 0
    cases = []
    for _ in range(20):
        k = int(rng.integers(1, 4))
        cases.append(((rng.standard_normal(k) + 1j * rng.standard_normal(k)).tolist(),
                      rng.integers(1, 4, size=k).tolist()))
    cases.append(([1.0 + 0j, 1.0 + 1e-4j, -1.0 + 0j], [3, 3, 1]))  # clustered: past the cap
    for betas, mults in cases:
        B = Polynomial.from_roots(np.repeat(betas, mults)) * complex(rng.standard_normal(), 1.0)
        spec = RootSpec.ordered(list(zip(betas, mults)))
        for _ in range(3):
            A = random_complex_poly(rng, int(rng.integers(1, 5)))
            C = random_complex_poly(rng, int(rng.integers(0, 6)))
            got = minimal_solution(A, B, C, known_gcd=one, spec=spec)
            want = reference_minimal_solution(A, B, C, known_gcd=one, spec=RootSpec(spec.entries))
            _assert_same_solution(got, want)
            capped += any("ill-conditioned" in w for w in got.warnings)
        V = confluent_vandermonde(spec, spec.total - 1)
        assert spec.matrix.tobytes() == V.tobytes() and not spec.matrix.flags.writeable
        assert spec.condition == float(np.linalg.cond(V))
    assert capped > 0


def test_array_solve_matches_the_polynomial_oracle_bit_for_bit(monkeypatch):
    """``minimal_solution`` on coefficient arrays gives, bit for bit, the
    solution of the oracle that forms every intermediate as a
    ``Polynomial``: with a numerical gcd of degree 0 to 2 (deflation and
    the divisibility check), and on clustered roots of B, where the first
    residual exceeds 1e-12 and the refinement pass runs.  ``realify`` gives
    the symmetrized pair and its residual as the operators form them."""
    import whitham.bezout as bezout
    from oracles import _relative_residual as polynomial_residual
    from whitham.polyring import symmetrize

    residuals = []
    array_residual = bezout._residual
    monkeypatch.setattr(bezout, "_residual", lambda *a: residuals.append(1) or array_residual(*a))
    rng = np.random.default_rng(53)
    one = Polynomial.one()
    for _ in range(40):
        A, B, C, _ = random_bezout_instance(rng)
        _assert_same_solution(minimal_solution(A, B, C), reference_minimal_solution(A, B, C))
    refined = 0
    for _ in range(40):
        k = int(rng.integers(3, 7))
        center = complex(rng.standard_normal(), rng.standard_normal())
        spread = 10 ** rng.uniform(-4, -1)
        B = Polynomial.from_roots(
            center + spread * (rng.standard_normal(k) + 1j * rng.standard_normal(k)))
        A = random_complex_poly(rng, int(rng.integers(1, 5)))
        C = random_complex_poly(rng, int(rng.integers(0, 9)))
        residuals.clear()
        got = minimal_solution(A, B, C, known_gcd=one)
        _assert_same_solution(got, reference_minimal_solution(A, B, C, known_gcd=one))
        refined += len(residuals) > 1
    assert refined > 20
    for strict in (True, False) * 15:
        A, B, C, _, (a, b, c), _ = random_real_bezout_instance(rng, strict)
        if c < b:
            continue  # no weight for Y: both forms refuse
        sol = minimal_solution(A, B, C)
        real = realify(A, B, C, a, b, c, sol)
        X, Y = symmetrize(sol.X, c - a), symmetrize(sol.Y, c - b)
        assert real.X.coeffs.tobytes() == X.coeffs.tobytes()
        assert real.Y.coeffs.tobytes() == Y.coeffs.tobytes()
        assert real.residual == polynomial_residual(A, B, C, X, Y)


def test_spec_of_a_wrong_total_is_rebuilt_and_a_wrong_system_fails_as_before(monkeypatch):
    """A caller spec whose total is not deg B is rebuilt at a tight radius
    with its warning; a rebuilt spec that is still not square raises the
    shape ``ValueError``, and a singular system fails in the solve, as a
    fresh build per call does."""
    import whitham.bezout as bezout
    import whitham.polyring as polyring

    one = Polynomial.one()
    B = Polynomial.from_roots([1.5, -0.5 + 1j, 2.0j])
    A, C = P(1.0, 0.5j, 2.0), P(0.3, -1.0, 0.25, 1.0)
    short = RootSpec(((1.5 + 0j, 1), (-0.5 + 1j, 1)))
    got = minimal_solution(A, B, C, known_gcd=one, spec=short)
    _assert_same_solution(
        got, reference_minimal_solution(A, B, C, known_gcd=one, spec=RootSpec(short.entries)))
    assert got.warnings[0] == "root multiplicity adjusted to match degree"

    singular = RootSpec(((1.5 + 0j, 1), (1.5 + 0j, 1), (2.0j, 1)))
    for solve in (minimal_solution, reference_minimal_solution):
        with pytest.raises(np.linalg.LinAlgError):
            solve(A, B, C, known_gcd=one, spec=RootSpec(singular.entries))

    def one_root(p, cluster_radius=None):
        return [(1.5 + 0j, 1)]

    monkeypatch.setattr(bezout, "roots", one_root)
    monkeypatch.setattr(polyring, "roots", one_root)
    for solve in (minimal_solution, reference_minimal_solution):
        with pytest.raises(ValueError, match="^root multiplicities sum to 1, expected 3$"):
            solve(A, B, C, known_gcd=one, spec=RootSpec(short.entries))


def test_minimal_solution_divisibility_error():
    # gcd = zeta does not divide C = 1
    with pytest.raises(NoSolutionError):
        minimal_solution(P(0, 1), P(0, 1), P(1))


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(60):
        A, B, C, D = random_bezout_instance(rng)
        sol = minimal_solution(A, B, C)
        X_o, _, res_o = dense_bezout(A, B, C, D.degree)
        assert res_o < 1e-8
        scale = max(X_o.norm(), 1.0)
        assert (sol.X - X_o).norm() < 1e-8 * scale
        assert sol.residual < 1e-8



def test_relative_residual_is_bit_identical_to_the_two_product_formula():
    """The residual forms A X and B Y once each; the value is the one the
    formula that formed them twice gave, bit for bit."""
    rng = np.random.default_rng(43)
    for _ in range(20):
        A, B, C, _ = random_bezout_instance(rng)
        sol = minimal_solution(A, B, C)
        X, Y = sol.X, sol.Y
        old = (A * X - B * Y - C).norm() / max((A * X).norm(), (B * Y).norm(), C.norm(), 1e-300)
        assert np.array_equal(_relative_residual(A, B, C, X, Y), old)


def test_degree_bounds():
    rng = np.random.default_rng(7)
    for _ in range(40):
        A, B, C, D = random_bezout_instance(rng)
        d = D.degree
        sol = minimal_solution(A, B, C)
        assert sol.X.degree <= B.degree - d - 1
        if C.degree < A.degree + B.degree - d:
            assert sol.Y.degree <= A.degree - d - 1


def test_confluent_limit():
    # B with roots beta, beta+eps converges to the double-root solution
    rng = np.random.default_rng(5)
    beta = 0.8 + 0.1j
    A = P(1.0, 0.5, 1.0)
    C = P(0.3, -1.0, 0.0, 2.0)
    limit = minimal_solution(A, Polynomial.from_roots([beta, beta, -2.0]), C)
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        sol = minimal_solution(A, Polynomial.from_roots([beta, beta + eps, -2.0]), C)
        errs.append((sol.X - limit.X).norm() / max(1.0, limit.X.norm()))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-4


def test_uniqueness_under_root_permutation():
    rng = np.random.default_rng(9)
    rts = [0.5, -1.2, 2.0 + 1j, 0.1 - 0.7j]
    A = P(1.0, 2.0, 0.5)
    C = P(1.0, 0, 0, 1.0, 0.2)
    sols = []
    for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 0, 3, 1]):
        B = Polynomial.from_roots([rts[i] for i in perm])
        sols.append(minimal_solution(A, B, C).X)
    for s in sols[1:]:
        assert (s - sols[0]).norm() < 1e-10 * max(1.0, sols[0].norm())


# -- reality -------------------------------------------------------------------


def test_realify_fixed_point():
    rng = np.random.default_rng(13)
    A, B, C, D, (a, b, c), (X0, Y0) = random_real_bezout_instance(rng, strict=True)
    sol = minimal_solution(A, B, C)
    fixed = realify(A, B, C, a, b, c, sol)
    assert (fixed.X - sol.X).norm() < 1e-9 * max(1.0, sol.X.norm())


def test_realify_kills_imaginary_candidate():
    sol = BezoutSolution(P(1j), P(1j), 0.0)
    out = realify(P(1), P(1), P(0), 0, 0, 0, sol)
    assert out.X.is_zero and out.Y.is_zero


def test_realify_property_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A, B, C, D, (a, b, c), _ = random_real_bezout_instance(rng, strict=False)
        if c < a + b - D.degree:
            continue
        sol = minimal_solution(A, B, C)
        out = realify(A, B, C, a, b, c, sol)
        assert out.residual < 1e-8
        assert real_defect(out.X, c - a) < 1e-9 * max(1.0, out.X.norm())
        assert real_defect(out.Y, c - b) < 1e-9 * max(1.0, out.Y.norm())


def test_minimal_solution_real_without_averaging():
    # strict degree case: the minimal solution itself is a real section
    rng = np.random.default_rng(23)
    for _ in range(25):
        A, B, C, D, (a, b, c), (X0, Y0) = random_real_bezout_instance(rng, strict=True)
        sol = minimal_solution(A, B, C)
        assert sol.residual < 1e-9
        assert real_defect(sol.X, c - a) < 1e-9 * max(1.0, sol.X.norm())


# -- solution space ------------------------------------------------------------


def test_solution_space_homogeneous():
    A = random_real_section(np.random.default_rng(1), 2)
    B = random_real_section(np.random.default_rng(2), 3)
    space = solution_space(A, B, Polynomial.zero(), 2, 3, 5)
    assert space.base.X.is_zero and space.base.Y.is_zero
    X, Y = space.member(P(1.0, 0, 1.0))
    assert (A * X - B * Y).norm() < 1e-10 * max(1.0, (A * X).norm())


def test_solution_space_membership():
    rng = np.random.default_rng(29)
    for _ in range(10):
        A, B, C, D, (a, b, c), _ = random_real_bezout_instance(rng, strict=False)
        d = D.degree
        if c < a + b - d:
            continue
        space = solution_space(A, B, C, a, b, c)
        assert space.param_degree == c - a - b + d
        for u in (-1.0, 0.0, 1.0):
            U = random_real_section(rng, max(space.param_degree, 0)) * u
            X, Y = space.member(U)
            res = (A * X - B * Y - C).norm() / max(C.norm(), 1.0)
            assert res < 1e-9


def test_solution_space_deflated_generators_coprime():
    rng = np.random.default_rng(31)
    A, B, C, D, (a, b, c), _ = random_real_bezout_instance(rng, strict=False)
    if D.degree == 0:
        alpha = 0.5 + 0.1j
        D = Polynomial.from_roots([alpha, 1 / np.conj(alpha)])
        A, B, C = A * D, B * D, C * D
        a, b, c = a + 2, b + 2, c + 2
    space = solution_space(A, B, C, a, b, c)
    assert approx_gcd(space.hom_X, space.hom_Y).degree == 0
