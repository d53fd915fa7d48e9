import copy
import pickle
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitham import polyring
from whitham.errors import (
    DegreeBoundError,
    NumericalFailureError,
    ZeroPolynomialError,
)
from whitham.polyring import (
    NORM_PLAIN_HI,
    NORM_PLAIN_LO,
    TRIM_REL,
    Polynomial,
    approx_gcd,
    c_add,
    c_deflate,
    c_derivative,
    c_divmod,
    c_mul,
    c_norm,
    c_scale,
    c_sub,
    c_symmetrize,
    factor_structure,
    jet_divide,
    poly_jet,
    random_real_section,
    real_defect,
    real_section_scale,
    roots,
    roots_flat,
    symmetrize,
    trim,
)

from oracles import real_pullback, reference_coeffs, reference_roots

RNG = np.random.default_rng(20260808)


def P(*coeffs):
    return Polynomial(list(coeffs))


# -- arithmetic --------------------------------------------------------------


def test_trim_and_degree():
    assert P(1, 2, 0, 0).degree == 1
    assert P(0).degree == -1
    assert P(0).is_zero
    assert P(1e-20, 1).degree == 1  # tiny constant survives relative trim? no:
    # relative to max coeff 1.0, 1e-20 is trimmed only if trailing; leading position stays
    assert abs(P(1e-20, 1).coeff(0)) <= 1e-19


def test_mul_divmod_roundtrip():
    a = P(1, 2, 3)
    b = P(-1, 1j)
    q, r = (a * b + P(5)).divmod(b)
    assert (q - a).norm() < 1e-12
    assert (r - P(5)).norm() < 1e-12


def test_eval_matches_numpy():
    c = [1.5, -2j, 3, 0.25 + 1j]
    p = Polynomial(c)
    z = RNG.standard_normal(7) + 1j * RNG.standard_normal(7)
    expected = np.polyval(list(reversed(c)), z)
    assert np.allclose(p(z), expected)


def test_degree_bound_enforced():
    with pytest.raises(DegreeBoundError):
        Polynomial([1, 2, 3], bound=1)


_FINITE = st.floats(-1e150, 1e150, allow_nan=False)
# a trailing entry's modulus over TRIM_REL * max|coeff|: just above and just
# below the trim threshold, or zero
_TRIM_EDGE = st.sampled_from((1.0 + 1e-9, 1.0 - 1e-9, 0.0))


@st.composite
def _coefficient_inputs(draw):
    """Lists and arrays of coefficients: any length (empty and all-zero
    included), trailing entries at the trim threshold, 0-d and 2-D arrays,
    and a NaN or an infinity somewhere."""
    head = [complex(a, b) for a, b in draw(st.lists(st.tuples(_FINITE, _FINITE), max_size=8))]
    if draw(st.booleans()):
        head = [0j] * len(head)
    scale = max((abs(c) for c in head), default=0.0)
    phase = np.exp(1j * draw(st.floats(0.0, 6.3)))
    head += [TRIM_REL * scale * f * phase for f in draw(st.lists(_TRIM_EDGE, max_size=3))]
    if head and draw(st.integers(0, 5)) == 0:
        bad = draw(st.sampled_from((np.nan, np.inf, -np.inf, complex(0.0, np.nan))))
        head[draw(st.integers(0, len(head) - 1))] = bad
    form = draw(st.sampled_from(("list", "array", "0-d", "2-D")))
    if form == "0-d":
        return np.asarray(head[0] if head else 0j)
    if form == "2-D" and len(head) % 2 == 0:
        return np.array(head, dtype=complex).reshape(2, -1)
    return head if form == "list" else np.array(head, dtype=complex)


@settings(max_examples=300, deadline=None)
@given(_coefficient_inputs(), st.one_of(st.none(), st.integers(-1, 10)))
@example([1.0, 0.5, TRIM_REL * (1.0 + 1e-9)], None)
@example([1.0, 0.5, TRIM_REL * (1.0 - 1e-9)], None)
@example([0.0, 0.0, 0.0], None)
@example([], None)
@example(np.asarray(2.5 - 1j), None)
@example(np.arange(6.0).reshape(2, 3), None)
@example(np.asfortranarray(np.arange(6.0).reshape(2, 3)), None)
@example([1.0, np.nan], None)
@example([np.inf], None)
@example([1.0, 2.0, 3.0], 1)
def test_constructor_matches_three_pass_reference(coeffs, bound):
    """The one-pass constructor keeps the coefficients of the three-pass
    trim, bit for bit, with their degree, and raises where it raised."""
    try:
        expected = reference_coeffs(coeffs, bound)
    except (ValueError, DegreeBoundError) as exc:
        with pytest.raises(type(exc)):
            Polynomial(coeffs, bound=bound)
        return
    p = Polynomial(coeffs, bound=bound)
    got = p.coeffs
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    zero = expected.size == 1 and expected[0] == 0
    assert type(p.degree) is int and p.degree == (-1 if zero else expected.size - 1)


def test_constructor_rejects_an_overflowing_modulus():
    """A finite coefficient whose modulus overflows raises ``ValueError``.
    This departs on purpose from the three-pass reference, which returns
    the zero polynomial there; the hypothesis test above draws components
    far below this range, so the two constructors agree on what it draws."""
    with pytest.raises(ValueError):
        Polynomial([1.5e308 + 1.5e308j])
    with pytest.raises(ValueError):
        Polynomial([1.0, 1.5e308 - 1.5e308j])
    assert reference_coeffs([1.5e308 + 1.5e308j], None).tobytes() == np.zeros(1, complex).tobytes()


def test_constructor_owns_its_coefficients():
    a = np.array([1, 2, 3], dtype=complex)
    p = Polynomial(a)
    a[0] = 99
    assert p.coeffs[0] == 1
    assert not np.shares_memory(p.coeffs, a)
    assert not p.coeffs.flags.writeable


def test_hash_agrees_with_eq_on_signed_zeros():
    pairs = [
        (Polynomial([0.0, 1.0]), Polynomial([-0.0, 1.0])),
        (Polynomial([complex(1.0, 0.0), 2.0]), Polynomial([complex(1.0, -0.0), 2.0])),
    ]
    for p, q in pairs:
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


def test_copy_and_pickle_rebuild_an_equal_immutable_polynomial(g1_triple):
    """``copy``, ``deepcopy`` and ``pickle`` rebuild through the constructor,
    which the immutability guard used to block."""
    for p in (Polynomial([1, 2j]), Polynomial.zero(), Polynomial([1e-300, 3, 0])):
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and hash(q) == hash(p) and q.degree == p.degree
            assert q.coeffs.tobytes() == p.coeffs.tobytes()
            for name in ("coeffs", "degree"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(q, name, None)
    assert copy.deepcopy(g1_triple) == g1_triple
    assert pickle.loads(pickle.dumps(g1_triple)) == g1_triple


def test_one_and_zeta_are_shared_immutable_instances(g1_triple, g1_b_linear, monkeypatch):
    """``Polynomial.one()`` and ``zeta()`` return one immutable instance each,
    which no computation changes: the tangent bases of a case-(a) and a
    case-(b) point come out bit for bit as with a new instance per call."""
    from whitham.deformation import tangent_basis

    for make, coeffs in ((Polynomial.one, [1.0]), (Polynomial.zeta, [0.0, 1.0])):
        p = make()
        assert make() is p
        assert not p.coeffs.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            p.coeffs = np.zeros(1)

    def bases():
        out = []
        for t in (g1_triple, g1_b_linear):
            vectors, gram = tangent_basis(t)
            out.append(gram)
            for v in vectors:
                out.extend(f.coeffs.tobytes() for f in (v.P_dot, v.b1_dot, v.b2_dot))
        return out

    shared = bases()
    assert Polynomial.one().coeffs.tolist() == [1.0]
    assert Polynomial.zeta().coeffs.tolist() == [0.0, 1.0]
    monkeypatch.setattr(Polynomial, "one", staticmethod(lambda: Polynomial([1.0])))
    monkeypatch.setattr(Polynomial, "zeta", staticmethod(lambda: Polynomial([0.0, 1.0])))
    assert bases() == shared


# -- coefficient arrays ----------------------------------------------------------


def _random_polynomial(rng, extreme=False):
    """A random polynomial of degree -1 to 6 with some coefficients -0.0 in
    either part; with ``extreme``, some at a scale far outside
    [NORM_PLAIN_LO, NORM_PLAIN_HI]."""
    n = int(rng.integers(0, 8))
    if n == 0:
        return Polynomial.zero()
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for i in np.nonzero(rng.random(n) < 0.3)[0]:
        c[i] = complex(-0.0 if rng.random() < 0.5 else c[i].real,
                       -0.0 if rng.random() < 0.5 else c[i].imag)
    if extreme and rng.random() < 0.3:
        c = c * (1e-170 if rng.random() < 0.5 else 1e200)
    return Polynomial(c)


def _same(got, want):
    """``got`` holds the coefficients of the ``Polynomial`` ``want``, bit for
    bit."""
    return got.shape == want.coeffs.shape and got.tobytes() == want.coeffs.tobytes()


def test_coefficient_helpers_match_the_operators_bit_for_bit():
    """Each ``c_`` helper gives the bytes of the ``Polynomial`` operation it
    stands for: on random pairs of unequal lengths, on differences that
    cancel to a lower degree, products with the zero polynomial, -0.0
    coefficients and norms outside the plain range."""
    rng = np.random.default_rng(20261019)
    pairs = [(_random_polynomial(rng, extreme=True), _random_polynomial(rng))
             for _ in range(300)]
    for _ in range(60):
        # the top coefficients agree, so p - q cancels to a lower degree
        p = _random_polynomial(rng)
        low = rng.standard_normal(p.coeffs.size) * (rng.random(p.coeffs.size) < 0.5)
        pairs.append((p, Polynomial(p.coeffs + np.append(low[:-1], 0.0))))
    pairs += [(p, Polynomial.zero()) for p, _ in pairs[:20]]
    pairs.append((P(complex(-0.0, 1.0), -0.0, 2.0), P(-0.0, complex(1.0, -0.0))))
    cancelled = 0
    for p, q in pairs:
        a, b = p.coeffs, q.coeffs
        assert _same(c_add(a, b), p + q)
        assert _same(c_sub(a, b), p - q)
        assert _same(c_mul(a, b), p * q) and _same(c_mul(b, a), q * p)
        for s in (0.5, -1.0, 2.0, 1j, 0.0):
            assert _same(c_scale(a, s), p * s)
        assert _same(c_derivative(a), p.derivative())
        assert c_norm(a) == p.norm() and c_norm(b) == q.norm()
        for k in (max(p.degree, 0), p.degree + 2):
            assert _same(c_symmetrize(a, k), symmetrize(p, k))
        if not q.is_zero:
            quo, rem = c_divmod(a, b)
            want_q, want_r = p.divmod(q)
            assert _same(quo, want_q) and _same(rem, want_r)
            assert _same(c_deflate(c_mul(a, b), b), (p * q).deflate(q))
        cancelled += (p - q).degree < max(p.degree, q.degree)
    assert cancelled > 30
    assert any(not (NORM_PLAIN_LO <= float(np.abs(p.coeffs).max()) <= NORM_PLAIN_HI)
               for p, _ in pairs if not p.is_zero)
    with pytest.raises(ZeroPolynomialError):
        c_divmod(P(1.0, 2.0).coeffs, Polynomial.zero().coeffs)
    with pytest.raises(NumericalFailureError):
        c_deflate(P(1.0, 0.0, 1.0).coeffs, P(-2.0, 1.0).coeffs)


def test_trim_is_the_constructor_rule():
    """``trim`` keeps what the constructor keeps, including trailing
    coefficients just above and just below the cut, and -0.0 at the end."""
    rng = np.random.default_rng(5)
    cases = [np.array(c, dtype=complex) for c in (
        [1.0, 0.5, TRIM_REL * (1.0 + 1e-9)], [1.0, 0.5, TRIM_REL * (1.0 - 1e-9)],
        [0.0, 0.0], [-0.0], [2.0, complex(-0.0, -0.0)], [1e-300, 3.0, 0.0])]
    cases += [rng.standard_normal(6) * np.append(np.ones(3), rng.random(3) < 0.5)
              + 0j for _ in range(50)]
    for c in cases:
        assert _same(trim(c), Polynomial(c))


# -- real structure ----------------------------------------------------------


def test_real_pullback_examples():
    # palindromic real coefficients are fixed
    p = P(1, 0, 1)
    assert (real_pullback(p, 2) - p).norm() < 1e-15
    # coefficient reversal with conjugation
    assert (real_pullback(P(0, 1), 1) - P(1)).norm() < 1e-15
    # pure conjugation at k=0
    assert (real_pullback(P(1j), 0) - P(-1j)).norm() < 1e-15


def test_real_pullback_degree_error():
    with pytest.raises(DegreeBoundError):
        real_pullback(P(1, 2, 3), 1)


def test_is_real_section_examples():
    assert real_defect(P(1, 0, 1), 2) < 1e-15
    assert real_defect(P(0, 1j), 2) > 1e-10
    # (zeta - 0.5)(1 - 0.5 zeta) = -0.5 + 1.25 zeta - 0.5 zeta^2
    assert real_defect(P(-0.5, 1.25, -0.5), 2) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
        ),
        min_size=1,
        max_size=9,
    ),
    st.integers(0, 4),
)
def test_involution_property(pairs, extra):
    coeffs = [complex(a, b) for a, b in pairs]
    p = Polynomial(coeffs)
    k = max(p.degree, 0) + extra
    assert (real_pullback(real_pullback(p, k), k) - p).norm() < 1e-12 * max(
        1.0, p.norm()
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10_000))
def test_real_section_characterization(k, seed):
    rng = np.random.default_rng(seed)
    p = random_real_section(rng, k)
    assert real_defect(p, k) < 1e-12
    assert (real_pullback(p, k) - p).norm() < 1e-12


def test_real_section_root_pairing():
    # roots of a real section are invariant under z -> 1/conj(z)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = random_real_section(rng, 6)
        rs = roots_flat(p)
        for r in rs:
            if abs(abs(r) - 1.0) < 1e-6:
                continue
            partner = 1.0 / np.conj(r)
            assert min(abs(partner - s) for s in rs) < 1e-6 * max(1.0, abs(partner))


def test_derivative_identity_on_real_sections():
    # pullback of zeta*f' equals k*f - zeta*f' for weight-k real sections
    for k in range(1, 8):
        f = random_real_section(np.random.default_rng(100 + k), k)
        zfp = Polynomial([0, 1]) * f.derivative()
        lhs = real_pullback(zfp, k)
        rhs = k * f - zfp
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, f.norm())


def test_real_section_scale():
    # monic polynomial with paired roots acquires a real-section phase
    pr = [0.3 + 0.4j, 1.0 / np.conj(0.3 + 0.4j), 0.5, 2.0]
    p = Polynomial.from_roots(pr)
    q, lam = real_section_scale(p)
    assert abs(abs(lam) - 1) < 1e-12
    assert real_defect(q, q.degree) < 1e-10 * q.norm()


# -- roots -------------------------------------------------------------------


def test_roots_simple():
    rs = roots(P(-1, 0, 1))
    assert len(rs) == 2
    vals = sorted(r.real for r, m in rs)
    assert np.allclose(vals, [-1, 1], atol=1e-12)


def test_roots_multiplicity_oracle():
    # (zeta - 0.5)^2 (zeta + 2); oracle = companion-matrix eigenvalues
    p = Polynomial.from_roots([0.5, 0.5, -2.0])
    oracle = np.sort_complex(np.roots(list(p.coeffs[::-1])))
    rs = roots(p)
    expanded = np.sort_complex(np.array(roots_flat(p)))
    assert np.allclose(expanded, oracle, atol=1e-5)
    by_mult = {m for _, m in rs}
    assert by_mult == {1, 2}
    double = [r for r, m in rs if m == 2][0]
    assert abs(double - 0.5) < 1e-7


def test_roots_pure_zeta_power():
    assert roots(P(0, 0, 0, 1)) == [(0j, 3)]


def test_roots_zero_poly_raises():
    with pytest.raises(ZeroPolynomialError):
        roots(P(0))


def test_roots_wide_magnitude_spread():
    p = Polynomial.from_roots([1e-4, 1e4, 0.5, -2.0])
    got = sorted(roots_flat(p), key=lambda z: abs(z))
    assert abs(got[0] - 1e-4) < 1e-10
    assert abs(got[-1] - 1e4) / 1e4 < 1e-10


def _planted_double(rng):
    """Roots of degree 2..12 with moduli 0.1..10, at least 0.05 apart; the
    first is planted twice."""
    while True:
        n = int(rng.integers(2, 13))
        mod = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n - 1))
        rs = mod * np.exp(2j * np.pi * rng.uniform(size=n - 1))
        if (np.abs(rs[:, None] - rs[None, :]) + np.eye(n - 1)).min() >= 0.05:
            return np.concatenate([rs[:1], rs])


def test_planted_double_roots_have_multiplicity_two():
    """A double root of a computed polynomial splits by about sqrt(eps); the
    eigenvalue start keeps the split inside ``MULTIPLICITY_RADIUS``."""
    rng = np.random.default_rng(20261019)
    for _ in range(250):
        rs = _planted_double(rng)
        got = roots(Polynomial.from_roots(rs) * complex(*rng.standard_normal(2)))
        assert sorted(m for _, m in got) == [1] * (rs.size - 2) + [2]
        double = next(r for r, m in got if m == 2)
        assert abs(double - rs[0]) <= 1e-5 * abs(rs[0])


def test_separated_roots_agree_with_numpy():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 13))
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        ref = np.polynomial.polynomial.polyroots(c)
        scale = np.maximum(1.0, np.maximum.outer(np.abs(ref), np.abs(ref)))
        if (np.abs(np.subtract.outer(ref, ref)) / scale + np.eye(n)).min() < 0.05:
            continue
        got = roots(Polynomial(c))
        assert [m for _, m in got] == [1] * n
        for r in ref:
            assert min(abs(r - z) for z, _ in got) <= 1e-12 * abs(r)
        checked += 1


def _draw_roots_case(kind, degree, seed):
    """A polynomial of the given degree: random coefficients, the product
    form of in-disc branch points (with zeta = 0 at odd degree), or simple
    roots of moduli 0.1..10 at least 0.05 apart with the first planted
    twice (degree 2 at least)."""
    from whitham.spectral import product_form

    rng = np.random.default_rng(seed)
    if kind == "coefficients":
        return Polynomial(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    if kind == "product form":
        k = degree // 2
        alphas = rng.uniform(0.05, 0.95, k) * np.exp(2j * np.pi * rng.uniform(size=k))
        return product_form(list(alphas) + [0.0] * (degree % 2))
    n = max(degree, 2)
    while True:
        mod = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n - 1))
        rs = mod * np.exp(2j * np.pi * rng.uniform(size=n - 1))
        if (np.abs(rs[:, None] - rs[None, :]) + np.eye(n - 1)).min() >= 0.05:
            scale = complex(*rng.standard_normal(2))
            return Polynomial.from_roots(np.concatenate([rs[:1], rs])) * scale


def _start(kind, seed):
    """A start for ``_eigenvalue_start`` to return: the eigenvalues, the
    eigenvalues moved by 1e-3 of their modulus (which fails the Aberth
    test, so Aberth-Ehrlich steps run), or one point repeated (which is
    spread first)."""
    eigenvalue_start = polyring._eigenvalue_start
    if kind == "eigenvalues":
        return eigenvalue_start

    def start(coeffs):
        z = eigenvalue_start(coeffs)
        if kind == "coincident":
            return np.full(z.size, 1.0 + 0.5j)
        phase = np.random.default_rng(seed).uniform(size=z.size)
        return z * (1.0 + 1e-3 * np.exp(2j * np.pi * phase))

    return start


# (polynomial, start) pairs.  A planted double root gets the eigenvalue
# start only: Aberth's test passes a double root split by up to
# sqrt(ABERTH_TARGET), beyond MULTIPLICITY_RADIUS, so from a moved start
# both implementations may stop at two simple roots whose digits differ.
ROOTS_CASES = st.one_of(
    st.tuples(st.sampled_from(["coefficients", "product form"]),
              st.sampled_from(["eigenvalues", "perturbed", "coincident"])),
    st.tuples(st.just("planted double"), st.just("eigenvalues")),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ROOTS_CASES, st.integers(1, 14), st.integers(0, 2**32 - 1))
def test_roots_agree_with_the_array_implementation(case, degree, seed):
    """The roots on Python complex values against the array implementation
    they replace (``reference_roots``), from the eigenvalue start and from
    starts that take Aberth-Ehrlich steps: the same roots with the same
    multiplicities, a simple root within 1e-10 * max(1, |z|) and the centre
    of a cluster within 1e-7 * max(1, |z|), or a ``NumericalFailureError``
    from both."""
    kind, start = case
    p = _draw_roots_case(kind, degree, seed)
    with unittest.mock.patch.object(polyring, "_eigenvalue_start", _start(start, seed)):
        try:
            want = reference_roots(p)
        except NumericalFailureError:
            with pytest.raises(NumericalFailureError):
                roots(p)
            return
        got = roots(p)
    assert sorted(m for _, m in got) == sorted(m for _, m in want)
    for z, m in want:
        near, k = min(got, key=lambda rm: abs(rm[0] - z))
        assert k == m
        assert abs(near - z) <= (1e-10 if m == 1 else 1e-7) * max(1.0, abs(z))


def _backward_ok(c, z):
    p, _, s = polyring._horner3(c, z)
    return bool(np.all(np.abs(p) <= polyring.ABERTH_TARGET * s))


def test_aberth_refines_a_start_that_fails_the_backward_test(monkeypatch):
    rs = np.array([0.3 + 0.2j, -1.5, 2.0 - 1.0j, 0.05j, 4.0 + 3.0j])
    c = Polynomial.from_roots(rs).coeffs
    start = rs * (1 + 1e-3)
    assert not _backward_ok(c, start)
    monkeypatch.setattr(polyring, "_eigenvalue_start", lambda coeffs: start.copy())
    z = polyring._aberth(c)[0]
    assert _backward_ok(c, z)
    for r in rs:
        assert np.min(np.abs(z - r)) <= 1e-12 * max(1.0, abs(r))
    assert sorted(roots_flat(Polynomial(c)), key=abs) == pytest.approx(sorted(rs, key=abs), abs=1e-12)


def test_aberth_raises_at_the_iteration_cap(monkeypatch):
    """A start the iteration cannot repair (a NaN) runs to
    ``ABERTH_MAX_ITER`` and raises; so does a failing start when the cap
    leaves no iteration."""
    rs = np.array([0.5, -1.0, 2.0j])
    c = Polynomial.from_roots(rs).coeffs
    monkeypatch.setattr(polyring, "_eigenvalue_start", lambda coeffs: np.full(3, complex(np.nan, 0)))
    with pytest.raises(NumericalFailureError) as info:
        polyring._aberth(c)
    assert info.value.best.shape == (3,)
    monkeypatch.setattr(polyring, "_eigenvalue_start", lambda coeffs: rs * (1 + 1e-3))
    monkeypatch.setattr(polyring, "ABERTH_MAX_ITER", 0)
    with pytest.raises(NumericalFailureError):
        polyring._aberth(c)


def test_aberth_separates_a_start_whose_points_coincide(monkeypatch):
    """A start of exactly coincident points leaves Aberth's repulsion
    undefined; the points are spread before the first step, so they reach
    the three distinct roots rather than three copies of one."""
    rs = np.array([0.5, -1.0, 2.0j])
    c = Polynomial.from_roots(rs).coeffs
    monkeypatch.setattr(polyring, "_eigenvalue_start", lambda coeffs: np.full(3, 1.0 + 0j))
    z = polyring._aberth(c)[0]
    assert _backward_ok(c, z)
    assert sorted(z, key=lambda r: (r.real, r.imag)) == pytest.approx(
        sorted(rs, key=lambda r: (r.real, r.imag)), abs=1e-12
    )


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1e-150, 1.0, 1e150, 1e153, 1e300, 5e307])
def test_norm_is_finite_positive_and_plain_where_the_sum_of_squares_is(s):
    p = Polynomial([s, 0.0, 2.0 * s * 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = p.norm()
    assert n == pytest.approx(s * np.sqrt(5.0), rel=1e-15, abs=0.0)
    if 1e-150 <= s <= 1e153:
        assert n == float(np.linalg.norm(p.coeffs))


def test_norm_caps_at_the_largest_float_and_keeps_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Polynomial([1.5e308, 1.5e308j]).norm() == np.finfo(float).max
        assert Polynomial.zero().norm() == 0.0


def test_subtraction_is_bit_identical_to_adding_the_negation():
    rng = np.random.default_rng(3)
    for n, m in ((1, 1), (3, 5), (6, 2), (4, 4)):
        a = Polynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        b = Polynomial(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        for x, y in ((a, b), (b, a), (a, a)):
            assert np.array_equal((x - y).coeffs, (x + (-y)).coeffs)
        assert np.array_equal((2.5 - a).coeffs, (Polynomial([2.5]) + (-a)).coeffs)
        assert np.array_equal((a - 1j).coeffs, (a + (-Polynomial([1j]))).coeffs)


def test_roots_reconstruction_property():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        p = Polynomial(c)
        rec = Polynomial.from_roots(roots_flat(p)) * p.coeffs[-1]
        assert (rec - p).norm() < 1e-8 * p.norm()


# -- gcd and factor tower -----------------------------------------------------


def test_approx_gcd_examples():
    g = approx_gcd(P(-1, 0, 1), P(-1, 1))
    assert (g - P(-1, 1)).norm() < 1e-10
    a = Polynomial.from_roots([0.5, 2.0])
    b = Polynomial.from_roots([0.5, -1.0])
    assert (approx_gcd(a, b) - Polynomial.from_roots([0.5])).norm() < 1e-9
    assert approx_gcd(P(-2, 1), P(3, 1)).degree == 0


def test_factor_structure_linear_factors():
    # oracle: exact factorization over the given linear factors
    F_ = Polynomial.from_roots([2.0])
    P_ = Polynomial.from_roots([2.0, 5.0])
    b1 = Polynomial.from_roots([2.0, 7.0, 11.0])
    b2 = Polynomial.from_roots([2.0, 5.0, 7.0])
    fs = factor_structure(P_, b1, b2)
    assert (fs.F - F_).norm() < 1e-8
    assert fs.F1.degree == 0
    assert (fs.F2 - Polynomial.from_roots([5.0])).norm() < 1e-8
    assert (fs.G - Polynomial.from_roots([7.0])).norm() < 1e-8


def test_factor_structure_coprime():
    fs = factor_structure(P(-2, 1), P(3, 1), P(1, 1))
    assert (fs.F.degree, fs.F1.degree, fs.F2.degree, fs.G.degree) == (0, 0, 0, 0)


def test_factor_structure_conformal_shape():
    L = Polynomial.from_roots([0.5, 2.0])
    m1 = Polynomial.from_roots([3.0])
    m2 = Polynomial.from_roots([-4.0])
    z = Polynomial.zeta()
    fs = factor_structure(z * L, z * m1, z * m2)
    assert fs.F.degree == 1 and abs(fs.F.coeff(0)) < 1e-10
    assert fs.G.degree == 0


def test_factor_structure_even_F_for_real_sections():
    # common roots of real sections with no circle roots pair up, so deg F is even
    alpha = 0.4 + 0.2j
    pair = Polynomial.from_roots([alpha, 1 / np.conj(alpha)])
    rng = np.random.default_rng(7)
    P_ = pair * Polynomial.from_roots([0.6, 1 / 0.6])
    b1 = pair * random_real_section(rng, 2)
    b2 = pair * random_real_section(rng, 2)
    fs = factor_structure(P_, b1, b2)
    assert fs.F.degree == 2


# -- jets ----------------------------------------------------------------------


def test_poly_jet_matches_derivatives():
    p = P(1, -2, 3, 0.5j)
    beta = 0.7 - 0.2j
    jet_vals = poly_jet(p, beta, 4)
    d = p
    fact = 1.0
    for m in range(4):
        assert abs(jet_vals[m] - d(beta) / fact) < 1e-12
        d = d.derivative()
        fact *= m + 1


def test_jet_divide_matches_quotient_derivatives():
    num = P(2, 1, -1)
    den = P(1, 3)
    beta = 0.3
    jn = poly_jet(num, beta, 5)
    jd = poly_jet(den, beta, 5)
    q = jet_divide(jn, jd)
    # series of num/den at beta: compare against finite differences
    f = lambda z: num(z) / den(z)
    h = 1e-5
    d1 = (f(beta + h) - f(beta - h)) / (2 * h)
    assert abs(q[1] - d1) < 1e-8


def test_roots_polishes_first_with_the_values_aberth_computed(monkeypatch):
    """``_aberth`` hands on p and p' at the roots it returns, exactly as
    ``_horner3`` gives them there, so ``roots`` evaluates the polynomial
    twice at each root: at degree 2 and above once by ``_horner3`` (the
    Aberth test) and once by ``_horner2`` (the second polish), and at
    degree 1 twice by ``_horner2`` (the two polishes)."""
    rng = np.random.default_rng(26)
    for degree in (1, 2, 5):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        z, p, dp = polyring._aberth(c)
        want = [polyring._horner3(c.tolist(), zi)[:2] for zi in z.tolist()]
        assert list(zip(p, dp)) == want
        calls = []

        def counted(helper):
            def spy(*args):
                calls.append(args)
                return helper(*args)

            return spy

        with monkeypatch.context() as patch:
            for name in ("_horner3", "_horner2"):
                patch.setattr(polyring, name, counted(getattr(polyring, name)))
            roots(Polynomial(c))
        assert len(calls) == 2 * degree
