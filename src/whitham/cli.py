"""Command-line front door.

Subcommands: ``validate`` (grade a triple against the admissibility
conditions), ``classify`` (case label from the gcd tower), ``tangent``
(the two-dimensional tangent basis), ``flow`` (trace a deformation path),
``oracle`` (randomized cross-checks of the polynomial solvers against
independent dense solves), ``plot`` (SVG of branch points and roots).
Each subcommand takes only the options its handler reads; ``validate`` on
a directory grades every ``*.json`` in it with one ``validate_batch``:
the files are read and graded a stack at a time, the paths of a stack's
triples walked as one stack of curves, and every row is the one that
grading its file alone gives.  A stack whose walk raises is recovered
once: each curve's paths are walked alone up to the first that raises,
whose error goes to every triple on that curve, and the other curves are
walked again as one stack.  A file that fails to parse gets its own
``input-error`` row.

Exit codes: 0 success/pass, 1 validated-false (condition failures or a
non-deformable case), 2 usage/parse error, 3 numerical failure.  Reports
are byte-deterministic: fixed field order and shortest round-trip float
formatting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bezout import minimal_solution
from .curve import DEFAULT_QUAD_ORDER, build_curve
from .deformation import (
    build_tower,
    classify,
    empdi_operator_matrix,
    r_value,
    recovery_sigma_min,
    tangent_basis,
)
from .errors import NotDeformableError, WhithamError
from .flow import FlowConfig, trace
from .polyring import GCD_CLUSTER_RADIUS, Polynomial, random_real_section, roots, roots_flat
from .spectral import (
    SpectralTriple,
    ToleranceProfile,
    product_form,
    relative_residue,
    validate,
    validate_batch,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _np_scalar(x):
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not JSON serializable: {type(x)}")


def _write(text, args):
    """The report goes to ``--out`` when given, else to stdout."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump(obj, args):
    _write(json.dumps(obj, indent=2, default=_np_scalar) + "\n", args)


def _load_triple(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return SpectralTriple.from_json_dict(data)


def _tolerances(args):
    return ToleranceProfile(alg=args.tol_alg, integral=args.tol_int, cluster=args.cluster_radius)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    path = Path(args.input)
    if path.is_dir():
        return _validate_batch(path, args)
    triple = _load_triple(path)
    report = validate(triple, tol=_tolerances(args), quad_order=args.quad_order)
    _dump(report.to_json_dict(), args)
    return EXIT_PASS if report.verdict else EXIT_FAIL


_BATCH_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "input-error": EXIT_USAGE,
               "numerical-failure": EXIT_NUMERICAL}


def _load_or_error(f):
    """The triple of file f, or the error that reading it raised."""
    try:
        return _load_triple(f)
    except (WhithamError, ValueError, OSError) as exc:  # ValueError includes JSONDecodeError
        return exc


def _batch_row(name, graded):
    """The row of one file: its report's verdict, or the kind and text of
    the error that reading or grading it raised."""
    if isinstance(graded, WhithamError):
        return name, "numerical-failure", [str(graded)]
    if isinstance(graded, (ValueError, OSError)):
        return name, "input-error", [str(graded)]
    if isinstance(graded, Exception):
        raise graded
    return name, ("pass" if graded.verdict else "fail"), graded.failed()


def _validate_batch(path, args):
    # each file is read as the batch takes it, so no more files are held
    # than one stack of the batch
    files = sorted(path.glob("*.json"))
    graded = validate_batch(map(_load_or_error, files), tol=_tolerances(args),
                            quad_order=args.quad_order)
    rows = [_batch_row(f.name, g) for f, g in zip(files, graded)]
    _dump({"results": [{"file": n, "verdict": v, "failed": fl} for n, v, fl in rows]}, args)
    return max((_BATCH_EXIT[v] for _, v, _ in rows), default=EXIT_PASS)


def cmd_classify(args):
    triple = _load_triple(args.input)
    label = classify(triple, cluster_radius=args.cluster_radius)
    fs = label.factors
    _dump(
        {
            "case": label.label,
            "conformal": label.conformal,
            "deformable": label.deformable,
            "degrees": {"F": fs.F.degree, "F1": fs.F1.degree, "F2": fs.F2.degree,
                        "G": fs.G.degree},
            "warnings": list(label.warnings),
        },
        args,
    )
    return EXIT_PASS


def _residue_warnings(triple):
    """A warning for each numerator that fails the residue condition by the
    P4 test of ``validate``: the tangent space is built for residue-free
    points."""
    tol = ToleranceProfile.alg
    out = []
    for name, b in (("b1", triple.b1), ("b2", triple.b2)):
        r = relative_residue(triple.P, b)
        if r > tol:
            out.append(f"{name} is not residue-free: relative residue {r:.2e} > {tol:.0e}")
    return out


def cmd_tangent(args):
    triple = _load_triple(args.input)
    warnings = _residue_warnings(triple)
    try:
        vectors, gram = tangent_basis(triple)
    except NotDeformableError as exc:
        payload = {"deformable": False, "case": exc.case}
        if exc.indicator is not None:
            payload["case_c_indicator"] = [exc.indicator.real, exc.indicator.imag]
        _dump({**payload, "warnings": warnings}, args)
        return EXIT_FAIL
    _dump(
        {
            "deformable": True,
            "gram_determinant": gram,
            "vectors": [v.to_json_dict() for v in vectors],
            "warnings": warnings,
        },
        args,
    )
    return EXIT_PASS


def cmd_flow(args):
    triple = _load_triple(args.input)
    cfg = FlowConfig(
        h=args.dt,
        steps=args.steps,
        params_rule=args.rule,
        quad_order=args.quad_order,
        projection_tol=args.tol_int,
    )
    samples, status = trace(triple, cfg)
    if args.format == "csv":
        lines = ["t,tau_re,tau_im,residual"]
        for s in samples:
            lines.append(f"{s.t!r},{s.tau.real!r},{s.tau.imag!r},{s.psi_residual!r}")
    else:
        lines = [json.dumps(s.to_json_dict()) for s in samples]
        lines.append(json.dumps({"status": status}))
    _write("\n".join(lines) + "\n", args)
    return EXIT_PASS if status == "completed" else EXIT_NUMERICAL


# -- randomized oracle suites -------------------------------------------------


def _conv_matrix(p, cols, rows):
    M = np.zeros((rows, cols), dtype=complex)
    for j in range(cols):
        M[j : j + p.coeffs.size, j] = p.coeffs
    return M


def dense_bezout(A, B, C, d):
    """Independent stacked-coefficient solve of AX - BY = C for the minimal
    X, d = deg gcd(A, B) (oracle route; deliberately not the Vandermonde
    path): X, Y and the residual relative to |C|."""
    x_len = max(B.degree - d, 1)
    y_len = max(max(A.degree + x_len - 1, C.degree) - B.degree + 1, 1)
    rows = max(A.degree + x_len - 1, B.degree + y_len - 1, C.degree) + 1
    M = np.hstack([_conv_matrix(A, x_len, rows), -_conv_matrix(B, y_len, rows)])
    sol, *_ = np.linalg.lstsq(M, C.padded(rows), rcond=None)
    X, Y = Polynomial(sol[:x_len]), Polynomial(sol[x_len:])
    return X, Y, (A * X - B * Y - C).norm() / max(C.norm(), 1e-300)


def _oracle_bezout(rng, count):
    worst = 0.0
    for _ in range(count):
        d_deg = int(rng.integers(0, 3))
        D = (
            Polynomial(rng.standard_normal(d_deg + 1) + 1j * rng.standard_normal(d_deg + 1))
            if d_deg
            else Polynomial.one()
        )
        A = Polynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4)) * D
        B = Polynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5)) * D
        C = Polynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4)) * D
        sol = minimal_solution(A, B, [C])[0]
        X_o = dense_bezout(A, B, C, d_deg)[0]
        worst = max(worst, (sol.X - X_o).norm() / max(1.0, X_o.norm()))
    return worst, 1e-8


def _oracle_r_reality(rng, count):
    worst = 0.0
    for _ in range(count):
        g = int(rng.integers(0, 3))
        alphas = 0.25 + 0.5 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1))
        P = product_form(alphas)
        t = SpectralTriple(
            g, P, random_real_section(rng, g + 3), random_real_section(rng, g + 3)
        )
        lab = classify(t)
        if lab.label != "a":
            continue
        Q = random_real_section(rng, 2)
        tw = build_tower(t, lab)
        R = r_value(tw, Q)
        betas = roots_flat(tw.b2_tilde)
        n = tw.b2_tilde.degree - 1
        rel = (-1.0) ** n * np.prod(betas) * R
        worst = max(worst, abs(np.conj(R) - rel) / max(1.0, abs(R)))
    return worst, 1e-8


def _oracle_kernel(rng, count):
    worst_min = np.inf
    for _ in range(count):
        g = int(rng.integers(0, 6))
        alphas = 0.2 + 0.55 * rng.random(g + 1) * np.exp(2j * np.pi * rng.random(g + 1))
        M = empdi_operator_matrix(product_form(alphas), g)
        worst_min = min(worst_min, recovery_sigma_min(M))
    return worst_min, 1e-10


def cmd_oracle(args):
    seed = args.seed if args.seed is not None else int.from_bytes(np.random.bytes(4), "little")
    rng = np.random.default_rng(seed)
    count = args.count
    bez, bez_tol = _oracle_bezout(rng, count)
    rr, rr_tol = _oracle_r_reality(rng, count)
    smin, smin_tol = _oracle_kernel(rng, max(count // 5, 5))
    ok = bez <= bez_tol and rr <= rr_tol and smin > smin_tol
    _dump(
        {
            "seed": seed,
            "count": count,
            "bezout_vs_dense_max_error": bez,
            "r_reality_max_defect": rr,
            "recovery_operator_min_sigma": smin,
            "verdict": "pass" if ok else "fail",
        },
        args,
    )
    return EXIT_PASS if ok else EXIT_FAIL


# -- SVG plot -------------------------------------------------------------------


def _svg_point(z):
    """SVG coordinates of z: the unit circle is drawn at radius 120 about
    (300, 300)."""
    return 300.0 + 120.0 * z.real, 300.0 - 120.0 * z.imag


def cmd_plot(args):
    triple = _load_triple(args.input)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" viewBox="0 0 600 600">',
        '<rect width="600" height="600" fill="white"/>',
        '<circle cx="300" cy="300" r="120" fill="none" stroke="#888" stroke-dasharray="4 3"/>',
    ]
    try:
        cur = build_curve(triple.P)
        for a, partner in cur.branch_pairs:
            xa, ya = _svg_point(a)
            parts.append(f'<circle cx="{xa:.2f}" cy="{ya:.2f}" r="5" fill="#c22"/>')
            if partner is not None and abs(partner) < 2.4:
                xp, yp = _svg_point(partner)
                parts.append(
                    f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xp:.2f}" y2="{yp:.2f}" '
                    'stroke="#c22" stroke-dasharray="2 2"/>'
                )
                parts.append(f'<rect x="{xp - 4:.2f}" y="{yp - 4:.2f}" width="8" height="8" fill="none" stroke="#c22"/>')
    except WhithamError:
        pass
    for b, color in ((triple.b1, "#26c"), (triple.b2, "#2a2")):
        try:
            for r, _ in roots(b):
                if abs(r) < 2.4:
                    x, y = _svg_point(r)
                    parts.append(
                        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" stroke="{color}" stroke-width="1.5"/>'
                    )
        except WhithamError:
            pass
    parts.append(
        '<text x="10" y="20" font-size="13" fill="#333">'
        "red: branch pairs (dot inside, square outside) - blue/green: roots of b1/b2</text>"
    )
    parts.append("</svg>")
    _write("\n".join(parts) + "\n", args)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _in_domain(kind, ok, domain):
    """argparse ``type=`` that parses ``kind`` and rejects values outside
    the domain, so they end as usage errors."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {domain}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its own errors
    return parse


_QUAD_ORDER = _in_domain(int, lambda n: n >= 3, "an integer >= 3")
QUAD_HELP = "q selects G_n/K_{2n+1}, n = q // 2: Kronrod value, Gauss error (default %(default)s)"
_POSITIVE = _in_domain(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_COUNT = _in_domain(int, lambda n: n >= 1, "an integer >= 1")
_NONZERO = _in_domain(float, lambda x: x != 0.0 and math.isfinite(x), "a finite nonzero number")


def build_parser():
    p = argparse.ArgumentParser(
        prog="whitham",
        description="Spectral triples of harmonic tori: validation, tangent spaces, flows.",
    )
    sub = p.add_subparsers(dest="command")

    def command(name, fn, summary, needs_input=True):
        sp = sub.add_parser(name, help=summary)
        if needs_input:
            sp.add_argument("input", help="triple JSON file (or directory for validate)")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("validate", cmd_validate, "grade a triple against the conditions")
    sp.add_argument("--tol-alg", type=_POSITIVE, default=ToleranceProfile.alg)
    sp.add_argument("--tol-int", type=_POSITIVE, default=ToleranceProfile.integral)
    sp.add_argument("--cluster-radius", type=_POSITIVE, default=ToleranceProfile.cluster)
    sp.add_argument("--quad-order", type=_QUAD_ORDER, default=DEFAULT_QUAD_ORDER, help=QUAD_HELP)

    sp = command("classify", cmd_classify, "case label (a)-(f) from the gcd tower")
    sp.add_argument("--cluster-radius", type=_POSITIVE, default=GCD_CLUSTER_RADIUS)

    command("tangent", cmd_tangent, "two-dimensional tangent basis")

    sp = command("flow", cmd_flow, "trace a deformation path")
    sp.add_argument("--tol-int", type=_POSITIVE, default=FlowConfig.projection_tol)
    sp.add_argument("--quad-order", type=_QUAD_ORDER, default=DEFAULT_QUAD_ORDER, help=QUAD_HELP)
    sp.add_argument("--format", default="json", choices=("json", "csv"))
    sp.add_argument("--steps", type=_COUNT, default=10)
    # a negative step is a backward flow
    sp.add_argument("--dt", type=_NONZERO, default=1e-2)
    sp.add_argument("--rule", default="basis0", choices=("basis0", "basis1"))

    sp = command("oracle", cmd_oracle, "randomized solver cross-checks", needs_input=False)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--count", type=_COUNT, default=100)

    command("plot", cmd_plot, "SVG of branch points and differential roots")
    return p


@functools.cache
def _parser():
    """The parser, built on the first ``main`` call (not at import) and
    reused by every later call in the process: parsing leaves it unchanged,
    and each call gets a fresh namespace."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ValueError includes JSONDecodeError
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    except WhithamError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
