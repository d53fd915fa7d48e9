"""The three workloads: seeded input generators, CLI call schedules and the
correctness gate for every output.

Each workload writes triple JSON files and turns them into a schedule of
``Op`` entries.  An op is the unit ``ops_per_s`` counts (a triple graded, a
flow step accepted, a tangent+classify pair) and holds the CLI calls that
produce it.  The program sees only the written files and the CLI argv.

Why each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from whitham.flow import seed_conformal_genus0, seed_genus0, seed_genus1
from whitham.polyring import Polynomial, random_real_section
from whitham.spectral import SpectralTriple, validate

# Base branch points of the genus-0 points, from well inside the disc to
# |alpha| = 0.8.  The seed moves each branch point, and each numerator drawn
# below, within a small neighbourhood of a fixed base (JITTER), so every
# seed gives new inputs at nearly the same root-finding, quadrature and
# Newton cost: the spread between seeds must stay below the metric bounds.
G0_BASES = tuple(r * np.exp(2j * np.pi * 0.618 * k) for k, r in
                 enumerate((0.2, 0.35, 0.5, 0.6, 0.7, 0.8)))
FLOW_G0_BASE = 0.42 + 0.18j  # the default seed_genus0 branch point
JITTER = 0.01
# A well-separated genus-2 curve.  No admissible genus-2 point exists yet,
# so genus 2 is graded with seeded numerators: inadmissible, but it pays
# the full frame-build and quadrature cost.
G2_ALPHAS = (0.3 + 0.05j, 0.5j, -0.45 + 0.2j)
G3_ALPHAS = G2_ALPHAS + (0.2 - 0.55j,)
PERTURBATION = 1e-4  # relative size of the real-section kick to b1, b2
VALIDATE_SHARDS = 3
# (rule, step size) per genus, one step per call: each genus runs both
# rules and both step sizes, in a half of the full 2 x 2 design, so a pass
# is half as long and every call is timed twice as often in a run.
FLOW_RUNS = {"g0": (("basis0", "0.01"), ("basis1", "0.05")),
             "g1": (("basis0", "0.05"), ("basis1", "0.01"))}
# The CLI's default projection tolerance when --tol-int is not given.
PROJECTION_TOL = 1e-10
LATTICE_CHECKS = ("P4", "P6", "P7")


@dataclass(frozen=True)
class Op:
    key: str
    argvs: tuple
    units: int
    # (exit codes, outputs) -> (units failed, problems, per-pass counts)
    check: Callable
    tag: str = ""  # genus of a flow op, for per-genus counts


def pair_poly(*alphas):
    """Product form: (zeta - a)(1 - conj(a) zeta) per branch pair."""
    out = Polynomial.one()
    for a in alphas:
        out = out * Polynomial([-a, 1.0]) * Polynomial([1.0, -np.conj(a)])
    return out


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _near(rng, base):
    return complex(base + JITTER * np.exp(2j * np.pi * rng.random()) * rng.random())


def _write(workdir, name, triple):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(triple.to_json_dict()), encoding="utf-8")
    return path


# -- inputs -------------------------------------------------------------------


def admissible_points(seed):
    """(name, triple, case label) of admissible points: seeded genus-0
    points, seeded conformal genus-0 points and the genus-1 seed."""
    rng = _rng(seed, 0)
    out = []
    for k, base in enumerate(G0_BASES):
        out.append((f"g0-{k}", seed_genus0(alpha=_near(rng, base)), "a"))
    for _ in range(3):
        kp, km = (int(k) for k in rng.integers(1, 4, size=2))
        out.append((f"conf-{kp}-{km}-{len(out)}", seed_conformal_genus0(kp, km), "e"))
    out.append(("g1", seed_genus1(), "a"))
    return out


def perturbed(triple, rng):
    g, k = triple.g, triple.g + 3
    kick = [random_real_section(rng, k, PERTURBATION * b.norm() / np.sqrt(k + 1))
            for b in (triple.b1, triple.b2)]
    return SpectralTriple(g, triple.P, triple.b1 + kick[0], triple.b2 + kick[1])


def _sections(seed, stream, k, count):
    """Weight-k real sections: fixed base sections plus a seeded kick of
    relative size JITTER."""
    base, rng = np.random.default_rng([stream]), _rng(seed, stream)
    return [random_real_section(base, k) + random_real_section(rng, k, JITTER)
            for _ in range(count)]


def genus2_triples(seed, count):
    P = pair_poly(*G2_ALPHAS)
    b = _sections(seed, 1, 5, 2 * count)
    return [SpectralTriple(2, P, b[2 * i], b[2 * i + 1]) for i in range(count)]


def genus3_triple(seed):
    return SpectralTriple(3, pair_poly(*G3_ALPHAS), *_sections(seed, 2, 6, 2))


def circle_root_triples(seed, count):
    """Genus-1 data with a simple root of P on the unit circle: validation
    stops at the curve and skips the quadrature."""
    rng = _rng(seed, 3)
    b = _sections(seed, 3, 4, 2 * count)
    out = []
    for i in range(count):
        root = np.exp(2j * np.pi * rng.random())
        P = Polynomial([-root, 1.0]) * pair_poly(_near(rng, 0.5j))
        out.append(SpectralTriple(1, P, b[2 * i], b[2 * i + 1]))
    return out


def non_deformable_triples(seed):
    """(name, triple, case) for the cases (c), (d), (f), built from common
    factors between P and the numerators."""
    c1, c2 = _sections(seed, 4, 3, 2)
    d1, d2, f1, f2 = _sections(seed, 7, 2, 4)
    F = pair_poly(0.35 + 0.1j)
    case_c = SpectralTriple(2, F * pair_poly(0.5, -0.4), F * c1, F * c2)
    G = pair_poly(0.3) * Polynomial([-1j, 1.0])
    case_d = SpectralTriple(2, pair_poly(0.5, -0.45, 0.25j), G * d1, G * d2 * 1j)
    z, E = Polynomial.zeta(), pair_poly(0.45)
    case_f = SpectralTriple(2, z * E * pair_poly(0.3j), z * E * f1, z * E * f2 * 1j)
    return [("case-c", case_c, "c"), ("case-d", case_d, "d"), ("case-f", case_f, "f")]


# -- validate-corpus ------------------------------------------------------------


def _expect_verdict(kind, row):
    failed = row["failed"]
    if kind == "admissible":
        return row["verdict"] == "pass"
    if row["verdict"] != "fail":
        return False
    if kind == "perturbed":
        return bool(failed) and all(n.split("_")[0] in LATTICE_CHECKS for n in failed)
    if kind == "quadrature":
        return any(n.startswith(("P6", "P7")) for n in failed)
    return "curve" in failed  # circle root: early exit before the quadrature


def _validate_check(expected):
    want_code = 1 if any(k != "admissible" for k in expected.values()) else 0

    def check(codes, outputs):
        rows = {r["file"]: r for r in json.loads(outputs[0])["results"]}
        bad = [f for f, kind in expected.items()
               if f not in rows or not _expect_verdict(kind, rows[f])]
        if codes[0] != want_code:
            return len(expected), [f"exit code {codes[0]} != {want_code}"], {}
        return len(bad), [f"unexpected verdict for {f}: {rows.get(f)}" for f in bad], {}

    return check


def build_validate_corpus(seed, workdir):
    rng = _rng(seed, 5)
    adm = admissible_points(seed)
    entries = []
    for name, t, _ in adm:
        entries.append((name, t, "admissible"))
        entries.append((f"{name}-perturbed", perturbed(t, rng), "perturbed"))
    entries.sort(key=lambda e: (e[0].split("-")[0], e[2]))
    entries += [(f"g2-{i}", t, "quadrature") for i, t in enumerate(genus2_triples(seed, 3))]
    entries += [(f"circle-{i}", t, "curve") for i, t in enumerate(circle_root_triples(seed, 2))]
    shards = [workdir / f"shard{k}" for k in range(VALIDATE_SHARDS)]
    expected = [{} for _ in shards]
    for i, (name, triple, kind) in enumerate(entries):
        k = i % VALIDATE_SHARDS
        shards[k].mkdir(parents=True, exist_ok=True)
        expected[k][_write(shards[k], name, triple).name] = kind
    return [Op(f"validate {d.name}", (("validate", str(d)),), len(exp), _validate_check(exp))
            for d, exp in zip(shards, expected)]


# -- flow-trace ---------------------------------------------------------------


def step_halvings(samples, h):
    """Halvings of each accepted step, read from successive sample times."""
    ts = [s["t"] for s in samples]
    return sum(int(round(np.log2(h / (b - a)))) for a, b in zip(ts, ts[1:]))


def parse_flow(text):
    lines = text.splitlines()
    return [json.loads(s) for s in lines[:-1]], json.loads(lines[-1])["status"]


def _flow_check(h, tag):
    def check(codes, outputs):
        problems = []
        samples, status = parse_flow(outputs[0])
        if codes[0] != 0 or status != "completed":
            problems.append(f"exit {codes[0]}, status {status!r}")
        if len(samples) != 2:
            problems.append(f"{len(samples) - 1} steps instead of 1")
        worst = max(s["psi_residual"] for s in samples)
        if worst > 10 * PROJECTION_TOL:
            problems.append(f"psi residual {worst:.3e} > {10 * PROJECTION_TOL:.0e}")
        if len({tuple(s["lattice_integers"]) for s in samples}) != 1:
            problems.append("lattice integers changed along the path")
        last = SpectralTriple.from_json_dict(samples[-1]["triple"])
        report = validate(last)
        if not report.verdict:
            problems.append(f"last sample fails validation: {report.failed()}")
        counts = {"flow.steps": 1, f"flow.steps.{tag}": 1,
                  "flow.step_halvings": step_halvings(samples, h)}
        return (1 if problems else 0), problems, counts

    return check


def flow_points(seed):
    rng = _rng(seed, 6)
    return [("g0", seed_genus0(alpha=_near(rng, FLOW_G0_BASE))), ("g1", seed_genus1())]


def build_flow_trace(seed, workdir):
    ops = []
    for name, triple in flow_points(seed):
        path = _write(workdir, name, triple)
        for rule, h in FLOW_RUNS[name]:
            argv = ("flow", str(path), "--steps", "1", "--dt", h, "--rule", rule)
            ops.append(Op(f"flow {name} {rule} h={h}", (argv,), 1,
                          _flow_check(float(h), name), tag=name))
    return ops


# -- tangent-corpus -------------------------------------------------------------


def _tangent_check(label):
    deformable = label in ("a", "b", "e")

    def check(codes, outputs):
        tangent, classified = (json.loads(o) for o in outputs)
        problems = []
        if codes[1] != 0 or classified["case"] != label:
            problems.append(f"classify: exit {codes[1]}, case {classified['case']} != {label}")
        if deformable:
            if codes[0] != 0 or not tangent["gram_determinant"] > 0:
                problems.append(f"tangent: exit {codes[0]}, gram {tangent.get('gram_determinant')}")
        elif codes[0] != 1 or tangent["case"] != label:
            problems.append(f"tangent: exit {codes[0]}, case {tangent.get('case')} != {label}")
        return (1 if problems else 0), problems, {}

    return check


def build_tangent_corpus(seed, workdir):
    entries = admissible_points(seed)
    entries.append(("g2", genus2_triples(seed, 1)[0], "a"))
    entries.append(("g3", genus3_triple(seed), "a"))
    entries += non_deformable_triples(seed)
    ops = []
    for name, triple, label in entries:
        path = str(_write(workdir, name, triple))
        ops.append(Op(f"tangent+classify {name}", (("tangent", path), ("classify", path)),
                      1, _tangent_check(label)))
    return ops


WORKLOADS = {
    "validate-corpus": build_validate_corpus,
    "flow-trace": build_flow_trace,
    "tangent-corpus": build_tangent_corpus,
}
