"""Print one sha1 per CLI report, with its exit code, to compare checkouts.

Runs ``validate``, ``classify``, ``tangent``, ``flow --steps 3`` at the
default step and at ``--dt 0.05``, each under both flow rules (``basis0``
and ``basis1``), and ``plot`` on the five seed points, on two fixed
triples (a genus-3 case-(a) triple, whose tangent solves genus-3 Bezout
systems, and a case-(c) triple, whose ``tangent`` reports the case-(c)
indicator) and on every input given (a directory stands for the ``*.json``
files in it), then ``validate`` on the directory of the seven fixed inputs
(the seed points and the two fixed triples, graded as one batch of stacked
walks), ``validate`` alone on a fixed conformal genus-1 triple whose other
branch point sorts before zeta = 0, ``validate`` on a directory that
repeats curves (each seed point and a perturbed copy with the same P, and
two more conformal genus-0 points with P = zeta, so triples of one stack
share their curve's walk), ``validate`` on a directory whose stack has a
failing walk (two seed points, the case-(c) triple and a copy of it with
the same P, graded with ``whitham.curve.MAX_SEGMENTS`` lowered to 100, so
the case-(c) curve's walk raises and the stack is recovered), and
``oracle --seed 7 --count 25`` once, in-process, and hashes what each call
writes to stdout and stderr.  Last, one line per seed point scaled so that
a square leaves the float range (the conformal genus-0 seed with b1
multiplied by 1e-160, and the linear case-(b) seed with P, b1 and b2
multiplied by about 5e193, 4e248 and 2e241) gives the exit code and the
hash of what ``tangent`` and ``flow --steps 1`` write to stderr.
At each seed point it also hashes the numbers behind those reports: the
Psi vector with its integration error, the lattice integers and residuals
that ``validate`` prints from it, the exact Jacobian of a fresh
evaluation, Psi and the exact Jacobian at P scaled by 1 + 1e-9 in the
same frame, handed the first evaluation's quadrature grid (``like=``),
and the ``integrate_batch`` values of both differentials over every path
of the frame.  Three lines hash the quadrature rule itself, the nodes,
weights and columns of ``curve._panel_grid`` at the default order (32),
at the seed points' order (40, ``flow.SEED_QUAD_ORDER``) and at 48, so
that two numpy builds can be seen to build the Gauss-Kronrod rule bit for
bit.  Two checkouts' outputs diff clean exactly when their reports, exit
codes and those numbers are byte-identical:

    python scripts/report_digest.py [FILE_OR_DIR ...] > digests.txt

The library is imported from the ``src`` directory of the checkout that
holds the script.  With ``--against REF`` the script checks REF (any git
revision) out into a temporary ``git worktree``, which it removes
afterwards, runs REF's digest there and this checkout's digest, both on
the inputs given, and prints each line whose hashes or exit codes differ
with both sides' values, then the lines found on one side only; it exits
1 on any difference:

    python scripts/report_digest.py --against main [FILE_OR_DIR ...]
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import whitham.curve as curve_mod
from whitham.cli import main
from whitham.curve import DEFAULT_QUAD_ORDER, _panel_grid, build_curve, integrate_batch
from whitham.flow import (
    SEED_QUAD_ORDER,
    seed_common_factor,
    seed_conformal_genus0,
    seed_genus0,
    seed_genus1,
)
from whitham.polyring import random_real_section
from whitham.spectral import PsiFrame, SpectralTriple, product_form, psi_walks

COMMANDS = (
    ("validate",),
    ("classify",),
    ("tangent",),
    ("flow", "--steps", "3"),
    ("flow", "--steps", "3", "--rule", "basis1"),
    # a longer step takes more Gauss-Newton trials per round
    ("flow", "--steps", "3", "--dt", "0.05"),
    ("flow", "--steps", "3", "--dt", "0.05", "--rule", "basis1"),
    ("plot",),
)

# subcommands that read no input, run once
STANDALONE = (("oracle", "--seed", "7", "--count", "25"),)

SEEDS = {
    "seed_genus0": seed_genus0,
    "seed_conformal_genus0": seed_conformal_genus0,
    "seed_genus1": seed_genus1,
    "seed_common_factor_linear": lambda: seed_common_factor("linear"),
    "seed_common_factor_quad": lambda: seed_common_factor("quad"),
}


def genus3_case_a():
    """Genus 3: four fixed branch pairs and fixed random real sections of
    weight 6, neither residue-free nor on the lattice."""
    rng = np.random.default_rng(2018)
    P = product_form([0.3 + 0.05j, 0.5j, -0.45 + 0.2j, 0.2 - 0.55j])
    return SpectralTriple(3, P, random_real_section(rng, 6), random_real_section(rng, 6))


def case_c():
    """Genus 2 with a real quadratic F shared by P, b1 and b2."""
    rng = np.random.default_rng(2019)
    F = product_form([0.35 + 0.1j])
    c1, c2 = random_real_section(rng, 3), random_real_section(rng, 3)
    return SpectralTriple(2, F * product_form([0.5, -0.4]), F * c1, F * c2)


def conformal_genus1():
    """Genus 1, branched at zeta = 0, with the other in-disc branch point at
    -0.5, so the pair at infinity is not the lexicographically first."""
    rng = np.random.default_rng(2020)
    b1, b2 = random_real_section(rng, 4), random_real_section(rng, 4)
    return SpectralTriple(1, product_form([0.0, -0.5]), b1, b2)


# fixed triples that only the CLI commands run on
FIXED = {"genus3_case_a": genus3_case_a, "case_c": case_c}


def scaled(t, p, b1, b2):
    return SpectralTriple(t.g, t.P * p, t.b1 * b1, t.b2 * b2)


# seed points at which a square leaves the float range: a tangent vector's
# norm, and the exact Jacobian's scaling row
OVERFLOWING = {
    "tiny-b1": lambda: scaled(seed_conformal_genus0(), 1.0, 1e-160, 1.0),
    "huge-scaling": lambda: scaled(seed_common_factor("linear"), 10**193.66381858313736,
                                   10**248.54647189169782, 10**241.38933742690062),
}


def repeated_curves():
    """(name, triple) of each seed point and a perturbed copy with the same
    P (fixed kicks of relative size 1e-4 to b1 and b2), and of two more
    conformal genus-0 points, whose P = zeta is that of
    ``seed_conformal_genus0``."""
    rng = np.random.default_rng(2021)
    for name, make in SEEDS.items():
        t = make()
        yield name, t
        b1, b2 = (b + random_real_section(rng, t.g + 3, 1e-4 * b.norm()) for b in (t.b1, t.b2))
        yield f"{name}-perturbed", SpectralTriple(t.g, t.P, b1, b2)
    for kp, km in ((1, 2), (3, 1)):
        yield f"conformal-{kp}-{km}", seed_conformal_genus0(kp, km)


def failing_walk():
    """(name, triple) of two seed points, the case-(c) triple and a copy of
    it with the same P (a fixed kick of relative size 1e-4 to b1)."""
    rng = np.random.default_rng(2022)
    c = case_c()
    yield "seed_genus0", seed_genus0()
    yield "seed_genus1", seed_genus1()
    yield "case_c", c
    kick = random_real_section(rng, c.g + 3, 1e-4 * c.b1.norm())
    yield "case_c-perturbed", SpectralTriple(c.g, c.P, c.b1 + kick, c.b2)


def write_directory(path, triples):
    path.mkdir()
    for name, triple in triples:
        (path / f"{name}.json").write_text(json.dumps(triple.to_json_dict()), encoding="utf-8")


def inputs(args, workdir):
    """(label, path) of the seed points and the fixed triples, written to
    ``workdir``, then of the given files."""
    for name, make in {**SEEDS, **FIXED}.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(make().to_json_dict()), encoding="utf-8")
        yield name, path
    for arg in args:
        path = Path(arg)
        for f in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            yield str(f), f


def digest(argv, stdout=True):
    """The exit code and the sha1 of what the call writes to stdout (unless
    ``stdout`` is false) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = (out.getvalue() if stdout else "") + err.getvalue()
    return code, hashlib.sha1(text.encode()).hexdigest()


def numerics(triple):
    """(name, arrays) of the numbers behind the reports at ``triple``, in
    its frame at the default quadrature order."""
    frame = PsiFrame.build(triple)
    fresh = psi_walks(triple, frame)
    yield "psi", [fresh.vector.flatten(), [fresh.vector.integration_error]]
    # the lattice numbers ``validate`` prints from Psi
    yield "lattice", [fresh.vector.lattice_integers(), fresh.vector.lattice_residuals()]
    yield "jacobian", [fresh.jacobian()]
    scaled = SpectralTriple(triple.g, triple.P * (1 + 1e-9), triple.b1, triple.b2)
    handed = psi_walks(scaled, frame, like=fresh)
    yield "jacobian-like", [handed.vector.flatten(), handed.jacobian()]
    cur = build_curve(triple.P)
    yield "integrate_batch", [
        [(r.value, r.error, r.end_sheet) for r in integrate_batch(cur, [triple.b1, triple.b2], path)]
        for path in fresh.walks.paths
    ]


def run(args):
    with tempfile.TemporaryDirectory() as tmp:
        for label, path in inputs(args, Path(tmp)):
            for cmd in COMMANDS:
                code, sha = digest((cmd[0], str(path)) + cmd[1:])
                print(f"{sha} exit={code} {' '.join(cmd)} {label}", flush=True)
            if label in SEEDS:
                triple = SpectralTriple.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
                for name, arrays in numerics(triple):
                    data = b"".join(np.asarray(a, dtype=complex).tobytes() for a in arrays)
                    print(f"{hashlib.sha1(data).hexdigest()} numerics {name} {label}", flush=True)
        # the seven fixed inputs are the only files in the directory
        code, sha = digest(("validate", tmp))
        print(f"{sha} exit={code} validate fixed-inputs-directory", flush=True)
        # written after the directory is graded, so it stays out of it
        path = Path(tmp) / "conformal_genus1.json"
        path.write_text(json.dumps(conformal_genus1().to_json_dict()), encoding="utf-8")
        code, sha = digest(("validate", str(path)))
        print(f"{sha} exit={code} validate conformal_genus1", flush=True)
        repeated = Path(tmp) / "repeated-curves"
        write_directory(repeated, repeated_curves())
        code, sha = digest(("validate", str(repeated)))
        print(f"{sha} exit={code} validate repeated-curves-directory", flush=True)
        failing = Path(tmp) / "failing-walk"
        write_directory(failing, failing_walk())
        max_segments, curve_mod.MAX_SEGMENTS = curve_mod.MAX_SEGMENTS, 100
        try:
            code, sha = digest(("validate", str(failing)))
        finally:
            curve_mod.MAX_SEGMENTS = max_segments
        print(f"{sha} exit={code} validate failing-walk-directory", flush=True)
    for cmd in STANDALONE:
        code, sha = digest(cmd)
        print(f"{sha} exit={code} {' '.join(cmd)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, make in OVERFLOWING.items():
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(make().to_json_dict()), encoding="utf-8")
            line = []
            for cmd in (("tangent",), ("flow", "--steps", "1")):
                code, sha = digest((cmd[0], str(path)) + cmd[1:], stdout=False)
                line.append(f"{sha} exit={code} {' '.join(cmd)}")
            print(f"{' '.join(line)} stderr {label}", flush=True)
    for order in (DEFAULT_QUAD_ORDER, SEED_QUAD_ORDER, 48):
        data = b"".join(np.asarray(a, dtype=float).tobytes() for a in _panel_grid(order))
        print(f"{hashlib.sha1(data).hexdigest()} numerics panel-grid order-{order}", flush=True)


# a line's outcomes: its sha1 hashes and exit codes; the rest names the line
OUTCOME = re.compile(r"[0-9a-f]{40}|exit=-?\d+")


def _digest_lines(script, inputs):
    """The lines the digest script ``script`` prints for ``inputs``."""
    done = subprocess.run([sys.executable, str(script), *inputs], check=True,
                          stdout=subprocess.PIPE, text=True)
    return done.stdout.splitlines()


def _by_name(lines):
    """{name: outcomes} of digest lines, in order."""
    out = {}
    for line in lines:
        tokens = line.split()
        name = " ".join(t for t in tokens if not OUTCOME.fullmatch(t))
        out[name] = " ".join(t for t in tokens if OUTCOME.fullmatch(t))
    return out


def compare(ref, inputs):
    """Print how REF's digest and this checkout's differ; 1 if they do."""
    script = Path(__file__).resolve()
    repo = script.parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "ref"
        subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", str(tree), ref],
                       check=True, capture_output=True)
        try:
            theirs = _by_name(_digest_lines(tree / "scripts" / "report_digest.py", inputs))
        finally:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(tree)],
                           check=True, capture_output=True)
    ours = _by_name(_digest_lines(script, inputs))
    differing = [name for name in ours if name in theirs and ours[name] != theirs[name]]
    for name in differing:
        print(f"differs: {name}\n  {ref}: {theirs[name]}\n  here: {ours[name]}")
    only_ref = [name for name in theirs if name not in ours]
    only_here = [name for name in ours if name not in theirs]
    for name in only_ref:
        print(f"only in {ref}: {theirs[name]} {name}")
    for name in only_here:
        print(f"only here: {ours[name]} {name}")
    print(f"{len(differing)} lines differ, {len(only_ref)} only in {ref}, "
          f"{len(only_here)} only here, of {len(ours)} lines here")
    return 1 if differing or only_ref or only_here else 0


def command_line(argv):
    parser = argparse.ArgumentParser(description="Hash the CLI reports of a checkout.")
    parser.add_argument("inputs", nargs="*", metavar="FILE_OR_DIR")
    parser.add_argument("--against", metavar="REF",
                        help="compare with the digest of this git revision")
    args = parser.parse_args(argv)
    if args.against is None:
        run(args.inputs)
        return 0
    return compare(args.against, args.inputs)


if __name__ == "__main__":
    sys.exit(command_line(sys.argv[1:]))
