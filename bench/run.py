"""Benchmark of the whitham CLI: end-to-end timings, or a traced run with
per-layer numbers.

    python3 bench/run.py --workload validate-corpus --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the library from its
``src`` directory.  It drives ``whitham.cli.main`` in-process on inputs
generated from ``--seed``, checks every output, and prints as its last
stdout line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds the machine facts, the latency
tail with its percentile and sample count, the machine's slowdown and the
uncorrected wall-time figures, the failed fraction and the per-pass counts.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_PROBES = 3  # speed probes before each set-up round and after the last
# The first pass warms up and holds the reports the gate checks; it is not
# timed.  A second pass checks every report against a repeat.
MIN_PASSES = 2
# A measuring phase stops at 3x its budget or at this many seconds, whatever
# its minimum pass count, so a traced run ends within 180 s.
HARD_STOP_S = 100.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or the pinned value when
    that library cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_facts():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs passes over a schedule of ops through the in-process CLI."""

    def __init__(self, cli, ops):
        from speed import PROBE_EVERY_S, probe

        self.cli = cli
        self.ops = ops
        self.probe = probe
        self.probe_every_s = PROBE_EVERY_S
        self.last_probe = perf_counter()
        self.reference = {}  # op key -> (codes, outputs) of the first pass
        self.failed_units = {}  # op key -> units failed by the semantic check
        self.counts = {}  # per-pass counts read from the outputs
        self.problems = []

    def call(self, argv):
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            code = self.cli.main(list(argv))
            dt = perf_counter() - t0
        return code, buf.getvalue(), dt

    def run_pass(self, on_op=None):
        """One sweep of the schedule: (call durations, units, units failed,
        speed probe times).  A probe follows the call that ends the
        probe interval, and every pass takes at least one."""
        durations, units, failed, probes = [], 0, 0, []
        for op in self.ops:
            before = on_op(op, None) if on_op else None
            codes, outputs = [], []
            for argv in op.argvs:
                code, text, dt = self.call(argv)
                codes.append(code)
                outputs.append(text)
                durations.append(dt)
                if perf_counter() - self.last_probe >= self.probe_every_s:
                    probes.append(self.probe())
                    self.last_probe = perf_counter()
            if on_op:
                on_op(op, before)
            units += op.units
            if op.key not in self.reference:
                self.reference[op.key] = (codes, outputs)
                try:
                    bad, problems, counts = op.check(codes, outputs)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    bad, problems, counts = op.units, [f"unreadable report: {exc!r}"], {}
                self.failed_units[op.key] = bad
                self.problems += [f"{op.key}: {p}" for p in problems]
                for k, v in counts.items():
                    self.counts[k] = self.counts.get(k, 0) + v
            elif self.reference[op.key] != (codes, outputs):
                self.failed_units[op.key] = op.units
                self.problems.append(f"{op.key}: report differs from the first pass")
            failed += self.failed_units[op.key]
        if not probes:
            probes.append(self.probe())
            self.last_probe = perf_counter()
        return durations, units, failed, probes

    def measure(self, budget_s, min_passes, on_op=None, after_pass=None):
        """Whole passes until the budget is spent and ``min_passes`` are
        done; stops early at a failed gate or at the hard stop."""
        passes = []
        t_start = perf_counter()
        while True:
            passes.append(self.run_pass(on_op))
            if after_pass:
                after_pass()
            elapsed = perf_counter() - t_start
            if self.problems or elapsed > min(3 * budget_s, HARD_STOP_S):
                break
            if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) >= budget_s:
                break
        return passes


def slowdown(passes):
    """The machine's mean slowdown over the passes: the mean probe time
    over the probe's nominal time."""
    from speed import PROBE_NOMINAL_S

    return statistics.mean(x for p in passes for x in p[3]) / PROBE_NOMINAL_S


def tail(samples):
    """The highest percentile with ten samples beyond it, with that
    percentile and the sample count; None below eleven samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    return {"value_s": xs[-11], "percentile": 100.0 * (len(xs) - 10) / len(xs), "samples": len(xs)}


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import whitham; print(time.perf_counter() - t)")


def import_seconds():
    """Time to import whitham in a fresh interpreter; it can be measured only
    once per process, so each set-up round asks a new one, and waits."""
    import subprocess

    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def setup(build, seed, workdir):
    """Median over repeated set-up rounds (importing whitham, then
    generating and writing the inputs), over the machine's slowdown in
    the rounds; returns (seconds, ops)."""
    import shutil

    from speed import PROBE_NOMINAL_S, probe

    times, probes, ops = [], [], None
    for _ in range(SETUP_REPEATS):
        probes += [probe() for _ in range(SETUP_PROBES)]
        shutil.rmtree(workdir, ignore_errors=True)
        import_s = import_seconds()
        t0 = perf_counter()
        workdir.mkdir(parents=True)
        ops = build(seed, workdir)
        times.append(import_s + perf_counter() - t0)
    probes += [probe() for _ in range(SETUP_PROBES)]
    return statistics.median(times) * PROBE_NOMINAL_S / statistics.mean(probes), ops


def untraced_metrics(runner, seconds, info):
    import resource

    passes = runner.measure(seconds, MIN_PASSES)
    timed = passes[1:]
    calls = [d for p in timed for d in p[0]]
    units = sum(p[1] for p in timed)
    # Wall times over the machine's mean slowdown in the run: times at the
    # probe's nominal speed (see speed.py).
    slow = slowdown(timed)
    per_call = [statistics.mean(col) for col in zip(*(p[0] for p in timed))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (units * slow / sum(calls), "1/s"),
        "latency_p50_s": (statistics.median(per_call) / slow, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    # Recorded, not gated: the tail follows the load from outside the
    # process too closely to carry a bound.
    info["latency_tail"] = tail(calls)
    info["slowdown"] = slow
    info["probes"] = sum(len(p[3]) for p in timed)
    info["wall"] = {"ops_per_s": units / sum(calls), "latency_p50_s": statistics.median(per_call)}
    info["passes"] = len(passes)
    return passes, metrics


def traced_metrics(runner, seconds, info):
    import tracer as tr
    from layers import LAYER_NAMES, layer_table

    baseline = runner.measure(seconds / 3.0, MIN_PASSES)
    t = tr.Tracer()
    psi_by_tag = {}

    def on_op(op, before):
        if not op.tag:
            return None
        now = t.snapshot().get("spectral.psi", [0])[0]
        if before is not None:
            psi_by_tag[op.tag] = psi_by_tag.get(op.tag, 0) + now - before
        return now

    per_pass, last = [], [{}]

    def after_pass():
        now = t.snapshot()
        per_pass.append(tr.diff(now, last[0]))
        last[0] = now

    t.install(tr.TARGETS)
    try:
        traced = runner.measure(2 * seconds / 3.0, MIN_PASSES, on_op=on_op, after_pass=after_pass)
    finally:
        t.uninstall()
    layers = layer_table() if not runner.problems else dict.fromkeys(LAYER_NAMES, 0.0)

    n = len(traced)
    names = tr.SPANS + tr.COUNTERS
    counts = {k: [p.get(k, [0])[0] for p in per_pass] for k in names}
    nonrepeating = sorted(k for k, v in counts.items() if len(set(v)) > 1)
    first = {k: v[0] for k, v in counts.items()}
    self_s = {k: statistics.median(p.get(k, [0, 0.0])[1] for p in per_pass) for k in tr.SPANS}
    pm = first["flow.project_to_mg"]
    raised = per_pass[0].get("flow.project_to_mg", [0, 0.0, 0])[2]
    steps = runner.counts.get("flow.steps", 0)
    steps_by_tag = {tag: runner.counts.get(f"flow.steps.{tag}", 0) for tag in ("g0", "g1")}
    metrics = {}
    for k in tr.SPANS:
        if k != "cli":
            metrics[f"{k}.calls"] = (first[k], "count")
        metrics[f"{k}.self_s"] = (self_s[k], "s")
    metrics["curve.panels"] = (first["curve.panels"], "count")
    metrics["curve.panels_per_path"] = (
        first["curve.panels"] / first["curve.integrate_batch"]
        if first["curve.integrate_batch"] else 0.0, "count")
    metrics["flow.gn_iterations"] = (first["flow.gn_iterations"], "count")
    metrics["flow.projection_accept_ratio"] = ((pm - raised) / pm if pm else 0.0, "ratio")
    metrics["flow.step_halvings"] = (runner.counts.get("flow.step_halvings", 0), "count")
    metrics["flow.psi_per_step"] = (first["spectral.psi"] / steps if steps else 0.0, "count")
    for tag, s in steps_by_tag.items():
        metrics[f"flow.psi_per_step.{tag}"] = (psi_by_tag.get(tag, 0) / (n * s) if s else 0.0,
                                                "count")
    # mean pass time of each side at the probe's nominal speed; the first
    # baseline pass is the untimed warm-up
    pass_s = [statistics.mean(sum(p[0]) for p in side) / slowdown(side)
              for side in (baseline[1:], traced)]
    metrics["trace.overhead_frac"] = (pass_s[1] / pass_s[0] - 1.0, "ratio")
    metrics["counts.nonrepeating"] = (len(nonrepeating), "count")
    for k, v in layers.items():
        metrics[k] = (v, "ms")
    info["passes"] = {"baseline": len(baseline), "traced": n}
    info["counts_per_pass"] = {**first, **runner.counts}
    if nonrepeating:
        info["nonrepeating_counts"] = {k: counts[k] for k in nonrepeating}
    return baseline + traced, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "whitham" / "__init__.py").is_file():
        sys.stderr.write(f"no whitham sources under {SRC}; run from a source checkout\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"  # single-threaded BLAS: at most nproc, and steady
    sys.path.insert(0, str(SRC))
    import whitham
    import whitham.cli

    if Path(whitham.__file__).resolve().parent != (SRC / "whitham").resolve():
        sys.stderr.write(f"imported whitham from {whitham.__file__}, not from {SRC}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    info = {"workload": args.workload, "seed": args.seed, "machine": machine_facts()}
    try:
        setup_s, ops = setup(WORKLOADS[args.workload], args.seed, workdir)
        runner = Runner(whitham.cli, ops)
        if args.trace:
            passes, metrics = traced_metrics(runner, args.seconds, info)
        else:
            passes, metrics = untraced_metrics(runner, args.seconds, info)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    attempted = sum(p[1] for p in passes)
    failed = sum(p[2] for p in passes)
    info["failed_frac"] = failed / attempted
    info["problems"] = runner.problems[:20]
    correct = failed == 0 and not runner.problems
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
