"""choquard-lab benchmark: two workloads, checked outputs, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 50 --trace 0

Everything runs in this one process (closed loop, one client): a set-up,
repeated at least SETUP_REPEATS times, then ops back to back until
--seconds have passed.  An op drives the user-facing verbs
``solve`` and ``spectrum`` at d=4, then ``solve`` (cold, then warm),
``verify``, ``spectrum`` and ``sweep`` at d=3, in-process through
``choquard_lab.cli.main``, then ``newton_continue`` through the Python API,
then times a fresh interpreter importing ``choquard_lab.cli``.  Every output
is checked; an op whose verb returns nonzero, raises, or misses a check
counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
each timing is the mean of the run's samples, scaled to the reference
host speed (see ``reference_work``).  With ``--trace 1`` ops alternate
untraced and traced and the line carries the per-layer metrics of the
traced ops (see tracer.py).  The line before it holds the environment record, the
per-metric samples and tails, the seed's inputs and any failure.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the run exits 2 and prints no result.  ``sweep --jobs`` is never
passed: the serial path is the one users get by default.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, check_spans, layer_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

R_MAX = 25.0
SOLVER_STRETCH = 25.0     # solver_grid: last cell = 25 x first cell
TOL = 1e-10               # the CLI's default solver tolerance
SETUP_REPEATS = 5         # at least; more while the set-ups total under 5 s
D = 3                     # the exact (odd-d) route
EVEN_D, EVEN_N = 4, 80    # the angular (even-d) route, kept small: its
                          # temporaries grow with n (about 345 MB peak here),
                          # and its assembly stays below the exact route's
LPLUS_TOL = 1e-6          # acceptance criterion 5
TRANSLATION_TOL = 5e-3    # acceptance criterion 6
ROUTE_TOL = 1e-8          # acceptance criterion 2

END_TO_END = {
    "setup_s": "s", "import_s": "s", "solve_spectrum_d4_s": "s",
    "solve_cold_s": "s", "solve_warm_s": "s", "verify_s": "s",
    "spectrum_s": "s", "sweep_s": "s", "continue_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    n: int                 # d=3 grid size
    warm: bool             # disk cache filled in set-up and kept by ops
    # Calls per op of the phases that redo identical work.  Each call is a
    # sample of its own, so short phases get more samples per run.  In a
    # cold workload every call of solve_spectrum_d4_s starts from an empty
    # disk cache.
    repeats: dict


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "cold": Workload(n=1200, warm=False, repeats={
        "solve_warm_s": 2, "verify_s": 5, "import_s": 2}),
    # a cold solve here (empty memory cache, operator read from disk) is
    # repeatable
    "sweep-warm": Workload(n=700, warm=True, repeats={
        "solve_spectrum_d4_s": 3, "solve_cold_s": 3, "solve_warm_s": 3,
        "verify_s": 8, "import_s": 2}),
}


def make_inputs(wl: Workload, seed: int) -> dict:
    """Off-Newtonian offsets from the seed, inside the spectrum window
    |alpha-(d-2)| <= 0.05, 2 <= p <= 2.05, narrowed so that an op costs
    the same on every seed."""
    rng = random.Random(seed)
    base = float(D - 2)
    # In these ranges continuation takes 13 Newton steps on both workloads
    # (12 below p - 2 = 0.030 at some alphas, 14 and 15 above 0.040).
    delta = -rng.randint(20, 35) / 1000
    alpha = base + delta
    p = 2.0 + rng.randint(30, 38) / 1000
    even = {"even_alpha": EVEN_D - 2 + delta}
    if wl.warm:
        # 5x5 lattice from the Newtonian pair to (alpha, p), spaced like
        # newton_continue's 4-step path so the lattice alphas are exactly
        # the alphas continuation visits
        s = [j / 4 for j in range(5)]
        return {"alpha": alpha, "p": 2.0, "corner": [alpha, p],
                "alphas": [(1 - t) * base + t * alpha for t in s],
                "ps": [(1 - t) * 2.0 + t * p for t in s], **even}
    # continuation in p at the Newtonian alpha: it assembles the Newtonian
    # operator, which the op has deleted
    return {"alpha": alpha, "p": 2.0, "corner": [base, p],
            "alphas": [alpha], "ps": [p], **even}


@dataclass
class Run:
    wl: Workload
    inputs: dict
    work: Path
    grid: object = None
    even_grid: object = None
    reference: object = None
    first_csv: bytes | None = None
    ref_samples: list = field(default_factory=list)
    setup_failures: list = field(default_factory=list)

    @property
    def cache(self) -> Path:
        return self.work / "cache"


def grid_args(grid) -> list:
    return ["--r-max", repr(R_MAX), "--n", str(grid.n),
            "--stretch", repr(grid.stretch)]


def _empty(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _snapshot(path: Path) -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in path.rglob("*") if p.is_file()}


def _bytes_written(before: dict, after: dict) -> int:
    return sum(size for p, (size, mt) in after.items()
               if before.get(p) != (size, mt))


def setup(run: Run) -> float:
    """Grids, Newtonian reference state and, for the warm workload, a
    warm-up that writes every operator an op reads to the disk cache.
    Returns its wall time."""
    from choquard_lab import (ChoquardParams, newton_continue, riesz,
                              riesz_apply_matrix, solve_choquard, solver_grid)
    t0 = time.perf_counter()
    riesz.clear_caches()
    _empty(run.cache)
    run.grid = solver_grid(D, R_MAX, run.wl.n, SOLVER_STRETCH)
    run.even_grid = solver_grid(EVEN_D, R_MAX, EVEN_N, SOLVER_STRETCH)
    run.reference = solve_choquard(ChoquardParams(D, float(D - 2), 2.0),
                                   run.grid)
    if run.wl.warm:
        for alpha in run.inputs["alphas"]:
            riesz_apply_matrix(run.grid, alpha, 0)
        riesz_apply_matrix(run.even_grid, run.inputs["even_alpha"], 0)
        # also covers the path should continuation's step control change
        st = newton_continue(run.reference,
                             ChoquardParams(D, *run.inputs["corner"]), steps=4)
        if not st.residual <= TOL:
            run.setup_failures.append(
                f"warm-up continuation residual {st.residual:.3e}")
    return time.perf_counter() - t0


# Median time of one reference_work() call on the host of README.md's
# tables (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
REF_SECONDS = 0.03
_REF_DATA = []


def reference_work() -> float:
    """Time a fixed piece of work built like an op's: a Python loop, numpy
    element-wise passes, a small symmetric eigensolve and a dense solve of
    the d=3 sweep's size.  It is the benchmark's own code with fixed inputs,
    so its time tracks only the host.

    The host is shared, and its speed drifts by tens of percent over
    minutes (README.md, "Steadiness"); two sets of ten runs of the same
    code disagreed by more than the bound.  So an untraced run times this
    before every set-up and every timed phase, and reports each timing as
    its mean times REF_SECONDS / the median of these calls: the time at
    the reference speed.  The mean, not the median: a call's time is
    bimodal, as the host alternates between contended and uncontended
    periods of seconds, and a run's median jumps from one mode to the
    other as the contended share changes, where the mean moves in
    proportion.  The raw means and every sample are in the detail line."""
    import numpy as np
    if not _REF_DATA:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((200, 200))
        a = rng.standard_normal((700, 700)) + 700 * np.eye(700)
        _REF_DATA.extend([rng.standard_normal(200_000), m + m.T, a,
                          rng.standard_normal(700)])
    v, sym, a, b = _REF_DATA
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += (i * 7) % 13
    for _ in range(5):
        np.sqrt(np.abs(v) + 1.0).sum()
    np.linalg.eigh(sym)
    np.linalg.solve(a, a @ b)
    return time.perf_counter() - t0


def run_op(run: Run, tracer=None, op: int = -1, repeat: bool = True,
           tamper=None):
    """One op.  Returns (phase times, failures, extra layer values); the
    phase times map each metric to the list of its calls' times.

    With ``repeat`` the phases in ``Workload.repeats`` run several times
    (end-to-end runs); without it every verb runs once (traced runs), so
    the per-layer values describe one pass and their counts are fixed."""
    from choquard_lab import cli, continuation, riesz
    from choquard_lab import ChoquardParams, GroundState
    from choquard_lab.spectrum import lplus_identity_residual
    wl, inp = run.wl, run.inputs
    times, fails = {}, []
    written = 0

    def empty_caches():
        """Memory cache always; disk cache too in a cold workload."""
        riesz.clear_caches()
        if not wl.warm:
            _empty(run.cache)

    empty_caches()
    out = run.work / "op"
    _empty(out)

    def timed(metric, fn, before=None):
        """Time fn, once per repeat; every call is one sample."""
        repeats = wl.repeats.get(metric, 1) if repeat else 1
        if repeat:
            run.ref_samples.append(reference_work())
        times[metric] = []
        for _ in range(repeats):
            if before:
                before()
            t0 = time.perf_counter()
            result = fn()
            times[metric].append(time.perf_counter() - t0)
        return result

    def verb(argv):
        nonlocal written
        before = _snapshot(out) if tracer else None
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
        if tracer:
            written += _bytes_written(before, _snapshot(out))
        if rc != 0:
            fails.append(f"{argv[0]} exited {rc}: {buf.getvalue()[-400:]}")
        return rc

    def check_state(path):
        meta = json.loads(path.with_suffix(".json").read_text())
        if not meta["residual"] <= TOL:
            fails.append(f"{path.name} residual {meta['residual']:.3e} > {TOL}")

    def check_spectrum(path):
        rep = json.loads(path.read_text())
        if not (rep["radial_kernel_trivial"] and rep["translation_mode_found"]
                and abs(rep["nearest_eigenvalue_ell1"]) <= TRANSLATION_TOL):
            fails.append(f"spectrum verdict failed: {rep}")

    def solve_args(d, alpha, grid, out_dir):
        return (["solve", "--d", str(d), "--alpha", repr(alpha),
                 "--p", repr(inp["p"]), "--out-dir", str(out_dir)]
                + grid_args(grid))

    even = out / "even"
    even_solve = solve_args(EVEN_D, inp["even_alpha"], run.even_grid, even)
    even_spectrum = ["spectrum", str(even / "Q"), "--out-dir", str(even)]
    solve = solve_args(D, inp["alpha"], run.grid, out)
    verify = ["verify", str(out / "Q")]
    spectrum = ["spectrum", str(out / "Q"), "--out-dir", str(out)]
    sweep = (["sweep", "--d", str(D), "--alphas"]
             + [repr(a) for a in inp["alphas"]] + ["--ps"]
             + [repr(p) for p in inp["ps"]]
             + ["--fresh", "--out-dir", str(out / "sweep")]
             + grid_args(run.grid))
    corner = ChoquardParams(D, *inp["corner"])
    gc.collect()
    cpu0, wall0 = os.times(), time.perf_counter()
    if tracer:
        tracer.begin_op(op)
        tracer.install()
    try:
        # d=4 first: in a cold workload each of its calls empties the disk
        # cache, which the d=3 phases below fill again
        if timed("solve_spectrum_d4_s",
                 lambda: verb(even_solve) or verb(even_spectrum),
                 before=empty_caches) == 0:
            check_state(even / "Q")
            check_spectrum(even / "spectral_report.json")
        if timed("solve_cold_s", lambda: verb(solve),
                 before=riesz.clear_caches) == 0:
            check_state(out / "Q")
        if timed("solve_warm_s", lambda: verb(solve + ["--tag", "Qwarm"])) == 0:
            check_state(out / "Qwarm")
            if (out / "Qwarm.csv").read_bytes() != (out / "Q.csv").read_bytes():
                fails.append("warm solve differs from cold solve")
        if tamper:
            tamper(out)
        timed("verify_s", lambda: verb(verify))
        if timed("spectrum_s", lambda: verb(spectrum)) == 0:
            check_spectrum(out / "spectral_report.json")
        # every sweep call reads its operators from disk
        if timed("sweep_s", lambda: verb(sweep),
                 before=riesz.clear_caches) == 0:
            csv = (out / "sweep" / "sweep.csv").read_bytes()
            rows = csv.decode().splitlines()[1:]
            if len(rows) != len(inp["alphas"]) * len(inp["ps"]) or any(
                    r.split(",")[2] != "1" for r in rows):
                fails.append("sweep has unconverged or missing points")
            if run.first_csv is None:
                run.first_csv = csv
            elif csv != run.first_csv:
                fails.append("sweep CSV differs from the run's first op")
        st = timed("continue_s", lambda: continuation.newton_continue(
            run.reference, corner, steps=4))
        if not st.residual <= TOL:
            fails.append(f"continuation residual {st.residual:.3e} > {TOL}")
    except Exception:
        fails.append(traceback.format_exc(limit=4))
    finally:
        if tracer:
            tracer.uninstall()
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    extra = {"cli.bytes_written": float(written),
             "proc.cpu_util": (cpu1.user + cpu1.system - cpu0.user
                               - cpu0.system) / wall,
             "op_wall_s": wall}
    if tracer:
        fails += check_spans(tracer.ops[op])
    try:
        for stem in (even / "Q", out / "Q"):
            if stem.with_suffix(".csv").exists():
                resid = lplus_identity_residual(GroundState.load(stem))
                if not resid <= LPLUS_TOL:
                    fails.append(f"L+ Q identity residual {resid:.3e} "
                                 f"for {stem}")
    except Exception:
        fails.append(traceback.format_exc(limit=4))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_cli():
        proc = subprocess.run([sys.executable, "-c", "import choquard_lab.cli"],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=60)
        if proc.returncode != 0:
            fails.append(f"import failed: {proc.stderr.decode()[-400:]}")

    try:
        timed("import_s", import_cli)
    except subprocess.TimeoutExpired:
        times.pop("import_s", None)
        fails.append("import of choquard_lab.cli timed out")
    return times, fails, extra


def route_check() -> str | None:
    """Newton and exact routes at alpha = d-2 on the acceptance grid of
    criterion 2."""
    import numpy as np
    from choquard_lab import RadialField, make_grid, riesz_radial
    g = make_grid(D, 8.0, 240, 1.0)
    f = RadialField(g, np.exp(-g.nodes ** 2))
    pn = riesz_radial(g, f, float(D - 2), method="newton").values
    pe = riesz_radial(g, f, float(D - 2), method="exact").values
    rel = float(np.max(np.abs(pn - pe)) / np.max(np.abs(pn)))
    if not rel <= ROUTE_TOL:
        return f"newton vs exact routes differ by {rel:.3e}"
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    thread_vars = {v: os.environ.get(v) for v in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS")}
    set_vals = [int(v) for v in thread_vars.values() if v and v.isdigit()]
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            refpath = ROOT / ".git" / ref[5:]
            commit = refpath.read_text().strip() if refpath.is_file() else ref
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "cpu_model": cpu, "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_thread_env": thread_vars,
        "blas_threads": min(set_vals) if set_vals else nproc,
        "git_commit": commit, "src_lines": src_lines,
    }


def tail(samples: list) -> dict | None:
    """Highest percentile that still has >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": s[n - 11],
            "samples": n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "choquard_lab" / "__init__.py").is_file():
        print(f"error: no choquard_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import choquard_lab
    if Path(choquard_lab.__file__).resolve().parent != SRC / "choquard_lab":
        print("error: choquard_lab imported from outside the checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    run = Run(wl, make_inputs(wl, args.seed), work)
    os.environ["CHOQUARD_LAB_CACHE"] = str(run.cache)
    tracer = Tracer(run.cache) if args.trace else None
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or (sum(setups) < 5.0
                                              and len(setups) < 20):
            run.ref_samples.append(reference_work())
            setups.append(setup(run))
        samples = {k: [] for k in END_TO_END
                   if k not in ("setup_s", "peak_rss_mb")}
        traced_walls, plain_walls, extras = [], [], {}
        failed = attempted = 0
        failures = list(run.setup_failures)
        t_start = time.perf_counter()
        op_walls = []
        op = 0
        # start an op only if a typical op still ends inside --seconds
        while op < (2 if tracer else 1) or time.perf_counter() - t_start \
                + statistics.median(op_walls) <= args.seconds:
            traced = tracer is not None and op % 2 == 1
            t0 = time.perf_counter()
            times, fails, extra = run_op(run, tracer if traced else None, op,
                                         repeat=tracer is None)
            op_walls.append(time.perf_counter() - t0)
            attempted += 1
            if fails:
                failed += 1
                failures += [f"op {op}: {f}" for f in fails]
            if traced:
                traced_walls.append(extra["op_wall_s"])
                extras[op] = extra
            else:
                plain_walls.append(extra["op_wall_s"])
                for k, v in times.items():
                    samples[k] += v
            op += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problem = route_check()
        if problem:
            failures.append(problem)

        if tracer:
            metrics, absent, unlisted = layer_summary(tracer, extras)
            metrics["trace.overhead_frac"] = {
                "value": statistics.median(traced_walls)
                / statistics.median(plain_walls) - 1.0, "unit": "ratio"}
            spans_dir = HERE / ".out"
            spans_dir.mkdir(exist_ok=True)
            (spans_dir / f"spans-{args.workload}-seed{args.seed}.json"
             ).write_text(json.dumps([s.to_dict() for spans in
                                      tracer.ops.values() for s in spans]))
        else:
            absent, unlisted = [], {}
            scale = REF_SECONDS / statistics.median(run.ref_samples)
            values = {k: statistics.mean(v) * scale
                      for k, v in samples.items() if v}
            values["setup_s"] = statistics.mean(setups) * scale
            values["peak_rss_mb"] = peak_rss_mb
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in END_TO_END.items() if k in values}
        detail = {
            "workload": args.workload, "seed": args.seed, "n": wl.n,
            "inputs": run.inputs, "environment": environment(),
            "setup_samples": setups, "samples": samples,
            "raw_means": {k: statistics.mean(v)
                          for k, v in samples.items() if v},
            "reference_median_s": statistics.median(run.ref_samples),
            "tails": {k: tail(v) for k, v in samples.items()},
            "absent_layer_metrics": absent,
            "unlisted_layer_values": unlisted, "failures": failures[:20],
        }
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
