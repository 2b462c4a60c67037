"""Smoke test of the benchmark itself, on small grids.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

Runs each workload's op once untraced and once traced, in this process
with the d=3 grid shrunk, and checks that every metric BENCHMARK.json
names is printed with its unit; checks that a perturbed Q.csv before
``verify`` counts as a failed op; and checks that the benchmark refuses
to run without the package sources.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402

# Smallest grid at which every check of an op still passes at the
# acceptance tolerances (d=3 Pohozaev residuals reach 1e-4 below it).
SMOKE_N = 300


def _result(workload: str, trace: int) -> dict:
    wl = bench.WORKLOADS[workload]
    bench.WORKLOADS[workload] = dataclasses.replace(wl, n=SMOKE_N)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = bench.main(["--workload", workload, "--seed", "0",
                             "--seconds", "0", "--trace", str(trace)])
    finally:
        bench.WORKLOADS[workload] = wl
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_every_metric_printed_with_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in bench.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = _result(name, trace)
            assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
            assert res["correct"] and res["failed"] == 0, res
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (name, trace)
            for v in res["metrics"].values():
                assert isinstance(v["value"], (int, float))


def test_corrupted_state_fails_the_op():
    work = HERE / ".work" / f"smoke-{os.getpid()}"
    wl = dataclasses.replace(bench.WORKLOADS["cold"], n=SMOKE_N)
    run = bench.Run(wl, bench.make_inputs(wl, 0), work)
    os.environ["CHOQUARD_LAB_CACHE"] = str(run.cache)

    def perturb(out):
        path = out / "Q.csv"
        lines = path.read_text().splitlines()
        rows = [f"{r},{float(v) * 1.02!r}"
                for r, v in (ln.split(",") for ln in lines[1:])]
        path.write_text("\n".join(lines[:1] + rows) + "\n")

    try:
        bench.setup(run)
        _, clean, _ = bench.run_op(run)
        _, fails, _ = bench.run_op(run, tamper=perturb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert clean == []
    assert any(f.startswith("verify exited") for f in fails), fails


def test_refuses_without_sources():
    bare = HERE / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", ".out",
                                                      "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
