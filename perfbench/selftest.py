#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that every workload,
untraced and traced, prints every metric BENCHMARK.json declares with its
unit and passes its output checks; that a flipped byte in the store-query
fixture and a wrong served byte each show up as failed operations; that a
sanitizer build is refused; and that the benchmark exits non-zero, printing
no result, where there is no source tree to build.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
problems = []


def bench(workload, trace=0, inject=None, cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--small"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p.stderr


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        problems.append(what)


def main():
    declared = run.declared()
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = bench(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            expect(rc == 0 and result is not None, label + ": exits 0 with a result")
            if not result:
                print(err[-2000:])
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   label + ": result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   label + ": outputs correct")
            units = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == units, label + ": every %s metric with its unit" % group)
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   label + ": numeric values")

    for workload, inject in (("store-query", "flip-store"), ("serve-mix", "wrong-served")):
        rc, result, _ = bench(workload, inject=inject)
        expect(rc == 0 and result is not None and not result["correct"] and
               result["failed"] > 0, "%s --inject %s: counted as failed" % (workload, inject))

    with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=run.BUILD, delete=False) as f:
        f.write("CMAKE_BUILD_TYPE:STRING=Release\nGAMMA_SANITIZE:STRING=address\n")
    try:
        run.provenance(f.name)
        refused = False
    except run.BenchError:
        refused = True
    os.unlink(f.name)
    expect(refused, "a GAMMA_SANITIZE build is refused")

    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.dirname(RUN), os.path.join(bare, "perfbench"))
    rc, result, _ = bench("paper-study", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and result is None, "no source tree: non-zero exit, no result")

    print("selftest: %s" % ("FAILED: " + "; ".join(problems) if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
