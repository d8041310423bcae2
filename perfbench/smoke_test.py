"""Smoke test of the benchmark, on inputs shrunk with --size tiny.

Run from the repository root:  python3 perfbench/smoke_test.py

For every workload it checks that
  - a run exits 0 and prints, as its last line, every metric that
    BENCHMARK.json lists for the mode (end_to_end with --trace 0,
    per_layer with --trace 1), each with its listed unit;
  - two untraced runs of one seed report the same utility and ok_frac;
  - no bccd process outlives a run;
and that perfbench/layers.json maps every per-layer metric to its layer,
and that the benchmark refuses to run, printing no result, in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = ["bash", "perfbench/run.sh"]


def bccd_pids():
    pids = set()
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    if b"bccd.exe" in f.read().split(b"\0")[0]:
                        pids.add(p)
            except OSError:
                pass
    return pids


def run(workload, seed, trace, cwd="."):
    before = bccd_pids()
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    assert p.returncode == 0, f"{workload} trace {trace}: exit {p.returncode}\n{p.stderr}"
    leftover = bccd_pids() - before
    assert not leftover, f"{workload}: bccd outlived the run: {leftover}"
    return json.loads(p.stdout.strip().split("\n")[-1])


def main():
    manifest = json.load(open("BENCHMARK.json"))
    layers = json.load(open("perfbench/layers.json"))
    missing = [m["name"] for m in manifest["per_layer"] if m["name"] not in layers]
    assert not missing, f"layers.json lacks {missing}"
    # scale is not in the manifest (one run takes about 40 s, too long
    # for the manifest's run budget) but stays runnable, so it is
    # tested too.
    for name in [w["name"] for w in manifest["workloads"]] + ["scale"]:
        results = []
        for trace in (0, 1, 0):
            r = run(name, 7, trace)
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
            listed = manifest["end_to_end" if trace == 0 else "per_layer"]
            assert set(r["metrics"]) == {m["name"] for m in listed}, (name, trace)
            for m in listed:
                got = r["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"], got)
                assert isinstance(got["value"], (int, float)), (name, m["name"], got)
            if trace == 0:
                results.append(r["metrics"])
        for key in ("utility", "ok_frac"):
            a, b = (x[key]["value"] for x in results)
            assert a == b, f"{name}: {key} differs between runs: {a} != {b}"
        print(f"ok {name}")
    # Only the benchmark's own files: the build must fail, and no result
    # may be printed.
    bare = os.path.join(".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    p = subprocess.run(
        RUN + ["--workload", "plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    assert p.returncode != 0 and '"metrics"' not in p.stdout, "ran without the program"
    print("ok bare")


if __name__ == "__main__":
    main()
    sys.exit(0)
