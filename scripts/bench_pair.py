#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

    scripts/bench_pair.py <base-ref>        (from the repository root)

Builds ./benchmark at <base-ref> and at the working tree into
.bench_build/, measures every workload of BENCHMARK.json PAIRS times on
each side with tracing off (seed = pair index, the side that goes first
alternating from pair to pair), writes the two sets of runs as
.bench_build/base/set.json and .bench_build/head/set.json in the shape
`benchmark compare` reads, and runs `benchmark compare` on them. Exits
non-zero on a failed op or a WORSE row; unresolved rows are only printed.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

PAIRS = 5
# 6 workloads x 5 pairs x 2 sides x (10 s + set-up and warm-up) took
# 16 minutes on the 2-core reference host; the CI job allows 30.
SECONDS = 10

BUILD = pathlib.Path(".bench_build")


def sh(*cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def build(base):
    """Build both binaries; the base from an archive of its commit."""
    for side in ("base", "head"):
        (BUILD / side).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD) as src:
        tar = sh("git", "archive", base, stdout=subprocess.PIPE).stdout
        sh("tar", "-x", "-C", src, input=tar)
        sh("go", "build", "-o", str((BUILD / "base" / "benchmark").resolve()), "./benchmark", cwd=src)
    sh("go", "build", "-o", str(BUILD / "head" / "benchmark"), "./benchmark")


def measure(side, workload, seed):
    """One tracing-off run; its result is the last line of its output."""
    out = sh(str(BUILD / side / "benchmark"), "-workload", workload, "-seed", str(seed),
             "-seconds", str(SECONDS), "-trace", "0", "-outdir", str(BUILD / side / "out"),
             stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{side} {workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"]


def spread(unit, values):
    """compare.go's summarise: median, and the exclusive-method IQR over it."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "values": values, "median": median,
            "iqr_over_median": (q3 - q1) / median if median else 0}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    base = sys.argv[1]
    build(base)
    workloads = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
    sets = {side: {"runs": PAIRS, "workloads": {}} for side in ("base", "head")}
    for workload in workloads:
        runs = {"base": [], "head": []}
        for pair in range(1, PAIRS + 1):
            order = ("base", "head") if pair % 2 else ("head", "base")
            for side in order:
                runs[side].append(measure(side, workload, pair))
            print(f"{workload} pair {pair}/{PAIRS} ({order[0]} first)", flush=True)
        for side, results in runs.items():
            sets[side]["workloads"][workload] = {
                name: spread(m["unit"], [r[name]["value"] for r in results])
                for name, m in results[0].items()}
    for side, doc in sets.items():
        (BUILD / side / "set.json").write_text(json.dumps(doc, indent=2) + "\n")
    sys.exit(subprocess.run([str(BUILD / "head" / "benchmark"), "compare",
                             str(BUILD / "base" / "set.json"), str(BUILD / "head" / "set.json")]).returncode)


if __name__ == "__main__":
    main()
