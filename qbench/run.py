#!/usr/bin/env python3
"""Launcher for the query benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 qbench/run.py --workload many-labels --seed 1 --seconds 20 --trace 0

On first use (or when any Scala source changed) it compiles the program and
the benchmark with sbt, caching the runtime classpath under .bench_build/.
It then runs the benchmark in one JVM with fixed settings and passes its
output through; the last line of standard output is the result object.
sbt's own output goes to standard error.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")

# Fixed-size heap with a large young generation, so a young collection
# lands in few timed calls (with a 1 GB heap, about 10% of many-labels'
# online calls held a collection and its p90 sat on that edge), touched at
# start-up so no timed call pays the first page faults of the heap, and a
# single-threaded stop-the-world collector, so no GC thread competes with
# the query thread on a small machine. -Xbatch compiles each hot method in
# the thread that needs it, so the JIT decides at the same points in every
# JVM; with background compilation, some JVMs settled with l2p 25% slower
# than others for the whole run.
JVM_FLAGS = ["-XX:+UseSerialGC", "-Xms2g", "-Xmx2g", "-Xmn1536m", "-XX:+AlwaysPreTouch", "-Xbatch"]

# An end-to-end run splits its query set over this many JVMs, one after
# another, and pools their samples. One JVM's speed depends on its JIT
# decisions and memory layout; on a shared 4-core machine that moved
# whole-run medians by 10-30% between otherwise identical JVMs. Pooling
# several averages it out.
FORKS = 2

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

END_TO_END = [  # name, unit; the order of BENCHMARK.json
    ("online.p50_ms", "ms"), ("online.p90_ms", "ms"),
    ("lp.p50_ms", "ms"), ("lp.p90_ms", "ms"),
    ("l2p.p50_ms", "ms"), ("l2p.p95_ms", "ms"),
    ("mbcc.p50_ms", "ms"), ("mbcc.p90_ms", "ms"),
    ("ctc.p50_ms", "ms"), ("psa.p50_ms", "ms"),
    ("queries_per_s", "1/s"), ("ok_frac", "ratio"),
    ("lp.f1", "ratio"), ("l2p.f1", "ratio"),
    ("setup_s", "s"), ("heap_mb", "MB"),
]


def source_digest():
    """Hash of every input to the build, so a stale classpath is rebuilt."""
    h = hashlib.sha256()
    roots = [PROGRAM_SRC, os.path.join(HERE, "src"), os.path.join(ROOT, "jobs")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile with sbt and return the runtime classpath."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    digest = source_digest()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == digest:
                with open(cp_file) as fh:
                    return fh.read()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
           "-Dsbt.ivy.home=" + os.path.join(BUILD, "ivy2"),
           "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=BUILD_TIMEOUT_S)
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "qbench" not in lines[-1]:
        raise SystemExit("qbench: build failed (exit %d)" % proc.returncode)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(digest)
    return cp


def run_jvm(cp, args, deadline):
    """Run one benchmark JVM; return (exit code, stdout lines)."""
    cmd = ["java"] + JVM_FLAGS + ["-cp", cp, "qbench.Main"] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("qbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, [l for l in out.splitlines() if l.strip()]


def percentile(sorted_ns, p):
    """Nearest-rank percentile in ms, so the value is one of the samples."""
    return sorted_ns[max(0, math.ceil(p * len(sorted_ns)) - 1)] / 1e6


def end_to_end(cp, args, deadline):
    """Run the forks one after another and pool them into one result."""
    forks = []
    for i in range(FORKS):
        code, lines = run_jvm(cp, [
            "--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
            "--seconds", str(args.seconds), "--fork", str(i), "--forks", str(FORKS)],
            deadline)
        fork = json.loads(lines[-1]).get("fork") if lines and lines[-1].startswith("{") else None
        if fork is None or code not in (0, 1):
            raise SystemExit("qbench: benchmark JVM failed (exit %d)" % code)
        forks.append(fork)

    names = list(forks[0]["samples_ns"])
    samples = {m: sorted(x for f in forks for x in f["samples_ns"][m]) for m in names}
    queries = sum(f["queries"] for f in forks)
    attempted = sum(f["attempted"] for f in forks)
    failed = sum(f["failed"] for f in forks)
    wrong = sum(f["wrong"] for f in forks)
    values = {"queries_per_s": queries / (sum(sum(s) for s in samples.values()) / 1e9),
              "ok_frac": (attempted - failed) / attempted,
              "lp.f1": sum(f["f1_sum"]["lp"] for f in forks) / queries,
              "l2p.f1": sum(f["f1_sum"]["l2p"] for f in forks) / queries,
              "setup_s": statistics.median(x for f in forks for x in f["setup_s"]),
              "heap_mb": statistics.median(f["heap_mb"] for f in forks)}
    for m in names:
        for p in (50, 90, 95):
            values["%s.p%d_ms" % (m, p)] = percentile(samples[m], p / 100)
    by_method = {}
    for f in forks:
        for m, c in f["failed_by_method"].items():
            by_method[m] = by_method.get(m, 0) + c
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "forks": FORKS, "jvm_flags": forks[0]["jvm_flags"], "graph": forks[0]["graph"],
            "samples": {m: len(s) for m, s in samples.items()},
            "warmup_queries": [f["warmup_queries"] for f in forks],
            "gc_ms": sum(f["gc_ms"] for f in forks), "gc_count": sum(f["gc_count"] for f in forks),
            "wrong": wrong, "failed_by_method": by_method,
            "failures": [x for f in forks for x in f["failures"]][:20]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END}}))
    return 0 if wrong == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        raise SystemExit("qbench: program sources not found under %s" % PROGRAM_SRC)
    cp = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace == 0:
        sys.exit(end_to_end(cp, args, deadline))
    spans = os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    code, lines = run_jvm(cp, ["--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "1",
                               "--spans", spans], deadline)
    if code not in (0, 1) or not lines:
        raise SystemExit("qbench: benchmark JVM failed (exit %d)" % code)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
