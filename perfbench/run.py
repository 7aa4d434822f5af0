#!/usr/bin/env python3
"""Benchmark of the VOS reproduction: build, run, steadiness and self-test.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run in its own JVM; the last line of stdout is the JSON result.
  python3 perfbench/run.py steady [--runs 10] [--seconds 15] [--workloads a,b] [--sets 1]
      Runs each workload with seeds 1..runs and prints, per end-to-end
      metric, median, quartiles, min, max and the quartile spread. With
      --sets 2 it repeats the whole set and prints how far each median moved.
  python3 perfbench/run.py selftest
      Small inputs, every check on: each workload must pass clean and each
      deliberate corruption must trip the check it targets.

The first call builds the program and the benchmark from source with sbt
into .bench_build/ and reuses that build until a source file changes.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")

# Workload and metric names, directions and bounds come from BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in SPEC["end_to_end"]}

# Corruption kind -> (check it must trip, workloads it applies to).
CORRUPTIONS = {
    "bit": ("array", WORKLOADS),
    "counter": ("counters", WORKLOADS),
    "beta": ("beta", ["accuracy-youtube"]),
    "truth": ("exact", ["accuracy-youtube"]),
    "order": ("paper-order", ["accuracy-youtube"]),
    "aape": ("vos-aape", ["accuracy-youtube"]),
}

HEAP = "2g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# JDK 17 strong encapsulation: Spark's kryo/unsafe paths need the same
# --add-opens list spark-submit passes.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(BENCH, "src"), PROGRAM_SRC]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files.extend(os.path.join(d, n) for n in names)
    return sorted(files)


def build():
    """Compile with sbt when sources changed; return the runtime classpath."""
    if not os.path.isdir(PROGRAM_SRC):
        die(f"program sources {os.path.relpath(PROGRAM_SRC, ROOT)} not found; "
            "run from the root of a full checkout")
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    print("perfbench: building with sbt", file=sys.stderr)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=BENCH, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S, stdin=subprocess.DEVNULL)
    except FileNotFoundError:
        die("sbt not found on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out.stdout[-4000:])
        die("build failed", 1)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def java_command(cp, args):
    threads = str(min(4, os.cpu_count() or 1))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Transparent huge pages for this JVM's heap only (madvise): the sketch's
    # random reads and writes then miss the TLB far less, which made them
    # faster and less sensitive to the host's noisy periods.
    return (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
             f"-XX:ParallelGCThreads={threads}", "-XX:+AlwaysPreTouch",
             "-XX:+UseTransparentHugePages",
             f"-Djava.io.tmpdir={tmp}", "-Dspark.ui.enabled=false"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
            + ["-cp", cp, "perfbench.Main"] + args)


def run_once(cp, args, echo=True):
    """Run one JVM; return (exit code, stdout lines)."""
    proc = subprocess.Popen(java_command(cp, args), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, stdin=subprocess.DEVNULL)
    lines = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                print(line, end="", flush=True)
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(proc.args, RUN_TIMEOUT_S)
        proc.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, lines
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, lines


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady_set(cp, opts, names):
    """One set: every workload with seeds 1..runs; returns per-workload medians."""
    medians = {}
    ok = True
    for w in names:
        values = {m: [] for m in END_TO_END}
        shares = set()
        for seed in range(1, opts.runs + 1):
            t0 = time.monotonic()
            code, lines = run_once(cp, ["--workload", w, "--seed", str(seed),
                                        "--seconds", str(opts.seconds), "--trace", "0"], echo=False)
            wall = time.monotonic() - t0
            res = result_of(lines)
            if code != 0 or res is None:
                print(f"{w} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            if not res["correct"]:
                ok = False
            shares.add(res["failed"] / res["attempted"])
            for m in END_TO_END:
                values[m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: wall={wall:.1f}s correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(f"{m}={values[m][-1]:.6g}" for m in END_TO_END),
                  flush=True)
            for line in lines:
                if line.startswith(("final-errors ", "failed-checks ")):
                    print("    " + line, flush=True)
        print(f"{w}: failed share per run {sorted(shares)}")
        print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        medians[w] = {}
        for m in END_TO_END:
            vs = values[m]
            if not vs:
                continue
            q1, med, q3 = quartiles(vs)
            medians[w][m] = med
            spread = (q3 - q1) / med if med else float("nan")
            b = BOUNDS[m]
            flag = "  > bound" if spread > b else "  > bound/3" if spread >= b / 3 else ""
            print(f"{m:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vs):12.6g} {max(vs):12.6g} "
                  f"{spread:8.4f} {b:>6}{flag}", flush=True)
    return ok, medians


def steady(cp, opts):
    names = opts.workloads.split(",") if opts.workloads else WORKLOADS
    ok = True
    sets = []
    for i in range(opts.sets):
        if opts.sets > 1:
            print(f"== set {i + 1} of {opts.sets}", flush=True)
        set_ok, medians = steady_set(cp, opts, names)
        ok = ok and set_ok
        sets.append(medians)
    if len(sets) > 1:
        # How much worse each later set's median is than the first's, as a
        # share of the first; negative when it is better.
        print("== medians per set; worse = largest change for the worse against set 1")
        print(f"{'workload':18s} {'metric':20s} " + " ".join(f"{'set ' + str(i + 1):>12s}" for i in range(len(sets)))
              + f" {'worse':>8s} {'bound':>6s}")
        for w in names:
            for m in END_TO_END:
                meds = [s[w].get(m) for s in sets]
                if any(v is None for v in meds) or not meds[0]:
                    continue
                sign = 1 if LOWER_IS_BETTER[m] else -1
                worse = max(sign * (v - meds[0]) / meds[0] for v in meds[1:])
                flag = "  > bound" if worse > BOUNDS[m] else ""
                print(f"{w:18s} {m:20s} " + " ".join(f"{v:12.6g}" for v in meds)
                      + f" {worse:8.4f} {BOUNDS[m]:>6}{flag}", flush=True)
    return 0 if ok else 1


def selftest(cp):
    base = ["--size", "small", "--seconds", "0.001", "--seed", "3", "--trace", "0"]
    ok = True
    for w in WORKLOADS:
        cases = [(None, None)] + [(k, check) for k, (check, ws) in CORRUPTIONS.items() if w in ws]
        for kind, check in cases:
            args = ["--workload", w] + base + (["--corrupt", kind] if kind else [])
            code, lines = run_once(cp, args, echo=False)
            res = result_of(lines)
            failed_line = next((l for l in lines if l.startswith("failed-checks ")), "")
            tripped = [part.split(":")[0].strip() for part in failed_line[len("failed-checks "):].split(" | ")
                       if part]
            if kind is None:
                good = code == 0 and res is not None and res["correct"] and res["failed"] == 0
                what = "clean run passes every check"
            else:
                good = (code == 0 and res is not None and not res["correct"] and res["failed"] > 0
                        and check in tripped)
                what = f"corrupt={kind} trips '{check}' (tripped: {', '.join(tripped) or 'none'})"
            print(f"{'ok  ' if good else 'FAIL'} {w:18s} {what}", flush=True)
            ok = ok and good
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("steady", "selftest"):
        cmd, argv = argv[0], argv[1:]
    else:
        cmd = "run"
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    if cmd == "run":
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", choices=["0", "1"], default="0")
    elif cmd == "steady":
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=float, default=15)
        p.add_argument("--workloads", default="")
        p.add_argument("--sets", type=int, default=1)
    opts = p.parse_args(argv)
    cp = build()
    if cmd == "steady":
        sys.exit(steady(cp, opts))
    if cmd == "selftest":
        sys.exit(selftest(cp))
    code, lines = run_once(cp, ["--workload", opts.workload, "--seed", str(opts.seed),
                                "--seconds", str(opts.seconds), "--trace", opts.trace])
    if code == 0 and result_of(lines) is None:
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
