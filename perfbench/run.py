#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds the benchmark
program (perfbench/main.ml) from source with dune under the release
profile into .bench_build/, runs it with the frozen settings of
perfbench/plan.json, checks that its result line reports exactly the
metrics BENCHMARK.json declares (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1), and prints the host record, the
program's notes and the result line, which is always the last line.

Exit status: 0 on a correct run; non-zero, with no result line, when the
build fails, the program fails or times out, or the result line does
not match BENCHMARK.json; non-zero after a result line with
"correct": false when an oracle or exact-count check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_quiet(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        else:
            for d, dirs, names in os.walk(path):
                dirs.sort()
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host(workload, seed, trace):
    return {
        "nproc": os.cpu_count(),
        "ocaml": run_quiet(["ocamlfind", "ocamlopt", "-version"])
        or run_quiet(["ocaml", "-vnum"]) or "unknown",
        "profile": "release",
        "commit": run_quiet(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--profile", "release", "./perfbench/main.exe"]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0 or not os.path.isfile(os.path.join(ROOT, EXE)):
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")


def unreported(plan, workload):
    """Per-layer metrics a workload leaves out: layers it never calls and
    tails with fewer than 10 samples beyond them."""
    w = plan["workloads"][workload]
    return w["bypassed_layer_metrics"] + w.get("unreported_tails", [])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    plan = load_json(os.path.join(HERE, "plan.json"))
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r (known: %s)" % (a.workload, ", ".join(names)))
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    build()

    s = plan["serve"]
    cmd = [os.path.join(ROOT, EXE), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--light-rps", str(s["light_rps"]),
           "--ladder", ",".join(str(r) for r in s["ladder"]),
           "--limit-s", str(s["limit_s"])]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    lines = out.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None or out.returncode not in (0, 1):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("the program exited with status %d and no result" % out.returncode)

    declared = bench["per_layer"] if a.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if result["correct"]:
        unknown = sorted(set(metrics) - set(units))
        if unknown:
            fail("undeclared metrics: %s" % ", ".join(unknown))
        for name, m in metrics.items():
            if m["unit"] != units[name]:
                fail("metric %s has unit %s, declared %s"
                     % (name, m["unit"], units[name]))
        missing = [n for n in units if n not in metrics]
        if a.trace:
            if sorted(missing) != sorted(unreported(plan, a.workload)):
                fail("per-layer metrics missing %s, plan.json leaves out %s"
                     % (sorted(missing),
                        sorted(unreported(plan, a.workload))))
            # A layer the workload never calls did no work, and a tail
            # with fewer than 10 samples beyond it is not reported: 0.
            for n in missing:
                metrics[n] = {"value": 0.0, "unit": units[n]}
        elif missing:
            fail("end-to-end metrics missing: %s" % ", ".join(missing))
        result["metrics"] = {n: metrics[n] for n in units}

    print("# host: " + json.dumps(host(a.workload, a.seed, a.trace)))
    for line in lines[:-1]:
        print(line)
    if a.trace and result["correct"]:
        moves = plan["layer_moves"]
        for n in units:
            mv = moves[n]
            w = plan["workloads"][a.workload]
            tag = (" (bypassed)" if n in w["bypassed_layer_metrics"]
                   else " (not reported)" if n in unreported(plan, a.workload)
                   else "")
            print("# %s%s should move %s on %s"
                  % (n, tag, ", ".join(mv["moves"]), ", ".join(mv["on"])))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and out.returncode == 0 else 1)


if __name__ == "__main__":
    main()
