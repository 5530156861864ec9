#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload kv_ring --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds the
simulator libraries and the benchmark binary (CMake, Release) under
.bench_build/perfbench; later runs rebuild incrementally. The binary's table
is passed through, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the traced run's spans
are written to .bench_build/perfbench/trace_<workload>_seed<n>.json
(Perfetto-loadable). The metric names are checked against BENCHMARK.json.

--self-check runs every workload twice on one seed in separate processes and
requires identical deterministic figures, then once on a second seed, which
must pass every correctness check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["kv_ring", "store_torus", "fabric_stream"]
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found next to perfbench/ (expected src/CMakeLists.txt)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail(f"cmake configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail(f"build failed, see {log_path}")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace, dump_det=None, echo=True):
    """Run the binary once; returns (exit code, parsed result line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace_{workload}_seed{seed}.json")]
    if dump_det:
        cmd += ["--dump-det", dump_det]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return proc.returncode or 1, None
    return proc.returncode, result


def bench(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", 2)
    build()
    code, result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail("the benchmark printed no result line")
    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(want)}")
    print(json.dumps(result))
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


def self_check(args):
    build()
    ok = True
    for w in WORKLOADS:
        dumps = []
        for i in range(2):
            path = os.path.join(BUILD, f"det_{w}_{i}.json")
            code, result = run(w, args.seed, 0, True, dump_det=path, echo=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"{w}: seed {args.seed} run {i + 1} failed its checks")
                ok = False
            with open(path) as f:
                dumps.append(json.load(f))
        same = dumps[0] == dumps[1]
        diff = [k for k in dumps[0] if dumps[0].get(k) != dumps[1].get(k)]
        print(f"{w}: seed {args.seed} twice -> {len(dumps[0])} deterministic figures "
              f"{'identical' if same else 'DIFFER: ' + ', '.join(diff)}")
        ok = ok and same
        code, result = run(w, args.seed + 1, 0, False, echo=False)
        good = code == 0 and result is not None and result["correct"]
        print(f"{w}: seed {args.seed + 1} -> {'correct' if good else 'FAILED'}")
        ok = ok and good
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="kv_ring")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        self_check(args)
    else:
        bench(args)


if __name__ == "__main__":
    main()
