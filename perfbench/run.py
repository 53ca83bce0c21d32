#!/usr/bin/env python3
"""perfbench runner: build dici and the benchmark from source, run one
workload, check its answers, and print the result.

Run from the root of a dici checkout:

  python3 perfbench/run.py --workload cluster-ring-closed --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test          # tiny sizes, every workload, two seeds
  python3 perfbench/run.py --spread --workload store-parallel-open --runs 5

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics BENCHMARK.json names (end_to_end with --trace 0,
per_layer with --trace 1). The full record, with a machine fingerprint
and a host-noise record, is written under the build directory
(<build>/results/), and a traced run also writes a Chrome trace there.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build only the targets the benchmark runs."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(os.path.join(out, "CMakeFiles"), ignore_errors=True)
                try:
                    os.remove(os.path.join(out, "CMakeCache.txt"))
                except FileNotFoundError:
                    pass
                build_failed(log_path)
        cmd = ["cmake", "--build", out, "--target", "dici_perfbench",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            build_failed(log_path)
    binary = os.path.join(out, "dici_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no benchmark binary at {binary}")
    return binary


def build_failed(log_path):
    with open(log_path) as log:
        tail = log.readlines()[-30:]
    sys.stderr.write("".join(tail))
    fail(f"build failed (full log: {log_path})")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


# --- machine fingerprint and host noise --------------------------------------

def cpu_times():
    """Host-wide jiffies from /proc/stat: (busy, steal, total)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    busy = user + nice + system + irq + softirq
    return busy, steal, busy + idle + iowait + steal


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "cpu_model": model,
        "allowed_cpus": sorted(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


# --- one run ------------------------------------------------------------------

def run_binary(binary, workload, seed, seconds, trace, tiny=False, quiet=False):
    """Run one workload; returns (record, exit code)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", results]
    if tiny:
        cmd.append("--tiny")
    busy0, steal0, total0 = cpu_times()
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - start
    busy1, steal1, total1 = cpu_times()
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if not quiet or proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    ncpu = os.cpu_count() or 1
    jiffies = max(1, total1 - total0)
    ours = (usage1.ru_utime + usage1.ru_stime - usage0.ru_utime - usage0.ru_stime)
    host_busy = (busy1 - busy0) / jiffies
    ours_frac = ours / (wall * ncpu)
    record["noise"] = {
        "wall_s": wall,
        "host_busy_frac": host_busy,
        "host_steal_frac": (steal1 - steal0) / jiffies,
        "ours_busy_frac": ours_frac,
        "others_busy_frac": max(0.0, host_busy - ours_frac),
    }
    record["fingerprint"] = fingerprint()
    name = f"{workload}-seed{seed}-trace{1 if trace else 0}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    return record, proc.returncode


def contract_line(record, spec, trace):
    """The result line: the metrics BENCHMARK.json names."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"{record['workload']} did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]), "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def print_report(record):
    """Human-readable lines: every metric with unit and sample count."""
    noise = record["noise"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} error_rate={record['metrics']['error_rate']['value']:.3g}")
    print(f"# host busy {noise['host_busy_frac']:.2f} (others {noise['others_busy_frac']:.2f}), "
          f"steal {noise['host_steal_frac']:.3f}, wall {noise['wall_s']:.1f} s")
    for name, m in record["metrics"].items():
        n = f" (n={m['samples']})" if m["samples"] else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{n}")


def self_test(binary, spec):
    """Tiny sizes: every workload emits every named metric with its unit,
    on the default seed and a second one; then the binary's own checks."""
    if subprocess.call([binary, "--selftest"]) != 0:
        fail("binary self-test failed", 1)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
            for trace in (False, True):
                record, code = run_binary(binary, workload, seed, 1, trace,
                                          tiny=True, quiet=True)
                line = contract_line(record, spec, trace)
                if code != 0 or not line["correct"] or line["failed"]:
                    fail(f"{workload} seed {seed} trace {int(trace)}: incorrect run", 1)
                print(f"ok  {workload:24s} seed={seed} trace={int(trace)} "
                      f"{len(line['metrics'])} metrics")
    print("self-test ok")


def spread(binary, spec, workload, runs, seconds, first_seed):
    """Run `runs` seeds and print each end-to-end metric's median and
    quartile spread (IQR / median), as the acceptance check computes it."""
    values = {}
    for i in range(runs):
        record, code = run_binary(binary, workload, first_seed + i, seconds, False,
                                  quiet=True)
        if code != 0:
            fail(f"{workload} seed {first_seed + i} failed", 1)
        for m in spec["end_to_end"]:
            values.setdefault(m["name"], []).append(record["metrics"][m["name"]]["value"])
        print(f"seed {first_seed + i}: " + " ".join(
            f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{workload:24s} {m['name']:16s} median {med:12.5g}  spread {(q3 - q1) / med:7.4f}"
              f"  bound {m['bound']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if args.self_test:
        self_test(binary, spec)
        return 0
    if args.spread:
        spread(binary, spec, args.workload, args.runs, seconds, args.seed)
        return 0
    record, code = run_binary(binary, args.workload, args.seed, seconds, bool(args.trace))
    print_report(record)
    print(json.dumps(contract_line(record, spec, bool(args.trace))))
    return code


if __name__ == "__main__":
    sys.exit(main())
