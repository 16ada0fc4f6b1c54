#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark from source, run one workload.

    python3 perfbench/run.py --workload churn-wal|constrained-auto|offline-ff \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The first run configures and builds
`hetsched_cli` and `hsbench` under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build.  Each run works in a
fresh directory under the build directory, removed when it ends.  The last
stdout line is the result object; see perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn-wal", "constrained-auto", "offline-ff")
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the two targets; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no hetsched source tree next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release", "-DHETSCHED_WERROR=OFF"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "hetsched_cli", "hsbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out, "hetsched", "tools", "hetsched_cli"),
            os.path.join(out, "hsbench"))


def irq_cpus():
    """CPUs that take most block-device completion interrupts (virtio
    *-req or nvme queues); the generator and server avoid them."""
    totals = {}
    try:
        with open("/proc/interrupts") as f:
            cpus = [int(c[3:]) for c in f.readline().split()]
            for line in f:
                if "-req" not in line and "nvme" not in line:
                    continue
                for cpu, n in zip(cpus, line.split()[1:1 + len(cpus)]):
                    if n.isdigit():
                        totals[cpu] = totals.get(cpu, 0) + int(n)
    except OSError:
        return set()
    top = max(totals.values(), default=0)
    return {c for c, n in totals.items() if top > 0 and n >= top / 10}


def cpu_split():
    """Disjoint CPU sets: one CPU for the generator, one for the server,
    both away from disk interrupts when the machine has CPUs to spare."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    quiet = [c for c in cpus if c not in irq_cpus()]
    pool = quiet if len(quiet) >= 2 else cpus
    return pool[-2:-1], pool[-1:]


def run(workload, seed, seconds, trace):
    cli, bench = build()
    server_cpus, gen_cpus = cpu_split()
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs)
    spans = os.path.join(build_dir(), f"spans-{workload}.jsonl")
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", cli, "--work-dir", work,
           "--server-cpus", ",".join(map(str, server_cpus)),
           "--gen-cpus", ",".join(map(str, gen_cpus))]
    if trace:
        cmd += ["--spans-out", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("benchmark run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def self_test():
    """Runs every workload briefly in both modes and checks that each
    metric BENCHMARK.json names is emitted with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            rc, out = run(workload, 1, 3, trace)
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = rc == 0 and result["correct"] and got == want
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace} "
                  f"metrics={len(got)}/{len(want)} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
            if got != want:
                print(f"     missing={sorted(set(want) - set(got))} "
                      f"extra={sorted(set(got) - set(want))}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        rc, out = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
