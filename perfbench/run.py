#!/usr/bin/env python3
"""Benchmark driver: build, prepare the seeded input, run one workload.

    python3 perfbench/run.py --workload pr-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. It builds the program and the benchmark
binaries with CMake into .bench_build/, generates the workload's input from
--seed with the benchmark's own generator, converts it once with
tools/graph_convert into a v3 snapshot cached under .bench_cache/, runs the
measurement, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics. --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes a Chrome trace
(Perfetto) under .bench_out/trace/. Every run writes a provenance record
under .bench_out/runs/.

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import time

WORKLOADS = ("pr-dense", "sv-composed", "scc-tcp")
TCP_RANKS = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
CACHE_KEEP = 3  # prepared seeds kept per workload

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE = os.path.join(ROOT, ".bench_cache")
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE = [time.monotonic() + RUN_DEADLINE_S]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def remaining():
    return DEADLINE[0] - time.monotonic()


def become_subreaper():
    """Orphaned rank processes are re-parented to this process, so it can
    reap them even if the launcher between us dies first."""
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def reap_all():
    """Kill and wait for every process left below this one (direct children,
    and orphans re-parented here as subreaper)."""
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = f.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            try:
                os.kill(int(entry), signal.SIGKILL)
            except ProcessLookupError:
                pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def clean_env():
    """The environment without any PGCH_* setting: every workload runs the
    program's defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PGCH_")}


def run_checked(cmd, timeout, **kwargs):
    proc = subprocess.Popen(cmd, env=clean_env(), start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        reap_all()
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        reap_all()
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from the repository root")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            timeout=800, stdout=sys.stderr)
    run_checked(
        ["cmake", "--build", BUILD, "-j4", "--target", "pgbench", "checks_test",
         "graph_convert", "pgch_launch"],
        timeout=800, stdout=sys.stderr)
    return {
        "pgbench": os.path.join(BUILD, "pgbench"),
        "checks_test": os.path.join(BUILD, "checks_test"),
        "graph_convert": os.path.join(BUILD, "program", "graph_convert"),
        "pgch_launch": os.path.join(BUILD, "program", "pgch_launch"),
    }


def prepare(bins, workload, seed):
    """The seed's input as a v3 snapshot plus its oracle answer, made once
    and cached outside the timed region."""
    base = os.path.join(CACHE, workload)
    target = os.path.join(base, f"seed-{seed}")
    if os.path.exists(os.path.join(target, "graph.bin")):
        os.utime(target)
        return target
    os.makedirs(base, exist_ok=True)
    tmp = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    run_checked([bins["pgbench"], "prepare", workload, str(seed), tmp],
                timeout=remaining(), stdout=sys.stderr)
    text = os.path.join(tmp, "edges.txt")
    run_checked([bins["graph_convert"], text, os.path.join(tmp, "graph.bin")],
                timeout=remaining(), stdout=sys.stderr)
    os.remove(text)
    # Flush the new files now, so their write-back does not run during the
    # measurement.
    for name in os.listdir(tmp):
        with open(os.path.join(tmp, name), "rb") as f:
            os.fsync(f.fileno())
    shutil.rmtree(target, ignore_errors=True)
    os.rename(tmp, target)
    # Keep only the most recently used seeds.
    entries = sorted(
        (os.path.join(base, d) for d in os.listdir(base)),
        key=os.path.getmtime, reverse=True)
    for old in entries[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def free_port_base():
    """A base port P with P and P+1 free, below the kernel's ephemeral range
    so no outgoing connection can take them meanwhile."""
    picker = random.Random()
    for _ in range(100):
        base = picker.randrange(20000, 32000 - TCP_RANKS)
        socks = []
        try:
            for r in range(TCP_RANKS):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.bind(("127.0.0.1", base + r))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    fail("no free port pair found")


def measure(bins, workload, seed, seconds, trace, data):
    cmd = [bins["pgbench"], "run", workload, data, str(seconds), str(trace),
           str(seed)]
    if trace:
        trace_dir = os.path.join(OUT, "trace", f"{workload}-seed{seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        cmd.append(trace_dir)
    if workload == "scc-tcp":
        cmd = [bins["pgch_launch"], "-n", str(TCP_RANKS), "--transport", "tcp",
               "--port-base", str(free_port_base()), "--"] + cmd
    out = run_checked(cmd, timeout=remaining(), stdout=subprocess.PIPE,
                      text=True)
    reap_all()
    for line in reversed(out.splitlines()):
        if line.startswith("PGBENCH_RESULT "):
            return json.loads(line[len("PGBENCH_RESULT "):])
    fail("the measurement printed no result")


def source_digest():
    """SHA-256 over the program's sources: provenance that also holds in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(result):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record = result.get("record", {})
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "build_type": record.get("build_type"),
        "compiler": record.get("compiler"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the checks' self-test and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    become_subreaper()
    try:
        bins = build()
        # The first run in a checkout may spend long on the build; the
        # run's own deadline starts once the binaries are there.
        DEADLINE[0] = time.monotonic() + RUN_DEADLINE_S
        if args.self_test:
            print(run_checked([bins["checks_test"]], timeout=remaining(),
                              stdout=subprocess.PIPE, text=True), end="")
            return
        data = prepare(bins, args.workload, args.seed)
        result = measure(bins, args.workload, args.seed, args.seconds,
                         args.trace, data)
    finally:
        reap_all()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": result["metrics"],
        "run": result.get("record", {}),
    }
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{record['time']}-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(runs, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": record["provenance"], "run": record["run"]}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
