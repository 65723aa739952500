#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench`, runs one workload for a
fixed time and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke [--seed <n>]
    python3 perfbench/run.py --self-times .bench_work/spans/<workload>-seed<n>.jsonl

Run it from the repository root. `--trace 0` prints every end-to-end
metric of BENCHMARK.json, `--trace 1` every per-layer metric; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--smoke` makes one short run of
each workload in both modes. A traced run leaves its spans in
`.bench_work/spans/`; `--self-times` sums each span's self time there.

Each run of a workload is a fresh `perfbench run` process, so each
process's peak memory is that run's. Every child runs with
RAYON_NUM_THREADS pinned to the cores this process may use, one child at
a time.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORK = os.path.join(ROOT, ".bench_work")



class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark binary and return its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target, "release", "perfbench")


def child_env():
    return dict(os.environ, RAYON_NUM_THREADS=str(len(os.sched_getaffinity(0))))


def run_child(binary, args, deadline):
    """Run one `perfbench` process to completion; return its result line
    and its peak resident memory in KiB."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench {args[0]} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss


def nearest_rank(xs, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    v = sorted(xs)
    rank = min(max(math.ceil(p / 100 * len(v)), 1), len(v))
    return v[rank - 1], len(v) - rank


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


class Samples:
    """What the untraced children of one run measured."""

    def __init__(self):
        self.setup, self.wall, self.jobs, self.rss_kib = [], [], [], []
        self.attempted = 0
        self.failed = 0

    def add(self, res, rss_kib):
        self.setup += res["setup_s"]
        self.wall += res["wall_s"]
        self.jobs += res["jobs_s"]
        self.rss_kib.append(rss_kib)
        self.attempted += res["attempted"]
        self.failed += res["failed"]


def untraced(binary, workload, seed, seconds, workdir, flip, deadline):
    s = Samples()
    common = ["--seed", str(seed), "--dir", workdir]
    # One fresh process per run, at least two. Every repetition must
    # reproduce the first one's makespan bits and per-label stats; with
    # `flip`, every second run flips a makespan bit, which must count as a
    # failure.
    start = time.monotonic()
    reference = None
    while len(s.wall) < 2 or time.monotonic() - start < seconds:
        odd = len(s.wall) % 2 == 1
        args = ["run", "--workload", workload] + common
        res, rss = run_child(binary, args + (["--flip-bit"] if flip and odd else []), deadline)
        s.add(res, rss)
        reference = reference or res["digest"]
        s.attempted += 1
        if res["digest"] != reference:
            s.failed += 1
            print(f"check failed: digest {res['digest']} != {reference}", file=sys.stderr)
    return s


def measure(workload, seed, seconds, trace, flip=False, binary=None):
    """One run of `workload`. Returns the result object and, per metric,
    (samples, q1, q3, samples beyond the reported percentile); a traced
    run reports only the samples beyond each percentile."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload '{workload}'")
    binary = binary or build()
    deadline = time.monotonic() + 170.0
    workdir = os.path.join(WORK, f"{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if trace:
            spans = os.path.join(WORK, "spans", f"{workload}-seed{seed}.jsonl")
            args = ["trace", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--dir", workdir, "--spans", spans]
            res, _ = run_child(binary, args + (["--flip-bit"] if flip else []), deadline)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            if set(res["metrics"]) != set(units):
                raise BenchError("per-layer metrics differ from BENCHMARK.json")
            metrics = {n: {"value": res["metrics"][n], "unit": u} for n, u in units.items()}
            result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}
            return result, {n: (None, None, None, k) for n, k in res["beyond"].items()}
        s = untraced(binary, workload, seed, seconds, workdir, flip, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mib = [k / 1024 for k in s.rss_kib]
    p50, beyond50 = nearest_rank(s.jobs, 50)
    p90, beyond90 = nearest_rank(s.jobs, 90)
    ok_ratio = 1 - s.failed / s.attempted
    values = {
        "setup_s": (statistics.median(s.setup), s.setup, None),
        "wall_s": (statistics.median(s.wall), s.wall, None),
        "job_latency_p50_s": (p50, s.jobs, beyond50),
        "job_latency_p90_s": (p90, s.jobs, beyond90),
        "peak_rss_mib": (statistics.median(rss_mib), rss_mib, None),
        "ok_ratio": (ok_ratio, [ok_ratio], None),
    }
    metrics, details = {}, {}
    for m in spec["end_to_end"]:
        value, xs, beyond = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        details[m["name"]] = (len(xs),) + quartiles(xs) + (beyond,)
    result = {"correct": s.failed == 0, "attempted": s.attempted,
              "failed": s.failed, "metrics": metrics}
    return result, details


def self_times(path):
    """Sum each span name's self time (its duration minus its children's)
    over a span file a traced run wrote, and the roots' total wall."""
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    totals, roots = {}, 0.0
    for s, c in zip(spans, child):
        dur = s["end"] - s["start"]
        totals[s["name"]] = totals.get(s["name"], 0.0) + dur - c
        if s["parent"] is None:
            roots += dur
    return totals, roots


def report(workload, seed, trace, result, details):
    print(f"{workload} seed {seed} trace {trace}: "
          f"{result['failed']} of {result['attempted']} operations failed")
    for name, m in result["metrics"].items():
        line = f"  {name:<56} {m['value']:>14.6g} {m['unit']:<6}"
        if name in details:
            n, q1, q3, beyond = details[name]
            if n is not None:
                line += f" n={n} q1={q1:.6g} q3={q3:.6g}"
            if beyond is not None:
                line += f" beyond={beyond}"
        print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short run of each workload, untraced and traced")
    ap.add_argument("--self-times", metavar="SPANS",
                    help="print per-span self times of a traced run's span file")
    args = ap.parse_args()
    if args.self_times:
        totals, roots = self_times(args.self_times)
        for name, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"{name:<28} {secs:12.6f} s  {secs / roots:7.2%}")
        print(f"{'(root spans)':<28} {roots:12.6f} s")
        return 0
    try:
        binary = build()
        if args.smoke:
            ok = True
            for w in [w["name"] for w in load_spec()["workloads"]]:
                for trace in (0, 1):
                    result, details = measure(w, args.seed, 1, trace, binary=binary)
                    report(w, args.seed, trace, result, details)
                    print(json.dumps(result))
                    ok = ok and result["correct"]
            return 0 if ok else 1
        if not args.workload:
            ap.error("--workload is required")
        result, details = measure(args.workload, args.seed, args.seconds,
                                  args.trace, binary=binary)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
