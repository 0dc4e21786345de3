#!/usr/bin/env python3
"""The repo benchmark: builds dbsherlockd and the load generator from this
checkout, runs one workload against the real daemon, checks its answers,
and prints every metric by name and unit.

  python3 perfbench/run.py --workload ingest --seed 7 --seconds 20 --trace 0
  python3 perfbench/run.py --workload fleet_mixed --seed 7 --seconds 20 --trace 1
  python3 perfbench/run.py --check-counts --workload investigate --seed 7
  python3 perfbench/run.py --selftest

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The full result, stamped with the host and run, is written to
<build dir>/results/. See perfbench/README.md.

Environment:
  CARGO_TARGET_DIR        build directory (default .bench_build)
  PERFBENCH_ALLOW_DEBUG=1 accept a build directory configured by hand as a
                          non-optimised build (numbers from one are not
                          comparable and are refused otherwise)
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ingest", "investigate", "fleet_mixed")

# name -> unit. The end-to-end metrics are what a client of the daemon
# sees; README.md defines each.
END_TO_END = {
    "setup_s": "s",
    "daemon_rss_mb": "MB",
    "ingest_rows_per_s": "rows/s",
    "append_p50_ms": "ms",
    "store_bytes_ratio": "ratio",
    "explainq_pn_p50_ms": "ms",
    "explainq_abs_p50_ms": "ms",
    "diagnose_range_p50_ms": "ms",
    "query_p50_ms": "ms",
}
# Measured and printed, not gated (README.md says why).
UNGATED = ("append_p99_ms", "diagnosis_p50_ms", "read_p95_ms")

# Per-layer metrics of the traced run, named after the repo's modules.
PER_LAYER = {
    "wire.parse_append_us": "us",
    "service.append_us": "us",
    "service.shed_frac": "fraction",
    "service.queue_depth_p50": "rows",
    "service.flush_ms": "ms",
    "service.diag_wait_ms": "ms",
    "service.dedup_frac": "fraction",
    "monitor.append_us": "us",
    "monitor.detect_ms": "ms",
    "store.append_us": "us",
    "store.seal_ms": "ms",
    "segment.encode_ns_per_value": "ns",
    "store.bytes_per_row": "bytes",
    "store.open_ms": "ms",
    "segment.decode_ns_per_value": "ns",
    "store.quantile_ms": "ms",
    "store.quantile_segments_decoded": "count",
    "store.scan_ms": "ms",
    "store.scan_segments_decoded": "count",
    "store.decoded_rows_per_returned_row": "ratio",
    "query.parse_us": "us",
    "query.compile_ms": "ms",
    "query.execute_ms": "ms",
    "query.render_ms": "ms",
    "response.bytes.append": "bytes",
    "response.bytes.explainq_pn": "bytes",
    "response.bytes.explainq_abs": "bytes",
    "response.bytes.diagnose_range": "bytes",
    "response.bytes.query": "bytes",
    "detector.detect_ms": "ms",
    "explainer.diagnose_ms": "ms",
    "predicates.generate_ms": "ms",
    "repository.rank_ms": "ms",
    "router.hop_us": "us",
    "router.shard_imbalance": "ratio",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "fraction",
}

OPTIMISED = ("Release", "RelWithDebInfo", "MinSizeRel")
# The daemon runs with its default flags, so this is its flush policy.
FLUSH_POLICY = "daemon default: fsync at every segment seal and every model WAL append"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cache_value(cache, key):
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(allow_debug):
    """Configures and builds the daemon, load generator and self-test.
    Returns (bin_dir, build_type) or exits 1."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no DBSherlock sources next to perfbench/ (src/ missing)")
        sys.exit(1)
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    home = cache_value(cache, "CMAKE_HOME_DIRECTORY")
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(bdir, ignore_errors=True)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: configure failed")
            sys.exit(1)
    jobs = str(os.cpu_count() or 1)
    r = subprocess.run(
        ["cmake", "--build", bdir, "-j", jobs, "--target",
         "dbsherlockd", "perfbench_loadgen", "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    actual = cache_value(cache, "CMAKE_BUILD_TYPE") or ""
    if actual not in OPTIMISED and not allow_debug:
        log("perfbench: refusing a non-optimised build (%r); numbers from it are "
            "not comparable. Set PERFBENCH_ALLOW_DEBUG=1 to force." % actual)
        sys.exit(1)
    return bdir, actual


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_loadgen(bdir, workload, seed, seconds, trace, tag):
    """Runs one workload; returns the load generator's result dict."""
    runs = os.path.join(bdir, "runs")
    work = os.path.join(runs, "%s-s%d-t%d-%d%s" % (workload, seed, trace, os.getpid(), tag))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = work + ".json"
    cmd = [os.path.join(bdir, "perfbench_loadgen"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--daemon", os.path.join(bdir, "dbsherlockd"),
           "--work-dir", work, "--out", out]
    # Own process group, so a timeout takes the daemons down with it.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: load generator timed out")
        sys.exit(1)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything left behind
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        log("perfbench: load generator failed (exit %d)" % code)
        sys.exit(1)
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    result["_spans_file"] = out + ".spans.json" if os.path.exists(out + ".spans.json") else None
    return result


def stamp(bdir, build_type, args, result, load_start):
    return {
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "simd_isa": result.get("simd_isa", ""),
        "build_type": build_type,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "store_filesystem": filesystem_of(bdir),
        "flush_policy": FLUSH_POLICY,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summary_line(result, trace):
    if trace:
        source = result.get("layers", {})
        metrics = {k: {"value": source.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        source = result["metrics"]
        metrics = {k: {"value": source[k]["value"], "unit": u} for k, u in END_TO_END.items()}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_report(result, trace):
    if not trace:
        for k in list(END_TO_END) + list(UNGATED):
            m = result["metrics"][k]
            print("%-24s %14.4f %-7s (%d samples)" % (k, m["value"], m["unit"], m["samples"]))
    else:
        for k, u in PER_LAYER.items():
            print("%-36s %14.4f %s" % (k, result.get("layers", {}).get(k, 0.0), u))
        print("per-operation accounting (ms per operation):")
        for op, e in sorted(result.get("accounting", {}).items()):
            layers = ", ".join("%s %.4f" % (k, v) for k, v in sorted(e["layer_self_ms"].items()))
            print("  %-15s untraced p50 %.4f = layers %.4f [%s] + unattributed %.4f"
                  % (op, e["untraced_p50_ms"], e["in_process_ms"], layers, e["unattributed_ms"]))
    print("error_rate %.6f  counts %s" % (result["error_rate"], json.dumps(result["counts"], sort_keys=True)))
    for f in result.get("failures", []):
        print("failure: " + f)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-counts", action="store_true",
                   help="run twice with the same seed; fail unless the exact counts match")
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own statistics and pacing tests")
    args = p.parse_args()
    allow_debug = os.environ.get("PERFBENCH_ALLOW_DEBUG") == "1"

    bdir, build_type = build(allow_debug)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode)
    if args.workload is None:
        p.error("--workload is required")

    if args.check_counts:
        a = run_loadgen(bdir, args.workload, args.seed, args.seconds, 0, "a")
        b = run_loadgen(bdir, args.workload, args.seed, args.seconds, 0, "b")
        diff = {k: (a["counts"].get(k), b["counts"].get(k))
                for k in set(a["counts"]) | set(b["counts"])
                if a["counts"].get(k) != b["counts"].get(k)}
        print(json.dumps({"counts": a["counts"], "differ": diff}, sort_keys=True))
        sys.exit(1 if diff else 0)

    load_start = list(os.getloadavg())
    result = run_loadgen(bdir, args.workload, args.seed, args.seconds, args.trace, "")
    result["stamp"] = stamp(bdir, build_type, args, result, load_start)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d-%s.json" % (args.workload, args.seed, args.trace,
                                          time.strftime("%Y%m%dT%H%M%S"))
    spans = result.pop("_spans_file")
    if spans:
        os.replace(spans, os.path.join(results, name[:-len(".json")] + ".spans.json"))
    with open(os.path.join(results, name), "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    print("host %s" % json.dumps(result["stamp"], sort_keys=True))
    print_report(result, args.trace)
    print(json.dumps(summary_line(result, args.trace)))


if __name__ == "__main__":
    main()
