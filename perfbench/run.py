#!/usr/bin/env python3
"""The repository benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the simulator
sources it compiles) into .bench_build/, then runs passes of the
workload, each in a fresh process, until --seconds have gone by. Prints
a report and, as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
passes alternate untraced and traced, and the metrics are the per-layer
ones. Exits non-zero when a simulation failed a check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("exact-grid", "sampled-grid", "consolidated-scenario")

# A run never starts a pass it could not finish inside this many
# seconds after its build.
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 120.0

# The paper's HP geomean IPC gain over FDIP, measured on gem5.
PAPER_SPEEDUP = 1.066

END_TO_END = {
    "setup_s": "s",
    "sim_mips": "MIPS",
    "detailed_mips": "MIPS",
    "peak_rss_mb": "MB",
    "ipc_speedup_hp": "ratio",
    "l1i_mpki_hp": "MPKI",
}

PREFETCHERS = ("fdip", "efetch", "mana", "eip", "hp")


def per_layer_units():
    """Every per-layer metric and its unit, in report order."""
    units = {
        "workload.build_s": "s",
        "sim.ctor_s": "s",
        "workload.engine_mips": "MIPS",
        "sim.warmup_mips": "MIPS",
        "sim.measure_mips": "MIPS",
        "sim.ff_mips": "MIPS",
        "sim.window_mips": "MIPS",
        "ckpt.capture_ms": "ms",
        "ckpt.restore_ms": "ms",
        "ckpt.encode_ms": "ms",
        "ckpt.decode_ms": "ms",
        "ckpt.blob_kb": "KiB",
        "sampling.detailed_frac": "ratio",
        "sampling.ipc_ci95_pct": "%",
        "multicore.mips": "MIPS",
        "executor.busy_frac": "ratio",
        "multicore.context_switches": "count",
        "multicore.md_arbiter_stall_cycles": "cycles",
        "multicore.dram_queue_cycles": "cycles",
        "latency.queue_frac": "ratio",
        "req_p50_kcycles": "kcycles",
        "req_p90_kcycles": "kcycles",
        "req_samples": "count",
        "trace.overhead_frac": "ratio",
    }
    for layer in ("bench", "workload", "sim", "ckpt", "multicore", "executor"):
        units["self_s." + layer] = "s"
    for pf in ("fdip", "hp"):
        units["frontend.btb_mpki." + pf] = "MPKI"
        units["frontend.cond_mispred_pki." + pf] = "PKI"
        units["frontend.fetch_stall_frac." + pf] = "ratio"
        units["frontend.backend_stall_frac." + pf] = "ratio"
    for pf in PREFETCHERS:
        units["cache.l1i_mpki." + pf] = "MPKI"
        units["cache.l2i_mpki." + pf] = "MPKI"
        units["cache.llc_mpki." + pf] = "MPKI"
        units["cache.itlb_mpki." + pf] = "MPKI"
        units["cache.dram_bytes_pki." + pf] = "B/kinst"
    for pf in PREFETCHERS[1:]:
        units["prefetch.ext_issued_pki." + pf] = "PKI"
        units["prefetch.ext_accuracy." + pf] = "ratio"
        units["prefetch.ext_late_frac." + pf] = "ratio"
        units["prefetch.coverage_l1." + pf] = "ratio"
    units["core.mat_hit_rate.hp"] = "ratio"
    units["core.metadata_bytes_pki.hp"] = "B/kinst"
    units["core.replay_prefetches_pki.hp"] = "PKI"
    for cause in ("never_prefetched", "prefetch_late", "prefetched_evicted",
                  "demand_evicted", "resource_contention", "wrong_path"):
        for pf in ("fdip", "hp"):
            units["obs.miss.%s_pki.%s" % (cause, pf)] = "PKI"
    return units


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(jobs):
    """Configures once, then brings .bench_build/hpbench up to date.
    Build output goes to stderr so stdout stays the report."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs),
                        "--target", "hpbench"], stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "hpbench")


def run_pass(binary, args, jobs, trace, env):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--jobs", str(jobs), "--trace", "1" if trace else "0",
           "--out", OUT_DIR]
    start = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - start
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, time.monotonic() - start
    return json.loads(lines[-1]), time.monotonic() - start


def mips(p, *phases):
    """Instructions per host second over @p phases of one pass."""
    work = sum(p["host"][ph + "_insts"] for ph in phases)
    seconds = sum(p["host"][ph + "_s"] for ph in phases)
    return work / seconds / 1e6 if seconds else 0.0


def median_of(passes, f):
    return statistics.median(f(p) for p in passes)


def reported(p, name):
    """A per-layer value of one pass: host layers first, then the
    simulated ones; 0 where the workload makes no such call."""
    value = p["layers"].get(name, p["sim"].get(name))
    return value if value is not None else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--jobs", type=int, default=0,
                    help="simulation workers (default: min(4, nproc))")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative")
    jobs = args.jobs or min(4, os.cpu_count() or 1)

    binary = build(jobs)
    os.makedirs(OUT_DIR, exist_ok=True)
    # Inherited HP_* settings (checkpoint directory, sampling, scenario,
    # job count, observability) must not change the work.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HP_")}

    start = time.monotonic()
    untraced, traced = [], []
    broken = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        have_both = untraced and (traced or not args.trace)
        if have_both and elapsed >= args.seconds:
            break
        if have_both and elapsed + longest > RUN_BUDGET_S:
            break
        trace = bool(args.trace) and len(untraced) > len(traced)
        result, took = run_pass(binary, args, jobs, trace, env)
        longest = max(longest, took)
        if result is None:
            broken += 1
            break
        (traced if trace else untraced).append(result)

    passes = untraced + traced
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(p["attempted"] for p in passes) + broken
    failed = sum(p["failed"] for p in passes) + broken
    correct = bool(passes) and failed == 0 and len(digests) == 1

    for p in passes:
        for msg in p["failures"]:
            print("FAIL " + msg, file=sys.stderr)
    if len(digests) > 1:
        print("FAIL simulated outputs differ between passes: "
              + ", ".join(digests), file=sys.stderr)

    units = per_layer_units() if args.trace else END_TO_END
    metrics = {}
    if args.trace and traced:
        for name in units:
            metrics[name] = median_of(traced, lambda p: reported(p, name))
        if untraced:
            replay = lambda p: mips(p, "replay")
            metrics["trace.overhead_frac"] = (
                median_of(untraced, replay) / median_of(traced, replay) - 1.0)
    elif untraced:
        sim = untraced[0]["sim"]
        # Medians over passes: this host's speed swings by tens of
        # percent from one pass to the next.
        metrics = {
            "setup_s": median_of(untraced, lambda p: p["host"]["setup_s"]),
            "sim_mips": median_of(untraced,
                                  lambda p: mips(p, "entry", "replay")),
            "detailed_mips": median_of(untraced,
                                       lambda p: mips(p, "detailed")),
            "peak_rss_mb": median_of(untraced,
                                     lambda p: p["host"]["peak_rss_mb"]),
            "ipc_speedup_hp": sim["ipc_speedup_hp"],
            "l1i_mpki_hp": sim["l1i_mpki_hp"],
        }

    print("perfbench %s seed=%d jobs=%d passes=%d traced=%d"
          % (args.workload, args.seed, jobs, len(untraced), len(traced)))
    print("digest %s" % (digests[0] if len(digests) == 1 else "MISMATCH"))
    print("failed_frac %d/%d" % (failed, attempted))
    for name, unit in units.items():
        note = ""
        if name == "ipc_speedup_hp":
            note = ("  (paper: %.3f on gem5; this model is not validated"
                    " against hardware)" % PAPER_SPEEDUP)
        print("%-40s %14.6g %s%s" % (name, metrics.get(name, 0.0), unit, note))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
