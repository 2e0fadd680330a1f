#!/usr/bin/env python3
"""Run one workload of the TrustDDL benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench_driver (with the
repository's sources) under .bench_build/perfbench, runs the workload,
checks every output and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, pooled over several driver
processes; --trace 1 runs one driver process untraced and then one
traced (same seed, each for the whole --seconds) and reports the
per-layer metrics plus the tracing overhead.  The exit code is 0 only when every check
passed.  README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
# Leaves headroom under the 180 s a run may take once built.
RUN_BUDGET_S = 170

# Driver processes per run; the run's --seconds is split evenly among
# them.  On the reference host every process lands in one of two
# performance states about 20% apart and keeps it for its lifetime
# (README.md, "Steadiness"); pooling several processes per run keeps
# that from deciding a run's figures.
PROCESSES = {"serve_poisson": 4, "serve_burst": 2, "train_cnn": 2}

# Secure training must learn: held-out accuracy well above chance (0.1).
# It is not held to plaintext SGD's accuracy: over a few dozen steps the
# fixed-point trajectory can drift from the plaintext one by more than
# a tenth of accuracy (README.md, finding 5), which is printed instead.
MIN_TRAIN_ACCURACY = 0.3


def log(message):
    print(message, flush=True)


def build():
    """Configure and build the driver; returns its path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as out:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=out,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                print("build failed: %s" % error, file=sys.stderr)
                return None
            if result.returncode != 0:
                out.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                print("build failed: %s" % " ".join(step), file=sys.stderr)
                return None
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_driver(driver, args, part, seconds, trace, deadline):
    """One driver process; returns (raw, obs_dir) or raises RuntimeError.

    Part k of a run uses workload seed seed * 8 + k, so every process
    gets its own inputs and the whole run is still a function of --seed.
    """
    seed = args.seed * 8 + part
    tag = "%s-%d-%d" % (args.workload, seed, trace)
    out_path = os.path.join(BUILD_DIR, "runs", tag + ".json")
    obs_dir = os.path.join(BUILD_DIR, "runs", tag + ".obs")
    shutil.rmtree(obs_dir, ignore_errors=True)
    os.makedirs(obs_dir)
    if os.path.exists(out_path):
        os.remove(out_path)
    command = [driver, "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--out", out_path, "--obs-dir", obs_dir]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the %s run" % tag)
    try:
        result = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("driver timed out (%s)" % tag)
    if result.returncode != 0 or not os.path.exists(out_path):
        raise RuntimeError("driver failed with code %d (%s)" %
                           (result.returncode, tag))
    with open(out_path) as text:
        return json.load(text), obs_dir


def read_trace(path):
    spans, instants = [], []
    with open(path) as text:
        for line in text:
            record = json.loads(line)
            if record["kind"] == "span":
                spans.append(record)
            elif record["kind"] == "instant":
                instants.append(record)
    return spans, instants


def check_digest(raw):
    """The trained weights must hash the same on every run of a seed."""
    train = raw["train"]
    path = os.path.join(BUILD_DIR, "train_digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as text:
            known = json.load(text)
    key = "%d:%d" % (raw["seed"], train["steps"])
    if key in known and known[key] != train["digest"]:
        return ["trained weights digest %s differs from an earlier run's %s"
                % (train["digest"], known[key])]
    known[key] = train["digest"]
    with open(path, "w") as text:
        json.dump(known, text)
    return []


def check(raw):
    """Correctness failures of one driver run (empty when correct)."""
    problems = []
    outcomes = raw["outcomes"]
    if outcomes["wrong"]:
        problems.append("%d answers differ from the honest reference"
                        % outcomes["wrong"])
    if outcomes["exception"]:
        problems.append("%d items raised or went missing"
                        % outcomes["exception"])
    if "net_classes" in raw and not raw["recorder_matches_traffic"]:
        problems.append("recording transport totals differ from "
                        "Transport::traffic()")
    if "scheduler" in raw:
        s = raw["scheduler"]
        if s["admitted"] != s["completed"] + s["rejected"] + \
                s["deadline_missed"]:
            problems.append("scheduler ledger does not balance: %s" % s)
    if "train" in raw:
        train = raw["train"]
        if train["accuracy"] < MIN_TRAIN_ACCURACY:
            problems.append("held-out accuracy %.3f after training is below "
                            "%.2f" % (train["accuracy"], MIN_TRAIN_ACCURACY))
        problems += check_digest(raw)
    return problems


def check_export(raw, export):
    """The metrics export's per-class counters must sum to its traffic."""
    counters = export["metrics"]["counters"]
    traffic = export["traffic"]
    sent = sum(v for k, v in counters.items()
               if k.startswith("net.sent.bytes."))
    problems = []
    if sent != traffic["total_bytes"]:
        problems.append("export: per-class bytes %d != traffic %d"
                        % (sent, traffic["total_bytes"]))
    if "net_classes" in raw and raw["traffic_bytes"] != traffic["total_bytes"]:
        problems.append("export traffic differs from the recorder's")
    return problems


def describe(raw, e2e):
    percent, _ = analysis.tail_percentile(raw["latency_ms"])
    o = raw["outcomes"]
    log("%s, processes with seeds %s: %d attempted, ok=%d rejected=%d "
        "deadline=%d wrong=%d exception=%d"
        % (raw["workload"], raw["seeds"], raw["items"], o["ok"],
           o["rejected"], o["deadline"], o["wrong"], o["exception"]))
    log("  latency samples=%d, tail = p%.1f (11th largest); limit %.0f ms"
        % (len(raw["latency_ms"]), percent, raw["limit_ms"]))
    log("  set-up per process %s s (calibration + median set-up); kernel "
        "threads %d, matmul cutoff %d B"
        % (["%.3f" % s for s in raw["setup_per_process"]],
           raw["kernel_threads"], raw["matmul_cutoff_bytes"]))
    if "generator_late_ms" in raw:
        late = sorted(raw["generator_late_ms"])
        log("  generator lateness: median %.3f ms, max %.3f ms"
            % (late[len(late) // 2], late[-1]))
    for part in raw["trains"]:
        log("  train seed %d: %d steps, weights sha256 %s, held-out accuracy "
            "%.3f (plaintext SGD %.3f, prediction agreement %.3f, max "
            "weight difference %.4f)"
            % (part["seed"], part["steps"], part["digest"], part["accuracy"],
               part["plaintext_accuracy"], part["plaintext_agreement"],
               part["max_weight_diff"]))
    for name, unit, _ in analysis.END_TO_END:
        log("  %-16s %14.4f %s" % (name, e2e[name], unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=analysis.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    driver = build()
    if driver is None:
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    problems = []
    try:
        # A traced run needs only one untraced process, the twin of its
        # traced one, and gives both the whole run length.
        processes = 1 if args.trace else PROCESSES[args.workload]
        seconds = args.seconds / processes
        parts = []
        for part in range(processes):
            raw, _ = run_driver(driver, args, part, seconds, 0, deadline)
            problems += check(raw)
            parts.append(raw)
        raw = analysis.combine(parts)
        e2e = analysis.end_to_end(raw)
        describe(raw, e2e)
        units = {name: unit for name, unit, _ in analysis.END_TO_END}
        values = e2e
        if args.trace:
            # Per-layer figures come from one traced process; the
            # overhead compares it with the untraced process of the same
            # seed.
            traced, obs_dir = run_driver(driver, args, 0, seconds, 1,
                                         deadline)
            problems += check(traced)
            traced = analysis.combine([traced])
            traced_e2e = analysis.end_to_end(traced)
            log("traced process:")
            describe(traced, traced_e2e)
            with open(os.path.join(obs_dir, "metrics.json")) as text:
                export = json.load(text)
            problems += check_export(traced, export)
            spans, instants = read_trace(os.path.join(obs_dir, "trace.jsonl"))
            values = analysis.per_layer(traced, export, spans, instants,
                                        e2e, traced_e2e)
            units = {name: unit for name, unit, _ in analysis.PER_LAYER}
            raw = traced
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        print("run failed: %s" % error, file=sys.stderr)
        return 1

    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    attempted = raw["items"]
    failed = attempted - raw["outcomes"]["ok"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
