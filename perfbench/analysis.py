"""Metric definitions and arithmetic for the perfbench benchmark.

run.py turns one driver run (the raw JSON perfbench_driver writes) into
the benchmark's metrics with the functions here; test_perfbench.py
tests them.  README.md defines every metric per workload.
"""

import statistics

WORKLOADS = ("serve_poisson", "serve_burst", "train_cnn")

# (name, unit, better) of every end-to-end metric; bounds live in
# BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("goodput_frac", "ratio", "higher"),
    ("items_per_s", "1/s", "higher"),
    ("mb_per_item", "MiB", "lower"),
)

# Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

# Tag classes (net::tag_class) reported one by one; the rest (e.g. the
# escalation path's s2/v/w/hb, which honest runs never send) sum into
# "other".  Opening rounds: s c a; dealing: req rsp col crsp; engine
# inputs: init x y; serving: notice in man ctl res.
NET_CLASSES = ("s", "c", "a", "req", "rsp", "col", "crsp", "init", "x", "y",
               "notice", "in", "man", "ctl", "res", "other")

LAYER_SPANS = ("layer.conv.forward", "layer.dense.forward",
               "layer.relu.forward", "layer.softmax.forward",
               "layer.conv.backward", "layer.dense.backward",
               "model.sgd_step")
MPC_SPANS = ("proto.sec_matmul_bt", "proto.sec_comp_bt", "proto.mask",
             "open.commit", "open.confirm", "open.exchange", "open.decide")


def _per_layer_definitions():
    defs = [
        ("serve.submit_us.p50", "us", "lower"),
        ("serve.queue_wait_us.p50", "us", "lower"),
        ("serve.queue_wait_us.tail", "us", "lower"),
        ("serve.batch_rows.mean", "rows", "higher"),
        ("serve.batch_us.p50", "us", "lower"),
        ("serve.rejected", "count", "lower"),
        ("serve.deadline_missed", "count", "lower"),
        ("serve.generator_late_ms.p50", "ms", "lower"),
        ("serve.generator_late_ms.max", "ms", "lower"),
    ]
    defs += [(name + ".self_us", "us", "lower") for name in LAYER_SPANS]
    defs += [
        ("dealing.bytes", "B", "lower"),
        ("dealing.wait_ms", "ms", "lower"),
    ]
    defs += [(name + ".self_us", "us", "lower") for name in MPC_SPANS]
    defs += [
        ("mpc.opening_rounds", "count", "lower"),
        ("mpc.values_opened", "count", "lower"),
        ("mpc.detections", "count", "higher"),
        ("mpc.recovered_opens", "count", "lower"),
    ]
    for cls in NET_CLASSES:
        defs.append(("net.bytes." + cls, "B", "lower"))
        defs.append(("net.msgs." + cls, "count", "lower"))
        defs.append(("net.recv_wait_ms." + cls, "ms", "lower"))
    defs += [
        ("net.recv_wait_ms.all", "ms", "lower"),
        ("numeric.proto_self_us", "us", "lower"),
        ("numeric.kernel_jobs", "count", "lower"),
        ("numeric.kernel_chunks", "count", "lower"),
        ("numeric.caller_wait_ms", "ms", "lower"),
        ("numeric.threads", "count", "higher"),
        ("numeric.matmul_cutoff_bytes", "B", "higher"),
        ("obs.overhead.latency_p50_frac", "ratio", "lower"),
        ("obs.overhead.items_per_s_frac", "ratio", "lower"),
    ]
    return tuple(defs)


PER_LAYER = _per_layer_definitions()


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percent, value): the value is the (beyond+1)-th largest
    sample, so exactly `beyond` samples lie beyond it.  With too few
    samples for that, the largest sample is returned and the percent is
    100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return 100.0, ordered[-1]
    rank = n - beyond  # 1-based rank of the reported sample
    return 100.0 * rank / n, ordered[rank - 1]


def self_times(spans):
    """Self time per span: its duration minus the part its children cover.

    `spans` are dicts with "name", "party", "ts_us" and "dur_us".  Spans
    nest by time within one party, since each computing party emits its
    spans from a single thread.  Spans with party < 0 (a few backward
    layers carry no party) are skipped: their time stays in their
    parent's self time.  Returns {name: {party: total self µs}}.
    """
    by_party = {}
    for span in spans:
        if span["party"] >= 0:
            by_party.setdefault(span["party"], []).append(span)
    result = {}
    for party, group in by_party.items():
        # Parents first: earlier start, and the longer span on a tie.
        group.sort(key=lambda s: (s["ts_us"], -s["dur_us"]))
        child_us = [0] * len(group)
        stack = []  # indices of the open spans, innermost last
        for index, span in enumerate(group):
            start = span["ts_us"]
            end = start + span["dur_us"]
            while stack and _end(group[stack[-1]]) <= start:
                stack.pop()
            if stack and end <= _end(group[stack[-1]]):
                child_us[stack[-1]] += span["dur_us"]
            stack.append(index)
        for index, span in enumerate(group):
            per_party = result.setdefault(span["name"], {})
            per_party[party] = (per_party.get(party, 0) +
                                max(0, span["dur_us"] - child_us[index]))
    return result


def _end(span):
    return span["ts_us"] + span["dur_us"]


def mean_over_parties(per_party):
    """Mean over the parties that emitted a span (the protocol is SPMD)."""
    return sum(per_party.values()) / len(per_party) if per_party else 0.0


def combine(parts):
    """Pool the raw results of one run's driver processes.

    Item lists are concatenated and counts summed; `setup_per_process`
    holds each process's calibration plus its median set-up sample.
    """
    raw = dict(parts[0])
    for key in ("latency_ms", "good", "submit_us", "generator_late_ms"):
        if key in raw:
            raw[key] = [v for part in parts for v in part[key]]
    for key in ("items", "metered_items", "metered_bytes", "timed_s"):
        raw[key] = sum(part[key] for part in parts)
    for key in ("outcomes", "scheduler"):
        if key in raw:
            raw[key] = {name: sum(part[key][name] for part in parts)
                        for name in raw[key]}
    raw["seeds"] = [part["seed"] for part in parts]
    raw["trains"] = [dict(part["train"], seed=part["seed"])
                     for part in parts if "train" in part]
    raw["setup_per_process"] = [
        part["calibration_s"] + statistics.median(part["setup_s"])
        for part in parts]
    return raw


def end_to_end(raw):
    """The end-to-end metrics of one run (a combine() result)."""
    latencies = raw["latency_ms"]
    _, tail = tail_percentile(latencies)
    good = raw["good"]
    ok = raw["outcomes"]["ok"]
    timed_s = raw["timed_s"]
    return {
        "setup_s": statistics.median(raw["setup_per_process"]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "goodput_frac": sum(good) / len(good),
        "items_per_s": ok / timed_s if timed_s > 0 else 0.0,
        "mb_per_item": raw["metered_bytes"] / raw["metered_items"] / 2**20,
    }


def _class_of(cls):
    return cls if cls in NET_CLASSES else "other"


def per_layer(raw, export, spans, instants, untraced_e2e, traced_e2e):
    """The per-layer metrics of one traced run.

    `export` is the program's metrics export (trustddl.metrics.v1),
    `spans`/`instants` the trace records.  Metrics a workload does not
    exercise read 0 (README.md lists which apply where).
    """
    items = raw["metered_items"]
    out = {name: 0.0 for name, _, _ in PER_LAYER}

    counters = export["metrics"]["counters"]
    histograms = export["metrics"]["histograms"]
    cost = export["cost"]

    # serve
    if "scheduler" in raw:
        sched = raw["scheduler"]
        out["serve.submit_us.p50"] = statistics.median(raw["submit_us"])
        waits = [entry["queue_us"] for record in instants
                 if record["name"] == "serve.dispatch"
                 for entry in record.get("entries", [])]
        if waits:
            out["serve.queue_wait_us.p50"] = statistics.median(waits)
            out["serve.queue_wait_us.tail"] = tail_percentile(waits)[1]
        out["serve.batch_rows.mean"] = (sched["batched_rows"] /
                                        max(1, sched["batches"]))
        batch_us = [s["dur_us"] for s in spans
                    if s["name"] == "serve.batch" and s["party"] == 0]
        if batch_us:
            out["serve.batch_us.p50"] = statistics.median(batch_us)
        out["serve.rejected"] = sched["rejected"]
        out["serve.deadline_missed"] = sched["deadline_missed"]
        late = raw["generator_late_ms"]
        out["serve.generator_late_ms.p50"] = statistics.median(late)
        out["serve.generator_late_ms.max"] = max(late)

    # core + mpc self time, per item
    selfs = self_times(spans)
    for name in LAYER_SPANS + MPC_SPANS:
        out[name + ".self_us"] = mean_over_parties(selfs.get(name, {})) / items
    out["numeric.proto_self_us"] = sum(
        mean_over_parties(per_party) for name, per_party in selfs.items()
        if name.startswith("proto.")) / items

    out["mpc.opening_rounds"] = cost["opening_rounds"] / items
    out["mpc.values_opened"] = cost["values_opened"] / items
    out["mpc.detections"] = (cost["commitment_violations"] +
                             cost["distance_anomalies"] +
                             cost["share_auth_failures"])
    out["mpc.recovered_opens"] = cost["recovered_opens"]

    # net: the recording transport on train_cnn, the program's
    # per-class send counters on serving workloads.
    if "net_classes" in raw:
        wait_total = 0.0
        for cls, totals in raw["net_classes"].items():
            key = _class_of(cls)
            out["net.bytes." + key] += totals["bytes"] / items
            out["net.msgs." + key] += totals["messages"] / items
            wait = totals["recv_wait_us"] / 1000.0 / items
            out["net.recv_wait_ms." + key] += wait
            wait_total += wait
        out["net.recv_wait_ms.all"] = wait_total
        out["dealing.wait_ms"] = out["net.recv_wait_ms.rsp"]
    else:
        for name, value in counters.items():
            for prefix, metric in (("net.sent.bytes.", "net.bytes."),
                                   ("net.sent.messages.", "net.msgs.")):
                if name.startswith(prefix):
                    key = _class_of(name[len(prefix):])
                    out[metric + key] += value / items
        wait = histograms.get("net.recv_wait_us", {}).get("sum", 0)
        out["net.recv_wait_ms.all"] = wait / 1000.0 / items
    out["dealing.bytes"] = out["net.bytes.rsp"]

    # numeric
    out["numeric.kernel_jobs"] = counters.get("kernels.jobs", 0) / items
    out["numeric.kernel_chunks"] = (
        counters.get("kernels.chunks.caller", 0) +
        counters.get("kernels.chunks.worker", 0)) / items
    out["numeric.caller_wait_ms"] = histograms.get(
        "kernels.caller_wait_us", {}).get("sum", 0) / 1000.0 / items
    out["numeric.threads"] = raw["kernel_threads"]
    out["numeric.matmul_cutoff_bytes"] = raw["matmul_cutoff_bytes"]

    # tracing overhead: traced against untraced run of the same seed
    out["obs.overhead.latency_p50_frac"] = (
        traced_e2e["latency_p50_ms"] / untraced_e2e["latency_p50_ms"] - 1.0)
    out["obs.overhead.items_per_s_frac"] = (
        1.0 - traced_e2e["items_per_s"] / untraced_e2e["items_per_s"])
    return out
