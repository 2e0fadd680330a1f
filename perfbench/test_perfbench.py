"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402


def span(name, party, ts, dur):
    return {"name": name, "party": party, "ts_us": ts, "dur_us": dur}


class TailPercentileTest(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        for n in (11, 40, 80, 200, 400):
            values = list(range(1, n + 1))
            percent, value = analysis.tail_percentile(values)
            self.assertEqual(sum(1 for v in values if v > value), 10)
            self.assertAlmostEqual(percent, 100.0 * (n - 10) / n)

    def test_p95_needs_two_hundred_samples(self):
        self.assertEqual(analysis.tail_percentile(range(200))[0], 95.0)
        self.assertLess(analysis.tail_percentile(range(199))[0], 95.0)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0] * 8
        self.assertEqual(analysis.tail_percentile(values),
                         analysis.tail_percentile(sorted(values)))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(analysis.tail_percentile([3, 1, 2]), (100.0, 3))
        with self.assertRaises(ValueError):
            analysis.tail_percentile([])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # model > layer > proto > open, plus a second layer, on party 0.
        spans = [
            span("model.forward", 0, 0, 100),
            span("layer.conv.forward", 0, 5, 40),
            span("proto.sec_matmul_bt", 0, 10, 30),
            span("open.commit", 0, 12, 8),
            span("open.exchange", 0, 20, 15),
            span("layer.dense.forward", 0, 50, 45),
            span("open.exchange", 0, 60, 10),
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs["model.forward"], {0: 100 - 40 - 45})
        self.assertEqual(selfs["layer.conv.forward"], {0: 40 - 30})
        self.assertEqual(selfs["proto.sec_matmul_bt"], {0: 30 - 8 - 15})
        self.assertEqual(selfs["open.commit"], {0: 8})
        self.assertEqual(selfs["open.exchange"], {0: 15 + 10})
        self.assertEqual(selfs["layer.dense.forward"], {0: 45 - 10})

    def test_self_times_add_up_to_the_roots(self):
        spans = [
            span("model.forward", 1, 100, 50),
            span("layer.relu.forward", 1, 100, 50),  # same interval
            span("proto.sec_comp_bt", 1, 110, 20),
            span("open.decide", 1, 130, 0),           # zero length, at end
        ]
        selfs = analysis.self_times(spans)
        total = sum(sum(per_party.values()) for per_party in selfs.values())
        self.assertEqual(total, 50)
        self.assertEqual(selfs["model.forward"], {1: 0})
        self.assertEqual(selfs["layer.relu.forward"], {1: 30})

    def test_parties_nest_separately(self):
        # Concurrent parties overlap in time but never nest in each other.
        spans = [
            span("layer.dense.forward", 0, 0, 100),
            span("layer.dense.forward", 1, 10, 100),
            span("open.exchange", 1, 20, 30),
            span("open.exchange", 0, 50, 20),
        ]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs["layer.dense.forward"], {0: 80, 1: 70})
        self.assertEqual(analysis.mean_over_parties(
            selfs["layer.dense.forward"]), 75)

    def test_partyless_spans_stay_in_the_parent(self):
        spans = [
            span("model.backward", 2, 0, 100),
            span("layer.relu.backward", -1, 10, 50),
            span("proto.sec_mul_bt", 2, 20, 30),
        ]
        selfs = analysis.self_times(spans)
        self.assertNotIn("layer.relu.backward", selfs)
        self.assertEqual(selfs["model.backward"], {2: 70})


def synthetic_raw(serving):
    raw = {
        "workload": "serve_burst" if serving else "train_cnn",
        "seed": 1, "calibration_s": 0.1, "setup_s": [0.3, 0.2, 0.4],
        "latency_ms": [float(v) for v in range(1, 41)],
        "good": [1.0] * 40, "timed_s": 2.0, "limit_ms": 100.0, "items": 40,
        "metered_items": 41, "metered_bytes": 41 * 2**20,
        "kernel_threads": 4,
        "matmul_cutoff_bytes": 1 << 22,
        "outcomes": {"ok": 40, "rejected": 0, "deadline": 0, "wrong": 0,
                     "exception": 0},
    }
    if serving:
        raw["submit_us"] = [50.0] * 40
        raw["generator_late_ms"] = [0.0] * 40
        raw["scheduler"] = {"admitted": 41, "completed": 41, "rejected": 0,
                            "deadline_missed": 0, "batches": 6,
                            "batched_rows": 41}
    else:
        raw["net_classes"] = {"s": {"bytes": 10, "messages": 2,
                                    "recv_wait_us": 3000},
                              "zz": {"bytes": 1, "messages": 1,
                                     "recv_wait_us": 0}}
    return raw


EXPORT = {
    "metrics": {"counters": {"net.sent.bytes.rsp": 82,
                             "net.sent.messages.rsp": 41},
                "histograms": {}},
    "cost": {"opening_rounds": 82, "values_opened": 123,
             "commitment_violations": 0, "distance_anomalies": 0,
             "share_auth_failures": 0, "recovered_opens": 0},
}


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as text:
            self.bench = json.load(text)

    def test_benchmark_json_lists_the_printed_metrics(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["end_to_end"]],
            list(analysis.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["per_layer"]],
            list(analysis.PER_LAYER))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(analysis.WORKLOADS))

    def test_printed_names_are_the_declared_ones(self):
        e2e_names = [name for name, _, _ in analysis.END_TO_END]
        layer_names = [name for name, _, _ in analysis.PER_LAYER]
        for serving in (True, False):
            raw = analysis.combine([synthetic_raw(serving)])
            e2e = analysis.end_to_end(raw)
            self.assertEqual(sorted(e2e), sorted(e2e_names))
            layers = analysis.per_layer(raw, EXPORT, [], [], e2e, e2e)
            self.assertEqual(sorted(layers), sorted(layer_names))

    def test_end_to_end_values(self):
        e2e = analysis.end_to_end(analysis.combine([synthetic_raw(True)]))
        self.assertAlmostEqual(e2e["setup_s"], 0.4)
        self.assertEqual(e2e["latency_p50_ms"], 20.5)
        self.assertEqual(e2e["latency_tail_ms"], 30.0)
        self.assertEqual(e2e["items_per_s"], 20.0)
        self.assertEqual(e2e["mb_per_item"], 1.0)
        for value in e2e.values():
            self.assertGreater(value, 0)

    def test_processes_pool(self):
        one = synthetic_raw(True)
        two = synthetic_raw(True)
        two["calibration_s"] = 0.3
        raw = analysis.combine([one, two])
        self.assertEqual(len(raw["latency_ms"]), 80)
        self.assertEqual(raw["outcomes"]["ok"], 80)
        self.assertEqual(raw["scheduler"]["batches"], 12)
        e2e = analysis.end_to_end(raw)
        self.assertAlmostEqual(e2e["setup_s"], 0.5)  # median of 0.4, 0.6
        self.assertEqual(e2e["items_per_s"], 20.0)
        self.assertEqual(e2e["mb_per_item"], 1.0)

    def test_unlisted_tag_classes_count_as_other(self):
        raw = analysis.combine([synthetic_raw(False)])
        e2e = analysis.end_to_end(raw)
        layers = analysis.per_layer(raw, EXPORT, [], [], e2e, e2e)
        self.assertAlmostEqual(layers["net.bytes.other"], 1 / 41)
        self.assertAlmostEqual(layers["net.recv_wait_ms.s"], 3 / 41)


if __name__ == "__main__":
    unittest.main()
