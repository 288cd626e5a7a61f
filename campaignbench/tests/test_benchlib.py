#!/usr/bin/env python3
"""Unit tests for the campaign benchmark's own logic (no build needed).

    python3 campaignbench/tests/test_benchlib.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402

BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def instance(expected=4, complete=4, cells=((1.0, 10),), launch=0, start=0.5e9, end=3.5e9,
             cpu=6.0, rss_kb=2048):
    doc = {
        "first_start_ns": int(start),
        "end_ns": int(end),
        "cells": [{"index": k, "wall_s": w, "samples": n} for k, (w, n) in enumerate(cells)],
    }
    return benchlib.Instance(launch, doc, cpu, rss_kb, expected, complete)


def campaign_doc(samples_per_cell, total=3, reached=False):
    cells = []
    for count in samples_per_cell:
        samples = [{"index": k + 1} for k in range(count)]
        cells.append({"cell": {}, "result": {"samples": samples, "reached_threshold": reached}})
    return {"cells": cells}


class MetricNames(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        for name in benchlib.UNITS:
            self.assertRegex(name, benchlib.METRIC_NAME)

    def test_pattern_rejects_other_characters(self):
        for bad in ("cell s", "wall/s", "", "a:b"):
            self.assertIsNone(benchlib.METRIC_NAME.match(bad))

    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, benchlib.END_TO_END_UNITS)
        self.assertEqual(layer, benchlib.PER_LAYER_UNITS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(benchlib.WORKLOADS))


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_reports_nothing(self):
        self.assertIsNone(benchlib.tail_percentile([]))
        self.assertIsNone(benchlib.tail_percentile(range(1, 100)))

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(benchlib.tail_percentile(range(1, 101)), (90, 10))
        self.assertEqual(benchlib.tail_percentile(range(1, 1001)), (900, 100))

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        self.assertIsNone(benchlib.tail_percentile([1.0] * 500))
        self.assertIsNone(benchlib.tail_percentile([1.0] * 95 + [2.0] * 5))


class Failures(unittest.TestCase):
    def test_fail_frac_counts_missing_cells_against_attempted(self):
        runs = [instance(expected=4, complete=4), instance(expected=4, complete=3)]
        self.assertEqual(benchlib.count_failures(runs), (8, 1))
        self.assertEqual(benchlib.fail_frac(runs), 0.125)

    def test_fail_frac_of_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.fail_frac([])

    def test_complete_cells_skips_short_or_gapped_series(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "campaign.json"
            path.write_text(json.dumps(campaign_doc([3, 2, 3])))
            self.assertEqual(benchlib.complete_cells(path, 3), 2)
            doc = campaign_doc([3])
            doc["cells"][0]["result"]["samples"][1]["index"] = 7
            path.write_text(json.dumps(doc))
            self.assertEqual(benchlib.complete_cells(path, 3), 0)
            path.write_text(json.dumps(campaign_doc([2], reached=True)))
            self.assertEqual(benchlib.complete_cells(path, 3), 1)


class OutputChecks(unittest.TestCase):
    def test_traced_cells_must_cover_the_grid_once(self):
        run = instance(expected=3)
        run.doc["trace"] = {"cells": [{"index": k} for k in (2, 0, 1)]}
        self.assertEqual(benchlib.trace_coverage(run), [])
        run.doc["trace"]["cells"].pop()  # a worker died without writing its trace
        self.assertEqual(len(benchlib.trace_coverage(run)), 1)
        run.doc["trace"]["cells"] += [{"index": 1}, {"index": 1}]  # a cell traced twice
        self.assertEqual(len(benchlib.trace_coverage(run)), 1)

    def test_corrupted_copy_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
            a.write_text('{"best": 1.25}\n')
            b.write_text('{"best": 1.25}\n')
            self.assertEqual(benchlib.same_document(a, b, "x"), [])
            b.write_text('{"best": 1.26}\n')
            self.assertEqual(len(benchlib.same_document(a, b, "x")), 1)
            b.unlink()
            self.assertIn("missing", benchlib.same_document(a, b, "x")[0])


class EndToEnd(unittest.TestCase):
    def test_medians_over_instances(self):
        runs = [instance(cells=((1.0, 30), (2.0, 30))),
                instance(cells=((3.0, 30), (4.0, 30)), end=4.5e9),
                instance(cells=((5.0, 30), (6.0, 30)), end=5.5e9)]
        m = benchlib.end_to_end(runs)
        self.assertEqual(m["setup_s"], 0.5)
        self.assertEqual(m["wall_s"], 4.5)
        self.assertEqual(m["samples_per_s"], 60 / 4.0)
        # Per-cell medians are 3.0 (cell 0) and 4.0 (cell 1).
        self.assertEqual(m["cell_s_p50"], 3.5)
        self.assertEqual(m["cpu_s_per_sample"], 0.1)
        self.assertEqual(m["peak_rss_mb"], 2.0)


class Workloads(unittest.TestCase):
    def test_spec_is_a_function_of_the_seed(self):
        w = benchlib.WORKLOADS["loop_genetic"]
        self.assertEqual(benchlib.spec_yaml(w, 3), benchlib.spec_yaml(w, 3))
        self.assertNotEqual(benchlib.spec_yaml(w, 3), benchlib.spec_yaml(w, 4))
        for seed in (0, 1, 2**40):
            self.assertGreater(benchlib.base_seed(seed), 0)

    def test_cell_counts(self):
        self.assertEqual(benchlib.WORKLOADS["loop_genetic"].cells, 4)
        self.assertEqual(benchlib.WORKLOADS["loop_bayes"].cells, 4)
        self.assertEqual(benchlib.WORKLOADS["fleet_gen"].cells, 24)


if __name__ == "__main__":
    unittest.main()
