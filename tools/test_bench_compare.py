#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (throughput guard + metrics
trend) and tools/metrics_report.py (--assert-same determinism gate).

Runs under plain unittest (``python3 tools/test_bench_compare.py``) and
under pytest; CI registers it as a tier-1 ctest so the guard that gates
merges is itself gated.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402
import metrics_report  # noqa: E402


def bench_row(median, workload="alu_loop", variant="isa_sim_block",
              metric="instr_per_sec", better="higher"):
    """One b2stack-bench-v1 row."""
    return {"layer": "riscv", "workload": workload, "variant": variant,
            "metric": metric, "unit": "1/s", "better": better,
            "median": median, "iqr": 0.0, "reps": 5,
            "deterministic": False}


def bench_doc(*rows, bench="sim_throughput"):
    """A b2stack-bench-v1 document holding `rows`."""
    return {"schema": "b2stack-bench-v1", "bench": bench, "quick": False,
            "rows": list(rows), "gates": []}


def sim_bench(ips):
    """A BENCH_sim.json with one higher-is-better block-engine row."""
    return bench_doc(bench_row(ips))


def sim_metrics(trace=1000, cold=50, side_exits=20, link_hits=90,
                link_misses=10, fused=100, schema="b2stack-metrics-v1",
                drop=()):
    counters = {
        "sim.block.trace_instrs": trace,
        "sim.block.cold_instrs": cold,
        "sim.block.side_exits": side_exits,
        "sim.block.link_hits": link_hits,
        "sim.block.link_misses": link_misses,
        "sim.block.fused_retired": fused,
    }
    for name in drop:
        del counters[name]
    return {
        "schema": schema,
        "tool": "sim_throughput",
        "compiled_in": True,
        "deterministic": {"counters": counters, "histograms": {}},
        "nondeterministic": {"counters": {}, "timers_ns": {}},
    }


class CompareHarness(unittest.TestCase):
    """Writes baseline/current trees into a temp dir and runs main()."""

    def setUp(self):
        # CI sets GITHUB_STEP_SUMMARY for every step; keep the tests off it.
        env = mock.patch.dict(os.environ)
        env.start()
        self.addCleanup(env.stop)
        os.environ.pop("GITHUB_STEP_SUMMARY", None)
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.tmp.name, "baseline")
        self.current = os.path.join(self.tmp.name, "current")
        os.mkdir(self.baseline)
        os.mkdir(self.current)

    def tearDown(self):
        self.tmp.cleanup()

    def put(self, where, name, doc):
        with open(os.path.join(where, name), "w") as f:
            json.dump(doc, f)

    def run_compare(self, *extra):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = bench_compare.main(["--baseline", self.baseline,
                                     "--current", self.current, *extra])
        return rc, out.getvalue(), err.getvalue()


class TestThroughputGuard(CompareHarness):
    def test_regression_fails(self):
        self.put(self.baseline, "BENCH_sim.json", sim_bench(100e6))
        self.put(self.current, "BENCH_sim.json", sim_bench(60e6))
        rc, out, err = self.run_compare()
        self.assertEqual(rc, 1)
        self.assertIn("alu_loop/isa_sim_block/instr_per_sec", out)
        self.assertIn("REGRESSION", out)
        self.assertIn("FAILED", err)

    def test_lower_is_better_regression_fails(self):
        # A lower-is-better row regresses when it rises past 1.25x.
        def shrink(seconds):
            return bench_doc(bench_row(seconds, workload="pair",
                                       variant="cold",
                                       metric="shrink_seconds",
                                       better="lower"),
                             bench="shrink_throughput")

        self.put(self.baseline, "BENCH_shrink.json", shrink(1.0))
        self.put(self.current, "BENCH_shrink.json", shrink(1.3))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 1)
        self.assertIn("pair/cold/shrink_seconds", out)
        self.assertIn("REGRESSION", out)
        # The same 30% move is an improvement on a lower-is-better row.
        self.put(self.current, "BENCH_shrink.json", shrink(0.7))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertNotIn("REGRESSION", out)

    def test_small_slowdown_passes(self):
        self.put(self.baseline, "BENCH_sim.json", sim_bench(100e6))
        self.put(self.current, "BENCH_sim.json", sim_bench(90e6))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("OK", out)

    def test_missing_baseline_skips(self):
        self.put(self.current, "BENCH_sim.json", sim_bench(100e6))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("no baseline", out)

    def test_unparseable_baseline_skips(self):
        with open(os.path.join(self.baseline, "BENCH_sim.json"), "w") as f:
            f.write("not json{")
        self.put(self.current, "BENCH_sim.json", sim_bench(100e6))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("skipping", out)

    def test_old_schema_baseline_warns_and_skips(self):
        # A baseline written before b2stack-bench-v1 (per-bench arrays,
        # no schema field) is warned about and skipped with exit 0.
        self.put(self.baseline, "BENCH_sim.json",
                 {"bench": "sim_throughput",
                  "kernels": [{"kernel": "alu_loop",
                               "substrate": "isa_sim_block",
                               "instr_per_sec": 100e6}]})
        self.put(self.current, "BENCH_sim.json", sim_bench(10e6))
        rc, out, err = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("WARNING", err)
        self.assertIn("predates b2stack-bench-v1", err)
        self.assertNotIn("REGRESSION", out)

    def test_non_v1_current_file_skips(self):
        # Other BENCH_*.json files (google-benchmark output) are ignored.
        self.put(self.baseline, "BENCH_verification_perf.json",
                 {"benchmarks": []})
        self.put(self.current, "BENCH_verification_perf.json",
                 {"benchmarks": []})
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("not a b2stack-bench-v1 document", out)

    def test_new_substrate_row_skips(self):
        # A substrate the baseline predates (e.g. pipelined_fast) is
        # reported and skipped, never failed.
        self.put(self.baseline, "BENCH_sim.json", sim_bench(100e6))
        self.put(self.current, "BENCH_sim.json",
                 bench_doc(bench_row(100e6),
                           bench_row(40e6, workload="firmware_e2e",
                                     variant="pipelined_fast")))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("firmware_e2e/pipelined_fast/instr_per_sec: new row",
                      out)

    def test_removed_row_skips(self):
        self.put(self.baseline, "BENCH_sim.json",
                 bench_doc(bench_row(100e6),
                           bench_row(5e6, workload="gone", variant="x")))
        self.put(self.current, "BENCH_sim.json", sim_bench(100e6))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("row gone", out)

    def test_zero_baseline_skips(self):
        # A lower-is-better count whose baseline is 0 has no relative bound.
        def conflicts(n):
            return bench_doc(bench_row(n, workload="firmware/spi_write",
                                       variant="staged",
                                       metric="sat_conflicts",
                                       better="lower"),
                             bench="vc_throughput")

        self.put(self.baseline, "BENCH_vc.json", conflicts(0))
        self.put(self.current, "BENCH_vc.json", conflicts(3))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("no relative bound, skipping", out)
        self.assertNotIn("REGRESSION", out)

    def test_duplicate_row_key_is_an_error(self):
        self.put(self.baseline, "BENCH_sim.json", sim_bench(100e6))
        self.put(self.current, "BENCH_sim.json",
                 bench_doc(bench_row(100e6), bench_row(90e6)))
        rc, out, err = self.run_compare()
        self.assertEqual(rc, 1)
        self.assertIn("duplicate row key", out)
        self.assertIn("FAILED", err)

    def test_step_summary_lists_every_row(self):
        self.put(self.current, "BENCH_sim.json",
                 bench_doc(bench_row(100e6),
                           bench_row(40e6, workload="firmware_e2e",
                                     variant="pipelined_fast")))
        summary = os.path.join(self.tmp.name, "summary.md")
        os.environ["GITHUB_STEP_SUMMARY"] = summary
        rc, _, _ = self.run_compare()
        self.assertEqual(rc, 0)
        with open(summary) as f:
            text = f.read()
        self.assertIn("| bench | workload | variant | metric | median | IQR |",
                      text)
        self.assertIn("| sim_throughput | alu_loop | isa_sim_block |", text)
        self.assertIn("| sim_throughput | firmware_e2e | pipelined_fast |",
                      text)


class TestMetricsTrend(CompareHarness):
    def test_identical_metrics_pass(self):
        self.put(self.baseline, "METRICS_sim.json", sim_metrics())
        self.put(self.current, "METRICS_sim.json", sim_metrics())
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("trace_cache_hit_rate", out)
        self.assertNotIn("DRIFT", out)

    def test_large_drift_fails(self):
        # Hit rate collapses 1000/1050 -> 200/1050: well past 25%.
        self.put(self.baseline, "METRICS_sim.json", sim_metrics())
        self.put(self.current, "METRICS_sim.json",
                 sim_metrics(trace=200, cold=850))
        rc, out, err = self.run_compare()
        self.assertEqual(rc, 1)
        self.assertIn("DRIFT-FAIL", out)
        self.assertIn("FAILED", err)

    def test_moderate_drift_warns_only(self):
        # side_exit_rate 20/1000 -> 23/1000: +15% — warn, not fail.
        self.put(self.baseline, "METRICS_sim.json", sim_metrics())
        self.put(self.current, "METRICS_sim.json",
                 sim_metrics(side_exits=23))
        rc, out, err = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("DRIFT-WARN", out)
        self.assertIn("WARNING", err)

    def test_improvement_drift_is_symmetric(self):
        # Side exits vanishing is also a >25% change — stale baseline.
        self.put(self.baseline, "METRICS_sim.json", sim_metrics())
        self.put(self.current, "METRICS_sim.json",
                 sim_metrics(side_exits=1))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 1)
        self.assertIn("DRIFT-FAIL", out)

    def test_baseline_predating_metric_skips(self):
        # Old baseline without the link counters: link_hit_rate must be
        # warn-and-skip while the other derived metrics still compare.
        self.put(self.baseline, "METRICS_sim.json",
                 sim_metrics(drop=("sim.block.link_hits",
                                   "sim.block.link_misses")))
        self.put(self.current, "METRICS_sim.json", sim_metrics())
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("baseline predates this metric", out)
        self.assertIn("trace_cache_hit_rate", out)

    def test_missing_metrics_file_skips(self):
        self.put(self.current, "METRICS_sim.json", sim_metrics())
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("no metrics baseline", out)

    def test_wrong_schema_skips(self):
        self.put(self.baseline, "METRICS_sim.json",
                 sim_metrics(schema="b2stack-metrics-v999"))
        self.put(self.current, "METRICS_sim.json", sim_metrics())
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 0)
        self.assertIn("unreadable metrics report", out)

    def test_thresholds_are_flags(self):
        # 15% drift fails once --metrics-fail is tightened below it.
        self.put(self.baseline, "METRICS_sim.json", sim_metrics())
        self.put(self.current, "METRICS_sim.json",
                 sim_metrics(side_exits=23))
        rc, _, _ = self.run_compare("--metrics-fail", "0.12")
        self.assertEqual(rc, 1)

    def test_interp_metrics_compare_steps_per_run(self):
        def interp_metrics(steps):
            doc = sim_metrics()
            doc["tool"] = "interp_throughput"
            doc["deterministic"]["counters"] = {
                "interp.compile.functions": 4,
                "interp.compile.insns_in": 200,
                "interp.exec.runs": 10,
                "interp.exec.steps": steps,
            }
            return doc

        self.put(self.baseline, "METRICS_interp.json", interp_metrics(5000))
        self.put(self.current, "METRICS_interp.json", interp_metrics(7000))
        rc, out, _ = self.run_compare()
        self.assertEqual(rc, 1)
        self.assertIn("steps_per_run", out)
        self.assertEqual(
            set(bench_compare._derived_interp(
                {"interp.exec.steps": 1, "interp.exec.runs": 1})),
            {"steps_per_run"})


class TestMetricsReportAssertSame(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def put(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_report(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = metrics_report.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def test_identical_deterministic_passes(self):
        a = self.put("a.json", sim_metrics())
        # Nondeterministic scope may differ freely between runs.
        doc = sim_metrics()
        doc["nondeterministic"]["counters"]["ckpt.bootcache.hits"] = 7
        b = self.put("b.json", doc)
        rc, out, _ = self.run_report(["--assert-same", a, b])
        self.assertEqual(rc, 0)
        self.assertIn("identical", out)

    def test_deterministic_divergence_fails(self):
        a = self.put("a.json", sim_metrics())
        b = self.put("b.json", sim_metrics(trace=999))
        rc, _, err = self.run_report(["--assert-same", a, b])
        self.assertEqual(rc, 1)
        self.assertIn("DETERMINISM VIOLATION", err)
        self.assertIn("sim.block.trace_instrs", err)

    def test_diff_reports_changed_counters(self):
        a = self.put("a.json", sim_metrics())
        b = self.put("b.json", sim_metrics(side_exits=40))
        rc, out, _ = self.run_report(["--diff", a, b])
        self.assertEqual(rc, 0)
        self.assertIn("sim.block.side_exits", out)
        self.assertIn("+100.0%", out)


if __name__ == "__main__":
    unittest.main()
