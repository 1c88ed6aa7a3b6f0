#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py (run via ctest or directly)."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(TOOLS_DIR)
sys.path.insert(0, TOOLS_DIR)
import bench_diff  # noqa: E402


def workload(name, events=1000, eps=50000.0, allocs_per_event=None,
             metadata_wire_bytes=None, total_wire_bytes=None,
             peak_rss_kb=10000):
    w = {
        "name": name,
        "executed_events": events,
        "wall_s": events / eps,
        "events_per_sec": eps,
        "throughput_ops": 1234.0,
    }
    if peak_rss_kb is not None:
        w["peak_rss_kb"] = peak_rss_kb
    if allocs_per_event is not None:
        w["allocs"] = int(events * allocs_per_event)
        w["alloc_bytes"] = w["allocs"] * 64
        w["allocs_per_event"] = allocs_per_event
    if metadata_wire_bytes is not None:
        w["metadata_wire_bytes"] = metadata_wire_bytes
    if total_wire_bytes is not None:
        w["total_wire_bytes"] = total_wire_bytes
    return w


def suite(runs=12, jobs=4, serial=8.0, parallel=2.5, fingerprints=True):
    return {
        "runs": runs,
        "jobs": jobs,
        "hardware_concurrency": jobs,
        "serial_wall_s": serial,
        "parallel_wall_s": parallel,
        "speedup": serial / parallel,
        "total_events": 5000000,
        "fingerprints_identical": fingerprints,
        "peak_rss_kb": 20000,
    }


def trace(overhead_pct=5.0, fingerprints=True):
    return {
        "workload": "fig5_full",
        "executed_events": 400000,
        "events_off_per_sec": 2500000,
        "events_on_per_sec": 2500000 / (1 + overhead_pct / 100.0),
        "overhead_pct": overhead_pct,
        "trace_events_recorded": 700000,
        "fingerprints_identical": fingerprints,
    }


def attribution(overhead_pct=3.0, fingerprints=True):
    return {
        "workload": "fig5_full",
        "executed_events": 400000,
        "events_off_per_sec": 2500000,
        "events_on_per_sec": 2500000 / (1 + overhead_pct / 100.0),
        "overhead_pct": overhead_pct,
        "attribution_samples": 4000,
        "fingerprints_identical": fingerprints,
    }


def realtime(speedup=1.1, enforced=True):
    return {
        "hardware_concurrency": 4,
        "speedup_4x": speedup,
        "gate_enforced": enforced,
        "gate_reason": "enforced",
        "legs": [{"workers": 1, "ops_per_sec": 300000.0},
                 {"workers": 4, "ops_per_sec": 300000.0 * speedup}],
    }


def gate_failure(name, kind, value, op, bound):
    return {"name": name, "kind": kind, "value": value, "op": op,
            "bound": bound}


def doc(workloads, smoke=False, suite_section=None, trace_section=None,
        attribution_section=None, realtime_section=None, gate_failures=None):
    d = {"harness": "perf_sim", "version": 1, "smoke": smoke,
         "repeat": 1, "workloads": workloads}
    if gate_failures is not None:
        d["gate_failures"] = gate_failures
    if realtime_section is not None:
        d["realtime_scaling"] = realtime_section
    if suite_section is not None:
        d["suite_wall_clock"] = suite_section
    if trace_section is not None:
        d["trace_overhead"] = trace_section
    if attribution_section is not None:
        d["attribution_overhead"] = attribution_section
    return d


class BenchDiffTest(unittest.TestCase):
    def run_diff(self, *argv):
        """Runs bench_diff.main with temp files; returns (exit_code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_diff.main(["bench_diff.py"] + list(argv))
        return code, out.getvalue()

    def write(self, document):
        f = tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, f.name)
        json.dump(document, f)
        f.close()
        return f.name

    def test_identical_files_pass(self):
        path = self.write(doc([workload("fig5_full")], suite_section=suite()))
        code, out = self.run_diff(path, path)
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_events_per_sec_regression_fails(self):
        base = self.write(doc([workload("fig5_full", eps=50000.0)]))
        cand = self.write(doc([workload("fig5_full", eps=40000.0)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_fingerprint_mismatch_fails_at_same_scale(self):
        base = self.write(doc([workload("fig5_full", events=1000)]))
        cand = self.write(doc([workload("fig5_full", events=1001)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("MISMATCH", out)

    def test_fingerprint_skipped_across_scales(self):
        base = self.write(doc([workload("fig5_full", events=1000)], smoke=True))
        cand = self.write(doc([workload("fig5_full", events=2000)], smoke=False))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("skipped (different scale)", out)

    def test_suite_wallclock_regression_gates_by_default(self):
        base = self.write(doc([workload("fig5_full")],
                              suite_section=suite(parallel=2.0)))
        cand = self.write(doc([workload("fig5_full")],
                              suite_section=suite(parallel=4.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("parallel wall-clock", out)
        self.assertIn("REGRESSION", out)

    def test_ignore_wallclock_demotes_suite_slowdown(self):
        base = self.write(doc([workload("fig5_full")],
                              suite_section=suite(parallel=2.0)))
        cand = self.write(doc([workload("fig5_full")],
                              suite_section=suite(parallel=4.0)))
        code, out = self.run_diff(base, cand, "--ignore-wallclock")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --ignore-wallclock", out)

    def test_suite_fingerprint_failure_gates_despite_flag(self):
        base = self.write(doc([workload("fig5_full")], suite_section=suite()))
        cand = self.write(doc([workload("fig5_full")],
                              suite_section=suite(fingerprints=False)))
        code, out = self.run_diff(base, cand, "--ignore-wallclock")
        self.assertEqual(code, 1)
        self.assertIn("DIFFER", out)

    def test_suite_run_count_change_skips_wallclock(self):
        base = self.write(doc([workload("fig5_full")],
                              suite_section=suite(runs=12, parallel=2.0)))
        cand = self.write(doc([workload("fig5_full")],
                              suite_section=suite(runs=4, parallel=9.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("wall-clock comparison skipped", out)

    def test_missing_suite_sections_are_fine(self):
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full")], suite_section=suite()))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)

    def test_self_mode_compares_suite_against_baseline_block(self):
        d = doc([workload("fig5_full")], suite_section=suite(parallel=5.0))
        d["baseline"] = {"smoke": False,
                        "workloads": [workload("fig5_full")],
                        "suite_wall_clock": suite(parallel=2.0)}
        path = self.write(d)
        code, out = self.run_diff(path)
        self.assertEqual(code, 1)
        self.assertIn("parallel wall-clock", out)
        code, _ = self.run_diff(path, "--ignore-wallclock")
        self.assertEqual(code, 0)

    def test_alloc_regression_fails(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.01)]))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.02)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("ALLOC REGRESSION", out)

    def test_alloc_within_slack_passes(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.100)]))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.105)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("allocs/ev", out)

    def test_alloc_improvement_passes(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=1.25)]))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.07)]))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)

    def test_ignore_allocs_demotes_alloc_regression(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.01)]))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.02)]))
        code, out = self.run_diff(base, cand, "--ignore-allocs")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --ignore-allocs", out)

    def test_alloc_check_skipped_when_baseline_has_no_counts(self):
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=5.0)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertNotIn("ALLOC REGRESSION", out)

    def test_alloc_check_skipped_across_scales(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.01)],
                              smoke=True))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.5)],
                              smoke=False))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("allocs skipped (different scale)", out)

    def test_zero_alloc_baseline_tolerates_epsilon_only(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.0)]))
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.0001)]))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        cand = self.write(doc([workload("fig5_full", allocs_per_event=0.01)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("ALLOC REGRESSION", out)

    def test_no_timing_keeps_deterministic_gates_only(self):
        # events/sec halved: ignored. Fingerprint + allocs still gate.
        base = self.write(doc([workload("fig5_full", eps=50000.0,
                                        allocs_per_event=0.01)],
                              suite_section=suite(parallel=2.0)))
        cand = self.write(doc([workload("fig5_full", eps=25000.0,
                                        allocs_per_event=0.01)],
                              suite_section=suite(parallel=9.0)))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --no-timing", out)

        bad_fp = self.write(doc([workload("fig5_full", events=1001,
                                          allocs_per_event=0.01)]))
        code, _ = self.run_diff(base, bad_fp, "--no-timing")
        self.assertEqual(code, 1)

        bad_alloc = self.write(doc([workload("fig5_full",
                                             allocs_per_event=0.9)]))
        code, out = self.run_diff(base, bad_alloc, "--no-timing")
        self.assertEqual(code, 1)
        self.assertIn("ALLOC REGRESSION", out)

    def test_wire_bytes_regression_fails(self):
        base = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1000000)]))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1200000)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("WIRE REGRESSION", out)

    def test_total_wire_bytes_regression_fails(self):
        base = self.write(doc([workload("fig5_full", total_wire_bytes=5000000)]))
        cand = self.write(doc([workload("fig5_full", total_wire_bytes=6000000)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("WIRE REGRESSION", out)

    def test_wire_bytes_within_slack_passes(self):
        base = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1000000,
                                        total_wire_bytes=5000000)]))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1050000,
                                        total_wire_bytes=5200000)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("meta wire", out)
        self.assertIn("total wire", out)

    def test_wire_bytes_improvement_passes(self):
        base = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=5332256)]))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1779928)]))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)

    def test_ignore_wire_bytes_demotes_regression(self):
        base = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1000000)]))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=2000000)]))
        code, out = self.run_diff(base, cand, "--ignore-wire-bytes")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --ignore-wire-bytes", out)

    def test_wire_bytes_skipped_when_baseline_has_no_counts(self):
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=9999999,
                                        total_wire_bytes=9999999)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertNotIn("WIRE REGRESSION", out)

    def test_wire_bytes_skipped_across_scales(self):
        base = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1000)],
                              smoke=True))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=9000000)],
                              smoke=False))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("wire bytes skipped (different scale)", out)

    def test_wire_bytes_gate_survives_no_timing(self):
        # Wire volume is deterministic, so --no-timing must not demote it.
        base = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=1000000)]))
        cand = self.write(doc([workload("fig5_full",
                                        metadata_wire_bytes=2000000)]))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 1)
        self.assertIn("WIRE REGRESSION", out)

    def test_rss_regression_fails(self):
        base = self.write(doc([workload("mmusers", peak_rss_kb=96000)]))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=120000)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("RSS REGRESSION", out)

    def test_rss_within_slack_passes(self):
        base = self.write(doc([workload("mmusers", peak_rss_kb=96000)]))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=100000)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("rss 96000 -> 100000 kB", out)

    def test_rss_improvement_passes(self):
        base = self.write(doc([workload("mmusers", peak_rss_kb=96000)]))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=48000)]))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)

    def test_ignore_rss_demotes_regression(self):
        base = self.write(doc([workload("mmusers", peak_rss_kb=96000)]))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=200000)]))
        code, out = self.run_diff(base, cand, "--ignore-rss")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --ignore-rss", out)

    def test_rss_skipped_when_baseline_has_no_counts(self):
        base = self.write(doc([workload("mmusers", peak_rss_kb=None)]))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=999999)]))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertNotIn("RSS REGRESSION", out)

    def test_rss_skipped_across_scales(self):
        base = self.write(doc([workload("mmusers", peak_rss_kb=43000)],
                              smoke=True))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=96000)],
                              smoke=False))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("rss skipped (different scale)", out)

    def test_rss_gate_survives_no_timing(self):
        # Peak RSS follows the deterministic allocation sequence, so
        # --no-timing must not demote it.
        base = self.write(doc([workload("mmusers", peak_rss_kb=96000)]))
        cand = self.write(doc([workload("mmusers", peak_rss_kb=150000)]))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 1)
        self.assertIn("RSS REGRESSION", out)

    def test_trace_overhead_regression_gates_by_default(self):
        base = self.write(doc([workload("fig5_full")],
                              trace_section=trace(overhead_pct=4.0)))
        cand = self.write(doc([workload("fig5_full")],
                              trace_section=trace(overhead_pct=25.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("tracing on vs off", out)
        self.assertIn("REGRESSION", out)

    def test_trace_overhead_within_slack_passes(self):
        base = self.write(doc([workload("fig5_full")],
                              trace_section=trace(overhead_pct=4.0)))
        cand = self.write(doc([workload("fig5_full")],
                              trace_section=trace(overhead_pct=9.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("tracing on vs off", out)

    def test_trace_overhead_obeys_no_timing(self):
        base = self.write(doc([workload("fig5_full")],
                              trace_section=trace(overhead_pct=4.0)))
        cand = self.write(doc([workload("fig5_full")],
                              trace_section=trace(overhead_pct=25.0)))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --no-timing", out)

    def test_trace_fingerprint_failure_always_gates(self):
        # Even with every timing gate off and no baseline section, a candidate
        # whose traced run diverged from its untraced run fails the diff.
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full")],
                              trace_section=trace(fingerprints=False)))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 1)
        self.assertIn("DIFFER", out)

    def test_trace_overhead_skipped_across_scales(self):
        base = self.write(doc([workload("fig5_full")], smoke=True,
                              trace_section=trace(overhead_pct=4.0)))
        cand = self.write(doc([workload("fig5_full")], smoke=False,
                              trace_section=trace(overhead_pct=25.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("overhead skipped (different scale)", out)

    def test_missing_trace_sections_are_fine(self):
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full")],
                              trace_section=trace()))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)

    def test_attribution_overhead_regression_gates_by_default(self):
        base = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(overhead_pct=3.0)))
        cand = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(overhead_pct=20.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("profiler on vs off", out)
        self.assertIn("REGRESSION", out)

    def test_attribution_overhead_within_slack_passes(self):
        base = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(overhead_pct=3.0)))
        cand = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(overhead_pct=9.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("profiler on vs off", out)

    def test_attribution_overhead_obeys_no_timing(self):
        base = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(overhead_pct=3.0)))
        cand = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(overhead_pct=20.0)))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 0)
        self.assertIn("ignored by --no-timing", out)

    def test_attribution_fingerprint_failure_always_gates(self):
        # A candidate whose profiled run diverged from its bare run fails the
        # diff even with --no-timing and no baseline section.
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution(
                                  fingerprints=False)))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 1)
        self.assertIn("DIFFER", out)

    def test_attribution_overhead_skipped_across_scales(self):
        base = self.write(doc([workload("fig5_full")], smoke=True,
                              attribution_section=attribution(overhead_pct=3.0)))
        cand = self.write(doc([workload("fig5_full")], smoke=False,
                              attribution_section=attribution(overhead_pct=20.0)))
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("overhead skipped (different scale)", out)

    def test_missing_attribution_sections_are_fine(self):
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full")],
                              attribution_section=attribution()))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)

    def test_timing_gate_failure_alone_passes_no_timing(self):
        # A run whose only failed gate is the realtime speedup floor, with
        # fingerprints and allocations in budget: the deterministic check
        # passes, and the timing failure still shows.
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.01)]))
        cand = self.write(doc(
            [workload("fig5_full", allocs_per_event=0.01)],
            realtime_section=realtime(speedup=1.12),
            gate_failures=[gate_failure("realtime_speedup_4x", "timing",
                                        1.12, ">=", 1.8)]))
        code, out = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 0)
        self.assertIn("realtime_speedup_4x", out)
        self.assertIn("ignored by --no-timing", out)
        code, out = self.run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("GATE FAILURE", out)

    def test_deterministic_gate_failure_always_gates(self):
        base = self.write(doc([workload("fig5_full", allocs_per_event=0.01)]))
        for name, op, value, bound in (
                ("trace_fingerprint", "==", 400001, 400000),
                ("batch_metadata_wire_ratio", ">=", 1.1, 1.3),
                ("attribution_samples", ">=", 0, 1)):
            cand = self.write(doc(
                [workload("fig5_full", allocs_per_event=0.01)],
                gate_failures=[gate_failure(name, "deterministic", value, op,
                                            bound)]))
            for flags in ((), ("--no-timing",)):
                code, out = self.run_diff(base, cand, *flags)
                self.assertEqual(code, 1, (name, flags))
                self.assertIn(name, out)
                self.assertIn("GATE FAILURE", out)

    def test_gate_failure_of_unknown_kind_gates(self):
        base = self.write(doc([workload("fig5_full")]))
        cand = self.write(doc([workload("fig5_full")], gate_failures=[
            gate_failure("new_gate", "future", 1, "<=", 0)]))
        code, _ = self.run_diff(base, cand, "--no-timing")
        self.assertEqual(code, 1)

    def test_gate_failures_gate_in_self_mode(self):
        d = doc([workload("fig5_full")], gate_failures=[
            gate_failure("suite_fingerprints_differing_runs", "deterministic",
                         2, "==", 0)])
        d["baseline"] = {"smoke": False, "workloads": [workload("fig5_full")]}
        code, out = self.run_diff(self.write(d), "--no-timing")
        self.assertEqual(code, 1)
        self.assertIn("GATE FAILURE", out)

    def test_records_without_gate_failures_compare_as_before(self):
        # A record with no failed gate reads the same as one written before
        # the key existed.
        base = self.write(doc([workload("fig5_full")]))
        empty = self.write(doc([workload("fig5_full")], gate_failures=[]))
        absent = self.write(doc([workload("fig5_full")]))
        self.assertEqual(self.run_diff(base, empty), self.run_diff(base, absent))
        # The committed baselines predate the key and still pass against
        # themselves.
        smoke = os.path.join(REPO_DIR, "bench", "BENCH_smoke_baseline.json")
        code, out = self.run_diff(smoke, smoke, "--no-timing")
        self.assertEqual(code, 0)
        self.assertNotIn("GATE FAILURE", out)
        code, out = self.run_diff(os.path.join(REPO_DIR, "BENCH_sim.json"),
                                  "--no-timing")
        self.assertEqual(code, 0)
        self.assertNotIn("GATE FAILURE", out)

    def test_threshold_tolerates_small_wallclock_noise(self):
        base = self.write(doc([workload("fig5_full")],
                              suite_section=suite(parallel=2.0)))
        cand = self.write(doc([workload("fig5_full")],
                              suite_section=suite(parallel=2.06)))
        code, _ = self.run_diff(base, cand)
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
