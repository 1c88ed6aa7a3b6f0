#!/usr/bin/env python3
"""Compare two perf_sim BENCH_sim.json files and flag regressions.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
                        [--ignore-wallclock] [--ignore-allocs]
                        [--ignore-wire-bytes] [--ignore-rss] [--no-timing]
    tools/bench_diff.py BENCH_sim.json                 # self mode

Two-file mode compares per-workload events/sec (and throughput) of CANDIDATE
against BASELINE. Self mode reads a single committed BENCH_sim.json that
carries a "baseline" block (the pre-change numbers recorded when the file was
committed) and compares the current "workloads" block against it.

When both files carry a "suite_wall_clock" section (the parallel-sweep
measurement), the suite's parallel wall-clock is compared too. Wall-clock is
machine-sensitive, so --ignore-wallclock demotes a suite slowdown to
informational; the suite's serial-vs-parallel fingerprint check is a
*determinism* property, never a timing one, so it gates regardless of the
flag.

Allocation counts (allocs_per_event) gate like fingerprints: the simulator is
deterministic, so at the same scale a >10% allocs/event increase over the
baseline is a real regression on the message plane, not noise. --ignore-allocs
demotes it to informational (the escape hatch for a change that knowingly
trades allocations for something else). Baselines recorded before allocation
counting simply skip the check.

Wire volume (metadata_wire_bytes, total_wire_bytes) gates the same way: the
network's byte counters are deterministic, so at the same scale a >10% growth
over the baseline means the message plane fattened — an envelope grew, a batch
stopped coalescing, or the label codec stopped compressing.
--ignore-wire-bytes demotes it to informational (for a change that knowingly
spends wire bytes, e.g. a new protocol field). Baselines recorded before wire
accounting simply skip the check.

Peak RSS (peak_rss_kb) gates the same way: the allocation sequence is
deterministic, so at the same scale a >10% growth in a workload's recorded
high-water mark means something durably fattened — a table stopped being
pre-sized, the streaming graph materialized, the session slab grew. The
workloads run in a pinned order and RSS is process-monotone, so each row is
"the high-water mark as of this workload"; the mmusers row runs last and is
the million-user engine's bounded-memory gate. --ignore-rss demotes RSS
growth to informational (the escape hatch for a change that knowingly spends
resident memory, e.g. a bigger deliberate pre-size). Baselines recorded
before RSS tracking simply skip the check.

When both files carry a "trace_overhead" section (fig5_full run untraced and
traced at the same scale), the tracing cost is compared too. The candidate's
on-vs-off fingerprint flag always gates — the trace recorder must only
observe — while the overhead delta is a timing quantity and obeys
--no-timing.

When both files carry an "attribution_overhead" section (fig5_full run with
and without the visibility-attribution profiler at the same scale), the
profiler's cost is compared the same way as the trace recorder's: the
candidate's on-vs-off fingerprint flag always gates — attribution must only
observe — while the overhead delta is a timing quantity and obeys
--no-timing.

When both files carry a "realtime_scaling" section (the wall-clock backend's
ops/sec at 1/2/4 workers), the 4-worker speedup is compared too. Realtime
runs are inherently non-reproducible, so the whole section is a timing
quantity: the absolute >= 1.8x floor is enforced by perf_sim itself when the
machine has enough hardware threads, and this script only flags a speedup
collapse relative to the baseline (obeying --no-timing).

perf_sim writes its record even when one of its own gates failed, and lists
each failure under "gate_failures" with its name, measured value, bound and
kind. A "deterministic" failure (fingerprint identity, batching ratios,
attribution samples) always fails the diff, --no-timing or not; a "timing"
failure (the realtime speedup floor) is printed and obeys --no-timing.
Records without the key (written before perf_sim kept failed runs) passed all
their gates.

--no-timing disables the timing gates (events/sec, suite wall-clock, trace
overhead, realtime speedup, timing gate failures) and keeps only the
deterministic ones — fingerprints and allocations. This is the mode the ctest
allocation-budget check runs in, where machine load must not flake the suite.

Exit status: 0 = no regression, 1 = events/sec regression beyond the
threshold (default 5%), a determinism-fingerprint mismatch, an allocs/event
regression beyond 10% (without --ignore-allocs), a peak-RSS growth beyond
10% (without --ignore-rss), a failed gate recorded by the candidate's own
run, or (without --ignore-wallclock) a suite wall-clock regression; 2 = usage
or parse error.
Fingerprints and allocation rates are only required to match when both runs
were made at the same scale (smoke vs full).
"""

import json
import sys

# Allocations are deterministic, so the slack only needs to absorb a genuinely
# different split of the same work (e.g. one extra rehash), not timing noise.
ALLOC_THRESHOLD_PCT = 10.0

# Wire bytes are deterministic too: the slack absorbs legitimate re-framing of
# the same traffic, not noise.
WIRE_BYTES_THRESHOLD_PCT = 10.0

# Tracing overhead is wall-clock based, so the gate is a generous absolute
# delta in percentage points over the baseline's overhead. The attribution
# profiler shares the contract and the budget.
TRACE_OVERHEAD_THRESHOLD_PCT = 10.0
ATTRIBUTION_OVERHEAD_THRESHOLD_PCT = 10.0

# Peak RSS follows the deterministic allocation sequence; the slack absorbs
# allocator/kernel page-accounting jitter, not a genuinely bigger live set.
RSS_THRESHOLD_PCT = 10.0


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def by_name(workloads):
    return {w["name"]: w for w in workloads}


def compare_allocs(base, cand, same_scale, ignore_allocs):
    """Allocation-rate column for one workload; returns (text, regressed)."""
    b_alloc = base.get("allocs_per_event")
    c_alloc = cand.get("allocs_per_event")
    if b_alloc is None or c_alloc is None:
        return "", False  # baseline predates allocation counting
    if not same_scale:
        return "  allocs skipped (different scale)", False
    b_alloc = float(b_alloc)
    c_alloc = float(c_alloc)
    text = f"  allocs/ev {b_alloc:.4f} -> {c_alloc:.4f}"
    # Small absolute epsilon so a zero-allocation baseline tolerates counter
    # jitter-free but formula-rounded values.
    if c_alloc > b_alloc * (1.0 + ALLOC_THRESHOLD_PCT / 100.0) + 1e-4:
        if ignore_allocs:
            return text + " (worse, ignored by --ignore-allocs)", False
        return text + " << ALLOC REGRESSION", True
    return text, False


def compare_wire_bytes(base, cand, same_scale, ignore_wire_bytes):
    """Wire-volume column for one workload; returns (text, regressed)."""
    texts = []
    regressed = False
    for key, label in (("metadata_wire_bytes", "meta wire"),
                       ("total_wire_bytes", "total wire")):
        b = base.get(key)
        c = cand.get(key)
        if b is None or c is None:
            continue  # baseline predates wire accounting
        if not same_scale:
            return "  wire bytes skipped (different scale)", False
        b = int(b)
        c = int(c)
        text = f"  {label} {b} -> {c}"
        if c > b * (1.0 + WIRE_BYTES_THRESHOLD_PCT / 100.0):
            if ignore_wire_bytes:
                text += " (worse, ignored by --ignore-wire-bytes)"
            else:
                text += " << WIRE REGRESSION"
                regressed = True
        texts.append(text)
    return "".join(texts), regressed


def compare_rss(base, cand, same_scale, ignore_rss):
    """Peak-RSS column for one workload; returns (text, regressed)."""
    b_rss = base.get("peak_rss_kb")
    c_rss = cand.get("peak_rss_kb")
    if b_rss is None or c_rss is None:
        return "", False  # baseline predates RSS tracking
    if not same_scale:
        return "  rss skipped (different scale)", False
    b_rss = int(b_rss)
    c_rss = int(c_rss)
    text = f"  rss {b_rss} -> {c_rss} kB"
    if b_rss > 0 and c_rss > b_rss * (1.0 + RSS_THRESHOLD_PCT / 100.0):
        if ignore_rss:
            return text + " (worse, ignored by --ignore-rss)", False
        return text + " << RSS REGRESSION", True
    return text, False


def compare(base, cand, threshold_pct, same_scale, ignore_allocs, no_timing,
            ignore_wire_bytes=False, ignore_rss=False):
    base_by = by_name(base)
    cand_by = by_name(cand)
    regressed = False
    print(f"{'workload':<12} {'base ev/s':>14} {'cand ev/s':>14} {'delta':>9}  fingerprint")
    for name, b in base_by.items():
        c = cand_by.get(name)
        if c is None:
            print(f"{name:<12} {'':>14} {'':>14} {'MISSING':>9}")
            regressed = True
            continue
        b_eps = float(b["events_per_sec"])
        c_eps = float(c["events_per_sec"])
        delta = (c_eps - b_eps) / b_eps * 100.0 if b_eps > 0 else 0.0
        if same_scale:
            same = int(b["executed_events"]) == int(c["executed_events"])
            fp = "ok" if same else (
                f"MISMATCH ({b['executed_events']} -> {c['executed_events']})")
            if not same:
                regressed = True
        else:
            fp = "skipped (different scale)"
        flag = ""
        if delta < -threshold_pct:
            if no_timing:
                flag = "  (slower, ignored by --no-timing)"
            else:
                flag = "  << REGRESSION"
                regressed = True
        alloc_text, alloc_regressed = compare_allocs(b, c, same_scale, ignore_allocs)
        regressed |= alloc_regressed
        wire_text, wire_regressed = compare_wire_bytes(b, c, same_scale,
                                                       ignore_wire_bytes)
        regressed |= wire_regressed
        rss_text, rss_regressed = compare_rss(b, c, same_scale, ignore_rss)
        regressed |= rss_regressed
        print(f"{name:<12} {b_eps:>14.0f} {c_eps:>14.0f} {delta:>+8.1f}%  {fp}{flag}"
              f"{alloc_text}{wire_text}{rss_text}")
    for name in cand_by:
        if name not in base_by:
            print(f"{name:<12} (new workload, no baseline)")
    return regressed


def compare_suite(base_suite, cand_suite, threshold_pct, ignore_wallclock):
    """Compare suite_wall_clock sections; returns True on a gating regression.

    The candidate's serial-vs-parallel fingerprint flag always gates: a false
    there means a run's behaviour depended on its neighbours. The wall-clock
    delta gates only without --ignore-wallclock, and only when both sides ran
    the same number of suite runs.
    """
    regressed = False
    if cand_suite and not cand_suite.get("fingerprints_identical", True):
        print("suite: candidate fingerprints DIFFER between serial and parallel "
              "legs (shared state across runs?)")
        regressed = True
    if not base_suite or not cand_suite:
        return regressed
    if base_suite.get("runs") != cand_suite.get("runs"):
        print("suite: run counts differ; wall-clock comparison skipped")
        return regressed
    b_wall = float(base_suite.get("parallel_wall_s", 0))
    c_wall = float(cand_suite.get("parallel_wall_s", 0))
    delta = (c_wall - b_wall) / b_wall * 100.0 if b_wall > 0 else 0.0
    flag = ""
    if delta > threshold_pct:
        if ignore_wallclock:
            flag = "  (slower, ignored by --ignore-wallclock)"
        else:
            flag = "  << REGRESSION"
            regressed = True
    print(f"{'suite':<12} {b_wall:>13.3f}s {c_wall:>13.3f}s {delta:>+8.1f}%  "
          f"parallel wall-clock (jobs {base_suite.get('jobs', '?')} -> "
          f"{cand_suite.get('jobs', '?')}){flag}")
    return regressed


def compare_trace(base_trace, cand_trace, same_scale, no_timing):
    """Compare trace_overhead sections; returns True on a gating regression.

    The candidate's traced-vs-untraced fingerprint flag always gates: a false
    means attaching the trace recorder changed simulation behaviour. The
    overhead delta is a timing quantity: it gates only without --no-timing,
    and only at the same scale.
    """
    regressed = False
    if cand_trace and not cand_trace.get("fingerprints_identical", True):
        print("trace: candidate fingerprints DIFFER between traced and untraced "
              "runs (the recorder perturbed the simulation?)")
        regressed = True
    if not base_trace or not cand_trace:
        return regressed
    if not same_scale:
        print(f"{'trace':<12} overhead skipped (different scale)")
        return regressed
    b_pct = float(base_trace.get("overhead_pct", 0))
    c_pct = float(cand_trace.get("overhead_pct", 0))
    flag = ""
    if c_pct > b_pct + TRACE_OVERHEAD_THRESHOLD_PCT:
        if no_timing:
            flag = "  (worse, ignored by --no-timing)"
        else:
            flag = "  << REGRESSION"
            regressed = True
    print(f"{'trace':<12} overhead {b_pct:+.2f}% -> {c_pct:+.2f}% "
          f"(tracing on vs off){flag}")
    return regressed


def compare_attribution(base_attr, cand_attr, same_scale, no_timing):
    """Compare attribution_overhead sections; returns True on a regression.

    The candidate's on-vs-off fingerprint flag always gates: a false means
    attaching the attribution profiler changed simulation behaviour. The
    overhead delta is a timing quantity: it gates only without --no-timing,
    and only at the same scale. Baselines recorded before the profiler simply
    skip the delta check.
    """
    regressed = False
    if cand_attr and not cand_attr.get("fingerprints_identical", True):
        print("attribution: candidate fingerprints DIFFER between profiled and "
              "bare runs (the profiler perturbed the simulation?)")
        regressed = True
    if not base_attr or not cand_attr:
        return regressed
    if not same_scale:
        print(f"{'attribution':<12} overhead skipped (different scale)")
        return regressed
    b_pct = float(base_attr.get("overhead_pct", 0))
    c_pct = float(cand_attr.get("overhead_pct", 0))
    flag = ""
    if c_pct > b_pct + ATTRIBUTION_OVERHEAD_THRESHOLD_PCT:
        if no_timing:
            flag = "  (worse, ignored by --no-timing)"
        else:
            flag = "  << REGRESSION"
            regressed = True
    print(f"{'attribution':<12} overhead {b_pct:+.2f}% -> {c_pct:+.2f}% "
          f"(profiler on vs off){flag}")
    return regressed


def compare_realtime(base_rt, cand_rt, threshold_pct, no_timing):
    """Compare realtime_scaling sections; returns True on a gating regression.

    Realtime runs are not reproducible, so everything here is a timing
    quantity and obeys --no-timing. The candidate's own >= 1.8x gate is
    enforced by perf_sim at run time (and only on machines with enough
    hardware threads); here we additionally catch a speedup that collapsed
    relative to the baseline even while staying above the absolute floor.
    Baselines recorded before the realtime backend simply skip the check.
    """
    if not cand_rt:
        return False
    legs = cand_rt.get("legs", [])
    leg_text = ", ".join(
        f"{leg.get('workers')}w {float(leg.get('ops_per_sec', 0)):.0f} ops/s"
        for leg in legs)
    c_speedup = float(cand_rt.get("speedup_4x", 0))
    print(f"{'realtime':<12} {leg_text}  speedup(4w) {c_speedup:.2f}x "
          f"[{cand_rt.get('gate_reason', '?')}]")
    if not cand_rt.get("gate_enforced", False):
        return False  # too few hardware threads: nothing to gate against
    if not base_rt or not base_rt.get("gate_enforced", False):
        return False  # no comparable baseline measurement
    b_speedup = float(base_rt.get("speedup_4x", 0))
    if b_speedup <= 0:
        return False
    delta = (c_speedup - b_speedup) / b_speedup * 100.0
    if delta < -threshold_pct:
        if no_timing:
            print(f"{'realtime':<12} speedup {b_speedup:.2f}x -> {c_speedup:.2f}x "
                  f"(worse, ignored by --no-timing)")
            return False
        print(f"{'realtime':<12} speedup {b_speedup:.2f}x -> {c_speedup:.2f}x "
              f"<< REGRESSION")
        return True
    return False


def compare_gate_failures(failures, no_timing):
    """Report the candidate's own failed gates; returns True if one gates.

    A "timing" failure is demoted by --no-timing; any other kind gates always.
    """
    regressed = False
    for gate in failures or []:
        kind = gate.get("kind", "?")
        text = (f"{'gate':<12} {gate.get('name', '?')} {gate.get('value')} "
                f"(need {gate.get('op', '?')} {gate.get('bound')}, {kind}) FAILED")
        if kind == "timing" and no_timing:
            print(f"{text} (ignored by --no-timing)")
        else:
            print(f"{text} << GATE FAILURE")
            regressed = True
    return regressed


def main(argv):
    threshold = 5.0
    ignore_wallclock = False
    ignore_allocs = False
    ignore_wire_bytes = False
    ignore_rss = False
    no_timing = False
    args = []
    i = 1
    while i < len(argv):
        if argv[i] == "--threshold" and i + 1 < len(argv):
            threshold = float(argv[i + 1])
            i += 2
        elif argv[i] == "--ignore-wallclock":
            ignore_wallclock = True
            i += 1
        elif argv[i] == "--ignore-allocs":
            ignore_allocs = True
            i += 1
        elif argv[i] == "--ignore-wire-bytes":
            ignore_wire_bytes = True
            i += 1
        elif argv[i] == "--ignore-rss":
            ignore_rss = True
            i += 1
        elif argv[i] == "--no-timing":
            no_timing = True
            ignore_wallclock = True
            i += 1
        else:
            args.append(argv[i])
            i += 1

    if len(args) == 1:
        doc = load(args[0])
        base = doc.get("baseline", {}).get("workloads")
        if not base:
            print(f"bench_diff: {args[0]} has no 'baseline' block for self mode",
                  file=sys.stderr)
            return 2
        cand = doc["workloads"]
        base_smoke = doc.get("baseline", {}).get("smoke", False)
        cand_smoke = doc.get("smoke", False)
        base_suite = doc.get("baseline", {}).get("suite_wall_clock")
        cand_suite = doc.get("suite_wall_clock")
        base_trace = doc.get("baseline", {}).get("trace_overhead")
        cand_trace = doc.get("trace_overhead")
        base_attr = doc.get("baseline", {}).get("attribution_overhead")
        cand_attr = doc.get("attribution_overhead")
        base_rt = doc.get("baseline", {}).get("realtime_scaling")
        cand_rt = doc.get("realtime_scaling")
        cand_failures = doc.get("gate_failures")
    elif len(args) == 2:
        base_doc = load(args[0])
        cand_doc = load(args[1])
        base = base_doc["workloads"]
        cand = cand_doc["workloads"]
        base_smoke = base_doc.get("smoke", False)
        cand_smoke = cand_doc.get("smoke", False)
        base_suite = base_doc.get("suite_wall_clock")
        cand_suite = cand_doc.get("suite_wall_clock")
        base_trace = base_doc.get("trace_overhead")
        cand_trace = cand_doc.get("trace_overhead")
        base_attr = base_doc.get("attribution_overhead")
        cand_attr = cand_doc.get("attribution_overhead")
        base_rt = base_doc.get("realtime_scaling")
        cand_rt = cand_doc.get("realtime_scaling")
        cand_failures = cand_doc.get("gate_failures")
    else:
        print(__doc__, file=sys.stderr)
        return 2

    same_scale = base_smoke == cand_smoke
    regressed = compare(base, cand, threshold, same_scale, ignore_allocs, no_timing,
                        ignore_wire_bytes, ignore_rss)
    regressed |= compare_suite(base_suite, cand_suite, threshold, ignore_wallclock)
    regressed |= compare_trace(base_trace, cand_trace, same_scale, no_timing)
    regressed |= compare_attribution(base_attr, cand_attr, same_scale, no_timing)
    regressed |= compare_realtime(base_rt, cand_rt, threshold, no_timing)
    regressed |= compare_gate_failures(cand_failures, no_timing)
    if regressed:
        print(f"\nFAIL: regression beyond {threshold:.1f}% (allocs: "
              f"{ALLOC_THRESHOLD_PCT:.0f}%, rss: {RSS_THRESHOLD_PCT:.0f}%), "
              f"fingerprint mismatch or failed gate")
        return 1
    print(f"\nOK: no regression (events/sec threshold {threshold:.1f}%, "
          f"allocs {ALLOC_THRESHOLD_PCT:.0f}%, rss {RSS_THRESHOLD_PCT:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
