#!/usr/bin/env python3
"""Benchmark regression guard for the b2stack CI.

Compares the throughput JSON emitted by bench/sim_throughput
(BENCH_sim.json) and bench/interp_throughput (BENCH_interp.json)
against a baseline from a previous main-branch run, and fails when any
per-row throughput regresses by more than the allowed fraction
(default 25%).

Rows are keyed by their identity fields (kernel+substrate for the
simulator bench, workload+engine for the interpreter bench), so adding
or removing rows never trips the guard — only a matched row that got
slower does. A baseline that lacks a file — first run, expired cache,
or a bench JSON newly added (or renamed) by the current PR — is
reported and skipped rather than failed, so the guard can bootstrap
itself; a file that exists but cannot be parsed under the registered
schema is likewise warned about and skipped instead of crashing the
job.

Alongside raw throughput, the guard trends *derived metrics* computed
from the METRICS_*.json reports the bench binaries emit (schema
b2stack-metrics-v1): trace-cache hit rate, side-exit rate, link hit
rate, interpreter steps per run, soak delivery health. Ratios are robust to
workload-size changes, so drift means behavior changed, not that the
bench ran longer. Drift is judged symmetrically — a hit rate that
jumps UP 30% is as suspicious as one that drops (it usually means the
instrumentation or the workload changed, and the baseline is stale
either way). Drift beyond --metrics-warn (default 10%) warns; beyond
--metrics-fail (default 25%) fails. A baseline that predates a metric
(file or counter absent) is warned about and skipped, never failed, so
new metrics bootstrap cleanly.

Usage:
  bench_compare.py --baseline DIR --current DIR [--max-regression 0.25]
                   [--metrics-warn 0.10] [--metrics-fail 0.25]
"""

import argparse
import json
import os
import sys

# file name -> (array key, identity fields, throughput field)
# BENCH_sim.json superseded BENCH_sim_throughput.json when the simulator
# bench grew the superblock-engine rows; old baselines simply skip.
# Its substrates, each paired with its kernels (alu_loop, mem_loop,
# firmware_e2e): isa_sim_uncached and isa_sim_block (the ISA simulator's
# reference stepper and block engine), spec_core, pipelined_core (the
# pipelined core's reference tick()) and pipelined_fast (its
# instruction-stepped engine). A row the baseline predates is reported
# as new and skipped.
BENCH_FILES = {
    "BENCH_sim.json": ("kernels", ("kernel", "substrate"),
                       "instr_per_sec"),
    "BENCH_interp.json": ("workloads", ("workload", "engine"),
                          "stmts_per_sec"),
    "BENCH_soak.json": ("scenarios", ("scenario", "core"),
                        "frames_per_sec"),
    "BENCH_shrink.json": ("shrinks", ("scenario", "oracle"),
                          "speedup_vs_cold"),
    # "mode" joined the identity when the staged discharge pipeline
    # added per-mode rows (cold/tiers/slice/staged/threads4); baselines
    # from before then have no "mode" field and their rows skip.
    "BENCH_vc.json": ("funcs", ("func", "program", "mode"),
                      "vcs_per_sec"),
}

METRICS_SCHEMA = "b2stack-metrics-v1"


def _rate(num, den):
    """num/den, or None when the inputs are absent or the denominator
    is zero (baseline predates the counters, or the path never ran)."""
    if num is None or not den:
        return None
    return num / den


def _derived_sim(c):
    trace = c.get("sim.block.trace_instrs")
    cold = c.get("sim.block.cold_instrs")
    total = (trace or 0) + (cold or 0)
    links = (c.get("sim.block.link_hits") or 0) + \
            (c.get("sim.block.link_misses") or 0)
    return {
        "trace_cache_hit_rate":
            _rate(trace, total if trace is not None else 0),
        "side_exit_rate": _rate(c.get("sim.block.side_exits"), trace),
        "link_hit_rate": _rate(c.get("sim.block.link_hits"), links),
        "fused_per_trace_instr":
            _rate(c.get("sim.block.fused_retired"), trace),
    }


def _derived_interp(c):
    return {
        "steps_per_run": _rate(c.get("interp.exec.steps"),
                               c.get("interp.exec.runs")),
    }


def _derived_soak(c):
    delivered = c.get("soak.frames.delivered")
    # Wall time is nondeterministic but the sum across shards still
    # trends CPU cost per frame; the 25% fail bar absorbs normal noise.
    wall_s = _rate(c.get("soak.shard.wall_ns.sum"), 1e9)
    return {
        "frames_accepted_rate": _rate(c.get("soak.frames.accepted"),
                                      delivered),
        "mmio_events_per_frame": _rate(c.get("soak.mmio.events"),
                                       delivered),
        "soak_frames_per_cpu_sec": _rate(delivered, wall_s),
    }


def _derived_vc(c):
    vcs = c.get("vc.vcs.generated")
    confirmed = c.get("vc.replay.confirmed") or 0
    unconfirmed = c.get("vc.replay.unconfirmed") or 0
    replays = confirmed + unconfirmed
    tier_kills = None
    if c.get("vc.tier.interval_kills") is not None or \
       c.get("vc.tier.rewrite_kills") is not None:
        tier_kills = (c.get("vc.tier.interval_kills") or 0) + \
                     (c.get("vc.tier.rewrite_kills") or 0)
    cache_lookups = (c.get("vc.cache.hits") or 0) + \
                    (c.get("vc.cache.misses") or 0)
    return {
        # Staged-pipeline health: how much of the corpus dies in the
        # cheap tiers, and how often the solved-obligation cache hits.
        # Drift means the tier ladder or the canonical hashing changed.
        "cheap_tier_kill_ratio": _rate(tier_kills, vcs),
        "cache_hit_ratio": _rate(c.get("vc.cache.hits"), cache_lookups),
        # Solver effort per obligation: drift means the WP encoding or
        # the solver's search changed, not that the corpus grew.
        "conflicts_per_vc": _rate(c.get("vc.solver.conflicts"), vcs),
        "clauses_per_vc": _rate(c.get("vc.solver.clauses"), vcs),
        "dag_nodes_per_func": _rate(c.get("vc.dag.nodes"),
                                    c.get("vc.funcs.checked")),
        "replay_confirm_rate":
            _rate(confirmed, replays if replays else 0),
        "proved_rate": _rate(c.get("vc.verdict.valid"),
                             c.get("vc.funcs.checked")),
    }


# file name -> derived-metric function over the flattened counter dict.
METRICS_FILES = {
    "METRICS_sim.json": _derived_sim,
    "METRICS_interp.json": _derived_interp,
    "METRICS_soak.json": _derived_soak,
    "METRICS_vc.json": _derived_vc,
}


def load_metrics_counters(path):
    """Flattens a b2stack-metrics-v1 report into one {name: value} dict:
    counters from both scopes, plus '<timer>.sum' for each timer."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"schema {doc.get('schema')!r} != "
                         f"{METRICS_SCHEMA!r}")
    out = {}
    for scope in ("deterministic", "nondeterministic"):
        tree = doc.get(scope, {})
        out.update(tree.get("counters", {}))
        for name, t in tree.get("timers_ns", {}).items():
            out[name + ".sum"] = t.get("sum", 0)
    return out


def compare_metrics(baseline_dir, current_dir, warn_at, fail_at):
    """Diffs derived metrics for every registered METRICS file.

    Returns (compared, warnings, failures) where warnings/failures are
    label lists. Missing baselines — whole files or individual counters
    — are warn-and-skip, so a PR that introduces a metric passes."""
    compared, warnings, failures = 0, [], []
    for name, derive in METRICS_FILES.items():
        base_path = os.path.join(baseline_dir, name)
        cur_path = os.path.join(current_dir, name)
        if not os.path.exists(cur_path):
            print(f"bench_compare: {name}: no current file, skipping")
            continue
        if not os.path.exists(base_path):
            print(f"bench_compare: {name}: no metrics baseline (first "
                  f"run, expired cache, or metric newly added this PR), "
                  f"skipping")
            continue
        try:
            base = derive(load_metrics_counters(base_path))
            cur = derive(load_metrics_counters(cur_path))
        except (OSError, ValueError) as err:
            print(f"bench_compare: {name}: unreadable metrics report "
                  f"({err}), skipping")
            continue
        for metric in sorted(cur):
            label = f"{name}:{metric}"
            if cur[metric] is None:
                continue  # this run never exercised the path
            if base.get(metric) is None:
                print(f"bench_compare: {label}: baseline predates this "
                      f"metric, skipping")
                continue
            compared += 1
            old, new = base[metric], cur[metric]
            drift = abs(new - old) / old if old else (0.0 if not new
                                                      else float("inf"))
            verdict = "OK"
            if drift > fail_at:
                verdict = "DRIFT-FAIL"
                failures.append(label)
            elif drift > warn_at:
                verdict = "DRIFT-WARN"
                warnings.append(label)
            print(f"bench_compare: {label}: {old:.4g} -> {new:.4g} "
                  f"({drift:+.1%} drift) {verdict}")
    return compared, warnings, failures


def load_rows(path, array_key, id_fields, value_field):
    """Returns {identity tuple: throughput} for one bench JSON file."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get(array_key, []):
        ident = tuple(row.get(k) for k in id_fields)
        value = row.get(value_field)
        if None in ident or not isinstance(value, (int, float)) or value <= 0:
            continue
        rows[ident] = float(value)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="directory holding the previous main-branch JSON")
    ap.add_argument("--current", required=True,
                    help="directory holding this run's JSON")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional slowdown per row (default 0.25)")
    ap.add_argument("--metrics-warn", type=float, default=0.10,
                    help="derived-metric drift that warns (default 0.10)")
    ap.add_argument("--metrics-fail", type=float, default=0.25,
                    help="derived-metric drift that fails (default 0.25)")
    args = ap.parse_args(argv)

    failures = []
    compared = 0
    for name, (array_key, id_fields, value_field) in BENCH_FILES.items():
        base_path = os.path.join(args.baseline, name)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(cur_path):
            print(f"bench_compare: {name}: no current file, skipping")
            continue
        if not os.path.exists(base_path):
            print(f"bench_compare: {name}: no baseline (first run, expired "
                  f"cache, or file newly added this PR), skipping")
            continue
        try:
            base = load_rows(base_path, array_key, id_fields, value_field)
            cur = load_rows(cur_path, array_key, id_fields, value_field)
        except (OSError, ValueError) as err:
            print(f"bench_compare: {name}: unreadable under registered "
                  f"schema ({err}), skipping")
            continue
        if not base and cur:
            print(f"bench_compare: {name}: baseline rows lack the current "
                  f"identity fields (schema predates this PR), skipping")
            continue
        for ident, base_value in sorted(base.items()):
            label = f"{name}:" + "/".join(str(p) for p in ident)
            if ident not in cur:
                print(f"bench_compare: {label}: row gone from current run "
                      f"(renamed?), skipping")
                continue
            compared += 1
            ratio = cur[ident] / base_value
            verdict = "OK"
            if ratio < 1.0 - args.max_regression:
                verdict = "REGRESSION"
                failures.append(label)
            print(f"bench_compare: {label}: {base_value:.3e} -> "
                  f"{cur[ident]:.3e} ({ratio:.1%} of baseline) {verdict}")
        for ident in sorted(set(cur) - set(base)):
            label = f"{name}:" + "/".join(str(p) for p in ident)
            print(f"bench_compare: {label}: new row, no baseline yet, "
                  f"skipping")

    m_compared, m_warnings, m_failures = compare_metrics(
        args.baseline, args.current, args.metrics_warn, args.metrics_fail)

    print(f"bench_compare: {compared} rows compared, "
          f"{len(failures)} regressed beyond "
          f"{args.max_regression:.0%}; {m_compared} derived metrics "
          f"compared, {len(m_warnings)} warned, {len(m_failures)} "
          f"drifted beyond {args.metrics_fail:.0%}")
    for label in m_warnings:
        print(f"bench_compare: WARNING: {label} drifted beyond "
              f"{args.metrics_warn:.0%}", file=sys.stderr)
    if failures or m_failures:
        for label in failures + m_failures:
            print(f"bench_compare: FAILED: {label}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
