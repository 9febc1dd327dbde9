#!/usr/bin/env python3
"""Benchmark regression guard for the b2stack CI.

Compares every BENCH_*.json in the current directory that carries the
b2stack-bench-v1 schema (bench/BenchUtil.h) against the same file from
a previous main-branch run, and fails when any row regresses by more
than the allowed fraction (default 25%).

A row is keyed by (bench, workload, variant, metric) and compared on its
median in the direction its `better` field names: a "higher" row
regresses when it drops below (1 - bound) x baseline, a "lower" row when
it rises above (1 + bound) x baseline. Adding or removing rows never
trips the guard, only a matched row that got worse does; a duplicate
key in one document is an error. A baseline that lacks a file (first
run, expired cache, or a bench newly added by the current PR), predates
the v1 schema or cannot be parsed is reported and skipped rather than
failed, so the guard can bootstrap itself. When GITHUB_STEP_SUMMARY is
set, one table of every current v1 row is appended to it.

Alongside the rows, the guard trends *derived metrics* computed
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
import glob
import json
import os
import sys

BENCH_SCHEMA = "b2stack-bench-v1"
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


class SchemaMismatch(ValueError):
    """The document is valid JSON but not a b2stack-bench-v1 document."""


class DuplicateKey(ValueError):
    """Two rows of one document share a key."""


def load_bench(path):
    """Returns {(bench, workload, variant, metric): row} for one
    b2stack-bench-v1 document."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        schema = doc.get("schema") if isinstance(doc, dict) else None
        raise SchemaMismatch(f"schema {schema!r} != {BENCH_SCHEMA!r}")
    rows = {}
    for row in doc.get("rows", []):
        key = (doc.get("bench"), row.get("workload"), row.get("variant"),
               row.get("metric"))
        if key in rows:
            raise DuplicateKey("duplicate row key " + "/".join(map(str, key)))
        rows[key] = row
    return rows


def regressed(row, old, new, bound):
    """True iff `new` is worse than `old` by more than `bound` in the
    row's `better` direction."""
    if row.get("better") == "lower":
        return new > old * (1.0 + bound)
    return new < old * (1.0 - bound)


def compare_bench(baseline_dir, current_dir, bound):
    """Compares every current v1 document with its baseline. Returns
    (compared, failures, current rows by file)."""
    compared, failures, current = 0, [], {}
    for cur_path in sorted(glob.glob(os.path.join(current_dir,
                                                  "BENCH_*.json"))):
        name = os.path.basename(cur_path)
        try:
            cur = load_bench(cur_path)
        except DuplicateKey as err:
            print(f"bench_compare: {name}: {err}")
            failures.append(name)
            continue
        except (OSError, ValueError) as err:
            print(f"bench_compare: {name}: not a {BENCH_SCHEMA} document "
                  f"({err}), skipping")
            continue
        current[name] = cur
        base_path = os.path.join(baseline_dir, name)
        if not os.path.exists(base_path):
            print(f"bench_compare: {name}: no baseline (first run, expired "
                  f"cache, or file newly added this PR), skipping")
            continue
        try:
            base = load_bench(base_path)
        except DuplicateKey as err:
            print(f"bench_compare: {name}: baseline {err}")
            failures.append(name)
            continue
        except SchemaMismatch as err:
            print(f"bench_compare: WARNING: {name}: baseline predates "
                  f"{BENCH_SCHEMA} ({err}), skipping", file=sys.stderr)
            continue
        except (OSError, ValueError) as err:
            print(f"bench_compare: {name}: unreadable baseline ({err}), "
                  f"skipping")
            continue
        for key, row in sorted(cur.items()):
            label = f"{name}:" + "/".join(str(p) for p in key[1:])
            if key not in base:
                print(f"bench_compare: {label}: new row, no baseline yet, "
                      f"skipping")
                continue
            old, new = base[key].get("median"), row.get("median")
            if not isinstance(old, (int, float)) or \
               not isinstance(new, (int, float)):
                print(f"bench_compare: {label}: no median, skipping")
                continue
            if old <= 0:
                # A relative bound needs a positive baseline (a count such
                # as sat_conflicts can be 0).
                print(f"bench_compare: {label}: baseline median {old:.4g}, "
                      f"no relative bound, skipping")
                continue
            compared += 1
            verdict = "OK"
            if regressed(row, old, new, bound):
                verdict = "REGRESSION"
                failures.append(label)
            print(f"bench_compare: {label}: {old:.4g} -> {new:.4g} "
                  f"({row.get('better', 'higher')} is better) {verdict}")
        for key in sorted(set(base) - set(cur)):
            label = f"{name}:" + "/".join(str(p) for p in key[1:])
            print(f"bench_compare: {label}: row gone from current run "
                  f"(renamed?), skipping")
    return compared, failures, current


def write_step_summary(path, current):
    """Appends one markdown table of every current v1 row to `path`."""
    lines = ["| bench | workload | variant | metric | median | IQR |",
             "|---|---|---|---|---:|---:|"]
    for rows in current.values():
        for (bench, workload, variant, metric), row in sorted(rows.items()):
            lines.append(f"| {bench} | {workload} | {variant} | {metric} "
                         f"({row.get('unit', '')}) | "
                         f"{row.get('median', 0):.4g} | "
                         f"{row.get('iqr', 0):.4g} |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="directory holding the previous main-branch JSON")
    ap.add_argument("--current", required=True,
                    help="directory holding this run's JSON")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional regression per row (default 0.25)")
    ap.add_argument("--metrics-warn", type=float, default=0.10,
                    help="derived-metric drift that warns (default 0.10)")
    ap.add_argument("--metrics-fail", type=float, default=0.25,
                    help="derived-metric drift that fails (default 0.25)")
    args = ap.parse_args(argv)

    compared, failures, current = compare_bench(
        args.baseline, args.current, args.max_regression)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        write_step_summary(summary, current)

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
