#!/usr/bin/env python3
"""Benchmark regression gate.

Reads a BENCH_PR<N>.json produced by tools/run_benchmarks.sh and fails
(exit 1) when any tracked benchmark's speedup_vs_baseline falls below the
floor (default 0.85x vs the parent tree). Since the v2 schema (PR 4)
speedup_vs_baseline is computed from the 1-thread row, so the gate always
checks the serial path — thread-level parallelism cannot mask a serial
regression. The pooled speedups (speedup_pooled_vs_baseline) are printed
for the scaling trajectory but not gated. Also prints the per-benchmark-
binary median speedup so the perf trajectory is visible in CI logs.

Since PR 6 the lattice-frontier benchmarks export pruning counters
(raw_product / prune_enumerated / prune_skipped / prune_downset_hits /
prune_waves). A pruning-effectiveness report is printed for every entry
carrying them, and entries whose raw candidate product exceeds 10^6 are
gated on skipping at least --prune-floor (default 0.9) of that product —
the deep-lattice scenarios only finish exactly because the dominance
pruning holds, so a collapse in effectiveness is a correctness-adjacent
regression, not just a slowdown.

Since PR 10 the shared concept-cache column: entries exporting the
cache traffic counters (cache_shared_hits, which counts every hit, plus
cache_misses / cache_publishes from the session-held concept cache's
cumulative stats; cache_local_hits is read as 0 when absent, and older
files split their hits across the two) print a per-entry traffic report
with the hit share. Warm-session entries in the pooled section are gated
on reporting at least one hit: the whole point of the session's memo is
that later requests read the lubs earlier ones recorded, so a zero there
means the memo went dark (e.g. a search stopped threading the session
cache through) even if timings look plausible.

Since PR 7 the memory column: entries exporting a memory_bytes counter
(bench_memory's warm-session residency scenarios) print their residency
and are gated against the parent tree. BENCH files from PR 7 to PR 10
also carry dense_memory_bytes / adaptive_* counters, the force-dense
counterfactual of the since-removed hybrid set containers; they are
printed when present. When the baseline JSON carries the same
entry, current memory_bytes above --memory-ceiling (default 1.10x) times
the parent's fails, so a time win can never quietly buy back the memory.
Per-binary peak RSS (context.peak_rss_bytes) is reported alongside.

The pooled-vs-1-thread report: for every entry present in both the
pooled `benchmarks` rows and the `benchmarks_1thread` rows of the one
BENCH file, the ratio 1-thread real_time / pooled real_time (above 1 the
pool wins), under each binary's num_cpus and whynot_threads from the two
contexts. This is the "beats its own 1-thread row" figure of a parallel
path; it is printed only, not gated.

The ratio audit: with --baseline-json, every recorded speedup_vs_baseline
is recomputed from the raw rows, parent 1-thread real_time / current
1-thread real_time, and each entry whose recorded ratio differs from the
recomputed one by more than 5% is printed with both figures:
BENCH_PR10.json records 10.65x for BM_Table1_IdsSelectionFree/128
against BENCH_PR9.json, whose rows give 1.10x. The audit is printed only; the floor gate still
reads the recorded ratios.

Usage: tools/check_bench.py [bench-json] [--floor 0.85] [--prune-floor 0.9]
                            [--memory-ceiling 1.10] [--baseline-json FILE]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def report_pooled_vs_serial(data: dict) -> None:
    """Prints each entry's 1-thread / pooled real_time ratio (report only)."""
    serial_sections = data.get("benchmarks_1thread", {})
    for bench, payload in sorted(data.get("benchmarks", {}).items()):
        serial = serial_sections.get(bench)
        if serial is None:
            continue
        ctx, serial_ctx = payload.get("context", {}), serial.get("context", {})
        print(f"pooled vs 1-thread {bench}: num_cpus="
              f"{ctx.get('num_cpus')}, whynot_threads "
              f"{ctx.get('whynot_threads')} vs "
              f"{serial_ctx.get('whynot_threads')}")
        serial_results = serial.get("results", {})
        for name, r in sorted(payload.get("results", {}).items()):
            s = serial_results.get(name)
            pooled_ns, serial_ns = r.get("real_time"), (s or {}).get("real_time")
            if not pooled_ns or not serial_ns:
                continue
            print(f"  {name}: {serial_ns / pooled_ns:.2f}x "
                  f"(1-thread {serial_ns / 1e3:.1f} us, pooled "
                  f"{pooled_ns / 1e3:.1f} us)")


def serial_real_times(data: dict) -> dict:
    """name -> real_time of the 1-thread rows (the pooled rows in files
    that have no 1-thread section)."""
    sections = data.get("benchmarks_1thread") or data.get("benchmarks", {})
    return {name: r.get("real_time")
            for payload in sections.values()
            for name, r in payload.get("results", {}).items()}


def report_recomputed_speedups(data: dict, base: dict,
                               tolerance: float = 0.05) -> None:
    """Prints each recorded speedup_vs_baseline that its rows do not give
    (report only)."""
    current, parent = serial_real_times(data), serial_real_times(base)
    off = []
    for name, recorded in sorted(data.get("speedup_vs_baseline", {}).items()):
        cur_ns, base_ns = current.get(name), parent.get(name)
        if not cur_ns or not base_ns:
            continue
        recomputed = base_ns / cur_ns
        if abs(recorded / recomputed - 1) > tolerance:
            off.append((name, recorded, recomputed))
    print(f"ratio audit: {len(off)} recorded speedup(s) off their rows by "
          f"more than {tolerance:.0%} [not gated]")
    for name, recorded, recomputed in off:
        print(f"  {name}: recorded {recorded:.2f}x, rows give "
              f"{recomputed:.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", nargs="?",
                        default=str(Path(__file__).resolve().parent.parent /
                                    "BENCH_PR10.json"))
    parser.add_argument("--floor", type=float, default=0.85,
                        help="fail when any benchmark's speedup is below this")
    parser.add_argument("--prune-floor", type=float, default=0.9,
                        help="fail when a >10^6-product lattice benchmark "
                             "skips less than this fraction of the product")
    parser.add_argument("--memory-ceiling", type=float, default=1.10,
                        help="fail when an entry's memory_bytes exceeds this "
                             "multiple of the parent tree's")
    parser.add_argument("--baseline-json", default=None,
                        help="parent-tree BENCH json for the memory gate "
                             "(default: BENCH_PR<N-1>.json beside bench-json)"
                             " and, when given, the ratio audit")
    args = parser.parse_args()

    data = json.load(open(args.bench_json))
    speedups = data.get("speedup_vs_baseline", {})
    if not speedups:
        print(f"error: no speedup_vs_baseline in {args.bench_json}",
              file=sys.stderr)
        return 1

    # Group entries by the benchmark binary that produced them (the
    # 1-thread section when present — its names drive the gate).
    sections = data.get("benchmarks_1thread") or data.get("benchmarks", {})
    by_binary = {}
    for bench, payload in sections.items():
        for name in payload.get("results", {}):
            if name in speedups:
                by_binary.setdefault(bench, []).append(speedups[name])

    for bench in sorted(by_binary):
        med = statistics.median(by_binary[bench])
        print(f"{bench}: median speedup {med:.2f}x over "
              f"{len(by_binary[bench])} entries")
    overall = statistics.median(speedups.values())
    print(f"overall: median speedup {overall:.2f}x over "
          f"{len(speedups)} entries")
    pooled = data.get("speedup_pooled_vs_baseline", {})
    if pooled:
        pmed = statistics.median(pooled.values())
        threads = {p.get("context", {}).get("whynot_threads")
                   for p in data.get("benchmarks", {}).values()}
        print(f"pooled ({sorted(t for t in threads if t)} threads): median "
              f"speedup {pmed:.2f}x over {len(pooled)} entries [not gated]")

    report_pooled_vs_serial(data)

    # Pruning-effectiveness report: every result exporting the PR-6
    # frontier counters, across both thread flavors (the stats are part of
    # the deterministic contract, so the flavors should agree).
    prune_fails = []
    seen_prune = set()
    for section in ("benchmarks_1thread", "benchmarks"):
        for bench, payload in data.get(section, {}).items():
            for name, r in sorted(payload.get("results", {}).items()):
                c = r.get("counters", {})
                if "prune_enumerated" not in c or name in seen_prune:
                    continue
                seen_prune.add(name)
                enumerated = c["prune_enumerated"]
                skipped = c.get("prune_skipped", 0)
                raw = c.get("raw_product", enumerated + skipped)
                total = enumerated + skipped
                ratio = skipped / total if total else 0.0
                print(f"pruning {name}: raw_product={raw:.3g} "
                      f"tested={enumerated:.0f} skipped={skipped:.3g} "
                      f"({ratio:.2%}), {c.get('prune_waves', 0):.0f} waves, "
                      f"{c.get('prune_downset_hits', 0):.0f} downset hits")
                if raw > 1e6 and ratio < args.prune_floor:
                    prune_fails.append((name, ratio))

    # Shared concept-cache traffic: report every entry exporting the PR-10
    # counters; gate pooled warm-session entries on nonzero shared hits.
    cache_fails = []
    seen_cache = set()
    for section in ("benchmarks", "benchmarks_1thread"):
        for bench, payload in data.get(section, {}).items():
            threads = payload.get("context", {}).get("whynot_threads")
            for name, r in sorted(payload.get("results", {}).items()):
                c = r.get("counters", {})
                if "cache_shared_hits" not in c or name in seen_cache:
                    continue
                seen_cache.add(name)
                shared = c["cache_shared_hits"]
                local = c.get("cache_local_hits", 0)
                misses = c.get("cache_misses", 0)
                lookups = shared + local + misses
                share = shared / lookups if lookups else 0.0
                line = (f"cache {name}: shared={shared:.3g} local={local:.3g} "
                        f"misses={misses:.3g} ({share:.2%} published-tier)")
                if "cache_publishes" in c:
                    line += f", publishes={c['cache_publishes']:.3g}"
                if "cache_resident_bytes" in c:
                    line += f", resident {c['cache_resident_bytes'] / 1e3:.0f} kB"
                print(line)
                # Only session-backed scenarios promise reuse; one-shot
                # contrast rows legitimately report zero shared hits.
                if (section == "benchmarks" and "Session" in name
                        and shared <= 0):
                    cache_fails.append((name, threads))

    # Memory column: residency report plus the >ceiling-vs-parent gate.
    baseline_path = args.baseline_json
    if baseline_path is None:
        pr = data.get("pr")
        if isinstance(pr, int):
            baseline_path = str(Path(args.bench_json).resolve().parent /
                                f"BENCH_PR{pr - 1}.json")
    baseline_memory = {}  # name -> memory_bytes
    baseline_rss = {}     # bench binary -> peak_rss_bytes
    if baseline_path:
        try:
            base = json.load(open(baseline_path))
            if args.baseline_json is not None:
                report_recomputed_speedups(data, base)
            for section in ("benchmarks_1thread", "benchmarks"):
                for bench, payload in base.get(section, {}).items():
                    rss = payload.get("context", {}).get("peak_rss_bytes")
                    if rss:
                        baseline_rss.setdefault(bench, rss)
                    for name, r in payload.get("results", {}).items():
                        mem = r.get("counters", {}).get("memory_bytes")
                        if mem is not None:
                            baseline_memory.setdefault(name, mem)
        except (FileNotFoundError, json.JSONDecodeError):
            pass

    memory_fails = []
    seen_memory = set()
    for section in ("benchmarks_1thread", "benchmarks"):
        for bench, payload in data.get(section, {}).items():
            rss = payload.get("context", {}).get("peak_rss_bytes")
            if rss and bench not in seen_memory:
                seen_memory.add(bench)
                line = f"rss {bench}: peak {rss / 1e6:.1f} MB"
                if bench in baseline_rss:
                    line += f" ({rss / baseline_rss[bench]:.2f}x parent)"
                print(line)
            for name, r in sorted(payload.get("results", {}).items()):
                c = r.get("counters", {})
                mem = c.get("memory_bytes")
                if mem is None or name in seen_memory:
                    continue
                seen_memory.add(name)
                dense = c.get("dense_memory_bytes")
                line = f"memory {name}: {mem / 1e6:.2f} MB"
                if dense:
                    line += (f", dense counterfactual {dense / 1e6:.2f} MB "
                             f"({dense / mem:.1f}x reduction)" if mem
                             else "")
                adaptive = c.get("adaptive_memory_bytes")
                adaptive_dense = c.get("adaptive_dense_bytes")
                if adaptive and adaptive_dense:
                    line += (f"; adaptive sets {adaptive / 1e6:.2f} MB vs "
                             f"{adaptive_dense / 1e6:.2f} MB dense "
                             f"({adaptive_dense / adaptive:.1f}x)")
                if name in baseline_memory and baseline_memory[name] > 0:
                    ratio = mem / baseline_memory[name]
                    line += f" [{ratio:.2f}x parent]"
                    if ratio > args.memory_ceiling:
                        memory_fails.append((name, ratio))
                print(line)

    regressed = {name: s for name, s in sorted(speedups.items())
                 if s < args.floor}
    if regressed:
        print(f"\nFAIL: {len(regressed)} benchmark(s) below "
              f"{args.floor:.2f}x:", file=sys.stderr)
        for name, s in regressed.items():
            print(f"  {name}: {s:.2f}x", file=sys.stderr)
        return 1
    if prune_fails:
        print(f"\nFAIL: {len(prune_fails)} lattice benchmark(s) skipping "
              f"less than {args.prune_floor:.0%} of a >10^6 product:",
              file=sys.stderr)
        for name, ratio in prune_fails:
            print(f"  {name}: {ratio:.2%}", file=sys.stderr)
        return 1
    if cache_fails:
        print(f"\nFAIL: {len(cache_fails)} warm-session benchmark(s) with "
              f"zero shared concept-cache hits:", file=sys.stderr)
        for name, threads in cache_fails:
            print(f"  {name} (pooled, {threads} threads)", file=sys.stderr)
        return 1
    if memory_fails:
        print(f"\nFAIL: {len(memory_fails)} benchmark(s) above "
              f"{args.memory_ceiling:.2f}x the parent's memory_bytes:",
              file=sys.stderr)
        for name, ratio in memory_fails:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"OK: no tracked benchmark below {args.floor:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
