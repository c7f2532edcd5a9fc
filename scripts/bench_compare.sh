#!/usr/bin/env bash
# Benchmark trajectory gate: run the single-threaded kernels of the
# traffic_counts bench (step_flag, timeline, and the event executor's
# broadcast hot path — no thread spawning, so full-sample medians are
# stable) plus every recovery_hotpath leg (time-to-recover vs casualty
# count on the event executor), and fail if any median regressed by more
# than the threshold against the checked-in baseline.
#
# Usage: scripts/bench_compare.sh [--update-baseline] [--allow-missing NAME]...
#   --update-baseline     re-measure and overwrite results/bench_baseline.json
#   --allow-missing NAME  the named benchmark ("group/id") may be present in
#                         the baseline but absent from this run without
#                         failing the gate (repeatable; use while renaming or
#                         retiring that bench, then refresh the baseline).
#                         Unlike a blanket flag, every waived bench is named,
#                         so an unrelated bench silently falling out of the
#                         run still fails.
#
# Gated benches that are absent from the *baseline* never fail the gate:
# they are reported as SKIPPED (no baseline entry) so a freshly added bench
# is visible but ungated until the baseline is refreshed.
#
# A failing comparison is retried exactly once: the benches are re-measured
# and each statistic is replaced by its best (minimum) across the two
# passes before the final verdict — background load only ever slows a run
# down, so this forgives transient machine bursts without loosening the
# threshold for real regressions.
#
# On top of the relative gate, SPEEDUP_FLOORS (in the python below) pins
# named benches to an absolute ceiling frozen in this script — a banked
# optimization win that stays enforced even across --update-baseline.
# RELATIVE_FLOORS does the same for speedups banked against a baseline
# *algorithm* kept in-tree, gating leg-vs-leg within one run so machine
# drift cancels.
#
# Environment:
#   BENCH_COMPARE_THRESHOLD   allowed median regression in percent (default 30)
#   BENCH_COMPARE_OUT         where to write the fresh measurements
#                             (default target/bench_current.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=results/bench_baseline.json
CURRENT=${BENCH_COMPARE_OUT:-target/bench_current.json}
THRESHOLD=${BENCH_COMPARE_THRESHOLD:-30}

usage() {
  sed -n '2,40p' "$0" | sed 's/^# \{0,1\}//'
}

update=0
allow_missing=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --update-baseline) update=1 ;;
    --allow-missing)
      if [[ $# -lt 2 ]]; then
        echo "error: --allow-missing needs a benchmark name (group/id)" >&2
        exit 2
      fi
      allow_missing+=("$2")
      shift
      ;;
    -h|--help) usage; exit 0 ;;
    *)
      echo "error: unknown argument '$1'" >&2
      usage >&2
      exit 2
      ;;
  esac
  shift
done

export CARGO_NET_OFFLINE=true
mkdir -p "$(dirname "$CURRENT")"
# The bench binaries run with the package root as cwd; hand them absolute
# paths. recovery_hotpath's P=8 legs are microsecond-scale event worlds and
# its P=1024 legs take 0.2-0.6 s per sample (a failed epoch's agreement is
# O(P log P) frames), so all of them join the gate.
RECOVERY_CURRENT=${CURRENT%.json}_recovery.json
# The zero_copy P=4096 legs move ~4 GiB of payload per world, so they are
# recorded out-of-band (results/zero_copy.json) and waived by name from
# ci.sh; the quick gate runs the P=8/P=1024 legs, whose 1 MiB pair carries
# the banked RELATIVE_FLOORS entry below.
ZERO_COPY_CURRENT=${CURRENT%.json}_zero_copy.json
# One full measurement pass into $CURRENT. Full sample counts (no --quick)
# everywhere: with only 3 samples a single disturbed iteration poisons both
# the median and the p10 (observed +60..90% one-off swings on the ~100 ms
# legs). Default warmup absorbs allocator/page-cache cold starts; 20
# samples put the median and fastest-decile out of reach of a one-sample
# transient. The p8 recovery legs are microsecond-scale, so the extra
# samples cost milliseconds.
measure() {
  cargo bench -p bcast-bench --bench traffic_counts --offline -- \
    --json "$PWD/$CURRENT" step_flag timeline event_world_hotpath >/dev/null
  cargo bench -p bcast-bench --bench recovery_hotpath --offline -- \
    --json "$PWD/$RECOVERY_CURRENT" recovery_hotpath >/dev/null
  # The P=1024 zero_copy worlds allocate ~1 GiB of rank buffers per
  # iteration, so fewer samples: two warmups absorb the cold start, five
  # samples keep the p10 honest.
  cargo bench -p bcast-bench --bench zero_copy --offline -- \
    --warmup 2 --samples 5 --json "$PWD/$ZERO_COPY_CURRENT" \
    zero_copy/binomial/8x zero_copy/binomial_copy/8x \
    zero_copy/binomial/1024x zero_copy/binomial_copy/1024x >/dev/null
  python3 - "$CURRENT" "$RECOVERY_CURRENT" "$ZERO_COPY_CURRENT" <<'PY'
import json, sys
main = sys.argv[1]
doc = json.load(open(main))
for extra in sys.argv[2:]:
    doc["benchmarks"].extend(json.load(open(extra))["benchmarks"])
json.dump(doc, open(main, "w"))
PY
  if [[ ! -s $CURRENT ]]; then
    echo "error: bench run produced no measurements at $CURRENT" >&2
    exit 1
  fi
}

measure

if [[ $update -eq 1 ]]; then
  mkdir -p "$(dirname "$BASELINE")"
  cp "$CURRENT" "$BASELINE"
  echo "baseline updated: $BASELINE"
  exit 0
fi

if [[ ! -f $BASELINE ]]; then
  echo "error: no baseline at $BASELINE" >&2
  echo "hint: create one with: scripts/bench_compare.sh --update-baseline" >&2
  exit 1
fi

ALLOW_MISSING_LIST=$(IFS=$'\n'; echo "${allow_missing[*]:-}")
export ALLOW_MISSING_LIST
compare() {
  python3 - "$BASELINE" "$CURRENT" "$THRESHOLD" <<'PY'
import json, os, sys

base_path, cur_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
allow_missing = {n for n in os.environ.get("ALLOW_MISSING_LIST", "").splitlines() if n}
GATED_GROUPS = {"step_flag", "timeline", "event_world_hotpath", "recovery_hotpath",
                "zero_copy"}

def load(path, role):
    try:
        with open(path) as f:
            doc = json.load(f)
        rows = doc["benchmarks"]
        return {f"{r['group']}/{r['id']}": r for r in rows}
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: {role} file {path} is not a bench report: {e}", file=sys.stderr)
        print("hint: regenerate it with scripts/bench_compare.sh --update-baseline",
              file=sys.stderr)
        sys.exit(2)

base, cur = load(base_path, "baseline"), load(cur_path, "current")
gated = {n for n in base if n.split("/", 1)[0] in GATED_GROUPS}
if not gated:
    print(f"error: baseline {base_path} has no benchmarks in gated groups "
          f"({', '.join(sorted(GATED_GROUPS))}) — wrong or stale baseline?",
          file=sys.stderr)
    sys.exit(2)
failed = False
for name in sorted(gated):
    if name not in cur:
        if name in allow_missing:
            print(f"SKIPPED   {name} (in baseline, absent from this run; "
                  "waived by --allow-missing)")
        else:
            print(f"MISSING   {name} (in baseline, absent from this run)")
            print(f"hint: pass --allow-missing '{name}' if it was renamed or "
                  "retired, then refresh the baseline", file=sys.stderr)
            failed = True
        continue
    b, c = base[name]["median_ns"], cur[name]["median_ns"]
    delta = 100.0 * (c - b) / b if b > 0 else 0.0
    status = "OK"
    if delta > threshold:
        status, failed = "REGRESSED", True
    print(f"{status:9s} {name}: {b:.0f} ns -> {c:.0f} ns ({delta:+.1f}%)")
# New benches in a gated group without a baseline entry are skipped by
# name, never gated: adding a bench must not fail CI before the baseline
# is refreshed, but the skip is printed so it cannot go unnoticed.
for name in sorted(cur):
    if name.split("/", 1)[0] in GATED_GROUPS and name not in base:
        print(f"SKIPPED   {name} (no baseline entry — ungated; "
              "refresh with --update-baseline)")
# Named absolute floors: optimization wins a PR explicitly banked. Unlike
# the relative gate, the reference is hard-coded here, not read from the
# baseline file, so re-recording the baseline cannot silently launder a
# regression past it. The current run's p10_ns stands in for the machine's
# honest speed: quick-mode samples are few and background load only ever
# slows a run down, so the fastest decile is the noise-robust side to gate
# on, while the reference stays the (noisier, conservative) median of the
# recording it was banked against.
SPEEDUP_FLOORS = {
    # Reactor hot-path overhaul (lane mailboxes / timer wheel / slab tasks /
    # envelope-handle cache): >=2x msgs/sec over the PR 6 reactor, whose
    # recorded median for this bench was 267,645,348 ns.
    "event_world_hotpath/tuned_bcast/1024": (267_645_348, 2.0),
}
for name, (ref_ns, factor) in sorted(SPEEDUP_FLOORS.items()):
    ceiling = ref_ns / factor
    if name not in cur:
        print(f"MISSING   {name} (speedup floor: {factor:g}x over {ref_ns} ns)")
        failed = True
        continue
    fast = cur[name].get("p10_ns") or cur[name]["median_ns"]
    status = "OK"
    if fast > ceiling:
        status, failed = "TOO SLOW", True
    print(f"{status:9s} {name}: p10 {fast:.0f} ns vs ceiling {ceiling:.0f} ns "
          f"(banked {factor:g}x over {ref_ns} ns)")
# Same-run relative floors: the reference bench runs seconds apart in the
# same process, so machine drift cancels — the right shape for a banked
# speedup over a *baseline algorithm* kept in-tree, where background load
# slows both legs together and an absolute ceiling would flake. The
# reference leg cannot quietly decay to loosen the floor: it is itself
# median-gated against the baseline file above.
RELATIVE_FLOORS = {
    # Zero-copy broadcast (shared refcounted envelopes, owned receives):
    # >=1.5x over the per-hop copy baseline kept as bcast_binomial_copy_async,
    # leg vs leg in this very run. Recorded medians at banking time:
    # 79,244,934 ns zero-copy vs 156,521,108 ns copy, ~2x
    # (results/zero_copy.json).
    "zero_copy/binomial/1024x1M": ("zero_copy/binomial_copy/1024x1M", 1.5),
}
for name, (ref_name, factor) in sorted(RELATIVE_FLOORS.items()):
    if name not in cur or ref_name not in cur:
        absent = name if name not in cur else ref_name
        print(f"MISSING   {absent} (relative floor: {name} {factor:g}x "
              f"faster than {ref_name})")
        failed = True
        continue
    ceiling = cur[ref_name]["median_ns"] / factor
    fast = cur[name].get("p10_ns") or cur[name]["median_ns"]
    status = "OK"
    if fast > ceiling:
        status, failed = "TOO SLOW", True
    print(f"{status:9s} {name}: p10 {fast:.0f} ns vs ceiling {ceiling:.0f} ns "
          f"(banked {factor:g}x under same-run {ref_name})")
unused = allow_missing - gated
for name in sorted(unused):
    print(f"warning: --allow-missing '{name}' matches no gated baseline bench",
          file=sys.stderr)
if failed:
    print(f"bench gate FAILED (threshold {threshold:.0f}% on median)", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
}

if ! compare; then
  # Best-of-two flake mitigation: background load on a shared box only ever
  # slows a run down, so the elementwise minimum across two independent
  # measurement passes is the honest estimate of the machine's speed. A
  # real code regression inflates both passes and still fails; a transient
  # burst (kernel reclaim after a memory-heavy CI phase, a noisy
  # neighbour) hits one pass and is forgiven. One retry only — a gate that
  # loops until green is no gate.
  echo "bench gate failed — re-measuring once to rule out transient machine load" >&2
  sleep 15
  FIRST_PASS=${CURRENT%.json}_pass1.json
  cp "$CURRENT" "$FIRST_PASS"
  measure
  python3 - "$FIRST_PASS" "$CURRENT" <<'PY'
import json, sys
first, cur_path = sys.argv[1], sys.argv[2]
prev = {f"{r['group']}/{r['id']}": r
        for r in json.load(open(first))["benchmarks"]}
doc = json.load(open(cur_path))
for r in doc["benchmarks"]:
    p = prev.get(f"{r['group']}/{r['id']}")
    if not p:
        continue
    for k in ("median_ns", "p10_ns", "p90_ns"):
        if isinstance(r.get(k), (int, float)) and isinstance(p.get(k), (int, float)):
            r[k] = min(r[k], p[k])
json.dump(doc, open(cur_path, "w"))
PY
  echo "--- second pass (elementwise best of two) ---"
  compare
fi
echo "bench gate passed (threshold ${THRESHOLD}% on median)"
