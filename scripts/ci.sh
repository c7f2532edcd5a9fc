#!/usr/bin/env bash
# Every CI gate, offline, with a per-phase wall-clock report so the growing
# matrix stays diagnosable. .github/workflows/ci.yml runs the same phases
# one per step, so each command is written once, here.
# Usage: scripts/ci.sh [--quick] [PHASE]
#   --quick   skip the release build, the release megascale sweeps (event
#             executor and self-healing recovery), the chaos search, and
#             the bench regression gate (test/fmt/clippy only)
#   PHASE     run only `phase_PHASE` below (e.g. `scripts/ci.sh schedcheck`);
#             no phase = the full run.
# Environment:
#   CI_BUDGET_SECONDS   soft wall-clock budget for the whole run; the
#                       summary prints a warning when it is exceeded
#                       (default 1200). The run still passes — the budget
#                       flags drift, it does not gate.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
  shift
fi

run() {
  echo "==> $*" >&2
  "$@"
}

# Per-phase wall-clock accounting: every top-level gate runs under
# run_phase so the summary table at the end shows where the minutes went.
PHASE_NAMES=()
PHASE_SECS=()
run_phase() {
  local name="$1"
  shift
  echo "=== phase: $name ===" >&2
  local t0=$SECONDS
  "$@"
  PHASE_NAMES+=("$name")
  PHASE_SECS+=($((SECONDS - t0)))
}

export CARGO_NET_OFFLINE=true

# A ThreadWorld receive spins before it parks only when the world's rank
# threads fit the host's cores, so thread timings (and the wall time of
# the thread-spawning tests) depend on this count: print it up front.
host_cores=$(nproc)
echo "host cores (nproc): $host_cores" >&2

phase_build() {
  run cargo build --workspace --release --offline
}

# No crate declares cargo features, so there is one build to test and lint.
# Clippy also checks the source conventions a shipped lint expresses
# (clippy.toml, Cargo.toml's [workspace.lints.clippy] and the library crate
# roots): no unwrap/expect in library code, SAFETY comments on unsafe
# blocks, no `let _ =` of a #[must_use] result, no wall-clock read or sleep
# outside the blocking executors, and no HashMap in mpsim's matchers.
phase_feature_matrix() {
  run cargo test -q --workspace --offline
  run cargo clippy --workspace --all-targets --offline -- -D warnings
}

# The benchmark package is its own workspace (empty [workspace] table, path
# deps on crates/*), so none of the --workspace commands above reach it: a
# library API change that breaks it would otherwise surface only in the
# benchmark pipeline.
phase_benchmark_package() {
  run cargo build --release --offline --manifest-path benchmark/Cargo.toml
  run cargo test -q --offline --manifest-path benchmark/Cargo.toml
}

phase_harness_and_fmt() {
  run cargo bench --workspace --offline -- --help >/dev/null
  run cargo fmt --all --check
}

# Static verification: the schedule sweep proves every collective's symbolic
# schedule deadlock-free, fully covering, and traffic-exact (and drills
# seeded mutants); repolint enforces the four source conventions no shipped
# lint expresses (cancel-safety, bcast-hot-copy, comm-impl) and, reading
# src/, tests/, examples/ and benchmark/src/ too, that no public item of
# crates/*/src lacks a caller outside its own tests (unused-pub; allowlist
# in lint.rs). The other conventions are clippy lints, checked in the
# feature_matrix phase.
# The sweep's phase 6 checks the self-healing agreement's op streams
# (clean quorum and pairwise round under both semantics, a failed epoch
# with a silent member under eager, every P <= 64, plus a seeded quorum
# mutant that must be caught); it runs in full and --quick alike and took
# ~2 s of the sweep's ~75 s (--quick) / ~120 s (full) debug wall time on
# the 2-core host.
phase_schedcheck() {
  if [[ $quick -eq 1 ]]; then
    run cargo run -q -p schedcheck --bin schedcheck --offline -- --quick
  else
    run cargo run -q -p schedcheck --bin schedcheck --offline
  fi
  run cargo run -q -p schedcheck --bin repolint --offline
  # The committed traffic table and analytic sweep, regenerated: the
  # table's measured column runs the tuned ring on ThreadWorld and the sweep
  # evaluates the schedules, so a drift in any count or makespan fails here.
  cargo run -q --release --bin bcast --offline -- traffic-table --max 512 |
    run diff - results/traffic_table.csv
  cargo run -q --release --bin bcast --offline -- predict-sweep |
    run diff - results/predict_sweep.csv
}

# Reactor model-checking lane: every mailbox/reactor protocol model explored
# exhaustively AND with the sleep-set DPOR reduction (verdicts must agree,
# per-model state counts and reduction factors printed), plus the seeded
# mutation drill — one known lost-wakeup / stale-handle / accounting bug
# per model, each of which both explorers must catch. The state budget is
# pinned well below the library default so state-space growth in a model
# (or a reduction regression re-inflating the DPOR walk) fails the phase
# instead of silently eating CI minutes.
phase_schedcheck_reactor() {
  run cargo run -q -p schedcheck --bin schedcheck --offline -- \
    explore-reactor --max-states 200000
}

# Chaos gate: replay the seeded fault-injection batteries (P ∈ {4,8,10,16}
# × drop/dup/mixed link faults and one-rank crashes, all executors) under
# a second fixed seed, so CI exercises a different fault pattern than the
# developer-default seed baked into the tests — plus ReliableComm's
# delivery scenarios and its lossy-ring resend bound, and the mailbox lanes'
# differential property test (slab-backed lanes against a deque-per-queue
# model) under the same seed. Any failure replays bit-identically with the
# printed TESTKIT_SEED. chaos_recovery also runs the prescribed fault
# stack's crash grid (1 872 launches of recovery over
# ReliableComm(FaultyComm), fixed seeds, ~11 s debug on the 2-core host).
phase_chaos() {
  local chaos_seed=0xC4A05C1A05150002
  run env TESTKIT_SEED=$chaos_seed cargo test -q -p bcast-core --offline --test chaos_recovery
  run env TESTKIT_SEED=$chaos_seed cargo test -q -p bcast-opt --offline --test comm_conformance
  run env TESTKIT_SEED=$chaos_seed cargo test -q -p bcast-opt --offline --test reliable_delivery
  run env TESTKIT_SEED=$chaos_seed cargo test -q -p mpsim --offline --lib lane_prop
}

# event-exec lane: prove the discrete-event executor — conformance
# battery (incl. seeded faults over the virtual clock), the paper's
# P=8/P=10 traffic table, and the P=256 megascale sweep. The
# P ∈ {1024, 4096} sweeps (~1M and ~16.8M messages per algorithm) run in
# release only, pinned to the same closed-form envelope/byte counts. The
# P=16384 sweep (~268M messages through the reactor) runs as its own phase
# below so its wall clock gets a dedicated row in the timing table.
phase_event_exec() {
  run cargo test -q -p bcast-opt --offline --test comm_conformance event_
  run cargo test -q -p bcast-opt --offline --test traffic_table event_world
  run cargo test -q -p bcast-opt --offline --test event_megascale
  if [[ $quick -eq 0 ]]; then
    run cargo test --release -q -p bcast-opt --offline --test event_megascale -- \
      --ignored --skip megascale_p16384
  fi
}

phase_event_megascale_p16384() {
  run cargo test --release -q -p bcast-opt --offline --test event_megascale -- \
    --ignored megascale_p16384
}

# Self-healing megascale: cascading multi-epoch recovery at P ∈ {1024, 4096}
# on the event executor's virtual clock — three staggered crashes, ≥ 3
# epochs, byte-identical survivors, reconciled traffic — the fault-free
# P=4096 launch (megascale_clean_p4096: one epoch, HEALED_ALL everywhere,
# traffic exactly bcast_volume + agreement_volume), plus the exhaustive
# crash-point sweep (~130k small launches, seconds). Release-only (debug
# builds are too slow at these sizes), so it gets its own row. A failed
# epoch no longer pays the P·(P−1)-message pairwise round unless a crash
# lands inside its agreement: the leader proposes the verdict and a second
# ⌈log₂P⌉-round quorum confirms it, and the rerun skips the survivors that
# already hold the payload. Every #[ignore] test of chaos_recovery runs here;
# the two P=4096 launches each run alone in a process of their own, which
# prints its peak resident memory (VmHWM). A rank keeps its member sets as
# "all ranks but these", so the fault-free launch holds no P² member lists:
# it fails the phase above 96 MiB (188.8 MiB when every rank listed the
# world, about 61 MiB since). The cascade's reading is printed beside it.
phase_recovery_megascale() {
  run cargo test --release -q -p bcast-core --offline --test chaos_recovery -- \
    --ignored --skip megascale_clean_p4096 --skip megascale_cascade_p4096
  local clean cascade
  clean=$(megascale_peak_kib megascale_clean_p4096)
  cascade=$(megascale_peak_kib megascale_cascade_p4096)
  echo "VmHWM: megascale_clean_p4096 $((clean / 1024)) MiB (limit 96 MiB)," \
    "megascale_cascade_p4096 $((cascade / 1024)) MiB" >&2
  if ((clean > 96 * 1024)); then
    echo "megascale_clean_p4096 peaked at $clean kB, above 96 MiB" >&2
    return 1
  fi
}

# Run one #[ignore] test of chaos_recovery alone in its own process and
# print the VmHWM (kB) it reports; fails if it reports none.
megascale_peak_kib() {
  local out kib
  out=$(run cargo test --release -q -p bcast-core --offline --test chaos_recovery -- \
    --ignored --exact "$1" --nocapture)
  echo "$out" >&2
  kib=$(awk -v t="$1" '$1 == t && $2 == "VmHWM:" { print $3 }' <<<"$out")
  if [[ -z "$kib" ]]; then
    echo "$1 printed no VmHWM line" >&2
    return 1
  fi
  echo "$kib"
}

# Adversarial chaos search: a budgeted coverage-guided walk over fault plans
# (crash victims/times, drop/dup/delay rates, world size, algorithm) against
# the production recovery invariants, then the seeded drill — each
# RecoveryDrill knob reintroduces a known recovery regression and the search
# must find it, shrink it, and replay the identical minimal spec from the
# same seed (3/3 caught).
phase_chaos_search() {
  run cargo run --release -q -p schedcheck --bin chaos-search --offline -- --budget 200
  run cargo run --release -q -p schedcheck --bin chaos-search --offline -- --drill --budget 200
}

phase_bench_gate() {
  # Every recovery_hotpath leg is gated. The zero_copy P=4096 legs (~4 GiB
  # of payload per measured world) are recorded out-of-band in
  # results/zero_copy.json and waived here.
  run scripts/bench_compare.sh \
    --allow-missing zero_copy/binomial/4096x64K \
    --allow-missing zero_copy/binomial/4096x1M \
    --allow-missing zero_copy/binomial_copy/4096x64K \
    --allow-missing zero_copy/binomial_copy/4096x1M
}

# Code size, the number simplicity changes quote (not part of the default
# run): non-blank, non-comment lines of crates/*/src and src/lib.rs before
# each file's first top-level #[cfg(test)], the count CHANGES.md quotes.
# That count stops at a `#[cfg(test)] mod x;` declaration as if the file's
# tests began there, and counts the declared file (lane_prop.rs) as code;
# the second count skips such declarations and the files they declare.
# The same count is then split into the guards (crates/schedcheck/src: the
# schedule verifier, the protocol models, chaos search and repolint) and
# everything else.
phase_loc() {
  count_code() {
    local f
    for f in "$@"; do awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"; done |
      grep -v '^\s*$' | grep -v '^\s*//' | wc -l
  }
  local code
  code=$(count_code $(find crates/*/src -name '*.rs') src/lib.rs)
  echo "code lines before the first #[cfg(test)]: $code"
  local guards
  guards=$(count_code $(find crates/schedcheck/src -name '*.rs'))
  echo "  of which guards (crates/schedcheck/src): $guards; the rest: $((code - guards))"
  local f test_only=() decl
  for f in $(find crates/*/src -name '*.rs') src/lib.rs; do
    for decl in $(awk '/^#\[cfg\(test\)\]$/ {getline; if ($0 ~ /^mod [a-z_]+;$/) {sub(/^mod /, ""); sub(/;$/, ""); print}}' "$f"); do
      test_only+=("$(dirname "$f")/$decl.rs")
    done
  done
  code=$(for f in $(find crates/*/src -name '*.rs') src/lib.rs; do
    [[ " ${test_only[*]} " == *" $f "* ]] && continue
    awk '/^#\[cfg\(test\)\]$/ {getline; if ($0 ~ /^mod [a-z_]+;$/) next; exit} {print}' "$f"
  done | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
  echo "code lines without test-only modules: $code (skipped: ${test_only[*]:-none})"
}

if [[ $# -gt 0 ]]; then
  phase="phase_$1"
  shift
  if ! declare -F "$phase" >/dev/null; then
    echo "unknown phase ${phase#phase_}; phases:" \
      "$(declare -F | sed -n 's/^declare -f phase_//p' | tr '\n' ' ')" >&2
    exit 2
  fi
  "$phase" "$@"
  exit
fi

if [[ $quick -eq 0 ]]; then
  run_phase "build (release)" phase_build
fi
run_phase "test + clippy" phase_feature_matrix
run_phase "benchmark package (build + unit tests)" phase_benchmark_package
run_phase "bench harness + fmt" phase_harness_and_fmt
run_phase "schedcheck + repolint" phase_schedcheck
run_phase "schedcheck-reactor (DPOR + mutation drill)" phase_schedcheck_reactor
run_phase "chaos gate (seeded faults)" phase_chaos
run_phase "event-exec lane" phase_event_exec
if [[ $quick -eq 0 ]]; then
  # The bench gate runs BEFORE the megascale phases: those worlds allocate
  # and free tens of GiB, and for minutes afterwards the kernel's memory
  # reclaim steals enough CPU to swing ~100 ms benches by 2-4x — measured
  # repeatedly as spurious gate failures when this phase ran last.
  run_phase "bench regression gate" phase_bench_gate
  run_phase "event-exec megascale P=16384" phase_event_megascale_p16384
  run_phase "self-healing megascale P in {1024,4096}" phase_recovery_megascale
  run_phase "chaos search (budget 200 + seeded drill)" phase_chaos_search
fi

budget=${CI_BUDGET_SECONDS:-1200}
total=0
echo
echo "CI phase timing (host cores: $host_cores):"
for i in "${!PHASE_NAMES[@]}"; do
  printf '  %-48s %5ss\n' "${PHASE_NAMES[$i]}" "${PHASE_SECS[$i]}"
  total=$((total + PHASE_SECS[i]))
done
printf '  %-48s %5ss\n' "total" "$total"
if [[ $total -gt $budget ]]; then
  echo "warning: CI wall clock ${total}s exceeds soft budget ${budget}s" \
    "(CI_BUDGET_SECONDS) — consider trimming the slowest phase above" >&2
fi

echo "All CI gates passed."
