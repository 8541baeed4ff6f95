#!/usr/bin/env bash
# Local CI gate: everything runs offline (all deps are workspace-internal,
# external names resolve to the in-tree shims under shims/).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every public fn has a caller in another file (or an allowlisted
# reason): an uncalled one is deleted, an own-file-only one made private.
echo "== public-surface inventory (pub fn named by no other file) =="
scripts/pub_inventory.sh

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# The frozen benchmark package builds against this workspace by path:
# a signature change that breaks perf/ should fail here, not in the
# pipeline's benchmark run.
echo "== perf/ builds and passes its own tests against the workspace =="
cargo test --offline --manifest-path perf/Cargo.toml

# The benchmark is frozen: a dependency-edge change in a workspace
# crate rewrites perf/'s own lockfile during that build. Fail here, not
# in the pipeline's benchmark run.
echo "== perf/ and BENCHMARK.json unchanged by the build =="
git diff --exit-code -- perf/ BENCHMARK.json

# The worker pool: nested and concurrent maps, panic isolation, no
# helper left inside a returned map, and helpers spawned once (counts,
# no clocks) — in release, where the pool's one unsafe block runs at
# full speed. Then the battery, timing graph and flow byte-identical
# across worker counts; CBV_THREADS sets the flow's auto-default column.
echo "== worker pool (cbv-exec, release) =="
cargo test -q --release -p cbv-exec
for threads in 1 2 8; do
  echo "== parallel determinism (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-core --test parallel
done

# The equality matrix: every path that must equal cold run_flow (owned
# cache, shared tier, farm, daemon, restored daemon) at every prefix of
# every row, at explicit parallelism 1, 2 and 8 in-process. The second
# run puts CBV_THREADS=8 behind the reference's auto-parallelism run
# (`parallelism: 0`) in a separate process.
echo "== equality matrix vs cold run_flow =="
cargo test -q -p cbv-serve --test equality
echo "== equality matrix vs cold run_flow (CBV_THREADS=8) =="
CBV_THREADS=8 cargo test -q -p cbv-serve --test equality

# The driver's shared-tier seam (scatter, and service as its tier): the
# one claim ledger's single-flight for preps and units, shared preps,
# the stalled-claimant bound and the NaN-prep signoff — at both ends of
# the worker-count range.
for threads in 1 8; do
  echo "== shared-tier seam: scatter + service unit tests (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-core --lib -- scatter:: service::
done

# E7's rates are printed, never asserted; its tests hold work per
# cycle, a count that repeats exactly on any host.
echo "== E7 smoke (CAM primitive vs expansion, as counts) =="
cargo test -q -p cbv-bench --lib e07

echo "== E14 smoke (ECO walk soundness) =="
cargo test -q -p cbv-bench e14_eco

# The benchmark's traced eco_walk section, replayed in-process: its four
# per-op cache counts are pure functions of the seed, so they must
# repeat to the digit at either end of the worker-count range. A unit
# re-verifies only when its key misses (no fanout closure), so they read
# [84.375, 4.625, 84.375, 3.625] unit/timing hits and misses per op.
# Beside them, what makes that sound: every hit equal, bit for bit, to a
# fresh verification of its unit (7,135 hits over seeded walks on alu8
# and man8 and 18 planted E16 mutants), and a neighbour edit, an
# unrelated edit and a revert byte-identical to cold run_flow on an
# owned cache and on a FlowService.
for threads in 1 8; do
  echo "== eco_walk traced counts and hit soundness (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-core --test incremental -- \
    eco_walk_traced_counts_repeat_to_the_digit \
    every_hit_replays_what_a_fresh_verification_computes \
    neighbour_edit_unrelated_edit_and_revert_stay_byte_identical
done

# The extraction oracle and work gate: the banded index's extraction
# Debug-equal to the all-pairs scan on generated designs and random
# layouts (negative coordinates and rails across the extent included),
# spliced extraction equal to a full one, and so every net re-extracted
# through the patched index; the windows' ids scanned per shape at most
# 30 and flat from alu8 to alu32, on a fresh index and on one patched
# over 24 resizes (never rebuilt there); `near`'s ids per call at most
# 30; and each coupling pair judged once (4,477 shield queries on alu8).
echo "== extraction index equals the all-pairs scan, and scans flat =="
cargo test -q --release -p cbv-extract

# The layout patch: seeded resizes of alu8, man8 and ripple8, each step's
# patched layout Debug-equal to synthesize's and its diff the multiset
# diff's (rail moves, jogs gained or dropped, other nets' stubs moved and
# declined row moves all forced), 2,000 steps a design.
echo "== a resized layout equals synthesize (long walk) =="
cargo test -q --release -p cbv-layout -- --include-ignored

# The recognition oracle: one channel-graph walk per (output, rail), with
# the function read off the stored paths, Debug-equal to the old
# two-enumerator classification on every CCC — tier-1 runs the registry
# and the small ladders; here the larger rungs (man64, cam128, rf16x16).
echo "== one walk per pull network equals the two-enumerator oracle (larger ladder) =="
cargo test -q --release -p cbv-core --test properties -- --ignored \
  one_walk_per_pull_network_equals_the_two_enumerator_oracle_on_the_larger_ladder

# Spliced fingerprints equal full ones: seeded resizes of alu8, man8
# and ripple8 (rails and state-element CCCs included), each spliced
# over the nets extraction redid, over the nets whose extraction
# changed, and over no extraction at all.
echo "== spliced fingerprints equal full ones (cbv-cache) =="
cargo test -q --release -p cbv-cache

# The splice oracle: a 500-step seeded sizing walk on an owned cache,
# each step's spliced prep Debug-equal to a full build, its unit
# fingerprints equal to the full build's, and every net re-extracted
# through its patched shape index equal to the full extraction, with
# its splice/fallback, re-extraction and re-fold counts and no index
# rebuild — at both ends of the worker-count range.
for threads in 1 8; do
  echo "== spliced prep equals a full build (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-core --test incremental spliced_prep_equals_a_full_build_on_every_step_of_a_seeded_walk
done

echo "== E15 smoke (trace waterfall + observer-effect contract) =="
cargo test -q -p cbv-bench --lib e15
cargo test -q -p cbv-core --test obs

# The mutation matrix must be byte-identical across worker counts (the
# in-test assertions cover explicit parallelism; these two runs cover
# the CBV_THREADS auto-default path in separate processes).
for threads in 1 8; do
  echo "== mutation-campaign regression (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-core --test mutation
done

# E12's faults are cbv-mutate edits at fixed, name-checked devices: its
# tests and the fault-coverage suite must pass at either end of the
# worker-count range, and the printed matrix (six detected rows) must
# not depend on the worker count.
E12_DIR=$(mktemp -d)
for threads in 1 8; do
  echo "== E12 + fault coverage (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-bench --lib e12
  CBV_THREADS=$threads cargo test -q -p cbv-core --test fault_coverage
  CBV_THREADS=$threads ./target/release/cbv-bench e12_matrix > "$E12_DIR/e12.$threads"
  [ "$(grep -c ' DETECTED ' "$E12_DIR/e12.$threads")" = 6 ] \
    || { echo "e12_matrix did not print its six detected rows"; exit 1; }
done
cmp "$E12_DIR/e12.1" "$E12_DIR/e12.8"
rm -rf "$E12_DIR"

echo "== E16 smoke (campaign detects, amortizes, and round-trips JSON) =="
cargo test -q -p cbv-bench --lib e16

# Run on its own: two lockstep clients on a design whose every unit is
# dirty at every step, so its hits are the single-flight's. The full
# suite's scheduling hid this test's state for three PRs.
echo "== E17 smoke (daemon under racing clients: sound, and warm by single-flight) =="
cargo test -q -p cbv-bench --lib e17

# The compiled 64-lane engine must stay bit-exact against the
# reference engines regardless of worker count (compilation itself is
# single-threaded, but the suite also exercises the flow paths). The
# property runs random pos/neg-edge pipelines on lane 0 against an
# independent two-phase model.
for threads in 1 8; do
  echo "== cross-engine compiled suite (CBV_THREADS=$threads) =="
  CBV_THREADS=$threads cargo test -q -p cbv-core --test cross_engine
  CBV_THREADS=$threads cargo test -q -p cbv-core --test properties two_phase_pipeline_cross_engine
done

echo "== E18 smoke (compiled-engine op count + registry sweep) =="
cargo test -q -p cbv-bench --lib e18

echo "== daemon loopback smoke (cbv eco vs cbv replay, cmp) =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"; for pid in "${SERVED_PID:-}" "${W1_PID:-}" "${W2_PID:-}"; do [ -n "$pid" ] && kill "$pid" 2>/dev/null || true; done' EXIT
E1='{"edit":"op","op":{"op":"width-scale","factor":1.25},"site":{"site":"device","device":0}}'
E2='{"edit":"resize","device":1,"w":2.0e-6,"l":3.5e-7}'
E3='{"edit":"rewire","device":0,"term":"gate","net":1}'
for threads in 1 2 8; do
  CBV_THREADS=$threads ./target/release/cbv-served --addr 127.0.0.1:0 \
    > "$SMOKE_DIR/served.out" 2> "$SMOKE_DIR/served.err" &
  SERVED_PID=$!
  for _ in $(seq 100); do
    grep -q "^listening on " "$SMOKE_DIR/served.out" && break
    sleep 0.1
  done
  ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/served.out")
  [ -n "$ADDR" ] || { echo "daemon never reported its address"; exit 1; }
  ./target/release/cbv eco "$ADDR" dcvsl "$E1" "$E2" "$E3" \
    > "$SMOKE_DIR/remote.json" 2> /dev/null
  CBV_THREADS=$threads ./target/release/cbv replay dcvsl "$E1" "$E2" "$E3" \
    > "$SMOKE_DIR/local.json" 2> /dev/null
  cmp "$SMOKE_DIR/remote.json" "$SMOKE_DIR/local.json"
  ./target/release/cbv shutdown "$ADDR" 2> /dev/null
  wait "$SERVED_PID"
  SERVED_PID=
  echo "   CBV_THREADS=$threads: remote signoff byte-identical to replay"
done

# The farm's byte-identity contract: a coordinator sharding the same
# ECO stream across two worker daemons must emit signoff bytes equal
# to the in-process replay, then drain both workers gracefully.
echo "== farm loopback smoke (cbv farm vs cbv replay, cmp) =="
for threads in 1 8; do
  CBV_THREADS=$threads ./target/release/cbv-served --addr 127.0.0.1:0 \
    > "$SMOKE_DIR/w1.out" 2> /dev/null &
  W1_PID=$!
  CBV_THREADS=$threads ./target/release/cbv-served --addr 127.0.0.1:0 \
    > "$SMOKE_DIR/w2.out" 2> /dev/null &
  W2_PID=$!
  for f in w1 w2; do
    for _ in $(seq 100); do
      grep -q "^listening on " "$SMOKE_DIR/$f.out" && break
      sleep 0.1
    done
  done
  A1=$(sed -n 's/^listening on //p' "$SMOKE_DIR/w1.out")
  A2=$(sed -n 's/^listening on //p' "$SMOKE_DIR/w2.out")
  { [ -n "$A1" ] && [ -n "$A2" ]; } || { echo "worker never reported its address"; exit 1; }
  CBV_THREADS=$threads ./target/release/cbv farm "$A1,$A2" dcvsl "$E1" "$E2" "$E3" \
    > "$SMOKE_DIR/farm.json" 2> /dev/null
  CBV_THREADS=$threads ./target/release/cbv replay dcvsl "$E1" "$E2" "$E3" \
    > "$SMOKE_DIR/farm_replay.json" 2> /dev/null
  cmp "$SMOKE_DIR/farm.json" "$SMOKE_DIR/farm_replay.json"
  ./target/release/cbv shutdown "$A1" 2> /dev/null
  ./target/release/cbv shutdown "$A2" 2> /dev/null
  wait "$W1_PID" "$W2_PID"
  W1_PID=
  W2_PID=
  echo "   CBV_THREADS=$threads: farm signoff byte-identical to replay"
done

# The interchange IR's round-trip contract: a Yosys import re-dumped
# through `ir norm` is byte-identical (the dump IS the normal form),
# and the full flow over each imported fixture reproduces the
# checked-in golden signoff byte for byte at both worker counts.
echo "== interchange IR round-trip smoke =="
./target/release/cbv ir import-yosys tests/fixtures/adder1.json > "$SMOKE_DIR/a.ir"
./target/release/cbv ir norm "$SMOKE_DIR/a.ir" > "$SMOKE_DIR/b.ir"
cmp "$SMOKE_DIR/a.ir" "$SMOKE_DIR/b.ir"
for threads in 1 8; do
  for fixture in adder1 dffpipe muxtree; do
    ./target/release/cbv ir import-yosys "tests/fixtures/$fixture.json" \
      > "$SMOKE_DIR/$fixture.ir"
    CBV_THREADS=$threads ./target/release/cbv ir flow "$SMOKE_DIR/$fixture.ir" \
      > "$SMOKE_DIR/$fixture.signoff" 2> /dev/null
    [ "$(cat "$SMOKE_DIR/$fixture.signoff")" = "$(cat "tests/fixtures/$fixture.signoff.json")" ] \
      || { echo "$fixture signoff drifted from golden (CBV_THREADS=$threads)"; exit 1; }
  done
  echo "   CBV_THREADS=$threads: three golden fixtures byte-identical"
done

# The daemon's persistence contract: eco --save, restart the daemon on
# the same state file, restore — the restored session's signoff bytes
# must survive the process boundary.
echo "== daemon save/restart/restore smoke =="
./target/release/cbv-served --addr 127.0.0.1:0 --state "$SMOKE_DIR/daemon.state" \
  > "$SMOKE_DIR/p1.out" 2> /dev/null &
SERVED_PID=$!
for _ in $(seq 100); do
  grep -q "^listening on " "$SMOKE_DIR/p1.out" && break
  sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/p1.out")
[ -n "$ADDR" ] || { echo "daemon never reported its address"; exit 1; }
./target/release/cbv eco "$ADDR" dcvsl "$E1" "$E2" "$E3" --save snap \
  > "$SMOKE_DIR/before.json" 2> /dev/null
./target/release/cbv shutdown "$ADDR" 2> /dev/null
wait "$SERVED_PID"
SERVED_PID=
./target/release/cbv-served --addr 127.0.0.1:0 --state "$SMOKE_DIR/daemon.state" \
  > "$SMOKE_DIR/p2.out" 2> /dev/null &
SERVED_PID=$!
for _ in $(seq 100); do
  grep -q "^listening on " "$SMOKE_DIR/p2.out" && break
  sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/p2.out")
[ -n "$ADDR" ] || { echo "restarted daemon never reported its address"; exit 1; }
./target/release/cbv restore "$ADDR" snap > "$SMOKE_DIR/after.json" 2> /dev/null
cmp "$SMOKE_DIR/before.json" "$SMOKE_DIR/after.json"
./target/release/cbv shutdown "$ADDR" 2> /dev/null
wait "$SERVED_PID"
SERVED_PID=
echo "   signoff bytes survive save -> restart -> restore"

# The daemon's footprint contract, in counts only: over a 2,000-step
# lockstep session the shared tier stays within its default bound, a
# request copies out at most its own design's keys, and the session
# history stays under 100 bytes a step — with the final signoff bytes
# equal to the in-process replay; and with 8 clients on 2 workers the
# daemon holds no more than the tier bound under a saturated queue.
echo "== footprint gate (lockstep session: tier bound, keyed fetch, session bytes; tier bound under a saturated queue) =="
cargo test -q -p cbv-serve --test footprint

# The auto-repair closed loop: break a registry design with a keeper
# shrink over the wire, ask the daemon to repair it, and demand the
# repaired signoff byte-identical to the clean design's replay — the
# finding -> fix -> verified-clean loop with zero slack for drift.
echo "== auto-repair loopback smoke (cbv repair vs clean cbv replay, cmp) =="
KEEPER='{"edit":"op","op":{"op":"keeper-resize","w_factor":0.25,"l_factor":1.0},"site":{"site":"device","device":73}}'
./target/release/cbv-served --addr 127.0.0.1:0 \
  > "$SMOKE_DIR/repair.out" 2> /dev/null &
SERVED_PID=$!
for _ in $(seq 100); do
  grep -q "^listening on " "$SMOKE_DIR/repair.out" && break
  sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/repair.out")
[ -n "$ADDR" ] || { echo "daemon never reported its address"; exit 1; }
./target/release/cbv repair "$ADDR" domino4 "$KEEPER" --plan "$SMOKE_DIR/plan.json" \
  > "$SMOKE_DIR/repaired.json" 2> /dev/null
./target/release/cbv replay domino4 > "$SMOKE_DIR/clean.json" 2> /dev/null
cmp "$SMOKE_DIR/repaired.json" "$SMOKE_DIR/clean.json"
grep -q '"byte_identical":true' "$SMOKE_DIR/plan.json" \
  || { echo "repair plan did not claim byte identity"; exit 1; }
ORACLE_CALLS=$(sed -n 's/.*"oracle_calls":\([0-9]*\).*/\1/p' "$SMOKE_DIR/plan.json" | tail -1)
echo "   plan oracle cost: $ORACLE_CALLS calls"
[ -n "$ORACLE_CALLS" ] && [ "$ORACLE_CALLS" -le 20 ] \
  || { echo "repair oracle cost $ORACLE_CALLS exceeds the smoke gate (20)"; exit 1; }
./target/release/cbv shutdown "$ADDR" 2> /dev/null
wait "$SERVED_PID"
SERVED_PID=
echo "   repaired signoff byte-identical to the clean design's replay"

# E22's smoke corpus asserts the headline gates in-process: byte-clean
# repair rate >= 60% of detected parametric mutants, zero class
# regressions, zero replay failures, median oracle cost <= 20 calls.
echo "== E22 smoke (repair rate floor over the mutant corpus) =="
cargo test -q -p cbv-bench --lib e22

echo "== repair end-to-end (plan byte-identity, staged-batch rejection) =="
cargo test -q -p cbv-serve --test repair

# The experiment dispatcher: a known name prints its table (to a file:
# under pipefail, `grep -q` closing a pipe early would make the binary
# panic on a broken pipe), an unknown one exits non-zero.
echo "== cbv-bench dispatcher smoke (e1_table1 prints, unknown name fails) =="
./target/release/cbv-bench e1_table1 > "$SMOKE_DIR/e1.txt"
grep -q '^E1: ' "$SMOKE_DIR/e1.txt"
if ./target/release/cbv-bench nosuch 2> /dev/null; then
  echo "cbv-bench accepted an unknown experiment name"; exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
