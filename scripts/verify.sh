#!/usr/bin/env bash
# Full verification: tier-1 build + test suite, then a ThreadSanitizer
# build running the concurrency-sensitive tests (parallel partitioned
# execution, durable resume, the counter store, the shared query store
# driven from threads, placed threads and the split duplicate report) and an
# AddressSanitizer build
# running the full suite (the snapshot codec hand-rolls binary framing,
# exactly where ASan earns its keep). Run from anywhere; builds live in
# the repo. The fork()+SIGKILL crash and chaos tests skip themselves
# under both sanitizers; the plain-fork fleet tests (equivalence matrix,
# shm cache property battery) run under ASan like everything else.
#
# The fleet smoke stage launches a real 4-process fleet through the
# sde_fleet CLI and checks its fingerprint digest against a
# single-process launch of the same plan — the process count must be
# unobservable in the results (see DESIGN.md §16). The fold smoke does
# the same for a 16-job plan on 3 processes, with both digests, so the
# coordinator folds jobs in completion order while workers run more.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs a test binary on a --gtest_filter and fails when the filter
# selects no test: this GoogleTest has no --gtest_fail_if_no_test_selected
# and passes an empty selection, so a filter naming a deleted suite would
# pass silently.
run_filtered() {
  local binary=$1 filter=$2 listed
  shift 2
  listed=$("$binary" --gtest_filter="$filter" --gtest_list_tests)
  grep -q '^  ' <<<"$listed" \
    || { echo "$binary: --gtest_filter='$filter' selects no test"; return 1; }
  "$binary" --gtest_filter="$filter" "$@"
}

echo "=== tier-1: configure + build ==="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

# Shared memory is anonymous and inherited through fork, so no test or
# smoke below may leave a named segment behind: /dev/shm's "sde_" entries
# are listed now and compared after the fleet, serve and metrics smokes.
list_sde_shm() { ls /dev/shm 2>/dev/null | grep '^sde_' || true; }
SHM_BEFORE=$(list_sde_shm)

echo "=== tier-1: ctest ==="
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "=== trace smoke: bench --trace-out -> sde_trace validate/export ==="
TRACE_SMOKE=$(mktemp -d)
trap 'rm -rf "$TRACE_SMOKE"' EXIT
./build/bench/bench_table1 --width 4 --height 4 --time 3000 \
  --trace-out "$TRACE_SMOKE" >/dev/null
./build/tools/sde_trace validate "$TRACE_SMOKE"/table1_*.trc
./build/tools/sde_trace summarize "$TRACE_SMOKE/table1_SDS.trc" >/dev/null
./build/tools/sde_trace diff "$TRACE_SMOKE/table1_SDS.trc" \
  "$TRACE_SMOKE/table1_COW.trc" >/dev/null || true  # traces differ by design
./build/tools/sde_trace export-chrome "$TRACE_SMOKE/table1_SDS.trc" \
  "$TRACE_SMOKE/table1_SDS.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
  "$TRACE_SMOKE/table1_SDS.json" 2>/dev/null \
  || echo "(python3 unavailable: skipped JSON well-formedness check)"

echo "=== bench argument smoke: a mistyped flag is a usage error ==="
# An unknown flag must stop the bench (exit 64) rather than run the
# default workload under it.
if ./build/bench/bench_parallel --node 25 >/dev/null 2>&1; then
  echo "bench_parallel --node 25 ran instead of failing"
  exit 1
fi

echo "=== solver smoke: every pipeline layer sees traffic on the example scenario ==="
run_filtered ./build/tests/sde_tests 'SolverSmokeTest.*'

echo "=== fleet smoke: 4-process launch digest == 1-process launch digest ==="
FLEET_SMOKE=$(mktemp -d)
trap 'rm -rf "$TRACE_SMOKE" "$FLEET_SMOKE"' EXIT
# --testcases drives real traffic through the shared-memory query cache
# (model enumeration is what gets published cross-process).
./build/tools/sde_fleet launch "$FLEET_SMOKE/p4" --processes 4 \
  --nodes '5*5' --time 4000 --vars 3 --testcases | tee "$FLEET_SMOKE/p4.out"
./build/tools/sde_fleet status "$FLEET_SMOKE/p4" >/dev/null
./build/tools/sde_fleet launch "$FLEET_SMOKE/p1" --processes 1 \
  --nodes '5*5' --time 4000 --vars 3 --testcases > "$FLEET_SMOKE/p1.out"
DIGEST_P4=$(grep -o 'digest [0-9a-f]*' "$FLEET_SMOKE/p4.out" | head -1)
DIGEST_P1=$(grep -o 'digest [0-9a-f]*' "$FLEET_SMOKE/p1.out" | head -1)
test -n "$DIGEST_P4" && test "$DIGEST_P4" = "$DIGEST_P1" \
  || { echo "fleet digest mismatch: p4='$DIGEST_P4' p1='$DIGEST_P1'"; exit 1; }
echo "fleet digests agree: $DIGEST_P4"

echo "=== fold smoke: 16 jobs on 3 processes == 1 process, both digests ==="
# The coordinator folds each job into the result as its worker reports
# it, while the other workers still run; with 16 jobs on 3
# processes the fold order differs from job-id order, and the
# fingerprint and test-case digests must still be the single-process
# launch's.
./build/tools/sde_fleet launch "$FLEET_SMOKE/v4p3" --processes 3 \
  --nodes '5*5' --time 4000 --vars 4 --testcases > "$FLEET_SMOKE/v4p3.out"
./build/tools/sde_fleet launch "$FLEET_SMOKE/v4p1" --processes 1 \
  --nodes '5*5' --time 4000 --vars 4 --testcases > "$FLEET_SMOKE/v4p1.out"
for label in 'fingerprint digest' 'testcase digest'; do
  FOLD_P3=$(grep -oE "$label +[0-9a-f]{16}" "$FLEET_SMOKE/v4p3.out" || true)
  FOLD_P1=$(grep -oE "$label +[0-9a-f]{16}" "$FLEET_SMOKE/v4p1.out" || true)
  test -n "$FOLD_P3" && test "$FOLD_P3" = "$FOLD_P1" \
    || { echo "fold smoke mismatch: p3='$FOLD_P3' p1='$FOLD_P1'"; exit 1; }
  echo "fold smoke: $FOLD_P3 on both"
done

echo "=== dispatch smoke: switch-dispatch digests == fused digests ==="
# The VM dispatch strategy (fused vs the switch reference interpreter)
# and same-key event batching must be unobservable in the results: re-run
# the fleet smoke plans with SDE_DISPATCH=switch and compare fingerprint
# digests against the default (fused) launches above, at both process
# counts.
SDE_DISPATCH=switch ./build/tools/sde_fleet launch "$FLEET_SMOKE/sw4" \
  --processes 4 --nodes '5*5' --time 4000 --vars 3 --testcases \
  > "$FLEET_SMOKE/sw4.out"
SDE_DISPATCH=switch ./build/tools/sde_fleet launch "$FLEET_SMOKE/sw1" \
  --processes 1 --nodes '5*5' --time 4000 --vars 3 --testcases \
  > "$FLEET_SMOKE/sw1.out"
DIGEST_SW4=$(grep -o 'digest [0-9a-f]*' "$FLEET_SMOKE/sw4.out" | head -1)
DIGEST_SW1=$(grep -o 'digest [0-9a-f]*' "$FLEET_SMOKE/sw1.out" | head -1)
test -n "$DIGEST_SW4" && test "$DIGEST_SW4" = "$DIGEST_P4" \
  || { echo "dispatch digest mismatch (p4): switch='$DIGEST_SW4' fused='$DIGEST_P4'"; exit 1; }
test "$DIGEST_SW1" = "$DIGEST_P1" \
  || { echo "dispatch digest mismatch (p1): switch='$DIGEST_SW1' fused='$DIGEST_P1'"; exit 1; }
echo "dispatch digests agree across modes and process counts: $DIGEST_SW4"

echo "=== merge smoke: merged fleet == unmerged fleet testcase digest, fewer states ==="
# State merging must be invisible in the testcase set (the differential
# battery proves this per-program; this drives it end-to-end through the
# CLI on the paper scenario) while actually reclaiming states.
./build/tools/sde_fleet launch "$FLEET_SMOKE/m-off" --processes 2 \
  --nodes '5*5' --time 4000 --vars 2 --testcases > "$FLEET_SMOKE/m-off.out"
./build/tools/sde_fleet launch "$FLEET_SMOKE/m-on" --processes 2 \
  --nodes '5*5' --time 4000 --vars 2 --testcases --merge --loop-summarize \
  > "$FLEET_SMOKE/m-on.out"
# sde_fleet pads the label with spaces; capture the 16 hex digits
# themselves, and refuse an empty capture on either side.
TC_OFF=$(grep -oE 'testcase digest +[0-9a-f]{16}' "$FLEET_SMOKE/m-off.out" \
  | grep -oE '[0-9a-f]{16}$' || true)
TC_ON=$(grep -oE 'testcase digest +[0-9a-f]{16}' "$FLEET_SMOKE/m-on.out" \
  | grep -oE '[0-9a-f]{16}$' || true)
test -n "$TC_OFF" && test -n "$TC_ON" && test "$TC_OFF" = "$TC_ON" \
  || { echo "merge testcase digest mismatch: off='$TC_OFF' on='$TC_ON'"; exit 1; }
STATES_OFF=$(grep -o 'total states *[0-9]*' "$FLEET_SMOKE/m-off.out" | grep -o '[0-9]*$')
STATES_ON=$(grep -o 'total states *[0-9]*' "$FLEET_SMOKE/m-on.out" | grep -o '[0-9]*$')
test "$STATES_ON" -lt "$STATES_OFF" \
  || { echo "merging did not reduce states: on=$STATES_ON off=$STATES_OFF"; exit 1; }
echo "merge smoke: testcase digest $TC_OFF on both, states $STATES_OFF -> $STATES_ON"

echo "=== cross-runner resume smoke: a fleet directory resumed by the thread runner ==="
# Both runners run every job through one job runner over one directory
# layout. Launch a fleet with test cases, delete one job's .done and
# corrupt another's fingerprint count, then resume the directory with
# the thread runner (sde_checkpoint, no --testcases: the run directory
# records test generation): both jobs re-run, and the digest is the
# launch's. Then delete every .done and resume with sde_fleet: the
# fingerprint and test-case digests are the launch's again. A resume
# that asks for test cases a run never generated is refused.
RESUME_SMOKE=$(mktemp -d)
trap 'rm -rf "$TRACE_SMOKE" "$FLEET_SMOKE" "$RESUME_SMOKE"' EXIT
./build/tools/sde_fleet launch "$RESUME_SMOKE/run" --processes 2 \
  --nodes '5*5' --time 4000 --vars 2 --testcases > "$RESUME_SMOKE/launch.out"
rm "$RESUME_SMOKE/run/job_0.done"
# A .done file's scenario-fingerprint count is the u64 at byte 73; bit 0
# of its top byte makes the count overrun the file.
printf '\x01' | dd of="$RESUME_SMOKE/run/job_1.done" bs=1 seek=80 \
  conv=notrunc status=none
./build/tools/sde_checkpoint resume "$RESUME_SMOKE/run" --workers 2 \
  > "$RESUME_SMOKE/resume.out"
digest_of() {
  grep -oE "$1 +[0-9a-f]{16}" "$2" | grep -oE '[0-9a-f]{16}$' || true
}
D_LAUNCH=$(digest_of 'fingerprint digest' "$RESUME_SMOKE/launch.out")
D_RESUME=$(digest_of 'fingerprint digest' "$RESUME_SMOKE/resume.out")
test -n "$D_LAUNCH" && test -n "$D_RESUME" && test "$D_LAUNCH" = "$D_RESUME" \
  || { echo "cross-runner resume mismatch: launch='$D_LAUNCH' resume='$D_RESUME'"; exit 1; }
rm "$RESUME_SMOKE"/run/job_*.done
./build/tools/sde_fleet resume "$RESUME_SMOKE/run" --processes 2 \
  > "$RESUME_SMOKE/fleet-resume.out"
D_FLEET=$(digest_of 'fingerprint digest' "$RESUME_SMOKE/fleet-resume.out")
TC_LAUNCH=$(digest_of 'testcase digest' "$RESUME_SMOKE/launch.out")
TC_FLEET=$(digest_of 'testcase digest' "$RESUME_SMOKE/fleet-resume.out")
test "$D_LAUNCH" = "$D_FLEET" && test -n "$TC_LAUNCH" \
  && test "$TC_LAUNCH" = "$TC_FLEET" \
  || { echo "fleet resume mismatch: launch='$D_LAUNCH/$TC_LAUNCH' resume='$D_FLEET/$TC_FLEET'"; exit 1; }
./build/tools/sde_fleet launch "$RESUME_SMOKE/plain" --processes 2 \
  --nodes '5*5' --time 4000 --vars 2 > /dev/null
if ./build/tools/sde_fleet resume "$RESUME_SMOKE/plain" --testcases \
  > /dev/null 2>&1; then
  echo "a resume asking for test cases the run never generated was accepted"
  exit 1
fi
echo "cross-runner resume: fingerprint digest $D_LAUNCH, testcase digest $TC_LAUNCH on every resume"

echo "=== serve smoke: submit, SIGKILL the daemon mid-job, restart, digests match direct runs ==="
SERVE_SMOKE=$(mktemp -d)
trap 'rm -rf "$TRACE_SMOKE" "$FLEET_SMOKE" "$RESUME_SMOKE" "$SERVE_SMOKE"' EXIT
SERVE_SOCK="$SERVE_SMOKE/root/serve.sock"
# A stale socket file from a killed daemon still exists while the new
# daemon rebinds, so wait with a real status round trip, not -S.
serve_wait() {
  for _ in $(seq 100); do
    ./build/tools/sde_submit status "$SERVE_SOCK" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "sde_serve did not come up"; return 1
}
./build/tools/sde_serve "$SERVE_SMOKE/root" --slots 2 --poll-ms 10 \
  --tenant batch:1 --tenant vip:4 >/dev/null &
SERVE_PID=$!
serve_wait
# Job 1: low priority, big enough to still be running at the kill.
./build/tools/sde_submit submit "$SERVE_SOCK" --tenant batch --priority 0 \
  --processes 2 --vars 2 --nodes '5*5' --time 12000 >/dev/null
# Job 2: higher priority, small.
./build/tools/sde_submit submit "$SERVE_SOCK" --tenant vip --priority 5 \
  --processes 2 --vars 2 --nodes '4*4' --time 3000 >/dev/null
sleep 0.6   # let the fleet get into the thick of job 1
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
sleep 0.5   # runners notice via PDEATHSIG and suspend
./build/tools/sde_serve "$SERVE_SMOKE/root" --slots 2 --poll-ms 10 \
  --tenant batch:1 --tenant vip:4 >/dev/null &
SERVE_PID=$!
serve_wait
./build/tools/sde_submit watch "$SERVE_SOCK" 1 >/dev/null
./build/tools/sde_submit watch "$SERVE_SOCK" 2 >/dev/null
SERVE_D1=$(./build/tools/sde_submit fetch "$SERVE_SOCK" 1 digest.txt)
SERVE_D2=$(./build/tools/sde_submit fetch "$SERVE_SOCK" 2 digest.txt)
./build/tools/sde_submit shutdown "$SERVE_SOCK"
wait "$SERVE_PID"
# Reference digests from direct fleet runs of the identical plans (the
# shared store on, as in the service runner; the digest is
# store-invariant either way).
./build/tools/sde_fleet launch "$SERVE_SMOKE/d1" --processes 2 --vars 2 \
  --nodes '5*5' --time 12000 > "$SERVE_SMOKE/d1.out"
./build/tools/sde_fleet launch "$SERVE_SMOKE/d2" --processes 2 --vars 2 \
  --nodes '4*4' --time 3000 > "$SERVE_SMOKE/d2.out"
# digest.txt is decimal, sde_fleet prints hex; bash $(( )) wraps both
# mod 2^64 identically, so -eq compares the full u64.
DIRECT_D1=$(( 16#$(grep -o 'digest [0-9a-f]*' "$SERVE_SMOKE/d1.out" | head -1 | cut -d' ' -f2) ))
DIRECT_D2=$(( 16#$(grep -o 'digest [0-9a-f]*' "$SERVE_SMOKE/d2.out" | head -1 | cut -d' ' -f2) ))
test "$(( SERVE_D1 ))" -eq "$DIRECT_D1" && test "$(( SERVE_D2 ))" -eq "$DIRECT_D2" \
  || { echo "serve digest mismatch: job1 $SERVE_D1 vs $DIRECT_D1, job2 $SERVE_D2 vs $DIRECT_D2"; exit 1; }
echo "serve digests survive SIGKILL+restart: job1=$SERVE_D1 job2=$SERVE_D2"

echo "=== metrics smoke: daemon-fetched counters == post-run stats dump, Prometheus parses ==="
METRICS_SMOKE=$(mktemp -d)
trap 'rm -rf "$TRACE_SMOKE" "$FLEET_SMOKE" "$RESUME_SMOKE" "$SERVE_SMOKE" "$METRICS_SMOKE"' EXIT
METRICS_SOCK="$METRICS_SMOKE/root/serve.sock"
metrics_wait() {
  for _ in $(seq 100); do
    ./build/tools/sde_submit status "$METRICS_SOCK" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "sde_serve did not come up"; return 1
}
./build/tools/sde_serve "$METRICS_SMOKE/root" --slots 2 --poll-ms 10 >/dev/null &
METRICS_PID=$!
metrics_wait
# --testcases: test generation is what drives the solver series.
./build/tools/sde_submit submit "$METRICS_SOCK" --tenant alice --processes 2 \
  --vars 2 --nodes '4*4' --time 3000 --testcases >/dev/null
./build/tools/sde_submit watch "$METRICS_SOCK" 1 >/dev/null
./build/tools/sde_submit status "$METRICS_SOCK" 1 > "$METRICS_SMOKE/status.txt"
# One frame through the live MetricsRequest path (service-wide).
./build/tools/sde_top "$METRICS_SOCK" --once > "$METRICS_SMOKE/top.txt"
grep -q 'slots' "$METRICS_SMOKE/top.txt"
# Per-job Prometheus text: every sample line must parse (name, optional
# {labels}, integer value), and the tenant series must carry its label.
./build/tools/sde_submit metrics "$METRICS_SOCK" 1 > "$METRICS_SMOKE/prom.txt"
test -s "$METRICS_SMOKE/prom.txt"
BAD_PROM=$(grep -vE '^#' "$METRICS_SMOKE/prom.txt" \
  | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9]+$' || true)
test -z "$BAD_PROM" \
  || { echo "unparseable Prometheus lines:"; echo "$BAD_PROM"; exit 1; }
./build/tools/sde_submit metrics "$METRICS_SOCK" > "$METRICS_SMOKE/svc.txt"
grep -q 'sde_serve_jobs_submitted{tenant="alice"} 1' "$METRICS_SMOKE/svc.txt"
# Every counter total fetched from the daemon must equal the post-run
# merged StatsRegistry dump of the same job, value for value: engine,
# interpreter, mapper and solver series alike.
./build/tools/sde_submit fetch "$METRICS_SOCK" 1 stats.txt \
  > "$METRICS_SMOKE/stats.txt"
for FAMILY in engine vm map solver; do
  test "$(grep -c "^$FAMILY\." "$METRICS_SMOKE/stats.txt")" -ge 1 \
    || { echo "stats.txt has no $FAMILY.* line"; exit 1; }
done
MISMATCH=0
while read -r NAME _ VALUE; do
  PROM_NAME="sde_$(printf '%s' "$NAME" | tr -c 'a-zA-Z0-9_:' '_')"
  PROM_VALUE=$(awk -v n="$PROM_NAME" '$1 == n {print $2}' \
    "$METRICS_SMOKE/prom.txt")
  test "$PROM_VALUE" = "$VALUE" \
    || { echo "metrics mismatch: $NAME stats=$VALUE prom=$PROM_VALUE"; MISMATCH=1; }
done < "$METRICS_SMOKE/stats.txt"
test "$MISMATCH" -eq 0
# Progress is the engine's own count: the done job's status line carries
# the post-run totals, events processed and states created.
stat_of() { awk -v n="$1" '$1 == n {print $3}' "$METRICS_SMOKE/stats.txt"; }
STATUS_EVENTS=$(sed -n 's/.* events=\([0-9]*\).*/\1/p' "$METRICS_SMOKE/status.txt")
STATUS_STATES=$(sed -n 's/.* states=\([0-9]*\).*/\1/p' "$METRICS_SMOKE/status.txt")
WANT_EVENTS=$(stat_of engine.events)
WANT_STATES=$(( $(stat_of engine.initial_states) + $(stat_of engine.forks_total) ))
test "$STATUS_EVENTS" = "$WANT_EVENTS" && test "$STATUS_STATES" = "$WANT_STATES" \
  || { echo "progress mismatch: status events=$STATUS_EVENTS states=$STATUS_STATES," \
         "stats.txt engine.events=$WANT_EVENTS initial_states+forks_total=$WANT_STATES"; exit 1; }
./build/tools/sde_submit shutdown "$METRICS_SOCK"
wait "$METRICS_PID"
echo "metrics smoke: live fetch and progress agree with post-run stats"

echo "=== shared memory: nothing named left in /dev/shm ==="
SHM_NEW=$(comm -13 <(echo "$SHM_BEFORE" | sort) <(list_sde_shm | sort))
test -z "$SHM_NEW" \
  || { echo "new /dev/shm entries after the smokes:"; echo "$SHM_NEW"; exit 1; }
echo "shared memory: no new sde_ entry in /dev/shm"

echo "=== meter identity: benchmark output check at seed 0 ==="
# The memory ledger must bill exactly what the audit walk counts: the
# benchmark's seed-0 output check compares the simulated peak (plus the
# exploration's states, events and dscenarios) with the canonical
# references, on both Table I grids.
for WORKLOAD in grid10_sds grid10_cow; do
  python3 perfbench/run.py --workload "$WORKLOAD" --seed 0 --seconds 1 \
    --trace 0 | tail -1 | python3 -c \
    'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)' \
    || { echo "meter identity: $WORKLOAD failed its output check"; exit 1; }
done
echo "meter identity: grid10_sds and grid10_cow match their references"

echo "=== release: configure + build (CMAKE_BUILD_TYPE=Release) ==="
# Optimised build: the persistent-sharing fork paths are exactly the
# kind of code where -O2 reorders lifetimes; the model-based container
# oracle (fixed seeds baked into the test) must agree here too.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j"$(nproc)"

echo "=== release: ctest ==="
ctest --test-dir build-release --output-on-failure -j"$(nproc)"

echo "=== release: PVector/CowVec, AddressSpace and register-file model oracles ==="
./build-release/tests/pvector_model_tests
./build-release/tests/memory_model_tests
./build-release/tests/register_model_tests

echo "=== release: shared query store property battery, repeated ==="
# Concurrent writers racing on one key must publish it once: repeat the
# multi-process battery and the threads-of-one-process battery (the
# thread runner's traffic) so a rare interleaving gets many chances to
# show.
run_filtered ./build-release/tests/solver_tests \
  'ShmCachePropertyTest.*:PipelineTest.SharedCacheNeverFabricatesResultsUnderConcurrency' \
  --gtest_repeat=100 --gtest_brief=1

echo "=== release: memory ledger oracle battery ==="
./build-release/tests/memory_ledger_tests

echo "=== tsan: configure + build (SDE_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DSDE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j"$(nproc)" --target support_tests sde_tests snapshot_tests \
  merge_tests solver_tests fleet_tests

echo "=== tsan: parallel execution + resume tests ==="
# The parallel runs share one shm query store between their worker
# threads, so *Parallel* drives the store from threads too. The /Threads
# resume cases run the job runner both runners share on worker threads,
# over a seeded store and over a corrupt .done file.
run_filtered ./build-tsan/tests/sde_tests '*Parallel*'
run_filtered ./build-tsan/tests/snapshot_tests '*Resume*:*CrashRecovery*'
run_filtered ./build-tsan/tests/fleet_tests \
  '*/SharedStoreResumeTest.*/Threads:*/DoneFileResumeTest.*/Threads'

echo "=== tsan: duplicate report split over placed threads ==="
# findDuplicates hashes and sorts one run of states per allowed CPU on
# helper threads bound to CPUs of their own, then counts the classes on
# the caller: the collect and random-program suites drive it on engine
# states (and the split scan at 1-8 runs), SplitScanTest on hand-built
# hash layouts.
run_filtered ./build-tsan/tests/support_tests 'PlacedThreadsTest.*'
run_filtered ./build-tsan/tests/sde_tests \
  '*CollectDuplicatesTest.*:*RandomProgramDuplicatesTest.*:SplitScanTest.*'

echo "=== tsan: shared query store from the threads of one process ==="
run_filtered ./build-tsan/tests/solver_tests 'PipelineTest.SharedCache*'

echo "=== tsan: counter store ==="
# Registries are owned by one thread each; the process-wide name table is
# the only shared structure. Eight engines on worker threads intern their
# series on first use (run alone, so the first use happens there) while
# their samplers intern fresh names.
run_filtered ./build-tsan/tests/sde_tests \
  'StatsStore.EnginesOnEightPoolThreadsInternSharedAndFreshNames'
run_filtered ./build-tsan/tests/support_tests 'Stats.*'
run_filtered ./build-tsan/tests/sde_tests 'StatsStore.*'

echo "=== tsan: merge-on vs merge-off differential battery ==="
./build-tsan/tests/merge_tests

echo "=== asan: configure + build (SDE_SANITIZE=address) ==="
cmake -B build-asan -S . -DSDE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j"$(nproc)"

echo "=== asan: ctest ==="
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"

echo "=== asan: merge-on vs merge-off differential battery ==="
# The digest equivalence check from the merge smoke, re-proven per
# random program under ASan (merge mutates live constraint sets and
# reaps states in place — exactly where lifetime bugs would hide).
./build-asan/tests/merge_tests

echo "=== asan: PVector/CowVec, AddressSpace and register-file model oracles ==="
# Copies share chunks, tails, object tables, payloads and register
# files: aliasing and block lifetimes are exactly what ASan checks.
./build-asan/tests/pvector_model_tests
./build-asan/tests/memory_model_tests
./build-asan/tests/register_model_tests

echo "=== asan: memory ledger oracle battery ==="
# Blocks bill the ledger from creation to destruction and keep it alive
# past its engine: lifetimes are exactly what ASan checks.
./build-asan/tests/memory_ledger_tests

echo "=== asan: dispatch-mode differential battery ==="
# Fused dispatch walks a pre-decoded instruction array with computed
# gotos and caches interned constants in mutable decode slots — pointer
# arithmetic ASan must bless on every seed.
./build-asan/tests/dispatch_tests

echo "=== asan: test-generation differential battery ==="
# The per-member memo holds pointers to states and their rendered blocks
# across every dscenario of a job: lifetimes are what ASan checks.
./build-asan/tests/testgen_tests

echo "=== ubsan: configure + build (SDE_SANITIZE=undefined) ==="
# UB surfaces in the expr hashing / shift-heavy solver layers and the
# snapshot codec's byte packing; -fno-sanitize-recover turns any hit
# into a test failure.
cmake -B build-ubsan -S . -DSDE_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-ubsan -j"$(nproc)"

echo "=== ubsan: ctest ==="
ctest --test-dir build-ubsan --output-on-failure -j"$(nproc)"

echo "=== ubsan: dispatch-mode differential battery ==="
# The fused handler bodies chain ALU evaluations on u64 immediates
# (shift widths, signed division edge cases); -fno-sanitize-recover
# turns any UB in a superinstruction into a hard failure.
./build-ubsan/tests/dispatch_tests

echo "=== ubsan: test-generation differential battery ==="
./build-ubsan/tests/testgen_tests

echo "=== ubsan: PVector/CowVec, AddressSpace and register-file model oracles ==="
./build-ubsan/tests/pvector_model_tests
./build-ubsan/tests/memory_model_tests
./build-ubsan/tests/register_model_tests

echo "=== verify: all green ==="
