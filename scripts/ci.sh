#!/usr/bin/env bash
# Tier-1 gate: build everything, vet, and run the full test suite with
# the race detector enabled. The race run is mandatory — internal/fabric
# and internal/parsched mutate one shared link state from many
# goroutines, and their tests (plus the linkstate misuse tests) only
# prove their guarantees under -race.
set -euo pipefail
cd "$(dirname "$0")/.."

# gotest is go test behind a guard: each alternative of a -run, -bench or
# -fuzz pattern (its top-level name, before any '/') must name a test,
# benchmark or fuzz target in one of the line's packages, by go test
# -list. A pattern that matches nothing only prints "no tests to run" and
# exits 0, so without the guard a renamed or deleted test would drop out
# of its line unnoticed. The patterns '^$' and '.' are exempt.
gotest() {
	local args=("$@") pats=() pkgs=() alts=() i pat alt out
	for ((i = 0; i < ${#args[@]}; i++)); do
		case ${args[i]} in
		-run | -bench | -fuzz) pats+=("${args[i + 1]}"); i=$((i + 1)) ;;
		. | ./*) pkgs+=("${args[i]}") ;;
		esac
	done
	for pat in ${pats[@]+"${pats[@]}"}; do
		[[ $pat == '^$' || $pat == . ]] && continue
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			out=$(go test -list "${alt%%/*}" "${pkgs[@]}")
			if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$out"; then
				echo "ci.sh: pattern '$alt' (of '$pat') names nothing in ${pkgs[*]}" >&2
				exit 1
			fi
		done
	done
	go test "$@"
}

go build ./...
go vet ./...

# Formatting gate: fail on any file gofmt would rewrite.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l flagged:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Clock gate: no test sleeps. The serving layer reads the time and arms
# its timers through internal/clock, so a test that needs time to pass
# advances a clock.Fake, and one that waits on another goroutine yields.
if sleepers=$(grep -rln --include='*_test.go' 'time\.Sleep' internal cmd); then
	echo "tests that call time.Sleep (advance a clock.Fake instead):" >&2
	echo "$sleepers" >&2
	exit 1
fi

gotest -race ./...

# Concurrency-focused pass: re-run the parallel engine, the link state
# (whose TryAllocate/AtomicRelease compare-and-swap loops on the row words
# are what the racy mode races on), the fabric manager (including the
# fault revoke/re-admit chaos tests and the gray-failure flap-damping
# chaos test), the fault-injection package, and the federation router
# (its generator kills planes and migrates circuits on hook goroutines,
# plus the probe and degraded-plane tests) under -race with a doubled
# count, shaking out interleavings a single full-suite run can miss.
gotest -race -count=2 ./internal/parsched ./internal/linkstate ./internal/fabric ./internal/faults ./internal/federation

# Shard-engine stress: the high-worker-count shard tests (16 workers on
# deliberately small trees, steal on and off) force maximal queue
# contention and whole-shard steals; -count=2 under -race shakes out
# claim/steal interleavings a single run can miss.
gotest -race -count=2 -run 'HighWorker' ./internal/parsched

# Level-pipeline race pass: the word kernel's differential oracle (which
# runs batches the level pipeline takes on the warm helper, on the caller
# alone and at GOMAXPROCS 1), callers racing for the one helper, the helper
# starting only where the pipeline engages; the caller/helper hand-off is
# only proven under -race, and -count=2 shakes out interleavings a single
# run can miss.
gotest -race -count=2 -run 'TestWordKernelMatchesReference|TestLevelPipeline' ./internal/core

# Bench smoke: compile and run every benchmark for exactly one iteration
# so bit-rot in the bench harnesses (including the parallel-engine and
# zero-allocation benches) fails CI without costing bench-grade runtime.
gotest -run '^$' -bench . -benchtime 1x ./...

# Hot-path smoke: the cursor-advance, tree-construction, Level-wise sweep
# and fabric-release benches exercise the table-driven topology kernel,
# the word kernel and the lock-free release ring end to end (including
# the /arith oracle variants); run them explicitly so a rename never
# silently drops them from the net above.
gotest -run '^$' -bench 'BenchmarkRouteCursor|BenchmarkTopologyNew' -benchtime 1x ./internal/topology
gotest -run '^$' -bench 'BenchmarkLevelWise' -benchtime 1x ./internal/core
# The same sweep on one CPU and two: the FT(3,16,16) permutation row takes
# the level pipeline at -cpu 2 (EXPERIMENTS.md E31).
gotest -run '^$' -bench 'BenchmarkLevelWiseAllocs/FT3x16x16' -benchtime 1x -cpu 1,2 ./internal/core
gotest -run '^$' -bench 'BenchmarkFabricRelease' -benchtime 1x ./internal/fabric
gotest -run '^$' -bench 'BenchmarkFederationAdmit' -benchtime 1x -cpu 1,2 ./internal/federation

# Scaling-study smoke: one shard-engine point of the multi-core sweep
# (EXPERIMENTS.md E19), so the -cpu matrix harness keeps compiling and
# the shard fast path keeps running end to end.
gotest -run '^$' -bench 'BenchmarkScalingEngines/FT3x8x8/batch4096/local/shard$' -benchtime 1x -cpu 2 .

# Config round-trip smoke: the generator's output must load through the
# server's own -config path (stdin form), end to end through both CLIs,
# every gray knob included — fttopo gen is the only place they are flags.
gen() {
	go run ./cmd/fttopo gen -planes 4 -levels 3 -children 4 -parents 4 -policy least-loaded -flap-threshold 3
}
gen | go run ./cmd/ftserve -config - -validate
# refuse WHAT WANT CMD... runs CMD, which must fail and name what it
# refused: WANT must appear in its output.
refuse() {
	local what=$1 want=$2 out
	shift 2
	if out=$("$@" 2>&1); then
		echo "accepted $what" >&2
		exit 1
	fi
	case $out in
	*"$want"*) ;;
	*) echo "refused $what without naming it: $out" >&2; exit 1 ;;
	esac
}
# validate SED-EXPR loads gen's output, edited by SED-EXPR, in ftserve.
validate() {
	gen | sed "$1" | go run ./cmd/ftserve -config - -validate
}
# A retired knob is refused by name, never silently dropped: router keys
# and plane keys, among them a breaker dial and a repair dial that became
# constants.
refuse "the retired open_below key" 'unknown field "open_below"' validate 's/"policy"/"open_below": 0.15, "policy"/'
refuse "the retired weight key" 'unknown field "weight"' validate 's/"levels"/"weight": 2, "levels"/'
refuse "the retired probe_interval key" 'unknown field "probe_interval"' validate 's/"policy"/"probe_interval": "50ms", "policy"/'
refuse "the retired repair_backoff key" 'unknown field "repair_backoff"' validate 's/"levels"/"repair_backoff": "2ms", "levels"/'
# A switch wider than a machine word is refused by name: every Ulink and
# Dlink row is one word (topology.ErrWideSwitch).
refuse "a switch with 65 parents" "wide switch: more than 64 parents" go run ./cmd/ftsched -levels 2 -children 4 -parents 65
# One road: a shape or queue flag next to -config is refused, not dropped.
if gen | go run ./cmd/ftserve -config - -batch 1 -validate 2>/dev/null; then
	echo "ftserve accepted -batch next to -config" >&2
	exit 1
fi

# Allocation-regression guard: the scheduling hot path must stay at zero
# allocations per request — including the delta path and the
# level pipeline, which the same test pins; -count=2 re-runs it against
# warm scratch state, which is where a regression would hide. The word
# kernel's differential oracle (the kernel, the pipeline and both
# traversals against the []bool reference Level-wise of
# internal/core/coretest, over every option, tree form and starting state)
# and the concurrent-callers test of the level pipeline ride along, run
# twice for the same reason.
gotest -run 'TestScheduleIntoZeroAllocs|TestWordKernelMatchesReference|TestLevelPipelineConcurrentCallers' -count=2 ./internal/core

# Load-counter contracts: the word-form release walk against the
# per-channel walk it replaced (every tree form, tracked and untracked,
# double releases, and faulted states: clean routes, routes naming a
# failed channel, rollback prefixes), the property test that holds the
# occupancy gauge to the popcount truth, Unavailable to it plus the failed
# channels, and the cumulative counters to two per port picked after every
# kind of mutation, the denial-cause oracle (BlockedByMask against
# Level-wise first-fit on a fresh state carrying only the mask, every pair
# of four tree forms over seeded fault sets), and the whole State against a
# plain per-channel model (seeded sequences of every mutation, tracked and
# untracked, rows of 4, 8 and 64 bits, every read and every refusal checked
# after each step); -count=2 for the same reason as above. The shard
# engine's half of the single-writer contract
# (TestShardHighWorkerTrackedState) rides the -race HighWorker line.
gotest -run 'TestReleasePathWordFormMatchesChannelWalk|TestLoadCounters|TestLoadGauge|TestBlockedByMaskMatchesLevelWise|TestStateMatchesBoolModel' -count=2 ./internal/linkstate
gotest -run 'TestLoadTrackingHoldsUnderEveryMutation' -count=2 ./internal/core

# The operation generator, both modes: seeded sequences on five trees and
# every sequence of up to four operations on FT(2,2,2) and FT(3,2,2), with and
# without rollback, run against the reference fabric (the test-support
# package internal/fabric/fabrictest) — CheckInvariants and
# the reference's link rows after every operation (epochs with
# cancellations and retained partial routes, split releases, Fail with its
# revocations, Repair, RepairAll, quarantine, ClearQuarantine, Stats,
# Close, and advancing the fake clock both run on, which ends backoffs and
# decays flap scores, and is the only operation that ends a quarantine:
# no epoch, Stats or fault verb settles one), verdicts bit for bit, every repair's
# attempts counted against the reference's, Routable Level-wise first-fit
# for every pair; and readers racing 32 churning clients see no torn row
# of the published view; under -race, -count=2 as above.
gotest -race -run 'TestGenerator$|TestGeneratorExhaustive|TestRoutableRacesChurn' -count=2 ./internal/fabric
# The router generator, both modes, and its three named seeds: seeded
# sequences on seven federations of one to four planes (fed_degraded's
# shape among them) and every sequence of up to three operations on two
# FT(2,2,2) planes, run against the reference
# router (one reference fabric per plane) — Router.CheckInvariants, Stats,
# breaker state, each plane's Routable and Admit calls and every handle's
# fate after every operation (split Connects, releases, Fail, KillPlane,
# Repair, RepairPlane, degraded planes, Close, and advancing the fake clock
# through repair backoffs, migrations and half-open probes), each walk and
# each repair attempt bit for bit while it ran alone (the second look
# included: a walk no plane granted asks again each plane that was only
# full, breaker closed, rows routing the pair); under -race, -count=2 as
# above. Beside them, the register re-check reached by a fixed sequence in
# any build mode, and the second look's own witnesses: a release landing on
# one plane while the walk waits on another, granted by the second look,
# and no second look for a fault-blocked or draining plane or a
# one-candidate walk.
gotest -race -run 'TestRouterGenerator$|TestRouterGeneratorExhaustive|TestRouterGeneratorTerminalWindowSeed|TestRouterGeneratorRegisterSeed|TestRouterGeneratorScoreRuleSeed|TestRouterRegisterWindow$|TestSecondLookGrantsFreedPlane$|TestSecondLookOnlyForFullPlanes$' -count=2 ./internal/federation

# Spec fuzz: no input makes sched.Parse panic, and an accepted spec's engine
# schedules a seeded batch that core.Verify passes and whose routes release
# back to a fresh state.
gotest -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/sched
# Config fuzz: any file the config parser accepts, with small planes, is
# accepted by Validate exactly when Build and New succeed.
gotest -run '^$' -fuzz FuzzValidateMatchesNew -fuzztime 10s ./internal/federation
# Request-body fuzz: POST /connect and /release answer decodeBody's 400
# exactly when a strict decoder (unknown fields refused, one JSON value)
# refuses the body; a body sent with its Content-Length, which may take
# the fixed-shape scanner, gets the status and text it gets chunked, which
# never does; a body cut short is a 400; and a 200 carries what the strict
# decoder read.
gotest -run '^$' -fuzz FuzzConnectBody -fuzztime 10s ./cmd/ftserve
gotest -run '^$' -fuzz FuzzReleaseBody -fuzztime 10s ./cmd/ftserve

# Histogram oracle: the fixed-size recent-sample histogram behind every
# Stats distribution against stats.Summarize / Percentile / Histogram over
# the samples it retains (bucket edges, one-bucket percentile error,
# generation rotation, merge = record-all); -count=2 as above.
gotest -run 'TestHist|TestRecent' -count=2 ./internal/stats

# Delta-vs-batch golden smoke: over an arrivals-only workload the delta
# path must stay bit-identical to ScheduleInto.
gotest -run 'TestIncrementalArrivalsOnlyGolden' ./internal/core

# Churn-workload smoke: one small seeded run of the batch-replay vs
# incremental comparison (EXPERIMENTS.md E20), so the -churn harness
# keeps running end to end without bench-grade runtime.
go run ./cmd/ftbench -churn -churn-rate 8 -churn-life 4 -churn-epochs 20 -churn-reuse 2 -seed 1

# Fault-study determinism: E17 (link failures and repairs) and E21 (flaky
# links, flap damping, reuse-cost repair placement, a slow plane) run on
# simulated time, so each prints the same bytes on a second run and at
# -workers 1 as at -workers 4. Each cell also fails the run when a
# connection goes unaccounted or repair attempts exceed the retry bound.
fault_tables=$(mktemp -d)
trap 'rm -rf "$fault_tables"' EXIT
for e in e17 e21; do
	go run ./cmd/ftbench -only "$e" -perms 5 -seed 1 -workers 4 >"$fault_tables/$e.a"
	go run ./cmd/ftbench -only "$e" -perms 5 -seed 1 -workers 4 >"$fault_tables/$e.b"
	go run ./cmd/ftbench -only "$e" -perms 5 -seed 1 -workers 1 >"$fault_tables/$e.w1"
	cmp "$fault_tables/$e.a" "$fault_tables/$e.b"
	cmp "$fault_tables/$e.a" "$fault_tables/$e.w1"
done

# Connect-enqueue allocation guard: the admission enqueue path (pooled
# ticket + queue append and count under qmu) must stay at zero allocations
# per request; -count=2 re-runs it against a warm ticket pool, which is
# where a pool regression would hide.
gotest -run 'TestConnectEnqueueZeroAllocs' -count=2 ./internal/fabric
# Grant allocation guards: a bare Manager grant is one allocation (the
# Handle, route inline) and none of it under the scheduling lock — a full
# all-grant epoch with its tickets' spare Handles in place allocates
# nothing — a federated Connect + Release two (both handles), and
# ordering the candidate planes none; a Stats snapshot allocates its Hist
# slices and nothing else, after ten epochs as after 10^5, and copies
# under 24 KB of histograms. Run without -race: the tests skip themselves
# under it.
gotest -run 'TestGrantOneAlloc|TestEpochAllocatesNothingUnderLock|TestHandleSize|TestStatsAllocatesO1' -count=2 ./internal/fabric
gotest -run 'TestRouterConnectAllocs' -count=2 ./internal/federation
# ftserve's hot verbs: a /connect + /release round trip allocates only the
# two handles and the copied route, a /release nothing.
gotest -run 'TestHotVerbAllocs' -count=2 ./cmd/ftserve

# Admission-pipeline race pass: the cancellation-vs-pooled-ticket chaos
# test and the release-ring tests prove exactly-once verdict delivery
# and exactly-once retirement only under -race; so do the backpressure
# tests (a full queue's waiters all woken by the next queue swap or by
# Close, each counted once) and the tests of who runs an epoch and who
# reads a route (lock-free Ports against the repair loop, size closing
# with repair tickets mid-fill, one deadline over several batches, no
# manager goroutine) and of who allocates a Handle and who reads the load
# counters (a spare surviving a denial and dying with a cancelled ticket,
# Stats polling while epochs count channels and record histograms with
# plain stores, the snapshot's JSON keys); -count=2 shakes out hand-off
# interleavings a single run can miss.
gotest -race -count=2 -run 'TestCancelRacesPooledTickets|TestDrainRefusedCounter|TestBackpressure|TestReleaseRing|TestPortsDoesNotTakeSchedulingLock|TestPortsRacesRepair|TestSizeClosingNeverStrands|TestDeadlineCoversLaterBatch|TestIdleManagerRunsNoGoroutine|TestSpareSurvivesDenial|TestStatsOccupancyMatchesUtilization|TestStatsJSONKeys' ./internal/fabric

# The generator's two named seeds. Parked-Release-vs-Fail-vs-Repair: the
# seed that reaches, on its own, a release claimed, a Fail crossing its
# route, RepairAll and the release parked — the interleaving that once
# panicked the teardown (it took the chaos harness 50-150 runs under CPU
# oversubscription to hit). Quarantine extension: the seed whose Fail
# extends a quarantine and whose next operation advances past the new end,
# which only the timer the extending flap re-armed can lift. Beside them,
# the one probation timer a quarantined channel keeps however often it
# flaps.
gotest -race -count=2 -run 'TestGeneratorParkedReleaseSeed$|TestGeneratorQuarantineExtensionSeed$|TestQuarantineKeepsOneTimer$' ./internal/fabric

# Benchmark-harness smoke: bench/ is its own module, so nothing above
# builds it; compile it and run its tests against the current API. This
# is where rates and latencies are exercised: the tests smoke-run all
# four workloads (batch_perm, fabric_churn, fed_degraded, http_rt), and
# nothing else in the repository reports a rate or a latency.
(cd bench && go test ./...)

# Pairs-tool analysis: scripts/testdata/pairs holds three alternating
# pairs of fabric_churn runs recorded from one commit on both sides. Their
# analysis (medians, spreads, verdicts, wins, gaps, ratios) must match the
# recorded report byte for byte and, one commit against itself, read no
# BREACH. The assertion lives here, on recorded runs, because it is about
# the tool: live one-second runs spread 25-140 % on a shared host, so a
# live BREACH would be about the host.
report=$(bash scripts/pairs-report.sh fabric_churn scripts/testdata/pairs/parent.jsonl scripts/testdata/pairs/change.jsonl)
if [ "$report" != "$(cat scripts/testdata/pairs/report.txt)" ]; then
	diff <(echo "$report") scripts/testdata/pairs/report.txt >&2 || true
	echo "scripts/pairs-report.sh: the recorded runs no longer give the recorded report" >&2
	exit 1
fi
if grep -q BREACH <<<"$report"; then
	echo "scripts/pairs-report.sh: one commit against itself reported a BREACH" >&2
	exit 1
fi
# Pairs-tool live smoke: HEAD against itself on two one-second pairs of one
# workload runs both worktree builds and the alternation; the table must
# count both pairs. Its verdicts are the host's, so they are not asserted.
pairs=$(bash scripts/pairs.sh HEAD HEAD --workload fabric_churn --pairs 2 --seconds 1)
echo "$pairs"
if ! grep -qE '^req_per_s +[0-2]/2 ' <<<"$pairs"; then
	echo "scripts/pairs.sh: HEAD against itself printed no wins table for both pairs" >&2
	exit 1
fi
