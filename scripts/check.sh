#!/usr/bin/env bash
# check.sh — the full local gate: build, vet, tests (with race), the
# experiment suite, and a short benchmark smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

# Everything a step writes goes here, so a full run leaves the tree as it
# found it (the tracked BENCH_*.json files included).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== mcalint =="
go run ./cmd/mcalint -list
go run ./cmd/mcalint ./...

echo "== tests (race) =="
go test -race ./... -count=1

echo "== lock manager (race, -cpu sweep) =="
go test -race -cpu=1,4,8 ./internal/lock/... -count=1

echo "== metrics (race, -cpu sweep) =="
go test -race -cpu=1,4,8 ./internal/metrics/... -count=1

echo "== tests (race, runtime invariants) =="
go test -race -tags invariants ./... -count=1

# The budgets skip under -race, so the invariants build's own checks are
# held to them in a run without it.
echo "== allocation budgets (runtime invariants, no race) =="
go test -tags invariants -run 'TestTxnAllocBudget|TestWriteCommitAllocBudget|TestSmallSetsDoNotAllocate|TestEnvelopeCodecAllocs|TestCallRawAllocs' ./internal/... -count=1

echo "== stable log + 2PC: crash matrices (restarts in doubt among them), seeded crash schedules, appender-run forces and write-set ownership, force and message budgets (repeated writes at one node included), votes in first invoke replies, fake-clock releases and lazy phase 2, one capture per prepared write set, the idle rule against silent coordinators and late messages, a retransmitted call reaching a restarted participant over TCP with one connection per node pair, a remote-only transaction owning no action at its coordinator and the decision table answering for it, a local action ending with its transaction, overlapping invokes refused, a restart bounded by one call timeout against a silent coordinator, mid-log damage, span attribution across per-node files, distributed structures (constituent budgets, commits lost in flight, crashes before End), clean stop; the striped action registry; every operation one step against its action's end (aborts, commits and late lock grants in the step's window); object before-images and state codec; concurrent callers sharing TCP writes; one TCP connection per node pair read at both ends (a call and its reply dial once, a crashed endpoint adopts no connection, simultaneous dials lose nothing and end on one connection, a restarted endpoint's pair ends on one connection, one read per datagram, no lost wake-up); the push dispatch (tcpnet read loops and netsim deliveries calling rpc) racing Stop and Crash; the span recorder against its reference model (race, -cpu sweep) =="
go test -race -cpu=1,4 ./internal/store/... ./internal/node/... ./internal/action/... ./internal/object/... ./internal/tcpnet/... ./internal/rpc/... ./internal/netsim/... ./internal/trace/... -count=1
go test -race -cpu=1,4 -run 'TestCommitCrashMatrix|TestSeededCrashSchedules|TestRestartedNodeRefusesOnlyInDoubtObjects|TestRecoveryRetriesThroughStoreBlip|TestDurableTransferForcesThreeTimes|TestDurableTransferSendsFourMessages|TestSingleParticipantWriteForcesTwice|TestRepeatedWritesCostOneReopenedVote|TestParticipantCrashBeforePrepareAborts|TestAsymmetricPartitionDuringCompletion|TestRelease|TestSingleSiteRead|TestMultiSiteReadOnly|TestOnePhase|TestFailedWrite|TestQuietCluster|TestSentCommits|TestPiggybackedPhase2|TestPreparedParticipant|TestIdleRuleRacesLateMessages|TestCommitOneCrashedParticipant|TestPlainTransferCaptures|TestTracedCommitMergesToOneTreeWithoutOrphans|TestAttributionAcrossNodeFiles|TestRemoteSerializing|TestRemoteChain|TestConstituent|TestHeldHandlerChangesNothingAfterRestart|TestRetransmittedFirstInvokeFindsTheRestartsVote|TestStaleTxnCannotDecide|TestRetransmittedCallReachesRestartedParticipant|TestOverlappingInvokeIsRefused|TestRestartWaitsOneCallTimeoutForASilentCoordinator|TestRemoteOnlyTxnOwnsNoActionAtItsCoordinator|TestLocalActionEndsWithItsTxn' ./internal/dist/ -count=1

# The idle rule's abort against a late continuation failed about 4 % of
# runs while an operation and its action's end were not ordered: 100 runs
# miss such a race about once in a hundred.
echo "== idle rule against late messages (race, 100 runs) =="
go test -race -run 'TestIdleRuleRacesLateMessages' -count=100 ./internal/dist/

# A dial race ends on one connection only once the loser's FIN is read,
# which arrives with its last frames: a read loop that trusts every short
# read misses it in some rounds. 50 runs of 20 rounds.
echo "== simultaneous dials end on one connection (race, 50 runs) =="
go test -race -run 'TestSimultaneousDialsEndOnOneConnection' -count=50 ./internal/tcpnet/

echo "== commit throughput (smoke, race) =="
go test -race -short -run 'TestCommitThroughputSmoke' ./internal/dist/ -count=1

# Allocation counts are checked without -race: the detector allocates,
# and sync.Pool drops a quarter of what is put into it.
echo "== allocation budgets (envelope, call, colour sets, write + commit, transaction path) =="
go test -run 'TestEnvelopeCodecAllocs|TestCallRawAllocs' ./internal/rpc/ -count=1 -v | grep -v '^=== RUN'
go test -run 'TestSmallSetsDoNotAllocate' ./internal/colour/ -count=1
go test -run 'TestWriteCommitAllocBudget' ./internal/object/ -count=1 -v | grep -v '^=== RUN'
go test -run 'TestTxnAllocBudget' ./internal/dist/ -count=1 -v | grep -v '^=== RUN'

echo "== 2PC body and object state decoders, TCP frame stream parser (fuzz smoke) =="
go test -run xxx -fuzz 'FuzzDistBodyDecode' -fuzztime 10s ./internal/dist/
go test -run xxx -fuzz 'FuzzStateDecode' -fuzztime 10s ./internal/object/
go test -run xxx -fuzz 'FuzzFrameStream' -fuzztime 10s ./internal/tcpnet/

echo "== rpc call path (bench smoke) =="
go test -run xxx -bench 'BenchmarkRPCCall|BenchmarkConcurrentCallers' -benchtime 10x -benchmem ./internal/tcpnet/

echo "== loadgen (capacity smoke + report schema) =="
go run ./cmd/loadgen -smoke -json "$tmp/loadgen.json"
go run ./cmd/loadgen -validate "$tmp/loadgen.json"

echo "== experiments =="
go run ./cmd/experiments -capacityjson "$tmp/BENCH_capacity.json" -attribjson "$tmp/BENCH_attrib.json"

echo "== examples =="
for ex in quickstart distributedmake meetingscheduler bulletinboard timelines remotemeeting; do
  echo "-- $ex"
  go run "./examples/$ex" > /dev/null
done

echo "== tracecat (quickstart span export) =="
tracedir="$tmp/trace"
mkdir "$tracedir"
MCA_TRACE_DIR="$tracedir" go run ./examples/quickstart > /dev/null
go run ./cmd/tracecat -check "$tracedir"/node*.jsonl
go run ./cmd/tracecat -chrome "$tracedir/chrome.json" -dot "$tracedir/trace.dot" "$tracedir"/node*.jsonl > /dev/null
go run ./cmd/tracecat -slowest 5 -attrib "$tracedir"/node*.jsonl > /dev/null
test -s "$tracedir/chrome.json" && test -s "$tracedir/trace.dot"

echo "== benchmarks (smoke) =="
go test -run xxx -bench . -benchtime 10x .

echo "== repository benchmark (bench/: tests, vet, 1 s smoke of every workload) =="
(cd bench && go test ./... -count=1 && go vet ./...)
bash bench/run.sh -smoke

echo "ALL CHECKS PASSED"
