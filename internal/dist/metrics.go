package dist

import "mca/internal/metrics"

// Commit-protocol telemetry, exported under mca_dist_*. Every fan-out
// round feeds these unconditionally — a round is already at least one
// network round-trip, so a few striped-counter adds are noise — while
// round spans need a tracer. Handles are resolved per RoundKind at
// init; the round path never touches a label map.
var (
	roundKinds = []RoundKind{
		RoundPrepare, RoundAbort, RoundStructure,
		RoundRelease,
	}

	roundsOK    map[RoundKind]*metrics.Counter
	roundsErr   map[RoundKind]*metrics.Counter
	roundNs     map[RoundKind]*metrics.Histogram
	roundVoteNo *metrics.Counter
	roundParts  *metrics.Counter
	recoverHeld *metrics.Counter

	// Commit throughput: outcomes and latency of coordinator-driven
	// transactions, plus the read-only prepare short-circuit.
	txnCommits    *metrics.Counter
	txnAborts     *metrics.Counter
	commitNs      *metrics.Histogram
	readonlyVotes *metrics.Counter

	// Single-site readers: commits on the spot, releases by the way they
	// travelled, and releases still owed.
	onePhaseReads       *metrics.Counter
	releasesPiggybacked *metrics.Counter
	releasesFlushed     *metrics.Counter
	releasesPending     *metrics.Gauge

	// Phase 2 of two-phase commit: commits delivered by the way they
	// travelled, decision records still waiting for an ack, participants
	// asking a silent coordinator, and the transactions the answer ended,
	// by the state it found them in.
	phase2Piggybacked, phase2Flushed *metrics.Counter
	acksAwaited                      *metrics.Gauge
	terminationQueries               *metrics.Counter
	orphansReaped                    map[state]*metrics.Counter

	// Writers' yes votes, by where they were cast — true for an invoke
	// reply, false for a prepare (of a writer whose last invoke failed) —
	// and invoke votes a continuation took back, each a wasted force.
	votesYes      map[bool]*metrics.Counter
	votesReopened *metrics.Counter
)

func init() {
	r := metrics.Default()
	rounds := r.CounterVec("mca_dist_rounds_total",
		"Coordinator fan-out rounds, by kind and outcome.", "kind", "outcome")
	latency := r.HistogramVec("mca_dist_round_ns",
		"Fan-out round duration, ns, by kind.", "kind")
	roundsOK = make(map[RoundKind]*metrics.Counter, len(roundKinds))
	roundsErr = make(map[RoundKind]*metrics.Counter, len(roundKinds))
	roundNs = make(map[RoundKind]*metrics.Histogram, len(roundKinds))
	for _, k := range roundKinds {
		roundsOK[k] = rounds.With(string(k), "ok")
		roundsErr[k] = rounds.With(string(k), "error")
		roundNs[k] = latency.With(string(k))
	}
	roundVoteNo = r.Counter("mca_dist_votes_no_total",
		"Prepare-round participants that deliberately voted NO.")
	roundParts = r.Counter("mca_dist_round_participants_total",
		"Participants addressed across all fan-out rounds.")
	recoverHeld = r.Counter("mca_dist_recover_retries_total",
		"Recovery passes that left prepared records in doubt (another pass follows).")
	txnCommits = r.Counter("mca_dist_txn_commits_total",
		"Distributed transactions committed by this process's coordinators.")
	txnAborts = r.Counter("mca_dist_txn_aborts_total",
		"Distributed transactions aborted by this process's coordinators.")
	commitNs = r.Histogram("mca_dist_commit_ns",
		"Txn.Commit duration at the coordinator, ns.").EnableExemplars()
	readonlyVotes = r.Counter("mca_dist_readonly_votes_total",
		"Prepare votes answered yes read-only: no log force, excluded from phase 2.")
	onePhaseReads = r.CounterVec("mca_dist_onephase_commits_total",
		"Single-site readers committed in one step, without a message, by kind.", "kind").With("readonly")
	releases := r.CounterVec("mca_dist_releases_total",
		"Finished single-site readers their participant was told of, by the path the word took.", "path")
	releasesPiggybacked, releasesFlushed = releases.With("piggyback"), releases.With("flush")
	releasesPending = r.Gauge("mca_dist_release_pending",
		"Finished single-site readers whose participant has not been told yet.")
	phase2 := r.CounterVec("mca_dist_phase2_total",
		"Commit decisions delivered to prepared participants, by the path they took: riding an invoke, or in the flusher's end message.", "path")
	phase2Piggybacked, phase2Flushed = phase2.With("piggyback"), phase2.With("flush")
	acksAwaited = r.Gauge("mca_dist_acks_awaited",
		"Commit decision records kept for a writer's ack that has not come yet.")
	terminationQueries = r.Counter("mca_dist_termination_queries_total",
		"Decision queries of participant transactions untouched for longer than the termination timeout.")
	reaped := r.CounterVec("mca_dist_orphans_reaped_total",
		"Participant transactions a silent coordinator left behind, ended by its answer to the decision query, by the state they were in.", "state")
	orphansReaped = map[state]*metrics.Counter{live: reaped.With("live"), prepared: reaped.With("prepared")}
	votes := r.CounterVec("mca_dist_votes_total",
		"Writers' yes votes, each behind a forced prepared record, by the message that carried them: an invoke reply or a prepare's vote.", "at")
	votesYes = map[bool]*metrics.Counter{true: votes.With("invoke"), false: votes.With("prepare")}
	votesReopened = r.Counter("mca_dist_votes_reopened_total",
		"Invoke-reply votes withdrawn because the coordinator invoked the participant again: each wasted one force.")
}
