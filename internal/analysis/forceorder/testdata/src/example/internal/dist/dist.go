// Fixture: 2PC vote derivation and the committed outcome of a one-phase
// commit (rule b) in a dist-suffixed package, against stubbed storage and
// action layers at example/internal/store and example/internal/action.
package dist

import (
	"example/internal/action"
	"example/internal/store"
)

type voteResp struct {
	OK       bool
	ReadOnly bool
}

func prepareGood(log *store.Log, txn uint64) voteResp {
	vote := voteResp{OK: false}
	err := log.Record(store.Intention{Action: txn})
	vote.OK = err == nil
	return vote
}

func prepareRederive(log *store.Log, txn uint64) voteResp {
	var vote voteResp
	in, found, err := log.Lookup(txn)
	vote.OK = err == nil && found && in.Prepared
	return vote
}

func prepareBad(log *store.Log, txn uint64) voteResp {
	var vote voteResp
	vote.OK = true // want "no dominating stable-log operation"
	go func() {
		_ = log.Record(store.Intention{Action: txn})
	}()
	return vote
}

func prepareRaced(log *store.Log, txn uint64, readonly bool) voteResp {
	var vote voteResp
	if !readonly {
		_ = log.Record(store.Intention{Action: txn})
	}
	vote.OK = true // want "no dominating stable-log operation"
	return vote
}

// Voting NO promises nothing: the literal false is exempt.
func prepareDeny() voteResp {
	var vote voteResp
	vote.OK = false
	return vote
}

// The committed outcome: what a node answers a decision query with once
// the decision record is forced, or found.
var (
	committedBody = []byte{1}
	abortedBody   = []byte{0}
)

type sink struct{ log *store.Log }

func (s sink) ApplyBatch() error { return s.log.Record(store.Intention{}) }

func committedAfterForce(a *action.Action, log *store.Log) ([]byte, error) {
	if err := a.CommitWith(sink{log}); err != nil {
		return nil, err
	}
	return committedBody, nil
}

func committedFromLog(log *store.Log, txn uint64) []byte {
	if _, found, err := log.Lookup(txn); err == nil && found {
		return committedBody
	}
	return abortedBody
}

func committedBeforeForce(a *action.Action, log *store.Log) []byte {
	reply := committedBody // want "committed answered with no dominating stable-log operation"
	_ = a.CommitWith(sink{log})
	return reply
}

func committedOnOnePath(a *action.Action, log *store.Log, live bool) []byte {
	if live {
		_ = a.CommitWith(sink{log})
	}
	return committedBody // want "committed answered with no dominating stable-log operation"
}
