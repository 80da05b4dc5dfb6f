package dist

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
)

// idleFixture is a coordinator and two participants, each hosting two
// integer registers, x and y, as resource "reg": an operation names the
// register and its argument is the amount it adds. The tests deliver the
// participants' messages straight to their handlers — the late, re-ordered
// ones a transport would carry — and run the idle rule's resolution
// (resolve) beside them. fileBacked puts each node's store in a log file.
type idleFixture struct {
	coord *Manager
	parts [2]*Manager
	regs  [2][2]*object.Managed[int]
}

func newIdleFixture(t *testing.T, fileBacked bool) *idleFixture {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	newNode := func() *node.Node {
		opts := []node.Option{node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond})}
		if fileBacked {
			opts = append(opts, node.WithStableDir(t.TempDir()))
		}
		nd, err := node.New(nw, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		return nd
	}
	f := &idleFixture{coord: NewManager(newNode())}
	for p := range f.parts {
		nd := newNode()
		f.parts[p] = NewManager(nd)
		for r := range f.regs[p] {
			f.regs[p][r] = object.New(0, object.WithStore(nd.Stable()))
		}
		f.parts[p].RegisterResource("reg", ResourceFunc(func(a *action.Action, op string, arg []byte) ([]byte, error) {
			var d int
			if err := json.Unmarshal(arg, &d); err != nil {
				return nil, err
			}
			reg := f.regs[p][0]
			if op == "y" {
				reg = f.regs[p][1]
			}
			return []byte("{}"), reg.Write(a, func(v *int) error { *v += d; return nil })
		}))
	}
	return f
}

// invoke delivers an invoke of txn to participant p.
func (f *idleFixture) invoke(p int, txn ids.ActionID, continuation bool, reg string, d int) error {
	body := appendInvokeReq(nil, &invokeReq{Txn: txn, Continuation: continuation, Resource: "reg", Op: reg, Arg: []byte(strconv.Itoa(d))})
	_, err := f.parts[p].cur.Load().handleInvoke(context.Background(), f.coord.Node().ID(), body)
	return err
}

// restart crashes and restarts participant p and activates its registers
// anew from the next incarnation's store: the ones in memory died with the
// crash.
func (f *idleFixture) restart(t *testing.T, p int) {
	t.Helper()
	nd := f.parts[p].Node()
	nd.Crash()
	if err := nd.Restart(); err != nil {
		t.Fatal(err)
	}
	for r, reg := range f.regs[p] {
		m, err := object.Load[int](reg.ObjectID(), nd.Stable())
		if errors.Is(err, store.ErrNotFound) {
			m, err = object.New(0, object.WithID(reg.ObjectID()), object.WithStore(nd.Stable())), nil
		}
		if err != nil {
			t.Fatal(err)
		}
		f.regs[p][r] = m
	}
}

// stable returns participant p's registers as its stable store holds them.
func (f *idleFixture) stable(t *testing.T, p int) (out [2]int) {
	t.Helper()
	for r, reg := range f.regs[p] {
		m, err := object.Load[int](reg.ObjectID(), f.parts[p].Node().Stable())
		switch {
		case errors.Is(err, store.ErrNotFound):
		case err != nil:
			t.Fatal(err)
		default:
			out[r] = m.Peek()
		}
	}
	return out
}

// race runs fns at once and waits for all of them.
func race(fns ...func()) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fn()
		}()
	}
	close(start)
	wg.Wait()
}

// TestIdleRuleRacesLateMessages is the race between a participant ending a
// transaction its coordinator went silent on and a late message of that
// same transaction (Xu, Randell, Romanovsky, Stroud and Zorzo's concern
// with an abort that overtakes a commit). The coordinator holds no
// decision and runs no such transaction, so the rule's answer is "aborted",
// against which a late continuation invoke races; or it holds the commit
// decision, and the rule's install races the commits carried to the
// writers. Whatever the interleaving, exactly one outcome wins at every
// participant, nothing is installed twice, and money is conserved. A writer
// acks a carried commit only once the install is forced, whichever side
// made it: a crash right after the ack keeps the install and does not
// bring the prepared record back, to be asked about once the coordinator,
// holding every ack, has forgotten its decision.
func TestIdleRuleRacesLateMessages(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) { raceIdleRule(t, newIdleFixture(t, backing == "file")) })
	}
}

func raceIdleRule(t *testing.T, f *idleFixture) {
	ctx := context.Background()
	coord := f.coord.Node().ID()
	// resolve runs the rule at participant p, and again until its answer
	// came: a coordinator asked mid-race may not have one yet.
	resolve := func(p int, txn ids.ActionID) {
		for range 20 {
			if _, err := f.parts[p].cur.Load().resolve(ctx, txn, coord); err == nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("participant %d never resolved %v", p, txn)
	}
	var want [2][2]int
	check := func(round int, what string) {
		t.Helper()
		for p := range f.parts {
			if got := f.stable(t, p); got != want[p] {
				t.Fatalf("round %d, %s: participant %d holds %v, want %v", round, what, p, got, want[p])
			}
			for r, reg := range f.regs[p] {
				if got := reg.Peek(); got != want[p][r] {
					t.Fatalf("round %d, %s: participant %d's register %d reads %d in memory, want %d", round, what, p, r, got, want[p][r])
				}
			}
		}
	}
	for round := range 40 {
		// The late message leaves a little later each round, across the
		// decision query's round trip, so that either side can win.
		late := time.Duration(round%10) * 50 * time.Microsecond
		// A transfer invoked at both participants, each voting in its
		// reply, whose coordinator went away: the rule aborts it, whether or
		// not a continuation reopening P0's vote overtakes it — and a
		// continuation that comes after is refused.
		txn := ids.NewActionID()
		for p, d := range []int{-1, 1} {
			if err := f.invoke(p, txn, false, "x", d); err != nil {
				t.Fatal(err)
			}
		}
		race(func() { resolve(0, txn) }, func() { resolve(1, txn) }, func() { time.Sleep(late); _ = f.invoke(0, txn, true, "x", -1) })
		if err := f.invoke(0, txn, true, "x", -1); err == nil {
			t.Fatalf("round %d: a continuation after the rule aborted the transaction was served", round)
		}
		check(round, "continuation")

		// A prepared transfer whose coordinator holds the commit decision:
		// the rule's install races the commits carried to both writers.
		txn = ids.NewActionID()
		for p, d := range []int{-1, 1} {
			if err := f.invoke(p, txn, false, "x", d); err != nil {
				t.Fatal(err)
			}
			vote, err := f.parts[p].cur.Load().handlePrepare(ctx, coord, appendPrepareReq(nil, prepareReq{Txn: txn, Coordinator: coord}))
			if v, _ := decodeVote(vote); err != nil || !v.OK {
				t.Fatalf("round %d: participant %d voted %+v, %v", round, p, v, err)
			}
		}
		log := f.coord.Node().Stable().Intentions()
		err := log.Record(store.Intention{Action: txn, Status: store.IntentionCommitted, Coordinator: coord, Participants: []ids.NodeID{f.parts[0].Node().ID(), f.parts[1].Node().ID()}})
		if err != nil {
			t.Fatal(err)
		}
		carry := func(p int, late time.Duration) func() {
			return func() {
				time.Sleep(late)
				reply, err := f.parts[p].cur.Load().handleEnd(ctx, coord, appendEndReq(nil, &endReq{Commit: txnList{}.add(txn)}))
				if err != nil {
					t.Error(err)
					return
				}
				acked := false
				if acks, err := decodeAck(reply); err == nil {
					acks.each(func(a ids.ActionID) { acked = acked || a == txn })
				}
				if !acked {
					t.Errorf("round %d: participant %d did not ack the commit it was carried", round, p)
				}
			}
		}
		// At P1 the rule's answer is delivered without the query's round
		// trip, so that it and the carried commit meet within the install.
		answer := func() {
			if _, err := f.parts[1].cur.Load().end(txn, evCommit); err != nil {
				t.Error(err)
			}
		}
		race(func() { resolve(0, txn) }, answer, carry(0, late), carry(1, late/100))
		want[0][0]--
		want[1][0]++
		check(round, "carried commit")
		if err := log.Forget(txn); err != nil {
			t.Fatal(err)
		}
		for p, part := range f.parts {
			f.restart(t, p)
			if in, found, _ := part.Node().Stable().Intentions().Lookup(txn); found {
				t.Fatalf("round %d: participant %d acked the commit, and a crash brought its %v record back", round, p, in.Status)
			}
		}
		check(round, "carried commit, then a crash")
	}
	if total := want[0][0] + want[0][1] + want[1][0] + want[1][1]; total != 0 {
		t.Fatalf("money is not conserved: %d", total)
	}
}
