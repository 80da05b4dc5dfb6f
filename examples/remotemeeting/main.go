// Command remotemeeting runs the paper's example (v) across a simulated
// cluster: each attendee's diary lives on their own node, and the
// negotiation is a distributed glued chain — every round is a two-phase
// commit transaction, surviving candidate slots stay locked at their
// nodes via the pass colour, and dropped slots free as soon as the next
// round commits. This is the "distributed version" the paper's
// conclusion points at, end to end.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
)

// diaryResource hosts one person's diary slots on a node.
type diaryResource struct {
	mgr   *dist.Manager
	owner string

	mu    sync.Mutex
	slots []*object.Managed[string] // "" = free, else the booking note
}

func newDiaryResource(owner string, days int) *diaryResource {
	return &diaryResource{owner: owner, slots: make([]*object.Managed[string], days)}
}

func (d *diaryResource) Register(nd *node.Node, _ *rpc.Peer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.slots {
		if d.slots[i] == nil {
			d.slots[i] = object.New("")
		}
	}
}

func (d *diaryResource) Recover(context.Context, *node.Node) {}

type slotArg struct {
	Slot int    `json:"slot"`
	Note string `json:"note,omitempty"`
}

type freeResp struct {
	Free bool `json:"free"`
}

func (d *diaryResource) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	var in slotArg
	if err := json.Unmarshal(arg, &in); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if in.Slot < 0 || in.Slot >= len(d.slots) {
		d.mu.Unlock()
		return nil, fmt.Errorf("slot %d out of range", in.Slot)
	}
	m := d.slots[in.Slot]
	d.mu.Unlock()

	switch op {
	case "free":
		var out freeResp
		if err := m.Read(a, func(v string) error {
			out.Free = v == ""
			return nil
		}); err != nil {
			return nil, err
		}
		return json.Marshal(out)
	case "hold":
		pass, ok := d.mgr.PassColour(a)
		if !ok {
			return nil, errors.New("hold outside a structure")
		}
		if err := a.Lock(m.ObjectID(), lock.ExclusiveRead, pass); err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	case "book":
		if err := m.Write(a, func(v *string) error {
			if *v != "" {
				return fmt.Errorf("%s slot %d already busy", d.owner, in.Slot)
			}
			*v = in.Note
			return nil
		}); err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	nw := netsim.New(netsim.Config{LossRate: 0.05, Seed: 3,
		MinDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond})
	defer nw.Close()
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}

	coordNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		return err
	}
	defer coordNode.Stop()
	coord := dist.NewManager(coordNode)

	const days = 10
	people := []string{"ada", "bob", "carol"}
	busy := map[string][]int{"ada": {2}, "bob": {4}, "carol": {2, 6}}
	nodes := make(map[string]ids.NodeID, len(people))
	for _, p := range people {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			return err
		}
		defer nd.Stop()
		mgr := dist.NewManager(nd)
		res := newDiaryResource(p, days)
		res.mgr = mgr
		nd.Host(res)
		mgr.RegisterResource("diary", res)
		nodes[p] = nd.ID()
		// Prior appointments.
		for _, slot := range busy[p] {
			if err := mgr.Run(ctx, func(txn *dist.Txn) error {
				return txn.Invoke(ctx, nd.ID(), "diary", "book", slotArg{Slot: slot, Note: "prior"}, nil)
			}); err != nil {
				return err
			}
		}
		fmt.Printf("%s's diary on node %v, busy days %v\n", p, nd.ID(), busy[p])
	}

	chain := coord.BeginRemoteChain()
	defer chain.End(ctx)

	// Round 1: find commonly free days among the candidates and hold
	// them at every diary's node.
	candidates := []int{2, 4, 5, 6, 8}
	var commonlyFree []int
	err = chain.RunStage(ctx, func(txn *dist.Txn) error {
		for _, day := range candidates {
			all := true
			for _, p := range people {
				var out freeResp
				if err := txn.Invoke(ctx, nodes[p], "diary", "free", slotArg{Slot: day}, &out); err != nil {
					return err
				}
				if !out.Free {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			commonlyFree = append(commonlyFree, day)
			for _, p := range people {
				if err := txn.Invoke(ctx, nodes[p], "diary", "hold", slotArg{Slot: day}, nil); err != nil {
					return err
				}
			}
		}
		if len(commonlyFree) == 0 {
			return errors.New("no commonly free day")
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("round 1: candidates %v -> commonly free %v (held at every node)\n",
		candidates, commonlyFree)

	// Round 2: preference narrowing — keep the two earliest, pass them
	// on; the rest free cluster-wide when this round commits.
	kept := commonlyFree
	if len(kept) > 2 {
		kept = kept[:2]
	}
	err = chain.RunStage(ctx, func(txn *dist.Txn) error {
		for _, day := range kept {
			for _, p := range people {
				if err := txn.Invoke(ctx, nodes[p], "diary", "hold", slotArg{Slot: day}, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("round 2: narrowed to %v (dropped days released at their nodes)\n", kept)

	// Round 3: book the earliest surviving day everywhere, atomically.
	chosen := kept[0]
	err = chain.RunStage(ctx, func(txn *dist.Txn) error {
		for _, p := range people {
			if err := txn.Invoke(ctx, nodes[p], "diary", "book",
				slotArg{Slot: chosen, Note: "design meeting"}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := chain.End(ctx); err != nil {
		return err
	}
	fmt.Printf("booked day %d in all three diaries (one 2PC transaction)\n", chosen)

	// Confirm across the cluster.
	for _, p := range people {
		var out freeResp
		if err := coord.Run(ctx, func(txn *dist.Txn) error {
			return txn.Invoke(ctx, nodes[p], "diary", "free", slotArg{Slot: chosen}, &out)
		}); err != nil {
			return err
		}
		fmt.Printf("%s day %d free? %v\n", p, chosen, out.Free)
	}
	return nil
}
