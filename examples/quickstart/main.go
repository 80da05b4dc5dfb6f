// Command quickstart walks through the public API: atomic actions over
// persistent objects, nesting, abort recovery, permanence across a
// simulated crash, a first taste of coloured actions, and distributed
// tracing across simulated nodes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"mca/internal/action"
	"mca/internal/core"
	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rt := core.NewRuntime()
	st := core.NewStableStore()

	// Two persistent bank accounts.
	checking := core.NewObject(100, core.WithStore(st))
	savings := core.NewObject(500, core.WithStore(st))

	// 1. A top-level atomic action: transfer 50.
	err := rt.Run(func(a *core.Action) error {
		if err := checking.Write(a, func(v *int) error { *v -= 50; return nil }); err != nil {
			return err
		}
		return savings.Write(a, func(v *int) error { *v += 50; return nil })
	})
	if err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	fmt.Printf("after transfer: checking=%d savings=%d\n", checking.Peek(), savings.Peek())

	// 2. Failure atomicity: an action that fails midway leaves no
	// trace.
	errInsufficient := errors.New("insufficient funds")
	err = rt.Run(func(a *core.Action) error {
		if err := checking.Write(a, func(v *int) error { *v -= 1000; return nil }); err != nil {
			return err
		}
		var bal int
		if err := checking.Read(a, func(v int) error { bal = v; return nil }); err != nil {
			return err
		}
		if bal < 0 {
			return errInsufficient // aborts the action
		}
		return savings.Write(a, func(v *int) error { *v += 1000; return nil })
	})
	fmt.Printf("failed transfer: err=%v, checking=%d (restored)\n", err, checking.Peek())

	// 3. Nesting: a nested action's commit is provisional until the
	// top level commits.
	err = rt.Run(func(top *core.Action) error {
		if err := top.Run(func(nested *core.Action) error {
			return checking.Write(nested, func(v *int) error { *v += 5; return nil })
		}); err != nil {
			return err
		}
		// the nested +5 is visible here, and becomes permanent when
		// this top-level action commits.
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("after nested bonus: checking=%d\n", checking.Peek())

	// 4. Permanence: crash the store and reactivate the objects through
	// the next incarnation's handle.
	st.Crash()
	if st, err = st.Restart(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	recovered, err := core.LoadObject[int](checking.ObjectID(), st)
	if err != nil {
		return fmt.Errorf("reactivate: %w", err)
	}
	fmt.Printf("after crash+recovery: checking=%d (from stable storage)\n", recovered.Peek())

	// 5. Coloured actions: a two-coloured action commits its "red"
	// effects immediately while its "blue" effects stay undoable by
	// the enclosing blue action (paper fig 10).
	red, blue := core.FreshColour(), core.FreshColour()
	auditLog := core.NewObject([]string{}, core.WithStore(st))

	outer, err := rt.Begin(core.WithColours(blue))
	if err != nil {
		return err
	}
	inner, err := outer.Begin(core.WithColours(red, blue))
	if err != nil {
		return err
	}
	// The audit entry is red: permanent at inner's commit.
	if err := auditLog.WriteIn(inner, red, func(v *[]string) error {
		*v = append(*v, "attempted batch update")
		return nil
	}); err != nil {
		return err
	}
	// The balance change is blue: owned by the outer action.
	if err := checking.WriteIn(inner, blue, func(v *int) error { *v = 0; return nil }); err != nil {
		return err
	}
	if err := inner.Commit(); err != nil {
		return err
	}
	if err := outer.Abort(); err != nil { // change of heart
		return err
	}
	fmt.Printf("after coloured abort: checking=%d (blue undone), audit=%v (red kept)\n",
		checking.Peek(), auditLog.Peek())

	// 6. Observability: a node can serve the process-global metrics
	// registry over HTTP. Everything this program did above — action
	// begins and commits, lock grants, aborted work — is already
	// counted; the endpoint just exposes it.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	n, err := node.New(net, node.WithDebugAddr("127.0.0.1:0"))
	if err != nil {
		return fmt.Errorf("node: %w", err)
	}
	defer n.Stop()
	// Run one action on the node's own runtime so node-side counters
	// move too.
	if err := n.Runtime().Run(func(*action.Action) error { return nil }); err != nil {
		return err
	}
	resp, err := http.Get("http://" + n.DebugAddr() + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("metrics endpoint: http://%s/metrics\n", n.DebugAddr())
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "mca_action_begins_total") ||
			strings.HasPrefix(line, "mca_lock_acquires_total{mode=\"write\",outcome=\"granted\"}") {
			fmt.Printf("  %s\n", line)
		}
	}

	// 7. Distributed tracing: three nodes, each with a trace recorder,
	// run a two-phase-commit transfer. Every RPC carries the trace
	// context, so each node's export links into one cross-node causal
	// tree — merged here (and by cmd/tracecat from the JSONL files
	// written when MCA_TRACE_DIR is set).
	ctx := context.Background()
	recs := make([]*trace.Recorder, 3)
	dnodes := make([]*node.Node, 3)
	var coord *dist.Manager
	for i := range dnodes {
		recs[i] = trace.NewRecorder()
		dn, err := node.New(net, node.WithTracer(recs[i]))
		if err != nil {
			return fmt.Errorf("trace node: %w", err)
		}
		defer dn.Stop()
		dnodes[i] = dn
		mgr := dist.NewManager(dn)
		acct := object.New(100, object.WithStore(dn.Stable()))
		mgr.RegisterResource("account", dist.ResourceFunc(
			func(a *action.Action, op string, arg []byte) ([]byte, error) {
				var delta int
				if err := json.Unmarshal(arg, &delta); err != nil {
					return nil, err
				}
				return nil, acct.Write(a, func(v *int) error { *v += delta; return nil })
			}))
		if i == 0 {
			coord = mgr
		}
	}
	var txnID string
	err = coord.Run(ctx, func(txn *dist.Txn) error {
		txnID = txn.ID().String()
		recs[0].Label(txn.ID(), "transfer-25")
		if err := txn.Invoke(ctx, dnodes[1].ID(), "account", "add", -25, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, dnodes[2].ID(), "account", "add", 25, nil)
	})
	if err != nil {
		return fmt.Errorf("traced transfer: %w", err)
	}

	// Export each node's spans (one JSONL file per node, as a real
	// deployment would), then merge them back into one tree.
	var all []trace.Span
	dir := os.Getenv("MCA_TRACE_DIR")
	for i, rec := range recs {
		spans := rec.Spans()
		all = append(all, spans...)
		if dir == "" {
			continue
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("node%d.jsonl", i+1)))
		if err != nil {
			return err
		}
		if err := trace.WriteSpans(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	tree := trace.Merge(all)
	fmt.Printf("distributed trace of %s (%d spans, %d orphans):\n%s",
		txnID, len(tree.Spans()), len(tree.Orphans), tree.Render(48))
	if dir != "" {
		fmt.Printf("per-node span exports written to %s\n", dir)
	}
	return nil
}
