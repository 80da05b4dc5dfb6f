// Package mca's root benchmark suite: one benchmark per paper figure or
// claim, regenerating the performance side of EXPERIMENTS.md. Absolute
// numbers are machine-dependent; the shapes (who wins, how costs scale
// with participants/depth/width) are the reproduction targets.
package mca_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/core"
	"mca/internal/diary"
	"mca/internal/dist"
	"mca/internal/dmake"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/metrics"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/structures"
)

// --- core runtime costs ---

// BenchmarkActionBeginCommit measures the bare begin+commit cycle at
// several nesting depths.
func BenchmarkActionBeginCommit(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt := core.NewRuntime()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chain := make([]*action.Action, 0, depth)
				cur, err := rt.Begin()
				if err != nil {
					b.Fatal(err)
				}
				chain = append(chain, cur)
				for d := 1; d < depth; d++ {
					cur, err = cur.Begin()
					if err != nil {
						b.Fatal(err)
					}
					chain = append(chain, cur)
				}
				for d := depth - 1; d >= 0; d-- {
					if err := chain[d].Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkObjectWrite measures a full transactional write (lock +
// before-image + mutate + commit) with and without permanence.
func BenchmarkObjectWrite(b *testing.B) {
	b.Run("volatile", func(b *testing.B) {
		rt := core.NewRuntime()
		m := object.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Run(func(a *action.Action) error {
				return m.Write(a, func(v *int) error { *v++; return nil })
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("persistent", func(b *testing.B) {
		rt := core.NewRuntime()
		st := store.NewStable()
		m := object.New(0, object.WithStore(st))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Run(func(a *action.Action) error {
				return m.Write(a, func(v *int) error { *v++; return nil })
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColourOverhead compares a conventional (single-colour) nested
// commit against the fig 10 two-coloured pattern: the coloured machinery
// must cost little extra (§6: "minor modifications to the conventional
// rules").
func BenchmarkColourOverhead(b *testing.B) {
	b.Run("single-colour", func(b *testing.B) {
		rt := core.NewRuntime()
		m := object.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			top, err := rt.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if err := top.Run(func(a *action.Action) error {
				return m.Write(a, func(v *int) error { *v++; return nil })
			}); err != nil {
				b.Fatal(err)
			}
			if err := top.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-coloured", func(b *testing.B) {
		rt := core.NewRuntime()
		mr := object.New(0)
		mb := object.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blue, red := colour.Fresh(), colour.Fresh()
			top, err := rt.Begin(action.WithColours(blue))
			if err != nil {
				b.Fatal(err)
			}
			inner, err := top.Begin(action.WithColours(red, blue))
			if err != nil {
				b.Fatal(err)
			}
			if err := mr.WriteIn(inner, red, func(v *int) error { *v++; return nil }); err != nil {
				b.Fatal(err)
			}
			if err := mb.WriteIn(inner, blue, func(v *int) error { *v++; return nil }); err != nil {
				b.Fatal(err)
			}
			if err := inner.Commit(); err != nil {
				b.Fatal(err)
			}
			if err := top.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLockManager measures grant throughput under rising contention
// and colour counts.
func BenchmarkLockManager(b *testing.B) {
	for _, colours := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("colours=%d", colours), func(b *testing.B) {
			tree := lock.AncestryFunc(func(a, c ids.ActionID) bool { return a == c })
			m := lock.NewManager(tree)
			cs := make([]colour.Colour, colours)
			for i := range cs {
				cs[i] = colour.Fresh()
			}
			objs := make([]ids.ObjectID, 64)
			for i := range objs {
				objs[i] = ids.NewObjectID()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				owner := ids.NewActionID()
				for j := 0; j < 8; j++ {
					req := lock.Request{
						Object: objs[(i+j)%len(objs)],
						Owner:  owner,
						Colour: cs[j%colours],
						Mode:   lock.Read,
					}
					if err := m.TryAcquire(req); err != nil {
						b.Fatal(err)
					}
				}
				m.ReleaseAll(owner)
			}
		})
	}
}

// BenchmarkLockContention measures parallel acquire/release throughput
// against the two workload extremes of a striped lock table: disjoint
// (every worker cycles write locks on its own object — throughput must
// scale with -cpu, since workers never share a shard's state) and hot
// (every worker cycles read locks on one shared object — bounded by that
// object's shard). Run with -cpu=1,4,8; EXPERIMENTS.md (E20) records
// the sweep.
func BenchmarkLockContention(b *testing.B) {
	selfOnly := lock.AncestryFunc(func(a, c ids.ActionID) bool { return a == c })
	b.Run("disjoint", func(b *testing.B) {
		m := lock.NewManager(selfOnly)
		b.RunParallel(func(pb *testing.PB) {
			obj := ids.NewObjectID()
			c := colour.Fresh()
			for pb.Next() {
				owner := ids.NewActionID()
				if err := m.TryAcquire(lock.Request{Object: obj, Owner: owner, Colour: c, Mode: lock.Write}); err != nil {
					b.Error(err)
					return
				}
				m.ReleaseAll(owner)
			}
		})
	})
	b.Run("hot", func(b *testing.B) {
		m := lock.NewManager(selfOnly)
		obj := ids.NewObjectID()
		b.RunParallel(func(pb *testing.PB) {
			c := colour.Fresh()
			for pb.Next() {
				owner := ids.NewActionID()
				if err := m.TryAcquire(lock.Request{Object: obj, Owner: owner, Colour: c, Mode: lock.Read}); err != nil {
					b.Error(err)
					return
				}
				m.ReleaseAll(owner)
			}
		})
	})
}

// --- figure benchmarks ---

// BenchmarkFig1NestedActions runs the fig 1 shape: two concurrent
// children inside a top-level action.
func BenchmarkFig1NestedActions(b *testing.B) {
	rt := core.NewRuntime()
	ob := object.New(0)
	oc := object.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := rt.Begin()
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var errB, errC error
		go func() {
			defer wg.Done()
			errB = a.Run(func(child *action.Action) error {
				return ob.Write(child, func(v *int) error { *v++; return nil })
			})
		}()
		go func() {
			defer wg.Done()
			errC = a.Run(func(child *action.Action) error {
				return oc.Write(child, func(v *int) error { *v++; return nil })
			})
		}()
		wg.Wait()
		if errB != nil || errC != nil {
			b.Fatal(errB, errC)
		}
		if err := a.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SerializingVsFig5Glued compares the two handover
// organisations: the serializing action holds all of O; the glued pair
// passes only P, so its critical section is smaller. The benchmark
// reports the structure cost itself (no background load; E3 in
// cmd/experiments measures the concurrency effect).
func BenchmarkFig4SerializingVsFig5Glued(b *testing.B) {
	const oSize, pSize = 32, 4
	makeObjs := func() []*object.Managed[int] {
		objs := make([]*object.Managed[int], oSize)
		for i := range objs {
			objs[i] = object.New(0)
		}
		return objs
	}
	stageA := func(a *action.Action, objs []*object.Managed[int]) error {
		for _, m := range objs {
			if err := m.Write(a, func(v *int) error { *v++; return nil }); err != nil {
				return err
			}
		}
		return nil
	}
	stageB := func(a *action.Action, objs []*object.Managed[int]) error {
		for i := 0; i < pSize; i++ {
			if err := objs[i].Write(a, func(v *int) error { *v += 2; return nil }); err != nil {
				return err
			}
		}
		return nil
	}

	b.Run("serializing", func(b *testing.B) {
		rt := core.NewRuntime()
		objs := makeObjs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := structures.BeginSerializing(rt)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RunConstituent(func(a *action.Action) error { return stageA(a, objs) }); err != nil {
				b.Fatal(err)
			}
			if err := s.RunConstituent(func(a *action.Action) error { return stageB(a, objs) }); err != nil {
				b.Fatal(err)
			}
			if err := s.End(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("glued", func(b *testing.B) {
		rt := core.NewRuntime()
		objs := makeObjs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := structures.Glued(rt,
				func(stage *structures.Stage) error {
					if err := stageA(stage.Action, objs); err != nil {
						return err
					}
					for j := 0; j < pSize; j++ {
						if err := stage.PassOn(objs[j].ObjectID()); err != nil {
							return err
						}
					}
					return nil
				},
				func(stage *structures.Stage) error { return stageB(stage.Action, objs) })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6ConcurrentGlued scales the number of concurrent glued
// pairs.
func BenchmarkFig6ConcurrentGlued(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			rt := core.NewRuntime()
			objs := make([]*object.Managed[int], n)
			for i := range objs {
				objs[i] = object.New(0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, n)
				for j := 0; j < n; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						m := objs[j]
						errs <- structures.Glued(rt,
							func(stage *structures.Stage) error {
								if err := m.Write(stage.Action, func(v *int) error { *v++; return nil }); err != nil {
									return err
								}
								return stage.PassOn(m.ObjectID())
							},
							func(stage *structures.Stage) error {
								return m.Write(stage.Action, func(v *int) error { *v++; return nil })
							})
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig7SyncVsAsync compares synchronous and asynchronous
// independent invocation as seen by the invoker: the async form returns
// immediately (fig 7b's motivation).
func BenchmarkFig7SyncVsAsync(b *testing.B) {
	work := func(m *object.Managed[int]) func(*action.Action) error {
		return func(a *action.Action) error {
			return m.Write(a, func(v *int) error { *v++; return nil })
		}
	}
	b.Run("sync", func(b *testing.B) {
		rt := core.NewRuntime()
		m := object.New(0)
		invoker, err := rt.Begin()
		if err != nil {
			b.Fatal(err)
		}
		defer invoker.Abort()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := structures.RunIndependent(invoker, work(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async-invoke", func(b *testing.B) {
		rt := core.NewRuntime()
		m := object.New(0)
		invoker, err := rt.Begin()
		if err != nil {
			b.Fatal(err)
		}
		defer invoker.Abort()
		handles := make([]*structures.Handle, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := structures.SpawnIndependent(invoker, work(m))
			if err != nil {
				b.Fatal(err)
			}
			handles = append(handles, h)
		}
		b.StopTimer()
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8DmakeParallelism builds fan-out makefiles of rising
// width: wall time per build must grow sublinearly in width thanks to
// concurrent constituents.
func BenchmarkFig8DmakeParallelism(b *testing.B) {
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			src := "all:"
			for i := 0; i < width; i++ {
				src += fmt.Sprintf(" obj%d", i)
			}
			src += "\n\tlink\n"
			for i := 0; i < width; i++ {
				src += fmt.Sprintf("obj%d: src%d\n\tcc\n", i, i)
			}
			mf, err := dmake.ParseMakefile(src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt := core.NewRuntime()
				fs := dmake.NewFS(rt)
				for j := 0; j < width; j++ {
					fs.Create(fmt.Sprintf("src%d", j), "s")
				}
				maker := dmake.NewMaker(fs, mf)
				maker.WorkDelay = 2 * time.Millisecond
				b.StartTimer()
				if _, err := maker.Make("all"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9SchedulerRounds runs the meeting negotiation at rising
// group sizes.
func BenchmarkFig9SchedulerRounds(b *testing.B) {
	for _, people := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("people=%d", people), func(b *testing.B) {
			const days = 32
			halve := func(cs []int) []int {
				if len(cs) > 1 {
					return cs[:(len(cs)+1)/2]
				}
				return cs
			}
			candidates := make([]int, 16)
			for i := range candidates {
				candidates[i] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt := core.NewRuntime()
				diaries := make([]*diary.Diary, people)
				for j := range diaries {
					diaries[j] = diary.NewDiary(fmt.Sprintf("p%d", j), days)
				}
				sched := diary.NewScheduler(rt, diaries...)
				b.StartTimer()
				if _, err := sched.Arrange(candidates, "bench", halve, halve); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11SerializingViaColours measures the serializing
// constituent cycle (the §5.3 scheme: red writes + blue companions).
func BenchmarkFig11SerializingViaColours(b *testing.B) {
	rt := core.NewRuntime()
	m := object.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunConstituent(func(a *action.Action) error {
			return m.Write(a, func(v *int) error { *v++; return nil })
		}); err != nil {
			b.Fatal(err)
		}
		if err := s.End(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- distributed benchmarks ---

type benchRes struct {
	mu  sync.Mutex
	val *object.Managed[int]
}

func (r *benchRes) Register(nd *node.Node, _ *rpc.Peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.val = object.New(0, object.WithStore(nd.Stable()))
}
func (r *benchRes) Recover(context.Context, *node.Node) {}

func (r *benchRes) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	var in struct {
		Delta int `json:"delta"`
	}
	if err := json.Unmarshal(arg, &in); err != nil {
		return nil, err
	}
	r.mu.Lock()
	m := r.val
	r.mu.Unlock()
	if err := m.Write(a, func(v *int) error { *v += in.Delta; return nil }); err != nil {
		return nil, err
	}
	return []byte("{}"), nil
}

// BenchmarkTwoPhaseCommit sweeps participant counts over a fault-free,
// zero-delay LAN: the full transaction cycle (invokes + 2PC), with the
// default parallel fan-out.
func BenchmarkTwoPhaseCommit(b *testing.B) {
	for _, participants := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("participants=%d", participants), func(b *testing.B) {
			nw := netsim.New(netsim.Config{})
			defer nw.Close()
			opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}
			coordNode, err := node.New(nw, node.WithRPCOptions(opts))
			if err != nil {
				b.Fatal(err)
			}
			coord := dist.NewManager(coordNode)
			var targets []ids.NodeID
			for i := 0; i < participants; i++ {
				nd, err := node.New(nw, node.WithRPCOptions(opts))
				if err != nil {
					b.Fatal(err)
				}
				mgr := dist.NewManager(nd)
				res := &benchRes{}
				nd.Host(res)
				mgr.RegisterResource("kv", res)
				targets = append(targets, nd.ID())
			}
			ctx := context.Background()
			arg := struct {
				Delta int `json:"delta"`
			}{Delta: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := coord.Run(ctx, func(txn *dist.Txn) error {
					for _, t := range targets {
						if err := txn.Invoke(ctx, t, "kv", "add", arg, nil); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommitThroughput measures committed distributed transactions
// per second with many transactions in flight over a store with a fixed
// per-force latency. Workers drive disjoint registers, so throughput is
// bounded by how many log forces the commit path pays and how well the
// WAL's group commit shares them (EXPERIMENTS.md E23 has the per-record
// baseline it was once compared against).
func BenchmarkCommitThroughput(b *testing.B) {
	const (
		workers    = 8
		forceDelay = 200 * time.Microsecond
	)
	nw := netsim.New(netsim.Config{})
	defer nw.Close()
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}
	coordNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		b.Fatal(err)
	}
	coord := dist.NewManager(coordNode)
	coordNode.Stable().WAL().SetForceDelay(forceDelay)
	var targets []ids.NodeID
	for i := 0; i < 2; i++ {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		nd.Stable().WAL().SetForceDelay(forceDelay)
		mgr := dist.NewManager(nd)
		for w := 0; w < workers; w++ {
			res := &benchRes{}
			nd.Host(res)
			mgr.RegisterResource(fmt.Sprintf("kv%d", w), res)
		}
		targets = append(targets, nd.ID())
	}
	ctx := context.Background()
	arg := struct {
		Delta int `json:"delta"`
	}{Delta: 1}
	b.ResetTimer()
	var (
		wg   sync.WaitGroup
		next int64
		mu   sync.Mutex
	)
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(b.N) {
			return false
		}
		next++
		return true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resource := fmt.Sprintf("kv%d", w)
			for take() {
				err := coord.Run(ctx, func(txn *dist.Txn) error {
					for _, t := range targets {
						if err := txn.Invoke(ctx, t, resource, "add", arg, nil); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCommitFanout isolates Commit on a LAN with a realistic
// per-message delay, sweeping participant counts. Invokes run with the
// timer stopped, so the reported latency is the coordinator's commit
// alone: one concurrent prepare round (≈ one RTT) and the decision force,
// flat in N — phase 2 rides later messages.
func BenchmarkCommitFanout(b *testing.B) {
	const msgDelay = time.Millisecond
	for _, participants := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("participants=%d", participants), func(b *testing.B) {
			nw := netsim.New(netsim.Config{MinDelay: msgDelay / 2, MaxDelay: msgDelay})
			defer nw.Close()
			opts := rpc.Options{RetryInterval: 50 * time.Millisecond, CallTimeout: 10 * time.Second}
			coordNode, err := node.New(nw, node.WithRPCOptions(opts))
			if err != nil {
				b.Fatal(err)
			}
			coord := dist.NewManager(coordNode)
			var targets []ids.NodeID
			for i := 0; i < participants; i++ {
				nd, err := node.New(nw, node.WithRPCOptions(opts))
				if err != nil {
					b.Fatal(err)
				}
				mgr := dist.NewManager(nd)
				res := &benchRes{}
				nd.Host(res)
				mgr.RegisterResource("kv", res)
				targets = append(targets, nd.ID())
			}
			ctx := context.Background()
			arg := struct {
				Delta int `json:"delta"`
			}{Delta: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				txn, err := coord.Begin()
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range targets {
					if err := txn.Invoke(ctx, t, "kv", "add", arg, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := txn.Commit(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRPCRoundTrip measures the base RPC cost under clean and lossy
// networks.
func BenchmarkRPCRoundTrip(b *testing.B) {
	for _, loss := range []float64{0, 0.2} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			nw := netsim.New(netsim.Config{LossRate: loss, Seed: 4})
			defer nw.Close()
			epA, err := nw.NewEndpoint()
			if err != nil {
				b.Fatal(err)
			}
			epB, err := nw.NewEndpoint()
			if err != nil {
				b.Fatal(err)
			}
			opts := rpc.Options{RetryInterval: time.Millisecond, CallTimeout: 10 * time.Second}
			pa, pb := rpc.NewPeer(epA, opts), rpc.NewPeer(epB, opts)
			pb.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
				return body, nil
			})
			pa.Start()
			pb.Start()
			defer pa.Stop()
			defer pb.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pa.Call(context.Background(), pb.ID(), "echo", struct{}{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStableStoreBatch measures atomic batch installation.
func BenchmarkStableStoreBatch(b *testing.B) {
	for _, size := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("writes=%d", size), func(b *testing.B) {
			st := store.NewStable()
			batch := store.Batch{Writes: make(map[ids.ObjectID]store.State, size)}
			for i := 0; i < size; i++ {
				batch.Writes[ids.NewObjectID()] = store.State("state-data-xxxxxxxxxxxxxxxx")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.ApplyBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteMakeIncremental measures a distributed incremental
// rebuild: touch one source, rebuild the affected cone across three
// file-server nodes (each recipe a full 2PC constituent of a
// distributed serializing action).
func BenchmarkRemoteMakeIncremental(b *testing.B) {
	ctx := context.Background()
	nw := netsim.New(netsim.Config{})
	defer nw.Close()
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}

	coordNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		b.Fatal(err)
	}
	coord := dist.NewManager(coordNode)

	placement := make(map[string]ids.NodeID)
	newServer := func(files map[string]int64) *dmake.FSResource {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		res := dmake.NewFSResource(nd, dist.NewManager(nd))
		for name, stamp := range files {
			res.Provision(name, "content", stamp)
			placement[name] = nd.ID()
		}
		return res
	}
	newServer(map[string]int64{"Test0.h": 1, "Test1.h": 2, "Test0.c": 3, "Test1.c": 4})
	newServer(map[string]int64{"Test0.o": 0, "Test1.o": 0})
	newServer(map[string]int64{"Test": 0})

	mf, err := dmake.ParseMakefile(dmake.PaperMakefile)
	if err != nil {
		b.Fatal(err)
	}
	maker := dmake.NewRemoteMaker(coord, mf, func(f string) ids.NodeID { return placement[f] })
	maker.InitStamp(10)
	if _, err := maker.Make(ctx, "Test"); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch Test1.c, then rebuild its cone (Test1.o + Test).
		err := coord.Run(ctx, func(txn *dist.Txn) error {
			return maker.WriteFile(ctx, txn, "Test1.c", "touched")
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := maker.Make(ctx, "Test"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- observability overhead ---

// BenchmarkMetricsOverhead pins the cost of the always-on telemetry
// layer. The lock sub-benchmarks repeat the BenchmarkLockContention
// shapes — the hottest instrumented path in the tree — and must stay
// within 5% of the pre-instrumentation numbers (recorded in
// EXPERIMENTS.md, E21) with zero allocations per op. The instrument
// sub-benchmarks price the raw primitives, and gather prices a full
// registry scrape.
func BenchmarkMetricsOverhead(b *testing.B) {
	selfOnly := lock.AncestryFunc(func(a, c ids.ActionID) bool { return a == c })
	b.Run("lock/disjoint", func(b *testing.B) {
		m := lock.NewManager(selfOnly)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			obj := ids.NewObjectID()
			c := colour.Fresh()
			for pb.Next() {
				owner := ids.NewActionID()
				if err := m.TryAcquire(lock.Request{Object: obj, Owner: owner, Colour: c, Mode: lock.Write}); err != nil {
					b.Error(err)
					return
				}
				m.ReleaseAll(owner)
			}
		})
	})
	b.Run("lock/hot", func(b *testing.B) {
		m := lock.NewManager(selfOnly)
		obj := ids.NewObjectID()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			c := colour.Fresh()
			for pb.Next() {
				owner := ids.NewActionID()
				if err := m.TryAcquire(lock.Request{Object: obj, Owner: owner, Colour: c, Mode: lock.Read}); err != nil {
					b.Error(err)
					return
				}
				m.ReleaseAll(owner)
			}
		})
	})
	b.Run("counter-add", func(b *testing.B) {
		c := metrics.NewRegistry().Counter("bench_counter_total", "benchmark scratch")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := metrics.NewRegistry().Histogram("bench_ns", "benchmark scratch")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var v uint64
			for pb.Next() {
				v++
				h.Observe(v)
			}
		})
	})
	b.Run("gather", func(b *testing.B) {
		// Scrape the real default registry, including the gather-time
		// lock collectors walking every live manager's shards.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fams := metrics.Default().Gather(); len(fams) == 0 {
				b.Fatal("empty gather")
			}
		}
	})
}
