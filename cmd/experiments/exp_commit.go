package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/workload"
)

// commitJSONPath, when set by the -commitjson flag, receives the E23
// measurement as BENCH_commit.json.
var commitJSONPath string

// commitCluster is the E23 harness: a coordinator and three
// participants, one register per worker per participant so concurrent
// transactions are disjoint and throughput is bounded by commit forces.
type commitCluster struct {
	nw      *netsim.Network
	coord   *dist.Manager
	nodes   []*node.Node // [0] coordinator, rest participants
	workers int
}

func newCommitCluster(workers int, dirs []string) (*commitCluster, error) {
	nw := netsim.New(netsim.Config{})
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}
	c := &commitCluster{nw: nw, workers: workers}
	for i := 0; i < 4; i++ {
		opts := []node.Option{node.WithRPCOptions(rpcOpts)}
		if dirs != nil {
			opts = append(opts, node.WithStableDir(dirs[i]))
		}
		nd, err := node.New(nw, opts...)
		if err != nil {
			nw.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		mgr := dist.NewManager(nd)
		if i == 0 {
			c.coord = mgr
			continue
		}
		for w := 0; w < workers; w++ {
			r := newKVResource()
			nd.Host(r)
			mgr.RegisterResource(fmt.Sprintf("reg%d", w), r)
		}
	}
	return c, nil
}

func (c *commitCluster) close() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.nw.Close()
}

// setGroupCommit flips every node between the WAL group-commit path and
// the per-record baseline force.
func (c *commitCluster) setGroupCommit(on bool) {
	for _, nd := range c.nodes {
		nd.Stable().WAL().SetGroupCommit(on)
	}
}

func (c *commitCluster) setForceDelay(d time.Duration) {
	for _, nd := range c.nodes {
		nd.Stable().WAL().SetForceDelay(d)
	}
}

// measure drives disjoint two-participant transfers for the duration and
// returns committed transactions per second.
func (c *commitCluster) measure(workers int, d time.Duration) (float64, error) {
	ctx := context.Background()
	parts := c.nodes[1:]
	res := workload.RunFor(workers, d, func(w, _ int) error {
		resource := fmt.Sprintf("reg%d", w)
		a := parts[w%len(parts)]
		b := parts[(w+1)%len(parts)]
		return c.coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, a.ID(), resource, "add", kvDelta{Delta: 1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, b.ID(), resource, "add", kvDelta{Delta: 1}, nil)
		})
	})
	if res.Errors > 0 {
		return 0, fmt.Errorf("%d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	return res.Throughput(), nil
}

// expCommitThroughput is E23: committed transactions per second with the
// per-node WAL's group commit versus the per-record baseline force, over
// the simulated stable log (fixed per-force latency) and the real
// file-backed log (per-force fsync).
func expCommitThroughput(rep *report) error {
	const (
		forceDelay = time.Millisecond
		cell       = 250 * time.Millisecond
		maxWorkers = 32
	)
	workerCounts := []int{1, 4, 8, 16, 32}

	type cellResult map[string]float64
	before, after := cellResult{}, cellResult{}

	c, err := newCommitCluster(maxWorkers, nil)
	if err != nil {
		return err
	}
	defer c.close()
	c.setForceDelay(forceDelay)

	rep.rowf("  simulated stable log, force=%v, %d participants:", forceDelay, len(c.nodes)-1)
	bestRatio := 0.0
	for _, w := range workerCounts {
		key := fmt.Sprintf("workers=%d", w)
		c.setGroupCommit(false)
		base, err := c.measure(w, cell)
		if err != nil {
			return fmt.Errorf("per-record %s: %w", key, err)
		}
		c.setGroupCommit(true)
		wal, err := c.measure(w, cell)
		if err != nil {
			return fmt.Errorf("group-commit %s: %w", key, err)
		}
		before[key], after[key] = base, wal
		ratio := wal / base
		if ratio > bestRatio {
			bestRatio = ratio
		}
		rep.rowf("  %-12s per-record %8.0f txn/s   group-commit %8.0f txn/s   %5.2fx", key, base, wal, ratio)
	}
	rep.check(fmt.Sprintf("group commit >= 5x per-record force at some concurrency (best %.2fx)", bestRatio), bestRatio >= 5)
	rep.check("group commit never slower at max concurrency",
		after[fmt.Sprintf("workers=%d", maxWorkers)] >= before[fmt.Sprintf("workers=%d", maxWorkers)])

	// The file-backed section pays real fsyncs, so the absolute numbers
	// (and the ratio) depend on the disk; it is reported, not asserted.
	fileBefore, fileAfter := cellResult{}, cellResult{}
	dirs := make([]string, 4)
	for i := range dirs {
		d, err := os.MkdirTemp("", "e23-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	fc, err := newCommitCluster(maxWorkers, dirs)
	if err != nil {
		return err
	}
	defer fc.close()
	rep.rowf("  file-backed log (real fsync):")
	for _, w := range []int{1, 16} {
		key := fmt.Sprintf("workers=%d", w)
		fc.setGroupCommit(false)
		base, err := fc.measure(w, cell)
		if err != nil {
			return fmt.Errorf("file per-record %s: %w", key, err)
		}
		fc.setGroupCommit(true)
		wal, err := fc.measure(w, cell)
		if err != nil {
			return fmt.Errorf("file group-commit %s: %w", key, err)
		}
		fileBefore[key], fileAfter[key] = base, wal
		rep.rowf("  %-12s per-record %8.0f txn/s   group-commit %8.0f txn/s   %5.2fx", key, base, wal, wal/base)
	}

	if commitJSONPath != "" {
		out := map[string]any{
			"experiment":     "E23 commit throughput (WAL group commit vs per-record force)",
			"machine":        machineString(),
			"units":          "committed txns/sec",
			"cell":           cell.String(),
			"force_delay_us": forceDelay.Microseconds(),
			"note":           "before = per-record force (pre-WAL baseline), after = WAL group commit; file_backed pays real fsyncs and is machine-dependent.",
			"before":         before,
			"after":          after,
			"file_backed":    map[string]any{"before": fileBefore, "after": fileAfter},
			"summary": map[string]any{
				"best_speedup":           round2(bestRatio),
				"speedup_workers32":      round2(after["workers=32"] / before["workers=32"]),
				"file_speedup_workers16": round2(fileAfter["workers=16"] / fileBefore["workers=16"]),
			},
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(commitJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		rep.rowf("  wrote %s", commitJSONPath)
	}
	return nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// machineString mirrors the BENCH_*.json machine field.
func machineString() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d hardware CPU, %s/%s", model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}
