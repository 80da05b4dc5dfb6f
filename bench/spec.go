package main

import "time"

// Workload names are final: later issues cite them.
const (
	wlLocal    = "local-structures"
	wlRead     = "tcp-read-mostly"
	wlDurable  = "tcp-transfer-durable"
	wlRecovery = "tcp-crash-recovery"
)

// Load shape. Two closed-loop clients on a 2-core sandbox: one more
// client than cores would measure scheduler queueing, not the program.
const (
	numClients = 2
	// numSlices splits the measured window: latency quantiles are
	// medians over the slices, so one host hiccup moves one slice, not
	// the result, and a traced pass traces every other slice.
	numSlices = 10

	attemptTimeout = 250 * time.Millisecond
	retryBackoff   = 5 * time.Millisecond
	opBudget       = 5 * time.Second

	// Fault schedule of tcp-crash-recovery.
	faultUp   = 600 * time.Millisecond
	faultDown = 100 * time.Millisecond
	// minCyclesPer30s is the crash-cycle floor of a 30 s window; shorter
	// windows scale it down proportionally.
	minCyclesPer30s = 35

	participants = 3
	zipfTheta    = 0.99
)

// opClass is one kind of generated operation.
type opClass uint8

const (
	clsAtomic opClass = iota
	clsNested
	clsSerializing
	clsGlued
	clsIndependent
	clsRead
	clsWrite
	clsTransfer
	numClasses
)

var classNames = [numClasses]string{
	"atomic", "nested", "serializing", "glued", "independent",
	"read", "write", "transfer",
}

type mixEntry struct {
	class  opClass
	weight int // percent
}

// workloadSpec is everything that distinguishes one workload.
type workloadSpec struct {
	name    string
	why     string
	mix     []mixEntry
	keys    int  // managed objects (local) or registers (tcp)
	zipf    bool // Zipf θ=0.99 over keys, else uniform
	tcp     bool // coordinator + participants on loopback TCP, else one runtime
	durable bool // every node file-backed (node.WithStableDir)
	faults  bool // seeded crash/restart schedule
}

var workloads = []workloadSpec{
	{
		name: wlLocal,
		why:  "coloured actions and structures on one runtime, no network or WAL: lock, colour, action, object do the work",
		mix: []mixEntry{
			{clsAtomic, 40}, {clsNested, 20}, {clsSerializing, 15}, {clsGlued, 15}, {clsIndependent, 10},
		},
		keys: 256, zipf: true,
	},
	{
		name: wlRead,
		why:  "90% reads over loopback TCP with in-memory stable store: rpc, tcpnet and dist round trips dominate, store forces almost nothing",
		mix:  []mixEntry{{clsRead, 90}, {clsWrite, 10}},
		keys: 1024, zipf: true, tcp: true,
	},
	{
		name: wlDurable,
		why:  "two-participant transfers with file-backed nodes: full 2PC, WAL forces and object write-back dominate",
		mix:  []mixEntry{{clsTransfer, 100}},
		keys: 1024, tcp: true, durable: true,
	},
	{
		name: wlRecovery,
		why:  "mixed reads, writes and transfers while a seeded schedule crashes and restarts participants: restart, replay and retransmit paths",
		mix:  []mixEntry{{clsRead, 40}, {clsWrite, 30}, {clsTransfer, 30}},
		keys: 1024, tcp: true, durable: true, faults: true,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported metric. The lists below are the single
// source of the names: BENCHMARK.json must match them (report_test.go).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics come from the untraced pass. Every one exists, and is
// never 0, on every workload. The bounds are calibrated by -selfcheck:
// twice the widest spread seen, at least 10%, at most the 25% cap (see
// README, "Repeatability").
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_txn", "ms", "lower", 0.25},
	{"alloc_kb_per_txn", "KiB", "lower", 0.10},
}

// perLayerMetrics come from the traced pass and the microprobes. A
// metric whose layer a workload bypasses reads 0 there.
var perLayerMetrics = []metricSpec{
	{"action.atomic_us", "us", "lower", 0},
	{"action.nested_us", "us", "lower", 0},
	{"action.serializing_us", "us", "lower", 0},
	{"action.glued_us", "us", "lower", 0},
	{"action.independent_us", "us", "lower", 0},
	{"action.empty_ns", "ns", "lower", 0},
	{"lock.cycle_ns", "ns", "lower", 0},
	{"lock.blocks_per_txn", "count", "lower", 0},
	{"lock.deadlocks", "count", "lower", 0},
	{"object.write_us", "us", "lower", 0},
	{"object.read_us", "us", "lower", 0},
	{"object.commit_us", "us", "lower", 0},
	{"dist.begin_us", "us", "lower", 0},
	{"dist.invoke_us", "us", "lower", 0},
	{"dist.commit_us", "us", "lower", 0},
	{"dist.invoke_self_us", "us", "lower", 0},
	{"dist.commit_self_us", "us", "lower", 0},
	{"dist.commit_share", "ratio", "lower", 0},
	{"dist.msgs_per_txn", "count", "lower", 0},
	{"dist.bytes_per_txn", "B", "lower", 0},
	{"dist.retries_per_txn", "count", "lower", 0},
	{"rpc.call_us", "us", "lower", 0},
	{"rpc.call_allocs", "count", "lower", 0},
	{"tcpnet.call_us", "us", "lower", 0},
	{"tcpnet.rtt_over_rpc_us", "us", "lower", 0},
	{"tcpnet.send_us", "us", "lower", 0},
	{"tcpnet.frames_per_writev", "count", "higher", 0},
	{"store.forces_per_txn", "count", "lower", 0},
	{"store.records_per_force", "count", "higher", 0},
	{"store.flush_us", "us", "lower", 0},
	{"store.flush_wait_share", "ratio", "lower", 0},
	{"store.disk_bytes_per_txn", "B", "lower", 0},
	{"store.wal_record_us", "us", "lower", 0},
	{"store.file_batch_us", "us", "lower", 0},
	{"node.restart_ms", "ms", "lower", 0},
	{"node.down_to_serve_ms", "ms", "lower", 0},
	{"node.crash_cycles", "count", "higher", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	// End-to-end in the issue, but absent (0) on some workloads, 0 by
	// design or not repeatable within a bound, which the benchmark
	// contract does not allow of a bounded metric; reported here instead
	// (see README, "Demoted metrics").
	{"p99_ms", "ms", "lower", 0},
	{"read_p50_ms", "ms", "lower", 0},
	{"write_p50_ms", "ms", "lower", 0},
	{"transfer_p50_ms", "ms", "lower", 0},
	{"recovery_ms", "ms", "lower", 0},
	{"p999_ms", "ms", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
}
