package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mca/internal/metrics"
)

// system is one workload's system under test.
type system interface {
	// attempt runs one try of the op; deadline is the op's retry budget.
	attempt(o op, tc opTrace, deadline time.Time) error
	// verify is the workload's correctness gate, run after the load.
	verify() error
	close()
}

func setup(spec *workloadSpec, tr *tracer, dataRoot string) (system, error) {
	if spec.tcp {
		return newCluster(spec, tr, dataRoot)
	}
	return newLocalSystem(spec, tr)
}

// runConfig is one pass over one workload.
type runConfig struct {
	spec     *workloadSpec
	seed     uint64
	seconds  float64
	traced   bool   // alternate untraced and traced slices, report per-layer metrics
	quick    bool   // smoke: fewer set-up repetitions
	dataRoot string // parent of the durable nodes' directories
	traceOut string // JSONL file for the spans, "" for none
}

// runResult is what one pass measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Violation string             `json:"violation,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"` // latency samples in the measured window
	Cycles    int                `json:"crash_cycles"`
	Metrics   map[string]float64 `json:"metrics"`
}

// maxTracedPerSecond bounds the ops one client traces, so the span
// store of a 30 s window on the fastest workload stays in the tens of
// megabytes. The tcp workloads run below it: every op is traced.
const maxTracedPerSecond = 20000

// client is one closed-loop load goroutine's private state.
type client struct {
	sched *schedule
	spans spanBuf
	// lat[s] holds slice s's samples: latency ns << 4 | class.
	lat       [numSlices][]uint64
	attempted int64
	failed    int64
	retries   int64
}

// snapshot is the process and program state at one slice boundary.
type snapshot struct {
	at      int64 // tracer clock
	cpu     time.Duration
	alloc   uint64
	gcPause uint64

	// Traced passes only.
	msgs, msgBytes  uint64
	forces, records uint64
	fileBytes       float64
	lockBlocks      float64
	deadlocks       float64
	frames, batches float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// programCounters gathers the program's own metrics registry once and
// sums each family's scalar samples.
func programCounters() map[string]float64 {
	sums := make(map[string]float64)
	for _, f := range metrics.Default().Gather() {
		for _, s := range f.Samples {
			sums[f.Name] += s.Value
		}
	}
	return sums
}

// fileBytesWritten is what the process has passed to write calls on
// anything but its sockets: WAL appends and compactions, journal and
// object files. /proc/self/io counts every write call; the program's
// own counter of TCP bytes takes the frames back out.
func fileBytesWritten(tcpBytes float64) float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n - tcpBytes
		}
	}
	return 0
}

func takeSnapshot(tr *tracer, sys system, traced bool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{at: tr.now(), cpu: cpuTime(), alloc: ms.TotalAlloc, gcPause: ms.PauseTotalNs}
	if !traced {
		return s
	}
	counters := programCounters()
	s.lockBlocks = counters["mca_lock_blocks_total"]
	s.deadlocks = counters["mca_lock_deadlocks_total"]
	s.frames = counters["mca_tcpnet_write_batch_frames_total"]
	s.batches = counters["mca_tcpnet_write_batches_total"]
	s.fileBytes = fileBytesWritten(counters["mca_tcpnet_bytes_written_total"])
	if c, ok := sys.(*cluster); ok {
		s.msgs, s.msgBytes = c.msgs.Load(), c.msgBytes.Load()
		for _, nd := range c.nodes {
			f, r := nd.Stable().WAL().Stats()
			s.forces += f
			s.records += r
		}
	}
	return s
}

// timedSetups builds and discards the workload's system for a second
// (5 to 1000 times) and reports the median build time, then builds the
// system the run uses. Every build starts from a collected heap: timed
// back to back, a build runs now beside the collector marking the
// earlier builds' garbage and now not, and a process stays in one of
// the two states for hundreds of builds, so its median would land in
// either.
func timedSetups(cfg runConfig, tr *tracer) (system, float64, error) {
	reps, budget := 1000, time.Second
	if cfg.quick {
		reps = 2
	}
	var times []float64
	began := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		sys, err := setup(cfg.spec, tr, cfg.dataRoot)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= reps || (len(times) >= 5 && time.Since(began) > budget) {
			return sys, median(times), nil
		}
		sys.close()
	}
}

// runWorkload runs one pass: set-up, warm-up, a measured window of
// numSlices slices, the correctness gate.
func runWorkload(cfg runConfig) (*runResult, error) {
	tr := newTracer()
	sys, setupS, err := timedSetups(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	// Collect the discarded set-ups now, so that neither their garbage
	// nor their lock managers' counters move inside the window.
	runtime.GC()

	var (
		slice   atomic.Int32 // -1 warm-up, 0..numSlices-1 measured, numSlices done
		stop    atomic.Bool
		wg      sync.WaitGroup
		clients [numClients]*client
	)
	slice.Store(-1)
	for i := range clients {
		cl := &client{sched: newSchedule(cfg.spec, cfg.seed, i)}
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq, nextTraced int64
			for !stop.Load() {
				o := cl.sched.next()
				seq++
				var tc opTrace
				start := tr.now()
				if tr.on.Load() && start >= nextTraced {
					nextTraced = start + int64(time.Second)/maxTracedPerSecond
					tc = opTrace{traced: true, req: uint64(i+1)<<48 | uint64(seq), root: tr.newID(), buf: &cl.spans}
				}
				retries, err := retry(func(deadline time.Time) error { return sys.attempt(o, tc, deadline) })
				end := tr.now()
				cl.attempted++
				cl.retries += int64(retries)
				if err != nil {
					if cl.failed == 0 {
						fmt.Fprintf(os.Stderr, "bench: %s op on key %d failed: %v\n", classNames[o.class], o.key, err)
					}
					cl.failed++
					continue
				}
				if tc.traced {
					cl.spans.add(span{Name: rootSpan(o.class), ID: tc.root, Req: tc.req, Start: start, End: end})
				}
				if s := slice.Load(); s >= 0 && s < numSlices {
					cl.lat[s] = append(cl.lat[s], uint64(end-start)<<4|uint64(o.class))
				}
			}
		}()
	}
	var (
		faultStop = make(chan struct{})
		faults    sync.WaitGroup
		cycles    []faultCycle
	)
	if c, ok := sys.(*cluster); ok && cfg.spec.faults {
		faults.Add(1)
		go func() {
			defer faults.Done()
			cycles = c.runFaults(cfg.seed, faultStop)
		}()
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	warmup := window / 10
	time.Sleep(warmup)
	var (
		snaps     [numSlices + 1]snapshot
		peakGoros int
	)
	for s := 0; s <= numSlices; s++ {
		// Odd slices of a traced pass are traced; the even ones are
		// the untraced reference the overhead is measured against.
		tr.on.Store(cfg.traced && s%2 == 1 && s < numSlices)
		snaps[s] = takeSnapshot(tr, sys, cfg.traced)
		slice.Store(int32(s))
		if s == numSlices {
			break
		}
		for end := time.Now().Add(window / numSlices); time.Now().Before(end); {
			time.Sleep(20 * time.Millisecond)
			if n := runtime.NumGoroutine(); n > peakGoros {
				peakGoros = n
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(faultStop)
	faults.Wait()

	res := &runResult{Workload: cfg.spec.name, Traced: cfg.traced, Metrics: make(map[string]float64)}
	for _, cl := range clients {
		res.Attempted += cl.attempted
		res.Failed += cl.failed
	}
	// Keep the cycles that completed inside the window.
	var inWindow []faultCycle
	for _, cy := range cycles {
		if cy.done >= snaps[0].at && cy.done <= snaps[numSlices].at {
			inWindow = append(inWindow, cy)
		}
	}
	res.Cycles = len(inWindow)
	cycleFloor := int(cfg.seconds * minCyclesPer30s / 30)
	switch err := sys.verify(); {
	case err != nil:
		res.Violation = err.Error()
	case res.Failed > 0:
		res.Violation = fmt.Sprintf("%d ops spent their retry budget", res.Failed)
	case cfg.spec.faults && res.Cycles < cycleFloor:
		res.Violation = fmt.Sprintf("%d crash cycles in the window, want at least %d", res.Cycles, cycleFloor)
	}
	res.Correct = res.Violation == ""

	e := &evaluation{clients: clients[:], snaps: snaps[:], cycles: inWindow, res: res}
	if cfg.traced {
		spans := tr.sharedSpans()
		for _, cl := range clients {
			spans = cl.spans.all(spans)
		}
		e.perLayer(spans, peakGoros)
		if cfg.traceOut != "" {
			sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
			if err := writeTrace(cfg.traceOut, spans); err != nil {
				return nil, err
			}
		}
	} else {
		e.endToEnd(setupS)
	}
	return res, nil
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpansJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
