package main

import (
	"math"
	"sort"
)

// evaluation turns one pass's raw samples, snapshots and spans into
// the named metrics.
type evaluation struct {
	clients []*client
	snaps   []snapshot // numSlices+1 boundaries
	cycles  []faultCycle
	res     *runResult
}

// latencies returns slice s's samples in ms, sorted; class < 0 means
// every class.
func (e *evaluation) latencies(s int, class int) []float64 {
	var out []float64
	for _, cl := range e.clients {
		for _, v := range cl.lat[s] {
			if class < 0 || int(v&15) == class {
				out = append(out, float64(v>>4)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// overSlices is the median over the given slices of f(slice); slices
// where f has nothing to report (NaN) are skipped.
func overSlices(slices []int, f func(s int) float64) float64 {
	var vals []float64
	for _, s := range slices {
		if v := f(s); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

func (e *evaluation) txns(s int) float64 {
	n := 0
	for _, cl := range e.clients {
		n += len(cl.lat[s])
	}
	return float64(n)
}

func (e *evaluation) seconds(s int) float64 {
	return float64(e.snaps[s+1].at-e.snaps[s].at) / 1e9
}

func (e *evaluation) throughput(slices []int) float64 {
	return overSlices(slices, func(s int) float64 { return e.txns(s) / e.seconds(s) })
}

func (e *evaluation) quantile(slices []int, class int, q float64) float64 {
	return overSlices(slices, func(s int) float64 {
		lat := e.latencies(s, class)
		if len(lat) == 0 {
			return math.NaN()
		}
		return quantileSorted(lat, q)
	})
}

// sliceIndices lists the window's slices from first in steps of step.
func sliceIndices(first, step int) []int {
	var out []int
	for s := first; s < numSlices; s += step {
		out = append(out, s)
	}
	return out
}

// endToEnd fills the metrics of an untraced pass. Latency quantiles
// are medians over the window's slices, so a host hiccup moves one
// slice and not the result; rates and per-transaction costs are taken
// over the whole window, because a slice of tcp-crash-recovery holds
// two or three crash cycles and the difference would show.
func (e *evaluation) endToEnd(setupS float64) {
	all := sliceIndices(0, 1)
	var txns float64
	for _, s := range all {
		txns += e.txns(s)
	}
	e.res.Samples = int(txns)
	first, last := e.snaps[0], e.snaps[numSlices]
	m := e.res.Metrics
	m["setup_s"] = setupS
	m["txn_per_s"] = txns / (float64(last.at-first.at) / 1e9)
	m["p50_ms"] = e.quantile(all, -1, 0.50)
	if txns > 0 {
		m["cpu_ms_per_txn"] = float64(last.cpu-first.cpu) / 1e6 / txns
		m["alloc_kb_per_txn"] = float64(last.alloc-first.alloc) / 1024 / txns
	}
}

// perLayer fills the metrics of a traced pass. Timings come from the
// spans of the traced (odd) slices; counts are sums over those slices
// divided by the transactions committed in them.
func (e *evaluation) perLayer(spans []span, peakGoroutines int) {
	traced, untraced, all := sliceIndices(1, 2), sliceIndices(0, 2), sliceIndices(0, 1)
	m := e.res.Metrics
	st := analyze(spans)

	us := func(ns []float64) float64 {
		if len(ns) == 0 {
			return 0
		}
		return median(ns) / 1e3
	}
	for c := clsAtomic; c <= clsIndependent; c++ {
		m["action."+classNames[c]+"_us"] = us(st.dur[rootSpan(c)])
	}
	m["object.write_us"] = us(st.dur[spObjectWrite])
	m["object.read_us"] = us(st.dur[spObjectRead])
	m["dist.begin_us"] = us(st.dur[spBegin])
	m["dist.invoke_us"] = us(st.dur[spInvoke])
	m["dist.commit_us"] = us(st.dur[spCommit])
	m["dist.invoke_self_us"] = us(st.invokeSelf)
	m["dist.commit_self_us"] = us(st.commitSelf)
	m["tcpnet.send_us"] = us(st.dur[spSend])
	m["store.flush_us"] = us(st.dur[spFlush])
	if st.sumTxn > 0 {
		m["dist.commit_share"] = st.sumCommit / st.sumTxn
		m["store.flush_wait_share"] = st.sumFlush / st.sumTxn
	}

	var txns float64
	var d snapshot // sums of the traced slices' deltas
	for _, s := range traced {
		a, b := e.snaps[s], e.snaps[s+1]
		txns += e.txns(s)
		d.msgs += b.msgs - a.msgs
		d.msgBytes += b.msgBytes - a.msgBytes
		d.forces += b.forces - a.forces
		d.records += b.records - a.records
		d.fileBytes += b.fileBytes - a.fileBytes
		// The program sums these two over its live lock managers, so a
		// collected manager (a crashed node's) can take its share away.
		d.lockBlocks += math.Max(0, b.lockBlocks-a.lockBlocks)
		d.deadlocks += math.Max(0, b.deadlocks-a.deadlocks)
		d.frames += b.frames - a.frames
		d.batches += b.batches - a.batches
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["lock.blocks_per_txn"] = ratio(d.lockBlocks, txns)
	m["lock.deadlocks"] = d.deadlocks
	m["dist.msgs_per_txn"] = ratio(float64(d.msgs), txns)
	m["dist.bytes_per_txn"] = ratio(float64(d.msgBytes), txns)
	m["store.forces_per_txn"] = ratio(float64(d.forces), txns)
	m["store.records_per_force"] = ratio(float64(d.records), float64(d.forces))
	m["store.disk_bytes_per_txn"] = ratio(math.Max(0, d.fileBytes), txns)
	m["tcpnet.frames_per_writev"] = ratio(d.frames, d.batches)

	// The remaining metrics do not depend on spans: they use the whole
	// window.
	var retries, committed float64
	for _, cl := range e.clients {
		retries += float64(cl.retries)
		committed += float64(cl.attempted - cl.failed)
	}
	m["dist.retries_per_txn"] = ratio(retries, committed)
	m["failed_share"] = ratio(float64(e.res.Failed), float64(e.res.Attempted))
	m["read_p50_ms"] = e.quantile(all, int(clsRead), 0.50)
	m["write_p50_ms"] = e.quantile(all, int(clsWrite), 0.50)
	m["transfer_p50_ms"] = e.quantile(all, int(clsTransfer), 0.50)
	m["p99_ms"] = e.quantile(all, -1, 0.99)
	var whole []float64
	for _, s := range all {
		whole = append(whole, e.latencies(s, -1)...)
	}
	sort.Float64s(whole)
	e.res.Samples = len(whole)
	if len(whole) > 0 {
		m["p999_ms"] = quantileSorted(whole, 0.999)
	}
	m["node.crash_cycles"] = float64(len(e.cycles))
	for _, cy := range e.cycles {
		n := float64(len(e.cycles))
		m["node.restart_ms"] += cy.restart.Seconds() * 1e3 / n
		m["recovery_ms"] += cy.recovery.Seconds() * 1e3 / n
		m["node.down_to_serve_ms"] += cy.downToServe.Seconds() * 1e3 / n
	}
	first, last := e.snaps[0], e.snaps[numSlices]
	m["runtime.gc_pause_ms"] = float64(last.gcPause-first.gcPause) / 1e6
	m["runtime.goroutines_peak"] = float64(peakGoroutines)
	if ref := e.throughput(untraced); ref > 0 {
		m["bench.trace_overhead_pct"] = 100 * (ref - e.throughput(traced)) / ref
	}
}
