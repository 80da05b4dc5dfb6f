package lock

import (
	"runtime"
	"strconv"
	"sync"

	"mca/internal/metrics"
)

// Telemetry for the lock manager, exported under mca_lock_* in the
// process-global metrics registry.
//
// Collection is split by cost. The hot grant/release cycle increments
// plain shardStats fields under the shard mutex it already holds (see
// shardStats); failure paths that have already parked use the Manager's
// atomic slow counters; only the block-time histogram pays atomic adds,
// and only on requests that actually blocked. Everything is summed here
// at gather time, over every manager's tally. A tally holds a manager's
// shards and slow counters, not the manager, so telemetry never keeps a
// discarded manager (tests build thousands) alive; once the manager is
// collected, a cleanup folds its counts into the retired totals and
// drops the tally, under the mutex every gather holds, so a counter
// never goes down when a node restarts with a new runtime.

// blockNs records how long blocked Acquires spent parked, in
// nanoseconds, across all managers in the process.
var blockNs = metrics.Default().Histogram(
	"mca_lock_block_ns",
	"Time blocked Acquire calls spent parked, ns (all outcomes).")

// tally is what telemetry reads of one manager.
type tally struct {
	shards []shard
	slow   *slowCounts
}

// live holds the tallies of managers not yet collected, and retired the
// counters of those that were (its shard depths stay empty).
var live struct {
	mu      sync.Mutex
	set     map[*tally]struct{}
	retired aggregate
}

func registerManager(m *Manager) {
	t := &tally{shards: m.shards, slow: m.slow}
	live.mu.Lock()
	if live.set == nil {
		live.set = make(map[*tally]struct{})
	}
	live.set[t] = struct{}{}
	live.mu.Unlock()
	runtime.AddCleanup(m, retire, t)
}

// retire folds a collected manager's counters into the retired totals.
// It runs on the process's one cleanup goroutine, so it must not block:
// nothing can hold a collected manager's shard mutex but a panic that
// left it locked, and such a shard's counts are lost.
func retire(t *tally) {
	live.mu.Lock()
	defer live.mu.Unlock()
	t.addTo(&live.retired, true)
	delete(live.set, t)
}

// aggregate is the sum of every manager's counters, with the
// instantaneous table depth per shard index of the live ones.
type aggregate struct {
	stats        shardStats
	cycles       [4]uint64
	timeouts     [4]uint64
	cancels      [4]uint64
	wakeups      uint64
	shardEntries []uint64 // held entries by shard index
	shardWaiters []uint64 // parked waiters by shard index
}

// addTo adds the tally's counters to a, and the table depth unless the
// manager is gone, when it skips a shard whose mutex it cannot take.
// Shard mutexes are taken under live.mu: nothing under a shard mutex
// ever touches live.mu, so the lock-ordering rule holds.
func (t *tally) addTo(a *aggregate, gone bool) {
	if !gone && len(t.shards) > len(a.shardEntries) {
		a.shardEntries = append(a.shardEntries, make([]uint64, len(t.shards)-len(a.shardEntries))...)
		a.shardWaiters = append(a.shardWaiters, make([]uint64, len(t.shards)-len(a.shardWaiters))...)
	}
	for i := range t.shards {
		s := &t.shards[i]
		if !gone {
			s.mu.Lock()
		} else if !s.mu.TryLock() {
			continue
		}
		for mode := range s.stats.grants {
			a.stats.grants[mode] += s.stats.grants[mode]
			a.stats.conflicts[mode] += s.stats.conflicts[mode]
			a.stats.permanent[mode] += s.stats.permanent[mode]
		}
		a.stats.blocks += s.stats.blocks
		a.stats.inherited += s.stats.inherited
		a.stats.relCommit += s.stats.relCommit
		a.stats.relAbort += s.stats.relAbort
		if !gone {
			for _, ol := range s.objects {
				a.shardEntries[i] += uint64(len(ol.entries))
			}
			for _, q := range s.waiters {
				a.shardWaiters[i] += uint64(len(q))
			}
		}
		s.mu.Unlock()
	}
	for mode := 1; mode < 4; mode++ {
		a.cycles[mode] += t.slow.cycles[mode].Load()
		a.timeouts[mode] += t.slow.timeouts[mode].Load()
		a.cancels[mode] += t.slow.cancels[mode].Load()
	}
	a.wakeups += t.slow.signals.Load()
}

func gatherAggregate() aggregate {
	live.mu.Lock()
	defer live.mu.Unlock()
	a := live.retired
	for t := range live.set {
		t.addTo(&a, false)
	}
	return a
}

var modes = [...]Mode{Read, Write, ExclusiveRead}

func init() {
	r := metrics.Default()
	r.CounterVecFunc("mca_lock_acquires_total",
		"Lock requests by mode and outcome (granted, conflict, deadlock, timeout, cancelled).",
		[]string{"mode", "outcome"}, func(emit metrics.Emit) {
			a := gatherAggregate()
			for _, mode := range modes {
				emit(float64(a.stats.grants[mode]), mode.String(), "granted")
				emit(float64(a.stats.conflicts[mode]), mode.String(), "conflict")
				emit(float64(a.stats.permanent[mode]+a.cycles[mode]), mode.String(), "deadlock")
				emit(float64(a.timeouts[mode]), mode.String(), "timeout")
				emit(float64(a.cancels[mode]), mode.String(), "cancelled")
			}
		})
	r.CounterVecFunc("mca_lock_deadlocks_total",
		"Deadlocks by detection kind: permanent (ancestor-write rule) or cycle (waits-for graph).",
		[]string{"kind"}, func(emit metrics.Emit) {
			a := gatherAggregate()
			var perm, cyc uint64
			for mode := 1; mode < 4; mode++ {
				perm += a.stats.permanent[mode]
				cyc += a.cycles[mode]
			}
			emit(float64(perm), "permanent")
			emit(float64(cyc), "cycle")
		})
	r.CounterFunc("mca_lock_blocks_total",
		"Acquire calls that parked at least once.", func() float64 {
			return float64(gatherAggregate().stats.blocks)
		})
	r.CounterFunc("mca_lock_wakeups_total",
		"Targeted waiter wakeups delivered by releases and commit transfers.", func() float64 {
			return float64(gatherAggregate().wakeups)
		})
	r.CounterVecFunc("mca_lock_commit_transfers_total",
		"Lock entries processed by CommitTransfer, by result.",
		[]string{"result"}, func(emit metrics.Emit) {
			a := gatherAggregate()
			emit(float64(a.stats.inherited), "inherited")
			emit(float64(a.stats.relCommit), "released")
		})
	r.CounterFunc("mca_lock_abort_released_total",
		"Lock entries discarded by ReleaseAll.", func() float64 {
			return float64(gatherAggregate().stats.relAbort)
		})
	r.GaugeFunc("mca_lock_held_entries",
		"Lock entries currently held, across all live managers.", func() float64 {
			a := gatherAggregate()
			var n uint64
			for _, e := range a.shardEntries {
				n += e
			}
			return float64(n)
		})
	r.GaugeFunc("mca_lock_waiters",
		"Acquire calls currently parked, across all live managers.", func() float64 {
			a := gatherAggregate()
			var n uint64
			for _, e := range a.shardWaiters {
				n += e
			}
			return float64(n)
		})
	r.GaugeVecFunc("mca_lock_shard_entries",
		"Held lock entries by lock-table shard index (non-empty shards only).",
		[]string{"shard"}, func(emit metrics.Emit) {
			a := gatherAggregate()
			for i, e := range a.shardEntries {
				if e != 0 {
					emit(float64(e), strconv.Itoa(i))
				}
			}
		})
}
