// Package clock abstracts every source of time and randomness the
// runtime packages consume, so a simulation can substitute a virtual,
// test-controlled source and make schedules seed-replayable (ROADMAP
// item 5). The deterministic-critical packages (node, lock, dist, rpc,
// netsim, store, flightrec, workload, action, dmake, trace, wire) never call
// time.Now, time.Sleep or math/rand directly — the detclock analyzer
// (cmd/mcalint) enforces it — they take a Clock and default to Real().
//
// Two implementations exist: Real, a thin veneer over package time, and
// Fake, a virtual clock whose time advances only under test control
// (the testing/synctest model: timers fire in deadline order when the
// test advances past them, never because wall time passed).
package clock

import (
	"math"
	"time"
)

// Clock is the ambient-time surface of package time that the runtime
// layers are allowed to consume. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// After returns a channel receiving the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer firing once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker firing every d. d must be positive.
	NewTicker(d time.Duration) Ticker
	// AfterFunc runs f in its own goroutine once d has elapsed. The
	// returned timer's channel is unused; Stop cancels the call.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a stoppable single-shot timer. C is a method (not a field,
// as on *time.Timer) so fakes can implement it.
type Timer interface {
	// C returns the channel the firing time is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset re-arms the timer for d, reporting whether it was pending.
	Reset(d time.Duration) bool
}

// Ticker delivers ticks at a fixed period until stopped.
type Ticker interface {
	// C returns the channel ticks are delivered on.
	C() <-chan time.Time
	// Stop ends the ticks. It does not close the channel.
	Stop()
}

// --- real implementation ---

// realClock forwards to package time. This file is the one place in the
// repository (outside tests and cmd/) where calling time directly is
// the point; the detclock analyzer allowlists internal/clock.
type realClock struct{}

var real Clock = realClock{}

// Real returns the wall-clock implementation backed by package time.
func Real() Clock { return real }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (realClock) NewTimer(d time.Duration) Timer   { return realTimer{time.NewTimer(d)} }
func (realClock) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }
func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time        { return t.t.C }
func (t realTimer) Stop() bool                 { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }

// --- seeded randomness ---

// Rand is a small deterministic pseudo-random source (splitmix64), the
// replacement for math/rand in deterministic-critical packages: given
// the same seed it produces the same stream on every run and platform.
// It is NOT safe for concurrent use; callers serialise access (netsim
// draws under its network mutex).
type Rand struct{ state uint64 }

// NewRand returns a source seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	x := r.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Int63n returns a non-negative value below n. n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("clock: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Intn returns a non-negative value below n. n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with rate 1
// (mean 1), by inversion. Scaled by a mean inter-arrival gap it yields
// the Poisson arrival schedules the open-loop workload generator
// replays deterministically from a seed.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64() is in (0, 1], so Log never sees zero.
	return -math.Log(1 - r.Float64())
}
