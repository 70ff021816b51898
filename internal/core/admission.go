package core

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"sprout/internal/resilience"
)

// saturatedError is ErrSaturated's concrete type; it unwraps to
// resilience.ErrOverload so a saturation shed classifies as load shedding
// (never counted against node health, retryable by patient callers).
type saturatedError struct{}

func (saturatedError) Error() string { return "core: controller saturated, read shed" }
func (saturatedError) Unwrap() error { return resilience.ErrOverload }

// ErrSaturated is returned by Read when the admission gate is in its
// deepest brownout level and the read was shed: it targeted a low-value
// file and could not be served from cache alone.
var ErrSaturated error = saturatedError{}

// Brownout thresholds: the saturation scores at which each level engages,
// and the minimum time between changes of the latency-driven level.
const (
	noHedgeAt     = 0.75
	cacheOnlyAt   = 1.0
	shedAt        = 1.25
	brownoutDwell = time.Second
)

// AdmissionConfig tunes the controller's saturation gate. The gate scores
// pressure as max(inflight/MaxInFlight, p99/LatencyTarget), where p99 is the
// read-latency p99 the control job measured over its last window, and
// degrades service in levels as the score rises:
//
//	level 1 (score ≥ 0.75): hedged fetches are suppressed
//	level 2 (score ≥ 1.0):  background cache fills are suppressed
//	level 3 (score ≥ 1.25): reads of low-value files that need storage
//	                        fetches are shed (ErrSaturated)
//
// Cheap capacity is given up first (speculative hedges), then background
// work, and only then actual reads — and only the reads the plan values
// least. Cache-served reads always pass: shedding work the cache absorbs
// for free would reduce goodput without relieving storage.
type AdmissionConfig struct {
	// MaxInFlight is the in-flight read count considered full pressure.
	// Default 256.
	MaxInFlight int
	// LatencyTarget is the windowed read p99 considered full pressure. Zero
	// disables the latency signal (queue depth alone drives the gate).
	LatencyTarget time.Duration
}

// levelFor maps a saturation score to a brownout level (0 = healthy).
func levelFor(score float64) int {
	switch {
	case score >= shedAt:
		return 3
	case score >= cacheOnlyAt:
		return 2
	case score >= noHedgeAt:
		return 1
	default:
		return 0
	}
}

// admissionGate is the lock-free saturation tracker behind the brownout
// levels. The queue-depth signal is read live on every admission; the
// latency signal is a windowed p99 the control job publishes once per tick,
// together with the level it implies. That level changes at most once per
// brownoutDwell, so it never flaps with the noise of individual windows.
type admissionGate struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
	p99      atomic.Int64 // last windowed read p99 in ns
	latLevel atomic.Int32 // dwell-limited level of the latency signal

	// Dwell state; touched only by the control job.
	lastShift time.Time
	shifted   bool // false until the first transition (no dwell before it)
}

func newAdmissionGate(cfg AdmissionConfig) *admissionGate {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	return &admissionGate{cfg: cfg}
}

func (g *admissionGate) enter() { g.inflight.Add(1) }

func (g *admissionGate) leave() { g.inflight.Add(-1) }

// queueScore is the live queue-depth signal.
func (g *admissionGate) queueScore() float64 {
	return float64(g.inflight.Load()) / float64(g.cfg.MaxInFlight)
}

// score is the saturation pressure: the worse of the queue-depth and
// windowed-latency signals, each normalised by its target.
func (g *admissionGate) score() float64 {
	s := g.queueScore()
	if g.cfg.LatencyTarget > 0 {
		if ls := float64(g.p99.Load()) / float64(g.cfg.LatencyTarget); ls > s {
			s = ls
		}
	}
	return s
}

// level is the current brownout level: the worse of the live queue-depth
// level and the dwell-limited latency level.
func (g *admissionGate) level() int {
	l := levelFor(g.queueScore())
	if ll := int(g.latLevel.Load()); ll > l {
		l = ll
	}
	return l
}

// observeWindow records one window's read p99 and moves the latency level
// to the one it implies; the gate must have a LatencyTarget. A change is
// applied at most once per brownoutDwell, in either direction; the first
// change applies at once so a cold-start stampede is not ignored for a
// dwell. It reports whether the level changed.
func (g *admissionGate) observeWindow(now time.Time, p99 time.Duration) bool {
	g.p99.Store(int64(p99))
	want := levelFor(float64(p99) / float64(g.cfg.LatencyTarget))
	if want == int(g.latLevel.Load()) || (g.shifted && now.Sub(g.lastShift) < brownoutDwell) {
		return false
	}
	g.latLevel.Store(int32(want))
	g.lastShift = now
	g.shifted = true
	return true
}

// SaturationLevel reports the admission gate's current brownout level:
// 0 healthy, 1 hedging suppressed, 2 background fills suppressed, 3 shedding
// low-value storage reads. Always 0 when admission control is off.
func (c *Controller) SaturationLevel() int {
	if c.adm == nil {
		return 0
	}
	return c.adm.level()
}

// SaturationScore reports the gate's raw pressure score (≥ 1 means at least
// one signal is past its target); 0 when admission control is off.
func (c *Controller) SaturationScore() float64 {
	if c.adm == nil {
		return 0
	}
	return c.adm.score()
}

// lowValueFiles marks the bottom ⌊n/2⌋ files by planned arrival rate (ties
// broken by file ID) — the reads the deepest brownout level sheds first,
// because the plan assigns them the least latency value. Ranking instead of
// comparing against the median keeps level 3 able to shed when ties at the
// median would leave nothing strictly below it (e.g. two files at identical
// rates).
func lowValueFiles(lambdas []float64) []bool {
	if len(lambdas) == 0 {
		return nil
	}
	idx := make([]int, len(lambdas))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(lambdas[a], lambdas[b]) })
	low := make([]bool, len(lambdas))
	for _, f := range idx[:len(idx)/2] {
		low[f] = true
	}
	return low
}
