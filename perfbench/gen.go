package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	popular "sprout/internal/workload"
)

// op is one scheduled request of an open-loop schedule.
type op struct {
	due   time.Duration // offset from the window start
	obj   int32
	write bool
}

// makeSchedule draws a Poisson arrival schedule of the given rate and
// length. Reads pick objects by Zipf popularity, with object ID = rank at
// the start; overwrites pick objects uniformly, as a re-ingest job would,
// so no object is rewritten faster than its reads can refill its cache. On a drifting workload, every FlipEvery the current
// top object swaps ranks with a cold one that has not been on top yet, as
// when the paper moves to a new time bin. Every draw comes from rng.
func makeSchedule(rng *rand.Rand, wl workload, rate float64, length time.Duration) []op {
	picker := popular.NewRatePicker(popular.Zipf(wl.Objects, zipfS, 1))
	perm := make([]int, wl.Objects) // rank → object
	for i := range perm {
		perm[i] = i
	}
	nextFlip, flips := wl.FlipEvery, 0
	ops := make([]op, 0, int(rate*length.Seconds()*1.1)+16)
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return ops
		}
		for wl.FlipEvery > 0 && due >= nextFlip {
			cold := wl.coldRank(flips)
			perm[0], perm[cold] = perm[cold], perm[0]
			flips++
			nextFlip += wl.FlipEvery
		}
		obj := perm[picker.Pick(rng.Float64())]
		write := wl.WriteFrac > 0 && rng.Float64() < wl.WriteFrac
		if write {
			obj = rng.Intn(wl.Objects)
		}
		ops = append(ops, op{due: due, obj: int32(obj), write: write})
	}
}

// failedNS marks an op that failed in window.lat.
const failedNS = -1

// window is the outcome of driving one schedule: per op, its latency from
// the due time (failedNS when it failed), its lateness at dispatch, and its
// send time on the run clock.
type window struct {
	ops      []op
	start    int64 // window start on the run clock
	length   time.Duration
	lat      []int64
	late     []int64
	sent     []int64
	inflight int64 // peak ops in flight

	wrong     atomic.Int64 // reads whose bytes failed verification
	errMu     sync.Mutex
	firstErrs []string
}

func (w *window) noteWrong(err error) {
	w.wrong.Add(1)
	w.errMu.Lock()
	if len(w.firstErrs) < 5 {
		w.firstErrs = append(w.firstErrs, err.Error())
	}
	w.errMu.Unlock()
}

// maxInFlight bounds the generator's outstanding ops; reaching it makes the
// generator fall behind, which the lateness figures then show.
const maxInFlight = 8192

// opTimeout is how long after the window's end an op may still complete;
// one outstanding past that fails.
const opTimeout = 5 * time.Second

// drive runs the schedule open loop against the stack: each op is issued
// at its due time on its own goroutine, whether or not earlier ops have
// completed, and timed from its due time.
func (s *stack) drive(ctx context.Context, ops []op, length time.Duration, t *tracer, onStart func()) *window {
	w := &window{
		ops:    ops,
		length: length,
		lat:    make([]int64, len(ops)),
		late:   make([]int64, len(ops)),
		sent:   make([]int64, len(ops)),
	}
	ctx, cancel := context.WithTimeout(ctx, length+opTimeout)
	defer cancel()
	sem := make(chan struct{}, maxInFlight)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	c := s.clock
	w.start = c.now()
	if onStart != nil {
		onStart()
	}
	for i := range ops {
		due := w.start + int64(ops[i].due)
		if d := due - c.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sem <- struct{}{}
		now := c.now()
		w.late[i] = now - due
		w.sent[i] = now
		if n := inflight.Add(1); n > w.inflight {
			w.inflight = n
		}
		wg.Add(1)
		go func() {
			defer func() {
				inflight.Add(-1)
				<-sem
				wg.Done()
			}()
			w.lat[i] = s.do(ctx, w, i, due, t)
		}()
	}
	wg.Wait()
	return w
}

// do issues op i and returns its latency from due, or failedNS.
func (s *stack) do(ctx context.Context, w *window, i int, due int64, t *tracer) int64 {
	c := s.clock
	o := w.ops[i]
	obj := int(o.obj)
	sent := w.sent[i]
	if o.write {
		buf := make([]byte, s.wl.ObjectSize)
		fillPayload(buf, uint64(i+1)<<40^uint64(w.start)^uint64(obj))
		idx := s.ver.begin(obj, s.ver.sum(buf), sent)
		err := s.router.Write(ctx, obj, buf, nil)
		done := c.now()
		if t != nil && t.on.Load() {
			t.record(spanWrite, -1, obj, sent, done)
		}
		if err != nil {
			return failedNS
		}
		s.ver.ack(obj, idx, done)
		return done - due
	}
	data, err := s.router.ReadInto(ctx, obj, nil, nil)
	done := c.now()
	if t != nil && t.on.Load() {
		t.record(spanRead, -1, obj, sent, done)
	}
	if err != nil {
		return failedNS
	}
	if err := s.ver.check(obj, data, sent); err != nil {
		w.noteWrong(err)
		return failedNS
	}
	return done - due
}

// opStats summarises one kind of op in a window. Failed ops count as +Inf
// in the percentiles.
type opStats struct {
	attempted, failed int
	p50, p99          float64 // ms
}

func (w *window) stats(write bool, from, to int64) opStats {
	return summarize(w.latencies(write, from, to))
}

// latencies returns the latencies in ms of the window's reads, or writes,
// sent in [from, to); a failed op's is +Inf.
func (w *window) latencies(write bool, from, to int64) []float64 {
	lats := make([]float64, 0, len(w.ops))
	for i, o := range w.ops {
		if o.write != write || w.sent[i] < from || w.sent[i] >= to {
			continue
		}
		if w.lat[i] == failedNS {
			lats = append(lats, math.Inf(1))
			continue
		}
		lats = append(lats, float64(w.lat[i])/1e6)
	}
	return lats
}

func summarize(lats []float64) opStats {
	st := opStats{attempted: len(lats)}
	for _, l := range lats {
		if math.IsInf(l, 1) {
			st.failed++
		}
	}
	st.p50 = percentile(lats, 0.50)
	st.p99 = percentile(lats, 0.99)
	return st
}

// lateness returns the p50, p99 and max of the generator's dispatch
// lateness, in ms.
func (w *window) lateness() (p50, p99, top float64) {
	late := make([]float64, len(w.late))
	for i, l := range w.late {
		late[i] = float64(l) / 1e6
		top = math.Max(top, late[i])
	}
	return percentile(late, 0.5), percentile(late, 0.99), top
}
