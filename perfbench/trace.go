package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"sprout/internal/core"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanRead     spanKind = iota // generator around Router.ReadInto
	spanWrite                    // generator around Router.Write
	spanFetch                    // shard around its storage fetcher
	spanStore                    // shard around its striped writer
	spanPlan                     // setup around Controller.PlanTimeBin
	spanPrefetch                 // setup around Controller.PrefetchCache
)

var spanNames = [...]string{
	spanRead:     "router.read",
	spanWrite:    "router.write",
	spanFetch:    "shard.fetch",
	spanStore:    "shard.store",
	spanPlan:     "optimizer.plan",
	spanPrefetch: "cache.prefetch",
}

// span is one timed call at a layer boundary. Times are nanoseconds on the
// run clock. Parent is the index of the enclosing span, or -1.
type span struct {
	Start, End int64
	File       int32
	Parent     int32
	Shard      int8 // -1 for spans outside a shard
	Kind       spanKind
}

// clock is the run's monotonic time base shared by the generator, the
// verifier and the tracer.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// tracer keeps spans in a preallocated in-memory buffer. Recording is
// lock-free: a recorder claims a slot, fills it and then marks it ready, so
// a reader never sees a half-written span. Spans past the buffer's capacity
// are counted and dropped.
type tracer struct {
	clock
	on      atomic.Bool
	n       atomic.Int64
	dropped atomic.Int64
	spans   []span
	ready   []atomic.Bool
}

func newTracer(c clock, capacity int) *tracer {
	return &tracer{clock: c, spans: make([]span, capacity), ready: make([]atomic.Bool, capacity)}
}

func (t *tracer) record(kind spanKind, shard, file int, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{Start: start, End: end, File: int32(file), Parent: -1, Shard: int8(shard), Kind: kind}
	t.ready[i].Store(true)
}

// recorded returns a copy of the spans completely recorded so far. A fetch
// still in flight past the window (a cancelled hedge) may record later; its
// span is not included.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), int64(len(t.spans)))
	out := make([]span, 0, n)
	for i := int64(0); i < n; i++ {
		if t.ready[i].Load() {
			out = append(out, t.spans[i])
		}
	}
	return out
}

// tracedFetcher times every storage fetch a shard controller makes while
// the tracer is on. It keeps the versioned interface, so the controller's
// stripe-consistency checks still apply.
type tracedFetcher struct {
	inner core.VersionedChunkFetcher
	t     *tracer
	shard int
}

func (f *tracedFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

func (f *tracedFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, core.StripeInfo, error) {
	if !f.t.on.Load() {
		return f.inner.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	}
	start := f.t.now()
	data, info, err := f.inner.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	f.t.record(spanFetch, f.shard, fileID, start, f.t.now())
	return data, info, err
}

// tracedWriter times every storage write a shard controller makes while
// the tracer is on, keeping the pre-split fast path.
type tracedWriter struct {
	inner core.DataChunkWriter
	t     *tracer
	shard int
}

func (w *tracedWriter) WriteObject(ctx context.Context, fileID int, data []byte) (uint64, error) {
	if !w.t.on.Load() {
		return w.inner.WriteObject(ctx, fileID, data)
	}
	start := w.t.now()
	v, err := w.inner.WriteObject(ctx, fileID, data)
	w.t.record(spanStore, w.shard, fileID, start, w.t.now())
	return v, err
}

func (w *tracedWriter) WriteDataChunks(ctx context.Context, fileID int, dataChunks [][]byte, size int) (uint64, error) {
	if !w.t.on.Load() {
		return w.inner.WriteDataChunks(ctx, fileID, dataChunks, size)
	}
	start := w.t.now()
	v, err := w.inner.WriteDataChunks(ctx, fileID, dataChunks, size)
	w.t.record(spanStore, w.shard, fileID, start, w.t.now())
	return v, err
}

// traceSummary is what linking the recorded spans yields.
type traceSummary struct {
	linked, unlinked int
	readSelfNS       []float64 // per read span: duration not covered by its fetches
	readNS           []float64 // per read span: duration
	fetchNS          []float64 // per fetch span: duration
	planNS           []float64 // per plan span: duration
}

// link assigns parents. Spans on the two sides of the shard's TCP hop share
// no context, so a fetch (store) span's parent is the read (write) span of
// the same object whose interval contains it; with several candidates the
// latest-starting one wins. Child spans left without a parent are counted
// as unlinked.
func link(spans []span) traceSummary {
	byFile := map[[2]int32][]int32{} // (parent kind, file) → span indexes by start
	for i, s := range spans {
		if s.Kind == spanRead || s.Kind == spanWrite {
			k := [2]int32{int32(s.Kind), s.File}
			byFile[k] = append(byFile[k], int32(i))
		}
	}
	for _, idx := range byFile {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	var sum traceSummary
	children := map[int32][][2]int64{}
	for i := range spans {
		c := &spans[i]
		var parentKind spanKind
		switch c.Kind {
		case spanFetch:
			parentKind = spanRead
		case spanStore:
			parentKind = spanWrite
		case spanPlan:
			sum.planNS = append(sum.planNS, float64(c.End-c.Start))
			continue
		default:
			continue
		}
		if c.Kind == spanFetch {
			sum.fetchNS = append(sum.fetchNS, float64(c.End-c.Start))
		}
		idx := byFile[[2]int32{int32(parentKind), c.File}]
		// Candidates start at or before the child; walk back from the last.
		j := sort.Search(len(idx), func(j int) bool { return spans[idx[j]].Start > c.Start }) - 1
		for ; j >= 0; j-- {
			if p := spans[idx[j]]; p.End >= c.End {
				c.Parent = idx[j]
				break
			}
		}
		if c.Parent < 0 {
			sum.unlinked++
			continue
		}
		sum.linked++
		if c.Kind == spanFetch {
			children[c.Parent] = append(children[c.Parent], [2]int64{c.Start, c.End})
		}
	}
	for i, s := range spans {
		if s.Kind != spanRead {
			continue
		}
		dur := s.End - s.Start
		sum.readNS = append(sum.readNS, float64(dur))
		sum.readSelfNS = append(sum.readSelfNS, float64(dur-covered(children[int32(i)])))
	}
	return sum
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	start := int64(-1)
	for _, x := range iv {
		switch {
		case start < 0:
			start, end = x[0], x[1]
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if start >= 0 {
		total += end - start
	}
	return total
}

// dump writes the spans as JSON lines to path.
func dump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Shard  int    `json:"shard"`
		File   int    `json:"file"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
	}
	for i, s := range spans {
		if err := enc.Encode(line{i, spanNames[s.Kind], int(s.Shard), int(s.File), s.Start, s.End, int(s.Parent)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
