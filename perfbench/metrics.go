package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sprout/internal/core"
	"sprout/internal/erasure"
	"sprout/internal/objstore"
	"sprout/internal/repair"
	"sprout/internal/router"
	"sprout/internal/transport"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p99_ms", "ms", "lower", 0.25},
	{"read_ok_frac", "ratio", "higher", 0.001},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"heap_peak_mb", "MiB", "lower", 0.10},
}

// perLayer are the metrics of single layers, reported by the traced run of
// every workload. Metrics a workload does not exercise read 0.
var perLayer = []metricDef{
	{Name: "read_knee_ops", Unit: "reads/s", Better: "higher"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "write_fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "repair_s", Unit: "s", Better: "lower"},

	{Name: "router.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "router.fanout_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "router.inv_errors", Unit: "count", Better: "lower"},

	{Name: "core.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.read_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.storage_chunks_per_read", Unit: "chunks/read", Better: "lower"},
	{Name: "core.hedges_per_read", Unit: "hedges/read", Better: "lower"},
	{Name: "core.hedge_win_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.fill_drop_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.stale_reloads", Unit: "count", Better: "lower"},
	{Name: "core.auto_replans", Unit: "count", Better: "lower"},
	{Name: "core.failovers", Unit: "count", Better: "lower"},
	{Name: "core.cache_rescues", Unit: "count", Better: "higher"},

	{Name: "cache.cache_only_frac", Unit: "ratio", Better: "higher"},
	{Name: "cache.chunk_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "cache.invalidations_per_write", Unit: "chunks/write", Better: "lower"},

	{Name: "transport.fetch_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.fetch_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.fetch_overhead_us", Unit: "us", Better: "lower"},
	{Name: "transport.frames_per_read", Unit: "frames/read", Better: "lower"},
	{Name: "transport.bytes_per_read", Unit: "B/read", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "transport.overload_rejections", Unit: "count", Better: "lower"},
	{Name: "transport.deadline_rejections", Unit: "count", Better: "lower"},

	{Name: "optimizer.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.bound_ratio", Unit: "ratio", Better: "lower"},

	{Name: "objstore.osd_util_max", Unit: "ratio", Better: "lower"},
	{Name: "objstore.osd_util_cv", Unit: "ratio", Better: "lower"},
	{Name: "objstore.service_ms_mean", Unit: "ms", Better: "lower"},

	{Name: "erasure.decode_plan_hit_frac", Unit: "ratio", Better: "higher"},

	{Name: "repair.chunks_per_s", Unit: "chunks/s", Better: "higher"},
	{Name: "repair.failures", Unit: "count", Better: "lower"},
	{Name: "repair.deferred", Unit: "count", Better: "lower"},
	{Name: "repair.fg_read_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.gc_per_kop", Unit: "gc/kop", Better: "lower"},
	{Name: "runtime.gc_pause_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "host.steal_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unlinked_frac", Unit: "ratio", Better: "lower"},
}

// failedMS stands in for +Inf when a percentile lands on a failed op: JSON
// has no infinity, and no op in a window lasts this long.
const failedMS = 1e6

// percentile returns the nearest-rank q-quantile of xs, or 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if math.IsInf(xs[i], 1) {
		return failedMS
	}
	return xs[i]
}

// median returns the median of xs, the mean of the middle two for an even
// count, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSnap is the process's cumulative resource counters.
type procSnap struct {
	cpu      time.Duration
	allocs   uint64
	gcs      uint64
	gcPauses *metrics.Float64Histogram
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readProc() procSnap {
	samples := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   samples[0].Value.Uint64(),
		gcs:      samples[1].Value.Uint64(),
		gcPauses: samples[2].Value.Float64Histogram(),
	}
}

// heapSampler records the peak of live heap objects at a fixed period
// while a window runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			s.peak = max(s.peak, heap[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling.
func (s *heapSampler) Stop() {
	close(s.stop)
	s.done.Wait()
}

// hostCPU is the machine's cumulative CPU time over all processors from
// the first line of /proc/stat, in clock ticks: the total over the eight
// basic states and, of that, steal, the time the hypervisor ran other
// guests while this machine had work to run. ok is false where /proc/stat
// cannot be read.
type hostCPU struct {
	steal, total uint64
	ok           bool
}

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// hostSteal accumulates steal and total CPU ticks over one or more windows.
type hostSteal struct {
	steal, total uint64
	unknown      bool
}

// add counts the window between two readings.
func (h *hostSteal) add(before, after hostCPU) {
	if !before.ok || !after.ok {
		h.unknown = true
		return
	}
	h.steal += after.steal - before.steal
	h.total += after.total - before.total
}

// frac returns the share of the machine's CPU time that was stolen, or -1
// when it is unknown.
func (h hostSteal) frac() float64 {
	if h.unknown || h.total == 0 {
		return -1
	}
	return float64(h.steal) / float64(h.total)
}

// pauseP99 returns the p99 of the GC pauses between two histogram
// snapshots, in ms.
func pauseP99(before, after *metrics.Float64Histogram) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}

// layerSnap is every layer's cumulative counters at one instant.
type layerSnap struct {
	at      int64
	router  router.Stats
	fanout  core.HistogramBuckets
	ctrl    []core.Stats
	reads   []core.HistogramBuckets // per shard, all serving classes
	osds    []objstore.OSDHealth
	servers transport.TransportStats // storage server plus shard endpoints
	clients transport.TransportStats // shard storage clients
	coder   erasure.CoderStats       // pool plus every shard's per-file coders
	repair  repair.Stats
	proc    procSnap
}

func (s *stack) snapshot() layerSnap {
	ls := layerSnap{
		at:     s.clock.now(),
		router: s.router.Stats(),
		fanout: s.router.FanoutLatencyBuckets(),
		osds:   s.cluster.Health(),
		coder:  s.pool.CoderStats(),
		repair: s.repair.Stats(),
	}
	ls.servers = s.srv.Stats()
	for _, ep := range s.eps {
		ls.servers = ls.servers.Add(ep.Stats())
	}
	for _, cli := range s.clients {
		ls.clients = ls.clients.Add(cli.Stats())
	}
	for _, ctrl := range s.ctrls {
		ls.ctrl = append(ls.ctrl, ctrl.Stats())
		var all core.HistogramBuckets
		for _, b := range ctrl.ReadLatencyBuckets() {
			all = all.Add(b)
		}
		ls.reads = append(ls.reads, all)
		for _, f := range ctrl.Files() {
			ls.coder = ls.coder.Add(f.Code.Stats())
		}
	}
	ls.proc = readProc()
	return ls
}

// sumCtrl adds the shard controllers' counters.
func sumCtrl(st []core.Stats) core.Stats {
	var t core.Stats
	for _, s := range st {
		t.Reads += s.Reads
		t.ChunksFromCache += s.ChunksFromCache
		t.ChunksFromDisk += s.ChunksFromDisk
		t.CacheOnlyReads += s.CacheOnlyReads
		t.FillsEnqueued += s.FillsEnqueued
		t.FillsDropped += s.FillsDropped
		t.HedgesLaunched += s.HedgesLaunched
		t.HedgeWins += s.HedgeWins
		t.FetchFailovers += s.FetchFailovers
		t.AutoReplans += s.AutoReplans
		t.CacheRescues += s.CacheRescues
		t.Writes += s.Writes
		t.CacheInvalidations += s.CacheInvalidations
		t.StaleCacheReloads += s.StaleCacheReloads
	}
	return t
}
