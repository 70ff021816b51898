// Command perfbench is the repository's open-loop, full-stack benchmark.
// One process holds both the load generator and the whole system: a router
// sends reads and writes over loopback TCP to two shard endpoints, each
// wrapping a controller that fetches and writes through the transport to
// one object-store server over 12 emulated OSDs with a (7,4) pool.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload zipf-hdd --seed 1 --seconds 24 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 24
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones of a
// traced run, and the span dump is written next to the binary. See
// README.md for the workloads and the metric dictionary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line. Its validity is printed on
// the line before it: the final line has exactly the four keys below.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Validity  validity               `json:"-"`
}

// validity says whether a run's figures describe the system rather than
// its surroundings. An invalid run is not a failed one: its reads were
// correct, but its latencies should not be compared with another run's.
type validity struct {
	Valid     bool     `json:"valid"`
	StealFrac float64  `json:"host_steal_frac"` // -1 where /proc/stat is unreadable
	LateMSMax float64  `json:"gen_late_ms_max"`
	Reasons   []string `json:"reasons,omitempty"`
}

// runConfig sizes one run. main derives it from the flags; tests shrink it.
type runConfig struct {
	seed      int64
	length    time.Duration // measured window
	warmup    time.Duration // unmeasured load before the window
	episodes  int           // independent stacks the window is split over
	trace     bool
	kneeProbe time.Duration // length of each knee-search probe
	out       string        // directory for span dumps; "" skips the dump
	hooks     hooks         // test hooks; the tracer is set by the run
}

// A run is invalid when the generator itself fell behind its schedule in
// one of its windows (median dispatch lateness above lateP50LimitMS, or one
// dispatch later than lateMaxLimitMS), or when other guests of the machine
// stole more than stealLimit of its CPU time during the windows. Short
// stalls that delay every goroutine in the process, the generator's
// included, stay valid: they are counted in the latencies, which are timed
// from the due time.
const (
	lateP50LimitMS = 1.0
	lateMaxLimitMS = 1000.0
	stealLimit     = 0.10
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 24, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:      *seed,
		length:    time.Duration(*seconds) * time.Second,
		warmup:    500 * time.Millisecond,
		episodes:  7,
		trace:     *traceFlag == 1,
		kneeProbe: 1500 * time.Millisecond,
		out:       *out,
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		todo = []workload{wl}
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}, Validity: validity{Valid: true, StealFrac: -1}}
	for _, wl := range todo {
		res, err := runWorkload(context.Background(), wl, cfg, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.Name, err)
			return 1
		}
		if len(todo) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		v := &total.Validity
		v.Valid = v.Valid && res.Validity.Valid
		v.StealFrac = max(v.StealFrac, res.Validity.StealFrac)
		v.LateMSMax = max(v.LateMSMax, res.Validity.LateMSMax)
		for _, r := range res.Validity.Reasons {
			v.Reasons = append(v.Reasons, wl.Name+": "+r)
		}
		for k, v := range res.Metrics {
			total.Metrics[wl.Name+"."+k] = v
		}
	}
	if err := printResult(stdout, total); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !total.Correct {
		return 1
	}
	return 0
}

// printResult prints the run's validity as a JSON line and then the
// result as the last line.
func printResult(stdout io.Writer, res result) error {
	v, err := json.Marshal(map[string]validity{"validity": res.Validity})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", v, line)
	return err
}

// runWorkload runs one workload and prints its metrics by name.
func runWorkload(ctx context.Context, wl workload, cfg runConfig, stdout io.Writer) (result, error) {
	fmt.Fprintf(stdout, "workload %s: %.0f ops/s offered, seed %d, window %v, trace %v\n", wl.Name, wl.Rate, cfg.seed, cfg.length, cfg.trace)
	var (
		res result
		err error
	)
	if cfg.trace {
		res, err = runTraced(ctx, wl, cfg, stdout)
	} else {
		res, err = runEndToEnd(ctx, wl, cfg, stdout)
	}
	if err != nil {
		return result{}, err
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "  correct %v, %d ops attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
	if v := res.Validity; v.Valid {
		fmt.Fprintf(stdout, "  validity: valid (host steal %.4f, generator lateness max %.1f ms)\n", v.StealFrac, v.LateMSMax)
	} else {
		fmt.Fprintf(stdout, "  validity: INVALID — %s\n", strings.Join(v.Reasons, "; "))
	}
	return res, nil
}

// measured is one workload window driven against a running stack.
type measured struct {
	w             *window
	before, after layerSnap
	heap          *heapSampler // live heap through the window
	host0, host1  hostCPU      // machine CPU at the window's ends
	repairS       float64      // time from OSD failure to no degraded object
	repairFrom    int64        // failure time on the run clock
	repairTo      int64
	wrong         int64 // wrong or stale reads, warm-up included
	errs          []string
}

// measure warms the stack up, then drives one window of the workload,
// injecting its faults at the window start. Its schedules come from rng.
func measure(ctx context.Context, s *stack, wl workload, cfg runConfig, rng *rand.Rand, t *tracer) (*measured, error) {
	steady := wl
	steady.FlipEvery = 0
	warm := s.drive(ctx, makeSchedule(rng, steady, wl.Rate, cfg.warmup), cfg.warmup, nil, nil)
	ops := makeSchedule(rng, wl, wl.Rate, cfg.length)

	m := &measured{}
	repairDone := make(chan error, 1)
	onStart := func() {
		if t != nil {
			t.on.Store(true)
		}
		if len(wl.FailOSDs) == 0 {
			return
		}
		m.repairFrom = s.clock.now()
		if err := s.failOSDs(wl.FailOSDs); err != nil {
			repairDone <- err
			return
		}
		go func() { repairDone <- s.awaitRepair(ctx, m) }()
	}
	m.before = s.snapshot()
	m.heap = startHeapSampler(20 * time.Millisecond)
	m.host0 = readHostCPU()
	m.w = s.drive(ctx, ops, cfg.length, t, onStart)
	m.host1 = readHostCPU()
	m.heap.Stop()
	if t != nil {
		t.on.Store(false)
	}
	m.after = s.snapshot()
	if len(wl.FailOSDs) > 0 {
		if err := <-repairDone; err != nil {
			return nil, err
		}
		if err := s.decodeAll(ctx); err != nil {
			m.wrong++
			m.errs = append(m.errs, err.Error())
		}
	}
	m.wrong += warm.wrong.Load() + m.w.wrong.Load()
	m.errs = append(append(m.errs, warm.firstErrs...), m.w.firstErrs...)
	return m, nil
}

// repairTimeout bounds the wait for the repair plane to converge.
const repairTimeout = 60 * time.Second

// awaitRepair polls until the pool has no degraded object and records the
// time that took.
func (s *stack) awaitRepair(ctx context.Context, m *measured) error {
	deadline := time.Now().Add(repairTimeout)
	for len(s.pool.DegradedObjects()) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("repair did not converge within %v", repairTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.repairTo = s.clock.now()
	m.repairS = float64(m.repairTo-m.repairFrom) / 1e9
	return nil
}

// counts returns how many window ops were attempted and how many failed.
func (m *measured) counts() (attempted, failed int) {
	for _, l := range m.w.lat {
		attempted++
		if l == failedNS {
			failed++
		}
	}
	return attempted, failed
}

// cpuPerOp returns the window's process CPU per completed op, µs.
func (m *measured) cpuPerOp() float64 {
	a, f := m.counts()
	return ratio(float64(m.after.proc.cpu-m.before.proc.cpu)/1e3, float64(a-f))
}

// report sets res's op counts and correctness from the window and logs
// any verification failure.
func (m *measured) report(res *result) {
	res.Attempted, res.Failed = m.counts()
	res.Correct = m.wrong == 0
	for _, e := range m.errs {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", e)
	}
}

// judge returns the validity of a run made of the given windows.
func judge(ms ...*measured) validity {
	v := validity{Valid: true}
	var steal hostSteal
	for i, m := range ms {
		steal.add(m.host0, m.host1)
		p50, _, top := m.w.lateness()
		v.LateMSMax = max(v.LateMSMax, top)
		if p50 > lateP50LimitMS || top > lateMaxLimitMS {
			v.Valid = false
			v.Reasons = append(v.Reasons, fmt.Sprintf("window %d: the generator fell behind its schedule (dispatch lateness p50 %.3f ms, max %.1f ms)", i, p50, top))
		}
	}
	v.StealFrac = steal.frac()
	if v.StealFrac > stealLimit {
		v.Valid = false
		v.Reasons = append(v.Reasons, fmt.Sprintf("other guests stole %.1f%% of the machine's CPU (limit %.0f%%)", 100*v.StealFrac, 100*stealLimit))
	}
	return v
}

// runEndToEnd measures cfg.episodes episodes, each on a freshly built
// stack with its own seed derived from cfg.seed, and splits the window
// between them. The replanner makes histories diverge from small
// differences, and the host disturbs whole stretches of seconds, so one
// long history would give a run's figures the spread of a single history
// and a single disturbance; independent episodes average both out.
// setup_s, heap_peak_mb and the read percentiles are medians over
// episodes, each episode's percentiles taken over every read it sent, a
// failed one as +Inf. CPU and allocation per op divide the episodes'
// summed deltas by their summed completed ops.
func runEndToEnd(ctx context.Context, wl workload, cfg runConfig, stdout io.Writer) (result, error) {
	c := clock{epoch: time.Now()}
	res := result{Correct: true}
	var (
		setups, peaks, lats []float64
		p50s, p99s          []float64
		cpu                 time.Duration
		allocs              uint64
		done                int
		ms                  []*measured
	)
	episode := cfg
	episode.length = cfg.length / time.Duration(cfg.episodes)
	for e := 0; e < cfg.episodes; e++ {
		seed := episodeSeed(cfg.seed, e)
		start := time.Now()
		s, err := buildStack(ctx, wl, seed, c, cfg.hooks)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		m, err := measure(ctx, s, wl, episode, rand.New(rand.NewSource(seed)), nil)
		s.Close()
		if err != nil {
			return result{}, err
		}
		ms = append(ms, m)
		var r result
		m.report(&r)
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		done += r.Attempted - r.Failed
		cpu += m.after.proc.cpu - m.before.proc.cpu
		allocs += m.after.proc.allocs - m.before.proc.allocs
		peaks = append(peaks, float64(m.heap.peak)/(1<<20))
		el := m.w.latencies(false, math.MinInt64, math.MaxInt64)
		lats = append(lats, el...)
		rs := summarize(el)
		p50s = append(p50s, rs.p50)
		p99s = append(p99s, rs.p99)
		fmt.Fprintf(stdout, "  episode %d (seed %d): setup %.4f s; %d reads, p50 %.4f ms, p99 %.4f ms; CPU %.1f us/op; host steal %.4f\n",
			e, seed, setups[e], rs.attempted, rs.p50, rs.p99, m.cpuPerOp(), judge(m).StealFrac)
		if ws := m.w.stats(true, math.MinInt64, math.MaxInt64); ws.attempted > 0 {
			fmt.Fprintf(stdout, "    writes: p50 %.4f ms, p99 %.4f ms, %d of %d failed\n", ws.p50, ws.p99, ws.failed, ws.attempted)
		}
		if m.repairS > 0 {
			fmt.Fprintf(stdout, "    repair: %.4f s from OSD failure to no degraded object\n", m.repairS)
		}
	}
	reads := summarize(lats)
	fmt.Fprintf(stdout, "  all episodes' reads pooled: p50 %.4f ms, p99 %.4f ms\n", reads.p50, reads.p99)
	res.Validity = judge(ms...)
	res.Metrics = map[string]metricValue{
		"setup_s":         {median(setups), "s"},
		"read_p50_ms":     {median(p50s), "ms"},
		"read_p99_ms":     {median(p99s), "ms"},
		"read_ok_frac":    {1 - ratio(float64(reads.failed), float64(reads.attempted)), "ratio"},
		"cpu_us_per_op":   {ratio(float64(cpu)/1e3, float64(done)), "us"},
		"alloc_kb_per_op": {ratio(float64(allocs)/1024, float64(done)), "KiB"},
		"heap_peak_mb":    {median(peaks), "MiB"},
	}
	return res, nil
}

// episodeSeed derives episode e's seed; episode 0 keeps the run's seed.
func episodeSeed(seed int64, e int) int64 { return seed + int64(e)*1_000_003 }

// runTraced measures the workload twice on fresh stacks, first untraced as
// the reference, then with spans recorded, and reports per-layer metrics
// from the traced window. On a Knee workload it then searches the read
// knee on the traced stack with tracing off.
func runTraced(ctx context.Context, wl workload, cfg runConfig, stdout io.Writer) (result, error) {
	c := clock{epoch: time.Now()}
	ref, err := buildStack(ctx, wl, cfg.seed, c, cfg.hooks)
	if err != nil {
		return result{}, err
	}
	mRef, err := measure(ctx, ref, wl, cfg, rand.New(rand.NewSource(cfg.seed)), nil)
	ref.Close()
	if err != nil {
		return result{}, err
	}

	t := newTracer(c, int(wl.Rate*(cfg.length+cfg.warmup).Seconds())*12+1024)
	h := cfg.hooks
	h.tracer = t
	s, err := buildStack(ctx, wl, cfg.seed, c, h)
	if err != nil {
		return result{}, err
	}
	defer s.Close()
	m, err := measure(ctx, s, wl, cfg, rand.New(rand.NewSource(cfg.seed)), t)
	if err != nil {
		return result{}, err
	}
	var refRes, res result
	mRef.report(&refRes)
	m.report(&res)
	res.Correct = res.Correct && refRes.Correct
	res.Validity = judge(mRef, m)
	spans := t.recorded()
	sum := link(spans)
	res.Metrics = s.layerMetrics(m, sum, mRef.cpuPerOp())
	if t.dropped.Load() > 0 {
		fmt.Fprintf(stdout, "  trace: %d spans dropped past the buffer\n", t.dropped.Load())
	}
	if wl.Knee {
		knee, wrong := s.knee(ctx, wl, cfg, rand.New(rand.NewSource(cfg.seed+1)))
		if wrong > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: verification failed: %d wrong or stale reads in the knee search\n", wrong)
			res.Correct = false
		}
		res.Metrics["read_knee_ops"] = metricValue{knee, "reads/s"}
	}
	if cfg.out != "" {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.Name, cfg.seed))
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return result{}, err
		}
		if err := dump(path, spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "  span dump: %s (%d spans)\n", path, len(spans))
	}
	return res, nil
}

// kneeP99MS is the read p99 limit of the knee search.
const kneeP99MS = 50.0

// knee bisects the highest offered read rate whose p99 stays within
// kneeP99MS with no failed read, between the workload's rate and four
// times it. A probe with a growing backlog fails the limit, because every
// op is timed from its due time. It returns the knee and the number of
// wrong reads seen.
func (s *stack) knee(ctx context.Context, wl workload, cfg runConfig, rng *rand.Rand) (float64, int64) {
	var wrong int64
	pass := func(rate float64) bool {
		w := s.drive(ctx, makeSchedule(rng, wl, rate, cfg.kneeProbe), cfg.kneeProbe, nil, nil)
		wrong += w.wrong.Load()
		st := w.stats(false, math.MinInt64, math.MaxInt64)
		s.settle()
		return st.failed == 0 && st.p99 <= kneeP99MS
	}
	lo, hi := wl.Rate, 4*wl.Rate
	for lo > wl.Rate/16 && !pass(lo) {
		hi, lo = lo, lo/2
	}
	for i := 0; i < 4; i++ {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, wrong
}

// settle lets background fills drain between probes.
func (s *stack) settle() {
	for _, ctrl := range s.ctrls {
		ctrl.WaitFills()
	}
	time.Sleep(200 * time.Millisecond)
}
