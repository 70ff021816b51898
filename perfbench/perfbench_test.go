package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"sprout/internal/core"
)

// tiny shrinks a workload so a whole run takes a few seconds.
func tiny(w workload) workload {
	w.Objects = 24
	w.CacheChunks = 24
	w.Rate = 200
	if w.FlipEvery > 0 {
		w.FlipEvery = 300 * time.Millisecond
	}
	return w
}

func tinyConfig(trace bool) runConfig {
	return runConfig{
		seed:      7,
		length:    time.Second,
		warmup:    200 * time.Millisecond,
		episodes:  1,
		trace:     trace,
		kneeProbe: 300 * time.Millisecond,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks that the reads verified and that exactly the declared
// metrics were emitted, each with a valid name and its declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				res, err := runWorkload(context.Background(), tiny(wl), tinyConfig(trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
				}
				if v := res.Validity; v.StealFrac > 1 || v.LateMSMax < 0 || v.Valid != (len(v.Reasons) == 0) {
					t.Errorf("inconsistent validity %+v", v)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case got.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, got.Unit, d.Unit)
					case !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit):
						t.Errorf("metric %s has an invalid name or unit %q", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// TestResultLines checks the last two output lines: the run's validity,
// then the result with exactly the keys correct, attempted, failed and
// metrics.
func TestResultLines(t *testing.T) {
	var out strings.Builder
	res := result{
		Correct: true, Attempted: 3, Metrics: map[string]metricValue{"setup_s": {1.5, "s"}},
		Validity: validity{StealFrac: 0.2, Reasons: []string{"stolen"}},
	}
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2: %q", len(lines), out.String())
	}
	var v map[string]validity
	if err := json.Unmarshal([]byte(lines[0]), &v); err != nil || v["validity"].Valid || v["validity"].StealFrac != 0.2 {
		t.Errorf("validity line %q: %v", lines[0], err)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(last), lines[1])
	}
}

func TestJudgeSteal(t *testing.T) {
	w := &window{late: []int64{1e5, 2e5}}
	quiet := &measured{w: w, host0: hostCPU{steal: 10, total: 1000, ok: true}, host1: hostCPU{steal: 20, total: 2000, ok: true}}
	if v := judge(quiet); !v.Valid || v.StealFrac != 0.01 {
		t.Errorf("1%% steal: %+v", v)
	}
	stolen := &measured{w: w, host0: hostCPU{steal: 0, total: 0, ok: true}, host1: hostCPU{steal: 400, total: 1000, ok: true}}
	if v := judge(quiet, stolen); v.Valid || v.StealFrac != 410.0/2000 {
		t.Errorf("20%% steal: %+v", v)
	}
	if v := judge(&measured{w: w}); !v.Valid || v.StealFrac != -1 {
		t.Errorf("unknown steal: %+v", v)
	}
}

// corruptingFetcher flips one byte of every chunk it returns.
type corruptingFetcher struct{ inner core.VersionedChunkFetcher }

func (f corruptingFetcher) FetchChunk(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
	data, _, err := f.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	return data, err
}

func (f corruptingFetcher) FetchChunkV(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, core.StripeInfo, error) {
	data, info, err := f.inner.FetchChunkV(ctx, fileID, chunkIndex, nodeID)
	if err != nil || len(data) == 0 {
		return data, info, err
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x5a
	return bad, info, nil
}

// TestVerifierCatchesCorruptFetch shows the correctness check fails a run
// whose storage fetches return a corrupted byte: with no cache, every read
// decodes from the corrupted chunks.
func TestVerifierCatchesCorruptFetch(t *testing.T) {
	wl := tiny(workloads[0])
	wl.CacheChunks = 0
	cfg := tinyConfig(false)
	cfg.hooks.fetcher = func(f core.VersionedChunkFetcher) core.VersionedChunkFetcher { return corruptingFetcher{f} }
	res, err := runWorkload(context.Background(), wl, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run whose fetcher corrupts every chunk was reported correct")
	}
}

func TestVerifierVersions(t *testing.T) {
	v := newVerifier(1)
	v0 := []byte("version zero....")
	v1 := []byte("version one.....")
	v.ingested(0, v0)
	idx := v.begin(0, v.sum(v1), 10)
	if err := v.check(0, v1, 5); err != nil {
		t.Errorf("in-flight version rejected: %v", err)
	}
	if err := v.check(0, v0, 15); err != nil {
		t.Errorf("old version rejected while the overwrite is in flight: %v", err)
	}
	v.ack(0, idx, 20)
	if err := v.check(0, v0, 15); err != nil {
		t.Errorf("old version rejected for a read sent before the ack: %v", err)
	}
	if err := v.check(0, v0, 30); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale read accepted: %v", err)
	}
	if err := v.check(0, v1, 30); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	if err := v.check(0, []byte("torn or garbage.."), 30); err == nil {
		t.Error("bytes of no version accepted")
	}
	if v.latest(0) != v.sum(v1) {
		t.Error("latest is not the acknowledged overwrite")
	}
}

func TestLinkSelfTime(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, File: 1, Parent: -1, Shard: -1, Kind: spanRead},
		{Start: 10, End: 40, File: 1, Parent: -1, Kind: spanFetch},
		{Start: 30, End: 60, File: 1, Parent: -1, Kind: spanFetch},
		{Start: 50, End: 70, File: 2, Parent: -1, Kind: spanFetch},  // no read of file 2
		{Start: 90, End: 120, File: 1, Parent: -1, Kind: spanFetch}, // outlives its read
	}
	sum := link(spans)
	if sum.linked != 2 || sum.unlinked != 2 {
		t.Fatalf("linked %d unlinked %d, want 2 and 2", sum.linked, sum.unlinked)
	}
	if spans[1].Parent != 0 || spans[2].Parent != 0 {
		t.Errorf("fetch parents %d %d, want 0", spans[1].Parent, spans[2].Parent)
	}
	if len(sum.readSelfNS) != 1 || sum.readSelfNS[0] != 50 {
		t.Errorf("read self time %v, want [50]", sum.readSelfNS)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics the benchmark emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
