package main

import (
	"context"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sprout/internal/core"
	"sprout/internal/metrics"
	"sprout/internal/obs"
	"sprout/internal/repair"
	"sprout/internal/router"
	"sprout/internal/transport"
)

// wantErr checks err against a wanted substring ("" wants no error).
func wantErr(t *testing.T, spec string, err error, want string) bool {
	t.Helper()
	if (want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), want)) {
		t.Errorf("%q: error = %v, want %q", spec, err, want)
		return false
	}
	return err == nil
}

func TestParseOSDEvents(t *testing.T) {
	for _, tc := range []struct {
		spec, err string
		want      []osdEvent
	}{
		{spec: ""},
		{spec: "500ms:2,5;1s:7", want: []osdEvent{{500 * time.Millisecond, []int{2, 5}}, {time.Second, []int{7}}}},
		{spec: "500ms", err: "want duration:id"},
		{spec: "soon:2", err: "invalid duration"},
		{spec: "1s:two", err: "invalid syntax"},
		{spec: "1s:2,", err: "invalid syntax"},
	} {
		got, err := parseOSDEvents(tc.spec)
		if wantErr(t, tc.spec, err, tc.err) && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestParseChaosRules(t *testing.T) {
	for _, tc := range []struct {
		spec, err string
		want      map[int]transport.ChaosRule
	}{
		{spec: ""},
		{
			// Several rules for one OSD merge into one.
			spec: "2:lat=30ms;2:err=0.2;2:jitter=5ms;5:stall=1s;7:drop;7:dropreply",
			want: map[int]transport.ChaosRule{
				2: {Latency: 30 * time.Millisecond, Jitter: 5 * time.Millisecond, ErrorRate: 0.2},
				5: {Stall: time.Second},
				7: {DropRequests: true, DropReplies: true},
			},
		},
		{spec: "2lat=30ms", err: "want osd:kind"},
		{spec: "2:lat=fast", err: "invalid duration"},
		{spec: "x:drop", err: "invalid syntax"},
		{spec: "2:err=1.5", err: "outside [0, 1]"},
		{spec: "2:err=-0.1", err: "outside [0, 1]"},
		{spec: "2:err=NaN", err: "outside [0, 1]"},
		{spec: "2:slow=1ms", err: "unknown kind"},
	} {
		chaos, err := parseChaosRules(tc.spec)
		if !wantErr(t, tc.spec, err, tc.err) {
			continue
		}
		if (chaos == nil) != (tc.want == nil) {
			t.Errorf("%q: harness %v, want rules %v", tc.spec, chaos, tc.want)
			continue
		}
		for osd := 0; chaos != nil && osd < 12; osd++ {
			got, ok := chaos.Rule(osd)
			if want, wantOK := tc.want[osd]; ok != wantOK || got != want {
				t.Errorf("%q: OSD %d rule = %+v (set %v), want %+v", tc.spec, osd, got, ok, want)
			}
		}
	}
}

// TestCtrlSmoke runs the ctrl path end to end with one and with two shards,
// failing two OSDs and recovering one under load: every read must succeed.
func TestCtrlSmoke(t *testing.T) {
	for _, shards := range []int{1, 2} {
		const objects, objSize = 8, 64 << 10
		oc, err := newCluster(12, objSize)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		reads, err := runCtrl(oc, ctrlConfig{
			controllers:   shards,
			objects:       objects,
			objSize:       objSize,
			clients:       4,
			duration:      300 * time.Millisecond,
			failures:      []osdEvent{{after: 100 * time.Millisecond, ids: []int{2, 5}}},
			recoveries:    []osdEvent{{after: 200 * time.Millisecond, ids: []int{2}}},
			loseChunks:    true,
			repairWorkers: 2,
			repairScan:    20 * time.Millisecond,
			serve: core.ServeOptions{
				HedgeDelay:      10 * time.Millisecond,
				HedgeExtra:      1,
				FillWorkers:     2,
				ReplanInterval:  100 * time.Millisecond,
				ReplanThreshold: 0.5,
			},
		}, &out)
		if err != nil {
			t.Fatalf("%d shards: %v\n%s", shards, err, out.String())
		}
		if reads == 0 {
			t.Fatalf("%d shards: no reads served\n%s", shards, out.String())
		}
		for _, want := range []string{"cache-hit reads:", "down OSDs at exit:", "shard-0:", "failed OSDs [2 5]", "recovered OSDs [2]"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%d shards: report lacks %q\n%s", shards, want, out.String())
			}
		}
	}
}

// TestCtrlBadInputFails checks that a failure event naming an OSD the
// cluster does not have, a shard count below one, or a metrics address
// already in use makes the run fail instead of passing silently or
// crashing.
func TestCtrlBadInputFails(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, tc := range []struct {
		cfg  ctrlConfig
		want string
	}{
		{ctrlConfig{controllers: 1, failures: []osdEvent{{ids: []int{99}}}}, "fail injection"},
		{ctrlConfig{controllers: 0}, "at least one shard"},
		{ctrlConfig{controllers: 1, metricsAddr: taken.Addr().String()}, "-metrics"},
	} {
		oc, err := newCluster(12, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tc.cfg
		cfg.objects, cfg.objSize, cfg.clients, cfg.duration = 4, 16<<10, 1, 50*time.Millisecond
		if _, err := runCtrl(oc, cfg, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestServeShards starts serve mode's shard endpoints and reads every
// object through a remote router that learned the ring from one endpoint's
// membership exchange. The deployment's registry must then pass the
// conformance lint and the strict parser, with each shard's reads under its
// shard label.
func TestServeShards(t *testing.T) {
	const objects, objSize = 6, 16 << 10
	oc, err := newCluster(12, objSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := oc.Pool("ec-7-4")
	if err != nil {
		t.Fatal(err)
	}
	r := router.New(router.Options{FanoutWorkers: 1})
	defer r.Close()
	p, eps, err := serveShards(pool, r, 2, objects, objSize, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for _, ep := range eps {
		defer ep.Close()
	}
	remote := router.New(router.Options{FanoutWorkers: 1})
	defer remote.Close()
	ctx := context.Background()
	if added, err := remote.SyncMembership(ctx, eps[1].Addr()); err != nil || added != 2 {
		t.Fatalf("SyncMembership = %d, %v; want both shards", added, err)
	}
	for f := 0; f < objects; f++ {
		if data, err := remote.Read(ctx, f, nil); err != nil || len(data) != objSize {
			t.Fatalf("remote read of file %d: %d bytes, %v", f, len(data), err)
		}
	}

	mgr := repair.NewManager(pool, repair.Config{Workers: 1})
	defer mgr.Close()
	reg := obs.NewRegistry(p.metricsSources(r, oc, mgr))
	if issues := metrics.Lint(reg); len(issues) != 0 {
		t.Fatalf("registry fails conformance:\n  %s", strings.Join(issues, "\n  "))
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	reads := map[string]float64{}
	for _, s := range fams["sprout_reads_total"].Samples {
		reads[s.Labels["shard"]] += s.Value
	}
	if reads["shard-0"] == 0 || reads["shard-1"] == 0 || reads["shard-0"]+reads["shard-1"] != objects {
		t.Errorf("sprout_reads_total by shard = %v, want %d reads split over shard-0 and shard-1", reads, objects)
	}
}
