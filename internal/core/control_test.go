package core

import (
	"context"
	"testing"
	"time"

	"sprout/internal/tick"
)

// The TestAnalyzer* tests pin the saturation analysis the control job
// performs for the admission gate: windowed p99 in, dwell-limited brownout
// level out.

func newTestGate() *admissionGate {
	return newAdmissionGate(AdmissionConfig{LatencyTarget: 100 * time.Millisecond})
}

// p99ForScore is the windowed p99 that scores score against the test
// gate's 100ms latency target.
func p99ForScore(score float64) time.Duration {
	return time.Duration(score * float64(100*time.Millisecond))
}

func TestAnalyzerDesiredLevel(t *testing.T) {
	cases := []struct {
		score float64
		want  int
	}{
		{0, 0},
		{0.5, 0},
		{0.74, 0},
		{0.75, 1},
		{0.99, 1},
		{1.0, 2},
		{1.24, 2},
		{1.25, 3},
		{10, 3},
	}
	for _, tc := range cases {
		if got := levelFor(tc.score); got != tc.want {
			t.Errorf("levelFor(%v) = %d, want %d", tc.score, got, tc.want)
		}
	}
}

// TestAnalyzerPinsGateImmediately: the live queue-depth signal moves the
// level at once — the dwell damps only the windowed latency level — and a
// gate that has seen no window sits at level 0.
func TestAnalyzerPinsGateImmediately(t *testing.T) {
	g := newTestGate()
	if got := g.level(); got != 0 {
		t.Fatalf("level before any window = %d, want 0", got)
	}
	now := time.Unix(1000, 0)
	g.observeWindow(now, p99ForScore(0.8)) // latency level 1
	g.observeWindow(now.Add(time.Millisecond), 0)
	if got := g.level(); got != 1 {
		t.Fatalf("latency level = %d inside the dwell, want held at 1", got)
	}
	g.inflight.Add(int64(g.cfg.MaxInFlight * 10))
	if got := g.level(); got != 3 {
		t.Fatalf("level with 10x MaxInFlight in flight = %d, want 3 at once", got)
	}
	g.inflight.Add(-int64(g.cfg.MaxInFlight * 10))
	if got := g.level(); got != 1 {
		t.Fatalf("level after the queue drained = %d, want the held latency level 1", got)
	}
}

// TestAnalyzerDwellTransitions drives observeWindow through a table of
// timed scores and checks the applied levels.
func TestAnalyzerDwellTransitions(t *testing.T) {
	base := time.Unix(1000, 0)
	steps := []struct {
		at        time.Duration
		score     float64
		wantLevel int
	}{
		// First transition is immediate (nothing to dwell from).
		{0, 2.0, 3},
		// Recovery within the dwell is held.
		{100 * time.Millisecond, 0, 3},
		{900 * time.Millisecond, 0, 3},
		// Past the dwell the recovery applies.
		{1100 * time.Millisecond, 0, 0},
		// A fresh spike within the new dwell is held too: dwell limits both
		// directions, not just downshifts.
		{1200 * time.Millisecond, 2.0, 0},
		{2000 * time.Millisecond, 2.0, 0},
		{2200 * time.Millisecond, 2.0, 3},
		// Intermediate levels map too.
		{3300 * time.Millisecond, 0.8, 1},
		{4400 * time.Millisecond, 1.1, 2},
	}
	g := newTestGate()
	for i, st := range steps {
		g.observeWindow(base.Add(st.at), p99ForScore(st.score))
		if got := g.level(); got != st.wantLevel {
			t.Fatalf("step %d (t=%v score=%v): level = %d, want %d", i, st.at, st.score, got, st.wantLevel)
		}
	}
}

// TestAnalyzerNeverOscillatesFasterThanDwell feeds a worst-case square wave
// (alternating healthy/saturated every window) and asserts consecutive level
// changes are never closer than the dwell.
func TestAnalyzerNeverOscillatesFasterThanDwell(t *testing.T) {
	const window = 50 * time.Millisecond
	g := newTestGate()
	base := time.Unix(2000, 0)
	var shifts []time.Time
	for i := 0; i < 200; i++ {
		now := base.Add(time.Duration(i) * window)
		score := 0.0
		if i%2 == 0 {
			score = 2.0
		}
		if g.observeWindow(now, p99ForScore(score)) {
			shifts = append(shifts, now)
		}
	}
	if len(shifts) < 2 {
		t.Fatalf("square wave produced %d level changes, expected several", len(shifts))
	}
	for i := 1; i < len(shifts); i++ {
		if gap := shifts[i].Sub(shifts[i-1]); gap < brownoutDwell {
			t.Fatalf("level changes %v apart, dwell is %v", gap, brownoutDwell)
		}
	}
}

func TestAnalyzerScoreWorstSignalWins(t *testing.T) {
	g := newTestGate()
	// Queue signal: 128 in flight of 256 max = 0.5; latency signal:
	// 150ms p99 of 100ms target = 1.5. The worse signal must win.
	g.inflight.Add(int64(g.cfg.MaxInFlight / 2))
	g.observeWindow(time.Unix(1000, 0), 150*time.Millisecond)
	if got := g.score(); got != 1.5 {
		t.Fatalf("score = %v, want 1.5", got)
	}
	g.observeWindow(time.Unix(1000, 0), time.Millisecond)
	if got := g.score(); got != 0.5 {
		t.Fatalf("score = %v, want 0.5", got)
	}
}

// TestAnalyzerLoopEndToEnd runs the real control job against a live
// controller: unloaded it holds level 0, and reads slower than the latency
// target raise the level from the measured read histogram.
func TestAnalyzerLoopEndToEnd(t *testing.T) {
	ctrl, store := buildControllerWith(t, 3, 0, 0.05, ServeOptions{
		ReplanInterval: 5 * time.Millisecond, // the control tick
		Admission:      &AdmissionConfig{LatencyTarget: time.Millisecond},
	})
	defer ctrl.Close()
	if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ctrl.sched.JobRuns(ctrl.controlJob) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("control job never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if lvl := ctrl.SaturationLevel(); lvl != 0 {
		t.Fatalf("unloaded controller at level %d", lvl)
	}

	slow := FetcherFunc(func(ctx context.Context, fileID, chunkIndex, nodeID int) ([]byte, error) {
		time.Sleep(3 * time.Millisecond)
		return store.FetchChunk(ctx, fileID, chunkIndex, nodeID)
	})
	for ctrl.SaturationLevel() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reads at 3x the latency target never raised the level (score %v)", ctrl.SaturationScore())
		}
		// File 1 is never shed: with uniform rates only file 0 ranks
		// low-value.
		if _, err := ctrl.Read(context.Background(), 1, slow); err != nil {
			t.Fatal(err)
		}
	}
	if ctrl.Stats().BrownoutShifts == 0 {
		t.Fatal("level changed without counting a brownout shift")
	}
}

// TestControllersShareScheduler: controllers on one scheduler each hold
// their own control job, closing one removes only its job, and a
// membership change replans only the controller it was reported to.
func TestControllersShareScheduler(t *testing.T) {
	sched := tick.New()
	defer sched.Close()
	ctrls := make([]*Controller, 3)
	for i := range ctrls {
		ctrl, _ := buildControllerWith(t, 3, 2, 0.05, ServeOptions{
			ReplanInterval: time.Hour, // only the membership kick replans
			Tick:           sched,
		})
		defer ctrl.Close()
		if _, err := ctrl.PlanTimeBin(ctrlLambdas(ctrl)); err != nil {
			t.Fatal(err)
		}
		ctrls[i] = ctrl
	}
	if n := sched.NumJobs(); n != 3 {
		t.Fatalf("3 controllers registered %d jobs, want 3", n)
	}
	ctrls[2].Close()
	if n := sched.NumJobs(); n != 2 {
		t.Fatalf("after closing one controller %d jobs remain, want 2", n)
	}

	ctrls[0].SetNodeDown(2)
	deadline := time.Now().Add(2 * time.Second)
	for ctrls[0].Stats().AutoReplans == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SetNodeDown on controller 0 never replanned it")
		}
		time.Sleep(time.Millisecond)
	}
	if n := ctrls[1].Stats().AutoReplans; n != 0 {
		t.Fatalf("controller 1 replanned %d times on controller 0's membership change", n)
	}
}
