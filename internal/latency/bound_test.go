package latency

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sprout/internal/queue"
)

func makeMoments(means, variances []float64) []queue.ResponseMoments {
	out := make([]queue.ResponseMoments, len(means))
	for i := range means {
		out[i] = queue.ResponseMoments{Mean: means[i], Variance: variances[i]}
	}
	return out
}

func TestFileBoundFullyCached(t *testing.T) {
	moments := makeMoments([]float64{10, 20}, []float64{1, 2})
	b, z := FileBound([]float64{0, 0}, moments)
	if b != 0 || z != 0 {
		t.Fatalf("fully cached file must have zero bound, got %v (z=%v)", b, z)
	}
}

// TestFileBoundZeroMeanReturns is the regression test for zero-mean
// moments: the bisection bracket used to start at maxMean = 0 and never
// grow, so FileBound spun forever.
func TestFileBoundZeroMeanReturns(t *testing.T) {
	moments := makeMoments(make([]float64, 7), make([]float64, 7))
	done := make(chan float64, 1)
	go func() { b, _ := FileBound([]float64{1, 1, 1, 1, 0, 0, 0}, moments); done <- b }()
	select {
	case b := <-done:
		if math.Abs(b) > 1e-9 {
			t.Fatalf("zero-service bound = %v, want ~0", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FileBound did not return within 2s on zero-mean moments")
	}
}

func TestFileBoundSingleNodeDeterministic(t *testing.T) {
	// With a single node, pi=1 and zero variance, the bound collapses to the
	// node's mean response time.
	moments := makeMoments([]float64{5}, []float64{0})
	b, _ := FileBound([]float64{1}, moments)
	if math.Abs(b-5) > 1e-6 {
		t.Fatalf("bound = %v, want 5", b)
	}
}

func TestFileBoundUpperBoundsMaxMean(t *testing.T) {
	// Requesting one chunk from each of k nodes: the bound must be at least
	// the largest mean (expectation of a max) and at most the sum of means
	// plus std deviations.
	moments := makeMoments([]float64{5, 10, 20}, []float64{4, 4, 4})
	pi := []float64{1, 1, 1}
	b, _ := FileBound(pi, moments)
	if b < 20 {
		t.Fatalf("bound %v below max mean 20", b)
	}
	var upper float64
	for _, m := range moments {
		upper += m.Mean + math.Sqrt(m.Variance)
	}
	if b > upper {
		t.Fatalf("bound %v above naive sum %v", b, upper)
	}
}

func TestFileBoundMonotoneInVariance(t *testing.T) {
	lo := makeMoments([]float64{10, 10}, []float64{1, 1})
	hi := makeMoments([]float64{10, 10}, []float64{100, 100})
	pi := []float64{1, 1}
	bLo, _ := FileBound(pi, lo)
	bHi, _ := FileBound(pi, hi)
	if bHi <= bLo {
		t.Fatalf("bound should grow with variance: %v <= %v", bHi, bLo)
	}
}

func TestFileBoundFewerChunksIsBetter(t *testing.T) {
	// Caching chunks (reducing total probability mass) must not increase the
	// bound when the remaining probabilities are unchanged or scaled down.
	moments := makeMoments([]float64{8, 12, 16, 20}, []float64{4, 4, 4, 4})
	full := []float64{1, 1, 1, 1}  // 4 chunks from storage
	fewer := []float64{1, 1, 1, 0} // one chunk served from cache
	bFull, _ := FileBound(full, moments)
	bFewer, _ := FileBound(fewer, moments)
	if bFewer >= bFull {
		t.Fatalf("caching a chunk should reduce the bound: %v >= %v", bFewer, bFull)
	}
}

func TestFileBoundPanicsOnBadInput(t *testing.T) {
	moments := makeMoments([]float64{1}, []float64{1})
	t.Run("length mismatch", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		FileBound([]float64{1, 1}, moments)
	})
	t.Run("negative probability", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		FileBound([]float64{-0.5}, moments)
	})
}

func TestFileBoundOptimalZIsStationary(t *testing.T) {
	// Property: the returned z is (numerically) a minimiser — perturbing z in
	// either direction must not decrease the objective.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		means := make([]float64, n)
		vars := make([]float64, n)
		pi := make([]float64, n)
		for i := 0; i < n; i++ {
			means[i] = 1 + rng.Float64()*50
			vars[i] = rng.Float64() * 100
			pi[i] = rng.Float64()
		}
		moments := makeMoments(means, vars)
		b, z := FileBound(pi, moments)
		for _, dz := range []float64{-0.01, 0.01, -1, 1} {
			zz := z + dz
			if zz < 0 {
				continue
			}
			if boundAt(zz, pi, moments) < b-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeMomentsUnstable(t *testing.T) {
	stats := queue.StatsFromDist(queue.NewExponential(1))
	nodes := []Node{{Stats: stats, Lambda: 2}}
	if _, err := NodeMoments(nodes); err == nil {
		t.Fatal("expected error for unstable node")
	}
}

func TestObjectiveWeighting(t *testing.T) {
	moments := makeMoments([]float64{10, 30}, []float64{0, 0})
	pi := [][]float64{
		{1, 0}, // file 0 only uses the fast node
		{0, 1}, // file 1 only uses the slow node
	}
	// Equal rates: objective is the average of the two bounds.
	obj := Objective(pi, []float64{1, 1}, moments)
	if math.Abs(obj-20) > 1e-6 {
		t.Fatalf("objective = %v, want 20", obj)
	}
	// Skewed rates towards the fast file lower the weighted latency.
	objSkew := Objective(pi, []float64{3, 1}, moments)
	if objSkew >= obj {
		t.Fatalf("weighting towards the faster file should lower the objective: %v >= %v", objSkew, obj)
	}
	// Zero total rate.
	if Objective(pi, []float64{0, 0}, moments) != 0 {
		t.Fatal("objective with zero rates should be 0")
	}
}

func TestNodeLoads(t *testing.T) {
	pi := [][]float64{
		{0.5, 0.5, 0},
		{0, 1, 1},
	}
	loads := NodeLoads(pi, []float64{2, 4}, 3)
	want := []float64{1, 5, 4}
	for j := range want {
		if math.Abs(loads[j]-want[j]) > 1e-12 {
			t.Fatalf("load[%d] = %v, want %v", j, loads[j], want[j])
		}
	}
}

func TestEvaluateAssignment(t *testing.T) {
	stats := []queue.NodeStats{
		queue.StatsFromDist(queue.NewExponential(0.1)),
		queue.StatsFromDist(queue.NewExponential(0.1)),
	}
	pi := [][]float64{{1, 1}}
	obj, moments, err := EvaluateAssignment(stats, []float64{0.01}, pi)
	if err != nil {
		t.Fatal(err)
	}
	if len(moments) != 2 {
		t.Fatalf("expected 2 moment entries, got %d", len(moments))
	}
	if obj <= 0 {
		t.Fatalf("objective should be positive, got %v", obj)
	}
	// Unstable case.
	_, _, err = EvaluateAssignment(stats, []float64{1}, pi)
	if err == nil {
		t.Fatal("expected error for unstable assignment")
	}
}

func TestBoundTightAgainstMonteCarloMax(t *testing.T) {
	// The bound must upper-bound the expected maximum of independent
	// normal-ish response times with the same means/variances. We use gamma
	// samples (positive support) as stand-ins for Q_j.
	rng := rand.New(rand.NewSource(99))
	means := []float64{10, 14, 18}
	vars := []float64{9, 16, 25}
	moments := makeMoments(means, vars)
	pi := []float64{1, 1, 1}
	bound, _ := FileBound(pi, moments)

	var mc float64
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		var max float64
		for j := range means {
			g, err := queue.GammaFromMeanVar(means[j], vars[j])
			if err != nil {
				t.Fatal(err)
			}
			x := g.Sample(rng)
			if x > max {
				max = x
			}
		}
		mc += max
	}
	mc /= trials
	if bound < mc {
		t.Fatalf("analytical bound %v is below Monte-Carlo expected max %v", bound, mc)
	}
}
