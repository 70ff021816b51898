package bench

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/core"
	"sprout/internal/resilience"
)

// closedLoop drives totalOps operations from workers goroutines that claim
// op indices 0..totalOps-1 from one shared cursor, timing each op. A worker
// stops at its first error; once every worker has finished the first such
// error is returned. Latencies come back sorted, ready for pct.
func closedLoop(workers, totalOps int, op func(worker, i int) error) ([]time.Duration, time.Duration, error) {
	var next atomic.Int64
	latencies := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lats []time.Duration
			for {
				i := int(next.Add(1)) - 1
				if i >= totalOps {
					break
				}
				opStart := time.Now()
				if err := op(w, i); err != nil {
					errs[w] = err
					return
				}
				lats = append(lats, time.Since(opStart))
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return mergeSorted(latencies), elapsed, nil
}

// readLoopResult is what one readLoop measured: sorted success latencies,
// shed reads (ErrSaturated or overload push-back), hard errors and the
// loop's wall time.
type readLoopResult struct {
	lats    []time.Duration
	sheds   int64
	errors  int64
	elapsed time.Duration
}

// readLoop runs reads from workers goroutines, worker by worker until
// more(i) is false for its i-th read. Worker w picks files with its own
// rand.Source seeded seed+w, so the same seed replays the same op stream;
// read serves one file. A failed read is classified and the worker carries
// on.
func readLoop(workers int, seed int64, more func(i int) bool, pick func(*rand.Rand) int, read func(fileID int) error) readLoopResult {
	latencies := make([][]time.Duration, workers)
	var sheds, hardErrs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			var lats []time.Duration
			for i := 0; more(i); i++ {
				fileID := pick(r)
				opStart := time.Now()
				switch err := read(fileID); {
				case err == nil:
					lats = append(lats, time.Since(opStart))
				case errors.Is(err, core.ErrSaturated) || resilience.IsOverload(err):
					sheds.Add(1)
				default:
					hardErrs.Add(1)
				}
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return readLoopResult{lats: mergeSorted(latencies), sheds: sheds.Load(), errors: hardErrs.Load(), elapsed: elapsed}
}

// upTo is the readLoop bound for n reads per worker.
func upTo(n int) func(int) bool { return func(i int) bool { return i < n } }

// mergeSorted concatenates per-worker latencies and sorts them.
func mergeSorted(perWorker [][]time.Duration) []time.Duration {
	var merged []time.Duration
	for _, l := range perWorker {
		merged = append(merged, l...)
	}
	slices.Sort(merged)
	return merged
}

// pct returns the p-quantile of sorted latencies in unit; 0 when empty.
func pct(sorted []time.Duration, p float64, unit time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(unit)
}
