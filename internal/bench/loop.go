package bench

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
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
