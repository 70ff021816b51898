package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"sprout/internal/tick"
)

// latencyWindow is the control tick when the admission gate's latency
// signal is the only periodic plane (no replanner or autoscaler sets the
// cadence).
const latencyWindow = 250 * time.Millisecond

// controlSeq makes control-job names unique so several controllers can
// share one injected scheduler: tick.Register replaces same-name jobs, so a
// fixed name would let a second controller silently evict the first one's.
var controlSeq atomic.Int64

// startControlJob registers the controller's one periodic job, which
// re-runs the paper's Algorithm 1 on measured rates and sets the brownout
// level. It ticks at the autoscaler's Interval when one is configured,
// else at ReplanInterval, else at latencyWindow when only the gate's
// latency signal needs measuring; with none of those it registers nothing.
// Each tick it, in order:
//
//   - folds the read-latency histogram delta since the previous tick into
//     the gate's windowed p99 and latency level (admission with a
//     LatencyTarget only);
//   - folds the workload estimator once over the measured elapsed time;
//   - runs one autoscaler step on the folded rates;
//   - once ReplanInterval has elapsed since the last check, replans when
//     the rates drifted past ReplanThreshold.
//
// A membership change kicks the job instead (replanKick): that tick
// replans from the current estimate without folding.
func (c *Controller) startControlJob() {
	period := c.serve.ReplanInterval
	if c.asc != nil {
		period = c.asc.cfg.Interval
	}
	latency := c.adm != nil && c.adm.cfg.LatencyTarget > 0
	if period <= 0 {
		if !latency {
			return
		}
		period = latencyWindow
	}
	if c.sched = c.serve.Tick; c.sched == nil {
		c.sched = tick.New()
		c.ownSched = true
	}
	c.controlJob = fmt.Sprintf("core-control-%d", controlSeq.Add(1))

	// Jobs run sequentially on the scheduler goroutine, so this closure
	// state needs no locking.
	last := time.Now()
	lastReplan := last
	prevReads := c.readBucketsTotal()
	c.sched.Register(c.controlJob, period, func(now time.Time) {
		if c.replanKick.Swap(false) {
			c.replanNow()
			return
		}
		if latency {
			cur := c.readBucketsTotal()
			if c.adm.observeWindow(now, cur.Sub(prevReads).Quantile(0.99)) {
				c.stats.brownoutShifts.Add(1)
			}
			prevReads = cur
		}
		if c.est == nil {
			return
		}
		if c.epoch.Load().plan == nil {
			// Nothing to adapt until the first manual plan — and don't burn
			// the estimator's first-tick seeding on the zero counters
			// accumulated before serving starts.
			last, lastReplan = now, now
			return
		}
		// Fold over measured elapsed time, not the nominal period: when a
		// slow PlanTimeBin delays the tick, the counters hold several
		// periods of requests and dividing by the period would inflate the
		// rate estimate (and cascade into spurious replans).
		rates := c.est.Tick(now.Sub(last).Seconds())
		last = now
		if c.asc != nil {
			c.asc.step(rates)
		}
		if c.serve.ReplanInterval > 0 && now.Sub(lastReplan) >= c.serve.ReplanInterval {
			lastReplan = now
			if c.est.Deviates(c.serve.ReplanThreshold) {
				c.runReplan(rates)
			}
		}
	})
}

// replanNow re-plans against the new node set after a membership change,
// using the freshest rate estimate (falling back to the rates the current
// plan was computed for when the estimator has not folded a tick yet).
func (c *Controller) replanNow() {
	ep := c.epoch.Load()
	if ep.plan == nil {
		return
	}
	rates := c.est.Rates()
	if !anyPositive(rates) {
		rates = ep.clu.Lambdas()
	}
	c.runReplan(rates)
}

// runReplan re-plans the time bin against the given rate estimate, counting
// errors and successes.
func (c *Controller) runReplan(rates []float64) {
	if _, err := c.PlanTimeBin(rates); err != nil {
		c.stats.replanErrors.Add(1)
		if c.serve.Logf != nil {
			c.serve.Logf("core: auto-replan: %v", err)
		}
		return
	}
	c.stats.autoReplans.Add(1)
}

func anyPositive(xs []float64) bool {
	for _, x := range xs {
		if x > 0 {
			return true
		}
	}
	return false
}

// readBucketsTotal folds the three read-latency classes into one
// distribution for the control job's windowed p99. Only served reads land
// in these histograms, so the fast failures of shed reads cannot drag the
// window's p99 down and reopen the gate.
func (c *Controller) readBucketsTotal() HistogramBuckets {
	return c.hist.cacheHit.bucketsSnapshot().
		Add(c.hist.storage.bucketsSnapshot()).
		Add(c.hist.degraded.bucketsSnapshot())
}
