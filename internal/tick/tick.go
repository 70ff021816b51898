// Package tick coalesces the control plane's periodic work onto one
// goroutine and one timer. Without it, every maintenance loop — each
// controller's control job, the transport server's staged-put janitor,
// the repair scanner — would own a goroutine parked in its own
// time.Ticker select, so an idle server would wake once per loop just to
// decide there was nothing to do.
// A Scheduler tracks every job's next due time, sleeps until the
// earliest one, and runs due jobs sequentially on its single goroutine.
//
// Jobs must be short relative to the finest registered period: a slow
// job delays its peers (by design — bounded periodic work is the point).
// Long work belongs on its own goroutine, triggered from a job.
package tick

import (
	"sync"
	"sync/atomic"
	"time"
)

// Job is one registered periodic task. Run receives the scheduler's
// notion of now; elapsed-time accounting is the job's own business.
type job struct {
	name   string
	period time.Duration // 0 = kick-only: runs only via Kick
	fn     func(now time.Time)
	next   time.Time
	kicked bool
	runs   atomic.Int64
}

// Scheduler batches periodic jobs onto one goroutine. Construct with
// New; register jobs before or after Start.
type Scheduler struct {
	mu     sync.Mutex
	jobs   []*job
	kickCh chan struct{}
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	runs   atomic.Int64
}

// New returns a running scheduler.
func New() *Scheduler {
	s := &Scheduler{
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Register adds a periodic job. period == 0 registers a kick-only job
// that runs solely when Kick(name) is called. Registering a name twice
// replaces the previous job's schedule (the new one starts fresh).
func (s *Scheduler) Register(name string, period time.Duration, fn func(now time.Time)) {
	j := &job{name: name, period: period, fn: fn}
	if period > 0 {
		j.next = time.Now().Add(period)
	}
	s.mu.Lock()
	replaced := false
	for i, old := range s.jobs {
		if old.name == name {
			s.jobs[i] = j
			replaced = true
			break
		}
	}
	if !replaced {
		s.jobs = append(s.jobs, j)
	}
	s.mu.Unlock()
	s.wake()
}

// Kick schedules the named job to run at the next loop wakeup,
// regardless of its period. Unknown names are ignored.
func (s *Scheduler) Kick(name string) {
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.name == name {
			j.kicked = true
			break
		}
	}
	s.mu.Unlock()
	s.wake()
}

// Unregister removes the named job. Needed by subsystems that run their
// periodic work on a shared (injected) scheduler: their Close cannot stop
// the scheduler, so they pull their jobs instead. A job currently
// executing finishes; it is only its future runs that are cancelled.
// Unknown names are ignored.
func (s *Scheduler) Unregister(name string) {
	s.mu.Lock()
	for i, j := range s.jobs {
		if j.name == name {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.wake()
}

func (s *Scheduler) wake() {
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// Close stops the scheduler and waits for an in-flight job to finish.
func (s *Scheduler) Close() {
	s.once.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// Runs returns the total number of job executions (for tests/metrics).
func (s *Scheduler) Runs() int64 { return s.runs.Load() }

// JobRuns returns how many times the named job has run, or -1 if the
// name is unknown.
func (s *Scheduler) JobRuns(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.name == name {
			return j.runs.Load()
		}
	}
	return -1
}

// NumJobs returns the number of registered jobs.
func (s *Scheduler) NumJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func (s *Scheduler) loop() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []*job
	for {
		now := time.Now()
		due = due[:0]
		var wake time.Time
		s.mu.Lock()
		for _, j := range s.jobs {
			ready := j.kicked || (j.period > 0 && !now.Before(j.next))
			if ready {
				j.kicked = false
				if j.period > 0 {
					// Schedule from now, not from the previous due time:
					// a late tick (slow peer job, suspended VM) must not
					// cause a burst of catch-up runs.
					j.next = now.Add(j.period)
				}
				due = append(due, j)
			}
			if j.period > 0 && (wake.IsZero() || j.next.Before(wake)) {
				wake = j.next
			}
		}
		s.mu.Unlock()

		for _, j := range due {
			j.fn(now)
			j.runs.Add(1)
			s.runs.Add(1)
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if wake.IsZero() {
			// Only kick-only jobs (or none): sleep until kicked.
			select {
			case <-s.kickCh:
			case <-s.stopCh:
				return
			}
			continue
		}
		timer.Reset(time.Until(wake))
		select {
		case <-timer.C:
		case <-s.kickCh:
		case <-s.stopCh:
			return
		}
	}
}
