package sim

import (
	"fmt"
	"time"

	"castanet/internal/obs"
)

// Scheduler is a sequential discrete-event scheduler: an event list plus a
// simulation clock. Events execute in monotone non-decreasing time-stamp
// order; scheduling into the past is a programming error and panics, which
// mirrors the causality rule in Fig. 3 of the paper — an event list may
// receive events for the current or a future time, never for a past time.
type Scheduler struct {
	queue    eventQueue
	now      Time
	running  bool
	stopped  bool
	executed uint64

	// Observability handles (nil when not instrumented; all nil-safe).
	obsExecuted *obs.Counter
	obsPending  *obs.Gauge
	obsRatio    *obs.Gauge
	obsRate     *obs.Gauge
}

// Instrument registers the scheduler's metrics under the given prefix
// (e.g. "net.sched"): <prefix>.executed counts executed events,
// <prefix>.pending gauges the event-queue depth,
// <prefix>.sim_wall_ratio gauges simulated seconds advanced per wall
// second over the most recent Run/RunUntil — the headline "as fast as the
// hardware allows" figure — and <prefix>.rate.events_per_sec gauges events
// executed per wall second over the same span (the ".rate." segment routes
// it into the /profile endpoint's sim-rate table). A nil registry leaves
// the scheduler uninstrumented at zero cost beyond one pointer test per
// event.
func (s *Scheduler) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s.obsExecuted = reg.Counter(prefix + ".executed")
	s.obsPending = reg.Gauge(prefix + ".pending")
	s.obsRatio = reg.Gauge(prefix + ".sim_wall_ratio")
	s.obsRate = reg.Gauge(prefix + ".rate.events_per_sec")
}

// NewScheduler returns a scheduler with the clock at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns how many events have been executed so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events in the queue, including events that
// were cancelled but not yet discarded.
func (s *Scheduler) Pending() int { return s.queue.Len() }

// At schedules fn at absolute time t. It returns the event handle, which
// may be used to cancel the event.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", s.now, t))
	}
	if fn == nil {
		panic("sim: scheduling nil function")
	}
	e := &Event{At: t, Fn: fn}
	s.queue.push(e)
	return e
}

// After schedules fn after the given delay from the current time.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Step executes the single earliest event. It reports whether an event was
// executed (false when the queue is empty or the scheduler was stopped).
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	e := s.queue.pop()
	if e == nil {
		return false
	}
	s.now = e.At
	s.executed++
	s.obsExecuted.Inc()
	e.Fn()
	return true
}

// RunUntil executes events whose time stamp is <= limit, then advances the
// clock to limit if any later events remain pending (so a subsequent
// RunUntil continues from there). It returns the current time.
func (s *Scheduler) RunUntil(limit Time) Time {
	if s.running {
		panic("sim: re-entrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	var wallStart time.Time
	simStart := s.now
	execStart := s.executed
	if s.obsRatio != nil {
		wallStart = time.Now()
	}
	s.stopped = false
	for !s.stopped {
		e := s.queue.peek()
		if e == nil || e.At > limit {
			break
		}
		s.Step()
	}
	if limit != Never && s.now < limit {
		s.now = limit
	}
	if s.obsRatio != nil {
		if wall := time.Since(wallStart).Seconds(); wall > 0 {
			s.obsRatio.Set((s.now - simStart).Seconds() / wall)
			s.obsRate.Set(float64(s.executed-execStart) / wall)
		}
		s.obsPending.Set(float64(s.queue.Len()))
	}
	return s.now
}

// Stop makes the current Run/RunUntil return after the in-flight event
// completes.
func (s *Scheduler) Stop() { s.stopped = true }
