package sim

import (
	"fmt"
	"time"

	"castanet/internal/obs"
)

// Scheduler is a sequential discrete-event scheduler: an event list plus a
// simulation clock. Events execute in monotone non-decreasing time-stamp
// order, and events with equal time stamps in the order they were
// scheduled, which makes runs reproducible regardless of map iteration or
// goroutine timing. Scheduling into the past is a programming error and
// panics, which mirrors the causality rule in Fig. 3 of the paper — an
// event list may receive events for the current or a future time, never
// for a past time.
//
// An event is a value of type E, held by value in the event list and
// handed to the scheduler's fire function when it is due: the caller
// defines what its events are and how they dispatch, and scheduling one
// allocates nothing once the list has reached its high-water mark.
type Scheduler[E any] struct {
	queue    eventQueue[E]
	fire     func(E)
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
func (s *Scheduler[E]) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s.obsExecuted = reg.Counter(prefix + ".executed")
	s.obsPending = reg.Gauge(prefix + ".pending")
	s.obsRatio = reg.Gauge(prefix + ".sim_wall_ratio")
	s.obsRate = reg.Gauge(prefix + ".rate.events_per_sec")
}

// NewScheduler returns a scheduler with the clock at time zero that
// executes each due event by passing it to fire.
func NewScheduler[E any](fire func(E)) *Scheduler[E] { return &Scheduler[E]{fire: fire} }

// Now returns the current simulated time.
func (s *Scheduler[E]) Now() Time { return s.now }

// Executed returns how many events have been executed so far.
func (s *Scheduler[E]) Executed() uint64 { return s.executed }

// Pending returns the number of events in the queue.
func (s *Scheduler[E]) Pending() int { return s.queue.Len() }

// At schedules ev at absolute time t.
func (s *Scheduler[E]) At(t Time, ev E) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", s.now, t))
	}
	s.queue.push(t, ev)
}

// After schedules ev after the given delay from the current time.
func (s *Scheduler[E]) After(d Duration, ev E) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.queue.push(s.now+d, ev)
}

// Step executes the single earliest event. It reports whether an event was
// executed (false when the queue is empty or the scheduler was stopped).
func (s *Scheduler[E]) Step() bool {
	if s.stopped || s.queue.Len() == 0 {
		return false
	}
	at, ev := s.queue.pop()
	s.now = at
	s.executed++
	s.obsExecuted.Inc()
	s.fire(ev)
	return true
}

// RunUntil executes events whose time stamp is <= limit, then advances the
// clock to limit if any later events remain pending (so a subsequent
// RunUntil continues from there). It returns the current time.
func (s *Scheduler[E]) RunUntil(limit Time) Time {
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
		if at, ok := s.queue.peek(); !ok || at > limit {
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
func (s *Scheduler[E]) Stop() { s.stopped = true }
