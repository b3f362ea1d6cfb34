package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventType classifies trace events.
type EventType uint8

// Trace event types.
const (
	// SpanBegin opens a duration slice on a track; SpanEnd closes the most
	// recent open slice of the same name (Chrome "B"/"E" phases).
	SpanBegin EventType = iota
	SpanEnd
	// Instant marks a point in time (Chrome "i" phase).
	Instant
	// CounterSample records the value of a named quantity over time
	// (Chrome "C" phase), rendered as a filled graph in the viewer.
	CounterSample
	// FlowPoint is one waypoint of a causal flow (a traced cell's hop);
	// points sharing Event.Flow render as arrows stitched across tracks
	// (Chrome "s"/"t"/"f" phases). Produced by CellTracker.FlowEvents,
	// not by the Tracer itself.
	FlowPoint
)

// Track names used by the instrumented engines — one timeline row per
// engine in the trace viewer.
const (
	TrackNetsim   = "netsim"
	TrackHDL      = "hdl-dut"
	TrackCoupling = "coupling"
	TrackRig      = "rig"
)

// TrackWorker names the timeline row of one campaign worker shard, so a
// campaign-level trace renders as one track per worker with the runs it
// executed laid end to end.
func TrackWorker(shard int) string { return fmt.Sprintf("worker%d", shard) }

// Event is one structured trace record. Sim is simulated time in integer
// picoseconds (the unit of sim.Time); Wall is wall-clock nanoseconds since
// the tracer was created. Both travel so a viewer timeline laid out in
// simulated time can still expose the wall-clock cost split per engine.
type Event struct {
	Type  EventType
	Track string
	Name  string
	Sim   int64 // simulated time, ps
	Wall  int64 // wall time since tracer start, ns
	Value float64
	Flow  uint64 // flow (trace) ID linking FlowPoint events; 0 = none
}

// DefaultTraceCap is the ring capacity used when NewTracer is given 0.
const DefaultTraceCap = 1 << 16

// Tracer records run-scoped events into a fixed-capacity ring buffer:
// when the ring is full the oldest events are overwritten, so a
// long-running co-verification keeps its most recent window and never
// grows without bound. A nil *Tracer is a no-op on every method.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewTracer returns a tracer holding up to capacity events (0 selects
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{start: time.Now(), buf: make([]Event, capacity)}
}

// Enabled reports whether events will be recorded; instrumented code may
// use it to skip building expensive event arguments.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	e.Wall = int64(time.Since(t.start))
	if t.wrapped {
		t.dropped++
	}
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Begin opens a span on a track at simulated time simPS.
func (t *Tracer) Begin(track, name string, simPS int64) {
	t.record(Event{Type: SpanBegin, Track: track, Name: name, Sim: simPS})
}

// End closes the most recent open span of the same name on the track.
func (t *Tracer) End(track, name string, simPS int64) {
	t.record(Event{Type: SpanEnd, Track: track, Name: name, Sim: simPS})
}

// Emit records an instant event.
func (t *Tracer) Emit(track, name string, simPS int64) {
	t.record(Event{Type: Instant, Track: track, Name: name, Sim: simPS})
}

// Sample records one counter sample.
func (t *Tracer) Sample(track, name string, simPS int64, v float64) {
	t.record(Event{Type: CounterSample, Track: track, Name: name, Sim: simPS, Value: v})
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the buffered events in recording order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}
