package obs

import (
	"fmt"
	"strings"
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
	// Note is a flight-recorder entry: Track names the subsystem that
	// wrote it ("rig", "entity", "iface", "cmp"), Name carries the text
	// and Flow the cell it concerns (0 when not cell-specific). Rendered
	// by Dump.
	Note
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

// DefaultRecorderCap is the capacity of a flight recorder: a tracer that
// only holds the notes a failure digest dumps.
const DefaultRecorderCap = 256

// Tracer records run-scoped events into a bounded ring buffer: storage
// grows on demand up to the capacity, after which the oldest events are
// overwritten, so a long-running co-verification keeps its most recent
// window and never grows without bound. A nil *Tracer is a no-op on every
// method.
//
// The same type serves as a run's flight recorder (Run.Recorder): a
// DefaultRecorderCap ring of Notes that nothing reads during a healthy
// run; on a mismatch or a typed coupling failure the rig's failure digest
// carries its Dump, so the failure is triageable without a re-run.
type Tracer struct {
	mu       sync.Mutex
	start    time.Time
	capacity int
	buf      []Event
	next     int // oldest event once the ring is full
	dropped  uint64
}

// NewTracer returns a tracer holding up to capacity events (0 selects
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{start: time.Now(), capacity: capacity}
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
	if n := len(t.buf); n < t.capacity {
		if n == cap(t.buf) {
			grown := make([]Event, n, min(max(2*n, 8), t.capacity))
			copy(grown, t.buf)
			t.buf = grown
		}
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.next = (t.next + 1) % t.capacity
		t.dropped++
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

// Note records a flight-recorder entry from subsystem src at simulated
// time simPS (negative when it happened outside the simulated clock
// domain, e.g. on a transport goroutine).
func (t *Tracer) Note(src string, simPS int64, format string, args ...any) {
	t.NoteCell(0, src, simPS, format, args...)
}

// NoteCell records a flight-recorder entry attributed to the traced cell
// with trace ID cell.
func (t *Tracer) NoteCell(cell uint64, src string, simPS int64, format string, args ...any) {
	if t == nil {
		return
	}
	t.record(Event{Type: Note, Track: src, Name: fmt.Sprintf(format, args...), Sim: simPS, Flow: cell})
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
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Dump renders the ring for a failure digest: a headline plus one line
// per event. Only simulated time appears, so a dump from a replayed seed
// matches the campaign's original byte for byte. An empty ring dumps "".
func (t *Tracer) Dump() string {
	events := t.Events()
	if len(events) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder (%d events, %d overwritten):\n", len(events), t.Dropped())
	for _, e := range events {
		fmt.Fprintf(&b, "  [%s] t=%s", e.Track, fmtSimPS(e.Sim))
		if e.Flow != 0 {
			fmt.Fprintf(&b, " cell=0x%x", e.Flow)
		}
		fmt.Fprintf(&b, " %s\n", e.Name)
	}
	return b.String()
}
