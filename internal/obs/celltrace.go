package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Causal cell tracing: every PDU minted by a traffic source can carry a
// trace ID through the whole coupling — IPC envelope, co-simulation
// entity, signal-conditioned HDL stream, comparison engine — and each
// traced cell yields a per-hop latency waterfall. Trace IDs are plain
// uint64s chosen by the source (rigs use cell sequence number + 1, so an
// ID is never zero); zero always means "untraced" and records nothing.
//
// The hop names below are the canonical waypoints of a cell's journey in
// pipeline order. Tracked hops are exported two ways: as a text waterfall
// (WaterfallText) whose timestamps are simulated time only — so the same
// seed produces the same waterfall, byte for byte — and as Chrome
// trace-event flow arrows stitched across the engine tracks (see
// Run.WriteTrace).
const (
	// HopNetEnqueue: the traffic source hands the cell to the network
	// simulator.
	HopNetEnqueue = "net.enqueue"
	// HopEnvelopeTx: the interface process encodes the cell into a
	// time-stamped IPC message and pushes it into the coupling.
	HopEnvelopeTx = "ipc.tx"
	// HopEntityRx: the co-simulation entity on the HDL side accepts the
	// message under the conservative protocol.
	HopEntityRx = "entity.rx"
	// HopHDLCommit: the serialized cell starts transmitting on the DUT's
	// byte-level input port (first octet on the wire).
	HopHDLCommit = "hdl.commit"
	// HopCompare: the hardware response reaches the comparison engine.
	HopCompare = "compare"
)

// hopOrder fixes the pipeline position of each canonical hop so
// waterfalls render in journey order even when hops are recorded from
// concurrent engines. Unknown hop names sort after the canonical ones, in
// name order.
var hopOrder = map[string]int{
	HopNetEnqueue: 0,
	HopEnvelopeTx: 1,
	HopEntityRx:   2,
	HopHDLCommit:  3,
	HopCompare:    4,
}

// hopTrack maps each canonical hop onto the engine track that performs
// it, so flow arrows land on the right timeline rows.
var hopTrack = map[string]string{
	HopNetEnqueue: TrackNetsim,
	HopEnvelopeTx: TrackCoupling,
	HopEntityRx:   TrackCoupling,
	HopHDLCommit:  TrackHDL,
	HopCompare:    TrackRig,
}

// HopTrack returns the trace track a hop renders on (TrackRig for
// unknown hop names).
func HopTrack(hop string) string {
	if t, ok := hopTrack[hop]; ok {
		return t
	}
	return TrackRig
}

// Hop is one recorded waypoint of a traced cell. Sim is simulated time in
// picoseconds — the only clock the waterfall reports, so traces are
// deterministic for a given seed.
type Hop struct {
	Name string
	Sim  int64 // simulated time, ps
}

// CellTrace is the recorded journey of one traced cell, hops in
// pipeline order.
type CellTrace struct {
	ID   uint64
	Hops []Hop
}

// DefaultCellCap bounds how many distinct cells a tracker follows when
// NewCellTracker is given 0.
const DefaultCellCap = 4096

// CellTracker collects per-cell hop records. Sampling keeps full-rate
// campaigns affordable: a tracker created with every=N follows only
// trace IDs where (id-1)%N == 0, i.e. every Nth cell of a rig whose IDs
// are seq+1. The tracked-cell count is bounded; cells beyond the cap are
// ignored, never recorded partially. A nil *CellTracker is a
// no-op on every method, same contract as the rest of the package.
type CellTracker struct {
	every uint64
	max   int

	mu     sync.Mutex
	traces map[uint64]*CellTrace
	order  []uint64 // first-seen order, for stable export
}

// NewCellTracker returns a tracker sampling every Nth traced cell
// (every <= 1 keeps all) and following at most max distinct cells
// (0 selects DefaultCellCap).
func NewCellTracker(every, max int) *CellTracker {
	if every < 1 {
		every = 1
	}
	if max <= 0 {
		max = DefaultCellCap
	}
	return &CellTracker{every: uint64(every), max: max, traces: make(map[uint64]*CellTrace)}
}

// Enabled reports whether the tracker records anything; sources may use
// it to skip minting trace IDs entirely.
func (t *CellTracker) Enabled() bool { return t != nil }

// Every returns the sampling interval (0 for a nil tracker).
func (t *CellTracker) Every() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Sampled reports whether the given trace ID falls in the sample. ID 0
// (untraced) is never sampled.
func (t *CellTracker) Sampled(id uint64) bool {
	if t == nil || id == 0 {
		return false
	}
	return (id-1)%t.every == 0
}

// Hop records one waypoint of cell id at simulated time simPS. IDs
// outside the sample, and a new ID past the tracked-cell cap, are
// ignored.
func (t *CellTracker) Hop(id uint64, name string, simPS int64) {
	if !t.Sampled(id) {
		return
	}
	t.mu.Lock()
	tr, ok := t.traces[id]
	if !ok {
		if len(t.traces) >= t.max {
			t.mu.Unlock()
			return
		}
		tr = &CellTrace{ID: id}
		t.traces[id] = tr
		t.order = append(t.order, id)
	}
	tr.Hops = append(tr.Hops, Hop{Name: name, Sim: simPS})
	t.mu.Unlock()
}

// Len returns the number of tracked cells.
func (t *CellTracker) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// sortHops orders a copied hop list into pipeline order (stable for
// repeated hops).
func sortHops(hops []Hop) {
	sort.SliceStable(hops, func(i, j int) bool {
		oi, iok := hopOrder[hops[i].Name]
		oj, jok := hopOrder[hops[j].Name]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		}
		return hops[i].Name < hops[j].Name
	})
}

// Trace returns a copy of cell id's journey with hops in pipeline order,
// and whether the cell was tracked.
func (t *CellTracker) Trace(id uint64) (CellTrace, bool) {
	if t == nil {
		return CellTrace{}, false
	}
	t.mu.Lock()
	tr, ok := t.traces[id]
	var out CellTrace
	if ok {
		out = CellTrace{ID: tr.ID, Hops: append([]Hop(nil), tr.Hops...)}
	}
	t.mu.Unlock()
	sortHops(out.Hops)
	return out, ok
}

// Traces returns copies of every tracked cell in first-seen order, hops
// in pipeline order.
func (t *CellTracker) Traces() []CellTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]CellTrace, 0, len(t.order))
	for _, id := range t.order {
		tr := t.traces[id]
		out = append(out, CellTrace{ID: tr.ID, Hops: append([]Hop(nil), tr.Hops...)})
	}
	t.mu.Unlock()
	for i := range out {
		sortHops(out[i].Hops)
	}
	return out
}

// fmtSimPS renders a simulated-time stamp (ps) compactly and
// deterministically.
func fmtSimPS(ps int64) string {
	switch {
	case ps < 0:
		return "?"
	case ps < 1e6:
		return fmt.Sprintf("%dps", ps)
	case ps < 1e9:
		return fmt.Sprintf("%.3fus", float64(ps)/1e6)
	default:
		return fmt.Sprintf("%.3fms", float64(ps)/1e9)
	}
}

// WaterfallText renders one cell's journey as a per-hop latency
// waterfall. Only simulated time appears, so the text is identical
// across replays of the same seed:
//
//	cell trace 0x2a: 5 hops, 12.600us net.enqueue -> compare
//	  net.enqueue  t=10.000us
//	  ipc.tx       t=10.000us  +0ps
//	  ...
func WaterfallText(tr CellTrace) string {
	var b strings.Builder
	if len(tr.Hops) == 0 {
		fmt.Fprintf(&b, "cell trace 0x%x: no hops recorded\n", tr.ID)
		return b.String()
	}
	first, last := tr.Hops[0], tr.Hops[len(tr.Hops)-1]
	fmt.Fprintf(&b, "cell trace 0x%x: %d hops, %s %s -> %s\n",
		tr.ID, len(tr.Hops), fmtSimPS(last.Sim-first.Sim), first.Name, last.Name)
	wide := 0
	for _, h := range tr.Hops {
		if len(h.Name) > wide {
			wide = len(h.Name)
		}
	}
	for i, h := range tr.Hops {
		fmt.Fprintf(&b, "  %-*s t=%s", wide, h.Name, fmtSimPS(h.Sim))
		if i > 0 {
			fmt.Fprintf(&b, "  +%s", fmtSimPS(h.Sim-tr.Hops[i-1].Sim))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FlowEvents converts the tracked journeys into FlowPoint trace events —
// one per hop, on the hop's engine track — ready to merge into a tracer
// export so the Chrome viewer draws causal arrows across the engine
// timelines.
func (t *CellTracker) FlowEvents() []Event {
	var out []Event
	for _, tr := range t.Traces() {
		name := fmt.Sprintf("cell 0x%x", tr.ID)
		for _, h := range tr.Hops {
			out = append(out, Event{
				Type:  FlowPoint,
				Track: HopTrack(h.Name),
				Name:  name,
				Sim:   h.Sim,
				Flow:  tr.ID,
			})
		}
	}
	return out
}
