// Package obs is the unified observability layer of the co-verification
// environment: a lock-cheap metrics registry (counters, gauges,
// fixed-bucket histograms) and a run-scoped trace layer whose events carry
// both simulated time and wall time, exportable as Chrome trace_event JSON
// so one co-verification run renders as a timeline (one track per engine)
// in chrome://tracing or Perfetto.
//
// The package sits below the simulation kernel: it imports nothing from
// the repository, so every engine — the network simulator, the HDL
// simulator, the coupling transports and the rigs — can instrument itself
// against it without import cycles. Simulated time therefore travels
// through this package as plain int64 picoseconds, the unit of sim.Time.
//
// Every entry point is nil-safe: methods on a nil *Registry, *Tracer,
// *Counter, *Gauge or *Histogram are no-ops (or return zero values), so
// instrumented code pays a single pointer test when observability is
// disabled. The overhead benchmarks in this package's test suite prove
// the disabled cost on the hdl and ipc hot paths.
//
// Metric names follow the engine.subsystem.name scheme documented in
// DESIGN.md §10, e.g. "net.sched.executed", "cosim.entity.lag_ps",
// "ipc.reliable.retransmits".
package obs

import (
	"io"
	"sort"
)

// Run bundles the observability context of one co-verification run: the
// metrics registry, the event tracer and the optional sinks below. It is
// the one observation handle everything below the command line carries:
// rig configurations embed it by value and hand it on whole to the
// co-simulation entity and interface process (Observe), so a sink set
// once reaches every layer. A nil *Run, like a zero Run, disables
// everything.
type Run struct {
	Registry *Registry
	Tracer   *Tracer
	// Cells, when non-nil, collects causal per-hop cell traces (see
	// celltrace.go); its journeys are merged into WriteTrace as flow
	// arrows. NewRun leaves it nil — cell tracing is opt-in.
	Cells *CellTracker
	// Cover is the functional-coverage registry (see cover.go). For
	// campaigns it is a live telemetry mirror: the engine absorbs each
	// committed run's snapshot into it, so /coverage tracks closure
	// while the deterministic per-run registries ride the aggregate.
	Cover *CoverRegistry
	// Profile, when non-nil, collects the simulation profile (see
	// profile.go): wall-clock phase accounting plus the deterministic
	// activity mirror backing /profile. NewRun leaves it nil — profiling
	// is opt-in (castanet -profile).
	Profile *RunProfile
	// Recorder, when non-nil, is the run's flight recorder: a second
	// tracer, typically DefaultRecorderCap events, holding the Notes
	// (coupling failures, protocol anomalies, comparison mismatches) a
	// failure digest dumps. NewRun leaves it nil.
	Recorder *Tracer
}

// NewRun returns a run context with a fresh registry and a tracer holding
// up to traceCap events (0 selects DefaultTraceCap). The core metric
// names shared by every deployment are pre-registered so run reports have
// a uniform schema whether or not the run exercises the corresponding
// subsystem (a direct-coupled run still reports zero retransmits).
func NewRun(traceCap int) *Run {
	r := &Run{Registry: NewRegistry(), Tracer: NewTracer(traceCap), Cover: NewCoverRegistry()}
	preregister(r.Registry)
	return r
}

// Reg returns the registry, nil for a nil run.
func (r *Run) Reg() *Registry {
	if r == nil {
		return nil
	}
	return r.Registry
}

// Trace returns the tracer, nil for a nil run.
func (r *Run) Trace() *Tracer {
	if r == nil {
		return nil
	}
	return r.Tracer
}

// CellTrace returns the cell tracker, nil for a nil run or an untracked
// one.
func (r *Run) CellTrace() *CellTracker {
	if r == nil {
		return nil
	}
	return r.Cells
}

// Prof returns the run profile, nil for a nil or unprofiled run.
func (r *Run) Prof() *RunProfile {
	if r == nil {
		return nil
	}
	return r.Profile
}

// CoverReg returns the cover registry, nil for a nil run.
func (r *Run) CoverReg() *CoverRegistry {
	if r == nil {
		return nil
	}
	return r.Cover
}

// WriteMetrics writes the registry's exposition format.
func (r *Run) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.Registry.WriteText(w)
}

// WriteTrace exports the tracer's buffered events as Chrome trace JSON.
// When the run tracks cells, their journeys are merged in as flow events
// and the combined stream is stably re-sorted by simulated time, keeping
// every track's timeline monotone.
func (r *Run) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.Tracer.Events()
	if flows := r.Cells.FlowEvents(); len(flows) > 0 {
		events = append(events, flows...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].Sim < events[j].Sim })
	}
	return WriteChromeTrace(w, events)
}

// preregister touches the metric names every run report is expected to
// carry, so snapshots are schema-stable across deployments (direct vs
// remote coupling, reliable vs plain links).
func preregister(reg *Registry) {
	for _, name := range []string{
		"net.sched.executed",
		"hdl.sim.delta_cycles",
		"hdl.sim.signal_events",
		"cosim.entity.received",
		"cosim.entity.windows",
		"ipc.reliable.sent",
		"ipc.reliable.retransmits",
		"ipc.reliable.timeouts",
		"ipc.fault.dropped",
	} {
		reg.Counter(name)
	}
	reg.Gauge("net.sched.pending")
	reg.Gauge("cosim.entity.lag_ps")
}
