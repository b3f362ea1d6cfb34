package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Simulation profiler: deterministic activity attribution plus wall-clock
// phase accounting.
//
// The profile of one run has two strictly separated halves:
//
//   - Activity (ActivitySnap): per-signal event counts with a two-state
//     purity classifier, and per-process run counts with delta-cycle
//     attribution. These are integer counters derived only from simulated
//     behaviour, so they are bit-identical for a given seed, merge
//     shard-exactly (MergeActivity) like functional coverage, and may
//     appear in campaign digests.
//
//   - Phases (PhaseProfile): wall-clock nanoseconds attributed to the
//     stages of the co-simulation loop — HDL delta execution, coupling
//     encode/decode, IPC transport — plus a derived scheduler-advance
//     remainder. Wall times are telemetry only: they surface via /metrics
//     and /profile and must never enter a digest or any other
//     determinism-bearing artifact.
//
// The handle discipline matches the rest of the package: every method is
// nil-safe, so an unprofiled run pays one pointer test per site.

// Phase identifies one wall-time stage of the co-simulation loop.
type Phase int

// The accounted phases. PhaseHDL is time spent inside HDL.Run/Step within
// granted timing windows; PhaseEncode and PhaseDecode bracket the coupling
// registry's signal-map conversions; PhaseTransport brackets coupling
// Exchange with nested HDL time subtracted (a direct coupling executes
// the remote entity — and therefore its HDL — inside Exchange).
const (
	PhaseHDL Phase = iota
	PhaseEncode
	PhaseDecode
	PhaseTransport
	phaseCount
)

var phaseNames = [phaseCount]string{"hdl", "encode", "decode", "transport"}

func (p Phase) String() string {
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseProfile accumulates wall-clock time per phase. All fields are
// atomics: many workers (campaign shards) may add into one shared profile
// while the telemetry server snapshots it. A nil *PhaseProfile drops every
// observation for ~0 ns.
type PhaseProfile struct {
	ns      [phaseCount]atomic.Int64
	windows [phaseCount]atomic.Int64
	totalNs atomic.Int64 // whole-run wall time; enables the derived sched remainder
}

// NewPhaseProfile returns an empty phase profile.
func NewPhaseProfile() *PhaseProfile { return &PhaseProfile{} }

// Add attributes d of wall time to the phase and counts one window.
func (p *PhaseProfile) Add(ph Phase, d time.Duration) {
	if p == nil {
		return
	}
	p.ns[ph].Add(int64(d))
	p.windows[ph].Add(1)
}

// Ns returns the accumulated nanoseconds of the phase. Instrumentation
// sites read it before and after a nested call to subtract inner phases
// (the transport phase subtracts HDL time executed inside a direct
// coupling's Send).
func (p *PhaseProfile) Ns(ph Phase) int64 {
	if p == nil {
		return 0
	}
	return p.ns[ph].Load()
}

// AddNs attributes raw nanoseconds (possibly pre-adjusted for nested
// phases) to the phase and counts one window. Negative values are clamped
// to zero.
func (p *PhaseProfile) AddNs(ph Phase, ns int64) {
	if p == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	p.ns[ph].Add(ns)
	p.windows[ph].Add(1)
}

// AddTotal adds whole-run wall time. The snapshot derives the
// scheduler-advance remainder ("sched") as total minus the sum of the
// accounted phases.
func (p *PhaseProfile) AddTotal(d time.Duration) {
	if p == nil {
		return
	}
	p.totalNs.Add(int64(d))
}

// PhaseSnap is one phase's accumulated state.
type PhaseSnap struct {
	Name    string `json:"phase"`
	Ns      int64  `json:"ns"`
	Windows int64  `json:"windows,omitempty"`
}

// Snapshot returns the phases in fixed order. When AddTotal has recorded
// whole-run wall time, a derived "sched" remainder (scheduler advance and
// everything else outside the accounted phases) and the "total" row are
// appended. nil profiles snapshot empty.
func (p *PhaseProfile) Snapshot() []PhaseSnap {
	if p == nil {
		return nil
	}
	out := make([]PhaseSnap, 0, phaseCount+2)
	var sum int64
	for ph := Phase(0); ph < phaseCount; ph++ {
		ns := p.ns[ph].Load()
		sum += ns
		out = append(out, PhaseSnap{Name: ph.String(), Ns: ns, Windows: p.windows[ph].Load()})
	}
	if total := p.totalNs.Load(); total > 0 {
		sched := total - sum
		if sched < 0 {
			sched = 0
		}
		out = append(out,
			PhaseSnap{Name: "sched", Ns: sched},
			PhaseSnap{Name: "total", Ns: total},
		)
	}
	return out
}

// SignalActivity is one signal's deterministic activity: how many value
// changes it had and how many of those were two-state pure (every bit of
// both the old and new value a forcing 0 or 1 — no U/X/Z/weak/don't-care).
// The two-state fraction is the compiled-fast-path readiness signal: a
// signal whose transitions are all two-state could be simulated bit-
// parallel without 9-value resolution.
type SignalActivity struct {
	Name     string `json:"name"`
	Width    int    `json:"width"`
	Events   uint64 `json:"events"`
	TwoState uint64 `json:"two_state"`
}

// ProcessActivity is one process's deterministic activity: total body
// executions and how many of those ran in follow-on delta cycles (delta
// churn — runs beyond the first delta of their simulated instant).
type ProcessActivity struct {
	Name      string `json:"name"`
	Runs      uint64 `json:"runs"`
	DeltaRuns uint64 `json:"delta_runs"`
}

// ActivitySnap is the deterministic activity profile of one or more runs:
// signals and processes sorted by name. Integer-only and seed-
// deterministic, so snapshots merge shard-exactly and may be embedded in
// campaign digests.
type ActivitySnap struct {
	Signals   []SignalActivity  `json:"signals,omitempty"`
	Processes []ProcessActivity `json:"processes,omitempty"`
}

// Empty reports whether the snapshot carries no activity entries.
func (a ActivitySnap) Empty() bool { return len(a.Signals) == 0 && len(a.Processes) == 0 }

// Totals sums the snapshot: signal events, two-state events, process runs
// and delta-cycle runs.
func (a ActivitySnap) Totals() (events, twoState, runs, deltaRuns uint64) {
	for _, s := range a.Signals {
		events += s.Events
		twoState += s.TwoState
	}
	for _, p := range a.Processes {
		runs += p.Runs
		deltaRuns += p.DeltaRuns
	}
	return
}

// MergeActivity folds src into dst entry-wise and returns the result:
// signals and processes united by name (kept sorted), counts integer-
// summed. Like MergeCover the merge is associative, commutative and
// independent of shard count or merge order, which is what lets a campaign
// digest carry a byte-identical activity section at any shard count.
func MergeActivity(dst, src ActivitySnap) ActivitySnap {
	if src.Empty() {
		return dst
	}
	if dst.Empty() {
		return ActivitySnap{
			Signals:   append([]SignalActivity(nil), src.Signals...),
			Processes: append([]ProcessActivity(nil), src.Processes...),
		}
	}
	return ActivitySnap{
		Signals:   mergeSignalActivity(dst.Signals, src.Signals),
		Processes: mergeProcessActivity(dst.Processes, src.Processes),
	}
}

func mergeSignalActivity(dst, src []SignalActivity) []SignalActivity {
	out := make([]SignalActivity, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) || j < len(src) {
		switch {
		case j >= len(src) || (i < len(dst) && dst[i].Name < src[j].Name):
			out = append(out, dst[i])
			i++
		case i >= len(dst) || src[j].Name < dst[i].Name:
			out = append(out, src[j])
			j++
		default:
			m := dst[i]
			m.Events += src[j].Events
			m.TwoState += src[j].TwoState
			out = append(out, m)
			i, j = i+1, j+1
		}
	}
	return out
}

func mergeProcessActivity(dst, src []ProcessActivity) []ProcessActivity {
	out := make([]ProcessActivity, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) || j < len(src) {
		switch {
		case j >= len(src) || (i < len(dst) && dst[i].Name < src[j].Name):
			out = append(out, dst[i])
			i++
		case i >= len(dst) || src[j].Name < dst[i].Name:
			out = append(out, src[j])
			j++
		default:
			m := dst[i]
			m.Runs += src[j].Runs
			m.DeltaRuns += src[j].DeltaRuns
			out = append(out, m)
			i, j = i+1, j+1
		}
	}
	return out
}

// RunProfile bundles one run context's profiling state: the shared
// wall-clock phase profile plus the deterministic activity, fed either by
// absorbing finished snapshots (campaign mirror) or by live sources (a
// rig's HDL profiler, readable mid-run). A nil *RunProfile disables
// everything.
type RunProfile struct {
	Phases *PhaseProfile

	mu       sync.Mutex
	activity ActivitySnap
	sources  []func() ActivitySnap
}

// NewRunProfile returns an empty run profile with a fresh phase profile.
func NewRunProfile() *RunProfile { return &RunProfile{Phases: NewPhaseProfile()} }

// PhaseProf returns the phase profile, nil for a nil run profile.
func (p *RunProfile) PhaseProf() *PhaseProfile {
	if p == nil {
		return nil
	}
	return p.Phases
}

// AbsorbActivity merges a finished activity snapshot into the profile. The
// campaign engine absorbs each committed run's activity so /profile tracks
// hotspots live while the deterministic aggregate rides the digest.
func (p *RunProfile) AbsorbActivity(a ActivitySnap) {
	if p == nil || a.Empty() {
		return
	}
	p.mu.Lock()
	p.activity = MergeActivity(p.activity, a)
	p.mu.Unlock()
}

// AttachActivitySource registers a live activity source (a rig's HDL
// profiler snapshot function, safe to call concurrently with the
// simulation). Activity merges every source on demand.
func (p *RunProfile) AttachActivitySource(fn func() ActivitySnap) {
	if p == nil || fn == nil {
		return
	}
	p.mu.Lock()
	p.sources = append(p.sources, fn)
	p.mu.Unlock()
}

// Activity returns the merged activity state: everything absorbed plus the
// current state of every live source. nil profiles return an empty
// snapshot.
func (p *RunProfile) Activity() ActivitySnap {
	if p == nil {
		return ActivitySnap{}
	}
	p.mu.Lock()
	out := p.activity
	sources := p.sources
	p.mu.Unlock()
	for _, fn := range sources {
		out = MergeActivity(out, fn())
	}
	return out
}

// TopSignals returns up to n signals ordered by event count descending,
// name ascending on ties — a deterministic hotspot ranking.
func (a ActivitySnap) TopSignals(n int) []SignalActivity {
	out := append([]SignalActivity(nil), a.Signals...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopProcesses returns up to n processes ordered by run count descending,
// name ascending on ties.
func (a ActivitySnap) TopProcesses(n int) []ProcessActivity {
	out := append([]ProcessActivity(nil), a.Processes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// pct is a deterministic integer-ratio percentage (0 when the denominator
// is zero).
func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// WriteActivityText writes the deterministic hotspot table: every line
// prefixed "profile ", so callers (and the rig-smoke CI job) can
// isolate the byte-stable section with a "^profile " filter from the
// wall-clock "phase " lines that may follow. Integer-derived and sorted,
// so the output is byte-identical for a given seed.
func WriteActivityText(w io.Writer, a ActivitySnap, topN int) error {
	events, twoState, runs, deltaRuns := a.Totals()
	if _, err := fmt.Fprintf(w, "profile signals=%d events=%d two_state_events=%d purity=%.1f%%\n",
		len(a.Signals), events, twoState, pct(twoState, events)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "profile processes=%d runs=%d delta_runs=%d\n",
		len(a.Processes), runs, deltaRuns); err != nil {
		return err
	}
	for _, s := range a.TopSignals(topN) {
		if _, err := fmt.Fprintf(w, "profile signal=%s width=%d events=%d two_state=%d purity=%.1f%%\n",
			s.Name, s.Width, s.Events, s.TwoState, pct(s.TwoState, s.Events)); err != nil {
			return err
		}
	}
	for _, p := range a.TopProcesses(topN) {
		if _, err := fmt.Fprintf(w, "profile process=%s runs=%d delta_runs=%d\n",
			p.Name, p.Runs, p.DeltaRuns); err != nil {
			return err
		}
	}
	return nil
}

// WritePhaseText writes the wall-clock phase breakdown, one "phase " line
// per phase. Wall-derived and therefore not byte-stable across runs.
func WritePhaseText(w io.Writer, phases []PhaseSnap) error {
	for _, ph := range phases {
		if _, err := fmt.Fprintf(w, "phase %s ns=%d windows=%d\n", ph.Name, ph.Ns, ph.Windows); err != nil {
			return err
		}
	}
	return nil
}

// WritePhasePrometheus writes the phase breakdown in Prometheus exposition
// format.
func WritePhasePrometheus(w io.Writer, phases []PhaseSnap) error {
	if len(phases) == 0 {
		return nil
	}
	if _, err := fmt.Fprint(w, "# TYPE castanet_profile_phase_ns_total counter\n"); err != nil {
		return err
	}
	for _, ph := range phases {
		if _, err := fmt.Fprintf(w, "castanet_profile_phase_ns_total{phase=%q} %d\n", ph.Name, ph.Ns); err != nil {
			return err
		}
	}
	return nil
}
